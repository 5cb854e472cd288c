"""Admission control for the query-serving layer.

A long-lived service must bound how much work it accepts: an unbounded
queue converts overload into unbounded latency for *every* client, while
load-shedding keeps the served fraction fast and returns a typed,
retryable error to the rest.  One :class:`AdmissionConfig` governs each
registered handle:

* ``max_queue`` — admitted-but-uncompleted point queries per handle.
  A submit that would exceed it is rejected immediately with
  :class:`ServiceOverloaded` (counted under ``serve.shed``) instead of
  being parked behind an ever-growing backlog.
* ``batch_max`` — the most queries one coalesced traversal may carry.
  A full batch flushes immediately.  ``batch_max=1`` disables
  coalescing entirely (one execute per query).
* ``linger_us`` — how long an open batch waits for company before the
  linger timer flushes it.  Only reached when the handle already has an
  execute in flight: an idle handle flushes at the end of the current
  event-loop tick, so a lone client never pays the linger as latency.
* ``max_concurrent`` — concurrent batched executes per handle.  The
  default of 1 maximises coalescing (everything arriving during the
  in-flight traversal forms the next batch) and keeps per-handle result
  ordering simple; raise it for handles whose traversals underutilise
  the host.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dsl.errors import PortalError

__all__ = ["AdmissionConfig", "ServeError", "ServiceOverloaded"]


class ServeError(PortalError):
    """Base class for serving-layer failures (registration, protocol,
    lifecycle)."""


class ServiceOverloaded(ServeError):
    """The handle's admission queue is full; the query was shed.

    Retryable by construction: the service rejected the work *before*
    queueing it, so the client can back off and resubmit.
    """

    def __init__(self, handle: str, queued: int, requested: int, limit: int):
        self.handle = handle
        self.queued = queued
        self.requested = requested
        self.limit = limit
        super().__init__(
            f"handle {handle!r} is overloaded: {queued} queries in flight "
            f"+ {requested} requested > max_queue={limit}"
        )


@dataclass(frozen=True)
class AdmissionConfig:
    """Per-handle admission knobs (see module docstring)."""

    #: admitted-but-uncompleted queries per handle before load-shedding
    max_queue: int = 1024
    #: most queries one coalesced traversal may carry (1 = no coalescing)
    batch_max: int = 256
    #: open-batch linger before the timer flushes it (microseconds)
    linger_us: int = 2000
    #: concurrent batched executes per handle
    max_concurrent: int = 1

    def __post_init__(self):
        if self.max_queue < 1:
            raise ServeError(f"max_queue must be >= 1, got {self.max_queue}")
        if self.batch_max < 1:
            raise ServeError(f"batch_max must be >= 1, got {self.batch_max}")
        if self.linger_us < 0:
            raise ServeError(
                f"linger_us must be >= 0, got {self.linger_us}")
        if self.max_concurrent < 1:
            raise ServeError(
                f"max_concurrent must be >= 1, got {self.max_concurrent}")

    @classmethod
    def from_dict(cls, d: dict | None) -> "AdmissionConfig":
        """Build from a JSON-ish dict (the frontend's ``admission``
        request field); unknown keys are rejected."""
        if not d:
            return cls()
        unknown = set(d) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise ServeError(f"unknown admission options: {sorted(unknown)}")
        return cls(**{k: int(v) for k, v in d.items()})
