"""Persistent policy cache: tuned choices that survive process restarts.

One JSON file (default ``~/.cache/repro/policy.json``, overridable via
``REPRO_POLICY_PATH``) holding the measured policy table.  The file is
versioned by the compile pipeline's :data:`ARTIFACT_SCHEMA`, this
module's own :data:`POLICY_SCHEMA`, and a **host fingerprint** (CPU
count, usable affinity, numpy version, machine) —
measured timings from a different pipeline or a different machine must
never steer this one, so any mismatch drops the stored entries wholesale
(counted, never fatal).  A corrupt or truncated file likewise degrades
to an empty table under ``policy.load_failed``; the static ``auto``
rules remain the fallback in every failure mode.

Writes are atomic (tmp + rename) so a crashed process never leaves a
half-written table for the next one to trip over.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from ..observe import contribute

__all__ = [
    "POLICY_SCHEMA", "PolicyEntry", "PolicyStore", "default_policy_path",
    "host_fingerprint", "policy_store", "reset_policy_store",
]

#: Version of the on-disk policy table layout.  Bumped when the entry
#: schema or key format changes shape; old files are dropped wholesale.
#: v2: ``config`` has no ``codegen`` knob and the host fingerprint one
#: field fewer.
POLICY_SCHEMA = 2


def default_policy_path() -> str:
    """Resolve the policy file path (``REPRO_POLICY_PATH`` wins)."""
    env = os.environ.get("REPRO_POLICY_PATH", "").strip()
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME",
                          os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "repro", "policy.json")


def host_fingerprint() -> str:
    """Digest of the host facts a measured policy is conditioned on.

    Anything that changes the relative ranking of candidate
    configurations invalidates the table: core count and usable
    affinity (executor choices), the numpy version and machine
    architecture (kernel throughput).
    """
    try:
        affinity = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        affinity = None
    parts = (platform.machine(), str(os.cpu_count()), str(affinity),
             np.__version__)
    return hashlib.blake2b("|".join(parts).encode(),
                           digest_size=8).hexdigest()


@dataclass
class PolicyEntry:
    """One tuned decision: the winning configuration plus the
    measurement it was chosen from."""

    #: chosen knobs: executor / leaf_size
    config: dict
    #: candidate-label → best-of seconds from the tuning search
    timings: dict = field(default_factory=dict)
    #: problem size the measurement actually ran at (subsampled searches
    #: record the subsample)
    measured_nq: int = 0
    measured_nr: int = 0
    created: float = 0.0
    hits: int = 0

    @classmethod
    def from_dict(cls, d: dict) -> "PolicyEntry":
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in d.items() if k in known})


def _prune(entries: dict[str, PolicyEntry]) -> None:
    """Drop, in place, what no execute reads any more — an entry whose
    key names a tree kind the option table no longer allows, a config
    key the plan no longer reads (``traversal``, ``shards``) — counting
    each entry touched as ``policy.dropped_entries``."""
    from ..backend.plan import _CONFIG_KEYS, OPTION_TABLE

    trees = [[tree] for tree in OPTION_TABLE["tree"].metadata["allowed"]]
    dropped = 0
    for key, entry in list(entries.items()):
        kept = {k: v for k, v in entry.config.items() if k in _CONFIG_KEYS}
        if key.split(":")[1:2] not in trees:
            del entries[key]
        elif kept != entry.config:
            entry.config = kept
        else:
            continue
        dropped += 1
    if dropped:
        contribute({"policy.dropped_entries": dropped})


class PolicyStore:
    """Thread-safe, lazily-loaded view of one policy file."""

    def __init__(self, path: str | None = None):
        self._path = path
        self._lock = threading.RLock()
        self._entries: dict[str, PolicyEntry] | None = None

    @property
    def path(self) -> str:
        return self._path or default_policy_path()

    # -- load / save -----------------------------------------------------------
    def _load(self) -> dict[str, PolicyEntry]:
        """Read the file once; every failure mode yields an empty table."""
        from ..backend.cache import ARTIFACT_SCHEMA

        if self._entries is not None:
            return self._entries
        entries: dict[str, PolicyEntry] = {}
        path = self.path
        if os.path.exists(path):
            try:
                with open(path) as fh:
                    payload = json.load(fh)
                if not isinstance(payload, dict):
                    raise ValueError("policy file is not a JSON object")
                if payload.get("policy_schema") != POLICY_SCHEMA or \
                        payload.get("artifact_schema") != ARTIFACT_SCHEMA:
                    contribute({"policy.schema_mismatch": 1})
                elif payload.get("host") != host_fingerprint():
                    contribute({"policy.host_mismatch": 1})
                else:
                    for key, raw in payload.get("entries", {}).items():
                        entries[key] = PolicyEntry.from_dict(raw)
                    _prune(entries)
            except Exception:
                # Corrupt/truncated/unreadable: the static auto rules
                # still route everything — never raise from here.
                contribute({"policy.load_failed": 1})
                entries = {}
        self._entries = entries
        return entries

    def _save(self) -> None:
        from ..backend.cache import ARTIFACT_SCHEMA

        path = self.path
        payload = {
            "policy_schema": POLICY_SCHEMA,
            "artifact_schema": ARTIFACT_SCHEMA,
            "host": host_fingerprint(),
            "entries": {k: asdict(e) for k, e in (self._entries or {}).items()},
        }
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
            os.replace(tmp, path)
            contribute({"policy.store_saved": 1})
        except OSError:  # pragma: no cover - unwritable cache dir
            contribute({"policy.store_save_failed": 1})

    # -- table operations ------------------------------------------------------
    def get(self, key) -> PolicyEntry | None:
        with self._lock:
            entry = self._load().get(key.as_str())
            if entry is not None:
                entry.hits += 1
            return entry

    def put(self, key, entry: PolicyEntry) -> None:
        with self._lock:
            if not entry.created:
                entry.created = time.time()
            self._load()[key.as_str()] = entry
            self._save()

    def forget(self) -> None:
        """Drop the in-memory view (the next access re-reads the file) —
        the test-isolation hook wired into ``clear_caches()``."""
        with self._lock:
            self._entries = None

    def clear(self) -> None:
        """Empty the table and persist the empty file."""
        with self._lock:
            self._entries = {}
            self._save()

    def __len__(self) -> int:
        with self._lock:
            return len(self._load())


_store_lock = threading.Lock()
_store: PolicyStore | None = None


def policy_store() -> PolicyStore:
    """The process-wide store for the current ``REPRO_POLICY_PATH``."""
    global _store
    with _store_lock:
        if _store is None or _store.path != default_policy_path():
            _store = PolicyStore()
        return _store


def reset_policy_store() -> None:
    """Forget the process-wide store (tests switch paths between cases)."""
    global _store
    with _store_lock:
        _store = None
