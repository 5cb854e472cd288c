"""Shared-memory publication of program data for process workers.

The process executor cannot ship trees and dataset columns to workers by
pickling them — serialising a multi-MB dataset per task would erase the
parallel win.  Instead the parent *publishes* every ndarray a compiled
program reads (Storage columns, ArrayTree structure and metadata) into a
single ``multiprocessing.shared_memory`` block, once per program, and
ships only the block's **manifest** — ``{name: (offset, dtype, shape)}``
— with each task.  Workers reattach zero-copy and build read-only ndarray
views over the block.

Blocks are content-addressed: the registry key is the program token
(a digest of the program's content identity, i.e. its code key plus
the blake2b dataset fingerprints and tree parameters), so repeated
``execute()`` calls over the same data republish nothing
(``shm.publish.hit``).  Lifecycle mirrors the execution caches: a small
LRU bounded alongside ``tree_cache``, evicted blocks are closed and
unlinked, and :func:`release_shared_blocks` (called by
``repro.backend.cache.clear_caches`` and at interpreter exit) drops
everything.
"""

from __future__ import annotations

import atexit
import threading
from collections import OrderedDict

import numpy as np

from ..observe import contribute

__all__ = [
    "publish_arrays", "attach_arrays", "release_block", "evict_stale_blocks",
    "release_shared_blocks", "shared_block_stats",
]

#: Alignment of each array inside a block; 64 bytes keeps every view on
#: its own cache line boundary regardless of preceding dtypes.
_ALIGN = 64

#: Max blocks kept published.  Sized with ``tree_cache`` in mind: a block
#: holds one program's dataset + trees, and the bench/test workloads
#: cycle through a handful of datasets.  The sharded layout publishes one
#: block *per shard* under a single program (tokens ``{token}``, which
#: also carries the query side, and ``{token}::r{i}``), so the bound
#: accommodates a couple of concurrently-live sharded programs at the
#: default shard counts without thrashing.
MAX_BLOCKS = 24


class SharedBlock:
    """One published shared-memory segment holding a set of named arrays.

    ``manifest`` maps each array name to ``(offset, dtype_str, shape)``.
    Arrays that alias the same buffer (e.g. a tree's ``start`` array
    published under two names) are written once and share an offset.
    """

    def __init__(self, arrays: dict[str, np.ndarray]):
        packed: dict[str, np.ndarray] = {
            name: np.ascontiguousarray(arr) for name, arr in arrays.items()
        }
        # Dedupe by content identity of the prepared buffer: two names
        # whose contiguous forms share (address, dtype, shape) map to
        # one copy in the block.
        slots: dict[tuple, int] = {}
        manifest: dict[str, tuple[int, str, tuple[int, ...]]] = {}
        order: list[tuple[int, np.ndarray]] = []
        total = 0
        for name, arr in packed.items():
            ident = (arr.__array_interface__["data"][0], arr.dtype.str,
                     arr.shape)
            offset = slots.get(ident)
            if offset is None:
                offset = (total + _ALIGN - 1) // _ALIGN * _ALIGN
                total = offset + arr.nbytes
                slots[ident] = offset
                order.append((offset, arr))
            manifest[name] = (offset, arr.dtype.str, arr.shape)

        from multiprocessing import shared_memory

        self.shm = shared_memory.SharedMemory(create=True,
                                              size=max(total, 1))
        for offset, arr in order:
            dst = np.ndarray(arr.shape, dtype=arr.dtype,
                             buffer=self.shm.buf, offset=offset)
            dst[...] = arr
        self.manifest = manifest
        self.nbytes = max(total, 1)
        # The publishing process owns the segment's lifetime; only the
        # owner may unlink.  close() used to be callable twice through
        # two paths at interpreter shutdown (LRU eviction / explicit
        # release racing the atexit hook), where the second unlink()
        # raised — the flag pair makes it idempotent and owner-guarded.
        self._owner = True
        self._closed = False
        self._close_lock = threading.Lock()

    @property
    def name(self) -> str:
        return self.shm.name

    def close(self) -> None:
        """Close (and, for the owner, unlink) the segment.  Idempotent
        and tolerant of a segment already gone — a worker still attached
        or a concurrent release must never raise, least of all from the
        ``atexit`` hook."""
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self.shm.close()
        except (OSError, ValueError):  # pragma: no cover - shutdown race
            pass
        if not self._owner:
            return
        try:
            self.shm.unlink()
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - platform shutdown quirks
            pass


# ---------------------------------------------------------------------------
# parent-side registry
# ---------------------------------------------------------------------------

_blocks: OrderedDict[str, SharedBlock] = OrderedDict()
_blocks_lock = threading.Lock()


def publish_arrays(
    token: str, arrays: dict[str, np.ndarray]
) -> tuple[str, dict]:
    """Publish ``arrays`` under ``token``; returns ``(shm_name, manifest)``.

    Idempotent per token: a block already published for this token is
    reused without touching the arrays (``shm.publish.hit``).  The
    registry is a small LRU — evicted blocks are closed and unlinked,
    which is safe because workers hold their own attachment open.
    """
    with _blocks_lock:
        block = _blocks.get(token)
        if block is not None:
            _blocks.move_to_end(token)
            contribute({"shm.publish.hit": 1})
            return block.name, block.manifest
    # Build outside the lock: packing copies array data and may be slow.
    block = SharedBlock(arrays)
    evicted: list[SharedBlock] = []
    with _blocks_lock:
        race = _blocks.get(token)
        if race is not None:
            _blocks.move_to_end(token)
            contribute({"shm.publish.hit": 1})
            evicted.append(block)  # lost the race; discard ours
            block = race
        else:
            _blocks[token] = block
            contribute({"shm.publish.miss": 1})
            while len(_blocks) > MAX_BLOCKS:
                _, old = _blocks.popitem(last=False)
                evicted.append(old)
    for old in evicted:
        old.close()
    return block.name, block.manifest


def release_block(token: str) -> None:
    """Unpublish one token's block (no-op if absent)."""
    with _blocks_lock:
        block = _blocks.pop(token, None)
    if block is not None:
        block.close()


def evict_stale_blocks(tokens) -> int:
    """Unpublish every block keyed by one of ``tokens`` or by a derived
    shard token (``{token}::r{i}``).

    The mutation-staleness hook: ``publish_arrays`` is idempotent per
    token and workers cache attachments per token, so after an in-place
    dataset mutation the old token's blocks would keep serving the
    pre-mutation columns to a warm process pool.  ``Storage`` calls this
    from its version bump; evictions are counted under
    ``shm.stale_evicted``.  Returns the number of blocks dropped.
    """
    prefixes = tuple(t for t in tokens if t)
    if not prefixes:
        return 0
    exact = set(prefixes)
    with _blocks_lock:
        victims = [t for t in _blocks
                   if t in exact or any(t.startswith(p + "::")
                                        for p in prefixes)]
        blocks = [_blocks.pop(t) for t in victims]
    for block in blocks:
        block.close()
    if blocks:
        contribute({"shm.stale_evicted": len(blocks)})
    return len(blocks)


def release_shared_blocks() -> None:
    """Unpublish everything (cache-clear hook and ``atexit``)."""
    with _blocks_lock:
        blocks = list(_blocks.values())
        _blocks.clear()
    for block in blocks:
        block.close()


def _atexit_release() -> None:
    # Interpreter shutdown must never raise from here, even racing a
    # concurrent eviction or a worker mid-detach.
    try:
        release_shared_blocks()
    except Exception:  # pragma: no cover - shutdown only
        pass


atexit.register(_atexit_release)


def shared_block_stats() -> dict:
    """Occupancy of the publication registry, for diagnostics."""
    with _blocks_lock:
        return {
            "blocks": len(_blocks),
            "bytes": sum(b.nbytes for b in _blocks.values()),
        }


# ---------------------------------------------------------------------------
# worker-side attachment
# ---------------------------------------------------------------------------

def attach_arrays(
    shm_name: str, manifest: dict
) -> tuple[shared_memory.SharedMemory, dict[str, np.ndarray]]:
    """Attach to a published block; returns the handle and read-only views.

    The caller must keep the returned handle alive as long as the views
    are in use and ``close()`` (not unlink) it afterwards — the parent
    owns the segment's lifetime.
    """
    # CPython registers *attached* segments with the resource tracker
    # as if the attacher owned them (bpo-39959).  Pool workers share the
    # parent's tracker (the fd is inherited by fork and spawn alike) and
    # its cache is a set, so the duplicate registration is a no-op — and
    # unregistering here would strip the parent's own entry, making its
    # eventual unlink() complain.  So: attach, touch nothing.
    from multiprocessing import shared_memory

    handle = shared_memory.SharedMemory(name=shm_name)
    views: dict[str, np.ndarray] = {}
    for name, (offset, dtype_str, shape) in manifest.items():
        view = np.ndarray(tuple(shape), dtype=np.dtype(dtype_str),
                          buffer=handle.buf, offset=offset)
        view.flags.writeable = False
        views[name] = view
    return handle, views
