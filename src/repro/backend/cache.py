"""Execution caches: code by program shape, data by content identity.

The "serve heavy repeated traffic" half of the roadmap: a program shape
pays for rule generation, IR optimisation and code generation once, and
a dataset pays for its trees once, whichever program meets it next.
Two bounded LRU caches, and nothing cached on top that pairs them:

* the **code cache** (:mod:`repro.backend.jit`) memoises the code half
  of a compile — rules, optimised IR, emitted source, code object —
  keyed on the program's *shape* alone: the layer chain (operator
  names, unparsed kernel expressions, parameter values, Storage names
  and dimensions) and the options that change the code, and no dataset
  fingerprint;
* the **tree cache** memoises :class:`~repro.trees.node.ArrayTree`
  builds keyed on (data fingerprint, tree kind, leaf size, weights
  fingerprint), so *different problems* over the same dataset
  share one tree build — and, under derived keys
  (:func:`derived_entry`), per-shard subset trees and whitened points.
  A logged mutation or ``Storage.clear()`` retires every entry whose key
  names a fingerprint it made dead (:func:`retire_superseded`): the
  cache holds live data, not history.

Dataset identity is a BLAKE2 content fingerprint, hashed on a Storage's
first ``fingerprint()`` call and extended per logged edit.  A fresh
`Storage` hashes its values in full (:func:`array_fingerprint`), so
rebuilding one around the same values
still hits; mutating values (iterative problems like k-means and EM
build a fresh Storage per step; in-place writers call
``Storage.mark_mutated()``, which forces the next full hash) correctly
misses.  A mutation through the Storage batch API instead derives the
new fingerprint from the old one and the edit
(:func:`chained_fingerprint`, O(changed)): same base plus same edits
gives the same key, and another route to the same content a miss,
never a false hit.  Fingerprints are memoized per Storage, so the *hit*
path never re-hashes the dataset and a logged 1 % update never hashes
the other 99 %.  Probes are counted as ``cache.compile.*`` (the code
probe: did anything compile), ``cache.tree.*`` and ``cache.whiten.*``
(see docs/performance.md), the digests behind them as
``cache.fingerprint.*``.  ``clear_caches()`` empties both.

Cached objects are safe to share: traversals never mutate tree arrays,
nothing writes to a cached code half or whitened array, and every
per-run accumulator is allocated fresh per :class:`CompiledProgram`
instantiation.
"""

from __future__ import annotations

import enum
import hashlib
import threading
from collections import OrderedDict

import numpy as np

from ..observe import contribute
from ..trees import build_tree

__all__ = [
    "LRUCache", "MISSING", "UncacheableParamError", "array_fingerprint",
    "chained_fingerprint", "freeze", "cached_build_tree",
    "cached_build_subset_tree", "derived_entry", "code_cache", "tree_cache",
    "retire_superseded", "clear_caches", "cache_stats",
]

#: Sentinel distinguishing "key absent" from "cached value is None" in
#: :meth:`LRUCache.get` — a legitimately-``None`` value must not look
#: like a miss (which would force a rebuild on every call).
MISSING = object()


class UncacheableParamError(TypeError):
    """A parameter value has no stable content identity to key on.

    Raised by :func:`freeze` instead of falling back to ``repr(value)``:
    default object reprs embed memory addresses, so they cause spurious
    misses at best and — after the allocator reuses an address for a
    *different* stateful object — false cache **hits** at worst.
    Callers treat the program as uncacheable (counted under
    ``cache.compile.uncacheable``).
    """


def array_fingerprint(arr) -> tuple | None:
    """Content fingerprint of an ndarray: (BLAKE2 digest, shape, dtype).

    O(n) in the array size; :meth:`repro.dsl.storage.Storage.fingerprint`
    memoizes this per Storage so repeated cache-key computations (the
    hit path) do not re-hash — and non-C-contiguous inputs are not
    re-copied — on every ``execute()``.
    """
    if arr is None:
        return None
    a = np.ascontiguousarray(arr)
    digest = hashlib.blake2b(a.data, digest_size=16).hexdigest()
    contribute({"cache.fingerprint.full": 1})
    return (digest, a.shape, str(a.dtype))


def chained_fingerprint(fp: tuple, kind: str, idx: np.ndarray, rows,
                        shape: tuple) -> tuple:
    """Fingerprint of the array one logged edit makes of the array whose
    fingerprint is ``fp``: O(edit), not O(n).

    The digest is BLAKE2 over ``fp``'s digest ‖ ``kind`` ‖ ``idx`` ‖
    ``rows`` (``None`` for a delete), tagged ``chain`` through BLAKE2's
    personalisation so no full-content digest can equal a chained one;
    the result has :func:`array_fingerprint`'s ``(digest, shape,
    dtype)`` form.  An old content plus an edit determines the new
    content, so equal chains name equal arrays; the converse does not
    hold — other edits reaching the same values make another key (a
    miss, never a false hit).
    """
    h = hashlib.blake2b(fp[0].encode(), digest_size=16, person=b"chain")
    h.update(kind.encode())
    h.update(np.ascontiguousarray(idx, dtype=np.int64).data)
    if rows is not None:
        h.update(np.ascontiguousarray(rows, dtype=np.float64).data)
    contribute({"cache.fingerprint.chained": 1})
    return (h.hexdigest(), tuple(shape), fp[2])


def freeze(value):
    """Recursively convert a parameter value to a hashable cache-key part.

    Every returned part is derived from the value's *contents* (type +
    structural data), never from object identity.  Values with no stable
    content key raise :class:`UncacheableParamError` — the caller must
    skip the cache rather than risk an address-based collision.
    """
    if isinstance(value, np.ndarray):
        return ("ndarray", array_fingerprint(value))
    if isinstance(value, np.generic):
        return ("npscalar", value.dtype.str, value.item())
    if isinstance(value, dict):
        return tuple(sorted(((k, freeze(v)) for k, v in value.items()),
                            key=repr))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return ("set", tuple(sorted((freeze(v) for v in value), key=repr)))
    if isinstance(value, (bool, int, float, str, bytes, type(None))):
        return value
    if isinstance(value, enum.Enum):
        return ("enum", type(value).__qualname__, value.name)
    raise UncacheableParamError(
        f"cannot build a content-addressed cache key for "
        f"{type(value).__qualname__!r} values; the program will run "
        f"uncached"
    )


class LRUCache:
    """A small thread-safe LRU map (no TTL: entries are content-addressed,
    so staleness is impossible — only capacity eviction)."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        #: bumped by :meth:`clear`, so whoever still holds a value that
        #: was cached here can tell an eviction from a clear
        self.generation = 0

    def get(self, key, default=None):
        """Return the cached value, or ``default`` when absent.

        Pass :data:`MISSING` as the default to distinguish "key absent"
        from "cached value is None" — internal callers do, so a
        legitimately-``None`` value still counts as a hit.
        """
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                return default
            self._data.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.generation += 1

    def discard_naming(self, parts) -> int:
        """Drop every entry whose key holds one of ``parts`` at any
        depth; returns how many went (does not bump :attr:`generation`:
        this is an eviction, not a clear)."""
        def names(key):
            return key in parts or (isinstance(key, tuple)
                                    and any(map(names, key)))
        with self._lock:
            dead = [key for key in self._data if names(key)]
            for key in dead:
                del self._data[key]
        return len(dead)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


#: Version prefix of the code-cache key schema.  Bumped whenever the
#: pass pipeline or the compiled layout changes shape (new passes, new
#: key fields), so a process that hot-reloads compiler modules can never
#: serve code built by an older pipeline.
#: v4: pluggable codegen backends — the key carries the resolved
#: codegen backend name, so a native artifact never collides with a
#: NumPy one.
#: v5: sharded reference layout — the key carries the resolved shard
#: count, and shard artifacts hold per-shard trees/bindings that an
#: unsharded artifact of the same program must never alias.
#: v6: incremental trees — mutated datasets re-key through the same
#: fingerprint scheme, but artifacts now reference trees that may have
#: been produced by the refit path; the bump keeps any hot-reloading
#: process from pairing a new-layout tree with an old artifact.
#: v7: the artifact is a (code half, data half) pair and the key is laid
#: out the same way, Storage / Var / program names included.
#: v8: the code half has its own entry, ``(ARTIFACT_SCHEMA, code key)``,
#: shared by every artifact of its shape.
#: v9: one codegen target — the key no longer carries a backend name.
#: v10: one distance form per metric — the key no longer carries a
#: layout, and every comparative reduction's code keeps winner ids.
ARTIFACT_SCHEMA = 10

#: Code halves, one per program shape, shared across datasets.
code_cache = LRUCache(maxsize=32)
#: Tree builds and derived data products, shared across problems on the
#: same dataset.
tree_cache = LRUCache(maxsize=16)


def cached_build_tree(
    kind: str,
    points: np.ndarray,
    leaf_size: int,
    weights: np.ndarray | None,
    storage=None,
    fingerprint: tuple | None = None,
):
    """:func:`repro.trees.build_tree` behind the content-addressed cache.

    ``storage`` is the :class:`~repro.dsl.storage.Storage` the points
    come from, ``fingerprint`` theirs if the caller holds it (whitened
    points do).  When ``points`` is the Storage's own ``data``, a miss
    first asks the Storage for the live tree it built at this same
    version (evicted here since the last ``clear()``, still held there:
    a hit), then tries the **incremental path**: if a live tree was
    built over an earlier version of the same Storage and
    the Storage's mutation log covers the gap, the old tree is
    snapshotted and the deltas are replayed through the ``ArrayTree``
    mutation API (``cache.tree.refit``) — orders of magnitude cheaper
    than a from-scratch build for small update fractions.  The refit
    clone is cached under the *new* content key; the mutation already
    retired the old one (the snapshot leaves the live tree intact).
    """
    own_data = storage is not None and points is storage.data
    pts_fp = fingerprint or (storage.fingerprint("data") if own_data
                             else array_fingerprint(points))
    w_fp = (storage.fingerprint("weights")
            if storage is not None and weights is storage.weights
            else array_fingerprint(weights))
    key = ("tree", kind, int(leaf_size), pts_fp, w_fp)
    live_key = (kind, int(leaf_size))
    built_for = (w_fp, tree_cache.generation)
    tree = tree_cache.get(key, MISSING)
    if tree is MISSING and own_data:
        built_version, live, live_for = storage._live_trees.get(
            live_key, (None, None, None))
        # Evicted, not cleared: the Storage still holds the tree built
        # at this version over these weights.
        if (built_version, live_for) == (storage.version, built_for):
            tree = live
            tree_cache.put(key, tree)
    if tree is not MISSING:
        contribute({"cache.tree.hit": 1})
    else:
        tree = _refit_live_tree(storage, live_key) if own_data else None
        if tree is not None:
            contribute({"cache.tree.refit": 1})
        else:
            contribute({"cache.tree.miss": 1})
            tree = build_tree(kind, points, leaf_size=leaf_size,
                              weights=weights)
        tree_cache.put(key, tree)
    if own_data:
        storage._live_trees[live_key] = (storage.version, tree, built_for)
    return tree


def _refit_live_tree(storage, live_key: tuple):
    """Bring a previously-built live tree up to the Storage head by
    replaying the mutation log onto a snapshot; ``None`` when there is no
    usable live tree (never built, chain broken, or replay failed)."""
    entry = storage._live_trees.get(live_key)
    if entry is None:
        return None
    built_version, tree, _ = entry
    deltas = storage.deltas_since(built_version)
    if not deltas:  # None (broken chain) or [] (same version, other weights)
        return None
    clone = tree.snapshot()
    try:
        for d in deltas:
            if d.kind == "update":
                clone.update_batch(d.idx, d.points, d.weights)
            elif d.kind == "insert":
                clone.insert_batch(d.points, d.weights)
            else:
                clone.delete_batch(d.idx)
    except Exception:  # pragma: no cover - refit must never poison a build
        contribute({"cache.tree.refit_failed": 1})
        return None
    return clone


def cached_build_subset_tree(
    kind: str,
    points: np.ndarray,
    idx: np.ndarray,
    leaf_size: int,
    weights: np.ndarray | None,
    base_key: tuple,
    shard: tuple[int, int],
):
    """:func:`repro.trees.build_subset_tree` behind the cache.

    Unlike :func:`cached_build_tree`, the key is *derived*, not content
    hashed: ``base_key`` is the parent dataset's (already memoized)
    fingerprint tuple and ``shard`` is ``(shard_index, shard_count)``.
    The shard planner is deterministic, so (parent data, planner
    parameters, shard position) identifies the subset exactly — and the
    hit path never gathers the shard rows, let alone re-hashes them,
    which is the point: an O(n) hash per shard per execute() would eat
    the build-parallelism win the shard layout exists for.
    """
    from ..trees import build_subset_tree

    return derived_entry(
        ("shard-tree", kind, int(leaf_size), base_key,
         (int(shard[0]), int(shard[1]))),
        lambda: build_subset_tree(kind, points, idx, leaf_size=leaf_size,
                                  weights=weights))


def derived_entry(key: tuple, build, counter: str = "cache.tree"):
    """The tree-cache entry under a *derived* ``key`` — one made of
    identities the caller already holds (memoized fingerprints, shard
    positions), never a hash of the value — built by ``build()`` on a
    miss; the probe is counted as ``{counter}.hit`` / ``.miss``."""
    value = tree_cache.get(key, MISSING)
    if value is not MISSING:
        contribute({f"{counter}.hit": 1})
        return value
    contribute({f"{counter}.miss": 1})
    value = build()
    tree_cache.put(key, value)
    return value


def retire_superseded(fingerprints) -> None:
    """Drop the tree-cache entries keyed by ``fingerprints`` — contents
    a logged mutation or ``Storage.clear()`` just made dead — with every
    derived entry naming them (shard trees, whitened points, the other
    side's whitened points under an estimated covariance), counted as
    ``cache.tree.superseded``."""
    dropped = tree_cache.discard_naming(set(fingerprints))
    if dropped:
        contribute({"cache.tree.superseded": dropped})


def clear_caches() -> None:
    """Drop every cached code half, tree, derived data product and
    published shared-memory block (test isolation hook).  The persistent
    policy store's in-memory view is forgotten too (the file is
    untouched; the next consult re-reads it), so tests switching
    ``REPRO_POLICY_PATH`` between cases never see a stale table."""
    code_cache.clear()
    tree_cache.clear()
    from ..parallel import shm

    shm.release_shared_blocks()
    from ..policy import reset_policy_store

    reset_policy_store()


def cache_stats() -> dict:
    """Current cache occupancy, for diagnostics."""
    return {"code": len(code_cache), "trees": len(tree_cache)}
