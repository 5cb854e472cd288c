"""``Storage``: the primary user-facing data structure (paper section III-B).

A Storage wraps a dataset of ``n`` points in ``d`` dimensions.  It can be
constructed from a CSV file path, any array-like, or another Storage.
Its points are stored row-major, ``(n, d)``, at every dimensionality:
the paper's column-major layout for d ≤ 4 does not reproduce under
NumPy (DESIGN.md, S8).

Storages may carry per-point *weights* (the density ``s(x_r)`` of the
classical N-body form — particle masses in Barnes-Hut, mixture
responsibilities in EM) and a *labels* vector (class ids for the naive
Bayes classifier).

Storages also memoize their content *fingerprints* (the BLAKE2 digests
the execution cache keys on, see :mod:`repro.backend.cache`), so cache
hits do not re-hash the dataset on every ``execute()``.  A logged
mutation (the batch API) carries the memo forward by chaining its edit
onto it in O(changed); code that writes into a live Storage's arrays in
place must call :meth:`Storage.mark_mutated`, which drops the memo so
the next key hashes in full (iterative problems in this codebase —
k-means, EM — instead build a fresh Storage per step, which always
re-fingerprints).
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import StorageError

__all__ = ["Storage", "StorageDelta", "MUTATION_LOG_MAX"]

#: Bound on the per-Storage mutation log.  A live tree further than this
#: many mutations behind the Storage head can no longer be refit and
#: falls back to a full rebuild — the log exists to make the *recent*
#: past cheap, not to be a journal.
MUTATION_LOG_MAX = 32


@dataclass(frozen=True)
class StorageDelta:
    """One recorded mutation: enough to replay it onto a live tree.

    ``version`` is the Storage version *after* the mutation, so a tree
    built at version ``v`` is brought current by replaying every delta
    with ``version > v`` (they are consecutive whenever the log chain is
    intact — a bare :meth:`Storage.mark_mutated` breaks it on purpose).
    """

    version: int
    kind: str  # 'insert' | 'delete' | 'update'
    idx: np.ndarray | None
    points: np.ndarray | None
    weights: np.ndarray | None


class Storage:
    """A dataset participating in a Portal layer.

    Parameters
    ----------
    source:
        A CSV file path, an array-like of shape ``(n, d)`` (a 1-D input is
        treated as ``n`` points in one dimension), or another Storage
        (shares the underlying array).
    weights:
        Optional per-point weights, shape ``(n,)``.
    labels:
        Optional per-point integer labels, shape ``(n,)``.
    name:
        Optional name used in IR dumps and error messages.
    """

    def __init__(self, source, *, weights=None, labels=None, name: str | None = None):
        if isinstance(source, Storage):
            data = source.data
            name = name or source.name
            weights = weights if weights is not None else source.weights
            labels = labels if labels is not None else source.labels
        elif isinstance(source, (str, os.PathLike)):
            data = _read_csv(os.fspath(source))
            name = name or os.path.splitext(os.path.basename(os.fspath(source)))[0]
        else:
            data = np.asarray(source, dtype=np.float64)
            if data.ndim == 1:
                data = data[:, None]
        if data.ndim != 2:
            raise StorageError(
                f"Storage requires 2-D data (n points × d dims); got shape {data.shape}"
            )
        if data.shape[0] == 0:
            raise StorageError("Storage cannot be empty")
        if not np.all(np.isfinite(data)):
            raise StorageError("Storage data contains NaN or infinite values")

        self._data = np.ascontiguousarray(data, dtype=np.float64)
        self._cleared = False
        self._version = 0
        self._fp_cache: dict[str, tuple] = {}
        #: Recent mutations (bounded), replayable onto live trees.
        self._mutation_log: list[StorageDelta] = []
        #: Live trees built over this Storage's data by the tree cache:
        #: ``(kind, leaf_size) -> (built_version, tree,
        #: (weights_fingerprint, tree_cache.generation))``.
        self._live_trees: dict[tuple, tuple] = {}
        #: Shared-memory tokens under which this Storage's columns are
        #: currently published (evicted on mutation).
        self._shm_tokens: set[str] = set()
        self.name = name or "storage"
        self.weights = None if weights is None else _check_vec(
            weights, self.n, "weights", float
        )
        self.labels = None if labels is None else _check_vec(
            labels, self.n, "labels", int
        )
        self._cleared = False

    # -- basic properties -----------------------------------------------------
    @property
    def data(self) -> np.ndarray:
        """Row-major view, shape ``(n, d)``."""
        self._check_alive()
        return self._data

    @property
    def n(self) -> int:
        self._check_alive()
        return self._data.shape[0]

    @property
    def dim(self) -> int:
        self._check_alive()
        return self._data.shape[1]

    # -- content identity -------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter: bumped by :meth:`mark_mutated`."""
        return self._version

    def mark_mutated(self) -> None:
        """Declare that this Storage's arrays were written in place.

        Invalidates the memoized content fingerprints so the next
        ``execute()`` re-fingerprints and correctly misses the execution caches, evicts
        any shared-memory blocks still published under this Storage's
        old tokens (a warm process pool must never read stale columns),
        and — because an arbitrary in-place write cannot be replayed —
        breaks the mutation-log chain, so live trees fall back to a full
        rebuild instead of an unsound refit.
        """
        self._bump_version()
        self._mutation_log.clear()
        self._live_trees.clear()

    def _bump_version(self) -> None:
        self._version += 1
        self._fp_cache.clear()
        self._evict_stale_shm()

    def _evict_stale_shm(self) -> None:
        if not self._shm_tokens:
            return
        tokens = tuple(self._shm_tokens)
        self._shm_tokens.clear()
        from ..parallel import shm

        shm.evict_stale_blocks(tokens)

    def note_shm_token(self, token: str | None) -> None:
        """Record that this Storage's columns are published to shared
        memory under ``token`` (called by the compiler when it hands a
        program to the process executor), so a later mutation can evict
        exactly those blocks."""
        if token:
            self._shm_tokens.add(token)

    # -- mutation API -----------------------------------------------------------
    def insert_batch(self, points, weights=None, labels=None) -> np.ndarray:
        """Append points; returns their (stable) new row indices.

        A weighted Storage defaults missing ``weights`` to 1; an
        unweighted one rejects them.  The mutation is copy-on-write (the
        previous ``data`` array is never written into), recorded in the
        mutation log so live trees refit instead of rebuilding.
        """
        self._check_alive()
        pts = np.asarray(points, dtype=np.float64).reshape(-1, self.dim)
        m = pts.shape[0]
        if m == 0:
            return np.empty(0, dtype=np.int64)
        if not np.all(np.isfinite(pts)):
            raise StorageError("insert_batch points contain NaN or infinity")
        w = None
        if self.weights is not None:
            w = (np.ones(m) if weights is None
                 else np.broadcast_to(
                     np.asarray(weights, dtype=np.float64), (m,)).copy())
            if not np.all(np.isfinite(w)):
                raise StorageError("insert_batch weights must be finite")
        elif weights is not None:
            raise StorageError("Storage carries no weights; cannot insert them")
        lab = None
        if self.labels is not None:
            if labels is None:
                raise StorageError("Storage carries labels; provide them")
            lab = np.broadcast_to(
                np.asarray(labels, dtype=np.int64), (m,)).copy()
        elif labels is not None:
            raise StorageError("Storage carries no labels; cannot insert them")
        ids = np.arange(self.n, self.n + m, dtype=np.int64)
        self._record(
            StorageDelta(self._version + 1, "insert", ids.copy(), pts.copy(),
                         w),
            data=np.ascontiguousarray(np.concatenate([self._data, pts])),
            weights=None if w is None else np.concatenate([self.weights, w]),
            labels=None if lab is None else np.concatenate([self.labels, lab]))
        return ids

    def delete_batch(self, idx) -> None:
        """Delete rows by index; surviving rows compact downwards (the
        semantics of ``np.delete``).  Copy-on-write and logged."""
        self._check_alive()
        idx = np.unique(np.atleast_1d(np.asarray(idx, dtype=np.int64)))
        if idx.size == 0:
            return
        if idx.size and (idx[0] < 0 or idx[-1] >= self.n):
            raise StorageError(f"delete_batch index out of range 0..{self.n - 1}")
        if idx.size >= self.n:
            raise StorageError("cannot delete every row of a Storage")
        self._record(
            StorageDelta(self._version + 1, "delete", idx, None, None),
            data=np.ascontiguousarray(np.delete(self._data, idx, axis=0)),
            weights=(None if self.weights is None
                     else np.delete(self.weights, idx)),
            labels=None if self.labels is None else np.delete(self.labels, idx))

    def update_batch(self, idx, points=None, weights=None) -> None:
        """Overwrite coordinates and/or weights of existing rows.
        Copy-on-write and logged."""
        self._check_alive()
        idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        if idx.size == 0:
            return
        if points is None and weights is None:
            raise StorageError("update_batch needs points and/or weights")
        if idx.min() < 0 or idx.max() >= self.n:
            raise StorageError(f"update_batch index out of range 0..{self.n - 1}")
        pts = data = None
        if points is not None:
            pts = np.asarray(points, dtype=np.float64).reshape(
                idx.size, self.dim)
            if not np.all(np.isfinite(pts)):
                raise StorageError("update_batch points contain NaN or infinity")
            data = self._data.copy()
            data[idx] = pts
        w = neww = None
        if weights is not None:
            if self.weights is None:
                raise StorageError(
                    "Storage carries no weights; cannot update them")
            w = np.broadcast_to(
                np.asarray(weights, dtype=np.float64), (idx.size,)).copy()
            if not np.all(np.isfinite(w)):
                raise StorageError("update_batch weights must be finite")
            neww = self.weights.copy()
            neww[idx] = w
        self._record(StorageDelta(self._version + 1, "update", idx.copy(),
                                  None if pts is None else pts.copy(), w),
                     data=data, weights=neww)

    def _record(self, delta: StorageDelta, data=None, weights=None,
                labels=None) -> None:
        """Install a logged mutation's new arrays (``None``: unchanged),
        bump the version and append ``delta`` to the log.

        Content identity is carried forward, not re-derived: a
        fingerprint memo that was valid before the mutation becomes the
        memo of the new version — extended by this edit
        (:func:`~repro.backend.cache.chained_fingerprint`, O(changed))
        when its array changed, kept as it is when it did not.  Without
        a valid memo the next :meth:`fingerprint` hashes in full.  The
        memos the edit replaced name dead content: the tree-cache entries
        keyed by them are retired."""
        from ..backend.cache import chained_fingerprint, retire_superseded

        carried, stale = {}, []
        for which, new, rows in (("data", data, delta.points),
                                 ("weights", weights, delta.weights)):
            fp = self._memo(which)
            if fp is not None:
                carried[which] = fp if new is None else chained_fingerprint(
                    fp, delta.kind, delta.idx, rows, new.shape)
                if new is not None:
                    stale.append(fp)
        if data is not None:
            self._data = data
        if weights is not None:
            self.weights = weights
        if labels is not None:
            self.labels = labels
        self._bump_version()
        assert delta.version == self._version
        for which, fp in carried.items():
            self._fp_cache[which] = (self._memo_key(which), fp)
        self._mutation_log.append(delta)
        del self._mutation_log[:-MUTATION_LOG_MAX]
        retire_superseded(stale)

    def deltas_since(self, version: int) -> list[StorageDelta] | None:
        """The consecutive mutation chain from ``version`` to the current
        head, oldest first — or ``None`` when the chain is broken (log
        overflow, or an unreplayable :meth:`mark_mutated`)."""
        if version == self._version:
            return []
        chain = [d for d in self._mutation_log if d.version > version]
        expected = list(range(version + 1, self._version + 1))
        if [d.version for d in chain] != expected:
            return None
        return chain

    def fingerprint(self, which: str = "data") -> tuple | None:
        """Memoized content fingerprint of ``data`` or ``weights``.

        Hashed on first call, extended per logged edit: the first call
        hashes the array in full (:func:`repro.backend.cache.array_fingerprint`,
        O(n), paid once per Storage, not per cache key), and each later
        ``insert_batch`` / ``delete_batch`` / ``update_batch`` chains its
        edit onto the memo in O(changed) and retires the tree-cache
        entries keyed by the one it replaced.  A Storage mutated before
        its first call has nothing cached to retire.  So the value equals
        ``array_fingerprint`` of the raw array after a full hash (the
        first, or the next after :meth:`mark_mutated`); a mutated
        Storage carries (fingerprint at its last full hash, the edits
        since).  Same base plus same edits gives the same key; another
        route to the same content is a cache miss, never a false hit.
        """
        self._check_alive()
        arr = self._array(which)
        if arr is None:
            return None
        fp = self._memo(which)
        if fp is None:
            from ..backend.cache import array_fingerprint

            fp = array_fingerprint(arr)
            self._fp_cache[which] = (self._memo_key(which), fp)
        return fp

    def _array(self, which: str) -> np.ndarray | None:
        return self._data if which == "data" else getattr(self, which, None)

    def _memo_key(self, which: str) -> tuple:
        # The buffer address + shape guard catches attribute rebinds
        # (e.g. replacing .weights); in-place writes must go through
        # mark_mutated(), which bumps the version.
        arr = self._array(which)
        return (self._version, arr.__array_interface__["data"][0], arr.shape)

    def _memo(self, which: str) -> tuple | None:
        """The memoized fingerprint of ``which`` if it is still valid."""
        cached = self._fp_cache.get(which)
        if cached is None or self._array(which) is None:
            return None
        return cached[1] if cached[0] == self._memo_key(which) else None

    # -- lifecycle --------------------------------------------------------------
    def clear(self) -> None:
        """Release the underlying arrays (paper section III-B).

        Any later access raises :class:`StorageError`.  The tree-cache
        entries keyed by its memoized fingerprints go with it.
        """
        from ..backend.cache import retire_superseded

        retire_superseded(filter(None, map(self._memo, ("data", "weights"))))
        self._data = None  # type: ignore[assignment]
        self.weights = None
        self.labels = None
        self._mutation_log.clear()
        self._live_trees.clear()
        self._evict_stale_shm()
        self._cleared = True

    def _check_alive(self) -> None:
        if self._cleared:
            raise StorageError(f"Storage {self.name!r} used after clear()")

    # -- conveniences ------------------------------------------------------------
    def subset(self, idx) -> "Storage":
        """A new Storage over a subset of points (copies)."""
        self._check_alive()
        return Storage(
            self._data[idx],
            weights=None if self.weights is None else self.weights[idx],
            labels=None if self.labels is None else self.labels[idx],
            name=f"{self.name}[subset]",
        )

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        if self._cleared:
            return f"Storage({self.name!r}, cleared)"
        return f"Storage({self.name!r}, n={self.n}, d={self.dim})"


def _check_vec(v, n: int, what: str, kind) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64 if kind is float else np.int64)
    if arr.shape != (n,):
        raise StorageError(f"{what} must have shape ({n},), got {arr.shape}")
    if kind is float and not np.all(np.isfinite(arr)):
        raise StorageError(f"{what} contains NaN or infinite values")
    return arr


def _read_csv(path: str) -> np.ndarray:
    """Read a numeric CSV (optional non-numeric header row is skipped)."""
    if not os.path.exists(path):
        raise StorageError(f"CSV file not found: {path}")
    rows: list[Sequence[float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        for i, row in enumerate(reader):
            if not row:
                continue
            try:
                rows.append([float(x) for x in row])
            except ValueError:
                if i == 0:
                    continue  # header
                raise StorageError(f"non-numeric value in {path} line {i + 1}")
    if not rows:
        raise StorageError(f"CSV file {path} contains no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise StorageError(f"CSV file {path} has ragged rows")
    return np.asarray(rows, dtype=np.float64)
