"""Reference answers for every workload — plain NumPy/SciPy, nothing from
``repro``.  Checks run after timing, never inside it.

Each ``check_*`` returns ``True`` when an op's recorded output is right.
Nearest-neighbour answers are compared tie-aware: the reported distances
must equal the oracle's, and every reported id must really lie at its
reported distance.  Approximated sums are held to the contract the
language states — absolute error at most ``tau · N`` per query — on 512
evenly spaced rows.  :func:`self_test` plants an error in a right answer
for every kind of check and fails unless each one is caught.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.spatial import cKDTree

import datagen
from datagen import SUITE_TAU, TAU

RTOL, ATOL = 1e-6, 1e-7
SUM_ROWS = 512
#: kernel parameters of compile_suite; the .portal texts spell the same
RANGE_H = 0.3
SUITE_TWO_SIGMA2 = {"kde": 0.5, "naive_bayes": 2.42}
BH_SOFTENING2 = 0.25


def _close(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(
        np.allclose(a, b, rtol=RTOL, atol=ATOL))


def knn_ok(tree: cKDTree, query, dists, ids, k: int) -> bool:
    """``(dists, ids)`` are the ``k`` nearest rows of ``tree.data``."""
    dists = np.asarray(dists, dtype=np.float64).reshape(len(query), k)
    ids = np.asarray(ids).reshape(len(query), k)
    want, _ = tree.query(query, k=k)
    if not _close(dists, np.reshape(want, (len(query), k))):
        return False
    if ids.min() < 0 or ids.max() >= tree.n:
        return False
    if k > 1 and (np.sort(ids, axis=1)[:, 1:]
                  == np.sort(ids, axis=1)[:, :-1]).any():
        return False
    at_ids = np.linalg.norm(tree.data[ids] - query[:, None, :], axis=2)
    return _close(dists, at_ids)


def _sample_rows(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, min(n, SUM_ROWS)).astype(int))


def sum_ok(query, reference, values, kernel, tau: float) -> bool:
    """``values[i] ≈ Σ_r kernel(|q_i − r|²)`` within ``tau · N``."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(query),) or not np.isfinite(values).all():
        return False
    rows = _sample_rows(len(query))
    bound = tau * len(reference) + ATOL
    for chunk in np.array_split(rows, max(1, len(rows) // 64)):
        diff = query[chunk, None, :] - reference[None, :, :]
        exact = kernel(np.einsum("qrd,qrd->qr", diff, diff)).sum(axis=1)
        slack = bound + RTOL * np.abs(exact)
        if (np.abs(values[chunk] - exact) > slack).any():
            return False
    return True


def gaussian(two_sigma2: float):
    return lambda d2: np.exp(-d2 / two_sigma2)


def _sq_dists(query, reference) -> np.ndarray:
    diff = query[:, None, :] - reference[None, :, :]
    return np.einsum("qrd,qrd->qr", diff, diff)


def suite_ok(name: str, query, reference, out: dict) -> bool:
    """One compile_suite program's output against its definition."""
    if name == "knn":
        return knn_ok(cKDTree(reference), query, out["values"],
                      out["indices"], datagen.K)
    if name == "nearest":
        want, _ = cKDTree(reference).query(query, k=1)
        return _close(out["values"], want)
    if name == "hausdorff":
        want, _ = cKDTree(reference).query(query, k=1)
        return _close(out["scalar"], want.max())
    if name == "mahalanobis_em":
        # min over r of the squared Mahalanobis distance under the
        # reference set's own covariance, via the Cholesky whitening.
        chol = cholesky(np.cov(reference.T), lower=True)
        white = lambda x: solve_triangular(chol, x.T, lower=True).T  # noqa: E731
        want, _ = cKDTree(white(reference)).query(white(query), k=1)
        return _close(out["values"], want ** 2)
    if name in SUITE_TWO_SIGMA2:
        return sum_ok(query, reference, out["values"],
                      gaussian(SUITE_TWO_SIGMA2[name]), SUITE_TAU[name])
    if name == "barnes_hut":
        return sum_ok(query, reference, out["values"],
                      lambda d2: (d2 + BH_SOFTENING2) ** -0.5,
                      SUITE_TAU[name])
    inside = _sq_dists(query, reference) < RANGE_H * RANGE_H
    if name == "range_count":
        return bool(np.array_equal(
            np.asarray(out["values"]), inside.sum(axis=1).astype(float)))
    if name == "range_search":
        offsets, flat = out["offsets"], out["flat"]
        if len(offsets) != len(query) + 1:
            return False
        return all(
            np.array_equal(np.sort(flat[offsets[i]:offsets[i + 1]]),
                           np.flatnonzero(inside[i]))
            for i in range(len(query)))
    raise KeyError(name)


class Checker:
    """Checks one workload's op records; built once per run from the seed
    so the expensive references (kd-trees) are shared by all ops."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.data = datagen.inputs(workload, seed)
        if workload not in ("compile_suite", "kde_approx"):
            self.tree = cKDTree(self.data["reference"])

    def ok(self, key: int, out: dict) -> bool:
        d = self.data
        if self.workload == "knn_prune":
            return knn_ok(self.tree, d["query"], out["values"],
                          out["indices"], datagen.K)
        if self.workload == "kde_approx":
            two_sigma2 = 2.0 * d["bandwidth"] ** 2
            return sum_ok(d["query"], d["reference"], out["values"],
                          gaussian(two_sigma2), TAU)
        if self.workload == "compile_suite":
            return all(
                suite_ok(name, d["query"], d["reference"], prog_out)
                for name, prog_out in out.items())
        if self.workload == "serve_fanin":
            # key = the pool row this request asked about
            return knn_ok(self.tree, d["pool"][key:key + 1], out["values"],
                          out["indices"], datagen.K)
        if self.workload == "mutate_query":
            return self._mutate_ok(key, out)
        raise KeyError(self.workload)

    def _mutate_ok(self, cycle: int, out: dict) -> bool:
        """key = cycle number: the set is the original with rows ``idx``
        moved by ``delta``, so the answer is the best ``k`` of (unmoved
        original rows) ∪ (moved rows)."""
        query, k = self.data["query"], datagen.K
        idx, delta = datagen.mutation(self.seed, cycle)
        moved = self.data["reference"][idx] + delta
        # k + 32 originals leave ≥ k unmoved unless > 32 of a row's
        # neighbours moved at once (0.5 % moved: cannot happen by chance)
        far = k + 32
        d_orig, i_orig = self.tree.query(query, k=far)
        d_orig = np.where(np.isin(i_orig, idx), np.inf, d_orig)
        if (np.isfinite(d_orig).sum(axis=1) < k).any():
            return False
        d_moved = np.linalg.norm(moved[None, :, :] - query[:, None, :],
                                 axis=2)
        want = np.sort(np.concatenate([d_orig, d_moved], axis=1),
                       axis=1)[:, :k]
        dists = np.asarray(out["values"], dtype=np.float64)
        ids = np.asarray(out["indices"])
        if not _close(dists, want):
            return False
        # every reported id lies at its reported distance in the mutated set
        current = self.data["reference"][ids]
        pos = {int(j): n for n, j in enumerate(idx)}
        for (r, c), j in np.ndenumerate(ids):
            if int(j) in pos:
                current[r, c] = moved[pos[int(j)]]
        return _close(dists, np.linalg.norm(
            current - query[:, None, :], axis=2))


def self_test() -> list[str]:
    """Plant one error per kind of check; return the names of the checks
    that did *not* catch theirs (empty = the oracle works)."""
    rng = np.random.default_rng(7)
    ref = datagen.clustered(600, rng)
    query = ref[:40] + 0.1 * rng.standard_normal((40, 3))
    tree = cKDTree(ref)
    missed = []

    def expect(name, right: bool, wrong: bool):
        if not right or wrong:
            missed.append(name)

    d, i = tree.query(query, k=3)
    bad_i = i.copy()
    bad_i[5, 1] = (bad_i[5, 1] + 1) % len(ref)
    bad_d = d.copy()
    bad_d[7, 2] *= 1.001
    expect("knn.id", knn_ok(tree, query, d, i, 3),
           knn_ok(tree, query, d, bad_i, 3))
    expect("knn.distance", True, knn_ok(tree, query, bad_d, i, 3))

    d2 = _sq_dists(query, ref)
    kde = gaussian(0.5)(d2).sum(axis=1)
    bad = kde.copy()
    bad[0] += 3 * TAU * len(ref)
    expect("sum", sum_ok(query, ref, kde, gaussian(0.5), TAU),
           sum_ok(query, ref, bad, gaussian(0.5), TAU))

    inside = d2 < RANGE_H * RANGE_H
    counts = inside.sum(axis=1).astype(float)
    bad = counts.copy()
    bad[3] += 1
    expect("range_count",
           suite_ok("range_count", query, ref, {"values": counts}),
           suite_ok("range_count", query, ref, {"values": bad}))
    lists = [np.flatnonzero(row) for row in inside]
    offsets = np.concatenate([[0], np.cumsum([len(x) for x in lists])])
    flat = np.concatenate(lists)
    bad = flat.copy()
    bad[0] = (bad[0] + 1) % len(ref)
    expect("range_search",
           suite_ok("range_search", query, ref,
                    {"offsets": offsets, "flat": flat}),
           suite_ok("range_search", query, ref,
                    {"offsets": offsets, "flat": bad}))

    checker = Checker("mutate_query", 0)
    idx, delta = datagen.mutation(0, 0)
    mutated = checker.data["reference"].copy()
    mutated[idx] += delta
    d, i = cKDTree(mutated).query(checker.data["query"], k=datagen.K)
    bad_i = i.copy()
    bad_i[2, 0] = idx[0] if i[2, 0] != idx[0] else idx[1]
    expect("mutate",
           checker.ok(0, {"values": d, "indices": i}),
           checker.ok(0, {"values": d, "indices": bad_i}))
    return missed
