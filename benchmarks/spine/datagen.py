"""Seeded input generators for the benchmark spine (NumPy/SciPy only).

The two recipes are *copies* of the repo's own (``repro.data.synthetic.ihepc``
and the eight-cluster d = 3 generator the legacy benchmarks use), vendored so
that an edit under ``src/`` cannot change a workload.  Every array a workload
or its oracle needs comes from :func:`inputs`; the program under test only
ever sees the arrays.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammaincinv

#: frozen problem sizes (see README.md for why each was chosen)
KNN_N = 10_000          # knn_prune / serve_fanin reference and query rows
KDE_N = 5_000           # kde_approx rows per side
SUITE_NQ, SUITE_NR = 256, 1_024
SERVE_POOL = 4_096      # distinct query rows the serve clients draw from
SERVE_CLIENTS = 32
MUTATE_N = 200_000
MUTATE_FRACTION = 0.01
MUTATE_DRIFT = 0.05     # in units of the cluster sigma (= 1)
K = 5
#: approximation threshold of every approximated sum (an execute() option)
TAU = 1e-3
#: the compile_suite programs that take it
SUITE_TAU = {"kde": TAU, "naive_bayes": TAU, "barnes_hut": TAU}


def _rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *tag])


def ihepc(n: int, rng: np.random.Generator) -> np.ndarray:
    """IHEPC-like d = 9: correlated daily-cycle channels near a
    low-dimensional manifold, plus noise.

    The repo's recipe with one change: the two latent variables (phase
    ``t`` uniform, ``load`` gamma(2)) are drawn *stratified* — one value in
    each of ``n`` equal-probability strata, then paired at random — not
    independently.  Same distribution, fresh points for every seed, but
    the amount of work a tree algorithm finds in 10 000 of them varies by
    2.6 % (cv) between seeds where independent draws gave 6.9 %.
    """
    strata = np.arange(n)
    t = 2.0 * np.pi * (strata + rng.random(n)) / n
    load = gammaincinv(2.0, (strata + rng.random(n)) / n)
    load = load[rng.permutation(n), None]
    base = np.stack(
        [np.sin(t), np.cos(t), np.sin(2 * t), np.cos(2 * t),
         np.sin(3 * t) * 0.5], axis=1)
    points = np.concatenate(
        [base * load, load, rng.normal(scale=0.2, size=(n, 3))], axis=1)
    return np.ascontiguousarray(points[rng.permutation(n)])


#: The eight cluster centres are the same for every seed: how much the
#: clusters overlap decides how much a tree can prune, and drawing them per
#: seed made the same workload 14 % cheaper or dearer from seed to seed.
CENTERS = np.random.default_rng(2019).uniform(-10.0, 10.0, size=(8, 3))


#: mutate_query's 32 query rows, inside the first cluster — constants too:
#: where so few rows fall decides how much of the tree they visit.
MUTATE_QUERY = np.ascontiguousarray(
    CENTERS[0] + 0.5 * np.random.default_rng(2020).standard_normal((32, 3)))


def clustered(n: int, rng: np.random.Generator) -> np.ndarray:
    """Eight unit-sigma Gaussian clusters in d = 3 around :data:`CENTERS`,
    laid out contiguously."""
    counts = np.full(8, n // 8)
    counts[: n % 8] += 1
    return np.ascontiguousarray(np.concatenate(
        [c + rng.standard_normal((m, 3)) for c, m in zip(CENTERS, counts)]))


def inputs(workload: str, seed: int) -> dict:
    """Every input array of ``workload`` for ``seed`` (deterministic)."""
    if workload in ("knn_prune", "serve_fanin"):
        # serve_fanin serves knn_prune's reference set (same tag).
        data = {"reference": ihepc(KNN_N, _rng(seed, 1))}
        if workload == "knn_prune":
            data["query"] = ihepc(KNN_N, _rng(seed, 2))
        else:
            data["pool"] = ihepc(SERVE_POOL, _rng(seed, 3))
        return data
    if workload == "kde_approx":
        ref = ihepc(KDE_N, _rng(seed, 4))
        return {"reference": ref, "query": ihepc(KDE_N, _rng(seed, 5)),
                "bandwidth": float(np.median(ref.std(axis=0)))}
    if workload == "compile_suite":
        rng = _rng(seed, 6)
        ref = clustered(SUITE_NR, rng)
        query = (CENTERS[rng.integers(0, 8, size=SUITE_NQ)]
                 + rng.standard_normal((SUITE_NQ, 3)))
        return {"reference": ref, "query": np.ascontiguousarray(query)}
    if workload == "mutate_query":
        return {"reference": clustered(MUTATE_N, _rng(seed, 7)),
                "query": MUTATE_QUERY}
    raise KeyError(f"unknown workload {workload!r}")


def serve_rows(seed: int, client: int, count: int) -> np.ndarray:
    """The pool rows client ``client`` asks for, in order."""
    return _rng(seed, 8, client).integers(0, SERVE_POOL, size=count)


def mutation(seed: int, cycle: int):
    """Cycle ``cycle`` of ``mutate_query``: ``(idx, delta)``.

    After the cycle the reference set is the original with rows ``idx`` at
    ``original + delta`` and every other row at its original place: each op
    moves half of its 1 % out and the previous cycle's half back.  The set
    stays stationary — a run that completes more cycles does not measure a
    more degraded tree than one that completes fewer — yet never repeats,
    so the content-addressed caches never recognise a state.
    """
    rng = _rng(seed, 9, cycle)
    m = int(MUTATE_N * MUTATE_FRACTION) // 2
    idx = rng.choice(MUTATE_N, size=m, replace=False)
    return idx, MUTATE_DRIFT * rng.standard_normal((m, 3))
