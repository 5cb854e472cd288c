"""Ablations over the algorithmic choices: leaf size (the paper tunes it
per problem/dataset), tree vs brute crossover, and the accuracy/time
trade-offs of the approximation knobs (τ for KDE, θ for Barnes-Hut).
The Barnes-Hut θ and expansion-order sections time the hand-written
dual-tree force code (``baselines.expert.expert_barnes_hut``), not
Portal."""

import numpy as np
import pytest

from harness import dataset, emit, format_table, split_qr, wall
from repro.baselines import brute
from repro.baselines.expert import expert_barnes_hut
from repro.problems import kde, knn

_SECTIONS: list[str] = []


def test_ablation_leaf_size(benchmark):
    X = np.ascontiguousarray(dataset("Yahoo!"))
    Q, R = split_qr(X)
    benchmark.pedantic(lambda: knn(Q, R, k=5, leaf_size=64),
                       rounds=2, iterations=1)
    rows = []
    for leaf in (16, 32, 64, 128, 256):
        t = wall(lambda leaf=leaf: knn(Q, R, k=5, leaf_size=leaf), 2)
        rows.append([leaf, round(t, 4)])
    _SECTIONS.append(format_table(
        "Ablation — leaf size (k-NN, Yahoo!)",
        ["leaf size", "time (s)"], rows,
    ))


def test_ablation_tree_vs_brute(benchmark):
    """The asymptotic claim: tree-based k-NN scales better than brute
    force on low-dimensional data."""
    rows = []
    for n in (1000, 2000, 4000, 8000):
        X = np.ascontiguousarray(dataset("Elliptical", n))
        Q, R = split_qr(X)
        t_tree = wall(lambda: knn(Q, R, k=1))
        t_brute = wall(lambda: knn(Q, R, k=1, backend="brute"))
        rows.append([n, round(t_tree, 4), round(t_brute, 4),
                     round(t_brute / t_tree, 2)])
    benchmark(lambda: None)
    _SECTIONS.append(format_table(
        "Ablation — tree vs brute scaling (k-NN, Elliptical d=3)",
        ["N", "tree (s)", "brute (s)", "brute/tree"], rows,
    ))
    # The tree advantage must grow with N.
    assert rows[-1][3] > rows[0][3]


def test_ablation_kde_tau(benchmark):
    X = np.ascontiguousarray(dataset("Elliptical")[:4000])
    Q, R = split_qr(X)
    bw = 0.5
    exact = brute.brute_kde(Q, R, bw)
    benchmark.pedantic(lambda: kde(Q, R, bandwidth=bw, tau=1e-3),
                       rounds=2, iterations=1)
    rows = []
    for tau in (0.0, 1e-6, 1e-4, 1e-2):
        t = wall(lambda tau=tau: kde(Q, R, bandwidth=bw, tau=tau), 2)
        got = kde(Q, R, bandwidth=bw, tau=tau)
        err = float(np.abs(got - exact).max())
        rows.append([f"{tau:g}", round(t, 4), f"{err:.2e}",
                     f"{tau * len(R):.2e}"])
    _SECTIONS.append(format_table(
        "Ablation — KDE τ knob (Elliptical): time/accuracy trade-off",
        ["τ", "time (s)", "max abs err", "bound τ·N"], rows,
    ))
    # Guarantee: error stays under the analytic bound.
    for row in rows:
        assert float(row[2]) <= float(row[3]) + 1e-9


def test_ablation_bh_theta(benchmark):
    X = np.ascontiguousarray(dataset("Elliptical")[:4000])
    mass = np.ones(len(X))
    exact = brute.brute_forces(X, mass)
    benchmark.pedantic(
        lambda: expert_barnes_hut(X, mass, theta=0.5),
        rounds=2, iterations=1,
    )
    rows = []
    for theta in (0.2, 0.5, 0.8, 1.2):
        t = wall(lambda th=theta: expert_barnes_hut(X, mass, theta=th), 2)
        a = expert_barnes_hut(X, mass, theta=theta)
        err = float(np.linalg.norm(a - exact) / np.linalg.norm(exact))
        rows.append([theta, round(t, 4), f"{err:.2e}"])
    _SECTIONS.append(format_table(
        "Ablation — Barnes-Hut θ knob (Elliptical, hand-written dual-tree "
        "forces): time/accuracy",
        ["θ", "time (s)", "rel force err"], rows,
    ))
    errs = [float(r[2]) for r in rows]
    assert errs == sorted(errs)  # error grows with θ


def test_ablation_bh_multipole_order(benchmark):
    """Extension: monopole vs monopole+quadrupole expansion — higher
    expansion order buys accuracy at the same θ (the FMM direction of the
    paper's background)."""
    X = np.ascontiguousarray(dataset("Elliptical")[:4000])
    mass = np.ones(len(X))
    exact = brute.brute_forces(X, mass)
    benchmark.pedantic(
        lambda: expert_barnes_hut(X, mass, theta=0.7, order=2),
        rounds=2, iterations=1,
    )
    rows = []
    for order in (1, 2):
        t = wall(lambda o=order: expert_barnes_hut(X, mass, theta=0.7,
                                                   order=o), 2)
        a = expert_barnes_hut(X, mass, theta=0.7, order=order)
        err = float(np.linalg.norm(a - exact) / np.linalg.norm(exact))
        label = "monopole (paper)" if order == 1 else "+ quadrupole"
        rows.append([label, round(t, 4), f"{err:.2e}"])
    _SECTIONS.append(format_table(
        "Ablation — Barnes-Hut multipole order (θ=0.7, Elliptical, "
        "hand-written dual-tree forces)",
        ["Expansion", "time (s)", "rel force err"], rows,
    ))
    assert float(rows[1][2]) < float(rows[0][2])


def test_ablation_parallel(benchmark):
    """Task→data parallel scheduler overhead/scaling.  On a single-core
    host the speedup is ~1×; the table documents the overhead honestly."""
    from repro.parallel import default_workers

    X = np.ascontiguousarray(dataset("Yahoo!"))
    Q, R = split_qr(X)
    benchmark.pedantic(lambda: knn(Q, R, k=5), rounds=2, iterations=1)
    rows = [["serial", round(wall(lambda: knn(Q, R, k=5), 2), 4)]]
    for w in (2, 4):
        t = wall(lambda w=w: knn(Q, R, k=5, parallel=True, workers=w), 2)
        rows.append([f"{w} workers", round(t, 4)])
    # default_workers() respects CPU affinity (cgroup/taskset limits),
    # unlike os.cpu_count() — report what the scheduler actually uses.
    rows.append([f"(host cores: {default_workers()})", ""])
    _SECTIONS.append(format_table(
        "Ablation — parallel traversal (k-NN, Yahoo!)",
        ["Mode", "time (s)"], rows,
    ))


def test_ablation_emit(benchmark):
    benchmark(lambda: None)
    emit("ablation_algorithm", "\n\n".join(_SECTIONS))
