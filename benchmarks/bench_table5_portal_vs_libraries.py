"""Table V — Portal vs library-style baselines.

Paper comparison points (section V-C):

* 2-point correlation vs scikit-learn:    66–165× (Portal wins)
* naive Bayes classifier vs MLPACK:        15–47× (Portal wins)
* Barnes-Hut vs FDPS:                      ~1.7×  (Portal wins)

The Barnes-Hut row's first column is not Portal here: it times the
hand-written dual-tree force code (``baselines.expert.expert_barnes_hut``),
since vector forces are outside the scalar DSL.  The library baselines
reproduce each comparator's *algorithmic shape* (per-point single-tree
walks / per-point dense evaluation — DESIGN.md substitution S6), so the
reproduction target is the direction and rough magnitude of each factor,
not its exact value.
"""

import numpy as np
import pytest

from harness import (
    STATS_HEADERS, dataset, emit, format_table, observed_wall,
    stats_columns, wall,
)
from repro.baselines import (
    MlpackLikeNBC, fdps_like_forces, sklearn_like_two_point,
)
from repro.baselines.expert import expert_barnes_hut
from repro.problems import naive_bayes_fit, two_point_correlation

_ROWS: dict[str, list] = {"2-PC": [], "NBC": [], "BH": []}

TPC_DATASETS = ["Census", "Yahoo!", "IHEPC"]


@pytest.mark.parametrize("name", TPC_DATASETS)
def test_two_point_correlation(benchmark, name):
    X = np.ascontiguousarray(dataset(name)[:2000])
    h = float(np.median(X.std(axis=0)))
    if name == TPC_DATASETS[0]:
        benchmark.pedantic(lambda: two_point_correlation(X, h),
                           rounds=2, iterations=1)
    t_p, obs = observed_wall(lambda: two_point_correlation(X, h))
    c_p = two_point_correlation(X, h)
    t_l = wall(lambda: sklearn_like_two_point(X, h))
    c_l = sklearn_like_two_point(X, h)
    assert c_p == c_l
    _ROWS["2-PC"].append([name, round(t_p, 4), round(t_l, 4),
                          round(t_l / t_p, 1), *stats_columns(obs)])


NBC_DATASETS = ["Yahoo!", "HIGGS", "KDD"]


@pytest.mark.parametrize("name", NBC_DATASETS)
def test_naive_bayes(benchmark, name):
    X = dataset(name)
    # Two synthetic classes: split by the first coordinate's median.
    y = (X[:, 0] > np.median(X[:, 0])).astype(int)
    X = X + 0.0  # writable copy
    clf_p = naive_bayes_fit(X, y)
    clf_l = MlpackLikeNBC().fit(X, y)
    if name == NBC_DATASETS[0]:
        benchmark.pedantic(lambda: clf_p.predict(X), rounds=2, iterations=1)
    t_p, obs = observed_wall(lambda: clf_p.predict(X))
    t_l = wall(lambda: clf_l.predict(X))
    agree = float(np.mean(clf_p.predict(X) == clf_l.predict(X)))
    assert agree > 0.99
    _ROWS["NBC"].append([name, round(t_p, 4), round(t_l, 4),
                         round(t_l / t_p, 1), *stats_columns(obs)])


def test_barnes_hut(benchmark):
    X = np.ascontiguousarray(dataset("Elliptical"))
    mass = np.ones(len(X))
    benchmark.pedantic(
        lambda: expert_barnes_hut(X, mass, theta=0.5),
        rounds=2, iterations=1,
    )
    t_p, obs = observed_wall(lambda: expert_barnes_hut(X, mass, theta=0.5))
    t_l = wall(lambda: fdps_like_forces(X, mass, theta=0.5))
    _ROWS["BH"].append(["Elliptical", round(t_p, 4), round(t_l, 4),
                        round(t_l / t_p, 1), *stats_columns(obs)])


def test_table5_emit(benchmark):
    benchmark(lambda: format_table("x", ["a"], [["b"]]))
    lines = []
    specs = [
        ("2-PC", "Portal", "scikit-learn-like", "paper: 66–165×"),
        ("NBC", "Portal", "MLPACK-like", "paper: 15–47×"),
        ("BH", "hand-written dual tree", "FDPS-like", "paper: ~1.7×"),
    ]
    for prob, ours, lib, note in specs:
        rows = _ROWS.get(prob, [])
        if not rows:
            continue
        lines.append(format_table(
            f"Table V ({prob}) — {ours} vs {lib}  ({note})",
            ["Dataset", f"{ours} (s)", f"{lib} (s)", "speedup ×",
             *STATS_HEADERS],
            rows,
        ))
        lines.append("")
    emit("table5", "\n".join(lines))

    # Shape assertions: Portal must win every comparison.
    for rows in _ROWS.values():
        for row in rows:
            assert row[3] > 1.0, f"Portal lost: {row}"
