"""Table IV — Portal-generated code vs hand-optimised expert (PASCAL) code
on 6 problems × 5 datasets: runtime, % difference, and lines of code.

Reproduction target (paper section V-B): the compiler-generated
implementations run within a few percent of the hand-optimised ones —
both sides share the same kd-tree and traversal template, so the deltas
isolate code quality.  EM shows the largest gap (paper: 8–9 %) because
its component kernel is an external function call.

LOC columns compare the Portal *specification* against the expert
implementation, reproducing the productivity claim (k-NN in ≤13 lines).
"""

import numpy as np
import pytest

from harness import (
    BENCH_SIZES, STATS_HEADERS, dataset, emit, format_table, observed_wall,
    paper_scale_note, split_qr, stats_columns, wall,
)
from repro.baselines.expert import (
    expert_em, expert_emst, expert_hausdorff, expert_kde, expert_knn,
    expert_range_count,
)
from repro.problems import (
    directed_hausdorff, em_fit, emst, kde, knn, range_count,
)
from repro.util import count_loc, count_object_loc

DATASET_NAMES = ["Census", "Yahoo!", "IHEPC", "HIGGS", "KDD"]

#: Portal textual specifications, for the LOC columns.
PORTAL_SPECS = {
    "k-NN": """
        Storage query("query.csv");
        Storage reference("reference.csv");
        Var q;
        Var r;
        Expr EuclidDist = sqrt(pow((q - r), 2));
        PortalExpr expr;
        expr.addLayer(FORALL, q, query);
        expr.addLayer((KARGMIN, 5), r, reference, EuclidDist);
        expr.execute();
        Storage output = expr.getOutput();
    """,
    "KDE": """
        Storage query("query.csv");
        Storage reference("reference.csv");
        PortalExpr expr;
        expr.addLayer(FORALL, query);
        expr.addLayer(SUM, reference, GAUSSIAN);
        expr.execute();
        Storage output = expr.getOutput();
    """,
    "RS": """
        Storage query("query.csv");
        Storage reference("reference.csv");
        Var q;
        Var r;
        PortalExpr expr;
        expr.addLayer(FORALL, q, query);
        expr.addLayer(SUM, r, reference, sqrt(pow((q - r), 2)) < 1.0);
        expr.execute();
        Storage output = expr.getOutput();
    """,
    "MST": 12,    # Portal spec lines per the paper; iteration logic native
    "EM": 30,     # Portal spec lines per the paper (2 sub-problems)
    "HD": """
        Storage setA("a.csv");
        Storage setB("b.csv");
        PortalExpr expr;
        expr.addLayer(MAX, setA);
        expr.addLayer(MIN, setB, EUCLIDEAN);
        expr.execute();
    """,
}

_ROWS: dict[str, list] = {}


def _record(problem, name, t_portal, t_expert, counters=None):
    diff = 100.0 * (t_portal - t_expert) / t_expert
    obs = (stats_columns(counters) if counters is not None
           else ["-"] * len(STATS_HEADERS))
    _ROWS.setdefault(problem, []).append(
        [name, round(t_portal, 4), round(t_expert, 4), round(diff, 1), *obs]
    )


def _params(name):
    X = dataset(name)
    scale = float(np.median(X.std(axis=0))) + 1e-9
    return X, scale


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_knn(benchmark, name):
    X, _ = _params(name)
    Q, R = split_qr(X)
    if name == DATASET_NAMES[0]:
        benchmark.pedantic(lambda: knn(Q, R, k=5), rounds=2, iterations=1)
    t_p, c = observed_wall(lambda: knn(Q, R, k=5), 2)
    t_e = wall(lambda: expert_knn(Q, R, k=5), 2)
    _record("k-NN", name, t_p, t_e, c)


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_kde(benchmark, name):
    X, scale = _params(name)
    Q, R = split_qr(X)
    bw = scale
    if name == DATASET_NAMES[0]:
        benchmark.pedantic(lambda: kde(Q, R, bandwidth=bw, tau=1e-3),
                           rounds=2, iterations=1)
    t_p, c = observed_wall(lambda: kde(Q, R, bandwidth=bw, tau=1e-3), 2)
    t_e = wall(lambda: expert_kde(Q, R, bandwidth=bw, tau=1e-3), 2)
    _record("KDE", name, t_p, t_e, c)


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_range_count(benchmark, name):
    X, scale = _params(name)
    Q, R = split_qr(X)
    h = 1.5 * scale
    if name == DATASET_NAMES[0]:
        benchmark.pedantic(lambda: range_count(Q, R, h=h),
                           rounds=2, iterations=1)
    t_p, c = observed_wall(lambda: range_count(Q, R, h=h), 2)
    t_e = wall(lambda: expert_range_count(Q, R, h=h), 2)
    _record("RS", name, t_p, t_e, c)


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_mst(benchmark, name):
    X, _ = _params(name)
    X = np.ascontiguousarray(X[:1200])
    if name == DATASET_NAMES[0]:
        benchmark.pedantic(lambda: emst(X), rounds=1, iterations=1)
    t_p, c = observed_wall(lambda: emst(X))
    t_e = wall(lambda: expert_emst(X))
    _record("MST", name, t_p, t_e, c)


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_em(benchmark, name):
    X, _ = _params(name)
    X = np.ascontiguousarray(X[:3000])
    if name == DATASET_NAMES[0]:
        benchmark.pedantic(lambda: em_fit(X, 5, max_iter=4),
                           rounds=1, iterations=1)
    t_p, c = observed_wall(lambda: em_fit(X, 5, max_iter=4), 2)
    t_e = wall(lambda: expert_em(X, 5, max_iter=4), 2)
    _record("EM", name, t_p, t_e, c)


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_hausdorff(benchmark, name):
    X, _ = _params(name)
    A, B = split_qr(X)
    if name == DATASET_NAMES[0]:
        benchmark.pedantic(lambda: directed_hausdorff(A, B),
                           rounds=2, iterations=1)
    t_p, c = observed_wall(lambda: directed_hausdorff(A, B), 2)
    t_e = wall(lambda: expert_hausdorff(A, B), 2)
    _record("HD", name, t_p, t_e, c)


def _loc_rows():
    expert_loc = {
        "k-NN": count_object_loc(expert_knn),
        "KDE": count_object_loc(expert_kde),
        "RS": count_object_loc(expert_range_count),
        "MST": count_object_loc(expert_emst),
        "EM": count_object_loc(expert_em),
        "HD": count_object_loc(expert_hausdorff),
    }
    rows = []
    for prob, spec in PORTAL_SPECS.items():
        portal = spec if isinstance(spec, int) else count_loc(spec)
        exp = expert_loc[prob]
        rows.append([prob, portal, exp, round(exp / portal, 1)])
    return rows


def test_table4_emit(benchmark):
    benchmark(lambda: _loc_rows())
    lines = [paper_scale_note(DATASET_NAMES), ""]
    for prob in ("k-NN", "KDE", "RS", "MST", "EM", "HD"):
        rows = _ROWS.get(prob, [])
        if not rows:
            continue
        lines.append(format_table(
            f"Table IV ({prob}) — Portal vs expert",
            ["Dataset", "Portal (s)", "Expert (s)", "% diff",
             *STATS_HEADERS],
            rows,
        ))
        lines.append("")
        diffs = [abs(r[3]) for r in rows]
        lines.append(f"  mean |%diff| for {prob}: {np.mean(diffs):.1f}%")
        lines.append("")
    lines.append(format_table(
        "Table IV (LOC) — productivity",
        ["Problem", "Portal LOC", "Expert LOC", "x shorter"],
        _loc_rows(),
    ))
    emit("table4", "\n".join(lines))

    # The paper's productivity claim: k-NN expressible in <= 13 lines.
    loc = {r[0]: r[1] for r in _loc_rows()}
    assert loc["k-NN"] <= 13
