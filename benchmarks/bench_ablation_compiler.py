"""Ablations over the compiler's design choices (DESIGN.md experiment
index): the paper's strength-reduced sqrt.  Each ablation flips one
choice and reports time and (where relevant) accuracy.  (The paper's
d ≤ 4 column-major layout lost to the row layout here and is gone:
DESIGN.md, S8.)
"""

import numpy as np
import pytest

from harness import dataset, emit, format_table, split_qr, wall
from repro.backend.fastmath import fast_inverse_sqrt

_SECTIONS: list[str] = []


def test_ablation_fastmath(benchmark):
    """The paper's strength-reduced sqrt (IV-E), measured on its own.

    Paper Portal emits ``sqrt(t)`` as ``1/fast_inverse_sqrt(t)`` because
    LLVM lowers that to a fast intrinsic.  Under NumPy the bit-twiddling
    form is several array passes set against one ``np.sqrt`` ufunc, so the
    compiler does not emit it (DESIGN.md S7); this row records why, on
    the base-distance array of the IHEPC sum-of-distances kernel."""
    X = np.ascontiguousarray(dataset("IHEPC")[:3000])
    Q, R = split_qr(X)
    t = ((Q[:, None, :] - R[None, :, :]) ** 2).sum(axis=-1)

    def paper_form():
        return 1.0 / fast_inverse_sqrt(t)

    benchmark.pedantic(paper_form, rounds=2, iterations=1)
    t_fast = wall(paper_form, 3)
    t_exact = wall(lambda: np.sqrt(t), 3)
    exact = np.sqrt(t)
    pos = exact > 0
    err = float(np.max(np.abs(paper_form()[pos] - exact[pos]) / exact[pos]))
    rows = [["1 / fast_inverse_sqrt(t) (paper)", round(t_fast, 4),
             f"{err:.2e}"],
            ["np.sqrt(t) (emitted)", round(t_exact, 4), "0"]]
    _SECTIONS.append(format_table(
        f"Ablation — strength-reduced sqrt ({t.shape[0]} x {t.shape[1]} "
        "base distances, IHEPC)",
        ["sqrt form", "time (s)", "max rel err"], rows,
    ))
    assert err < 1e-4  # well under the paper's 0.17 % bound


def test_ablation_finvsqrt_accuracy(benchmark):
    """Accuracy profile of the fast inverse sqrt itself."""
    rng = np.random.default_rng(0)
    x = rng.uniform(1e-6, 1e6, size=200_000)
    benchmark(lambda: fast_inverse_sqrt(x))
    exact = 1.0 / np.sqrt(x)
    err = np.abs(fast_inverse_sqrt(x) - exact) / exact
    _SECTIONS.append(format_table(
        "Ablation — fast inverse sqrt accuracy (float64, 2 Newton steps)",
        ["metric", "value"],
        [["max relative error", f"{err.max():.2e}"],
         ["mean relative error", f"{err.mean():.2e}"],
         ["paper bound (float32 variant)", "1.7e-3"]],
    ))
    assert err.max() < 5e-6


def test_ablation_emit(benchmark):
    benchmark(lambda: None)
    emit("ablation_compiler", "\n\n".join(_SECTIONS))
