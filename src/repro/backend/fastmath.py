"""Fast approximate math primitives (paper section IV-E), kept on their own.

The paper's strength-reduction pass rewrites ``sqrt(x)`` to
``1 / fast_inverse_sqrt(x)``: the bit-twiddling *fast inverse square
root* with Newton–Raphson refinement, the same technique LLVM's intrinsic
uses, with a relative error well under the paper's quoted 0.17 %.  Both
float32 (the classic Quake III constant) and float64 variants are
provided, vectorised over NumPy arrays.

The compiler does not emit them.  Under NumPy the primitive is a handful
of Python-level array operations set against one ``np.sqrt`` ufunc — slower
and less accurate — so the rewrite is not carried over (DESIGN.md,
substitution S7).  The module remains so that the primitive itself can be
tested and measured (``benchmarks/bench_ablation_compiler.py``).

The paper's observation about computing √x is preserved:

* ``x * finvsqrt(x)`` is faster but returns NaN at x = 0;
* ``1 / finvsqrt(x)`` returns 0 at x = 0 as desired — the paper's Portal
  emits this form (:func:`fast_sqrt`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "fast_inverse_sqrt", "fast_inverse_sqrt32", "fast_sqrt",
    "FINVSQRT_MAGIC64", "FINVSQRT_MAGIC32",
]

FINVSQRT_MAGIC64 = np.uint64(0x5FE6EB50C7B537A9)
FINVSQRT_MAGIC32 = np.uint32(0x5F3759DF)


def fast_inverse_sqrt(x) -> np.ndarray:
    """Approximate ``1/sqrt(x)`` for float64 input (two Newton steps).

    Relative error is below 5e-6; non-positive inputs return ``inf`` (so
    that ``1/finvsqrt(0) == 0``, matching the exact ``sqrt`` at zero).
    """
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x > 0
    xv = x[pos] if x.ndim else (x if bool(pos) else None)
    if x.ndim == 0:
        if not bool(pos):
            return np.float64(np.inf)
        i = np.uint64(np.float64(x).view(np.uint64))
        i = FINVSQRT_MAGIC64 - (i >> np.uint64(1))
        y = i.view(np.float64)
        xh = 0.5 * float(x)
        y = y * (1.5 - xh * y * y)
        y = y * (1.5 - xh * y * y)
        return np.float64(y)
    i = xv.view(np.uint64)
    i = FINVSQRT_MAGIC64 - (i >> np.uint64(1))
    y = i.view(np.float64)
    xh = 0.5 * xv
    y = y * (1.5 - xh * y * y)
    y = y * (1.5 - xh * y * y)
    out[pos] = y
    out[~pos] = np.inf
    return out


def fast_inverse_sqrt32(x) -> np.ndarray:
    """Approximate ``1/sqrt(x)`` for float32 input (one Newton step) —
    the classic Quake III routine, ~0.17 % maximum relative error."""
    x = np.asarray(x, dtype=np.float32)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    pos = x > 0
    xv = x[pos]
    i = xv.view(np.uint32)
    i = FINVSQRT_MAGIC32 - (i >> np.uint32(1))
    y = i.view(np.float32)
    y = y * (np.float32(1.5) - np.float32(0.5) * xv * y * y)
    out[pos] = y
    out[~pos] = np.inf
    return out[0] if scalar else out


def fast_sqrt(x) -> np.ndarray:
    """``sqrt(x)`` as ``1 / fast_inverse_sqrt(x)`` (0 at x = 0, no NaN)."""
    y = fast_inverse_sqrt(x)
    with np.errstate(divide="ignore"):
        return 1.0 / y
