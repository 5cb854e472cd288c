"""Pre-defined distance metrics and kernel normalisation.

Implements the ``PortalFunc`` metrics of paper section III-C (Code 2) and
the *kernel normaliser* that recognises distance forms inside user-written
symbolic kernels.  A normalised kernel is a :class:`MetricKernel`:

    ``K(x_q, x_r) = g(t)``  where  ``t = base_distance(x_q, x_r)``

with ``base`` one of the canonical distance forms (squared Euclidean,
Manhattan, Chebyshev) and ``g`` a scalar expression in the single distance
variable ``t``.  All downstream reasoning — pruning bounds, approximation
bounds, and vectorised code generation — works on this normal form, which
is why Portal restricts optimised kernels to functions that "decrease
monotonically with distance" or are comparative in distance
(section II-C).  Kernels that do not normalise are still accepted as
*external* kernels and executed by the brute-force backend, mirroring the
paper's treatment of external C++ functions.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import KernelError
from .expr import (
    BinOp, Call, Const, DimReduce, DistVar, Expr, Indicator, Neg, Var,
    absval, exp, sqrt,
)

__all__ = [
    "PortalFunc", "MetricKernel", "normalize_kernel", "resolve_func",
    "BASE_METRICS",
]

#: Canonical base distance forms recognised by the compiler.  ``sqeuclidean``
#: carries the Euclidean family (plain Euclidean is ``g = sqrt(t)``).
BASE_METRICS = ("sqeuclidean", "manhattan", "chebyshev")


class PortalFunc(enum.Enum):
    """Pre-defined distance metrics (paper Code 1 and Code 2)."""

    EUCLIDEAN = "EUCLIDEAN"
    SQREUCDIST = "SQREUCDIST"
    MANHATTAN = "MANHATTAN"
    CHEBYSHEV = "CHEBYSHEV"
    MAHALANOBIS = "MAHALANOBIS"
    GAUSSIAN = "GAUSSIAN"


_T = DistVar("t")


@functools.lru_cache(maxsize=256)
def _sampled_monotonicity(g: Expr) -> str | None:
    """Monotonicity of the scalar expression ``g(t)`` on t ≥ 0,
    determined by dense sampling — robust for the composed scalar
    functions the DSL admits.  Memoised on the (immutable, structurally
    hashed) expression: every ``validate()`` normalises a fresh kernel,
    and the execution plan asks on each ``execute()``."""
    t = np.concatenate([[0.0], np.logspace(-9, 9, 513)])
    with np.errstate(all="ignore"):
        v = np.asarray(g.evaluate({"t": t}), dtype=np.float64)
    v = v[np.isfinite(v)]
    if v.size < 2:
        return None
    d = np.diff(v)
    # Tolerance relative to the local magnitude, so a genuine dip is not
    # masked by huge values elsewhere on the grid.
    tol = 1e-12 * (np.abs(v[:-1]) + np.abs(v[1:]) + 1.0)
    if np.all(d <= tol):
        return "decreasing"
    if np.all(d >= -tol):
        return "increasing"
    return None


@dataclass
class MetricKernel:
    """A kernel in distance normal form ``K = g(base_distance)``.

    Attributes
    ----------
    base:
        One of :data:`BASE_METRICS`.
    g:
        Scalar :class:`Expr` over the distance variable ``t``.  For the
        plain metrics this is ``t`` itself or ``sqrt(t)``.
    whiten:
        True when the points must be transformed by the inverse Cholesky
        factor of a covariance matrix before distances are taken — the
        Mahalanobis numerical optimisation of paper section IV-D.
    covariance:
        The covariance matrix for ``whiten`` kernels (set at compile time
        from layer parameters if not given here).
    source:
        The original surface expression, kept for IR dumps.
    """

    base: str
    g: Expr
    whiten: bool = False
    covariance: np.ndarray | None = None
    source: Expr | None = None

    def __post_init__(self):
        if self.base not in BASE_METRICS:
            raise KernelError(f"unknown base metric {self.base!r}")

    # -- evaluation ---------------------------------------------------------
    def value(self, t: np.ndarray | float) -> np.ndarray | float:
        """Evaluate ``g`` at base-distance ``t`` (vectorised)."""
        return self.g.evaluate({"t": t})

    def bounds(self, t_min, t_max) -> tuple[np.ndarray | float, np.ndarray | float]:
        """Bounds of ``g`` over a base-distance interval ``[t_min, t_max]``.

        Valid because optimised kernels are monotone in distance (checked
        at compile time); for a decreasing ``g`` the extrema swap ends.
        """
        lo, hi = self.value(t_max), self.value(t_min)
        if self.monotone() == "increasing":
            lo, hi = hi, lo
        return lo, hi

    # -- structural properties ------------------------------------------------
    @property
    def is_indicator(self) -> bool:
        """True for comparative kernels such as ``I(t < h)``."""
        return isinstance(self.g, Indicator)

    def indicator_threshold(self) -> tuple[str, float] | None:
        """For ``I(t' ◦ h)`` kernels, the comparison in *base-distance* units.

        Returns ``(op, h_base)`` where the threshold has been translated to
        the base metric (e.g. ``sqrt(t) < h`` becomes ``t < h²``), or None
        if the kernel is not a simple one-sided indicator.
        """
        g = self.g
        if not isinstance(g, Indicator):
            return None
        lhs, op, rhs = g.lhs, g.op, g.rhs
        # Accept "h > dist" spelled either way around.
        if isinstance(lhs, Const) and not isinstance(rhs, Const):
            lhs, rhs = rhs, lhs
            op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
        if not isinstance(rhs, Const):
            return None
        h = rhs.value
        if lhs == _T:
            return op, h
        if lhs == sqrt(_T):
            if h < 0:
                # sqrt(t) is never negative: I(sqrt(t) < h) is identically 0.
                return None
            return op, h * h
        return None

    def monotone(self) -> str | None:
        """Monotonicity of ``g`` on t ≥ 0: 'decreasing', 'increasing' or None."""
        return _sampled_monotonicity(self.g)

    def describe(self) -> str:
        base = {"sqeuclidean": "‖q−r‖²", "manhattan": "‖q−r‖₁",
                "chebyshev": "‖q−r‖∞"}[self.base]
        text = f"g(t) = {self.g!r} with t = {base}"
        if self.whiten:
            text += " (points whitened by L⁻¹, Σ = LLᵀ)"
        return text


def _match_distance(node: Expr, qname: str, rname: str) -> str | None:
    """If *node* is a canonical distance form over the two layer variables,
    return its base metric name."""

    def is_diff(e: Expr) -> bool:
        return (
            isinstance(e, BinOp) and e.op == "-"
            and isinstance(e.lhs, Var) and isinstance(e.rhs, Var)
            and {e.lhs.name, e.rhs.name} == {qname, rname}
        )

    if isinstance(node, DimReduce):
        inner = node.operand
        if node.reduce == "+":
            if (
                isinstance(inner, BinOp) and inner.op == "**"
                and isinstance(inner.rhs, Const) and inner.rhs.value == 2.0
                and is_diff(inner.lhs)
            ):
                return "sqeuclidean"
            if isinstance(inner, Call) and inner.func == "abs" and is_diff(inner.operand):
                return "manhattan"
        elif node.reduce == "max":
            if isinstance(inner, Call) and inner.func == "abs" and is_diff(inner.operand):
                return "chebyshev"
    return None


def normalize_kernel(expr: Expr, qvar: Var, rvar: Var) -> MetricKernel | None:
    """Rewrite a surface kernel into distance normal form.

    Finds the distance sub-expressions over the pair of layer variables,
    requires them to share a single base metric, and substitutes the
    distance variable ``t``.  Returns None when the kernel references the
    layer variables outside a recognised distance form (an *external*
    kernel, executed brute-force only).
    """
    found: dict[Expr, str] = {}

    def scan(node: Expr):
        base = _match_distance(node, qvar.name, rvar.name)
        if base is not None:
            found[node] = base
            return
        for c in node.children():
            scan(c)

    scan(expr)
    if not found:
        return None
    bases = set(found.values())
    if len(bases) > 1:
        raise KernelError(
            f"kernel mixes distance metrics {sorted(bases)}; use a single metric"
        )
    g = expr.substitute({node: _T for node in found})
    remaining = {v.name for v in g.free_vars()} & {qvar.name, rvar.name}
    if remaining:
        return None
    return MetricKernel(base=bases.pop(), g=g, source=expr)


def resolve_func(func, *, params: dict | None = None,
                 qvar: Var | None = None, rvar: Var | None = None):
    """Resolve an ``addLayer`` kernel argument.

    Accepts a :class:`PortalFunc`, a symbolic :class:`Expr`, an already
    normalised :class:`MetricKernel`, or an arbitrary Python callable
    (external kernel).  Returns ``(metric_kernel | None, external | None)``.
    """
    params = params or {}
    if func is None:
        return None, None
    if isinstance(func, MetricKernel):
        return func, None
    if isinstance(func, PortalFunc):
        return _predefined(func, params), None
    if isinstance(func, Expr):
        q = qvar if qvar is not None else Var("q")
        r = rvar if rvar is not None else Var("r")
        mk = normalize_kernel(func, q, r)
        if mk is None:
            # Symbolic but not distance-normalisable: fall back to external
            # evaluation of the expression itself.
            def external(Q, R):
                return func.evaluate({q.name: Q[:, None, :], r.name: R[None, :, :]})
            external.__name__ = "symbolic_external_kernel"
            return None, external
        return mk, None
    if callable(func):
        return None, func
    raise KernelError(f"cannot interpret kernel argument {func!r}")


def _predefined(func: PortalFunc, params: dict) -> MetricKernel:
    if func is PortalFunc.EUCLIDEAN:
        return MetricKernel("sqeuclidean", sqrt(_T))
    if func is PortalFunc.SQREUCDIST:
        return MetricKernel("sqeuclidean", _T)
    if func is PortalFunc.MANHATTAN:
        return MetricKernel("manhattan", _T)
    if func is PortalFunc.CHEBYSHEV:
        return MetricKernel("chebyshev", _T)
    if func is PortalFunc.MAHALANOBIS:
        cov = params.get("covariance")
        return MetricKernel(
            "sqeuclidean", _T, whiten=True,
            covariance=None if cov is None else np.asarray(cov, dtype=np.float64),
        )
    if func is PortalFunc.GAUSSIAN:
        sigma = float(params.get("bandwidth", params.get("sigma", 1.0)))
        if sigma <= 0:
            raise KernelError("Gaussian kernel requires a positive bandwidth")
        return MetricKernel(
            "sqeuclidean", exp(Neg(BinOp("/", _T, Const(2.0 * sigma * sigma))))
        )
    raise KernelError(f"unsupported PortalFunc {func!r}")  # pragma: no cover
