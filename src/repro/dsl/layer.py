"""Layers: one (operator, dataset, kernel) triple of a Portal problem.

Problems are built by chaining layers (paper section III): the outermost
layer maps to the outermost loop of the lowered program, and each inner
layer filters its dataset through its operator and passes the result
outward through injected intermediate storage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import SpecificationError
from .expr import Expr, Var
from .funcs import MetricKernel, PortalFunc, resolve_func
from .ops import OpCategory, PortalOp, op_info, resolve_op
from .storage import Storage

__all__ = ["Layer"]


@dataclass
class Layer:
    """A single layer of a :class:`~repro.dsl.portal_expr.PortalExpr`.

    Built via ``PortalExpr.addLayer``; not usually constructed directly.
    """

    op: PortalOp
    storage: Storage
    k: int | None = None
    var: Var | None = None
    #: Kernel as supplied by the user (PortalFunc / Expr / callable / None).
    func: Any = None
    #: Normalised kernel, when the compiler recognised a distance form.
    metric_kernel: MetricKernel | None = None
    #: Opaque external kernel ``f(Q, R) -> (nq, nr)``, when not normalisable.
    external: Callable | None = None
    #: Layer parameters (bandwidth, covariance, radius h, ...).
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # Here rather than in :meth:`build`, so a ``dataclasses.replace``
        # of ``k`` or ``storage`` (``PortalExpr.rebind``) is held to it.
        if self.k is not None and self.k > self.storage.n:
            raise SpecificationError(
                f"{self.op.name} with k={self.k} exceeds dataset size "
                f"{self.storage.n}"
            )

    @property
    def info(self):
        return op_info(self.op)

    @property
    def output_size(self) -> int:
        """Units of storage injected per evaluation of this layer
        (paper section IV-B)."""
        cat = self.info.category
        if cat is OpCategory.ALL:
            return self.storage.n
        if cat is OpCategory.SINGLE:
            return 1
        # Multi: k units, unbounded for UNION/UNIONARG (reported as -1).
        return self.k if self.k is not None else -1

    @classmethod
    def build(cls, op_spec, args: tuple, params: dict) -> "Layer":
        """Parse the flexible ``addLayer`` argument forms of the paper:

        * ``addLayer(op, storage)``
        * ``addLayer(op, storage, func)``
        * ``addLayer(op, var, storage)``
        * ``addLayer(op, var, storage, func)``
        * ``addLayer((op, k), ...)`` for multi-variable reductions
        """
        op, k = resolve_op(op_spec)
        var: Var | None = None
        rest = list(args)
        if rest and isinstance(rest[0], Var):
            var = rest.pop(0)
        if not rest or not isinstance(rest[0], Storage):
            raise SpecificationError(
                "addLayer requires a Storage argument: "
                "addLayer(op[, var], storage[, kernel])"
            )
        storage = rest.pop(0)
        func = rest.pop(0) if rest else None
        if rest:
            raise SpecificationError(
                f"too many positional arguments to addLayer: {rest!r}"
            )
        return cls(op=op, storage=storage, k=k, var=var, func=func,
                   params=dict(params))

    def resolve_kernel(self, qvar: Var | None) -> None:
        """Normalise this layer's kernel (needs the adjacent layer's Var)."""
        if self.func is None:
            return
        mk, ext = resolve_func(
            self.func, params=self.params, qvar=qvar, rvar=self.var
        )
        if mk is not None and mk.whiten and mk.covariance is None:
            cov = self.params.get("covariance")
            if cov is not None:
                import numpy as np

                mk.covariance = np.asarray(cov, dtype=float)
        self.metric_kernel = mk
        self.external = ext

    def describe(self) -> str:
        parts = [self.op.name if self.k is None else f"{self.op.name}(k={self.k})"]
        if self.var is not None:
            parts.append(self.var.name)
        parts.append(self.storage.name)
        if isinstance(self.func, PortalFunc):
            parts.append(self.func.name)
        elif isinstance(self.func, Expr):
            parts.append(repr(self.func))
        elif callable(self.func):
            parts.append(getattr(self.func, "__name__", "external"))
        return "Layer(" + ", ".join(parts) + ")"
