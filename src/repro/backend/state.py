"""Runtime accumulator state — the materialisation of storage injection.

The lowering stage plans one injected storage per layer (paper
section IV-B); this module allocates the corresponding runtime arrays in
*permuted query order* (so vectorised base cases update contiguous
slices) and implements the finalisation step: mapping results back
through the tree permutations, applying the outer layer's reduction and
optional modifying function, and wrapping everything in an
:class:`Output`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..dsl.errors import CompileError
from ..dsl.ops import MAX_LIKE, PortalOp, op_info

__all__ = ["State", "Output", "allocate_state", "exact_winners"]


@dataclass
class Output:
    """Result of executing a Portal program.

    ``values`` / ``indices`` are in the caller's original query order.
    For scalar-output problems (e.g. 2-point correlation, Hausdorff) the
    result is in ``scalar`` and ``values`` holds the per-query
    intermediates.
    """

    values: np.ndarray | None = None
    indices: np.ndarray | list | None = None
    scalar: float | None = None

    def __repr__(self) -> str:
        parts = []
        if self.scalar is not None:
            parts.append(f"scalar={self.scalar:g}")
        if isinstance(self.values, list):
            # UNION rows are ragged: report them by count, not shape.
            parts.append(f"values.rows={len(self.values)}")
        elif self.values is not None:
            parts.append(f"values.shape={np.shape(self.values)}")
        if self.indices is not None:
            parts.append("indices=...")
        return f"Output({', '.join(parts)})"


@dataclass
class State:
    """Accumulators for one compiled problem."""

    inner_op: PortalOp
    outer_op: PortalOp
    k: int | None
    nq: int
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    lists: list | None = None
    #: optional modifying function applied to per-query results before the
    #: outer reduction (paper section III-C "modifying functions")
    modifier: Callable | None = None
    #: monotone-map deferral (compiler optimisation): when the kernel is a
    #: monotone increasing function g of the base distance and the inner
    #: reduction is order-based, the traversal reduces raw base distances
    #: and g is applied once here instead of per leaf pair
    value_transform: Callable | None = None
    #: ``ids -> values``: the kernel of each state row against the
    #: reference ids of its row of ``ids``, in the difference form (the
    #: generated ``exact_values`` over the points the kernels saw), for
    #: :func:`exact_winners`
    exact: Callable | None = None

    def reset(self, s: int = 0, e: int | None = None) -> None:
        """Reset the accumulators over query positions ``[s, e)`` (all of
        them by default) to their allocation-time identities, in place:
        bound kernels keep their references, and the state answers as if
        freshly allocated."""
        e = self.nq if e is None else e
        info = op_info(self.inner_op)
        if self.lists is not None:
            self.lists[s:e] = [[] for _ in range(s, e)]
        for name, arr in self.arrays.items():
            if name == "best_idx":
                arr[s:e] = -1
            elif name == "dense":
                arr[s:e] = 0.0
            elif name == "qbound":
                arr[s:e] = math.inf  # signed-bound identity, both rule kinds
            else:
                arr[s:e] = info.identity

    def finalize(self, qperm: np.ndarray, rperm: np.ndarray | None) -> Output:
        """Produce the :class:`Output` in original point order."""
        inv = np.empty_like(qperm)
        inv[qperm] = np.arange(len(qperm))

        info = op_info(self.inner_op)
        values = indices = None
        if self.inner_op is PortalOp.FORALL:
            values = self.arrays["dense"][inv]
        elif self.inner_op in (PortalOp.UNION, PortalOp.UNIONARG):
            # Each row sorted (ascending original ids, ascending values),
            # so no list depends on the order its chunks were appended in:
            # engine, executor, shards and batch composition alike.
            assert self.lists is not None
            rows = [np.concatenate(chunks) if chunks
                    else np.empty(0, dtype=np.int64)
                    for chunks in (self.lists[pos] for pos in inv)]
            if self.inner_op is PortalOp.UNIONARG:
                rows = [np.asarray(row if rperm is None else rperm[row],
                                   dtype=np.int64) for row in rows]
            for row in rows:  # each a fresh array: sort in place
                row.sort()
            if self.inner_op is PortalOp.UNION:
                values = rows
            else:
                indices = rows
        elif info.comparative:
            best, idx = self.arrays["best"], self.arrays["best_idx"]
            if self.exact is not None:
                best, idx = exact_winners(best, idx, self.exact,
                                          self.inner_op in MAX_LIKE)
            values = best[inv]
            if info.returns_index:
                idx = idx[inv]
                # -1 (an unfilled k-slot) stays -1, never ``rperm[-1]``
                indices = (np.where(idx >= 0, rperm[idx], -1)
                           if rperm is not None else idx)
        else:
            values = self.arrays["acc"][inv]

        if self.value_transform is not None and values is not None:
            values = self.value_transform(np.asarray(values))

        out = Output(values=values, indices=indices)

        # Outer reduction (identity for FORALL).
        if self.outer_op is not PortalOp.FORALL:
            v = values
            if v is None:
                raise CompileError(
                    f"outer {self.outer_op.name} requires a single-valued inner "
                    f"reduction"
                )
            if self.modifier is not None:
                v = self.modifier(v)
            if self.outer_op is PortalOp.SUM:
                out.scalar = float(np.sum(v))
            elif self.outer_op is PortalOp.PROD:
                out.scalar = float(np.prod(v))
            elif self.outer_op is PortalOp.MIN:
                out.scalar = float(np.min(v))
            elif self.outer_op is PortalOp.MAX:
                out.scalar = float(np.max(v))
            else:
                raise CompileError(
                    f"outer operator {self.outer_op.name} is not supported"
                )
        elif self.modifier is not None and values is not None:
            out.values = self.modifier(values)
        return out


def exact_winners(best: np.ndarray, best_idx: np.ndarray,
                  exact: Callable, descending: bool
                  ) -> tuple[np.ndarray, np.ndarray]:
    """A comparative reduction's final ``(best, best_idx)`` with every
    kept value re-evaluated by ``exact(ids)`` — the difference form,
    summed in dimension order — and each k-array re-sorted stably
    (descending for the max forms).  An id −1 slot (unfilled) keeps its
    identity value.  The traversal selects the winners with whatever
    arithmetic its kernels take (the GEMM rounds by operand shape);
    their values then no longer depend on it."""
    best = np.where(best_idx >= 0, exact(np.maximum(best_idx, 0)), best)
    key = -best if descending else best
    if best.ndim == 2 and not (key[:, :-1] <= key[:, 1:]).all():
        order = np.argsort(key, axis=1, kind="stable")
        best = np.take_along_axis(best, order, axis=1)
        best_idx = np.take_along_axis(best_idx, order, axis=1)
    return best, best_idx


_SUPPORTED_INNER = {
    PortalOp.SUM, PortalOp.PROD, PortalOp.MIN, PortalOp.MAX,
    PortalOp.ARGMIN, PortalOp.ARGMAX, PortalOp.KMIN, PortalOp.KMAX,
    PortalOp.KARGMIN, PortalOp.KARGMAX, PortalOp.UNION, PortalOp.UNIONARG,
    PortalOp.FORALL,
}


def allocate_state(
    outer_op: PortalOp,
    inner_op: PortalOp,
    k: int | None,
    nq: int,
    nr: int,
    modifier: Callable | None = None,
) -> State:
    """Allocate accumulators for the (outer, inner) operator pair."""
    if inner_op not in _SUPPORTED_INNER:
        raise CompileError(f"inner operator {inner_op.name} is not supported")
    st = State(inner_op=inner_op, outer_op=outer_op, k=k, nq=nq,
               modifier=modifier)
    info = op_info(inner_op)
    if inner_op in (PortalOp.UNION, PortalOp.UNIONARG):
        st.lists = [[] for _ in range(nq)]
    elif inner_op is PortalOp.FORALL:
        st.arrays["dense"] = np.zeros((nq, nr))
    elif info.comparative:
        # every comparative reduction keeps its winners' ids, for
        # exact_winners (a K-operator's arrays are (nq, K), even at K = 1)
        shape = (nq, k) if info.requires_k else nq
        st.arrays["best"] = np.full(shape, info.identity)
        st.arrays["best_idx"] = np.full(shape, -1, dtype=np.int64)
    else:  # SUM / PROD
        st.arrays["acc"] = np.full(nq, info.identity)
    if "best" in st.arrays:
        # Signed per-query pruning bound for the batched engine's bound
        # form: ± the k-th retained value, +inf before any base case
        # (see traversal/bounded_batched.py).  Finalize ignores it.
        st.arrays["qbound"] = np.full(nq, math.inf)
    return st
