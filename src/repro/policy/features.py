"""Execution → policy-key feature extraction.

A policy entry must generalise across executions that *behave* the same
while never being applied to one that behaves differently.  The key
therefore captures:

* a **program fingerprint class** — the structural shape of the problem
  (operator pair, bound-rule vs. stateless routing class, base metric,
  kernel op mix with constants abstracted away, indicator/whitening
  flags, approximation on/off) — two KDE runs with different bandwidths
  share a class, a KDE run and a k-NN run never do;
* the **tree kind** (kd / octree — different boxes, different traversals);
* **bucketed problem sizes** — log₂ buckets of N_q and N_r plus the
  exact dimensionality and k.  Within a bucket the engine/executor
  trade-offs are stable; across buckets they are exactly what the
  policy is re-measured for.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from ..backend.plan import program_rules, requested_tau
from ..dsl.expr import Const, Expr
from ..dsl.ops import op_info

__all__ = ["PolicyKey", "policy_key", "program_class", "size_bucket"]


def size_bucket(n: int) -> int:
    """log₂ bucket of a dataset size (0 for empty/singleton sets)."""
    return int(math.log2(n)) if n and n > 1 else 0


def _kernel_shape(expr: Expr | None) -> str:
    """Structural render of a kernel expression with constants abstracted
    (``C``): the op mix and nesting, not the parameter values."""
    if expr is None:
        return "-"
    if isinstance(expr, Const):
        return "C"
    name = type(expr).__name__
    op = getattr(expr, "op", None)
    head = f"{name}[{op}]" if isinstance(op, str) else name
    kids = ",".join(_kernel_shape(c) for c in expr.children())
    return f"{head}({kids})" if kids else head


def program_class(layers, opts) -> str:
    """Fingerprint class digest of a two-layer program (see module doc)."""
    outer, inner = layers[0], layers[-1]
    kern = inner.metric_kernel
    # Bound-rule problems (k-NN, Hausdorff, furthest-point) run the
    # batched engine's best-first epochs, stateless reductions its
    # level-per-epoch form.  The class must separate them: their
    # engine/executor profiles differ.
    rule = program_rules(layers, opts)[1]
    tau = requested_tau(layers, opts)
    parts = (
        "policy-class-v1",
        outer.op.name,
        inner.op.name,
        "k" if op_info(inner.op).requires_k else "-",
        "bound" if rule.is_bound else "stateless",
        kern.base if kern is not None else "external",
        _kernel_shape(kern.g if kern is not None else None),
        "ind" if (kern is not None and kern.is_indicator) else "-",
        "whiten" if (kern is not None and kern.whiten) else "-",
        "approx" if tau > 0.0 else "exact",
        opts.criterion if tau > 0.0 else "-",
    )
    return hashlib.blake2b("|".join(parts).encode(),
                           digest_size=8).hexdigest()


@dataclass(frozen=True)
class PolicyKey:
    """One row of the policy table: program class × tree × size buckets."""

    program_class: str
    tree: str
    nq_bucket: int
    nr_bucket: int
    dim: int
    k: int | None

    def as_str(self) -> str:
        """Stable string form (the JSON store's entry key)."""
        k = "-" if self.k is None else str(self.k)
        return (f"{self.program_class}:{self.tree}:q{self.nq_bucket}"
                f":r{self.nr_bucket}:d{self.dim}:k{k}")

    @classmethod
    def from_str(cls, text: str) -> "PolicyKey":
        cls_, tree, q, r, d, k = text.split(":")
        return cls(
            program_class=cls_, tree=tree, nq_bucket=int(q[1:]),
            nr_bucket=int(r[1:]), dim=int(d[1:]),
            k=None if k[1:] == "-" else int(k[1:]),
        )


def policy_key(layers, opts, nq: int | None = None,
               nr: int | None = None) -> PolicyKey:
    """Extract the policy key for executing ``layers`` under ``opts``.

    ``nq``/``nr`` override the layer storage sizes — the serving layer
    keys its register-time warmup on the configured max batch size
    rather than the one-row probe.
    """
    outer, inner = layers[0], layers[-1]
    return PolicyKey(
        program_class=program_class(layers, opts),
        tree=opts.tree,
        nq_bucket=size_bucket(nq if nq is not None else outer.storage.n),
        nr_bucket=size_bucket(nr if nr is not None else inner.storage.n),
        dim=outer.storage.dim,
        k=inner.k,
    )
