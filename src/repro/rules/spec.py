"""RuleSpec: the output of the prune/approximate generator.

A RuleSpec is an abstract description of the Prune/Approximate condition
and the ComputeApprox action for one problem — what paper Table III lists
per problem.  It is consumed by

* the IR lowering stage (to emit the Prune/Approximate and ComputeApprox
  functions in Portal IR, Figs 2–3),
* the backend code generator (to emit the fast vectorised closures), and
* the Table-III benchmark, which prints :attr:`description`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RuleSpec"]


@dataclass
class RuleSpec:
    """Abstract prune/approximate rule.

    Kinds
    -----
    ``bound-min``
        Inner reduction keeps smallest kernel values.  Prune the node pair
        when the *lowest possible* kernel value in the pair exceeds the
        node's current worst retained value ``B(N_q)``.
    ``bound-max``
        Mirror image for largest-value reductions.
    ``indicator``
        Comparative kernel ``I(t ◦ h)``.  Prune when the node-pair
        distance interval lies entirely outside the satisfying region
        (contribute nothing) or entirely inside it (contribution computed
        in closed form by ComputeApprox — e.g. ``|N_q|·|N_r|`` for 2-point
        correlation).
    ``approx``
        Approximation problems.  With ``criterion='band'``: approximate
        when the kernel-value band over the pair is narrower than ``tau``
        (paper section II-C).  With ``criterion='mac'``: Barnes-Hut style
        multipole acceptance, ``diameter(N_r) / dist ≤ theta``.
        ComputeApprox adds the node's density times the centroid
        contribution.
    ``none``
        No pruning or approximation opportunity (brute-force fallback).
    """

    kind: str
    description: str = ""
    #: indicator kernels: comparison operator and threshold in base units
    indicator_op: str | None = None
    indicator_h: float | None = None
    #: action when a pair is entirely inside the indicator region:
    #: 'count_product' | 'count_per_query' | 'append_all' | None
    inside_action: str | None = None
    #: approximation parameters
    tau: float = 0.0
    theta: float = 0.5
    criterion: str = "band"
    #: bound reductions: which retained value bounds the node
    #: ('last' = k-th kept value; 'single' for plain min/max)
    k: int = 1

    @property
    def is_bound(self) -> bool:
        """Whether the rule prunes against a per-query bound that the
        traversal itself tightens (k-NN, Hausdorff) — the one predicate
        behind the batched engine's bound form and the policy key."""
        return self.kind in ("bound-min", "bound-max")

    @property
    def prunes(self) -> bool:
        return self.kind in ("bound-min", "bound-max", "indicator")

    @property
    def approximates(self) -> bool:
        return self.kind == "approx"
