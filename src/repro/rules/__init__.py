"""The prune/approximate generator (PASCAL's rule machinery, section II).

``build_rules`` is the single entry point used by the compiler: it
classifies the problem and generates the matching :class:`RuleSpec`.
"""

from __future__ import annotations

from ..dsl.funcs import MetricKernel
from ..dsl.layer import Layer
from .approx_gen import generate_approx
from .classify import Classification, classify
from .prune_gen import generate_prune
from .spec import RuleSpec

__all__ = [
    "Classification", "RuleSpec", "classify", "generate_prune",
    "generate_approx", "build_rules",
]


def build_rules(
    layers: list[Layer],
    kernel: MetricKernel | None,
    *,
    tau: float = 0.0,
    criterion: str = "band",
    theta: float = 0.5,
) -> tuple[Classification, RuleSpec]:
    """Classify the problem and generate its prune/approximate rule."""
    cls = classify(layers, kernel)
    if cls.algorithm == "brute" or kernel is None:
        rule = RuleSpec(kind="none", description="brute-force: no rule")
    elif cls.is_pruning:
        rule = generate_prune(layers, kernel)
    else:
        rule = generate_approx(
            layers, kernel, tau=tau, criterion=criterion, theta=theta
        )
    return cls, rule
