"""Hand-optimised "expert" baselines — stand-ins for the paper's PASCAL
library implementations (Table IV's comparison targets) — and the
hand-written vector Barnes–Hut forces Table V times against FDPS."""

from .barnes_hut import expert_barnes_hut, leapfrog_step
from .em import expert_em
from .emst import expert_emst
from .hausdorff import expert_hausdorff
from .kde import expert_kde
from .knn import expert_knn
from .range_search import expert_range_count, expert_range_search

__all__ = [
    "expert_knn", "expert_kde", "expert_range_count", "expert_range_search",
    "expert_hausdorff", "expert_em", "expert_emst", "expert_barnes_hut",
    "leapfrog_step",
]
