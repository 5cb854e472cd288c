"""Portal backend: layout selection, fast math, code generation, the IR
interpreter and the compilation driver (paper sections IV-E and IV-F)."""

from .cache import cache_stats, clear_caches
from .fastmath import fast_inverse_sqrt, fast_inverse_sqrt32, fast_sqrt
from .layout import COLUMN_MAJOR_MAX_DIM, Layout, choose_layout
from .state import Output, State, allocate_state

__all__ = [
    "fast_inverse_sqrt", "fast_inverse_sqrt32", "fast_sqrt",
    "Layout", "choose_layout", "COLUMN_MAJOR_MAX_DIM",
    "Output", "State", "allocate_state",
    "clear_caches", "cache_stats",
]
