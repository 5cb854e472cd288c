"""Portal backend: layout selection, code generation, the IR interpreter
and the compilation driver (paper section IV-F)."""

from .cache import cache_stats, clear_caches
from .layout import COLUMN_MAJOR_MAX_DIM, Layout, choose_layout
from .state import Output, State, allocate_state

__all__ = [
    "Layout", "choose_layout", "COLUMN_MAJOR_MAX_DIM",
    "Output", "State", "allocate_state",
    "clear_caches", "cache_stats",
]
