"""Portal backend: code generation, the IR interpreter and the
compilation driver (paper section IV-F)."""

from .cache import cache_stats, clear_caches
from .state import Output, State, allocate_state

__all__ = [
    "Output", "State", "allocate_state",
    "clear_caches", "cache_stats",
]
