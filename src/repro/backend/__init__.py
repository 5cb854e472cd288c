"""Portal backend: layout selection, fast math, code generation, the IR
interpreter and the compilation driver (paper sections IV-E and IV-F)."""

from .cache import cache_stats, clear_caches
from .fastmath import fast_inverse_sqrt, fast_inverse_sqrt32, fast_sqrt
from .layout import COLUMN_MAJOR_MAX_DIM, Layout, choose_layout
from .state import Output, State, allocate_state

#: Codegen-backend registry names re-exported lazily: backends.py pulls
#: in codegen → IR → DSL, which imports *this* package for Layout, so an
#: eager import here would be circular.
_LAZY = {
    "Backend": "backends", "NumpyBackend": "backends",
    "get_backend": "backends", "register_backend": "backends",
    "CODEGEN_BACKENDS": "backends",
    "NativeBackend": "native", "native_available": "native",
}


def __getattr__(name: str):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{mod}", __name__), name)

__all__ = [
    "fast_inverse_sqrt", "fast_inverse_sqrt32", "fast_sqrt",
    "Layout", "choose_layout", "COLUMN_MAJOR_MAX_DIM",
    "Output", "State", "allocate_state",
    "clear_caches", "cache_stats",
    "Backend", "NumpyBackend", "NativeBackend", "get_backend",
    "register_backend", "CODEGEN_BACKENDS",
    "native_available",
]
