"""Pluggable codegen backends (ROADMAP item 2, paper's LLVM backend).

The code generator is split behind a small :class:`Backend` interface —
modeled on the slope ``Backend`` objects (a dtype map, per-kernel
codegen, and a compile/bind step as swappable methods) — so the
vectorised NumPy emitter (:mod:`repro.backend.codegen`) is one *target*
among several rather than the only lowering:

* ``numpy`` — the default: vectorised NumPy source, ``compile()`` +
  ``exec``.  It is also the **differential reference** every other
  backend is held to (:mod:`tests.backend.test_backend_differential`).
* ``native`` — Numba-``@njit`` per-pair scalar kernels for the hot
  leaf-level functions (BaseCase, the grouped epoch base case,
  ComputeApprox), falling back to the NumPy kernels — counted under
  ``backend.native.fallback``, never fatal — when numba is not
  importable or a kernel uses an unsupported construct
  (:mod:`repro.backend.native`).
* ``auto`` — not a backend but a request: the execution plan
  (:func:`repro.backend.plan.resolve_plan`) turns it into ``native``
  only when numba is importable *and* the problem is large enough for
  the one-off JIT warm-up to amortise; everything smaller stays on
  ``numpy``.

A backend owns three swappable steps:

``emit(spec)``
    CodegenSpec → ``(source, code)``.  Pure function of the spec, so the
    result is artifact-cacheable; the artifact key includes the backend
    name (a native artifact must never collide with a NumPy one).
``bind(source, code, bindings)``
    Execute the emitted code against a closure environment and return
    :class:`~repro.backend.codegen.GeneratedKernels`.  This is where the
    native backend compiles/warms its JIT kernels (once per process —
    worker processes rebuild from the cached source and warm locally,
    timed under ``backend.native.compile_s``).
``dtype_map``
    Logical → physical dtype mapping for emitted arrays.
"""

from __future__ import annotations

import numpy as np

from ..dsl.errors import SpecificationError
from .codegen import CodegenSpec, GeneratedKernels, bind_kernels, emit

__all__ = [
    "Backend", "NumpyBackend", "get_backend", "register_backend",
    "CODEGEN_BACKENDS",
]

#: Requestable values of ``CompileOptions.codegen`` (``auto`` resolves
#: to one of the concrete registry names before the artifact is keyed).
CODEGEN_BACKENDS = ("numpy", "native", "auto")


class Backend:
    """A codegen target: dtype map + per-kernel emission + bind step.

    Subclasses override :meth:`emit_source` (and usually :meth:`bind`);
    :meth:`emit` is the shared source → code-object compile step.
    """

    #: registry name (also the ``CompileOptions.codegen`` value)
    name: str = "abstract"

    #: logical → physical dtype map for emitted kernel arrays
    dtype_map: dict[str, np.dtype] = {
        "real": np.dtype(np.float64),
        "index": np.dtype(np.int64),
        "code": np.dtype(np.int8),
    }

    def supports(self, spec: CodegenSpec) -> str | None:
        """``None`` when this backend can lower *spec* natively, else a
        short human-readable reason (used for fallback accounting)."""
        return None

    def emit_source(self, spec: CodegenSpec) -> str:
        raise NotImplementedError

    def emit(self, spec: CodegenSpec) -> tuple[str, object]:
        """Emit kernel source and compile it to a code object (pure
        function of the spec — cacheable, re-bindable)."""
        source = self.emit_source(spec)
        code = compile(source, f"<portal-{self.name}-{id(spec)}>", "exec")
        return source, code

    def bind(self, source: str, code, bindings: dict) -> GeneratedKernels:
        """Execute emitted code against the data/state bindings."""
        return bind_kernels(source, code, bindings)


class NumpyBackend(Backend):
    """The default target: vectorised NumPy source (paper section IV-F),
    delegating to :mod:`repro.backend.codegen`."""

    name = "numpy"

    def emit(self, spec: CodegenSpec) -> tuple[str, object]:
        return emit(spec)

    def emit_source(self, spec: CodegenSpec) -> str:
        return emit(spec)[0]


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SpecificationError(
            f"unknown codegen backend {name!r}; "
            f"registered: {sorted(_REGISTRY)}"
        ) from None


register_backend(NumpyBackend())

# The native backend registers itself on import (kept in its own module
# so the numba probe and the scalar emitter stay out of the hot path).
from . import native as _native  # noqa: E402,F401  (registration side effect)
