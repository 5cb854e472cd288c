"""``PortalExpr``: the main problem-definition object (paper section III).

A PortalExpr holds the chain of layers specifying an N-body problem.
``execute()`` runs the compiler pipeline — classification, tree
construction, code generation — and then the (optionally parallel)
multi-tree traversal.  ``getOutput()`` returns the outer layer's storage;
:meth:`generated_source` shows the emitted code, and :meth:`ir_dump`
lowers the program to Portal IR and shows it after any compiler stage.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from .errors import SpecificationError
from .expr import Var
from .layer import Layer
from .ops import OpCategory, PortalOp, resolve_op

__all__ = ["PortalExpr", "resolve_kernels"]


def resolve_kernels(layers: list[Layer]) -> list[Layer]:
    """Name every layer's variable and normalise every kernel against
    its adjacent layer's: the last step of :meth:`PortalExpr.validate`,
    and the first of anything keying a never-executed layer chain (the
    policy's tune/warm paths) — an unresolved kernel would hash as
    "external".  Idempotent; returns ``layers``."""
    for i, layer in enumerate(layers):
        if layer.var is None:
            layer.var = Var(f"_layer{i}")
        layer.resolve_kernel(layers[i - 1].var if i > 0 else None)
    return layers


class PortalExpr:
    """An N-body problem expressed as a chain of Portal layers."""

    def __init__(self, name: str = "portal_expr"):
        self.name = name
        self.layers: list[Layer] = []
        self._program = None  # CompiledProgram after execute()
        self._output = None

    @classmethod
    def from_layers(cls, layers: list[Layer],
                    name: str = "portal_expr") -> "PortalExpr":
        """An expression over existing (shared, not copied) layers."""
        expr = cls(name)
        expr.layers = list(layers)
        return expr

    # -- construction -----------------------------------------------------------
    def addLayer(self, op, *args, **params) -> Layer:
        """Append a layer.  See :meth:`Layer.build` for accepted forms."""
        layer = Layer.build(op, args, params)
        self.layers.append(layer)
        return layer

    add_layer = addLayer  # PEP-8 alias

    # -- validation ----------------------------------------------------------------
    def validate(self) -> None:
        """Check the program is a well-formed N-body specification.

        Raises :class:`SpecificationError` describing the first problem
        found.  Called automatically by :meth:`execute`.
        """
        if len(self.layers) < 2:
            raise SpecificationError(
                "an N-body problem needs at least two layers "
                "(an outer operator over one dataset and an inner reduction "
                "over another)"
            )
        inner = self.layers[-1]
        if inner.func is None:
            raise SpecificationError(
                "the innermost layer must specify a kernel function"
            )
        dims = {l.storage.dim for l in self.layers}
        if len(dims) > 1:
            raise SpecificationError(
                f"all layer datasets must share dimensionality; got {sorted(dims)}"
            )
        for layer in self.layers:
            if not layer.info.decomposable:
                raise SpecificationError(
                    f"operator {layer.op.name} is not decomposable over its "
                    f"dataset; the multi-tree algorithm requires "
                    f"decomposability (paper section II-C)"
                )
        # Resolve kernels now that adjacent layers are known.
        resolve_kernels(self.layers)

    def rebind(self, storages: dict, k: int | None = None) -> "PortalExpr":
        """The same program over other data: a layer whose Storage is
        a key of ``storages`` reads the mapped one instead, and ``k``
        overrides the innermost layer's (which must take one).

        Layers are copied; ``Var`` / kernel / params objects (``Expr``
        kernels close over the original ``Var`` objects) and resolved
        kernels are shared, and layers that shared a Storage share its
        replacement — self-pair exclusion depends on that identity.
        """
        layers = [replace(layer, storage=storages.get(layer.storage,
                                                      layer.storage))
                  for layer in self.layers]
        if k is not None:
            layers[-1] = replace(
                layers[-1], k=resolve_op((layers[-1].op, int(k)))[1])
        return PortalExpr.from_layers(layers, self.name)

    # -- compiler hooks ---------------------------------------------------------
    def compile(self, **options):
        """Run the compiler pipeline without executing; returns the program."""
        from ..backend.jit import compile_expr

        self.validate()
        self._program = compile_expr(self, options)
        return self._program

    def execute(self, **options):
        """Compile (if needed) and run the problem; returns the output.

        Options (all keyword-only) include ``backend`` ('vectorized',
        'interp' or 'brute'), ``tree`` ('kd', 'octree'),
        ``leaf_size``, ``tau`` (approximation threshold), ``parallel``,
        ``workers``, ``shards`` (``'auto'`` or a count — partition the
        reference set into spatial shards with one tree each and combine
        per-shard results; see :mod:`repro.parallel.shard`).  See
        :class:`repro.backend.plan.CompileOptions`.
        """
        program = self.compile(**options)
        self._output = program.run()
        return self._output

    def getOutput(self):
        """The output of the last :meth:`execute` call."""
        if self._output is None:
            raise SpecificationError("execute() has not been called")
        return self._output

    get_output = getOutput  # PEP-8 alias

    # -- introspection ------------------------------------------------------------
    @property
    def program(self):
        if self._program is None:
            raise SpecificationError("compile() or execute() has not been called")
        return self._program

    def ir_dump(self, stage: str = "final", disable=()) -> str:
        """Pretty-printed Portal IR after the named compiler stage
        ('lowered', 'flattened', 'numopt', 'strength', 'final'), with the
        optimisation passes named in ``disable`` skipped."""
        return self.program.ir_dump(stage, disable)

    def stats(self) -> dict:
        """Observability summary of the last compile/run (see
        ``docs/observability.md``): traversal counters with prune and
        approximation rates, per-IR-pass timings (once something read
        the IR), per-compile-stage timings, and the run wall-clock.
        Sharded runs add a ``"shard"`` block — shard count and per-shard
        traversal stats.
        Requires :meth:`compile` (the traversal counters are zero until
        :meth:`execute`)."""
        return self.program.stats_summary()

    def generated_source(self) -> str:
        """The vectorised Python source emitted by the backend."""
        return self.program.generated_source()

    def describe(self) -> str:
        lines = [f"PortalExpr {self.name!r}:"]
        lines += [f"  [{i}] {l.describe()}" for i, l in enumerate(self.layers)]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"PortalExpr({self.name!r}, {len(self.layers)} layers)"
