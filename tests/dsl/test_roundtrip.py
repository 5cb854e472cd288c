"""Program-level parse/unparse round-trip: ``parse(unparse(parse(p)))``
must equal ``parse(p)`` for every example program and for seeded
generated programs.

The first parse canonicalises the text (negative literals fold into
``Const``, indicator comparisons get explicit parentheses on the way
back out); the property pins that one unparse/parse cycle is then the
identity on program structure.
"""

import itertools
from pathlib import Path

import numpy as np
import pytest

from repro.dsl import PortalFunc, parse_program
from repro.dsl.expr import Expr
from repro.dsl.unparse import unparse_program

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples" / "programs").glob(
        "*.portal"
    )
)

RNG = np.random.default_rng(4242)
_DATA = {
    name: RNG.normal(size=(20, 3))
    for name in ("query.csv", "reference.csv", "data.csv")
}


def _func_key(func):
    if func is None:
        return None
    if isinstance(func, PortalFunc):
        return ("portal_func", func.name)
    if isinstance(func, Expr):
        return ("expr", func)
    raise AssertionError(f"unroundtrippable layer function {func!r}")


def _structure(program):
    """Structural fingerprint of every PortalExpr in a parsed program."""
    out = {}
    for name, pexpr in program.portal_exprs.items():
        out[name] = [
            (
                layer.op.name,
                layer.k,
                None if layer.var is None else layer.var.name,
                layer.storage.name,
                _func_key(layer.func),
            )
            for layer in pexpr.layers
        ]
    return out


def _roundtrip(text, bindings):
    first = parse_program(text, bindings=bindings)
    again_text = "\n".join(
        unparse_program(pexpr, with_output=False)
        for pexpr in first.portal_exprs.values()
    )
    second = parse_program(again_text, bindings=_rebind(first))
    assert _structure(second) == _structure(first)
    # And the cycle is a fixed point: unparsing the re-parse gives the
    # same text (so diffs in golden program dumps are meaningful).
    third_text = "\n".join(
        unparse_program(pexpr, with_output=False)
        for pexpr in second.portal_exprs.values()
    )
    assert third_text == again_text
    return first, second


def _rebind(program):
    """Bindings for the unparsed text: the default `<name>.csv` sources."""
    return {
        f"{name}.csv": storage.data
        for name, storage in program.storages.items()
    }


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_program_roundtrip(path):
    text = path.read_text()
    _roundtrip(text, bindings=_DATA)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_program_roundtrip_preserves_results(path):
    text = path.read_text()
    first, second = _roundtrip(text, bindings=_DATA)
    res1 = first.run()
    res2 = second.run()
    for name in first.executed:
        out1, out2 = res1[name], res2[name]
        if out1.values is not None:
            np.testing.assert_allclose(np.asarray(out2.values, dtype=float),
                                       np.asarray(out1.values, dtype=float))
        if out1.indices is not None and not isinstance(out1.indices, list):
            assert np.array_equal(out2.indices, out1.indices)


# -- generated programs ------------------------------------------------------

_KERNELS = [
    "sqrt(pow((q - r), 2))",
    "exp((-pow((q - r), 2) / 2))",
    "pow((pow((q - r), 2) + 0.25), -0.5)",
    "(sqrt(pow((q - r), 2)) < 1.3)",
    "GAUSSIAN",
    "EUCLIDEAN",
]
_SHAPES = [
    ("FORALL", "SUM"),
    ("FORALL", "MIN"),
    ("FORALL", "(KARGMIN, 2)"),
    ("SUM", "SUM"),
    ("MAX", "MIN"),
]


def _generated_programs():
    for i, (shape, kern) in enumerate(
        itertools.product(_SHAPES, _KERNELS)
    ):
        outer, inner = shape
        named = kern[0].isupper()
        uses_vars = not named
        lines = [
            'Storage query("query.csv");',
            'Storage reference("reference.csv");',
        ]
        if uses_vars:
            lines += ["Var q;", "Var r;"]
        lines.append(f"PortalExpr p{i};")
        if uses_vars:
            lines.append(f"p{i}.addLayer({outer}, q, query);")
            lines.append(f"p{i}.addLayer({inner}, r, reference, {kern});")
        else:
            lines.append(f"p{i}.addLayer({outer}, query);")
            lines.append(f"p{i}.addLayer({inner}, reference, {kern});")
        lines.append(f"p{i}.execute();")
        yield "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "text", list(_generated_programs()),
    ids=lambda t: t.splitlines()[-3].rstrip(";").replace(" ", ""),
)
def test_generated_program_roundtrip(text):
    _roundtrip(text, bindings=_DATA)
