"""Symbolic kernel expressions: ``Var``, ``Expr`` and helpers.

This module implements the user-facing symbolic language used to define
custom kernel/modifying functions (paper section III-C, Code 3)::

    q = Var("q")
    r = Var("r")
    EuclidDist = sqrt(pow(q - r, 2))

Expressions are small immutable ASTs.  Variables bound to dataset layers
are *vector* valued (one value per dimension of the dataset); constants
and reduced values are *scalar*.  Following the paper's lowering rules
(Fig. 2 and 3), ``pow`` applied to a vector both exponentiates
element-wise **and** reduces over the dimension axis with ``+`` — this is
what turns ``pow(q - r, 2)`` into the squared Euclidean norm
``Σ_d (q_d - r_d)²``.  ``abs`` on a vector stays a vector, and the
explicit reductions :func:`dim_sum` / :func:`dim_max` are available for
kernels such as Manhattan and Chebyshev distance.

The same AST is consumed by three downstream components:

* the **lowering** stage, which turns it into Portal IR loops,
* the **kernel normaliser** (:func:`normalize_kernel`), which recognises
  distance forms so the prune/approximate generator can reason about the
  kernel as a function of a single distance variable, and
* the **backend code generator**, which emits vectorised NumPy source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import KernelError

__all__ = [
    "Expr", "Var", "Const", "BinOp", "Neg", "Call", "DimReduce",
    "Indicator", "DistVar", "sqrt", "pow", "exp", "log", "absval",
    "dim_sum", "dim_max", "indicator",
]

_builtin_pow = __builtins__["pow"] if isinstance(__builtins__, dict) else __builtins__.pow


def _wrap(value) -> "Expr":
    """Coerce Python numbers into :class:`Const` nodes."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, np.integer, np.floating)):
        return Const(float(value))
    raise KernelError(f"cannot use {value!r} in a Portal expression")


class Expr:
    """Base class of all symbolic expression nodes.

    Supports the arithmetic operators and comparisons; comparisons produce
    :class:`Indicator` nodes (0/1 valued), matching comparative kernels
    such as ``I(|x_q - x_r| < h)`` in paper Table III.
    """

    #: "scalar" or "vector" — set by subclasses.
    shape: str = "scalar"

    # -- operator overloads ------------------------------------------------
    def __add__(self, other):
        return BinOp("+", self, _wrap(other))

    def __radd__(self, other):
        return BinOp("+", _wrap(other), self)

    def __sub__(self, other):
        return BinOp("-", self, _wrap(other))

    def __rsub__(self, other):
        return BinOp("-", _wrap(other), self)

    def __mul__(self, other):
        return BinOp("*", self, _wrap(other))

    def __rmul__(self, other):
        return BinOp("*", _wrap(other), self)

    def __truediv__(self, other):
        return BinOp("/", self, _wrap(other))

    def __rtruediv__(self, other):
        return BinOp("/", _wrap(other), self)

    def __pow__(self, other):
        return pow(self, other)

    def __neg__(self):
        return Neg(self)

    def __lt__(self, other):
        return Indicator("<", self, _wrap(other))

    def __le__(self, other):
        return Indicator("<=", self, _wrap(other))

    def __gt__(self, other):
        return Indicator(">", self, _wrap(other))

    def __ge__(self, other):
        return Indicator(">=", self, _wrap(other))

    # -- structural API ----------------------------------------------------
    def children(self) -> tuple["Expr", ...]:
        return ()

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for c in self.children():
            yield from c.walk()

    def free_vars(self) -> set["Var"]:
        return {n for n in self.walk() if isinstance(n, Var)}

    def substitute(self, mapping: dict["Expr", "Expr"]) -> "Expr":
        """Return a copy with sub-trees replaced (by structural equality)."""
        for old, new in mapping.items():
            if self == old:
                return new
        return self._rebuild([c.substitute(mapping) for c in self.children()])

    def _rebuild(self, children: list["Expr"]) -> "Expr":
        return self

    def evaluate(self, env: dict[str, np.ndarray | float]) -> np.ndarray | float:
        """Numerically evaluate the expression.

        Vector variables should be bound to arrays whose *last* axis is the
        dimension axis; :class:`DimReduce` nodes reduce over that axis.
        Broadcasting over leading axes gives pairwise evaluation for free.
        """
        raise NotImplementedError

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self._key() == other._key()
            and self.children() == other.children()
        )

    def __hash__(self):
        return hash((type(self).__name__, self._key(), self.children()))

    def _key(self):
        return ()


@dataclass(frozen=True, eq=False)
class Var(Expr):
    """A named variable bound to a dataset layer (vector valued)."""

    name: str = ""
    shape: str = field(default="vector")

    _counter = [0]

    def __post_init__(self):
        if not self.name:
            Var._counter[0] += 1
            object.__setattr__(self, "name", f"v{Var._counter[0]}")

    def _key(self):
        return (self.name, self.shape)

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise KernelError(f"unbound variable {self.name!r}") from None

    def __repr__(self):
        return self.name


@dataclass(frozen=True, eq=False)
class DistVar(Expr):
    """Placeholder for the metric distance in a normalised kernel.

    Produced by :func:`normalize_kernel`; never written by users.
    """

    name: str = "t"
    shape: str = field(default="scalar")

    def _key(self):
        return (self.name,)

    def evaluate(self, env):
        try:
            return env[self.name]
        except KeyError:
            raise KernelError(f"unbound distance variable {self.name!r}") from None

    def __repr__(self):
        return self.name


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: float = 0.0
    shape: str = field(default="scalar")

    def _key(self):
        return (self.value,)

    def evaluate(self, env):
        return self.value

    def __repr__(self):
        return f"{self.value:g}"


@dataclass(frozen=True, eq=False)
class BinOp(Expr):
    op: str = "+"
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]

    def __post_init__(self):
        shape = "vector" if "vector" in (self.lhs.shape, self.rhs.shape) else "scalar"
        object.__setattr__(self, "shape", shape)

    def children(self):
        return (self.lhs, self.rhs)

    def _rebuild(self, children):
        return BinOp(self.op, *children)

    def _key(self):
        return (self.op,)

    def evaluate(self, env):
        a = self.lhs.evaluate(env)
        b = self.rhs.evaluate(env)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            return a / b
        if self.op == "**":
            # float64, as the emitted np.power: (-8) ** 0.5 is NaN, not
            # a complex number.
            return np.power(a, b, dtype=np.float64)
        raise KernelError(f"unknown binary operator {self.op!r}")

    def __repr__(self):
        return f"({self.lhs!r} {self.op} {self.rhs!r})"


@dataclass(frozen=True, eq=False)
class Neg(Expr):
    operand: Expr = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "shape", self.operand.shape)

    def children(self):
        return (self.operand,)

    def _rebuild(self, children):
        return Neg(children[0])

    def evaluate(self, env):
        return -self.operand.evaluate(env)

    def __repr__(self):
        return f"(-{self.operand!r})"


_SCALAR_FUNCS: dict[str, Callable] = {
    "sqrt": np.sqrt,
    "exp": np.exp,
    "log": np.log,
    "abs": np.abs,
}


@dataclass(frozen=True, eq=False)
class Call(Expr):
    """Application of a built-in scalar function (sqrt, exp, log, abs)."""

    func: str = ""
    operand: Expr = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.func not in _SCALAR_FUNCS:
            raise KernelError(f"unknown function {self.func!r}")
        if self.func != "abs" and self.operand.shape == "vector":
            raise KernelError(
                f"{self.func}() requires a scalar argument; reduce the vector "
                f"first (e.g. with pow(v, 2) or dim_sum(v))"
            )
        object.__setattr__(self, "shape", self.operand.shape)

    def children(self):
        return (self.operand,)

    def _rebuild(self, children):
        return Call(self.func, children[0])

    def _key(self):
        return (self.func,)

    def evaluate(self, env):
        return _SCALAR_FUNCS[self.func](self.operand.evaluate(env))

    def __repr__(self):
        return f"{self.func}({self.operand!r})"


@dataclass(frozen=True, eq=False)
class DimReduce(Expr):
    """Reduction of a vector expression over the dimension axis."""

    reduce: str = "+"  # "+" or "max"
    operand: Expr = None  # type: ignore[assignment]
    shape: str = field(default="scalar")

    def __post_init__(self):
        if self.operand.shape != "vector":
            raise KernelError("DimReduce requires a vector operand")
        if self.reduce not in ("+", "max"):
            raise KernelError(f"unsupported dimension reduction {self.reduce!r}")

    def children(self):
        return (self.operand,)

    def _rebuild(self, children):
        return DimReduce(self.reduce, children[0])

    def _key(self):
        return (self.reduce,)

    def evaluate(self, env):
        v = self.operand.evaluate(env)
        v = np.asarray(v)
        return v.sum(axis=-1) if self.reduce == "+" else v.max(axis=-1)

    def __repr__(self):
        sym = "Σ_d" if self.reduce == "+" else "max_d"
        return f"{sym} {self.operand!r}"


@dataclass(frozen=True, eq=False)
class Indicator(Expr):
    """Comparative kernel node: evaluates to 1.0 where the comparison holds.

    Comparative kernels such as ``I(|x_q - x_r| < h)`` (range search,
    2-point correlation) classify the problem as a *pruning* problem
    (paper section II-B).
    """

    op: str = "<"
    lhs: Expr = None  # type: ignore[assignment]
    rhs: Expr = None  # type: ignore[assignment]
    shape: str = field(default="scalar")

    def __post_init__(self):
        if self.lhs.shape == "vector" or self.rhs.shape == "vector":
            raise KernelError("comparisons require scalar operands")
        if self.op not in ("<", "<=", ">", ">="):
            raise KernelError(f"unsupported comparison {self.op!r}")

    def children(self):
        return (self.lhs, self.rhs)

    def _rebuild(self, children):
        return Indicator(self.op, *children)

    def _key(self):
        return (self.op,)

    def evaluate(self, env):
        a = self.lhs.evaluate(env)
        b = self.rhs.evaluate(env)
        if self.op == "<":
            m = np.less(a, b)
        elif self.op == "<=":
            m = np.less_equal(a, b)
        elif self.op == ">":
            m = np.greater(a, b)
        else:
            m = np.greater_equal(a, b)
        return m.astype(np.float64) if isinstance(m, np.ndarray) else float(m)

    def __repr__(self):
        return f"I({self.lhs!r} {self.op} {self.rhs!r})"


# -- public constructor helpers ---------------------------------------------

def sqrt(x) -> Expr:
    """Square root.  Requires a scalar expression."""
    return Call("sqrt", _wrap(x))


def pow(x, n) -> Expr:  # noqa: A001 - mirrors the paper's surface syntax
    """Power with the paper's vector semantics.

    On a scalar, ``pow(x, n) = x**n``.  On a vector, ``pow`` exponentiates
    element-wise and reduces over the dimension axis with ``+`` — so
    ``pow(q - r, 2)`` is the squared Euclidean norm (paper Fig. 2 lowers
    exactly this pattern into ``for d: t += pow(q_d - r_d, 2)``).
    """
    x = _wrap(x)
    n = _wrap(n)
    if not isinstance(n, Const):
        raise KernelError("pow exponent must be a constant")
    body = BinOp("**", x, n)
    if x.shape == "vector":
        return DimReduce("+", body)
    return body


def exp(x) -> Expr:
    """Exponential.  Requires a scalar expression."""
    return Call("exp", _wrap(x))


def log(x) -> Expr:
    """Natural logarithm.  Requires a scalar expression."""
    return Call("log", _wrap(x))


def absval(x) -> Expr:
    """Element-wise absolute value (vector in, vector out)."""
    return Call("abs", _wrap(x))


def dim_sum(x) -> Expr:
    """Explicit sum-reduction of a vector expression over dimensions."""
    return DimReduce("+", _wrap(x))


def dim_max(x) -> Expr:
    """Explicit max-reduction of a vector expression over dimensions."""
    return DimReduce("max", _wrap(x))


def indicator(cmp: Indicator) -> Indicator:
    """Identity helper so specifications can read ``indicator(d < h)``."""
    if not isinstance(cmp, Indicator):
        raise KernelError("indicator() expects a comparison expression")
    return cmp
