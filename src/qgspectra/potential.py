"""Edge potentials: parsing, evaluation, and orientation handling.

A potential is attached to an (undirected) edge in one of four variants:
``zero``, ``constant``, ``delta`` (a point scatterer with strength ``D`` at a
position measured from the edge's "from" endpoint), and ``smooth`` (an
arithmetic expression in ``x``).  Traversing the edge against its reference
orientation sees the reflected profile w(L - x); for a delta that moves the
scatterer to L - x0.

Expression grammar (operator precedence, tightest first): ``^`` is
right-associative, then unary minus, then ``*`` ``/``, then ``+`` ``-``.
Atoms are numbers, ``x``, ``pi``, parenthesized expressions, and the
functions sin, cos, exp, sqrt, abs.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import ExpressionError, InputError

__all__ = [
    "ExpressionTree",
    "Potential",
    "parse_expression",
    "orient",
]

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_DENSE_SAMPLES = 4096


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------


class ExpressionTree:
    """Base class for expression nodes; immutable and picklable."""

    def eval(self, x):
        raise NotImplementedError

    def diff(self) -> "ExpressionTree":
        raise NotImplementedError

    def pretty(self) -> str:
        return self._pretty()

    # precedence levels used by the printer: 1 add, 2 mul, 3 unary, 4 power,
    # 5 atom
    _LEVEL = 5

    def _pretty(self) -> str:
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class Num(ExpressionTree):
    value: float

    def eval(self, x):
        return self.value

    def diff(self):
        return Num(0.0)

    def _pretty(self):
        v = self.value
        if v == int(v) and abs(v) < 1e16:
            return str(int(v))
        return repr(v)


@dataclasses.dataclass(frozen=True)
class Var(ExpressionTree):
    def eval(self, x):
        return x

    def diff(self):
        return Num(1.0)

    def _pretty(self):
        return "x"


@dataclasses.dataclass(frozen=True)
class Pi(ExpressionTree):
    def eval(self, x):
        return math.pi

    def diff(self):
        return Num(0.0)

    def _pretty(self):
        return "pi"


@dataclasses.dataclass(frozen=True)
class Neg(ExpressionTree):
    child: ExpressionTree
    _LEVEL = 3

    def eval(self, x):
        return -self.child.eval(x)

    def diff(self):
        return Neg(self.child.diff())

    def _pretty(self):
        c = self.child._pretty()
        if self.child._LEVEL < 3:
            c = f"({c})"
        return f"-{c}"


@dataclasses.dataclass(frozen=True)
class BinOp(ExpressionTree):
    op: str
    lhs: ExpressionTree
    rhs: ExpressionTree

    @property
    def _LEVEL(self):  # type: ignore[override]
        return {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}[self.op]

    def eval(self, x):
        a = self.lhs.eval(x)
        b = self.rhs.eval(x)
        if self.op == "+":
            return a + b
        if self.op == "-":
            return a - b
        if self.op == "*":
            return a * b
        if self.op == "/":
            with np.errstate(divide="ignore", invalid="ignore"):
                return a / b
        with np.errstate(invalid="ignore"):
            return np.power(a, b)

    def diff(self):
        f, g = self.lhs, self.rhs
        df, dg = f.diff(), g.diff()
        if self.op == "+":
            return BinOp("+", df, dg)
        if self.op == "-":
            return BinOp("-", df, dg)
        if self.op == "*":
            return BinOp("+", BinOp("*", df, g), BinOp("*", f, dg))
        if self.op == "/":
            num = BinOp("-", BinOp("*", df, g), BinOp("*", f, dg))
            return BinOp("/", num, BinOp("^", g, Num(2.0)))
        # power: constant exponent gets the simple rule, otherwise the
        # logarithmic form f^g * (g' ln f + g f'/f) is not representable in
        # this grammar (no ln), so we restrict differentiation to constant
        # exponents -- all fixtures and sensible potentials satisfy this.
        if isinstance(g, (Num, Pi)) or _is_constant(g):
            gval = g.eval(0.0)
            return BinOp(
                "*",
                BinOp("*", Num(float(gval)), BinOp("^", f, Num(float(gval) - 1.0))),
                df,
            )
        raise ExpressionError("cannot differentiate a non-constant exponent", 0)

    def _pretty(self):
        a, b = self.lhs._pretty(), self.rhs._pretty()
        lvl = self._LEVEL
        if self.op == "^":
            # right-associative; exponent slot parses at unary level
            if self.lhs._LEVEL <= 4:
                a = f"({a})"
            if self.rhs._LEVEL < 3:
                b = f"({b})"
        else:
            if self.lhs._LEVEL < lvl:
                a = f"({a})"
            if self.rhs._LEVEL <= lvl:
                b = f"({b})"
        return f"{a}{self.op}{b}"


@dataclasses.dataclass(frozen=True)
class Func(ExpressionTree):
    name: str
    arg: ExpressionTree

    def eval(self, x):
        return _FUNCTIONS[self.name](self.arg.eval(x))

    def diff(self):
        u, du = self.arg, self.arg.diff()
        if self.name == "sin":
            outer: ExpressionTree = Func("cos", u)
        elif self.name == "cos":
            outer = Neg(Func("sin", u))
        elif self.name == "exp":
            outer = Func("exp", u)
        elif self.name == "sqrt":
            outer = BinOp("/", Num(0.5), Func("sqrt", u))
        else:  # abs: derivative u/|u| * u', undefined at zeros
            outer = BinOp("/", u, Func("abs", u))
        return BinOp("*", outer, du)

    def _pretty(self):
        return f"{self.name}({self.arg._pretty()})"


def _is_constant(tree: ExpressionTree) -> bool:
    if isinstance(tree, (Num, Pi)):
        return True
    if isinstance(tree, Var):
        return False
    if isinstance(tree, Neg):
        return _is_constant(tree.child)
    if isinstance(tree, BinOp):
        return _is_constant(tree.lhs) and _is_constant(tree.rhs)
    if isinstance(tree, Func):
        return _is_constant(tree.arg)
    return False


def substitute_reversed(tree: ExpressionTree, length: float) -> ExpressionTree:
    """Replace x by (L - x), realizing the reflected profile."""
    if isinstance(tree, Var):
        return BinOp("-", Num(float(length)), Var())
    if isinstance(tree, Neg):
        return Neg(substitute_reversed(tree.child, length))
    if isinstance(tree, BinOp):
        return BinOp(
            tree.op,
            substitute_reversed(tree.lhs, length),
            substitute_reversed(tree.rhs, length),
        )
    if isinstance(tree, Func):
        return Func(tree.name, substitute_reversed(tree.arg, length))
    return tree


# ---------------------------------------------------------------------------
# tokenizer / parser
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")


def _tokenize(src: str):
    tokens = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in _OPS:
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and src[j].isdigit():
                j += 1
            if j < n and src[j] == ".":
                j += 1
                while j < n and src[j].isdigit():
                    j += 1
            if j < n and src[j] in "eE":
                m = j + 1
                if m < n and src[m] in "+-":
                    m += 1
                if m < n and src[m].isdigit():
                    j = m
                    while j < n and src[j].isdigit():
                        j += 1
            tokens.append(("num", float(src[i:j]), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("id", src[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


# Deepest parse tree accepted.  Each operator, parenthesis pair and
# function call is one level; evaluating, differentiating and printing a
# tree recurse once per level, so this keeps them far from the
# interpreter's recursion limit.
MAX_EXPRESSION_DEPTH = 100

_Parsed = Tuple[ExpressionTree, int]  # a parsed subtree and its height


class _Parser:
    """Recursive descent.  Each rule returns (tree, height), the number of
    levels in the tree it parsed; ``level`` counts the levels open around
    the current token, so level + height bounds the depth of the finished
    tree from below."""

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.level = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, val, at = self.peek()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r}", at)
        return self.next()

    def check_depth(self, height: int) -> None:
        if self.level + height > MAX_EXPRESSION_DEPTH:
            raise ExpressionError(
                f"expression nests deeper than {MAX_EXPRESSION_DEPTH} levels",
                self.peek()[2],
            )

    def nested(self, rule: Callable[[], _Parsed]) -> _Parsed:
        """Parse ``rule`` below one more level, the caller's node, refusing
        before the recursion passes MAX_EXPRESSION_DEPTH."""
        self.level += 1
        self.check_depth(0)
        parsed = rule()
        self.level -= 1
        return parsed

    def binop(self, op: str, lhs: _Parsed, rhs: _Parsed) -> _Parsed:
        (a, ha), (b, hb) = lhs, rhs
        height = 1 + max(ha, hb)
        self.check_depth(height)
        return BinOp(op, a, b), height

    def parse(self) -> ExpressionTree:
        tree, _ = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing input {val!r}", at)
        return tree

    def expr(self) -> _Parsed:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = self.binop(val, node, self.term())
            else:
                return node

    def term(self) -> _Parsed:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = self.binop(val, node, self.unary())
            else:
                return node

    def unary(self) -> _Parsed:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            child, height = self.nested(self.unary)
            return Neg(child), height + 1
        return self.power()

    def power(self) -> _Parsed:
        node = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            # exponent re-enters at the unary level: ^ binds above unary
            # minus on its left but admits a signed exponent, and chains
            # right-associatively.
            return self.binop("^", node, self.nested(self.unary))
        return node

    def base(self) -> _Parsed:
        kind, val, at = self.next()
        if kind == "num":
            return Num(val), 0
        if kind == "id":
            if val == "x":
                return Var(), 0
            if val == "pi":
                return Pi(), 0
            if val in _FUNCTIONS:
                self.expect_op("(")
                arg, height = self.nested(self.expr)
                self.expect_op(")")
                return Func(val, arg), height + 1
            raise ExpressionError(f"unknown identifier {val!r}", at)
        if kind == "op" and val == "(":
            node, height = self.nested(self.expr)
            self.expect_op(")")
            return node, height + 1
        raise ExpressionError("expected expression", at)


def parse_expression(src: str) -> ExpressionTree:
    """Parse an arithmetic expression in x into an immutable tree; a tree
    deeper than MAX_EXPRESSION_DEPTH levels raises ExpressionError."""
    return _Parser(src).parse()


def eval_array(tree: ExpressionTree, xs: np.ndarray) -> np.ndarray:
    out = tree.eval(xs)
    if np.ndim(out) == 0:
        out = np.full_like(np.asarray(xs, dtype=float), float(out))
    return np.asarray(out, dtype=float)


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Potential:
    """One edge potential.  Construct via the factory classmethods."""

    kind: str  # "zero" | "constant" | "delta" | "smooth"
    value: float = 0.0  # constant value
    strength: float = 0.0  # delta strength D
    position: float = 0.0  # delta position, measured from the "from" end
    tree: Optional[ExpressionTree] = None
    source: str = ""

    @classmethod
    def zero(cls) -> "Potential":
        return cls("zero")

    @classmethod
    def constant(cls, c: float) -> "Potential":
        if not math.isfinite(c):
            raise InputError("constant potential value must be finite")
        return cls("constant", value=float(c))

    @classmethod
    def delta(cls, strength: float, position: float) -> "Potential":
        if not math.isfinite(strength):
            raise InputError("delta strength must be finite")
        if not math.isfinite(position) or position < 0:
            raise InputError("delta position must be finite and nonnegative")
        return cls("delta", strength=float(strength), position=float(position))

    @classmethod
    def smooth(cls, src: Union[str, ExpressionTree]) -> "Potential":
        tree = parse_expression(src) if isinstance(src, str) else src
        return cls("smooth", tree=tree, source=tree.pretty())

    @classmethod
    def from_dict(cls, data: dict) -> "Potential":
        try:
            kind = data["type"]
        except (TypeError, KeyError):
            raise InputError("potential description must carry a 'type' field")
        if kind == "zero":
            return cls.zero()
        if kind == "constant":
            try:
                return cls.constant(float(data["value"]))
            except KeyError:
                raise InputError("constant potential requires a 'value' field")
        if kind == "delta":
            try:
                return cls.delta(float(data["strength"]), float(data["position"]))
            except KeyError as exc:
                raise InputError(f"delta potential requires a {exc} field")
        if kind == "expr":
            try:
                return cls.smooth(str(data["expr"]))
            except KeyError:
                raise InputError("expr potential requires an 'expr' field")
        raise InputError(f"unknown potential type {kind!r}")

    # -- pointwise access ---------------------------------------------------

    def callable(self, length: float) -> Callable:
        """Vectorized w(x) on [0, length] for non-delta variants; the
        reversed traversal is ``orient(pot, True, length).callable``."""
        if self.kind == "delta":
            raise InputError(
                "a delta potential has no pointwise values; use the analytic "
                "edge solution instead"
            )
        if self.kind == "zero":
            return lambda x: np.zeros_like(np.asarray(x, dtype=float))
        if self.kind == "constant":
            c = self.value
            return lambda x: np.full_like(np.asarray(x, dtype=float), c)
        return lambda x, _t=self.tree: eval_array(_t, np.asarray(x, dtype=float))

    def _samples(self, length: float, what: str) -> np.ndarray:
        """w on _DENSE_SAMPLES evenly spaced points of [0, length], the
        dense sampling behind max_value and the finiteness check; ``what``
        names the quantity a delta potential does not have."""
        if self.kind == "delta":
            raise InputError(f"{what} is undefined for a delta potential")
        return self.callable(length)(np.linspace(0.0, length, _DENSE_SAMPLES))

    def validate_for_length(self, length: float) -> None:
        if self.kind == "delta" and self.position > length:
            raise InputError(
                f"delta position {self.position} exceeds edge length {length}"
            )
        if self.kind == "smooth":
            if not np.all(np.isfinite(self._samples(length, ""))):
                raise InputError(
                    f"potential {self.source!r} is not finite on [0, {length}]"
                )

    # -- maximum and integral (dense sampling) ------------------------------

    def max_value(self, length: float) -> float:
        """Largest (signed) value of w on [0, length]."""
        return float(np.max(self._samples(length, "pointwise maximum")))

    def abs_integral(self, length: float) -> float:
        """The integral of |w| over [0, length], as length times the mean of
        |w| at the dense samples."""
        return length * float(np.mean(np.abs(self._samples(length, "pointwise integral"))))


def orient(pot: Potential, reverse: bool, length: float) -> Potential:
    """The potential as seen by a directed traversal of the edge."""
    if not reverse:
        return pot
    if pot.kind == "delta":
        return Potential.delta(pot.strength, length - pot.position)
    if pot.kind == "smooth":
        return Potential.smooth(substitute_reversed(pot.tree, length))
    return pot

