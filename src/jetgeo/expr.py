"""Symbolic expression trees over named real variables.

Small, self-contained computer algebra core: parsing, differentiation,
lightweight simplification, compilation to numpy lambdas, and a seeded
sampling oracle that decides whether two expressions agree as functions on a
box. The tests keep a tree-walking interpreter, `tests/reference.py`, as the
reference for the compiled path.

The fields of a node never change after construction, and every operation
is a pure function of them. A compound node also keeps its own results of
`simplify` and `_diff` (one per variable) in two slots of `Expr`, outside
its fields, so they take no part in `==`, `hash` or `repr`. A subtree that
differentiation copies into many trees stays one object, and each of these
walks reaches it once. Nodes may be shared across threads: two threads may
compute a result twice, but they get equal trees.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Sym",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Call",
    "FUNCTIONS",
    "ParseError",
    "EvaluationError",
    "parse_expression",
    "differentiate",
    "simplify",
    "substitute",
    "free_symbols",
    "to_string",
    "compile_expr",
    "sample_points",
    "sample_deviation",
    "DEFAULT_SAMPLES",
]

Bindings = Mapping[str, float]
Interval = tuple[float, float]
Box = Mapping[str, Interval]

#: sample count of the equivalence oracle
DEFAULT_SAMPLES = 32


class ParseError(ValueError):
    """Raised for malformed expression text. Carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class EvaluationError(ArithmeticError):
    """Raised when numeric evaluation hits an unbound symbol or a singularity."""


@dataclass(frozen=True)
class Expr:
    """Base node. Arithmetic operators build new trees; ints/floats coerce."""

    # what `simplify` and `_diff` keep on a compound node: its simplified
    # form, and its unsimplified derivatives by variable. Slots rather than
    # fields, so the nodes have no `__dict__`, and each result is stored by
    # one reference assignment: two threads that meet at a node at most
    # compute a result twice and keep one of two equal trees.
    __slots__ = ("_simplified", "_derivatives", "__weakref__")

    def __add__(self, other) -> "Expr":
        return Add(self, _coerce(other))

    def __radd__(self, other) -> "Expr":
        return Add(_coerce(other), self)

    def __sub__(self, other) -> "Expr":
        return Sub(self, _coerce(other))

    def __rsub__(self, other) -> "Expr":
        return Sub(_coerce(other), self)

    def __mul__(self, other) -> "Expr":
        return Mul(self, _coerce(other))

    def __rmul__(self, other) -> "Expr":
        return Mul(_coerce(other), self)

    def __truediv__(self, other) -> "Expr":
        return Div(self, _coerce(other))

    def __rtruediv__(self, other) -> "Expr":
        return Div(_coerce(other), self)

    def __pow__(self, exponent) -> "Expr":
        if not isinstance(exponent, int):
            raise TypeError("exponents must be integers")
        return Pow(self, exponent)

    def __neg__(self) -> "Expr":
        return Neg(self)

    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True, slots=True)
class Num(Expr):
    value: float


@dataclass(frozen=True, slots=True)
class Sym(Expr):
    name: str


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, slots=True)
class Call(Expr):
    func: str
    arg: Expr


FUNCTIONS: Mapping[str, Callable[[float], float]] = {
    "sqrt": math.sqrt,
    "exp": math.exp,
    "log": math.log,
    "sin": math.sin,
    "cos": math.cos,
}


def _coerce(value: Union[Expr, int, float]) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Num(float(value))
    raise TypeError(f"cannot use {type(value).__name__} as an expression")


# ---------------------------------------------------------------------------
# tokenizer / parser
#
# expr   := term (('+'|'-') term)*
# term   := factor (('*'|'/') factor)*
# factor := '-' factor | base ('^' integer)?
# base   := number | ident | ident '(' expr ')' | '(' expr ')'


@dataclass(frozen=True)
class _Token:
    kind: str  # NUM, IDENT, OP, END
    text: str
    pos: int


_OPS = set("+-*/^()")


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == ".":
                i += 1
                if i >= n or not text[i].isdigit():
                    raise ParseError("digit expected after decimal point", i)
                while i < n and text[i].isdigit():
                    i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            tokens.append(_Token("NUM", text[start:i], start))
            continue
        if ch.isalpha():
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("IDENT", text[start:i], start))
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("END", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], known: frozenset[str] | None):
        self.tokens = tokens
        self.i = 0
        self.known = known

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "END":
            raise ParseError(f"unexpected {tok.text!r}", tok.pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.factor()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            return Neg(self.factor())
        e = self.base()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            return Pow(e, self.integer())
        return e

    def integer(self) -> int:
        sign = 1
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            sign = -1
            tok = self.peek()
        if tok.kind != "NUM":
            raise ParseError("integer exponent expected", tok.pos)
        if any(c in tok.text for c in ".eE"):
            raise ParseError(f"exponent must be an integer literal, got {tok.text!r}", tok.pos)
        self.advance()
        return sign * int(tok.text)

    def base(self) -> Expr:
        tok = self.advance()
        if tok.kind == "NUM":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"number {tok.text!r} overflows a double", tok.pos)
            return Num(value)
        if tok.kind == "IDENT":
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(f"unknown function {tok.text!r}", tok.pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            if self.known is not None and tok.text not in self.known:
                raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
            return Sym(tok.text)
        if tok.kind == "OP" and tok.text == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if tok.kind == "END":
            raise ParseError("unexpected end of input", tok.pos)
        raise ParseError(f"unexpected {tok.text!r}", tok.pos)


def parse_expression(text: str, known_symbols: Sequence[str] | None = None) -> Expr:
    """Parse text with standard precedence (^ above unary minus above */ above +-).

    When known_symbols is given, any other identifier is rejected.
    """
    known = frozenset(known_symbols) if known_symbols is not None else None
    return _Parser(_tokenize(text), known).parse()


# ---------------------------------------------------------------------------
# printing


def _format_number(v: float) -> str:
    f = float(v)
    if f.is_integer() and abs(f) < 1e16:
        return str(int(f))
    return repr(f)


# minimum context precedence at which a node still prints without parentheses
_PREC_SUM = 1
_PREC_PRODUCT = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 9


def _prec(e: Expr) -> int:
    if isinstance(e, (Add, Sub)):
        return _PREC_SUM
    if isinstance(e, (Mul, Div)):
        return _PREC_PRODUCT
    if isinstance(e, Neg):
        return _PREC_NEG
    if isinstance(e, Num) and e.value < 0:
        return _PREC_NEG
    if isinstance(e, Pow):
        return _PREC_POW
    return _PREC_ATOM


def _fmt(e: Expr, ctx: int) -> str:
    if isinstance(e, Num):
        s = _format_number(e.value)
    elif isinstance(e, Sym):
        s = e.name
    elif isinstance(e, Neg):
        s = "-" + _fmt(e.arg, _PREC_NEG)
    elif isinstance(e, Add):
        s = f"{_fmt(e.left, _PREC_SUM)} + {_fmt(e.right, _PREC_PRODUCT)}"
    elif isinstance(e, Sub):
        s = f"{_fmt(e.left, _PREC_SUM)} - {_fmt(e.right, _PREC_PRODUCT)}"
    elif isinstance(e, Mul):
        s = f"{_fmt(e.left, _PREC_PRODUCT)}*{_fmt(e.right, _PREC_NEG)}"
    elif isinstance(e, Div):
        s = f"{_fmt(e.left, _PREC_PRODUCT)}/{_fmt(e.right, _PREC_NEG + 1)}"
    elif isinstance(e, Pow):
        s = f"{_fmt(e.base, _PREC_ATOM)}^{e.exponent}"
    elif isinstance(e, Call):
        return f"{e.func}({_fmt(e.arg, 0)})"
    else:
        raise TypeError(f"not an expression node: {e!r}")
    return f"({s})" if _prec(e) < ctx else s


def to_string(e: Expr) -> str:
    """Render in the input grammar; reparsing gives a numerically equal tree."""
    return _fmt(e, 0)


# ---------------------------------------------------------------------------
# free symbols / substitution


def free_symbols(e: Expr) -> frozenset[str]:
    if isinstance(e, Num):
        return frozenset()
    if isinstance(e, Sym):
        return frozenset((e.name,))
    if isinstance(e, Neg):
        return free_symbols(e.arg)
    if isinstance(e, (Add, Sub, Mul, Div)):
        return free_symbols(e.left) | free_symbols(e.right)
    if isinstance(e, Pow):
        return free_symbols(e.base)
    if isinstance(e, Call):
        return free_symbols(e.arg)
    raise TypeError(f"not an expression node: {e!r}")


def substitute(e: Expr, replacements: Mapping[str, Union[Expr, float, int]]) -> Expr:
    """Replace symbols by expressions or numbers. Does not simplify."""
    if isinstance(e, Num):
        return e
    if isinstance(e, Sym):
        if e.name in replacements:
            return _coerce(replacements[e.name])
        return e
    if isinstance(e, Neg):
        return Neg(substitute(e.arg, replacements))
    if isinstance(e, (Add, Sub, Mul, Div)):
        return type(e)(substitute(e.left, replacements), substitute(e.right, replacements))
    if isinstance(e, Pow):
        return Pow(substitute(e.base, replacements), e.exponent)
    if isinstance(e, Call):
        return Call(e.func, substitute(e.arg, replacements))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# differentiation


def differentiate(e: Expr, var: str) -> Expr:
    """Partial derivative by the sum/product/quotient/chain/integer-power rules."""
    return simplify(_diff(e, var))


def _diff(e: Expr, var: str) -> Expr:
    """The unsimplified derivative, kept on a compound node per variable."""
    if isinstance(e, Num):
        return Num(0.0)
    if isinstance(e, Sym):
        return Num(1.0) if e.name == var else Num(0.0)
    # the rule runs before any store, so a non-node raises its TypeError
    derivatives = getattr(e, "_derivatives", None)
    if derivatives is None:
        found = _diff_rule(e, var)
        object.__setattr__(e, "_derivatives", {var: found})
        return found
    found = derivatives.get(var)
    if found is None:
        found = derivatives[var] = _diff_rule(e, var)
    return found


def _diff_rule(e: Expr, var: str) -> Expr:
    if isinstance(e, Neg):
        return Neg(_diff(e.arg, var))
    if isinstance(e, Add):
        return Add(_diff(e.left, var), _diff(e.right, var))
    if isinstance(e, Sub):
        return Sub(_diff(e.left, var), _diff(e.right, var))
    if isinstance(e, Mul):
        return Add(Mul(_diff(e.left, var), e.right), Mul(e.left, _diff(e.right, var)))
    if isinstance(e, Div):
        num = Sub(Mul(_diff(e.left, var), e.right), Mul(e.left, _diff(e.right, var)))
        return Div(num, Pow(e.right, 2))
    if isinstance(e, Pow):
        if e.exponent == 0:
            return Num(0.0)
        return Mul(Mul(Num(float(e.exponent)), Pow(e.base, e.exponent - 1)), _diff(e.base, var))
    if isinstance(e, Call):
        inner = _diff(e.arg, var)
        if e.func == "sqrt":
            return Div(inner, Mul(Num(2.0), Call("sqrt", e.arg)))
        if e.func == "exp":
            return Mul(Call("exp", e.arg), inner)
        if e.func == "log":
            return Div(inner, e.arg)
        if e.func == "sin":
            return Mul(Call("cos", e.arg), inner)
        if e.func == "cos":
            return Neg(Mul(Call("sin", e.arg), inner))
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# simplification


def _is_zero(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 0.0


def _is_one(e: Expr) -> bool:
    return isinstance(e, Num) and e.value == 1.0


def _folded(value: float, unfolded: Expr) -> Expr:
    """The folded constant, or the unfolded node when the constant overflows."""
    return Num(value) if math.isfinite(value) else unfolded


def simplify(e: Expr) -> Expr:
    """Constant folding and identity elimination; no canonical form is attempted.

    The result is numerically equivalent to the input wherever the input is
    defined. Constants are folded only to finite values, so the result prints
    in the input grammar. A compound node keeps its result, so a subtree
    shared by many trees is simplified once.
    """
    if isinstance(e, (Num, Sym)):
        return e
    found = getattr(e, "_simplified", None)
    if found is None:
        found = _simplify_rule(e)
        object.__setattr__(e, "_simplified", found)
    return found


def _simplify_rule(e: Expr) -> Expr:
    if isinstance(e, Neg):
        arg = simplify(e.arg)
        if isinstance(arg, Neg):
            return arg.arg
        if isinstance(arg, Num):
            return Num(0.0 if arg.value == 0.0 else -arg.value)
        if isinstance(arg, Sub):
            return Sub(arg.right, arg.left)
        if isinstance(arg, Mul) and isinstance(arg.left, Num):
            return simplify(Mul(Num(-arg.left.value), arg.right))
        return Neg(arg)
    if isinstance(e, Add):
        l, r = simplify(e.left), simplify(e.right)
        if _is_zero(l):
            return r
        if _is_zero(r):
            return l
        if isinstance(l, Num) and isinstance(r, Num):
            return _folded(l.value + r.value, Add(l, r))
        return Add(l, r)
    if isinstance(e, Sub):
        l, r = simplify(e.left), simplify(e.right)
        if _is_zero(r):
            return l
        if _is_zero(l):
            return simplify(Neg(r))
        if l == r:
            return Num(0.0)
        if isinstance(l, Num) and isinstance(r, Num):
            return _folded(l.value - r.value, Sub(l, r))
        return Sub(l, r)
    if isinstance(e, Mul):
        l, r = simplify(e.left), simplify(e.right)
        if _is_zero(l) or _is_zero(r):
            return Num(0.0)
        if _is_one(l):
            return r
        if _is_one(r):
            return l
        if isinstance(l, Num) and isinstance(r, Num):
            return _folded(l.value * r.value, Mul(l, r))
        # sign pushing; exact in IEEE arithmetic
        if isinstance(l, Neg) and isinstance(r, Neg):
            return simplify(Mul(l.arg, r.arg))
        if isinstance(l, Num) and isinstance(r, Neg):
            return simplify(Mul(Num(-l.value), r.arg))
        if isinstance(l, Neg) and isinstance(r, Num):
            return simplify(Mul(l.arg, Num(-r.value)))
        return Mul(l, r)
    if isinstance(e, Div):
        l, r = simplify(e.left), simplify(e.right)
        if _is_one(r):
            return l
        if _is_zero(l) and not _is_zero(r):
            return Num(0.0)
        if isinstance(l, Num) and isinstance(r, Num) and r.value != 0.0:
            return _folded(l.value / r.value, Div(l, r))
        return Div(l, r)
    if isinstance(e, Pow):
        base = simplify(e.base)
        if e.exponent == 0:
            return Num(1.0)
        if e.exponent == 1:
            return base
        if isinstance(base, Num) and not (base.value == 0.0 and e.exponent < 0):
            try:
                return Num(float(base.value**e.exponent))
            except OverflowError:
                pass
        return Pow(base, e.exponent)
    if isinstance(e, Call):
        arg = simplify(e.arg)
        if isinstance(arg, Num):
            try:
                return Num(FUNCTIONS[e.func](arg.value))
            except (ValueError, OverflowError):
                pass
        return Call(e.func, arg)
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# compilation to plain Python callables


def _emit(e: Expr, names: Mapping[str, str]) -> str:
    if isinstance(e, Num):
        text = repr(float(e.value))
        return f"({text})" if text.startswith("-") else text
    if isinstance(e, Sym):
        return names[e.name]
    if isinstance(e, Neg):
        return f"(-{_emit(e.arg, names)})"
    if isinstance(e, Add):
        return f"({_emit(e.left, names)} + {_emit(e.right, names)})"
    if isinstance(e, Sub):
        return f"({_emit(e.left, names)} - {_emit(e.right, names)})"
    if isinstance(e, Mul):
        return f"({_emit(e.left, names)} * {_emit(e.right, names)})"
    if isinstance(e, Div):
        return f"({_emit(e.left, names)} / {_emit(e.right, names)})"
    if isinstance(e, Pow):
        return f"({_emit(e.base, names)} ** {e.exponent})"
    if isinstance(e, Call):
        return f"_lib.{e.func}({_emit(e.arg, names)})"
    raise TypeError(f"not an expression node: {e!r}")


def compile_expr(
    exprs: Sequence[Expr],
    args: Sequence[str],
    fixed: Bindings | None = None,
) -> Callable[..., tuple]:
    """Compile a family of expressions to one positional-argument lambda that
    returns a tuple, one value per expression, in order: the one runtime
    evaluator.

    With `fixed`, each expression is first bound and simplified,
    `simplify(substitute(e, fixed))`, so the bound constants fold; without
    it, the expressions are emitted as given. Functions come from numpy, so
    array arguments evaluate a whole batch of points in one call and follow
    numpy's error state; Python float operands raise ZeroDivisionError or
    OverflowError as Python does. The tests compare it with the
    tree-walking interpreter of `tests/reference.py`. Symbols map to positional slots. A tree too deep for
    Python's parser or compiler is a ValueError.
    """
    if fixed is not None:
        exprs = [simplify(substitute(e, fixed)) for e in exprs]
    names = {name: f"_a{i}" for i, name in enumerate(args)}
    try:
        body = "".join(f"{_emit(e, names)}, " for e in exprs)
    except KeyError as exc:
        raise ValueError(f"expression uses a symbol not in argument list: {exc}") from None
    source = f"lambda {', '.join(names[a] for a in args)}: ({body})"
    try:
        return eval(source, {"_lib": np})  # noqa: S307 - source is generated, not user input
    except (SyntaxError, RecursionError) as exc:
        # CPython's parser nests at most 200 parentheses, and its compiler recurses
        raise ValueError(f"expression nests too deeply to compile ({exc.args[0]})") from None


# ---------------------------------------------------------------------------
# sampling equivalence oracle


class _Batch(np.ndarray):
    """Sample columns raised to integer powers by the C library's pow, as in
    the tests' reference interpreter; numpy's `**` squares exactly and vectorizes other powers, so
    its last bit can differ."""

    def __pow__(self, exponent):
        return np.float_power(self, exponent)


def sample_points(
    probes: Sequence[Expr],
    domain: Box,
    samples: int,
    seed: int,
    fixed: Bindings | None = None,
) -> np.ndarray:
    """Seeded uniform draws from the box; row m holds every probe at draw m.

    Every draw binds `fixed` first and then each box symbol, in sorted order.
    The probes are compiled once, into one function with `fixed` bound, and
    evaluated on batches of draws as large as the shortfall, so the accepted
    draws are those of a point-by-point loop.
    Draws where a probe is singular or non-finite are redrawn; if more than
    90% of draws are rejected the box is unusable and an EvaluationError is
    raised rather than guessing.
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    consts = {k: float(v) for k, v in (fixed or {}).items() if k not in domain}
    missing = set().union(*map(free_symbols, probes)) - set(domain) - set(consts)
    if missing:
        raise ValueError(f"domain box missing symbols: {sorted(missing)}")
    for name, (lo, hi) in domain.items():
        if not (lo < hi):
            raise ValueError(f"degenerate interval for '{name}': [{lo}, {hi}]")
    rng = random.Random(seed)
    names = sorted(domain)
    # without constants the probes compile as written, so a comparison of
    # two forms of one expression is not simplified away
    fn = compile_expr(probes, names, consts or None)
    chunks = [np.empty((0, len(probes)))]
    accepted = draws = 0
    limit = 10 * samples
    while accepted < samples:
        if draws >= limit:
            raise EvaluationError(
                f"more than 90% of {draws} sample draws hit singularities"
            )
        batch = min(samples - accepted, limit - draws)
        draws += batch
        points = np.array([[rng.uniform(*domain[name]) for name in names] for _ in range(batch)])
        cols = points.T.view(_Batch)
        values = np.empty((batch, len(probes)))
        with np.errstate(all="ignore"):
            try:
                for i, value in enumerate(fn(*cols)):
                    values[:, i] = value
            except (ZeroDivisionError, OverflowError):
                values[:] = np.nan  # a constant subtree is singular at every draw
        chunks.append(values[np.isfinite(values).all(axis=1)])
        accepted += len(chunks[-1])
    return np.concatenate(chunks)


def sample_deviation(
    e1: Expr,
    e2: Expr,
    domain: Box,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> float:
    """Max of |e1 - e2| / (1 + max(|e1|, |e2|)) over sampled points of the box.

    Points where either expression is singular are redrawn (see
    `sample_points`).
    """
    return _deviation(*sample_points((e1, e2), domain, samples, seed).T)


def _deviation(v1: np.ndarray, v2: np.ndarray) -> float:
    """The `sample_deviation` of two columns of sampled values."""
    dev = np.abs(v1 - v2) / (1.0 + np.maximum(np.abs(v1), np.abs(v2)))
    return float(np.max(dev, initial=0.0))

