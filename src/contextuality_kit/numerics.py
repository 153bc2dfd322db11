"""Exact scalars, rational intervals, and the value-expression language.

All decision-making arithmetic in this package is exact: scalars are
arbitrary-precision rationals (``fractions.Fraction``).  Irrational
inputs such as ``-sqrt(3)/2`` never enter the solvers as floats.
Instead an expression is evaluated into a :class:`ScalarInterval`, a
pair of exact rational endpoints bracketing the true real value, and
every downstream verdict holds for the whole bracket: for every real
value inside it, the true one included, or else it is "indeterminate".

Expression grammar (normative for scenario files)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := NUMBER | '(' expr ')' | 'sqrt' '(' expr ')' | '-' factor

NUMBER is an integer or decimal literal; decimals are read as exact
rationals ("0.5" is 1/2, not a float).  A whole value written as an exact
literal, ``-?[0-9]+(/[0-9]+)?`` with a nonzero denominator, is read
directly as its point interval, with no parse or bracket walk.

Square roots are bracketed on dyadic grids of increasing resolution.
The grid schedule is fixed and independent of the requested tolerance,
which makes refinement monotone: asking for a smaller tolerance always
produces an interval nested inside the coarser one.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from math import isqrt, lcm

from ._record import Record
from .errors import EvaluationError, ExpressionError

#: Default bracket width for irrational constants: far below every
#: decision margin that occurs in the bundled scenarios (~0.41).
DEFAULT_BRACKET_TOLERANCE = Fraction(1, 10**12)

# Dyadic refinement schedule: scales 2^16, 2^32, ... up to 2^256.
_SCALE_STEP_BITS = 16
_MAX_SCALE_BITS = 256


#: The written forms of an exact scalar: an optionally signed integer or
#: ``p/q``.  ``Fraction`` alone would also take exponents, whose value
#: ("1e999999999") can cost unbounded time and memory to build.
_EXACT_SCALAR = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def scalar_from_string(text: str, name: str = "the value") -> Fraction:
    """Parse a "p/q" or integer string into an exact rational.

    Every refusal names the value ``name``: a non-string, a text that is
    not an integer or p/q and a zero denominator raise ValueError, and a
    number with more digits than the interpreter reads raises
    ExpressionError, as a scenario literal does.
    """
    if not isinstance(text, str):
        raise ValueError(
            f"exact scalars are written as strings such as '1/3', got {quoted(text)} for {name}"
        )
    if not _EXACT_SCALAR.fullmatch(text):
        raise ValueError(f"exact scalar {quoted(text)} for {name} is not an integer or p/q")
    try:
        return _literal(text, None, name)
    except ZeroDivisionError:
        raise ValueError(f"exact scalar {quoted(text)} for {name} has a zero denominator") from None


def format_scalar(value: Fraction) -> str:
    """Canonical "p/q" form (plain integer when the denominator is 1), of any length.

    ``str`` refuses an int of more digits than
    ``sys.get_int_max_str_digits()``; ``Decimal`` prints it in the
    same digits, whatever its length.
    """
    try:
        return str(value)
    except ValueError:
        p, q = (str(Decimal(part)) for part in (value.numerator, value.denominator))
        return p if q == "1" else f"{p}/{q}"


def quoted(value) -> str:
    """``value`` shown whole up to 80 characters, else its first 40 and its length.

    A string is shown by its repr; any other value by :func:`_text`,
    unquoted, so the number 3 and the string "3" stay apart.
    """
    show, text = (repr, value) if isinstance(value, str) else (str, _text(value))
    if len(text) <= 80:
        return show(text)
    return f"{show(text[:40])}… ({len(text)} characters)"


def _text(value) -> str:
    """``repr(value)``, with every int printed by ``format_scalar``.

    ``repr`` refuses an int past the interpreter's digit limit, which a
    document built in Python may hold; ``format_scalar`` prints any.
    """
    if type(value) is int:
        return format_scalar(value)
    if isinstance(value, (list, tuple)):  # a tuple reads as a list
        return "[" + ", ".join(map(_text, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_text(k)}: {_text(v)}" for k, v in value.items()) + "}"
    return repr(value)


def over_common_denominator(values) -> tuple[list[int], int]:
    """Ints n_i over the least d > 0 with n_i / d == values[i]; ints and Fractions mix."""
    d = lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


class ScalarInterval(Record):
    """Closed interval with exact rational endpoints, lo <= hi."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError(
                f"interval endpoints out of order: {format_scalar(lo)} > {format_scalar(hi)}"
            )
        self._set(lo, hi)

    @classmethod
    def point(cls, value) -> "ScalarInterval":
        v = Fraction(value)
        return cls(v, v)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def __neg__(self) -> "ScalarInterval":
        return ScalarInterval(-self.hi, -self.lo)

    def __add__(self, other: "ScalarInterval") -> "ScalarInterval":
        return ScalarInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "ScalarInterval") -> "ScalarInterval":
        return ScalarInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "ScalarInterval") -> "ScalarInterval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return ScalarInterval(min(products), max(products))

    def __truediv__(self, other: "ScalarInterval") -> "ScalarInterval":
        if other.lo <= 0 <= other.hi:
            if other.is_point:
                raise EvaluationError("division by zero")
            # The divisor bracket straddles zero; a finer bracket may
            # separate it from zero, so this failure is retriable.
            raise _Unresolved("division by an interval containing zero")
        inverses = (1 / other.lo, 1 / other.hi)
        return self * ScalarInterval(min(inverses), max(inverses))

    def __str__(self) -> str:
        if self.is_point:
            return format_scalar(self.lo)
        return f"[{format_scalar(self.lo)}, {format_scalar(self.hi)}]"


def as_interval(value) -> ScalarInterval:
    """``value`` itself when it is an interval, else the exact point interval."""
    if isinstance(value, ScalarInterval):
        return value
    return ScalarInterval.point(value)


class _Unresolved(EvaluationError):
    """Failure that a finer bracket may resolve (zero-straddling interval)."""


def _rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root when ``value`` is a perfect rational square."""
    p, q = value.numerator, value.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return Fraction(rp, rq)
    return None


def _sqrt_floor(value: Fraction, scale: int) -> Fraction:
    """floor(sqrt(value) * scale) / scale, computed exactly."""
    return Fraction(isqrt(value.numerator * scale * scale // value.denominator), scale)


def _sqrt_ceil(value: Fraction, scale: int) -> Fraction:
    num = value.numerator * scale * scale
    k = isqrt(num // value.denominator)
    if k * k * value.denominator == num:
        return Fraction(k, scale)
    return Fraction(k + 1, scale)


def interval_sqrt(iv: ScalarInterval, scale_bits: int) -> ScalarInterval:
    """Bracket sqrt over an interval on the dyadic grid 2^-scale_bits."""
    if iv.lo < 0:
        if iv.hi < 0:
            raise EvaluationError("negative radicand in sqrt")
        raise _Unresolved("sqrt of an interval extending below zero")
    if iv.is_point:
        exact = _rational_sqrt(iv.lo)
        if exact is not None:
            return ScalarInterval(exact, exact)
    scale = 1 << scale_bits
    return ScalarInterval(_sqrt_floor(iv.lo, scale), _sqrt_ceil(iv.hi, scale))


# --- expression trees -------------------------------------------------------


class Literal(Record):
    __slots__ = ("value",)


class Negate(Record):
    __slots__ = ("operand",)


class BinaryOp(Record):
    """``op`` is '+', '-', '*' or '/'."""

    __slots__ = ("op", "left", "right")


class Sqrt(Record):
    __slots__ = ("operand",)


ValueExpr = Literal | Negate | BinaryOp | Sqrt

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>[0-9]+(?:\.[0-9]+)?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/()]))"
)


def _literal(text: str, pos: int | None, name: str = "the literal") -> Fraction:
    """The number ``text``; one longer than ``int`` converts is refused at ``pos``."""
    try:
        return Fraction(text)
    except ValueError:
        raise ExpressionError(
            f"number too long: {name} has an integer of more than"
            f" {sys.get_int_max_str_digits()} digits, the most this interpreter"
            " reads; PYTHONINTMAXSTRDIGITS=0 in the environment lifts the limit",
            pos,
        ) from None


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ExpressionError(f"unexpected character {text[bad_at]!r}", bad_at)
        if match.group("number") is not None:
            tokens.append(("number", match.group("number"), match.start("number")))
        elif match.group("name") is not None:
            tokens.append(("name", match.group("name"), match.start("name")))
        else:
            tokens.append(("op", match.group("op"), match.start("op")))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.cursor = 0

    def peek(self):
        if self.cursor < len(self.tokens):
            return self.tokens[self.cursor]
        return ("eof", "", len(self.text))

    def advance(self):
        token = self.peek()
        self.cursor += 1
        return token

    def expect_op(self, symbol: str):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ExpressionError(f"expected {symbol!r}", pos)
        return self.advance()

    def parse(self) -> ValueExpr:
        expr = self.parse_expr()
        kind, value, pos = self.peek()
        if kind != "eof":
            raise ExpressionError(f"unexpected trailing input {value!r}", pos)
        return expr

    def parse_expr(self) -> ValueExpr:
        node = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinaryOp(value, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> ValueExpr:
        node = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinaryOp(value, node, self.parse_factor())
            else:
                return node

    def parse_factor(self) -> ValueExpr:
        kind, value, pos = self.peek()
        if kind == "number":
            self.advance()
            return Literal(_literal(value, pos))
        if kind == "name":
            if value != "sqrt":
                raise ExpressionError(f"unknown identifier {value!r}", pos)
            self.advance()
            self.expect_op("(")
            inner = self.parse_expr()
            self.expect_op(")")
            return Sqrt(inner)
        if kind == "op" and value == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect_op(")")
            return inner
        if kind == "op" and value == "-":
            self.advance()
            return Negate(self.parse_factor())
        raise ExpressionError(f"expected a value, got {value!r}" if value else "expected a value", pos)


def parse_value(text: str) -> ValueExpr:
    """Parse a value expression; raises ExpressionError with a position."""
    if not text or not text.strip():
        raise ExpressionError("empty expression", 0)
    return _Parser(text).parse()


def _evaluate_at_scale(expr: ValueExpr, scale_bits: int) -> ScalarInterval:
    if isinstance(expr, Literal):
        return ScalarInterval.point(expr.value)
    if isinstance(expr, Negate):
        return -_evaluate_at_scale(expr.operand, scale_bits)
    if isinstance(expr, Sqrt):
        return interval_sqrt(_evaluate_at_scale(expr.operand, scale_bits), scale_bits)
    if isinstance(expr, BinaryOp):
        left = _evaluate_at_scale(expr.left, scale_bits)
        right = _evaluate_at_scale(expr.right, scale_bits)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        return left / right
    raise TypeError(f"not a value expression: {expr!r}")


def evaluate(
    expr: ValueExpr, bracket_tolerance: Fraction = DEFAULT_BRACKET_TOLERANCE
) -> ScalarInterval:
    """Evaluate an expression into a bracketing interval.

    The result has exact rational endpoints, contains the true real
    value, and is at most ``bracket_tolerance`` wide.  Rational
    subexpressions evaluate exactly (zero width).  The dyadic grid
    schedule walks from coarse to fine until the width bound holds, so
    halving the tolerance can only shrink the returned interval.
    """
    if bracket_tolerance <= 0:
        raise ValueError("bracket tolerance must be positive")
    last_error = None
    for scale_bits in range(_SCALE_STEP_BITS, _MAX_SCALE_BITS + 1, _SCALE_STEP_BITS):
        try:
            result = _evaluate_at_scale(expr, scale_bits)
        except _Unresolved as err:
            last_error = err
            continue
        if result.width <= bracket_tolerance:
            return result
    if last_error is not None:
        raise EvaluationError(str(last_error))
    raise EvaluationError(
        f"could not bracket expression within tolerance {format_scalar(bracket_tolerance)}"
    )


#: A plain exact literal: an integer or ``p/q`` with q > 0, optionally
#: negated.  The grammar has no unary ``+``; a zero denominator is left
#: to the evaluator, which reports the division by zero.
_EXACT_LITERAL = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*)?")


def parse_and_evaluate(
    text: str, bracket_tolerance: Fraction = DEFAULT_BRACKET_TOLERANCE
) -> ScalarInterval:
    """Parse and evaluate a value expression.

    A plain exact literal is its own point interval, the value the
    evaluator gives it, and is returned without parsing.

    The parser and the evaluator recurse once per nesting level, so an
    expression nested deeper than the interpreter's recursion limit
    allows is refused with ExpressionError, like any other bad input.
    """
    if bracket_tolerance > 0 and _EXACT_LITERAL.fullmatch(text):
        value = _literal(text, 0)
        return ScalarInterval(value, value)
    try:
        return evaluate(parse_value(text), bracket_tolerance)
    except RecursionError:
        raise ExpressionError("expression is nested too deeply") from None
