import math
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, strategies as st

from contextuality_kit.errors import EvaluationError, ExpressionError
from contextuality_kit.numerics import (
    DEFAULT_BRACKET_TOLERANCE,
    ScalarInterval,
    evaluate,
    format_scalar,
    over_common_denominator,
    parse_and_evaluate,
    parse_value,
    scalar_from_string,
)


@given(st.lists(st.one_of(st.integers(-10**6, 10**6), st.fractions(max_denominator=10**6))))
@example([])
def test_over_common_denominator_is_exact_and_least(values):
    ints, d = over_common_denominator(values)
    assert d >= 1 and len(ints) == len(values)
    assert all(type(n) is int for n in ints)
    assert [Fraction(n, d) for n in ints] == list(values)
    assert math.gcd(d, *ints) == 1


def test_over_common_denominator_of_mixed_input():
    assert over_common_denominator([3, Fraction(1, 6), -2, Fraction(-5, 4)]) == (
        [36, 2, -24, -15],
        12,
    )
    assert over_common_denominator((Fraction(4, 2), 0)) == ([2, 0], 1)


class TestParser:
    def test_rational(self):
        assert parse_and_evaluate("1/2") == ScalarInterval.point(Fraction(1, 2))

    def test_decimal_is_exact(self):
        assert parse_and_evaluate("0.5") == ScalarInterval.point(Fraction(1, 2))

    def test_precedence(self):
        assert parse_and_evaluate("1 + 2 * 3") == ScalarInterval.point(7)
        assert parse_and_evaluate("(1 + 2) * 3") == ScalarInterval.point(9)

    def test_unary_minus(self):
        assert parse_and_evaluate("--3") == ScalarInterval.point(3)

    def test_negative_sqrt_expression(self):
        iv = parse_and_evaluate("-sqrt(3)/2")
        # both endpoints negative and squaring brackets 3/4 from both sides
        assert iv.hi < 0
        assert iv.lo**2 >= Fraction(3, 4) >= iv.hi**2
        assert iv.width <= DEFAULT_BRACKET_TOLERANCE

    def test_syntax_error_position(self):
        with pytest.raises(ExpressionError) as exc:
            parse_value("1 + * 2")
        assert exc.value.position == 4

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError) as exc:
            parse_value("sqr(3)")
        assert "sqr" in str(exc.value)

    def test_empty(self):
        with pytest.raises(ExpressionError):
            parse_value("   ")

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionError):
            parse_value("1 2")


@pytest.mark.parametrize(
    "text, value",
    [("3", 3), ("-1/2", Fraction(-1, 2)), ("+2/4", Fraction(1, 2)), ("0", 0)],
)
def test_exact_scalar_forms(text, value):
    assert scalar_from_string(text) == value


@pytest.mark.parametrize("text", ["1e999999999", "0.5", " 1", "1_000", "1/-2", "", "nan"])
def test_other_scalar_texts_are_refused(text):
    with pytest.raises(ValueError, match="not an integer or p/q"):
        scalar_from_string(text)


@pytest.mark.parametrize(
    "value, message",
    [
        (0.5, "got 0.5 for atom '+-'"),
        ("x" * 5000, "(5000 characters) for atom '+-' is not an integer or p/q"),
        ("1/0", "exact scalar '1/0' for atom '+-' has a zero denominator"),
    ],
)
def test_scalar_errors_name_the_value(value, message):
    with pytest.raises(ValueError) as error:
        scalar_from_string(value, "atom '+-'")
    assert message in str(error.value)
    assert len(str(error.value)) < 200


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter converts integer strings of any length",
)
@pytest.mark.parametrize("template", ["{}", "-1/{}", "{}/3"])
def test_scalar_over_the_digit_limit_is_refused(template):
    text = template.format("1" * (sys.get_int_max_str_digits() + 1))
    message = "^number too long: the value has .*PYTHONINTMAXSTRDIGITS"
    with pytest.raises(ExpressionError, match=message):
        scalar_from_string(text)


@pytest.mark.parametrize(
    "value, text",
    [
        (10**5000, "1" + "0" * 5000),
        (Fraction(-(10**5000 + 1), 3), "-1" + "0" * 4999 + "1/3"),
        (Fraction(7, 10**5000), "7/1" + "0" * 5000),
        (ScalarInterval(Fraction(1, 10**5000), Fraction(1, 3)), "[1/1" + "0" * 5000 + ", 1/3]"),
    ],
    ids=["int", "numerator", "denominator", "interval"],
)
def test_exact_values_print_in_full_at_any_length(value, text):
    printed = str(value) if isinstance(value, ScalarInterval) else format_scalar(value)
    assert printed == text


def _outcome(call, *args):
    """A call's value, or the type and message of what it raised."""
    try:
        return call(*args)
    except Exception as err:
        return type(err), str(err)


#: Exact literals and their near misses: signs, leading zeros, zero
#: denominators, and a few texts only the parser accepts.
_literal_texts = st.one_of(
    st.from_regex(r"[+-]?[0-9]{1,5}(/[0-9]{1,5})?", fullmatch=True),
    st.from_regex(r"-?0{0,3}[0-9]{1,3}/0{1,4}", fullmatch=True),
    st.from_regex(r" ?--?[0-9]{1,3}(\.[0-9])?(/[0-9]{1,2})? ?", fullmatch=True),
)


@given(_literal_texts, st.sampled_from([DEFAULT_BRACKET_TOLERANCE, Fraction(1), Fraction(0)]))
@example("-0", DEFAULT_BRACKET_TOLERANCE)
@example("007/0040", DEFAULT_BRACKET_TOLERANCE)
@example("3/000", DEFAULT_BRACKET_TOLERANCE)
@example("+1/2", DEFAULT_BRACKET_TOLERANCE)
@example("1/2", Fraction(0))
def test_exact_literals_read_as_the_evaluator_reads_them(text, tolerance):
    want = _outcome(lambda: evaluate(parse_value(text), tolerance))
    assert _outcome(parse_and_evaluate, text, tolerance) == want


def test_literal_path_keeps_the_grammar_and_its_errors():
    with pytest.raises(ExpressionError):
        parse_and_evaluate("+1/2")
    with pytest.raises(EvaluationError, match="^division by zero$"):
        parse_and_evaluate("1/0")
    assert parse_and_evaluate("-007/0140") == ScalarInterval.point(Fraction(-1, 20))


class TestEvaluate:
    def test_rational_sum_exact(self):
        assert parse_and_evaluate("1/3 + 1/6") == ScalarInterval.point(Fraction(1, 2))

    def test_sqrt3_bracket(self):
        iv = parse_and_evaluate("sqrt(3)", Fraction(1, 10**12))
        assert iv.width <= Fraction(1, 10**12)
        # squared-endpoint oracle: the bracket straddles 3 when squared
        assert iv.lo**2 <= 3 <= iv.hi**2
        # and agrees with the classic digits 1.7320508075688772...
        digits = Fraction(17320508075688772, 10**16)
        assert abs(iv.lo - digits) <= Fraction(1, 10**12)

    def test_perfect_square_exact(self):
        assert parse_and_evaluate("sqrt(4)") == ScalarInterval.point(2)
        assert parse_and_evaluate("sqrt(9/16)") == ScalarInterval.point(Fraction(3, 4))

    def test_negative_radicand(self):
        with pytest.raises(EvaluationError):
            parse_and_evaluate("sqrt(-1)")

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            parse_and_evaluate("1/0")

    def test_division_by_exact_zero_subexpression(self):
        with pytest.raises(EvaluationError):
            parse_and_evaluate("1/(sqrt(4)-2)")

    def test_nearly_zero_divisor_refines(self):
        # the divisor is ~2e-4 wide of zero; coarse brackets straddle it
        iv = parse_and_evaluate("1/(sqrt(2) - 1.414)")
        assert iv.width <= DEFAULT_BRACKET_TOLERANCE
        # exact containment oracle: inverting the endpoints must bracket
        # sqrt(2), i.e. (1/hi + 1.414)^2 <= 2 <= (1/lo + 1.414)^2
        assert (1 / iv.hi + Fraction(1414, 1000)) ** 2 <= 2
        assert (1 / iv.lo + Fraction(1414, 1000)) ** 2 >= 2

    def test_straddling_radicand_never_resolves(self):
        # sqrt(2) - sqrt(2) brackets zero at every scale, so the sign of
        # the radicand can never be established
        with pytest.raises(EvaluationError):
            parse_and_evaluate("sqrt(sqrt(2) - sqrt(2))")

    def test_monotone_refinement(self):
        coarse = parse_and_evaluate("sqrt(3)/7 + sqrt(2)", Fraction(1, 10**6))
        fine = parse_and_evaluate("sqrt(3)/7 + sqrt(2)", Fraction(1, 2 * 10**6))
        assert coarse.lo <= fine.lo and fine.hi <= coarse.hi


_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=64
)


@given(_rationals, _rationals)
def test_point_arithmetic_is_exact(a, b):
    ia, ib = ScalarInterval.point(a), ScalarInterval.point(b)
    assert (ia + ib) == ScalarInterval.point(a + b)
    assert (ia - ib) == ScalarInterval.point(a - b)
    assert (ia * ib) == ScalarInterval.point(a * b)
    if b != 0:
        assert (ia / ib) == ScalarInterval.point(a / b)


@given(_rationals, _rationals, _rationals)
def test_point_arithmetic_associative(a, b, c):
    pa, pb, pc = map(ScalarInterval.point, (a, b, c))
    assert ((pa + pb) + pc) == (pa + (pb + pc))
    assert ((pa * pb) * pc) == (pa * (pb * pc))


_expr_leaf = st.one_of(
    st.integers(min_value=0, max_value=40).map(str),
    st.fractions(min_value=0, max_value=9, max_denominator=12).map(
        lambda f: f"({f.numerator}/{f.denominator})"
    ),
)


@st.composite
def _expressions(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        return draw(_expr_leaf)
    op = draw(st.sampled_from(["+", "-", "*", "sqrt", "neg"]))
    if op == "sqrt":
        inner = draw(_expressions(depth + 1))
        return f"sqrt({inner})"
    if op == "neg":
        inner = draw(_expressions(depth + 1))
        return f"-({inner})"
    left = draw(_expressions(depth + 1))
    right = draw(_expressions(depth + 1))
    return f"({left} {op} {right})"


@given(_expressions(), st.integers(min_value=4, max_value=10))
def test_monotone_refinement_property(text, exponent):
    try:
        coarse = parse_and_evaluate(text, Fraction(1, 10**exponent))
        fine = parse_and_evaluate(text, Fraction(1, 2 * 10**exponent))
    except EvaluationError:
        return
    assert coarse.lo <= fine.lo
    assert fine.hi <= coarse.hi


@given(_expressions())
def test_contains_high_precision_value(text):
    # mpmath at 60 digits is the independent oracle for containment
    try:
        iv = parse_and_evaluate(text)
    except EvaluationError:
        return  # negative radicand under a sqrt; nothing to check
    with mpmath.workdps(60):
        try:
            oracle = _mp_eval(parse_value(text))
        except ValueError:
            return
        # one-ulp slop: endpoint conversion and oracle rounding differ
        eps = mpmath.mpf("1e-45")
        lo = mpmath.mpf(iv.lo.numerator) / mpmath.mpf(iv.lo.denominator)
        hi = mpmath.mpf(iv.hi.numerator) / mpmath.mpf(iv.hi.denominator)
        assert lo - oracle <= eps
        assert oracle - hi <= eps


def _mp_eval(expr):
    from contextuality_kit.numerics import BinaryOp, Literal, Negate, Sqrt

    if isinstance(expr, Literal):
        return mpmath.mpf(expr.value.numerator) / mpmath.mpf(expr.value.denominator)
    if isinstance(expr, Negate):
        return -_mp_eval(expr.operand)
    if isinstance(expr, Sqrt):
        inner = _mp_eval(expr.operand)
        if inner < 0:
            raise ValueError("negative radicand")
        return mpmath.sqrt(inner)
    if isinstance(expr, BinaryOp):
        left, right = _mp_eval(expr.left), _mp_eval(expr.right)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        if expr.op == "*":
            return left * right
        return left / right
    raise TypeError(expr)
