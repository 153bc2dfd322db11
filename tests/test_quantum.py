import math
from fractions import Fraction

import pytest

from contextuality_kit.errors import SizeLimitError, SpaceError
from contextuality_kit.numerics import parse_and_evaluate
from contextuality_kit.quantum import (
    StateVector,
    build_operator,
    expectation_value,
    ghz_expectations,
    ghz_operators,
    ghz_state_alternate,
    ghz_state_mermin,
    singlet_correlation,
    singlet_exact_form,
)

ATOL = 1e-12


def compose(*ops):
    """The (image, quarter turns) of the product ops[0]·ops[1]·… on each basis state."""
    columns = []
    for basis in range(ops[0].dimension):
        image, turns = basis, 0
        for op in reversed(ops):
            image, step = op.apply(image)
            turns += step
        columns.append((image, turns % 4))
    return columns


class TestOperators:
    def test_single_x_shape(self):
        op = build_operator(["x"])
        assert op.dimension == 2
        assert [op.apply(b) for b in range(2)] == [(1, 0), (0, 0)]
        assert compose(op, op) == [(0, 0), (1, 0)]

    def test_xyy_hermitian_involution(self):
        op = build_operator(["x", "y", "y"])
        assert op.dimension == 8
        for basis in range(8):
            image, turns = op.apply(basis)
            # Hermitian: the entry at (basis, image) is the conjugate i^-k.
            assert op.apply(image) == (basis, -turns % 4)
        assert compose(op, op) == [(b, 0) for b in range(8)]

    def test_all_four_square_to_identity(self):
        for op in ghz_operators().values():
            assert compose(op, op) == [(b, 0) for b in range(8)]

    def test_operator_identity(self):
        ops = ghz_operators()
        minus_d = [(image, (turns + 2) % 4) for image, turns in compose(ops["D"])]
        assert compose(ops["A"], ops["B"], ops["C"]) == minus_d

    def test_unknown_component(self):
        with pytest.raises(SpaceError):
            build_operator(["x", "q"])

    def test_particle_cap(self):
        with pytest.raises(SizeLimitError):
            build_operator(["x"] * 11)


class TestExpectations:
    def test_identity_on_any_state(self):
        state = ghz_state_mermin()
        identity = build_operator(["i", "i", "i"])
        assert expectation_value(state, identity) == 1

    def test_mermin_state_values(self):
        values = ghz_expectations(ghz_state_mermin())
        assert all(type(v) is Fraction for v in values.values())
        assert tuple(values.values()) == (1, 1, 1, -1)

    def test_alternate_state_product_relation(self):
        values = ghz_expectations(ghz_state_alternate())
        assert tuple(values.values()) == (1, 1, -1, 1)
        assert values["A"] * values["B"] * values["C"] == -values["D"]

    def test_both_states_product_relation(self):
        for state in (ghz_state_mermin(), ghz_state_alternate()):
            values = ghz_expectations(state)
            assert values["A"] * values["B"] * values["C"] == -values["D"]

    def test_builtin_states_are_gaussian_integer_pairs(self):
        mermin = ghz_state_mermin().amplitudes
        assert {b: a for b, a in enumerate(mermin) if a != (0, 0)} == {0b000: (1, 0), 0b111: (-1, 0)}
        alternate = ghz_state_alternate().amplitudes
        assert {b: a for b, a in enumerate(alternate) if a != (0, 0)} == {0b001: (1, 0), 0b110: (1, 0)}

    def test_unnormalized_vector_stands_for_its_direction(self):
        # (1 + 2i)|0> + 3|1> on x: 2·Re(conj(3)·(1 + 2i)) / (1 + 4 + 9) = 6/14.
        state = StateVector((1 + 2j, 3))
        assert expectation_value(state, build_operator(["x"])) == Fraction(3, 7)
        assert StateVector(((1, 2), (3, 0))) == state

    def test_dimension_mismatch(self):
        state = StateVector((1, 0))
        with pytest.raises(SpaceError):
            expectation_value(state, build_operator(["x", "x"]))

    def test_non_gaussian_integer_or_zero_rejected(self):
        for amplitudes in (
            (0.5, 0.5), (1, 1.5j), (Fraction(1, 2), 0), ("1", 0), ((1, 2, 3), 0), (0, 0), (0j,),
        ):
            with pytest.raises(ValueError):
                StateVector(amplitudes)


class TestSingletCorrelation:
    def test_thirty_degrees(self):
        assert abs(singlet_correlation(math.radians(30)) + math.sqrt(3) / 2) <= ATOL

    def test_sixty_degrees(self):
        assert abs(singlet_correlation(math.radians(60)) + 0.5) <= ATOL

    def test_zero_angle(self):
        assert singlet_correlation(0.0) == -1.0

    def test_sweep_identity(self):
        for k in range(0, 181, 5):
            theta = math.radians(k)
            assert abs(singlet_correlation(theta) + math.cos(theta)) <= ATOL


#: The forms printed before the table, at the 16 integer angles in
#: [0, 360) where a float search found one.
EARLIER_FORMS = {
    0: "-1", 30: "-1/2*sqrt(3)", 45: "-1/2*sqrt(2)", 60: "-1/2", 90: "0",
    120: "1/2", 135: "1/2*sqrt(2)", 150: "1/2*sqrt(3)", 180: "1",
    210: "1/2*sqrt(3)", 225: "1/2*sqrt(2)", 240: "1/2", 270: "0",
    300: "-1/2", 315: "-1/2*sqrt(2)", 330: "-1/2*sqrt(3)",
}

TABLE_ANGLES = sorted({d for d in range(-720, 721) if d % 15 == 0 or d % 36 == 0})


class TestSingletExactForm:
    @pytest.mark.parametrize("degrees", TABLE_ANGLES)
    def test_form_brackets_the_correlation(self, degrees):
        form = singlet_exact_form(float(degrees))
        assert form is not None
        bracket = parse_and_evaluate(form)
        correlation = -math.cos(math.radians(degrees))
        assert float(bracket.lo) - ATOL <= correlation <= float(bracket.hi) + ATOL

    def test_earlier_forms_are_kept(self):
        for degrees, form in EARLIER_FORMS.items():
            assert singlet_exact_form(float(degrees)) == form

    def test_new_forms(self):
        assert singlet_exact_form(15.0) == "-(sqrt(6)+sqrt(2))/4"
        assert singlet_exact_form(36.0) == "-(1+sqrt(5))/4"
        assert singlet_exact_form(108.0) == "(sqrt(5)-1)/4"
        assert singlet_exact_form(-75.0) == "-(sqrt(6)-sqrt(2))/4"

    def test_every_integer_angle_off_the_table_is_null(self):
        for degrees in range(-720, 721):
            if degrees not in TABLE_ANGLES:
                assert singlet_exact_form(float(degrees)) is None, degrees

    @pytest.mark.parametrize("degrees", [22.5, 0.001, 30.0000001, -1e-20, 1e-300])
    def test_near_a_table_angle_is_null(self, degrees):
        assert singlet_exact_form(degrees) is None
