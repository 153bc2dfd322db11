import pytest
from hypothesis import given, strategies as st

from contextuality_kit.errors import SizeLimitError, SpaceError
from contextuality_kit.event_space import (
    EventMask,
    _on_atoms,
    build_space,
    moment_coefficients,
    moment_mask,
    sign_event,
)


@pytest.fixture
def abc():
    return build_space(["A", "B", "C"])


class TestBuildSpace:
    def test_three_variables(self, abc):
        assert abc.atom_count == 8
        assert abc.signature(0) == "+++"

    def test_single_variable(self):
        space = build_space(["X"])
        assert [space.signature(a) for a in space.atoms()] == ["+", "-"]

    def test_duplicate_name_rejected(self):
        with pytest.raises(SpaceError):
            build_space(["A", "A"])

    def test_empty_rejected(self):
        with pytest.raises(SpaceError):
            build_space([])

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            build_space([f"v{i}" for i in range(17)])
        build_space([f"v{i}" for i in range(16)])  # at the cap is fine

    def test_unknown_variable(self, abc):
        with pytest.raises(SpaceError):
            abc.index_of("Q")


class TestSignEvent:
    def test_first_variable_plus(self, abc):
        assert sign_event(abc, "A", 1).atoms() == [0, 1, 2, 3]

    def test_last_variable_minus(self, abc):
        assert sign_event(abc, "C", -1).atoms() == [1, 3, 5, 7]

    def test_unknown_variable(self, abc):
        with pytest.raises(SpaceError):
            sign_event(abc, "Q", 1)

    def test_bad_sign(self, abc):
        with pytest.raises(SpaceError):
            sign_event(abc, "A", 0)

    def test_partition(self, abc):
        for v in abc.variables:
            plus = sign_event(abc, v, 1)
            minus = sign_event(abc, v, -1)
            assert plus.disjoint(minus)
            assert plus.union(minus).bits == EventMask.full(abc).bits


class TestMomentCoefficients:
    def test_triple_product_plus_set(self, abc):
        coeffs = moment_coefficients(abc, ["A", "B", "C"])
        plus_atoms = {abc.signature(a) for a, c in enumerate(coeffs) if c == 1}
        assert plus_atoms == {"+++", "+--", "-+-", "--+"}

    def test_single_matches_sign_event(self, abc):
        coeffs = moment_coefficients(abc, ["A"])
        plus = set(sign_event(abc, "A", 1).atoms())
        assert all((c == 1) == (a in plus) for a, c in enumerate(coeffs))

    def test_pair_agreement(self, abc):
        coeffs = moment_coefficients(abc, ["A", "B"])
        for a, c in enumerate(coeffs):
            sig = abc.signature(a)
            assert (c == 1) == (sig[0] == sig[1])

    def test_empty_subset_rejected(self, abc):
        with pytest.raises(SpaceError):
            moment_coefficients(abc, [])

    def test_repeat_rejected(self, abc):
        with pytest.raises(SpaceError):
            moment_coefficients(abc, ["A", "A"])


class TestEventMask:
    def test_complement_involution(self, abc):
        mask = EventMask.from_atoms(abc, [0, 3, 5])
        assert mask.complement().complement().bits == mask.bits

    def test_set_algebra(self, abc):
        m1 = EventMask.from_atoms(abc, [0, 1])
        m2 = EventMask.from_atoms(abc, [1, 2])
        assert (m1 | m2).atoms() == [0, 1, 2]
        assert (m1 & m2).atoms() == [1]
        assert not m1.disjoint(m2)
        assert m1.disjoint(EventMask.from_atoms(abc, [4]))

    def test_cross_space_rejected(self, abc):
        other = build_space(["X", "Y"])
        with pytest.raises(SpaceError):
            EventMask.full(abc).union(EventMask.full(other))


_names = st.lists(
    st.text(alphabet="ABCDEFGH", min_size=1, max_size=2),
    min_size=1,
    max_size=6,
    unique=True,
)


@given(_names)
def test_index_signature_round_trip(names):
    space = build_space(names)
    for atom in space.atoms():
        assert space.atom_index(space.signature(atom)) == atom


@given(_names, st.data())
def test_coefficients_are_sign_products(names, data):
    space = build_space(names)
    subset = data.draw(
        st.lists(st.sampled_from(list(space.variables)), min_size=1, unique=True)
    )
    coeffs = moment_coefficients(space, subset)
    for atom in space.atoms():
        product = 1
        for v in subset:
            product *= space.atom_sign(atom, v)
        assert coeffs[atom] == product
        assert coeffs[atom] ** 2 == 1


@given(
    st.integers(min_value=0, max_value=8).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << n) - 1))
    )
)
def test_characters_are_popcount_parities(problem):
    bits, mask = problem
    want = [(-1) ** (atom & mask).bit_count() for atom in range(1 << bits)]
    assert _on_atoms(bits, mask, 1, -1) == want
    if mask:
        # The same character as a moment: bit k is variable bits - 1 - k.
        space = build_space([f"V{j}" for j in range(bits)])
        subset = [f"V{bits - 1 - k}" for k in range(bits) if mask >> k & 1]
        assert moment_mask(space, subset) == mask
        assert moment_coefficients(space, subset) == want
