"""Unit tests for the sparse bivariate polynomial type."""

import pytest
from hypothesis import given, strategies as st

from vposets import BivariatePoly, X, Y, enumerate_rooted_trees, tree_poly

from helpers import FIGURE_POSET_POLY, FIGURE_POSET_STR


def mono(c, i, j):
    return BivariatePoly.monomial(c, i, j)


class TestArithmetic:
    def test_add_disjoint_terms(self):
        assert X + Y == BivariatePoly({(1, 0): 1, (0, 1): 1})

    def test_add_cancellation_drops_term(self):
        a = mono(1, 3, 0) + mono(1, 0, 3)
        b = mono(1, 0, 3) * -1
        assert a + b == mono(1, 3, 0)
        assert (a + b).term_map == {(3, 0): 1}

    def test_add_zero_identity(self):
        assert (X + Y) + BivariatePoly.zero() == X + Y

    def test_square_of_sum(self):
        assert (X + Y) * (X + Y) == BivariatePoly({(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_mul_one_identity(self):
        assert (X + Y) * BivariatePoly.one() == X + Y

    def test_worked_product(self):
        # (x + y)^2 + y^4, an intermediate product in the ten-element example
        got = (X + Y) ** 2 + mono(1, 0, 4)
        assert got == BivariatePoly({(2, 0): 1, (1, 1): 2, (0, 2): 1, (0, 4): 1})

    def test_int_scaling(self):
        assert 3 * (X + Y) == mono(3, 1, 0) + mono(3, 0, 1)

    def test_bad_exponent_rejected(self):
        with pytest.raises(ValueError):
            BivariatePoly({(-1, 0): 1})


class TestMonomial:
    def test_plain(self):
        assert mono(1, 0, 5).term_map == {(0, 5): 1}

    def test_zero_coefficient_gives_zero_poly(self):
        assert mono(0, 3, 3) == BivariatePoly.zero()
        assert not mono(0, 3, 3)

    def test_with_coefficient(self):
        assert mono(3, 2, 2).term_map == {(2, 2): 3}


class TestEvaluate:
    # x^3 + x^2 y + x y^2 + y^3 + y^5
    POLY = BivariatePoly({(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1, (0, 5): 1})

    def test_counts_maximal_antichains(self):
        assert self.POLY.evaluate(1, 1) == 5

    def test_power_point(self):
        assert self.POLY.evaluate(2, 2) == 64 == 2**6

    def test_constant_term(self):
        assert self.POLY.evaluate(0, 0) == 0
        assert (self.POLY + BivariatePoly.one()).evaluate(0, 0) == 1

    def test_specialize(self):
        assert self.POLY.specialize(x=1) == BivariatePoly(
            {(0, 0): 1, (0, 1): 1, (0, 2): 1, (0, 3): 1, (0, 5): 1}
        )
        assert self.POLY.specialize(y=0) == mono(1, 3, 0)


class TestFormat:
    def test_ten_element_example_ordering(self):
        assert str(FIGURE_POSET_POLY) == FIGURE_POSET_STR

    def test_zero(self):
        assert str(BivariatePoly.zero()) == "0"

    def test_bare_variable(self):
        assert str(mono(1, 1, 0)) == "x"

    def test_negative_terms(self):
        assert str(mono(1, 2, 0) - mono(3, 1, 0)) == "x^2 - 3*x"
        assert str(-X) == "-x"

    def test_constant(self):
        assert str(mono(7, 0, 0)) == "7"
        assert str(BivariatePoly({(0, 0): True, (1, 0): True})) == "x + 1"

    def test_format_injective_on_tree_polynomials(self):
        polys = set()
        strings = set()
        for n in range(1, 9):
            for t in enumerate_rooted_trees(n):
                polys.add(tree_poly(t))
                strings.add(str(tree_poly(t)))
        assert len(polys) == len(strings)

    def test_triples_canonical_order(self):
        triples = FIGURE_POSET_POLY.canonical_triples()
        assert triples[0] == (1, 0, 9)
        assert triples[-1] == (1, 4, 0)
        y_then_x = [(-j, -i) for _, i, j in triples]
        assert y_then_x == sorted(y_then_x)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-3, 3),
    max_size=5,
).map(BivariatePoly)


class TestRingAxioms:
    @given(small_polys, small_polys)
    def test_commutative(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(small_polys, small_polys, small_polys)
    def test_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(small_polys, small_polys, small_polys)
    def test_distributive(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(small_polys, small_polys, st.integers(-9, 9), st.integers(-9, 9))
    def test_evaluation_is_a_ring_homomorphism(self, a, b, x0, y0):
        assert (a + b).evaluate(x0, y0) == a.evaluate(x0, y0) + b.evaluate(x0, y0)
        assert (a * b).evaluate(x0, y0) == a.evaluate(x0, y0) * b.evaluate(x0, y0)
