"""Unit tests for the sparse bivariate polynomial type."""

import json
import pickle
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from vposets import BivariatePoly, X, Y, enumerate_rooted_trees, parse_tree, tree_poly
from vposets import polynomial

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

    @pytest.mark.parametrize("length", [3, 64, 65, 1000])
    def test_sparse_row_is_exact(self, length):
        # Rows past 64 coefficients that are mostly zeros take one power per
        # term, shorter ones Horner's rule; both must be exact.
        coeffs = (7,) + (0,) * (length - 2) + (11,)
        assert polynomial._row_value(5, coeffs, 3) == 3**5 * (7 + 11 * 3 ** (length - 1))
        poly = 7 * Y**5 + 11 * Y ** (length + 4) + X
        assert poly.evaluate(2, 3) == 7 * 3**5 + 11 * 3 ** (length + 4) + 2

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

    def test_bool_exponents(self):
        for poly in (BivariatePoly({(True, False): 1}), BivariatePoly.monomial(1, True)):
            assert json.dumps(poly.canonical_triples()) == "[[1, 1, 0]]"

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


# y^4 + x*y^2 + x^3, the polynomial of (()(()())), as protocol 2 pickled it
# before polynomials had `__reduce__`: copyreg.__newobj__ and the slot state
# (None, {"_rows": ...}), the older one also holding an unset "_hash".
SLOT_STATE_PICKLES = [
    "80026376706f736574732e706f6c796e6f6d69616c0a426976617269617465506f6c790a71"
    "00298171014e7d710258050000005f726f777371034b004b044b018571048771054b014b02"
    "4b018571068771074b034b004b0185710887710987710a7386710b622e",
    "80026376706f736574732e706f6c796e6f6d69616c0a426976617269617465506f6c790a71"
    "00298171014e7d71022858050000005f726f777371034b004b044b018571048771054b014b"
    "024b018571068771074b034b004b0185710887710987710a58050000005f68617368710b4e"
    "7586710c622e",
]

# The five points of the evaluation table, in its order.
TABLE_POINTS = [(1, 1), (0, 1), (2, 1), (1, 2), (2, 2)]


class TestPickle:
    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_round_trip(self, protocol):
        for poly in (FIGURE_POSET_POLY, BivariatePoly.zero(), mono(-2, 5, 7) + X):
            back = pickle.loads(pickle.dumps(poly, protocol))
            assert back == poly
            assert hash(back) == hash(poly)
            assert str(back) == str(poly)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_kept_values_stay_out(self, protocol):
        poly = FIGURE_POSET_POLY * 1
        before = pickle.dumps(poly, protocol)
        poly.evaluate(2, 2)
        assert pickle.dumps(poly, protocol) == before

    @pytest.mark.parametrize("data", SLOT_STATE_PICKLES)
    def test_slot_state_pickle_loads(self, data):
        poly = pickle.loads(bytes.fromhex(data))
        assert poly == tree_poly(parse_tree("(()(()()))"))
        assert str(poly) == "y^4 + x*y^2 + x^3"
        assert poly.evaluate(2, 2) == 32
        assert poly.evaluate(2, 2) == 32


signed_polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 12)),
    st.integers(-3, 3),
    max_size=8,
).map(BivariatePoly)

point_runs = st.lists(
    st.tuples(
        st.sampled_from(["evaluate", "float", "specialize"]),
        st.integers(-3, 3),
        st.integers(-3, 3),
    ),
    min_size=1,
    max_size=8,
)


class TestKeptRowValues:
    @given(signed_polys, point_runs)
    def test_every_answer_is_the_term_sum(self, poly, points):
        # Every value here is below 2**53, so a float y answers exactly too;
        # an int y must still get ints after it.
        terms = poly.term_map
        for kind, x0, y0 in points:
            if kind == "specialize":
                by_x = {}
                for (i, j), c in terms.items():
                    by_x[(i, 0)] = by_x.get((i, 0), 0) + c * y0**j
                got = poly.specialize(y=y0)
                assert got == BivariatePoly(by_x)
                assert all(c.__class__ is int for c in got.term_map.values())
            else:
                want = sum(c * x0**i * y0**j for (i, j), c in terms.items())
                got = poly.evaluate(x0, float(y0) if kind == "float" else y0)
                assert got == want
                if kind == "evaluate":
                    assert got.__class__ is int

    def test_float_y_keeps_nothing(self):
        # 2**60 + 1 has no float; the float answer must not be kept for y = 2.
        poly = Y**60 + X
        assert poly.evaluate(1, 2.0) == 2.0**60
        assert poly.evaluate(1, 2) == 2**60 + 1
        assert poly.evaluate(0, 2.0) == 2.0**60
        assert poly.evaluate(0, 2) == 2**60
        assert poly.evaluate(1, 2.0) == 2.0**60
        assert poly.specialize(y=2) == BivariatePoly({(0, 0): 2**60, (1, 0): 1})

    def test_numpy_integers_do_not_wrap(self):
        # A numpy int64 power wraps at 64 bits; it is read as the int it equals.
        import numpy as np

        two = np.int64(2)
        assert (Y**70 + X).evaluate(1, two) == 2**70 + 1
        assert (X**70 + Y).evaluate(two, 1) == 2**70 + 1
        assert (Y**70 + X).specialize(y=two) == BivariatePoly({(0, 0): 2**70, (1, 0): 1})
        assert (X**70 + Y).specialize(x=two) == BivariatePoly({(0, 0): 2**70, (0, 1): 1})

    def test_specialize_refuses_a_non_integer(self):
        # A float would give float coefficients, which no polynomial holds.
        for kwargs in ({"y": 0.5}, {"x": 0.5}, {"x": 2, "y": 2.0}):
            with pytest.raises(ValueError):
                (X * Y + Y**2).specialize(**kwargs)

    def test_table_reads_each_row_twice(self, monkeypatch):
        poly = tree_poly(parse_tree("((()())(()(()))((())()))"))
        calls = []
        row_value = polynomial._row_value
        monkeypatch.setattr(
            polynomial, "_row_value", lambda *args: calls.append(args) or row_value(*args)
        )
        assert len(poly._rows) == 7
        assert [poly.evaluate(*pt) for pt in TABLE_POINTS] == [19, 2, 246, 2653, 4096]
        assert len(calls) == 2 * 7

    def test_identity_unchanged(self):
        poly = FIGURE_POSET_POLY * 1
        seen = (hash(poly), repr(poly), str(poly), poly.canonical_triples())
        for pt in TABLE_POINTS:
            poly.evaluate(*pt)
        poly.specialize(y=3)
        assert poly == FIGURE_POSET_POLY
        assert (hash(poly), repr(poly), str(poly), poly.canonical_triples()) == seen

    def test_threads_share_one_polynomial(self):
        # A race may compute the row values again, but must never answer
        # from the values of another y or from a partly built list.
        poly = tree_poly(parse_tree("((()())(()(()))((())()))"))
        points = [(x0, y0) for x0 in (0, 1, 2, 3) for y0 in (-1, 0, 1, 2)]
        want = {
            (x0, y0): sum(c * x0**i * y0**j for (i, j), c in poly.term_map.items())
            for x0, y0 in points
        }
        wrong, finished = [], []
        start = threading.Barrier(6)

        def ask(k):
            start.wait(timeout=60)
            for r in range(3000):
                pt = points[(k + r) % len(points)]
                if poly.evaluate(*pt) != want[pt]:
                    wrong.append(pt)
            finished.append(k)

        threads = [threading.Thread(target=ask, args=(k,)) for k in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        assert sorted(finished) == list(range(6))
