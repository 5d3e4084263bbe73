"""The packed-row evaluator behind `tree_poly` and `poset_poly`.

Every check compares against a plain dict recursion kept here as the
reference, or against closed forms and counts that need no polynomial.
"""

import math
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from vposets import (
    AddGreatest,
    AddLeast,
    BivariatePoly,
    DisjointUnion,
    Empty,
    Poset,
    RootedTree,
    all_vposets,
    enumerate_rooted_trees,
    parse_tree,
    path,
    poset_poly,
    tree_poly,
    tree_poly_dc,
)
from vposets.polynomial import EMPTY, GREATEST, LEAST, build_poly

from helpers import parent_arrays, parents_of, tree_of


def dict_mul(p, q):
    """The product of two term dicts."""
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            out[(i1 + i2, j1 + j2)] = out.get((i1 + i2, j1 + j2), 0) + c1 * c2
    return out


def dict_poly(parents):
    """x for a leaf, else the product of the branches plus y**(size - 1).

    ``parents[v] < v`` for every v > 0, so one sweep from the last vertex
    down finishes every branch before its parent; no recursion is needed.
    """
    n = len(parents)
    kids = [[] for _ in range(n)]
    for v in range(1, n):
        kids[parents[v]].append(v)
    size = [1] * n
    poly = [None] * n
    for v in range(n - 1, -1, -1):
        if not kids[v]:
            poly[v] = {(1, 0): 1}
            continue
        product = {(0, 0): 1}
        for c in kids[v]:
            size[v] += size[c]
            product = dict_mul(product, poly[c])
        top = (0, size[v] - 1)
        product[top] = product.get(top, 0) + 1
        poly[v] = product
    return poly[0]


def counts(parents):
    """P(1,1), P(0,1), P(2,1) and P(1,2) by the O(n) tree recursions:
    maximal antichains, leaf-free ones, antichains and cutsets."""
    n = len(parents)
    kids = [[] for _ in range(n)]
    for v in range(1, n):
        kids[parents[v]].append(v)
    size = [1] * n
    table = [None] * n
    for v in range(n - 1, -1, -1):
        if not kids[v]:
            table[v] = (1, 0, 2, 1)
            continue
        m = lf = a = c = 1
        for k in kids[v]:
            size[v] += size[k]
            m, lf, a, c = m * table[k][0], lf * table[k][1], a * table[k][2], c * table[k][3]
        table[v] = (m + 1, lf + 1, a + 1, c + 2 ** (size[v] - 1))
    return dict(zip(((1, 1), (0, 1), (2, 1), (1, 2)), table[0]))


class TestAgainstDictRecursion:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_tree(self, n):
        for t in enumerate_rooted_trees(n):
            assert tree_poly(t).term_map == dict_poly(parents_of(t))

    @settings(max_examples=150, deadline=None)
    @given(parent_arrays())
    def test_random_trees(self, parents):
        assert tree_poly(tree_of(parents)).term_map == dict_poly(parents)

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 16, 17, 32, 33, 64, 65, 80])
    def test_field_width_edges(self, k):
        # m(T) = P(1,1) is the coefficient bound that sets the field width.
        # low(k) has P(1,1) = 2**k - 1, the largest value k bits hold, and
        # one more vertex on top gives 2**k, the smallest that needs k + 1.
        cherry = RootedTree([RootedTree(), RootedTree()])
        low = RootedTree()
        for _ in range(k - 1):
            low = RootedTree([cherry, low])
        high = RootedTree([low])
        for t, bound in ((low, 2**k - 1), (high, 2**k)):
            poly = tree_poly(t)
            assert poly.evaluate(1, 1) == bound
            assert poly.term_map == dict_poly(parents_of(t))


class TestTallTrees:
    def test_path_2000(self):
        n = 2000
        poly = tree_poly(path(n))
        assert poly.term_map == {(1, 0): 1, **{(0, k): 1 for k in range(1, n)}}
        assert poly.evaluate(1, 1) == n
        assert poly.evaluate(0, 1) == n - 1
        assert poly.evaluate(2, 1) == n + 1
        assert poly.evaluate(1, 2) == 2**n - 1
        assert poly.evaluate(2, 2) == 2**n

    def test_caterpillar_600(self):
        height = 600
        parents = [-1]
        spine = 0
        for _ in range(height):
            parents.append(spine)           # a leg
            parents.append(spine)           # the next spine vertex
            spine = len(parents) - 1
        t = tree_of(parents)
        poly = tree_poly(t)
        assert poly.term_map == dict_poly(parents)
        for point, value in counts(parents).items():
            assert poly.evaluate(*point) == value
        assert poly.evaluate(2, 2) == 2 ** len(parents)
        assert poly.specialize(y=0) == BivariatePoly.monomial(1, t.leaf_count, 0)


class TestTraces:
    def test_deep_chain(self):
        n = 3000
        trace = Empty()
        for k in range(n):
            trace = AddGreatest(trace) if k % 3 else AddLeast(trace)
        poly = build_poly(trace.steps)
        assert poly.term_map == {(1, 0): 1, **{(0, k): 1 for k in range(1, n)}}

    def test_shared_parts_and_empty_parts(self):
        point = AddGreatest(Empty())
        pair = AddLeast(DisjointUnion((point, point)))
        trace = AddGreatest(DisjointUnion((pair, Empty(), pair, point)))
        # pair is x^2 + y^2 on 3 elements; the union has 7.
        expected = {(5, 0): 1, (3, 2): 2, (1, 4): 1, (0, 7): 1}
        assert build_poly(trace.steps).term_map == expected

    @pytest.mark.parametrize("k", [10, 11, 20, 33, 40, 70, 72])
    def test_large_coefficients(self, k):
        # A greatest element over k two-element chains: (x + y)**k + y**(2k).
        # The middle binomial coefficients come within a few bits of the
        # field width, and past 64 bits for k = 70 and 72.
        chain = AddGreatest(AddGreatest(Empty()))
        poly = build_poly(AddGreatest(DisjointUnion((chain,) * k)).steps)
        expected = {(i, k - i): math.comb(k, i) for i in range(k + 1)}
        expected[(0, 2 * k)] = 1
        assert poly.term_map == expected

    def test_empty_and_single(self):
        assert build_poly(Empty().steps) == BivariatePoly.one()
        assert build_poly(DisjointUnion(()).steps) == BivariatePoly.one()
        assert build_poly(AddLeast(Empty()).steps).term_map == {(1, 0): 1}
        assert build_poly(AddGreatest(DisjointUnion(())).steps).term_map == {(1, 0): 1}


def binomial_terms(k):
    """The terms of (x + y)**k."""
    return {(i, k - i): math.comb(k, i) for i in range(k + 1)}


class TestClosedForms:
    """Wide unions: every row of (x + y)**k is one term, at y-offset k - i."""

    @pytest.mark.parametrize("k", [1, 2, 250, 1000])
    def test_disjoint_two_chains(self, k):
        chain = Poset.empty().add_greatest().add_greatest()
        assert poset_poly(Poset.disjoint_union([chain] * k)).term_map == binomial_terms(k)

    @pytest.mark.parametrize("k", [1, 2, 250, 1000])
    def test_spider(self, k):
        # A root over k legs of two vertices: (x + y)**k + y**(2k).
        expected = binomial_terms(k)
        expected[(0, 2 * k)] = 1
        assert tree_poly(parse_tree("(" + "(())" * k + ")")).term_map == expected


def dict_steps(steps):
    """The polynomial that build steps make, on a stack of (size, term dict)
    values: the reference for `build_poly`'s packed rows."""
    stack = []
    for step in steps:
        if step == EMPTY:
            stack.append((0, {(0, 0): 1}))
        elif step < 0:
            size, poly = stack.pop()
            if size:
                poly = {**poly, (0, size): poly.get((0, size), 0) + 1}
            else:
                poly = {(1, 0): 1}
            stack.append((size + 1, poly))
        else:
            size, product = 0, {(0, 0): 1}
            for part_size, poly in stack[len(stack) - step:]:
                size += part_size
                product = dict_mul(product, poly)
            del stack[len(stack) - step:]
            stack.append((size, product))
    ((_, poly),) = stack
    return poly


adds = st.sampled_from((GREATEST, LEAST))
step_lists = st.recursive(
    st.one_of(
        st.just([EMPTY]),
        st.just([EMPTY, GREATEST]),
        st.lists(adds, min_size=1, max_size=6).map(lambda a: [EMPTY, *a]),
    ),
    # A union of up to four parts, then up to three added elements.
    lambda parts: st.tuples(st.lists(parts, max_size=4), st.lists(adds, max_size=3)).map(
        lambda pa: [s for p in pa[0] for s in p] + [len(pa[0]), *pa[1]]
    ),
    max_leaves=24,
)

# x + y, with row offsets 1 and 0, and x * (x + y) + y**3 + y**4, with row
# offsets 3, 1 and 0.  In their product, row 1 sums y**2 (x + y's row 0 times
# the other's row 1) and y**3 + y**4 (row 1 times row 0): the later part's
# offset is above the earlier one's in one order of the union and below it
# in the other, and the parts differ, so shifting the wrong one shows.
CHAIN = [EMPTY, GREATEST, LEAST]
TOPPED = [EMPTY, LEAST, EMPTY, GREATEST, GREATEST, 2, GREATEST, LEAST]


class TestStepLists:
    @settings(deadline=None)
    @given(step_lists)
    @example(CHAIN + TOPPED + [2])
    @example(TOPPED + CHAIN + [2])
    def test_against_dict_evaluator(self, steps):
        assert build_poly(steps).term_map == dict_steps(steps)


def term_format(poly):
    """The canonical text form, one term at a time."""
    parts = []
    items = sorted(poly.term_map.items(), key=lambda kv: (-kv[0][1], -kv[0][0]))
    for (i, j), coeff in items:
        factors = [f for f in ("x" if i == 1 else f"x^{i}" if i else "",
                               "y" if j == 1 else f"y^{j}" if j else "") if f]
        mag = abs(coeff)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts) or "0"


def assert_text(poly):
    """The canonical text and triples against the term-by-term forms."""
    assert str(poly) == term_format(poly)
    order = sorted(poly.term_map.items(), key=lambda kv: (-kv[0][1], -kv[0][0]))
    assert poly.canonical_triples() == [(c, i, j) for (i, j), c in order]


# Small exponents give dense rows; exponents up to 10**5 give rows that are
# long and mostly zero, and x-degrees far apart.
exponents = st.one_of(st.integers(0, 6), st.integers(0, 10**5))
polys = st.dictionaries(
    st.tuples(exponents, exponents),
    st.integers(-50, 50),
    max_size=12,
).map(BivariatePoly)


class TestEvaluationAndFormat:
    @given(polys, st.integers(-3, 3), st.integers(-3, 3))
    def test_evaluate_term_by_term(self, p, x0, y0):
        expected = sum(c * x0**i * y0**j for (i, j), c in p.term_map.items())
        assert p.evaluate(x0, y0) == expected

    @given(polys, st.one_of(st.none(), st.integers(-3, 3)), st.one_of(st.none(), st.integers(-3, 3)))
    def test_specialize_term_by_term(self, p, x, y):
        expected = BivariatePoly.zero()
        for (i, j), c in p.term_map.items():
            xi, xc = (i, 1) if x is None else (0, x**i)
            yj, yc = (j, 1) if y is None else (0, y**j)
            expected = expected + BivariatePoly.monomial(c * xc * yc, xi, yj)
        assert p.specialize(x=x, y=y) == expected

    @given(polys)
    def test_format_term_by_term(self, p):
        assert str(p) == term_format(p)

    def test_format_tree_polynomials(self):
        # All 7813 trees with at most 12 vertices.
        for n in range(1, 13):
            for t in enumerate_rooted_trees(n):
                assert_text(tree_poly(t))

    def test_format_vposet_polynomials(self):
        for n in range(1, 8):
            for p in all_vposets(n):
                assert_text(poset_poly(p))

    @pytest.mark.parametrize(
        "terms, text",
        [
            ({(0, 1): 1, (0, 0): -1}, "y - 1"),
            ({(0, 0): -1}, "-1"),
            ({(0, 3): 2, (1, 2): -1}, "2*y^3 - x*y^2"),
            ({(2, 2): 3, (1, 2): -1, (0, 0): 1}, "3*x^2*y^2 - x*y^2 + 1"),
            ({(1, 2): -1, (0, 0): -11}, "-x*y^2 - 11"),
        ],
    )
    def test_signed_units(self, terms, text):
        # A unit -1 loses its "1*" wherever it stands, a constant -1 or -11
        # keeps its digits, and a negative term after another reads "- ".
        assert str(BivariatePoly(terms)) == text


def assert_same(p, q):
    assert p == q
    assert hash(p) == hash(q)
    assert p.term_map == q.term_map


class TestOneCanonicalForm:
    """Every route to a polynomial gives one stored form: equal values are
    equal, hash equally and list the same terms."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_tree_routes(self, n):
        for t in enumerate_rooted_trees(n):
            p = tree_poly(t)
            q = BivariatePoly(p.term_map)
            for other in (q, p + q - q, p * BivariatePoly.one(), p * 1, -(-p), tree_poly_dc(t)):
                assert_same(p, other)

    @settings(deadline=None)
    @given(polys, polys)
    def test_cancelling_signed_terms(self, p, q):
        assert_same(p + q - q, p)
        assert_same((p - q) + q, p)
        assert_same(p - p, BivariatePoly.zero())
        assert_same(p + (-p), BivariatePoly.zero())
        assert_same(BivariatePoly(p.term_map), p)
        assert_same(p * 1, p)


class TestFarApartExponents:
    @pytest.mark.parametrize(
        "make, text",
        [
            pytest.param(lambda: BivariatePoly.monomial(1, 10**6, 0), "x^1000000", id="x"),
            pytest.param(lambda: BivariatePoly.monomial(1, 0, 10**6), "y^1000000", id="y"),
            pytest.param(
                lambda: BivariatePoly.monomial(1, 10**6, 0) * BivariatePoly.monomial(1, 0, 10**6),
                "x^1000000*y^1000000",
                id="product",
            ),
        ],
    )
    def test_one_coefficient(self, make, text):
        tracemalloc.start()
        try:
            poly = make()
            assert str(poly) == text
            assert poly.evaluate(1, 1) == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_text_of_a_long_row(self):
        # One row from y^0 to y^1000000: the printer keeps a bucket only for
        # the two y-exponents that hold a term.
        poly = BivariatePoly({(0, 0): 1, (0, 10**6): 1})
        tracemalloc.start()
        try:
            assert str(poly) == "y^1000000 + 1"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_long_sparse_row_at_a_high_degree(self):
        # One row of 10**5 + 1 coefficients, nearly all zero, at x-degree 10**5.
        p = BivariatePoly({(10**5, 0): 1, (10**5, 10**5): 2, (3, 7): -1})
        terms = p.term_map.items()
        assert p.evaluate(3, -2) == sum(c * 3**i * (-2) ** j for (i, j), c in terms)
        expected = {(0, j): 0 for (_, j), _ in terms}
        for (i, j), c in terms:
            expected[(0, j)] += c * 3**i
        assert p.specialize(x=3) == BivariatePoly(expected)
