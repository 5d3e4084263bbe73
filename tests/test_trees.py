"""Unit tests for rooted trees: parsing, polynomials, antichains, oracles."""

import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from vposets import (
    BivariatePoly,
    OracleBoundError,
    ParseError,
    Poset,
    RootedTree,
    antichain_expansion_tree,
    collision_search,
    contract_root_edge,
    count_antichains_tree,
    count_cutsets_poset,
    count_cutsets_tree,
    count_maximal_antichains_tree,
    count_root_subtrees,
    delete_root_branch,
    element_status,
    enumerate_rooted_trees,
    maximal_antichains_tree,
    parse_tree,
    path,
    poset_poly,
    star,
    tree_poly,
    tree_poly_dc,
    tree_to_poset,
)
from vposets import posets
from vposets.polynomial import build_poly
from vposets.posets import _oracle_poset
from vposets.trees import COLLISION_BOUND, GENERATION_BOUND, _tree_table, _trees_of_size

from helpers import (
    FIGURE_TREE_POLY,
    FIGURE_TREE_TEXT,
    SHARED_X1,
    SHARED_Y1,
    T1_POLY,
    T1_TEXT,
    T2_POLY,
    T2_TEXT,
    T3_POLY,
    T3_TEXT,
    T4_TEXT,
    parent_arrays,
    parents_of,
    reference_collisions,
    rooted_tree_count,
    tree_of,
)


def mono(c, i, j):
    return BivariatePoly.monomial(c, i, j)


class TestParse:
    def test_single_vertex(self):
        t = parse_tree("()")
        assert t.size == 1 and t.leaf_count == 1

    def test_figure_tree(self):
        t = parse_tree(FIGURE_TREE_TEXT)
        assert t.size == 6

    def test_whitespace_ignored(self):
        assert parse_tree(" ( ( ) \n ( ) ) ") == parse_tree("(()())")

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse_tree("((")

    def test_unmatched_close(self):
        with pytest.raises(ParseError):
            parse_tree("())")

    def test_stray_character(self):
        with pytest.raises(ParseError, match="position 1"):
            parse_tree("(a)")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse_tree("   ")

    def test_trailing_tree(self):
        with pytest.raises(ParseError, match="position 2: trailing input"):
            parse_tree("()()")

    def test_canonical_ordering(self):
        assert parse_tree("((())())") == parse_tree("(()(()))")


def shuffled_text(parents, rnd):
    """Text of the tree of ``parents``, each vertex's branches in random order."""
    kids = [[] for _ in parents]
    for v in range(1, len(parents)):
        kids[parents[v]].append(v)
    out, stack = [], [0]
    while stack:
        v = stack.pop()
        if v is None:
            out.append(")")
            continue
        out.append("(")
        rnd.shuffle(kids[v])
        stack.append(None)
        stack.extend(reversed(kids[v]))
    return "".join(out)


class TestCanonicalForm:
    @settings(max_examples=150, deadline=None)
    @given(parent_arrays(), st.randoms(use_true_random=False))
    def test_parser_and_constructor_agree(self, parents, rnd):
        parsed, built = parse_tree(shuffled_text(parents, rnd)), tree_of(parents)
        assert parsed == built and parsed.encoding == built.encoding
        n = len(parents)
        for t in (parsed, built):
            assert t.size == n
            assert t.leaf_count == n - len(set(parents[1:]))
        pre = parents_of(parsed)
        assert pre == parents_of(built) and tree_of(pre) == parsed
        masks = [0] * n
        for v in range(1, n):
            masks[v] = masks[pre[v]] | (1 << pre[v])
        up = tree_to_poset(parsed)
        assert [up.up_mask(v) for v in range(n)] == masks
        assert [not up.down_mask(v) for v in range(n)] == [v not in pre for v in range(n)]

    @pytest.mark.parametrize("orientation", ["greatest", "least"])
    def test_tree_to_poset_rows_validate(self, orientation):
        for n in range(1, 10):
            for t in enumerate_rooted_trees(n):
                p = tree_to_poset(t, orientation)
                checked = Poset(n, [p.up_mask(v) for v in range(n)])
                assert p == checked
                for v in range(n):
                    assert p.down_mask(v) == checked.down_mask(v)
                    assert p.comp_mask(v) == checked.comp_mask(v)

    def test_tree_to_poset_tall_path(self):
        # The descendants are handed over as preorder ranges, not rebuilt
        # bit by bit, so a tall path takes a linear number of big-integer
        # operations, not a quadratic one.
        p = tree_to_poset(path(4000))
        assert p.up_mask(0) == 0 and p.down_mask(3999) == 0
        assert p.up_mask(3999) == (1 << 3999) - 1 and p.down_mask(0) == 2**4000 - 2

    def test_encoding_is_read_only(self):
        # Equality and hashing read the encoding, so it must not change.
        t = parse_tree("(()())")
        with pytest.raises(AttributeError):
            t.encoding = "()"
        with pytest.raises(AttributeError):
            del t.encoding
        assert t == parse_tree("(()())") and hash(t) == hash(parse_tree("(()())"))


class TestTreePoly:
    def test_single_vertex(self):
        assert tree_poly(RootedTree()) == mono(1, 1, 0)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_star_closed_form(self, n):
        assert tree_poly(star(n)) == mono(1, n - 1, 0) + mono(1, 0, n - 1)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_path_closed_form(self, n):
        expected = BivariatePoly({(1, 0): 1, **{(0, k): 1 for k in range(1, n)}})
        assert tree_poly(path(n)) == expected

    def test_figure_tree(self):
        assert tree_poly(parse_tree(FIGURE_TREE_TEXT)) == FIGURE_TREE_POLY


class TestDeletionContraction:
    def test_figure_tree(self):
        assert tree_poly_dc(parse_tree(FIGURE_TREE_TEXT)) == FIGURE_TREE_POLY

    def test_bridge_case(self):
        assert tree_poly_dc(path(2)) == mono(1, 1, 0) + mono(1, 0, 1)

    def test_pendant_case(self):
        # x*P(T/e) - x*y^(n-2) + y^(n-1) with T/e a two-vertex path
        assert tree_poly_dc(star(3)) == mono(1, 2, 0) + mono(1, 0, 2)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_root_edge_identity(self, n):
        for t in enumerate_rooted_trees(n):
            base = tree_poly(t)
            for i in range(len(t.children)):
                assert base == _edge_identity(t, i)

    def test_agrees_with_recursion(self):
        for n in range(1, 11):
            for t in enumerate_rooted_trees(n):
                assert tree_poly_dc(t) == tree_poly(t)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_surgery_matches_children(self, n):
        # The minors rebuilt through the constructor, which sorts: a cut
        # string that skipped a needed sort would differ.
        for t in enumerate_rooted_trees(n):
            kids = t.children
            for i, branch in enumerate(kids):
                rest = kids[:i] + kids[i + 1 :]
                assert contract_root_edge(t, i) == RootedTree(rest + branch.children)
                assert delete_root_branch(t, i) == RootedTree(rest)

    @pytest.mark.parametrize("t, index, message", [
        (path(1), 0, r"branch index 0: the tree is a single vertex, with no branches"),
        (star(3), 5, r"branch index 5 out of range 0\.\.1"),
        (star(3), -1, r"branch index -1 out of range 0\.\.1"),
    ])
    @pytest.mark.parametrize("surgery", [contract_root_edge, delete_root_branch])
    def test_surgery_bad_index(self, surgery, t, index, message):
        with pytest.raises(ValueError, match=message):
            surgery(t, index)

    @pytest.mark.parametrize("index", [0, 1, -1])
    @pytest.mark.parametrize("surgery", [contract_root_edge, delete_root_branch])
    def test_surgery_on_one_vertex(self, surgery, index):
        # A single vertex has no branch to name a range of.
        with pytest.raises(ValueError, match="no branches") as caught:
            surgery(star(1), index)
        assert "out of range" not in str(caught.value)


def _edge_identity(t, i):
    """Right-hand side of the applicable deletion-contraction case at edge i."""
    top = BivariatePoly.monomial(1, 0, t.size - 1)
    contracted = tree_poly(contract_root_edge(t, i))
    if len(t.children) == 1:
        return contracted + top
    if t.children[i].size == 1:
        x = BivariatePoly.monomial(1, 1, 0)
        return x * contracted - BivariatePoly.monomial(1, 1, t.size - 2) + top
    deleted = tree_poly(delete_root_branch(t, i))
    return (
        contracted
        + BivariatePoly.monomial(1, 0, t.children[i].size - 1) * deleted
        - BivariatePoly.monomial(2, 0, t.size - 2)
        + top
    )


class TestMaximalAntichains:
    def test_single_vertex(self):
        [a] = maximal_antichains_tree(RootedTree())
        assert a.vertices == frozenset({0})
        assert a.leaf_count == 1 and a.below_count == 0

    def test_star_3(self):
        sets = {a.vertices for a in maximal_antichains_tree(star(3))}
        assert sets == {frozenset({0}), frozenset({1, 2})}

    def test_figure_tree_count(self):
        t = parse_tree(FIGURE_TREE_TEXT)
        assert len(maximal_antichains_tree(t)) == 5
        assert len(maximal_antichains_tree(t)) == tree_poly(t).evaluate(1, 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_brute_force(self, n):
        for t in enumerate_rooted_trees(n):
            assert len(maximal_antichains_tree(t)) == count_maximal_antichains_tree(t)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_monomial_multiset_matches_poly(self, n):
        for t in enumerate_rooted_trees(n):
            terms = {}
            for a in maximal_antichains_tree(t):
                key = (a.leaf_count, a.below_count)
                terms[key] = terms.get(key, 0) + 1
            assert BivariatePoly(terms) == tree_poly(t)


class TestAntichainExpansion:
    def test_single_vertex(self):
        assert antichain_expansion_tree(RootedTree()) == mono(1, 1, 0)

    def test_star_4(self):
        assert antichain_expansion_tree(star(4)) == tree_poly(star(4))

    def test_figure_tree(self):
        assert antichain_expansion_tree(parse_tree(FIGURE_TREE_TEXT)) == FIGURE_TREE_POLY

    @pytest.mark.parametrize("n", range(1, 9))
    def test_equals_recursive_polynomial(self, n):
        for t in enumerate_rooted_trees(n):
            assert antichain_expansion_tree(t) == tree_poly(t)


class TestCountingOracles:
    def test_antichains_single(self):
        assert count_antichains_tree(RootedTree()) == 2

    def test_antichains_examples(self):
        assert count_antichains_tree(parse_tree(FIGURE_TREE_TEXT)) == 16
        assert count_antichains_tree(star(4)) == 9

    def test_cutsets_examples(self):
        assert count_cutsets_tree(RootedTree()) == 1
        assert count_cutsets_tree(parse_tree(FIGURE_TREE_TEXT)) == 47
        assert count_cutsets_tree(path(3)) == 7

    @pytest.mark.parametrize("n", range(1, 12))
    def test_cutsets_are_the_poset_oracle(self, n):
        # The tree oracle reads children off the tree's rows; the poset
        # oracle finds lower covers and its own linear extension, in either
        # orientation, whose maximal chains are the same.
        for t in enumerate_rooted_trees(n):
            count = count_cutsets_tree(t)
            assert count == count_cutsets_poset(tree_to_poset(t)), t
            assert count == count_cutsets_poset(tree_to_poset(t, "least")), t

    def test_root_subtrees_examples(self):
        assert count_root_subtrees(RootedTree()) == 2
        assert count_root_subtrees(star(4)) == 9
        assert count_root_subtrees(path(3)) == 4

    @pytest.mark.parametrize("n", range(1, 10))
    def test_six_evaluations(self, n):
        for t in enumerate_rooted_trees(n):
            p = tree_poly(t)
            assert p.evaluate(1, 1) == len(maximal_antichains_tree(t))
            assert p.evaluate(2, 1) == count_antichains_tree(t)
            assert p.evaluate(1, 2) == count_cutsets_tree(t)
            assert p.evaluate(2, 2) == 2**t.size
            assert p.specialize(y=0) == mono(1, t.leaf_count, 0)
            assert p.evaluate(0, 1) == count_maximal_antichains_tree(t, leaf_free=True)
            assert count_root_subtrees(t) == p.evaluate(2, 1)

    def test_bound_refusal(self):
        big = path(21)
        with pytest.raises(OracleBoundError):
            count_antichains_tree(big)
        with pytest.raises(OracleBoundError):
            count_cutsets_tree(big)
        with pytest.raises(OracleBoundError):
            count_root_subtrees(big)
        with pytest.raises(OracleBoundError):
            maximal_antichains_tree(big)


TREE_ORACLES = (
    count_antichains_tree,
    count_maximal_antichains_tree,
    lambda t: count_maximal_antichains_tree(t, leaf_free=True),
    count_cutsets_tree,
    count_root_subtrees,
    maximal_antichains_tree,
    antichain_expansion_tree,
)


class TestKeptPoset:
    """The oracles keep a tree's poset on it, out of sight."""

    def test_invisible(self):
        used, new = parse_tree(FIGURE_TREE_TEXT), parse_tree(FIGURE_TREE_TEXT)
        for oracle in TREE_ORACLES:
            oracle(used)
        assert used._poset is not None and new._poset is None
        assert used == new and hash(used) == hash(new) and repr(used) == repr(new)
        assert len({used, new}) == 1
        assert pickle.dumps(used) == pickle.dumps(new)
        assert pickle.loads(pickle.dumps(used)) == new
        with pytest.raises(AttributeError):
            used._poset = None

    def test_one_poset_per_tree(self):
        t = parse_tree(FIGURE_TREE_TEXT)
        count_antichains_tree(t)
        p = t._poset
        for oracle in TREE_ORACLES:
            oracle(t)
        assert t._poset is p and p == tree_to_poset(t)

    def test_known_facts_kept(self):
        # The kept poset carries the tree's own steps and the leaves as its
        # basic elements; both agree with what recognition derives on a
        # fresh poset of the tree.
        for n in range(1, 12):
            for t in enumerate_rooted_trees(n):
                p, fresh = _oracle_poset(t), tree_to_poset(t)
                assert element_status(p) == element_status(fresh)
                assert build_poly(p._cert.steps) == tree_poly(t) == poset_poly(fresh)

    def test_known_facts_not_derived_again(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("derived again")

        t = parse_tree(FIGURE_TREE_TEXT)
        monkeypatch.setattr(posets, "_peel", refuse)
        monkeypatch.setattr(posets, "_chain_tops", refuse)
        monkeypatch.setattr(posets, "_sizes", refuse)
        assert antichain_expansion_tree(t) == FIGURE_TREE_POLY
        assert count_maximal_antichains_tree(t, leaf_free=True) == FIGURE_TREE_POLY.evaluate(0, 1)

    def test_tree_to_poset_keeps_nothing(self):
        t = path(500)
        assert tree_to_poset(t).n == 500 and t._poset is None

    def test_generation_cache_keeps_nothing(self):
        trees = enumerate_rooted_trees(7)
        for t in trees:
            count_antichains_tree(t)
        assert all(t._poset is not None for t in trees)
        assert all(t._poset is None for t in enumerate_rooted_trees(7))

    def test_collision_search_keeps_nothing(self):
        used = collision_search(8).collisions_at_y1[0][1][0]
        count_antichains_tree(used)
        assert used._poset is not None
        report = collision_search(8)
        trees = [t for pair in report.full_pairs for t in pair]
        for groups in (report.collisions_at_y1, report.collisions_at_x1):
            trees += [t for _, group in groups for t in group]
        assert used in trees and all(t._poset is None for t in trees)
        # The index table lives for one call: the search leaves the
        # generator's string cache empty, and a second call returns equal
        # groups of new trees and new polynomials.
        _trees_of_size.cache_clear()
        first = collision_search(12)
        assert _trees_of_size.cache_info().currsize == 0
        second = collision_search(12)
        assert first == second
        for old, new in (
            (first.collisions_at_y1, second.collisions_at_y1),
            (first.collisions_at_x1, second.collisions_at_x1),
        ):
            for (p, group), (q, again) in zip(old, new):
                assert p is not q
                assert all(a is not b for a, b in zip(group, again))

    @pytest.mark.parametrize("make", [path, star])
    def test_bound_refusal_keeps_nothing(self, make):
        t = make(21)
        for _ in range(2):
            for oracle in TREE_ORACLES:
                with pytest.raises(OracleBoundError):
                    oracle(t)
        assert t._poset is None


class TestEnumeration:
    def test_small_counts(self):
        assert len(enumerate_rooted_trees(1)) == 1
        assert len(enumerate_rooted_trees(4)) == 4
        assert len(enumerate_rooted_trees(9)) == 286

    @pytest.mark.parametrize("n", range(1, 12))
    def test_counts_match_recurrence(self, n):
        assert len(enumerate_rooted_trees(n)) == rooted_tree_count(n)

    def test_all_distinct_and_right_size(self):
        for n in range(1, 9):
            trees = enumerate_rooted_trees(n)
            assert len({t.encoding for t in trees}) == len(trees)
            assert all(t.size == n for t in trees)

    def test_bound_refusal(self):
        with pytest.raises(OracleBoundError):
            enumerate_rooted_trees(13)


class TestCollisionSearch:
    def test_figure_pairs_single_variable(self):
        report = collision_search(8)
        t1, t2 = parse_tree(T1_TEXT), parse_tree(T2_TEXT)
        t3, t4 = parse_tree(T3_TEXT), parse_tree(T4_TEXT)

        y1_groups = [g for _, g in report.collisions_at_y1 if t1 in g]
        assert y1_groups and t2 in y1_groups[0]
        assert tree_poly(t1).specialize(y=1) == SHARED_Y1

        x1_groups = [g for _, g in report.collisions_at_x1 if t3 in g]
        assert x1_groups and t4 in x1_groups[0]
        assert tree_poly(t3).specialize(x=1) == SHARED_X1

    def test_full_polynomials_differ(self):
        assert tree_poly(parse_tree(T1_TEXT)) == T1_POLY
        assert tree_poly(parse_tree(T2_TEXT)) == T2_POLY
        assert tree_poly(parse_tree(T3_TEXT)) == T3_POLY
        assert T1_POLY != T2_POLY
        assert T3_POLY != tree_poly(parse_tree(T4_TEXT))

    def test_no_full_collisions_up_to_ten(self):
        # Exhaustive evidence: no two non-isomorphic trees on at most 10
        # vertices share the full two-variable polynomial.
        report = collision_search(10)
        assert report.tree_count == sum(rooted_tree_count(n) for n in range(1, 11))
        assert report.full_pairs == []

    def test_no_full_collisions_up_to_twelve(self):
        # The same over all 7813 trees on at most 12 vertices.
        report = collision_search(12)
        assert report.tree_count == sum(rooted_tree_count(n) for n in range(1, 13)) == 7813
        assert report.full_pairs == []

    @pytest.mark.parametrize("n_max", range(1, 14))
    def test_matches_reference(self, n_max):
        assert collision_search(n_max) == reference_collisions(n_max)

    def test_table_lists_the_generated_strings(self):
        # The index table holds no strings: each index's string, read down
        # its chain of rests, is the generator's, block by block, in order.
        starts, first, rest, _, _ = _tree_table(12, 16)

        def string(t):
            kids = []
            while first[t] >= 0:
                kids.append(string(first[t]))
                t = rest[t]
            return "(" + "".join(sorted(kids)) + ")"

        assert starts == [0, 0, *itertools.accumulate(map(rooted_tree_count, range(1, 13)))]
        for n in range(1, 13):
            assert tuple(map(string, range(starts[n], starts[n + 1]))) == _trees_of_size(n)

    def test_full_comparison_within_shared_keys(self, monkeypatch):
        # A tree listed twice shares both keys with itself, so the full
        # polynomials are compared, and they are equal.
        build = _tree_table
        twice = "(()())"

        def listed_twice(n_max, width):
            starts, first, rest, y1, x1 = build(n_max, width)
            t = starts[3] + _trees_of_size(3).index(twice)
            for column in (first, rest, y1, x1):
                column.append(column[t])
            starts[-1] += 1
            return starts, first, rest, y1, x1

        monkeypatch.setattr("vposets.trees._tree_table", listed_twice)
        report = collision_search(3)
        t = RootedTree._trusted(twice)
        assert report.tree_count == 5
        assert report.full_pairs == [(t, t)]
        assert report.collisions_at_y1 == [(tree_poly(t).specialize(y=1), [t, t])]
        assert report.collisions_at_x1 == [(tree_poly(t).specialize(x=1), [t, t])]

    def test_search_evaluates_no_polynomial(self, monkeypatch):
        calls = []

        def counted(f):
            def wrapper(*args):
                calls.append(f.__name__)
                return f(*args)

            return wrapper

        monkeypatch.setattr("vposets.trees.tree_poly", counted(tree_poly))
        monkeypatch.setattr("vposets.trees.build_poly", counted(build_poly))
        assert collision_search(12).tree_count == 7813
        assert calls == []

    def test_bound_refusal(self):
        with pytest.raises(OracleBoundError, match=f"bounded at {COLLISION_BOUND} vertices"):
            collision_search(COLLISION_BOUND + 1)
