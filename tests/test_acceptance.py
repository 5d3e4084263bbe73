"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with  pytest -s tests/test_acceptance.py -v  to see the per-criterion
report.  Every numeric tolerance and time limit is pinned here.
"""

import math
import time
from contextlib import contextmanager

from vposets import (
    BivariatePoly,
    all_labeled_posets,
    all_vposets,
    antichain_expansion_poset,
    antichain_expansion_tree,
    asymptotic_constant,
    asymptotic_estimate,
    census,
    collision_search,
    contract_root_edge,
    count_antichains_poset,
    count_antichains_tree,
    count_cutsets_poset,
    count_cutsets_tree,
    count_maximal_antichains_tree,
    count_root_subtrees,
    decompose,
    delete_root_branch,
    element_status,
    enumerate_rooted_trees,
    impossibility_search,
    maximal_antichains_poset,
    maximal_antichains_tree,
    minimal_cutsets,
    parse_poset,
    parse_tree,
    path,
    poset_poly,
    region_set,
    r_value,
    solve_rho,
    star,
    tree_poly,
    tree_poly_dc,
    v_series,
    w_value,
)
from vposets.posets import BASIC, LOWER, _forbidden_in

from helpers import (
    FIGURE_POSET_POLY,
    FIGURE_POSET_TEXT,
    FIGURE_TREE_POLY,
    FIGURE_TREE_TEXT,
    SHARED_X1,
    SHARED_Y1,
    T1_TEXT,
    T2_TEXT,
    T3_TEXT,
    T4_TEXT,
    assert_status_preserved,
)


@contextmanager
def criterion(number, description, time_limit=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    if time_limit is not None and elapsed >= time_limit:
        print(f"criterion {number:2d} FAIL  {description} "
              f"[{elapsed:.3f}s over the {time_limit}s limit]")
        raise AssertionError(
            f"criterion {number} took {elapsed:.3f}s, limit {time_limit}s"
        )
    limit_note = f" / limit {time_limit}s" if time_limit is not None else ""
    print(f"criterion {number:2d} PASS  {description} [{elapsed:.3f}s{limit_note}]")


def mono(c, i, j):
    return BivariatePoly.monomial(c, i, j)


def test_criterion_01_figure_tree_polynomial():
    with criterion(1, "six-vertex example tree polynomial", time_limit=0.001):
        assert tree_poly(parse_tree(FIGURE_TREE_TEXT)) == FIGURE_TREE_POLY
    assert str(FIGURE_TREE_POLY) == "y^5 + y^3 + x*y^2 + x^2*y + x^3"


def test_criterion_02_star_and_path_closed_forms():
    with criterion(2, "star and path closed forms for n = 2..10", time_limit=1.0):
        for n in range(2, 11):
            assert tree_poly(star(n)) == mono(1, n - 1, 0) + mono(1, 0, n - 1)
            expected = BivariatePoly({(1, 0): 1, **{(0, k): 1 for k in range(1, n)}})
            assert tree_poly(path(n)) == expected


def test_criterion_03_deletion_contraction_soundness():
    with criterion(3, "deletion-contraction identity at every root edge, n <= 9",
                   time_limit=30.0):
        total = 0
        for n in range(1, 10):
            trees = enumerate_rooted_trees(n)
            total += len(trees)
            for t in trees:
                base = tree_poly(t)
                assert tree_poly_dc(t) == base
                top = mono(1, 0, t.size - 1)
                for i in range(len(t.children)):
                    contracted = tree_poly(contract_root_edge(t, i))
                    if len(t.children) == 1:
                        rhs = contracted + top
                    elif t.children[i].size == 1:
                        rhs = (mono(1, 1, 0) * contracted
                               - mono(1, 1, t.size - 2) + top)
                    else:
                        deleted = tree_poly(delete_root_branch(t, i))
                        rhs = (contracted
                               + mono(1, 0, t.children[i].size - 1) * deleted
                               - mono(2, 0, t.size - 2) + top)
                    assert base == rhs
        assert total == 486  # cumulative rooted trees through n = 9


def test_criterion_04_polynomial_equals_antichain_expansion_on_trees():
    with criterion(4, "recursive polynomial equals antichain expansion, n <= 10",
                   time_limit=120.0):
        for n in range(1, 11):
            for t in enumerate_rooted_trees(n):
                assert tree_poly(t) == antichain_expansion_tree(t)


def test_criterion_05_tree_evaluation_table_and_partial_collisions():
    with criterion(5, "six evaluations vs brute force for all trees n <= 12"):
        for n in range(1, 13):
            for t in enumerate_rooted_trees(n):
                p = tree_poly(t)
                assert p.evaluate(1, 1) == len(maximal_antichains_tree(t))
                assert p.evaluate(2, 1) == count_antichains_tree(t)
                assert p.evaluate(1, 2) == count_cutsets_tree(t)
                assert p.evaluate(2, 2) == 2**t.size
                assert p.specialize(y=0) == mono(1, t.leaf_count, 0)
                assert p.evaluate(0, 1) == count_maximal_antichains_tree(
                    t, leaf_free=True
                )
                assert count_root_subtrees(t) == p.evaluate(2, 1)
        t1, t2 = parse_tree(T1_TEXT), parse_tree(T2_TEXT)
        t3, t4 = parse_tree(T3_TEXT), parse_tree(T4_TEXT)
        assert tree_poly(t1).specialize(y=1) == SHARED_Y1 == tree_poly(t2).specialize(y=1)
        assert tree_poly(t3).specialize(x=1) == SHARED_X1 == tree_poly(t4).specialize(x=1)
        assert tree_poly(t1) != tree_poly(t2)
        assert tree_poly(t3) != tree_poly(t4)


def test_criterion_06_figure_poset():
    with criterion(6, "ten-element example poset: polynomial, statuses, counts"):
        p = parse_poset(FIGURE_POSET_TEXT)
        assert poset_poly(p) == FIGURE_POSET_POLY
        assert antichain_expansion_poset(p) == FIGURE_POSET_POLY
        status = element_status(p)
        assert {i for i, s in enumerate(status) if s == BASIC} == {4, 5, 7, 9}
        assert {i for i, s in enumerate(status) if s == LOWER} == {6}
        assert region_set(p, 6) == frozenset({1, 2, 3, 4, 5, 7})
        assert len(maximal_antichains_poset(p)) == 13
        assert count_antichains_poset(p) == 64 == FIGURE_POSET_POLY.evaluate(2, 1)
        assert count_cutsets_poset(p) == 779 == FIGURE_POSET_POLY.evaluate(1, 2)


def test_criterion_07_recogniser_equivalence():
    with criterion(7, "forbidden-pattern absence iff decomposition, n <= 5",
                   time_limit=60.0):
        totals = []
        for n in range(0, 6):
            posets = all_labeled_posets(n)
            totals.append(len(posets))
            for p in posets:
                assert (_forbidden_in(p, (1 << p.n) - 1) is None) == (decompose(p) is not None)
        assert totals == [1, 1, 3, 19, 219, 4231]


def test_criterion_08_census_properties_through_seven():
    with criterion(8, "expansion, duality, minimal cutsets, status lemma, n <= 7",
                   time_limit=300.0):
        checked = 0
        for n in range(1, 8):
            for p in all_vposets(n):
                checked += 1
                poly = poset_poly(p)
                assert poly == antichain_expansion_poset(p)
                assert poly == poset_poly(p.dual())
                assert set(minimal_cutsets(p)) == set(maximal_antichains_poset(p))
                assert_status_preserved(decompose(p))
        assert checked == sum(v_series(7).coeffs[1:])


def test_criterion_09_impossibility():
    with criterion(9, "no monomial sum matches the bowtie or N targets",
                   time_limit=1.0):
        assert impossibility_search((2, 7, 7, 16)) is False
        assert impossibility_search((3, 8, 8, 16)) is False


def test_criterion_10_enumeration():
    with criterion(10, "series coefficients and constructive census to n = 8",
                   time_limit=600.0):
        series = v_series(8)
        assert series.coeffs == (1, 1, 2, 5, 14, 40, 121, 373, 1184)
        assert census(8) == list(series.coeffs[1:])


def test_criterion_11_asymptotics():
    with criterion(11, "growth constants, stability, and estimate quality",
                   time_limit=10.0):
        result = asymptotic_constant(order=100)
        assert abs(result.rho_inv - 3.79599) < 1e-4
        assert abs(result.constant - 0.726213) < 1e-4
        assert abs(solve_rho(order=80).rho - solve_rho(order=120).rho) < 1e-8
        for x in (0.05, 0.1, 0.15, 0.2):
            w = w_value(x, 100)
            assert abs(w * math.exp(-w) - r_value(x, 100)) < 1e-9
        v100 = v_series(100)[100]
        assert abs(asymptotic_estimate(100, result) / v100 - 1) < 0.05


def test_criterion_12_collision_search_report():
    with criterion(12, "polynomial collision search over all trees n <= 10",
                   time_limit=300.0):
        report = collision_search(10)
        print(f"    trees examined: {report.tree_count}")
        print(f"    full-polynomial collisions: {len(report.full_pairs)}")
        print(f"    collision groups at y=1: {len(report.collisions_at_y1)}")
        print(f"    collision groups at x=1: {len(report.collisions_at_x1)}")
