"""What one query of each stream, and each step of the batch, asks the package.

Each stream query mirrors one CLI subcommand: tree-stream is
``tree-poly --eval`` with the full evaluation table, poset-stream is
``check`` followed by ``poset-poly``, and oracle-stream is ``counts``
together with the maximal-antichain expansion.  A query returns the answers;
checking them is left to `checks.py` so that it stays outside the timed part.
"""

from __future__ import annotations

import vposets as V
from checks import (
    ASYMPTOTIC_TOL,
    CONSTANT,
    RHO_INV,
    SERIES_PREFIX,
    rooted_tree_counts,
)
from gen import TreeInput

# The five integer points of the CLI's counts table; P(x,0) is the sixth.
EVAL_POINTS = ((1, 1), (0, 1), (2, 1), (1, 2), (2, 2))


def evaluations(tr, poly) -> tuple[dict, V.BivariatePoly]:
    """The five integer evaluations by point, and P(x,0)."""
    values = {pt: tr.call("polynomial.evaluate", poly.evaluate, *pt) for pt in EVAL_POINTS}
    return values, tr.call("polynomial.evaluate", poly.specialize, y=0)


def _sweep(tr, name: str, fn, obj, n: int, **kwargs):
    """A brute-force oracle call; the counters record its 2**n-row subset table."""
    if tr.record:
        tr.count("bruteforce.subsets_swept", 1 << n)
        tr.count("bruteforce.table_bytes_computed", (1 << n) * n)
    return tr.call(name, fn, obj, **kwargs)


def _terms(tr, name: str, poly) -> None:
    if tr.record:
        tr.count(name, len(poly.term_map))


def tree_query(tr, item: TreeInput) -> dict:
    t = tr.call("trees.parse_tree", V.parse_tree, item.text)
    poly = tr.call("trees.tree_poly", V.tree_poly, t)
    _terms(tr, "trees.tree_poly.terms_out", poly)
    values, x0 = evaluations(tr, poly)
    text = tr.call("polynomial.format", str, poly)
    return {"values": values, "x0": x0, "text": text}


def _parse_poset(tr, text: str):
    p = tr.call("posets.parse_poset", V.parse_poset, text)
    if tr.record:
        tr.count("posets.parse_poset.relations", p.relation_count)
    return p


def poset_query(tr, item) -> dict:
    p = _parse_poset(tr, item.text)
    cert = tr.call("posets.is_v_poset", V.is_v_poset, p)
    if isinstance(cert, V.ForbiddenPattern):
        if tr.record:
            tr.count("posets.is_v_poset.forbidden")
        return {"certificate": cert}
    poly = tr.call("posets.poset_poly", V.poset_poly, p)
    _terms(tr, "posets.poset_poly.terms_out", poly)
    status = tr.call("posets.element_status", V.element_status, p)
    values, x0 = evaluations(tr, poly)
    return {"certificate": cert, "status": status, "values": values, "x0": x0}


def oracle_query(tr, item) -> dict:
    """The counts cross-check plus the maximal-antichain expansion.

    ``oracles`` pairs each brute-force count with the evaluation point it
    must equal.
    """
    if isinstance(item, TreeInput):
        obj = tr.call("trees.parse_tree", V.parse_tree, item.text)
        n = obj.size
        poly = tr.call("trees.tree_poly", V.tree_poly, obj)
        _terms(tr, "trees.tree_poly.terms_out", poly)
        sweeps = (
            ((1, 1), V.count_maximal_antichains_tree, {}),
            ((0, 1), V.count_maximal_antichains_tree, {"leaf_free": True}),
            ((2, 1), V.count_antichains_tree, {}),
            ((1, 2), V.count_cutsets_tree, {}),
            # Rooted subtrees are the up-sets of the tree order, as many as its antichains.
            ((2, 1), V.count_root_subtrees, {}),
        )
        expand = V.antichain_expansion_tree
    else:
        obj = _parse_poset(tr, item.text)
        n = obj.n
        poly = tr.call("posets.poset_poly", V.poset_poly, obj)
        _terms(tr, "posets.poset_poly.terms_out", poly)
        tr.call("posets.element_status", V.element_status, obj)
        sweeps = (
            ((1, 1), V.count_maximal_antichains_poset, {}),
            ((0, 1), V.count_maximal_antichains_no_basic, {}),
            ((2, 1), V.count_antichains_poset, {}),
            ((1, 2), V.count_cutsets_poset, {}),
        )
        expand = V.antichain_expansion_poset
    oracles = [(pt, _sweep(tr, "bruteforce.counts", fn, obj, n, **kw)) for pt, fn, kw in sweeps]
    expansion = _sweep(tr, "bruteforce.expansion", expand, obj, n)
    values, x0 = evaluations(tr, poly)
    return {"poly": poly, "expansion": expansion, "oracles": oracles, "values": values, "x0": x0}


QUERIES = {
    "tree-stream": tree_query,
    "poset-stream": poset_query,
    "oracle-stream": oracle_query,
}


# ----------------------------------------------------------------------
# reproduce-batch: the paper's computations as one cold job

def step_series(tr, state: dict) -> list[str]:
    series = tr.call("enumeration.v_series", V.v_series, 1200)
    state["series"] = series.coeffs
    if series.coeffs[: len(SERIES_PREFIX)] != SERIES_PREFIX:
        return [f"series starts {series.coeffs[:len(SERIES_PREFIX)]}"]
    return []


def step_census(tr, state: dict) -> list[str]:
    counts = tr.call("enumeration.census", V.census, 8)
    series = list(state.get("series", ())[1:9])
    if counts != series:
        return [f"census(8) = {counts}, series says {series}"]
    return []


def step_collisions(tr, state: dict) -> list[str]:
    report = tr.call("trees.collision_search", V.collision_search, 12)
    problems = []
    if report.tree_count != sum(rooted_tree_counts(12)):
        problems.append(f"collision search saw {report.tree_count} trees")
    for groups in (report.collisions_at_y1, report.collisions_at_x1):
        for _, trees in groups:
            if len({t.encoding for t in trees}) != len(trees) or len(trees) < 2:
                problems.append("a collision group repeats a tree or has one member")
                break
    return problems


def step_eval_table(tr, state: dict) -> list[str]:
    """Six evaluations against brute force for every tree with at most 11 vertices."""
    problems = []
    expected_counts = rooted_tree_counts(11)
    for n in range(1, 12):
        trees = tr.call("trees.enumerate_rooted_trees", V.enumerate_rooted_trees, n)
        if len(trees) != expected_counts[n]:
            problems.append(f"{len(trees)} trees with {n} vertices")
        for t in trees:
            poly = tr.call("trees.tree_poly", V.tree_poly, t)
            values, x0 = evaluations(tr, poly)
            oracles = {
                (1, 1): _sweep(tr, "bruteforce.counts", V.count_maximal_antichains_tree, t, n),
                (0, 1): _sweep(tr, "bruteforce.counts", V.count_maximal_antichains_tree, t, n,
                               leaf_free=True),
                (2, 1): _sweep(tr, "bruteforce.counts", V.count_antichains_tree, t, n),
                (1, 2): _sweep(tr, "bruteforce.counts", V.count_cutsets_tree, t, n),
                (2, 2): 2**n,
            }
            if values != oracles or x0.canonical_triples() != [(1, t.leaf_count, 0)]:
                problems.append(f"evaluation table mismatch on {t.encoding}")
    return problems


def step_expansion(tr, state: dict) -> list[str]:
    """Expansion equals recursion on every V-poset with at most 7 elements."""
    problems = []
    for n in range(1, 8):
        posets = tr.call("enumeration.all_vposets", V.all_vposets, n)
        if len(posets) != SERIES_PREFIX[n]:
            problems.append(f"{len(posets)} V-posets with {n} elements")
        for p in posets:
            expansion = _sweep(tr, "bruteforce.expansion", V.antichain_expansion_poset, p, n)
            if expansion != tr.call("posets.poset_poly", V.poset_poly, p):
                problems.append(f"expansion differs from recursion on {p!r}")
    return problems


def step_asymptotics(tr, state: dict) -> list[str]:
    result = tr.call("enumeration.asymptotic_constant", V.asymptotic_constant, 400)
    problems = []
    if abs(result.rho_inv - RHO_INV) >= ASYMPTOTIC_TOL:
        problems.append(f"1/rho = {result.rho_inv}")
    if result.constant is None or abs(result.constant - CONSTANT) >= ASYMPTOTIC_TOL:
        problems.append(f"C = {result.constant}")
    return problems


BATCH_STEPS = (
    ("series", step_series),
    ("census", step_census),
    ("collisions", step_collisions),
    ("eval_table", step_eval_table),
    ("expansion", step_expansion),
    ("asymptotics", step_asymptotics),
)
