"""The antichain and cutset oracles against a plain loop over all subsets,
and the answers a poset or tree keeps against those of a fresh object."""

import random
import sys
from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vposets import (
    NotVPosetError,
    Poset,
    all_labeled_posets,
    all_vposets,
    antichain_expansion_poset,
    antichain_expansion_tree,
    count_antichains_poset,
    count_antichains_tree,
    count_cutsets_poset,
    count_cutsets_tree,
    count_maximal_antichains_no_basic,
    count_maximal_antichains_poset,
    count_maximal_antichains_tree,
    count_root_subtrees,
    decompose,
    element_status,
    enumerate_rooted_trees,
    is_v_poset,
    maximal_antichains_poset,
    maximal_antichains_tree,
    maximal_chains,
    minimal_cutsets,
    parse_poset,
    parse_tree,
    path,
    poset_poly,
    star,
    tree_poly,
    tree_to_poset,
)
from vposets import bruteforce
from vposets import posets as posets_module
from vposets.posets import BASIC
from vposets.posets import _oracle_poset

from helpers import BOWTIE_POSET, N_POSET, bitmap_sweep, parents_of


def members(code, n):
    return [v for v in range(n) if (code >> v) & 1]


def reference(p):
    """Maximal antichains, antichain count, basic-free and cutset counts."""
    n = p.n
    subsets = [members(code, n) for code in range(1 << n)]

    def pairwise(code, related):
        return all(related(u, v) for u, v in combinations(subsets[code], 2))

    def unextendable(code, blocks):
        return all(
            (code >> w) & 1 or any(blocks(u, w) for u in subsets[code]) for w in range(n)
        )

    incomparable = lambda u, v: not p.comparable(u, v)
    antichains = [c for c in range(1 << n) if pairwise(c, incomparable)]
    maximal = [c for c in antichains if unextendable(c, p.comparable)]
    # A maximal chain is nonempty, so the empty poset has none.
    chains = [
        c for c in range(1, 1 << n)
        if pairwise(c, p.comparable) and unextendable(c, incomparable)
    ]
    cutsets = [s for s in range(1 << n) if all(s & c for c in chains)]
    is_cutset = set(cutsets)
    minimal = [s for s in cutsets if not any(s ^ 1 << v in is_cutset for v in subsets[s])]
    basics = {v for v, status in enumerate(element_status(p)) if status == BASIC}
    basic_free = [c for c in maximal if not basics & set(subsets[c])]
    return {
        "maximal": [frozenset(subsets[c]) for c in maximal],
        "antichains": len(antichains),
        "basic_free": len(basic_free),
        "cutsets": len(cutsets),
        "minimal_cutsets": [frozenset(subsets[s]) for s in minimal],
    }


def cover_reference(p):
    """The covers and the maximal chains by definition: the pairs u < v with
    nothing between, and the maximal sets of pairwise comparable elements,
    each listed bottom-up, in lexicographic order."""
    n = p.n

    def between(u, v):
        return any(p.less(u, w) and p.less(w, v) for w in range(n))

    covers = [(u, v) for u in range(n) for v in range(n) if p.less(u, v) and not between(u, v)]
    chains = []
    for code in range(1, 1 << n):
        chain = members(code, n)
        outside = [w for w in range(n) if not (code >> w) & 1]
        if all(p.comparable(u, v) for u, v in combinations(chain, 2)) and not any(
            all(p.comparable(u, w) for u in chain) for w in outside
        ):
            chains.append(tuple(sorted(chain, key=lambda u: p.down_mask(u).bit_count())))
    return covers, sorted(chains)


def fresh(p):
    """An equal poset that has answered nothing yet."""
    return Poset(p.n, [p.up_mask(u) for u in range(p.n)])


def assert_engine_matches(p):
    # Each oracle runs on a fresh poset, and then on ``p``, which keeps
    # what earlier oracles found.
    ref = reference(p)
    for oracle, expected in [
        (maximal_antichains_poset, ref["maximal"]),
        (count_maximal_antichains_poset, len(ref["maximal"])),
        (count_antichains_poset, ref["antichains"]),
        (count_maximal_antichains_no_basic, ref["basic_free"]),
        (count_cutsets_poset, ref["cutsets"]),
        (minimal_cutsets, ref["minimal_cutsets"]),
    ]:
        assert oracle(fresh(p)) == expected
        assert oracle(p) == expected


@pytest.mark.parametrize("n", range(0, 5))
def test_every_labeled_poset(n):
    for p in all_labeled_posets(n):
        assert_engine_matches(p)


def test_forbidden_patterns():
    assert N_POSET in all_labeled_posets(4) and BOWTIE_POSET in all_labeled_posets(4)
    for p in (N_POSET, BOWTIE_POSET):
        assert_engine_matches(p)


@st.composite
def posets(draw, max_n=12):
    n = draw(st.integers(0, max_n))
    order = draw(st.permutations(range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=2 * n) if pairs else st.just([]))
    return Poset.from_covers(n, [(order[i], order[j]) for i, j in chosen])


@settings(max_examples=40, deadline=None)
@given(posets())
def test_random_posets(p):
    assert_engine_matches(p)


@pytest.mark.parametrize("n", range(0, 6))
def test_covers_and_chains_by_definition(n):
    for p in all_labeled_posets(n):
        assert (p.covers(), maximal_chains(p)) == cover_reference(p)


@settings(max_examples=40, deadline=None)
@given(posets())
def test_random_covers_and_chains_by_definition(p):
    assert (p.covers(), maximal_chains(p)) == cover_reference(p)


def test_antichain_worst_case_at_the_bound():
    # Twenty incomparable elements: every one of the 2**20 subsets is an antichain.
    assert count_antichains_poset(parse_poset("20")) == 2**20


def test_antichain_sweep_at_the_bound():
    chain = parse_poset("20\n" + "".join(f"{k} {k + 1}\n" for k in range(1, 20)))
    assert count_antichains_poset(chain) == 21
    assert count_maximal_antichains_poset(chain) == 20
    assert count_cutsets_poset(chain) == 2**20 - 1
    antichain = parse_poset("20")
    assert count_maximal_antichains_poset(antichain) == 1
    assert count_cutsets_poset(antichain) == 1
    assert maximal_antichains_poset(antichain) == [frozenset(range(20))]


def comparability_rows(p):
    return [p.up_mask(v) | p.down_mask(v) for v in range(p.n)]


def random_posets(seed, sizes, per_size):
    rng = random.Random(seed)
    for n in sizes:
        for _ in range(per_size):
            order = rng.sample(range(n), n)
            pairs = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
            yield Poset.from_covers(n, rng.sample(pairs, min(len(pairs), rng.randrange(2 * n + 1))))


def test_the_two_sweep_engines_agree():
    # The same count and the same codes, in the same ascending order, from
    # the branching sweep and the reference bitmap of every subset code.
    inputs = [
        *(p for n in range(6) for p in all_labeled_posets(n)),
        *(p for n in range(8) for p in all_vposets(n)),
        *(tree_to_poset(t) for n in range(1, 11) for t in enumerate_rooted_trees(n)),
        *random_posets(1, range(17), 12),
    ]
    for p in inputs:
        rows = comparability_rows(p)
        assert bruteforce.antichain_sweep(rows) == bitmap_sweep(rows), p


@pytest.mark.parametrize("n", [12, 13, 20])
def test_closed_forms(n):
    antichain = parse_poset(str(n))
    assert count_antichains_poset(antichain) == 2**n
    assert maximal_antichains_poset(antichain) == [frozenset(range(n))]
    chain = parse_poset(f"{n}\n" + "".join(f"{k} {k + 1}\n" for k in range(1, n)))
    assert count_antichains_poset(chain) == n + 1
    assert count_maximal_antichains_poset(chain) == n
    assert count_antichains_tree(star(n)) == 2 ** (n - 1) + 1
    assert count_maximal_antichains_tree(star(n)) == 2


def disjoint_chains(*lengths):
    """Disjoint chains of the given lengths, numbered along each chain."""
    n, ends = sum(lengths), set(accumulate(lengths))
    return Poset.from_covers(n, [(v, v + 1) for v in range(n - 1) if v + 1 not in ends])


@pytest.mark.parametrize("p, antichains, maximal", [
    # An antichain takes at most one element per chain; a maximal one exactly one.
    (disjoint_chains(3, 3, 3, 3, 3, 3, 1, 1), 4**6 * 2**2, 3**6),
    (disjoint_chains(*[2] * 10), 3**10, 2**10),
])
def test_most_maximal_antichains_at_the_bound(p, antichains, maximal):
    assert p.n == 20
    assert count_antichains_poset(p) == antichains
    assert count_maximal_antichains_poset(p) == maximal
    assert antichain_expansion_poset(p) == poset_poly(p)


def layers(*sizes):
    """Complete layers: every element of a layer lies below every element
    of the next."""
    starts = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    covers = [
        (u, v)
        for i in range(len(sizes) - 1)
        for u in range(starts[i], starts[i + 1])
        for v in range(starts[i + 1], starts[i + 2])
    ]
    return Poset.from_covers(starts[-1], covers)


def test_more_chains_than_one_hit_word():
    # A cutset of complete layers holds a whole layer, and a minimal one is
    # a layer: 625 chains on 20 elements, the most the subset bound allows
    # for four layers, and 1458 on seven.
    bipartite = layers(6, 6)
    assert len(maximal_chains(bipartite)) == 36
    assert_engine_matches(bipartite)
    assert count_cutsets_poset(bipartite) == 2 * 2**6 - 1
    four = layers(5, 5, 5, 5)
    assert len(maximal_chains(four)) == 625
    assert count_cutsets_poset(four) == 2**20 - (2**5 - 1) ** 4 == 125055
    assert minimal_cutsets(four) == [frozenset(range(5 * i, 5 * i + 5)) for i in range(4)]
    seven = layers(3, 3, 3, 3, 3, 3, 2)
    assert seven.n == 20 and len(maximal_chains(seven)) == 1458
    assert count_cutsets_poset(seven) == 2**20 - 7**6 * 3
    assert minimal_cutsets(seven) == [frozenset(range(3 * i, min(3 * i + 3, 20))) for i in range(7)]


def test_star_at_the_bound():
    t = star(20)
    assert count_antichains_tree(t) == count_root_subtrees(t) == 2**19 + 1
    assert count_cutsets_tree(t) == 2**19 + 1
    assert count_maximal_antichains_tree(t) == 2
    assert antichain_expansion_tree(t) == tree_poly(t)
    # The root alone, and all the leaves.
    assert minimal_cutsets(tree_to_poset(t)) == [frozenset({0}), frozenset(range(1, 20))]
    # Every vertex of a path lies on its one chain.
    assert minimal_cutsets(tree_to_poset(path(20))) == [frozenset({v}) for v in range(20)]


@pytest.mark.parametrize("mask", [
    0, 1, 1 << 9999,                       # 0 and 1 set bits
    (1 << 64) - 1, (1 << 65) - 1,          # 64 and 65 set bits, the switch
    (1 << 64) - 1 << 9000,                 # 64 high up, walked bit by bit
    ((1 << 65) - 1 << 100) | 1 << 9999,    # 65 low and one far above
    sum(1 << v for v in range(0, 10000, 97)),  # sparse, 104 set bits
    (1 << 10000) - 1,                      # full
    random.Random(1).getrandbits(10000),   # about half full
])
def test_bits_lists_every_set_bit(mask):
    assert list(bruteforce._bits(mask)) == [
        i for i in range(mask.bit_length()) if mask >> i & 1
    ]


def test_one_set_bit_lister():
    assert posets_module._bits is bruteforce._bits


def test_root_subtrees_by_subset_loop():
    # Parent-closed vertex sets holding the root, plus the empty set, found
    # by testing every vertex set against the parent array.
    for n in range(1, 10):
        for t in enumerate_rooted_trees(n):
            parents = parents_of(t)
            closed = [
                code
                for code in range(1 << n)
                if code & 1 and all(not (code >> v) & 1 or (code >> parents[v]) & 1 for v in range(1, n))
            ]
            assert count_root_subtrees(t) == len(closed) + 1, t.encoding


def test_one_sweep_per_poset(monkeypatch):
    calls = []
    sweep = bruteforce.antichain_sweep

    def counted(comp_rows):
        calls.append(comp_rows)
        return sweep(comp_rows)

    monkeypatch.setattr(bruteforce, "antichain_sweep", counted)
    p = Poset.disjoint_union([layers(1, 3, 1), layers(2, 1), layers(1)])
    for oracle in (
        count_antichains_poset,
        count_maximal_antichains_poset,
        count_maximal_antichains_no_basic,
        count_cutsets_poset,
        antichain_expansion_poset,
        maximal_antichains_poset,
    ):
        oracle(p)
    assert len(calls) == 1


def test_expansion_after_the_sweep_loads_no_numpy(monkeypatch):
    # The sweep's codes are kept, and the expansion reads its exponents
    # from them as bit counts, so a blocked numpy import goes unnoticed.
    t = star(14)
    p = tree_to_poset(t)
    count_antichains_poset(p)
    monkeypatch.setitem(sys.modules, "numpy", None)
    assert antichain_expansion_poset(p) == poset_poly(p) == tree_poly(t)


# ----------------------------------------------------------------------
# kept answers: the same in any order as on a fresh object

def _answer(call, obj):
    try:
        return call(obj)
    except NotVPosetError as exc:
        return ("not a V-poset", exc.pattern)


POSET_CALLS = {
    "antichains": count_antichains_poset,
    "maximal": count_maximal_antichains_poset,
    "basic_free": count_maximal_antichains_no_basic,
    "cutsets": count_cutsets_poset,
    "maximal_antichains": maximal_antichains_poset,
    "status": element_status,
    "certificate": is_v_poset,
    "decompose": decompose,
    "poly": poset_poly,
    "expansion": antichain_expansion_poset,
}

# The tree oracles, and the poset calls on the poset they share.
TREE_CALLS = {
    "antichains": count_antichains_tree,
    "maximal": count_maximal_antichains_tree,
    "leaf_free": lambda t: count_maximal_antichains_tree(t, leaf_free=True),
    "cutsets": count_cutsets_tree,
    "root_subtrees": count_root_subtrees,
    "maximal_antichains": maximal_antichains_tree,
    "expansion": antichain_expansion_tree,
    "status": lambda t: element_status(_oracle_poset(t)),
    "certificate": lambda t: is_v_poset(_oracle_poset(t)),
    "poly": lambda t: poset_poly(_oracle_poset(t)),
}


def assert_order_free(obj, copy, calls, order):
    """Every call in ``order`` on one shared copy of ``obj`` answers as it
    does on its own fresh copy."""
    shared = copy(obj)
    for name in order:
        assert _answer(calls[name], shared) == _answer(calls[name], copy(obj)), name


FAMILIES = {
    "labeled posets, n <= 4": lambda: [p for n in range(5) for p in all_labeled_posets(n)],
    "V-posets, n <= 7": lambda: [p for n in range(8) for p in all_vposets(n)],
    "trees, n <= 9": lambda: [t for n in range(1, 10) for t in enumerate_rooted_trees(n)],
}


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_answers_in_any_order(family, data):
    objects = FAMILIES[family]()
    if isinstance(objects[0], Poset):
        calls, copy = POSET_CALLS, fresh
    else:
        calls, copy = TREE_CALLS, lambda t: parse_tree(t.encoding)
    order = data.draw(st.permutations(list(calls)))
    for k, obj in enumerate(objects):
        # Each object starts the drawn order at another call.
        k %= len(order)
        assert_order_free(obj, copy, calls, order[k:] + order[:k])


@settings(max_examples=60, deadline=None)
@given(posets(), st.permutations(list(POSET_CALLS)))
def test_random_posets_in_any_order(p, order):
    assert_order_free(p, fresh, POSET_CALLS, order)
