"""The antichain and cutset oracles against a plain loop over all subsets."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vposets import (
    Poset,
    all_labeled_posets,
    count_antichains_poset,
    count_cutsets_poset,
    count_maximal_antichains_no_basic,
    count_maximal_antichains_poset,
    element_status,
    maximal_antichains_poset,
    parse_poset,
)
from vposets.posets import BASIC

from helpers import BOWTIE_POSET, N_POSET


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
    basics = {v for v, status in enumerate(element_status(p)) if status == BASIC}
    basic_free = [c for c in maximal if not basics & set(subsets[c])]
    return {
        "maximal": [frozenset(subsets[c]) for c in maximal],
        "antichains": len(antichains),
        "basic_free": len(basic_free),
        "cutsets": len(cutsets),
    }


def assert_engine_matches(p):
    ref = reference(p)
    assert maximal_antichains_poset(p) == ref["maximal"]
    assert count_maximal_antichains_poset(p) == len(ref["maximal"])
    assert count_antichains_poset(p) == ref["antichains"]
    assert count_maximal_antichains_no_basic(p) == ref["basic_free"]
    assert count_cutsets_poset(p) == ref["cutsets"]


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


def test_antichain_worst_case_at_the_bound():
    # Twenty incomparable elements: every one of the 2**20 subsets is an antichain.
    assert count_antichains_poset(parse_poset("20")) == 2**20
