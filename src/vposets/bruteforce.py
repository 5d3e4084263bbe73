"""The exhaustive oracle engine shared by every brute-force count.

Everything here answers by exhaustion over a small ground set, so the
callers refuse larger inputs first: above SUBSET_BOUND elements, or above
`posets.LABELED_BOUND` for the strict orders.  Each question is one pass,
and each answers in plain Python ints and lists, apart from the recursive
polynomial definitions it is used to cross-check.

`antichain_sweep` finds the antichains, the independent sets of the
comparability graph, by branching on its closed rows.  The count splits on
the lowest element left, with or without it, and keeps each subproblem's
answer by its mask; the maximal antichains are listed by Bron and
Kerbosch's search.  Either recursion drops an element per level, so it is
at most n + 1 deep, and its cost follows the antichains' structure, not
2^n: the 20-antichain, with its 2^20 antichains, takes 21 subproblems.

Every other family of subsets is one Python int, a bitmap with bit c set
when the subset with code c belongs: the cutsets come from one pass up the
lower covers, and the parent-closed vertex sets and the strict orders among
all relations from a few shifts and masks per element.  `_bits` lists the
set bits of any mask, here and in `posets`.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from functools import cache, reduce
from operator import and_

from .errors import OracleBoundError

SUBSET_BOUND = 20


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of a nonnegative mask, ascending.  Up to
    64 of them are taken off as lowest bits; past that, each of those steps
    would copy the whole mask, so one scan of its binary digits finds them."""
    if mask.bit_count() <= 64:
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low
        return
    digits = bin(mask)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


def check_subset_bound(n: int, what: str = "input") -> None:
    if n > SUBSET_BOUND:
        raise OracleBoundError(
            f"{what} has {n} elements; the subset oracle bound is {SUBSET_BOUND}"
        )


def antichain_sweep(comp_rows: Sequence[int]) -> tuple[int, list[int]]:
    """Every antichain of a comparability relation on 0..n-1, where
    ``comp_rows[k]`` is the bitmask of the elements comparable to k.
    Returns the antichain count and the ascending subset codes of the
    maximal antichains."""
    near = [row | 1 << v for v, row in enumerate(comp_rows)]
    everything, codes = (1 << len(near)) - 1, []
    _maximal(0, everything, 0, near, codes)
    codes.sort()
    return _count(everything, near, {0: 1}), codes


def _count(s: int, near: list[int], memo: dict[int, int]) -> int:
    """The antichains within the mask s: those without its lowest element v,
    and those with v, which hold nothing else of v's closed row."""
    if s in memo:
        return memo[s]
    low = s & -s
    a = memo[s] = _count(s ^ low, near, memo) + _count(s & ~near[low.bit_length() - 1], near, memo)
    return a


def _maximal(r: int, p: int, x: int, near: list[int], codes: list[int]) -> None:
    """Bron and Kerbosch's search: the maximal antichains that hold the
    antichain r, add elements of p only, and hold no element of x, whose
    antichains were listed before.  Each of them holds the pivot u, the
    lowest element of p | x, or an element comparable to u, else u could
    join; so only the elements of p in u's closed row branch."""
    px = p | x
    if not px:
        codes.append(r)
        return
    branches = p & near[(px & -px).bit_length() - 1]
    while branches:
        bit = branches & -branches
        branches ^= bit
        far = ~near[bit.bit_length() - 1]
        _maximal(r | bit, p & far, x & far, near, codes)
        p ^= bit
        x |= bit


@cache
def _holding(n: int) -> tuple[int, ...]:
    """Per element k < n, the bitmap of the codes below 2**n that hold k: a
    run of 2**k codes without k and 2**k with it, doubled up to 2**n codes;
    kept per n, which stops at SUBSET_BOUND (about 5 MB for every n)."""
    rows = []
    for k in range(n):
        row = ((1 << (1 << k)) - 1) << (1 << k)
        for j in range(k + 1, n):
            row |= row << (1 << j)
        rows.append(row)
    return tuple(rows)


def cutsets(below: Sequence[int], order: Iterable[int]) -> int:
    """The bitmap of the subset codes meeting every maximal chain of an order
    on 0..n-1, from its lower-cover rows, in one pass up an ``order`` that
    lists each element after its lower covers.  An element's bitmap holds the
    codes that meet every cover path up to it from a minimal element: those
    that hold it, and those in every one of its lower covers' bitmaps.  The
    cutsets are in every maximal element's bitmap."""
    n = len(below)
    holding, hit, tops = _holding(n), [0] * n, (1 << n) - 1
    for v in order:
        lower = [hit[u] for u in _bits(below[v])]
        hit[v] = holding[v] | (reduce(and_, lower) if lower else 0)
        tops &= ~below[v]
    return reduce(and_, [hit[v] for v in _bits(tops)], (1 << (1 << n)) - 1)


def minimal_codes(n: int, family: int) -> list[int]:
    """The inclusion-minimal members, ascending, of a bitmap of subset codes
    of 0..n-1 closed under supersets, as the cutsets are: shifted 2**v codes
    up, and kept where v is held, it marks the members that stay without v."""
    minimal = family
    for v, holding in enumerate(_holding(n)):
        minimal &= ~((family << (1 << v)) & holding)
    return list(_bits(minimal))


def count_parent_closed(parents: Sequence[int]) -> int:
    """Number of vertex sets holding vertex 0 and closed under taking
    parents, where ``parents[v] < v`` is the parent of each vertex v >= 1.

    One doubling sweep over the vertices on the bitmap of the closed sets:
    vertex v joins exactly the sets that hold its parent.
    """
    holding = _holding(len(parents))
    closed = 1 << 1  # vertex 0 alone
    for v, parent in enumerate(parents[1:], 1):
        closed |= (closed & holding[parent]) << (1 << v)
    return closed.bit_count()


def strict_orders(n: int) -> list[list[tuple[int, int]]]:
    """The pair lists (u, v), meaning u < v, of every strict partial order
    on 0..n-1, from one filter over the bitmap of all 2**(n*(n-1))
    relations: no antisymmetry violation and no transitivity gap."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    holding = dict(zip(pairs, _holding(len(pairs))))
    ok = (1 << (1 << len(pairs))) - 1
    for i in range(n):
        for j in range(i + 1, n):
            ok &= ~(holding[i, j] & holding[j, i])
    for i, j, k in itertools.permutations(range(n), 3):
        ok &= ~(holding[i, j] & holding[j, k] & ~holding[i, k])
    return [[pairs[k] for k in _bits(code)] for code in _bits(ok)]
