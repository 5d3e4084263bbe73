"""The exhaustive oracle engine shared by every brute-force count.

Everything here inspects all subsets of a small ground set, so the callers
refuse larger inputs first: above SUBSET_BOUND elements, or above
`posets.LABELED_BOUND` for the strict orders.  Each question is one
exhaustive pass, and each answers in plain Python ints and lists, apart
from the recursive polynomial definitions it is used to cross-check.

`antichain_sweep` lists every antichain with one of two engines, chosen by
the number of elements.  Up to _BITMAP_BOUND elements the antichains are
one Python int, a bitmap with bit c set when the subset with code c
belongs, as every other family of subsets here is: the cutsets come from
one pass up the lower covers, and the parent-closed vertex sets and the
strict orders among all relations from a few shifts and masks per element.
Past the bound the 2^n-bit operations cost more than a numpy table's
doubling over the elements.  SUBSET_BOUND is below 32, so a table
antichain's neighbourhood union and its subset code share one int64 word.
Either engine hands back the maximal antichains' codes as Python ints, in
ascending order.  `_bits` lists the set bits of any mask, here and in
`posets`.

numpy loads only for sweeps past 12 elements, inside `_table_sweep`, so the
polynomial, recognition, enumeration, the cutset, root-subtree and
labeled-poset oracles, the antichain oracles on small inputs and every CLI
command that lists no antichain start without it.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Sequence
from functools import cache, reduce
from operator import and_

from .errors import OracleBoundError

SUBSET_BOUND = 20

# The largest ground set whose antichains are swept as one integer bitmap.
_BITMAP_BOUND = 12

_LOW = (1 << 32) - 1


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
    maximal antichains.  Up to _BITMAP_BOUND elements the antichains are one
    integer bitmap, past it a numpy table; the two list the same codes."""
    if len(comp_rows) <= _BITMAP_BOUND:
        return _bitmap_sweep(comp_rows)
    return _table_sweep(comp_rows)


def _bitmap_sweep(comp_rows: Sequence[int]) -> tuple[int, list[int]]:
    """The antichains as one bitmap of their subset codes.  Per element v,
    ``meets`` holds the codes that hold an element comparable to v: a code
    holding v as well is no antichain, and one holding neither v nor such
    an element misses v, so it is not maximal."""
    holding = _holding(len(comp_rows))
    ok = maximal = (1 << (1 << len(comp_rows))) - 1
    for v, row in enumerate(comp_rows):
        meets = 0
        for u in _bits(row):
            meets |= holding[u]
        ok &= ~(holding[v] & meets)
        maximal &= holding[v] | meets
    return ok.bit_count(), list(_bits(ok & maximal))


def _table_sweep(comp_rows: Sequence[int]) -> tuple[int, list[int]]:
    """Every antichain as one int64 word of a numpy table, in one doubling
    sweep.  The low 32 bits are the union of its members' closed
    neighbourhoods, the high 32 bits its subset code.  The members of an
    earlier antichain all have indices below k, so k joins it exactly when
    bit k of that union is clear, with one OR of
    ``row | 1 << k | 1 << (32 + k)``, and each element doubles part of the
    table, whose codes stay ascending.  An antichain is maximal when its
    union covers every element.
    """
    import numpy as np

    n = len(comp_rows)
    table = np.empty(1 << n, dtype=np.int64)  # filled up to ``count``
    table[0] = 0
    count = 1
    for k, row in enumerate(comp_rows):
        words = table[:count]
        free = words[(words & (1 << k)) == 0]
        np.bitwise_or(free, row | 1 << k | 1 << (32 + k), out=table[count : count + len(free)])
        count += len(free)
    words = table[:count]
    return count, (words[(words & _LOW) == (1 << n) - 1] >> 32).tolist()


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
