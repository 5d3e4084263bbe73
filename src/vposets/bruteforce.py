"""The exhaustive oracle engine shared by every brute-force count.

Everything here inspects all subsets of a small ground set, so the callers
refuse larger inputs first: above SUBSET_BOUND elements, or above
`posets.LABELED_BOUND` for the strict orders.  Each question is one
exhaustive pass: `antichain_sweep` builds every antichain,
`hitting_flags` records, for every subset code, which chain bitmasks it
meets, and `count_parent_closed` builds every parent-closed vertex set,
each by doubling over the elements; `strict_orders` filters every relation
on a few elements.  They stay independent of the recursive polynomial
definitions they are used to cross-check, and answer in plain Python ints
and lists.
SUBSET_BOUND is below 32, so an antichain's neighbourhood union and its
subset code share one int64 word.

This is the only module that touches numpy.  It loads numpy on the first
sweep, inside the function that runs it, so the polynomial, recognition,
enumeration and every CLI command that sweeps no subset start without it.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from .errors import OracleBoundError

SUBSET_BOUND = 20

_LOW = (1 << 32) - 1
_CHUNK = 31  # chain masks per int32 hit word


def check_subset_bound(n: int, what: str = "input") -> None:
    if n > SUBSET_BOUND:
        raise OracleBoundError(
            f"{what} has {n} elements; the subset oracle bound is {SUBSET_BOUND}"
        )


def antichain_sweep(comp_rows: Sequence[int]) -> tuple[int, list[int]]:
    """Every antichain of a comparability relation, in one doubling sweep.

    ``comp_rows[k]`` is the bitmask of the elements comparable to k.  Each
    antichain is one int64 word: the low 32 bits are the union of its
    members' closed neighbourhoods, the high 32 bits its subset code.  The
    members of an earlier antichain all have indices below k, so k joins it
    exactly when bit k of that union is clear, with one OR of
    ``row | 1 << k | 1 << (32 + k)``, and each element doubles part of the
    table.  An antichain is maximal when its union covers every element.
    Returns the antichain count and the subset codes of the maximal ones.
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


def member_sums(codes: Sequence[int], columns: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """For each subset code, the sum of each column's entries over its members.

    Every column holds one integer per element; one product of the 0/1
    member matrix with the columns answers every code at once.
    """
    import numpy as np

    n = len(columns[0])
    members = (np.array(codes, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    sums = np.array(columns, dtype=np.int64) @ members.T
    return list(zip(*sums.tolist()))


def hitting_flags(n: int, masks: Iterable[int]) -> np.ndarray:
    """Flag per subset code 0..2**n-1: meets every one of the given bitmasks.

    One doubling sweep over the elements per chunk of 31 masks: entry c of
    an int32 table holds, as bits, the masks that subset c meets, and
    element k ORs in the masks that contain k.
    """
    import numpy as np

    masks = list(masks)
    flags = np.ones(1 << n, dtype=bool)
    for start in range(0, len(masks), _CHUNK):
        chunk = masks[start : start + _CHUNK]
        meets = [0] * n  # per element, the masks of the chunk that contain it
        for j, mask in enumerate(chunk):
            for k in range(n):
                meets[k] |= ((mask >> k) & 1) << j
        hit = np.empty(1 << n, dtype=np.int32)
        hit[0] = 0
        for k in range(n):
            np.bitwise_or(hit[: 1 << k], meets[k], out=hit[1 << k : 2 << k])
        flags &= hit == (1 << len(chunk)) - 1
    return flags


def count_hitting_sets(n: int, masks: Iterable[int]) -> int:
    """Number of subsets of 0..n-1 that meet every given bitmask."""
    return int(hitting_flags(n, masks).sum())


def minimal_hitting_sets(n: int, masks: Iterable[int]) -> list[int]:
    """The inclusion-minimal subsets meeting every given bitmask, as
    ascending subset codes: those no one-element removal keeps hitting.

    One pass per element v over the flag table, viewed as blocks of
    2 * 2**v codes: the upper half of a block holds v, and the code 2**v
    below each is the same set without it.
    """
    import numpy as np

    flags = hitting_flags(n, masks)
    minimal = flags.copy()
    for v in range(n):
        minimal.reshape(-1, 2, 1 << v)[:, 1] &= ~flags.reshape(-1, 2, 1 << v)[:, 0]
    return np.flatnonzero(minimal).tolist()


def count_parent_closed(parents: Sequence[int]) -> int:
    """Number of vertex sets holding vertex 0 and closed under taking
    parents, where ``parents[v] < v`` is the parent of each vertex v >= 1.

    One doubling sweep over the vertices: vertex v joins exactly the sets
    that hold its parent.
    """
    import numpy as np

    table = np.empty(1 << (len(parents) - 1), dtype=np.int32)  # filled up to ``count``
    table[0] = 1  # vertex 0 alone
    count = 1
    for v, parent in enumerate(parents[1:], 1):
        sets = table[:count]
        held = sets[(sets & 1 << parent) != 0]
        np.bitwise_or(held, 1 << v, out=table[count : count + len(held)])
        count += len(held)
    return count


def strict_orders(n: int) -> list[list[tuple[int, int]]]:
    """The pair lists (u, v), meaning u < v, of every strict partial order
    on 0..n-1, from one filter over all 2**(n*(n-1)) relations: no
    antisymmetry violation and no transitivity gap."""
    import numpy as np

    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    index = {pair: k for k, pair in enumerate(pairs)}
    m = len(pairs)
    codes = np.arange(1 << m, dtype=np.int64)
    rel = ((codes[:, None] >> np.arange(m)) & 1).astype(bool)
    ok = np.ones(1 << m, dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            ok &= ~(rel[:, index[(i, j)]] & rel[:, index[(j, i)]])
    for i, j, k in itertools.permutations(range(n), 3):
        ok &= ~(rel[:, index[(i, j)]] & rel[:, index[(j, k)]] & ~rel[:, index[(i, k)]])
    return [
        [pairs[k] for k in np.flatnonzero(rel[code]).tolist()]
        for code in np.flatnonzero(ok).tolist()
    ]
