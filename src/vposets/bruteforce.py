"""The exhaustive oracle engine shared by every brute-force count.

Everything here inspects all subsets of an n-element ground set, so the
routines refuse inputs above SUBSET_BOUND.  Each question is one doubling
sweep over the elements: `antichain_sweep` builds every antichain, and
`hitting_flags` records, for every subset code, which chain bitmasks it
meets.  Both stay plain exhaustive sweeps, vectorised with numpy and
independent of the recursive polynomial definitions they are used to
cross-check.  SUBSET_BOUND is below 32, so an antichain's neighbourhood
union and its subset code share one int64 word.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import OracleBoundError

SUBSET_BOUND = 20

_LOW = (1 << 32) - 1
_CHUNK = 31  # chain masks per int32 hit word


def check_subset_bound(n: int, what: str = "input") -> None:
    if n > SUBSET_BOUND:
        raise OracleBoundError(
            f"{what} has {n} elements; the subset oracle bound is {SUBSET_BOUND}"
        )


def antichain_sweep(comp_rows: Sequence[int]) -> tuple[int, np.ndarray]:
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
    return count, words[(words & _LOW) == (1 << n) - 1] >> 32


def hitting_flags(n: int, masks: Iterable[int]) -> np.ndarray:
    """Flag per subset code 0..2**n-1: meets every one of the given bitmasks.

    One doubling sweep over the elements per chunk of 31 masks: entry c of
    an int32 table holds, as bits, the masks that subset c meets, and
    element k ORs in the masks that contain k.
    """
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
