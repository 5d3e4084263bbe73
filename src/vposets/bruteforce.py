"""The exhaustive oracle engine shared by every brute-force count.

Everything here inspects all subsets of an n-element ground set, so the
routines refuse inputs above SUBSET_BOUND.  `antichain_sweep` builds the
antichains by doubling over elements, and `hitting_flags` tests all 2**n
subset codes against chain bitmasks.  Both stay plain exhaustive sweeps,
vectorised with numpy and independent of the recursive polynomial
definitions they are used to cross-check.  SUBSET_BOUND is below 31, so
every subset code and neighbourhood union fits int32.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import OracleBoundError

SUBSET_BOUND = 20


def check_subset_bound(n: int, what: str = "input") -> None:
    if n > SUBSET_BOUND:
        raise OracleBoundError(
            f"{what} has {n} elements; the subset oracle bound is {SUBSET_BOUND}"
        )


def antichain_sweep(
    comp_rows: Sequence[int], weights: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Every antichain of a comparability relation, in one doubling sweep.

    ``comp_rows[k]`` is the bitmask of the elements comparable to k.  Each
    antichain is held as the union of its members' closed neighbourhoods.
    The members of an earlier antichain all have indices below k, so k joins
    it exactly when bit k of that union is clear, and each element doubles
    part of the table.  Returns the unions, one per antichain (so their
    number is the antichain count), a flag per antichain that is set when it
    is maximal (its union covers every element), and the sums of the given
    per-element weights, or None without them.  Weights ``1 << k`` make the
    sums the antichains' subset codes.
    """
    n = len(comp_rows)
    cover = np.zeros(1, dtype=np.int32)
    sums = None if weights is None else np.zeros(1, dtype=np.int32)
    for k, row in enumerate(comp_rows):
        keep = (cover & (1 << k)) == 0
        cover = np.concatenate((cover, cover[keep] | (row | (1 << k))))
        if sums is not None:
            sums = np.concatenate((sums, sums[keep] + weights[k]))
    return cover, cover == (1 << n) - 1, sums


def hitting_flags(n: int, masks: Iterable[int]) -> np.ndarray:
    """Flag per subset code 0..2**n-1: meets every one of the given bitmasks."""
    codes = np.arange(1 << n, dtype=np.int32)
    flags = np.ones(1 << n, dtype=bool)
    for mask in masks:
        flags &= (codes & mask) != 0
    return flags
