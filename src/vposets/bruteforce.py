"""The exhaustive oracle engine shared by every brute-force count.

Everything here inspects all subsets of an n-element ground set, so the
routines refuse inputs above SUBSET_BOUND.  `antichain_sweep` builds the
antichains by doubling over elements, and `hitting_flags` tests all 2**n
subset codes against chain bitmasks.  Both stay plain exhaustive sweeps,
vectorised with numpy and independent of the recursive polynomial
definitions they are used to cross-check.
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
    comp_rows: Sequence[int], weights: Sequence[Sequence[int]] = ()
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Every antichain of a comparability relation, in one doubling sweep.

    ``comp_rows[k]`` is the bitmask of the elements comparable to k.  The
    antichains that contain k are the earlier ones avoiding ``comp_rows[k]``,
    each with k added, so each element doubles part of the table.  The union
    of the members' closed neighbourhoods and the members' weight sums double
    alongside.  Returns the antichains as increasing int64 subset codes, a
    flag per antichain that is set when it is maximal (its neighbourhood
    covers every element), and one array of sums per weight vector.
    """
    n = len(comp_rows)
    codes = np.zeros(1, dtype=np.int64)
    cover = np.zeros(1, dtype=np.int64)
    sums = [np.zeros(1, dtype=np.int64) for _ in weights]
    for k, row in enumerate(comp_rows):
        keep = (codes & row) == 0
        codes = np.concatenate((codes, codes[keep] | (1 << k)))
        cover = np.concatenate((cover, cover[keep] | (row | (1 << k))))
        sums = [np.concatenate((s, s[keep] + w[k])) for s, w in zip(sums, weights)]
    return codes, cover == (1 << n) - 1, sums


def hitting_flags(n: int, masks: Iterable[int]) -> np.ndarray:
    """Flag per subset code 0..2**n-1: meets every one of the given bitmasks."""
    codes = np.arange(1 << n, dtype=np.int64)
    flags = np.ones(1 << n, dtype=bool)
    for mask in masks:
        flags &= (codes & mask) != 0
    return flags
