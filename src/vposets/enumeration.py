"""Counting V-posets: exact series, a constructive census, and asymptotics.

The number v_n of V-posets on n elements satisfies a multiset (Euler
transform) relation with the counts q_n of connected V-posets (those with a
greatest or least element):

    q_1 = 1,   q_n = 2*v_(n-1) - v_(n-2)   for n >= 2,
    c_k = sum of d*q_d over divisors d of k,
    n*v_n = sum of c_k * v_(n-k) for k = 1..n,   v_0 = 1.

All series arithmetic is integer-only; the division by n is asserted exact.
The c_k come from a divisor sieve, and the convolution is split by blocks of
64 indices.  The pairs (k, n-k) with both indices in complete blocks are
added ahead of time, one big-integer product (Kronecker substitution) per
square tile of block pairs, the tiles doubling in side away from the axes as
in relaxed multiplication (see `_tiles`).  Only the pairs with k < 64 or
n-k < 64 are multiplied one by one (see `v_series`).  At 64 the packed
products first become long enough for CPython's Karatsuba multiplication to
beat as many separate products, and a larger tile is a longer product, on
which Karatsuba saves more: at order 1200 the tiles take 60 products where
single block pairs took 153.

The census builds the posets as build traces by the argument behind q_n: a
connected V-poset on n >= 2 is a greatest element over any V-poset on n-1,
or a least element over one with no greatest element, and a V-poset is a
multiset of connected ones, listed by `trees.multisets` as the tree
generation lists forests.  Each class arises once, with no isomorphism
search, and the counts cross-check the multiset relation and the exact
division in `v_series`.  The caches hold traces; each call replays new
posets, so what the oracles keep on them stays out of the caches.

Asymptotically v_n grows like C * n**-1.5 * rho**-n where rho solves
R(rho) = 1/e for

    R(x) = x(1-x)(2-x) * exp( sum over m >= 2 of W(x**m)/m ),

W(x) = x(2-x)V(x) being the series with coefficients w_1 = 2, w_n = q_n.
The prefactor is C = sqrt(e*R'(rho)) / (sqrt(2*pi*rho) * (2-rho)).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from functools import lru_cache
from operator import add, mul

from ._record import Record
from .errors import OracleBoundError
from .posets import AddGreatest, AddLeast, BuildTrace, DisjointUnion, Empty, Poset, replay_trace
from .trees import multisets

CENSUS_BOUND = 8  # each class is built once: 8 takes 8 ms on a 2-core VM
SERIES_BOUND = 2000  # v_series is near cubic: 1.4-2.2 s at 2000 on a 2-core VM
# Indices per block of the packed convolution in `v_series`, by measurement
# of the tiles at order 1200: blocks of 48, 80 or 96 took 1.2 times as long
# as 64, and blocks of 32 or 128 1.04-1.08 times.
_BLOCK = 64
# The largest truncation order whose series fits in double precision with
# the derivative's weight: order * w_order passes the largest double at 536.
_FLOAT_ORDER_BOUND = 535

# Tail terms of the inner sum are dropped once x**m falls below this; the
# sum converges geometrically because x**2 stays well inside the radius.
_INNER_CUTOFF = 1e-18
# A series value stops adding at a term this far below the sum (and below
# the term before): at order 400 it reads 13 to 51 of the 401 terms, with
# rho, the prefactor and the bracket the same to the bit as the full sum.
_TAIL = 1e-19


class IntSeries(Record):
    """A truncated integer power series: coeffs[k] is exact for k <= order."""

    __slots__ = _fields = ("order", "coeffs")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if len(self.coeffs) != self.order + 1:
            raise ValueError("coefficient vector does not match the order")

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k]


def _check_order(order: int) -> None:
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > SERIES_BOUND:
        raise OracleBoundError(f"the series are bounded at order {SERIES_BOUND}")


def _connected(v: Sequence[int], n: int) -> int:
    """q_n for n >= 1, from the V-poset counts v_0..v_(n-1)."""
    return 1 if n == 1 else 2 * v[n - 1] - v[n - 2]


def v_series(order: int) -> IntSeries:
    """Counts of V-posets by size, v_0..v_order, via the integer recurrence.

    Step n adds n*q_n to every c_m with n | m, so c_k is whole once step k
    has run.  The sum n*v_n = sum of c_k * v_(n-k) splits by blocks of
    `_BLOCK` indices.  The pairs with k < _BLOCK or n-k < _BLOCK are two
    `sum(map(mul, ...))` calls at step n.  Every other pair has both indices
    in complete blocks I, J >= 1, and these block pairs are grouped into the
    square tiles of `_tiles`.  Tile (I, J, S) feeds only n >= (I+J)*_BLOCK,
    and its blocks are complete at step (max(I, J) + S)*_BLOCK - 1, before
    that n because S <= min(I, J).  So when block max(I, J) + S - 1
    completes, the tile is multiplied as two packed integers
    (`_block_product`), and its fields are added to `ahead`, which step n
    reads.  A tile and its mirror (J, I, S) are due together and are added
    in one pass.
    """
    _check_order(order)
    block = _BLOCK
    due: dict[int, list[tuple[int, int, int]]] = {}
    for i, j, s in _tiles(order):
        if i <= j:
            due.setdefault(j + s - 1, []).append((i, j, s))
    v = [1]
    c = [0] * (order + 1)
    ahead = [0] * (order + 1)
    for n in range(1, order + 1):
        dq = n * _connected(v, n)
        for m in range(n, order + 1, n):
            c[m] += dq
        low = min(block - 1, n)
        high = max(block, n - block + 1)
        total = ahead[n] + sum(map(mul, c[1 : low + 1], reversed(v[n - low : n])))
        ahead[n] = 0  # read once: free its integer
        if high <= n:
            total += sum(map(mul, c[high : n + 1], reversed(v[: n - high + 1])))
        if total % n:
            raise ArithmeticError(
                f"multiset recurrence produced a non-integer coefficient at n={n}"
            )
        v.append(total // n)
        if (n + 1) % block:
            continue
        for i, j, s in due.get(n // block, ()):  # block n // block ends at n
            base = (i + j) * block
            # Entries past order - base feed only fields past the order.
            size = min(s * block, order + 1 - base)
            a, b = i * block, j * block  # the tile's first c and v indices
            fields = _block_product(c[a : a + size], v[b : b + size])
            if i < j:
                fields = map(add, fields, _block_product(c[b : b + size], v[a : a + size]))
            stop = min(base + 2 * size - 1, order + 1)
            ahead[base:stop] = map(add, ahead[base:stop], fields)
    return IntSeries(order, tuple(v))


def _tiles(order: int) -> list[tuple[int, int, int]]:
    """The packed products of `v_series` at this order, as tiles (I, J, S)
    of c-blocks I..I+S-1 against v-blocks J..J+S-1, which hold every block
    pair (I, J) with I, J >= 1 and (I+J)*_BLOCK <= order exactly once.

    The sizes S are powers of two with S <= min(I, J): per S the square
    (S, S, S) and the strips (S, kS, S) and (kS, S, S) for k >= 2, as in
    van der Hoeven's relaxed multiplication ("Relax, but don't be too lazy",
    J. Symbolic Comput. 34, 2002), but never below one block.  A tile whose
    last block pair starts past the order is split into its four S/2
    quarters, and a tile that starts past the order is dropped."""
    tiles: list[tuple[int, int, int]] = []

    def place(i: int, j: int, s: int) -> None:
        if (i + j) * _BLOCK > order:
            return
        if (i + j + 2 * s - 2) * _BLOCK <= order:
            tiles.append((i, j, s))
            return
        h = s // 2
        for di, dj in ((0, 0), (0, h), (h, 0), (h, h)):
            place(i + di, j + dj, h)

    s = 1
    while 2 * s * _BLOCK <= order:
        place(s, s, s)
        k = 2
        while (k + 1) * s * _BLOCK <= order:
            place(s, k * s, s)
            place(k * s, s, s)
            k += 1
        s *= 2
    return tiles


def _block_product(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The convolution of two blocks of nonnegative integers, field k being
    the sum of a[i] * b[k-i], from one product of two packed integers.

    A field sums at most min(len(a), len(b)) products, each below
    2**(bits(max a) + bits(max b)), so a stride of those bits plus the bits
    of that count, rounded up to whole bytes, never carries into the next
    field."""
    terms = min(len(a), len(b))
    width = (max(a).bit_length() + max(b).bit_length() + terms.bit_length() + 7) // 8
    packed_a = int.from_bytes(b"".join([x.to_bytes(width, "little") for x in a]), "little")
    packed_b = int.from_bytes(b"".join([x.to_bytes(width, "little") for x in b]), "little")
    data = (packed_a * packed_b).to_bytes(width * (len(a) + len(b) - 1), "little")
    return [int.from_bytes(data[k : k + width], "little") for k in range(0, len(data), width)]


def q_series(order: int) -> IntSeries:
    """Counts of connected V-posets (with a greatest or least element)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    v = v_series(order).coeffs  # v[order] is unused but puts order under the bound
    return IntSeries(order, (0, *(_connected(v, n) for n in range(1, order + 1))))


def w_series(order: int) -> IntSeries:
    """Coefficients of x*(2-x)*V(x): the connected counts with w_1 = 2."""
    q = q_series(order)
    coeffs = list(q.coeffs)
    coeffs[1] = 2
    return IntSeries(order, tuple(coeffs))


# ----------------------------------------------------------------------
# constructive census

def connected_vposets(n: int) -> tuple[Poset, ...]:
    """One representative per isomorphism class of connected V-posets on n."""
    return tuple(map(replay_trace, _connected_of_size(n)))


@lru_cache(maxsize=None)
def _connected_of_size(n: int) -> tuple[BuildTrace, ...]:
    # Every generated poset with a greatest element is an AddGreatest, so
    # the class of a trace tells whether a least element may go under it.
    if n > CENSUS_BOUND:
        raise OracleBoundError(f"the census is bounded at {CENSUS_BOUND} elements")
    if n < 1:
        raise ValueError("connected posets have at least one element")
    below = _vposets_of_size(n - 1)
    return tuple(map(AddGreatest, below)) + tuple(
        AddLeast(t) for t in below if not isinstance(t, (Empty, AddGreatest))
    )


def all_vposets(n: int) -> tuple[Poset, ...]:
    """One representative per isomorphism class of V-posets on n elements."""
    return tuple(map(replay_trace, _vposets_of_size(n)))


@lru_cache(maxsize=None)
def _vposets_of_size(n: int) -> tuple[BuildTrace, ...]:
    if n > CENSUS_BOUND:
        raise OracleBoundError(f"the census is bounded at {CENSUS_BOUND} elements")
    if n < 0:
        raise ValueError("a poset has a nonnegative number of elements")
    if n == 0:
        return (Empty(),)
    return tuple(
        parts[0] if len(parts) == 1 else DisjointUnion(parts)
        for parts in multisets(_connected_of_size, n)
    )


def census(n_max: int) -> list[int]:
    """Exact counts of V-posets of sizes 1..n_max by explicit construction."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if n_max > CENSUS_BOUND:
        raise OracleBoundError(f"the census is bounded at {CENSUS_BOUND} elements")
    return [len(_vposets_of_size(k)) for k in range(1, n_max + 1)]


# ----------------------------------------------------------------------
# asymptotics

class AsymptoticResult(Record):
    """The root rho of R(x) = 1/e with its bracket, and the prefactor C, or
    None before `asymptotic_constant` computes it."""

    __slots__ = _fields = ("rho", "rho_inv", "constant", "truncation_order", "bracket_width")


@lru_cache(maxsize=4)  # one bisection evaluates one order
def _w_floats(order: int) -> tuple[float, ...]:
    _check_order(order)
    if order > _FLOAT_ORDER_BOUND:
        raise ValueError(f"truncation order {order} overflows double precision")
    return tuple(float(c) for c in w_series(order).coeffs)


def _series_value(coeffs: Iterable[float], x: float) -> float:
    """The sum of coeffs[k] * x**k, added from k = 0 up.  It stops at a term
    below _TAIL of the sum and smaller than the term before: where x lies
    inside the radius, the terms from there on shrink geometrically, and
    their sum is below the last bit of the total."""
    acc, power, last = 0.0, 1.0, math.inf
    for c in coeffs:
        term = abs(c * power)
        acc += c * power
        if term < _TAIL * abs(acc) and term < last:
            break
        last = term
        power *= x
    return acc


def w_value(x: float, order: int) -> float:
    """The truncated series x(2-x)V(x) evaluated at x, in double precision."""
    return _series_value(_w_floats(order), x)


def _w_deriv_value(x: float, order: int) -> float:
    coeffs = _w_floats(order)
    # Lazily, so that the terms past the stop are never multiplied.
    return _series_value(map(mul, range(1, len(coeffs)), coeffs[1:]), x)


def _inner_powers(x: float):
    """(m, x**m) for m = 2, 3, ... while x**m is at least _INNER_CUTOFF."""
    m = 2
    while (t := x**m) >= _INNER_CUTOFF:
        yield m, t
        m += 1


def r_value(x: float, order: int) -> float:
    """R(x) = x(1-x)(2-x) * exp(sum of W(x**m)/m over m >= 2), for x in
    [0, 1), where the powers x**m fall below the cutoff of the inner sum."""
    if not 0.0 <= x < 1.0:
        raise ValueError(f"R(x) is defined here for 0 <= x < 1, not {x!r}")
    inner = 0.0
    for m, t in _inner_powers(x):
        inner += w_value(t, order) / m
    return x * (1.0 - x) * (2.0 - x) * math.exp(inner)


def solve_rho(order: int = 100, tol: float = 1e-12) -> AsymptoticResult:
    """Bisect R(x) = 1/e on [0.2, 0.35]; the result lacks the prefactor."""
    if order < 60:
        raise ValueError("truncation order must be at least 60")
    if not tol >= 1e-12:  # also refuses nan, which compares false
        raise ValueError(f"tolerance must be at least 1e-12, not {tol!r}")
    lo, hi = 0.2, 0.35
    target = 1.0 / math.e
    f_lo = r_value(lo, order) - target
    f_hi = r_value(hi, order) - target
    if not (f_lo < 0.0 < f_hi):
        raise RuntimeError(
            "no sign change across the bracket [0.2, 0.35]; "
            "the truncation order is too low"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if r_value(mid, order) - target < 0.0:
            lo = mid
        else:
            hi = mid
    rho = 0.5 * (lo + hi)
    return AsymptoticResult(
        rho=rho,
        rho_inv=1.0 / rho,
        constant=None,
        truncation_order=order,
        bracket_width=hi - lo,
    )


def asymptotic_constant(order: int = 100, tol: float = 1e-12) -> AsymptoticResult:
    """Complete the asymptotic data with the multiplicative prefactor.

    R'(rho) comes from the logarithmic derivative of R rather than finite
    differences:  R'/R = 1/x - 1/(1-x) - 1/(2-x) + sum of x**(m-1) W'(x**m).
    """
    base = solve_rho(order, tol)
    rho = base.rho
    r = r_value(rho, order)
    inner = 0.0
    for m, t in _inner_powers(rho):
        inner += rho ** (m - 1) * _w_deriv_value(t, order)
    r_prime = r * (1.0 / rho - 1.0 / (1.0 - rho) - 1.0 / (2.0 - rho) + inner)
    constant = math.sqrt(math.e * r_prime) / (math.sqrt(2.0 * math.pi * rho) * (2.0 - rho))
    return AsymptoticResult(
        rho=rho,
        rho_inv=base.rho_inv,
        constant=constant,
        truncation_order=order,
        bracket_width=base.bracket_width,
    )


def asymptotic_estimate(n: int, result: AsymptoticResult) -> float:
    """The leading-order estimate constant * n**-1.5 * rho**-n.

    Returns +inf when rho**-n overflows double precision.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if result.constant is None:
        raise ValueError("result has no prefactor; use asymptotic_constant")
    try:
        return result.constant * n**-1.5 * result.rho ** (-n)
    except OverflowError:
        return math.inf
