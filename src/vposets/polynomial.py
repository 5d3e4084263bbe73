"""Exact sparse bivariate polynomial arithmetic over Python integers.

A polynomial in the variables x and y is stored as a mapping from exponent
pairs ``(i, j)`` to nonzero integer coefficients, so ``3*x^2*y^2`` is the
entry ``(2, 2): 3``.  Coefficients are plain Python integers, which keeps
every operation exact; counting evaluations routinely reach values such as
2**n for moderately large n and must not overflow.

Values are immutable after construction and all operations are pure
functions, so polynomials can be shared freely between threads.

The canonical text form sorts terms by descending y-exponent, breaking ties
by descending x-exponent; a unit coefficient is omitted, an exponent of one
is written bare, and factors are joined with ``*``.  The zero polynomial
prints as ``"0"``.

Tree and V-poset polynomials come from one recursion, which `build_poly`
evaluates over a flat post-order list of build steps run on a stack of
values: `EMPTY` pushes the empty poset (polynomial 1), `GREATEST` or `LEAST`
adds an element over the top value Q (x if Q is empty, else P(Q) + y**|Q|),
and any k >= 0 replaces the top k values by their disjoint union (the
product).  A first pass finds the sizes and m(root) = P(1,1), where m is 1
for the empty poset, multiplies over unions and grows by 1 when an element
is added to a nonempty value; it bounds every coefficient and partial
product.  The second pass works on packed rows, one Python integer per
x-degree with the y-coefficients in fixed w-bit fields (Kronecker
substitution in y), so a row product is one big-integer multiplication and
fields of w >= bit_length(m(root)) bits never carry into each other.  A
single element stays an x factor, applied as a row shift.  w is rounded up
to 8, 16, 32 or 64 bits, or beyond that to whole bytes, so most rows unpack
through machine-word views of their bytes; they are unpacked once, at the end.
"""

from __future__ import annotations

import struct
import sys
from math import prod
from operator import itemgetter
from typing import Mapping, Sequence


class BivariatePoly:
    """A sparse polynomial in x and y with exact integer coefficients."""

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        clean: dict[tuple[int, int], int] = {}
        if terms:
            for (i, j), c in terms.items():
                if not (isinstance(i, int) and isinstance(j, int)) or i < 0 or j < 0:
                    raise ValueError(f"invalid exponent pair {(i, j)!r}")
                if not isinstance(c, int):
                    raise ValueError(f"coefficient {c!r} is not an integer")
                if c:
                    clean[(i, j)] = c
        self._terms = clean
        self._hash: int | None = None

    @classmethod
    def _trusted(cls, terms: dict[tuple[int, int], int]) -> BivariatePoly:
        """Wrap a dict already known to hold valid exponents and nonzero
        integer coefficients; the dict is taken over, not copied."""
        poly = object.__new__(cls)
        poly._terms = terms
        poly._hash = None
        return poly

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls) -> BivariatePoly:
        return cls()

    @classmethod
    def one(cls) -> BivariatePoly:
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, coeff: int, x_exp: int = 0, y_exp: int = 0) -> BivariatePoly:
        """Single-term polynomial coeff * x**x_exp * y**y_exp (zero if coeff is 0)."""
        return cls({(x_exp, y_exp): coeff})

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: BivariatePoly) -> BivariatePoly:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0) + c
        return _nonzero(out)

    def __sub__(self, other: BivariatePoly) -> BivariatePoly:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0) - c
        return _nonzero(out)

    def __neg__(self) -> BivariatePoly:
        return BivariatePoly._trusted({key: -c for key, c in self._terms.items()})

    def __mul__(self, other: BivariatePoly | int) -> BivariatePoly:
        if isinstance(other, int):
            return _nonzero({key: c * other for key, c in self._terms.items()})
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return _nonzero(out)

    def __rmul__(self, other: int) -> BivariatePoly:
        if isinstance(other, int):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> BivariatePoly:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = BivariatePoly.one()
        for _ in range(exponent):
            result = result * self
        return result

    # ------------------------------------------------------------------
    # evaluation and substitution

    def evaluate(self, x0: int, y0: int) -> int:
        """Exact value of the polynomial at the integer point (x0, y0).

        A coordinate of 0 keeps only the terms where its exponent is 0, and
        a coordinate of 0 or 1 then contributes no factor, so no powers are
        taken for it.
        """
        terms = self._terms
        if x0 == 0 or y0 == 0:
            terms = {k: c for k, c in terms.items() if (x0 or not k[0]) and (y0 or not k[1])}
        if x0 == 0 or x0 == 1:
            if y0 == 0 or y0 == 1:
                return sum(terms.values())
            return sum(c * y0**j for (_, j), c in terms.items())
        if y0 == 0 or y0 == 1:
            return sum(c * x0**i for (i, _), c in terms.items())
        return sum(c * x0**i * y0**j for (i, j), c in terms.items())

    def specialize(self, x: int | None = None, y: int | None = None) -> BivariatePoly:
        """Substitute integers for one or both variables, collapsing terms."""
        out: dict[tuple[int, int], int] = {}
        for (i, j), c in self._terms.items():
            if x is not None:
                c, i = c * x**i, 0
            if y is not None:
                c, j = c * y**j, 0
            if c:
                key = (i, j)
                out[key] = out.get(key, 0) + c
        return _nonzero(out)

    # ------------------------------------------------------------------
    # inspection and formatting

    @property
    def term_map(self) -> dict[tuple[int, int], int]:
        return dict(self._terms)

    def canonical_triples(self) -> list[tuple[int, int, int]]:
        """Terms as [coeff, x_exp, y_exp] triples in canonical print order."""
        return [(c, i, j) for j, i, c in self._descending()]

    def _descending(self) -> list[tuple[int, int, int]]:
        # (y_exp, x_exp, coeff) in canonical order; exponent pairs are unique,
        # so the sort never compares coefficients.
        terms = self._terms
        ys, xs = map(itemgetter(1), terms), map(itemgetter(0), terms)
        return sorted(zip(ys, xs, terms.values()), reverse=True)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for j, i, coeff in self._descending():
            x = "x" if i == 1 else f"x^{i}" if i else ""
            y = "y" if j == 1 else f"y^{j}" if j else ""
            factors = f"{x}*{y}" if x and y else x or y
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = factors
            else:
                body = f"{mag}*{factors}"
            if not parts:
                parts.append(body if coeff > 0 else "-" + body)
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"BivariatePoly({str(self)!r})"


def _nonzero(terms: dict[tuple[int, int], int]) -> BivariatePoly:
    return BivariatePoly._trusted({key: c for key, c in terms.items() if c})


# ----------------------------------------------------------------------
# the build-step evaluator

# Build steps; any k >= 0 is the disjoint union of the top k values (k = 1 is a no-op).
EMPTY, GREATEST, LEAST = -1, -2, -3


def build_poly(steps: Sequence[int]) -> BivariatePoly:
    """Polynomial of the poset that build steps make; they must leave one value."""
    # First pass: sizes and bounds m of the values, the size under every add
    # step, and m(root) = P(1,1).
    sizes, bounds, below = [], [], []
    for step in steps:
        if step == EMPTY:
            sizes.append(0)
            bounds.append(1)
        elif step < 0:
            below.append(sizes[-1])
            bounds[-1] += sizes[-1] > 0
            sizes[-1] += 1
        elif step != 1:
            sizes[len(sizes) - step:] = [sum(sizes[len(sizes) - step:])]
            bounds[len(bounds) - step:] = [prod(bounds[len(bounds) - step:])]
    (bound,) = bounds
    width = _field_bytes(bound) * 8
    # Second pass: a value is an int p for x**p (an antichain), else rows.
    stack: list = []
    adds = iter(below)
    for step in steps:
        if step == EMPTY:
            stack.append(0)
        elif step < 0:
            s = next(adds)
            if s:
                rows = stack[-1]
                if rows.__class__ is int:
                    rows = [0] * rows + [1]
                rows[0] += 1 << (width * s)
                stack[-1] = rows
            else:
                stack[-1] = 1
        elif step != 1:
            points, rows = 0, None
            for value in stack[len(stack) - step:]:
                if value.__class__ is int:
                    points += value
                else:
                    rows = value if rows is None else _mul_rows(rows, value)
            del stack[len(stack) - step:]
            stack.append(points if rows is None else [0] * points + rows)
    rows = stack[0]
    if rows.__class__ is int:
        rows = [0] * rows + [1]
    return _unpack_rows(rows, width // 8)


def _mul_rows(a: list[int], b: list[int]) -> list[int]:
    # Row k of the product is sum(a[i] * b[k - i]); no field can carry.
    out = [0] * (len(a) + len(b) - 1)
    nonzero_b = [(j, rb) for j, rb in enumerate(b) if rb]
    for i, ra in enumerate(a):
        if ra:
            for j, rb in nonzero_b:
                out[i + j] += ra * rb
    return out


# Machine-word formats that unpack a row's bytes into fields in C, and the
# field size in bytes to use for coefficients of up to 0..8 bytes.
_WORD_FORMATS = {struct.calcsize(f): f for f in "BHIQ"}
_FIELD_BYTES = [min(b for b in _WORD_FORMATS if b >= need) for need in range(9)]


def _field_bytes(bound: int) -> int:
    """Bytes per field for coefficients up to ``bound``: the smallest machine
    word that holds them, else as many bytes as they need."""
    need = (bound.bit_length() + 7) // 8
    return _FIELD_BYTES[need] if need <= 8 else need


def _unpack_rows(rows: list[int], field_bytes: int) -> BivariatePoly:
    terms: dict[tuple[int, int], int] = {}
    fmt = _WORD_FORMATS.get(field_bytes)
    for i, row in enumerate(rows):
        if not row:
            continue
        fields = -(-row.bit_length() // (8 * field_bytes))
        data = row.to_bytes(fields * field_bytes, sys.byteorder)
        if fmt is not None:
            coeffs = data if field_bytes == 1 else memoryview(data).cast(fmt)
        else:
            coeffs = [
                int.from_bytes(data[k : k + field_bytes], sys.byteorder)
                for k in range(0, len(data), field_bytes)
            ]
        for j, c in enumerate(coeffs):
            if c:
                terms[(i, j)] = c
    return BivariatePoly._trusted(terms)


X = BivariatePoly.monomial(1, 1, 0)
Y = BivariatePoly.monomial(1, 0, 1)
