"""Exact bivariate polynomial arithmetic over Python integers.

A polynomial in the variables x and y is stored as rows, one per x-degree
with a nonzero term, by ascending x-degree.  The row ``(i, o, (c0, ..., ck))``
is x^i * (c0 * y^o + ... + ck * y^(o+k)) with c0 and ck nonzero, so each
polynomial has one form, and x^(10**6) is one coefficient.  Ring operations
work on the sparse terms of `term_map`.  Coefficients are plain Python
integers, which keeps every operation exact; counting evaluations routinely
reach values such as 2**n for moderately large n and must not overflow.

Values are immutable after construction and all operations are pure
functions.  A polynomial keeps the values of its rows at the last int y
that `evaluate` or `specialize` computed them for, as one ``(y, values)``
tuple outside equality, hashing, repr and pickling, so the evaluations at
one y read each coefficient once.  The tuple is read once and replaced
whole, so polynomials can still be shared freely between threads: a race
can only compute the values again, never mix the values of two different y.

The canonical text form lists terms by descending y-exponent, breaking ties
by descending x-exponent; a unit coefficient is omitted, an exponent of one
is written bare, and factors are joined with ``*``.  The zero polynomial
prints as ``"0"``.  One pass over the rows from the highest x-degree down
files each term under its y-exponent, and the buckets are joined by
descending y-exponent, so no term is sorted; only the y-exponents that hold
a term get a bucket.  The y factors up to a fixed degree come from a
module-level table, and the x factor is built once per row.  Each term is
written with its signed coefficient, ``c*factors``, and the joined text is
rewritten twice: ``-1*`` becomes ``-`` and ``+ -`` becomes ``- ``.

Tree and V-poset polynomials come from one recursion, which `build_poly`
evaluates over a flat post-order list of build steps run on a stack of
values: `EMPTY` pushes the empty poset (polynomial 1), `GREATEST` or `LEAST`
adds an element over the top value Q (x if Q is empty, else P(Q) + y**|Q|),
and any k >= 0 replaces the top k values by their disjoint union (the
product).  A first pass finds the sizes and m(root) = P(1,1), where m is 1
for the empty poset, multiplies over unions and grows by 1 when an element
is added to a nonempty value; it bounds every coefficient and partial
product.  The second pass runs the steps again on a local stack of packed
rows, kept from the highest x-degree down to 0 (None where a degree has no
term): the pair (o, r) holds the coefficients of y^o, y^(o+1), ... in the
fixed w-bit fields of the Python integer r (Kronecker substitution in y),
and its lowest field is nonzero, so a row carries its own y-offset and no
zero padding below its first term.  A row product adds the offsets and is
one big-integer multiplication of the packed parts; a sum shifts the part
with the higher offset up by w bits per degree of difference.  Fields of
w >= bit_length(m(root)) bits never carry into each other.  A single
element stays an x factor, applied by appending empty rows, and an added
element's term goes into the last row, so neither copies the row list.  w
is rounded up to 8, 16, 32 or 64 bits, or beyond that to whole bytes, so
most packed rows become coefficient rows through machine-word views of
their bytes.
"""

from __future__ import annotations

import operator
import struct
import sys
from collections import Counter
from collections.abc import Mapping, Sequence
from itertools import chain, zip_longest
from math import prod

# The y factors of the canonical text up to y^255; higher ones are formatted
# where they occur.
_Y_TABLE = 256
_Y_FACTORS = ("", "y", *[f"y^{j}" for j in range(2, _Y_TABLE)])


def _canonical_rows(terms: Mapping[tuple[int, int], int]) -> tuple:
    """The rows of valid terms with nonzero coefficients, by ascending
    x-degree, each from its lowest to its highest y-exponent."""
    by_degree: dict[int, dict[int, int]] = {}
    for (i, j), c in terms.items():
        by_degree.setdefault(i, {})[j] = c
    rows = []
    for i in sorted(by_degree):
        column = by_degree[i]
        low = min(column)
        coeffs = [0] * (max(column) + 1 - low)
        for j, c in column.items():
            coeffs[j - low] = c
        rows.append((i, low, tuple(coeffs)))
    return tuple(rows)


class BivariatePoly:
    """A polynomial in x and y with exact integer coefficients.  ``_at``
    holds ``(y, row values)`` from the last int y asked, or None."""

    __slots__ = ("_rows", "_at")

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None):
        checked: dict[tuple[int, int], int] = {}
        for (i, j), c in (terms or {}).items():
            if not (isinstance(i, int) and isinstance(j, int)) or i < 0 or j < 0:
                raise ValueError(f"invalid exponent pair {(i, j)!r}")
            if not isinstance(c, int):
                raise ValueError(f"coefficient {c!r} is not an integer")
            if c:
                # int() stores a bool as the int it equals, so it prints as one.
                checked[int(i), int(j)] = int(c)
        self._rows = _canonical_rows(checked)
        self._at = None

    @classmethod
    def _from_terms(cls, terms: Mapping[tuple[int, int], int]) -> BivariatePoly:
        """Build from terms known to be valid, unchecked: nonnegative int
        exponent pairs and nonzero int coefficients."""
        return cls._trusted(_canonical_rows(terms))

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, int, tuple[int, ...]], ...]) -> BivariatePoly:
        """Wrap rows already in canonical form; the tuple is taken over."""
        poly = object.__new__(cls)
        poly._rows = rows
        poly._at = None
        return poly

    def __reduce__(self):
        return BivariatePoly._trusted, (self._rows,)

    def __setstate__(self, state) -> None:
        # Pickles written before `__reduce__` carry the slots as
        # (None, {"_rows": rows, ...}); only the rows are read.
        self._rows = state[1]["_rows"]
        self._at = None

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
        terms = Counter(self.term_map)
        terms.update(other.term_map)
        return BivariatePoly(terms)

    def __sub__(self, other: BivariatePoly) -> BivariatePoly:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self + -other

    def __neg__(self) -> BivariatePoly:
        return self * -1

    def __mul__(self, other: BivariatePoly | int) -> BivariatePoly:
        if isinstance(other, int):
            return BivariatePoly({key: c * other for key, c in self.term_map.items()})
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        terms: Counter = Counter()
        for (i1, j1), c1 in self.term_map.items():
            for (i2, j2), c2 in other.term_map.items():
                terms[(i1 + i2, j1 + j2)] += c1 * c2
        return BivariatePoly(terms)

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

        The row values at y0 (see `_row_values`) are combined in x: x0 = 1
        sums them, x0 = 0 takes the row of x-degree 0, and any other x0 runs
        Horner's rule over them; a numpy integer counts as the int it equals.
        """
        if x0.__class__ is not int or y0.__class__ is not int:
            x0, y0 = _as_int(x0), _as_int(y0)
        rows = self._rows
        if x0 == 0 and (not rows or rows[0][0]):
            return 0
        values = self._row_values(y0)
        if x0 == 0:
            return values[0]
        if x0 == 1:
            return sum(values)
        value, last = 0, rows[-1][0] if rows else 0
        for (i, _, _), v in zip(reversed(rows), reversed(values)):
            value = value * x0 ** (last - i) + v
            last = i
        return value * x0**last

    def _row_values(self, y0: int) -> tuple[int, ...]:
        """The value of each row at y0, kept until another y is asked.  Only
        an int y0 is kept, so a float y that equals it never hands its
        inexact values to an exact query."""
        exact = y0.__class__ is int
        at = self._at
        if exact and at is not None and at[0] == y0:
            return at[1]
        values = tuple([_row_value(off, cs, y0) for _, off, cs in self._rows])
        if exact:
            self._at = (y0, values)
        return values

    def specialize(self, x: int | None = None, y: int | None = None) -> BivariatePoly:
        """Substitute integers, of any integer type, for one or both
        variables, collapsing terms; any other value raises ValueError."""
        x, y = _as_int(x), _as_int(y)
        if not {x.__class__, y.__class__} <= {int, type(None)}:
            raise ValueError(f"only integers can be substituted, not {x!r}, {y!r}")
        rows = self._rows
        if y is not None:
            rows = tuple((row[0], 0, (c,)) for row, c in zip(rows, self._row_values(y)) if c)
        if x is None or not rows:
            return BivariatePoly._trusted(rows)
        low = min([off for _, off, _ in rows])
        weighted = [
            (0,) * (off - low) + (cs if (w := x**i) == 1 else tuple([c * w for c in cs]))
            for i, off, cs in rows
        ]
        sums = list(map(sum, zip_longest(*weighted, fillvalue=0)))
        nonzero = [k for k, c in enumerate(sums) if c]
        if not nonzero:
            return BivariatePoly()
        first, last = nonzero[0], nonzero[-1] + 1
        return BivariatePoly._trusted(((0, low + first, tuple(sums[first:last])),))

    # ------------------------------------------------------------------
    # inspection and formatting

    @property
    def term_map(self) -> dict[tuple[int, int], int]:
        return {(i, j): c for i, off, cs in self._rows for j, c in enumerate(cs, off) if c}

    def canonical_triples(self) -> list[tuple[int, int, int]]:
        """Terms as [coeff, x_exp, y_exp] triples in canonical print order:
        by descending y-exponent, then by descending x-exponent."""
        triples = [(c, i, j) for (i, j), c in self.term_map.items()]
        return sorted(triples, key=lambda t: (-t[2], -t[1]))

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __str__(self) -> str:
        # Terms go into buckets by y-exponent, rows read from the highest
        # x-degree down, which gives the order of `canonical_triples`.  Each is
        # written with its signed coefficient; the joined text then drops
        # the unit of "-1*" and turns "+ -" into "- ".
        buckets: dict[int, list[str]] = {}
        get = buckets.get
        ys, top = _Y_FACTORS, _Y_TABLE
        for i, off, cs in reversed(self._rows):
            x = "x" if i == 1 else f"x^{i}" if i else ""
            terms = iter(cs)
            if off == 0:
                # A row's first coefficient is nonzero; here it has no y factor.
                c = next(terms)
                buckets.setdefault(0, []).append(str(c) if not x else x if c == 1 else f"{c}*{x}")
                off = 1
            x_times = f"{x}*" if x else ""
            for j, c in enumerate(terms, off):
                if c:
                    y = ys[j] if j < top else f"y^{j}"
                    term = x_times + y if c == 1 else f"{c}*{x_times}{y}"
                    bucket = get(j)
                    if bucket is None:
                        buckets[j] = [term]
                    else:
                        bucket.append(term)
        if not buckets:
            return "0"
        text = " + ".join(chain.from_iterable([buckets[j] for j in sorted(buckets, reverse=True)]))
        return text.replace("-1*", "-").replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"BivariatePoly({str(self)!r})"


def _as_int(value):
    """An integer of another type (numpy's wrap at 64 bits) as an int, else the value."""
    return operator.index(value) if hasattr(value, "__index__") else value


def _row_value(off: int, coeffs: Sequence[int], y0: int) -> int:
    """y0**off * (coeffs[0] + coeffs[1]*y0 + ...): a sum for y0 = 1, the
    constant field for y0 = 0, else Horner's rule, or one power per term
    where a row longer than 64 is mostly zeros (Horner there is quadratic in
    length; on shorter rows the count of zeros costs more than it saves)."""
    if y0 == 1:
        return sum(coeffs)
    if y0 == 0:
        return coeffs[0] if off == 0 else 0
    if len(coeffs) > 64 and 2 * coeffs.count(0) > len(coeffs):
        return sum(c * y0**j for j, c in enumerate(coeffs, off) if c)
    value = 0
    for c in reversed(coeffs):
        value = value * y0 + c
    return value * y0**off


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
    # Second pass: a value is an int p for x**p (an antichain), else a list
    # of packed rows from the highest x-degree down to 0, each None or
    # (y-offset, packed), so an x factor appends and an add step writes the
    # last row.
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
                    rows = [(0, 1)] + [None] * rows
                row = rows[-1]
                if row is None:
                    rows[-1] = (s, 1)
                else:
                    off, packed = row
                    rows[-1] = (off, packed + (1 << (width * (s - off))))
                stack[-1] = rows
            else:
                stack[-1] = 1
        elif step != 1:
            points, rows = 0, None
            for value in stack[len(stack) - step:]:
                if value.__class__ is int:
                    points += value
                else:
                    rows = value if rows is None else _mul_rows(rows, value, width)
            del stack[len(stack) - step:]
            if rows is None:
                rows = points
            else:
                rows += [None] * points
            stack.append(rows)
    (rows,) = stack
    if rows.__class__ is int:
        return BivariatePoly.monomial(1, rows, 0)
    return _unpack_rows(rows, width // 8)


def _mul_rows(a: list, b: list, width: int) -> list:
    # Row k of the product is sum(a[i] * b[k - i]); no field can carry.  The
    # lists may run either way in x-degree, since reversed lists convolve to
    # the reversed list.  A product adds the offsets, and a sum shifts the
    # part with the higher offset up to the lower one.
    out: list = [None] * (len(a) + len(b) - 1)
    nonzero_b = [(j, row[0], row[1]) for j, row in enumerate(b) if row is not None]
    for i, row_a in enumerate(a):
        if row_a is not None:
            off_a, packed_a = row_a
            for j, off_b, packed_b in nonzero_b:
                k = i + j
                row = out[k]
                if row is None:
                    out[k] = (off_a + off_b, packed_a * packed_b)
                else:
                    low, packed = row
                    off = off_a + off_b
                    if off < low:
                        out[k] = (off, packed_a * packed_b + (packed << (width * (low - off))))
                    else:
                        out[k] = (low, packed + (packed_a * packed_b << (width * (off - low))))
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


def _unpack_rows(rows: list, field_bytes: int) -> BivariatePoly:
    """Coefficient rows from packed ones kept from the highest x-degree
    down, each read from its y-offset up."""
    width = 8 * field_bytes
    fmt = _WORD_FORMATS.get(field_bytes)
    out = []
    for i, row in enumerate(reversed(rows)):
        if row is None:
            continue
        off, packed = row
        data = packed.to_bytes(-(-packed.bit_length() // width) * field_bytes, sys.byteorder)
        if fmt is None:
            coeffs = tuple(
                int.from_bytes(data[k : k + field_bytes], sys.byteorder)
                for k in range(0, len(data), field_bytes)
            )
        else:
            coeffs = tuple(data if field_bytes == 1 else memoryview(data).cast(fmt).tolist())
        out.append((i, off, coeffs))
    return BivariatePoly._trusted(tuple(out))


X = BivariatePoly.monomial(1, 1, 0)
Y = BivariatePoly.monomial(1, 0, 1)
