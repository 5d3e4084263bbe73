"""Finite posets, V-poset recognition, basic elements, and poset polynomials.

A V-poset is any poset obtainable from the empty poset by disjoint unions
and by adding a new greatest or least element; equivalently, any poset with
no induced N pattern and no induced bowtie.  Both characterisations are
implemented: `decompose` builds a construction certificate, `find_forbidden`
hunts for a witness quadruple, and `is_v_poset` returns whichever applies.

Conventions:
  - Elements are 0..n-1.  The strict order is stored as transitively closed
    up and down bitmask rows: bit v of ``up_mask(u)`` means u < v.  Nothing
    stores comparability: it is ``up | down``, derived where it is read.
  - `from_covers` alone decides whether relation pairs form a strict order:
    one Kahn pass closes them or names a self-relation or a cycle.
    `Poset(n, rows)`, pickles, `parse_poset` and `all_labeled_posets` all go
    through it.  A derived poset swaps, shifts or extends the rows of the
    posets it comes from and hands both tuples to `Poset._wrap` unchecked.
  - Instances are immutable; equality and hashing are by labeled relation.
    Use `poset_isomorphic` for equality up to relabeling.
  - Nothing recurses: a build trace is a flat post-order tuple of the step
    codes of `polynomial`, walked by one loop, and recognition peels extreme
    elements off the components of a live-element mask over the poset's own
    rows, so it builds no sub-poset.
  - The basic-element axioms are decided by row sizes, in O(n) row
    operations: a nonempty down row is a chain exactly when it holds a
    member whose down row is one smaller and is a chain, and that member is
    its top; a twin below x is that top when its up row is one larger than
    x's.  Up rows are the dual.
  - The brute-force oracles hand rows and cover rows to the exhaustive
    sweeps of `bruteforce` and read back plain ints.  A poset keeps its
    certificate, the mask of its basic elements, its two row-size tables and
    the answers of its one antichain sweep when first asked: the antichain
    count and the subset codes of the maximal antichains, P(1,1) of them,
    never 2**n.  The size tables are built once and serve recognition, the
    chain tops of the basic-element axioms and the extreme elements.  The
    basic mask serves the statuses, the region sets, the basic-free count
    and the expansion.  All of it stays outside equality, hashing, repr and
    pickling.
  - A rooted tree is a V-poset: `tree_to_poset` builds its rows, and each
    tree oracle (`count_*_tree`, `maximal_antichains_tree`,
    `antichain_expansion_tree`, `count_root_subtrees`) is the poset oracle
    on it.  The build steps come from `trees`, which needs nothing here.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence

from . import bruteforce
from ._record import Record
from .bruteforce import _bits
from .errors import NotVPosetError, OracleBoundError, ParseError
from .polynomial import EMPTY, GREATEST, LEAST, BivariatePoly, build_poly
from .trees import RootedTree, _tree_steps

ISOMORPHISM_BOUND = 8
LABELED_BOUND = 5
# Candidate sums of monomials `impossibility_search` may try: about 2 s at
# the million a second it checks (CPython 3.11, 2-core x86-64).
IMPOSSIBILITY_BOUND = 2_000_000

BASIC = "basic"
UPPER = "upper"
LOWER = "lower"
OTHER = "other"


class _CycleError(ValueError):
    def __init__(self, element: int):
        super().__init__(f"the relations contain a cycle through element {element}")
        self.element = element


class Poset:
    """A strict order on 0..n-1, stored as its up and down rows only;
    comparability is their OR, derived where it is read.  ``_cert``,
    ``_status`` (the basic mask, see `_basic`), ``_by_size`` (see
    `_size_tables`) and ``_facts`` hold the answers kept on first use."""

    __slots__ = ("n", "_up", "_down", "_cert", "_status", "_by_size", "_facts")
    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    def __init__(self, n: int, up_masks: Sequence[int]):
        up = tuple(up_masks)
        if len(up) != n:
            raise ValueError(f"expected {n} relation rows, got {len(up)}")
        if any(row >> n for row in up):
            raise ValueError("relation references elements out of range")
        closed = Poset.from_covers(n, [(u, v) for u in range(n) for v in _bits(up[u])])
        if closed._up != up:
            u = next(u for u in range(n) if closed._up[u] != up[u])
            raise ValueError(f"relation row {u} is not transitively closed")
        self._fill(n, up, closed._down)

    @classmethod
    def _wrap(cls, n: int, up: tuple[int, ...], down: Sequence[int]) -> Poset:
        """Wrap up rows and their down rows, known to form a transitively
        closed strict order, unchecked."""
        p = object.__new__(cls)
        p._fill(n, up, down)
        return p

    def _fill(self, n: int, up: tuple[int, ...], down: Sequence[int]) -> None:
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_up", up)
        object.__setattr__(self, "_down", tuple(down))
        for name in ("_cert", "_status", "_by_size", "_facts"):
            object.__setattr__(self, name, None)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def empty(cls) -> Poset:
        return cls(0, ())

    @classmethod
    def from_covers(cls, n: int, covers: Iterable[tuple[int, int]]) -> Poset:
        """Build from (u, v) pairs meaning u < v; the closure is computed.

        It follows a topological order (Kahn, 1962), which makes the rows
        valid: up rows from the top down, down rows from the bottom up.
        """
        if n < 0:
            raise ValueError("a poset has a nonnegative number of elements")
        above: list[list[int]] = [[] for _ in range(n)]
        waiting = [0] * n  # pairs below each element not yet in the order
        for u, v in covers:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"relation ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-relation on element {u}")
            above[u].append(v)
            waiting[v] += 1
        order = [u for u in range(n) if not waiting[u]]
        for u in order:
            for v in above[u]:
                waiting[v] -= 1
                if not waiting[v]:
                    order.append(v)
        if len(order) < n:
            # Every element left out has one left out below it, so stepping
            # down among them comes round to a cycle.
            below = {v: u for u in range(n) if waiting[u] for v in above[u] if waiting[v]}
            u, seen = next(iter(below)), set()
            while u not in seen:
                seen.add(u)
                u = below[u]
            raise _CycleError(u)
        up, down = [0] * n, [0] * n
        for u in reversed(order):
            # A pair the row holds already is implied by the kept ones.
            row, kept = 0, []
            for v in above[u]:
                if not row >> v & 1:
                    row |= up[v] | 1 << v
                    kept.append(v)
            up[u], above[u] = row, kept
        for u in order:
            for v in above[u]:
                down[v] |= down[u] | (1 << u)
        return cls._wrap(n, tuple(up), down)

    @classmethod
    def disjoint_union(cls, posets: Iterable["Poset"]) -> Poset:
        up: list[int] = []
        down: list[int] = []
        offset = 0
        for p in posets:
            up.extend(r << offset for r in p._up)
            down.extend(r << offset for r in p._down)
            offset += p.n
        return cls._wrap(offset, tuple(up), down)

    # ------------------------------------------------------------------
    # relation queries

    def up_mask(self, u: int) -> int:
        return self._up[u]

    def down_mask(self, u: int) -> int:
        return self._down[u]

    def comp_mask(self, u: int) -> int:
        return self._up[u] | self._down[u]

    def less(self, u: int, v: int) -> bool:
        return bool((self._up[u] >> v) & 1)

    def comparable(self, u: int, v: int) -> bool:
        return bool((self.comp_mask(u) >> v) & 1)

    @property
    def relation_count(self) -> int:
        return sum(r.bit_count() for r in self._up)

    def covers(self) -> list[tuple[int, int]]:
        """All (u, v) where v covers u (u < v with nothing in between), by u, then v."""
        return [(u, v) for u, row in enumerate(_cover_rows(self)) for v in _bits(row)]

    def greatest_element(self) -> int | None:
        """The element with all n - 1 others below it, or None: the one
        member of the kept down-row size n - 1."""
        top = _size_tables(self)[0].get(self.n - 1, 0)
        return top.bit_length() - 1 if top else None

    def least_element(self) -> int | None:
        """The element with all n - 1 others above it, or None: the one
        member of the kept up-row size n - 1."""
        bottom = _size_tables(self)[1].get(self.n - 1, 0)
        return bottom.bit_length() - 1 if bottom else None

    # ------------------------------------------------------------------
    # derived posets

    def add_greatest(self) -> Poset:
        n = self.n
        up = tuple(r | 1 << n for r in self._up) + (0,)
        return Poset._wrap(n + 1, up, self._down + ((1 << n) - 1,))

    def add_least(self) -> Poset:
        n = self.n
        down = tuple(r | 1 << n for r in self._down) + (0,)
        return Poset._wrap(n + 1, self._up + ((1 << n) - 1,), down)

    def dual(self) -> Poset:
        """The same ground set with the order reversed: the up and down rows swap."""
        return Poset._wrap(self.n, self._down, self._up)

    # ------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.n == other.n and self._up == other._up

    def __hash__(self) -> int:
        return hash((self.n, self._up))

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, covers={self.covers()!r})"

    def __reduce__(self):
        return Poset.from_covers, (self.n, self.covers())


def _cover_rows(p: Poset) -> list[int]:
    """Per element, the mask of its upper covers, the minimal members of its
    up row: a step down from the lowest member left reaches one, and the
    members above it leave the search.  Lower covers: ``_cover_rows(p.dual())``."""
    rows = []
    for left in p._up:
        row = 0
        while left:
            v = (left & -left).bit_length() - 1
            while p._down[v] & left:
                v = (p._down[v] & left).bit_length() - 1
            row |= 1 << v
            left &= ~(p._up[v] | 1 << v)
        rows.append(row)
    return rows


def _sizes(rows: Sequence[int], members: int) -> dict[int, int]:
    """Per row size k, the mask of the members whose row holds k members."""
    table: dict[int, int] = {}
    for u, digit in enumerate(bin(members)[:1:-1]):  # via `_bits`, recognition is 3-7 % slower
        if digit == "1":
            k = (rows[u] & members).bit_count()
            table[k] = table.get(k, 0) | 1 << u
    return table


def _size_tables(p: Poset) -> tuple[dict[int, int], dict[int, int]]:
    """The `_sizes` tables of the down rows and of the up rows over all
    elements, built on first use and kept on ``p``."""
    if p._by_size is None:
        full = (1 << p.n) - 1
        object.__setattr__(p, "_by_size", (_sizes(p._down, full), _sizes(p._up, full)))
    return p._by_size


def _components(p: Poset, live: int) -> Iterator[tuple[int, int]]:
    """Components of the comparability graph on ``live``, by least element
    k, each as (mask >> k, k): a singleton high up then costs one bit.  Each
    flooding round ORs the rows of the elements last added, or keeps the
    elements left that touch the component, whichever are fewer."""
    up, down = p._up, p._down
    left = live.bit_count()  # live elements in no component yet
    while live:
        low = (live & -live).bit_length() - 1
        seen = frontier = 1 << low
        new, left = 1, left - 1
        while new and left:
            grown = 0
            if new <= left:
                for v in _bits(frontier):
                    grown |= up[v] | down[v]
            else:
                for v in _bits(live & ~seen):
                    if (up[v] | down[v]) & seen:
                        grown |= 1 << v
            frontier = grown & live & ~seen
            seen |= frontier
            left -= (new := frontier.bit_count())
        live ^= seen
        yield seen >> low, low


def parse_poset(text: str) -> Poset:
    """Parse "n" on the first line, then "u v" relation lines (1-indexed, u < v)."""
    lines = text.splitlines()
    entries: list[tuple[int, str]] = [
        (no, line.strip()) for no, line in enumerate(lines, start=1) if line.strip()
    ]
    if not entries:
        raise ParseError("empty input: expected an element count on the first line")
    first_no, first = entries[0]
    try:
        n = int(first)
    except ValueError:
        raise ParseError(f"line {first_no}: expected an element count, got {first!r}") from None
    if n < 0:
        raise ParseError(f"line {first_no}: element count must be nonnegative")
    covers = []
    for no, line in entries[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {no}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"line {no}: expected two integers, got {line!r}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"line {no}: element index out of range 1..{n}")
        if u == v:
            raise ParseError(f"line {no}: self-relation on element {u}")
        covers.append((u - 1, v - 1))
    try:
        return Poset.from_covers(n, covers)
    except _CycleError as exc:
        # Number the element from 1, as the file does.
        raise ParseError(str(_CycleError(exc.element + 1))) from None


# ----------------------------------------------------------------------
# construction certificates

class BuildTrace(Record):
    """Recipe that rebuilds a poset: a flat post-order tuple of build steps.

    The steps run on a stack of posets, as `polynomial.build_poly` describes,
    and every walk over them is one loop, so traces thousands of steps deep
    are fine.  A trace is an instance of the subclass its last step names,
    and it is read-only, since equality and hashing read the steps.  It
    pickles through `_trace`, since the subclasses' constructors take other
    arguments.
    """

    __slots__ = _fields = ("steps",)

    @property
    def size(self) -> int:
        return self.steps.count(GREATEST) + self.steps.count(LEAST)

    @property
    def parts(self) -> tuple[BuildTrace, ...]:
        """The traces the last step works on."""
        steps = self.steps[:-1]
        lengths = _run(steps, 1, lambda _, k: k + 1, lambda ks: sum(ks) + 1)
        ends = itertools.accumulate(lengths)
        return tuple(_trace(steps[end - k:end]) for k, end in zip(lengths, ends))

    def to_sexpr(self) -> str:
        return _run(
            self.steps, "empty", lambda step, text: f"({_CLASSES[step].TAG} {text})",
            lambda texts: f"({DisjointUnion.TAG} {' '.join(texts)})",
        )[0]

    def __repr__(self) -> str:
        return _run(
            self.steps, "Empty()", lambda step, text: f"{_CLASSES[step].__name__}(inner={text})",
            lambda texts: f"DisjointUnion(parts=({', '.join(texts)}{',' * (len(texts) == 1)}))",
        )[0]

    def __reduce__(self):
        return _trace, (self.steps,)


def _run(steps: Sequence[int], empty, add, union) -> list:
    """The values the steps leave on a stack: ``empty`` for `EMPTY`,
    ``add(step, top value)`` for an add step, ``union(top k values)`` for k."""
    stack = []
    for step in steps:
        if step == EMPTY:
            stack.append(empty)
        elif step < 0:
            stack[-1] = add(step, stack[-1])
        else:
            stack[len(stack) - step:] = [union(stack[len(stack) - step:])]
    return stack


def _steps_of(part: BuildTrace) -> tuple[int, ...]:
    if not isinstance(part, BuildTrace):
        raise TypeError(f"not a build trace: {part!r}")
    return part.steps


class Empty(BuildTrace):
    __slots__ = ()

    def __init__(self) -> None:
        object.__setattr__(self, "steps", (EMPTY,))


class _AddStep(BuildTrace):
    __slots__ = ()
    STEP: int

    def __init__(self, inner: BuildTrace) -> None:
        object.__setattr__(self, "steps", _steps_of(inner) + (self.STEP,))

    @property
    def inner(self) -> BuildTrace:
        return _trace(self.steps[:-1])


class AddGreatest(_AddStep):
    __slots__ = ()
    STEP, TAG = GREATEST, "g"


class AddLeast(_AddStep):
    __slots__ = ()
    STEP, TAG = LEAST, "l"


class DisjointUnion(BuildTrace):
    __slots__ = ()
    TAG = "union"

    def __init__(self, parts: Iterable[BuildTrace]) -> None:
        parts = tuple(parts)
        steps = tuple(itertools.chain.from_iterable(map(_steps_of, parts))) + (len(parts),)
        object.__setattr__(self, "steps", steps)


_CLASSES = {EMPTY: Empty, GREATEST: AddGreatest, LEAST: AddLeast}


def _trace(steps: tuple[int, ...]) -> BuildTrace:
    """Wrap steps known to leave one value, as the subclass of the last step."""
    trace = object.__new__(_CLASSES.get(steps[-1], DisjointUnion))
    object.__setattr__(trace, "steps", steps)
    return trace


def replay_trace(trace: BuildTrace) -> Poset:
    """Rebuild the poset a trace describes; new elements get the next index.

    The steps run through the derived-poset constructors: an added element
    takes the next index of its value, and a union shifts each part past the
    ones before it, so indices follow the steps.
    """
    return _run(
        _steps_of(trace), Poset.empty(),
        lambda step, q: q.add_greatest() if step == GREATEST else q.add_least(),
        Poset.disjoint_union,
    )[0]


class ForbiddenPattern(Record):
    """Witness quadruple with u > w, u > x, v > x, u || v and w || x.

    ``kind`` is "bowtie" when additionally v > w, else "N".
    """

    __slots__ = _fields = ("u", "v", "w", "x", "kind")


def find_forbidden(p: Poset) -> ForbiddenPattern | None:
    """The first induced N or bowtie in (u, v, x, w) index order; None when
    clean, which a build trace from `is_v_poset` settles without a scan.

    A quadruple is connected in the comparability graph, and each of its
    members has one incomparable to it, so no peeled extreme lies in one:
    every quadruple lies inside a component the peel cannot finish, and the
    least of those components' first quadruples is the first of all.
    """
    if isinstance(is_v_poset(p), BuildTrace):
        return None
    witnesses = [_forbidden_in(p, stuck) for stuck in _peel(p, [])]
    return min(witnesses, key=lambda f: (f.u, f.v, f.x, f.w))


def _forbidden_in(p: Poset, live: int) -> ForbiddenPattern | None:
    # The first quadruple inside ``live`` in (u, v, x, w) index order.  The
    # x below u with a w below u incomparable to them form ``xs`` (empty: no
    # quadruple at u); v is the lowest element above one of them that is
    # incomparable to u, x the lowest of ``xs`` below v, w the lowest one for x.
    # A u whose live down set has a greatest element m has m's ``xs`` and
    # up-row union, as m is comparable to everything below u; so each u
    # takes the root of that descent, and each root's down set is walked once.
    up, down = p._up, p._down
    sizes = _sizes(down, live)
    root: dict[int, int] = {}
    for k in sorted(sizes):
        for u in _bits(sizes[k]):
            m = (down[u] & sizes.get(k - 1, 0)).bit_length() - 1  # the greatest below u, if any
            root[u] = root[m] if m >= 0 else u
    walked: dict[int, tuple[int, int]] = {}
    for u in _bits(live):
        if (r := root[u]) not in walked:
            dr = down[r] & live
            xs = above = 0
            for x in _bits(dr):
                if dr & ~(up[x] | down[x] | 1 << x):
                    xs |= 1 << x
                    above |= up[x]
            walked[r] = xs, above
        xs, above = walked[r]
        if xs and (vs := above & live & ~(up[u] | down[u] | 1 << u)):
            v = next(_bits(vs))
            x = next(_bits(down[v] & xs))
            w = next(_bits(down[u] & live & ~(up[x] | down[x] | 1 << x)))
            kind = "bowtie" if p.less(w, v) else "N"
            return ForbiddenPattern(u=u, v=v, w=w, x=x, kind=kind)
    return None


def _peel(p: Poset, steps: list[int]) -> Iterator[int]:
    """Yield each component with neither a greatest nor a least element,
    and append the construction steps to ``steps`` in reverse post-order:
    when nothing is yielded, they make the trace.  A live mask loses its
    greatest, else its least, element; a mask with neither splits into
    components, and one is stuck.  A mask of s members waits shifted, as
    `_components` yields it, with the counts of elements taken above and
    below it; the rest lie apart from it.  So its greatest is the member
    whose down row holds s - 1 + below: one AND with the kept `_size_tables`."""
    by_down, by_up = _size_tables(p)
    todo = [((1 << p.n) - 1, 0, 0, 0)]
    while todo:
        live, low, above, below = todo.pop()
        s = live.bit_count()
        live <<= low
        if not live:
            steps.append(EMPTY)
        elif u := live & by_down.get(s - 1 + below, 0):
            steps.append(GREATEST)
            todo.append((live ^ u, 0, above + 1, below))
        elif u := live & by_up.get(s - 1 + above, 0):
            steps.append(LEAST)
            todo.append((live ^ u, 0, above, below + 1))
        else:
            comps = list(_components(p, live))
            if len(comps) == 1:
                yield live
            else:
                steps.append(len(comps))
                todo += [(c, k, above, below) for c, k in comps]


def decompose(p: Poset) -> BuildTrace | None:
    """Constructive recognition: peel greatest/least elements per component.

    When a component has both a greatest and a least element the greatest is
    removed first, so linear orders are always built by AddGreatest alone.
    """
    certificate = is_v_poset(p)
    return certificate if isinstance(certificate, BuildTrace) else None


def is_v_poset(p: Poset) -> BuildTrace | ForbiddenPattern:
    """Exactly one certificate: a construction trace or a forbidden pattern.

    The pattern is found inside the first component where peeling gets
    stuck, and the certificate is kept on ``p``, so each poset is peeled once.
    """
    if p._cert is None:
        steps: list[int] = []
        stuck = next(_peel(p, steps), None)
        certificate = _trace(tuple(reversed(steps))) if stuck is None else _forbidden_in(p, stuck)
        if certificate is None:
            raise RuntimeError("recognisers disagree: no trace and no forbidden pattern")
        object.__setattr__(p, "_cert", certificate)
    return p._cert


def _v_trace(p: Poset) -> BuildTrace:
    certificate = is_v_poset(p)
    if isinstance(certificate, ForbiddenPattern):
        raise NotVPosetError(certificate)
    return certificate


# ----------------------------------------------------------------------
# basic elements and region sets

def _mask(members: list[int]) -> int:
    """The bitmask of ascending element indices, read as one binary numeral
    in time linear in the last (base 2 is exempt from the digit limit)."""
    if not members:
        return 0
    top = members[-1]
    digits = bytearray(b"0") * (top + 1)
    for v in members:
        digits[top - v] = 49  # ord("1")
    return int(digits, 2)


def _chain_tops(rows: Sequence[int], sizes: dict[int, int]) -> list[int | None]:
    """For rows that are all down rows or all up rows, with their `_sizes`
    table over all elements: per element v, the top member of ``rows[v]``
    when that row is a nonempty chain, -1 when it is empty, and None when it
    is not a chain.

    A nonempty row is a chain exactly when one of its members t has a row
    one smaller, and that row is a chain.  Such a t is the top: its row lies
    in the rest of the row and is as large, so it is the rest, and no other
    member can match it, as each would lie below the other.  Taking the
    elements by ascending row size decides t before v.
    """
    tops: list[int | None] = [None] * len(rows)
    for k in sorted(sizes):
        smaller = sizes.get(k - 1, 0)
        for v in _bits(sizes[k]):
            t = (rows[v] & smaller).bit_length() - 1
            if k == 0:
                tops[v] = -1
            elif t >= 0 and tops[t] is not None:
                tops[v] = t
    return tops


def _basic(p: Poset) -> int:
    """The mask of the basic elements, decided once and kept on ``p``."""
    if p._status is None:
        up = p._up
        by_down, by_up = _size_tables(p)
        below, above = _chain_tops(p._down, by_down), _chain_tops(up, by_up)
        basic = [
            x
            for x, t in enumerate(below)
            if t is not None
            and above[x] is not None
            and not (t >= 0 and up[t].bit_count() == up[x].bit_count() + 1)
        ]
        object.__setattr__(p, "_status", _mask(basic))
    return p._status


def element_status(p: Poset) -> list[str]:
    """Classify each element as basic, upper, lower, or other.

    The basic-element axioms are decided by the kept row-size tables, so
    this runs on any poset in O(n) row operations; on a V-poset every
    element is basic, upper or lower.  B.1 and B.2 ask whether down(x) and
    up(x) are chains (see `_chain_tops`).  B.3 asks for a twin u < x whose
    comparabilities agree with those of x elsewhere.  Since down(u) lies in
    down(x) minus u and up(u) holds up(x) and x, a twin is a member of
    down(x) with row sizes (|down(x)| - 1, |up(x)| + 1), and the only member
    of that down size is the top of the chain.  x is upper when a basic
    element lies below it, and lower when one lies above.  Only the basic
    mask is kept on ``p``; each call reads the statuses off it afresh.
    """
    basic = _basic(p)
    return [
        BASIC if digit == "1" else UPPER if down & basic else LOWER if up & basic else OTHER
        for digit, up, down in zip(f"{basic:0{p.n}b}"[::-1], p._up, p._down)
    ]


def _region(p: Poset, a: int) -> list[int] | None:
    """The members of the region set of ``a``, from its own rows, their
    members' rows and the basic mask; None for an "other" element.  A lower
    b below an upper a has no basic element below it, so it shares a's
    association exactly when the basic elements above it are a's."""
    basic = _basic(p)
    up, down = p._up, p._down
    near = up[a] | down[a] | 1 << a  # a and the elements comparable to it
    if basic >> a & 1:
        return []
    if down[a] & basic:  # upper
        assoc = near & basic
        return [
            b
            for b in _bits(down[a])
            if not up[b] & ~near and (down[b] & basic or up[b] & basic != assoc)
        ]
    if up[a] & basic:  # lower
        return [b for b in _bits(up[a]) if not down[b] & ~near]
    return None


def region_set(p: Poset, a: int) -> frozenset[int]:
    """The element set whose size weighs ``a`` in the antichain expansion.

    Empty for a basic element; for a lower element, the elements above it
    with no incomparable element below them; for an upper element the dual,
    minus lower elements associated to the same basic set.
    """
    if not (0 <= a < p.n):
        raise ValueError(f"element index {a} out of range 0..{p.n - 1}")
    region = _region(p, a)
    if region is None:
        raise ValueError(
            f"element {a} is neither basic nor upper nor lower; "
            "its region set is undefined"
        )
    return frozenset(region)


# ----------------------------------------------------------------------
# antichains, cutsets, and the polynomial

def _sweep_facts(p: Poset) -> tuple[int, list[int]]:
    """The antichain count and the subset codes of the maximal antichains,
    from one sweep, kept on ``p``.  There are P(1,1) codes, never 2**n, and
    every maximal-antichain answer is read off them."""
    if p._facts is None:
        bruteforce.check_subset_bound(p.n, "poset")
        comp = [u | d for u, d in zip(p._up, p._down)]
        object.__setattr__(p, "_facts", bruteforce.antichain_sweep(comp))
    return p._facts


def maximal_antichains_poset(p: Poset) -> list[frozenset[int]]:
    """All maximal antichains, each once, by subset enumeration."""
    return [frozenset(_bits(code)) for code in _sweep_facts(p)[1]]


def maximal_chains(p: Poset) -> list[tuple[int, ...]]:
    """All maximal chains, each as its cover path from a minimal to a maximal
    element, in lexicographic order: depth-first along the upper covers from
    each minimal element in turn, lowest cover first."""
    above, chains = _cover_rows(p), []
    stack = [(u,) for u in reversed(range(p.n)) if not p._down[u]]
    while stack:
        path = stack.pop()
        if above[path[-1]]:
            stack.extend([path + (v,) for v in _bits(above[path[-1]])][::-1])
        else:
            chains.append(path)
    return chains


def antichain_expansion_poset(p: Poset) -> BivariatePoly:
    """Sum x**basic(A) * y**weight(A) over maximal antichains of a V-poset."""
    _v_trace(p)
    codes = _sweep_facts(p)[1]
    basic = _basic(p)
    # y is the sum of w times a code's bits among the elements of region size w.
    classes: dict[int, int] = {}
    for a in range(p.n):
        if w := len(_region(p, a)):
            classes[w] = classes.get(w, 0) | 1 << a
    ys = [0] * len(codes)
    for w, m in classes.items():
        ys = [y + w * (code & m).bit_count() for y, code in zip(ys, codes)]
    xs = [(code & basic).bit_count() for code in codes]
    return BivariatePoly._from_terms(Counter(zip(xs, ys)))


def poset_poly(p: Poset) -> BivariatePoly:
    """The poset polynomial, by recursion over a construction trace.

    1 for the empty poset, x for a single element, products over disjoint
    unions, and adding a greatest or least element to P contributes y**|P|.
    """
    return build_poly(_v_trace(p).steps)


def count_antichains_poset(p: Poset) -> int:
    """Number of antichains including the empty one, by subset enumeration."""
    return _sweep_facts(p)[0]


def count_maximal_antichains_poset(p: Poset) -> int:
    return len(_sweep_facts(p)[1])


def count_maximal_antichains_no_basic(p: Poset) -> int:
    """Number of maximal antichains avoiding every basic element."""
    codes = _sweep_facts(p)[1]
    basic = _basic(p)
    return sum(not code & basic for code in codes)


def _cutsets(p: Poset) -> int:
    # The cutsets' bitmap; ascending down-row sizes give a linear extension.
    bruteforce.check_subset_bound(p.n, "poset")
    order = sorted(range(p.n), key=lambda v: p._down[v].bit_count())
    return bruteforce.cutsets(_cover_rows(p.dual()), order)


def count_cutsets_poset(p: Poset) -> int:
    """Number of element sets meeting every maximal chain."""
    return _cutsets(p).bit_count()


def minimal_cutsets(p: Poset) -> list[frozenset[int]]:
    """All inclusion-minimal cutsets, by brute force over subsets."""
    return [frozenset(_bits(code)) for code in bruteforce.minimal_codes(p.n, _cutsets(p))]


# ----------------------------------------------------------------------
# rooted trees as V-posets, and their oracles

def tree_to_poset(t: RootedTree, orientation: str = "greatest") -> Poset:
    """Poset whose cover graph is the tree; the root becomes the greatest
    element (orientation "greatest") or the least one ("least").

    Elements are the vertices in canonical preorder.  The strict ancestors
    of a vertex are the elements above it, and its descendants, the
    contiguous preorder range after it, are those below; one scan of the
    string gives both rows of every vertex.  A vertex's parent is its
    highest ancestor bit, the latest in preorder.
    """
    if orientation not in ("greatest", "least"):
        raise ValueError("orientation must be 'greatest' or 'least'")
    up: list[int] = []
    down: list[int] = []
    open_chain = [0]  # each open vertex with its ancestors, as a mask
    for ch in t.encoding:
        if ch == "(":
            open_chain.append(open_chain[-1] | 1 << len(up))
            up.append(open_chain[-2])
            down.append(0)
        else:
            v = open_chain.pop().bit_length() - 1
            down[v] = (1 << len(up)) - (2 << v)  # the vertices opened after v
    p = Poset._wrap(t.size, tuple(up), down)
    return p if orientation == "greatest" else p.dual()


def _oracle_poset(t: RootedTree) -> Poset:
    # Refuse before building the poset, so a huge tree costs nothing; then
    # keep it on the tree, so every oracle asks one poset.  What the tree
    # already says goes on the poset too, not derived again: its own steps
    # certify it, and its leaves are the basic elements, under which every
    # other vertex is upper.
    bruteforce.check_subset_bound(t.size, "tree")
    if t._poset is None:
        p = tree_to_poset(t)
        object.__setattr__(p, "_cert", _trace(tuple(_tree_steps(t))))
        object.__setattr__(p, "_status", _mask([v for v, row in enumerate(p._down) if not row]))
        object.__setattr__(t, "_poset", p)
    return t._poset


class TreeAntichain(Record):
    """A maximal antichain with its leaf count and number of vertices below it."""

    __slots__ = _fields = ("vertices", "leaf_count", "below_count")


def maximal_antichains_tree(t: RootedTree) -> list[TreeAntichain]:
    """All maximal antichains, each exactly once, as canonical index sets.

    They are found by subset enumeration, so a tree with more than
    SUBSET_BOUND vertices raises OracleBoundError.
    """
    p = _oracle_poset(t)
    return [
        TreeAntichain(
            vertices=a,
            leaf_count=sum(not p.down_mask(v) for v in a),
            below_count=sum(p.down_mask(v).bit_count() for v in a),
        )
        for a in maximal_antichains_poset(p)
    ]


def antichain_expansion_tree(t: RootedTree) -> BivariatePoly:
    """Sum x**leaves(A) * y**below(A) over maximal antichains A.

    Works by exhaustive subset enumeration, independently of the recursion
    in `tree_poly`, so the two routes can be checked against each other.
    """
    return antichain_expansion_poset(_oracle_poset(t))


def count_antichains_tree(t: RootedTree) -> int:
    """Number of antichains, including the empty one, by subset enumeration."""
    return count_antichains_poset(_oracle_poset(t))


def count_maximal_antichains_tree(t: RootedTree, leaf_free: bool = False) -> int:
    """Number of maximal antichains (optionally only those avoiding leaves,
    which are the basic elements of the tree as a V-poset)."""
    p = _oracle_poset(t)
    return count_maximal_antichains_no_basic(p) if leaf_free else count_maximal_antichains_poset(p)


def count_cutsets_tree(t: RootedTree) -> int:
    """Number of vertex sets meeting every root-to-leaf path."""
    return count_cutsets_poset(_oracle_poset(t))


def count_root_subtrees(t: RootedTree) -> int:
    """Number of subtrees containing the root, counting the empty subtree.

    A nonempty rooted subtree is a vertex set containing the root and closed
    under taking parents; the empty set contributes the extra 1 (it pairs
    with the empty antichain in the antichain/subtree correspondence).  The
    check builds every such set, independently of the antichains, by
    doubling over the vertices in preorder: vertex v joins exactly the sets
    that hold its parent.
    """
    # Each vertex's up row holds its strict ancestors; its parent is the highest.
    parents = [ancestors.bit_length() - 1 for ancestors in _oracle_poset(t)._up]
    return bruteforce.count_parent_closed(parents) + 1


# ----------------------------------------------------------------------
# isomorphism and exhaustive generation

def _element_signatures(p: Poset):
    # Per element: its up and down row sizes, then those of its upper and of
    # its lower covers, sorted.
    base = [(up.bit_count(), down.bit_count()) for up, down in zip(p._up, p._down)]
    above, below = (
        [tuple(sorted(base[v] for v in _bits(row))) for row in _cover_rows(q)]
        for q in (p, p.dual())
    )
    return tuple(zip(base, above, below))


def poset_isomorphic(p: Poset, q: Poset) -> bool:
    """Exhaustive isomorphism test, pruned by degree and cover signatures."""
    if p.n != q.n:
        return False
    if p.n > ISOMORPHISM_BOUND:
        raise OracleBoundError(
            f"isomorphism search is bounded at {ISOMORPHISM_BOUND} elements"
        )
    n = p.n
    sp = _element_signatures(p)
    sq = _element_signatures(q)
    if sorted(sp) != sorted(sq):
        return False
    candidates = [[v for v in range(n) if sq[v] == sp[u]] for u in range(n)]
    order = sorted(range(n), key=lambda u: len(candidates[u]))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(i: int) -> bool:
        if i == n:
            return True
        u = order[i]
        for v in candidates[u]:
            if v in used:
                continue
            if all(
                p.less(u, u2) == q.less(v, v2) and p.less(u2, u) == q.less(v2, v)
                for u2, v2 in mapping.items()
            ):
                mapping[u] = v
                used.add(v)
                if backtrack(i + 1):
                    return True
                del mapping[u]
                used.remove(v)
        return False

    return backtrack(0)


def all_labeled_posets(n: int) -> list[Poset]:
    """Every strict partial order on elements 0..n-1 (labeled, not deduped)."""
    if n > LABELED_BOUND:
        raise OracleBoundError(
            f"labeled-poset generation is bounded at {LABELED_BOUND} elements"
        )
    return [Poset.from_covers(n, pairs) for pairs in bruteforce.strict_orders(n)]


# ----------------------------------------------------------------------
# impossibility of extending the evaluations beyond V-posets

def impossibility_search(targets: tuple[int, int, int, int]) -> bool:
    """Whether any sum of k monomials matches the four counting targets.

    ``targets`` is (maximal antichains, antichains, cutsets, 2**n); the
    candidate polynomials are all sums of k = targets[0] monomials
    x**a * y**b, and the three remaining targets are checked at the
    evaluation points (2,1), (1,2) and (2,2).  The candidates are counted
    before any is built: more than IMPOSSIBILITY_BOUND of them, or of the
    monomials or of the terms in one candidate, raise OracleBoundError.
    """
    k, antichains, cutsets, power = targets
    max_x = max(antichains.bit_length() - 1, 0)
    max_y = max(cutsets.bit_length() - 1, 0)
    monomials = (max_x + 1) * (max_y + 1)
    # There are C(monomials + k - 1, j) candidates for j = min(k, monomials - 1),
    # at least 2**j, so a large j is refused without computing the count.
    j = min(k, monomials - 1)
    if (
        max(k, monomials) > IMPOSSIBILITY_BOUND
        or j >= IMPOSSIBILITY_BOUND.bit_length()
        or math.comb(monomials + k - 1, j) > IMPOSSIBILITY_BOUND
    ):
        raise OracleBoundError(
            f"impossibility search over sums of {k} of {monomials} monomials "
            f"is bounded at {IMPOSSIBILITY_BOUND} candidates"
        )
    pairs = [(a, b) for a in range(max_x + 1) for b in range(max_y + 1)]
    for combo in itertools.combinations_with_replacement(pairs, k):
        if (
            sum(2**a for a, _ in combo) == antichains
            and sum(2**b for _, b in combo) == cutsets
            and sum(2 ** (a + b) for a, b in combo) == power
        ):
            return True
    return False
