"""Finite posets, V-poset recognition, basic elements, and poset polynomials.

A V-poset is any poset obtainable from the empty poset by disjoint unions
and by adding a new greatest or least element; equivalently, any poset with
no induced N pattern and no induced bowtie.  Both characterisations are
implemented: `decompose` builds a construction certificate, `find_forbidden`
hunts for a witness quadruple, and `is_v_poset` returns whichever applies.

Conventions:
  - Elements are 0..n-1.  A poset keeps a relation graph, or its
    transitively closed up and down bitmask rows, and derives the other on
    first read: bit v of ``up_mask(u)`` means u < v.  Nothing stores
    comparability: it is ``up | down``, derived where it is read.
  - The graph is the relation pairs as `from_covers` was given them,
    implied and repeated pairs included, as lists of upper and lower
    neighbours.  A poset built from rows (`Poset(n, rows)`, the derived
    posets, `tree_to_poset`) gives its covers as the graph.
  - `from_covers` alone decides whether relation pairs form a strict order:
    one Kahn pass orders them or names a self-relation or a cycle.
    `Poset(n, rows)`, pickles, `parse_poset` and `all_labeled_posets` all go
    through it.  A derived poset swaps, shifts or extends the rows of the
    posets it comes from and hands both tuples to `Poset._wrap` unchecked.
  - Instances are immutable; equality and hashing are by labeled relation.
    Use `poset_isomorphic` for equality up to relabeling.
  - Nothing recurses: a build trace is a flat post-order tuple of the step
    codes of `polynomial`, walked by one loop, and recognition peels extreme
    elements off the components of the graph with counts of live
    neighbours, so it builds no sub-poset and closes no rows.  Only a
    component the peel cannot finish is closed, on its own, for the
    witness scan.
  - The peel records each element's status as it removes it (see
    `_peel`), so a V-poset's statuses cost nothing more.  On any other
    poset the basic-element axioms are decided by row sizes, in O(n) row
    operations: a nonempty down row is a chain exactly when it holds a
    member whose down row is one smaller and is a chain, and that member is
    its top; a twin below x is that top when its up row is one larger than
    x's.  Up rows are the dual.
  - The brute-force oracles hand rows and cover rows to the exhaustive
    sweeps of `bruteforce` and read back plain ints.  A poset keeps its
    certificate, its statuses, the mask of its basic elements, its two
    row-size tables and the answers of its one antichain sweep when first
    asked: the antichain count and the subset codes of the maximal
    antichains, P(1,1) of them, never 2**n.  The size tables serve the
    extreme elements and the axioms of a poset that is no V-poset.  The
    basic mask serves the region sets, the basic-free count and the
    expansion.  All of it stays outside equality, hashing, repr and
    pickling.
  - A rooted tree is a V-poset: `tree_to_poset` builds its rows, and each
    tree oracle (`count_*_tree`, `maximal_antichains_tree`,
    `antichain_expansion_tree`, `count_root_subtrees`) runs the poset
    oracle's engine on them.  The cutsets and the root subtrees read each
    vertex's parent off its up row and need no cover rows.  The build steps
    come from `trees`, which needs nothing here.
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

# The answers a poset keeps on first use.
_KEPT = ("_cert", "_status", "_basics", "_by_size", "_facts")


class _CycleError(ValueError):
    def __init__(self, element: int):
        super().__init__(f"the relations contain a cycle through element {element}")
        self.element = element


class Poset:
    """A strict order on 0..n-1.  ``_above[u]`` and ``_below[u]`` list the
    upper and lower neighbours of u in a relation whose transitive closure
    is the order; ``_up`` and ``_down`` are the closed rows.  A poset is
    built with one pair of them and derives the other on first read, in
    `__getattr__`, after which reads cost nothing extra.  ``_cert``,
    ``_status`` (see `_statuses`), ``_basics`` (see `_basic`), ``_by_size``
    (see `_size_tables`) and ``_facts`` hold the answers kept on first use."""

    __slots__ = ("n", "_above", "_below", "_up", "_down") + _KEPT
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
        self._keep(n, "_up", up, "_down", closed._down)

    @classmethod
    def _wrap(cls, n: int, up: tuple[int, ...], down: Sequence[int]) -> Poset:
        """Wrap up rows and their down rows, known to form a transitively
        closed strict order, unchecked."""
        p = object.__new__(cls)
        p._keep(n, "_up", up, "_down", tuple(down))
        return p

    def _keep(self, n: int, first: str, one: Sequence[int], second: str, other: Sequence[int]):
        """Set ``n``, one pair of the graph or the rows, and no answers."""
        object.__setattr__(self, "n", n)
        object.__setattr__(self, first, one)
        object.__setattr__(self, second, other)
        for name in _KEPT:
            object.__setattr__(self, name, None)

    def __getattr__(self, name: str):
        # Reached only for an unset slot: the rows of a poset kept as a
        # graph, or the graph of one kept as rows.
        if name in ("_up", "_down"):
            up, down = _closure(self._above, self._below)
            object.__setattr__(self, "_up", up)
            object.__setattr__(self, "_down", down)
        elif name in ("_above", "_below"):
            above = [list(_bits(row)) for row in _cover_rows(self)]
            object.__setattr__(self, "_above", above)
            object.__setattr__(self, "_below", _lower_neighbours(above))
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return object.__getattribute__(self, name)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def empty(cls) -> Poset:
        return cls(0, ())

    @classmethod
    def from_covers(cls, n: int, covers: Iterable[tuple[int, int]]) -> Poset:
        """Build from (u, v) pairs meaning u < v, kept as the relation graph.

        The pairs need not be covers: implied and repeated ones are kept as
        given.  One pass along a topological order (Kahn, 1962) checks that
        they form a strict order, and the closed rows are built from the
        graph only when first read.
        """
        if n < 0:
            raise ValueError("a poset has a nonnegative number of elements")
        # An element with no pair above (below) it shares one empty tuple.
        above: list[Sequence[int]] = [()] * n
        below: list[Sequence[int]] = [()] * n
        for u, v in covers:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"relation ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-relation on element {u}")
            if above[u]:
                above[u].append(v)
            else:
                above[u] = [v]
            if below[v]:
                below[v].append(u)
            else:
                below[v] = [u]
        _topological_order(above, below)
        p = object.__new__(cls)
        p._keep(n, "_above", above, "_below", below)
        return p

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


def _topological_order(
    above: Sequence[Sequence[int]], below: Sequence[Sequence[int]]
) -> list[int]:
    """The elements, each after every element below it (Kahn, 1962).
    Raise `_CycleError` naming an element on a cycle when there is no such
    order."""
    waiting = [len(row) for row in below]  # pairs below each element not yet in the order
    order = [u for u, k in enumerate(waiting) if not k]
    for u in order:
        for v in above[u]:
            waiting[v] -= 1
            if not waiting[v]:
                order.append(v)
    if len(order) < len(above):
        # Every element left out has one left out below it, so stepping
        # down among them comes round to a cycle.
        left = {v: u for u, row in enumerate(above) if waiting[u] for v in row if waiting[v]}
        u, seen = next(iter(left)), set()
        while u not in seen:
            seen.add(u)
            u = left[u]
        raise _CycleError(u)
    return order


def _closure(
    above: Sequence[Sequence[int]], below: Sequence[Sequence[int]]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The closed up and down rows of a relation graph: up rows from the top
    of a topological order down, down rows from its bottom up.  A pair the
    row holds already is implied by the others and costs one bit test."""
    order = _topological_order(above, below)
    up, down = [0] * len(above), [0] * len(above)
    for rows, near, walk in ((up, above, reversed(order)), (down, below, order)):
        for u in walk:
            row = 0
            for v in near[u]:
                if not row >> v & 1:
                    row |= rows[v] | 1 << v
            rows[u] = row
    return tuple(up), tuple(down)


def _lower_neighbours(above: Sequence[Sequence[int]]) -> list[list[int]]:
    below: list[list[int]] = [[] for _ in above]
    for u, row in enumerate(above):
        for v in row:
            below[v].append(u)
    return below


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
    """Per row size k, the mask of the members whose row holds k members.
    Each class's mask is built once, from the list of its members."""
    classes: dict[int, list[int]] = {}
    for u, digit in enumerate(bin(members)[:1:-1]):
        if digit == "1":
            k = (rows[u] & members).bit_count()
            if k in classes:
                classes[k].append(u)
            else:
                classes[k] = [u]
    return {k: _mask(us) for k, us in classes.items()}


def _size_tables(p: Poset) -> tuple[dict[int, int], dict[int, int]]:
    """The `_sizes` tables of the down rows and of the up rows over all
    elements, built on first use and kept on ``p``."""
    if p._by_size is None:
        full = (1 << p.n) - 1
        object.__setattr__(p, "_by_size", (_sizes(p._down, full), _sizes(p._up, full)))
    return p._by_size


def parse_poset(text: str) -> Poset:
    """Parse "n" on the first line, then "u v" relation lines (1-indexed, u < v).

    A file of one count and "u v" lines is read as one list of words; any
    other file, or one whose pairs `Poset.from_covers` refuses, is read
    again line by line, so that the error names the first bad line.
    """
    rows = list(map(str.split, text.splitlines()))
    if rows and len(rows[0]) == 1 and set(map(len, rows[1:])) <= {2}:
        try:
            words = [int(word) - 1 for word in text.split()]
            pairs = iter(words[1:])
            return Poset.from_covers(words[0] + 1, zip(pairs, pairs))
        except _CycleError as exc:
            # Number the element from 1, as the file does.
            raise ParseError(str(_CycleError(exc.element + 1))) from None
        except ValueError:
            pass
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
    least of those components' first quadruples is the first of all.  The
    peel that certifies ``p`` goes on to the other stuck components, and the
    kept certificate is the first one's quadruple, so each is scanned once.
    """
    certificate, stuck = _certify(p)
    if isinstance(certificate, BuildTrace):
        return None
    if stuck is None:  # certified by an earlier peel: peel again past its witness
        stuck = _peel(p, [], [None] * p.n)
        next(stuck)
    witnesses = [certificate, *(_stuck_witness(p, members) for members in stuck)]
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


def _stuck_witness(p: Poset, members: list[int]) -> ForbiddenPattern:
    """The first quadruple of a stuck component, given by its members in
    ascending order.  The component is closed on its own, relabelled in
    index order, so the scan's index order is the poset's; a peel leaves
    no element between two live ones, so its own closure is the poset's
    order on it."""
    where = {x: i for i, x in enumerate(members)}
    above = [[where[v] for v in p._above[u] if v in where] for u in members]
    q = Poset._wrap(len(members), *_closure(above, _lower_neighbours(above)))
    f = _forbidden_in(q, (1 << q.n) - 1)
    if f is None:
        raise RuntimeError("recognisers disagree: no trace and no forbidden pattern")
    return ForbiddenPattern(
        u=members[f.u], v=members[f.v], w=members[f.w], x=members[f.x], kind=f.kind
    )


def _peel(p: Poset, steps: list[int], status: list[str | None]) -> Iterator[list[int]]:
    """Yield the members, ascending, of each component with neither a
    greatest nor a least element, append the construction steps to
    ``steps`` in reverse post-order, and record in ``status`` each element's
    status as it is removed: when nothing is yielded, the steps make the
    trace.  The parts of a split are peeled in turn, the one with the
    highest least element first.

    Each element counts its live upper and lower neighbours, and each
    component counts its sinks and sources and sums their indices, so the
    one sink of a component with one is that sum.  A component loses its
    one sink, its greatest element, else its one source, its least; with
    neither it is stuck.  The greatest of a one-element component is basic,
    that of a larger one upper, and a least element lower.  A removal leaves
    the rest connected while it has one sink or one source, as every part
    has its own; else `_split` searches the parts out from the removed
    element's live neighbours.  The whole poset starts as such a rest,
    around all of its sinks.

    A part the search finds complete gets a new region, with its members
    in ascending order; the part it leaves open stays in the region it was
    in.  So a region's members are listed once, and the least member still
    live in it is found by a pointer that only moves forward.
    """
    n, above, below = p.n, p._above, p._below
    if not n:
        steps.append(EMPTY)
        return
    ups = list(map(len, above))  # live upper neighbours, repeated pairs counted
    downs = list(map(len, below))
    dead = bytearray(n)
    mark = [-1] * n  # the walk of `_split` or of a stuck component that last reached each element
    stamp = 0
    region = [0] * n
    listed: list[Sequence[int]] = [range(n)]  # per region, its members, ascending
    first = [0]  # per region, where in that list its least live member may be
    sinks = [x for x, k in enumerate(ups) if not k]
    sources = [x for x, k in enumerate(downs) if not k]
    # Components to peel, as (region, a member or -1 when it may be no
    # component, members, sinks, their sum, sources, their sum), and () for
    # a component of one element, taken off already.
    todo: list[tuple[int, ...]] = [(0, -1, n, len(sinks), sum(sinks), len(sources), sum(sources))]
    while todo:
        item = todo.pop()
        if not item:
            steps += (GREATEST, EMPTY)
            continue
        at, anchor, size, sinks, top, sources, bottom = item
        x = -1  # the element removed last
        while True:
            if sinks == 1:
                x = top
                dead[x] = 1
                steps.append(GREATEST)
                size -= 1
                if not size:
                    status[x] = BASIC
                    steps.append(EMPTY)
                    break
                status[x] = UPPER
                sinks = top = 0
                for w in below[x]:
                    if not dead[w]:
                        ups[w] -= 1
                        if not ups[w]:
                            sinks += 1
                            top += w
            elif sources == 1:
                x = bottom  # not alone, or it would be the one sink
                dead[x] = 1
                steps.append(LEAST)
                size -= 1
                status[x] = LOWER
                sources = bottom = 0
                for w in above[x]:
                    if not dead[w]:
                        downs[w] -= 1
                        if not downs[w]:
                            sources += 1
                            bottom += w
            else:
                found = None
                if x >= 0 or anchor < 0:
                    if x < 0:
                        near = [w for w, k in enumerate(ups) if not k]
                    elif status[x] == LOWER:
                        near = [w for w in above[x] if not dead[w]]
                    else:
                        near = [w for w in below[x] if not dead[w]]
                    anchor = near[0]
                    found = _split(
                        near, sinks, sources, above, below, ups, downs, dead, mark, stamp
                    )
                    stamp += len(near) + 1
                if found is None:
                    members = [anchor]
                    mark[anchor] = stamp
                    for x in members:
                        for y in (*above[x], *below[x]):
                            if not dead[y] and mark[y] < stamp:
                                mark[y] = stamp
                                members.append(y)
                    stamp += 1
                    members.sort()
                    yield members
                    break
                alone, done, rest = found
                steps.append(len(alone) + len(done) + (rest >= 0))
                kids = {}  # the parts of more than one element by their least
                for x in alone:
                    status[x], dead[x] = BASIC, 1
                k, t = len(alone), sum(alone)
                size -= k
                sinks -= k
                sources -= k
                top -= t
                bottom -= t
                for members, k, t, j, b in done:
                    size -= len(members)
                    sinks -= k
                    top -= t
                    sources -= j
                    bottom -= b
                    members.sort()
                    for y in members:
                        region[y] = len(listed)
                    kids[members[0]] = (len(listed), members[0], len(members), k, t, j, b)
                    listed.append(members)
                    first.append(0)
                if rest >= 0:
                    live, i = listed[at], first[at]
                    while dead[live[i]] or region[live[i]] != at:
                        i += 1
                    first[at] = i
                    kids[live[i]] = (at, rest, size, sinks, top, sources, bottom)
                todo += [kids.get(x, ()) for x in sorted([*alone, *kids])]
                break


def _split(
    starts: list[int], sinks: int, sources: int,
    above: Sequence[Sequence[int]], below: Sequence[Sequence[int]],
    ups: list[int], downs: list[int], dead: bytearray, mark: list[int], stamp: int,
) -> tuple[list[int], list[tuple[list[int], int, int, int, int]], int] | None:
    """The parts of the live elements around ``starts``, the live
    neighbours of an element just removed, with ``sinks`` sinks and
    ``sources`` sources among them: None when they are all one part, else
    the starts that are parts by themselves, having no live neighbour; the
    other parts found complete, each as its members with the count and the
    sum of its sinks and of its sources; and a member of the one part left
    open, or -1.

    From each start that is not alone a search runs, each in turn up to a
    budget of members that doubles every round, and a search that reaches
    another's element takes it over.  Every part holds a sink and a source,
    so the walk stops when at most one search is still open, or when the
    elements no search has finished hold one sink or one source: all open
    searches are then in one part.  A part found complete is thus at most
    twice the part left open, which is walked no further than the budget,
    so the walk costs a few times the parts it lists, however large the
    rest.  The walk marks a lone start ``stamp`` and the elements the
    search from ``starts[i]`` reaches ``stamp + 1 + i``."""
    alone: list[int] = []
    front: list[list[int]] = []
    found: list[list[int]] = []
    base = stamp + 1
    for s in starts:
        if mark[s] < stamp:  # else a repeated pair
            if not ups[s] and not downs[s]:
                mark[s] = stamp
                alone.append(s)
            else:
                mark[s] = base + len(front)
                front.append([s])
                found.append([s])
    if len(front) < 2 or sinks - len(alone) < 2 or sources - len(alone) < 2:
        if len(alone) + bool(front) < 2:
            return None
        return alone, [], front[0][0] if front else -1
    done: list[tuple[list[int], int, int, int, int]] = []
    sinks -= len(alone)
    sources -= len(alone)
    root = list(range(len(front)))
    searching = root[:]
    budget = 8  # a search of a few members costs less than another round
    while len(searching) > 1 and sinks > 1 and sources > 1:
        for i in searching:
            if root[i] != i:
                continue
            ahead, mine, label = front[i], found[i], base + i
            room = budget - len(mine)
            while ahead and room >= 0:
                x = ahead.pop()
                for y in (*above[x], *below[x]):
                    m = mark[y]
                    if m == label or dead[y]:
                        continue
                    if m < base:
                        mark[y] = label
                        ahead.append(y)
                        mine.append(y)
                        room -= 1
                        continue
                    j = m - base
                    while root[j] != j:
                        j = root[j]
                    if j != i:  # the larger lists take the smaller in
                        root[j] = i
                        if len(found[j]) > len(mine):
                            front[i], front[j], found[i], found[j] = front[j], ahead, found[j], mine
                            ahead, mine = front[i], found[i]
                        ahead += front[j]
                        mine += found[j]
                        front[j] = found[j] = None
                        room = budget - len(mine)
            if not ahead:
                k = t = j = b = 0
                for y in mine:
                    if not ups[y]:
                        k += 1
                        t += y
                    if not downs[y]:
                        j += 1
                        b += y
                done.append((mine, k, t, j, b))
                sinks -= k
                sources -= j
                if sinks < 2 or sources < 2:
                    break
        searching = [i for i in searching if root[i] == i and front[i]]
        budget *= 2
    rest = [found[i][0] for i, r in enumerate(root) if i == r and front[i]]
    if len(alone) + len(done) + bool(rest) < 2:
        return None
    return alone, done, rest[0] if rest else -1


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
    return p._cert if p._cert is not None else _certify(p)[0]


def _certify(p: Poset) -> tuple[BuildTrace | ForbiddenPattern, Iterator[list[int]] | None]:
    """``p``'s certificate, kept on ``p``, and the peel that found it, left
    past its first stuck component; None for a certificate kept before."""
    if p._cert is not None:
        return p._cert, None
    steps: list[int] = []
    status: list[str | None] = [None] * p.n
    peel = _peel(p, steps, status)
    stuck = next(peel, None)
    if stuck is None:
        certificate = _trace(tuple(reversed(steps)))
        object.__setattr__(p, "_status", tuple(status))
    else:
        certificate = _stuck_witness(p, stuck)
    object.__setattr__(p, "_cert", certificate)
    return certificate, peel


def _v_trace(p: Poset) -> BuildTrace:
    certificate = is_v_poset(p)
    if isinstance(certificate, ForbiddenPattern):
        raise NotVPosetError(certificate)
    return certificate


# ----------------------------------------------------------------------
# basic elements and region sets

def _mask(members: list[int]) -> int:
    """The bitmask of ascending element indices.  A few members are ORed in;
    more are read as one binary numeral, in time linear in the last (base 2
    is exempt from the digit limit), as each OR would copy the mask."""
    if len(members) < 256:
        mask = 0
        for v in members:
            mask |= 1 << v
        return mask
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


def _statuses(p: Poset) -> tuple[str, ...]:
    """Each element's status, kept on ``p``: recorded by the peel of a
    V-poset, else decided by the axioms."""
    if p._status is None:
        is_v_poset(p)
    if p._status is None:
        object.__setattr__(p, "_status", _axiom_statuses(p))
    return p._status


def _axiom_statuses(p: Poset) -> tuple[str, ...]:
    """The statuses by the basic-element axioms, decided on the closed rows
    with their kept size tables (see `element_status`)."""
    up = p._up
    by_down, by_up = _size_tables(p)
    below, above = _chain_tops(p._down, by_down), _chain_tops(up, by_up)
    basic = _mask([
        x
        for x, t in enumerate(below)
        if t is not None
        and above[x] is not None
        and not (t >= 0 and up[t].bit_count() == up[x].bit_count() + 1)
    ])
    return tuple(
        BASIC if digit == "1" else UPPER if down & basic else LOWER if up & basic else OTHER
        for digit, up, down in zip(f"{basic:0{p.n}b}"[::-1], up, p._down)
    )


def _basic(p: Poset) -> int:
    """The mask of the basic elements, decided once and kept on ``p``."""
    if p._basics is None:
        basic = [x for x, status in enumerate(_statuses(p)) if status == BASIC]
        object.__setattr__(p, "_basics", _mask(basic))
    return p._basics


def element_status(p: Poset) -> list[str]:
    """Classify each element as basic, upper, lower, or other.

    On a V-poset the peel of `is_v_poset` records the statuses as it
    removes each element: the greatest element of a one-element component
    is basic, that of a larger one upper, and a least element lower.  On
    any other poset the basic-element axioms are decided by the kept
    row-size tables, in O(n) row operations.  B.1 and B.2 ask whether
    down(x) and up(x) are chains (see `_chain_tops`).  B.3 asks for a twin
    u < x whose comparabilities agree with those of x elsewhere.  Since
    down(u) lies in down(x) minus u and up(u) holds up(x) and x, a twin is a
    member of down(x) with row sizes (|down(x)| - 1, |up(x)| + 1), and the
    only member of that down size is the top of the chain.  x is upper when
    a basic element lies below it, and lower when one lies above.  The
    statuses are kept on ``p``; each call returns a fresh list of them.
    """
    return list(_statuses(p))


def _region(p: Poset, a: int) -> list[int] | None:
    """The members of the region set of ``a``, from its own rows, their
    members' rows and the basic mask; None for an "other" element.  A lower
    b below an upper a has no basic element below it, so it shares a's
    association exactly when the basic elements above it are a's.
    `antichain_expansion_poset` counts the same members in place."""
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
    # y is the sum of w times a code's bits among the elements of region
    # size w.  The sizes are counted in place, by the tests of `_region`; on
    # a V-poset every element that is not basic is upper or lower.
    up, down = p._up, p._down
    classes: dict[int, int] = {}
    for a in range(p.n):
        if basic >> a & 1:
            continue
        near = up[a] | down[a] | 1 << a
        if down[a] & basic:  # upper
            assoc = near & basic
            w = sum([
                not up[b] & ~near and (down[b] & basic != 0 or up[b] & basic != assoc)
                for b in _bits(down[a])
            ])
        else:
            w = sum([not down[b] & ~near for b in _bits(up[a])])
        if w:
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
        object.__setattr__(p, "_status", tuple(UPPER if row else BASIC for row in p._down))
        object.__setattr__(p, "_basics", _mask([v for v, row in enumerate(p._down) if not row]))
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


def _tree_parents(t: RootedTree) -> list[int]:
    # Each vertex's up row holds its strict ancestors; its parent is the
    # highest, and the root's empty row reads -1.
    return [ancestors.bit_length() - 1 for ancestors in _oracle_poset(t)._up]


def count_cutsets_tree(t: RootedTree) -> int:
    """Number of vertex sets meeting every root-to-leaf path.

    The cutset engine of the poset oracle, fed the tree's own rows: each
    vertex's lower covers are its children, and reversed preorder lists
    every vertex after them."""
    children = [0] * t.size
    for v, parent in enumerate(_tree_parents(t)[1:], 1):
        children[parent] |= 1 << v
    return bruteforce.cutsets(children, reversed(range(t.size))).bit_count()


def count_root_subtrees(t: RootedTree) -> int:
    """Number of subtrees containing the root, counting the empty subtree.

    A nonempty rooted subtree is a vertex set containing the root and closed
    under taking parents; the empty set contributes the extra 1 (it pairs
    with the empty antichain in the antichain/subtree correspondence).  The
    check builds every such set, independently of the antichains, by
    doubling over the vertices in preorder: vertex v joins exactly the sets
    that hold its parent.
    """
    return bruteforce.count_parent_closed(_tree_parents(t)) + 1


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
