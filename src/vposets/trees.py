"""Rooted trees, their two-variable polynomials, and counting oracles.

A tree is its canonical parenthesis string: a vertex is "(", its branches'
strings in sorted order, then ")", so isomorphic inputs give equal trees.
Vertices are numbered in the order of their "(" (the root is 0), which
makes antichain output stable across runs.

A tree is a V-poset: its root is a greatest element over the union of the
branches.  `tree_poly` reads the build steps off the string in one scan and
hands them to the evaluator that `poset_poly` uses, so this module needs
only `polynomial`.  `tree_poly_dc` (deletion-contraction) is an independent
route to the same polynomial.  It and the surgery functions share one cut,
`_minors`, which makes a root edge's two minors from the branch strings.  Each
brute-force tree oracle is the poset oracle on `tree_to_poset`; both live
in `posets`.  `multisets` lists forests here and, for the census, multisets
of connected V-posets in `enumeration`.

`collision_search` runs no evaluator per tree.  `_tree_table` lists every
tree up to n_max vertices as an index, by ascending size, each tree as its
first branch over the tree of its other branches, so both come before it;
it keeps two ints per index, P(x,1) and P(1,y), each packed in fields that
hold 2**n_max - 1, above every P(1,1) there, so no coefficient carries
and equal ints mean equal polynomials.  Each follows the tree recursion
with one variable fixed: a leaf is x (or 1), and a vertex is its
branches' product plus 1 (or plus y**(n-1)).  The indices are grouped by
sorting them on each int, and full polynomials are compared only within
a group that shares both, which no two trees with at most 16 vertices
do.  Strings, trees and polynomials are made only for group members.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache
from operator import neg

from ._record import Record
from .errors import OracleBoundError, ParseError
from .polynomial import EMPTY, GREATEST, BivariatePoly, _field_bytes, _unpack_rows, build_poly

GENERATION_BOUND = 12
# The collision search's bound: at 16 vertices it keys 376,464 trees and
# reports about 139,000 groups in about 4.5 s with a peak RSS of 198 MB
# (`collide --max 16`, CPython 3.11, a shared 2-core x86-64 VM).
COLLISION_BOUND = 16
# Deletion-contraction's work bound: the characters of the minors it splits
# plus the terms its memo holds.  A random recursive tree has exponentially
# many minors; at this bound one of 150 or 200 vertices is refused after
# about 1 s with a peak RSS under 100 MB (CPython 3.11, 2-core x86-64), while
# paths of up to 1150 vertices and stars of up to 1400 are answered.
DC_BOUND = 2_000_000


def _canonical(branches: list[str]) -> str:
    """The string of a vertex over its branches' strings, sorted in place,
    built by one join, so each branch string is copied once."""
    branches.sort()
    return "".join(["(", *branches, ")"])


def _branches(encoding: str) -> list[str]:
    """The branch strings of a tree's string, in sorted order: each ends
    at a ")" back at depth 1."""
    out, depth, start = [], 0, 1
    for end, ch in enumerate(encoding, 1):
        depth += 1 if ch == "(" else -1
        if depth == 1 and ch == ")":
            out.append(encoding[start:end])
            start = end
    return out


class RootedTree:
    """An unlabeled rooted tree, held as its canonical string ``encoding``
    (read-only, since equality and hashing read it).  The oracles keep its
    poset in ``_poset``, outside equality, hashing, repr and pickling."""

    __slots__ = ("encoding", "_poset")
    __setattr__ = Record.__setattr__
    __delattr__ = Record.__delattr__

    def __init__(self, children: Iterable[RootedTree] = ()):
        object.__setattr__(self, "encoding", _canonical([c.encoding for c in children]))
        object.__setattr__(self, "_poset", None)

    @classmethod
    def _trusted(cls, encoding: str) -> RootedTree:
        """Wrap a string that is already canonical, without sorting it again."""
        t = object.__new__(cls)
        object.__setattr__(t, "encoding", encoding)
        object.__setattr__(t, "_poset", None)
        return t

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.encoding == other.encoding

    def __hash__(self) -> int:
        return hash((self.encoding,))

    def __reduce__(self):
        return RootedTree._trusted, (self.encoding,)

    @property
    def size(self) -> int:
        return len(self.encoding) // 2

    @property
    def leaf_count(self) -> int:
        return self.encoding.count("()")

    @property
    def children(self) -> tuple[RootedTree, ...]:
        return tuple(map(RootedTree._trusted, _branches(self.encoding)))

    def __repr__(self) -> str:
        return f"RootedTree({self.encoding!r})"


def parse_tree(text: str) -> RootedTree:
    """Parse the parenthesis language  tree ::= "(" tree* ")"  (whitespace ignored)."""
    # The branch strings of each open vertex, over a bottom list for the tree.
    stack: list[list[str]] = [[]]
    for pos, ch in enumerate(text):
        if ch == "(":
            if stack[0]:
                raise ParseError(f"position {pos}: trailing input after a complete tree")
            stack.append([])
        elif ch == ")":
            if len(stack) == 1:
                raise ParseError(f"position {pos}: unmatched ')'")
            branches = stack.pop()
            stack[-1].append(_canonical(branches))
        elif not ch.isspace():
            raise ParseError(f"position {pos}: unexpected character {ch!r}")
    if len(stack) > 1:
        raise ParseError(f"position {len(text)}: unbalanced '(' at end of input")
    if not stack[0]:
        raise ParseError("empty input: expected a tree such as '()'")
    return RootedTree._trusted(stack[0][0])


def star(n: int) -> RootedTree:
    """Star on n vertices rooted at the centre."""
    if n < 1:
        raise ValueError("a tree needs at least one vertex")
    return RootedTree._trusted("(" + "()" * (n - 1) + ")")


def path(n: int) -> RootedTree:
    """Path on n vertices rooted at one endpoint."""
    if n < 1:
        raise ValueError("a tree needs at least one vertex")
    return RootedTree._trusted("(" * n + ")" * n)


# ----------------------------------------------------------------------
# root-edge surgery, cut from the strings

def _minors(encoding: str, index: int) -> tuple[str, str]:
    """The strings of the trees left by deleting branch ``index`` and by
    contracting its root edge; the other branches stay sorted."""
    kids = _branches(encoding)
    if not kids:
        raise ValueError(f"branch index {index}: the tree is a single vertex, with no branches")
    if not 0 <= index < len(kids):
        raise ValueError(f"branch index {index} out of range 0..{len(kids) - 1}")
    branch = kids.pop(index)
    return "(" + "".join(kids) + ")", _canonical(kids + _branches(branch))


def contract_root_edge(t: RootedTree, index: int) -> RootedTree:
    """Merge the root of branch ``index`` into the root of ``t``."""
    return RootedTree._trusted(_minors(t.encoding, index)[1])


def delete_root_branch(t: RootedTree, index: int) -> RootedTree:
    """Remove branch ``index`` entirely (the rest stays sorted)."""
    return RootedTree._trusted(_minors(t.encoding, index)[0])


# ----------------------------------------------------------------------
# the polynomial

def _tree_steps(t: RootedTree) -> list[int]:
    """Build steps of the tree as a V-poset, in one scan of its string: at
    each ")" a vertex is a greatest element over the union of its branches."""
    steps: list[int] = []
    branches = [0]  # branches closed so far under each open vertex
    for ch in t.encoding:
        if ch == "(":
            branches.append(0)
        else:
            k = branches.pop()
            branches[-1] += 1
            if k != 1:
                steps.append(k or EMPTY)
            steps.append(GREATEST)
    return steps


def tree_poly(t: RootedTree) -> BivariatePoly:
    """x for a single vertex, else the branch product plus y**(size - 1)."""
    return build_poly(_tree_steps(t))


def tree_poly_dc(t: RootedTree) -> BivariatePoly:
    """Same polynomial via deletion-contraction on the first root edge.

    The bridge case (single root edge) is checked before the pendant case;
    the pendant rewrite needs a second branch to be valid.  The recursion
    runs over the minors' strings on an explicit stack, with a memo of
    signed term dicts that lives for one call; each string is split once.
    Past DC_BOUND characters split plus terms held it raises
    OracleBoundError.
    """
    memo: dict[str, Counter] = {"()": Counter({(1, 0): 1})}
    work = 0
    # (s, None) asks for the polynomial of s; (s, (b, deleted, contracted))
    # combines its minors', where b is the first branch's size and deleted
    # is "()" in the bridge case.
    stack: list[tuple[str, tuple[int, str, str] | None]] = [(t.encoding, None)]
    while stack:
        if work > DC_BOUND:
            raise OracleBoundError(
                f"deletion-contraction on this tree passed its work bound of "
                f"{DC_BOUND} (minor characters split plus terms held)"
            )
        s, cut = stack.pop()
        if cut is None:
            if s not in memo:
                work += len(s)
                deleted, contracted = _minors(s, 0)
                cut = ((len(s) - len(deleted)) // 2, deleted, contracted)
                stack += [(s, cut), (contracted, None)]
                if deleted != "()" and cut[0] > 1:
                    stack.append((deleted, None))
            continue
        size, (b, deleted, contracted) = len(s) // 2, cut
        if deleted == "()":
            terms = Counter(memo[contracted])
        elif b == 1:  # x * P(contracted) - x * y**(size - 2)
            terms = Counter({(i + 1, j): c for (i, j), c in memo[contracted].items()})
            terms[(1, size - 2)] -= 1
        else:  # P(contracted) + y**(b - 1) * P(deleted) - 2 * y**(size - 2)
            terms = Counter(memo[contracted])
            terms.update({(i, j + b - 1): c for (i, j), c in memo[deleted].items()})
            terms[(0, size - 2)] -= 2
        terms[(0, size - 1)] += 1
        # The coefficients are counts, so this drops only cancelled terms.
        memo[s] = terms = +terms
        work += len(terms)
    return BivariatePoly(memo[t.encoding])


# ----------------------------------------------------------------------
# exhaustive generation

def multisets(
    pool: Callable[[int], Sequence[object]],
    total: int,
    size_cap: int | None = None,
    index_cap: int | None = None,
) -> Iterator[tuple[object, ...]]:
    """Multisets of pool items whose sizes sum to ``total``, each once.

    ``pool(s)`` lists the items of size s.  A multiset is emitted as the
    sequence nonincreasing in (size, index in the pool), so each unlabeled
    forest of trees or of connected posets arises exactly once.
    """
    if total == 0:
        yield ()
        return
    for s in range(total if size_cap is None else min(total, size_cap), 0, -1):
        items = pool(s)
        start = index_cap if (s == size_cap and index_cap is not None) else len(items) - 1
        for i in range(start, -1, -1):
            for rest in multisets(pool, total - s, s, i):
                yield (items[i],) + rest


@lru_cache(maxsize=GENERATION_BOUND)
def _trees_of_size(n: int) -> tuple[str, ...]:
    # Strings, not trees, so what the oracles keep on a tree stays out.
    return tuple(_canonical(list(forest)) for forest in multisets(_trees_of_size, n - 1))


def enumerate_rooted_trees(n: int) -> list[RootedTree]:
    """All unlabeled rooted trees on n vertices, one per isomorphism class."""
    if n < 1:
        raise ValueError("trees have at least one vertex")
    if n > GENERATION_BOUND:
        raise OracleBoundError(
            f"exhaustive tree generation is bounded at {GENERATION_BOUND} vertices"
        )
    return list(map(RootedTree._trusted, _trees_of_size(n)))


# ----------------------------------------------------------------------
# polynomial collision search

class CollisionReport(Record):
    """Outcome of comparing polynomials across all trees up to a size bound:
    the full-polynomial pairs, and the groups of trees that share the
    polynomial at y=1 and at x=1, each with that polynomial."""

    __slots__ = _fields = (
        "n_max", "tree_count", "full_pairs", "collisions_at_y1", "collisions_at_x1",
    )


def _tree_table(
    n_max: int, width: int
) -> tuple[list[int], Sequence[int], Sequence[int], list[int], list[int]]:
    """Every tree with at most n_max vertices as an index, in blocks by size,
    each block in `_trees_of_size`'s order: ``(starts, first, rest, y1, x1)``.

    Block n holds the indices from ``starts[n]`` up to ``starts[n + 1]``.
    Index 0 is the lone vertex; a larger tree t is its first branch
    ``first[t]``, the largest by (size, index), over the tree ``rest[t]``
    of its other branches, and a block lists its trees by descending first
    branch, as `multisets` lists forests.  So the trees whose first branch
    is at most b are a suffix of their block, found by bisection, and they
    are the rests of the trees with first branch b, in order.

    ``y1[t]`` and ``x1[t]`` are P(x,1) and P(1,y) packed in ``width``-bit
    fields.  With z = 1 << width, a vertex of an n-vertex tree adds 1 at
    y=1 and z**(n-1) at x=1 to the product of its branches' keys, so a
    rest's key less that term is the product of the other branches', and
    each key costs one product.
    """
    from array import array  # here, so that the tree path does not load it

    first, rest = array("l", [-1]), array("l", [-1])
    y1, x1 = [1 << width], [1]
    starts = [0, 0, 1]
    for n in range(2, n_max + 1):
        top = 1 << (width * (n - 1))
        for s in range(n - 1, 0, -1):
            m = n - s
            lo, end = starts[m], starts[m + 1]
            low = 1 << (width * (m - 1))
            for b in range(starts[s + 1] - 1, starts[s] - 1, -1):
                yb, xb = y1[b], x1[b]
                if m == 1:  # the rest is the lone vertex: b is the only branch
                    first.append(b)
                    rest.append(0)
                    y1.append(yb + 1)
                    x1.append(xb + top)
                    continue
                lo = bisect_left(first, -b, lo, end, key=neg)
                first.extend(itertools.repeat(b, end - lo))
                rest.extend(range(lo, end))
                y1 += [yb * (y - 1) + 1 for y in y1[lo:end]]
                x1 += [xb * (x - low) + top for x in x1[lo:end]]
        starts.append(len(first))
    return starts, first, rest, y1, x1


def _groups(indices: Iterable[int], key: list[int]) -> list[list[int]]:
    """Ascending indices sorted on ``key`` and cut into runs of equal keys:
    the runs of two or more, each still ascending, as the sort is stable."""
    runs = []
    for _, run in itertools.groupby(sorted(indices, key=key.__getitem__), key.__getitem__):
        run = list(run)
        if len(run) >= 2:
            runs.append(run)
    return runs


def collision_search(n_max: int) -> CollisionReport:
    """Find non-isomorphic trees sharing a polynomial, up to n_max vertices.

    Full two-variable collisions are reported as pairs; the single-variable
    specialisations at y=1 and at x=1 are reported as groups of trees that
    share the specialised polynomial.

    The trees are the indices of `_tree_table`, each with P(x,1) and P(1,y)
    packed in one int; they are grouped by sorting the indices on each key,
    and full polynomials are compared only within a group that shares both.
    Strings, trees and polynomials are made for group members alone.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if n_max > COLLISION_BOUND:
        raise OracleBoundError(
            f"collision search is bounded at {COLLISION_BOUND} vertices"
        )
    # Every field below, a branch product's too, counts maximal antichains
    # of a tree with at most n_max vertices, so it is below 2**n_max.
    field_bytes = _field_bytes((1 << n_max) - 1)
    starts, first, rest, y1, x1 = _tree_table(n_max, 8 * field_bytes)
    count = starts[-1]
    at_y1 = [(y1[g[0]], g) for g in _groups(range(count), y1)]
    at_x1 = [(x1[g[0]], g) for g in _groups(range(count), x1)]
    at_both = [run for _, group in at_y1 for run in _groups(group, x1)]
    del y1, x1

    # A member's string from its branches', read down the chain of rests,
    # and its tree, each made once.
    strings: list[str | None] = [None] * count

    def string(t: int) -> str:
        s = strings[t]
        if s is None:
            kids, r = [], t
            while (b := first[r]) >= 0:
                kids.append(string(b))
                r = rest[r]
            s = strings[t] = _canonical(kids)
        return s

    trees: list[RootedTree | None] = [None] * count

    def tree(t: int) -> RootedTree:
        u = trees[t]
        if u is None:
            u = trees[t] = RootedTree._trusted(string(t))
        return u

    def tree_key(u: RootedTree):
        return (len(u.encoding), u.encoding)

    def sorted_trees(group: list[int]) -> list[RootedTree]:
        return sorted(map(tree, group), key=tree_key)

    full_pairs = []
    for group in at_both:
        by_poly: dict[BivariatePoly, list[RootedTree]] = defaultdict(list)
        for u in sorted_trees(group):
            by_poly[tree_poly(u)].append(u)
        for same in by_poly.values():
            full_pairs.extend(itertools.combinations(same, 2))

    def poly_x1(packed: int) -> BivariatePoly:
        return _unpack_rows([(0, packed)], field_bytes)

    # The same fields, read as the coefficients of x; a row (i, 0, (c,))
    # recurs in many polynomials, so each is made once.
    rows_y1: dict[tuple[int, int], tuple] = {}

    def poly_y1(packed: int) -> BivariatePoly:
        ((_, _, coeffs),) = poly_x1(packed)._rows
        rows = []
        for i, c in enumerate(coeffs):
            if c:
                row = rows_y1.get((i, c))
                if row is None:
                    row = rows_y1[i, c] = (i, 0, (c,))
                rows.append(row)
        return BivariatePoly._trusted(tuple(rows))

    def groups(keyed, poly) -> list[tuple[BivariatePoly, list[RootedTree]]]:
        kept = [(poly(key), sorted_trees(group)) for key, group in keyed]
        # Each polynomial is formatted once, for its sort key, and keeps the text.
        kept.sort(key=lambda item: (item[1][0].size, str(item[0])))
        return kept

    return CollisionReport(
        n_max=n_max,
        tree_count=count,
        full_pairs=sorted(full_pairs, key=lambda ab: (tree_key(ab[0]), tree_key(ab[1]))),
        collisions_at_y1=groups(at_y1, poly_y1),
        collisions_at_x1=groups(at_x1, poly_x1),
    )
