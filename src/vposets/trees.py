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

`collision_search` runs no evaluator per tree.  It walks the generated
strings by ascending size, so every branch comes before its tree, and
keeps two ints per tree, P(x,1) and P(1,y), each packed in fields that
hold 2**n_max - 1, above every P(1,1) there, so no coefficient carries
and equal ints mean equal polynomials.  Each follows the tree recursion
with one variable fixed: a leaf is x (or 1), and a vertex is its
branches' product plus 1 (or plus y**(n-1)).  The trees are grouped by
each int, and full polynomials are compared only within a group that
shares both, which no two trees with at most 12 vertices do.  A
polynomial is unpacked only for a group that is reported.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache
from math import prod

from ._record import Record
from .errors import OracleBoundError, ParseError
from .polynomial import EMPTY, GREATEST, BivariatePoly, _field_bytes, _unpack_rows, build_poly

GENERATION_BOUND = 12
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


def collision_search(n_max: int) -> CollisionReport:
    """Find non-isomorphic trees sharing a polynomial, up to n_max vertices.

    Full two-variable collisions are reported as pairs; the single-variable
    specialisations at y=1 and at x=1 are reported as groups of trees that
    share the specialised polynomial.

    Each tree's P(x,1) and P(1,y) are packed ints, made from its branches'
    by the one-variable recursions at one field width; the trees are
    grouped by each, and full polynomials are compared only within a group
    that shares both.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if n_max > GENERATION_BOUND:
        raise OracleBoundError(
            f"collision search is bounded at {GENERATION_BOUND} vertices"
        )
    strings = [s for n in range(1, n_max + 1) for s in _trees_of_size(n)]
    # Every field below, a branch product's too, counts maximal antichains
    # of a tree with at most n_max vertices, so it is below 2**n_max.
    field_bytes = _field_bytes((1 << n_max) - 1)
    width = 8 * field_bytes
    # P(x,1) and P(1,y) of every tree in fields of that width, from its
    # branches', filed under each and under both.
    keys: dict[str, tuple[int, int]] = {}
    by_y1: dict[int, list[str]] = defaultdict(list)
    by_x1: dict[int, list[str]] = defaultdict(list)
    by_both: dict[tuple[int, int], list[str]] = defaultdict(list)
    for s, branches in zip(strings, map(_branches, strings)):
        if branches:
            y1 = prod([keys[b][0] for b in branches]) + 1
            x1 = prod([keys[b][1] for b in branches]) + (1 << (width * (len(s) // 2 - 1)))
        else:
            y1, x1 = 1 << width, 1
        keys[s] = key = (y1, x1)
        by_y1[y1].append(s)
        by_x1[x1].append(s)
        by_both[key].append(s)

    def tree_key(s: str):
        return (len(s), s)

    full_pairs = []
    for group in by_both.values():
        if len(group) >= 2:
            by_poly: dict[BivariatePoly, list[str]] = defaultdict(list)
            for s in sorted(group, key=tree_key):
                by_poly[tree_poly(RootedTree._trusted(s))].append(s)
            for same in by_poly.values():
                full_pairs.extend(itertools.combinations(map(RootedTree._trusted, same), 2))

    def poly_x1(packed: int) -> BivariatePoly:
        return _unpack_rows([(0, packed)], field_bytes)

    def poly_y1(packed: int) -> BivariatePoly:
        # The same fields, read as the coefficients of x.
        return BivariatePoly({(i, 0): c for (_, i), c in poly_x1(packed).term_map.items()})

    def groups(keyed, poly) -> list[tuple[BivariatePoly, list[RootedTree]]]:
        kept = [
            (poly(key), list(map(RootedTree._trusted, sorted(g, key=tree_key))))
            for key, g in keyed.items()
            if len(g) >= 2
        ]
        kept.sort(key=lambda item: (item[1][0].size, str(item[0])))
        return kept

    return CollisionReport(
        n_max=n_max,
        tree_count=len(strings),
        full_pairs=sorted(
            full_pairs, key=lambda ab: (tree_key(ab[0].encoding), tree_key(ab[1].encoding))
        ),
        collisions_at_y1=groups(by_y1, poly_y1),
        collisions_at_x1=groups(by_x1, poly_x1),
    )
