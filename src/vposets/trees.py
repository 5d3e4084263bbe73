"""Rooted trees, their two-variable polynomials, and counting oracles.

A tree is its canonical parenthesis string: a vertex is "(", its branches'
strings in sorted order, then ")", so isomorphic inputs give equal trees.
Vertices are numbered in the order of their "(" (the root is 0), which
makes antichain output stable across runs.

A tree is a V-poset: its root is a greatest element over the union of the
branches.  `tree_poly` reads the build steps off the string in one scan and
hands them to the evaluator that `poset_poly` uses; each brute-force tree
oracle is the poset oracle on `tree_to_poset`, whose order is another scan
of the string.  `tree_poly_dc` (deletion-contraction) and
`antichain_expansion_tree` (one monomial per maximal antichain) are the
independent routes to the same polynomial.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from . import bruteforce
from .enumeration import multisets
from .errors import OracleBoundError, ParseError
from .polynomial import EMPTY, GREATEST, BivariatePoly, X, build_poly
from .posets import (
    Poset,
    antichain_expansion_poset,
    count_antichains_poset,
    count_cutsets_poset,
    count_maximal_antichains_no_basic,
    count_maximal_antichains_poset,
    maximal_antichains_poset,
)

GENERATION_BOUND = 12


def _canonical(branches: list[str]) -> str:
    """The string of a vertex over its branches' strings, sorted in place."""
    branches.sort()
    return "(" + "".join(branches) + ")"


@dataclass(frozen=True, slots=True, init=False, repr=False)
class RootedTree:
    """An unlabeled rooted tree, held only as its canonical string ``encoding``
    (read-only, since equality and hashing read it)."""

    encoding: str

    def __init__(self, children: Iterable[RootedTree] = ()):
        object.__setattr__(self, "encoding", _canonical([c.encoding for c in children]))

    @classmethod
    def _trusted(cls, encoding: str) -> RootedTree:
        """Wrap a string that is already canonical, without sorting it again."""
        t = object.__new__(cls)
        object.__setattr__(t, "encoding", encoding)
        return t

    @property
    def size(self) -> int:
        return len(self.encoding) // 2

    @property
    def leaf_count(self) -> int:
        return self.encoding.count("()")

    @property
    def children(self) -> tuple[RootedTree, ...]:
        """The branches, split off the encoding at each ")" back at depth 1."""
        text, out, depth, start = self.encoding, [], 0, 1
        for end, ch in enumerate(text, 1):
            depth += 1 if ch == "(" else -1
            if depth == 1 and ch == ")":
                out.append(RootedTree._trusted(text[start:end]))
                start = end
        return tuple(out)

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
# root-edge surgery

def contract_root_edge(t: RootedTree, index: int) -> RootedTree:
    """Merge the root of branch ``index`` into the root of ``t``."""
    kids = t.children
    return RootedTree(kids[:index] + kids[index + 1 :] + kids[index].children)


def delete_root_branch(t: RootedTree, index: int) -> RootedTree:
    """Remove branch ``index`` entirely."""
    return RootedTree(t.children[:index] + t.children[index + 1 :])


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
    runs on an explicit stack with a memo that lives for one call.
    """
    memo: dict[str, BivariatePoly] = {}
    stack: list[tuple[RootedTree, tuple[RootedTree, ...] | None]] = [(t, None)]
    while stack:
        s, minors = stack.pop()
        if minors is not None:
            memo[s.encoding] = _dc_step(s, *(memo[m.encoding] for m in minors))
        elif s.encoding in memo:
            continue
        elif s.size == 1:
            memo[s.encoding] = X
        else:
            minors = (contract_root_edge(s, 0),)
            kids = s.children
            if len(kids) > 1 and kids[0].size > 1:
                minors += (delete_root_branch(s, 0),)
            stack.append((s, minors))
            stack.extend((m, None) for m in minors)
    return memo[t.encoding]


def _dc_step(
    t: RootedTree, contracted: BivariatePoly, deleted: BivariatePoly | None = None
) -> BivariatePoly:
    top = BivariatePoly.monomial(1, 0, t.size - 1)
    kids = t.children
    if len(kids) == 1:
        return contracted + top
    branch = kids[0]
    if branch.size == 1:
        return X * contracted - BivariatePoly.monomial(1, 1, t.size - 2) + top
    return (
        contracted
        + BivariatePoly.monomial(1, 0, branch.size - 1) * deleted
        - BivariatePoly.monomial(2, 0, t.size - 2)
        + top
    )


# ----------------------------------------------------------------------
# vertex layout (canonical DFS indices)

@dataclass(frozen=True)
class TreeLayout:
    """Per-vertex tables in canonical preorder; index 0 is the root."""

    parent: tuple[int, ...]              # -1 for the root
    is_leaf: tuple[bool, ...]
    ancestor_mask: tuple[int, ...]       # strict ancestors as a bitmask


def tree_layout(t: RootedTree) -> TreeLayout:
    parent: list[int] = []
    anc: list[int] = []
    open_vertices = [-1]
    for ch in t.encoding:
        if ch == "(":
            par = open_vertices[-1]
            open_vertices.append(len(parent))
            parent.append(par)
            anc.append(0 if par < 0 else anc[par] | (1 << par))
        else:
            open_vertices.pop()
    inner = set(parent)
    is_leaf = tuple(v not in inner for v in range(len(parent)))
    return TreeLayout(parent=tuple(parent), is_leaf=is_leaf, ancestor_mask=tuple(anc))


def tree_to_poset(t: RootedTree, orientation: str = "greatest") -> Poset:
    """Poset whose cover graph is the tree; the root becomes the greatest
    element (orientation "greatest") or the least one ("least").

    Elements are the canonical preorder indices of `tree_layout`, and the
    strict ancestors of a vertex are the elements above it.
    """
    if orientation not in ("greatest", "least"):
        raise ValueError("orientation must be 'greatest' or 'least'")
    p = Poset._trusted(t.size, tree_layout(t).ancestor_mask)
    return p if orientation == "greatest" else p.dual()


# ----------------------------------------------------------------------
# brute-force oracles: the poset oracles on the tree as a V-poset

def _oracle_poset(t: RootedTree) -> Poset:
    # Refuse before building the poset, so a huge tree costs nothing.
    bruteforce.check_subset_bound(t.size, "tree")
    return tree_to_poset(t)


@dataclass(frozen=True)
class TreeAntichain:
    """A maximal antichain with its leaf count and number of vertices below it."""

    vertices: frozenset[int]
    leaf_count: int
    below_count: int


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
    check runs over all 2**n vertex sets, independently of the antichains.
    """
    bruteforce.check_subset_bound(t.size, "tree")
    parent = tree_layout(t).parent
    codes = np.arange(1 << t.size, dtype=np.int64)
    closed = (codes & 1) == 1
    for v in range(1, t.size):
        # v without its parent breaks closure
        closed &= (codes & ((1 << v) | (1 << parent[v]))) != 1 << v
    return int(closed.sum()) + 1


# ----------------------------------------------------------------------
# exhaustive generation

@lru_cache(maxsize=GENERATION_BOUND)
def _trees_of_size(n: int) -> tuple[RootedTree, ...]:
    if n == 1:
        return (RootedTree(),)
    return tuple(RootedTree(forest) for forest in multisets(_trees_of_size, n - 1))


def enumerate_rooted_trees(n: int) -> list[RootedTree]:
    """All unlabeled rooted trees on n vertices, one per isomorphism class."""
    if n < 1:
        raise ValueError("trees have at least one vertex")
    if n > GENERATION_BOUND:
        raise OracleBoundError(
            f"exhaustive tree generation is bounded at {GENERATION_BOUND} vertices"
        )
    return list(_trees_of_size(n))


# ----------------------------------------------------------------------
# polynomial collision search

@dataclass
class CollisionReport:
    """Outcome of comparing polynomials across all trees up to a size bound."""

    n_max: int
    tree_count: int
    full_pairs: list[tuple[RootedTree, RootedTree]]
    collisions_at_y1: list[tuple[BivariatePoly, list[RootedTree]]]
    collisions_at_x1: list[tuple[BivariatePoly, list[RootedTree]]]


def collision_search(n_max: int) -> CollisionReport:
    """Find non-isomorphic trees sharing a polynomial, up to n_max vertices.

    Full two-variable collisions are reported as pairs; the single-variable
    specialisations at y=1 and at x=1 are reported as groups of trees that
    share the specialised polynomial.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if n_max > GENERATION_BOUND:
        raise OracleBoundError(
            f"collision search is bounded at {GENERATION_BOUND} vertices"
        )
    trees: list[RootedTree] = []
    for n in range(1, n_max + 1):
        trees.extend(_trees_of_size(n))
    by_full: dict[BivariatePoly, list[RootedTree]] = defaultdict(list)
    by_y1: dict[BivariatePoly, list[RootedTree]] = defaultdict(list)
    by_x1: dict[BivariatePoly, list[RootedTree]] = defaultdict(list)
    for t in trees:
        p = tree_poly(t)
        by_full[p].append(t)
        by_y1[p.specialize(y=1)].append(t)
        by_x1[p.specialize(x=1)].append(t)

    def tree_key(t: RootedTree):
        return (t.size, t.encoding)

    full_pairs = []
    for group in by_full.values():
        group.sort(key=tree_key)
        full_pairs.extend(itertools.combinations(group, 2))

    def groups(table) -> list[tuple[BivariatePoly, list[RootedTree]]]:
        kept = [
            (p, sorted(g, key=tree_key)) for p, g in table.items() if len(g) >= 2
        ]
        kept.sort(key=lambda item: (item[1][0].size, str(item[0])))
        return kept

    return CollisionReport(
        n_max=n_max,
        tree_count=len(trees),
        full_pairs=sorted(full_pairs, key=lambda ab: (tree_key(ab[0]), tree_key(ab[1]))),
        collisions_at_y1=groups(by_y1),
        collisions_at_x1=groups(by_x1),
    )
