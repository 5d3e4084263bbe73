"""Shared fixtures: the worked examples used across the test modules."""

from __future__ import annotations

import itertools
import os
from collections import defaultdict
from pathlib import Path

from hypothesis import strategies as st

import vposets
from vposets import (
    BivariatePoly, CollisionReport, Poset, RootedTree, tree_poly,
)
from vposets.bruteforce import _bits, _holding
from vposets.trees import _trees_of_size

# The environment of a `python -m vposets.cli` child: it imports the package
# from where the tests do.
CLI_ENV = {**os.environ, "PYTHONPATH": str(Path(vposets.__file__).resolve().parents[1])}

# Six-vertex example tree: root with a two-leaf branch and a one-leaf branch.
FIGURE_TREE_TEXT = "((()())(()))"
FIGURE_TREE_POLY = BivariatePoly(
    {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1, (0, 5): 1}
)

# Ten-element example V-poset (1-indexed relations, u < v per line).
FIGURE_POSET_TEXT = "10\n2 1\n3 2\n4 2\n5 3\n6 4\n7 5\n7 6\n8 1\n7 8\n9 1\n10 9\n"
FIGURE_POSET_POLY = BivariatePoly(
    {
        (0, 9): 1,
        (0, 7): 1,
        (1, 6): 1,
        (1, 5): 1,
        (2, 4): 1,
        (1, 3): 1,
        (2, 2): 3,
        (3, 1): 3,
        (4, 0): 1,
    }
)
FIGURE_POSET_STR = (
    "y^9 + y^7 + x*y^6 + x*y^5 + x^2*y^4 + x*y^3 + 3*x^2*y^2 + 3*x^3*y + x^4"
)

# The thirteen maximal antichains of the example poset, 0-indexed.
FIGURE_POSET_MAX_ANTICHAINS = [
    {0},
    {6, 8},
    {6, 9},
    {1, 7, 8},
    {1, 7, 9},
    {2, 3, 7, 8},
    {2, 3, 7, 9},
    {2, 5, 7, 8},
    {2, 5, 7, 9},
    {4, 3, 7, 8},
    {4, 3, 7, 9},
    {4, 5, 7, 8},
    {4, 5, 7, 9},
]

# Four-element forbidden posets: u=0, v=1, w=2, x=3.
N_POSET = Poset.from_covers(4, [(2, 0), (3, 0), (3, 1)])
BOWTIE_POSET = Poset.from_covers(4, [(2, 0), (3, 0), (2, 1), (3, 1)])


def chain_text(n: int) -> str:
    """Poset text of the linear order 1 < 2 < ... < n."""
    return f"{n}\n" + "".join(f"{k} {k + 1}\n" for k in range(1, n))


# Pairs of non-isomorphic trees with matching single-variable polynomials.
T1_TEXT = "(((())(())(())))"
T2_TEXT = "(((()))((())()))"
T3_TEXT = "((((())))())"
T4_TEXT = FIGURE_TREE_TEXT

T1_POLY = BivariatePoly({(0, 7): 1, (0, 6): 1, (0, 3): 1, (1, 2): 3, (2, 1): 3, (3, 0): 1})
T2_POLY = BivariatePoly(
    {(0, 7): 1, (0, 5): 1, (0, 4): 1, (1, 3): 2, (2, 2): 1, (1, 2): 1, (2, 1): 2, (3, 0): 1}
)
T3_POLY = BivariatePoly({(0, 5): 1, (1, 3): 1, (1, 2): 1, (1, 1): 1, (2, 0): 1})

SHARED_Y1 = BivariatePoly({(3, 0): 1, (2, 0): 3, (1, 0): 3, (0, 0): 3})
SHARED_X1 = BivariatePoly({(0, 5): 1, (0, 3): 1, (0, 2): 1, (0, 1): 1, (0, 0): 1})


def bitmap_sweep(comp_rows):
    """The antichains as one bitmap of their subset codes.  Per element v,
    ``meets`` holds the codes that hold an element comparable to v: a code
    holding v as well is no antichain, and one holding neither v nor such
    an element misses v, so it is not maximal."""
    holding = _holding(len(comp_rows))
    ok = maximal = (1 << (1 << len(comp_rows))) - 1
    for v, row in enumerate(comp_rows):
        meets = 0
        for u in _bits(row):
            meets |= holding[u]
        ok &= ~(holding[v] & meets)
        maximal &= holding[v] | meets
    return ok.bit_count(), list(_bits(ok & maximal))


def rooted_tree_count(n: int) -> int:
    """Independent count of unlabeled rooted trees via the divisor recurrence."""
    counts = [0, 1]
    for m in range(2, n + 1):
        total = 0
        for k in range(1, m):
            divisor_sum = sum(d * counts[d] for d in range(1, k + 1) if k % d == 0)
            total += divisor_sum * counts[m - k]
        counts.append(total // (m - 1))
    return counts[n]


def assert_status_preserved(trace):
    """Replay a build trace, checking element statuses survive each step.

    Adding a greatest or least element must keep the basic/upper/lower
    classification of the existing elements and add a non-basic element,
    except that adding a least element to a linear order moves the basic
    status to the new element, and the element added to the empty poset is
    basic.
    """
    from vposets import element_status, replay_trace
    from vposets.posets import AddLeast, BASIC, DisjointUnion, Empty

    if isinstance(trace, Empty):
        return
    if isinstance(trace, DisjointUnion):
        parts = [replay_trace(part) for part in trace.parts]
        whole = Poset.disjoint_union(parts)
        combined = [s for part in parts for s in element_status(part)]
        assert element_status(whole) == combined
        for part in trace.parts:
            assert_status_preserved(part)
        return
    inner = replay_trace(trace.inner)
    outer = replay_trace(trace)
    status_in = element_status(inner)
    status_out = element_status(outer)
    if inner.n == 0:
        assert status_out == [BASIC]
    else:
        linear = inner.relation_count == inner.n * (inner.n - 1) // 2
        if not (isinstance(trace, AddLeast) and linear):
            assert status_out[: inner.n] == status_in
            assert status_out[inner.n] != BASIC
    assert_status_preserved(trace.inner)


def bit_row_components(p, live):
    """Components of the comparability graph on ``live``, by least element
    k, each as (mask >> k, k), flooded over the closed rows: each round ORs
    the rows of the elements last added, or keeps the elements left that
    touch the component, whichever are fewer."""
    from vposets.posets import _bits

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


def bit_row_peel(p, steps):
    """The peel over live masks of the closed rows, as recognition ran
    before it peeled the relation graph: yield each component with neither
    a greatest nor a least element, and append the construction steps to
    ``steps`` in reverse post-order.  A mask of s members waits shifted,
    with the counts of elements taken above and below it, so its greatest
    is the member whose down row holds s - 1 + below."""
    from vposets.polynomial import EMPTY, GREATEST, LEAST
    from vposets.posets import _size_tables

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
            comps = list(bit_row_components(p, live))
            if len(comps) == 1:
                yield live
            else:
                steps.append(len(comps))
                todo += [(c, k, above, below) for c, k in comps]


def tree_of(parents):
    """The tree of a parent array (``parents[v] < v``), through `RootedTree`."""
    kids = [[] for _ in parents]
    for v in range(len(parents) - 1, 0, -1):
        kids[parents[v]].append(v)
    node = [None] * len(parents)
    for v in range(len(parents) - 1, -1, -1):
        node[v] = RootedTree(node[c] for c in kids[v])
    return node[0]


def parents_of(t):
    """Parent array of ``t`` in canonical preorder: first branch first."""
    parents = []
    stack = [(t, -1)]
    while stack:
        node, par = stack.pop()
        parents.append(par)
        stack.extend((c, len(parents) - 1) for c in reversed(node.children))
    return parents


@st.composite
def parent_arrays(draw, max_size=80):
    n = draw(st.integers(1, max_size))
    return [-1] + [draw(st.integers(0, v - 1)) for v in range(1, n)]


def reference_collisions(n_max):
    """`collision_search` by one `tree_poly` per tree, each specialised at
    y=1 and at x=1, grouped by the polynomials themselves.  The trees are the
    generator's strings, read past `enumerate_rooted_trees`' bound."""
    trees = [RootedTree._trusted(s) for n in range(1, n_max + 1) for s in _trees_of_size(n)]
    by_full, by_y1, by_x1 = defaultdict(list), defaultdict(list), defaultdict(list)
    for t in trees:
        p = tree_poly(t)
        by_full[p].append(t)
        by_y1[p.specialize(y=1)].append(t)
        by_x1[p.specialize(x=1)].append(t)

    def tree_key(t):
        return (t.size, t.encoding)

    full_pairs = []
    for group in by_full.values():
        group.sort(key=tree_key)
        full_pairs.extend(itertools.combinations(group, 2))

    def groups(table):
        kept = [(p, sorted(g, key=tree_key)) for p, g in table.items() if len(g) >= 2]
        kept.sort(key=lambda item: (item[1][0].size, str(item[0])))
        return kept

    return CollisionReport(
        n_max=n_max,
        tree_count=len(trees),
        full_pairs=sorted(full_pairs, key=lambda ab: (tree_key(ab[0]), tree_key(ab[1]))),
        collisions_at_y1=groups(by_y1),
        collisions_at_x1=groups(by_x1),
    )


def reference_v_series(order):
    """v_0..v_order by the multiset recurrence with every product taken one
    at a time: q_n, then c_n by a divisor scan, then the whole sum."""
    v = [1]
    q = [0]
    c = [0]
    for n in range(1, order + 1):
        q.append(1 if n == 1 else 2 * v[n - 1] - v[n - 2])
        c.append(sum(d * q[d] for d in range(1, n + 1) if n % d == 0))
        total = sum(c[k] * v[n - k] for k in range(1, n + 1))
        if total % n:
            raise ArithmeticError(
                f"multiset recurrence produced a non-integer coefficient at n={n}"
            )
        v.append(total // n)
    return tuple(v)
