"""Seeded input generators for the benchmark workloads.

Every generator draws from a `random.Random` it is handed, so one seed fixes
the whole input stream.  Inputs reach the package as text, exactly as a CLI
user would supply them; the generator also keeps its own description of each
input (parent array, construction trace, closed order) so the answer checks
in `checks.py` never have to trust the package.

Sizes are stratified: a block of k inputs takes one size from each of k
equal-probability strata of the size distribution, and shapes are assigned
in alternation along the sorted sizes.  Two seeds therefore get inputs of the
same size mix and differ only in shapes and labels, which keeps run-to-run
spread low without making the stream repeat itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# tree-stream: log-uniform 16..160 vertices, one tall tree per block.
TREE_MIN, TREE_MAX = 16, 160
TREE_BLOCK = 500
TALL_MIN, TALL_MAX = 350, 600
# Deep-biased trees attach each vertex to one of the last few vertices.
DEEP_WINDOW = 4

# poset-stream: log-uniform 16..96 elements, 3 in 10 carry a planted pattern.
POSET_MIN, POSET_MAX = 16, 96
POSET_BLOCK = 500
PLANTED_PER_TEN = 3
SPINE_SHARES = (0.05, 0.5)
PART_UNION_SHARE = 0.5

# oracle-stream: 10..16 elements, 6 in 200 at 18; half trees, half posets.
ORACLE_SIZES = range(10, 17)
ORACLE_LARGE = 18
ORACLE_BLOCK = 200
ORACLE_LARGE_PER_BLOCK = 6

EMPTY = ("e",)

# Four-element forbidden patterns; element order is (w, x, u, v) with
# w < u, x < u, x < v, and for the bowtie also w < v.
PATTERN_ROWS = {
    "N": (1 << 2, (1 << 2) | (1 << 3), 0, 0),
    "bowtie": ((1 << 2) | (1 << 3), (1 << 2) | (1 << 3), 0, 0),
}


@dataclass(frozen=True)
class TreeInput:
    text: str
    parents: tuple[int, ...]  # parents[v] < v; parents[0] == -1
    kind: str                 # "bushy", "deep" or "tall"
    height: int
    key: str                  # canonical encoding, equal for isomorphic trees

    @property
    def size(self) -> int:
        return len(self.parents)


@dataclass(frozen=True)
class PosetInput:
    text: str
    up: tuple[int, ...]       # closed strict order in input labels (0-based)
    trace: tuple              # generator trace; contains a ("p", kind) node if planted
    planted: str | None       # "N", "bowtie" or None for a V-poset
    key: str                  # canonical trace text

    @property
    def size(self) -> int:
        return len(self.up)


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def stratified_sizes(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """`count` sizes, log-uniform on [lo, hi], one per equal-probability stratum."""
    span = math.log(hi / lo)
    return [
        min(hi, max(lo, round(lo * math.exp(span * (k + rng.random()) / count))))
        for k in range(count)
    ]


def _alternate(rng: random.Random, sizes: list[int], a: str, b: str) -> list[tuple[int, str]]:
    """Pair consecutive sorted sizes and give each pair one `a` and one `b`."""
    out = []
    ordered = sorted(sizes)
    for k in range(0, len(ordered), 2):
        kinds = [a, b]
        rng.shuffle(kinds)
        out.extend(zip(ordered[k : k + 2], kinds))
    return out


# ----------------------------------------------------------------------
# trees

def bushy_parents(rng: random.Random, n: int) -> list[int]:
    """Random recursive tree: each vertex hangs under a uniform earlier one."""
    return [-1] + [rng.randrange(v) for v in range(1, n)]


def deep_parents(rng: random.Random, n: int) -> list[int]:
    return [-1] + [rng.randrange(max(0, v - DEEP_WINDOW), v) for v in range(1, n)]


def tall_parents(rng: random.Random, height: int) -> list[int]:
    """A path of the given height, or a caterpillar with legs on half its spine."""
    parents = [-1] + list(range(height))
    if rng.random() < 0.5:
        parents += [s for s in range(height) if rng.random() < 0.5]
    return parents


def _children(parents) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in parents]
    for v in range(1, len(parents)):
        kids[parents[v]].append(v)
    return kids


def tree_text(parents, rng: random.Random) -> str:
    """Parenthesis text with children in random order (iterative: trees can be tall)."""
    kids = _children(parents)
    out = []
    stack = [0]
    while stack:
        v = stack.pop()
        if v < 0:
            out.append(")")
            continue
        out.append("(")
        stack.append(-1)
        order = kids[v][:]
        rng.shuffle(order)
        stack.extend(reversed(order))
    return "".join(out)


def tree_key(parents) -> str:
    kids = _children(parents)
    enc = [""] * len(parents)
    for v in reversed(range(len(parents))):
        enc[v] = "(" + "".join(sorted(enc[c] for c in kids[v])) + ")"
        for c in kids[v]:
            enc[c] = ""
    return enc[0]


def tree_height(parents) -> int:
    depth = [0] * len(parents)
    for v in range(1, len(parents)):
        depth[v] = depth[parents[v]] + 1
    return max(depth)


def make_tree(rng: random.Random, parents: list[int], kind: str) -> TreeInput:
    return TreeInput(
        text=tree_text(parents, rng),
        parents=tuple(parents),
        kind=kind,
        height=tree_height(parents),
        key=tree_key(parents),
    )


def random_tree(rng: random.Random, n: int, kind: str) -> TreeInput:
    shape = bushy_parents if kind == "bushy" else deep_parents
    return make_tree(rng, shape(rng, n), kind)


def tree_block(rng: random.Random) -> list[TreeInput]:
    """One block of the tree stream: 499 stratified trees and one tall tree."""
    items = [
        random_tree(rng, n, kind)
        for n, kind in _alternate(
            rng, stratified_sizes(rng, TREE_BLOCK - 1, TREE_MIN, TREE_MAX), "bushy", "deep"
        )
    ]
    items.append(make_tree(rng, tall_parents(rng, rng.randint(TALL_MIN, TALL_MAX)), "tall"))
    rng.shuffle(items)
    return items


# ----------------------------------------------------------------------
# posets
#
# A trace is ("e",) for the empty poset, ("g", inner) / ("l", inner) for
# adding a greatest / least element, ("u", parts) for a disjoint union, and
# ("p", kind) for a planted four-element N or bowtie.

def random_part(rng: random.Random, n: int) -> tuple:
    """A random union / add-greatest / add-least trace on n elements."""
    if n == 1:
        return (rng.choice("gl"), EMPTY)
    if rng.random() < PART_UNION_SHARE:
        k = rng.randint(1, n - 1)
        return ("u", (random_part(rng, k), random_part(rng, n - k)))
    return (rng.choice("gl"), random_part(rng, n - 1))


def random_trace(rng: random.Random, n: int, spine_share: float) -> tuple:
    """A V-poset trace on n elements around a spine of add steps.

    The spine is about ``spine_share * n`` add-greatest / add-least steps in a
    row; the other elements form random side parts, each unioned in before a
    random spine step or beside the whole.  Recognition cost grows with the
    spine, so drawing ``spine_share`` from fixed strata fixes the cost mix.
    """
    spine = min(n, max(1, round(spine_share * n)))
    attach: list[list[tuple]] = [[] for _ in range(spine + 1)]
    side = n - spine
    while side:
        k = rng.randint(1, min(side, max(1, n // 6)))
        attach[rng.randint(0, spine)].append(random_part(rng, k))
        side -= k
    trace = EMPTY
    for step in range(spine):
        if attach[step]:
            trace = ("u", (trace, *attach[step])) if trace != EMPTY else _union(attach[step])
        trace = (rng.choice("gl"), trace)
    if attach[spine]:
        trace = ("u", (trace, *attach[spine]))
    return trace


def _union(parts: list[tuple]) -> tuple:
    return parts[0] if len(parts) == 1 else ("u", tuple(parts))


def plant(rng: random.Random, trace: tuple, kind: str) -> tuple:
    """Union a forbidden pattern in at a random node; later steps keep it induced."""
    op = trace[0]
    if op == "u":
        below = list(trace[1])
    elif op in "gl" and trace[1] != EMPTY:
        below = [trace[1]]
    else:
        below = []
    if not below or rng.random() < 0.3:
        return ("u", (trace, ("p", kind)))
    if op == "u":
        i = rng.randrange(len(below))
        below[i] = plant(rng, below[i], kind)
        return ("u", tuple(below))
    return (op, plant(rng, trace[1], kind))


def trace_rows(trace: tuple) -> list[int]:
    """Closed strict order of a trace, elements numbered in construction order."""
    op = trace[0]
    if op == "e":
        return []
    if op == "p":
        return list(PATTERN_ROWS[trace[1]])
    if op == "u":
        rows: list[int] = []
        for part in trace[1]:
            offset = len(rows)
            rows.extend(r << offset for r in trace_rows(part))
        return rows
    inner = trace_rows(trace[1])
    m = len(inner)
    if op == "g":
        return [r | (1 << m) for r in inner] + [0]
    return inner + [(1 << m) - 1]


def trace_key(trace: tuple) -> str:
    op = trace[0]
    if op in "gl" and trace[1] == EMPTY:
        return "1"
    if op == "u":
        return "(u " + " ".join(sorted(trace_key(p) for p in trace[1])) + ")"
    if op == "p":
        return trace[1]
    if op == "e":
        return "0"
    return f"({op} {trace_key(trace[1])})"


def relabel(rows: list[int], rng: random.Random) -> tuple[int, ...]:
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    up = [0] * n
    for i, row in enumerate(rows):
        mask = 0
        for j in bits(row):
            mask |= 1 << perm[j]
        up[perm[i]] = mask
    return tuple(up)


def cover_text(up: tuple[int, ...], rng: random.Random) -> str:
    """Element count, then the cover relations as shuffled 1-indexed "u v" lines."""
    n = len(up)
    down = [0] * n
    for u in range(n):
        for v in bits(up[u]):
            down[v] |= 1 << u
    lines = [
        f"{u + 1} {v + 1}" for u in range(n) for v in bits(up[u]) if not (up[u] & down[v])
    ]
    rng.shuffle(lines)
    return "\n".join([str(n)] + lines) + "\n"


def make_poset(rng: random.Random, n: int, planted: str | None, spine_share: float) -> PosetInput:
    if planted is None:
        trace = random_trace(rng, n, spine_share)
    else:
        trace = plant(rng, random_trace(rng, n - 4, spine_share), planted)
    up = relabel(trace_rows(trace), rng)
    return PosetInput(
        text=cover_text(up, rng), up=up, trace=trace, planted=planted, key=trace_key(trace)
    )


def spine_shares(rng: random.Random, count: int) -> list[float]:
    """`count` spine shares, one per equal stratum of SPINE_SHARES, shuffled."""
    lo, hi = SPINE_SHARES
    shares = [lo + (hi - lo) * (k + rng.random()) / count for k in range(count)]
    rng.shuffle(shares)
    return shares


def poset_block(rng: random.Random) -> list[PosetInput]:
    """One block of the poset stream: 70% V-posets, 30% with a planted pattern.

    Every ten consecutive sizes get three planted posets and seven V-posets
    whose spine shares cover seven strata, so large and long-spined posets
    (the costly ones) come in the same proportion in every block.
    """
    sizes = sorted(stratified_sizes(rng, POSET_BLOCK, POSET_MIN, POSET_MAX))
    items = []
    for k in range(0, len(sizes), 10):
        group = sizes[k : k + 10]
        vposets = len(group) - PLANTED_PER_TEN
        kinds = [None] * vposets + [rng.choice(("N", "bowtie")) for _ in range(PLANTED_PER_TEN)]
        shares = spine_shares(rng, vposets) + spine_shares(rng, PLANTED_PER_TEN)
        order = list(range(len(group)))
        rng.shuffle(order)
        for n, i in zip(group, order):
            items.append(make_poset(rng, n, kinds[i], shares[i]))
    rng.shuffle(items)
    return items


# ----------------------------------------------------------------------
# oracle stream

def oracle_block(rng: random.Random) -> list[TreeInput | PosetInput]:
    """Trees and V-posets, half each, of 10..16 elements and a few of 18.

    The 18-element queries are the slowest and set p99.  Their cost grows with
    the number of comparable pairs, so their shapes are stratified: bushy and
    deep trees alternate, and the posets' spine shares come from equal strata.
    """
    regular = ORACLE_BLOCK - ORACLE_LARGE_PER_BLOCK
    sizes = [ORACLE_SIZES[k % len(ORACLE_SIZES)] for k in range(regular)]
    items: list[TreeInput | PosetInput] = []
    for n, kind in _alternate(rng, sizes, "tree", "poset"):
        if kind == "tree":
            items.append(random_tree(rng, n, rng.choice(("bushy", "deep"))))
        else:
            items.append(make_poset(rng, n, None, rng.uniform(*SPINE_SHARES)))
    half = ORACLE_LARGE_PER_BLOCK // 2
    first = rng.randrange(2)
    for k in range(half):
        items.append(random_tree(rng, ORACLE_LARGE, ("bushy", "deep")[(first + k) % 2]))
    for share in spine_shares(rng, half):
        items.append(make_poset(rng, ORACLE_LARGE, None, share))
    rng.shuffle(items)
    return items


BLOCKS = {
    "tree-stream": tree_block,
    "poset-stream": poset_block,
    "oracle-stream": oracle_block,
}
BLOCK_LEN = {"tree-stream": TREE_BLOCK, "poset-stream": POSET_BLOCK, "oracle-stream": ORACLE_BLOCK}
