"""The CLI's limits, one row per command and input.

A row names an input generator (or None), the command line with FILE where
the input's path goes, the exit status, a time limit in seconds, an
address-space limit in MB (or None) and the texts that stdout or stderr
must contain.  Each row runs `python -m vposets.cli` in a child process
under the time limit and, where it sets one, `RLIMIT_AS` on that child
only; no row may leave a traceback.  The antichain sweep branches in
plain Python ints, so the rows at the subset bound run under 100 MB too.
"""

import random
import resource
import subprocess
import sys
from decimal import Decimal, localcontext

import pytest

from vposets.bruteforce import SUBSET_BOUND
from vposets.enumeration import CENSUS_BOUND, SERIES_BOUND
from vposets.posets import tree_to_poset
from vposets.trees import COLLISION_BOUND, parse_tree

from helpers import CLI_ENV, chain_text, tree_of

with localcontext() as ctx:  # str() of an int past 4300 digits raises by default
    ctx.prec = 20000
    TWO_TO_20000 = str(Decimal(2) ** 20000)


def mirrored(n):
    """n // 2 two-element chains {i, n + 1 - i}: each spans the indices."""
    return f"{n}\n" + "".join(f"{i} {n + 1 - i}\n" for i in range(1, n // 2 + 1))


def fence(m):
    """2m elements, maximum m + i above minima i and i + 1.  It holds an N."""
    return f"{2 * m}\n" + "".join(f"{i} {m + i}\n{i + 1} {m + i}\n" for i in range(1, m))


def caterpillar(h, leg="()"):
    """The caterpillar with an h-vertex spine as a poset file: its covers,
    numbered in preorder from 1, the root greatest.  Each spine vertex
    holds one ``leg`` beside the rest of the spine."""
    p = tree_to_poset(parse_tree(f"({leg}" * h + ")" * h))
    return f"{p.n}\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in p.covers())


def random_tree(n, seed):
    """A random recursive tree: vertex v hangs below a uniform earlier one."""
    rng = random.Random(seed)
    return tree_of([-1] + [rng.randrange(v) for v in range(1, n)]).encoding


def row(name, make, argv, status, seconds, mb=None, expect=()):
    return pytest.param(make, argv, status, seconds, mb, expect, id=name)


OOM = ("error: out of memory",)
PATH = "(" * 20000 + ")" * 20000  # a path of 20000 vertices

ROWS = [
    # Long chains, tall paths and a tall caterpillar, past the default
    # recursion limit.
    row("check-chain-2000", lambda: chain_text(2000), "check FILE", 0, 60),
    row("poset-poly-chain-2000", lambda: chain_text(2000), "poset-poly FILE", 0, 60),
    row("counts-chain-5000", lambda: chain_text(5000), "counts FILE", 0, 10),
    row("tree-poly-path-20000", lambda: PATH, "tree-poly FILE", 0, 60, mb=60,
        expect=(" + ".join([f"y^{k}" for k in range(19999, 1, -1)] + ["y", "x\n"]),)),
    row("tree-poly-eval-path-20000", lambda: PATH, "tree-poly --eval 2 2 FILE", 0, 60,
        expect=(f"P(2,2) = {TWO_TO_20000}\n",)),
    row("tree-poly-eval-json-path-20000", lambda: PATH,
        "tree-poly --eval 2 2 --json FILE", 0, 60),
    row("tree-poly-caterpillar-100000", lambda: "(()" * 100000 + ")" * 100000,
        "tree-poly FILE", 0, 10),
    # Recognition peels the relation graph, closing no rows: a greatest or
    # least element is a component's one sink or source, and a split
    # searches all parts but the largest, so a chain labelled downward and a
    # caterpillar cost a few steps per element.
    row("check-chain-down-20000", lambda: "20000\n" + "".join(
        f"{i + 1} {i}\n" for i in range(1, 20000)), "check FILE", 0, 10),
    row("check-caterpillar-20000", lambda: caterpillar(10000), "check FILE", 0, 10),
    row("check-caterpillar-64000", lambda: caterpillar(32000), "check FILE", 0, 10, mb=200,
        expect=("VPOSET (g (union (g (union ",)),
    # Legs of two elements are no lone parts, so each split is searched,
    # the spine's search first: it must not walk the spine.
    row("check-legged-caterpillar-60000", lambda: caterpillar(20000, leg="(())"), "check FILE",
        0, 10, mb=200, expect=("VPOSET (g (union (g (union ",)),
    # Wide antichains: each element is a component of its own.
    row("check-antichain-50000", lambda: "50000\n", "check FILE", 0, 60, mb=100,
        expect=("VPOSET (union" + " (g empty)" * 50000 + ")\n",)),
    row("check-antichain-1000000", lambda: "1000000\n", "check FILE", 0, 30,
        expect=("VPOSET (union (g empty) (g empty) ", " (g empty) (g empty))\n")),
    row("counts-antichain-50000", lambda: "50000\n", "counts FILE", 0, 60),
    row("counts-antichain-20000", lambda: "20000\n", "counts FILE", 0, 60,
        expect=(f"P(2,1)\t{TWO_TO_20000}\t", f"P(2,2)\t{TWO_TO_20000}\t")),
    # Chains spanning the indices cost their relation lines, not rows of
    # the width; inputs that run out of memory exit 3 with one error line.
    row("check-mirrored-50000", lambda: mirrored(50000), "check FILE", 0, 60, mb=350),
    row("check-mirrored-50000-150mb", lambda: mirrored(50000), "check FILE", 0, 60, mb=150,
        expect=("VPOSET (union (g (g empty)) ",)),
    row("check-count-1e9", lambda: f"{10**9}\n", "check FILE", 3, 60, mb=200, expect=OOM),
    row("counts-count-1e9", lambda: f"{10**9}\n", "counts FILE", 3, 60, mb=200, expect=OOM),
    row("poset-poly-count-1e9", lambda: f"{10**9}\n", "poset-poly FILE", 3, 60, mb=200,
        expect=OOM),
    # Forbidden patterns: the witness scan walks a live down set only where it
    # has no greatest element, and an element above such a descent reuses
    # that walk, so the scan costs a few row operations per live relation,
    # also when every u has a chain of two below it or a long chain.
    row("check-fence-20000", lambda: fence(10000), "check FILE", 1, 10, mb=200,
        expect=("NOT-VPOSET N ",)),
    row("check-crown-20000", lambda: fence(10000) + "10000 20000\n1 20000\n", "check FILE", 1, 10,
        mb=200, expect=("NOT-VPOSET N ",)),
    row("check-k100-100", lambda: "200\n" + "".join(
        f"{i} {100 + j}\n" for i in range(1, 101) for j in range(1, 101)), "check FILE", 1, 10,
        expect=("NOT-VPOSET BOWTIE ",)),
    row("check-chains-under-one-12001", lambda: "12001\n" + "".join(
        f"{3 * i + 1} {3 * i + 2}\n{3 * i + 2} {3 * i + 3}\n{3 * i + 1} 12001\n"
        for i in range(4000)), "check FILE", 1, 10, expect=("NOT-VPOSET N 12001 2 4 1\n",)),
    row("check-long-chain-5003", lambda: "5003\n" + "".join(
        f"{i} {i + 1}\n" for i in range(1, 5001)) + "1 5002\n5003 5001\n", "check FILE", 1, 10,
        expect=("NOT-VPOSET N 5001 5002 5003 1\n",)),
    # Wide unions: a spider of 1000 two-vertex legs and 1000 disjoint 2-chains.
    row("tree-poly-spider-1000", lambda: "(" + "(())" * 1000 + ")", "tree-poly FILE", 0, 60),
    row("poset-poly-two-chains-1000", lambda: "2000\n" + "".join(
        f"{2 * i + 1} {2 * i + 2}\n" for i in range(1000)), "poset-poly FILE", 0, 60),
    # At the subset bound the oracles sweep; one past it they answer "-".
    row("counts-chain-20", lambda: chain_text(SUBSET_BOUND), "counts FILE", 0, 60, mb=100,
        expect=("\tok\n",)),
    row("counts-star-20", lambda: "(" + "()" * (SUBSET_BOUND - 1) + ")", "counts FILE", 0, 60,
        mb=100, expect=("\tok\n",)),
    row("counts-antichain-20", lambda: f"{SUBSET_BOUND}\n", "counts FILE", 0, 60, mb=100,
        expect=("\tok\n",)),
    # Six 3-chains and two points: 729 maximal antichains, each listed.
    row("counts-three-chains-20", lambda: f"{SUBSET_BOUND}\n" + "".join(
        f"{3 * i + 1} {3 * i + 2}\n{3 * i + 2} {3 * i + 3}\n" for i in range(6)),
        "counts FILE", 0, 60, mb=100, expect=("P(1,1)\t729\tmaximal antichains\t729\tok\n",)),
    row("counts-antichain-21", lambda: f"{SUBSET_BOUND + 1}\n", "counts FILE", 0, 60,
        expect=(f"P(2,1)\t{2 ** (SUBSET_BOUND + 1)}\tantichains\t-\t-\n",)),
    row("poset-poly-expansion-antichain-21", lambda: f"{SUBSET_BOUND + 1}\n",
        "poset-poly --expansion FILE", 3, 60, expect=("subset oracle bound",)),
    # One past every other named bound.
    row("tree-poly-dc-random-200", lambda: random_tree(200, seed=1), "tree-poly --dc FILE",
        3, 60, mb=200, expect=("work bound",)),
    row("collide-max-12", None, "collide --max 12", 0, 10,
        expect=("trees examined: 7813 ", "full-polynomial collisions: none\n")),
    row("collide-max-16", None, f"collide --max {COLLISION_BOUND}", 0, 10, mb=300,
        expect=("trees examined: 376464 ", "full-polynomial collisions: none\n")),
    row("collide-max-17", None, f"collide --max {COLLISION_BOUND + 1}", 3, 60,
        expect=(f"bounded at {COLLISION_BOUND} vertices",)),
    row("census-max-2000", None, f"census --max {SERIES_BOUND}", 0, 30,
        expect=("\n2000\t36246945465481421765",)),
    row("census-max-2001", None, f"census --max {SERIES_BOUND + 1}", 3, 10,
        expect=(f"bounded at order {SERIES_BOUND}",)),
    row("census-max-9", None, f"census --max {CENSUS_BOUND + 1}", 0, 60,
        expect=("\n8\t1184\t1184\n9\t3823\n",)),
    row("census-max-8-connected", None, "census --max 8 --connected", 0, 10,
        expect=("\n8\t1184\t625\t1184\n",)),
    row("asymptotics-order-2001", None, f"asymptotics --order {SERIES_BOUND + 1}", 3, 60,
        expect=(f"bounded at order {SERIES_BOUND}",)),
    row("asymptotics-order-536", None, "asymptotics --order 536", 2, 60,
        expect=("error: truncation order 536 overflows",)),
]


@pytest.mark.parametrize("make, argv, status, seconds, mb, expect", ROWS)
def test_limit(tmp_path, make, argv, status, seconds, mb, expect):
    args = argv.split()
    if make is not None:
        f = tmp_path / "input"
        f.write_text(make())
        args = [str(f) if a == "FILE" else a for a in args]

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (mb << 20, mb << 20))

    run = subprocess.run(
        [sys.executable, "-m", "vposets.cli", *args],
        capture_output=True, text=True, timeout=seconds, env=CLI_ENV,
        preexec_fn=limit_address_space if mb else None,
    )
    assert "Traceback" not in run.stderr, run.stderr
    assert run.returncode == status, run.stderr
    for text in expect:
        assert text in run.stdout + run.stderr
