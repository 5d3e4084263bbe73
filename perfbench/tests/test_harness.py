"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests
"""

import ast
import json
import random
from pathlib import Path

import pytest

import vposets as V

import checks
import gen
import queries
import run
import speed
from tracing import COUNTERS, LAYER_CALLS, LAYERS, Tracer


def small_trees(seed: int, count: int = 40) -> list[gen.TreeInput]:
    rng = random.Random(seed)
    items = [gen.random_tree(rng, rng.randint(1, 12), rng.choice(("bushy", "deep")))
             for _ in range(count)]
    items.append(gen.make_tree(rng, gen.tall_parents(rng, 9), "tall"))
    return items


def small_posets(seed: int, count: int = 40) -> list[gen.PosetInput]:
    rng = random.Random(seed)
    return [gen.make_poset(rng, rng.randint(5, 12), rng.choice((None, "N", "bowtie")),
                           rng.uniform(*gen.SPINE_SHARES))
            for _ in range(count)]


@pytest.mark.parametrize("make_block", [gen.tree_block, gen.poset_block, gen.oracle_block])
def test_generators_are_deterministic(make_block):
    first = [item.text for item in make_block(random.Random(7))]
    again = [item.text for item in make_block(random.Random(7))]
    other = [item.text for item in make_block(random.Random(8))]
    assert first == again
    assert first != other


def test_block_composition():
    trees = gen.tree_block(random.Random(1))
    assert len(trees) == gen.TREE_BLOCK
    assert sum(t.kind == "tall" for t in trees) == 1
    assert all(gen.TREE_MIN <= t.size <= gen.TREE_MAX for t in trees if t.kind != "tall")
    assert all(gen.TALL_MIN <= t.height <= gen.TALL_MAX for t in trees if t.kind == "tall")
    posets = gen.poset_block(random.Random(1))
    assert sum(p.planted is not None for p in posets) == gen.POSET_BLOCK * 3 // 10
    assert all(gen.POSET_MIN <= p.size <= gen.POSET_MAX for p in posets)
    mixed = gen.oracle_block(random.Random(1))
    assert sum(isinstance(i, gen.TreeInput) for i in mixed) == gen.ORACLE_BLOCK // 2
    assert sum(i.size == gen.ORACLE_LARGE for i in mixed) == gen.ORACLE_LARGE_PER_BLOCK


def test_generated_text_is_the_generated_input():
    for item in small_trees(1):
        t = V.parse_tree(item.text)
        assert t.size == item.size and t.encoding == item.key
    for item in small_posets(2):
        p = V.parse_poset(item.text)
        assert tuple(p.up_mask(u) for u in range(p.n)) == item.up


def test_tree_checker_agrees_with_library():
    tr = Tracer(record=False)
    for item in small_trees(3):
        assert checks.check_tree(item, queries.tree_query(tr, item)) == []


def test_tree_counts_match_brute_force():
    for item in small_trees(4):
        t = V.parse_tree(item.text)
        expected, leaves = checks.tree_counts(item.parents)
        assert expected[(1, 1)] == V.count_maximal_antichains_tree(t)
        assert expected[(0, 1)] == V.count_maximal_antichains_tree(t, leaf_free=True)
        assert expected[(2, 1)] == V.count_antichains_tree(t)
        assert expected[(1, 2)] == V.count_cutsets_tree(t)
        assert leaves == t.leaf_count


def test_poset_checker_agrees_with_library():
    tr = Tracer(record=False)
    for item in small_posets(5):
        assert checks.check_poset(item, queries.poset_query(tr, item)) == []


def test_oracle_checker_agrees_with_library():
    tr = Tracer(record=False)
    items = small_trees(6, 10) + [p for p in small_posets(7, 20) if p.planted is None]
    for item in items:
        assert checks.check_oracle(item, queries.oracle_query(tr, item)) == []


def test_checkers_reject_a_wrong_polynomial():
    tr = Tracer(record=False)
    tree = small_trees(8)[5]
    out = queries.tree_query(tr, tree)
    wrong = V.tree_poly(V.parse_tree(tree.text)) + V.X
    values, x0 = queries.evaluations(tr, wrong)
    assert checks.check_tree(tree, dict(out, values=values, x0=x0))
    assert checks.check_tree(tree, dict(out, text="x + " + out["text"]))

    poset = next(p for p in small_posets(9) if p.planted is None)
    out = queries.poset_query(tr, poset)
    wrong = V.poset_poly(V.parse_poset(poset.text)) * V.Y
    values, x0 = queries.evaluations(tr, wrong)
    assert checks.check_poset(poset, dict(out, values=values, x0=x0))
    status = list(out["status"])
    status[status.index("basic")] = "upper"
    assert checks.check_poset(poset, dict(out, status=status))

    out = queries.oracle_query(tr, tree)
    assert checks.check_oracle(tree, dict(out, expansion=out["poly"] + V.Y))


def test_pattern_checker_rejects_a_pattern_that_is_not_induced():
    planted = next(p for p in small_posets(10) if p.planted is not None)
    pattern = V.find_forbidden(V.parse_poset(planted.text))
    assert checks.check_pattern(planted.up, pattern) == []
    u, v, w, x = pattern.u, pattern.v, pattern.w, pattern.x
    assert checks.check_pattern(planted.up, V.ForbiddenPattern(u=v, v=u, w=w, x=x, kind=pattern.kind))
    other = "N" if pattern.kind == "bowtie" else "bowtie"
    assert checks.check_pattern(planted.up, V.ForbiddenPattern(u=u, v=v, w=w, x=x, kind=other))
    vposet = next(p for p in small_posets(11) if p.planted is None)
    assert checks.check_poset(vposet, {"certificate": pattern})


def test_rooted_tree_counts():
    assert checks.rooted_tree_counts(10) == [0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719]


def test_tracer_self_time_and_failures():
    tr = Tracer(record=True)
    with tr.span("harness.query"):
        tr.call("trees.parse_tree", V.parse_tree, "(())")
        with pytest.raises(Exception):
            tr.call("trees.parse_tree", V.parse_tree, "(")
    metrics = tr.layer_metrics()
    assert metrics["trees.parse_tree.calls"] == 2
    assert metrics["trees.parse_tree.failed"] == 1
    query = tr.spans[0]
    assert metrics["layer.harness.self_ms"] == pytest.approx(
        (query[2] - query[1]) / 1e6 - metrics["trees.parse_tree.busy_ms"]
    )
    assert all(span[3] == 0 for span in tr.spans[1:])


def test_scaling_undoes_a_change_of_machine_speed():
    # The machine halves its speed during operation 4, which straddles the change.
    ref = speed.REFERENCE_S
    probes = [ref] * 5 + [2 * ref] * 6
    durations = [0.1] * 4 + [0.15] + [0.2] * 5
    assert speed.scale(durations, probes, window=1) == pytest.approx([0.1] * 10)


def test_scaling_ignores_a_lone_slow_probe():
    probes = [1.0] * 20
    probes[7] = 5.0
    assert speed.local_speeds(probes) == [1.0] * 19


def test_probe_does_not_touch_the_package():
    tree = ast.parse(Path(speed.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert imported == {"__future__", "statistics", "time", "numpy"}
    assert speed.probe() > 0


def test_benchmark_json_matches_the_harness():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END_UNITS[m["name"]]
    per_layer = {f"{c}.{k}" for c in LAYER_CALLS for k in ("busy_ms", "calls", "failed")}
    per_layer |= {f"layer.{layer}.self_ms" for layer in LAYERS} | set(COUNTERS)
    per_layer |= {"trace.ops", "trace.spans", "trace.overhead_ms", "trace.overhead_pct"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    for m in spec["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])
    assert {w["name"] for w in spec["workloads"]} == {*run.STREAMS, run.BATCH}
