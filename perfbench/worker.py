"""One measured process: a stream run or one cold reproduce batch.

Started by run.py in a fresh interpreter, so the package's memo caches start
cold.  Prints one JSON object with the raw measurements on its last line.

    python3 perfbench/worker.py --workload tree-stream --seed 1 --queries 1500
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import vposets  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
import speed  # noqa: E402
from queries import BATCH_STEPS, QUERIES  # noqa: E402
from tracing import Tracer  # noqa: E402

# Stop a stream early rather than overrun the time a run is allowed.
WALL_CAP_S = 150.0

CHECKS = {
    "tree-stream": checks.check_tree,
    "poset-stream": checks.check_poset,
    "oracle-stream": checks.check_oracle,
}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def input_properties(items: list) -> dict:
    sizes = [item.size for item in items]
    trees = [item for item in items if isinstance(item, gen.TreeInput)]
    posets = [item for item in items if isinstance(item, gen.PosetInput)]
    seen: set = set()
    repeats = 0
    for item in items:
        repeats += item.key in seen
        seen.add(item.key)
    props = {
        "size_quartiles": statistics.quantiles(sizes, n=4),
        "repeat_share": repeats / len(items),
    }
    if trees:
        props["max_tree_height"] = max(t.height for t in trees)
        props["tall_share"] = sum(t.kind == "tall" for t in trees) / len(items)
    if posets:
        props["v_poset_share"] = sum(p.planted is None for p in posets) / len(items)
    return props


def run_stream(workload: str, seed: int, queries: int, tr: Tracer) -> dict:
    """Closed loop, one client: each query is sent when the previous one is answered.

    Inputs are generated a block at a time, and the speed probe runs before each
    query, both outside the timed part.
    """
    rng = random.Random(seed)
    make_block, query, check = gen.BLOCKS[workload], QUERIES[workload], CHECKS[workload]
    durations: list[float] = []
    ok: list[bool] = []
    items: list = []
    failures: Counter = Counter()  # exception type, or "wrong answer" -> count
    wrong_examples: list[str] = []
    speed.warm_up()
    probes: list[float] = []
    started = perf_counter()
    block: list = []
    while len(items) < queries and perf_counter() - started < WALL_CAP_S:
        if not block:
            block = make_block(rng)[::-1]
        item = block.pop()
        tr.query_id = len(items)
        items.append(item)
        probes.append(speed.probe())
        t0 = perf_counter()
        try:
            with tr.span("harness.query"):
                out = query(tr, item)
        except Exception as exc:
            out = None
            failures[type(exc).__name__] += 1
        durations.append(perf_counter() - t0)
        problems = check(item, out) if out is not None else None
        if problems:
            failures["wrong answer"] += 1
            if len(wrong_examples) < 5:
                wrong_examples.append(f"query {len(items) - 1}: {problems[0]}")
        ok.append(problems == [])
    probes.append(speed.probe())
    return {
        "durations_s": durations,
        "scaled_s": speed.scale(durations, probes),
        "probe_median_s": statistics.median(probes),
        "ok": ok,
        "busy_s": sum(durations),
        "peak_rss_mb": peak_rss_mb(),
        "failures": dict(failures),
        "wrong_examples": wrong_examples,
        "inputs": input_properties(items),
    }


def run_batch(tr: Tracer) -> dict:
    """The reproduce job once, from cold caches; one span per step.

    The speed probe runs before each step and after the last; a step's time is
    scaled by the probes on either side of it.
    """
    state: dict = {}
    ok = True
    failures: Counter = Counter()
    wrong_examples: list[str] = []
    steps = {}
    speed.warm_up()
    probes: list[float] = []
    for name, step in BATCH_STEPS:
        probes.append(speed.probes_median())
        t0 = perf_counter()
        try:
            with tr.span(f"harness.step.{name}"):
                problems = step(tr, state)
        except Exception as exc:
            failures[type(exc).__name__] += 1
            problems = None
            ok = False
        steps[name] = perf_counter() - t0
        if problems:
            failures["wrong answer"] += 1
            wrong_examples.append(f"step {name}: {problems[0]}")
            ok = False
    probes.append(speed.probes_median())
    busy = sum(steps.values())
    return {
        "durations_s": [busy],
        "scaled_s": [sum(speed.scale(list(steps.values()), probes, window=1))],
        "probe_median_s": statistics.median(probes),
        "ok": [ok],
        "busy_s": busy,
        "steps_s": steps,
        "peak_rss_mb": peak_rss_mb(),
        "failures": dict(failures),
        "wrong_examples": wrong_examples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*gen.BLOCKS, "reproduce-batch"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--queries", type=int, default=1000, help="stream queries to answer")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path, help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    if not Path(vposets.__file__).resolve().is_relative_to(SRC):
        print(f"vposets imported from {vposets.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    tr = Tracer(record=bool(args.trace))
    if args.workload == "reproduce-batch":
        result = run_batch(tr)
    else:
        result = run_stream(args.workload, args.seed, args.queries, tr)
    result["layer_failures"] = {f"{name} {kind}": n for (name, kind), n in tr.failures.items()}
    if tr.record:
        cache_info = getattr(vposets.tree_poly, "cache_info", None)
        if cache_info is not None:
            info = cache_info()
            tr.count("trees.tree_poly.memo_hits", info.hits)
            tr.count("trees.tree_poly.memo_size", info.currsize)
        result["layers"] = tr.layer_metrics()
        if args.spans_out is not None:
            tr.write_spans(args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
