"""Benchmark entry point: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload tree-stream --seed 1 --seconds 24 --trace 0

Run from anywhere; the package is imported from the ``src`` directory next
to this one.  With ``--trace 0`` the end-to-end metrics are printed; with
``--trace 1`` a traced run prints the per-layer metrics and the tracing
overhead, measured against an untraced run over the same inputs.  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
SPANS_DIR = HERE / "out"

STREAMS = ("tree-stream", "poset-stream", "oracle-stream")
BATCH = "reproduce-batch"

# setup_s: interpreter start, `import vposets` and one small query, in a
# fresh process.  Half the trials run before the workload and half after, so
# their median spans the run; the very first may compile bytecode and is
# not counted.  Like every time metric, each trial is scaled to the probe's
# reference speed by the probes on either side of it (see speed.py).
SETUP_TRIALS = 4
SETUP_CODE = "import vposets; vposets.tree_poly(vposets.parse_tree('(()(()()))'))"

# A run does a fixed amount of work, sized from --seconds by the unscaled
# rates this benchmark reached on a 2-core x86-64 VM under CPython 3.11, with
# a neighbour slowing it as it mostly did (a batch counts its fresh
# interpreter), so every run of a workload answers the same whole blocks of
# inputs.
# Stream runs answer at least MIN_QUERIES, so that p99 has ten samples beyond
# it; reproduce-batch runs the cold job at least MIN_BATCHES times, each in a
# fresh interpreter.
REFERENCE_QUERIES_PER_S = {"tree-stream": 80, "poset-stream": 60, "oracle-stream": 50}
REFERENCE_BATCH_S = 5.5
MIN_QUERIES = 1000
MIN_BATCHES = 3
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_times(trials: int) -> tuple[list[float], list[float]]:
    """Raw set-up times, and the probes before each trial and after the last.

    The probes and the trials run on one CPU: the VM's CPUs change speed
    independently, so a probe on one says little about a trial on the other.
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    times, probes = [], []
    try:
        for _ in range(trials):
            probes.append(speed.probes_median())
            t0 = perf_counter()
            subprocess.run(
                [sys.executable, "-c", SETUP_CODE],
                env=child_env(), cwd=ROOT, check=True, capture_output=True, timeout=60,
            )
            times.append(perf_counter() - t0)
        probes.append(speed.probes_median())
    finally:
        os.sched_setaffinity(0, allowed)
    return times, probes


def run_worker(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.run(
        cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.splitlines()[-1])


def stream_queries(workload: str, seconds: float) -> int:
    block = gen.BLOCK_LEN[workload]
    blocks = max(1, round(seconds * REFERENCE_QUERIES_PER_S[workload] / block))
    return max(MIN_QUERIES, blocks * block)


def run_stream(workload: str, seed: int, seconds: float, *extra: str) -> dict:
    return run_worker(workload, seed, "--queries", str(stream_queries(workload, seconds)), *extra)


def run_batches(seed: int, seconds: float, trace: bool) -> list[dict]:
    """Cold reproduce jobs, each in a fresh interpreter."""
    reps = []
    for rep in range(max(MIN_BATCHES, round(seconds / REFERENCE_BATCH_S))):
        extra = []
        if trace:
            spans = SPANS_DIR / f"spans-{BATCH}-seed{seed}-rep{rep}.jsonl"
            extra = ["--trace", "1", "--spans-out", str(spans)]
        reps.append(run_worker(BATCH, seed, *extra))
    return reps


def merge(reps: list[dict]) -> dict:
    """Pool the operations of several worker runs."""
    failures: dict[str, int] = {}
    layer_failures: dict[str, int] = {}
    for r in reps:
        for src, dst in ((r["failures"], failures), (r["layer_failures"], layer_failures)):
            for k, n in src.items():
                dst[k] = dst.get(k, 0) + n
    return {
        "durations_s": [d for r in reps for d in r["durations_s"]],
        "scaled_s": [d for r in reps for d in r["scaled_s"]],
        "probe_median_s": statistics.median(r["probe_median_s"] for r in reps),
        "ok": [o for r in reps for o in r["ok"]],
        "busy_s": sum(r["busy_s"] for r in reps),
        "failures": failures,
        "layer_failures": layer_failures,
        "wrong_examples": [w for r in reps for w in r["wrong_examples"]][:5],
    }


def percentile_ms(run: dict, q: float, key: str = "scaled_s") -> float:
    """Nearest-rank percentile; a failed or wrong operation counts as slower than any
    other, and if the rank lands on one the whole run's time is reported."""
    xs = sorted(d if good else math.inf for d, good in zip(run[key], run["ok"]))
    value = xs[max(1, math.ceil(q * len(xs))) - 1]
    return 1000 * (sum(run[key]) if value == math.inf else value)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    speed.warm_up()
    setup, setup_probes = setup_times(SETUP_TRIALS + 1)
    setup, setup_probes = setup[1:], setup_probes[1:]
    if workload == BATCH:
        reps = run_batches(seed, seconds, trace=False)
        run = merge(reps)
        wall_s = statistics.median(sum(r["scaled_s"]) for r in reps)
        rss = statistics.median(r["peak_rss_mb"] for r in reps)
        steps = {name: statistics.median(r["steps_s"][name] for r in reps) for name in reps[0]["steps_s"]}
        notes = [
            f"{len(reps)} cold batches, each in a fresh interpreter; wall_s is their median",
            "median step seconds: " + ", ".join(f"{k} {v:.3f}" for k, v in steps.items()),
        ]
    else:
        run = run_stream(workload, seed, seconds)
        wall_s, rss = sum(run["scaled_s"]), run["peak_rss_mb"]
        n = len(run["ok"])
        notes = [
            f"{n} queries, closed loop with one client, {n - math.ceil(0.99 * n)} beyond p99",
            "inputs: " + json.dumps(run["inputs"]),
        ]
    more, more_probes = setup_times(SETUP_TRIALS)
    setup_s = statistics.median(
        speed.scale(setup, setup_probes, window=1) + speed.scale(more, more_probes, window=1)
    )
    notes += [
        f"times are scaled to the speed at which the probe takes "
        f"{1000 * speed.REFERENCE_S:.3f} ms; its median here was "
        f"{1000 * run['probe_median_s']:.3f} ms",
        f"unscaled: total {run['busy_s']:.3f} s, "
        f"p50 {percentile_ms(run, 0.5, 'durations_s'):.3f} ms, "
        f"p99 {percentile_ms(run, 0.99, 'durations_s'):.3f} ms, "
        f"setup {statistics.median(setup + more):.4f} s",
    ]
    values = {
        "throughput_ops_s": sum(run["ok"]) / sum(run["scaled_s"]),
        "latency_p50_ms": percentile_ms(run, 0.50),
        "latency_p99_ms": percentile_ms(run, 0.99),
        "wall_s": wall_s,
        "peak_rss_mb": rss,
        "setup_s": setup_s,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return run, metrics, notes


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("bytes_computed"):
        return "bytes"
    return "count"


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list[str]]:
    SPANS_DIR.mkdir(exist_ok=True)
    if workload == BATCH:
        reps = run_batches(seed, seconds, trace=True)
        plain = merge(run_batches(seed, seconds, trace=False))
        run = merge(reps)
        layers: dict[str, float] = {}
        for r in reps:
            for k, v in r["layers"].items():
                layers[k] = layers.get(k, 0) + v
    else:
        spans = SPANS_DIR / f"spans-{workload}-seed{seed}.jsonl"
        run = run_stream(workload, seed, seconds, "--trace", "1", "--spans-out", str(spans))
        plain = run_stream(workload, seed, seconds)
        layers = run["layers"]
    layers["trace.ops"] = len(run["ok"])
    traced_s, plain_s = sum(run["scaled_s"]), sum(plain["scaled_s"])
    layers["trace.overhead_ms"] = 1000 * (traced_s - plain_s)
    layers["trace.overhead_pct"] = 100 * (traced_s / plain_s - 1)
    metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in sorted(layers.items())}
    notes = [
        f"traced run of {len(run['ok'])} operations took {traced_s:.3f} s, "
        f"the same operations untraced {plain_s:.3f} s, in a second fresh process "
        f"run after it, both scaled to the probe's reference speed; busy_ms and self_ms are "
        f"not scaled; spans are in {SPANS_DIR.name}/"
    ]
    return run, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*STREAMS, BATCH))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vposets" / "__init__.py").is_file():
        print(f"no vposets package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    measure = traced if args.trace else end_to_end
    run, metrics, notes = measure(args.workload, args.seed, args.seconds)

    attempted = len(run["ok"])
    failed = attempted - sum(run["ok"])
    print(f"# {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"# {note}")
    for kind, counts in (("type", run["failures"]), ("layer", run["layer_failures"])):
        if counts:
            print(f"# failures by {kind}: " + ", ".join(f"{k} x{n}" for k, n in sorted(counts.items())))
    for example in run["wrong_examples"]:
        print(f"# wrong answer: {example}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"failed_frac {failed / attempted} ({failed} of {attempted})")
    print(json.dumps({
        "correct": "wrong answer" not in run["failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
