"""Spans and counters at the boundary between the benchmark and the package.

Every call the benchmark makes into `vposets` goes through `Tracer.call`
under a name ``<module>.<function>``, so exceptions are counted per layer and
by type in every run.  Spans and counters are kept only in a traced run:
they live in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# The package-facing span names; the per-layer metrics are derived from them.
LAYER_CALLS = (
    "trees.parse_tree",
    "trees.tree_poly",
    "trees.enumerate_rooted_trees",
    "trees.collision_search",
    "polynomial.evaluate",
    "polynomial.format",
    "posets.parse_poset",
    "posets.is_v_poset",
    "posets.poset_poly",
    "posets.element_status",
    "bruteforce.counts",
    "bruteforce.expansion",
    "enumeration.v_series",
    "enumeration.census",
    "enumeration.all_vposets",
    "enumeration.asymptotic_constant",
)
LAYERS = ("polynomial", "trees", "posets", "bruteforce", "enumeration", "harness")
COUNTERS = (
    "trees.tree_poly.terms_out",
    "trees.tree_poly.memo_hits",
    "trees.tree_poly.memo_size",
    "posets.parse_poset.relations",
    "posets.is_v_poset.forbidden",
    "posets.poset_poly.terms_out",
    "bruteforce.subsets_swept",
    "bruteforce.table_bytes_computed",
)


class Tracer:
    """Boundary calls of one run; ``record`` turns spans and counters on."""

    def __init__(self, record: bool):
        self.record = record
        self.failures: Counter = Counter()  # (span name, exception type) -> count
        self.counters: Counter = Counter()
        # name, start ns, end ns, parent index (-1 for none), query id
        self.spans: list[list] = []
        self._open: list[int] = []
        self.query_id = -1

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) as a span named ``name``; exceptions are counted."""
        span = self._open_span(name) if self.record else None
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failures[(name, type(exc).__name__)] += 1
            raise
        finally:
            if span is not None:
                self._close_span(span)

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span, such as one query, that parents package calls."""
        span = self._open_span(name) if self.record else None
        try:
            yield
        finally:
            if span is not None:
                self._close_span(span)

    def _open_span(self, name: str) -> list:
        span = [name, perf_counter_ns(), 0, self._open[-1] if self._open else -1, self.query_id]
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close_span(self, span: list) -> None:
        span[2] = perf_counter_ns()
        self._open.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def write_spans(self, path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "query")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """busy_ms / calls / failed per call name, self_ms per layer, counters.

        A span's self time is its duration minus the durations of its direct
        children; children of one span never overlap, the run being serial.
        """
        busy = Counter()
        calls = Counter()
        self_ns = Counter()
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for (name, start, end, _, _), covered in zip(self.spans, child_ns):
            busy[name] += end - start
            calls[name] += 1
            self_ns[name.split(".", 1)[0]] += end - start - covered
        failed = Counter()
        for (name, _), n in self.failures.items():
            failed[name] += n
        out: dict[str, float] = {}
        for name in LAYER_CALLS:
            out[f"{name}.busy_ms"] = busy[name] / 1e6
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.failed"] = failed[name]
        for layer in LAYERS:
            out[f"layer.{layer}.self_ms"] = self_ns[layer] / 1e6
        for name in COUNTERS:
            out[name] = self.counters[name]
        out["trace.spans"] = len(self.spans)
        return out
