"""Spans around munchkin's public functions, recorded from outside the package.

A traced campaign rebinds public names where the calling module looks them
up (a module global, or ``Solver.solve`` on its class) to wrappers that
record a span: name, start, end and the span that caused it. Spans stay in
memory; the benchmark writes them out when the run ends. A binding that a
later version of the package no longer has is skipped with a note, so its
spans count zero calls instead of failing the run. Private names are never
wrapped.

The package is single-threaded, so a span's children never overlap and its
self time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterator

ROOT = "bench.campaign"
REPORT = "report.json"

# (module of the binding, attribute path, span name). The span name is the
# layer that does the work, then the function; run_concrete is split by the
# caller that binds it.
HOOKS = (
    ("orchestrator", "fuzz_campaign", "fuzzer.fuzz_campaign"),
    ("orchestrator", "symex_campaign", "symex.symex_campaign"),
    ("orchestrator", "build_callgraph", "callgraph.build_callgraph"),
    ("orchestrator", "frontier_set", "callgraph.frontier_set"),
    ("orchestrator", "depth_table", "report.depth_table"),
    ("symex", "build_callgraph", "callgraph.build_callgraph"),
    ("symex", "run_concrete", "executor.run_concrete.replay"),
    ("symex", "Solver.solve", "solver.solve"),
    ("callgraph", "sonar_distances", "callgraph.sonar_distances"),
    ("fuzzer", "run_concrete", "executor.run_concrete.fuzz"),
    ("fuzzer", "mutate", "fuzzer.mutate"),
)

RUN_SPANS = ("executor.run_concrete.fuzz", "executor.run_concrete.replay")


class Tracer:
    """Spans of one campaign, kept as ``[name, start_ns, end_ns, parent]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.notes: list[str] = []
        self.bound: set[str] = set()  # span names with at least one hook installed
        self._stack = [-1]

    def call(self, name: str, fn: Callable, args: tuple = (), kwargs: dict | None = None):
        span = [name, 0, 0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span[2] = perf_counter_ns()
            self._stack.pop()


# Work counted at the boundary, from the value the wrapped call returns.
def _count_run(counts: Counter, result, args, kwargs) -> None:
    counts["executor.steps"] += result.steps


def _count_fuzz(counts: Counter, result, args, kwargs) -> None:
    counts["fuzzer.corpus_size"] += len(result.corpus)
    counts["fuzzer.faults"] += len(result.faults)
    counts["fuzzer.executions"] += result.executions


def _count_symex(counts: Counter, result, args, kwargs) -> None:
    counts["symex.states"] += result.states_explored
    counts["symex.tests"] += len(result.test_cases)
    target = kwargs.get("target", args[4] if len(args) > 4 else None)
    if target is not None:
        counts["symex.targets"] += 1
        counts["symex.targets_reached"] += int(result.target_reached)


_COUNTERS = {
    "executor.run_concrete.fuzz": _count_run,
    "executor.run_concrete.replay": _count_run,
    "fuzzer.fuzz_campaign": _count_fuzz,
    "symex.symex_campaign": _count_symex,
}


def wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """``fn`` recording a span, and the work its result shows, on every call."""
    count = _COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, args, kwargs)
        if count is not None:
            count(tracer.counts, result, args, kwargs)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every hook that the imported package binds; undo on exit."""
    undo = []
    try:
        for module_name, path, span in HOOKS:
            try:
                owner = importlib.import_module(f"munchkin.{module_name}")
            except ModuleNotFoundError:
                owner = None
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            original = getattr(owner, attr, None)
            if not callable(original):
                tracer.notes.append(
                    f"munchkin.{module_name}.{path} is not bound: {span} counts 0 calls there"
                )
                continue
            setattr(owner, attr, wrap(tracer, span, original))
            undo.append((owner, attr, original))
            tracer.bound.add(span)
        yield
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def _percentile(values: list[int], q: int) -> float:
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced campaign.

    Times are shares (``_pct``) of the campaign's root span, so a layer that
    does not run on a workload reads 0 rather than a constant time.
    """
    spans = tracer.spans
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter[str] = Counter()
    total: Counter[str] = Counter()
    own: Counter[str] = Counter()
    phase: Counter[str] = Counter()
    layer_own: Counter[str] = Counter()
    run_ns: list[int] = []
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        total[name] += duration
        own[name] += duration - child_ns[i]
        layer_own[name.split(".", 1)[0]] += duration - child_ns[i]
        if parent >= 0 and spans[parent][0].startswith("orchestrator."):
            phase[name] += duration
        if name in RUN_SPANS:
            run_ns.append(duration)
    campaign_ns = total[ROOT]

    def pct(ns: float) -> float:
        return 100.0 * ns / campaign_ns

    counts = tracer.counts
    runs = calls[RUN_SPANS[0]] + calls[RUN_SPANS[1]]
    run_total = total[RUN_SPANS[0]] + total[RUN_SPANS[1]]
    fuzz_execs = counts["fuzzer.executions"]
    targets = counts["symex.targets"]
    return {
        "callgraph.sonar_calls": calls["callgraph.sonar_distances"],
        "callgraph.build_calls": calls["callgraph.build_callgraph"],
        "callgraph.frontier_calls": calls["callgraph.frontier_set"],
        "callgraph.sonar_pct": pct(total["callgraph.sonar_distances"]),
        "callgraph.build_pct": pct(total["callgraph.build_callgraph"]),
        "callgraph.frontier_pct": pct(total["callgraph.frontier_set"]),
        "callgraph.self_pct": pct(layer_own["callgraph"]),
        "executor.runs": runs,
        "executor.runs.fuzz": calls[RUN_SPANS[0]],
        "executor.runs.replay": calls[RUN_SPANS[1]],
        "executor.steps": counts["executor.steps"],
        "executor.run_pct": pct(run_total),
        "executor.run_pct.fuzz": pct(total[RUN_SPANS[0]]),
        "executor.run_pct.replay": pct(total[RUN_SPANS[1]]),
        "executor.runs_per_s": runs / (run_total / 1e9) if run_total else 0.0,
        "executor.run_p50_us": _percentile(run_ns, 50) / 1e3,
        "executor.run_p99_us": _percentile(run_ns, 99) / 1e3,
        "fuzzer.campaign_pct": pct(total["fuzzer.fuzz_campaign"]),
        "fuzzer.self_pct": pct(own["fuzzer.fuzz_campaign"]),
        "fuzzer.mutate_pct": pct(total["fuzzer.mutate"]),
        "fuzzer.corpus_size": counts["fuzzer.corpus_size"],
        "fuzzer.admit_ratio": counts["fuzzer.corpus_size"] / fuzz_execs if fuzz_execs else 0.0,
        "fuzzer.faults": counts["fuzzer.faults"],
        "solver.solve_calls": calls["solver.solve"],
        "solver.solve_pct": pct(total["solver.solve"]),
        "symex.campaigns": calls["symex.symex_campaign"],
        "symex.campaign_pct": pct(total["symex.symex_campaign"]),
        "symex.self_pct": pct(own["symex.symex_campaign"]),
        "symex.states": counts["symex.states"],
        "symex.tests": counts["symex.tests"],
        "symex.targets_reached_ratio": (
            counts["symex.targets_reached"] / targets if targets else 0.0
        ),
        "orchestrator.fuzz_phase_pct": pct(phase["fuzzer.fuzz_campaign"]),
        "orchestrator.symex_phase_pct": pct(phase["symex.symex_campaign"]),
        "orchestrator.self_pct": pct(layer_own["orchestrator"]),
        "orchestrator.targets": targets,
        "report.depth_table_pct": pct(total["report.depth_table"]),
        "report.json_pct": pct(total[REPORT]),
    }
