"""Campaign benchmark: times FS, SF and fuzz-only campaigns and checks them.

Run from the repository root:

    python3 bench/run.py --workload fs-b2d8 --seed 0 --seconds 36 --trace 0
    python3 bench/run.py --workload fs-b2d8 --trace 1 --out bench-out
    python3 bench/run.py --check bench-out/a.json bench-out/b.json

A run generates the workload's program from ``--seed``, times the set-up
(import ``munchkin``, parse the ``.mir`` text) several times, then runs the
campaign on freshly parsed programs until ``--seconds`` is used up. Every
campaign is replayed through the generator's exact coverage oracle, and its
deterministic output digest and work counters must match those of the
run's first campaign. ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` alternates untraced and traced campaigns and reports per-layer metrics
and the tracing overhead. Times are medians, scaled to a reference host
speed by a calibration kernel timed around each campaign (see
``REFERENCE_CALIB_S``); the raw wall times are printed and recorded too. The last line of standard output is one JSON
object; the exit code is 0 only when every campaign passed its checks.

``--out DIR`` also writes the full result record (environment, metrics, work
counters, digest, per-campaign samples) and, when traced, every span.
``--check A B`` compares two records of one workload and seed and names every
work counter or digest that differs; it exits 1 if any does.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import campaigns
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set-ups timed before each campaign; the last one's program is the campaign's.
SETUPS_PER_CAMPAIGN = 3
# Times are reported at a reference host speed: wall time x REFERENCE_CALIB_S
# / the time of a fixed calibration kernel, measured CALIBRATION_REPEATS times
# before and after each campaign (median). The shared 2-vCPU host this was
# tuned on switched between two speeds about 2x apart for tens of seconds at
# a time (the kernel read ~10 ms or ~18 ms), which moved median wall times by
# 15-30% from run to run. Raw wall times are recorded beside the scaled ones.
CALIBRATION_REPEATS = 5
REFERENCE_CALIB_S = 0.010

END_TO_END = (
    ("campaign_s", "s"),
    ("setup_s", "s"),
    ("coverage_pct", "%"),
    ("peak_rss_mb", "MB"),
)
# Printed and recorded, but not in the result line: they read 0 on some
# workloads (the fuzz-only campaign charges no queries; a passing run fails
# nothing), and the failed share is the line's own failed/attempted.
REPORTED_ONLY = (
    ("solver_queries", "count"),
    ("failed_share", "ratio"),
    ("campaign_wall_s", "s"),
    ("setup_wall_s", "s"),
    ("host.calib_ms", "ms"),
)

PER_LAYER = (
    ("callgraph.sonar_calls", "count"),
    ("callgraph.build_calls", "count"),
    ("callgraph.frontier_calls", "count"),
    ("callgraph.sonar_pct", "%"),
    ("callgraph.build_pct", "%"),
    ("callgraph.frontier_pct", "%"),
    ("callgraph.self_pct", "%"),
    ("executor.runs", "count"),
    ("executor.runs.fuzz", "count"),
    ("executor.runs.replay", "count"),
    ("executor.steps", "count"),
    ("executor.run_pct", "%"),
    ("executor.run_pct.fuzz", "%"),
    ("executor.run_pct.replay", "%"),
    ("executor.runs_per_s", "1/s"),
    ("executor.run_p50_us", "us"),
    ("executor.run_p99_us", "us"),
    ("fuzzer.campaign_pct", "%"),
    ("fuzzer.self_pct", "%"),
    ("fuzzer.mutate_pct", "%"),
    ("fuzzer.corpus_size", "count"),
    ("fuzzer.admit_ratio", "ratio"),
    ("fuzzer.faults", "count"),
    ("solver.solve_calls", "count"),
    ("solver.solve_pct", "%"),
    ("solver.queries", "count"),
    ("solver.cache_hits", "count"),
    ("solver.cache_hit_ratio", "ratio"),
    ("solver.sat", "count"),
    ("solver.unsat", "count"),
    ("solver.unknown", "count"),
    ("symex.campaigns", "count"),
    ("symex.campaign_pct", "%"),
    ("symex.self_pct", "%"),
    ("symex.states", "count"),
    ("symex.tests", "count"),
    ("symex.targets_reached_ratio", "ratio"),
    ("orchestrator.fuzz_phase_pct", "%"),
    ("orchestrator.symex_phase_pct", "%"),
    ("orchestrator.self_pct", "%"),
    ("orchestrator.targets", "count"),
    ("ir.parse_s", "s"),
    ("ir.mir_bytes", "count"),
    ("report.depth_table_pct", "%"),
    ("report.json_pct", "%"),
    ("trace.campaign_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.campaigns", "count"),
    ("host.calib_ms", "ms"),
    ("host.campaign_wall_s", "s"),
)
# Per-layer counts are deterministic work: every traced campaign must repeat them.
WORK_COUNTERS = tuple(
    name for name, unit in PER_LAYER if unit == "count" and not name.startswith("trace.")
)
UNITS = dict(END_TO_END + REPORTED_ONLY + PER_LAYER)
ORDER = {name: i for i, name in enumerate(UNITS)}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _loadavg() -> str | None:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return None


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "git_sha": _git_sha(ROOT),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": _loadavg(),
    }


class _Node:
    __slots__ = ("name", "lo", "hi")

    def __init__(self, name: str, lo: int, hi: int):
        self.name, self.lo, self.hi = name, lo, hi


def calibrate() -> float:
    """Wall time of a fixed pure-Python kernel, about 10 ms on a quiet host.

    It uses what the campaigns use most (tuples, dicts, sets, strings, calls
    and attribute reads) and nothing from munchkin, so a change to the
    package cannot change it.
    """
    started = time.perf_counter()
    table: dict = {}
    seen: set = set()
    nodes = [_Node(f"n_{i}_{i + 7}", i, i + 7) for i in range(300)]
    for rep in range(100):
        for node in nodes:
            key = (node.name, node.lo & 15)
            table[key] = table.get(key, 0) + node.hi - node.lo
            seen.add(key)
        seen = set(frozenset(seen) | {("x", rep)})
        ",".join(sorted(n.name for n in nodes[:50]))
    return time.perf_counter() - started


# ---------------------------------------------------------------------------
# Set-up and campaigns
# ---------------------------------------------------------------------------


def import_munchkin():
    """Import the package from this checkout's ``src``, dropping any earlier import."""
    if not (SRC / "munchkin" / "__init__.py").is_file():
        raise BenchError(f"no munchkin package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "munchkin" or n.startswith("munchkin.")]:
        del sys.modules[name]
    module = importlib.import_module("munchkin")
    if Path(module.__file__).resolve().parent != SRC / "munchkin":
        raise BenchError(f"imported munchkin from {module.__file__}, not from {SRC}")
    return module


class Run:
    """The campaigns of one run and their checks against the first one.

    Set-up is timed a few times before every campaign rather than all at
    the start, so its samples span the run as the campaigns do.
    """

    def __init__(self, m, workload: campaigns.Workload, seed: int, text: str):
        self.m = m
        self.workload = workload
        self.seed = seed
        self.text = text
        self.params = campaigns.gen_params(m, workload, seed)
        self.samples: list[dict] = []
        self.first: campaigns.Outcome | None = None
        self.first_work: dict | None = None
        self.layers: list[dict] = []
        self.tracers: list[spans.Tracer] = []

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s["errors"])

    def campaign(self, traced: bool) -> dict:
        sample = {
            "traced": traced, "wall_s": None, "setup_wall_s": [], "parse_wall_s": [],
            "digest": None, "errors": [],
        }
        self.samples.append(sample)
        calib = [calibrate() for _ in range(CALIBRATION_REPEATS)]
        try:
            self._campaign(traced, sample)
        except Exception:  # a raising campaign is a failed sample, not a crash
            sample["errors"].append("raised:\n" + traceback.format_exc())
        calib += [calibrate() for _ in range(CALIBRATION_REPEATS)]
        sample["calib_s"] = statistics.median(calib)
        scale = REFERENCE_CALIB_S / sample["calib_s"]
        if sample["wall_s"] is not None:
            sample["campaign_s"] = sample["wall_s"] * scale
        sample["setup_s"] = [t * scale for t in sample["setup_wall_s"]]
        sample["parse_s"] = [t * scale for t in sample["parse_wall_s"]]
        return sample

    def _setup(self, sample: dict):
        """Import munchkin and parse the workload's text; return the program."""
        for _ in range(SETUPS_PER_CAMPAIGN):
            started = time.perf_counter()
            self.m = import_munchkin()
            parsing = time.perf_counter()
            program = self.m.parse_program(self.text)
            done = time.perf_counter()
            sample["setup_wall_s"].append(done - started)
            sample["parse_wall_s"].append(done - parsing)
        return program

    def _campaign(self, traced: bool, sample: dict) -> None:
        program = self._setup(sample)
        m, w = self.m, self.workload
        gc.collect()
        if traced:
            tracer = spans.Tracer()
            with spans.installed(tracer):
                started = time.perf_counter()
                raw = tracer.call(spans.ROOT, self._traced_body, (tracer, program))
                sample["wall_s"] = time.perf_counter() - started
        else:
            started = time.perf_counter()
            raw = w.campaign(m, program, self.seed, w.fuzz_budget)
            w.report(m, raw)
            sample["wall_s"] = time.perf_counter() - started

        out = w.summarize(m, program, raw)
        sample["digest"] = out.digest
        sample["errors"] += campaigns.oracle_errors(m, self.params, out)
        if self.first is None:
            self.first = out
        else:
            if out.digest != self.first.digest:
                sample["errors"].append(f"digest {out.digest} != first {self.first.digest}")
            for key in sorted(set(out.counters) | set(self.first.counters)):
                if out.counters.get(key) != self.first.counters.get(key):
                    sample["errors"].append(
                        f"counter {key}: {out.counters.get(key)} != first "
                        f"{self.first.counters.get(key)}"
                    )
        if traced:
            layer = spans.layer_metrics(tracer)
            self._check_traced(tracer, layer, out, sample)
            self.layers.append(layer)
            self.tracers.append(tracer)

    def _traced_body(self, tracer: spans.Tracer, program):
        w = self.workload
        raw = spans.wrap(tracer, w.api, w.campaign)(self.m, program, self.seed, w.fuzz_budget)
        tracer.call(spans.REPORT, w.report, (self.m, raw))
        return raw

    def _check_traced(
        self, tracer: spans.Tracer, layer: dict, out: campaigns.Outcome, sample: dict
    ) -> None:
        work = {key: layer[key] for key in WORK_COUNTERS if key in layer}
        if self.first_work is None:
            self.first_work = work
        for key, value in work.items():
            if value != self.first_work[key]:
                sample["errors"].append(
                    f"traced counter {key}: {value} != first {self.first_work[key]}"
                )
        # Every solve is either a cache hit or a charged query.
        if "solver.solve" in tracer.bound:
            hits = out.counters.get("solver.cache_hits", 0)
            queries = out.counters.get("solver.queries", 0)
            if layer["solver.solve_calls"] != hits + queries:
                sample["errors"].append(
                    f"traced solve calls {layer['solver.solve_calls']} != "
                    f"queries {queries} + cache hits {hits}"
                )

    def median(self, key: str, traced: bool | None = None) -> float:
        """Median of one per-sample time over the chosen samples (None: all)."""
        values = []
        for s in self.samples:
            if traced is None or s["traced"] == traced:
                value = s[key]
                values += value if isinstance(value, list) else [value]
        return statistics.median(values)

    def overhead_pct(self) -> float:
        traced, untraced = self.median("campaign_s", True), self.median("campaign_s", False)
        return 100.0 * (traced / untraced - 1.0)


def measure(run: Run, seconds: float, trace: bool) -> None:
    """Run set-ups and campaigns until the next round would end past ``seconds``.

    An untraced run keeps at least one campaign; a traced run alternates
    untraced and traced campaigns, starting untraced, and keeps at least one
    of each. A failed campaign ends the run.
    """
    started = time.perf_counter()
    rounds = []
    while True:
        traced = trace and len(run.samples) % 2 == 1
        round_started = time.perf_counter()
        sample = run.campaign(traced)
        if sample["errors"]:
            return
        now = time.perf_counter()
        rounds.append(now - round_started)
        enough = len(run.samples) >= (2 if trace else 1)
        if enough and now - started + statistics.median(rounds) > seconds:
            return


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def end_to_end_metrics(run: Run) -> dict[str, float]:
    return {
        "campaign_s": run.median("campaign_s", False),
        "setup_s": run.median("setup_s"),
        "coverage_pct": run.first.coverage_pct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solver_queries": run.first.counters.get("solver.queries", 0),
        "failed_share": run.failed / len(run.samples),
        "campaign_wall_s": run.median("wall_s", False),
        "setup_wall_s": run.median("setup_wall_s"),
        "host.calib_ms": 1e3 * run.median("calib_s"),
    }


def per_layer_metrics(run: Run) -> dict[str, float]:
    """Median over the traced campaigns of each layer number."""
    # Counts repeat exactly (checked per campaign); times vary, so take medians.
    metrics = {
        key: value if UNITS[key] == "count" else statistics.median(
            layer[key] for layer in run.layers
        )
        for key, value in run.layers[0].items()
    }
    counters = run.first.counters
    hits = counters.get("solver.cache_hits", 0)
    solves = hits + counters.get("solver.queries", 0)
    metrics.update({
        "solver.queries": counters.get("solver.queries", 0),
        "solver.cache_hits": hits,
        "solver.cache_hit_ratio": hits / solves if solves else 0.0,
        "solver.sat": counters.get("solver.sat", 0),
        "solver.unsat": counters.get("solver.unsat", 0),
        "solver.unknown": counters.get("solver.unknown", 0),
        "ir.parse_s": run.median("parse_s"),
        "ir.mir_bytes": len(run.text.encode("utf-8")),
        "trace.campaign_s": run.median("campaign_s", True),
        "trace.overhead_pct": run.overhead_pct(),
        "trace.campaigns": len(run.layers),
        "host.calib_ms": 1e3 * run.median("calib_s"),
        "host.campaign_wall_s": run.median("wall_s", False),
    })
    return metrics


def print_summary(record: dict, samples: dict[str, int]) -> None:
    """Human-readable lines; ``samples`` gives the sample count of each median."""
    env = record["env"]
    traced = sum(1 for s in record["samples"] if s["traced"])
    print(
        f"bench {record['workload']} seed={record['seed']} trace={record['trace']}: "
        f"{record['attempted']} campaigns ({traced} traced), {record['failed']} failed"
    )
    print(
        f"env: python {env['python']}, git {env['git_sha']}, nproc {env['nproc']}, "
        f"loadavg {env['loadavg_start']} -> {env['loadavg_end']}"
    )
    for note in record["notes"]:
        print(f"note: {note}")
    for name, value in sorted(record["metrics"].items(), key=lambda kv: ORDER[kv[0]]):
        count = samples.get(name)
        extra = f"  (median of {count})" if count else ""
        print(f"  {name:<30} {value:>14.6g} {UNITS[name]:<6}{extra}")
    for sample in record["samples"]:
        for error in sample["errors"]:
            print(f"FAILED: {error}", file=sys.stderr)


def run_benchmark(args) -> int:
    workload = campaigns.WORKLOADS[args.workload]
    env = environment()
    m = import_munchkin()
    text = m.serialize_program(m.generate_program(campaigns.gen_params(m, workload, args.seed)))

    run = Run(m, workload, args.seed, text)
    measure(run, args.seconds, bool(args.trace))
    env["loadavg_end"] = _loadavg()

    failed = run.failed
    untraced = sum(1 for s in run.samples if not s["traced"])
    setups = SETUPS_PER_CAMPAIGN * len(run.samples)
    samples = {
        "campaign_s": untraced, "campaign_wall_s": untraced, "host.campaign_wall_s": untraced,
        "setup_s": setups, "setup_wall_s": setups, "ir.parse_s": setups,
        "host.calib_ms": 2 * CALIBRATION_REPEATS * len(run.samples),
        "trace.campaign_s": len(run.layers),
    }
    if failed:
        metrics = {}
    elif args.trace:
        metrics = per_layer_metrics(run)
    else:
        metrics = end_to_end_metrics(run)
    notes = run.tracers[0].notes if run.tracers else []
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "correct": failed == 0,
        "attempted": len(run.samples),
        "failed": failed,
        "metrics": metrics,
        "digest": run.first.digest if run.first else None,
        "counters": {
            **(run.first.counters if run.first else {}),
            **({k: metrics[k] for k in WORK_COUNTERS} if args.trace and not failed else {}),
        },
        "notes": notes,
        "samples": run.samples,
    }
    print_summary(record, samples)
    if args.out:
        write_record(Path(args.out), record, run.tracers)

    declared = END_TO_END if not args.trace else PER_LAYER
    line = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared
            if name in metrics
        },
    }
    print(json.dumps(line))
    return 0 if record["correct"] else 1


def write_record(out: Path, record: dict, tracers: list[spans.Tracer]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if tracers:
        with open(out / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for k, tracer in enumerate(tracers):
                for i, (name, start, end, parent) in enumerate(tracer.spans):
                    fh.write(json.dumps({
                        "campaign": k, "id": i, "parent": parent, "name": name,
                        "start_ns": start, "end_ns": end,
                    }) + "\n")


# ---------------------------------------------------------------------------
# Comparing two result records
# ---------------------------------------------------------------------------


def compare(a: dict, b: dict) -> list[str]:
    """Every digest or work counter that differs between two records."""
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        raise BenchError(
            f"records are of {a['workload']} seed {a['seed']} and "
            f"{b['workload']} seed {b['seed']}; only one workload and seed compare"
        )
    diffs = []
    if a["digest"] != b["digest"]:
        diffs.append(f"digest: {a['digest']} != {b['digest']}")
    for key in sorted(set(a["counters"]) & set(b["counters"])):
        if a["counters"][key] != b["counters"][key]:
            diffs.append(f"{key}: {a['counters'][key]} != {b['counters'][key]}")
    return diffs


def check(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    diffs = compare(a, b)
    for diff in diffs:
        print(f"DIFFERS {diff}")
    for name in sorted(set(a["metrics"]) & set(b["metrics"])):
        if UNITS.get(name) in ("s", "us", "MB"):
            va, vb = a["metrics"][name], b["metrics"][name]
            change = f"{100.0 * (vb / va - 1):+.1f}%" if va else "n/a"
            print(f"wall-clock {name}: {va:.6g} -> {vb:.6g} ({change}), not checked")
    print("work counters and digest agree" if not diffs else f"{len(diffs)} differences")
    return 1 if diffs else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(campaigns.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="directory for the result record and spans")
    parser.add_argument("--check", nargs=2, metavar=("A", "B"), help="compare two records")
    args = parser.parse_args(argv)
    try:
        if args.check:
            return check(*args.check)
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds <= 0:
            parser.error("--seconds must be positive")
        return run_benchmark(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
