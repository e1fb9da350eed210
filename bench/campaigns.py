"""The benchmark's workloads, the ground-truth oracle and the determinism digest.

Each workload generates a dispatch-tree program from the workload seed,
serializes it, and hands the campaign only the ``.mir`` text. The same seed
is the generator's name salt (``GenParams.seed``) and the campaign's
``rng_seed``. Budgets are execution and query counts, so every campaign of a
(workload, seed) pair does the same work; only its wall time varies.

Module objects are passed in rather than imported here, because the
benchmark re-imports ``munchkin`` to time its set-up.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

InputVector = tuple[int, ...]


@dataclass
class Outcome:
    """What the benchmark checks and records about one campaign."""

    functions: frozenset[str]
    suite: list[InputVector]
    covered: int
    reachable: int
    digest: str
    counters: dict[str, int]

    @property
    def coverage_pct(self) -> float:
        return 100.0 * self.covered / self.reachable


def _digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()


def _run_fs(m: ModuleType, program, seed: int, fuzz_budget: int):
    return m.run_fs(program, m.HybridConfig(fuzz_budget=fuzz_budget, rng_seed=seed))


def _run_sf(m: ModuleType, program, seed: int, fuzz_budget: int):
    return m.run_sf(program, m.HybridConfig(mode="sf", fuzz_budget=fuzz_budget, rng_seed=seed))


def _run_fuzz(m: ModuleType, program, seed: int, fuzz_budget: int):
    return m.fuzz_campaign(program, [(0,)], m.FuzzConfig(rng_seed=seed, budget=fuzz_budget))


def _report_bytes(m: ModuleType, report) -> bytes:
    return m.report.campaign_json_bytes(report)


def _report_outcome(m: ModuleType, program, report) -> Outcome:
    """FS and SF: the report, with its covered/reachable counts from the depth table."""
    stats = report.solver_stats
    return Outcome(
        frozenset(report.coverage.functions),
        list(report.test_suite),
        sum(covered for _, covered, _, _ in report.per_depth),
        sum(total for _, _, total, _ in report.per_depth),
        _digest(_report_bytes(m, dataclasses.replace(report, duration=0.0))),
        {
            "functions": len(report.coverage.functions),
            "edges": report.coverage.edge_count,
            "executions": report.executions,
            "suite": len(report.test_suite),
            "unreachable": report.unreachable,
            "solver.queries": stats.queries,
            "solver.cache_hits": stats.cache_hits,
            "solver.sat": stats.sat,
            "solver.unsat": stats.unsat,
            "solver.unknown": stats.unknown,
        },
    )


def _fuzz_bytes(m: ModuleType, result) -> bytes:
    """The fuzz-only campaign's deterministic output: corpus and coverage."""
    doc = {
        "corpus": [[list(e.values), e.discovery_iteration] for e in result.corpus],
        "functions": sorted(result.cumulative.functions),
        "edges": sorted(result.cumulative.edge_bits),
        "executions": result.executions,
        "faults": [[list(values), outcome.value] for values, outcome in result.faults],
        "witnesses": sorted([name, list(v)] for name, v in result.function_witnesses.items()),
    }
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")


def _fuzz_outcome(m: ModuleType, program, result) -> Outcome:
    """Fuzz-only: the suite is the corpus plus the function witnesses.

    There is no report, so coverage is over the program's reachable
    functions, counted from its call graph outside the timed campaign.
    """
    suite = [entry.values for entry in result.corpus]
    seen = set(suite)
    for values in result.function_witnesses.values():
        if values not in seen:
            seen.add(values)
            suite.append(values)
    functions = result.cumulative.functions
    return Outcome(
        frozenset(functions),
        suite,
        len(functions),
        len(m.build_callgraph(program).reachable()),
        _digest(_fuzz_bytes(m, result)),
        {
            "functions": len(functions),
            "edges": result.cumulative.edge_count,
            "executions": result.executions,
            "suite": len(suite),
            "fuzzer.corpus_size": len(result.corpus),
            "fuzzer.faults": len(result.faults),
        },
    )


@dataclass(frozen=True)
class Workload:
    name: str
    branching: int
    depth: int
    why: str
    fuzz_budget: int
    # Span name of the library call that runs the campaign.
    api: str
    # (munchkin, program, seed, fuzz_budget) -> raw result: the timed campaign.
    campaign: Callable[[ModuleType, object, int, int], object]
    # (munchkin, raw result) -> report bytes: timed with the campaign.
    report: Callable[[ModuleType, object], bytes]
    # (munchkin, program, raw result) -> Outcome: untimed.
    summarize: Callable[[ModuleType, object, object], Outcome]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fs-b2d8", 2, 8,
            "FS on 512 functions: static analysis per sonar target dominates, "
            "the shared solver cache answers most solves",
            96, "orchestrator.run_fs", _run_fs, _report_bytes, _report_outcome,
        ),
        Workload(
            "sf-b3d6", 3, 6,
            "SF on 1,094 functions: one random-search symex run with little "
            "solver reuse, then fuzzing; call graph nearly idle",
            2000, "orchestrator.run_sf", _run_sf, _report_bytes, _report_outcome,
        ),
        Workload(
            "fuzz-b2d9", 2, 9,
            "fuzz-only on 1,024 functions, 10-call-deep paths: interpreter and "
            "fuzzer bookkeeping only, coverage stops below 100%",
            10_000, "fuzzer.fuzz_campaign", _run_fuzz, _fuzz_bytes, _fuzz_outcome,
        ),
    )
}


def gen_params(m: ModuleType, workload: Workload, seed: int):
    return m.GenParams(workload.branching, workload.depth, seed)


def oracle_errors(m: ModuleType, params, out: Outcome) -> list[str]:
    """Replay the suite through the generator's exact coverage ground truth.

    The union of per-test ground-truth sets must equal the reported function
    set, and the reported coverage must be that union over every function of
    the program (all tree functions are reachable).
    """
    expected: set[str] = set()
    for tc in out.suite:
        expected |= m.generator.covered_functions(params, tc[0] if tc else 0)
    errors = []
    extra = sorted(out.functions - expected)
    missing = sorted(expected - out.functions)
    if extra:
        errors.append(f"reported but no test covers them: {extra[:5]} ({len(extra)})")
    if missing:
        errors.append(f"tests cover them but not reported: {missing[:5]} ({len(missing)})")
    total = m.generator.total_functions(params)
    if out.reachable != total:
        errors.append(f"reachable count {out.reachable} != generated {total}")
    want_pct = 100.0 * len(expected) / total
    if out.coverage_pct != want_pct:
        errors.append(f"coverage_pct {out.coverage_pct} != oracle {want_pct}")
    return errors
