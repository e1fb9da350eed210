"""End-to-end campaigns: one runner per technique.

``run_fuzz`` and ``run_symex`` return a report with the campaign's own
result (the CLI writes its corpus or test cases); ``run_baselines`` returns
both reports. FS runs a fuzzing phase first, then directs symbolic execution
at each still-uncovered function (frontier functions first, by ascending call
depth). Replay-validated coverage goes into one live set of functions and
edges after every target, so functions covered en route are never
targeted, and becomes a ``CoverageMap`` once, for the report. All targeted
runs share one solver with its query cache, mirroring what a single long
symbolic-execution run gets for free, and the program's ``ProgramIndex``,
which is built once per program and shared by every campaign on it. Each
targeted run computes its target's hop map once, by one backward BFS over
the target's ancestors, and keeps the handles at locations that cannot
reach the target out of its frontier's heap (see ``symex``), so a targeted
run's own work follows its target's ancestors, not the program's size.
The next target is found by a scan of ``ProgramIndex.by_depth`` from a
cursor past every function already covered or given up on.
``run_fs`` also creates a slice memo and hands it to every targeted run
beside the solver, so a slice that an earlier target ran is replayed, not
run again (see ``symex``); the memo dies when ``run_fs`` returns. SF and
the symex baseline run without one. A targeted run's state is a fork and a
side, whose frames are built only when its slice runs afresh; a replay
builds none, and its solves are answered by the cache.
Each targeted run reads the live set of covered functions in place, as
``already_covered``, and ``run_fs`` adds the run's coverage to it after.

SF runs bounded symbolic execution first to produce one test case per
newly covered function, then fuzzes from those seeds (falling back to the
single seed [0] if the first phase emitted nothing). Each test case keeps
the result of its replay, which ran under the campaign's step limit, and
the fuzz phase admits every seed from that result instead of running it
again, so its coverage, which holds every replay's, is SF's. The report's
``executions`` still counts every seed twice, once per phase, as when the
fuzzer ran each again.

``make_report`` is the one place a campaign result becomes a
``CampaignReport``. It reads only the call graph, and ``duration`` is the
wall time since the runner started. Reports are deterministic given
(program, config) except for that field. ``HybridConfig.step_limit`` bounds
every concrete run of a campaign: fuzzer executions and symex replays
alike.

Each runner, like ``fuzz_campaign`` and ``symex_campaign``, runs with
automatic cyclic garbage collection paused (``ir._collector_paused``): the
campaigns make no reference cycles, so a collection during one scans the
survivors and frees nothing. A nested call leaves the collector as it
finds it, so FS's targeted runs do not turn it back on between targets,
and the outermost call restores the caller's setting when it returns or
raises. The first collection after a runner returns scans the campaign's
survivors once. Campaigns are single-threaded by contract: the collector
is global to the process, so a campaign in another thread would have its
setting changed under it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .ir import Program, _collector_paused
from .callgraph import CallGraph, index_program
from .executor import CoverageMap, DEFAULT_STEP_LIMIT, InputVector
from .fuzzer import FuzzConfig, FuzzResult, fuzz_campaign
from .report import TECHNIQUE_FS, TECHNIQUE_FUZZ, TECHNIQUE_SF, TECHNIQUE_SYMEX
from .report import DepthRow, depth_table
from .symex import (
    DEFAULT_MAX_INPUTS,
    Solver,
    SolverStats,
    Strategy,
    SymexLimits,
    SymResult,
    symex_campaign,
)

MODE_FS = "fs"
MODE_SF = "sf"


@dataclass(frozen=True)
class HybridConfig:
    mode: str = MODE_FS
    fuzz_budget: int = FuzzConfig.budget
    symex_limits: SymexLimits = SymexLimits()
    per_target_query_budget: int = 64
    per_target_state_budget: int = 10_000
    seeds: tuple[InputVector, ...] = ((0,),)
    rng_seed: int = 0
    step_limit: int = DEFAULT_STEP_LIMIT
    max_inputs: int = DEFAULT_MAX_INPUTS


@dataclass
class CampaignReport:
    technique: str
    coverage: CoverageMap
    per_depth: list[DepthRow]
    solver_stats: SolverStats
    executions: int
    test_suite: list[InputVector]
    duration: float
    unreachable: int = 0


def make_report(
    technique: str,
    cg: CallGraph,
    coverage: CoverageMap,
    stats: SolverStats,
    executions: int,
    test_suite: list[InputVector],
    started: float,
) -> CampaignReport:
    """The report of a campaign that began at ``perf_counter()`` ``started``."""
    return CampaignReport(
        technique,
        coverage,
        depth_table(coverage, cg),
        stats,
        executions,
        test_suite,
        time.perf_counter() - started,
        unreachable=len(cg.nodes) - len(cg.reachable()),
    )


def fuzz_config(cfg: HybridConfig) -> FuzzConfig:
    """The fuzzing phase's part of ``cfg``: RNG seed, fuzz budget, step limit."""
    return FuzzConfig(cfg.rng_seed, cfg.fuzz_budget, cfg.step_limit)


@_collector_paused
def run_fs(program: Program, cfg: HybridConfig) -> CampaignReport:
    """Fuzz first, then target every remaining uncovered function."""
    if cfg.mode != MODE_FS:
        raise ValueError("config mode must be 'fs'")
    if cfg.per_target_query_budget <= 0:
        raise ValueError("per-target query budget must be positive")
    if cfg.per_target_state_budget <= 0:
        raise ValueError("per-target state budget must be positive")
    if cfg.max_inputs < 0:
        raise ValueError("max_inputs must not be negative")
    started = time.perf_counter()

    fuzz_result = fuzz_campaign(program, list(cfg.seeds), fuzz_config(cfg))
    functions = set(fuzz_result.cumulative.functions)
    edge_bits = set(fuzz_result.cumulative.edge_bits)
    executions = fuzz_result.executions
    test_suite = fuzz_result.test_suite()

    index = index_program(program)
    solver = Solver()
    slices: dict = {}  # the slice memo, valid with this solver only
    limits = SymexLimits(cfg.per_target_state_budget, cfg.per_target_query_budget)
    failed: set[str] = set()
    # The first function of ``by_depth`` in neither set; both sets only grow.
    by_depth, cursor = index.by_depth, 0

    while True:
        while cursor < len(by_depth) and (
            by_depth[cursor] in functions or by_depth[cursor] in failed
        ):
            cursor += 1
        target = index.next_target(functions, failed, cursor)
        if target is None:
            break
        result = symex_campaign(
            program,
            Strategy.SONAR,
            limits,
            cfg.max_inputs,
            target=target,
            rng_seed=cfg.rng_seed,
            solver=solver,
            slices=slices,
            already_covered=functions,
            replay_step_limit=cfg.step_limit,
        )
        functions.update(result.coverage.functions)
        edge_bits.update(result.coverage.edge_bits)
        executions += len(result.test_cases)
        test_suite.extend(tc.values for tc in result.test_cases)
        if target not in functions:
            failed.add(target)

    return make_report(
        TECHNIQUE_FS, index.callgraph, CoverageMap(frozenset(functions), frozenset(edge_bits)),
        solver.stats, executions, test_suite, started,
    )


@_collector_paused
def run_sf(program: Program, cfg: HybridConfig) -> CampaignReport:
    """Symbolic execution for diverse seeds, then fuzz from them."""
    if cfg.mode != MODE_SF:
        raise ValueError("config mode must be 'sf'")
    if cfg.fuzz_budget < 0:  # before the symbolic phase, not after it
        raise ValueError("fuzz budget must be >= 0")
    started = time.perf_counter()
    sym_result = _symex(program, cfg)
    tests = sym_result.test_cases
    symex_suite = [tc.values for tc in tests]
    fuzz_result = fuzz_campaign(
        program, symex_suite, fuzz_config(cfg), [tc.replay for tc in tests]
    )
    executions = len(symex_suite) + fuzz_result.executions
    known = set(symex_suite)
    test_suite = symex_suite + [v for v in fuzz_result.test_suite() if v not in known]

    return make_report(
        TECHNIQUE_SF, index_program(program).callgraph, fuzz_result.cumulative,
        sym_result.stats, executions, test_suite, started,
    )


def _symex(program: Program, cfg: HybridConfig, search=Strategy.BASELINE, target=None):
    """Symbolic execution under ``cfg``'s symex budgets, RNG seed and step limit."""
    return symex_campaign(
        program, search, cfg.symex_limits, cfg.max_inputs, target=target,
        rng_seed=cfg.rng_seed, replay_step_limit=cfg.step_limit,
    )


@_collector_paused
def run_fuzz(program: Program, cfg: HybridConfig) -> tuple[CampaignReport, FuzzResult]:
    """Fuzzing alone, from the config's seeds under its fuzz budget."""
    started = time.perf_counter()
    result = fuzz_campaign(program, list(cfg.seeds), fuzz_config(cfg))
    return make_report(
        TECHNIQUE_FUZZ, index_program(program).callgraph, result.cumulative,
        SolverStats(), result.executions, result.test_suite(), started,
    ), result


@_collector_paused
def run_symex(
    program: Program, cfg: HybridConfig, search=Strategy.BASELINE, target: str | None = None
) -> tuple[CampaignReport, SymResult]:
    """Symbolic execution alone, under the config's symex budgets."""
    started = time.perf_counter()
    result = _symex(program, cfg, search, target)
    suite = [tc.values for tc in result.test_cases]
    return make_report(
        TECHNIQUE_SYMEX, index_program(program).callgraph, result.coverage,
        result.stats, len(suite), suite, started,
    ), result


def run_baselines(
    program: Program, cfg: HybridConfig
) -> tuple[CampaignReport, CampaignReport]:
    """Fuzz-only and symex-only reports under the config's budgets."""
    return run_fuzz(program, cfg)[0], run_symex(program, cfg)[0]


def run_hybrid(program: Program, cfg: HybridConfig) -> CampaignReport:
    """Dispatch on config mode."""
    if cfg.mode == MODE_FS:
        return run_fs(program, cfg)
    if cfg.mode == MODE_SF:
        return run_sf(program, cfg)
    raise ValueError(f"unknown mode {cfg.mode!r}")
