"""End-to-end campaigns: the two hybrid modes and both baselines.

FS runs a fuzzing phase first, then directs symbolic execution at each
still-uncovered function (frontier functions first, by ascending call
depth), re-merging replay-validated coverage after every target so that
functions covered en route are never targeted. All targeted runs share one
solver with its query cache, mirroring what a single long
symbolic-execution run gets for free, and one ``ProgramIndex``, so the
program's call graph and block graph are built once per campaign and each
target costs one BFS for its distance field.

SF runs bounded symbolic execution first to produce one test case per
newly covered function, then fuzzes from those seeds (falling back to the
single seed [0] if the first phase emitted nothing).

Reports are deterministic given (program, config) except for the duration
field.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .ir import Program
from .callgraph import ProgramIndex, frontier_set, index_program
from .executor import CoverageMap, DEFAULT_STEP_LIMIT, InputVector, merge_coverage
from .fuzzer import FuzzConfig, FuzzResult, fuzz_campaign
from .report import DepthRow, depth_table
from .symex import Solver, SolverStats, Strategy, SymexLimits, symex_campaign

TECHNIQUE_FUZZ = "AFL-like"
TECHNIQUE_SYMEX = "SymexOnly"
TECHNIQUE_FS = "FS"
TECHNIQUE_SF = "SF"

MODE_FS = "fs"
MODE_SF = "sf"


@dataclass(frozen=True)
class HybridConfig:
    mode: str = MODE_FS
    fuzz_budget: int = 1000
    symex_limits: SymexLimits = SymexLimits()
    per_target_query_budget: int = 64
    per_target_state_budget: int = 10_000
    seeds: tuple[InputVector, ...] = ((0,),)
    rng_seed: int = 0
    step_limit: int = DEFAULT_STEP_LIMIT
    max_inputs: int = 4


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


def _fuzz_suite(result: FuzzResult) -> list[InputVector]:
    suite = [entry.values for entry in result.corpus]
    present = set(suite)
    for values in result.function_witnesses.values():
        if values not in present:
            present.add(values)
            suite.append(values)
    return suite


def _make_report(
    technique: str,
    index: ProgramIndex,
    coverage: CoverageMap,
    stats: SolverStats,
    executions: int,
    test_suite: list[InputVector],
    started: float,
) -> CampaignReport:
    cg = index.callgraph
    return CampaignReport(
        technique,
        coverage,
        depth_table(coverage, cg),
        stats,
        executions,
        test_suite,
        time.perf_counter() - started,
        unreachable=len(cg.nodes) - len(index.reachable),
    )


def _fuzz_config(cfg: HybridConfig) -> FuzzConfig:
    return FuzzConfig(cfg.rng_seed, cfg.fuzz_budget, cfg.step_limit)


def run_fs(program: Program, cfg: HybridConfig) -> CampaignReport:
    """Fuzz first, then target every remaining uncovered function."""
    if cfg.mode != MODE_FS:
        raise ValueError("config mode must be 'fs'")
    if cfg.per_target_query_budget <= 0:
        raise ValueError("per-target query budget must be positive")
    started = time.perf_counter()

    fuzz_result = fuzz_campaign(program, list(cfg.seeds), _fuzz_config(cfg))
    coverage = fuzz_result.cumulative
    executions = fuzz_result.executions
    test_suite = _fuzz_suite(fuzz_result)

    index = index_program(program)
    solver = Solver()
    limits = SymexLimits(cfg.per_target_state_budget, cfg.per_target_query_budget)
    failed: set[str] = set()

    while True:
        covered = coverage.functions
        target = next(
            (
                name
                for name in frontier_set(index.callgraph, covered)
                if name not in failed and name in index.reachable
            ),
            None,
        )
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
            index=index,
            already_covered=covered,
        )
        coverage = merge_coverage(coverage, result.coverage)
        executions += len(result.test_cases)
        test_suite.extend(tc.values for tc in result.test_cases)
        if target not in coverage.functions:
            failed.add(target)

    return _make_report(
        TECHNIQUE_FS, index, coverage, solver.stats, executions, test_suite, started
    )


def run_sf(program: Program, cfg: HybridConfig) -> CampaignReport:
    """Symbolic execution for diverse seeds, then fuzz from them."""
    if cfg.mode != MODE_SF:
        raise ValueError("config mode must be 'sf'")
    started = time.perf_counter()
    index = index_program(program)

    sym_result = symex_campaign(
        program,
        Strategy.BASELINE,
        cfg.symex_limits,
        cfg.max_inputs,
        rng_seed=cfg.rng_seed,
        index=index,
    )
    seeds = [tc.values for tc in sym_result.test_cases] or [(0,)]
    executions = len(sym_result.test_cases)

    fuzz_result = fuzz_campaign(program, seeds, _fuzz_config(cfg))
    coverage = merge_coverage(sym_result.coverage, fuzz_result.cumulative)
    executions += fuzz_result.executions
    test_suite = [tc.values for tc in sym_result.test_cases]
    seen = set(test_suite)
    for values in _fuzz_suite(fuzz_result):
        if values not in seen:
            seen.add(values)
            test_suite.append(values)

    return _make_report(
        TECHNIQUE_SF, index, coverage, sym_result.stats, executions, test_suite, started
    )


def run_baselines(
    program: Program, cfg: HybridConfig
) -> tuple[CampaignReport, CampaignReport]:
    """Fuzz-only and symex-only reports under the config's budgets."""
    index = index_program(program)

    started = time.perf_counter()
    fuzz_result = fuzz_campaign(program, list(cfg.seeds), _fuzz_config(cfg))
    fuzz_report = _make_report(
        TECHNIQUE_FUZZ,
        index,
        fuzz_result.cumulative,
        SolverStats(),
        fuzz_result.executions,
        _fuzz_suite(fuzz_result),
        started,
    )

    started = time.perf_counter()
    sym_result = symex_campaign(
        program,
        Strategy.BASELINE,
        cfg.symex_limits,
        cfg.max_inputs,
        rng_seed=cfg.rng_seed,
        index=index,
    )
    symex_report = _make_report(
        TECHNIQUE_SYMEX,
        index,
        sym_result.coverage,
        sym_result.stats,
        len(sym_result.test_cases),
        [tc.values for tc in sym_result.test_cases],
        started,
    )
    return fuzz_report, symex_report


def run_hybrid(program: Program, cfg: HybridConfig) -> CampaignReport:
    """Dispatch on config mode."""
    if cfg.mode == MODE_FS:
        return run_fs(program, cfg)
    if cfg.mode == MODE_SF:
        return run_sf(program, cfg)
    raise ValueError(f"unknown mode {cfg.mode!r}")
