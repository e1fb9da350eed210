"""Acceptance gate: one test per release criterion, one PASS line each.

Budgets are execution/query counts, never wall-clock, so every criterion
replays identically. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import random
import time
from contextlib import contextmanager

from munchkin.callgraph import build_callgraph
from munchkin.executor import run_concrete
from munchkin.generator import GenParams, generate_program, ground_truth_coverage
from munchkin.orchestrator import HybridConfig, run_baselines, run_fs, run_sf
from munchkin.report import campaign_json_bytes, emit_plot_dat, read_plot_dat
from munchkin.symex import Strategy, SymexLimits, symex_campaign

GRID = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (3, 4),
        (4, 1), (4, 2), (4, 3), (4, 4)]
EXPECTED_COUNTS = [4, 8, 16, 32, 5, 14, 41, 122, 6, 22, 86, 342]

GENEROUS = SymexLimits(max_states=100_000, max_queries=100_000)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_function_count_fidelity():
    with criterion(1, "generator emits the exact function counts for the 12-program grid"):
        started = time.perf_counter()
        counts = [len(generate_program(GenParams(b, d)).functions) for b, d in GRID]
        elapsed = time.perf_counter() - started
        assert counts == EXPECTED_COUNTS
        assert elapsed < 1.0, f"generation took {elapsed:.2f}s"


def test_criterion_2_symex_completeness():
    with criterion(2, "baseline symex covers 100% of every grid program within budget"):
        for b, d in GRID:
            program = generate_program(GenParams(b, d))
            started = time.perf_counter()
            result = symex_campaign(program, Strategy.BASELINE, GENEROUS, rng_seed=0)
            elapsed = time.perf_counter() - started
            assert result.coverage.functions == build_callgraph(program).reachable(), (b, d)
            assert result.stats.queries <= 100_000, (b, d)
            assert elapsed <= 60.0, (b, d, elapsed)


def test_criterion_3_fs_completeness_and_efficiency():
    with criterion(3, "FS covers 100% and charges strictly fewer queries than symex alone"):
        for b, d in GRID:
            program = generate_program(GenParams(b, d))
            cfg = HybridConfig(
                mode="fs",
                fuzz_budget=96,
                symex_limits=GENEROUS,
                per_target_query_budget=64,
                per_target_state_budget=10_000,
                rng_seed=7,
            )
            fs_report = run_fs(program, cfg)
            sym_result = symex_campaign(program, Strategy.BASELINE, GENEROUS, rng_seed=7)
            reachable = build_callgraph(program).reachable()
            assert fs_report.coverage.functions == reachable, (b, d)
            assert fs_report.solver_stats.queries < sym_result.stats.queries, (
                b, d, fs_report.solver_stats.queries, sym_result.stats.queries,
            )


def test_criterion_4_oracle_equivalence():
    with criterion(4, "interpreter coverage equals the range-arithmetic ground truth"):
        for b, d in GRID:
            if b**d > 256:
                continue
            params = GenParams(b, d)
            program = generate_program(params)
            truth = ground_truth_coverage(params)
            union = set()
            for value in [-1] + list(range(b**d)):
                result = run_concrete(program, (value,))
                assert result.coverage.functions == truth[value], (b, d, value)
                union |= result.coverage.functions
            assert union == set(program.functions), (b, d)


def test_criterion_5_soundness_of_emitted_tests():
    with criterion(5, "every test emitted by 500 randomized campaigns replays to its attribution"):
        rng = random.Random(20260808)
        campaigns = 0

        def params():
            return GenParams(rng.choice([2, 3]), rng.choice([1, 2, 3]))

        def check_symex(result, program):
            for tc in result.test_cases:
                replay = run_concrete(program, tc.values)
                assert replay.coverage.functions >= tc.covering

        for _ in range(170):
            program = generate_program(params())
            limits = SymexLimits(rng.randint(5, 400), rng.randint(5, 300))
            result = symex_campaign(
                program, Strategy.BASELINE, limits, rng_seed=rng.randrange(1 << 30)
            )
            check_symex(result, program)
            campaigns += 1

        for _ in range(170):
            program = generate_program(params())
            target = rng.choice(sorted(program.functions))
            result = symex_campaign(
                program,
                Strategy.SONAR,
                SymexLimits(rng.randint(5, 400), rng.randint(5, 300)),
                target=target,
                rng_seed=rng.randrange(1 << 30),
            )
            check_symex(result, program)
            campaigns += 1

        def check_hybrid(report, program):
            witnessed = set()
            for values in report.test_suite:
                witnessed |= run_concrete(program, values).coverage.functions
            assert report.coverage.functions <= witnessed

        for _ in range(80):
            program = generate_program(params())
            cfg = HybridConfig(
                mode="fs",
                fuzz_budget=rng.randint(0, 40),
                per_target_query_budget=rng.randint(8, 64),
                rng_seed=rng.randrange(1 << 30),
            )
            check_hybrid(run_fs(program, cfg), program)
            campaigns += 1

        for _ in range(80):
            program = generate_program(params())
            cfg = HybridConfig(
                mode="sf",
                fuzz_budget=rng.randint(0, 40),
                symex_limits=SymexLimits(rng.randint(5, 200), rng.randint(5, 200)),
                rng_seed=rng.randrange(1 << 30),
            )
            check_hybrid(run_sf(program, cfg), program)
            campaigns += 1

        assert campaigns >= 500


def _json_without_duration(report) -> bytes:
    payload = json.loads(campaign_json_bytes(report))
    payload.pop("duration")
    return json.dumps(payload, sort_keys=True, indent=2).encode()


def test_criterion_6_determinism():
    with criterion(6, "identical configs produce byte-identical reports across 3 runs"):
        for b, d in [(2, 3), (3, 2)]:
            program = generate_program(GenParams(b, d))
            fs_cfg = HybridConfig(mode="fs", fuzz_budget=48, rng_seed=11)
            sf_cfg = HybridConfig(
                mode="sf", fuzz_budget=48, symex_limits=SymexLimits(200, 200), rng_seed=11
            )
            runs = {
                "fs": [_json_without_duration(run_fs(program, fs_cfg)) for _ in range(3)],
                "sf": [_json_without_duration(run_sf(program, sf_cfg)) for _ in range(3)],
                "baselines": [
                    tuple(_json_without_duration(r) for r in run_baselines(program, fs_cfg))
                    for _ in range(3)
                ],
            }
            for name, outputs in runs.items():
                assert outputs[0] == outputs[1] == outputs[2], (b, d, name)


def test_criterion_7_depth_profile_dominance():
    with criterion(7, "FS depth profile dominates fuzz-only row-wise and closes the deepest row"):
        program = generate_program(GenParams(3, 3))
        cg = build_callgraph(program)
        # Budget calibrated so that fuzzing alone stays below 100%.
        cfg = HybridConfig(mode="fs", fuzz_budget=128, rng_seed=7)
        fuzz_report, _ = run_baselines(program, cfg)
        fuzz_pct = {row[0]: row[3] for row in fuzz_report.per_depth}
        assert any(pct < 100 for pct in fuzz_pct.values()), "fuzz budget not calibrated"

        fs_report = run_fs(program, cfg)
        fs_pct = {row[0]: row[3] for row in fs_report.per_depth}
        assert set(fs_pct) == set(fuzz_pct)
        for depth, pct in fs_pct.items():
            assert pct >= fuzz_pct[depth], (depth, pct, fuzz_pct[depth])
        assert fs_pct[max(fs_pct)] == 100


def test_criterion_8_plot_data_format(tmp_path):
    with criterion(8, "plot data files are five numeric columns, depth first, round-trippable"):
        program = generate_program(GenParams(2, 2))
        fs_cfg = HybridConfig(mode="fs", fuzz_budget=32, rng_seed=3)
        sf_cfg = HybridConfig(
            mode="sf", fuzz_budget=32, symex_limits=SymexLimits(500, 500), rng_seed=3
        )
        fuzz_report, symex_report = run_baselines(program, fs_cfg)
        tables = [
            symex_report.per_depth,
            fuzz_report.per_depth,
            run_fs(program, fs_cfg).per_depth,
            run_sf(program, sf_cfg).per_depth,
        ]
        path = tmp_path / "plot.dat"
        emit_plot_dat(tables, path)
        rows = read_plot_dat(path)
        assert rows, "empty plot file"
        for row in rows:
            assert len(row) == 5
        assert [row[0] for row in rows] == [float(r[0]) for r in tables[0]]
        for row, *table_rows in zip(rows, *tables):
            assert tuple(row[1:]) == tuple(float(t[3]) for t in table_rows)
