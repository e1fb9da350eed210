"""FS and SF hybrid campaigns and the two baselines."""

import copy
import dataclasses
import gc
import hashlib
import inspect
import random
from unittest.mock import patch

import pytest

from munchkin import callgraph, fuzzer, orchestrator, symex
from munchkin.callgraph import build_callgraph
from munchkin.executor import DEFAULT_STEP_LIMIT, CoverageMap, Outcome, run_concrete
from munchkin.generator import GenParams, generate_program
from munchkin.ir import parse_program
from munchkin.orchestrator import (
    HybridConfig,
    TECHNIQUE_FS,
    TECHNIQUE_FUZZ,
    TECHNIQUE_SF,
    TECHNIQUE_SYMEX,
    run_baselines,
    run_fs,
    run_hybrid,
    run_sf,
    run_symex,
)
from munchkin.report import campaign_json_bytes, campaign_to_dict, coverage_percent
from munchkin.symex import SolverStats, Strategy, SymexLimits, SymResult

from test_symex import PINNED_TEXT


def _fs_config(**overrides):
    base = dict(mode="fs", fuzz_budget=64, per_target_query_budget=64, rng_seed=7)
    base.update(overrides)
    return HybridConfig(**base)


def _sf_config(**overrides):
    base = dict(mode="sf", fuzz_budget=64, symex_limits=SymexLimits(), rng_seed=7)
    base.update(overrides)
    return HybridConfig(**base)


class TestFS:
    def test_full_coverage_on_tree_depth_three(self):
        program = generate_program(GenParams(2, 3))
        report = run_fs(program, _fs_config(fuzz_budget=8))
        cg = build_callgraph(program)
        assert report.coverage.functions == cg.reachable()
        assert report.technique == TECHNIQUE_FS

    def test_no_queries_when_fuzzing_covers_everything(self):
        program = generate_program(GenParams(2, 1))
        report = run_fs(program, _fs_config(fuzz_budget=10_000, rng_seed=0))
        assert report.solver_stats.queries == 0

    def test_fewer_queries_than_pure_symex(self):
        program = generate_program(GenParams(3, 3))
        cfg = _fs_config(fuzz_budget=128)
        fs_report = run_fs(program, cfg)
        _, symex_report = run_baselines(program, cfg)
        assert fs_report.coverage.functions >= symex_report.coverage.functions
        assert fs_report.solver_stats.queries < symex_report.solver_stats.queries

    def test_coverage_contains_the_fuzz_phase(self):
        program = generate_program(GenParams(3, 2))
        cfg = _fs_config(fuzz_budget=40)
        fs_report = run_fs(program, cfg)
        fuzz_report, _ = run_baselines(program, cfg)
        assert fuzz_report.coverage.functions <= fs_report.coverage.functions

    def test_every_covered_function_has_a_replay_witness(self):
        program = generate_program(GenParams(3, 2))
        report = run_fs(program, _fs_config(fuzz_budget=32))
        witnessed = set()
        for values in report.test_suite:
            witnessed |= run_concrete(program, values).coverage.functions
        assert report.coverage.functions <= witnessed

    def test_program_is_analysed_once(self, monkeypatch):
        # Every campaign on one program shares one index: count real builds.
        program = generate_program(GenParams(2, 3))
        builds = []
        build_index = callgraph.ProgramIndex

        def counting_index(*fields):
            builds.append(fields)
            return build_index(*fields)

        monkeypatch.setattr(callgraph, "ProgramIndex", counting_index)
        report = run_fs(program, _fs_config(fuzz_budget=8))
        assert report.solver_stats.queries > 0  # targeted runs happened
        run_sf(program, _sf_config(fuzz_budget=8))
        run_baselines(program, _fs_config(fuzz_budget=8))
        symex.symex_campaign(program, Strategy.SONAR, target="n_3_3")
        assert len(builds) == 1
        callgraph.index_program(generate_program(GenParams(2, 3)))
        assert len(builds) == 2  # an equal but distinct program gets its own

    def test_sonar_settles_ancestors_and_fresh_slices_are_few(self, monkeypatch):
        # The bench's fs-b2d8 campaign at seed 0: 241 targets over 1,025
        # blocks. With return edges into call-site blocks, each target's BFS
        # walked its subtree and settled 56,105 locations in all; from
        # after-call points it settles the target's ancestors. Every one of
        # the 2,443 popped states ran its slice then; now a slice runs afresh
        # once per node, and again only where reaching a target cut it short.
        program = generate_program(GenParams(2, 8, 0))
        fields = {}
        distances = callgraph.ProgramIndex.distances

        def recording_distances(index, target):
            assert target not in fields  # each target is aimed at once
            fields[target] = distances(index, target)
            return fields[target]

        memos, pops = [], []
        campaign = orchestrator.symex_campaign

        def recording_campaign(*args, slices, **kwargs):
            memos.append(slices)
            result = campaign(*args, slices=slices, **kwargs)
            pops.append(result.states_explored)
            return result

        monkeypatch.setattr(callgraph.ProgramIndex, "distances", recording_distances)
        monkeypatch.setattr(orchestrator, "symex_campaign", recording_campaign)
        run_fs(program, HybridConfig(fuzz_budget=96, rng_seed=0))
        settled = sum(h >= 0 for hops in fields.values() for h in hops)
        assert len(fields) == 241
        assert settled == 4_404
        assert all(memo is memos[0] for memo in memos)  # one memo per campaign
        assert sum(pops) == 2_443
        assert 3 * (len(memos[0]) + len(fields)) <= sum(pops)

    def test_no_hop_list_outlives_the_campaign_in_the_index(self):
        # Each targeted run owns the hop list it asked for: FS leaves the
        # shared index as it found it.
        program = generate_program(GenParams(2, 8, 0))
        index = callgraph.index_program(program)
        before = copy.deepcopy(index)
        run_fs(program, HybridConfig(fuzz_budget=96, rng_seed=0))
        assert callgraph.index_program(program) == before
        first = index.distances("n_0_0")
        assert index.distances("n_0_0") == first
        assert index.distances("n_0_0") is not first

    def test_no_slice_memo_outlives_run_fs(self):
        # A slice memo is a dict keyed by path-condition nodes.
        program = generate_program(GenParams(2, 8, 0))
        run_fs(program, HybridConfig(fuzz_budget=96, rng_seed=0))
        gc.collect()
        assert not [
            o for o in gc.get_objects()
            if isinstance(o, dict) and any(isinstance(k, symex.PathCondition) for k in o)
        ]

    def test_mode_and_budget_validation(self):
        program = generate_program(GenParams(2, 1))
        with pytest.raises(ValueError):
            run_fs(program, _sf_config())
        with pytest.raises(ValueError):
            run_fs(program, _fs_config(per_target_query_budget=0))

    @pytest.mark.parametrize("depth", [1, 4])
    def test_a_non_positive_state_budget_is_rejected_before_fuzzing(self, depth):
        # Fuzzing covers all of b2d1 but leaves targets on b2d4; neither
        # outcome may decide whether the budget is checked.
        program = generate_program(GenParams(2, depth))
        with pytest.raises(ValueError, match="state budget"):
            run_fs(program, _fs_config(fuzz_budget=10, per_target_state_budget=0))

    @pytest.mark.parametrize("depth", [1, 4])
    def test_a_negative_max_inputs_is_rejected_before_fuzzing(self, depth):
        # On b2d1 fuzzing covers every function, so no symbolic run would check it.
        program = generate_program(GenParams(2, depth))
        with pytest.raises(ValueError, match="max_inputs"):
            run_fs(program, _fs_config(fuzz_budget=10, max_inputs=-1))


class TestSF:
    def test_symex_phase_alone_already_full(self):
        program = generate_program(GenParams(2, 2))
        report = run_sf(program, _sf_config(fuzz_budget=0))
        assert report.coverage.functions == build_callgraph(program).reachable()
        assert report.technique == TECHNIQUE_SF

    def test_empty_symex_phase_falls_back_to_zero_seed(self, monkeypatch):
        program = generate_program(GenParams(2, 1))

        def empty_symex(*args, **kwargs):
            return SymResult([], CoverageMap(), SolverStats(), 0)

        monkeypatch.setattr(orchestrator, "symex_campaign", empty_symex)
        report = run_sf(program, _sf_config(fuzz_budget=32))
        assert report.coverage.functions  # pure fuzzing from [0]
        assert (0,) in report.test_suite

    def test_sf_coverage_superset_of_symex_phase(self):
        rng = random.Random(5)
        for _ in range(8):
            params = GenParams(rng.choice([2, 3]), rng.choice([1, 2, 3]))
            program = generate_program(params)
            limits = SymexLimits(rng.randint(3, 50), rng.randint(3, 50))
            from munchkin.symex import symex_campaign

            phase = symex_campaign(program, limits=limits, rng_seed=3)
            report = run_sf(
                program,
                _sf_config(
                    symex_limits=limits, fuzz_budget=rng.randint(0, 40), rng_seed=3
                ),
            )
            assert phase.coverage.functions <= report.coverage.functions


# main divides by its second input when the first is 0, and g takes 1 % x,
# so replays fault at 0; at step limit 3 every run stops at the limit.
FAULT_TEXT = """\
program faults

func main()
block entry:
  x = input
  y = input
  br == x 0 -> zero, other
block zero:
  q = 100 / y
  call f(q)
  ret
block other:
  call g(x)
  ret

func f(a)
block entry:
  br < a 7 -> small, big
block small:
  print a
  ret
block big:
  ret

func g(a)
block entry:
  r = 1 % a
  print r
  ret
"""


def _check_sf_coverage_is_its_fuzz_phase(program, cfg):
    """SF's fuzz phase, which admits the symex tests from their replays, is
    the fuzz campaign that runs them again, and its coverage is SF's; returns
    the replays' outcomes."""
    phase = symex.symex_campaign(
        program, Strategy.BASELINE, cfg.symex_limits, cfg.max_inputs,
        rng_seed=cfg.rng_seed, replay_step_limit=cfg.step_limit,
    )
    suite = [tc.values for tc in phase.test_cases]
    rerun = fuzzer.fuzz_campaign(program, suite, orchestrator.fuzz_config(cfg))
    handed = []

    def recording(*args):
        handed.append(fuzzer.fuzz_campaign(*args))
        return handed[-1]

    with patch.object(orchestrator, "fuzz_campaign", recording):
        coverage = run_sf(program, cfg).coverage
    (fuzzed,) = handed
    assert [(e.values, e.coverage, e.discovery_iteration) for e in fuzzed.corpus] == [
        (e.values, e.coverage, e.discovery_iteration) for e in rerun.corpus
    ]
    assert fuzzed.executions == rerun.executions
    assert fuzzed.faults == rerun.faults
    assert list(fuzzed.function_witnesses.items()) == list(rerun.function_witnesses.items())
    assert coverage == fuzzed.cumulative == rerun.cumulative
    outcomes = set()
    for tc in phase.test_cases:
        replay = run_concrete(program, tc.values, cfg.step_limit)
        assert tc.replay == replay
        assert replay.coverage.functions <= coverage.functions
        assert replay.coverage.edge_bits <= coverage.edge_bits
        outcomes.add(replay.outcome)
    return outcomes


class TestSFCoverage:
    @pytest.mark.parametrize("rng_seed", [0, 7])
    @pytest.mark.parametrize("fuzz_budget", [0, 24])
    @pytest.mark.parametrize("params", [(2, 3), (3, 3), (4, 2)], ids=["b2d3", "b3d3", "b4d2"])
    def test_trees(self, params, fuzz_budget, rng_seed):
        program = generate_program(GenParams(*params))
        cfg = _sf_config(fuzz_budget=fuzz_budget, rng_seed=rng_seed)
        assert _check_sf_coverage_is_its_fuzz_phase(program, cfg)

    @pytest.mark.parametrize("step_limit, outcome", [
        (3, Outcome.STEP_LIMIT_EXCEEDED),
        (DEFAULT_STEP_LIMIT, Outcome.ARITHMETIC_FAULT),
    ])
    def test_runs_that_fault_or_hit_the_step_limit(self, step_limit, outcome):
        program = parse_program(FAULT_TEXT)
        cfg = _sf_config(fuzz_budget=64, step_limit=step_limit)
        assert outcome in _check_sf_coverage_is_its_fuzz_phase(program, cfg)


class TestBaselines:
    def test_four_way_comparison(self):
        program = generate_program(GenParams(2, 3))
        cfg = _fs_config(fuzz_budget=64)
        fuzz_report, symex_report = run_baselines(program, cfg)
        fs_report = run_fs(program, cfg)
        fs_pct = coverage_percent(fs_report.per_depth)
        assert fs_pct >= coverage_percent(fuzz_report.per_depth)
        assert fs_pct >= coverage_percent(symex_report.per_depth)
        assert fuzz_report.technique == TECHNIQUE_FUZZ
        assert symex_report.technique == TECHNIQUE_SYMEX

    def test_symex_only_is_complete_on_smallest_tree(self):
        program = generate_program(GenParams(2, 1))
        _, symex_report = run_baselines(program, _fs_config())
        assert coverage_percent(symex_report.per_depth) == 100

    def test_fuzz_baseline_issues_no_queries(self):
        program = generate_program(GenParams(2, 2))
        fuzz_report, _ = run_baselines(program, _fs_config())
        assert fuzz_report.solver_stats.queries == 0

    def test_run_symex_runs_the_requested_search(self):
        program = generate_program(GenParams(2, 3))
        rep, result = run_symex(program, _fs_config(), Strategy.SONAR, "n_2_2")
        assert result.target_reached and "n_2_2" in rep.coverage.functions
        assert rep.technique == TECHNIQUE_SYMEX and rep.solver_stats == result.stats
        assert rep.test_suite == [tc.values for tc in result.test_cases]
        assert rep.executions == len(result.test_cases)


class TestDeterminism:
    @pytest.mark.parametrize("runner, cfg_factory", [
        (run_fs, _fs_config),
        (run_sf, _sf_config),
    ])
    def test_reports_identical_except_duration(self, runner, cfg_factory):
        program = generate_program(GenParams(3, 2))
        dicts = []
        for _ in range(2):
            report = runner(program, cfg_factory(fuzz_budget=48))
            payload = campaign_to_dict(report)
            payload.pop("duration")
            dicts.append(payload)
        assert dicts[0] == dicts[1]

    # sha256 of the report bytes with duration 0, pinned from the code as it
    # was before the per-program index replaced per-target analysis. A
    # change here means FS or SF output changed.
    @pytest.mark.parametrize("runner, cfg, digest", [
        (
            run_fs,
            HybridConfig(fuzz_budget=64, rng_seed=0),
            "b05736dc4db640b6680324a555b4c2166b741b356128410e24e4c11d826a239d",
        ),
        (
            run_sf,
            HybridConfig(mode="sf", fuzz_budget=64, rng_seed=0),
            "d52826ef77c04893f41517e6367086c0dc20da25fb46eaea5851f0226fb2d886",
        ),
    ])
    def test_golden_report(self, runner, cfg, digest):
        program = generate_program(GenParams(3, 3, 0))
        report = dataclasses.replace(runner(program, cfg), duration=0.0)
        assert hashlib.sha256(campaign_json_bytes(report)).hexdigest() == digest

    # b3d4 trees, and the opcode program, where replayed slices enter
    # functions whose emission fails (opaque paths) and so solve again.
    @pytest.mark.parametrize("name, cfg", [
        ("b3d4", HybridConfig(fuzz_budget=96, rng_seed=0)),
        ("b3d4", HybridConfig(fuzz_budget=96, rng_seed=7)),
        ("opcodes", HybridConfig(fuzz_budget=1, max_inputs=2)),
    ])
    def test_slice_memo_replays_what_fresh_slices_do(self, name, cfg, monkeypatch):
        # FS with its slice memo, against FS whose every popped state runs
        # its slice afresh: each pushed successor (seq, node, counters,
        # frames and stores), each solve and its result, and each replayed
        # test must come in the same order.
        if name == "opcodes":
            program = parse_program(PINNED_TEXT)
        else:
            program = generate_program(GenParams(3, 4, cfg.rng_seed))
        push, solve, replay = symex.SonarFrontier.push, symex.Solver.solve, symex.run_concrete
        campaign = orchestrator.symex_campaign

        def path(node):
            constraints = []
            while node.parent is not None:
                constraints.append(node.constraint)
                node = node.parent
            return tuple(constraints)

        def fs_log(memo):
            log, memos = [], []

            def logged_push(frontier, state):
                frames = [
                    (loc, index, sorted(store.items()), dest)
                    for _, index, loc, store, dest in state.frames
                ]
                log.append((
                    "push", state.seq, path(state.pc), state.inputs_read,
                    state.queries_charged, state.steps, frames,
                ))
                push(frontier, state)

            def logged_solve(solver, pc, num_vars):
                result = solve(solver, pc, num_vars)
                log.append(("solve", path(pc), num_vars, result))
                return result

            def logged_replay(prog, values, *rest):
                log.append(("replay", values))
                return replay(prog, values, *rest)

            def memo_campaign(*args, slices, **kwargs):
                memos.append(slices)
                return campaign(*args, slices=slices if memo else None, **kwargs)

            with monkeypatch.context() as patches:
                patches.setattr(symex.SonarFrontier, "push", logged_push)
                patches.setattr(symex.Solver, "solve", logged_solve)
                patches.setattr(symex, "run_concrete", logged_replay)
                patches.setattr(orchestrator, "symex_campaign", memo_campaign)
                report = run_fs(program, cfg)
            return log, memos[0], dataclasses.replace(report, duration=0.0)

        memo_log, memo, memo_report = fs_log(True)
        fresh_log, unused, fresh_report = fs_log(False)
        pushes = sum(1 for entry in fresh_log if entry[0] == "push")
        assert unused == {} and 0 < 2 * len(memo) < pushes  # slices were replayed
        assert memo_log == fresh_log
        assert campaign_json_bytes(memo_report) == campaign_json_bytes(fresh_report)

    @pytest.mark.parametrize("runner, cfg_factory", [
        (run_fs, _fs_config),
        (run_sf, _sf_config),
    ])
    def test_step_limit_reaches_every_concrete_run(self, runner, cfg_factory, monkeypatch):
        program = generate_program(GenParams(2, 3))
        cfg = cfg_factory(fuzz_budget=8, step_limit=5_000)
        calls = {"fuzzer": [], "symex": []}
        mutants = []

        def spy_into(seen):
            def spy(prog, values, *rest):
                seen.append((values, rest))
                return run_concrete(prog, values, *rest)

            return spy

        real_mutate = fuzzer.mutate

        def mutate_spy(*args, **kwargs):
            mutants.append(real_mutate(*args, **kwargs))
            return mutants[-1]

        monkeypatch.setattr(fuzzer, "run_concrete", spy_into(calls["fuzzer"]))
        monkeypatch.setattr(symex, "run_concrete", spy_into(calls["symex"]))
        monkeypatch.setattr(fuzzer, "mutate", mutate_spy)
        report = runner(program, cfg)
        assert calls["fuzzer"] and calls["symex"]  # both phases ran
        assert {rest for _, rest in calls["fuzzer"] + calls["symex"]} == {(5_000,)}

        # SF fuzzes from the symex tests, FS from the configured seeds.
        replays = [values for values, _ in calls["symex"]]
        seeds = replays if runner is run_sf else list(cfg.seeds)
        assert len(mutants) == cfg.fuzz_budget
        # Each distinct consumed prefix among the seeds and mutants runs once
        # per campaign. SF's fuzz phase admits the replays from the symex
        # phase's runs, so across both phases SF runs each such prefix once;
        # FS's sonar replays are not its fuzz seeds.
        prefixes = set()
        for values in seeds + mutants:
            n = run_concrete(program, values, 5_000).inputs_read
            prefixes.add(values[:n] + (0,) * (n - len(values)))
        runs = calls["fuzzer"] + (calls["symex"] if runner is run_sf else [])
        assert len(runs) == len(prefixes)
        assert report.executions == len(replays) + len(seeds) + cfg.fuzz_budget

    def test_run_hybrid_dispatch(self):
        program = generate_program(GenParams(2, 1))
        assert run_hybrid(program, _fs_config()).technique == TECHNIQUE_FS
        assert run_hybrid(program, _sf_config()).technique == TECHNIQUE_SF
        with pytest.raises(ValueError):
            run_hybrid(program, HybridConfig(mode="zz"))


class TestPinnedFSTrees:
    """sha256 of FS report bytes, with duration 0, on generated trees.

    The first six runs use ``GenParams`` seed equal to ``rng_seed`` and were
    pinned before return edges moved to after-call points and before FS
    replayed slices from its memo; the last two were pinned before sonar
    search expanded its distance fields lazily. A change here means FS
    output changed.
    """

    @pytest.mark.parametrize("params, fuzz_budget, rng_seed, digest", [
        ((2, 8, 0), 96, 0, "5ee883e930864a63e594adc721d5efcda9366a2753a3cd7beb55092b9895ff67"),
        ((2, 8, 7), 96, 7, "7dda0f971eb2f93e022bea45070648495ffe08fbeb0fe906caa16adcbc0be3c4"),
        ((3, 6, 0), 1_000, 0, "5d1f3149166d657d8748f5ae07d3402a0de98f046c965e3ea61fdf6f04d41eca"),
        ((3, 6, 7), 1_000, 7, "bd81baa2e32959f4db74086fc84e0096d58a5a3106d77543f9f8647e593df71e"),
        ((4, 5, 0), 1_000, 0, "a7148de2ca8cc501e8a46b5a32e16e195fab5b17bb8c52ef57ba8a31f4605a51"),
        ((4, 5, 7), 1_000, 7, "d52ffef89b9beabd6d05ce5a727ecb2cdd67690b9c3fbcf2304fb9d44208e253"),
        ((2, 8, 0), 96, 7, "7a72d8d50ecee29e3f4594695e97b01138e9875c0a34ef0e064dc5fc62d5be86"),
        ((4, 4, 0), 96, 0, "02af8ed41cc78a30e7d199e05ec4e4aed643ae535187d2e26852504aa5eeb5b5"),
    ])
    def test_report_equals_the_recorded_one(self, params, fuzz_budget, rng_seed, digest):
        program = generate_program(GenParams(*params))
        cfg = HybridConfig(fuzz_budget=fuzz_budget, rng_seed=rng_seed)
        report = dataclasses.replace(run_fs(program, cfg), duration=0.0)
        assert hashlib.sha256(campaign_json_bytes(report)).hexdigest() == digest


class TestFSTargetCursor:
    """``run_fs`` starts each target scan at its cursor, the first function
    of ``by_depth`` that is neither covered nor failed, and picks what a
    scan from the start picks."""

    @pytest.mark.parametrize("params", [(3, 4, 0), (4, 4, 0)])
    # Two states per target leave some targets failed.
    @pytest.mark.parametrize("state_budget", [HybridConfig().per_target_state_budget, 2])
    def test_cursor_scan_equals_full_scan(self, params, state_budget):
        full_scan = callgraph.ProgramIndex.next_target
        starts, skipped = [], set()

        def next_target(index, covered, skip, start=0):
            first_open = next(
                (i for i, name in enumerate(index.by_depth) if name not in covered | skip),
                len(index.by_depth),
            )
            assert start == first_open
            got = full_scan(index, covered, skip, start)
            assert got == full_scan(index, covered, skip)
            starts.append(start)
            skipped.update(skip)
            return got

        program = generate_program(GenParams(*params))
        cfg = HybridConfig(fuzz_budget=96, per_target_state_budget=state_budget)
        with patch.object(callgraph.ProgramIndex, "next_target", next_target):
            run_fs(program, cfg)
        assert len(starts) > 10 and starts[-1] == len(program.functions)
        assert bool(skipped) == (state_budget == 2)


class TestDefaults:
    def test_library_defaults_are_the_campaign_defaults(self):
        cfg = HybridConfig()
        assert fuzzer.FuzzConfig() == orchestrator.fuzz_config(cfg)
        params = inspect.signature(symex.symex_campaign).parameters
        assert params["limits"].default == cfg.symex_limits
        assert params["max_inputs"].default == cfg.max_inputs
        assert params["rng_seed"].default == cfg.rng_seed
        assert params["replay_step_limit"].default == cfg.step_limit
