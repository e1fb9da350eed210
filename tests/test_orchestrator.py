"""FS and SF hybrid campaigns and the two baselines."""

import copy
import dataclasses
import gc
import hashlib
import importlib
import inspect
import random
from unittest.mock import patch

import pytest

from munchkin import callgraph, fuzzer, orchestrator, symex
from munchkin.callgraph import build_callgraph
from munchkin.executor import DEFAULT_STEP_LIMIT, CoverageMap, Outcome, lowered_form, run_concrete
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

from test_symex import EQUAL_SIDES_TEXT, MULTI_INPUT_TEXT, OPAQUE_TEXT, PINNED_TEXT, SONAR_TEXT


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
        # A handle's frames are built only when its slice runs afresh: of the
        # 4,645 handles pushed, 495 build any. The 2,202 handles at locations
        # that cannot reach their target wait in the frontier's side list,
        # and every run reaches its target or ends before one is popped.
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

        pushes, stranded, popped, resumed = [0], [0], [], []
        push, pop, resume = symex.SonarFrontier.push, symex.SonarFrontier.pop, symex._resume

        def counting_push(frontier, handle):
            pushes[0] += 1
            waiting = len(frontier._stranded)
            push(frontier, handle)
            stranded[0] += len(frontier._stranded) - waiting

        def noting_pop(frontier):
            fork, side, seq = handle = pop(frontier)
            assert fork[3][side][2] in frontier._hops  # it can reach the target
            popped.append(fork[3][side][0] not in memos[-1])  # runs afresh
            return handle

        def noting_resume(fork, kept):
            resumed.append(len(popped) - 1)  # the pop whose frames these are
            return resume(fork, kept)

        monkeypatch.setattr(callgraph.ProgramIndex, "distances", recording_distances)
        monkeypatch.setattr(orchestrator, "symex_campaign", recording_campaign)
        monkeypatch.setattr(symex.SonarFrontier, "push", counting_push)
        monkeypatch.setattr(symex.SonarFrontier, "pop", noting_pop)
        monkeypatch.setattr(symex, "_resume", noting_resume)
        run_fs(program, HybridConfig(fuzz_budget=96, rng_seed=0))
        settled = sum(len(hops) for hops in fields.values())
        assert len(fields) == 241
        assert settled == 4_404
        assert all(memo is memos[0] for memo in memos)  # one memo per campaign
        assert pushes[0] == 4_645
        assert stranded[0] == 2_202
        assert sum(pops) == len(popped) == 2_443
        assert sum(popped) == 495
        assert 3 * (len(memos[0]) + len(fields)) <= sum(pops)
        # Frames are built once for each fresh pop, and for no replayed one.
        assert resumed == [n for n, fresh in enumerate(popped) if fresh]

    def test_no_hop_map_outlives_the_campaign_in_the_index(self):
        # Each targeted run owns the hop map it asked for: FS leaves the
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

    @pytest.mark.parametrize("depth", [1, 4])
    def test_a_negative_fuzz_budget_is_rejected_before_symbolic_execution(
        self, depth, monkeypatch
    ):
        # The fuzz phase would reject it too, but only after the whole
        # symbolic phase had run.
        program = generate_program(GenParams(2, depth))
        runs = []

        def recording_symex(*args, **kwargs):
            runs.append(args)
            return symex.symex_campaign(*args, **kwargs)

        monkeypatch.setattr(orchestrator, "symex_campaign", recording_symex)
        with pytest.raises(ValueError, match="fuzz budget"):
            run_sf(program, _sf_config(fuzz_budget=-1))
        assert runs == []

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


# FS covers main, f and k by fuzzing, then targets g and h. The slice from
# ``low`` solves a one-sided branch, enters f, solves another and forks; the
# run aimed at g records it, and the run aimed at h replays it.
SOLVES_AROUND_ENTRY_TEXT = """\
program replays

func main()
block entry:
  a = input
  b = input
  br < a 10 -> low, high
block low:
  br < a 20 -> low2, never
block low2:
  call f()
  br < a 30 -> low3, never
block low3:
  br == b 1 -> g1, g2
block g1:
  call g()
  ret
block g2:
  br == b 2 -> h1, h2
block h1:
  call h()
  ret
block h2:
  call k()
  ret
block never:
  ret
block high:
  ret

func f()
block entry:
  ret

func g()
block entry:
  ret

func h()
block entry:
  ret

func k()
block entry:
  ret
"""


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

    # b3d4 trees; the opcode program, where replayed slices enter
    # functions whose emission fails (opaque paths) and so solve again; and
    # a program whose replayed slice solves both before and after an entry.
    @pytest.mark.parametrize("name, cfg", [
        ("b3d4", HybridConfig(fuzz_budget=96, rng_seed=0)),
        ("b3d4", HybridConfig(fuzz_budget=96, rng_seed=7)),
        ("opcodes", HybridConfig(fuzz_budget=1, max_inputs=2)),
        ("solves-around-entry", HybridConfig(fuzz_budget=1, rng_seed=0)),
    ])
    def test_slice_memo_replays_what_fresh_slices_do(self, name, cfg, monkeypatch):
        # FS with its slice memo, against FS whose every popped handle runs
        # its slice afresh. Each pushed handle (seq, node, counters and its
        # fork's frames and stores), each pop, each solve and its result,
        # each replayed test and each target's solver counters must come in
        # the same order. Each fresh
        # slice under the memo must start from the frames and stores that
        # the same pop starts from without it, and only a pop of a node the
        # memo lacks runs afresh.
        if name == "opcodes":
            program = parse_program(PINNED_TEXT)
        elif name == "solves-around-entry":
            program = parse_program(SOLVES_AROUND_ENTRY_TEXT)
        else:
            program = generate_program(GenParams(3, 4, cfg.rng_seed))
        push, pop = symex.SonarFrontier.push, symex.SonarFrontier.pop
        resume, solve, replay = symex._resume, symex.Solver.solve, symex.run_concrete
        campaign = orchestrator.symex_campaign

        def path(node):
            constraints = []
            while node.parent is not None:
                constraints.append(node.constraint)
                node = node.parent
            return tuple(constraints)

        def frames(callers):
            return [
                (loc, index, sorted(store.items()), dest)
                for _, index, loc, store, dest in callers
            ]

        def fs_log(memo):
            log, memos, fresh, starts = [], [], [], {}

            def logged_push(frontier, handle):
                fork, side, seq = handle
                callers, store, ret_dest, sides, inputs_read, queries, steps, _ = fork
                log.append((
                    "push", seq, path(sides[side][0]), sides[side][2], inputs_read,
                    queries, steps, frames(callers), sorted(store.items()), ret_dest,
                ))
                push(frontier, handle)

            def logged_pop(frontier):
                fork, side, seq = handle = pop(frontier)
                node = fork[3][side][0]
                log.append(("pop", seq, path(node)))
                fresh.append(not memo or node not in memos[-1])
                return handle

            def logged_resume(fork, kept):
                callers, store = resume(fork, kept)
                assert len(fresh) - 1 not in starts  # one start per pop
                starts[len(fresh) - 1] = (frames(callers), sorted(store.items()))
                return callers, store

            def logged_solve(solver, pc, num_vars):
                result = solve(solver, pc, num_vars)
                log.append(("solve", path(pc), num_vars, result))
                return result

            def logged_replay(prog, values, *rest):
                log.append(("replay", values))
                return replay(prog, values, *rest)

            def memo_campaign(*args, slices, **kwargs):
                memos.append(slices)
                result = campaign(*args, slices=slices if memo else None, **kwargs)
                log.append(("target", kwargs["target"], result.stats))
                return result

            with monkeypatch.context() as patches:
                patches.setattr(symex.SonarFrontier, "push", logged_push)
                patches.setattr(symex.SonarFrontier, "pop", logged_pop)
                patches.setattr(symex, "_resume", logged_resume)
                patches.setattr(symex.Solver, "solve", logged_solve)
                patches.setattr(symex, "run_concrete", logged_replay)
                patches.setattr(orchestrator, "symex_campaign", memo_campaign)
                report = run_fs(program, cfg)
            assert sorted(starts) == [n for n, runs in enumerate(fresh) if runs]
            report = dataclasses.replace(report, duration=0.0)
            return log, memos[0], starts, report

        memo_log, memo, memo_starts, memo_report = fs_log(True)
        fresh_log, unused, fresh_starts, fresh_report = fs_log(False)
        pushes = sum(1 for entry in fresh_log if entry[0] == "push")
        pops = sum(1 for entry in fresh_log if entry[0] == "pop")
        assert unused == {} and 0 < 2 * len(memo) < pushes  # slices were replayed
        assert memo_log == fresh_log
        assert len(fresh_starts) == pops > len(memo_starts) > 0
        assert all(fresh_starts[n] == start for n, start in memo_starts.items())
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


# ``pick`` and ``split`` fork inside a callee and return into ``main``, whose
# store the successors then write (``y``, ``t``) or fork on without writing
# (after ``split``). ``low`` reads ``t``, which only ``high`` writes, and
# ``pick`` adds ``m``, which only its ``one`` side writes: a write that
# reached another path's store would call ``corrupted``, which no input
# reaches, and add a test to the suite.
STORE_SHARING_TEXT = """\
program cow

func main()
block entry:
  x = input
  y = call pick(x)
  call show(y)
  call split(x)
  br < x 100 -> low, high
block low:
  jmp low2
block low2:
  jmp low3
block low3:
  jmp low4
block low4:
  call expect0(t)
  ret
block high:
  t = const 7
  call show(t)
  z = input
  br == z 9 -> hz, lz
block hz:
  call show(z)
  ret
block lz:
  ret

func pick(a)
block entry:
  b = call side(a)
  br < b 5 -> one, two
block one:
  m = const 3
  jmp done
block two:
  jmp done
block done:
  c = b + m
  ret c

func side(a)
block entry:
  br < a 10 -> lo, hi
block lo:
  ret 1
block hi:
  ret 9

func split(a)
block entry:
  br < a 50 -> neg, pos
block neg:
  ret
block pos:
  ret

func show(v)
block entry:
  br == v 4 -> four, notfour
block four:
  call s4()
  ret
block notfour:
  br == v 9 -> nine, notnine
block nine:
  call s9()
  ret
block notnine:
  br == v 7 -> seven, other
block seven:
  call s7()
  ret
block other:
  call corrupted()
  ret

func expect0(v)
block entry:
  br == v 0 -> zero, nonzero
block zero:
  ret
block nonzero:
  call corrupted()
  ret

func s4()
block entry:
  print 4
  ret

func s9()
block entry:
  print 9
  ret

func s7()
block entry:
  print 7
  ret

func corrupted()
block entry:
  print -1
  ret
"""


# ``fork2`` forks inside ``relay``'s call and both sides return into
# ``relay``, which reads ``u`` before it writes it: a side that wrote ``u``
# into a store the other side also holds would make it call ``corrupted``.
RELAY_TEXT = """\
program relay

func main()
block entry:
  x = input
  call relay(x)
  ret

func relay(a)
block entry:
  call fork2(a)
  jmp use
block use:
  r = u + 1
  jmp set
block set:
  u = const 7
  call check(r)
  ret

func fork2(a)
block entry:
  br < a 10 -> lo, hi
block lo:
  ret
block hi:
  ret

func check(v)
block entry:
  br == v 1 -> fine, bad
block fine:
  ret
block bad:
  call corrupted()
  ret

func corrupted()
block entry:
  print -1
  ret
"""


class TestStoreSharing:
    """Callers' stores written after a forking callee returns."""

    # sha256 of the report bytes with duration 0, recorded while every fork
    # still copied every caller's store.
    @pytest.mark.parametrize("runner, digest", [
        (
            lambda p: run_sf(p, HybridConfig(mode="sf", fuzz_budget=8, rng_seed=0)),
            "4f91130929a76a01f88f5b78c479ea3425c8d1487d2a3b83be2cfa5d07dfddf5",
        ),
        (
            lambda p: run_symex(p, HybridConfig(rng_seed=3))[0],
            "29a6adaed668ae42ca5d139a8308f62e9e3b7cf487e3c78bf15f1a36c9511b5d",
        ),
        (
            lambda p: run_fs(p, HybridConfig(fuzz_budget=0, rng_seed=0)),
            "7ffaa02d3ac4ce7e937bef23862df82b300e4d4c4c6b9f4ed3512feb497f8f42",
        ),
    ], ids=["sf", "symex", "fs"])
    def test_relay_reports_equal_the_recorded_ones(self, runner, digest):
        program = parse_program(RELAY_TEXT)
        report = dataclasses.replace(runner(program), duration=0.0)
        assert "corrupted" not in report.coverage.functions
        assert hashlib.sha256(campaign_json_bytes(report)).hexdigest() == digest

    # sha256 of the report bytes with duration 0, recorded while every fork
    # still copied every caller's store.
    @pytest.mark.parametrize("runner, digest", [
        (
            lambda p: run_sf(p, HybridConfig(mode="sf", fuzz_budget=8, rng_seed=0)),
            "68af655c4b73bfa8e3f27d5e93a19bdc6513c4181a356dc2d74a85f8a67a31b6",
        ),
        (
            lambda p: run_symex(p, HybridConfig(rng_seed=3))[0],
            "17b16f2502580d83976a50d2dcefb01984af5aefd0e9acc05cfb65c93819d34d",
        ),
        (
            lambda p: run_fs(p, HybridConfig(fuzz_budget=0, rng_seed=0)),
            "64715abf3e6f9156cc6dc1d3d0db0b83414c7619116be842b326a42e4e9bda24",
        ),
    ], ids=["sf", "symex", "fs"])
    def test_reports_equal_the_recorded_ones(self, runner, digest):
        program = parse_program(STORE_SHARING_TEXT)
        report = dataclasses.replace(runner(program), duration=0.0)
        assert "corrupted" not in report.coverage.functions
        assert hashlib.sha256(campaign_json_bytes(report)).hexdigest() == digest

    @pytest.mark.parametrize("name", ["store-sharing", "b3d4"])
    def test_successors_share_callers_stores_and_own_the_running_one(self, name, monkeypatch):
        # A successor's frames are built when its slice runs. The fork's last
        # successor to run takes over its callers and running store; the
        # others copy only the running store, and callers' stores are copied
        # on their first write after a return. A tree never writes after a
        # return (calls have no destination and ``ret`` follows each call),
        # so it copies no caller's store at all: one copy for each fork that
        # a successor ran from.
        if name == "b3d4":
            program = generate_program(GenParams(3, 4))
        else:
            program = parse_program(STORE_SHARING_TEXT)
        forks: dict[int, tuple] = {}
        copies = []
        resume = symex._resume

        def grouping_resume(fork, kept):
            assert not kept  # symbolic execution alone keeps no memo
            callers, store = resume(fork, kept)
            if len(fork[3]) == 2:  # a two-way fork, not the entry's
                taken = callers is fork[0] and store is fork[1]
                forks.setdefault(id(fork), (fork, []))[1].append(
                    ([s for _, _, _, s, _ in callers], store, taken)
                )
            return callers, store

        def counting_dict(*args):  # symex copies a store with ``dict(store)``
            if args and isinstance(args[0], dict):
                copies.append(args[0])
            return dict(*args)

        monkeypatch.setattr(symex, "_resume", grouping_resume)
        monkeypatch.setattr(symex, "dict", counting_dict, raising=False)
        symex.symex_campaign(program)
        assert len(forks) > 2
        both = [runs for _, runs in forks.values() if len(runs) == 2]
        assert both  # some forks ran both successors
        for _, runs in forks.values():
            # Only the fork's last successor to run takes it over.
            assert [taken for _, _, taken in runs] == [False] * (len(runs) - 1) + [len(runs) == 2]
        for (first, first_top, _), (second, second_top, _) in both:
            assert len(first) == len(second)
            assert all(a is b for a, b in zip(first, second))
            assert first_top is not second_top
        if name == "b3d4":
            assert len(copies) == len(forks)
        else:
            assert len(copies) > len(forks)  # some callers wrote after a return


# A loop bounded by the first input, and a recursion as deep as it: each
# program's lowered form is cyclic, and a run of a large input stops at a
# small step limit.
LOOP_TEXT = """\
program loop

func main()
block entry:
  n = input
  i = const 0
  jmp head
block head:
  br < i n -> body, done
block body:
  i = i + 1
  jmp head
block done:
  br > i 3 -> many, few
block many:
  call f()
  ret
block few:
  ret

func f()
block entry:
  ret
"""

RECURSION_TEXT = """\
program recursion

func main()
block entry:
  x = input
  d = call down(x)
  br > d 2 -> deep, shallow
block deep:
  call f()
  ret
block shallow:
  ret

func down(a)
block entry:
  br <= a 0 -> base, step
block base:
  ret 0
block step:
  b = a - 1
  c = call down(b)
  e = c + 1
  ret e

func f()
block entry:
  ret
"""

# name -> (program text, or None for the b3d4 tree; step limit)
CYCLE_PROGRAMS = {
    "b3d4": (None, DEFAULT_STEP_LIMIT),
    "fault": (FAULT_TEXT, DEFAULT_STEP_LIMIT),
    "store_sharing": (STORE_SHARING_TEXT, DEFAULT_STEP_LIMIT),
    "relay": (RELAY_TEXT, DEFAULT_STEP_LIMIT),
    "opaque": (OPAQUE_TEXT, DEFAULT_STEP_LIMIT),
    "multi_input": (MULTI_INPUT_TEXT, DEFAULT_STEP_LIMIT),
    "equal_sides": (EQUAL_SIDES_TEXT, DEFAULT_STEP_LIMIT),
    "sonar": (SONAR_TEXT, 40),
    "loop": (LOOP_TEXT, 16),
    "recursion": (RECURSION_TEXT, 24),
}


def _cycle_program(name):
    text, step_limit = CYCLE_PROGRAMS[name]
    program = generate_program(GenParams(3, 4)) if text is None else parse_program(text)
    cfg = HybridConfig(
        fuzz_budget=32, symex_limits=SymexLimits(300, 300), rng_seed=0, step_limit=step_limit
    )
    return program, cfg


# Every runner, and both campaigns called directly: name -> runner(program, cfg).
CYCLE_RUNNERS = {
    "fs": run_fs,
    "fs_tight": lambda p, cfg: run_fs(p, dataclasses.replace(
        cfg, fuzz_budget=0, per_target_query_budget=1, per_target_state_budget=1,
    )),
    "sf": lambda p, cfg: run_sf(p, dataclasses.replace(cfg, mode="sf")),
    "fuzz": orchestrator.run_fuzz,
    "symex": run_symex,
    "fuzz_campaign": lambda p, cfg: fuzzer.fuzz_campaign(
        p, list(cfg.seeds), orchestrator.fuzz_config(cfg)
    ),
    "symex_campaign": lambda p, cfg: symex.symex_campaign(
        p, Strategy.BASELINE, cfg.symex_limits, rng_seed=cfg.rng_seed,
        replay_step_limit=cfg.step_limit,
    ),
}


def _blocks_reaching_themselves(program):
    """Location ids of the blocks whose lowered code reaches itself through
    the code lists that its jumps, branches and calls hold."""
    codes = lowered_form(program)[0]
    ids = {id(code): i for i, code in enumerate(codes)}
    successors = [
        {ids[id(part)] for instr in code for part in instr if id(part) in ids}
        for code in codes
    ]
    cyclic = set()
    for start in range(len(codes)):
        seen, todo = set(), list(successors[start])
        while todo:
            i = todo.pop()
            if i not in seen:
                seen.add(i)
                todo.extend(successors[i])
        if start in seen:
            cyclic.add(start)
    return cyclic


class TestCycleFree:
    """Campaigns make no reference cycles while their program is alive.

    So reference counting frees everything a campaign drops, and pausing
    the cyclic collector during a campaign leaves no garbage behind.
    """

    @pytest.mark.parametrize("runner", sorted(CYCLE_RUNNERS))
    @pytest.mark.parametrize("name", sorted(CYCLE_PROGRAMS))
    def test_a_campaign_leaves_no_cyclic_garbage(self, name, runner):
        program, cfg = _cycle_program(name)
        gc.collect()
        result = CYCLE_RUNNERS[runner](program, cfg)
        assert gc.collect() == 0
        del result
        assert gc.collect() == 0

    @pytest.mark.parametrize("name, target, reached", [
        ("sonar", "goal", True),
        ("sonar", "ghost", False),
        ("b3d4", "n_40_40", True),
        ("loop", "f", True),
        ("recursion", "f", True),
    ])
    def test_a_sonar_run_leaves_no_cyclic_garbage(self, name, target, reached):
        program, cfg = _cycle_program(name)
        gc.collect()
        _, result = run_symex(program, cfg, Strategy.SONAR, target)
        assert result.target_reached is reached
        assert gc.collect() == 0

    def test_a_tight_fs_budget_fails_targets(self):
        program, cfg = _cycle_program("b3d4")
        report = CYCLE_RUNNERS["fs_tight"](program, cfg)
        assert report.coverage.functions < build_callgraph(program).reachable()

    @pytest.mark.parametrize("name", ["loop", "recursion", "sonar"])
    def test_only_the_collector_frees_a_cyclic_lowered_form(self, name):
        # The documented exception: a program with a loop or recursion has a
        # lowered form in which a block's code reaches itself, so once the
        # program dies only a collection frees it. A tree's does not.
        program, cfg = _cycle_program(name)
        tree, tree_cfg = _cycle_program("b3d4")
        CYCLE_RUNNERS["sf"](program, cfg)
        CYCLE_RUNNERS["sf"](tree, tree_cfg)
        assert _blocks_reaching_themselves(program)
        assert not _blocks_reaching_themselves(tree)
        gc.collect()
        del tree
        assert gc.collect() == 0
        del program
        assert gc.collect() > 0


class TestCollectorState:
    """Campaigns pause automatic collection and restore the caller's state."""

    RETURNING = [
        lambda p: run_fs(p, _fs_config(fuzz_budget=4)),
        lambda p: run_sf(p, _sf_config(fuzz_budget=4)),
        lambda p: run_baselines(p, _fs_config(fuzz_budget=4)),
        lambda p: run_symex(p, HybridConfig(), Strategy.SONAR, "n_1_1"),
        lambda p: fuzzer.fuzz_campaign(p, [(0,)], fuzzer.FuzzConfig(budget=4)),
        lambda p: symex.symex_campaign(p),
    ]
    RAISING = [
        lambda p: symex.symex_campaign(p, target="nowhere"),
        lambda p: fuzzer.fuzz_campaign(p, [(0,)], fuzzer.FuzzConfig(budget=-1)),
        lambda p: run_fs(p, _sf_config()),
    ]

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_the_callers_state_comes_back(self, enabled):
        program = generate_program(GenParams(2, 3))
        threshold = gc.get_threshold()
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            for runner in self.RETURNING:
                runner(program)
                assert gc.isenabled() is enabled
            for runner in self.RAISING:
                with pytest.raises(ValueError):
                    runner(program)
                assert gc.isenabled() is enabled
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert gc.get_threshold() == threshold

    def test_a_nested_campaign_leaves_the_collector_paused(self):
        program = generate_program(GenParams(2, 3))
        states = []

        def recording(*args):
            states.append(gc.isenabled())
            result = fuzzer.fuzz_campaign(*args)
            states.append(gc.isenabled())
            return result

        assert gc.isenabled()
        with patch.object(orchestrator, "fuzz_campaign", recording):
            run_sf(program, _sf_config(fuzz_budget=4))
        assert states == [False, False]
        assert gc.isenabled()

    @pytest.mark.parametrize("runner, params", [
        (lambda p: run_sf(p, HybridConfig(mode="sf", fuzz_budget=2000, rng_seed=0)), (3, 6)),
        (lambda p: run_fs(p, HybridConfig(fuzz_budget=96, rng_seed=0)), (2, 8)),
    ], ids=["sf-b3d6", "fs-b2d8"])
    def test_no_collection_runs_inside_a_campaign(self, runner, params):
        program = generate_program(GenParams(*params, 0))
        started, inside = [], []
        make_report = orchestrator.make_report

        def count(phase, info):  # a gc.callbacks entry
            if phase == "start":
                started.append(info["generation"])

        def last_step(*args):  # a runner's last step, still inside the campaign
            inside.append(len(started))
            return make_report(*args)

        gc.collect()
        gc.callbacks.append(count)
        try:
            with patch.object(orchestrator, "make_report", last_step):
                runner(program)
        finally:
            gc.callbacks.remove(count)
        assert inside == [0]

    @pytest.mark.parametrize("fn", [
        fuzzer.fuzz_campaign, symex.symex_campaign, run_fs, run_sf,
        orchestrator.run_fuzz, run_symex,
    ], ids=lambda fn: fn.__name__)
    def test_a_paused_function_keeps_its_name_doc_and_signature(self, fn):
        inner = fn.__wrapped__
        assert (fn.__name__, fn.__qualname__, fn.__module__) == (
            inner.__name__, inner.__qualname__, inner.__module__
        )
        assert getattr(importlib.import_module(fn.__module__), fn.__name__) is fn
        assert fn.__doc__ and fn.__doc__ == inner.__doc__
        assert inspect.signature(fn) == inspect.signature(inner)
        assert next(iter(inspect.signature(fn).parameters)) == "program"
