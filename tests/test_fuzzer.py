"""Coverage-guided fuzzer: determinism, admission, mutation operators and stream."""

import contextlib
import hashlib
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from munchkin import executor, fuzzer
from munchkin.callgraph import index_program
from munchkin.executor import (
    CoverageMap,
    Outcome,
    run_concrete,
)
from munchkin.fuzzer import (
    CorpusEntry,
    FuzzConfig,
    FuzzResult,
    HAVOC_STACKING,
    INTERESTING,
    MAX_INPUT_LENGTH,
    MUTATION_OPS,
    fuzz_campaign,
    mutate,
)
from munchkin.generator import GenParams, generate_program, ground_truth_coverage
from munchkin.ir import INT32_MAX, INT32_MIN, parse_program, wrap32

DIV_TEXT = """\
program p

func main()
block entry:
  x = input
  y = 100 / x
  print y
  ret
"""


class TestCampaign:
    def test_zero_budget_runs_only_the_seeds(self):
        params = GenParams(2, 3)
        program = generate_program(params)
        result = fuzz_campaign(program, [(5,)], FuzzConfig(budget=0))
        assert result.cumulative.functions == ground_truth_coverage(params)[5]
        assert result.executions == 1

    def test_determinism(self):
        program = generate_program(GenParams(3, 2))
        cfg = FuzzConfig(rng_seed=11, budget=300)
        first = fuzz_campaign(program, [(0,)], cfg)
        second = fuzz_campaign(program, [(0,)], cfg)
        assert first.cumulative == second.cumulative
        assert [e.values for e in first.corpus] == [e.values for e in second.corpus]
        assert first.faults == second.faults

    def test_small_tree_fully_covered_within_budget(self):
        program = generate_program(GenParams(2, 1))
        result = fuzz_campaign(program, [(0,)], FuzzConfig(rng_seed=0, budget=10_000))
        assert result.cumulative.functions == index_program(program).reachable()

    def test_empty_seed_list_falls_back_to_zero(self):
        program = generate_program(GenParams(2, 1))
        result = fuzz_campaign(program, [], FuzzConfig(budget=0))
        assert result.executions == 1
        assert result.corpus[0].values == (0,)

    def test_corpus_admission_is_sound(self):
        # Replaying entries in order: each must set a bit unseen so far.
        program = generate_program(GenParams(2, 2))
        result = fuzz_campaign(program, [(0,)], FuzzConfig(rng_seed=3, budget=400))
        seen = set()
        for entry in result.corpus:
            replay = run_concrete(program, entry.values)
            assert replay.coverage.edge_bits - seen
            seen |= replay.coverage.edge_bits

    def test_cumulative_contains_every_corpus_entry(self):
        program = generate_program(GenParams(3, 2))
        result = fuzz_campaign(program, [(0,)], FuzzConfig(rng_seed=5, budget=200))
        for entry in result.corpus:
            assert entry.coverage.functions <= result.cumulative.functions
            assert entry.coverage.edge_bits <= result.cumulative.edge_bits

    def test_faults_are_collected(self):
        program = parse_program(DIV_TEXT)
        result = fuzz_campaign(program, [(7,)], FuzzConfig(rng_seed=1, budget=500))
        assert any(outcome is Outcome.ARITHMETIC_FAULT for _, outcome in result.faults)

    def test_function_witnesses_replay_to_their_function(self):
        program = generate_program(GenParams(2, 2))
        result = fuzz_campaign(program, [(0,)], FuzzConfig(rng_seed=2, budget=300))
        for function, values in result.function_witnesses.items():
            assert function in run_concrete(program, values).coverage.functions

    def test_test_suite_is_the_corpus_then_the_witnesses_it_lacks(self):
        # (3,) stands for an input an edge-hash collision kept out of the corpus.
        corpus = [CorpusEntry((1,), CoverageMap(), 0), CorpusEntry((2,), CoverageMap(), 4)]
        witnesses = {"main": (1,), "f": (3,), "g": (2,), "h": (3,)}
        result = FuzzResult(corpus, CoverageMap(), 5, [], witnesses)
        assert result.test_suite() == [(1,), (2,), (3,)]

    def test_test_suite_covers_the_campaign(self):
        program = generate_program(GenParams(2, 3))
        result = fuzz_campaign(program, [(0,)], FuzzConfig(rng_seed=4, budget=200))
        suite = result.test_suite()
        assert suite[: len(result.corpus)] == [entry.values for entry in result.corpus]
        assert len(set(suite)) == len(suite)
        covered = set()
        for values in suite:
            covered |= run_concrete(program, values).coverage.functions
        assert covered == result.cumulative.functions

    # sha256 of each campaign's whole output, computed on the fuzzer as it was
    # before it kept its coverage in place and before programs were lowered.
    @pytest.mark.parametrize(
        "program, budget, digest",
        [
            (
                generate_program(GenParams(2, 6)), 3000,
                "cebf0c14c647faa173ca8807f386f0a05a4aa3d387f975b3cb3f7b00962bbc31",
            ),
            (
                parse_program(DIV_TEXT), 300,
                "d76e92c39a6d5a6f06ae3fb2318582cba148b2533da4b013cd8ee8cf4541d623",
            ),
        ],
        ids=["b2d6", "faults"],
    )
    def test_output_equals_the_recorded_one(self, program, budget, digest):
        result = fuzz_campaign(program, [(0,)], FuzzConfig(rng_seed=0, budget=budget))
        doc = {
            "corpus": [
                [
                    list(e.values), e.discovery_iteration,
                    sorted(e.coverage.functions), sorted(e.coverage.edge_bits),
                ]
                for e in result.corpus
            ],
            "functions": sorted(result.cumulative.functions),
            "edges": sorted(result.cumulative.edge_bits),
            "executions": result.executions,
            "faults": [[list(v), o.value] for v, o in result.faults],
            "witnesses": [[name, list(v)] for name, v in result.function_witnesses.items()],
        }
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest

    def test_each_location_is_hashed_once_per_program(self, monkeypatch):
        # ``_lower`` hashes each of a program's locations once.
        lowered = []
        real = executor._lower

        def counting(program):
            lowered.append(program)
            return real(program)

        monkeypatch.setattr(executor, "_lower", counting)
        programs = [generate_program(GenParams(2, 4)), generate_program(GenParams(2, 3))]
        for program in programs:
            for seed in (0, 1):
                fuzz_campaign(program, [(0,)], FuzzConfig(rng_seed=seed, budget=499))
        assert len(lowered) == len(programs)
        assert all(a is b for a, b in zip(lowered, programs))

    def test_negative_budget_rejected(self):
        program = generate_program(GenParams(2, 1))
        with pytest.raises(ValueError):
            fuzz_campaign(program, [(0,)], FuzzConfig(budget=-1))

    def test_seed_runs_must_match_the_seeds(self):
        program = generate_program(GenParams(2, 1))
        run = run_concrete(program, (0,))
        with pytest.raises(ValueError, match="one result per seed"):
            fuzz_campaign(program, [(0,), (1,)], FuzzConfig(budget=0), [run])


def _reference_fuzz_campaign(program, seeds, config):
    """The fuzzer as it was before it skipped consumed prefixes that ran.

    Runs every input it evaluates. Returns the result and each evaluated
    input with the number of values its run read.
    """
    rng = random.Random(config.rng_seed)
    seed_list = [tuple(s) for s in seeds] or [(0,)]
    corpus, functions, edge_bits, faults, witnesses = [], set(), set(), [], {}
    evaluated = []

    def execute(values, iteration):
        result = run_concrete(program, values, config.step_limit)
        evaluated.append((values, result.inputs_read))
        coverage = result.coverage
        if not coverage.functions <= functions:
            for fn in sorted(coverage.functions - functions):
                witnesses[fn] = values
            functions.update(coverage.functions)
        if result.outcome is not Outcome.COMPLETED:
            faults.append((values, result.outcome))
        if not coverage.edge_bits <= edge_bits:
            corpus.append(CorpusEntry(values, coverage, iteration))
            edge_bits.update(coverage.edge_bits)

    iteration = 0
    for seed in seed_list:
        execute(seed, iteration)
        iteration += 1
    for round_num in range(config.budget):
        execute(mutate(corpus[round_num % len(corpus)].values, rng), iteration)
        iteration += 1

    cumulative = CoverageMap(frozenset(functions), frozenset(edge_bits))
    return FuzzResult(corpus, cumulative, len(evaluated), faults, witnesses), evaluated


def _consumed_prefix(values, inputs_read):
    return values[:inputs_read] + (0,) * (inputs_read - len(values))


@contextlib.contextmanager
def _fuzzer_runs():
    """The argument tuples of every ``run_concrete`` call the fuzzer makes."""
    runs = []

    def spy(*args):
        runs.append(args)
        return run_concrete(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fuzzer, "run_concrete", spy)
        yield runs


# Hand programs for the reference property: no read, two reads, a read loop
# that stops at a 0 (so read counts vary and reads pass the vector's end),
# a division by a read value, and a loop whose trip count is read.
_PREFIX_PROGRAMS = {
    "no-input": """\
program p

func main()
block entry:
  x = const 3
  call f(x)
  print x
  ret

func f(a)
block entry:
  ret
""",
    "two-inputs": """\
program p

func main()
block entry:
  a = input
  b = input
  br < a b -> lt, ge
block lt:
  call f()
  ret
block ge:
  br == a b -> eq, done
block eq:
  call g()
  ret
block done:
  ret

func f()
block entry:
  ret

func g()
block entry:
  ret
""",
    "read-until-zero": """\
program p

func main()
block entry:
  s = const 0
  jmp loop
block loop:
  v = input
  br == v 0 -> done, more
block more:
  s = s + v
  br > s 1000 -> big, loop
block big:
  call f(s)
  jmp loop
block done:
  print s
  ret

func f(a)
block entry:
  br < a 0 -> neg, pos
block neg:
  ret
block pos:
  ret
""",
    "divide": DIV_TEXT,
    "counted-loop": """\
program p

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
  call f()
  ret

func f()
block entry:
  ret
""",
}

_values = st.one_of(st.integers(-3, 3), st.integers(INT32_MIN, INT32_MAX))
_seed_vectors = st.one_of(
    st.just(()),
    st.lists(_values, min_size=1, max_size=3).map(tuple),
    st.lists(_values, min_size=4, max_size=MAX_INPUT_LENGTH).map(tuple),
)


class TestConsumedPrefixes:
    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(sorted(_PREFIX_PROGRAMS)),
        seeds=st.lists(_seed_vectors, max_size=4),
        rng_seed=st.integers(0, 2**16),
        budget=st.integers(0, 200),
        step_limit=st.integers(1, 300),
        handed=st.booleans(),
    )
    def test_campaign_equals_one_that_runs_every_input(
        self, name, seeds, rng_seed, budget, step_limit, handed
    ):
        program = parse_program(_PREFIX_PROGRAMS[name])
        config = FuzzConfig(rng_seed, budget, step_limit)
        expected, evaluated = _reference_fuzz_campaign(program, seeds, config)
        # Seeds may arrive with their runs, as SF hands over its replays.
        seed_runs = [run_concrete(program, s, step_limit) for s in seeds] if handed else None
        with _fuzzer_runs() as runs:
            result = fuzz_campaign(program, seeds, config, seed_runs)
        for field in FuzzResult._fields:
            assert getattr(result, field) == getattr(expected, field), field
        # Each distinct consumed prefix runs exactly once, a handed-over
        # seed's not at all.
        ran = {_consumed_prefix(v, n) for v, n in evaluated}
        ran -= {_consumed_prefix(s, r.inputs_read) for s, r in zip(seeds, seed_runs or ())}
        assert len(runs) == len(ran)

    def test_repeated_faults_are_each_recorded(self):
        program = parse_program(DIV_TEXT)
        with _fuzzer_runs() as runs:
            result = fuzz_campaign(program, [(0,), (0, 5), (), (0,)], FuzzConfig(budget=0))
        assert len(runs) == 1
        assert result.executions == 4
        assert result.faults == [
            (seed, Outcome.ARITHMETIC_FAULT) for seed in [(0,), (0, 5), (), (0,)]
        ]


class TestBenchHooks:
    """``bench/spans.py`` times a campaign's mutations and runs by rebinding
    ``fuzzer.mutate`` and ``fuzzer.run_concrete`` (the ``fuzzer.mutate`` and
    ``executor.run_concrete.fuzz`` spans), so the campaign must call both
    through those module globals: once per mutant, once per run."""

    _cases = {
        "b2d5": lambda: generate_program(GenParams(2, 5)),
        "read-until-zero": lambda: parse_program(_PREFIX_PROGRAMS["read-until-zero"]),
    }

    @pytest.mark.parametrize("name", sorted(_cases))
    @pytest.mark.parametrize("rng_seed", [0, 7])
    def test_mutate_is_called_once_per_mutant(self, monkeypatch, name, rng_seed):
        calls = []

        def spy(values, rng, trace=None):
            calls.append(values)
            return mutate(values, rng, trace)

        monkeypatch.setattr(fuzzer, "mutate", spy)
        program = self._cases[name]()
        result = fuzz_campaign(program, [(0,), (3, 1)], FuzzConfig(rng_seed, budget=700))
        assert len(calls) == 700
        assert result.executions == 702

    @pytest.mark.parametrize("name", sorted(_cases))
    @pytest.mark.parametrize("rng_seed", [0, 7])
    def test_run_concrete_is_called_once_per_distinct_consumed_prefix(self, name, rng_seed):
        program = self._cases[name]()
        config = FuzzConfig(rng_seed, budget=700)
        with _fuzzer_runs() as runs:
            fuzz_campaign(program, [(0,), (3, 1)], config)
        prefixes = {_consumed_prefix(args[1], run_concrete(*args).inputs_read) for args in runs}
        assert len(prefixes) == len(runs)
        _, evaluated = _reference_fuzz_campaign(program, [(0,), (3, 1)], config)
        assert prefixes == {_consumed_prefix(v, n) for v, n in evaluated}
        # Over a hundred inputs are looked up, and the hand program's runs
        # read several different numbers of values (a lookup tries more than
        # one length).
        assert len(runs) < 600
        if name == "read-until-zero":
            assert len({run_concrete(*args).inputs_read for args in runs}) > 2


def _single_op_mutants(values, name, seeds=3000):
    """Mutants of ``values`` whose trace is ``[name]`` alone, one per seed."""
    mutants = []
    for seed in range(seeds):
        trace = []
        mutant = mutate(values, random.Random(seed), trace=trace)
        if trace == [name]:
            mutants.append(mutant)
    assert mutants
    return mutants


def _changed_positions(values, mutant):
    assert len(mutant) == len(values)
    return [i for i, (old, new) in enumerate(zip(values, mutant)) if old != new]


class TestMutationOperators:
    def test_delete_on_empty_is_noop(self):
        # On an empty input only insert has a value to work from.
        for name in MUTATION_OPS:
            for mutant in _single_op_mutants((), name, seeds=500):
                if name == "insert":
                    assert len(mutant) == 1 and INT32_MIN <= mutant[0] <= INT32_MAX
                else:
                    assert mutant == ()

    def test_delta_adds_small_offset(self):
        values = (INT32_MAX, INT32_MIN, 0, 5)
        moves = set()
        for mutant in _single_op_mutants(values, "delta"):
            assert all(INT32_MIN <= v <= INT32_MAX for v in mutant)
            [idx] = _changed_positions(values, mutant)
            step = wrap32(mutant[idx] - values[idx])
            assert 1 <= abs(step) <= 35
            moves.add((idx, step > 0))
        # Both signs at every position, wrap-around at both ends included.
        assert moves == {(idx, up) for idx in range(4) for up in (False, True)}

    def test_bitflip_changes_exactly_one_bit(self):
        values = (INT32_MAX, INT32_MIN, -1, 0, 12345)
        bits = set()
        for mutant in _single_op_mutants(values, "bitflip"):
            assert all(INT32_MIN <= v <= INT32_MAX for v in mutant)
            [idx] = _changed_positions(values, mutant)
            flipped = (mutant[idx] ^ values[idx]) & 0xFFFFFFFF
            assert flipped & (flipped - 1) == 0
            bits.add(flipped.bit_length() - 1)
        assert 31 in bits and 0 in bits

    def test_interesting_replaces_with_table_value(self):
        values = (12, 20, 40)  # none of them in the table
        written = set()
        for mutant in _single_op_mutants(values, "interesting"):
            [idx] = _changed_positions(values, mutant)
            assert mutant[idx] in INTERESTING
            written.add(mutant[idx])
        assert {INT32_MIN, INT32_MAX} <= written

    def test_duplicate_and_delete_change_length(self):
        values = (1, 2, 3)
        duplicated = set()
        for mutant in _single_op_mutants(values, "duplicate"):
            [idx] = [i for i in range(3) if mutant == values[: i + 1] + values[i:]]
            duplicated.add(idx)
        deleted = set()
        for mutant in _single_op_mutants(values, "delete"):
            [idx] = [i for i in range(3) if mutant == values[:i] + values[i + 1:]]
            deleted.add(idx)
        assert duplicated == deleted == {0, 1, 2}

    def test_insert_adds_one_int32_value(self):
        values = (1, 2, 3)
        positions = set()
        for mutant in _single_op_mutants(values, "insert"):
            assert len(mutant) == 4
            at = [i for i in range(4) if mutant[:i] + mutant[i + 1:] == values]
            assert at and INT32_MIN <= mutant[at[0]] <= INT32_MAX
            positions.update(at)
        assert positions == {0, 1, 2, 3}

    def test_results_stay_in_int32_range(self):
        rng = random.Random(99)
        values = (INT32_MAX, INT32_MIN, 0)
        for _ in range(2000):
            values = mutate(values, rng)
            assert all(INT32_MIN <= v <= INT32_MAX for v in values)

    def test_interesting_table_contents(self):
        assert {0, 1, -1, INT32_MIN, INT32_MAX} <= set(INTERESTING)
        assert (1 << 10) - 1 in INTERESTING and (1 << 10) + 1 in INTERESTING

    def test_every_operator_class_appears_in_a_large_sample(self):
        rng = random.Random(42)
        seen: list[str] = []
        for _ in range(100_000):
            mutate((0,), rng, trace=seen)
        assert set(seen) == set(MUTATION_OPS)

    def test_chained_mutants_never_exceed_the_cap(self):
        rng = random.Random(5)
        values = tuple(range(MAX_INPUT_LENGTH))
        grown_at_cap = 0
        for _ in range(10_000):
            trace = []
            mutant = mutate(values, rng, trace=trace)
            assert len(mutant) <= MAX_INPUT_LENGTH
            if len(values) == MAX_INPUT_LENGTH and {"duplicate", "insert"} & set(trace):
                grown_at_cap += 1
            values = mutant
        assert grown_at_cap

    def test_a_seed_above_the_cap_is_never_lengthened(self):
        # Four stacked ops delete at most four values, so every op of every
        # mutant sees at least 96 values and duplicate and insert do nothing.
        rng = random.Random(6)
        values = tuple(range(100))
        grow_ops = 0
        for _ in range(2000):
            trace = []
            mutant = mutate(values, rng, trace=trace)
            assert len(mutant) == len(values) - trace.count("delete")
            grow_ops += trace.count("duplicate") + trace.count("insert")
        assert grow_ops


def _reference_mutate(values, rng, trace):
    """``mutate`` as a table of op functions drawing through ``randrange``,
    ``randint``, ``choice`` and ``random``."""

    def bitflip(values):
        if not values:
            return
        idx = rng.randrange(len(values))
        bit = rng.randrange(32)
        values[idx] = wrap32((values[idx] & 0xFFFFFFFF) ^ (1 << bit))

    def delta(values):
        if not values:
            return
        idx = rng.randrange(len(values))
        delta = rng.randint(1, 35)
        if rng.random() < 0.5:
            delta = -delta
        values[idx] = wrap32(values[idx] + delta)

    def interesting(values):
        if not values:
            return
        values[rng.randrange(len(values))] = rng.choice(INTERESTING)

    def duplicate(values):
        if not values or len(values) >= MAX_INPUT_LENGTH:
            return
        idx = rng.randrange(len(values))
        values.insert(idx + 1, values[idx])

    def insert(values):
        if len(values) >= MAX_INPUT_LENGTH:
            return
        values.insert(rng.randrange(len(values) + 1), rng.randint(INT32_MIN, INT32_MAX))

    def delete(values):
        if not values:
            return
        del values[rng.randrange(len(values))]

    ops = (bitflip, delta, interesting, duplicate, insert, delete)
    out = list(values)
    for _ in range(rng.randint(1, HAVOC_STACKING)):
        op = ops[rng.randrange(len(ops))]
        op(out)
        trace.append(op.__name__)
    return tuple(out)


_int32 = st.one_of(
    st.sampled_from([INT32_MIN, INT32_MIN + 1, -1, 0, 1, INT32_MAX - 1, INT32_MAX]),
    st.integers(INT32_MIN, INT32_MAX),
)


class TestMutateStream:
    @settings(max_examples=300, deadline=None)
    @given(
        rng_seed=st.integers(0, 2**64),
        values=st.lists(_int32, max_size=MAX_INPUT_LENGTH + 4).map(tuple),
        chain=st.integers(1, 50),
    )
    def test_mutants_equal_those_of_the_randrange_op_table(self, rng_seed, values, chain):
        rng, reference_rng = random.Random(rng_seed), random.Random(rng_seed)
        mutant = expected = values
        for _ in range(chain):
            trace, expected_trace = [], []
            mutant = mutate(mutant, rng, trace=trace)
            expected = _reference_mutate(expected, reference_rng, expected_trace)
            assert mutant == expected
            assert trace == expected_trace
            assert rng.getstate() == reference_rng.getstate()
