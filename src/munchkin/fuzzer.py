"""Deterministic coverage-guided mutational fuzzer.

Single-threaded by contract: results depend only on (program, seeds,
config). Seeds run first, then each iteration picks a corpus entry
round-robin, stacks 1..HAVOC_STACKING integer-level mutations, executes,
and admits the mutant iff it sets an edge bit unseen so far. Budgets count
inputs evaluated, not wall-clock, so campaigns replay exactly.

A run is a pure function of the values it reads (see ``executor``), so an
input whose consumed prefix (its first ``inputs_read`` values, padded with
zeros) already ran in this campaign can add no coverage, corpus entry or
witness. Such an input is not run again: it counts as an execution, and its
outcome, looked up, is recorded as a fault when the earlier run faulted.

The campaign keeps its cumulative function and edge-bit sets as mutable
sets, updated in place when an execution adds to them, and builds the
result's ``CoverageMap`` once at the end.

A campaign's test suite is its corpus plus the first witness of each
covered function that the corpus lacks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ir import INT32_MAX, INT32_MIN, Program, _MutableRecord, _Record, wrap32
from .executor import CoverageMap, DEFAULT_STEP_LIMIT, InputVector, Outcome, run_concrete


def _interesting_values() -> tuple[int, ...]:
    values = {0, 1, -1, INT32_MIN, INT32_MAX}
    for k in range(1, 31):
        values.add((1 << k) - 1)
        values.add((1 << k) + 1)
    return tuple(sorted(values))


INTERESTING = _interesting_values()
MAX_INPUT_LENGTH = 64
HAVOC_STACKING = 4


@dataclass(frozen=True)
class FuzzConfig:
    rng_seed: int = 0
    budget: int = 1000
    step_limit: int = DEFAULT_STEP_LIMIT


class CorpusEntry(_Record):
    __slots__ = _fields = ("values", "coverage", "discovery_iteration")

    def __init__(
        self, values: InputVector, coverage: CoverageMap, discovery_iteration: int
    ) -> None:
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "coverage", coverage)
        object.__setattr__(self, "discovery_iteration", discovery_iteration)


class FuzzResult(_MutableRecord):
    __slots__ = _fields = ("corpus", "cumulative", "executions", "faults", "function_witnesses")

    def __init__(
        self,
        corpus: list[CorpusEntry],
        cumulative: CoverageMap,
        executions: int,
        faults: list[tuple[InputVector, Outcome]],
        function_witnesses: dict[str, InputVector] | None = None,
    ) -> None:
        self.corpus = corpus
        self.cumulative = cumulative
        self.executions = executions
        self.faults = faults
        # First input observed entering each function; keeps a concrete witness
        # even when edge-hash collisions block corpus admission.
        self.function_witnesses = {} if function_witnesses is None else function_witnesses

    def test_suite(self) -> list[InputVector]:
        """Corpus inputs in admission order, then witnesses the corpus lacks.

        Corpus inputs are distinct: a repeated input sets no new edge bit.
        """
        corpus = [entry.values for entry in self.corpus]
        return list(dict.fromkeys(corpus + list(self.function_witnesses.values())))


def _op_bitflip(values: list[int], rng: random.Random) -> None:
    if not values:
        return
    idx = rng.randrange(len(values))
    bit = rng.randrange(32)
    values[idx] = wrap32((values[idx] & 0xFFFFFFFF) ^ (1 << bit))


def _op_delta(values: list[int], rng: random.Random) -> None:
    if not values:
        return
    idx = rng.randrange(len(values))
    delta = rng.randint(1, 35)
    if rng.random() < 0.5:
        delta = -delta
    values[idx] = wrap32(values[idx] + delta)


def _op_interesting(values: list[int], rng: random.Random) -> None:
    if not values:
        return
    values[rng.randrange(len(values))] = rng.choice(INTERESTING)


def _op_duplicate(values: list[int], rng: random.Random) -> None:
    if not values or len(values) >= MAX_INPUT_LENGTH:
        return
    idx = rng.randrange(len(values))
    values.insert(idx + 1, values[idx])


def _op_insert(values: list[int], rng: random.Random) -> None:
    if len(values) >= MAX_INPUT_LENGTH:
        return
    values.insert(rng.randrange(len(values) + 1), rng.randint(INT32_MIN, INT32_MAX))


def _op_delete(values: list[int], rng: random.Random) -> None:
    if not values:
        return
    del values[rng.randrange(len(values))]


MUTATION_OPS = (
    ("bitflip", _op_bitflip),
    ("delta", _op_delta),
    ("interesting", _op_interesting),
    ("duplicate", _op_duplicate),
    ("insert", _op_insert),
    ("delete", _op_delete),
)


def mutate(
    values: InputVector,
    rng: random.Random,
    stacking: int = HAVOC_STACKING,
    trace: list[str] | None = None,
) -> InputVector:
    """Apply 1..stacking stacked mutations; ``trace`` collects op names."""
    out = list(values)
    for _ in range(rng.randint(1, max(1, stacking))):
        name, op = MUTATION_OPS[rng.randrange(len(MUTATION_OPS))]
        op(out, rng)
        if trace is not None:
            trace.append(name)
    return tuple(out)


def fuzz_campaign(
    program: Program, seeds: list[InputVector], config: FuzzConfig
) -> FuzzResult:
    """Run a coverage-guided campaign; fully deterministic per config."""
    if config.budget < 0:
        raise ValueError("budget must be >= 0")
    rng = random.Random(config.rng_seed)
    seed_list = [tuple(s) for s in seeds] or [(0,)]

    corpus: list[CorpusEntry] = []
    functions: set[str] = set()
    edge_bits: set[int] = set()
    faults: list[tuple[InputVector, Outcome]] = []
    witnesses: dict[str, InputVector] = {}
    executions = 0
    # Outcome of each consumed prefix that ran, and the prefix lengths seen.
    # The prefixes that ran form a prefix-free set (a run that read the
    # values of a shorter one would have stopped where it did), so at most
    # one length matches a new input.
    outcomes: dict[InputVector, Outcome] = {}
    lengths: list[int] = []

    def execute(values: InputVector, iteration: int) -> None:
        nonlocal executions
        executions += 1
        for n in lengths:
            outcome = outcomes.get(values[:n] + (0,) * (n - len(values)))
            if outcome is not None:
                if outcome is not Outcome.COMPLETED:
                    faults.append((values, outcome))
                return
        result = run_concrete(program, values, config.step_limit)
        n = result.inputs_read
        if n not in lengths:
            lengths.append(n)
        outcomes[values[:n] + (0,) * (n - len(values))] = result.outcome
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

    # The first seed always enters the corpus: the virtual start edge sets a
    # bit and the cumulative map begins empty.
    for round_num in range(config.budget):
        parent = corpus[round_num % len(corpus)]
        mutant = mutate(parent.values, rng)
        execute(mutant, iteration)
        iteration += 1

    cumulative = CoverageMap(frozenset(functions), frozenset(edge_bits))
    return FuzzResult(corpus, cumulative, executions, faults, witnesses)
