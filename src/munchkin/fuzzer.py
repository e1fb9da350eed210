"""Deterministic coverage-guided mutational fuzzer.

Single-threaded by contract: results depend only on (program, seeds,
config). Seeds run first, then each iteration picks a corpus entry
round-robin, stacks 1..HAVOC_STACKING integer-level mutations, executes,
and admits the mutant iff it sets an edge bit unseen so far. Budgets count
inputs evaluated, not wall-clock, so campaigns replay exactly.

The six mutation ops are bitflip, delta (1..35 either way, wrapping),
interesting (a value from ``INTERESTING``), duplicate, insert and delete;
duplicate and insert do nothing on an input of ``MAX_INPUT_LENGTH`` values
or more. Every draw comes straight from ``rng.getrandbits`` under
``randrange``'s rejection rule, so the mutants, and the RNG state after
each, are exactly those of drawing through ``randrange``, ``randint`` and
``choice``.

A run is a pure function of the values it reads (see ``executor``), so an
input whose consumed prefix (its first ``inputs_read`` values, padded with
zeros) already ran in this campaign can add no coverage, corpus entry or
witness. Such an input is not run again: it counts as an execution, and its
outcome, looked up, is recorded as a fault when the earlier run faulted.
For the same reason a seed that arrives with the result of its run under
the campaign's step limit (SF hands over its symex replays) is admitted
from that result, exactly as if the campaign had run it.

The campaign keeps its cumulative function and edge-bit sets as mutable
sets, updated in place when an execution adds to them, and builds the
result's ``CoverageMap`` once at the end.

A campaign's test suite is its corpus plus the first witness of each
covered function that the corpus lacks.

``fuzz_campaign`` runs with the cyclic collector paused
(``ir._collector_paused``): it makes no reference cycles, since corpus
entries, coverage maps and run results point at nothing that points back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .ir import INT32_MAX, INT32_MIN, Program, _MutableRecord, _Record, _collector_paused
from .executor import (
    CoverageMap,
    DEFAULT_STEP_LIMIT,
    InputVector,
    Outcome,
    RunResult,
    run_concrete,
)


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


# Op names in draw order: a draw of ``i`` applies ``MUTATION_OPS[i]``.
MUTATION_OPS = ("bitflip", "delta", "interesting", "duplicate", "insert", "delete")
_INTERESTING_BITS = len(INTERESTING).bit_length()


def mutate(
    values: InputVector, rng: random.Random, trace: list[str] | None = None
) -> InputVector:
    """Apply 1..HAVOC_STACKING stacked mutations; ``trace`` collects op names.

    Every draw below ``n`` takes ``n.bit_length()`` bits from
    ``rng.getrandbits`` and draws again while the value is ``>= n``, the rule
    ``random.Random`` follows for ``randrange(n)``, ``randint`` and
    ``choice``; the draws come in the order those calls made them.
    """
    getrandbits = rng.getrandbits
    out = list(values)
    n = len(out)
    stacked = getrandbits(3)  # randint(1, HAVOC_STACKING) - 1
    while stacked >= HAVOC_STACKING:
        stacked = getrandbits(3)
    for _ in range(stacked + 1):
        op = getrandbits(3)  # randrange(len(MUTATION_OPS))
        while op >= 6:
            op = getrandbits(3)
        if trace is not None:
            trace.append(MUTATION_OPS[op])
        if op == 4:  # insert: a position in 0..n, then any int32 value
            if n >= MAX_INPUT_LENGTH:
                continue
            k = (n + 1).bit_length()
            idx = getrandbits(k)
            while idx > n:
                idx = getrandbits(k)
            value = getrandbits(33)
            while value >= 1 << 32:
                value = getrandbits(33)
            out.insert(idx, value + INT32_MIN)
            n += 1
            continue
        if not n or op == 3 and n >= MAX_INPUT_LENGTH:
            continue
        if op == 2:  # interesting: the table value is drawn before the index
            value = getrandbits(_INTERESTING_BITS)
            while value >= len(INTERESTING):
                value = getrandbits(_INTERESTING_BITS)
        k = n.bit_length()
        idx = getrandbits(k)
        while idx >= n:
            idx = getrandbits(k)
        # ``ir.wrap32`` inlined: ``((v - INT32_MIN) & 0xFFFFFFFF) + INT32_MIN``.
        if op == 0:  # bitflip
            bit = getrandbits(6)
            while bit >= 32:
                bit = getrandbits(6)
            flipped = (out[idx] & 0xFFFFFFFF) ^ (1 << bit)
            out[idx] = (flipped - INT32_MIN & 0xFFFFFFFF) + INT32_MIN
        elif op == 1:  # delta: 1..35, negated when random() < 0.5
            delta = getrandbits(6)
            while delta >= 35:
                delta = getrandbits(6)
            delta += 1
            if rng.random() < 0.5:
                delta = -delta
            out[idx] = (out[idx] + delta - INT32_MIN & 0xFFFFFFFF) + INT32_MIN
        elif op == 2:
            out[idx] = INTERESTING[value]
        elif op == 3:  # duplicate
            out.insert(idx + 1, out[idx])
            n += 1
        else:  # delete
            del out[idx]
            n -= 1
    return tuple(out)


@_collector_paused
def fuzz_campaign(
    program: Program,
    seeds: list[InputVector],
    config: FuzzConfig,
    seed_runs: Sequence[RunResult] | None = None,
) -> FuzzResult:
    """Run a coverage-guided campaign; fully deterministic per config.

    ``seed_runs``, if given, holds for each seed the result of
    ``run_concrete(program, seed, config.step_limit)``; the seeds are then
    not run again, and the result is the one running them would give.
    """
    if config.budget < 0:
        raise ValueError("budget must be >= 0")
    if seed_runs is not None and len(seed_runs) != len(seeds):
        raise ValueError("seed_runs must hold one result per seed")
    rng = random.Random(config.rng_seed)
    seed_list = [tuple(s) for s in seeds] or [(0,)]

    corpus: list[CorpusEntry] = []
    functions: set[str] = set()
    edge_bits: set[int] = set()
    faults: list[tuple[InputVector, Outcome]] = []
    witnesses: dict[str, InputVector] = {}
    # Outcome of each consumed prefix that ran, and the prefix lengths seen.
    # The prefixes that ran form a prefix-free set (a run that read the
    # values of a shorter one would have stopped where it did), so at most
    # one length matches a new input.
    outcomes: dict[InputVector, Outcome] = {}
    lengths: list[int] = []

    def ran(values: InputVector) -> bool:
        """Whether the input's consumed prefix ran; if that faulted, so did this."""
        size = len(values)
        for n in lengths:
            outcome = outcomes.get(values[:n] if size >= n else values + (0,) * (n - size))
            if outcome is not None:
                if outcome is not Outcome.COMPLETED:
                    faults.append((values, outcome))
                return True
        return False

    def admit(values: InputVector, iteration: int, result: RunResult) -> None:
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

    step_limit = config.step_limit
    for iteration, (seed, run) in enumerate(zip(seed_list, seed_runs or [None] * len(seed_list))):
        if not ran(seed):
            if run is None:
                run = run_concrete(program, seed, step_limit)
            admit(seed, iteration, run)

    # The first seed always enters the corpus: the virtual start edge sets a
    # bit and the cumulative map begins empty.
    for round_num in range(config.budget):
        mutant = mutate(corpus[round_num % len(corpus)].values, rng)
        if not ran(mutant):
            admit(mutant, len(seed_list) + round_num, run_concrete(program, mutant, step_limit))

    # Every input counts as an execution, run or looked up.
    executions = len(seed_list) + config.budget
    cumulative = CoverageMap(frozenset(functions), frozenset(edge_bits))
    return FuzzResult(corpus, cumulative, executions, faults, witnesses)
