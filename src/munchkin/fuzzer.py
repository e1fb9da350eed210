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
witness. Such an input is not run again: the loop looks its prefix up
inline, it counts as an execution, and it is recorded as a fault when the
earlier run faulted. For the same reason a seed that arrives with the
result of its run under the campaign's step limit (SF hands over its symex
replays) is admitted from that result, exactly as if the campaign had run it.

The campaign updates its function and edge-bit sets in place and builds the
result's ``CoverageMap`` once at the end. Its test suite is its corpus plus
the first witness of each covered function that the corpus lacks.

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
    _COMPLETED,
    run_concrete,
)


INTERESTING = tuple(sorted(
    {0, 1, -1, INT32_MIN, INT32_MAX} | {(1 << k) + d for k in range(1, 31) for d in (-1, 1)}
))
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

    A draw below ``n`` takes ``n.bit_length()`` bits from ``rng.getrandbits``
    and draws again while the value is ``>= n``, as ``randrange(n)``,
    ``randint`` and ``choice`` do, in the order those calls made them.
    """
    getrandbits = rng.getrandbits
    out = list(values)
    n = len(out)
    stacked = getrandbits(3)  # randint(1, HAVOC_STACKING) - 1
    while stacked >= 4:
        stacked = getrandbits(3)
    # 64 is MAX_INPUT_LENGTH; ``ir.wrap32(v)`` is ``(v + 0x80000000 & 0xFFFFFFFF) - 0x80000000``.
    while stacked >= 0:
        stacked -= 1
        op = getrandbits(3)  # randrange(len(MUTATION_OPS))
        while op >= 6:
            op = getrandbits(3)
        if trace is not None:
            trace.append(MUTATION_OPS[op])
        if op == 4:  # insert: a position in 0..n, then any int32 value
            if n >= 64:
                continue
            k = (n + 1).bit_length()
            idx = getrandbits(k)
            while idx > n:
                idx = getrandbits(k)
            value = getrandbits(33)
            while value >= 1 << 32:
                value = getrandbits(33)
            out.insert(idx, value - 0x80000000)
            n += 1
            continue
        if not n or op == 3 and n >= 64:
            continue
        if op == 2:  # interesting: the table value is drawn before the index
            value = getrandbits(_INTERESTING_BITS)
            while value >= len(INTERESTING):
                value = getrandbits(_INTERESTING_BITS)
        k = n.bit_length()
        idx = getrandbits(k)
        while idx >= n:
            idx = getrandbits(k)
        if op == 0:  # bitflip
            bit = getrandbits(6)
            while bit >= 32:
                bit = getrandbits(6)
            flipped = (out[idx] & 0xFFFFFFFF) ^ (1 << bit)
            out[idx] = (flipped + 0x80000000 & 0xFFFFFFFF) - 0x80000000
        elif op == 1:  # delta: 1 + d for d in 0..34, negated (~d) when random() < 0.5
            delta = getrandbits(6)
            while delta >= 35:
                delta = getrandbits(6)
            out[idx] = (out[idx] + (~delta if rng.random() < 0.5 else delta + 1)
                        + 0x80000000 & 0xFFFFFFFF) - 0x80000000
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
        if result.outcome is not _COMPLETED:
            faults.append((values, result.outcome))
        if not coverage.edge_bits <= edge_bits:
            corpus.append(CorpusEntry(values, coverage, iteration))
            edge_bits.update(coverage.edge_bits)

    # An input whose consumed prefix ran is looked up, and faults if that run did.
    step_limit, get, completed = config.step_limit, outcomes.get, _COMPLETED
    for iteration, (seed, run) in enumerate(zip(seed_list, seed_runs or [None] * len(seed_list))):
        size = len(seed)
        for n in lengths:
            outcome = get(seed[:n] if size >= n else seed + (0,) * (n - size))
            if outcome is not None:
                if outcome is not completed:
                    faults.append((seed, outcome))
                break
        else:
            admit(seed, iteration, run_concrete(program, seed, step_limit) if run is None else run)

    # The first seed always enters the corpus: the virtual start edge sets a
    # bit and the cumulative map begins empty.
    for round_num in range(config.budget):
        mutant = mutate(corpus[round_num % len(corpus)].values, rng)
        size = len(mutant)
        for n in lengths:
            outcome = get(mutant[:n] if size >= n else mutant + (0,) * (n - size))
            if outcome is not None:
                if outcome is not completed:
                    faults.append((mutant, outcome))
                break
        else:
            admit(mutant, len(seed_list) + round_num, run_concrete(program, mutant, step_limit))

    # Every input counts as an execution, run or looked up.
    executions = len(seed_list) + config.budget
    cumulative = CoverageMap(frozenset(functions), frozenset(edge_bits))
    return FuzzResult(corpus, cumulative, executions, faults, witnesses)
