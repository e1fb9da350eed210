"""Symbolic execution over the mini IR.

It runs the lowered form that ``run_concrete`` runs
(``executor.lowered_form``) with symbolic operands, so each program's IR is
decoded once, for both interpreters. Its values, path conditions and
solver are ``solver``'s, which the stepper reaches through
``Solver.branch``, ``Solver.solve`` and ``Solver.root``.

A symbolic state is a fork and a side: the frontier holds handles
``(fork, side, seq)``, and a state's frames are built only when its slice
runs. Sonar search picks the handle nearest to its target function, by the
hop count at its side's location in the target's hop map, then fewer
charged queries, then admission order. Each sonar run computes its
target's map once (``ProgramIndex.distances``, one backward BFS over the
target's ancestors) and hands it to its ``SonarFrontier``: one heap on
those three keys, and a side list, in admission order, of the handles at
locations absent from the map, which cannot reach the target. They rank
at distance infinity, behind every other handle, so the side list moves
into the heap only when no finite-ranked handle is left; a run that
reaches its target before then never ranks them. Baseline search
picks uniformly from a list with an RNG seeded from ``rng_seed``, the
campaign's only RNG, which sonar search does not build. A campaign keeps
its own solver unless the caller passes one; FS shares one across all its
targeted runs.

A popped handle runs one slice: up to its next two-way fork, or to the end
of its path. With one solver, and so one trie, the side's node fixes the
slice, since the program and the solver's answers are deterministic. A
caller that shares a solver across campaigns may also pass a slice memo,
a dict that it creates and owns, keyed by node. FS passes one, alive only
during ``run_fs``; symbolic execution alone and SF pass none and record
nothing. The first run of a node's slice stores its branch solves, its
function entries with their nodes, and its fork: the forking frames and
each side's node, with the counters. A later pop of the node builds no
frames and replays those. It asks each solve again, which the result kept
on the solved node answers, and passes each entry to the emission logic,
which reads the live covered set and may end the campaign there. (Charging
a replayed solve as a cache hit without asking would be cheaper, but
``bench/run.py``'s traced check counts every cache hit as a
``Solver.solve`` call.) It then pushes the fork's handles with fresh
``seq`` numbers, in order. So results, queries and cache hits are those of
running the slice afresh. A slice cut short by reaching the target is not
stored.

Callers' stores are shared between states and copied on their first write
after a return. Of a fork's successors, the last to run takes over its
callers and running store, and the others copy them; with a memo, which
keeps the fork, every fresh run copies.

A test case is emitted whenever a state enters a function that neither
``already_covered`` (a set or frozenset is read in place, never written)
nor the campaign's earlier replays cover. Every emitted input vector is
validated by concrete replay, and only replay coverage is reported; it is
gathered in place and becomes one ``CoverageMap`` when the campaign ends.

``symex_campaign`` runs with the cyclic collector paused
(``ir._collector_paused``): it makes no reference cycles while its program
is alive, since trie nodes point only up and a handle's fork points at
frames, stores, nodes and the program's lowered blocks, none of which
points back.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Callable, Iterable

from .ir import ENTRY_FUNCTION, Program, _MutableRecord, _Record, _collector_paused
from .callgraph import index_program
from .executor import (
    OP_BINOP,
    OP_BRANCH,
    OP_CALL,
    OP_CONST,
    OP_INPUT,
    OP_JUMP,
    OP_PRINT,
    OP_RETURN,
    CoverageMap,
    DEFAULT_STEP_LIMIT,
    lowered_form,
    run_concrete,
)
from .solver import SAT, UNSAT, PathCondition, Solver, lin_const, lin_var, sym_binop

# Interpreter steps after which a symbolic state is dropped.
MAX_STEPS_PER_STATE = 100_000
# Input values one symbolic state may read before further reads are concrete 0.
DEFAULT_MAX_INPUTS = 4
_INF = float("inf")

# The value of a local that was never written, and of an input read past
# ``max_inputs``: one expression that every campaign shares.
_ZERO = lin_const(0)


# ---------------------------------------------------------------------------
# Frontier handles, search strategies and the stepper
# ---------------------------------------------------------------------------


class Strategy(Enum):
    BASELINE = "baseline"
    SONAR = "sonar"


def _resume(fork: list, kept: bool) -> tuple[list, dict]:
    """The callers and running store that a successor of ``fork`` starts
    from: the fork's last successor to run takes over its own, and the
    others copy them, as does every successor of a fork ``kept`` by a memo."""
    fork[7] -= 1
    if fork[7] or kept:
        return fork[0][:], dict(fork[1])
    return fork[0], fork[1]


class SonarFrontier:
    """Sonar's frontier: one heap of handles on ``(hops, queries_charged,
    seq)``: the hop count at the handle's side's location, the fork's charged
    queries, then admission order (unique per handle). A handle whose
    location is absent from the hop map cannot reach the target and ranks at
    infinity: it waits in a side list, in admission order, which moves into
    the heap only when the heap holds no finite-ranked handle, so the pop
    order is that of one heap holding every handle.
    """

    def __init__(self, hops: dict[int, int]) -> None:
        self._hops = hops
        self._heap: list[tuple[float, int, int, tuple]] = []
        self._stranded: list[tuple] = []

    def __bool__(self) -> bool:
        return bool(self._heap or self._stranded)

    def push(self, handle: tuple) -> None:
        fork, side, seq = handle
        hops = self._hops.get(fork[3][side][2])
        if hops is None:
            self._stranded.append(handle)
        else:
            heappush(self._heap, (hops, fork[5], seq, handle))

    def pop(self) -> tuple:
        heap = self._heap
        if self._stranded and (not heap or heap[0][0] == _INF):
            for handle in self._stranded:
                heappush(heap, (_INF, handle[0][5], handle[2], handle))
            self._stranded = []
        if not heap:
            raise ValueError("empty frontier")
        return heappop(heap)[3]


class _RandomFrontier:
    """Baseline's frontier: a seeded-uniform pick among the handles, kept in
    admission order."""

    def __init__(self, rng: random.Random) -> None:
        self._handles: list[tuple] = []
        self._rng = rng

    def __bool__(self) -> bool:
        return bool(self._handles)

    def push(self, handle: tuple) -> None:
        self._handles.append(handle)

    def pop(self) -> tuple:
        return self._handles.pop(self._rng.randrange(len(self._handles)))


def run_slice(
    fork: list, side: int, solver: Solver, max_inputs: int,
    on_entry: Callable[[str, PathCondition, int], None], events: list | None = None,
) -> list | None:
    """Run the successor of ``fork`` on ``side`` up to its next two-way
    fork and return that fork, or None where its path ends.

    It reads no campaign's state: ``solver`` decides each branch, the path
    reads at most ``max_inputs`` symbolic inputs, and each function entry
    calls ``on_entry(function, node, inputs_read)``, which may raise to end
    the slice. This is ``run_concrete``'s loop over the same lowered
    blocks, with symbolic values, the running frame, the node ``pc`` and
    the counters in locals; ``frames`` holds the callers, each ``(block,
    index of its next instruction, location id, store, ret_dest)``, where
    ``ret_dest`` is the caller's local that receives the return value. A
    fork is ``[callers, store, ret_dest, sides, inputs_read,
    queries_charged, steps, waiting]``, with each side's ``(node, block,
    location id)`` and the successors' counters (``waiting``: see
    ``_resume``). ``events``, when given, marks ``fork`` as kept by a slice
    memo and receives each branch solve as ``(None, node, inputs_read)``
    and each function entry as ``(function, node, inputs_read)``, in order.

    A store is ``owned`` until a return makes it a shared caller's.
    """
    frames, store = _resume(fork, events is not None)
    _, _, ret_dest, _, inputs_read, queries, steps, _ = fork
    pc, code, loc = fork[3][side]
    index, owned = 0, True
    zero = _ZERO
    while True:
        if steps >= MAX_STEPS_PER_STATE:
            return None
        steps += 1
        instr = code[index]
        index += 1
        op = instr[0]
        if op == OP_BRANCH:
            (_, compare, lhs, lhs_name, rhs, rhs_name,
             then, _, then_id, other, _, other_id, cmp) = instr
            lhs = store.get(lhs, zero) if lhs_name else lin_const(lhs)
            rhs = store.get(rhs, zero) if rhs_name else lin_const(rhs)
            nodes = solver.branch(pc, cmp, lhs, rhs)
            if nodes is None:
                # Two constants, or one expression on both sides: no
                # input changes the outcome, so no solve.
                if compare(lhs.const, rhs.const):
                    code, loc = then, then_id
                else:
                    code, loc = other, other_id
                index = 0
                continue

            feasible = []
            for succ in ((nodes[0], then, then_id), (nodes[1], other, other_id)):
                if events is not None:
                    events.append((None, succ[0], inputs_read))
                if solver.solve(succ[0], inputs_read).status != UNSAT:
                    feasible.append(succ)
            if not feasible:
                return None
            if len(feasible) == 1:
                pc, code, loc = feasible[0]
                index = 0
                queries += 1
                continue
            return [frames, store if owned else dict(store), ret_dest, feasible,
                    inputs_read, queries + 1, steps, 2]
        elif op == OP_CALL:
            _, callee, entry, _, callee_id, args, dest, _ = instr
            frames.append((code, index, loc, store, ret_dest))
            caller_store = store
            store, owned = {}, True
            for param, arg, name in args:
                store[param] = caller_store.get(arg, zero) if name else lin_const(arg)
            code, index, loc, ret_dest = entry, 0, callee_id, dest
            if events is not None:
                events.append((callee, pc, inputs_read))
            on_entry(callee, pc, inputs_read)
        elif op == OP_RETURN:
            if not frames:
                return None  # entry function returned
            dest = ret_dest
            code, index, loc, caller_store, ret_dest = frames.pop()
            if dest is not None:  # only a caller that stores it reads the value
                value = store.get(instr[1], zero) if instr[2] else lin_const(instr[1])
                store, owned = dict(caller_store), True
                store[dest] = value
            else:
                store, owned = caller_store, False
        elif op == OP_JUMP:
            code, loc = instr[1], instr[3]
            index = 0
        elif op != OP_PRINT:  # a print has no symbolic effect; it only takes its step
            # The rest write the store: copy a caller's on its first write.
            if not owned:
                store, owned = dict(store), True
            if op == OP_BINOP:
                _, dest, binop, lhs, lhs_name, rhs, rhs_name = instr
                value = sym_binop(
                    binop,
                    store.get(lhs, zero) if lhs_name else lin_const(lhs),
                    store.get(rhs, zero) if rhs_name else lin_const(rhs),
                )
                if value is None:
                    return None  # definite fault ends the path
                store[dest] = value
            elif op == OP_CONST:
                store[instr[1]] = lin_const(instr[2])
            elif op == OP_INPUT:
                if inputs_read < max_inputs:
                    store[instr[1]] = lin_var(inputs_read)
                    inputs_read += 1
                else:
                    store[instr[1]] = zero


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymexLimits:
    max_states: int = 10_000
    max_queries: int = 10_000


class TestCase(_Record):
    """An emitted input vector and the result of its concrete replay."""

    __slots__ = _fields = ("values", "replay")


class SymResult(_MutableRecord):
    __slots__ = _fields = ("test_cases", "coverage", "stats", "states_explored", "target_reached")
    _defaults = (False,)


class _TargetReached(Exception):
    pass


@_collector_paused
def symex_campaign(
    program: Program,
    search: Strategy = Strategy.BASELINE,
    limits: SymexLimits = SymexLimits(),
    max_inputs: int = DEFAULT_MAX_INPUTS,
    target: str | None = None,
    *,
    rng_seed: int = 0,
    solver: Solver | None = None,
    slices: dict | None = None,
    already_covered: Iterable[str] = (),
    replay_step_limit: int = DEFAULT_STEP_LIMIT,
) -> SymResult:
    """Explore the program symbolically, emitting replay-validated tests.

    ``already_covered`` suppresses test emission for functions some earlier
    phase has witnessed; the reported coverage contains only what this
    campaign's replays entered. ``slices`` is a slice memo (see the module
    docstring), valid only with the one ``solver`` it was filled with and
    for one program and ``max_inputs``. With a target, under either search,
    the campaign stops as soon as the target is entered and a test case for
    it was produced; sonar search requires one, and baseline search only
    stops there.
    Limit checks run between state slices. A slice charges two queries at
    every symbolic branch up to its next two-way fork, and one for each test
    it emits, so a tight query budget can be overshot by far more than one
    fork: a chain of 12 branches with one feasible side each charges 25
    queries under a budget of 8.
    """
    if limits.max_states <= 0 or limits.max_queries <= 0:
        raise ValueError("limits must be positive")
    if max_inputs < 0:
        raise ValueError("max_inputs must not be negative")
    if search is Strategy.SONAR and target is None:
        raise ValueError("sonar search requires a target")
    if target is not None and target not in program.functions:
        raise ValueError(f"unknown target '{target}'")

    solver = solver if solver is not None else Solver()
    stats_start = solver.stats.copy()
    index = index_program(program)
    depths = index.depths  # keyed by the reachable functions
    covered = already_covered  # read in place, never written
    if not isinstance(covered, (set, frozenset)):
        covered = set(covered)
    test_cases: list[TestCase] = []
    functions: set[str] = set()
    edge_bits: set[int] = set()
    target_reached = False
    # Reachable functions in neither ``covered`` nor ``functions``. When
    # ``covered`` names other functions too, the difference of lengths is
    # too low, so a count that reaches 0 is made again by a scan.
    uncovered = len(depths) - len(covered)

    def emit(pc: PathCondition, inputs_read: int) -> bool:
        nonlocal uncovered
        result = solver.solve(pc, inputs_read)
        if result.status != SAT:
            return False
        replay = run_concrete(program, result.model, replay_step_limit)
        test_cases.append(TestCase(result.model, replay))
        entered = replay.coverage.functions
        uncovered -= len(entered - functions - covered)
        functions.update(entered)
        edge_bits.update(replay.coverage.edge_bits)
        return True

    def on_entry(function: str, pc: PathCondition, inputs_read: int) -> None:
        if target is not None and function == target:
            if emit(pc, inputs_read):
                raise _TargetReached
        elif function not in covered and function not in functions:
            emit(pc, inputs_read)

    codes, entry_id, _, _ = lowered_form(program)
    if search is Strategy.SONAR:
        frontier: SonarFrontier | _RandomFrontier = SonarFrontier(index.distances(target))
    else:
        frontier = _RandomFrontier(random.Random(rng_seed))
    # The entry's handle: a fork of one side that nothing ran to.
    frontier.push(([[], {}, None, [(solver.root, codes[entry_id], entry_id)], 0, 0, 0, 1], 0, 0))
    seq = 0
    states_explored = 0

    try:
        on_entry(ENTRY_FUNCTION, solver.root, 0)
        while frontier:
            if states_explored >= limits.max_states:
                break
            if solver.stats.queries - stats_start.queries >= limits.max_queries:
                break
            if uncovered <= 0:
                uncovered = len(depths.keys() - functions - covered)
                if not uncovered:
                    break
            fork, side, _ = frontier.pop()
            states_explored += 1
            if slices is None:
                fork = run_slice(fork, side, solver, max_inputs, on_entry)
            else:
                node = fork[3][side][0]
                done = slices.get(node)  # (events, fork) of its first run
                if done is None:
                    events = []
                    fork = run_slice(fork, side, solver, max_inputs, on_entry, events)
                    slices[node] = (events, fork)
                else:
                    # A fresh run would make the same events: its solves
                    # are cache hits, and its entries emit as these do.
                    for function, pc, inputs_read in done[0]:
                        if function is None:
                            solver.solve(pc, inputs_read)
                        else:
                            on_entry(function, pc, inputs_read)
                    fork = done[1]
            if fork is not None:
                for side in range(len(fork[3])):
                    seq += 1
                    frontier.push((fork, side, seq))
    except _TargetReached:
        target_reached = True

    return SymResult(
        test_cases,
        CoverageMap(frozenset(functions), frozenset(edge_bits)),
        solver.stats.delta(stats_start),
        states_explored,
        target_reached,
    )
