"""Symbolic execution over the mini IR.

Values are linear expressions ``c0 + sum(ci * xi)`` over the symbolic
input variables (one fresh variable per ``input`` read, up to a cap), or
Opaque when a nonlinear operation mixes symbolic operands. States fork at
branches; each successor not decided by constant folding costs one
satisfiability check, and infeasible successors are discarded eagerly.
Unknown verdicts (opaque constraints or enumeration cap) fork both
successors, leaving validation to concrete replay.

The built-in solver does interval propagation over the linear int32
constraints plus a bounded enumeration fallback (cap 2**16 candidate
tuples). Propagation reasons in exact integer arithmetic, so paths that
are feasible only through int32 wrap-around may be pruned; every model it
does return is verified against wrap-around semantics by evaluation.
Results are cached by canonical path condition; cache hits are not
charged as queries.

Sonar search picks the state nearest to its target function, by the
target's distance field from the program's ``ProgramIndex``. A campaign
analyses the program itself unless the caller passes an index, and keeps
its own solver unless the caller passes one; FS passes both, shared across
all its targeted runs.

A test case is emitted whenever a state enters a function not covered by
previously emitted test cases. Every emitted input vector is validated by
concrete replay, and only replay coverage is reported.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

from .ir import (
    BinOp,
    Call,
    Const,
    INT32_MAX,
    INT32_MIN,
    Jump,
    Operand,
    Program,
    ReadInput,
    Return,
    apply_binop,
    apply_cmp,
    wrap32,
)
from .callgraph import DistanceField, ProgramIndex, index_program
from .executor import (
    CoverageMap,
    DEFAULT_STEP_LIMIT,
    EMPTY_COVERAGE,
    InputVector,
    merge_coverage,
    run_concrete,
)

ENUMERATION_CAP = 1 << 16
# Interpreter steps after which a symbolic state is dropped.
MAX_STEPS_PER_STATE = 100_000
# Input values one symbolic state may read before further reads are concrete 0.
DEFAULT_MAX_INPUTS = 4
_PROPAGATION_ROUNDS = 100
_INF = float("inf")


# ---------------------------------------------------------------------------
# Symbolic values
# ---------------------------------------------------------------------------


class Opaque:
    """Result of an operation the linear domain cannot represent."""

    _instance: "Opaque | None" = None

    def __new__(cls) -> "Opaque":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "opaque"


OPAQUE = Opaque()


@dataclass(frozen=True)
class LinExpr:
    """Linear int32 expression in canonical sorted-variable form."""

    const: int = 0
    terms: tuple[tuple[int, int], ...] = ()  # (variable index, coefficient)

    @property
    def is_const(self) -> bool:
        return not self.terms

    def evaluate(self, model: Sequence[int]) -> int:
        return wrap32(self.const + sum(coeff * model[var] for var, coeff in self.terms))


SymValue = LinExpr | Opaque


def lin_const(value: int) -> LinExpr:
    return LinExpr(wrap32(value), ())


def lin_var(index: int) -> LinExpr:
    return LinExpr(0, ((index, 1),))


def _combine(a: LinExpr, b: LinExpr, sign: int) -> LinExpr:
    coeffs = dict(a.terms)
    for var, coeff in b.terms:
        coeffs[var] = wrap32(coeffs.get(var, 0) + sign * coeff)
    terms = tuple((v, c) for v, c in sorted(coeffs.items()) if c != 0)
    return LinExpr(wrap32(a.const + sign * b.const), terms)


def _scale(a: LinExpr, k: int) -> LinExpr:
    terms = tuple((v, wrap32(c * k)) for v, c in a.terms if wrap32(c * k) != 0)
    return LinExpr(wrap32(a.const * k), terms)


def sym_binop(op: str, lhs: SymValue, rhs: SymValue) -> SymValue | None:
    """Symbolic arithmetic; None signals a definite arithmetic fault."""
    if isinstance(lhs, LinExpr) and lhs.is_const and isinstance(rhs, LinExpr) and rhs.is_const:
        try:
            return lin_const(apply_binop(op, lhs.const, rhs.const))
        except ZeroDivisionError:
            return None
    if op in ("/", "%") and isinstance(rhs, LinExpr) and rhs.is_const and rhs.const == 0:
        return None
    if isinstance(lhs, Opaque) or isinstance(rhs, Opaque):
        return OPAQUE
    if op == "+":
        return _combine(lhs, rhs, 1)
    if op == "-":
        return _combine(lhs, rhs, -1)
    if op == "*":
        if lhs.is_const:
            return _scale(rhs, lhs.const)
        if rhs.is_const:
            return _scale(lhs, rhs.const)
    return OPAQUE


# ---------------------------------------------------------------------------
# Constraints and path conditions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constraint:
    cmp: str
    lhs: SymValue
    rhs: SymValue


PathCondition = tuple[Constraint, ...]

_NEGATION = {"<": ">=", "<=": ">", "==": "!=", "!=": "==", ">=": "<", ">": "<="}


def negate_constraint(c: Constraint) -> Constraint:
    return Constraint(_NEGATION[c.cmp], c.lhs, c.rhs)


def _expr_key(value: SymValue):
    if isinstance(value, Opaque):
        return ("opaque",)
    return ("lin", value.const, value.terms)


def canonical_key(pc: Iterable[Constraint]) -> tuple:
    keys = {(c.cmp, _expr_key(c.lhs), _expr_key(c.rhs)) for c in pc}
    return tuple(sorted(keys))


def eval_constraint(c: Constraint, model: Sequence[int]) -> bool:
    assert isinstance(c.lhs, LinExpr) and isinstance(c.rhs, LinExpr)
    return apply_cmp(c.cmp, c.lhs.evaluate(model), c.rhs.evaluate(model))


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


@dataclass
class SolverStats:
    queries: int = 0
    sat: int = 0
    unsat: int = 0
    unknown: int = 0
    cache_hits: int = 0

    def copy(self) -> "SolverStats":
        return replace(self)

    def delta(self, earlier: "SolverStats") -> "SolverStats":
        return SolverStats(
            self.queries - earlier.queries,
            self.sat - earlier.sat,
            self.unsat - earlier.unsat,
            self.unknown - earlier.unknown,
            self.cache_hits - earlier.cache_hits,
        )


@dataclass(frozen=True)
class SolveResult:
    status: str  # "sat" | "unsat" | "unknown"
    model: InputVector | None = None

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


def _diff(lhs: LinExpr, rhs: LinExpr) -> tuple[dict[int, int], int]:
    """Exact-arithmetic lhs - rhs as (coefficients, constant)."""
    coeffs = dict(lhs.terms)
    for var, coeff in rhs.terms:
        coeffs[var] = coeffs.get(var, 0) - coeff
    return {v: c for v, c in coeffs.items() if c != 0}, lhs.const - rhs.const


def _nearest_zero(lo: int, hi: int) -> int:
    if lo > 0:
        return lo
    if hi < 0:
        return hi
    return 0


def _check_all(constraints: Sequence[Constraint], model: Sequence[int]) -> bool:
    return all(eval_constraint(c, model) for c in constraints)


def _solve_raw(constraints: Sequence[Constraint], num_vars: int) -> SolveResult:
    for c in constraints:
        if isinstance(c.lhs, Opaque) or isinstance(c.rhs, Opaque):
            return SolveResult(UNKNOWN)

    # Constant constraints are decided directly under wrap-around semantics.
    live: list[Constraint] = []
    for c in constraints:
        if c.lhs.is_const and c.rhs.is_const:
            if not apply_cmp(c.cmp, c.lhs.const, c.rhs.const):
                return SolveResult(UNSAT)
        else:
            live.append(c)

    # Normal form: sum(coeffs * x) <= bound, plus disequalities kept apart.
    ineqs: list[tuple[dict[int, int], int]] = []
    diseqs: list[tuple[dict[int, int], int]] = []
    for c in live:
        coeffs, const = _diff(c.lhs, c.rhs)
        neg = {v: -k for v, k in coeffs.items()}
        if c.cmp == "<":
            ineqs.append((coeffs, -const - 1))
        elif c.cmp == "<=":
            ineqs.append((coeffs, -const))
        elif c.cmp == ">":
            ineqs.append((neg, const - 1))
        elif c.cmp == ">=":
            ineqs.append((neg, const))
        elif c.cmp == "==":
            ineqs.append((coeffs, -const))
            ineqs.append((neg, const))
        else:
            diseqs.append((coeffs, const))

    domains = [[INT32_MIN, INT32_MAX] for _ in range(num_vars)]

    for _ in range(_PROPAGATION_ROUNDS):
        changed = False
        for coeffs, bound in ineqs:
            contrib = {
                v: min(k * domains[v][0], k * domains[v][1]) for v, k in coeffs.items()
            }
            total_min = sum(contrib.values())
            for var, coeff in coeffs.items():
                rest = bound - (total_min - contrib[var])
                lo, hi = domains[var]
                if coeff > 0:
                    new_hi = rest // coeff
                    if new_hi < hi:
                        domains[var][1] = hi = new_hi
                        changed = True
                else:
                    new_lo = -(rest // -coeff)
                    if new_lo > lo:
                        domains[var][0] = lo = new_lo
                        changed = True
                if lo > hi:
                    return SolveResult(UNSAT)
        for coeffs, const in diseqs:
            if len(coeffs) != 1:
                continue
            (var, coeff), = coeffs.items()
            if (-const) % coeff == 0:
                excluded = (-const) // coeff
                lo, hi = domains[var]
                if lo == hi == excluded:
                    return SolveResult(UNSAT)
                if excluded == lo:
                    domains[var][0] += 1
                    changed = True
                elif excluded == hi:
                    domains[var][1] -= 1
                    changed = True
        if not changed:
            break

    candidate = [_nearest_zero(lo, hi) for lo, hi in domains]
    if _check_all(live, candidate):
        return SolveResult(SAT, tuple(candidate))

    used = sorted({v for c in live for side in (c.lhs, c.rhs) for v, _ in side.terms})
    space = 1
    for var in used:
        space *= domains[var][1] - domains[var][0] + 1
        if space > ENUMERATION_CAP:
            break

    model = list(candidate)
    odometer = [domains[v][0] for v in used]
    tried = 0
    while tried < ENUMERATION_CAP:
        for var, value in zip(used, odometer):
            model[var] = value
        tried += 1
        if _check_all(live, model):
            return SolveResult(SAT, tuple(model))
        pos = len(used) - 1
        while pos >= 0:
            odometer[pos] += 1
            if odometer[pos] <= domains[used[pos]][1]:
                break
            odometer[pos] = domains[used[pos]][0]
            pos -= 1
        if pos < 0:
            return SolveResult(UNSAT)  # exhausted the finite domain product
    return SolveResult(UNKNOWN) if space > ENUMERATION_CAP else SolveResult(UNSAT)


class Solver:
    """Satisfiability checks with statistics and a canonical-PC cache."""

    def __init__(self) -> None:
        self.stats = SolverStats()
        self._cache: dict[tuple, SolveResult] = {}

    def solve(self, pc: Iterable[Constraint], num_vars: int) -> SolveResult:
        constraints = tuple(pc)
        key = (canonical_key(constraints), num_vars)
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        result = _solve_raw(constraints, num_vars)
        self.stats.queries += 1
        if result.status == SAT:
            self.stats.sat += 1
        elif result.status == UNSAT:
            self.stats.unsat += 1
        else:
            self.stats.unknown += 1
        self._cache[key] = result
        return result


# ---------------------------------------------------------------------------
# States and search strategies
# ---------------------------------------------------------------------------


class Strategy(Enum):
    BASELINE = "baseline"
    SONAR = "sonar"


@dataclass
class _Frame:
    function: str
    block: str
    index: int
    store: dict[str, SymValue]
    ret_dest: str | None

    def copy(self) -> "_Frame":
        return _Frame(self.function, self.block, self.index, dict(self.store), self.ret_dest)


@dataclass
class SymState:
    frames: list[_Frame]
    pc: list[Constraint]
    inputs_read: int = 0
    queries_charged: int = 0
    steps: int = 0
    seq: int = 0

    @property
    def location(self) -> tuple[str, str]:
        frame = self.frames[-1]
        return frame.function, frame.block

    def fork(self, seq: int) -> "SymState":
        return SymState(
            [f.copy() for f in self.frames],
            list(self.pc),
            self.inputs_read,
            self.queries_charged,
            self.steps,
            seq,
        )


def _sonar_rank(state: SymState, df: DistanceField) -> tuple[float, int, int]:
    dist = df.at(*state.location)
    return (_INF if dist is None else dist, state.queries_charged, state.seq)


def _select_index(
    frontier: Sequence[SymState],
    search: Strategy,
    df: DistanceField | None,
    rng: random.Random | None,
) -> int:
    if not frontier:
        raise ValueError("empty frontier")
    if search is Strategy.SONAR:
        if df is None:
            raise ValueError("sonar selection needs a distance field")
        return min(range(len(frontier)), key=lambda i: _sonar_rank(frontier[i], df))
    if rng is None:
        raise ValueError("baseline selection needs an rng")
    return rng.randrange(len(frontier))


def select_next_state(
    frontier: Sequence[SymState],
    search: Strategy,
    df: DistanceField | None = None,
    rng: random.Random | None = None,
) -> SymState:
    """Pick the next state: seeded-uniform for baseline, minimum distance
    for sonar with ties broken by fewer charged queries, then admission
    order."""
    return frontier[_select_index(frontier, search, df, rng)]


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymexLimits:
    max_states: int = 10_000
    max_queries: int = 10_000


@dataclass(frozen=True)
class TestCase:
    values: InputVector
    covering: frozenset[str]


@dataclass
class SymResult:
    test_cases: list[TestCase]
    coverage: CoverageMap
    stats: SolverStats
    states_explored: int
    target_reached: bool = False


class _TargetReached(Exception):
    pass


def symex_campaign(
    program: Program,
    search: Strategy = Strategy.BASELINE,
    limits: SymexLimits = SymexLimits(),
    max_inputs: int = DEFAULT_MAX_INPUTS,
    target: str | None = None,
    *,
    rng_seed: int = 0,
    solver: Solver | None = None,
    index: ProgramIndex | None = None,
    already_covered: Iterable[str] = (),
    replay_step_limit: int = DEFAULT_STEP_LIMIT,
) -> SymResult:
    """Explore the program symbolically, emitting replay-validated tests.

    ``already_covered`` suppresses test emission for functions some earlier
    phase has witnessed; the reported coverage contains only what this
    campaign's replays entered. With a sonar target the campaign stops as
    soon as the target is entered and a test case for it was produced.
    Limit checks run between state slices, so tight query budgets may be
    overshot by one fork.

    ``index`` supplies the reachable set and the sonar distance fields;
    without one the campaign analyses the program itself.
    """
    if limits.max_states <= 0 or limits.max_queries <= 0:
        raise ValueError("limits must be positive")
    if search is Strategy.SONAR and target is None:
        raise ValueError("sonar search requires a target")
    if target is not None and target not in program.functions:
        raise ValueError(f"unknown target '{target}'")

    solver = solver if solver is not None else Solver()
    stats_start = solver.stats.copy()
    rng = random.Random(rng_seed)
    if index is None:
        index = index_program(program)
    elif index.program is not program:
        raise ValueError("index was built for another program")
    df = index.distances(target) if search is Strategy.SONAR else None
    reachable = index.reachable
    emitted_covered = set(already_covered)
    test_cases: list[TestCase] = []
    coverage = EMPTY_COVERAGE
    target_reached = False

    def emit(state: SymState) -> bool:
        nonlocal coverage
        result = solver.solve(state.pc, state.inputs_read)
        if not result.is_sat:
            return False
        replay = run_concrete(program, result.model, replay_step_limit)
        test_cases.append(TestCase(result.model, replay.coverage.functions))
        emitted_covered.update(replay.coverage.functions)
        coverage = merge_coverage(coverage, replay.coverage)
        return True

    def on_entry(state: SymState, function: str) -> None:
        if target is not None and function == target:
            if emit(state):
                raise _TargetReached
        elif function not in emitted_covered:
            emit(state)

    def operand_value(frame: _Frame, op: Operand) -> SymValue:
        if isinstance(op, int):
            return lin_const(op)
        return frame.store.get(op, lin_const(0))

    seq = 0
    entry = program.functions[program.entry]
    initial = SymState([_Frame(program.entry, entry.entry_block, 0, {}, None)], [])
    frontier: list[SymState] = [initial]
    states_explored = 0

    def run_slice(state: SymState) -> list[SymState]:
        nonlocal seq
        while True:
            if state.steps >= MAX_STEPS_PER_STATE:
                return []
            frame = state.frames[-1]
            block = program.functions[frame.function].blocks[frame.block]

            if frame.index < len(block.instructions):
                instr = block.instructions[frame.index]
                frame.index += 1
                state.steps += 1
                if isinstance(instr, Const):
                    frame.store[instr.dest] = lin_const(instr.value)
                elif isinstance(instr, ReadInput):
                    if state.inputs_read < max_inputs:
                        frame.store[instr.dest] = lin_var(state.inputs_read)
                        state.inputs_read += 1
                    else:
                        frame.store[instr.dest] = lin_const(0)
                elif isinstance(instr, BinOp):
                    value = sym_binop(
                        instr.op,
                        operand_value(frame, instr.lhs),
                        operand_value(frame, instr.rhs),
                    )
                    if value is None:
                        return []  # definite fault ends the path
                    frame.store[instr.dest] = value
                elif isinstance(instr, Call):
                    callee = program.functions[instr.callee]
                    store = {
                        param: operand_value(frame, arg)
                        for param, arg in zip(callee.params, instr.args)
                    }
                    state.frames.append(
                        _Frame(instr.callee, callee.entry_block, 0, store, instr.dest)
                    )
                    on_entry(state, instr.callee)
                continue

            term = block.terminator
            state.steps += 1
            if isinstance(term, Jump):
                frame.block = term.target
                frame.index = 0
                continue
            if isinstance(term, Return):
                value = (
                    lin_const(0)
                    if term.value is None
                    else operand_value(frame, term.value)
                )
                finished = state.frames.pop()
                if not state.frames:
                    return []  # entry function returned
                if finished.ret_dest is not None:
                    state.frames[-1].store[finished.ret_dest] = value
                continue

            lhs = operand_value(frame, term.lhs)
            rhs = operand_value(frame, term.rhs)
            if (
                isinstance(lhs, LinExpr)
                and lhs.is_const
                and isinstance(rhs, LinExpr)
                and rhs.is_const
            ):
                taken = apply_cmp(term.cmp, lhs.const, rhs.const)
                frame.block = term.then_block if taken else term.else_block
                frame.index = 0
                continue

            then_c = Constraint(term.cmp, lhs, rhs)
            feasible = []
            for constraint, target_block in (
                (then_c, term.then_block),
                (negate_constraint(then_c), term.else_block),
            ):
                verdict = solver.solve(state.pc + [constraint], state.inputs_read)
                if verdict.status != UNSAT:
                    feasible.append((constraint, target_block))
            if not feasible:
                return []
            if len(feasible) == 1:
                constraint, target_block = feasible[0]
                state.pc.append(constraint)
                state.queries_charged += 1
                frame.block = target_block
                frame.index = 0
                continue
            children = []
            for constraint, target_block in feasible:
                seq += 1
                child = state.fork(seq)
                child.pc.append(constraint)
                child.queries_charged += 1
                child.frames[-1].block = target_block
                child.frames[-1].index = 0
                children.append(child)
            return children

    try:
        on_entry(initial, program.entry)
        while frontier:
            if states_explored >= limits.max_states:
                break
            if solver.stats.queries - stats_start.queries >= limits.max_queries:
                break
            if reachable <= emitted_covered:
                break
            state = frontier.pop(_select_index(frontier, search, df, rng))
            states_explored += 1
            frontier.extend(run_slice(state))
    except _TargetReached:
        target_reached = True

    return SymResult(
        test_cases,
        coverage,
        solver.stats.delta(stats_start),
        states_explored,
        target_reached,
    )
