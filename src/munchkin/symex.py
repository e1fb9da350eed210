"""Symbolic execution over the mini IR.

It runs the lowered form that ``run_concrete`` runs
(``executor.lowered_form``) with symbolic operands, so each program's IR is
decoded once, for both interpreters.

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

Sonar search picks the state nearest to its target function: the target's
distance field (from ``index_program``) is a hop list indexed by location
id, read at the state's top frame. A campaign keeps its own solver unless
the caller passes one; FS shares one across all its targeted runs.

A test case is emitted whenever a state enters a function not covered by
previously emitted test cases. Every emitted input vector is validated by
concrete replay, and only replay coverage is reported; it is gathered in
place and becomes one ``CoverageMap`` when the campaign ends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

from .ir import INT32_MAX, INT32_MIN, Program, apply_binop, apply_cmp, wrap32
from .callgraph import DistanceField, index_program
from .executor import (
    OP_BINOP,
    OP_BRANCH,
    OP_CALL,
    OP_CONST,
    OP_INPUT,
    OP_JUMP,
    OP_RETURN,
    CoverageMap,
    DEFAULT_STEP_LIMIT,
    InputVector,
    lowered_form,
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
    is_const = False  # so ``v.is_const`` tests any symbolic value

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
    if lhs.is_const and rhs.is_const:
        try:
            return lin_const(apply_binop(op, lhs.const, rhs.const))
        except ZeroDivisionError:
            return None
    if op in ("/", "%") and rhs.is_const and rhs.const == 0:
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


# (lowered block, index of its next instruction, the block's location id,
#  local store, the caller's local that receives the return value)
Frame = tuple[list[tuple], int, int, dict[str, SymValue], str | None]


@dataclass
class SymState:
    frames: list[Frame]
    pc: list[Constraint]
    inputs_read: int = 0
    queries_charged: int = 0
    steps: int = 0
    seq: int = 0


def _sonar_rank(state: SymState, df: DistanceField) -> tuple[float, int, int]:
    hops = df.hops[state.frames[-1][2]]
    return (_INF if hops < 0 else hops, state.queries_charged, state.seq)


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
    index = index_program(program)
    df = index.distances(target) if search is Strategy.SONAR else None
    reachable = index.reachable
    emitted_covered = set(already_covered)
    test_cases: list[TestCase] = []
    functions: set[str] = set()
    edge_bits: set[int] = set()
    target_reached = False

    def emit(state: SymState) -> bool:
        result = solver.solve(state.pc, state.inputs_read)
        if not result.is_sat:
            return False
        replay = run_concrete(program, result.model, replay_step_limit)
        test_cases.append(TestCase(result.model, replay.coverage.functions))
        emitted_covered.update(replay.coverage.functions)
        functions.update(replay.coverage.functions)
        edge_bits.update(replay.coverage.edge_bits)
        return True

    def on_entry(state: SymState, function: str) -> None:
        if target is not None and function == target:
            if emit(state):
                raise _TargetReached
        elif function not in emitted_covered:
            emit(state)

    codes, entry_id, _ = lowered_form(program)
    zero = lin_const(0)
    seq = 0
    initial = SymState([(codes[entry_id], 0, entry_id, {}, None)], [])
    frontier: list[SymState] = [initial]
    states_explored = 0

    def run_slice(state: SymState) -> list[SymState]:
        """Run a state up to its next two-way fork or its end; return its successors.

        This is ``run_concrete``'s loop over the same lowered blocks, with
        symbolic values. While it runs, the running frame lives in locals
        and ``state.frames`` holds its callers.
        """
        nonlocal seq
        frames = state.frames
        code, index, loc, store, ret_dest = frames.pop()
        while True:
            if state.steps >= MAX_STEPS_PER_STATE:
                return []
            state.steps += 1
            instr = code[index]
            index += 1
            op = instr[0]
            if op == OP_BRANCH:
                (_, compare, lhs, lhs_name, rhs, rhs_name,
                 then, _, then_id, other, _, other_id, cmp) = instr
                lhs = store.get(lhs, zero) if lhs_name else lin_const(lhs)
                rhs = store.get(rhs, zero) if rhs_name else lin_const(rhs)
                if lhs.is_const and rhs.is_const:
                    if compare(lhs.const, rhs.const):
                        code, loc = then, then_id
                    else:
                        code, loc = other, other_id
                    index = 0
                    continue

                then_c = Constraint(cmp, lhs, rhs)
                feasible = []
                for successor in (
                    (then_c, then, then_id),
                    (negate_constraint(then_c), other, other_id),
                ):
                    verdict = solver.solve(state.pc + [successor[0]], state.inputs_read)
                    if verdict.status != UNSAT:
                        feasible.append(successor)
                if not feasible:
                    return []
                if len(feasible) == 1:
                    constraint, code, loc = feasible[0]
                    index = 0
                    state.pc.append(constraint)
                    state.queries_charged += 1
                    continue
                children = []
                for constraint, target_code, target_id in feasible:
                    seq += 1
                    callers = [(c, i, l, dict(s), r) for c, i, l, s, r in frames]
                    children.append(SymState(
                        callers + [(target_code, 0, target_id, dict(store), ret_dest)],
                        state.pc + [constraint],
                        state.inputs_read,
                        state.queries_charged + 1,
                        state.steps,
                        seq,
                    ))
                return children
            elif op == OP_CALL:
                _, callee, entry, _, callee_id, args, dest, _ = instr
                frames.append((code, index, loc, store, ret_dest))
                caller_store = store
                store = {}
                for param, arg, name in args:
                    store[param] = caller_store.get(arg, zero) if name else lin_const(arg)
                code, index, loc, ret_dest = entry, 0, callee_id, dest
                on_entry(state, callee)
            elif op == OP_RETURN:
                value = store.get(instr[1], zero) if instr[2] else lin_const(instr[1])
                if not frames:
                    return []  # entry function returned
                dest = ret_dest
                code, index, loc, store, ret_dest = frames.pop()
                if dest is not None:
                    store[dest] = value
            elif op == OP_JUMP:
                code, loc = instr[1], instr[3]
                index = 0
            elif op == OP_BINOP:
                _, dest, binop, lhs, lhs_name, rhs, rhs_name = instr
                value = sym_binop(
                    binop,
                    store.get(lhs, zero) if lhs_name else lin_const(lhs),
                    store.get(rhs, zero) if rhs_name else lin_const(rhs),
                )
                if value is None:
                    return []  # definite fault ends the path
                store[dest] = value
            elif op == OP_CONST:
                store[instr[1]] = lin_const(instr[2])
            elif op == OP_INPUT:
                if state.inputs_read < max_inputs:
                    store[instr[1]] = lin_var(state.inputs_read)
                    state.inputs_read += 1
                else:
                    store[instr[1]] = zero
            # A print has no symbolic effect; it only takes its step.

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
        CoverageMap(frozenset(functions), frozenset(edge_bits)),
        solver.stats.delta(stats_start),
        states_explored,
        target_reached,
    )
