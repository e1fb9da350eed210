"""Solver, state selection, and symbolic campaigns."""

import gc
import hashlib
import json
import random
from collections import Counter, deque
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from munchkin import symex
from munchkin.callgraph import build_callgraph, index_program
from munchkin.executor import lowered_form, run_concrete
from munchkin.generator import GenParams, generate_program
from munchkin.ir import INT32_MAX, INT32_MIN, apply_cmp, parse_program, serialize_program
from munchkin.orchestrator import HybridConfig, run_fs, run_sf
from munchkin.symex import (
    Constraint,
    LinExpr,
    OPAQUE,
    SolveResult,
    Solver,
    SolverStats,
    SonarFrontier,
    Strategy,
    SymexLimits,
    _RandomFrontier,
    _combine,
    lin_const,
    lin_var,
    negate_constraint,
    sym_binop,
    symex_campaign,
)

from conftest import block_locations

X = lin_var(0)
Y = lin_var(1)


def c(cmp, lhs, rhs):
    return Constraint(cmp, lhs, rhs)


def _solve(solver, constraints, num_vars):
    """Solve a list of constraints as one path: ``solver.extend`` from the root."""
    node = solver.root
    for constraint in constraints:
        node = solver.extend(node, constraint)
    return solver.solve(node, num_vars)


class TestSymValues:
    def test_linear_arithmetic_stays_linear(self):
        expr = sym_binop("+", sym_binop("*", X, lin_const(3)), lin_const(5))
        assert expr.terms == ((0, 3),) and expr.const == 5
        assert expr.evaluate([2]) == 11

    def test_subtraction_cancels(self):
        assert sym_binop("-", X, X) == lin_const(0)

    def test_nonlinear_goes_opaque(self):
        assert sym_binop("*", X, X) is OPAQUE
        assert sym_binop("/", X, Y) is OPAQUE
        assert sym_binop("+", OPAQUE, lin_const(1)) is OPAQUE

    def test_constant_folding_with_fault(self):
        assert sym_binop("/", lin_const(7), lin_const(2)) == lin_const(3)
        assert sym_binop("/", X, lin_const(0)) is None
        assert sym_binop("%", lin_const(1), lin_const(0)) is None

    def test_negation_table(self):
        assert negate_constraint(c("<", X, Y)).cmp == ">="
        assert negate_constraint(c("==", X, Y)).cmp == "!="
        assert negate_constraint(negate_constraint(c("<=", X, Y))) == c("<=", X, Y)


class TestSolver:
    def test_empty_condition_yields_zero_model(self):
        assert _solve(Solver(), [], 1) == SolveResult("sat", (0,))

    def test_boxed_interval_returns_domain_minimum(self):
        result = _solve(
            Solver(),
            [c(">=", X, lin_const(0)), c("<=", X, lin_const(7)),
             c(">=", X, lin_const(4)), c("<=", X, lin_const(5))],
            1,
        )
        assert result.status == "sat" and result.model[0] in (4, 5)
        assert result.model == (4,)
        # Independent enumeration oracle over the outer box.
        feasible = [v for v in range(0, 8) if 4 <= v <= 5]
        assert result.model[0] in feasible

    def test_empty_interval_is_unsat(self):
        result = _solve(Solver(), [c("<", X, lin_const(0)), c(">", X, lin_const(0))], 1)
        assert result.status == "unsat"

    def test_disequality_edge_trim(self):
        result = _solve(
            Solver(),
            [c(">=", X, lin_const(0)), c("<=", X, lin_const(1)), c("!=", X, lin_const(0))],
            1,
        )
        assert result == SolveResult("sat", (1,))

    def test_two_variable_equality_found_by_enumeration(self):
        pc = [
            c(">=", X, lin_const(0)), c("<=", X, lin_const(10)),
            c(">=", Y, lin_const(0)), c("<=", Y, lin_const(10)),
            c("==", _combine(X, Y, 1), lin_const(10)),
        ]
        result = _solve(Solver(), pc, 2)
        assert result.status == "sat"
        assert result.model[0] + result.model[1] == 10

    def test_enumeration_cap_yields_unknown(self):
        result = _solve(Solver(), [c("==", _combine(X, Y, 1), lin_const(10**9))], 2)
        assert result.status == "unknown"

    def test_opaque_constraints_are_unknown(self):
        assert _solve(Solver(), [c("==", OPAQUE, lin_const(4))], 1).status == "unknown"

    def test_wrap_dependent_conditions_are_not_claimed_sat(self):
        # x + 1 < x holds only at INT32_MAX under wrap-around; exact
        # propagation cannot see that, and enumeration caps out: unknown.
        result = _solve(Solver(), [c("<", _combine(X, lin_const(1), 1), X)], 1)
        assert result.status == "unknown"

    def test_equal_sides_are_decided_like_constants(self):
        # x < x is false and x <= x true under every model, with no
        # enumeration; two opaque sides need not be equal values.
        assert c("<", X, X).is_const and not c("<", _combine(X, lin_const(1), 1), X).is_const
        assert not c("<", OPAQUE, OPAQUE).is_const
        solver = Solver()
        assert _solve(solver, [c("<", X, X)], 1).status == "unsat"
        assert _solve(solver, [c("<=", _combine(X, Y, 1), _combine(Y, X, 1))], 2).status == "sat"
        assert solver.stats.unknown == 0

    def test_wrap_only_paths_may_be_pruned(self):
        # Documented approximation: exact-arithmetic propagation prunes
        # conditions satisfiable only through overflow.
        pc = [c(">=", X, lin_const(1)), c("<=", _combine(X, lin_const(1), 1), lin_const(0))]
        assert _solve(Solver(), pc, 1).status == "unsat"

    def test_models_are_verified_against_wraparound(self):
        # Any returned model must satisfy the constraints under wrap32.
        solver = Solver()
        pc = [c(">=", X, lin_const(INT32_MAX - 1)), c("<=", X, lin_const(INT32_MAX))]
        result = _solve(solver, pc, 1)
        assert result.status == "sat" and result.model[0] >= INT32_MAX - 1

    def test_unused_variables_are_padded_with_zero(self):
        assert _solve(Solver(), [c("==", X, lin_const(3))], 3).model == (3, 0, 0)

    def test_query_accounting_and_cache(self):
        solver = Solver()
        _solve(solver, [c(">", X, lin_const(0))], 1)
        _solve(solver, [c(">", X, lin_const(0))], 1)  # cache hit
        _solve(solver, [c("<", X, lin_const(0)), c(">", X, lin_const(0))], 1)
        stats = solver.stats
        assert stats.queries == 2
        assert stats.cache_hits == 1
        assert stats.queries == stats.sat + stats.unsat + stats.unknown

    def test_constraint_order_does_not_defeat_the_cache(self):
        solver = Solver()
        a, b = c(">", X, lin_const(0)), c("<", X, lin_const(9))
        _solve(solver, [a, b], 1)
        _solve(solver, [b, a], 1)
        assert solver.stats.cache_hits == 1

    def test_an_equal_constraint_reaches_the_same_node(self):
        # Each sonar run builds its constraints anew on its way down from main.
        solver = Solver()
        first, again = c("<", lin_var(0), lin_const(3)), c("<", lin_var(0), lin_const(3))
        assert first is not again
        node = solver.extend(solver.root, first)
        assert solver.extend(solver.root, again) is node
        opaque = solver.extend(node, c("==", OPAQUE, Y))
        assert solver.extend(node, c("==", OPAQUE, lin_var(1))) is opaque
        assert solver.extend(node, c("!=", OPAQUE, Y)) is not opaque


Z = lin_var(2)


def _lin(const, *terms):
    """``const + sum(coeff * x_var)`` from (variable, coefficient) pairs."""
    return LinExpr(const, tuple(sorted(terms)))


def _pinned_chains():
    """(constraints, num_vars of each prefix) for ``TestPinnedSolver``."""
    k = lin_const
    diseq_chain = [c(">=", X, k(0)), c("<=", X, k(200))]
    # Descending order trims one value per round, so propagation hits the cap.
    diseq_chain += [c("!=", X, k(j)) for j in range(110, -1, -1)]
    diseq_chain += [c("<=", X, k(150)), c("!=", X, k(111)), c(">", X, k(140))]
    # Two trims in turn, each one value per round, in negative values, where
    # the candidate (the upper end) and enumeration (from the lower end)
    # differ: 60 rounds lower x's upper end, then y follows it down for 45
    # more, so the run from scratch stops at the cap although each step's
    # own propagation is short.
    relay = [c(">=", X, k(-200)), c("<=", X, k(0))]
    relay += [c("!=", X, k(-j)) for j in range(59, -1, -1)]
    relay += [c(">=", Y, k(-200)), c("<=", Y, X)]
    relay += [c("!=", Y, k(-j)) for j in range(104, 59, -1)]
    return [
        # Two-variable equality: the zero candidate fails, enumeration finds a model.
        ([c(">=", X, k(0)), c("<=", X, k(10)), c(">=", Y, k(0)), c("<=", Y, k(10)),
          c("==", _lin(0, (0, 1), (1, 1)), k(10)), c("!=", X, k(0))], [2] * 6),
        ([c("==", _lin(0, (0, 1), (1, 1)), k(3)), c("==", _lin(0, (0, 1), (1, -1)), k(1)),
          c(">=", X, k(-4)), c("<=", Y, k(4)), c(">=", Y, k(-4))], [2] * 5),
        # Disequality trims at both ends, down to an empty domain.
        ([c(">=", X, k(0)), c("<=", X, k(3)), c("!=", X, k(0)), c("!=", X, k(3)),
          c("!=", X, k(1)), c("!=", X, k(2)), c("<", X, k(2))], [1] * 7),
        # Opaque constraints decide the rest of the chain, ahead of false constants.
        ([c(">", X, k(0)), c("==", OPAQUE, k(4)), c("<", X, k(0)), c("<", k(2), k(1))],
         [1] * 4),
        ([c("<", k(2), k(1)), c(">", X, k(0)), c("==", k(4), OPAQUE)], [1] * 3),
        # True and false constants.
        ([c("<", k(1), k(2)), c("==", X, k(7)), c("!=", k(3), k(3)), c(">", X, k(0))],
         [1] * 4),
        # Candidates that pass only in exact arithmetic; models are checked under wrap32.
        ([c(">=", X, k(INT32_MAX - 1)), c(">", _lin(5, (0, 1)), k(0))], [1, 1]),
        ([c("<", _lin(1, (0, 1)), X)], [1]),
        ([c(">=", X, k(1)), c("<=", _lin(1, (0, 1)), k(0))], [1, 1]),
        ([c("!=", Z, k(0)), c("<=", X, k(5)), c("<", _lin(7, (0, 1), (1, -1)), k(2)),
          c("==", _lin(0, (1, 2)), k(42))], [3] * 4),
        # num_vars grows along the chain; unused variables are padded with zero.
        ([c("==", X, k(3)), c("<", Y, k(-2)), c(">=", _lin(0, (2, 3)), k(7)),
          c("<=", _lin(0, (0, 1), (2, 1)), k(9))], [1, 2, 3, 5]),
        # Multi-variable propagation that needs many rounds, with and without the cap.
        ([c(">=", X, k(0)), c("<=", X, k(60)), c(">=", Y, k(0)), c("<=", Y, k(60)),
          c("<", X, Y), c("<", Y, X)], [2] * 6),
        ([c(">=", X, k(0)), c("<=", X, k(300)), c(">=", Y, k(0)), c("<=", Y, k(300)),
          c("<", X, Y), c("<", Y, _lin(1, (0, 1))), c(">=", Y, k(250))], [2] * 7),
        (diseq_chain, [1] * len(diseq_chain)),
        (relay, [2] * len(relay)),
        # The same constraints in another order, and with a repeat.
        ([c(">", X, k(0)), c("<", X, k(9))], [1, 1]),
        ([c("<", X, k(9)), c(">", X, k(0)), c("<", X, k(9)), c("!=", X, k(1))], [1] * 4),
    ]


class TestPinnedSolver:
    """Verdicts, models and ``SolverStats`` of one solver over a fixed corpus.

    Each chain is solved prefix by prefix, as a symbolic state grows its
    path condition, through a single ``Solver``, so later chains meet
    cached keys. The digest was recorded before the solver became
    incremental.
    """

    DIGEST = "7de2bd11dc7704d57b1d805d6ceea9b7b50b883738e4a05636470046772ca219"

    def test_output_equals_the_recorded_one(self):
        solver = Solver()
        doc = [list(_solve(solver, [], 2).model)]
        for chain, num_vars in _pinned_chains():
            for i, n in enumerate(num_vars, 1):
                result = _solve(solver, chain[:i], n)
                doc.append([result.status, list(result.model) if result.model else None])
            stats = solver.stats
            doc.append([stats.queries, stats.sat, stats.unsat, stats.unknown, stats.cache_hits])
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == self.DIGEST


# ---------------------------------------------------------------------------
# Reference: the solver as it was before it became incremental. It solves
# every path condition from scratch and caches results by the sorted tuple of
# constraint keys. The caps are parameters so a property can lower them.
# ---------------------------------------------------------------------------


def _reference_key(pc):
    def expr_key(value):
        return ("opaque",) if value is OPAQUE else ("lin", value.const, value.terms)

    return tuple(sorted({(c.cmp, expr_key(c.lhs), expr_key(c.rhs)) for c in pc}))


def _reference_propagate(live, num_vars, rounds):
    """Each variable's ``[lo, hi]`` after propagating the non-constant
    linear constraints ``live`` from int32 domains for at most ``rounds``
    rounds, or None once a domain is empty."""
    ineqs, diseqs = [], []
    for c in live:
        coeffs = dict(c.lhs.terms)
        for var, coeff in c.rhs.terms:
            coeffs[var] = coeffs.get(var, 0) - coeff
        coeffs = {v: k for v, k in coeffs.items() if k != 0}
        const = c.lhs.const - c.rhs.const
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
    for _ in range(rounds):
        changed = False
        for coeffs, bound in ineqs:
            contrib = {v: min(k * domains[v][0], k * domains[v][1]) for v, k in coeffs.items()}
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
                    return None
        for coeffs, const in diseqs:
            if len(coeffs) != 1:
                continue
            (var, coeff), = coeffs.items()
            if (-const) % coeff == 0:
                excluded = (-const) // coeff
                lo, hi = domains[var]
                if lo == hi == excluded:
                    return None
                if excluded == lo:
                    domains[var][0] += 1
                    changed = True
                elif excluded == hi:
                    domains[var][1] -= 1
                    changed = True
        if not changed:
            break
    return domains


def _reference_solve(constraints, num_vars, rounds, cap):
    for c in constraints:
        if c.lhs is OPAQUE or c.rhs is OPAQUE:
            return SolveResult("unknown")

    # Equal sides (``x < x``) compare equal under every model, like constants.
    live = []
    for c in constraints:
        if c.lhs == c.rhs or (c.lhs.is_const and c.rhs.is_const):
            if not apply_cmp(c.cmp, c.lhs.const, c.rhs.const):
                return SolveResult("unsat")
        else:
            live.append(c)

    domains = _reference_propagate(live, num_vars, rounds)
    if domains is None:
        return SolveResult("unsat")

    def check_all(model):
        return all(
            apply_cmp(c.cmp, c.lhs.evaluate(model), c.rhs.evaluate(model)) for c in live
        )

    candidate = [lo if lo > 0 else hi if hi < 0 else 0 for lo, hi in domains]
    if check_all(candidate):
        return SolveResult("sat", tuple(candidate))

    used = sorted({v for c in live for side in (c.lhs, c.rhs) for v, _ in side.terms})
    space = 1
    for var in used:
        space *= domains[var][1] - domains[var][0] + 1
        if space > cap:
            break

    model = list(candidate)
    odometer = [domains[v][0] for v in used]
    tried = 0
    while tried < cap:
        for var, value in zip(used, odometer):
            model[var] = value
        tried += 1
        if check_all(model):
            return SolveResult("sat", tuple(model))
        pos = len(used) - 1
        while pos >= 0:
            odometer[pos] += 1
            if odometer[pos] <= domains[used[pos]][1]:
                break
            odometer[pos] = domains[used[pos]][0]
            pos -= 1
        if pos < 0:
            return SolveResult("unsat")
    return SolveResult("unknown") if space > cap else SolveResult("unsat")


class _ReferenceSolver:
    def __init__(self, rounds, cap):
        self.rounds, self.cap = rounds, cap
        self.stats = SolverStats()
        self._cache = {}

    def solve(self, pc, num_vars):
        key = (_reference_key(pc), num_vars)
        if key in self._cache:
            self.stats.cache_hits += 1
            return self._cache[key]
        result = self._cache[key] = _reference_solve(pc, num_vars, self.rounds, self.cap)
        self.stats.queries += 1
        setattr(self.stats, result.status, getattr(self.stats, result.status) + 1)
        return result


_COEFFS = st.sampled_from([-3, -2, -1, 1, 2, 3])
_CONSTS = st.one_of(st.integers(-12, 12), st.sampled_from([INT32_MIN, INT32_MAX - 2]))


@st.composite
def _linear(draw, num_vars):
    variables = draw(st.sets(st.integers(0, num_vars - 1), max_size=2))
    return LinExpr(draw(_CONSTS), tuple((v, draw(_COEFFS)) for v in sorted(variables)))


@st.composite
def _chains(draw):
    """(constraint, num_vars) steps; num_vars never shrinks and covers every variable."""
    steps = []
    num_vars = draw(st.integers(1, 2))
    for _ in range(draw(st.integers(1, 10))):
        num_vars = min(3, num_vars + draw(st.integers(0, 1)))
        cmp = draw(st.sampled_from(["<", "<=", "==", "!=", ">=", ">"]))
        kind = draw(st.sampled_from(["linear"] * 6 + ["opaque", "constant", "repeat"]))
        if kind == "repeat" and steps:
            constraint = draw(st.sampled_from(steps))[0]
        elif kind == "opaque":
            constraint = c(cmp, OPAQUE, draw(_linear(num_vars)))
        elif kind == "constant":
            constraint = c(cmp, lin_const(draw(_CONSTS)), lin_const(draw(_CONSTS)))
        else:
            constraint = c(cmp, draw(_linear(num_vars)), draw(_linear(num_vars)))
        steps.append((constraint, num_vars))
    return steps


class TestIncrementalSolving:
    """The solver's results and counts equal those of solving every path
    condition from scratch.

    Nodes of bound-only paths intersect intervals and nodes of general
    paths are propagated from scratch (``_extend_fixpoint``); a solve
    settles the nodes above it that no solve has asked for yet. The round
    cap is drawn as low as 1, so propagation on many general paths stops at
    it, and the enumeration cap is lowered to 2**10, so chains reach it in
    milliseconds; both caps are the reference's too.
    """

    @settings(max_examples=150, deadline=None)
    @given(
        first=_chains(),
        shared=st.integers(0, 10),
        second=_chains(),
        rounds=st.sampled_from([1, 2, 5, 100]),
    )
    def test_every_result_and_count_equals_the_reference(self, first, shared, second, rounds):
        cap = 1 << 10
        reference = _ReferenceSolver(rounds, cap)
        with patch.object(symex, "_PROPAGATION_ROUNDS", rounds), \
                patch.object(symex, "ENUMERATION_CAP", cap):
            solver = Solver()
            # The second chain walks down a prefix of the first, as a later
            # sonar run walks down from main, and then goes its own way.
            floor = max((n for _, n in first[:shared]), default=1)
            for chain in (first, first[:shared] + [(con, max(n, floor)) for con, n in second]):
                node, prefix = solver.root, []
                for constraint, num_vars in chain:
                    # run_slice's order: both successors, then the state's own
                    # path condition when it emits a test.
                    for side in (constraint, negate_constraint(constraint)):
                        got = solver.solve(solver.extend(node, side), num_vars)
                        assert got == reference.solve(prefix + [side], num_vars)
                    node, prefix = solver.extend(node, constraint), prefix + [constraint]
                    assert solver.solve(node, num_vars) == reference.solve(prefix, num_vars)
        assert solver.stats == reference.stats


_NEAR_LIMITS = st.one_of(
    st.integers(-4, 4),
    st.integers(INT32_MIN, INT32_MIN + 8),
    st.integers(INT32_MAX - 8, INT32_MAX),
)
_BOUND_COEFFS = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4])


@st.composite
def _fixpoint_constraints(draw):
    """One-variable bounds, among them a bare variable against a constant
    as on generated trees, bounds whose second variable cancels (``-3x - 3y
    < -3y``), constraints whose variables all cancel (``2x + 1 < 2x``), and
    constraints over up to three variables, in all six comparisons; now and
    then a constant or opaque one. Small constants make bounds meet each
    other and excluded values."""
    cmp = draw(st.sampled_from(["<", "<=", "==", "!=", ">=", ">"]))
    kind = draw(st.sampled_from(
        ["bound"] * 4 + ["plain"] * 2 + ["cancelling"] * 2 + ["linear"] * 2
        + ["vanishing", "constant", "opaque"]
    ))
    x = draw(st.integers(0, 2))
    if kind == "plain":
        sides = [lin_var(x), lin_const(draw(_NEAR_LIMITS))]
        return c(cmp, *(reversed(sides) if draw(st.booleans()) else sides))
    if kind == "linear":
        return c(cmp, draw(_linear(3)), draw(_linear(3)))
    if kind == "constant":
        return c(cmp, lin_const(draw(_NEAR_LIMITS)), lin_const(draw(_NEAR_LIMITS)))
    if kind == "opaque":
        return c(cmp, OPAQUE, draw(_linear(3)))
    if kind == "vanishing":
        k = draw(_BOUND_COEFFS)
        return c(cmp, _lin(draw(_NEAR_LIMITS), (x, k)), _lin(draw(_NEAR_LIMITS), (x, k)))
    if kind == "cancelling":
        y = draw(st.integers(0, 2).filter(lambda v: v != x))
        k = draw(_BOUND_COEFFS)
        lhs = _lin(draw(_NEAR_LIMITS), (x, draw(_BOUND_COEFFS)), (y, k))
        return c(cmp, lhs, _lin(draw(_NEAR_LIMITS), (y, k)))
    sides = [_lin(draw(_NEAR_LIMITS), (x, draw(_BOUND_COEFFS))), lin_const(draw(_NEAR_LIMITS))]
    if draw(st.booleans()):
        sides.reverse()
    return c(cmp, *sides)


def _is_general(constraint):
    """An inequality over two or more variables, or a disequality that
    excludes an integral value of one variable: what makes a path general."""
    coeffs = dict(constraint.lhs.terms)
    for var, coeff in constraint.rhs.terms:
        coeffs[var] = coeffs.get(var, 0) - coeff
    coeffs = [k for k in coeffs.values() if k != 0]
    if constraint.cmp != "!=":
        return len(coeffs) > 1
    return len(coeffs) == 1 and (constraint.rhs.const - constraint.lhs.const) % coeffs[0] == 0


class TestFixpoint:
    """Each node's fixpoint is that of propagating its whole path from
    scratch, and its ``checks`` are those of the path's non-constant
    constraints that are not implied, in path order."""

    @settings(max_examples=600, deadline=None)
    @given(
        path=st.lists(_fixpoint_constraints(), min_size=1, max_size=8),
        cap=st.sampled_from([1, 2, 5, 100]),
    )
    # The domain grows to the cancelled variable too; a disequality or a
    # two-variable inequality makes the rest of the path general; bound-only
    # paths equal propagation at the lowest caps; none of ``x < x``,
    # ``2x != 3`` and ``x != y`` makes a path general; ``2x > 0`` is not
    # implied, and the candidate 2**30, inside both intervals, fails it
    # under wrap-around.
    @example(path=[c(">=", X, lin_const(2**30)), c(">", _lin(0, (0, 2)), lin_const(0))], cap=100)
    @example(path=[c("<", _lin(0, (0, -3), (1, -3)), _lin(0, (1, -3)))], cap=100)
    @example(path=[c("!=", X, lin_const(5)), c(">=", X, lin_const(5))], cap=100)
    @example(path=[c("<", X, Y), c("<=", Y, lin_const(3))], cap=100)
    @example(path=[c("<", X, lin_const(3))], cap=2)
    @example(path=[c("<", X, lin_const(3))], cap=1)
    @example(path=[c(">=", X, lin_const(3)), c("<", X, X)], cap=100)
    @example(path=[c("!=", _lin(0, (0, 2)), lin_const(3)), c("<=", X, lin_const(1))], cap=100)
    @example(path=[c("!=", X, Y), c("<", Y, lin_const(0)), c(">", X, lin_const(-2))], cap=100)
    @example(
        path=[c(">", X, lin_const(2)), c("<=", Y, lin_const(7)),
              c("==", _lin(0, (0, 2)), lin_const(8)), c("<", Y, lin_const(-1))],
        cap=1,
    )
    def test_every_node_equals_propagation_from_scratch(self, path, cap):
        solver = Solver()
        node = solver.root
        with patch.object(symex, "_PROPAGATION_ROUNDS", cap):
            for end in range(1, len(path) + 1):
                prefix = path[:end]
                node = solver.extend(node, prefix[-1])
                got = symex._settle(node)
                live = [c for c in prefix if not c.is_const]
                if any(c.is_opaque for c in prefix):
                    assert got.verdict == "unknown"
                    continue
                domains = None
                if all(apply_cmp(c.cmp, c.lhs.const, c.rhs.const) for c in prefix if c.is_const):
                    domains = _reference_propagate(live, 3, cap)
                if domains is None:
                    assert got.verdict == "unsat"
                    continue
                assert got.verdict is None
                size = len(got.lo)
                assert [[lo, hi] for lo, hi in zip(got.lo, got.hi)] == domains[:size]
                assert all(d == [INT32_MIN, INT32_MAX] for d in domains[size:])
                assert got.general == any(_is_general(c) for c in live)
                assert got.checks == tuple(
                    c.normal.check for c in live if not c.normal.implied
                )
                candidate = list(map(symex._nearest_zero, got.lo, got.hi))
                assert got.candidate_ok == all(
                    apply_cmp(c.cmp, c.lhs.evaluate(candidate), c.rhs.evaluate(candidate))
                    for c in live
                )


_WIDE_COEFFS = st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4, -(2**30), 2**30])


@st.composite
def _one_variable_constraints(draw):
    """``k*x + a <cmp> b`` either way round, or ``k*x + a <cmp> j*x + b``,
    with constants near zero and the int32 limits. The variable side is
    ``x`` itself half the time, the shape a generated tree compares."""
    cmp = draw(st.sampled_from(["<", "<=", "==", "!=", ">=", ">"]))
    if draw(st.booleans()):
        side = X
    else:
        side = _lin(draw(_NEAR_LIMITS), (0, draw(_WIDE_COEFFS)))
    if draw(st.booleans()):
        other = lin_const(draw(_NEAR_LIMITS))
    else:
        other = _lin(draw(_NEAR_LIMITS), (0, draw(_WIDE_COEFFS)))
    return c(cmp, side, other) if draw(st.booleans()) else c(cmp, other, side)


class TestBranchNormalForms:
    """``run_slice`` normalises a branch's constraint and its negation in one
    call, and gets the normal forms of two separate calls."""

    @settings(max_examples=400, deadline=None)
    @given(constraint=_fixpoint_constraints().filter(lambda c: not c.is_opaque))
    def test_both_sides_equal_separate_calls(self, constraint):
        negation = negate_constraint(constraint)
        lhs, rhs = constraint.lhs, constraint.rhs
        assert symex._normalise((constraint.cmp, negation.cmp), lhs, rhs) == [
            symex._normalise((constraint.cmp,), lhs, rhs)[0],
            symex._normalise((negation.cmp,), lhs, rhs)[0],
        ]

    @pytest.mark.parametrize("name", ["b3d4", "opcodes"])
    def test_a_campaign_stores_the_separate_normal_forms(self, name, monkeypatch):
        if name == "opcodes":
            program, max_inputs = parse_program(PINNED_TEXT), 2
        else:
            program, max_inputs = generate_program(GenParams(3, 4)), 4
        calls = []
        normalise = symex._normalise

        def counting(cmps, lhs, rhs):
            calls.append(cmps)
            return normalise(cmps, lhs, rhs)

        monkeypatch.setattr(symex, "_normalise", counting)
        solver = Solver()
        symex_campaign(program, max_inputs=max_inputs, solver=solver)
        nodes = list(solver._children.values())
        branches = [cmps for cmps in calls if len(cmps) == 2]
        assert branches
        if name == "b3d4":  # every branch is new and normalised once, in one call
            assert calls == branches and 2 * len(branches) == len(nodes)
        for node in nodes:
            c = node.constraint
            if c._normal is not None:
                assert c._normal == normalise((c.cmp,), c.lhs, c.rhs)[0]


class TestImplied:
    """An implied constraint holds under wrap-around at every point of its
    interval, so a candidate inside the interval needs no check. The drawn
    constraints include sides that wrap (``2x``, ``-x``, ``x - 5``,
    ``2**30 * x``); the listed ones do at a point of their interval."""

    @settings(max_examples=500, deadline=None)
    @given(constraint=_one_variable_constraints(), data=st.data())
    def test_an_implied_constraint_holds_across_its_interval(self, constraint, data):
        if constraint.is_const or constraint.normal.interval is None:
            return
        normal = constraint.normal
        _, low, high = normal.interval
        if low > high:
            return
        for x in {low, high, data.draw(st.integers(low, high))}:
            if not symex._holds(normal.check, [x]):
                assert not normal.implied

    @pytest.mark.parametrize("constraint, x", [
        (c(">", _lin(0, (0, 2)), lin_const(0)), 2**30),
        (c("<", _lin(-5, (0, 1)), lin_const(0)), INT32_MIN),
        (c(">", _lin(0, (0, -1)), lin_const(0)), INT32_MIN),
        (c(">=", _lin(0, (0, 2**30)), lin_const(0)), 2),
        (c("<=", lin_const(INT32_MAX - 1), _lin(1, (0, 1))), INT32_MAX),
    ])
    def test_a_side_that_wraps_is_not_implied(self, constraint, x):
        normal = constraint.normal
        _, low, high = normal.interval
        assert low <= x <= high
        assert not symex._holds(normal.check, [x])
        assert not normal.implied

    @pytest.mark.parametrize("cmp", ["<", "<=", "==", ">=", ">"])
    @pytest.mark.parametrize("bound", [INT32_MIN, -3, 0, 5, INT32_MAX])
    def test_a_bare_variable_against_a_constant_is_implied(self, cmp, bound):
        assert c(cmp, X, lin_const(bound)).normal.implied
        assert c(cmp, lin_const(bound), X).normal.implied
        assert not c("!=", X, lin_const(bound)).normal.implied


GENERAL_TEXT = """\
program general

func main()
block entry:
  x = input
  y = input
  br < x y -> less, out
block less:
  s = x + y
  br > s 10 -> big, out
block big:
  call leaf()
  ret
block out:
  ret

func leaf()
block entry:
  ret
"""


class TestCandidateWork:
    """Calls of ``_holds``, ``_check_all`` and ``_live``. Generated trees
    compare a bare input with a constant at every branch, so every
    constraint is implied and no solve checks a model or walks its path;
    a program with two-variable inequalities still does both."""

    def _counted(self, run):
        counts = Counter()

        def counting(name):
            original = getattr(symex, name)

            def counted(*args):
                counts[name] += 1
                return original(*args)

            return counted

        with patch.object(symex, "_holds", counting("_holds")), \
                patch.object(symex, "_check_all", counting("_check_all")), \
                patch.object(symex, "_live", counting("_live")):
            result = run()
        return counts, result

    @pytest.mark.parametrize("mode", ["sf", "fs"])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_generated_trees_check_no_candidate(self, mode, seed):
        program = generate_program(GenParams(3, 4, seed))
        cfg = HybridConfig(mode=mode, fuzz_budget=96, rng_seed=seed)
        counts, report = self._counted(
            lambda: (run_sf if mode == "sf" else run_fs)(program, cfg)
        )
        assert report.solver_stats.queries > 0
        assert counts == {}

    def test_general_paths_still_check_their_candidates(self):
        counts, result = self._counted(lambda: symex_campaign(parse_program(GENERAL_TEXT)))
        assert result.coverage.functions == {"main", "leaf"}
        assert counts["_holds"] and counts["_check_all"] and counts["_live"]


def _handle(sides, queries=0, seq=0):
    """A frontier handle on side 0 of a fork whose successors start at
    ``sides``, ``(node, block, location id)`` each, and charged ``queries``."""
    return ([[], {}, None, list(sides), 0, queries, 0, len(sides)], 0, seq)


def _picks_are(picks, handles):
    """The frontier gave back the pushed handles themselves, in this order."""
    return len(picks) == len(handles) and all(a is b for a, b in zip(picks, handles))


class TestSelectNextState:
    def _side(self, program, function):
        """A side at the entry block of ``function``."""
        codes, _, _ = lowered_form(program)
        loc = index_program(program).entries[function]
        return (Solver().root, codes[loc], loc)

    def _state(self, program, function, seq):
        return _handle([self._side(program, function)], seq=seq)

    def _states(self, program, n):
        return [self._state(program, "main", i) for i in range(n)]

    def _sonar(self, program, target, states):
        return self._fill(SonarFrontier(index_program(program).distances(target)), states)

    def _random(self, seed, states):
        return self._fill(_RandomFrontier(random.Random(seed)), states)

    def _fill(self, frontier, states):
        for state in states:
            frontier.push(state)
        return frontier

    def _drain(self, frontier):
        picks = []
        while frontier:
            picks.append(frontier.pop())
        return picks

    def test_singleton_frontier(self, chain_program):
        states = self._states(chain_program, 1)
        for frontier in (self._random(0, states), self._sonar(chain_program, "g", states)):
            assert _picks_are(self._drain(frontier), states)

    def test_sonar_picks_smaller_distance(self, chain_program):
        # f's entry is 1 hop from g's, main's 2; the nearer state was admitted later.
        states = [self._state(chain_program, "main", 0), self._state(chain_program, "f", 1)]
        assert _picks_are(self._drain(self._sonar(chain_program, "g", states)), states[::-1])

    def test_sonar_ranks_a_handle_by_its_own_side(self, chain_program):
        # Two handles on one fork: the one on the nearer side comes out
        # first, though it was admitted later.
        sides = [self._side(chain_program, "main"), self._side(chain_program, "f")]
        first = _handle(sides, seq=1)
        fork = first[0]
        second = (fork, 1, 2)
        picks = self._drain(self._sonar(chain_program, "g", [first, second]))
        assert _picks_are(picks, [second, first])

    def test_sonar_ties_break_on_charged_queries_then_seq(self, chain_program):
        states = self._states(chain_program, 3)
        states[0][0][5] = 5  # the fork's charged queries
        states[1][0][5] = 2
        states[2][0][5] = 2
        picks = self._drain(self._sonar(chain_program, "g", states))
        assert _picks_are(picks, [states[1], states[2], states[0]])

    def test_baseline_is_reproducible(self, chain_program):
        states = self._states(chain_program, 5)
        picks_a = [seq for _, _, seq in self._drain(self._random(7, states))]
        picks_b = [seq for _, _, seq in self._drain(self._random(7, states))]
        assert picks_a == picks_b
        assert sorted(picks_a) == [0, 1, 2, 3, 4]  # a pick leaves the frontier

    def test_empty_frontier_rejected(self, chain_program):
        with pytest.raises(ValueError):
            _RandomFrontier(random.Random(0)).pop()
        with pytest.raises(ValueError, match="empty frontier"):
            self._sonar(chain_program, "g", []).pop()


CONSTANT_BRANCH_TEXT = """\
program p

func main()
block entry:
  x = const 5
  br < x 10 -> low, high
block low:
  print x
  ret
block high:
  ret
"""

OPAQUE_TEXT = """\
program p

func main()
block entry:
  x = input
  y = x * x
  br == y 4 -> hit, miss
block hit:
  call win(x)
  ret
block miss:
  ret

func win(v)
block entry:
  print v
  ret
"""

MULTI_INPUT_TEXT = """\
program p

func main()
block entry:
  a = input
  b = input
  c = input
  br == c 1 -> deep, out
block deep:
  call f()
  ret
block out:
  ret

func f()
block entry:
  ret
"""


EQUAL_SIDES_TEXT = """\
program same

func main()
block entry:
  x = input
  br < x x -> never, done
block never:
  call f()
  ret
block done:
  ret

func f()
block entry:
  ret
"""


# At each two-way fork the child on the then side writes a local that the
# other child reads without writing: in main's store, which is a caller's
# frame while ``pick`` forks, and in the running frame's store at the fork
# on ``b``. Sonar pops the writer first, as the two tie on distance and
# charged queries; a store the children shared would hide each target.
FORK_STORES_TEXT = """\
program forks

func main()
block entry:
  y = const 0
  r = call pick()
  br == r 1 -> mark, join
block mark:
  y = const 1
  jmp join
block join:
  br == y 0 -> reach, done
block reach:
  call caller_store()
  z = const 0
  b = input
  br < b 5 -> mark2, skip2
block mark2:
  z = const 1
  jmp join2
block skip2:
  jmp join2
block join2:
  br == z 0 -> reach2, done
block reach2:
  call top_store()
  ret
block done:
  ret

func pick()
block entry:
  a = input
  br < a 5 -> one, zero
block one:
  ret 1
block zero:
  jmp zero2
block zero2:
  ret 0

func caller_store()
block entry:
  ret

func top_store()
block entry:
  ret
"""


class TestCampaigns:
    def test_small_tree_reaches_full_coverage(self):
        program = generate_program(GenParams(2, 1))
        result = symex_campaign(program)
        assert result.coverage.functions == build_callgraph(program).reachable()

    def test_tree_depth_three_emits_every_leaf_input(self):
        program = generate_program(GenParams(2, 3))
        result = symex_campaign(program)
        assert len(result.coverage.functions) == 16
        leaves = {f"n_{v}_{v}" for v in range(8)}
        leaf_tests = [tc for tc in result.test_cases if tc.replay.coverage.functions & leaves]
        assert len(leaf_tests) >= 8
        # An empty vector reads as input 0 once exhausted.
        effective = {tc.values[0] if tc.values else 0 for tc in leaf_tests}
        assert effective == set(range(8))

    def test_emitted_tests_replay_to_their_covering_sets(self):
        program = generate_program(GenParams(3, 2))
        result = symex_campaign(program)
        for tc in result.test_cases:
            replay = run_concrete(program, tc.values)
            assert replay.coverage.functions == tc.replay.coverage.functions

    def test_sonar_on_already_entered_target_stops_immediately(self):
        program = generate_program(GenParams(2, 2))
        result = symex_campaign(program, Strategy.SONAR, target="main")
        assert result.target_reached
        assert result.states_explored == 0
        assert any("main" in tc.replay.coverage.functions for tc in result.test_cases)

    def test_sonar_charges_at_most_what_baseline_needs(self):
        # Fresh solvers both sides; baseline budget is grown until the
        # target is first covered, which bounds its first-cover cost.
        for b, d, target, seed in [(2, 3, "n_6_6", 13), (3, 2, "n_7_7", 1)]:
            program = generate_program(GenParams(b, d))
            sonar = symex_campaign(program, Strategy.SONAR, target=target)
            assert sonar.target_reached
            q_min = None
            for budget in range(1, 300):
                probe = symex_campaign(
                    program, limits=SymexLimits(10_000, budget), rng_seed=seed
                )
                if target in probe.coverage.functions:
                    q_min = budget
                    break
            assert q_min is not None
            assert sonar.stats.queries <= q_min

    def test_constant_branches_charge_no_queries(self):
        result = symex_campaign(parse_program(CONSTANT_BRANCH_TEXT))
        # The single query is the entry-event emission for main itself.
        assert result.stats.queries == 1
        assert result.stats.sat == 1

    def test_a_branch_on_equal_sides_follows_its_one_side(self):
        result = symex_campaign(parse_program(EQUAL_SIDES_TEXT))
        # Decided like a constant branch: the one query emits main's test.
        assert (result.stats.unsat, result.stats.unknown) == (0, 0)
        assert result.stats.queries == 1
        assert result.coverage.functions == {"main"}

    def test_opaque_branches_fork_both_and_stay_sound(self):
        result = symex_campaign(parse_program(OPAQUE_TEXT))
        assert result.stats.unknown > 0
        # No model can witness the opaque path, so coverage comes from
        # replays of what was emittable.
        assert result.coverage.functions == {"main"}
        for tc in result.test_cases:
            replay = run_concrete(parse_program(OPAQUE_TEXT), tc.values)
            assert replay.coverage.functions == tc.replay.coverage.functions

    @pytest.mark.parametrize("target", ["caller_store", "top_store"])
    def test_fork_children_keep_their_own_stores(self, target):
        program = parse_program(FORK_STORES_TEXT)
        result = symex_campaign(program, Strategy.SONAR, target=target)
        assert result.target_reached

    def test_no_path_condition_outlives_its_campaigns(self):
        # Nodes point only up and only the solver points down, so reference
        # counting alone frees a campaign's trie; a cycle would keep it.
        program = generate_program(GenParams(3, 5, 0))
        gc.collect()
        gc.disable()
        try:
            run_fs(program, HybridConfig(fuzz_budget=96))
            run_sf(program, HybridConfig(mode="sf", fuzz_budget=96))
            alive = [o for o in gc.get_objects() if isinstance(o, symex.PathCondition)]
        finally:
            gc.enable()
        assert not alive

    def test_max_inputs_caps_symbolic_variables(self):
        program = parse_program(MULTI_INPUT_TEXT)
        result = symex_campaign(program, max_inputs=2)
        # The third read is concrete 0, so the branch folds and f is
        # unreachable symbolically.
        assert "f" not in result.coverage.functions
        full = symex_campaign(program, max_inputs=4)
        assert "f" in full.coverage.functions

    def test_determinism(self):
        program = generate_program(GenParams(3, 2))
        first = symex_campaign(program, rng_seed=21)
        second = symex_campaign(program, rng_seed=21)
        assert first.test_cases == second.test_cases
        assert first.coverage == second.coverage
        assert first.stats == second.stats

    def test_limits_bound_the_run(self):
        program = generate_program(GenParams(4, 4))
        result = symex_campaign(program, limits=SymexLimits(10, 10_000))
        assert result.states_explored <= 10
        capped = symex_campaign(program, limits=SymexLimits(10_000, 20))
        assert capped.stats.queries <= 20 + 4  # slice may overshoot one fork

    def test_already_covered_suppresses_emission(self):
        program = generate_program(GenParams(2, 1))
        everything = build_callgraph(program).reachable()
        result = symex_campaign(program, already_covered=everything)
        assert result.test_cases == []
        assert result.coverage.functions == frozenset()

    @staticmethod
    def _tree_with_orphan():
        """A b2d3 tree and one function that nothing calls."""
        text = serialize_program(generate_program(GenParams(2, 3)))
        return parse_program(text + "\nfunc orphan()\nblock entry:\n  ret\n")

    @pytest.mark.parametrize("search, target", [
        (Strategy.BASELINE, None), (Strategy.SONAR, "n_6_7"),
    ])
    def test_already_covered_is_read_and_never_written(self, search, target):
        # The campaign's own emissions never reach the caller's collection,
        # and one that is not a set is read once, into a copy.
        program = self._tree_with_orphan()
        assert target is None or target in index_program(program).reachable
        given = ["main", "n_0_3", "n_0_1", "n_4_5"]
        reads = []

        class ReadCounting(list):
            def __iter__(self):
                reads.append(1)
                return super().__iter__()

        for covered in (set(given), frozenset(given), ReadCounting(given)):
            before = sorted(covered)
            reads.clear()
            result = symex_campaign(program, search, target=target, already_covered=covered)
            assert len(reads) == isinstance(covered, list)
            assert result.coverage.functions - set(given)  # it emitted others
            assert sorted(covered) == before

    @pytest.mark.parametrize("search, target", [
        (Strategy.BASELINE, None), (Strategy.SONAR, "n_5_5"),
    ])
    def test_a_list_a_set_and_a_frozenset_give_equal_results(self, search, target):
        program = self._tree_with_orphan()
        names = ["n_2_3", "main", "n_0_1", "n_2_3", "orphan", "ghost"]
        results = [
            symex_campaign(program, search, target=target, already_covered=covered)
            for covered in (names, names[::-1], set(names), frozenset(names))
        ]
        assert results[0].test_cases  # something was emitted
        assert all(result == results[0] for result in results[1:])

    @pytest.mark.parametrize("known", [(), ("main",), ("main", "n_0_3")])
    def test_other_names_as_many_as_the_reachable_do_not_end_the_campaign(self, known):
        # Unknown and unreachable names, padded so that the set is as large
        # as the reachable functions, cover nothing: the campaign runs as it
        # would without them.
        program = self._tree_with_orphan()
        reachable = index_program(program).reachable
        padding = [f"ghost_{k}" for k in range(len(reachable) - len(known) - 1)]
        covered = {*known, "orphan", *padding}
        assert len(covered) == len(reachable) and not reachable <= covered
        padded = symex_campaign(program, already_covered=covered)
        plain = symex_campaign(program, already_covered=set(known))
        assert padded == plain
        assert padded.coverage.functions | set(known) == reachable

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"search": Strategy.SONAR},
            {"target": "ghost"},
            {"limits": SymexLimits(0, 5)},
            {"limits": SymexLimits(5, 0)},
            {"max_inputs": -1},
        ],
    )
    def test_invalid_arguments(self, kwargs):
        program = generate_program(GenParams(2, 1))
        with pytest.raises(ValueError):
            symex_campaign(program, **kwargs)


PINNED_TEXT = """\
program opcodes

func main()
block entry:
  a = input
  b = input
  c = input
  k = const 7
  print k
  s = a + k
  d = s - b
  m = d * 3
  q = m / 2
  r = q % 5
  print r
  br == k 7 -> live, dead
block dead:
  ret
block live:
  br == c 0 -> body, rare
block rare:
  call sink()
  br > a 5 -> spin, out
block spin:
  j = call loop(20000)
  call after(j)
  br > b 3 -> spin2, out
block spin2:
  call loop(60000)
  call beyond()
  ret 1
block body:
  br < d 2 -> low, high
block low:
  v = call twice(b)
  br == v 42 -> win, sq
block win:
  call target(v)
  ret
block sq:
  y = call square(a)
  br == y 49 -> more, out
block more:
  call log(b)
  ret
block out:
  ret
block high:
  br > b 100 -> crash, out
block crash:
  z = b / 0
  print z
  ret

func square(x)
block entry:
  w = x * x
  ret w

func twice(x)
block entry:
  w = x + x
  ret w

func target(t)
block entry:
  print t
  ret

func log(t)
block entry:
  u = t % 3
  br != u 0 -> odd, even
block odd:
  ret u
block even:
  ret

func sink()
block entry:
  ret

func after(n)
block entry:
  ret

func beyond()
block entry:
  ret

func loop(limit)
block entry:
  i = const 0
  jmp head
block head:
  i = i + 1
  br < i limit -> head, done
block done:
  ret i
"""


class TestPinnedCampaigns:
    """``symex_campaign`` output on a program that runs every opcode.

    The program reads past ``max_inputs`` (2), prints, runs every binary
    operator, ends one path in a definite division fault, branches on an
    opaque ``x * x``, calls with and without a used return value, folds
    constant branches, and returns from a 20,000-iteration loop but not from
    a 60,000-iteration one, which ``MAX_STEPS_PER_STATE`` cuts. The digest was recorded before symbolic execution
    moved onto the interpreter's lowered form.
    """

    DIGEST = "2d0990c9c722f27ae069c8dfcafffd5a76dcc2ef18360816c29c543b9f688d6b"
    RUNS = [
        # (search, target, max_inputs, rng_seed, limits)
        ("baseline", None, 2, 0, SymexLimits()),
        ("baseline", None, 2, 5, SymexLimits()),
        ("baseline", None, 4, 0, SymexLimits()),
        ("baseline", None, 4, 0, SymexLimits(10_000, 3)),
        ("baseline", None, 4, 0, SymexLimits(4, 10_000)),
        ("sonar", "target", 2, 0, SymexLimits()),
        ("sonar", "log", 2, 0, SymexLimits()),
        ("sonar", "loop", 4, 0, SymexLimits()),
        ("sonar", "sink", 4, 0, SymexLimits()),
        ("sonar", "beyond", 4, 0, SymexLimits()),
    ]

    def test_output_equals_the_recorded_one(self):
        doc = []
        for search, target, max_inputs, seed, limits in self.RUNS:
            result = symex_campaign(
                parse_program(PINNED_TEXT), Strategy(search), limits, max_inputs, target,
                rng_seed=seed, replay_step_limit=100_000,
            )
            stats = result.stats
            doc.append([
                [
                    [list(tc.values), sorted(tc.replay.coverage.functions)]
                    for tc in result.test_cases
                ],
                sorted(result.coverage.functions), sorted(result.coverage.edge_bits),
                [stats.queries, stats.sat, stats.unsat, stats.unknown, stats.cache_hits],
                result.states_explored, result.target_reached,
            ])
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == self.DIGEST


SONAR_TEXT = """\
program sonar

func main()
block entry:
  a = input
  b = input
  c = input
  br < a 0 -> neg, nonneg
block neg:
  br > a 5 -> never, stranded
block never:
  call ghost()
  call goal(a)
  ret
block stranded:
  br == b 1 -> s1, s2
block s1:
  print b
  ret
block s2:
  br < c 3 -> s1, s3
block s3:
  ret
block nonneg:
  n = call count(b)
  call shared(n)
  br == c 9 -> viaf, out
block viaf:
  call f(c)
  ret
block out:
  ret

func count(limit)
block entry:
  i = const 0
  jmp head
block head:
  br < i limit -> body, done
block body:
  i = i + 1
  jmp head
block done:
  ret i

func shared(x)
block entry:
  br > x 2 -> big, small
block big:
  ret 1
block small:
  ret 0

func f(y)
block entry:
  call shared(y)
  br == y 9 -> hit, miss
block hit:
  call goal(y)
  ret
block miss:
  ret

func goal(z)
block entry:
  ret

func ghost()
block entry:
  ret
"""


class TestPinnedSonar:
    """Sonar ``symex_campaign`` output where distances and ties decide the order.

    ``count`` loops on a symbolic bound, so every iteration forks. ``shared``
    has two callers, so ``goal`` is nearest from ``main`` through a return
    edge into ``f``. ``ghost`` is reachable only on an infeasible branch:
    once that branch is pruned, every state left sits where ``ghost`` is
    unreachable, and sonar orders them by charged queries, then admission.
    The digest was re-recorded when return edges moved from call-site blocks
    to after-call points. Before, ``goal``'s return led back into
    ``never``, the block that calls ``ghost``, so states in ``f`` and its
    callees had finite distances to ``ghost``, and only the two ``ghost``
    runs came out different.
    """

    DIGEST = "9559e18191a9f6b062241bee298a72bb915dd1e4071805539d9e7fc9155d45a7"
    RUNS = [
        # (target, max_inputs, limits)
        ("goal", 3, SymexLimits()),
        ("goal", 3, SymexLimits(10_000, 4)),
        ("f", 3, SymexLimits()),
        ("shared", 3, SymexLimits()),
        ("ghost", 3, SymexLimits(10_000, 60)),
        ("ghost", 3, SymexLimits(40, 10_000)),
        ("count", 1, SymexLimits()),
    ]

    def test_output_equals_the_recorded_one(self):
        doc = []
        for target, max_inputs, limits in self.RUNS:
            result = symex_campaign(
                parse_program(SONAR_TEXT), Strategy.SONAR, limits, max_inputs, target,
                replay_step_limit=100_000,
            )
            stats = result.stats
            doc.append([
                [
                    [list(tc.values), sorted(tc.replay.coverage.functions)]
                    for tc in result.test_cases
                ],
                sorted(result.coverage.functions), sorted(result.coverage.edge_bits),
                [stats.queries, stats.sat, stats.unsat, stats.unknown, stats.cache_hits],
                result.states_explored, result.target_reached,
            ])
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == self.DIGEST


def _full_bfs(program, target):
    """Every location's hop count to ``target``'s entry, -1 where it cannot
    reach it, by one whole backward BFS: the reference for
    ``ProgramIndex.distances``."""
    index = index_program(program)
    hops = [-1] * len(index.predecessors)
    start = index.entries[target]
    hops[start] = 0
    queue = deque([start])
    while queue:
        loc = queue.popleft()
        for pred in index.predecessors[loc]:
            if hops[pred] < 0:
                hops[pred] = hops[loc] + 1
                queue.append(pred)
    return hops


def _scan_rank(handle, hops):
    """Sonar's rank of a handle over fully settled hops; the reference pick
    is the minimum over the whole frontier."""
    fork, side, seq = handle
    distance = hops[fork[3][side][2]]
    return (float("inf") if distance < 0 else distance, fork[5], seq)


# Programs for the frontier property: trees, and hand-written programs
# with loops, a function of two callers and locations that cannot reach
# some targets.
_FRONTIER_PROGRAMS = {
    "b2d2": lambda: generate_program(GenParams(2, 2, 0)),
    "b3d2": lambda: generate_program(GenParams(3, 2, 5)),
    "sonar": lambda: parse_program(SONAR_TEXT),
    "opcodes": lambda: parse_program(PINNED_TEXT),
}


class TestSonarFrontier:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(_FRONTIER_PROGRAMS)), st.data())
    def test_pops_equal_a_scan_over_the_full_bfs(self, name, data):
        program = _FRONTIER_PROGRAMS[name]()
        index = index_program(program)
        target = data.draw(st.sampled_from(sorted(program.functions)), label="target")
        full = _full_bfs(program, target)
        hops = index.distances(target)
        assert hops == full
        frontier = SonarFrontier(hops)
        oracle = []
        # A fork of one or two sides (their locations, charged queries),
        # whose handles are pushed in side order, or a pop (None).
        locations = st.integers(0, len(block_locations(program)) - 1)
        ops = data.draw(st.lists(
            st.one_of(
                st.tuples(st.lists(locations, min_size=1, max_size=2), st.integers(0, 4)),
                st.none(),
            ),
            max_size=60,
        ), label="ops")
        seq = 0
        for op in ops:
            if op is None:
                if not oracle:
                    assert not frontier
                    with pytest.raises(ValueError, match="empty frontier"):
                        frontier.pop()
                    continue
                want = min(range(len(oracle)), key=lambda i: _scan_rank(oracle[i], full))
                assert frontier.pop() is oracle.pop(want)
            else:
                locs, queries = op
                fork = _handle([(None, None, loc) for loc in locs], queries)[0]
                for side in range(len(locs)):
                    seq += 1
                    handle = (fork, side, seq)
                    frontier.push(handle)
                    oracle.append(handle)
            assert bool(frontier) == bool(oracle)

    def test_a_location_that_cannot_reach_the_target_has_no_distance(self):
        program = parse_program(SONAR_TEXT)
        index = index_program(program)
        hops = index.distances("goal")
        assert hops == _full_bfs(program, "goal")
        assert hops[block_locations(program).index(("main", "stranded"))] == -1
