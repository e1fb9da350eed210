"""Symbolic values, constraints, path conditions and the solver."""

import ast
import hashlib
import json
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from munchkin import solver as solver_module
from munchkin.generator import GenParams, generate_program
from munchkin.ir import INT32_MAX, INT32_MIN, _COMPARE, parse_program
from munchkin.orchestrator import HybridConfig, run_fs, run_sf
from munchkin.solver import (
    Constraint,
    LinExpr,
    OPAQUE,
    SolveResult,
    Solver,
    SolverStats,
    _combine,
    lin_const,
    lin_var,
    sym_binop,
)
from munchkin.symex import symex_campaign

from conftest import apply_cmp
from test_symex import PINNED_TEXT

X = lin_var(0)
Y = lin_var(1)


def c(cmp, lhs, rhs):
    return Constraint(cmp, lhs, rhs)


def negate(constraint):
    return c(solver_module._NEGATION[constraint.cmp], constraint.lhs, constraint.rhs)


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
        solver = Solver()
        for cmp, negation in [("<", ">="), ("<=", ">"), ("==", "!="), ("!=", "=="),
                              (">=", "<"), (">", "<=")]:
            then, other = solver.branch(solver.root, cmp, X, Y)
            assert then.constraint == c(cmp, X, Y) and other.constraint == c(negation, X, Y)


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

    def test_a_result_answers_its_own_node_only(self):
        # An equal path reaches the same node and hits; the same constraints
        # in another order are another node and a fresh query.
        solver = Solver()
        a, b = c(">", X, lin_const(0)), c("<", X, lin_const(9))
        first = _solve(solver, [a, b], 1)
        assert _solve(solver, [c(">", X, lin_const(0)), c("<", X, lin_const(9))], 1) is first
        assert solver.stats.cache_hits == 1 and solver.stats.queries == 1
        assert _solve(solver, [b, a], 1) == first
        assert solver.stats.cache_hits == 1 and solver.stats.queries == 2

    def test_each_num_vars_is_its_own_entry_on_a_node(self):
        solver = Solver()
        node = solver.extend(solver.root, c("==", X, lin_const(3)))
        results = [solver.solve(node, n) for n in (1, 3, 1, 2, 3, 2)]
        assert [r.model for r in results] == [(3,), (3, 0, 0), (3,), (3, 0), (3, 0, 0), (3, 0)]
        assert solver.stats.queries == 3 and solver.stats.cache_hits == 3

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
    path condition, through a single ``Solver``, so later chains meet the
    nodes of earlier ones. The digest was recorded before the solver became
    incremental, and re-recorded when results moved onto trie nodes: only
    the last count line moved, from 281 queries (262 sat) and 6 cache hits
    to 283 (264 sat) and 4, because the reordered chain no longer hits the
    entries of its first order.
    """

    DIGEST = "30130a853618e669875313910fd33c990e6ad9b08c230b5d2da7eae918d863b0"

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
# every path condition from scratch and caches results by the path, its
# constraints in order, which is what names a trie node. The caps are
# parameters so a property can lower them.
# ---------------------------------------------------------------------------


def _reference_key(pc):
    def expr_key(value):
        return ("opaque",) if value is OPAQUE else ("lin", value.const, value.terms)

    return tuple([(c.cmp, expr_key(c.lhs), expr_key(c.rhs)) for c in pc])


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


# ---------------------------------------------------------------------------
# Reference: the normaliser and the fixpoint step before bound-only branches
# got their own route, copied as they were. Every pair goes through the
# generic merge, and every node through every check in turn.
# ---------------------------------------------------------------------------


def _reference_normalise(cmps, lhs, rhs):
    const = lhs.const - rhs.const
    if not lhs.terms or not rhs.terms:
        terms = lhs.terms or tuple([(v, -k) for v, k in rhs.terms])
    else:
        coeffs = dict(lhs.terms)
        for var, coeff in rhs.terms:
            coeffs[var] = coeffs.get(var, 0) - coeff
        terms = tuple([(v, k) for v, k in coeffs.items() if k])
    variables = frozenset([v for v, _ in lhs.terms + rhs.terms])
    half = solver_module._HALF
    operands = (lhs.const + half, lhs.terms, rhs.const + half, rhs.terms)
    cannot_wrap = solver_module._cannot_wrap(lhs) and solver_module._cannot_wrap(rhs)
    normals = []
    for cmp in cmps:
        excluded = None
        if cmp == "<":
            ineqs = ((terms, -const - 1),)
        elif cmp == "<=":
            ineqs = ((terms, -const),)
        elif cmp == "!=":
            ineqs = ()
            if len(terms) == 1:
                (var, coeff), = terms
                if (-const) % coeff == 0:
                    excluded = (var, (-const) // coeff)
        else:
            neg = tuple([(v, -k) for v, k in terms])
            if cmp == ">":
                ineqs = ((neg, const - 1),)
            elif cmp == ">=":
                ineqs = ((neg, const),)
            else:
                ineqs = ((terms, -const), (neg, const))
        interval = None
        if len(terms) == 1 and ineqs:
            low, high = INT32_MIN, INT32_MAX
            for ((var, coeff),), bound in ineqs:
                if coeff > 0:
                    high = min(high, bound // coeff)
                else:
                    low = max(low, -(bound // -coeff))
            interval = (var, low, high)
        normals.append(solver_module._Normal(
            ineqs, excluded, variables, (_COMPARE[cmp], *operands), interval,
            interval is not None and cannot_wrap,
        ))
    return normals


def _reference_extend_fixpoint(parent, node):
    s = solver_module
    c = node.constraint
    if parent.verdict == "unknown" or c.is_opaque:
        return s._OPAQUE_PATH
    if parent.verdict == "unsat":
        return s._INFEASIBLE
    if c.is_const:
        return parent if _COMPARE[c.cmp](c.lhs.const, c.rhs.const) else s._INFEASIBLE

    normal = c.normal
    lo, hi, general = parent.lo, parent.hi, parent.general
    grow = max(normal.variables) + 1 - len(lo)
    if grow > 0:
        lo += (INT32_MIN,) * grow
        hi += (INT32_MAX,) * grow
    interval = normal.interval
    agrees = parent.candidate_ok
    if general or interval is None and (
        normal.excluded is not None or any(len(terms) > 1 for terms, _ in normal.ineqs)
    ):
        general = True
        path = s._live(node)
        ineqs = [i for live in path for i in live.ineqs]
        excluded = [live.excluded for live in path if live.excluded is not None]
        lo, hi = [INT32_MIN] * len(lo), [INT32_MAX] * len(hi)
        if not s._propagate(ineqs, excluded, lo, hi):
            return s._INFEASIBLE
        lo, hi = tuple(lo), tuple(hi)
        agrees = agrees and (
            s._candidate(lo, hi)[: len(parent.lo)] == s._candidate(parent.lo, parent.hi)
        )
    elif interval is not None:
        var, low, high = interval
        was_lo, was_hi = lo[var], hi[var]
        low, high = max(low, was_lo), min(high, was_hi)
        if low > high:
            return s._INFEASIBLE
        if var < len(parent.lo) and s._nearest_zero(low, high) != s._nearest_zero(was_lo, was_hi):
            agrees = False
        lo = (*lo[:var], low, *lo[var + 1:])
        hi = (*hi[:var], high, *hi[var + 1:])

    checks = parent.checks
    if normal.implied:
        candidate_ok = agrees or not checks or s._check_all(checks, s._candidate(lo, hi))
    else:
        checks += (normal.check,)
        candidate = s._candidate(lo, hi)
        if agrees:
            candidate_ok = s._holds(normal.check, candidate)
        else:
            candidate_ok = s._check_all(checks, candidate)
    return s._Fixpoint(None, lo, hi, candidate_ok, general, checks)


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
        with patch.object(solver_module, "_PROPAGATION_ROUNDS", rounds), \
                patch.object(solver_module, "ENUMERATION_CAP", cap):
            solver = Solver()
            # The second chain walks down a prefix of the first, as a later
            # sonar run walks down from main, and then goes its own way.
            floor = max((n for _, n in first[:shared]), default=1)
            for chain in (first, first[:shared] + [(con, max(n, floor)) for con, n in second]):
                node, prefix = solver.root, []
                for constraint, num_vars in chain:
                    # run_slice's order: both successors, then the state's own
                    # path condition when it emits a test.
                    for side in (constraint, negate(constraint)):
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
        with patch.object(solver_module, "_PROPAGATION_ROUNDS", cap):
            for end in range(1, len(path) + 1):
                prefix = path[:end]
                node = solver.extend(node, prefix[-1])
                got = solver_module._settle(node)
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
                candidate = list(map(solver_module._nearest_zero, got.lo, got.hi))
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
    """``Solver.branch`` normalises a branch's constraint and its negation in
    one call, and gets the normal forms of two separate calls of the
    reference normaliser."""

    @settings(max_examples=400, deadline=None)
    @given(constraint=_fixpoint_constraints().filter(lambda c: not c.is_opaque))
    def test_both_sides_equal_separate_calls(self, constraint):
        negation = negate(constraint)
        lhs, rhs = constraint.lhs, constraint.rhs
        assert solver_module._normalise((constraint.cmp, negation.cmp), lhs, rhs) == [
            _reference_normalise((constraint.cmp,), lhs, rhs)[0],
            _reference_normalise((negation.cmp,), lhs, rhs)[0],
        ]

    @pytest.mark.parametrize("name", ["b3d4", "opcodes"])
    def test_a_campaign_stores_the_separate_normal_forms(self, name, monkeypatch):
        if name == "opcodes":
            program, max_inputs = parse_program(PINNED_TEXT), 2
        else:
            program, max_inputs = generate_program(GenParams(3, 4)), 4
        calls = []
        normalise = solver_module._normalise

        def counting(cmps, lhs, rhs):
            calls.append(cmps)
            return normalise(cmps, lhs, rhs)

        monkeypatch.setattr(solver_module, "_normalise", counting)
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


_CMPS = ["<", "<=", "==", "!=", ">=", ">"]


@st.composite
def _one_term_pairs(draw):
    """``k*x + a`` against a constant, either way round, with ``k`` in
    [-4, 4] and constants near zero and the int32 limits; ``a`` is zero half
    the time, so the side is often ``x`` or ``kx``."""
    term = (draw(st.integers(0, 2)), draw(_BOUND_COEFFS))
    side = _lin(draw(st.one_of(st.just(0), _NEAR_LIMITS)), term)
    other = lin_const(draw(_NEAR_LIMITS))
    return (side, other) if draw(st.booleans()) else (other, side)


@st.composite
def _bound_only_branches(draw):
    """Branches one below the other, as a generated tree's stepper makes
    them: ``(cmp, lhs, rhs, side taken, num_vars)``. Mostly a bare input
    against a constant, now and then ``k*x + a`` against one (not implied,
    and it may wrap), either way round, in all six comparisons. ``num_vars``
    never shrinks and covers every variable. Taking an ``!=`` side that
    excludes a value makes the rest of the path general."""
    steps, num_vars = [], 1
    for _ in range(draw(st.integers(1, 12))):
        var = draw(st.integers(0, 2))
        num_vars = max(min(4, num_vars + draw(st.integers(0, 1))), var + 1)
        if draw(st.integers(0, 3)):
            side = lin_var(var)
        else:
            side = _lin(draw(_NEAR_LIMITS), (var, draw(_BOUND_COEFFS)))
        other = lin_const(draw(st.one_of(st.integers(-3, 3), _NEAR_LIMITS)))
        pair = (side, other) if draw(st.booleans()) else (other, side)
        steps.append((draw(st.sampled_from(_CMPS)), *pair, draw(st.integers(0, 1)), num_vars))
    return steps


class TestBoundOnlyRoute:
    """Branches that compare one term with a constant, the shape of every
    fork on a generated tree, get the normal forms and fixpoints of the
    reference normaliser and fixpoint step, and the results of solving
    from scratch."""

    @settings(max_examples=500, deadline=None)
    @given(pair=_one_term_pairs(), cmp=st.sampled_from(_CMPS), both=st.booleans())
    @example(pair=(_lin(0, (0, 2)), lin_const(0)), cmp=">", both=True)
    @example(pair=(lin_const(0), _lin(-5, (1, 1))), cmp="<", both=False)
    @example(pair=(lin_const(INT32_MIN), _lin(0, (0, -1))), cmp="==", both=True)
    def test_a_one_term_pair_equals_the_reference(self, pair, cmp, both):
        cmps = (cmp, solver_module._NEGATION[cmp]) if both else (cmp,)
        got = solver_module._normalise(cmps, *pair)
        assert got == _reference_normalise(cmps, *pair)
        assert all(type(normal) is solver_module._Normal for normal in got)

    @settings(max_examples=300, deadline=None)
    @given(steps=_bound_only_branches())
    @example(steps=[("<", X, lin_const(9), 0, 1), (">", X, lin_const(3), 0, 1),
                    (">=", lin_const(5), X, 1, 1)])
    @example(steps=[(">", X, lin_const(-3), 0, 1), ("<", _lin(0, (0, 2)), lin_const(7), 0, 1),
                    ("<=", X, lin_const(2), 1, 1)])
    # An excluded value makes the path general; the bound that follows
    # meets it, so propagation from scratch trims the domain past it.
    @example(steps=[("==", X, lin_const(5), 1, 1), (">=", X, lin_const(5), 0, 1)])
    def test_every_node_equals_the_reference(self, steps):
        cap = 1 << 10
        with patch.object(solver_module, "ENUMERATION_CAP", cap):
            solver = Solver()
            node, fixpoint, prefix = solver.root, solver.root.fixpoint, []
            for cmp, lhs, rhs, side, num_vars in steps:
                nodes = solver.branch(node, cmp, lhs, rhs)
                expected = []
                for child in nodes:
                    got = solver.solve(child, num_vars)
                    expected.append(_reference_extend_fixpoint(fixpoint, child))
                    assert child.fixpoint == expected[-1]
                    assert type(child.fixpoint) is solver_module._Fixpoint
                    assert got == _reference_solve(prefix + [child.constraint], num_vars, 100, cap)
                if expected[side].verdict == "unsat":  # go on down a feasible side
                    side = 1 - side
                node, fixpoint = nodes[side], expected[side]
                prefix.append(node.constraint)


class TestSolverBranch:
    """``Solver.branch``: a branch's two nodes, or None when no input decides
    it. It solves nothing, and a new pair is normalised in one call."""

    def _counting_normalise(self, monkeypatch):
        calls = []
        normalise = solver_module._normalise

        def counting(cmps, lhs, rhs):
            calls.append(cmps)
            return normalise(cmps, lhs, rhs)

        monkeypatch.setattr(solver_module, "_normalise", counting)
        return calls

    @pytest.mark.parametrize("lhs, rhs", [
        (lin_const(1), lin_const(2)),
        (X, X),
        (_combine(X, Y, 1), _combine(Y, X, 1)),
    ])
    def test_a_branch_no_input_decides_has_no_nodes(self, lhs, rhs, monkeypatch):
        calls = self._counting_normalise(monkeypatch)
        solver = Solver()
        assert solver.branch(solver.root, "<", lhs, rhs) is None
        assert not solver._children and not calls and solver.stats == SolverStats()

    def test_the_nodes_are_the_constraint_and_its_negation(self):
        solver = Solver()
        then, other = solver.branch(solver.root, "<", X, lin_const(5))
        assert then is solver.extend(solver.root, c("<", X, lin_const(5)))
        assert other is solver.extend(solver.root, c(">=", X, lin_const(5)))
        assert solver.stats == SolverStats()

    def test_an_equal_branch_again_gets_the_same_nodes_and_no_normalising(self, monkeypatch):
        normalise = solver_module._normalise
        calls = self._counting_normalise(monkeypatch)
        solver = Solver()
        first = solver.branch(solver.root, "<=", _lin(1, (0, 2)), Y)
        assert calls == [("<=", ">")]
        again = solver.branch(solver.root, "<=", _lin(1, (0, 2)), lin_var(1))
        assert again[0] is first[0] and again[1] is first[1]
        assert calls == [("<=", ">")]
        for node in first:
            constraint = node.constraint
            assert constraint.normal == normalise((constraint.cmp,), constraint.lhs, constraint.rhs)[0]
        assert calls == [("<=", ">")]

    def test_an_opaque_branch_has_nodes_and_no_normal_forms(self, monkeypatch):
        calls = self._counting_normalise(monkeypatch)
        solver = Solver()
        then, other = solver.branch(solver.root, "==", OPAQUE, X)
        assert then.constraint == c("==", OPAQUE, X)
        assert other.constraint == c("!=", OPAQUE, X)
        assert not calls
        assert solver.solve(then, 1).status == "unknown"


class TestModuleSeam:
    """The solver depends on ``ir`` only, and the stepper reaches it through
    its nodes: it builds no constraint and writes no normal form."""

    def _tree(self, name):
        path = Path(solver_module.__file__).with_name(f"{name}.py")
        return ast.parse(path.read_text(encoding="utf-8"))

    def test_the_solver_imports_nothing_from_the_package_but_ir(self):
        package = set()
        for node in ast.walk(self._tree("solver")):
            if isinstance(node, ast.ImportFrom):
                if node.level:
                    package.add(node.module)
                else:
                    assert not node.module.startswith("munchkin"), node.module
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("munchkin") for a in node.names)
        assert package == {"ir"}

    def test_the_stepper_names_no_constraint_internal(self):
        names = set()
        for node in ast.walk(self._tree("symex")):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        assert "Solver" in names
        assert not names & {"Constraint", "_NEGATION", "_normalise", "_normal"}


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
            if not solver_module._holds(normal.check, [x]):
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
        assert not solver_module._holds(normal.check, [x])
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
            original = getattr(solver_module, name)

            def counted(*args):
                counts[name] += 1
                return original(*args)

            return counted

        with patch.object(solver_module, "_holds", counting("_holds")), \
                patch.object(solver_module, "_check_all", counting("_check_all")), \
                patch.object(solver_module, "_live", counting("_live")):
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
