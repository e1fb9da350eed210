"""Symbolic execution over the mini IR.

It runs the lowered form that ``run_concrete`` runs
(``executor.lowered_form``) with symbolic operands, so each program's IR is
decoded once, for both interpreters.

Values are linear expressions ``c0 + sum(ci * xi)`` over the symbolic
input variables (one fresh variable per ``input`` read, up to a cap), or
Opaque when a nonlinear operation mixes symbolic operands. States fork at
branches; a branch that no input can decide otherwise (two constants, or
one expression on both sides) follows its one side without the solver,
each successor of any other costs one satisfiability check, and
infeasible successors are discarded eagerly.
Unknown verdicts (opaque constraints or enumeration cap) fork both
successors, leaving validation to concrete replay.

The built-in solver does interval propagation over the linear int32
constraints plus a bounded enumeration fallback (cap 2**16 candidate
tuples). Propagation reasons in exact integer arithmetic, so paths that
are feasible only through int32 wrap-around may be pruned; every model it
does return is verified against wrap-around semantics by evaluation.

Path conditions are nodes of a per-solver trie: ``solver.extend(pc, c)``
returns the node for ``c`` on top of ``pc``, made on first use, so a path
walked again (each FS sonar run walks down from ``main``) reuses its nodes.
Nodes point only up; the solver's child table points down. A node keeps
its propagated domains, reached in one of two ways:

- On a bound-only path, where every inequality bounds one variable and no
  disequality excludes an integral value of one variable, each constraint
  is one interval, computed once with its normal form. A node's domains
  are its parent's intersected with its own interval, since propagation
  from scratch applies each bound once in its first round and changes
  nothing in its second. Generated trees compare one input with a
  constant at every branch, so all their solves take this way.
- Any other path is general, as is every path below it. Its propagators
  can feed each other for many rounds, so each of its nodes is propagated
  from scratch, under the round cap.

Either way a node's domains lie inside every interval on its path. A
constraint is implied when neither side can leave int32 (``x < 5``, not
``2x > 0``): it then holds under wrap-around across its interval. So the
candidate model, each domain's point nearest zero, is checked only against
the path's other constraints, and against the new one alone when it agrees
with its parent's passing candidate. On generated trees every constraint
is implied: a bound-only solve does constant work per node and checks no
model.

Verdicts, models and query counts are those of solving each path
condition from scratch. Results are cached by a path condition's set of
constraints and the number of variables; cache hits are not charged as
queries.

A symbolic state is a fork and a side: the frontier holds handles
``(fork, side, seq)``, and a state's frames are built only when its slice
runs. Sonar search picks the handle nearest to its target function, by the
hop count at its side's location in the target's hop list, then fewer
charged queries, then admission order. Each sonar run computes its
target's list once (``ProgramIndex.distances``, one backward BFS) and hands
it to its ``SonarFrontier``, one heap on those three keys, where a location
that cannot reach the target ranks at distance infinity. Baseline search
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
frames and replays those. It asks each solve again, which the cache
answers, and passes each entry to the emission logic, which reads the live
covered set and may end the campaign there. (Charging a replayed solve
as a cache hit without asking would be cheaper, but ``bench/run.py``'s
traced check counts every cache hit as a ``Solver.solve`` call.) It then
pushes the fork's handles with fresh ``seq`` numbers, in order. So
results, queries and cache hits are those of running the slice afresh. A
slice cut short by reaching the target is not stored.

Callers' stores are shared between states and copied on their first write
after a return. Of a fork's successors, the last to run takes over its
callers and running store, and the others copy them; with a memo, which
keeps the fork, every fresh run copies.

A test case is emitted whenever a state enters a function that neither
``already_covered`` (a set or frozenset is read in place, never written)
nor the campaign's earlier replays cover. Every emitted input vector is
validated by concrete replay, and only replay coverage is reported; it is
gathered in place and becomes one ``CoverageMap`` when the campaign ends.

``symex_campaign`` runs with automatic cyclic garbage collection paused
(``ir._collector_paused``) and restores the caller's setting when it
returns or raises. That is safe because a campaign makes no reference
cycles while its program is alive: trie nodes point only up, a handle's
fork points at frames, stores, nodes and the program's lowered blocks,
none of which points back, and a slice memo is a dict that its caller
owns. So reference counting frees whatever the campaign drops, and a
collection during it would free nothing. The package is single-threaded by contract,
which the process-wide collector switch relies on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from typing import Iterable, NamedTuple, Sequence

from .ir import (
    ENTRY_FUNCTION,
    INT32_MAX,
    INT32_MIN,
    Program,
    _MutableRecord,
    _Record,
    _collector_paused,
    apply_binop,
    apply_cmp,
    wrap32,
)
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
    _COMPARE,
    CoverageMap,
    DEFAULT_STEP_LIMIT,
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


class LinExpr(_Record):
    """Linear int32 expression in canonical sorted-variable form."""

    __slots__ = _fields = ("const", "terms")  # terms: (variable index, coefficient)
    _defaults = (0, ())

    # Written out rather than inherited: the solver's child table compares
    # and hashes constraints, and so their expressions, at every fork. The
    # hash is the record's, the hash of the field tuple.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is not LinExpr:
            return NotImplemented
        return self.const == other.const and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.const, self.terms))

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


class _Normal(NamedTuple):
    """A constraint over inputs in the solver's form, computed once per constraint."""

    # ((variable, coefficient) pairs, bound): sum(coefficient * x) <= bound,
    # in exact arithmetic. ``==`` gives two, ``!=`` none.
    ineqs: tuple[tuple[tuple[tuple[int, int], ...], int], ...]
    # (variable, value) that a single-variable ``!=`` rules out, if integral.
    excluded: tuple[int, int] | None
    # Every variable either side mentions, cancelled or not.
    variables: frozenset[int]
    # (comparison, lhs constant, lhs terms, rhs constant, rhs terms), both
    # constants offset by 2**31, for ``_holds``.
    check: tuple
    # (variable, lowest, highest) that the inequalities allow their one
    # variable, if they bound exactly one, in exact arithmetic; an end they
    # leave open is the int32 limit, and lowest > highest means no value.
    # None for ``!=`` and for constraints over no or several variables.
    interval: tuple[int, int, int] | None
    # The constraint has an interval and neither side can leave int32 for
    # any int32 values of its variables, so it holds under wrap-around at
    # every point of its interval: a candidate inside it needs no check.
    implied: bool


def _cannot_wrap(side: LinExpr) -> bool:
    """No int32 values of its variables take ``side`` out of int32."""
    low = high = side.const
    for _, coeff in side.terms:
        if coeff > 0:
            low += coeff * INT32_MIN
            high += coeff * INT32_MAX
        else:
            low += coeff * INT32_MAX
            high += coeff * INT32_MIN
    return INT32_MIN <= low and high <= INT32_MAX


class Constraint(_Record):
    # The solver's child table and path keys hash a constraint again and
    # again and compare it with an equal one at every fork. ``_hash`` and
    # ``_normal`` memoise ``hash(self)`` (the record's hash, of the field
    # tuple) and ``normal``; they start as None and are not fields, so copies
    # and pickles recompute them (string hashes differ between processes).
    # Slots rather than an instance ``__dict__``: with them sf-b3d6's bench
    # campaign took 0.158 s against 0.170 s (medians of ten runs each).
    # ``is_const``: no input can change the verdict, because both sides are
    # constants or both are the same linear expression (``x < x``). Two
    # opaque sides are the one ``OPAQUE`` but need not be equal values.
    _fields = ("cmp", "lhs", "rhs")
    __slots__ = _fields + ("is_const", "_hash", "_normal")

    def __init__(self, cmp: str, lhs: SymValue, rhs: SymValue) -> None:
        object.__setattr__(self, "cmp", cmp)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        linear = lhs.__class__ is LinExpr and rhs.__class__ is LinExpr
        is_const = linear and lhs.terms == rhs.terms and (not lhs.terms or lhs.const == rhs.const)
        object.__setattr__(self, "is_const", is_const)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_normal", None)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Constraint:
            return NotImplemented
        return self.cmp == other.cmp and self.lhs == other.lhs and self.rhs == other.rhs

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.cmp, self.lhs, self.rhs))
            object.__setattr__(self, "_hash", h)
        return h

    @property
    def is_opaque(self) -> bool:
        return isinstance(self.lhs, Opaque) or isinstance(self.rhs, Opaque)

    @property
    def normal(self) -> _Normal:
        """Normal form of a linear constraint that depends on some input."""
        normal = self._normal
        if normal is None:
            normal = _normalise((self.cmp,), self.lhs, self.rhs)[0]
            object.__setattr__(self, "_normal", normal)
        return normal


def _normalise(cmps: Sequence[str], lhs: LinExpr, rhs: LinExpr) -> list[_Normal]:
    """Normal forms of ``lhs <cmp> rhs`` for each of ``cmps``: a branch
    normalises its constraint and the negation in one call."""
    # Canonical terms are sorted and nonzero: with one side constant, the
    # difference's terms are the other side's, negated on the right.
    const = lhs.const - rhs.const
    if not lhs.terms or not rhs.terms:
        terms = lhs.terms or tuple([(v, -k) for v, k in rhs.terms])
    else:
        coeffs = dict(lhs.terms)
        for var, coeff in rhs.terms:
            coeffs[var] = coeffs.get(var, 0) - coeff
        terms = tuple([(v, k) for v, k in coeffs.items() if k])
    variables = frozenset([v for v, _ in lhs.terms + rhs.terms])
    operands = (lhs.const + _HALF, lhs.terms, rhs.const + _HALF, rhs.terms)
    cannot_wrap = _cannot_wrap(lhs) and _cannot_wrap(rhs)
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
        normals.append(_Normal(
            ineqs, excluded, variables, (_COMPARE[cmp], *operands), interval,
            interval is not None and cannot_wrap,
        ))
    return normals


_NEGATION = {"<": ">=", "<=": ">", "==": "!=", "!=": "==", ">=": "<", ">": "<="}


def negate_constraint(c: Constraint) -> Constraint:
    return Constraint(_NEGATION[c.cmp], c.lhs, c.rhs)


_HALF = 1 << 31
_MASK = 0xFFFFFFFF


def _holds(check: tuple, model: Sequence[int]) -> bool:
    """A constraint's ``check`` on a model, each side wrapped to int32.

    ``wrap32(v)`` is ``((v + 2**31) & _MASK) - 2**31``; the constants carry
    the offset, and the final ``- 2**31`` cancels between the two sides.
    """
    compare, lhs, lhs_terms, rhs, rhs_terms = check
    for var, coeff in lhs_terms:
        lhs += coeff * model[var]
    for var, coeff in rhs_terms:
        rhs += coeff * model[var]
    return compare(lhs & _MASK, rhs & _MASK)


def _check_all(checks: Sequence[tuple], model: Sequence[int]) -> bool:
    for check in checks:
        if not _holds(check, model):
            return False
    return True


class PathCondition:
    """A path condition: one constraint on top of its parent's.

    Nodes are created only by ``Solver.extend``, which interns them in a
    trie rooted at ``Solver.root``, so a path walked again reuses its nodes
    and the fixpoints they hold. A node points only up, to its parent; the
    solver's child table is the only way down. ``key`` is the set of the
    path's constraints, by which the solver caches results, and
    ``fixpoint`` is what propagation knows once a solve has asked.
    """

    __slots__ = ("constraint", "parent", "key", "fixpoint")

    def __init__(
        self,
        constraint: Constraint | None,
        parent: "PathCondition | None",
        key: frozenset,
        fixpoint: "_Fixpoint | None" = None,
    ) -> None:
        self.constraint = constraint
        self.parent = parent
        self.key = key
        self.fixpoint = fixpoint


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


class SolverStats(_MutableRecord):
    __slots__ = _fields = ("queries", "sat", "unsat", "unknown", "cache_hits")
    _defaults = (0, 0, 0, 0, 0)

    def copy(self) -> "SolverStats":
        return SolverStats(*self._values())

    def delta(self, earlier: "SolverStats") -> "SolverStats":
        return SolverStats(
            self.queries - earlier.queries,
            self.sat - earlier.sat,
            self.unsat - earlier.unsat,
            self.unknown - earlier.unknown,
            self.cache_hits - earlier.cache_hits,
        )


class SolveResult(_Record):
    __slots__ = _fields = ("status", "model")  # status: "sat" | "unsat" | "unknown"
    _defaults = (None,)


SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


class _Fixpoint(NamedTuple):
    """What propagation knows about one path condition.

    ``verdict`` is UNKNOWN (an opaque constraint) or UNSAT (a false constant
    or an empty domain) when propagation decides the path condition, else
    None, and then:

    - ``lo``, ``hi``: each variable's domain after propagation, by index;
    - ``candidate_ok``: the domains' points nearest zero satisfy every
      constraint;
    - ``general``: the path has an inequality over two or more variables
      or a disequality that excludes an integral value of one variable,
      so its nodes are propagated from scratch;
    - ``checks``: the ``check`` of each of the path's non-constant
      constraints that is not ``implied``, in path order.

    The domains lie inside every interval on the path: a bound-only node
    intersects its parent's domains with its own interval, and on a general
    path ``_propagate``'s first round applies every bound, after which
    domains only shrink. So the candidate satisfies every implied
    constraint, and ``candidate_ok`` is decided by ``checks`` alone.
    """

    verdict: str | None
    lo: tuple[int, ...] = ()
    hi: tuple[int, ...] = ()
    candidate_ok: bool = True
    general: bool = False
    checks: tuple[tuple, ...] = ()


_TRUE = _Fixpoint(None)
_OPAQUE_PATH = _Fixpoint(UNKNOWN)
_INFEASIBLE = _Fixpoint(UNSAT)


def _nearest_zero(lo: int, hi: int) -> int:
    if lo > 0:
        return lo
    if hi < 0:
        return hi
    return 0


def _propagate(ineqs, excluded, lo: list[int], hi: list[int]) -> bool:
    """Tighten ``lo``/``hi`` in place; False once a domain is empty.

    A round runs every inequality, then every disequality, in the given
    order. Rounds stop after one that changes no domain, or after
    ``_PROPAGATION_ROUNDS``.
    """
    for _ in range(_PROPAGATION_ROUNDS):
        changed = False
        for terms, bound in ineqs:
            mins = [k * lo[v] if k > 0 else k * hi[v] for v, k in terms]
            total_min = sum(mins)
            for (var, coeff), own in zip(terms, mins):
                rest = bound - (total_min - own)
                if coeff > 0:
                    new_hi = rest // coeff
                    if new_hi < hi[var]:
                        hi[var] = new_hi
                        changed = True
                        if lo[var] > new_hi:
                            return False
                else:
                    new_lo = -(rest // -coeff)
                    if new_lo > lo[var]:
                        lo[var] = new_lo
                        changed = True
                        if new_lo > hi[var]:
                            return False
        for var, value in excluded:
            if value == lo[var]:
                if value == hi[var]:
                    return False
                lo[var] += 1
                changed = True
            elif value == hi[var]:
                hi[var] -= 1
                changed = True
        if not changed:
            break
    return True


def _extend_fixpoint(parent: _Fixpoint, node: PathCondition) -> _Fixpoint:
    """A path's fixpoint from its parent's, in one of two ways.

    On a bound-only path (``general`` unset), the node's domains are its
    parent's intersected with its constraint's interval, and UNSAT when
    that is empty. Propagation from scratch gives the same for any round
    cap: its first round applies each bound once, its second changes
    nothing. A constraint with no interval (``x + 1 < x``, ``2x != 3``,
    ``x != y``) gives propagation nothing to tighten.

    On a general path, the domains start at the int32 limits and
    ``_propagate`` runs every inequality and disequality on the path, in
    path order: the computation from scratch itself.

    A candidate that agrees with its parent's passing one is checked
    against the new constraint only, unless that is implied; any other is
    checked against ``checks``.
    """
    c = node.constraint
    if parent.verdict == UNKNOWN or c.is_opaque:
        return _OPAQUE_PATH
    if parent.verdict == UNSAT:
        return _INFEASIBLE
    if c.is_const:
        return parent if apply_cmp(c.cmp, c.lhs.const, c.rhs.const) else _INFEASIBLE

    normal = c.normal
    lo, hi, general = parent.lo, parent.hi, parent.general
    grow = max(normal.variables) + 1 - len(lo)
    if grow > 0:
        lo += (INT32_MIN,) * grow
        hi += (INT32_MAX,) * grow
    interval = normal.interval
    # The candidate agrees with its parent's, which passed its checks.
    agrees = parent.candidate_ok
    if general or interval is None and (
        normal.excluded is not None or any(len(terms) > 1 for terms, _ in normal.ineqs)
    ):
        general = True
        path = _live(node)
        ineqs = [i for live in path for i in live.ineqs]
        excluded = [live.excluded for live in path if live.excluded is not None]
        lo, hi = [INT32_MIN] * len(lo), [INT32_MAX] * len(hi)
        if not _propagate(ineqs, excluded, lo, hi):
            return _INFEASIBLE
        lo, hi = tuple(lo), tuple(hi)
        agrees = agrees and (
            _candidate(lo, hi)[: len(parent.lo)] == _candidate(parent.lo, parent.hi)
        )
    elif interval is not None:
        var, low, high = interval
        was_lo, was_hi = lo[var], hi[var]
        low, high = max(low, was_lo), min(high, was_hi)
        if low > high:
            return _INFEASIBLE
        if var < len(parent.lo) and _nearest_zero(low, high) != _nearest_zero(was_lo, was_hi):
            agrees = False
        lo = (*lo[:var], low, *lo[var + 1:])
        hi = (*hi[:var], high, *hi[var + 1:])

    checks = parent.checks
    if normal.implied:
        candidate_ok = agrees or not checks or _check_all(checks, _candidate(lo, hi))
    else:
        checks += (normal.check,)
        candidate = _candidate(lo, hi)
        if agrees:
            candidate_ok = _holds(normal.check, candidate)
        else:
            candidate_ok = _check_all(checks, candidate)
    return _Fixpoint(None, lo, hi, candidate_ok, general, checks)


def _candidate(lo: Sequence[int], hi: Sequence[int]) -> list[int]:
    """The domains' points nearest zero."""
    return list(map(_nearest_zero, lo, hi))


def _live(node: PathCondition) -> list[_Normal]:
    """Normal forms of a path's non-constant constraints, in path order."""
    live = []
    while node.parent is not None:
        if not node.constraint.is_const:
            live.append(node.constraint.normal)
        node = node.parent
    live.reverse()
    return live


def _settle(node: PathCondition) -> _Fixpoint:
    """A path's fixpoint, computing its ancestors' first where missing."""
    pending = []
    while node.fixpoint is None:
        pending.append(node)
        node = node.parent
    fixpoint = node.fixpoint
    for node in reversed(pending):
        fixpoint = node.fixpoint = _extend_fixpoint(fixpoint, node)
    return fixpoint


def _materialise(node: PathCondition, num_vars: int) -> SolveResult:
    """The verdict on a path condition, from its fixpoint.

    A model is the domains' points nearest zero when they satisfy every
    constraint; otherwise a bounded enumeration over the domains of the
    variables the constraints mention looks for one. Models are checked
    under wrap-around, propagation is exact.
    """
    fixpoint = _settle(node)
    if fixpoint.verdict is not None:
        return SolveResult(fixpoint.verdict)
    lo, hi = fixpoint.lo, fixpoint.hi
    candidate = (*map(_nearest_zero, lo, hi), *(0,) * (num_vars - len(lo)))
    if fixpoint.candidate_ok:
        return SolveResult(SAT, candidate)

    live = _live(node)
    checks = [normal.check for normal in live]
    used = sorted(frozenset().union(*(normal.variables for normal in live)))
    space = 1
    for var in used:
        space *= hi[var] - lo[var] + 1
        if space > ENUMERATION_CAP:
            break

    model = list(candidate)
    odometer = [lo[v] for v in used]
    tried = 0
    while tried < ENUMERATION_CAP:
        for var, value in zip(used, odometer):
            model[var] = value
        tried += 1
        if _check_all(checks, model):
            return SolveResult(SAT, tuple(model))
        pos = len(used) - 1
        while pos >= 0:
            odometer[pos] += 1
            if odometer[pos] <= hi[used[pos]]:
                break
            odometer[pos] = lo[used[pos]]
            pos -= 1
        if pos < 0:
            return SolveResult(UNSAT)  # exhausted the finite domain product
    return SolveResult(UNKNOWN) if space > ENUMERATION_CAP else SolveResult(UNSAT)


class Solver:
    """Satisfiability checks with statistics, a path-condition trie and a result cache.

    The solver owns the trie: ``root`` is the empty path condition, and
    ``extend`` creates every other node, keyed in one table by its parent
    and its constraint. Results are cached by a path condition's set of
    constraints and ``num_vars``; cache hits are not charged as queries.
    """

    def __init__(self) -> None:
        self.stats = SolverStats()
        self.root = PathCondition(None, None, frozenset(), _TRUE)
        self._children: dict[tuple[PathCondition, Constraint], PathCondition] = {}
        self._cache: dict[tuple[frozenset, int], SolveResult] = {}

    def extend(self, pc: PathCondition, c: Constraint) -> PathCondition:
        """``pc`` with ``c`` on top: the trie's node, created on first use."""
        edge = (pc, c)
        child = self._children.get(edge)
        if child is None:
            key = pc.key if c in pc.key else pc.key | {c}
            child = self._children[edge] = PathCondition(c, pc, key)
        return child

    def solve(self, pc: PathCondition, num_vars: int) -> SolveResult:
        """Solve a path condition, a node of this solver's trie."""
        key = (pc.key, num_vars)
        cached = self._cache.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            return cached
        result = _materialise(pc, num_vars)
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
# Frontier handles and search strategies
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
    queries, then admission order (unique per handle). A location that
    cannot reach the target ranks at infinity.
    """

    def __init__(self, hops: list[int]) -> None:
        self._hops = hops
        self._heap: list[tuple[float, int, int, tuple]] = []

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, handle: tuple) -> None:
        fork, side, seq = handle
        hops = self._hops[fork[3][side][2]]
        heappush(self._heap, (hops if hops >= 0 else _INF, fork[5], seq, handle))

    def pop(self) -> tuple:
        if not self._heap:
            raise ValueError("empty frontier")
        return heappop(self._heap)[3]


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
    for one program and ``max_inputs``. With a sonar target the campaign
    stops as soon as the target is entered and a test case for it was
    produced.
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
    reachable = index.reachable
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
    uncovered = len(reachable) - len(covered)

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

    codes, entry_id, _ = lowered_form(program)
    zero = lin_const(0)
    if search is Strategy.SONAR:
        frontier: SonarFrontier | _RandomFrontier = SonarFrontier(index.distances(target))
    else:
        frontier = _RandomFrontier(random.Random(rng_seed))
    # The entry's handle: a fork of one side that nothing ran to.
    frontier.push(([[], {}, None, [(solver.root, codes[entry_id], entry_id)], 0, 0, 0, 1], 0, 0))
    seq = 0
    states_explored = 0

    def run_slice(fork: list, side: int, events: list | None) -> list | None:
        """Run the successor of ``fork`` on ``side`` up to its next two-way
        fork and return that fork, or None where its path ends.

        This is ``run_concrete``'s loop over the same lowered blocks, with
        symbolic values, the running frame, the node ``pc`` and the counters
        in locals; ``frames`` holds the callers, each ``(block, index of its
        next instruction, location id, store, ret_dest)``, where ``ret_dest``
        is the caller's local that receives the return value. A fork is
        ``[callers, store, ret_dest, sides, inputs_read, queries_charged,
        steps, waiting]``, with each side's ``(node, block, location id)``
        and the successors' counters (``waiting``: see ``_resume``).
        ``events``, when given, receives each branch solve as ``(None,
        node, inputs_read)`` and each function entry as ``(function, node,
        inputs_read)``, in order.

        A store is ``owned`` until a return makes it a shared caller's.
        """
        frames, store = _resume(fork, slices is not None)
        _, _, ret_dest, _, inputs_read, queries, steps, _ = fork
        pc, code, loc = fork[3][side]
        index, owned = 0, True
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
                then_c = None if lhs.is_const and rhs.is_const else Constraint(cmp, lhs, rhs)
                if then_c is None or then_c.is_const:
                    # Two constants, or one expression on both sides: no
                    # input changes the outcome, so no solve.
                    if compare(lhs.const, rhs.const):
                        code, loc = then, then_id
                    else:
                        code, loc = other, other_id
                    index = 0
                    continue

                negation = negate_constraint(then_c)
                sides = (
                    (solver.extend(pc, then_c), then, then_id),
                    (solver.extend(pc, negation), other, other_id),
                )
                if sides[0][0].constraint is then_c and not then_c.is_opaque:
                    # New nodes: one call normalises both sides.
                    normals = _normalise((cmp, negation.cmp), lhs, rhs)
                    object.__setattr__(then_c, "_normal", normals[0])
                    object.__setattr__(negation, "_normal", normals[1])
                feasible = []
                for succ in sides:
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

    try:
        on_entry(ENTRY_FUNCTION, solver.root, 0)
        while frontier:
            if states_explored >= limits.max_states:
                break
            if solver.stats.queries - stats_start.queries >= limits.max_queries:
                break
            if uncovered <= 0:
                uncovered = len(reachable - functions - covered)
                if not uncovered:
                    break
            fork, side, _ = frontier.pop()
            states_explored += 1
            if slices is None:
                fork = run_slice(fork, side, None)
            else:
                node = fork[3][side][0]
                done = slices.get(node)  # (events, fork) of its first run
                if done is None:
                    events = []
                    done = slices[node] = (events, run_slice(fork, side, events))
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
