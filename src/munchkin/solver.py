"""The solver of symbolic execution: symbolic values, constraints and path conditions.

Values are linear expressions ``c0 + sum(ci * xi)`` over the symbolic
input variables (one fresh variable per ``input`` read, up to a cap), or
Opaque when a nonlinear operation mixes symbolic operands. At a branch,
``Solver.branch`` gives the two nodes for the constraint and its negation,
or None when no input can decide it otherwise (two constants, or one
expression on both sides), which the stepper follows without the solver.
Each successor of any other branch costs one satisfiability check, and
infeasible successors are discarded eagerly. Unknown verdicts (opaque
constraints or enumeration cap) fork both successors, leaving validation
to concrete replay.

The built-in solver does interval propagation over the linear int32
constraints plus a bounded enumeration fallback (cap 2**16 candidate
tuples). Propagation reasons in exact integer arithmetic, so paths that
are feasible only through int32 wrap-around may be pruned; every model it
does return is verified against wrap-around semantics by evaluation.

Path conditions are nodes of a per-solver trie: ``solver.branch(pc, ...)``
returns the nodes for a branch's constraint and its negation on top of
``pc``, made on first use, so a path walked again (an FS slice cut short at
its target runs again) reuses its nodes.
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
model. Their branches, one term against a constant, also take a shorter
one-variable route through normalising and extending, with the results
and counts of the general route.

Verdicts, models and query counts are those of solving each path
condition from scratch. A result stays on its node, by the number of
variables, and answers only that node's later solves, as cache hits that
are not charged as queries: a reordered path, or one that repeats a
constraint, is a new node and a new query.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .ir import (
    INT32_MAX,
    INT32_MIN,
    _COMPARE,
    _MutableRecord,
    _Record,
    apply_binop,
    wrap32,
)

ENUMERATION_CAP = 1 << 16
_PROPAGATION_ROUNDS = 100


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

    # Written out rather than inherited: the solver's child table hashes
    # constraints, and so their expressions, at every fork, and compares
    # them where a path is walked again. The hash is the record's, the hash
    # of the field tuple.
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
    # ``wrap32`` written out: the stepper calls this for every constant operand.
    return LinExpr(((value + _HALF) & _MASK) - _HALF, ())


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
    # The solver's child table hashes two new constraints at every fork,
    # and compares one with an equal one only where a path is walked again:
    # an FS slice cut short at its target runs again, and branches before
    # that target's entry (no generated-tree slice does). ``_hash`` and
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
    normalises its constraint and the negation in one call.

    One term against a constant, the shape of every fork on a generated
    tree, skips the merge of the two sides' terms: the difference is the
    term, or its negation when it is on the right, and a bare variable
    cannot wrap. The side's own terms are reused, not copied."""
    const = lhs.const - rhs.const
    lhs_terms, rhs_terms = lhs.terms, rhs.terms
    if len(lhs_terms) + len(rhs_terms) == 1:
        side, other = (lhs, rhs) if lhs_terms else (rhs, lhs)
        (var, coeff), = side.terms
        if lhs_terms:
            terms, neg = lhs_terms, ((var, -coeff),)
        else:
            terms, neg = ((var, -coeff),), rhs_terms
        variables = frozenset((var,))
        cannot_wrap = INT32_MIN <= other.const <= INT32_MAX and (
            side.const == 0 and coeff == 1 or _cannot_wrap(side)
        )
    else:
        # Canonical terms are sorted and nonzero: with one side constant,
        # the difference's terms are the other side's, negated on the right.
        if not lhs_terms or not rhs_terms:
            terms = lhs_terms or tuple([(v, -k) for v, k in rhs_terms])
        else:
            coeffs = dict(lhs_terms)
            for var, coeff in rhs_terms:
                coeffs[var] = coeffs.get(var, 0) - coeff
            terms = tuple([(v, k) for v, k in coeffs.items() if k])
        neg = tuple([(v, -k) for v, k in terms])
        variables = frozenset([v for v, _ in lhs_terms + rhs_terms])
        cannot_wrap = _cannot_wrap(lhs) and _cannot_wrap(rhs)
    operands = (lhs.const + _HALF, lhs_terms, rhs.const + _HALF, rhs_terms)
    one_term = len(terms) == 1
    normals = []
    for cmp in cmps:
        excluded = interval = None
        if cmp == "<":
            ineqs = ((terms, -const - 1),)
        elif cmp == "<=":
            ineqs = ((terms, -const),)
        elif cmp == ">":
            ineqs = ((neg, const - 1),)
        elif cmp == ">=":
            ineqs = ((neg, const),)
        elif cmp == "==":
            ineqs = ((terms, -const), (neg, const))
        else:
            ineqs = ()
            if one_term:
                (var, coeff), = terms
                if (-const) % coeff == 0:
                    excluded = (var, (-const) // coeff)
        if one_term and ineqs:
            low, high = INT32_MIN, INT32_MAX
            for ((var, coeff),), bound in ineqs:
                if coeff > 0:
                    high = min(high, bound // coeff)
                else:
                    low = max(low, -(bound // -coeff))
            interval = (var, low, high)
        normals.append(tuple.__new__(_Normal, (
            ineqs, excluded, variables, (_COMPARE[cmp], *operands), interval,
            interval is not None and cannot_wrap,
        )))
    return normals


_NEGATION = {"<": ">=", "<=": ">", "==": "!=", "!=": "==", ">=": "<", ">": "<="}


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

    Nodes are created only by ``Solver.branch``, which interns them in a
    trie rooted at ``Solver.root``, so a path walked again reuses its nodes
    and the fixpoints they hold. A node points only up, to its parent; the
    solver's child table is the only way down. ``fixpoint`` is what
    propagation knows once a solve has asked, and ``solved`` holds the
    node's results (``Solver.solve``).
    """

    __slots__ = ("constraint", "parent", "fixpoint", "solved")

    def __init__(
        self,
        constraint: Constraint | None,
        parent: "PathCondition | None",
        fixpoint: "_Fixpoint | None" = None,
    ) -> None:
        self.constraint = constraint
        self.parent = parent
        self.fixpoint = fixpoint
        self.solved = None


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------


class SolverStats(_MutableRecord):
    __slots__ = _fields = ("queries", "sat", "unsat", "unknown", "cache_hits")
    _defaults = (0, 0, 0, 0, 0)

    def copy(self) -> "SolverStats":
        return SolverStats(self.queries, self.sat, self.unsat, self.unknown, self.cache_hits)

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
    normal = c._normal
    lo, hi, general = parent.lo, parent.hi, parent.general
    # An implied constraint is linear and mentions one variable, as each
    # side is a constant or a bare variable. When the parent's domains
    # already hold that variable (a verdict's hold none), none of the checks
    # here can apply.
    if normal is None or not normal.implied or normal.interval[0] >= len(lo):
        if parent.verdict == UNKNOWN or c.is_opaque:
            return _OPAQUE_PATH
        if parent.verdict == UNSAT:
            return _INFEASIBLE
        if c.is_const:
            return parent if _COMPARE[c.cmp](c.lhs.const, c.rhs.const) else _INFEASIBLE
        normal = c.normal
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
    return tuple.__new__(_Fixpoint, (None, lo, hi, candidate_ok, general, checks))


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
    return SolveResult(UNKNOWN)  # the domain product exceeds the cap


class Solver:
    """Satisfiability checks with statistics, over a path-condition trie
    whose nodes keep their results.

    The solver owns the trie: ``root`` is the empty path condition, and
    ``branch`` creates every other node, keyed in one table by its parent
    and its constraint. A node's result answers only that node's later
    solves with the same ``num_vars``; cache hits are not charged as queries.
    """

    def __init__(self) -> None:
        self.stats = SolverStats()
        self.root = PathCondition(None, None, _TRUE)
        self._children: dict[tuple[PathCondition, Constraint], PathCondition] = {}

    def branch(
        self, pc: PathCondition, cmp: str, lhs: SymValue, rhs: SymValue
    ) -> tuple[PathCondition, PathCondition] | None:
        """The nodes of ``lhs <cmp> rhs`` and of its negation on top of
        ``pc``, or None when no input decides the branch: two constants, or
        one expression on both sides. New nodes get both normal forms from
        one ``_normalise`` call. Nothing is solved or charged."""
        if lhs.is_const and rhs.is_const:
            return None
        then_c = Constraint(cmp, lhs, rhs)
        if then_c.is_const:
            return None
        other_c = Constraint(_NEGATION[cmp], lhs, rhs)
        children = self._children
        then = children.get((pc, then_c))
        if then is None:
            then = children[pc, then_c] = PathCondition(then_c, pc)
            if lhs is not OPAQUE and rhs is not OPAQUE:
                normals = _normalise((cmp, other_c.cmp), lhs, rhs)
                object.__setattr__(then_c, "_normal", normals[0])
                object.__setattr__(other_c, "_normal", normals[1])
        other = children.get((pc, other_c))
        if other is None:
            other = children[pc, other_c] = PathCondition(other_c, pc)
        return then, other

    def solve(self, pc: PathCondition, num_vars: int) -> SolveResult:
        """Solve a path condition, a node of this solver's trie.

        The node keeps the result in ``solved``: ``(num_vars, result)``, or
        a dict by ``num_vars`` once it is solved with a second one."""
        solved = pc.solved
        if solved.__class__ is tuple:
            if solved[0] == num_vars:
                self.stats.cache_hits += 1
                return solved[1]
            solved = pc.solved = {solved[0]: solved[1]}
        elif solved is not None and num_vars in solved:
            self.stats.cache_hits += 1
            return solved[num_vars]
        result = _materialise(pc, num_vars)
        stats = self.stats
        stats.queries += 1
        if result.status == SAT:
            stats.sat += 1
        elif result.status == UNSAT:
            stats.unsat += 1
        else:
            stats.unknown += 1
        if solved is None:
            pc.solved = (num_vars, result)
        else:
            solved[num_vars] = result
        return result
