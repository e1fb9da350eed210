"""Solver, state selection, and symbolic campaigns."""

import hashlib
import json
import random

import pytest

from munchkin.callgraph import build_callgraph, index_program
from munchkin.executor import lowered_form, run_concrete
from munchkin.generator import GenParams, generate_program
from munchkin.ir import INT32_MAX, parse_program
from munchkin.symex import (
    Constraint,
    OPAQUE,
    SolveResult,
    Solver,
    Strategy,
    SymState,
    SymexLimits,
    _combine,
    lin_const,
    lin_var,
    negate_constraint,
    select_next_state,
    sym_binop,
    symex_campaign,
)

X = lin_var(0)
Y = lin_var(1)


def c(cmp, lhs, rhs):
    return Constraint(cmp, lhs, rhs)


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
        assert Solver().solve([], 1) == SolveResult("sat", (0,))

    def test_boxed_interval_returns_domain_minimum(self):
        result = Solver().solve(
            [c(">=", X, lin_const(0)), c("<=", X, lin_const(7)),
             c(">=", X, lin_const(4)), c("<=", X, lin_const(5))],
            1,
        )
        assert result.is_sat and result.model[0] in (4, 5)
        assert result.model == (4,)
        # Independent enumeration oracle over the outer box.
        feasible = [v for v in range(0, 8) if 4 <= v <= 5]
        assert result.model[0] in feasible

    def test_empty_interval_is_unsat(self):
        result = Solver().solve([c("<", X, lin_const(0)), c(">", X, lin_const(0))], 1)
        assert result.status == "unsat"

    def test_disequality_edge_trim(self):
        result = Solver().solve(
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
        result = Solver().solve(pc, 2)
        assert result.is_sat
        assert result.model[0] + result.model[1] == 10

    def test_enumeration_cap_yields_unknown(self):
        result = Solver().solve([c("==", _combine(X, Y, 1), lin_const(10**9))], 2)
        assert result.status == "unknown"

    def test_opaque_constraints_are_unknown(self):
        assert Solver().solve([c("==", OPAQUE, lin_const(4))], 1).status == "unknown"

    def test_wrap_dependent_conditions_are_not_claimed_sat(self):
        # x + 1 < x holds only at INT32_MAX under wrap-around; exact
        # propagation cannot see that, and enumeration caps out: unknown.
        result = Solver().solve([c("<", _combine(X, lin_const(1), 1), X)], 1)
        assert result.status == "unknown"

    def test_wrap_only_paths_may_be_pruned(self):
        # Documented approximation: exact-arithmetic propagation prunes
        # conditions satisfiable only through overflow.
        pc = [c(">=", X, lin_const(1)), c("<=", _combine(X, lin_const(1), 1), lin_const(0))]
        assert Solver().solve(pc, 1).status == "unsat"

    def test_models_are_verified_against_wraparound(self):
        # Any returned model must satisfy the constraints under wrap32.
        solver = Solver()
        pc = [c(">=", X, lin_const(INT32_MAX - 1)), c("<=", X, lin_const(INT32_MAX))]
        result = solver.solve(pc, 1)
        assert result.is_sat and result.model[0] >= INT32_MAX - 1

    def test_unused_variables_are_padded_with_zero(self):
        assert Solver().solve([c("==", X, lin_const(3))], 3).model == (3, 0, 0)

    def test_query_accounting_and_cache(self):
        solver = Solver()
        solver.solve([c(">", X, lin_const(0))], 1)
        solver.solve([c(">", X, lin_const(0))], 1)  # cache hit
        solver.solve([c("<", X, lin_const(0)), c(">", X, lin_const(0))], 1)
        stats = solver.stats
        assert stats.queries == 2
        assert stats.cache_hits == 1
        assert stats.queries == stats.sat + stats.unsat + stats.unknown

    def test_constraint_order_does_not_defeat_the_cache(self):
        solver = Solver()
        a, b = c(">", X, lin_const(0)), c("<", X, lin_const(9))
        solver.solve([a, b], 1)
        solver.solve([b, a], 1)
        assert solver.stats.cache_hits == 1


class TestSelectNextState:
    def _state(self, program, function, seq):
        """A fresh state at the entry block of ``function``."""
        codes, _, _ = lowered_form(program)
        loc = index_program(program).entries[function]
        return SymState([(codes[loc], 0, loc, {}, None)], [], seq=seq)

    def _states(self, program, n):
        return [self._state(program, "main", i) for i in range(n)]

    def test_singleton_frontier(self, chain_program):
        states = self._states(chain_program, 1)
        rng = random.Random(0)
        assert select_next_state(states, Strategy.BASELINE, rng=rng) is states[0]

    def test_sonar_picks_smaller_distance(self, chain_program):
        # f's entry is 1 hop from g's, main's 2; the nearer state was admitted later.
        states = [self._state(chain_program, "main", 0), self._state(chain_program, "f", 1)]
        df = index_program(chain_program).distances("g")
        assert select_next_state(states, Strategy.SONAR, df=df) is states[1]

    def test_sonar_ties_break_on_charged_queries_then_seq(self, chain_program):
        states = self._states(chain_program, 3)
        df = index_program(chain_program).distances("g")
        states[0].queries_charged = 5
        states[1].queries_charged = 2
        states[2].queries_charged = 2
        assert select_next_state(states, Strategy.SONAR, df=df) is states[1]

    def test_baseline_is_reproducible(self, chain_program):
        states = self._states(chain_program, 5)
        picks_a = [
            select_next_state(states, Strategy.BASELINE, rng=random.Random(7)).seq
            for _ in range(3)
        ]
        picks_b = [
            select_next_state(states, Strategy.BASELINE, rng=random.Random(7)).seq
            for _ in range(3)
        ]
        assert picks_a == picks_b

    def test_empty_frontier_rejected(self):
        with pytest.raises(ValueError):
            select_next_state([], Strategy.BASELINE, rng=random.Random(0))


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
        leaf_tests = [tc for tc in result.test_cases if tc.covering & leaves]
        assert len(leaf_tests) >= 8
        # An empty vector reads as input 0 once exhausted.
        effective = {tc.values[0] if tc.values else 0 for tc in leaf_tests}
        assert effective == set(range(8))

    def test_emitted_tests_replay_to_their_covering_sets(self):
        program = generate_program(GenParams(3, 2))
        result = symex_campaign(program)
        for tc in result.test_cases:
            replay = run_concrete(program, tc.values)
            assert replay.coverage.functions == tc.covering

    def test_sonar_on_already_entered_target_stops_immediately(self):
        program = generate_program(GenParams(2, 2))
        result = symex_campaign(program, Strategy.SONAR, target="main")
        assert result.target_reached
        assert result.states_explored == 0
        assert any("main" in tc.covering for tc in result.test_cases)

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

    def test_opaque_branches_fork_both_and_stay_sound(self):
        result = symex_campaign(parse_program(OPAQUE_TEXT))
        assert result.stats.unknown > 0
        # No model can witness the opaque path, so coverage comes from
        # replays of what was emittable.
        assert result.coverage.functions == {"main"}
        for tc in result.test_cases:
            assert run_concrete(parse_program(OPAQUE_TEXT), tc.values).coverage.functions == tc.covering

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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"search": Strategy.SONAR},
            {"target": "ghost"},
            {"limits": SymexLimits(0, 5)},
            {"limits": SymexLimits(5, 0)},
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
                [[list(tc.values), sorted(tc.covering)] for tc in result.test_cases],
                sorted(result.coverage.functions), sorted(result.coverage.edge_bits),
                [stats.queries, stats.sat, stats.unsat, stats.unknown, stats.cache_hits],
                result.states_explored, result.target_reached,
            ])
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == self.DIGEST
