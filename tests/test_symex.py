"""State selection and symbolic campaigns."""

import gc
import hashlib
import json
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from munchkin import symex
from munchkin.callgraph import index_program
from munchkin.executor import lowered_form, run_concrete
from munchkin.generator import GenParams, generate_program
from munchkin.ir import parse_program, serialize_program
from munchkin.orchestrator import HybridConfig, run_fs, run_sf
from munchkin.solver import Solver
from munchkin.symex import (
    DEFAULT_MAX_INPUTS,
    SonarFrontier,
    Strategy,
    SymexLimits,
    _RandomFrontier,
    run_slice,
    symex_campaign,
)

from conftest import block_locations


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
        codes, _, _, entries = lowered_form(program)
        loc = entries[function]
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

    @pytest.mark.parametrize("seed", [0, 7, 11])
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 13])
    def test_baseline_picks_as_randrange_does(self, chain_program, seed, size):
        # Handles pop, and the RNG ends, as with ``list.pop(rng.randrange(len))``.
        states = self._states(chain_program, size)
        rng = random.Random(seed)
        frontier = self._fill(_RandomFrontier(rng), states)
        reference, expected = random.Random(seed), list(range(size))
        order = [expected.pop(reference.randrange(len(expected))) for _ in range(size)]
        assert [seq for _, _, seq in self._drain(frontier)] == order
        assert rng.getstate() == reference.getstate()

    def test_sonar_ranks_handles_that_cannot_reach_the_target_last(self, chain_program):
        # No location of g reaches f's entry: g returns to the point after
        # f's call. Those handles wait in the side list until no handle
        # that can reach f is left, then rank by charged queries and
        # admission order, as if they had been in the heap all along.
        far = [self._state(chain_program, "g", seq) for seq in (0, 1)]
        far[0][0][5], far[1][0][5] = 3, 1
        near = self._state(chain_program, "main", 2)
        frontier = self._sonar(chain_program, "f", [*far, near])
        picks = [frontier.pop(), frontier.pop()]
        later_near = self._state(chain_program, "main", 3)
        later_far = self._state(chain_program, "g", 4)  # charged 0 queries
        self._fill(frontier, [later_near, later_far])
        picks += self._drain(frontier)
        assert _picks_are(picks, [near, far[1], later_near, later_far, far[0]])

    def test_empty_frontier_rejected(self, chain_program):
        with pytest.raises(ValueError, match="empty frontier"):
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
        assert result.coverage.functions == index_program(program).reachable()

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

    def test_baseline_search_with_a_target_stops_there(self):
        # Emission of the target's test case ends any campaign with a
        # target, whatever its search: on b2d4 the run aimed at n_3_3 stops
        # 4 states short of the untargeted run, which enters n_3_3 too.
        program = generate_program(GenParams(2, 4))
        aimed = symex_campaign(program, Strategy.BASELINE, target="n_3_3")
        free = symex_campaign(program, Strategy.BASELINE)
        assert aimed.target_reached and not free.target_reached
        assert "n_3_3" in aimed.test_cases[-1].replay.coverage.functions
        assert "n_3_3" in free.coverage.functions
        assert (aimed.states_explored, free.states_explored) == (29, 33)

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
        everything = index_program(program).reachable()
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
        assert target is None or target in index_program(program).reachable()
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
        reachable = index_program(program).reachable()
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
    runs came out different. It was re-recorded again when results moved
    onto trie nodes: ``f`` asks ``y == 9`` on ``main``'s ``c == 9``, and a
    node that repeats a constraint no longer hits its parent's result. So
    the first ``goal`` run and both ``ghost`` runs charge more queries and
    find fewer hits, and the ``ghost`` run under 60 queries stops after 32
    states instead of 35. Test cases and coverage did not change.
    """

    DIGEST = "5a285c9006dcf695c57609860d946454dbfab805350b0dc62410db15ca3b7205"
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
    """Every location's hop count to ``target``'s entry, None where it
    cannot reach it, by one backward BFS over a list of every location: the
    reference for ``ProgramIndex.distances``."""
    index = index_program(program)
    hops = [None] * len(index.predecessors)
    start = index.entries[target]
    hops[start] = 0
    queue = deque([start])
    while queue:
        loc = queue.popleft()
        for pred in index.predecessors[loc]:
            if hops[pred] is None:
                hops[pred] = hops[loc] + 1
                queue.append(pred)
    return hops


def _as_map(full):
    """The hop map that ``ProgramIndex.distances`` gives for ``full``."""
    return {loc: hop for loc, hop in enumerate(full) if hop is not None}


def _scan_rank(handle, hops):
    """Sonar's rank of a handle over fully settled hops; the reference pick
    is the minimum over the whole frontier."""
    fork, side, seq = handle
    distance = hops[fork[3][side][2]]
    return (float("inf") if distance is None else distance, fork[5], seq)


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
        assert hops == _as_map(full)
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
        assert hops == _as_map(_full_bfs(program, "goal"))
        assert block_locations(program).index(("main", "stranded")) not in hops


# The first fork is in f, below main's frame; each of its sides forks again.
STEPPER_TEXT = """\
program stepper

func main()
block entry:
  x = input
  call f(x)
  ret

func f(v)
block entry:
  call g()
  br < v 10 -> low, high
block low:
  y = input
  br == y 3 -> a, b
block a:
  ret
block b:
  ret
block high:
  br > v 20 -> c, d
block c:
  call g()
  ret
block d:
  ret

func g()
block entry:
  ret
"""


class TestRunSlice:
    """``run_slice`` stepped by hand, without a campaign."""

    def _entry(self, solver):
        """The fork that a campaign's entry handle starts from."""
        program = parse_program(STEPPER_TEXT)
        codes, entry, _, _ = lowered_form(program)
        return _handle([(solver.root, codes[entry], entry)])[0]

    def _step(self, fork, side, solver, kept=False):
        entered = []

        def on_entry(function, pc, inputs_read):
            entered.append((function, pc, inputs_read))

        return run_slice(fork, side, solver, DEFAULT_MAX_INPUTS, on_entry, kept), entered

    def test_the_entry_slice_runs_to_the_first_fork(self):
        solver = Solver()
        fork, entered = self._step(self._entry(solver), 0, solver)
        assert len(fork[3]) == 2 and fork[7] == 2
        assert len(fork[0]) == 1  # main's frame, waiting for f's return
        # One input read; one query for the fork; input, two calls, g's
        # return and the branch are five steps.
        assert fork[4:7] == [1, 1, 5]
        assert entered == [("f", solver.root, 1), ("g", solver.root, 1)]

    def test_a_kept_fork_is_never_taken_over_so_a_side_runs_again_alike(self):
        # A pool keeps every fork, and a slice cut short at a target runs
        # again from the same fork, so no successor may take it over.
        solver = Solver()
        fork, _ = self._step(self._entry(solver), 0, solver)

        def snapshot():
            return [(*frame[:3], dict(frame[3]), frame[4]) for frame in fork[0]], dict(fork[1])

        before = snapshot()
        runs = [self._step(fork, side, solver, kept=True) for side in (1, 1, 0, 1)]
        assert runs[0] == runs[1] == runs[3] != runs[2]
        assert all(child[0] is not fork[0] for child, _ in runs)
        assert snapshot() == before

    def test_only_the_last_child_without_a_pool_takes_over_the_callers(self):
        solver = Solver()
        fork, _ = self._step(self._entry(solver), 0, solver)
        (first, low_entered), (second, high_entered) = (
            self._step(fork, side, solver) for side in (0, 1)
        )
        # Both sides fork again: low reads y and forks on it, high forks on v.
        assert len(first[3]) == len(second[3]) == 2
        assert (first[4:7], second[4:7]) == ([2, 2, 7], [1, 2, 6])
        assert low_entered == high_entered == []
        assert second[0] is fork[0] and first[0] is not fork[0]
        assert first[0] == second[0] == fork[0]

        kept, _ = self._step(self._entry(solver), 0, solver, kept=True)
        children = [self._step(kept, side, solver, kept=True)[0] for side in (0, 1)]
        assert children == [first, second]
        assert all(child[0] is not kept[0] for child in children)
