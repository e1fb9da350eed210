"""Call-graph depths, sonar distances, frontier ordering."""

import copy
import gc
import pickle
import random
import weakref
from collections import Counter

import pytest

from munchkin import callgraph
from munchkin.callgraph import build_callgraph, depths_tsv, index_program, to_dot
from munchkin.generator import GenParams, generate_program
from munchkin.ir import Branch, Call, Jump, parse_program
from munchkin.orchestrator import HybridConfig, run_fs, run_fuzz, run_sf, run_symex

from conftest import UNREACHABLE_TEXT, block_locations

# What trees never have: two calls of one function in one block, a branch
# after a call, a block that loops to itself, recursion into main, and a
# callee with two returns.
HAND_TEXT = """\
program hand

func main()
block entry:
  x = input
  y = call f(x)
  z = call f(y)
  br < z 0 -> spin, again
block spin:
  z = z + 1
  br < z 0 -> spin, again
block again:
  br == x 7 -> recurse, done
block recurse:
  call main()
  ret
block done:
  print z
  ret

func f(a)
block entry:
  br < a 3 -> low, high
block low:
  ret 1
block high:
  ret a
"""


def interprocedural_edges(program):
    """Forward edges of the interprocedural control-flow graph, read off the IR.

    The reference that the index, read off the lowered form, is checked
    against. Its nodes are the blocks, ``(function, block)``, and each
    call's after-call point, ``(function, block, k)`` for the block's k-th
    call. Within a block, the current point is the block until its first
    call and then the after-call point of the call before it: each call has
    an edge from it to the callee's entry, CFG edges leave from it, and a
    return makes it one of its function's return points. Each of a callee's
    return points has an edge to the after-call point of every call to it.
    """
    edges = set()
    returns = {name: [] for name in program.functions}
    calls = []
    for fname, func in program.functions.items():
        for bid, block in func.blocks.items():
            point, k = (fname, bid), 0
            for instr in block.instructions:
                if isinstance(instr, Call):
                    callee = program.functions[instr.callee]
                    edges.add((point, (instr.callee, next(iter(callee.blocks)))))
                    k += 1
                    point = (fname, bid, k)
                    calls.append((point, instr.callee))
            term = block.terminator
            if isinstance(term, Branch):
                edges.add((point, (fname, term.then_block)))
                edges.add((point, (fname, term.else_block)))
            elif isinstance(term, Jump):
                edges.add((point, (fname, term.target)))
            else:
                returns[fname].append(point)
    for point, callee in calls:
        for exit_point in returns[callee]:
            edges.add((exit_point, point))
    return edges


def icfg_locations(program):
    """The nodes of ``interprocedural_edges`` in the index's id order: the
    blocks in program order, then every after-call point in program order."""
    blocks = block_locations(program)
    points = [
        (fname, bid, k)
        for fname, bid in blocks
        for k in range(1, 1 + sum(
            isinstance(instr, Call)
            for instr in program.functions[fname].blocks[bid].instructions
        ))
    ]
    return list(blocks) + points


def frontier_set(cg, covered):
    """Uncovered functions, cheapest targets first: the reference model of
    FS's target order, which ``ProgramIndex.next_target`` is checked against.

    Frontier functions (uncovered with at least one covered caller) come
    first, ordered by ascending depth then name; the remaining uncovered
    functions follow in the same order. Within each group, unreachable
    functions come after the reachable ones. The result is a permutation of
    the uncovered set.
    """
    if not covered <= cg.nodes:
        raise ValueError("covered set contains unknown functions")
    uncovered = cg.nodes - covered
    has_covered_caller = {
        callee for caller, callee in cg.edges if caller in covered and callee in uncovered
    }

    def key(name):
        depth = cg.depths.get(name)
        return (
            0 if name in has_covered_caller else 1,
            1 if depth is None else 0,
            depth if depth is not None else 0,
            name,
        )

    return sorted(uncovered, key=key)


def _distance(program, hops, loc):
    """Hops from ``loc`` in a target's hop map; None if it cannot reach
    the target, as ``loc`` is then absent from the map."""
    return hops.get(icfg_locations(program).index(loc))


class TestDepths:
    def test_chain_depths(self, chain_program):
        cg = build_callgraph(chain_program)
        assert cg.depths == {"main": 0, "f": 1, "g": 2}
        assert cg.edges == {("main", "f"), ("f", "g")}

    def test_generated_histogram(self):
        cg = build_callgraph(generate_program(GenParams(2, 3)))
        assert Counter(cg.depths.values()) == {0: 1, 1: 1, 2: 2, 3: 4, 4: 8}
        assert sum(Counter(cg.depths.values()).values()) == 16

    def test_uncalled_function_is_unreachable(self):
        cg = build_callgraph(parse_program(UNREACHABLE_TEXT))
        assert cg.depths.get("orphan") is None
        assert cg.depths.get("f") == 1
        assert cg.reachable() == {"main", "f"}


class TestSonarDistances:
    def test_target_entry_is_zero(self, chain_program):
        index = index_program(chain_program)
        hops = index.distances("g")
        assert _distance(chain_program, hops, ("g", "entry")) == 0

    def test_chain_distance_matches_brute_force(self, chain_program):
        # Independent shortest-path check on the hand-built graph: call
        # edges (main->f, f->g), and return edges from g to the point after
        # f's call and from there, f's return, to the point after main's.
        edges = {
            (("main", "entry"), ("f", "entry")),
            (("f", "entry", 1), ("main", "entry", 1)),
            (("f", "entry"), ("g", "entry")),
            (("g", "entry"), ("f", "entry", 1)),
        }
        want = _brute_force_distance(edges, ("main", "entry"), ("g", "entry"))
        index = index_program(chain_program)
        hops = index.distances("g")
        assert _distance(chain_program, hops, ("main", "entry")) == want == 2

    def test_unreachable_target(self):
        program = parse_program(UNREACHABLE_TEXT)
        index = index_program(program)
        hops = index.distances("orphan")
        assert _distance(program, hops, ("orphan", "entry")) == 0
        assert _distance(program, hops, ("main", "entry")) is None

    def test_unknown_target_rejected(self, chain_program):
        with pytest.raises(ValueError, match="unknown target"):
            index_program(chain_program).distances("nope")

    def test_triangle_inequality_over_generated_program(self):
        program = generate_program(GenParams(2, 2))
        index = index_program(program)
        hops = index.distances("n_3_3")
        for src, dst in interprocedural_edges(program):
            d_src, d_dst = _distance(program, hops, src), _distance(program, hops, dst)
            if d_dst is not None:
                assert d_src is not None and d_src <= 1 + d_dst

    def test_each_call_returns_a_new_map(self):
        # A hop map belongs to the caller that asked for it; changing one
        # leaves the next caller's map whole.
        index = index_program(generate_program(GenParams(2, 2)))
        first = index.distances("n_0_0")
        want = dict(first)
        first.clear()
        second = index.distances("n_0_0")
        assert second is not first
        assert second == want

    def test_the_index_lives_on_its_program_but_not_in_its_copies(self):
        program = generate_program(GenParams(2, 2))
        pickled = pickle.dumps(program)
        index = index_program(program)
        index.distances("n_0_0")
        assert index_program(program) is index
        assert pickle.dumps(program) == pickled
        assert index_program(copy.deepcopy(program)) is not index

    def test_index_rejects_unknown_target(self, chain_program):
        with pytest.raises(ValueError, match="unknown target"):
            index_program(chain_program).distances("nope")

    @pytest.mark.parametrize("name", ["chain", "unreachable", "b2d3", "hand"])
    def test_index_matches_brute_force_everywhere(self, name, chain_program):
        # Every location and every target, None where the target is unreachable.
        program = {
            "chain": chain_program,
            "unreachable": parse_program(UNREACHABLE_TEXT),
            "b2d3": generate_program(GenParams(2, 3)),
            "hand": parse_program(HAND_TEXT),
        }[name]
        edges = interprocedural_edges(program)
        index = index_program(program)
        locations = icfg_locations(program)
        ids = {loc: i for i, loc in enumerate(locations)}
        predecessors = [set() for _ in locations]
        for src, dst in edges:
            predecessors[ids[dst]].add(ids[src])
        assert index.predecessors == tuple(tuple(sorted(preds)) for preds in predecessors)
        for target, func in program.functions.items():
            hops = index.distances(target)
            assert set(hops) <= set(ids.values())  # only locations have hop counts
            goal = (target, next(iter(func.blocks)))
            for loc in locations:
                assert _distance(program, hops, loc) == _brute_force_distance(edges, loc, goal), (
                    target, loc,
                )


def _brute_force_distance(edges, start, goal):
    frontier = [(start, 0)]
    seen = {start}
    while frontier:
        node, dist = frontier.pop(0)
        if node == goal:
            return dist
        for src, dst in sorted(edges):
            if src == node and dst not in seen:
                seen.add(dst)
                frontier.append((dst, dist + 1))
    return None


class TestReverseGraphOnDemand:
    """Only sonar reads the reverse graph: it is built on the first
    ``distances`` call, once per program, and the index keeps no reference
    to its program."""

    @staticmethod
    def _counting(monkeypatch):
        builds = []
        build = callgraph._reverse_graph

        def counting(*args):
            builds.append(args)
            return build(*args)

        monkeypatch.setattr(callgraph, "_reverse_graph", counting)
        return builds

    def test_sf_symex_and_fuzz_never_build_it(self, monkeypatch):
        builds = self._counting(monkeypatch)
        program = generate_program(GenParams(2, 4))
        run_sf(program, HybridConfig(mode="sf", fuzz_budget=32))
        run_symex(program, HybridConfig())
        run_fuzz(program, HybridConfig(fuzz_budget=32))
        index = index_program(program)
        assert builds == [] and getattr(index, "_predecessors", None) is None

    def test_fs_builds_it_once(self, monkeypatch):
        builds = self._counting(monkeypatch)
        program = generate_program(GenParams(2, 4))
        report = run_fs(program, HybridConfig(fuzz_budget=8))
        assert report.solver_stats.queries > 0  # sonar runs happened
        assert len(builds) == 1
        predecessors = index_program(program).predecessors
        run_fs(program, HybridConfig(fuzz_budget=8, rng_seed=1))
        assert len(builds) == 1 and index_program(program).predecessors is predecessors

    def test_copies_build_their_own_reverse_graph(self):
        index = index_program(generate_program(GenParams(2, 3)))
        hops = index.distances("n_0_0")
        for clone in (copy.copy(index), copy.deepcopy(index), pickle.loads(pickle.dumps(index))):
            assert clone == index and getattr(clone, "_predecessors", None) is None
            assert clone.distances("n_0_0") == hops

    def test_an_indexed_program_is_freed_without_a_collection(self):
        program = generate_program(GenParams(2, 3))
        index = index_program(program)
        index.distances("n_0_0")
        ref = weakref.ref(program)
        gc.disable()
        try:
            del program
            assert ref() is None
        finally:
            gc.enable()
        assert index.distances("n_0_0")[index.entries["n_0_0"]] == 0


class TestFrontier:
    def test_everything_covered_gives_empty_list(self, chain_program):
        cg = build_callgraph(chain_program)
        assert frontier_set(cg, {"main", "f", "g"}) == []

    def test_chain_frontier_orders_f_first(self, chain_program):
        cg = build_callgraph(chain_program)
        assert frontier_set(cg, {"main"}) == ["f", "g"]

    def test_right_subtree_root_comes_first(self):
        program = generate_program(GenParams(2, 2))
        cg = build_callgraph(program)
        covered = {"main", "n_0_3", "n_0_1", "n_0_0", "n_1_1"}
        ordered = frontier_set(cg, covered)
        assert ordered[0] == "n_2_3"  # uncovered with covered caller, depth 2
        assert set(ordered) == {"n_2_3", "n_2_2", "n_3_3"}
        assert ordered == ["n_2_3", "n_2_2", "n_3_3"]

    def test_output_is_permutation_of_uncovered(self):
        program = generate_program(GenParams(3, 2))
        cg = build_callgraph(program)
        covered = {"main", "n_0_8"}
        ordered = frontier_set(cg, covered)
        assert sorted(ordered) == sorted(cg.nodes - covered)

    @pytest.mark.parametrize("text", ["b3d2", UNREACHABLE_TEXT])
    def test_next_target_is_the_first_eligible_function_of_the_frontier(self, text):
        program = (
            generate_program(GenParams(3, 2)) if text == "b3d2" else parse_program(text)
        )
        index = index_program(program)
        names = sorted(program.functions)
        rng = random.Random(0)
        for _ in range(300):
            covered = {"main"} | set(rng.sample(names, rng.randrange(len(names))))
            skip = set(rng.sample(names, rng.randrange(3)))
            expected = next(
                (
                    name
                    for name in frontier_set(index.callgraph, covered)
                    if name not in skip and name in index.reachable
                ),
                None,
            )
            assert index.next_target(covered, skip) == expected

    def test_covered_must_be_subset(self, chain_program):
        cg = build_callgraph(chain_program)
        with pytest.raises(ValueError):
            frontier_set(cg, {"main", "stranger"})


class TestTextOutputs:
    def test_dot_lists_every_edge(self, chain_program):
        dot = to_dot(build_callgraph(chain_program))
        assert '"main" -> "f";' in dot
        assert dot.startswith("digraph")

    def test_depths_tsv_has_one_line_per_function(self):
        program = generate_program(GenParams(2, 3))
        tsv = depths_tsv(build_callgraph(program))
        lines = tsv.strip().splitlines()
        assert len(lines) == 16
        assert lines[0] == "main\t0"
