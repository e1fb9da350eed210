"""Call-graph depths, sonar distance fields, frontier ordering."""

import copy
import pickle
import random

import pytest

from munchkin.callgraph import (
    build_callgraph,
    depths_tsv,
    frontier_set,
    index_program,
    interprocedural_edges,
    to_dot,
)
from munchkin.generator import GenParams, generate_program
from munchkin.ir import parse_program

UNREACHABLE_TEXT = """\
program p

func main()
block entry:
  call f()
  ret

func f()
block entry:
  ret

func orphan()
block entry:
  ret
"""


class TestDepths:
    def test_chain_depths(self, chain_program):
        cg = build_callgraph(chain_program)
        assert cg.depths == {"main": 0, "f": 1, "g": 2}
        assert cg.edges == {("main", "f"), ("f", "g")}

    def test_generated_histogram(self):
        cg = build_callgraph(generate_program(GenParams(2, 3)))
        assert cg.depth_histogram() == {0: 1, 1: 1, 2: 2, 3: 4, 4: 8}
        assert sum(cg.depth_histogram().values()) == 16

    def test_uncalled_function_is_unreachable(self):
        cg = build_callgraph(parse_program(UNREACHABLE_TEXT))
        assert cg.depth("orphan") is None
        assert cg.depth("f") == 1
        assert cg.reachable() == {"main", "f"}


class TestSonarDistances:
    def test_target_entry_is_zero(self, chain_program):
        df = index_program(chain_program).distances("g")
        assert df.at("g", "entry") == 0

    def test_chain_distance_matches_brute_force(self, chain_program):
        # Independent shortest-path check on the hand-built block graph:
        # call edges (main->f, f->g), return edges (f->main, g->f).
        edges = {
            (("main", "entry"), ("f", "entry")),
            (("f", "entry"), ("main", "entry")),
            (("f", "entry"), ("g", "entry")),
            (("g", "entry"), ("f", "entry")),
        }
        want = _brute_force_distance(edges, ("main", "entry"), ("g", "entry"))
        df = index_program(chain_program).distances("g")
        assert df.at("main", "entry") == want == 2

    def test_unreachable_target(self):
        program = parse_program(UNREACHABLE_TEXT)
        df = index_program(program).distances("orphan")
        assert df.at("orphan", "entry") == 0
        assert df.at("main", "entry") is None

    def test_unknown_target_rejected(self, chain_program):
        with pytest.raises(ValueError, match="unknown target"):
            index_program(chain_program).distances("nope")

    def test_triangle_inequality_over_generated_program(self):
        program = generate_program(GenParams(2, 2))
        df = index_program(program).distances("n_3_3")
        for src, dst in interprocedural_edges(program):
            d_src, d_dst = df.at(*src), df.at(*dst)
            if d_dst is not None:
                assert d_src is not None and d_src <= 1 + d_dst

    def test_each_call_returns_a_new_field(self):
        # A field belongs to the caller that asked for it; expanding one
        # leaves the next caller's field at the target's entry.
        index = index_program(generate_program(GenParams(2, 2)))
        first = index.distances("n_0_0")
        while first.expand():
            pass
        second = index.distances("n_0_0")
        assert second is not first
        assert second.settled == 1 and second.level == [index.entries["n_0_0"]]

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

    @pytest.mark.parametrize("name", ["chain", "unreachable", "b2d3"])
    def test_index_matches_brute_force_everywhere(self, name, chain_program):
        # Every location and every target, None where the target is unreachable.
        program = {
            "chain": chain_program,
            "unreachable": parse_program(UNREACHABLE_TEXT),
            "b2d3": generate_program(GenParams(2, 3)),
        }[name]
        edges = interprocedural_edges(program)
        index = index_program(program)
        for target, func in program.functions.items():
            df = index.distances(target)
            goal = (target, func.entry_block)
            for loc in index.locations:
                assert df.at(*loc) == _brute_force_distance(edges, loc, goal), (target, loc)


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
