"""Depth tables, intersections, plot files, JSON serialization."""

import itertools

import pytest

from munchkin.callgraph import build_callgraph
from munchkin.executor import CoverageMap
from munchkin.generator import GenParams, generate_program
from munchkin.ir import parse_program
from munchkin.report import (
    average_plot_rows,
    campaign_to_dict,
    coverage_percent,
    depth_table,
    depth_table_tsv,
    emit_plot_dat,
    format_percent_table,
    intersection_report,
    percent_round,
    read_plot_dat,
    write_plot_rows,
)


class TestPercentRound:
    @pytest.mark.parametrize(
        "covered, total, want",
        [(1, 3, 33), (2, 3, 67), (1, 2, 50), (1, 8, 13), (0, 5, 0), (5, 5, 100)],
    )
    def test_half_up(self, covered, total, want):
        assert percent_round(covered, total) == want


class TestDepthTable:
    def test_full_coverage_is_all_hundreds(self):
        program = generate_program(GenParams(2, 2))
        cg = build_callgraph(program)
        rows = depth_table(CoverageMap(frozenset(program.functions)), cg)
        assert all(p == 100 for _, _, _, p in rows)

    def test_main_only_on_tree_depth_three(self):
        program = generate_program(GenParams(2, 3))
        cg = build_callgraph(program)
        rows = depth_table(CoverageMap(frozenset({"main"})), cg)
        assert rows == [(0, 1, 1, 100), (1, 0, 1, 0), (2, 0, 2, 0), (3, 0, 4, 0), (4, 0, 8, 0)]

    def test_totals_sum_to_reachable_count(self):
        program = generate_program(GenParams(3, 2))
        cg = build_callgraph(program)
        rows = depth_table(CoverageMap(frozenset({"main"})), cg)
        assert sum(t for _, _, t, _ in rows) == len(cg.reachable())

    def test_bounds_invariants(self):
        program = generate_program(GenParams(2, 3))
        cg = build_callgraph(program)
        some = frozenset(list(program.functions)[:7])
        for _, covered, total, percent in depth_table(CoverageMap(some), cg):
            assert 0 <= covered <= total
            assert 0 <= percent <= 100

    def test_coverage_percent_counts_reachable_functions_only(self):
        program = parse_program(
            "program p\n"
            "func main()\nblock entry:\n  call f()\n  ret\n"
            "func f()\nblock entry:\n  ret\n"
            "func orphan()\nblock entry:\n  ret\n"
        )
        rows = depth_table(CoverageMap(frozenset({"main"})), build_callgraph(program))
        assert coverage_percent(rows) == 50

    def test_unknown_functions_rejected(self):
        program = generate_program(GenParams(2, 1))
        cg = build_callgraph(program)
        with pytest.raises(ValueError):
            depth_table(CoverageMap(frozenset({"ghost"})), cg)


class TestGoldenLayout:
    def test_multi_technique_depth_rows_render_as_tsv(self):
        rows = [
            (0, 100, 100, 100),
            (1, 100, 100, 100),
            (2, 46, 63, 79),
            (3, 26, 63, 74),
            (4, 5, 43, 45),
            (5, 6, 22, 22),
            (6, 0, 0, 0),
        ]
        rendered = format_percent_table(("depth", "A", "B", "C"), rows)
        assert rendered == (
            "depth\tA\tB\tC\n"
            "0\t100\t100\t100\n"
            "1\t100\t100\t100\n"
            "2\t46\t63\t79\n"
            "3\t26\t63\t74\n"
            "4\t5\t43\t45\n"
            "5\t6\t22\t22\n"
            "6\t0\t0\t0\n"
        )

    def test_depth_table_tsv_header(self):
        text = depth_table_tsv([(0, 1, 1, 100)])
        assert text.splitlines()[0] == "depth\tcovered\ttotal\tpercent"


class TestIntersections:
    def test_identical_maps_intersect_at_their_own_percent(self):
        cov = CoverageMap(frozenset({"main", "a"}))
        result = intersection_report({"t1": cov, "t2": cov}, total=4)
        assert result[("t1", "t2")] == 50

    def test_disjoint_beyond_main(self):
        program = generate_program(GenParams(2, 2))
        total = len(build_callgraph(program).reachable())
        left = CoverageMap(frozenset({"main", "n_0_3", "n_0_1", "n_0_0"}))
        right = CoverageMap(frozenset({"main", "n_2_3", "n_3_3"}))
        result = intersection_report({"l": left, "r": right}, total)
        assert result[("l", "r")] == percent_round(1, total)  # main only

    def test_matches_explicit_enumeration(self):
        maps = {
            "a": CoverageMap(frozenset({"main", "f", "g"})),
            "b": CoverageMap(frozenset({"main", "g", "h"})),
            "c": CoverageMap(frozenset({"main", "g"})),
        }
        total = 5
        result = intersection_report(maps, total)
        for pair in itertools.combinations(sorted(maps), 2):
            want = len(maps[pair[0]].functions & maps[pair[1]].functions)
            assert result[pair] == percent_round(want, total)
        all_names = tuple(sorted(maps))
        want_all = len(
            maps["a"].functions & maps["b"].functions & maps["c"].functions
        )
        assert result[all_names] == percent_round(want_all, total)

    def test_intersection_never_exceeds_any_member(self):
        maps = {
            "a": CoverageMap(frozenset({"main", "f"})),
            "b": CoverageMap(frozenset({"main", "f", "g", "h"})),
        }
        result = intersection_report(maps, total=8)
        for names, pct in result.items():
            for name in names:
                own = percent_round(len(maps[name].functions), 8)
                assert pct <= own

    def test_requires_two_techniques(self):
        with pytest.raises(ValueError):
            intersection_report({"only": CoverageMap()}, total=3)


class TestPlotData:
    def test_single_depth_row(self, tmp_path):
        path = tmp_path / "plot.dat"
        table = [(0, 1, 1, 100)]
        emit_plot_dat([table, table, table, table], path)
        assert path.read_text() == "0 100 100 100 100\n"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "plot.dat"
        tables = [
            [(0, 1, 1, 100), (1, 1, 2, 50)],
            [(0, 1, 1, 100), (1, 0, 2, 0)],
            [(0, 1, 1, 100), (1, 2, 2, 100)],
            [(0, 1, 1, 100), (1, 1, 2, 50)],
        ]
        emit_plot_dat(tables, path)
        rows = read_plot_dat(path)
        assert rows == [(0, 100, 100, 100, 100), (1, 50, 0, 100, 50)]
        assert all(len(row) == 5 for row in rows)

    def test_misaligned_tables_rejected(self, tmp_path):
        good = [(0, 1, 1, 100)]
        bad = [(1, 1, 1, 100)]
        with pytest.raises(ValueError):
            emit_plot_dat([good, good, good, bad], tmp_path / "x.dat")

    def test_averaging_across_programs(self, tmp_path):
        a = [(0.0, 100.0, 100.0, 100.0, 100.0), (1.0, 50.0, 0.0, 100.0, 50.0)]
        b = [(0.0, 100.0, 50.0, 100.0, 100.0)]
        averaged = average_plot_rows([a, b])
        assert averaged[0] == (0.0, 100.0, 75.0, 100.0, 100.0)
        assert averaged[1] == (1.0, 50.0, 0.0, 100.0, 50.0)
        write_plot_rows(averaged, tmp_path / "avg.dat")
        assert read_plot_dat(tmp_path / "avg.dat") == averaged


class TestCampaignJson:
    def test_schema_fields_present(self):
        from munchkin.orchestrator import HybridConfig, run_fs

        program = generate_program(GenParams(2, 1))
        report = run_fs(program, HybridConfig(mode="fs", fuzz_budget=8, rng_seed=1))
        payload = campaign_to_dict(report)
        assert set(payload) == {
            "technique",
            "coverage",
            "per_depth",
            "solver_stats",
            "executions",
            "test_suite",
            "unreachable",
            "duration",
        }
        assert payload["coverage"]["functions"] == sorted(payload["coverage"]["functions"])
        assert payload["coverage"]["edge_count"] == len(payload["coverage"]["edges"])
