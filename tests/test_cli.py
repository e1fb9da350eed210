"""Command line interface behavior and exit codes."""

import hashlib
import json

import pytest

from munchkin.cli import main
from munchkin.executor import write_input_file
from munchkin.ir import parse_program
from munchkin.report import average_plot_rows, read_plot_dat, write_plot_rows


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def tree_mir(tmp_path):
    path = tmp_path / "p.mir"
    code = run_cli("generate", "--branching", "2", "--depth", "3", "--out", str(path))
    assert code == 0
    return path


class TestGenerateAndCallgraph:
    def test_generate_then_depths_lists_sixteen_functions(self, tree_mir, capsys):
        capsys.readouterr()
        assert run_cli("callgraph", str(tree_mir), "--depths") == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 16

    def test_generated_file_parses(self, tree_mir):
        program = parse_program(tree_mir.read_text())
        assert len(program.functions) == 16

    def test_dot_output(self, tree_mir, capsys):
        capsys.readouterr()
        assert run_cli("callgraph", str(tree_mir), "--dot") == 0
        assert capsys.readouterr().out.startswith("digraph")


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("frobnicate") == 1

    def test_bad_flag_is_usage_error(self, tree_mir):
        assert run_cli("callgraph", str(tree_mir), "--no-such-flag") == 1

    def test_missing_file_is_campaign_failure(self, capsys):
        assert run_cli("callgraph", "/nonexistent/p.mir") == 2

    def test_invalid_params_are_campaign_failure(self, tmp_path):
        assert (
            run_cli(
                "generate", "--branching", "99", "--depth", "1",
                "--out", str(tmp_path / "x.mir"),
            )
            == 2
        )

    @pytest.mark.parametrize("kind", ["missing", "file"])
    def test_seed_path_that_is_not_a_directory_is_campaign_failure(
        self, tree_mir, tmp_path, kind, capsys
    ):
        seeds = tmp_path / "seeds"
        if kind == "file":
            write_input_file(seeds, (5,))
        code = run_cli(
            "fuzz", str(tree_mir), "--budget", "0", "--seeds", str(seeds),
            "--out", str(tmp_path / "fz"),
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_symex_target(self, tree_mir, tmp_path):
        assert (
            run_cli(
                "symex", str(tree_mir), "--search", "sonar", "--target", "ghost",
                "--out", str(tmp_path / "out"),
            )
            == 2
        )


class TestCampaignCommands:
    def test_fuzz_writes_corpus_and_report(self, tree_mir, tmp_path, capsys):
        out = tmp_path / "fuzz-out"
        assert (
            run_cli(
                "fuzz", str(tree_mir), "--budget", "50", "--rng-seed", "3",
                "--out", str(out),
            )
            == 0
        )
        assert (out / "report-AFL-like.json").exists()
        assert list(out.glob("id-*.txt"))
        written = {p.relative_to(tmp_path).parts[0] for p in tmp_path.rglob("*") if p.is_file()}
        assert written <= {"fuzz-out", "p.mir"}  # nothing outside --out

    def test_symex_sonar_with_target(self, tree_mir, tmp_path, capsys):
        out = tmp_path / "sx"
        assert (
            run_cli(
                "symex", str(tree_mir), "--search", "sonar", "--target", "n_6_6",
                "--out", str(out),
            )
            == 0
        )
        assert "target reached: True" in capsys.readouterr().out
        assert (out / "report-SymexOnly.json").exists()

    def test_hybrid_fs_reaches_full_coverage(self, tree_mir, tmp_path, capsys):
        out = tmp_path / "hy"
        assert (
            run_cli(
                "hybrid", str(tree_mir), "--mode", "fs", "--fuzz-budget", "40",
                "--rng-seed", "9", "--out", str(out),
            )
            == 0
        )
        assert "coverage 100%" in capsys.readouterr().out
        payload = json.loads((out / "report-FS.json").read_text())
        assert payload["technique"] == "FS"

    def test_baselines_writes_both_reports(self, tree_mir, tmp_path):
        out = tmp_path / "base"
        assert (
            run_cli(
                "baselines", str(tree_mir), "--fuzz-budget", "30", "--rng-seed", "2",
                "--out", str(out),
            )
            == 0
        )
        assert (out / "report-AFL-like.json").exists()
        assert (out / "report-SymexOnly.json").exists()

    def test_seed_directory_is_honored(self, tree_mir, tmp_path, capsys):
        seeds = tmp_path / "seeds"
        seeds.mkdir()
        write_input_file(seeds / "a.txt", (5,))
        out = tmp_path / "fz"
        assert (
            run_cli(
                "fuzz", str(tree_mir), "--budget", "0", "--seeds", str(seeds),
                "--out", str(out),
            )
            == 0
        )
        assert "1 executions" in capsys.readouterr().out

    def test_empty_seed_directory_falls_back_to_the_default_seed(
        self, tree_mir, tmp_path, capsys
    ):
        seeds = tmp_path / "seeds"
        seeds.mkdir()
        out = tmp_path / "fz"
        assert (
            run_cli(
                "fuzz", str(tree_mir), "--budget", "0", "--seeds", str(seeds),
                "--out", str(out),
            )
            == 0
        )
        assert "1 executions" in capsys.readouterr().out
        assert json.loads((out / "report-AFL-like.json").read_text())["test_suite"] == [[0]]

    def test_fuzz_and_symex_reports_equal_the_baselines(self, tmp_path, capsys):
        # Held already before `fuzz` and `symex` shared the campaign report
        # builder with `baselines` (checked on the code as it was then).
        program = tmp_path / "b3d3.mir"
        assert run_cli(
            "generate", "--branching", "3", "--depth", "3", "--out", str(program)
        ) == 0
        assert run_cli(
            "fuzz", str(program), "--budget", "300", "--rng-seed", "5",
            "--out", str(tmp_path / "f"),
        ) == 0
        assert run_cli(
            "symex", str(program), "--rng-seed", "5", "--out", str(tmp_path / "s")
        ) == 0
        assert run_cli(
            "baselines", str(program), "--fuzz-budget", "300", "--rng-seed", "5",
            "--out", str(tmp_path / "b"),
        ) == 0
        for technique, single in (("AFL-like", "f"), ("SymexOnly", "s")):
            name = f"report-{technique}.json"
            alone = json.loads((tmp_path / single / name).read_text())
            baseline = json.loads((tmp_path / "b" / name).read_text())
            assert alone.pop("duration") > 0
            assert baseline.pop("duration") > 0
            assert alone == baseline


class TestReportCommand:
    def test_four_reports_produce_plot_dat(self, tree_mir, tmp_path, capsys):
        rep = tmp_path / "reports"
        base = tmp_path / "base"
        hy_fs = tmp_path / "hy-fs"
        hy_sf = tmp_path / "hy-sf"
        run_cli("baselines", str(tree_mir), "--fuzz-budget", "30", "--out", str(base))
        run_cli("hybrid", str(tree_mir), "--mode", "fs", "--fuzz-budget", "30", "--out", str(hy_fs))
        run_cli("hybrid", str(tree_mir), "--mode", "sf", "--fuzz-budget", "30", "--out", str(hy_sf))
        assert (
            run_cli(
                "report", str(tree_mir),
                str(base / "report-AFL-like.json"),
                str(base / "report-SymexOnly.json"),
                str(hy_fs / "report-FS.json"),
                str(hy_sf / "report-SF.json"),
                "--out", str(rep),
            )
            == 0
        )
        plot = rep / "plot.dat"
        assert plot.exists()
        for line in plot.read_text().strip().splitlines():
            assert len(line.split()) == 5
        assert (rep / "intersections.json").exists()


class TestConfigAndEnv:
    def test_flag_beats_config(self, tree_mir, tmp_path):
        config = tmp_path / "cfg"
        config.write_text("rng_seed = 1\nbudget = 10\n")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli("--config", str(config), "fuzz", str(tree_mir), "--out", str(out_a))
        run_cli(
            "--config", str(config), "fuzz", str(tree_mir), "--budget", "10",
            "--rng-seed", "1", "--out", str(out_b),
        )
        report_a = json.loads((out_a / "report-AFL-like.json").read_text())
        report_b = json.loads((out_b / "report-AFL-like.json").read_text())
        report_a.pop("duration"), report_b.pop("duration")
        assert report_a == report_b

    def test_env_var_supplies_output_root(self, tree_mir, tmp_path, monkeypatch):
        monkeypatch.setenv("MUNCHKIN_OUT", str(tmp_path / "root"))
        assert run_cli("fuzz", str(tree_mir), "--budget", "5") == 0
        assert (tmp_path / "root" / "fuzz-out" / "report-AFL-like.json").exists()


class TestTable1:
    def test_runs_deterministically(self, capsys):
        args = (
            "table1", "--fuzz-budget", "24", "--rng-seed", "7",
            "--per-target-queries", "64",
        )
        assert run_cli(*args) == 0
        first = capsys.readouterr().out
        assert run_cli(*args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert len(first.strip().splitlines()) == 13  # header + 12 programs

    # sha256 of stdout and of plot-avg.dat, computed on the code as it was
    # before the campaign reports and printed percentages shared one builder.
    # A change here means a Table 1 number changed.
    def test_output_is_pinned(self, tmp_path, capsys):
        out = tmp_path / "grid"
        assert run_cli(
            "table1", "--fuzz-budget", "24", "--rng-seed", "7", "--out", str(out)
        ) == 0
        stdout = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(stdout).hexdigest() == (
            "d22d86d8b21ede1cfa5260c08d13548623ae377dec29975cf84e9d378405e9b9"
        )
        assert hashlib.sha256((out / "plot-avg.dat").read_bytes()).hexdigest() == (
            "65a6f91ed3769de1993f2bb2781bb2d29804c256d98855cc4c10b73e8fed005d"
        )

    def test_average_matches_the_written_plot_files(self, tmp_path, capsys):
        out = tmp_path / "grid"
        assert run_cli("table1", "--fuzz-budget", "24", "--out", str(out)) == 0
        per_program = [read_plot_dat(out / f"plot-p{i}.dat") for i in range(1, 13)]
        write_plot_rows(average_plot_rows(per_program), tmp_path / "reread.dat")
        assert (out / "plot-avg.dat").read_bytes() == (tmp_path / "reread.dat").read_bytes()
