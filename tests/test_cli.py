"""Command line interface behavior and exit codes."""

import dataclasses
import functools
import hashlib
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from munchkin.callgraph import index_program
from munchkin.cli import CAMPAIGN_KEYS, main
from munchkin.executor import read_seed_dir, write_input_file
from munchkin.fuzzer import fuzz_campaign
from munchkin.generator import GenParams, generate_program
from munchkin.ir import parse_program, serialize_program
from munchkin.orchestrator import (
    TECHNIQUE_FUZZ,
    TECHNIQUE_SYMEX,
    HybridConfig,
    fuzz_config,
    make_report,
    run_baselines,
    run_fs,
    run_fuzz,
    run_hybrid,
    run_sf,
    run_symex,
)
from munchkin.report import (
    average_plot_rows,
    campaign_json_bytes,
    campaign_to_dict,
    write_plot_rows,
)
from munchkin.solver import SolverStats
from munchkin.symex import Strategy, SymexLimits, symex_campaign

from conftest import UNREACHABLE_TEXT, read_plot_dat


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture
def tree_mir(tmp_path):
    path = tmp_path / "p.mir"
    code = run_cli("generate", "--branching", "2", "--depth", "3", "--out", str(path))
    assert code == 0
    return path


class TestGenerateAndCallgraph:
    # sha256 of `callgraph` on the generated b2d3 tree, TSV and --dot,
    # recorded when the call graph was still built from the IR.
    TREE_TSV_SHA256 = "362061a352a7fcab03980d31f192c8509d7d37db50f312e5b5344e72e873815b"
    TREE_DOT_SHA256 = "c5300be0af903e69a88346a294c5baa69794f6b52d0b84b5b6ce57002ef5c8c8"

    def test_generate_then_depths_lists_sixteen_functions(self, tree_mir, capsys):
        capsys.readouterr()
        assert run_cli("callgraph", str(tree_mir)) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 16
        assert hashlib.sha256(out.encode()).hexdigest() == self.TREE_TSV_SHA256

    def test_generated_file_parses(self, tree_mir):
        program = parse_program(tree_mir.read_text())
        assert len(program.functions) == 16

    def test_dot_output(self, tree_mir, capsys):
        capsys.readouterr()
        assert run_cli("callgraph", str(tree_mir), "--dot") == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert hashlib.sha256(out.encode()).hexdigest() == self.TREE_DOT_SHA256

    @pytest.mark.parametrize(
        "flags, want",
        [
            ((), "main\t0\nf\t1\norphan\tunreachable\n"),
            (
                ("--dot",),
                'digraph callgraph {\n  "f";\n  "main";\n  "orphan";\n'
                '  "main" -> "f";\n}\n',
            ),
        ],
        ids=["tsv", "dot"],
    )
    def test_output_of_a_program_with_an_unreachable_function(
        self, flags, want, tmp_path, capsys
    ):
        path = tmp_path / "p.mir"
        path.write_text(UNREACHABLE_TEXT)
        capsys.readouterr()
        assert run_cli("callgraph", str(path), *flags) == 0
        assert capsys.readouterr().out == want


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
            "fuzz", str(tree_mir), "--fuzz-budget", "0", "--seeds", str(seeds),
            "--out", str(tmp_path / "fz"),
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_max_inputs_is_campaign_failure(self, tree_mir, tmp_path, capsys):
        code = run_cli(
            "symex", str(tree_mir), "--max-inputs", "-1", "--out", str(tmp_path / "out")
        )
        assert code == 2
        assert "max_inputs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("symex", "--max-inputs", "-1"),
            ("hybrid", "--mode", "fs", "--per-target-queries", "0"),
            ("fuzz", "--fuzz-budget", "-1"),
        ],
        ids=["symex", "hybrid", "fuzz"],
    )
    def test_a_failed_campaign_leaves_no_output_directory(self, tree_mir, tmp_path, argv):
        out = tmp_path / "bad-out"
        assert run_cli(argv[0], str(tree_mir), *argv[1:], "--out", str(out)) == 2
        assert not out.exists()

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
                "fuzz", str(tree_mir), "--fuzz-budget", "50", "--rng-seed", "3",
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
                "fuzz", str(tree_mir), "--fuzz-budget", "0", "--seeds", str(seeds),
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
                "fuzz", str(tree_mir), "--fuzz-budget", "0", "--seeds", str(seeds),
                "--out", str(out),
            )
            == 0
        )
        assert "1 executions" in capsys.readouterr().out
        assert json.loads((out / "report-AFL-like.json").read_text())["test_suite"] == [[0]]

    @pytest.mark.parametrize("spelling", ["flag", "config"])
    def test_an_empty_seed_path_is_an_input_failure(
        self, tree_mir, tmp_path, monkeypatch, capsys, spelling
    ):
        # An empty path is not the working directory: a stray test case
        # there must not become the fuzz seed.
        monkeypatch.chdir(tmp_path)
        write_input_file(tmp_path / "notes.txt", (5,))
        out = tmp_path / "fz"
        if spelling == "flag":
            argv = ("fuzz", str(tree_mir), "--seeds", "", "--out", str(out))
        else:
            (tmp_path / "campaign.cfg").write_text("seeds =\n", encoding="utf-8")
            argv = ("--config", "campaign.cfg", "fuzz", str(tree_mir), "--out", str(out))
        assert run_cli(*argv) == 2
        assert "seed path is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_fuzz_and_symex_reports_equal_the_baselines(self, tmp_path, capsys):
        # Held already before `fuzz` and `symex` shared the campaign report
        # builder with `baselines` (checked on the code as it was then).
        program = tmp_path / "b3d3.mir"
        assert run_cli(
            "generate", "--branching", "3", "--depth", "3", "--out", str(program)
        ) == 0
        assert run_cli(
            "fuzz", str(program), "--fuzz-budget", "300", "--rng-seed", "5",
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

    @pytest.mark.parametrize(
        "text",
        ["{}", "[1]", '{"technique": "FS", "coverage": {"functions": 5}}', "{"],
        ids=["no-keys", "list", "functions-not-a-list", "not-json"],
    )
    def test_a_malformed_report_is_input_failure(self, tree_mir, tmp_path, text, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run_cli("report", str(tree_mir), str(bad), "--out", str(tmp_path / "r")) == 2
        assert f"{bad}: not a campaign report" in capsys.readouterr().err

    @pytest.mark.parametrize("second", ["copy", "same"])
    def test_two_reports_of_one_technique_are_input_failure(
        self, tree_mir, tmp_path, second, capsys
    ):
        fs = tmp_path / "fs"
        run_cli("hybrid", str(tree_mir), "--mode", "fs", "--fuzz-budget", "30", "--out", str(fs))
        first = fs / "report-FS.json"
        other = first if second == "same" else tmp_path / "copy.json"
        other.write_bytes(first.read_bytes())
        base = tmp_path / "base"
        run_cli("baselines", str(tree_mir), "--fuzz-budget", "30", "--out", str(base))
        out = tmp_path / "r"
        capsys.readouterr()
        code = run_cli(
            "report", str(tree_mir), str(first), str(base / "report-AFL-like.json"),
            str(other), "--out", str(out),
        )
        assert code == 2
        assert f"{first} and {other} are both FS reports" in capsys.readouterr().err
        assert not out.exists()


# Non-default values for every campaign key, and the keys each subcommand reads.
CAMPAIGN_VALUES = {
    "fuzz_budget": 40, "symex_states": 30, "symex_queries": 12,
    "per_target_queries": 8, "per_target_states": 6, "step_limit": 12,
    "max_inputs": 1, "rng_seed": 11,
}
FUZZ_KEYS = ("fuzz_budget", "step_limit", "rng_seed", "seeds")
SYMEX_KEYS = ("symex_states", "symex_queries", "step_limit", "max_inputs", "rng_seed")
ALL_KEYS = (*CAMPAIGN_VALUES, "seeds")


def as_flags(values, keys):
    return [item for key in keys for item in ("--" + key.replace("_", "-"), str(values[key]))]


COMMANDS = {
    "fuzz": (["fuzz"], FUZZ_KEYS),
    "symex": (["symex"], SYMEX_KEYS),
    "hybrid-fs": (["hybrid", "--mode", "fs"], ALL_KEYS),
    "hybrid-sf": (["hybrid", "--mode", "sf"], ALL_KEYS),
    "baselines": (["baselines"], ALL_KEYS),
}


def library_reports(command, program, cfg):
    """What the library makes of ``cfg``, with ``duration`` removed."""
    started = time.perf_counter()
    if command == "fuzz":
        result = fuzz_campaign(program, list(cfg.seeds), fuzz_config(cfg))
        reports = [make_report(
            TECHNIQUE_FUZZ, index_program(program), result.cumulative, SolverStats(),
            result.executions, result.test_suite(), started,
        )]
    elif command == "symex":
        result = symex_campaign(
            program, Strategy.BASELINE, cfg.symex_limits, cfg.max_inputs,
            rng_seed=cfg.rng_seed, replay_step_limit=cfg.step_limit,
        )
        suite = [tc.values for tc in result.test_cases]
        reports = [make_report(
            TECHNIQUE_SYMEX, index_program(program), result.coverage,
            result.stats, len(suite), suite, started,
        )]
    elif command == "baselines":
        reports = list(run_baselines(program, cfg))
    else:
        reports = [run_hybrid(program, cfg)]
    dicts = {rep.technique: campaign_to_dict(rep) for rep in reports}
    for payload in dicts.values():
        payload.pop("duration")
    return dicts


def written_reports(out):
    dicts = {}
    for path in out.glob("report-*.json"):
        payload = json.loads(path.read_text())
        payload.pop("duration")
        dicts[payload["technique"]] = payload
    return dicts


# Integers that are not spelled as `.mir` literals (-?[0-9]+, ASCII digits).
NOT_LITERALS = ["1_0", "\u0661\u0662", "+1", "1.0", "0x10", "1e3", "- 1", "\uff11"]


@pytest.mark.parametrize("text", NOT_LITERALS)
class TestIntegerSpelling:
    def test_in_a_seed_file_is_input_failure(self, tree_mir, tmp_path, text, capsys):
        seeds = tmp_path / "seeds"
        seeds.mkdir()
        (seeds / "a.txt").write_text(f"5\n{text}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("fuzz", str(tree_mir), "--seeds", str(seeds), "--out", str(out)) == 2
        assert f"{seeds / 'a.txt'}: line 2: not an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_in_a_config_value_is_input_failure(self, tree_mir, tmp_path, text, capsys):
        config = tmp_path / "cfg"
        config.write_text(f"rng_seed = 1\nfuzz_budget = {text}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli("--config", str(config), "fuzz", str(tree_mir), "--out", str(out)) == 2
        assert f"{config}: line 2: fuzz_budget = {text!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--fuzz-budget", "--rng-seed", "--step-limit"])
    def test_in_a_flag_is_usage_error(self, tree_mir, tmp_path, text, flag):
        out = tmp_path / "out"
        assert run_cli("fuzz", str(tree_mir), flag, text, "--out", str(out)) == 1
        assert not out.exists()

    def test_in_a_generate_flag_is_usage_error(self, tmp_path, text):
        out = tmp_path / "p.mir"
        assert run_cli(
            "generate", "--branching", "2", "--depth", "2", "--seed", text, "--out", str(out)
        ) == 1
        assert not out.exists()


def test_literal_spellings_read_as_their_values(tree_mir, tmp_path):
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    (seeds / "a.txt").write_text("007\n-0\n -12 \n", encoding="utf-8")
    assert read_seed_dir(seeds) == [(7, 0, -12)]
    config = tmp_path / "cfg"
    config.write_text("rng_seed = 007\nfuzz_budget = '12'\n", encoding="utf-8")
    for argv in (["--config", str(config)], []):
        flags = [] if argv else ["--rng-seed", "7", "--fuzz-budget", "012"]
        out = tmp_path / f"out{len(argv)}"
        assert run_cli(*argv, "fuzz", str(tree_mir), *flags, "--out", str(out)) == 0
        assert json.loads((out / "report-AFL-like.json").read_text())["executions"] == 13


def test_only_a_newline_ends_a_config_line(tree_mir, tmp_path):
    config = tmp_path / "cfg"
    config.write_text("rng_seed = 7\nfuzz_budget = 12  # note\u2028 more\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("--config", str(config), "fuzz", str(tree_mir), "--out", str(out)) == 0
    assert json.loads((out / "report-AFL-like.json").read_text())["executions"] == 13


def test_only_a_newline_ends_a_seed_file_line(tree_mir, tmp_path, capsys):
    seeds = tmp_path / "seeds"
    seeds.mkdir()
    (seeds / "a.txt").write_text("5\x0c7\n", encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli("fuzz", str(tree_mir), "--seeds", str(seeds), "--out", str(out)) == 2
    assert f"{seeds / 'a.txt'}: line 1: not an integer" in capsys.readouterr().err
    assert not out.exists()


class TestConfigAndEnv:
    @pytest.mark.parametrize("source", ["flags", "config"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_campaign_runs_the_config_it_is_given(
        self, tree_mir, tmp_path, command, source, capsys
    ):
        seeds = tmp_path / "seeds"
        seeds.mkdir()
        write_input_file(seeds / "a.txt", (5,))
        write_input_file(seeds / "b.txt", (2,))
        values = {**CAMPAIGN_VALUES, "seeds": str(seeds)}
        words, keys = COMMANDS[command]
        config = tmp_path / "cfg"
        if source == "flags":  # over a config file that sets every key otherwise
            config.write_text(
                "".join(f"{key} = {value + 1}\n" for key, value in CAMPAIGN_VALUES.items())
                + f"seeds = {tmp_path / 'missing'}\n"
            )
            options = as_flags(values, keys)
        else:  # a config file may hold keys this subcommand does not read
            config.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
            options = []
        out = tmp_path / "out"
        assert run_cli(
            "--config", str(config), *words, str(tree_mir), *options, "--out", str(out)
        ) == 0
        cfg = HybridConfig(
            mode="sf" if command == "hybrid-sf" else "fs",
            fuzz_budget=40, symex_limits=SymexLimits(30, 12),
            per_target_query_budget=8, per_target_state_budget=6,
            seeds=((5,), (2,)), rng_seed=11, step_limit=12, max_inputs=1,
        )
        program = parse_program(tree_mir.read_text())
        assert written_reports(out) == library_reports(command, program, cfg)

    def test_empty_config_runs_the_library_defaults(self, tree_mir, tmp_path):
        config = tmp_path / "cfg"
        config.write_text("# nothing set\n")
        out = tmp_path / "out"
        assert run_cli("--config", str(config), "baselines", str(tree_mir), "--out", str(out)) == 0
        program = parse_program(tree_mir.read_text())
        assert written_reports(out) == library_reports("baselines", program, HybridConfig())

    # "--fuzz" and "--symex-q" are prefixes of table flags, not names of their own.
    @pytest.mark.parametrize(
        "flag", ["--budget", "--max-states", "--max-queries", "--fuzz", "--symex-q"]
    )
    def test_a_flag_outside_the_key_table_is_usage_error(
        self, tree_mir, flag, tmp_path, monkeypatch, capsys
    ):
        # A campaign the flag wrongly reached writes under tmp_path, not here.
        monkeypatch.setenv("MUNCHKIN_OUT", str(tmp_path))
        for command in ("fuzz", "symex"):
            assert run_cli(command, str(tree_mir), flag, "5") == 1

    @pytest.mark.parametrize(
        "line", ["budget = 5", "max_states = 5", "max_queries = 5", "fuzz_bugdet = 5"]
    )
    def test_a_config_key_outside_the_key_table_is_input_failure(
        self, tree_mir, tmp_path, line, capsys
    ):
        config = tmp_path / "cfg"
        config.write_text(f"rng_seed = 1\n{line}\n")
        out = tmp_path / "out"
        assert run_cli("--config", str(config), "fuzz", str(tree_mir), "--out", str(out)) == 2
        key = line.split()[0]
        assert f"{config}: line 2: unknown key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_a_config_value_that_is_not_an_integer_is_input_failure(
        self, tree_mir, tmp_path, capsys
    ):
        config = tmp_path / "cfg"
        config.write_text("fuzz_budget = lots\n")
        assert run_cli("--config", str(config), "fuzz", str(tree_mir)) == 2
        assert f"{config}: line 1: fuzz_budget" in capsys.readouterr().err

    def test_readme_key_table_matches_the_cli(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = [line.split("|")[1:4] for line in readme.splitlines() if line.startswith("| `--")]
        table = {key.strip(" `"): (flag.strip(" `"), default.strip()) for flag, key, default in rows}
        assert set(table) == set(CAMPAIGN_KEYS)
        for key, (field, _, _) in CAMPAIGN_KEYS.items():
            flag, default = table[key]
            assert flag == "--" + key.replace("_", "-")
            if key != "seeds":
                assert default == str(functools.reduce(getattr, field.split("."), HybridConfig()))

    # A value of each key that changes b2d4's report under every campaign
    # that reads the key.
    _OTHER_VALUES = {
        "fuzz_budget": 3, "symex_states": 5, "symex_queries": 5,
        "per_target_queries": 1, "per_target_states": 1, "step_limit": 3,
        "max_inputs": 0, "rng_seed": 9, "seeds": ((5,), (-3,), (99,)),
    }

    @pytest.mark.parametrize("campaign", ["fuzz", "symex", "FS", "SF"])
    def test_readme_names_the_campaigns_that_read_each_key(self, campaign):
        # A key changes a campaign's report exactly when the README's "Read
        # by" column names that campaign; the baselines are the fuzz and
        # symex campaigns, and table1 runs every campaign.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = [line.split("|")[2:5] for line in readme.splitlines() if line.startswith("| `--")]
        read_by = {
            key.strip(" `"): {name.strip() for name in names.split(",")}
            for key, _, names in rows
        }
        runner = {
            "fuzz": lambda program, cfg: run_fuzz(program, cfg)[0],
            "symex": lambda program, cfg: run_symex(program, cfg)[0],
            "FS": run_fs,
            "SF": lambda program, cfg: run_sf(program, dataclasses.replace(cfg, mode="sf")),
        }[campaign]
        baseline = {"fuzz": "fuzz baseline", "symex": "symex baseline"}.get(campaign)
        program = generate_program(GenParams(2, 4))
        base = HybridConfig(fuzz_budget=30)

        def output(cfg):
            report = runner(program, cfg)
            return campaign_json_bytes(dataclasses.replace(report, duration=0.0))

        want = output(base)
        for key, (field, _, _) in CAMPAIGN_KEYS.items():
            owner, _, name = field.rpartition(".")
            value = self._OTHER_VALUES[key]
            if owner:
                value = dataclasses.replace(getattr(base, owner), **{name: value})
                name = owner
            reads = output(dataclasses.replace(base, **{name: value})) != want
            assert (campaign in read_by[key]) == reads, (campaign, key)
            if baseline is not None:
                named = bool({baseline, "both baselines"} & read_by[key])
                assert named == reads, (baseline, key)

    def test_flag_beats_config(self, tree_mir, tmp_path):
        config = tmp_path / "cfg"
        config.write_text("rng_seed = 1\nfuzz_budget = 10\n")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli("--config", str(config), "fuzz", str(tree_mir), "--out", str(out_a))
        run_cli(
            "--config", str(config), "fuzz", str(tree_mir), "--fuzz-budget", "10",
            "--rng-seed", "1", "--out", str(out_b),
        )
        report_a = json.loads((out_a / "report-AFL-like.json").read_text())
        report_b = json.loads((out_b / "report-AFL-like.json").read_text())
        report_a.pop("duration"), report_b.pop("duration")
        assert report_a == report_b

    def test_env_var_supplies_output_root(self, tree_mir, tmp_path, monkeypatch):
        monkeypatch.setenv("MUNCHKIN_OUT", str(tmp_path / "root"))
        assert run_cli("fuzz", str(tree_mir), "--fuzz-budget", "5") == 0
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


B2D2_LINES = serialize_program(generate_program(GenParams(2, 2))).splitlines()
IR_JUNK = [
    "call main(x)", "x = call main(x)", "jmp entry", "jmp nowhere", "ret x", "ret",
    "x = x / 0", "y = x + 2147483647", "br < x 0 -> entry, entry", "block entry:",
    "func main()", "func n_0_0(x)", "x = input", "print y", "program p",
]
SMALL_TEXT = st.text(alphabet="abx_0189 =<>-+,:()#\n", max_size=24)


@st.composite
def mangled_mir(draw):
    """A generated b2d2 program with lines dropped and junk lines inserted."""
    lines = list(B2D2_LINES)
    for index in sorted(draw(st.sets(st.integers(0, len(lines) - 1), max_size=4)), reverse=True):
        del lines[index]
    junk = st.sampled_from(IR_JUNK + B2D2_LINES) | SMALL_TEXT
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(junk))
    return "\n".join(lines) + "\n"


CONFIG_LINE = st.tuples(
    st.sampled_from(sorted(CAMPAIGN_VALUES) + ["seeds", "seed", "budget", "mode"]) | SMALL_TEXT,
    st.sampled_from(["=", " = ", ":", ""]),
    st.integers(-3, 10**12).map(str) | SMALL_TEXT,
).map("".join)
REPORT_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from(["FS", "x", "main"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["technique", "coverage", "functions", "edges"]), inner),
    max_leaves=8,
)
# Every budget is at most 5; the step limit bounds loops a junk line may add.
SMALL_BUDGETS = {
    "fuzz_budget": 5, "symex_states": 5, "symex_queries": 5, "per_target_queries": 5,
    "per_target_states": 5, "max_inputs": 5, "step_limit": 50,
}


class TestExitCodeProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        mir=st.one_of(mangled_mir(), st.just("\n".join(B2D2_LINES))),
        seed_text=st.text(alphabet="0123456789-+ x\n", max_size=30),
        config_lines=st.lists(CONFIG_LINE, max_size=3),
        report_json=REPORT_JSON,
    )
    def test_main_returns_an_exit_code_and_never_raises(
        self, mir, seed_text, config_lines, report_json
    ):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            program = root / "p.mir"
            program.write_text(mir)
            (root / "seeds").mkdir()
            (root / "seeds" / "s.txt").write_text(seed_text)
            config = root / "cfg"
            config.write_text("\n".join(config_lines))
            report_file = root / "r.json"
            report_file.write_text(json.dumps(report_json))
            p, out = str(program), str(root / "out")
            seeds = ["--seeds", str(root / "seeds"), "--out", out]
            budgets = {
                keys: as_flags(SMALL_BUDGETS, [k for k in keys if k in SMALL_BUDGETS])
                for keys in (FUZZ_KEYS, SYMEX_KEYS, ALL_KEYS)
            }
            for argv in (
                ["callgraph", p],
                ["fuzz", p, *budgets[FUZZ_KEYS], *seeds],
                ["symex", p, *budgets[SYMEX_KEYS], "--out", out],
                ["hybrid", p, "--mode", "fs", *budgets[ALL_KEYS], *seeds],
                ["--config", str(config), "hybrid", p, "--mode", "sf", *budgets[ALL_KEYS],
                 "--out", out],
                ["report", p, str(report_file), "--out", out],
            ):
                assert main(argv) in (0, 1, 2), argv
