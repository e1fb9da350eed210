"""Command line interface.

Subcommands: generate, callgraph, fuzz, symex, hybrid, baselines, report,
table1. All randomized behavior is controlled by --rng-seed; budgets are
execution/query counts, never wall-clock. Each campaign value has one name,
in the one table ``CAMPAIGN_KEYS``: config key ``fuzz_budget`` is flag
``--fuzz-budget``. One resolver builds a campaign's ``HybridConfig`` from
flags, then the ``--config`` key = value file, then the ``HybridConfig``
defaults; a config key outside the table is an input failure. MUNCHKIN_OUT
sets the default output root. Exit codes: 0 success, 1 usage error, 2
campaign or input failure. Integer flags, config values and seed files take
the ``.mir`` literal spelling (``ir.int_literal``). Each campaign command
calls its technique's runner; printed percentages come from report tables.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

from . import generator, report
from .callgraph import depths_tsv, index_program, to_dot
from .executor import CoverageMap, read_seed_dir, write_input_file
from .ir import IRError, int_literal, parse_program, serialize_program
from .orchestrator import (
    CampaignReport,
    HybridConfig,
    run_baselines,
    run_fs,
    run_fuzz,
    run_hybrid,
    run_sf,
    run_symex,
)
from .symex import Strategy

_GRID = [(b, d) for b in (2, 3, 4) for d in (1, 2, 3, 4)]

# Config key (and flag, with "-" for "_") -> (HybridConfig field, value type,
# help). A dotted field names a field of a nested dataclass.
CAMPAIGN_KEYS = {
    "fuzz_budget": ("fuzz_budget", int_literal, "fuzzing executions"),
    "symex_states": ("symex_limits.max_states", int_literal, "symbolic states"),
    "symex_queries": ("symex_limits.max_queries", int_literal, "solver queries"),
    "per_target_queries": ("per_target_query_budget", int_literal, "FS queries per target"),
    "per_target_states": ("per_target_state_budget", int_literal, "FS states per target"),
    "step_limit": ("step_limit", int_literal, "interpreter steps per concrete run"),
    "max_inputs": ("max_inputs", int_literal, "input values one symbolic state may read"),
    "rng_seed": ("rng_seed", int_literal, "seed of every random choice"),
    "seeds": ("seeds", str, "directory of seed .txt files, if not empty"),
}
_FUZZ_KEYS = ("fuzz_budget", "step_limit", "rng_seed", "seeds")
_SYMEX_KEYS = ("symex_states", "symex_queries", "step_limit", "max_inputs", "rng_seed")
# Every key a config file may hold: the table's, and generate's name salt.
_CONFIG_TYPES = {key: entry[1] for key, entry in CAMPAIGN_KEYS.items()} | {"seed": int_literal}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # A flag has only its own name: no prefix of it selects it.
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


def _load_config(path: str | None) -> dict[str, int | str]:
    if not path:
        return {}
    config: dict[str, int | str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip().strip("\"'")
        if key not in _CONFIG_TYPES:
            raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            config[key] = _CONFIG_TYPES[key](value)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: {key} = {value!r}") from None
    return config


def _given(args, config, key: str, default=None):
    value = getattr(args, key, None)
    return config.get(key, default) if value is None else value


def _campaign_config(args, config) -> HybridConfig:
    """The keys the subcommand registered, over the ``HybridConfig`` defaults."""
    cfg = HybridConfig()
    for key, (field, _, _) in CAMPAIGN_KEYS.items():
        value = _given(args, config, key) if hasattr(args, key) else None
        if value is None:
            continue
        if key == "seeds":
            value = tuple(read_seed_dir(value)) or cfg.seeds
        owner, _, name = field.rpartition(".")
        if owner:
            value = dataclasses.replace(getattr(cfg, owner), **{name: value})
            name = owner
        cfg = dataclasses.replace(cfg, **{name: value})
    return cfg


def _add_campaign_keys(p: argparse.ArgumentParser, keys=tuple(CAMPAIGN_KEYS)) -> None:
    for key in keys:
        field, kind, text = CAMPAIGN_KEYS[key]
        default = functools.reduce(getattr, field.split("."), HybridConfig())
        shown = [list(values) for values in default] if key == "seeds" else default
        p.add_argument(
            "--" + key.replace("_", "-"), type=kind, help=f"{text} (default: {shown})"
        )
    p.add_argument("--out")


def _out_dir(args, subcommand: str) -> Path:
    """Create and return the output directory; call it once the campaign has
    returned, so a run that fails leaves no directory behind."""
    if args.out:
        path = Path(args.out)
    else:
        root = os.environ.get("MUNCHKIN_OUT", ".")
        path = Path(root) / f"{subcommand}-out"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _read_program(path: str):
    return parse_program(Path(path).read_text(encoding="utf-8"))


def _write_report(rep: CampaignReport, out: Path) -> None:
    (out / f"report-{rep.technique}.json").write_bytes(report.campaign_json_bytes(rep))
    (out / f"depth-{rep.technique}.tsv").write_text(
        report.depth_table_tsv(rep.per_depth), encoding="utf-8"
    )


def _read_report(path: str) -> tuple[str, CoverageMap]:
    """The technique and coverage of a campaign report JSON file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        technique, coverage = data["technique"], data["coverage"]
        if not isinstance(technique, str):
            raise TypeError("technique is not a string")
        return technique, CoverageMap(
            frozenset(coverage["functions"]), frozenset(coverage["edges"])
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"{path}: not a campaign report ({err!r})") from None


def _cmd_generate(args, config) -> int:
    seed = _given(args, config, "seed", generator.GenParams.seed)
    program = generator.generate_program(
        generator.GenParams(args.branching, args.depth, seed)
    )
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
    else:
        root = os.environ.get("MUNCHKIN_OUT", ".")
        out = Path(root) / f"b{args.branching}_d{args.depth}.mir"
    out.write_text(serialize_program(program), encoding="utf-8")
    print(f"wrote {out} ({len(program.functions)} functions)")
    return 0


def _cmd_callgraph(args, config) -> int:
    cg = index_program(_read_program(args.program)).callgraph
    sys.stdout.write(to_dot(cg) if args.dot else depths_tsv(cg))
    return 0


def _cmd_fuzz(args, config) -> int:
    program = _read_program(args.program)
    rep, result = run_fuzz(program, _campaign_config(args, config))
    out = _out_dir(args, "fuzz")
    for entry in result.corpus:
        write_input_file(out / f"id-{entry.discovery_iteration}.txt", entry.values)
    _write_report(rep, out)
    print(
        f"{result.executions} executions, corpus {len(result.corpus)}, "
        f"coverage {report.coverage_percent(rep.per_depth)}% "
        f"({len(result.cumulative.functions)}/{len(index_program(program).reachable)} "
        f"functions), {len(result.faults)} faults"
    )
    return 0


def _cmd_symex(args, config) -> int:
    program = _read_program(args.program)
    cfg = _campaign_config(args, config)
    rep, result = run_symex(program, cfg, Strategy(args.search), args.target)
    out = _out_dir(args, "symex")
    for number, tc in enumerate(result.test_cases):
        write_input_file(out / f"test-{number}.txt", tc.values)
    _write_report(rep, out)
    print(
        f"{result.states_explored} states, {result.stats.queries} queries, "
        f"coverage {report.coverage_percent(rep.per_depth)}%"
        + (f", target reached: {result.target_reached}" if args.target else "")
    )
    return 0


def _cmd_hybrid(args, config) -> int:
    program = _read_program(args.program)
    cfg = dataclasses.replace(_campaign_config(args, config), mode=args.mode)
    rep = run_hybrid(program, cfg)
    out = _out_dir(args, "hybrid")
    for index, values in enumerate(rep.test_suite):
        write_input_file(out / f"id-{index}.txt", values)
    _write_report(rep, out)
    print(
        f"{rep.technique}: coverage {report.coverage_percent(rep.per_depth)}%, "
        f"{rep.solver_stats.queries} solver queries, {rep.executions} executions"
    )
    return 0


def _cmd_baselines(args, config) -> int:
    program = _read_program(args.program)
    cfg = _campaign_config(args, config)
    reports = run_baselines(program, cfg)
    out = _out_dir(args, "baselines")
    for rep in reports:
        _write_report(rep, out)
        print(
            f"{rep.technique}: coverage {report.coverage_percent(rep.per_depth)}%, "
            f"{rep.solver_stats.queries} solver queries"
        )
    return 0


def _cmd_report(args, config) -> int:
    cg = index_program(_read_program(args.program)).callgraph
    coverages, paths = {}, {}
    for path in args.reports:
        technique, coverage = _read_report(path)
        if technique in paths:
            raise ValueError(f"{paths[technique]} and {path} are both {technique} reports")
        coverages[technique], paths[technique] = coverage, path
    tables = {t: report.depth_table(cov, cg) for t, cov in coverages.items()}
    out = _out_dir(args, "report")
    for technique, table in tables.items():
        (out / f"depth-{technique}.tsv").write_text(
            report.depth_table_tsv(table), encoding="utf-8"
        )
    if len(coverages) >= 2:
        inter = report.intersection_report(coverages, len(cg.reachable()))
        payload = {" & ".join(names): pct for names, pct in sorted(inter.items())}
        (out / "intersections.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
    if all(t in tables for t in report.PLOT_TECHNIQUE_ORDER):
        report.emit_plot_dat(
            [tables[t] for t in report.PLOT_TECHNIQUE_ORDER], out / "plot.dat"
        )
        print(f"wrote {out / 'plot.dat'}")
    print(f"wrote {len(tables)} depth tables to {out}")
    return 0


def _cmd_table1(args, config) -> int:
    header = (
        "prog",
        "b",
        "d",
        "funcs",
        "fuzz%",
        "symex%",
        "fs%",
        "sf%",
        "symex_q",
        "fs_q",
        "sf_q",
    )
    widths = (5, 3, 3, 6, 6, 7, 5, 5, 8, 6, 6)
    def fmt(row):
        return "  ".join(str(cell).rjust(w) for cell, w in zip(row, widths))

    print(fmt(header))
    fs_cfg = _campaign_config(args, config)
    sf_cfg = dataclasses.replace(fs_cfg, mode="sf")
    all_rows = []
    for index, (b, d) in enumerate(_GRID, start=1):
        program = generator.generate_program(generator.GenParams(b, d))
        fuzz_rep, symex_rep = run_baselines(program, fs_cfg)
        fs_rep = run_fs(program, fs_cfg)
        sf_rep = run_sf(program, sf_cfg)
        print(
            fmt(
                (
                    f"P{index}",
                    b,
                    d,
                    len(program.functions),
                    report.coverage_percent(fuzz_rep.per_depth),
                    report.coverage_percent(symex_rep.per_depth),
                    report.coverage_percent(fs_rep.per_depth),
                    report.coverage_percent(sf_rep.per_depth),
                    symex_rep.solver_stats.queries,
                    fs_rep.solver_stats.queries,
                    sf_rep.solver_stats.queries,
                )
            )
        )
        tables = [
            symex_rep.per_depth,
            fuzz_rep.per_depth,
            fs_rep.per_depth,
            sf_rep.per_depth,
        ]
        all_rows.append(report.plot_rows(tables))
    if args.out:
        out = _out_dir(args, "table1")
        for index, rows in enumerate(all_rows, start=1):
            report.write_plot_rows(rows, out / f"plot-p{index}.dat")
        report.write_plot_rows(report.average_plot_rows(all_rows), out / "plot-avg.dat")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="munchkin", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="key = value config file")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="emit a range-dispatch tree program")
    p.add_argument("--branching", type=int_literal, required=True)
    p.add_argument("--depth", type=int_literal, required=True)
    p.add_argument("--seed", type=int_literal, default=None, help="function-name salt")
    p.add_argument("--out", help="output .mir path")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("callgraph", help="print function/depth TSV for a program")
    p.add_argument("program")
    p.add_argument("--dot", action="store_true", help="emit Graphviz text instead")
    p.set_defaults(handler=_cmd_callgraph)

    p = sub.add_parser("fuzz", help="run a coverage-guided fuzzing campaign")
    p.add_argument("program")
    _add_campaign_keys(p, _FUZZ_KEYS)
    p.set_defaults(handler=_cmd_fuzz)

    p = sub.add_parser("symex", help="run a symbolic-execution campaign")
    p.add_argument("program")
    p.add_argument("--search", choices=["baseline", "sonar"], default="baseline")
    p.add_argument("--target", help="target function for sonar search")
    _add_campaign_keys(p, _SYMEX_KEYS)
    p.set_defaults(handler=_cmd_symex)

    p = sub.add_parser("hybrid", help="run an FS or SF hybrid campaign")
    p.add_argument("program")
    p.add_argument("--mode", choices=["fs", "sf"], required=True)
    _add_campaign_keys(p)
    p.set_defaults(handler=_cmd_hybrid)

    p = sub.add_parser("baselines", help="run fuzz-only and symex-only campaigns")
    p.add_argument("program")
    _add_campaign_keys(p)
    p.set_defaults(handler=_cmd_baselines)

    p = sub.add_parser("report", help="derive tables and plot data from reports")
    p.add_argument("program")
    p.add_argument("reports", nargs="+", help="campaign report JSON files")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser(
        "table1", help="run the 12-program benchmark grid across all four techniques"
    )
    _add_campaign_keys(p)
    p.set_defaults(handler=_cmd_table1)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except SystemExit as exit_:  # --help
        return int(exit_.code or 0)
    try:
        config = _load_config(args.config)
        return args.handler(args, config)
    except (IRError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
