"""Command line interface.

Subcommands: generate, callgraph, fuzz, symex, hybrid, baselines, report,
table1. All randomized behavior is controlled by --rng-seed; wall-clock
limits do not exist, budgets are execution/query counts. Option precedence
is flags, then --config key=value file, then built-in defaults. The
MUNCHKIN_OUT environment variable supplies the default output root. Exit
codes: 0 success, 1 usage error, 2 campaign or input failure.

Every campaign report comes from the orchestrator's report builder, and
every printed coverage percentage is read from a report's depth table, so
no subcommand analyses its program again after a campaign.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

from . import generator, report
from .callgraph import build_callgraph, depths_tsv, index_program, to_dot
from .executor import CoverageMap, read_seed_dir, write_input_file
from .fuzzer import FuzzConfig, fuzz_campaign
from .ir import IRError, parse_program, serialize_program
from .orchestrator import (
    CampaignReport,
    HybridConfig,
    fuzz_report,
    run_baselines,
    run_fs,
    run_hybrid,
    run_sf,
    symex_report,
)
from .symex import Strategy, SymexLimits, symex_campaign

_GRID = [(b, d) for b in (2, 3, 4) for d in (1, 2, 3, 4)]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise _UsageError(message)


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    config: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        config[key.strip()] = value.strip().strip("\"'")
    return config


def _resolve(args, config: dict[str, str], name: str, default, cast=int):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return cast(config[name])
    return default


def _out_dir(args, subcommand: str) -> Path:
    if getattr(args, "out", None):
        path = Path(args.out)
    else:
        root = os.environ.get("MUNCHKIN_OUT", ".")
        path = Path(root) / f"{subcommand}-out"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_seeds(args) -> list[tuple[int, ...]]:
    if getattr(args, "seeds", None):
        seeds = read_seed_dir(args.seeds)
        if seeds:
            return seeds
    return [(0,)]


def _write_report(rep: CampaignReport, out: Path) -> None:
    report.write_campaign_json(rep, out / f"report-{rep.technique}.json")
    (out / f"depth-{rep.technique}.tsv").write_text(
        report.depth_table_tsv(rep.per_depth), encoding="utf-8"
    )


def _symex_limits(args, config) -> SymexLimits:
    return SymexLimits(
        _resolve(args, config, "max_states", 100_000),
        _resolve(args, config, "max_queries", 100_000),
    )


def _hybrid_config(args, config, mode: str) -> HybridConfig:
    return HybridConfig(
        mode=mode,
        fuzz_budget=_resolve(args, config, "fuzz_budget", 1000),
        symex_limits=SymexLimits(
            _resolve(args, config, "symex_states", 100_000),
            _resolve(args, config, "symex_queries", 100_000),
        ),
        per_target_query_budget=_resolve(args, config, "per_target_queries", 64),
        per_target_state_budget=_resolve(args, config, "per_target_states", 10_000),
        seeds=tuple(_load_seeds(args)),
        rng_seed=_resolve(args, config, "rng_seed", 0),
    )


def _cmd_generate(args, config) -> int:
    params = generator.GenParams(
        args.branching, args.depth, _resolve(args, config, "seed", 0)
    )
    program = generator.generate_program(params)
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
    program = parse_program(Path(args.program).read_text(encoding="utf-8"))
    cg = build_callgraph(program)
    if args.dot:
        sys.stdout.write(to_dot(cg))
    else:
        sys.stdout.write(depths_tsv(cg))
    return 0


def _cmd_fuzz(args, config) -> int:
    program = parse_program(Path(args.program).read_text(encoding="utf-8"))
    seeds = _load_seeds(args)
    out = _out_dir(args, "fuzz")
    cfg = FuzzConfig(
        rng_seed=_resolve(args, config, "rng_seed", 0),
        budget=_resolve(args, config, "budget", 1000),
        step_limit=_resolve(args, config, "step_limit", 10**6),
    )
    cg = build_callgraph(program)
    started = time.perf_counter()
    result = fuzz_campaign(program, seeds, cfg)
    rep = fuzz_report(cg, result, started)
    for entry in result.corpus:
        write_input_file(out / f"id-{entry.discovery_iteration}.txt", entry.values)
    _write_report(rep, out)
    print(
        f"{result.executions} executions, corpus {len(result.corpus)}, "
        f"coverage {report.coverage_percent(rep.per_depth)}% "
        f"({len(result.cumulative.functions)}/{len(cg.reachable())} functions), "
        f"{len(result.faults)} faults"
    )
    return 0


def _cmd_symex(args, config) -> int:
    program = parse_program(Path(args.program).read_text(encoding="utf-8"))
    out = _out_dir(args, "symex")
    search = Strategy(args.search)
    index = index_program(program)
    started = time.perf_counter()
    result = symex_campaign(
        program,
        search,
        _symex_limits(args, config),
        max_inputs=_resolve(args, config, "max_inputs", 4),
        target=args.target,
        rng_seed=_resolve(args, config, "rng_seed", 0),
        index=index,
    )
    rep = symex_report(index.callgraph, result, started)
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
    program = parse_program(Path(args.program).read_text(encoding="utf-8"))
    out = _out_dir(args, "hybrid")
    rep = run_hybrid(program, _hybrid_config(args, config, args.mode))
    for index, values in enumerate(rep.test_suite):
        write_input_file(out / f"id-{index}.txt", values)
    _write_report(rep, out)
    print(
        f"{rep.technique}: coverage {report.coverage_percent(rep.per_depth)}%, "
        f"{rep.solver_stats.queries} solver queries, {rep.executions} executions"
    )
    return 0


def _cmd_baselines(args, config) -> int:
    program = parse_program(Path(args.program).read_text(encoding="utf-8"))
    out = _out_dir(args, "baselines")
    cfg = _hybrid_config(args, config, "fs")
    fuzz_rep, symex_rep = run_baselines(program, cfg)
    _write_report(fuzz_rep, out)
    _write_report(symex_rep, out)
    for rep in (fuzz_rep, symex_rep):
        print(
            f"{rep.technique}: coverage {report.coverage_percent(rep.per_depth)}%, "
            f"{rep.solver_stats.queries} solver queries"
        )
    return 0


def _cmd_report(args, config) -> int:
    program = parse_program(Path(args.program).read_text(encoding="utf-8"))
    cg = build_callgraph(program)
    out = _out_dir(args, "report")
    coverages = {}
    tables = {}
    for path in args.reports:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        technique = data["technique"]
        cov = CoverageMap(
            frozenset(data["coverage"]["functions"]),
            frozenset(data["coverage"]["edges"]),
        )
        coverages[technique] = cov
        tables[technique] = report.depth_table(cov, cg)
        (out / f"depth-{technique}.tsv").write_text(
            report.depth_table_tsv(tables[technique]), encoding="utf-8"
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
    out = None
    if getattr(args, "out", None):
        out = _out_dir(args, "table1")
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
    fs_cfg = _hybrid_config(args, config, "fs")
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
        if out is not None:
            tables = [
                symex_rep.per_depth,
                fuzz_rep.per_depth,
                fs_rep.per_depth,
                sf_rep.per_depth,
            ]
            rows = report.plot_rows(tables)
            report.write_plot_rows(rows, out / f"plot-p{index}.dat")
            all_rows.append(rows)
    if out is not None:
        report.write_plot_rows(report.average_plot_rows(all_rows), out / "plot-avg.dat")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="munchkin", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="key = value config file")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("generate", help="emit a range-dispatch tree program")
    p.add_argument("--branching", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="function-name salt")
    p.add_argument("--out", help="output .mir path")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("callgraph", help="print call-graph info for a program")
    p.add_argument("program")
    p.add_argument("--dot", action="store_true", help="emit Graphviz text")
    p.add_argument("--depths", action="store_true", help="emit function/depth TSV")
    p.set_defaults(handler=_cmd_callgraph)

    p = sub.add_parser("fuzz", help="run a coverage-guided fuzzing campaign")
    p.add_argument("program")
    p.add_argument("--seeds", help="directory of seed .txt files")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--rng-seed", dest="rng_seed", type=int, default=None)
    p.add_argument("--step-limit", dest="step_limit", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_fuzz)

    p = sub.add_parser("symex", help="run a symbolic-execution campaign")
    p.add_argument("program")
    p.add_argument("--search", choices=["baseline", "sonar"], default="baseline")
    p.add_argument("--target", help="target function for sonar search")
    p.add_argument("--max-states", dest="max_states", type=int, default=None)
    p.add_argument("--max-queries", dest="max_queries", type=int, default=None)
    p.add_argument("--max-inputs", dest="max_inputs", type=int, default=None)
    p.add_argument("--rng-seed", dest="rng_seed", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_symex)

    p = sub.add_parser("hybrid", help="run an FS or SF hybrid campaign")
    p.add_argument("program")
    p.add_argument("--mode", choices=["fs", "sf"], required=True)
    _add_hybrid_options(p)
    p.set_defaults(handler=_cmd_hybrid)

    p = sub.add_parser("baselines", help="run fuzz-only and symex-only campaigns")
    p.add_argument("program")
    _add_hybrid_options(p)
    p.set_defaults(handler=_cmd_baselines)

    p = sub.add_parser("report", help="derive tables and plot data from reports")
    p.add_argument("program")
    p.add_argument("reports", nargs="+", help="campaign report JSON files")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser(
        "table1", help="run the 12-program benchmark grid across all four techniques"
    )
    _add_hybrid_options(p)
    p.set_defaults(handler=_cmd_table1)

    return parser


def _add_hybrid_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fuzz-budget", dest="fuzz_budget", type=int, default=None)
    p.add_argument("--symex-queries", dest="symex_queries", type=int, default=None)
    p.add_argument("--symex-states", dest="symex_states", type=int, default=None)
    p.add_argument(
        "--per-target-queries", dest="per_target_queries", type=int, default=None
    )
    p.add_argument(
        "--per-target-states", dest="per_target_states", type=int, default=None
    )
    p.add_argument("--seeds", help="directory of seed .txt files")
    p.add_argument("--rng-seed", dest="rng_seed", type=int, default=None)
    p.add_argument("--out")


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
