"""Coverage reporting: technique names, depth tables, intersections, plot
data, JSON.

Percentages are rounded half-up to integers. Depth tables cover reachable
functions only; unreachable functions are excluded from denominators and
reported as a separate count in the JSON schema, and a campaign's overall
percentage is read back from its depth table. Plot data files hold five
whitespace-separated columns, depth first, then one coverage percent per
technique in the fixed order symex-only, fuzz-only, FS, SF. JSON files are
written by ``json_text``, byte for byte as ``json`` writes them.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Sequence

from .callgraph import ProgramIndex
from .executor import CoverageMap

# (depth, covered, total, percent)
DepthRow = tuple[int, int, int, int]

TECHNIQUE_FUZZ = "AFL-like"
TECHNIQUE_SYMEX = "SymexOnly"
TECHNIQUE_FS = "FS"
TECHNIQUE_SF = "SF"

PLOT_TECHNIQUE_ORDER = (TECHNIQUE_SYMEX, TECHNIQUE_FUZZ, TECHNIQUE_FS, TECHNIQUE_SF)


def percent_round(covered: int, total: int) -> int:
    """Integer percent, exact half-up rounding."""
    if total <= 0:
        raise ValueError("total must be positive")
    return (200 * covered + total) // (2 * total)


def depth_table(coverage: CoverageMap, index: ProgramIndex) -> list[DepthRow]:
    """One row per call depth with covered/total counts and percent."""
    if not coverage.functions <= index.entries.keys():
        raise ValueError("coverage contains functions outside the call graph")
    totals: dict[int, int] = {}
    covered: dict[int, int] = {}
    for name, depth in index.depths.items():
        totals[depth] = totals.get(depth, 0) + 1
        if name in coverage.functions:
            covered[depth] = covered.get(depth, 0) + 1
    rows = []
    for depth in sorted(totals):
        total = totals[depth]
        got = covered.get(depth, 0)
        rows.append((depth, got, total, percent_round(got, total)))
    return rows


def coverage_percent(rows: Sequence[DepthRow]) -> int:
    """Overall percent of reachable functions covered, from a depth table."""
    return percent_round(sum(row[1] for row in rows), sum(row[2] for row in rows))


def intersection_report(
    named: dict[str, CoverageMap], total: int
) -> dict[tuple[str, ...], int]:
    """Pairwise and all-way coverage intersections as percents of ``total``."""
    if len(named) < 2:
        raise ValueError("need at least two techniques")
    names = sorted(named)
    result: dict[tuple[str, ...], int] = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            common = named[a].functions & named[b].functions
            result[(a, b)] = percent_round(len(common), total)
    common = frozenset.intersection(*(named[n].functions for n in names))
    result[tuple(names)] = percent_round(len(common), total)
    return result


def format_percent_table(header: Sequence[str], rows: Iterable[Sequence[int]]) -> str:
    """Tab-separated table with a header row; cells rendered as integers."""
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(str(cell) for cell in row))
    return "\n".join(lines) + "\n"


def depth_table_tsv(rows: list[DepthRow]) -> str:
    return format_percent_table(("depth", "covered", "total", "percent"), rows)


# ---------------------------------------------------------------------------
# Plot data files
# ---------------------------------------------------------------------------


def plot_rows(tables: Sequence[list[DepthRow]]) -> list[tuple[int, ...]]:
    """Four aligned depth tables as ``(depth, p1, p2, p3, p4)`` rows."""
    if len(tables) != 4:
        raise ValueError("plot data needs exactly four depth tables")
    axes = [tuple(row[0] for row in table) for table in tables]
    if any(axis != axes[0] for axis in axes):
        raise ValueError("depth tables are not aligned")
    return [
        (depth,) + tuple(table[i][3] for table in tables)
        for i, depth in enumerate(axes[0])
    ]


def emit_plot_dat(tables: Sequence[list[DepthRow]], path: str | Path) -> None:
    """Write four aligned depth tables as ``depth p1 p2 p3 p4`` rows."""
    write_plot_rows(plot_rows(tables), path)


def average_plot_rows(
    tables: Sequence[Sequence[tuple[float, ...]]],
) -> list[tuple[float, ...]]:
    """Arithmetic mean per depth across plot files of varying depth range."""
    by_depth: dict[float, list[tuple[float, ...]]] = {}
    for table in tables:
        for row in table:
            by_depth.setdefault(row[0], []).append(row[1:])
    averaged = []
    for depth in sorted(by_depth):
        group = by_depth[depth]
        means = tuple(sum(col) / len(group) for col in zip(*group))
        averaged.append((depth,) + means)
    return averaged


def write_plot_rows(rows: Sequence[tuple[float, ...]], path: str | Path) -> None:
    lines = [" ".join(f"{cell:g}" for cell in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Campaign report JSON
# ---------------------------------------------------------------------------


def campaign_to_dict(report) -> dict:
    """JSON-ready dict for a CampaignReport (duck-typed).

    Schema::

        {
          "technique": str,
          "coverage": {"functions": [str], "edge_count": int, "edges": [int]},
          "per_depth": [{"depth": int, "covered": int, "total": int,
                         "percent": int}],
          "solver_stats": {"queries": int, "sat": int, "unsat": int,
                           "unknown": int, "cache_hits": int},
          "executions": int,
          "test_suite": [[int]],
          "unreachable": int,
          "duration": float
        }
    """
    return {
        "technique": report.technique,
        "coverage": {
            "functions": sorted(report.coverage.functions),
            "edge_count": report.coverage.edge_count,
            "edges": sorted(report.coverage.edge_bits),
        },
        "per_depth": [
            {"depth": d, "covered": c, "total": t, "percent": p}
            for d, c, t, p in report.per_depth
        ],
        "solver_stats": {
            "queries": report.solver_stats.queries,
            "sat": report.solver_stats.sat,
            "unsat": report.solver_stats.unsat,
            "unknown": report.solver_stats.unknown,
            "cache_hits": report.solver_stats.cache_hits,
        },
        "executions": report.executions,
        "test_suite": [list(values) for values in report.test_suite],
        "unreachable": report.unreachable,
        "duration": report.duration,
    }


def campaign_json_bytes(report) -> bytes:
    return json_text(campaign_to_dict(report)).encode("ascii")


def json_text(value) -> str:
    """``json.dumps(value, sort_keys=True, indent=2) + "\\n"`` for dicts with
    string keys, lists, strings, ints and finite floats (not bools), joined
    directly rather than by ``json``'s pure-Python indent encoder."""
    return _json(value, "\n") + "\n"


_SCALARS = {int: int.__repr__, str: encode_basestring_ascii, float: float.__repr__}


def _json(value, newline: str) -> str:
    kind, inner = value.__class__, newline + "  "
    if kind is dict:
        items = [
            f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in sorted(value.items())
        ]
    elif kind is list:
        kinds = set(map(type, value))  # one scalar type: no call per item
        write = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        items = map(write, value) if write else [_json(v, inner) for v in value]
    elif kind in _SCALARS:
        return _SCALARS[kind](value)
    else:
        raise TypeError(f"cannot write {kind.__name__} as JSON")
    ends = "{}" if kind is dict else "[]"
    return f"{ends[0]}{inner}{(',' + inner).join(items)}{newline}{ends[1]}" if value else ends
