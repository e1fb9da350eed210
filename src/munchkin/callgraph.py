"""Static call graph, function depths, and interprocedural block distances.

Function depth is the minimum number of call edges from the entry function,
via BFS over the static call graph. Distance fields support the directed
("sonar") search strategy: for a target function they give every
(function, block) location its shortest hop count to the target's entry
block over the interprocedural block graph, whose edges are intra-function
CFG edges, call edges from call-site blocks to callee entries, and return
edges from callee exit blocks back to the call-site block.

``index_program`` analyses a program once and stores the ``ProgramIndex``
on the program object, so every campaign on that program shares it. The
index holds the call graph, the reachable set and the reverse block graph
over integer location ids (the numbering of ``ir.block_locations``, which
the interpreters' lowered form uses too); it keeps nothing per target.
``ProgramIndex.distances`` creates a new distance field on each call, which
its caller owns. A distance field is a resumable backward BFS from the
target's entry: a hop list indexed by location id, -1 where no distance is
settled yet, and the BFS's current level and its depth. Creating one
settles only the target's entry; ``expand`` settles one more level, and
``at`` expands until the asked location is settled or the BFS runs out, so
it is always exact. A sonar run owns its target's field and expands it
only as far as the states it ranks need.
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass, field

from .ir import Branch, Call, Function, Jump, Program, Return, block_locations


@dataclass(frozen=True)
class CallGraph:
    nodes: frozenset[str]
    edges: frozenset[tuple[str, str]]
    depths: dict[str, int] = field(default_factory=dict)

    def depth(self, name: str) -> int | None:
        """Call depth of a function, or None when unreachable from entry."""
        return self.depths.get(name)

    def reachable(self) -> frozenset[str]:
        return frozenset(self.depths)

    def depth_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for depth in self.depths.values():
            hist[depth] = hist.get(depth, 0) + 1
        return dict(sorted(hist.items()))


def build_callgraph(program: Program) -> CallGraph:
    """Collect static call edges and BFS depths from the entry function."""
    edges: set[tuple[str, str]] = set()
    callees: dict[str, set[str]] = {name: set() for name in program.functions}
    for fname, func in program.functions.items():
        for block in func.blocks.values():
            for instr in block.instructions:
                if isinstance(instr, Call):
                    edges.add((fname, instr.callee))
                    callees[fname].add(instr.callee)

    depths = {program.entry: 0}
    queue = [program.entry]
    while queue:
        fname = queue.pop(0)
        for callee in sorted(callees[fname]):
            if callee not in depths:
                depths[callee] = depths[fname] + 1
                queue.append(callee)

    return CallGraph(frozenset(program.functions), frozenset(edges), depths)


Location = tuple[str, str]


class DistanceField:
    """Shortest hop counts from block locations to one target's entry,
    settled one BFS level at a time.

    ``hops[i]`` is the distance from location id ``i`` (see
    ``ir.block_locations``) once it is settled, else -1. ``level`` lists
    the locations settled last, all at distance ``depth``, and ``expand``
    settles the next level. Once the BFS is exhausted (``level`` is
    empty), no location without a distance can reach the target. ``at``
    expands on demand, so its answers are exact however far the field has
    been settled.
    """

    __slots__ = ("hops", "level", "depth", "_settled", "_predecessors", "_ids")

    def __init__(
        self,
        start: int,
        predecessors: tuple[tuple[int, ...], ...],
        ids: dict[Location, int],
    ) -> None:
        self.hops = [-1] * len(predecessors)
        self.hops[start] = 0
        self.level = [start]
        self.depth = 0
        self._settled = 1
        self._predecessors = predecessors
        self._ids = ids

    @property
    def settled(self) -> int:
        """How many locations have a distance so far."""
        return self._settled

    def expand(self) -> list[int]:
        """Settle the next level and return its location ids; [] once exhausted."""
        hops, predecessors = self.hops, self._predecessors
        step = self.depth + 1
        level = []
        for loc in self.level:
            for pred in predecessors[loc]:
                if hops[pred] < 0:
                    hops[pred] = step
                    level.append(pred)
        self.level = level
        if level:
            self.depth = step
            self._settled += len(level)
        return level

    def at(self, function: str, block: str) -> int | None:
        """Distance from a location, or None when the target is unreachable."""
        i = self._ids.get((function, block))
        if i is None:
            return None
        hops = self.hops
        while hops[i] < 0 and self.expand():
            pass
        return None if hops[i] < 0 else hops[i]


def _exit_blocks(func: Function) -> list[str]:
    return [bid for bid, block in func.blocks.items() if isinstance(block.terminator, Return)]


def interprocedural_edges(program: Program) -> set[tuple[tuple[str, str], tuple[str, str]]]:
    """Forward edges of the interprocedural block graph, all weight 1."""
    edges: set[tuple[tuple[str, str], tuple[str, str]]] = set()
    for fname, func in program.functions.items():
        for bid, block in func.blocks.items():
            src = (fname, bid)
            term = block.terminator
            if isinstance(term, Branch):
                edges.add((src, (fname, term.then_block)))
                edges.add((src, (fname, term.else_block)))
            elif isinstance(term, Jump):
                edges.add((src, (fname, term.target)))
            for instr in block.instructions:
                if isinstance(instr, Call):
                    callee = program.functions[instr.callee]
                    edges.add((src, (instr.callee, callee.entry_block)))
                    for exit_bid in _exit_blocks(callee):
                        edges.add(((instr.callee, exit_bid), src))
    return edges


@dataclass(frozen=True)
class ProgramIndex:
    """Static facts of one program, computed once and shared by its campaigns.

    Locations are numbered by ``ir.block_locations``, as in the lowered
    form; ``entries`` maps each function to its entry block's location id,
    and ``predecessors[i]`` lists the locations with an edge into location
    ``i``. ``callers`` maps each function to the functions that call it;
    ``by_depth`` lists the reachable functions by ascending depth, then
    name, the order ``frontier_set`` keeps within each of its two groups.
    The index holds no per-target state: each ``distances`` call builds a
    new field, which settles levels only when asked.
    """

    callgraph: CallGraph
    reachable: frozenset[str]
    locations: tuple[Location, ...]
    ids: dict[Location, int]
    entries: dict[str, int]
    predecessors: tuple[tuple[int, ...], ...]
    callers: dict[str, tuple[str, ...]]
    by_depth: tuple[str, ...]

    def distances(self, target: str) -> DistanceField:
        """A new distance field for the target, with only its entry settled."""
        start = self.entries.get(target)
        if start is None:
            raise ValueError(f"unknown target '{target}'")
        return DistanceField(start, self.predecessors, self.ids)

    def next_target(self, covered: Set[str], skip: Set[str]) -> str | None:
        """The first reachable function of ``frontier_set(callgraph, covered)``
        that is not in ``skip``, or None.

        One pass over ``by_depth`` stops at the first eligible frontier
        function; without one, the first eligible function is the answer.
        """
        first = None
        for name in self.by_depth:
            if name in covered or name in skip:
                continue
            if not covered.isdisjoint(self.callers[name]):
                return name
            if first is None:
                first = name
        return first


def index_program(program: Program) -> ProgramIndex:
    """The program's index, built on first use and stored on the program.

    Like the lowered form (``executor.lowered_form``), the index lives and
    dies with its program, so every campaign on one program shares it.
    """
    index = getattr(program, "_index", None)
    if index is not None:
        return index
    cg = build_callgraph(program)
    locations = block_locations(program)
    ids = {loc: i for i, loc in enumerate(locations)}
    predecessors: list[list[int]] = [[] for _ in locations]
    for src, dst in interprocedural_edges(program):
        predecessors[ids[dst]].append(ids[src])
    callers: dict[str, list[str]] = {name: [] for name in program.functions}
    for caller, callee in sorted(cg.edges):
        callers[callee].append(caller)
    index = ProgramIndex(
        cg,
        cg.reachable(),
        locations,
        ids,
        {name: ids[(name, func.entry_block)] for name, func in program.functions.items()},
        tuple(tuple(sorted(preds)) for preds in predecessors),
        {name: tuple(names) for name, names in callers.items()},
        tuple(sorted(cg.reachable(), key=lambda name: _frontier_key(cg, name, False))),
    )
    object.__setattr__(program, "_index", index)
    return index


def frontier_set(cg: CallGraph, covered: set[str] | frozenset[str]) -> list[str]:
    """Uncovered functions, cheapest targets first.

    Frontier functions (uncovered with at least one covered caller) come
    first, ordered by ascending depth then name; the remaining uncovered
    functions follow in the same order. The result is a permutation of the
    uncovered set.
    """
    if not covered <= cg.nodes:
        raise ValueError("covered set contains unknown functions")
    uncovered = cg.nodes - covered
    has_covered_caller = {
        callee for caller, callee in cg.edges if caller in covered and callee in uncovered
    }
    return sorted(
        uncovered, key=lambda name: _frontier_key(cg, name, name in has_covered_caller)
    )


def _frontier_key(cg: CallGraph, name: str, frontier: bool) -> tuple[int, int, int, str]:
    """Sort key: frontier functions before the rest; within each, reachable
    functions by ascending depth before unreachable ones, then by name."""
    depth = cg.depth(name)
    return (
        0 if frontier else 1,
        1 if depth is None else 0,
        depth if depth is not None else 0,
        name,
    )


def to_dot(cg: CallGraph) -> str:
    """Graphviz digraph text for the call graph."""
    lines = ["digraph callgraph {"]
    for name in sorted(cg.nodes):
        lines.append(f'  "{name}";')
    for caller, callee in sorted(cg.edges):
        lines.append(f'  "{caller}" -> "{callee}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def depths_tsv(cg: CallGraph) -> str:
    """TSV listing ``function<TAB>depth``, unreachable functions last."""
    def key(name: str) -> tuple[int, int, str]:
        depth = cg.depth(name)
        return (1 if depth is None else 0, depth if depth is not None else 0, name)

    lines = []
    for name in sorted(cg.nodes, key=key):
        depth = cg.depth(name)
        lines.append(f"{name}\t{'unreachable' if depth is None else depth}")
    return "\n".join(lines) + "\n"
