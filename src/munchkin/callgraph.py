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
index is read off the program's lowered form (``executor.lowered_form``),
the one decoding of its instructions that both interpreters run: its
location ids, each call's callee and entry id, each branch's and jump's
target ids, and its returns. The index holds the call graph, the reachable
set and the reverse block graph over those location ids; it keeps nothing
per target. ``ProgramIndex.distances`` creates a new distance field on each
call, which its caller owns. A distance field is a resumable backward BFS
from the target's entry: a hop list indexed by location id, -1 where no
distance is settled yet, and the BFS's current level and its depth.
Creating one settles only the target's entry, and ``expand`` settles one
more level. A sonar run owns its target's field and expands it only as far
as the states it ranks need.
"""

from __future__ import annotations

from collections.abc import Set

from .executor import OP_BRANCH, OP_CALL, OP_JUMP, OP_RETURN, lowered_form
from .ir import ENTRY_FUNCTION, Program, _Record, block_locations


class CallGraph(_Record):
    __slots__ = _fields = ("nodes", "edges", "depths")

    def __init__(
        self,
        nodes: frozenset[str],
        edges: frozenset[tuple[str, str]],
        depths: dict[str, int] | None = None,
    ) -> None:
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "depths", {} if depths is None else depths)

    def reachable(self) -> frozenset[str]:
        return frozenset(self.depths)


def build_callgraph(program: Program) -> CallGraph:
    """The call graph of the program's index (see ``index_program``)."""
    return index_program(program).callgraph


class DistanceField:
    """Shortest hop counts from block locations to one target's entry,
    settled one BFS level at a time.

    ``hops[i]`` is the distance from location id ``i`` (see
    ``ir.block_locations``) once it is settled, else -1. ``level`` lists
    the locations settled last, all at distance ``depth``, and ``expand``
    settles the next level. Once the BFS is exhausted (``level`` is
    empty), no location without a distance can reach the target.
    """

    __slots__ = ("hops", "level", "depth", "_settled", "_predecessors")

    def __init__(self, start: int, predecessors: tuple[tuple[int, ...], ...]) -> None:
        self.hops = [-1] * len(predecessors)
        self.hops[start] = 0
        self.level = [start]
        self.depth = 0
        self._settled = 1
        self._predecessors = predecessors

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


class ProgramIndex(_Record):
    """Static facts of one program, computed once and shared by its campaigns.

    Read off the lowered form, so locations are numbered by
    ``ir.block_locations``; ``entries`` maps each function to its entry
    block's location id, and ``predecessors[i]`` lists, ascending and
    without repeats, the locations with an edge into location ``i``.
    ``callers`` maps each function to the functions that call it, by name;
    ``by_depth`` lists the reachable functions by ascending depth, then
    name. The index holds no per-target state: each ``distances`` call
    builds a new field, which settles levels only when asked.
    """

    __slots__ = _fields = (
        "callgraph", "reachable", "entries", "predecessors", "callers", "by_depth"
    )

    def distances(self, target: str) -> DistanceField:
        """A new distance field for the target, with only its entry settled."""
        start = self.entries.get(target)
        if start is None:
            raise ValueError(f"unknown target '{target}'")
        return DistanceField(start, self.predecessors)

    def next_target(self, covered: Set[str], skip: Set[str]) -> str | None:
        """FS's next target: the first reachable function, in ``by_depth``
        order, that is in neither ``covered`` nor ``skip`` and has a covered
        caller; without one, the first that is in neither; else None.
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

    One pass over the lowered form collects the call edges, the block
    graph's predecessors and each function's return locations; the return
    edges, from every return location of a callee back to each of its call
    sites, follow from those. Like the lowered form, the index lives and
    dies with its program, so every campaign on one program shares it.
    """
    index = getattr(program, "_index", None)
    if index is not None:
        return index
    functions = program.functions
    codes = lowered_form(program)[0]
    locations = block_locations(program)
    entries: dict[str, int] = {}
    edges: set[tuple[str, str]] = set()
    calls: list[tuple[int, str]] = []
    returns: dict[str, list[int]] = {name: [] for name in functions}
    predecessors: list[list[int]] = [[] for _ in locations]
    for here, code in enumerate(codes):
        fname = locations[here][0]
        entries.setdefault(fname, here)
        for instr in code:
            op = instr[0]
            if op == OP_CALL:
                edges.add((fname, instr[1]))
                calls.append((here, instr[1]))
                predecessors[instr[4]].append(here)
            elif op == OP_BRANCH:
                predecessors[instr[8]].append(here)
                predecessors[instr[11]].append(here)
            elif op == OP_JUMP:
                predecessors[instr[3]].append(here)
            elif op == OP_RETURN:
                returns[fname].append(here)
    for site, callee in calls:
        predecessors[site] += returns[callee]

    callees: dict[str, list[str]] = {name: [] for name in functions}
    callers: dict[str, list[str]] = {name: [] for name in functions}
    for caller, callee in sorted(edges):
        callees[caller].append(callee)
        callers[callee].append(caller)
    depths = {ENTRY_FUNCTION: 0}
    queue = [ENTRY_FUNCTION]
    while queue:
        fname = queue.pop(0)
        for callee in callees[fname]:
            if callee not in depths:
                depths[callee] = depths[fname] + 1
                queue.append(callee)
    cg = CallGraph(frozenset(functions), frozenset(edges), depths)
    index = ProgramIndex(
        cg,
        cg.reachable(),
        entries,
        tuple(tuple(sorted(set(preds))) for preds in predecessors),
        {name: tuple(names) for name, names in callers.items()},
        tuple(sorted(depths, key=lambda name: (depths[name], name))),
    )
    object.__setattr__(program, "_index", index)
    return index


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
        depth = cg.depths.get(name)
        return (1 if depth is None else 0, depth if depth is not None else 0, name)

    lines = []
    for name in sorted(cg.nodes, key=key):
        depth = cg.depths.get(name)
        lines.append(f"{name}\t{'unreachable' if depth is None else depth}")
    return "\n".join(lines) + "\n"
