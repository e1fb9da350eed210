"""Static call graph, function depths, and interprocedural block distances.

Function depth is the minimum number of call edges from the entry function,
via BFS over the static call graph. Sonar distances support the directed
("sonar") search strategy: for a target function they give every location
its shortest hop count to the target's entry block over the
interprocedural control-flow graph. Its locations are the blocks and, for
each call instruction, an after-call point: where the caller resumes once
the callee returns. Its edges are intra-function CFG edges, call edges from
the point before each call to the callee's entry, and return edges from the
callee's return points to the call's after-call point. Code after a call
leaves from that call's after-call point, so a return reaches only what
follows its own call, and a backward search from a target reaches the
target's ancestors, not the subtrees that hang off them.

``index_program`` analyses a program once and stores the ``ProgramIndex``
on the program object, so every campaign on that program shares it. The
index is read off the program's lowered form (``executor.lowered_form``),
the one decoding of its instructions that both interpreters run: its
location ids, each call's callee and entry id, each branch's and jump's
target ids, and its returns. The index holds the call graph, the reachable
set and, from the first ``distances`` call, the reverse graph over those
location ids and one after-call id per call instruction, numbered after
the blocks in program order; it keeps nothing per target.
``ProgramIndex.distances`` runs one backward BFS from a target's entry on
each call and returns a new hop list, indexed by location id, -1 where
the target cannot be reached; a sonar run asks for its target's list once
and owns it.
"""

from __future__ import annotations

from collections.abc import Set

from .executor import OP_BRANCH, OP_CALL, OP_JUMP, OP_RETURN, lowered_form
from .ir import ENTRY_FUNCTION, Program, _Record


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


class ProgramIndex(_Record):
    """Static facts of one program, computed once and shared by its campaigns.

    Read off the lowered form, so blocks have its location ids. ``entries``
    maps each function to its entry block's id, ``callers`` each function
    to its callers' names, and ``by_depth`` lists the reachable functions
    by ascending depth, then name. ``predecessors[i]`` lists, ascending and
    without repeats, the locations with an edge into location ``i``, built
    on first use from the lowered blocks, which a slot that is not a field
    keeps: the index holds no reference to its program.
    """

    _fields = ("callgraph", "reachable", "entries", "callers", "by_depth")
    __slots__ = _fields + ("_codes", "_predecessors")

    def __reduce__(self) -> tuple:  # copies keep the blocks the graph is built from
        return _index_of, (getattr(self, "_codes", None), self._values())

    @property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        predecessors = getattr(self, "_predecessors", None)
        if predecessors is None:
            predecessors = _reverse_graph(self._codes, self.entries)
            object.__setattr__(self, "_predecessors", predecessors)
        return predecessors

    def distances(self, target: str) -> list[int]:
        """Each location's hop count to the target's entry, -1 where it
        cannot reach it: one backward BFS over ``predecessors``."""
        start = self.entries.get(target)
        if start is None:
            raise ValueError(f"unknown target '{target}'")
        predecessors = self.predecessors
        hops = [-1] * len(predecessors)
        hops[start] = 0
        queue = [start]
        for loc in queue:
            step = hops[loc] + 1
            for pred in predecessors[loc]:
                if hops[pred] < 0:
                    hops[pred] = step
                    queue.append(pred)
        return hops

    def next_target(self, covered: Set[str], skip: Set[str], start: int = 0) -> str | None:
        """FS's next target: the first reachable function, in ``by_depth``
        order, that is in neither ``covered`` nor ``skip`` and has a covered
        caller; without one, the first that is in neither; else None.

        The scan begins at ``by_depth[start]``; every function before it
        must be in ``covered`` or ``skip``.
        """
        first = None
        for name in self.by_depth[start:]:
            if name in covered or name in skip:
                continue
            if not covered.isdisjoint(self.callers[name]):
                return name
            if first is None:
                first = name
        return first


def index_program(program: Program) -> ProgramIndex:
    """The program's index, built on first use and stored on the program.

    Like the lowered form, the index lives and dies with its program, so
    every campaign on one program shares it.
    """
    index = getattr(program, "_index", None)
    if index is not None:
        return index
    functions = program.functions
    codes = lowered_form(program)[0]
    entries: dict[str, int] = {}
    edges: set[tuple[str, str]] = set()
    here = 0
    for fname, func in functions.items():
        entries[fname] = here
        for code in codes[here:here + len(func.blocks)]:
            for instr in code:
                if instr[0] == OP_CALL:
                    edges.add((fname, instr[1]))
        here += len(func.blocks)

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
    index = _index_of(codes, (
        cg,
        cg.reachable(),
        entries,
        {name: tuple(names) for name, names in callers.items()},
        tuple(sorted(depths, key=lambda name: (depths[name], name))),
    ))
    object.__setattr__(program, "_index", index)
    return index


def _index_of(codes: list[list[tuple]], fields: tuple) -> ProgramIndex:
    index = ProgramIndex(*fields)
    object.__setattr__(index, "_codes", codes)
    return index


def _reverse_graph(codes: list[list[tuple]], entries: dict[str, int]) -> tuple:
    """Every location's predecessors. In a block, edges leave from the
    current point: the block's id, then after each call that call's
    after-call id, the next free one. Return edges run from a callee's
    return points to its calls' after-call points."""
    predecessors: list[list[int]] = [[] for _ in codes]
    after_calls: list[tuple[int, str]] = []
    returns: dict[str, list[int]] = {}
    ends = [*list(entries.values())[1:], len(codes)]
    for (fname, first), end in zip(entries.items(), ends):
        returns[fname] = points = []
        for here in range(first, end):
            point = here
            for instr in codes[here]:
                op = instr[0]
                if op == OP_CALL:
                    predecessors[instr[4]].append(point)
                    point = len(predecessors)
                    predecessors.append([])
                    after_calls.append((point, instr[1]))
                elif op == OP_BRANCH:
                    predecessors[instr[8]].append(point)
                    predecessors[instr[11]].append(point)
                elif op == OP_JUMP:
                    predecessors[instr[3]].append(point)
                elif op == OP_RETURN:
                    points.append(point)
    for point, callee in after_calls:
        predecessors[point] += returns[callee]
    return tuple(tuple(sorted(set(preds))) for preds in predecessors)


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
