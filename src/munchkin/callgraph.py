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
target ids, and its returns. The index states each fact once in four
fields: ``entries`` (every function, in program order, with its entry id),
``callers`` (the call relation), ``depths`` (keyed by the reachable
functions) and ``by_depth``. From the first ``distances`` call it also
holds the reverse graph over those location ids and one after-call id per
call instruction, numbered after the blocks in program order; it keeps
nothing per target.
``ProgramIndex.distances`` runs one backward BFS from a target's entry on
each call and returns a new hop map from each location that can reach the
target to its hop count; a location that cannot is absent. The BFS
touches the target's ancestors only, so its cost, and the map's size,
follow the target, not the program. A sonar run asks for its target's map
once and owns it.
"""

from __future__ import annotations

from collections.abc import Set

from .executor import OP_BRANCH, OP_CALL, OP_JUMP, OP_RETURN, lowered_form
from .ir import ENTRY_FUNCTION, Program, _Record


class ProgramIndex(_Record):
    """Static facts of one program, computed once and shared by its campaigns.

    Read off the lowered form, so blocks have its location ids. ``entries``
    maps each function, in program order, to its entry block's id;
    ``callers`` maps each function to the set of its callers' names;
    ``depths`` maps each reachable function to its depth; and ``by_depth``
    lists the reachable functions by ascending depth, then name.
    ``predecessors[i]`` lists, ascending and without repeats, the locations
    with an edge into location ``i``, built on first use from the lowered
    blocks, which a slot that is not a field keeps: the index holds no
    reference to its program.
    """

    _fields = ("entries", "callers", "depths", "by_depth")
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

    def distances(self, target: str) -> dict[int, int]:
        """A new map from each location that can reach the target's entry
        to its hop count there, by one backward BFS over ``predecessors``;
        a location that cannot reach it is absent."""
        start = self.entries.get(target)
        if start is None:
            raise ValueError(f"unknown target '{target}'")
        predecessors = self.predecessors
        hops = {start: 0}
        queue = [start]
        for loc in queue:
            step = hops[loc] + 1
            for pred in predecessors[loc]:
                if pred not in hops:
                    hops[pred] = step
                    queue.append(pred)
        return hops

    def reachable(self) -> frozenset[str]:
        """The functions that a call chain from the entry function reaches."""
        return frozenset(self.depths)

    def next_target(self, covered: Set[str], skip: Set[str], start: int = 0) -> str | None:
        """FS's next target: the first reachable function, in ``by_depth``
        order, that is in neither ``covered`` nor ``skip`` and has a covered
        caller; without one, the first that is in neither; else None.

        The scan begins at ``by_depth[start]``; every function before it
        must be in ``covered`` or ``skip``.
        """
        by_depth, callers = self.by_depth, self.callers
        first = None
        for i in range(start, len(by_depth)):
            name = by_depth[i]
            if name in covered or name in skip:
                continue
            if not covered.isdisjoint(callers[name]):
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
    codes, _, _, entries = lowered_form(program)
    # Callees in call order, repeats kept: the BFS then fills ``depths`` in
    # an order that no hash seed changes.
    callees: dict[str, list[str]] = {name: [] for name in entries}
    callers: dict[str, set[str]] = {name: set() for name in entries}
    ends = [*list(entries.values())[1:], len(codes)]
    for (fname, first), end in zip(entries.items(), ends):
        called = callees[fname]
        for code in codes[first:end]:
            for instr in code:
                if instr[0] == OP_CALL:
                    called.append(instr[1])
                    callers[instr[1]].add(fname)
    depths = {ENTRY_FUNCTION: 0}
    queue = [ENTRY_FUNCTION]
    for fname in queue:
        step = depths[fname] + 1
        for callee in callees[fname]:
            if callee not in depths:
                depths[callee] = step
                queue.append(callee)
    index = _index_of(codes, (
        entries,
        callers,
        depths,
        tuple(sorted(depths, key=lambda name: (depths[name], name))),
    ))
    object.__setattr__(program, "_index", index)
    return index


build_callgraph = index_program  # the older name, which the bench reads


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
    # Most locations have one predecessor or none: only longer lists are sorted.
    return tuple(
        tuple(sorted(set(preds))) if len(preds) > 1 else tuple(preds)
        for preds in predecessors
    )


def to_dot(index: ProgramIndex) -> str:
    """Graphviz digraph text for the call graph."""
    lines = ["digraph callgraph {"]
    for name in sorted(index.entries):
        lines.append(f'  "{name}";')
    edges = sorted(
        (caller, callee) for callee, names in index.callers.items() for caller in names
    )
    for caller, callee in edges:
        lines.append(f'  "{caller}" -> "{callee}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def depths_tsv(index: ProgramIndex) -> str:
    """TSV listing ``function<TAB>depth``, unreachable functions last."""
    depths = index.depths

    def key(name: str) -> tuple[int, int, str]:
        depth = depths.get(name)
        return (1 if depth is None else 0, depth if depth is not None else 0, name)

    lines = []
    for name in sorted(index.entries, key=key):
        depth = depths.get(name)
        lines.append(f"{name}\t{'unreachable' if depth is None else depth}")
    return "\n".join(lines) + "\n"
