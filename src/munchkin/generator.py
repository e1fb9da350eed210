"""Synthetic range-dispatch programs with a known call-graph shape.

``generate_program`` emits a program whose ``main`` reads one integer,
rejects anything outside ``[0, b**d - 1]`` (prints -1 and returns, the IR
has no strings), and otherwise dispatches into a complete b-ary tree of
range-handler functions. The root handles the full range, every internal
node splits its range into ``b`` equal contiguous subranges and calls the
child owning the input, and each leaf handles a singleton range and prints
the input. Total function count is ``1 + (b**(d+1) - 1) // (b - 1)``:
``main`` plus a complete b-ary tree with levels 0..d.

Because the executed path for any input is pure range arithmetic,
``ground_truth_coverage`` can state the exact function-coverage set per
input without running the interpreter, which makes these programs the
oracle substrate for the executor, fuzzer, and symbolic engine tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import (
    Block,
    Branch,
    Call,
    Function,
    Print,
    Program,
    ReadInput,
    Return,
    validate_program,
)

MAX_TOTAL_FUNCTIONS = 10**6
_MASK64 = (1 << 64) - 1

# Printed by main on out-of-range input; gives fuzzers a trivially
# reachable rejection path.
INVALID_MARKER = -1


@dataclass(frozen=True)
class GenParams:
    """Generator parameters: branching factor, call-graph depth, name salt."""

    branching: int
    depth: int
    seed: int = 0


def validate_params(params: GenParams) -> None:
    if not 2 <= params.branching <= 16:
        raise ValueError("branching factor must be in [2, 16]")
    if not 1 <= params.depth <= 12:
        raise ValueError("depth must be in [1, 12]")
    if total_functions(params) > MAX_TOTAL_FUNCTIONS:
        raise ValueError("parameters would generate more than 10**6 functions")


def total_functions(params: GenParams) -> int:
    """Closed-form function count: main plus the complete dispatch tree."""
    b, d = params.branching, params.depth
    return 1 + (b ** (d + 1) - 1) // (b - 1)


def input_range(params: GenParams) -> tuple[int, int]:
    """Inclusive range of accepted inputs."""
    return 0, params.branching**params.depth - 1


def split_range(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """Split [lo, hi] into ``parts`` contiguous subranges.

    When the size is not divisible, earlier children receive the larger
    share. Generated programs always split exactly; the uneven case exists
    for callers that relax the power-of-b range.
    """
    size = hi - lo + 1
    if parts < 1 or size < parts:
        raise ValueError("range too small to split")
    base, rem = divmod(size, parts)
    ranges = []
    start = lo
    for k in range(parts):
        width = base + (1 if k < rem else 0)
        ranges.append((start, start + width - 1))
        start += width
    return ranges


def _mix(seed: int, lo: int, hi: int) -> int:
    h = (
        seed * 0x9E3779B97F4A7C15 + (lo + 1) * 0xBF58476D1CE4E5B9 + (hi + 1) * 0x94D049BB133111EB
    ) & _MASK64
    h ^= h >> 31
    h = (h * 0xD6E8FEB86659FD93) & _MASK64
    h ^= h >> 27
    return h & 0xFFFF


def _node_name(params: GenParams, lo: int, hi: int) -> str:
    if params.seed == 0:
        return f"n_{lo}_{hi}"
    return f"n_{lo}_{hi}_{_mix(params.seed, lo, hi):04x}"


def _leaf_function() -> Function:
    blocks = {"entry": Block((Print("x"),), Return(None))}
    return Function(("x",), blocks)


def _internal_function(params: GenParams, lo: int, hi: int) -> Function:
    children = split_range(lo, hi, params.branching)
    call_blocks = [f"c{k}" for k in range(len(children))]
    blocks: dict[str, Block] = {}
    # Chain of b-1 tests; test block k decides child k versus the rest.
    for k in range(len(children) - 1):
        bid = "entry" if k == 0 else f"t{k}"
        next_bid = call_blocks[k + 1] if k == len(children) - 2 else f"t{k + 1}"
        bound = children[k + 1][0]
        blocks[bid] = Block((), Branch("<", "x", bound, call_blocks[k], next_bid))
    for k, (clo, chi) in enumerate(children):
        bid = call_blocks[k]
        callee = _node_name(params, clo, chi)
        blocks[bid] = Block((Call(None, callee, ("x",)),), Return(None))
    return Function(("x",), blocks)


def _main_function(params: GenParams) -> Function:
    lo, hi = input_range(params)
    root = _node_name(params, lo, hi)
    blocks = {
        "entry": Block((ReadInput("x"),), Branch("<", "x", 0, "reject", "lo_ok")),
        "lo_ok": Block((), Branch(">", "x", hi, "reject", "accept")),
        "accept": Block((Call(None, root, ("x",)),), Return(None)),
        "reject": Block((Print(INVALID_MARKER),), Return(None)),
    }
    return Function((), blocks)


def generate_program(params: GenParams) -> Program:
    """Build the dispatch-tree program for the given parameters."""
    validate_params(params)
    lo, hi = input_range(params)
    functions: dict[str, Function] = {"main": _main_function(params)}
    queue: list[tuple[int, int]] = [(lo, hi)]
    while queue:
        nlo, nhi = queue.pop(0)
        name = _node_name(params, nlo, nhi)
        if nlo == nhi:
            functions[name] = _leaf_function()
            continue
        functions[name] = _internal_function(params, nlo, nhi)
        queue.extend(split_range(nlo, nhi, params.branching))
    program = Program(f"b{params.branching}_d{params.depth}", functions)
    validate_program(program)
    return program


def covered_functions(params: GenParams, value: int) -> frozenset[str]:
    """Exact function-coverage set for one input, by range arithmetic."""
    lo, hi = input_range(params)
    if value < lo or value > hi:
        return frozenset({"main"})
    covered = {"main"}
    while True:
        covered.add(_node_name(params, lo, hi))
        if lo == hi:
            return frozenset(covered)
        for clo, chi in split_range(lo, hi, params.branching):
            if clo <= value <= chi:
                lo, hi = clo, chi
                break


def ground_truth_coverage(params: GenParams) -> dict[int, frozenset[str]]:
    """Coverage oracle over every accepted input plus one rejected one.

    Keys are ``-1`` (the rejection representative) and all of
    ``[0, b**d - 1]``. The union of the values equals the program's full
    function set.
    """
    validate_params(params)
    lo, hi = input_range(params)
    if hi - lo + 1 > 1 << 16:
        raise ValueError("input range too large for exhaustive ground truth")
    table = {-1: covered_functions(params, -1)}
    for value in range(lo, hi + 1):
        table[value] = covered_functions(params, value)
    return table
