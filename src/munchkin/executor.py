"""Concrete interpreter with function and edge coverage instrumentation.

Runs are deterministic: identical (program, input, step limit) always
produce identical results. ``ReadInput`` consumes the next input value and
yields 0 once the vector is exhausted, so every input vector is a total
test case. Reading a never-assigned local also yields 0.

Edge coverage uses a fixed 65536-slot hash bitmap over block transitions,
kept here as the sparse set of set bit indices. The hash of a transition
from location ``prev`` to ``cur`` (each a (function, block) pair) is::

    (fnv1a32(prev_func + ":" + prev_block) >> 1)
        XOR fnv1a32(cur_func + ":" + cur_block), masked to 16 bits

A virtual start location ("", "") precedes the entry block, so every run
sets at least one bit. The hash is a pure function of names, making
bitmaps comparable across runs and processes; collisions are accepted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .ir import (
    BinOp,
    Branch,
    Call,
    Const,
    INT32_MAX,
    INT32_MIN,
    Jump,
    Operand,
    Print,
    Program,
    ReadInput,
    apply_binop,
    apply_cmp,
    wrap32,
)

InputVector = tuple[int, ...]

MAP_SIZE = 1 << 16
DEFAULT_STEP_LIMIT = 10**6

_START_LOCATION = ("", "")


def fnv1a32(text: str) -> int:
    h = 0x811C9DC5
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x01000193) & 0xFFFFFFFF
    return h


def _location_hash(location: tuple[str, str]) -> int:
    return fnv1a32(f"{location[0]}:{location[1]}")


def edge_index(prev: tuple[str, str], cur: tuple[str, str]) -> int:
    return ((_location_hash(prev) >> 1) ^ _location_hash(cur)) & (MAP_SIZE - 1)


class Outcome(enum.Enum):
    COMPLETED = "completed"
    ARITHMETIC_FAULT = "arithmetic-fault"
    STEP_LIMIT_EXCEEDED = "step-limit-exceeded"


@dataclass(frozen=True)
class CoverageMap:
    """Function coverage set plus edge bitmap (sparse set-bit indices)."""

    functions: frozenset[str] = frozenset()
    edge_bits: frozenset[int] = frozenset()

    @property
    def edge_count(self) -> int:
        return len(self.edge_bits)


EMPTY_COVERAGE = CoverageMap()


def merge_coverage(a: CoverageMap, b: CoverageMap) -> CoverageMap:
    """Union of two coverage maps; commutative, associative, idempotent."""
    return CoverageMap(a.functions | b.functions, a.edge_bits | b.edge_bits)


@dataclass(frozen=True)
class RunResult:
    coverage: CoverageMap
    outcome: Outcome
    printed: tuple[int, ...]
    steps: int


@dataclass
class _Frame:
    function: str
    block: str
    index: int
    locals: dict[str, int]
    ret_dest: str | None


def run_concrete(
    program: Program, input_values: Sequence[int], step_limit: int = DEFAULT_STEP_LIMIT
) -> RunResult:
    """Execute the program from its entry function on one input vector."""
    if step_limit <= 0:
        raise ValueError("step limit must be positive")

    functions = program.functions
    entry = functions[program.entry]
    frames = [_Frame(program.entry, entry.entry_block, 0, {}, None)]
    covered = {program.entry}
    edges: set[int] = set()
    printed: list[int] = []
    input_pos = 0
    steps = 0
    prev_location = _START_LOCATION

    def transition(cur: tuple[str, str]) -> None:
        nonlocal prev_location
        edges.add(edge_index(prev_location, cur))
        prev_location = cur

    transition((program.entry, entry.entry_block))

    def value_of(frame: _Frame, op: Operand) -> int:
        if isinstance(op, int):
            return op
        return frame.locals.get(op, 0)

    outcome = Outcome.COMPLETED
    while frames:
        if steps >= step_limit:
            outcome = Outcome.STEP_LIMIT_EXCEEDED
            break
        steps += 1
        frame = frames[-1]
        block = functions[frame.function].blocks[frame.block]

        if frame.index < len(block.instructions):
            instr = block.instructions[frame.index]
            frame.index += 1
            if isinstance(instr, Const):
                frame.locals[instr.dest] = instr.value
            elif isinstance(instr, ReadInput):
                if input_pos < len(input_values):
                    frame.locals[instr.dest] = wrap32(input_values[input_pos])
                    input_pos += 1
                else:
                    frame.locals[instr.dest] = 0
            elif isinstance(instr, BinOp):
                try:
                    frame.locals[instr.dest] = apply_binop(
                        instr.op, value_of(frame, instr.lhs), value_of(frame, instr.rhs)
                    )
                except ZeroDivisionError:
                    outcome = Outcome.ARITHMETIC_FAULT
                    break
            elif isinstance(instr, Print):
                printed.append(value_of(frame, instr.operand))
            elif isinstance(instr, Call):
                callee = functions[instr.callee]
                args = {
                    param: value_of(frame, arg)
                    for param, arg in zip(callee.params, instr.args)
                }
                covered.add(instr.callee)
                frames.append(
                    _Frame(instr.callee, callee.entry_block, 0, args, instr.dest)
                )
                transition((instr.callee, callee.entry_block))
            continue

        term = block.terminator
        if isinstance(term, Branch):
            taken = apply_cmp(
                term.cmp, value_of(frame, term.lhs), value_of(frame, term.rhs)
            )
            frame.block = term.then_block if taken else term.else_block
            frame.index = 0
            transition((frame.function, frame.block))
        elif isinstance(term, Jump):
            frame.block = term.target
            frame.index = 0
            transition((frame.function, frame.block))
        else:
            value = 0 if term.value is None else value_of(frame, term.value)
            finished = frames.pop()
            if frames:
                caller = frames[-1]
                transition((caller.function, caller.block))
                if finished.ret_dest is not None:
                    caller.locals[finished.ret_dest] = value

    return RunResult(
        CoverageMap(frozenset(covered), frozenset(edges)),
        outcome,
        tuple(printed),
        steps,
    )


# ---------------------------------------------------------------------------
# Test-case files: UTF-8 text, one decimal int32 per line.
# ---------------------------------------------------------------------------


def write_input_file(path: str | Path, values: Iterable[int]) -> None:
    Path(path).write_text("".join(f"{v}\n" for v in values), encoding="utf-8")


def read_input_file(path: str | Path) -> InputVector:
    values = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            value = int(line)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: not an integer: {line!r}")
        if not INT32_MIN <= value <= INT32_MAX:
            raise ValueError(f"{path}: line {lineno}: value out of int32 range")
        values.append(value)
    return tuple(values)


def read_seed_dir(path: str | Path) -> list[InputVector]:
    """Load every ``*.txt`` test case in a directory, sorted by filename.

    A path that is not an existing directory raises ``NotADirectoryError``.
    """
    directory = Path(path)
    if not directory.is_dir():
        raise NotADirectoryError(f"seed path {directory} is not a directory")
    seeds = []
    for entry in sorted(directory.glob("*.txt")):
        seeds.append(read_input_file(entry))
    return seeds
