"""Concrete interpreter with function and edge coverage instrumentation.

Runs are deterministic: identical (program, input, step limit) always
produce identical results. ``ReadInput`` consumes the next input value and
yields 0 once the vector is exhausted, so every input vector is a total
test case. Reading a never-assigned local also yields 0. A run is thus a
pure function of the values its ``input`` instructions read: two vectors
whose first ``inputs_read`` values agree, each padded with zeros to that
length, run identically and read the same number of values. The fuzzer
relies on this to skip inputs whose consumed prefix has already run.

Edge coverage uses a fixed 65536-slot hash bitmap over block transitions,
kept here as the sparse set of set bit indices. The hash of a transition
from location ``prev`` to ``cur`` (each a (function, block) pair), with
``fnv1a_32`` the 32-bit FNV-1a hash of a text's UTF-8 bytes, is::

    (fnv1a_32(prev_func + ":" + prev_block) >> 1)
        XOR fnv1a_32(cur_func + ":" + cur_block), masked to 16 bits

A virtual start location ("", "") precedes the entry block, so every run
sets at least one bit. The hash is a pure function of names, making
bitmaps comparable across runs and processes; collisions are accepted.

The first run of a program lowers it (``lowered_form``): each location is
hashed once, every block becomes a list of small opcode tuples, and
branches, jumps and calls hold their targets' blocks, edge indexes and
location ids (blocks numbered in program order). The lowered form is
stored on the program object, built once per program (never by
``parse_program``) and freed with it. The symbolic interpreter runs the same
tuples, and ``callgraph.index_program`` reads the functions' entry ids, the
call graph and the block graph off them. Lowering changes no result: the
edge hash above and the bitmap are bit-for-bit those of a direct
interpretation of the IR.
"""

from __future__ import annotations

import enum
from pathlib import Path
from typing import Iterable, Sequence

from .ir import (
    BinOp,
    Branch,
    Const,
    ENTRY_FUNCTION,
    INT32_MAX,
    INT32_MIN,
    Jump,
    Print,
    Program,
    ReadInput,
    _COMPARE,
    _Record,
    apply_binop,
    int_literal,
    wrap32,
)

InputVector = tuple[int, ...]

MAP_SIZE = 1 << 16
DEFAULT_STEP_LIMIT = 10**6

class Outcome(enum.Enum):
    COMPLETED = "completed"
    ARITHMETIC_FAULT = "arithmetic-fault"
    STEP_LIMIT_EXCEEDED = "step-limit-exceeded"


class CoverageMap(_Record):
    """Function coverage set plus edge bitmap (sparse set-bit indices)."""

    __slots__ = _fields = ("functions", "edge_bits")
    _defaults = (frozenset(), frozenset())

    @property
    def edge_count(self) -> int:
        return len(self.edge_bits)


class RunResult(_Record):
    """One run's coverage, outcome, printed values and work.

    ``inputs_read`` counts the ``input`` instructions executed, reads past the
    end of the vector included; a run stopped by a fault or the step limit
    counts only the reads before it stopped.
    """

    __slots__ = _fields = ("coverage", "outcome", "printed", "steps", "inputs_read")


# Opcodes of the lowered form, shared by this interpreter and the symbolic
# one (symex). Every instruction and terminator of a block becomes one tuple
# whose first element is its opcode; an operand becomes the pair (operand,
# is_name). A transfer (branch, jump, call) holds, for each target, the
# target block's instruction list, the edge index of the transition and the
# target's location id; a branch also holds its comparison as an ``operator``
# function and as its IR string. A return holds its block's shifted hash. So
# no run hashes a name or looks a block up by name.
OP_CONST, OP_INPUT, OP_BINOP, OP_PRINT, OP_CALL, OP_BRANCH, OP_JUMP, OP_RETURN = range(8)
_MASK = MAP_SIZE - 1

# (blocks by location id, entry location id, edge index of the start
# transition, each function's entry location id in program order)
Lowered = tuple[list[list[tuple]], int, int, dict[str, int]]


def _lower(program: Program) -> Lowered:
    """Each block as a list of opcode tuples, terminator last.

    The 32-bit FNV-1a inlined: a location's hash continues the FNV state of its
    function's ``name:`` prefix, hashed once. It is kept to its low 17 bits
    (the offset basis and the prime reduced to ``0x9DC5`` and ``0x193``),
    which are exactly those of the 32-bit hash: an FNV-1a step's XOR and
    multiplication modulo 2**32 give low bits that depend only on the low
    bits of the state, the byte and the prime. Every use of a hash reads its
    bits 0-15 (``& _MASK``) or, shifted right by one, its bits 1-16.
    """
    functions = program.functions
    ids = {}  # function -> block -> location id
    hashes = []
    for fname, func in functions.items():
        prefix = 0x9DC5
        for byte in f"{fname}:".encode("utf-8"):
            prefix = ((prefix ^ byte) * 0x193) & 0x1FFFF
        ids[fname] = {bid: len(hashes) + k for k, bid in enumerate(func.blocks)}
        for bid in func.blocks:
            h = prefix
            for byte in bid.encode("utf-8"):
                h = ((h ^ byte) * 0x193) & 0x1FFFF
            hashes.append(h)
    codes: list[list[tuple]] = [[] for _ in hashes]
    entries = {fname: next(iter(local.values())) for fname, local in ids.items()}

    here = 0
    for fname, func in functions.items():
        local = ids[fname]
        for block in func.blocks.values():
            code = codes[here]
            shifted = hashes[here] >> 1
            for instr in block.instructions:
                kind = instr.__class__
                if kind is Const:
                    code.append((OP_CONST, instr.dest, instr.value))
                elif kind is ReadInput:
                    code.append((OP_INPUT, instr.dest))
                elif kind is BinOp:
                    lhs, rhs = instr.lhs, instr.rhs
                    code.append((
                        OP_BINOP, instr.dest, instr.op,
                        lhs, lhs.__class__ is str, rhs, rhs.__class__ is str,
                    ))
                elif kind is Print:
                    value = instr.operand
                    code.append((OP_PRINT, value, value.__class__ is str))
                else:
                    name = instr.callee
                    i = entries[name]
                    args = tuple([
                        (param, arg, arg.__class__ is str)
                        for param, arg in zip(functions[name].params, instr.args)
                    ])
                    code.append((
                        OP_CALL, name, codes[i], (shifted ^ hashes[i]) & _MASK, i,
                        args, instr.dest, hashes[here] & _MASK,
                    ))
            term = block.terminator
            kind = term.__class__
            if kind is Branch:
                lhs, rhs = term.lhs, term.rhs
                i, j = local[term.then_block], local[term.else_block]
                code.append((
                    OP_BRANCH, _COMPARE[term.cmp],
                    lhs, lhs.__class__ is str, rhs, rhs.__class__ is str,
                    codes[i], (shifted ^ hashes[i]) & _MASK, i,
                    codes[j], (shifted ^ hashes[j]) & _MASK, j, term.cmp,
                ))
            elif kind is Jump:
                i = local[term.target]
                code.append((OP_JUMP, codes[i], (shifted ^ hashes[i]) & _MASK, i))
            else:
                value = 0 if term.value is None else term.value
                code.append((OP_RETURN, value, value.__class__ is str, shifted & _MASK))
            here += 1

    entry = entries[ENTRY_FUNCTION]
    # The virtual start location ("", "") hashes as the text ":".
    start = ((((0x9DC5 ^ 0x3A) * 0x193 & 0x1FFFF) >> 1) ^ hashes[entry]) & _MASK
    return codes, entry, start, entries


def lowered_form(program: Program) -> Lowered:
    """The program's lowered form, built on first use and stored on the program.

    Stored on the (frozen) program object, so it is built once per program
    and freed with it. The program must be valid, as ``parse_program`` and
    ``generate_program`` leave it.
    """
    lowered = getattr(program, "_lowered", None)
    if lowered is None:
        lowered = _lower(program)
        object.__setattr__(program, "_lowered", lowered)
    return lowered


def run_concrete(
    program: Program, input_values: Sequence[int], step_limit: int = DEFAULT_STEP_LIMIT
) -> RunResult:
    """Execute the program from its entry function on one input vector.

    The program must be valid, as ``parse_program`` and
    ``generate_program`` leave it.
    """
    if step_limit <= 0:
        raise ValueError("step limit must be positive")
    codes, entry_id, start_edge, _ = lowered_form(program)
    code = codes[entry_id]

    covered = {ENTRY_FUNCTION}
    edges = {start_edge}
    printed: list[int] = []
    # Callers' (code, index, locals, result local, block hash) while a callee runs.
    stack: list[tuple] = []
    env: dict[str, int] = {}
    index = 0
    reads = 0
    steps = 0
    outcome = Outcome.COMPLETED
    while True:
        if steps >= step_limit:
            outcome = Outcome.STEP_LIMIT_EXCEEDED
            break
        steps += 1
        instr = code[index]
        index += 1
        op = instr[0]
        if op == OP_BRANCH:
            (_, compare, lhs, lhs_name, rhs, rhs_name,
             then, then_edge, _, other, other_edge, _, _) = instr
            if compare(env.get(lhs, 0) if lhs_name else lhs, env.get(rhs, 0) if rhs_name else rhs):
                code = then
                edges.add(then_edge)
            else:
                code = other
                edges.add(other_edge)
            index = 0
        elif op == OP_CALL:
            _, callee, entry, call_edge, _, args, dest, caller_hash = instr
            stack.append((code, index, env, dest, caller_hash))
            caller_env = env
            env = {}
            for param, arg, name in args:
                env[param] = caller_env.get(arg, 0) if name else arg
            code = entry
            index = 0
            covered.add(callee)
            edges.add(call_edge)
        elif op == OP_RETURN:
            value = env.get(instr[1], 0) if instr[2] else instr[1]
            if not stack:
                break
            code, index, env, dest, caller_hash = stack.pop()
            edges.add(instr[3] ^ caller_hash)
            if dest is not None:
                env[dest] = value
        elif op == OP_JUMP:
            code = instr[1]
            index = 0
            edges.add(instr[2])
        elif op == OP_BINOP:
            _, dest, binop, lhs, lhs_name, rhs, rhs_name = instr
            try:
                env[dest] = apply_binop(
                    binop,
                    env.get(lhs, 0) if lhs_name else lhs,
                    env.get(rhs, 0) if rhs_name else rhs,
                )
            except ZeroDivisionError:
                outcome = Outcome.ARITHMETIC_FAULT
                break
        elif op == OP_CONST:
            env[instr[1]] = instr[2]
        elif op == OP_INPUT:
            env[instr[1]] = wrap32(input_values[reads]) if reads < len(input_values) else 0
            reads += 1
        else:
            printed.append(env.get(instr[1], 0) if instr[2] else instr[1])

    return RunResult(
        CoverageMap(frozenset(covered), frozenset(edges)),
        outcome,
        tuple(printed),
        steps,
        reads,
    )


# ---------------------------------------------------------------------------
# Test-case files: UTF-8 text, one decimal int32 per line.
# ---------------------------------------------------------------------------


def write_input_file(path: str | Path, values: Iterable[int]) -> None:
    Path(path).write_text("".join(f"{v}\n" for v in values), encoding="utf-8")


def read_input_file(path: str | Path) -> InputVector:
    values = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), 1):
        line = raw.strip()
        if not line:
            continue
        try:
            value = int_literal(line)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: not an integer: {line!r}")
        if not INT32_MIN <= value <= INT32_MAX:
            raise ValueError(f"{path}: line {lineno}: value out of int32 range")
        values.append(value)
    return tuple(values)


def read_seed_dir(path: str | Path) -> list[InputVector]:
    """Load every ``*.txt`` test case in a directory, sorted by filename.

    A path that is empty (``Path("")`` would read the working directory) or
    not an existing directory raises ``NotADirectoryError``.
    """
    if path == "":
        raise NotADirectoryError("seed path is empty")
    directory = Path(path)
    if not directory.is_dir():
        raise NotADirectoryError(f"seed path {directory} is not a directory")
    seeds = []
    for entry in sorted(directory.glob("*.txt")):
        seeds.append(read_input_file(entry))
    return seeds
