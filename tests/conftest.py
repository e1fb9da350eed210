from pathlib import Path

import pytest

from munchkin.executor import MAP_SIZE
from munchkin.ir import parse_program
from munchkin.solver import PathCondition


# The location that precedes a run's entry block.
_START_LOCATION = ("", "")


def fnv1a32(text):
    """32-bit FNV-1a of the text's UTF-8 bytes: the reference for the
    17-bit hashes that ``executor._lower`` computes inline."""
    h = 0x811C9DC5
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * 0x01000193) & 0xFFFFFFFF
    return h


def _location_hash(location):
    return fnv1a32(f"{location[0]}:{location[1]}")


def edge_index(prev, cur):
    """The edge hash of ``executor``'s docstring, for a transition between
    two (function, block) locations: the reference for pinned edge values."""
    return ((_location_hash(prev) >> 1) ^ _location_hash(cur)) & (MAP_SIZE - 1)


def apply_cmp(cmp, lhs, rhs):
    """Evaluate a comparison operator on two int32 values: the reference
    solver's own, independent of ``ir._COMPARE``."""
    if cmp == "<":
        return lhs < rhs
    if cmp == "<=":
        return lhs <= rhs
    if cmp == "==":
        return lhs == rhs
    if cmp == "!=":
        return lhs != rhs
    if cmp == ">=":
        return lhs >= rhs
    if cmp == ">":
        return lhs > rhs
    raise ValueError(f"unknown comparison {cmp!r}")


def extend(solver, pc, c):
    """``pc`` with ``c`` on top: the node of ``solver``'s trie, made on first
    use and kept in its child table as ``Solver.branch`` keeps the nodes it
    makes, so tests can build any path without a branch."""
    children = solver._children
    child = children.get((pc, c))
    if child is None:
        child = children[pc, c] = PathCondition(c, pc)
    return child


def block_locations(program):
    """Every (function, block) location in program order: a location's
    position here is its location id in the lowered form and the index."""
    return tuple(
        (fname, bid) for fname, func in program.functions.items() for bid in func.blocks
    )


def read_plot_dat(path):
    """A plot data file's rows as tuples of floats; rows end only at ``\\n``."""
    rows = []
    for raw in Path(path).read_text(encoding="utf-8").split("\n"):
        line = raw.strip()
        if line:
            rows.append(tuple(float(cell) for cell in line.split()))
    return rows


CHAIN_TEXT = """\
program chain

func main()
block entry:
  call f()
  ret

func f()
block entry:
  call g()
  ret

func g()
block entry:
  ret
"""

# main calls f; nothing calls orphan.
UNREACHABLE_TEXT = """\
program p

func main()
block entry:
  call f()
  ret

func f()
block entry:
  ret

func orphan()
block entry:
  ret
"""


@pytest.fixture
def chain_program():
    """main calls f calls g, one block each."""
    return parse_program(CHAIN_TEXT)
