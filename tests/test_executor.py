"""Concrete interpreter, coverage maps, test-case files."""

import copy
import gc
import hashlib
import json
import pickle
import weakref

import pytest
from hypothesis import given, settings

from munchkin.executor import (
    _MASK,
    OP_BINOP,
    OP_BRANCH,
    OP_CALL,
    OP_CONST,
    OP_INPUT,
    OP_JUMP,
    OP_PRINT,
    OP_RETURN,
    CoverageMap,
    Outcome,
    _lower,
    read_input_file,
    read_seed_dir,
    run_concrete,
    write_input_file,
)
from munchkin.generator import GenParams, generate_program, ground_truth_coverage
from munchkin.ir import (
    BinOp,
    Branch,
    Call,
    Const,
    ENTRY_FUNCTION,
    Jump,
    Print,
    ReadInput,
    _COMPARE,
    parse_program,
)
from munchkin.orchestrator import HybridConfig, run_fs

from conftest import _START_LOCATION, _location_hash, block_locations, edge_index
from test_ir import _programs
from test_symex import PINNED_TEXT

FAULT_TEXT = """\
program p

func main()
block entry:
  x = const 1
  y = x / 0
  print y
  ret
"""

LOOP_TEXT = """\
program p

func main()
block entry:
  jmp entry
"""

RETVAL_TEXT = """\
program p

func main()
block entry:
  a = call double(21)
  print a
  ret

func double(x)
block entry:
  y = x * 2
  ret y
"""


# A loop, a call whose value is used, a call whose value is dropped, a read
# of a local that only another block assigns, division and remainder.
PINNED_TEXT = """\
program pinned

func main()
block entry:
  n = input
  d = input
  i = const 0
  s = const 0
  jmp head
block head:
  br < i n -> body, done
block body:
  s = call add(s, i)
  call note(i)
  t = i * 3
  i = i + 1
  jmp head
block done:
  q = s / d
  print q
  r = s % 7
  print r
  print t
  ret q

func add(a, b)
block entry:
  c = a + b
  br > c 100 -> big, small
block big:
  print c
  ret c
block small:
  ret c

func note(v)
block entry:
  ret
"""


class TestRunConcrete:
    def test_input_five_matches_oracle(self):
        params = GenParams(2, 3)
        program = generate_program(params)
        result = run_concrete(program, (5,))
        assert result.coverage.functions == ground_truth_coverage(params)[5]
        assert result.printed == (5,)
        assert result.outcome is Outcome.COMPLETED

    def test_exhausted_input_reads_zero(self):
        params = GenParams(2, 3)
        program = generate_program(params)
        result = run_concrete(program, ())
        assert result.coverage.functions == ground_truth_coverage(params)[0]
        assert result.printed == (0,)

    def test_division_by_zero_faults(self):
        result = run_concrete(parse_program(FAULT_TEXT), ())
        assert result.outcome is Outcome.ARITHMETIC_FAULT
        assert result.printed == ()

    def test_step_limit_on_an_infinite_loop(self):
        result = run_concrete(parse_program(LOOP_TEXT), (), step_limit=50)
        assert result.outcome is Outcome.STEP_LIMIT_EXCEEDED
        assert result.steps == 50

    def test_return_values_flow_back(self):
        result = run_concrete(parse_program(RETVAL_TEXT), ())
        assert result.printed == (42,)

    def test_determinism(self):
        program = generate_program(GenParams(3, 2))
        assert run_concrete(program, (4, 9)) == run_concrete(program, (4, 9))

    def test_prefix_coverage_is_subset(self):
        program = generate_program(GenParams(2, 3))
        full = run_concrete(program, (6,))
        for limit in range(1, full.steps + 1):
            partial = run_concrete(program, (6,), step_limit=limit)
            assert partial.coverage.functions <= full.coverage.functions
            assert partial.coverage.edge_bits <= full.coverage.edge_bits

    def test_input_values_are_wrapped_to_int32(self):
        params = GenParams(2, 2)
        program = generate_program(params)
        wrapped = run_concrete(program, (1 << 32,))  # wraps to 0
        assert wrapped.coverage.functions == ground_truth_coverage(params)[0]


# Reads a value, divides by it, then reads another.
DIVIDE_THEN_READ_TEXT = """\
program p

func main()
block entry:
  x = input
  y = 1 / x
  z = input
  ret
"""

# Reads one value per iteration of an endless loop.
READ_LOOP_TEXT = """\
program p

func main()
block entry:
  v = input
  jmp entry
"""


class TestInputsRead:
    def test_a_program_that_reads_nothing_reads_zero_values(self):
        assert run_concrete(parse_program(RETVAL_TEXT), (1, 2, 3)).inputs_read == 0

    @pytest.mark.parametrize("values", [(), (5,), (5, 2), (5, 2, 9, 9)])
    def test_reads_past_the_end_of_the_vector_are_counted(self, values):
        assert run_concrete(parse_program(PINNED_TEXT), values).inputs_read == 2

    def test_a_fault_stops_the_count(self):
        program = parse_program(DIVIDE_THEN_READ_TEXT)
        faulted = run_concrete(program, (0, 5))
        assert faulted.outcome is Outcome.ARITHMETIC_FAULT
        assert faulted.inputs_read == 1
        assert run_concrete(program, (1, 5)).inputs_read == 2

    @pytest.mark.parametrize("step_limit, reads", [(1, 1), (2, 1), (9, 5), (10, 5)])
    def test_the_step_limit_stops_the_count(self, step_limit, reads):
        # Each iteration is two steps, a read and a jump.
        result = run_concrete(parse_program(READ_LOOP_TEXT), (7, 8), step_limit)
        assert result.outcome is Outcome.STEP_LIMIT_EXCEEDED
        assert result.inputs_read == reads


class TestPinnedResults:
    # sha256 of every result below, computed on the interpreter as it was
    # before programs were lowered; a change here changes what tests see.
    DIGEST = "9fc84eb3d511b1baf58005ec811bf7596e2d26532d1c8c16945e563a65227e22"

    def test_results_equal_the_recorded_ones(self):
        program = parse_program(PINNED_TEXT)
        results = [
            run_concrete(program, values, 400)
            for values in [
                (), (5, 2), (20, 3), (3, 0), (-4, 1), (30, -7), (1 << 32, 5), (2**31 - 1, 1)
            ]
        ]
        full = run_concrete(program, (6, 4))
        assert full.steps == 72
        results += [run_concrete(program, (6, 4), limit) for limit in range(1, 74)]
        assert {result.outcome for result in results} == set(Outcome)
        doc = [
            [
                sorted(r.coverage.functions), sorted(r.coverage.edge_bits),
                r.outcome.value, list(r.printed), r.steps,
            ]
            for r in results
        ]
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == self.DIGEST

    def test_a_run_program_is_freed_with_its_lowered_form(self):
        program = parse_program(PINNED_TEXT)
        run_concrete(program, (5, 2))
        # FS also stores the program's index on it.
        analysed = generate_program(GenParams(2, 3))
        run_fs(analysed, HybridConfig(fuzz_budget=8))
        refs = [weakref.ref(program), weakref.ref(analysed)]
        del program, analysed
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


    def test_a_run_program_copies_and_pickles_without_its_lowered_form(self):
        # A long jump chain: the lowered blocks refer to one another, which
        # a recursive copy of them could not follow.
        chain = "".join(f"block b{i}:\n  jmp b{i + 1}\n" for i in range(3000))
        program = parse_program(f"program p\n\nfunc main()\n{chain}block b3000:\n  ret\n")
        result = run_concrete(program, ())
        for clone in (pickle.loads(pickle.dumps(program)), copy.deepcopy(program)):
            assert clone == program
            assert run_concrete(clone, ()) == result


class TestCoverageMerge:
    def test_union_of_oracle_runs_covers_everything(self):
        params = GenParams(2, 2)
        program = generate_program(params)
        functions = set()
        for value in ground_truth_coverage(params):
            functions |= run_concrete(program, (value,)).coverage.functions
        assert functions == set(program.functions)
        assert len(functions) == 8

    def test_edge_count_is_popcount(self):
        cov = CoverageMap(frozenset(), frozenset({1, 5, 9}))
        assert cov.edge_count == 3


class TestEdgeHash:
    def test_documented_values_are_stable(self):
        # Frozen so bitmaps stay comparable across processes and versions.
        assert edge_index(("", ""), ("main", "entry")) == 8760
        assert edge_index(("main", "entry"), ("f", "entry")) == 16080

    def test_direction_matters(self):
        a = edge_index(("main", "entry"), ("f", "entry"))
        b = edge_index(("f", "entry"), ("main", "entry"))
        assert a != b

    def test_range(self):
        assert 0 <= edge_index(("x", "y"), ("z", "w")) < (1 << 16)


class TestInputFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "case.txt"
        write_input_file(path, (5, -3, 2**31 - 1))
        assert read_input_file(path) == (5, -3, 2**31 - 1)

    def test_rejects_non_integers(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("5\nhello\n")
        with pytest.raises(ValueError, match="not an integer"):
            read_input_file(path)

    def test_rejects_out_of_range(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(f"{2**31}\n")
        with pytest.raises(ValueError, match="int32"):
            read_input_file(path)

    def test_seed_dir_sorted_by_name(self, tmp_path):
        write_input_file(tmp_path / "b.txt", (2,))
        write_input_file(tmp_path / "a.txt", (1,))
        assert read_seed_dir(tmp_path) == [(1,), (2,)]

    def test_seed_dir_must_be_a_directory(self, tmp_path):
        with pytest.raises(OSError):
            read_seed_dir(tmp_path / "missing")
        write_input_file(tmp_path / "a.txt", (1,))
        with pytest.raises(OSError):
            read_seed_dir(tmp_path / "a.txt")
        (tmp_path / "empty").mkdir()
        assert read_seed_dir(tmp_path / "empty") == []


def _operand(op):
    return op, isinstance(op, str)


def _reference_lower(program):
    """The lowering as it was written before the one-pass version: every
    location hashed by ``_location_hash``, instructions told apart by
    ``isinstance``, transfers built by a helper."""
    functions = program.functions
    locations = block_locations(program)
    ids = {loc: i for i, loc in enumerate(locations)}
    hashes = [_location_hash(loc) for loc in locations]
    codes = [[] for _ in locations]

    def transfer(src, dst):
        i = ids[dst]
        return codes[i], ((hashes[src] >> 1) ^ hashes[i]) & _MASK, i

    for here, (fname, bid) in enumerate(locations):
        code = codes[here]
        block = functions[fname].blocks[bid]
        for instr in block.instructions:
            if isinstance(instr, Const):
                code.append((OP_CONST, instr.dest, instr.value))
            elif isinstance(instr, ReadInput):
                code.append((OP_INPUT, instr.dest))
            elif isinstance(instr, BinOp):
                code.append(
                    (OP_BINOP, instr.dest, instr.op, *_operand(instr.lhs), *_operand(instr.rhs))
                )
            elif isinstance(instr, Print):
                code.append((OP_PRINT, *_operand(instr.operand)))
            elif isinstance(instr, Call):
                callee = functions[instr.callee]
                args = tuple(
                    (param, *_operand(arg)) for param, arg in zip(callee.params, instr.args)
                )
                entry = (instr.callee, next(iter(callee.blocks)))
                code.append((
                    OP_CALL, instr.callee, *transfer(here, entry),
                    args, instr.dest, hashes[here] & _MASK,
                ))
        term = block.terminator
        if isinstance(term, Branch):
            code.append((
                OP_BRANCH, _COMPARE[term.cmp], *_operand(term.lhs), *_operand(term.rhs),
                *transfer(here, (fname, term.then_block)),
                *transfer(here, (fname, term.else_block)), term.cmp,
            ))
        elif isinstance(term, Jump):
            code.append((OP_JUMP, *transfer(here, (fname, term.target))))
        else:
            value = 0 if term.value is None else term.value
            code.append((OP_RETURN, *_operand(value), (hashes[here] >> 1) & _MASK))

    entries = {fname: ids[(fname, next(iter(func.blocks)))] for fname, func in functions.items()}
    entry = entries[ENTRY_FUNCTION]
    start = ((_location_hash(_START_LOCATION) >> 1) ^ hashes[entry]) & _MASK
    return codes, entry, start, entries


def _by_location_id(lowered):
    """A lowered form with each target block's code list replaced by its
    location id, so forms compare without walking the block graph, and
    its entry ids as a list, so their order is compared too."""
    codes, entry, start, entries = lowered
    ids = {id(code): i for i, code in enumerate(codes)}
    assert len(ids) == len(codes)
    return [
        [tuple(ids[id(x)] if isinstance(x, list) else x for x in instr) for instr in code]
        for code in codes
    ], entry, start, list(entries.items())


class TestLowering:
    """The one-pass lowering equals the reference, tuple for tuple."""

    @pytest.mark.parametrize("branching, depth", [(2, 8), (3, 6), (2, 9)])
    def test_bench_trees(self, branching, depth):
        program = generate_program(GenParams(branching, depth, 0))
        assert _by_location_id(_lower(program)) == _by_location_id(_reference_lower(program))

    def test_hand_programs(self):
        for text in (PINNED_TEXT, LOOP_TEXT, FAULT_TEXT):
            program = parse_program(text)
            assert _by_location_id(_lower(program)) == _by_location_id(_reference_lower(program))

    @settings(max_examples=100, deadline=None)
    @given(_programs())
    def test_random_programs(self, program):
        assert _by_location_id(_lower(program)) == _by_location_id(_reference_lower(program))
