"""Record types: which stay dataclasses, and how the others match them."""

import copy
import dataclasses
import importlib
import inspect
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest

import munchkin
from munchkin.callgraph import ProgramIndex, index_program
from munchkin.executor import CoverageMap, Outcome, RunResult, lowered_form
from munchkin.fuzzer import CorpusEntry, FuzzResult
from munchkin.generator import GenParams, generate_program
from munchkin.ir import (
    BinOp,
    Block,
    Branch,
    Call,
    Const,
    Function,
    Jump,
    Print,
    Program,
    ReadInput,
    Return,
    _MutableRecord,
    _Record,
)
from munchkin.solver import Constraint, LinExpr, SolveResult, SolverStats
from munchkin.symex import SymResult
from munchkin.symex import TestCase as SymTestCase  # not a pytest class

# Callers build these from keywords or pass them to ``dataclasses.replace``.
KEPT_DATACLASSES = {
    "munchkin.generator.GenParams",
    "munchkin.fuzzer.FuzzConfig",
    "munchkin.symex.SymexLimits",
    "munchkin.orchestrator.HybridConfig",
    "munchkin.orchestrator.CampaignReport",
}


def test_the_only_dataclasses_are_the_five_kept_types():
    found = set()
    for info in pkgutil.iter_modules(munchkin.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"munchkin.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found.add(f"{cls.__module__}.{cls.__qualname__}")
    assert found == KEPT_DATACLASSES


def test_importing_the_package_loads_neither_the_cli_nor_argparse():
    code = "import sys, munchkin; print(sorted({'argparse', 'munchkin.cli'} & set(sys.modules)))"
    src = os.path.dirname(os.path.dirname(munchkin.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.stdout.strip() == "[]", out.stderr


_COVERAGE = CoverageMap(frozenset({"main", "f"}), frozenset({3, 40000}))
_RUN = RunResult(_COVERAGE, Outcome.COMPLETED, (1, -2), 17, 2)
_RETURN_BLOCK = Block((), Return(None))
_INDEX = index_program(generate_program(GenParams(2, 1)))

# One value per field, for each of the 23 record types.
SAMPLES = {
    Const: ("x", 5),
    ReadInput: ("x",),
    BinOp: ("x", "+", "a", -3),
    Call: ("x", "f", ("a", 1)),
    Print: ("a",),
    Branch: ("<", "a", 3, "t", "e"),
    Jump: ("t",),
    Return: (None,),
    Block: ((Const("x", 5), Print("x")), Return("x")),
    Function: (("a",), {"e": _RETURN_BLOCK}),
    Program: ("p", {"main": Function((), {"e": _RETURN_BLOCK})}),
    LinExpr: (3, ((0, 1), (2, -4))),
    Constraint: ("<=", LinExpr(0, ((0, 1),)), LinExpr(7, ())),
    SolverStats: (5, 3, 1, 1, 2),
    SolveResult: ("sat", (1, 2)),
    SymTestCase: ((1, 2), _RUN),
    SymResult: ([SymTestCase((1,), _RUN)], _COVERAGE, SolverStats(1, 1), 4, True),
    ProgramIndex: (_INDEX.entries, _INDEX.callers, _INDEX.depths, _INDEX.by_depth),
    CoverageMap: (frozenset({"main"}), frozenset({1, 2})),
    RunResult: (_COVERAGE, Outcome.COMPLETED, (1, -2), 17, 2),
    CorpusEntry: ((1, 2), _COVERAGE, 3),
    FuzzResult: (
        [CorpusEntry((0,), _COVERAGE, 0)],
        _COVERAGE,
        9,
        [((0,), Outcome.ARITHMETIC_FAULT)],
        {"main": (0,)},
    ),
}
MUTABLE = {SolverStats, SymResult, FuzzResult}
RECORDS = sorted(SAMPLES, key=lambda cls: cls.__name__)
# Each does more than store its arguments: Constraint starts its caches,
# FuzzResult gives each instance a fresh {}.
WRITTEN_INIT = {Constraint, FuzzResult}


def _twin(cls):
    """A dataclass with the record's name and fields, frozen where the record is."""
    return dataclasses.make_dataclass(cls.__name__, cls._fields, frozen=cls not in MUTABLE)


def _hash_or_type_error(value):
    try:
        return hash(value)
    except TypeError:
        return TypeError


def test_the_samples_cover_every_record_type_of_the_package():
    records = {
        cls
        for info in pkgutil.iter_modules(munchkin.__path__)
        if info.name != "__main__"
        for _, cls in inspect.getmembers(
            importlib.import_module(f"munchkin.{info.name}"), inspect.isclass
        )
        if issubclass(cls, _Record) and cls not in (_Record, _MutableRecord)
    }
    assert records == set(SAMPLES) and len(records) == 22


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestRecordParity:
    def test_init_takes_the_fields_in_order(self, cls):
        params = list(inspect.signature(cls.__init__).parameters)[1:]
        assert tuple(params) == cls._fields

    def test_equal_fields_give_equal_records_and_equal_hashes(self, cls):
        args = SAMPLES[cls]
        a, b = cls(*args), cls(*args)
        assert a == b and not a != b
        assert _hash_or_type_error(a) == _hash_or_type_error(b)
        assert _hash_or_type_error(a) == _hash_or_type_error(_twin(cls)(*args))
        assert a != cls(object(), *args[1:])

    def test_a_record_never_equals_another_type_with_the_same_fields(self, cls):
        args = SAMPLES[cls]
        record = cls(*args)
        twin = _twin(cls)(*args)
        assert record != twin and twin != record
        assert record.__eq__(twin) is NotImplemented
        for other in RECORDS:
            if other is not cls and len(other._fields) == len(args):
                assert other(*args) != record

    def test_repr_is_the_dataclass_repr(self, cls):
        args = SAMPLES[cls]
        assert repr(cls(*args)) == repr(_twin(cls)(*args))

    def test_assignment_is_rejected_exactly_where_the_dataclass_was_frozen(self, cls):
        record = cls(*SAMPLES[cls])
        for name in cls._fields:
            if cls in MUTABLE:
                setattr(record, name, "new")
                assert getattr(record, name) == "new"
            else:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, "new")
                with pytest.raises(AttributeError):
                    delattr(record, name)
        if cls not in MUTABLE:
            with pytest.raises(AttributeError):
                record.not_a_field = 1

    def test_copies_and_pickles_round_trip(self, cls):
        record = cls(*SAMPLES[cls])
        for clone in (
            copy.copy(record),
            copy.deepcopy(record),
            pickle.loads(pickle.dumps(record)),
        ):
            assert type(clone) is cls
            assert clone == record


def test_exactly_three_records_write_init_in_their_class_body():
    written = {cls for cls in RECORDS if "def __init__" in inspect.getsource(cls)}
    assert written == WRITTEN_INIT


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_other_record_has_the_generated_init(cls):
    generated = cls.__init__.__code__.co_filename == f"<{cls.__qualname__}.__init__>"
    assert generated == (cls not in WRITTEN_INIT)
    assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"


def test_the_records_keep_their_defaults():
    assert Return() == Return(None)
    assert LinExpr() == LinExpr(0, ())
    assert CoverageMap() == CoverageMap(frozenset(), frozenset())
    assert SolveResult("unsat").model is None
    assert SolverStats() == SolverStats(0, 0, 0, 0, 0)
    assert SymResult([], _COVERAGE, SolverStats(), 0).target_reached is False
    first, second = FuzzResult([], _COVERAGE, 0, []), FuzzResult([], _COVERAGE, 0, [])
    assert first.function_witnesses == {}
    assert first.function_witnesses is not second.function_witnesses


def test_the_ir_records_hold_no_name_or_entry_of_their_own():
    # A function's name and a block's id are their dict keys, a function's
    # entry is its first block, and the program's entry is ENTRY_FUNCTION.
    assert Block._fields == ("instructions", "terminator")
    assert Function._fields == ("params", "blocks")
    assert Program._fields == ("name", "functions")


def test_the_reverse_graph_is_not_a_field_of_the_program_index():
    # Built on the first ``distances`` call, it is a cache: equality ignores it.
    assert ProgramIndex._fields == ("entries", "callers", "depths", "by_depth")
    index = index_program(generate_program(GenParams(2, 2)))
    before = copy.copy(index)
    index.distances("n_0_0")
    assert index == before and index.predecessors


def test_copies_of_a_program_and_a_constraint_leave_their_caches_out():
    program = generate_program(GenParams(2, 2))
    lowered, index = lowered_form(program), index_program(program)
    constraint = Constraint(*SAMPLES[Constraint])
    hashed, normal = hash(constraint), constraint.normal
    for clone in (copy.copy(program), copy.deepcopy(program), pickle.loads(pickle.dumps(program))):
        assert clone == program
        assert getattr(clone, "_lowered", None) is None
        assert getattr(clone, "_index", None) is None
        assert lowered_form(clone) is not lowered and index_program(clone) is not index
    for clone in (
        copy.copy(constraint),
        copy.deepcopy(constraint),
        pickle.loads(pickle.dumps(constraint)),
    ):
        assert clone == constraint and clone._hash is None
        assert hash(clone) == hashed and clone.normal == normal
        assert clone.normal is not normal


def test_a_jump_never_equals_a_print_of_the_same_name():
    assert Jump("b") != Print("b")
    assert Jump("b") == Jump("b") and hash(Jump("b")) == hash(("b",))
