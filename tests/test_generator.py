"""Dispatch-tree generator and its coverage ground truth."""

import pytest
from hypothesis import given, strategies as st

from munchkin.executor import run_concrete
from munchkin.generator import (
    GenParams,
    covered_functions,
    generate_program,
    ground_truth_coverage,
    input_range,
    split_range,
    total_functions,
    validate_params,
)
from munchkin.ir import validate_program

# (branching, depth, expected function count) for the standard grid.
GRID_COUNTS = [
    (2, 1, 4),
    (2, 2, 8),
    (2, 3, 16),
    (2, 4, 32),
    (3, 1, 5),
    (3, 2, 14),
    (3, 3, 41),
    (3, 4, 122),
    (4, 1, 6),
    (4, 2, 22),
    (4, 3, 86),
    (4, 4, 342),
]


@pytest.mark.parametrize("branching, depth, expected", GRID_COUNTS)
def test_function_counts_match_closed_form(branching, depth, expected):
    params = GenParams(branching, depth)
    assert total_functions(params) == expected
    program = generate_program(params)
    assert len(program.functions) == expected


def test_generated_programs_validate():
    program = generate_program(GenParams(3, 2))
    assert validate_program(program) is None


def test_valid_input_range():
    assert input_range(GenParams(2, 3)) == (0, 7)
    assert input_range(GenParams(3, 4)) == (0, 80)


@pytest.mark.parametrize(
    "branching, depth",
    [(1, 1), (17, 1), (2, 0), (2, 13), (16, 12)],
)
def test_out_of_bounds_params_rejected(branching, depth):
    with pytest.raises(ValueError):
        validate_params(GenParams(branching, depth))


class TestGroundTruth:
    def test_input_five_covers_exactly_the_dispatch_chain(self):
        covered = covered_functions(GenParams(2, 3), 5)
        assert covered == {"main", "n_0_7", "n_4_7", "n_4_5", "n_5_5"}
        assert len(covered) == 5

    def test_rejected_input_covers_only_main(self):
        assert covered_functions(GenParams(2, 3), -1) == {"main"}
        assert covered_functions(GenParams(2, 3), 8) == {"main"}

    def test_union_over_oracle_is_the_full_function_set(self):
        params = GenParams(2, 3)
        program = generate_program(params)
        table = ground_truth_coverage(params)
        assert set(table) == {-1} | set(range(8))
        union = frozenset().union(*table.values())
        assert union == frozenset(program.functions)

    def test_range_too_large(self):
        with pytest.raises(ValueError, match="too large"):
            ground_truth_coverage(GenParams(3, 11))


@pytest.mark.parametrize("branching, depth", [(2, 2), (3, 2), (4, 1)])
def test_interpreter_agrees_with_oracle_everywhere(branching, depth):
    params = GenParams(branching, depth)
    program = generate_program(params)
    for value, expected in ground_truth_coverage(params).items():
        result = run_concrete(program, (value,))
        assert result.coverage.functions == expected


class TestSplitRange:
    @given(
        st.integers(-1000, 1000),
        st.integers(1, 500),
        st.integers(2, 8),
    )
    def test_partition_properties(self, lo, size, parts):
        hi = lo + size - 1
        if size < parts:
            with pytest.raises(ValueError):
                split_range(lo, hi, parts)
            return
        ranges = split_range(lo, hi, parts)
        assert len(ranges) == parts
        assert ranges[0][0] == lo and ranges[-1][1] == hi
        for (a_lo, a_hi), (b_lo, b_hi) in zip(ranges, ranges[1:]):
            assert a_hi + 1 == b_lo  # contiguous, disjoint
            assert a_hi >= a_lo and b_hi >= b_lo
        # Earlier children take the larger share.
        sizes = [hi_ - lo_ + 1 for lo_, hi_ in ranges]
        assert sorted(sizes, reverse=True) == sizes
        assert max(sizes) - min(sizes) <= 1


class TestNameSalting:
    def test_seed_zero_is_canonical(self):
        program = generate_program(GenParams(2, 2, seed=0))
        assert "n_0_3" in program.functions

    def test_salted_names_differ_but_structure_matches(self):
        plain = generate_program(GenParams(2, 2, seed=0))
        salted = generate_program(GenParams(2, 2, seed=9))
        assert len(plain.functions) == len(salted.functions)
        assert set(plain.functions) != set(salted.functions)
        # Oracle arithmetic tracks the salted names.
        table = ground_truth_coverage(GenParams(2, 2, seed=9))
        for value, expected in table.items():
            assert run_concrete(salted, (value,)).coverage.functions == expected

    def test_same_seed_is_deterministic(self):
        assert generate_program(GenParams(3, 2, seed=5)) == generate_program(
            GenParams(3, 2, seed=5)
        )
