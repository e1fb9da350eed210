"""Parser, serializer, validator, and int32 semantics."""

import random
import re
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from munchkin import ir
from munchkin.executor import run_concrete
from munchkin.generator import GenParams, generate_program
from munchkin.ir import (
    BIN_OPS,
    CMP_OPS,
    ENTRY_FUNCTION,
    BinOp,
    Block,
    Branch,
    Call,
    Const,
    Function,
    INT32_MAX,
    INT32_MIN,
    IRError,
    Instruction,
    Jump,
    Operand,
    ParseError,
    Print,
    Program,
    ReadInput,
    Return,
    Terminator,
    ValidationError,
    apply_binop,
    parse_program,
    serialize_program,
    validate_program,
    wrap32,
)

MINIMAL = """\
program tiny

func main()
block entry:
  ret
"""


def test_parse_minimal_program():
    program = parse_program(MINIMAL)
    assert len(program.functions) == 1
    assert list(program.functions) == [ENTRY_FUNCTION]
    assert program.functions["main"].blocks["entry"].terminator == Return(None)


def test_unknown_callee_is_rejected():
    text = MINIMAL.replace("  ret", "  call f()\n  ret")
    with pytest.raises(ValidationError, match="unknown callee 'f'"):
        parse_program(text)


def test_parse_of_generated_program_has_sixteen_functions():
    text = serialize_program(generate_program(GenParams(2, 3)))
    assert len(parse_program(text).functions) == 16


class TestRoundTrip:
    def test_single_function(self):
        program = parse_program(MINIMAL)
        assert parse_program(serialize_program(program)) == program

    def test_large_generated_program(self):
        program = generate_program(GenParams(4, 4))
        reparsed = parse_program(serialize_program(program))
        assert reparsed == program
        assert len(reparsed.functions) == 342

    def test_serialization_is_idempotent(self):
        program = generate_program(GenParams(3, 2))
        once = serialize_program(program)
        assert serialize_program(parse_program(once)) == once

    @pytest.mark.parametrize(
        "program, inputs, printed",
        [
            # A function is named by its key only.
            (
                Program("t", {
                    "main": Function((), {"go": Block((Call(None, "f", (7,)),), Return(None))}),
                    "f": Function(("v",), {"body": Block((Print("v"),), Return(None))}),
                }),
                [()],
                [(7,)],
            ),
            # Blocks are named by their keys only.
            (
                Program("t", {
                    "main": Function((), {
                        "start": Block((ReadInput("x"),), Branch("<", "x", 0, "neg", "pos")),
                        "neg": Block((Print(-1),), Return(None)),
                        "pos": Block((Print("x"),), Return(None)),
                    }),
                }),
                [(-5,), (4,)],
                [(-1,), (4,)],
            ),
            # A function runs from its first block, here one that jumps forward.
            (
                Program("t", {
                    "main": Function((), {
                        "top": Block((Print(2),), Jump("bottom")),
                        "middle": Block((Print(3),), Return(None)),
                        "bottom": Block((Print(1),), Return(None)),
                    }),
                }),
                [()],
                [(2, 1)],
            ),
        ],
        ids=["function-key", "block-keys", "first-block-entry"],
    )
    def test_a_program_built_from_records_round_trips_and_runs_alike(
        self, program, inputs, printed
    ):
        validate_program(program)
        reparsed = parse_program(serialize_program(program))
        assert reparsed == program
        for values, want in zip(inputs, printed):
            assert run_concrete(program, values).printed == want
            assert run_concrete(reparsed, values) == run_concrete(program, values)


class TestCountBranches:
    def test_branch_count_below_symex_query_count(self):
        from munchkin.symex import symex_campaign

        program = generate_program(GenParams(2, 3))
        result = symex_campaign(program)
        branches = sum(
            isinstance(block.terminator, Branch)
            for func in program.functions.values()
            for block in func.blocks.values()
        )
        assert branches < result.stats.queries


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("func main()\nblock e:\n  ret\n", "program"),
            ("program p\nfunc main()\nblock e:\n  x = const 1\n", "terminator"),
            ("program p\nfunc main()\n  ret\n", "outside"),
            ("program p\nfunc main()\nblock e:\n  ret\n  ret\n", "after terminator"),
            ("program p\nfunc main()\nblock e:\n  x = @\n  ret\n", "unexpected character"),
            ("program p\nfunc main()\nblock e:\n  x = const 99999999999\n  ret\n", "int32"),
            ("program p\nfunc main()\nblock e:\n  br < 1 2 -> e, e\n", "distinct"),
        ],
    )
    def test_bad_inputs_are_diagnosed(self, text, fragment):
        with pytest.raises(IRError, match=fragment):
            parse_program(text)

    def test_error_carries_line_and_column(self):
        err = None
        try:
            parse_program("program p\nfunc main()\nblock e:\n  x = ?\n  ret\n")
        except ParseError as caught:
            err = caught
        assert err is not None
        assert err.line == 4
        assert err.col == 7

    @pytest.mark.parametrize(
        "line, col",
        [
            ("  ret @", 7), ("\t ret @", 7), ("ret @", 5), ("  jmp", 6), ("  x = @ 1", 7),
            ("  x = const 1 2  # c", 15),
            ("  x = const \u0661\u0662", 13),  # Arabic-Indic digits are not a literal
        ],
    )
    def test_columns_count_from_the_start_of_the_source_line(self, line, col):
        with pytest.raises(ParseError) as caught:
            parse_program(f"program p\nfunc main()\nblock e:\n{line}\n")
        assert (caught.value.line, caught.value.col) == (4, col)
        assert str(caught.value).startswith(f"line 4, col {col}: ")

    @pytest.mark.parametrize(
        "text",
        [
            "program p\n\nfunc main()\nblock entry:  # tail\u2028 of comment\n  ret\n",
            "program p\nfunc main()\nblock e:\n  ret  # ok\x0c more\n",
            "program p\r\nfunc main()\r\nblock e:\r\n  ret\r\n",
        ],
    )
    def test_only_a_newline_ends_a_line(self, text):
        # str.splitlines() would also split at \f, \v, \x1c-\x1e, \x85,
        # U+2028 and U+2029, ending a comment early.
        assert list(parse_program(text).functions) == ["main"]

    def test_a_form_feed_shifts_no_line_number(self):
        text = "program p\x0c\n\nfunc main()\nblock e:\n  ret\n\nfunc f(\n"
        with pytest.raises(ParseError) as caught:
            parse_program(text)
        assert caught.value.line == 7


class TestValidation:
    def test_missing_main(self):
        with pytest.raises(ValidationError, match="main"):
            parse_program("program p\n\nfunc helper()\nblock entry:\n  ret\n")

    def test_a_function_without_blocks_is_rejected(self):
        with pytest.raises(ValidationError, match="^function 'main' has no blocks$"):
            validate_program(Program("t", {"main": Function((), {})}))

    def test_main_must_take_no_parameters(self):
        with pytest.raises(ValidationError, match="no parameters"):
            parse_program("program p\n\nfunc main(x)\nblock entry:\n  ret\n")

    def test_arity_mismatch(self):
        text = (
            "program p\n\nfunc main()\nblock entry:\n  call f(1, 2)\n  ret\n\n"
            "func f(a)\nblock entry:\n  ret\n"
        )
        with pytest.raises(ValidationError, match="arity|expected 1"):
            parse_program(text)

    def test_jump_target_must_exist(self):
        with pytest.raises(ValidationError, match="jump target"):
            parse_program("program p\n\nfunc main()\nblock entry:\n  jmp nowhere\n")

    def test_operand_use_before_assignment(self):
        with pytest.raises(ValidationError, match="before assignment"):
            parse_program("program p\n\nfunc main()\nblock entry:\n  print x\n  ret\n")

    def test_unreachable_block_is_a_warning_not_an_error(self):
        text = (
            "program p\n\nfunc main()\nblock entry:\n  ret\n"
            "block orphan:\n  ret\n"
        )
        program = parse_program(text)
        warnings = validate_program(program)
        assert any("orphan" in w for w in warnings)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("  call g()\n  ret\n", "line 5: unknown callee 'g'"),
            ("  call f(1, 2)\n  ret\n", "line 5: call to 'f' passes 2 arguments, expected 1"),
            (
                "  x = input\n  br < x 0 -> entry, nowhere\n",
                "line 6: function 'main': branch target 'nowhere' does not exist",
            ),
            (
                "  x = input\n  br < x 0 -> other, other\nblock other:\n  ret\n",
                "line 6: function 'main': branch targets must be distinct",
            ),
            ("  jmp nowhere\n", "line 5: function 'main': jump target 'nowhere' does not exist"),
            (
                "  y = x + 1\n  ret\n",
                "line 5: function 'main': operand 'x' used before assignment",
            ),
            (
                "  x = const 1\n  call f(y)\n  ret\n",
                "line 6: function 'main': operand 'y' used before assignment",
            ),
            ("  ret x\n", "line 5: function 'main': operand 'x' used before assignment"),
            (
                "  x = input\n  br < x z -> other, entry\nblock other:\n  ret\n",
                "line 6: function 'main': operand 'z' used before assignment",
            ),
        ],
    )
    def test_error_message(self, body, message):
        text = f"program p\n\nfunc main()\nblock entry:\n{body}\nfunc f(a)\nblock entry:\n  ret\n"
        with pytest.raises(ValidationError) as caught:
            parse_program(text)
        assert str(caught.value) == message

    def test_a_name_defined_in_another_block_counts_as_assigned(self):
        text = (
            "program p\n\nfunc main()\nblock entry:\n  print y\n  jmp later\n"
            "block later:\n  y = const 1\n  ret\n"
        )
        assert parse_program(text).functions["main"].blocks["later"].instructions
        # Defined later in its own block and also in another block: assigned.
        text = (
            "program p\n\nfunc main()\nblock entry:\n  print y\n  y = const 1\n  jmp later\n"
            "block later:\n  y = const 2\n  ret\n"
        )
        assert parse_program(text).functions["main"].blocks["entry"].instructions

    def test_a_name_defined_only_later_in_its_own_block_is_not(self):
        text = "program p\n\nfunc main()\nblock entry:\n  print y\n  y = const 1\n  ret\n"
        with pytest.raises(ValidationError) as caught:
            parse_program(text)
        assert str(caught.value) == "line 5: function 'main': operand 'y' used before assignment"


class TestInt32Semantics:
    @pytest.mark.parametrize(
        "op, lhs, rhs, want",
        [
            ("+", INT32_MAX, 1, INT32_MIN),
            ("-", INT32_MIN, 1, INT32_MAX),
            ("*", 1 << 20, 1 << 20, 0),
            ("/", 7, 2, 3),
            ("/", -7, 2, -3),
            ("/", 7, -2, -3),
            ("%", 7, 2, 1),
            ("%", -7, 2, -1),
            ("%", 7, -2, 1),
            ("/", INT32_MIN, -1, INT32_MIN),
        ],
    )
    def test_operator_table(self, op, lhs, rhs, want):
        assert apply_binop(op, lhs, rhs) == want

    @pytest.mark.parametrize("op", ["/", "%"])
    def test_zero_divisor_raises(self, op):
        with pytest.raises(ZeroDivisionError):
            apply_binop(op, 1, 0)

    @given(st.integers(min_value=-(1 << 40), max_value=1 << 40))
    def test_wrap32_stays_in_range(self, value):
        assert INT32_MIN <= wrap32(value) <= INT32_MAX
        assert (wrap32(value) - value) % (1 << 32) == 0


# ---------------------------------------------------------------------------
# Property tests: random valid programs round trip; parsing is total.
# ---------------------------------------------------------------------------

_int32 = st.integers(min_value=INT32_MIN, max_value=INT32_MAX)
_small_int = st.integers(min_value=-100, max_value=100)


@st.composite
def _programs(draw):
    n_helpers = draw(st.integers(min_value=0, max_value=3))
    names = ["main"] + [f"f{i}" for i in range(n_helpers)]
    params = {"main": ()}
    for name in names[1:]:
        params[name] = tuple(f"p{j}" for j in range(draw(st.integers(0, 2))))

    functions = {}
    for name in names:
        n_blocks = draw(st.integers(min_value=1, max_value=3))
        block_ids = [f"b{k}" for k in range(n_blocks)]
        blocks = {}
        for bid in block_ids:
            instrs = []
            defined = list(params[name])

            def operand(data=draw):
                pool = list(defined)
                if pool and data(st.booleans()):
                    return data(st.sampled_from(pool))
                return data(_small_int)

            for i in range(draw(st.integers(0, 3))):
                dest = f"{bid}_v{i}"
                kind = draw(st.integers(0, 4))
                if kind == 0:
                    instrs.append(Const(dest, draw(_int32)))
                elif kind == 1:
                    instrs.append(ReadInput(dest))
                elif kind == 2:
                    op = draw(st.sampled_from("+-*/%"))
                    instrs.append(BinOp(dest, op, operand(), operand()))
                elif kind == 3:
                    callee = draw(st.sampled_from(names))
                    args = tuple(operand() for _ in params[callee])
                    with_dest = draw(st.booleans())
                    instrs.append(Call(dest if with_dest else None, callee, args))
                    if not with_dest:
                        continue
                else:
                    instrs.append(Print(operand()))
                    continue
                defined.append(dest)

            term_kind = draw(st.integers(0, 2 if n_blocks >= 2 else 1))
            if term_kind == 0:
                value = operand() if draw(st.booleans()) else None
                term = Return(value)
            elif term_kind == 1 and n_blocks >= 2:
                term = Jump(draw(st.sampled_from([b for b in block_ids if b != bid])))
            elif term_kind == 2:
                then_b, else_b = draw(
                    st.permutations(block_ids).filter(lambda p: p[0] != p[1])
                )[:2]
                cmp = draw(st.sampled_from(["<", "<=", "==", "!=", ">=", ">"]))
                term = Branch(cmp, operand(), operand(), then_b, else_b)
            else:
                term = Return(None)
            blocks[bid] = Block(tuple(instrs), term)
        functions[name] = Function(params[name], blocks)
    return Program("t", functions)


@settings(max_examples=60, deadline=None)
@given(_programs())
def test_random_programs_round_trip(program):
    validate_program(program)
    text = serialize_program(program)
    reparsed = parse_program(text)
    assert reparsed == program
    assert serialize_program(reparsed) == text


@settings(max_examples=60, deadline=None)
@given(_programs(), st.randoms(use_true_random=False))
def test_parsing_corrupted_text_is_total(program, rng):
    lines = serialize_program(program).splitlines()
    action = rng.randrange(3)
    if action == 0 and lines:
        del lines[rng.randrange(len(lines))]
    elif action == 1 and lines:
        lines[rng.randrange(len(lines))] = "?!garbage"
    else:
        lines.insert(rng.randrange(len(lines) + 1), "  x = undefined_name + 1")
    try:
        reparsed = parse_program("\n".join(lines) + "\n")
    except IRError:
        return
    validate_program(reparsed)


# ---------------------------------------------------------------------------
# The canonical fast path against the cursor-only parser it replaced.
# ---------------------------------------------------------------------------


class _NoCursor:
    """Stands in for ``ir._Cursor`` where no line may leave the fast path."""

    def __init__(self, line: str, lineno: int):
        raise AssertionError(f"line {lineno} left the canonical path: {line!r}")


@pytest.mark.parametrize("branching, depth", [(2, 8), (3, 6), (2, 9), (4, 5)])
def test_generated_text_parses_without_the_cursor(branching, depth):
    params = GenParams(branching, depth, 0)
    text = serialize_program(generate_program(params))
    with patch.object(ir, "_Cursor", _NoCursor):
        program = parse_program(text)
    assert program == generate_program(params)
    assert serialize_program(program) == text


@settings(max_examples=60, deadline=None)
@given(_programs())
def test_canonical_text_of_every_line_kind_parses_without_the_cursor(program):
    text = serialize_program(program)
    with patch.object(ir, "_Cursor", _NoCursor):
        assert parse_program(text) == program


def _outcome(parse, validate, text):
    """(program, warnings), or (error type, message, line, col)."""
    try:
        program = parse(text)
    except IRError as err:
        return type(err), str(err), err.line, getattr(err, "col", None)
    return program, validate(program)


def _assert_parses_as_the_reference(text):
    got = _outcome(parse_program, validate_program, text)
    want = _outcome(reference_parse_program, reference_validate_program, text)
    assert got == want, text


def _host(line: str) -> str:
    """A small program around ``line``: f's header if it is a function header,
    else in main, after a terminator if it is a block header."""
    header, before = "func f(a, b)", ""
    if line.startswith("func"):
        header, line = line, "  print x"
    elif line.startswith("block"):
        before = "  jmp b\n"
    return (
        f"program p\n\nfunc main()\nblock entry:\n  x = input\n{before}{line}\n  ret x\n"
        f"block b:\n  ret\n\n{header}\nblock entry:\n  ret a\n"
    )


@pytest.mark.parametrize(
    "line",
    [
        "  y = const 2147483647",
        "  y = const 2147483648",
        "  y = const -2147483649",
        "  y = const x",
        "  y = x + 2147483648",
        "  print -2147483649",
        "  call f(2147483648, x)",
        "  y = call f(-99999999999, 1)",
        "  y = const 007",
        "  y = const -0",
        "  print \u0663",
        "  y = x * 1\u0662",
        "  y = const \uff11",
        "  ret = const 1",
        "  y = ret + 1",
        "  call ret(x)",
        "  y = call f(input, x)",
        "  print const",
        "  jmp block",
        "  br < x 0 -> b, ret",
        "block ret:",
        "block b",
        "program br",
        "  y\t=\tinput",
        "  y=input",
        "  y  =  x  %  3",
        "  y = x -3",
        "  y = x--3",
        "  call f( x, 1 )",
        "  call f(x ,1)",
        "  call f(x,1)",
        "  call f(x, )",
        "  y = call  f (x, 1)",
        "  br < x 0->b,entry",
        "  br<=x 0 -> b , entry",
        "  br <x 0 -> b, entry",
        "  br < x 0 - > b, entry",
        "  jmp b # comment",
        "  jmp b#",
        "  jmp\tb",
        "  print x @",
        "  y = x ^ 2",
        "  y = x < 2",
        "  jmp b:",
        "func f(a,b)",
        "func f( a , b )",
        "func f (a, b)",
        "func f(a b)",
        "func f(a, ret)",
        "func\tf(a, b)",
    ],
)
def test_a_spelling_parses_as_the_cursor_only_parser_parses_it(line):
    _assert_parses_as_the_reference(_host(line))


_KEYWORD_LIST = sorted(ir._KEYWORDS)
_ODD_LITERALS = [
    str(INT32_MAX), str(INT32_MIN), str(INT32_MAX + 1), str(INT32_MIN - 1), "99999999999",
    "007", "-007", "00", "-0", "\u0663", "-\u0661\u0662", "1\u0662",
]
_SPACINGS = ["", " ", "  ", "\t", " \t "]
_SEPARATOR = re.compile(r" *(?:->|[=,():]) *| +")
_TOKEN = re.compile(r"->|<=|>=|==|!=|-?[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[=(),:+*/%<>-]")


def _respace(separator: str, rng) -> str:
    if rng.random() < 0.5:
        return separator
    core = separator.strip()
    return rng.choice(_SPACINGS) + core + (rng.choice(_SPACINGS) if core else "")


def _edit_line(line: str, rng, tokens: list[str]) -> str:
    """One random edit of a line: a token, the spacing, a comment or a character."""
    kind = rng.randrange(8)
    found = list(_TOKEN.finditer(line))
    if kind < 3 and found:
        m = rng.choice(found)
        pool = rng.choice((_KEYWORD_LIST, _ODD_LITERALS, tokens, [""]))
        return line[: m.start()] + rng.choice(pool) + line[m.end() :]
    if kind == 3:
        return re.sub(r" *(->|[=,():]) *", r"\1", line)
    if kind == 4:
        return _SEPARATOR.sub(lambda m: _respace(m.group(), rng), line)
    if kind == 5:
        return line + rng.choice([" # note", "#", "\t# ret @", "# x = 1"])
    pos = rng.randrange(len(line) + 1)
    if kind == 6:
        return line[:pos] + rng.choice("@?$:,(") + line[pos:]
    return line[:pos] + line[pos + 1 :]


def _move_line(lines: list[str], rng) -> None:
    """Delete or duplicate a line, or swap it with one nearby."""
    i = rng.randrange(len(lines))
    j = min(max(i + rng.choice((-2, -1, 1, 2)), 0), len(lines) - 1)
    kind = rng.randrange(3)
    if kind == 0:
        del lines[i]
    elif kind == 1:
        lines.insert(j, lines[i])
    else:
        lines[i], lines[j] = lines[j], lines[i]


_base_texts = st.one_of(
    _programs().map(serialize_program),
    st.sampled_from([(2, 1, 0), (2, 2, 3), (3, 2, 1)]).map(
        lambda p: serialize_program(generate_program(GenParams(*p)))
    ),
)


@settings(max_examples=500, deadline=None)
@given(_base_texts, st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(0, 1))
def test_mutated_text_parses_as_the_cursor_only_parser_parses_it(text, seed, edits, moves):
    # A seeded Random rather than st.randoms(): Hypothesis draws the latter's
    # values near zero, which would try few of the edits. Edits go to one
    # line, so that its error, if any, is usually the first.
    rng = random.Random(seed)
    lines = text.splitlines()
    tokens = _TOKEN.findall(text)
    i = rng.choice([k for k, line in enumerate(lines) if line.strip()])
    for _ in range(edits):
        lines[i] = _edit_line(lines[i], rng, tokens)
    for _ in range(moves):
        _move_line(lines, rng)
    _assert_parses_as_the_reference("\n".join(lines) + "\n")


_HOST_LINES = [
    "program q", "func f(a, b)", "block c:", "  y = const -5", "  y = input", "  y = x % 7",
    "  y = call f(x, 1)", "  call f(-1, x)", "  print x", "  br <= x 0 -> b, entry",
    "  jmp b", "  ret x", "  ret",
]
_VOCABULARY = _KEYWORD_LIST + _ODD_LITERALS + [
    "x", "y", "a", "b", "f", "entry", "x1", "_", "0", "1", "-1",
    "=", ",", "(", ")", ":", "->", "+", "-", "*", "/", "%", "<", "<=", "==", "!=", ">",
]


def _single_edits(line: str):
    """Every line one token replacement, deletion or re-spacing away from ``line``."""
    spans = [m.span() for m in _TOKEN.finditer(line)]
    for start, end in spans:
        for word in ["", *_VOCABULARY]:
            yield line[:start] + word + line[end:]
    for (_, end), (start, _) in zip(spans, spans[1:]):
        for spacing in _SPACINGS:
            yield line[:end] + spacing + line[start:]


def test_every_single_edit_of_a_canonical_line_parses_as_the_cursor_only_parser_parses_it():
    for line in _HOST_LINES:
        for edited in _single_edits(line):
            _assert_parses_as_the_reference(_host(edited))


# The cursor-only parser and the per-block validator as they were before the
# canonical fast path, kept as the reference for the two tests above. The
# changes since: a column counts from the start of the source line, and an
# unexpected character's column is its own, as ``ir._Cursor`` counts them;
# and a literal's digits are ASCII (``[0-9]``, not ``\d``), as ``ir._Cursor``
# and the canonical patterns read them.

_REF_TOKEN_RE = re.compile(r"->|<=|>=|==|!=|-?[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[=(),:+*/%<>-]")
_REF_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_REF_KEYWORDS = frozenset(
    {"program", "func", "block", "const", "input", "call", "print", "br", "jmp", "ret"}
)


def _ref_check_gap(line: str, start: int, end: int, lineno: int, indent: int) -> None:
    """Reject the first non-blank character of ``line[start:end]``, at its own column."""
    rest = line[start:end].lstrip()
    if rest:
        col = indent + end - len(rest) + 1
        raise ParseError(f"unexpected character {rest[0]!r}", lineno, col)


class _RefCursor:
    """Token cursor over a single source line.

    ``line`` is the source line with its comment and outer whitespace gone,
    and ``indent`` the number of characters stripped before it, so columns
    count from the start of the source line.
    """

    def __init__(self, line: str, lineno: int, indent: int = 0):
        self.lineno = lineno
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        for match in _REF_TOKEN_RE.finditer(line):
            _ref_check_gap(line, pos, match.start(), lineno, indent)
            self.tokens.append((match.group(), indent + match.start() + 1))
            pos = match.end()
        _ref_check_gap(line, pos, len(line), lineno, indent)
        self.index = 0
        self._end_col = indent + len(line) + 1

    def peek(self) -> str | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index][0]
        return None

    def next(self, what: str = "token") -> tuple[str, int]:
        if self.index >= len(self.tokens):
            raise ParseError(f"expected {what}", self.lineno, self._end_col)
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, text: str) -> None:
        tok, col = self.next(f"'{text}'")
        if tok != text:
            raise ParseError(f"expected '{text}', found {tok!r}", self.lineno, col)

    def ident(self, what: str = "name") -> str:
        tok, col = self.next(what)
        if not _REF_IDENT_RE.match(tok) or tok in _REF_KEYWORDS:
            raise ParseError(f"expected {what}, found {tok!r}", self.lineno, col)
        return tok

    def int_literal(self) -> int:
        tok, col = self.next("integer")
        try:
            value = int(tok)
        except ValueError:
            raise ParseError(f"expected integer, found {tok!r}", self.lineno, col)
        if not INT32_MIN <= value <= INT32_MAX:
            raise ParseError("integer literal out of int32 range", self.lineno, col)
        return value

    def operand(self) -> Operand:
        tok, col = self.next("operand")
        if re.match(r"-?[0-9]+\Z", tok):
            value = int(tok)
            if not INT32_MIN <= value <= INT32_MAX:
                raise ParseError("integer literal out of int32 range", self.lineno, col)
            return value
        if not _REF_IDENT_RE.match(tok) or tok in _REF_KEYWORDS:
            raise ParseError(f"expected operand, found {tok!r}", self.lineno, col)
        return tok

    def done(self) -> None:
        if self.index < len(self.tokens):
            tok, col = self.tokens[self.index]
            raise ParseError(f"trailing input {tok!r}", self.lineno, col)


def _ref_parse_arg_list(cur: _RefCursor) -> tuple[Operand, ...]:
    cur.expect("(")
    args: list[Operand] = []
    if cur.peek() == ")":
        cur.expect(")")
        return ()
    while True:
        args.append(cur.operand())
        tok, col = cur.next("',' or ')'")
        if tok == ")":
            return tuple(args)
        if tok != ",":
            raise ParseError(f"expected ',' or ')', found {tok!r}", cur.lineno, col)


def _ref_parse_param_list(cur: _RefCursor) -> tuple[str, ...]:
    cur.expect("(")
    params: list[str] = []
    if cur.peek() == ")":
        cur.expect(")")
        return ()
    while True:
        params.append(cur.ident("parameter name"))
        tok, col = cur.next("',' or ')'")
        if tok == ")":
            return tuple(params)
        if tok != ",":
            raise ParseError(f"expected ',' or ')', found {tok!r}", cur.lineno, col)


def _ref_parse_terminator(cur: _RefCursor) -> Terminator:
    head, col = cur.next()
    if head == "jmp":
        target = cur.ident("block id")
        cur.done()
        return Jump(target)
    if head == "ret":
        if cur.peek() is None:
            return Return(None)
        value = cur.operand()
        cur.done()
        return Return(value)
    if head == "br":
        cmp_tok, cmp_col = cur.next("comparison")
        if cmp_tok not in CMP_OPS:
            raise ParseError(f"expected comparison, found {cmp_tok!r}", cur.lineno, cmp_col)
        lhs = cur.operand()
        rhs = cur.operand()
        cur.expect("->")
        then_block = cur.ident("block id")
        cur.expect(",")
        else_block = cur.ident("block id")
        cur.done()
        return Branch(cmp_tok, lhs, rhs, then_block, else_block)
    raise ParseError(f"unknown terminator {head!r}", cur.lineno, col)


def _ref_parse_instruction(cur: _RefCursor) -> Instruction:
    head = cur.peek()
    if head == "print":
        cur.next()
        operand = cur.operand()
        cur.done()
        return Print(operand)
    if head == "call":
        cur.next()
        callee = cur.ident("function name")
        args = _ref_parse_arg_list(cur)
        cur.done()
        return Call(None, callee, args)
    dest = cur.ident("destination")
    cur.expect("=")
    rhs_head = cur.peek()
    if rhs_head == "const":
        cur.next()
        value = cur.int_literal()
        cur.done()
        return Const(dest, value)
    if rhs_head == "input":
        cur.next()
        cur.done()
        return ReadInput(dest)
    if rhs_head == "call":
        cur.next()
        callee = cur.ident("function name")
        args = _ref_parse_arg_list(cur)
        cur.done()
        return Call(dest, callee, args)
    lhs = cur.operand()
    op_tok, op_col = cur.next("operator")
    if op_tok not in BIN_OPS:
        raise ParseError(f"expected operator, found {op_tok!r}", cur.lineno, op_col)
    rhs = cur.operand()
    cur.done()
    return BinOp(dest, op_tok, lhs, rhs)


_REF_TERMINATOR_HEADS = frozenset({"br", "jmp", "ret"})


def reference_parse_program(text: str) -> Program:
    """Parse and validate textual IR.

    Raises ParseError with line/column on syntax errors and
    ValidationError (with the offending line where known) on semantic
    errors; a returned Program satisfies every structural invariant.
    """
    program_name: str | None = None
    functions: dict[str, Function] = {}
    source_map: dict[tuple[str, str, int], int] = {}

    cur_func: str | None = None
    cur_params: tuple[str, ...] = ()
    cur_blocks: dict[str, Block] = {}
    cur_block_id: str | None = None
    cur_block_line = 0
    cur_instrs: list[Instruction] = []
    cur_term: Terminator | None = None

    def flush_block(lineno: int) -> None:
        nonlocal cur_block_id, cur_instrs, cur_term
        if cur_block_id is None:
            return
        if cur_term is None:
            raise ParseError(
                f"block '{cur_block_id}' has no terminator", cur_block_line
            )
        if cur_block_id in cur_blocks:
            raise ParseError(f"duplicate block '{cur_block_id}'", cur_block_line)
        cur_blocks[cur_block_id] = Block(tuple(cur_instrs), cur_term)
        cur_block_id = None
        cur_instrs = []
        cur_term = None

    def flush_func(lineno: int) -> None:
        nonlocal cur_func, cur_blocks
        if cur_func is None:
            return
        flush_block(lineno)
        if not cur_blocks:
            raise ParseError(f"function '{cur_func}' has no blocks", lineno)
        if cur_func in functions:
            raise ParseError(f"duplicate function '{cur_func}'", lineno)
        functions[cur_func] = Function(cur_params, cur_blocks)
        cur_func = None
        cur_blocks = {}

    for lineno, raw in enumerate(text.split("\n"), start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        cur = _RefCursor(line, lineno, len(code) - len(code.lstrip()))
        head = cur.peek()
        if head == "program":
            if program_name is not None:
                raise ParseError("duplicate 'program' header", lineno)
            if functions or cur_func is not None:
                raise ParseError("'program' header must come first", lineno)
            cur.next()
            program_name = cur.ident("program name")
            cur.done()
            continue
        if program_name is None:
            raise ParseError("expected 'program <name>' header", lineno)
        if head == "func":
            flush_func(lineno)
            cur.next()
            cur_func = cur.ident("function name")
            cur_params = _ref_parse_param_list(cur)
            cur.done()
            continue
        if head == "block":
            if cur_func is None:
                raise ParseError("block outside of a function", lineno)
            flush_block(lineno)
            cur.next()
            cur_block_id = cur.ident("block id")
            cur.expect(":")
            cur.done()
            cur_block_line = lineno
            continue
        if cur_func is None or cur_block_id is None:
            raise ParseError("instruction outside of a block", lineno)
        if cur_term is not None:
            raise ParseError("instruction after terminator", lineno)
        if head in _REF_TERMINATOR_HEADS:
            cur_term = _ref_parse_terminator(cur)
            source_map[(cur_func, cur_block_id, -1)] = lineno
        else:
            source_map[(cur_func, cur_block_id, len(cur_instrs))] = lineno
            cur_instrs.append(_ref_parse_instruction(cur))

    if program_name is None:
        raise ParseError("expected 'program <name>' header", max(1, text.count("\n") + 1))
    flush_func(text.count("\n") + 1)

    program = Program(program_name, functions)
    reference_validate_program(program, source_map)
    return program


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def reference_validate_program(
    program: Program, source_map: dict[tuple[str, str, int], int] | None = None
) -> list[str]:
    """Check every structural invariant; return warnings for soft issues.

    Hard violations (missing entry, unknown callee, arity mismatch, bad
    branch targets, use of never-assigned operands) raise ValidationError.
    Unreachable blocks only produce warnings.
    """
    source_map = source_map or {}

    def line_of(func: str, block: str, index: int) -> int | None:
        return source_map.get((func, block, index))

    entry = program.functions.get(ENTRY_FUNCTION)
    if entry is None:
        raise ValidationError(f"missing entry function '{ENTRY_FUNCTION}'")
    if entry.params:
        raise ValidationError(f"entry function '{ENTRY_FUNCTION}' must take no parameters")

    warnings: list[str] = []
    for fname, func in program.functions.items():
        if not func.blocks:
            raise ValidationError(f"function '{fname}' has no blocks")
        dests_by_block: dict[str, set[str]] = {}
        for bid, block in func.blocks.items():
            dests: set[str] = set()
            for instr in block.instructions:
                dest = getattr(instr, "dest", None)
                if dest is not None:
                    dests.add(dest)
            dests_by_block[bid] = dests

        for bid, block in func.blocks.items():
            external = set(func.params)
            for other, dests in dests_by_block.items():
                if other != bid:
                    external |= dests

            def check_operand(op: Operand, assigned: set[str], index: int) -> None:
                if isinstance(op, str) and op not in assigned and op not in external:
                    raise ValidationError(
                        f"function '{fname}': operand '{op}' used before assignment",
                        line_of(fname, bid, index),
                    )

            assigned: set[str] = set(func.params)
            for index, instr in enumerate(block.instructions):
                if isinstance(instr, BinOp):
                    check_operand(instr.lhs, assigned, index)
                    check_operand(instr.rhs, assigned, index)
                elif isinstance(instr, Print):
                    check_operand(instr.operand, assigned, index)
                elif isinstance(instr, Call):
                    callee = program.functions.get(instr.callee)
                    if callee is None:
                        raise ValidationError(
                            f"unknown callee '{instr.callee}'", line_of(fname, bid, index)
                        )
                    if len(instr.args) != len(callee.params):
                        raise ValidationError(
                            f"call to '{instr.callee}' passes {len(instr.args)} "
                            f"arguments, expected {len(callee.params)}",
                            line_of(fname, bid, index),
                        )
                    for arg in instr.args:
                        check_operand(arg, assigned, index)
                dest = getattr(instr, "dest", None)
                if dest is not None:
                    assigned.add(dest)

            term = block.terminator
            if isinstance(term, Branch):
                for target in (term.then_block, term.else_block):
                    if target not in func.blocks:
                        raise ValidationError(
                            f"function '{fname}': branch target '{target}' does not exist",
                            line_of(fname, bid, -1),
                        )
                if term.then_block == term.else_block:
                    raise ValidationError(
                        f"function '{fname}': branch targets must be distinct",
                        line_of(fname, bid, -1),
                    )
                check_operand(term.lhs, assigned, -1)
                check_operand(term.rhs, assigned, -1)
            elif isinstance(term, Jump):
                if term.target not in func.blocks:
                    raise ValidationError(
                        f"function '{fname}': jump target '{term.target}' does not exist",
                        line_of(fname, bid, -1),
                    )
            elif isinstance(term, Return):
                if term.value is not None:
                    check_operand(term.value, assigned, -1)

        # Intra-function reachability: soft check only.
        first = next(iter(func.blocks))
        seen = {first}
        stack = [first]
        while stack:
            block = func.blocks[stack.pop()]
            term = block.terminator
            targets: tuple[str, ...] = ()
            if isinstance(term, Branch):
                targets = (term.then_block, term.else_block)
            elif isinstance(term, Jump):
                targets = (term.target,)
            for target in targets:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        for bid in func.blocks:
            if bid not in seen:
                warnings.append(f"function '{fname}': block '{bid}' is unreachable")

    return warnings

