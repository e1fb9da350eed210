"""Mini imperative IR: typed in-memory form, textual format, validation.

A program is a set of named integer functions over basic blocks. The text
format (extension ``.mir``) is line oriented, one instruction per line:

    program <name>

    func <fname>(<p1>, <p2>)
    block <id>:
      <dest> = const <int>
      <dest> = input
      <dest> = <a> <op> <b>              # op: + - * / %
      <dest> = call <fname>(<a>, <b>)
      call <fname>(<a>)
      print <a>
      br <cmp> <a> <b> -> <then>, <else>   # cmp: < <= == != >= >
      jmp <id>
      ret [<a>]

Operands are local/parameter names or int32 literals; ``#`` starts a
comment. Tokens may be separated by any whitespace or none, and a ``-``
directly before digits is part of the literal. Every block ends with exactly
one terminator. All arithmetic is int32 two's complement with wrap-around;
division and remainder truncate toward zero (remainder takes the dividend's
sign). Division or remainder by zero is not undefined behavior: the
interpreter and the symbolic engine terminate the executing path with an
arithmetic fault.

Parsing takes one of two paths per line. A line spelled as
``serialize_program`` writes it (once its comment and outer whitespace are
gone) is matched whole by one compiled pattern for its kind and built
directly. Every other line, including every line with an error, goes through
a token cursor. The patterns accept only what the cursor accepts with an
equal result, and they leave keywords used as names and out-of-range
literals to it. So the fast path changes no result, and every ParseError
comes from the cursor. Its column counts from the start of the source line
and points at the offending token or character.

A program runs from its function ``main`` (``ENTRY_FUNCTION``), which takes
no parameters, and a function runs from its first block. In the records, a
``Program`` keys its functions by name and a ``Function`` its blocks by id,
in text order; no record holds its own name or an entry, so each of these
facts is stated once, as in the text.

Programs are immutable after validation and safe to share across threads.

The IR nodes here, and every other record the library builds for itself,
are ``_Record`` classes with ``__slots__``, not dataclasses. A record states
its fields once, in ``_fields``, and ``_Record.__init_subclass__`` builds the
``__init__`` that stores them. That is one small ``exec`` per class, and
equality, hash and repr are the base class's, shared by every record.
Generating dataclass code took most of the package's import time, because
a dataclass generates several methods per class, each by its own ``exec``,
after inspecting the class's annotations. Only the five types that callers
build from keywords or pass to ``dataclasses.replace`` stay dataclasses:
``GenParams``, ``FuzzConfig``, ``SymexLimits``, ``HybridConfig`` and
``CampaignReport``.
"""

from __future__ import annotations

import functools
import gc
import operator
import re
from dataclasses import FrozenInstanceError

INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1

BIN_OPS = ("+", "-", "*", "/", "%")
CMP_OPS = ("<", "<=", "==", "!=", ">=", ">")
# Each comparison as an ``operator`` function, for the interpreters and the solver.
_COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
    ">=": operator.ge,
    ">": operator.gt,
}

ENTRY_FUNCTION = "main"

# Operands are either int32 literals or names of parameters/locals.
Operand = int | str


def int_literal(text: str) -> int:
    """A user's integer in ``.mir`` literal spelling, ``-?[0-9]+`` in ASCII digits."""
    if re.fullmatch(r"-?[0-9]+", text) is None:
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def wrap32(value: int) -> int:
    """Reduce an unbounded integer to int32 two's complement."""
    return ((value + (1 << 31)) & 0xFFFFFFFF) - (1 << 31)


def apply_binop(op: str, lhs: int, rhs: int) -> int:
    """Apply a binary operator with int32 wrap-around semantics.

    Division truncates toward zero; remainder satisfies
    ``lhs == div(lhs, rhs) * rhs + mod(lhs, rhs)``. Raises
    ZeroDivisionError for ``/`` and ``%`` with a zero divisor; callers
    turn that into an arithmetic-fault path end.
    """
    if op == "+":
        return wrap32(lhs + rhs)
    if op == "-":
        return wrap32(lhs - rhs)
    if op == "*":
        return wrap32(lhs * rhs)
    if op == "/":
        if rhs == 0:
            raise ZeroDivisionError("division by zero")
        quot = abs(lhs) // abs(rhs)
        return wrap32(-quot if (lhs < 0) != (rhs < 0) else quot)
    if op == "%":
        if rhs == 0:
            raise ZeroDivisionError("remainder by zero")
        quot = abs(lhs) // abs(rhs)
        if (lhs < 0) != (rhs < 0):
            quot = -quot
        return wrap32(lhs - quot * rhs)
    raise ValueError(f"unknown operator {op!r}")


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


class _Record:
    """Base of the record types the library builds for itself.

    A subclass names its fields once, in ``_fields``, which are also its
    ``__slots__``, and the values of its trailing fields' defaults in
    ``_defaults`` (immutable values only: every instance shares them).
    ``__init_subclass__`` builds the ``__init__`` that takes the fields in
    order and stores them, unless the class writes its own. Like a frozen
    dataclass, a record equals only a record of its exact type with equal
    fields, hashes the tuple of its fields, shows as
    ``Name(field=value, ...)`` and rejects assignment. Copies and pickles
    rebuild a record from its fields, so a slot outside ``_fields`` (a
    cache) is left out.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: tuple = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if "__init__" in cls.__dict__:
            return
        # A frozen record stores through ``object.__setattr__``, bound once as
        # the function's global ``_set``. A mutable one assigns, about three
        # times as fast per field.
        mutable = cls.__setattr__ is object.__setattr__
        store = "self.{0} = {0}" if mutable else "_set(self, {0!r}, {0})"
        body = "".join(f"\n    {store.format(name)}" for name in cls._fields) or "\n    pass"
        source = f"def __init__(self, {', '.join(cls._fields)}):{body}\n"
        namespace = {"_set": object.__setattr__}
        exec(compile(source, f"<{cls.__qualname__}.__init__>", "exec"), namespace)
        init = namespace["__init__"]
        init.__defaults__ = cls._defaults
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class _MutableRecord(_Record):
    """A record whose fields may be assigned; like a mutable dataclass, it has no hash."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


def _collector_paused(fn):
    """``fn`` run with automatic cyclic garbage collection paused.

    A campaign makes no reference cycles while its program is alive (its
    module says why), and the index holds no reference back to its program.
    So reference counting frees all of a campaign's garbage, and an
    automatic collection during one scans the survivors and frees nothing.
    Only the lowered form of a program with a loop or recursion is cyclic (a
    block's code reaches itself); it is built once per program, and the
    first collection after the program dies frees it.

    If the collector is on, the call turns it off and turns it on again when
    the call returns or raises; if it is off, the call only runs ``fn``. So
    nested campaigns change nothing and the outermost one restores the
    caller's state. The collector is global to the process, so this assumes
    what the package promises: one campaign at a time, in one thread.
    """

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


# ---------------------------------------------------------------------------
# IR node types
# ---------------------------------------------------------------------------


class Const(_Record):
    __slots__ = _fields = ("dest", "value")


class ReadInput(_Record):
    __slots__ = _fields = ("dest",)


class BinOp(_Record):
    __slots__ = _fields = ("dest", "op", "lhs", "rhs")


class Call(_Record):
    __slots__ = _fields = ("dest", "callee", "args")  # dest is None for a bare call


class Print(_Record):
    __slots__ = _fields = ("operand",)


Instruction = Const | ReadInput | BinOp | Call | Print


class Branch(_Record):
    __slots__ = _fields = ("cmp", "lhs", "rhs", "then_block", "else_block")


class Jump(_Record):
    __slots__ = _fields = ("target",)


class Return(_Record):
    __slots__ = _fields = ("value",)  # an operand, or None
    _defaults = (None,)


Terminator = Branch | Jump | Return


class Block(_Record):
    __slots__ = _fields = ("instructions", "terminator")


class Function(_Record):
    __slots__ = _fields = ("params", "blocks")


class Program(_Record):
    # ``_lowered`` (executor.lowered_form) and ``_index``
    # (callgraph.index_program) are caches, unset until first use. They are
    # not fields, so copies and pickles leave them out and rebuild them.
    _fields = ("name", "functions")
    __slots__ = _fields + ("_lowered", "_index", "__weakref__")


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class IRError(Exception):
    """Base class for parse and validation failures."""


class ParseError(IRError):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ValidationError(IRError):
    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

# Order matters: multi-char operators and signed integers before single chars.
_TOKEN_RE = re.compile(r"->|<=|>=|==|!=|-?[0-9]+|[A-Za-z_][A-Za-z0-9_]*|[=(),:+*/%<>-]")
_KEYWORDS = frozenset(
    {"program", "func", "block", "const", "input", "call", "print", "br", "jmp", "ret"}
)


def _is_name(text: object) -> bool:
    """An ASCII identifier other than a keyword: a name ``.mir`` can spell."""
    ascii_identifier = isinstance(text, str) and text.isascii() and text.isidentifier()
    return ascii_identifier and text not in _KEYWORDS


def _check_gap(line: str, start: int, end: int, lineno: int, indent: int) -> None:
    """Reject the first non-blank character of ``line[start:end]``, at its own column."""
    rest = line[start:end].lstrip()
    if rest:
        col = indent + end - len(rest) + 1
        raise ParseError(f"unexpected character {rest[0]!r}", lineno, col)


class _Cursor:
    """Token cursor over a single source line.

    ``line`` is the source line with its comment and outer whitespace gone,
    and ``indent`` the number of characters stripped before it, so columns
    count from the start of the source line.
    """

    def __init__(self, line: str, lineno: int, indent: int = 0):
        self.lineno = lineno
        self.tokens: list[tuple[str, int]] = []
        pos = 0
        for match in _TOKEN_RE.finditer(line):
            _check_gap(line, pos, match.start(), lineno, indent)
            self.tokens.append((match.group(), indent + match.start() + 1))
            pos = match.end()
        _check_gap(line, pos, len(line), lineno, indent)
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
        if not _is_name(tok):
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
        if not _is_name(tok):
            raise ParseError(f"expected operand, found {tok!r}", self.lineno, col)
        return tok

    def done(self) -> None:
        if self.index < len(self.tokens):
            tok, col = self.tokens[self.index]
            raise ParseError(f"trailing input {tok!r}", self.lineno, col)


def _parse_arg_list(cur: _Cursor) -> tuple[Operand, ...]:
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


def _parse_param_list(cur: _Cursor) -> tuple[str, ...]:
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


def _parse_terminator(cur: _Cursor) -> Terminator:
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


def _parse_instruction(cur: _Cursor) -> Instruction:
    head = cur.peek()
    if head == "print":
        cur.next()
        operand = cur.operand()
        cur.done()
        return Print(operand)
    if head == "call":
        cur.next()
        callee = cur.ident("function name")
        args = _parse_arg_list(cur)
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
        args = _parse_arg_list(cur)
        cur.done()
        return Call(dest, callee, args)
    lhs = cur.operand()
    op_tok, op_col = cur.next("operator")
    if op_tok not in BIN_OPS:
        raise ParseError(f"expected operator, found {op_tok!r}", cur.lineno, op_col)
    rhs = cur.operand()
    cur.done()
    return BinOp(dest, op_tok, lhs, rhs)


def _parse_program_header(cur: _Cursor) -> str:
    cur.next()
    name = cur.ident("program name")
    cur.done()
    return name


def _parse_func_header(cur: _Cursor) -> tuple[str, tuple[str, ...]]:
    cur.next()
    name = cur.ident("function name")
    params = _parse_param_list(cur)
    cur.done()
    return name, params


def _parse_block_header(cur: _Cursor) -> str:
    cur.next()
    block_id = cur.ident("block id")
    cur.expect(":")
    cur.done()
    return block_id


# Canonical lines, spelled as ``serialize_program`` spells them, are matched
# whole by one pattern per line kind and built without the cursor. Each
# pattern accepts only what the cursor accepts, with an equal result: every
# token ends at a space, a punctuation character or the end of the line, as
# the cursor's tokens do; a name is an identifier that is not a keyword; and
# digits are ASCII. A literal out of int32 range raises _NotCanonical, so
# that the cursor reports it.
_NAME = rf"(?!(?:{'|'.join(sorted(_KEYWORDS))})(?![A-Za-z0-9_]))[A-Za-z_][A-Za-z0-9_]*"
_OPERAND = rf"(?:-?[0-9]+|{_NAME})"
_OPERANDS = rf"((?:{_OPERAND}(?:, {_OPERAND})*)?)"
_LITERAL_START = frozenset("-0123456789")


class _NotCanonical(Exception):
    """A line that matched a canonical pattern but holds an out-of-range literal."""


def _operand(tok: str) -> Operand:
    if tok[0] not in _LITERAL_START:
        return tok
    value = int(tok)
    if not INT32_MIN <= value <= INT32_MAX:
        raise _NotCanonical
    return value


def _operands(text: str) -> tuple[Operand, ...]:
    return tuple(map(_operand, text.split(", "))) if text else ()


_KEYWORD_LINES = {
    "program": (re.compile(rf"program ({_NAME})"), lambda name: name),
    "func": (
        re.compile(rf"func ({_NAME})\(((?:{_NAME}(?:, {_NAME})*)?)\)"),
        lambda name, params: (name, tuple(params.split(", ")) if params else ()),
    ),
    "block": (re.compile(rf"block ({_NAME}):"), lambda block_id: block_id),
    "call": (
        re.compile(rf"call ({_NAME})\({_OPERANDS}\)"),
        lambda callee, args: Call(None, callee, _operands(args)),
    ),
    "print": (re.compile(rf"print ({_OPERAND})"), lambda a: Print(_operand(a))),
    "br": (
        re.compile(rf"br (<=|>=|==|!=|<|>) ({_OPERAND}) ({_OPERAND}) -> ({_NAME}), ({_NAME})"),
        lambda cmp, a, b, then_block, else_block: Branch(
            cmp, _operand(a), _operand(b), then_block, else_block
        ),
    ),
    "jmp": (re.compile(rf"jmp ({_NAME})"), Jump),
    "ret": (
        re.compile(rf"ret(?: ({_OPERAND}))?"),
        lambda a: Return(None if a is None else _operand(a)),
    ),
}
# Assignments, by the word after "= "; any other word starts a binop.
_ASSIGNMENT_LINES = {
    "const": (
        re.compile(rf"({_NAME}) = const (-?[0-9]+)"),
        lambda dest, value: Const(dest, _operand(value)),
    ),
    "input": (re.compile(rf"({_NAME}) = input"), ReadInput),
    "call": (
        re.compile(rf"({_NAME}) = call ({_NAME})\({_OPERANDS}\)"),
        lambda dest, callee, args: Call(dest, callee, _operands(args)),
    ),
}
_BINOP_LINE = (
    re.compile(rf"({_NAME}) = ({_OPERAND}) ([-+*/%]) ({_OPERAND})"),
    lambda dest, a, op, b: BinOp(dest, op, _operand(a), _operand(b)),
)


def _parse_canonical(line: str) -> tuple[str, object] | None:
    """(first word, parsed line) for a canonical line, else None."""
    head, _, rest = line.partition(" ")
    kind = _KEYWORD_LINES.get(head)
    if kind is None:
        kind = _ASSIGNMENT_LINES.get(rest[2:].partition(" ")[0], _BINOP_LINE)
    pattern, build = kind
    match = pattern.fullmatch(line)
    if match is None:
        return None
    try:
        return head, build(*match.groups())
    except _NotCanonical:
        return None


_TERMINATOR_HEADS = frozenset({"br", "jmp", "ret"})


def parse_program(text: str) -> Program:
    """Parse and validate textual IR.

    Raises ParseError with line/column on syntax errors and
    ValidationError (with the offending line where known) on semantic
    errors; a returned Program satisfies every structural invariant.
    """
    program = _parse_lines(text)
    try:
        validate_program(program)
        return program
    except ValidationError as error:
        unlocated = error
    # Only a failure reads line numbers: parse again, keeping them, and
    # validate again, which raises the same error with its line.
    source_map: dict[tuple[str, str, int], int] = {}
    _parse_lines(text, source_map)
    validate_program(program, source_map)
    raise unlocated


def _parse_lines(
    text: str, source_map: dict[tuple[str, str, int], int] | None = None
) -> Program:
    """The program that ``text`` spells, not yet validated. With a
    ``source_map``, each instruction's and terminator's line goes into it,
    keyed ``(function, block, index)``, with index -1 for the terminator."""
    program_name: str | None = None
    functions: dict[str, Function] = {}

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
        # ``node`` is None where the cursor must parse the line; it does so
        # after the checks below, so that errors keep the cursor's order.
        canonical = _parse_canonical(line)
        if canonical is None:
            cur = _Cursor(line, lineno, len(code) - len(code.lstrip()))
            head, node = cur.peek(), None
        else:
            head, node = canonical
        if head == "program":
            if program_name is not None:
                raise ParseError("duplicate 'program' header", lineno)
            if functions or cur_func is not None:
                raise ParseError("'program' header must come first", lineno)
            program_name = node or _parse_program_header(cur)
            continue
        if program_name is None:
            raise ParseError("expected 'program <name>' header", lineno)
        if head == "func":
            flush_func(lineno)
            cur_func, cur_params = node or _parse_func_header(cur)
            continue
        if head == "block":
            if cur_func is None:
                raise ParseError("block outside of a function", lineno)
            flush_block(lineno)
            cur_block_id = node or _parse_block_header(cur)
            cur_block_line = lineno
            continue
        if cur_func is None or cur_block_id is None:
            raise ParseError("instruction outside of a block", lineno)
        if cur_term is not None:
            raise ParseError("instruction after terminator", lineno)
        if head in _TERMINATOR_HEADS:
            cur_term = node or _parse_terminator(cur)
            if source_map is not None:
                source_map[(cur_func, cur_block_id, -1)] = lineno
        else:
            if source_map is not None:
                source_map[(cur_func, cur_block_id, len(cur_instrs))] = lineno
            cur_instrs.append(node or _parse_instruction(cur))

    if program_name is None:
        raise ParseError("expected 'program <name>' header", max(1, text.count("\n") + 1))
    flush_func(text.count("\n") + 1)
    return Program(program_name, functions)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate_program(
    program: Program, source_map: dict[tuple[str, str, int], int] | None = None
) -> None:
    """Check every structural invariant.

    Violations (missing entry, unknown callee, arity mismatch, bad branch
    targets, use of never-assigned operands, a name that ``.mir`` cannot
    spell) raise ValidationError. Unreachable blocks are legal.
    """
    source_map = source_map or {}

    def line_of(func: str, block: str, index: int) -> int | None:
        return source_map.get((func, block, index))

    entry = program.functions.get(ENTRY_FUNCTION)
    if entry is None:
        raise ValidationError(f"missing entry function '{ENTRY_FUNCTION}'")
    if entry.params:
        raise ValidationError(f"entry function '{ENTRY_FUNCTION}' must take no parameters")

    # The distinct names the functions define; operands, callees and targets
    # must name one of these or a function to validate.
    params: set[str] = set()
    block_ids: set[str] = set()
    destinations: set[str] = set()
    for fname, func in program.functions.items():
        params.update(func.params)
        block_ids.update(func.blocks)
        if not func.blocks:
            raise ValidationError(f"function '{fname}' has no blocks")
        # A name defined in another block of the function counts as assigned
        # (control flow is not tracked); one defined only later in its own
        # block does not. ``defining[name]`` counts the blocks defining it.
        dests_by_block: dict[str, set[str]] = {}
        defining: dict[str, int] = {}
        for bid, block in func.blocks.items():
            dests = {getattr(instr, "dest", None) for instr in block.instructions}
            dests.discard(None)
            dests_by_block[bid] = dests
            for dest in dests:
                defining[dest] = defining.get(dest, 0) + 1
        destinations.update(defining)

        for bid, block in func.blocks.items():
            own = dests_by_block[bid]

            def check_operand(op: Operand, assigned: set[str], index: int) -> None:
                if (
                    isinstance(op, str)
                    and op not in assigned
                    and defining.get(op, 0) <= (op in own)
                ):
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

    # Each name once, so that a parse pays little for names it already checked.
    for what, names in (
        ("program name", (program.name,)),
        ("function name", program.functions),
        ("parameter name", params),
        ("block id", block_ids),
        ("destination", destinations),
    ):
        bad = [name for name in names if not _is_name(name)]
        if bad:
            raise ValidationError(f"{what} {min(bad, key=str)!r} is a keyword or not an identifier")


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _fmt_instruction(instr: Instruction) -> str:
    if isinstance(instr, Const):
        return f"{instr.dest} = const {instr.value}"
    if isinstance(instr, ReadInput):
        return f"{instr.dest} = input"
    if isinstance(instr, BinOp):
        return f"{instr.dest} = {instr.lhs} {instr.op} {instr.rhs}"
    if isinstance(instr, Call):
        args = ", ".join(map(str, instr.args))
        call = f"call {instr.callee}({args})"
        return f"{instr.dest} = {call}" if instr.dest is not None else call
    if isinstance(instr, Print):
        return f"print {instr.operand}"
    raise TypeError(f"not an instruction: {instr!r}")


def _fmt_terminator(term: Terminator) -> str:
    if isinstance(term, Branch):
        return (
            f"br {term.cmp} {term.lhs} {term.rhs}"
            f" -> {term.then_block}, {term.else_block}"
        )
    if isinstance(term, Jump):
        return f"jmp {term.target}"
    if isinstance(term, Return):
        return "ret" if term.value is None else f"ret {term.value}"
    raise TypeError(f"not a terminator: {term!r}")


def serialize_program(program: Program) -> str:
    """Render a Program in the textual format.

    Round trip: ``parse_program(serialize_program(p))`` is structurally
    equal to ``p``, and serialization of the reparsed program is
    byte-identical.
    """
    lines = [f"program {program.name}", ""]
    for fname, func in program.functions.items():
        lines.append(f"func {fname}({', '.join(func.params)})")
        for bid, block in func.blocks.items():
            lines.append(f"block {bid}:")
            for instr in block.instructions:
                lines.append(f"  {_fmt_instruction(instr)}")
            lines.append(f"  {_fmt_terminator(block.terminator)}")
        lines.append("")
    return "\n".join(lines[:-1]) + "\n"
