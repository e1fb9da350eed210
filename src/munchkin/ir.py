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

Parsing reads one grammar two ways. The grammar gives each kind of line as
the steps that ``serialize_program`` writes, and at import each kind's steps
are compiled into one pattern. A line spelled as ``serialize_program``
writes it (once its comment and outer whitespace are gone) is matched whole
by its kind's pattern and built directly. Any other line, including every
line with an error, is tokenized and walked against the same steps, which
builds the same node or raises the line's ParseError. Its column counts from
the start of the source line and points at the offending token or character.

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

# The one spelling of an integer literal, for the tokenizer, the grammar and
# every integer a user supplies.
_INT_LITERAL = re.compile(r"-?[0-9]+")


def int_literal(text: str) -> int:
    """A user's integer in ``.mir`` literal spelling, ``-?[0-9]+`` in ASCII digits."""
    if _INT_LITERAL.fullmatch(text) is None:
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

# A token, after any whitespace, or else the one character that starts none.
# Order matters: multi-char operators and signed integers before single chars.
_TOKEN_RE = re.compile(
    rf"\s*(?:(->|<=|>=|==|!=|{_INT_LITERAL.pattern}|[A-Za-z_][A-Za-z0-9_]*|[=(),:+*/%<>-])|(\S))"
)
_KEYWORDS = frozenset(
    {"program", "func", "block", "const", "input", "call", "print", "br", "jmp", "ret"}
)


def _is_name(text: object) -> bool:
    """An ASCII identifier other than a keyword: a name ``.mir`` can spell."""
    ascii_identifier = isinstance(text, str) and text.isascii() and text.isidentifier()
    return ascii_identifier and text not in _KEYWORDS


def _tokenize(line: str, lineno: int, indent: int) -> list[tuple[str | None, int]]:
    """``line``'s tokens with their columns, then ``(None, the column after it)``.

    ``line`` is the source line with its comment and outer whitespace gone,
    and ``indent`` the number of characters stripped before it, so columns
    count from the start of the source line.
    """
    tokens: list[tuple[str | None, int]] = []
    for match in _TOKEN_RE.finditer(line):
        tok, odd = match.groups()
        col = indent + match.start(match.lastindex) + 1
        if odd:
            raise ParseError(f"unexpected character {odd!r}", lineno, col)
        tokens.append((tok, col))
    tokens.append((None, indent + len(line) + 1))
    return tokens


# The grammar: each kind of line as the steps that ``serialize_program``
# writes, in order, and the function that builds the line's node from the
# steps' texts. A step is one of:
#   "->"                a literal token;
#   (label, pattern)    one token that ``pattern`` matches whole, called
#                       ``label`` in errors;
#   ("list", step)      a parenthesised list of ``step`` tokens, whose text is
#                       its items joined by ", ";
#   ("optional", step)  ``step`` at the end of the line, or nothing (None).
# A line that starts with a keyword is keyed by it, an assignment by "= " and
# the keyword after "=", and a binop, any other assignment, by "=".
_NAME = rf"(?!(?:{'|'.join(sorted(_KEYWORDS))})(?![A-Za-z0-9_]))[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
_OPERAND = ("operand", re.compile(rf"{_INT_LITERAL.pattern}|{_NAME}"))
_FUNCTION_NAME = ("function name", _NAME_RE)
_BLOCK_ID = ("block id", _NAME_RE)
_DESTINATION = ("destination", _NAME_RE)
_COMPARISON = ("comparison", re.compile("|".join(map(re.escape, CMP_OPS))))
_OPERATOR = ("operator", re.compile("|".join(map(re.escape, BIN_OPS))))
_SEPARATOR = ("',' or ')'", re.compile("[,)]"))  # a list's, read as one token
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


_GRAMMAR = {
    "program": (("program", ("program name", _NAME_RE)), lambda name: name),
    "func": (
        ("func", _FUNCTION_NAME, ("list", ("parameter name", _NAME_RE))),
        lambda name, params: (name, tuple(params.split(", ")) if params else ()),
    ),
    "block": (("block", _BLOCK_ID, ":"), lambda block_id: block_id),
    "call": (
        ("call", _FUNCTION_NAME, ("list", _OPERAND)),
        lambda callee, args: Call(None, callee, _operands(args)),
    ),
    "print": (("print", _OPERAND), lambda a: Print(_operand(a))),
    "br": (
        ("br", _COMPARISON, _OPERAND, _OPERAND, "->", _BLOCK_ID, ",", _BLOCK_ID),
        lambda cmp, a, b, then_id, else_id: Branch(cmp, _operand(a), _operand(b), then_id, else_id),
    ),
    "jmp": (("jmp", _BLOCK_ID), Jump),
    "ret": (("ret", ("optional", _OPERAND)), lambda a: Return(None if a is None else _operand(a))),
    "= const": (
        (_DESTINATION, "=", "const", ("integer", _INT_LITERAL)),
        lambda dest, value: Const(dest, _operand(value)),
    ),
    "= input": ((_DESTINATION, "=", "input"), ReadInput),
    "= call": (
        (_DESTINATION, "=", "call", _FUNCTION_NAME, ("list", _OPERAND)),
        lambda dest, callee, args: Call(dest, callee, _operands(args)),
    ),
    "=": (
        (_DESTINATION, "=", _OPERAND, _OPERATOR, _OPERAND),
        lambda dest, a, op, b: BinOp(dest, op, _operand(a), _operand(b)),
    ),
}


def _canonical_pattern(steps: tuple) -> re.Pattern:
    """The line of ``steps`` as ``serialize_program`` spaces it: a space
    before each step but the first, a ':', a ',' and a list."""
    text = ""
    for step in steps:
        if isinstance(step, str):
            text += ("" if step in ":," else " ") + re.escape(step)
        elif step[0] == "list":
            item = f"(?:{step[1][1].pattern})"
            text += rf"\(((?:{item}(?:, {item})*)?)\)"
        elif step[0] == "optional":
            text += f"(?: ({step[1][1].pattern}))?"
        else:
            text += f" ({step[1].pattern})"
    return re.compile(text[1:])


# Each kind as (canonical pattern, steps, build). A canonical line is matched
# whole by its kind's pattern and built without the walk. Each pattern
# accepts only what the walk accepts, with an equal result: every token ends
# at a space, a punctuation character or the end of the line, as the
# tokenizer's tokens do, and the token patterns are the walk's own. A literal
# out of int32 range raises _NotCanonical, so that the walk reports it.
_KINDS = {
    key: (_canonical_pattern(steps), steps, build) for key, (steps, build) in _GRAMMAR.items()
}
_BINOP = _KINDS["="]


def _parse_canonical(line: str) -> tuple[str, object] | None:
    """(first word, parsed line) for a canonical line, else None."""
    head, _, rest = line.partition(" ")
    pattern, _, build = _KINDS.get(head) or _KINDS.get("= " + rest[2:].partition(" ")[0], _BINOP)
    match = pattern.fullmatch(line)
    if match is None:
        return None
    try:
        return head, build(*match.groups())
    except _NotCanonical:
        return None


def _walk(tokens: list[tuple[str | None, int]], lineno: int) -> object:
    """The node that a line's ``tokens`` spell, read against its kind's steps
    one token at a time; the first token that does not fit raises."""
    after_eq = tokens[2][0] if len(tokens) > 2 else None
    _, steps, build = _KINDS.get(tokens[0][0]) or _KINDS.get(f"= {after_eq}", _BINOP)
    pos = 0

    def take(step) -> str:
        """The next token, which must be the literal ``step`` or fit the
        ``(label, pattern)`` step."""
        nonlocal pos
        tok, col = tokens[pos]
        literal = isinstance(step, str)
        what = f"'{step}'" if literal else step[0]
        if tok is None:
            raise ParseError(f"expected {what}", lineno, col)
        if tok != step if literal else not step[1].fullmatch(tok):
            raise ParseError(f"expected {what}, found {tok!r}", lineno, col)
        if _INT_LITERAL.fullmatch(tok) and not INT32_MIN <= int(tok) <= INT32_MAX:
            raise ParseError("integer literal out of int32 range", lineno, col)
        pos += 1
        return tok

    groups: list[str | None] = []
    for step in steps:
        if isinstance(step, str):
            take(step)
        elif step[0] == "list":
            take("(")
            items = [] if tokens[pos][0] == ")" else [take(step[1])]
            while take(_SEPARATOR) == ",":
                items.append(take(step[1]))
            groups.append(", ".join(items))
        elif step[0] == "optional":
            groups.append(None if tokens[pos][0] is None else take(step[1]))
        else:
            groups.append(take(step))
    tok, col = tokens[pos]
    if tok is not None:
        raise ParseError(f"trailing input {tok!r}", lineno, col)
    return build(*groups)


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

    def flush_block() -> None:
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
        flush_block()
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
        # ``node`` is None where the walk must read the line's tokens; it
        # does so after the checks below, so that errors keep their order.
        canonical = _parse_canonical(line)
        if canonical is None:
            tokens = _tokenize(line, lineno, len(code) - len(code.lstrip()))
            head, node = tokens[0][0], None
        else:
            head, node = canonical
        if head == "program":
            if program_name is not None:
                raise ParseError("duplicate 'program' header", lineno)
            if functions or cur_func is not None:
                raise ParseError("'program' header must come first", lineno)
            program_name = node or _walk(tokens, lineno)
            continue
        if program_name is None:
            raise ParseError("expected 'program <name>' header", lineno)
        if head == "func":
            flush_func(lineno)
            cur_func, cur_params = node or _walk(tokens, lineno)
            continue
        if head == "block":
            if cur_func is None:
                raise ParseError("block outside of a function", lineno)
            flush_block()
            cur_block_id = node or _walk(tokens, lineno)
            cur_block_line = lineno
            continue
        if cur_func is None or cur_block_id is None:
            raise ParseError("instruction outside of a block", lineno)
        if cur_term is not None:
            raise ParseError("instruction after terminator", lineno)
        if head in _TERMINATOR_HEADS:
            cur_term = node or _walk(tokens, lineno)
            if source_map is not None:
                source_map[(cur_func, cur_block_id, -1)] = lineno
        else:
            if source_map is not None:
                source_map[(cur_func, cur_block_id, len(cur_instrs))] = lineno
            cur_instrs.append(node or _walk(tokens, lineno))

    last_line = text.count("\n") + 1
    if program_name is None:
        raise ParseError("expected 'program <name>' header", last_line)
    flush_func(last_line)
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
