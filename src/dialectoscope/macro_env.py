"""Predefined macro tables, conditional-expression evaluation, and
conditional-compilation branch reports.

Conditions and the operands of #line and line markers are split into
pp-tokens by ``invocation._PP_TOKEN`` and expanded by one expander,
:func:`_expand`.  The evaluator implements preprocessor constant expressions
over 64-bit two's-complement arithmetic: integer literals with suffixes,
``defined``, object-like macro expansion, the unary and binary integer
operators, ``?:``, and parentheses.  Identifiers left after expansion
evaluate to 0.  GCC's built-in macros (:data:`_BUILTINS`) are defined
under every environment.  A call of a function-like macro, or a built-in
number such as ``__LINE__``, raises :class:`UnsupportedMacroError` rather
than returning a wrong answer.

Expansion and evaluation keep their state on explicit stacks, so nesting
depth is limited only by memory; expansion stops with
:class:`ExprEvalError` once it has taken :data:`MAX_EXPANSION_TOKENS`
tokens from macro bodies, which bounds the memory and time of bodies
that multiply (``#define A B B``, ``#define B C C``, ...).
"""

from __future__ import annotations

import re
from itertools import accumulate, chain
from operator import add, and_, eq, ge, gt, le, lshift, lt, mul, ne, or_, rshift, sub, xor
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .dialect_model import AnsiMode, DialectConfig
from .invocation import _COMMENT, _DEFINE_OPERAND, _DEFINE_OPERAND_RE, _IDENT, _IDENT_CHAR, _STRING
from .invocation import _PP_NUMBER, _PP_TOKEN, CompilerInvocation, MacroDirective, _operand_error
from .profiles import CompilerProfile


class PreprocessorError(ValueError):
    """Base class for preprocessing problems."""


class ExprSyntaxError(PreprocessorError):
    """Malformed conditional expression."""


class ExprEvalError(PreprocessorError):
    """Expression is well-formed but cannot be evaluated (division by
    zero, out-of-range shift count, oversized constant, runaway macro
    expansion)."""


class UnsupportedMacroError(PreprocessorError):
    """Macro expansion reached what the model does not expand: a call of a
    function-like macro, or ``__LINE__``, ``__COUNTER__`` or
    ``__INCLUDE_LEVEL__``."""


class ConditionalStructureError(PreprocessorError):
    """Unbalanced or malformed conditional structure in scanned source."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# --- macro environments -------------------------------------------------

PREDEFINED = "predefined"
COMMAND_LINE = "command-line"
SOURCE = "source"


class MacroDefinition(NamedTuple):
    name: str
    body: str
    provenance: str  # "predefined" | "command-line" | "source"
    function_like: bool = False


class MacroEnv:
    """Immutable name -> definition table; updates return new tables.

    Each update copies the whole table, so a caller making many edits
    should build a dict and wrap it once with ``MacroEnv(table)``.
    """

    __slots__ = ("_table",)

    def __init__(self, table: Mapping[str, MacroDefinition] | None = None):
        self._table = dict(table or {})

    @classmethod
    def _owning(cls, table: dict[str, MacroDefinition]) -> "MacroEnv":
        """An environment over ``table`` itself, which no one may mutate
        afterwards."""
        env = cls.__new__(cls)
        env._table = table
        return env

    def lookup(self, name: str) -> MacroDefinition | None:
        return self._table.get(name)

    def definitions(self) -> list[MacroDefinition]:
        return [self._table[n] for n in sorted(self._table)]

    def with_define(
        self, name: str, body: str, provenance: str, function_like: bool = False
    ) -> "MacroEnv":
        definition = MacroDefinition(name, body, provenance, function_like)
        return MacroEnv._owning({**self._table, name: definition})

    def without(self, name: str) -> "MacroEnv":
        if name not in self._table:
            return self
        table = dict(self._table)
        del table[name]
        return MacroEnv._owning(table)

    def __contains__(self, name: str) -> bool:
        return name in self._table

    def __len__(self) -> int:
        return len(self._table)

    def __eq__(self, other) -> bool:
        return isinstance(other, MacroEnv) and self._table == other._table

    def __repr__(self) -> str:
        return f"MacroEnv({len(self)} macros)"


def predefined_macros(config: DialectConfig, profile: CompilerProfile) -> MacroEnv:
    """The macro table an implementation predefines for a dialect."""
    table: dict[str, MacroDefinition] = {}

    def pre(name: str, body: str) -> None:
        table[name] = MacroDefinition(name, body, PREDEFINED)

    pre("__STDC__", "1")
    version = profile.stdc_version_by_class.get(config.std_class)
    if version is not None:
        pre("__STDC_VERSION__", version)
    pre("__STDC_HOSTED__", "0" if config.freestanding else "1")
    if config.optimized:
        pre("__OPTIMIZE__", "1")
    if config.ansi_mode is AnsiMode.STRICT:
        pre("__STRICT_ANSI__", "1")
    if not config.char_is_signed:
        pre("__CHAR_UNSIGNED__", "1")
    pre("__SIZEOF_POINTER__", "8" if config.pointer_width_64 else "4")
    for name, value in profile.compiler_id_macros.items():
        pre(name, value)
    return MacroEnv._owning(table)


def _function_like(params: str, body: str) -> str:
    """What a function-like definition stores as its body: "(x) x+1", "(x)"."""
    return f"{params} {body}".rstrip(" \t\f\v\r")


def _apply(table: dict[str, MacroDefinition], directives: Iterable[MacroDirective]) -> MacroEnv:
    for d in directives:
        if d.action == "define":
            value = d.value if d.value is not None else "1"
            name, paren, params = d.name.partition("(")
            if paren:  # -D'F(x)=x+1' means "#define F(x) x+1"
                body = _function_like(paren + params, value)
                table[name] = MacroDefinition(name, body, COMMAND_LINE, function_like=True)
            else:
                table[name] = MacroDefinition(name, value, COMMAND_LINE)
        elif d.action == "undefine":
            table.pop(d.name, None)
        else:
            raise ValueError(f"unknown directive action {d.action!r}")
    return MacroEnv._owning(table)


def apply_directives(env: MacroEnv, directives: Iterable[MacroDirective]) -> MacroEnv:
    """Apply -D/-U style directives in order, as command-line definitions;
    define overwrites, undefine removes, undefining an absent name is a
    no-op."""
    return _apply(dict(env._table), directives)


def invocation_macro_env(inv: CompilerInvocation) -> MacroEnv:
    """Full macro environment of an invocation: dialect-predefined
    macros, option-conditional profile macros, then -D/-U in order."""
    table = predefined_macros(inv.dialect, inv.profile)._table
    for name, value in inv.profile_defines:
        table[name] = MacroDefinition(name, value, PREDEFINED)
    return _apply(table, inv.macro_directives)


# --- conditional expression evaluation -----------------------------------

_U64_MASK = (1 << 64) - 1
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Most tokens the macro expansion of one condition or directive operand may
#: take from macro bodies, and read in looking for a call's ")"; past it
#: expansion raises ExprEvalError.
MAX_EXPANSION_TOKENS = 1 << 20

_PP_TOKEN_RE = re.compile(_PP_TOKEN)

_INT_RE = re.compile(
    r"(?:(?P<hex>0[xX][0-9a-fA-F]+)|(?P<oct>0[0-7]*)|(?P<dec>[1-9][0-9]*))"
    r"(?P<suffix>[uU](?:l|ll|L|LL)?|(?:l|ll|L|LL)[uU]?)?\Z"
)

#: How tightly each binary operator binds.  The comma operator (C11 6.5.17)
#: binds loosest.  A "?" binds at 2, so that it folds every binary operator
#: before it but the comma; the ":" arm after it binds at 1, so that a comma
#: ends it; a prefix operator binds at 13.
_BIN_PRECEDENCE = {
    ",": 1,
    "||": 3, "&&": 4,
    "|": 5, "^": 6, "&": 7,
    "==": 8, "!=": 8,
    "<": 9, ">": 9, "<=": 9, ">=": 9,
    "<<": 10, ">>": 10,
    "+": 11, "-": 11,
    "*": 12, "/": 12, "%": 12,
}
_PREFIX_OPS = frozenset("!-+~")
#: The punctuators a condition may hold.
_CONDITION_PUNCTUATORS = frozenset((*_BIN_PRECEDENCE, *_PREFIX_OPS, "(", ")", "?", ":"))
#: The first characters of an identifier and of a pp-number ("." only before a
#: digit): those that begin a match of ``_IDENT`` or ``_PP_NUMBER`` before a digit.
_IDENT_START, _PP_NUMBER_START = (
    frozenset(c for c in map(chr, range(128)) if match(c + "0"))
    for match in (re.compile(_IDENT).match, re.compile(_PP_NUMBER).match)
)
_OPERAND_START = _IDENT_START | _PP_NUMBER_START
_QUOTES = frozenset("\"'")
#: The provenance of a built-in macro that expands to a number the scan does
#: not track: the physical line of the token, a count of earlier uses, the
#: depth of inclusion.  Expanding one raises UnsupportedMacroError.
_UNTRACKED = "untracked"
#: The provenance of GCC's ``__has_*`` operators, which a condition holds only in a call.
_OPERATOR = "operator"
_ANY_ARGUMENTS = _function_like("(...)", "")
#: The macros GCC 12.2 defines before any other, each one checked with
#: "#ifdef NAME" under ``gcc -E -P``.  Those that expand to a string the scan
#: does not know expand to the string literal ``""``, which a line marker or
#: #line may give as its file name and no condition may hold.  The others
#: expand to an untracked number, or are function-like, so a call of one
#: raises UnsupportedMacroError.  A scan starts its table with them, so a
#: header's own #define or #undef of one wins, as in GCC.
_BUILTINS = {
    **{name: MacroDefinition(name, '""', PREDEFINED) for name in (
        "__FILE__", "__FILE_NAME__", "__BASE_FILE__", "__DATE__", "__TIME__", "__TIMESTAMP__"
    )},
    **{name: MacroDefinition(name, "", _UNTRACKED) for name in (
        "__LINE__", "__COUNTER__", "__INCLUDE_LEVEL__"
    )},
    **{name: MacroDefinition(name, _ANY_ARGUMENTS, _OPERATOR, function_like=True) for name in (
        "__has_include", "__has_include_next", "__has_attribute", "__has_cpp_attribute",
        "__has_c_attribute", "__has_builtin",
    )},
    "_Pragma": MacroDefinition("_Pragma", _ANY_ARGUMENTS, PREDEFINED, function_like=True),
}

_Lookup = Callable[[str], MacroDefinition | None]
#: Macro bodies' :func:`_tokenize` results, by their text.
_Bodies = dict[str, tuple[list[str], str | None]]
#: A value as (value, unsigned): ``value`` is canonical, in [0, 2^64) when
#: unsigned and in [-2^63, 2^63) when signed.
_Int = tuple[int, bool]
_ZERO = (0, False)
_ONE = (1, False)


def _first_odd(tokens: Iterable[str]) -> str | None:
    """The first of ``tokens`` that no condition may hold, if any: one that
    is neither an identifier, a pp-number nor one of
    ``_CONDITION_PUNCTUATORS``."""
    for tok in tokens:
        # Only "." and "..." start with "." and are no pp-number, and only an
        # "L" literal starts with a letter and is no identifier.
        if tok not in _CONDITION_PUNCTUATORS and not (
            tok[0] in _OPERAND_START and tok not in (".", "...") and tok[1:2] not in _QUOTES
        ):
            return tok
    return None


def _tokenize(text: str) -> tuple[list[str], str | None]:
    """The tokens of ``text``, and what is wrong with the first of them that
    a condition may not hold (:func:`_first_odd`), if any."""
    tokens = _PP_TOKEN_RE.findall(text)
    odd = _first_odd(tokens)
    if odd is None:
        return tokens, None
    if '"' in odd or "'" in odd:
        return tokens, "string and character constants are not supported"
    return tokens, f"unexpected {'character' if len(odd) == 1 else 'token'} {odd!r}"


def _read_defined(tokens: Sequence[str], i: int) -> tuple[str, int]:
    if i < len(tokens) and tokens[i] == "(":
        if i + 2 < len(tokens) and tokens[i + 1][0] in _IDENT_START and tokens[i + 2] == ")":
            return tokens[i + 1], i + 3
        raise ExprSyntaxError("expected defined(NAME)")
    if i < len(tokens) and tokens[i][0] in _IDENT_START:
        return tokens[i], i + 1
    raise ExprSyntaxError("expected a macro name after 'defined'")


def _call_follows(
    toks: Sequence[str], i: int, suspended: Sequence[tuple[Sequence[str], int, str | None]]
) -> tuple[bool, int]:
    """Whether the tokens after ``toks[:i]``, then those left in each list
    of ``suspended``, innermost first, open with "(" and hold its matching
    ")", and how many tokens it took to tell."""
    depth = read = 0
    for tokens, start, _ in chain(((toks, i, None),), reversed(suspended)):
        for k in range(start, len(tokens)):
            tok = tokens[k]
            read += 1
            if tok == "(":
                depth += 1
            elif depth == 0:
                return False, read
            elif tok == ")":
                depth -= 1
                if depth == 0:
                    return True, read
    return False, read


def _expand(
    tokens: Sequence[str], lookup: _Lookup, bodies: _Bodies, condition: bool
) -> Iterator[str]:
    """``tokens`` with object-like macros expanded, read lazily.  A macro's
    name is hidden while its own body is read, so self-reference stops.
    ``bodies`` caches each body's :func:`_tokenize` result by its text.  In
    a ``condition`` of #if, ``defined`` is an operator, and a body holding a
    token no condition may hold is an error.  Where the tokens that follow
    cannot be told, expansion raises :class:`UnsupportedMacroError`: at a
    built-in number, or at a function-like macro's name followed, as
    written and across the ends of bodies, by "(" and its matching ")" (a
    name without them is a plain token, or in a condition, for a
    ``__has_*`` operator, an :class:`ExprSyntaxError`).  Past
    ``MAX_EXPANSION_TOKENS`` it raises :class:`ExprEvalError`."""
    hidden: set[str] = set()
    # Token lists whose reading an expansion interrupted, innermost last,
    # with the macro each one is the body of (None for ``tokens``).
    suspended: list[tuple[Sequence[str], int, str | None]] = []
    toks, i, name = tokens, 0, None
    budget = MAX_EXPANSION_TOKENS
    while True:
        if budget < 0:
            raise ExprEvalError(f"macro expansion exceeds {MAX_EXPANSION_TOKENS} tokens")
        if i == len(toks):
            if not suspended:
                return
            hidden.discard(name)
            toks, i, name = suspended.pop()
            continue
        tok = toks[i]
        i += 1
        if condition and tok == "defined":
            defined_name, i = _read_defined(toks, i)
            yield "1" if lookup(defined_name) is not None else "0"
            continue
        macro = lookup(tok)
        if macro is None or tok in hidden:
            yield tok
            continue
        if macro.function_like:
            called, read = _call_follows(toks, i, suspended)
            if called:
                raise UnsupportedMacroError(f"function-like macro {tok!r} invoked in a condition")
            if macro.provenance == _OPERATOR and condition:
                raise ExprSyntaxError(f"missing '(' after {tok!r}")
            budget -= read
            yield tok
            continue
        if macro.provenance == _UNTRACKED:
            raise UnsupportedMacroError(f"built-in macro {tok!r} used in a condition")
        cached = bodies.get(macro.body)
        if cached is None:
            cached = bodies[macro.body] = _tokenize(macro.body)
        body, fault = cached
        if condition and fault is not None:
            raise ExprSyntaxError(f"{fault} in body of macro {tok!r}")
        budget -= len(body)
        suspended.append((toks, i, name))
        hidden.add(tok)
        toks, i, name = body, 0, tok


def _wrap_signed(v: int) -> int:
    return ((v - _INT64_MIN) & _U64_MASK) + _INT64_MIN


def _operand(tok: str) -> _Int:
    """The value of an operand token: an integer constant, or 0 for an
    identifier that survived macro expansion."""
    if tok[0] in _IDENT_START:
        return _ZERO
    if tok[0] not in _PP_NUMBER_START:
        raise ExprSyntaxError(f"unexpected token {tok!r}")
    m = _INT_RE.match(tok)
    if m is None:
        raise ExprSyntaxError(f"invalid integer constant {tok!r}")
    hexadecimal, octal, decimal, suffix = m.groups()
    value = int(hexadecimal, 16) if hexadecimal else int(octal, 8) if octal else int(decimal)
    if value > _U64_MASK:
        raise ExprEvalError(f"integer constant {tok!r} does not fit in 64 bits")
    # Unsuffixed constants above the signed maximum are treated as
    # unsigned, matching common compiler practice.
    return value, value > _INT64_MAX or suffix is not None and ("u" in suffix or "U" in suffix)


# Each operator folds its operands, given as (value, unsigned) pairs, into
# its result, and takes ``live``: False inside the unevaluated operand of
# && || ?:, where only the result's signedness is tracked and no arithmetic
# error can occur.  A prefix operator's first operand is None.


def _c_div(a: int, b: int) -> int:
    if b == 0:
        raise ExprEvalError("division by zero in conditional expression")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _c_rem(a: int, b: int) -> int:
    return a - _c_div(a, b) * b


def _arithmetic(operate: Callable[[int, int], int]) -> Callable[[_Int, _Int, bool], _Int]:
    """The fold of + - * / % & ^ |, over operands converted to their common type."""
    def fold(a: _Int, b: _Int, live: bool) -> _Int:
        if a[1] or b[1]:
            return (operate(a[0] & _U64_MASK, b[0] & _U64_MASK) & _U64_MASK if live else 0), True
        return (_wrap_signed(operate(a[0], b[0])) if live else 0), False
    return fold


def _comparison(compare: Callable[[int, int], bool]) -> Callable[[_Int, _Int, bool], _Int]:
    """The fold of a relational or equality operator: a signed 1 or 0."""
    def fold(a: _Int, b: _Int, live: bool) -> _Int:
        if not live:
            return _ZERO
        if a[1] or b[1]:
            return _ONE if compare(a[0] & _U64_MASK, b[0] & _U64_MASK) else _ZERO
        return _ONE if compare(a[0], b[0]) else _ZERO
    return fold


def _shift(operate: Callable[[int, int], int]) -> Callable[[_Int, _Int, bool], _Int]:
    """The fold of << or >>: the result has the left operand's type."""
    def fold(a: _Int, b: _Int, live: bool) -> _Int:
        if not live:
            return 0, a[1]
        count = b[0] & _U64_MASK if b[1] else b[0]
        if count < 0 or count >= 64:
            raise ExprEvalError(f"shift count {count} out of range 0..63")
        raw = operate(a[0], count)
        return (raw & _U64_MASK if a[1] else _wrap_signed(raw)), a[1]
    return fold


def _and(a: _Int, b: _Int, live: bool) -> _Int:
    return _ONE if live and a[0] != 0 and b[0] != 0 else _ZERO


def _or(a: _Int, b: _Int, live: bool) -> _Int:
    return _ONE if live and (a[0] != 0 or b[0] != 0) else _ZERO


def _comma(a: _Int, b: _Int, live: bool) -> _Int:
    return b  # the right operand's value and signedness


def _not(_: None, v: _Int, live: bool) -> _Int:
    return _ONE if live and v[0] == 0 else _ZERO


def _plus(_: None, v: _Int, live: bool) -> _Int:
    return v if live else (0, v[1])


def _negate(_: None, v: _Int, live: bool) -> _Int:
    if not live:
        return 0, v[1]
    return (-v[0] & _U64_MASK, True) if v[1] else (_wrap_signed(-v[0]), False)


def _complement(_: None, v: _Int, live: bool) -> _Int:
    if not live:
        return 0, v[1]
    return (~v[0] & _U64_MASK, True) if v[1] else (~v[0], False)


def _choose(arm: tuple[_Int, bool], otherwise: _Int, live: bool) -> _Int:
    """The fold of ?:, given the "?" arm's value and whether it was chosen."""
    then, truth = arm
    unsigned = then[1] or otherwise[1]
    if not live:
        return 0, unsigned
    value = (then if truth else otherwise)[0]
    return (value & _U64_MASK if unsigned else value), unsigned


_FOLDS = {
    ",": _comma, "||": _or, "&&": _and,
    "|": _arithmetic(or_), "^": _arithmetic(xor), "&": _arithmetic(and_),
    "==": _comparison(eq), "!=": _comparison(ne),
    "<": _comparison(lt), ">": _comparison(gt), "<=": _comparison(le), ">=": _comparison(ge),
    "<<": _shift(lshift), ">>": _shift(rshift),
    "+": _arithmetic(add), "-": _arithmetic(sub),
    "*": _arithmetic(mul), "/": _arithmetic(_c_div), "%": _arithmetic(_c_rem),
}
#: What a token read after an operand does: (binding, fold, keep).  It first
#: folds every open construct on the stack that binds at least as tightly;
#: then a binary operator opens its own construct, with its ``fold``, and for
#: && and || the right operand stays live only when the left one's truth is
#: ``keep``.  "?" binds at 2; ")", ":", the end of the expression (None) and
#: any other token bind at 0, and close the construct they end.
_FOLLOWING: dict[str | None, tuple[int, Callable | None, bool | None]] = {
    op: (binding, _FOLDS[op], {"&&": True, "||": False}.get(op))
    for op, binding in _BIN_PRECEDENCE.items()
}
_FOLLOWING["?"] = (2, None, None)
_CLOSING = (0, None, None)
#: What a token read where an operand starts does: a prefix operator opens a
#: construct that binds at 13 and folds with its function; "(" opens one
#: that nothing folds, which ")" closes.  Each construct is ready made, for
#: ``live`` False and True.
_OPENING = {
    tok: ((binding, fold, None, False), (binding, fold, None, True))
    for tok, binding, fold in (
        ("!", 13, _not), ("+", 13, _plus), ("-", 13, _negate), ("~", 13, _complement),
        ("(", -1, ")"),
    )
}


def _evaluate_tokens(tokens: Sequence[str], ints: dict[str, _Int]) -> _Int:
    """Operator-precedence evaluation of expanded tokens.

    Every construct still open sits on ``stack``, innermost last, as
    ``(binding, fold, operand, live)``: an operator's binding power, its
    fold, its first operand, and the ``live`` to restore once it folds.
    Constructs that no operator folds bind at -1 and hold, instead of a
    fold, the token that closes them: ")" for "(", ":" for the "?" arm
    (whose operand is the condition's truth) and None for the whole
    expression.  ``:`` turns a "?" arm into the ``?:`` fold, whose operand
    is the arm's value and truth.  ``ints`` caches each operand token's
    value by its text.
    """
    stack: list[tuple] = [(-1, None, None, True)]
    live = True
    tokens = iter(tokens)
    # An operand: prefix operators and "(" open constructs.
    for tok in tokens:
        value = ints.get(tok)
        if value is None:
            opening = _OPENING.get(tok)
            if opening is not None:
                stack.append(opening[live])
                continue
            value = ints[tok] = _operand(tok)

        # What follows a complete operand, until the next operand starts.
        while True:
            tok = next(tokens, None)
            binding, fold, keep = _FOLLOWING.get(tok, _CLOSING)
            while stack[-1][0] >= binding:
                _, folding, operand, live = stack.pop()
                value = folding(operand, value, live)
            if fold is not None:
                stack.append((binding, fold, value, live))
                if keep is not None:
                    live = live and (value[0] != 0) is keep
                break
            if tok == "?":
                truth = live and value[0] != 0
                stack.append((-1, ":", truth, live))
                live = truth
                break
            _, closer, truth, outer = stack[-1]
            if tok == closer:
                if tok == ")":
                    stack.pop()
                    live = outer
                    continue
                if tok == ":":
                    stack[-1] = (1, _choose, (value, truth), outer)
                    live = outer and not truth
                    break
                return value
            # ``tok`` cannot continue the innermost open construct.
            found = tok if tok is not None else "end of expression"
            if closer is not None:
                raise ExprSyntaxError(f"expected {closer!r}, found {found!r}")
            raise ExprSyntaxError(f"unexpected token {found!r} after expression")
    raise ExprSyntaxError("unexpected end of expression")


def _evaluate(expr: str, lookup: _Lookup, bodies: _Bodies, ints: dict[str, _Int]) -> int:
    tokens, fault = _tokenize(expr)
    if not tokens:
        raise ExprSyntaxError("empty conditional expression")
    expanded = _expand(tokens, lookup, bodies, True)
    if fault is not None:
        # The first problem in reading order is reported: the expander's, if
        # it meets one before it yields the first token at fault.
        _first_odd(expanded)
        raise ExprSyntaxError(f"{fault} in expression")
    return _evaluate_tokens(list(expanded), ints)[0]


def eval_condition(env: MacroEnv, expr: str) -> int:
    """Evaluate a preprocessor constant expression against an environment,
    over GCC's built-in macros; nonzero means the branch is taken."""
    table = env._table

    def lookup(name: str) -> MacroDefinition | None:
        # The environment's definition of a name wins over a built-in one.
        macro = table.get(name)
        return macro if macro is not None else _BUILTINS.get(name)

    return _evaluate(expr, lookup, {}, {})


# --- conditional-compilation branch reports -------------------------------

# Translation phase 3, as -D/-U text goes through it too.
_COMMENT_RE = re.compile(_COMMENT)
# The directive patterns match from the line break before their line, so
# the regex engine skips to the next line break at C speed; the scan puts a
# line break before the first line.  Only conditional directives steer the
# scan; any other line, directive or not, is kept or dropped with its
# region.
_CONDITIONAL_RE = re.compile(
    rf"\n[^\S\n]*#[^\S\n]*(ifdef|ifndef|if|elif|else|endif)(?!{_IDENT_CHAR})[^\S\n]*([^\n]*)"
)
#: A directive line other than a conditional one: its directive name, then
#: the operand, read as a -D/-U argument is read.  Or a line marker: the
#: pp-number after the "#" and the rest of the line.  Or, when the "#" is
#: followed by none of these and not by the end of the line (the null
#: directive), the first token, which GCC names in its error; a line that
#: starts with "##" is text.  A backslash that ends the text is a token, as
#: ``_logical_lines`` has dropped a backslash-newline that ends the file.
_DEFINITION_RE = re.compile(
    rf"\n[^\S\n]*#(?!#)[^\S\n]*(?:(?!L[\"'])({_IDENT}){_DEFINE_OPERAND}"
    rf"|({_PP_NUMBER})([^\n]*)|(?!\n|\Z)({_PP_TOKEN}))"
)
#: The directive names GCC 12.2 knows besides the conditional ones, #define
#: and #undef: lines that name one are kept as text.
_KEPT_DIRECTIVES = frozenset((
    "include", "include_next", "import", "line", "error", "warning", "pragma", "ident", "sccs",
    "assert", "unassert", "elifdef", "elifndef",
))


class BranchArm(NamedTuple):
    kind: str  # "if" | "ifdef" | "ifndef" | "elif" | "else"
    condition: str | None  # None for else
    line: int
    taken: bool | None  # None when the group sits in an inactive region


class ConditionalGroup(NamedTuple):
    arms: tuple[BranchArm, ...]
    start_line: int
    end_line: int
    evaluated: bool


#: Builds a record from a tuple of its fields, past the checks and keyword
#: handling of the record's own ``__new__``.
_new = tuple.__new__


class BranchReport(NamedTuple):
    groups: tuple[ConditionalGroup, ...]
    retained_ranges: tuple[tuple[int, int], ...]  # 1-based inclusive line spans
    retained_text: str


def _logical_lines(source: str) -> tuple[str, Sequence[int]]:
    """Join backslash-newline continuations.

    Returns the logical lines as one text separated by ``\\n`` and their
    physical extents: logical line ``k`` covers physical lines
    ``starts[k]`` to ``starts[k + 1] - 1`` (1-based), so ``starts`` has one
    entry more than there are logical lines.  A backslash ending the last
    line stays when no line break follows it; a backslash-newline that ends
    the source joins its line to nothing and goes, as GCC drops it.
    """
    if not source:
        return "", [1]
    body = source[:-2] if source.endswith("\\\n") else source.removesuffix("\n")
    if "\\\n" not in body:
        return body, range(1, body.count("\n") + 3)
    pieces = body.split("\\\n")
    text = "".join(pieces)
    # extra[k]: physical lines logical line k takes beyond its first.
    extra = [0] * (text.count("\n") + 1)
    k = 0
    for piece in pieces[:-1]:
        k += piece.count("\n")
        extra[k] += 1
    return text, list(map(add, range(1, len(extra) + 2), accumulate(extra, initial=0)))


def _strip_comments(text: str, starts: Sequence[int]) -> tuple[str, Sequence[int]]:
    """Replace each comment in ``text`` (logical lines, from
    :func:`_logical_lines`) with a space, and return the new text and
    extents.  A block comment's line breaks go with it, so the lines it
    spans become one logical line, as a backslash-newline joins them."""
    if "/" not in text:
        return text, starts
    runs: list[Sequence[int]] = []  # the entries of ``starts`` kept, in runs
    k = pos = done = 0  # line at ``pos``; ``runs`` holds ``starts[:done]``

    def replace(m: re.Match) -> str:
        nonlocal k, pos, done
        found = m.group()
        if found[0] != "/":
            return found  # a string or character literal
        if found[1] == "/":
            return ""
        if len(found) == 2:
            line = starts[text.count("\n", 0, m.start())]
            raise ConditionalStructureError("unterminated block comment", line)
        breaks = found.count("\n")
        if breaks:
            k += text.count("\n", pos, m.start())
            runs.append(starts[done : k + 1])
            k += breaks
            done = k + 1
            pos = m.end()
        return " "

    stripped = _COMMENT_RE.sub(replace, text)
    if not runs:
        return stripped, starts
    runs.append(starts[done:])
    return stripped, list(chain.from_iterable(runs))


def _read_definitions(
    table: dict[str, MacroDefinition], bodies: _Bodies, text: str, first: int,
    starts: Sequence[int],
) -> None:
    """Apply the #define and #undef lines of ``text``, an active region of
    the scan's text whose first line break opens logical line ``first``, to
    ``table``.  Operands are read by the grammar of -D/-U words
    (``invocation._DEFINE_OPERAND``), and one that GCC rejects is an error
    with GCC's reason; a #define with no macro name is "malformed
    #define".  A #undef reads its first macro name and ignores the rest of
    the line, as GCC does.  The other directives GCC knows
    (``_KEPT_DIRECTIVES``) are kept as text; any other directive name,
    such as #foo, #if$x or #definex, is an error, as GCC does not know it,
    and so is a "#" followed by a punctuator or a literal, such as "#!x".
    A #line or a line marker ("# 5") that GCC accepts and the null directive
    ("#") are kept as text."""
    for m in _DEFINITION_RE.finditer(text):
        kind, name, params, body, number, marker, token = m.groups()
        define = kind == "define"
        if not define and kind != "undef":
            if kind == "line":
                reason = _line_error(None, text[m.end(1) : m.end()], table, bodies)
            elif kind in _KEPT_DIRECTIVES:
                continue
            elif number is None:
                reason = f"invalid preprocessing directive #{kind or token}"
            else:
                reason = _line_error(number, marker, table, bodies)
            if reason is None:
                continue
            line = starts[first + text.count("\n", 0, m.start())]
            raise ConditionalStructureError(reason, line)
        # Only these lines can hold a fault; most #define lines hold none.
        if name is None or name == "defined" or define and (params or "#" in body):
            reason = "malformed #define" if define and name is None else _operand_error(kind, m)
            if reason is not None:
                line = starts[first + text.count("\n", 0, m.start())]
                raise ConditionalStructureError(reason, line)
        if define:
            body = _function_like(params, body) if params else body.rstrip(" \t\f\v\r")
            table[name] = _new(MacroDefinition, (name, body, SOURCE, bool(params)))
        else:
            table.pop(name, None)


def _line_error(
    number: str | None, operands: str, table: dict[str, MacroDefinition], bodies: _Bodies
) -> str | None:
    """GCC's reason to reject "#line ``operands``" (``number`` None) or the
    line marker "# ``number`` ``operands``", or None.  The number is a digit
    sequence; a file name, if any, is a plain string literal, such as a
    built-in ``__FILE__`` expands to; a line marker's flags, if any, are 1 or 2,
    then 3, then 4, each optional but 4 only after 3, while #line ignores
    what follows its file name.  GCC reads these after macro expansion
    (:func:`_expand`), all but a line marker's number; where the expander
    cannot tell what follows, the line is accepted."""
    tokens = _expand(_tokenize(operands)[0], table.get, bodies, False)
    try:
        if number is None:
            directive, number = "#line", next(tokens, "")
            if not number:
                return "unexpected end of file after #line"
        else:
            directive = "#"
        if not (number.isascii() and number.isdigit()):
            return f'"{number}" after {directive} is not a positive integer'
        name = next(tokens, None)
        if name is None:
            return None
        if not re.fullmatch(_STRING + '"', name):  # a closed plain string literal
            return f'"{name}" is not a valid filename'
        if directive == "#line":
            return None
        allowed = ("1", "2", "3")
        for flag in tokens:
            if flag not in allowed:
                return f'invalid flag "{flag}" in line directive'
            if flag == "4":
                break  # GCC reads no flag after 4, and only warns of more tokens
            allowed = ("4",) if flag == "3" else ("3",)
    except PreprocessorError:
        pass  # the expander cannot tell what follows
    return None


def active_branches(env: MacroEnv, source: str) -> BranchReport:
    """Scan well-formed conditional structure, evaluate conditions in
    active regions, and report taken arms plus the retained line spans
    and their text.

    ``#define``/``#undef`` lines in active regions update a working copy
    of the environment over GCC's built-in macros (provenance "source")
    and are retained, as is any other non-conditional line in an active
    region.  Conditional directive lines themselves are never retained.
    As C11 6.10.1p6 has it, a skipped group is read only for the names of
    its conditional directives: its #define/#undef lines, and the operands
    of its #ifdef/#ifndef, are not read at all.  An active #ifdef/#ifndef
    tests the macro name its operand starts with, as GCC does, which
    ignores (with a warning) any tokens after it.  A NUL is read as white
    space, as GCC reads it ("null character(s) ignored"); retained text
    keeps it.
    """
    groups, retained = _branch_scan(env, source)
    return BranchReport(groups, retained, _retained_text(source, retained))


def _retained_text(source: str, retained: Iterable[tuple[int, int]]) -> str:
    """The physical lines of ``source`` in the ``retained`` spans, each
    ended by a line break."""
    physical = source.split("\n")
    lines = list(chain.from_iterable(physical[start - 1 : end] for start, end in retained))
    return "\n".join(lines) + "\n" if lines else ""


def _branch_scan(
    env: MacroEnv, source: str
) -> tuple[tuple[ConditionalGroup, ...], tuple[tuple[int, int], ...]]:
    """The groups and retained line spans of :func:`active_branches`'s
    report of ``source``, without the retained text, which a caller joins
    (:func:`_retained_text`) only if it uses it."""
    # str.replace returns ``source`` itself, uncopied, when it holds no NUL.
    stripped, starts = _strip_comments(*_logical_lines(source.replace("\0", " ")))
    # The text before the first conditional directive, then for each one its
    # name, its operand and the text up to the next one.
    parts = _CONDITIONAL_RE.split("\n" + stripped)

    table = {**_BUILTINS, **env._table}
    bodies: _Bodies = {}
    ints: dict[str, _Int] = {}
    groups: list[ConditionalGroup | None] = []
    retained: list[tuple[int, int]] = []
    # The innermost open group: its arms, its index in ``groups``, whether it
    # is evaluated (its context was active when it opened), whether one of
    # its arms was taken, and whether its #else was read.  ``frames`` holds
    # the same of each group around it, with ``active`` where it opened.
    arms: list[BranchArm] = []
    index = 0
    evaluated = seen = in_else = False
    frames: list[tuple] = []
    active = True
    k = -1  # the logical line of the directive last read
    for text, kind, rest in zip(parts[::3], parts[1::3], parts[2::3]):
        # ``text`` holds a line break before each of its lines.
        breaks = text.count("\n")
        if active and breaks:
            if "#" in text:
                _read_definitions(table, bodies, text, k + 1, starts)
            retained.append((starts[k + 1], starts[k + breaks + 1] - 1))
        k += breaks + 1
        line = starts[k]

        if kind == "endif":
            if not frames:
                raise ConditionalStructureError("#endif without matching #if", line)
            groups[index] = _new(
                ConditionalGroup, (tuple(arms), arms[0][2], starts[k + 1] - 1, evaluated)
            )
            arms, index, evaluated, seen, in_else, active = frames.pop()
        elif kind == "elif":
            if not frames:
                raise ConditionalStructureError("#elif without matching #if", line)
            if in_else:
                raise ConditionalStructureError("#elif after #else", line)
            rest = rest.rstrip()
            if not evaluated:
                taken = None
            elif seen:
                taken = active = False
            else:
                taken = active = seen = _taken(rest, line, table, bodies, ints)
            arms.append(_new(BranchArm, ("elif", rest, line, taken)))
        elif kind == "else":
            if not frames:
                raise ConditionalStructureError("#else without matching #if", line)
            if in_else:
                raise ConditionalStructureError("duplicate #else", line)
            in_else = True
            if not evaluated:
                taken = None
            else:
                taken = active = not seen
                seen = True
            arms.append(_new(BranchArm, ("else", None, line, taken)))
        else:
            frames.append((arms, index, evaluated, seen, in_else, active))
            index = len(groups)
            groups.append(None)  # filled in at its #endif
            in_else = False
            if not active:
                arms = [_new(BranchArm, (kind, rest.rstrip(), line, None))]
                evaluated = seen = False
                continue
            if kind == "if":
                rest = rest.rstrip()
                taken = _taken(rest, line, table, bodies, ints)
            else:
                operand = _DEFINE_OPERAND_RE.match(rest)
                if operand["name"] is None:
                    raise ConditionalStructureError(_operand_error(kind, operand), line)
                rest = operand["name"]
                taken = (rest in table) == (kind == "ifdef")
            arms = [_new(BranchArm, (kind, rest, line, taken))]
            evaluated = True
            seen = active = taken

    text = parts[-1]
    if active and "#" in text:
        _read_definitions(table, bodies, text, k + 1, starts)
    if frames:
        raise ConditionalStructureError("unterminated conditional", arms[0][2])
    if k + 1 < len(starts) - 1:
        retained.append((starts[k + 1], starts[-1] - 1))
    return tuple(groups), tuple(retained)


def _taken(
    condition: str,
    line: int,
    table: dict[str, MacroDefinition],
    bodies: _Bodies,
    ints: dict[str, _Int],
) -> bool:
    """Whether the #if or #elif ``condition`` on ``line`` holds."""
    try:
        return bool(_evaluate(condition, table.get, bodies, ints))
    except PreprocessorError as exc:
        raise type(exc)(f"line {line}: {exc}") from exc
