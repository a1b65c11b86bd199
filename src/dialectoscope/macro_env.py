"""Predefined macro tables, conditional-expression evaluation, and
conditional-compilation branch reports.

The evaluator implements preprocessor constant expressions over 64-bit
two's-complement arithmetic: integer literals with suffixes, ``defined``,
object-like macro expansion, the unary and binary integer operators,
``?:``, and parentheses.  Identifiers left after expansion evaluate to 0.
Function-like macros may be defined in an environment, but invoking one
inside a condition raises :class:`UnsupportedMacroError` rather than
returning a wrong answer.

Expansion and evaluation keep their state on explicit stacks, so nesting
depth is limited only by memory; expansion stops with
:class:`ExprEvalError` once it has taken :data:`MAX_EXPANSION_TOKENS`
tokens from macro bodies, which bounds the memory and time of bodies
that multiply (``#define A B B``, ``#define B C C``, ...).
"""

from __future__ import annotations

import re
from itertools import accumulate, chain
from operator import add, and_, eq, ge, gt, le, lt, mul, ne, or_, sub, xor
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .dialect_model import AnsiMode, DialectConfig
from .invocation import _COMMENT, _DEFINE_OPERAND, _DEFINE_OPERAND_RE, _IDENT, _IDENT_CHAR
from .invocation import CompilerInvocation, MacroDirective, _operand_error
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
    """A function-like macro was invoked inside a condition."""


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

    @classmethod
    def empty(cls) -> "MacroEnv":
        return cls()

    def lookup(self, name: str) -> MacroDefinition | None:
        return self._table.get(name)

    def defined(self, name: str) -> bool:
        return name in self._table

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
    version = profile.stdc_version(config.std_class)
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


def _apply(
    table: dict[str, MacroDefinition], directives: Iterable[MacroDirective], provenance: str
) -> MacroEnv:
    for d in directives:
        if d.action == "define":
            value = d.value if d.value is not None else "1"
            name, paren, params = d.name.partition("(")
            if paren:
                # -D'F(x)=x+1' means "#define F(x) x+1": the body is stored
                # as a source #define stores it.
                table[name] = MacroDefinition(
                    name, f"({params} {value}".strip(), provenance, function_like=True
                )
            else:
                table[name] = MacroDefinition(name, value, provenance)
        elif d.action == "undefine":
            table.pop(d.name, None)
        else:
            raise ValueError(f"unknown directive action {d.action!r}")
    return MacroEnv._owning(table)


def apply_directives(
    env: MacroEnv, directives: Iterable[MacroDirective], provenance: str = COMMAND_LINE
) -> MacroEnv:
    """Apply -D/-U style directives in order; define overwrites,
    undefine removes, undefining an absent name is a no-op."""
    return _apply(dict(env._table), directives, provenance)


def invocation_macro_env(inv: CompilerInvocation) -> MacroEnv:
    """Full macro environment of an invocation: dialect-predefined
    macros, option-conditional profile macros, then -D/-U in order."""
    table = predefined_macros(inv.dialect, inv.profile)._table
    for name, value in inv.profile_defines:
        table[name] = MacroDefinition(name, value, PREDEFINED)
    return _apply(table, inv.macro_directives, COMMAND_LINE)


# --- conditional expression evaluation -----------------------------------

_U64_MASK = (1 << 64) - 1
_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

#: Most tokens the macro expansion of one condition may take from macro
#: bodies; past it evaluation raises ExprEvalError.
MAX_EXPANSION_TOKENS = 1 << 20

#: A preprocessing token of a condition: a pp-number, an identifier ("$" is
#: an identifier character, as in GCC) or an operator.
_TOKEN = (
    r"\.?[0-9](?:[0-9a-zA-Z_.$]|[eEpP][+-])*"
    rf"|{_IDENT}"
    r"|<<|>>|<=|>=|==|!=|&&|\|\||[+\-*/%&|^~!<>()?:]"
)
#: Each match is a token, or, from the first character that starts none, the
#: rest of the text; only the last match can be that rest.
_TOKEN_RE = re.compile(rf"\s*({_TOKEN}|\S.*)", re.S)
_WHOLE_TOKEN_RE = re.compile(_TOKEN)

_INT_RE = re.compile(
    r"(?:(?P<hex>0[xX][0-9a-fA-F]+)|(?P<oct>0[0-7]*)|(?P<dec>[1-9][0-9]*))"
    r"(?P<suffix>[uU](?:l|ll|L|LL)?|(?:l|ll|L|LL)[uU]?)?\Z"
)

_BIN_PRECEDENCE = {
    "||": 1, "&&": 2,
    "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, ">": 7, "<=": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}
_PREFIX_OPS = frozenset("!-+~")
#: The characters an identifier starts with, as ``_IDENT`` has them.
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_$")

_Lookup = Callable[[str], MacroDefinition | None]
#: A value as (value, unsigned): ``value`` is canonical, in [0, 2^64) when
#: unsigned and in [-2^63, 2^63) when signed.
_Int = tuple[int, bool]
_ZERO = (0, False)
_ONE = (1, False)


def _tokenize(text: str, macro: str | None = None) -> list[str]:
    """The tokens of a condition, or of the body of ``macro``."""
    tokens = _TOKEN_RE.findall(text)
    if tokens and not _WHOLE_TOKEN_RE.fullmatch(tokens[-1]):
        ch = tokens[-1][0]
        context = "expression" if macro is None else f"body of macro {macro!r}"
        if ch in "\"'":
            raise ExprSyntaxError(
                f"string and character constants are not supported in {context}"
            )
        raise ExprSyntaxError(f"unexpected character {ch!r} in {context}")
    return tokens


def _read_defined(tokens: Sequence[str], i: int) -> tuple[str, int]:
    if i < len(tokens) and tokens[i] == "(":
        if i + 2 < len(tokens) and tokens[i + 1][0] in _IDENT_START and tokens[i + 2] == ")":
            return tokens[i + 1], i + 3
        raise ExprSyntaxError("expected defined(NAME)")
    if i < len(tokens) and tokens[i][0] in _IDENT_START:
        return tokens[i], i + 1
    raise ExprSyntaxError("expected a macro name after 'defined'")


def _expand_tokens(
    tokens: Sequence[str], lookup: _Lookup, bodies: dict[str, list[str]]
) -> list[str]:
    """Replace ``defined`` operators and object-like macros.  A macro's
    name is hidden while its own body is read, so self-reference stops.
    ``bodies`` caches each body's tokens by its text.  Only identifiers
    name macros, so every token is looked up as it is."""
    out: list[str] = []
    hidden: set[str] = set()
    # Token lists whose reading an expansion interrupted, innermost last,
    # with the macro each one is the body of (None for the condition).
    suspended: list[tuple[Sequence[str], int, str | None]] = []
    toks, i, name = tokens, 0, None
    budget = MAX_EXPANSION_TOKENS
    while True:
        if i == len(toks):
            if not suspended:
                return out
            hidden.discard(name)
            toks, i, name = suspended.pop()
            continue
        tok = toks[i]
        i += 1
        if tok == "defined":
            defined_name, i = _read_defined(toks, i)
            out.append("1" if lookup(defined_name) is not None else "0")
            continue
        macro = lookup(tok)
        if macro is None or tok in hidden:
            out.append(tok)
            continue
        if macro.function_like:
            if i < len(toks) and toks[i] == "(":
                raise UnsupportedMacroError(
                    f"function-like macro {tok!r} invoked in a condition"
                )
            out.append(tok)  # name without arguments is not expanded
            continue
        body = bodies.get(macro.body)
        if body is None:
            body = bodies[macro.body] = _tokenize(macro.body, tok)
        budget -= len(body)
        if budget < 0:
            raise ExprEvalError(
                f"macro expansion exceeds {MAX_EXPANSION_TOKENS} tokens"
            )
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
    if tok[0] not in "0123456789.":
        raise ExprSyntaxError(f"unexpected token {tok!r}")
    m = _INT_RE.match(tok)
    if m is None:
        raise ExprSyntaxError(f"invalid integer constant {tok!r}")
    value = int(m.group("hex") or m.group("oct") or m.group("dec"),
                16 if m.group("hex") else 8 if m.group("oct") else 10)
    if value > _U64_MASK:
        raise ExprEvalError(f"integer constant {tok!r} does not fit in 64 bits")
    suffix = m.group("suffix") or ""
    # Unsuffixed constants above the signed maximum are treated as
    # unsigned, matching common compiler practice.
    return value, "u" in suffix.lower() or value > _INT64_MAX


def _c_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _c_rem(a: int, b: int) -> int:
    return a - _c_div(a, b) * b


_COMPARISONS = {"<": lt, ">": gt, "<=": le, ">=": ge, "==": eq, "!=": ne}
_ARITHMETIC = {
    "+": add, "-": sub, "*": mul, "/": _c_div, "%": _c_rem, "&": and_, "^": xor, "|": or_,
}


def _apply_unary(op: str, operand: _Int, live: bool) -> _Int:
    value, unsigned = operand
    if op == "!":
        return (int(value == 0) if live else 0), False
    if not live:
        return 0, unsigned
    if op == "+":
        return operand
    raw = -value if op == "-" else ~value
    return (raw & _U64_MASK if unsigned else _wrap_signed(raw)), unsigned


def _apply_binary(op: str, a: _Int, b: _Int, live: bool) -> _Int:
    av, au = a
    bv, bu = b
    if op == "&&" or op == "||":
        if not live:
            return _ZERO
        if op == "&&":
            return _ONE if av != 0 and bv != 0 else _ZERO
        return _ONE if av != 0 or bv != 0 else _ZERO

    compare = _COMPARISONS.get(op)
    if compare is not None:
        if not live:
            return _ZERO
        if au or bu:
            return _ONE if compare(av & _U64_MASK, bv & _U64_MASK) else _ZERO
        return _ONE if compare(av, bv) else _ZERO

    if op == "<<" or op == ">>":
        # Shift result takes the promoted left operand's type.
        if not live:
            return 0, au
        count = bv & _U64_MASK if bu else bv
        if count < 0 or count >= 64:
            raise ExprEvalError(f"shift count {count} out of range 0..63")
        raw = av << count if op == "<<" else av >> count
        return (raw & _U64_MASK if au else _wrap_signed(raw)), au

    unsigned = au or bu
    if not live:
        return 0, unsigned
    if unsigned:
        av &= _U64_MASK
        bv &= _U64_MASK
    if bv == 0 and (op == "/" or op == "%"):
        raise ExprEvalError("division by zero in conditional expression")
    raw = _ARITHMETIC[op](av, bv)
    return (raw & _U64_MASK if unsigned else _wrap_signed(raw)), unsigned


def _apply_conditional(then: _Int, otherwise: _Int, truth: bool, live: bool) -> _Int:
    unsigned = then[1] or otherwise[1]
    if not live:
        return 0, unsigned
    value = (then if truth else otherwise)[0]
    return (value & _U64_MASK if unsigned else value), unsigned


# Kinds of pending construct on the evaluator's stack.
_PAREN, _PREFIX, _BINARY, _THEN, _ELSE = range(5)


def _evaluate_tokens(tokens: Sequence[str], ints: dict[str, _Int]) -> _Int:
    """Operator-precedence evaluation of expanded tokens.

    Every construct still open sits on ``stack``, innermost last:
    ``(PAREN, live)``, ``(PREFIX, op)``, ``(BINARY, precedence, op, left,
    live)``, ``(THEN, live, truth)`` while the ``?`` arm is read and
    ``(ELSE, live, truth, then)`` while the ``:`` arm is read.  ``live`` is
    False inside the unevaluated operand of && || ?:, where only result
    signedness is tracked and no arithmetic errors can occur.  ``ints``
    caches each operand token's value by its text.
    """
    stack: list[tuple] = []
    live = True
    pos = 0
    n = len(tokens)
    while True:
        # An operand: prefix operators and "(" open constructs.
        if pos == n:
            raise ExprSyntaxError("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        value = ints.get(tok)
        if value is None:
            if tok in _PREFIX_OPS:
                stack.append((_PREFIX, tok))
                continue
            if tok == "(":
                stack.append((_PAREN, live))
                continue
            value = ints[tok] = _operand(tok)

        # What follows a complete operand, until the next operand starts.
        while True:
            while stack and stack[-1][0] == _PREFIX:
                value = _apply_unary(stack.pop()[1], value, live)
            tok = tokens[pos] if pos < n else None
            prec = _BIN_PRECEDENCE.get(tok)
            # Binary operators are left-associative.
            while stack and stack[-1][0] == _BINARY and (prec is None or stack[-1][1] >= prec):
                _, _, op, left, live = stack.pop()
                value = _apply_binary(op, left, value, live)
            if prec is not None:
                pos += 1
                stack.append((_BINARY, prec, tok, value, live))
                if tok == "&&":
                    live = live and value[0] != 0
                elif tok == "||":
                    live = live and value[0] == 0
                break
            if tok == "?":
                pos += 1
                truth = live and value[0] != 0
                stack.append((_THEN, live, truth))
                live = truth
                break
            while stack and stack[-1][0] == _ELSE:
                _, live, truth, then = stack.pop()
                value = _apply_conditional(then, value, truth, live)
            top = stack[-1][0] if stack else None
            if top == _THEN and tok == ":":
                pos += 1
                _, live, truth = stack.pop()
                stack.append((_ELSE, live, truth, value))
                live = live and not truth
                break
            if top == _PAREN and tok == ")":
                pos += 1
                live = stack.pop()[1]
                continue
            if top is None and tok is None:
                return value
            # ``tok`` cannot continue the innermost open construct.
            found = tok if tok is not None else "end of expression"
            if top == _THEN:
                raise ExprSyntaxError(f"expected ':', found {found!r}")
            if top == _PAREN:
                raise ExprSyntaxError(f"expected ')', found {found!r}")
            raise ExprSyntaxError(f"unexpected token {found!r} after expression")


def _evaluate(
    expr: str, lookup: _Lookup, bodies: dict[str, list[str]], ints: dict[str, _Int]
) -> int:
    tokens = _tokenize(expr)
    if not tokens:
        raise ExprSyntaxError("empty conditional expression")
    return _evaluate_tokens(_expand_tokens(tokens, lookup, bodies), ints)[0]


def eval_condition(env: MacroEnv, expr: str) -> int:
    """Evaluate a preprocessor constant expression against an
    environment; nonzero means the branch is taken."""
    return _evaluate(expr, env.lookup, {}, {})


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
#: A preprocessing token as GCC spells it in an error: a plain or "L"
#: string or character literal (an unclosed one runs to the line's end), a
#: pp-number, an identifier, a punctuator or any other character.  "##" is
#: one token.  Digraphs are read as plain characters.
_PP_NUMBER = r"\.?[0-9](?:[eEpP][-+]|[\w$.])*"
_PP_TOKEN = (
    r"""L?"(?:[^"\\\n]|\\[^\n])*"?|L?'(?:[^'\\\n]|\\[^\n])*'?"""
    rf"|{_PP_NUMBER}|{_IDENT}|\.\.\.|<<=|>>=|->|\+\+|--|<<|>>|&&|\|\||##|[-+*/%^&|<>=!]=|\S"
)
#: A directive line other than a conditional one: its directive name, then
#: the operand, read as a -D/-U argument is read.  Or a line marker: the
#: pp-number after the "#" and the rest of the line.  Or, when the "#" is
#: followed by none of these and not by the end of the line (the null
#: directive), the first token, which GCC names in its error; a line that
#: starts with "##" is text.  GCC drops a backslash-newline that ends the
#: file, so a backslash that ends the text ends the line too.
_DEFINITION_RE = re.compile(
    rf"\n[^\S\n]*#(?!#)[^\S\n]*(?:(?!L[\"'])({_IDENT}){_DEFINE_OPERAND}"
    rf"|({_PP_NUMBER})([^\n]*?)\\?(?![^\n])|(?!\n|\\?\Z)({_PP_TOKEN}))"
)
#: The directive names GCC 12.2 knows besides the conditional ones, #define
#: and #undef: lines that name one are kept as text.
_KEPT_DIRECTIVES = frozenset((
    "include", "include_next", "import", "line", "error", "warning", "pragma", "ident", "sccs",
    "assert", "unassert", "elifdef", "elifndef",
))
#: GCC's built-in macros that expand to a string literal, which a line
#: marker may give as its file name.
_STRING_BUILTINS = frozenset((
    "__FILE__", "__FILE_NAME__", "__BASE_FILE__", "__DATE__", "__TIME__", "__TIMESTAMP__",
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
    line stays.
    """
    if not source:
        return "", [1]
    body = source[:-1] if source.endswith("\n") else source
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
    table: dict[str, MacroDefinition], text: str, start: int, end: int, starts: Sequence[int]
) -> None:
    """Apply the #define and #undef lines of ``text[start:end]``, an active
    region of the scan's text, to ``table``.  Operands are read by the
    grammar of -D/-U words (``invocation._DEFINE_OPERAND``), and one that
    GCC rejects is an error with GCC's reason; a #define with no macro name
    is "malformed #define".  A #undef reads its first macro name and
    ignores the rest of the line, as GCC does.  The other directives GCC
    knows (``_KEPT_DIRECTIVES``) are kept as text; any other directive name,
    such as #foo, #if$x or #definex, is an error, as GCC does not know it,
    and so is a "#" followed by a punctuator or a literal, such as "#!x".
    A line marker ("# 5") that GCC accepts and the null directive ("#") are
    kept as text."""
    for m in _DEFINITION_RE.finditer(text, start, end):
        kind, name, params, body, number, marker, token = m.groups()
        define = kind == "define"
        if not define and kind != "undef":
            if kind in _KEPT_DIRECTIVES:
                continue
            if number is None:
                reason = f"invalid preprocessing directive #{kind or token}"
            elif (reason := _line_marker_error(number, marker, table)) is None:
                continue
            line = starts[text.count("\n", 0, m.start())]
            raise ConditionalStructureError(reason, line)
        # Only these lines can hold a fault; most #define lines hold none.
        if name is None or name == "defined" or define and (params or "#" in body):
            reason = "malformed #define" if define and name is None else _operand_error(kind, m)
            if reason is not None:
                line = starts[text.count("\n", 0, m.start())]
                raise ConditionalStructureError(reason, line)
        if define:
            # A function-like body is held after its parameter list, as _apply
            # holds a -D one.
            body = (f"{params} {body}" if params else body).rstrip(" \t\f\v\r")
            table[name] = MacroDefinition(name, body, SOURCE, bool(params))
        else:
            table.pop(name, None)


def _line_marker_error(
    number: str, operands: str, table: dict[str, MacroDefinition]
) -> str | None:
    """GCC's reason to reject the line marker "# ``number`` ``operands``",
    or None.  The number is a digit sequence; a file name, if any, is a
    plain string literal; flags, if any, are 1 or 2, then 3, then 4, each
    optional but 4 only after 3.  GCC expands macros in the file name, so
    an object-like macro, or a built-in one that expands to a string, is
    taken for a string here."""
    if not (number.isascii() and number.isdigit()):
        return f'"{number}" after # is not a positive integer'
    tokens = re.findall(_PP_TOKEN, operands)  # compiled on first use, not at import
    if not tokens:
        return None
    name, macro = tokens[0], table.get(tokens[0])
    if not (
        name in _STRING_BUILTINS
        or macro is not None and not macro.function_like
        or re.fullmatch(r'"(?:[^"\\\n]|\\[^\n])*"', name)
    ):
        return f'"{name}" is not a valid filename'
    allowed = ("1", "2", "3")
    for flag in tokens[1:]:
        if flag not in allowed:
            return f'invalid flag "{flag}" in line directive'
        if flag == "4":
            break  # GCC reads no flag after 4, and only warns of more tokens
        allowed = ("4",) if flag == "3" else ("3",)
    return None


def active_branches(env: MacroEnv, source: str) -> BranchReport:
    """Scan well-formed conditional structure, evaluate conditions in
    active regions, and report taken arms plus the retained line spans.

    ``#define``/``#undef`` lines in active regions update a working copy
    of the environment (provenance "source") and are retained, as is any
    other non-conditional line in an active region.  Conditional
    directive lines themselves are never retained.  As C11 6.10.1p6 has
    it, a skipped group is read only for the names of its conditional
    directives: its #define/#undef lines, and the operands of its
    #ifdef/#ifndef, are not read at all.  An active #ifdef/#ifndef tests
    the macro name its operand starts with, as GCC does, which ignores
    (with a warning) any tokens after it.  A NUL is read as white space, as
    GCC reads it ("null character(s) ignored"); retained text keeps it.
    """
    # str.replace returns ``source`` itself, uncopied, when it holds no NUL.
    stripped, starts = _strip_comments(*_logical_lines(source.replace("\0", " ")))
    text = "\n" + stripped

    table = dict(env._table)
    bodies: dict[str, list[str]] = {}
    ints: dict[str, _Int] = {}
    # Each open group: [arms, start_line, evaluated (its context was active
    # when it opened), taken_seen, in_else, active].
    frames: list[list] = []
    groups: list[ConditionalGroup] = []
    retained: list[tuple[int, int]] = []
    active = True
    # Logical lines from ``pending`` up to the next conditional directive
    # share one state: retained when ``active``.
    pending = 0
    k = 0  # logical line of the directive matched
    pos = 0  # where the line break before line ``k`` stands in ``text``
    unread = 0  # where the text not yet read for #define/#undef starts
    for m in _CONDITIONAL_RE.finditer(text):
        start = m.start()
        if active and unread < start:
            _read_definitions(table, text, unread, start, starts)
        unread = m.end()
        k += text.count("\n", pos, start)
        pos = start
        kind, rest = m.groups()
        line = starts[k]
        if active and pending < k:
            retained.append((starts[pending], line - 1))
        pending = k + 1

        if kind == "endif":
            if not frames:
                raise ConditionalStructureError("#endif without matching #if", line)
            arms, start_line, evaluated = frames.pop()[:3]
            groups.append(ConditionalGroup(tuple(arms), start_line, starts[k + 1] - 1, evaluated))
        elif kind == "else":
            if not frames:
                raise ConditionalStructureError("#else without matching #if", line)
            frame = frames[-1]
            if frame[4]:
                raise ConditionalStructureError("duplicate #else", line)
            frame[4] = True
            if not frame[2]:
                taken = None
            else:
                taken = frame[5] = not frame[3]
                frame[3] = True
            frame[0].append(BranchArm("else", None, line, taken))
        elif kind == "elif":
            if not frames:
                raise ConditionalStructureError("#elif without matching #if", line)
            frame = frames[-1]
            if frame[4]:
                raise ConditionalStructureError("#elif after #else", line)
            rest = rest.rstrip()
            if not frame[2]:
                taken = None
            elif frame[3]:
                taken = frame[5] = False
            else:
                taken = frame[5] = frame[3] = _taken(rest, line, table, bodies, ints)
            frame[0].append(BranchArm("elif", rest, line, taken))
        elif not active:
            arm = BranchArm(kind, rest.rstrip(), line, None)
            frames.append([[arm], line, False, False, False, False])
        else:
            if kind == "if":
                rest = rest.rstrip()
                taken = _taken(rest, line, table, bodies, ints)
            else:
                operand = _DEFINE_OPERAND_RE.match(rest)
                if operand["name"] is None:
                    raise ConditionalStructureError(_operand_error(kind, operand), line)
                rest = operand["name"]
                taken = (rest in table) == (kind == "ifdef")
            frames.append([[BranchArm(kind, rest, line, taken)], line, True, taken, False, taken])
        active = frames[-1][5] if frames else True

    if active and unread < len(text):
        _read_definitions(table, text, unread, len(text), starts)
    if frames:
        raise ConditionalStructureError(
            "unterminated conditional", frames[-1][1]
        )
    if pending < len(starts) - 1:
        retained.append((starts[pending], starts[-1] - 1))

    groups.sort(key=lambda g: g.start_line)
    physical = source.split("\n")
    lines_out: list[str] = []
    for start, end in retained:
        lines_out.extend(physical[start - 1 : end])
    retained_text = "\n".join(lines_out) + "\n" if lines_out else ""
    return BranchReport(
        groups=tuple(groups),
        retained_ranges=tuple(retained),
        retained_text=retained_text,
    )


def _taken(
    condition: str,
    line: int,
    table: dict[str, MacroDefinition],
    bodies: dict[str, list[str]],
    ints: dict[str, _Int],
) -> bool:
    """Whether the #if or #elif ``condition`` on ``line`` holds."""
    try:
        return bool(_evaluate(condition, table.get, bodies, ints))
    except PreprocessorError as exc:
        raise type(exc)(f"line {line}: {exc}") from exc
