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
from .invocation import CompilerInvocation, MacroDirective
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

_TOKEN_RE = re.compile(
    r"""\s+
      | (?P<num>\.?[0-9](?:[0-9a-zA-Z_.]|[eEpP][+-])*)
      | (?P<ident>[A-Za-z_]\w*)
      | (?P<punct><<|>>|<=|>=|==|!=|&&|\|\||[+\-*/%&|^~!<>()?:])
    """,
    re.VERBOSE,
)

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

_Token = tuple[str, str]
_Lookup = Callable[[str], MacroDefinition | None]


def _tokenize(text: str, context: str = "expression") -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            ch = text[pos]
            if ch in "\"'":
                raise ExprSyntaxError(
                    f"string and character constants are not supported in {context}"
                )
            raise ExprSyntaxError(f"unexpected character {ch!r} in {context}")
        pos = m.end()
        kind = m.lastgroup
        if kind is not None:
            tokens.append((kind, m.group(kind)))
    return tokens


def _read_defined(tokens: Sequence[_Token], i: int) -> tuple[str, int]:
    if i < len(tokens) and tokens[i] == ("punct", "("):
        if i + 2 < len(tokens) and tokens[i + 1][0] == "ident" and tokens[i + 2] == ("punct", ")"):
            return tokens[i + 1][1], i + 3
        raise ExprSyntaxError("expected defined(NAME)")
    if i < len(tokens) and tokens[i][0] == "ident":
        return tokens[i][1], i + 1
    raise ExprSyntaxError("expected a macro name after 'defined'")


def _expand_tokens(
    tokens: Sequence[_Token], lookup: _Lookup, bodies: dict[str, list[_Token]]
) -> list[_Token]:
    """Replace ``defined`` operators and object-like macros.  A macro's
    name is hidden while its own body is read, so self-reference stops.
    ``bodies`` caches each body's tokens by its text."""
    out: list[_Token] = []
    hidden: set[str] = set()
    # Token lists whose reading an expansion interrupted, innermost last,
    # with the macro each one is the body of (None for the condition).
    suspended: list[tuple[Sequence[_Token], int, str | None]] = []
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
        if tok[0] != "ident":
            out.append(tok)
            continue
        text = tok[1]
        if text == "defined":
            defined_name, i = _read_defined(toks, i)
            out.append(("num", "1" if lookup(defined_name) is not None else "0"))
            continue
        macro = lookup(text)
        if macro is None or text in hidden:
            out.append(tok)
            continue
        if macro.function_like:
            if i < len(toks) and toks[i] == ("punct", "("):
                raise UnsupportedMacroError(
                    f"function-like macro {text!r} invoked in a condition"
                )
            out.append(tok)  # name without arguments is not expanded
            continue
        body = bodies.get(macro.body)
        if body is None:
            body = bodies[macro.body] = _tokenize(
                macro.body, context=f"body of macro {text!r}"
            )
        budget -= len(body)
        if budget < 0:
            raise ExprEvalError(
                f"macro expansion exceeds {MAX_EXPANSION_TOKENS} tokens"
            )
        suspended.append((toks, i, name))
        hidden.add(text)
        toks, i, name = body, 0, text


class _Value(NamedTuple):
    value: int  # canonical: [0, 2^64) when unsigned, [-2^63, 2^63) when signed
    unsigned: bool



def _wrap_signed(v: int) -> int:
    return ((v - _INT64_MIN) & _U64_MASK) + _INT64_MIN


def _parse_int(text: str) -> _Value:
    m = _INT_RE.match(text)
    if m is None:
        raise ExprSyntaxError(f"invalid integer constant {text!r}")
    value = int(m.group("hex") or m.group("oct") or m.group("dec"),
                16 if m.group("hex") else 8 if m.group("oct") else 10)
    if value > _U64_MASK:
        raise ExprEvalError(f"integer constant {text!r} does not fit in 64 bits")
    suffix = m.group("suffix") or ""
    # Unsuffixed constants above the signed maximum are treated as
    # unsigned, matching common compiler practice.
    unsigned = "u" in suffix.lower() or value > _INT64_MAX
    return _Value(value, unsigned)


def _c_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _c_rem(a: int, b: int) -> int:
    return a - _c_div(a, b) * b


_COMPARISONS = {"<": lt, ">": gt, "<=": le, ">=": ge, "==": eq, "!=": ne}
_ARITHMETIC = {
    "+": add, "-": sub, "*": mul, "/": _c_div, "%": _c_rem, "&": and_, "^": xor, "|": or_,
}


def _apply_unary(op: str, operand: _Value, live: bool) -> _Value:
    if op == "!":
        return _Value(int(operand.value == 0) if live else 0, False)
    if not live:
        return _Value(0, operand.unsigned)
    if op == "+":
        return operand
    raw = -operand.value if op == "-" else ~operand.value
    value = raw & _U64_MASK if operand.unsigned else _wrap_signed(raw)
    return _Value(value, operand.unsigned)


def _apply_binary(op: str, a: _Value, b: _Value, live: bool) -> _Value:
    if op in ("&&", "||"):
        if not live:
            return _Value(0, False)
        if op == "&&":
            return _Value(int(a.value != 0 and b.value != 0), False)
        return _Value(int(a.value != 0 or b.value != 0), False)

    if op in _COMPARISONS:
        if not live:
            return _Value(0, False)
        unsigned = a.unsigned or b.unsigned
        av = a.value & _U64_MASK if unsigned else a.value
        bv = b.value & _U64_MASK if unsigned else b.value
        return _Value(int(_COMPARISONS[op](av, bv)), False)

    if op in ("<<", ">>"):
        # Shift result takes the promoted left operand's type.
        if not live:
            return _Value(0, a.unsigned)
        count = b.value & _U64_MASK if b.unsigned else b.value
        if count < 0 or count >= 64:
            raise ExprEvalError(f"shift count {count} out of range 0..63")
        raw = a.value << count if op == "<<" else a.value >> count
        return _Value(raw & _U64_MASK if a.unsigned else _wrap_signed(raw), a.unsigned)

    unsigned = a.unsigned or b.unsigned
    if not live:
        return _Value(0, unsigned)
    av = a.value & _U64_MASK if unsigned else a.value
    bv = b.value & _U64_MASK if unsigned else b.value
    if op in ("/", "%") and bv == 0:
        raise ExprEvalError("division by zero in conditional expression")
    raw = _ARITHMETIC[op](av, bv)
    return _Value(raw & _U64_MASK if unsigned else _wrap_signed(raw), unsigned)


def _apply_conditional(then: _Value, otherwise: _Value, truth: bool, live: bool) -> _Value:
    unsigned = then.unsigned or otherwise.unsigned
    if not live:
        return _Value(0, unsigned)
    chosen = then if truth else otherwise
    return _Value(chosen.value & _U64_MASK if unsigned else chosen.value, unsigned)


# Kinds of pending construct on the evaluator's stack.
_PAREN, _PREFIX, _BINARY, _THEN, _ELSE = range(5)


def _evaluate_tokens(tokens: Sequence[_Token]) -> _Value:
    """Operator-precedence evaluation of expanded tokens.

    Every construct still open sits on ``stack``, innermost last:
    ``(PAREN, live)``, ``(PREFIX, op)``, ``(BINARY, precedence, op, left,
    live)``, ``(THEN, live, truth)`` while the ``?`` arm is read and
    ``(ELSE, live, truth, then)`` while the ``:`` arm is read.  ``live`` is
    False inside the unevaluated operand of && || ?:, where only result
    signedness is tracked and no arithmetic errors can occur.
    """
    stack: list[tuple] = []
    live = True
    pos = 0
    n = len(tokens)
    while True:
        # An operand: prefix operators and "(" open constructs.
        if pos == n:
            raise ExprSyntaxError("unexpected end of expression")
        kind, text = tokens[pos]
        pos += 1
        if kind == "num":
            value = _parse_int(text)
        elif kind == "ident":
            # Identifiers surviving macro expansion evaluate to 0.
            value = _Value(0, False)
        elif text in ("!", "-", "+", "~"):
            stack.append((_PREFIX, text))
            continue
        elif text == "(":
            stack.append((_PAREN, live))
            continue
        else:
            raise ExprSyntaxError(f"unexpected token {text!r}")

        # What follows a complete operand, until the next operand starts.
        while True:
            while stack and stack[-1][0] == _PREFIX:
                value = _apply_unary(stack.pop()[1], value, live)
            tok = tokens[pos] if pos < n else None
            prec = _BIN_PRECEDENCE.get(tok[1]) if tok and tok[0] == "punct" else None
            # Binary operators are left-associative.
            while stack and stack[-1][0] == _BINARY and (prec is None or stack[-1][1] >= prec):
                _, _, op, left, live = stack.pop()
                value = _apply_binary(op, left, value, live)
            if prec is not None:
                op = tok[1]
                pos += 1
                stack.append((_BINARY, prec, op, value, live))
                if op == "&&":
                    live = live and value.value != 0
                elif op == "||":
                    live = live and value.value == 0
                break
            if tok == ("punct", "?"):
                pos += 1
                truth = live and value.value != 0
                stack.append((_THEN, live, truth))
                live = truth
                break
            while stack and stack[-1][0] == _ELSE:
                _, live, truth, then = stack.pop()
                value = _apply_conditional(then, value, truth, live)
            top = stack[-1][0] if stack else None
            if top == _THEN and tok == ("punct", ":"):
                pos += 1
                _, live, truth = stack.pop()
                stack.append((_ELSE, live, truth, value))
                live = live and not truth
                break
            if top == _PAREN and tok == ("punct", ")"):
                pos += 1
                live = stack.pop()[1]
                continue
            if top is None and tok is None:
                return value
            # ``tok`` cannot continue the innermost open construct.
            found = tok[1] if tok else "end of expression"
            if top == _THEN:
                raise ExprSyntaxError(f"expected ':', found {found!r}")
            if top == _PAREN:
                raise ExprSyntaxError(f"expected ')', found {found!r}")
            raise ExprSyntaxError(f"unexpected token {found!r} after expression")


def _evaluate(expr: str, lookup: _Lookup, bodies: dict[str, list[_Token]]) -> int:
    tokens = _tokenize(expr)
    if not tokens:
        raise ExprSyntaxError("empty conditional expression")
    return _evaluate_tokens(_expand_tokens(tokens, lookup, bodies)).value


def eval_condition(env: MacroEnv, expr: str) -> int:
    """Evaluate a preprocessor constant expression against an
    environment; nonzero means the branch is taken."""
    return _evaluate(expr, env.lookup, {})


# --- conditional-compilation branch reports -------------------------------

# A string or character literal (kept; it ends at its quote or at the end of
# its line), a line comment, a block comment, or the "/*" of a block comment
# never closed.  Without capturing groups the pattern lets the regex engine
# skip to the next '"', "'" or "/" at C speed.
_COMMENT_RE = re.compile(
    r"""  "(?:[^"\\\n]|\\[^\n])*"?
        | '(?:[^'\\\n]|\\[^\n])*'?
        | //[^\n]*
        | /\*.*?\*/
        | /\*
    """,
    re.S | re.X,
)

# The directives that steer the scan; any other line, directive or not, is
# kept or dropped with its region.
_DIRECTIVE_RE = re.compile(
    r"^[^\S\n]*#[^\S\n]*(ifdef|ifndef|if|elif|else|endif|define|undef)(?!\w)"
    r"[^\S\n]*([^\n]*)",
    re.M,
)
_DEFINE_RE = re.compile(r"([A-Za-z_]\w*)(\(?)(.*)\Z", re.S)


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


class _Frame:
    """One open conditional group while the scan is inside it."""

    __slots__ = ("arms", "start_line", "evaluated", "taken_seen", "in_else", "active")

    def __init__(self, arms: list[BranchArm], start_line: int, evaluated: bool):
        self.arms = arms
        self.start_line = start_line
        self.evaluated = evaluated  # context was active when the group opened
        self.taken_seen = False
        self.in_else = False
        self.active = False


def _begin_arm(
    frame: _Frame,
    kind: str,
    condition: str | None,
    line: int,
    table: dict[str, MacroDefinition],
    bodies: dict[str, list[_Token]],
) -> None:
    if not frame.evaluated:
        taken: bool | None = None
        frame.active = False
    elif frame.taken_seen:
        taken = False
        frame.active = False
    else:
        if kind == "else":
            taken = True
        elif kind == "ifdef":
            taken = condition in table
        elif kind == "ifndef":
            taken = condition not in table
        else:  # if / elif
            try:
                taken = bool(_evaluate(condition or "", table.get, bodies))
            except ConditionalStructureError:
                raise
            except PreprocessorError as exc:
                raise type(exc)(f"line {line}: {exc}") from exc
        frame.active = taken
        if taken:
            frame.taken_seen = True
    frame.arms.append(BranchArm(kind, condition, line, taken))


def _require_name(rest: str, kind: str, line: int) -> str:
    m = re.match(r"([A-Za-z_]\w*)\s*\Z", rest)
    if m is None:
        raise ConditionalStructureError(f"#{kind} needs a single macro name", line)
    return m.group(1)


def active_branches(env: MacroEnv, source: str) -> BranchReport:
    """Scan well-formed conditional structure, evaluate conditions in
    active regions, and report taken arms plus the retained line spans.

    ``#define``/``#undef`` lines in active regions update a working copy
    of the environment (provenance "source") and are retained, as is any
    other non-conditional line in an active region.  Conditional
    directive lines themselves are never retained.
    """
    stripped, starts = _strip_comments(*_logical_lines(source))

    table = dict(env._table)
    bodies: dict[str, list[_Token]] = {}
    frames: list[_Frame] = []
    groups: list[ConditionalGroup] = []
    retained: list[tuple[int, int]] = []
    active = True
    # Logical lines from ``pending`` up to the next conditional directive
    # share one state: retained when ``active``.
    pending = 0
    k = 0  # logical line of the directive matched
    pos = 0
    for m in _DIRECTIVE_RE.finditer(stripped):
        k += stripped.count("\n", pos, m.start())
        pos = m.start()
        kind, rest = m.groups()
        rest = rest.rstrip()
        line = starts[k]
        if kind == "define" or kind == "undef":
            if not active:
                continue
            if kind == "undef":
                table.pop(_require_name(rest, "undef", line), None)
                continue
            dm = _DEFINE_RE.match(rest)
            if dm is None:
                raise ConditionalStructureError("malformed #define", line)
            name, paren, body = dm.groups()
            table[name] = MacroDefinition(
                name,
                (paren + body).strip() if paren else body.strip(),
                SOURCE,
                function_like=bool(paren),
            )
            continue

        if active and pending < k:
            retained.append((starts[pending], line - 1))
        pending = k + 1
        if kind in ("if", "ifdef", "ifndef"):
            frame = _Frame(arms=[], start_line=line, evaluated=active)
            frames.append(frame)
            condition = _require_name(rest, kind, line) if kind != "if" else rest
            _begin_arm(frame, kind, condition, line, table, bodies)
        elif kind == "elif":
            if not frames:
                raise ConditionalStructureError("#elif without matching #if", line)
            if frames[-1].in_else:
                raise ConditionalStructureError("#elif after #else", line)
            _begin_arm(frames[-1], "elif", rest, line, table, bodies)
        elif kind == "else":
            if not frames:
                raise ConditionalStructureError("#else without matching #if", line)
            if frames[-1].in_else:
                raise ConditionalStructureError("duplicate #else", line)
            frames[-1].in_else = True
            _begin_arm(frames[-1], "else", None, line, table, bodies)
        else:  # endif
            if not frames:
                raise ConditionalStructureError("#endif without matching #if", line)
            frame = frames.pop()
            groups.append(
                ConditionalGroup(
                    arms=tuple(frame.arms),
                    start_line=frame.start_line,
                    end_line=starts[k + 1] - 1,
                    evaluated=frame.evaluated,
                )
            )
        active = frames[-1].active if frames else True

    if frames:
        raise ConditionalStructureError(
            "unterminated conditional", frames[-1].start_line
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
