"""Compiler command-line parsing and dialect derivation.

Parses an argv list (without the compiler executable itself) plus an
environment mapping into a :class:`CompilerInvocation`: the dialect
selected, macro directives in order, include directories by kind,
source files, and everything else passed through verbatim.  Flags are
applied in order, so later flags win conflicts, matching how real
drivers process their options.  :func:`_word_effect` is the one reader
of option spellings: it gives each word an effect, looked up in a
:class:`_WordEffects` table that works it out the first time it sees the
word (or the first time it sees a per-TU ``-D`` word's macro name);
compile-database audits share one table across all their entries.
:func:`_dialect_of` folds the effects over argv to derive the dialect
alone, and :func:`parse_invocation` collects what else each word names
by its effect's role: ``"source_files"`` or ``"unrecognized"`` (the word,
and the next word when the effect takes one), a value option (``"-D"``,
``"-U"``, ``"-I"``, ``"-iquote"`` or ``"-isystem"``, whose value is the
rest of the word or the next word), ``"opt"`` (the optimisation level),
the profile's ``FlagEffect``, or None for a ``-std=`` spelling.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

from .dialect_model import (
    ANSI_MODE_WEIGHT,
    BOOLEAN_WEIGHTS,
    STD_CLASS_WEIGHT,
    AnsiMode,
    DialectConfig,
    decode_value,
    encode_config,
)
from .profiles import CompilerProfile, ProfileError, StdName

#: The characters of an identifier after its first, as a class's contents and
#: as a class, and an identifier, as GCC reads them: "$" is one of them.  The one
#: definition of the identifier rule: every pattern or set of its characters reads it.
_IDENT_CHARS = r"\w$"
_IDENT_CHAR = rf"[{_IDENT_CHARS}]"
_IDENT = rf"[A-Za-z_$]{_IDENT_CHAR}*"
#: The one definition of a C string or character literal as GCC reads it, up
#: to its closing quote ({0}): characters other than the quote, a backslash or
#: a line break, and escapes.  Each pattern adds its own ending to the result.
_LITERAL = r"{0}(?:[^{0}\\\n]|\\[^\n])*"
_STRING, _CHAR = _LITERAL.format('"'), _LITERAL.format("'")
#: A preprocessing token (C11 6.4) as GCC spells it in an error, and the one
#: token grammar of -D/-U text here and of macro_env's directive operands and
#: conditions: a plain or "L" string or character literal (an unclosed one
#: runs to the line's end, and takes a backslash that ends the text, as GCC
#: does), a pp-number, an identifier, a punctuator or any other character.
#: "##" is one token.  Digraphs, trigraphs and the "u", "U" and "u8"
#: prefixes are read as plain characters: GCC reads them as more only under
#: some -std= levels, and a word's effect may not depend on a later word.
#: Few operands hold "#" or a parameter list, so here the pattern is
#: compiled (by re's cache) on first use, not on import.
_PP_NUMBER = rf"\.?[0-9](?:[eEpP][-+]|[{_IDENT_CHARS}.])*"
_PP_TOKEN = (
    rf"""L?{_STRING}["\\]?|L?{_CHAR}['\\]?|{_PP_NUMBER}|{_IDENT}"""
    r"|\.\.\.|<<=|>>=|->|\+\+|--|<<|>>|&&|\|\||##|[-+*/%^&|<>=!]=|\S"
)
#: The operand of a #define, as GCC reads it after translation phase 3, and
#: the one grammar of -D/-U text here and of macro_env's #define, #undef,
#: #ifdef and #ifndef lines: white space, the macro name (group "name"),
#: then, when "(" follows the name at once, the parameter list up to its
#: first ")" or to the end of the line (group "params"), then white space
#: and the body up to the first line break (group "body").  The name is an
#: identifier that opens no wide character constant or string literal; one
#: that GCC reads as longer, through a non-ASCII character or a universal
#: character name, is no name.  :func:`_operand_error` checks the rest.
#: Only "\n" ends the line: with [^\n\r] in place of [^\n], the pattern
#: took a sixth longer over the benchmark's headers, so a -D/-U argument
#: has its carriage returns made "\n" first.
_DEFINE_OPERAND = (
    r"[ \t\f\v]*"
    rf"(?:(?!L[\"'])(?P<name>{_IDENT})(?!{_IDENT_CHAR}|\\[uU]|[^\x00-\x7f])"
    r"(?P<params>\([^)\n]*\)?)?)?"
    r"[ \t\f\v]*(?P<body>[^\n]*)"
)
_DEFINE_OPERAND_RE = re.compile(_DEFINE_OPERAND)
#: A string or character literal (kept; it ends at its quote or at the end of
#: its line), a line comment, a block comment, or the "/*" of a block comment
#: never closed: what translation phase 3 reads, in -D/-U text and in the
#: headers that macro_env scans.  Without capturing groups the pattern lets
#: the regex engine skip to the next '"', "'" or "/" at C speed.  Few -D/-U
#: words hold a comment, so here the pattern is compiled (by re's cache) on
#: first use.
_COMMENT = rf"""(?s){_STRING}"?|{_CHAR}'?|//[^\n]*|/\*.*?\*/|/\*"""
_PASTE_AT_AN_END = "'##' cannot appear at either end of a macro expansion"
#: An optimisation level in either GCC spelling, -OLEVEL or --optimize=LEVEL,
#: with an alphanumeric LEVEL.  Group 1 is set for a level GCC reads as 0
#: (decimal or hexadecimal), group 2 for any other level GCC accepts; with
#: neither set, GCC rejects the word.
_OPT_LEVEL_RE = re.compile(
    r"(?:-O|--optimize=)(?:(0+|0[xX]0+)|([0-9]*|0[xX][0-9a-fA-F]+|[gsz]|fast)|[0-9a-zA-Z]+)\Z"
)
#: The options that take a value, joined (``-DX``) or as the next word
#: (``-D X``); ``-I-`` alone is not one of them.
_VALUE_OPTION_RE = re.compile(r"(-D|-U|-I(?!-\Z)|-iquote|-isystem)(.*)\Z", re.S)

# POSIX shell words as shlex.split(s, posix=True) reads them: separated by
# exactly shlex's whitespace " \t\r\n", made of unquoted runs, backslash
# escapes, '...' and "..." (where only \\ and \" unescape).  Written as a
# run followed by (piece run)*, so that a plain word is one run.  Where no
# piece can start, at an unclosed quote or a trailing backslash, it matches
# the empty string.
_SHELL_WORD = re.compile(
    r"""(?=[^ \t\r\n])[^ \t\r\n'"\\]*"""
    r"""(?:(?:\\.|'[^']*'|"[^"\\]*(?:\\.[^"\\]*)*")[^ \t\r\n'"\\]*)*""",
    re.S,
)
_QUOTED_PIECE = re.compile(r"\\(.)|'([^']*)'" r'|"([^"\\]*(?:\\.[^"\\]*)*)"', re.S)
_DOUBLE_QUOTED_ESCAPE = re.compile(r'\\([\\"])')
#: A C replacement for re.sub: the text of group 1.  A template such as
#: r"\1" is expanded in Python for each match.
_FIRST_GROUP = itemgetter(1)

#: Options that consume the following argument but do not affect the
#: dialect; both tokens are preserved in ``unrecognized``.
_ARG_TAKING_PASSTHROUGH = frozenset(
    {
        "-o",
        "-x",
        "-include",
        "-imacros",
        "-idirafter",
        "-iprefix",
        "-iwithprefix",
        "-MF",
        "-MT",
        "-MQ",
        "-Xpreprocessor",
        "-Xassembler",
        "-Xlinker",
        "-T",
        "-e",
        "-z",
        "-u",
        "--param",
        "-aux-info",
    }
)


class InvocationError(ValueError):
    """Malformed or unresolvable command-line input."""


class MacroDirective(NamedTuple):
    """One -D or -U occurrence, in command-line order."""

    action: str  # "define" | "undefine"
    name: str  # a function-like define's name carries its parameter list: "F(x)"
    value: str | None = None  # None for undefine; defines default to "1"


class IncludeDirs(NamedTuple):
    """Include directories by kind, each in command-line order."""

    quote: tuple[str, ...] = ()
    normal: tuple[str, ...] = ()
    system: tuple[str, ...] = ()


class CompilerInvocation(NamedTuple):
    profile: CompilerProfile
    dialect: DialectConfig
    macro_directives: tuple[MacroDirective, ...] = ()
    include_dirs: IncludeDirs = IncludeDirs()
    source_files: tuple[str, ...] = ()
    unrecognized: tuple[str, ...] = ()
    opt_level: str | None = None  # the last word that set "optimized", as written
    nostdinc: bool = False
    profile_defines: tuple[tuple[str, str], ...] = ()


def _unquote(piece: re.Match) -> str:
    escaped, single, double = piece.groups()
    if escaped is not None:
        return escaped
    if single is not None:
        return single
    return _DOUBLE_QUOTED_ESCAPE.sub(_FIRST_GROUP, double)


def split_command(command: str) -> list[str]:
    """Split a command string into words exactly as
    ``shlex.split(command, posix=True)`` does: POSIX quoting and escapes,
    no comments, no expansions.  An unclosed quote or a trailing backslash
    raises shlex's own ``ValueError``."""
    # Most commands are printable ASCII and quote nothing.  Printable ASCII
    # has no separator but the space, so str.split(), whose separators are
    # more than shlex's, splits them the same.
    if (
        "'" not in command
        and '"' not in command
        and "\\" not in command
        and command.isascii()
        and command.isprintable()
    ):
        return command.split()
    words = _SHELL_WORD.findall(command)
    if "" in words:  # the scan stopped: let shlex raise its error
        import shlex

        return shlex.split(command, posix=True)
    for i, word in enumerate(words):
        if "'" in word or '"' in word or "\\" in word:
            single, double = "'" in word, '"' in word
            if (single and double) or "\\" in word:
                words[i] = _QUOTED_PIECE.sub(_unquote, word)
            else:
                # One kind of quote and no backslash: every quote delimits.
                words[i] = word.replace("'" if single else '"', "")
    return words


def _split_env_path(value: str) -> list[str]:
    # An empty element in CPATH-style variables means the current
    # working directory.
    return [p if p else "." for p in value.split(":")] if value else []


def _operand_error(kind: str, operand: re.Match) -> str | None:
    """GCC's reason to reject ``operand``, a match of ``_DEFINE_OPERAND``,
    as the operand of a ``#kind`` directive ("define", "undef", "ifdef" or
    "ifndef"), or None.  As in GCC, the first fault in reading order is the
    one reported: the name, then the parameter list, then the body."""
    name, params, body = operand["name"], operand["params"], operand["body"]
    if name is None:
        if body:
            return "macro names must be identifiers"
        return f"no macro name given in #{kind} directive"
    if name == "defined" and kind in ("define", "undef"):
        return '"defined" cannot be used as a macro name'
    if kind != "define":
        return None
    # The parameter names, and the names that may follow a stringizing "#":
    # "..." alone names __VA_ARGS__, and a variadic macro takes __VA_OPT__.
    names: set[str] = set()
    if params is not None:
        # GCC's parse_params.  ``last`` is the last token: "(", ",", "..."
        # or "x" for a name.
        last = "("
        for token in [*re.findall(_PP_TOKEN, params[1:]), None]:
            if token == ")" and last != ",":
                break
            param = "__VA_ARGS__" if token == "..." else token
            if last == "x" and token in (",", "..."):
                last = token
            elif last in "(," and param and re.fullmatch(_IDENT, param):
                if param in names:
                    return f'duplicate macro parameter "{param}"'
                names.add(param)
                last = "..." if token == "..." else "x"
            elif last == "...":
                return "expected ')' after \"...\""
            elif token is None:
                if last == "x":
                    return "expected ')' before end of line"
                return "expected parameter name before end of line"
            else:
                wanted = "',' or ')'" if last == "x" else "parameter name"
                return f'expected {wanted}, found "{token}"'
        if last == "...":
            names.add("__VA_OPT__")
    tokens = re.findall(_PP_TOKEN, body) if "#" in body else ()
    if tokens[:1] == ["##"]:
        return _PASTE_AT_AN_END
    if params is not None:
        for i, token in enumerate(tokens):
            if token == "#" and (i + 1 == len(tokens) or tokens[i + 1] not in names):
                return "'#' is not followed by a macro parameter"
    if tokens[-1:] == ["##"]:
        return _PASTE_AT_AN_END
    return None


def _without_comments(line: str, option: str, text: str) -> str:
    """``line``, the ``#define`` or ``#undef`` line GCC reads the ``option``
    argument ``text`` as, with each comment replaced by a space, as
    translation phase 3 does.  A block comment may join lines; one never
    closed on the first line is an error, one on a later line is ignored
    with that line, as GCC ignores it."""
    pieces = []
    pos = 0
    for m in re.finditer(_COMMENT, line):
        found = m.group()
        if found[0] != "/":
            continue  # a string or character literal
        pieces.append(line[pos : m.start()])
        if found == "/*":
            if "\n" not in "".join(pieces):
                raise InvocationError(f"malformed {option} argument: {text!r}: unterminated comment")
            pos = len(line)
            break
        pieces.append(" ")
        pos = m.end()
    pieces.append(line[pos:])
    return "".join(pieces)


def _macro_directive(option: str, text: str) -> MacroDirective:
    """The directive of a ``-D`` or ``-U`` argument, or InvocationError.

    Both are read as GCC reads them, by the grammar of ``#define`` operands
    (``_DEFINE_OPERAND``) that ``macro_env`` reads header lines by.  ``-U``
    is read as ``#undef`` and the argument, so ``-U'A B'`` undefines ``A``.
    ``-D`` is read as ``#define`` and the argument with its first "="
    turned into a space, or with " 1" added when it has none.  So ``-DA=2``
    defines ``A`` as ``2``, ``-DF(x)=x+1`` the function-like ``F(x)`` as
    ``x+1``, ``-D'A B'`` ``A`` as ``B 1`` and ``-DF(x)y`` ``F(x)`` as
    ``y 1``.  Comments in that line are replaced by spaces, so
    ``-DA=1/*c*/+2`` defines ``A`` as ``1 +2``, and the body ends at the
    line's first line break.  A line that GCC rejects is an error that
    gives GCC's reason, unless it lacks a macro name."""
    define = option == "-D"
    line = text.replace("\r", "\n")  # GCC ends the line at "\r" too
    if define:
        line = line.replace("=", " ", 1) if "=" in line else line + " 1"
    if "/*" in line or "//" in line:
        line = _without_comments(line, option, text)
    operand = _DEFINE_OPERAND_RE.match(line)
    name, params, body = operand.groups()
    reason = _operand_error("define" if define else "undef", operand)
    if reason is not None:
        detail = "" if name is None else f": {reason}"
        raise InvocationError(f"malformed {option} argument: {text!r}{detail}")
    if not define:
        return MacroDirective("undefine", name)
    return MacroDirective("define", name + (params or ""), body.rstrip(" \t\f\v\r"))


# --- the dialect fold ------------------------------------------------------------
#
# The fold's working state is one int: the six boolean dimensions at their
# BOOLEAN_WEIGHTS, the standard class at STD_CLASS_WEIGHT, then whether the
# standard is strict and whether trigraphs are processed.  Each word's effect
# is (keep, put, then, role): the state becomes ``state & keep | put``, and
# ``then`` is None or (option, reads, error) for a word that raises ``error``
# or takes the next word as the value of ``option``.  Most values are only
# skipped; one is read as a value of ``reads`` ("-D", "-U" or "-std=") when
# that is set.  No value is looked up in the table.  The fold ignores
# ``role``, which only parse_invocation reads.

_DIALECT_BITS = ANSI_MODE_WEIGHT - 1  # the booleans and the class, as encoded
_STRICT = ANSI_MODE_WEIGHT
_TRIGRAPHS = 2 * ANSI_MODE_WEIGHT
_STD_BITS = 3 * STD_CLASS_WEIGHT | _STRICT | _TRIGRAPHS
#: The effect of an inert -D word, which :class:`_WordEffects` shares.
_INERT_DEFINE = (-1, 0, None, "-D")
_INERT = (-1, 0, None, None)  # changes nothing and names nothing


def _setting(effect: tuple, mask: int, bits: int) -> tuple:
    """``effect`` followed by setting the state bits ``mask`` to ``bits``."""
    keep, put, then, role = effect
    return keep & ~mask, put & ~mask | bits, then, role


def _std_bits(std: StdName) -> int:
    """The ``_STD_BITS`` that selecting ``std`` sets.  Selecting a standard
    resets trigraph processing to that standard's default, so a later -std
    overrides an earlier -trigraphs, as real drivers do."""
    return STD_CLASS_WEIGHT * std.std_class | (_STRICT | _TRIGRAPHS if std.strict else 0)


def _value_effect(option: str, value: str, profile: CompilerProfile) -> tuple:
    """The effect of ``option`` with ``value``, joined or separate."""
    try:
        if option == "-std=":
            return _setting(_INERT, _STD_BITS, _std_bits(profile.resolve_std(value)))
        if option == "-D" or option == "-U":
            _macro_directive(option, value)
    except (InvocationError, ProfileError) as exc:
        return -1, 0, (None, None, str(exc)), None
    return -1, 0, None, option


def _word_effect(word: str, profile: CompilerProfile) -> tuple:
    """The effect of ``word`` wherever it stands in argv, unless it is the
    value of the word before it."""
    if word[:1] != "-" or word == "-":
        return -1, 0, None, "source_files"
    # A word's second character rules out most branches before any
    # pattern runs: "-D", "-U", "-I" and "-i" open the value options,
    # "-s" and "--" the -std= spellings, "-O" and "--" the optimisation
    # levels.
    second = word[1]
    if second in "DUIi" and (value_option := _VALUE_OPTION_RE.match(word)):
        option, value = value_option.groups()
        if value:
            return _value_effect(option, value, profile)
        return -1, 0, (option, option if second in "DU" else None, None), option
    if word == "--std":
        return -1, 0, (word, "-std=", None), None
    if second in "s-" and word.startswith(("-std=", "--std=")):
        return _value_effect("-std=", word.split("=", 1)[1], profile)
    if second in "O-" and (level := _OPT_LEVEL_RE.match(word)):
        if level[1] is None and level[2] is None:
            reason = "argument to '-O' should be a non-negative integer, 'g', 's', 'z' or 'fast'"
            return -1, 0, (None, None, f"{word}: {reason}"), None
        weight = BOOLEAN_WEIGHTS["optimized"]
        return _setting((-1, 0, None, "opt"), weight, 0 if level[1] else weight)
    flag = profile.flag_vocabulary.get(word)
    if flag is not None:
        effect = (-1, 0, None, flag)
        for field, on in flag.sets:
            effect = _setting(effect, BOOLEAN_WEIGHTS[field], BOOLEAN_WEIGHTS[field] * on)
        if flag.std is not None:
            effect = _setting(effect, _STD_BITS, _std_bits(profile.resolve_std(flag.std)))
        if flag.trigraphs:
            effect = _setting(effect, _TRIGRAPHS, _TRIGRAPHS)
        return effect
    if word in _ARG_TAKING_PASSTHROUGH:
        return -1, 0, (word, None, None), "unrecognized"
    return -1, 0, None, "unrecognized"


class _WordEffects(dict):
    """Word -> effect under one profile, each computed on first sight.

    An effect never depends on where the word stands, so one table serves
    every argv of a compile database: build systems repeat most words even
    where whole command lines differ.  Per-TU ``-D`` values (file IDs, TU
    names, paths) do not repeat, but a ``-D<head>=<value>`` word whose value
    holds no "#", "/*" or "//" is inert whenever ``-D<head>=`` is: such a
    value adds no "#" or "##" to the body, so it cannot leave one at an end
    or after a "#", and it opens no comment.  So such a word takes its
    head's inert effect, worked out once; any other word, such as one with
    a malformed head or with "#" in its value, is worked out alone, so an
    error names the word itself.  The
    table also interns the dialect of each final state, so each of the at
    most 768 is built once."""

    __slots__ = ("profile", "initial", "dialects")

    def __init__(self, profile: CompilerProfile):
        defaults = profile.defaults
        self.profile = profile
        self.initial = encode_config(defaults) & _DIALECT_BITS
        if defaults.ansi_mode is not AnsiMode.GNU:
            # Strict standards process trigraphs; GNU modes leave them off
            # unless explicitly requested.
            self.initial |= _TRIGRAPHS
        if defaults.ansi_mode is AnsiMode.STRICT:
            self.initial |= _STRICT
        self.dialects: dict[int, DialectConfig] = {}

    def __missing__(self, word: str) -> tuple:
        if word[:2] == "-D":
            head, eq, value = word.partition("=")
            if (
                value
                and "#" not in value
                and "/*" not in value
                and "//" not in value
                and self[head + eq] == _INERT_DEFINE
            ):
                # Kept under the word too, so a repeated word is one lookup.
                self[word] = _INERT_DEFINE
                return _INERT_DEFINE
        effect = self[word] = _word_effect(word, self.profile)
        return effect

    def dialect(self, state: int) -> DialectConfig:
        """The dialect of a final state of the fold."""
        dialect = self.dialects.get(state)
        if dialect is None:
            if state & _STRICT:
                mode = AnsiMode.STRICT
            else:
                mode = AnsiMode.GNU_TRIGRAPHS if state & _TRIGRAPHS else AnsiMode.GNU
            dialect = decode_value(state & _DIALECT_BITS | ANSI_MODE_WEIGHT * mode.value)
            self.dialects[state] = dialect
        return dialect


def _dialect_of(argv: Sequence[str], effects: _WordEffects) -> DialectConfig:
    """The dialect that ``argv`` (without the executable) selects under
    ``effects.profile``.  Words apply in order, so the last one to set a
    dimension wins.  Raises the error :func:`parse_invocation` raises for
    argv: a missing option argument, a malformed ``-D``/``-U`` name or an
    unknown ``-std=``, whichever comes first.  Builds nothing else."""
    state = effects.initial
    words = iter(argv)
    for word in words:
        keep, put, then, _ = effects[word]
        state = state & keep | put
        if then is not None:
            option, reads, error = then
            if error is not None:
                raise InvocationError(error)
            value = next(words, None)
            if value is None:
                raise InvocationError(f"option {option} requires an argument")
            if reads is not None:
                keep, put, then, _ = _value_effect(reads, value, effects.profile)
                if then is not None:
                    raise InvocationError(then[2])
                state = state & keep | put
    return effects.dialect(state)


def parse_invocation(
    argv: Sequence[str],
    env: Mapping[str, str] | None = None,
    profile: CompilerProfile | None = None,
) -> CompilerInvocation:
    """Parse compiler options (excluding the executable name) into an
    invocation.  Unknown flags are preserved, not rejected."""
    if profile is None:
        from .profiles import load_profile

        profile = load_profile()
    # The dialect, and any error in argv, come from _dialect_of; this loop
    # only collects what else each word names, by its effect's role.
    effects = _WordEffects(profile)
    dialect = _dialect_of(argv, effects)
    env = env or {}

    directives: list[MacroDirective] = []
    found: dict[str, list[str]] = {
        "source_files": [], "unrecognized": [], "-iquote": [], "-I": [], "-isystem": []
    }
    profile_defines: list[tuple[str, str]] = []
    opt_level: str | None = None
    nostdinc = False

    words = iter(argv)
    for word in words:
        _, _, then, role = effects[word]
        # The next word, if this one takes it; _dialect_of has checked it is there.
        value = None if then is None else next(words)
        if role == "source_files" or role == "unrecognized":
            found[role] += [word] if value is None else [word, value]
        elif role == "opt":
            opt_level = word
        elif isinstance(role, str):  # a value option, joined or separate
            value = word[len(role) :] if value is None else value
            if role in found:
                found[role].append(value)
            else:
                directives.append(_macro_directive(role, value))
        elif role is not None:  # a profile flag
            nostdinc = nostdinc or role.nostdinc
            profile_defines.extend(role.defines)
            if any(field == "optimized" for field, _ in role.sets):
                opt_level = word

    if env:
        found["-I"].extend(_split_env_path(env.get("CPATH", "")))
        found["-isystem"].extend(_split_env_path(env.get("C_INCLUDE_PATH", "")))

    return CompilerInvocation(
        profile=profile,
        dialect=dialect,
        macro_directives=tuple(directives),
        include_dirs=IncludeDirs(
            tuple(found["-iquote"]), tuple(found["-I"]), tuple(found["-isystem"])
        ),
        source_files=tuple(found["source_files"]),
        unrecognized=tuple(found["unrecognized"]),
        opt_level=opt_level,
        nostdinc=nostdinc,
        profile_defines=tuple(profile_defines),
    )
