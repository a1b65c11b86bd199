"""Compiler command-line parsing and dialect derivation.

Parses an argv list (without the compiler executable itself) plus an
environment mapping into a :class:`CompilerInvocation`: the dialect
selected, macro directives in order, include directories by kind,
source files, and everything else passed through verbatim.  Flags are
applied in order, so later flags win conflicts, matching how real
drivers process their options.  Those rules live in :func:`_dialect_of`,
which derives the dialect alone; compile-database audits call it
directly.
"""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Iterator, Mapping, NamedTuple, Sequence

from .dialect_model import BOOLEAN_WEIGHTS, AnsiMode, DialectConfig
from .profiles import CompilerProfile, ProfileError, StdName

_MACRO_NAME_RE = re.compile(r"[A-Za-z_]\w*\Z")
_OPT_LEVEL_RE = re.compile(r"-O[0-9a-zA-Z]*\Z")
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
    name: str
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
    opt_level: str | None = None
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


def _macro_name(option: str, text: str) -> str:
    """The macro name of a ``-D`` or ``-U`` argument, or InvocationError."""
    name = text.partition("=")[0] if option == "-D" else text
    if not _MACRO_NAME_RE.match(name):
        raise InvocationError(f"malformed {option} argument: {text!r}")
    return name


def _macro_directive(option: str, text: str) -> MacroDirective:
    name = _macro_name(option, text)
    if option == "-U":
        return MacroDirective("undefine", name)
    _, eq, value = text.partition("=")
    return MacroDirective("define", name, value if eq else "1")


def _next_word(option: str, words: Iterator[str]) -> str:
    word = next(words, None)
    if word is None:
        raise InvocationError(f"option {option} requires an argument")
    return word


def _dialect_key(argv: Sequence[str]) -> tuple[str, ...]:
    """``argv`` with every word that does not start with ``-`` blanked to
    ``""``, except a word directly after an exact ``-D`` or ``-U``.

    :func:`_dialect_of` looks inside such a word only when it is the
    separate value of ``-D`` or ``-U``; a source, an include directory or a
    pass-through value is only skipped.  So the dialect it derives and any
    error text it raises are functions of the key, and argv with equal keys
    can share one derivation."""
    key = [word if word[:1] == "-" else "" for word in argv]
    if "-D" in key or "-U" in key:
        for i in range(1, len(key)):
            if argv[i - 1] == "-D" or argv[i - 1] == "-U":
                key[i] = argv[i]
    return tuple(key)


def _dialect_of(argv: Sequence[str], profile: CompilerProfile) -> DialectConfig:
    """The dialect that ``argv`` (without the executable) selects under
    ``profile``.  Flags apply in order, so the last one to set a dimension
    wins.  Raises the error :func:`parse_invocation` raises for argv: a
    missing option argument, a malformed ``-D``/``-U`` name or an unknown
    ``-std=``, whichever comes first.  Builds nothing else."""
    defaults = profile.defaults
    # The boolean dimensions lead DialectConfig's fields, in BOOLEAN_WEIGHTS order.
    booleans = dict(zip(BOOLEAN_WEIGHTS, defaults))
    std = StdName(defaults.std_class, defaults.ansi_mode is AnsiMode.STRICT)
    # Strict standards process trigraphs; GNU modes leave them off unless
    # explicitly requested.
    trigraphs = defaults.ansi_mode is not AnsiMode.GNU

    vocabulary = profile.flag_vocabulary
    words = iter(argv)
    for arg in words:
        if arg == "-" or not arg.startswith("-"):
            continue
        # A word's second character rules out most branches before any
        # pattern runs: "-D", "-U", "-I" and "-i" open the value options,
        # "-s" and "--" the -std= spellings, "-O" the optimisation levels.
        second = arg[1]
        if second in "DUIi" and (value_option := _VALUE_OPTION_RE.match(arg)):
            option, value = value_option.groups()
            value = value or _next_word(option, words)
            if second in "DU":
                _macro_name(option, value)
        elif second in "s-" and arg.startswith(("-std=", "--std=")):
            try:
                std = profile.resolve_std(arg.split("=", 1)[1])
            except ProfileError as exc:
                raise InvocationError(str(exc)) from None
            # Selecting a standard resets trigraph processing to that
            # standard's default, so a later -std overrides an earlier
            # -trigraphs, as real drivers do.
            trigraphs = std.strict
        elif second == "O" and _OPT_LEVEL_RE.match(arg):
            booleans["optimized"] = arg != "-O0"
        elif (effect := vocabulary.get(arg)) is not None:
            booleans.update(effect.sets)
            if effect.std is not None:
                std = profile.resolve_std(effect.std)
                trigraphs = std.strict
            trigraphs = trigraphs or effect.trigraphs
        elif arg in _ARG_TAKING_PASSTHROUGH:
            _next_word(arg, words)

    if std.strict:
        mode = AnsiMode.STRICT
    else:
        mode = AnsiMode.GNU_TRIGRAPHS if trigraphs else AnsiMode.GNU
    return DialectConfig(*booleans.values(), std.std_class, mode)


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
    # only collects what else each word names.
    dialect = _dialect_of(argv, profile)
    env = env or {}

    directives: list[MacroDirective] = []
    dirs: dict[str, list[str]] = {"-iquote": [], "-I": [], "-isystem": []}
    sources: list[str] = []
    unrecognized: list[str] = []
    profile_defines: list[tuple[str, str]] = []
    opt_level: str | None = None
    nostdinc = False

    vocabulary = profile.flag_vocabulary
    words = iter(argv)
    for arg in words:
        if arg == "-" or not arg.startswith("-"):
            sources.append(arg)
            continue
        second = arg[1]
        if second in "DUIi" and (value_option := _VALUE_OPTION_RE.match(arg)):
            option, value = value_option.groups()
            value = value or next(words)
            if option in dirs:
                dirs[option].append(value)
            else:
                directives.append(_macro_directive(option, value))
        elif second in "s-" and arg.startswith(("-std=", "--std=")):
            continue
        elif second == "O" and _OPT_LEVEL_RE.match(arg):
            opt_level = arg
        elif (effect := vocabulary.get(arg)) is not None:
            nostdinc = nostdinc or effect.nostdinc
            profile_defines.extend(effect.defines)
        elif arg in _ARG_TAKING_PASSTHROUGH:
            unrecognized.extend([arg, next(words)])
        else:
            unrecognized.append(arg)

    if env:
        dirs["-I"].extend(_split_env_path(env.get("CPATH", "")))
        dirs["-isystem"].extend(_split_env_path(env.get("C_INCLUDE_PATH", "")))

    return CompilerInvocation(
        profile=profile,
        dialect=dialect,
        macro_directives=tuple(directives),
        include_dirs=IncludeDirs(
            quote=tuple(dirs["-iquote"]),
            normal=tuple(dirs["-I"]),
            system=tuple(dirs["-isystem"]),
        ),
        source_files=tuple(sources),
        unrecognized=tuple(unrecognized),
        opt_level=opt_level,
        nostdinc=nostdinc,
        profile_defines=tuple(profile_defines),
    )
