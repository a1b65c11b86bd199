"""Compiler command-line parsing and dialect derivation.

Parses an argv list (without the compiler executable itself) plus an
environment mapping into a :class:`CompilerInvocation`: the dialect
selected, macro directives in order, include directories by kind,
source files, and everything else passed through verbatim.  Flags are
applied in order, so later flags win conflicts, matching how real
drivers process their options.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .dialect_model import AnsiMode, DialectConfig
from .profiles import CompilerProfile, ProfileError

_MACRO_NAME_RE = re.compile(r"[A-Za-z_]\w*\Z")
_OPT_LEVEL_RE = re.compile(r"-O[0-9a-zA-Z]+\Z")

# POSIX shell words as shlex.split(s, posix=True) reads them: separated by
# exactly shlex's whitespace " \t\r\n", made of unquoted runs, backslash
# escapes, '...' and "..." (where only \\ and \" unescape).  The last
# alternative matches a quote or backslash where no piece can start, that
# is an unclosed quote or a trailing backslash.
_SHELL_WORD = re.compile(
    r"""(?:[^ \t\r\n'"\\]+|\\.|'[^']*'|"(?:[^"\\]|\\.)*")+|['"\\]""", re.S
)
_QUOTED_PIECE = re.compile(r"\\(.)|'([^']*)'" r'|"((?:[^"\\]|\\.)*)"', re.S)
_DOUBLE_QUOTED_ESCAPE = re.compile(r'\\([\\"])')
_PLAIN_WORD = re.compile(r"[^ \t\r\n]+")

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


@dataclass(frozen=True)
class MacroDirective:
    """One -D or -U occurrence, in command-line order."""

    action: str  # "define" | "undefine"
    name: str
    value: str | None = None  # None for undefine; defines default to "1"


@dataclass(frozen=True)
class IncludeDirs:
    """Include directories by kind, each in command-line order."""

    quote: tuple[str, ...] = ()
    normal: tuple[str, ...] = ()
    system: tuple[str, ...] = ()


@dataclass(frozen=True)
class CompilerInvocation:
    profile: CompilerProfile
    dialect: DialectConfig
    macro_directives: tuple[MacroDirective, ...] = ()
    include_dirs: IncludeDirs = IncludeDirs()
    source_files: tuple[str, ...] = ()
    unrecognized: tuple[str, ...] = ()
    opt_level: str | None = None
    nostdinc: bool = False
    profile_defines: tuple[tuple[str, str], ...] = ()


class _DialectState:
    """Mutable working copy of the dialect while flags are applied."""

    def __init__(self, defaults: DialectConfig):
        self.booleans = {
            f: getattr(defaults, f)
            for f in (
                "char_is_signed",
                "bitfield_is_signed",
                "short_enums",
                "optimized",
                "pointer_width_64",
                "freestanding",
            )
        }
        self.std_class = defaults.std_class
        self.strict = defaults.ansi_mode is AnsiMode.STRICT
        # Strict standards process trigraphs; GNU modes leave them off
        # unless explicitly requested.
        self.trigraphs = defaults.ansi_mode in (AnsiMode.STRICT, AnsiMode.GNU_TRIGRAPHS)

    def apply_std(self, resolved) -> None:
        self.std_class = resolved.std_class
        self.strict = resolved.strict
        # Selecting a standard resets trigraph processing to that
        # standard's default, so a later -std overrides an earlier
        # -trigraphs, as real drivers do.
        self.trigraphs = resolved.strict

    def config(self) -> DialectConfig:
        if self.strict:
            mode = AnsiMode.STRICT
        elif self.trigraphs:
            mode = AnsiMode.GNU_TRIGRAPHS
        else:
            mode = AnsiMode.GNU
        return DialectConfig(std_class=self.std_class, ansi_mode=mode, **self.booleans)


def _unquote(piece: re.Match) -> str:
    escaped, single, double = piece.groups()
    if escaped is not None:
        return escaped
    if single is not None:
        return single
    return _DOUBLE_QUOTED_ESCAPE.sub(r"\1", double)


def split_command(command: str) -> list[str]:
    """Split a command string into words exactly as
    ``shlex.split(command, posix=True)`` does: POSIX quoting and escapes,
    no comments, no expansions.  An unclosed quote or a trailing backslash
    raises shlex's own ``ValueError``."""
    # Most commands quote nothing; their words are the runs between
    # separators, found at about half the cost of the full scan.
    if "'" not in command and '"' not in command and "\\" not in command:
        return _PLAIN_WORD.findall(command)
    words = _SHELL_WORD.findall(command)
    for i, word in enumerate(words):
        if "'" in word or '"' in word or "\\" in word:
            if len(word) == 1:  # the scan stopped: let shlex raise its error
                import shlex

                return shlex.split(command, posix=True)
            words[i] = _QUOTED_PIECE.sub(_unquote, word)
    return words


def _split_env_path(value: str) -> list[str]:
    # An empty element in CPATH-style variables means the current
    # working directory.
    return [p if p else "." for p in value.split(":")] if value else []


def _macro_directive(option: str, text: str) -> MacroDirective:
    if option == "-U":
        if not _MACRO_NAME_RE.match(text):
            raise InvocationError(f"malformed {option} argument: {text!r}")
        return MacroDirective("undefine", text)
    name, eq, value = text.partition("=")
    if not _MACRO_NAME_RE.match(name):
        raise InvocationError(f"malformed {option} argument: {text!r}")
    return MacroDirective("define", name, value if eq else "1")


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
    env = env or {}

    state = _DialectState(profile.defaults)
    directives: list[MacroDirective] = []
    quote_dirs: list[str] = []
    normal_dirs: list[str] = []
    system_dirs: list[str] = []
    sources: list[str] = []
    unrecognized: list[str] = []
    profile_defines: list[tuple[str, str]] = []
    opt_level: str | None = None
    nostdinc = False

    def take_value(option: str, joined: str, i: int) -> tuple[str, int]:
        if joined:
            return joined, i
        if i + 1 >= len(argv):
            raise InvocationError(f"option {option} requires an argument")
        return argv[i + 1], i + 1

    i = 0
    while i < len(argv):
        arg = argv[i]
        if arg == "-" or not arg.startswith("-"):
            sources.append(arg)
        elif arg.startswith("-D") or arg.startswith("-U"):
            option = arg[:2]
            text, i = take_value(option, arg[2:], i)
            directives.append(_macro_directive(option, text))
        elif arg.startswith("-I") and arg != "-I-":
            text, i = take_value("-I", arg[2:], i)
            normal_dirs.append(text)
        elif arg == "-iquote" or arg.startswith("-iquote"):
            text, i = take_value("-iquote", arg[len("-iquote"):], i)
            quote_dirs.append(text)
        elif arg == "-isystem" or arg.startswith("-isystem"):
            text, i = take_value("-isystem", arg[len("-isystem"):], i)
            system_dirs.append(text)
        elif arg.startswith("-std=") or arg.startswith("--std="):
            name = arg.split("=", 1)[1]
            try:
                state.apply_std(profile.resolve_std(name))
            except ProfileError as exc:
                raise InvocationError(str(exc)) from None
        elif arg == "-O0":
            state.booleans["optimized"] = False
            opt_level = arg
        elif arg == "-O" or _OPT_LEVEL_RE.match(arg):
            state.booleans["optimized"] = True
            opt_level = arg
        elif arg in profile.flag_vocabulary:
            effect = profile.flag_vocabulary[arg]
            for f, v in effect.sets:
                state.booleans[f] = v
            if effect.std is not None:
                state.apply_std(profile.resolve_std(effect.std))
            if effect.trigraphs:
                state.trigraphs = True
            if effect.nostdinc:
                nostdinc = True
            profile_defines.extend(effect.defines)
        elif arg in _ARG_TAKING_PASSTHROUGH:
            value, i = take_value(arg, "", i)
            unrecognized.extend([arg, value])
        else:
            unrecognized.append(arg)
        i += 1

    normal_dirs.extend(_split_env_path(env.get("CPATH", "")))
    system_dirs.extend(_split_env_path(env.get("C_INCLUDE_PATH", "")))

    return CompilerInvocation(
        profile=profile,
        dialect=state.config(),
        macro_directives=tuple(directives),
        include_dirs=IncludeDirs(
            quote=tuple(quote_dirs), normal=tuple(normal_dirs), system=tuple(system_dirs)
        ),
        source_files=tuple(sources),
        unrecognized=tuple(unrecognized),
        opt_level=opt_level,
        nostdinc=nostdinc,
        profile_defines=tuple(profile_defines),
    )
