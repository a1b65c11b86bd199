"""Command-line parsing, last-wins semantics, and the flag round trip."""

import re
import shlex
import string

import pytest
from hypothesis import given, settings, strategies as st

from dialectoscope import (
    AnsiMode,
    CompilerInvocation,
    DialectConfig,
    IncludeDirs,
    InvocationError,
    MacroDirective,
    ProfileError,
    all_configs,
    canonical_flags,
    encode_config,
    load_profile,
    parse_invocation,
)
from dialectoscope.invocation import (
    _ARG_TAKING_PASSTHROUGH,
    _INERT,
    _dialect_of,
    _WordEffects,
    _macro_directive,
    _split_env_path,
    _word_effect,
    split_command,
)


def parse(flags, profile, env=None):
    argv = flags.split() if isinstance(flags, str) else list(flags)
    return parse_invocation(argv, env=env or {}, profile=profile)


def test_freestanding_gnu17(profile):
    inv = parse("-fsigned-char -fsigned-bitfields -O2 -m64 -ffreestanding -std=gnu17", profile)
    assert encode_config(inv.dialect) == 443


def test_defaults_encode_403(profile):
    inv = parse("", profile)
    assert encode_config(inv.dialect) == 403
    assert inv.dialect == profile.defaults


def test_round_trip_all_768(profile):
    for config in all_configs():
        inv = parse(canonical_flags(config, profile), profile)
        assert inv.dialect == config


def test_last_wins_char_flags(profile):
    inv = parse("-funsigned-char -fsigned-char", profile)
    assert inv.dialect.char_is_signed
    inv = parse("-fsigned-char -funsigned-char", profile)
    assert not inv.dialect.char_is_signed


_CONFLICT_FLAGS = {
    "-fsigned-char": ("char_is_signed", True),
    "-funsigned-char": ("char_is_signed", False),
    "-fsigned-bitfields": ("bitfield_is_signed", True),
    "-funsigned-bitfields": ("bitfield_is_signed", False),
    "-fshort-enums": ("short_enums", True),
    "-fno-short-enums": ("short_enums", False),
    "-m32": ("pointer_width_64", False),
    "-m64": ("pointer_width_64", True),
    "-fhosted": ("freestanding", False),
    "-ffreestanding": ("freestanding", True),
    "-O2": ("optimized", True),
    "-O0": ("optimized", False),
}


@given(
    st.lists(st.sampled_from(sorted(_CONFLICT_FLAGS)), max_size=8),
    st.sampled_from(sorted(_CONFLICT_FLAGS)),
)
def test_last_wins_property(prefix, final):
    from dialectoscope import load_profile

    profile = load_profile()
    inv = parse(prefix + [final], profile)
    field, expected = _CONFLICT_FLAGS[final]
    assert getattr(inv.dialect, field) == expected


def test_ansi_alias(profile):
    inv = parse("-ansi", profile)
    assert inv.dialect.std_class == 3
    assert inv.dialect.ansi_mode is AnsiMode.STRICT


@pytest.mark.parametrize(
    "flag,expect",
    [("-O", True), ("-O1", True), ("-O2", True), ("-O3", True),
     ("-Os", True), ("-Og", True), ("-Oz", True), ("-Ofast", True), ("-O0", False),
     ("-O99", True), ("-O01", True), ("-O0x1f", True), ("-O0X2", True)],
)
def test_optimization_levels(profile, flag, expect):
    inv = parse(flag, profile)
    assert inv.dialect.optimized is expect
    assert inv.opt_level == flag


@pytest.mark.parametrize(
    "flag", ["-Ox", "-O0x", "-O1a", "-Ogg", "-Ofas", "--optimize=x", "--optimize=0x"]
)
def test_optimization_levels_gcc_rejects_are_input_errors(profile, flag):
    # GCC 12.2 stops with this reason for each of these words.
    reason = "argument to '-O' should be a non-negative integer, 'g', 's', 'z' or 'fast'"
    with pytest.raises(InvocationError) as raised:
        parse(f"-O2 {flag} -O0", profile)
    assert str(raised.value) == f"{flag}: {reason}"


@pytest.mark.parametrize("flag", ["-O-", "-O+1"])
def test_optimization_words_with_a_non_alphanumeric_level_stay_inert(profile, flag):
    inv = parse(f"-O2 {flag}", profile)
    assert inv.dialect.optimized and inv.opt_level == "-O2"
    assert inv.unrecognized == (flag,)


def test_optimization_last_wins(profile):
    assert not parse("-O2 -O0", profile).dialect.optimized
    assert parse("-O0 -O2", profile).dialect.optimized


@pytest.mark.parametrize(
    "argv,optimized,opt_level",
    [("--optimize=2", True, "--optimize=2"), ("--optimize=s", True, "--optimize=s"),
     ("--optimize=", True, "--optimize="), ("--optimize=0", False, "--optimize=0"),
     ("-O2 --optimize=0", False, "--optimize=0"), ("-O2 --optimize", True, "--optimize"),
     ("--optimize -O0", False, "-O0"), ("-O00", False, "-O00"), ("-O0x0", False, "-O0x0"),
     ("-O2 -Wall", True, "-O2")],
)
def test_opt_level_is_the_last_word_to_set_optimized(profile, argv, optimized, opt_level):
    inv = parse(argv, profile)
    assert inv.dialect.optimized is optimized
    assert inv.opt_level == opt_level


def test_std_resets_trigraphs(profile):
    # A later -std=gnu* returns trigraph processing to that standard's
    # default, discarding an earlier -trigraphs.
    inv = parse("-trigraphs -std=gnu11", profile)
    assert inv.dialect.ansi_mode is AnsiMode.GNU
    inv = parse("-std=gnu11 -trigraphs", profile)
    assert inv.dialect.ansi_mode is AnsiMode.GNU_TRIGRAPHS


def test_trigraphs_with_strict_std_stays_strict(profile):
    inv = parse("-std=c11 -trigraphs", profile)
    assert inv.dialect.ansi_mode is AnsiMode.STRICT
    assert encode_config(inv.dialect) == encode_config(parse("-std=c11", profile).dialect)


def test_unknown_std_names_profile(profile):
    with pytest.raises(InvocationError) as err:
        parse("-std=c2x", profile)
    assert "gcc8-x86_64" in str(err.value)
    assert "c2x" in str(err.value)


def test_macro_directives_order_and_forms(profile):
    inv = parse(["-DA=1", "-D", "B=2", "-DC", "-UA", "-U", "B"], profile)
    actions = [(d.action, d.name, d.value) for d in inv.macro_directives]
    assert actions == [
        ("define", "A", "1"),
        ("define", "B", "2"),
        ("define", "C", "1"),
        ("undefine", "A", None),
        ("undefine", "B", None),
    ]


def test_malformed_define_rejected(profile):
    with pytest.raises(InvocationError):
        parse(["-D9x=1"], profile)
    with pytest.raises(InvocationError, match="malformed -D argument"):
        parse(['-DL"x"'], profile)
    with pytest.raises(InvocationError):
        parse(["-U"], profile)


def test_define_text_is_read_as_gcc_reads_it(profile):
    # GCC defines "NAME BODY" from -D, its first "=" made a space, or with
    # " 1" added when it has no "=".
    # The body loses the white space GCC strips, and keeps a no-break space.
    inv = parse(["-DF(x)y", "-DF (x)=1", "-DA B", "-D", "B C=D", "-DE+1", "-D G", "-DH =",
                 "-DI=\tx \xa0 "], profile)
    assert [(d.name, d.value) for d in inv.macro_directives] == [
        ("F(x)", "y 1"), ("F", "(x) 1"), ("A", "B 1"), ("B", "C D"), ("E", "+1 1"),
        ("G", "1"), ("H", ""), ("I", "x \xa0"),
    ]


def test_function_like_defines(profile):
    inv = parse(["-DF(x)=x+1", "-DG(a, ...)", "-D", "H()=0", "-DV(...)=__VA_ARGS__"], profile)
    assert [(d.name, d.value) for d in inv.macro_directives] == [
        ("F(x)", "x+1"), ("G(a, ...)", "1"), ("H()", "0"), ("V(...)", "__VA_ARGS__"),
    ]


@pytest.mark.parametrize(
    "word, reason",
    [
        ("-DA=##", "'##' cannot appear at either end of a macro expansion"),
        ("-DA ##", "'##' cannot appear at either end of a macro expansion"),
        ("-DF(x)=x##", "'##' cannot appear at either end of a macro expansion"),
        ("-DF(x)=#y", "'#' is not followed by a macro parameter"),
        ("-DF(x)=# ## x", "'#' is not followed by a macro parameter"),
        ("-DF(x,x)=1", 'duplicate macro parameter "x"'),
        ("-DF(x", "expected ',' or ')', found \"1\""),
        ("-DA(", 'expected parameter name, found "1"'),
        ("-DF(x,)", 'expected parameter name, found ")"'),
        ("-DF(...,x)", "expected ')' after \"...\""),
        ("-Ddefined", '"defined" cannot be used as a macro name'),
        ("-Udefined=1", '"defined" cannot be used as a macro name'),
    ],
)
def test_define_body_gcc_rejects_gives_gccs_reason(profile, word, reason):
    with pytest.raises(InvocationError) as err:
        parse([word], profile)
    assert str(err.value) == f"malformed {word[:2]} argument: {word[2:]!r}: {reason}"


def test_define_body_checks_read_tokens_as_gcc_does(profile):
    # A "#" in a literal or a comment is no operator, a comment is white
    # space (and goes from the body GCC defines), and the body ends at its
    # first line break.
    inv = parse(['-DA="##"', "-DB='#'", "-DC=x//##", "-DD=x\n##", '-DF(x)="#"y'], profile)
    assert [d.value for d in inv.macro_directives] == ['"##"', "'#'", "x", "x", '"#"y']
    for word in ["-DA=/**/##", "-DA=##x\ny", "-DF(L)=#L\"a\"", "-DF(x...)=#__VA_ARGS__"]:
        with pytest.raises(InvocationError, match="malformed -D argument"):
            parse([word], profile)


#: Heads and value text for -D words, with the characters that decide how
#: GCC reads a body: "#", quotes, comment delimiters and line breaks.
_DEFINE_HEADS = st.sampled_from(
    ["-DID", "-DF(x)", "-DV(...)", "-D9x", "-DA B", "-DA ##", "-DA x##", "-DF(x)#",
     "-DA /*", '-DA "', "-D"]
)
_DEFINE_TEXT = st.lists(
    st.sampled_from(list("x1 #\"'/*\n()=L$") + ["/*", "*/", "//"]), max_size=6
).map("".join)


@settings(max_examples=300)
@given(st.lists(st.tuples(_DEFINE_HEADS | _DEFINE_TEXT.map("-D".__add__), _DEFINE_TEXT)))
def test_word_effects_table_equals_each_word_alone(heads_and_values):
    # The table shares a head's effect among -D words whose values hold no
    # "#", "/*" or "//"; every word must still have the effect it has alone.
    profile = _PROFILES["gcc8-x86_64"]
    effects = _WordEffects(profile)
    for head, value in heads_and_values:
        word = f"{head}={value}"
        assert effects[word] == _word_effect(word, profile)


def test_define_comments_and_dollar_names_are_read_as_gcc_reads_them(profile):
    # A comment in the "#define" line a -D word makes is a space, and "$"
    # is an identifier character.
    inv = parse(["-DA=1//x", "-DB=1/*c*/+2", "-DC=x\t/*c\n*/ ", "-DA$B=3", "-UA$B", "-D$"], profile)
    assert inv.macro_directives == (
        MacroDirective("define", "A", "1"),
        MacroDirective("define", "B", "1 +2"),
        MacroDirective("define", "C", "x"),
        MacroDirective("define", "A$B", "3"),
        MacroDirective("undefine", "A$B"),
        MacroDirective("define", "$", "1"),
    )
    with pytest.raises(InvocationError) as err:
        parse(["-DA=x/*"], profile)
    assert str(err.value) == "malformed -D argument: 'A=x/*': unterminated comment"
    # A value that opens a comment has an effect of its own, not its head's.
    effects = _WordEffects(profile)
    assert effects["-DID=1"] == effects["-DID=x//y"] == _INERT
    assert effects["-DID=x/*"] == _word_effect("-DID=x/*", profile) != _INERT


@pytest.mark.parametrize(
    "argv",
    [["-DF(1)"], ["-DF(x,x)=1"], ["-DF(x"], ["-DF(x,)"], ["-D9x"], ["-D=1"],
     ["-U9x"], ["-U", "(x)"]],
)
def test_other_define_shapes_stay_malformed(profile, argv):
    with pytest.raises(InvocationError, match="malformed -[DU] argument"):
        parse(argv, profile)


def test_undef_reads_the_first_macro_name(profile):
    # -U is read as "#undef" and its text, as GCC reads it: the first macro
    # name counts and the rest is ignored.
    inv = parse(["-UF(x)", "-U", "F()", "-UA B", "-U/**/C", "-U D=1"], profile)
    assert [d.name for d in inv.macro_directives] == ["F", "F", "A", "C", "D"]


def test_separate_std_value(profile):
    inv = parse(["--std", "c99", "a.c"], profile)
    assert (inv.dialect.std_class, inv.dialect.ansi_mode) == (1, AnsiMode.STRICT)
    assert inv.source_files == ("a.c",) and inv.unrecognized == ()
    with pytest.raises(InvocationError, match="option --std requires an argument"):
        parse(["--std"], profile)
    with pytest.raises(InvocationError) as separate:
        parse(["--std", "c2x"], profile)
    with pytest.raises(InvocationError) as joined:
        parse(["-std=c2x"], profile)
    assert str(separate.value) == str(joined.value)


def test_include_dir_order(profile):
    inv = parse(["-Ix", "-I", "y", "-iquote", "q", "-isystem", "s", "-Iz"], profile)
    assert inv.include_dirs.normal == ("x", "y", "z")
    assert inv.include_dirs.quote == ("q",)
    assert inv.include_dirs.system == ("s",)


def test_env_include_paths(profile):
    inv = parse("-Ia", profile, env={"CPATH": "p::q", "C_INCLUDE_PATH": "r"})
    assert inv.include_dirs.normal == ("a", "p", ".", "q")
    assert inv.include_dirs.system == ("r",)


def test_sources_and_passthrough(profile):
    inv = parse(["-c", "-o", "out.o", "-Wall", "a.c", "b.c"], profile)
    assert inv.source_files == ("a.c", "b.c")
    assert "-o" in inv.unrecognized and "out.o" in inv.unrecognized
    assert "-Wall" in inv.unrecognized
    assert "-c" in inv.unrecognized


def test_nostdinc_flag(profile):
    assert parse("-nostdinc", profile).nostdinc
    assert not parse("", profile).nostdinc


def test_option_requiring_argument_at_end(profile):
    with pytest.raises(InvocationError):
        parse(["-D"], profile)


# --- the earlier if-chain parser, kept as an oracle ---------------------------


_ORACLE_OPT_LEVEL_RE = re.compile(r"-O([0-9a-zA-Z]*)\Z")


def _oracle_opt_level(arg):
    """The level of -OLEVEL or --optimize=LEVEL, or None for another word."""
    if arg.startswith("--optimize="):
        arg = "-O" + arg[len("--optimize="):]
    match = _ORACLE_OPT_LEVEL_RE.match(arg)
    return match and match[1]


def _oracle_level_is_zero(arg, level):
    # GCC reads a level of digits in decimal, "0x" and hex digits in hex,
    # and "" (1), "g", "s", "z" and "fast" as levels above 0; it rejects
    # any other level.
    if level in ("", "g", "s", "z", "fast"):
        return False
    hexadecimal = level[:2] in ("0x", "0X") and level[2:]
    digits, base = (level[2:], 16) if hexadecimal else (level, 10)
    if not set(digits) <= set(string.hexdigits if hexadecimal else string.digits):
        raise InvocationError(
            f"{arg}: argument to '-O' should be a non-negative integer, 'g', 's', 'z' or 'fast'"
        )
    return int(digits, base) == 0


class _OracleDialectState:
    def __init__(self, defaults):
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
        self.trigraphs = defaults.ansi_mode in (AnsiMode.STRICT, AnsiMode.GNU_TRIGRAPHS)

    def apply_std(self, resolved):
        self.std_class = resolved.std_class
        self.strict = resolved.strict
        self.trigraphs = resolved.strict

    def config(self):
        if self.strict:
            mode = AnsiMode.STRICT
        elif self.trigraphs:
            mode = AnsiMode.GNU_TRIGRAPHS
        else:
            mode = AnsiMode.GNU
        return DialectConfig(std_class=self.std_class, ansi_mode=mode, **self.booleans)


def _oracle_parse_invocation(argv, env, profile):
    state = _OracleDialectState(profile.defaults)
    directives, quote_dirs, normal_dirs, system_dirs = [], [], [], []
    sources, unrecognized, profile_defines = [], [], []
    opt_level = None
    nostdinc = False

    def take_value(option, joined, i):
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
        elif arg.startswith("-std=") or arg.startswith("--std=") or arg == "--std":
            if arg == "--std":
                name, i = take_value(arg, "", i)
            else:
                name = arg.split("=", 1)[1]
            try:
                state.apply_std(profile.resolve_std(name))
            except ProfileError as exc:
                raise InvocationError(str(exc)) from None
        elif (level := _oracle_opt_level(arg)) is not None:
            state.booleans["optimized"] = not _oracle_level_is_zero(arg, level)
            opt_level = arg
        elif arg in profile.flag_vocabulary:
            effect = profile.flag_vocabulary[arg]
            for f, v in effect.sets:
                state.booleans[f] = v
                if f == "optimized":
                    opt_level = arg
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


def _outcome(parse_fn, argv, env, profile):
    try:
        return parse_fn(argv, env, profile)
    except Exception as exc:
        return (type(exc), str(exc))


_PROFILES = {name: load_profile(name) for name in ("gcc8-x86_64", "mplab-c18")}

# Joined and separate values, "-I-" and its look-alike, a value option at
# the end of argv, known and unknown -std names, "--std" and a name to
# follow it, -O and --optimize= spellings (levels GCC reads as 0 and
# levels GCC rejects among them), profile flags of both profiles (GCC's
# long spellings among them), function-like and object-like -D whose text
# before "=" is more than a name, -D shapes GCC rejects (bodies with "##"
# at an end or a "#" that takes no parameter among them) and bodies with "#"
# or "##" that GCC accepts, argument-taking passthrough, sources and "".
_TRICKY_WORDS = [
    "-D", "-DA=1", "-D9", "-DF(x)=1", "-DF(x)y", "-DF (x)=1", "-DA B", "-DF(x,x)",
    "-DF(x", "-DA=##", "-DF(x)=#y", "-DF(x)=#x", "-DA=x##y", '-DA="##"', "-U", "-UA", "-I", "-Ix", "-I-", "-I-\n",
    "-iquote", "-iquoteq", "-isystem", "-std=c11", "--std=c90", "-std=c2x",
    "-std=", "--std", "c99", "-O", "-O0", "-Os", "-O-", "-O00", "-O0x0", "-O0x",
    "-Ox", "-O0x1f", "-Oz", "--optimize=0x", "--optimize=2", "--optimize=0", "--optimize=",
    "--optimize=-1", "-ansi", "--ansi",
    "-trigraphs", "--trigraphs", "--optimize", "-fno-hosted", "-nostdinc",
    "-m32", "-p18f258", "-o", "--param", "-", "a.c", "",
]
_ENV_PATHS = st.sampled_from(["", "p", "p::q", ":", "a:b"])


@settings(max_examples=500)
@given(
    st.sampled_from(sorted(_PROFILES)),
    st.lists(st.sampled_from(_TRICKY_WORDS), max_size=12),
    st.fixed_dictionaries({"CPATH": _ENV_PATHS, "C_INCLUDE_PATH": _ENV_PATHS}),
)
def test_parse_invocation_matches_oracle(profile_name, argv, env):
    profile = _PROFILES[profile_name]
    assert _outcome(parse_invocation, argv, env, profile) == _outcome(
        _oracle_parse_invocation, argv, env, profile
    )


@settings(max_examples=500)
@given(
    st.sampled_from(sorted(_PROFILES)),
    st.lists(st.sampled_from(_TRICKY_WORDS + ["9x", "A=1"]), max_size=12),
)
def test_dialect_of_matches_oracle(profile_name, argv):
    # _dialect_of builds no directive, yet must raise the same error for a
    # malformed -D/-U value, and for the first of several errors.
    profile = _PROFILES[profile_name]
    oracle = _outcome(_oracle_parse_invocation, argv, {}, profile)
    if isinstance(oracle, CompilerInvocation):
        oracle = oracle.dialect
    derived = _outcome(
        lambda argv, _env, profile: _dialect_of(argv, _WordEffects(profile)), argv, {}, profile
    )
    assert derived == oracle


# --- shell-word splitting ---------------------------------------------------------


def _shlex_outcome(split, text):
    try:
        return split(text)
    except ValueError as exc:
        return ("ValueError", str(exc))


# Quotes, backslashes, every whitespace kind (only " \t\r\n" separates
# words), shell metacharacters shlex.split leaves alone, and word text.
_SHELL_ALPHABET = "'\"\\" + " \t\r\n\x0b\x0c\x1c\x85\xa0" + "#;|$`*()" + "ab-=é"


@given(st.text(alphabet=_SHELL_ALPHABET, max_size=24))
def test_split_command_matches_shlex(text):
    assert _shlex_outcome(split_command, text) == _shlex_outcome(
        lambda s: shlex.split(s, posix=True), text
    )


@pytest.mark.parametrize(
    "text,words",
    [
        ("", []),
        (" \t\r\n", []),
        ("''", [""]),
        ("a''b", ["ab"]),
        ('"a\\"b\\\\c\\d"', ['a"b\\c\\d']),
        ("a\\\nb", ["a\nb"]),
        ("'a\\b' \"'\"", ["a\\b", "'"]),
        ("x\x0by\xa0z w", ["x\x0by\xa0z", "w"]),
        ("gcc '-DOPTS=-m32 -std=c90' -c a\\ b.c", ["gcc", "-DOPTS=-m32 -std=c90", "-c", "a b.c"]),
    ],
)
def test_split_command_pinned(text, words):
    assert split_command(text) == words == shlex.split(text, posix=True)


@pytest.mark.parametrize(
    "text,message",
    [("gcc 'a", "No closing quotation"), ('"a\\"', "No closing quotation"),
     ("a\\", "No escaped character"), ('"a\\', "No escaped character")],
)
def test_split_command_raises_shlex_errors(text, message):
    with pytest.raises(ValueError, match=message):
        split_command(text)
