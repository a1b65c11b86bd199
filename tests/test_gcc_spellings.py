"""The model against GCC itself on GCC's long option spellings, on -O
levels, on -D words that are more than NAME=VALUE and on -D bodies that
hold "#" or "##".

The probe is compiled by the installed gcc with each argv as written and
run through ``probe._compile_and_run``, the primitive that ``probe
verify`` uses; macros are checked against ``gcc -E -P`` and ``gcc -E -dM``.
"""

import re

import pytest
from gcc_oracle import dm, pp, probe_values

from dialectoscope import (
    InvocationError,
    active_branches,
    encode_config,
    invocation_macro_env,
    parse_invocation,
)

pytestmark = pytest.mark.gcc

#: Argv that GCC reads through its long spellings, alone and against the
#: short spellings they must override or be overridden by, and optimisation
#: levels that GCC reads as 0.
SPELLINGS = [
    "--std c99",
    "--ansi",
    "--trigraphs",
    "--optimize",
    "-fno-hosted",
    "-std=gnu99 --trigraphs",
    "--std gnu89 -O2",
    "-ansi --std gnu99",
    "--trigraphs -std=gnu99 -fno-hosted",
    "-ffreestanding -fhosted -fno-hosted",
    "--optimize -O0 --std c99",
    "-O0 --optimize",
    "--optimize=2",
    "--optimize=s",
    "--optimize=0",
    "--optimize=",
    "--optimize=00",
    "-O2 --optimize=0",
    "--optimize=0 -O",
    "-O00",
    "-O0x0",
]

#: -O levels that GCC 12.2 rejects ("argument to '-O' should be a
#: non-negative integer, 'g', 's', 'z' or 'fast'"), then levels it accepts.
#: GCC rejects -O- and -O+1 too, but the model leaves a level that is not
#: alphanumeric inert, so they are not here.
O_LEVELS = [
    "-Ox", "-O0x", "-O1a", "-Ogg", "-Ofas", "--optimize=x", "--optimize=0x",
    "-O", "--optimize=", "-O99", "-O01", "-O0x1f", "-O0X2", "-Og", "-Os", "-Oz", "-Ofast",
]


@pytest.fixture(scope="module")
def gcc_values():
    """Each spelling's probe value under gcc, or the failure text of a
    spelling gcc does not build: one build per spelling, all in one call."""
    spellings = SPELLINGS + O_LEVELS
    return dict(zip(spellings, probe_values(s.split() for s in spellings)))


@pytest.mark.gcc(driver=True)
@pytest.mark.parametrize("spelling", SPELLINGS)
def test_probe_value_matches_gcc(gcc_values, spelling):
    model = encode_config(parse_invocation(spelling.split(), env={}).dialect)
    assert model == gcc_values[spelling]


@pytest.mark.gcc(driver=True)
@pytest.mark.parametrize("level", O_LEVELS)
def test_o_level_is_an_input_error_exactly_where_gcc_rejects_it(gcc_values, level):
    gcc = gcc_values[level]
    rejected = isinstance(gcc, str) and gcc.startswith("compile failed")
    try:
        model = encode_config(parse_invocation([level], env={}).dialect)
    except InvocationError:
        assert rejected, gcc
    else:
        assert model == gcc


# --- function-like -D -------------------------------------------------------------

BRANCHES = """\
#ifdef F
f_defined
#else
f_undefined
#endif
#if defined(F) && !defined G
only_f
#elif defined(G)
g_defined
#endif
"""


@pytest.mark.parametrize(
    "defines",
    [
        ["-DF(x)=x+1"],
        ["-DF(x)"],
        ["-DF()=0", "-DG(a,b)=a"],
        ["-DF(x,...)=x"],
        ["-DF(x)=1", "-UF", "-DG(y)"],
    ],
)
def test_function_like_defines_take_the_arms_gcc_takes(defines):
    env = invocation_macro_env(parse_invocation(defines, env={}))
    retained = active_branches(env, BRANCHES).retained_text
    status, out, _ = pp(BRANCHES, defines)
    assert status == 0 and retained.split() == out.split()


@pytest.mark.parametrize(
    "define, call, expansion",
    [("-DF(x)=x+1", "F(3)", "3 +1"), ("-DF(x)", "F(3)", "1"), ("-DF(a,b)=b*a", "F(2,5)", "5*2")],
)
def test_function_like_define_bodies_expand_as_in_gcc(define, call, expansion):
    status, out, _ = pp(call + "\n", [define])
    assert status == 0 and out.strip() == expansion
    # The model holds the body as a source #define holds it: the parameter
    # list, then the replacement.  Substituting the arguments into it must
    # give gcc's expansion, up to white space.
    name = call.partition("(")[0]
    definition = invocation_macro_env(parse_invocation([define], env={})).lookup(name)
    assert definition.function_like
    params, _, body = definition.body[1:].partition(")")
    args = dict(zip(re.findall(r"\w+", params), re.findall(r"\w+", call.partition("(")[2])))
    substituted = re.sub(r"\w+", lambda m: args.get(m[0], m[0]), body)
    assert "".join(substituted.split()) == "".join(expansion.split())



# --- -D text beyond a name ----------------------------------------------------------

#: -D words whose text before the first "=" is more than a macro name, which
#: GCC reads as "#define" and the word with that "=" made a space, or with
#: " 1" added, and whose "#define" line ends at its first line break, "\n" or
#: "\r"; then -D words that GCC rejects: a leading digit, a duplicate
#: parameter, an unclosed parameter list and the other malformed lists, and
#: names that are no identifiers.
DEFINE_SHAPES = [
    "-DF(x)y", "-DF (x)=1", "-DA B", "-DA B=C", "-DA+1", "-DF(x)y=2", "-DF(x)(y)",
    "-D A", "-DA =", "-DF( x , y )z", "-DF(...)x", "-DD=x\n##", "-DA\nB=1", "-DA= x ",
    "-DA\\=1", "-D/**/A", "-DA=x\ry",
]
REJECTED_DEFINES = [
    "-D9x", "-DF(x,x)=1", "-DF(x", "-DF(1)", "-DF(x,)", "-DA(", "-D=1", "-DF(a$,a$)", "-DA/*",
    '-DL"x"', "-D(",
]
#: -D words whose body GCC 12.2 rejects, with its reason: "##" at either end
#: of a body (the body of -D'A ##' is "## 1"), and a "#" in a function-like
#: macro that no parameter follows.
REJECTED_BODIES = [
    ("-DA=##", "'##' cannot appear at either end of a macro expansion"),
    ("-DA=x##", "'##' cannot appear at either end of a macro expansion"),
    ("-DA=##x", "'##' cannot appear at either end of a macro expansion"),
    ("-DA=x ##", "'##' cannot appear at either end of a macro expansion"),
    ("-DA ##", "'##' cannot appear at either end of a macro expansion"),
    ("-DA=x##y##", "'##' cannot appear at either end of a macro expansion"),
    ("-DF(x)=x##", "'##' cannot appear at either end of a macro expansion"),
    ("-DF(x)=#y", "'#' is not followed by a macro parameter"),
    ("-DF(x)=#", "'#' is not followed by a macro parameter"),
    ("-DF()=#x", "'#' is not followed by a macro parameter"),
    ("-DF(...)=#y", "'#' is not followed by a macro parameter"),
    ("-DA=x/*", "unterminated comment"),
    ("-DA=x/*#*/##", "'##' cannot appear at either end of a macro expansion"),
]
#: -D and -U words whose name or parameter list GCC 12.2 rejects, with its
#: reason.
REJECTED_OPERANDS = [
    ("-DF(x,x)=1", 'duplicate macro parameter "x"'),
    ("-DF(x", "expected ',' or ')', found \"1\""),
    ("-DF(x,)", 'expected parameter name, found ")"'),
    ("-DA(", 'expected parameter name, found "1"'),
    ("-DF(...,x)", "expected ')' after \"...\""),
    ("-Ddefined", '"defined" cannot be used as a macro name'),
    ("-Udefined", '"defined" cannot be used as a macro name'),
    ("-UA/*", "unterminated comment"),
]
#: -U words that are more than a macro name: GCC undefines the first name
#: and ignores the rest.
UNDEF_SHAPES = ["-UA B", "-UF(x)", "-UF()", "-U/**/A", "-U A=1", "-UG//x"]
#: -D words with "#" or "##" in their body that GCC 12.2 accepts: "##"
#: between tokens, "#" in an object-like macro, "#" and "##" inside literals,
#: "#" before a parameter, and -DF(x)y##, whose body is "y## 1".
ACCEPTED_BODIES = [
    "-DA=x##y", "-DA=#", "-DA=#y", "-DA=# #", '-DA="##"', "-DA='#'", "-DF(x)=#x",
    "-DF(x)=# x", '-DF(x)="#"y', "-DF(...)=#__VA_ARGS__", "-DF(x)y##",
]
#: -D words with "$" in a name, which GCC allows in identifiers, and with
#: comments, which GCC replaces by a space in the "#define" line it reads
#: (translation phase 3), so "-DB=1/*c*/+2" defines B as "1 +2".  A block
#: comment may join the body's lines; a comment opened on a later line is
#: ignored with that line.
DOLLARS_AND_COMMENTS = [
    "-DA$B", "-DA$B=3", "-D$", "-DF(a$)=a$", "-DA=1//x", "-DB=1/*c*/+2", "-DA=x /*c*/",
    "-DA=/*c*/1", "-DA/*x*/B", "-DA/*=*/=1", "-DF/**/(x)=x", "-DA=x/*#*/", '-DA="//x"',
    "-DA='/*'", "-DA=x/*\n*/+1", "-DA=x\n/*", "-DA=//",
]


def _tokens(text):
    return re.findall(r"[\w$]+|\.\.\.|\S", text)


@pytest.mark.parametrize("define", DEFINE_SHAPES + ACCEPTED_BODIES + DOLLARS_AND_COMMENTS)
def test_define_text_defines_the_macro_gcc_defines(define):
    status, lines = dm([define])
    added = lines - dm()[1]
    assert status == 0 and len(added) == 1
    directive = parse_invocation([define], env={}).macro_directives[0]
    name = directive.name.partition("(")[0]
    definition = invocation_macro_env(parse_invocation([define], env={})).lookup(name)
    spacer = "" if definition.function_like else " "
    assert _tokens(added.pop()) == _tokens(f"#define {name}{spacer}{definition.body}")


@pytest.mark.parametrize("define", REJECTED_DEFINES)
def test_define_is_an_input_error_where_gcc_rejects_it(define):
    assert dm([define])[0] != 0
    with pytest.raises(InvocationError, match="malformed -D argument"):
        parse_invocation([define], env={})


@pytest.mark.parametrize("define, reason", REJECTED_BODIES + REJECTED_OPERANDS)
def test_define_body_is_an_input_error_with_gccs_reason(define, reason):
    status, _, stderr = pp("", [define])
    assert status != 0 and f"error: {reason}" in stderr
    with pytest.raises(InvocationError) as err:
        parse_invocation([define], env={})
    assert str(err.value).endswith(f": {reason}")


@pytest.mark.parametrize("undef", UNDEF_SHAPES)
def test_undef_text_undefines_the_macro_gcc_undefines(undef):
    argv = ["-DA", "-DF(y)=y", "-DG", undef]
    status, lines = dm(argv)
    assert status == 0
    env = invocation_macro_env(parse_invocation(argv, env={}))
    model = [
        f"#define {d.name}{'' if d.function_like else ' '}{d.body}"
        for d in env.definitions() if d.provenance == "command-line"
    ]
    assert sorted(map(_tokens, lines - dm()[1])) == sorted(map(_tokens, model))
