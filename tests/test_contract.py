"""The exit-code contract of the command line, over generated calls.

Each call runs :func:`dialectoscope.cli.main` in process on one row of
``cli.COMMANDS``, with words drawn from that row's own options and from
values that have broken option parsing before (``--``, ``=--``, empty
strings, NUL, non-ASCII text, the flag words of the parse oracle), and
with one generated input file, also given on standard input: a directive
soup, a truncated or deeply nested JSON document, or binary bytes.
Whatever the call, its status is 0, 1 or 2; status 1 comes only from a
command that reports findings; nothing prints a traceback; and under
``--format json`` standard output is one JSON document unless the status
is 2."""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from dialectoscope import cli
from conftest import compile_db
from test_cli import _SOUP_PIECES
from test_invocation import _TRICKY_WORDS
from test_macro_env import _directive_soups

#: The commands whose status 1 reports findings: failed or unresolved
#: probes, unreliable verdicts and audit findings.
_FINDINGS = {("probe", "verify"), ("include", "resolve"), ("promote", "check"),
             ("build", "audit"), ("build", "check")}
#: A compiler that no directory holds, given last to every probe verify
#: call, so that no call starts a process.
_MISSING_COMPILER = "/nonexistent/dialectoscope-cc"
#: The generated input, in the working directory; it is also a profile
#: (``--profile-dir . --profile input``).
_INPUT = "input.json"

#: Values that every option may take, besides its own.
_JUNK = ["", "--", "\x00", "x\x00y", "é", "\U0001f600"]
_INTS = ["0", "16", "224", "443", "640", "767", "768", "-1", "112", "14285", "99999999999999999999", "x"]
_PATHS = [_INPUT, _INPUT, "-", "missing.json", "."]
_FLAGS = ["-O2", "-std=c99 -m32", "-DA=1 -UB", "'-DA=1 2'", '"', "-std=c2x", "-I inc -iquote q",
          "-O2 -funsigned-char", "-DA=##", "-ansi -trigraphs"]
#: The values an option or positional takes, by its first name.
_VALUES = {
    "value": _INTS,
    "--value": _INTS,
    "--behaviors": _INTS,
    "--jobs": _INTS,
    "--reference": _INTS,
    "compile_commands": _PATHS,
    "source": _PATHS,
    "--manifest": _PATHS,
    "--output": _PATHS,
    # Only the working directory is ever snapshot.
    "--root": [".", _INPUT, "missing"],
    "--compiler": [_MISSING_COMPILER, "no-such-dialectoscope-cc"],
    "--values": ["0-767", "16,443", "1-0", "0-99999999999", "768", "7,7", ","],
    "--flags": _FLAGS,
    "--reference-flags": _FLAGS,
    "--env": ["CPATH=/inc", "C_INCLUDE_PATH=a:b", "X", "=1", "CPATH="],
    "-D": ["A", "A=1", "F(x)=x", "9x", "A=##", "defined", "é=1", "=1", "F(x,x)"],
    "-U": ["A", "9x", "defined", "A B"],
    "expression": ["A", "defined(A)", "1/0", "(", "1 ? 2 : 3", "__STDC_VERSION__ >= 199901L",
                   "A$B == 3", "'a'", "__SIZEOF_LONG__ == 8"],
    "--operand": ["uint16_t", "uint8_t", "unsigned char", "int", "uint64_t", "char"],
    "--cast": ["uint16_t", "uint32_t", "int"],
    "--model": ["8,16,32,64,64", "8,16,16,32,64", "1,2", "x,x,x,x,x", "8,16,32,32,64,"],
    "--header": ["a.h", "b.h", "../a.h", "/abs.h", "é.h"],
    "--includer": ["/src/m.c", "m.c", "inc/x.c"],
    "--cwd": ["/", "/src", "rel"],
    "argv": _TRICKY_WORDS,
}

_SOUPS = st.one_of(
    _directive_soups(), st.lists(_SOUP_PIECES, max_size=20).map("".join)
).map(str.encode)
#: Compile databases, whole or cut short.
_DATABASES = st.tuples(
    st.lists(st.tuples(st.sampled_from(["a.c", "b.c", 'é"\\.c']),
                       st.lists(st.sampled_from(_TRICKY_WORDS), max_size=4).map(" ".join)),
             max_size=4).map(compile_db),
    st.one_of(st.none(), st.integers(0, 400)),
).map(lambda p: p[0][: p[1]].encode())
_MANIFESTS = st.lists(
    st.sampled_from(["/usr/include/a.h", "a.h", "/src/a.h", "/src/inc/b.h", "# c", "", "é.h", "\x00"]),
    max_size=5,
).map("\n".join).map(str.encode)
_FILES = st.one_of(
    _SOUPS,
    _DATABASES,
    st.integers(1, 5000).map(lambda n: ("[" * n + "]" * n).encode()),
    st.integers(1, 5000).map(lambda n: ('{"a": ' * n).encode()),
    _MANIFESTS,
    st.binary(max_size=64),
)
#: The input a command group reads, drawn for it half of the time.
_READ_BY = {"build": _DATABASES, "macros": _SOUPS, "include": _MANIFESTS}


def _specs(arguments):
    """Each (names, kwargs) of a row's arguments, those of a set of which
    one must be given included."""
    for spec in arguments:
        yield from spec if isinstance(spec, list) else [spec]


@st.composite
def _calls(draw):
    """A command, as its group and name, an argv that names it and the
    input file's bytes."""
    group, name, _, _, arguments = draw(st.sampled_from(cli.COMMANDS))
    argv = ["--format", draw(st.sampled_from(["json", "human"]))]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--profile-dir", ".", "--profile",
                 draw(st.sampled_from(["gcc8-x86_64", "mplab-c18", "mplab-c18", "input", ""]))]
    argv += [group] if name is None else [group, name]

    def words(names, kwargs):
        own = list(kwargs.get("choices", ())) or _VALUES.get(names[0], _TRICKY_WORDS)
        values = st.sampled_from(_JUNK) if draw(st.integers(0, 7)) == 0 else st.sampled_from(own)
        if not names[0].startswith("-"):
            return [draw(values)]
        option = draw(st.sampled_from(names))
        if kwargs.get("action") == "store_true" or draw(st.integers(0, 9)) == 0:
            return [option]
        if draw(st.integers(0, 2)):
            return [f"{option}={draw(values)}"]
        return [option, draw(values)]

    # Most calls give what the command needs; some give it more, or junk.
    for spec in arguments:
        if isinstance(spec, list):  # a set of which one must be given
            needed, spec = True, draw(st.sampled_from(spec))
        else:
            needed = not spec[0][0].startswith("-") or spec[1].get("required")
        if draw(st.integers(0, 9)) < (9 if needed else 3):
            argv += words(*spec)
    specs = list(_specs(arguments))
    for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 2]))):
        if specs and draw(st.booleans()):
            argv += words(*draw(st.sampled_from(specs)))
        else:
            argv.append(draw(st.sampled_from(_JUNK + ["=--", "--flags=--", "-"])))
    if (group, name) == ("probe", "verify"):
        argv.append(f"--compiler={_MISSING_COMPILER}")
    data = draw(_READ_BY[group] if group in _READ_BY and draw(st.booleans()) else _FILES)
    return (group, name), argv, data


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=400, deadline=None)
@given(_calls())
def test_every_call_keeps_the_exit_code_contract(workdir, call):
    command, argv, data = call
    (workdir / _INPUT).write_bytes(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(workdir)
        patch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
    assert code in (0, 1, 2)
    assert code != 1 or command in _FINDINGS
    assert "Traceback" not in err.getvalue()
    if argv[1] == "json" and code != 2:
        json.loads(out.getvalue())
