"""The model against GCC itself on GCC's long option spellings and on
function-like -D.

The probe is compiled by the installed gcc with each argv as written and
run through the libc-free driver that ``probe verify`` uses; macros are
checked against ``gcc -E -P``.  Every test skips, with a reason, when no
gcc is on PATH.
"""

import platform
import re
import shutil
import subprocess

import pytest

from dialectoscope import (
    active_branches,
    emit_probe_source,
    encode_config,
    invocation_macro_env,
    parse_invocation,
)
from dialectoscope.probe import _DRIVER_X86_64

GCC = shutil.which("gcc")
pytestmark = [
    pytest.mark.skipif(GCC is None, reason="no gcc on PATH"),
    pytest.mark.skipif(
        platform.machine() not in ("x86_64", "AMD64"),
        reason="the libc-free probe driver makes x86-64 system calls",
    ),
]

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


def _gcc(*words, **kwargs):
    return subprocess.run([GCC, *words], capture_output=True, text=True, check=True, **kwargs)


@pytest.fixture(scope="module")
def gcc_values(tmp_path_factory):
    """Each spelling's probe value under gcc: one compile per spelling, one
    link of all of them behind the driver, one run."""
    tmp = tmp_path_factory.mktemp("spellings")
    probe_c = tmp / "probe.c"
    probe_c.write_text(emit_probe_source())
    (tmp / "driver.s").write_text(_DRIVER_X86_64)
    objects = []
    for i, spelling in enumerate(SPELLINGS):
        obj = tmp / f"probe{i}.o"
        _gcc("-w", *spelling.split(), f"-Dreturn_value=return_value_{i}", "-c", str(probe_c),
             "-o", str(obj))
        objects.append(str(obj))
    (tmp / "table.s").write_text(
        "   .data\n   .globl probe_table\n   .balign 8\nprobe_table:\n"
        + "".join(f"   .quad return_value_{i}\n" for i in range(len(SPELLINGS)))
        + '   .quad 0\n   .section .note.GNU-stack,"",@progbits\n'
    )
    exe = tmp / "probe"
    _gcc("-w", "-nostdlib", "-static", str(tmp / "driver.s"), str(tmp / "table.s"), *objects,
         "-o", str(exe))
    lines = subprocess.run([str(exe)], capture_output=True, text=True, check=True).stdout.split()
    return dict(zip(SPELLINGS, map(int, lines)))


@pytest.mark.parametrize("spelling", SPELLINGS)
def test_probe_value_matches_gcc(gcc_values, spelling):
    model = encode_config(parse_invocation(spelling.split(), env={}).dialect)
    assert model == gcc_values[spelling]


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


def _preprocess(source, defines):
    return _gcc("-E", "-P", *defines, "-x", "c", "-", input=source).stdout


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
    assert retained.split() == _preprocess(BRANCHES, defines).split()


@pytest.mark.parametrize(
    "define, call, expansion",
    [("-DF(x)=x+1", "F(3)", "3 +1"), ("-DF(x)", "F(3)", "1"), ("-DF(a,b)=b*a", "F(2,5)", "5*2")],
)
def test_function_like_define_bodies_expand_as_in_gcc(define, call, expansion):
    assert _preprocess(call + "\n", [define]).strip() == expansion
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

