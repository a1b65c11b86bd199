"""End-to-end command-line behavior through cli.main()."""

import argparse
import contextlib
import gc
import glob
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import dialectoscope
from dialectoscope import cli, emit_probe_source, macro_env, profiles
from dialectoscope.cli import main
from conftest import GOLDEN_PAIRS, DISPATCH_SOURCE, compile_db
from test_cli_golden import CASES, FORMATS, GOLDEN, make_workspace, run_case


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run(capsys, "--format", "json", *args)
    assert err == ""
    return code, json.loads(out)


# --- probe ------------------------------------------------------------------


def test_probe_emit(capsys, tmp_path):
    code, out, _ = run(capsys, "probe", "emit")
    assert code == 0
    assert out == emit_probe_source()
    assert len(out.encode()) == 647

    target = tmp_path / "probe.c"
    code, out, _ = run(capsys, "probe", "emit", "--output", str(target))
    assert code == 0
    assert target.read_text() == emit_probe_source()

    code, doc = run_json(capsys, "probe", "emit")
    assert doc["source"] == emit_probe_source()
    assert doc["sha256"] == hashlib.sha256(emit_probe_source().encode()).hexdigest()


@pytest.mark.parametrize("value", sorted(GOLDEN_PAIRS))
def test_probe_flags_golden_pairs(capsys, value):
    code, out, _ = run(capsys, "probe", "flags", str(value))
    assert code == 0
    assert out.strip() == GOLDEN_PAIRS[value]


@pytest.mark.parametrize("value", sorted(GOLDEN_PAIRS))
def test_probe_value_golden_pairs(capsys, value):
    code, doc = run_json(capsys, "probe", "value", f"--flags={GOLDEN_PAIRS[value]}")
    assert code == 0
    assert doc["value"] == value


def test_probe_flags_into_probe_value_round_trips(capsys):
    # `probe flags v | probe value --flags ...` is the identity on 0..767.
    for value in range(768):
        code, out, _ = run(capsys, "probe", "flags", str(value))
        assert code == 0
        code, doc = run_json(capsys, "probe", "value", "--flags=" + out.strip())
        assert code == 0
        assert doc["value"] == value


def test_probe_value_uses_environment(capsys):
    code, doc = run_json(
        capsys, "probe", "value", "--flags=-std=gnu11", "--env", "CPATH=/x"
    )
    assert code == 0
    assert doc["value"] == 275


def test_probe_explain(capsys):
    code, doc = run_json(capsys, "probe", "explain", "443")
    assert code == 0
    assert sum(t["contribution"] for t in doc["terms"]) == 443
    weights = [t["weight"] for t in doc["terms"]]
    assert weights == [1, 2, 4, 8, 16, 32, 64, 256]
    code, out, _ = run(capsys, "probe", "explain", "1")
    assert code == 0
    assert "((char)-1) < 0" in out


def test_probe_explain_rejects_out_of_range(capsys):
    code, _, err = run(capsys, "probe", "explain", "900")
    assert code == 2
    assert "0..767" in err


def test_probe_verify_skips_without_compiler(capsys):
    code, out, _ = run(capsys, "probe", "verify", "--compiler", "no-such-cc-anywhere")
    assert code == 0
    assert out.startswith("SKIPPED")
    code, doc = run_json(capsys, "probe", "verify", "--compiler", "no-such-cc-anywhere")
    assert code == 0
    assert doc["status"] == "skipped"
    assert "not found" in doc["skip_reason"]


def test_probe_verify_rejects_bad_values(capsys):
    code, _, err = run(capsys, "probe", "verify", "--values", "0,900")
    assert code == 2


@pytest.mark.parametrize(
    "spec,fragment",
    [
        ("0-900", "got 900"),
        (f"0-{10**15}", f"got {10**15}"),
        (f"{10**15}-{10**15 + 1}", f"got {10**15}"),
        ("9-3", "reversed"),
        ("abc", "bad value range"),
        (",", "empty"),
    ],
)
def test_probe_verify_checks_values_before_expanding(capsys, spec, fragment):
    # A huge endpoint must fail at once, not after building a list that long.
    code, out, err = run(capsys, "probe", "verify", "--values", spec)
    assert code == 2
    assert out == ""
    assert fragment in err


@pytest.mark.gcc(driver=True)
def test_probe_verify_live_subset(capsys):
    # Values 0 and 427 have 32-bit pointers: the driver needs no 32-bit libc.
    code, doc = run_json(
        capsys, "probe", "verify", "--values", "0,16,427,443", "--jobs", "3"
    )
    assert code == 0
    assert doc["passed"] == 4 and doc["failed"] == 0
    assert doc["failures"] == []


def fake_compiler(tmp_path, body):
    """An executable shell script standing in for the compiler: it logs its
    arguments, runs ``body`` and then, unless ``body`` exited, runs gcc."""
    script = tmp_path / "fake-cc"
    script.write_text(
        f'#!/bin/sh\necho "$*" >> "{tmp_path}/calls"\n{body}\nexec gcc "$@"\n'
    )
    script.chmod(0o755)
    return str(script)


def verify_failures(capsys, compiler, values):
    code, doc = run_json(
        capsys, "probe", "verify", "--compiler", compiler, "--values", values
    )
    assert code == 1
    return {f["value"]: f["detail"] for f in doc["failures"]}


def flags_of(value):
    return " ".join(dialectoscope.flags_for_value(value, dialectoscope.load_profile()))


@pytest.mark.gcc(driver=True)
def test_probe_verify_reports_a_width_gcc_cannot_target_at_each_compile(capsys, tmp_path):
    cc = fake_compiler(
        tmp_path,
        'case " $* " in *" -m32 "*) echo "fake: no 32-bit target" >&2; exit 1;; esac',
    )
    failures = verify_failures(capsys, cc, "0,16,427,443")
    assert failures == {
        v: f"compile failed ({flags_of(v)}): fake: no 32-bit target" for v in (0, 427)
    }
    # Nothing of the width compiled, so no -m32 link runs.
    calls = (tmp_path / "calls").read_text().splitlines()
    assert not any(" -m32 " in f" {c} " and " -static " in f" {c} " for c in calls)


@pytest.mark.gcc(driver=True)
def test_probe_verify_reports_a_failed_width_link_for_each_value(capsys, tmp_path):
    # The -m32 link, which also assembles the -m32 driver, fails; the -m64
    # values are linked and run as before.
    cc = fake_compiler(
        tmp_path,
        'case " $* " in *" -m32 "*" -static "*) echo "fake: no 32-bit ld" >&2; exit 1;; esac',
    )
    detail = "link failed (-m32): fake: no 32-bit ld"
    assert verify_failures(capsys, cc, "0,16,427,443") == {0: detail, 427: detail}


@pytest.mark.gcc(driver=True)
def test_probe_verify_reports_compile_failure(capsys, tmp_path):
    cc = fake_compiler(
        tmp_path, 'case " $* " in *" -O2 "*) echo "fake: no -O2" >&2; exit 1;; esac'
    )
    flags = flags_of(24)
    assert "-O2" in flags
    assert verify_failures(capsys, cc, "16,24") == {
        24: f"compile failed ({flags}): fake: no -O2"
    }


@pytest.mark.parametrize(
    "command,detail",
    [("echo 7", "printed '7', expected 16"), ("exit 3", "run exited with status 3")],
)
def test_probe_verify_reports_run_failures(capsys, tmp_path, command, detail):
    # Every output of this compiler, each object and the probe too, is a shell
    # script that runs ``command``.
    cc = fake_compiler(
        tmp_path,
        'while [ "$1" != -o ]; do shift; done\n'
        f"printf '#!/bin/sh\\n{command}\\n' > \"$2\"; chmod +x \"$2\"; exit 0",
    )
    assert verify_failures(capsys, cc, "16") == {16: detail}


def link_body(command):
    """A fake compiler body whose links (the calls with -static) write a
    shell script that runs ``command``; every other call goes to gcc."""
    return (
        'case " $* " in *" -static "*)\n'
        '  while [ "$1" != -o ]; do shift; done\n'
        f"  printf '#!/bin/sh\\n{command}\\n' > \"$2\"; chmod +x \"$2\"; exit 0;;\nesac"
    )


@pytest.mark.gcc(driver=True)
def test_probe_verify_counts_one_compile_per_value_and_one_link_per_width(
    capsys, tmp_path
):
    cc = fake_compiler(tmp_path, "")
    code, doc = run_json(
        capsys, "probe", "verify", "--compiler", cc, "--values", "0,16,427,443"
    )
    assert code == 0 and doc["passed"] == 4
    calls = [c.split() for c in (tmp_path / "calls").read_text().splitlines()]
    drivers = [c for c in calls if "-c" in c and any(w.endswith(".s") for w in c)]
    compiles = [c for c in calls if "-c" in c and any(w.endswith("/probe.c") for w in c)]
    links = [c for c in calls if "-static" in c]
    assert (len(drivers), len(compiles), len(links), len(calls)) == (0, 4, 2, 6)
    renames = sorted(w for c in compiles for w in c if w.startswith("-Dreturn_value="))
    assert renames == [f"-Dreturn_value=return_value_{v}" for v in (0, 16, 427, 443)]
    # The only C source any call names is the probe: no C driver is compiled.
    assert all(w.endswith("/probe.c") for c in calls for w in c if w.endswith(".c"))


@pytest.mark.gcc(driver=True)
def test_probe_verify_checks_each_line_of_a_batched_run(capsys, tmp_path):
    cc = fake_compiler(tmp_path, link_body("echo 16"))
    assert verify_failures(capsys, cc, "16,24") == {24: "printed '', expected 24"}


@pytest.mark.gcc(driver=True)
def test_probe_verify_reports_link_failure_for_each_value_linked(capsys, tmp_path):
    cc = fake_compiler(
        tmp_path, 'case " $* " in *" -static "*) echo "fake: no ld" >&2; exit 1;; esac'
    )
    detail = "link failed (-m64): fake: no ld"
    assert verify_failures(capsys, cc, "16,24") == {16: detail, 24: detail}


@pytest.mark.gcc(driver=True)
def test_probe_verify_fails_one_value_on_undecodable_compiler_output(capsys, tmp_path):
    cc = fake_compiler(
        tmp_path, r"""case " $* " in *" -O2 "*) printf 'fake: \377\n' >&2; exit 1;; esac"""
    )
    flags = flags_of(24)
    assert verify_failures(capsys, cc, "16,24") == {
        24: f"compile failed ({flags}): fake: \ufffd"
    }


@pytest.mark.gcc(driver=True)
def test_probe_verify_fails_one_value_on_undecodable_probe_output(capsys, tmp_path):
    cc = fake_compiler(tmp_path, link_body(r'printf "\\377\\n"'))
    assert verify_failures(capsys, cc, "16") == {16: "printed '\ufffd', expected 16"}


@pytest.mark.gcc(driver=True)
def test_probe_verify_imports_neither_thread_pools_nor_logging():
    code = (
        "import contextlib, io, json, sys\n"
        "from dialectoscope.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(['probe', 'verify', '--values', '16'])\n"
        "heavy = ('concurrent.futures', 'logging')\n"
        "print(json.dumps([status, [m for m in heavy if m in sys.modules]]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(dialectoscope.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert json.loads(done.stdout) == [0, []]


# --- invocation ----------------------------------------------------------------


def test_invocation_parse_argv(capsys):
    code, doc = run_json(
        capsys, "invocation", "parse", "--", "-O2", "-DX=1", "-std=c99", "a.c"
    )
    assert code == 0
    assert doc["value"] == 91
    assert doc["canonical_flags"][2] == "-O2"
    assert {"action": "define", "name": "X", "value": "1"} in doc["macro_directives"]


def test_invocation_parse_function_like_define(capsys):
    code, doc = run_json(capsys, "invocation", "parse", "--", "-DF(x)=x+1", "--std", "c99")
    assert code == 0 and doc["value"] == 83 and doc["sources"] == []
    assert doc["macro_directives"] == [{"action": "define", "name": "F(x)", "value": "x+1"}]
    code, out, _ = run(capsys, "invocation", "parse", "--", "-DF(x)=x+1")
    assert code == 0 and "macro directives: -DF(x)=x+1\n" in out


def test_invocation_parse_flags_option(capsys):
    code, doc = run_json(capsys, "invocation", "parse", "--flags=-std=gnu11 -m32")
    assert code == 0
    assert doc["value"] == 259
    assert doc["config"]["pointer_width_64"] == "false"


def test_invocation_parse_rejects_unknown_std(capsys):
    code, _, err = run(capsys, "invocation", "parse", "--flags=-std=c2x")
    assert code == 2
    assert "c2x" in err


# --- macros ---------------------------------------------------------------------


def test_macros_show(capsys):
    code, out, _ = run(capsys, "macros", "show", "--value", "443")
    assert code == 0
    assert "__OPTIMIZE__" in out and "[predefined]" in out
    code, doc = run_json(capsys, "macros", "show", "--value", "0", "-D", "EXTRA=2")
    assert code == 0
    table = {m["name"]: m for m in doc["macros"]}
    assert table["__STDC_VERSION__"]["body"] == "201112L"
    assert table["EXTRA"]["provenance"] == "command-line"
    assert "__OPTIMIZE__" not in table


def test_macros_eval(capsys):
    code, out, _ = run(capsys, "macros", "eval", "--value", "443", "__STDC_VERSION__ % 4")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "macros", "eval", "--value", "0", "defined(__OPTIMIZE__)")
    assert code == 0 and out.strip() == "0"
    code, _, err = run(capsys, "macros", "eval", "--value", "0", "1 +")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "macros", "eval", "--value", "0", "1/0")
    assert code == 2


def test_macros_eval_with_flags_and_defines(capsys):
    code, out, _ = run(
        capsys, "macros", "eval", "--flags=-O2", "-D", "N=3", "defined(__OPTIMIZE__) && N"
    )
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(
        capsys, "macros", "eval", "--flags=-O2", "-U", "__OPTIMIZE__",
        "defined(__OPTIMIZE__)",
    )
    assert code == 0 and out.strip() == "0"


@pytest.mark.parametrize(
    "words",
    [["-UA", "-DA=1"], ["-DA=1", "-UA"], ["-DA=1", "-DA=2"], ["-U__STDC__", "-D__STDC__=2"]],
)
def test_macros_define_options_apply_in_command_line_order_as_in_flags(capsys, words):
    # GCC applies -D and -U in the order given, so as options they read as in --flags.
    options = [part for word in words for part in (word[:2], word[2:])]
    as_options = run(capsys, "macros", "show", "--flags=-O2", *options)
    assert as_options == run(capsys, "macros", "show", f"--flags=-O2 {' '.join(words)}")
    assert as_options[0] == 0


def test_macros_env_holds_the_macros_a_profile_flag_defines(capsys):
    # mplab-c18's -p18f258 predefines __18F258 to 1, and only that flag does.
    mplab = ["--profile", "mplab-c18", "macros"]
    assert run(capsys, *mplab, "eval", "--flags=-p18f258", "__18F258 == 1") == (0, "1\n", "")
    assert run(capsys, *mplab, "eval", "--flags=-p18f452", "defined __18F258") == (0, "0\n", "")
    code, doc = run_json(capsys, *mplab, "show", "--flags=-O2 -p18f258")
    definition = {"name": "__18F258", "body": "1", "provenance": "predefined", "function_like": False}
    assert code == 0 and definition in doc["macros"]


@pytest.mark.parametrize(
    "args,out",
    [
        (["--flags=-DA=1//x", "A"], "1\n"),
        (["--flags=-DB=1/*c*/+2", "B"], "3\n"),
        (["--flags=-DA$B=3", "A$B == 3 && !defined A"], "1\n"),
        (["--value", "0", "-D", "A$B=3", "-U", "A$B", "defined A$B"], "0\n"),
    ],
)
def test_macros_eval_reads_define_comments_and_dollar_names(capsys, args, out):
    assert run(capsys, "macros", "eval", *args) == (0, out, "")


@pytest.mark.parametrize(
    "args,message",
    [
        (["macros", "show", "--value", "0", "-D", "9x=1"], "malformed -D argument: '9x=1'"),
        (["macros", "show", "--value", "0", "-D", "A(x,x)=x"],
         "malformed -D argument: 'A(x,x)=x': duplicate macro parameter \"x\""),
        (["macros", "eval", "--value", "0", "-U", "1+", "1"], "malformed -U argument: '1+'"),
        (["macros", "show", "--flags=-D9x=1"], "malformed -D argument: '9x=1'"),
        (["macros", "show", "--flags=-DA=x/*"], "malformed -D argument: 'A=x/*': unterminated comment"),
    ],
)
def test_macros_define_options_check_names_like_flags(capsys, args, message):
    # -D/-U given as CLI options are read by the same rule as in --flags.
    code, out, err = run(capsys, *args)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def _value_options():
    """(argv before the option, option) for each option of each ``COMMANDS``
    row, and each global option, that takes one value."""
    for group, name, _, _, arguments in cli.COMMANDS:
        words = [group] + ([name] if name else [])
        for spec in arguments:
            for names, kwargs in spec if isinstance(spec, list) else [spec]:
                if names[0].startswith("-") and kwargs.get("action", "append") == "append":
                    yield words, names[0]
    for option in ("--profile", "--profile-dir", "--format"):
        yield [], option


@pytest.mark.parametrize("words, option", list(_value_options()))
def test_an_option_value_argparse_turns_into_a_list_is_a_usage_error(
    capsys, monkeypatch, words, option
):
    # Python 3.11's argparse reads the value of --flags=-- as []; the
    # stand-in parse does so on any version.  No handler may see the list.
    read = argparse.ArgumentParser._get_values

    def as_python_311(self, action, arg_strings):
        return [] if arg_strings == ["--"] and action.nargs is None else read(
            self, action, arg_strings)

    monkeypatch.setattr(argparse.ArgumentParser, "_get_values", as_python_311)
    with pytest.raises(SystemExit) as raised:
        main([*words, f"{option}=--"])
    err = capsys.readouterr().err
    assert raised.value.code == 2
    assert "Traceback" not in err and f"argument {option}" in err


def test_macros_branches_file(capsys, tmp_path):
    source = tmp_path / "dispatch.c"
    source.write_text(DISPATCH_SOURCE)
    code, doc = run_json(
        capsys, "macros", "branches", "--flags=-O2", str(source), "--show-retained"
    )
    assert code == 0
    (group,) = doc["groups"]
    assert [arm["taken"] for arm in group["arms"]] == [True, False]
    assert "goto *dispatch_table" in doc["retained_text"]

    code, out, _ = run(capsys, "macros", "branches", str(source))
    assert code == 0
    assert "TAKEN" in out and "not taken" in out


def test_macros_branches_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("#if 1\nyes\n#endif\n"))
    code, doc = run_json(capsys, "macros", "branches", "--value", "0", "-")
    assert code == 0
    assert doc["retained_ranges"] == [[2, 2]]


def test_macros_deep_input_and_runaway_expansion(capsys, tmp_path):
    deep = "(" * 2000 + "1" + ")" * 2000
    assert run(capsys, "macros", "eval", "--value", "0", deep) == (0, "1\n", "")
    source = tmp_path / "deep.h"
    source.write_text(f"#if {deep}\nint deep;\n#endif\n")
    code, doc = run_json(capsys, "macros", "branches", "--value", "0", str(source))
    assert code == 0
    assert [[a["taken"] for a in g["arms"]] for g in doc["groups"]] == [[True]]
    assert doc["retained_ranges"] == [[2, 2]]
    chain = ["-D", "A30=1"] + [x for i in range(30) for x in ("-D", f"A{i}=A{i + 1} A{i + 1}")]
    code, out, err = run(capsys, "macros", "eval", "--value", "0", *chain, "A0")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "macro expansion exceeds" in err


def test_renderings_not_printed_are_not_built(capsys, tmp_path, monkeypatch):
    def unused(*args):
        raise AssertionError("rendering built but not printed")

    monkeypatch.setattr("dialectoscope.build_audit.AuditReport.to_json_dict", unused)
    monkeypatch.setattr("dialectoscope.cli._branches_text", unused)
    db = tmp_path / "cc.json"
    db.write_text(compile_db([("a.c", "-O2"), ("b.c", "")]))
    code, out, _ = run(capsys, "build", "audit", str(db))
    assert code == 1 and "inconsistency" in out
    source = tmp_path / "s.c"
    source.write_text("#if 1\nx\n#endif\n")
    code, doc = run_json(capsys, "macros", "branches", str(source))
    assert code == 0 and doc["retained_ranges"] == [[2, 2]]


def test_branches_join_the_retained_text_only_when_printed(tmp_path, monkeypatch):
    golden = json.loads(GOLDEN.read_text())
    make_workspace(tmp_path)
    join = macro_env._retained_text

    def unused(*args):
        raise AssertionError("retained text joined but not printed")

    monkeypatch.setattr(macro_env, "_retained_text", unused)
    for name in ("macros-branches-plain", "macros-branches-nested", "macros-branches-stdin",
                 "macros-branches-no-groups"):
        for fmt in FORMATS:
            assert run_case(tmp_path, *CASES[name], fmt) == golden[name][fmt]
    joined = []
    monkeypatch.setattr(macro_env, "_retained_text", lambda *args: joined.append(1) or join(*args))
    for fmt in FORMATS:
        name = "macros-branches-retained"
        assert run_case(tmp_path, *CASES[name], fmt) == golden[name][fmt]
    assert len(joined) == len(FORMATS)


def test_branch_text_is_written_a_group_at_a_time(capsys, tmp_path):
    source = tmp_path / "g.h"
    source.write_text("#if 1\na\n#else\nb\n#endif\n#ifdef X\nc\n#if 0\n#endif\n#endif\nd\n")
    argv = ["--format", "human", "macros", "branches", "--show-retained", str(source)]
    args = cli._parse_args(argv)
    pieces = list(args.func(args).text())
    assert len(pieces) > 1 and all(piece.endswith("\n") for piece in pieces)
    text = (
        "conditional group, lines 1..5 (evaluated)\n  line 1: #if 1  ->  TAKEN\n"
        "  line 3: #else  ->  not taken\nconditional group, lines 6..10 (evaluated)\n"
        "  line 6: #ifdef X  ->  not taken\nconditional group, lines 8..9 (inactive region)\n"
        "  line 8: #if 0  ->  skipped\nretained lines: 2, 11\na\nd\n"
    )
    assert "".join(pieces) == text
    assert run(capsys, *argv) == (0, text, "")


#: Where ``macros branches`` stops on glibc's headers today, and why, with
#: the ROADMAP item that will move each stop: item 12 expands calls in a
#: condition, and item 6 follows the includes of ``features.h``, which
#: defines ``__GLIBC_USE``.
_GLIBC_STOPS = [
    ("bits/wordsize.h", None, None),
    ("bits/statx.h", "__has_include", "invoked in a condition"),  # item 12
    ("features.h", "__GNUC_PREREQ", "invoked in a condition"),  # item 12
    ("stdio.h", "__GLIBC_USE", "unexpected token '('"),  # item 6
]


@pytest.mark.parametrize(
    "header,stop,reason", _GLIBC_STOPS, ids=[f"{h}-{s}" for h, s, _ in _GLIBC_STOPS]
)
def test_where_glibc_headers_stop(capsys, header, stop, reason):
    paths = glob.glob(f"/usr/include/{header}") + glob.glob(f"/usr/include/*/{header}")
    if not paths:
        pytest.skip(f"no {header} under /usr/include or its multiarch directory")
    code, out, err = run(capsys, "--format", "json", "macros", "branches", "--flags=-std=c99",
                         paths[0])
    assert "Traceback" not in err
    if stop is None:
        assert (code, err) == (0, "") and json.loads(out)["groups"]
        return
    assert (code, out) == (2, "") and reason in err
    line = int(re.match(r"error: line (\d+): ", err)[1])
    with open(paths[0], encoding="utf-8") as fh:
        assert stop in fh.read().split("\n")[line - 1]


def test_macros_branches_reports_structure_errors(capsys, tmp_path):
    bad = tmp_path / "bad.c"
    bad.write_text("#endif\n")
    code, _, err = run(capsys, "macros", "branches", str(bad))
    assert code == 2
    assert "line 1" in err


def _main_on_stdin(argv, source):
    """The status, standard output and standard error of ``main(argv)``
    with ``source`` as standard input."""
    stdin, sys.stdin = sys.stdin, io.StringIO(source)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _reference_branches_doc(report, show_retained):
    """The ``macros branches --format json`` document, as the command built
    it as a dict before it wrote its text from the report's records."""
    return {
        "groups": [
            {
                "start_line": g.start_line,
                "end_line": g.end_line,
                "evaluated": g.evaluated,
                "arms": [
                    {
                        "kind": a.kind,
                        "condition": a.condition,
                        "line": a.line,
                        "taken": a.taken,
                    }
                    for a in g.arms
                ],
            }
            for g in report.groups
        ],
        "retained_ranges": [list(r) for r in report.retained_ranges],
        "retained_text": report.retained_text if show_retained else None,
    }


def _assert_branches_json_is_the_reference(source):
    for options in ([], ["--show-retained"]):
        argv = ["--format", "json", "macros", "branches", "-", *options]
        args = cli._parse_args(argv)
        report = dialectoscope.active_branches(cli._macro_env_from_args(args), source)
        expected = json.dumps(_reference_branches_doc(report, bool(options)), indent=2) + "\n"
        assert _main_on_stdin(argv, source) == (0, expected, "")


#: Text for conditions that are never evaluated, and for retained lines:
#: quotes, backslashes, DEL, non-ASCII and "},{".
_AWKWARD_TEXT = st.text(alphabet='ab "\\\x7fé\U0001f600},{', max_size=8)


@st.composite
def _awkward_lines(draw):
    """A line of awkward text that does not end in a backslash, sometimes
    split by a backslash-newline."""
    line = draw(_AWKWARD_TEXT) + "x"
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(line)))
        line = line[:cut] + "\\\n" + line[cut:]
    return line


@st.composite
def _awkward_headers(draw, depth=0):
    """Nested groups whose conditions, wherever they are not evaluated (in a
    skipped group, or after a taken arm), are awkward text."""
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        if depth == 2 or draw(st.booleans()):
            lines.append(draw(_awkward_lines()))
            continue
        skipped = draw(st.booleans())
        if skipped:  # an #if 0 whose arm holds a group of awkward conditions
            lines.append("#if 0")
            lines.append(draw(st.sampled_from(["#if ", "#ifdef ", "#ifndef "]))
                         + draw(_awkward_lines()))
        else:
            lines.append("#if 1")
        lines += draw(_awkward_headers(depth + 1))
        for _ in range(draw(st.integers(0, 2))):
            lines.append("#elif " + draw(_awkward_lines()))
            lines += draw(_awkward_headers(depth + 1))
        if draw(st.booleans()):
            lines.append("#else")
            lines += draw(_awkward_headers(depth + 1))
        lines.append("#endif")
        if skipped:
            lines.append("#endif")
    return lines


@settings(max_examples=150, deadline=None)
@given(_awkward_headers())
def test_branches_json_is_json_dumps_of_the_report_document(lines):
    _assert_branches_json_is_the_reference("".join(line + "\n" for line in lines))


@pytest.mark.parametrize("source", [
    "",
    "int x;\n#define A 1\n",
    # More groups than one piece of output holds.
    "".join(f"#if {i} % 3\na{i}\n#elif 0\n#else\n#  ifdef B\n#  endif\n#endif\n"
            for i in range(2500)),
], ids=["empty", "no-groups", "2500-groups"])
def test_branches_json_of_fixed_headers_is_json_dumps_of_the_report_document(source):
    _assert_branches_json_is_the_reference(source)


_SOUP_PIECES = st.sampled_from([
    "#if 1\n", "#if 0\n", "#if A\n", "#ifdef A\n", "#ifndef\n", "#elif 1\n", "#elif\n",
    "#else\n", "#endif\n", "#define A 1\n", "#define F(x,x) 1\n", "#undef A\n", "#foo\n",
    "#!x\n", "# 5 \"f.c\"\n", "#pragma x\n", "/*", "*/", "//", "\\\n", "\"", "'", "\x00",
    "é", "\U0001f600", "text\n", "\n", "#if 1/0\n", "#if (\n",
])


@settings(max_examples=300, deadline=None)
@given(st.lists(_SOUP_PIECES, max_size=20).map("".join))
def test_macros_branches_exits_0_or_2_on_directive_soups(source):
    code, out, err = _main_on_stdin(["--format", "json", "macros", "branches", "-"], source)
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert out == "" and err.startswith("error: ")


# --- include --------------------------------------------------------------------


def test_include_resolve_manifest(capsys, tmp_path):
    manifest = tmp_path / "fs.txt"
    manifest.write_text("/src/util.h\n/inc/util.h\n")
    base = [
        "include", "resolve", "--header", "util.h", "--includer", "/src/main.c",
        "--manifest", str(manifest), "--flags=-I/inc -nostdinc",
    ]
    code, doc = run_json(capsys, *base, "--form", "quote")
    assert code == 0
    assert doc["found"] == "/src/util.h"
    code, doc = run_json(capsys, *base, "--form", "angle")
    assert code == 0
    assert doc["found"] == "/inc/util.h"
    assert doc["search_order"] == ["/inc"]


def test_include_resolve_not_found_exits_1(capsys, tmp_path):
    manifest = tmp_path / "fs.txt"
    manifest.write_text("/inc/other.h\n")
    code, out, _ = run(
        capsys, "include", "resolve", "--header", "gone.h", "--form", "angle",
        "--includer", "/m.c", "--manifest", str(manifest), "--flags=-I/inc -nostdinc",
    )
    assert code == 1
    assert "not found" in out
    assert "miss" in out


def test_include_resolve_root_snapshot(capsys, tmp_path):
    (tmp_path / "inc").mkdir()
    (tmp_path / "inc" / "h.h").write_text("")
    code, doc = run_json(
        capsys, "include", "resolve", "--header", "h.h", "--form", "angle",
        "--includer", "m.c", "--root", str(tmp_path),
        f"--flags=-I{tmp_path}/inc -nostdinc",
    )
    assert code == 0
    assert doc["found"] == str(tmp_path / "inc" / "h.h")


def test_include_resolve_root_reads_relative_paths_against_cwd(capsys, tmp_path):
    # The root bounds what is found; --cwd is where the relative includer,
    # and so its directory, lies.
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "h.h").write_text("")
    argv = ["include", "resolve", "--header", "h.h", "--form", "quote", "--includer", "m.c",
            "--root", str(tmp_path), "--flags=-nostdinc"]
    code, doc = run_json(capsys, *argv, "--cwd", str(tmp_path / "sub"))
    assert code == 0
    assert doc["found"] == str(tmp_path / "sub" / "h.h")
    # Without --cwd the root is the working directory.
    code, doc = run_json(capsys, *argv)
    assert code == 1
    assert [p["candidate"] for p in doc["trace"]] == [str(tmp_path / "h.h")]


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_include_resolve_root_must_be_a_directory(capsys, tmp_path, kind):
    root = tmp_path / "missing"
    if kind == "file":
        root.write_text("")
    code, out, err = run(
        capsys, "include", "resolve", "--header", "h.h", "--form", "angle",
        "--includer", "m.c", "--root", str(root),
    )
    assert code == 2 and out == ""
    assert err == f"error: not a directory: {root}\n"


# --- promote --------------------------------------------------------------------


def test_promote_check_single_model(capsys):
    code, doc = run_json(
        capsys, "promote", "check", "--operand", "uint16_t",
        "--cast", "uint16_t", "--model", "8,16,32,32,64",
    )
    assert code == 0
    assert doc["verdicts"][0]["verdict"] == "RELIABLE"

    code, doc = run_json(
        capsys, "promote", "check", "--operand", "uint16_t", "--model", "8,16,32,32,64"
    )
    assert code == 1
    assert doc["verdicts"][0]["verdict"] == "UNRELIABLE"


def test_promote_check_all_models(capsys):
    code, doc = run_json(
        capsys, "promote", "check", "--operand", "uint16_t", "--all-models",
        "--simulate",
    )
    assert code == 1  # unreliable somewhere
    assert len(doc["verdicts"]) == 23
    unreliable = [v for v in doc["verdicts"] if v["verdict"] == "UNRELIABLE"]
    assert unreliable
    assert all(v["widths"][2] != 16 for v in unreliable)
    # Boundary-pair simulation confirms every verdict in both directions.
    assert all(v["simulation_agrees"] for v in doc["verdicts"])

    code, doc = run_json(
        capsys, "promote", "check", "--operand", "uint16_t", "--cast", "uint16_t",
        "--all-models", "--simulate",
    )
    assert code == 0
    assert all(v["verdict"] == "RELIABLE" for v in doc["verdicts"])


def test_promote_check_rejects_signed_operand(capsys):
    code, _, err = run(capsys, "promote", "check", "--operand", "int")
    assert code == 2
    assert "unsigned" in err


# --- space ----------------------------------------------------------------------


def test_space_count(capsys):
    code, out, _ = run(capsys, "space", "count")
    assert code == 0
    assert "2^112 = 5192296858534827628530496329220096" in out
    assert "≈5.19 × 10^33" in out
    code, doc = run_json(capsys, "space", "count")
    assert doc["exact"] == "5192296858534827628530496329220096"
    assert doc["scientific"] == "5.19 × 10^33"


def test_space_count_is_bounded(capsys):
    code, doc = run_json(capsys, "space", "count", "--behaviors", "14284")
    assert code == 0
    assert len(doc["exact"]) == 4300
    assert doc["e_notation"] == "8.17e4299"
    for behaviors in ("14285", "5000000"):
        code, out, err = run(capsys, "space", "count", "--behaviors", behaviors)
        assert code == 2 and out == ""
        assert err == f"error: behavior count must be <= 14284, got {behaviors}\n"


def test_space_models(capsys):
    code, out, _ = run(capsys, "space", "models")
    assert code == 0
    assert "23 models" in out
    code, doc = run_json(capsys, "space", "models")
    assert len(doc["models"]) == 23
    assert [8, 16, 32, 64, 64] in doc["models"]


# --- build ----------------------------------------------------------------------


def test_build_audit_cli(capsys, tmp_path):
    db = tmp_path / "compile_commands.json"
    db.write_text(compile_db([("a.c", "-O2"), ("b.c", "-O2 -funsigned-char")]))
    code, out, _ = run(capsys, "build", "audit", str(db))
    assert code == 1
    assert "char_is_signed" in out and "[high]" in out
    code, out, _ = run(capsys, "build", "audit", str(db), "--fail-on", "none")
    assert code == 0
    code, doc = run_json(capsys, "build", "audit", str(db), "--fail-on", "none")
    assert doc["inconsistencies"][0]["dimension"] == "char_is_signed"


def test_build_audit_fail_on_threshold(capsys, tmp_path):
    db = tmp_path / "cc.json"
    db.write_text(compile_db([("a.c", "-std=c99"), ("b.c", "-std=c11")]))
    code, _, _ = run(capsys, "build", "audit", str(db))
    assert code == 1  # medium finding, default threshold medium
    code, _, _ = run(capsys, "build", "audit", str(db), "--fail-on", "high")
    assert code == 0


def test_build_audit_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(compile_db([("a.c", "")])))
    code, doc = run_json(capsys, "build", "audit", "-")
    assert code == 0
    assert doc["per_tu"][0]["file"] == "a.c"


def test_build_check_cli(capsys, tmp_path):
    db = tmp_path / "cc.json"
    db.write_text(compile_db([("a.c", "-O2 -std=gnu17")]))
    code, doc = run_json(capsys, "build", "check", str(db), "--reference", "411")
    assert code == 0
    assert doc["mismatches"] == []
    code, doc = run_json(capsys, "build", "check", str(db), "--reference", "410")
    assert code == 1
    assert [m["dimension"] for m in doc["mismatches"]] == ["char_is_signed"]
    code, doc = run_json(
        capsys, "build", "check", str(db),
        "--reference-flags=-O2 -std=gnu17",
    )
    assert code == 0


def test_build_check_requires_exactly_one_reference(capsys, tmp_path):
    db = tmp_path / "cc.json"
    db.write_text(compile_db([("a.c", "")]))
    with pytest.raises(SystemExit):
        main(["build", "check", str(db)])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["build", "check", str(db), "--reference", "0", "--reference-flags=-O2"])
    capsys.readouterr()


def test_build_audit_isolates_unparseable_tu(capsys, tmp_path):
    db = tmp_path / "cc.json"
    db.write_text(compile_db([("a.c", "-O2"), ("b.c", "-O2 -std=c2x"), ("c.c", "-O2")]))
    code, doc = run_json(capsys, "build", "audit", str(db))
    assert code == 1
    assert [r["status"] for r in doc["per_tu"]] == ["ok", "unauditable", "ok"]
    assert doc["unauditable"] == ["b.c"]
    assert doc["inconsistencies"] == []
    code, out, _ = run(capsys, "build", "audit", str(db))
    assert code == 1
    assert "unauditable: b.c (profile 'gcc8-x86_64' does not know -std=c2x" in out


def _mplab_db(tmp_path, *units):
    db = tmp_path / "cc.json"
    db.write_text(compile_db(units, compiler="mcc18"))
    return str(db)


def test_build_audit_with_profile_without_flag_spellings(capsys, tmp_path):
    # The per-TU rows keep their values and carry no canonical flags.
    db = _mplab_db(tmp_path, ("k.c", "-p18f258"))
    code, doc = run_json(capsys, "--profile", "mplab-c18", "build", "audit", db)
    assert code == 0
    assert doc["per_tu"] == [{"file": "k.c", "status": "ok", "value": 225, "flags": []}]
    code, out, err = run(capsys, "--profile", "mplab-c18", "build", "audit", db)
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [f"{'k.c':<28}  225    -", "no findings"]

    db = _mplab_db(tmp_path, ("k.c", "-p18f258"), ("o.c", "-O2"))
    code, doc = run_json(capsys, "--profile", "mplab-c18", "build", "audit", db)
    assert code == 1
    assert [r["value"] for r in doc["per_tu"]] == [225, 233]
    assert [i["dimension"] for i in doc["inconsistencies"]] == ["optimized"]


def test_build_check_with_profile_without_flag_spellings(capsys, tmp_path):
    db = _mplab_db(tmp_path, ("k.c", "-p18f258"))
    for reference in (["--reference", "225"], ["--reference-flags=-p18f452"]):
        code, doc = run_json(capsys, "--profile", "mplab-c18", "build", "check", db, *reference)
        assert code == 0
        assert doc["mismatches"] == [] and doc["per_tu"][0]["flags"] == []
    code, doc = run_json(capsys, "--profile", "mplab-c18", "build", "check", db,
                         "--reference", "224")
    assert code == 1
    assert [m["dimension"] for m in doc["mismatches"]] == ["char_is_signed"]
    code, out, _ = run(capsys, "--profile", "mplab-c18", "build", "check", db,
                       "--reference", "224")
    assert code == 1
    assert f"{'k.c':<28}  225    -" in out
    assert "mismatch [high] k.c char_is_signed: TU=true reference=false" in out


def test_build_reports_build_no_row_records(capsys, tmp_path, monkeypatch):
    # Rows are written from each dialect's facts: no per-TU record, no
    # document.
    def unused(*args):
        raise AssertionError("row record or document built")

    for name in ("Mismatch", "PerTuRow", "AuditReport.to_json_dict"):
        monkeypatch.setattr(f"dialectoscope.build_audit.{name}", unused)
    db = tmp_path / "cc.json"
    db.write_text(compile_db([("a.c", "-O2"), ("b.c", "-std=c2x"), ("c.c", "-m32")]))
    for output in ("json", "human"):
        code, out, _ = run(capsys, "--format", output, "build", "audit", str(db))
        assert code == 1 and "pointer_width_64" in out
        code, out, _ = run(capsys, "--format", output, "build", "check", str(db),
                           "--reference", "228")
        assert code == 1 and "char_is_signed" in out


def test_build_reports_are_written_a_chunk_of_rows_at_a_time(tmp_path):
    db = tmp_path / "cc.json"
    db.write_text(compile_db([(f"f{i}.c", "-std=c2x" if i % 5 == 0 else f"-O{i % 2} -m32")
                              for i in range(2 * cli._CHUNK + 1)]))
    for argv in (["audit", str(db)], ["check", str(db), "--reference", "228"]):
        for output, row in ("json", '"file": '), ("human", "\n"):
            args = cli._parse_args(["--format", output, "build", *argv])
            rows = [piece.count(row) for piece in args.func(args)[output == "human"]()]
            assert max(rows) <= cli._CHUNK < sum(rows)


def test_build_json_report_skips_human_text(capsys, tmp_path, monkeypatch):
    def unused(report):
        raise AssertionError("human text built for --format json")

    monkeypatch.setattr("dialectoscope.cli._audit_text", unused)
    db = tmp_path / "cc.json"
    db.write_text(compile_db([("a.c", "-O2"), ("b.c", "")]))
    code, doc = run_json(capsys, "build", "audit", str(db))
    assert code == 1 and doc["inconsistencies"]


@pytest.mark.parametrize("argv", [["build", "audit", "deep.json"],
                                  ["--profile", "deep", "probe", "flags", "1"]],
                         ids=["database", "profile"])
def test_deeply_nested_json_is_an_input_error(capsys, tmp_path, monkeypatch, argv):
    # json raises RecursionError, not a decoding error, on deep nesting.
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DIALECTOSCOPE_PROFILE_DIR", str(tmp_path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "invalid JSON: " in err


def test_deeply_nested_builtin_profile_is_a_profile_error(tmp_path, monkeypatch):
    (tmp_path / "gcc8-x86_64.json").write_text("[" * 100_000 + "]" * 100_000)
    monkeypatch.setattr(profiles, "DATA_DIR", str(tmp_path))
    monkeypatch.delenv("DIALECTOSCOPE_PROFILE_DIR", raising=False)
    with pytest.raises(profiles.ProfileError, match="invalid JSON"):
        profiles.load_profile("gcc8-x86_64")


def test_readme_profile_example_loads():
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as fh:
        block = re.search(r"## Compiler profiles.*?```json\n(.*?)```", fh.read(), re.S)[1]
    example = profiles.profile_from_dict(json.loads(block), source="README.md")
    # Complete: every dialect value renders to flags that derive it again.
    for value in range(768):
        flags = dialectoscope.flags_for_value(value, example)
        inv = dialectoscope.parse_invocation(flags, env={}, profile=example)
        assert dialectoscope.encode_config(inv.dialect) == value


@pytest.mark.parametrize(
    "flags,message",
    [("-std=c2x", "profile 'gcc8-x86_64' does not know -std=c2x"),
     ("-DX='a", "No closing quotation")],
)
def test_build_check_bad_reference_flags_is_an_input_error(capsys, tmp_path, flags, message):
    db = tmp_path / "cc.json"
    db.write_text(compile_db([("a.c", "-O2")]))
    code, out, err = run(capsys, "build", "check", str(db), f"--reference-flags={flags}")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_build_audit_missing_file(capsys):
    code, _, err = run(capsys, "build", "audit", "/no/such/file.json")
    assert code == 2
    assert "error" in err


# --- misc -----------------------------------------------------------------------


def test_profiles_listing(capsys):
    code, out, _ = run(capsys, "profiles")
    assert code == 0
    assert "gcc8-x86_64" in out and "mplab-c18" in out


def test_unknown_profile(capsys):
    code, _, err = run(capsys, "--profile", "nope", "probe", "flags", "0")
    assert code == 2
    assert "unknown profile" in err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2
    capsys.readouterr()


#: The defaults of gcc8-x86_64.json, which a row of the test below breaks one at a time.
_GCC_DEFAULTS = {
    "char_is_signed": True, "bitfield_is_signed": True, "short_enums": False, "optimized": False,
    "pointer_width_64": True, "freestanding": False, "std": "gnu17",
}


@pytest.mark.parametrize(
    "key,value",
    [
        ("std_names", [1]),
        ("std_names", {"c90": 1}),
        ("std_names", {"c90": {"class": [3], "mode": "strict"}}),
        ("std_classes", ["c11"]),
        ("std_classes", {"0": "c11"}),
        ("std_classes", {"x": {"strict": "c11", "gnu": "gnu11"}}),
        ("std_classes", {"0": {"strict": ["c11"], "gnu": "gnu11"}}),
        ("defaults", ["gnu17"]),
        ("flags", ["-m32"]),
        ("flags", {"-m32": "pointer_width_64"}),
        ("flags", {"-m32": {"set": ["pointer_width_64"]}}),
        ("flags", {"-m32": {"define": ["X"]}}),
        ("flags", {"-ansi": {"std": 90}}),
        ("macros", ["__GNUC__"]),
        ("compiler_basenames", "gcc"),
        ("compiler_basenames", [1]),
        ("system_include_dirs", "/usr/include"),
        ("std_classes", {"0": {"strict": "c11", "gnu": "gnu11", "stdc_version": 201112}}),
        ("canonical", ["-fsigned-char"]),
        ("flags", {"-ansi": {"std": "c99x"}}),
        ("std_names", None),  # the required key deleted
        ("defaults", {**_GCC_DEFAULTS, "optimized": 0}),
        ("defaults", {**_GCC_DEFAULTS, "std": "c99x"}),
        ("flags", {"-m32": {"set": {"pointer_width_32": True}}}),
        ("flags", {"-m32": {"set": {"pointer_width_64": 0}}}),
        ("std_names", {"gnu17": {"class": 2, "mode": "posix"}}),
        ("canonical", {"char_signed": 1}),
        # Class 2, which value 443 holds, has no canonical name.
        ("std_classes", {"0": {"strict": "c11", "gnu": "gnu11"}}),
    ],
)
def test_malformed_profile_is_an_input_error(capsys, tmp_path, key, value):
    data = json.loads((resources.files("dialectoscope") / "data" / "gcc8-x86_64.json").read_text())
    data.update({"name": "bad", key: value})
    if value is None:
        del data[key]
    (tmp_path / "bad.json").write_text(json.dumps(data))
    code, out, err = run(capsys, "--profile", "bad", "--profile-dir", str(tmp_path),
                         "probe", "flags", "443")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err
    if key == "flags" and isinstance(value, dict):
        assert repr(next(iter(value))) in err  # names the flag


def test_bad_canonical_section_names_the_keys(capsys, tmp_path):
    data = json.loads((resources.files("dialectoscope") / "data" / "gcc8-x86_64.json").read_text())
    del data["canonical"]["char_signed"]
    data["canonical"]["x"] = "-fx"
    data["name"] = "bad"
    (tmp_path / "bad.json").write_text(json.dumps(data))
    code, out, err = run(capsys, "--profile", "bad", "--profile-dir", str(tmp_path),
                         "probe", "flags", "443")
    assert (code, out) == (2, "")
    assert err.endswith("bad canonical section: unknown key 'x'; missing 'char_signed'\n")
    assert "__new__" not in err


def test_profile_without_flag_spellings_refuses_to_render(capsys):
    code, _, err = run(capsys, "--profile", "mplab-c18", "probe", "flags", "100")
    assert code == 2
    assert "canonical flag spellings" in err


def test_error_after_partial_work_prints_no_report(capsys):
    # The dialect parses, but the canonical flags cannot be rendered.
    for fmt in ("human", "json"):
        code, out, err = run(capsys, "--format", fmt, "--profile", "mplab-c18",
                             "invocation", "parse", "--", "-O2")
        assert code == 2
        assert out == ""
        assert "canonical flag spellings" in err


# --- start-up: what a call loads and how it parses ------------------------------

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dialectoscope.__file__)))


#: Modules that none of the one-question calls below runs.
NOT_ON_START_PATH = (
    "dialectoscope.build_audit",
    "dialectoscope.macro_env",
    "dialectoscope.promotion",
    "dialectoscope.include_resolver",
    "dataclasses",
    "decimal",
    "hashlib",
    # A valid command line is read from the COMMANDS table.
    "argparse",
    "gettext",
    "locale",
)


@pytest.mark.parametrize(
    "argv,uses",
    [
        (["probe", "flags", "443"], ()),
        (["invocation", "parse", "--", "-O2"], ()),
        (["space", "count"], ("decimal",)),  # decimal_scientific rounds with it
        (["space", "models"], ()),
        (["probe", "emit"], ()),
    ],
)
def test_subcommand_loads_only_what_it_runs(argv, uses):
    # Modules loaded before the package (by site, say) do not count.
    code = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "from dialectoscope.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = main(sys.argv[1:])\n"
        "print(json.dumps([status, sorted(set(sys.modules) - before)]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    status, loaded = json.loads(done.stdout)
    assert status == 0
    assert sorted(set(NOT_ON_START_PATH) & set(loaded) - set(uses)) == []


def _valid_argv(parser):
    """Every golden case's argv that the full parser accepts."""
    for argv, _ in CASES.values():
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                parser.parse_args(argv)
        except SystemExit:
            continue
        yield argv


def test_table_parse_is_the_full_parse(monkeypatch):
    parser = cli.build_parser()
    argvs = list(_valid_argv(parser))
    argvs += [["--format", "json", *a] for a in argvs]
    argvs += [["--profile=mplab-c18", "--profile-dir", "d", *a] for a in argvs]
    full = [vars(parser.parse_args(a)) for a in argvs]
    # The golden cases run every row of the table.
    ran = {(ns["command"], ns.get("subcommand")) for ns in full}
    assert ran == {row[:2] for row in cli.COMMANDS}

    def no_full_parser():
        raise AssertionError("a valid command line needed the full parser")

    monkeypatch.setattr(cli, "build_parser", no_full_parser)
    assert [vars(cli._parse_args(a)) for a in argvs] == full


def _full_vars(parser, argv):
    """The vars of the full parser's namespace of argv, or None where it
    exits (help, or a usage error)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv))
    except SystemExit:
        return None


#: True three times in four: where a command line may hold odd readings,
#: each place that may hold one does so once in four.
_MOSTLY = st.integers(0, 3).map(bool)


def _values(kwargs):
    """Values to draw for an argument: valid ones, negative numbers and a
    lone dash among them, and odd ones, which argparse rejects or reads
    otherwise."""
    if kwargs.get("type") is int:
        return ["443", "0", "-1"], ["-1.5", "x", "--"]
    if "choices" in kwargs:
        return list(kwargs["choices"]), ["xml", "--"]
    return ["x", "A=1", "", "-", "-1", "db.json"], ["--", "-O2", "-O2 -std=c99", "--pro"]


@st.composite
def _spelled(draw, argument, usual):
    """The argv words that give ``argument``, an ``_arg`` pair, once: in one
    of the spellings argparse reads, or, where ``usual`` draws False, with
    an odd value, its value left out or its name abbreviated."""
    names, kwargs = argument
    valid, odd = _values(kwargs)
    mostly = draw(usual)
    name, value = names[0], draw(st.sampled_from(valid if draw(usual) else odd))
    if kwargs.get("nargs") == "...":
        spellings = [[value, "-O2"], ["--", value, "--flags=x"], ["--", "--"]]
        return draw(st.sampled_from(spellings if mostly else [[value, "--pro"]]))
    if name[:1] != "-":
        return [value]
    if kwargs.get("action") == "store_true":
        return [name] if mostly else draw(st.sampled_from([[f"{name}={value}"], [name[:-2]]]))
    if mostly:
        # --opt value and --opt=value; -DX, -D X and -D=X for a short option.
        spellings = [[name, value], [f"{name}={value}"]]
        return draw(st.sampled_from(spellings + [[name + value]] * (len(name) == 2)))
    # No value, or an abbreviation: unique, or of two options.
    return draw(st.sampled_from([[name], [name[:-2], value]]))


#: Words that spell no argument: help, a "--", an abbreviation of two
#: global options, and a word left over.
_STRAY = [["-h"], ["--help"], ["--he"], ["--"], ["--pro"], ["--=x"], ["x"], ["-"]]


@st.composite
def _command_lines(draw):
    """An argv for one ``COMMANDS`` row.  Each global option and optional
    argument is given no, one or two times, a positional or required
    argument and one member of an exclusive group once, and the row's
    arguments come in any order.  One line in three may hold odd readings:
    a required argument missing or given twice, an odd spelling, a global
    option after the group name, a stray word, or a wrong or missing
    subcommand; the other lines are valid, so the two parses are compared."""
    group, name, _, _, arguments = draw(st.sampled_from(cli.COMMANDS))
    usual = _MOSTLY if draw(st.integers(0, 2)) == 0 else st.just(True)

    def given(specs):
        pieces = []
        for spec in specs:
            if isinstance(spec, list):
                # An exclusive group: one member, or now and then none or all.
                one = draw(st.sampled_from(spec))
                members = [one] if draw(usual) else draw(st.sampled_from([[], spec]))
                pieces += [draw(_spelled(member, usual)) for member in members]
                continue
            names, kwargs = spec
            if not draw(usual):
                count = draw(st.sampled_from([0, 2]))
            elif kwargs.get("required") or names[0][:1] != "-":
                count = 1
            else:
                count = draw(st.sampled_from([0, 0, 1, 2]))
            pieces += [draw(_spelled(spec, usual)) for _ in range(count)]
        return pieces

    front = given(cli._global_options())
    back = given(arguments)
    if not draw(usual):
        back.append(draw(st.sampled_from(_STRAY)))
    if front and not draw(usual):
        back.append(front.pop())
    head = [group] if name is None else [group, name]
    if not draw(usual):
        head = draw(st.sampled_from([[group], [group, "nope"]]))
    return [w for piece in front for w in piece] + head + [
        w for piece in draw(st.permutations(back)) for w in piece
    ]


@settings(max_examples=400, deadline=None)
@given(_command_lines())
@example(["space", "count", "--behaviors", "-1"])
@example(["build", "check", "db.json", "--reference", "228"])
@example(["--profile-dir", "a", "--profile-dir=b", "macros", "show", "-DX", "-D", "Y", "-D=Z"])
@example(["--format", "json", "invocation", "parse", "--flags=-m32", "--", "--", "-O2"])
@example(["invocation", "parse", "a.c", "--pro"])
@example(["probe", "flags", "1", "--format", "json"])
@example(["macros", "show", "--flags=--"])
@example(["--profi", "x", "profiles"])
@example(["probe", "value", "--env", "A=1"])
@example(["build", "check", "db.json", "--reference", "1", "--reference-flags=-O2"])
@example(["--form", "json", "profiles"])
@example(["macros", "branches", "--show-retained=1", "h.h"])
def test_table_parse_is_the_full_parse_or_none(argv):
    # Both parsers read this one list of global options, so the default of
    # --profile-dir is the one list either would extend if it extended one.
    options = cli._global_options()
    with mock.patch.object(cli, "_global_options", lambda: options):
        full = _full_vars(cli.build_parser(), argv)
        table = cli._table_parse(argv)
    assert options[1][1]["default"] == []
    if full is None:
        assert table is None
    elif table is not None:
        assert vars(table) == full


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        ["probe", "--help"],
        ["probe", "flags", "-h"],
        ["probe", "flags", "--he"],  # an abbreviation of --help
        ["--format", "json", "profiles", "--help"],
        ["probe", "flags"],
        ["probe", "flags", "x"],
        ["probe", "flag", "1"],
        ["probe", "flags", "1", "2"],
        ["--format", "xml", "space", "count"],
        ["--profile"],
        ["build", "check", "db.json"],
        [],
        # Readings the table declines: a global option after the group
        # name, an option with no value, and two of an exclusive group.
        ["probe", "flags", "1", "--format", "json"],
        ["macros", "show", "-D"],
        ["build", "check", "db.json", "--reference", "1", "--reference-flags=-O2"],
    ],
)
def test_help_and_usage_come_from_the_full_parser(argv):
    def printed(call):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc:
                call(argv)
        return exc.value.code, out.getvalue(), err.getvalue()

    assert printed(main) == printed(cli.build_parser().parse_args)


#: A cold call of the command line under Python's development mode, with
#: warnings as errors.  The command line runs with the cyclic collector off,
#: so a file or pipe it left unclosed would go unnoticed: here its
#: ResourceWarning reaches standard error.
DEV_MODE_MAIN = [
    sys.executable, "-X", "dev", "-W", "error",
    "-c", "import sys; from dialectoscope.cli import main; sys.exit(main())",
]


def _retained_is_the_kept_lines(out):
    kept = "".join(f"x{i}\n" if i % 3 else "y\n" for i in range(3000))
    return json.loads(out)["retained_text"] == kept


@pytest.mark.parametrize(
    "argv,status,err,check_out",
    [
        (["--format", "json", "probe", "flags", "443"], 0, "", None),
        (["--format", "json", "probe", "emit"], 0, "", None),
        # Each TU defines its own ID, which shares the effect of the head
        # -DID=, and one TU's -DA=## is rejected as GCC rejects it.
        (["--format", "json", "build", "check", "DB", "--reference", "228"], 1, "", None),
        # The reports of 3000 groups span several output chunks; the human
        # one is streamed a group at a time, and the retained text is joined
        # only when it is printed.
        (["--format", "json", "macros", "branches", "GROUPS"], 0, "", None),
        (["--format", "human", "macros", "branches", "GROUPS"], 0, "", None),
        (["--format", "json", "macros", "branches", "--show-retained", "GROUPS"], 0, "",
         _retained_is_the_kept_lines),
        pytest.param(
            ["include", "resolve", "--root", "/usr", "--header", "stdio.h", "--form", "angle",
             "--includer", "m.c", "--flags=-I/usr/include"], 0, "",
            lambda out: "resolved: /usr/include/stdio.h" in out.splitlines(),
            marks=pytest.mark.skipif(not os.path.isfile("/usr/include/stdio.h"),
                                     reason="no /usr/include/stdio.h"),
        ),
        # An input error: its one line, and no traceback.
        (["macros", "eval", "__has_include"], 2, "error: missing '(' after '__has_include'\n",
         None),
        # Help comes from the full parser, which only such a call imports.
        (["--help"], 0, "", lambda out: out.startswith("usage: dialectoscope")),
    ],
    ids=["probe-flags", "probe-emit", "build-check", "branches-json", "branches-human",
         "branches-retained", "include-resolve-root", "eval-bare-has-include", "help"],
)
def test_calls_under_development_mode(tmp_path, argv, status, err, check_out):
    inputs = {"DB": tmp_path / "db.json", "GROUPS": tmp_path / "groups.h"}
    inputs["DB"].write_text(compile_db(
        [(f"f{i}.c", f"-O2 -DID={i}" + (" -DA=##" if i == 1500 else "")) for i in range(3000)]
    ))
    inputs["GROUPS"].write_text(
        "".join(f"#if {i} % 3\nx{i}\n#elif 0\n#else\ny\n#endif\n" for i in range(3000))
    )
    done = subprocess.run(
        [*DEV_MODE_MAIN, *(str(inputs.get(a, a)) for a in argv)],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (status, err)
    if check_out is not None:
        assert check_out(done.stdout)


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_pipe_ends_quietly(tmp_path, unbuffered):
    # About 300 kB of JSON for the audit, and 3 MB for the check, whose
    # 2000 rows and 16 000 mismatches span several output chunks: more than
    # a pipe holds, so each call is still writing when the reader goes.
    db = tmp_path / "db.json"
    db.write_text(compile_db([(f"f{i}.c", "-O2") for i in range(2000)]))
    # Each call ends with its own status: the audit finds nothing, and the
    # check finds that every TU differs from the reference.
    for argv, status in (["audit", str(db)], 0), (["check", str(db), "--reference", "228"], 1):
        proc = subprocess.Popen(
            [*DEV_MODE_MAIN, "--format", "json", "build", *argv],
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": unbuffered},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(10) == b'{\n  "per_t'
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == status
        assert err == b""


# --- the cyclic garbage collector ------------------------------------------------


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "argv,outcome",
    [
        (["probe", "flags", "443"], 0),
        (["promote", "check", "--operand", "uint16_t", "--all-models"], 1),
        (["probe", "explain", "9999"], 2),  # an input error, returned
        (["probe", "flags", "x"], SystemExit),  # a usage error, raised by argparse
        (["--format", "json", "space", "models"], "closed pipe"),
        (["probe", "flags", "1"], TypeError),
    ],
)
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, enabled, argv, outcome):
    if outcome == "closed pipe":  # stdout is a pipe whose reader has gone
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout = open(write_end, "w")
        monkeypatch.setattr(sys, "stdout", stdout)
    if outcome is TypeError:  # a fault in the program, not in the input
        monkeypatch.setattr(dialectoscope.probe, "flags_for_value", None)
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        if isinstance(outcome, type):
            with pytest.raises(outcome):
                main(argv)
        else:
            code = main(argv)
        state = gc.isenabled(), gc.get_freeze_count()
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert state == (enabled, frozen)
    if outcome == "closed pipe":
        # main pointed stdout at the null device when the write failed.
        assert os.path.samestat(os.fstat(stdout.fileno()), os.stat(os.devnull))
        stdout.close()
        assert code == 0
    elif isinstance(outcome, int):
        assert code == outcome
    capsys.readouterr()


def test_a_process_that_called_main_freezes_its_heap_at_exit():
    # atexit runs its hooks last registered first, so this one runs after
    # the hook that main registered, however many calls registered it.
    code = (
        "import atexit, gc\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        "from dialectoscope.cli import main\n"
        "main(['probe', 'flags', '1'])\n"
        "hooks = atexit._ncallbacks()\n"
        "main(['probe', 'flags', '2'])\n"
        "print('hooks', atexit._ncallbacks() - hooks)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines()[-2:] == ["hooks 0", "frozen True"]


def _cycles_left_by(argv):
    """How many objects gc.collect() finds unreachable after main(argv)."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    return gc.collect()


@pytest.mark.parametrize("subcommand", [["audit"], ["check", "--reference", "228"]])
def test_cycles_left_by_a_build_report_do_not_grow_with_the_database(tmp_path, subcommand):
    # With the collector off for the call, cyclic garbage made per TU would
    # stay until the call ends; a fixed count shows that none is made.
    counts = []
    for tus in (200, 2000):
        db = tmp_path / f"db{tus}.json"
        db.write_text(compile_db([(f"f{i}.c", f"-O{i % 3} -DX{i}=1 -m32") for i in range(tus)]))
        counts.append(_cycles_left_by(["--format", "json", "build", subcommand[0], str(db),
                                       *subcommand[1:]]))
    assert counts[0] == counts[1]


def test_cycles_left_by_a_branch_report_do_not_grow_with_the_header(tmp_path):
    counts = []
    for groups in (20, 2000):
        header = tmp_path / f"h{groups}.h"
        header.write_text("".join(
            f"#define M{i} {i}\n#if M{i} % 3\n#  ifdef M{i}\nx{i}\n#  endif\n"
            "#elif 0\n#else\ny\n#endif\n"
            for i in range(groups)
        ))
        counts.append(_cycles_left_by(["--format", "json", "macros", "branches", str(header)]))
    assert counts[0] == counts[1]


# --- JSON rendering -------------------------------------------------------------


def _streamed_json(*argv):
    """The ``--format json`` text of a report written a piece at a time."""
    args = cli._parse_args(["--format", "json", *argv])
    return "".join(args.func(args).doc())


def test_json_text_of_cli_reports(tmp_path):
    db = tmp_path / "cc.json"
    db.write_text(compile_db([("a.c", "-O2 -funsigned-char"), ("b.c", "-O2 -std=c2x"),
                              ("c.c", "-std=c99 -m32"), ("d.c", "-std=c11")]))
    texts = [_streamed_json("build", "check", str(db), "--reference", "228")]
    check = json.loads(texts[-1])
    unauditable = {"file": "b.c", "status": "unauditable", "value": None, "flags": []}
    assert check["per_tu"][1] == unauditable
    assert len(check["mismatches"]) > 4
    texts.append(_streamed_json("build", "audit", str(db)))
    audit = json.loads(texts[-1])
    assert audit["inconsistencies"]
    assert all(len(f["values"]) > 1 for f in audit["inconsistencies"])
    header = tmp_path / "h.h"
    header.write_text(
        "#if defined(__OPTIMIZE__)\n#  if __SIZEOF_LONG__ == 8\nlong64\n#  elif 0\n#  else\nother\n"
        "#  endif\n#else\n#  ifdef X\nx\n#  endif\n#endif\nint tail;\n"
    )
    texts.append(_streamed_json("macros", "branches", "--flags=-O2", str(header), "--show-retained"))
    branches = json.loads(texts[-1])
    arms = [arm for group in branches["groups"] for arm in group["arms"]]
    assert None in [arm["condition"] for arm in arms] and None in [arm["taken"] for arm in arms]
    assert branches["retained_ranges"] == [[6, 6], [13, 13]]
    for text in texts:
        assert text == json.dumps(json.loads(text), indent=2)


def _reference_audit_text(report):
    """The human text of a report as it was written from the report's
    records, before rows were rendered per dialect."""
    text = ["file                          value  flags"]
    unauditable = []
    for row in report.per_tu:
        if row.status == "ok":
            flags = " ".join(row.flags) or "-"
            text.append(f"{row.file:<28}  {row.value:<5}  {flags}")
        else:
            text.append(f"{row.file:<28}  -      (unauditable)")
            unauditable.append(f"unauditable: {row.file} ({row.reason})")
    for inc in report.inconsistencies:
        parts = "; ".join(f"{value}: {', '.join(files)}" for value, files in inc.partition)
        text.append(f"inconsistency [{inc.severity.name.lower()}] {inc.dimension}: {parts}")
    for mis in report.mismatches:
        text.append(
            f"mismatch [{mis.severity.name.lower()}] {mis.file} {mis.dimension}:"
            f" TU={mis.tu_value} reference={mis.reference_value}"
        )
    text += unauditable
    if not report.inconsistencies and not report.mismatches and not report.unauditable:
        text.append("no findings")
    return "".join(f"{line}\n" for line in text)


#: Per profile: the compilers an entry may name, all but the last covered
#: by the profile, and the words its flags are drawn from, the last two of
#: which make a TU unauditable.
_BUILD_WORDS = {
    "gcc8-x86_64": (["gcc", "/usr/bin/gcc", "clang"],
                    ["-O2", "-O0", "-m32", "-funsigned-char", "-fshort-enums", "-ansi",
                     "-std=c99", "-std=gnu11", "-ffreestanding", "-funsigned-bitfields",
                     "-std=c2x", "-D9x"]),
    # No canonical spellings, so every row's flags are empty.
    "mplab-c18": (["mcc18", "gcc"], ["-p18f258", "-p18f452", "-O2", "-D9x"]),
}


@st.composite
def _build_cases(draw):
    profile = draw(st.sampled_from(sorted(_BUILD_WORDS)))
    compilers, words = _BUILD_WORDS[profile]
    names = st.text(alphabet='ab.c é"\\\U0001f600\t', min_size=1, max_size=8)
    entries = draw(st.lists(
        st.tuples(names, st.sampled_from(compilers), st.lists(st.sampled_from(words), max_size=4)),
        min_size=1, max_size=5,
    ))
    copies = draw(st.sampled_from([1, 1, 1, cli._CHUNK // 2 + 1]))
    reference = draw(st.one_of(
        st.none(),
        st.tuples(st.just("value"), st.integers(0, 767)),
        st.tuples(st.just("flags"), st.lists(st.sampled_from(words[:-2]), max_size=3).map(" ".join)),
    ))
    return profile, entries, copies, reference, draw(st.sampled_from(["medium", "high", "none"]))


_CASE_NAMES = [("a.c", "gcc", ["-O2"]), ('é"\\x.c', "clang", []), ("b.c", "gcc", ["-D9x"]),
               ("c.c", "gcc", ["-std=c99", "-m32"])]


@settings(max_examples=60, deadline=None)
@given(_build_cases())
@example(("gcc8-x86_64", _CASE_NAMES, 1, ("value", 228), "medium"))  # unauditable rows
@example(("gcc8-x86_64", _CASE_NAMES, cli._CHUNK // 2 + 1, ("value", 228), "high"))
@example(("gcc8-x86_64", _CASE_NAMES, cli._CHUNK // 2 + 1, None, "medium"))
@example(("gcc8-x86_64", [("a.c", "gcc", ["-O2"])], 1, ("flags", "-O2"), "medium"))  # no findings
@example(("mplab-c18", [("k.c", "mcc18", ["-p18f452"]), ("j.c", "gcc", [])], 1,
          ("value", 224), "medium"))
def test_build_reports_are_the_text_of_their_records(case):
    from dialectoscope import (Severity, audit, check_against, decode_value, load_build,
                               load_profile, parse_invocation)

    profile_name, entries, copies, reference, fail_on = case
    document = json.dumps([
        {"directory": "/p", "file": file, "arguments": [compiler, *words, "-c", "x.c"]}
        for file, compiler, words in entries
    ] * copies)
    profile = load_profile(profile_name)
    capture = load_build(document, profile)
    argv = ["--profile", profile_name, "build"]
    if reference is None:
        report = audit(capture)
        argv += ["audit", "-"]
    elif reference[0] == "value":
        report = check_against(capture, decode_value(reference[1]))
        argv += ["check", "-", "--reference", str(reference[1])]
    else:
        dialect = parse_invocation(reference[1].split(), profile=profile, env={}).dialect
        report = check_against(capture, dialect)
        argv += ["check", "-", f"--reference-flags={reference[1]}"]
    status = 1 if fail_on != "none" and report.has_findings(Severity[fail_on.upper()]) else 0
    expected = {"json": json.dumps(report.to_json_dict(), indent=2) + "\n",
                "human": _reference_audit_text(report)}
    for output, text in expected.items():
        code, out, _ = _main_on_stdin(["--format", output, *argv, "--fail-on", fail_on], document)
        assert (code, out) == (status, text)
