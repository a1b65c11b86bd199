"""Golden snapshots of the command line: exit status and standard output
of every subcommand and error path, in both ``--format human`` and
``--format json``, compared byte for byte with ``cli_golden.json``.

The error message on standard error is recorded too, except for argparse
usage errors, whose wording belongs to the Python version.  Temporary
paths are written as ``$TMP``.

After an intended change of output, rewrite the snapshots with

    PYTHONPATH=src python tests/test_cli_golden.py --update

and review the diff of ``tests/cli_golden.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import DISPATCH_SOURCE, compile_db  # noqa: E402
from dialectoscope.cli import main  # noqa: E402

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
FORMATS = ("human", "json")

NESTED_SOURCE = """\
#if 0
# if FOO
dead
# else
also dead
# endif
#elif defined(__STDC__)
live
#else
gone
#endif
"""

#: Files each case may name, relative to its working directory.
FILES = {
    "dispatch.c": DISPATCH_SOURCE,
    "nested.c": NESTED_SOURCE,
    "bad.c": "#endif\n",
    "fs.txt": "/src/util.h\n/inc/util.h\n",
    "other.txt": "/inc/other.h\n",
    "root/inc/h.h": "",
    "findings.json": compile_db([("a.c", "-O2"), ("b.c", "-O2 -funsigned-char")]),
    "medium.json": compile_db([("a.c", "-std=c99"), ("b.c", "-std=c11")]),
    "clean.json": compile_db([("a.c", "-O2"), ("b.c", "-O2 -DX=1")]),
    "check.json": compile_db([("a.c", "-O2 -std=gnu17")]),
    "c2x.json": compile_db([("a.c", "-O2"), ("b.c", "-O2 -std=c2x"), ("c.c", "-O2")]),
    "foreign.json": json.dumps(
        [
            {"directory": "/p", "file": "a.c", "command": "gcc -c a.c"},
            {"directory": "/p", "file": "k.c", "arguments": ["mcc18", "-c", "k.c"]},
        ]
    ),
    "malformed.json": "[{",
}

INCLUDE = ["include", "resolve", "--header", "util.h", "--includer", "/src/main.c"]

#: name -> (argv, standard input or None)
CASES: dict[str, tuple[list[str], str | None]] = {
    # probe
    "probe-emit": (["probe", "emit"], None),
    "probe-emit-output": (["probe", "emit", "--output", "out.c"], None),
    "probe-flags-0": (["probe", "flags", "0"], None),
    "probe-flags-443": (["probe", "flags", "443"], None),
    "probe-flags-640": (["probe", "flags", "640"], None),
    "probe-flags-out-of-range": (["probe", "flags", "768"], None),
    "probe-explain-1": (["probe", "explain", "1"], None),
    "probe-explain-443": (["probe", "explain", "443"], None),
    "probe-explain-out-of-range": (["probe", "explain", "900"], None),
    "probe-value": (["probe", "value", "--flags=-O2 -std=gnu17 -ffreestanding"], None),
    "probe-value-env": (["probe", "value", "--flags=-std=gnu11", "--env", "CPATH=/x"], None),
    "probe-value-bad-env": (["probe", "value", "--flags=-O2", "--env", "NOEQ"], None),
    "probe-verify-no-compiler": (["probe", "verify", "--compiler", "no-such-cc-anywhere"], None),
    "probe-verify-bad-values": (["probe", "verify", "--values", "0,900"], None),
    "probe-verify-bad-spec": (["probe", "verify", "--values", "abc"], None),
    "probe-verify-empty-spec": (["probe", "verify", "--values", ","], None),
    # invocation
    "invocation-parse-argv": (
        ["invocation", "parse", "--", "-O2", "-DX=1", "-std=c99", "a.c"], None),
    "invocation-parse-full": (
        ["invocation", "parse", "--flags=-m32", "--", "-O2", "-UY", "-DZ", "-I", "inc",
         "-iquote", "q", "-isystem", "s", "-nostdinc", "-Wfoo", "main.c", "util.c"], None),
    "invocation-parse-flags": (["invocation", "parse", "--flags=-std=gnu11 -m32"], None),
    "invocation-parse-env": (
        ["invocation", "parse", "--env", "CPATH=/x:/y", "--", "-std=c90"], None),
    "invocation-parse-c2x": (["invocation", "parse", "--flags=-std=c2x"], None),
    "invocation-parse-mplab": (
        ["--profile", "mplab-c18", "invocation", "parse", "--", "-O2"], None),
    # macros
    "macros-show-443": (["macros", "show", "--value", "443"], None),
    "macros-show-defines": (
        ["macros", "show", "--value", "0", "-D", "EXTRA=2", "-D", "ONE", "-U", "__STDC__"],
        None),
    "macros-show-flags": (["macros", "show", "--flags=-O2 -std=c99", "--env", "CPATH=/i"], None),
    "macros-eval-443": (["macros", "eval", "--value", "443", "__STDC_VERSION__ % 4"], None),
    "macros-eval-defined": (["macros", "eval", "--value", "0", "defined(__OPTIMIZE__)"], None),
    "macros-eval-syntax-error": (["macros", "eval", "--value", "0", "1 +"], None),
    "macros-eval-div-zero": (["macros", "eval", "--value", "0", "1/0"], None),
    "macros-eval-flags-defines": (
        ["macros", "eval", "--flags=-O2", "-D", "N=3", "defined(__OPTIMIZE__) && N"], None),
    "macros-eval-undef": (
        ["macros", "eval", "--flags=-O2", "-U", "__OPTIMIZE__", "defined(__OPTIMIZE__)"],
        None),
    "macros-branches-retained": (
        ["macros", "branches", "--flags=-O2", "dispatch.c", "--show-retained"], None),
    "macros-branches-plain": (["macros", "branches", "dispatch.c"], None),
    "macros-branches-nested": (["macros", "branches", "nested.c"], None),
    "macros-branches-stdin": (
        ["macros", "branches", "--value", "0", "-"], "#if 1\nyes\n#endif\n"),
    "macros-branches-no-groups": (["macros", "branches", "-"], "int x;\n"),
    "macros-branches-structure-error": (["macros", "branches", "bad.c"], None),
    "macros-branches-missing-file": (["macros", "branches", "no-such.c"], None),
    "macros-eval-value-with-flags": (
        ["macros", "eval", "--value", "443", "--flags=-O0", "defined(__OPTIMIZE__)"], None),
    "macros-show-value-with-env": (["macros", "show", "--value", "0", "--env", "CPATH=/x"], None),
    "macros-branches-value-with-flags": (
        ["macros", "branches", "--flags=-O2", "--value", "0", "dispatch.c"], None),
    # include
    "include-quote": (
        [*INCLUDE, "--manifest", "fs.txt", "--flags=-I/inc -nostdinc", "--form", "quote"],
        None),
    "include-angle": (
        [*INCLUDE, "--manifest", "fs.txt", "--flags=-I/inc -nostdinc", "--form", "angle"],
        None),
    "include-not-found": (
        ["include", "resolve", "--header", "gone.h", "--form", "angle", "--includer", "/m.c",
         "--manifest", "other.txt", "--flags=-I/inc -nostdinc"], None),
    "include-root": (
        ["include", "resolve", "--header", "h.h", "--form", "angle", "--includer", "m.c",
         "--root", "root", "--flags=-I$TMP/root/inc -nostdinc"], None),
    "include-no-filesystem": ([*INCLUDE, "--form", "quote"], None),
    "include-both-filesystems": (
        [*INCLUDE, "--form", "quote", "--manifest", "fs.txt", "--root", "/nonexistent"], None),
    # promote
    "promote-single-cast": (
        ["promote", "check", "--operand", "uint16_t", "--cast", "uint16_t",
         "--model", "8,16,32,32,64"], None),
    "promote-single": (
        ["promote", "check", "--operand", "uint16_t", "--model", "8,16,32,32,64",
         "--unsigned-char", "--simulate"], None),
    "promote-all-simulate": (
        ["promote", "check", "--operand", "uint16_t", "--all-models", "--simulate"], None),
    "promote-all-cast-simulate": (
        ["promote", "check", "--operand", "uint16_t", "--cast", "uint16_t", "--all-models",
         "--simulate"], None),
    "promote-default-models": (["promote", "check", "--operand", "uint8_t"], None),
    "promote-signed-operand": (["promote", "check", "--operand", "int"], None),
    "promote-bad-model": (["promote", "check", "--operand", "uint16_t", "--model", "8,16"], None),
    "promote-bad-model-widths": (
        ["promote", "check", "--operand", "uint16_t", "--model", "8,16,x,32,64"], None),
    # space
    "space-count": (["space", "count"], None),
    "space-count-10": (["space", "count", "--behaviors", "10"], None),
    "space-count-negative": (["space", "count", "--behaviors", "-1"], None),
    "space-models": (["space", "models"], None),
    # build
    "build-audit-findings": (["build", "audit", "findings.json"], None),
    "build-audit-fail-on-none": (["build", "audit", "findings.json", "--fail-on", "none"], None),
    "build-audit-medium": (["build", "audit", "medium.json"], None),
    "build-audit-fail-on-high": (["build", "audit", "medium.json", "--fail-on", "high"], None),
    "build-audit-clean": (["build", "audit", "clean.json"], None),
    "build-audit-stdin": (["build", "audit", "-"], compile_db([("a.c", "")])),
    "build-audit-foreign-compiler": (["build", "audit", "foreign.json"], None),
    "build-audit-c2x": (["build", "audit", "c2x.json"], None),
    "build-audit-malformed": (["build", "audit", "malformed.json"], None),
    "build-audit-missing-file": (["build", "audit", "/no/such/file.json"], None),
    "build-check-match": (["build", "check", "check.json", "--reference", "411"], None),
    "build-check-mismatch": (["build", "check", "check.json", "--reference", "410"], None),
    "build-check-flags": (
        ["build", "check", "check.json", "--reference-flags=-O2 -std=gnu17"], None),
    "build-check-c2x": (["build", "check", "c2x.json", "--reference", "411"], None),
    "build-check-bad-reference": (["build", "check", "check.json", "--reference", "768"], None),
    "build-check-no-reference": (["build", "check", "check.json"], None),
    "build-check-both-references": (
        ["build", "check", "check.json", "--reference", "0", "--reference-flags=-O2"], None),
    # misc
    "profiles": (["profiles"], None),
    "unknown-profile": (["--profile", "nope", "probe", "flags", "0"], None),
    "missing-subcommand": ([], None),
    "missing-group-subcommand": (["probe"], None),
    "mplab-probe-flags": (["--profile", "mplab-c18", "probe", "flags", "100"], None),
}


def make_workspace(root: Path) -> None:
    for name, text in FILES.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def run_case(root: Path, argv: list[str], stdin: str | None, fmt: str) -> dict:
    """Run ``main`` in ``root`` and return what it printed and returned."""
    argv = ["--format", fmt, *(a.replace("$TMP", str(root)) for a in argv)]
    out, err = io.StringIO(), io.StringIO()
    saved_cwd, saved_stdin = os.getcwd(), sys.stdin
    os.chdir(root)
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code, usage_error = main(argv), False
            except SystemExit as exc:
                code, usage_error = exc.code, True
    finally:
        os.chdir(saved_cwd)
        sys.stdin = saved_stdin
    return {
        "exit": code,
        "stdout": out.getvalue().replace(str(root), "$TMP"),
        "stderr": None if usage_error else err.getvalue().replace(str(root), "$TMP"),
    }


def run_all(root: Path) -> dict:
    make_workspace(root)
    return {
        name: {fmt: run_case(root, argv, stdin, fmt) for fmt in FORMATS}
        for name, (argv, stdin) in CASES.items()
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden").resolve()
    make_workspace(root)
    return root


def test_every_case_has_a_snapshot(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_snapshot(golden, workspace, monkeypatch, name, fmt):
    monkeypatch.delenv("DIALECTOSCOPE_PROFILE_DIR", raising=False)
    argv, stdin = CASES[name]
    assert run_case(workspace, argv, stdin, fmt) == golden[name][fmt]


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit(f"usage: {sys.argv[0]} --update")
    os.environ.pop("DIALECTOSCOPE_PROFILE_DIR", None)
    with tempfile.TemporaryDirectory(prefix="golden-") as tmp:
        snapshots = run_all(Path(tmp).resolve())
    GOLDEN.write_text(json.dumps(snapshots, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {len(snapshots)} cases to {GOLDEN}")
