"""Command-line interface.

One executable, one subcommand per library operation.  Every
subcommand honors ``--format human|json``: its handler returns a
:class:`Result` holding both renderings and the exit status, and
:func:`main` prints the one asked for, so an error found late prints
nothing but the error.  A rendering is a ready value, the JSON document
(a ``dict``, written as ``json.dumps(doc, indent=2)``) or the human text
(a ``str``), or, for a report that can run long, a function that returns
the rendering's text as a stream of pieces, so that it is never held in
one string.  Every long report streams, in both formats.  ``build audit``
and ``build check`` build no document: each distinct dialect's row text
is rendered once, and rows that share a dialect share it
(:func:`_audit_json`, :func:`_audit_text`); the text is still exactly
``json.dumps(doc, indent=2)`` of the report's ``to_json_dict()``.
``macros branches`` builds none either: each group's text is written
from the scan's records (:func:`_branches_json`,
:func:`_branches_text`), and the retained text is joined only under
``--show-retained``, which prints it.  Exit status: 0 success, 1
findings (audit findings, unreliable verdicts, failed or unresolved
probes), 2 usage or input errors.

All subcommands except ``probe verify`` are hermetic: no subprocesses
and no filesystem access beyond files named on the command line.

A process runs one subcommand, so each handler imports the library
modules it uses.  A command line is read from the ``COMMANDS`` table and
the global options first, which give the namespace argparse would give;
argparse is imported, and the full parser built and run, only where the
table declines: for help, a usage error, or a reading it leaves to
argparse.  So help, usage and error text are argparse's own.

A call of :func:`main` runs with the cyclic garbage collector off and
leaves it on or off as it found it, whether the call returns, exits or
raises.  Reference counting frees what a call drops as it goes; the
cycles a call leaves behind are a fixed few (none where the table reads
the command line, the argparse parser's where it does not), not a number
per TU, line or value.  A call also registers ``gc.freeze`` to
run at exit, once per process, so that the interpreter's final
collection has no heap to walk.  Output and exit status are the same as
with the collector on.
"""

from __future__ import annotations

import atexit
import functools
import gc
import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from . import _EXPORTS

if TYPE_CHECKING:
    import argparse

    from .dialect_model import TypeModel
    from .macro_env import MacroEnv

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


class Result(NamedTuple):
    """What one subcommand produced: the ``--format json`` rendering, the
    ``--format human`` rendering and the exit status.  A rendering is a
    ready value, the document (written as ``json.dumps(doc, indent=2)`` and
    a newline) or the text (written verbatim, newlines included), or a
    function of no arguments that returns an iterator over the pieces of
    the rendering's text, the document's without the final newline.  Only
    the rendering printed is called; it must raise no input error."""

    doc: dict | Callable[[], Iterator[str]]
    text: str | Callable[[], Iterator[str]]
    code: int = EXIT_OK


def _text(lines) -> str:
    return "".join(f"{line}\n" for line in lines)


def _profile(args):
    from .profiles import load_profile

    return load_profile(args.profile, args.profile_dir or None)


def _config_dict(config) -> dict:
    from .dialect_model import DIMENSIONS, format_setting

    # A DialectConfig holds its values in DIMENSIONS order.
    return dict(zip(DIMENSIONS, map(format_setting, config)))


def _env_map(pairs: list[str] | None) -> dict[str, str]:
    from .invocation import InvocationError

    env = {}
    for item in pairs or []:
        name, eq, value = item.partition("=")
        if not name or not eq:
            raise InvocationError(f"--env expects NAME=VALUE, got {item!r}")
        env[name] = value
    return env


def _invocation(args, argv: list[str], profile=None, env=None):
    """The invocation argv makes, under ``profile`` and ``env`` or, by
    default, the profile and the ``--env`` pairs that args names."""
    from .invocation import parse_invocation

    return parse_invocation(
        argv,
        profile=_profile(args) if profile is None else profile,
        env=_env_map(args.env) if env is None else env,
    )


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


# --- probe subcommands -----------------------------------------------------


def cmd_probe_emit(args) -> Result:
    from .probe import PROBE_SHA256, emit_probe_source

    source = emit_probe_source()
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(source)
        return Result(
            {"written": args.output, "length": len(source), "sha256": PROBE_SHA256},
            f"wrote {len(source)} bytes to {args.output}\n",
        )
    return Result(
        {"length": len(source), "sha256": PROBE_SHA256, "source": source}, source
    )


def cmd_probe_flags(args) -> Result:
    from .probe import flags_for_value

    flags = flags_for_value(args.value, _profile(args))
    return Result({"value": args.value, "flags": flags}, _text([" ".join(flags)]))


def cmd_probe_explain(args) -> Result:
    from .dialect_model import decode_value
    from .probe import explain_value

    rows = explain_value(args.value)
    config = _config_dict(decode_value(args.value))
    text = [f"value {args.value}"]
    for spec, contribution in rows:
        text += [
            f"  +{contribution:<4} {spec.dimension} = {config[spec.dimension]}",
            f"        probe: {spec.c_construct}",
            f"        behavior: {spec.standard_clause}",
        ]
    doc = {
        "value": args.value,
        "config": config,
        "terms": [
            {
                "dimension": spec.dimension,
                "weight": spec.weight,
                "contribution": contribution,
                "construct": spec.c_construct,
                "behavior": spec.standard_clause,
            }
            for spec, contribution in rows
        ],
    }
    return Result(doc, _text(text))


def cmd_probe_value(args) -> Result:
    from .dialect_model import encode_config
    from .invocation import split_command

    argv = split_command(args.flags)
    inv = _invocation(args, argv)
    value = encode_config(inv.dialect)
    return Result(
        {"flags": argv, "value": value, "config": _config_dict(inv.dialect)},
        _text([value]),
    )


def cmd_probe_verify(args) -> Result:
    from .probe import _parse_values_spec, verify_with_compiler

    values = _parse_values_spec(args.values)
    report = verify_with_compiler(
        compiler=args.compiler, values=values, jobs=args.jobs, profile=_profile(args)
    )
    failures = report.failures
    doc = {
        "status": report.status,
        "compiler": report.compiler,
        "skip_reason": report.skip_reason,
        "passed": sum(1 for r in report.results if r.ok),
        "failed": len(failures),
        "failures": [{"value": r.value, "detail": r.detail} for r in failures],
    }
    if report.status == "skipped":
        return Result(doc, _text([f"SKIPPED: {report.skip_reason}"]))
    if failures:
        text = [f"value {r.value}: FAILED: {r.detail}" for r in failures]
        text.append(f"{len(failures)} of {len(values)} values failed")
        return Result(doc, _text(text), EXIT_FINDINGS)
    lo, hi = values[0], values[-1]
    if hi - lo + 1 == len(values):  # sorted and distinct, so a full range
        return Result(doc, _text([f"tests {lo}..{hi} succeeded"]))
    return Result(doc, _text([f"all {len(values)} selected values succeeded"]))


# --- invocation subcommand ---------------------------------------------------


def cmd_invocation_parse(args) -> Result:
    from .dialect_model import canonical_flags, encode_config
    from .invocation import split_command

    words = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    inv = _invocation(args, split_command(args.flags) + words)
    profile = inv.profile
    value = encode_config(inv.dialect)
    config = _config_dict(inv.dialect)
    flags = canonical_flags(inv.dialect, profile)
    include_dirs = inv.include_dirs._asdict()
    doc = {
        "profile": profile.name,
        "value": value,
        "config": config,
        "canonical_flags": flags,
        "macro_directives": [d._asdict() for d in inv.macro_directives],
        "include_dirs": include_dirs,
        "nostdinc": inv.nostdinc,
        "sources": list(inv.source_files),
        "unrecognized": list(inv.unrecognized),
        "opt_level": inv.opt_level,
    }
    text = [f"profile: {profile.name}", f"dialect value: {value}"]
    text += [f"  {d} = {setting}" for d, setting in config.items()]
    text.append(f"canonical flags: {' '.join(flags)}")
    if inv.macro_directives:
        rendered = [
            f"-D{d.name}={d.value}" if d.action == "define" else f"-U{d.name}"
            for d in inv.macro_directives
        ]
        text.append(f"macro directives: {' '.join(rendered)}")
    for kind, dirs in include_dirs.items():
        if dirs:
            text.append(f"include dirs ({kind}): {' '.join(dirs)}")
    if inv.nostdinc:
        text.append("system include dirs suppressed (-nostdinc)")
    if inv.source_files:
        text.append(f"sources: {' '.join(inv.source_files)}")
    if inv.unrecognized:
        text.append(f"unrecognized (passed through): {' '.join(inv.unrecognized)}")
    return Result(doc, _text(text))


# --- macros subcommands -------------------------------------------------------


def _macro_env_from_args(args) -> MacroEnv:
    from .dialect_model import decode_value
    from .invocation import InvocationError, _macro_directive, split_command
    from .macro_env import apply_directives, invocation_macro_env, predefined_macros

    if args.value is not None:
        if args.flags or args.env:
            raise InvocationError("--value cannot be combined with --flags or --env")
        env = predefined_macros(decode_value(args.value), _profile(args))
    else:
        env = invocation_macro_env(_invocation(args, split_command(args.flags)))
    extra = [_macro_directive(word[:2], word[2:]) for word in args.macro_words or []]
    return apply_directives(env, extra)


def cmd_macros_show(args) -> Result:
    defs = _macro_env_from_args(args).definitions()
    width = max((len(d.name) for d in defs), default=0)
    doc = {"macros": [d._asdict() for d in defs]}
    text = [f"{d.name:<{width}}  {d.body:<12}  [{d.provenance}]" for d in defs]
    return Result(doc, _text(text))


def cmd_macros_eval(args) -> Result:
    from .macro_env import eval_condition

    value = eval_condition(_macro_env_from_args(args), args.expression)
    return Result(
        {"expression": args.expression, "value": value, "taken": value != 0},
        _text([value]),
    )


def cmd_macros_branches(args) -> Result:
    from . import macro_env

    env = _macro_env_from_args(args)
    source = _read_text(args.source)
    groups, retained = macro_env._branch_scan(env, source)
    # The retained text is joined only when it is printed.
    text = macro_env._retained_text(source, retained) if args.show_retained else None
    # A header can hold thousands of groups: the JSON text is written from
    # the scan's records, with no document between.
    return Result(
        lambda: _branches_json(groups, retained, text),
        lambda: _branches_text(groups, retained, text),
    )


#: The JSON text of ``True``, ``False`` and ``None``.
_JSON_WORDS = {True: "true", False: "false", None: "null"}
#: A group's JSON text in ``--format json`` output of ``macros branches``,
#: to be filled with its lines, its "evaluated" word and its arms' texts,
#: and an arm's, per kind, to be filled with its encoded condition (or
#: "null"), its line and its "taken" word.
_GROUP_JSON = (
    '{\n      "start_line": %d,\n      "end_line": %d,\n      "evaluated": %s,'
    '\n      "arms": [\n        %s\n      ]\n    }'
)
_ARM_JSON = {
    kind: '{\n          "kind": "' + kind + '",\n          "condition": %s,'
          '\n          "line": %d,\n          "taken": %s\n        }'
    for kind in ("if", "ifdef", "ifndef", "elif", "else")
}


def _branches_json(groups, retained, retained_text: str | None) -> Iterator[str]:
    """``json.dumps(doc, indent=2)``, byte for byte, as pieces, of the
    document of ``macros branches``: "groups", each with "start_line",
    "end_line", "evaluated" and "arms" (each arm its "kind", "condition",
    "line" and "taken"), "retained_ranges" as pairs of lines, and
    "retained_text".  Each group is written from its record into a fixed
    template, with no dict between."""
    encode = json.encoder.encode_basestring_ascii
    words, arm_json = _JSON_WORDS, _ARM_JSON

    def group_texts():
        for arms, start, end, evaluated in groups:
            texts = [
                arm_json[kind] % ("null" if cond is None else encode(cond), line, words[taken])
                for kind, cond, line, taken in arms
            ]
            yield _GROUP_JSON % (start, end, words[evaluated], ",\n        ".join(texts)), 1

    yield '{\n  "groups": '
    yield from _json_list_pieces(group_texts())
    yield ',\n  "retained_ranges": '
    yield from _json_list_pieces(
        (f"[\n      {first},\n      {last}\n    ]", 1) for first, last in retained
    )
    text = "null" if retained_text is None else encode(retained_text)
    yield ',\n  "retained_text": ' + text + "\n}"


def _branches_text(groups, retained, retained_text: str | None) -> Iterator[str]:
    """The ``--format human`` text of ``macros branches``, as pieces: each
    group's lines, the ``retained lines:`` line and the retained text."""
    marks = {True: "TAKEN", False: "not taken", None: "skipped"}
    for g in groups:
        state = "evaluated" if g.evaluated else "inactive region"
        text = [f"conditional group, lines {g.start_line}..{g.end_line} ({state})"]
        for a in g.arms:
            cond = f" {a.condition}" if a.condition else ""
            text.append(f"  line {a.line}: #{a.kind}{cond}  ->  {marks[a.taken]}")
        yield _text(text)
    ranges = ", ".join(
        f"{a}" if a == b else f"{a}-{b}" for a, b in retained
    )
    yield f"retained lines: {ranges if ranges else '(none)'}\n"
    if retained_text:
        yield retained_text


# --- include subcommand --------------------------------------------------------


def cmd_include_resolve(args) -> Result:
    from .include_resolver import (
        FileSystemModel,
        IncludeDirective,
        IncludeForm,
        resolve_include,
        search_paths,
    )
    from .invocation import split_command

    if args.manifest is not None:
        cwd = "/" if args.cwd is None else args.cwd
        fs = FileSystemModel.from_manifest(_read_text(args.manifest), cwd=cwd)
    else:
        fs = FileSystemModel.from_directory(args.root, cwd=args.cwd)
    inv = _invocation(args, split_command(args.flags))
    form = IncludeForm(args.form)
    directive = IncludeDirective(args.header, form, args.includer)
    resolution = resolve_include(directive, inv, fs)
    doc = {
        "header": args.header,
        "form": form.value,
        "including_file": args.includer,
        "search_order": search_paths(inv, form, args.includer),
        "found": resolution.found,
        "trace": [p._asdict() for p in resolution.trace],
    }
    text = [f"{'hit ' if p.hit else 'miss'}  {p.candidate}" for p in resolution.trace]
    text.append(f"resolved: {resolution.found}" if resolution.found else "not found")
    return Result(doc, _text(text), EXIT_OK if resolution.found else EXIT_FINDINGS)


# --- promote subcommand ----------------------------------------------------------


def _models_from_args(args) -> list[TypeModel]:
    from .dialect_model import DialectValueError, TypeModel, enumerate_integer_size_models

    if args.model and not args.all_models:
        parts = [p.strip() for p in args.model.split(",")]
        if len(parts) != 5:
            raise DialectValueError(
                "--model expects five comma-separated widths: char,short,int,long,llong"
            )
        try:
            widths = tuple(int(p) for p in parts)
        except ValueError:
            raise DialectValueError(f"bad --model widths {args.model!r}") from None
        return [TypeModel.from_widths(widths, char_is_signed=not args.unsigned_char)]
    return [TypeModel.from_widths(widths) for widths in enumerate_integer_size_models()]


def cmd_promote_check(args) -> Result:
    from .promotion import (
        WrapCheckExpr,
        _wrap_check_simulator,
        analyze_wrap_check,
        boundary_pairs,
        parse_ctype,
        true_wraparound,
    )

    operand = parse_ctype(args.operand)
    cast = parse_ctype(args.cast) if args.cast else None
    expr = WrapCheckExpr(operand, cast)
    verdicts = []
    text = [f"expression: {expr.describe()}"]
    all_reliable = True
    for m in _models_from_args(args):
        v = analyze_wrap_check(expr, m)
        all_reliable = all_reliable and v.reliable
        agrees = None
        suffix = ""
        if args.simulate:
            # Simulation agrees when it finds the check exact on every
            # boundary pair exactly where the verdict calls it reliable.
            w = operand.width(m)
            simulate = _wrap_check_simulator(expr, m)
            exact = all(
                simulate(x, y) == true_wraparound(w, x, y) for x, y in boundary_pairs(w)
            )
            agrees = exact == v.reliable
            suffix = "  [simulation agrees]" if agrees else "  [SIMULATION DISAGREES]"
        verdicts.append(
            {
                "widths": list(m.widths()),
                "verdict": v.label,
                "reason": v.reason,
                "sum_width": v.sum_width,
                "simulation_agrees": agrees,
            }
        )
        widths = "/".join(str(w) for w in m.widths())
        text.append(f"  widths {widths:<14} {v.label}: {v.reason}{suffix}")
    doc = {"expression": expr.describe(), "verdicts": verdicts}
    return Result(doc, _text(text), EXIT_OK if all_reliable else EXIT_FINDINGS)


# --- space subcommands ------------------------------------------------------------


def cmd_space_count(args) -> Result:
    from .dialect_model import decimal_scientific, dialect_count_lower_bound, e_notation

    exact = dialect_count_lower_bound(args.behaviors)
    scientific = decimal_scientific(exact)
    doc = {
        "behaviors": args.behaviors,
        "exact": str(exact),
        "scientific": scientific,
        "e_notation": e_notation(exact),
    }
    return Result(doc, _text([f"2^{args.behaviors} = {exact}", f"≈{scientific}"]))


def cmd_space_models(args) -> Result:
    from .dialect_model import enumerate_integer_size_models

    models = enumerate_integer_size_models()
    text = ["char short int long llong"]
    text += ["  ".join(f"{w:<4}" for w in widths).rstrip() for widths in models]
    text.append(f"{len(models)} models")
    doc = {"count": len(models), "models": [list(m) for m in models]}
    return Result(doc, _text(text))


# --- build subcommands --------------------------------------------------------------


#: The most report rows written as one piece of a streamed report.
_CHUNK = 1024


def _chunks(blocks) -> Iterator[list[str]]:
    """The texts of ``blocks``, pairs of a text and the number of report
    rows it holds, in consecutive lists of at most ``_CHUNK`` rows (a block
    of more rows, alone)."""
    chunk: list[str] = []
    rows = 0
    for text, count in blocks:
        if rows + count > _CHUNK and chunk:
            yield chunk
            chunk, rows = [], 0
        chunk.append(text)
        rows += count
    if chunk:
        yield chunk


def _around(rows: list[tuple[str, str]], separator: str) -> list[str]:
    """What rows that share a file name are around it: joined with the
    name, the texts give ``before + name + after`` of each of ``rows``,
    one after another with ``separator`` between."""
    around = [rows[0][0]]
    around += [after + separator + before for (_, after), (before, _) in zip(rows, rows[1:])]
    around.append(rows[-1][1])
    return around


def _json_list_pieces(blocks) -> Iterator[str]:
    """``json.dumps(items, indent=2)`` as a value of a top-level key, from
    ``blocks`` of the items' text as :func:`_chunks` takes them, each
    block's items already joined by "," and the inner line break."""
    separator = ",\n    "
    chunks = _chunks(blocks)
    first = next(chunks, None)
    if first is None:
        yield "[]"
        return
    yield "[\n    " + separator.join(first)
    for chunk in chunks:
        yield separator + separator.join(chunk)
    yield "\n  ]"


def _audit_json(facts) -> Iterator[str]:
    """``json.dumps(facts.report().to_json_dict(), indent=2)``, byte for
    byte, as pieces.  A row's text after its file name depends only on the
    TU's dialect, so it is rendered once per dialect; each row is then its
    head, the encoded file name and that tail."""
    from .build_audit import _SEVERITY_TEXT

    encode = json.encoder.encode_basestring_ascii
    files = list(map(encode, [e.file for e in facts.entries]))
    head = '{\n      "file": '
    row_end = "\n    }"
    tails = {None: ',\n      "status": "unauditable",\n      "value": null,\n      "flags": []' + row_end}
    mismatches = {}  # position -> (the texts around a file name, rows)
    for k, dialect in enumerate(facts.dialects):
        flags = ",\n        ".join(map(encode, dialect.flags))
        tails[k] = (
            f',\n      "status": "ok",\n      "value": {dialect.value},\n      "flags": '
            + (f"[\n        {flags}\n      ]" if flags else "[]") + row_end
        )
        if dialect.differences:
            rows = [
                (head, f',\n      "dimension": {encode(dim)},\n      "tu_value": {encode(mine)},'
                       f'\n      "reference_value": {encode(theirs)},'
                       f'\n      "severity": "{_SEVERITY_TEXT[severity]}"' + row_end)
                for dim, mine, theirs, severity in dialect.differences
            ]
            mismatches[k] = _around(rows, ",\n    "), len(rows)
    yield '{\n  "per_tu": '
    yield from _json_list_pieces((head + f + tails[k], 1) for f, k in zip(files, facts.index))

    def inconsistency(inc) -> str:
        # An inconsistency has two values or more, each held by one file or more.
        values = ",\n        ".join(
            f'{{\n          "value": {encode(value)},\n          "files": [\n            '
            + ",\n            ".join(map(encode, files)) + "\n          ]\n        }"
            for value, files in inc.partition
        )
        return (f'{{\n      "dimension": {encode(inc.dimension)},\n      "severity": '
                f'"{_SEVERITY_TEXT[inc.severity]}",\n      "values": [\n        {values}\n      ]'
                + row_end)

    yield ',\n  "inconsistencies": '
    yield from _json_list_pieces((inconsistency(inc), 1) for inc in facts.inconsistencies)
    yield ',\n  "mismatches": '
    yield from _json_list_pieces(
        (f.join(m[0]), m[1]) for f, k in zip(files, facts.index) if (m := mismatches.get(k))
    )
    yield ',\n  "unauditable": '
    yield from _json_list_pieces((f, 1) for f, k in zip(files, facts.index) if k is None)
    reference = facts.reference_value
    yield f',\n  "reference_value": {"null" if reference is None else reference}\n}}'


def _audit_text(facts) -> Iterator[str]:
    """The ``--format human`` text of an audit or a check, as pieces; a
    row's text after its file name is rendered once per dialect."""
    from .build_audit import _SEVERITY_TEXT

    tails = {None: "  -      (unauditable)\n"}
    mismatches = {}  # position -> (the texts around a file name, rows)
    for k, dialect in enumerate(facts.dialects):
        tails[k] = f"  {dialect.value:<5}  {' '.join(dialect.flags) or '-'}\n"
        if dialect.differences:
            rows = [
                (f"mismatch [{_SEVERITY_TEXT[severity]}] ", f" {dim}: TU={mine} reference={theirs}\n")
                for dim, mine, theirs, severity in dialect.differences
            ]
            mismatches[k] = _around(rows, ""), len(rows)
    entries, index = facts.entries, facts.index
    yield "file                          value  flags\n"
    yield from map("".join, _chunks((e.file.ljust(28) + tails[k], 1) for e, k in zip(entries, index)))
    text = []
    for inc in facts.inconsistencies:
        parts = "; ".join(f"{value}: {', '.join(files)}" for value, files in inc.partition)
        text.append(f"inconsistency [{_SEVERITY_TEXT[inc.severity]}] {inc.dimension}: {parts}")
    yield _text(text)
    blocks = ((e.file.join(m[0]), m[1]) for e, k in zip(entries, index) if (m := mismatches.get(k)))
    yield from map("".join, _chunks(blocks))
    blocks = ((f"unauditable: {e.file} ({e.reason})\n", 1) for e, k in zip(entries, index) if k is None)
    yield from map("".join, _chunks(blocks))
    if not facts.inconsistencies and not mismatches and None not in index:
        yield "no findings\n"


def _build_result(facts, fail_on: str) -> Result:
    from .build_audit import Severity

    top = facts.max_severity()
    failed = fail_on != "none" and top is not None and top >= Severity[fail_on.upper()]
    # The report can run to tens of thousands of rows: each rendering is
    # written a piece at a time, and only when it is printed.
    return Result(
        lambda: _audit_json(facts), lambda: _audit_text(facts), EXIT_FINDINGS if failed else EXIT_OK
    )


def cmd_build_audit(args) -> Result:
    from .build_audit import _build_facts, load_build

    capture = load_build(_read_text(args.compile_commands), _profile(args))
    return _build_result(_build_facts(capture), args.fail_on)


def cmd_build_check(args) -> Result:
    from .build_audit import _build_facts, load_build
    from .dialect_model import decode_value
    from .invocation import split_command

    profile = _profile(args)
    capture = load_build(_read_text(args.compile_commands), profile)
    if args.reference_flags is not None:
        reference = _invocation(args, split_command(args.reference_flags), profile, env={}).dialect
    else:
        reference = decode_value(args.reference)
    return _build_result(_build_facts(capture, reference), args.fail_on)


def cmd_profiles(args) -> Result:
    from .profiles import available_profiles

    names = available_profiles(args.profile_dir or None)
    return Result({"profiles": names}, _text(names))


# --- parser wiring ---------------------------------------------------------------


def _arg(*names, **kwargs):
    return names, kwargs


def _global_options() -> list:
    """The options before the group name, as ``_arg`` pairs."""
    from .profiles import DEFAULT_PROFILE

    return [
        _arg(
            "--profile",
            default=DEFAULT_PROFILE,
            help=f"compiler profile name (default {DEFAULT_PROFILE})",
        ),
        _arg(
            "--profile-dir",
            action="append",
            default=[],
            help="extra directory to search for profile data files",
        ),
        _arg(
            "--format",
            choices=("human", "json"),
            default="human",
            help="output format (default human)",
        ),
    ]


_FLAGS = _arg(
    "--flags",
    default="",
    help='compiler flag string; use the equals form (--flags="-O2 -std=c11")'
    " since the string starts with a dash",
)
_ENV = _arg(
    "--env",
    action="append",
    metavar="NAME=VALUE",
    help="environment variable for the parse (e.g. CPATH=/inc)",
)
#: The dialect a macros subcommand works in, and macro edits on top.
_DIALECT = [
    _FLAGS,
    _arg(
        "--value",
        type=int,
        default=None,
        help="dialect value 0..767 instead of --flags and --env",
    ),
    _ENV,
    # -D and -U words go into one list as written ("-DA=1", "-UA"), so
    # that they apply in command-line order, as GCC applies them.
    _arg(
        "-D",
        dest="macro_words",
        action="append",
        type="-D".__add__,
        metavar="NAME[=VALUE]",
        help="extra macro definition applied after the dialect env",
    ),
    _arg(
        "-U",
        dest="macro_words",
        action="append",
        type="-U".__add__,
        metavar="NAME",
        help="macro removal; -D and -U options apply in command-line order",
    ),
]
_COMPILE_COMMANDS = _arg("compile_commands", help="compile_commands.json path, or -")
_FAIL_ON = _arg("--fail-on", choices=("medium", "high", "none"), default="medium")

_GROUPS = {
    "probe": "dialect probe operations",
    "invocation": "command-line analysis",
    "macros": "macro environment operations",
    "include": "header search simulation",
    "promote": "integer promotion analysis",
    "space": "dialect-space counting",
    "build": "compile-database audits",
}

#: (group, subcommand or None for a command of its own, help, handler,
#: arguments).  An argument is a pair of names and ``add_argument``
#: keywords, which both :func:`_read` and :func:`build_parser` read.  A
#: list among the arguments is a set of which exactly one must be given.
COMMANDS = [
    ("probe", "emit", "print the probe source", cmd_probe_emit,
     [_arg("--output", help="write to a file instead of stdout")]),
    ("probe", "flags", "flags that produce a value", cmd_probe_flags,
     [_arg("value", type=int)]),
    ("probe", "explain", "per-dimension breakdown of a value", cmd_probe_explain,
     [_arg("value", type=int)]),
    ("probe", "value", "value a flag string produces", cmd_probe_value,
     [(_FLAGS[0], {**_FLAGS[1], "required": True}), _ENV]),
    ("probe", "verify", "compile and run the probe with a real compiler",
     cmd_probe_verify,
     [
         _arg("--compiler", default="gcc"),
         _arg("--values", default="0-767", help="e.g. 0-767 or 0,1,7,42"),
         _arg("--jobs", type=int, default=8),
     ]),
    ("invocation", "parse", "parse compiler arguments (put them after --)",
     cmd_invocation_parse, [_FLAGS, _ENV, _arg("argv", nargs="...")]),
    ("macros", "show", "list the macro table for a dialect", cmd_macros_show,
     _DIALECT),
    ("macros", "eval", "evaluate a preprocessor condition", cmd_macros_eval,
     [*_DIALECT, _arg("expression")]),
    ("macros", "branches", "report taken conditional branches", cmd_macros_branches,
     [
         *_DIALECT,
         _arg("source", help="C source file, or - for stdin"),
         _arg("--show-retained", action="store_true"),
     ]),
    ("include", "resolve", "resolve one include directive", cmd_include_resolve,
     [
         _arg("--header", required=True),
         _arg("--form", choices=("quote", "angle"), required=True),
         _arg("--includer", required=True, help="file containing the directive"),
         [
             _arg("--manifest", help="virtual filesystem: one path per line"),
             _arg("--root", help="look candidates up under a real directory instead"),
         ],
         _arg("--cwd", help="working directory for relative paths"
                            " (default: / with --manifest, the root with --root)"),
         _FLAGS,
         _ENV,
     ]),
    ("promote", "check", "analyze the unsigned wrap-check idiom", cmd_promote_check,
     [
         _arg("--operand", required=True, help="e.g. uint16_t"),
         _arg("--cast", help="cast applied to the sum, e.g. uint16_t"),
         _arg("--model", help="five widths: char,short,int,long,llong"),
         _arg("--unsigned-char", action="store_true"),
         _arg(
             "--all-models",
             action="store_true",
             help="check every admissible width model (default when --model absent)",
         ),
         _arg(
             "--simulate",
             action="store_true",
             help="cross-check each verdict against boundary-pair simulation",
         ),
     ]),
    ("space", "count", "2^n lower bound on dialects", cmd_space_count,
     [_arg("--behaviors", type=int, default=112)]),
    ("space", "models", "admissible integer width models", cmd_space_models, []),
    ("build", "audit", "cross-TU dialect consistency", cmd_build_audit,
     [_COMPILE_COMMANDS, _FAIL_ON]),
    ("build", "check", "compare TUs against a reference dialect", cmd_build_check,
     [
         _COMPILE_COMMANDS,
         [
             _arg("--reference", type=int, help="reference dialect value 0..767"),
             _arg("--reference-flags", help="reference dialect as a flag string"),
         ],
         _FAIL_ON,
     ]),
    ("profiles", None, "list known compiler profiles", cmd_profiles, []),
]


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of every subcommand.  It reads a command line as
    :func:`_parse_args` does, and it alone prints help and usage errors."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An argument parser for which a value that argparse turns into a
        list, as Python 3.11's argparse turns the value of ``--flags=--``
        into ``[]``, is a usage error."""

        def _get_values(self, action, arg_strings):
            value = super()._get_values(action, arg_strings)
            if action.nargs is None and isinstance(value, list):
                raise argparse.ArgumentError(action, "expected one argument, not '--'")
            return value

    def add_arguments(parser, arguments) -> None:
        for spec in arguments:
            if isinstance(spec, list):
                one_of = parser.add_mutually_exclusive_group(required=True)
                for names, kwargs in spec:
                    one_of.add_argument(*names, **kwargs)
            else:
                parser.add_argument(*spec[0], **spec[1])

    parser = _Parser(
        prog="dialectoscope",
        description="Measure, derive, and audit C dialect configurations.",
    )
    add_arguments(parser, _global_options())
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for group, name, help_text, handler, arguments in COMMANDS:
        if name is None:
            p = sub.add_parser(group, help=help_text)
        else:
            if group not in groups:
                group_parser = sub.add_parser(group, help=_GROUPS[group])
                groups[group] = group_parser.add_subparsers(
                    dest="subcommand", required=True
                )
            p = groups[group].add_parser(name, help=help_text)
        add_arguments(p, arguments)
        p.set_defaults(func=handler)
    return parser


#: The options argparse gives every parser.
_HELP = ("-h", "--help")


def _is_operand(word: str) -> bool:
    """Whether every parser here reads ``word`` as a value or a positional,
    never as an option: a word with no leading dash, a lone ``-``, or a
    dash and ASCII digits, which argparse takes for a negative number since
    no option here looks like one.  (Argparse reads a few more words so,
    such as a dashed word with a space; :func:`_read` leaves those to it.)"""
    body = word[1:]
    return word[:1] != "-" or not body or (body.isascii() and body.isdigit())


def _ambiguous(word: str, names) -> bool:
    """Whether argparse takes ``word`` for an abbreviation of two of
    ``names``, a usage error wherever the word stands before a ``--``."""
    prefix = word.partition("=")[0]
    return (
        prefix[:2] == "--"
        and prefix not in names
        and sum(name.startswith(prefix) for name in names) > 1
    )


def _dest(names, kwargs) -> str:
    return kwargs.get("dest", names[0].lstrip("-").replace("-", "_"))


def _read(words: list[str], arguments: list, ns: dict) -> bool:
    """Read ``words`` into ``ns`` against ``arguments``, ``_arg`` pairs as
    ``COMMANDS`` holds them, as one argparse parser reads them: each
    argument's default, then each option and positional given.  False
    where argparse might read the words otherwise, or fails: help, an
    option it does not know or takes for an abbreviation, a value of
    ``--`` or one that looks like an option, a bad ``int`` or choice, a
    word left over, a missing required argument, or not exactly one member
    of an exclusive group."""
    options, positionals, given = {}, [], set()
    for spec in arguments:
        for names, kwargs in spec if isinstance(spec, list) else [spec]:
            dest = _dest(names, kwargs)
            if kwargs.get("nargs") == "...":
                ns[dest] = []
            else:
                flag = kwargs.get("action") == "store_true"
                ns[dest] = kwargs.get("default", False if flag else None)
            if names[0][:1] == "-":
                options[names[0]] = dest, kwargs
            else:
                positionals.append((dest, kwargs))
    i = 0
    while i < len(words):
        word = words[i]
        if positionals and positionals[0][1].get("nargs") == "..." and (
            word == "--" or _is_operand(word)
        ):
            # The remainder takes every later word, a leading "--" too,
            # but argparse has read each word before a "--" as an option
            # name first, and an abbreviation of two options is an error.
            rest = words[i:]
            head = rest[: rest.index("--")] if "--" in rest else rest
            if any(_ambiguous(w, [*options, *_HELP]) for w in head):
                return False
            ns[positionals.pop(0)[0]] = rest
            break
        if _is_operand(word):
            if not positionals:
                return False
            (dest, kwargs), value = positionals.pop(0), word
        else:
            # --opt, --opt=value, -Dvalue and -D=value, as argparse splits them.
            name, eq, value = word.partition("=")
            if word in options:
                name, value = word, None
            elif not (eq and name in options):
                if word[1:2] == "-" or word[:2] not in options:
                    return False
                name, value = word[:2], word[2:]
            dest, kwargs = options[name]
            if kwargs.get("action") == "store_true":
                if value is not None:
                    return False
                value = True
            elif value is None:
                i += 1
                if i == len(words) or not _is_operand(words[i]):
                    return False
                value = words[i]
            elif value == "--":
                return False
        if kwargs.get("action") != "store_true":
            try:
                value = kwargs.get("type", str)(value)
            except ValueError:
                return False
            choices = kwargs.get("choices")
            if choices is not None and value not in choices:
                return False
            if kwargs.get("action") == "append":
                value = [*(ns[dest] or ()), value]
        ns[dest] = value
        given.add(dest)
        i += 1
    if any(kwargs.get("nargs") != "..." for _, kwargs in positionals):
        return False
    for spec in arguments:
        if isinstance(spec, list):
            if sum(_dest(*member) in given for member in spec) != 1:
                return False
        elif spec[1].get("required") and _dest(*spec) not in given:
            return False
    return True


def _table_parse(argv: list[str]) -> SimpleNamespace | None:
    """The namespace the full parser makes of ``argv``, read from the
    global options and the ``COMMANDS`` table, or None wherever argparse
    might read the words otherwise or fail."""
    ns: dict = {}
    # The group name and what follows it are one remainder of the
    # top-level parser, as argparse's subparsers take them.
    if not _read(argv, [*_global_options(), _arg("words", nargs="...")], ns):
        return None
    words = ns.pop("words")
    for group, name, _, handler, arguments in COMMANDS:
        head = [group] if name is None else [group, name]
        if words[: len(head)] == head:
            break
    else:
        return None
    ns["command"] = group
    if name is not None:
        ns["subcommand"] = name
    ns["func"] = handler
    if not _read(words[len(head) :], arguments, ns):
        return None
    return SimpleNamespace(**ns)


def _parse_args(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    """The namespace of ``argv``.  A command line is read from the
    ``COMMANDS`` table first (:func:`_table_parse`); only where the table
    declines, for help, a usage error or a reading it leaves to argparse,
    is argparse imported and :func:`build_parser`'s parser run, so that
    help, usage and error text are argparse's own."""
    args = _table_parse(argv)
    return build_parser().parse_args(argv) if args is None else args


@functools.cache
def _freeze_heap_at_exit() -> None:
    """Have the interpreter freeze its heap at exit, once per process."""
    atexit.register(gc.freeze)


def main(argv: list[str] | None = None) -> int:
    # The collector is off for the call and back as it was after it; see
    # the module docstring.
    _freeze_heap_at_exit()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(sys.argv[1:] if argv is None else list(argv))
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str]) -> int:
    args = _parse_args(argv)
    try:
        doc, text, code = args.func(args)
    except (OSError, ValueError) as exc:  # every input error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # The one rendering printed is written through one path: a document
    # as its JSON text, a text as it is, a streamed report a piece at a time.
    rendering = doc if args.format == "json" else text
    if callable(rendering):
        pieces = rendering()
    elif type(rendering) is dict:
        pieces = (json.dumps(rendering, indent=2),)
    else:
        pieces = (rendering,)
    try:
        sys.stdout.writelines(pieces)
        if args.format == "json":
            sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone (``| head``).  Point stdout at the null
        # device so that the interpreter's final flush stays quiet.
        import os

        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


#: Library names that ``dialectoscope.cli.NAME`` resolves besides the
#: package's own, for callers that reach the library through this module;
#: the handlers import what they use themselves.
_UNEXPORTED_NAMES = {"verify_with_compiler": "probe"}


def __getattr__(name: str):
    module = _EXPORTS.get(name) or _UNEXPORTED_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __package__), name)


if __name__ == "__main__":
    sys.exit(main())
