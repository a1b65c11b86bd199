"""Traced run: per-layer metrics from in-process replays of the workload.

Each operation is replayed in-process by calling the modules' public
functions in the order the command line calls them, twice: once with a span
around each call and once with spans that record nothing, alternating which
goes first.  The median over operations of the traced replay's time over
the untraced one's is the tracing overhead.  The operation then runs once more through ``cli.main()``
in-process, and its output is checked.  Spans stay in memory and are written
to ``bench/.traces/<workload>-<seed>.json`` when the run ends.

Set-up layers (import, profile load, parser construction) are timed in fresh
processes, as a user meets them.  Some per-call costs are timed in loops of
their own: ``parse_invocation`` on pre-split argv, ``canonical_flags`` per
TU, ``eval_condition`` per condition of a header, and one ``with_define`` at
the header's final table size.

A workload that does not reach a layer still reports that layer's times:
they come from one reference pass over small inputs of the other workloads,
so that every metric is measured in every run.  Counts and input shares
describe the workload's own operations only.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shlex
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import inputs

CHILD = (
    "import json, time\n"
    "t0 = time.perf_counter()\n"
    "import dialectoscope.cli as c\n"
    "t1 = time.perf_counter()\n"
    "c.load_profile(c.DEFAULT_PROFILE)\n"
    "t2 = time.perf_counter()\n"
    "c.build_parser()\n"
    "t3 = time.perf_counter()\n"
    "print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))\n"
)
CHILD_SAMPLES = 7


class Tracer:
    """Spans in memory: (id, parent, operation, round, name, start, end).
    ``batch`` records a loop of ``count`` calls timed as one interval."""

    measures = True  # whether the replay runs its loops of per-call costs

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.op = self.round = 0
        self.batches: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(None)
        self.stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (sid, parent, self.op, self.round, name, start, end)

    def batch(self, name: str, seconds: float, count: int) -> None:
        acc = self.batches[name]
        acc[0] += seconds
        acc[1] += count

    def durations(self, name: str) -> list[float]:
        return [s[6] - s[5] for s in self.spans if s[4] == name]

    def per_round(self, name: str, rounds: int) -> float | None:
        totals = [0.0] * rounds
        seen = False
        for s in self.spans:
            if s[4] == name:
                totals[s[3]] += s[6] - s[5]
                seen = True
        return statistics.median(totals) if seen else None

    def per_call_us(self, name: str) -> float | None:
        """Mean microseconds per call over spans and batches of ``name``."""
        durations = self.durations(name)
        total, count = self.batches[name] if name in self.batches else (0.0, 0)
        total += sum(durations)
        count += len(durations)
        return total / count * 1e6 if count else None

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "op", "round", "name", "start", "end")
        with open(path, "w") as fh:
            json.dump({"spans": [dict(zip(keys, s)) for s in self.spans],
                       "batches": {k: {"seconds": v[0], "calls": v[1]} for k, v in self.batches.items()}}, fh)


class NullTracer(Tracer):
    """Spans and batches that record nothing: the untraced replay."""

    measures = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def batch(self, name: str, seconds: float, count: int) -> None:
        pass


def _timed_loop(items, fn) -> tuple[float, int]:
    start = time.perf_counter()
    n = 0
    for item in items:
        fn(item)
        n += 1
    return time.perf_counter() - start, n


class Replay:
    """Calls the library in the command line's order for one operation."""

    def __init__(self, tracer: Tracer, counts: dict) -> None:
        import dialectoscope as lib
        import dialectoscope.cli as cli

        self.lib, self.cli, self.t, self.counts = lib, cli, tracer, counts
        self.aside_s = 0.0  # time in the loops that time per-call costs

    @contextlib.contextmanager
    def aside(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.aside_s += time.perf_counter() - start

    def count(self, name: str, n: int = 1) -> None:
        self.counts[self.t.round][name] += n

    def render(self, doc) -> None:
        with self.t.span("cli.json_dump"):
            text = json.dumps(doc, indent=2)
        if "per_tu" in doc:
            self.count("build_audit.report_bytes", len(text))

    def parse(self, flags: str, profile):
        with self.t.span("invocation.parse_invocation"):
            inv = self.lib.parse_invocation(shlex.split(flags), env={}, profile=profile)
        self.count("invocation.calls")
        return inv

    def __call__(self, op: inputs.Op) -> None:
        lib, t, p = self.lib, self.t, op.params
        with t.span("cli.build_parser"):
            parser = self.cli.build_parser()
        args = parser.parse_args(op.argv)
        with t.span("profiles.load_profile"):
            profile = lib.load_profile(args.profile)
        getattr(self, op.kind.replace("-", "_"))(p, profile)

    def _build(self, p, profile, reference=None):
        lib, t = self.lib, self.t
        with open(p["path"], encoding="utf-8") as fh:
            text = fh.read()
        with t.span("build_audit.load_build"):
            capture = lib.load_build(text, profile)
        self.count("build_audit.tus", len(capture.entries))
        self.count("invocation.calls", len(capture.ok_entries()))
        if reference is None:
            with t.span("build_audit.audit"):
                report = lib.audit(capture)
        else:
            with t.span("build_audit.check_against"):
                report = lib.check_against(capture, lib.decode_value(reference))
        self.count("build_audit.unauditable", len(report.unauditable))
        self.count("build_audit.inconsistencies", len(report.inconsistencies))
        self.count("build_audit.mismatch_rows", len(report.mismatches))
        with t.span("build_audit.to_json_dict"):
            doc = report.to_json_dict()
        self.render(doc)
        if not t.measures:
            return
        # Per-call costs inside load_build and the per-TU rows, timed apart.
        with self.aside():
            covered = [e.arguments[1:] for e in capture.ok_entries()]
            t.batch("invocation.parse_invocation",
                    *_timed_loop(covered, lambda a: lib.parse_invocation(a, env={}, profile=profile)))
            dialects = [e.dialect for e in capture.ok_entries()]
            t.batch("dialect_model.canonical_flags",
                    *_timed_loop(dialects, lambda d: lib.canonical_flags(d, profile)))

    def build_audit(self, p, profile):
        self._build(p, profile)

    def build_check(self, p, profile):
        self._build(p, profile, p["reference"])

    def macros_branches(self, p, profile):
        lib, t = self.lib, self.t
        inv = self.parse(p["flags"], profile)
        with t.span("macro_env.invocation_macro_env"):
            env = lib.invocation_macro_env(inv)
        name, _, value = p["extra"][1].partition("=") if p["extra"] else ("", "", "")
        if name:
            env = lib.apply_directives(env, [lib.MacroDirective("define", name, value)])
        with open(p["path"], encoding="utf-8") as fh:
            source = fh.read()
        with t.span("macro_env.active_branches"):
            report = lib.active_branches(env, source)
        self.count("macro_env.groups", len(report.groups))
        for g in report.groups:
            for arm in g.arms:
                if arm.taken is None:
                    break
                self.count("macro_env.conditions_evaluated", arm.kind in ("if", "elif"))
                if arm.taken:
                    break
        self.render({"groups": [[g.start_line, g.end_line, g.evaluated,
                                 [[a.kind, a.condition, a.line, a.taken] for a in g.arms]] for g in report.groups],
                     "retained_ranges": [list(r) for r in report.retained_ranges]})
        header = p["header"]
        if header is None or not t.measures:
            return
        self.count("macro_env.source_defines", header.source_defines)
        with self.aside():
            table = {d.name: d for d in env.definitions()}
            for vname, body in header.value_bodies:
                table[vname] = lib.MacroDefinition(vname, body, "source")
            final = lib.MacroEnv(table)
            t.batch("macro_env.eval_condition",
                    *_timed_loop(header.conditions, lambda c: lib.eval_condition(final, c)))
            for _ in range(5):
                with t.span("macro_env.with_define"):
                    final.with_define("BENCH_PROBE", "1", "source")

    def probe_flags(self, p, profile):
        with self.t.span("probe.flags_for_value"):
            flags = self.lib.flags_for_value(p["value"], profile)
        self.render({"value": p["value"], "flags": flags})

    def probe_explain(self, p, profile):
        with self.t.span("probe.explain_value"):
            rows = self.lib.explain_value(p["value"])
        self.render({"value": p["value"], "terms": [[s.dimension, s.weight, c] for s, c in rows]})

    def probe_value(self, p, profile):
        inv = self.parse(p["flags"], profile)
        self.render({"value": self.lib.encode_config(inv.dialect)})

    def invocation_parse(self, p, profile):
        lib = self.lib
        with self.t.span("invocation.parse_invocation"):
            inv = lib.parse_invocation(p["argv"], env={}, profile=profile)
        self.count("invocation.calls")
        value = lib.encode_config(inv.dialect)
        with self.t.span("probe.flags_for_value"):
            flags = lib.flags_for_value(value, profile)
        self.render({"value": value, "canonical_flags": flags, "sources": list(inv.source_files)})

    def macros_show(self, p, profile):
        with self.t.span("macro_env.predefined_macros"):
            env = self.lib.predefined_macros(self.lib.decode_value(p["value"]), profile)
        self.render({"macros": [[d.name, d.body, d.provenance] for d in env.definitions()]})

    def macros_eval(self, p, profile):
        lib, t = self.lib, self.t
        args = p["env"]
        if args[0] == "--value":
            with t.span("macro_env.predefined_macros"):
                env = lib.predefined_macros(lib.decode_value(int(args[1])), profile)
            name, _, value = args[3].partition("=")
            env = lib.apply_directives(env, [lib.MacroDirective("define", name, value)])
        else:
            inv = self.parse(args[0].split("=", 1)[1], profile)
            with t.span("macro_env.invocation_macro_env"):
                env = lib.invocation_macro_env(inv)
        with t.span("macro_env.eval_condition"):
            value = lib.eval_condition(env, p["expression"])
        self.render({"expression": p["expression"], "value": value})

    def include_resolve(self, p, profile):
        lib, t = self.lib, self.t
        with open(p["manifest"], encoding="utf-8") as fh:
            text = fh.read()
        with t.span("include_resolver.from_manifest"):
            fs = lib.FileSystemModel.from_manifest(text, cwd="/")
        inv = self.parse(p["flags"], profile)
        directive = lib.IncludeDirective(p["header"], lib.IncludeForm(p["form"]), p["includer"])
        with t.span("include_resolver.resolve_include"):
            res = lib.resolve_include(directive, inv, fs)
        self.count("include_resolver.candidates_probed", len(res.trace))
        self.render({"found": res.found, "trace": [[x.candidate, x.hit] for x in res.trace]})

    def promote_check(self, p, profile):
        lib, t = self.lib, self.t
        operand = lib.parse_ctype(p["operand"])
        expr = lib.WrapCheckExpr(operand, operand if p["cast"] else None)
        rows = []
        for widths in lib.enumerate_integer_size_models():
            m = lib.TypeModel.from_widths(widths)
            with t.span("promotion.analyze_wrap_check"):
                verdict = lib.analyze_wrap_check(expr, m)
            w = operand.width(m)

            def agrees(pair, w=w, m=m):
                self.count("promotion.pairs")
                return lib.simulate_wrap_check(expr, m, *pair) == lib.true_wraparound(w, *pair)

            with t.span("promotion.simulate"):
                all(agrees(pair) for pair in lib.boundary_pairs(w))
            rows.append([list(widths), verdict.label, verdict.reason])
        self.render({"verdicts": rows})

    def space_count(self, p, profile):
        lib = self.lib
        with self.t.span("dialect_model.count"):
            exact = lib.dialect_count_lower_bound(112)
            doc = {"exact": str(exact), "scientific": lib.decimal_scientific(exact), "e": lib.e_notation(exact)}
        self.render(doc)

    def space_models(self, p, profile):
        with self.t.span("dialect_model.enumerate_models"):
            models = self.lib.enumerate_integer_size_models()
        self.render({"count": len(models), "models": [list(m) for m in models]})

    def probe_verify(self, p, profile):
        lib, t = self.lib, self.t
        for v in p["values"]:
            with t.span("probe.flags_for_value"):
                lib.flags_for_value(v, profile)
        with t.span("probe.verify"):
            report = self.cli.verify_with_compiler(compiler="gcc", values=p["values"], jobs=p["jobs"], profile=profile)
        self.count("probe.values_attempted", len(p["values"]))
        self.count("probe.values_failed", sum(1 for r in report.results if not r.ok))
        self.render({"status": report.status, "failures": [[r.value, r.detail] for r in report.failures]})


def replay_seconds(replay: Replay, op: inputs.Op) -> float:
    """Wall seconds of one replay of ``op``, its per-call loops left out."""
    start, aside = time.perf_counter(), replay.aside_s
    try:
        replay(op)
    except Exception:  # the known faults raise here as in the process
        pass
    return time.perf_counter() - start - (replay.aside_s - aside)


def run_main(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """``cli.main`` in-process with its output captured, as the process
    would end: exit status, stdout, stderr and wall seconds."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(list(argv))
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error ends the real process with a traceback
            traceback.print_exc()
            status = 1
    return status, out.getvalue(), err.getvalue(), time.perf_counter() - start


def fresh_process_layers(env: dict, cwd: Path) -> dict[str, float]:
    samples = []
    for _ in range(CHILD_SAMPLES):
        done = subprocess.run([sys.executable, "-c", CHILD], cwd=cwd, env=env,
                              capture_output=True, text=True, check=True)
        samples.append(json.loads(done.stdout))
    med = [statistics.median(s[i] for s in samples) * 1000 for i in range(3)]
    return {"cli.import_ms": med[0], "profiles.load_profile_ms": med[1], "cli.build_parser_ms": med[2]}


def layer_metrics(t: Tracer, counts: list[dict], rounds: int) -> dict[str, float | None]:
    """Metric name -> value, None where the run never reached the layer."""
    def pr(name: str) -> float | None:
        return t.per_round(name, rounds)

    us = t.per_call_us
    loads = t.durations("build_audit.load_build")
    tus = sum(c["build_audit.tus"] for c in counts)
    verify = t.durations("probe.verify")
    values = sum(c["probe.values_attempted"] for c in counts)
    simulate = sum(t.durations("promotion.simulate"))
    pairs = sum(c["promotion.pairs"] for c in counts)
    with_define = t.durations("macro_env.with_define")
    return {
        "cli.json_dump_s": pr("cli.json_dump"),
        "build_audit.load_build_s": pr("build_audit.load_build"),
        "build_audit.load_build_us_per_tu": sum(loads) / tus * 1e6 if loads and tus else None,
        "build_audit.audit_s": pr("build_audit.audit"),
        "build_audit.check_against_s": pr("build_audit.check_against"),
        "build_audit.to_json_dict_s": pr("build_audit.to_json_dict"),
        "invocation.parse_invocation_us": us("invocation.parse_invocation"),
        "dialect_model.canonical_flags_us": us("dialect_model.canonical_flags"),
        "macro_env.active_branches_s": pr("macro_env.active_branches"),
        "macro_env.eval_condition_us": us("macro_env.eval_condition"),
        "macro_env.with_define_us": statistics.median(with_define) * 1e6 if with_define else None,
        "macro_env.invocation_macro_env_us": us("macro_env.invocation_macro_env"),
        "include_resolver.resolve_include_us": us("include_resolver.resolve_include"),
        "promotion.analyze_wrap_check_us": us("promotion.analyze_wrap_check"),
        "promotion.simulate_pairs_per_s": pairs / simulate if simulate else None,
        "probe.flags_for_value_us": us("probe.flags_for_value"),
        "probe.explain_value_us": us("probe.explain_value"),
        "probe.verify_ms_per_value": sum(verify) / values * 1000 if verify and values else None,
    }


#: Every per-layer metric with its unit.  Counts and input shares describe
#: the workload's own operations, per round.
UNITS = {
    "cli.import_ms": "ms", "cli.build_parser_ms": "ms", "cli.main_ms": "ms", "cli.json_dump_s": "s",
    "profiles.load_profile_ms": "ms",
    "build_audit.load_build_s": "s", "build_audit.load_build_us_per_tu": "us",
    "build_audit.audit_s": "s", "build_audit.check_against_s": "s", "build_audit.to_json_dict_s": "s",
    "build_audit.tus": "count", "build_audit.unauditable": "count",
    "build_audit.inconsistencies": "count", "build_audit.mismatch_rows": "count",
    "build_audit.report_bytes": "bytes",
    "build_audit.repeated_argv_share": "ratio", "build_audit.quoted_command_share": "ratio",
    "invocation.parse_invocation_us": "us", "invocation.calls": "count",
    "dialect_model.canonical_flags_us": "us",
    "macro_env.active_branches_s": "s", "macro_env.eval_condition_us": "us",
    "macro_env.with_define_us": "us", "macro_env.invocation_macro_env_us": "us",
    "macro_env.source_defines": "count", "macro_env.conditions_evaluated": "count",
    "macro_env.groups": "count",
    "include_resolver.resolve_include_us": "us", "include_resolver.candidates_probed": "count",
    "promotion.analyze_wrap_check_us": "us", "promotion.simulate_pairs_per_s": "1/s",
    "probe.flags_for_value_us": "us", "probe.explain_value_us": "us",
    "probe.verify_ms_per_value": "ms", "probe.values_attempted": "count", "probe.values_failed": "count",
    "trace.overhead_pct": "%", "trace.spans_per_round": "count",
}
COUNTS = [n for n, u in UNITS.items() if u in ("count", "bytes") and not n.startswith("trace.")]


def reference_ops(work: Path) -> list[inputs.Op]:
    """Small inputs of every workload, for layers a workload does not reach."""
    rng = random.Random("reference")
    small = inputs.shared_database(rng, 200, 12)
    distinct = inputs.distinct_database(rng, 200)
    flags, base, extra = inputs.header_env(rng)
    header = inputs.H.generate(rng, base, 300)
    ops = [
        inputs.audit_op(str(work), "ref_shared.json", small),
        inputs.check_op(str(work), "ref_distinct.json", distinct),
        inputs.header_op(str(work), "ref.h", header.text, flags, extra, header.lines,
                         inputs.check_branches(header), header=header),
    ]
    ops += inputs.cli_short(str(work), rng).ops
    verify = inputs.probe_verify(str(work), rng).ops[0]
    verify.params["values"] = [v for v in verify.params["values"] if v & 16][:2]
    return ops + [verify]


def run_traced(wl: inputs.Workload, work: Path, seconds: float, env: dict) -> tuple[dict, inputs.Tally]:
    metrics = fresh_process_layers(env, work)
    sys.path.insert(0, env["PYTHONPATH"])
    os.environ["TMPDIR"] = tempfile.tempdir = env["TMPDIR"]
    tracer = Tracer()
    counts: list[dict] = []
    tally = inputs.Tally()
    replays = (Replay(tracer, counts), Replay(NullTracer(), [defaultdict(int)]))
    overheads = []  # per operation: traced over untraced replay time, minus one
    main_ms = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        start = time.perf_counter()
        while not counts or time.perf_counter() - start < seconds:
            tracer.round = len(counts)
            counts.append(defaultdict(int))
            for i, op in enumerate(wl.ops):
                tracer.op += 1
                # Each operation's first replay alternates between rounds.
                spent = [0.0, 0.0]  # traced, untraced
                for k in ((0, 1) if (i + tracer.round) % 2 else (1, 0)):
                    spent[k] = replay_seconds(replays[k], op)
                overheads.append(spent[0] / spent[1] - 1)
                status, out, err, wall = run_main(replays[0].cli, op.argv)
                if tally.record(op, status, out, err) < op.units and op.timed:
                    main_ms.append(wall * 1000)
        rounds = len(counts)
        own = layer_metrics(tracer, counts, rounds)
        if any(v is None for v in own.values()):
            ref = Replay(Tracer(), [defaultdict(int)])
            for op in reference_ops(work):
                ref(op)
            for name, value in layer_metrics(ref.t, ref.counts, 1).items():
                if own[name] is None:
                    own[name] = value
    finally:
        os.chdir(cwd)
    metrics.update(own)
    metrics.update({name: statistics.median(c[name] for c in counts) for name in COUNTS})
    metrics["cli.main_ms"] = statistics.median(main_ms)
    for name in ("build_audit.repeated_argv_share", "build_audit.quoted_command_share"):
        metrics[name] = wl.properties.get(name.split(".", 1)[1], 0.0)
    metrics["trace.overhead_pct"] = statistics.median(overheads) * 100
    metrics["trace.spans_per_round"] = len(tracer.spans) / rounds
    tracer.dump(work.parent.parent / ".traces" / f"{work.name.rsplit('-', 1)[0]}.json")
    return tally.result({name: {"value": metrics[name], "unit": unit} for name, unit in UNITS.items()}), tally
