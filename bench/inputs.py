"""Seeded inputs for every workload, each operation paired with a check of
the program's output against facts the generator computed itself.

An operation is one cold ``dialectoscope`` process.  Its check receives the
exit status and the output and returns how many of the operation's units
failed, plus a message when the output is wrong.  A round is the fixed list
of operations a workload repeats; a run attempts whole rounds only.
"""

from __future__ import annotations

import json
import os
import random
import re
import sys
from dataclasses import dataclass, field
from typing import Callable

import dialect as D
import headers as H

#: Exit statuses of the command-line contract.
OK, FINDINGS = 0, 1


class CheckError(Exception):
    """The program's output contradicts what the generator computed."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@dataclass
class Op:
    kind: str
    argv: list[str]  # arguments after the program name
    work: int  # TUs, source lines or calls this call completes, for throughput
    check: Callable[[int, str, str], int]  # (status, stdout, stderr) -> failed units
    units: int = 1  # operations this call accounts for; above 1, each unit is one unit of work
    known_fault: str = ""  # why the operation fails today, if it does
    params: dict = field(default_factory=dict)  # what the in-process replay needs

    @property
    def timed(self) -> bool:
        """Whether the call counts in the timings.  A single operation with a
        known fault is left out whether it passes or fails, so that mending
        the fault does not change which calls are timed; a call of many units
        is timed and counts the units that passed."""
        return not (self.known_fault and self.units == 1)


@dataclass
class Workload:
    ops: list[Op]
    properties: dict[str, float]  # input properties a gain may depend on
    #: Python source of the process that timings are scaled by, and its wall
    #: time on the idle host (see ``run.ScaledClock``); None for the default.
    reference: tuple[str, float] | None = None


def crashed(status: int, err: str) -> bool:
    return "Traceback (most recent call last)" in err or status not in (OK, FINDINGS)


def load_json(out: str) -> dict:
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise CheckError(f"output is not JSON: {exc}") from None


class Tally:
    """Operations attempted and failed, and whether every checked output
    was right."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.correct = True
        self.faults: dict[str, int] = {}

    def record(self, op: Op, status: int, out: str, err: str) -> int:
        """Check one call's output; returns the units that failed."""
        self.attempted += op.units
        try:
            failed = op.check(status, out, err)
        except (CheckError, KeyError, TypeError) as exc:
            self.correct = False
            print(f"CHECK FAILED {op.kind} {' '.join(op.argv)[:120]}: {exc!r}", file=sys.stderr)
            failed = op.units
        if failed:
            self.failed += failed
            if not op.known_fault:
                print(f"unexpected failure {op.kind} (status {status}): {err.strip()[-300:]}", file=sys.stderr)
            self.faults[op.known_fault or op.kind] = self.faults.get(op.known_fault or op.kind, 0) + failed
        return failed

    def result(self, metrics: dict) -> dict:
        return {"correct": self.correct, "attempted": self.attempted, "failed": self.failed, "metrics": metrics}


# --- compile databases -------------------------------------------------------

_SAFE = re.compile(r"[A-Za-z0-9_@%+=:,./-]+\Z")
_GCC_NAMES = ("gcc", "/usr/bin/gcc", "cc", "x86_64-linux-gnu-gcc-12", "gcc-12")
_UNCOVERED = ("clang", "/srv/arm/bin/armclang", "icx")
_NOISE = ("-Wall", "-Wextra", "-g", "-fPIC", "-pipe", "-Werror=implicit", "-MD", "-fno-common")


def shell_quote(token: str, rng: random.Random) -> str:
    """POSIX-quote one word in one of three styles, using no character
    whose meaning differs between a POSIX shell and shlex."""
    if _SAFE.match(token):
        return token
    style = rng.randrange(3)
    if style == 0 and "'" not in token:
        return "'" + token + "'"
    if style == 1:
        return '"' + token.replace("\\", "\\\\").replace('"', '\\"') + '"'
    return "".join(c if _SAFE.match(c) else "\\" + c for c in token)


def _memo_key(argv: list[str], obj: str, source: str) -> tuple[str, ...]:
    """The argv with the object file and the source removed: what a parse
    of the dialect and macro options depends on."""
    return tuple(a for a in argv if a not in (obj, source))


@dataclass
class Database:
    entries: list[dict]
    files: list[str]
    values: list[int | None]  # None: compiler not covered by the profile
    flexible: set[str] = field(default_factory=set)  # may also read as unauditable
    repeated: int = 0
    commands: int = 0
    quoted: int = 0

    def add(self, file: str, argv: list[str], value: int | None, obj: str,
            rng: random.Random, as_arguments: bool, seen: set) -> None:
        entry = {"directory": "/work/proj", "file": file}
        if as_arguments:
            entry["arguments"] = argv
        else:
            command = " ".join(shell_quote(a, rng) for a in argv)
            entry["command"] = command
            self.commands += 1
            self.quoted += any(c in command for c in "'\"\\")
        key = _memo_key(argv, obj, file)
        self.repeated += key in seen
        seen.add(key)
        self.entries.append(entry)
        self.files.append(file)
        self.values.append(value)


def _typical_value(rng: random.Random) -> int:
    cls = rng.choice((0, 1, 2, 2))
    mode = rng.choice((D.GNU, D.GNU, D.STRICT))
    return D.CHAR | D.BITFIELD | D.PTR64 | cls * D.CLASS_WEIGHT | mode * D.MODE_WEIGHT


#: Every shared flag set is padded to this many words and characters, so
#: that which flag sets a seed favours does not change the cost per TU.
FLAG_SET_WORDS, FLAG_SET_CHARS = 24, 320


def _pad(argv: list[str]) -> list[str]:
    argv = argv + [f"-Wno-pad-{i}" for i in range(FLAG_SET_WORDS - 1 - len(argv))]
    fill = FLAG_SET_CHARS - len(" ".join(argv)) - len(" -DPAD=")
    return argv + ["-DPAD=" + "x" * max(1, fill)]


def shared_database(rng: random.Random, tus: int, flag_sets: int, c2x_at: int | None = None) -> Database:
    """A CMake-style project: TUs share a few dozen unquoted flag sets and
    differ only in the object file and the source.  Every project's flag
    sets differ in the same three dimensions (optimisation, char signedness,
    standard class), and every flag set has at least one TU, so the report
    has the same shape whatever the seed."""
    base = _typical_value(rng)
    other_class = ((base >> 6 & 3) + rng.randrange(1, 4)) % 4
    sets = []
    for k in range(flag_sets):
        value = base ^ (D.OPT if k % 3 == 1 else D.CHAR if k % 3 == 2 else 0)
        if k % 5 == 4:
            value = value & ~(3 * D.CLASS_WEIGHT) | other_class * D.CLASS_WEIGHT
        argv = [rng.choice(_GCC_NAMES), *D.noisy_flags(value, rng)]
        argv += [f"-DCONFIG_{rng.randrange(50)}={rng.randrange(100)}", f"-Iinclude/m{rng.randrange(9)}"]
        argv += rng.sample(_NOISE, 2)
        sets.append((_pad(argv), value))
    db = Database([], [], [])
    seen: set = set()
    for i in range(tus):
        argv, value = sets[i if i < flag_sets else min(int(rng.paretovariate(1.2)) - 1, flag_sets - 1)]
        file = f"src/m{i % 37}/unit_{i}.c"
        obj = f"obj/m{i % 37}/unit_{i}.o"
        if i == c2x_at:
            argv = [*argv, "-std=c2x"]
            value = D.decode_argv(argv[1:])
            db.flexible.add(file)
        argv = [*argv, "-o", obj, "-c", file]
        db.add(file, argv, value, obj, rng, as_arguments=False, seen=seen)
    return db


def distinct_database(rng: random.Random, tus: int) -> Database:
    """Nearly every TU has its own dialect-affecting argv: per-file -D values,
    quoted strings with spaces and backslashes (one of which looks like
    dialect flags), a third of the entries pre-split, a few compilers the
    profile does not cover."""
    db = Database([], [], [])
    seen: set = set()
    for i in range(tus):
        value = (
            D.CHAR * (rng.random() < 0.8) + D.BITFIELD * (rng.random() < 0.8)
            + D.ENUMS * (rng.random() < 0.15) + D.OPT * (rng.random() < 0.6)
            + D.PTR64 * (rng.random() < 0.85) + D.FREE * (rng.random() < 0.1)
            + rng.choices((0, 1, 2, 3), (3, 2, 4, 1))[0] * D.CLASS_WEIGHT
            + rng.choices((0, 1, 2), (3, 6, 1))[0] * D.MODE_WEIGHT
        )
        file = f"lib/part{i % 53}/file_{i}.c"
        obj = f"build/file_{i}.o"
        compiler = rng.choice(_UNCOVERED) if rng.random() < 0.01 else rng.choice(_GCC_NAMES)
        argv = [compiler, *D.noisy_flags(value, rng), f"-DFILE_ID={i}"]
        if rng.random() < 0.7:
            argv.append(f'-DTU_NAME="{file}"')
        if rng.random() < 0.5:
            argv.append(f"-DGREETING=hello world {i}")
        if rng.random() < 0.4:
            argv.append(f"-DWINPATH=C:\\build\\part{i % 53}\\file_{i}")
        if rng.random() < 0.3:
            argv.append("-DOPTS=-m32 -funsigned-char -std=c90")
        argv += ["-I", f"/srv/my libs/v{i % 7}/include"] if rng.random() < 0.3 else [f"-Iinclude/v{i % 7}"]
        argv += ["-o", obj, "-c", file]
        covered = compiler in _GCC_NAMES
        db.add(file, argv, value if covered else None, obj, rng, rng.random() < 1 / 3, seen)
    return db


def _partitions(files: list[str], values: list[int]) -> list[dict]:
    out = []
    for dim in D.DIMENSIONS:
        parts: dict[str, list[str]] = {}
        for f, v in zip(files, values):
            parts.setdefault(D.render(D.fields(v)[dim]), []).append(f)
        if len(parts) >= 2:
            out.append({"dimension": dim, "values": [{"value": k, "files": fs} for k, fs in parts.items()]})
    return out


def check_report(db: Database, reference: int | None) -> Callable[[int, str, str], int]:
    """Per-TU values and canonical flags, unauditable files, and either the
    inconsistency partitions (audit) or the mismatch rows (check)."""

    def check(status: int, out: str, err: str) -> int:
        if crashed(status, err):
            return 1
        doc = load_json(out)
        rows = doc["per_tu"]
        expect(len(rows) == len(db.files), f"{len(rows)} per-TU rows for {len(db.files)} entries")
        ok_files, ok_values, unauditable = [], [], []
        for row, file, value in zip(rows, db.files, db.values):
            expect(row["file"] == file, f"row for {row['file']} where {file} was expected")
            if value is None or (file in db.flexible and row["status"] == "unauditable"):
                expect(row["status"] == "unauditable" and row["value"] is None and row["flags"] == [],
                       f"{file}: expected an unauditable row, got {row}")
                unauditable.append(file)
                continue
            expect(row["status"] == "ok" and row["value"] == value,
                   f"{file}: value {row['value']} ({row['status']}), expected {value}")
            expect(row["flags"] == D.canonical_flags(value), f"{file}: flags {row['flags']}")
            ok_files.append(file)
            ok_values.append(value)
        expect(doc["unauditable"] == unauditable, "unauditable list differs")
        if reference is None:
            expect([
                {"dimension": i["dimension"], "values": i["values"]} for i in doc["inconsistencies"]
            ] == _partitions(ok_files, ok_values), "inconsistency partitions differ")
            expect(doc["mismatches"] == [], "audit reported mismatch rows")
        else:
            ref = D.fields(reference)
            expected = [
                [f, dim, D.render(fv[dim]), D.render(ref[dim])]
                for f, v in zip(ok_files, ok_values)
                for fv in (D.fields(v),)
                for dim in D.DIMENSIONS if fv[dim] != ref[dim]
            ]
            got = [[m["file"], m["dimension"], m["tu_value"], m["reference_value"]] for m in doc["mismatches"]]
            expect(got == expected, f"{len(got)} mismatch rows, expected {len(expected)}")
            expect(doc["reference_value"] == reference, "reference value differs")
        findings = bool(doc["inconsistencies"] or doc["mismatches"] or unauditable)
        expect(status == (FINDINGS if findings else OK), f"exit status {status}")
        return 0

    return check


def write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _db_properties(dbs: list[Database]) -> dict[str, float]:
    tus = sum(len(db.files) for db in dbs)
    commands = sum(db.commands for db in dbs)
    return {
        "repeated_argv_share": sum(db.repeated for db in dbs) / tus,
        "quoted_command_share": sum(db.quoted for db in dbs) / commands if commands else 0.0,
    }


#: audit-shared project sizes in TUs, smallest first.
SHARED_SIZES = (250, 500, 1000, 2000)
#: The fixed database with one -std=c2x TU; its seed never changes.
C2X_TUS, C2X_SEED = 400, 0
DISTINCT_TUS = 3000
#: A value most generated TUs differ from on several dimensions: unsigned
#: char and bit-fields, short enums, unoptimized, 32-bit, freestanding, c90.
CHECK_REFERENCE = D.ENUMS | D.FREE | 3 * D.CLASS_WEIGHT


def audit_op(work: str, name: str, db: Database, known_fault: str = "") -> Op:
    path = os.path.join(work, name)
    write_json(path, db.entries)
    return Op("build-audit", ["--format", "json", "build", "audit", name], len(db.files),
              check_report(db, None), known_fault=known_fault, params={"path": path})


def audit_shared(work: str, rng: random.Random) -> Workload:
    dbs = [shared_database(rng, n, rng.randrange(24, 48)) for n in SHARED_SIZES]
    ops = [audit_op(work, f"shared_{i}.json", db) for i, db in enumerate(dbs)]
    c2x = shared_database(random.Random(C2X_SEED), C2X_TUS, 30, c2x_at=C2X_TUS // 2)
    ops.append(audit_op(work, "shared_c2x.json", c2x,
                        "one -std=c2x TU, which the profile lacks, aborts the audit with exit 2"))
    return Workload(ops, _db_properties(dbs + [c2x]))


def check_op(work: str, name: str, db: Database) -> Op:
    path = os.path.join(work, name)
    write_json(path, db.entries)
    return Op("build-check",
              ["--format", "json", "build", "check", name, "--reference", str(CHECK_REFERENCE)],
              len(db.files), check_report(db, CHECK_REFERENCE),
              params={"path": path, "reference": CHECK_REFERENCE})


def check_distinct(work: str, rng: random.Random) -> Workload:
    db = distinct_database(rng, DISTINCT_TUS)
    return Workload([check_op(work, "distinct.json", db)], _db_properties([db]))


# --- headers ------------------------------------------------------------------

#: header-branches sizes in #define/#undef lines.
HEADER_DEFINES = (2000, 6000, 12000)
DEEP_PARENS = 2000


def header_env(rng: random.Random) -> tuple[str, dict[str, H.Val], list[str]]:
    value = rng.randrange(768)
    level, mask = rng.randrange(1, 9), rng.randrange(1, 256)
    flags = D.noisy_flags(value, rng) + [f"-DLEVEL={level}", f"-DMASK={mask}u", "-DDROPPED=1", "-UDROPPED"]
    base = {k: H.Val(v, False) for k, v in D.predefined(value).items() if v is not None}
    base["LEVEL"], base["MASK"], base["EXTRA"] = H.Val(level, False), H.Val(mask, True), H.Val(7, False)
    return " ".join(flags), base, ["-D", "EXTRA=7"]


def check_branches(h: H.Header) -> Callable[[int, str, str], int]:
    def check(status: int, out: str, err: str) -> int:
        if crashed(status, err):
            return 1
        expect(status == OK, f"exit status {status}")
        doc = load_json(out)
        groups = [[g["start_line"], g["end_line"], g["evaluated"],
                   [[a["kind"], a["line"], a["taken"]] for a in g["arms"]]] for g in doc["groups"]]
        for g in groups:
            expect(sum(a[2] is True for a in g[3]) <= 1, f"group at line {g[0]} takes two arms")
        expect(len(groups) == len(h.groups), f"{len(groups)} groups, expected {len(h.groups)}")
        for got, exp in zip(groups, h.groups):
            expect(got == exp, f"group at line {exp[0]}: got {got}, expected {exp}")
        expect(doc["retained_ranges"] == h.retained, "retained ranges differ")
        return 0

    return check


def header_op(work: str, name: str, text: str, flags: str, extra: list[str], lines: int,
              check, known_fault: str = "", header: H.Header | None = None) -> Op:
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return Op("macros-branches",
              ["--format", "json", "macros", "branches", f"--flags={flags}", *extra, name],
              lines, check, known_fault=known_fault,
              params={"path": path, "flags": flags, "extra": extra, "header": header})


def header_branches(work: str, rng: random.Random) -> Workload:
    ops = []
    defines = conditions = 0
    for i, n in enumerate(HEADER_DEFINES):
        flags, base, extra = header_env(rng)
        h = H.generate(rng, base, n)
        defines += h.source_defines
        conditions += len(h.conditions)
        ops.append(header_op(work, f"header_{i}.h", h.text, flags, extra, h.lines, check_branches(h), header=h))
    # gcc -E evaluates the deep condition, so only the evaluated result
    # counts as a success; exit 2 for a depth limit below it is a failure.
    deep = H.deep_header(DEEP_PARENS)
    ops.append(header_op(
        work, "deep.h", deep.text, "-O2", [], deep.lines, check_branches(deep),
        known_fault=f"#if with parentheses nested {DEEP_PARENS} deep raises RecursionError"))
    n = len(HEADER_DEFINES)
    return Workload(ops, {"defines_per_header": defines / n, "conditions_per_header": conditions / n})


# --- one-question calls ------------------------------------------------------------


def _json_check(expected_status: int, body: Callable[[dict], None]) -> Callable[[int, str, str], int]:
    def check(status: int, out: str, err: str) -> int:
        if crashed(status, err):
            return 1
        expect(status == expected_status, f"exit status {status}, expected {expected_status}")
        body(load_json(out))
        return 0

    return check


def _probe_flags(v: int) -> Op:
    def body(doc):
        expect(D.decode_argv(doc["flags"]) == v, f"probe flags {v} gave {doc['flags']}")
        expect(doc["flags"] == D.canonical_flags(v), f"probe flags {v}: not canonical")
    return Op("probe-flags", ["--format", "json", "probe", "flags", str(v)], 1, _json_check(OK, body),
              params={"value": v})


def _probe_explain(v: int) -> Op:
    f = D.fields(v)
    weights = {d: w for d, w in zip(D.DIMENSIONS[:6], (1, 2, 4, 8, 16, 32))}

    def contribution(dim):
        if dim == "std_class":
            return D.CLASS_WEIGHT * f[dim]
        if dim == "ansi_mode":
            return D.MODE_WEIGHT * D.MODE_NAMES.index(f[dim])
        return weights[dim] if f[dim] else 0

    def body(doc):
        terms = doc["terms"]
        expect(sum(t["contribution"] for t in terms) == v, f"explain {v}: terms do not sum")
        expect([t["dimension"] for t in terms] == list(D.DIMENSIONS), "explain: dimensions")
        for t in terms:
            expect(t["contribution"] == contribution(t["dimension"]), f"explain {v}: {t['dimension']}")
        expect(doc["config"] == {d: D.render(x) for d, x in f.items()}, f"explain {v}: config")
    return Op("probe-explain", ["--format", "json", "probe", "explain", str(v)], 1, _json_check(OK, body),
              params={"value": v})


def _probe_value(v: int, rng: random.Random) -> Op:
    flags = D.noisy_flags(v, rng, contradict=0.6)

    def body(doc):
        expect(doc["value"] == v, f"probe value of {flags} gave {doc['value']}, expected {v}")
    return Op("probe-value", ["--format", "json", "probe", "value", "--flags=" + " ".join(flags)], 1,
              _json_check(OK, body), params={"flags": " ".join(flags)})


def _invocation_parse(v: int, rng: random.Random) -> Op:
    argv = D.noisy_flags(v, rng)
    directives, quote, normal, system = [], [], [], []
    for k in range(rng.randrange(2, 6)):
        r = rng.random()
        if r < 0.5:
            argv.append(f"-DM{k}={k * 11}")
            directives.append({"action": "define", "name": f"M{k}", "value": str(k * 11)})
        elif r < 0.7:
            argv.append(f"-DFLAG{k}")
            directives.append({"action": "define", "name": f"FLAG{k}", "value": "1"})
        else:
            argv.append(f"-UM{k}")
            directives.append({"action": "undefine", "name": f"M{k}", "value": None})
        kind = rng.choice(("-I", "-iquote", "-isystem"))
        path = f"/inc/{kind[1:]}{k}"
        argv += [kind + path] if rng.random() < 0.5 else [kind, path]
        {"-I": normal, "-iquote": quote, "-isystem": system}[kind].append(path)
    sources = [f"src/main_{rng.randrange(100)}.c"]
    argv += ["-Wall", "-o", "main.o", *sources]

    def body(doc):
        expect(doc["value"] == v, f"invocation parse value {doc['value']}, expected {v}")
        expect(doc["macro_directives"] == directives, "macro directives differ")
        expect(doc["include_dirs"] == {"quote": quote, "normal": normal, "system": system}, "include dirs")
        expect(doc["sources"] == sources, "sources differ")
    return Op("invocation-parse", ["--format", "json", "invocation", "parse", "--", *argv], 1,
              _json_check(OK, body), params={"argv": argv})


def _macros_show(v: int) -> Op:
    facts = D.predefined(v)

    def body(doc):
        bodies = {m["name"]: m["body"] for m in doc["macros"]}
        for name, want in facts.items():
            got = bodies.get(name)
            expect((got is None) == (want is None), f"macros show {v}: {name} presence")
            if want is not None:
                expect(int(got.rstrip("uUlL")) == want, f"macros show {v}: {name}={got}")
    return Op("macros-show", ["--format", "json", "macros", "show", "--value", str(v)], 1,
              _json_check(OK, body), params={"value": v})


_PROBE_EXPR = (
    "defined(__OPTIMIZE__) + __STDC_HOSTED__ * 2 + (__SIZEOF_POINTER__ == 8) * 4"
    " + defined __STRICT_ANSI__ * 8 + defined(__CHAR_UNSIGNED__) * 16"
    " + (__STDC_VERSION__ % 4) * 32 + K * 1000"
)


def _macros_eval(v: int, rng: random.Random, by_value: bool) -> Op:
    facts = D.predefined(v)
    k = rng.randrange(1, 50)
    want = ((facts["__OPTIMIZE__"] is not None) + facts["__STDC_HOSTED__"] * 2
            + (facts["__SIZEOF_POINTER__"] == 8) * 4 + (facts["__STRICT_ANSI__"] is not None) * 8
            + (facts["__CHAR_UNSIGNED__"] is not None) * 16
            + ((facts["__STDC_VERSION__"] or 0) % 4) * 32 + k * 1000)
    if by_value:
        env = ["--value", str(v), "-D", f"K={k}"]
    else:
        env = ["--flags=" + " ".join(D.noisy_flags(v, rng) + [f"-DK={k}"])]

    def body(doc):
        expect(doc["value"] == want and doc["taken"] is True, f"macros eval gave {doc['value']}, expected {want}")
    return Op("macros-eval", ["--format", "json", "macros", "eval", *env, _PROBE_EXPR], 1,
              _json_check(OK, body), params={"env": env, "expression": _PROBE_EXPR})


def _include_resolve(work: str, name: str, rng: random.Random) -> Op:
    includer = f"/proj/src/mod{rng.randrange(10)}/main.c"
    quote_dirs = [f"/proj/quote{i}" for i in range(2)]
    normal = [f"/proj/include{i}" for i in range(4)]
    system = [f"/proj/sys{i}" for i in range(2)]
    form = rng.choice(("quote", "angle"))
    candidates = normal + system + (["/proj/src/" + includer.split("/")[3]] + quote_dirs if form == "quote" else [])
    header = f"lib/util_{rng.randrange(1000)}.h"
    target = rng.choice(candidates)
    expected = f"{target}/{header}"
    files = [expected, includer]
    for d in candidates + ["/usr/include", "/proj/other"]:
        files += [f"{d}/lib/other_{j}.h" for j in range(20)]
    rng.shuffle(files)
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# virtual tree\n" + "\n".join(files) + "\n")
    flags = " ".join([f"-iquote{d}" for d in quote_dirs] + [f"-I{d}" for d in normal]
                     + [f"-isystem {d}" for d in system])

    def body(doc):
        expect(doc["found"] == expected, f"include resolve found {doc['found']}, expected {expected}")
        hits = [p["hit"] for p in doc["trace"]]
        expect(hits and hits[-1] and not any(hits[:-1]), "include trace has stray hits")
    return Op("include-resolve",
              ["--format", "json", "include", "resolve", "--header", header, "--form", form,
               "--includer", includer, "--manifest", name, f"--flags={flags}"], 1,
              _json_check(OK, body),
              params={"manifest": path, "header": header, "form": form, "includer": includer, "flags": flags})


#: Today ``simulation_agrees`` records whether the expression matched true
#: wraparound on the boundary pairs, not whether that agrees with the verdict.
SIMULATION_FAULT = "promote check --simulate reports simulation_agrees false on every UNRELIABLE model"


def _promote(operand: str, width: int, cast: bool) -> Op:
    """``promote check --all-models --simulate``.  Simulating the expression
    over boundary pairs shows the same reliability as the verdict, so the
    simulation agrees on every model."""
    models = D.width_models()
    verdicts = [D.wrap_check_reliable(width, m, cast) for m in models]
    status = OK if all(verdicts) else FINDINGS

    def check(code: int, out: str, err: str) -> int:
        if crashed(code, err):
            return 1
        expect(code == status, f"exit status {code}, expected {status}")
        rows = load_json(out)["verdicts"]
        expect([r["widths"] for r in rows] == models, "promote: width models differ")
        for r, reliable in zip(rows, verdicts):
            expect(r["verdict"] == ("RELIABLE" if reliable else "UNRELIABLE"), f"promote {operand}: {r}")
        agrees = [r["simulation_agrees"] for r in rows]
        if all(a is True for a in agrees):
            return 0
        # The known fault: false exactly where the verdict is UNRELIABLE.
        expect(agrees == verdicts and not all(verdicts), f"promote {operand}: simulation {agrees}")
        return 1

    argv = ["--format", "json", "promote", "check", "--operand", operand, "--all-models", "--simulate"]
    if cast:
        argv += ["--cast", operand]
    return Op("promote-check", argv, 1, check, known_fault="" if all(verdicts) else SIMULATION_FAULT,
              params={"operand": operand, "cast": cast})


def _space_count() -> Op:
    def body(doc):
        expect(doc["exact"] == str(2 ** 112), "space count is not 2**112")
    return Op("space-count", ["--format", "json", "space", "count"], 1, _json_check(OK, body))


def _space_models() -> Op:
    def body(doc):
        expect(doc["models"] == D.width_models() and doc["count"] == len(D.width_models()), "space models")
    return Op("space-models", ["--format", "json", "space", "models"], 1, _json_check(OK, body))


def cli_short(work: str, rng: random.Random) -> Workload:
    """One call of each kind a script asks, with seeded arguments."""
    vals = [rng.randrange(768) for _ in range(8)]
    ops = [
        _probe_flags(vals[0]),
        _probe_explain(vals[1]),
        _probe_value(vals[2], rng),
        _invocation_parse(vals[3], rng),
        _macros_show(vals[4]),
        _macros_eval(vals[5], rng, by_value=False),
        _macros_eval(vals[6], rng, by_value=True),
        _include_resolve(work, "tree.txt", rng),
        _promote("uint16_t", 16, cast=False),
        _promote("uint16_t", 16, cast=True),
        _space_count(),
        _space_models(),
    ]
    return Workload(ops, {"calls_per_round": len(ops)})


# --- probe verification -------------------------------------------------------------

#: Values with 32-bit pointers, fixed: the C main that prints their value
#: cannot link here.
VERIFY_32BIT = (0, 427)
#: Seeded 64-bit values per call, half of them optimised, since -O2 costs
#: gcc more than -O0.
VERIFY_64BIT_PER_CALL = 8


def _verify_op(values: list[int], jobs: int) -> Op:
    def check(status: int, out: str, err: str) -> int:
        if crashed(status, err):
            return len(values)
        doc = load_json(out)
        expect(doc["status"] == "ran", f"probe verify did not run: {doc.get('skip_reason')}")
        failures = {f["value"] for f in doc["failures"]}
        expect(doc["passed"] + doc["failed"] == len(values), "passed + failed != values requested")
        expect(doc["failed"] == len(failures), "failure count differs from failure list")
        expect(not failures - set(VERIFY_32BIT), f"64-bit values failed: {sorted(failures - set(VERIFY_32BIT))}")
        expect(status == (FINDINGS if failures else OK), f"exit status {status}")
        return len(failures)

    return Op("probe-verify",
              ["--format", "json", "probe", "verify", "--compiler", "gcc",
               "--values", ",".join(map(str, values)), "--jobs", str(jobs)],
              len(values), check, units=len(values),
              known_fault="32-bit values: the C main that prints the value includes <stdio.h>, and no 32-bit libc is installed",
              params={"values": values, "jobs": jobs})


#: probe-verify's reference compiles, links and runs a small fixed C program
#: with gcc, as many at a time as the workload's jobs, since gcc and not
#: Python dominates the workload.
GCC_REFERENCE = """import subprocess
from concurrent.futures import ThreadPoolExecutor
def build(i):
    subprocess.run(["gcc", "-w", "-O2", "ref.c", "-o", f"ref{i}"], check=True)
    subprocess.run([f"./ref{i}"], check=True, stdout=subprocess.DEVNULL)
with ThreadPoolExecutor(%d) as pool:
    list(pool.map(build, range(2)))
"""
GCC_REFERENCE_C = """#include <stdio.h>
struct s { int f:8; };
enum e { A, B = 100000 };
int main(void) {
    struct s v = { 255 };
    printf("%d %d\\n", (int)sizeof(enum e), v.f < 0);
    return 0;
}
"""


def probe_verify(work: str, rng: random.Random) -> Workload:
    jobs = min(2, os.cpu_count() or 1)
    with open(os.path.join(work, "ref.c"), "w", encoding="utf-8") as fh:
        fh.write(GCC_REFERENCE_C)
    ops = []
    for fixed in VERIFY_32BIT:
        plain = [v for v in range(768) if v & D.PTR64 and not v & D.OPT]
        optimised = [v for v in range(768) if v & D.PTR64 and v & D.OPT]
        half = VERIFY_64BIT_PER_CALL // 2
        ops.append(_verify_op(sorted(rng.sample(plain, half) + rng.sample(optimised, half) + [fixed]), jobs))
    return Workload(ops, {"values_per_round": sum(op.units for op in ops), "values_32bit_per_round": len(VERIFY_32BIT)},
                    reference=(GCC_REFERENCE % jobs, 0.13))


WORKLOADS: dict[str, Callable[[str, random.Random], Workload]] = {
    "audit-shared": audit_shared,
    "check-distinct": check_distinct,
    "header-branches": header_branches,
    "cli-short": cli_short,
    "probe-verify": probe_verify,
}
