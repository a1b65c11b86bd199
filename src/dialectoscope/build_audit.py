"""Compile-database ingestion and cross-TU dialect auditing.

A build capture is the compile_commands.json convention: a JSON array
of entries with ``directory``, ``file``, and either ``command`` (one
shell-quoted string) or ``arguments`` (pre-split).  Each entry's argv
is parsed into a dialect; an audit then reports every dialect dimension
on which translation units disagree, or on which they differ from a
declared reference dialect.

What a report says of a TU depends only on the TU's dialect, and a
database has at most 768 of them.  So an audit or a check works out each
distinct dialect's facts once (its value, canonical flags, settings and
differences from the reference) and holds each TU as its file and an index
into those facts.  :func:`audit` and :func:`check_against` expand that into
an :class:`AuditReport` of per-TU records; the command line writes the
facts as text without expanding them, so rows that share a dialect share
their rendered text.
"""

from __future__ import annotations

import json
import posixpath
from enum import IntEnum
from itertools import chain
from typing import Iterable, NamedTuple

from .dialect_model import (
    DIMENSIONS,
    DialectConfig,
    canonical_flags,
    encode_config,
    format_setting,
)
from .invocation import InvocationError, _dialect_of, _WordEffects, split_command
from .profiles import CompilerProfile, ProfileError


class BuildLoadError(ValueError):
    """Malformed capture document or entry."""


class Severity(IntEnum):
    MEDIUM = 1
    HIGH = 2


#: Each severity's JSON text, so a report's rows look it up, not compute it.
_SEVERITY_TEXT = {s: s.name.lower() for s in Severity}


def _top_severity(severities: Iterable[Severity], unauditable: bool) -> Severity | None:
    """The highest of ``severities``, and HIGH if a TU is ``unauditable``: it may hide anything."""
    return max(chain(severities, (Severity.HIGH,) if unauditable else ()), default=None)


# Divergence in object layout silently changes what shared data means
# across TUs; divergence in the macro environment "only" selects
# different code.  Each finding carries its dimension's severity, which
# --fail-on compares against.
DEFAULT_SEVERITY_POLICY: dict[str, Severity] = {
    "char_is_signed": Severity.HIGH,
    "bitfield_is_signed": Severity.HIGH,
    "short_enums": Severity.HIGH,
    "pointer_width_64": Severity.HIGH,
    "optimized": Severity.MEDIUM,
    "freestanding": Severity.MEDIUM,
    "std_class": Severity.MEDIUM,
    "ansi_mode": Severity.MEDIUM,
}

OK = "ok"
UNAUDITABLE = "unauditable"


class BuildEntry(NamedTuple):
    directory: str
    file: str
    arguments: tuple[str, ...]  # verbatim, argv[0] included
    compiler: str
    status: str  # "ok" | "unauditable"
    dialect: DialectConfig | None = None
    reason: str = ""  # why an unauditable entry could not be interpreted


class BuildCapture(NamedTuple):
    entries: tuple[BuildEntry, ...]
    profile: CompilerProfile

    def ok_entries(self) -> list[BuildEntry]:
        return [e for e in self.entries if e.status == OK]


class PerTuRow(NamedTuple):
    file: str
    status: str
    value: int | None
    flags: tuple[str, ...]
    reason: str = ""  # set on unauditable rows; not part of the JSON report


class Inconsistency(NamedTuple):
    dimension: str
    partition: tuple[tuple[str, tuple[str, ...]], ...]  # (value, files) by first appearance
    severity: Severity


class Mismatch(NamedTuple):
    file: str
    dimension: str
    tu_value: str
    reference_value: str
    severity: Severity


class AuditReport(NamedTuple):
    per_tu: tuple[PerTuRow, ...]
    inconsistencies: tuple[Inconsistency, ...] = ()
    mismatches: tuple[Mismatch, ...] = ()
    unauditable: tuple[str, ...] = ()
    reference_value: int | None = None

    def max_severity(self) -> Severity | None:
        findings = chain(self.inconsistencies, self.mismatches)
        return _top_severity((f.severity for f in findings), bool(self.unauditable))

    def has_findings(self, threshold: Severity = Severity.MEDIUM) -> bool:
        top = self.max_severity()
        return top is not None and top >= threshold

    def to_json_dict(self) -> dict:
        return {
            "per_tu": [
                {
                    "file": r.file,
                    "status": r.status,
                    "value": r.value,
                    "flags": list(r.flags),
                }
                for r in self.per_tu
            ],
            "inconsistencies": list(map(_inconsistency_json, self.inconsistencies)),
            "mismatches": [
                {
                    "file": f.file,
                    "dimension": f.dimension,
                    "tu_value": f.tu_value,
                    "reference_value": f.reference_value,
                    "severity": _SEVERITY_TEXT[f.severity],
                }
                for f in self.mismatches
            ],
            "unauditable": list(self.unauditable),
            "reference_value": self.reference_value,
        }


def _inconsistency_json(f: Inconsistency) -> dict:
    """An inconsistency as the JSON report shows it."""
    return {
        "dimension": f.dimension,
        "severity": _SEVERITY_TEXT[f.severity],
        "values": [{"value": value, "files": list(files)} for value, files in f.partition],
    }


def _entry_arguments(item, index: int) -> tuple[str, str, list[str]]:
    """(directory, file, argv) of one database entry, or BuildLoadError."""
    if not isinstance(item, dict):
        raise BuildLoadError(f"entry {index}: expected an object")
    file = item.get("file")
    if not isinstance(file, str) or not file:
        raise BuildLoadError(f"entry {index}: missing field 'file'")
    directory = item.get("directory", "")
    problem = None
    if not isinstance(directory, str):
        problem = "field 'directory' must be a string"
    elif "arguments" in item:
        arguments = item["arguments"]
        # JSON yields no str subclasses, so the exact type is the test.
        if not isinstance(arguments, list) or not set(map(type, arguments)) <= {str}:
            problem = "'arguments' must be a string array"
    elif "command" in item:
        if not isinstance(item["command"], str):
            problem = "'command' must be a string"
        else:
            try:
                arguments = split_command(item["command"])
            except ValueError as exc:
                problem = f"unparseable command: {exc}"
    else:
        problem = "needs 'command' or 'arguments'"
    if problem is None and not arguments:
        problem = "empty argument list"
    if problem is not None:
        raise BuildLoadError(f"entry {index} ({file}): {problem}")
    return directory, file, arguments


def load_build(document: str, profile: CompilerProfile) -> BuildCapture:
    """Parse a compile-database document.  A ``command`` is split into
    words by :func:`split_command`: POSIX quoting, no expansions.

    Each entry's dialect is derived from its argv as written, by one fold
    over a table of word effects that the whole load shares: a word's
    effect, or the error it raises, is worked out the first time the word
    is seen.  Build systems repeat most words across TUs even where whole
    command lines differ, and a per-TU ``-D<name>=<value>`` whose value
    holds no "#" shares the effect of its ``-D<name>=`` when that does
    nothing.  The entries equal those of parsing each argv alone, error
    text included."""
    try:
        data = json.loads(document)
    # json raises RecursionError on arrays or objects nested too deep.
    except (json.JSONDecodeError, RecursionError) as exc:
        raise BuildLoadError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list) or not data:
        raise BuildLoadError("capture must be a non-empty JSON array of entries")

    entries: list[BuildEntry] = []
    compilers: dict[str, tuple[str, bool]] = {}  # argv[0] -> (basename, covered)
    effects = _WordEffects(profile)
    for index, item in enumerate(data):
        directory, file, arguments = _entry_arguments(item, index)
        if arguments[0] not in compilers:
            basename = posixpath.basename(arguments[0].replace("\\", "/"))
            compilers[arguments[0]] = basename, profile.covers_compiler(basename)
        compiler, covered = compilers[arguments[0]]
        dialect, reason = None, "compiler not covered by profile"
        if covered:
            # One entry the profile cannot interpret must not sink the
            # audit of the others: it becomes an unauditable row.
            try:
                dialect, reason = _dialect_of(arguments[1:], effects), ""
            except (InvocationError, ProfileError) as exc:
                reason = str(exc)
        entries.append(
            BuildEntry(
                directory,
                file,
                tuple(arguments),
                compiler,
                UNAUDITABLE if dialect is None else OK,
                dialect,
                reason,
            )
        )
    return BuildCapture(entries=tuple(entries), profile=profile)


class _DialectFacts(NamedTuple):
    """What an audit or a check reports of each TU of one dialect."""

    value: int
    flags: tuple[str, ...]  # canonical flags; () where the profile has no spellings
    settings: tuple[str, ...]  # each of DIMENSIONS as reports show it
    #: (dimension, TU setting, reference setting, severity) of each
    #: dimension on which the dialect differs from the reference; () in an
    #: audit.
    differences: tuple[tuple[str, str, str, Severity], ...]


class _BuildFacts(NamedTuple):
    """An audit or a check of one capture, held per distinct dialect."""

    entries: tuple[BuildEntry, ...]
    #: Each distinct dialect of the ok entries, in order of first appearance.
    dialects: tuple[_DialectFacts, ...]
    #: Per entry, its dialect's position in ``dialects``; None where the
    #: entry is unauditable.
    index: list[int | None]
    inconsistencies: tuple[Inconsistency, ...]
    reference_value: int | None

    def max_severity(self) -> Severity | None:
        """What :meth:`AuditReport.max_severity` of :meth:`report` gives."""
        severities = [f.severity for f in self.inconsistencies]
        severities += [d[3] for facts in self.dialects for d in facts.differences]
        return _top_severity(severities, None in self.index)

    def report(self) -> AuditReport:
        per_tu: list[PerTuRow] = []
        mismatches: list[Mismatch] = []
        for e, k in zip(self.entries, self.index):
            if k is None:
                per_tu.append(PerTuRow(e.file, UNAUDITABLE, None, (), e.reason))
                continue
            facts = self.dialects[k]
            per_tu.append(PerTuRow(e.file, OK, facts.value, facts.flags))
            mismatches += [Mismatch(e.file, *d) for d in facts.differences]
        return AuditReport(
            per_tu=tuple(per_tu),
            inconsistencies=self.inconsistencies,
            mismatches=tuple(mismatches),
            unauditable=tuple(e.file for e, k in zip(self.entries, self.index) if k is None),
            reference_value=self.reference_value,
        )


def _build_facts(capture: BuildCapture, reference: DialectConfig | None = None) -> _BuildFacts:
    """The facts of an audit of ``capture`` or, given a ``reference``, of a
    check against it: each distinct dialect's facts are worked out once."""
    # An unauditable entry has no dialect: None, first, maps to no position.
    positions: dict[DialectConfig | None, int | None] = {None: None}
    index = [positions.setdefault(e.dialect, len(positions) - 1) for e in capture.entries]
    profile = capture.profile
    # A profile without canonical spellings still yields each TU's value;
    # its rows just carry no flags.
    renders = profile.canonical is not None
    # A DialectConfig holds its values in DIMENSIONS order.
    references = () if reference is None else tuple(zip(reference, map(format_setting, reference)))
    dialects = []
    for dialect in list(positions)[1:]:
        settings = tuple(map(format_setting, dialect))
        differences = tuple(
            (dim, setting, theirs_text, DEFAULT_SEVERITY_POLICY[dim])
            for dim, mine, setting, (theirs, theirs_text)
            in zip(DIMENSIONS, dialect, settings, references)
            if mine != theirs
        )
        dialects.append(_DialectFacts(
            encode_config(dialect),
            tuple(canonical_flags(dialect, profile)) if renders else (),
            settings,
            differences,
        ))
    inconsistencies: list[Inconsistency] = []
    if reference is None:
        for i, dimension in enumerate(DIMENSIONS):
            if len({facts.settings[i] for facts in dialects}) < 2:
                continue
            column = [facts.settings[i] for facts in dialects]
            partition: dict[str, list[str]] = {}
            for e, k in zip(capture.entries, index):
                if k is not None:
                    partition.setdefault(column[k], []).append(e.file)
            inconsistencies.append(Inconsistency(
                dimension,
                tuple((v, tuple(files)) for v, files in partition.items()),
                DEFAULT_SEVERITY_POLICY[dimension],
            ))
    return _BuildFacts(
        capture.entries,
        tuple(dialects),
        index,
        tuple(inconsistencies),
        None if reference is None else encode_config(reference),
    )


def audit(capture: BuildCapture) -> AuditReport:
    """Report each dimension on which the capture's TUs disagree, with
    the partition of files by value."""
    return _build_facts(capture).report()


def check_against(capture: BuildCapture, reference: DialectConfig) -> AuditReport:
    """Compare every TU dialect against the analysis tool's declared
    dialect; one mismatch row per differing (file, dimension)."""
    return _build_facts(capture, reference).report()
