"""Compile-database ingestion and cross-TU dialect auditing.

A build capture is the compile_commands.json convention: a JSON array
of entries with ``directory``, ``file``, and either ``command`` (one
shell-quoted string) or ``arguments`` (pre-split).  Each entry is
parsed into an invocation and a dialect; an audit then reports every
dialect dimension on which translation units disagree, or on which
they differ from a declared reference dialect.
"""

from __future__ import annotations

import json
import posixpath
from enum import IntEnum
from typing import Mapping, NamedTuple

from .dialect_model import (
    DIMENSIONS,
    DialectConfig,
    canonical_flags,
    encode_config,
    format_setting,
)
from .invocation import (
    CompilerInvocation,
    InvocationError,
    parse_invocation,
    split_command,
)
from .profiles import CompilerProfile, ProfileError


class BuildLoadError(ValueError):
    """Malformed capture document or entry."""


class Severity(IntEnum):
    MEDIUM = 1
    HIGH = 2


# Divergence in object layout silently changes what shared data means
# across TUs; divergence in the macro environment "only" selects
# different code.  Overridable per audit call.
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
    invocation: CompilerInvocation | None = None
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
        severities = [f.severity for f in self.inconsistencies]
        severities += [f.severity for f in self.mismatches]
        if self.unauditable:
            # An entry we cannot interpret may hide anything.
            severities.append(Severity.HIGH)
        return max(severities) if severities else None

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
            "inconsistencies": [
                {
                    "dimension": f.dimension,
                    "severity": f.severity.name.lower(),
                    "values": [
                        {"value": value, "files": list(files)}
                        for value, files in f.partition
                    ],
                }
                for f in self.inconsistencies
            ],
            "mismatches": [
                {
                    "file": f.file,
                    "dimension": f.dimension,
                    "tu_value": f.tu_value,
                    "reference_value": f.reference_value,
                    "severity": f.severity.name.lower(),
                }
                for f in self.mismatches
            ],
            "unauditable": list(self.unauditable),
            "reference_value": self.reference_value,
        }


def load_build(document: str, profile: CompilerProfile) -> BuildCapture:
    """Parse a compile-database document.  A ``command`` is split into
    words by :func:`split_command`: POSIX quoting, no expansions."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise BuildLoadError(f"invalid JSON: {exc}") from None
    if not isinstance(data, list) or not data:
        raise BuildLoadError("capture must be a non-empty JSON array of entries")

    entries: list[BuildEntry] = []
    covered: dict[str, bool] = {}  # compiler basename -> profile covers it
    for index, item in enumerate(data):
        where = f"entry {index}"
        if not isinstance(item, dict):
            raise BuildLoadError(f"{where}: expected an object")
        file = item.get("file")
        if not isinstance(file, str) or not file:
            raise BuildLoadError(f"{where}: missing field 'file'")
        where = f"entry {index} ({file})"
        directory = item.get("directory", "")
        if not isinstance(directory, str):
            raise BuildLoadError(f"{where}: field 'directory' must be a string")
        if "arguments" in item:
            arguments = item["arguments"]
            if not isinstance(arguments, list) or not all(
                isinstance(a, str) for a in arguments
            ):
                raise BuildLoadError(f"{where}: 'arguments' must be a string array")
        elif "command" in item:
            if not isinstance(item["command"], str):
                raise BuildLoadError(f"{where}: 'command' must be a string")
            try:
                arguments = split_command(item["command"])
            except ValueError as exc:
                raise BuildLoadError(f"{where}: unparseable command: {exc}") from None
        else:
            raise BuildLoadError(f"{where}: needs 'command' or 'arguments'")
        if not arguments:
            raise BuildLoadError(f"{where}: empty argument list")

        compiler = posixpath.basename(arguments[0].replace("\\", "/"))
        inv = None
        reason = "compiler not covered by profile"
        if compiler not in covered:
            covered[compiler] = profile.covers_compiler(compiler)
        if covered[compiler]:
            # One entry the profile cannot interpret must not sink the
            # audit of the others: it becomes an unauditable row.
            try:
                inv = parse_invocation(arguments[1:], env={}, profile=profile)
                reason = ""
            except (InvocationError, ProfileError) as exc:
                reason = str(exc)
        entries.append(
            BuildEntry(
                directory,
                file,
                tuple(arguments),
                compiler,
                UNAUDITABLE if inv is None else OK,
                invocation=inv,
                dialect=None if inv is None else inv.dialect,
                reason=reason,
            )
        )
    return BuildCapture(entries=tuple(entries), profile=profile)


def _per_tu_rows(capture: BuildCapture) -> tuple[PerTuRow, ...]:
    # A profile without canonical spellings still yields each TU's value;
    # its rows just carry no flags.
    renders = capture.profile.canonical is not None
    rows = []
    for e in capture.entries:
        if e.status == OK:
            assert e.dialect is not None
            flags = canonical_flags(e.dialect, capture.profile) if renders else ()
            rows.append(PerTuRow(e.file, OK, encode_config(e.dialect), tuple(flags)))
        else:
            rows.append(PerTuRow(e.file, UNAUDITABLE, None, (), e.reason))
    return tuple(rows)


def _policy(overrides: Mapping[str, Severity] | None) -> dict[str, Severity]:
    policy = dict(DEFAULT_SEVERITY_POLICY)
    if overrides:
        for dimension, severity in overrides.items():
            if dimension not in policy:
                raise ValueError(f"unknown dialect dimension: {dimension}")
            policy[dimension] = Severity(severity)
    return policy


def audit(
    capture: BuildCapture, severity_policy: Mapping[str, Severity] | None = None
) -> AuditReport:
    """Report each dimension on which the capture's TUs disagree, with
    the partition of files by value."""
    policy = _policy(severity_policy)
    ok = capture.ok_entries()
    inconsistencies: list[Inconsistency] = []
    for dimension in DIMENSIONS:
        partition: dict[str, list[str]] = {}
        for e in ok:
            assert e.dialect is not None
            setting = format_setting(e.dialect.value_of(dimension))
            partition.setdefault(setting, []).append(e.file)
        if len(partition) >= 2:
            inconsistencies.append(
                Inconsistency(
                    dimension,
                    tuple((v, tuple(files)) for v, files in partition.items()),
                    policy[dimension],
                )
            )
    return AuditReport(
        per_tu=_per_tu_rows(capture),
        inconsistencies=tuple(inconsistencies),
        unauditable=tuple(e.file for e in capture.entries if e.status == UNAUDITABLE),
    )


def check_against(
    capture: BuildCapture,
    reference: DialectConfig,
    severity_policy: Mapping[str, Severity] | None = None,
) -> AuditReport:
    """Compare every TU dialect against the analysis tool's declared
    dialect; one mismatch row per differing (file, dimension)."""
    policy = _policy(severity_policy)
    mismatches: list[Mismatch] = []
    for e in capture.ok_entries():
        assert e.dialect is not None
        for dimension in DIMENSIONS:
            tu_value = e.dialect.value_of(dimension)
            ref_value = reference.value_of(dimension)
            if tu_value != ref_value:
                mismatches.append(
                    Mismatch(
                        e.file,
                        dimension,
                        format_setting(tu_value),
                        format_setting(ref_value),
                        policy[dimension],
                    )
                )
    return AuditReport(
        per_tu=_per_tu_rows(capture),
        mismatches=tuple(mismatches),
        unauditable=tuple(e.file for e in capture.entries if e.status == UNAUDITABLE),
        reference_value=encode_config(reference),
    )
