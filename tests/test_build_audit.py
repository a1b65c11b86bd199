"""Compile-database loading and cross-TU dialect audits."""

import json
import shlex

import pytest
from hypothesis import given, settings, strategies as st

from dialectoscope import (
    DIMENSIONS,
    AuditReport,
    BuildLoadError,
    PerTuRow,
    Severity,
    audit,
    canonical_flags,
    check_against,
    decode_value,
    encode_config,
    load_build,
)
from dialectoscope import invocation
from conftest import compile_db
from test_invocation import _PROFILES, _TRICKY_WORDS, _oracle_parse_invocation


def capture_of(entries, profile):
    return load_build(compile_db(entries), profile)


def flags_for(value, profile):
    return " ".join(canonical_flags(decode_value(value), profile))


# --- loading ----------------------------------------------------------------


def test_load_command_form(profile):
    capture = capture_of([("a.c", "-O2 -funsigned-char")], profile)
    (entry,) = capture.entries
    assert entry.status == "ok"
    assert entry.compiler == "gcc"
    assert entry.dialect.optimized
    assert not entry.dialect.char_is_signed
    assert entry.arguments[0] == "gcc"


def test_load_arguments_form(profile):
    doc = json.dumps(
        [{"directory": "/p", "file": "a.c", "arguments": ["cc", "-std=c99", "-c", "a.c"]}]
    )
    capture = load_build(doc, profile)
    (entry,) = capture.entries
    assert entry.status == "ok"
    assert entry.dialect.std_class == 1
    assert entry.compiler == "cc"


def test_load_command_respects_shell_quoting(profile):
    doc = json.dumps(
        [{"directory": "/p", "file": "a b/x.c", "command": "gcc -c 'a b/x.c'"}]
    )
    capture = load_build(doc, profile)
    assert capture.entries[0].arguments == ("gcc", "-c", "a b/x.c")


def test_load_windows_style_compiler_path(profile):
    doc = json.dumps(
        [{"directory": "/p", "file": "a.c", "arguments": ["tools\\gcc", "-c", "a.c"]}]
    )
    capture = load_build(doc, profile)
    assert capture.entries[0].compiler == "gcc"
    assert capture.entries[0].status == "ok"


def test_unknown_compiler_is_unauditable(profile):
    doc = json.dumps(
        json.loads(compile_db([("a.c", "")]))
        + [{"directory": "/p", "file": "fw.c", "command": "armcc --c99 fw.c"}]
    )
    capture = load_build(doc, profile)
    statuses = [e.status for e in capture.entries]
    assert statuses == ["ok", "unauditable"]
    assert capture.ok_entries()[0].file == "a.c"


@pytest.mark.parametrize(
    "document,fragment",
    [
        ("not json", "invalid JSON"),
        ("[]", "non-empty"),
        ("{}", "non-empty JSON array"),
        ("[42]", "expected an object"),
        ('[{"directory": "/p", "command": "gcc -c a.c"}]', "missing field 'file'"),
        ('[{"file": "a.c"}]', "needs 'command' or 'arguments'"),
        ('[{"file": "a.c", "arguments": "gcc"}]', "string array"),
        ('[{"file": "a.c", "arguments": []}]', "empty argument list"),
        ('[{"file": "a.c", "command": "gcc \'unclosed"}]', "unparseable command"),
        ('[{"file": "a.c", "directory": 3, "command": "gcc -c a.c"}]', "'directory'"),
    ],
)
def test_load_rejects_malformed_documents(document, fragment, profile):
    with pytest.raises(BuildLoadError) as err:
        load_build(document, profile)
    assert fragment in str(err.value)


def test_load_turns_bad_flags_into_unauditable_row(profile):
    capture = capture_of([("a.c", "-O2"), ("z.c", "-std=c2x"), ("b.c", "")], profile)
    assert [e.status for e in capture.entries] == ["ok", "unauditable", "ok"]
    report = audit(capture)
    assert report.unauditable == ("z.c",)
    row = report.per_tu[1]
    assert (row.file, row.value, row.flags) == ("z.c", None, ())
    assert "c2x" in row.reason


# --- each flag set parsed once -------------------------------------------------


def _oracle_load_build(document, profile):
    """The loader without a word table: every entry's argv parsed on its
    own by the reference parser of the invocation tests, word by word.
    Kept as the reference the loader must equal."""
    import posixpath

    from dialectoscope.build_audit import BuildCapture, BuildEntry
    from dialectoscope.invocation import InvocationError, split_command
    from dialectoscope.profiles import ProfileError

    entries = []
    for item in json.loads(document):
        arguments = item["arguments"] if "arguments" in item else split_command(item["command"])
        compiler = posixpath.basename(arguments[0].replace("\\", "/"))
        dialect, reason = None, "compiler not covered by profile"
        if profile.covers_compiler(compiler):
            try:
                dialect = _oracle_parse_invocation(arguments[1:], {}, profile).dialect
                reason = ""
            except (InvocationError, ProfileError) as exc:
                reason = str(exc)
        entries.append(
            BuildEntry(
                item.get("directory", ""), item["file"], tuple(arguments), compiler,
                "unauditable" if dialect is None else "ok", dialect, reason,
            )
        )
    return BuildCapture(tuple(entries), profile)


# Per-TU pieces spliced into a shared flag set; "{v}" is a per-TU value and
# "{f}" the entry's file.  They cover -o as the last word, -D -o and -I -o
# (where -o is a value, not an option), -o -D (where -D is one), a source
# listed twice, separate values of -D, -U, --std and of options whose value
# the parser only appends, and a per-TU function-like -D.
_PER_TU_PIECES = [
    ["-o", "{v}"], ["-MF", "{v}"], ["-MT", "{v}"], ["-MQ", "{v}"], ["-c", "{f}"],
    ["{f}"], ["-o"], ["-D", "-o", "{v}"], ["-I", "-o", "{v}"], ["-I", "{f}"], ["-D", "{f}"],
    ["-D", "{v}"], ["-U", "{v}"], ["-I", "{v}"], ["-x", "{v}"], ["-o", "-D", "{v}"],
    ["--std", "{v}"], ["--std", "gnu89"], ["-D{v}(x)=1"],
]


#: -D words whose heads TUs share, each with a per-TU value "{v}": a plain,
#: a function-like and a malformed head, values that hold "#" or "##",
#: which GCC rejects at either end of a body and, in a function-like macro,
#: where a "#" takes no parameter, and a head that opens a comment.
_SHARED_HEAD_DEFINES = [
    "-DID={v}", "-DF(x)={v}", "-D9x={v}", "-DID=#{v}", "-DID=x##{v}", "-DID={v}##",
    "-DF(x)=#x{v}", "-DF(x)=#{v}", "-DF(x)={v}##x", "-DID ##={v}", "-DID /*={v}",
]


@st.composite
def _flag_set(draw):
    """Flag-set words, and where each TU splices its per-TU pieces in."""
    words = draw(st.lists(st.sampled_from(_TRICKY_WORDS), max_size=8))
    pieces = draw(st.lists(st.sampled_from(_PER_TU_PIECES), max_size=4))
    return words, [(draw(st.integers(0, len(words) + k)), p) for k, p in enumerate(pieces)]


@st.composite
def _databases(draw):
    profile = _PROFILES[draw(st.sampled_from(sorted(_PROFILES)))]
    flag_sets = draw(st.lists(_flag_set(), min_size=1, max_size=3))
    entries = []
    for i in range(draw(st.integers(1, 10))):
        # A file may equal an option value or a flag-set word, or start with -.
        file = draw(st.sampled_from([f"s{i}.c"] * 3 + ["s.c", f"v{i}", "a.c", "-s.c", "-", "-o"]))
        words, splices = draw(st.sampled_from(flag_sets))
        words = list(words)
        for at, piece in splices:
            value = draw(st.sampled_from(
                [f"v{i}"] * 3 + [file, "", "-", f"-v{i}", "v", "9x", "A=1", "-D", "c99"]
            ))
            words[at:at] = [w.format(v=value, f=file) for w in piece]
        for define in draw(st.lists(st.sampled_from(_SHARED_HEAD_DEFINES), max_size=3)):
            value = draw(st.sampled_from(
                [str(i), f"v{i}", "", "#", "##", f"x #{i}", f"x/*{i}", f"{i}//c", "*/"]
            ))
            words.insert(draw(st.integers(0, len(words))), define.format(v=value))
        argv = [draw(st.sampled_from(["gcc", "gcc", "mcc18", "clang"])), *words]
        entry = {"directory": "/p", "file": file}
        if draw(st.booleans()):
            entry["arguments"] = argv
        else:
            entry["command"] = shlex.join(argv)
        entries.append(entry)
    return json.dumps(entries), profile


@settings(max_examples=400)
@given(_databases())
def test_memoized_load_matches_per_entry_parsing(database):
    document, profile = database
    capture = load_build(document, profile)
    assert capture == _oracle_load_build(document, profile)


def test_function_like_define_is_auditable(profile):
    capture = capture_of([("a.c", "'-DF(x)=x+1' -O2"), ("b.c", "-DF\\(x\\) -O2")], profile)
    assert [e.status for e in capture.entries] == ["ok", "ok"]
    assert not audit(capture).has_findings()


def test_unparseable_tus_in_a_shared_flag_set_keep_their_reasons(profile):
    doc = json.dumps([
        {"file": f"u{i}.c", "arguments": ["gcc", "-std=c2x", "-o", f"u{i}.o", "-c", f"u{i}.c"]}
        for i in range(3)
    ])
    entries = load_build(doc, profile).entries
    assert [e.status for e in entries] == ["unauditable"] * 3
    assert len({e.reason for e in entries}) == 1 and "c2x" in entries[0].reason


@pytest.mark.parametrize(
    "word, fragment",
    [("-std=c2x", "does not know -std=c2x"), ("-D9x", "malformed -D argument: '9x'")],
)
def test_an_erroring_word_gives_one_reason_in_every_distinct_argv(word, fragment, profile):
    # The word's error is learned once and raised again in each TU that
    # holds it, wherever it stands and whatever the other words are.
    doc = json.dumps([
        {"file": f"u{i}.c", "arguments": ["gcc", *["-O2"] * i, word, f"-DID={i}", "-c", f"u{i}.c"]}
        for i in range(4)
    ] + [{"file": "ok.c", "arguments": ["gcc", "-c", "ok.c"]}])
    entries = load_build(doc, profile).entries
    assert [e.status for e in entries] == ["unauditable"] * 4 + ["ok"]
    reasons = {e.reason for e in entries[:4]}
    assert len(reasons) == 1 and fragment in reasons.pop()


def test_per_tu_define_values_share_their_heads_effect(profile, monkeypatch):
    # N TUs that each define their own ID cost one effect for the head
    # "-DID=", not one per TU; malformed heads still get their own reasons.
    calls = []
    word_effect = invocation._word_effect
    monkeypatch.setattr(
        invocation, "_word_effect", lambda word, p: calls.append(word) or word_effect(word, p)
    )
    n = 50
    doc = json.dumps(
        [{"file": f"u{i}.c", "arguments": ["gcc", "-O2", f"-DID={i}", "-c", f"u{i}.c"]}
         for i in range(n)]
        + [{"file": f"bad{i}.c", "arguments": ["gcc", f"-D9x={i}", f"bad{i}.c"]} for i in (1, 2)]
    )
    entries = load_build(doc, profile).entries
    assert [e.status for e in entries] == ["ok"] * n + ["unauditable"] * 2
    assert [w for w in calls if w.startswith("-DID")] == ["-DID="]
    assert [e.reason for e in entries[n:]] == [
        "malformed -D argument: '9x=1'", "malformed -D argument: '9x=2'"
    ]


def test_per_tu_define_value_that_opens_a_comment_is_unauditable(profile):
    # GCC rejects -DID=x/* ("unterminated comment"), whatever the effect
    # of the head -DID= that the other TUs share.
    doc = json.dumps([{"file": f"u{i}.c", "arguments": ["gcc", v, f"u{i}.c"]}
                      for i, v in enumerate(["-DID=1", "-DID=x/*", "-DID=2//c"])])
    entries = load_build(doc, profile).entries
    assert [e.status for e in entries] == ["ok", "unauditable", "ok"]
    assert entries[1].reason == "malformed -D argument: 'ID=x/*': unterminated comment"


# --- consistency audit --------------------------------------------------------


def test_audit_flags_char_signedness_split(profile):
    capture = capture_of(
        [("a.c", "-O2"), ("b.c", "-O2 -funsigned-char"), ("c.c", "-O2")], profile
    )
    report = audit(capture)
    (finding,) = report.inconsistencies
    assert finding.dimension == "char_is_signed"
    assert finding.severity is Severity.HIGH
    assert finding.partition == (
        ("true", ("a.c", "c.c")),
        ("false", ("b.c",)),
    )
    assert report.max_severity() is Severity.HIGH
    assert report.has_findings()
    # TUs of one flag set share one parse.
    assert capture.entries[0].dialect is capture.entries[2].dialect


def test_audit_consistent_build_is_clean(profile):
    capture = capture_of([("a.c", "-O2 -std=gnu11"), ("b.c", "-std=gnu11 -O2")], profile)
    report = audit(capture)
    assert report.inconsistencies == ()
    assert report.max_severity() is None
    assert not report.has_findings()
    assert {row.value for row in report.per_tu} == {
        encode_config(capture.entries[0].dialect)
    }


def test_audit_std_partition_is_medium(profile):
    capture = capture_of(
        [("a.c", "-std=c99"), ("b.c", "-std=c99"), ("c.c", "-std=c11")], profile
    )
    report = audit(capture)
    (finding,) = report.inconsistencies
    assert finding.dimension == "std_class"
    assert finding.severity is Severity.MEDIUM
    assert finding.partition == (("1", ("a.c", "b.c")), ("0", ("c.c",)))
    assert report.max_severity() is Severity.MEDIUM
    assert report.has_findings(Severity.MEDIUM)
    assert not report.has_findings(Severity.HIGH)


def test_audit_multiple_dimensions(profile):
    capture = capture_of([("a.c", ""), ("b.c", "-O2 -m32")], profile)
    report = audit(capture)
    dims = {f.dimension for f in report.inconsistencies}
    assert dims == {"optimized", "pointer_width_64"}


def test_audit_severity_override(profile):
    capture = capture_of([("a.c", "-std=c99"), ("b.c", "-std=c11")], profile)
    report = audit(capture, severity_policy={"std_class": Severity.HIGH})
    assert report.inconsistencies[0].severity is Severity.HIGH
    with pytest.raises(ValueError):
        audit(capture, severity_policy={"no_such_dimension": Severity.HIGH})


def test_audit_counts_unauditable_as_high(profile):
    doc = json.dumps(
        [
            {"directory": "/p", "file": "a.c", "command": "gcc -c a.c"},
            {"directory": "/p", "file": "fw.c", "command": "armcc fw.c"},
        ]
    )
    report = audit(load_build(doc, profile))
    assert report.inconsistencies == ()
    assert report.unauditable == ("fw.c",)
    assert report.max_severity() is Severity.HIGH
    assert report.has_findings(Severity.HIGH)
    row = next(r for r in report.per_tu if r.file == "fw.c")
    assert row == PerTuRow(
        "fw.c", "unauditable", None, (), reason="compiler not covered by profile"
    )


def test_per_tu_rows_in_capture_order(profile):
    capture = capture_of([("z.c", ""), ("a.c", "-O2")], profile)
    report = audit(capture)
    assert [r.file for r in report.per_tu] == ["z.c", "a.c"]
    assert report.per_tu[1].flags == tuple(
        canonical_flags(capture.entries[1].dialect, profile)
    )


# --- reference check ------------------------------------------------------------


def test_check_against_reports_each_differing_dimension(profile):
    capture = capture_of([("a.c", flags_for(1, profile))], profile)
    report = check_against(capture, decode_value(0))
    (mismatch,) = report.mismatches
    assert mismatch.file == "a.c"
    assert mismatch.dimension == "char_is_signed"
    assert {mismatch.tu_value, mismatch.reference_value} == {"true", "false"}
    assert mismatch.severity is Severity.HIGH
    assert report.reference_value == 0


def test_check_against_matching_dialect_is_clean(profile):
    capture = capture_of([("a.c", flags_for(443, profile))], profile)
    report = check_against(capture, decode_value(443))
    assert report.mismatches == ()
    assert report.max_severity() is None
    assert report.reference_value == 443


@given(tu_value=st.integers(0, 767), ref_value=st.integers(0, 767))
def test_check_against_counts_dimension_distance(tu_value, ref_value, profile):
    capture = capture_of([("a.c", flags_for(tu_value, profile))], profile)
    report = check_against(capture, decode_value(ref_value))
    tu, ref = decode_value(tu_value), decode_value(ref_value)
    distance = sum(tu.value_of(d) != ref.value_of(d) for d in DIMENSIONS)
    assert len(report.mismatches) == distance
    assert (report.mismatches == ()) == (tu_value == ref_value)


def test_reports_serialize_to_json(profile):
    capture = capture_of([("a.c", ""), ("b.c", "-funsigned-char")], profile)
    for report in (audit(capture), check_against(capture, decode_value(0))):
        blob = json.dumps(report.to_json_dict())
        parsed = json.loads(blob)
        assert {"per_tu", "inconsistencies", "mismatches", "unauditable"} <= set(parsed)
    checked = check_against(capture, decode_value(0)).to_json_dict()
    assert checked["reference_value"] == 0
    assert checked["mismatches"][0]["severity"] == "high"


def test_empty_report_shape():
    report = AuditReport(per_tu=())
    assert report.max_severity() is None
    assert not report.has_findings()
    assert report.to_json_dict()["per_tu"] == []
