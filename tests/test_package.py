"""The package surface: lazily resolved public names and the record classes."""

import json
import subprocess
import sys

import pytest

import dialectoscope
from dialectoscope import (
    AnsiMode,
    BaseType,
    CType,
    DialectConfig,
    FileSystemModel,
    IncludeDirective,
    IncludeForm,
    Severity,
    TypeModel,
    WrapCheckExpr,
    decode_value,
    load_profile,
    parse_invocation,
)
from dialectoscope.build_audit import (
    AuditReport,
    BuildCapture,
    BuildEntry,
    Inconsistency,
    Mismatch,
    PerTuRow,
)
from dialectoscope.include_resolver import Probe, Resolution
from dialectoscope.invocation import CompilerInvocation, IncludeDirs, MacroDirective
from dialectoscope.macro_env import (
    BranchArm,
    BranchReport,
    ConditionalGroup,
    MacroDefinition,
)
from dialectoscope.probe import PROBE_BITS, ProbeBitSpec, VerificationReport, VerifyResult
from dialectoscope.profiles import CanonicalSpellings, CompilerProfile, FlagEffect, StdName
from dialectoscope.promotion import WrapCheckVerdict
from conftest import child_env

#: Every name ``dialectoscope.cli`` exposes from the library.
CLI_LIBRARY_NAMES = """
    Severity audit check_against load_build DIMENSIONS DialectValueError TypeModel
    decimal_scientific decode_value dialect_count_lower_bound e_notation
    encode_config enumerate_integer_size_models FileSystemModel
    IncludeDirective IncludeForm resolve_include search_paths InvocationError
    parse_invocation MacroEnv active_branches
    apply_directives eval_condition invocation_macro_env predefined_macros
    PROBE_SHA256 emit_probe_source explain_value
    flags_for_value verify_with_compiler DEFAULT_PROFILE available_profiles
    load_profile WrapCheckExpr analyze_wrap_check boundary_pairs parse_ctype
    simulate_wrap_check true_wraparound
""".split()


# --- public names -------------------------------------------------------------


def test_every_public_name_resolves():
    for name in dialectoscope.__all__:
        assert getattr(dialectoscope, name) is not None, name
    namespace = {}
    exec("from dialectoscope import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == dialectoscope.__all__
    assert set(dialectoscope.__all__) <= set(dir(dialectoscope))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        dialectoscope.nope


def test_cli_still_exposes_library_names():
    from dialectoscope import cli

    for name in CLI_LIBRARY_NAMES:
        assert getattr(cli, name) is not None, name
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        cli.nope


def test_importing_every_module_loads_no_heavy_stdlib_module():
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import dialectoscope.build_audit, dialectoscope.cli, dialectoscope.dialect_model\n"
        "import dialectoscope.include_resolver, dialectoscope.invocation, dialectoscope.lexer\n"
        "import dialectoscope.macro_env, dialectoscope.probe, dialectoscope.profiles\n"
        "import dialectoscope.promotion\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    )
    loaded = set(json.loads(done.stdout))
    heavy = {"dataclasses", "decimal", "hashlib", "importlib.resources", "inspect"}
    assert loaded & heavy == set()


def _loaded_by(module: str) -> set[str]:
    """The package modules that importing ``module`` loads in a fresh process."""
    code = f"import json, sys, {module}\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, check=True
    )
    return {name for name in json.loads(done.stdout) if name.startswith("dialectoscope.")}


def test_the_c_text_grammar_is_below_both_of_its_readers():
    # macro_env reads headers and invocation reads argv; both read C text by
    # lexer, and neither loads the other.
    assert "dialectoscope.invocation" not in _loaded_by("dialectoscope.macro_env")
    assert "dialectoscope.macro_env" not in _loaded_by("dialectoscope.invocation")
    assert _loaded_by("dialectoscope.lexer") == {"dialectoscope.lexer"}


# --- record classes -------------------------------------------------------------

PROFILE = load_profile()
CONFIG = decode_value(443)
INVOCATION = parse_invocation(["-O2", "a.c"], env={}, profile=PROFILE)
U16 = CType(BaseType.FIXED, 16, True)
ROW = PerTuRow("a.c", "ok", 443, ("-O2",))
ARM = BranchArm("if", "X", 1, True)
GROUP = ConditionalGroup((ARM,), 1, 3, True)
ENTRY = BuildEntry("/p", "a.c", ("gcc", "a.c"), "gcc", "ok", CONFIG)

#: One instance of every record class, built with keywords.
RECORDS = [
    DialectConfig(**CONFIG._asdict()),
    TypeModel(width_char=8, width_short=16, width_int=32, width_long=64, width_llong=64),
    StdName(std_class=1, strict=True),
    FlagEffect(sets=(("optimized", True),), std="c99"),
    PROFILE.canonical,
    PROFILE,
    MacroDirective(action="define", name="X", value="1"),
    IncludeDirs(quote=("q",), normal=("n",)),
    INVOCATION,
    ProbeBitSpec(weight=1, c_construct="c", dimension="d", standard_clause="s"),
    VerifyResult(value=1, ok=False, detail="returned 2, expected 1"),
    VerificationReport(status="ran", compiler="gcc", results=(VerifyResult(1, True),)),
    IncludeDirective(header_name="a.h", form=IncludeForm.QUOTE, including_file="/s/m.c"),
    Probe(candidate="/s/a.h", hit=True),
    Resolution(found="/s/a.h", trace=(Probe("/s/a.h", True),)),
    FileSystemModel(files=frozenset({"/s/a.h"}), cwd="/s"),
    MacroDefinition(name="X", body="1", provenance="source"),
    ARM,
    GROUP,
    BranchReport(groups=(GROUP,), retained_ranges=((1, 2),), retained_text="x\n"),
    U16,
    WrapCheckExpr(operand_type=U16, cast_before_compare=U16),
    WrapCheckVerdict(reliable=True, reason="r", operand_width=16, int_width=32, sum_width=32),
    ENTRY,
    BuildCapture(entries=(ENTRY,), profile=PROFILE),
    ROW,
    Inconsistency("optimized", (("true", ("a.c",)), ("false", ("b.c",))), Severity.MEDIUM),
    Mismatch("a.c", "optimized", "true", "false", Severity.MEDIUM),
    AuditReport(per_tu=(ROW,), unauditable=("b.c",), reference_value=0),
]


def test_every_record_class_is_listed():
    assert len({type(r) for r in RECORDS}) == len(RECORDS) == 29
    assert type(PROBE_BITS[0]) is ProbeBitSpec and type(PROFILE.canonical) is CanonicalSpellings
    assert type(PROFILE) is CompilerProfile


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_class_behaves_as_a_frozen_record(record):
    cls = type(record)
    fields = {f: getattr(record, f) for f in cls._fields}
    # Positional and keyword construction agree, and equal records compare equal.
    again = cls(*fields.values())
    assert again == record == cls(**fields)
    assert not again != record
    if all(_hashable(v) for v in fields.values()):
        assert hash(again) == hash(record)
    with pytest.raises(AttributeError):
        setattr(record, cls._fields[0], fields[cls._fields[0]])
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    expected = ", ".join(f"{f}={v!r}" for f, v in fields.items())
    assert repr(record) == f"{cls.__name__}({expected})"


def _hashable(value) -> bool:
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_records_of_different_values_differ():
    assert decode_value(1) != decode_value(2)
    assert MacroDefinition("X", "1", "source") != MacroDefinition("X", "2", "source")
    assert len({decode_value(v) for v in range(768)}) == 768


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: CONFIG._replace(std_class=4), ValueError, "std_class must be 0..3, got 4"),
        (lambda: DialectConfig(*CONFIG[:7], 1), TypeError, "ansi_mode must be an AnsiMode, got 1"),
        (
            lambda: TypeModel(8, 16, 24, 32, 64),
            ValueError,
            "width of int must be one of (8, 16, 32, 64), got 24",
        ),
        (lambda: TypeModel(8, 8, 16, 32, 64), ValueError, "width of short must be >= 16, got 8"),
        (
            lambda: TypeModel(8, 32, 16, 32, 64),
            ValueError,
            "widths must be non-decreasing, got (8, 32, 16, 32, 64)",
        ),
        (
            lambda: IncludeDirective("", IncludeForm.ANGLE, "/m.c"),
            ValueError,
            "header name must be non-empty",
        ),
        (
            lambda: FileSystemModel(frozenset(), cwd="rel"),
            ValueError,
            "cwd must be absolute, got 'rel'",
        ),
        (
            lambda: CType(BaseType.FIXED, 12, True),
            ValueError,
            "fixed width must be 8/16/32/64, got 12",
        ),
        (lambda: CType(BaseType.FIXED, 16), ValueError, "fixed types need explicit signedness"),
        (
            lambda: CType(BaseType.INT, fixed_unsigned=True),
            ValueError,
            "int takes no width/signedness arguments",
        ),
        (
            lambda: WrapCheckExpr(CType(BaseType.INT)),
            ValueError,
            "wrap-check operand must be an unsigned type",
        ),
        (
            lambda: WrapCheckExpr(U16)._replace(operand_type=CType(BaseType.SHORT)),
            ValueError,
            "wrap-check operand must be an unsigned type",
        ),
    ],
)
def test_validated_records_reject_bad_fields(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message


def test_file_system_model_normalizes_its_fields():
    fs = FileSystemModel(["a/../b.h", "/x//c.h"], cwd="/s/./t/")
    assert fs == FileSystemModel(frozenset({"/s/t/b.h", "/x/c.h"}), "/s/t")
    assert fs._replace(cwd="/u") == FileSystemModel(fs.files, "/u")
    assert "../t/b.h" in FileSystemModel(["b.h"], cwd="/s/t")
    assert CONFIG._replace(ansi_mode=AnsiMode.STRICT) == decode_value(443 - 256)
