"""Probe fixture integrity, golden pairs, and explanations."""

import hashlib

import pytest

from dialectoscope import (
    DIMENSIONS,
    PROBE_BITS,
    PROBE_BYTE_LENGTH,
    PROBE_SHA256,
    DialectValueError,
    emit_probe_source,
    encode_config,
    explain_value,
    flags_for_value,
    parse_invocation,
)
from dialectoscope.probe import _in_threads, verify_with_compiler

from conftest import GOLDEN_PAIRS


def test_probe_length_is_647():
    source = emit_probe_source()
    assert len(source.encode("utf-8")) == PROBE_BYTE_LENGTH == 647
    assert len(source) < 700


def test_probe_contains_normative_constructs():
    source = emit_probe_source()
    assert "#ifdef __OPTIMIZE__" in source
    assert "(__STDC_VERSION__ % 4)*64" in source
    assert '"??-"' in source
    assert "#if !defined(__STDC_HOSTED__) || __STDC_HOSTED__ == 0" in source


def test_probe_checksum_stable():
    first = emit_probe_source()
    second = emit_probe_source()
    assert first == second
    assert hashlib.sha256(first.encode("utf-8")).hexdigest() == PROBE_SHA256


def test_golden_pairs_render(profile):
    for value, flags in GOLDEN_PAIRS.items():
        assert " ".join(flags_for_value(value, profile)) == flags


def test_golden_pairs_parse(profile):
    for value, flags in GOLDEN_PAIRS.items():
        inv = parse_invocation(flags.split(), env={}, profile=profile)
        assert encode_config(inv.dialect) == value


def test_flags_767_include_forced_tokens(profile):
    flags = flags_for_value(767, profile)
    assert "-std=gnu90" in flags
    assert "-trigraphs" in flags
    for token in ("-fshort-enums", "-O2", "-m64", "-ffreestanding"):
        assert token in flags


def test_flags_value_range_checked(profile):
    with pytest.raises(DialectValueError):
        flags_for_value(768, profile)
    with pytest.raises(DialectValueError):
        flags_for_value(-1, profile)


def test_probe_bits_cover_all_dimensions():
    # In DIMENSIONS order, which explain_value relies on.
    assert tuple(spec.dimension for spec in PROBE_BITS) == DIMENSIONS
    weights = sorted(spec.weight for spec in PROBE_BITS)
    assert weights == [1, 2, 4, 8, 16, 32, 64, 256]


def test_explanations_sum_to_value():
    for value in range(768):
        rows = explain_value(value)
        assert sum(contribution for _, contribution in rows) == value
        assert len(rows) == len(DIMENSIONS)


def test_explain_examples():
    rows = explain_value(1)
    nonzero = [(spec, c) for spec, c in rows if c]
    assert len(nonzero) == 1
    assert nonzero[0][0].c_construct == "((char)-1) < 0"
    assert all(c == 0 for _, c in explain_value(0))
    assert sorted(c for _, c in explain_value(443) if c) == [1, 2, 8, 16, 32, 128, 256]


def test_explain_range_checked():
    with pytest.raises(DialectValueError):
        explain_value(768)


def test_verify_checks_values_without_a_compiler():
    with pytest.raises(DialectValueError, match=r"^dialect value must be in 0\.\.767, got 768$"):
        verify_with_compiler(compiler="no-such-cc", values=[5, 768])


def test_threads_reraise_a_workers_exception():
    def fn(x):
        if x == 3:
            raise OSError(f"item {x}")
        return x * 2

    assert _in_threads(fn, [1, 2, 4], 2) == [2, 4, 8]
    with pytest.raises(OSError, match="^item 3$"):
        _in_threads(fn, [1, 2, 3, 4], 2)
