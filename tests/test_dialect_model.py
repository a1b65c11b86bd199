"""Encoding bijection, weight arithmetic, counting, and width models."""

import itertools
from functools import reduce
from operator import mul

import pytest
from hypothesis import given, strategies as st

from dialectoscope import (
    BOOLEAN_WEIGHTS,
    ENCODING_SPACE,
    LP64,
    STD_CLASS_WEIGHT,
    AnsiMode,
    DialectConfig,
    DialectValueError,
    TypeModel,
    all_configs,
    decimal_scientific,
    decode_value,
    dialect_count_lower_bound,
    e_notation,
    encode_config,
    enumerate_integer_size_models,
)

values = st.integers(min_value=0, max_value=ENCODING_SPACE - 1)


def test_encode_space_is_768():
    assert ENCODING_SPACE == 2**6 * 4 * 3 == 768


def test_bijection_values_to_configs():
    seen = set()
    for v in range(ENCODING_SPACE):
        config = decode_value(v)
        assert encode_config(config) == v
        seen.add(config)
    assert len(seen) == ENCODING_SPACE


def test_bijection_configs_to_values():
    for config in all_configs():
        assert decode_value(encode_config(config)) == config


def test_encode_examples():
    baseline = DialectConfig(
        char_is_signed=False,
        bitfield_is_signed=False,
        short_enums=False,
        optimized=False,
        pointer_width_64=False,
        freestanding=False,
        std_class=0,
        ansi_mode=AnsiMode.STRICT,
    )
    assert encode_config(baseline) == 0
    assert encode_config(baseline._replace(char_is_signed=True)) == 1
    freestanding_gnu17 = DialectConfig(
        char_is_signed=True,
        bitfield_is_signed=True,
        short_enums=False,
        optimized=True,
        pointer_width_64=True,
        freestanding=True,
        std_class=2,
        ansi_mode=AnsiMode.GNU,
    )
    assert encode_config(freestanding_gnu17) == 443
    maximal = DialectConfig(
        char_is_signed=True,
        bitfield_is_signed=True,
        short_enums=True,
        optimized=True,
        pointer_width_64=True,
        freestanding=True,
        std_class=3,
        ansi_mode=AnsiMode.GNU_TRIGRAPHS,
    )
    assert encode_config(maximal) == 767 == 1 + 2 + 4 + 8 + 16 + 32 + 192 + 512


def test_decode_100():
    config = decode_value(100)
    assert not config.char_is_signed
    assert not config.bitfield_is_signed
    assert config.short_enums
    assert not config.optimized
    assert not config.pointer_width_64
    assert config.freestanding
    assert config.std_class == 1
    assert config.ansi_mode is AnsiMode.STRICT


@pytest.mark.parametrize("bad", [-1, 768, 10**9])
def test_decode_rejects_out_of_range(bad):
    with pytest.raises(DialectValueError):
        decode_value(bad)


@pytest.mark.parametrize("bad", [True, 1.0, "100", None])
def test_decode_rejects_non_integers(bad):
    with pytest.raises((DialectValueError, TypeError)):
        decode_value(bad)


@given(values, st.sampled_from(sorted(BOOLEAN_WEIGHTS)))
def test_boolean_weight_isolation(value, field):
    config = decode_value(value)
    flipped = config._replace(**{field: not getattr(config, field)})
    assert abs(encode_config(flipped) - value) == BOOLEAN_WEIGHTS[field]


@given(values)
def test_std_class_weight_isolation(value):
    config = decode_value(value)
    if config.std_class == 3:
        return
    bumped = config._replace(std_class=config.std_class + 1)
    assert encode_config(bumped) - value == STD_CLASS_WEIGHT


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        DialectConfig(True, True, True, True, True, True, 4, AnsiMode.GNU)
    with pytest.raises(TypeError):
        DialectConfig(True, True, True, True, True, True, 0, "GNU")


# --- counting ---------------------------------------------------------------


def test_count_lower_bound_small():
    assert dialect_count_lower_bound(0) == 1
    assert dialect_count_lower_bound(1) == 2
    with pytest.raises(ValueError):
        dialect_count_lower_bound(-1)


def test_count_lower_bound_112_against_oracle():
    # Independent oracle: repeated multiplication, no shifts or pow.
    oracle = reduce(mul, [2] * 112, 1)
    value = dialect_count_lower_bound(112)
    assert value == oracle
    assert value == 5192296858534827628530496329220096


def test_scientific_rendering():
    n = dialect_count_lower_bound(112)
    assert decimal_scientific(n) == "5.19 × 10^33"
    assert e_notation(n) == "5.19e33"
    assert decimal_scientific(1) == "1 × 10^0"
    assert decimal_scientific(999) == "9.99 × 10^2"


def test_scientific_rendering_edges():
    assert decimal_scientific(1000) == "1.00 × 10^3"
    assert decimal_scientific(12345) == "1.23 × 10^4"
    assert e_notation(12345) == "1.23e4"
    with pytest.raises(ValueError):
        decimal_scientific(0)


# --- integer width models -----------------------------------------------------


def _oracle_models():
    """Exhaustive 1024-tuple filter, written independently of the
    library implementation."""
    result = []
    for t in itertools.product((8, 16, 32, 64), repeat=5):
        char, short, int_, long, llong = t
        if not (char <= short <= int_ <= long <= llong):
            continue
        if char < 8 or short < 16 or int_ < 16 or long < 32 or llong < 64:
            continue
        result.append(t)
    return result


def test_enumerate_models_matches_oracle():
    models = enumerate_integer_size_models()
    assert models == sorted(_oracle_models())
    assert len(models) == 23


def test_enumerate_models_examples():
    models = enumerate_integer_size_models()
    assert (8, 16, 32, 64, 64) in models
    assert (8, 8, 16, 32, 64) not in models


def test_enumerate_models_constraints_hold():
    for widths in enumerate_integer_size_models():
        char, short, int_, long, llong = widths
        assert char <= short <= int_ <= long <= llong
        assert char >= 8 and short >= 16 and int_ >= 16
        assert long >= 32 and llong >= 64
        assert all(w in (8, 16, 32, 64) for w in widths)


def test_type_model_validation():
    assert LP64.widths() == (8, 16, 32, 64, 64)
    assert TypeModel.from_widths((8, 16, 32, 64, 64)) == LP64
    with pytest.raises(ValueError):
        TypeModel(8, 16, 32, 64, 32)  # llong below long
    with pytest.raises(ValueError):
        TypeModel(8, 8, 16, 32, 64)  # short too narrow
    with pytest.raises(ValueError):
        TypeModel(8, 16, 24, 32, 64)  # width not in the allowed set
