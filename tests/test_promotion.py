"""Integer promotion, arithmetic conversion, and wrap-check verdicts.

The verdicts of analyze_wrap_check are cross-checked against
bit-accurate simulation on boundary operand pairs, over every integer
size model the rules of the language admit.
"""

import pytest
from hypothesis import given, strategies as st

from dialectoscope import (
    BaseType,
    CType,
    TypeModel,
    WrapCheckExpr,
    analyze_wrap_check,
    arithmetic_conversion,
    boundary_pairs,
    enumerate_integer_size_models,
    integer_promote,
    parse_ctype,
    simulate_wrap_check,
    true_wraparound,
)
from dialectoscope.promotion import _wrap_check_simulator

ALL_MODELS = [TypeModel(*widths) for widths in enumerate_integer_size_models()]
ILP32 = TypeModel(8, 16, 32, 32, 64)
LP64 = TypeModel(8, 16, 32, 64, 64)
INT16 = TypeModel(8, 16, 16, 32, 64)

U16 = CType(BaseType.FIXED, 16, True)
S16 = CType(BaseType.FIXED, 16, False)
U32 = CType(BaseType.FIXED, 32, True)
U8 = CType(BaseType.FIXED, 8, True)
INT = CType(BaseType.INT)
UINT = CType(BaseType.UINT)


# --- promotion --------------------------------------------------------------


def test_promote_narrow_unsigned_goes_signed_when_int_wider():
    assert integer_promote(U16, ILP32) == INT


def test_promote_same_width_unsigned_goes_unsigned():
    assert integer_promote(U16, INT16) == UINT


def test_promote_keeps_wide_types():
    assert integer_promote(CType(BaseType.LONG), LP64) == CType(BaseType.LONG)
    assert integer_promote(U32, INT16) == U32
    assert integer_promote(INT, ILP32) == INT


def test_promote_char_and_short():
    for model in (ILP32, LP64):
        assert integer_promote(CType(BaseType.CHAR), model) == INT
        assert integer_promote(CType(BaseType.USHORT), model) == INT
    assert integer_promote(CType(BaseType.USHORT), INT16) == UINT
    assert integer_promote(CType(BaseType.SHORT), INT16) == INT


#: SHA-256 of every ``arithmetic_conversion`` result over all width models,
#: both char signednesses and every standard and fixed-width type pair, as
#: computed when ``integer_promote`` built a fresh ``CType`` per call.
CONVERSION_TABLE_SHA256 = "2b0c7e18a3cc176189392a65be560cda323157b36386a8b7d1bea4ac1af47d2c"


def test_conversion_table_unchanged_over_every_model():
    import hashlib

    types = [CType(b) for b in BaseType if b is not BaseType.FIXED]
    types += [CType(BaseType.FIXED, w, u) for w in (8, 16, 32, 64) for u in (False, True)]
    lines = []
    for widths in enumerate_integer_size_models():
        for signed in (True, False):
            m = TypeModel(*widths, char_is_signed=signed)
            for a in types:
                for b in types:
                    out = arithmetic_conversion(a, b, m)
                    lines.append(f"{widths} {signed} {a.describe()} {b.describe()} {out!r}")
                promoted = integer_promote(a, m)
                assert promoted is a or promoted in (INT, UINT)
    assert len(lines) == 16606
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == CONVERSION_TABLE_SHA256


def test_promotion_is_idempotent():
    types = [
        CType(b)
        for b in BaseType
        if b is not BaseType.FIXED
    ] + [U8, S16, U16, U32, CType(BaseType.FIXED, 64, True)]
    for m in ALL_MODELS:
        for t in types:
            once = integer_promote(t, m)
            assert integer_promote(once, m) == once


def test_fixed_width_ranks():
    # 32-bit int model: int32_t ranks with int, int64_t with long long.
    assert CType(BaseType.FIXED, 32, False).rank(ILP32) == 3
    assert CType(BaseType.FIXED, 64, False).rank(ILP32) == 5
    assert U8.rank(ILP32) == 1
    # A width no standard type has gets a synthetic in-between rank.
    odd = TypeModel(8, 32, 32, 32, 64)
    assert 1 < U16.rank(odd) < 2


# --- arithmetic conversion ---------------------------------------------------


def test_conversion_examples():
    assert arithmetic_conversion(U16, U16, ILP32) == INT
    assert arithmetic_conversion(UINT, INT, ILP32) == UINT
    assert arithmetic_conversion(
        CType(BaseType.ULONG), CType(BaseType.LLONG), ILP32
    ) == CType(BaseType.LLONG)  # long long (64) represents all of unsigned long (32)
    assert arithmetic_conversion(
        CType(BaseType.ULONG), CType(BaseType.LLONG), TypeModel(8, 16, 32, 64, 64)
    ) == CType(BaseType.ULLONG)  # same width: the signed side turns unsigned
    assert arithmetic_conversion(CType(BaseType.LONG), UINT, ILP32) == CType(
        BaseType.ULONG
    )


@given(
    st.sampled_from(ALL_MODELS),
    st.sampled_from([b for b in BaseType if b is not BaseType.FIXED]),
    st.sampled_from([b for b in BaseType if b is not BaseType.FIXED]),
)
def test_conversion_is_commutative(m, ba, bb):
    a, b = CType(ba), CType(bb)
    assert arithmetic_conversion(a, b, m) == arithmetic_conversion(b, a, m)


@given(
    st.sampled_from(ALL_MODELS),
    st.sampled_from([b for b in BaseType if b is not BaseType.FIXED]),
    st.sampled_from([b for b in BaseType if b is not BaseType.FIXED]),
)
def test_conversion_result_is_promoted_and_wide_enough(m, ba, bb):
    a, b = CType(ba), CType(bb)
    out = arithmetic_conversion(a, b, m)
    assert integer_promote(out, m) == out
    assert out.width(m) >= max(integer_promote(a, m).width(m),
                               integer_promote(b, m).width(m))


# --- wrap-check verdicts ------------------------------------------------------


def test_uncast_check_reliable_only_where_int_is_16():
    e = WrapCheckExpr(U16)
    for m in ALL_MODELS:
        v = analyze_wrap_check(e, m)
        assert v.reliable == (m.width_int == 16)
        assert v.operand_width == 16 and v.int_width == m.width_int


def test_cast_check_reliable_everywhere():
    e = WrapCheckExpr(U16, cast_before_compare=U16)
    for m in ALL_MODELS:
        assert analyze_wrap_check(e, m).reliable


def test_signed_cast_is_not_a_fix():
    e = WrapCheckExpr(U16, cast_before_compare=S16)
    assert not analyze_wrap_check(e, ILP32).reliable
    # Where int is 16 bits the sum wraps before the cast, and a cast to
    # the same width preserves the bits, so even the signed cast works.
    assert analyze_wrap_check(e, INT16).reliable


def test_wider_cast_does_not_reduce():
    e = WrapCheckExpr(U16, cast_before_compare=U32)
    assert not analyze_wrap_check(e, ILP32).reliable


def test_narrower_cast_truncates():
    e = WrapCheckExpr(U16, cast_before_compare=U8)
    for m in ALL_MODELS:
        assert not analyze_wrap_check(e, m).reliable


def test_verdict_matches_boundary_simulation_for_both_variants():
    for cast in (None, U16):
        e = WrapCheckExpr(U16, cast_before_compare=cast)
        for m in ALL_MODELS:
            verdict = analyze_wrap_check(e, m)
            agree = all(
                simulate_wrap_check(e, m, x, y) == true_wraparound(16, x, y)
                for x, y in boundary_pairs(16)
            )
            assert verdict.reliable == agree, (cast, m)


def test_unreliable_verdicts_have_witnesses():
    # Every UNRELIABLE verdict over the two canonical variants is backed
    # by at least one boundary pair where simulation and ground truth
    # disagree.
    cases = [
        (WrapCheckExpr(U16), ILP32),
        (WrapCheckExpr(U16, cast_before_compare=S16), ILP32),
        (WrapCheckExpr(U16, cast_before_compare=U8), ILP32),
        (WrapCheckExpr(U16, cast_before_compare=U32), ILP32),
    ]
    for e, m in cases:
        assert not analyze_wrap_check(e, m).reliable
        pairs = boundary_pairs(16) + [(1, (1 << 16) - 1), (2, (1 << 16) - 1)]
        assert any(
            simulate_wrap_check(e, m, x, y) != true_wraparound(16, x, y)
            for x, y in pairs
        )


def test_reliable_verdicts_agree_on_random_pairs():
    import random

    rng = random.Random(20260826)
    for width, operand in ((8, U8), (16, U16), (32, U32)):
        e = WrapCheckExpr(operand, cast_before_compare=operand)
        for m in ALL_MODELS:
            assert analyze_wrap_check(e, m).reliable
            for _ in range(25):
                x = rng.randrange(1 << width)
                y = rng.randrange(1 << width)
                assert simulate_wrap_check(e, m, x, y) == true_wraparound(width, x, y)


def test_per_model_simulator_matches_simulate_wrap_check():
    # The CLI's simulator works out the model's types once; the public
    # function, which works them out per pair, is the reference.  Casts:
    # none, the operand's own type, signed, narrower and wider ones, and
    # standard types whose width moves with the model.
    ushort, ulong = CType(BaseType.USHORT), CType(BaseType.ULONG)
    casts = (None, U16, S16, U8, U32, INT, UINT, ushort, CType(BaseType.CHAR), ulong)
    for operand in (U8, U16, U32, UINT, ushort, ulong, CType(BaseType.UCHAR)):
        for cast in casts:
            e = WrapCheckExpr(operand, cast_before_compare=cast)
            for m in ALL_MODELS:
                simulate = _wrap_check_simulator(e, m)
                w = operand.width(m)
                pairs = boundary_pairs(w) + [(w + 3, -w), ((1 << w) + 5, 1 << (w + 1))]
                assert [simulate(x, y) for x, y in pairs] == [
                    simulate_wrap_check(e, m, x, y) for x, y in pairs
                ], (operand, cast, m)


def test_wrap_check_requires_unsigned_operand():
    with pytest.raises(ValueError):
        WrapCheckExpr(INT)
    with pytest.raises(ValueError):
        WrapCheckExpr(S16)
    with pytest.raises(ValueError):
        WrapCheckExpr(CType(BaseType.CHAR))  # signedness model-dependent
    WrapCheckExpr(CType(BaseType.UCHAR))


def test_describe_strings():
    assert WrapCheckExpr(U16).describe() == "(x + y) < x  with x, y: uint16_t"
    e = WrapCheckExpr(U16, cast_before_compare=U16)
    assert e.describe() == "(uint16_t)(x + y) < x  with x, y: uint16_t"
    assert analyze_wrap_check(e, ILP32).label == "RELIABLE"
    assert analyze_wrap_check(WrapCheckExpr(U16), ILP32).label == "UNRELIABLE"


# --- helpers ------------------------------------------------------------------


def test_boundary_pairs_shape():
    pairs = boundary_pairs(16)
    assert (1 << 15, 1 << 15) in pairs  # the pair that exposes the pitfall
    assert ((1 << 16) - 1, 1) in pairs
    assert all(0 <= x < (1 << 16) and 0 <= y < (1 << 16) for x, y in pairs)
    assert pairs == sorted(set(pairs))


def test_true_wraparound():
    assert true_wraparound(16, 0xFFFF, 1)
    assert true_wraparound(16, 0x8000, 0x8000)
    assert not true_wraparound(16, 0x7FFF, 0x8000)
    assert not true_wraparound(16, 0, 0)


def test_ctype_validation():
    with pytest.raises(ValueError):
        CType(BaseType.FIXED, 12, True)
    with pytest.raises(ValueError):
        CType(BaseType.FIXED, 16, None)
    with pytest.raises(ValueError):
        CType(BaseType.INT, fixed_width=32)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("uint16_t", U16),
        ("int16_t", S16),
        ("unsigned  short", CType(BaseType.USHORT)),
        ("unsigned short int", CType(BaseType.USHORT)),
        ("long long", CType(BaseType.LLONG)),
        ("signed", INT),
        ("char", CType(BaseType.CHAR)),
    ],
)
def test_parse_ctype(text, expected):
    assert parse_ctype(text) == expected


def test_parse_ctype_rejects_unknown():
    with pytest.raises(ValueError):
        parse_ctype("uint12_t")
    with pytest.raises(ValueError):
        parse_ctype("float")


def test_model_catalogue():
    assert len(ALL_MODELS) == 23
    assert ILP32.widths() in {m.widths() for m in ALL_MODELS}
    assert LP64.widths() in {m.widths() for m in ALL_MODELS}
    assert INT16.widths() in {m.widths() for m in ALL_MODELS}
