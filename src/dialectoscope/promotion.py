"""Integer promotions, usual arithmetic conversions, and the unsigned
wrap-check pitfall.

The pitfall: `(x + y) < x` with 16-bit unsigned operands detects
wraparound only where int is 16 bits wide.  Anywhere int is wider the
sum is computed exactly in int and the comparison is constant false.
Casting the sum back to the operand's own unsigned width restores the
modular reduction on every model.

Widths here are value widths over two's complement with no padding
bits; out-of-range signed conversion is modeled as wrapping, the
near-universal implementation-defined choice.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Callable, NamedTuple

from .dialect_model import TypeModel, _Validated


class BaseType(Enum):
    CHAR = "char"
    SCHAR = "signed char"
    UCHAR = "unsigned char"
    SHORT = "short"
    USHORT = "unsigned short"
    INT = "int"
    UINT = "unsigned int"
    LONG = "long"
    ULONG = "unsigned long"
    LLONG = "long long"
    ULLONG = "unsigned long long"
    FIXED = "fixed"


_ALWAYS_UNSIGNED = frozenset(
    {BaseType.UCHAR, BaseType.USHORT, BaseType.UINT, BaseType.ULONG, BaseType.ULLONG}
)
_STANDARD_RANKS = {
    BaseType.CHAR: 1, BaseType.SCHAR: 1, BaseType.UCHAR: 1,
    BaseType.SHORT: 2, BaseType.USHORT: 2,
    BaseType.INT: 3, BaseType.UINT: 3,
    BaseType.LONG: 4, BaseType.ULONG: 4,
    BaseType.LLONG: 5, BaseType.ULLONG: 5,
}
_WIDTH_FIELDS = {1: "width_char", 2: "width_short", 3: "width_int",
                 4: "width_long", 5: "width_llong"}


class _CTypeFields(NamedTuple):
    base: BaseType
    fixed_width: int | None = None
    fixed_unsigned: bool | None = None


class CType(_Validated, _CTypeFields):
    __slots__ = ()

    def _validate(self) -> None:
        if self.base is BaseType.FIXED:
            if self.fixed_width not in (8, 16, 32, 64):
                raise ValueError(f"fixed width must be 8/16/32/64, got {self.fixed_width}")
            if self.fixed_unsigned is None:
                raise ValueError("fixed types need explicit signedness")
        elif self.fixed_width is not None or self.fixed_unsigned is not None:
            raise ValueError(f"{self.base.value} takes no width/signedness arguments")

    def width(self, m: TypeModel) -> int:
        if self.base is BaseType.FIXED:
            return self.fixed_width  # type: ignore[return-value]
        return getattr(m, _WIDTH_FIELDS[_STANDARD_RANKS[self.base]])

    def is_unsigned(self, m: TypeModel) -> bool:
        if self.base is BaseType.FIXED:
            return bool(self.fixed_unsigned)
        if self.base is BaseType.CHAR:
            return not m.char_is_signed
        return self.base in _ALWAYS_UNSIGNED

    def rank(self, m: TypeModel) -> float:
        """Conversion rank.  Fixed-width types take the rank of the
        narrowest standard type of the same width (the usual stdint
        typedef); a width no standard type has gets a synthetic rank
        ordered strictly by width."""
        if self.base is not BaseType.FIXED:
            return _STANDARD_RANKS[self.base]
        w = self.fixed_width
        candidates = [r for r, f in _WIDTH_FIELDS.items() if getattr(m, f) == w]
        if candidates:
            return min(candidates)
        narrower = [r for r, f in _WIDTH_FIELDS.items() if getattr(m, f) < w]
        return (max(narrower) if narrower else 0) + 0.5

    def describe(self) -> str:
        if self.base is BaseType.FIXED:
            return f"{'u' if self.fixed_unsigned else ''}int{self.fixed_width}_t"
        return self.base.value


#: The unsigned type of each signed standard type.
_UNSIGNED = {
    BaseType.CHAR: BaseType.UCHAR, BaseType.SCHAR: BaseType.UCHAR,
    BaseType.SHORT: BaseType.USHORT, BaseType.INT: BaseType.UINT,
    BaseType.LONG: BaseType.ULONG, BaseType.LLONG: BaseType.ULLONG,
}


#: What every integer promotion yields; built once, since each ``CType``
#: construction is validated.
_INT, _UINT = CType(BaseType.INT), CType(BaseType.UINT)


def integer_promote(t: CType, m: TypeModel) -> CType:
    """Types ranking at or below int become INT when int holds all
    their values, else UINT; wider types are unchanged."""
    if t.rank(m) > _STANDARD_RANKS[BaseType.INT]:
        return t
    w, u = t.width(m), t.is_unsigned(m)
    iw = m.width_int
    fits_in_int = w < iw or (w == iw and not u)
    return _INT if fits_in_int else _UINT


def arithmetic_conversion(a: CType, b: CType, m: TypeModel) -> CType:
    """Usual arithmetic conversions for two integer operands."""
    pa, pb = integer_promote(a, m), integer_promote(b, m)
    if pa == pb:
        return pa
    ua, ub = pa.is_unsigned(m), pb.is_unsigned(m)
    ra, rb = pa.rank(m), pb.rank(m)
    if ua == ub:
        return pa if ra >= rb else pb
    unsig, sig = (pa, pb) if ua else (pb, pa)
    if unsig.rank(m) >= sig.rank(m):
        return unsig
    if sig.width(m) > unsig.width(m):
        # The wider signed type represents the whole unsigned range.
        return sig
    # A signed fixed-width type never gets here: its rank is that of the
    # narrowest standard type of its width, so it outranks only narrower types.
    return CType(_UNSIGNED[sig.base])


# --- the wrap-check idiom -------------------------------------------------


class _WrapCheckFields(NamedTuple):
    operand_type: CType
    cast_before_compare: CType | None = None


class WrapCheckExpr(_Validated, _WrapCheckFields):
    """`(x + y) < x` or `(T)(x + y) < x` with x, y of an unsigned
    operand type."""

    __slots__ = ()

    def _validate(self) -> None:
        base = self.operand_type.base
        definitely_unsigned = base in _ALWAYS_UNSIGNED or (
            base is BaseType.FIXED and self.operand_type.fixed_unsigned
        )
        if not definitely_unsigned:
            raise ValueError("wrap-check operand must be an unsigned type")

    def describe(self) -> str:
        cast = f"({self.cast_before_compare.describe()})" if self.cast_before_compare else ""
        return f"{cast}(x + y) < x  with x, y: {self.operand_type.describe()}"


class WrapCheckVerdict(NamedTuple):
    reliable: bool
    reason: str
    operand_width: int
    int_width: int
    sum_width: int

    @property
    def label(self) -> str:
        return "RELIABLE" if self.reliable else "UNRELIABLE"


def analyze_wrap_check(e: WrapCheckExpr, m: TypeModel) -> WrapCheckVerdict:
    """Decide whether the comparison equals true modular wraparound of
    the operand width for every operand pair under the model."""
    w = e.operand_type.width(m)
    iw = m.width_int
    sum_width = max(w, iw)
    cast = e.cast_before_compare

    def verdict(reliable: bool, reason: str) -> WrapCheckVerdict:
        return WrapCheckVerdict(reliable, reason, w, iw, sum_width)

    if iw <= w:
        # The sum is computed in the operand's own unsigned width, so
        # it is already reduced modulo 2^w.
        if cast is None:
            return verdict(True, f"sum wraps modulo 2^{w} in the operand type itself")
        cw = cast.width(m)
        if cw >= w:
            return verdict(True, f"sum already reduced; width-{cw} cast preserves it")
        return verdict(
            False, f"cast truncates the width-{w} sum to {cw} bits before comparing"
        )

    # int is wider: promotion computes the sum exactly, nothing wraps.
    if cast is None:
        return verdict(
            False,
            f"operands promote to {iw}-bit int; the sum is exact and the"
            f" comparison is constant false",
        )
    cw, cu = cast.width(m), cast.is_unsigned(m)
    if cu and cw == w:
        return verdict(True, f"cast reduces the exact sum modulo 2^{w}")
    if cw < w:
        return verdict(
            False, f"cast truncates to {cw} bits, below the operand width {w}"
        )
    if not cu and cw == w:
        return verdict(
            False,
            f"signed {cw}-bit cast can go negative and compares wrongly in int",
        )
    return verdict(
        False, f"width-{cw} cast keeps the exact sum; no reduction modulo 2^{w}"
    )


def _convert(value: int, width: int, unsigned: bool) -> int:
    value &= (1 << width) - 1
    if not unsigned and value >= 1 << (width - 1):
        value -= 1 << width
    return value


def simulate_wrap_check(e: WrapCheckExpr, m: TypeModel, x: int, y: int) -> bool:
    """Evaluate the expression the way a compiler for the model would."""
    t = e.operand_type
    w = t.width(m)
    x &= (1 << w) - 1
    y &= (1 << w) - 1
    pt = integer_promote(t, m)
    s = _convert(x + y, pt.width(m), pt.is_unsigned(m))
    lhs_t = e.cast_before_compare or pt
    lhs = _convert(s, lhs_t.width(m), lhs_t.is_unsigned(m))
    common = arithmetic_conversion(lhs_t, t, m)
    cw, cu = common.width(m), common.is_unsigned(m)
    return _convert(lhs, cw, cu) < _convert(x, cw, cu)


def _wrap_check_simulator(e: WrapCheckExpr, m: TypeModel) -> Callable[[int, int], bool]:
    """``lambda x, y: simulate_wrap_check(e, m, x, y)``, with the types the
    model gives the sum, the cast and the comparison worked out once."""
    t = e.operand_type
    mask = (1 << t.width(m)) - 1
    pt = integer_promote(t, m)
    lhs_t = e.cast_before_compare or pt
    common = arithmetic_conversion(lhs_t, t, m)
    sw, su = pt.width(m), pt.is_unsigned(m)
    lw, lu = lhs_t.width(m), lhs_t.is_unsigned(m)
    cw, cu = common.width(m), common.is_unsigned(m)

    def simulate(x: int, y: int) -> bool:
        x &= mask
        lhs = _convert(_convert((y & mask) + x, sw, su), lw, lu)
        return _convert(lhs, cw, cu) < _convert(x, cw, cu)

    return simulate


def true_wraparound(w: int, x: int, y: int) -> bool:
    """Ground truth: does x + y wrap modulo 2^w?"""
    x &= (1 << w) - 1
    y &= (1 << w) - 1
    return ((x + y) & ((1 << w) - 1)) < x


def boundary_pairs(width: int) -> list[tuple[int, int]]:
    """Deterministic operand pairs exercising the wrap boundary."""
    top = (1 << width) - 1
    half = 1 << (width - 1)
    points = [0, 1, 2, half - 1, half, half + 1, top - 1, top]
    pairs = {(x, y) for x in points for y in points}
    return sorted(pairs)


# --- CLI-facing type spelling ---------------------------------------------

_FIXED_RE = re.compile(r"(u?)int(8|16|32|64)_t\Z")

_SPELLINGS = {
    "char": CType(BaseType.CHAR),
    "signed char": CType(BaseType.SCHAR),
    "unsigned char": CType(BaseType.UCHAR),
    "short": CType(BaseType.SHORT),
    "short int": CType(BaseType.SHORT),
    "unsigned short": CType(BaseType.USHORT),
    "unsigned short int": CType(BaseType.USHORT),
    "int": CType(BaseType.INT),
    "signed": CType(BaseType.INT),
    "signed int": CType(BaseType.INT),
    "unsigned": CType(BaseType.UINT),
    "unsigned int": CType(BaseType.UINT),
    "long": CType(BaseType.LONG),
    "long int": CType(BaseType.LONG),
    "unsigned long": CType(BaseType.ULONG),
    "unsigned long int": CType(BaseType.ULONG),
    "long long": CType(BaseType.LLONG),
    "long long int": CType(BaseType.LLONG),
    "unsigned long long": CType(BaseType.ULLONG),
    "unsigned long long int": CType(BaseType.ULLONG),
}


def parse_ctype(text: str) -> CType:
    """Accepts standard spellings ("unsigned short") and stdint names
    ("uint16_t")."""
    normalized = " ".join(text.split())
    if normalized in _SPELLINGS:
        return _SPELLINGS[normalized]
    m = _FIXED_RE.match(normalized)
    if m:
        return CType(BaseType.FIXED, int(m.group(2)), m.group(1) == "u")
    raise ValueError(f"unknown C type spelling: {text!r}")
