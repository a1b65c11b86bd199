"""Observable C dialect configurations and dialect-space arithmetic.

A :class:`DialectConfig` is one point in the 768-point space of dialect
choices that a short, self-contained C function can observe at compile
time: char signedness, bit-field signedness, enum packing, optimization,
pointer width, hosted vs freestanding, the language-standard residue
class, and strict-ANSI vs GNU mode (with or without trigraphs).  Each
point maps bijectively onto an integer in ``0..767``.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import TYPE_CHECKING, Iterator, NamedTuple

if TYPE_CHECKING:
    from .profiles import CompilerProfile


class AnsiMode(Enum):
    """Strict-ANSI mode, GNU mode, or GNU mode with trigraphs enabled.

    Strict mode always processes trigraphs, so "strict with trigraphs"
    is not a separately observable state and has no encoding of its own.
    """

    STRICT = 0
    GNU = 1
    GNU_TRIGRAPHS = 2


class DialectValueError(ValueError):
    """An integer outside the encodable range 0..767."""


#: Additive weight of each boolean dimension, in canonical order.
BOOLEAN_WEIGHTS: dict[str, int] = {
    "char_is_signed": 1,
    "bitfield_is_signed": 2,
    "short_enums": 4,
    "optimized": 8,
    "pointer_width_64": 16,
    "freestanding": 32,
}

STD_CLASS_WEIGHT = 64
ANSI_MODE_WEIGHT = 256

#: All eight dimensions, in encoding order.  Used by audits and reports.
DIMENSIONS: tuple[str, ...] = tuple(BOOLEAN_WEIGHTS) + ("std_class", "ansi_mode")

ENCODING_SPACE = 768  # 2**6 booleans * 4 residue classes * 3 modes


class _Validated:
    """Base of a ``NamedTuple`` record whose ``_validate`` checks its fields:
    every construction runs it, ``_replace`` included."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._validate()
        return self

    @classmethod
    def _make(cls, fields):  # what ``_replace`` builds its result with
        return cls(*fields)


class _DialectFields(NamedTuple):
    char_is_signed: bool
    bitfield_is_signed: bool
    short_enums: bool
    optimized: bool
    pointer_width_64: bool
    freestanding: bool
    std_class: int
    ansi_mode: AnsiMode


class DialectConfig(_Validated, _DialectFields):
    """One complete assignment of the eight observable dialect dimensions."""

    __slots__ = ()

    def _validate(self) -> None:
        if self.std_class not in (0, 1, 2, 3):
            raise ValueError(f"std_class must be 0..3, got {self.std_class!r}")
        if not isinstance(self.ansi_mode, AnsiMode):
            raise TypeError(f"ansi_mode must be an AnsiMode, got {self.ansi_mode!r}")


def format_setting(value) -> str:
    """Text of one dimension's value as reports show it: the mode name
    for an :class:`AnsiMode`, ``true``/``false`` for a flag, else the
    number."""
    if isinstance(value, AnsiMode):
        return value.name
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def encode_config(config: DialectConfig) -> int:
    """Map a configuration to its integer encoding in 0..767."""
    value = sum(w for f, w in BOOLEAN_WEIGHTS.items() if getattr(config, f))
    value += STD_CLASS_WEIGHT * config.std_class
    value += ANSI_MODE_WEIGHT * config.ansi_mode.value
    return value


def decode_value(value: int) -> DialectConfig:
    """Map an integer in 0..767 to the unique configuration encoding it."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise DialectValueError(f"dialect value must be an integer, got {value!r}")
    if not 0 <= value < ENCODING_SPACE:
        raise DialectValueError(f"dialect value must be in 0..767, got {value}")
    return DialectConfig(
        std_class=value % ANSI_MODE_WEIGHT // STD_CLASS_WEIGHT,
        ansi_mode=AnsiMode(value // ANSI_MODE_WEIGHT),
        **{f: bool(value & w) for f, w in BOOLEAN_WEIGHTS.items()},
    )


def all_configs() -> Iterator[DialectConfig]:
    """Iterate over all 768 configurations in encoding order."""
    for value in range(ENCODING_SPACE):
        yield decode_value(value)


def canonical_flags(config: DialectConfig, profile: "CompilerProfile") -> list[str]:
    """Render the deterministic flag list selecting ``config`` on ``profile``.

    Order: char flag, bit-field flag, optional enum packing, optional
    optimization, pointer width, environment, standard name, optional
    trigraphs.  Parsing the result back through the invocation parser
    yields ``config`` again.
    """
    spell = profile.canonical_spellings()
    flags = [
        spell.char_signed if config.char_is_signed else spell.char_unsigned,
        spell.bitfield_signed if config.bitfield_is_signed else spell.bitfield_unsigned,
    ]
    if config.short_enums:
        flags.append(spell.short_enums)
    if config.optimized:
        flags.append(spell.optimize)
    flags.append(spell.pointer_64 if config.pointer_width_64 else spell.pointer_32)
    flags.append(spell.freestanding if config.freestanding else spell.hosted)
    std_name = profile.canonical_std_name(config.std_class, config.ansi_mode)
    flags.append(spell.std_prefix + std_name)
    if config.ansi_mode is AnsiMode.GNU_TRIGRAPHS:
        flags.append(spell.trigraphs)
    return flags


# --- dialect-space counting -------------------------------------------------

#: The largest behavior count whose 2**n prints in at most 4300 decimal
#: digits, CPython's default limit on converting an int to text.
MAX_BEHAVIORS = 14284


def dialect_count_lower_bound(n_behaviors: int) -> int:
    """Exact 2**n_behaviors: every behavior admits at least two choices."""
    if n_behaviors < 0:
        raise ValueError(f"behavior count must be >= 0, got {n_behaviors}")
    if n_behaviors > MAX_BEHAVIORS:
        raise ValueError(f"behavior count must be <= {MAX_BEHAVIORS}, got {n_behaviors}")
    return 1 << n_behaviors


def decimal_scientific(n: int) -> str:
    """Render a big integer like ``5.19 × 10^33``, to 3 significant digits."""
    if n <= 0:
        raise ValueError(f"expected a positive integer, got {n}")
    from decimal import ROUND_HALF_EVEN, Context

    ctx = Context(prec=3, rounding=ROUND_HALF_EVEN)
    _, digits, exponent = ctx.create_decimal(n).as_tuple()
    mantissa_digits = "".join(map(str, digits))
    power = exponent + len(mantissa_digits) - 1
    mantissa = mantissa_digits[0]
    if len(mantissa_digits) > 1:
        mantissa += "." + mantissa_digits[1:]
    return f"{mantissa} × 10^{power}"


def e_notation(n: int) -> str:
    """Render a big integer like ``5.19e33`` (machine-friendly form)."""
    human = decimal_scientific(n)
    mantissa, _, power = human.partition(" × 10^")
    return f"{mantissa}e{power}"


# --- integer type size models -----------------------------------------------

ALLOWED_WIDTHS = (8, 16, 32, 64)
MINIMUM_WIDTHS = {"char": 8, "short": 16, "int": 16, "long": 32, "llong": 64}


class _TypeModelFields(NamedTuple):
    width_char: int
    width_short: int
    width_int: int
    width_long: int
    width_llong: int
    char_is_signed: bool = True


class TypeModel(_Validated, _TypeModelFields):
    """Value widths of the standard integer types, plus char signedness."""

    __slots__ = ()

    def _validate(self) -> None:
        widths = self.widths()
        for name, width in zip(MINIMUM_WIDTHS, widths):
            if width not in ALLOWED_WIDTHS:
                raise ValueError(f"width of {name} must be one of {ALLOWED_WIDTHS}, got {width}")
            if width < MINIMUM_WIDTHS[name]:
                raise ValueError(
                    f"width of {name} must be >= {MINIMUM_WIDTHS[name]}, got {width}"
                )
        if list(widths) != sorted(widths):
            raise ValueError(f"widths must be non-decreasing, got {widths}")

    def widths(self) -> tuple[int, int, int, int, int]:
        return (
            self.width_char,
            self.width_short,
            self.width_int,
            self.width_long,
            self.width_llong,
        )

    @classmethod
    def from_widths(
        cls, widths: tuple[int, int, int, int, int], char_is_signed: bool = True
    ) -> "TypeModel":
        return cls(*widths, char_is_signed=char_is_signed)


#: The conventional 64-bit Unix model (ILP32 would be (8, 16, 32, 32, 64)).
LP64 = TypeModel(8, 16, 32, 64, 64)


def enumerate_integer_size_models() -> list[tuple[int, int, int, int, int]]:
    """All (char, short, int, long, llong) width tuples over {8,16,32,64}
    that satisfy the minimum-width and ordering constraints, sorted
    lexicographically."""
    models = []
    minimums = tuple(MINIMUM_WIDTHS.values())
    for widths in itertools.product(ALLOWED_WIDTHS, repeat=5):
        if any(w < m for w, m in zip(widths, minimums)):
            continue
        if any(a > b for a, b in zip(widths, widths[1:])):
            continue
        models.append(widths)
    return sorted(models)
