"""The benchmark's own model of the dialect encoding, written apart from the
program so that its outputs can be checked against it.

Weights follow the paper: char signedness 1, bit-field signedness 2, short
enums 4, optimization 8, 64-bit pointers 16, freestanding 32, standard class
64 x class, and mode 256 x mode (strict 0, GNU 1, GNU with trigraphs 2).  The
standard class is ``__STDC_VERSION__ % 4``, or 3 when the standard defines no
``__STDC_VERSION__``.
"""

from __future__ import annotations

import itertools
import random

CHAR, BITFIELD, ENUMS, OPT, PTR64, FREE = 1, 2, 4, 8, 16, 32
CLASS_WEIGHT, MODE_WEIGHT = 64, 256
STRICT, GNU, GNU_TRIGRAPHS = 0, 1, 2
MODE_NAMES = ("STRICT", "GNU", "GNU_TRIGRAPHS")

#: -std= spelling -> (__STDC_VERSION__ or None, strict?)
STD_NAMES: dict[str, tuple[int | None, bool]] = {
    "c90": (None, True), "c89": (None, True), "iso9899:1990": (None, True),
    "iso9899:199409": (199409, True),
    "c99": (199901, True), "c9x": (199901, True), "iso9899:1999": (199901, True),
    "c11": (201112, True), "c1x": (201112, True), "iso9899:2011": (201112, True),
    "c17": (201710, True), "c18": (201710, True),
    "iso9899:2017": (201710, True), "iso9899:2018": (201710, True),
    "gnu90": (None, False), "gnu89": (None, False),
    "gnu99": (199901, False), "gnu9x": (199901, False),
    "gnu11": (201112, False), "gnu1x": (201112, False),
    "gnu17": (201710, False), "gnu18": (201710, False),
}
#: GCC 12 spells the draft C23 standard -std=c2x and reports 202000L.
C2X_VERSION = 202000

#: Canonical (strict, GNU) spelling per class, the probe's rendering.
CANONICAL_STD = {0: ("c11", "gnu11"), 1: ("c99", "gnu99"), 2: ("c17", "gnu17"), 3: ("c90", "gnu90")}

DIMENSIONS = (
    "char_is_signed", "bitfield_is_signed", "short_enums", "optimized",
    "pointer_width_64", "freestanding", "std_class", "ansi_mode",
)
_BOOL_DIMS = dict(zip(DIMENSIONS[:6], (CHAR, BITFIELD, ENUMS, OPT, PTR64, FREE)))

#: GCC's default on x86_64: signed char and bit-fields, 64-bit, hosted, gnu17.
DEFAULT_VALUE = CHAR | BITFIELD | PTR64 | 2 * CLASS_WEIGHT | GNU * MODE_WEIGHT

#: Boolean flags: flag -> (weight, whether it sets the dimension).
BOOL_FLAGS: dict[str, tuple[int, bool]] = {
    "-fsigned-char": (CHAR, True), "-fno-unsigned-char": (CHAR, True),
    "-funsigned-char": (CHAR, False), "-fno-signed-char": (CHAR, False),
    "-fsigned-bitfields": (BITFIELD, True), "-fno-unsigned-bitfields": (BITFIELD, True),
    "-funsigned-bitfields": (BITFIELD, False), "-fno-signed-bitfields": (BITFIELD, False),
    "-fshort-enums": (ENUMS, True), "-fno-short-enums": (ENUMS, False),
    "-m64": (PTR64, True), "-m32": (PTR64, False),
    "-ffreestanding": (FREE, True), "-fhosted": (FREE, False), "-fno-freestanding": (FREE, False),
}
_SPELLINGS = {}
for _flag, (_w, _on) in BOOL_FLAGS.items():
    _SPELLINGS.setdefault((_w, _on), []).append(_flag)
OPT_ON = ("-O", "-O1", "-O2", "-O3", "-Os", "-Og")


def std_class(version: int | None) -> int:
    return 3 if version is None else version % 4


def fields(value: int) -> dict[str, object]:
    """Dimension -> value as the program renders it in reports."""
    out: dict[str, object] = {d: bool(value & w) for d, w in _BOOL_DIMS.items()}
    out["std_class"] = (value >> 6) & 3
    out["ansi_mode"] = MODE_NAMES[value >> 8]
    return out


def render(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def decode_argv(argv: list[str]) -> int:
    """Dialect value of a gcc option list (executable excluded): last wins,
    -std= and -ansi reset trigraphs, -trigraphs matters only in GNU mode."""
    value = DEFAULT_VALUE & ~(3 * CLASS_WEIGHT) & ~(3 * MODE_WEIGHT)
    cls, strict, trigraphs = 2, False, False
    for arg in argv:
        std = None
        if arg.startswith("-std="):
            name = arg[5:]
            std = (C2X_VERSION, True) if name == "c2x" else STD_NAMES[name]
        elif arg == "-ansi":
            std = STD_NAMES["c90"]
        elif arg == "-trigraphs":
            trigraphs = True
        elif arg == "-O0":
            value &= ~OPT
        elif arg in OPT_ON:
            value |= OPT
        elif arg in BOOL_FLAGS:
            weight, on = BOOL_FLAGS[arg]
            value = value | weight if on else value & ~weight
        if std is not None:
            cls, strict = std_class(std[0]), std[1]
            trigraphs = False
    mode = STRICT if strict else GNU_TRIGRAPHS if trigraphs else GNU
    return value + cls * CLASS_WEIGHT + mode * MODE_WEIGHT


def canonical_flags(value: int) -> list[str]:
    """The probe's flag rendering of a value, in the documented order."""
    f = fields(value)
    flags = [
        "-fsigned-char" if f["char_is_signed"] else "-funsigned-char",
        "-fsigned-bitfields" if f["bitfield_is_signed"] else "-funsigned-bitfields",
    ]
    if f["short_enums"]:
        flags.append("-fshort-enums")
    if f["optimized"]:
        flags.append("-O2")
    flags.append("-m64" if f["pointer_width_64"] else "-m32")
    flags.append("-ffreestanding" if f["freestanding"] else "-fhosted")
    strict_name, gnu_name = CANONICAL_STD[f["std_class"]]
    flags.append("-std=" + (strict_name if f["ansi_mode"] == "STRICT" else gnu_name))
    if f["ansi_mode"] == "GNU_TRIGRAPHS":
        flags.append("-trigraphs")
    return flags


def _std_spellings(cls: int, strict: bool) -> list[str]:
    names = [n for n, (ver, s) in STD_NAMES.items() if std_class(ver) == cls and s == strict]
    spelled = ["-std=" + n for n in names]
    if cls == 3 and strict:
        spelled.append("-ansi")
    return spelled


def noisy_flags(value: int, rng: random.Random, contradict: float = 0.3) -> list[str]:
    """A gcc option list selecting ``value``, spelled with seeded aliases,
    flags left at their default, and earlier contradicting flags that
    last-wins must override.  Groups of one dimension keep their order;
    the groups themselves are shuffled."""
    groups: list[list[str]] = []
    for weight in (CHAR, BITFIELD, ENUMS, PTR64, FREE):
        on = bool(value & weight)
        default_on = bool(DEFAULT_VALUE & weight)
        group = []
        if rng.random() < contradict:
            group.append(rng.choice(_SPELLINGS[(weight, not on)]))
        if group or on != default_on or rng.random() < 0.5:
            group.append(rng.choice(_SPELLINGS[(weight, on)]))
        groups.append(group)
    opt_on = bool(value & OPT)
    group = []
    if rng.random() < contradict:
        group.append("-O0" if opt_on else rng.choice(OPT_ON))
    if group or opt_on or rng.random() < 0.3:
        group.append(rng.choice(OPT_ON) if opt_on else "-O0")
    groups.append(group)

    cls, mode = (value >> 6) & 3, value >> 8
    group = []
    if rng.random() < contradict:
        # An earlier standard and an earlier -trigraphs, both reset by the
        # standard that follows.
        group.append(rng.choice(_std_spellings(rng.randrange(4), rng.random() < 0.5)))
        if rng.random() < 0.5:
            group.append("-trigraphs")
    if group or (cls, mode) != (2, GNU) or rng.random() < 0.5:
        group.append(rng.choice(_std_spellings(cls, mode == STRICT)))
    if mode == GNU_TRIGRAPHS or (mode == STRICT and rng.random() < 0.2):
        group.append("-trigraphs")
    groups.append(group)

    rng.shuffle(groups)
    flags = [f for g in groups for f in g]
    if decode_argv(flags) != value:
        raise AssertionError(f"flag generator disagrees with itself on {value}: {flags}")
    return flags


def predefined(value: int) -> dict[str, int | None]:
    """Dialect macros GCC predefines (name -> integer value); None marks a
    macro that must be absent."""
    f = fields(value)
    versions = {0: 201112, 1: 199901, 2: 201710, 3: None}
    return {
        "__STDC__": 1,
        "__STDC_VERSION__": versions[f["std_class"]],
        "__STDC_HOSTED__": 0 if f["freestanding"] else 1,
        "__OPTIMIZE__": 1 if f["optimized"] else None,
        "__STRICT_ANSI__": 1 if f["ansi_mode"] == "STRICT" else None,
        "__CHAR_UNSIGNED__": None if f["char_is_signed"] else 1,
        "__SIZEOF_POINTER__": 8 if f["pointer_width_64"] else 4,
    }


# --- integer width models and the wrap-check idiom --------------------------

def width_models() -> list[list[int]]:
    """(char, short, int, long, long long) widths over {8,16,32,64} meeting
    the standard minimums 8/16/16/32/64, non-decreasing, sorted."""
    minimums = (8, 16, 16, 32, 64)
    return [
        list(w) for w in itertools.product((8, 16, 32, 64), repeat=5)
        if all(a >= m for a, m in zip(w, minimums)) and list(w) == sorted(w)
    ]


def wrap_check_reliable(operand_width: int, widths: list[int], cast_to_operand: bool) -> bool:
    """`(x + y) < x` sees wraparound unless both operands promote to a wider
    int, where the sum is exact; a cast back to the operand type restores it."""
    return cast_to_operand or widths[2] <= operand_width
