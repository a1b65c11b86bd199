"""The dialect probe: a self-contained C function whose return value
encodes the eight observable dialect dimensions as additive weights.

The probe source is a stored fixture, not regenerated text: its byte
length and checksum are part of the contract, so tests pin both.  Each
additive term is described by a :class:`ProbeBitSpec` so a value can be
explained dimension by dimension.  :func:`verify_with_compiler` builds
and runs the probe under a real compiler, the only code here that
starts processes.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .dialect_model import (
    ANSI_MODE_WEIGHT,
    ENCODING_SPACE,
    STD_CLASS_WEIGHT,
    DialectConfig,
    DialectValueError,
    canonical_flags,
    decode_value,
)
from .profiles import DATA_DIR, CompilerProfile, load_profile

PROBE_FILENAME = "probe_return_value.c"
PROBE_BYTE_LENGTH = 647
PROBE_SHA256 = "03862b5e1c8b3000513c766caf21ebeb1549114ad0f1a36c56cc0aa34a6ba48d"


class ProbeBitSpec(NamedTuple):
    """One additive term of the probe: its weight, the C construct that
    computes it, the dialect dimension it witnesses, and the behavior
    the construct depends on."""

    weight: int
    c_construct: str
    dimension: str
    standard_clause: str


#: One entry per dialect dimension, in encoding order.  The last two
#: weights scale: the standard class contributes weight * class and the
#: mode contributes weight * mode index.
PROBE_BITS: tuple[ProbeBitSpec, ...] = (
    ProbeBitSpec(
        weight=1,
        c_construct="((char)-1) < 0",
        dimension="char_is_signed",
        standard_clause="signedness of plain char",
    ),
    ProbeBitSpec(
        weight=2,
        c_construct="s.f < 0, with struct { int f:8; } s = { 255 }",
        dimension="bitfield_is_signed",
        standard_clause="signedness of plain int bit-fields",
    ),
    ProbeBitSpec(
        weight=4,
        c_construct="sizeof(S) < sizeof(L), S a tiny enum and L an int-range enum",
        dimension="short_enums",
        standard_clause="storage size of enumeration types",
    ),
    ProbeBitSpec(
        weight=8,
        c_construct="#ifdef __OPTIMIZE__",
        dimension="optimized",
        standard_clause="predefined macros reflecting optimization options",
    ),
    ProbeBitSpec(
        weight=16,
        c_construct="sizeof(void *) == 8",
        dimension="pointer_width_64",
        standard_clause="size of object pointers",
    ),
    ProbeBitSpec(
        weight=32,
        c_construct="!defined(__STDC_HOSTED__) || __STDC_HOSTED__ == 0",
        dimension="freestanding",
        standard_clause="hosted versus freestanding execution environment",
    ),
    ProbeBitSpec(
        weight=STD_CLASS_WEIGHT,
        c_construct="(__STDC_VERSION__ % 4)*64 under #ifdef __STDC_VERSION__, else 192",
        dimension="std_class",
        standard_clause="language standard version reported by __STDC_VERSION__",
    ),
    ProbeBitSpec(
        weight=ANSI_MODE_WEIGHT,
        c_construct='#ifndef __STRICT_ANSI__ adds 256, plus 256 more if sizeof("??-") != 4',
        dimension="ansi_mode",
        standard_clause=(
            "strict-conformance macro and trigraph replacement"
            ' ("??-" collapses to "~", shrinking the literal from 4 bytes to 2)'
        ),
    ),
)


def emit_probe_source() -> str:
    """Return the probe function text, byte-exact."""
    import hashlib

    with open(os.path.join(DATA_DIR, PROBE_FILENAME), encoding="ascii") as fh:
        text = fh.read()
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    if digest != PROBE_SHA256:
        raise RuntimeError(
            f"probe fixture corrupted: sha256 {digest} != expected {PROBE_SHA256}"
        )
    return text


def flags_for_value(value: int, profile: CompilerProfile) -> list[str]:
    """Compiler flags that make the probe return ``value``."""
    return canonical_flags(decode_value(value), profile)


def _contribution(spec: ProbeBitSpec, config: DialectConfig) -> int:
    dim = config.value_of(spec.dimension)
    if spec.dimension == "std_class":
        return spec.weight * dim
    if spec.dimension == "ansi_mode":
        return spec.weight * dim.value
    return spec.weight if dim else 0


def explain_value(value: int) -> list[tuple[ProbeBitSpec, int]]:
    """Decompose a probe value into per-dimension contributions.

    Returns one (bit spec, contribution) pair per dimension; the
    contributions sum to ``value``.
    """
    config = decode_value(value)
    return [(spec, _contribution(spec, config)) for spec in PROBE_BITS]


def _parse_values_spec(spec: str) -> list[int]:
    """Values named by a spec such as ``0-767`` or ``0,1,7,40-47``, sorted
    and deduplicated.  Every endpoint is checked against 0..767 before a
    range is expanded, so a huge endpoint cannot allocate a huge list."""
    values: set[int] = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        a, dash, b = part.partition("-")
        try:
            lo = int(a)
            hi = int(b) if dash else lo
        except ValueError:
            raise DialectValueError(f"bad value range {part!r}") from None
        for v in (lo, hi):
            if not 0 <= v < ENCODING_SPACE:
                raise DialectValueError(f"dialect value must be in 0..767, got {v}")
        if lo > hi:
            raise DialectValueError(f"reversed value range {part!r}")
        values.update(range(lo, hi + 1))
    if not values:
        raise DialectValueError(f"empty value specification {spec!r}")
    return sorted(values)


class VerifyResult(NamedTuple):
    value: int
    ok: bool
    detail: str = ""


class VerificationReport(NamedTuple):
    status: str  # "ran" | "skipped"
    compiler: str
    results: tuple[VerifyResult, ...] = ()
    skip_reason: str = ""

    @property
    def failures(self) -> list[VerifyResult]:
        return [r for r in self.results if not r.ok]


#: The probe's caller, built with no C library: ``_start`` calls
#: ``return_value()``, writes the value in decimal and a newline to
#: stdout with a system call, and exits 0.  It needs no libc headers or
#: libraries for either pointer width.  The system calls are x86 ones,
#: as are the canonical -m32/-m64 flags.
_DRIVER_START = """\
unsigned return_value(void);

#if defined(__x86_64__)
static long sys3(long n, long a, long b, long c) {
   long r;
   __asm__ volatile ("syscall" : "=a"(r) : "a"(n), "D"(a), "S"(b), "d"(c)
                     : "rcx", "r11", "memory");
   return r;
}
enum { SYS_WRITE = 1, SYS_EXIT = 60 };
#elif defined(__i386__)
static long sys3(long n, long a, long b, long c) {
   long r;
   __asm__ volatile ("int $0x80" : "=a"(r) : "a"(n), "b"(a), "c"(b), "d"(c)
                     : "memory");
   return r;
}
enum { SYS_WRITE = 4, SYS_EXIT = 1 };
#else
#error "the probe driver makes x86 system calls: __x86_64__ or __i386__ only"
#endif

/* The kernel enters _start with the stack aligned as no call leaves it. */
__attribute__((force_align_arg_pointer, noreturn)) void _start(void) {
   char text[12];
   char *p = text + sizeof text;
   unsigned v = return_value();
   *--p = '\\n';
   do {
      *--p = (char)('0' + v % 10);
      v /= 10;
   } while (v);
   sys3(SYS_WRITE, 1, (long)p, (long)(text + sizeof text - p));
   for (;;)
      sys3(SYS_EXIT, 0, 0, 0);
}
"""


def _last_line(stderr: str) -> str:
    lines = stderr.strip().splitlines()
    return lines[-1] if lines else ""


def verify_with_compiler(
    compiler: str = "gcc",
    values=None,
    jobs: int = 8,
    profile=None,
) -> VerificationReport:
    """Compile and run the probe for each value with its own flags and
    compare the printed result.  A missing compiler yields a skipped
    report, not a failure; -w suppresses trigraph warnings.

    The driver is compiled once per pointer width the values need; each
    value is then one compile-and-link of the probe with the value's
    flags against that driver, with no C library, and one run."""
    # Imported here: only verification starts processes, and these
    # modules would otherwise add to every import of the package.
    import shutil
    import subprocess
    import tempfile
    from concurrent.futures import ThreadPoolExecutor

    if profile is None:
        profile = load_profile()
    if values is None:
        values = range(ENCODING_SPACE)
    values = sorted(set(values))
    for v in values:
        if not 0 <= v <= 767:
            raise DialectValueError(f"dialect value must be in 0..767, got {v}")
    path = shutil.which(compiler)
    if path is None:
        return VerificationReport(
            "skipped", compiler, skip_reason=f"compiler {compiler!r} not found"
        )
    spell = profile.canonical_spellings()

    def width_flag(v: int) -> str:
        return spell.pointer_64 if decode_value(v).pointer_width_64 else spell.pointer_32

    with tempfile.TemporaryDirectory(prefix="dialect-verify-") as tmp:
        probe_c = os.path.join(tmp, "probe.c")
        driver_c = os.path.join(tmp, "driver.c")
        with open(probe_c, "w", encoding="utf-8", newline="") as fh:
            fh.write(emit_probe_source())
        with open(driver_c, "w", encoding="utf-8", newline="") as fh:
            fh.write(_DRIVER_START)

        def build_driver(width: str) -> tuple[str, str]:
            """(object path, "") or ("", failure detail)."""
            obj = os.path.join(tmp, f"driver{width}.o")
            cmd = [path, "-w", "-fno-stack-protector", width, "-c", driver_c, "-o", obj]
            built = subprocess.run(cmd, capture_output=True, text=True)
            if built.returncode != 0:
                return "", f"driver build failed ({width}): {_last_line(built.stderr)}"
            return obj, ""

        def run_one(v: int) -> VerifyResult:
            flags = flags_for_value(v, profile)
            driver, error = drivers[width_flag(v)].result()
            if error:
                return VerifyResult(v, False, error)
            exe = os.path.join(tmp, f"probe{v}")
            cmd = [path, "-w", *flags, "-nostdlib", "-static", probe_c, driver, "-o", exe]
            built = subprocess.run(cmd, capture_output=True, text=True)
            if built.returncode != 0:
                return VerifyResult(
                    v, False, f"compile failed ({' '.join(flags)}): {_last_line(built.stderr)}"
                )
            ran = subprocess.run([exe], capture_output=True, text=True)
            if ran.returncode != 0:
                return VerifyResult(v, False, f"run exited with status {ran.returncode}")
            out = ran.stdout.strip()
            if out == str(v):
                return VerifyResult(v, True)
            return VerifyResult(v, False, f"printed {out!r}, expected {v}")

        with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
            # The pool starts tasks in the order submitted, so every driver
            # build has started before a value waits on one.
            drivers = {w: pool.submit(build_driver, w) for w in sorted(set(map(width_flag, values)))}
            results = tuple(pool.map(run_one, values))
    return VerificationReport("ran", path, results)
