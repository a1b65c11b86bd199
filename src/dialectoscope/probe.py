"""The dialect probe: a self-contained C function whose return value
encodes the eight observable dialect dimensions as additive weights.

The probe source is a constant of this module, not a stored file or
regenerated text: its byte length and checksum are part of the contract,
and the tests pin both.  Each additive term is described by a
:class:`ProbeBitSpec` so a value can be explained dimension by dimension.
:func:`verify_with_compiler` builds and runs the probe under a real
compiler through ``_compile_and_run``, the only code here that starts
processes: one compile per build, and one link of every compiled build,
with the driver assembled in it, and one run per pointer width, which
writes each result as 4 little-endian bytes.  A value fails with the step
that failed: ``compile failed``, ``link failed``, ``run exited with
status N``, ``run wrote no result``, or ``returned N, expected V``.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .dialect_model import (
    ANSI_MODE_WEIGHT,
    BOOLEAN_WEIGHTS,
    ENCODING_SPACE,
    STD_CLASS_WEIGHT,
    DialectValueError,
    canonical_flags,
    decode_value,
)
from .profiles import CompilerProfile, load_profile

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


#: One entry per dialect dimension, in encoding order, weighted as the
#: encoding weights it.  The last two weights scale: the standard class
#: contributes weight * class and the mode contributes weight * mode index.
PROBE_BITS: tuple[ProbeBitSpec, ...] = (
    ProbeBitSpec(
        weight=BOOLEAN_WEIGHTS["char_is_signed"],
        c_construct="((char)-1) < 0",
        dimension="char_is_signed",
        standard_clause="signedness of plain char",
    ),
    ProbeBitSpec(
        weight=BOOLEAN_WEIGHTS["bitfield_is_signed"],
        c_construct="s.f < 0, with struct { int f:8; } s = { 255 }",
        dimension="bitfield_is_signed",
        standard_clause="signedness of plain int bit-fields",
    ),
    ProbeBitSpec(
        weight=BOOLEAN_WEIGHTS["short_enums"],
        c_construct="sizeof(S) < sizeof(L), S a tiny enum and L an int-range enum",
        dimension="short_enums",
        standard_clause="storage size of enumeration types",
    ),
    ProbeBitSpec(
        weight=BOOLEAN_WEIGHTS["optimized"],
        c_construct="#ifdef __OPTIMIZE__",
        dimension="optimized",
        standard_clause="predefined macros reflecting optimization options",
    ),
    ProbeBitSpec(
        weight=BOOLEAN_WEIGHTS["pointer_width_64"],
        c_construct="sizeof(void *) == 8",
        dimension="pointer_width_64",
        standard_clause="size of object pointers",
    ),
    ProbeBitSpec(
        weight=BOOLEAN_WEIGHTS["freestanding"],
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
    return _PROBE_SOURCE


def flags_for_value(value: int, profile: CompilerProfile) -> list[str]:
    """Compiler flags that make the probe return ``value``."""
    return canonical_flags(decode_value(value), profile)


def explain_value(value: int) -> list[tuple[ProbeBitSpec, int]]:
    """Decompose a probe value into per-dimension contributions.

    Returns one (bit spec, contribution) pair per dimension; the
    contributions sum to ``value``.
    """
    # PROBE_BITS and a DialectConfig both hold the dimensions in DIMENSIONS
    # order: a flag contributes its weight or 0, the class and the mode
    # their weight times their number.
    return [
        (spec, spec.weight * (setting.value if spec.dimension == "ansi_mode" else setting))
        for spec, setting in zip(PROBE_BITS, decode_value(value))
    ]


def _parse_values_spec(spec: str) -> list[int]:
    """Values named by a spec such as ``0-767`` or ``0,1,7,40-47``, sorted
    and deduplicated.  Every endpoint is checked by :func:`decode_value`
    before a range is expanded, so a huge endpoint cannot allocate a huge
    list."""
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
        decode_value(lo)
        decode_value(hi)
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


#: The probe function, whose return value is the encoded dialect.
_PROBE_SOURCE = """\
unsigned return_value(void) {
   typedef enum { Z } S;
   typedef enum {
      I = ((int)-1U/2 == (int)(-1U/2)) ? (int)-1U : (int)(-1U/2)
   } L;
   struct {
      int f:8;
   } s = { 255 };
   unsigned m = 0;
   m += (((char)-1) < 0) ? 1 : 0;
   m += (s.f < 0) ? 2 : 0;
   m += (sizeof(S) < sizeof(L)) ? 4 : 0;
#ifdef __OPTIMIZE__
   m += 8;
#endif
   m += (sizeof(void *) == 8) ? 16 : 0;
#if !defined(__STDC_HOSTED__) || __STDC_HOSTED__ == 0
   m += 32;
#endif
#ifdef __STDC_VERSION__
   m += (__STDC_VERSION__ % 4)*64;
#else
   m += 192;
#endif
#ifndef __STRICT_ANSI__
   m += 256;
   m += (sizeof("??-") != 4) ? 256 : 0;
#endif
   return m;
}
"""

#: The probe's caller, assembled in each pointer width's link, at the head
#: of the generated table file, with no C library.  ``_start`` aligns the
#: stack, calls each entry of ``probe_table``, a zero-terminated table of
#: function pointers that the rest of the file defines, writes each result
#: to stdout as 4 little-endian bytes with a ``write`` system call, and
#: exits 0.  The table cursor is kept in a callee-saved register (rbx,
#: esi), so it survives each call.  The system calls are x86 ones, as are
#: the canonical -m32/-m64 flags.
_DRIVER_X86_64 = """\
   .text
   .globl _start
_start:
   andq $-16, %rsp
   subq $16, %rsp              # the result's 4 bytes, alignment kept
   leaq probe_table(%rip), %rbx
.Lnext:
   movq (%rbx), %rax
   testq %rax, %rax
   jz .Ldone
   call *%rax
   movl %eax, (%rsp)
   movq %rsp, %rsi
   movl $4, %edx
   movl $1, %edi
   movl $1, %eax               # write(1, rsp, 4)
   syscall
   addq $8, %rbx
   jmp .Lnext
.Ldone:
   movl $60, %eax              # exit(0)
   xorl %edi, %edi
   syscall
   .section .note.GNU-stack,"",@progbits
"""

_DRIVER_I386 = """\
   .text
   .globl _start
_start:
   andl $-16, %esp
   subl $16, %esp              # the result's 4 bytes, alignment kept
   movl $probe_table, %esi
.Lnext:
   movl (%esi), %eax
   testl %eax, %eax
   jz .Ldone
   call *%eax
   movl %eax, (%esp)
   movl %esp, %ecx
   movl $4, %edx
   movl $1, %ebx
   movl $4, %eax               # write(1, esp, 4)
   int $0x80
   addl $4, %esi
   jmp .Lnext
.Ldone:
   movl $1, %eax               # exit(0)
   xorl %ebx, %ebx
   int $0x80
   .section .note.GNU-stack,"",@progbits
"""

#: Each width flag's driver, and the directive and alignment of a
#: ``probe_table`` entry.
_DRIVERS = {"-m64": (_DRIVER_X86_64, ".quad", 8), "-m32": (_DRIVER_I386, ".long", 4)}


def _in_threads(fn, items: list, jobs: int) -> list:
    """``[fn(x) for x in items]``, computed by at most ``jobs`` threads
    that drain one shared iterator.  The first exception is re-raised."""
    import threading

    results = [None] * len(items)
    todo = iter(range(len(items)))
    errors: list[BaseException] = []

    def work() -> None:
        try:
            for i in todo:
                results[i] = fn(items[i])
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(min(max(1, jobs), len(items)))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def _compile_and_run(path: str, source: str, function: str, builds: dict, jobs: int):
    """Build and run ``source`` with the compiler at ``path`` and no C
    library: the one place that compiles, links and runs.

    ``builds`` maps a label to a width flag, ``-m64`` or ``-m32``, and
    compile flags that select that width.  Each build is one compile, with
    ``-D<function>=<function>_<label>`` so that each build's function has
    its own name.  Each width costs one link of its compiled builds, which
    also assembles the driver, written at the head of the generated
    ``probe_table`` file, and one run, whose 4-byte little-endian record
    *i* is entry *i*'s result; a partial record and extra records are
    ignored.  A failed compile fails its build, and a failed link, or a run
    that ends before their records, fails its width's compiled builds.
    Returns ``(results, failures)``: the unsigned integer each label
    returned, else its failure text."""
    # Imported here: only this function starts processes, and these
    # modules would otherwise add to every import of the package.
    import struct
    import subprocess
    import tempfile

    def gcc(*words: str) -> str:
        """Run the compiler quietly: "" when it succeeds, else ": " and the
        last line of its stderr."""
        built = subprocess.run([path, "-w", *words], capture_output=True, text=True,
                               errors="replace")
        stderr = built.stderr.strip().splitlines()
        return "" if built.returncode == 0 else f": {stderr[-1] if stderr else ''}"

    by_width: dict[str, list] = {}
    for label, (width, _) in builds.items():
        by_width.setdefault(width, []).append(label)
    results, failures = {}, {}
    with tempfile.TemporaryDirectory(prefix="dialect-verify-") as tmp:

        def write(name: str, text: str) -> str:
            with open(os.path.join(tmp, name), "w", encoding="ascii", newline="") as fh:
                fh.write(text)
            return fh.name

        source_c = write("probe.c", source)

        def compile_one(label) -> str:
            flags = builds[label][1]
            error = gcc("-pipe", *flags, f"-D{function}={function}_{label}",
                        "-c", source_c, "-o", os.path.join(tmp, f"{function}_{label}.o"))
            return error and f"compile failed ({' '.join(flags)}){error}"

        def link_and_run(width: str) -> tuple[dict, dict]:
            """The results and the failures of the width's compiled builds."""
            group = [label for label in by_width[width] if label not in failures]
            if not group:
                return {}, {}
            driver, entry, align = _DRIVERS[width]
            table = write(
                f"table{width}.s",
                f"{driver}   .data\n   .balign {align}\nprobe_table:\n"
                + "".join(f"   {entry} {function}_{label}\n" for label in group)
                + f"   {entry} 0\n",
            )
            exe = os.path.join(tmp, f"probe{width}")
            error = gcc(width, "-nostdlib", "-static", table,
                        *(os.path.join(tmp, f"{function}_{label}.o") for label in group), "-o", exe)
            if error:
                return {}, dict.fromkeys(group, f"link failed ({width}){error}")
            ran = subprocess.run([exe], capture_output=True)
            n = min(len(ran.stdout) // 4, len(group))
            failure = ("run wrote no result" if ran.returncode == 0
                       else f"run exited with status {ran.returncode}")
            return (dict(zip(group, struct.unpack_from(f"<{n}I", ran.stdout))),
                    dict.fromkeys(group[n:], failure))

        labels = list(builds)
        compiled = _in_threads(compile_one, labels, jobs)
        failures.update((label, error) for label, error in zip(labels, compiled) if error)
        for width_results, width_failures in _in_threads(link_and_run, list(by_width), jobs):
            results.update(width_results)
            failures.update(width_failures)
    return results, failures


def verify_with_compiler(compiler: str = "gcc", values=None, jobs: int = 8,
                         profile=None) -> VerificationReport:
    """Compile the probe for each value with its own flags, run it, and
    compare the result with the value; a missing compiler yields a
    skipped report.  Each value is one build of ``_compile_and_run``,
    labelled with the value, so its compile renames ``return_value`` to
    ``return_value_<v>``: the probe reads only predefined macros and the
    compiler's own type choices, so the rename changes no result."""
    import shutil

    if profile is None:
        profile = load_profile()
    values = sorted(set(range(ENCODING_SPACE) if values is None else values))
    width = {v: "-m64" if decode_value(v).pointer_width_64 else "-m32" for v in values}
    path = shutil.which(compiler)
    if path is None:
        return VerificationReport(
            "skipped", compiler, skip_reason=f"compiler {compiler!r} not found"
        )
    builds = {v: (width[v], flags_for_value(v, profile)) for v in values}
    results, failures = _compile_and_run(path, emit_probe_source(), "return_value", builds, jobs)
    return VerificationReport("ran", path, tuple(
        VerifyResult(v, True) if results.get(v) == v
        else VerifyResult(v, False, failures.get(v) or f"returned {results[v]}, expected {v}")
        for v in values
    ))
