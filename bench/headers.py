"""Seeded generator of C headers whose conditional structure is known.

The generator decides every macro's value and every condition's truth as it
writes, with its own model of preprocessor arithmetic (64-bit two's
complement, signed and unsigned), so the expected taken arms and retained
line ranges come from the generator and not from the program.  It never
writes an expression whose value C leaves undefined (signed overflow, a
negative shifted operand, division by zero outside a short-circuited
operand), except in the hand-checked edge conditions.

Three macro families keep the bookkeeping exact:

* ``V<n>`` value macros are defined once, with a parenthesised body built
  from literals, earlier value macros and the dialect's predefined macros.
  A ``V<n>`` defined inside an inactive arm stays undefined and reads 0.
* ``F<n>`` flag macros are defined, redefined and undefined freely; they
  appear only in conditions, never in bodies, so no body's value depends on
  when it is expanded.
* ``FN<n>(x)`` function-like macros appear only under ``#ifdef``/``defined``.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import NamedTuple

U64 = (1 << 64) - 1
I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1


_VALUE_REF = re.compile(r"\bV\d+\b")


class Val(NamedTuple):
    v: int  # [0, 2^64) when unsigned, [-2^63, 2^63) when signed
    u: bool


class Undefined(Exception):
    """The expression would have undefined or implementation-defined value."""


def _conv(a: Val, u: bool) -> int:
    return a.v & U64 if u else a.v


def _signed(x: int) -> Val:
    if not I64_MIN <= x <= I64_MAX:
        raise Undefined
    return Val(x, False)


def _cdiv(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return q if (a < 0) == (b < 0) else -q


def binary(op: str, a: Val, b: Val) -> Val:
    if op in ("<<", ">>"):
        count = b.v
        if not 0 <= count < 64:
            raise Undefined
        if a.u:
            return Val((a.v << count) & U64 if op == "<<" else a.v >> count, True)
        if a.v < 0:
            raise Undefined
        return _signed(a.v << count if op == "<<" else a.v >> count)
    u = a.u or b.u
    x, y = _conv(a, u), _conv(b, u)
    if op in ("<", ">", "<=", ">=", "==", "!="):
        return Val(int({"<": x < y, ">": x > y, "<=": x <= y, ">=": x >= y,
                        "==": x == y, "!=": x != y}[op]), False)
    if op in ("/", "%"):
        if y == 0:
            raise Undefined
        q = _cdiv(x, y)
        r = q if op == "/" else x - q * y
    else:
        r = {"+": x + y, "-": x - y, "*": x * y, "&": x & y, "|": x | y, "^": x ^ y}[op]
    return Val(r & U64, True) if u else _signed(r)


def unary(op: str, a: Val) -> Val:
    if op == "!":
        return Val(int(a.v == 0), False)
    if op == "+":
        return a
    r = -a.v if op == "-" else ~a.v
    return Val(r & U64, True) if a.u else _signed(r)


#: Hand-derived 64-bit edge conditions and their truth under C's rules.
EDGE_CONDITIONS: tuple[tuple[str, bool], ...] = (
    ("0xFFFFFFFFFFFFFFFFu + 1 == 0", True),
    ("-1 < 0u", False),
    ("-1 < 0", True),
    ("0x8000000000000000 > 0", True),
    ("-9223372036854775807 - 1 < 0", True),
    ("~0u == 18446744073709551615u", True),
    ("(0u - 1) / 2 == 0x7FFFFFFFFFFFFFFF", True),
    ("-7 / 2 == -3", True),
    ("-7 % 2 == -1", True),
    ("(0 ? 1u : -1) > 0", True),
    ("1 || 1 / 0", True),
    ("0 && 1 % 0", False),
    ("010 + 0x10 == 24", True),
    ("-1 >> 63 == -1", True),
    ("(1u << 63) / 4 == 1u << 61", True),
    ("0x7FFFFFFFFFFFFFFF + 1u == 0x8000000000000000", True),
    ("-1 == 0xFFFFFFFFFFFFFFFF", True),
    ("2 + 3 * 4 == 14 && (2 + 3) * 4 == 20", True),
    ("(0 ? 2 : 0 ? 4 : 5) == 5", True),
    ("!defined(BENCH_NEVER_DEFINED) && BENCH_NEVER_DEFINED == 0", True),
    ("-0x8000000000000000 == 0x8000000000000000", True),
    ("(-1 < 0) + (-1 < 0u) == 1", True),
    ("0u - 1 > 0 && -1 + 0u > 0", True),
    ("5 / -2 == -2 && 5 % -2 == 1", True),
    ("~0 == -1 && ~0u != -1 + 0", False),
    ("0x100000000u * 0x100000000 == 0", True),
    ("(1 ? -1 : 0u) < 0", False),
    ("-9223372036854775807 - 1 == 0x8000000000000000", True),
)


@dataclass
class Header:
    text: str
    lines: int
    source_defines: int
    groups: list  # [start, end, evaluated, [[kind, line, taken], ...]] by start line
    retained: list  # [[start, end], ...]
    conditions: list[str]  # every #if/#elif condition whose value decided an arm
    value_bodies: list[tuple[str, str]]  # active V<n> definitions, in order


@dataclass
class _Gen:
    rng: random.Random
    base: dict[str, Val]  # predefined and command-line macros with integer values
    lines: list[str] = field(default_factory=list)
    groups: list = field(default_factory=list)
    retained: list = field(default_factory=list)
    conditions: list[str] = field(default_factory=list)
    values: dict[str, Val] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)
    value_names: list[str] = field(default_factory=list)
    value_bodies: list[tuple[str, str]] = field(default_factory=list)
    sizes: dict[str, int] = field(default_factory=dict)  # tokens after full expansion
    flags: dict[str, Val] = field(default_factory=dict)
    funcs: set[str] = field(default_factory=set)
    n_values: int = 0
    n_funcs: int = 0
    defines: int = 0

    # --- lines ---------------------------------------------------------

    def emit(self, physical: list[str], directive: bool, active: bool) -> int:
        start = len(self.lines) + 1
        self.lines.extend(physical)
        end = len(self.lines)
        if active and not directive:
            if self.retained and self.retained[-1][1] + 1 == start:
                self.retained[-1][1] = end
            else:
                self.retained.append([start, end])
        return start

    def directive(self, head: str, rest: str = "") -> list[str]:
        """One directive, sometimes with a trailing comment or split over
        continuation lines at a space."""
        rng = self.rng
        lead = rng.choice(("#", "#", "#", "# ", "  #"))
        text = f"{lead}{head} {rest}".rstrip()
        r = rng.random()
        if r < 0.08:
            return [text + "  // " + rng.choice(("why", "see below", "fast path"))]
        if r < 0.14:
            return [text + " /* " + rng.choice(("note", "x", "keep")) + " */"]
        spaces = [i for i, c in enumerate(text) if c == " " and i > len(lead) + len(head)]
        if r < 0.22 and spaces:
            cut = rng.choice(spaces)
            return [text[:cut] + " \\", "    " + text[cut + 1:]]
        return [text]

    # --- expressions -----------------------------------------------------

    def literal(self, signed_only: bool = False) -> tuple[str, Val]:
        rng = self.rng
        n = rng.choice((0, 1, 2, 3, 7, 8, 15, 16, 100, 255, 1000, 4096, rng.randrange(1, 100000)))
        style = rng.random()
        text = hex(n) if style < 0.2 else ("0" + oct(n)[2:] if style < 0.3 and n else str(n))
        if not signed_only and rng.random() < 0.2:
            return text + rng.choice(("u", "U", "ULL")), Val(n, True)
        return text + ("L" if rng.random() < 0.05 else ""), Val(n, False)

    def atom(self) -> tuple[str, Val]:
        rng = self.rng
        r = rng.random()
        if r < 0.35 and self.values:
            # Only macros with short expansions, so that expansion stays
            # small however long the chain of definitions grows.
            for name in (rng.choice(self.value_names) for _ in range(4)):
                if self.sizes[name] <= 60:
                    return name, self.values[name]
        if r < 0.45 and self.skipped:
            return rng.choice(self.skipped), Val(0, False)
        if r < 0.6:
            name = rng.choice(list(self.base))
            return name, self.base[name]
        return self.literal()

    def expr(self, depth: int) -> tuple[str, Val]:
        rng = self.rng
        for _ in range(8):
            if depth <= 0 or rng.random() < 0.3:
                return self.atom()
            try:
                r = rng.random()
                if r < 0.55:
                    op = rng.choice(("+", "-", "*", "&", "|", "^", "+", "-"))
                    (ta, a), (tb, b) = self.expr(depth - 1), self.expr(depth - 1)
                    return f"({ta} {op} {tb})", binary(op, a, b)
                if r < 0.65:
                    op = rng.choice(("/", "%"))
                    ta, a = self.expr(depth - 1)
                    d = rng.choice((1, 2, 3, 7, 16, 100))
                    return f"({ta} {op} {d})", binary(op, a, Val(d, False))
                if r < 0.75:
                    op = rng.choice(("<<", ">>"))
                    ta, a = self.expr(depth - 1)
                    c = rng.randrange(0, 16)
                    return f"({ta} {op} {c})", binary(op, a, Val(c, False))
                if r < 0.85:
                    op = rng.choice(("-", "~", "!", "+"))
                    ta, a = self.expr(depth - 1)
                    return f"{op}({ta})", unary(op, a)
                (tc, c), (ta, a), (tb, b) = (self.expr(depth - 1) for _ in range(3))
                u = a.u or b.u
                chosen = a if c.v else b
                return f"({tc} ? {ta} : {tb})", Val(_conv(chosen, u), u)
            except Undefined:
                continue
        return self.atom()

    def flag_atom(self) -> tuple[str, Val]:
        rng = self.rng
        name = f"F{rng.randrange(24)}"
        if rng.random() < 0.5:
            form = f"defined({name})" if rng.random() < 0.7 else f"defined {name}"
            return form, Val(int(name in self.flags), False)
        return name, self.flags.get(name, Val(0, False))

    def condition(self, depth: int = 2) -> tuple[str, Val]:
        rng = self.rng
        r = rng.random()
        if depth > 0 and r < 0.15:
            op = rng.choice(("&&", "||"))
            (ta, a), (tb, b) = self.condition(depth - 1), self.condition(depth - 1)
            truth = (a.v != 0 and b.v != 0) if op == "&&" else (a.v != 0 or b.v != 0)
            return f"({ta}) {op} ({tb})", Val(int(truth), False)
        if depth > 0 and r < 0.2:
            ta, a = self.condition(depth - 1)
            return f"!({ta})", Val(int(a.v == 0), False)
        if depth > 0 and r < 0.25:
            (tc, c), (ta, a), (tb, b) = (self.condition(depth - 1) for _ in range(3))
            return f"({tc}) ? ({ta}) : ({tb})", a if c.v else b
        if r < 0.4:
            return self.flag_atom()
        for _ in range(8):
            te, e = self.expr(rng.randrange(1, 4))
            delta = rng.randrange(-2, 3)
            k = (e.v + delta) & U64 if e.u else e.v + delta
            if not e.u and not (0 <= k <= I64_MAX):
                continue
            lit = (hex(k) + "u") if e.u else str(k)
            op = rng.choice(("<", ">", "<=", ">=", "==", "!="))
            return f"{te} {op} {lit}", binary(op, e, Val(k, e.u))
        return self.flag_atom()

    def defined_now(self, name: str) -> bool:
        return (name in self.values or name in self.flags or name in self.funcs
                or name in self.base or name == "__GNUC__")

    # --- items -------------------------------------------------------------

    def define_value(self, active: bool) -> None:
        rng = self.rng
        self.n_values += 1
        name = f"V{self.n_values}"
        text, val = self.expr(rng.randrange(1, 4))
        if not val.u and abs(val.v) > 1 << 40:
            text, val = f"({text} & 0xFFFFF)", binary("&", val, Val(0xFFFFF, False))
        self.emit(self.directive("define", f"{name} ({text})"), False, active)
        self.defines += 1
        if active:
            self.values[name] = val
            self.value_names.append(name)
            self.value_bodies.append((name, f"({text})"))
            self.sizes[name] = len(text.split()) + sum(
                self.sizes.get(ref, 0) for ref in _VALUE_REF.findall(text))
        else:
            self.skipped.append(name)

    def flag_macro(self, active: bool) -> None:
        rng = self.rng
        name = f"F{rng.randrange(24)}"
        if rng.random() < 0.3:
            self.emit(self.directive("undef", name), False, active)
            if active:
                self.flags.pop(name, None)
            return
        text, val = self.literal(signed_only=rng.random() < 0.5)
        self.emit(self.directive("define", f"{name} {text}"), False, active)
        self.defines += 1
        if active:
            self.flags[name] = val

    def function_macro(self, active: bool) -> None:
        self.n_funcs += 1
        name = f"FN{self.n_funcs}"
        self.emit([f"#define {name}(x, y) ((x) * (y) + 1)"], False, active)
        self.defines += 1
        if active:
            self.funcs.add(name)

    def code(self, active: bool) -> None:
        rng = self.rng
        r = rng.random()
        n = len(self.lines)
        if r < 0.3:
            physical = [""]
        elif r < 0.45:
            physical = [f"/* block {n} */"]
        elif r < 0.55:
            # A block comment hiding directive text, which must not count.
            physical = ["/* disabled:", "#if 0", f"int hidden_{n};", "#endif */"]
        elif r < 0.65:
            physical = [f"static const char s{n}[] = \"/* not a comment */ // nor this\";"]
        elif r < 0.72:
            physical = [f"int sum_{n} = 1 + \\", "    2;"]
        else:
            physical = [f"int v_{n} = {rng.randrange(1000)};  // line comment"]
        self.emit(physical, False, active)

    def group(self, active: bool, depth: int) -> None:
        rng = self.rng
        kind = rng.choice(("if", "if", "if", "ifdef", "ifndef"))
        arms = [kind] + ["elif"] * rng.choice((0, 0, 1, 1, 2, 3)) + (["else"] if rng.random() < 0.6 else [])
        start = len(self.lines) + 1
        taken_seen = False
        record = []
        for arm in arms:
            if arm in ("ifdef", "ifndef"):
                pool = self.value_names[-20:] + self.skipped[-5:] + [f"F{i}" for i in range(24)]
                pool += sorted(self.funcs)[-5:] + ["__OPTIMIZE__", "__STRICT_ANSI__", "__CHAR_UNSIGNED__", "__GNUC__"]
                name = rng.choice(pool)
                truth = self.defined_now(name) == (arm == "ifdef")
                lines = self.directive(arm, name)
            elif arm == "else":
                truth = True
                lines = self.directive("else")
            else:
                text, val = self.condition()
                truth = val.v != 0
                lines = self.directive(arm, text)
                if active and not taken_seen:
                    self.conditions.append(text)
            if not active:
                taken, arm_active = None, False
            elif taken_seen:
                taken, arm_active = False, False
            else:
                taken, arm_active = truth, truth
                taken_seen = truth
            record.append([arm, self.emit(lines, True, active), taken])
            self.items(rng.randrange(1, 6), arm_active, depth + 1)
        end_lines = self.directive("endif")
        self.emit(end_lines, True, active)
        self.groups.append([start, len(self.lines), active, record])

    def items(self, count: int, active: bool, depth: int) -> None:
        rng = self.rng
        for _ in range(count):
            r = rng.random()
            if r < 0.55:
                self.define_value(active)
            elif r < 0.65:
                self.flag_macro(active)
            elif r < 0.67:
                self.function_macro(active)
            elif r < 0.82 or depth >= 4:
                self.code(active)
            else:
                self.group(active, depth)

    def edges(self) -> None:
        for i, (text, truth) in enumerate(EDGE_CONDITIONS):
            start = self.emit([f"#if {text}"], True, True)
            self.conditions.append(text)
            self.emit([f"int edge_{i}_true;"], False, truth)
            else_line = self.emit(["#else"], True, True)
            self.emit([f"int edge_{i}_false;"], False, not truth)
            self.emit(["#endif"], True, True)
            self.groups.append([start, len(self.lines), True,
                                [["if", start, truth], ["else", else_line, not truth]]])


def generate(rng: random.Random, base: dict[str, Val], defines: int) -> Header:
    """A header with about ``defines`` #define/#undef lines, the edge
    conditions first, then seeded items until the count is reached."""
    g = _Gen(rng, dict(base))
    g.emit([f"/* generated header, {defines} defines */"], False, True)
    g.edges()
    while g.defines < defines:
        g.items(8, True, 0)
    g.groups.sort(key=lambda grp: grp[0])
    return Header(
        text="".join(line + "\n" for line in g.lines),
        lines=len(g.lines),
        source_defines=g.defines,
        groups=g.groups,
        retained=g.retained,
        conditions=g.conditions,
        value_bodies=g.value_bodies,
    )


def deep_header(depth: int = 2000) -> Header:
    """A header whose only condition nests parentheses ``depth`` deep; the
    condition is true, as ``gcc -E`` reads it, so line 2 is kept."""
    condition = "(" * depth + "1" + ")" * depth
    return Header(
        text=f"#if {condition}\nint deep;\n#endif\n",
        lines=3,
        source_defines=0,
        groups=[[1, 3, True, [["if", 1, True]]]],
        retained=[[2, 2]],
        conditions=[condition],
        value_bodies=[],
    )
