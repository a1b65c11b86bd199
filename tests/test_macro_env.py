"""Predefined tables, expression evaluation (with a differential
oracle), and conditional-branch reporting (with the character-loop
scanner as the oracle of the line and comment scanner, and with GCC's
own preprocessor where one is installed)."""

import re
import string
from unittest import mock

import pytest
from gcc_oracle import pp
from hypothesis import given, settings, strategies as st

from dialectoscope import macro_env
from dialectoscope.invocation import InvocationError, _macro_directive

from dialectoscope import (
    AnsiMode,
    ConditionalStructureError,
    DialectConfig,
    ExprEvalError,
    ExprSyntaxError,
    MacroDefinition,
    MacroDirective,
    MacroEnv,
    UnsupportedMacroError,
    active_branches,
    all_configs,
    apply_directives,
    decode_value,
    encode_config,
    eval_condition,
    invocation_macro_env,
    parse_invocation,
    predefined_macros,
)


def env_of(**macros) -> MacroEnv:
    env = MacroEnv.empty()
    for name, body in macros.items():
        env = env.with_define(name, str(body), "command-line")
    return env


# --- macro tables -----------------------------------------------------------


def test_predefined_strict_c11_hosted(profile):
    config = DialectConfig(True, True, False, False, True, False, 0, AnsiMode.STRICT)
    env = predefined_macros(config, profile)
    assert env.lookup("__STDC__").body == "1"
    assert env.lookup("__STDC_VERSION__").body == "201112L"
    assert env.lookup("__STDC_HOSTED__").body == "1"
    assert env.defined("__STRICT_ANSI__")
    assert not env.defined("__OPTIMIZE__")
    assert not env.defined("__CHAR_UNSIGNED__")
    assert env.lookup("__SIZEOF_POINTER__").body == "8"
    assert env.defined("__GNUC__")
    assert env.lookup("__STDC__").provenance == "predefined"


def test_predefined_gnu90_lacks_stdc_version(profile):
    config = DialectConfig(True, True, False, False, True, False, 3, AnsiMode.GNU)
    env = predefined_macros(config, profile)
    assert not env.defined("__STDC_VERSION__")
    assert not env.defined("__STRICT_ANSI__")


def test_predefined_option_dependent_macros(profile):
    config = DialectConfig(False, True, False, True, False, True, 2, AnsiMode.GNU)
    env = predefined_macros(config, profile)
    assert env.defined("__OPTIMIZE__")
    assert env.defined("__CHAR_UNSIGNED__")
    assert env.lookup("__STDC_HOSTED__").body == "0"
    assert env.lookup("__SIZEOF_POINTER__").body == "4"


def test_predefined_is_pure(profile):
    config = decode_value(403)
    assert predefined_macros(config, profile) == predefined_macros(config, profile)


def test_probe_conditions_reproduce_encoding(profile):
    hosted_expr = "!defined(__STDC_HOSTED__) || __STDC_HOSTED__ == 0"
    for config in all_configs():
        env = predefined_macros(config, profile)
        value = encode_config(config)
        opt = 8 if eval_condition(env, "defined(__OPTIMIZE__)") else 0
        assert opt == (value & 8)
        free = 32 if eval_condition(env, hosted_expr) else 0
        assert free == (value & 32)
        if eval_condition(env, "defined(__STDC_VERSION__)"):
            std = 64 * eval_condition(env, "__STDC_VERSION__ % 4")
        else:
            std = 192
        assert std == 64 * config.std_class


def test_apply_directives_sequences():
    env = env_of()
    define_x = MacroDirective("define", "X", "1")
    env2 = apply_directives(env, [define_x, MacroDirective("undefine", "X")])
    assert not env2.defined("X")
    env3 = apply_directives(env, [define_x, MacroDirective("define", "X", "2")])
    assert env3.lookup("X").body == "2"
    assert apply_directives(env, [MacroDirective("undefine", "ABSENT")]) == env


def test_env_immutability():
    base = env_of(A=1)
    extended = base.with_define("B", "2", "source")
    assert not base.defined("B")
    assert extended.defined("B")
    removed = extended.without("A")
    assert extended.defined("A") and not removed.defined("A")
    assert len(extended) == 2


def test_env_chained_updates_leave_every_env_as_it_was():
    # A hundred chained with_define and without calls, each of which copies
    # the table: every intermediate environment must stay as it was.
    envs = [MacroEnv.empty()]
    for i in range(100):
        env = envs[-1].with_define(f"M{i}", str(i), "source")
        envs.append(env.without(f"M{i - 1}") if i % 3 == 0 else env)
    for i, env in enumerate(envs):
        expected = {f"M{j}" for j in range(i) if not (j + 1 < i and (j + 1) % 3 == 0)}
        assert {d.name for d in env.definitions()} == expected
        assert len(env) == len(expected)
        assert all(env.defined(name) and name in env for name in expected)
    assert envs[-1].without("ABSENT") is envs[-1]
    assert envs[-1] == MacroEnv({d.name: d for d in envs[-1].definitions()})


def test_env_never_aliases_its_input():
    table = {"A": MacroDefinition("A", "1", "command-line")}
    env = MacroEnv(table)
    snapshot = MacroEnv(dict(table))
    table["B"] = MacroDefinition("B", "2", "command-line")
    del table["A"]
    assert env == snapshot and env.defined("A") and not env.defined("B")
    directives = [
        MacroDirective("define", "A", "2"),
        MacroDirective("define", "C", "3"),
        MacroDirective("undefine", "A"),
    ]
    assert apply_directives(env, directives) != env
    assert env.with_define("A", "9", "source").lookup("A").body == "9"
    assert not env.without("A").defined("A")
    source = "#undef A\n#define D 1\n#if defined(D) && !defined(A)\nx\n#endif\n"
    report = active_branches(env, source)
    assert report.retained_text.endswith("x\n")
    assert env == snapshot and env.lookup("A").body == "1" and len(env) == 1


def test_invocation_macro_env(profile):
    inv = parse_invocation(["-DFOO=2", "-O2", "-U__GNUC__"], env={}, profile=profile)
    env = invocation_macro_env(inv)
    assert env.lookup("FOO").body == "2"
    assert env.lookup("FOO").provenance == "command-line"
    assert env.defined("__OPTIMIZE__")
    assert not env.defined("__GNUC__")


# --- expression evaluation -----------------------------------------------------


def test_eval_discrimination_examples(profile):
    env = env_of()  # no __GNUC__
    assert eval_condition(env, "defined(__GNUC__) && defined(__OPTIMIZE__)") == 0
    env = env_of(__STDC_VERSION__="201710L")
    assert eval_condition(env, "__STDC_VERSION__ % 4") == 2
    env = env_of(__STDC_HOSTED__="1")
    assert eval_condition(env, "!defined(__STDC_HOSTED__) || __STDC_HOSTED__ == 0") == 0


@pytest.mark.parametrize(
    "expr,expected",
    [
        ("1 + 2 * 3", 7),
        ("2 * 3 % 4", 2),
        ("1 << 2 + 3", 32),
        ("0x10 >> 1 >> 1", 4),
        ("1 < 2 == 1", 1),
        ("1 | 2 ^ 3 & 5", 3),
        ("4 - 3 - 1", 0),
        ("1 ? 0 : 1 ? 2 : 3", 0),
        ("0 ? 0 : 1 ? 2 : 3", 2),
        ("!5", 0),
        ("!!5", 1),
        ("~0", -1),
        ("010", 8),
        ("0xff", 255),
        ("7 / -2", -3),
        ("7 % -2", 1),
        ("-7 % 2", -1),
        ("-1 < 0u", 0),
        ("-1 > 0u", 1),
        ("1 << 63", -(2**63)),
        ("1u << 63", 2**63),
        ("-1 >> 1", -1),
        ("(0u - 1) >> 1", 2**63 - 1),
        ("-(-9223372036854775807 - 1)", -(2**63)),
        ("1 ? -1 : 0u", 2**64 - 1),
        ("18446744073709551615u", 2**64 - 1),
        ("9223372036854775808", 2**63),  # unsuffixed but beyond signed max
    ],
)
def test_eval_arithmetic(expr, expected):
    assert eval_condition(env_of(), expr) == expected


def test_eval_short_circuit_skips_errors():
    env = env_of()
    assert eval_condition(env, "0 && 1/0") == 0
    assert eval_condition(env, "1 || 1/0") == 1
    assert eval_condition(env, "1 ? 2 : 1/0") == 2
    assert eval_condition(env, "0 ? 1/0 : 3") == 3


@pytest.mark.parametrize(
    "expr", ["1/0", "1%0", "1 << 64", "1 << -1", "3 >> 64"]
)
def test_eval_arithmetic_errors(expr):
    with pytest.raises(ExprEvalError):
        eval_condition(env_of(), expr)


@pytest.mark.parametrize(
    "expr",
    ["", "1 +", "(1", "1)", "??", "'a'", '"s"', "0x", "08", "1 2",
     "defined", "defined(X", "1 ? 2", "@"],
)
def test_eval_syntax_errors(expr):
    with pytest.raises(ExprSyntaxError):
        eval_condition(env_of(), expr)


def test_defined_forms():
    env = env_of(X=1)
    assert eval_condition(env, "defined(X)") == 1
    assert eval_condition(env, "defined X") == 1
    assert eval_condition(env, "defined ( X )") == 1
    assert eval_condition(env, "defined(Y)") == 0
    assert eval_condition(env, "defined Y") == 0


def test_macro_expansion():
    env = env_of(X="Y", Y="3")
    assert eval_condition(env, "X") == 3
    assert eval_condition(env, "X + 1") == 4
    # Self reference is hidden during its own expansion, so the inner
    # X stays an identifier and evaluates to 0.
    env = env_of(X="X + 1")
    assert eval_condition(env, "X") == 1
    assert eval_condition(env_of(), "UNKNOWN_NAME") == 0
    assert eval_condition(env_of(), "UNKNOWN_NAME + 2") == 2


def test_deep_expressions_evaluate():
    env = env_of()
    assert eval_condition(env, "(" * 2000 + "1" + ")" * 2000) == 1
    assert eval_condition(env, "!" * 5000 + "0") == 0
    assert eval_condition(env, "!" * 5001 + "0") == 1
    assert eval_condition(env, "-" * 3001 + "1") == -1
    assert eval_condition(env, "1 ? " * 2000 + "7" + " : 0" * 2000) == 7
    assert eval_condition(env, "0 && " + "(" * 2000 + "1/0" + ")" * 2000) == 0
    assert eval_condition(env, "1" + " + 1" * 5000) == 5001
    deep = f"#if {'(' * 2000}1{')' * 2000}\nint deep;\n#endif\n"
    report = active_branches(env, deep)
    assert [(g.start_line, g.end_line, [a.taken for a in g.arms]) for g in report.groups] == [
        (1, 3, [True])
    ]
    assert report.retained_ranges == ((2, 2),)


def test_deep_macro_chain_expands():
    table = {f"M{i}": macro_env.MacroDefinition(f"M{i}", f"M{i + 1}", "source")
             for i in range(3000)}
    table["M3000"] = macro_env.MacroDefinition("M3000", "0u - 1", "source")
    assert eval_condition(MacroEnv(table), "M0") == 2**64 - 1
    source = "".join(f"#define M{i} M{i + 1}\n" for i in range(3000))
    source += "#define M3000 42\n#if M0 == 42\nyes\n#endif\n"
    (group,) = active_branches(env_of(), source).groups
    assert group.arms[0].taken is True


def test_multiplying_expansion_stops_at_the_cap():
    # A0 expands to 2**40 tokens.
    source = "".join(f"#define A{i} A{i + 1} A{i + 1}\n" for i in range(40))
    source += "#if A0\n#endif\n"
    with pytest.raises(ExprEvalError, match=f"line 41: .*{macro_env.MAX_EXPANSION_TOKENS}"):
        active_branches(env_of(), source)
    # Bodies that expand to nothing are counted too.
    source = "".join(f"#define E{i} E{i + 1} E{i + 1}\n" for i in range(40))
    source += "#define E40\n#if 1 + E0\n#endif\n"
    with pytest.raises(ExprEvalError):
        active_branches(env_of(), source)
    # A quarter of the cap still evaluates: B0 takes 4 * 2**depth - 3 body tokens.
    depth = macro_env.MAX_EXPANSION_TOKENS.bit_length() - 5
    source = "".join(f"#define B{i} B{i + 1} + B{i + 1}\n" for i in range(depth))
    source += f"#define B{depth} 1\n#if B0 == {2 ** depth}\nyes\n#endif\n"
    assert active_branches(env_of(), source).retained_text.endswith("yes\n")


def test_function_like_macros():
    env = MacroEnv.empty().with_define("F", "(x) ((x) + 1)", "source", function_like=True)
    with pytest.raises(UnsupportedMacroError):
        eval_condition(env, "F(2)")
    # The bare name without an argument list is not an invocation.
    assert eval_condition(env, "F") == 0
    assert eval_condition(env, "defined(F)") == 1


def test_function_like_command_line_defines(profile):
    env = invocation_macro_env(parse_invocation(["-DF(x)=x+1", "-DG(a,b)"], env={}, profile=profile))
    # The bodies a source "#define F(x) x+1" and "#define G(a,b)" get.
    assert env.lookup("F") == MacroDefinition("F", "(x) x+1", "command-line", True)
    assert env.lookup("G") == MacroDefinition("G", "(a,b) 1", "command-line", True)
    assert eval_condition(env, "defined(F) && defined G") == 1
    with pytest.raises(UnsupportedMacroError):
        eval_condition(env, "F(1)")
    env = invocation_macro_env(parse_invocation(["-DF(x)=1", "-UF"], env={}, profile=profile))
    assert "F" not in env


# --- differential oracle -----------------------------------------------------

U64 = 2**64


class OracleEvalError(Exception):
    pass


def _wrap(raw, unsigned):
    if unsigned:
        return raw % U64
    raw %= U64
    return raw - U64 if raw >= U64 // 2 else raw


def _sign_of(node, table):
    kind = node[0]
    if kind == "num":
        return node[2]
    if kind == "name":
        return table[node[1]][1] if node[1] in table else False
    if kind == "defined":
        return False
    if kind == "unary":
        return False if node[1] == "!" else _sign_of(node[2], table)
    if kind == "binary":
        op = node[1]
        if op in ("&&", "||", "<", ">", "<=", ">=", "==", "!="):
            return False
        if op in ("<<", ">>"):
            return _sign_of(node[2], table)
        return _sign_of(node[2], table) or _sign_of(node[3], table)
    if kind == "ternary":
        return _sign_of(node[2], table) or _sign_of(node[3], table)
    raise AssertionError(kind)


def _oracle(node, table):
    kind = node[0]
    if kind == "num":
        return node[1], node[2]
    if kind == "name":
        return table.get(node[1], (0, False))
    if kind == "defined":
        return (1 if node[1] in table else 0), False
    if kind == "unary":
        op, sub = node[1], node[2]
        v, u = _oracle(sub, table)
        if op == "!":
            return int(v == 0), False
        if op == "+":
            return v, u
        return _wrap(-v if op == "-" else ~v, u), u
    if kind == "binary":
        op, a, b = node[1], node[2], node[3]
        if op in ("&&", "||"):
            va, _ = _oracle(a, table)
            if op == "&&" and va == 0:
                return 0, False
            if op == "||" and va != 0:
                return 1, False
            vb, _ = _oracle(b, table)
            return int(vb != 0), False
        va, ua = _oracle(a, table)
        vb, ub = _oracle(b, table)
        if op in ("<<", ">>"):
            if vb < 0 or vb >= 64:
                raise OracleEvalError("shift count")
            raw = va << vb if op == "<<" else va >> vb
            return _wrap(raw, ua), ua
        u = ua or ub
        if u:
            va %= U64
            vb %= U64
        if op in ("<", ">", "<=", ">=", "==", "!="):
            import operator

            table_ops = {
                "<": operator.lt, ">": operator.gt, "<=": operator.le,
                ">=": operator.ge, "==": operator.eq, "!=": operator.ne,
            }
            return int(table_ops[op](va, vb)), False
        if op in ("/", "%") and vb == 0:
            raise OracleEvalError("division by zero")
        if op == "+":
            raw = va + vb
        elif op == "-":
            raw = va - vb
        elif op == "*":
            raw = va * vb
        elif op == "/":
            q = abs(va) // abs(vb)
            raw = -q if (va < 0) != (vb < 0) else q
        elif op == "%":
            q = abs(va) // abs(vb)
            q = -q if (va < 0) != (vb < 0) else q
            raw = va - q * vb
        elif op == "&":
            raw = va & vb
        elif op == "^":
            raw = va ^ vb
        else:
            raw = va | vb
        return _wrap(raw, u), u
    if kind == "ternary":
        vc, _ = _oracle(node[1], table)
        u = _sign_of(node[2], table) or _sign_of(node[3], table)
        v, _ = _oracle(node[2] if vc else node[3], table)
        return (v % U64 if u else v), u
    raise AssertionError(kind)


def _expression_text(node):
    kind = node[0]
    if kind == "num":
        return f"{node[1]}U" if node[2] else str(node[1])
    if kind == "name":
        return node[1]
    if kind == "defined":
        return f"defined({node[1]})"
    if kind == "unary":
        return f"{node[1]}({_expression_text(node[2])})"
    if kind == "binary":
        return f"({_expression_text(node[2])}) {node[1]} ({_expression_text(node[3])})"
    return f"({_expression_text(node[1])}) ? ({_expression_text(node[2])}) : ({_expression_text(node[3])})"


_NAMES = ("A", "B", "C", "__D")
_names = st.sampled_from(_NAMES)
_numbers = st.one_of(
    st.tuples(st.just("num"), st.integers(0, 2**63 - 1), st.just(False)),
    st.tuples(st.just("num"), st.integers(0, 2**64 - 1), st.just(True)),
)
_leaves = st.one_of(
    _numbers,
    st.tuples(st.just("name"), _names),
    st.tuples(st.just("defined"), _names),
)
_unary_ops = st.sampled_from(["!", "-", "+", "~"])
_binary_ops = st.sampled_from(
    ["+", "-", "*", "/", "%", "<<", ">>", "<", ">", "<=", ">=",
     "==", "!=", "&", "^", "|", "&&", "||"]
)


def _extend(children):
    return st.one_of(
        st.tuples(st.just("unary"), _unary_ops, children),
        st.tuples(st.just("binary"), _binary_ops, children, children),
        st.tuples(st.just("ternary"), children, children, children),
    )


_exprs = st.recursive(_leaves, _extend, max_leaves=12)
_envs = st.dictionaries(
    _names,
    st.one_of(
        st.tuples(st.integers(0, 2**63 - 1), st.just(False)),
        st.tuples(st.integers(0, 2**64 - 1), st.just(True)),
    ),
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(_exprs, _envs)
def test_eval_condition_matches_oracle(node, table):
    env = MacroEnv.empty()
    for name, (v, u) in table.items():
        env = env.with_define(name, f"{v}U" if u else str(v), "command-line")
    text = _expression_text(node)
    try:
        expected_value, expected_unsigned = _oracle(node, table)
    except OracleEvalError:
        with pytest.raises(ExprEvalError):
            eval_condition(env, text)
        return
    got = eval_condition(env, text)
    assert got == (expected_value % U64 if expected_unsigned else expected_value)


# Each wrapper puts a primary expression one level deeper, and says what it
# does to the (value, unsigned) pair.
_WRAPPERS = {
    "!{}": lambda v, u: (int(v == 0), False),
    "-{}": lambda v, u: (_wrap(-v, u), u),
    "~{}": lambda v, u: (_wrap(~v, u), u),
    "+{}": lambda v, u: (v, u),
    "({})": lambda v, u: (v, u),
    "(0 || {})": lambda v, u: (int(v != 0), False),
    "(1 && {})": lambda v, u: (int(v != 0), False),
    "(1 ? {} : 0)": lambda v, u: (v % U64 if u else v, u),
    "(0 ? 1/0 : {})": lambda v, u: (v % U64 if u else v, u),
    "({} * 1)": lambda v, u: (v, u),
}


@settings(max_examples=60, deadline=None)
@given(
    _exprs,
    _envs,
    st.lists(st.tuples(st.sampled_from(sorted(_WRAPPERS)), st.integers(0, 1500)), max_size=4),
)
def test_deep_expressions_match_oracle(node, table, layers):
    env = MacroEnv.empty()
    for name, (v, u) in table.items():
        env = env.with_define(name, f"{v}U" if u else str(v), "command-line")
    try:
        value, unsigned = _oracle(node, table)
    except OracleEvalError:
        return
    text = f"({_expression_text(node)})"
    for wrapper, depth in layers:
        prefix, _, suffix = wrapper.partition("{}")
        text = prefix * depth + text + suffix * depth
        for _ in range(depth):
            value, unsigned = _WRAPPERS[wrapper](value, unsigned)
    assert eval_condition(env, text) == value


# --- branch reports ------------------------------------------------------------


def test_dispatch_table_optimized(dispatch_source, profile):
    inv = parse_invocation(["-O2"], env={}, profile=profile)
    report = active_branches(invocation_macro_env(inv), dispatch_source)
    (group,) = report.groups
    assert group.evaluated
    assert [a.taken for a in group.arms] == [True, False]
    assert "goto *dispatch_table" in report.retained_text
    assert "switch (*pc++)" not in report.retained_text


def test_dispatch_table_unoptimized(dispatch_source, profile):
    inv = parse_invocation([], env={}, profile=profile)
    report = active_branches(invocation_macro_env(inv), dispatch_source)
    (group,) = report.groups
    assert [a.taken for a in group.arms] == [False, True]
    assert "switch (*pc++)" in report.retained_text
    assert "goto *dispatch_table" not in report.retained_text


def test_no_directives_single_region():
    source = "int x;\nint y;\nint z;\n"
    report = active_branches(env_of(), source)
    assert report.groups == ()
    assert report.retained_ranges == ((1, 3),)
    assert report.retained_text == source


def test_elif_chain_stops_evaluating_after_taken_arm():
    source = "#if 1\na\n#elif 1/0\nb\n#else\nc\n#endif\n"
    report = active_branches(env_of(), source)
    (group,) = report.groups
    assert [a.taken for a in group.arms] == [True, False, False]
    assert report.retained_text == "a\n"


def test_elif_selects_first_true():
    source = "#if 0\na\n#elif 2\nb\n#elif 3\nc\n#endif\n"
    report = active_branches(env_of(), source)
    (group,) = report.groups
    assert [a.taken for a in group.arms] == [False, True, False]
    assert report.retained_text == "b\n"


def test_inactive_groups_not_evaluated():
    # The inner condition is not even valid; inactive regions are
    # skipped without evaluation, as a preprocessor would.
    source = "#if 0\n#if garbage(\nx\n#endif\n#endif\n"
    report = active_branches(env_of(), source)
    assert len(report.groups) == 2
    inner = next(g for g in report.groups if not g.evaluated)
    assert all(a.taken is None for a in inner.arms)
    assert report.retained_text == ""


def test_nested_conditionals():
    source = (
        "#if 1\n"
        "outer\n"
        "#if 0\n"
        "hidden\n"
        "#else\n"
        "inner\n"
        "#endif\n"
        "#endif\n"
    )
    report = active_branches(env_of(), source)
    assert report.retained_text == "outer\ninner\n"
    assert report.retained_ranges == ((2, 2), (6, 6))


def test_source_defines_affect_later_conditions():
    source = "#define X 1\n#if X\nyes\n#endif\n"
    report = active_branches(env_of(), source)
    assert report.retained_text == "#define X 1\nyes\n"
    source = "#define X 1\n#undef X\n#if X\nyes\n#endif\n"
    report = active_branches(env_of(), source)
    assert "yes" not in report.retained_text


def test_defines_in_untaken_arms_do_not_leak():
    source = "#if 0\n#define X 1\n#endif\n#if defined(X)\nleaked\n#endif\n"
    report = active_branches(env_of(), source)
    assert "leaked" not in report.retained_text


def test_line_continuations_in_directives():
    source = "#if 0 || \\\n    1\ntaken\n#endif\n"
    report = active_branches(env_of(), source)
    (group,) = report.groups
    assert group.arms[0].taken is True
    assert report.retained_text == "taken\n"


def test_comments_stripped_before_scanning():
    source = "/* #if 0 */\nint x;\n#/* c */if 1\ny\n#endif\n"
    report = active_branches(env_of(), source)
    (group,) = report.groups
    assert group.arms[0].taken is True
    assert "int x;" in report.retained_text and "y" in report.retained_text


def test_block_comment_hides_directives():
    source = "/*\n#if 0\n*/\nkept\n"
    report = active_branches(env_of(), source)
    assert report.groups == ()
    assert "kept" in report.retained_text


def test_string_literals_shield_comment_markers():
    source = 'const char *s = "/* not a comment";\n'
    report = active_branches(env_of(), source)
    assert report.retained_text == source


def test_structure_errors():
    with pytest.raises(ConditionalStructureError):
        active_branches(env_of(), "#endif\n")
    with pytest.raises(ConditionalStructureError):
        active_branches(env_of(), "#else\n")
    with pytest.raises(ConditionalStructureError):
        active_branches(env_of(), "#if 1\n#else\n#elif 2\n#endif\n")
    with pytest.raises(ConditionalStructureError):
        active_branches(env_of(), "#if 1\n#else\n#else\n#endif\n")
    err = None
    try:
        active_branches(env_of(), "int a;\n#if 1\n")
    except ConditionalStructureError as exc:
        err = exc
    assert err is not None and err.line == 2
    with pytest.raises(ConditionalStructureError):
        active_branches(env_of(), "/* never closed\n")


def test_condition_errors_carry_line_numbers():
    with pytest.raises(ExprEvalError) as err:
        active_branches(env_of(), "ok\n#if 1/0\nx\n#endif\n")
    assert "line 2" in str(err.value)


def test_all_false_env_keeps_front_matter_and_else():
    source = "front\n#if A\nthen\n#else\nalt\n#endif\ntail\n"
    report = active_branches(env_of(), source)
    assert report.retained_text == "front\nalt\ntail\n"
    starts = [r[0] for r in report.retained_ranges]
    assert starts == sorted(starts)
    for (_, end_a), (start_b, _) in zip(report.retained_ranges, report.retained_ranges[1:]):
        assert end_a < start_b


def test_many_distinct_defines():
    n = 32_000
    source = "".join(f"#define D{i} {i}\n" for i in range(n))
    source += f"#if D{n - 1} == {n - 1} && defined(D0)\nlast\n#else\nwrong\n#endif\n"
    report = active_branches(env_of(), source)
    (group,) = report.groups
    assert [a.taken for a in group.arms] == [True, False]
    assert report.retained_ranges == ((1, n), (n + 2, n + 2))


def test_ifdef_and_ifndef():
    env = env_of(PRESENT=1)
    report = active_branches(env, "#ifdef PRESENT\na\n#endif\n#ifndef PRESENT\nb\n#endif\n")
    assert report.retained_text == "a\n"
    report = active_branches(env, "#ifdef MISSING\na\n#endif\n#ifndef MISSING\nb\n#endif\n")
    assert report.retained_text == "b\n"
    with pytest.raises(ConditionalStructureError):
        active_branches(env, "#ifdef\n#endif\n")



def test_ifdef_ifndef_and_undef_read_the_first_macro_name():
    # GCC tests the first identifier and only warns about the tokens after
    # it; "$" is an identifier character.
    env = env_of(A=1)
    source = "#ifdef A B\na\n#endif\n#ifndef C(x)\nc\n#endif\n#undef A B\n#ifdef A\nz\n#endif\n"
    report = active_branches(env, source)
    assert report.retained_text == "a\nc\n#undef A B\n"
    assert [a.condition for g in report.groups for a in g.arms] == ["A", "C", "A"]
    report = active_branches(env_of(), "#define A$B 3\n#ifdef A\nx\n#endif\n#ifdef A$B\ny\n#endif\n")
    assert report.retained_text == "#define A$B 3\ny\n"
    assert eval_condition(env_of(**{"A$B": 3}), "A$B == 3") == 1


#: Directive names GCC does not know, on the line given: a name the scan
#: reads followed by more identifier characters, any other identifier, or a
#: first token that is neither an identifier nor a number: a punctuator or
#: a literal.
_INVALID_DIRECTIVES = [
    ("#foo\n", 1, "#foo"),
    ("a\n# foo bar\n", 2, "#foo"),
    ("#if 1\n#defin X\n#endif\n", 2, "#defin"),
    ("#$x\n", 1, "#$x"),
    ("#if$x\n#endif\n", 1, "#if$x"),
    ("#define$x 1\n", 1, "#define$x"),
    ("#if 1\n#endif$\n#endif\n", 2, "#endif$"),
    ("#if 1\n#else$\n#endif\n", 2, "#else$"),
    ("a\n  #  ifdef$ A\n#endif\n", 2, "#ifdef$"),
    ("#if 0\n#else\n/* c */ #undefx\n#endif\n", 3, "#undefx"),
    ("#ifx\n", 1, "#ifx"),
    ("#if 1\n#elif$ 0\n#endif\n", 2, "#elif$"),
    ("#!x\n", 1, "#!"),
    ("a\n#(\n", 2, "#("),
    ("#if 1\n#.\n#endif\n", 2, "#."),
    ("#if 1\n#\0.\n#endif\n", 2, "#."),
    ("# +\n", 1, "#+"),
    ('#"a"\n', 1, '#"a"'),
    ("#'a'\n", 1, "#'a'"),
    ("#/* c */!= x\n", 1, "#!="),
    ("#++\n", 1, "#++"),
    ('#L"a"\n', 1, '#L"a"'),
]


#: #define and #undef lines that GCC 12.2 rejects for their name, parameter
#: list or body, each on the line given, with GCC's reason.
_REJECTED_DEFINITIONS = [
    ("#define F(x) #y\n", 1, "'#' is not followed by a macro parameter"),
    ("a\n#define F(x,x) 1\n", 2, 'duplicate macro parameter "x"'),
    ("#define F(x 1\n", 1, "expected ',' or ')', found \"1\""),
    ("#if 1\n#define A ## B\n#endif\n", 2, "'##' cannot appear at either end of a macro expansion"),
    ("#define A B ##\n", 1, "'##' cannot appear at either end of a macro expansion"),
    ("#define F(x) x ##\n", 1, "'##' cannot appear at either end of a macro expansion"),
    ("#define defined 1\n", 1, '"defined" cannot be used as a macro name'),
    ("x\ny\n#undef defined\n", 3, '"defined" cannot be used as a macro name'),
    ("#define F(x,) 1\n", 1, 'expected parameter name, found ")"'),
    ("#define F(... x) 1\n", 1, "expected ')' after \"...\""),
    ("#define F(\n", 1, "expected parameter name before end of line"),
    ("#define F(x\n", 1, "expected ')' before end of line"),
]
#: Line markers GCC 12.2 rejects, each on the line given, with GCC's reason:
#: a number that is no digit sequence, a file name that is no plain string
#: literal (a function-like macro is not expanded) and flags out of order.
_REJECTED_LINE_MARKERS = [
    ("#0x\n", 1, '"0x" after # is not a positive integer'),
    ("#if 1\n#1.5\n#endif\n", 2, '"1.5" after # is not a positive integer'),
    ("#2x\n", 1, '"2x" after # is not a positive integer'),
    ("a\n#.5\n", 2, '".5" after # is not a positive integer'),
    ("# 3 <\n", 1, '"<" is not a valid filename'),
    ("#3}\n", 1, '"}" is not a valid filename'),
    ("# 5 x\n", 1, '"x" is not a valid filename'),
    ('# 5 L"f.c"\n', 1, '"L"f.c"" is not a valid filename'),
    ('# 5 "f\n', 1, '""f" is not a valid filename'),
    ('#define F(x) "f.c"\n# 5 F\n', 2, '"F" is not a valid filename'),
    ('# 5 "f.c" 9\n', 1, 'invalid flag "9" in line directive'),
    ('# 5 "f.c" 4\n', 1, 'invalid flag "4" in line directive'),
    ('# 5 "f.c" 1 1\n', 1, 'invalid flag "1" in line directive'),
    ('# 5 "f.c" 2 1\n', 1, 'invalid flag "1" in line directive'),
]


@pytest.mark.parametrize("source,message", [
    ("#ifdef\n#endif\n", "line 1: no macro name given in #ifdef directive"),
    ("x\n#ifndef 3x\n#endif\n", "line 2: macro names must be identifiers"),
    ('#ifdef L"s"\n#endif\n', "line 1: macro names must be identifiers"),
    ("#undef\n", "line 1: no macro name given in #undef directive"),
    ("a\nb\n#undef (x)\n", "line 3: macro names must be identifiers"),
    ("#if 1\n#else\n#define 3x\n#endif\n#define\n", "line 5: malformed #define"),
    ("#if 1\n\n#define L'x'\n#endif\n", "line 3: malformed #define"),
    *((source, f"line {line}: invalid preprocessing directive {name}")
      for source, line, name in _INVALID_DIRECTIVES),
    *((source, f"line {line}: {reason}")
      for source, line, reason in _REJECTED_DEFINITIONS + _REJECTED_LINE_MARKERS),
])
def test_active_directive_operands_gcc_rejects_are_errors(source, message):
    with pytest.raises(ConditionalStructureError) as err:
        active_branches(env_of(), source)
    assert str(err.value) == message


@pytest.mark.gcc
@pytest.mark.parametrize("source,line,name", _INVALID_DIRECTIVES)
def test_invalid_directive_names_are_gcc_errors(source, line, name):
    status, _, stderr = pp(source)
    assert status != 0
    assert re.search(rf"^<stdin>:{line}:\d+: error: invalid preprocessing directive "
                     rf"{re.escape(name)}$", stderr, re.M)


#: Directive lines GCC 12.2 accepts that the scan keeps as text: directives
#: it knows besides the conditional ones, #define and #undef, line markers
#: and the null directive.
_KEPT_DIRECTIVE_LINES = [
    "#pragma once", '#ident "x"', '#sccs "x"', "#line 5", '# 5 "f.c"', "#", "#123",
    "#warning w", "#assert a(b)", "#unassert a", "#0", '# 5 "f.c" 1 3 4', "#9999999999",
]


def test_a_directive_named_by_a_non_ascii_letter_is_an_error():
    # GCC reads "é" as an identifier and names it "#\U000000e9"; the model
    # reads no UTF-8 identifier, so only the error is pinned here.
    with pytest.raises(ConditionalStructureError, match="^line 2: invalid preprocessing directive"):
        active_branches(env_of(), "#if 1\n#é\n#endif\n")


@pytest.mark.parametrize("line", _KEPT_DIRECTIVE_LINES)
def test_known_directive_lines_are_kept_as_text(line):
    source = f"#if 1\n{line}\n#endif\n"
    assert active_branches(env_of(), source).retained_text == line + "\n"


@pytest.mark.gcc
@pytest.mark.parametrize("line", _KEPT_DIRECTIVE_LINES)
def test_kept_directive_lines_are_gcc_accepted(line):
    status, _, stderr = pp(f"#if 1\n{line}\n#endif\n")
    assert status == 0, stderr
    assert "error" not in stderr


@pytest.mark.gcc
@pytest.mark.parametrize("source,line,reason", _REJECTED_DEFINITIONS + _REJECTED_LINE_MARKERS)
def test_rejected_definitions_are_gcc_errors(source, line, reason):
    status, _, stderr = pp(source)
    assert status != 0
    assert re.search(rf"^<stdin>:{line}:\d+: error: {re.escape(reason)}$", stderr, re.M)


def test_a_nul_is_white_space_and_retained_as_written():
    source = "a\0b\n#if\0 1\0\nc\0\n#endif\n#\0define A 1\n"
    report = active_branches(env_of(), source)
    assert report.retained_text == "a\0b\nc\0\n#\0define A 1\n"
    assert report.groups[0].arms[0].condition == "1"
    assert active_branches(env_of(), source + "#ifdef A\nd\n#endif\n").retained_text.endswith("d\n")


def test_skipped_groups_are_read_only_for_directive_names():
    # Inside a skipped group no operand is read, so an operand GCC would
    # reject in an active region is no error; the arm's condition is the
    # operand as written.
    source = (
        "#if 0\n#ifdef 3x\n#endif\n#ifndef\n#undef 3\n#define\n#if$x\n#endif$\n#!x\n#'a'\n#endif\n"
        "#elif 0\n#endif\nkept\n"
    )
    report = active_branches(env_of(), source)
    assert report.retained_text == "kept\n"
    inner = [g.arms[0] for g in report.groups if not g.evaluated]
    assert [(a.kind, a.condition, a.taken) for a in inner] == [
        ("ifdef", "3x", None), ("ifndef", "", None)
    ]


@pytest.mark.parametrize("call,error,message", [
    (lambda: eval_condition(env_of(), "1 + @"), ExprSyntaxError,
     "unexpected character '@' in expression"),
    (lambda: eval_condition(env_of(), "'a' == 97"), ExprSyntaxError,
     "string and character constants are not supported in expression"),
    (lambda: eval_condition(env_of(X='"s"'), "X"), ExprSyntaxError,
     "string and character constants are not supported in body of macro 'X'"),
    (lambda: eval_condition(env_of(X="1 @"), "1 || X"), ExprSyntaxError,
     "unexpected character '@' in body of macro 'X'"),
    (lambda: eval_condition(env_of(), "1 +"), ExprSyntaxError, "unexpected end of expression"),
    (lambda: eval_condition(env_of(), "1 )"), ExprSyntaxError,
     "unexpected token ')' after expression"),
    (lambda: eval_condition(env_of(), "1$ == 1"), ExprSyntaxError,
     "invalid integer constant '1$'"),
    (lambda: active_branches(env_of(), "a\n#if 1\n#elif 2 +\n#endif\n#if 1 +\n#endif\n"),
     ExprSyntaxError, "line 5: unexpected end of expression"),
    (lambda: active_branches(env_of(X="@"), "a\n\\\n#if X\n#endif\n"), ExprSyntaxError,
     "line 2: unexpected character '@' in body of macro 'X'"),
    (lambda: active_branches(env_of(), "#if 0\n#elif 1 % 0\n#endif\n"), ExprEvalError,
     "line 2: division by zero in conditional expression"),
])
def test_evaluator_error_texts(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


# --- -D/-U words and header lines, read by one grammar --------------------------

#: Pieces of -D/-U text: names ("L" may open a wide literal, and "defined" is
#: no macro name), parameter lists, malformed ones among them, "=", "#",
#: "##", comments, literals and white space.
_OPERAND_PIECES = st.sampled_from([
    "A", "F", "L", "x", "defined", "9", "$", "(x)", "(x,x)", "(x", "()", "(...)", "(x, ...)",
    "(x...)", "(,)", "(x,)", "(... x)", "=", "=", " ", "#", "##", "/*c*/", "//c", "/*", '"#"',
    'L"', "'", "1", "__VA_ARGS__",
])
_OPERAND_TEXTS = st.lists(_OPERAND_PIECES, max_size=6).map("".join)
_UNDEF_NAMES = ("A", "F", "L", "x", "defined", "$")


def _defined_by_option(option, text, env):
    """What the -D or -U word with ``text`` makes of ``env``: each
    definition as (name, function_like, body), or None for an input
    error."""
    try:
        directive = _macro_directive(option, text)
    except InvocationError:
        return None
    return [(d.name, d.function_like, d.body) for d in apply_directives(env, [directive]).definitions()]


def _defined_by_header(line, env):
    """What the header line ``line`` makes of ``env``, as active_branches
    reads it, in the form of :func:`_defined_by_option`.  Lines that
    ``#ifdef`` the names of ``_UNDEF_NAMES`` follow it, so that the names
    it leaves defined are retained."""
    made = []

    def record(*fields):
        made.append(MacroDefinition(*fields))
        return made[-1]

    tests = "".join(f"#ifdef {name}\n{name}\n#endif\n" for name in _UNDEF_NAMES)
    try:
        with mock.patch.object(macro_env, "MacroDefinition", record):
            report = active_branches(env, f"{line}\n{tests}")
    except macro_env.PreprocessorError:
        return None
    kept = set(report.retained_text.split("\n")[1:])
    table = {d.name: d for d in env.definitions() if d.name in kept}
    table.update((d.name, d) for d in made)
    return [(d.name, d.function_like, d.body) for d in map(table.get, sorted(table))]


@settings(max_examples=500, deadline=None)
@given(_OPERAND_TEXTS)
def test_define_words_and_define_lines_agree(text):
    # -D<text> is the line "#define" and the text with its first "=" made a
    # space, or with " 1" added.
    line = "#define " + (text.replace("=", " ", 1) if "=" in text else text + " 1")
    assert _defined_by_option("-D", text, MacroEnv()) == _defined_by_header(line, MacroEnv())


@settings(max_examples=300, deadline=None)
@given(_OPERAND_TEXTS)
def test_undef_words_and_undef_lines_agree(text):
    env = env_of(**{name: 1 for name in _UNDEF_NAMES})
    assert _defined_by_option("-U", text, env) == _defined_by_header(f"#undef {text}", env)


# --- line and comment scanner against the character-loop oracle ---------------


def _oracle_logical_lines(physical):
    out = []
    i = 0
    while i < len(physical):
        start = i
        parts = []
        while i < len(physical) - 1 and physical[i].endswith("\\"):
            parts.append(physical[i][:-1])
            i += 1
        parts.append(physical[i])
        out.append(("".join(parts), start + 1, i + 1))
        i += 1
    return out


def _oracle_strip_comments(lines):
    """Strip comments from logical lines ``(text, start, end)``.  A block
    comment that runs past the end of a line joins it to the next, as in
    translation phase 3, so the result has one entry per joined line."""
    joined = []
    in_block = False
    block_start = 0
    for text, start, end in lines:
        if in_block:
            res, first, _ = joined.pop()
        else:
            res, first = [], start
        joined.append((res, first, end))
        i = 0
        n = len(text)
        while i < n:
            c = text[i]
            if in_block:
                if c == "*" and i + 1 < n and text[i + 1] == "/":
                    in_block = False
                    res.append(" ")
                    i += 2
                else:
                    i += 1
            elif c == "/" and i + 1 < n and text[i + 1] == "/":
                break
            elif c == "/" and i + 1 < n and text[i + 1] == "*":
                in_block = True
                block_start = start
                i += 2
            elif c in "\"'":
                quote = c
                res.append(c)
                i += 1
                while i < n:
                    res.append(text[i])
                    if text[i] == "\\" and i + 1 < n:
                        res.append(text[i + 1])
                        i += 2
                        continue
                    if text[i] == quote:
                        i += 1
                        break
                    i += 1
            else:
                res.append(c)
                i += 1
    if in_block:
        raise ConditionalStructureError("unterminated block comment", block_start)
    return [("".join(res), first, end) for res, first, end in joined]


def _oracle_scan(source):
    physical = source.split("\n")
    if physical and physical[-1] == "":
        physical.pop()
    lines = _oracle_strip_comments(_oracle_logical_lines(physical))
    return [(start, end) for _, start, end in lines], [text for text, _, _ in lines]


def _scan(source):
    text, starts = macro_env._strip_comments(*macro_env._logical_lines(source))
    n = len(starts) - 1
    extents = [(starts[k], starts[k + 1] - 1) for k in range(n)]
    return extents, text.split("\n")[:n]


_SCANNER_PIECES = st.sampled_from([
    "a", "x1", " ", "\t", "#", "#if 1", '"', "'", '\\"', "\\'", "\\", "\\\\",
    "//", "/*", "*/", "/*/", "/", "*", "\n", "\n", "\\\n", "/* c\n d */",
    '"s/*"', "'*/'", "\r", "\x0c",
])


@settings(max_examples=1000, deadline=None)
@given(st.lists(_SCANNER_PIECES, max_size=30).map("".join))
def test_scanner_matches_character_loop(source):
    try:
        expected = _oracle_scan(source)
    except ConditionalStructureError as exc:
        with pytest.raises(ConditionalStructureError) as err:
            _scan(source)
        assert err.value.line == exc.line
        return
    assert _scan(source) == expected


@pytest.mark.parametrize("source", [
    "", "\n", "\n\n", "a", "a\\", "a\\\n", "a\\\n\n", "a\\\nb\\\nc\nd",
    "a\\\\\n\nb", '"\\', '"a\\"b" // c\nd', "x /* a\n b */ y /* c */ z",
    "'/*' /* \" */ \"*/\" // '\n", "s /*/ t */ u", "a // b \\\n c\nd",
    "a /* b\n */ c /* d\n\n */ e // f\ng", "a /* b \\\n c\n */ d\ne",
])
def test_scanner_pinned_cases(source):
    assert _scan(source) == _oracle_scan(source)


@pytest.mark.parametrize("source,line", [
    ("/* never closed\n", 1),
    ("a\nb /* c */ d\n e /* f\ng\n", 3),
    ("a\\\nb\\\nc /*\n", 1),
    ("x\n/* */ /*/\n", 2),
    ("a /* b\n */ c /*\nd\n", 2),
])
def test_unterminated_block_comment_line(source, line):
    with pytest.raises(ConditionalStructureError) as err:
        _oracle_scan(source)
    assert err.value.line == line
    with pytest.raises(ConditionalStructureError) as err:
        _scan(source)
    assert err.value.line == line


# --- whole scan against a directive-by-directive reference ---------------------

_REF_DIRECTIVE = re.compile(r"[^\S\n]*#[^\S\n]*(?!L[\"'])([A-Za-z_$][\w$]*)[^\S\n]*(.*)\Z", re.S)
_REF_NAME = re.compile(r"([A-Za-z_$][\w$]*)(\(?)(.*)\Z", re.S)
_REF_CONDITIONALS = ("if", "ifdef", "ifndef", "elif", "else", "endif")
#: Names GCC 12.2 knows as directives that the scan keeps as text.
_REF_KEPT = (
    "include", "include_next", "import", "line", "error", "warning", "pragma", "ident", "sccs",
    "assert", "unassert", "elifdef", "elifndef",
)


#: Punctuators of more than one character, longest first.
_REF_PUNCTUATORS = ("...", "<<=", ">>=", "->", "++", "--", "<<", ">>", "&&", "||", "##",
                    *(c + "=" for c in "+-*/%^&|<>=!"))


def _ref_first_token(text):
    """The first token after the "#" of a directive line that names no
    directive, or None for any other line: no "#" (or "##", one token)
    first, an identifier, a line marker or the end of the line (a
    backslash ending the file included) after it."""
    rest = text.lstrip()
    if not rest.startswith("#") or rest.startswith("##"):
        return None
    rest = rest[1:].lstrip()
    if rest in ("", "\\") or re.match(r"\.?[0-9]", rest) or _REF_DIRECTIVE.match("#" + rest):
        return None
    # An "L" here prefixes a literal: the identifier check took any other.
    start = 1 if rest[0] == "L" else 0
    if rest[start] in "\"'":
        i = start + 1
        while i < len(rest) and rest[i] != rest[start]:
            i += 2 if rest[i] == "\\" else 1
        return rest[: i + 1]
    return next((p for p in _REF_PUNCTUATORS if rest.startswith(p)), rest[0])


def _ref_tokens(rest):
    """The tokens of ``rest``, one character at a time, and whether its last
    literal, if any, is closed."""
    tokens, i, closed = [], 0, True
    word = set(string.ascii_letters + string.digits + "_$")
    while i < len(rest):
        c, j = rest[i], i + 1
        if c.isspace():
            i = j
            continue
        if c in "\"'" or c == "L" and rest[j : j + 1] in ("'", '"'):
            j += c == "L"
            quote = rest[j - 1]
            while j < len(rest) and rest[j] != quote:
                j += 2 if rest[j] == "\\" else 1
            closed, j = j < len(rest), j + 1
        elif c.isdigit() or c == "." and rest[j : j + 1].isdigit():
            while j < len(rest) and (rest[j] in word or rest[j] == "."
                                     or rest[j] in "+-" and rest[j - 1] in "eEpP"):
                j += 1
        elif c in word:
            while j < len(rest) and rest[j] in word:
                j += 1
        else:
            j += len(next((p for p in _REF_PUNCTUATORS if rest.startswith(p, i)), c)) - 1
        tokens.append(rest[i:j])
        i = j
    return tokens, closed


def _ref_line_marker_error(text, table):
    """GCC's reason to reject the line marker ``text``, or None where it is
    none or GCC accepts it, as libcpp's do_linemarker and read_flag read it:
    a line number, then a plain string, which an object-like macro or a
    built-in string macro may give, then flags."""
    m = re.match(r"\s*#\s*(?=\.?[0-9])", text)
    if m is None:
        return None
    # GCC drops a backslash that ends the file; it ends no other line.
    tokens, closed = _ref_tokens(text[m.end() :].removesuffix("\\"))
    if not tokens[0].isdigit() or not tokens[0].isascii():
        return f'"{tokens[0]}" after # is not a positive integer'
    if len(tokens) == 1:
        return None
    name = tokens[1]
    expands = name in table and not table[name].function_like or name in (
        "__FILE__", "__FILE_NAME__", "__BASE_FILE__", "__DATE__", "__TIME__", "__TIMESTAMP__")
    if not expands and (not name.startswith('"') or len(tokens) == 2 and not closed):
        return f'"{name}" is not a valid filename'
    last = 0
    for token in tokens[2:]:
        flag = int(token) if token in ("1", "2", "3", "4") else 9
        if not (last < flag <= 4 and (flag != 4 or last == 3) and (flag != 2 or last == 0)):
            return f'invalid flag "{token}" in line directive'
        if flag == 4:
            return None
        last = flag
    return None


def _ref_name(operand):
    """The macro name ``operand`` starts with, its "(" if one follows at
    once, and the rest, or None where GCC reads no macro name."""
    m = _REF_NAME.match(operand)
    if m is None or (m[1] == "L" and not m[2] and m[3][:1] in ('"', "'")):
        return None
    return m.groups()


def _ref_name_error(kind, operand, line):
    if operand.strip():
        return ConditionalStructureError("macro names must be identifiers", line)
    return ConditionalStructureError(f"no macro name given in #{kind} directive", line)


_REF_PASTE = "'##' cannot appear at either end of a macro expansion"


def _ref_parameters(inside, closed):
    """GCC's reason to reject the parameter list ``inside`` its "(" (and its
    ")" when ``closed``), or the names a stringizing "#" may take there.
    The list is read one comma-separated item at a time."""
    names = set()
    items = inside.split(",")
    variadic = False
    for i, item in enumerate(items):
        words = re.findall(r"\.\.\.|[\w$]+|\S", item)
        if variadic:  # "..." was the last item, and a "," follows it
            return "expected ')' after \"...\""
        if not words:
            if len(items) == 1 and closed:
                return names  # "()"
            if i + 1 < len(items):
                return 'expected parameter name, found ","'
            return 'expected parameter name, found ")"' if closed else (
                "expected parameter name before end of line")
        first, rest = words[0], words[1:]
        if first == "...":
            first, variadic = "__VA_ARGS__", True
        elif not re.fullmatch(r"[A-Za-z_$][\w$]*", first):
            return f'expected parameter name, found "{first}"'
        if first in names:
            return f'duplicate macro parameter "{first}"'
        names.add(first)
        if rest[:1] == ["..."] and not variadic:
            rest, variadic = rest[1:], True
        if rest:
            if variadic:
                return "expected ')' after \"...\""
            return f"expected ',' or ')', found \"{rest[0]}\""
    if not closed:
        return "expected ')' after \"...\"" if variadic else "expected ')' before end of line"
    if variadic:
        names.add("__VA_OPT__")
    return names


def _ref_define(operand, line):
    """The definition of a #define line's ``operand``, by GCC's rules, or
    the error they give."""
    name = _ref_name(operand)
    if name is None:
        raise ConditionalStructureError("malformed #define", line)
    name, paren, rest = name
    if name == "defined":
        raise ConditionalStructureError('"defined" cannot be used as a macro name', line)
    names = None
    if paren:
        inside, close, rest = rest.partition(")")
        names = _ref_parameters(inside, bool(close))
        if isinstance(names, str):
            raise ConditionalStructureError(names, line)
    body = rest.strip()
    tokens = re.findall(r"##|#|[\w$]+|\S", body)
    if tokens[:1] == ["##"]:
        raise ConditionalStructureError(_REF_PASTE, line)
    if names is not None:
        for token, after in zip(tokens, tokens[1:] + [None]):
            if token == "#" and after not in names:
                raise ConditionalStructureError("'#' is not followed by a macro parameter", line)
    if tokens[-1:] == ["##"]:
        raise ConditionalStructureError(_REF_PASTE, line)
    if paren:
        body = f"({inside}) {body}".strip()
    return MacroDefinition(name, body, "source", function_like=bool(paren))


def _reference_branches(env, source):
    """The branch report, built one logical line at a time: every directive
    line is matched in order, #define and #undef apply only in an active
    region, and a skipped group's operands are not read."""
    extents, texts = _oracle_scan(source.replace("\0", " "))
    table = {d.name: d for d in env.definitions()}
    frames = []  # [arms, start, evaluated, taken_seen, in_else, active]
    groups, kept = [], []

    def taken_by(condition, line):
        try:
            return bool(eval_condition(MacroEnv(table), condition))
        except macro_env.PreprocessorError as exc:
            raise type(exc)(f"line {line}: {exc}") from None

    for text, (line, end) in zip(texts, extents):
        active = frames[-1][5] if frames else True
        m = _REF_DIRECTIVE.match(text)
        kind = m[1] if m else None
        if kind not in _REF_CONDITIONALS:
            if not active:
                continue
            if kind and kind not in _REF_KEPT + ("define", "undef"):
                raise ConditionalStructureError(f"invalid preprocessing directive #{kind}", line)
            if kind is None and (token := _ref_first_token(text)) is not None:
                raise ConditionalStructureError(f"invalid preprocessing directive #{token}", line)
            if kind is None and (reason := _ref_line_marker_error(text, table)) is not None:
                raise ConditionalStructureError(reason, line)
            if kept and kept[-1][1] + 1 == line:
                kept[-1] = (kept[-1][0], end)
            else:
                kept.append((line, end))
            if kind == "define":
                definition = _ref_define(m[2], line)
                table[definition.name] = definition
            elif kind == "undef":
                name = _ref_name(m[2])
                if name is None:
                    raise _ref_name_error("undef", m[2], line)
                if name[0] == "defined":
                    raise ConditionalStructureError(
                        '"defined" cannot be used as a macro name', line
                    )
                table.pop(name[0], None)
            continue
        rest = m[2].rstrip()
        if kind in ("if", "ifdef", "ifndef"):
            if not active:
                frames.append([[(kind, rest, line, None)], line, False, False, False, False])
                continue
            if kind == "if":
                condition, taken = rest, taken_by(rest, line)
            else:
                name = _ref_name(rest)
                if name is None:
                    raise _ref_name_error(kind, rest, line)
                condition = name[0]
                taken = (condition in table) == (kind == "ifdef")
            frames.append([[(kind, condition, line, taken)], line, True, taken, False, taken])
            continue
        if not frames:
            raise ConditionalStructureError(f"#{kind} without matching #if", line)
        frame = frames[-1]
        if kind == "endif":
            frames.pop()
            groups.append((tuple(frame[0]), frame[1], end, frame[2]))
            continue
        if frame[4]:
            message = "duplicate #else" if kind == "else" else "#elif after #else"
            raise ConditionalStructureError(message, line)
        condition = rest if kind == "elif" else None
        if not frame[2]:
            taken = None
        elif frame[3]:
            taken = False
        else:
            taken = True if kind == "else" else taken_by(rest, line)
        frame[0].append((kind, condition, line, taken))
        frame[3] = frame[3] or bool(taken)
        frame[4] = kind == "else"
        frame[5] = bool(taken)
    if frames:
        raise ConditionalStructureError("unterminated conditional", frames[-1][1])
    physical = source.split("\n")
    retained = [line for start, end in kept for line in physical[start - 1 : end]]
    return (
        sorted(groups, key=lambda g: g[1]),
        tuple(kept),
        "".join(line + "\n" for line in retained),
    )


def _plain_report(env, source):
    report = active_branches(env, source)
    groups = [
        (tuple(tuple(a) for a in g.arms), g.start_line, g.end_line, g.evaluated)
        for g in report.groups
    ]
    return groups, report.retained_ranges, report.retained_text


def _outcome(branches, env, source):
    """What ``branches`` makes of ``source``: its report, or the type and
    text of the error it raises."""
    try:
        return branches(env, source)
    except macro_env.PreprocessorError as exc:
        return type(exc), str(exc)


def _lines(good, bad):
    """Lines drawn from ``good`` about 15 times in 16, else from ``bad``."""
    return st.integers(0, 15).flatmap(lambda i: st.sampled_from(bad if i == 0 else good))


_SOUP_OPENERS = _lines(
    ["#if 1", "#if 0", "#if A", "#if A == 2", "#if defined(B) || C", "#if A$B", "#if B + 1 > 2",
     "#if C ? A : 0", "#ifdef A", "#ifdef B x", "#ifndef C(x)", "#ifndef A$B", "  # if 1 // c",
     "#ifdef defined", "#\0ifdef A"],
    ["#ifdef 3x", "#ifdef", "#if 1/0", "#if @", "#if", "#if C(1)", '#ifdef L"x"', "#ifndef (A)"],
)
_SOUP_ELIFS = _lines(["#elif 1", "#elif A", "#elif 0", "#elif B == 1"], ["#elif", "#elif @"])
_SOUP_PLAIN = _lines(
    ["text", "", "#define A 2", "#define A", "#define B A", "#define C(x) x", "#define A$B 3",
     "#define C 1", "#undef A", "#undef B junk", "#undef C(x)", "#pragma x", "#elifdef A",
     "# include <x>", "x /* #endif */ y", "// #else", '"/*"', "#define C( x, ... )#x ## x",
     "#define B(...) #__VA_ARGS__", "#define C()", "#define A # ## #", "#", '# 5 "f.c"',
     "#line 5", "#warning w", '# 5 "f.c" 1 3 4', "#\0define C 1"],
    ["#define 3x", "#define", "#define L'x'", "#undef", "#undef 3", "#endif", "#else",
     "#elif 1", "/* c", "#if$x", "#definex", "#else$", "#ifndef$ A", "#define F(x) #y",
     "#define F(x,x) 1", "#define F(x 1", "#define A ## B", "#define A B ##",
     "#define F(x) x ##", "#define defined 1", "#undef defined", "#define F(x,) 1",
     "#define F(... x)", "#define F(", "#define F(x, y", "#foo", "# foo bar", "#defin X",
     "#$x", "#!x", "# (", '#"a" b', "#'a", '#L"a', "#!=", "##x", "#0x", "# \\", "#.5",
     "# 3 <", '# 5 "f.c" 9', '# 5 "f.c" 2 1', "# 5 A"],
)
#: What ends a line: mostly a line break, sometimes a backslash-newline or a
#: comment spanning lines, either of which joins it to the next.
_SOUP_BREAKS = st.sampled_from(["\n"] * 9 + ["\\\n", " /* c\n */ ", "\n/*\n*/"])


def _soup_block(draw, depth):
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        if depth == 2 or draw(st.booleans()):
            lines.append(draw(_SOUP_PLAIN))
            continue
        lines.append(draw(_SOUP_OPENERS))
        lines += _soup_block(draw, depth + 1)
        for _ in range(draw(st.integers(0, 2))):
            lines.append(draw(_SOUP_ELIFS))
            lines += _soup_block(draw, depth + 1)
        if draw(st.booleans()):
            lines.append("#else")
            lines += _soup_block(draw, depth + 1)
        lines.append("#endif")
    return lines


@st.composite
def _directive_soups(draw):
    """Nested groups of directive and text lines, some of them malformed,
    misordered or left open."""
    lines = _soup_block(draw, 0)
    if lines and draw(st.integers(0, 5)) == 0:
        del lines[draw(st.integers(0, len(lines) - 1))]
    breaks = _SOUP_BREAKS if draw(st.booleans()) else st.just("\n")
    source = "".join(line + draw(breaks) for line in lines)
    if source.endswith("\n") and draw(st.booleans()):
        source = source[:-1]  # a last line with no line break
    return source


_SOUP_ENVS = st.sampled_from([env_of(), env_of(A=2), env_of(B=1, C=0), env_of(**{"A$B": 3})])


@settings(max_examples=500, deadline=None)
@given(_SOUP_ENVS, _directive_soups())
def test_whole_scan_matches_directive_by_directive_reference(env, source):
    assert _outcome(_plain_report, env, source) == _outcome(_reference_branches, env, source)


@pytest.mark.parametrize("source", [
    "#if 0\n#ifdef 3x\n#endif\n#endif\n",
    "#if A\n#define A 1\n#elif 1\n#define A 2\n#undef\n#endif\n#if A == 2\nx\n#endif",
    "#ifdef A B\n#undef A junk\n#else\n#ifdef\n#endif\n#endif\n#ifdef A\n#endif\n",
    "#define A 2 /* c\n */\n#if A \\\n == 2\nx\n#elif @\n#endif\n#define 3x",
    "#if 1\n#define 3x\n#if 1/0\n#endif\n",
])
def test_whole_scan_pinned_cases(source):
    for env in (env_of(), env_of(A=2)):
        assert _outcome(_plain_report, env, source) == _outcome(_reference_branches, env, source)


# --- branch reports against GCC ------------------------------------------------

# Each snippet defines every macro it tests, so the model's small predefined
# table and GCC's much larger one do not matter.  The ``mark`` words show the
# lines each one keeps; the first three have a block comment that spans lines.
_GCC_SNIPPETS = {
    "comment-in-if": "#if 1 /* a\n b */ && 0\nmark1\n#endif\nmark2\n",
    "comment-in-define": "#define A 1 /* x\n y */ + 1\n#if A == 2\nmark1\n#endif\n",
    "comment-before-hash": "z /* d\n */ #define W 1\n#ifdef W\nmark1\n#endif\nmark2\n",
    "comment-then-directive": "/* c\n */ #define X 1\n#ifdef X\nmark1\n#endif\n",
    "comment-hides-directives": "/*\n#if 0\n*/\nmark1\n",
    "one-line-comments": (
        "a /* b */ c\n#define X 1 // d\n#if X /* e */\nmark1\n#else\nmark2\n#endif\n"
    ),
    "continuation": "#if 0 || \\\n 1\nmark1\n#endif\nmark2\n",
    "string-shields-comment": 'const char *s = "/*";\n#if 1\nmark1\n#endif\n',
    "nested": (
        "#define V 2\n#if V > 1\n#ifndef U\nmark1\n#elif 1\nmark2\n#endif\n"
        "#else\nmark3\n#endif\nmark4\n"
    ),
    # A skipped group is read only for its directive names.
    "skipped-bad-operand": "#if 0\n#ifdef 3x\nmark1\n#endif\n#endif\nmark2\n",
    "skipped-no-operand": "#if 0\n#ifdef\n#endif\n#undef 3\n#define\n#else\nmark1\n#endif\n",
    # A directive name GCC does not know is ignored in a skipped group.
    "skipped-invalid-directives": (
        "#if 0\n#if$x\n#else$\n#endif$\n#define$x 1\n#ifx\nmark1\n#endif\nmark2\n"
    ),
    # An active #ifdef, #ifndef or #undef takes the first macro name and
    # only warns about the tokens after it.
    "extra-tokens": (
        "#define A\n#ifdef A B\nmark1\n#endif\n#ifndef C(x)\nmark2\n#endif\n"
        "#undef A B\n#ifdef A\nmark3\n#endif\n"
    ),
    # "defined" is no macro name to define, but #ifdef may test it.
    "defined-tested": "#ifdef defined\nmark1\n#endif\n#ifndef defined\nmark2\n#endif\n",
    "parameter-lists": (
        "#define F(x...) #x\n#define G(...) #__VA_ARGS__\n#define H( x, ... ) #__VA_OPT__(x)\n"
        "#define E() 1\n#define P(x, y) x ## y\n"
        "#if defined F && defined G && defined H && defined E && defined P\nmark1\n#endif\n"
    ),
    # A line marker's file name may be an object-like or built-in macro.
    "line-markers": '#define F "f.c"\n# 5 F\nmark1\n# 7 __FILE__ 1 3\nmark2\n',
    # A NUL is white space: it splits no directive name from its "#", and
    # "/\0*" starts no comment.
    "nul-in-directives": (
        "#\0if 0\nmark1\n#endif\n\0#if 0\nmark2\n#endif\n#if\0 0\nmark3\n#endif\n"
        "#if 1\0\nmark4\n#endif\n#\0define A 1\n#ifdef A\nmark5\n#endif\n"
    ),
    "nul-splits-comment-start": "/\0* x\n#if 0\nmark1\n#endif\n*/ mark2\n",
    "dollar-names": (
        "#define A$B 3\n#ifdef A\nmark1\n#endif\n#if A$B == 3\nmark2\n#endif\n"
        "#ifdef A$B\nmark3\n#endif\n#undef A$B\n#ifndef A$B\nmark4\n#endif\n"
    ),
}


@pytest.mark.parametrize("source,arms,ranges", [
    # A comment that spans lines joins them into one logical line; line
    # numbers stay physical.
    (_GCC_SNIPPETS["comment-in-if"], [("if", 1, False)], ((5, 5),)),
    (_GCC_SNIPPETS["comment-in-define"], [("if", 3, True)], ((1, 2), (4, 4))),
    (_GCC_SNIPPETS["comment-before-hash"], [("ifdef", 3, False)], ((1, 2), (6, 6))),
])
def test_multiline_comment_reports(source, arms, ranges):
    report = active_branches(MacroEnv(), source)
    assert [(a.kind, a.line, a.taken) for g in report.groups for a in g.arms] == arms
    assert report.retained_ranges == ranges


@pytest.mark.gcc
@pytest.mark.parametrize("name", sorted(_GCC_SNIPPETS))
def test_branch_markers_match_gcc(name):
    source = _GCC_SNIPPETS[name]
    status, out, _ = pp(source)
    assert status == 0
    model = active_branches(MacroEnv(), source).retained_text
    markers = re.compile(r"\bmark\d+\b")
    assert markers.findall(model) == markers.findall(out)


#: Conditions and #define/#undef lines over macros the soup defines itself,
#: none of which GCC predefines; F is function-like, so it is only tested.
_GCC_CONDITIONS = st.sampled_from([
    "1", "0", "A", "A == 2", "defined(B) || C", "B + 1 > 2", "!defined A", "A$B == 3",
    "C ? A : 0", "defined F && A /* c */ < 3", "A \\\n  == 1",
])
_GCC_NAMES = st.sampled_from(["A", "B", "C", "F", "A$B"])
_GCC_DEFINITIONS = st.sampled_from([
    "#define A 2", "#define A 1", "#define B A", "#define C 0", "#define C (A + 1)",
    "#define A$B 3", "#define F(x) x", "#undef A", "#undef B junk", "#undef A$B",
    "  # undef C // c", "#define A /* two\n lines */ 2",
])
#: Lines that GCC reads in a skipped group only for the directive name.
_GCC_SKIPPED = st.sampled_from([
    "#ifdef 3x", "#ifndef", "#ifdef \"s\"", "#undef 3", "#define 3x", "#define",
    "#else$", "#endif$", "#define$x 1", "#undefx",
])


def _gcc_block(draw, depth):
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        choice = draw(st.integers(0, 4 if depth < 2 else 1))
        if choice == 0:
            lines.append("mark")
        elif choice == 1:
            lines.append(draw(_GCC_DEFINITIONS))
        elif choice == 2:
            # A group no arm of which GCC reads: a skipped one.
            lines.append("#if 0")
            for _ in range(draw(st.integers(1, 3))):
                line = draw(_GCC_SKIPPED)
                if line.startswith("#if"):
                    lines += [line, "mark", "#elif @", "mark", "#endif"]
                else:
                    lines.append(line)
            lines.append("#endif")
        else:
            kind = draw(st.sampled_from(["#if", "#ifdef", "#ifndef"]))
            if kind == "#if":
                lines.append(f"#if {draw(_GCC_CONDITIONS)}")
            else:
                extra = draw(st.sampled_from(["", " x", "(y)"]))
                lines.append(f"{kind} {draw(_GCC_NAMES)}{extra}")
            lines += _gcc_block(draw, depth + 1)
            for _ in range(draw(st.integers(0, 2))):
                lines.append(f"#elif {draw(_GCC_CONDITIONS)}")
                lines += _gcc_block(draw, depth + 1)
            if draw(st.booleans()):
                lines.append("#else")
                lines += _gcc_block(draw, depth + 1)
            lines.append("#endif")
    return lines


@st.composite
def _well_formed_soups(draw):
    lines = _gcc_block(draw, 0)
    marks = iter(range(len(lines)))
    return "".join(f"mark{next(marks)}\n" if line == "mark" else line + "\n" for line in lines)


@pytest.mark.gcc
@settings(max_examples=60, deadline=None)
@given(_well_formed_soups())
def test_well_formed_soup_marks_match_gcc(source):
    status, out, _ = pp(source)
    assert status == 0
    model = active_branches(MacroEnv(), source).retained_text
    markers = re.compile(r"\bmark\d+\b")
    assert markers.findall(model) == markers.findall(out)
