"""dialectoscope: measure, derive, and audit C dialect configurations.

A C source file alone does not determine what a program means; the
compiler, its options, and its environment pick one dialect out of an
enormous space of conforming choices.  This package models the
observable slice of that space: a 768-point dialect encoding and its
probe program, derivation of dialect configurations from compiler
command lines, predefined-macro and conditional-compilation
simulation, include-path resolution, integer-promotion pitfall
analysis, and consistency audits over multi-TU build captures.
"""

__version__ = "0.1.0"

#: Public name -> the submodule defining it.  A name is imported on first
#: use (PEP 562), so ``import dialectoscope`` loads no submodule and a
#: command-line call loads only the modules its subcommand runs.
_EXPORTS = {
    name: module
    for module, names in (
        ("dialect_model", "ANSI_MODE_WEIGHT BOOLEAN_WEIGHTS DIMENSIONS ENCODING_SPACE"
         " LP64 STD_CLASS_WEIGHT AnsiMode DialectConfig DialectValueError TypeModel"
         " all_configs canonical_flags decimal_scientific decode_value"
         " dialect_count_lower_bound e_notation encode_config"
         " enumerate_integer_size_models"),
        ("profiles", "DEFAULT_PROFILE PROFILE_DIR_ENV CompilerProfile ProfileError"
         " available_profiles load_profile profile_from_dict"),
        ("invocation", "CompilerInvocation IncludeDirs InvocationError MacroDirective"
         " parse_invocation"),
        ("probe", "PROBE_BITS PROBE_BYTE_LENGTH PROBE_SHA256 ProbeBitSpec"
         " emit_probe_source explain_value flags_for_value"),
        ("macro_env", "BranchArm BranchReport ConditionalGroup ConditionalStructureError"
         " ExprEvalError ExprSyntaxError MacroDefinition MacroEnv PreprocessorError"
         " UnsupportedMacroError active_branches apply_directives eval_condition"
         " invocation_macro_env predefined_macros"),
        ("include_resolver", "FileSystemModel IncludeDirective IncludeForm Probe"
         " Resolution resolve_include search_paths"),
        ("promotion", "BaseType CType WrapCheckExpr WrapCheckVerdict analyze_wrap_check"
         " arithmetic_conversion boundary_pairs integer_promote parse_ctype"
         " simulate_wrap_check true_wraparound"),
        ("build_audit", "AuditReport BuildCapture BuildEntry BuildLoadError"
         " Inconsistency Mismatch PerTuRow Severity audit check_against load_build"),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
