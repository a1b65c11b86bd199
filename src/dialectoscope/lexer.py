"""The grammar of C text as GCC reads it: patterns over pp-tokens, literals,
comments and directive lines, and GCC's check of a ``#define`` operand.

:mod:`invocation` reads ``-D``/``-U`` words by these rules and
:mod:`macro_env` reads headers by them.  Each compiles the patterns it
alone applies; ``_DEFINE_OPERAND_RE``, which both apply, is compiled here.
"""

from __future__ import annotations

import re

#: The characters of an identifier after its first, as a class's contents and
#: as a class, and an identifier, as GCC reads them: "$" is one of them.  The one
#: definition of the identifier rule: every pattern or set of its characters reads it.
_IDENT_CHARS = r"\w$"
_IDENT_CHAR = rf"[{_IDENT_CHARS}]"
_IDENT = rf"[A-Za-z_$]{_IDENT_CHAR}*"
#: The one definition of a C string or character literal as GCC reads it, up
#: to its closing quote ({0}): characters other than the quote, a backslash or
#: a line break, and escapes.  Each pattern adds its own ending to the result.
_LITERAL = r"{0}(?:[^{0}\\\n]|\\[^\n])*"
_STRING, _CHAR = _LITERAL.format('"'), _LITERAL.format("'")
#: A preprocessing token (C11 6.4) as GCC spells it in an error, and the one
#: token grammar of -D/-U text and of macro_env's directive operands and
#: conditions: a plain or "L" string or character literal (an unclosed one
#: runs to the line's end, and takes a backslash that ends the text, as GCC
#: does), a pp-number, an identifier, a punctuator or any other character.
#: "##" is one token.  Digraphs, trigraphs and the "u", "U" and "u8"
#: prefixes are read as plain characters: GCC reads them as more only under
#: some -std= levels, and a word's effect may not depend on a later word.
#: Few operands hold "#" or a parameter list, so :func:`_operand_error` has
#: the pattern compiled (by re's cache) on first use, not on import.
_PP_NUMBER = rf"\.?[0-9](?:[eEpP][-+]|[{_IDENT_CHARS}.])*"
_PP_TOKEN = (
    rf"""L?{_STRING}["\\]?|L?{_CHAR}['\\]?|{_PP_NUMBER}|{_IDENT}"""
    r"|\.\.\.|<<=|>>=|->|\+\+|--|<<|>>|&&|\|\||##|[-+*/%^&|<>=!]=|\S"
)
#: The operand of a #define, as GCC reads it after translation phase 3, and
#: the one grammar of -D/-U text and of macro_env's #define, #undef,
#: #ifdef and #ifndef lines: white space, the macro name (group "name"),
#: then, when "(" follows the name at once, the parameter list up to its
#: first ")" or to the end of the line (group "params"), then white space
#: and the body up to the first line break (group "body").  The name is an
#: identifier that opens no wide character constant or string literal; one
#: that GCC reads as longer, through a non-ASCII character or a universal
#: character name, is no name.  :func:`_operand_error` checks the rest.
#: Only "\n" ends the line: with [^\n\r] in place of [^\n], the pattern
#: took a sixth longer over the benchmark's headers, so a -D/-U argument
#: has its carriage returns made "\n" first.
_DEFINE_OPERAND = (
    r"[ \t\f\v]*"
    rf"(?:(?!L[\"'])(?P<name>{_IDENT})(?!{_IDENT_CHAR}|\\[uU]|[^\x00-\x7f])"
    r"(?P<params>\([^)\n]*\)?)?)?"
    r"[ \t\f\v]*(?P<body>[^\n]*)"
)
_DEFINE_OPERAND_RE = re.compile(_DEFINE_OPERAND)
#: The white space that a stored body drops at its end: the operand's white
#: space, and the "\r" of a line that ends in "\r\n".
_TRAILING_SPACE = " \t\f\v\r"
#: A string or character literal (kept; it ends at its quote or at the end of
#: its line), a line comment, a block comment, or the "/*" of a block comment
#: never closed: what translation phase 3 reads, in -D/-U text and in the
#: headers that macro_env scans.  Without capturing groups the pattern lets
#: the regex engine skip to the next '"', "'" or "/" at C speed.  Few -D/-U
#: words hold a comment, so invocation has the pattern compiled (by re's
#: cache) on first use.
_COMMENT = rf"""(?s){_STRING}"?|{_CHAR}'?|//[^\n]*|/\*.*?\*/|/\*"""
_PASTE_AT_AN_END = "'##' cannot appear at either end of a macro expansion"
# The directive patterns match from the line break before their line, so
# the regex engine skips to the next line break at C speed; the scan puts a
# line break before the first line.  Only conditional directives steer the
# scan; any other line, directive or not, is kept or dropped with its
# region.
_CONDITIONAL = (
    rf"\n[^\S\n]*#[^\S\n]*(ifdef|ifndef|if|elif|else|endif)(?!{_IDENT_CHAR})[^\S\n]*([^\n]*)"
)
#: A directive line other than a conditional one: its directive name, then
#: the operand, read as a -D/-U argument is read.  Or a line marker: the
#: pp-number after the "#" and the rest of the line.  Or, when the "#" is
#: followed by none of these and not by the end of the line (the null
#: directive), the first token, which GCC names in its error; a line that
#: starts with "##" is text.  A backslash that ends the text is a token, as
#: ``macro_env._logical_lines`` has dropped a backslash-newline that ends the file.
_DEFINITION = (
    rf"\n[^\S\n]*#(?!#)[^\S\n]*(?:(?!L[\"'])({_IDENT}){_DEFINE_OPERAND}"
    rf"|({_PP_NUMBER})([^\n]*)|(?!\n|\Z)({_PP_TOKEN}))"
)
#: Directive names that the model keeps as text, under every -std=: those
#: GCC 12.2 knows besides the conditional ones, #define and #undef, and
#: #elifdef and #elifndef, which GCC reads as conditionals under gnu* and
#: c2x and rejects in an active region under c90 to c17.
_KEPT_DIRECTIVES = frozenset((
    "include", "include_next", "import", "line", "error", "warning", "pragma", "ident", "sccs",
    "assert", "unassert", "elifdef", "elifndef",
))


def _operand_error(kind: str, operand: re.Match) -> str | None:
    """GCC's reason to reject ``operand``, a match of ``_DEFINE_OPERAND``,
    as the operand of a ``#kind`` directive ("define", "undef", "ifdef" or
    "ifndef"), or None.  As in GCC, the first fault in reading order is the
    one reported: the name, then the parameter list, then the body."""
    name, params, body = operand["name"], operand["params"], operand["body"]
    if name is None:
        if body:
            return "macro names must be identifiers"
        return f"no macro name given in #{kind} directive"
    if name == "defined" and kind in ("define", "undef"):
        return '"defined" cannot be used as a macro name'
    if kind != "define":
        return None
    # The parameter names, and the names that may follow a stringizing "#":
    # "..." alone names __VA_ARGS__, and a variadic macro takes __VA_OPT__.
    names: set[str] = set()
    if params is not None:
        # GCC's parse_params.  ``last`` is the last token: "(", ",", "..."
        # or "x" for a name.
        last = "("
        for token in [*re.findall(_PP_TOKEN, params[1:]), None]:
            if token == ")" and last != ",":
                break
            param = "__VA_ARGS__" if token == "..." else token
            if last == "x" and token in (",", "..."):
                last = token
            elif last in "(," and param and re.fullmatch(_IDENT, param):
                if param in names:
                    return f'duplicate macro parameter "{param}"'
                names.add(param)
                last = "..." if token == "..." else "x"
            elif last == "...":
                return "expected ')' after \"...\""
            elif token is None:
                if last == "x":
                    return "expected ')' before end of line"
                return "expected parameter name before end of line"
            else:
                wanted = "',' or ')'" if last == "x" else "parameter name"
                return f'expected {wanted}, found "{token}"'
        if last == "...":
            names.add("__VA_OPT__")
    tokens = re.findall(_PP_TOKEN, body) if "#" in body else ()
    if tokens[:1] == ["##"]:
        return _PASTE_AT_AN_END
    if params is not None:
        for i, token in enumerate(tokens):
            if token == "#" and (i + 1 == len(tokens) or tokens[i + 1] not in names):
                return "'#' is not followed by a macro parameter"
    if tokens[-1:] == ["##"]:
        return _PASTE_AT_AN_END
    return None
