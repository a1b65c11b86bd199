"""Data-driven compiler profiles.

A profile is a JSON document describing one toolchain: its default
dialect, the dialect-affecting flags it understands and their effects,
its standard-name vocabulary, the macros it always predefines, and its
system include directories.  New toolchains are added by dropping a
JSON file into a directory named by ``DIALECTOSCOPE_PROFILE_DIR`` (a
``os.pathsep``-separated list of directories searched before the
built-in profiles).
"""

from __future__ import annotations

import json
import os
from typing import Mapping, NamedTuple

from .dialect_model import BOOLEAN_WEIGHTS, AnsiMode, DialectConfig

PROFILE_DIR_ENV = "DIALECTOSCOPE_PROFILE_DIR"
DEFAULT_PROFILE = "gcc8-x86_64"
#: The built-in profiles.
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


class ProfileError(ValueError):
    """Unknown profile name, unreadable profile file, or invalid contents."""


class StdName(NamedTuple):
    """What one ``-std=`` argument means: residue class and strictness."""

    std_class: int
    strict: bool


class FlagEffect(NamedTuple):
    """Effect of one recognized flag on the working dialect state."""

    sets: tuple[tuple[str, bool], ...] = ()
    std: str | None = None
    trigraphs: bool = False
    nostdinc: bool = False
    defines: tuple[tuple[str, str], ...] = ()


class CanonicalSpellings(NamedTuple):
    """Flag spellings used when rendering a dialect back to a command line."""

    char_signed: str
    char_unsigned: str
    bitfield_signed: str
    bitfield_unsigned: str
    short_enums: str
    optimize: str
    pointer_32: str
    pointer_64: str
    hosted: str
    freestanding: str
    std_prefix: str
    trigraphs: str


class CompilerProfile(NamedTuple):
    """One toolchain's dialect vocabulary and defaults."""

    name: str
    description: str
    defaults: DialectConfig
    std_names: Mapping[str, StdName]
    std_class_names: Mapping[int, tuple[str, str]]  # class -> (strict, gnu) name
    stdc_version_by_class: Mapping[int, str | None]
    flag_vocabulary: Mapping[str, FlagEffect]
    compiler_id_macros: Mapping[str, str]
    system_include_dirs: tuple[str, ...]
    compiler_basenames: tuple[str, ...] = ("*",)
    canonical: CanonicalSpellings | None = None

    def canonical_spellings(self) -> CanonicalSpellings:
        if self.canonical is None:
            raise ProfileError(
                f"profile {self.name!r} does not define canonical flag spellings"
            )
        return self.canonical

    def canonical_std_name(self, std_class: int, mode: AnsiMode) -> str:
        try:
            strict_name, gnu_name = self.std_class_names[std_class]
        except KeyError:
            raise ProfileError(
                f"profile {self.name!r} has no standard name for class {std_class}"
            ) from None
        return strict_name if mode is AnsiMode.STRICT else gnu_name

    def resolve_std(self, name: str) -> StdName:
        try:
            return self.std_names[name]
        except KeyError:
            known = ", ".join(sorted(self.std_names))
            raise ProfileError(
                f"profile {self.name!r} does not know -std={name} (known: {known})"
            ) from None

    def covers_compiler(self, basename: str) -> bool:
        import fnmatch

        return any(fnmatch.fnmatch(basename, pat) for pat in self.compiler_basenames)


def _require(data: dict, key: str, context: str):
    if key not in data:
        raise ProfileError(f"{context}: missing required key {key!r}")
    return data[key]


def _object(value, what: str, context: str) -> dict:
    if not isinstance(value, dict):
        raise ProfileError(f"{context}: {what} must be a JSON object")
    return value


def _strings(value, what: str, context: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ProfileError(f"{context}: {what} must be a list of strings")
    return tuple(value)


def _parse_defaults(data: dict, std_names: Mapping[str, StdName], context: str) -> DialectConfig:
    kwargs = {}
    for f in BOOLEAN_WEIGHTS:
        value = _require(data, f, context)
        if not isinstance(value, bool):
            raise ProfileError(f"{context}: {f} must be a boolean")
        kwargs[f] = value
    std = _require(data, "std", context)
    if not isinstance(std, str) or std not in std_names:
        raise ProfileError(f"{context}: default std {std!r} is not in std_names")
    resolved = std_names[std]
    kwargs["std_class"] = resolved.std_class
    kwargs["ansi_mode"] = AnsiMode.STRICT if resolved.strict else AnsiMode.GNU
    return DialectConfig(**kwargs)


def _parse_effect(
    flag: str, data, std_names: Mapping[str, StdName], context: str
) -> FlagEffect:
    data = _object(data, f"flag {flag!r}", context)
    sets = []
    for f, v in _object(data.get("set", {}), f"flag {flag!r} set", context).items():
        if f not in BOOLEAN_WEIGHTS:
            raise ProfileError(f"{context}: flag {flag!r} sets unknown field {f!r}")
        if not isinstance(v, bool):
            raise ProfileError(f"{context}: flag {flag!r} field {f!r} must be boolean")
        sets.append((f, v))
    defines = tuple(
        (n, str(v))
        for n, v in _object(data.get("define", {}), f"flag {flag!r} define", context).items()
    )
    std = data.get("std")
    if std is not None and not isinstance(std, str):
        raise ProfileError(f"{context}: flag {flag!r} std must be a string")
    if std is not None and std not in std_names:
        raise ProfileError(f"{context}: flag {flag!r} std {std!r} is not in std_names")
    return FlagEffect(
        sets=tuple(sets),
        std=std,
        trigraphs=bool(data.get("trigraphs", False)),
        nostdinc=bool(data.get("nostdinc", False)),
        defines=defines,
    )


def profile_from_dict(data: dict, source: str = "<dict>") -> CompilerProfile:
    """Validate and build a profile from parsed JSON."""
    name = _require(_object(data, "the profile", source), "name", source)
    context = f"profile {name!r} ({source})"

    std_names = {}
    for std, entry in _object(_require(data, "std_names", context), "std_names", context).items():
        entry = _object(entry, f"std {std!r}", context)
        std_class = _require(entry, "class", f"{context} std {std!r}")
        if type(std_class) is not int or std_class not in (0, 1, 2, 3):
            raise ProfileError(f"{context}: std {std!r} has invalid class {std_class!r}")
        mode = _require(entry, "mode", f"{context} std {std!r}")
        if mode not in ("strict", "gnu"):
            raise ProfileError(f"{context}: std {std!r} has invalid mode {mode!r}")
        std_names[std] = StdName(std_class=std_class, strict=mode == "strict")

    std_class_names = {}
    stdc_versions = {}
    for key, entry in _object(_require(data, "std_classes", context), "std_classes", context).items():
        entry = _object(entry, f"class {key}", context)
        if key not in ("0", "1", "2", "3"):
            raise ProfileError(f"{context}: invalid standard class {key!r}")
        std_class = int(key)
        strict_name = _require(entry, "strict", f"{context} class {key}")
        gnu_name = _require(entry, "gnu", f"{context} class {key}")
        for n in (strict_name, gnu_name):
            if not isinstance(n, str) or n not in std_names:
                raise ProfileError(f"{context}: canonical std {n!r} is not in std_names")
        stdc_version = entry.get("stdc_version")
        if stdc_version is not None and not isinstance(stdc_version, str):
            raise ProfileError(f"{context}: class {key} stdc_version must be a string")
        std_class_names[std_class] = (strict_name, gnu_name)
        stdc_versions[std_class] = stdc_version

    flags = {
        flag: _parse_effect(flag, effect, std_names, context)
        for flag, effect in _object(data.get("flags", {}), "flags", context).items()
    }

    canonical = None
    if "canonical" in data:
        spellings = _object(data["canonical"], "canonical", context)
        if not all(isinstance(v, str) for v in spellings.values()):
            raise ProfileError(f"{context}: canonical spellings must be strings")
        unknown = [k for k in spellings if k not in CanonicalSpellings._fields]
        missing = [k for k in CanonicalSpellings._fields if k not in spellings]
        if unknown or missing:
            problems = [f"unknown key {k!r}" for k in unknown]
            problems += [f"missing {k!r}" for k in missing]
            raise ProfileError(f"{context}: bad canonical section: {'; '.join(problems)}")
        canonical = CanonicalSpellings(**spellings)

    return CompilerProfile(
        name=name,
        description=data.get("description", ""),
        defaults=_parse_defaults(
            _object(_require(data, "defaults", context), "defaults", context),
            std_names,
            context,
        ),
        std_names=std_names,
        std_class_names=std_class_names,
        stdc_version_by_class=stdc_versions,
        flag_vocabulary=flags,
        compiler_id_macros={
            n: str(v) for n, v in _object(data.get("macros", {}), "macros", context).items()
        },
        system_include_dirs=_strings(
            data.get("system_include_dirs", []), "system_include_dirs", context
        ),
        compiler_basenames=_strings(
            data.get("compiler_basenames", ["*"]), "compiler_basenames", context
        ),
        canonical=canonical,
    )


def _search_dirs(extra_dirs: tuple[str, ...] | list[str] | None = None) -> list[str]:
    dirs = list(extra_dirs or ())
    env = os.environ.get(PROFILE_DIR_ENV)
    if env:
        dirs.extend(p for p in env.split(os.pathsep) if p)
    dirs.append(DATA_DIR)
    return dirs


def load_profile(
    name: str = DEFAULT_PROFILE, profile_dirs: list[str] | None = None
) -> CompilerProfile:
    """Load a profile by name from explicit dirs, the env var path, or
    the built-in profile data, in that order."""
    filename = name + ".json"
    for d in _search_dirs(profile_dirs):
        path = os.path.join(d, filename)
        if os.path.isfile(path):
            try:
                with open(path, encoding="utf-8") as fh:
                    data = json.load(fh)
            # json raises RecursionError on arrays or objects nested too deep.
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ProfileError(f"profile file {path}: invalid JSON: {exc}") from None
            return profile_from_dict(data, source=path)
    raise ProfileError(
        f"unknown profile {name!r}; available: {', '.join(available_profiles(profile_dirs))}"
    )


def available_profiles(profile_dirs: list[str] | None = None) -> list[str]:
    names = set()
    for d in _search_dirs(profile_dirs):
        if os.path.isdir(d):
            names.update(f[:-5] for f in os.listdir(d) if f.endswith(".json"))
    return sorted(names)
