"""Header search simulation over a virtual filesystem.

The resolver never touches the real disk unless a snapshot is built
from one (:meth:`FileSystemModel.from_directory`), so resolution tests
are hermetic and reproducible bit for bit.
"""

from __future__ import annotations

import os
import posixpath
from dataclasses import dataclass
from enum import Enum

from .invocation import CompilerInvocation


class IncludeForm(Enum):
    ANGLE = "angle"
    QUOTE = "quote"


@dataclass(frozen=True)
class IncludeDirective:
    header_name: str
    form: IncludeForm
    including_file: str

    def __post_init__(self) -> None:
        if not self.header_name:
            raise ValueError("header name must be non-empty")


@dataclass(frozen=True)
class Probe:
    """One candidate path, in search order, marked hit or miss."""

    candidate: str
    hit: bool


@dataclass(frozen=True)
class Resolution:
    found: str | None
    trace: tuple[Probe, ...]

    @property
    def not_found(self) -> bool:
        return self.found is None


@dataclass(frozen=True)
class FileSystemModel:
    """Immutable set of absolute, normalized file paths plus a working
    directory against which relative paths are interpreted."""

    files: frozenset[str]
    cwd: str = "/"

    def __post_init__(self) -> None:
        if not posixpath.isabs(self.cwd):
            raise ValueError(f"cwd must be absolute, got {self.cwd!r}")
        object.__setattr__(self, "cwd", posixpath.normpath(self.cwd))
        object.__setattr__(
            self, "files", frozenset(self._normalize_new(p) for p in self.files)
        )

    def _normalize_new(self, path: str) -> str:
        if not posixpath.isabs(path):
            path = posixpath.join(self.cwd, path)
        return posixpath.normpath(path)

    def normalize(self, path: str) -> str:
        return self._normalize_new(path)

    def __contains__(self, path: str) -> bool:
        return self.normalize(path) in self.files

    @classmethod
    def from_paths(cls, paths, cwd: str = "/") -> "FileSystemModel":
        return cls(files=frozenset(paths), cwd=cwd)

    @classmethod
    def from_manifest(cls, text: str, cwd: str = "/") -> "FileSystemModel":
        """One path per line; blank lines and lines starting with '#'
        are ignored."""
        paths = []
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                paths.append(line)
        return cls.from_paths(paths, cwd=cwd)

    @classmethod
    def from_directory(cls, root: str) -> "FileSystemModel":
        """Snapshot a real directory tree (the only non-hermetic
        constructor)."""
        if not os.path.isdir(root):
            raise NotADirectoryError(f"not a directory: {root}")
        root = os.path.abspath(root)
        paths = []
        for base, _dirs, names in os.walk(root):
            for name in names:
                paths.append(os.path.join(base, name))
        return cls.from_paths(paths, cwd=root)


def search_paths(
    inv: CompilerInvocation, form: IncludeForm, including_file: str | None = None
) -> list[str]:
    """Ordered directories to probe.  The quote form prepends the
    directory of the including file and any -iquote directories; both
    forms then walk -I, CPATH, -isystem, C_INCLUDE_PATH, and finally
    the profile's system directories (dropped under -nostdinc)."""
    common = list(inv.include_dirs.normal) + list(inv.include_dirs.system)
    if not inv.nostdinc:
        common.extend(inv.profile.system_include_dirs)
    if form is IncludeForm.ANGLE:
        return common
    if including_file is None:
        raise ValueError("quote-form search requires the including file")
    includer_dir = posixpath.dirname(including_file) or "."
    return [includer_dir] + list(inv.include_dirs.quote) + common


def resolve_include(
    d: IncludeDirective, inv: CompilerInvocation, fs: FileSystemModel
) -> Resolution:
    """First directory containing the header wins; the trace records
    every candidate probed.  Absolute header names are probed directly."""
    if posixpath.isabs(d.header_name):
        candidate = fs.normalize(d.header_name)
        hit = candidate in fs
        return Resolution(candidate if hit else None, (Probe(candidate, hit),))

    trace: list[Probe] = []
    for directory in search_paths(inv, d.form, d.including_file):
        candidate = fs.normalize(posixpath.join(directory, d.header_name))
        hit = candidate in fs
        trace.append(Probe(candidate, hit))
        if hit:
            return Resolution(candidate, tuple(trace))
    return Resolution(None, tuple(trace))
