"""Header search simulation over a virtual filesystem.

The resolver never touches the real disk unless a model looks candidates
up under a real directory (:meth:`FileSystemModel.from_directory`), so
resolution tests are hermetic and reproducible bit for bit.
"""

from __future__ import annotations

import os
import posixpath
from enum import Enum
from typing import NamedTuple

from .dialect_model import _Validated
from .invocation import CompilerInvocation


class IncludeForm(Enum):
    ANGLE = "angle"
    QUOTE = "quote"


class _IncludeDirectiveFields(NamedTuple):
    header_name: str
    form: IncludeForm
    including_file: str


class IncludeDirective(_Validated, _IncludeDirectiveFields):
    __slots__ = ()

    def _validate(self) -> None:
        if not self.header_name:
            raise ValueError("header name must be non-empty")


class Probe(NamedTuple):
    """One candidate path, in search order, marked hit or miss."""

    candidate: str
    hit: bool


class Resolution(NamedTuple):
    found: str | None
    trace: tuple[Probe, ...]


def _normalize(path: str, cwd: str) -> str:
    if not posixpath.isabs(path):
        path = posixpath.join(cwd, path)
    return posixpath.normpath(path)


class _FileSystemFields(NamedTuple):
    files: frozenset[str] | None
    cwd: str = "/"
    root: str | None = None


class FileSystemModel(_FileSystemFields):
    """Immutable set of absolute, normalized file paths plus a working
    directory against which relative paths are interpreted.  A model of a
    real directory holds ``files`` None and the directory as ``root``, by
    default ``cwd``."""

    __slots__ = ()

    def __new__(cls, files, cwd: str = "/", root: str | None = None) -> "FileSystemModel":
        if not posixpath.isabs(cwd):
            raise ValueError(f"cwd must be absolute, got {cwd!r}")
        cwd = posixpath.normpath(cwd)
        if files is not None:
            files = frozenset(_normalize(p, cwd) for p in files)
        if root is not None:
            root = _normalize(root, cwd)
        elif files is None:
            root = cwd
        return super().__new__(cls, files, cwd, root)

    @classmethod
    def _make(cls, fields):  # what ``_replace`` builds its result with
        return cls(*fields)

    def normalize(self, path: str) -> str:
        return _normalize(path, self.cwd)

    def __contains__(self, path: str) -> bool:
        path = self.normalize(path)
        if self.files is None:
            return path.startswith(posixpath.join(self.root, "")) and os.path.isfile(path)
        return path in self.files

    @classmethod
    def from_manifest(cls, text: str, cwd: str = "/") -> "FileSystemModel":
        """One path per line; blank lines and lines starting with '#'
        are ignored."""
        paths = []
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                paths.append(line)
        return cls(paths, cwd=cwd)

    @classmethod
    def from_directory(cls, root: str, cwd: str | None = None) -> "FileSystemModel":
        """Look candidates up under a real directory (the only non-hermetic
        constructor): a path is in the model when it lies under ``root``
        and is a file, symbolic links followed, when it is probed.
        Relative paths are read against ``cwd``, by default ``root``; both
        are read against the working directory of the process."""
        if not os.path.isdir(root):
            raise NotADirectoryError(f"not a directory: {root}")
        root = os.path.abspath(root)
        return cls(None, cwd=root if cwd is None else os.path.abspath(cwd), root=root)


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
