"""The gcc on PATH as the oracle of the tests, and the one module under
``tests/`` that finds gcc and runs it; each result is cached for the session.

A test that runs gcc carries the ``gcc`` marker, which ``pytest -m gcc``
selects, and is skipped with the one reason "no gcc on PATH" when there is
none.  ``gcc(driver=True)`` marks a test that also runs the libc-free probe
driver of ``probe verify``, which makes x86-64 system calls.
"""

import functools
import platform
import shutil
import subprocess

import pytest

from dialectoscope import emit_probe_source
from dialectoscope.probe import _compile_and_run

GCC = shutil.which("gcc")


def pytest_configure(config):
    config.addinivalue_line("markers", "gcc: checks the model against the gcc on PATH")


def pytest_collection_modifyitems(items):
    x86_64 = platform.machine() in ("x86_64", "AMD64")
    for item in items:
        mark = item.get_closest_marker("gcc")
        if mark and GCC is None:
            item.add_marker(pytest.mark.skip(reason="no gcc on PATH"))
        elif mark and mark.kwargs.get("driver") and not x86_64:
            item.add_marker(pytest.mark.skip(reason="the probe driver makes x86-64 system calls"))


@functools.cache
def _run(*args, stdin=None):
    proc = subprocess.run([GCC, *args], input=stdin, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def pp(text, argv=()):
    """The status, standard output and standard error of ``gcc -E -P``,
    with ``argv``, on the C text ``text``."""
    return _run("-E", "-P", *argv, "-x", "c", "-", stdin=text)


def dm(argv=()):
    """The status of ``gcc -E -dM``, with ``argv``, on an empty file and the
    set of the ``#define`` lines it writes."""
    status, out, _ = _run("-E", "-dM", *argv, "-x", "c", "/dev/null")
    return status, set(out.splitlines())


_probe_values: dict[tuple[str, ...], int | str] = {}


def probe_values(argvs):
    """The probe value gcc gives under each argv of ``argvs`` with -m64, or
    the failure text of an argv it does not build, in the order given.  The
    argvs not asked for before are built together, in one
    ``_compile_and_run`` call: one driver link and one run, which writes
    each value as 4 little-endian bytes and hands it back as an ``int``.
    A failure text names its step: ``compile failed (<argv>): <reason>``,
    ``link failed``, ``run exited with status N`` or ``run wrote no
    result``."""
    argvs = [tuple(argv) for argv in argvs]
    new = [argv for argv in dict.fromkeys(argvs) if argv not in _probe_values]
    builds = {i: ("-m64", list(argv)) for i, argv in enumerate(new)}
    results, failures = _compile_and_run(GCC, emit_probe_source(), "return_value", builds, jobs=2)
    for i, argv in enumerate(new):
        _probe_values[argv] = results[i] if i in results else failures[i]
    return [_probe_values[argv] for argv in argvs]


@functools.cache
def m32_failure():
    """Why gcc cannot build and run a -m32 function behind the libc-free
    driver of ``probe verify``, or "" when it can."""
    _, failures = _compile_and_run(
        GCC, "unsigned f(void) { return 32; }\n", "f", {0: ("-m32", ["-m32"])}, jobs=1
    )
    return failures.get(0, "")
