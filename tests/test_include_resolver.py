"""Virtual filesystem behavior and header search order."""

import posixpath

import pytest
from hypothesis import given, strategies as st

from dialectoscope import (
    FileSystemModel,
    IncludeDirective,
    IncludeForm,
    parse_invocation,
    resolve_include,
    search_paths,
)


def inv_for(flags, profile, env=None):
    return parse_invocation(flags, env=env or {}, profile=profile)


# --- filesystem model -------------------------------------------------------


def test_normalization():
    fs = FileSystemModel(["src/a.h", "/abs/./b.h", "x/../c.h"], cwd="/proj")
    assert fs.files == {"/proj/src/a.h", "/abs/b.h", "/proj/c.h"}
    assert "src/a.h" in fs
    assert "./src/a.h" in fs
    assert "/proj/src/../src/a.h" in fs
    assert "missing.h" not in fs
    # A model of a real directory (files None) is rooted at cwd by default.
    fs = FileSystemModel(None, cwd="/proj/./sub")
    assert (fs.files, fs.cwd, fs.root) == (None, "/proj/sub", "/proj/sub")
    assert FileSystemModel(None, cwd="/proj", root="inc").root == "/proj/inc"


def test_cwd_must_be_absolute():
    with pytest.raises(ValueError):
        FileSystemModel([], cwd="relative")


def test_from_manifest_skips_blanks_and_comments():
    text = "# snapshot\n\n/usr/include/stdio.h\n  src/a.h  \n# trailing\n"
    fs = FileSystemModel.from_manifest(text, cwd="/proj")
    assert fs.files == {"/usr/include/stdio.h", "/proj/src/a.h"}


def test_from_directory(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "x.h").write_text("")
    (tmp_path / "top.h").write_text("")
    fs = FileSystemModel.from_directory(str(tmp_path))
    assert str(tmp_path / "sub" / "x.h") in fs
    assert str(tmp_path / "top.h") in fs
    assert fs.cwd == str(tmp_path)


def test_from_directory_looks_files_up_through_symlinks(tmp_path):
    # As GCC opens a header: a file behind a symlinked directory is found,
    # and neither a broken symlink nor a directory is a file.
    root = tmp_path / "root"
    (root / "real").mkdir(parents=True)
    (root / "real" / "x.h").write_text("")
    (root / "link").symlink_to("real")
    (root / "broken.h").symlink_to("missing.h")
    (tmp_path / "outside.h").write_text("")
    fs = FileSystemModel.from_directory(str(root))
    assert str(root / "link" / "x.h") in fs
    assert "link/x.h" in fs
    assert str(root / "broken.h") not in fs
    assert str(root / "real") not in fs
    assert str(tmp_path / "outside.h") not in fs
    assert "../outside.h" not in fs


# --- search order -----------------------------------------------------------


def test_angle_search_order(profile):
    inv = inv_for(
        ["-Ia", "-iquote", "q", "-isystem", "s"],
        profile,
        env={"CPATH": "p::r", "C_INCLUDE_PATH": "ci"},
    )
    assert search_paths(inv, IncludeForm.ANGLE) == [
        "a", "p", ".", "r", "s", "ci", *profile.system_include_dirs,
    ]


def test_quote_search_prepends_includer_and_iquote(profile):
    inv = inv_for(["-Ia", "-iquote", "q"], profile)
    angle = search_paths(inv, IncludeForm.ANGLE)
    assert search_paths(inv, IncludeForm.QUOTE, "/src/main.c") == ["/src", "q", *angle]
    assert search_paths(inv, IncludeForm.QUOTE, "main.c") == [".", "q", *angle]


def test_quote_search_requires_includer(profile):
    inv = inv_for([], profile)
    with pytest.raises(ValueError):
        search_paths(inv, IncludeForm.QUOTE)


def test_nostdinc_drops_profile_dirs(profile):
    inv = inv_for(["-nostdinc", "-Ia"], profile)
    assert search_paths(inv, IncludeForm.ANGLE) == ["a"]
    inv = inv_for(["-nostdinc"], profile)
    assert search_paths(inv, IncludeForm.ANGLE) == []


def test_iquote_only_affects_quote_form(profile):
    inv = inv_for(["-iquote", "q", "-nostdinc"], profile)
    assert search_paths(inv, IncludeForm.ANGLE) == []
    assert search_paths(inv, IncludeForm.QUOTE, "/m.c") == ["/", "q"]


# --- resolution -------------------------------------------------------------


def test_quote_prefers_sibling_over_search_dirs(profile):
    fs = FileSystemModel(["/src/util.h", "/inc/util.h"])
    inv = inv_for(["-I/inc", "-nostdinc"], profile)
    quote = resolve_include(
        IncludeDirective("util.h", IncludeForm.QUOTE, "/src/main.c"), inv, fs
    )
    assert quote.found == "/src/util.h"
    assert [p.hit for p in quote.trace] == [True]
    angle = resolve_include(
        IncludeDirective("util.h", IncludeForm.ANGLE, "/src/main.c"), inv, fs
    )
    assert angle.found == "/inc/util.h"


def test_first_hit_stops_probing(profile):
    fs = FileSystemModel(["/b/h.h", "/c/h.h"])
    inv = inv_for(["-I/a", "-I/b", "-I/c", "-nostdinc"], profile)
    res = resolve_include(IncludeDirective("h.h", IncludeForm.ANGLE, "/m.c"), inv, fs)
    assert res.found == "/b/h.h"
    assert [p.candidate for p in res.trace] == ["/a/h.h", "/b/h.h"]
    assert [p.hit for p in res.trace] == [False, True]


def test_not_found_records_full_trace(profile):
    fs = FileSystemModel([])
    inv = inv_for(["-I/a", "-I/b", "-nostdinc"], profile)
    res = resolve_include(IncludeDirective("no.h", IncludeForm.ANGLE, "/m.c"), inv, fs)
    assert res.found is None
    assert [p.candidate for p in res.trace] == ["/a/no.h", "/b/no.h"]
    assert not any(p.hit for p in res.trace)


def test_absolute_header_probed_directly(profile):
    fs = FileSystemModel(["/exact/h.h"])
    inv = inv_for(["-I/a"], profile)
    res = resolve_include(IncludeDirective("/exact/h.h", IncludeForm.QUOTE, "/m.c"), inv, fs)
    assert res.found == "/exact/h.h"
    assert len(res.trace) == 1
    res = resolve_include(IncludeDirective("/gone/h.h", IncludeForm.ANGLE, "/m.c"), inv, fs)
    assert res.found is None and len(res.trace) == 1


def test_relative_header_with_subdirectory(profile):
    fs = FileSystemModel(["/inc/sys/types.h"])
    inv = inv_for(["-I/inc", "-nostdinc"], profile)
    res = resolve_include(IncludeDirective("sys/types.h", IncludeForm.ANGLE, "/m.c"), inv, fs)
    assert res.found == "/inc/sys/types.h"


def test_empty_header_name_rejected():
    with pytest.raises(ValueError):
        IncludeDirective("", IncludeForm.ANGLE, "/m.c")


def test_resolution_is_deterministic(profile):
    fs = FileSystemModel(["/a/h.h"])
    inv = inv_for(["-I/a", "-nostdinc"], profile)
    d = IncludeDirective("h.h", IncludeForm.ANGLE, "/m.c")
    assert resolve_include(d, inv, fs) == resolve_include(d, inv, fs)


def test_adding_files_never_loses_a_header(profile):
    inv = inv_for(["-I/a", "-I/b", "-nostdinc"], profile)
    small = FileSystemModel(["/b/h.h"])
    large = FileSystemModel(["/b/h.h", "/a/h.h", "/b/other.h"])
    d = IncludeDirective("h.h", IncludeForm.ANGLE, "/m.c")
    before = resolve_include(d, inv, small)
    after = resolve_include(d, inv, large)
    assert after.found is not None
    assert len(after.trace) <= len(before.trace)


_DIRS = ("/a", "/b", "/c")


@given(
    present=st.sets(st.sampled_from(_DIRS)),
    header=st.sampled_from(["x.h", "sub/y.h"]),
)
def test_trace_has_single_trailing_hit(present, header, profile):
    fs = FileSystemModel([posixpath.join(d, header) for d in present])
    inv = inv_for(["-I/a", "-I/b", "-I/c", "-nostdinc"], profile)
    res = resolve_include(IncludeDirective(header, IncludeForm.ANGLE, "/m.c"), inv, fs)
    if res.found is None:
        assert not any(p.hit for p in res.trace)
        assert len(res.trace) == len(_DIRS)
    else:
        assert res.trace[-1].hit
        assert res.trace[-1].candidate == res.found
        assert not any(p.hit for p in res.trace[:-1])
        expected_first = next(d for d in _DIRS if d in present)
        assert res.found == posixpath.join(expected_first, header)
