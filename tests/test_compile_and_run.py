"""The compile-and-run primitive of ``probe verify`` on C text that is not
the probe.

``return 2 //**/ 2`` is the point of dialect analysis in one line: C90
has no line comments, so it reads ``2 / 2``, while C99 and GNU89 end the
line at ``//`` and return 2.  The tests run gcc and the probe driver; the
-m32 case skips when gcc cannot build and run -m32 code.
"""

import pytest
from gcc_oracle import GCC, m32_failure

from dialectoscope.probe import _compile_and_run

SOURCE = "unsigned f(void) { return 2 //**/ 2\n; }\n"


@pytest.mark.gcc(driver=True)
@pytest.mark.parametrize("width", ["-m64", "-m32"])
def test_each_label_gets_its_own_build_and_line(width):
    if width == "-m32" and (failure := m32_failure()):
        pytest.skip(f"gcc cannot build and run -m32 code here ({failure})")
    # Labels out of order and not contiguous, and a build that does not
    # compile between builds that do.
    flags = {90: ["-std=c90"], 7: ["-std=c99"], 189: ["-fno-such-flag"], 3: ["-std=gnu89"]}
    builds = {label: (width, [width, *more]) for label, more in flags.items()}
    results, failures = _compile_and_run(GCC, SOURCE, "f", builds, jobs=2)
    assert results == {90: 1, 7: 2, 3: 2}
    assert list(failures) == [189]
    assert failures[189].startswith(f"compile failed ({width} -fno-such-flag): ")
    assert "-fno-such-flag" in failures[189].partition(": ")[2]
