import json

import pytest

from dialectoscope import load_profile
from gcc_oracle import pytest_collection_modifyitems, pytest_configure  # noqa: F401  marker hooks


@pytest.fixture(scope="session")
def profile():
    return load_profile()


# Golden value <-> flag-list table.  Tests treat this as frozen
# oracle data; any change to canonical rendering must reproduce it
# token for token.
GOLDEN_PAIRS = {
    0: "-funsigned-char -funsigned-bitfields -m32 -fhosted -std=c11",
    1: "-fsigned-char -funsigned-bitfields -m32 -fhosted -std=c11",
    7: "-fsigned-char -fsigned-bitfields -fshort-enums -m32 -fhosted -std=c11",
    42: "-funsigned-char -fsigned-bitfields -O2 -m32 -ffreestanding -std=c11",
    100: "-funsigned-char -funsigned-bitfields -fshort-enums -m32 -ffreestanding -std=c99",
    443: "-fsigned-char -fsigned-bitfields -O2 -m64 -ffreestanding -std=gnu17",
    640: "-funsigned-char -funsigned-bitfields -m32 -fhosted -std=gnu17 -trigraphs",
}


DISPATCH_SOURCE = """\
/* instruction dispatch loop */
#include "ops.h"

#if defined(__GNUC__) && defined(__OPTIMIZE__)
static void *dispatch_table[] = { &&op_add, &&op_halt };
#define DISPATCH() goto *dispatch_table[*pc++]
#else
#define DISPATCH() switch (*pc++)
#endif

void run(const unsigned char *pc) {
    DISPATCH();
}
"""


@pytest.fixture
def dispatch_source():
    return DISPATCH_SOURCE


def compile_db(entries, compiler="gcc"):
    """Build a compile_commands.json document from (file, flags) pairs."""
    return json.dumps(
        [
            {
                "directory": "/proj",
                "file": file,
                "command": f"{compiler} {flags} -c {file}" if flags else f"{compiler} -c {file}",
            }
            for file, flags in entries
        ]
    )


@pytest.fixture
def make_compile_db():
    return compile_db
