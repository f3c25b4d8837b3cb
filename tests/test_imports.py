"""Importing the package must not load `scipy.stats` or `multiprocessing`.

`scipy.stats` roughly doubles the start-up time and adds a third to the
peak memory of every `survcobra` command, and the package needs none of
it (ROADMAP aim 1, measured performance).  `multiprocessing` comes with
`ProcessPoolExecutor`, which only `bench --jobs N` with N > 1 uses; loaded
up front it cost every command about 0.4 MB of peak RSS.  Each
check runs in a fresh interpreter and looks at the set of loaded modules,
so it does not depend on timing.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = """
import sys
sys.path.insert(0, {src!r})
import survcobra, survcobra.cli
print(sorted(m for m in sys.modules if m == {name!r} or m.startswith({name!r} + ".")))
"""


def loaded_modules(name) -> str:
    """`name` and its submodules, as far as importing the package loads them."""
    script = SCRIPT.format(src=str(SRC), name=name)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_package_import_leaves_scipy_stats_unloaded():
    loaded = loaded_modules("scipy.stats")
    assert loaded == "[]", (
        f"importing survcobra loaded {loaded}: scipy.stats is kept out of the "
        "import graph for start-up time and memory (ROADMAP aim 1); "
        "use scipy.special or numpy instead"
    )


def test_package_import_leaves_multiprocessing_unloaded():
    loaded = loaded_modules("multiprocessing")
    assert loaded == "[]", (
        f"importing survcobra loaded {loaded}: the process pool of `bench --jobs` "
        "is imported where it is used, so no other command pays for it"
    )
