"""Importing the package must not load `scipy.stats`.

`scipy.stats` roughly doubles the start-up time and adds a third to the
peak memory of every `survcobra` command, and the package needs none of
it (ROADMAP aim 1, measured performance).  The check runs in a fresh
interpreter and looks at the set of loaded modules, so it does not depend
on timing.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCRIPT = f"""
import sys
sys.path.insert(0, {str(SRC)!r})
import survcobra, survcobra.cli
print(sorted(m for m in sys.modules if m == "scipy.stats" or m.startswith("scipy.stats.")))
"""


def test_package_import_leaves_scipy_stats_unloaded():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.strip()
    assert loaded == "[]", (
        f"importing survcobra loaded {loaded}: scipy.stats is kept out of the "
        "import graph for start-up time and memory (ROADMAP aim 1); "
        "use scipy.special or numpy instead"
    )
