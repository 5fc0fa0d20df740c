"""tools/truthcheck.py's counts on this tree: a change that adds a silent wrong fit, or moves any case, fails here.

A change that moves a case changes the pin, and CHANGES.md says which cases moved and why.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# The outcomes of the 108 runs (ROADMAP.md item 17).  The 27 silent wrong fits are all extended: UDD-5..10,
# CUDD(3,3), CUDD(4,4) and UDD2-3 at every seed, whose float instants make them lower-order schedules (item 1).
COUNTS = {"right": 42, "right, warned": 17, "wrong, warned": 22, "exit 3": 0, "silent wrong": 27}


def test_truth_counts_are_pinned():
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "truthcheck.py"), str(ROOT)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    counts = {line[:14].strip(): int(line[14:]) for line in lines[:len(COUNTS)]}
    assert counts == COUNTS, result.stdout
    assert len(lines) == len(COUNTS) + COUNTS["silent wrong"]
