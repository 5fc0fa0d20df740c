"""tools/bitcheck.py runs to the end on this tree, so that a change breaking it shows here.

No hash is asserted: the tool's lines are compared between two trees, not
against stored values.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("mpmath")

ROOT = Path(__file__).resolve().parents[1]
CATEGORIES = ("order-d4", "order-d64", "order-extended", "deep", "builders", "flat-plans", "cli", "cli-files",
              "cli-usage")


def test_bitcheck_prints_every_category():
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "bitcheck.py"), str(ROOT)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    for name in CATEGORIES:
        assert any(re.fullmatch(rf"{re.escape(name)} +[1-9][0-9]* +[0-9a-f]{{64}}", line) for line in lines), name
    assert any(re.fullmatch(r"lines total +[1-9][0-9]*", line) for line in lines)


def test_bad_checkout_is_one_line_and_exit_2(tmp_path):
    # A path that is not a checkout raised ModuleNotFoundError for perfbench's `measure`.
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "bitcheck.py"), str(tmp_path)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == (f"bitcheck.py: {tmp_path.resolve()} is not a ddforge checkout: "
                             "it has no src/ddforge/__init__.py\n")
