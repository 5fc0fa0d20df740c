"""tools/bitcheck.py runs to the end on this tree, so that a change breaking it shows here.

No hash is asserted: the tool's lines are compared between two trees, not
against stored values.
"""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("mpmath")

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bitcheck", ROOT / "tools" / "bitcheck.py")
bitcheck = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bitcheck)
CATEGORIES = ("order-d4", "order-d64", "order-extended", "deep", "builders", "flat-plans", "cli", "cli-files",
              "cli-usage")


def test_bitcheck_prints_every_category():
    # Against itself, no order category moves, so nothing follows the line counts.
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "bitcheck.py"), str(ROOT), "--against", str(ROOT)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    for name in CATEGORIES:
        assert any(re.fullmatch(rf"{re.escape(name)} +[1-9][0-9]* +[0-9a-f]{{64}}", line) for line in lines), name
    assert re.fullmatch(r"lines total +[1-9][0-9]*", lines[-1])


def test_bad_checkout_is_one_line_and_exit_2(tmp_path):
    # A path that is not a checkout raised ModuleNotFoundError for perfbench's `measure`.
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "bitcheck.py"), str(tmp_path)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == (f"bitcheck.py: {tmp_path.resolve()} is not a ddforge checkout: "
                             "it has no src/ddforge/__init__.py\n")


@pytest.mark.parametrize("argv, message", [
    (["--against", "MISSING"], "bitcheck.py: {missing} is not a ddforge checkout: it has no src/ddforge/__init__.py\n"),
    (["--versus", str(ROOT)], "usage: bitcheck.py ROOT [--against PARENT]\n"),
    (["--against"], "usage: bitcheck.py ROOT [--against PARENT]\n"),
], ids=["bad-parent", "bad-flag", "no-parent"])
def test_bad_arguments_are_one_line_and_exit_2(tmp_path, argv, message):
    # A bad PARENT is named before any work, as a bad ROOT is.
    argv = [str(tmp_path) if arg == "MISSING" else arg for arg in argv]
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "bitcheck.py"), str(ROOT), *argv],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == message.format(missing=tmp_path.resolve())


def scan(values, floor, slopes):
    # order_category's record of one scan: its rows (three functionals, floor, alpha_t) and its slopes.
    rows = [{"E_flip": v, "E_dephase": v / 2, "E_total": v, "floor": floor, "alpha_t": 1e-3 * (i + 1)}
            for i, v in enumerate(values)]
    return rows, dict(zip(("E_flip", "E_dephase", "E_total"), slopes))


def test_moved_names_the_largest_changes():
    parent = {"a": scan([1.0, 2.0], 0.5, [4.0, 1.0, 4.0]), "b": scan([3.0], 0.1, [2.0, None, 2.0]), "c": None}
    change = {"a": scan([1.0, 2.25], 0.5, [4.0, 1.0, 4.0]), "b": scan([3.02], 0.2, [2.5, 1.0, 2.0]),
              "c": scan([1.0], 1.0, [1.0, 1.0, 1.0])}
    lines = bitcheck.moved("order-d64", parent, change)
    # a's E_flip moved 0.25, half its floor; b's E_flip 0.02, a fifth of its floor at PARENT.
    assert lines[0] == ("order-d64 moved: largest value change 0.5 floors (a E_flip at alpha_t = 0.002), "
                        "largest slope change 0.5 (b E_flip)")
    assert lines[1:] == ["order-d64 on one side only: b E_dephase slope is defined", "order-d64 on one side only: c raises"]


def test_moved_reads_zero_for_equal_records():
    records = {"a": scan([1.0, 2.0], 0.5, [4.0, None, 4.0]), "b": None}
    assert bitcheck.moved("order-d4", records, records) == [
        "order-d4 moved: largest value change 0 floors (none), largest slope change 0 (none)"]
