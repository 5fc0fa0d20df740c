"""tools/pairs.py's summary of alternating benchmark runs, on canned numbers."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"
SPEC = importlib.util.spec_from_file_location("pairs", PATH)
pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(pairs)

LOWER = {"name": "scan_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25}
HIGHER = {"name": "ok_share", "unit": "1", "better": "higher", "bound": 0.005}


def summary(metric, before, after):
    name = metric["name"]
    (row,) = pairs.summarize([metric], [{name: v} for v in before], [{name: v} for v in after])
    return row


def test_quartiles_are_inclusive():
    assert pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_gain_needs_nine_tenths_of_the_pairs():
    before = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]
    after = [0.8] * 9 + [1.1]
    row = summary(LOWER, before, after)
    assert row["wins"] == 9 and row["pairs"] == 10 and row["gain"]
    assert row["relative"] == pytest.approx(0.8 / 1.0 - 1)
    assert not summary(LOWER, before, [0.8] * 8 + [1.1, 1.1])["gain"]


def test_gain_needs_a_median_gap_beyond_the_parent_spread():
    # Every pair is won, but by less than the distance between the parent's quartiles.
    before = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]
    after = [v - 0.05 for v in before]
    row = summary(LOWER, before, after)
    assert row["wins"] == 10 and not row["gain"]


def test_ties_count_for_neither_side_and_higher_is_better():
    row = summary(HIGHER, [1.0] * 10, [1.0] * 10)
    assert row["wins"] == 0 and not row["gain"]
    row = summary(HIGHER, [0.5] * 10, [0.6] * 9 + [0.5])
    assert row["wins"] == 9 and row["gain"]


def test_report_has_a_line_per_metric():
    rows = pairs.summarize([LOWER, HIGHER], [{"scan_p50_ms": 1.0, "ok_share": 1.0}] * 2,
                           [{"scan_p50_ms": 0.5, "ok_share": 1.0}] * 2)
    lines = pairs.report(rows)
    assert len(lines) == 3
    assert lines[1].split()[0] == "scan_p50_ms" and "2/2" in lines[1] and "-50.0%" in lines[1]
    assert lines[2].split()[0] == "ok_share" and "0/2" in lines[2]
