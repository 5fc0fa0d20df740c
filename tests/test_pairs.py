"""tools/pairs.py: the summary of alternating benchmark runs on canned numbers, and its failures with runs faked."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PATH = ROOT / "tools" / "pairs.py"
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


def test_bad_checkout_is_one_line_and_exit_2(tmp_path, capsys, monkeypatch):
    # A path without BENCHMARK.json raised FileNotFoundError; it is named before any run starts.
    monkeypatch.setattr(pairs, "run_benchmark", lambda *args: pytest.fail("no run may start"))
    for argv in ([tmp_path, ROOT], [ROOT, tmp_path]):
        code = pairs.main([*map(str, argv), "--workload", "order-d4", "--pairs", "1"])
        out, err = capsys.readouterr()
        side = "parent" if argv[0] == tmp_path else "change"
        assert code == 2 and out == ""
        assert err == f"pairs.py: the {side} {tmp_path.resolve()} is not a ddforge checkout: it has no BENCHMARK.json\n"


def test_failed_run_names_side_pair_seed_and_stderr(capsys, monkeypatch):
    # A failed run.py raised CalledProcessError, which hid the side, the pair, the seed and the run's stderr.
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    stderr = "".join(f"line {i}\n" for i in range(20)) + "run.py: error: argument --workload: invalid choice: 'nope'\n"
    calls = []

    def run_benchmark(root, workload, seed):
        calls.append(seed)
        if len(calls) == 4:  # pair 1 runs the change first, then the parent
            raise subprocess.CalledProcessError(2, ["run.py"], output="", stderr=stderr)
        return dict.fromkeys(names, 1.0)

    monkeypatch.setattr(pairs, "run_benchmark", run_benchmark)
    code = pairs.main([str(ROOT), str(ROOT), "--workload", "nope", "--pairs", "3"])
    out, err = capsys.readouterr()
    assert code == 1 and calls == [7, 7, 8, 8]
    assert len(out.splitlines()) == 3 and "metric" not in out
    lines = err.splitlines()
    assert lines[0] == "pair 1 seed 8 parent nope: run.py exited with code 2; the end of its stderr:"
    assert lines[1:] == stderr.splitlines()[-pairs.STDERR_TAIL:]


@pytest.mark.parametrize("workload", ["all", "order-d4,simulate-deep"])
def test_several_workloads_print_a_table_each(capsys, monkeypatch, workload):
    # Each pair runs every workload on both sides, at the pair's seed, and each workload gets its own table.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"]]
    workloads = [w["name"] for w in bench["workloads"]] if workload == "all" else workload.split(",")
    calls = []

    def run_benchmark(root, name, seed):
        calls.append((name, seed))
        return dict.fromkeys(names, 1.0 + workloads.index(name) + 0.5 * (len(calls) % 2))

    monkeypatch.setattr(pairs, "run_benchmark", run_benchmark)
    assert pairs.main([str(ROOT), str(ROOT), "--workload", workload, "--pairs", "2"]) == 0
    out = capsys.readouterr().out
    assert sorted(calls) == sorted((name, seed) for name in workloads for seed in (7, 8) for _ in range(2))
    progress, *tables, record = out.split("\n\n")
    assert len(progress.splitlines()) == 2 * 2 * len(workloads)
    assert list(json.loads(record)) == workloads
    assert [table.splitlines()[0] for table in tables] == [f"{name}:" for name in workloads]
    for table in tables:
        rows = table.splitlines()[2:]
        assert [row.split()[0] for row in rows] == names


@pytest.mark.parametrize("verdict, before, after", [
    ("held", [1.0, 1.02, 0.98, 1.01, 0.99, 1.0], [1.03, 1.0, 1.05, 0.99, 1.04, 1.02]),
    ("worse", [1.0, 1.02, 0.98, 1.01, 0.99, 1.0], [1.3, 1.28, 1.31, 1.27, 1.3, 1.29]),
    ("unresolved", [1.0, 0.6, 1.4, 0.7, 1.3, 1.0], [0.9, 0.8, 1.2, 1.1, 1.0, 0.95]),
], ids=["held", "worse", "unresolved"])
def test_verdict_against_the_bound(capsys, monkeypatch, verdict, before, after):
    # A no-gain change must show that each metric held: its median within the bound (25% for scan_p50_ms) of
    # the parent's, where the parent's quartiles lie within the bound of each other.
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []

    def run_benchmark(root, workload, seed):
        pair, first = divmod(len(calls), 2)
        calls.append(seed)
        side = before if (pair % 2 == 0) == (first == 0) else after
        return {**dict.fromkeys(names, 1.0), "scan_p50_ms": side[pair]}

    monkeypatch.setattr(pairs, "run_benchmark", run_benchmark)
    assert pairs.main([str(ROOT), str(ROOT), "--workload", "order-d4", "--pairs", str(len(before))]) == 0
    table = capsys.readouterr().out.split("\n\n")[1].splitlines()
    assert table[1].split()[-1] == "verdict"
    verdicts = {row.split()[0]: row.split()[-2] for row in table[2:]}
    assert verdicts == {**dict.fromkeys(names, "held"), "scan_p50_ms": verdict}


@pytest.mark.parametrize("workload, pairs_asked, warned", [
    ("order-extended", 10, True), ("order-extended", 20, False), ("order-d4", 10, False),
    ("order-d4,order-extended", 19, True),
], ids=["extended-10", "extended-20", "d4-10", "list-19"])
def test_too_few_pairs_on_order_extended_warns(capsys, monkeypatch, workload, pairs_asked, warned):
    # With 10 pairs a 15% order-extended gain can misread; the run still goes ahead as asked.
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    calls = []
    monkeypatch.setattr(pairs, "run_benchmark", lambda root, name, seed: calls.append(seed) or dict.fromkeys(names, 1.0))
    assert pairs.main([str(ROOT), str(ROOT), "--workload", workload, "--pairs", str(pairs_asked)]) == 0
    err = capsys.readouterr().err
    assert len(calls) == 2 * pairs_asked * len(workload.split(","))
    want = f"pairs.py: warning: order-extended needs at least 20 pairs to read a gain, got {pairs_asked}\n"
    assert err == (want if warned else "")


def test_last_line_is_the_bench_record(capsys, monkeypatch):
    # Each PR ran pairs.py, and none committed its record: the change side's medians and verdicts were only printed.
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    sides = {"parent": [1.0, 1.1, 0.9, 1.0, 1.2], "change": [2.0, 2.2, 1.8, 2.1, 1.9]}
    calls = []

    def run_benchmark(root, workload, seed):
        pair, first = divmod(len(calls), 2)
        side = "parent" if (pair % 2 == 0) == (first == 0) else "change"
        calls.append(side)
        return {**dict.fromkeys(units, 1.0), "scan_p50_ms": sides[side][pair]}

    monkeypatch.setattr(pairs, "run_benchmark", run_benchmark)
    assert pairs.main([str(ROOT), str(ROOT), "--workload", "order-d4", "--pairs", "5"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-2] == ""
    record = json.loads(out.splitlines()[-1])
    assert list(record) == ["order-d4"] and record["order-d4"]["pairs"] == 5
    metrics = record["order-d4"]["metrics"]
    assert list(metrics) == list(units)
    assert metrics["scan_p50_ms"] == {"value": 2.0, "unit": "ms", "verdict": "worse"}
    assert all(metrics[name] == {"value": 1.0, "unit": unit, "verdict": "held"}
               for name, unit in units.items() if name != "scan_p50_ms")
