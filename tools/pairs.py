#!/usr/bin/env python3
"""Alternating benchmark runs of two checkouts, and whether a claimed gain meets the pair rule.

Usage: ``python tools/pairs.py PARENT CHANGE --workload W --pairs N``, where
PARENT and CHANGE are checkouts (this repository, or copies of other
commits), and W is a workload, a comma-separated list of them, or ``all``
(every workload of the parent's ``BENCHMARK.json``).  Pair i runs
``perfbench/run.py --workload W --seed 7+i --trace 0`` once in each checkout
per workload, from its root, the parent first in even pairs and the change
first in odd ones, and prints both runs' end-to-end metrics as they come.
Then, per workload, it prints a table: per end-to-end metric of the parent's
``BENCHMARK.json``, each side's quartiles (p25 / median / p75), the pairs the
change won (a tie counts for neither side), the change of the median,
whether a gain meets the rule: the change wins at least nine tenths of the
pairs, and its median is better than the parent's by more than the distance
between the parent's quartiles, and whether a change that claims no gain
held the metric, against the metric's relative ``bound``:

- ``worse``: the change's median is worse than the parent's by more than
  bound times the parent's median;
- ``unresolved``: the parent's quartiles lie further apart than bound times
  its median, and not every change run beats every parent run;
- ``held`` otherwise.

A checkout without ``BENCHMARK.json`` or ``perfbench/run.py`` gets one line
naming it, and exit code 2, before any run.  A run that fails ends the
script with exit code 1, after a line naming its pair, seed, side, workload
and exit code, and the last lines of its stderr.

The script only starts ``run.py``, which writes its records to
``perfbench/out/`` in each checkout.  It runs nothing else in the meantime, as
a second process would share the cores the runs are timed on.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
from pathlib import Path

FIRST_SEED = 7
# The files of a checkout this script reads or runs.
CHECKOUT = ("BENCHMARK.json", "perfbench/run.py")
# The lines of a failed run's stderr that are printed.
STDERR_TAIL = 8


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(p25, median, p75) of values, inclusive of the extremes; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, median, high


def summarize(metrics: list[dict], parent: list[dict], change: list[dict]) -> list[dict]:
    """Per metric of ``BENCHMARK.json``'s end_to_end list: both sides' quartiles, the wins, the rule, the verdict.

    parent[i] and change[i] map each metric's name to its value in pair i.
    """
    out = []
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        before, after = [run[name] for run in parent], [run[name] for run in change]
        wins = sum(b < a if lower else b > a for a, b in zip(before, after))
        (p25, p50, p75), (c25, c50, c75) = quartiles(before), quartiles(after)
        gap = p50 - c50 if lower else c50 - p50
        bound = metric["bound"] * p50
        beats_all = max(after) < min(before) if lower else min(after) > max(before)
        verdict = "worse" if -gap > bound else "unresolved" if p75 - p25 > bound and not beats_all else "held"
        out.append({"name": name, "unit": metric["unit"], "parent": (p25, p50, p75), "change": (c25, c50, c75),
                    "wins": wins, "pairs": len(before), "relative": c50 / p50 - 1 if p50 else None,
                    "gain": wins >= 0.9 * len(before) and gap > p75 - p25, "verdict": verdict})
    return out


def report(rows: list[dict]) -> list[str]:
    """The lines ``main`` prints for ``summarize``'s rows."""
    lines = [f"{'metric':<16} {'parent p25 / p50 / p75':>32} {'change p25 / p50 / p75':>32} "
             f"{'wins':>7} {'median':>8}  gain  verdict"]
    for row in rows:
        sides = ["{:.4g} / {:.4g} / {:.4g}".format(*row[side]) for side in ("parent", "change")]
        relative = "n/a" if row["relative"] is None else f"{row['relative']:+.1%}"
        lines.append(f"{row['name']:<16} {sides[0]:>32} {sides[1]:>32} {row['wins']:>3}/{row['pairs']:<3} "
                     f"{relative:>8}  {'yes' if row['gain'] else 'no':<4}  {row['verdict']:<10}  ({row['unit']})")
    return lines


def run_benchmark(root: Path, workload: str, seed: int) -> dict:
    """The end-to-end metrics of one ``run.py`` run in the checkout at root, by name."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True, help="a workload, a comma-separated list, or all")
    ap.add_argument("--pairs", type=int, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, root in sides.items():
        missing = [name for name in CHECKOUT if not (root / name).is_file()]
        if missing:
            print(f"pairs.py: the {side} {root} is not a ddforge checkout: it has no {missing[0]}", file=sys.stderr)
            return 2
    bench = json.loads((sides["parent"] / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    workloads = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
                 else args.workload.split(","))
    runs = {workload: {"parent": [], "change": []} for workload in workloads}
    for pair in range(args.pairs):
        seed = FIRST_SEED + pair
        for workload, side in itertools.product(workloads, ("parent", "change") if pair % 2 == 0
                                                 else ("change", "parent")):
            try:
                runs[workload][side].append(run_benchmark(sides[side], workload, seed))
            except subprocess.CalledProcessError as err:
                tail = (err.stderr or "").rstrip().splitlines()[-STDERR_TAIL:]
                print(f"pair {pair} seed {seed} {side} {workload}: run.py exited with code {err.returncode};"
                      " the end of its stderr:", *tail, sep="\n", file=sys.stderr)
                return 1
            values = "  ".join(f"{m['name']} {runs[workload][side][-1][m['name']]:.6g}" for m in metrics)
            print(f"pair {pair} seed {seed} {side:<6} {workload:<15} {values}", flush=True)
    for workload in workloads:
        print(f"\n{workload}:", *report(summarize(metrics, runs[workload]["parent"], runs[workload]["change"])),
              sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
