#!/usr/bin/env python3
"""Fingerprint what a ddforge tree computes, to check a change for bit-identity.

Usage: ``python tools/bitcheck.py ROOT [--against PARENT]``, where ROOT
and PARENT are checkouts (this repository, or copies of other commits).  The
script imports ``ROOT/src`` and ``ROOT/perfbench`` (read-only) in this
process, on one BLAS thread, and prints one line per category: its name,
the number of entries and the sha256 of their bytes.  A ROOT or PARENT
without those files gets one line naming the first one missing, and exit
code 2, before any work.

- ``order-d4``, ``order-d64``, ``order-extended``: every row value and
  floor and every fitted slope of that workload's benchmark order scans, as
  ``float.hex``, or the exception a scan raised; one line per workload, so
  that a difference names it.
- ``deep``: the pulse count, entanglement fidelity and unitary bytes of
  every simulate-deep point.
- ``builders``: the flat arrays, label, family and block record (each
  level's copy frames, then the leaf's arrays) of a sweep over every family
  builder and over concatenations of structured bases.
- ``flat-plans``: every double and extended value and floor, as
  ``float.hex``, or the exception a point failed with, at d = 4, seed 7 on
  the default grid, of the flat schedules in ``FLAT_PLANS``.  They are
  composed segment by segment, and some of their exact instants are not
  dyadic, which no benchmark scan composes.
- ``cli``: the argv, exit code, stdout, stderr and written files (name and
  bytes) of each ``cli.main`` call in ``CLI_CALLS``, run in this process in
  a fresh temporary directory with ``DDFORGE_SEED`` unset; file outputs are
  written with ``--no-meta``.
- ``cli-files``: the same for the calls in ``CLI_FILES_CALLS``, which read
  the config and model files of ``CLI_FILES``, written into their temporary
  directory first.
- ``cli-usage``: the same for the calls in ``CLI_USAGE_CALLS``, each an
  exit-2 call: a count option failing the count rule, or a family given a
  parameter it does not take or a value it refuses.

It then prints the code lines of each ``src/ddforge`` module and their total,
counted without docstrings, comments or blank lines.  Run it on two trees
and compare: equal hashes mean equal bits.

With ``--against PARENT`` it runs the order workloads of PARENT in a child
process and, for each order category whose hash differs, prints how far
the values moved: the largest change of a row value (E_flip, E_dephase,
E_total) in units of that row's floor at PARENT, and the largest change of
a fitted slope, each with the scan and functional it was found at, and the
scans that raise, or fit a slope, on one side only.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tokenize
from pathlib import Path

ORDER_WORKLOADS = ("order-d4", "order-d64", "order-extended")
FUNCTIONALS = ("E_flip", "E_dephase", "E_total")
# The files of a checkout this script imports.
CHECKOUT = ("src/ddforge/__init__.py", "perfbench/measure.py", "perfbench/workloads.py")


def one_blas_thread() -> None:
    """Pin BLAS to one thread; called before the checkout's code, and so numpy, is imported."""
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = os.environ["MKL_NUM_THREADS"] = "1"


class Category:
    """A running sha256 over the entries of one category, and their count."""

    def __init__(self, name: str):
        self.name, self.count, self.digest = name, 0, hashlib.sha256()

    def add(self, *parts) -> None:
        self.count += 1
        self.digest.update(repr(parts).encode() + b"\n")

    def line(self) -> str:
        return f"{self.name:<14} {self.count:>6}  {self.digest.hexdigest()}"


def failure(err: Exception) -> tuple:
    return type(err).__name__, str(err), getattr(err, "t", None)


def order_category(measure, workloads, workload: str, scans: dict | None = None) -> Category:
    """The category's hash; with a dict scans, also each scan's rows and slopes (or None where it raised) by label."""
    out, inputs = Category(workload), measure.Inputs(workload)
    for scan in workloads.order_scans(workload):
        call = inputs.order_call(scan)
        try:
            rows, fits = measure.run_order(call, scan.precision)
        except Exception as err:  # noqa: BLE001 - a raising scan is an entry too
            out.add(scan.label, failure(err))
            if scans is not None:
                scans[scan.label] = None
            continue
        values = [(k, v.hex() if isinstance(v, float) else v) for row in rows for k, v in row.items()]
        slopes = [(k, None if f.slope is None else f.slope.hex()) for k, f in fits.items()]
        out.add(scan.label, values, slopes)
        if scans is not None:
            scans[scan.label] = ([{k: row[k] for k in (*FUNCTIONALS, "floor", "alpha_t")} for row in rows],
                                 {k: f.slope for k, f in fits.items()})
    return out


def order_records(root: str) -> dict:
    """Per order workload of the checkout at root: its hash and ``order_category``'s scans.  Imports root's code."""
    one_blas_thread()
    sys.path[:0] = [str(Path(root) / "src"), str(Path(root) / "perfbench")]
    import measure
    import workloads

    records = {}
    for workload in ORDER_WORKLOADS:
        scans = {}
        records[workload] = (order_category(measure, workloads, workload, scans).digest.hexdigest(), scans)
    return records


def parent_records(parent: Path) -> dict:
    """``order_records`` of the checkout parent, from a child process, so that its code is imported apart."""
    code = (f"import json, sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); import bitcheck; "
            f"print(json.dumps(bitcheck.order_records({str(parent)!r})))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def moved(name: str, parent: dict, change: dict) -> list[str]:
    """How far one order workload moved, as lines, from ``order_category``'s scans at PARENT and at ROOT."""
    value, slope, one_sided = (0.0, "none"), (0.0, "none"), []
    for label, before in parent.items():
        after = change.get(label)
        if (before is None) != (after is None):
            one_sided.append(f"{label} raises")
        if before is None or after is None:
            continue
        for row_before, row_after in zip(before[0], after[0]):
            for key in FUNCTIONALS:
                delta, floor = abs(row_after[key] - row_before[key]), row_before["floor"]
                units = delta / floor if floor else math.inf if delta else 0.0
                if units > value[0]:
                    value = (units, f"{label} {key} at alpha_t = {row_before['alpha_t']:.3g}")
        for key, before_slope in before[1].items():
            after_slope = after[1][key]
            if (before_slope is None) != (after_slope is None):
                one_sided.append(f"{label} {key} slope is defined")
            elif before_slope is not None and abs(after_slope - before_slope) > slope[0]:
                slope = (abs(after_slope - before_slope), f"{label} {key}")
    return ([f"{name} moved: largest value change {value[0]:.3g} floors ({value[1]}), "
             f"largest slope change {slope[0]:.3g} ({slope[1]})"]
            + [f"{name} on one side only: {entry}" for entry in one_sided])


def deep_category(measure, workloads, evolution, sequences) -> Category:
    out = Category("deep")
    inputs = measure.Inputs("simulate-deep")
    for scan in workloads.deep_scans():
        family, ops, durations = inputs.deep_call(scan)
        for t in durations:
            seq = sequences.build_sequence(family.name, t, **dict(family.params))
            u = evolution.sequence_unitary(seq, ops)
            out.add(scan.label, t.hex(), seq.pulse_count, evolution.entanglement_fidelity(u).hex(), u.u.tobytes())
    return out


# Built flat schedules, then block schedules read back from JSON, which lose their blocks.
FLAT_PLANS = (("pdd", {"n": 5}, False), ("pdd", {"n": 6}, False), ("icpmg", {"c": 3}, False),
              ("udd2", {"n": 2}, True), ("udd2", {"n": 4}, True), ("cpmg-udd", {"m": 2, "c": 3}, True))


def flat_plans_category(sequences, bath, analysis, effective, highprec) -> Category:
    out = Category("flat-plans")
    ops = bath.build_model(bath.ModelSpec(d=4, seed=7))
    grid = analysis.default_t_grid(bath.alpha(ops))
    for name, params, from_json in FLAT_PLANS:
        seq = sequences.build_sequence(name, 1.0, **params)
        if from_json:
            seq = sequences.schedule_from_json(sequences.schedule_to_json(seq))
        for engine in (effective.DOUBLE, highprec.EXTENDED):
            eff, errors = effective.evaluate(seq, ops, grid, engine)[:2]
            values = {**effective.error_functionals(eff), "floor": eff.floor}
            hexes = [(key, [x.hex() for x in value.tolist()]) for key, value in values.items()]
            failures = [None if e is None else failure(e) for e in errors]
            out.add(seq.label, from_json, engine is effective.DOUBLE, hexes, failures)
    return out


def builder_sweep(sequences):
    """(name, schedule) for every family setting of the sweep; ``none`` takes no axis, and is built once per axis."""
    s = sequences
    for name in ("none", "se", "cpmg"):
        for axis in "XYZ":
            yield f"{name}-{axis}", s.build_sequence(name, **({} if name == "none" else {"axis": axis}))
    for n in range(1, 21):
        yield f"udd-{n}", s.udd_sequence(n, axis="XYZ"[n % 3])
        yield f"pdd-{n}", s.pdd(n, axis="XYZ"[n % 3])
    for c in (1, 2, 3, 4, 7, 64):
        yield f"icpmg-{c}", s.icpmg(c, axis="XYZ"[c % 3])
    for level in range(8):
        yield f"cdd-{level}", s.cdd_full(level)
    for level in range(11):
        yield f"cddxx-{level}", s.cdd_xx(level)
    for m in range(1, 6):
        for n in range(7):
            yield f"cudd-{m},{n}", s.cudd(m, n)
    for m in range(1, 4):
        for c in (1, 2, 3, 4, 64):
            yield f"cpmg-udd-{m},{c}", s.cpmg_udd(m, c)
    for n in range(1, 16):
        yield f"udd2-{n}", s.udd2_approx(n)
    bases = {"udd-1": s.udd_sequence(1), "udd-3": s.udd_sequence(3), "cudd-2,2": s.cudd(2, 2),
             "cpmg-udd-1,1": s.cpmg_udd(1, 1), "udd2-2": s.udd2_approx(2),
             "edges": s.PulseSequence(1.0, (s.Pulse(0.0, "Z"), s.Pulse(0.5, "Z")))}
    for key, base in bases.items():
        for level in range(4):
            yield f"cdd-{level}/{key}", s.cdd_full(level, base=base)
            yield f"cddxx-{level}/{key}", s.cdd_xx(level, base=base)


def builders_category(sequences) -> Category:
    out = Category("builders")
    for name, seq in builder_sweep(sequences):
        node, frames = seq.blocks, []
        while node is not None and not isinstance(node, sequences.PulseSequence):
            frames.append(node.frames.tobytes())
            node = node.child
        leaf = None if node is None else ([a.tobytes() for a in node._arrays[:4]], node.denominator)
        arrays = [a.tobytes() for a in seq._arrays[:4]]
        out.add(name, seq.label, sorted(seq.family.items()), arrays, seq.denominator, frames, leaf)
    return out


# One call per line: each subcommand, both engines, a seed ensemble, d = 64, and an exit-2 and an exit-3 case.
CLI_CALLS = (
    ("gen", "cudd", "--m", "2", "--n", "2", "--t", "0.5", "--out", "cudd.json"),
    ("gen", "udd", "--n", "5", "--axis", "X", "--out", "udd.json"),
    ("order", "udd", "--n", "2", "--seed", "7", "--out", "scan.csv", "--summary", "fit.json", "--no-meta"),
    ("order", "cudd", "--m", "2", "--n", "2", "--seeds", "7,8", "--functional", "total"),
    ("order", "udd", "--n", "3", "--seed", "7", "--precision", "extended", "--out", "extended.csv", "--no-meta"),
    ("order", "cpmg", "--d", "64", "--seed", "7", "--points", "4", "--functional", "dephase"),
    ("compare", "--seq", "udd,n=3", "--seq", "cdd,m=2", "--seq", "cpmg,axis=X", "--seed", "7"),
    ("compare", "--seq", "udd,n=4", "--seq", "cudd,m=2,n=2", "--seed", "8", "--precision", "extended"),
    ("counts", "--m-max", "8", "--out", "counts.csv", "--no-meta"),
    ("crossover",),
    ("predict-magnus", "--seed", "7", "--halvings", "2"),
    ("order", "udd", "--n", "0", "--seed", "7"),
    ("order", "none", "--seed", "7", "--at-max", "2"),
)


# Calls that break the count rule or the family rule: each exits 2 naming the count or the parameter.
CLI_USAGE_CALLS = (
    ("order", "cdd", "--m", "-1"),
    ("order", "cpmg-udd", "--m", "2", "--c", "0"),
    ("order", "icpmg", "--c", "0"),
    ("order", "cddxx", "--n", "-1"),
    ("counts", "--m-max", "0"),
    ("crossover", "--n-max", "0"),
    ("predict-magnus", "--halvings", "-1"),
    ("order", "udd", "--n", "2", "--points", "2"),
    ("order", "udd", "--n", "2", "--seeds", "7,-1"),
    ("order", "cdd", "--m", "2", "--axis", "X"),
    ("gen", "none", "--axis", "Y"),
    ("compare", "--seq", "cdd,m=2,axis=X"),
    ("compare", "--seq", "udd,n=x"),
)


# Calls that take their options from a --config file and their bath from a --model file, and those files.
CLI_FILES_CALLS = (
    ("order", "udd", "--config", "order.json", "--model", "model.json", "--out", "scan.csv", "--no-meta"),
    ("compare", "--config", "compare.json", "--model", "model.json"),
    ("predict-magnus", "--config", "magnus.json", "--model", "dephasing.json"),
)
CLI_FILES = {
    "order.json": {"n": 2, "points": 5, "seeds": [7, 8], "functional": "total", "at_max": 0.005},
    "compare.json": {"seq": ["udd,n=3", "cdd,m=2"], "t": 0.02, "precision": "extended"},
    "magnus.json": {"level": 1, "tau0": 0.02, "halvings": 2},
    "model.json": {"d": 4, "seed": 7, "preset": "generic", "norm_targets": {"x": 0.5, "z": 0.25}},
    "dephasing.json": {"d": 4, "seed": 8, "preset": "pure_dephasing", "norm_targets": {"z": 0.5}},
}


def cli_category(cli, name: str, calls: tuple, inputs: dict) -> Category:
    """The calls' fingerprints, run after the inputs (file name: JSON value) are written; they are not outputs."""
    out = Category(name)
    os.environ.pop("DDFORGE_SEED", None)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for file, value in inputs.items():
                Path(file).write_text(json.dumps(value))
            for argv in calls:
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(list(argv))
                files = []
                for path in sorted(p for p in Path(work).iterdir() if p.name not in inputs):
                    files.append((path.name, path.read_bytes()))
                    path.unlink()
                out.add(argv, code, stdout.getvalue(), stderr.getvalue(), files)
        finally:
            os.chdir(home)
    return out


def code_lines(path: Path) -> int:
    """Lines holding code: not blank, not only a comment, not part of a docstring."""
    source = path.read_text()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in skip:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 3) or argv[1:2] not in ([], ["--against"]):
        print("usage: bitcheck.py ROOT [--against PARENT]", file=sys.stderr)
        return 2
    root, parent = (Path(path).resolve() for path in (argv[0], argv[-1]))
    for tree in dict.fromkeys((root, parent)):
        missing = [name for name in CHECKOUT if not (tree / name).is_file()]
        if missing:
            print(f"bitcheck.py: {tree} is not a ddforge checkout: it has no {missing[0]}", file=sys.stderr)
            return 2
    one_blas_thread()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import measure
    import workloads

    from ddforge import analysis, bath, cli, effective, evolution, highprec, sequences

    scans = {workload: {} for workload in ORDER_WORKLOADS}
    categories = [order_category(measure, workloads, workload, scans[workload]) for workload in ORDER_WORKLOADS]
    for category in (*categories, deep_category(measure, workloads, evolution, sequences),
                     builders_category(sequences), flat_plans_category(sequences, bath, analysis, effective, highprec),
                     cli_category(cli, "cli", CLI_CALLS, {}),
                     cli_category(cli, "cli-files", CLI_FILES_CALLS, CLI_FILES),
                     cli_category(cli, "cli-usage", CLI_USAGE_CALLS, {})):
        print(category.line())
    modules = {path.stem: code_lines(path) for path in sorted((root / "src" / "ddforge").glob("*.py"))}
    for name, count in modules.items():
        print(f"lines {name:<14} {count:>5}")
    print(f"lines {'total':<14} {sum(modules.values()):>5}")
    if len(argv) == 3:
        for category, (digest, before) in zip(categories, parent_records(parent).values()):
            if category.digest.hexdigest() != digest:
                print(*moved(category.name, before, scans[category.name]), sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
