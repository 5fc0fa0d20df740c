#!/usr/bin/env python3
"""Score the suppression orders ``ddforge order`` fits against their known values.

Usage: ``python tools/truthcheck.py ROOT``, where ROOT is a checkout (this
repository, or a copy of another commit).  The script imports ``ROOT/src``
in this process, on one BLAS thread, and runs each case of ``CASES`` through
``cli.main``: ``order FAMILY ... --seed S --functional flip`` on the default
window, in double for every family and ``--precision extended`` for all but
``DOUBLE_ONLY``.  Each run gets one outcome:

- ``right``: exit 0, no warning, slope within ``TOLERANCE`` of the order;
- ``right, warned``: the same with a warning on stderr;
- ``wrong, warned``: exit 0 and a warning, the slope farther off or not defined;
- ``exit 3``: the command refused the value as unresolved;
- ``silent wrong``: exit 0, no warning, and the slope farther off or not defined.

It prints one line per outcome with its count, then one line per silent
wrong case.  Any other exit code is a broken case: it is printed, and the
script exits 1.  A ROOT without ``src/ddforge/__init__.py`` gets one line
naming it, and exit code 2.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = os.environ["MKL_NUM_THREADS"] = "1"

# A fitted slope within this of the known order is right.
TOLERANCE = 0.25
SEEDS = (7, 8, 9)
OUTCOMES = ("right", "right, warned", "wrong, warned", "exit 3", "silent wrong")

# (family, its count parameters, its E_flip suppression order).  Sources: UDD-n, n + 1 (Uhrig, PRL 98, 100504
# (2007); Yang & Liu, PRL 101, 180403 (2008), for any bath); CDD-m, m + 1 (Khodjasteh & Lidar, PRL 95, 180501
# (2005)); CUDD and UDD2 from exact-instant compositions of the schedules (ROADMAP.md item 2).
CASES = (
    *(("udd", {"n": n}, n + 1) for n in range(1, 11)),
    *(("cdd", {"m": m}, m + 1) for m in range(2, 6)),
    ("cudd", {"m": 2, "n": 2}, 3),
    ("cudd", {"m": 3, "n": 3}, 5),
    ("cudd", {"m": 4, "n": 4}, 5),
    ("udd2", {"n": 2}, 3),
    ("udd2", {"n": 3}, 5),
)
# Cases left out in extended precision, as in the 108-case set of ROADMAP.md's State block.
DOUBLE_ONLY = (("cdd", {"m": 4}), ("cdd", {"m": 5}))


def runs():
    """(label, argv, order) of every run: each case at each seed, in double and, but for DOUBLE_ONLY, extended."""
    for precision in ("double", "extended"):
        for family, params, order in CASES:
            if precision == "extended" and (family, params) in DOUBLE_ONLY:
                continue
            for seed in SEEDS:
                flags = [arg for key, value in params.items() for arg in (f"--{key}", str(value))]
                argv = ["order", family, *flags, "--seed", str(seed), "--functional", "flip", "--precision", precision]
                yield f"{precision} {family} {' '.join(flags)} seed {seed}", argv, order


def slope(stdout: str) -> float | None:
    """The fitted slope ``order`` printed, or None where it printed none."""
    for line in stdout.splitlines():
        if line.startswith("E_flip slope: ") and "not defined" not in line:
            return float(line.split()[2])
    return None


def outcome(code: int, stdout: str, stderr: str, order: int) -> str | None:
    """The run's outcome, one of OUTCOMES, or None for an exit code that none covers."""
    if code == 3:
        return "exit 3"
    if code != 0:
        return None
    fitted = slope(stdout)
    right = fitted is not None and abs(fitted - order) <= TOLERANCE
    warned = "warning:" in stderr
    return ("right" if right else "silent wrong") if not warned else ("right, warned" if right else "wrong, warned")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: truthcheck.py ROOT", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    if not (root / "src" / "ddforge" / "__init__.py").is_file():
        print(f"truthcheck.py: {root} is not a ddforge checkout: it has no src/ddforge/__init__.py", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from ddforge import cli

    os.environ.pop("DDFORGE_SEED", None)
    counts, silent, broken = dict.fromkeys(OUTCOMES, 0), [], []
    for label, args, order in runs():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
        kind = outcome(code, stdout.getvalue(), stderr.getvalue(), order)
        if kind is None:
            broken.append(f"broken: {label}: exit {code}: {stderr.getvalue().strip()}")
            continue
        counts[kind] += 1
        if kind == "silent wrong":
            silent.append(f"silent wrong: {label}: slope {slope(stdout.getvalue())}, order {order}")
    for kind, count in counts.items():
        print(f"{kind:<14} {count:>4}")
    for line in (*silent, *broken):
        print(line)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
