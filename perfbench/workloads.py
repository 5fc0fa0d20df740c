"""What each workload runs, and the checks its outputs must pass.

This module holds plain data and pure functions only; it imports nothing from
ddforge, so the parent process reads it without importing the package.

Bath seeds come from a fixed pool per workload that starts at 7, the ROADMAP
baseline seed, and every pass of a run covers its whole pool.  So every
workload seed meets the same bath models, with the same failures, and the
stored references cover every scan.  The workload seed fixes the order
of the scans in each pass.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 7
EXTENDED_DPS = 40
STANDARD_GRID = (1e-3, 1e-2)
# Acceptance criterion 3 fits CUDD(3,3) on this reduced window.
REDUCED_GRID = (3e-4, 3e-3)
DEEP_ALPHA_T = (1e-2, 1e-1)

WORKLOADS = ("order-d4", "order-d64", "order-extended", "simulate-deep")


@dataclass(frozen=True)
class Family:
    name: str
    params: tuple = ()

    @property
    def spec(self) -> dict:
        return {"name": self.name, **dict(self.params)}

    @property
    def label(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.name}({inner})" if inner else self.name


def fam(name: str, **params) -> Family:
    return Family(name, tuple(params.items()))


@dataclass(frozen=True)
class OrderScan:
    """One evaluate_scan + fit_order call: a family under one or more baths."""

    family: Family
    d: int
    preset: str
    bath_seeds: tuple
    window: tuple
    precision: str

    @property
    def label(self) -> str:
        seeds = "+".join(str(s) for s in self.bath_seeds)
        return f"{self.family.label}|{self.preset}|d{self.d}|seed{seeds}|{self.precision}"


@dataclass(frozen=True)
class DeepScan:
    """build_sequence -> sequence_unitary -> entanglement_fidelity at each duration."""

    family: Family
    bath_seed: int

    @property
    def label(self) -> str:
        return f"{self.family.label}|generic|d4|seed{self.bath_seed}"


def ref_key(family: Family, preset: str, d: int, seed: int, alpha_t: float) -> str:
    """Key of one stored reference point."""
    return f"{family.label}|{preset}|d{d}|seed{seed}|at={alpha_t:.0e}"


# ---------------------------------------------------------------------------
# Workload contents
# ---------------------------------------------------------------------------

POOL_D4 = tuple(range(7, 17))
POOL_D64 = tuple(range(7, 12))
POOL_EXTENDED = (7, 8, 9)
POOL_DEEP = (7, 8)
ENSEMBLE_SIZE = 5

# (family, preset, window) for the double-precision d=4 mix.
ORDER_D4 = (
    (fam("udd", n=1), "generic", STANDARD_GRID),
    (fam("udd", n=2), "generic", STANDARD_GRID),
    (fam("udd", n=3), "generic", STANDARD_GRID),
    (fam("udd", n=4), "generic", STANDARD_GRID),
    (fam("cpmg", axis="X"), "pure_dephasing", STANDARD_GRID),
    (fam("cudd", m=2, n=2), "generic", STANDARD_GRID),
    (fam("cudd", m=3, n=3), "generic", REDUCED_GRID),
    (fam("cdd", m=3), "generic", STANDARD_GRID),
    (fam("cdd", m=4), "generic", STANDARD_GRID),
    (fam("udd2", n=3), "generic", STANDARD_GRID),
    (fam("cpmg-udd", m=2, c=1), "generic", STANDARD_GRID),
    (fam("cpmg-udd", m=2, c=2), "generic", STANDARD_GRID),
    (fam("cpmg-udd", m=2, c=4), "generic", STANDARD_GRID),
)
# Seed-ensemble scans (`--seeds` traffic); families that complete on every
# pool seed.  Their members are drawn once, from DEFAULT_SEED: members that
# moved with the workload seed moved oracle_ok_share by up to four values.
ORDER_D4_ENSEMBLES = (
    (fam("udd", n=2), "generic", STANDARD_GRID),
    (fam("cudd", m=2, n=2), "generic", STANDARD_GRID),
    (fam("cpmg", axis="X"), "pure_dephasing", STANDARD_GRID),
)
ORDER_D64 = (
    fam("udd", n=1),
    fam("udd", n=2),
    fam("udd", n=3),
    fam("cudd", m=2, n=2),
    fam("cdd", m=2),
    fam("cdd", m=3),
    fam("udd2", n=2),
    fam("cpmg-udd", m=2, c=2),
)
ORDER_EXTENDED = (
    (fam("udd", n=3), STANDARD_GRID),
    (fam("udd", n=4), STANDARD_GRID),
    (fam("cudd", m=2, n=2), STANDARD_GRID),
    (fam("cudd", m=3, n=3), REDUCED_GRID),
)
SIMULATE_DEEP = (
    fam("cdd", m=5),
    fam("cdd", m=6),
    fam("cdd", m=7),
    fam("udd2", n=5),
    fam("udd2", n=8),
    fam("udd2", n=11),
    fam("cudd", m=4, n=8),
    fam("cpmg-udd", m=3, c=64),
)

# Percentile reported as scan_tail_ms: the highest of TAIL_LADDER with at
# least ten scans of one pass beyond it.  It is fixed by the pass, not by the
# run, so a faster build that fits more passes into a run is compared at the
# same percentile.
TAIL_LADDER = (99, 95, 90, 75, 50)


def tail_percentile(pass_size: int) -> int:
    for pct in TAIL_LADDER:
        if pass_size * (100 - pct) / 100 >= 10:
            return pct
    return 50


# Wall time of one pass on a 2-vCPU 2.0 GHz Xeon VM at the baseline.  A run
# makes --seconds / NOMINAL_PASS_S passes (at least one), a number fixed
# before timing starts: on a busy host a run takes longer rather than
# measuring fewer passes, so every run computes its percentiles over the same
# multiset of scans.
NOMINAL_PASS_S = {"order-d4": 5.0, "order-d64": 20.0, "order-extended": 24.0, "simulate-deep": 10.5}


# Reference kernel (hostspeed.py) whose speed tracks each workload's scans.
SPEED_KERNEL = {
    "order-d4": "python",
    "order-d64": "blas",
    "order-extended": "mpmath",
    "simulate-deep": "python",
}


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def order_scans(workload: str) -> list[OrderScan]:
    """The scans of one pass, in pool order (before shuffling)."""
    if workload == "order-d4":
        scans = [
            OrderScan(f, 4, preset, (s,), window, "double")
            for f, preset, window in ORDER_D4
            for s in POOL_D4
        ]
        rng = random.Random(f"ensembles:{DEFAULT_SEED}")
        for f, preset, window in ORDER_D4_ENSEMBLES:
            members = tuple(sorted(rng.sample(POOL_D4, ENSEMBLE_SIZE)))
            scans.append(OrderScan(f, 4, preset, members, window, "double"))
        return scans
    if workload == "order-d64":
        return [OrderScan(f, 64, "generic", (s,), STANDARD_GRID, "double") for f in ORDER_D64 for s in POOL_D64]
    if workload == "order-extended":
        return [
            OrderScan(f, 4, "generic", (s,), window, "extended")
            for f, window in ORDER_EXTENDED
            for s in POOL_EXTENDED
        ]
    raise ValueError(f"{workload!r} is not an order workload")


def deep_scans() -> list[DeepScan]:
    return [DeepScan(f, s) for f in SIMULATE_DEEP for s in POOL_DEEP]


def pass_scans(workload: str) -> list:
    return deep_scans() if workload == "simulate-deep" else order_scans(workload)


def shuffled(scans: list, seed: int, pass_index: int) -> list:
    """The order of one pass: a fresh shuffle per pass, fixed by the seed."""
    out = list(scans)
    random.Random(f"order:{seed}:{pass_index}").shuffle(out)
    return out


def model_specs(workload: str) -> list[tuple[int, int, str]]:
    """(d, seed, preset) of every bath model the workload uses."""
    if workload == "simulate-deep":
        return [(4, s, "generic") for s in POOL_DEEP]
    specs = {(sc.d, s, sc.preset) for sc in order_scans(workload) for s in sc.bath_seeds}
    return sorted(specs)


# ---------------------------------------------------------------------------
# Correctness checks
# ---------------------------------------------------------------------------

def pinned_orders(scan: OrderScan) -> list[tuple[str, float, float]]:
    """(functional, lowest, highest) slope the acceptance suite pins, if any."""
    f = scan.family
    params = dict(f.params)
    if f.name == "udd":
        n = params["n"]
        return [("E_flip", n + 1 - 0.25, n + 1 + 0.25), ("E_dephase", 0.9, 1.1)]
    if f.name == "cpmg" and params.get("axis") == "X" and scan.preset == "pure_dephasing":
        return [("E_dephase", 2.75, 3.25)]
    if f.name == "cudd" and params == {"m": 2, "n": 2} and scan.window == STANDARD_GRID:
        return [("E_total", 2.75, math.inf)]
    if f.name == "cudd" and params == {"m": 3, "n": 3} and scan.window == REDUCED_GRID:
        return [("E_total", 3.7, math.inf)]
    return []


# Relative tolerance of a double or extended value against its reference.
# Exact-zero references (E_flip under pure dephasing) have no relative error
# and are skipped.
ORACLE_RTOL = 1e-3
# |F_e - F_ref| <= FE_TOL_ULPS * pulses * eps: composition roundoff grows
# linearly in the number of factors.
FE_TOL_ULPS = 16
EPS = 2.0**-52


def fe_tolerance(pulses: int) -> float:
    return FE_TOL_ULPS * max(pulses, 1) * EPS


def within_rtol(value: float, ref: float) -> bool:
    return abs(value - ref) <= ORACLE_RTOL * abs(ref)
