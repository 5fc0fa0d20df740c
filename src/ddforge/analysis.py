"""Suppression-order fitting, pulse-count economics and family comparisons.

An order scan evaluates the residual-coupling functionals of one schedule
family on a logarithmic duration grid and fits the log-log slope, which
estimates the suppression order directly.  ``ENGINES`` maps each precision
to its ``effective.Engine``, the double one or the double-double one of
``highprec``; scans and the CLI all reach their functionals through
``effective.evaluate`` on that engine.  A scan takes its family as one
dict (a name and ``build_sequence``'s keyword arguments), builds the
schedule once, and composes and extracts it for a whole stack of grid
durations per bath model in one pass (``evolution.stack_points`` durations
per stack).  Each stack gives its generators, one per bath model, and
raises its first failure; once every stack has passed, the scan takes each
model's functionals for the whole grid in one ``error_functionals`` call
and makes the rows, the ensemble mean summed in seed order.  A grid of
several stacks (d >= 32 on the default grid) runs them on a short-lived
thread pool of min(stacks, usable cores // BLAS threads) workers, each
stack with exactly its serial arithmetic, so rows and failures are the
serial loop's bit for bit; a one-stack scan starts no thread.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import datetime
import io
import math
import operator
import os
from dataclasses import dataclass, replace

import numpy as np

from .bath import ModelSpec, alpha, build_model, check_count, spectral_norm
from .effective import (DOUBLE, BranchAmbiguityError, EffectiveHamiltonian, Engine, error_functionals, evaluate,
                        sequence_effective)
from .evolution import stack_points
from .highprec import EXTENDED
from .sequences import PulseSequence, build_sequence, cdd_count_estimate, check_duration, cudd_count, udd2_count

FUNCTIONALS = ("E_flip", "E_dephase", "E_total")

CSV_COLUMNS = ("family", "param", "t", "alpha_t", "E_flip", "E_dephase", "E_total")

# The one place a precision string is read.
ENGINES = {"double": DOUBLE, "extended": EXTENDED}


def precision_engine(precision: str) -> Engine:
    """The engine a precision names; ValueError for any other."""
    if precision not in ENGINES:
        raise ValueError(f"unknown precision {precision!r}")
    return ENGINES[precision]


@dataclass(frozen=True)
class OrderFit:
    """Least-squares log-log slope of a residual functional versus duration.

    ``pairwise_orders`` holds the successive-point estimates
    log(E_{i+1}/E_i) / log(t_{i+1}/t_i), which converge to the fitted slope
    as the duration shrinks.  All fit fields are None when fewer than two
    values are positive: the functional is identically zero, or its values
    were rounded to zero (the CLI's floor check tells these apart).
    """

    slope: float | None
    intercept: float | None
    r_squared: float | None
    pairwise_orders: tuple[float, ...]
    t_grid: tuple[float, ...]

    @property
    def defined(self) -> bool:
        return self.slope is not None


def check_grid(at_min: float, at_max: float, points: int) -> None:
    """The rule of ``default_t_grid``'s alpha*t bounds and point count, which needs no model: a ValueError if broken."""
    if not 0 < at_min < at_max < math.inf:
        raise ValueError("need 0 < at_min < at_max < inf")
    check_count(points, "points", 4)


def default_t_grid(model_alpha: float, at_min: float = 1e-3, at_max: float = 1e-2, points: int = 8) -> np.ndarray:
    """Log-spaced durations covering alpha*t in [at_min, at_max] (``check_grid``)."""
    check_grid(at_min, at_max, points)
    if model_alpha <= 0:
        raise ValueError("model has zero coupling norm; no natural time scale")
    return np.geomspace(at_min / model_alpha, at_max / model_alpha, points)


def _centred(zs: list[float]) -> tuple[float, list[float]]:
    """The mean of zs and their deviations from it; equal entries give exact zeros.

    The mean is taken relative to zs[0], as a correctly rounded mean of n
    equal floats need not equal them.
    """
    mean = zs[0] + math.fsum(z - zs[0] for z in zs) / len(zs)
    return mean, [z - mean for z in zs]


def _durations(t_grid) -> list[float]:
    """The grid as floats; ValueError for an empty grid, or for an entry that breaks ``check_duration``, naming it.

    The schedules' duration rule, checked here before any composition; an entry that passes costs one comparison.
    """
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise ValueError("t_grid must hold at least one duration, got none")
    for i, t in enumerate(t_grid):
        check_duration(t, "t_grid", i)
    return t_grid


def fit_order(t_grid, values) -> OrderFit:
    """Fit log E = slope * log t + intercept over the positive entries.

    Centred closed-form least squares: slope = sum(dx dy) / sum(dx^2), with
    dx, dy the deviations of log t and log E from their means, summed by
    math.fsum.  Exact zeros are skipped; any value that is not finite and
    >= 0, or duration that is not finite and > 0 or is subnormal, is a
    ValueError.
    """
    t_grid = tuple(_durations(t_grid))
    values = [float(v) for v in values]
    if len(values) != len(t_grid):
        raise ValueError("values and t_grid lengths differ")
    if len(t_grid) < 4:
        raise ValueError("order fits need at least 4 grid points")
    for i, v in enumerate(values):
        if not 0.0 <= v < math.inf:
            raise ValueError(f"values[{i}] = {v!r}; values must be finite and >= 0")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("t_grid must be strictly increasing")
    ts = [t for t, v in zip(t_grid, values) if v > 0.0]
    vs = [v for v in values if v > 0.0]
    if len(vs) < 2:
        return OrderFit(None, None, None, (), t_grid)
    mean_x, dx = _centred(list(map(math.log, ts)))
    mean_y, dy = _centred(list(map(math.log, vs)))
    slope = math.fsum(map(operator.mul, dx, dy)) / math.fsum(map(operator.mul, dx, dx))
    intercept = mean_y - slope * mean_x
    ss_res = math.fsum((b - slope * a) ** 2 for a, b in zip(dx, dy))
    ss_tot = math.fsum(map(operator.mul, dy, dy))
    r_squared = 1.0 if ss_tot < 1e-30 else 1.0 - ss_res / ss_tot
    pairwise = tuple(math.log(v2 / v1) / math.log(t2 / t1) for t1, t2, v1, v2 in zip(ts, ts[1:], vs, vs[1:]))
    return OrderFit(slope, intercept, r_squared, pairwise, t_grid)


def _family_param_string(family: dict) -> str:
    parts = [f"{k}={v}" for k, v in family.items() if k not in ("name", "axis")]
    return ",".join(parts)


# The thread-count getters of the OpenBLAS builds numpy wheels bundle.
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy (in ``numpy.libs``), or None where that cannot be read."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    with contextlib.suppress(OSError):
        for path in (os.path.join(libs, name) for name in os.listdir(libs) if "openblas" in name):
            for getter in (getattr(ctypes.CDLL(path), name, None) for name in _BLAS_GETTERS):
                if getter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    return getter()
    return None


def _workers(stacks: int) -> int:
    """Threads for a scan's stacks: min(stacks, usable cores // BLAS threads); 1 if BLAS threads cannot be read.

    Never more threads than cores: on two Xeon cores with BLAS at 2 threads,
    two workers made d = 64 scans 1.3-1.8x slower than one.
    """
    if stacks < 2 or not (blas := _blas_threads()):
        return 1
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(stacks, cores // blas))


def _in_grid_order(evaluate_stack, stacks: list) -> list:
    """``[evaluate_stack(s) for s in stacks]``, on ``_workers(len(stacks))`` threads when that exceeds one.

    The stacks go in groups of that many: the calling thread evaluates a
    group's first stack, a short-lived pool the rest, and the results are
    taken in grid order.  The first stack to raise does so here and no later
    group is submitted, so a failure is the serial loop's, with at most
    workers - 1 later stacks composed.  Pool tasks run in copies of the
    caller's context (its ``np.errstate`` included).  Each stack does
    exactly its serial arithmetic.  numpy releases the GIL inside the dense
    products and decompositions, but a loop of small ones still holds it
    much of the time: with one thread calling ``eigvalsh`` on (3, 64, 64)
    stacks, the other thread's Python stalled about half the time, so a
    scan takes its functionals after the pool (``evaluate_scan``).  Working
    on the calling thread spares a pool thread's heap (a d = 64 stack's
    temporaries take 2-3 MB).
    """
    workers = _workers(len(stacks))
    if workers == 1:
        return [evaluate_stack(stack) for stack in stacks]
    # Imported here, so that one-stack scans and `import ddforge.cli` load neither.
    import contextvars
    from concurrent.futures import ThreadPoolExecutor

    # The constants the stacks share (bath.kept's and the lru_caches') are
    # filled with deterministic values, so a race only repeats work.
    results = []
    with ThreadPoolExecutor(workers - 1) as pool:
        for start in range(0, len(stacks), workers):
            group = stacks[start:start + workers]
            futures = [pool.submit(contextvars.copy_context().run, evaluate_stack, stack) for stack in group[1:]]
            results.append(evaluate_stack(group[0]))
            results += [future.result() for future in futures]
    return results


def evaluate_scan(
    family_spec,
    model_spec: ModelSpec,
    t_grid,
    *,
    seeds=None,
    precision: str = "double",
    dps=None,
) -> list[dict]:
    """Residual functionals across a duration grid, one row per duration.

    ``family_spec`` is a family dict, its ``name`` and ``build_sequence``'s
    keyword arguments; the schedule is built once, at the first duration, and
    its grid evaluated in stacks of ``evolution.stack_points`` durations,
    on ``_in_grid_order``'s thread pool when there are several stacks and
    BLAS leaves cores free.  Each model's functionals are taken for the
    whole grid in one call once every stack has passed (each block still
    decomposed on its own, so each value has the bits of a call per stack).
    With several seeds the functionals are averaged over the bath ensemble,
    summed in seed order.  Rows also carry ``floor``, the engine's estimated
    absolute error of each functional, averaged the same way.  Raises
    BranchAmbiguityError (tagged with the offending duration) when
    eigenphases leave the principal branch; as a guard, alpha * t_max must
    stay below 1.  An empty grid, or any duration that is not finite and
    > 0 or is subnormal, is a ValueError naming it, and a family usage
    error is ``build_sequence``'s ValueError, both raised before any bath model
    is drawn.  ``dps``
    is ignored, as both engines carry a fixed precision; it stays only
    because ``perfbench/measure.py`` passes it, until the benchmark change
    of ROADMAP.md item 3.
    """
    engine = precision_engine(precision)
    t_grid = _durations(t_grid)
    params = dict(family_spec)
    seq = build_sequence(params.pop("name"), t_grid[0], **params)
    if seeds is None:
        models = [build_model(model_spec)]
    else:
        models = [build_model(replace(model_spec, seed=seed)) for seed in seeds]
        if not models:
            raise ValueError("seeds must hold at least one bath seed, got none")
    model_alpha = alpha(models[0])
    if model_alpha * max(t_grid) >= 1.0:
        raise BranchAmbiguityError(
            f"alpha * t_max = {model_alpha * max(t_grid):.3g} >= 1; shrink the duration grid",
            t=max(t_grid),
        )

    per_stack = stack_points(model_spec.d)
    head = {"family": seq.family.get("name", seq.label), "param": _family_param_string(seq.family)}

    def evaluate_stack(durations: list[float]) -> tuple[EffectiveHamiltonian, ...]:
        """The stack's generators, one per bath model; raises the error of the first failing (duration, seed)."""
        effs, failures = zip(*(evaluate(seq, ops, durations, engine)[:2] for ops in models))
        # Stop where a point-by-point scan would: at the first failing (grid point, seed).
        for error in (error for point in zip(*failures) for error in point if error is not None):
            raise error
        return effs

    stacks = [t_grid[start:start + per_stack] for start in range(0, len(t_grid), per_stack)]
    columns = []
    # Each model's functionals for the whole grid, from one call, after every stack has raised or passed.
    for effs in zip(*_in_grid_order(evaluate_stack, stacks)):
        eff = effs[0] if len(effs) == 1 else EffectiveHamiltonian(
            np.concatenate([e.blocks for e in effs], axis=1), np.array(t_grid), np.concatenate([e.floor for e in effs]))
        columns.append({key: v.tolist() for key, v in {**error_functionals(eff), "floor": eff.floor}.items()})
    means = columns[0] if len(models) == 1 else {
        key: [sum(point) / len(models) for point in zip(*(c[key] for c in columns))] for key in columns[0]}
    return [{**head, "t": t, "alpha_t": model_alpha * t, **dict(zip(means, point))}
            for t, *point in zip(t_grid, *means.values())]


def order_scan(
    family_spec,
    model_spec: ModelSpec,
    t_grid,
    functional: str = "E_flip",
    *,
    seeds=None,
    precision: str = "double",
) -> OrderFit:
    """Fit the suppression order of one functional for one schedule family."""
    if functional not in FUNCTIONALS:
        raise ValueError(f"functional must be one of {FUNCTIONALS}")
    rows = evaluate_scan(family_spec, model_spec, t_grid, seeds=seeds, precision=precision)
    return fit_order([r["t"] for r in rows], [r[functional] for r in rows])


# ---------------------------------------------------------------------------
# Pulse-count economics
# ---------------------------------------------------------------------------

def count_compare(m_max: int) -> list[dict]:
    """Pulse counts of the three high-order constructions at matched order.

    For suppression order m+1 the full concatenation needs nominally 4^m
    pulses, the concatenated-Uhrig construction m 2^m + a_m (level m over
    m-pulse blocks), and the polynomial-timed double layer m(m+1)^3 + m.
    """
    rows = []
    for m in range(1, check_count(m_max, "m_max", 1) + 1):
        rows.append(
            {
                "m": m,
                "claimed_order": m + 1,
                "cdd": cdd_count_estimate(m),
                "cudd": cudd_count(m, m),
                "udd2": udd2_count(m),
            }
        )
    return rows


def crossover(n_max: int = 40) -> int:
    """Smallest n with (n+1)^3 <= 2^n; the double layer beats concatenation beyond it."""
    for n in range(1, check_count(n_max, "n_max", 1) + 1):
        if (n + 1) ** 3 <= 2**n:
            return n
    raise ValueError(f"no crossover up to n_max={n_max}")


# ---------------------------------------------------------------------------
# Diagnostics and serialization
# ---------------------------------------------------------------------------

def dephasing_bound_constant(seq: PulseSequence, ops) -> float:
    """Observed ratio |a_z_eff| / max(|A_z|, t |A_x| |A_y|) (reported, not asserted)."""
    eff = sequence_effective(seq, ops)
    bound = max(spectral_norm(ops.az), seq.total_duration * spectral_norm(ops.ax) * spectral_norm(ops.ay))
    if bound == 0.0:
        return math.nan
    return spectral_norm(eff.az) / bound


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(rows: list[dict], stream: io.TextIOBase, meta: bool, columns) -> None:
    if meta:
        stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
        stream.write(f"# generated {stamp}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])


def write_scan_csv(rows: list[dict], stream: io.TextIOBase, meta: bool = True) -> None:
    """Write scan rows as CSV ('.' decimal, 17 significant digits).

    The optional meta line carries a timestamp and is the only
    non-reproducible output; disable it for byte-identical reruns.
    """
    _write_csv(rows, stream, meta, CSV_COLUMNS)


def write_counts_csv(rows: list[dict], stream: io.TextIOBase, meta: bool = True) -> None:
    _write_csv(rows, stream, meta, ("m", "claimed_order", "cdd", "cudd", "udd2"))


def fit_to_dict(fit: OrderFit) -> dict:
    return {
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r2": fit.r_squared,
        "pairwise": list(fit.pairwise_orders),
    }
