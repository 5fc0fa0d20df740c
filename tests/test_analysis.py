import io
import json
import math

import numpy as np
import pytest
from _reference import exact_slope

from ddforge.analysis import (
    count_compare,
    crossover,
    default_t_grid,
    dephasing_bound_constant,
    evaluate_scan,
    fit_order,
    fit_to_dict,
    order_scan,
    write_scan_csv,
)
from ddforge.bath import ModelSpec, alpha, build_model
from ddforge.effective import BranchAmbiguityError, error_functionals, sequence_effective
from ddforge.sequences import build_sequence, udd_sequence

GENERIC = ModelSpec(d=4, seed=7)
PURE_DEPHASING = ModelSpec(d=4, seed=7, preset="pure_dephasing")


class TestFitOrder:
    def test_exact_power_law(self):
        ts = np.geomspace(1e-3, 1e-2, 8)
        fit = fit_order(ts, 3.7 * ts**2.5)
        assert fit.slope == pytest.approx(2.5, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(3.7), abs=1e-10)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_pairwise_on_doubling_grid(self):
        ts = [1e-3 * 2**k for k in range(5)]
        fit = fit_order(ts, [t**3 for t in ts])
        assert all(p == pytest.approx(3.0, abs=1e-12) for p in fit.pairwise_orders)
        assert len(fit.pairwise_orders) == 4

    def test_degenerate_all_zero(self):
        fit = fit_order([1e-3, 2e-3, 4e-3, 8e-3], [0.0, 0.0, 0.0, 0.0])
        assert not fit.defined
        assert fit.slope is None and fit.r_squared is None
        assert fit.pairwise_orders == ()

    def test_isolated_zero_dropped(self):
        ts = [1e-3, 2e-3, 4e-3, 8e-3]
        fit = fit_order(ts, [t**2 for t in ts[:-1]] + [0.0])
        assert fit.slope == pytest.approx(2.0, abs=1e-10)

    def test_slope_matches_exact_regression(self):
        # Random grids, orders and noise, against the exact regression over the same float logs.
        rng = np.random.default_rng(22)
        for _ in range(300):
            lo = 10 ** rng.uniform(-6, -1)
            ts = np.geomspace(lo, lo * 10 ** rng.uniform(0.3, 2.0), rng.integers(4, 13))
            values = 10 ** rng.uniform(-5, 5) * ts ** rng.uniform(0.5, 9.0) * np.exp(rng.normal(0, 0.05, len(ts)))
            want = exact_slope(ts, values)
            assert abs(fit_order(ts, values).slope - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("value", [1e-300, 1.0, 3.7e-17, 5e300])
    def test_constant_values_give_zero_slope(self, value):
        fit = fit_order([1.0, 2.0, 3.0, 4.0, 5.0], [value] * 5)
        assert fit.slope == 0.0 and fit.r_squared == 1.0
        assert fit.intercept == math.log(value)

    @pytest.mark.parametrize(
        "t_grid, values, match",
        [
            ([1.0, 2.0, 3.0, 4.0], [1.0, math.nan, 3.0, 4.0], r"values\[1\] = nan"),
            ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, math.inf, 4.0], r"values\[2\] = inf"),
            ([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, -4.0], r"values\[3\] = -4.0"),
            ([0.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], r"t_grid\[0\] = 0.0"),
            ([-1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], r"t_grid\[0\] = -1.0"),
            ([1.0, 2.0, 3.0, math.inf], [1.0, 2.0, 3.0, 4.0], r"t_grid\[3\] = inf"),
            ([1.0, math.nan, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0], r"t_grid\[1\] = nan"),
        ],
        ids=["nan-value", "inf-value", "negative-value", "zero-t", "negative-t", "inf-t", "nan-t"],
    )
    def test_bad_inputs_name_index_and_value(self, t_grid, values, match):
        with pytest.raises(ValueError, match=match):
            fit_order(t_grid, values)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit_order([1.0, 2.0], [1.0])

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_order([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="increasing"):
            fit_order([1.0, 3.0, 2.0, 4.0], [1.0, 2.0, 3.0, 4.0])

    def test_summary_dict(self):
        fit = fit_order([1e-3, 2e-3, 4e-3, 8e-3], [1e-9, 8e-9, 6.4e-8, 5.12e-7])
        data = fit_to_dict(fit)
        assert set(data) == {"slope", "intercept", "r2", "pairwise"}
        assert json.dumps(data)  # serializable


class TestDefaultGrid:
    def test_bounds(self):
        grid = default_t_grid(2.0)
        assert grid[0] == pytest.approx(5e-4)
        assert grid[-1] == pytest.approx(5e-3)
        assert len(grid) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            default_t_grid(1.0, at_min=1e-2, at_max=1e-3)
        with pytest.raises(ValueError):
            default_t_grid(1.0, points=3)
        with pytest.raises(ValueError):
            default_t_grid(0.0)


class TestOrderScan:
    def test_free_evolution_slope_one(self):
        grid = default_t_grid(alpha(build_model(GENERIC)))
        fit = order_scan({"name": "none"}, GENERIC, grid, "E_total")
        assert fit.slope == pytest.approx(1.0, abs=0.05)

    def test_udd2_flip_slope(self):
        grid = default_t_grid(alpha(build_model(GENERIC)))
        fit = order_scan({"name": "udd", "n": 2}, GENERIC, grid, "E_flip")
        assert fit.slope == pytest.approx(3.0, abs=0.25)

    def test_degenerate_functional_not_defined(self):
        # Pure dephasing generates no flip couplings under any Z schedule.
        grid = default_t_grid(1.0)
        fit = order_scan({"name": "udd", "n": 2}, PURE_DEPHASING, grid, "E_flip")
        assert not fit.defined

    def test_branch_guard(self):
        with pytest.raises(BranchAmbiguityError, match="alpha"):
            evaluate_scan({"name": "none"}, GENERIC, [0.5, 1.5])

    def test_unknown_functional(self):
        with pytest.raises(ValueError):
            order_scan({"name": "none"}, GENERIC, [1e-3, 2e-3, 4e-3, 8e-3], "E_bogus")

    def test_one_schedule_build_per_scan(self, monkeypatch):
        from ddforge import analysis
        from ddforge.sequences import build_sequence

        calls = []

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build_sequence(*args, **kwargs)

        grid = default_t_grid(1.0)
        monkeypatch.setattr(analysis, "build_sequence", counting_build)
        rows = evaluate_scan({"name": "cudd", "m": 2, "n": 2}, GENERIC, grid, seeds=[7, 8])
        assert len(calls) == 1
        for row, ref in zip(rows, per_point_scan({"name": "cudd", "m": 2, "n": 2}, GENERIC, grid, [7, 8]),
                            strict=True):
            assert {key: row[key] for key in ref} == ref

    def test_seed_ensemble_mean(self):
        grid = default_t_grid(1.0, points=4)
        single_a = evaluate_scan({"name": "none"}, GENERIC, grid, seeds=[1])
        single_b = evaluate_scan({"name": "none"}, GENERIC, grid, seeds=[2])
        both = evaluate_scan({"name": "none"}, GENERIC, grid, seeds=[1, 2])
        for row_a, row_b, row_ab in zip(single_a, single_b, both):
            want = (row_a["E_total"] + row_b["E_total"]) / 2
            assert row_ab["E_total"] == pytest.approx(want, rel=1e-12)

    def test_empty_seed_ensemble_is_value_error(self):
        # An empty ensemble has no model to read alpha from; it raised IndexError.
        with pytest.raises(ValueError, match="seeds"):
            evaluate_scan({"name": "udd", "n": 2}, GENERIC, default_t_grid(1.0, points=4), seeds=[])

    def test_family_usage_error_draws_no_model(self):
        # The scan drew its seeds' models before it built the schedule.
        from ddforge import bath

        misses = bath._model.cache_info().misses
        with pytest.raises(ValueError, match="^family 'cdd' takes no --n$"):
            evaluate_scan({"name": "cdd", "m": 2, "n": 7}, GENERIC, default_t_grid(1.0, points=4), seeds=[1, 2, 3])
        assert bath._model.cache_info().misses == misses

    @pytest.mark.parametrize("grid, match", [
        ([3e-3, 2e-3, -1e-3, 1e-3], r"^t_grid\[2\] = -0\.001; durations must be finite and > 0$"),
        ([1e-3, 0.0, 2e-3], r"^t_grid\[1\] = 0\.0; durations must be finite and > 0$"),
        ([1e-3, math.nan], r"^t_grid\[1\] = nan; durations must be finite and > 0$"),
        ([math.inf, 1e-3], r"^t_grid\[0\] = inf; durations must be finite and > 0$"),
        ([1e-3, 5e-324], r"^t_grid\[1\] = 5e-324; durations must be at least 2\.2250738585072014e-308, "
                         r"the smallest normal float$"),
        ([], r"^t_grid must hold at least one duration, got none$"),
    ], ids=["negative", "zero", "nan", "inf", "subnormal", "empty"])
    @pytest.mark.parametrize("precision", ["double", "extended"])
    def test_bad_grid_names_index_and_value(self, monkeypatch, grid, match, precision):
        # Only the first duration was checked: a negative one gave a row, a zero or NaN a LinAlgError,
        # an empty grid "max() arg is an empty sequence"; a subnormal one gave RuntimeWarnings and a LinAlgError.
        from ddforge import analysis

        def no_composition(*args):
            raise AssertionError("composed before the grid was checked")

        monkeypatch.setattr(analysis, "evaluate", no_composition)
        with pytest.raises(ValueError, match=match):
            evaluate_scan({"name": "udd", "n": 2}, GENERIC, grid, precision=precision)

    def test_pairwise_orders_converge_toward_slope(self):
        grid = default_t_grid(1.0)
        fit = order_scan({"name": "udd", "n": 2}, GENERIC, grid, "E_flip")
        deviations = [abs(p - fit.slope) for p in fit.pairwise_orders]
        # Smaller durations (earlier pairs) sit closer to the fitted slope.
        for earlier, later in zip(deviations, deviations[1:]):
            assert later >= earlier - 0.1

    def test_rows_layout(self):
        grid = default_t_grid(1.0, points=4)
        rows = evaluate_scan({"name": "cpmg"}, GENERIC, grid)
        assert [r["t"] for r in rows] == [pytest.approx(t) for t in grid]
        assert rows[0]["family"] == "cpmg"
        assert all(set(r) == {"family", "param", "t", "alpha_t", "E_flip", "E_dephase", "E_total", "floor"} for r in rows)


def per_point_scan(family, model_spec, grid, seeds):
    # Reference: every (grid point, seed) evaluated on its own, in grid-major
    # order, averaged over seeds the way evaluate_scan averages.
    models = [build_model(ModelSpec(d=model_spec.d, seed=s, preset=model_spec.preset)) for s in seeds]
    params = {k: v for k, v in family.items() if k != "name"}
    rows = []
    for t in grid:
        seq = build_sequence(family["name"], float(t), **params)
        values = [error_functionals(sequence_effective(seq, ops)) for ops in models]
        rows.append({k: sum(v[k] for v in values) / len(values) for k in ("E_flip", "E_dephase", "E_total")})
    return rows


FAMILIES = pytest.mark.parametrize(
    "family", [{"name": "udd", "n": 3}, {"name": "cudd", "m": 2, "n": 2}, {"name": "cdd", "m": 3}],
    ids=["UDD-3", "CUDD(2,2)", "CDD-3"],
)


@pytest.mark.parametrize("family", [{"name": "cdd", "m": 7}, {"name": "udd2", "n": 11}], ids=["CDD-7", "UDD2-11"])
def test_deep_schedules_scan_in_double(family):
    # The paper's deepest schedules (15,292 and 19,019 pulses) compose and
    # extract over a whole grid without a numeric failure.
    spec = ModelSpec(d=4, seed=7)
    grid = default_t_grid(alpha(build_model(spec)), at_min=1e-2, at_max=1e-1)
    rows = evaluate_scan(family, spec, grid)
    assert len(rows) == len(grid)
    assert all(math.isfinite(r[k]) and r[k] >= 0 for r in rows for k in ("E_flip", "E_dephase", "E_total"))


class TestStackedScan:
    @pytest.mark.parametrize("d", [4, 16])
    @FAMILIES
    def test_rows_equal_per_point_evaluation(self, family, d):
        spec = ModelSpec(d=d, seed=7)
        grid = default_t_grid(alpha(build_model(spec)))
        rows = evaluate_scan(family, spec, grid, seeds=[7, 8])
        want = per_point_scan(family, spec, grid, [7, 8])
        for row, ref in zip(rows, want):
            for key, value in ref.items():
                assert np.float64(row[key]).tobytes() == np.float64(value).tobytes()

    @pytest.mark.parametrize(
        "family, spec, seeds, window",
        [
            # Free evolution under seed 14 crosses the branch margin at grid
            # point 6 and under seed 7 at point 7; grid-major order picks
            # seed 14's error, where seed order would pick seed 7's.
            ({"name": "none"}, ModelSpec(d=2, seed=7, preset="spin_bath(1)"), [7, 14], (0.7, 0.999)),
            # Free evolution under seed 7 crosses the branch margin at t_max,
            # as the last seed of the ensemble and as the first.
            ({"name": "none"}, ModelSpec(d=2, seed=5, preset="spin_bath(1)"), [5, 6, 7], (0.3, 0.999)),
            ({"name": "none"}, ModelSpec(d=2, seed=7, preset="spin_bath(1)"), [7, 5, 6], (0.3, 0.999)),
        ],
        ids=["free-grid-major", "free-branch-1", "free-branch-2"],
    )
    @pytest.mark.parametrize(
        "one_point_stacks, workers", [(False, 1), (True, 1), (True, 3)], ids=["grid-stacks", "point-stacks", "point-stacks-pooled"]
    )
    def test_failure_matches_per_point_path(self, monkeypatch, family, spec, seeds, window, one_point_stacks, workers):
        # The scan raises what the first failing (grid point, seed) raises
        # on its own, whether a stack holds the grid or one point, and
        # whether the stacks run one after another or on three threads.
        from ddforge import analysis

        monkeypatch.setattr(analysis, "_workers", lambda stacks: workers)
        if one_point_stacks:
            monkeypatch.setattr(analysis, "stack_points", lambda d: 1)
        grid = default_t_grid(alpha(build_model(spec)), *window)
        with pytest.raises(ArithmeticError) as per_point:
            per_point_scan(family, spec, grid, seeds)
        with pytest.raises(ArithmeticError) as stacked:
            evaluate_scan(family, spec, grid, seeds=seeds)
        assert type(stacked.value) is type(per_point.value)
        assert str(stacked.value) == str(per_point.value)
        assert getattr(stacked.value, "t", None) == getattr(per_point.value, "t", None)

    def test_failing_scan_stops_after_failing_stack(self, monkeypatch):
        # With one point per stack, the scan stops at the first failing point
        # as the point-by-point path does, instead of finishing the grid.
        # One worker, so that no later stack is in flight when it fails.
        from ddforge import analysis, effective

        monkeypatch.setattr(analysis, "_workers", lambda stacks: 1)

        seen = []
        sequence_deviation = effective.sequence_deviation

        def recording_deviation(seq, ops, durations):
            seen.append(list(durations))
            return sequence_deviation(seq, ops, durations)

        monkeypatch.setattr(effective, "sequence_deviation", recording_deviation)
        monkeypatch.setattr(analysis, "stack_points", lambda d: 1)
        spec = ModelSpec(d=2, seed=7, preset="spin_bath(1)")
        grid = [0.3, 0.6, 0.999, 0.9995]
        with pytest.raises(BranchAmbiguityError) as err:
            evaluate_scan({"name": "none"}, spec, grid)
        assert err.value.t == 0.999
        assert seen == [[0.3], [0.6], [0.999]]

    def test_control_product_formed_once_per_scan(self, monkeypatch):
        # The frames and the gaps come from one segment plan, formed once for the
        # schedule a scan composes segment by segment and kept with it (the control
        # product comes from the codes).  UDD-3 is composed so; CDD-3 and CDD-4 at
        # d = 16 (61 and 239 segments, above a chunk of 16) compose by their blocks,
        # and the plan formed is that of their leaf, which every build shares.
        from ddforge import evolution, sequences

        plans = []
        segment_plan_class = evolution.SegmentPlan

        def counting_plan(*args):
            plans.append(segment_plan_class(*args))
            return plans[-1]

        monkeypatch.setattr(evolution, "SegmentPlan", counting_plan)
        sequences._udd_block.cache_clear()
        for family in ({"name": "udd", "n": 3}, {"name": "cdd", "m": 3}, {"name": "cdd", "m": 4}):
            evaluate_scan(family, ModelSpec(d=16, seed=7), default_t_grid(1.0), seeds=[7, 8, 9])
        assert len(plans) == 2

    def test_one_segment_plan_across_seed_scans(self, monkeypatch):
        # One order scan per bath seed, as in `ddforge order` over a seed pool: every
        # scan composes a re-timed copy of one built UDD-3, and the copies share its plan.
        from ddforge import evolution

        plans = []
        segment_plan_class = evolution.SegmentPlan

        def counting_plan(*args):
            plans.append(segment_plan_class(*args))
            return plans[-1]

        monkeypatch.setattr(evolution, "SegmentPlan", counting_plan)
        for seed in range(7, 17):
            evaluate_scan({"name": "udd", "n": 3}, ModelSpec(d=4, seed=seed), default_t_grid(1.0))
        assert len(plans) == 1

    @pytest.mark.parametrize("d, sizes", [(4, [8, 8]), (64, [1] * 8)])
    def test_stack_sizes(self, monkeypatch, d, sizes):
        # At d = 4 one stack holds the whole grid per bath model; at d = 64
        # each stack holds one point.
        from ddforge import effective

        seen = []
        sequence_deviation = effective.sequence_deviation

        def recording_deviation(seq, ops, durations):
            seen.append(len(durations))
            return sequence_deviation(seq, ops, durations)

        monkeypatch.setattr(effective, "sequence_deviation", recording_deviation)
        spec = ModelSpec(d=d, seed=8)
        grid = default_t_grid(alpha(build_model(spec)))
        evaluate_scan({"name": "udd", "n": 1}, spec, grid, seeds=[8, 9] if d == 4 else None)
        assert seen == sizes


def recording_evaluate(monkeypatch):
    # Records, per evaluated stack, its durations, whether it ran on the main
    # thread and the floating-point error state it saw.
    import threading

    from ddforge import analysis

    seen = []
    evaluate = analysis.evaluate

    def recording(seq, ops, durations, engine):
        seen.append((list(durations), threading.current_thread() is threading.main_thread(), np.geterr()))
        return evaluate(seq, ops, durations, engine)

    monkeypatch.setattr(analysis, "evaluate", recording)
    return seen


class TestPooledScan:
    # A scan of several stacks runs them on the calling thread and a
    # short-lived thread pool when BLAS leaves cores free; three workers
    # split eight one-point stacks unevenly.

    @pytest.mark.parametrize("precision", ["double", "extended"])
    @pytest.mark.parametrize("seeds", [None, [7, 8, 9]], ids=["one-seed", "seeds"])
    def test_rows_equal_serial_rows(self, monkeypatch, precision, seeds):
        # The pooled scan runs first, on empty memos and with a short switch
        # interval, so that its threads race to fill the shared caches (fresh
        # models included, so extended stacks race to form the kept Taylor powers);
        # the serial scan then runs on memos of its own.
        import sys

        from ddforge import analysis, bath, evolution, sequences

        monkeypatch.setattr(analysis, "stack_points", lambda d: 1)
        grid = default_t_grid(alpha(build_model(GENERIC)))
        family = {"name": "cudd", "m": 2, "n": 2}
        memos = (sequences._unit_schedule, sequences._udd_block, bath._model, evolution.reduction_plan)
        for memo in memos:
            memo.cache_clear()
        monkeypatch.setattr(analysis, "_workers", lambda stacks: 3)
        seen = recording_evaluate(monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = evaluate_scan(family, GENERIC, grid, seeds=seeds, precision=precision)
        finally:
            sys.setswitchinterval(interval)
        assert {on_main for _, on_main, _ in seen} == {True, False}
        assert sorted(t for durations, _, _ in seen for t in durations) == sorted(list(grid) * len(seeds or [7]))
        for memo in memos:
            memo.cache_clear()
        monkeypatch.setattr(analysis, "_workers", lambda stacks: 1)
        serial = evaluate_scan(family, GENERIC, grid, seeds=seeds, precision=precision)

        def hexed(rows):
            return [{k: v.hex() if isinstance(v, float) else v for k, v in row.items()} for row in rows]

        assert hexed(pooled) == hexed(serial)

    def test_pooled_scan_stops_within_workers_of_failing_stack(self, monkeypatch):
        # Free evolution fails at grid point 3 of 6.  At most three stacks are
        # in flight, so at most two past the failing one were composed, and
        # the grid is not finished.
        from ddforge import analysis

        monkeypatch.setattr(analysis, "_workers", lambda stacks: 3)
        monkeypatch.setattr(analysis, "stack_points", lambda d: 1)
        seen = recording_evaluate(monkeypatch)
        spec = ModelSpec(d=2, seed=7, preset="spin_bath(1)")
        grid = [0.3, 0.6, 0.999, 0.9991, 0.9993, 0.9995]
        with pytest.raises(BranchAmbiguityError) as err:
            evaluate_scan({"name": "none"}, spec, grid)
        assert err.value.t == 0.999
        composed = sorted(t for durations, _, _ in seen for t in durations)
        assert composed[:3] == grid[:3]
        assert 0.9995 not in composed and len(composed) - 3 <= 2

    def test_one_stack_scan_starts_no_thread(self, monkeypatch):
        import threading

        from ddforge import analysis

        def refuse(*args):
            raise AssertionError("a one-stack scan read the BLAS threads or started a thread")

        monkeypatch.setattr(analysis, "_blas_threads", refuse)
        monkeypatch.setattr(threading.Thread, "start", refuse)
        rows = evaluate_scan({"name": "udd", "n": 2}, GENERIC, default_t_grid(alpha(build_model(GENERIC))), seeds=[7, 8])
        assert len(rows) == 8

    @pytest.mark.parametrize(
        "blas, workers",
        [(None, [1, 1, 1, 1, 1]), (8, [1, 1, 1, 1, 1]), (9, [1, 1, 1, 1, 1]), (2, [1, 2, 3, 4, 4]), (1, [1, 2, 3, 4, 8])],
        ids=["unreadable", "blas-equals-cores", "blas-above-cores", "two-per-worker", "one-per-worker"],
    )
    def test_worker_rule(self, monkeypatch, blas, workers):
        # min(stacks, usable cores // BLAS threads) on 8 usable cores, and one
        # worker whenever the BLAS thread count cannot be read.
        import os

        from ddforge import analysis

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(analysis, "_blas_threads", lambda: blas)
        assert [analysis._workers(stacks) for stacks in (1, 2, 3, 4, 8)] == workers

    def test_workers_see_the_callers_error_state(self, monkeypatch):
        from ddforge import analysis

        monkeypatch.setattr(analysis, "_workers", lambda stacks: 3)
        monkeypatch.setattr(analysis, "stack_points", lambda d: 1)
        seen = recording_evaluate(monkeypatch)
        with np.errstate(divide="ignore", over="ignore"):
            evaluate_scan({"name": "udd", "n": 2}, GENERIC, default_t_grid(alpha(build_model(GENERIC))))
        assert len(seen) == 8 and {on_main for _, on_main, _ in seen} == {True, False}
        assert all(err["divide"] == "ignore" and err["over"] == "ignore" for _, _, err in seen)


class TestSuppressionBoundedness:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_udd_flip_ratio_bounded_dephasing_ratio_nonzero(self, n):
        # E_flip / t^(n+1) stays bounded toward t -> 0 while E_dephase / t
        # stays pinned near the dephasing norm (here 1).
        grid = default_t_grid(1.0)
        precision = "double" if n <= 2 else "extended"
        rows = evaluate_scan({"name": "udd", "n": n}, GENERIC, grid, precision=precision)
        flip_ratios = [r["E_flip"] / r["t"] ** (n + 1) for r in rows]
        dephase_ratios = [r["E_dephase"] / r["t"] for r in rows]
        assert max(flip_ratios) / min(flip_ratios) < 3.0
        assert 0.5 < min(dephase_ratios) and max(dephase_ratios) < 2.0


class TestCycleIteration:
    def test_more_cycles_reduce_couplings_same_order(self):
        grid = np.geomspace(3e-3, 3e-2, 8)
        fits, mids = [], []
        for c in (1, 2, 4):
            rows = evaluate_scan({"name": "cpmg-udd", "m": 2, "c": c}, GENERIC, grid)
            fits.append(fit_order([r["t"] for r in rows], [r["E_total"] for r in rows]))
            mids.append(rows[4]["E_total"])
        assert mids[0] > mids[1] > mids[2]
        for fit in fits[1:]:
            assert fit.slope == pytest.approx(fits[0].slope, abs=0.25)


class TestCounts:
    def test_reference_rows(self):
        rows = count_compare(3)
        assert rows[-1] == {"m": 3, "claimed_order": 4, "cdd": 64, "cudd": 30, "udd2": 195}

    def test_cudd_never_worse_than_cdd(self):
        rows = count_compare(12)
        assert rows[0]["cudd"] <= rows[0]["cdd"]  # equal at m = 1
        for row in rows[1:]:
            assert row["cudd"] < row["cdd"]

    def test_udd2_wins_at_twelve(self):
        rows = count_compare(12)
        assert rows[-1]["udd2"] < rows[-1]["cudd"]
        assert rows[2]["udd2"] > rows[2]["cudd"]

    def test_bit_exact_reproducibility(self):
        assert count_compare(10) == count_compare(10)

    def test_validation(self):
        with pytest.raises(ValueError):
            count_compare(0)


class TestCrossover:
    def test_value(self):
        n = crossover()
        assert n == 11
        assert (n + 1) ** 3 <= 2**n
        assert n**3 > 2 ** (n - 1)

    def test_not_found(self):
        with pytest.raises(ValueError, match="no crossover"):
            crossover(5)


class TestCsvOutput:
    def test_deterministic_without_meta(self):
        grid = default_t_grid(1.0, points=4)
        rows = evaluate_scan({"name": "cpmg"}, GENERIC, grid)
        bufs = []
        for _ in range(2):
            buf = io.StringIO()
            write_scan_csv(rows, buf, meta=False)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]
        assert bufs[0].startswith("family,param,t,")

    def test_meta_line(self):
        buf = io.StringIO()
        write_scan_csv([], buf, meta=True)
        assert buf.getvalue().startswith("# generated ")

    def test_float_precision_round_trips(self):
        grid = default_t_grid(1.0, points=4)
        rows = evaluate_scan({"name": "cpmg"}, GENERIC, grid)
        buf = io.StringIO()
        write_scan_csv(rows, buf, meta=False)
        line = buf.getvalue().splitlines()[1].split(",")
        assert float(line[2]) == rows[0]["t"]
        assert float(line[6]) == rows[0]["E_total"]


class TestDiagnostics:
    def test_dephasing_bound_reported(self):
        ops = build_model(GENERIC)
        value = dephasing_bound_constant(udd_sequence(2, 0.01), ops)
        assert 0.0 < value < 10.0
