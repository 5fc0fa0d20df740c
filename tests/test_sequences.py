import hashlib
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from _reference import cells_per_pulse, compose_axes, merged_per_level, reference_merge

from ddforge import sequences
from ddforge.sequences import (
    FAMILIES,
    PauliAxis,
    Pulse,
    PulseSequence,
    a_n,
    build_sequence,
    cdd_count_estimate,
    cdd_full,
    cdd_xx,
    commensurate_grid,
    cpmg,
    cpmg_udd,
    cudd,
    cudd_count,
    d_approx,
    icpmg,
    pdd,
    schedule_from_json,
    schedule_to_json,
    spin_echo,
    udd2_approx,
    udd2_count,
    udd_instants,
    udd_sequence,
)

F = Fraction
X, Y, Z = PauliAxis.X, PauliAxis.Y, PauliAxis.Z


def instants(seq):
    return [p.instant for p in seq.pulses]


def schedule(seq):
    return [(p.instant, p.axis) for p in seq.pulses]


class TestUddInstants:
    def test_spin_echo_midpoint(self):
        assert udd_instants(1) == [pytest.approx(0.5)]

    def test_n2_is_quarter_points(self):
        assert udd_instants(2) == [pytest.approx(0.25), pytest.approx(0.75)]

    def test_n3_values(self):
        # Half-angle identity: sin^2(pi j/8) = (1 - cos(pi j/4))/2.
        expected = [(1 - math.cos(math.pi * j / 4)) / 2 for j in (1, 2, 3)]
        assert udd_instants(3) == pytest.approx(expected)
        assert udd_instants(3) == pytest.approx([0.1464466094067262, 0.5, 0.8535533905932737])

    @pytest.mark.parametrize("n", range(1, 51))
    def test_symmetry_and_monotonicity(self, n):
        xs = udd_instants(n)
        assert all(b > a for a, b in zip(xs, xs[1:]))
        for j in range(n):
            assert xs[j] + xs[n - 1 - j] == pytest.approx(1.0, abs=1e-14)

    def test_degenerate_and_invalid(self):
        assert udd_instants(0) == []
        with pytest.raises(ValueError):
            udd_instants(-1)


class TestUddSequence:
    def test_exactness_flags(self):
        assert instants(udd_sequence(1)) == [F(1, 2)]
        assert instants(udd_sequence(2)) == [F(1, 4), F(3, 4)]
        assert all(not p.is_exact for p in udd_sequence(3).pulses)

    def test_n4_instants(self):
        expected = [(1 - math.cos(math.pi * j / 5)) / 2 for j in (1, 2, 3, 4)]
        assert instants(udd_sequence(4)) == pytest.approx(expected)

    def test_axis_and_family(self):
        seq = udd_sequence(3, 2.0, X)
        assert all(p.axis is X for p in seq.pulses)
        assert seq.family == {"name": "udd", "n": 3, "axis": "X"}
        assert seq.total_duration == 2.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            udd_sequence(0)


class TestClassicSequences:
    def test_spin_echo(self):
        assert schedule(spin_echo()) == [(F(1, 2), Z)]

    def test_cpmg(self):
        assert schedule(cpmg()) == [(F(1, 4), Z), (F(3, 4), Z)]

    def test_cpmg_equals_udd2(self):
        assert schedule(cpmg(axis=X)) == schedule(udd_sequence(2, axis=X))

    def test_pdd(self):
        assert instants(pdd(3)) == [F(1, 4), F(2, 4), F(3, 4)]
        assert instants(pdd(1)) == [F(1, 2)]

    def test_icpmg(self):
        # (f pi f)^(2n) expands to pulses mid-way through each half-cycle.
        assert instants(icpmg(2)) == [F(1, 8), F(3, 8), F(5, 8), F(7, 8)]
        assert schedule(icpmg(1)) == schedule(cpmg())

    def test_validation(self):
        for bad in (pdd, icpmg):
            with pytest.raises(ValueError):
                bad(0)


def merge_pulses(items):
    # The package's merge of raw (instant, axis) pairs, as the families run it on their items.
    return sequences._pulses(sequences._merge(sequences._items(items)))


class TestPauliMerge:
    def test_same_axis_cancels(self):
        assert merge_pulses([(F(1, 2), Z), (F(1, 2), Z)]) == ()

    def test_x_then_z_gives_y(self):
        merged = merge_pulses([(F(1, 2), X), (F(1, 2), Z)])
        assert [(p.instant, p.axis) for p in merged] == [(F(1, 2), Y)]

    def test_triple_composition(self):
        merged = merge_pulses([(F(1, 4), X), (F(1, 4), Y), (F(1, 4), Z)])
        assert merged == ()  # X.Y.Z ~ I modulo phase

    def test_float_fraction_coincidence_keeps_exact(self):
        merged = merge_pulses([(0.25, X), (F(1, 4), Z)])
        assert len(merged) == 1
        assert merged[0].is_exact and merged[0].axis is Y

    def test_matches_per_pulse_reference(self):
        # Ties mix exact and float instants, equal in value (k/8) and not
        # (1/10 against the float 0.1, which sort as equal floats).
        rng = random.Random(5)
        pool = [F(k, 8) for k in range(9)] + [k / 8 for k in range(9)] + [F(1, 10), 0.1, 0.3]
        for _ in range(300):
            items = [(rng.choice(pool), rng.choice([X, Y, Z])) for _ in range(rng.randint(0, 12))]
            want = [(type(i), i, a) for i, a in reference_merge(items)]
            assert [(type(p.instant), p.instant, p.axis) for p in merge_pulses(items)] == want

    def test_compose_axes_table(self):
        assert compose_axes(X, X) is PauliAxis.I
        assert compose_axes(Y, Z) is X
        assert compose_axes(PauliAxis.I, Y) is Y


class TestCddFull:
    def test_level_zero_is_free(self):
        assert cdd_full(0).pulse_count == 0

    def test_level_one_schedule(self):
        # Operator-order expansion: junction pulses land at block starts.
        assert schedule(cdd_full(1)) == [(F(0), Z), (F(1, 4), X), (F(1, 2), Z), (F(3, 4), X)]

    def test_counts(self):
        # Frozen from the merged recursion; ratios tend to 4.
        assert [cdd_full(m).pulse_count for m in range(8)] == [0, 4, 14, 60, 238, 956, 3822, 15292]

    def test_count_ratio_tends_to_four(self):
        c6, c7 = cdd_full(6).pulse_count, cdd_full(7).pulse_count
        assert c7 / c6 == pytest.approx(4.0, abs=0.05)

    def test_no_coincident_or_identity_pulses(self):
        seq = cdd_full(4)
        assert len({p.instant for p in seq.pulses}) == seq.pulse_count
        assert all(p.axis is not PauliAxis.I for p in seq.pulses)


def typed_schedule(pulses):
    return [(type(p.instant), p.instant, p.axis) for p in pulses]


class TestConcatenationCompile:
    @pytest.mark.parametrize("level", range(0, 6))
    def test_cdd_matches_per_level_merge(self, level):
        want = merged_per_level([], [X, Z, X, Z], level)
        assert typed_schedule(cdd_full(level).pulses) == typed_schedule(want)

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("level", range(0, 5))
    def test_uhrig_base_matches_per_level_merge(self, m, level):
        # m = 3 gives float instants, m <= 2 exact ones.
        base = udd_sequence(m)
        want = merged_per_level(schedule(base), [X, X], level)
        assert typed_schedule(cdd_xx(level, base=base).pulses) == typed_schedule(want)
        want = merged_per_level(schedule(base), [X, Z, X, Z], level)
        assert typed_schedule(cdd_full(level, base=base).pulses) == typed_schedule(want)

    def test_float_base_instant_on_a_junction_keeps_exact(self):
        # Base floats 0.0 and 0.5 land exactly on the junctions b/2 and b/4.
        base = PulseSequence(1.0, (Pulse(0.0, Z), Pulse(0.5, Z)))
        for level in range(1, 4):
            want = merged_per_level(schedule(base), [X, X], level)
            assert typed_schedule(cdd_xx(level, base=base).pulses) == typed_schedule(want)
            want = merged_per_level(schedule(base), [X, Z, X, Z], level)
            assert typed_schedule(cdd_full(level, base=base).pulses) == typed_schedule(want)
        first = cdd_xx(1, base=base).pulses[0]
        assert first.is_exact and first.instant == 0 and first.axis is Y


class TestCddXX:
    def test_level_one(self):
        assert schedule(cdd_xx(1)) == [(F(0), X), (F(1, 2), X)]

    def test_level_two_is_cpmg(self):
        assert schedule(cdd_xx(2)) == schedule(cpmg(axis=X))

    @pytest.mark.parametrize("n", range(0, 9))
    def test_counts_match_closed_form(self, n):
        assert cdd_xx(n).pulse_count == a_n(n)

    def test_all_x_axis(self):
        assert all(p.axis is X for p in cdd_xx(5).pulses)


class TestCudd:
    def test_small_case(self):
        seq = cudd(2, 1)
        assert seq.axis_count(Z) == 4 and seq.axis_count(X) == 2
        assert [p.instant for p in seq.pulses if p.axis is Z] == [F(1, 8), F(3, 8), F(5, 8), F(7, 8)]
        assert [p.instant for p in seq.pulses if p.axis is X] == [F(0), F(1, 2)]

    @pytest.mark.parametrize("m", range(1, 6))
    @pytest.mark.parametrize("n", range(0, 7))
    def test_axis_counts(self, m, n):
        seq = cudd(m, n)
        assert seq.axis_count(Z) == m * 2**n
        assert seq.axis_count(X) == a_n(n)
        assert seq.pulse_count == cudd_count(m, n)

    def test_x_count_level3(self):
        assert cudd(1, 3).axis_count(X) == 6


class TestCpmgUdd:
    def test_m2_single_cycle(self):
        seq = cpmg_udd(2, 1)
        assert seq.axis_count(Z) == 8
        assert [p.instant for p in seq.pulses if p.axis is X] == [F(1, 4), F(3, 4)]

    def test_m1_single_cycle(self):
        seq = cpmg_udd(1, 1)
        assert [p.instant for p in seq.pulses if p.axis is Z] == [F(1, 8), F(3, 8), F(5, 8), F(7, 8)]
        assert [p.instant for p in seq.pulses if p.axis is X] == [F(1, 4), F(3, 4)]

    def test_cycle_structure(self):
        # 4c blocks of duration t/(4c): c = 1 keeps the duration relation t = 4 t1.
        for c in (1, 2, 4):
            seq = cpmg_udd(3, c)
            assert seq.axis_count(Z) == 12 * c
            assert seq.axis_count(X) == 2 * c


class TestCellsCompile:
    # The schedule digests pin only hashes, and UDD2 only up to n = 11; these
    # check the cell families against the per-pulse layout of their definition.
    @pytest.mark.parametrize("n", range(1, 16))
    def test_udd2_matches_per_pulse_reference(self, n):
        outer = [(d_approx(F(j, n + 1)), X) for j in range(1, n + 1)]
        want = cells_per_pulse(schedule(udd_sequence(n)), (n + 1) ** 3, outer)
        assert typed_schedule(udd2_approx(n).pulses) == typed_schedule(want)

    @pytest.mark.parametrize("c", [1, 2, 3, 4, 64])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_cpmg_udd_matches_per_pulse_reference(self, m, c):
        outer = [(F(k, 4 * c), X) for k in range(1, 4 * c, 2)]
        want = cells_per_pulse(schedule(udd_sequence(m)), 4 * c, outer)
        assert typed_schedule(cpmg_udd(m, c).pulses) == typed_schedule(want)


class TestDApprox:
    def test_fixed_points(self):
        assert d_approx(F(1, 2)) == F(1, 2)
        assert d_approx(F(0)) == 0
        assert d_approx(F(1)) == 1

    def test_exact_rational(self):
        assert d_approx(F(1, 6)) == F(2, 27)
        assert isinstance(d_approx(0.3), float)

    def test_vanishing_slope_at_ends(self):
        h = 1e-6
        assert d_approx(h) / h < 4 * h
        assert (1 - d_approx(1 - h)) / h < 4 * h

    def test_domain(self):
        with pytest.raises(ValueError):
            d_approx(1.5)
        with pytest.raises(ValueError):
            d_approx(F(-1, 2))

    def test_approximates_sine_profile(self):
        worst = max(
            abs(math.sin(math.pi * k / 20000 / 2) ** 2 - d_approx(k / 10000 / 2)) for k in range(10001)
        )
        assert worst < 0.0105


class TestUdd2Approx:
    def test_n1_structure(self):
        seq = udd2_approx(1)
        assert seq.pulse_count == 9
        assert [p.instant for p in seq.pulses if p.axis is X] == [F(1, 2)]
        zs = [p.instant for p in seq.pulses if p.axis is Z]
        assert zs == [F(2 * k + 1, 16) for k in range(8)]

    def test_outer_instants_exact(self):
        seq = udd2_approx(5)
        outer = [p.instant for p in seq.pulses if p.axis is X]
        assert outer[0] == F(2, 27)
        # Numerators over the (n+1)^3 grid are all multiples of 4 here.
        assert all((x * 216).denominator == 1 and int(x * 216) % 4 == 0 for x in outer)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_count_formula(self, n):
        assert udd2_approx(n).pulse_count == udd2_count(n) == n * (n + 1) ** 3 + n

    def test_inner_blocks_inexact_for_n3(self):
        seq = udd2_approx(3)
        assert all(not p.is_exact for p in seq.pulses if p.axis is Z)
        assert all(p.is_exact for p in seq.pulses if p.axis is X)


class TestCommensurateGrid:
    def test_classic_grids(self):
        assert commensurate_grid(cpmg()) == 4
        assert commensurate_grid(pdd(3)) == 4
        assert commensurate_grid(icpmg(2)) == 8
        assert commensurate_grid(spin_echo()) == 2

    def test_empty_schedule(self):
        assert commensurate_grid(PulseSequence(1.0, ())) == 1

    def test_irrational_instants(self):
        assert commensurate_grid(udd_sequence(3)) is None
        assert commensurate_grid(udd2_approx(3)) is None

    def test_udd2_outer_grid_divides_cube(self):
        for n in range(1, 8):
            outer = udd2_approx(n).filter_axis(X)
            grid = commensurate_grid(outer)
            assert (n + 1) ** 3 % grid == 0

    @pytest.mark.parametrize("n", [1, 5, 9, 13])
    def test_udd2_outer_grid_quarter_when_half_odd(self, n):
        # n+1 = 2l with l odd: the outer instants sit on the coarser grid
        # of (n+1)^3/4 steps.
        outer = udd2_approx(n).filter_axis(X)
        grid = commensurate_grid(outer)
        assert ((n + 1) ** 3 // 4) % grid == 0

    def test_cudd_grid(self):
        assert commensurate_grid(cudd(2, 2)) == 16


class TestCounts:
    def test_a_n_values(self):
        assert [a_n(n) for n in range(5)] == [0, 2, 2, 6, 10]

    @pytest.mark.parametrize("n", range(0, 31))
    def test_a_n_recursion_matches_closed_form(self, n):
        # The closed form against the recurrence step, in exact integer
        # arithmetic; with a_0 = 0 above, this is the recursion for n <= 30.
        if n:
            assert a_n(n) == 2 * a_n(n - 1) + 2 * (-1) ** (n - 1)

    def test_count_formulas(self):
        assert cudd_count(3, 3) == 30
        assert cdd_count_estimate(3) == 64
        assert udd2_count(1) == 9
        assert udd2_count(3) == 195

    def test_validation(self):
        with pytest.raises(ValueError):
            a_n(-1)
        with pytest.raises(ValueError):
            cudd_count(0, 1)
        with pytest.raises(ValueError):
            udd2_count(0)


class TestPulseSequenceType:
    def test_rejects_identity_pulse(self):
        with pytest.raises(ValueError):
            Pulse(F(1, 2), PauliAxis.I)

    def test_rejects_out_of_range_instant(self):
        with pytest.raises(ValueError):
            Pulse(1.5, Z)

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            PulseSequence(1.0, (Pulse(F(3, 4), Z), Pulse(F(1, 4), Z)))

    def test_rejects_nonpositive_duration(self):
        with pytest.raises(ValueError):
            PulseSequence(0.0, ())

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_duration(self, t):
        with pytest.raises(ValueError, match="total_duration"):
            PulseSequence(t, ())
        with pytest.raises(ValueError, match="total_duration"):
            cdd_full(2, t)
        with pytest.raises(ValueError, match="total_duration"):
            cpmg().with_duration(t)

    @pytest.mark.parametrize("t", [5e-324, 1e-310, math.nextafter(sys.float_info.min, 0)])
    def test_rejects_subnormal_duration(self, t):
        # The one duration rule: every schedule and every re-timed copy is at least the smallest normal float.
        message = (f"total_duration = {t!r}; durations must be at least {sys.float_info.min!r}, "
                   "the smallest normal float")
        for make in (lambda: PulseSequence(t, ()), lambda: cdd_full(2, t), lambda: cpmg().with_duration(t)):
            with pytest.raises(ValueError) as err:
                make()
            assert str(err.value) == message
        assert PulseSequence(sys.float_info.min, ()).total_duration == sys.float_info.min

    def test_common_denominator_overflow_raises(self):
        with pytest.raises(ValueError, match="overflows int64"):
            PulseSequence(1.0, (Pulse(F(1, 2**62), Z), Pulse(F(1, 3), Z)))
        # 2^62 - 1 is odd: one level of two blocks fits in int64, two do not.
        base = PulseSequence(1.0, (Pulse(F(1, 2**62 - 1), Z),))
        seq = cdd_xx(1, base=base)
        assert schedule(seq) == [(F(0), X), (F(1, 2**63 - 2), Z), (F(1, 2), X), (F(2**62, 2**63 - 2), Z)]
        assert all(x == p.t_frac for x, p in zip(seq.instants.tolist(), seq.pulses))
        with pytest.raises(ValueError, match="overflows int64"):
            cdd_xx(2, base=base)

    def test_mixed_tie_orders_by_exact_value(self):
        # float(1/3) lies just below 1/3, so the float pulse comes first and
        # the two pulses share one float instant; the reverse order steps down.
        seq = PulseSequence(1.0, (Pulse(1 / 3, X), Pulse(F(1, 3), Z)))
        assert seq.instants[0] == seq.instants[1] and schedule(seq) == [(1 / 3, X), (F(1, 3), Z)]
        with pytest.raises(ValueError, match="strictly increasing"):
            PulseSequence(1.0, (Pulse(F(1, 3), Z), Pulse(1 / 3, X)))

    def test_filter_axis(self):
        seq = cudd(2, 1)
        assert seq.filter_axis(Z).pulse_count == 4
        assert seq.filter_axis(X).pulse_count == 2


class TestEmittedScheduleInvariants:
    # Every generator must emit strictly increasing instants with no
    # identity pulses, whatever merging happened along the way.
    ALL_FAMILIES = [
        spin_echo(),
        cpmg(),
        pdd(5),
        icpmg(3),
        udd_sequence(1),
        udd_sequence(4),
        cdd_full(3),
        cdd_full(2, base=udd_sequence(2)),
        cdd_xx(4),
        cdd_xx(2, base=udd_sequence(3)),
        cudd(3, 3),
        cpmg_udd(2, 2),
        udd2_approx(2),
        udd2_approx(3),
    ]

    @pytest.mark.parametrize("seq", ALL_FAMILIES, ids=lambda s: s.label)
    def test_no_coincident_no_identity(self, seq):
        floats = [p.t_frac for p in seq.pulses]
        assert all(b > a for a, b in zip(floats, floats[1:]))
        assert all(p.axis is not PauliAxis.I for p in seq.pulses)
        assert all(0 <= p.t_frac <= 1 for p in seq.pulses)

    def test_with_duration_rescales_only_time(self):
        seq = cpmg(1.0)
        longer = seq.with_duration(4.0)
        assert longer.total_duration == 4.0
        assert [p.instant for p in longer.pulses] == [p.instant for p in seq.pulses]

    def test_with_duration_shares_arrays_and_segment_plan(self):
        from ddforge.evolution import _segment_plan

        seq = cdd_full(3, 1.0)
        plan = _segment_plan(seq)
        longer = seq.with_duration(2.0)
        assert _segment_plan(longer) is plan
        assert longer.instants is seq.instants and longer.codes is seq.codes
        assert (longer.total_duration, seq.total_duration) == (2.0, 1.0)


def test_deep_build_and_compose_make_no_pulse(monkeypatch):
    # build -> sequence_unitary -> F_e reads the arrays; no Pulse is made.
    from ddforge import bath, evolution

    ops = bath.build_model(bath.ModelSpec(d=4, seed=7))

    def refuse(self):
        raise AssertionError("a Pulse was made")

    monkeypatch.setattr(Pulse, "__post_init__", refuse)
    seq = build_sequence("cdd", 0.01, m=7)
    fe = evolution.entanglement_fidelity(evolution.sequence_unitary(seq, ops))
    assert seq.pulse_count == 15292 and 0.99 < fe <= 1.0
    monkeypatch.undo()
    assert len(seq.pulses) == 15292


# sha256 of schedule_to_json at t = 1, recorded from the per-pulse Fraction
# build that the array build replaced; the key is "family,param=value,...".
SCHEDULE_DIGESTS = json.loads((Path(__file__).parent / "golden" / "schedule-digests.json").read_text())


@pytest.mark.parametrize("key", sorted(SCHEDULE_DIGESTS))
def test_schedule_json_digest(key):
    name, *params = key.split(",")
    seq = build_sequence(name, 1.0, **{k: int(v) for k, v in (p.split("=") for p in params)})
    assert hashlib.sha256(schedule_to_json(seq).encode()).hexdigest() == SCHEDULE_DIGESTS[key]


class TestBuildSequence:
    @pytest.mark.parametrize(
        "family,kwargs,count",
        [
            ("none", {}, 0),
            ("se", {}, 1),
            ("cpmg", {}, 2),
            ("pdd", {"n": 3}, 3),
            ("icpmg", {"c": 2}, 4),
            ("udd", {"n": 4}, 4),
            ("cdd", {"m": 2}, 14),
            ("cddxx", {"n": 3}, 6),
            ("cudd", {"m": 2, "n": 2}, 10),
            ("cpmg-udd", {"m": 2, "c": 1}, 10),
            ("udd2", {"n": 1}, 9),
        ],
    )
    def test_dispatch(self, family, kwargs, count):
        assert build_sequence(family, 1.0, **kwargs).pulse_count == count

    def test_missing_param(self):
        with pytest.raises(ValueError, match="requires"):
            build_sequence("udd", 1.0)

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown family"):
            build_sequence("xy8", 1.0)


# One member of each family; the builder each name dispatches to, called directly, is the uncached build.
MEMO_FAMILIES = [
    ("none", {}, lambda t: PulseSequence(t, (), "free", {"name": "none"})),
    ("se", {"axis": X}, lambda t: spin_echo(t, X)),
    ("cpmg", {}, lambda t: cpmg(t)),
    ("pdd", {"n": 3, "axis": Y}, lambda t: pdd(3, t, Y)),
    ("icpmg", {"c": 2}, lambda t: icpmg(2, t)),
    ("udd", {"n": 5}, lambda t: udd_sequence(5, t)),
    ("cdd", {"m": 5}, lambda t: cdd_full(5, t)),
    ("cddxx", {"n": 4}, lambda t: cdd_xx(4, t)),
    ("cudd", {"m": 3, "n": 3}, lambda t: cudd(3, 3, t)),
    ("cpmg_udd", {"m": 2, "c": 2}, lambda t: cpmg_udd(2, 2, t)),
    ("udd2", {"n": 3}, lambda t: udd2_approx(3, t)),
]


def block_record(seq):
    """Every level's copy frames and the leaf's arrays, as bytes."""
    node, record = seq.blocks, []
    while node is not None and not isinstance(node, PulseSequence):
        record.append(node.frames.tobytes())
        node = node.child
    return record, None if node is None else [a.tobytes() for a in node._arrays[:4]]


class TestBuildMemo:
    @pytest.mark.parametrize("name, params, fresh", MEMO_FAMILIES, ids=[f[0] for f in MEMO_FAMILIES])
    def test_hit_equals_fresh_build(self, name, params, fresh):
        from ddforge import bath, evolution

        ops = bath.build_model(bath.ModelSpec(d=4, seed=7))
        first = build_sequence(name, 0.01, **params)
        evolution.sequence_unitary(first, ops)  # forms the plans every later copy shares
        for t in (0.01, 0.05):
            hit, want = build_sequence(name, t, **params), fresh(t)
            assert hit is not first and hit._cache is first._cache
            assert evolution._control(hit) is evolution._control(first)
            assert hashlib.sha256(schedule_to_json(hit).encode()).digest() == \
                hashlib.sha256(schedule_to_json(want).encode()).digest()
            assert [a.tobytes() for a in hit._arrays[:4]] == [a.tobytes() for a in want._arrays[:4]]
            assert hit.denominator == want.denominator and hit.total_duration == t
            assert block_record(hit) == block_record(want)
            got, ref = evolution.sequence_unitary(hit, ops), evolution.sequence_unitary(want, ops)
            assert got.w.tobytes() == ref.w.tobytes() and got.u.tobytes() == ref.u.tobytes()

    def test_mutating_a_result_does_not_reach_the_next(self):
        seq = build_sequence("cdd", 0.5, m=3)
        seq.family["m"], seq.family["extra"] = 99, True
        seq.label, seq.blocks = "bogus", None
        with pytest.raises(ValueError):
            build_sequence("cdd", 0.5, m=3).blocks.frames[0] = 1
        again = build_sequence("cdd", 0.5, m=3)
        assert again.family == {"name": "cdd", "m": 3} and again.label == "CDD-3"
        assert block_record(again) == block_record(cdd_full(3, 0.5))

    @pytest.mark.parametrize("order", [(True, 1), (1, True)], ids=["bool-first", "int-first"])
    def test_keys_are_typed(self, order):
        # n=True built UDD-True, and an untyped memo would hand it n=1's UDD-1; a bool is no count, built first or not.
        for n in order:
            if n is True:
                with pytest.raises(ValueError, match=r"^n must be a positive integer, got True$"):
                    build_sequence("udd", 1.0, n=n)
            else:
                assert build_sequence("udd", 1.0, n=n).label == "UDD-1"

    @pytest.mark.parametrize("kwargs, message, cached", [
        ({"family": "udd", "n": 0}, "n must be a positive integer, got 0", 0),
        ({"family": "cdd"}, "family 'cdd' requires --m", 0),
        ({"family": "cudd", "m": 2, "n": -1}, "n must be a non-negative integer, got -1", 0),
        ({"family": "udd", "n": 2, "axis": "Q"}, "'Q' is not a valid PauliAxis", 0),
        ({"family": "xy8"}, "unknown family 'xy8'; expected one of " + ", ".join(FAMILIES), 0),
        # The unit schedule is sound and kept; only its re-timing fails.
        ({"family": "cpmg", "total_duration": -1.0}, "total_duration = -1.0; durations must be finite and > 0", 1),
        ({"family": "udd", "n": 0, "total_duration": -1.0}, "n must be a positive integer, got 0", 0),
        # A count parameter the family does not take was ignored, and the schedule kept under it.
        ({"family": "cdd", "m": 2, "n": 7}, "family 'cdd' takes no --n", 0),
        ({"family": "udd", "n": 2, "m": 1}, "family 'udd' takes no --m", 0),
        ({"family": "none", "c": 3, "axis": "X"}, "family 'none' takes no --c", 0),
    ], ids=["bad-n", "missing-m", "bad-level", "bad-axis", "unknown", "bad-duration", "n-before-duration",
            "cdd-n", "udd-m", "none-c"])
    def test_failed_build_is_not_cached(self, kwargs, message, cached):
        from ddforge import sequences

        for _ in range(2):
            with pytest.raises(ValueError) as err:
                build_sequence(**kwargs)
            assert str(err.value) == message
        assert sequences._unit_schedule.cache_info().currsize == cached

    def test_axis_unchecked_where_ignored(self):
        assert build_sequence("cdd", 1.0, m=1, axis="Q").label == "CDD-1"

    @pytest.mark.parametrize("family, params", [("udd", {"n": 2}), ("cdd", {"m": 2})])
    def test_unhashable_argument_raises_the_memo_type_error(self, family, params):
        # A list cannot key the memo; it was built uncached, and read as an axis where the family ignores it.
        from ddforge import sequences

        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            build_sequence(family, 1.0, axis=["Z"], **params)
        assert sequences._unit_schedule.cache_info().currsize == 0


class TestScheduleJson:
    def test_round_trip_exact(self):
        seq = cudd(2, 2, total_duration=0.5)
        text = schedule_to_json(seq)
        back = schedule_from_json(text)
        assert schedule(back) == schedule(seq)
        assert back.total_duration == seq.total_duration
        assert back.family == seq.family
        assert schedule_to_json(back) == text

    def test_round_trip_float(self):
        seq = udd_sequence(5, 0.123)
        back = schedule_from_json(schedule_to_json(seq))
        assert [p.instant for p in back.pulses] == [p.instant for p in seq.pulses]
        assert all(not p.is_exact for p in back.pulses)

    def test_field_layout(self):
        data = json.loads(schedule_to_json(cpmg()))
        assert list(data) == ["label", "total_duration", "family", "pulses"]
        assert data["pulses"][0] == {"axis": "Z", "num": 1, "den": 4, "t_frac": 0.25}

    def test_inexact_pulses_omit_num_den(self):
        data = json.loads(schedule_to_json(udd_sequence(3)))
        assert all("num" not in p for p in data["pulses"])

    @pytest.mark.parametrize("entry, message", [
        ({"axis": "X", "num": 1, "den": 0, "t_frac": 0.5}, "pulse 1 key 'den' must be a positive integer, got 0"),
        ({"num": 1, "den": 2, "t_frac": 0.5}, "pulse 1 lacks key 'axis'"),
        ({"axis": "X", "num": 1, "t_frac": 0.5}, "pulse 1 lacks key 'den'"),
        ({"axis": "X"}, "pulse 1 lacks key 't_frac'"),
        ({"axis": "X", "num": 1.5, "den": 2, "t_frac": 0.75}, "pulse 1 key 'num' must be an integer, got 1.5"),
        ({"axis": "X", "t_frac": "0.5"}, "pulse 1 key 't_frac' must be a number, got '0.5'"),
        (None, "schedule key 'pulses' must be a list"),
        # schedule_to_dict writes an exact entry's t_frac as the float of num/den; a disagreeing one was ignored.
        ({"axis": "X", "num": 1, "den": 4, "t_frac": 0.9}, r"pulse 1 key 't_frac' is 0\.9, but num/den 1/4 is 0\.25$"),
    ], ids=["den-0", "no-axis", "no-den", "no-t_frac", "num-float", "t_frac-string", "pulses-object",
            "t_frac-disagrees"])
    def test_malformed_entry_names_index_and_key(self, entry, message):
        data = json.loads(schedule_to_json(cpmg()))
        if entry is None:
            data["pulses"] = {"0": data["pulses"][0]}
        else:
            data["pulses"][1] = entry
        with pytest.raises(ValueError, match=message):
            schedule_from_json(json.dumps(data))

    @pytest.mark.parametrize("pulse, key, message", [
        (False, "lable", "unknown schedule key 'lable'; expected one of label, total_duration, family, pulses"),
        (True, "axes", "unknown schedule pulse 1 key 'axes'; expected one of axis, num, den, t_frac"),
    ], ids=["top-level", "pulse"])
    def test_unknown_key_is_rejected(self, pulse, key, message):
        # "lable" was read as an empty label, and an unknown pulse key was dropped.
        data = json.loads(schedule_to_json(cpmg()))
        (data["pulses"][1] if pulse else data)[key] = "X"
        with pytest.raises(ValueError) as err:
            schedule_from_json(json.dumps(data))
        assert str(err.value) == message

    def test_exact_entry_reads_without_t_frac(self):
        data = json.loads(schedule_to_json(cpmg()))
        for entry in data["pulses"]:
            del entry["t_frac"]
        assert schedule(schedule_from_json(json.dumps(data))) == schedule(cpmg())
