import csv
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from _reference import exact_slope

from ddforge import bath, sequences
from ddforge.cli import build_parser, main
from ddforge.sequences import cudd, schedule_from_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def printed_slope(text):
    line = [ln for ln in text.splitlines() if ln.startswith("E_flip slope:")][0]
    return float(line.split()[2])


class TestGen:
    def test_cpmg(self, capsys, tmp_path):
        out_file = tmp_path / "schedule.json"
        code, out, _ = run(capsys, "gen", "cpmg", "--t", "1.0", "--out", str(out_file))
        assert code == 0
        assert "CPMG: 2 pulses" in out
        assert "grid: D=4" in out
        seq = schedule_from_json(out_file.read_text())
        assert seq.pulse_count == 2

    def test_cudd_counts(self, capsys, tmp_path):
        out_file = tmp_path / "cudd.json"
        code, out, _ = run(capsys, "gen", "cudd", "--m", "2", "--n", "2", "--t", "1.0", "--out", str(out_file))
        assert code == 0
        assert "10 pulses" in out and "2 X" in out and "8 Z" in out
        written = schedule_from_json(out_file.read_text())
        reference = cudd(2, 2, 1.0)
        assert [(p.instant, p.axis) for p in written.pulses] == [
            (p.instant, p.axis) for p in reference.pulses
        ]

    def test_udd2(self, capsys):
        code, out, _ = run(capsys, "gen", "udd2", "--n", "1")
        assert code == 0
        assert "9 pulses" in out

    def test_not_commensurate(self, capsys):
        code, out, _ = run(capsys, "gen", "udd", "--n", "3")
        assert code == 0
        assert "not commensurate" in out

    def test_missing_param_is_usage_error(self, capsys):
        code, _, err = run(capsys, "gen", "udd")
        assert code == 2
        assert "requires" in err

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "gen", "xy8")
        assert code == 2

    def test_non_finite_duration_is_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "f.json"
        code, _, err = run(capsys, "gen", "cdd", "--m", "1", "--t", "nan", "--out", str(out_file))
        assert code == 2
        assert "total_duration" in err and "nan" in err
        assert not out_file.exists()


class TestCounts:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "counts", "--m-max", "3")
        assert code == 0
        line = [ln for ln in out.splitlines() if ln.strip().startswith("3")][0]
        assert line.split() == ["3", "4", "64", "30", "195"]

    def test_csv(self, capsys, tmp_path):
        out_file = tmp_path / "counts.csv"
        code, _, _ = run(capsys, "counts", "--m-max", "2", "--out", str(out_file), "--no-meta")
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0] == "m,claimed_order,cdd,cudd,udd2"
        assert lines[1] == "1,2,4,4,9"

    def test_m_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "counts", "--m-max", "0")
        assert code == 2
        assert "m_max" in err


class TestCrossover:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "crossover")
        assert code == 0
        assert "n = 11" in out

    def test_not_found(self, capsys):
        code, _, err = run(capsys, "crossover", "--n-max", "5")
        assert code == 2
        assert "no crossover" in err


class TestOrder:
    def test_free_slope_one(self, capsys, tmp_path):
        csv_file = tmp_path / "scan.csv"
        summary_file = tmp_path / "fit.json"
        code, out, _ = run(
            capsys,
            "order", "none", "--points", "4", "--seed", "7",
            "--out", str(csv_file), "--summary", str(summary_file), "--no-meta",
        )
        assert code == 0
        assert "E_total slope" not in out  # default functional is flip
        summary = json.loads(summary_file.read_text())
        assert set(summary) == {"slope", "intercept", "r2", "pairwise"}

    def test_summary_slope_is_exact_regression_of_csv(self, capsys, tmp_path):
        # The CSV's 17 significant digits round-trip every float, so the fit
        # can be redone exactly from the file; its last digits are not pinned.
        csv_file, summary_file = tmp_path / "scan.csv", tmp_path / "fit.json"
        code, _, _ = run(
            capsys,
            "order", "udd", "--n", "3", "--seed", "7",
            "--out", str(csv_file), "--summary", str(summary_file), "--no-meta",
        )
        assert code == 0
        rows = list(csv.DictReader(csv_file.read_text().splitlines()))
        want = exact_slope([float(r["t"]) for r in rows], [float(r["E_flip"]) for r in rows])
        slope = json.loads(summary_file.read_text())["slope"]
        assert abs(slope - want) <= 1e-14 * abs(want)

    def test_total_functional_and_determinism(self, capsys, tmp_path):
        files = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            code, out, _ = run(
                capsys,
                "order", "none", "--functional", "total", "--points", "4",
                "--seed", "7", "--out", str(path), "--no-meta",
            )
            assert code == 0
            assert "E_total slope: 1.0" in out
            files.append(path.read_text())
        assert files[0] == files[1]

    def test_branch_exit_code(self, capsys):
        code, _, err = run(capsys, "order", "none", "--at-max", "2.0", "--seed", "7")
        assert code == 3
        assert "shrink" in err

    @pytest.mark.parametrize("precision", ["double", "extended"])
    def test_subnormal_duration_is_usage_error_naming_it(self, capsys, precision):
        # A subnormal grid printed RuntimeWarnings from the Pauli split, then "Eigenvalues did not converge".
        code, out, err = run(capsys, "order", "udd", "--n", "2", "--at-min", "1e-310", "--at-max", "1e-309",
                             "--seed", "7", "--precision", precision)
        assert code == 2 and out == ""
        assert err == ("error: t_grid[0] = 1e-310; durations must be at least 2.2250738585072014e-308, "
                       "the smallest normal float\n")

    def test_branch_advice_follows_precision(self, capsys, tmp_path):
        # Switching to extended precision is advice for double runs only,
        # whether the precision came from a flag or from the config file.
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"precision": "extended"}))
        runs = {
            "double": ("order", "none", "--at-max", "2.0"),
            "extended": ("order", "none", "--at-max", "2.0", "--precision", "extended"),
            "extended-config": ("order", "none", "--at-max", "2.0", "--config", str(config)),
        }
        for name, argv in runs.items():
            code, _, err = run(capsys, *argv)
            assert code == 3
            assert "advice: shrink the duration grid (--at-max)" in err
            assert ("--precision extended" in err) == (name == "double")

    def test_degenerate_prints_not_defined(self, capsys):
        code, out, _ = run(
            capsys,
            "order", "udd", "--n", "2", "--preset", "pure_dephasing",
            "--functional", "flip", "--points", "4", "--seed", "7",
        )
        assert code == 0
        assert "not defined" in out

    def test_seed_env_fallback(self, capsys, tmp_path, monkeypatch):
        env_csv = tmp_path / "env.csv"
        flag_csv = tmp_path / "flag.csv"
        monkeypatch.setenv("DDFORGE_SEED", "42")
        code, _, _ = run(capsys, "order", "none", "--points", "4", "--out", str(env_csv), "--no-meta")
        assert code == 0
        monkeypatch.delenv("DDFORGE_SEED")
        code, _, _ = run(capsys, "order", "none", "--points", "4", "--seed", "42", "--out", str(flag_csv), "--no-meta")
        assert code == 0
        assert env_csv.read_text() == flag_csv.read_text()

    @pytest.mark.parametrize("source, message", [
        ("flag", "--seed must be a non-negative integer, got -1"),
        ("env", "DDFORGE_SEED must be a non-negative integer, got '-3'"),
        ("env-text", "DDFORGE_SEED must be a non-negative integer, got 'abc'"),
        ("model", "model key 'seed' in {path} must be a non-negative integer, got -2"),
        ("config", "config key 'seed' in {path} must be a non-negative integer, got -4"),
        ("seeds", "seeds[0] must be a non-negative integer, got '-1'"),
    ], ids=["flag", "env", "env-text", "model", "config", "seeds"])
    def test_bad_seed_is_usage_error_naming_it(self, capsys, tmp_path, monkeypatch, source, message):
        # Each message names where the seed came from: the flag, the variable, or the file, as a mistyped key's does.
        argv, path = ["order", "none", "--points", "4"], None
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "seeds":
            argv += ["--seeds=-1,2"]
        elif source.startswith("env"):
            monkeypatch.setenv("DDFORGE_SEED", "-3" if source == "env" else "abc")
        else:
            path = tmp_path / f"{source}.json"
            path.write_text(json.dumps({"seed": -2 if source == "model" else -4}))
            argv += [f"--{source}", str(path)]
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message.format(path=path)}\n")

    @pytest.mark.parametrize("source", ["flag", "config", "model", "env"])
    def test_seed_variable_is_read_only_when_it_gives_the_seed(self, capsys, tmp_path, monkeypatch, source):
        # DDFORGE_SEED=abc failed every run, also one whose seed the flag, a config or a model file gave.
        argv = ["order", "udd", "--n", "2", "--points", "4"]
        monkeypatch.delenv("DDFORGE_SEED", raising=False)
        seeded = run(capsys, *argv, "--seed", "7")
        if source == "flag":
            argv += ["--seed", "7"]
        elif source != "env":
            path = tmp_path / f"{source}.json"
            path.write_text(json.dumps({"seed": 7}))
            argv += [f"--{source}", str(path)]
        monkeypatch.setenv("DDFORGE_SEED", "abc")
        if source == "env":
            assert run(capsys, *argv) == (2, "", "error: DDFORGE_SEED must be a non-negative integer, got 'abc'\n")
        else:
            assert seeded[0] == 0 and run(capsys, *argv) == seeded

    def test_config_precedence(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n": 1, "points": 4, "seed": 7, "functional": "flip"}))
        code, out, _ = run(capsys, "order", "udd", "--config", str(config))
        assert code == 0
        assert printed_slope(out) == pytest.approx(2.0, abs=0.25)  # n=1 from config
        code, out, _ = run(capsys, "order", "udd", "--config", str(config), "--n", "2")
        assert code == 0
        assert printed_slope(out) == pytest.approx(3.0, abs=0.25)  # flag overrides config

    def test_udd3_slope_in_double(self, capsys):
        # Near the identity the deviation unitary's log must keep its
        # accuracy; the default grid then shows the full order n + 1.
        code, out, _ = run(capsys, "order", "udd", "--n", "3", "--seed", "7")
        assert code == 0
        assert printed_slope(out) == pytest.approx(4.0, abs=0.25)


    def test_warns_at_double_floor(self, capsys):
        # At seed 7 every E_flip point of CDD-4 lies within 1000x of the
        # double floor: one warning per point, and stdout and the exit code
        # stay as they were.
        code, out, err = run(capsys, "order", "cdd", "--m", "4", "--seed", "7")
        assert code == 0
        assert out.startswith("E_flip slope:")
        warnings = err.splitlines()
        assert len(warnings) == 8
        assert all(w.startswith("warning: E_flip = ") and w.endswith("use --precision extended") for w in warnings)

    @pytest.mark.parametrize("at_min, at_max", [("1e-100", "1e-99"), ("1e-170", "1e-169")])
    def test_underflowed_squares_still_warn(self, capsys, at_min, at_max):
        # Where |Z^2|_F underflows the floor stays positive, so every UDD-2 E_flip point warns:
        # about 1e-201 here (exactly 0 at 1e-170), its slope 2 is not its order 3.
        code, out, err = run(capsys, "order", "udd", "--n", "2", "--seed", "7", "--at-min", at_min, "--at-max", at_max)
        assert code == 0 and out.startswith("E_flip slope:")
        warnings = err.splitlines()
        assert len(warnings) == 8 and all(w.startswith("warning: E_flip = ") for w in warnings)

    def test_exact_zero_warns_at_double_floor(self, capsys):
        # Composed by its blocks, CDD-4's E_dephase (about 1e-39) rounds to exactly 0 at
        # every point: a value below the floor, not a zero, so each point warns.
        code, out, err = run(capsys, "order", "cdd", "--m", "4", "--seed", "7", "--functional", "dephase")
        assert code == 0
        assert out.startswith("E_dephase slope: not defined") and "identically zero" not in out
        warnings = err.splitlines()
        assert len(warnings) == 8
        assert all(w.startswith("warning: E_dephase = 0 at t=") for w in warnings)

    def test_exact_zero_fails_at_extended_floor(self, capsys):
        # Extended CDD-6's E_dephase reads exactly 0 against a floor near 1e-31; it is not resolved.
        code, out, err = run(capsys, "order", "cdd", "--m", "6", "--precision", "extended",
                             "--functional", "dephase", "--seed", "7")
        assert code == 3 and out == ""
        assert err.startswith("error: E_dephase = 0 at t=") and err.endswith("; not resolved\n")

    def test_no_warning_above_double_floor(self, capsys, tmp_path):
        code, _, err = run(capsys, "order", "cudd", "--m", "2", "--n", "2", "--seed", "7",
                           "--out", str(tmp_path / "scan.csv"), "--no-meta")
        assert code == 0 and err == ""


class TestPredictMagnus:
    def test_ratio_output(self, capsys):
        code, out, _ = run(capsys, "predict-magnus", "--level", "1", "--tau0", "0.01", "--halvings", "2", "--seed", "7")
        assert code == 0
        assert "deviation ratio" in out
        ratios = [float(ln.rsplit(" ", 1)[1]) for ln in out.splitlines() if ln.startswith("deviation ratio")]
        assert all(r == pytest.approx(4.0, abs=0.5) for r in ratios)

    def test_branch_advice_names_tau0(self, capsys):
        # The two-block step at tau0 = 10 spans t = 20, past the branch cut.
        code, _, err = run(capsys, "predict-magnus", "--tau0", "10", "--seed", "7", "--halvings", "0")
        assert code == 3
        assert "advice: shrink the base duration (--tau0)\n" in err
        assert "--at-max" not in err and "--precision" not in err

    @pytest.mark.parametrize("option, message", [
        (("--halvings", "-1"), "--halvings must be a non-negative integer, got -1"),
        (("--norm-z", "0"), "the dephasing coupling A_z is zero; the predictor needs --norm-z > 0"),
        (("--level", "-1"), "--level must be a non-negative integer, got -1"),
        (("--tau0", "-1"), "--tau0 = -1.0; durations must be finite and > 0"),
        (("--tau0", "1e-310", "--halvings", "0"),
         "--tau0 = 1e-310; durations must be at least 2.2250738585072014e-308, the smallest normal float"),
        (("--tau0", "3e-308", "--halvings", "3"),
         "--tau0 / 2^halvings = 3.75e-309; durations must be at least 2.2250738585072014e-308, "
         "the smallest normal float"),
        # The CDDxx step spans tau0 * 2^level; its overflow was blamed on total_duration, which no flag is called.
        (("--tau0", "1e308"), "--tau0 * 2^level = inf; durations must be finite and > 0"),
        (("--tau0", "5e307", "--level", "2", "--halvings", "0"),
         "--tau0 * 2^level = inf; durations must be finite and > 0"),
    ], ids=["halvings", "norm-z", "level", "tau0", "tau0-subnormal", "halved-subnormal", "step-inf", "step-inf-level-2"])
    def test_bad_input_is_usage_error_before_output(self, capsys, option, message):
        # Each printed the table header first; --halvings -1 then exited 0, --norm-z 0 divided by zero (exit 3),
        # and a subnormal duration printed RuntimeWarnings, then "Eigenvalues did not converge".
        code, out, err = run(capsys, "predict-magnus", "--seed", "7", *option)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_warns_near_double_floor(self, capsys):
        # At tau0 = 1e-5 the deviation sits within 1000x of the floor, and the ratio reads 0.513 where the
        # tau^2 law gives 4: each row warns on one line, naming its tau0.  The default run stays quiet.
        code, out, err = run(capsys, "predict-magnus", "--seed", "7", "--tau0", "1e-5", "--halvings", "1")
        assert code == 0 and "deviation ratio (tau0/2^0 vs /2^1): 0.513" in out
        warnings = err.splitlines()
        assert len(warnings) == 2
        for line, tau in zip(warnings, ("1e-05", "5e-06")):
            assert line.startswith("warning: min(|az_eff|, |az_eff - az_pred|) tau_n = ")
            assert f" at tau0={tau} is within 1000x of the double roundoff floor " in line
            assert line.endswith("; raise --tau0")
        code, _, err = run(capsys, "predict-magnus", "--seed", "7")
        assert code == 0 and err == ""

    def test_zero_amplitude_exits_3_naming_tau0(self, capsys):
        # At tau0 = 1e-100 |az_eff| reads 0, and the relative deviation divided by zero.
        code, out, err = run(capsys, "predict-magnus", "--seed", "7", "--tau0", "1e-100")
        assert code == 3 and out == ""
        assert err == "error: |az_eff| reads 0 at tau0=1e-100; raise --tau0\n"

    def test_zero_deviation_under_a_ratio_exits_3_naming_tau0(self, capsys, monkeypatch):
        # A second row whose extraction equals its prediction exactly: the first ratio would divide by zero.
        from ddforge import effective

        predict, point, predicted = effective.magnus_cdd_predict, effective.sequence_effective, []

        def recording_predict(*args):
            predicted.append(predict(*args))
            return predicted[-1]

        def predicted_point(seq, ops):
            eff = point(seq, ops)
            if len(predicted) == 2:
                blocks = eff.blocks.copy()
                blocks[3] = predicted[-1][1]
                eff = effective.EffectiveHamiltonian(blocks, eff.t, eff.floor)
            return eff

        monkeypatch.setattr(effective, "magnus_cdd_predict", recording_predict)
        monkeypatch.setattr(effective, "sequence_effective", predicted_point)
        code, out, err = run(capsys, "predict-magnus", "--seed", "7")
        assert code == 3 and out == ""
        assert err == "error: rel_dev reads 0 at tau0=0.005; raise --tau0\n"


def compare_compositions(capsys, monkeypatch, precision) -> int:
    """The number of compositions ``compare`` makes for CDD-3 and UDD-2 at one precision.

    It first checks that each U that F_e was read from holds the bits of ctrl (I + W) of the engine's W:
    sequence_unitary's in double, and of the extended W's high part in extended.
    test_effective.py's test_compare_prints_point_effective_values pins the functionals.
    """
    from ddforge import evolution, highprec

    composed, unitaries = [], []
    compose, controlled_unitary = evolution.compose, evolution.controlled_unitary

    def counting_compose(node, *args):
        composed.append(node)
        return compose(node, *args)

    def recording_unitary(seq, w):
        unitaries.append(controlled_unitary(seq, w))
        return unitaries[-1]

    argv = ("compare", "--seq", "cdd,m=3", "--seq", "udd,n=2", "--t", "0.01", "--seed", "7", "--precision", precision)
    for module in (evolution, highprec):
        monkeypatch.setattr(module, "compose", counting_compose)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.undo()
    monkeypatch.setattr(evolution, "controlled_unitary", recording_unitary)
    assert run(capsys, *argv)[0] == 0
    monkeypatch.undo()
    ops = bath.build_model(bath.ModelSpec(seed=7))
    seqs = [sequences.build_sequence(name, 0.01, **params) for name, params in (("cdd", {"m": 3}), ("udd", {"n": 2}))]
    want = [evolution.sequence_unitary(seq, ops) if precision == "double"
            else evolution.controlled_unitary(seq, highprec._compose(seq, ops, [0.01])[0][0][0]) for seq in seqs]
    assert [got.label for got in unitaries] == ["CDD-3", "UDD-2"]
    assert [got.u.tobytes() for got in unitaries] == [result.u.tobytes() for result in want]
    return len(composed)


class TestCompare:
    def test_table(self, capsys):
        code, out, _ = run(
            capsys,
            "compare", "--seq", "udd,n=2", "--seq", "cpmg,axis=Z", "--t", "0.01", "--seed", "7",
        )
        assert code == 0
        assert "UDD-2" in out and "CPMG" in out

    def test_numeric_failure_exit_code(self, capsys):
        # UDD-1 at t = 3 puts an eigenphase on the branch cut; that must end
        # in exit 3 with an error line and advice naming compare's options.
        code, _, err = run(capsys, "compare", "--seq", "udd,n=1", "--t", "3", "--seed", "7")
        assert code == 3
        assert err.startswith("error: eigenphase ")
        assert "advice: shrink the duration (--t) or use --precision extended\n" in err
        assert "--at-max" not in err

    def test_one_composition_per_schedule(self, capsys, monkeypatch):
        # In double, F_e reads U = ctrl (I + W) from the W the functionals' point composed (a counter on
        # evolution.compose read 2 per schedule), and U keeps the bits of sequence_unitary.
        assert compare_compositions(capsys, monkeypatch, "double") == 2

    def test_extended_composes_once_per_engine(self, capsys, monkeypatch):
        # Extended, each schedule composes once, on that engine: F_e reads the high part of its W.
        assert compare_compositions(capsys, monkeypatch, "extended") == 2

    def test_fidelity_against_control_rotation(self, capsys):
        # An odd pulse count leaves a net pi rotation: F_e against the
        # identity reads about 0, F_e(ctrl) shows what decoherence remains.
        code, out, _ = run(capsys, "compare", "--seq", "udd,n=3", "--seq", "udd,n=4", "--t", "0.01", "--seed", "7")
        assert code == 0
        header, udd3, udd4 = out.splitlines()
        assert header.split()[-2:] == ["F_e", "F_e(ctrl)"]
        fe3, fe3_ctrl = map(float, udd3.split()[-2:])
        fe4, fe4_ctrl = map(float, udd4.split()[-2:])
        assert fe3 < 1e-3 and fe3_ctrl > 0.9999
        assert fe4 == fe4_ctrl  # even count: the control rotation is the identity

    def test_warns_near_double_floor(self, capsys):
        # CDD-4's couplings (4.8e-21 and 3.9e-39) and UDD-4's E_flip (4.5e-18)
        # sit within 1000x of the double floor at t = 0.001; the table still
        # prints and the exit code stays 0, but each such value is named.
        argv = ("compare", "--seq", "cdd,m=4", "--seq", "udd,n=4", "--t", "0.001", "--seed", "7")
        code, out, err = run(capsys, *argv)
        assert code == 0
        warnings = err.splitlines()
        assert all(w.startswith("warning: ") and w.endswith("use --precision extended") for w in warnings)
        assert [w.split()[1:3] for w in warnings] == [
            ["CDD-4:", "E_flip"], ["CDD-4:", "E_dephase"], ["CDD-4:", "E_total"], ["UDD-4:", "E_flip"]]
        assert "UDD-4" in out and "CDD-4" in out

    def test_no_warning_above_floor(self, capsys):
        code, _, err = run(capsys, "compare", "--seq", "udd,n=2", "--seq", "cpmg,axis=Z", "--t", "0.01", "--seed", "7")
        assert code == 0 and err == ""

    @pytest.mark.parametrize("precision", ["double", "extended"])
    def test_subnormal_duration_is_usage_error_naming_it(self, capsys, precision):
        # A subnormal --t printed the header and RuntimeWarnings, then "Eigenvalues did not converge".
        code, out, err = run(capsys, "compare", "--seq", "udd,n=3", "--t", "1e-310", "--seed", "7",
                             "--precision", precision)
        assert code == 2 and out == ""
        assert err == ("error: total_duration = 1e-310; durations must be at least 2.2250738585072014e-308, "
                       "the smallest normal float\n")

    def test_non_finite_duration_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compare", "--seq", "udd,n=2", "--t", "nan", "--seed", "7")
        assert code == 2
        assert "total_duration" in err and "nan" in err

    def test_needs_seq(self, capsys):
        code, _, err = run(capsys, "compare", "--t", "0.01")
        assert code == 2
        assert "--seq" in err

    def test_unknown_seq_key_is_usage_error(self, capsys):
        # Rejected before any row or header is printed.
        code, out, err = run(capsys, "compare", "--seq", "udd,n=2", "--seq", "udd,k=3", "--seed", "7")
        assert code == 2 and out == ""
        assert err == "error: unknown key 'k' in --seq token 'udd,k=3'; expected n, m, c or axis\n"

    @pytest.mark.parametrize("token, message", [
        ("udd,n=x", "--seq 'udd,n=x': n must be a positive integer, got 'x'"),
        ("udd,n=3,axis=Q", "--seq 'udd,n=3,axis=Q': axis must be X, Y or Z, got 'Q'"),
        ("udd,n=3,axis=I", "--seq 'udd,n=3,axis=I': axis must be X, Y or Z, got 'I'"),
    ], ids=["integer", "unknown-axis", "identity-axis"])
    def test_bad_seq_value_names_token_and_key(self, capsys, token, message):
        # Each printed only the parser's own message ("invalid literal for int() ...", "'Q' is not a valid PauliAxis").
        # The token's values pass through to build_sequence, whose count and axis rules name the key.
        code, out, err = run(capsys, "compare", "--seq", "udd,n=2", "--seq", token, "--seed", "7")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("token, key", [("udd,n=3,n=4", "n"), ("udd,n=3,axis=X,axis=Y", "axis")],
                             ids=["count", "axis"])
    def test_repeated_seq_key_is_usage_error(self, capsys, token, key):
        # The last value won without a word: a UDD-4 row, a Y-axis UDD-3 row, exit 0.
        code, out, err = run(capsys, "compare", "--seq", "udd,n=2", "--seq", token, "--seed", "7")
        assert code == 2 and out == ""
        assert err == f"error: key {key!r} repeats in --seq token {token!r}; give each key once\n"

    @pytest.mark.parametrize("argv, message", [
        (("--seq", "udd,n=2", "--seq", "cdd"), "--seq 'cdd': family 'cdd' requires --m"),
        (("--seq", "udd,n=2", "--t", "0"), "total_duration = 0.0; durations must be finite and > 0"),
    ], ids=["missing-param", "zero-duration"])
    def test_schedule_error_prints_no_rows(self, capsys, argv, message):
        # Every schedule is built before the header; the UDD-2 row and the header used to come first.
        code, out, err = run(capsys, "compare", *argv, "--seed", "7")
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_control_fidelity_reads_the_deviation(self, capsys):
        # F_e(ctrl) is F_e of ctrl^+ U = I + W; for odd and even counts it equals the dense ctrl^+ U product.
        import numpy as np

        from ddforge import bath, evolution, sequences

        code, out, _ = run(capsys, "compare", "--seq", "udd,n=3", "--seq", "cdd,m=2", "--t", "0.3", "--seed", "5")
        assert code == 0
        model = bath.build_model(bath.ModelSpec(seed=5))
        for line, seq in zip(out.splitlines()[1:], (sequences.udd_sequence(3, 0.3), sequences.cdd_full(2, 0.3))):
            u = evolution.sequence_unitary(seq, model).u
            ctrl = np.kron(evolution.control_product(seq), np.eye(model.dim))
            assert line.split()[-1] == f"{evolution.entanglement_fidelity(ctrl.conj().T @ u):.9f}"


def test_spin_bath_without_spins_is_usage_error(capsys):
    # All-zero operators ended in exit 3 with "float division by zero".
    code, out, err = run(capsys, "order", "udd", "--n", "2", "--preset", "spin_bath(0)", "--d", "1")
    assert code == 2 and out == ""
    assert err == "error: spin_bath k must be a positive integer, got 0\n"


@pytest.mark.parametrize("flags, model, shown", [
    (("--norm-x", "nan"), None, "nan"),
    (("--norm-x", "inf"), None, "inf"),
    ((), '{"norm_targets": {"z": 1e999}}', "inf"),
], ids=["flag-nan", "flag-inf", "model-1e999"])
def test_non_finite_norm_target_is_usage_error(capsys, tmp_path, flags, model, shown):
    # Each ended in "error: Eigenvalues did not converge", the inf ones after a RuntimeWarning.
    if model is not None:
        (tmp_path / "model.json").write_text(model)
        flags = ("--model", str(tmp_path / "model.json"))
    code, out, err = run(capsys, "order", "udd", "--n", "2", *flags)
    channel = "x" if model is None else "z"
    assert code == 2 and out == ""
    assert err == f"error: norm target {channel!r} = {shown}; norm targets must be finite and >= 0\n"


def test_help_names_every_default(capsys):
    # The "(default X)" text comes from the command's defaults, the only place a built-in default is written.
    commands = next(a for a in build_parser()._actions if a.choices and a.dest == "command").choices
    for name, parser in commands.items():
        defaults = parser.get_default("defaults")
        assert main([name, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps long lines
        options = {a.dest: a for a in parser._actions}
        assert set(defaults) <= set(options)
        for key, value in defaults.items():
            invocation = parser._get_formatter()._format_action_invocation(options[key])
            help_text = options[key].help
            assert help_text.endswith(f"(default {value})") and help_text.count("(default") == 1
            assert f"{invocation} {help_text}" in text, (name, key)


@pytest.mark.parametrize(
    "argv",
    [
        ("order", "cdd", "--m", "4", "--seed", "7"),
        ("order", "udd2", "--n", "3", "--seed", "7"),
        ("compare", "--seq", "cdd,m=6", "--t", "0.01", "--seed", "7"),
    ],
    ids=["CDD-4", "UDD2-3", "compare-CDD-6"],
)
def test_deep_schedules_extract_in_double(capsys, argv):
    # Long schedules leave ctrl^+ U close to the identity; its log must
    # still pass the 1e-9 reconstruction check.
    code, _, err = run(capsys, *argv)
    assert code == 0, err


def test_udd4_flip_order_in_double(capsys):
    # UDD-4 suppresses bit flips to fifth order; the toggling-frame deviation
    # resolves it in double precision over the default grid.
    code, out, err = run(capsys, "order", "udd", "--n", "4", "--seed", "7")
    assert code == 0, err
    assert printed_slope(out) == pytest.approx(5.0, abs=0.25)


GOLDEN = Path(__file__).parent / "golden"
# Scan CSVs written by `ddforge order ... --no-meta`, kept byte for byte.
# No case runs at d = 64: there multi-threaded BLAS changes the last bits.
GOLDEN_COMMANDS = {
    "udd3": ["order", "udd", "--n", "3", "--seed", "7"],
    "cudd22-d16-total": ["order", "cudd", "--m", "2", "--n", "2", "--d", "16", "--seed", "7", "--functional", "total"],
    "cdd3-seeds": ["order", "cdd", "--m", "3", "--seeds", "7,8,9"],
    "cpmgx-dephasing": ["order", "cpmg", "--axis", "X", "--preset", "pure_dephasing",
                        "--functional", "dephase", "--seed", "3"],
    "cpmgudd22-seeds": ["order", "cpmg-udd", "--m", "2", "--c", "2", "--seeds", "7,8"],
    "udd2-extended": ["order", "udd", "--n", "2", "--precision", "extended", "--points", "4", "--seed", "7"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_scan_csv(capsys, tmp_path, name):
    out = tmp_path / f"{name}.csv"
    code, _, _ = run(capsys, *GOLDEN_COMMANDS[name], "--out", str(out), "--no-meta")
    assert code == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("option", [("--dps", "50"), ("--jobs", "2")], ids=["dps", "jobs"])
def test_removed_options_are_usage_errors(capsys, option):
    # Both engines carry a fixed precision, and a scan sizes its own thread pool.
    code, _, err = run(capsys, "order", "udd", "--n", "2", "--points", "4", "--seed", "7", *option)
    assert code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in err


@pytest.mark.parametrize("argv", [("gen", "cpmg"), ("crossover",), ("predict-magnus", "--halvings", "0"),
                                  ("compare", "--seq", "udd,n=2", "--seed", "7")],
                         ids=["gen", "crossover", "predict-magnus", "compare"])
def test_no_meta_only_where_a_csv_is_written(capsys, argv):
    # Each accepted --no-meta and did nothing with it, with exit 0; only order and counts write a CSV.
    code, out, err = run(capsys, *argv, "--no-meta")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --no-meta" in err


@pytest.mark.parametrize("argv, message", [
    (("order", "cdd", "--m", "2", "--axis", "X", "--n", "7", "--seed", "7"), "family 'cdd' takes no --n"),
    (("order", "udd", "--n", "2", "--c", "3", "--seed", "7"), "family 'udd' takes no --c"),
    (("gen", "cpmg", "--m", "2"), "family 'cpmg' takes no --m"),
    (("compare", "--seq", "cdd,m=2,axis=X,n=9", "--seed", "7"),
     "--seq 'cdd,m=2,axis=X,n=9': family 'cdd' takes no --n"),
    (("compare", "--seq", "udd,n=2", "--seq", "se,c=2", "--seed", "7"), "--seq 'se,c=2': family 'se' takes no --c"),
], ids=["order-n", "order-c", "gen-m", "seq-n", "seq-c"])
def test_parameter_the_family_does_not_take_is_usage_error(capsys, argv, message):
    # order cdd --n 7 and the cdd,...,n=9 token fitted CDD-2 with exit 0, and the CSV's param column hid the n.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("order", "cdd", "--m", "2", "--n", "7", "--d", "64", "--seeds", "1,2,3,4,5,6,7,8"),
    ("compare", "--seq", "udd,n=2", "--seq", "se,c=2", "--d", "64"),
], ids=["order-seeds", "compare"])
def test_family_usage_error_draws_no_model(capsys, argv):
    # The order call drew its 9 models at d = 64 (418 ms) before the family check failed.
    misses = bath._model.cache_info().misses
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == "" and "family " in err
    assert bath._model.cache_info().misses == misses


@pytest.mark.parametrize("flags, message", [
    (("--points", "2"), "points must be an integer >= 4, got 2"),
    (("--at-min", "0.02"), "need 0 < at_min < at_max < inf"),
    (("--at-max", "-1"), "need 0 < at_min < at_max < inf"),
    (("--at-max", "inf"), "need 0 < at_min < at_max < inf"),
], ids=["points", "at-min", "at-max", "at-max-inf"])
def test_grid_usage_error_draws_no_model(capsys, flags, message):
    # order drew its model (one bath._model miss) before the grid's bounds and point count were checked.
    misses = bath._model.cache_info().misses
    code, out, err = run(capsys, "order", "udd", "--n", "2", *flags, "--d", "64", "--seeds", "1,2")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert bath._model.cache_info().misses == misses


def test_infinite_at_max_prints_only_its_error():
    # An infinite --at-max reached np.geomspace, which printed a RuntimeWarning before the t_grid[1] error.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    argv = ["order", "udd", "--n", "2", "--at-min", "1e-3", "--at-max", "inf", "--seed", "7"]
    result = subprocess.run([sys.executable, "-m", "ddforge.cli", *argv], capture_output=True, text=True, env=env,
                            timeout=60)
    assert (result.returncode, result.stdout, result.stderr) == (2, "", "error: need 0 < at_min < at_max < inf\n")


@pytest.mark.parametrize("argv, message", [
    (("order", "cdd", "--m", "-1"), "m must be a non-negative integer, got -1"),
    (("order", "cpmg-udd", "--m", "2", "--c", "0"), "c must be a positive integer, got 0"),
    (("order", "icpmg", "--c", "0"), "c must be a positive integer, got 0"),
    (("order", "cddxx", "--n", "-1"), "n must be a non-negative integer, got -1"),
    (("order", "cudd", "--m", "0", "--n", "2"), "m must be a positive integer, got 0"),
    (("gen", "udd2", "--n", "0"), "n must be a positive integer, got 0"),
    (("compare", "--seq", "cdd,m=-1"), "--seq 'cdd,m=-1': m must be a non-negative integer, got -1"),
], ids=["cdd-m", "cpmg-udd-c", "icpmg-c", "cddxx-n", "cudd-m", "udd2-n", "compare-cdd-m"])
def test_count_error_names_the_flag(capsys, argv, message):
    # cdd, cddxx, icpmg and cpmg-udd named their builders' level and cycles, which no flag is called.
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


ORDER_CONFIG_KEYS = ("n, m, c, axis, model, d, seed, preset, norm_0, norm_x, norm_y, norm_z, functional, at_min, "
                     "at_max, points, seeds, precision, out, summary")


class TestConfigFile:
    @pytest.mark.parametrize("argv", [("predict-magnus", "--halvings", "0"), ("compare", "--seq", "udd,n=2")],
                             ids=["predict-magnus", "compare"])
    def test_non_object_is_usage_error(self, capsys, tmp_path, argv):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]")
        code, _, err = run(capsys, *argv, "--config", str(config))
        assert code == 2
        assert err == f"error: config file {config} must hold a JSON object, not list\n"

    @pytest.mark.parametrize("value", ['"8"', "8.0", "true"])
    def test_mistyped_value_is_usage_error(self, capsys, tmp_path, value):
        config = tmp_path / "config.json"
        config.write_text(f'{{"points": {value}}}')
        code, _, err = run(capsys, "order", "udd", "--n", "2", "--seed", "7", "--config", str(config))
        assert code == 2
        assert err.startswith("error: config key 'points'") and "must be an integer" in err

    @pytest.mark.parametrize("content, message", [
        ("[1, 2]", "model file {} must hold a JSON object, not list"),
        ('{"d": "4"}', "model key 'd' in {} must be an integer, got '4'"),
        ('{"norm_targets": [1]}', "model key 'norm_targets' in {} must be an object, got [1]"),
        # Ignored: seed 0 ran, with exit 0.
        ('{"sead": 7}', "unknown model key 'sead' in {}; expected one of d, seed, preset, norm_targets"),
        # Named the channel, but not the file.
        ('{"norm_targets": {"w": 1.0}}', "unknown model norm_targets key 'w' in {}; expected one of 0, x, y, z"),
    ], ids=["non-object", "mistyped-d", "norm-targets-list", "unknown-key", "unknown-channel"])
    def test_malformed_model_file_is_usage_error(self, capsys, tmp_path, content, message):
        model = tmp_path / "model.json"
        model.write_text(content)
        code, _, err = run(capsys, "compare", "--seq", "udd,n=2", "--model", str(model))
        assert code == 2
        assert err == f"error: {message.format(model)}\n"

    @pytest.mark.parametrize("argv, content, key, keys", [
        (("order", "udd", "--n", "2"), {"seedz": 7, "points": 4}, "seedz", ORDER_CONFIG_KEYS),
        (("counts", "--m-max", "2", "--out", "counts.csv"), {"no_meta": True}, "no_meta", "m_max, out"),
        (("order", "udd", "--n", "2"), {"config": "other.json"}, "config", ORDER_CONFIG_KEYS),
        (("crossover",), {"n_max": 20, "m_max": 3}, "m_max", "n_max"),
    ], ids=["typo", "no_meta", "config", "other-command"])
    def test_unknown_key_is_usage_error(self, capsys, tmp_path, monkeypatch, argv, content, key, keys):
        # {"seedz": 7} ran seed 0, {"no_meta": true} still wrote the timestamp header, and the rest were
        # ignored too, each with exit 0.  A key must name an option the command reads from the file.
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(content))
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert code == 2 and out == ""
        assert err == f"error: unknown config key {key!r} in {config}; expected one of {keys}\n"
        assert not (tmp_path / "counts.csv").exists()

    @pytest.mark.parametrize("seeds", ["[7.9, 8.2]", "[true]", '["7"]'], ids=["floats", "boolean", "string"])
    def test_non_integer_seeds_are_usage_error(self, capsys, tmp_path, seeds):
        # [7.9, 8.2] ran seeds 7 and 8 and [true] seed 1, each with exit 0.
        config = tmp_path / "config.json"
        config.write_text(f'{{"seeds": {seeds}}}')
        code, out, err = run(capsys, "order", "udd", "--n", "2", "--points", "4", "--config", str(config))
        assert code == 2 and out == ""
        assert err == f"error: seeds[0] must be a non-negative integer, got {json.loads(seeds)[0]!r}\n"

    @pytest.mark.parametrize("seq", ["[1]", '"udd,n=2"'], ids=["integer-item", "string"])
    def test_seq_not_a_list_of_strings_is_usage_error(self, capsys, tmp_path, seq):
        # [1] ended in an AttributeError traceback (exit 1); a bare string was read one character at a time.
        config = tmp_path / "config.json"
        config.write_text(f'{{"seq": {seq}}}')
        code, out, err = run(capsys, "compare", "--seed", "7", "--config", str(config))
        assert code == 2 and out == ""
        assert err == f"error: config key 'seq' in {config} must be a list of strings, got {json.loads(seq)!r}\n"

    def test_empty_seeds_are_usage_error(self, capsys, tmp_path):
        # An empty list printed a traceback and exited 1.
        config = tmp_path / "config.json"
        config.write_text('{"seeds": []}')
        code, out, err = run(capsys, "order", "udd", "--n", "2", "--config", str(config))
        assert code == 2 and out == ""
        assert err == "error: seeds must hold at least one bath seed, got none\n"

    def test_non_integer_seed_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "order", "udd", "--n", "2", "--points", "4", "--seeds", "7,8.5")
        assert code == 2
        assert err == "error: seeds[1] must be a non-negative integer, got '8.5'\n"

    def test_mistyped_model_key_in_config_is_usage_error(self, capsys, tmp_path):
        # A numeric preset raised TypeError; a config's model key names the config file, as its other keys do.
        config = tmp_path / "config.json"
        config.write_text('{"preset": 5}')
        code, _, err = run(capsys, "compare", "--seq", "udd,n=2", "--config", str(config))
        assert code == 2
        assert err == f"error: config key 'preset' in {config} must be a string, got 5\n"

    @pytest.mark.parametrize("key", ["functional", "out", "summary", "model", "precision"])
    def test_mistyped_string_option_is_usage_error(self, capsys, tmp_path, key):
        # {"functional": 5} raised TypeError ("E_" + 5); a numeric out, summary or model
        # was opened as a file descriptor; precision 5 failed without naming the file.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: 5}))
        argv = ("order", "udd", "--n", "2", "--points", "4", "--seed", "7", "--config", str(config))
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: config key {key!r} in {config} must be a string, got 5\n"

    @pytest.mark.parametrize("argv, key", [
        (("gen", "cpmg"), "out"),
        (("counts", "--m-max", "2"), "out"),
        (("compare", "--seq", "udd,n=2"), "precision"),
    ], ids=["gen-out", "counts-out", "compare-precision"])
    def test_mistyped_string_option_of_other_commands(self, capsys, tmp_path, argv, key):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: [1]}))
        code, _, err = run(capsys, *argv, "--config", str(config))
        assert code == 2
        assert err == f"error: config key {key!r} in {config} must be a string, got [1]\n"

    @pytest.mark.parametrize("key, value, choices", [
        ("functional", "bogus", "'flip', 'dephase', 'total'"),
        ("precision", "bogus", "'double', 'extended'"),
        ("axis", "Q", "'X', 'Y', 'Z'"),
    ], ids=["functional", "precision", "axis"])
    def test_value_outside_choices_is_usage_error(self, capsys, tmp_path, monkeypatch, key, value, choices):
        # {"functional": "bogus"} ran the whole scan and then failed with "error: 'E_bogus'";
        # the other two did not name the file.  Each now stops before any scan runs.
        from ddforge import analysis

        monkeypatch.setattr(analysis, "evaluate_scan", lambda *args, **kwargs: pytest.fail("the scan ran"))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}))
        code, out, err = run(capsys, "order", "udd", "--n", "2", "--seed", "7", "--config", str(config))
        assert code == 2 and out == ""
        assert err == f"error: config key {key!r} in {config} must be one of {choices}, got {value!r}\n"

    def test_integer_fits_a_float_option(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"tau0": 1, "halvings": 0, "seed": 7}')
        code, out, _ = run(capsys, "predict-magnus", "--config", str(config))
        assert code == 0
        assert out.splitlines()[1].split()[0] == "1"


def _called(name, key):
    """The argument key of the first recorded call of name, or None without one."""
    return lambda calls, out: calls[name][0][key] if calls[name] else None


def _spec_key(name, key):
    """A field of the ModelSpec handed to name, or one of its resolved norm targets."""
    def observe(calls, out):
        spec = calls[name][0]["spec" if name == "build_model" else "model_spec"]
        return spec.norm_targets[key[-1]] if key.startswith("norm_") else getattr(spec, key)
    return observe


def _written(calls, out):
    return [line[len("wrote "):] for line in out.splitlines() if line.startswith("wrote ")]


def _slope_name(calls, out):
    return next(line.split()[0] for line in out.splitlines() if " slope:" in line)


def _compare_engine(calls, out):
    from ddforge import analysis

    return next(name for name, engine in analysis.ENGINES.items() if engine is calls["point_effective"][0]["engine"])


def _plain(config, flag, default):
    """Layers of an option whose config value and flag resolve to themselves, and its built-in default."""
    return {"flag": (str(flag), flag), "config": (config, config)}, default


def _option_cases():
    """(command, base argv, option, observe, layers, default) for every option that takes a value.

    layers maps each source, highest first, to (what it is given, what the option then resolves to);
    observe reads the resolved value from the recorded library calls and stdout.
    """
    outs = {"flag": ("flag.out", ["flag.out"]), "config": ("config.out", ["config.out"])}, []
    families = {"n": "udd", "m": "cdd", "c": "icpmg", "axis": "cpmg", "t": "cpmg", "out": "cpmg"}
    # The family values pass through as given; an axis not given reaches build_sequence as None, which reads Z.
    for key, values in [
        *((key, _plain(2, 3, None)) for key in ("n", "m", "c")),
        ("axis", _plain("X", "Y", None)),
        ("t", _plain(2.0, 3.0, 1.0)),
        ("out", outs),
    ]:
        observe = _written if key == "out" else _called("build_sequence", "total_duration" if key == "t" else key)
        yield "gen", (families[key],), key, observe, *values

    # order builds its schedule before it draws a model, so a missing count fails before evaluate_scan.
    for key, values in [
        *((key, _plain(1, 2, None)) for key in ("n", "m", "c")),
        ("axis", _plain("X", "Y", None)),
    ]:
        yield "order", (families[key],), key, _called("build_sequence", key), *values
    for key, observe, values in [
        ("functional", _slope_name, ({"flag": ("total", "E_total"), "config": ("dephase", "E_dephase")}, "E_flip")),
        ("at_min", _called("default_t_grid", "at_min"), _plain(2e-3, 5e-4, 1e-3)),
        ("at_max", _called("default_t_grid", "at_max"), _plain(2e-2, 5e-3, 1e-2)),
        ("points", _called("default_t_grid", "points"), _plain(4, 5, 8)),
        ("seeds", _called("evaluate_scan", "seeds"), ({"flag": ("5,6", [5, 6]), "config": ([3, 4], [3, 4])}, None)),
        ("precision", _called("evaluate_scan", "precision"), _plain("extended", "double", "double")),
        ("out", _written, outs),
        ("summary", _written, ({"flag": ("flag.json", ["flag.json"]), "config": ("config.json", ["config.json"])}, [])),
    ]:
        yield "order", ("none",), key, observe, *values

    yield "counts", (), "m_max", _called("count_compare", "m_max"), *_plain(2, 3, 12)
    yield "counts", (), "out", _written, *outs
    yield "crossover", (), "n_max", _called("crossover", "n_max"), *_plain(20, 30, 40)

    for key, observe, values in [
        ("level", _called("magnus_cdd_predict", "level"), _plain(2, 0, 1)),
        ("tau0", _called("magnus_cdd_predict", "tau0"), _plain(0.02, 0.005, 0.01)),
        ("halvings", lambda calls, out: len(calls["magnus_cdd_predict"]) - 1, _plain(1, 2, 3)),
    ]:
        yield "predict-magnus", () if key == "halvings" else ("--halvings", "0"), key, observe, *values
    yield "compare", ("--seq", "udd,n=2"), "t", _called("build_sequence", "total_duration"), *_plain(0.02, 0.005, 0.01)
    yield "compare", ("--seq", "udd,n=2"), "precision", _compare_engine, *_plain("extended", "double", "double")
    yield ("compare", (), "seq", lambda calls, out: [call["family"] for call in calls["build_sequence"]],
           {"flag": ("udd,n=2", ["udd"]), "config": (["cpmg"], ["cpmg"])}, [])

    for command, base, name, presets in [
        ("order", ("none",), "evaluate_scan", ("pure_dephasing", "anisotropic", "generic")),
        ("predict-magnus", ("--halvings", "0"), "build_model", ("generic", "anisotropic", "pure_dephasing")),
        ("compare", ("--seq", "udd,n=2"), "build_model", ("pure_dephasing", "anisotropic", "generic")),
    ]:
        # Model files hold only d, which the spec then shows.
        model = {"flag": ("flag_model.json", 3), "config": ("config_model.json", 2)}, 4
        yield command, base, "model", _spec_key(name, "d"), *model
        yield command, base, "d", _spec_key(name, "d"), *_plain(2, 3, 4)
        yield command, base, "preset", _spec_key(name, "preset"), *_plain(*presets)
        # The full chain: flag > config > --model file > DDFORGE_SEED > 0.
        seed = {"flag": ("1", 1), "config": (2, 2), "model": (3, 3), "env": ("4", 4)}
        yield command, base, "seed", _spec_key(name, "seed"), seed, 0
        for g in ("0", "x", "y", "z"):
            # pure_dephasing, predict-magnus's default preset, pins the x and y targets at zero.
            pinned = command == "predict-magnus" and g in "xy"
            yield (command, (*base, "--preset", "generic") if pinned else base, f"norm_{g}",
                   _spec_key(name, f"norm_{g}"), *_plain(0.5, 2.0, 1.0))


OPTION_CASES = [
    pytest.param(command, base, key, observe, {s: layers[s][0] for s in list(layers)[list(layers).index(source):]},
                 layers[source][1], id=f"{command}-{key}-{source}")
    for command, base, key, observe, layers, default in _option_cases()
    for source in layers
] + [
    pytest.param(command, base, key, observe, {}, default, id=f"{command}-{key}-default")
    for command, base, key, observe, layers, default in _option_cases()
]


def _record_library_calls(monkeypatch):
    """The bound arguments of each library call the commands make, by function name; the calls still run."""
    from ddforge import analysis, bath, effective, sequences

    calls = {}
    for module, name in [(sequences, "build_sequence"), (bath, "build_model"), (analysis, "default_t_grid"),
                         (analysis, "evaluate_scan"), (analysis, "count_compare"), (analysis, "crossover"),
                         (effective, "magnus_cdd_predict"), (effective, "point_effective")]:
        calls[name] = []

        def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
            bound = inspect.signature(_real).bind(*args, **kwargs)
            bound.apply_defaults()
            calls[_name].append(bound.arguments)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("command, base, key, observe, given, expected", OPTION_CASES)
def test_option_model(capsys, tmp_path, monkeypatch, command, base, key, observe, given, expected):
    # Each source is given together with every source below it; the default case gives none of them.
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DDFORGE_SEED", raising=False)
    (tmp_path / "config_model.json").write_text('{"d": 2}')
    (tmp_path / "flag_model.json").write_text('{"d": 3}')
    argv = [command, *base]
    if "flag" in given:
        argv += ["--" + key.replace("_", "-"), given["flag"]]
    if "config" in given:
        (tmp_path / "run.json").write_text(json.dumps({key: given["config"]}))
        argv += ["--config", "run.json"]
    if "model" in given:
        (tmp_path / "seed_model.json").write_text(json.dumps({key: given["model"]}))
        argv += ["--model", "seed_model.json"]
    if "env" in given:
        monkeypatch.setenv("DDFORGE_SEED", given["env"])
    calls = _record_library_calls(monkeypatch)
    _, out, err = run(capsys, *argv)
    assert observe(calls, out) == expected, err


def test_cli_import_leaves_mpmath_out():
    # mpmath is a test-only oracle, and only a scan of several stacks imports
    # concurrent.futures, for its thread pool; loading the package must import neither.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = "import sys, ddforge.cli; print('mpmath' in sys.modules, 'concurrent.futures' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False False"


POOLED_ORDER = """
import sys, threading
from ddforge import analysis, cli

assert analysis._workers(2) >= 2, analysis._workers(2)
on_main = []
evaluate = analysis.evaluate

def recording(*args):
    on_main.append(threading.current_thread() is threading.main_thread())
    return evaluate(*args)

analysis.evaluate = recording
argv = ["order", "udd", "--n", "2", "--seed", "7", "--d", "32", "--no-meta", "--out"]
assert cli.main(argv + [sys.argv[1]]) == 0
assert set(on_main) == {True, False}, on_main
analysis._workers = lambda stacks: 1
assert cli.main(argv + [sys.argv[2]]) == 0
"""


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2 if hasattr(os, "sched_getaffinity") else (os.cpu_count() or 1) < 2,
    reason="needs two usable cores",
)
def test_pooled_order_csv_equals_serial_bytes(tmp_path):
    # With BLAS pinned to one thread, a d = 32 scan (two stacks of four
    # durations) runs its stacks on a real pool, and its CSV is byte for
    # byte the one-worker CSV.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("DDFORGE_SEED", None)
    pooled, serial = tmp_path / "pooled.csv", tmp_path / "serial.csv"
    result = subprocess.run([sys.executable, "-c", POOLED_ORDER, str(pooled), str(serial)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert pooled.read_bytes() == serial.read_bytes()
