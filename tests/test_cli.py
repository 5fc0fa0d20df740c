import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ddforge.cli import main
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
        # F_e and the functionals come from the same double-precision unitary.
        from ddforge import effective, evolution

        calls = []
        sequence_unitary = evolution.sequence_unitary

        def counting_unitary(*args, **kwargs):
            calls.append(args[0].label)
            return sequence_unitary(*args, **kwargs)

        for module in (evolution, effective):
            monkeypatch.setattr(module, "sequence_unitary", counting_unitary)
        code, _, _ = run(capsys, "compare", "--seq", "cdd,m=3", "--seq", "udd,n=2", "--t", "0.01", "--seed", "7")
        assert code == 0
        assert calls == ["CDD-3", "UDD-2"]

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
    # Both engines carry a fixed precision and scans run serially.
    code, _, err = run(capsys, "order", "udd", "--n", "2", "--points", "4", "--seed", "7", *option)
    assert code == 2
    assert f"unrecognized arguments: {' '.join(option)}" in err


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
    ], ids=["non-object", "mistyped-d", "norm-targets-list"])
    def test_malformed_model_file_is_usage_error(self, capsys, tmp_path, content, message):
        model = tmp_path / "model.json"
        model.write_text(content)
        code, _, err = run(capsys, "compare", "--seq", "udd,n=2", "--model", str(model))
        assert code == 2
        assert err == f"error: {message.format(model)}\n"

    def test_integer_fits_a_float_option(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"tau0": 1, "halvings": 0, "seed": 7}')
        code, out, _ = run(capsys, "predict-magnus", "--config", str(config))
        assert code == 0
        assert out.splitlines()[1].split()[0] == "1"


def test_cli_import_leaves_mpmath_out():
    # mpmath is a test-only oracle and scans run serially; the package must load neither.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    code = "import sys, ddforge.cli; print('mpmath' in sys.modules, 'concurrent.futures' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False False"
