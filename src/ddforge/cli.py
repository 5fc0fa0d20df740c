"""Command-line front end: reproducible generation, scans and count tables.

Subcommands: gen | order | counts | crossover | predict-magnus | compare.
Option precedence is flags over --config file values over built-in defaults;
DDFORGE_SEED provides the default bath seed.  Exit codes: 0 success, 2 usage
error, 3 numeric-domain error (an eigenphase near the branch cut, a failed
log reconstruction, an extended-precision value too close to the engine's
roundoff floor to be resolved, or any other ArithmeticError), 4 I/O error.
A double-precision ``order`` or ``compare`` value that close to its floor
only warns.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, bath, effective, evolution, sequences

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BRANCH = 3
EXIT_IO = 4

_MODEL_DEFAULTS = {"d": 4, "preset": "generic"}
_GRID_DEFAULTS = {"at_min": 1e-3, "at_max": 1e-2, "points": 8}


def _add_family_args(parser):
    parser.add_argument("family", choices=sequences.FAMILIES, help="schedule family")
    parser.add_argument("--n", type=int, default=None, help="pulse count / level parameter")
    parser.add_argument("--m", type=int, default=None, help="block pulse count / level parameter")
    parser.add_argument("--c", type=int, default=None, help="cycle count")
    parser.add_argument("--axis", choices=["X", "Y", "Z"], default=None, help="pulse axis (default Z)")


def _add_model_args(parser):
    parser.add_argument("--model", default=None, metavar="FILE", help="model spec JSON file")
    parser.add_argument("--d", type=int, default=None, help="bath dimension")
    parser.add_argument("--seed", type=int, default=None, help="bath seed (default: DDFORGE_SEED or 0)")
    parser.add_argument("--preset", default=None, help="generic | pure_dephasing | anisotropic | spin_bath(k)")
    for g in ("0", "x", "y", "z"):
        parser.add_argument(f"--norm-{g}", type=float, default=None, help=f"norm target for A_{g}")


def _add_common(parser):
    parser.add_argument("--config", default=None, metavar="FILE", help="JSON config with default option values")
    parser.add_argument("--no-meta", action="store_true", help="omit the timestamp header in CSV output")
    # Added last, so that every numeric option of the command is known: config values must fit their types.
    parser.set_defaults(option_types={a.dest: a.type for a in parser._actions if a.type in (int, float)})


_WANTED = {int: "an integer", float: "a number", str: "a string", dict: "an object"}
_MODEL_TYPES = {"d": int, "seed": int, "preset": str, "norm_targets": dict}


def _check_types(data: dict, types: dict, what: str, path) -> dict:
    """data, if each value whose key is in types has that type: an int fits float, a JSON boolean neither."""
    for key, value in data.items():
        kind = types.get(key)
        if kind and (isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind)):
            raise ValueError(f"{what} key {key!r} in {path} must be {_WANTED[kind]}, got {value!r}")
    return data


def _load_object(path, what: str, types: dict) -> dict:
    """The JSON object in a --config or --model file, its values checked against types."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{what} file {path} must hold a JSON object, not {type(data).__name__}")
    return _check_types(data, types, what, path)


def _load_config(args) -> dict:
    return {} if args.config is None else _load_object(args.config, "config", args.option_types)


def _resolve(args, config, key, default):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _model_spec(args, config) -> bath.ModelSpec:
    base = {}
    model_file = _resolve(args, config, "model", None)
    if model_file:
        base = _load_object(model_file, "model", _MODEL_TYPES)
        _check_types(base.get("norm_targets", {}), dict.fromkeys(bath.GAMMAS, float), "model norm_targets", model_file)
    env_seed = os.environ.get("DDFORGE_SEED")
    seed = _resolve(args, config, "seed", base.get("seed", int(env_seed) if env_seed else 0))
    targets = dict(base.get("norm_targets", {}))
    for g in ("0", "x", "y", "z"):
        value = _resolve(args, config, f"norm_{g}", None)
        if value is not None:
            targets[g] = value
    return bath.ModelSpec(
        d=_resolve(args, config, "d", base.get("d", _MODEL_DEFAULTS["d"])),
        seed=seed,
        preset=_resolve(args, config, "preset", base.get("preset", _MODEL_DEFAULTS["preset"])),
        norm_targets=targets,
    )


def _family_kwargs(args, config) -> dict:
    out = {}
    for key in ("n", "m", "c"):
        value = _resolve(args, config, key, None)
        if value is not None:
            out[key] = value
    axis = _resolve(args, config, "axis", None)
    if axis is not None:
        out["axis"] = sequences.PauliAxis(axis)
    return out


def _open_out(path):
    return open(path, "w", encoding="utf-8", newline="")


# Within this factor of an engine's floor a value's error may reach 1e-3 of it.
FLOOR_MARGIN = 1e3


def _near_floor(row, keys, engine: str) -> list:
    return [f"{key} = {row[key]:.3g} at t={row['t']:g} is within {FLOOR_MARGIN:g}x of the {engine} roundoff"
            f" floor {row['floor']:.2g}" for key in keys if 0 < row[key] < FLOOR_MARGIN * row["floor"]]


def _check_floor(rows, keys) -> None:
    for message in (m for row in rows for m in _near_floor(row, keys, "extended engine's")):
        raise ArithmeticError(f"{message}; not resolved")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    config = _load_config(args)
    t = _resolve(args, config, "t", 1.0)
    seq = sequences.build_sequence(args.family, t, **_family_kwargs(args, config))
    grid = sequences.commensurate_grid(seq)
    counts = ", ".join(
        f"{seq.axis_count(ax)} {ax.value}" for ax in sequences.PauliAxis if seq.axis_count(ax)
    )
    print(f"{seq.label}: {seq.pulse_count} pulses" + (f" ({counts})" if counts else ""))
    print(f"grid: D={grid}" if grid is not None else "grid: not commensurate")
    out = _resolve(args, config, "out", None)
    if out:
        with _open_out(out) as fh:
            fh.write(sequences.schedule_to_json(seq) + "\n")
        print(f"wrote {out}")
    return EXIT_OK


def _cmd_order(args) -> int:
    config = _load_config(args)
    spec = _model_spec(args, config)
    model = bath.build_model(spec)
    model_alpha = bath.alpha(model)
    grid = analysis.default_t_grid(
        model_alpha,
        at_min=_resolve(args, config, "at_min", _GRID_DEFAULTS["at_min"]),
        at_max=_resolve(args, config, "at_max", _GRID_DEFAULTS["at_max"]),
        points=_resolve(args, config, "points", _GRID_DEFAULTS["points"]),
    )
    family = {"name": args.family, **_family_kwargs(args, config)}
    seeds_opt = _resolve(args, config, "seeds", None)
    if seeds_opt is None:
        seeds = None
    elif isinstance(seeds_opt, (list, tuple)):
        seeds = [int(s) for s in seeds_opt]
    else:
        seeds = [int(s) for s in str(seeds_opt).split(",")]
    functional = "E_" + _resolve(args, config, "functional", "flip")
    args.precision = _resolve(args, config, "precision", "double")
    rows = analysis.evaluate_scan(family, spec, grid, seeds=seeds, precision=args.precision)
    out = _resolve(args, config, "out", None)
    checked = analysis.FUNCTIONALS if out else (functional,)
    if args.precision == "extended":
        _check_floor(rows, checked)
    else:
        for messages in filter(None, (_near_floor(row, checked, "double") for row in rows)):
            print(f"warning: {'; '.join(messages)}; use --precision extended", file=sys.stderr)
    fit = analysis.fit_order([r["t"] for r in rows], [r[functional] for r in rows])
    if out:
        with _open_out(out) as fh:
            analysis.write_scan_csv(rows, fh, meta=not args.no_meta)
        print(f"wrote {out}")
    summary = analysis.fit_to_dict(fit)
    summary_path = _resolve(args, config, "summary", None)
    if summary_path:
        with _open_out(summary_path) as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
        print(f"wrote {summary_path}")
    if fit.defined:
        print(f"{functional} slope: {fit.slope:.4f}  (r2={fit.r_squared:.6f})")
        print("pairwise orders:", " ".join(f"{p:.3f}" for p in fit.pairwise_orders))
    else:
        print(f"{functional} slope: not defined (functional identically zero)")
    return EXIT_OK


def _cmd_counts(args) -> int:
    config = _load_config(args)
    rows = analysis.count_compare(_resolve(args, config, "m_max", 12))
    print(f"{'m':>3} {'order':>6} {'cdd':>12} {'cudd':>12} {'udd2':>12}")
    for row in rows:
        print(f"{row['m']:>3} {row['claimed_order']:>6} {row['cdd']:>12} {row['cudd']:>12} {row['udd2']:>12}")
    out = _resolve(args, config, "out", None)
    if out:
        with _open_out(out) as fh:
            analysis.write_counts_csv(rows, fh, meta=not args.no_meta)
        print(f"wrote {out}")
    return EXIT_OK


def _cmd_crossover(args) -> int:
    config = _load_config(args)
    n = analysis.crossover(_resolve(args, config, "n_max", 40))
    print(f"crossover: n = {n}  ((n+1)^3 = {(n+1)**3} <= 2^n = {2**n})")
    return EXIT_OK


def _cmd_predict_magnus(args) -> int:
    config = _load_config(args)
    # The predictor acts on dephasing generators; default to that preset
    # unless the user pinned a model some other way.
    if args.preset is None and args.model is None and not ({"preset", "model"} & config.keys()):
        args.preset = "pure_dephasing"
    spec = _model_spec(args, config)
    model = bath.build_model(spec)
    level = _resolve(args, config, "level", 1)
    tau0 = _resolve(args, config, "tau0", 0.01)
    halvings = _resolve(args, config, "halvings", 3)
    print(f"{'tau0':>12} {'|az_pred|':>12} {'|az_eff|':>12} {'rel_dev':>12}")
    devs = []
    for k in range(halvings + 1):
        tau = tau0 / 2**k
        _, az_pred, tau_n = effective.magnus_cdd_predict(model.a0, model.az, tau, level)
        seq = sequences.cdd_xx(level, total_duration=tau_n)
        eff = effective.sequence_effective(seq, model)
        norm_eff = bath.spectral_norm(eff.az)
        dev = bath.spectral_norm(eff.az - az_pred) / norm_eff
        devs.append(dev)
        print(f"{tau:>12.6g} {bath.spectral_norm(az_pred):>12.4e} {norm_eff:>12.4e} {dev:>12.4e}")
    for k in range(len(devs) - 1):
        print(f"deviation ratio (tau0/2^{k} vs /2^{k+1}): {devs[k]/devs[k+1]:.3f}")
    return EXIT_OK


def _parse_seq_token(token: str) -> dict:
    name, *parts = token.split(",")
    family = {"name": name}
    for part in parts:
        key, _, value = part.partition("=")
        if key not in ("n", "m", "c", "axis"):
            raise ValueError(f"unknown key {key!r} in --seq token {token!r}; expected n, m, c or axis")
        family[key] = sequences.PauliAxis(value) if key == "axis" else int(value)
    return family


def _cmd_compare(args) -> int:
    config = _load_config(args)
    spec = _model_spec(args, config)
    model = bath.build_model(spec)
    t = _resolve(args, config, "t", 0.01)
    tokens = args.seq or config.get("seq") or []
    if not tokens:
        raise ValueError("compare needs at least one --seq token, e.g. --seq udd,n=3")
    precision = args.precision = _resolve(args, config, "precision", "double")
    families = [_parse_seq_token(token) for token in tokens]
    print(f"{'label':>20} {'pulses':>7} {'E_flip':>12} {'E_dephase':>12} {'E_total':>12} {'F_e':>12}"
          f" {'F_e(ctrl)':>12}")
    for params in families:
        seq = sequences.build_sequence(params.pop("name"), t, **params)
        result = evolution.sequence_unitary(seq, model)
        if precision == "double":
            eff = effective.unitary_effective(seq, result)
            funcs = effective.error_functionals(eff)
            for message in _near_floor({**funcs, "floor": eff.floor, "t": t}, analysis.FUNCTIONALS, "double"):
                print(f"warning: {seq.label}: {message}; use --precision extended", file=sys.stderr)
        else:
            funcs = analysis.evaluate_point(seq, model, precision)
            _check_floor([{**funcs, "t": t}], analysis.FUNCTIONALS)
        fe = evolution.entanglement_fidelity(result)
        # Against the net control rotation, which F_e (against I) reads as a loss.
        ctrl = evolution.control_product(seq).conj().T
        fe_ctrl = evolution.entanglement_fidelity(evolution.apply_qubit_factor(ctrl, result.u))
        print(
            f"{seq.label:>20} {seq.pulse_count:>7} {funcs['E_flip']:>12.4e}"
            f" {funcs['E_dephase']:>12.4e} {funcs['E_total']:>12.4e} {fe:>12.9f} {fe_ctrl:>12.9f}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddforge",
        description="Dynamical-decoupling schedule compiler and exact small-bath simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a schedule and write its JSON")
    _add_family_args(p_gen)
    p_gen.add_argument("--t", type=float, default=None, help="total duration (default 1.0)")
    p_gen.add_argument("--out", default=None, metavar="FILE", help="schedule JSON output path")
    _add_common(p_gen)
    p_gen.set_defaults(func=_cmd_gen)

    p_order = sub.add_parser("order", help="fit the suppression order of a family")
    _add_family_args(p_order)
    _add_model_args(p_order)
    p_order.add_argument("--functional", choices=["flip", "dephase", "total"], default=None)
    p_order.add_argument("--at-min", type=float, default=None, help="smallest alpha*t (default 1e-3)")
    p_order.add_argument("--at-max", type=float, default=None, help="largest alpha*t (default 1e-2)")
    p_order.add_argument("--points", type=int, default=None, help="grid points (default 8)")
    p_order.add_argument("--seeds", default=None, help="comma-separated seed ensemble")
    p_order.add_argument("--precision", choices=["double", "extended"], default=None)
    p_order.add_argument("--out", default=None, metavar="FILE", help="scan CSV output path")
    p_order.add_argument("--summary", default=None, metavar="FILE", help="fit summary JSON output path")
    _add_common(p_order)
    p_order.set_defaults(func=_cmd_order, shrink="the duration grid (--at-max)")

    p_counts = sub.add_parser("counts", help="pulse-count economics table")
    p_counts.add_argument("--m-max", dest="m_max", type=int, default=None)
    p_counts.add_argument("--out", default=None, metavar="FILE")
    _add_common(p_counts)
    p_counts.set_defaults(func=_cmd_counts)

    p_cross = sub.add_parser("crossover", help="smallest n with (n+1)^3 <= 2^n")
    p_cross.add_argument("--n-max", dest="n_max", type=int, default=None)
    _add_common(p_cross)
    p_cross.set_defaults(func=_cmd_crossover)

    p_magnus = sub.add_parser("predict-magnus", help="concatenation predictor vs extraction")
    _add_model_args(p_magnus)
    p_magnus.add_argument("--level", type=int, default=None, help="concatenation level (default 1)")
    p_magnus.add_argument("--tau0", type=float, default=None, help="base block duration (default 0.01)")
    p_magnus.add_argument("--halvings", type=int, default=None, help="number of tau0 halvings (default 3)")
    _add_common(p_magnus)
    p_magnus.set_defaults(func=_cmd_predict_magnus, shrink="the base duration (--tau0)")

    p_cmp = sub.add_parser("compare", help="residual couplings of several schedules at one duration")
    _add_model_args(p_cmp)
    p_cmp.add_argument("--seq", action="append", default=None, help="schedule token, e.g. udd,n=3 (repeatable)")
    p_cmp.add_argument("--t", type=float, default=None, help="common total duration (default 0.01)")
    p_cmp.add_argument("--precision", choices=["double", "extended"], default=None)
    _add_common(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare, shrink="the duration (--t)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except effective.BranchAmbiguityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        # order and compare store their resolved precision on args;
        # predict-magnus has no --precision flag.
        switch = " or use --precision extended" if getattr(args, "precision", None) == "double" else ""
        print(f"advice: shrink {args.shrink}{switch}", file=sys.stderr)
        return EXIT_BRANCH
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BRANCH
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
