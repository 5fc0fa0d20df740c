"""Command-line front end: reproducible generation, scans and count tables.

Subcommands: gen | order | counts | crossover | predict-magnus | compare.
Every option is resolved once, before its command runs: a flag, else the
--config file's value, else the command's built-in default.  The bath model
puts the resolved model options over the --model file's keys, so the seed
chain is flag > config > --model file > DDFORGE_SEED > 0.  Every JSON object
read goes through ``bath.check_types``: a config key must name an option the
file sets, and a model key one the spec reads, so a mistyped key is a usage
error naming it and the file.  The family values (--n, --m, --c, --axis
and a --seq token's keys) pass through to ``sequences.build_sequence``,
whose one family rule decides which each family takes, the axis included,
and checks every value under its flag's name; a --seq token's build error
is prefixed with the token.  Every other count passes
``bath.check_count`` and every duration ``sequences.check_duration``; a
command builds its schedules before it draws a bath model, so that a
family usage error costs no draw.  Only
``order`` and ``counts`` write a CSV, and only they take --no-meta.  Exit
codes: 0 success, 2 usage error, 3 numeric-domain error (an eigenphase near
the branch cut, a failed log reconstruction, an extended-precision value
too close to the engine's roundoff floor to be resolved, or any other
ArithmeticError), 4 I/O error.  A double-precision
``order``, ``compare`` or ``predict-magnus`` value that close to its floor
only warns; ``predict-magnus`` checks |az_eff| and |az_eff - az_pred| times
the step's duration, and exits 3 where a value it divides by reads 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import analysis, bath, effective, evolution, sequences

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BRANCH = 3
EXIT_IO = 4

def _add_family_args(parser):
    parser.add_argument("family", choices=sequences.FAMILIES, help="schedule family")
    parser.add_argument("--n", type=int, default=None, help="pulse count / level parameter")
    parser.add_argument("--m", type=int, default=None, help="block pulse count / level parameter")
    parser.add_argument("--c", type=int, default=None, help="cycle count")
    parser.add_argument("--axis", choices=sequences.AXES, default=None, help="pulse axis (default Z)")


def _add_model_args(parser):
    parser.add_argument("--model", type=str, default=None, metavar="FILE", help="model spec JSON file")
    parser.add_argument("--d", type=int, default=None, help="bath dimension")
    parser.add_argument("--seed", type=int, default=None, help="bath seed (default: DDFORGE_SEED or 0)")
    parser.add_argument("--preset", type=str, default=None,
                        help="generic | pure_dephasing | anisotropic | spin_bath(k)")
    for g in ("0", "x", "y", "z"):
        parser.add_argument(f"--norm-{g}", type=float, default=None, help=f"norm target for A_{g}")


def _finish(parser, func, defaults: dict, meta=False, **extra):
    """Close a command's parser: name each built-in default in --help, add --config, set the command.

    ``defaults`` is the one place a default is written; ``main`` reads it
    after the flags and --config.  The options read from --config are the
    command's own, each None when not given; ``meta`` adds --no-meta, to a
    command that writes a CSV.
    """
    for a in (a for a in parser._actions if a.dest in defaults):
        a.help = f"{a.help or ''} (default {defaults[a.dest]})".lstrip()
    options = [a for a in parser._actions if a.option_strings and a.default is None]
    parser.add_argument("--config", default=None, metavar="FILE", help="JSON config with default option values")
    if meta:
        parser.add_argument("--no-meta", action="store_true", help="omit the timestamp header in CSV output")
    parser.set_defaults(func=func, defaults=defaults, options=options, **extra)


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _load_config(args) -> dict:
    """The --config file's object, its keys and values checked against the options' before any work.

    Each key names an option the file may set (``args.options``).  Options
    read as strings declare type=str; --seeds (a list in a config) declares
    none, and takes any value here.  A repeatable option (--seq) takes a list
    of strings, and a seed is a count (``bath.check_count``), typed by that
    rule alone.
    """
    if args.config is None:
        return {}
    types = {a.dest: None if a.dest == "seed" else a.type for a in args.options}
    config = bath.check_types(_load_json(args.config), types, "config", args.config)
    for a in (a for a in args.options if a.dest in config):
        value = config[a.dest]
        if a.choices and value not in a.choices:
            raise ValueError(f"config key {a.dest!r} in {args.config} must be one of"
                             f" {', '.join(map(repr, a.choices))}, got {value!r}")
        if isinstance(a, argparse._AppendAction) and not (
                isinstance(value, list) and all(isinstance(item, str) for item in value)):
            raise ValueError(f"config key {a.dest!r} in {args.config} must be a list of strings, got {value!r}")
    if "seed" in config:
        bath.check_count(config["seed"], f"config key 'seed' in {args.config}")
    return config


def _model_spec(args) -> bath.ModelSpec:
    """The resolved model options over the --model file's keys, read as one spec by ``bath.spec_from_dict``.

    DDFORGE_SEED is read only where it gives the seed: no flag, config or model file does.
    """
    data = dict(bath.check_spec(_load_json(args.model), args.model)) if args.model else {}
    if args.seed is not None:
        bath.check_count(args.seed, "--seed")
    elif "seed" not in data:
        env_seed = os.environ.get("DDFORGE_SEED") or "0"
        data["seed"] = bath.check_count(int(env_seed) if env_seed.strip().isdecimal() else env_seed, "DDFORGE_SEED")
    data.update((key, getattr(args, key)) for key in ("d", "seed", "preset") if getattr(args, key) is not None)
    targets = data["norm_targets"] = dict(data.get("norm_targets", {}))
    targets.update((g, getattr(args, f"norm_{g}")) for g in bath.GAMMAS if getattr(args, f"norm_{g}") is not None)
    return bath.spec_from_dict(data)


def _family_kwargs(args) -> dict:
    return {key: getattr(args, key) for key in ("n", "m", "c", "axis") if getattr(args, key) is not None}


def _write(path, write) -> None:
    """Open the output file path, have write(fh) fill it, and say so on stdout; nothing when path is None."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        print(f"wrote {path}")


# Within this factor of an engine's floor a value's error may reach 1e-3 of it.
FLOOR_MARGIN = 1e3


def _check_floor(rows, keys, engine, prefix="") -> None:
    """The floor policy for the values of keys within FLOOR_MARGIN of their row's positive floor.

    An exact 0 counts too: against a positive floor it is a value rounded
    away, not a proven zero.  On the double engine each row with such values
    warns on one line; on the extended engine the first one fails the
    command (exit 3).
    """
    double = engine is effective.DOUBLE
    name = "double" if double else "extended engine's"
    for row in rows:
        messages = [f"{key} = {row[key]:.3g} at t={row['t']:g} is within {FLOOR_MARGIN:g}x of the {name} roundoff"
                    f" floor {row['floor']:.2g}" for key in keys if row[key] < FLOOR_MARGIN * row["floor"]]
        if messages and not double:
            raise ArithmeticError(f"{messages[0]}; not resolved")
        if messages:
            print(f"warning: {prefix}{'; '.join(messages)}; use --precision extended", file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    seq = sequences.build_sequence(args.family, args.t, **_family_kwargs(args))
    grid = sequences.commensurate_grid(seq)
    counts = ", ".join(
        f"{seq.axis_count(ax)} {ax.value}" for ax in sequences.PauliAxis if seq.axis_count(ax)
    )
    print(f"{seq.label}: {seq.pulse_count} pulses" + (f" ({counts})" if counts else ""))
    print(f"grid: D={grid}" if grid is not None else "grid: not commensurate")
    _write(args.out, lambda fh: fh.write(sequences.schedule_to_json(seq) + "\n"))
    return EXIT_OK


def _cmd_order(args) -> int:
    spec = _model_spec(args)
    params = _family_kwargs(args)
    seeds = args.seeds
    if seeds is not None:
        # A JSON list of counts, or counts separated by commas, each read as an integer where it is written as one.
        items = seeds if isinstance(seeds, list) else [
            int(s) if s.strip().isdecimal() else s for s in str(seeds).split(",")]
        seeds = [bath.check_count(s, f"seeds[{i}]") for i, s in enumerate(items)]
    # A family or grid usage error before any model is drawn; build_sequence memoises the schedule, so the scan
    # only re-times it.
    sequences.build_sequence(args.family, **params)
    analysis.check_grid(args.at_min, args.at_max, args.points)
    model = bath.build_model(spec)
    grid = analysis.default_t_grid(bath.alpha(model), at_min=args.at_min, at_max=args.at_max, points=args.points)
    functional = "E_" + args.functional
    engine = analysis.precision_engine(args.precision)
    rows = analysis.evaluate_scan({"name": args.family, **params}, spec, grid, seeds=seeds, precision=args.precision)
    _check_floor(rows, analysis.FUNCTIONALS if args.out else (functional,), engine)
    fit = analysis.fit_order([r["t"] for r in rows], [r[functional] for r in rows])
    _write(args.out, lambda fh: analysis.write_scan_csv(rows, fh, meta=not args.no_meta))
    _write(args.summary, lambda fh: fh.write(json.dumps(analysis.fit_to_dict(fit), indent=2) + "\n"))
    if fit.defined:
        print(f"{functional} slope: {fit.slope:.4f}  (r2={fit.r_squared:.6f})")
        print("pairwise orders:", " ".join(f"{p:.3f}" for p in fit.pairwise_orders))
    else:
        print(f"{functional} slope: not defined (fewer than two nonzero values)")
    return EXIT_OK


def _cmd_counts(args) -> int:
    rows = analysis.count_compare(args.m_max)
    print(f"{'m':>3} {'order':>6} {'cdd':>12} {'cudd':>12} {'udd2':>12}")
    for row in rows:
        print(f"{row['m']:>3} {row['claimed_order']:>6} {row['cdd']:>12} {row['cudd']:>12} {row['udd2']:>12}")
    _write(args.out, lambda fh: analysis.write_counts_csv(rows, fh, meta=not args.no_meta))
    return EXIT_OK


def _cmd_crossover(args) -> int:
    n = analysis.crossover(args.n_max)
    print(f"crossover: n = {n}  ((n+1)^3 = {(n+1)**3} <= 2^n = {2**n})")
    return EXIT_OK


def _cmd_predict_magnus(args) -> int:
    # The predictor acts on dephasing generators; default to that preset
    # unless the user pinned a model some other way.
    if args.preset is None and args.model is None:
        args.preset = "pure_dephasing"
    spec = _model_spec(args)
    for key in ("level", "halvings"):
        bath.check_count(getattr(args, key), f"--{key}")
    sequences.check_duration(args.tau0, "--tau0")
    sequences.check_duration(math.ldexp(args.tau0, -args.halvings), "--tau0 / 2^halvings")
    # The CDDxx step spans tau0 * 2^level, which overflows where tau0's binary exponent plus level passes 1024.
    mantissa, exponent = math.frexp(args.tau0)
    step = math.ldexp(mantissa, exponent + args.level) if exponent + args.level <= 1024 else math.inf
    sequences.check_duration(step, "--tau0 * 2^level")
    model = bath.build_model(spec)
    if not model.az.any():
        raise ValueError("the dephasing coupling A_z is zero; the predictor needs --norm-z > 0")
    # Every row is formed before the header, so that a failed one prints no table.
    lines, devs = [], []
    for k in range(args.halvings + 1):
        tau = args.tau0 / 2**k
        _, az_pred, tau_n = effective.magnus_cdd_predict(model.a0, model.az, tau, args.level)
        eff = effective.sequence_effective(sequences.cdd_xx(args.level, total_duration=tau_n), model)
        norm_eff, norm_dev = bath.spectral_norm(eff.az), bath.spectral_norm(eff.az - az_pred)
        # The floor policy of order and compare in double, on both amplitudes times tau_n; a zero divisor fails.
        if norm_eff == 0 or (k and norm_dev == 0):
            raise ArithmeticError(f"{'|az_eff|' if norm_eff == 0 else 'rel_dev'} reads 0 at tau0={tau:g}; raise --tau0")
        if (low := min(norm_eff, norm_dev) * tau_n) < FLOOR_MARGIN * eff.floor:
            print(f"warning: min(|az_eff|, |az_eff - az_pred|) tau_n = {low:.3g} at tau0={tau:g} is within"
                  f" {FLOOR_MARGIN:g}x of the double roundoff floor {eff.floor:.2g}; raise --tau0", file=sys.stderr)
        devs.append(norm_dev / norm_eff)
        lines.append(f"{tau:>12.6g} {bath.spectral_norm(az_pred):>12.4e} {norm_eff:>12.4e} {devs[-1]:>12.4e}")
    print(f"{'tau0':>12} {'|az_pred|':>12} {'|az_eff|':>12} {'rel_dev':>12}", *lines, sep="\n")
    for k in range(len(devs) - 1):
        print(f"deviation ratio (tau0/2^{k} vs /2^{k+1}): {devs[k]/devs[k+1]:.3f}")
    return EXIT_OK


def _parse_seq_token(token: str) -> dict:
    """The token's family name and keys; a value ``int`` reads is that int, any other its string."""
    name, *parts = token.split(",")
    family = {"name": name}
    for part in parts:
        key, _, value = part.partition("=")
        if key not in ("n", "m", "c", "axis"):
            raise ValueError(f"unknown key {key!r} in --seq token {token!r}; expected n, m, c or axis")
        if key in family:
            raise ValueError(f"key {key!r} repeats in --seq token {token!r}; give each key once")
        try:
            family[key] = int(value)
        except ValueError:
            family[key] = value
    return family


def _cmd_compare(args) -> int:
    spec = _model_spec(args)
    if not args.seq:
        raise ValueError("compare needs at least one --seq token, e.g. --seq udd,n=3")
    engine = analysis.precision_engine(args.precision)
    # The common duration is checked before any token, whose prefix then names only its own errors; every schedule
    # is built before the model is drawn and the header printed, so that a usage error costs no draw and prints no rows.
    sequences.check_duration(args.t, "total_duration")
    seqs = []
    for token in args.seq:
        params = _parse_seq_token(token)
        try:
            seqs.append(sequences.build_sequence(params.pop("name"), args.t, **params))
        except ValueError as exc:
            raise ValueError(f"--seq {token!r}: {exc}") from None
    model = bath.build_model(spec)
    print(f"{'label':>20} {'pulses':>7} {'E_flip':>12} {'E_dephase':>12} {'E_total':>12} {'F_e':>12}"
          f" {'F_e(ctrl)':>12}")
    for seq in seqs:
        # The functionals compose the schedule on the engine, and F_e reads U = ctrl (I + W) from that W: the
        # extended engine's high part.
        eff, w = effective.point_effective(seq, model, engine)
        result = evolution.controlled_unitary(seq, (w if engine is effective.DOUBLE else w[0])[0])
        funcs = effective.error_functionals(eff)
        for key in analysis.FUNCTIONALS:  # a warning line per value
            _check_floor([{**funcs, "floor": eff.floor, "t": args.t}], (key,), engine, f"{seq.label}: ")
        fe = evolution.entanglement_fidelity(result)
        # Against the net control rotation, which F_e (against I) reads as a loss: ctrl^+ U = I + W.
        fe_ctrl = evolution.entanglement_fidelity(result.w + np.eye(len(result.w)))
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
    p_gen.add_argument("--t", type=float, default=None, help="total duration")
    p_gen.add_argument("--out", type=str, default=None, metavar="FILE", help="schedule JSON output path")
    _finish(p_gen, _cmd_gen, dict(t=1.0))

    p_order = sub.add_parser("order", help="fit the suppression order of a family")
    _add_family_args(p_order)
    _add_model_args(p_order)
    p_order.add_argument("--functional", type=str, choices=["flip", "dephase", "total"], default=None)
    p_order.add_argument("--at-min", type=float, default=None, help="smallest alpha*t")
    p_order.add_argument("--at-max", type=float, default=None, help="largest alpha*t")
    p_order.add_argument("--points", type=int, default=None, help="grid points")
    p_order.add_argument("--seeds", default=None, help="comma-separated seed ensemble")
    p_order.add_argument("--precision", type=str, choices=list(analysis.ENGINES), default=None)
    p_order.add_argument("--out", type=str, default=None, metavar="FILE", help="scan CSV output path")
    p_order.add_argument("--summary", type=str, default=None, metavar="FILE", help="fit summary JSON output path")
    _finish(p_order, _cmd_order, dict(functional="flip", at_min=1e-3, at_max=1e-2, points=8, precision="double"),
            meta=True, shrink="the duration grid (--at-max)")

    p_counts = sub.add_parser("counts", help="pulse-count economics table")
    p_counts.add_argument("--m-max", dest="m_max", type=int, default=None)
    p_counts.add_argument("--out", type=str, default=None, metavar="FILE")
    _finish(p_counts, _cmd_counts, dict(m_max=12), meta=True)

    p_cross = sub.add_parser("crossover", help="smallest n with (n+1)^3 <= 2^n")
    p_cross.add_argument("--n-max", dest="n_max", type=int, default=None)
    _finish(p_cross, _cmd_crossover, dict(n_max=40))

    p_magnus = sub.add_parser("predict-magnus", help="concatenation predictor vs extraction")
    _add_model_args(p_magnus)
    p_magnus.add_argument("--level", type=int, default=None, help="concatenation level")
    p_magnus.add_argument("--tau0", type=float, default=None, help="base block duration")
    p_magnus.add_argument("--halvings", type=int, default=None, help="number of tau0 halvings")
    _finish(p_magnus, _cmd_predict_magnus, dict(level=1, tau0=0.01, halvings=3), shrink="the base duration (--tau0)")

    p_cmp = sub.add_parser("compare", help="residual couplings of several schedules at one duration")
    _add_model_args(p_cmp)
    p_cmp.add_argument("--seq", action="append", default=None, help="schedule token, e.g. udd,n=3 (repeatable)")
    p_cmp.add_argument("--t", type=float, default=None, help="common total duration")
    p_cmp.add_argument("--precision", type=str, choices=list(analysis.ENGINES), default=None)
    _finish(p_cmp, _cmd_compare, dict(t=0.01, precision="double"), shrink="the duration (--t)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        config = _load_config(args)
        for a in args.options:  # a flag, else the --config value, else the command's built-in default
            if getattr(args, a.dest) is None:
                setattr(args, a.dest, config.get(a.dest, args.defaults.get(a.dest)))
        return args.func(args)
    except (ArithmeticError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, effective.BranchAmbiguityError):
            # predict-magnus has no --precision flag.
            switch = " or use --precision extended" if getattr(args, "precision", None) == "double" else ""
            print(f"advice: shrink {args.shrink}{switch}", file=sys.stderr)
        # In this order: a class that is both a ValueError and an OSError is a usage error.
        return (EXIT_BRANCH if isinstance(exc, ArithmeticError) else
                EXIT_USAGE if isinstance(exc, (ValueError, KeyError)) else EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
