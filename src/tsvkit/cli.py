"""Command-line front end: extract, sweep, spur, validate.

Parameter precedence: built-in defaults < config file < command-line flags.
All outputs are deterministic (no timestamps, fixed float formatting), and
every subcommand validates its full configuration before writing anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .checks import run_checks
from .errors import ConfigError, TsvKitError, ValidationError
from .network import MAX_POINTS, FrequencyGrid, z_sweep, z_sweep_csv
from .numerics import csv_text
from .params import (GEOMETRY_KEYS, MATERIAL_KEYS, geometry_from_mapping, load_config,
                     materials_from_mapping)
from .rlgc import c_d, c_ox, c_si_g_si, depletion_width, l_tsv, r_dc
from .sparams import s_sweep, s_sweep_csv
from .spur import (BUILTIN_CALIBRATION_POINTS, DEFAULT_F_OSC, REPLICA_SUBSTRATE_LOAD,
                   OscillatorModel, amplitude_sweep, calibrate_k_sub, frequency_sweep,
                   slope_per_octave)
from .touchstone import write_s3p

GRID_KEYS = ("f_start", "f_stop", "points", "spacing")
SPUR_KEYS = ("f_osc", "k_sub", "substrate_load", "z0")
CONFIG_KEYS = GEOMETRY_KEYS + MATERIAL_KEYS + GRID_KEYS + SPUR_KEYS

# The element table of `extract` and the element metrics of `sweep`: name -> unit.
ELEMENT_UNITS = {"r_dc": "ohm", "l_tsv": "H", "c_ox": "F", "c_d": "F", "c_si": "F", "g_si": "S"}
SWEEP_METRICS = tuple(ELEMENT_UNITS) + ("s21_db", "s31_db")


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ValidationError, so main prints one error line."""

    def error(self, message):
        raise ValidationError(message)


def _step_count(text):
    """argparse type of --steps: an integer from 1 to MAX_POINTS."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {text!r}")
    if value > MAX_POINTS:
        raise argparse.ArgumentTypeError(f"need at most {MAX_POINTS} steps, got {text}")
    return value


def _add_param_flags(parser):
    group = parser.add_argument_group("parameter overrides (SI units)")
    for key in GEOMETRY_KEYS + MATERIAL_KEYS:
        group.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float, default=None)
    parser.add_argument("--config", default=None, help="key/value config file (name = value)")
    parser.add_argument("--seed-params", choices=("reference",), default=None,
                        help="pin geometry and material constants to the built-in "
                             "reference set, overriding any config file")
    parser.add_argument("--json", action="store_true", help="machine-readable summary on stdout")


def _add_grid_flags(parser):
    parser.add_argument("--f-start", type=float, default=None, help="Hz (default 1e6)")
    parser.add_argument("--f-stop", type=float, default=None, help="Hz (default 100e9)")
    parser.add_argument("--points", type=int, default=None, help="grid size (default 201)")
    parser.add_argument("--spacing", choices=("linear", "logarithmic"), default=None)


def _pick(args, values, key, default):
    """A setting from its flag, else from the config file, else ``default``.

    A config value is converted to the type of ``default`` (float for None).
    """
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key not in values:
        return default
    kind = float if default is None else type(default)
    if kind is int and isinstance(values[key], float) and not values[key].is_integer():
        raise ConfigError(f"{key} = {values[key]!r} is not a whole number")
    try:
        return kind(values[key])
    except ValueError:
        raise ConfigError(f"{key} = {values[key]!r} is not a {kind.__name__}") from None


def _print_json(summary):
    """Print ``summary`` as strict JSON: a non-finite number is written as null."""
    def finite(value):
        if isinstance(value, dict):
            return {key: finite(v) for key, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        return None if isinstance(value, float) and not np.isfinite(value) else value
    print(json.dumps(finite(summary), sort_keys=True, allow_nan=False))


def _write_text(path, text):
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)


def _require_writable(*paths):
    """Raise a ConfigError naming the first of ``paths`` (None skipped) that cannot be written."""
    for path in filter(None, paths):
        target = path if os.path.exists(path) else os.path.dirname(path) or "."
        if os.path.isdir(path) or not os.access(target, os.W_OK):   # False for a missing folder
            raise ConfigError(f"cannot write {path!r}: no such folder, or not a writable file")


def _resolve(args):
    """Merge defaults, config file and flags into validated domain objects; check output paths."""
    values = {}
    if args.config:
        values.update(load_config(args.config, known_keys=CONFIG_KEYS))
    for key in GEOMETRY_KEYS + MATERIAL_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if args.seed_params:
        for key in GEOMETRY_KEYS + MATERIAL_KEYS:
            values.pop(key, None)
    geom = geometry_from_mapping(values)
    mat = materials_from_mapping(values)

    spacing = _pick(args, values, "spacing", "logarithmic")
    if spacing not in ("linear", "logarithmic"):
        raise ConfigError(f"spacing = {spacing!r} is not 'linear' or 'logarithmic'")
    make_grid = FrequencyGrid.linear if spacing == "linear" else FrequencyGrid.logarithmic
    grid = make_grid(_pick(args, values, "f_start", 1e6), _pick(args, values, "f_stop", 100e9),
                     _pick(args, values, "points", 201))
    _require_writable(*(getattr(args, key, None) for key in ("out", "csv", "z_csv")))
    return geom, mat, grid, values


def _elements(geom, mat) -> dict:
    """The ELEMENT_UNITS values, none of which depends on frequency."""
    c_si, g_si = c_si_g_si(geom, mat)
    values = {"r_dc": r_dc(geom, mat), "l_tsv": l_tsv(geom, mat), "c_ox": c_ox(geom, mat),
              "c_d": c_d(geom, mat, depletion_width(mat)), "c_si": c_si, "g_si": g_si}
    bad = [name for name, value in values.items() if not (value > 0 and np.isfinite(value))]
    if bad:
        raise ValidationError(f"{bad[0]} = {values[bad[0]]!r} is not finite and positive")
    return values


def cmd_extract(args) -> int:
    geom, mat, grid, values = _resolve(args)
    z0 = _pick(args, values, "z0", 50.0)
    zs = z_sweep(grid, geom, mat)
    ss = s_sweep(zs, z0=z0)
    elements = _elements(geom, mat)

    comments = [f"tsvkit {__version__} three-port TSV pair S-parameters"]
    comments += [f"{k} = {getattr(geom, k):.9e}" for k in GEOMETRY_KEYS]
    comments += [f"{k} = {getattr(mat, k):.9e}" for k in MATERIAL_KEYS]
    write_s3p(ss, args.out, fmt=args.format, comments=comments)
    s_sweep_csv(ss, full=args.full_s, destination=args.csv)
    if args.z_csv:
        z_sweep_csv(zs, destination=args.z_csv)

    summary = {
        "s3p": args.out,
        "csv": args.csv,
        "records": len(ss),
        "z0_ohm": z0,
        "elements": {f"{k}_{ELEMENT_UNITS[k].lower()}": v for k, v in elements.items()},
    }
    if args.json:
        _print_json(summary)
    else:
        print("element     value            unit")
        for name, value in elements.items():
            print(f"{name:<10}  {value:.6e}     {ELEMENT_UNITS[name]}")
        print(f"wrote {len(ss)} records to {args.out} and {args.csv}")
    return 0


def _sweep_metric(name, geom, mat, probe_frequency, z0):
    if name in ELEMENT_UNITS:
        return _elements(geom, mat)[name]
    s = s_sweep(z_sweep(FrequencyGrid([probe_frequency]), geom, mat), z0).s[0]
    mag = abs(s[1, 0] if name == "s21_db" else s[2, 0])
    return 20.0 * math.log10(mag) if mag > 0.0 else -math.inf


def cmd_sweep(args) -> int:
    if len(args.param) != 1:
        raise ValidationError("exactly one --param may be swept")
    param = args.param[0]
    geom, mat, _, values = _resolve(args)
    z0 = _pick(args, values, "z0", 50.0)
    rows = []
    for value in np.linspace(args.start, args.stop, args.steps).tolist():
        point = {param: value}
        g, m = geometry_from_mapping(point, geom), materials_from_mapping(point, mat)
        rows.append((value, _sweep_metric(args.metric, g, m, args.probe_frequency, z0)))
    text = csv_text(f"{param},{args.metric}", np.array(rows))
    if args.out:
        _write_text(args.out, text)
    if args.json:
        _print_json({"param": param, "metric": args.metric, "rows": rows, "out": args.out})
    elif args.out:
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        print(text, end="")
    return 0


def _parse_cal_points(args):
    if not args.cal_point:
        return BUILTIN_CALIBRATION_POINTS
    points = []
    for text in args.cal_point:
        parts = text.split(":")
        if len(parts) != 3:
            raise TsvKitError(f"--cal-point expects VPP:HZ:DBC, got {text!r}")
        try:
            points.append((float(parts[0]), float(parts[1]), float(parts[2])))
        except ValueError:
            raise TsvKitError(f"--cal-point expects numbers, got {text!r}") from None
    return points


def _parse_load(text):
    if text == "open":
        return None
    try:
        value = float(text)
    except ValueError:
        raise TsvKitError(f"--substrate-load expects ohms or 'open', got {text!r}") from None
    return value


def cmd_spur(args) -> int:
    geom, mat, _, values = _resolve(args)
    load = _parse_load(_pick(args, values, "substrate_load", str(REPLICA_SUBSTRATE_LOAD)))
    f_osc = _pick(args, values, "f_osc", DEFAULT_F_OSC)

    k_sub = _pick(args, values, "k_sub", None)
    cal = None
    if k_sub is None:
        cal = calibrate_k_sub(_parse_cal_points(args), geom, mat, substrate_load=load)
        k_sub = cal.k_sub
    osc = OscillatorModel(k_sub=k_sub, f_osc=f_osc)

    amplitude_mode = args.mode == "amplitude"
    start, stop = (0.1, 0.7) if amplitude_mode else (0.5e9, 2e9)
    swept = np.linspace(start if args.start is None else args.start,
                        stop if args.stop is None else args.stop, args.steps)
    if amplitude_mode:
        rows = amplitude_sweep(osc, geom, mat, swept, f_agg=args.f_agg,
                               substrate_load=load, exact_bessel=args.exact_bessel)
        header = "amplitude_v,spur_dbc"
    else:
        rows = frequency_sweep(osc, geom, mat, swept, amplitude_vpp=args.amplitude,
                               substrate_load=load, exact_bessel=args.exact_bessel)
        header = "frequency_hz,spur_dbc"

    try:
        slope = slope_per_octave(rows)
    except TsvKitError:
        slope = None   # fewer than two finite points (e.g. zero-amplitude rows)
    total = rows[-1][1] - rows[0][1]
    text = csv_text(header, np.array(rows))
    if args.out:
        _write_text(args.out, text)
    summary = {
        "mode": args.mode,
        "f_osc_hz": osc.f_osc,
        "k_sub_hz_per_v": osc.k_sub,
        "calibration_residuals_db": list(cal.residuals_db) if cal else None,
        "slope_db_per_octave": slope,
        "total_change_db": total,
        "first": {"swept": rows[0][0], "spur_dbc": rows[0][1]},
        "last": {"swept": rows[-1][0], "spur_dbc": rows[-1][1]},
        "out": args.out,
    }
    if amplitude_mode:
        summary["sideband_hz"] = osc.f_osc + args.f_agg
    else:
        summary["sideband_first_hz"] = osc.f_osc + rows[0][0]
        summary["sideband_last_hz"] = osc.f_osc + rows[-1][0]
    if args.json:
        _print_json(summary)
    else:
        if not args.out:
            print(text, end="")
        print(f"k_sub = {osc.k_sub:.6e} Hz/V")
        if amplitude_mode:
            print(f"upper sideband at f_osc + f_agg = {(osc.f_osc + args.f_agg) / 1e9:.4f} GHz")
            span = f"{rows[0][0]:g} V -> {rows[-1][0]:g} V"
        else:
            print(f"upper sidebands at f_osc + f_agg = "
                  f"{(osc.f_osc + rows[0][0]) / 1e9:.4f} .. "
                  f"{(osc.f_osc + rows[-1][0]) / 1e9:.4f} GHz")
            span = f"{rows[0][0] / 1e9:g} GHz -> {rows[-1][0] / 1e9:g} GHz"
        if slope is not None:
            print(f"slope per octave: {slope:+.3f} dB")
        print(f"total change {span}: {total:+.3f} dB")
    return 0


def cmd_validate(args) -> int:
    """Print each check of :mod:`tsvkit.checks` as PASS or FAIL; exit 1 on any FAIL.

    An error before the checks can run (flags, config, building the sweep) exits 2.
    """
    geom, mat, grid, values = _resolve(args)
    zs = z_sweep(grid, geom, mat)
    checks = run_checks(zs, s_sweep(zs, z0=_pick(args, values, "z0", 50.0)), geom, mat)
    passed = all(c["passed"] for c in checks)
    if args.json:
        _print_json({"checks": checks, "passed": passed})
    else:
        for c in checks:
            print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}")
    return 0 if passed else 1


def _extract_flags(p):
    _add_param_flags(p)
    _add_grid_flags(p)
    p.add_argument("--z0", type=float, default=None, help="reference impedance, ohm (default 50)")
    p.add_argument("--format", choices=("RI", "MA", "DB"), default="RI")
    p.add_argument("--out", default="tsv_pair.s3p")
    p.add_argument("--csv", default="tsv_pair_sparams.csv")
    p.add_argument("--z-csv", default=None, help="also export the Z sweep as CSV")
    p.add_argument("--full-s", action="store_true", help="include all Re/Im S entries in the CSV")


def _sweep_flags(p):
    _add_param_flags(p)
    p.add_argument("--param", action="append", required=True, choices=GEOMETRY_KEYS + MATERIAL_KEYS)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=_step_count, default=11)
    p.add_argument("--metric", choices=SWEEP_METRICS, required=True)
    p.add_argument("--probe-frequency", type=float, default=10e9,
                   help="frequency for the S-parameter metrics (default 10 GHz)")
    p.add_argument("--z0", type=float, default=None)
    p.add_argument("--out", default=None)


def _spur_flags(p):
    _add_param_flags(p)
    p.add_argument("--mode", choices=("amplitude", "frequency"), required=True)
    p.add_argument("--start", type=float, default=None,
                   help="sweep start (V for amplitude mode, Hz for frequency mode)")
    p.add_argument("--stop", type=float, default=None)
    p.add_argument("--steps", type=_step_count, default=7)
    p.add_argument("--f-agg", type=float, default=1e9,
                   help="aggressor frequency for amplitude mode (default 1 GHz)")
    p.add_argument("--amplitude", type=float, default=0.3,
                   help="peak-to-peak amplitude for frequency mode (default 0.3 V)")
    p.add_argument("--cal-point", action="append", default=None, metavar="VPP:HZ:DBC",
                   help="calibration point(s); default: built-in reference point")
    p.add_argument("--k-sub", type=float, default=None,
                   help="explicit pushing sensitivity in Hz/V (skips calibration)")
    p.add_argument("--f-osc", type=float, default=None,
                   help=f"free-running frequency, Hz (default {DEFAULT_F_OSC:g})")
    p.add_argument("--substrate-load", default=None,
                   help="substrate port load in ohm, or 'open' "
                        f"(default {REPLICA_SUBSTRATE_LOAD:g})")
    p.add_argument("--exact-bessel", action="store_true")
    p.add_argument("--out", default=None)


def _validate_flags(p):
    _add_param_flags(p)
    _add_grid_flags(p)
    p.add_argument("--z0", type=float, default=None)


# name: (help, command, flag adder), in the order `tsvkit --help` lists them
SUBCOMMANDS = {
    "extract": ("element values, S-parameter sweep, Touchstone + CSV", cmd_extract, _extract_flags),
    "sweep": ("sweep one geometry/material parameter", cmd_sweep, _sweep_flags),
    "spur": ("sideband spur sweeps (amplitude or frequency mode)", cmd_spur, _spur_flags),
    "validate": ("run the built-in self-checks", cmd_validate, _validate_flags),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser with every subcommand; only ``command``'s flags if one is named.

    A command line parses the same either way, as the other subcommands'
    flags are never read; they cost most of the build.
    """
    parser = _Parser(
        prog="tsvkit",
        description="Signal-ground TSV pair: RLGC extraction, three-port "
                    "S-parameters, Touchstone export and substrate-coupled "
                    "oscillator spur estimation.")
    parser.add_argument("--version", action="version", version=f"tsvkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, add_flags) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            add_flags(p)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the subcommand is the first word that is not an option: `tsvkit` has no option with a value
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    try:
        args = build_parser(command).parse_args(argv)
        return args.func(args)
    except TsvKitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
