"""Command-line front end: extract, sweep, spur, validate.

Parameter precedence: built-in defaults < config file < command-line flags.
All outputs are deterministic (no timestamps, fixed float formatting), and
every subcommand validates its full configuration before writing anything.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .errors import TsvKitError, ValidationError
from .network import FrequencyGrid, verify_dual_route, z_matrix_at, z_sweep, z_sweep_csv
from .params import (DEFAULT_GEOMETRY, DEFAULT_MATERIALS, GEOMETRY_KEYS, MATERIAL_KEYS,
                     geometry_from_mapping, load_config, materials_from_mapping)
from .rlgc import c_d, c_ox, c_si_g_si, depletion_width, l_tsv, r_dc, rlgc_at
from .sparams import magnitude_db, max_singular_value, s_sweep, s_sweep_csv, s_to_z, z_to_s
from .spur import (BUILTIN_CALIBRATION_POINTS, OscillatorModel, amplitude_sweep,
                   calibrate_k_sub, frequency_sweep, slope_per_octave,
                   substrate_transfer, substrate_transfer_mna)
from .touchstone import read_s3p, write_s3p

GRID_KEYS = ("f_start", "f_stop", "points", "spacing")
SPUR_KEYS = ("f_osc", "k_sub", "carrier_power_db", "substrate_load", "z0")
CONFIG_KEYS = GEOMETRY_KEYS + MATERIAL_KEYS + GRID_KEYS + SPUR_KEYS


def _add_param_flags(parser):
    group = parser.add_argument_group("parameter overrides (SI units)")
    for key in GEOMETRY_KEYS + MATERIAL_KEYS:
        group.add_argument(f"--{key.replace('_', '-')}", dest=key, type=float, default=None)
    parser.add_argument("--config", default=None, help="key/value config file (name = value)")
    parser.add_argument("--seed-params", choices=("reference", "default"), default=None,
                        help="pin geometry and material constants to the built-in "
                             "reference set, overriding any config file")
    parser.add_argument("--json", action="store_true", help="machine-readable summary on stdout")


def _add_grid_flags(parser):
    parser.add_argument("--f-start", type=float, default=None, help="Hz (default 1e6)")
    parser.add_argument("--f-stop", type=float, default=None, help="Hz (default 100e9)")
    parser.add_argument("--points", type=int, default=None, help="grid size (default 201)")
    parser.add_argument("--spacing", choices=("linear", "logarithmic"), default=None)


def _resolve(args):
    """Merge defaults, config file and flags into validated domain objects."""
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

    f_start = args.f_start if getattr(args, "f_start", None) is not None \
        else float(values.get("f_start", 1e6))
    f_stop = args.f_stop if getattr(args, "f_stop", None) is not None \
        else float(values.get("f_stop", 100e9))
    n = args.points if getattr(args, "points", None) is not None \
        else int(values.get("points", 201))
    spacing = args.spacing if getattr(args, "spacing", None) is not None \
        else str(values.get("spacing", "logarithmic"))
    if spacing == "linear":
        grid = FrequencyGrid.linear(f_start, f_stop, n)
    else:
        grid = FrequencyGrid.logarithmic(f_start, f_stop, n)
    return geom, mat, grid, values


def _element_summary(geom, mat):
    wd = depletion_width(mat)
    cap_si, cond_si = c_si_g_si(geom, mat)
    return {
        "r_dc_ohm": r_dc(geom, mat),
        "l_tsv_h": l_tsv(geom, mat),
        "c_ox_f": c_ox(geom, mat),
        "c_d_f": c_d(geom, mat, wd),
        "c_si_f": cap_si,
        "g_si_s": cond_si,
    }


def _print_element_table(elements):
    print("element     value            unit")
    units = {"r_dc_ohm": "ohm", "l_tsv_h": "H", "c_ox_f": "F",
             "c_d_f": "F", "c_si_f": "F", "g_si_s": "S"}
    for key, value in elements.items():
        name = key.rsplit("_", 1)[0]
        print(f"{name:<10}  {value:.6e}     {units[key]}")


def cmd_extract(args) -> int:
    geom, mat, grid, values = _resolve(args)
    z0 = float(values.get("z0", 50.0)) if args.z0 is None else args.z0
    zs = z_sweep(grid, geom, mat)
    ss = s_sweep(zs, z0=z0)
    elements = _element_summary(geom, mat)

    comments = [f"tsvkit {__version__} three-port TSV pair S-parameters"]
    comments += [f"{k} = {getattr(geom, k):.9e}" for k in GEOMETRY_KEYS]
    comments += [f"{k} = {getattr(mat, k):.9e}" for k in MATERIAL_KEYS]
    csv_text = s_sweep_csv(ss, full=args.full_s)
    z_csv_text = z_sweep_csv(zs) if args.z_csv else None

    write_s3p(ss, args.out, fmt=args.format, comments=comments)
    with open(args.csv, "w", encoding="ascii", newline="\n") as fh:
        fh.write(csv_text)
    if args.z_csv:
        with open(args.z_csv, "w", encoding="ascii", newline="\n") as fh:
            fh.write(z_csv_text)

    summary = {
        "s3p": args.out,
        "csv": args.csv,
        "records": len(ss),
        "z0_ohm": z0,
        "elements": elements,
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        _print_element_table(elements)
        print(f"wrote {len(ss)} records to {args.out} and {args.csv}")
    return 0


SWEEP_METRICS = ("c_ox", "c_d", "c_si", "g_si", "l_tsv", "r_dc", "s21_db", "s31_db")


def _sweep_metric(name, geom, mat, probe_frequency, z0):
    if name == "c_ox":
        return c_ox(geom, mat)
    if name == "c_d":
        return c_d(geom, mat, depletion_width(mat))
    if name == "c_si":
        return c_si_g_si(geom, mat)[0]
    if name == "g_si":
        return c_si_g_si(geom, mat)[1]
    if name == "l_tsv":
        return l_tsv(geom, mat)
    if name == "r_dc":
        return r_dc(geom, mat)
    sp = z_to_s(z_matrix_at(probe_frequency, rlgc_at(probe_frequency, geom, mat)), z0=z0)
    return magnitude_db(sp.s[1, 0] if name == "s21_db" else sp.s[2, 0])


def cmd_sweep(args) -> int:
    if len(args.param) != 1:
        print("error: exactly one --param may be swept", file=sys.stderr)
        return 2
    param = args.param[0]
    geom, mat, _, values = _resolve(args)
    z0 = float(values.get("z0", 50.0)) if args.z0 is None else args.z0
    swept = np.linspace(args.start, args.stop, args.steps)
    rows = []
    for value in swept:
        if param in GEOMETRY_KEYS:
            g = replace(geom, **{param: float(value)})
            m = mat
        else:
            g = geom
            m = replace(mat, **{param: float(value)})
        rows.append((float(value), _sweep_metric(args.metric, g, m,
                                                 args.probe_frequency, z0)))
    lines = [f"{param},{args.metric}"]
    lines += [f"{v:.12e},{r:.12e}" for v, r in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
    if args.json:
        print(json.dumps({"param": param, "metric": args.metric,
                          "rows": rows, "out": args.out}, sort_keys=True))
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
    if args.steps < 1:
        raise ValidationError(f"--steps must be at least 1, got {args.steps}")
    geom, mat, _, values = _resolve(args)
    load_text = args.substrate_load if args.substrate_load is not None \
        else str(values.get("substrate_load", "50"))
    load = _parse_load(load_text)
    f_osc = args.f_osc if args.f_osc is not None else float(values.get("f_osc", 10.917e9))

    k_sub = args.k_sub if args.k_sub is not None else values.get("k_sub")
    if k_sub is not None:
        cal = None
        osc = OscillatorModel(k_sub=float(k_sub), f_osc=f_osc)
    else:
        cal = calibrate_k_sub(_parse_cal_points(args), geom, mat, substrate_load=load)
        osc = OscillatorModel(k_sub=cal.k_sub, f_osc=f_osc)

    if args.mode == "amplitude":
        start = 0.1 if args.start is None else args.start
        stop = 0.7 if args.stop is None else args.stop
        swept = np.linspace(start, stop, args.steps)
        rows = amplitude_sweep(osc, geom, mat, swept, f_agg=args.f_agg,
                               substrate_load=load, exact_bessel=args.exact_bessel)
        header = "amplitude_v,spur_dbc"
    else:
        start = 0.5e9 if args.start is None else args.start
        stop = 2e9 if args.stop is None else args.stop
        swept = np.linspace(start, stop, args.steps)
        rows = frequency_sweep(osc, geom, mat, swept, amplitude_vpp=args.amplitude,
                               substrate_load=load, exact_bessel=args.exact_bessel)
        header = "frequency_hz,spur_dbc"

    try:
        slope = slope_per_octave(rows)
    except TsvKitError:
        slope = None   # fewer than two finite points (e.g. zero-amplitude rows)
    total = rows[-1][1] - rows[0][1]
    lines = [header] + [f"{x:.12e},{y:.12e}" for x, y in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
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
    if args.mode == "amplitude":
        summary["sideband_hz"] = osc.f_osc + args.f_agg
    else:
        summary["sideband_first_hz"] = osc.f_osc + rows[0][0]
        summary["sideband_last_hz"] = osc.f_osc + rows[-1][0]
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        if not args.out:
            print(text, end="")
        print(f"k_sub = {osc.k_sub:.6e} Hz/V")
        if args.mode == "amplitude":
            print(f"upper sideband at f_osc + f_agg = {(osc.f_osc + args.f_agg) / 1e9:.4f} GHz")
        else:
            print(f"upper sidebands at f_osc + f_agg = "
                  f"{(osc.f_osc + rows[0][0]) / 1e9:.4f} .. "
                  f"{(osc.f_osc + rows[-1][0]) / 1e9:.4f} GHz")
        if slope is not None:
            print(f"slope per octave: {slope:+.3f} dB")
        if args.mode == "frequency":
            span = f"{rows[0][0] / 1e9:g} GHz -> {rows[-1][0] / 1e9:g} GHz"
        else:
            span = f"{rows[0][0]:g} V -> {rows[-1][0]:g} V"
        print(f"total change {span}: {total:+.3f} dB")
    return 0


def cmd_validate(args) -> int:
    geom, mat, grid, values = _resolve(args)
    z0 = float(values.get("z0", 50.0)) if args.z0 is None else args.z0
    checks = []

    def check(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    zs = z_sweep(grid, geom, mat)
    worst = verify_dual_route(zs, geom, mat)
    check("dual_route_z", worst <= 1e-9, f"worst relative disagreement {worst:.3e}")

    ss = s_sweep(zs, z0=z0)
    s = ss.s
    s_scale = np.abs(s).max(axis=(1, 2))
    worst_sym = float((np.abs(s - s.transpose(0, 2, 1)).max(axis=(1, 2)) / s_scale).max())
    worst_sigma = float(max_singular_value(ss).max())
    z_back = np.array([s_to_z(sp).z for sp in ss])
    worst_rt = float((np.abs(z_back - zs.z) / np.abs(zs.z)).max())
    check("reciprocity", worst_sym <= 1e-9, f"worst |S - S^T|/|S| = {worst_sym:.3e}")
    check("passivity", worst_sigma <= 1.0 + 1e-9, f"max singular value {worst_sigma:.12f}")
    check("z_s_roundtrip", worst_rt <= 1e-9, f"worst relative error {worst_rt:.3e}")

    buf = io.StringIO()
    write_s3p(ss, buf, fmt="RI")
    m = read_s3p(buf.getvalue()).records.matrices
    worst_file = float((np.abs(s - m).max(axis=(1, 2)) / np.maximum(s_scale, 1e-30)).max())
    check("touchstone_roundtrip", worst_file <= 1e-8,
          f"worst relative error {worst_file:.3e}")

    h_a = substrate_transfer(1e9, geom, mat)
    h_b = substrate_transfer_mna(1e9, geom, mat)
    rel = abs(h_a - h_b) / abs(h_a)
    check("transfer_dual_route", rel <= 1e-9, f"relative disagreement {rel:.3e}")

    passed = all(c["passed"] for c in checks)
    if args.json:
        print(json.dumps({"checks": checks, "passed": passed}, sort_keys=True))
    else:
        for c in checks:
            print(f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsvkit",
        description="Signal-ground TSV pair: RLGC extraction, three-port "
                    "S-parameters, Touchstone export and substrate-coupled "
                    "oscillator spur estimation.")
    parser.add_argument("--version", action="version", version=f"tsvkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="element values, S-parameter sweep, Touchstone + CSV")
    _add_param_flags(p)
    _add_grid_flags(p)
    p.add_argument("--z0", type=float, default=None, help="reference impedance, ohm (default 50)")
    p.add_argument("--format", choices=("RI", "MA", "DB"), default="RI")
    p.add_argument("--out", default="tsv_pair.s3p")
    p.add_argument("--csv", default="tsv_pair_sparams.csv")
    p.add_argument("--z-csv", default=None, help="also export the Z sweep as CSV")
    p.add_argument("--full-s", action="store_true", help="include all Re/Im S entries in the CSV")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("sweep", help="sweep one geometry/material parameter")
    _add_param_flags(p)
    p.add_argument("--param", action="append", required=True, choices=GEOMETRY_KEYS + MATERIAL_KEYS)
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, default=11)
    p.add_argument("--metric", choices=SWEEP_METRICS, required=True)
    p.add_argument("--probe-frequency", type=float, default=10e9,
                   help="frequency for the S-parameter metrics (default 10 GHz)")
    p.add_argument("--z0", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("spur", help="sideband spur sweeps (amplitude or frequency mode)")
    _add_param_flags(p)
    p.add_argument("--mode", choices=("amplitude", "frequency"), required=True)
    p.add_argument("--start", type=float, default=None,
                   help="sweep start (V for amplitude mode, Hz for frequency mode)")
    p.add_argument("--stop", type=float, default=None)
    p.add_argument("--steps", type=int, default=7)
    p.add_argument("--f-agg", type=float, default=1e9,
                   help="aggressor frequency for amplitude mode (default 1 GHz)")
    p.add_argument("--amplitude", type=float, default=0.3,
                   help="peak-to-peak amplitude for frequency mode (default 0.3 V)")
    p.add_argument("--cal-point", action="append", default=None, metavar="VPP:HZ:DBC",
                   help="calibration point(s); default: built-in reference point")
    p.add_argument("--k-sub", type=float, default=None,
                   help="explicit pushing sensitivity in Hz/V (skips calibration)")
    p.add_argument("--f-osc", type=float, default=None,
                   help="free-running frequency, Hz (default 10.917e9)")
    p.add_argument("--substrate-load", default=None,
                   help="substrate port load in ohm, or 'open' (default 50)")
    p.add_argument("--exact-bessel", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_spur)

    p = sub.add_parser("validate", help="run the built-in self-checks")
    _add_param_flags(p)
    _add_grid_flags(p)
    p.add_argument("--z0", type=float, default=None)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TsvKitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
