"""Acceptance suite: the eight exit criteria at their stated tolerances.

Each test prints one PASS/FAIL line (run with -s or check captured output).
Reference constants are frozen from scripts/golden_oracle.py.
"""

import io
import time

import numpy as np

import reference_values as ref
from tsvkit import (DEFAULT_GEOMETRY, DEFAULT_MATERIALS, FrequencyGrid,
                    OscillatorModel)
from tsvkit.checks import DUAL_ROUTE_TOL
from tsvkit.network import verify_dual_route, z_sweep
from tsvkit.rlgc import (c_d, c_ox, c_si_g_si, depletion_width, l_tsv, r_dc,
                         rlgc_at, skin_depth)
from tsvkit.sparams import max_singular_value, s_sweep, s_to_z
from tsvkit.spur import (BUILTIN_CALIBRATION_POINTS, amplitude_sweep,
                         builtin_oscillator, calibrate_k_sub, frequency_sweep,
                         slope_per_octave)
from tsvkit.touchstone import read_s3p, write_s3p

GEOM = DEFAULT_GEOMETRY
MAT = DEFAULT_MATERIALS
GRID = FrequencyGrid.default()


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def full_sweep():
    zs = z_sweep(GRID, GEOM, MAT)
    return zs, s_sweep(zs, z0=50.0)


def test_criterion_1_formula_golden_set():
    t0 = time.perf_counter()
    wd = depletion_width(MAT)
    cap_si, cond_si = c_si_g_si(GEOM, MAT)
    values = {
        "r_dc": (r_dc(GEOM, MAT), ref.R_DC),
        "skin_depth_1ghz": (skin_depth(1e9, MAT), ref.SKIN_DEPTH_1GHZ),
        "c_ox": (c_ox(GEOM, MAT), ref.C_OX),
        "w_d": (wd, ref.W_D),
        "c_d": (c_d(GEOM, MAT, wd), ref.C_D),
        "c_si": (cap_si, ref.C_SI),
        "g_si": (cond_si, ref.G_SI),
        "l_tsv": (l_tsv(GEOM, MAT), ref.L_TSV),
    }
    elapsed = time.perf_counter() - t0
    worst = max(abs(got - want) / abs(want) for got, want in values.values())
    ok = worst <= 1e-6 and elapsed < 0.05
    report(1, ok, f"worst relative error vs oracle {worst:.3e} "
                  f"(tolerance 1e-6), runtime {elapsed * 1e3:.2f} ms")


def test_criterion_2_coupling_curve_shape():
    t0 = time.perf_counter()
    zs, ss = full_sweep()
    elapsed = time.perf_counter() - t0
    f = ss.frequency
    s21_db, s31_db = 20.0 * np.log10(np.abs(ss.s[:, 1:, 0])).T
    s21_10g = float(s21_db[np.argmin(abs(f - 10e9))])
    monotone = bool((np.diff(s21_db[(f >= 10e6) & (f <= 10e9)]) >= 0).all())
    s31_ok = bool((s31_db[f <= 10e9] > -3.0).all())
    level_ok = abs(s21_10g - (-30.0)) <= 3.0
    ok = level_ok and monotone and s31_ok and elapsed < 1.0
    report(2, ok, f"|S21|@10GHz = {s21_10g:.2f} dB (-30 +- 3), monotone "
                  f"10MHz-10GHz: {monotone}, |S31| > -3 dB below 10 GHz: {s31_ok}, "
                  f"sweep runtime {elapsed:.3f} s")


def test_criterion_3_dual_route_agreement():
    worst = verify_dual_route(z_sweep(GRID, GEOM, MAT)).max()
    report(3, worst <= DUAL_ROUTE_TOL,
           f"branch algebra vs nodal analysis, worst relative "
           f"disagreement {worst:.3e} over {len(GRID.points)} points (tolerance 1e-9)")


def test_criterion_4_s_matrix_properties():
    zs, ss = full_sweep()
    s = ss.s
    worst_sym = float((np.abs(s - s.swapaxes(1, 2)).max(axis=(1, 2))
                       / np.abs(s).max(axis=(1, 2))).max())
    worst_sigma = float(max_singular_value(ss).max())
    worst_rt = float((np.abs(s_to_z(ss).z - zs.z) / np.abs(zs.z)).max())
    ok = worst_sym <= 1e-9 and worst_sigma <= 1 + 1e-9 and worst_rt <= 1e-9
    report(4, ok, f"reciprocity {worst_sym:.3e} (<=1e-9), max singular value "
                  f"{worst_sigma:.12f} (<=1+1e-9), Z<->S round-trip {worst_rt:.3e} (<=1e-9)")


def test_criterion_5_touchstone_round_trip():
    _, ss = full_sweep()
    buf = io.StringIO()
    write_s3p(ss, buf)
    text = buf.getvalue()
    option_ok = "# Hz S RI R 50" in text.splitlines()
    doc = read_s3p(text)
    f, m = doc.records.frequencies, doc.records.matrices
    worst = max(float((np.abs(m - ss.s).max(axis=(1, 2)) / np.abs(ss.s).max(axis=(1, 2))).max()),
                float((abs(f - ss.frequency) / ss.frequency).max()))
    ok = option_ok and worst <= 1e-8
    report(5, ok, f"write->read worst relative error {worst:.3e} (<=1e-8), "
                  f"default option line emitted exactly: {option_ok}")


def test_criterion_6_amplitude_sweep_replica():
    osc = builtin_oscillator(GEOM, MAT)   # single-point calibration at 100 mVpp / 1 GHz
    rows = amplitude_sweep(osc, GEOM, MAT, [0.1 * (i + 1) for i in range(7)], f_agg=1e9)
    rise = rows[-1][1] - rows[0][1]
    slope = slope_per_octave(rows)
    predicted_700 = rows[-1][1]
    ok = (abs(rise - 17.0) <= 1.0 and abs(slope - 6.0) <= 0.5
          and abs(predicted_700 - (-19.1)) <= 1.0)
    report(6, ok, f"total rise {rise:.2f} dB (17 +- 1), slope {slope:.3f} dB/octave "
                  f"(6 +- 0.5), spur at 700 mVpp {predicted_700:.2f} dBc (-19.1 +- 1)")


def test_criterion_7_frequency_sweep_replica():
    osc = builtin_oscillator(GEOM, MAT)
    rows = frequency_sweep(osc, GEOM, MAT, np.linspace(0.5e9, 2e9, 7), amplitude_vpp=0.3)
    rolloff = rows[0][1] - rows[-1][1]
    ok = abs(rolloff - 12.9) <= 2.0
    report(7, ok, f"0.5 -> 2 GHz roll-off {rolloff:.2f} dB (12.9 +- 2); absolute "
                  f"levels {rows[0][1]:.2f} / {rows[-1][1]:.2f} dBc vs reported "
                  f"-20.2 / -33.1 (informative, single-point calibration)")


def test_criterion_8_excluded_outlier_point():
    # The reported -35.2 dBc at 0.5 Vpp / 1 GHz is mutually incompatible with
    # the amplitude-sweep data under the model's own 6 dB/octave law, so it is
    # excluded from calibration (along with transistor-level artifacts: noise
    # floor, higher-order mixing spurs, oscillator tuning range).
    osc = builtin_oscillator(GEOM, MAT)
    rows = amplitude_sweep(osc, GEOM, MAT, [0.5], f_agg=1e9)
    predicted = rows[0][1]
    mismatch = abs(predicted - (-35.2))
    excluded = (0.5, 1e9, -35.2) not in BUILTIN_CALIBRATION_POINTS
    ok = mismatch > 3.0 and excluded
    report(8, ok, f"0.5 Vpp point predicts {predicted:.2f} dBc, {mismatch:.1f} dB "
                  f"from the reported -35.2 dBc outlier; excluded from "
                  f"calibration: {excluded}")


def test_calibration_spread_on_reported_points():
    # supporting check: one k_sub fits all four reported levels within 1 dB
    cal = calibrate_k_sub(ref.REPORTED_SPUR_POINTS, GEOM, MAT)
    print(f"INFO reported-point residual spread {cal.spread_db:.3f} dB "
          f"(residuals {[round(r, 3) for r in cal.residuals_db]})")
    assert cal.spread_db <= 1.0
