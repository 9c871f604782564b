"""Behavioral sideband-spur estimator for a substrate-coupled oscillator.

An aggressor tone driven into the signal via reaches the oscillator substrate
node through the three-port network; the resulting substrate swing pushes the
oscillation frequency (sensitivity ``k_sub`` in Hz/V) and creates narrowband
FM sidebands at f_osc +- f_agg.  Only the upper sideband is reported; the
model is symmetric so the lower one is equal.

First sideband level relative to the carrier, small modulation index:

    V_sub_peak = |H_sub(f_agg)| * A_pp / 2
    beta       = k_sub * V_sub_peak / f_agg
    spur_dbc   = 20*log10(beta / 2)

Each function works elementwise over arrays, so a sweep is one array pass; a
beta past ``BETA_WARN``/``BETA_LIMIT`` is reported once, at the worst point.
``k_sub`` is a calibration parameter, fitted from reference spur measurements
(`calibrate_k_sub`).  Amplitude-to-amplitude behavior is exactly 6.02 dB per
octave; frequency behavior combines the 1/f_agg FM roll-off with the
frequency dependence of the substrate transfer, which `substrate_transfer_mna`
checks by the network's nodal solve.
"""

from __future__ import annotations

import cmath
import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (CalibrationWarning, ModelValidityError, NarrowbandWarning,
                     ValidationError)
from .network import (NODES, PORT_INDEX, branch_impedances, frequency_stack, nodal_branches,
                      nodal_solve)
from .params import MaterialParams, TsvGeometry, _require_positive_fields, is_finite_real
from .rlgc import rlgc_at

BETA_WARN = 0.5          # narrowband approximation degrades above this
BETA_LIMIT = 2.0         # model invalid
RESIDUAL_SPREAD_WARN = 3.0   # dB

# Substrate load used by the bundled calibration and the replica sweeps: the
# reference impedance, representing the substrate port tied into the victim
# network rather than left floating (a floating substrate node saturates the
# transfer toward unity at low frequency and overstates the roll-off).
REPLICA_SUBSTRATE_LOAD = 50.0

# Termination of port 3 (the signal via top) in every transfer, ohms.
TERMINATION = 50.0

# Bundled reference spur measurement for the default parameter set:
# (aggressor peak-to-peak volts, aggressor Hz, observed spur dBc).
BUILTIN_CALIBRATION_POINTS = ((0.1, 1e9, -36.1),)

DEFAULT_F_OSC = 10.917e9


@dataclass(frozen=True)
class OscillatorModel:
    """Free-running oscillator with a substrate frequency-pushing sensitivity."""

    k_sub: float                                  # Hz per volt of substrate swing
    f_osc: float = DEFAULT_F_OSC                  # Hz

    def __post_init__(self):
        _require_positive_fields(self)


def substrate_transfer(f, geom: TsvGeometry, mat: MaterialParams,
                       substrate_load: float | None = None):
    """Substrate-port voltage per volt at port 1 at ``f`` Hz (or an (N,) array), closed form.

    Port 3 is terminated in ``TERMINATION``; the substrate port carries
    ``substrate_load`` to ground (None = open).  At low frequency the lateral
    silicon path conducts, so the open-load transfer approaches unity while a
    finite load divides it down; it never exceeds unity.  The branches come
    from :func:`~tsvkit.network.branch_impedances`, not from the 3x3 Z-matrix,
    whose Z11 = Z_seg + Z_lat + Z_stack cancels ~8 digits at low frequency.
    """
    if substrate_load is not None:
        _require("substrate_load", substrate_load, "positive, finite or None", lowest=5e-324)
    if isinstance(f, np.generic):
        f = float(f)   # a numpy scalar would carry the algebra in slower numpy scalars
    z_seg, z_lat, z_stack = branch_impedances(f, rlgc_at(f, geom, mat))
    z_down = z_stack if substrate_load is None else \
        z_stack * substrate_load / (z_stack + substrate_load)
    z_sub_path = z_lat + z_down
    y_paths = 1.0 / z_sub_path + 1.0 / (z_seg + TERMINATION)   # named, as in sparams.modal_s
    v2_over_vm = z_down / z_sub_path
    vm_over_v1 = 1.0 / (1.0 + z_seg * y_paths)
    return v2_over_vm * vm_over_v1


def substrate_transfer_mna(f, geom: TsvGeometry, mat: MaterialParams,
                           substrate_load: float | None = None):
    """Same transfer by nodal analysis (an (N,) ``f`` as one stack); verification route."""
    if substrate_load is not None:
        _require("substrate_load", substrate_load, "positive, finite or None", lowest=5e-324)
    freqs = frequency_stack(f)
    el = rlgc_at(freqs, geom, mat)
    p1, p2, p3 = PORT_INDEX
    loads = [(p3, None, 1.0 / TERMINATION)]
    if substrate_load is not None:
        loads.append((p2, None, 1.0 / substrate_load))
    rhs = np.eye(NODES)[:, [p1]]   # 1 A into port 1
    v = nodal_solve(freqs, nodal_branches(freqs, el, el.r_half) + loads, rhs)[..., 0]
    h = v[:, p2] / v[:, p1]
    return h if np.ndim(f) else complex(h[0])


def _require(name, value, rule, lowest=0.0, highest=sys.float_info.max, kinds="fiu"):
    """Raise a ValidationError unless ``value`` is finite and within [lowest, highest].

    ``value`` is a real number or array (complex if "c" is in ``kinds``: its
    magnitude is bounded); the error names the first value outside, as a plain number.
    """
    magnitude = abs if "c" in kinds else (lambda v: v)
    if isinstance(value, np.ndarray) and value.dtype.kind in kinds:
        m = magnitude(value)
        if not m.size or (lowest <= m.min() and m.max() <= highest):
            return
        value = value[~((m >= lowest) & (m <= highest))][0]
    elif is_finite_real(value) or ("c" in kinds and isinstance(value, complex)
                                   and cmath.isfinite(value)):
        if lowest <= magnitude(value) <= highest:
            return
    if isinstance(value, np.generic):
        value = value.item()
    raise ValidationError(f"{name} must be {rule}, got {value!r}")


def _bessel_series(x, n: int):
    """Series J_n, n = 0 or 1, for small arguments (converges fast for |x| <= 4), elementwise."""
    term = total = 0.5 * x if n else 1.0 + 0.0 * x
    q = 0.25 * x * x
    m = 0
    while np.max(abs(term), initial=0.0) > 1e-18:
        m += 1
        term = term * (-q / (m * (m + n)))
        total = total + term
    return total


def bessel_j0(x):
    """Series J0 for small arguments, elementwise."""
    return _bessel_series(x, 0)


def bessel_j1(x):
    """Series J1 for small arguments, elementwise."""
    return _bessel_series(x, 1)


def modulation_index(osc: OscillatorModel, amplitude, f_agg, h):
    """Modulation index of ``amplitude`` V peak-to-peak at ``f_agg`` Hz through transfer ``h``."""
    _require("amplitude", amplitude, "finite and >= 0")
    _require("f_agg", f_agg, "finite and positive", lowest=5e-324)
    _require("h", h, "a finite passive transfer (|h| <= 1)", highest=1.0 + 1e-9, kinds="fiuc")
    return osc.k_sub * (abs(h) * amplitude / 2.0) / f_agg


def _check_beta(beta, amplitude, f_agg) -> None:
    """One ModelValidityError or NarrowbandWarning naming the worst beta and its point."""
    worst = beta.max(initial=0.0) if isinstance(beta, np.ndarray) else beta   # beta >= 0
    if worst < BETA_WARN:
        return
    k = np.argmax(beta)
    a, f = (float(np.broadcast_to(v, np.shape(beta)).flat[k]) for v in (amplitude, f_agg))
    where = f"modulation index beta = {worst:.3f} at {a:.4g} Vpp, {f:.4g} Hz"
    if worst >= BETA_LIMIT:
        raise ModelValidityError(f"{where} is >= {BETA_LIMIT}: outside the sideband "
                                 "model's validity")
    warnings.warn(f"{where} is >= {BETA_WARN}: narrowband approximation degrading",
                  NarrowbandWarning, stacklevel=3)


def spur_dbc(osc: OscillatorModel, amplitude, f_agg, h, exact_bessel: bool = False):
    """First upper-sideband level in dBc, elementwise over arrays.  Zero amplitude gives -inf."""
    beta = modulation_index(osc, amplitude, f_agg, h)
    _check_beta(beta, amplitude, f_agg)
    with np.errstate(divide="ignore"):   # beta = 0 is -inf dBc
        return 20.0 * np.log10(bessel_j1(beta) / bessel_j0(beta) if exact_bessel else beta / 2.0)


@dataclass(frozen=True)
class CalibrationResult:
    k_sub: float
    residuals_db: tuple     # observed minus fitted, one per reference point

    @property
    def spread_db(self) -> float:
        return max(self.residuals_db) - min(self.residuals_db)


def calibrate_k_sub(points, geom: TsvGeometry, mat: MaterialParams,
                    substrate_load: float | None = REPLICA_SUBSTRATE_LOAD) -> CalibrationResult:
    """Least-squares fit of k_sub to reference (A_pp, f_agg, spur_dbc) points.

    In the log domain the model is spur = 20*log10(k_sub) + offset(A, f), so
    the fit is a mean over points.  Each point needs a finite positive
    amplitude and frequency and a finite level, and must imply a k_sub in
    floating-point range.  A residual spread above ``RESIDUAL_SPREAD_WARN``
    dB triggers :class:`CalibrationWarning`.
    """
    points = [tuple(point) for point in points]
    if not points:
        raise ValidationError("need at least one reference point")
    for point in points:
        if not (len(point) == 3 and all(map(is_finite_real, point))
                and point[0] > 0 and point[1] > 0):
            raise ValidationError(f"reference point {point!r} needs a finite positive "
                                  "amplitude and frequency and a finite level")
    amplitude, f_agg, level = np.array(points, dtype=float).T
    # one scalar transfer per point: a one-point calibration cannot repay the array path
    h = np.array([abs(substrate_transfer(f, geom, mat, substrate_load))
                  for f in f_agg.tolist()])
    with np.errstate(all="ignore"):   # out of range shows as a k_sub that is not finite
        offsets = 20.0 * np.log10(h * amplitude / (4.0 * f_agg))
        k_db = (level - offsets).sum() / len(points)
        k_sub = float(10.0 ** (k_db / 20.0))
    if not 0.0 < k_sub < math.inf:
        worst = np.argmax(np.nan_to_num(abs(level - offsets), nan=np.inf))
        raise ValidationError(f"reference point {points[worst]!r} implies a k_sub outside "
                              "the floating-point range")
    fitted = k_db + offsets
    residuals = (level - fitted).tolist()
    if max(residuals) - min(residuals) > RESIDUAL_SPREAD_WARN:
        warnings.warn(
            "inconsistent reference points, residuals [dB]: "
            + ", ".join(f"{r:+.2f}" for r in residuals), CalibrationWarning, stacklevel=2)
    _check_beta(2.0 * 10.0 ** (fitted / 20.0), amplitude, f_agg)
    return CalibrationResult(k_sub=k_sub, residuals_db=tuple(residuals))


def builtin_oscillator(geom: TsvGeometry, mat: MaterialParams,
                       substrate_load: float | None = REPLICA_SUBSTRATE_LOAD) -> OscillatorModel:
    """Oscillator model calibrated on the bundled reference point."""
    cal = calibrate_k_sub(BUILTIN_CALIBRATION_POINTS, geom, mat, substrate_load)
    return OscillatorModel(k_sub=cal.k_sub)


def _rows(swept, levels) -> list[tuple[float, float]]:
    return list(zip(swept.astype(float).tolist(), levels.tolist()))


def amplitude_sweep(osc: OscillatorModel, geom: TsvGeometry, mat: MaterialParams,
                    amplitudes, f_agg: float = 1e9,
                    substrate_load: float | None = REPLICA_SUBSTRATE_LOAD,
                    exact_bessel: bool = False) -> list[tuple[float, float]]:
    """(amplitude, spur dBc) rows at a fixed aggressor frequency, in one array pass."""
    amplitudes = np.asarray(amplitudes)
    h = substrate_transfer(f_agg, geom, mat, substrate_load)
    return _rows(amplitudes, spur_dbc(osc, amplitudes, f_agg, h, exact_bessel))


def frequency_sweep(osc: OscillatorModel, geom: TsvGeometry, mat: MaterialParams,
                    frequencies, amplitude_vpp: float = 0.3,
                    substrate_load: float | None = REPLICA_SUBSTRATE_LOAD,
                    exact_bessel: bool = False) -> list[tuple[float, float]]:
    """(frequency, spur dBc) rows at a fixed peak-to-peak amplitude, in one array pass."""
    frequencies = np.asarray(frequencies)
    h = substrate_transfer(frequencies, geom, mat, substrate_load)
    return _rows(frequencies, spur_dbc(osc, amplitude_vpp, frequencies, h, exact_bessel))


def slope_per_octave(sweep) -> float:
    """Least-squares slope of level against log2 of the swept variable, over finite levels."""
    x, y = np.asarray(sweep, dtype=float).reshape(-1, 2).T
    keep = np.isfinite(y)
    if keep.sum() < 2:
        raise ValidationError("need at least two finite sweep points for a slope")
    x = np.log2(x[keep])
    x -= x.mean()
    denom = (x * x).sum()
    if not denom:
        raise ValidationError("need two distinct swept values for a slope")
    return float((x * (y[keep] - y[keep].mean())).sum() / denom)
