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

``k_sub`` is a calibration parameter, fitted from reference spur measurements
(`calibrate_k_sub`).  Amplitude-to-amplitude behavior is exactly 6.02 dB per
octave; frequency behavior combines the 1/f_agg FM roll-off with the
frequency dependence of the substrate transfer.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

from .errors import (CalibrationWarning, ModelValidityError, NarrowbandWarning,
                     ValidationError)
from .network import PORT_INDEX, branch_impedances, nodal_admittance
from .numerics import solve_extended
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


@dataclass(frozen=True)
class SpurScenario:
    """One aggressor configuration and its substrate transfer."""

    aggressor_amplitude: float    # V peak-to-peak
    aggressor_frequency: float    # Hz
    tsv_transfer: complex         # substrate-port voltage per volt at port 1

    def __post_init__(self):
        if not (is_finite_real(self.aggressor_amplitude) and self.aggressor_amplitude >= 0):
            raise ValidationError(
                f"aggressor_amplitude must be finite and >= 0, got {self.aggressor_amplitude!r}")
        if not (is_finite_real(self.aggressor_frequency) and self.aggressor_frequency > 0):
            raise ValidationError(
                f"aggressor_frequency must be finite and positive, "
                f"got {self.aggressor_frequency!r}")
        h = self.tsv_transfer
        if not (is_finite_real(h) or (isinstance(h, complex) and cmath.isfinite(h))):
            raise ValidationError(f"tsv_transfer must be a finite number, got {h!r}")
        if abs(h) > 1.0 + 1e-9:
            raise ValidationError(f"|tsv_transfer| = {abs(h)} exceeds 1: not a passive transfer")


def substrate_transfer(f: float, geom: TsvGeometry, mat: MaterialParams,
                       termination: float = 50.0,
                       substrate_load: float | None = None) -> complex:
    """Voltage at the substrate port per volt at port 1, closed form.

    Port 3 is terminated in ``termination``; the substrate port carries
    ``substrate_load`` to ground (None = open).  At low frequency the lateral
    silicon path conducts, so the open-load transfer approaches unity while a
    finite load divides it down; it never exceeds unity.  The branches come
    from :func:`~tsvkit.network.branch_impedances`, not from the 3x3 Z-matrix,
    whose Z11 = Z_seg + Z_lat + Z_stack cancels ~8 digits at low frequency.
    """
    if not (termination > 0 and math.isfinite(termination)):
        raise ValidationError(f"termination must be finite and positive, got {termination!r}")
    if substrate_load is not None and not (substrate_load > 0 and math.isfinite(substrate_load)):
        raise ValidationError(
            f"substrate_load must be positive, finite or None, got {substrate_load!r}")
    el = rlgc_at(f, geom, mat)
    # float(): a numpy scalar frequency would carry the algebra in slower numpy scalars
    z_seg, z_lat, z_stack = branch_impedances(float(f), el)
    z_down = z_stack if substrate_load is None else \
        z_stack * substrate_load / (z_stack + substrate_load)
    y_sub_path = 1.0 / (z_lat + z_down)
    y_thru_path = 1.0 / (z_seg + termination)
    v2_over_vm = z_down / (z_lat + z_down)
    vm_over_v1 = 1.0 / (1.0 + z_seg * (y_sub_path + y_thru_path))
    return v2_over_vm * vm_over_v1


def substrate_transfer_mna(f: float, geom: TsvGeometry, mat: MaterialParams,
                           termination: float = 50.0,
                           substrate_load: float | None = None) -> complex:
    """Same transfer by loaded nodal analysis; verification route."""
    el = rlgc_at(f, geom, mat)
    y = nodal_admittance(f, el, el.r_half)
    p1, p2, p3 = PORT_INDEX
    y[p3, p3] += 1.0 / termination
    if substrate_load is not None:
        y[p2, p2] += 1.0 / substrate_load
    rhs = [0.0] * y.shape[0]
    rhs[p1] = 1.0
    v = solve_extended(y, rhs)
    return complex(v[p2] / v[p1])


def scenario_for(f_agg: float, amplitude_vpp: float, geom: TsvGeometry,
                 mat: MaterialParams, termination: float = 50.0,
                 substrate_load: float | None = REPLICA_SUBSTRATE_LOAD) -> SpurScenario:
    """Build a :class:`SpurScenario` with the transfer evaluated at f_agg."""
    return SpurScenario(
        aggressor_amplitude=amplitude_vpp,
        aggressor_frequency=f_agg,
        tsv_transfer=substrate_transfer(f_agg, geom, mat, termination, substrate_load),
    )


def bessel_j0(x: float) -> float:
    """Series J0 for small arguments (converges fast for |x| <= 4)."""
    term = 1.0
    total = 1.0
    q = 0.25 * x * x
    m = 0
    while abs(term) > 1e-18:
        m += 1
        term *= -q / (m * m)
        total += term
    return total


def bessel_j1(x: float) -> float:
    """Series J1 for small arguments (converges fast for |x| <= 4)."""
    term = 0.5 * x
    total = term
    q = 0.25 * x * x
    m = 0
    while abs(term) > 1e-18:
        m += 1
        term *= -q / (m * (m + 1))
        total += term
    return total


def modulation_index(osc: OscillatorModel, scen: SpurScenario) -> float:
    v_peak = abs(scen.tsv_transfer) * scen.aggressor_amplitude / 2.0
    return osc.k_sub * v_peak / scen.aggressor_frequency


def spur_dbc(osc: OscillatorModel, scen: SpurScenario, exact_bessel: bool = False) -> float:
    """First upper-sideband level in dBc.  Zero aggressor returns -inf."""
    beta = modulation_index(osc, scen)
    if beta >= BETA_LIMIT:
        raise ModelValidityError(
            f"modulation index beta = {beta:.3f} >= {BETA_LIMIT}: outside the "
            "sideband model's validity")
    if beta >= BETA_WARN:
        warnings.warn(
            f"modulation index beta = {beta:.3f} >= {BETA_WARN}: narrowband "
            "approximation degrading", NarrowbandWarning, stacklevel=2)
    if beta == 0.0:
        return float("-inf")
    if exact_bessel:
        return 20.0 * math.log10(bessel_j1(beta) / bessel_j0(beta))
    return 20.0 * math.log10(beta / 2.0)


@dataclass(frozen=True)
class CalibrationResult:
    k_sub: float
    residuals_db: tuple     # observed minus fitted, one per reference point

    @property
    def spread_db(self) -> float:
        return max(self.residuals_db) - min(self.residuals_db)


def calibrate_k_sub(points, geom: TsvGeometry, mat: MaterialParams,
                    termination: float = 50.0,
                    substrate_load: float | None = REPLICA_SUBSTRATE_LOAD) -> CalibrationResult:
    """Least-squares fit of k_sub to reference (A_pp, f_agg, spur_dbc) points.

    In the log domain the model is spur = 20*log10(k_sub) + offset(A, f), so
    the fit is a mean over points.  A residual spread above
    ``RESIDUAL_SPREAD_WARN`` dB triggers :class:`CalibrationWarning`.
    """
    points = list(points)
    if not points:
        raise ValidationError("need at least one reference point")
    offsets = []
    for amplitude, f_agg, level in points:
        if amplitude <= 0:
            raise ValidationError(f"reference amplitude must be positive, got {amplitude!r}")
        h = abs(substrate_transfer(f_agg, geom, mat, termination, substrate_load))
        offsets.append(20.0 * math.log10(h * amplitude / (4.0 * f_agg)))
    k_db = sum(level - off for (_, _, level), off in zip(points, offsets)) / len(points)
    k_sub = 10.0 ** (k_db / 20.0)
    residuals = tuple(level - (k_db + off) for (_, _, level), off in zip(points, offsets))
    spread = max(residuals) - min(residuals)
    if spread > RESIDUAL_SPREAD_WARN:
        warnings.warn(
            "inconsistent reference points, residuals [dB]: "
            + ", ".join(f"{r:+.2f}" for r in residuals), CalibrationWarning, stacklevel=2)
    for (amplitude, f_agg, _), off in zip(points, offsets):
        beta = 2.0 * 10.0 ** ((k_db + off) / 20.0)
        if beta >= BETA_LIMIT:
            raise ModelValidityError(
                f"reference point at {f_agg:.4g} Hz implies beta = {beta:.3f} "
                f">= {BETA_LIMIT}")
        if beta >= BETA_WARN:
            warnings.warn(
                f"reference point at {f_agg:.4g} Hz implies beta = {beta:.3f} "
                f">= {BETA_WARN}", NarrowbandWarning, stacklevel=2)
    return CalibrationResult(k_sub=k_sub, residuals_db=residuals)


def builtin_oscillator(geom: TsvGeometry, mat: MaterialParams,
                       termination: float = 50.0,
                       substrate_load: float | None = REPLICA_SUBSTRATE_LOAD) -> OscillatorModel:
    """Oscillator model calibrated on the bundled reference point."""
    cal = calibrate_k_sub(BUILTIN_CALIBRATION_POINTS, geom, mat, termination, substrate_load)
    return OscillatorModel(k_sub=cal.k_sub)


def amplitude_sweep(osc: OscillatorModel, geom: TsvGeometry, mat: MaterialParams,
                    amplitudes, f_agg: float = 1e9,
                    termination: float = 50.0,
                    substrate_load: float | None = REPLICA_SUBSTRATE_LOAD,
                    exact_bessel: bool = False) -> list[tuple[float, float]]:
    """Spur level vs aggressor amplitude at a fixed aggressor frequency."""
    h = substrate_transfer(f_agg, geom, mat, termination, substrate_load)
    out = []
    for amplitude in amplitudes:
        scen = SpurScenario(aggressor_amplitude=amplitude, aggressor_frequency=f_agg,
                            tsv_transfer=h)
        out.append((float(amplitude), spur_dbc(osc, scen, exact_bessel)))
    return out


def frequency_sweep(osc: OscillatorModel, geom: TsvGeometry, mat: MaterialParams,
                    frequencies, amplitude_vpp: float = 0.3,
                    termination: float = 50.0,
                    substrate_load: float | None = REPLICA_SUBSTRATE_LOAD,
                    exact_bessel: bool = False) -> list[tuple[float, float]]:
    """Spur level vs aggressor frequency at a fixed peak-to-peak amplitude."""
    out = []
    for f_agg in frequencies:
        scen = scenario_for(f_agg, amplitude_vpp, geom, mat, termination, substrate_load)
        out.append((float(f_agg), spur_dbc(osc, scen, exact_bessel)))
    return out


def slope_per_octave(sweep: list[tuple[float, float]]) -> float:
    """Least-squares slope of level against log2 of the swept variable."""
    finite = [(x, y) for x, y in sweep if math.isfinite(y)]
    if len(finite) < 2:
        raise ValidationError("need at least two finite sweep points for a slope")
    xs = [math.log2(x) for x, _ in finite]
    ys = [y for _, y in finite]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    denom = sum((x - mean_x) ** 2 for x in xs)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / denom
