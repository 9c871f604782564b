"""Closed-form RLGC element values for a signal-ground TSV pair.

Every function is a pure evaluation of the standard radial-MOS / parallel-wire
expressions from TSV compact modeling.  A handful of the expressions are
singular in limits the formulas were never meant for (vanishing liner,
vanishing depletion width, touching vias); those get explicit positive floors
instead of silently returning inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import EPS_0, MU_0, Q_E
from .errors import GeometryOverlapError, ValidationError
from .params import MaterialParams, TsvGeometry

# Floors guarding the log/acosh singularities, SI units / dimensionless.
LINER_FLOOR = 1e-12          # m
DEPLETION_FLOOR = 1e-12      # m
PITCH_RATIO_FLOOR = 1e-12    # on p/(2r) - 1


@dataclass(frozen=True)
class RlgcElements:
    """Lumped element values of the three-port network.

    Only the resistance depends on frequency: ``r_half`` is a float at one
    frequency and an (N,) array over a vector of them; the other five
    values are constants.
    """

    r_half: float     # ohm, one vertical half-segment (r_total / 2)
    l_half: float     # H, one half-segment (l_tsv / 2)
    c_ox: float       # F, liner capacitance
    c_d: float        # F, depletion capacitance
    c_si: float       # F, lateral substrate capacitance
    g_si: float       # S, lateral substrate conductance

    def __post_init__(self):
        # Plain float comparisons for scalars: they cost a fraction of numpy's.
        for name, value in vars(self).items():
            if name == "r_half" and isinstance(value, np.ndarray):
                if not (value.ndim == 1 and (value > 0).all() and np.isfinite(value).all()):
                    raise ValidationError("r_half must be a 1-D array of finite positive values")
            elif not (value > 0 and math.isfinite(value)):
                raise ValidationError(f"{name} must be finite and positive, got {value!r}")


def _sqrt(x):
    # Both square roots are correctly rounded, so a point of an array sweep
    # equals the same point evaluated alone; math.sqrt keeps scalars cheap.
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def r_dc(geom: TsvGeometry, mat: MaterialParams) -> float:
    """DC resistance of the copper cylinder: rho*h / (pi*r^2), in ohms."""
    return mat.rho_cu * geom.height / (math.pi * geom.radius**2)


def skin_depth(f, mat: MaterialParams):
    """RF penetration depth sqrt(rho / (pi*f*mu_r*mu_0)), in meters.

    ``f`` is a frequency in Hz or an array of them.
    """
    if isinstance(f, np.ndarray):
        bad = ~((f > 0) & np.isfinite(f))
        if bad.any():
            f = f[bad][0].item()   # named as a plain number, not its numpy repr
            raise ValidationError(f"frequency must be finite and positive, got {f!r}")
    elif not (f > 0 and math.isfinite(f)):
        raise ValidationError(f"frequency must be finite and positive, got {f!r}")
    return _sqrt(mat.rho_cu / (math.pi * f * mat.mu_r * MU_0))


def r_ac(f, geom: TsvGeometry, mat: MaterialParams):
    """Skin-effect resistance of the surface annulus: rho*h / (2*pi*r*delta), in ohms."""
    return mat.rho_cu * geom.height / (2.0 * math.pi * geom.radius * skin_depth(f, mat))


def r_total(f, geom: TsvGeometry, mat: MaterialParams):
    """Quadrature blend sqrt(R_dc^2 + R_ac^2), continuous from DC to RF.

    ``f`` is a frequency in Hz or an array of them.
    """
    rdc = r_dc(geom, mat)
    rac = r_ac(f, geom, mat)
    return _sqrt(rdc * rdc + rac * rac)


def c_ox(geom: TsvGeometry, mat: MaterialParams, *, liner_floor: float = LINER_FLOOR) -> float:
    """Radial liner capacitance 2*pi*eps_ox*eps_0*h / ln((r+t)/r), in farads."""
    if geom.liner_thickness < liner_floor:
        raise ValidationError(
            f"liner_thickness {geom.liner_thickness} below floor {liner_floor}: "
            "the radial capacitance diverges"
        )
    return (2.0 * math.pi * mat.eps_ox * EPS_0 * geom.height
            / math.log((geom.radius + geom.liner_thickness) / geom.radius))


def depletion_width(mat: MaterialParams) -> float:
    """Depletion shell width sqrt(4*eps_si*eps_0*V_T*ln(N_A/n_i) / (q*N_A)), in meters.

    Treated as bias-independent: the swing-driven modulation is negligible at
    RF and the width is frozen at its zero-bias value.
    """
    if mat.n_a <= mat.n_i:
        raise ValidationError("n_a must exceed n_i for a defined depletion width")
    v_t = mat.thermal_voltage
    return math.sqrt(4.0 * mat.eps_si * EPS_0 * v_t * math.log(mat.n_a / mat.n_i)
                     / (Q_E * mat.n_a))


def c_d(geom: TsvGeometry, mat: MaterialParams, w_d: float, *,
        depletion_floor: float = DEPLETION_FLOOR) -> float:
    """Radial depletion capacitance 2*pi*eps_si*eps_0*h / ln((r+t+W)/(r+t)), in farads."""
    if not (w_d > 0 and math.isfinite(w_d)):
        raise ValidationError(f"depletion width must be finite and positive, got {w_d!r}")
    if w_d < depletion_floor:
        raise ValidationError(
            f"depletion width {w_d} below floor {depletion_floor}: "
            "the radial capacitance diverges"
        )
    inner = geom.radius + geom.liner_thickness
    return (2.0 * math.pi * mat.eps_si * EPS_0 * geom.height
            / math.log((inner + w_d) / inner))


def c_si_g_si(geom: TsvGeometry, mat: MaterialParams, *,
              pitch_ratio_floor: float = PITCH_RATIO_FLOOR) -> tuple[float, float]:
    """Lateral parallel-wire substrate coupling (C_si, G_si).

    Shares one geometric factor pi*h / acosh(p/(2r)), so G_si/C_si equals
    sigma_si/(eps_si*eps_0) identically.
    """
    ratio = geom.pitch / (2.0 * geom.radius)
    if ratio - 1.0 <= pitch_ratio_floor:
        raise GeometryOverlapError(
            f"pitch/(2*radius) = {ratio} too close to 1: the parallel-wire "
            "formula diverges as the vias touch"
        )
    factor = math.pi * geom.height / math.acosh(ratio)
    return mat.eps_si * EPS_0 * factor, mat.sigma_si * factor


def l_tsv(geom: TsvGeometry, mat: MaterialParams) -> float:
    """Partial self-inductance of the cylinder (Grover-type closed form), in henries."""
    hr = geom.height / geom.radius
    rh = geom.radius / geom.height
    bracket = math.log(hr + math.sqrt(1.0 + hr * hr)) + rh - math.sqrt(1.0 + rh * rh)
    return MU_0 * mat.mu_r * geom.height / (2.0 * math.pi) * bracket


def rlgc_at(f, geom: TsvGeometry, mat: MaterialParams) -> RlgcElements:
    """All element values at ``f`` Hz (one frequency or an (N,) array), bundled."""
    cap_si, cond_si = c_si_g_si(geom, mat)
    return RlgcElements(r_half=r_total(f, geom, mat) / 2.0, l_half=l_tsv(geom, mat) / 2.0,
                        c_ox=c_ox(geom, mat), c_d=c_d(geom, mat, depletion_width(mat)),
                        c_si=cap_si, g_si=cond_si)
