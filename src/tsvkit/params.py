"""Geometry and material parameter sets for the signal-ground TSV pair.

All quantities are SI internally (meters, ohm-meters, kelvin, m^-3).  Unit
conversion belongs at I/O boundaries, never in formula code.
"""

from __future__ import annotations

import cmath
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .constants import K_B, Q_E
from .errors import ConfigError, ValidationError
from .numerics import non_ascii_line


def is_finite_real(value) -> bool:
    """Whether ``value`` is a finite int or float (numpy's float64 is one), not a bool.

    An int too large for a float is not finite.
    """
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def require(name, value, rule, lowest=0.0, highest=sys.float_info.max, kinds="fiu") -> None:
    """Raise a ValidationError unless ``value`` is finite and within [lowest, highest].

    ``value`` is a real number or an array whose dtype kind is in ``kinds``
    (complex if "c" is: its magnitude is bounded); the error names the first
    value outside, as a plain number, and ``rule``, ``{lowest}``/``{highest}`` filled in.
    A numpy scalar other than float64 (and complex128) is refused, its type named:
    arithmetic with a float32 would stay in float32.
    """
    if type(value) is float and lowest <= value <= highest:
        return   # the common case, without numpy's per-call cost
    magnitude = abs if "c" in kinds else (lambda v: v)
    if isinstance(value, np.ndarray) and value.dtype.kind in kinds:
        m = magnitude(value).astype(float, copy=False)   # a float32 cannot hold the bounds
        if not m.size or (lowest <= m.min() and m.max() <= highest):
            return
        value = value[~((m >= lowest) & (m <= highest))][0].item()
    elif is_finite_real(value) or ("c" in kinds and isinstance(value, complex)
                                   and cmath.isfinite(value)):
        if lowest <= magnitude(value) <= highest:
            return
    rule = rule.format(lowest=lowest, highest=highest)   # only here: a float costs to format
    if isinstance(value, np.generic):
        if not isinstance(value, (float, complex)):   # float64 and complex128 are Python's
            raise ValidationError(f"{name} must be {rule}, as a Python number or a numpy "
                                  f"float64, got a numpy {type(value).__name__} "
                                  f"({value.item()!r})")
        value = value.item()
    raise ValidationError(f"{name} must be {rule}, got {value!r}")


def require_frequency(f) -> None:
    """Raise a ValidationError unless ``f`` is a finite positive real or a nonempty (N,) array."""
    if isinstance(f, np.generic):   # a real one is checked as an array is, a str or bool as itself
        f = np.asarray(f) if f.dtype.kind in "fiu" else f.item()
    if isinstance(f, np.ndarray) and (f.ndim > 1 or not f.size):
        raise ValidationError(f"need one frequency or a nonempty vector, got shape {f.shape}")
    require("frequency", f, "finite and positive", lowest=5e-324)


def require_type(caller, value, kind, what) -> None:
    """Raise a ValidationError naming ``caller`` unless ``value`` is a ``kind``, called ``what``."""
    if not isinstance(value, kind):
        raise ValidationError(f"{caller} needs {what}, got {type(value).__name__}")


def require_sweep(frequency, matrices=None, name: str = ""):
    """The sweep rule: ``frequency`` as (N,) floats, ``matrices``, named ``name``, as (N, 3, 3).

    The frequencies must be finite, non-negative (a DC point is allowed) and
    strictly increasing, and the matrices, if given, all finite.  Returns the
    two arrays (the second None for a bare frequency axis).  A refusal is a
    :class:`ValidationError` naming the first bad record by number and frequency.
    """
    f = np.asarray(frequency, dtype=float)
    if f.ndim != 1 or not f.size:
        raise ValidationError("a sweep needs a nonempty 1-D frequency vector")
    lone = len(f) == 1   # the common case, checked in Python without numpy's per-call cost
    if not (0.0 <= float(f[0]) < math.inf if lone else
            np.isfinite(f).all() and f[0] >= 0.0 and (f[1:] > f[:-1]).all()):
        with np.errstate(invalid="ignore"):   # a NaN compares False: it is refused
            bad = ~((f >= 0.0) & (f < math.inf))
            bad[1:] |= ~(f[1:] > f[:-1])
        k = np.flatnonzero(bad)[0]
        raise ValidationError(f"frequencies must be finite, non-negative and strictly "
                              f"increasing: record {k + 1} is at {f[k]:.6g} Hz")
    if matrices is None:
        return f, None
    m = np.asarray(matrices, dtype=complex)
    if m.shape != f.shape + (3, 3):
        raise ValidationError(f"{name} must have shape {f.shape + (3, 3)}, got {m.shape}")
    if not (all(map(cmath.isfinite, m.flat)) if lone else np.isfinite(m).all()):
        k = np.flatnonzero(~np.isfinite(m).all(axis=(1, 2)))[0]
        raise ValidationError(f"{name} must be finite: record {k + 1} at {f[k]:.6g} Hz "
                              "holds a non-finite entry")
    return f, m


def _require_positive_fields(obj) -> None:
    """Every field must be a finite, strictly positive real number (not a bool)."""
    for name, value in vars(obj).items():
        require(name, value, "finite and strictly positive", lowest=5e-324, kinds="")


@dataclass(frozen=True)
class TsvGeometry:
    """Physical dimensions of the via pair."""

    height: float            # m
    radius: float            # m
    pitch: float             # m, center to center
    liner_thickness: float   # m, dielectric liner

    def __post_init__(self):
        _require_positive_fields(self)
        if self.liner_thickness >= self.radius:
            raise ValidationError(
                f"liner_thickness {self.liner_thickness} must be below radius "
                f"{self.radius} (thin-liner radial capacitor model)"
            )
        if self.pitch <= 2.0 * (self.radius + self.liner_thickness):
            raise ValidationError(
                f"pitch {self.pitch} must exceed 2*(radius + liner_thickness) "
                f"= {2.0 * (self.radius + self.liner_thickness)}: the vias overlap"
            )


@dataclass(frozen=True)
class MaterialParams:
    """Conductor, liner and substrate properties plus temperature."""

    rho_cu: float       # conductor resistivity, ohm*m
    mu_r: float         # conductor relative permeability
    eps_ox: float       # liner relative permittivity
    eps_si: float       # silicon relative permittivity
    n_a: float          # acceptor doping, m^-3
    n_i: float          # intrinsic carrier density, m^-3
    sigma_si: float     # substrate conductivity, S/m
    temperature: float  # K

    def __post_init__(self):
        _require_positive_fields(self)
        if self.n_a <= self.n_i:
            raise ValidationError(
                f"n_a ({self.n_a}) must exceed n_i ({self.n_i}); otherwise the "
                "depletion width is undefined"
            )

    @property
    def thermal_voltage(self) -> float:
        """kT/q in volts."""
        return K_B * self.temperature / Q_E


def sigma_from_mobility(n_a: float, mu_p: float = 0.045) -> float:
    """Substrate conductivity q*N_A*mu_p from hole mobility (default 450 cm^2/V/s).

    Consistency-check alternative to quoting a bulk resistivity directly.
    """
    require("n_a", n_a, "finite and strictly positive", lowest=5e-324, kinds="")
    require("mu_p", mu_p, "finite and strictly positive", lowest=5e-324, kinds="")
    return Q_E * n_a * mu_p


# Default parameter set: typical 3D-IC process values for a 50 um copper via
# pair with a 0.5 um oxide liner in 0.12 ohm*m p-type silicon.
DEFAULT_GEOMETRY = TsvGeometry(
    height=50e-6,
    radius=2.5e-6,
    pitch=40e-6,
    liner_thickness=0.5e-6,
)

DEFAULT_MATERIALS = MaterialParams(
    rho_cu=1.68e-8,
    mu_r=1.0,
    eps_ox=3.9,
    eps_si=11.9,
    n_a=1.2e21,          # 1.2e15 cm^-3
    n_i=1.45e16,         # 1.45e10 cm^-3 at 300 K
    sigma_si=1.0 / 0.12,
    temperature=300.0,
)

GEOMETRY_KEYS = ("height", "radius", "pitch", "liner_thickness")
MATERIAL_KEYS = ("rho_cu", "mu_r", "eps_ox", "eps_si", "n_a", "n_i", "sigma_si", "temperature")


# Keys whose value may be a word, and the words each takes
WORD_KEYS = {"spacing": ("linear", "logarithmic"), "substrate_load": ("open",)}


def parse_config_text(text: str, known_keys=None) -> dict:
    """Parse ``name = value`` lines into a dict.

    Blank lines and ``#`` comments are ignored.  Values are floats, except
    that a key in WORD_KEYS may hold one of its words; any other value
    raises :class:`ConfigError` naming the line and the key, as do unknown
    keys when ``known_keys`` is given.
    """
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'name = value', got {raw!r}")
        name, _, value = line.partition("=")
        name = name.strip()
        value = value.strip()
        if not name or not value:
            raise ConfigError(f"line {lineno}: expected 'name = value', got {raw!r}")
        if known_keys is not None and name not in known_keys:
            raise ConfigError(f"line {lineno}: unknown key {name!r}")
        if name in out:
            raise ConfigError(f"line {lineno}: duplicate key {name!r}")
        try:
            out[name] = float(value)
        except ValueError:
            words = WORD_KEYS.get(name, ())
            if value not in words:
                raise ConfigError(f"line {lineno}: {name} = {value!r} is not "
                                  + " or ".join(["a number", *map(repr, words)])) from None
            out[name] = value
    return out


def load_config(path, known_keys=None) -> dict:
    """Parse a config file, which must be ASCII (see :func:`parse_config_text`)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read {os.fspath(path)!r}: {err.strerror}") from None
    line = non_ascii_line(data)
    if line is not None:
        raise ConfigError(f"line {line}: non-ASCII character (config files are ASCII)")
    return parse_config_text(data.decode("ascii"), known_keys=known_keys)


def geometry_from_mapping(values: dict, base: TsvGeometry = DEFAULT_GEOMETRY) -> TsvGeometry:
    overrides = {k: float(values[k]) for k in GEOMETRY_KEYS if k in values}
    return replace(base, **overrides) if overrides else base


def materials_from_mapping(values: dict, base: MaterialParams = DEFAULT_MATERIALS) -> MaterialParams:
    overrides = {k: float(values[k]) for k in MATERIAL_KEYS if k in values}
    return replace(base, **overrides) if overrides else base
