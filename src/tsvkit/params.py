"""Geometry and material parameter sets for the signal-ground TSV pair.

All quantities are SI internally (meters, ohm-meters, kelvin, m^-3).  Unit
conversion belongs at I/O boundaries, never in formula code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

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


def _require_positive_fields(obj) -> None:
    """Every field must be a finite, strictly positive real number (not a bool)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not (is_finite_real(value) and value > 0):
            raise ValidationError(f"{f.name} must be finite and strictly positive, got {value!r}")


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
    if n_a <= 0 or mu_p <= 0:
        raise ValidationError("n_a and mu_p must be strictly positive")
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
    with open(path, "rb") as fh:
        data = fh.read()
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
