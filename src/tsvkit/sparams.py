"""Scattering parameters of the three-port from its impedance matrix.

Single points convert with the equal-real-reference form S = (Z - Z0 I)(Z + Z0 I)^-1
and its algebraic inverse Z = Z0 (I + S)(I - S)^-1, computed with
partial-pivoting linear solves in extended precision (never an explicit
inverse); `s_to_z` also inverts a whole sweep, as stacks of such solves.
Sweeps convert in closed form from the branch impedances by even/odd-mode
analysis (`modal_s`); the solve route is the exact reference it is
checked against.  Magnitudes are reported as 20*log10|s|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConversionError, NetworkDegeneracyError, ValidationError
from .network import ThreePortZ, ZSweep
from .numerics import condition_number, csv_text, pieces, solve_extended
from .params import is_finite_real

COND_LIMIT = 1e12


def _check_z0(z0) -> None:
    if not (is_finite_real(z0) and z0 > 0):
        raise ValidationError(f"z0 must be one finite positive number, got {z0!r}")


@dataclass(frozen=True)
class ThreePortS:
    """Scattering matrix at one frequency, referenced to a real z0 on all ports."""

    frequency: float
    s: np.ndarray
    z0: float = 50.0

    def __post_init__(self):
        s = np.asarray(self.s, dtype=complex)
        if s.shape != (3, 3):
            raise ValidationError(f"s must be 3x3, got shape {s.shape}")
        _check_z0(self.z0)
        object.__setattr__(self, "s", s)


def _guarded_solve(a: np.ndarray, b: np.ndarray, frequency, name: str,
                   note: str = "") -> np.ndarray:
    """b @ inv(a) by an extended-precision solve, refused above COND_LIMIT.

    ``a`` and ``b`` are 3x3 at one ``frequency`` or (N, 3, 3) stacks over an
    (N,) ``frequency`` vector.  ``name`` spells the matrix ``a`` in the
    :class:`ConversionError` messages, which name the first frequency that
    fails.
    """
    cond = condition_number(a)
    if not (np.asarray(cond) <= COND_LIMIT).all():   # NaN fails too
        cond, freqs = np.atleast_1d(cond, frequency)
        k = np.flatnonzero(~(cond <= COND_LIMIT))[0]
        raise ConversionError(
            f"{name} is singular or ill-conditioned at {freqs[k]:.6g} Hz "
            f"(condition number {cond[k]:.3e}){note}", condition_number=float(cond[k]))
    try:
        # x = b a^-1  via  x^T = solve(a^T, b^T)
        return solve_extended(a.swapaxes(-1, -2), b.swapaxes(-1, -2)).swapaxes(-1, -2)
    except NetworkDegeneracyError as err:
        cond, freqs = np.atleast_1d(cond, frequency)
        raise ConversionError(f"{name} singular at {freqs[err.index]:.6g} Hz",
                              condition_number=float(cond[err.index])) from err


def z_to_s(zp: ThreePortZ, z0: float = 50.0) -> ThreePortS:
    """Convert one impedance matrix to scattering parameters: S = (Z - z0 I)(Z + z0 I)^-1."""
    _check_z0(z0)
    eye = np.eye(3)
    s = _guarded_solve(zp.z + z0 * eye, zp.z - z0 * eye, zp.frequency, "(Z + z0 I)")
    return ThreePortS(frequency=zp.frequency, s=s, z0=z0)


def _z_from_s(s: np.ndarray, z0: float, frequency) -> np.ndarray:
    eye = np.eye(3)
    return _guarded_solve(eye - s, z0 * (eye + s), frequency, "(I - S)",
                          "; S has a near-unit eigenvalue")


def s_to_z(sp):
    """Invert the scattering conversion: Z = z0 (I + S)(I - S)^-1.

    A :class:`ThreePortZ` for a :class:`ThreePortS`; an (N, 3, 3) array for
    an :class:`SSweep`, solved as stacks of PIECE_ROWS frequencies.
    """
    if isinstance(sp, SSweep):
        z = np.empty_like(sp.s)
        for piece in pieces(len(sp)):
            z[piece] = _z_from_s(sp.s[piece], sp.z0, sp.frequency[piece])
        return z
    return ThreePortZ(frequency=sp.frequency, z=_z_from_s(sp.s, sp.z0, sp.frequency))


@dataclass(frozen=True, eq=False)
class SSweep:
    """Scattering matrices over a frequency vector, referenced to one real z0.

    ``s`` has shape (N, 3, 3).  Indexing and iteration give one
    :class:`ThreePortS` per point.
    """

    frequency: np.ndarray
    s: np.ndarray
    z0: float = 50.0

    def __post_init__(self):
        f = np.asarray(self.frequency, dtype=float)
        s = np.asarray(self.s, dtype=complex)
        if f.ndim != 1 or not f.size:
            raise ValidationError("a sweep needs a nonempty 1-D frequency vector")
        if s.shape != f.shape + (3, 3):
            raise ValidationError(f"s must have shape {f.shape + (3, 3)}, got {s.shape}")
        _check_z0(self.z0)
        object.__setattr__(self, "frequency", f)
        object.__setattr__(self, "s", s)

    def __len__(self) -> int:
        return len(self.frequency)

    def __getitem__(self, k) -> ThreePortS:
        return ThreePortS(frequency=float(self.frequency[k]), s=self.s[k], z0=self.z0)


def modal_s(frequency, z_seg, z_lat, z_stack, z0: float = 50.0) -> np.ndarray:
    """S-matrices (N, 3, 3) from the branch impedances by even/odd-mode analysis.

    Swapping ports 1 and 3 leaves Z unchanged, so S splits exactly into an
    odd mode, S_odd = (Z_seg - z0)/(Z_seg + z0), and a 2x2 even block solved
    by Cramer's rule (Pozar, *Microwave Engineering*).  With
    e = Z_seg + 2 Z_lat and c = Z_stack the even-block determinant is
    D = (e + z0)(c + z0) + 2 z0 c, in which c^2 cancels, and mapping the
    modes back to the ports gives

        S11 = S33 = [(c + z0)(Z_seg e - z0^2) + 2 z0 Z_seg c] / [D (Z_seg + z0)]
        S13 = S31 = 2 z0 [Z_lat (c + z0) + z0 c] / [D (Z_seg + z0)]
        S12 = S21 = S23 = S32 = 2 z0 c / D
        S22       = [(e + z0)(c - z0) - 2 z0 c] / D

    All arguments but ``z0`` are arrays over the frequency axis.  Raises
    :class:`ConversionError` naming the first frequency where D or
    Z_seg + z0 is zero or non-finite, or S overflows.
    """
    a, b, c = z_seg, z_lat, z_stack
    with np.errstate(all="ignore"):
        e = a + 2.0 * b
        d_odd = a + z0
        d_even = (e + z0) * (c + z0) + 2.0 * z0 * c
        d_both = d_even * d_odd
        s11 = ((c + z0) * (a * e - z0 * z0) + 2.0 * z0 * a * c) / d_both
        s13 = 2.0 * z0 * (b * (c + z0) + z0 * c) / d_both
        s12 = 2.0 * z0 * c / d_even
        s22 = ((e + z0) * (c - z0) - 2.0 * z0 * c) / d_even
    s = np.stack([s11, s12, s13,
                  s12, s22, s12,
                  s13, s12, s11], axis=-1).reshape(np.shape(a) + (3, 3))
    ok = (np.isfinite(d_odd) & np.isfinite(d_even) & (d_odd != 0) & (d_even != 0)
          & np.isfinite(s).all(axis=(-2, -1)))
    if not ok.all():
        k = np.flatnonzero(~ok)[0]
        raise ConversionError(
            f"modal S is degenerate at {frequency[k]:.6g} Hz: Z_seg + z0 or the "
            "even-mode determinant is zero or non-finite")
    return s


def s_sweep(zs: ZSweep, z0: float = 50.0) -> SSweep:
    """S over a closed-form impedance sweep, by :func:`modal_s`."""
    if not isinstance(zs, ZSweep):
        raise ValidationError(f"s_sweep needs a ZSweep from z_sweep, got {type(zs).__name__}")
    return SSweep(zs.frequency, modal_s(zs.frequency, zs.z_seg, zs.z_lat, zs.z_stack, z0), z0)


def magnitude_db(value: complex) -> float:
    """20*log10 of the magnitude; -inf for an exact zero."""
    mag = abs(value)
    return 20.0 * math.log10(mag) if mag > 0.0 else float("-inf")


def max_singular_value(sp):
    """Largest singular value of S: a float for a point, an (N,) array for a sweep.

    The square root of the largest eigenvalue of the Hermitian S^H S, which
    ``eigvalsh`` finds for less than an SVD costs.  Each matrix is first
    scaled by a power of two, which is exact, to a largest entry in
    [1/2, 1), so S^H S neither overflows nor underflows; a matrix with a
    non-finite entry gives NaN.
    """
    s = sp.s
    big = np.abs(s).max(axis=(-2, -1))
    finite = np.isfinite(big)
    e = np.frexp(np.where(finite, big, 0.0))[1]
    scale = np.expand_dims(-e, (-2, -1))
    t = np.empty_like(s)
    t.real = np.ldexp(np.where(finite[..., None, None], s.real, 0.0), scale)
    t.imag = np.ldexp(np.where(finite[..., None, None], s.imag, 0.0), scale)
    top = np.linalg.eigvalsh(t.conj().swapaxes(-1, -2) @ t)[..., -1]
    sigma = np.where(finite, np.ldexp(np.sqrt(top), e), np.nan)
    return float(sigma) if sigma.ndim == 0 else sigma


S_CSV_HEADER = "frequency_hz,s21_db,s31_db"

_FULL_COLS = [f"{part}_s{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3) for part in ("re", "im")]
S_CSV_HEADER_FULL = S_CSV_HEADER + "," + ",".join(_FULL_COLS)


def s_sweep_csv(sweep: SSweep, full: bool = False) -> str:
    """CSV of |S21| and |S31| in dB, optionally with all Re/Im entries."""
    mags = np.abs(sweep.s[:, 1:, 0])
    columns = [sweep.frequency[:, None]]
    with np.errstate(divide="ignore"):
        columns.append(20.0 * np.log10(mags))   # an exact zero gives -inf
    if full:
        flat = sweep.s.reshape(len(sweep), 9)
        columns.append(np.stack([flat.real, flat.imag], axis=-1).reshape(len(sweep), 18))
    table = np.hstack(columns)
    return csv_text(S_CSV_HEADER_FULL if full else S_CSV_HEADER, table)
