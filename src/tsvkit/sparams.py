"""Scattering parameters of the three-port from its impedance matrix.

The conversions use the equal-real-reference form S = (Z - Z0 I)(Z + Z0 I)^-1
and its algebraic inverse Z = Z0 (I + S)(I - S)^-1, computed with LAPACK
linear solves in complex128 (never an explicit inverse), unrefined: S and
Z are already rounded, and their rounding amplified by the condition
number bounds what a solve can recover.  Both convert a whole sweep, an
(N, 3, 3) stack, in one solve: `z_to_s` a :class:`~tsvkit.network.ZSweep`,
`s_to_z` an :class:`SSweep` back into a ZSweep; a single point is a sweep of one.
A conversion is refused where the matrix it inverts has a 2-norm condition
number above COND_LIMIT.  A stack of several members is cleared by the
adjugate bound (`numerics.condition_bound`) and takes an SVD only for the
members the bound cannot clear; a one-member stack takes the SVD directly.
A refusal names the first frequency over the limit with its SVD condition
number either way.
`s_sweep` converts a sweep in closed form, by even/odd-mode analysis
(`modal_s`) of the branch impedances of its elements; the solve route is the
exact reference it is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConversionError, NetworkDegeneracyError
from .network import ZSweep, branch_impedances
from .numerics import condition_bound, condition_number, csv_text, solve_extended
from .params import require, require_sweep, require_type
from .rlgc import RlgcElements

COND_LIMIT = 1e12
PASSIVITY_LIMIT = 1.0 + 1e-9   # largest singular value of a passive S (so |h| of a transfer)


def _check_z0(z0) -> None:
    require("z0", z0, "one finite positive number", lowest=5e-324, kinds="")


@dataclass(frozen=True, eq=False)
class SSweep:
    """Scattering matrices over a frequency vector, referenced to one real z0.

    ``s`` has shape (N, 3, 3); a single point is a sweep of one.
    """

    frequency: np.ndarray
    s: np.ndarray
    z0: float = 50.0

    def __post_init__(self):
        f, s = require_sweep(self.frequency, self.s, "s")
        _check_z0(self.z0)
        object.__setattr__(self, "frequency", f)
        object.__setattr__(self, "s", s)

    def __len__(self) -> int:
        return len(self.frequency)


def _guarded_solve(a: np.ndarray, b: np.ndarray, frequency: np.ndarray, name: str,
                   note: str = "") -> np.ndarray:
    """b @ inv(a) by one LAPACK solve of a^T x^T = b^T, refused above COND_LIMIT.

    ``a`` and ``b`` are (N, 3, 3) stacks over an (N,) ``frequency`` vector.
    ``name`` spells the matrix ``a`` in the :class:`ConversionError`
    messages, which name the first frequency that fails with its SVD
    condition number.  A stack of several members is first cleared by
    :func:`condition_bound`, which is never below the SVD value: only the
    members it leaves above the limit take an SVD, and the first of them
    over the limit is the first member over it.  One member takes the SVD,
    which costs less than the bound's array set-up.
    """
    lone = len(a) == 1
    cond = condition_number(a) if lone else condition_bound(a)
    # NaN fails too; one member is compared without a reduction, which costs more here
    if not (cond[0] if lone else cond.max()) <= COND_LIMIT:
        suspect = np.flatnonzero(~(cond <= COND_LIMIT))
        if not lone:
            cond = condition_number(a[suspect])
        over = np.flatnonzero(~(cond <= COND_LIMIT))
        if over.size:
            k = over[0]
            raise ConversionError(f"{name} is singular or ill-conditioned at "
                                  f"{frequency[suspect[k]]:.6g} Hz (condition number "
                                  f"{cond[k]:.3e}){note}", condition_number=float(cond[k]))
    try:
        return solve_extended(a.swapaxes(1, 2), b.swapaxes(1, 2)).swapaxes(1, 2)
    except NetworkDegeneracyError as err:
        k = err.index
        raise ConversionError(f"{name} singular at {frequency[k]:.6g} Hz", condition_number=float(
            condition_number(a[k:k + 1])[0])) from err


def z_to_s(zs: ZSweep, z0: float = 50.0) -> SSweep:
    """S = (Z - z0 I)(Z + z0 I)^-1 of each impedance matrix of a sweep."""
    require_type("z_to_s", zs, ZSweep, "a ZSweep")
    _check_z0(z0)
    z, f, shift = zs.z, zs.frequency, z0 * np.eye(3)
    return SSweep(f, _guarded_solve(z + shift, z - shift, f, "(Z + z0 I)"), z0)


def s_to_z(sp: SSweep) -> ZSweep:
    """Invert the scattering conversion of a sweep: Z = z0 (I + S)(I - S)^-1, with no elements."""
    require_type("s_to_z", sp, SSweep, "an SSweep")
    eye = np.eye(3)
    with np.errstate(invalid="ignore"):   # inf * 0 of an inf entry: the guard refuses it
        b = sp.z0 * (eye + sp.s)
    return ZSweep(sp.frequency, _guarded_solve(eye - sp.s, b, sp.frequency, "(I - S)",
                                               "; S has a near-unit eigenvalue"))


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
        c_z0 = c + z0   # named: from 16,384 values numpy computes b * (c + z0) as (c + z0) * b
        d_even = (e + z0) * c_z0 + 2.0 * z0 * c
        d_both = d_even * d_odd
        s11 = ((c + z0) * (a * e - z0 * z0) + 2.0 * z0 * a * c) / d_both
        s13 = 2.0 * z0 * (b * c_z0 + z0 * c) / d_both
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
    """S of an impedance sweep, by :func:`modal_s` of the branch impedances of its elements."""
    require_type("s_sweep", zs, ZSweep, "a ZSweep from z_sweep")
    require_type("s_sweep", zs.elements, RlgcElements, "elements in the sweep")
    _check_z0(z0)   # before modal_s, which would blame a bad z0 on the network
    with np.errstate(all="ignore"):   # as in z_sweep, where an overflow left Z finite
        branches = branch_impedances(zs.frequency, zs.elements)
    return SSweep(zs.frequency, modal_s(zs.frequency, *branches, z0), z0)


def max_singular_value(sp: SSweep) -> np.ndarray:
    """Largest singular value of each S of a sweep, as an (N,) array.

    The square root of the largest eigenvalue of the Hermitian S^H S, which
    ``eigvalsh`` finds for less than an SVD costs.  Each matrix is first
    scaled by a power of two, which is exact, to a largest entry in
    [1/2, 1), so S^H S neither overflows nor underflows; a matrix with a
    non-finite entry gives NaN.
    """
    require_type("max_singular_value", sp, SSweep, "an SSweep")
    s = sp.s
    big = np.abs(s).max(axis=(-2, -1))
    finite = np.isfinite(big)
    e = np.frexp(np.where(finite, big, 0.0))[1]
    scale = np.expand_dims(-e, (-2, -1))
    t = np.empty_like(s)
    t.real = np.ldexp(np.where(finite[..., None, None], s.real, 0.0), scale)
    t.imag = np.ldexp(np.where(finite[..., None, None], s.imag, 0.0), scale)
    top = np.linalg.eigvalsh(t.conj().swapaxes(-1, -2) @ t)[..., -1]
    return np.where(finite, np.ldexp(np.sqrt(top), e), np.nan)


S_CSV_HEADER = "frequency_hz,s21_db,s31_db"

_FULL_COLS = [f"{part}_s{i}{j}" for i in (1, 2, 3) for j in (1, 2, 3) for part in ("re", "im")]
S_CSV_HEADER_FULL = S_CSV_HEADER + "," + ",".join(_FULL_COLS)


def s_sweep_csv(sweep: SSweep, full: bool = False, destination=None) -> str | None:
    """CSV of |S21| and |S31| in dB, optionally with all Re/Im entries.

    Returned as a ``str``, or written to ``destination``, a path or a stream
    (see :func:`tsvkit.numerics.write_rows`), piece by piece.
    """
    table = np.empty((len(sweep), 21 if full else 3))
    table[:, 0] = sweep.frequency
    with np.errstate(divide="ignore"):
        table[:, 1:3] = 20.0 * np.log10(np.abs(sweep.s[:, 1:, 0]))   # an exact zero gives -inf
    if full:
        flat = sweep.s.reshape(len(sweep), 9)
        table[:, 3::2] = flat.real
        table[:, 4::2] = flat.imag
    return csv_text(S_CSV_HEADER_FULL if full else S_CSV_HEADER, table, destination)
