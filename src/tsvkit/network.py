"""Three-port lumped network of the TSV pair and its impedance matrix.

Port numbering: 1 = signal via bottom, 2 = substrate, 3 = signal via top
(matrix indices 0, 1, 2).  The fixed topology is::

    port1 --[R/2 + L/2]-- mid --[R/2 + L/2]-- port3
                           |
                      [G_si || C_si]          lateral silicon path
                           |
                         port2                substrate node
                           |
                      [C_ox -- C_d]           MOS stack of the return via
                           |
                          gnd                 ground-via metal (reference)

i.e. the substrate node couples to the signal conductor through the lossy
lateral silicon path and returns to the reference through the oxide/depletion
stack.  With the element values of the default parameter set this arrangement
reproduces the expected coupling level (|S21| near -30 dB at 10 GHz) and the
diverging low-frequency Z12; tapping the substrate through the MOS stack
instead overstates the coupling by ~12 dB.

Two independent computation routes are provided: closed-form branch algebra
(`branch_impedances`, over the whole frequency axis by `z_sweep`, and at one
frequency by `z_matrix_at`) and modified nodal analysis with unit current
injection (`z_matrix_mna`).  `verify_dual_route` measures how far they
disagree, which `tsvkit validate` gates (`checks.DUAL_ROUTE_TOL`).  The
nodal route lists the six elements as branches between five nodes
(`nodal_branches`); `nodal_solve` factors their stamped matrix elementwise
over the frequency axis and refines the node voltages from the branch
currents until each frequency has converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NetworkDegeneracyError, ValidationError
from .numerics import csv_text
from .params import MaterialParams, TsvGeometry, is_finite_real
from .rlgc import RlgcElements, rlgc_at

# Element values below this are rejected rather than stamped: they would make
# the nodal matrix numerically indistinguishable from singular.
MIN_ELEMENT = 1e-30

# Nodes of the nodal route, the indices of ports 1, 2 and 3 among them, and the fewest
# and most refinement steps of a member, ended by a small correction (`nodal_solve`).
NODES = 5
PORT_INDEX = [0, 3, 2]
REFINE_STEPS = 2
MAX_REFINE_STEPS = 30
CONVERGED = 4.0 * np.finfo(float).eps

# The most frequencies a grid may hold, and the most steps a CLI sweep may take:
# a size is refused before anything is allocated for it.
MAX_POINTS = 1_000_000


def _check_bounds(start, stop, n) -> None:
    """The arguments of the FrequencyGrid constructors, checked before numpy sees them."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 2:
        raise ValidationError(f"need an integer n >= 2, got {n!r}")
    if n > MAX_POINTS:
        raise ValidationError(f"need at most {MAX_POINTS} points, got {n}")
    if not (is_finite_real(start) and is_finite_real(stop) and 0 < start < stop):
        raise ValidationError(f"need finite 0 < start < stop, got {start!r} and {stop!r}")


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing evaluation frequencies in Hz, as a read-only array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 1 or not pts.size:
            raise ValidationError("frequency grid must be a nonempty 1-D sequence")
        if not pts[0] > 0:
            raise ValidationError("all grid frequencies must be positive")
        if not np.all(pts[1:] > pts[:-1]):
            raise ValidationError("grid frequencies must be strictly increasing")
        if not math.isfinite(pts[-1]):
            raise ValidationError("grid frequencies must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @classmethod
    def logarithmic(cls, start: float = 1e6, stop: float = 100e9, n: int = 201) -> "FrequencyGrid":
        _check_bounds(start, stop, n)
        return cls(points=np.logspace(math.log10(start), math.log10(stop), n))

    @classmethod
    def linear(cls, start: float, stop: float, n: int) -> "FrequencyGrid":
        _check_bounds(start, stop, n)
        return cls(points=np.linspace(start, stop, n))

    @classmethod
    def default(cls) -> "FrequencyGrid":
        return cls.logarithmic()


@dataclass(frozen=True)
class ThreePortZ:
    """Open-circuit impedance matrix at one frequency (3x3 complex, ohms)."""

    frequency: float
    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        if z.shape != (3, 3):
            raise ValidationError(f"z must be 3x3, got shape {z.shape}")
        object.__setattr__(self, "z", z)


@dataclass(frozen=True, eq=False)
class ZSweep:
    """Closed-form impedance matrices over a frequency vector.

    ``z`` has shape (N, 3, 3).  The branch impedances it was built from are
    kept beside it (each shape (N,)): the modal S conversion works on them
    directly, because recovering Z_seg as Z11 - Z13 would cancel ~8 digits
    at the bottom of the grid.
    """

    frequency: np.ndarray
    z: np.ndarray
    z_seg: np.ndarray
    z_lat: np.ndarray
    z_stack: np.ndarray

    def __len__(self) -> int:
        return len(self.frequency)


def branch_impedances(f, elements: RlgcElements):
    """The branch impedances (Z_seg, Z_lat, Z_stack) at ``f`` Hz.

    ``f`` and the half-segment resistance ``elements.r_half`` are scalars
    or arrays over the frequency axis.  With s = j*2*pi*f:

        Z_seg   = R/2 + sL/2           one vertical half-segment
        Z_lat   = 1/(G_si + sC_si)     lateral silicon path
        Z_stack = 1/sC_ox + 1/sC_d     MOS stack of the return via

    Written in real arithmetic, which rounds alike for Python floats and
    numpy arrays, so one point of an array sweep equals the same point
    evaluated alone.
    """
    w = 2.0 * math.pi * f
    wc = w * elements.c_si
    den = elements.g_si * elements.g_si + wc * wc
    z_seg = elements.r_half + 1j * (w * elements.l_half)
    z_lat = elements.g_si / den - 1j * (wc / den)
    z_stack = -1j * (1.0 / (w * elements.c_ox) + 1.0 / (w * elements.c_d))
    return z_seg, z_lat, z_stack


def _assemble_z(z_seg, z_lat, z_stack) -> np.ndarray:
    """Impedance matrix (3x3, or (N, 3, 3) over arrays) from the branch impedances.

    Open-circuit injection gives

        Z11 = Z33 = Z_seg + Z_lat + Z_stack
        Z13       = Z_lat + Z_stack
        Z12 = Z22 = Z_stack         (all remaining entries)
    """
    z13 = z_lat + z_stack
    z11 = z_seg + z13
    z = np.array([[z11, z_stack, z13],
                  [z_stack, z_stack, z_stack],
                  [z13, z_stack, z11]])
    return z if z.ndim == 2 else np.ascontiguousarray(np.moveaxis(z, -1, 0))


def z_matrix_at(f: float, elements: RlgcElements) -> ThreePortZ:
    """Closed-form impedance matrix from branch algebra (see :func:`branch_impedances`)."""
    if not (f > 0 and math.isfinite(f)):
        raise ValidationError(f"frequency must be finite and positive, got {f!r}")
    if isinstance(elements.r_half, np.ndarray):
        raise ValidationError("z_matrix_at needs one-frequency elements; use z_matrix_mna")
    try:
        z = _assemble_z(*branch_impedances(f, elements))
    except ZeroDivisionError:
        raise NetworkDegeneracyError("zero branch admittance", frequency=f) from None
    if not np.isfinite(z).all():
        raise NetworkDegeneracyError("non-finite impedance entries", frequency=f)
    return ThreePortZ(frequency=f, z=z)


def nodal_branches(f, elements: RlgcElements, r_half) -> list:
    """The elements of the fixed network as branches ``(node a, node b, admittance)``.

    Nodes: port1, mid, port3, port2 and the internal node of the C_ox -- C_d
    stack; ``b = None`` is the reference.  Admittances are scalars, or (N,)
    arrays over an (N,) vector ``f``; ``r_half`` is a scalar or an (N,) array.
    """
    for name, value in (("r_half", np.min(r_half)), ("l_half", elements.l_half),
                        ("c_ox", elements.c_ox), ("c_d", elements.c_d),
                        ("c_si", elements.c_si), ("g_si", elements.g_si)):
        if value < MIN_ELEMENT:
            raise ValidationError(
                f"{name} = {value} below {MIN_ELEMENT}: "
                "degenerate element would produce a singular network"
            )
    s = 2j * math.pi * np.asarray(f, dtype=float)
    y_seg = 1.0 / (r_half + s * elements.l_half)
    return [(0, 1, y_seg), (1, 2, y_seg), (1, 3, elements.g_si), (1, 3, s * elements.c_si),
            (3, 4, s * elements.c_ox), (4, None, s * elements.c_d)]


def _factor(branches, n: int):
    """Y = L U of the stamped ``branches`` in node order, without pivoting, each entry (n,).

    Y is symmetric, so U = D L^T: returns D^-1, the reciprocal pivots, and the
    structural nonzeros of L below the diagonal, keyed (column, row).
    """
    u = {(k, k): np.zeros(n, dtype=complex) for k in range(NODES)}
    for a, b, admittance in branches:
        u[a, a] = u[a, a] + admittance
        if b is not None:
            u[b, b] = u[b, b] + admittance
            u[min(a, b), max(a, b)] = u.get((min(a, b), max(a, b)), 0.0) - admittance
    inv, low = [], {}
    for k in range(NODES):
        inv.append(1.0 / u.pop((k, k)))
        right = [j for j in range(k + 1, NODES) if (k, j) in u]
        for i in right:
            low[k, i] = u[k, i] * inv[k]
            for j in right[right.index(i):]:
                u[i, j] = u.get((i, j), 0.0) - low[k, i] * u[k, j]
    return inv, low


def _lu_solve(factors, x: np.ndarray) -> None:
    """Overwrite a (NODES, r, n) ``x`` with Y^-1 x: solve by L, then D, then L^T."""
    inv, low = factors
    v = list(x)   # the node rows, updated in place: no (r, n) result is kept
    for (k, i), lik in low.items():
        v[i] -= lik * v[k]
    for i in range(NODES):
        v[i] *= inv[i]
    for (k, i), lik in reversed(low.items()):
        v[k] -= lik * v[i]


def nodal_solve(f: np.ndarray, branches, rhs: np.ndarray) -> np.ndarray:
    """Node voltages (N, NODES, r) of ``branches`` at an (N,) ``f`` for (NODES, r) currents ``rhs``.

    Admittances are scalars or (N,) arrays.  Y is factored over the frequency
    axis (`_factor`) and x = Y^-1 rhs refined by x += Y^-1 (rhs - Y x), the
    residual summed from the branch currents, never from Y, whose diagonal sums
    round admittances 12 decades apart (Higham, *Accuracy and Stability of
    Numerical Algorithms*, ch. 12).  After REFINE_STEPS steps only the members
    with a column correction above CONVERGED of that column's largest voltage
    step on, so a member gets the same bits alone.  One still open after
    MAX_REFINE_STEPS, or non-finite (a zero pivot), raises
    :class:`NetworkDegeneracyError` naming its frequency.
    """
    with np.errstate(all="ignore"):   # a zero pivot or an overflow shows as non-finite
        rhs = np.asarray(rhs, dtype=complex)[..., None]   # (NODES, r, 1), broadcast over f
        factors, x = _factor(branches, len(f)), np.repeat(rhs, len(f), axis=2)
        _lu_solve(factors, x)
        members, xs, d = np.arange(len(f)), x, np.empty_like(x)
        for step in range(1, MAX_REFINE_STEPS + 1):
            d[...] = rhs   # the residual: rhs minus the branch currents y (x_a - x_b)
            rows = list(d)
            for a, b, y in branches:
                current = y * (xs[a] if b is None else xs[a] - xs[b])
                rows[a] -= current
                if b is not None:
                    rows[b] += current
            _lu_solve(factors, d)
            xs += d
            if xs is not x:
                x[..., members] = xs
            open_ = step < REFINE_STEPS or \
                ~(abs(d).max(axis=0) <= CONVERGED * abs(xs).max(axis=0)).all(axis=0)
            if not np.any(open_):
                return x.transpose(2, 0, 1)
            if not np.all(open_):
                members, xs = members[open_], xs.compress(open_, axis=2)
                branches = [(a, b, y[open_] if np.ndim(y) else y) for a, b, y in branches]
                factors, d = _factor(branches, len(members)), np.empty_like(xs)
    fk = float(f[members[0]])   # a NaN never converges
    what = ("nodal refinement did not converge" if np.isfinite(xs[..., 0]).all()
            else "non-finite nodal solution")
    raise NetworkDegeneracyError(f"{what} at {fk:.6g} Hz", frequency=fk)


def frequency_stack(f) -> np.ndarray:
    """``f`` Hz, one frequency or a nonempty vector of them, finite and positive, as (N,)."""
    freqs = np.asarray(f, dtype=float)
    if freqs.ndim > 1 or not freqs.size:
        raise ValidationError(f"need one frequency or a nonempty vector, got shape {freqs.shape}")
    bad = freqs[~((freqs > 0) & np.isfinite(freqs))]
    if bad.size:
        raise ValidationError(f"frequency must be finite and positive, got {bad[0].item()!r}")
    return freqs.reshape(-1)


def z_matrix_mna(f, elements: RlgcElements):
    """Impedance matrix by modified nodal analysis.

    Each column is obtained by injecting 1 A into one port and reading the
    open-circuit node voltages.  ``f`` is one frequency, giving a
    :class:`ThreePortZ`, or an (N,) vector, giving an (N, 3, 3) array from
    one stacked solve; one frequency is solved as a one-point stack, so it
    gets the bits of that stack member.  The half-segment resistance
    ``elements.r_half`` is a scalar or an (N,) array at ``f``.
    """
    freqs = frequency_stack(f)
    r_half = elements.r_half
    if np.ndim(r_half) and np.shape(r_half) != np.shape(f):
        raise ValidationError(f"elements hold {np.size(r_half)} frequencies, f {freqs.size}")
    rhs = np.eye(NODES)[:, PORT_INDEX]   # 1 A into each port
    z = nodal_solve(freqs, nodal_branches(freqs, elements, r_half), rhs)[:, PORT_INDEX]
    return z if np.ndim(f) else ThreePortZ(frequency=f, z=z[0])


def z_sweep(grid: FrequencyGrid, geom: TsvGeometry, mat: MaterialParams) -> ZSweep:
    """Closed-form impedance matrices over the grid, computed as arrays over f."""
    f = grid.points
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        branches = branch_impedances(f, rlgc_at(f, geom, mat))
        z = _assemble_z(*branches)
    bad = np.flatnonzero(~np.isfinite(z).all(axis=(1, 2)))
    if bad.size:
        raise NetworkDegeneracyError(
            f"sweep failed at {f[bad[0]]:.6g} Hz: non-finite impedance entries",
            frequency=float(f[bad[0]]))
    return ZSweep(f, z, *branches)


def verify_dual_route(sweep: ZSweep, geom: TsvGeometry, mat: MaterialParams) -> np.ndarray:
    """Worst relative disagreement of ``sweep`` and :func:`z_matrix_mna` at each frequency, (N,).

    ``sweep`` is the ZSweep of ``z_sweep(..., geom, mat)``; NaN or inf where not finite.
    """
    f = sweep.frequency
    mna = z_matrix_mna(f, rlgc_at(f, geom, mat))
    return (np.abs(sweep.z - mna) / np.abs(sweep.z)).max(axis=(1, 2))


Z_CSV_HEADER = ("frequency_hz,re_z11,im_z11,re_z12,im_z12,re_z13,im_z13,"
                "re_z22,im_z22,re_z23,im_z23,re_z33,im_z33")

_UNIQUE_Z = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def z_sweep_csv(sweep: ZSweep) -> str:
    """CSV of the six unique entries of a reciprocal sweep (LF line endings)."""
    entries = sweep.z[:, [i for i, _ in _UNIQUE_Z], [j for _, j in _UNIQUE_Z]]
    table = np.empty((len(sweep), 1 + 2 * len(_UNIQUE_Z)))
    table[:, 0] = sweep.frequency
    table[:, 1::2] = entries.real
    table[:, 2::2] = entries.imag
    return csv_text(Z_CSV_HEADER, table)
