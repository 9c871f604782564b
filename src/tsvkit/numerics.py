"""Small dense complex solves with extended-precision accumulation, and text tables.

The three-port matrices span ~12 orders of magnitude across the sweep (the
substrate branch is nearly open at the bottom of the grid), which costs plain
double-precision solves 6-8 digits exactly where the self-check tolerances
bite.  Running the elimination in clongdouble (80-bit on x86-64) keeps the
round-trip and dual-route identities comfortably below 1e-9 without changing
any public dtype: inputs and outputs stay complex128.
"""

from __future__ import annotations

import numpy as np

from .errors import NetworkDegeneracyError


def solve_extended(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b by Gaussian elimination with partial pivoting in clongdouble.

    ``b`` may be a vector or a matrix of right-hand-side columns.  Raises
    :class:`NetworkDegeneracyError` on an exactly singular pivot.
    """
    a = np.asarray(a, dtype=np.clongdouble).copy()
    vector = np.ndim(b) == 1
    b = np.atleast_2d(np.asarray(b, dtype=np.clongdouble)).copy()
    if vector:
        b = b.T
    n = a.shape[0]
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if a[piv, k] == 0:
            raise NetworkDegeneracyError("singular matrix in linear solve")
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        for i in range(k + 1, n):
            m = a[i, k] / a[k, k]
            if m != 0:
                a[i, k:] -= m * a[k, k:]
                b[i] -= m * b[k]
    x = np.zeros_like(b)
    for i in range(n - 1, -1, -1):
        x[i] = (b[i] - a[i, i + 1:] @ x[i + 1:]) / a[i, i]
    x = x.astype(np.complex128)
    return x[:, 0] if vector else x


def condition_number(a: np.ndarray) -> float:
    """2-norm condition number, +inf for singular input."""
    try:
        return float(np.linalg.cond(np.asarray(a, dtype=np.complex128)))
    except np.linalg.LinAlgError:
        return float("inf")


FORMAT_CHUNK_ROWS = 256


def format_rows(table: np.ndarray, row_template: str):
    """Text of an (N, M) float table, yielded in pieces of FORMAT_CHUNK_ROWS rows.

    ``row_template`` holds M ``%`` conversions with their separators and
    line end.  One ``%`` per piece gives the same digits as formatting each
    field on its own, at a fraction of the per-field cost; working in
    pieces bounds the memory held by the Python floats and strings.
    """
    for start in range(0, len(table), FORMAT_CHUNK_ROWS):
        rows = table[start:start + FORMAT_CHUNK_ROWS]
        yield (row_template * len(rows)) % tuple(rows.ravel().tolist())


def csv_text(header: str, table: np.ndarray) -> str:
    """CSV of an (N, M) float table: the header line, then ``%.12e`` fields, LF endings."""
    return header + "\n" + "".join(format_rows(table, ",".join(["%.12e"] * table.shape[1]) + "\n"))
