"""Small dense complex solves with extended-precision accumulation, and text tables.

The three-port matrices span ~12 orders of magnitude across the sweep (the
substrate branch is nearly open at the bottom of the grid), which costs plain
double-precision solves 6-8 digits exactly where the self-check tolerances
bite.  Running the elimination in clongdouble (80-bit on x86-64) keeps the
round-trip and dual-route identities comfortably below 1e-9 without changing
any public dtype: inputs and outputs stay complex128.

A solve and a condition number take one matrix or a stack of them over the
frequency axis.  A stack is eliminated one pivot column at a time across
all its members, each member with the pivots and row updates it would get
alone, so the two give the same bits.  Callers pass stacks of at most
PIECE_ROWS frequencies (see :func:`pieces`), which bounds the memory of the
extended-precision temporaries.
"""

from __future__ import annotations

import numpy as np

from .errors import NetworkDegeneracyError


def solve_extended(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a @ x = b by Gaussian elimination with partial pivoting in clongdouble.

    ``a`` is one (n, n) matrix or a stack (N, n, n).  ``b`` holds one
    right-hand-side vector per matrix (shape ``a.shape[:-1]``) or columns of
    them (``a.shape[:-1] + (r,)``).  Every member of a stack is eliminated
    with the same pivot choice and the same order of row updates as when it
    is solved alone, so it gets the same bits.  Raises
    :class:`NetworkDegeneracyError` on an exactly singular pivot; its
    ``index`` is the first singular member of the stack (0 for one matrix).
    """
    vector = np.ndim(b) == np.ndim(a) - 1
    n = np.shape(a)[-1]
    # [a | b] in one array: each row swap and row update covers both
    w = np.concatenate([np.asarray(a), np.expand_dims(b, -1) if vector else np.asarray(b)],
                       axis=-1, dtype=np.clongdouble)
    w = w.reshape(-1, n, w.shape[-1])
    with np.errstate(all="ignore"):
        for k in range(n - 1):
            rel = np.abs(w[:, k:, k]).argmax(axis=1)   # the pivot row is k + rel
            swap = rel.nonzero()[0]
            if swap.size:
                piv = k + rel[swap]
                w[swap, k], w[swap, piv] = w[swap, piv], w[swap, k]
            m = w[:, k + 1:, k, None] / w[:, k, None, k, None]
            below = w[:, k + 1:, k + 1:]
            # a zero multiplier leaves its row untouched, as in a lone solve
            np.subtract(below, m * w[:, k, None, k + 1:], out=below, where=m != 0)
        pivots = w.diagonal(axis1=1, axis2=2)[:, :n]
        if not pivots.all():
            raise NetworkDegeneracyError("singular matrix in linear solve",
                                         index=int((pivots == 0).any(axis=1).argmax()))
        x = np.empty_like(w[:, :, n:])
        x[:, -1] = w[:, -1, n:] / pivots[:, -1, None]
        for i in range(n - 2, -1, -1):
            x[:, i] = ((w[:, i, n:] - (w[:, i, None, i + 1:n] @ x[:, i + 1:])[:, 0])
                       / pivots[:, i, None])
    return x.astype(np.complex128).reshape(np.shape(b))


def condition_number(a: np.ndarray):
    """2-norm condition number: a float for one matrix, an (N,) array for a stack.

    +inf where a matrix is singular or has non-finite entries.
    """
    a = np.asarray(a, dtype=np.complex128)
    try:
        cond = np.linalg.cond(a)
    except np.linalg.LinAlgError:   # an SVD did not converge, as it does on NaN entries
        cond = np.full(a.shape[:-2], np.inf)
        ok = ~np.isnan(a).any(axis=(-2, -1))
        if ok.any() and not ok.all():
            cond[ok] = condition_number(a[ok])
    return float(cond) if cond.ndim == 0 else cond


PIECE_ROWS = 256


def pieces(n: int):
    """Slices covering range(n) in order, PIECE_ROWS at a time.

    Stacked solves and text formatting work piece by piece, which bounds
    the memory their temporaries hold.
    """
    return (slice(start, start + PIECE_ROWS) for start in range(0, n, PIECE_ROWS))


def format_rows(table: np.ndarray, row_template: str):
    """Text of an (N, M) float table, yielded in pieces of PIECE_ROWS rows.

    ``row_template`` holds M ``%`` conversions with their separators and
    line end.  One ``%`` per piece gives the same digits as formatting each
    field on its own, at a fraction of the per-field cost; working in
    pieces bounds the memory held by the Python floats and strings.
    """
    for piece in pieces(len(table)):
        rows = table[piece]
        yield (row_template * len(rows)) % tuple(rows.ravel().tolist())


def csv_text(header: str, table: np.ndarray) -> str:
    """CSV of an (N, M) float table: the header line, then ``%.12e`` fields, LF endings."""
    return header + "\n" + "".join(format_rows(table, ",".join(["%.12e"] * table.shape[1]) + "\n"))
