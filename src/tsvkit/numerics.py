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

Text tables (:func:`format_rows`) hold each field exactly as C's ``%.Ne``
writes it: the binary value correctly rounded to N + 1 significant digits,
ties to even.  The digits come from array arithmetic, not from one ``%``
per field.  For a field x the kernel estimates e = floor(log10|x|) and
scales y = |x| * 10**k, k = N - e, by one multiplication or division with
10**|k|, an exact double for |k| <= 22, so y is within half an ulp of the
exact product.  If 10**N <= y < 10**(N+1) and |y - rint(y)| < 1/2 - 2 ulp
(the ulp of 10**(N+1), the largest in that range), ``rint(y)`` is the
correctly rounded mantissa and the exact product is no tie; a mantissa
that rounds to 10**(N+1) carries into the exponent.  The ASCII comes from
tables (4-digit groups; sign, lead digit and point; ``e+XX``) written into
one uint32 buffer, whose zero bytes mark unused places and are dropped.
Zero, with its sign, takes this path too.  Every other field is formatted
with ``%`` into its slot: inf, NaN, subnormals, |k| > 22 (magnitudes
outside 1e-14 .. 1e31 for ``%.8e``, 1e-10 .. 1e35 for ``%.12e``),
near-ties, and exponent estimates that are off by one.
"""

from __future__ import annotations

import numpy as np

from .errors import NetworkDegeneracyError, ValidationError


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


# Tables of the %.Ne kernel: little-endian uint32 words of four ASCII bytes, in
# which a zero byte marks an unused place that is dropped from the text.
_WORD = np.dtype("<u4")
_FAST_K = 22   # 10.0**k is an exact double for 0 <= k <= 22
_POW10 = np.array([float(10 ** k) for k in range(_FAST_K + 1)])
_digits = np.frombuffer(b"0123456789", dtype=np.uint8)
_groups = np.empty((10,) * 4 + (4,), dtype=np.uint8)
for _place in range(4):   # the digit in place p of a group runs along axis p
    _groups[..., _place] = _digits.reshape((10,) + (1,) * (3 - _place))
_GROUPS = _groups.view(_WORD).reshape(-1)   # "0000" .. "9999"
# sign (or nothing), lead digit and point, indexed by 10 * negative + lead digit
_HEADS = np.frombuffer(b"".join(sign + b"%d.\0" % lead for sign in (b"\0", b"-")
                                for lead in range(10)), dtype=_WORD)
# "e-99" .. "e+99", indexed by exponent + 99
_EXPONENTS = np.frombuffer(b"".join(b"e%+03d" % e for e in range(-99, 100)), dtype=_WORD)
del _digits, _groups, _place


def format_rows(table: np.ndarray, digits: int, separators: str):
    """Text of an (N, M) float table, yielded in pieces of PIECE_ROWS rows.

    Each field is exactly ``"%.{digits}e" % x`` and is followed by its
    column's character in ``separators`` (M characters, the last usually a
    line end).  ``digits``, the count after the point, is 4, 8 or 12, whole
    groups of four (Touchstone uses 8, CSV 12).  The digits come from array
    arithmetic (see the module docstring); the fields that arithmetic cannot
    vouch for are formatted with ``%``.  Working in pieces bounds the memory
    of the temporaries.
    """
    table = np.asarray(table, dtype=float)
    if digits not in (4, 8, 12):
        raise ValidationError(f"digits must be 4, 8 or 12, got {digits!r}")
    if len(separators) != table.shape[1]:
        raise ValidationError(f"need one separator per column ({table.shape[1]}), "
                              f"got {len(separators)}")
    spec = f"%.{digits}e"
    low, high = 10 ** digits, 10 ** (digits + 1)
    # |y - rint(y)| must clear 1/2 by twice the largest ulp of a mantissa below `high`
    guard = 0.5 - 2.0 * float(np.spacing(float(high)))
    groups = digits // 4
    words = 3 + groups   # head, digit groups, exponent, separator
    sep_words = np.array([ord(c) for c in separators], dtype=_WORD) << 24
    sep_bytes = [c.encode("ascii") for c in separators]
    for piece in pieces(len(table)):
        x = table[piece]
        a = np.abs(x)
        with np.errstate(all="ignore"):
            k = digits - np.floor(np.log10(a))   # from the estimated exponent
            # beyond the exact powers (and at zero, inf and NaN) k = digits:
            # y then falls outside the mantissa range, or is zero
            k = np.where(np.abs(k) <= _FAST_K, k, digits).astype(np.int64)
            p = _POW10[np.abs(k)]
            # |x| * 10**k rounded once: y is within ulp(y)/2 of the exact value
            y = np.where(k >= 0, a * p, a / p)
            m = np.rint(y)
            # y in the mantissa range (or zero) and clear of a tie:
            # rint(y) is then the correctly rounded mantissa
            fast = ((y >= low) | (y == 0)) & (y < high) & (np.abs(y - m) < guard)
        m = np.where(fast, m, low).astype(np.int64)
        carry = m == high   # 9.99..95 rounds up into the next exponent
        m[carry] = low
        lead = m // low
        rest = m - lead * low
        buf = np.empty(x.shape + (words,), dtype=_WORD)
        buf[..., 0] = _HEADS[np.signbit(x) * 10 + lead]
        for g in range(groups, 0, -1):
            quotient = rest // 10_000
            buf[..., g] = _GROUPS[rest - quotient * 10_000]
            rest = quotient
        buf[..., -2] = _EXPONENTS[digits - k + carry + 99]
        buf[..., -1] = sep_words
        slow = np.flatnonzero(~fast)
        if slow.size:
            cols = slow % x.shape[1]
            text = b"".join((spec % v).encode("ascii").ljust(4 * words - 1, b"\0")
                            + sep_bytes[c] for v, c in zip(x.ravel()[slow].tolist(), cols.tolist()))
            buf.reshape(-1, words)[slow] = np.frombuffer(text, dtype=_WORD).reshape(-1, words)
        yield buf.tobytes().translate(None, b"\0").decode("ascii")


def csv_text(header: str, table: np.ndarray) -> str:
    """CSV of an (N, M) float table: the header line, then ``%.12e`` fields, LF endings."""
    return header + "\n" + "".join(format_rows(table, 12, "," * (table.shape[1] - 1) + "\n"))
