"""Small dense complex solves, condition numbers, and text tables.

Solves and condition numbers work on stacks over the frequency axis, one
call per stack; a single point is a stack of one.  A solve is LAPACK's
(``np.linalg.solve``) in complex128, which factors each member of a stack
as it would factor it alone, so a member gets the same bits in any stack;
where accuracy beyond a backward-stable solve matters, the caller refines
(the nodal route of ``network``).  A condition number comes from an SVD;
for a stack of 3x3 matrices, :func:`condition_bound` gives an upper bound
on each from the adjugate and the determinant, with their rounding errors,
for a few array operations, so that only members it cannot clear need one.

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
lookup tables, one uint32 word of four bytes at a time, into a buffer of
(N + 8) / 4 words per field, with no padding: ``[sign, lead digit, '.',
d1]``, groups of four digits, ``[d, d, d, 'e']`` and ``[exponent sign, X,
X, separator]``.  The one zero byte left, the sign of a field that is not
negative, is dropped by ``bytes.replace``.  Zero, with its sign, takes this
path too.  Every other field is formatted with ``%`` into its slot: inf,
NaN, |k| > 22 (magnitudes outside 1e-14 .. 1e31 for ``%.8e``, 1e-10 ..
1e35 for ``%.12e``), near-ties, and exponent estimates that are off by
one.  A piece holding a field too wide for its slot (a three-digit
exponent, as of every subnormal) is formatted by ``%`` in full.  The
pieces are ASCII bytes of about a fixed number of fields, which
:func:`write_rows` writes straight to an open file.

The inverse, :func:`parse_fields`, turns ASCII text into field counts per
line and the value of every field, each equal to ``float(field)`` bit for
bit.  One ``flatnonzero`` over the whitespace bytes of a piece gives the
field starts and ends and, since a line break is one of those bytes, the
fields per line.  A field written as ``%.8e`` writes it,
``[+-]d.dddddddd[eE][+-]dd``, is checked and converted in array
arithmetic: two unaligned 64-bit loads per field hold all its bytes, the
eight digits after the point are checked and read with SWAR (bytewise
arithmetic inside one uint64: three multiply-shifts), and with M the nine
digits and k the exponent minus 8 the value is ``M * 10**k`` or
``M / 10**-k``.  M < 10**9 and 10**|k| for |k| <= 22 are exact doubles, so
that is one correctly rounded IEEE operation on the exact decimal value
(Clinger's fast path), which is what ``float()`` returns; the sign is
exact, and so is -0.  Every other field goes to ``float()`` in its slot:
other digit counts, ``1_0``, ``nan``, a NUL, exponents outside -14 .. +30
(|k| > 22, magnitudes below 1e-14 or from 1e31 up).
"""

from __future__ import annotations

import io
import re

import numpy as np

from .errors import NetworkDegeneracyError, ValidationError


def solve_extended(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve each a @ x = b of an (N, n, n) stack ``a`` and (N, n, r) columns ``b`` by LAPACK.

    Each member is factored as it would be alone, so it gets the same bits in
    any stack.  Raises :class:`NetworkDegeneracyError` on an exactly singular
    matrix; its ``index`` is the first singular member.
    """
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        # LAPACK refuses the whole stack: name its first singular member
        for k in range(len(a)):
            try:
                np.linalg.solve(a[k], b[k])
            except np.linalg.LinAlgError:
                raise NetworkDegeneracyError("singular matrix in linear solve", index=k) from None
        raise


def condition_number(a: np.ndarray) -> np.ndarray:
    """2-norm condition number by SVD of each member of an (N, n, n) stack, as an (N,) array.

    +inf where a matrix is singular or has a non-finite entry; the latter
    never reach LAPACK, which would print to stdout about them.
    """
    a = np.asarray(a, dtype=np.complex128)
    if np.isfinite(a).all():
        return np.linalg.cond(a)
    cond = np.full(a.shape[:-2], np.inf)
    finite = np.isfinite(a).all(axis=(-2, -1))
    if finite.any():
        cond[finite] = np.linalg.cond(a[finite])
    return cond


# Cofactor (i, j) of a 3x3 matrix t is t[i+1, j+1] t[i+2, j+2] - t[i+1, j+2] t[i+2, j+1],
# indices mod 3: the flat places of those four factors for each of the nine (i, j).
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])
_COFACTOR_TERMS = np.stack([(3 * rows[:, None] + cols).ravel() for rows, cols in
                            ((_NEXT, _NEXT), (_LAST, _LAST), (_NEXT, _LAST), (_LAST, _NEXT))])
_GAMMA = 2.0 ** -48   # 32 u, with u = 2**-53 the unit roundoff of a double
_TINY = 2.0 ** -600   # a scaled |det| below this means a condition number above 2**298


def condition_bound(a: np.ndarray) -> np.ndarray:
    """An upper bound on the 2-norm condition number of each member of an (N, 3, 3) stack.

    +inf where the bound cannot vouch: a singular member, one with a
    non-finite entry, or one too ill-conditioned for its error terms (the
    bound vouches for few members above 1e13).  A finite bound is never
    below the exact condition number, so a member it clears under a limit
    needs no SVD.  It costs a few array operations over the stack.

    Derivation.  k(A) = ||A||_2 ||A^-1||_2 <= ||A||_F ||A^-1||_F, and
    A^-1 = adj(A) / det A with adj(A) the transposed cofactors c_ij and
    det A = sum_j a_0j c_0j.  Each member is first scaled by 2**-e, exactly,
    so that its largest entry has a modulus in [1/2, 1): k is unchanged, no
    product overflows, and products lose no bits to underflow that matter
    (below).  A cofactor is c = x1 y1 - x2 y2; let m = |x1||y1| + |x2||y2|.
    A rounded complex product is within sqrt(2) gamma_2 < 3u |x||y| of the
    exact one (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2nd ed., Lemma 3.5; with an FMA it is within 2u), and the subtraction
    rounds once more, so the computed cofactor is within 5u m of c.  The
    same steps put the computed det within 11u S of the exact one, with
    S = sum_j |a_0j| m_0j.  Hence

        ||adj||_F <= ||adj computed||_F + gamma sum m,
        |det| >= |det computed| - gamma S,

    with gamma = 32u, and the bound is

        (1 + gamma) ||A||_F (||adj computed||_F + gamma sum m) / (|det computed| - gamma S),

    finite only where the denominator is positive.  gamma covers the 11u
    and 5u above with room for the rounding of m and S, and the final
    (1 + gamma) the rounding of the norms, the difference, the product and
    the quotient (about 20u together).  The largest entry is at least 1/2,
    so k >= 2**-1.5 |det|**-0.5; a member whose computed |det| is below
    2**-600 (k above 2**298) gets +inf, which makes the absolute errors of
    underflow, a few 2**-1074, negligible next to the determinant, the
    adjugate and the smallest singular value.
    """
    a = np.asarray(a, dtype=np.complex128)
    # Entry-major: row k holds entry k of every member, so that each step is
    # one operation along the stack rather than one across nine entries.
    # A copy, never a view of ``a``, which the scaling below would overwrite.
    t = a.reshape(-1, 9).T.copy()
    mag = np.abs(t)
    big = mag.max(axis=0)
    bad = ~np.isfinite(big)
    if bad.any():   # zeroed, so that det = 0
        t[:, bad], mag[:, bad], big[bad] = 0.0, 0.0, 0.0
    e = -np.frexp(big)[1]
    np.ldexp(t.real, e, out=t.real)
    np.ldexp(t.imag, e, out=t.imag)
    np.ldexp(mag, e, out=mag)
    x1, y1, x2, y2 = t[_COFACTOR_TERMS]
    c = x1 * y1 - x2 * y2
    mx1, my1, mx2, my2 = mag[_COFACTOR_TERMS]
    m = mx1 * my1 + mx2 * my2
    det = np.abs(t[0] * c[0] + t[1] * c[1] + t[2] * c[2])
    den = det - _GAMMA * (mag[0] * m[0] + mag[1] * m[1] + mag[2] * m[2])
    num = (np.sqrt((mag * mag).sum(axis=0))
           * (np.sqrt((c.real * c.real + c.imag * c.imag).sum(axis=0)) + _GAMMA * m.sum(axis=0)))
    ok = (den > 0) & (det >= _TINY)
    with np.errstate(over="ignore"):   # a quotient too large for a double is +inf
        return np.where(ok, num / np.where(ok, den, 1.0) * (1.0 + _GAMMA), np.inf)


PIECE_FIELDS = 4864   # fields per piece of text: 256 Touchstone records of 19


def pieces(n: int, columns: int):
    """Slices covering range(n) in order, rows of ``columns`` fields, about PIECE_FIELDS at a time.

    Text formatting works piece by piece, which bounds the memory its
    temporaries hold; a piece takes at least one row.
    """
    rows = max(1, PIECE_FIELDS // columns)
    return (slice(start, start + rows) for start in range(0, n, rows))


# Tables of the %.Ne kernel: little-endian uint32 words of four ASCII bytes.  A
# field of D digits after the point fills (D + 8) / 4 words, [sign, lead digit,
# '.', d1], groups of four digits, [d, d, d, 'e'] and [exponent sign, X, X,
# separator], where the sign of a field that is not negative is a zero byte.
_WORD = np.dtype("<u4")
_FAST_K = 22   # 10.0**k is an exact double for 0 <= k <= 22
_POW10 = np.array([float(10 ** k) for k in range(_FAST_K + 1)])


def _words(*places) -> np.ndarray:
    """The words of every combination of ``places``, each a bytes of choices, the first slowest."""
    axes = [np.frombuffer(choices, dtype=np.uint8) for choices in places]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return np.ascontiguousarray(grid).view(_WORD).reshape(-1)


_DIGITS = b"0123456789"
_HEADS = _words(b"\0-", _DIGITS, b".", _DIGITS)         # 100 * negative + 10 * lead + d1
_GROUPS = _words(_DIGITS, _DIGITS, _DIGITS, _DIGITS)      # "0000" .. "9999"
_TAILS = _words(_DIGITS, _DIGITS, _DIGITS, b"e")          # "000e" .. "999e"
# "-99" .. "+99", indexed by exponent + 99, the separator byte left zero
_EXPONENTS = np.frombuffer(b"".join(b"%+03d\0" % e for e in range(-99, 100)), dtype=_WORD)


def format_rows(table: np.ndarray, digits: int, separators: str):
    """ASCII text of an (N, M) float table, as an iterator of bytes pieces.

    Each field is exactly ``"%.{digits}e" % x`` and is followed by its
    column's character in ``separators`` (M characters, the last usually a
    line end).  ``digits``, the count after the point, is 4, 8 or 12, whole
    groups of four (Touchstone uses 8, CSV 12).  The digits come from array
    arithmetic (see the module docstring); the fields that arithmetic cannot
    vouch for are formatted with ``%``.  A piece holds whole rows, about
    PIECE_FIELDS fields, which bounds the memory of the temporaries.  The
    arguments are checked here, before the first piece is asked for.
    """
    table = np.asarray(table, dtype=float)
    if digits not in (4, 8, 12):
        raise ValidationError(f"digits must be 4, 8 or 12, got {digits!r}")
    if len(separators) != table.shape[1]:
        raise ValidationError(f"need one separator per column ({table.shape[1]}), "
                              f"got {len(separators)}")
    return _format_pieces(table, digits, separators)


def _format_pieces(table: np.ndarray, digits: int, separators: str):
    spec = f"%.{digits}e"
    low, high = 10 ** digits, 10 ** (digits + 1)
    # |y - rint(y)| must clear 1/2 by twice the largest ulp of a mantissa below `high`
    guard = 0.5 - 2.0 * float(np.spacing(float(high)))
    words = (digits + 8) // 4
    head_unit = 10 ** (digits - 1)   # a mantissa over this is its lead digit and d1
    # the last word of a field, [exponent sign, X, X, separator], of every column and
    # exponent; a field's is at last_base[column] - k + carry (its exponent is digits - k + carry)
    sep_words = np.array([ord(c) for c in separators], dtype=_WORD) << 24
    last_words = (sep_words[:, None] | _EXPONENTS).ravel()
    last_base = np.arange(len(separators)) * len(_EXPONENTS) + digits + 99
    sep_bytes = [c.encode("ascii") for c in separators]
    for piece in pieces(len(table), table.shape[1]):
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
            m = m.astype(np.int64)   # meaningless where not fast, so replaced below
        slow = np.flatnonzero(~fast)
        m.ravel()[slow] = low
        carry = m == high   # 9.99..95 rounds up into the next exponent
        m[carry] = low
        top = m // head_unit
        rest = m - top * head_unit   # digits - 1 digits: groups of four, then three
        buf = np.empty(x.shape + (words,), dtype=_WORD)
        buf[..., 0] = _HEADS[np.signbit(x) * 100 + top]
        quotient = rest // 1000
        buf[..., -2] = _TAILS[rest - quotient * 1000]
        for g in range(words - 3, 1, -1):   # the groups of four, the last first
            rest = quotient // 10_000
            buf[..., g] = _GROUPS[quotient - rest * 10_000]
            quotient = rest
        if words > 3:
            buf[..., 1] = _GROUPS[quotient]
        buf[..., -1] = last_words[(last_base - k) + carry]
        if slow.size:
            fields = [(spec % v).encode("ascii") for v in x.ravel()[slow].tolist()]
            if max(map(len, fields)) >= 4 * words:   # no room for its separator
                yield b"".join((spec % v).encode("ascii") + sep
                               for v, sep in zip(x.ravel().tolist(), sep_bytes * len(x)))
                continue
            text = b"".join(field.ljust(4 * words - 1, b"\0") + sep_bytes[c]
                            for field, c in zip(fields, (slow % x.shape[1]).tolist()))
            buf.reshape(-1, words)[slow] = np.frombuffer(text, dtype=_WORD).reshape(-1, words)
        # the only zero bytes: the sign of a field that is not negative, and a slot's padding
        yield buf.tobytes().replace(b"\0", b"")


def write_rows(destination, head: str, table: np.ndarray, digits: int, separators: str) -> None:
    """Write ``head``, then the text of :func:`format_rows`, to ``destination`` piece by piece.

    ``destination`` is a path, opened in binary mode, a binary stream
    (``io.RawIOBase`` or ``io.BufferedIOBase``), or any other stream, which
    takes ``str``.  The arguments of :func:`format_rows`, and for bytes the
    ASCII of ``head``, are checked before a path is opened.
    """
    rows = format_rows(table, digits, separators)
    if not hasattr(destination, "write"):
        data = head.encode("ascii")
        with open(destination, "wb") as fh:
            fh.write(data)
            fh.writelines(rows)
    elif isinstance(destination, (io.RawIOBase, io.BufferedIOBase)):
        destination.write(head.encode("ascii"))
        destination.writelines(rows)
    else:
        destination.write(head)
        destination.writelines(piece.decode("ascii") for piece in rows)


def csv_text(header: str, table: np.ndarray, destination=None):
    """CSV of an (N, M) float table: the header line, then ``%.12e`` fields, LF endings.

    Returned as a ``str``; given a ``destination`` (see :func:`write_rows`),
    written there instead, and None returned.
    """
    out = io.StringIO() if destination is None else destination
    write_rows(out, header + "\n", table, 12, "," * (table.shape[1] - 1) + "\n")
    return out.getvalue() if destination is None else None


_NON_ASCII = re.compile(r"[^\x00-\x7f]")


def non_ascii_line(text):
    """The 1-based line of the first non-ASCII character of a str or bytes, else None.

    Lines are counted as ``str.splitlines`` counts them.
    """
    if text.isascii():
        return None
    if isinstance(text, bytes):
        text = text.decode("latin-1")
    return len((text[:_NON_ASCII.search(text).start()] + "x").splitlines())


# Tables of the parse kernel.  The whitespace of str.split() and the line
# breaks of str.splitlines(), among ASCII bytes.
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(b"\t\n\v\f\r\x1c\x1d\x1e\x1f ")] = True
_BREAK = np.zeros(256, dtype=bool)
_BREAK[list(b"\n\r\v\f\x1c\x1d\x1e")] = True
LINE_BREAK = re.compile(rb"\r\n|[\n\r\v\f\x1c-\x1e]")   # one line end, CR LF as one
_COMMENT = re.compile(rb"![^\n\r\v\f\x1c-\x1e]*")
PIECE_BYTES = 1 << 17   # parse_fields works through this many bytes of whole lines at a time
_PAD = b" " * 16   # before the text, so that a load at (field end - 16) stays inside it
_U64 = np.uint64
# A fast field [+-]d.dddddddd[eE][+-]dd has the value M * _UP[i] / _DOWN[i]: M is
# its 9 digits, i = 256 * (minus sign) + 100 * (negative exponent) + |exponent|
# and k = exponent - 8.  For k >= 0, _UP = +-10**k and _DOWN = 1; for k < 0,
# _UP = +-1 and _DOWN = 10**-k; NaN marks |k| > 22 and the i no field gives.
_EXPONENTS_K = [(-1 if i >= 100 else 1) * (i % 100) - 8 if i < 200 else None for i in range(256)]
_UP = np.array([sign * (float("nan") if k is None or abs(k) > _FAST_K else float(10 ** max(k, 0)))
                for sign in (1.0, -1.0) for k in _EXPONENTS_K])
_DOWN = np.array([float(10 ** -k) if k is not None and -_FAST_K <= k < 0 else 1.0
                  for k in _EXPONENTS_K] * 2)
# The bytes at (end - 14, end - 13, end - 4, ... end - 1) of a fast field, put in
# one word as lead digit, '.', 'e', sign, two exponent digits; XOR with this
# template leaves 0..9, 0, 0, 0 or 6, 0..9, 0..9 (after 'E' is made 'e').
_TEMPLATE = _U64(0x0000_3030_2B65_2E30)


class FieldError(ValueError):
    """A field that float() refuses: its text, its line (from 0) and its place on that line."""

    def __init__(self, token: str, line: int, field: int):
        super().__init__(f"not a number: {token!r}")
        self.token, self.line, self.field = token, line, field


def parse_fields(text: bytes, start: int = 0):
    """Fields per line and the value of every field of ASCII ``text[start:]``.

    ``start`` is the start of a line.  Lines are those of
    ``str.splitlines()``, each cut at its first ``!``; its
    fields are those of ``str.split()``.  Returns ``(counts, values)``: the
    field count of every line and the float of every field in text order,
    each value ``float(field)`` bit for bit.  Fields written as ``%.8e``
    writes them, with an exponent from -14 to +30, are converted by array
    arithmetic (see the module docstring), every other field by ``float()``.
    Raises :class:`FieldError` on the first field ``float()`` refuses.  The
    text is worked through in pieces of about PIECE_BYTES bytes of whole
    lines, which bounds the memory of the temporaries.
    """
    if start < len(_PAD):
        text, start = _PAD + text[start:], len(_PAD)
    line_ends, values = [np.zeros(1, dtype=np.intp)], [np.zeros(0)]
    lines = fields = 0
    while start < len(text):
        stop = start + PIECE_BYTES
        end = LINE_BREAK.search(text, stop - 1) if stop < len(text) else None
        stop = end.end() if end else len(text)
        try:
            piece_ends, piece_values = _parse_piece(text, start, stop)
        except FieldError as err:
            err.line += lines
            raise
        line_ends.append(piece_ends + fields)
        values.append(piece_values)
        lines += len(piece_ends)
        fields += len(piece_values)
        start = stop
    return np.diff(np.concatenate(line_ends)), np.concatenate(values)


def _parse_piece(text: bytes, start: int, stop: int):
    """Fields before the end of each line of text[start:stop], and the field values.

    The piece holds whole lines, and at least 16 bytes come before it.
    """
    unterminated = not _BREAK[text[stop - 1]]   # a last line without a line break
    if text.find(b"!", start, stop) >= 0:
        text = _PAD + _COMMENT.sub(b" ", text[start:stop])   # " ": CR ! LF stays two breaks
        start, stop = len(_PAD), len(text)
    a = np.frombuffer(text, dtype=np.uint8)
    low = np.flatnonzero(a[start:stop] <= 32) + start
    low_bytes = a[low]
    is_space = _SPACE[low_bytes]
    space = low[is_space]              # the positions of whitespace
    space_bytes = low_bytes[is_space]
    # field j lies between bounds[gaps[j]] and bounds[gaps[j] + 1]
    bounds = np.concatenate(([start - 1], space, [stop]))
    gaps = np.flatnonzero(np.diff(bounds) > 1)
    ends = bounds[1:][gaps]
    length = ends - bounds[gaps] - 1
    n = len(gaps)

    # a line ends at each line break but the LF of a CR LF; the fields before
    # the break at space[b] are those with gaps[j] <= b
    control = np.flatnonzero(space_bytes < 32)
    control_bytes = space_bytes[control]
    crlf = (control_bytes == 10) & (a[space[control] - 1] == 13)
    line_ends = np.searchsorted(gaps, control[_BREAK[control_bytes] & ~crlf], side="right")
    if unterminated:
        line_ends = np.append(line_ends, n)

    # Fields of 14 characters, or 15 with a sign, are candidates: c indexes them
    c = np.flatnonzero((length == 14) | (length == 15))
    if c.size == n:   # as in the files the writer writes: index by a view, not a copy
        c = slice(None)
    ce = ends[c]
    words = np.ndarray((len(a) - 7,), dtype="<u8", buffer=text, strides=(1,))
    head = words[ce - 16]   # bytes end-16 .. end-9: ?, sign, lead digit, '.', digits 1-4
    tail = words[ce - 8]    # bytes end-8 .. end-1: digits 5-8, 'e', sign, exponent
    digits = ((head >> _U64(32)) | (tail << _U64(32))) - _U64(0x3030303030303030)
    fixed = (((head >> _U64(16)) & _U64(0xFFFF)) | ((tail >> _U64(32)) << _U64(16))
             | _U64(0x200000)) ^ _TEMPLATE
    sign = (head >> _U64(8)) & _U64(0xFF)   # the byte before a 14-character field
    minus = sign == _U64(45)
    # every digit byte in '0'..'9': no byte of the difference borrowed or exceeds 9
    ok = (((digits + _U64(0x7676767676767676)) | digits) & _U64(0x8080808080808080)) == _U64(0)
    # '.' and 'e' give 0; digits and the exponent sign at most 15, then at most 9 and 0 or 6
    ok &= (fixed & _U64(0x0000_F0F0_F9FF_FFF0)) == _U64(0)
    ok &= ((fixed + _U64(0x0000_0606_0200_0006)) & _U64(0x0000_F0F0_0400_00F0)) == _U64(0)
    ok &= length[c] - (minus | (sign == _U64(43))) == 14   # 15 characters only with a sign
    # the 8 digits by SWAR: pairs, then pairs of pairs, then the 8-digit number
    digits = digits * _U64(10) + (digits >> _U64(8))
    digits = ((((digits & _U64(0x000000FF000000FF)) * _U64(0x000F424000000064))
               + (((digits >> _U64(16)) & _U64(0x000000FF000000FF)) * _U64(0x0000271000000001)))
              >> _U64(32)) & _U64(0xFFFFFFFF)
    mantissa = ((fixed & _U64(0xFF)) * _U64(100_000_000) + digits).astype(np.float64)
    # 50 * (exponent sign byte & 2) + 10 * tens + ones, from one multiplication
    i = ((((fixed >> _U64(24)) & _U64(0x0F0F02)) * _U64(0x320A01) >> _U64(16))
         & _U64(0xFF)).view(np.int64) + minus * 256
    fast = mantissa * _UP.take(i)
    fast /= _DOWN.take(i)
    values = np.empty(n)
    values[c] = fast
    slow = np.ones(n, dtype=bool)
    slow[c] = ~ok | np.isnan(fast)
    slow = np.flatnonzero(slow)
    if slow.size:
        fields = text[start:stop].decode("ascii").split()   # str.split() splits FS .. US too
        if slow.size < n:
            fields = [fields[j] for j in slow.tolist()]
        try:
            values[slow] = np.fromiter(map(float, fields), dtype=np.float64, count=len(fields))
        except ValueError:
            for j, field in zip(slow.tolist(), fields):
                try:
                    float(field)
                except ValueError:
                    line = int(np.searchsorted(line_ends, j, side="right"))
                    raise FieldError(field, line,
                                     j - int(line_ends[line - 1] if line else 0)) from None
    return line_ends, values
