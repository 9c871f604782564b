"""Stacked LAPACK solves, condition numbers and the text kernels."""

from dataclasses import replace

import numpy as np
import pytest

from tsvkit import (DEFAULT_GEOMETRY, DEFAULT_MATERIALS, FrequencyGrid, NetworkDegeneracyError,
                    ValidationError, numerics, s_sweep, z_sweep)
from tsvkit.numerics import (PIECE_FIELDS, FieldError, condition_bound, condition_number, csv_text,
                             format_rows, non_ascii_line, parse_fields, pieces, solve_extended,
                             write_rows)


def random_stack(rng, count, n):
    """Complex systems spanning 12 decades, with structural zeros and weak diagonals."""
    a = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    a *= 10.0 ** rng.uniform(-6, 6, size=(count, 1, n))
    a[rng.random((count, n, n)) < 0.3] = 0.0
    a[:, range(n), range(n)] *= 1e-3          # most first columns need a row swap
    for j in range(count):
        while np.linalg.matrix_rank(a[j]) < n:
            a[j] = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a


class TestStackedSolve:
    @pytest.mark.parametrize("n", [3, 5])
    def test_members_match_lone_solves_bit_for_bit(self, n):
        rng = np.random.default_rng(20 + n)
        a = random_stack(rng, 300, n)
        b = rng.normal(size=(300, n, 3)) + 1j * rng.normal(size=(300, n, 3))
        x = solve_extended(a, b)
        assert x.shape == (300, n, 3) and x.dtype == np.complex128
        for j in range(300):
            assert solve_extended(a[j:j + 1], b[j:j + 1]).tobytes() == x[j].tobytes()
        # each member is solved to the accuracy its condition number allows
        residual = np.abs(a @ x - b).max(axis=(1, 2))
        scale = np.abs(a).max(axis=(1, 2)) * np.abs(x).max(axis=(1, 2))
        assert (residual <= 1e-12 * scale).all()

    def test_singular_member_raises_with_its_index(self):
        rng = np.random.default_rng(9)
        a = random_stack(rng, 8, 3)
        a[5, 2] = a[5, 0]                 # two equal rows: an exact zero at the last pivot
        a[6, :, 0] = 0.0                  # a zero column: an exact zero at the first pivot
        with pytest.raises(NetworkDegeneracyError, match="singular") as err:
            solve_extended(a, np.ones((8, 3, 1)))
        assert err.value.index == 5
        a[5] = np.eye(3)
        with pytest.raises(NetworkDegeneracyError) as err:
            solve_extended(a, np.ones((8, 3, 1)))
        assert err.value.index == 6
        with pytest.raises(NetworkDegeneracyError) as err:
            solve_extended(np.zeros((1, 3, 3)), np.ones((1, 3, 1)))
        assert err.value.index == 0


class TestConditionNumber:
    def test_one_member_stack_equals_its_member_of_a_stack(self):
        rng = np.random.default_rng(3)
        a = random_stack(rng, 6, 3)
        cond = condition_number(a)
        assert cond.shape == (6,)
        for j in range(6):
            assert condition_number(a[j:j + 1]).tolist() == [cond[j]]

    def test_equals_numpy_cond(self):
        rng = np.random.default_rng(4)
        a = random_stack(rng, 300, 3)
        a[5] = 0.0
        a[6, 2] = a[6, 0]                                # singular
        a[7, 1, 1] = np.inf
        a[8] = np.inf
        a[9, 0, 0] = 1e-300
        cond = condition_number(a)
        assert cond.tobytes() == np.linalg.cond(a).tobytes()
        for j in range(10):
            assert condition_number(a[j:j + 1]).tolist() == [np.linalg.cond(a[j])]
        nan = a[:8].copy()
        nan[3, 1, 2] = np.nan
        nan_cond = condition_number(nan)
        keep = np.arange(8) != 3
        assert nan_cond[3] == np.inf
        assert nan_cond[keep].tobytes() == np.linalg.cond(nan[keep]).tobytes()

    def test_singular_and_non_finite_members_are_infinite(self):
        a = np.stack([np.eye(3), np.zeros((3, 3)), np.eye(3), np.eye(3)]).astype(complex)
        a[2, 1, 1] = np.nan
        a[3, 0, 2] = np.inf
        assert condition_number(a).tolist() == [1.0, np.inf, np.inf, np.inf]
        assert condition_number(a[2:3]).tolist() == [np.inf]

    def test_non_finite_members_never_reach_lapack(self, capfd):
        # LAPACK prints "** On entry to DLASCL ..." to stdout for an all-inf matrix
        a = np.stack([np.full((3, 3), np.inf), np.eye(3), np.full((3, 3), np.nan)])
        a[1, 2, 0] = -np.inf
        assert condition_number(a[:1]).tolist() == [np.inf]
        assert condition_number(a).tolist() == [np.inf] * 3
        assert condition_number(np.full((2, 3, 3), np.inf + 1j)).tolist() == [np.inf] * 2
        assert capfd.readouterr() == ("", "")


def prescribed_stack(rng, count):
    """Members U diag(1, s, 1/k) V^H, k log-uniform in [1, 1e17], scaled by 1e-300 .. 1e300."""
    def unitary():
        q, _ = np.linalg.qr(rng.normal(size=(count, 3, 3)) + 1j * rng.normal(size=(count, 3, 3)))
        return q
    log_k = rng.uniform(0.0, 17.0, count)
    sigma = np.stack([np.ones(count), 10.0 ** -(rng.uniform(0.0, 1.0, count) * log_k),
                      10.0 ** -log_k], axis=1)
    a = (unitary() * sigma[:, None, :]) @ unitary().conj().swapaxes(1, 2)
    return a * 10.0 ** rng.uniform(-300.0, 300.0, (count, 1, 1))


def svd_condition_number(a):
    """np.linalg.cond of each member scaled exactly by a power of two to a largest entry near 1.

    LAPACK's own rescaling of subnormal entries is inexact: on them its
    condition number can differ between calls on the same matrix.
    """
    e = np.frexp(np.abs(a).max(axis=(1, 2)))[1][:, None, None]
    return np.linalg.cond(np.ldexp(a.real, -e) + 1j * np.ldexp(a.imag, -e))


# The bound as first written, gathering the four factors of every cofactor
# into (4, 9, N) copies: the reference the row-by-row products must match.
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])
_COFACTOR_TERMS = np.stack([(3 * rows[:, None] + cols).ravel() for rows, cols in
                            ((_NEXT, _NEXT), (_LAST, _LAST), (_NEXT, _LAST), (_LAST, _NEXT))])


def gathered_condition_bound(a):
    gamma, tiny = numerics._GAMMA, numerics._TINY
    t = np.asarray(a, dtype=np.complex128).reshape(-1, 9).T.copy()
    mag = np.abs(t)
    big = mag.max(axis=0)
    bad = ~np.isfinite(big)
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
    den = det - gamma * (mag[0] * m[0] + mag[1] * m[1] + mag[2] * m[2])
    num = (np.sqrt((mag * mag).sum(axis=0))
           * (np.sqrt((c.real * c.real + c.imag * c.imag).sum(axis=0)) + gamma * m.sum(axis=0)))
    ok = (den > 0) & (det >= tiny)
    with np.errstate(over="ignore"):
        return np.where(ok, num / np.where(ok, den, 1.0) * (1.0 + gamma), np.inf)


class TestConditionBound:
    def test_never_below_the_svd_condition_number(self):
        rng = np.random.default_rng(11)
        a = prescribed_stack(rng, 60_000)
        a[:600] /= np.abs(a[:600]).max(axis=(1, 2), keepdims=True)
        a[:200] *= 1e-310                  # subnormal entries
        a[200:400] *= 1e307                # near overflow
        a[400:600] = np.eye(3) * 5e-324    # the smallest subnormal on the diagonal
        a[600:610] = 0.0
        a[610:620, 1, 1] = np.inf
        a[620:630, 2, 0] = np.nan
        bound = condition_bound(a)
        assert (bound[600:630] == np.inf).all()
        a, bound = np.delete(a, np.s_[600:630], axis=0), np.delete(bound, np.s_[600:630])
        cond = svd_condition_number(a)
        finite = np.isfinite(bound)
        assert not (bound[finite] < cond[finite]).any()
        identity = condition_bound(np.eye(3)[None])[0]
        assert 3.0 < identity < 3.0 + 1e-13 and (bound[400:600] == identity).all()
        # the bound clears most members within a limit of 1e12
        assert finite.sum() > 0.5 * len(a)
        assert (bound <= 1e12).sum() > 0.9 * (cond <= 1e11).sum()

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 2001, 20001])
    def test_same_bits_as_the_gathered_cofactors(self, count):
        rng = np.random.default_rng(40 + count)
        a = prescribed_stack(rng, count)   # 1e-300 .. 1e300
        a[rng.random(count) < 0.1] *= 1e-24     # a few subnormal ones
        for k, member in enumerate(rng.integers(0, count, size=min(count, 40)).tolist()):
            kind = k % 5
            if kind == 0:
                a[member, 2] = a[member, 0] * 0.5   # singular
            elif kind == 1:
                a[member] = 0.0
            elif kind == 2:
                a[member, k % 3, (k + 1) % 3] = [np.nan, np.inf, -np.inf * 1j][k % 3]
            elif kind == 3:
                a[member, (k + 2) % 3] = 0.0
            else:
                a[member, 0, 0] = complex(1.5e308, 1.5e308)   # a finite entry, an infinite modulus
        bound = condition_bound(a)
        assert bound.tobytes() == gathered_condition_bound(a).tobytes()

    def test_singular_zero_and_non_finite_members_are_infinite(self, capfd):
        a = np.stack([np.eye(3)] * 7).astype(complex)
        a[1] = 0.0
        a[2, 2] = a[2, 0]                  # singular
        a[3, 1, 1] = np.nan
        a[4, 0, 2] = np.inf
        a[5] = np.inf
        a[6, 2, 2] = 1e-200                # condition number 1e200
        bound = condition_bound(a)
        assert 3.0 < bound[0] < 3.0 + 1e-13 and bound[1:].tolist() == [np.inf] * 6
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("count", [1, 2, 300])
    def test_leaves_its_input_unchanged(self, count):
        # the members are scaled by powers of two, and non-finite ones zeroed, in a copy
        a = 1e5 * random_stack(np.random.default_rng(count), count, 3)
        a[-1, 0, 0] = np.inf
        before = a.copy()
        condition_bound(a)
        assert a.tobytes() == before.tobytes()



def test_pieces_cover_the_axis_in_order():
    rows = PIECE_FIELDS // 19   # Touchstone records of 19 fields
    axis = range(2 * rows + 3)
    assert [i for piece in pieces(len(axis), 19) for i in axis[piece]] == list(axis)
    assert [len(axis[piece]) for piece in pieces(len(axis), 19)] == [rows, rows, 3]
    assert rows == 256
    assert list(pieces(0, 19)) == []


def reference_rows(table, digits, separators):
    """The text format_rows must give: one plain % conversion per field."""
    row = "".join(f"%.{digits}e" + separator for separator in separators)
    return (row * len(table)) % tuple(table.ravel().tolist())


def as_table(values, columns=7):
    values = np.asarray(values, dtype=float).ravel()
    return np.concatenate([values, np.full(-len(values) % columns, 1.0)]).reshape(-1, columns)


SEPARATORS = " " * 6 + "\n"


@pytest.mark.parametrize("digits", [8, 12])
class TestFormatRows:
    """format_rows against % for Touchstone (8 digits) and CSV (12 digits) fields."""

    def check(self, values, digits, separators=SEPARATORS):
        table = as_table(values, len(separators))
        assert b"".join(format_rows(table, digits, separators)).decode() == \
            reference_rows(table, digits, separators)

    def test_exact_and_near_ties(self, digits):
        rng = np.random.default_rng(digits)
        whole = rng.integers(10 ** digits, 10 ** (digits + 1), 3000)   # digits + 1 figures
        # exact binary ties at digits + 2 figures (halving keeps half of them ties)
        ties = np.concatenate([whole + 0.5, (whole + 0.5) / 2, whole * 10.0 + 5.0,
                               [1234567895.0, 12345678901235.0, 0.125, 2.5]])
        # the same figures at other scales: the doubles nearest those decimals lie
        # within an ulp of a tie, where one rounding of |x| * 10**k can land on it
        near = [float(f"{n}5e{j}") for n, j in zip(whole[:2000].tolist(),
                                                    rng.integers(-25, 25, 2000).tolist())]
        self.check(np.concatenate([ties, -ties, near, np.nextafter(near, 0),
                                   np.nextafter(near, np.inf)]), digits)

    def test_powers_of_ten_and_carry_boundaries(self, digits):
        values = []
        for j in range(-30, 31):
            carry = float(f"9.{'9' * digits}5e{j}")   # rounds up into exponent j + 1
            for v in (10.0 ** j, float(f"1e{j}"), carry):
                below = above = v
                for _ in range(3):
                    below, above = np.nextafter(below, 0), np.nextafter(above, np.inf)
                    values += [below, above]
                values.append(v)
        self.check(values + [-v for v in values], digits)

    def test_special_values(self, digits):
        self.check([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1.7e308, -1.7e308,
                    2.2250738585072014e-308, 1.7976931348623157e308, 1e22, 1e23, 1e-10,
                    1e-11, 1e34, 1e35], digits)

    def test_random_bit_patterns(self, digits):
        rng = np.random.default_rng(100 + digits)
        patterns = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64, endpoint=False).view(float)
        scaled = 10.0 ** rng.uniform(-40, 40, 20_000) * rng.choice([-1.0, 1.0], 20_000)
        self.check(np.concatenate([patterns, scaled]), digits)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sweep_tables_of_seeded_designs(self, digits, seed):
        scale = 1.15 ** np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
        geom, mat = DEFAULT_GEOMETRY, DEFAULT_MATERIALS
        geom = replace(geom, height=geom.height * scale[0], radius=geom.radius * scale[1],
                       pitch=geom.pitch * scale[2])
        mat = replace(mat, sigma_si=mat.sigma_si * scale[3])
        zs = z_sweep(FrequencyGrid.logarithmic(1e6, 100e9, 20_001), geom, mat)
        for matrices in (zs.z, s_sweep(zs).s):
            flat = matrices.reshape(len(zs), 9)
            self.check(np.column_stack([zs.frequency, flat.real, flat.imag]), digits,
                       "," * 18 + "\n")

    def test_every_column_count_across_pieces(self, digits):
        rng = np.random.default_rng(digits + 1)
        for columns in range(1, 20):
            rows = PIECE_FIELDS // columns
            table = 10.0 ** rng.uniform(-30, 30, (2 * rows + 3, columns))
            table *= rng.choice([-1.0, 1.0], table.shape)
            for j in range(columns):
                # first piece: fields % writes into their slots
                table[3 * j:3 * j + 3, j] = np.inf, np.nan, -0.0
                # second piece: fields too wide for a slot, so % writes the piece whole
                table[rows + 3 * j:rows + 3 * j + 3, j] = 1e200, -1e-310, -np.inf
                table[2 * rows + j % 3, j] = -0.0   # the last piece, of three rows
            separators = "," * (columns - 1) + "\n"
            out = list(format_rows(table, digits, separators))
            assert [piece.count(b"\n") for piece in out] == [rows, rows, 3]
            assert b"".join(out).decode() == reference_rows(table, digits, separators)

    def test_pieces_and_arguments(self, digits):
        rows = PIECE_FIELDS // 7
        table = as_table(np.arange(1.0, 1 + 7 * (rows + 5)))
        out = list(format_rows(table, digits, SEPARATORS))
        assert [piece.count(b"\n") for piece in out] == [rows, 5]
        assert list(format_rows(np.empty((0, 7)), digits, SEPARATORS)) == []
        assert csv_text("a,b", np.array([[1.0, -0.0]])) == "a,b\n%.12e,%.12e\n" % (1.0, -0.0)
        with pytest.raises(ValidationError):
            list(format_rows(table, digits, SEPARATORS[1:]))
        with pytest.raises(ValidationError):
            list(format_rows(table, 10, SEPARATORS))


def test_arguments_are_checked_before_a_path_is_opened(tmp_path):
    path = tmp_path / "never.txt"
    for digits, separators in ((10, ",\n"), (12, "\n")):
        with pytest.raises(ValidationError):
            write_rows(path, "head\n", np.ones((2, 2)), digits, separators)
        assert not path.exists()


def reference_fields(text):
    """What parse_fields must give: str.splitlines, partition("!"), str.split, float()."""
    rows = [line.partition("!")[0].split() for line in text.decode("ascii").splitlines()]
    return [len(row) for row in rows], np.array([float(field) for row in rows for field in row])


def fields_text(values, spec="%.8e", per_line=7):
    fields = [spec % v for v in np.asarray(values, dtype=float).tolist()]
    return "".join(" ".join(fields[i:i + per_line]) + "\n"
                   for i in range(0, len(fields), per_line)).encode("ascii")


class TestParseFields:
    """parse_fields against str.splitlines, str.split and float(), bit for bit."""

    def check(self, text, start=0):
        counts, values = parse_fields(text, start)
        ref_counts, ref_values = reference_fields(text[start:])
        assert counts.tolist() == ref_counts
        assert values.tobytes() == ref_values.tobytes()
        return values

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(7)
        patterns = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64, endpoint=False).view(float)
        self.check(fields_text(patterns))

    def test_every_exponent_and_the_fast_range_edge(self):
        rng = np.random.default_rng(8)
        values = []
        for j in range(-30, 31):
            for m in [1.0, 9.99999999, 5.000000005, *rng.uniform(1, 10, 20).tolist()]:
                v = float(f"{m:.8f}e{j}")
                values += [v, -v, np.nextafter(v, 0), np.nextafter(v, np.inf)]
        values = self.check(fields_text(values))
        assert np.isfinite(values).all()

    def test_fast_form_within_its_range_never_reaches_float(self, monkeypatch):
        calls = []

        def counting_float(field):
            calls.append(field)
            return float(field)

        monkeypatch.setattr(numerics, "float", counting_float, raising=False)
        rng = np.random.default_rng(9)
        inside = rng.uniform(1, 10, 3000) * 10.0 ** rng.integers(-14, 31, 3000)
        inside[::2] *= -1
        self.check(fields_text(inside) + b"1.00000000e-14 -9.99999999e+30 +1.00000000E-14\n")
        assert calls == []
        self.check(b"1.00000000e-15 9.99999999e+31 1.0000000e+05 1.000000000e+05 1e5 "
                   b"1.00000000e+005\n")
        assert len(calls) == 6

    def test_signs_zeros_subnormals_and_long_exponents(self):
        self.check(b"0.00000000e+00 -0.00000000e+00 +0.00000000e+00 -0.00000000e-14 "
                   b"+1.23456789e+05 1.23456789E+05 -1.23456789E-05 4.94065646e-324 "
                   b"-2.22507386e-308 1.79769313e+308 1.00000000e+100 1.00000000e-100 "
                   b"-0 +.5 5. 1_0 nan -inf +inf 1e400 -1e-400 0.5 12 1.234567890e+05\n")

    def test_fields_per_line(self):
        rng = np.random.default_rng(10)
        fields = ["1.00000000e+05", "-2.5", "7", "", "!", "! x 1"]
        spaces = [" ", "  ", "\t", "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f",
                  "\n\n", "\r\r", " \n "]
        for _ in range(200):
            text = "".join(a + b for a, b in zip(rng.choice(fields, 40),
                                                 rng.choice(spaces, 40))).encode("ascii")
            self.check(text)
            self.check(b"\n" * 20 + text, start=int(rng.integers(0, 21)))

    @pytest.mark.parametrize("piece_bytes", [1, 3, 100])
    def test_pieces_keep_lines_whole(self, piece_bytes, monkeypatch):
        monkeypatch.setattr(numerics, "PIECE_BYTES", piece_bytes)
        text = fields_text(np.linspace(-3, 3, 70), per_line=6)
        for br in ("\n", "\r\n", "\r", "\x1e", "\r\r\n"):
            self.check(text.replace(b"\n", br.encode("ascii")))
            self.check(text.replace(b"\n", br.encode("ascii")).rstrip())

    def test_refused_field_names_line_and_place(self):
        for text, line, field, token in [(b"1 2\n3 x\n", 1, 1, "x"),
                                         (b"1\r\n\r\n2 3 1\x00 4\n", 2, 2, "1\x00"),
                                         (b"# 1\n", 0, 0, "#"),
                                         (b"1.00000000e+05 1.0000000xe+05\x1c", 0, 1,
                                          "1.0000000xe+05")]:
            with pytest.raises(FieldError) as err:
                parse_fields(text)
            assert (err.value.line, err.value.field, err.value.token) == (line, field, token)

    def test_one_character_changed_anywhere(self):
        # every printable character at every place of a fast field: the field
        # either is a float, with the value float() gives, or is refused
        token = b"-1.23456789e+05"
        accepted = []
        for place in range(len(token)):
            for byte in range(34, 127):   # 33 is "!", which starts a comment
                field = token[:place] + bytes([byte]) + token[place + 1:]
                try:
                    float(field)
                except ValueError:
                    with pytest.raises(FieldError):
                        parse_fields(b"1.00000000e+00 " + field + b"\n")
                else:
                    accepted.append(field)
        assert len(accepted) > 14 * 10
        self.check(b" ".join(accepted) + b"\n")
        self.check(b" ".join(field[1:] for field in accepted) + b"\n")

    def test_non_ascii_line(self):
        assert non_ascii_line(b"abc\n") is None and non_ascii_line("abc") is None
        assert non_ascii_line(b"a\r\nb\x0bc\xe9") == 3
        assert non_ascii_line("a\n\n\u00e9") == 3
        assert non_ascii_line(b"\xff") == 1
