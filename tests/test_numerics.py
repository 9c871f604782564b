"""Stacked extended-precision solves, condition numbers and the text kernels."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from tsvkit import (DEFAULT_GEOMETRY, DEFAULT_MATERIALS, FrequencyGrid, NetworkDegeneracyError,
                    ValidationError, numerics, rlgc_at, s_sweep, z_sweep)
from tsvkit.network import PORT_INDEX, nodal_admittance
from tsvkit.numerics import (PIECE_ROWS, FieldError, condition_number, csv_text, format_rows,
                             non_ascii_line, parse_fields, pieces, solve_extended)

# a floating-point warning leaked from a numerics path fails its test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def reference_solve(a, b):
    """Textbook elimination of one system, one row at a time, in clongdouble.

    The same pivot choice and order of row updates that solve_extended
    applies to every member of a stack.
    """
    a = np.asarray(a, dtype=np.clongdouble).copy()
    b = np.asarray(b, dtype=np.clongdouble).copy()
    n = a.shape[0]
    with np.errstate(all="ignore"):
        for k in range(n):
            piv = k + int(np.argmax(np.abs(a[k:, k])))
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
    return x.astype(np.complex128)


def every_row_stack_solve(a, b):
    """Stacked elimination that updates every row below each pivot under the m != 0 mask.

    Also returns, per pivot step, how many rows have a nonzero multiplier
    in some member: the rows solve_extended updates.
    """
    n = a.shape[-1]
    w = np.concatenate([a, b], axis=-1, dtype=np.clongdouble)
    live = []
    with np.errstate(all="ignore"):
        for k in range(n - 1):
            rel = np.abs(w[:, k:, k]).argmax(axis=1)
            swap = rel.nonzero()[0]
            piv = k + rel[swap]
            w[swap, k], w[swap, piv] = w[swap, piv], w[swap, k]
            m = w[:, k + 1:, k, None] / w[:, k, None, k, None]
            live.append(int((m != 0).any(axis=(0, 2)).sum()))
            below = w[:, k + 1:, k + 1:]
            np.subtract(below, m * w[:, k, None, k + 1:], out=below, where=m != 0)
        x = np.empty_like(w[:, :, n:])
        x[:, -1] = w[:, -1, n:] / w[:, -1, None, n - 1]
        for i in range(n - 2, -1, -1):
            x[:, i] = (w[:, i, n:] - (w[:, i, None, i + 1:n] @ x[:, i + 1:])[:, 0]) / w[:, i, None, i]
    return x.astype(np.complex128), live


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
        swapped = np.abs(a[:, :, 0]).argmax(axis=1) != 0
        assert swapped.sum() > 100
        x = solve_extended(a, b)
        assert x.shape == (300, n, 3) and x.dtype == np.complex128
        for j in range(300):
            lone = solve_extended(a[j], b[j])
            assert lone.tobytes() == x[j].tobytes()
            assert lone.tobytes() == reference_solve(a[j], b[j]).tobytes()

    def test_vector_right_hand_sides(self):
        rng = np.random.default_rng(5)
        a = random_stack(rng, 40, 5)
        b = rng.normal(size=(40, 5)) + 1j * rng.normal(size=(40, 5))
        x = solve_extended(a, b)
        assert x.shape == (40, 5)
        for j in range(40):
            assert x[j].tobytes() == reference_solve(a[j], b[j][:, None])[:, 0].tobytes()
        assert solve_extended(a[7], list(b[7])).tobytes() == x[7].tobytes()

    def test_zero_multiplier_leaves_its_row_untouched(self):
        # The update of row 1 is skipped, not done as a subtraction of
        # 0 * row 0, which would put 0 * inf = nan into it.
        a = np.array([[[1.0, np.inf], [0.0, 2.0]], [[1.0, 0.0], [0.0, 2.0]]])
        x = solve_extended(a, np.array([[1.0, 4.0], [1.0, 4.0]]))
        assert x[0, 1] == 2.0 and x[1].tolist() == [1.0, 2.0]

    def test_singular_member_raises_with_its_index(self):
        rng = np.random.default_rng(9)
        a = random_stack(rng, 8, 3)
        a[5, 2] = a[5, 0]                 # two equal rows: an exact zero at the last pivot
        a[6, :, 0] = 0.0                  # a zero column: an exact zero at the first pivot
        with pytest.raises(NetworkDegeneracyError, match="singular") as err:
            solve_extended(a, np.ones((8, 3)))
        assert err.value.index == 5
        a[5] = np.eye(3)
        with pytest.raises(NetworkDegeneracyError) as err:
            solve_extended(a, np.ones((8, 3)))
        assert err.value.index == 6
        with pytest.raises(NetworkDegeneracyError) as err:
            solve_extended(np.zeros((3, 3)), np.ones(3))
        assert err.value.index == 0


class TestLoneSolve:
    """A lone system has the bits of a stack member and of the textbook elimination."""

    @pytest.mark.parametrize("n", [3, 5])
    @pytest.mark.parametrize("special", ["none", "inf", "nan"])
    def test_lone_system_matches_stack_member_and_reference(self, n, special):
        rng = np.random.default_rng(40 + n)
        a = random_stack(rng, 120, n)
        a[::3, 1:, 0] = 0.0                  # zero multipliers at the first pivot
        a[::3, 0, 0] = 1.0
        a[::3, 1:, 1:] += np.eye(n - 1)      # the rest stays regular
        if special != "none":
            a[rng.random(a.shape) < 0.04] = np.inf if special == "inf" else np.nan
        b = rng.normal(size=(120, n, 2)) + 1j * rng.normal(size=(120, n, 2))
        for rhs in (b, b[..., 0]):
            solved = []
            for j in range(120):
                try:
                    lone = solve_extended(a[j], rhs[j])
                except NetworkDegeneracyError as err:   # an exact zero pivot, as inf entries give
                    assert err.index == 0
                    with pytest.raises(NetworkDegeneracyError):
                        solve_extended(a[j:j + 1], rhs[j:j + 1])
                    continue
                assert lone.shape == rhs[j].shape and lone.dtype == np.complex128
                ref = reference_solve(a[j], rhs[j].reshape(n, -1)).reshape(lone.shape)
                assert lone.tobytes() == ref.tobytes()
                solved.append((j, lone))
            assert len(solved) > 100
            members = [j for j, _ in solved]
            x = solve_extended(a[members], rhs[members])
            assert all(lone.tobytes() == x[i].tobytes() for i, (_, lone) in enumerate(solved))

    def test_signed_zeros(self):
        # signed zeros on the right-hand side come through as the textbook elimination has them
        a = np.array([[1.0, -1.0, 2.0], [0.0, -1.0, 1.0], [0.0, 0.0, 1.0]], dtype=complex)
        zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
        b = np.array(list(itertools.product(zeros, repeat=3)))
        x = solve_extended(np.broadcast_to(a, (len(b), 3, 3)), b)
        for j in range(len(b)):
            lone = solve_extended(a, b[j])
            assert lone.tobytes() == x[j].tobytes()
            assert lone.tobytes() == reference_solve(a, b[j][:, None])[:, 0].tobytes()

    def test_nan_pivot_is_taken_first(self):
        # argmax takes the first NaN as the largest magnitude, as the textbook elimination does
        a = np.array([[1.0, 2.0, 0.0], [np.nan, 1.0, 1.0], [5.0, np.nan, 1.0]], dtype=complex)
        b = np.array([1.0, 2.0, 3.0])
        assert solve_extended(a, b).tobytes() == reference_solve(a, b[:, None])[:, 0].tobytes()


class TestRowSkipping:
    """Rows whose multiplier is zero in every member are skipped, with the same bits."""

    @pytest.mark.parametrize("n", [3, 5])
    def test_rows_dead_in_all_or_some_members(self, n):
        rng = np.random.default_rng(60 + n)
        a = random_stack(rng, 200, n)
        a[:, 0, 0] = 1e9                               # row 0 is every member's first pivot
        a[:, n - 1, 0] = 0.0                           # a zero multiplier in every member
        a[:100, 1, 0] = 0.0                            # a zero multiplier in half of them,
        a[:100, 0, n - 1] = np.inf                     # which must not add 0 * inf to row 1
        a[:, range(1, n), range(1, n)] += 1.0          # the rest stays regular
        b = rng.normal(size=(200, n, 3)) + 1j * rng.normal(size=(200, n, 3))
        expected, live = every_row_stack_solve(a, b)
        assert live[0] == n - 2
        assert solve_extended(a, b).tobytes() == expected.tobytes()

    def test_dead_row_between_live_runs(self):
        rng = np.random.default_rng(70)
        a = random_stack(rng, 50, 5)
        a[:, 0, 0] = 1e9                               # row 0 is every member's first pivot
        a[:, 2, 0] = 0.0                               # live rows 1, 3 and 4 around a dead row 2
        a[:, [1, 3, 4], 0] = 1.0
        b = rng.normal(size=(50, 5)) + 0j
        expected, live = every_row_stack_solve(a, b[..., None])
        assert live[0] == 3
        assert solve_extended(a, b).tobytes() == expected[..., 0].tobytes()

    def test_nodal_stacks_of_seeded_designs(self):
        f = FrequencyGrid.logarithmic(1e6, 100e9, 2001).points
        rhs = np.zeros((5, 3))
        rhs[PORT_INDEX, range(3)] = 1.0
        for seed in range(20):
            scale = 1.15 ** np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
            geom = replace(DEFAULT_GEOMETRY, height=DEFAULT_GEOMETRY.height * scale[0],
                           radius=DEFAULT_GEOMETRY.radius * scale[1],
                           pitch=DEFAULT_GEOMETRY.pitch * scale[2])
            mat = replace(DEFAULT_MATERIALS, sigma_si=DEFAULT_MATERIALS.sigma_si * scale[3])
            elements = rlgc_at(f, geom, mat)
            y = nodal_admittance(f, elements, elements.r_half)
            b = np.broadcast_to(rhs, y.shape[:-1] + (3,))
            expected, live = every_row_stack_solve(y, b)
            assert live == [1, 2, 1, 1]
            for piece in pieces(len(f)):
                assert solve_extended(y[piece], b[piece]).tobytes() == expected[piece].tobytes()


class TestConditionNumber:
    def test_float_for_one_matrix_array_for_a_stack(self):
        rng = np.random.default_rng(3)
        a = random_stack(rng, 6, 3)
        cond = condition_number(a)
        assert cond.shape == (6,)
        for j in range(6):
            lone = condition_number(a[j])
            assert type(lone) is float and lone == cond[j]

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
            lone = condition_number(a[j])
            assert type(lone) is float and lone == np.linalg.cond(a[j])
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
        assert condition_number(a[2]) == np.inf
        assert condition_number(a[2:3]).tolist() == [np.inf]


def test_pieces_cover_the_axis_in_order():
    axis = range(2 * PIECE_ROWS + 3)
    assert [i for piece in pieces(len(axis)) for i in axis[piece]] == list(axis)
    assert [len(axis[piece]) for piece in pieces(len(axis))] == [PIECE_ROWS, PIECE_ROWS, 3]
    assert PIECE_ROWS == 256
    assert list(pieces(0)) == []


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
        assert "".join(format_rows(table, digits, separators)) == \
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

    def test_pieces_and_arguments(self, digits):
        table = as_table(np.arange(1.0, 1 + 7 * (PIECE_ROWS + 5)))
        out = list(format_rows(table, digits, SEPARATORS))
        assert [piece.count("\n") for piece in out] == [PIECE_ROWS, 5]
        assert list(format_rows(np.empty((0, 7)), digits, SEPARATORS)) == []
        assert csv_text("a,b", np.array([[1.0, -0.0]])) == "a,b\n%.12e,%.12e\n" % (1.0, -0.0)
        with pytest.raises(ValidationError):
            list(format_rows(table, digits, SEPARATORS[1:]))
        with pytest.raises(ValidationError):
            list(format_rows(table, 10, SEPARATORS))


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
