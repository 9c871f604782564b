"""Touchstone v1 writer/reader: format contract, tolerance, round-trips, errors."""

import io
import random

import numpy as np
import pytest

from touchstone_reference import reference_read
from tsvkit import (DEFAULT_GEOMETRY, DEFAULT_MATERIALS, FrequencyGrid,
                    TouchstoneError, ValidationError, numerics)
from tsvkit.network import z_sweep
from tsvkit.sparams import SSweep, s_sweep
from tsvkit.touchstone import read_s3p, write_s3p


def model_sweep(n=5, start=1e6, stop=1e10):
    zs = z_sweep(FrequencyGrid.logarithmic(start, stop, n), DEFAULT_GEOMETRY, DEFAULT_MATERIALS)
    return s_sweep(zs)


def write_text(sweep, fmt="RI", comments=()):
    buf = io.StringIO()
    write_s3p(sweep, buf, fmt=fmt, comments=comments)
    return buf.getvalue()


def random_sweep(rng, n=4, z0=50.0):
    s = np.empty((n, 3, 3), dtype=complex)
    for i in range(n):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        s[i] = (a + a.T) / 2
        s[i] = 0.8 * s[i] / np.linalg.svd(s[i], compute_uv=False)[0]
    return SSweep(1e9 * np.arange(1, n + 1), s, z0)


def one_record(frequency, s):
    return SSweep(np.array([frequency]), np.array([s], dtype=complex))


class TestWriter:
    def test_option_line_defaults(self):
        text = write_text(model_sweep())
        lines = text.split("\n")
        assert lines[0] == "# Hz S RI R 50"

    def test_zero_matrix_single_record(self):
        text = write_text(one_record(1e9, np.zeros((3, 3))))
        lines = text.strip().split("\n")
        assert len(lines) == 4  # option line + 3 matrix rows
        first = lines[1].split()
        assert len(first) == 7
        assert all(float(tok) == 0.0 for tok in first[1:])
        assert all(len(line.split()) == 6 for line in lines[2:])

    def test_record_layout_three_lines_per_frequency(self):
        text = write_text(model_sweep(n=201))
        data = [l for l in text.strip().split("\n") if not l.startswith(("!", "#"))]
        assert len(data) == 201 * 3

    def test_nine_significant_digits(self):
        text = write_text(one_record(1.23456789e9, np.full((3, 3), 0.123456789)))
        assert "1.23456789e+09" in text
        assert "1.23456789e-01" in text

    def test_comments_written_with_bang(self):
        text = write_text(model_sweep(n=2), comments=["generator x", "height = 5e-05"])
        lines = text.split("\n")
        assert lines[0] == "! generator x"
        assert lines[1] == "! height = 5e-05"

    def test_byte_determinism(self):
        sweep = model_sweep(n=7)
        assert write_text(sweep) == write_text(sweep)

    def test_lf_only_and_ascii(self):
        text = write_text(model_sweep(n=3))
        assert "\r" not in text
        text.encode("ascii")

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValidationError, match="nonempty"):
            write_s3p(SSweep(np.empty(0), np.empty((0, 3, 3))), io.StringIO())

    def test_mixed_z0_rejected(self):
        sweep = model_sweep(n=2)
        with pytest.raises(ValidationError, match="z0"):
            write_s3p(SSweep(sweep.frequency, sweep.s, np.array([50.0, 75.0])), io.StringIO())

    def test_point_list_rejected(self):
        with pytest.raises(ValidationError, match="needs an SSweep, got list"):
            write_s3p(list(model_sweep(n=2).s), io.StringIO())

    def test_bad_format_rejected(self):
        with pytest.raises(ValidationError):
            write_s3p(model_sweep(n=2), io.StringIO(), fmt="XY")

    def test_db_format_refuses_zero_entry(self):
        with pytest.raises(ValidationError, match="zero entry"):
            write_s3p(one_record(1e9, np.zeros((3, 3))), io.StringIO(), fmt="DB")

    @pytest.mark.parametrize("fmt", ["MA", "DB"])
    def test_an_overflowing_magnitude_is_refused_before_writing(self, fmt, tmp_path):
        # every entry is finite, but |S| of record 3 is above the largest double
        sweep = model_sweep(n=4)
        s = sweep.s.copy()
        s[2, 1, 0] = complex(1.5e308, -1.5e308)
        bad = SSweep(sweep.frequency, s, sweep.z0)
        for destination in (tmp_path / "bad.s3p", io.BytesIO(), io.StringIO()):
            with pytest.raises(ValidationError, match=f"^record 3 at [0-9.e+]+ Hz has an "
                                                      f"[|]S[|] too large for {fmt} format$"):
                write_s3p(bad, destination, fmt=fmt)
        assert not (tmp_path / "bad.s3p").exists()
        write_s3p(bad, io.StringIO(), fmt="RI")   # its real and imaginary parts are finite

    @pytest.mark.parametrize("comment", ["caf\u00e9", "evil\n# Hz S MA R 75", "a\rb", "a\r\n",
                                         "a\x1cb", "a\u2028b", "a\x85b"],
                             ids=["non_ascii", "lf", "cr", "cr_lf", "fs", "ls", "nel"])
    def test_a_comment_that_is_not_one_ascii_line_is_refused_before_writing(self, comment,
                                                                            tmp_path):
        path = tmp_path / "bad.s3p"
        binary, text = io.BytesIO(), io.StringIO()
        for destination in (path, binary, text):
            with pytest.raises(ValidationError, match="^a comment must be one line of ASCII, "
                                                      "got "):
                write_s3p(model_sweep(n=2), destination, comments=["ok", comment])
        assert not path.exists() and binary.getvalue() == b"" and text.getvalue() == ""

    @pytest.mark.parametrize("frequency, record", [([1e9, 1e9 + 1.0], 2),
                                                   ([1.0, 2.0, 3e9, 3e9 + 12.0, 3e9 + 14.0], 5)],
                             ids=["pair", "later"])
    def test_frequencies_equal_in_their_written_digits_are_refused_before_writing(
            self, frequency, record, tmp_path):
        # valid records whose 9-digit frequencies repeat, which the reader refuses
        sweep = SSweep(np.array(frequency), np.full((len(frequency), 3, 3), 0.25))
        path, binary, text = tmp_path / "bad.s3p", io.BytesIO(), io.StringIO()
        for destination in (path, binary, text):
            with pytest.raises(ValidationError, match=f"^record {record} at "
                                                      f"{frequency[record - 1]!r} Hz has the 9 "
                                                      f"significant digits of record {record - 1} "
                                                      "[(][0-9.e+]+ Hz[)]: the written frequencies"
                                                      " must increase$"):
                write_s3p(sweep, destination)
        assert not path.exists() and binary.getvalue() == b"" and text.getvalue() == ""

    def test_close_frequencies_that_differ_in_their_written_digits_round_trip(self):
        frequency = np.array([1e9, 1e9 + 6.0, 1e9 + 16.0, 1e9 + 26.0])   # 1e-8 apart when written
        sweep = SSweep(frequency, np.full((4, 3, 3), 0.25))
        written = read_s3p(write_text(sweep)).sweep.frequency
        assert written.tolist() == [1e9, 1.00000001e9, 1.00000002e9, 1.00000003e9]

    def test_a_dc_record_round_trips(self):
        sweep = SSweep(np.array([0.0, 1e9]), np.full((2, 3, 3), 0.25 + 0.5j))
        doc = read_s3p(write_text(sweep))
        assert doc.sweep.frequency.tolist() == [0.0, 1e9]
        assert doc.sweep.s.tolist() == sweep.s.tolist()

    def test_same_bytes_to_a_path_a_binary_and_a_text_stream(self, tmp_path):
        sweep = model_sweep(n=600)   # three pieces of text
        path, binary, text = tmp_path / "pair.s3p", io.BytesIO(), io.StringIO()
        for destination in (path, binary, text):
            write_s3p(sweep, destination, comments=["generator x"])
        assert path.read_bytes() == binary.getvalue() == text.getvalue().encode("ascii")
        assert read_s3p(path).records.matrices.shape == (600, 3, 3)

    def test_path_output(self, tmp_path):
        path = tmp_path / "pair.s3p"
        write_s3p(model_sweep(n=2), path)
        assert path.read_text().startswith("# Hz S RI R 50")


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["RI", "MA", "DB"])
    def test_model_sweep_roundtrip(self, fmt):
        sweep = model_sweep(n=9)
        doc = read_s3p(write_text(sweep, fmt=fmt))
        assert len(doc.records) == 9
        assert doc.records.frequencies == pytest.approx(sweep.frequency, rel=1e-8)
        scale = np.abs(sweep.s).max(axis=(1, 2))
        assert (np.abs(doc.records.matrices - sweep.s).max(axis=(1, 2)) <= 1e-8 * scale).all()

    @pytest.mark.parametrize("fmt", ["RI", "MA"])
    def test_random_sweep_roundtrip(self, fmt):
        rng = np.random.default_rng(3)
        sweep = random_sweep(rng)
        doc = read_s3p(write_text(sweep, fmt=fmt))
        scale = np.abs(sweep.s).max(axis=(1, 2))
        assert (np.abs(doc.records.matrices - sweep.s).max(axis=(1, 2)) <= 1e-8 * scale).all()

    def test_ma_and_ri_emissions_agree(self):
        # both texts quantize to 9 significant digits, so the twins can only
        # agree to ~1e-9 of the largest entry
        sweep = model_sweep(n=5)
        doc_ri = read_s3p(write_text(sweep, fmt="RI"))
        doc_ma = read_s3p(write_text(sweep, fmt="MA"))
        for (fa, ma), (fb, mb) in zip(doc_ri.records, doc_ma.records):
            assert fa == fb
            assert np.abs(ma - mb).max() < 1.5e-9 * np.abs(ma).max()

    def test_document_to_sparams(self):
        sweep = model_sweep(n=3)
        doc = read_s3p(write_text(sweep).replace("R 50", "R 75"))
        points = doc.sweep
        assert isinstance(points, SSweep) and points.z0 == 75.0 and points.s.shape == (3, 3, 3)
        assert points.frequency == pytest.approx(sweep.frequency)
        # the records are views of the sweep
        assert doc.records.frequencies is points.frequency and doc.records.matrices is points.s


MINIMAL = """\
! tiny file
# GHz S MA R 50
1.0  0.1 0  0.2 10  0.3 20
     0.2 10  0.4 30  0.5 40
     0.3 20  0.5 40  0.6 50
"""


class TestReader:
    def test_minimal_file(self):
        doc = read_s3p(MINIMAL)
        assert len(doc.records) == 1
        f, m = doc.records[0]
        assert f == pytest.approx(1e9)
        assert abs(m[0, 0]) == pytest.approx(0.1)
        assert doc.comments == ("tiny file",)
        assert doc.value_format == "MA"

    def test_whitespace_and_blank_tolerance(self):
        text = MINIMAL.replace("# GHz", "\n\n   # GHz").replace("1.0  ", "\n  1.0\t ")
        doc = read_s3p(text)
        assert len(doc.records) == 1

    def test_trailing_comment_on_data_line(self):
        text = MINIMAL.replace("0.3 20\n", "0.3 20 ! row one\n", 1)
        doc = read_s3p(text)
        assert len(doc.records) == 1

    @pytest.mark.parametrize("unit,scale", [("Hz", 1.0), ("kHz", 1e3), ("MHz", 1e6), ("GHz", 1e9)])
    def test_frequency_units(self, unit, scale):
        doc = read_s3p(MINIMAL.replace("GHz", unit))
        assert doc.records[0][0] == pytest.approx(1.0 * scale)

    def test_db_format(self):
        text = MINIMAL.replace("MA", "DB").replace("0.1 0", "-20.0 0", 1)
        doc = read_s3p(text)
        assert abs(doc.records[0][1][0, 0]) == pytest.approx(0.1)

    def test_stream_input(self):
        assert len(read_s3p(io.StringIO(MINIMAL)).records) == 1

    def test_missing_option_line(self):
        with pytest.raises(TouchstoneError):
            read_s3p("1.0 0 0 0 0 0 0\n0 0 0 0 0 0\n0 0 0 0 0 0\n")

    def test_malformed_option_line_named(self):
        with pytest.raises(TouchstoneError) as err:
            read_s3p(MINIMAL.replace("# GHz S MA R 50", "# GHz S MA R fifty"))
        assert err.value.line == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "+Infinity"])
    def test_non_finite_resistance_named(self, value):
        with pytest.raises(TouchstoneError, match="finite") as err:
            read_s3p(MINIMAL.replace("R 50", f"R {value}"))
        assert err.value.line == 2

    def test_unknown_option_token(self):
        with pytest.raises(TouchstoneError):
            read_s3p(MINIMAL.replace(" MA ", " QQ "))

    def test_non_s_parameters_rejected(self):
        with pytest.raises(TouchstoneError):
            read_s3p(MINIMAL.replace(" S ", " Y "))

    def test_wrong_value_count_names_line(self):
        bad = MINIMAL.replace("0.2 10  0.4 30  0.5 40", "0.2 10  0.4 30  0.5")
        with pytest.raises(TouchstoneError) as err:
            read_s3p(bad)
        assert err.value.line == 4
        assert "row 2" in str(err.value)

    def test_short_first_line_names_line(self):
        bad = MINIMAL.replace("1.0  0.1 0  0.2 10  0.3 20", "1.0  0.1 0  0.2 10  0.3")
        with pytest.raises(TouchstoneError) as err:
            read_s3p(bad)
        assert err.value.line == 3

    def test_truncated_record(self):
        lines = MINIMAL.strip().split("\n")
        with pytest.raises(TouchstoneError):
            read_s3p("\n".join(lines[:-1]) + "\n")

    def test_non_monotonic_frequencies(self):
        sweep = model_sweep(n=3)
        text = write_text(sweep)
        data = text.strip().split("\n")
        swapped = [data[0]] + data[4:7] + data[1:4] + data[7:]
        with pytest.raises(TouchstoneError) as err:
            read_s3p("\n".join(swapped) + "\n")
        assert "non-monotonic" in str(err.value)

    def test_negative_frequency_named(self):
        with pytest.raises(TouchstoneError, match="^line 3: negative frequency -1.0 GHz$"):
            read_s3p(MINIMAL.replace("1.0  ", "-1.0  "))
        lines = write_text(model_sweep(n=3)).split("\n")
        # option line 1, records on lines 2-4, 5-7 and 8-10
        tokens = lines[7].split()
        tokens[0] = "-" + tokens[0]
        lines[7] = " ".join(tokens)
        with pytest.raises(TouchstoneError,
                           match=r"^line 8: negative frequency -10000000000\.0 Hz$"):
            read_s3p("\n".join(lines))

    @pytest.mark.parametrize("zero", ["0", "-0", "0.00000000e+00"])
    def test_dc_record_accepted(self, zero):
        doc = read_s3p(MINIMAL.replace("1.0  ", zero + "  "))
        assert doc.sweep.frequency.tolist() == [0.0]

    def test_non_numeric_token_named(self):
        with pytest.raises(TouchstoneError) as err:
            read_s3p(MINIMAL.replace("0.4 30", "0.4 thirty"))
        assert err.value.line == 4

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_token_named(self, token):
        with pytest.raises(TouchstoneError) as err:
            read_s3p(MINIMAL.replace("0.4 30", f"0.4 {token}"))
        assert err.value.line == 4

    def test_first_problem_in_file_order_is_named(self):
        lines = write_text(model_sweep(n=3)).split("\n")
        # option line 1, records on lines 2-4, 5-7 and 8-10
        lines[8] += " 0.0"          # line 9: matrix row 2 with 7 values

        def with_field(lineno, field, value):
            edited = list(lines)
            tokens = edited[lineno - 1].split()
            tokens[field] = value
            edited[lineno - 1] = " ".join(tokens)
            return "\n".join(edited)

        with pytest.raises(TouchstoneError) as err:
            read_s3p(with_field(3, 0, "nan"))
        assert err.value.line == 3 and "finite" in str(err.value)
        with pytest.raises(TouchstoneError) as err:
            read_s3p(with_field(5, 0, lines[1].split()[0]))
        assert err.value.line == 5 and "non-monotonic" in str(err.value)
        with pytest.raises(TouchstoneError) as err:
            read_s3p("\n".join(lines))
        assert err.value.line == 9 and "row 2" in str(err.value)

    def test_signed_zeros_keep_their_bits(self):
        zeros = "-0.00000000e+00 0.00000000e+00 0.00000000e+00 -0.00000000e+00 -0 -0 "
        doc = read_s3p("# Hz S RI R 50\n1 " + zeros + "\n" + zeros + "\n" + zeros + "\n")
        a, b = np.array([-0.0, 0.0, -0.0]), np.array([0.0, -0.0, -0.0])
        assert doc.records.matrices[0, 0].tobytes() == (a + 1j * b).tobytes()

    def test_db_overflow_named(self):
        with pytest.raises(TouchstoneError) as err:
            read_s3p(MINIMAL.replace("MA", "DB").replace("0.4 30", "9e9 30"))
        assert err.value.line == 4

    def test_single_line_content_is_not_a_path(self):
        with pytest.raises(TouchstoneError) as err:
            read_s3p("# Hz S RI R 50")
        assert "no data records" in str(err.value)

    def test_data_before_option_line(self):
        with pytest.raises(TouchstoneError) as err:
            read_s3p("1.0 0 0 0 0 0 0\n" + MINIMAL)
        assert err.value.line == 1


class TestReaderSources:
    def test_non_ascii_byte_named_by_line(self, tmp_path):
        path = tmp_path / "accent.s3p"
        path.write_bytes(MINIMAL.replace("tiny file", "tiny caf\u00e9").encode("utf-8"))
        with pytest.raises(TouchstoneError, match="non-ASCII") as err:
            read_s3p(path)
        assert err.value.line == 1
        path.write_bytes(MINIMAL.encode("ascii").replace(b"0.4 30", b"0.4 3\xb0"))
        with pytest.raises(TouchstoneError) as err:
            read_s3p(str(path))
        assert err.value.line == 4

    def test_non_ascii_content_named_by_line(self):
        for text in (MINIMAL.replace("0.5 40\n", "0.5 40 \u2028\n", 1),
                     io.StringIO(MINIMAL + "! \u00e9\n"),
                     io.BytesIO(MINIMAL.replace("\n", "\r\n").encode("ascii") + b"\xff")):
            with pytest.raises(TouchstoneError, match="non-ASCII") as err:
                read_s3p(text)
            assert err.value.line in (4, 6)

    def test_missing_path_and_directory(self, tmp_path):
        missing = tmp_path / "missing.s3p"
        with pytest.raises(TouchstoneError, match="No such file") as err:
            read_s3p(missing)
        assert str(missing) in str(err.value) and err.value.line is None
        with pytest.raises(TouchstoneError, match="directory"):
            read_s3p(str(tmp_path))

    def test_bytes_stream(self):
        doc = read_s3p(io.BytesIO(MINIMAL.encode("ascii")))
        assert doc.records.matrices.tobytes() == read_s3p(MINIMAL).records.matrices.tobytes()


def outcome(read, text):
    """What a reader makes of text: the document's bits, or its error and line."""
    try:
        unit, fmt, resistance, comments, freqs, s = read(text)
    except TouchstoneError as err:
        return "error", str(err), err.line
    return unit, fmt, resistance, comments, freqs.tobytes(), s.tobytes()


def read_document(source):
    doc = read_s3p(source)
    return (doc.frequency_unit, doc.value_format, doc.sweep.z0, doc.comments,
            doc.sweep.frequency, doc.sweep.s)


FIELDS = ["nan", "inf", "-inf", "+nan", "1_0", "1__0", "1\x00", "0x10", "1e400", "-1e400",
          "1e-400", "+1.00000000e+05", "1.00000000E+05", "1.00000000e+100", "5e-324", "-0",
          "+.5", "5.", "#", "#5", "!5", "1.234567890e+05", "9.99999999e+30", "1.00000000e+31",
          "1.00000000e-14", "1.00000000e-15", "\u00b0", "9e9", "-9e9"]
BREAKS = ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x1f", "\n\n", "\r\r\n"]
SPACES = ["\t", "  ", "\x1f", "\v", "\x1c", " \t ", "\x00"]


def mutate(rng, text):
    """text with one seeded edit of the kinds a Touchstone file meets."""
    lines = text.split("\n")
    k = rng.randrange(len(lines))
    kind = rng.randrange(12)
    if kind == 0:                                   # other line breaks, all or one
        br = rng.choice(BREAKS)
        return text.replace("\n", br) if rng.random() < 0.5 else "\n".join(lines[:k]) + br + \
            "\n".join(lines[k:])
    if kind == 1:                                   # other whitespace between fields
        parts = text.split(" ")
        j = rng.randrange(len(parts))
        return " ".join(parts[:j]) + rng.choice(SPACES) + " ".join(parts[j:])
    if kind == 2:                                   # blank and whitespace lines
        lines.insert(k, rng.choice(["", "   ", "\t", "\x1f"]))
    elif kind == 3:                                 # trailing and full-line comments
        lines[k] += rng.choice([" ! note", "!", "! x ! y", "\t!\t", "\r! cr"])
    elif kind == 4:
        lines.insert(k, rng.choice(["! full line", "!", "   ! indented"]))
    elif kind == 5:                                 # a second option line
        lines.insert(k, rng.choice(["# Hz S RI R 50", "#", "  # GHz"]))
    elif kind == 6:                                 # one field replaced
        fields = lines[k].split(" ")
        fields[rng.randrange(len(fields))] = rng.choice(FIELDS)
        lines[k] = " ".join(fields)
    elif kind == 7:                                 # cut short anywhere
        return text[:rng.randrange(len(text) + 1)]
    elif kind == 8:                                 # no final line break
        return text.rstrip("\n")
    elif kind == 9:                                 # a line lost, doubled or moved
        line = lines.pop(k)
        if rng.random() < 0.7:
            lines.insert(rng.randrange(len(lines) + 1), line)
    elif kind == 10:                                # the last record moved up: frequencies fall
        first = 1 + next((i for i, line in enumerate(lines) if line.startswith("#")), 0)
        j = first + 3 * rng.randrange(max(1, (len(lines) - first) // 3))
        lines[j:j] = lines[-4:-1]
        del lines[-4:-1]
    else:                                           # a non-ASCII character or a NUL
        j = rng.randrange(len(text) + 1)
        return text[:j] + rng.choice(["\u00e9", "\x85", "\u2028", "\x00", "\x7f"]) + text[j:]
    return "\n".join(lines)


class TestReaderFuzz:
    """read_s3p against the line-by-line reference on seeded mutations of real files."""

    def bases(self):
        sweep = model_sweep(n=4)
        texts = [write_text(sweep, fmt, comments=["generator x", "height = 5e-05"])
                 for fmt in ("RI", "MA", "DB")]
        return texts + [MINIMAL, MINIMAL.replace("GHz", "kHz").replace("1.0  ", "-1.0  ")]

    def test_same_document_or_same_error(self, monkeypatch):
        rng = random.Random(20260)
        bases = self.bases()
        errors = 0
        for case in range(1000):
            text = rng.choice(bases)
            for _ in range(rng.choice([1, 1, 2, 3])):
                text = mutate(rng, text)
            monkeypatch.setattr(numerics, "PIECE_BYTES", rng.choice([1 << 17, 1, 5, 64]))
            expected = outcome(reference_read, text)
            source = io.StringIO(text) if case % 2 else io.BytesIO(text.encode("utf-8"))
            assert outcome(read_document, source) == expected, repr(text)
            errors += expected[0] == "error"
        assert 200 < errors < 800   # the mutations reach both outcomes

    @pytest.mark.parametrize("records, piece_bytes", [(601, 1 << 17), (601, 1000), (20, 1)])
    def test_whole_files_in_pieces(self, records, piece_bytes, monkeypatch):
        text = write_text(model_sweep(n=records), "MA", comments=["x"])
        monkeypatch.setattr(numerics, "PIECE_BYTES", piece_bytes)
        for variant in (text, text.replace("\n", "\r\n"), text.replace("\n", "\r")):
            assert outcome(read_document, variant) == outcome(reference_read, variant)
