"""Touchstone v1 writer and reader for three-port S-parameter data.

Emitted dialect: LF line endings, ASCII, option line ``# Hz S <FMT> R <z0>``,
one matrix row per text line with the frequency leading the first row of each
record (the v1 convention for n >= 3 ports), all numeric fields with 9
significant digits.  The writer is byte-deterministic: identical sweeps give
identical files.  The exact grammar lives in docs/formats.md.

The reader takes ASCII only, ends lines where ``str.splitlines`` does,
tolerates arbitrary whitespace, blank lines and ``!`` comments,
accepts RI/MA/DB value formats and Hz/kHz/MHz/GHz units, and rejects (never
repairs) malformed option lines, wrong per-line value counts, non-numeric
or non-finite values and non-monotonic frequencies, each with the offending
line number.  Both directions work on arrays over the frequency axis.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import TouchstoneError, ValidationError
from .numerics import LINE_BREAK, FieldError, format_rows, non_ascii_line, parse_fields
from .sparams import SSweep

FREQUENCY_UNITS = {"HZ": 1.0, "KHZ": 1e3, "MHZ": 1e6, "GHZ": 1e9}
FORMATS = ("RI", "MA", "DB")
NPORTS = 3
PER_ROW = 2 * NPORTS
# One record: the frequency and matrix row 1, then rows 2 and 3, one separator
# after each field; every field has 8 digits after the point (9 significant).
RECORD_DIGITS = 8
RECORD_SEPARATORS = (" " * PER_ROW + "\n") + (" " * (PER_ROW - 1) + "\n") * (NPORTS - 1)


class Records:
    """Read-only sequence of ``(frequency_hz, 3x3 complex matrix)`` pairs.

    The pairs are views over one frequency vector and one (N, 3, 3) array.
    """

    __slots__ = ("frequencies", "matrices")

    def __init__(self, frequencies: np.ndarray, matrices: np.ndarray):
        self.frequencies = frequencies
        self.matrices = matrices

    def __len__(self) -> int:
        return len(self.frequencies)

    def __getitem__(self, k):
        return float(self.frequencies[k]), self.matrices[k]


@dataclass(frozen=True)
class TouchstoneDocument:
    """Parsed contents of a three-port Touchstone v1 file."""

    frequency_unit: str                 # 'Hz' | 'kHz' | 'MHz' | 'GHz' as written
    parameter_type: str                 # always 'S'
    value_format: str                   # 'RI' | 'MA' | 'DB'
    reference_resistance: float         # ohm
    records: Records                    # (frequency_hz, 3x3 complex ndarray) pairs
    comments: tuple = field(default=())

    def __post_init__(self):
        records = self.records
        if not isinstance(records, Records):
            raise ValidationError(f"records must be a Records, got {type(records).__name__}")
        freqs = records.frequencies
        if not len(freqs):
            raise ValidationError("a Touchstone document needs at least one record")
        if not np.all(freqs[1:] > freqs[:-1]):
            raise ValidationError("record frequencies must be strictly increasing")
        if not (np.isfinite(records.matrices).all() and np.isfinite(freqs).all()):
            raise ValidationError("matrix entries and frequencies must be finite")

    def as_sparams(self) -> SSweep:
        return SSweep(self.records.frequencies, self.records.matrices,
                      self.reference_resistance)


def write_s3p(sweep, destination, fmt: str = "RI", comments=()) -> None:
    """Write a sweep as Touchstone v1 text to a path or text stream.

    ``sweep`` is an :class:`SSweep`.  ``comments`` become leading ``!`` lines
    (generator metadata, parameter set).  A sweep the reader would refuse
    (non-finite values, frequencies not strictly increasing) raises
    :class:`ValidationError` before any byte is written.
    """
    if not isinstance(sweep, SSweep):
        raise ValidationError(f"write_s3p needs an SSweep, got {type(sweep).__name__}")
    fmt = fmt.upper()
    if fmt not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}, got {fmt!r}")
    s = sweep.s.reshape(len(sweep), NPORTS * NPORTS)
    if fmt == "RI":
        a, b = s.real, s.imag
    else:
        a = np.abs(s)
        b = np.degrees(np.arctan2(s.imag, s.real))
        if fmt == "DB":
            # an exact zero has no finite dB image: refuse it
            if not a.all():
                raise ValidationError("cannot represent a zero entry in DB format")
            a = 20.0 * np.log10(a)
    table = np.empty((len(sweep), 1 + 2 * NPORTS * NPORTS))
    table[:, 0] = sweep.frequency
    table[:, 1::2] = a
    table[:, 2::2] = b
    # the reader refuses a non-finite value, so the writer does too
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise ValidationError(f"record {bad[0] + 1} at {sweep.frequency[bad[0]]:g} Hz holds "
                              "a non-finite frequency or S value")
    if not np.all(table[1:, 0] > table[:-1, 0]):
        raise ValidationError("sweep frequencies must be strictly increasing")

    with (contextlib.nullcontext(destination) if hasattr(destination, "write")
          else open(destination, "w", encoding="ascii", newline="\n")) as fh:
        fh.write("".join(f"! {c}\n" for c in comments) + f"# Hz S {fmt} R {sweep.z0:g}\n")
        fh.writelines(format_rows(table, RECORD_DIGITS, RECORD_SEPARATORS))


def _parse_option_line(line: str, lineno: int):
    tokens = line[1:].split()
    unit = "GHz"
    fmt = "MA"
    ptype = "S"
    resistance = 50.0
    i = 0
    while i < len(tokens):
        tok = tokens[i].upper()
        if tok in FREQUENCY_UNITS:
            unit = tokens[i]
        elif tok in ("S", "Y", "Z", "G", "H"):
            ptype = tok
        elif tok in FORMATS:
            fmt = tok
        elif tok == "R":
            if i + 1 >= len(tokens):
                raise TouchstoneError("option line: 'R' without a resistance value", lineno)
            try:
                resistance = float(tokens[i + 1])
            except ValueError:
                raise TouchstoneError(
                    f"option line: bad resistance {tokens[i + 1]!r}", lineno) from None
            i += 1
        else:
            raise TouchstoneError(f"option line: unrecognized token {tokens[i]!r}", lineno)
        i += 1
    if ptype != "S":
        raise TouchstoneError(f"only S-parameter files are supported, got type {ptype!r}", lineno)
    if resistance <= 0:
        raise TouchstoneError(f"reference resistance must be positive, got {resistance}", lineno)
    if not math.isfinite(resistance):
        raise TouchstoneError(f"reference resistance must be finite, got {resistance}", lineno)
    return unit, fmt, resistance


def _read_bytes(source) -> bytes:
    """The content of a path, stream or string, which must be ASCII."""
    if hasattr(source, "read"):
        content = source.read()
    # Content starts with a comment or the option line; a path does not.
    elif isinstance(source, str) and ("\n" in source or source.lstrip()[:1] in ("!", "#")):
        content = source
    elif isinstance(source, (str, os.PathLike)):
        try:
            with open(source, "rb") as fh:
                content = fh.read()
        except OSError as err:
            raise TouchstoneError(f"cannot read {os.fspath(source)!r}: {err.strerror}") from None
    else:
        raise TouchstoneError(f"unsupported source {source!r}")
    line = non_ascii_line(content)
    if line is not None:
        raise TouchstoneError("non-ASCII character (Touchstone files are ASCII)", line)
    return content.encode("ascii") if isinstance(content, str) else content


def read_s3p(source) -> TouchstoneDocument:
    """Parse three-port Touchstone v1 content from a path, text or binary stream, or string.

    A string holding a line break, or starting with ``!`` or ``#`` after
    leading whitespace, is content; any other string is a path.
    """
    content = _read_bytes(source)

    comments = []
    option = None
    lineno = pos = 0
    while pos < len(content):
        end = LINE_BREAK.search(content, pos)
        raw = content[pos:end.start() if end else len(content)]
        pos = end.end() if end else len(content)
        lineno += 1
        line, _, trailing = raw.decode("ascii").partition("!")
        if trailing and not line.strip():
            comments.append(trailing.strip())
        line = line.strip()
        if not line:
            continue
        if not line.startswith("#"):
            raise TouchstoneError("data before the option line", lineno)
        option = _parse_option_line(line, lineno)
        break
    if option is None:
        raise TouchstoneError("missing option line")
    unit, fmt, resistance = option

    # Everything after the option line is data, blank lines and comments.
    first = lineno + 1   # line number of the first body line
    try:
        counts, values = parse_fields(content, pos)
    except FieldError as err:
        if err.field == 0 and err.token.startswith("#"):
            raise TouchstoneError("second option line", first + err.line) from None
        raise TouchstoneError(f"not a number: {err.token!r}", first + err.line) from None
    data = np.flatnonzero(counts)   # body index of each data line
    if not data.size:
        raise TouchstoneError("no data records")
    counts = counts[data]
    linenos = data + first
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))   # token offset of each line

    # Each record is a first line of frequency plus PER_ROW values, then
    # NPORTS - 1 lines of PER_ROW values.  Problems are collected as (data
    # line, message) in the order a line-by-line reader meets them on one
    # line; the first in file order is raised.
    n = len(counts)
    expected = np.full(n, PER_ROW)
    expected[::NPORTS] += 1
    wrong = np.flatnonzero(counts != expected)
    nonfinite = np.flatnonzero(~np.isfinite(values))
    nonfinite_line = np.searchsorted(starts, nonfinite[:1], side="right") - 1
    end = min([n, *wrong[:1], *nonfinite_line])   # the lines before this one are sound
    problems = []
    if wrong.size:
        k = wrong[0]
        problems.append((k, f"expected frequency plus {PER_ROW} values on the first line "
                            f"of a record, got {counts[k]}" if k % NPORTS == 0 else
                            f"expected {PER_ROW} values on matrix row {k % NPORTS + 1}, "
                            f"got {counts[k]}"))
    scale = FREQUENCY_UNITS[unit.upper()]
    with np.errstate(over="ignore"):   # an overflowing frequency is reported below
        freqs = values[starts[0:end:NPORTS]] * scale
    falling = np.flatnonzero(freqs[1:] <= freqs[:-1])
    if falling.size:
        k = NPORTS * (falling[0] + 1)
        problems.append((k, f"non-monotonic frequency {float(values[starts[k]])} {unit}"))
    if n % NPORTS and not wrong.size:
        k = n - n % NPORTS
        problems.append((k, f"record truncated: missing matrix row {n - k + 1}"))
    if nonfinite.size:
        k = nonfinite_line[0]
        body = content[pos:].decode("ascii").splitlines()
        token = body[data[k]].partition("!")[0].split()[nonfinite[0] - starts[k]]
        problems.append((k, f"not a finite number: {token!r}"))
    if problems:
        k, message = min(problems, key=lambda problem: problem[0])
        raise TouchstoneError(message, int(linenos[k]))

    # The text is no longer needed, and S is built in one array: a smaller heap
    # for what comes after the read.
    del content
    table = values.reshape(-1, 1 + NPORTS * PER_ROW)
    a = table[:, 1::2]
    b = table[:, 2::2]
    if fmt == "RI":
        s = 1j * b   # a + 1j * b, bit for bit
        s += a
    else:
        ang = np.radians(b)
        with np.errstate(all="ignore"):   # overflow is reported below
            mag = a if fmt == "MA" else 10.0 ** (a / 20.0)
            s = mag * np.cos(ang) + 1j * (mag * np.sin(ang))
    overflow = np.argwhere(~np.isfinite(s) | ~np.isfinite(freqs)[:, None])
    if overflow.size:
        record, entry = overflow[0]
        raise TouchstoneError("a value overflows when converted",
                              int(linenos[NPORTS * record + entry // NPORTS]))

    return TouchstoneDocument(
        frequency_unit=unit,
        parameter_type="S",
        value_format=fmt,
        reference_resistance=resistance,
        records=Records(freqs, s.reshape(-1, NPORTS, NPORTS)),
        comments=tuple(comments),
    )
