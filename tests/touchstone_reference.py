"""A plain line-by-line Touchstone reader: the reference read_s3p is held to.

It reads with ``str.splitlines``, ``str.partition("!")``, ``str.split`` and
one ``float()`` per field, and meets the problems of a file in the order
``read_s3p`` names them.  The option line is parsed by the reader's own
``_parse_option_line``, which the fields and lines do not depend on.
"""

import math
import re

import numpy as np

from tsvkit import TouchstoneError
from tsvkit.touchstone import FREQUENCY_UNITS, NPORTS, PER_ROW, _parse_option_line


def reference_read(text: str):
    """(unit, format, resistance, comments, frequencies, S) of Touchstone text.

    Raises the TouchstoneError read_s3p raises, with the same message and line.
    """
    if not text.isascii():
        head = text[:re.search(r"[^\x00-\x7f]", text).start()]
        raise TouchstoneError("non-ASCII character (Touchstone files are ASCII)",
                              len((head + "x").splitlines()))
    lines = text.splitlines()
    comments = []
    for lineno, raw in enumerate(lines, start=1):
        line, _, trailing = raw.partition("!")
        if trailing and not line.strip():
            comments.append(trailing.strip())
        line = line.strip()
        if not line:
            continue
        if not line.startswith("#"):
            raise TouchstoneError("data before the option line", lineno)
        unit, fmt, resistance = _parse_option_line(line, lineno)
        break
    else:
        raise TouchstoneError("missing option line")

    rows = []   # (line number, fields, values) of each data line
    for lineno, raw in enumerate(lines[lineno:], start=lineno + 1):
        fields = raw.partition("!")[0].split()
        if fields and fields[0].startswith("#"):
            raise TouchstoneError("second option line", lineno)
        values = []
        for field in fields:
            try:
                values.append(float(field))
            except ValueError:
                raise TouchstoneError(f"not a number: {field!r}", lineno) from None
        if fields:
            rows.append((lineno, fields, values))
    if not rows:
        raise TouchstoneError("no data records")

    def expected(k):
        return PER_ROW + 1 if k % NPORTS == 0 else PER_ROW

    scale = FREQUENCY_UNITS[unit.upper()]
    n = len(rows)
    freqs = []
    for k, (lineno, fields, values) in enumerate(rows):
        if len(values) != expected(k):
            raise TouchstoneError(
                f"expected frequency plus {PER_ROW} values on the first line of a record, "
                f"got {len(values)}" if k % NPORTS == 0 else
                f"expected {PER_ROW} values on matrix row {k % NPORTS + 1}, got {len(values)}",
                lineno)
        bad = [field for field, value in zip(fields, values) if not math.isfinite(value)]
        if k % NPORTS == 0:
            if not bad:
                freq = values[0] * scale
                if freq < 0.0:
                    raise TouchstoneError(f"negative frequency {values[0]} {unit}", lineno)
                if freqs and freq <= freqs[-1]:
                    raise TouchstoneError(f"non-monotonic frequency {values[0]} {unit}", lineno)
                freqs.append(freq)
            # a record cut short, unless a later line has a wrong count
            if k + NPORTS > n and all(len(rows[j][2]) == expected(j) for j in range(k, n)):
                raise TouchstoneError(f"record truncated: missing matrix row {n - k + 1}", lineno)
        if bad:
            raise TouchstoneError(f"not a finite number: {bad[0]!r}", lineno)

    table = np.array([value for row in rows for value in row[2]]).reshape(-1, 1 + NPORTS * PER_ROW)
    freqs = table[:, 0] * scale
    a, b = table[:, 1::2], table[:, 2::2]
    if fmt == "RI":
        s = a + 1j * b
    else:
        ang = np.radians(b)
        with np.errstate(all="ignore"):
            mag = a if fmt == "MA" else 10.0 ** (a / 20.0)
            s = mag * np.cos(ang) + 1j * (mag * np.sin(ang))
    for record in range(len(table)):
        for entry in range(NPORTS * NPORTS):
            if not (math.isfinite(freqs[record]) and np.isfinite(s[record, entry])):
                raise TouchstoneError("a value overflows when converted",
                                      rows[NPORTS * record + entry // NPORTS][0])
    return unit, fmt, resistance, tuple(comments), freqs, s.reshape(-1, NPORTS, NPORTS)
