#!/usr/bin/env python3
"""Run both spur characterization sweeps for the default setup.

Amplitude mode: 100 -> 700 mVpp aggressor at 1 GHz.
Frequency mode: 0.5 -> 2 GHz aggressor at 300 mVpp.
Writes CSVs to out/ and prints the slope/roll-off summaries.
"""

import pathlib

from tsvkit.cli import main

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"


def run(out: pathlib.Path = OUT) -> int:
    out.mkdir(exist_ok=True)
    code = main(["spur", "--mode", "amplitude",
                 "--out", str(out / "spur_vs_amplitude.csv")])
    code |= main(["spur", "--mode", "frequency",
                  "--out", str(out / "spur_vs_frequency.csv")])
    return code


if __name__ == "__main__":
    raise SystemExit(run())
