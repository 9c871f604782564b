#!/usr/bin/env python3
"""Extract the default TSV pair model: element table, .s3p file, coupling CSV."""

import pathlib

from tsvkit.cli import main

OUT = pathlib.Path(__file__).resolve().parent.parent / "out"


def run(out: pathlib.Path = OUT) -> int:
    out.mkdir(exist_ok=True)
    return main([
        "extract",
        "--out", str(out / "tsv_pair.s3p"),
        "--csv", str(out / "tsv_pair_sparams.csv"),
        "--z-csv", str(out / "tsv_pair_impedance.csv"),
    ])


if __name__ == "__main__":
    raise SystemExit(run())
