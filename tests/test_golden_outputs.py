"""The committed out/ files as a regression oracle for the ready-made runs.

The runs are regenerated into a temporary directory by the same functions the
scripts in scripts/ call, and compared with the committed copies at the
Touchstone (1e-8) and dual-route (1e-9) tolerances; the spur CSVs must match
byte for byte.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from tsvkit.touchstone import read_s3p

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "out"
DB_TOL = 20.0 * math.log10(1.0 + 1e-9)   # dB image of a 1e-9 relative error


def run_script(name, out):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.run(out) == 0


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    run_script("run_extraction", out)
    run_script("run_spur_sweeps", out)
    return out


def csv_table(path):
    lines = path.read_text(encoding="ascii").splitlines()
    return lines[0], np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])


def test_touchstone_file(regenerated):
    golden = read_s3p(GOLDEN / "tsv_pair.s3p")
    fresh = read_s3p(regenerated / "tsv_pair.s3p")
    assert fresh.comments == golden.comments
    assert len(fresh.records) == len(golden.records)
    for (fg, mg), (ff, mf) in zip(golden.records, fresh.records):
        assert ff == pytest.approx(fg, rel=1e-8)
        # per entry: the small S entries are held to the tolerance too
        assert (np.abs(mf - mg) <= 1e-8 * np.abs(mg)).all()


def test_sparams_csv(regenerated):
    header, golden = csv_table(GOLDEN / "tsv_pair_sparams.csv")
    fresh_header, fresh = csv_table(regenerated / "tsv_pair_sparams.csv")
    assert fresh_header == header == "frequency_hz,s21_db,s31_db"
    assert fresh.shape == golden.shape
    assert np.abs(fresh[:, 0] - golden[:, 0]).max() <= 1e-9 * np.abs(golden[:, 0]).min()
    assert np.abs(fresh[:, 1:] - golden[:, 1:]).max() <= DB_TOL


def test_impedance_csv(regenerated):
    header, golden = csv_table(GOLDEN / "tsv_pair_impedance.csv")
    fresh_header, fresh = csv_table(regenerated / "tsv_pair_impedance.csv")
    assert fresh_header == header
    assert fresh.shape == golden.shape
    assert np.abs(fresh[:, 0] - golden[:, 0]).max() <= 1e-9 * np.abs(golden[:, 0]).min()
    z_golden = golden[:, 1::2] + 1j * golden[:, 2::2]
    z_fresh = fresh[:, 1::2] + 1j * fresh[:, 2::2]
    assert (np.abs(z_fresh - z_golden) / np.abs(z_golden)).max() <= 1e-9


@pytest.mark.parametrize("name", ["spur_vs_amplitude.csv", "spur_vs_frequency.csv"])
def test_spur_csv_byte_identical(regenerated, name):
    assert (regenerated / name).read_bytes() == (GOLDEN / name).read_bytes()
