"""The checks of `tsvkit validate`, run on crafted sweeps without the CLI."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tsvkit import DEFAULT_GEOMETRY, DEFAULT_MATERIALS, FrequencyGrid, s_sweep, z_sweep
from tsvkit import checks
from tsvkit.checks import CHECKS, run_checks

GEOM = DEFAULT_GEOMETRY
MAT = DEFAULT_MATERIALS
ZS = z_sweep(FrequencyGrid.logarithmic(1e6, 1e11, 11), GEOM, MAT)
SS = s_sweep(ZS)
K = 5   # the crafted member


def non_reciprocal(zs, ss):
    # an antisymmetric change: to first order it leaves the singular values alone
    s, d = ss.s.copy(), 5e-7 * np.abs(ss.s[K]).max()
    s[K, 0, 1] += d
    s[K, 1, 0] -= d
    return zs, replace(ss, s=s)


def active(zs, ss):
    s = ss.s.copy()
    s[K] *= 1.0 + 1e-6
    return zs, replace(ss, s=s)


def nan_in_z(zs, ss):
    z = zs.z.copy()
    z[K, 0, 2] = np.nan
    return replace(zs, z=z), ss


def nan_in_s(zs, ss):
    s = ss.s.copy()
    s[K, 1, 1] = np.nan
    return zs, replace(ss, s=s)


def outcome(zs, ss):
    return {c["name"]: (c["passed"], c["detail"]) for c in run_checks(zs, ss, GEOM, MAT)}


def test_the_model_passes_every_check_in_table_order():
    results = run_checks(ZS, SS, GEOM, MAT)
    assert [c["name"] for c in results] == [row[0] for row in CHECKS]
    assert all(c["passed"] is True for c in results)


# Every crafted S also fails the Z round trip, which compares that S with the Z
# sweep; a NaN in Z fails both checks that read Z.
@pytest.mark.parametrize("craft, failed, detail", [
    (non_reciprocal, {"reciprocity", "z_s_roundtrip"},
     {"reciprocity": "worst |S - S^T|/|S| = 1.000e-06"}),
    (active, {"passivity", "z_s_roundtrip"},
     {"passivity": "max singular value 1.000001000000"}),
    (nan_in_z, {"dual_route_z", "z_s_roundtrip"},
     {"dual_route_z": "worst relative disagreement nan",
      "z_s_roundtrip": "worst relative error nan"}),
    (nan_in_s, {"reciprocity", "passivity", "z_s_roundtrip", "touchstone_roundtrip"},
     {"reciprocity": "worst |S - S^T|/|S| = nan", "passivity": "max singular value nan",
      "z_s_roundtrip": "(I - S) is singular or ill-conditioned at 3.16228e+08 Hz",
      "touchstone_roundtrip": "record 6 at 3.16228e+08 Hz holds a non-finite"}),
])
def test_a_crafted_sweep_fails_the_checks_that_read_it(craft, failed, detail):
    result = outcome(*craft(ZS, SS))
    assert {name for name, (passed, _) in result.items() if not passed} == failed
    for name, text in detail.items():
        assert result[name][1].startswith(text)


def test_gates_are_the_readme_tolerances():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"`checks\.([A-Z_]+)` = ([0-9e.+ -]*[0-9])", readme)
    assert {name for name, _ in stated} == {"DUAL_ROUTE_TOL", "RECIPROCITY_TOL", "PASSIVITY_LIMIT",
                                            "ROUNDTRIP_TOL", "TOUCHSTONE_TOL", "TRANSFER_PROBE_HZ"}
    for name, value in stated:
        assert getattr(checks, name) == sum(map(float, value.split(" + "))), name
    assert {row[1] for row in CHECKS} <= {getattr(checks, name) for name, _ in stated}
