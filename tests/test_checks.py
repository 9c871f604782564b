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


def outcome(zs, ss):
    return {c["name"]: (c["passed"], c["detail"]) for c in run_checks(zs, ss, GEOM, MAT)}


def test_the_model_passes_every_check_in_table_order():
    results = run_checks(ZS, SS, GEOM, MAT)
    assert [c["name"] for c in results] == [row[0] for row in CHECKS]
    assert all(c["passed"] is True for c in results)


# Every crafted S also fails the Z round trip, which compares that S with the Z sweep.
@pytest.mark.parametrize("craft, failed, detail", [
    (non_reciprocal, {"reciprocity", "z_s_roundtrip"},
     {"reciprocity": "worst |S - S^T|/|S| = 1.000e-06"}),
    (active, {"passivity", "z_s_roundtrip"},
     {"passivity": "max singular value 1.000001000000"}),
])
def test_a_crafted_sweep_fails_the_checks_that_read_it(craft, failed, detail):
    result = outcome(*craft(ZS, SS))
    assert {name for name, (passed, _) in result.items() if not passed} == failed
    for name, text in detail.items():
        assert result[name][1].startswith(text)


@pytest.mark.parametrize("name", [row[0] for row in CHECKS])
def test_a_nan_worst_value_fails_its_check(name, monkeypatch):
    # a sweep cannot hold a NaN, but a measure can give one, at one member or as a scalar
    row = next(row for row in CHECKS if row[0] == name)

    def nan_at_k(v):
        worst = np.array(row[3](v), dtype=float)
        worst[(K,) * worst.ndim] = np.nan
        return worst
    monkeypatch.setattr(checks, "CHECKS", tuple((*row[:3], nan_at_k) if r is row else r
                                                for r in CHECKS))
    result = outcome(ZS, SS)
    assert {n for n, (passed, _) in result.items() if not passed} == {name}
    assert result[name][1].endswith("nan")


def test_gates_are_the_readme_tolerances():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    stated = re.findall(r"`checks\.([A-Z_]+)` = ([0-9e.+ -]*[0-9])", readme)
    assert {name for name, _ in stated} == {"DUAL_ROUTE_TOL", "RECIPROCITY_TOL", "PASSIVITY_LIMIT",
                                            "ROUNDTRIP_TOL", "TOUCHSTONE_TOL", "TRANSFER_PROBE_HZ"}
    for name, value in stated:
        assert getattr(checks, name) == sum(map(float, value.split(" + "))), name
    assert {row[1] for row in CHECKS} <= {getattr(checks, name) for name, _ in stated}
