"""The self-checks of ``tsvkit validate``: the model against independent routes.

Each row of :data:`CHECKS` holds a check's name, gate, detail format and
measure, the error over the frequency axis, (N,), or a scalar for the one-
frequency transfer check.  :func:`run_checks` alone reduces a measure, by its
maximum, so a NaN fails; a refusal (:class:`TsvKitError`) fails with its reason.
"""

from __future__ import annotations

import io
from types import SimpleNamespace

import numpy as np

from .errors import TsvKitError
from .network import verify_dual_route
from .sparams import max_singular_value, s_to_z
from .spur import substrate_transfer, substrate_transfer_mna
from .touchstone import read_s3p, write_s3p

DUAL_ROUTE_TOL = 1e-9          # relative, closed form against nodal analysis
RECIPROCITY_TOL = 1e-9         # |S - S^T| relative to the largest |S| at each frequency
PASSIVITY_LIMIT = 1.0 + 1e-9   # largest singular value of S
ROUNDTRIP_TOL = 1e-9           # Z -> S -> Z, relative per entry
TOUCHSTONE_TOL = 1e-8          # S through the 9-digit RI file, relative to the largest |S|
TRANSFER_PROBE_HZ = 1e9        # where the two substrate-transfer routes are compared


def _through_touchstone(ss) -> np.ndarray:
    buf = io.StringIO()
    write_s3p(ss, buf, fmt="RI")
    return read_s3p(buf.getvalue()).records.matrices


def _transfer_disagreement(geom, mat) -> float:
    h = substrate_transfer(TRANSFER_PROBE_HZ, geom, mat)
    return abs(h - substrate_transfer_mna(TRANSFER_PROBE_HZ, geom, mat)) / abs(h)


# In the order they are reported.  A measure reads the Z sweep v.zs, its S
# sweep v.ss, the largest |S| at each frequency v.scale, and v.geom, v.mat.
CHECKS = (
    ("dual_route_z", DUAL_ROUTE_TOL, "worst relative disagreement {:.3e}",
     lambda v: verify_dual_route(v.zs, v.geom, v.mat)),
    ("reciprocity", RECIPROCITY_TOL, "worst |S - S^T|/|S| = {:.3e}",
     lambda v: np.abs(v.ss.s - v.ss.s.transpose(0, 2, 1)).max(axis=(1, 2)) / v.scale),
    ("passivity", PASSIVITY_LIMIT, "max singular value {:.12f}",
     lambda v: max_singular_value(v.ss)),
    ("z_s_roundtrip", ROUNDTRIP_TOL, "worst relative error {:.3e}",
     lambda v: (np.abs(s_to_z(v.ss) - v.zs.z) / np.abs(v.zs.z)).max(axis=(1, 2))),
    ("touchstone_roundtrip", TOUCHSTONE_TOL, "worst relative error {:.3e}",
     lambda v: (np.abs(v.ss.s - _through_touchstone(v.ss)).max(axis=(1, 2))
                / np.maximum(v.scale, 1e-30))),
    ("transfer_dual_route", DUAL_ROUTE_TOL, "relative disagreement {:.3e}",
     lambda v: _transfer_disagreement(v.geom, v.mat)),
)


def run_checks(zs, ss, geom, mat) -> list[dict]:
    """Each row of :data:`CHECKS` as ``{"name", "passed", "detail"}``, in table order.

    ``zs`` is the :class:`~tsvkit.network.ZSweep` of ``geom`` and ``mat``, ``ss`` its S sweep.
    """
    results = []
    with np.errstate(all="ignore"):   # a NaN or inf worst value fails its check
        v = SimpleNamespace(zs=zs, ss=ss, scale=np.abs(ss.s).max(axis=(1, 2)), geom=geom, mat=mat)
        for name, gate, fmt, measure in CHECKS:
            try:
                worst = float(np.max(measure(v)))
                passed, detail = worst <= gate, fmt.format(worst)
            except TsvKitError as err:   # a route that refuses its input fails its check
                passed, detail = False, str(err)
            results.append({"name": name, "passed": passed, "detail": detail})
    return results
