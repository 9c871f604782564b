"""Three-port assembly, dual-route impedance computation, sweep contracts."""

import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tsvkit.network
from tsvkit import (DEFAULT_GEOMETRY, DEFAULT_MATERIALS, FrequencyGrid,
                    NetworkDegeneracyError, ValidationError, branch_impedances, modal_s,
                    substrate_transfer, substrate_transfer_mna)
from tsvkit.checks import DUAL_ROUTE_TOL
from tsvkit.network import (MIN_ELEMENT, NODES, PORT_INDEX, Z_CSV_HEADER, nodal_branches,
                            verify_dual_route, z_matrix_at, z_matrix_mna, z_sweep, z_sweep_csv)
from tsvkit.rlgc import rlgc_at
from tsvkit.spur import REPLICA_SUBSTRATE_LOAD

GEOM = DEFAULT_GEOMETRY
MAT = DEFAULT_MATERIALS
EL_1GHZ = rlgc_at(1e9, GEOM, MAT)


def elements_with(**overrides):
    return replace(EL_1GHZ, **overrides)


class TestGrid:
    def test_default_grid(self):
        grid = FrequencyGrid.default()
        assert len(grid.points) == 201
        assert grid.points[0] == pytest.approx(1e6)
        assert grid.points[-1] == pytest.approx(100e9)
        assert np.diff(np.log10(grid.points)) == pytest.approx(np.full(200, 0.025))

    def test_strictly_increasing_required(self):
        with pytest.raises(ValidationError):
            FrequencyGrid(points=(1e6, 1e6, 2e6))
        with pytest.raises(ValidationError):
            FrequencyGrid(points=(2e6, 1e6))
        with pytest.raises(ValidationError):
            FrequencyGrid(points=(0.0, 1e6))
        with pytest.raises(ValidationError):
            FrequencyGrid(points=())

    @pytest.mark.parametrize("args", [(1e6, 1e9, 2.5), (1e6, 1e9, "5"), (1e6, 1e9, True),
                                      (1e6, np.inf, 5), (np.nan, 1e9, 5), (1e6, 1e9 + 0j, 5),
                                      ("1e6", 1e9, 5), (1e9, 1e6, 5), (0.0, 1e9, 5)])
    def test_constructor_arguments_rejected(self, args):
        for make in (FrequencyGrid.logarithmic, FrequencyGrid.linear):
            with warnings.catch_warnings():
                warnings.simplefilter("error")   # no numpy warning on the way
                with pytest.raises(ValidationError, match="^need"):
                    make(*args)

    def test_linear_spacing(self):
        grid = FrequencyGrid.linear(1e9, 2e9, 11)
        assert len(grid.points) == 11
        steps = np.diff(grid.points)
        assert np.allclose(steps, steps[0])


class TestTopology:
    def test_lateral_short_merges_mid_and_substrate(self):
        # enormous lateral admittance shorts the substrate node to the midpoint:
        # Z12 approaches Z13
        el = elements_with(c_si=1.0, g_si=1e6)
        z = z_matrix_at(1e9, el).z
        assert abs(z[0, 1] - z[0, 2]) / abs(z[0, 2]) < 1e-6

    def test_huge_stack_caps_short_substrate_to_ground(self):
        el = elements_with(c_ox=1.0, c_d=1.0)
        z = z_matrix_at(1e9, el).z
        assert abs(z[1, 1]) < 1e-6

    def test_degenerate_elements_rejected(self):
        for name in ("g_si", "c_si", "c_ox", "c_d"):
            with pytest.raises(ValidationError, match=name):
                z_matrix_mna(1e9, elements_with(**{name: MIN_ELEMENT / 10}))


class TestClosedForm:
    def test_segment_impedance_identity(self):
        # Z11 - Z13 is one half-segment R/2 + j*w*L/2.  The subtraction
        # cancels entries ~1e8 times larger at the grid bottom, so the
        # tolerance is scaled to the entry magnitude, not the difference.
        for f in (1e6, 1e9, 50e9):
            el = rlgc_at(f, GEOM, MAT)
            z = z_matrix_at(f, el).z
            expected = el.r_half + 2j * np.pi * f * el.l_half
            assert z[0, 0] - z[0, 2] == pytest.approx(
                expected, rel=1e-9, abs=1e-12 * abs(z[0, 0]))

    def test_substrate_column_is_stack_impedance(self):
        el = EL_1GHZ
        z = z_matrix_at(1e9, el).z
        s = 2j * np.pi * 1e9
        stack = 1 / (s * el.c_ox) + 1 / (s * el.c_d)
        for i in range(3):
            assert z[i, 1] == pytest.approx(stack, rel=1e-12)

    def test_low_frequency_substrate_impedance_diverges(self):
        z1 = z_matrix_at(1.0, rlgc_at(1.0, GEOM, MAT)).z
        z1m = z_matrix_at(1e6, rlgc_at(1e6, GEOM, MAT)).z
        assert abs(z1[0, 1]) > 1e12
        assert abs(z1[0, 1]) > 1e5 * abs(z1m[0, 1])

    def test_z12_magnitude_decreases_above_1ghz(self):
        freqs = np.logspace(9, 11, 41)
        mags = [abs(z_matrix_at(f, rlgc_at(f, GEOM, MAT)).z[0, 1]) for f in freqs]
        assert all(b < a for a, b in zip(mags, mags[1:]))

    def test_symmetry_machine_precision(self):
        rng = np.random.default_rng(7)
        for f in 10 ** rng.uniform(6, 11, size=50):
            z = z_matrix_at(f, rlgc_at(f, GEOM, MAT)).z
            assert np.array_equal(z, z.T)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValidationError):
            z_matrix_at(0.0, EL_1GHZ)
        with pytest.raises(ValidationError):
            z_matrix_at(-1e9, EL_1GHZ)
        with pytest.raises(ValidationError, match="one-frequency elements"):
            z_matrix_at(1e9, rlgc_at(np.array([1e9, 2e9]), GEOM, MAT))


class TestDualRoute:
    def test_mna_matches_closed_form_at_1hz(self):
        # low-frequency limit check: the nodal matrix condition number is
        # ~1e14 at 1 Hz, where the refined double solve still carries ~6
        # digits; the strict 1e-9 gate applies on the default grid
        el = rlgc_at(1.0, GEOM, MAT)
        za = z_matrix_at(1.0, el).z
        zb = z_matrix_mna(1.0, el).z
        assert np.abs((za - zb) / za).max() < 1e-4
        assert abs(zb[0, 1]) > 1e12

    def test_full_grid_agreement(self):
        sweep = z_sweep(FrequencyGrid.default(), GEOM, MAT)
        assert verify_dual_route(sweep, GEOM, MAT).max() <= DUAL_ROUTE_TOL

    def test_mna_symmetric(self):
        z = z_matrix_mna(1e9, EL_1GHZ).z
        assert np.abs(z - z.T).max() <= 1e-12 * np.abs(z).max()

    @settings(max_examples=25, deadline=None)
    @given(f=st.floats(min_value=1e6, max_value=100e9))
    def test_pointwise_agreement_random_frequencies(self, f):
        el = rlgc_at(f, GEOM, MAT)
        za = z_matrix_at(f, el).z
        zb = z_matrix_mna(f, el).z
        assert np.abs((za - zb) / za).max() < 1e-9


def gaussian(z):
    """A complex128 as an exact Gaussian rational: a pair of Fractions."""
    return Fraction(z.real), Fraction(z.imag)


def exact_node_voltages(branches, rhs):
    """Node voltages of the stamped branches for (NODES, r) injected currents, solved exactly.

    The admittances are the route's own doubles, so the stamp, the
    elimination and the back substitution are exact in Gaussian rationals;
    each voltage is rounded to complex128 at the end.
    """
    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def sub(x, y):
        return x[0] - y[0], x[1] - y[1]

    def div(x, y):
        d = y[0] * y[0] + y[1] * y[1]
        return (x[0] * y[0] + x[1] * y[1]) / d, (x[1] * y[0] - x[0] * y[1]) / d

    zero = (Fraction(0), Fraction(0))
    rows = [[zero] * NODES + [gaussian(complex(v)) for v in rhs[i]] for i in range(NODES)]
    for a, b, y in branches:
        y = gaussian(complex(y))
        rows[a][a] = sub(rows[a][a], (-y[0], -y[1]))
        if b is not None:
            rows[b][b] = sub(rows[b][b], (-y[0], -y[1]))
            rows[a][b] = sub(rows[a][b], y)
            rows[b][a] = sub(rows[b][a], y)
    for k in range(NODES):
        p = next(i for i in range(k, NODES) if rows[i][k] != zero)
        rows[k], rows[p] = rows[p], rows[k]
        for i in range(k + 1, NODES):
            if rows[i][k] != zero:
                m = div(rows[i][k], rows[k][k])
                rows[i] = [sub(u, mul(m, v)) for u, v in zip(rows[i], rows[k])]
    x = [None] * NODES
    for k in reversed(range(NODES)):
        acc = rows[k][NODES:]
        for j in range(k + 1, NODES):
            acc = [sub(u, mul(rows[k][j], v)) for u, v in zip(acc, x[j])]
        x[k] = [div(u, rows[k][k]) for u in acc]
    return np.array([[complex(float(re), float(im)) for re, im in row] for row in x])


def seeded_design(seed):
    scale = 1.15 ** np.random.default_rng(seed).uniform(-1.0, 1.0, 4)
    geom = replace(GEOM, height=GEOM.height * scale[0], radius=GEOM.radius * scale[1],
                   pitch=GEOM.pitch * scale[2])
    return geom, replace(MAT, sigma_si=MAT.sigma_si * scale[3])


def accepted_design(seed):
    """A design drawn log-uniformly over the accepted ranges: radius 0.5-20 um, height
    5-300 um, liner 10 nm-2 um (below the radius), sigma_si 0.1-1e4 S/m, pitch 2.2-40 x (r + t)."""
    rng = np.random.default_rng(seed)

    def draw(low, high):
        return float(np.exp(rng.uniform(np.log(low), np.log(high))))

    while True:
        radius, liner, height = draw(0.5e-6, 20e-6), draw(10e-9, 2e-6), draw(5e-6, 300e-6)
        sigma_si, pitch = draw(0.1, 1e4), draw(2.2, 40.0) * (radius + liner)
        if liner < radius:
            return (replace(GEOM, radius=radius, liner_thickness=liner, height=height, pitch=pitch),
                    replace(MAT, sigma_si=sigma_si))


ORACLE_DESIGNS = ([(GEOM, MAT), seeded_design(1), seeded_design(2)]
                  + [accepted_design(seed) for seed in range(12)])
ORACLE_FREQUENCIES = np.array([1e3, 1e4, 1e6, 1e9, 1e12])


class TestExactOracle:
    """The nodal route against an exact rational solve of its own stamp, 1 kHz - 1 THz."""

    @pytest.mark.parametrize("design", range(len(ORACLE_DESIGNS)))
    def test_impedance_within_1e12_of_the_exact_solve(self, design):
        geom, mat = ORACLE_DESIGNS[design]
        rhs = np.zeros((NODES, 3))
        rhs[PORT_INDEX, range(3)] = 1.0
        z = z_matrix_mna(ORACLE_FREQUENCIES, rlgc_at(ORACLE_FREQUENCIES, geom, mat))
        for k, f in enumerate(ORACLE_FREQUENCIES):
            el = rlgc_at(f, geom, mat)
            exact = exact_node_voltages(nodal_branches(f, el, el.r_half), rhs)[PORT_INDEX]
            assert np.abs((z[k] - exact) / exact).max() <= 1e-12

    @pytest.mark.parametrize("design", range(len(ORACLE_DESIGNS)))
    def test_loaded_transfer_within_1e12_of_the_exact_solve(self, design):
        geom, mat = ORACLE_DESIGNS[design]
        p1, p2, p3 = PORT_INDEX
        rhs = np.zeros((NODES, 1))
        rhs[p1] = 1.0
        h = substrate_transfer_mna(ORACLE_FREQUENCIES, geom, mat,
                                   substrate_load=REPLICA_SUBSTRATE_LOAD)
        for k, f in enumerate(ORACLE_FREQUENCIES):
            el = rlgc_at(f, geom, mat)
            branches = nodal_branches(f, el, el.r_half) + [
                (p3, None, 1.0 / 50.0 + 0j), (p2, None, 1.0 / REPLICA_SUBSTRATE_LOAD + 0j)]
            v = exact_node_voltages(branches, rhs)[:, 0]
            exact = v[p2] / v[p1]
            assert abs(h[k] - exact) <= 1e-12 * abs(exact)


class TestStackedMna:
    """The MNA route over a frequency vector, solved as stacks."""

    def test_matches_single_points_exactly(self):
        f = FrequencyGrid.logarithmic(1e6, 100e9, 2001).points
        z = z_matrix_mna(f, rlgc_at(f, GEOM, MAT))
        assert z.shape == (2001, 3, 3)
        rng = np.random.default_rng(11)
        for k in rng.choice(2001, 10, replace=False):
            lone = z_matrix_mna(f[k], rlgc_at(f[k], GEOM, MAT))
            assert lone.frequency == f[k]
            assert z[k].tobytes() == lone.z.tobytes()

    def test_scalar_resistance_is_shared(self):
        f = np.array([1e8, 1e9, 1e10])
        z = z_matrix_mna(f, EL_1GHZ)
        for k in range(3):
            assert z[k].tobytes() == z_matrix_mna(float(f[k]), EL_1GHZ).z.tobytes()

    def test_member_refined_past_the_stack_steps_gets_its_bits_alone(self, monkeypatch):
        # below 1 MHz some members take more than REFINE_STEPS steps; those
        # steps factor the open members again, as a smaller stack
        f = FrequencyGrid.logarithmic(1e3, 1e12, 2001).points
        stacks = []
        factor = tsvkit.network._factor
        monkeypatch.setattr(tsvkit.network, "_factor", lambda branches, n:
                            stacks.append(branches[0][2]) or factor(branches, n))
        z = z_matrix_mna(f, rlgc_at(f, GEOM, MAT))
        late = np.flatnonzero(np.isin(stacks[0], stacks[-1]))   # the members refined longest
        assert 0 < late.size < f.size / 2
        for k in late[::max(1, late.size // 10)]:
            assert z[k].tobytes() == z_matrix_mna(f[k], rlgc_at(f[k], GEOM, MAT)).z.tobytes()

    def test_a_member_still_open_at_the_cap_is_named(self, monkeypatch):
        monkeypatch.setattr(tsvkit.network, "MAX_REFINE_STEPS", tsvkit.network.REFINE_STEPS)
        f = FrequencyGrid.logarithmic(1e3, 1e12, 201).points
        with pytest.raises(NetworkDegeneracyError,
                           match=r"^nodal refinement did not converge at [0-9.e+]+ Hz$") as err:
            z_matrix_mna(f, rlgc_at(f, GEOM, MAT))
        assert err.value.frequency in f

    def test_a_floating_node_is_a_named_non_finite_solution(self, monkeypatch):
        # without the C_ox -- C_d stack the internal node has no branch: a zero pivot
        monkeypatch.setattr(tsvkit.network, "nodal_branches",
                            lambda *args: nodal_branches(*args)[:-2])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NetworkDegeneracyError,
                               match=r"^non-finite nodal solution at 2e\+09 Hz$") as err:
                z_matrix_mna(np.array([2e9, 1e9]), EL_1GHZ)
        assert err.value.frequency == 2e9

    def test_rejects_bad_frequencies(self):
        for f in ([1e9, 0.0], [1e9, np.inf], [np.nan], [], [[1e9, 2e9]]):
            with pytest.raises(ValidationError):
                z_matrix_mna(np.array(f), EL_1GHZ)

    def test_rejects_degenerate_resistance_array(self):
        f = np.array([1e8, 1e9])
        el = elements_with(r_half=np.array([1.0, MIN_ELEMENT / 10]))
        with pytest.raises(ValidationError, match="r_half"):
            z_matrix_mna(f, el)

    def test_rejects_frequencies_the_elements_do_not_hold(self):
        el = rlgc_at(np.array([1e8, 1e9]), GEOM, MAT)
        for f in (1e9, np.array([1e8, 1e9, 1e10])):
            with pytest.raises(ValidationError, match="elements hold 2 frequencies, f "):
                z_matrix_mna(f, el)


class TestPassivityPrecursor:
    def test_hermitian_part_nonnegative(self):
        z = z_sweep(FrequencyGrid.default(), GEOM, MAT).z
        eigs = np.linalg.eigvalsh((z + z.conj().swapaxes(1, 2)) / 2)
        assert (eigs.min(axis=1) >= -1e-9 * np.abs(z).max(axis=(1, 2))).all()


class TestSweep:
    def test_shape_and_order(self):
        grid = FrequencyGrid.default()
        sweep = z_sweep(grid, GEOM, MAT)
        assert len(sweep) == 201 and sweep.z.shape == (201, 3, 3)
        assert sweep.frequency.tolist() == grid.points.tolist()

    def test_matches_standalone_evaluation(self):
        grid = FrequencyGrid.logarithmic(1e7, 1e10, 7)
        sweep = z_sweep(grid, GEOM, MAT)
        for f, z in zip(sweep.frequency.tolist(), sweep.z):
            standalone = z_matrix_at(f, rlgc_at(f, GEOM, MAT))
            assert np.array_equal(z, standalone.z)

    @pytest.mark.parametrize("route", ["z_sweep", "modal_s", "substrate_transfer",
                                       "z_matrix_mna"])
    def test_members_of_a_large_stack_get_their_bits_alone(self, route):
        # numpy reuses a temporary of 16,384 or more values for a product and
        # may swap its operands: a member must still get the bits it gets alone
        f = FrequencyGrid.logarithmic(1e6, 100e9, 20001).points
        branches = branch_impedances(f, rlgc_at(f, GEOM, MAT))
        evaluate = {
            "z_sweep": lambda part: z_sweep(FrequencyGrid(f[part]), GEOM, MAT).z,
            "modal_s": lambda part: modal_s(f[part], *(b[part] for b in branches)),
            "substrate_transfer": lambda part: substrate_transfer(
                f[part], GEOM, MAT, REPLICA_SUBSTRATE_LOAD),
            "z_matrix_mna": lambda part: z_matrix_mna(f[part], rlgc_at(f[part], GEOM, MAT)),
        }[route]
        whole = evaluate(slice(None))
        count = 200 if route == "z_matrix_mna" else 1000
        for k in np.random.default_rng(21).choice(len(f), count, replace=False).tolist():
            assert evaluate(slice(k, k + 1))[0].tobytes() == whole[k].tobytes(), f[k]

    def test_deterministic(self):
        grid = FrequencyGrid.logarithmic(1e6, 1e11, 31)
        a = z_sweep(grid, GEOM, MAT)
        b = z_sweep(grid, GEOM, MAT)
        assert np.array_equal(a.z, b.z)

    def test_csv_export(self):
        grid = FrequencyGrid.logarithmic(1e6, 1e9, 4)
        text = z_sweep_csv(z_sweep(grid, GEOM, MAT))
        lines = text.strip().split("\n")
        assert lines[0] == Z_CSV_HEADER
        assert len(lines) == 5
        assert len(lines[1].split(",")) == 13
