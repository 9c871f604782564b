"""Z<->S conversion identities, passivity/reciprocity, coupling-curve shape."""

import math
from dataclasses import replace

import numpy as np
import pytest

import reference_values as ref
from tsvkit import (ConversionError, DEFAULT_GEOMETRY, DEFAULT_MATERIALS,
                    FrequencyGrid, SSweep, ThreePortS, ValidationError)
from tsvkit.network import ThreePortZ, z_matrix_at, z_matrix_mna, z_sweep
from tsvkit.rlgc import rlgc_at
from tsvkit.sparams import (magnitude_db, max_singular_value, modal_s, s_sweep,
                            s_sweep_csv, s_to_z, z_to_s)

# a floating-point warning leaked from a numerics path fails its test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

GEOM = DEFAULT_GEOMETRY
MAT = DEFAULT_MATERIALS


def model_s(f, z0=50.0):
    return z_to_s(z_matrix_at(f, rlgc_at(f, GEOM, MAT)), z0=z0)


def random_passive_symmetric(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    s = (a + a.T) / 2
    return 0.9 * s / np.linalg.svd(s, compute_uv=False)[0]


class TestConversionBasics:
    def test_matched_termination_gives_zero(self):
        zp = ThreePortZ(frequency=1e9, z=50.0 * np.eye(3))
        s = z_to_s(zp).s
        assert np.abs(s).max() < 1e-15

    def test_short_gives_minus_identity(self):
        zp = ThreePortZ(frequency=1e9, z=np.zeros((3, 3)))
        s = z_to_s(zp).s
        assert np.abs(s + np.eye(3)).max() < 1e-15

    def test_zero_s_gives_z0_identity(self):
        sp = ThreePortS(frequency=1e9, s=np.zeros((3, 3)), z0=50.0)
        z = s_to_z(sp).z
        assert np.abs(z - 50.0 * np.eye(3)).max() < 1e-12

    def test_minus_identity_gives_short(self):
        sp = ThreePortS(frequency=1e9, s=-np.eye(3), z0=50.0)
        assert np.abs(s_to_z(sp).z).max() < 1e-12

    def test_frequency_carried_through(self):
        sp = model_s(3.3e9)
        assert sp.frequency == 3.3e9
        assert s_to_z(sp).frequency == 3.3e9

    def test_unit_eigenvalue_rejected(self):
        sp = ThreePortS(frequency=1e9, s=np.eye(3), z0=50.0)
        with pytest.raises(ConversionError):
            s_to_z(sp)

    def test_singular_sum_rejected(self):
        zp = ThreePortZ(frequency=1e9, z=-50.0 * np.eye(3))
        with pytest.raises(ConversionError) as err:
            z_to_s(zp)
        assert err.value.condition_number is None or err.value.condition_number > 1e12


class TestReferenceImpedance:
    """z0 is one finite positive real number, checked before any solve."""

    @pytest.mark.parametrize("z0", ["50", np.array([50.0, 75.0]), True],
                             ids=["str", "array", "bool"])
    def test_three_port_s_refuses(self, z0):
        with pytest.raises(ValidationError, match="^z0 must be"):
            ThreePortS(frequency=1e9, s=np.zeros((3, 3)), z0=z0)

    @pytest.mark.parametrize("z0", ["50", np.array([50.0, 75.0]), True, -50.0, math.nan],
                             ids=["str", "array", "bool", "negative", "nan"])
    def test_z_to_s_refuses_before_solving(self, z0):
        # Z = 50 I makes Z + z0 I singular at z0 = -50: a solve would refuse that
        zp = ThreePortZ(frequency=1e9, z=50.0 * np.eye(3))
        with pytest.raises(ValidationError, match="^z0 must be"):
            z_to_s(zp, z0=z0)


class TestRoundTrip:
    def test_model_sweep_roundtrip(self):
        for zp in z_sweep(FrequencyGrid.default(), GEOM, MAT):
            zrt = s_to_z(z_to_s(zp))
            assert (np.abs(zrt.z - zp.z) / np.abs(zp.z)).max() < 1e-9

    def test_random_passive_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            s = random_passive_symmetric(rng)
            sp = ThreePortS(frequency=1e9, s=s, z0=50.0)
            srt = z_to_s(s_to_z(sp))
            assert np.abs(srt.s - s).max() < 1e-12


class TestSweepProperties:
    def test_shape_preserved(self):
        zs = z_sweep(FrequencyGrid.logarithmic(1e6, 1e10, 17), GEOM, MAT)
        assert len(s_sweep(zs)) == 17

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValidationError):
            s_sweep([])

    def test_reciprocity_across_grid(self):
        for sp in s_sweep(z_sweep(FrequencyGrid.default(), GEOM, MAT)):
            assert np.abs(sp.s - sp.s.T).max() <= 1e-9 * np.abs(sp.s).max()

    def test_passivity_across_grid(self):
        for sp in s_sweep(z_sweep(FrequencyGrid.default(), GEOM, MAT)):
            assert max_singular_value(sp) <= 1.0 + 1e-9


def contraction_with_equal_top_pair(rng, sigma, third):
    """U diag(sigma, sigma, third) V^H for random unitary U and V."""
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    v, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return u @ np.diag([sigma, sigma, third]) @ v.conj().T


class TestMaxSingularValue:
    """sqrt(lambda_max(S^H S)) against the SVD."""

    def check(self, s):
        sigma = max_singular_value(SSweep(np.arange(1.0, len(s) + 1), s))
        ref_sigma = np.linalg.svd(s, compute_uv=False)[:, 0]
        assert np.abs(sigma - ref_sigma).max() <= 1e-14 * ref_sigma.max()
        assert (np.abs(sigma - ref_sigma) <= 1e-14 * ref_sigma).all()

    def test_random_matrices(self):
        rng = np.random.default_rng(11)
        s = rng.normal(size=(500, 3, 3)) + 1j * rng.normal(size=(500, 3, 3))
        s *= 10.0 ** rng.uniform(-200, 200, size=(500, 1, 1))
        self.check(s)
        self.check(np.stack([random_passive_symmetric(rng) for _ in range(200)]))

    def test_extreme_magnitudes(self):
        # the power-of-two scaling keeps S^H S finite and normal at every finite magnitude
        rng = np.random.default_rng(13)
        s = rng.normal(size=(6, 3, 3)) + 1j * rng.normal(size=(6, 3, 3))
        s /= np.abs(s).max(axis=(1, 2), keepdims=True)
        s *= np.array([1e-310, 1e-200, 1e-160, 1e160, 1e200, 1e300])[:, None, None]
        self.check(s)
        tiny = max_singular_value(ThreePortS(frequency=1e9, s=np.diag([5e-324, 0.0, 0.0])))
        assert tiny == 5e-324

    def test_contractions_with_equal_top_singular_values(self):
        rng = np.random.default_rng(12)
        s = np.stack([contraction_with_equal_top_pair(rng, sigma, third)
                      for sigma, third in zip(rng.uniform(0.5, 1.0, 300),
                                              rng.uniform(0.0, 0.5, 300))])
        self.check(s)
        self.check(np.stack([np.eye(3), -np.eye(3), np.diag([1.0, 1.0, 0.0])]).astype(complex))

    def test_model_sweep(self):
        sweep = s_sweep(z_sweep(FrequencyGrid.default(), GEOM, MAT))
        self.check(sweep.s)
        for k in (0, 100, 200):
            assert max_singular_value(sweep[k]) == max_singular_value(sweep)[k]

    def test_float_for_a_point_zero_for_zero(self):
        sigma = max_singular_value(ThreePortS(frequency=1e9, s=np.diag([0.5, 0.25j, 0.0])))
        assert type(sigma) is float and sigma == pytest.approx(0.5, rel=1e-15)
        assert max_singular_value(ThreePortS(frequency=1e9, s=np.zeros((3, 3)))) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_entry_gives_nan(self, bad):
        s = np.diag([0.5, 0.5, 0.5]).astype(complex)
        s[1, 2] = bad
        assert math.isnan(max_singular_value(ThreePortS(frequency=1e9, s=s)))
        stack = np.stack([0.5 * np.eye(3), s, 0.25 * np.eye(3), s]).astype(complex)
        sigma = max_singular_value(SSweep(np.arange(1.0, 5.0), stack))
        assert np.isnan(sigma[[1, 3]]).all()
        assert sigma[[0, 2]].tolist() == [0.5, 0.25]


class TestCouplingShape:
    def test_s21_level_at_10ghz(self):
        assert magnitude_db(model_s(10e9).s[1, 0]) == pytest.approx(ref.S21_DB_10GHZ, abs=1e-6)

    def test_s21_level_at_1ghz(self):
        assert magnitude_db(model_s(1e9).s[1, 0]) == pytest.approx(ref.S21_DB_1GHZ, abs=1e-6)

    def test_s31_level_at_10ghz(self):
        assert magnitude_db(model_s(10e9).s[2, 0]) == pytest.approx(ref.S31_DB_10GHZ, abs=1e-6)

    def test_s21_monotone_rising_10mhz_to_10ghz(self):
        sweep = s_sweep(z_sweep(FrequencyGrid.default(), GEOM, MAT))
        band = [sp for sp in sweep if 10e6 <= sp.frequency <= 10e9]
        mags = [magnitude_db(sp.s[1, 0]) for sp in band]
        assert all(b >= a for a, b in zip(mags, mags[1:]))

    def test_s31_low_insertion_loss_below_10ghz(self):
        sweep = s_sweep(z_sweep(FrequencyGrid.default(), GEOM, MAT))
        for sp in sweep:
            if sp.frequency <= 10e9:
                assert magnitude_db(sp.s[2, 0]) > -3.0


def perturbed_design(seed):
    """Default design with each value scaled by a log-uniform factor in [1/1.15, 1.15]."""
    rng = np.random.default_rng(seed)
    scale = lambda v: v * 1.15 ** rng.uniform(-1.0, 1.0)
    geom = replace(GEOM, **{k: scale(getattr(GEOM, k))
                            for k in ("height", "radius", "pitch", "liner_thickness")})
    mat = replace(MAT, **{k: scale(getattr(MAT, k))
                          for k in ("rho_cu", "eps_ox", "eps_si", "n_a", "sigma_si",
                                    "temperature")})
    return geom, mat


class TestModalSweep:
    """The closed-form modal S sweep against the exact per-point route."""

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_matches_exact_route(self, seed):
        geom, mat = (GEOM, MAT) if seed is None else perturbed_design(seed)
        grid = FrequencyGrid.logarithmic(1e6, 100e9, 20001)
        sweep = s_sweep(z_sweep(grid, geom, mat))
        rng = np.random.default_rng(seed)
        for k in [0, len(grid.points) - 1, *rng.integers(1, len(grid.points) - 1, 8)]:
            f = grid.points[k]
            exact = z_to_s(z_matrix_mna(f, rlgc_at(f, geom, mat))).s
            assert np.abs(sweep.s[k] - exact).max() <= 1e-9 * np.abs(exact).max()
        assert max_singular_value(sweep).max() <= 1.0 + 1e-9

    def test_zero_denominator_names_frequency(self):
        f = np.array([1e9, 2e9, 3e9])
        ones = np.ones(3, dtype=complex)
        z_seg = np.array([10.0, -50.0, 10.0], dtype=complex)   # Z_seg + z0 = 0 at 2 GHz
        with pytest.raises(ConversionError, match="2e[+]09 Hz"):
            modal_s(f, z_seg, ones, ones, z0=50.0)

    def test_non_finite_denominator_names_frequency(self):
        f = np.array([1e9, 2e9, 3e9])
        ones = np.ones(3, dtype=complex)
        z_stack = np.array([1.0, 1.0, np.inf], dtype=complex)
        with pytest.raises(ConversionError, match="3e[+]09 Hz"):
            modal_s(f, ones, ones, z_stack, z0=50.0)


class TestStackedInverse:
    """s_to_z over a whole SSweep, solved as stacks."""

    def test_matches_single_points_exactly(self):
        sweep = s_sweep(z_sweep(FrequencyGrid.logarithmic(1e6, 100e9, 700), GEOM, MAT))
        z = s_to_z(sweep)
        assert z.shape == (700, 3, 3) and z.dtype == complex
        for k in range(700):
            assert z[k].tobytes() == s_to_z(sweep[k]).z.tobytes()

    def test_ill_conditioned_point_is_named(self):
        f = np.arange(1, 601) * 1e7
        s = np.zeros((600, 3, 3), dtype=complex)
        s[400] = np.diag([1.0 - 1e-14, 0.5, 0.5])     # cond(I - S) = 5e13
        s[550] = np.eye(3)                             # I - S singular
        with pytest.raises(ConversionError, match="at 4.01e[+]09 Hz") as err:
            s_to_z(SSweep(f, s))
        assert err.value.condition_number > 1e12
        s[400] = 0.0
        with pytest.raises(ConversionError, match="at 5.51e[+]09 Hz") as err:
            s_to_z(SSweep(f, s))
        assert err.value.condition_number == np.inf


class TestMagnitudes:
    def test_db_convention_hand_value(self):
        # hand check: |0.05 - 0.05j| = 0.0707..., dB = 20*log10
        value = 0.05 - 0.05j
        assert magnitude_db(value) == pytest.approx(
            20 * math.log10(math.hypot(0.05, 0.05)), rel=1e-12)

    def test_db_of_model_point_matches_direct_formula(self):
        sp = model_s(2.5e9)
        assert magnitude_db(sp.s[1, 0]) == pytest.approx(
            20 * math.log10(abs(sp.s[1, 0])), rel=1e-12)

    def test_zero_maps_to_minus_inf(self):
        assert magnitude_db(0.0) == float("-inf")


class TestCsv:
    def test_header_and_shape(self):
        sweep = s_sweep(z_sweep(FrequencyGrid.logarithmic(1e6, 1e9, 3), GEOM, MAT))
        text = s_sweep_csv(sweep)
        lines = text.strip().split("\n")
        assert lines[0] == "frequency_hz,s21_db,s31_db"
        assert len(lines) == 4

    def test_full_export_has_all_entries(self):
        sweep = s_sweep(z_sweep(FrequencyGrid.logarithmic(1e6, 1e9, 3), GEOM, MAT))
        lines = s_sweep_csv(sweep, full=True).strip().split("\n")
        assert len(lines[1].split(",")) == 3 + 18
