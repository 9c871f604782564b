"""Z<->S conversion identities, passivity/reciprocity, coupling-curve shape."""

import io
import math
from dataclasses import replace

import numpy as np
import pytest

import reference_values as ref
from tsvkit import (ConversionError, DEFAULT_GEOMETRY, DEFAULT_MATERIALS,
                    FrequencyGrid, SSweep, ValidationError)
from tsvkit import sparams
from tsvkit.network import ZSweep, verify_dual_route, z_matrix_at, z_matrix_mna, z_sweep
from tsvkit.numerics import condition_bound, solve_extended
from tsvkit.rlgc import rlgc_at
from tsvkit.sparams import (COND_LIMIT, max_singular_value, modal_s, s_sweep, s_sweep_csv,
                            s_to_z, z_to_s)
from tsvkit.touchstone import read_s3p, write_s3p

GEOM = DEFAULT_GEOMETRY
MAT = DEFAULT_MATERIALS


def model_s(f, z0=50.0):
    return z_to_s(z_matrix_at(f, rlgc_at(f, GEOM, MAT)), z0=z0)


def point(s, f=1e9, z0=50.0):
    """A one-point SSweep of one 3x3 S."""
    return SSweep(np.array([f]), np.asarray(s, dtype=complex)[None], z0)


def db(value):
    """20*log10|value| of the S_CSV_HEADER columns, read back from s_sweep_csv."""
    s = np.zeros((1, 3, 3), dtype=complex)
    s[0, 1, 0] = value
    return float(s_sweep_csv(SSweep([1e9], s)).splitlines()[1].split(",")[1])


def random_passive_symmetric(rng):
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    s = (a + a.T) / 2
    return 0.9 * s / np.linalg.svd(s, compute_uv=False)[0]


class TestConversionBasics:
    def test_matched_termination_gives_zero(self):
        zp = ZSweep([1e9], [50.0 * np.eye(3)])
        s = z_to_s(zp).s
        assert np.abs(s).max() < 1e-15

    def test_short_gives_minus_identity(self):
        zp = ZSweep([1e9], [np.zeros((3, 3))])
        s = z_to_s(zp).s
        assert np.abs(s + np.eye(3)).max() < 1e-15

    def test_zero_s_gives_z0_identity(self):
        z = s_to_z(point(np.zeros((3, 3)))).z
        assert z.shape == (1, 3, 3)
        assert np.abs(z - 50.0 * np.eye(3)).max() < 1e-12

    def test_minus_identity_gives_short(self):
        assert np.abs(s_to_z(point(-np.eye(3))).z).max() < 1e-12

    def test_frequency_carried_through(self):
        sp = model_s(3.3e9)
        assert isinstance(sp, SSweep) and sp.s.shape == (1, 3, 3)
        assert sp.frequency.tolist() == [3.3e9] and sp.z0 == 50.0

    def test_unit_eigenvalue_rejected(self):
        with pytest.raises(ConversionError):
            s_to_z(point(np.eye(3)))

    @pytest.mark.parametrize("z", [50.0 * np.eye(3), np.zeros((3, 3)), "model"])
    def test_same_bits_as_one_lapack_solve(self, z):
        zp = z_matrix_at(2.5e9, rlgc_at(2.5e9, GEOM, MAT)) if isinstance(z, str) else \
            ZSweep([2.5e9], [z])
        eye = np.eye(3)
        expected = np.linalg.solve((zp.z[0] + 50.0 * eye).T, (zp.z[0] - 50.0 * eye).T).T
        assert z_to_s(zp).s[0].tobytes() == expected.tobytes()

    def test_singular_sum_rejected(self):
        zp = ZSweep([1e9], [-50.0 * np.eye(3)])
        with pytest.raises(ConversionError) as err:
            z_to_s(zp)
        assert err.value.condition_number is None or err.value.condition_number > 1e12


class TestReferenceImpedance:
    """z0 is one finite positive real number, checked before any solve."""

    @pytest.mark.parametrize("z0", ["50", np.array([50.0, 75.0]), True],
                             ids=["str", "array", "bool"])
    def test_one_point_sweep_refuses(self, z0):
        with pytest.raises(ValidationError, match="^z0 must be"):
            point(np.zeros((3, 3)), z0=z0)

    @pytest.mark.parametrize("z0", ["50", np.array([50.0, 75.0]), True, -50.0, math.nan],
                             ids=["str", "array", "bool", "negative", "nan"])
    def test_z_to_s_refuses_before_solving(self, z0):
        # Z = 50 I makes Z + z0 I singular at z0 = -50: a solve would refuse that
        zp = ZSweep([1e9], [50.0 * np.eye(3)])
        with pytest.raises(ValidationError, match="^z0 must be"):
            z_to_s(zp, z0=z0)


class TestSweepArguments:
    """A route that takes a sweep refuses anything else with the wording of s_sweep."""

    @pytest.mark.parametrize("route, needs", [
        (s_to_z, "s_to_z needs an SSweep"),
        (max_singular_value, "max_singular_value needs an SSweep"),
        (verify_dual_route, "verify_dual_route needs a ZSweep from z_sweep"),
        (z_to_s, "z_to_s needs a ZSweep"),
        (s_sweep, "s_sweep needs a ZSweep from z_sweep")],
        ids=["s_to_z", "max_singular_value", "verify_dual_route", "z_to_s", "s_sweep"])
    def test_an_array_is_refused(self, route, needs):
        with pytest.raises(ValidationError, match=f"^{needs}, got ndarray$"):
            route(np.zeros((2, 3, 3), dtype=complex))

    @pytest.mark.parametrize("route", [s_sweep, verify_dual_route])
    def test_a_sweep_without_elements_is_refused(self, route):
        # Z from s_to_z holds no elements: neither route may guess the branches it would need
        zs = s_to_z(s_sweep(z_sweep(FrequencyGrid.logarithmic(1e6, 1e9, 4), GEOM, MAT)))
        assert zs.elements is None
        with pytest.raises(ValidationError,
                           match=f"^{route.__name__} needs elements in the sweep, got NoneType$"):
            route(zs)


class TestRoundTrip:
    def test_model_sweep_roundtrip(self):
        zs = z_sweep(FrequencyGrid.default(), GEOM, MAT)
        for f, z in zip(zs.frequency, zs.z):
            zrt = s_to_z(z_to_s(ZSweep([f], [z]))).z[0]
            assert (np.abs(zrt - z) / np.abs(z)).max() < 1e-9

    def test_random_passive_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            s = random_passive_symmetric(rng)
            srt = z_to_s(ZSweep([1e9], [s_to_z(point(s)).z[0]]))
            assert np.abs(srt.s[0] - s).max() < 1e-12


class TestSweepProperties:
    def test_shape_preserved(self):
        zs = z_sweep(FrequencyGrid.logarithmic(1e6, 1e10, 17), GEOM, MAT)
        assert len(s_sweep(zs)) == 17

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValidationError):
            s_sweep([])

    def test_reciprocity_across_grid(self):
        s = s_sweep(z_sweep(FrequencyGrid.default(), GEOM, MAT)).s
        scale = np.abs(s).max(axis=(1, 2))
        assert (np.abs(s - s.swapaxes(1, 2)).max(axis=(1, 2)) <= 1e-9 * scale).all()

    def test_passivity_across_grid(self):
        sigma = max_singular_value(s_sweep(z_sweep(FrequencyGrid.default(), GEOM, MAT)))
        assert sigma.shape == (201,) and (sigma <= 1.0 + 1e-9).all()


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
        tiny = max_singular_value(point(np.diag([5e-324, 0.0, 0.0])))
        assert tiny.tolist() == [5e-324]

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
            lone = SSweep(sweep.frequency[k:k + 1], sweep.s[k:k + 1])
            assert max_singular_value(lone).tolist() == [max_singular_value(sweep)[k]]

    def test_array_for_a_point_zero_for_zero(self):
        sigma = max_singular_value(point(np.diag([0.5, 0.25j, 0.0])))
        assert sigma.shape == (1,) and sigma[0] == pytest.approx(0.5, rel=1e-15)
        assert max_singular_value(point(np.zeros((3, 3)))).tolist() == [0.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_entry_gives_nan(self, bad):
        s = np.diag([0.5, 0.5, 0.5]).astype(complex)
        s[1, 2] = bad
        assert np.isnan(max_singular_value(point(s))).all()
        stack = np.stack([0.5 * np.eye(3), s, 0.25 * np.eye(3), s]).astype(complex)
        sigma = max_singular_value(SSweep(np.arange(1.0, 5.0), stack))
        assert np.isnan(sigma[[1, 3]]).all()
        assert sigma[[0, 2]].tolist() == [0.5, 0.25]


class TestCouplingShape:
    def test_s21_level_at_10ghz(self):
        s21 = model_s(10e9).s[0, 1, 0]
        assert 20 * math.log10(abs(s21)) == pytest.approx(ref.S21_DB_10GHZ, abs=1e-6)

    def test_s21_level_at_1ghz(self):
        s21 = model_s(1e9).s[0, 1, 0]
        assert 20 * math.log10(abs(s21)) == pytest.approx(ref.S21_DB_1GHZ, abs=1e-6)

    def test_s31_level_at_10ghz(self):
        s31 = model_s(10e9).s[0, 2, 0]
        assert 20 * math.log10(abs(s31)) == pytest.approx(ref.S31_DB_10GHZ, abs=1e-6)

    def test_s21_monotone_rising_10mhz_to_10ghz(self):
        sweep = s_sweep(z_sweep(FrequencyGrid.default(), GEOM, MAT))
        band = (sweep.frequency >= 10e6) & (sweep.frequency <= 10e9)
        mags = 20 * np.log10(np.abs(sweep.s[band, 1, 0]))
        assert (np.diff(mags) >= 0).all()

    def test_s31_low_insertion_loss_below_10ghz(self):
        sweep = s_sweep(z_sweep(FrequencyGrid.default(), GEOM, MAT))
        band = sweep.frequency <= 10e9
        assert (20 * np.log10(np.abs(sweep.s[band, 2, 0])) > -3.0).all()


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
            exact = z_to_s(z_matrix_mna(f, rlgc_at(f, geom, mat))).s[0]
            assert np.abs(sweep.s[k] - exact).max() <= 1e-9 * np.abs(exact).max()
        assert max_singular_value(sweep).max() <= 1.0 + 1e-9

    def test_zero_denominator_names_frequency(self):
        f = np.array([1e9, 2e9, 3e9])
        ones = np.ones(3, dtype=complex)
        z_seg = np.array([10.0, -50.0, 10.0], dtype=complex)   # Z_seg + z0 = 0 at 2 GHz
        with pytest.raises(ConversionError, match="2e[+]09 Hz"):
            modal_s(f, z_seg, ones, ones, z0=50.0)

    def test_an_overflow_the_z_sweep_let_pass_leaks_no_warning(self):
        # at 1e200 Hz (w C_si)^2 overflows, so Z_lat is 0 and Z finite; S is refused by name
        zs = z_sweep(FrequencyGrid.logarithmic(1e6, 1e200, 3), GEOM, MAT)
        with pytest.raises(ConversionError, match="at 1e[+]200 Hz"):
            s_sweep(zs)

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
        z = s_to_z(sweep).z
        assert z.shape == (700, 3, 3) and z.dtype == complex
        for k in range(700):
            lone = SSweep(sweep.frequency[k:k + 1], sweep.s[k:k + 1])
            assert z[k].tobytes() == s_to_z(lone).z[0].tobytes()

    def test_one_point_sweeps_equal_members_of_the_sweep(self):
        # a one-point sweep takes the SVD, not the bound, whose scaling must never reach it
        sweep = s_sweep(z_sweep(FrequencyGrid.logarithmic(1e6, 100e9, 3), GEOM, MAT))
        z = s_to_z(sweep).z
        one_record = io.StringIO()
        write_s3p(SSweep(sweep.frequency[1:2], sweep.s[1:2]), one_record)
        assert s_to_z(read_s3p(one_record.getvalue()).as_sparams()).z.shape == (1, 3, 3)
        for k in range(3):
            lone = SSweep(sweep.frequency[k:k + 1], sweep.s[k:k + 1])
            assert s_to_z(lone).z.tobytes() == z[k:k + 1].tobytes()

    @pytest.mark.parametrize("planted", [400, 550])
    def test_refusal_of_one_point_names_what_the_sweep_names(self, planted):
        f = np.arange(1, 601) * 1e7
        s = np.zeros((600, 3, 3), dtype=complex)
        s[400] = np.diag([1.0 - 1e-14, 0.5, 0.5])     # cond(I - S) = 5e13
        s[550] = np.eye(3)                             # I - S singular
        s[:planted] = 0.0
        errors = []
        for sweep in (SSweep(f, s), SSweep(f[planted:planted + 1], s[planted:planted + 1])):
            with pytest.raises(ConversionError) as err:
                s_to_z(sweep)
            errors.append((str(err.value), err.value.condition_number))
        assert errors[0] == errors[1]
        assert f"at {f[planted]:.6g} Hz" in errors[0][0]

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

    @pytest.mark.parametrize("seed", [None, 1, 2, 3])
    def test_bound_clears_model_sweeps_without_an_svd(self, seed, monkeypatch):
        geom, mat = (GEOM, MAT) if seed is None else perturbed_design(seed)
        sweep = s_sweep(z_sweep(FrequencyGrid.logarithmic(1e6, 100e9, 20001), geom, mat))
        assert (condition_bound(np.eye(3) - sweep.s) <= COND_LIMIT).all()

        def no_svd(a):
            raise AssertionError("the guard took an SVD")
        monkeypatch.setattr(sparams, "condition_number", no_svd)
        assert np.isfinite(s_to_z(sweep).z).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_same_result_as_a_guard_taking_every_svd(self, seed):
        rng = np.random.default_rng(seed)
        n = 2 * 256 + 77
        f = np.linspace(1e8, 1e11, n)
        # S = Q diag(lam) Q^H, so cond(I - S) = max |1 - lam| / min |1 - lam|: set by
        # an eigenvalue planted near 1 to a target below the limit, or above it in
        # every fourth case; the bound clears some and leaves the rest to the SVD
        q, _ = np.linalg.qr(rng.normal(size=(n, 3, 3)) + 1j * rng.normal(size=(n, 3, 3)))
        lam = rng.uniform(-0.6, 0.6, (n, 3)) + 1j * rng.uniform(-0.6, 0.6, (n, 3))
        near = rng.choice(n, 12, replace=False)
        target = np.concatenate([10.0 ** rng.uniform(10.0, 11.7, 6), rng.uniform(6e11, 9.9e11, 6)])
        if seed % 4 == 1:
            target[::2] = 10.0 ** rng.uniform(12.0, 14.0, 6)
        largest = np.abs(1.0 - lam[near, 1:]).max(axis=1)
        lam[near, 0] = 1.0 - largest / target * np.exp(2j * np.pi * rng.random(12))
        s = (q * lam[:, None, :]) @ q.conj().swapaxes(1, 2)
        if seed % 4 == 2:
            s[rng.integers(n)] = np.eye(3)                  # I - S singular
        if seed % 4 == 3:
            s[rng.integers(n), 1, 2] = [np.inf, np.nan][seed % 8 // 4]
        sweep = SSweep(f, s, z0=rng.uniform(20.0, 80.0))
        expected = reference_s_to_z(sweep)
        if isinstance(expected, ConversionError):
            assert seed % 4
            with pytest.raises(ConversionError) as err:
                s_to_z(sweep)
            assert (str(err.value), err.value.condition_number) == \
                (str(expected), expected.condition_number)
            return
        assert seed % 4 == 0
        # the bound leaves some members to the SVD, which clears them
        assert (condition_bound(np.eye(3) - s)[near] > COND_LIMIT).any()
        assert s_to_z(sweep).z.tobytes() == expected.tobytes()
        for k in [*near[:4], 0, n - 1]:   # one matrix takes the SVD itself
            lone = SSweep(f[k:k + 1], s[k:k + 1], sweep.z0)
            assert s_to_z(lone).z[0].tobytes() == expected[k].tobytes()

    @pytest.mark.parametrize("planted", [[400, 550], [550], [400], []])
    def test_named_point_stacks_as_the_every_svd_guard(self, planted):
        f = np.arange(1, 601) * 1e7
        s = np.zeros((600, 3, 3), dtype=complex)
        s[::7] = np.diag([0.5, -0.5, 0.25])
        for k, sk in {400: np.diag([1.0 - 1e-14, 0.5, 0.5]), 550: np.eye(3)}.items():
            if k in planted:
                s[k] = sk
        sweep = SSweep(f, s)
        expected = reference_s_to_z(sweep)
        if not planted:
            assert s_to_z(sweep).z.tobytes() == expected.tobytes()
            return
        with pytest.raises(ConversionError) as err:
            s_to_z(sweep)
        assert (str(err.value), err.value.condition_number) == \
            (str(expected), expected.condition_number)


def reference_s_to_z(sweep):
    """Z of each member, or the ConversionError of the first with np.linalg.cond(I - S) > 1e12."""
    eye = np.eye(3)
    with np.errstate(invalid="ignore"):
        a, b = eye - sweep.s, sweep.z0 * (eye + sweep.s)
    finite = np.isfinite(a).all(axis=(1, 2))   # LAPACK prints about the others
    cond = np.full(len(a), np.inf)
    cond[finite] = np.linalg.cond(a[finite])
    over = np.flatnonzero(~(cond <= 1e12))
    if over.size:
        k = over[0]
        return ConversionError(
            f"(I - S) is singular or ill-conditioned at {sweep.frequency[k]:.6g} Hz "
            f"(condition number {cond[k]:.3e}); S has a near-unit eigenvalue",
            condition_number=float(cond[k]))
    return np.stack([solve_extended(a[k:k + 1].swapaxes(1, 2), b[k:k + 1].swapaxes(1, 2))[0].T
                     for k in range(len(a))])


class TestMagnitudes:
    """The dB columns of s_sweep_csv: 20*log10|s|."""

    def test_db_convention_hand_value(self):
        # hand check: |0.05 - 0.05j| = 0.0707..., dB = 20*log10
        assert db(0.05 - 0.05j) == pytest.approx(
            20 * math.log10(math.hypot(0.05, 0.05)), rel=1e-12)

    def test_db_of_model_point_matches_direct_formula(self):
        s21 = model_s(2.5e9).s[0, 1, 0]
        assert db(s21) == pytest.approx(20 * math.log10(abs(s21)), rel=1e-12)

    def test_zero_maps_to_minus_inf(self):
        assert db(0.0) == float("-inf")


class TestCsv:
    def test_header_and_shape(self):
        sweep = s_sweep(z_sweep(FrequencyGrid.logarithmic(1e6, 1e9, 3), GEOM, MAT))
        text = s_sweep_csv(sweep)
        lines = text.strip().split("\n")
        assert lines[0] == "frequency_hz,s21_db,s31_db"
        assert len(lines) == 4

    @pytest.mark.parametrize("full", [False, True])
    def test_written_to_a_path_or_a_stream_as_returned(self, full, tmp_path):
        sweep = s_sweep(z_sweep(FrequencyGrid.logarithmic(1e6, 1e9, 2000), GEOM, MAT))
        text, path, stream = s_sweep_csv(sweep, full), tmp_path / "s.csv", io.BytesIO()
        assert s_sweep_csv(sweep, full, path) is None
        assert s_sweep_csv(sweep, full, destination=stream) is None
        assert path.read_bytes() == stream.getvalue() == text.encode("ascii")

    def test_full_export_has_all_entries(self):
        sweep = s_sweep(z_sweep(FrequencyGrid.logarithmic(1e6, 1e9, 3), GEOM, MAT))
        lines = s_sweep_csv(sweep, full=True).strip().split("\n")
        assert len(lines[1].split(",")) == 3 + 18
