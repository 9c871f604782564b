"""Sideband spur model: transfer, calibration, amplitude/frequency behavior."""

import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_values as ref
from tsvkit import (CalibrationWarning, DEFAULT_GEOMETRY, DEFAULT_MATERIALS,
                    ModelValidityError, NarrowbandWarning, NetworkDegeneracyError,
                    OscillatorModel, ValidationError)
from tsvkit.cli import main
from tsvkit.spur import (BUILTIN_CALIBRATION_POINTS, REPLICA_SUBSTRATE_LOAD, amplitude_sweep,
                         bessel_j0, bessel_j1, builtin_oscillator, calibrate_k_sub,
                         frequency_sweep, modulation_index, slope_per_octave, spur_dbc,
                         substrate_transfer, substrate_transfer_mna)

GEOM = DEFAULT_GEOMETRY
MAT = DEFAULT_MATERIALS
OCTAVE_DB = 20 * math.log10(2)


def calibrated_oscillator():
    return builtin_oscillator(GEOM, MAT)


def replica_transfer(f_agg):
    return substrate_transfer(f_agg, GEOM, MAT, substrate_load=REPLICA_SUBSTRATE_LOAD)


def level(osc, amplitude, f_agg, **kwargs):
    """Spur level with the replica sweeps' substrate load."""
    return spur_dbc(osc, amplitude, f_agg, replica_transfer(f_agg), **kwargs)


class TestTransfer:
    def test_golden_values_z0_load(self):
        for f, expected in ((0.5e9, ref.TRANSFER_Z0_HALF_GHZ),
                            (1e9, ref.TRANSFER_Z0_ONE_GHZ),
                            (2e9, ref.TRANSFER_Z0_TWO_GHZ)):
            assert abs(substrate_transfer(f, GEOM, MAT, substrate_load=50.0)) == \
                pytest.approx(expected, rel=1e-9)

    def test_golden_value_open_load(self):
        assert abs(substrate_transfer(1e9, GEOM, MAT)) == \
            pytest.approx(ref.TRANSFER_OPEN_1GHZ, rel=1e-9)

    def test_matches_mna_route(self):
        f = np.logspace(0, 11, 45)
        for load in (None, 50.0, 1e3):
            a = substrate_transfer(f, GEOM, MAT, substrate_load=load)
            b = substrate_transfer_mna(f, GEOM, MAT, substrate_load=load)
            assert a.shape == b.shape == (45,)
            assert (abs(a - b) <= 1e-9 * abs(a)).all()

    def test_vector_points_match_scalar_evaluation(self):
        f = np.logspace(0, 11, 45)
        for load in (None, 50.0):
            vector = substrate_transfer(f, GEOM, MAT, substrate_load=load)
            lone = np.array([substrate_transfer(fk, GEOM, MAT, substrate_load=load)
                             for fk in f.tolist()])
            assert (abs(vector - lone) <= 1e-15 * abs(lone)).all()

    def test_numpy_scalar_gives_a_complex(self):
        h = substrate_transfer(np.float64(1e9), GEOM, MAT)
        assert type(h) is complex and h == substrate_transfer(1e9, GEOM, MAT)
        assert type(substrate_transfer_mna(1e9, GEOM, MAT)) is complex

    def test_low_frequency_limits(self):
        # the lateral path conducts at DC: an open substrate node floats up to
        # the drive voltage, a loaded one sits on the resistive divider
        assert abs(substrate_transfer(1.0, GEOM, MAT)) == pytest.approx(1.0, abs=1e-3)
        loaded = abs(substrate_transfer(1.0, GEOM, MAT, substrate_load=50.0))
        assert loaded == pytest.approx(0.0231, abs=5e-4)

    def test_never_exceeds_unity(self):
        for load in (None, 50.0):
            h = substrate_transfer(np.logspace(0, 11, 45), GEOM, MAT, substrate_load=load)
            assert (abs(h) <= 1 + 1e-9).all()

    def test_rising_through_band_with_z0_load(self):
        # strictly rising apart from float-level wiggle (~1e-8) in the flat
        # low-frequency region
        mags = abs(substrate_transfer(np.logspace(7, 10, 61), GEOM, MAT, substrate_load=50.0))
        assert (mags[1:] >= mags[:-1] * (1 - 1e-6)).all()
        assert mags[-1] > 1.2 * mags[0]

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            substrate_transfer(0.0, GEOM, MAT)
        with pytest.raises(ValidationError):
            substrate_transfer(1e9, GEOM, MAT, substrate_load=0.0)
        # a bad frequency of a vector is named as a plain number
        with pytest.raises(ValidationError, match=r"^frequency must be finite and positive, "
                                                  r"got 0\.0$"):
            substrate_transfer(np.array([1e9, 0.0, -1.0]), GEOM, MAT)

    @pytest.mark.parametrize("load", [0.0, -5.0, math.nan, math.inf])
    def test_both_routes_refuse_a_bad_substrate_load(self, load):
        for route in (substrate_transfer, substrate_transfer_mna):
            with pytest.raises(ValidationError, match="^substrate_load must be positive"):
                route(1e9, GEOM, MAT, substrate_load=load)

    def test_nodal_route_needs_one_frequency_or_a_nonempty_vector(self):
        for f in (np.array([]), np.full((2, 2), 1e9)):
            with pytest.raises(ValidationError, match="^need one frequency or a nonempty vector"):
                substrate_transfer_mna(f, GEOM, MAT)

    def test_nodal_route_names_a_non_finite_solution(self, monkeypatch):
        # without the C_ox -- C_d stack the internal node has no branch: a zero pivot
        import tsvkit.spur
        from tsvkit.network import nodal_branches
        monkeypatch.setattr(tsvkit.spur, "nodal_branches", lambda *args: nodal_branches(*args)[:-2])
        with pytest.raises(NetworkDegeneracyError,
                           match=r"^non-finite nodal solution at 1e\+09 Hz$") as err:
            substrate_transfer_mna(1e9, GEOM, MAT, substrate_load=REPLICA_SUBSTRATE_LOAD)
        assert err.value.frequency == 1e9


class TestScenario:
    """The checks of an aggressor scenario, (amplitude, f_agg, h), by ``spur_dbc``."""

    def test_validation(self):
        osc = calibrated_oscillator()
        with pytest.raises(ValidationError, match="^amplitude must be"):
            spur_dbc(osc, -0.1, 1e9, 0.1)
        with pytest.raises(ValidationError, match="^f_agg must be"):
            spur_dbc(osc, 0.1, 0.0, 0.1)
        with pytest.raises(ValidationError, match="^h must be"):
            spur_dbc(osc, 0.1, 1e9, 1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "0.1", 0.1 + 0j, True, None])
    def test_non_finite_or_non_real_scenario_rejected(self, bad):
        osc = calibrated_oscillator()
        for name in ("amplitude", "f_agg", "h"):
            values = dict(amplitude=0.1, f_agg=1e9, h=0.1)
            values[name] = bad
            if name == "h" and isinstance(bad, complex):
                continue   # a complex transfer is the normal case
            with pytest.raises(ValidationError, match=f"^{name} must be"):
                spur_dbc(osc, **values)

    @pytest.mark.parametrize("name", ["amplitude", "f_agg", "h"])
    def test_huge_int_scenario_rejected(self, name):
        values = dict(amplitude=0.1, f_agg=1e9, h=0.1)
        values[name] = 10 ** 400
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            spur_dbc(calibrated_oscillator(), **values)

    def test_array_arguments_name_their_first_bad_value(self):
        osc = calibrated_oscillator()
        cases = [("amplitude", np.array([0.1, -0.2, -0.3]), 1e9, 0.1, "-0.2"),
                 ("f_agg", 0.1, np.array([1e9, np.nan]), 0.1, "nan"),
                 ("h", 0.1, 1e9, np.array([0.1j, 1.5 + 0j]), "(1.5+0j)")]
        for name, amplitude, f_agg, h, shown in cases:
            message = rf"^{name} must be .*, got {re.escape(shown)}$"
            with pytest.raises(ValidationError, match=message):
                spur_dbc(osc, amplitude, f_agg, h)

    def test_oscillator_validation(self):
        with pytest.raises(ValidationError):
            OscillatorModel(k_sub=-1.0)
        with pytest.raises(ValidationError):
            OscillatorModel(k_sub=1e9, f_osc=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "1e9", 1e9 + 0j, True])
    def test_non_finite_or_non_real_oscillator_rejected(self, bad):
        with pytest.raises(ValidationError, match="^k_sub must be finite"):
            OscillatorModel(k_sub=bad)
        with pytest.raises(ValidationError, match="^f_osc must be finite"):
            OscillatorModel(k_sub=1e9, f_osc=bad)

    def test_huge_int_oscillator_rejected(self):
        with pytest.raises(ValidationError, match="^k_sub must be finite"):
            OscillatorModel(k_sub=10 ** 400)
        with pytest.raises(ValidationError, match="^f_osc must be finite"):
            OscillatorModel(k_sub=1e9, f_osc=10 ** 400)


class TestSpurLevel:
    def test_calibration_point_reproduced(self):
        assert level(calibrated_oscillator(), 0.1, 1e9) == pytest.approx(-36.1, abs=1e-9)

    def test_700mv_prediction(self):
        assert level(calibrated_oscillator(), 0.7, 1e9) == \
            pytest.approx(ref.SPUR_700MV_DBC, abs=1e-6)

    def test_amplitude_doubling_is_one_octave(self):
        osc = calibrated_oscillator()
        a, b = level(osc, np.array([0.2, 0.4]), 1e9)
        assert b - a == pytest.approx(OCTAVE_DB, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(amplitude=st.floats(min_value=1e-3, max_value=0.05),
           f_agg=st.floats(min_value=2e8, max_value=5e9))
    def test_amplitude_linearity_everywhere(self, amplitude, f_agg):
        osc = calibrated_oscillator()
        h = substrate_transfer(f_agg, GEOM, MAT, substrate_load=50.0)
        assert spur_dbc(osc, 2 * amplitude, f_agg, h) - spur_dbc(osc, amplitude, f_agg, h) == \
            pytest.approx(OCTAVE_DB, abs=1e-9)

    def test_frequency_rolloff_decomposition(self):
        # spur(f) - spur(2f) = 6.0206 dB - 20*log10(|H(2f)|/|H(f)|)
        osc = calibrated_oscillator()
        f = np.array([0.3e9, 0.5e9, 1e9])
        h1, h2 = replica_transfer(f), replica_transfer(2 * f)
        s1, s2 = spur_dbc(osc, 0.3, f, h1), spur_dbc(osc, 0.3, 2 * f, h2)
        expected = OCTAVE_DB - 20 * np.log10(abs(h2) / abs(h1))
        np.testing.assert_allclose(s1 - s2, expected, rtol=0, atol=1e-9)

    def test_zero_amplitude_is_minus_inf(self):
        osc = calibrated_oscillator()
        assert level(osc, 0.0, 1e9) == float("-inf")
        assert level(osc, 0.0, 1e9, exact_bessel=True) == float("-inf")
        assert level(osc, np.array([0.0, 0.1]), 1e9)[0] == float("-inf")

    def test_upper_sideband_location(self, capsys):
        # the sideband is reported at f_osc + f_agg, by the spur command
        assert calibrated_oscillator().f_osc == pytest.approx(10.917e9)
        assert main(["spur", "--mode", "frequency", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["sideband_first_hz"] == 10.917e9 + 0.5e9
        assert summary["sideband_last_hz"] == 10.917e9 + 2e9

    def test_narrowband_warning_and_validity_error(self):
        osc = calibrated_oscillator()
        h = replica_transfer(1e9)
        beta = modulation_index(osc, 0.1, 1e9, h)
        # scale amplitude to push beta into the warning band, then past the limit
        warn_amp = 0.1 * (0.6 / beta)
        with pytest.warns(NarrowbandWarning):
            spur_dbc(osc, warn_amp, 1e9, h)
        fail_amp = 0.1 * (2.5 / beta)
        with pytest.raises(ModelValidityError):
            spur_dbc(osc, fail_amp, 1e9, h)

    def test_one_record_names_the_worst_beta(self):
        osc = calibrated_oscillator()
        h = replica_transfer(1e9)
        unit = 0.1 / modulation_index(osc, 0.1, 1e9, h)   # amplitude per unit of beta
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            spur_dbc(osc, unit * np.array([0.1, 0.6, 0.9, 0.7]), 1e9, h)
        assert [w.category for w in caught] == [NarrowbandWarning]
        assert f"beta = 0.900 at {unit * 0.9:.4g} Vpp, 1e+09 Hz" in str(caught[0].message)
        with pytest.raises(ModelValidityError,
                           match=rf"beta = 3\.000 at {unit * 3:.4g} Vpp, 1e\+09 Hz is >= 2"):
            spur_dbc(osc, unit * np.array([0.6, 3.0, 2.5]), 1e9, h)


class TestBessel:
    @pytest.mark.parametrize("x", sorted(ref.BESSEL_J0))
    def test_series_against_quadrature(self, x):
        assert bessel_j0(x) == pytest.approx(ref.BESSEL_J0[x], rel=1e-12)
        assert bessel_j1(x) == pytest.approx(ref.BESSEL_J1[x], rel=1e-12)

    def test_array_series_matches_scalar_series(self):
        x = np.array(sorted(ref.BESSEL_J0) + [0.0, 1e-9])
        for series in (bessel_j0, bessel_j1):
            np.testing.assert_allclose(series(x), [series(v) for v in x.tolist()],
                                       rtol=1e-15, atol=0)

    def test_exact_mode_matches_small_beta_limit(self):
        osc = calibrated_oscillator()
        approx = level(osc, 0.1, 1e9)
        exact = level(osc, 0.1, 1e9, exact_bessel=True)
        # J1(b)/J0(b) ~ (b/2)(1 + b^2/4 ...): tiny correction at b = 0.031
        assert exact == pytest.approx(approx, abs=2e-3)
        assert exact > approx

    def test_exact_mode_larger_beta(self):
        osc = calibrated_oscillator()
        h = replica_transfer(1e9)
        amplitude = 0.1 * 0.45 / modulation_index(osc, 0.1, 1e9, h)
        b = modulation_index(osc, amplitude, 1e9, h)
        expected = 20 * math.log10(bessel_j1(b) / bessel_j0(b))
        assert spur_dbc(osc, amplitude, 1e9, h, exact_bessel=True) == \
            pytest.approx(expected, rel=1e-12)


class TestCalibration:
    def test_single_point_closed_form(self):
        cal = calibrate_k_sub(BUILTIN_CALIBRATION_POINTS, GEOM, MAT)
        h = abs(substrate_transfer(1e9, GEOM, MAT, substrate_load=50.0))
        closed_form = 1e9 * 2 * 10 ** (-36.1 / 20) / (h * 0.05)
        assert cal.k_sub == pytest.approx(closed_form, rel=1e-12)
        assert cal.k_sub == pytest.approx(ref.K_SUB, rel=1e-9)
        assert cal.residuals_db[0] == pytest.approx(0.0, abs=1e-12)
        assert type(cal.k_sub) is float and type(cal.residuals_db) is tuple

    def test_two_points_on_perfect_line_zero_residual(self):
        base = -36.1
        points = [(0.1, 1e9, base), (0.2, 1e9, base + OCTAVE_DB)]
        cal = calibrate_k_sub(points, GEOM, MAT)
        assert cal.spread_db == pytest.approx(0.0, abs=1e-12)

    def test_refit_on_own_predictions_is_fixed_point(self):
        osc = calibrated_oscillator()
        points = [(amplitude, f_agg, float(level(osc, amplitude, f_agg)))
                  for amplitude, f_agg in ((0.1, 0.7e9), (0.25, 1e9), (0.5, 1.5e9))]
        cal = calibrate_k_sub(points, GEOM, MAT)
        assert cal.k_sub == pytest.approx(osc.k_sub, rel=1e-12)
        assert cal.spread_db < 1e-12

    def test_reported_points_spread_below_1db(self):
        cal = calibrate_k_sub(ref.REPORTED_SPUR_POINTS, GEOM, MAT)
        assert cal.spread_db <= 1.0

    def test_inconsistent_points_warn(self):
        points = [(0.1, 1e9, -36.1), (0.2, 1e9, -36.1 - 10.0)]
        with pytest.warns(CalibrationWarning):
            calibrate_k_sub(points, GEOM, MAT)

    def test_empty_points_rejected(self):
        with pytest.raises(ValidationError):
            calibrate_k_sub([], GEOM, MAT)

    @pytest.mark.parametrize("point", [(math.nan, 1e9, -30.0), (0.1, 1e9, math.nan),
                                       (0.0, 1e9, -30.0), (0.1, -1e9, -30.0),
                                       (0.1, math.inf, -30.0), (0.1, 1e9, "-30"),
                                       (0.1, 1e9), (True, 1e9, -30.0)])
    def test_bad_point_rejected_by_name(self, point):
        with pytest.raises(ValidationError, match=r"^reference point \(.*\) needs a finite"):
            calibrate_k_sub([(0.1, 1e9, -36.1), point], GEOM, MAT)

    @pytest.mark.parametrize("point", [(0.1, 1e9, 1e308), (0.1, 1e9, -1e308),
                                       (1e-320, 1e9, -30.0), (0.1, 1e-300, -30.0)])
    def test_k_sub_out_of_range_names_the_point(self, point):
        with pytest.raises(ValidationError, match=rf"^reference point {re.escape(repr(point))} "
                                                  "implies a k_sub outside"):
            calibrate_k_sub([point], GEOM, MAT)

    def test_one_beta_record_for_the_points(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            calibrate_k_sub([(0.1, 1e9, -12.0), (0.2, 1e9, -6.0)], GEOM, MAT)
        assert [w.category for w in caught] == [NarrowbandWarning]
        assert "at 0.2 Vpp, 1e+09 Hz" in str(caught[0].message)
        with pytest.raises(ModelValidityError, match="at 0.1 Vpp, 1e"):
            calibrate_k_sub([(0.1, 1e9, 5.0)], GEOM, MAT)


class TestSweeps:
    def test_amplitude_sweep_matches_reported_span(self):
        osc = calibrated_oscillator()
        rows = amplitude_sweep(osc, GEOM, MAT, [0.1 * (i + 1) for i in range(7)])
        assert rows[0][1] == pytest.approx(-36.1, abs=1e-9)
        rise = rows[-1][1] - rows[0][1]
        assert rise == pytest.approx(20 * math.log10(7), abs=1e-9)
        slope = slope_per_octave(rows)
        assert slope == pytest.approx(OCTAVE_DB, abs=1e-9)

    def test_frequency_sweep_rolloff(self):
        osc = calibrated_oscillator()
        rows = frequency_sweep(osc, GEOM, MAT, [0.5e9, 1e9, 2e9], amplitude_vpp=0.3)
        assert rows[0][1] == pytest.approx(ref.SPUR_300MVPP_HALF_GHZ_DBC, abs=1e-6)
        assert rows[-1][1] == pytest.approx(ref.SPUR_300MVPP_TWO_GHZ_DBC, abs=1e-6)
        assert rows[0][1] - rows[-1][1] == pytest.approx(ref.ROLLOFF_DB, abs=1e-6)

    def test_order_independence(self):
        osc = calibrated_oscillator()
        forward = frequency_sweep(osc, GEOM, MAT, [0.5e9, 1e9, 2e9])
        backward = frequency_sweep(osc, GEOM, MAT, [2e9, 1e9, 0.5e9])
        assert dict(forward) == dict(backward)

    def test_rows_are_lists_of_float_pairs(self):
        # callers concatenate sweeps with + and unpack (x, y) pairs
        osc = calibrated_oscillator()
        for rows in (amplitude_sweep(osc, GEOM, MAT, [0, 1e-1]),
                     frequency_sweep(osc, GEOM, MAT, np.array([1e9, 2e9]))):
            assert type(rows) is list and len(rows) == 2
            assert all(type(row) is tuple and list(map(type, row)) == [float, float]
                       for row in rows)
        assert amplitude_sweep(osc, GEOM, MAT, []) == []

    @settings(max_examples=25, deadline=None)
    @given(k_sub=st.floats(min_value=1e7, max_value=1e9),
           amplitudes=st.lists(st.floats(min_value=0.0, max_value=0.7), min_size=1, max_size=9),
           frequencies=st.lists(st.floats(min_value=1e9, max_value=1e10), min_size=1,
                                max_size=9),
           load=st.sampled_from([None, 50.0, 1e3]), exact_bessel=st.booleans())
    def test_sweeps_equal_per_point_levels(self, k_sub, amplitudes, frequencies, load,
                                           exact_bessel):
        osc = OscillatorModel(k_sub=k_sub)
        kwargs = dict(substrate_load=load, exact_bessel=exact_bessel)
        f_agg = frequencies[0]
        h = substrate_transfer(f_agg, GEOM, MAT, substrate_load=load)
        rows = amplitude_sweep(osc, GEOM, MAT, amplitudes, f_agg=f_agg, **kwargs)
        assert [x for x, _ in rows] == amplitudes
        np.testing.assert_allclose(
            [y for _, y in rows],
            [spur_dbc(osc, a, f_agg, h, exact_bessel) for a in amplitudes], rtol=0, atol=1e-12)
        rows = frequency_sweep(osc, GEOM, MAT, frequencies, amplitude_vpp=amplitudes[0], **kwargs)
        assert [x for x, _ in rows] == frequencies
        np.testing.assert_allclose(
            [y for _, y in rows],
            [spur_dbc(osc, amplitudes[0], f, substrate_transfer(f, GEOM, MAT, substrate_load=load),
                      exact_bessel) for f in frequencies], rtol=0, atol=1e-12)

    def test_slope_is_the_least_squares_fit(self):
        rng = np.random.default_rng(5)
        x = np.sort(rng.uniform(0.1, 10.0, 12))
        y = rng.normal(size=12)
        expected = np.polyfit(np.log2(x), y, 1)[0]
        assert slope_per_octave(list(zip(x, y))) == pytest.approx(expected, rel=1e-12)

    def test_slope_needs_two_finite_points(self):
        with pytest.raises(ValidationError):
            slope_per_octave([(0.1, float("-inf")), (0.2, float("-inf"))])
        with pytest.raises(ValidationError, match="distinct"):
            slope_per_octave([(0.1, -30.0), (0.1, -30.0)])
