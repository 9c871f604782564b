"""Sideband spur model: transfer, calibration, amplitude/frequency behavior."""

import json
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

import reference_values as ref
from tsvkit import (CalibrationWarning, DEFAULT_GEOMETRY, DEFAULT_MATERIALS,
                    ModelValidityError, NarrowbandWarning, OscillatorModel,
                    SpurScenario, ValidationError)
from tsvkit.cli import main
from tsvkit.spur import (BUILTIN_CALIBRATION_POINTS, amplitude_sweep, bessel_j0,
                         bessel_j1, builtin_oscillator, calibrate_k_sub,
                         frequency_sweep, modulation_index, scenario_for,
                         slope_per_octave, spur_dbc,
                         substrate_transfer, substrate_transfer_mna)

GEOM = DEFAULT_GEOMETRY
MAT = DEFAULT_MATERIALS
OCTAVE_DB = 20 * math.log10(2)


def calibrated_oscillator():
    return builtin_oscillator(GEOM, MAT)


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
        for f in (1e6, 1e9, 10e9):
            for load in (None, 50.0, 1e3):
                a = substrate_transfer(f, GEOM, MAT, substrate_load=load)
                b = substrate_transfer_mna(f, GEOM, MAT, substrate_load=load)
                assert abs(a - b) <= 1e-9 * abs(a)

    def test_low_frequency_limits(self):
        # the lateral path conducts at DC: an open substrate node floats up to
        # the drive voltage, a loaded one sits on the resistive divider
        assert abs(substrate_transfer(1.0, GEOM, MAT)) == pytest.approx(1.0, abs=1e-3)
        loaded = abs(substrate_transfer(1.0, GEOM, MAT, substrate_load=50.0))
        assert loaded == pytest.approx(0.0231, abs=5e-4)

    def test_never_exceeds_unity(self):
        import numpy as np
        for f in np.logspace(0, 11, 45):
            for load in (None, 50.0):
                assert abs(substrate_transfer(f, GEOM, MAT, substrate_load=load)) <= 1 + 1e-9

    def test_rising_through_band_with_z0_load(self):
        # strictly rising apart from float-level wiggle (~1e-8) in the flat
        # low-frequency region
        import numpy as np
        freqs = np.logspace(7, 10, 61)
        mags = [abs(substrate_transfer(f, GEOM, MAT, substrate_load=50.0)) for f in freqs]
        for a, b in zip(mags, mags[1:]):
            assert b >= a * (1 - 1e-6)
        assert mags[-1] > 1.2 * mags[0]

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            substrate_transfer(0.0, GEOM, MAT)
        with pytest.raises(ValidationError):
            substrate_transfer(1e9, GEOM, MAT, termination=-50.0)
        with pytest.raises(ValidationError):
            substrate_transfer(1e9, GEOM, MAT, substrate_load=0.0)


class TestScenario:
    def test_scenario_for_populates_transfer(self):
        scen = scenario_for(1e9, 0.5, GEOM, MAT)
        assert scen.aggressor_frequency == 1e9
        assert scen.aggressor_amplitude == 0.5
        assert abs(scen.tsv_transfer) == pytest.approx(ref.TRANSFER_Z0_ONE_GHZ, rel=1e-9)

    def test_validation(self):
        with pytest.raises(ValidationError):
            SpurScenario(aggressor_amplitude=-0.1, aggressor_frequency=1e9, tsv_transfer=0.1)
        with pytest.raises(ValidationError):
            SpurScenario(aggressor_amplitude=0.1, aggressor_frequency=0.0, tsv_transfer=0.1)
        with pytest.raises(ValidationError):
            SpurScenario(aggressor_amplitude=0.1, aggressor_frequency=1e9, tsv_transfer=1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, "0.1", 0.1 + 0j, True, None])
    def test_non_finite_or_non_real_scenario_rejected(self, bad):
        for field in ("aggressor_amplitude", "aggressor_frequency", "tsv_transfer"):
            values = dict(aggressor_amplitude=0.1, aggressor_frequency=1e9, tsv_transfer=0.1)
            values[field] = bad
            if field == "tsv_transfer" and isinstance(bad, complex):
                continue   # a complex transfer is the normal case
            with pytest.raises(ValidationError, match=f"^{field} must be"):
                SpurScenario(**values)

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


class TestSpurLevel:
    def test_calibration_point_reproduced(self):
        osc = calibrated_oscillator()
        scen = scenario_for(1e9, 0.1, GEOM, MAT)
        assert spur_dbc(osc, scen) == pytest.approx(-36.1, abs=1e-9)

    def test_700mv_prediction(self):
        osc = calibrated_oscillator()
        scen = scenario_for(1e9, 0.7, GEOM, MAT)
        assert spur_dbc(osc, scen) == pytest.approx(ref.SPUR_700MV_DBC, abs=1e-6)

    def test_amplitude_doubling_is_one_octave(self):
        osc = calibrated_oscillator()
        a = spur_dbc(osc, scenario_for(1e9, 0.2, GEOM, MAT))
        b = spur_dbc(osc, scenario_for(1e9, 0.4, GEOM, MAT))
        assert b - a == pytest.approx(OCTAVE_DB, abs=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(amplitude=st.floats(min_value=1e-3, max_value=0.05),
           f_agg=st.floats(min_value=2e8, max_value=5e9))
    def test_amplitude_linearity_everywhere(self, amplitude, f_agg):
        osc = calibrated_oscillator()
        h = substrate_transfer(f_agg, GEOM, MAT, substrate_load=50.0)
        low = SpurScenario(aggressor_amplitude=amplitude, aggressor_frequency=f_agg,
                           tsv_transfer=h)
        high = SpurScenario(aggressor_amplitude=2 * amplitude, aggressor_frequency=f_agg,
                            tsv_transfer=h)
        assert spur_dbc(osc, high) - spur_dbc(osc, low) == pytest.approx(OCTAVE_DB, abs=1e-9)

    def test_frequency_rolloff_decomposition(self):
        # spur(f) - spur(2f) = 6.0206 dB - 20*log10(|H(2f)|/|H(f)|)
        osc = calibrated_oscillator()
        for f in (0.3e9, 0.5e9, 1e9):
            h1 = substrate_transfer(f, GEOM, MAT, substrate_load=50.0)
            h2 = substrate_transfer(2 * f, GEOM, MAT, substrate_load=50.0)
            s1 = spur_dbc(osc, SpurScenario(0.3, f, h1))
            s2 = spur_dbc(osc, SpurScenario(0.3, 2 * f, h2))
            expected = OCTAVE_DB - 20 * math.log10(abs(h2) / abs(h1))
            assert s1 - s2 == pytest.approx(expected, abs=1e-9)

    def test_zero_amplitude_is_minus_inf(self):
        osc = calibrated_oscillator()
        scen = scenario_for(1e9, 0.0, GEOM, MAT)
        assert spur_dbc(osc, scen) == float("-inf")

    def test_upper_sideband_location(self, capsys):
        # the sideband is reported at f_osc + f_agg, by the spur command
        assert calibrated_oscillator().f_osc == pytest.approx(10.917e9)
        assert main(["spur", "--mode", "frequency", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["sideband_first_hz"] == 10.917e9 + 0.5e9
        assert summary["sideband_last_hz"] == 10.917e9 + 2e9

    def test_narrowband_warning_and_validity_error(self):
        osc = calibrated_oscillator()
        scen = scenario_for(1e9, 0.1, GEOM, MAT)
        beta = modulation_index(osc, scen)
        # scale amplitude to push beta into the warning band, then past the limit
        warn_amp = 0.1 * (0.6 / beta)
        with pytest.warns(NarrowbandWarning):
            spur_dbc(osc, scenario_for(1e9, warn_amp, GEOM, MAT))
        fail_amp = 0.1 * (2.5 / beta)
        with pytest.raises(ModelValidityError):
            spur_dbc(osc, SpurScenario(fail_amp, 1e9,
                                       substrate_transfer(1e9, GEOM, MAT, substrate_load=50.0)))


class TestBessel:
    @pytest.mark.parametrize("x", sorted(ref.BESSEL_J0))
    def test_series_against_quadrature(self, x):
        assert bessel_j0(x) == pytest.approx(ref.BESSEL_J0[x], rel=1e-12)
        assert bessel_j1(x) == pytest.approx(ref.BESSEL_J1[x], rel=1e-12)

    def test_exact_mode_matches_small_beta_limit(self):
        osc = calibrated_oscillator()
        scen = scenario_for(1e9, 0.1, GEOM, MAT)
        approx = spur_dbc(osc, scen)
        exact = spur_dbc(osc, scen, exact_bessel=True)
        # J1(b)/J0(b) ~ (b/2)(1 + b^2/4 ...): tiny correction at b = 0.031
        assert exact == pytest.approx(approx, abs=2e-3)
        assert exact > approx

    def test_exact_mode_larger_beta(self):
        osc = calibrated_oscillator()
        scen = scenario_for(1e9, 0.1, GEOM, MAT)
        beta = modulation_index(osc, scen)
        big = scenario_for(1e9, 0.1 * 0.45 / beta, GEOM, MAT)
        b = modulation_index(osc, big)
        expected = 20 * math.log10(bessel_j1(b) / bessel_j0(b))
        assert spur_dbc(osc, big, exact_bessel=True) == pytest.approx(expected, rel=1e-12)


class TestCalibration:
    def test_single_point_closed_form(self):
        cal = calibrate_k_sub(BUILTIN_CALIBRATION_POINTS, GEOM, MAT)
        h = abs(substrate_transfer(1e9, GEOM, MAT, substrate_load=50.0))
        closed_form = 1e9 * 2 * 10 ** (-36.1 / 20) / (h * 0.05)
        assert cal.k_sub == pytest.approx(closed_form, rel=1e-12)
        assert cal.k_sub == pytest.approx(ref.K_SUB, rel=1e-9)
        assert cal.residuals_db[0] == pytest.approx(0.0, abs=1e-12)

    def test_two_points_on_perfect_line_zero_residual(self):
        base = -36.1
        points = [(0.1, 1e9, base), (0.2, 1e9, base + OCTAVE_DB)]
        cal = calibrate_k_sub(points, GEOM, MAT)
        assert cal.spread_db == pytest.approx(0.0, abs=1e-12)

    def test_refit_on_own_predictions_is_fixed_point(self):
        osc = calibrated_oscillator()
        points = []
        for amplitude, f_agg in ((0.1, 0.7e9), (0.25, 1e9), (0.5, 1.5e9)):
            scen = scenario_for(f_agg, amplitude, GEOM, MAT)
            points.append((amplitude, f_agg, spur_dbc(osc, scen)))
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

    def test_slope_needs_two_finite_points(self):
        with pytest.raises(ValidationError):
            slope_per_octave([(0.1, float("-inf")), (0.2, float("-inf"))])
