"""Element formulas against the frozen oracle values plus scaling/monotonicity laws."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import reference_values as ref
from tsvkit import (DEFAULT_GEOMETRY, DEFAULT_MATERIALS, MaterialParams,
                    TsvGeometry, ValidationError, rlgc)
from tsvkit.constants import EPS_0
from tsvkit.errors import GeometryOverlapError
from tsvkit.rlgc import (RlgcElements, c_d, c_ox, c_si_g_si, depletion_width, l_tsv,
                         r_ac, r_dc, r_total, rlgc_at, skin_depth)

GEOM = DEFAULT_GEOMETRY
MAT = DEFAULT_MATERIALS

REL = 1e-9


def scaled_geometry(**kwargs):
    values = dict(height=GEOM.height, radius=GEOM.radius, pitch=GEOM.pitch,
                  liner_thickness=GEOM.liner_thickness)
    values.update(kwargs)
    return TsvGeometry(**values)


class TestGoldenValues:
    def test_r_dc(self):
        assert r_dc(GEOM, MAT) == pytest.approx(ref.R_DC, rel=REL)

    def test_skin_depth(self):
        assert skin_depth(1e9, MAT) == pytest.approx(ref.SKIN_DEPTH_1GHZ, rel=REL)
        assert skin_depth(100e9, MAT) == pytest.approx(ref.SKIN_DEPTH_100GHZ, rel=REL)

    def test_r_ac(self):
        assert r_ac(1e9, GEOM, MAT) == pytest.approx(ref.R_AC_1GHZ, rel=REL)
        assert r_ac(100e9, GEOM, MAT) == pytest.approx(ref.R_AC_100GHZ, rel=REL)

    def test_r_total(self):
        assert r_total(1e9, GEOM, MAT) == pytest.approx(ref.R_TOTAL_1GHZ, rel=REL)

    def test_c_ox(self):
        assert c_ox(GEOM, MAT) == pytest.approx(ref.C_OX, rel=REL)

    def test_depletion_width(self):
        assert depletion_width(MAT) == pytest.approx(ref.W_D, rel=REL)

    def test_c_d(self):
        assert c_d(GEOM, MAT, depletion_width(MAT)) == pytest.approx(ref.C_D, rel=REL)

    def test_c_si_g_si(self):
        cap, cond = c_si_g_si(GEOM, MAT)
        assert cap == pytest.approx(ref.C_SI, rel=REL)
        assert cond == pytest.approx(ref.G_SI, rel=REL)

    def test_l_tsv(self):
        assert l_tsv(GEOM, MAT) == pytest.approx(ref.L_TSV, rel=REL)


class TestScalingLaws:
    def test_r_dc_quarter_at_double_radius(self):
        doubled = scaled_geometry(radius=2 * GEOM.radius)
        assert r_dc(doubled, MAT) == pytest.approx(r_dc(GEOM, MAT) / 4, rel=1e-15)

    def test_r_dc_linear_in_height(self):
        doubled = scaled_geometry(height=2 * GEOM.height)
        assert r_dc(doubled, MAT) == pytest.approx(2 * r_dc(GEOM, MAT), rel=1e-15)

    def test_skin_depth_halves_at_4f(self):
        assert skin_depth(4e9, MAT) == pytest.approx(skin_depth(1e9, MAT) / 2, rel=1e-15)

    def test_r_ac_doubles_at_4f(self):
        assert r_ac(4e9, GEOM, MAT) == pytest.approx(2 * r_ac(1e9, GEOM, MAT), rel=1e-15)

    def test_r_total_low_f_limit_is_r_dc(self):
        assert r_total(1e-3, GEOM, MAT) == pytest.approx(r_dc(GEOM, MAT), rel=1e-9)

    def test_c_ox_linear_in_height(self):
        doubled = scaled_geometry(height=2 * GEOM.height)
        assert c_ox(doubled, MAT) == pytest.approx(2 * c_ox(GEOM, MAT), rel=1e-15)

    def test_depletion_width_unity_log_term(self):
        # n_a/n_i = e makes the log term exactly 1
        m = MaterialParams(rho_cu=MAT.rho_cu, mu_r=MAT.mu_r, eps_ox=MAT.eps_ox,
                           eps_si=MAT.eps_si, n_a=MAT.n_i * math.e, n_i=MAT.n_i,
                           sigma_si=MAT.sigma_si, temperature=MAT.temperature)
        from tsvkit.constants import Q_E
        expected = math.sqrt(4 * m.eps_si * EPS_0 * m.thermal_voltage / (Q_E * m.n_a))
        assert depletion_width(m) == pytest.approx(expected, rel=1e-12)

    def test_depletion_width_doubles_with_4x_log_term(self):
        # shrink n_i to quadruple ln(n_a/n_i) at fixed n_a
        ratio = MAT.n_a / MAT.n_i
        m = MaterialParams(rho_cu=MAT.rho_cu, mu_r=MAT.mu_r, eps_ox=MAT.eps_ox,
                           eps_si=MAT.eps_si, n_a=MAT.n_a, n_i=MAT.n_a / ratio**4,
                           sigma_si=MAT.sigma_si, temperature=MAT.temperature)
        assert depletion_width(m) == pytest.approx(2 * depletion_width(MAT), rel=1e-12)

    def test_c_d_decreases_with_growing_depletion(self):
        widths = [0.2e-6, 0.5e-6, 1e-6, 2e-6, 10e-6]
        caps = [c_d(GEOM, MAT, w) for w in widths]
        assert all(b < a for a, b in zip(caps, caps[1:]))

    def test_l_tsv_doubles_under_uniform_scale(self):
        doubled = scaled_geometry(height=2 * GEOM.height, radius=2 * GEOM.radius,
                                  pitch=2 * GEOM.pitch,
                                  liner_thickness=2 * GEOM.liner_thickness)
        assert l_tsv(doubled, MAT) == pytest.approx(2 * l_tsv(GEOM, MAT), rel=1e-12)

    @pytest.mark.parametrize("hr", [0.1, 1.0, 10.0, 100.0, 1000.0])
    def test_l_tsv_positive_across_aspect_ratios(self, hr):
        g = TsvGeometry(height=hr * 1e-6, radius=1e-6, pitch=1e-3, liner_thickness=0.05e-6)
        assert l_tsv(g, MAT) > 0


class TestErrors:
    def test_negative_dimension_rejected(self):
        with pytest.raises(ValidationError):
            TsvGeometry(height=-1e-6, radius=2.5e-6, pitch=40e-6, liner_thickness=0.5e-6)

    def test_overlapping_vias_rejected(self):
        with pytest.raises(ValidationError):
            TsvGeometry(height=50e-6, radius=2.5e-6, pitch=5e-6, liner_thickness=0.5e-6)

    def test_thick_liner_rejected(self):
        with pytest.raises(ValidationError):
            TsvGeometry(height=50e-6, radius=2.5e-6, pitch=40e-6, liner_thickness=3e-6)

    def test_nonpositive_frequency_rejected(self):
        for f in (0.0, -1e9, float("nan")):
            with pytest.raises(ValidationError):
                skin_depth(f, MAT)
            with pytest.raises(ValidationError):
                r_ac(f, GEOM, MAT)

    def test_liner_floor_guard(self):
        g = scaled_geometry(liner_thickness=1e-13)
        with pytest.raises(ValidationError):
            c_ox(g, MAT)

    def test_depletion_floor_guard(self):
        with pytest.raises(ValidationError):
            c_d(GEOM, MAT, 1e-13)
        with pytest.raises(ValidationError):
            c_d(GEOM, MAT, -1e-6)

    def test_n_a_below_n_i_rejected(self):
        with pytest.raises(ValidationError):
            MaterialParams(rho_cu=MAT.rho_cu, mu_r=1.0, eps_ox=3.9, eps_si=11.9,
                           n_a=1e15, n_i=1.45e16, sigma_si=MAT.sigma_si,
                           temperature=300.0)

    def test_touching_pitch_ratio_rejected(self):
        # near-touching vias (ratio - 1 = 1e-13, below the default floor)
        g = TsvGeometry(height=50e-6, radius=0.5e-6, pitch=1e-6 + 1e-19,
                        liner_thickness=1e-20)
        with pytest.raises(GeometryOverlapError):
            c_si_g_si(g, MAT)

    def test_pitch_ratio_floor_configurable(self, monkeypatch):
        # the floor is the module constant, read at each call
        monkeypatch.setattr(rlgc, "PITCH_RATIO_FLOOR", 10.0)
        with pytest.raises(GeometryOverlapError):
            c_si_g_si(GEOM, MAT)


frequencies = st.floats(min_value=1e6, max_value=100e9)
heights = st.floats(min_value=5e-6, max_value=500e-6)
radii = st.floats(min_value=0.5e-6, max_value=10e-6)


class TestProperties:
    @given(f1=frequencies, f2=frequencies)
    def test_r_total_nondecreasing_in_frequency(self, f1, f2):
        lo, hi = sorted((f1, f2))
        assert r_total(hi, GEOM, MAT) >= r_total(lo, GEOM, MAT) * (1 - 1e-12)

    @given(f1=frequencies, f2=frequencies)
    def test_skin_depth_strictly_decreasing(self, f1, f2):
        lo, hi = sorted((f1, f2))
        if lo < hi:
            assert skin_depth(hi, MAT) < skin_depth(lo, MAT)

    @given(h1=heights, h2=heights)
    def test_c_ox_strictly_increasing_in_height(self, h1, h2):
        lo, hi = sorted((h1, h2))
        if lo < hi:
            assert c_ox(scaled_geometry(height=hi), MAT) > c_ox(scaled_geometry(height=lo), MAT)

    @given(f=frequencies)
    def test_quadrature_identity(self, f):
        total = r_total(f, GEOM, MAT)
        dc = r_dc(GEOM, MAT)
        ac = r_ac(f, GEOM, MAT)
        assert total * total == pytest.approx(dc * dc + ac * ac, rel=4e-15)
        assert total >= max(dc, ac)

    @given(h=heights, r=radii, pitch_factor=st.floats(min_value=2.5, max_value=50.0))
    def test_kelvin_relation(self, h, r, pitch_factor):
        g = TsvGeometry(height=h, radius=r, pitch=pitch_factor * r,
                        liner_thickness=min(0.2 * r, 0.5e-6))
        cap, cond = c_si_g_si(g, MAT)
        assert cond * MAT.eps_si * EPS_0 == pytest.approx(cap * MAT.sigma_si, rel=1e-12)

    @given(f=frequencies)
    def test_all_outputs_finite_positive(self, f):
        el = rlgc_at(f, GEOM, MAT)
        for field in fields(RlgcElements):
            value = getattr(el, field.name)
            assert math.isfinite(value) and value > 0


class TestBundle:
    def test_rlgc_at_matches_componentwise(self):
        el = rlgc_at(1e9, GEOM, MAT)
        assert [field.name for field in fields(RlgcElements)] == \
            ["r_half", "l_half", "c_ox", "c_d", "c_si", "g_si"]
        assert el.r_half == r_total(1e9, GEOM, MAT) / 2
        assert el.l_half == l_tsv(GEOM, MAT) / 2
        assert el.c_ox == c_ox(GEOM, MAT)
        assert el.c_d == c_d(GEOM, MAT, depletion_width(MAT))
        assert (el.c_si, el.g_si) == c_si_g_si(GEOM, MAT)

    def test_pure_function_bit_identical(self):
        assert rlgc_at(3.7e9, GEOM, MAT) == rlgc_at(3.7e9, GEOM, MAT)

    def test_only_resistance_varies_with_frequency(self):
        a = rlgc_at(1e8, GEOM, MAT)
        b = rlgc_at(1e10, GEOM, MAT)
        assert a.r_half < b.r_half
        assert (a.c_ox, a.c_d, a.c_si, a.g_si, a.l_half) == \
               (b.c_ox, b.c_d, b.c_si, b.g_si, b.l_half)

    def test_vector_matches_single_points_bit_for_bit(self):
        f = np.logspace(6, 11, 2001)
        el = rlgc_at(f, GEOM, MAT)
        assert el.r_half.shape == (2001,)
        assert el.r_half.tobytes() == (r_total(f, GEOM, MAT) / 2).tobytes()
        lone = [rlgc_at(fk, GEOM, MAT) for fk in f]
        for field in fields(RlgcElements):
            points = np.array([getattr(p, field.name) for p in lone])
            vector = np.broadcast_to(getattr(el, field.name), f.shape)
            assert vector.tobytes() == points.tobytes(), field.name

    def test_inconsistent_array_record_rejected(self):
        # a resistance array is the one array a record holds: each member
        # finite and positive, one dimension over the frequency axis
        el = rlgc_at(np.array([1e8, 1e9, 1e10]), GEOM, MAT)
        for bad in (np.array([1.0, -1.0, 1.0]), np.array([1.0, np.nan, 1.0]),
                    np.array([1.0, np.inf, 1.0]), np.ones((1, 3))):
            with pytest.raises(ValidationError, match="^r_half must be"):
                replace(el, r_half=el.r_half * bad)
        for name in ("l_half", "c_ox", "c_d", "c_si", "g_si"):
            with pytest.raises(ValidationError, match=f"^{name} must be finite and positive"):
                replace(el, **{name: -getattr(el, name)})
