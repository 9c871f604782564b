"""Parameter validation, thermal voltage, config-file parsing."""

import math
from dataclasses import replace

import pytest

from tsvkit import DEFAULT_GEOMETRY, DEFAULT_MATERIALS, sigma_from_mobility
from tsvkit.constants import K_B, Q_E
from tsvkit.errors import ConfigError, ValidationError
from tsvkit.params import (MaterialParams, geometry_from_mapping,
                           materials_from_mapping, parse_config_text)


class TestMaterials:
    def test_thermal_voltage(self):
        assert DEFAULT_MATERIALS.thermal_voltage == pytest.approx(
            K_B * 300.0 / Q_E, rel=1e-15)
        assert DEFAULT_MATERIALS.thermal_voltage == pytest.approx(0.025852, rel=1e-4)

    def test_default_resistivity_consistency(self):
        assert 1.0 / DEFAULT_MATERIALS.sigma_si == pytest.approx(0.12, rel=1e-12)

    def test_mobility_mode_close_to_resistivity_mode(self):
        # q*N_A*mu_p with the default mobility lands within ~5% of 1/0.12
        sigma = sigma_from_mobility(DEFAULT_MATERIALS.n_a)
        assert sigma == pytest.approx(DEFAULT_MATERIALS.sigma_si, rel=0.05)

    def test_mobility_mode_validation(self):
        with pytest.raises(ValidationError):
            sigma_from_mobility(-1e21)

    def test_positive_fields_enforced(self):
        with pytest.raises(ValidationError):
            MaterialParams(rho_cu=0.0, mu_r=1.0, eps_ox=3.9, eps_si=11.9,
                           n_a=1.2e21, n_i=1.45e16, sigma_si=8.33, temperature=300.0)


class TestHugeInts:
    """An int too large for a float is not a finite real number."""

    def test_geometry(self):
        with pytest.raises(ValidationError, match="^height must be finite"):
            replace(DEFAULT_GEOMETRY, height=10 ** 400)

    def test_materials(self):
        with pytest.raises(ValidationError, match="^temperature must be finite"):
            replace(DEFAULT_MATERIALS, temperature=-10 ** 400)


class TestGeometry:
    def test_defaults_valid(self):
        assert DEFAULT_GEOMETRY.height == 50e-6
        assert DEFAULT_GEOMETRY.pitch / (2 * DEFAULT_GEOMETRY.radius) == pytest.approx(8.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_GEOMETRY.height = 1.0


class TestConfigText:
    def test_basic_parse(self):
        values = parse_config_text("""
# reference overrides
height = 100e-6
radius = 2.5e-6   # trailing comment
spacing = linear
""")
        assert values["height"] == pytest.approx(100e-6)
        assert values["radius"] == pytest.approx(2.5e-6)
        assert values["spacing"] == "linear"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("hight = 1e-6\n", known_keys=("height",))
        assert "hight" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("height = 1e-6\nheight = 2e-6\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("height 1e-6\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("height =\n")

    def test_mapping_to_domain_objects(self):
        values = {"height": 100e-6, "n_a": 2.4e21}
        geom = geometry_from_mapping(values)
        mat = materials_from_mapping(values)
        assert geom.height == pytest.approx(100e-6)
        assert geom.radius == DEFAULT_GEOMETRY.radius
        assert mat.n_a == pytest.approx(2.4e21)
        assert mat.n_i == DEFAULT_MATERIALS.n_i

    def test_invalid_override_caught_at_construction(self):
        with pytest.raises(ValidationError):
            geometry_from_mapping({"pitch": 1e-6})



class TestFinitePositiveFields:
    """Both parameter classes share one check: finite, strictly positive, not a bool."""

    @pytest.mark.parametrize("bad", [math.inf, math.nan, True])
    @pytest.mark.parametrize("field", ["height", "radius"])
    def test_geometry_rejects(self, field, bad):
        with pytest.raises(ValidationError, match=f"^{field} must be finite"):
            replace(DEFAULT_GEOMETRY, **{field: bad})

    @pytest.mark.parametrize("bad", [math.inf, math.nan, True])
    @pytest.mark.parametrize("field", ["rho_cu", "temperature"])
    def test_materials_reject(self, field, bad):
        with pytest.raises(ValidationError, match=f"^{field} must be finite"):
            replace(DEFAULT_MATERIALS, **{field: bad})

    def test_int_values_accepted(self):
        assert replace(DEFAULT_MATERIALS, temperature=300).temperature == 300
