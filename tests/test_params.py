"""Parameter validation, thermal voltage, config-file parsing."""

import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tsvkit import DEFAULT_GEOMETRY, DEFAULT_MATERIALS, sigma_from_mobility
from tsvkit.constants import K_B, Q_E
from tsvkit.errors import ConfigError, ValidationError
from tsvkit.network import FrequencyGrid, ZSweep, z_matrix_at, z_matrix_mna
from tsvkit.params import (MaterialParams, geometry_from_mapping, load_config,
                           materials_from_mapping, parse_config_text, require)
from tsvkit.rlgc import r_total, rlgc_at, skin_depth
from tsvkit.sparams import SSweep
from tsvkit.spur import substrate_transfer, substrate_transfer_mna

GEOM = DEFAULT_GEOMETRY
MAT = DEFAULT_MATERIALS
EL_1GHZ = rlgc_at(1e9, GEOM, MAT)


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
        with pytest.raises(ValidationError, match="^mu_p must be finite and strictly positive"):
            sigma_from_mobility(1e21, math.nan)

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

    def test_unreadable_file_names_its_path(self, tmp_path):
        for path in (tmp_path / "missing.cfg", tmp_path):
            with pytest.raises(ConfigError, match=f"^cannot read {str(path)!r}: ") as err:
                load_config(path)
            assert err.value.__cause__ is None

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


class TestRequire:
    """The one range check of every input: a Python float takes a shortcut past numpy."""

    @pytest.mark.parametrize("value", [5e-324, 1.0, sys.float_info.max, 0.0, -0.0, -1.0,
                                       math.inf, -math.inf, math.nan])
    def test_float_numpy_float_and_array_agree(self, value):
        outcomes = []
        for form in (value, np.float64(value), np.array([1.0, value])):
            try:
                require("x", form, "finite and positive", lowest=5e-324)
                outcomes.append("accepted")
            except ValidationError as err:
                outcomes.append(str(err))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert (outcomes[0] == "accepted") == (value > 0 and math.isfinite(value))

    def test_kinds_refuse_arrays_and_bound_complex_magnitudes(self):
        with pytest.raises(ValidationError, match=r"^x must be a number, got array\(\[1\.\]\)$"):
            require("x", np.array([1.0]), "a number", kinds="")
        require("h", np.array([0.6 + 0.8j]), "|h| <= 1", highest=1.0, kinds="fiuc")
        with pytest.raises(ValidationError, match=r"^h must be \|h\| <= 1, got \(1\+1j\)$"):
            require("h", 1 + 1j, "|h| <= 1", highest=1.0, kinds="fiuc")

    def test_narrow_arrays_are_compared_in_double(self):
        # in float32, 5e-324 would round to zero and the largest double to inf
        require("x", np.array([1.0, 3e38], dtype=np.float32), "positive", lowest=5e-324)
        for bad in (0.0, np.inf):
            with pytest.raises(ValidationError, match=f"^x must be positive, got {bad}$"):
                require("x", np.array([1.0, bad], dtype=np.float32), "positive", lowest=5e-324)

    @pytest.mark.parametrize("value, named", [
        (np.float32(0.3), r"got a numpy float32 \(0\.30000001192092896\)"),
        (np.int64(3), r"got a numpy int64 \(3\)"), (np.float16(-1.0), r"got a numpy float16")],
        ids=["float32", "int64", "float16"])
    def test_a_numpy_scalar_other_than_float64_is_refused_by_its_type(self, value, named):
        with pytest.raises(ValidationError, match=r"^x must be finite and >= 0\.0, as a Python "
                                                  r"number or a numpy float64, " + named):
            require("x", value, "finite and >= {lowest}")
        require("x", np.float64(0.3), "finite and >= {lowest}")
        with pytest.raises(ValidationError, match=r"^x must be finite and >= 0\.0, got -1\.0$"):
            require("x", np.float64(-1.0), "finite and >= {lowest}")

    def test_rule_names_its_bounds(self):
        with pytest.raises(ValidationError, match=r"^x must be in \[1\.0, 2\.0\], got 0\.5$"):
            require("x", 0.5, "in [{lowest}, {highest}]", lowest=1.0, highest=2.0)


def planted(n, member, value):
    """(n, 3, 3) matrices, finite but for ``value`` in one entry of ``member``."""
    m = np.full((n, 3, 3), 0.1 + 0.2j)
    m[member, 1, 2] = value
    return m


AXIS = "^frequencies must be finite, non-negative and strictly increasing: record "
# A sweep each record refuses, and the message; {} is the record's name for its matrices.
BAD_SWEEPS = {
    "negative": ([-1.0], np.ones((1, 3, 3)), AXIS + "1 is at -1 Hz$"),
    "negative_after_dc": ([0.0, -1.0], np.ones((2, 3, 3)), AXIS + "2 is at -1 Hz$"),
    "decreasing": ([1e9, 3e9, 2e9], np.ones((3, 3, 3)), AXIS + r"3 is at 2e\+09 Hz$"),
    "repeated": ([1e9, 1e9], np.ones((2, 3, 3)), AXIS + r"2 is at 1e\+09 Hz$"),
    "nan_frequency": ([1e9, math.nan, 3e9], np.ones((3, 3, 3)), AXIS + "2 is at nan Hz$"),
    "lone_nan_frequency": ([math.nan], np.ones((1, 3, 3)), AXIS + "1 is at nan Hz$"),
    "inf_frequency": ([1e9, math.inf], np.ones((2, 3, 3)), AXIS + "2 is at inf Hz$"),
    "nan_entry": ([1e8, 1e9, 1e10], planted(3, 1, math.nan),
                  r"^{} must be finite: record 2 at 1e\+09 Hz holds a non-finite entry$"),
    "inf_entry": ([1e8, 1e9], planted(2, 1, complex(0.0, -math.inf)),
                  r"^{} must be finite: record 2 at 1e\+09 Hz holds a non-finite entry$"),
    "lone_inf_entry": ([1e9], planted(1, 0, math.inf),
                       r"^{} must be finite: record 1 at 1e\+09 Hz holds a non-finite entry$"),
    "empty": ([], np.ones((0, 3, 3)), "^a sweep needs a nonempty 1-D frequency vector$"),
    "2d_axis": ([[1e9, 2e9]], np.ones((2, 3, 3)),
                 "^a sweep needs a nonempty 1-D frequency vector$"),
}


class TestSweepRule:
    """require_sweep, the one rule of what a ZSweep or an SSweep may hold."""

    @pytest.mark.parametrize("f, m, named", BAD_SWEEPS.values(), ids=BAD_SWEEPS.keys())
    @pytest.mark.parametrize("record, name", [(ZSweep, "z"), (SSweep, "s")],
                             ids=["ZSweep", "SSweep"])
    def test_a_bad_sweep_is_refused_naming_its_first_bad_record(self, record, name, f, m, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a NaN is compared without a warning
            with pytest.raises(ValidationError, match=named.format(name)):
                record(np.array(f), m)

    @pytest.mark.parametrize("f", [[0.0], [-0.0, 1.0], [0.0, 5e-324, 1e9, 1e300]],
                             ids=["dc", "negative_zero", "dc_then_subnormal"])
    def test_a_dc_point_and_increasing_frequencies_are_accepted(self, f):
        for record in (ZSweep, SSweep):
            assert record(f, np.ones((len(f), 3, 3))).frequency.tolist() == f


# Every route that takes a frequency, and one input of each kind it must
# refuse.  A grid takes a sequence: each input is the one point of a grid.
FREQUENCY_ROUTES = {
    "rlgc_at": lambda f: rlgc_at(f, GEOM, MAT),
    "skin_depth": lambda f: skin_depth(f, MAT),
    "r_total": lambda f: r_total(f, GEOM, MAT),
    "z_matrix_at": lambda f: z_matrix_at(f, EL_1GHZ),
    "z_matrix_mna": lambda f: z_matrix_mna(f, EL_1GHZ),
    "substrate_transfer": lambda f: substrate_transfer(f, GEOM, MAT),
    "substrate_transfer_mna": lambda f: substrate_transfer_mna(f, GEOM, MAT),
    "FrequencyGrid": lambda f: FrequencyGrid([f]),
}
BAD_FREQUENCIES = {"str": "1e9", "None": None, "list": [1e9], "complex": 1e9 + 0j, "bool": True,
                   "nan": math.nan, "zero": 0.0, "2-D": np.full((2, 2), 1e9),
                   "empty": np.array([]), "numpy str": np.str_("1e9"), "numpy bool": np.True_}


@pytest.mark.parametrize("f", BAD_FREQUENCIES.values(), ids=BAD_FREQUENCIES.keys())
@pytest.mark.parametrize("route", FREQUENCY_ROUTES.values(), ids=FREQUENCY_ROUTES.keys())
def test_a_bad_frequency_is_a_validation_error_naming_it(route, f):
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # refused before numpy computes with it
        with pytest.raises(ValidationError, match=r"frequency|shape \("):
            route(f)


@pytest.mark.parametrize("f", [10**9, np.float64(1e9), np.float32(1e9), np.int64(10**9),
                               np.longdouble(1e9), np.array(1e9)],
                         ids=["int", "float64", "float32", "int64", "longdouble", "0-d array"])
def test_one_frequency_of_any_real_type_is_accepted(f):
    for name in ("skin_depth", "z_matrix_at", "z_matrix_mna", "substrate_transfer"):
        FREQUENCY_ROUTES[name](f)
