"""End-to-end command-line behavior via main(argv)."""

import json
import math
import sys
import tracemalloc
from dataclasses import replace

import pytest

import reference_values as ref
from tsvkit import DEFAULT_GEOMETRY, DEFAULT_MATERIALS, ValidationError, cli
from tsvkit.cli import main
from tsvkit.network import MAX_POINTS, z_matrix_mna
from tsvkit.rlgc import rlgc_at
from tsvkit.sparams import z_to_s
from tsvkit.touchstone import read_s3p


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestExtract:
    def test_default_run(self, tmp_path, capsys):
        s3p = tmp_path / "pair.s3p"
        csv = tmp_path / "pair.csv"
        code, out, err = run(capsys, "extract", "--out", str(s3p), "--csv", str(csv))
        assert code == 0
        text = s3p.read_text()
        assert "# Hz S RI R 50" in text.splitlines()
        doc = read_s3p(str(s3p))
        assert len(doc.records) == 201
        assert doc.records[0][0] == pytest.approx(1e6)
        assert doc.records[-1][0] == pytest.approx(100e9)
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "frequency_hz,s21_db,s31_db"
        assert len(lines) == 202
        assert "r_dc" in out and "c_ox" in out

    def test_points_flag(self, tmp_path, capsys):
        s3p = tmp_path / "p.s3p"
        code, _, _ = run(capsys, "extract", "--points", "11",
                         "--out", str(s3p), "--csv", str(tmp_path / "p.csv"))
        assert code == 0
        assert len(read_s3p(str(s3p)).records) == 11

    def test_element_summary_golden(self, tmp_path, capsys):
        code, out, _ = run(capsys, "extract", "--json",
                           "--out", str(tmp_path / "p.s3p"),
                           "--csv", str(tmp_path / "p.csv"))
        assert code == 0
        summary = json.loads(out)
        el = summary["elements"]
        assert el["r_dc_ohm"] == pytest.approx(ref.R_DC, rel=1e-9)
        assert el["l_tsv_h"] == pytest.approx(ref.L_TSV, rel=1e-9)
        assert el["c_ox_f"] == pytest.approx(ref.C_OX, rel=1e-9)
        assert el["c_d_f"] == pytest.approx(ref.C_D, rel=1e-9)
        assert el["c_si_f"] == pytest.approx(ref.C_SI, rel=1e-9)
        assert el["g_si_s"] == pytest.approx(ref.G_SI, rel=1e-9)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.s3p", tmp_path / "b.s3p"
        run(capsys, "extract", "--out", str(a), "--csv", str(tmp_path / "a.csv"))
        run(capsys, "extract", "--out", str(b), "--csv", str(tmp_path / "b.csv"))
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_validation_failure_writes_nothing(self, tmp_path, capsys):
        s3p = tmp_path / "never.s3p"
        code, _, err = run(capsys, "extract", "--radius=-1e-6",
                           "--out", str(s3p), "--csv", str(tmp_path / "never.csv"))
        assert code != 0
        assert "error" in err.lower()
        assert not s3p.exists()
        assert not (tmp_path / "never.csv").exists()

    def test_z_csv_export(self, tmp_path, capsys):
        zcsv = tmp_path / "z.csv"
        code, _, _ = run(capsys, "extract", "--points", "5",
                         "--out", str(tmp_path / "p.s3p"),
                         "--csv", str(tmp_path / "p.csv"), "--z-csv", str(zcsv))
        assert code == 0
        lines = zcsv.read_text().strip().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("frequency_hz,re_z11")

    def test_text_is_streamed_to_the_files(self, tmp_path, capsys):
        # Each file's text built whole as a str traced 146 MB at the peak; in pieces, 51 MB.
        paths = [str(tmp_path / name) for name in ("p.s3p", "p.csv", "z.csv")]
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            code, _, _ = run(capsys, "extract", "--points", "100001", "--full-s", "--out",
                             paths[0], "--csv", paths[1], "--z-csv", paths[2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
        assert code == 0 and len(read_s3p(paths[0]).records) == 100_001
        assert peak < 100e6

    def test_element_table_lines(self, tmp_path, capsys):
        code, out, _ = run(capsys, "extract", "--points", "3",
                           "--out", str(tmp_path / "p.s3p"), "--csv", str(tmp_path / "p.csv"))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "element     value            unit"
        assert [(ln.split()[0], ln.split()[-1]) for ln in lines[1:7]] == [
            ("r_dc", "ohm"), ("l_tsv", "H"), ("c_ox", "F"),
            ("c_d", "F"), ("c_si", "F"), ("g_si", "S")]


class TestConfigPrecedence:
    def test_config_file_overrides_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("height = 100e-6\npoints = 7\n")
        code, out, _ = run(capsys, "extract", "--config", str(cfg), "--json",
                           "--out", str(tmp_path / "p.s3p"),
                           "--csv", str(tmp_path / "p.csv"))
        assert code == 0
        summary = json.loads(out)
        assert summary["records"] == 7
        # c_ox is linear in height: doubled height doubles it
        assert summary["elements"]["c_ox_f"] == pytest.approx(2 * ref.C_OX, rel=1e-9)

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("height = 100e-6\n")
        code, out, _ = run(capsys, "extract", "--config", str(cfg),
                           "--height", "50e-6", "--json",
                           "--out", str(tmp_path / "p.s3p"),
                           "--csv", str(tmp_path / "p.csv"))
        assert json.loads(out)["elements"]["c_ox_f"] == pytest.approx(ref.C_OX, rel=1e-9)

    def test_seed_params_pins_reference_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("height = 100e-6\nrho_cu = 3e-8\n")
        code, out, _ = run(capsys, "extract", "--config", str(cfg),
                           "--seed-params", "reference", "--json",
                           "--out", str(tmp_path / "p.s3p"),
                           "--csv", str(tmp_path / "p.csv"))
        el = json.loads(out)["elements"]
        assert el["c_ox_f"] == pytest.approx(ref.C_OX, rel=1e-9)
        assert el["r_dc_ohm"] == pytest.approx(ref.R_DC, rel=1e-9)

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hight = 100e-6\n")
        code, _, err = run(capsys, "extract", "--config", str(cfg),
                           "--out", str(tmp_path / "p.s3p"),
                           "--csv", str(tmp_path / "p.csv"))
        assert code != 0
        assert not (tmp_path / "p.s3p").exists()


class TestSweep:
    def test_radius_sweep_shape(self, tmp_path, capsys):
        out_csv = tmp_path / "r.csv"
        code, _, _ = run(capsys, "sweep", "--param", "radius", "--start", "1e-6",
                         "--stop", "5e-6", "--steps", "5", "--metric", "c_ox",
                         "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "radius,c_ox"
        assert len(lines) == 6

    def test_c_ox_increases_with_radius(self, capsys):
        code, out, _ = run(capsys, "sweep", "--param", "radius", "--start", "1e-6",
                           "--stop", "5e-6", "--steps", "5", "--metric", "c_ox", "--json")
        rows = json.loads(out)["rows"]
        values = [v for _, v in rows]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_c_ox_decreases_with_liner(self, capsys):
        code, out, _ = run(capsys, "sweep", "--param", "liner_thickness",
                           "--start", "0.1e-6", "--stop", "1e-6", "--steps", "5",
                           "--metric", "c_ox", "--json")
        values = [v for _, v in json.loads(out)["rows"]]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_c_ox_linear_in_height(self, capsys):
        code, out, _ = run(capsys, "sweep", "--param", "height", "--start", "50e-6",
                           "--stop", "100e-6", "--steps", "2", "--metric", "c_ox", "--json")
        values = [v for _, v in json.loads(out)["rows"]]
        assert values[1] == pytest.approx(2 * values[0], rel=1e-12)

    def test_multi_param_rejected(self, capsys):
        code, _, err = run(capsys, "sweep", "--param", "radius", "--param", "height",
                           "--start", "1e-6", "--stop", "5e-6", "--metric", "c_ox")
        assert code == 2
        assert "exactly one" in err

    def test_s21_metric_at_probe(self, capsys):
        code, out, _ = run(capsys, "sweep", "--param", "pitch", "--start", "20e-6",
                           "--stop", "80e-6", "--steps", "3", "--metric", "s21_db",
                           "--probe-frequency", "10e9", "--json")
        rows = json.loads(out)["rows"]
        assert rows[1][0] == pytest.approx(50e-6)
        # wider pitch weakens the lateral coupling
        values = [v for _, v in rows]
        assert values[-1] < values[0]


    @pytest.mark.parametrize("metric, row", [("s21_db", 1), ("s31_db", 2)])
    def test_s_metrics_match_nodal_reference(self, metric, row, capsys):
        code, out, _ = run(capsys, "sweep", "--param", "pitch", "--start", "20e-6",
                           "--stop", "80e-6", "--steps", "4", "--metric", metric,
                           "--probe-frequency", "3e9", "--z0", "75", "--json")
        assert code == 0
        for pitch, value in json.loads(out)["rows"]:
            geom = replace(DEFAULT_GEOMETRY, pitch=pitch)
            s = z_to_s(z_matrix_mna(3e9, rlgc_at(3e9, geom, DEFAULT_MATERIALS)), z0=75.0).s[0]
            expected = 20.0 * math.log10(abs(s[row, 0]))
            assert value == pytest.approx(expected, rel=1e-9)


class TestSpur:
    def test_amplitude_mode_replica(self, tmp_path, capsys):
        out_csv = tmp_path / "amp.csv"
        code, out, _ = run(capsys, "spur", "--mode", "amplitude", "--json",
                           "--out", str(out_csv))
        assert code == 0
        summary = json.loads(out)
        assert summary["first"]["spur_dbc"] == pytest.approx(-36.1, abs=1e-9)
        assert summary["last"]["spur_dbc"] == pytest.approx(ref.SPUR_700MV_DBC, abs=1e-6)
        assert summary["total_change_db"] == pytest.approx(20 * math.log10(7), abs=1e-9)
        assert summary["slope_db_per_octave"] == pytest.approx(6.0206, abs=1e-3)
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "amplitude_v,spur_dbc"
        assert len(lines) == 8

    def test_frequency_mode_replica(self, capsys):
        code, out, _ = run(capsys, "spur", "--mode", "frequency", "--json")
        assert code == 0
        summary = json.loads(out)
        assert -summary["total_change_db"] == pytest.approx(ref.ROLLOFF_DB, abs=1e-6)
        assert summary["first"]["spur_dbc"] == pytest.approx(
            ref.SPUR_300MVPP_HALF_GHZ_DBC, abs=1e-6)

    def test_custom_calibration_point(self, capsys):
        code, out, _ = run(capsys, "spur", "--mode", "amplitude",
                           "--cal-point", "0.1:1e9:-30.0", "--json")
        summary = json.loads(out)
        assert summary["first"]["spur_dbc"] == pytest.approx(-30.0, abs=1e-9)

    def test_zero_amplitude_sentinel(self, capsys):
        code, out, _ = run(capsys, "spur", "--mode", "amplitude",
                           "--start", "0", "--stop", "0.2", "--steps", "2")
        assert code == 0
        assert "-inf" in out

    def test_bad_cal_point_rejected(self, capsys):
        code, _, err = run(capsys, "spur", "--mode", "amplitude",
                           "--cal-point", "0.1:1e9")
        assert code == 2

    def test_zero_steps_rejected(self, capsys):
        code, _, err = run(capsys, "spur", "--mode", "amplitude", "--steps", "0")
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bad_substrate_load_rejected(self, capsys):
        code, _, err = run(capsys, "spur", "--mode", "amplitude",
                           "--substrate-load", "fifty")
        assert code == 2

    def test_open_substrate_load_changes_rolloff(self, capsys):
        code, out, _ = run(capsys, "spur", "--mode", "frequency",
                           "--substrate-load", "open", "--json")
        assert code == 0
        # floating substrate node: transfer falls with frequency, steepening
        # the roll-off well past the loaded-port value
        assert -json.loads(out)["total_change_db"] > 14.0

    def test_spur_settings_from_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "spur.cfg"
        cfg.write_text("k_sub = 2.7069e10\nf_osc = 11e9\n")
        code, out, _ = run(capsys, "spur", "--mode", "amplitude",
                           "--config", str(cfg), "--json")
        summary = json.loads(out)
        assert summary["k_sub_hz_per_v"] == pytest.approx(2.7069e10)
        assert summary["sideband_hz"] == pytest.approx(12e9)
        assert summary["calibration_residuals_db"] is None


    @pytest.mark.parametrize("cal_point", ["0.1:1e9:1e308", "1e-320:1e9:-30"])
    def test_cal_point_out_of_range_is_one_error_line(self, capsys, cal_point):
        code, out, err = run(capsys, "spur", "--mode", "amplitude", "--cal-point", cal_point)
        assert code == 2 and out == ""
        point = repr(tuple(float(v) for v in cal_point.split(":")))
        assert err == f"error: reference point {point} implies a k_sub outside the " \
                      "floating-point range\n"

    @pytest.mark.parametrize("cal_point", ["nan:1e9:-30", "0.1:1e9:nan", "0:1e9:-30"])
    def test_cal_point_not_finite_is_one_error_line(self, capsys, cal_point):
        code, out, err = run(capsys, "spur", "--mode", "amplitude", "--cal-point", cal_point)
        assert code == 2 and out == ""
        assert err.startswith("error: reference point (") and err.count("\n") == 1
        assert "needs a finite positive amplitude and frequency and a finite level" in err

    def test_bad_frequency_named_as_a_plain_number(self, capsys):
        code, _, err = run(capsys, "spur", "--mode", "frequency", "--start", "0", "--stop", "1e9")
        assert code == 2
        assert err == "error: frequency must be finite and positive, got 0.0\n"

    @pytest.mark.parametrize("stop, steps", [("0.7", "8"), ("0", "7")])
    def test_json_of_a_zero_amplitude_is_strict(self, capsys, stop, steps):
        code, out, _ = run(capsys, "spur", "--mode", "amplitude", "--start", "0",
                           "--stop", stop, "--steps", steps, "--json")
        assert code == 0
        summary = json.loads(out, parse_constant=strict_constant)
        assert summary["first"] == {"spur_dbc": None, "swept": 0.0}
        assert summary["total_change_db"] is None


def strict_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    ["extract", "--points", "5", "--json"],
    ["sweep", "--param", "radius", "--start", "1e-6", "--stop", "4e-6", "--steps", "3",
     "--metric", "s21_db", "--json"],
    ["spur", "--mode", "frequency", "--json"],
    ["validate", "--f-stop", "1e30", "--points", "11", "--json"]])
def test_every_json_summary_is_strict(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, *argv)
    assert code in (0, 1) and out.count("\n") == 1
    json.loads(out, parse_constant=strict_constant)


class TestValidate:
    def test_all_checks_pass(self, capsys):
        code, out, _ = run(capsys, "validate", "--points", "41")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") >= 5

    def test_json_mode(self, capsys):
        code, out, _ = run(capsys, "validate", "--points", "21", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        names = {c["name"] for c in payload["checks"]}
        assert {"dual_route_z", "reciprocity", "passivity",
                "z_s_roundtrip", "touchstone_roundtrip"} <= names

    def test_failing_reference_route_is_a_fail_line(self, capsys):
        # (I - S) is ill-conditioned at the top of this grid: the round trip
        # fails, and every other check is still computed and reported
        code, out, err = run(capsys, "validate", "--f-stop", "1e30", "--points", "11")
        assert code == 1 and err == ""
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "PASS dual_route_z", "PASS reciprocity", "PASS passivity", "FAIL z_s_roundtrip",
            "PASS touchstone_roundtrip", "PASS transfer_dual_route"]
        assert "at 1.58489e+25 Hz (condition number 2.727e+13)" in lines[3]
        code, out, _ = run(capsys, "validate", "--f-stop", "1e30", "--points", "11", "--json")
        payload = json.loads(out)
        assert code == 1 and payload["passed"] is False
        assert [c["passed"] for c in payload["checks"]] == [True, True, True, False, True, True]

    def test_nodal_route_holds_from_1khz_to_1thz(self, capsys):
        # the refined nodal solve agrees with the closed form down to 1 kHz;
        # the S round trip there is bounded by the rounding of S itself
        code, out, err = run(capsys, "validate", "--f-start", "1e3", "--f-stop", "1e12",
                             "--points", "2001")
        assert code == 1 and err == ""
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "PASS dual_route_z", "PASS reciprocity", "PASS passivity", "FAIL z_s_roundtrip",
            "PASS touchstone_roundtrip", "PASS transfer_dual_route"]

    def test_nodal_route_holds_on_a_thin_short_via_from_1khz_to_1thz(self, capsys):
        # on this thin short via 904 of the 2,001 frequencies need more than two refinement steps
        code, out, err = run(capsys, "validate", "--radius", "2.62e-6", "--liner-thickness",
                             "6.89e-7", "--height", "1.31e-5", "--pitch", "7.412e-5",
                             "--sigma-si", "3.97", "--f-start", "1e3", "--f-stop", "1e12",
                             "--points", "2001")
        assert code == 1 and err == ""
        assert [line.split(":")[0] for line in out.splitlines()] == [
            "PASS dual_route_z", "PASS reciprocity", "PASS passivity", "FAIL z_s_roundtrip",
            "PASS touchstone_roundtrip", "PASS transfer_dual_route"]

    @pytest.mark.parametrize("error", [1e-6, float("nan")])
    def test_dual_route_disagreement_is_a_fail_line(self, error, monkeypatch, capsys):
        import tsvkit.network
        exact = tsvkit.network.z_matrix_mna
        monkeypatch.setattr(tsvkit.network, "z_matrix_mna", lambda *a, **k: replace(
            zs := exact(*a, **k), z=zs.z * (1.0 + error)))
        code, out, err = run(capsys, "validate", "--points", "21")
        assert code == 1 and err == ""
        assert out.splitlines()[0] == \
            f"FAIL dual_route_z: worst relative disagreement {abs(error):.3e}"
        assert out.count("PASS") == 5

    def test_error_before_the_checks_exits_2(self, capsys):
        code, out, err = run(capsys, "validate", "--points", "1")
        assert code == 2 and out == "" and err.startswith("error:")


class TestCommandLineErrors:
    """A bad command line ends in one 'error:' line and exit code 2, writing nothing."""

    @staticmethod
    def one_error_line(err):
        return err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("steps", ["-1", "0"])
    def test_sweep_steps_below_one(self, steps, tmp_path, capsys):
        out_csv = tmp_path / "r.csv"
        code, _, err = run(capsys, "sweep", "--param", "radius", "--start", "1e-6",
                           "--stop", "2e-6", "--steps", steps, "--metric", "c_ox",
                           "--out", str(out_csv))
        assert code == 2
        assert self.one_error_line(err) and "--steps" in err
        assert not out_csv.exists()

    def test_spur_negative_steps(self, tmp_path, capsys):
        out_csv = tmp_path / "s.csv"
        code, _, err = run(capsys, "spur", "--mode", "amplitude", "--steps", "-1",
                           "--out", str(out_csv))
        assert code == 2
        assert self.one_error_line(err)
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["extract", "sweep", "validate"])
    def test_nan_z0_is_named(self, command, tmp_path, capsys):
        outputs = {"extract": ["--out", str(tmp_path / "p.s3p"), "--csv", str(tmp_path / "p.csv")],
                   "sweep": ["--param", "pitch", "--start", "20e-6", "--stop", "80e-6",
                             "--metric", "s21_db", "--out", str(tmp_path / "r.csv")],
                   "validate": []}[command]
        code, out, err = run(capsys, command, "--z0", "nan", *outputs)
        assert code == 2 and out == ""
        assert self.one_error_line(err) and err.startswith("error: z0 must be one finite")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["spur", "--mode", "amplitude", "--steps", "100000000000000000000"],
        ["spur", "--mode", "frequency", "--steps", str(MAX_POINTS + 1)],
        ["sweep", "--param", "pitch", "--start", "20e-6", "--stop", "80e-6",
         "--metric", "c_ox", "--steps", "100000000000000000000"],
        ["validate", "--points", "10000000000000"],
        ["extract", "--points", str(MAX_POINTS + 1)],
    ], ids=["spur-1e20", "spur-cap", "sweep-1e20", "validate-1e13", "extract-cap"])
    def test_size_past_the_cap_refused_before_allocating(self, argv, tmp_path, capsys):
        if argv[0] != "validate":
            argv = argv + ["--out", str(tmp_path / "out.txt")]
        if argv[0] == "extract":
            argv = argv + ["--csv", str(tmp_path / "p.csv")]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert self.one_error_line(err) and f"need at most {MAX_POINTS} " in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--csv", "--z-csv"])
    @pytest.mark.parametrize("kind", ["missing directory", "directory"])
    def test_extract_refuses_an_output_it_cannot_write_before_writing_any(
            self, flag, kind, tmp_path, capsys):
        bad = tmp_path / ("missing/p.txt" if kind == "missing directory" else "taken")
        if kind == "directory":
            bad.mkdir()
        paths = {"--out": tmp_path / "p.s3p", "--csv": tmp_path / "p.csv",
                 "--z-csv": tmp_path / "z.csv", flag: bad}
        code, out, err = run(capsys, "extract", "--points", "3",
                             *(str(x) for item in paths.items() for x in item))
        assert code == 2 and out == ""
        assert self.one_error_line(err) and err.startswith(f"error: cannot write {str(bad)!r}")
        assert [p.name for p in tmp_path.iterdir()] == ([] if bad.parent.name == "missing"
                                                        else ["taken"])

    @pytest.mark.parametrize("argv", [
        ["sweep", "--param", "radius", "--start", "1e-6", "--stop", "2e-6", "--metric", "c_ox"],
        ["spur", "--mode", "amplitude"]], ids=["sweep", "spur"])
    def test_an_output_in_a_missing_directory_is_refused(self, argv, tmp_path, capsys):
        bad = str(tmp_path / "missing" / "r.csv")
        code, out, err = run(capsys, *argv, "--out", bad)
        assert (code, out) == (2, "")
        assert err == f"error: cannot write {bad!r}: no such folder, or not a writable file\n"
        assert list(tmp_path.iterdir()) == []

    def test_bad_int(self, capsys):
        code, out, err = run(capsys, "spur", "--mode", "amplitude", "--steps", "x")
        assert code == 2
        assert self.one_error_line(err) and "'x'" in err
        assert out == ""

    def test_bad_choice(self, tmp_path, capsys):
        code, _, err = run(capsys, "extract", "--seed-params", "default",
                           "--out", str(tmp_path / "p.s3p"), "--csv", str(tmp_path / "p.csv"))
        assert code == 2
        assert self.one_error_line(err) and "--seed-params" in err
        assert not (tmp_path / "p.s3p").exists()

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "spur")
        assert code == 2
        assert self.one_error_line(err) and "--mode" in err

    def test_unreadable_config_file(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        code, out, err = run(capsys, "validate", "--config", str(missing))
        assert (code, out) == (2, "")
        assert err == f"error: cannot read {str(missing)!r}: No such file or directory\n"

    def test_non_finite_probe_frequency(self, tmp_path, capsys):
        code, out, err = run(capsys, "sweep", "--param", "radius", "--start", "1e-6",
                             "--stop", "2e-6", "--metric", "s21_db", "--probe-frequency", "nan")
        assert (code, out) == (2, "")
        assert err == "error: frequency must be finite and positive, got nan\n"

    def test_infinite_height(self, tmp_path, capsys):
        code, _, err = run(capsys, "extract", "--height", "inf",
                           "--out", str(tmp_path / "p.s3p"), "--csv", str(tmp_path / "p.csv"))
        assert code == 2
        assert self.one_error_line(err) and err.startswith("error: height ")
        assert not (tmp_path / "p.s3p").exists()

    def test_element_outside_its_formula_range(self, capsys):
        # a subnormal height underflows R_dc to zero (and makes L_tsv NaN)
        code, out, err = run(capsys, "sweep", "--param", "height", "--start", "1e-320",
                             "--stop", "1e-320", "--steps", "1", "--metric", "l_tsv")
        assert code == 2
        assert self.one_error_line(err) and err.startswith("error: r_dc = 0.0 ")
        assert out == ""

    def test_non_numeric_config_setting(self, tmp_path, capsys):
        cfg = tmp_path / "spur.cfg"
        cfg.write_text("f_osc = fast\n")
        code, _, err = run(capsys, "spur", "--mode", "amplitude", "--config", str(cfg))
        assert code == 2
        assert self.one_error_line(err) and "f_osc" in err

    @pytest.mark.parametrize("setting, named", [("spacing = linaer", "spacing"),
                                                 ("points = 3.7", "points"),
                                                 ("points = inf", "points")])
    def test_bad_grid_setting_in_config(self, setting, named, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text(setting + "\n")
        out_s3p, out_csv = tmp_path / "p.s3p", tmp_path / "p.csv"
        code, _, err = run(capsys, "extract", "--config", str(cfg),
                           "--out", str(out_s3p), "--csv", str(out_csv))
        assert code == 2
        assert self.one_error_line(err) and named in err
        assert not out_s3p.exists() and not out_csv.exists()

    @pytest.mark.parametrize("text, named", [("height = abc\n", "line 1: height = 'abc'"),
                                              ("radius = 2e-6\nn_a = 1e21x\n", "line 2: n_a"),
                                              ("# caf\u00e9\n", "line 1: non-ASCII"),
                                              ("height = 5e-5\n\n# \u00b5m\n", "line 3"),
                                              ("z0 = fifty\n", "line 1: z0"),
                                              ("spacing = linaer\n", "line 1: spacing"),
                                              ("substrate_load = abc\n", "line 1: substrate_load")])
    def test_bad_config_file_is_one_error_line(self, text, named, tmp_path, capsys):
        cfg = tmp_path / "design.cfg"
        cfg.write_bytes(text.encode("utf-8"))
        out_s3p, out_csv = tmp_path / "p.s3p", tmp_path / "p.csv"
        code, out, err = run(capsys, "extract", "--config", str(cfg),
                             "--out", str(out_s3p), "--csv", str(out_csv))
        assert code == 2 and out == ""
        assert self.one_error_line(err) and named in err
        assert not out_s3p.exists() and not out_csv.exists()

    def test_open_substrate_load_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "spur.cfg"
        cfg.write_text("substrate_load = open\n")
        code, _, _ = run(capsys, "spur", "--mode", "amplitude", "--config", str(cfg))
        assert code == 0

    def test_whole_points_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("points = 5.0\nspacing = linear\n")
        code, out, _ = run(capsys, "extract", "--config", str(cfg), "--json",
                           "--out", str(tmp_path / "p.s3p"), "--csv", str(tmp_path / "p.csv"))
        assert code == 0 and json.loads(out)["records"] == 5

    def test_carrier_power_is_not_a_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "spur.cfg"
        cfg.write_text("carrier_power_db = 20\n")
        code, out, err = run(capsys, "spur", "--mode", "amplitude", "--json", "--config", str(cfg))
        assert code == 2
        assert self.one_error_line(err) and "unknown key 'carrier_power_db'" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_zero(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out


class TestParserBuiltForOneSubcommand:
    """main adds flags only to the subparser named on the command line."""

    ARGVS = [["--help"], ["extract", "--help"], ["sweep", "--help"], ["spur", "--help"],
             ["validate", "--help"], ["bogus"], ["validate", "--bogus"], [],
             ["extract", "--points", "x"], ["spur", "--mode", "loud"],
             ["sweep", "--param", "pitch"], ["--version"], ["-h", "validate"]]

    @staticmethod
    def outcome(capsys, call, argv):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
        return (code, *capsys.readouterr())

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_help_usage_and_errors_as_with_every_flag(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

        def every_flag(argv):   # main with every subcommand's flags built
            try:
                cli.build_parser().parse_args(argv)
            except ValidationError as err:
                print(f"error: {err}", file=sys.stderr)
                return 2
        expected = self.outcome(capsys, every_flag, argv)
        assert expected[0] in (0, 2) and expected[1] + expected[2]
        assert self.outcome(capsys, main, argv) == expected

    def test_only_the_named_subcommand_gets_flags(self):
        parser = cli.build_parser("spur")
        assert parser.parse_args(["spur", "--mode", "amplitude"]).func is cli.cmd_spur
        with pytest.raises(ValidationError, match="unrecognized arguments: --points 3"):
            parser.parse_args(["validate", "--points", "3"])
        assert cli.build_parser().parse_args(["validate", "--points", "3"]).points == 3
