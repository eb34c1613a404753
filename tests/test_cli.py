import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from catamp import _g17, coeffs
from catamp.cli import (
    _CSV_BLOCK,
    ConfigError,
    RunConfig,
    UnknownFigure,
    cmd_figure,
    load_config,
    main,
    write_csv,
)

from conftest import run_fresh_python


BASE_CONFIG = {
    "scenario": "demo",
    "cat1": {"kind": "even", "amp_mag": 1.0},
    "cat2": {"kind": "yurke_stoler", "amp_mag": 0.7},
    "params": {"g": 1.0, "pump_phase": math.pi / 2},
    "time": 0.3,
}


def write_config(tmp_path, extra):
    cfg = dict(BASE_CONFIG)
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestRunConfig:
    def test_round_trip(self):
        cfg = RunConfig.from_dict(dict(BASE_CONFIG, observable="Q", out="x.csv"))
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            RunConfig.from_dict(dict(BASE_CONFIG, bogus=1))

    def test_missing_required(self):
        bad = dict(BASE_CONFIG)
        del bad["params"]
        with pytest.raises(ConfigError, match="params"):
            RunConfig.from_dict(bad)

    def test_bad_cat_kind(self):
        bad = dict(BASE_CONFIG, cat1={"kind": "weird", "amp_mag": 1.0})
        with pytest.raises(ConfigError, match="cat1.kind"):
            RunConfig.from_dict(bad)


class TestFigureCommand:
    def test_unknown_figure(self):
        with pytest.raises(UnknownFigure):
            cmd_figure("99")

    def test_command_writes_nothing(self, tmp_path, monkeypatch):
        # main is the one writer: a command only returns its dataset
        monkeypatch.chdir(tmp_path)
        header, columns, meta = cmd_figure("8a")
        assert list(tmp_path.iterdir()) == []
        assert header == ["n", "p"] and len(columns) == 2 and meta["figure"] == "8a"

    def test_unknown_figure_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["figure", "99"]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_figure_3_parity_features(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["figure", "3", "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "fig3.meta.json").read_text())
        f = meta["features"]
        assert f["argmax_psi_plus"] % 2 != f["argmax_psi_minus"] % 2
        header = out.read_text().splitlines()[0]
        assert header == "n,p_psi_plus,p_psi_minus"

    def test_figure_6_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["figure", "6", "--out", str(out1)]) == 0
        assert main(["figure", "6", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        m1 = (tmp_path / "a.meta.json").read_text()
        m2 = (tmp_path / "b.meta.json").read_text()
        assert m1 == m2
        assert json.loads(m1)["features"]["odd_mass"] < 1e-10

    def test_figure_7_parts_sum_to_figure_6(self, tmp_path):
        def load(fig):
            out = tmp_path / f"fig{fig}.csv"
            assert main(["figure", fig, "--out", str(out)]) == 0
            rows = out.read_text().splitlines()[1:]
            return np.array([float(r.split(",")[1]) for r in rows])

        total = load("6")
        parts = load("7a") + load("7b") + load("7c")
        assert np.max(np.abs(total - parts)) < 1e-10

    # sidecar peak_count of the Wigner presets
    PEAK_COUNTS = {"1a": 4, "1b": 9, "1c": 3, "2a": 1, "2b": 2}

    # presets that no other test runs; 9a/9b (about 10 s each) are left out
    @pytest.mark.parametrize("fig_id, header, rows", [
        ("1a", "x,y,w", 201 * 201),
        ("1b", "x,y,w", 201 * 201),
        ("1c", "x,y,w", 201 * 201),
        ("2a", "x,y,w", 201 * 201),
        ("2b", "x,y,w", 201 * 201),
        ("4", "n,p_undamped,p_underdamped,p_overdamped", 121),
        ("8a", "n,p", 136),
        ("8b", "n,p_underdamped,p_overdamped", 101),
        ("10", "alpha1,kc_oo,kc_oe,kc_oo_underdamped,kc_oo_overdamped", 120),
    ])
    def test_preset_dataset(self, tmp_path, fig_id, header, rows):
        out = tmp_path / "fig.csv"
        assert main(["figure", fig_id, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == header
        assert len(lines) == rows + 1
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.all(np.isfinite(data))
        meta = json.loads((tmp_path / "fig.meta.json").read_text())
        assert meta["figure"] == fig_id
        assert {"cat1", "cat2", "params", "time"} <= set(meta["resolved"])
        if fig_id in self.PEAK_COUNTS:
            assert meta["features"]["peak_count"] == self.PEAK_COUNTS[fig_id]

    def test_figure_json_format(self, tmp_path):
        out = tmp_path / "fig5.json"
        assert main(["figure", "5", "--out", str(out), "--format", "json"]) == 0
        payload = json.loads(out.read_text())
        assert "data" in payload and "alpha2_sq" in payload["data"]
        assert payload["features"]["min_q_ee"] < 0.0
        # even idler reaches deeper squeezing than the yurke-stoler idler
        assert payload["features"]["min_q_ee"] < payload["features"]["min_q_ey"]


class TestScanCommand:
    def test_basic_scan(self, tmp_path):
        cfg = write_config(tmp_path, {
            "observable": "Q",
            "scan": {"parameter": "t", "values": [0.0, 0.1, 0.2]},
            "out": str(tmp_path / "scan.csv"),
        })
        assert main(["scan", "--config", cfg]) == 0
        rows = (tmp_path / "scan.csv").read_text().splitlines()
        assert rows[0] == "t,Q"
        assert len(rows) == 4

    def test_empty_scan_range(self, tmp_path):
        cfg = write_config(tmp_path, {
            "observable": "Q",
            "scan": {"parameter": "t", "values": []},
            "out": str(tmp_path / "scan.csv"),
        })
        assert main(["scan", "--config", cfg]) == 2
        assert not (tmp_path / "scan.csv").exists()

    def test_two_parameter_scan(self, tmp_path):
        cfg = write_config(tmp_path, {
            "observable": "S",
            "scan": {"parameter": "cat1.amp_phase", "values": [0.0, 1.5],
                     "parameter2": "cat2.amp_phase", "values2": [0.0, 1.5]},
            "out": str(tmp_path / "scan2.csv"),
        })
        assert main(["scan", "--config", cfg]) == 0
        rows = (tmp_path / "scan2.csv").read_text().splitlines()
        assert len(rows) == 5

    @pytest.mark.parametrize("first, second", [("cat1.amp_mag", "cat1.rel_phase"),
                                               ("cat1.rel_phase", "cat1.amp_mag")])
    def test_fields_of_one_cat_are_set_together(self, tmp_path, first, second):
        # odd(1) -> even(0), the vacuum, whichever axis comes first; odd(0) on
        # the way would be the zero vector
        cfg = write_config(tmp_path, {
            "cat1": {"kind": "odd", "amp_mag": 1.0}, "observable": "Q",
            "scan": {"parameter": first, "values": [0.0], "parameter2": second,
                     "values2": [0.0]},
            "out": str(tmp_path / "scan.csv"),
        })
        assert main(["scan", "--config", cfg]) == 0
        assert (tmp_path / "scan.csv").read_text().splitlines()[0] == f"{first},{second},Q"

    def test_unknown_observable(self, tmp_path):
        cfg = write_config(tmp_path, {
            "observable": "nope",
            "scan": {"parameter": "t", "values": [0.1]},
            "out": str(tmp_path / "scan.csv"),
        })
        assert main(["scan", "--config", cfg]) == 2


# even(1) x odd(0.7) at g = 1, whose coefficients leave float range near g*t = 352
FLOAT_RANGE = {"cat1": {"kind": "even", "amp_mag": 1.0}, "cat2": {"kind": "odd", "amp_mag": 0.7},
               "params": {"g": 1.0}}


class TestBadValues:
    @pytest.mark.parametrize("command, extra, message", [
        ("scan", {"observable": "Q", "scan": {"parameter": "t", "values": [0.1, -0.2]}},
         "scan value -0.2 for t: t must be finite and >= 0, got -0.2"),
        ("scan", {"observable": "kc_compound", "k": -1,
                  "scan": {"parameter": "t", "values": [0.1]}}, "k: must be"),
        ("pnd", {"n_max": -1}, "n_max: must be"),
        ("wigner", {"grid": {"x_min": -4, "x_max": 4, "y_min": -4, "y_max": 4, "nx": 1}},
         "grid: nx must be"),
        ("squeeze", {"time": math.nan}, "time: t must be finite and >= 0, got nan"),
        ("squeeze", {"time": "abc"}, "time: expected a number"),
        ("wigner", {"cut_y": "abc"}, "cut_y: expected a number"),
        ("wigner", {"cut_y": math.inf}, "cut_y: must be finite"),
        ("squeeze", {"mode": "two"}, "mode: expected a number"),
        ("squeeze", {"k": "x"}, "k: expected a number"),
        ("pnd", {"n_max": "many"}, "n_max: expected a number"),
        ("pnd", {"n_max": math.inf}, "n_max: expected a number"),
        ("squeeze", {"cat1": {"kind": "even", "amp_mag": "big"}}, "cat1.amp_mag: expected"),
        ("squeeze", {"cat2": {"amp_mag": 0.5, "amp_phase": []}}, "cat2.amp_phase: expected"),
        ("squeeze", {"cat1": {"amp_mag": 1.0, "rel_phase": "pi"}}, "cat1.rel_phase: expected"),
        ("squeeze", {"params": {"g": "one"}}, "params.g: expected a number"),
        ("wigner", {"grid": {"x_min": math.nan, "x_max": 4, "y_min": -4, "y_max": 4}},
         "grid: x_min must be finite"),
        ("wigner", {"grid": {"x_min": -4, "x_max": 4, "y_min": -4, "y_max": -math.inf}},
         "grid: y_max must be finite"),
        ("wigner", {"grid": {"x_min": -4, "x_max": 4, "y_min": -4, "y_max": 4, "nx": "x"}},
         "grid.nx: expected a number"),
        ("squeeze", {"k": 2.7}, "k: expected an integer, got 2.7"),
        ("squeeze", {"mode": 1.9}, "mode: expected an integer, got 1.9"),
        ("pnd", {"n_max": 40.5}, "n_max: expected an integer, got 40.5"),
        ("wigner", {"grid": {"x_min": -4, "x_max": 4, "y_min": -4, "y_max": 4, "nx": 21.9}},
         "grid.nx: expected an integer, got 21.9"),
        ("squeeze", {"k": True}, "k: expected a number, got True"),
        ("squeeze", {"cat1": {"kind": "even", "amp_mag": 1, "amp_phse": 0.5}},
         "cat1: unknown fields ['amp_phse']"),
        ("wigner", {"grid": {"x_min": -4, "x_max": 4, "y_min": -4, "y_max": 4, "nX": 41}},
         "grid: unknown fields ['nX']"),
        ("scan", {"observable": "Q", "scan": {"parameter": "t", "values": [0.1],
                                              "valuez2": [0.2]}},
         "scan: unknown fields ['valuez2']"),
        ("squeeze", {"cat2": {"kind": "odd", "amp_mag": 0.5, "rel_phase": 1.0}},
         "cat2: give kind or rel_phase, not both"),
        ("pnd", {"observable": "singel"}, "observable: unknown 'singel'"),
        ("squeeze", {"cat1": {"kind": "odd", "amp_mag": 1e-9}}, "cat1: odd cat"),
        ("squeeze", {"cat1": {"kind": ["odd"], "amp_mag": 1.0}}, "cat1.kind: must be one of"),
        ("scan", {"observable": "Q", "scan": {"parameter": ["t"], "values": [0.1]}},
         "scan.parameter: unknown field ['t']"),
        ("squeeze", {"time": "0.3"}, "time: expected a number, got '0.3'"),
        ("squeeze", {"cat1": {"kind": "even", "amp_mag": "1.1"}},
         "cat1.amp_mag: expected a number, got '1.1'"),
        ("squeeze", {"params": {"g": "1.0"}}, "params.g: expected a number, got '1.0'"),
        ("pnd", {"n_max": "40"}, "n_max: expected a number, got '40'"),
        ("scan", {"observable": "Q", "scan": {"parameter": "t", "values": ["0.1"]}},
         "scan.values: expected a number, got '0.1'"),
        ("squeeze", {"out": None}, "out: expected a string, got None"),
        ("squeeze", {"scenario": 7}, "scenario: expected a string, got 7"),
        ("squeeze", {"observable": ["Q"]}, "observable: expected a string, got ['Q']"),
        ("squeeze", {"format": None}, "format: expected a string, got None"),
        ("scan", {"observable": "mean_n1", "scan": {"parameter": "t", "values": [0.1],
                                                    "parameter2": "t", "values2": [0.5]}},
         "scan.parameter2: 't' is already scan.parameter"),
        ("wigner", {"grid": {"x_min": 4, "x_max": -4, "y_min": -4, "y_max": 4}},
         "grid: x_max must be > x_min, got -4.0 <= 4.0"),
        ("wigner", {"grid": {"x_min": -4, "x_max": 4, "y_min": 2, "y_max": 2}},
         "grid: y_max must be > y_min, got 2.0 <= 2.0"),
        ("squeeze", {**FLOAT_RANGE, "time": 354.0}, "time: t = 354.0 puts a coefficient beyond"),
        ("pnd", {**FLOAT_RANGE, "time": 354.0}, "time: t = 354.0 puts a coefficient beyond"),
        ("wigner", {**FLOAT_RANGE, "time": 354.0}, "time: t = 354.0 puts a coefficient beyond"),
        ("scan", {**FLOAT_RANGE, "observable": "Q",
                  "scan": {"parameter": "t", "values": [1.0, 400.0]}},
         "scan value 400.0 for t: t = 400.0 puts a coefficient beyond"),
        ("scan", {**FLOAT_RANGE, "observable": "Q",
                  "scan": {"parameter": "params.g", "values": [1.0, 1e160]}},
         "scan value 1e+160 for params.g: t = 0.3 puts a coefficient beyond"),
        ("scan", {"observable": "Q", "scan": {"parameter": "t", "values": [0.1, 0.2],
                                              "values2": [5, 6, 7]}},
         "scan.parameter2: required"),
    ], ids=["scan_t_negative", "k_negative", "n_max_negative", "grid_nx_1", "time_nan",
            "time_text", "cut_y_text", "cut_y_inf", "mode_text", "k_text", "n_max_text",
            "n_max_inf", "amp_mag_text", "amp_phase_list", "rel_phase_text", "params_g_text",
            "grid_x_min_nan", "grid_y_max_inf", "grid_nx_text", "k_fraction", "mode_fraction",
            "n_max_fraction", "grid_nx_fraction", "k_bool", "cat_unknown_field",
            "grid_unknown_field", "scan_unknown_field", "cat_kind_and_rel_phase",
            "pnd_observable_unknown", "cat_degenerate_odd", "cat_kind_list",
            "scan_parameter_list", "time_numeric_text", "amp_mag_numeric_text",
            "params_g_numeric_text", "n_max_numeric_text", "scan_value_numeric_text",
            "out_null", "scenario_number", "observable_list", "format_null",
            "scan_same_field_twice", "grid_x_reversed", "grid_y_zero_width",
            "squeeze_float_range", "pnd_float_range", "wigner_float_range",
            "scan_t_float_range", "scan_g_float_range", "scan_values2_without_parameter2"])
    def test_exit_2_names_the_field(self, tmp_path, monkeypatch, capsys, command, extra,
                                    message):
        out = tmp_path / "out.csv"
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, {"out": str(out), **extra})
        assert main([command, "--config", cfg]) == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


    @pytest.mark.parametrize("where", ["directory", "missing_parent"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, where):
        out = tmp_path if where == "directory" else tmp_path / "missing" / "x.csv"
        assert main(["figure", "8a", "--out", str(out)]) == 2
        assert "error: out: " in capsys.readouterr().err
        cfg = write_config(tmp_path, {"out": str(out), "n_max": 10})
        assert main(["pnd", "--config", cfg]) == 2
        assert "error: out: " in capsys.readouterr().err


class TestDefaultOut:
    @pytest.mark.parametrize("argv, name", [
        (["figure", "8a"], "figure_8a"),
        (["oracle-check"], "oracle_check_small"),
    ])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_default_name_takes_the_format_suffix(self, tmp_path, monkeypatch, argv, name,
                                                 fmt):
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--format", fmt]) == 0
        written = sorted(p.name for p in tmp_path.iterdir())
        if fmt == "json":
            assert written == [f"{name}.json"]
            assert "data" in json.loads((tmp_path / f"{name}.json").read_text())
        else:
            assert written == [f"{name}.csv", f"{name}.meta.json"]


class TestOtherCommands:
    def test_pnd_json_keeps_column_types(self, tmp_path):
        cfg = write_config(tmp_path, {"out": str(tmp_path / "pnd.json"), "n_max": 40,
                                      "format": "json"})
        assert main(["pnd", "--config", cfg]) == 0
        data = json.loads((tmp_path / "pnd.json").read_text())["data"]
        assert data["n"] == list(range(41))
        assert all(type(v) is int for v in data["n"])
        assert all(type(v) is float for v in data["p"])

    def test_pnd_command(self, tmp_path):
        cfg = write_config(tmp_path, {"out": str(tmp_path / "pnd.csv"), "n_max": 40})
        assert main(["pnd", "--config", cfg]) == 0
        rows = (tmp_path / "pnd.csv").read_text().splitlines()
        assert rows[0] == "n,p,p_mixture,p_sym_interference,p_asym_interference"
        total = sum(float(r.split(",")[1]) for r in rows[1:])
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_integral_float_is_an_integer(self, tmp_path):
        cfg = write_config(tmp_path, {"out": str(tmp_path / "pnd.csv"), "n_max": 40.0})
        assert main(["pnd", "--config", cfg]) == 0
        assert len((tmp_path / "pnd.csv").read_text().splitlines()) == 42

    def test_pnd_strict_escalates_truncation(self, tmp_path):
        cfg = write_config(tmp_path, {"out": str(tmp_path / "pnd.csv"), "n_max": 3})
        assert main(["pnd", "--config", cfg, "--strict"]) == 3
        # file is still written before escalation
        assert (tmp_path / "pnd.csv").exists()

    def test_pnd_strict_escalates_a_non_finite_distribution(self, tmp_path, capsys):
        # even(1) x odd(1) at g t = 30: every P(n) is NaN
        cfg = write_config(tmp_path, {
            "out": str(tmp_path / "pnd.csv"), "n_max": 100, "time": 30.0,
            "cat1": {"kind": "even", "amp_mag": 1.0}, "cat2": {"kind": "odd", "amp_mag": 1.0},
            "params": {"g": 1.0, "pump_phase": 0.0}})
        assert main(["pnd", "--config", cfg, "--strict"]) == 3
        assert "distribution is not finite" in capsys.readouterr().err

    def test_squeeze_command(self, tmp_path):
        cfg = write_config(tmp_path, {"out": str(tmp_path / "sq.csv")})
        assert main(["squeeze", "--config", cfg]) == 0
        rows = (tmp_path / "sq.csv").read_text().splitlines()
        assert rows[0] == "S1,Q1,S2,Q2,S,Q"
        assert len(rows) == 2

    def test_wigner_command(self, tmp_path):
        cfg = write_config(tmp_path, {
            "out": str(tmp_path / "w.csv"),
            "grid": {"x_min": -4, "x_max": 4, "y_min": -4, "y_max": 4,
                     "nx": 41, "ny": 41},
        })
        assert main(["wigner", "--config", cfg]) == 0
        meta = json.loads((tmp_path / "w.meta.json").read_text())
        assert "min_on_cut" in meta["features"]
        rows = (tmp_path / "w.csv").read_text().splitlines()
        assert len(rows) == 41 * 41 + 1

    def test_wigner_json_expands_the_axes(self, tmp_path):
        grid = {"x_min": -4, "x_max": 3, "y_min": -2, "y_max": 5, "nx": 8, "ny": 5}
        cfg = write_config(tmp_path, {"out": str(tmp_path / "w.json"), "format": "json",
                                      "grid": grid})
        assert main(["wigner", "--config", cfg]) == 0
        data = json.loads((tmp_path / "w.json").read_text())["data"]
        x, y = np.linspace(-4, 3, 8), np.linspace(-2, 5, 5)
        assert data["x"] == np.tile(x, 5).tolist()
        assert data["y"] == np.repeat(y, 8).tolist()
        assert all(type(v) is float for column in data.values() for v in column)
        assert len(data["w"]) == 8 * 5

    def test_oracle_check_small(self, tmp_path, capsys):
        # the comparison lattice is pointwise, so no boundary warning fires
        out = tmp_path / "oc.csv"
        assert main(["oracle-check", "--envelope", "small", "--strict", "--out", str(out)]) == 0
        assert "warning" not in capsys.readouterr().err
        meta = json.loads((tmp_path / "oc.meta.json").read_text())
        assert meta["max_abs_deviation"] < 1e-6

    def test_oracle_check_loads_no_scipy(self, tmp_path):
        cfg = write_config(tmp_path, {"out": str(tmp_path / "pnd.csv"), "n_max": 40})
        run_fresh_python(f"""
            import sys
            from catamp.cli import main
            assert main(["figure", "8a", "--out", {str(tmp_path / "8a.csv")!r}]) == 0
            assert main(["pnd", "--config", {cfg!r}]) == 0
            assert main(["oracle-check", "--envelope", "small", "--strict",
                         "--out", {str(tmp_path / "oc.csv")!r}]) == 0
            loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
            assert not loaded, loaded
        """)

    def test_bad_config_file(self, tmp_path):
        missing = str(tmp_path / "none.json")
        assert main(["scan", "--config", missing]) == 2
        garbled = tmp_path / "bad.json"
        garbled.write_text("{not json")
        assert main(["scan", "--config", str(garbled)]) == 2

    def test_load_config_round_trip_file(self, tmp_path):
        path = write_config(tmp_path, {"observable": "Q1"})
        cfg = load_config(path)
        assert cfg.observable == "Q1"
        assert cfg.cat1.amp_mag == 1.0


SMALL_GRID = {"x_min": -4, "x_max": 4, "y_min": -4, "y_max": 4, "nx": 21, "ny": 21}


class TestOneRecordPerPoint:
    # validating time or a scan point builds the record the command then reads
    @pytest.mark.parametrize("command, extra, builds", [
        ("wigner", {"grid": SMALL_GRID}, 1),
        ("pnd", {"n_max": 40}, 1),
        ("squeeze", {}, 1),
        ("scan", {"observable": "S", "scan": {"parameter": "t", "values": [0.1, 0.2, 0.4, 0.5]}},
         4 + 1),
    ], ids=["wigner", "pnd", "squeeze", "scan"])
    def test_coeffs_at_runs_once_per_point(self, tmp_path, monkeypatch, command, extra, builds):
        calls = []
        original = coeffs.coeffs_at

        def counted(*args):
            calls.append(args)
            return original(*args)

        for module in [m for key, m in sys.modules.items() if key.startswith("catamp")]:
            if getattr(module, "coeffs_at", None) is original:
                monkeypatch.setattr(module, "coeffs_at", counted)
        cfg = write_config(tmp_path, dict(extra, out=str(tmp_path / "out.csv")))
        coeffs._evolve.cache_clear()  # an earlier test may have left this record
        assert main([command, "--config", cfg]) == 0
        assert len(calls) == builds


class TestCommandOrder:
    def test_outputs_do_not_depend_on_the_order(self, tmp_path, monkeypatch):
        # the scan ends on the record of t = -0.0; the next command starts at
        # t = 0.0 with the same system (wigner, forward) or another (squeeze,
        # reverse)
        damped = dict(BASE_CONFIG["params"], gamma1=0.3, gamma2=0.3, nbar1=0.1, nbar2=0.1)
        configs = {
            "pnd": {"n_max": 60, "params": damped},
            "squeeze": {"cat2": {"kind": "odd", "amp_mag": 0.7}, "time": 0.0},
            "scan": {"observable": "S", "scan": {"parameter": "t",
                                                 "values": [0.55, 0.15, 0.3, -0.0]}},
            "wigner": {"mode": 2, "time": 0.0, "grid": SMALL_GRID},
        }
        commands = [["figure", "6", "--out", "figure6.csv"],
                    *([name, "--config", f"{name}.json"] for name in configs)]
        outputs = {}
        for order, sequence in (("forward", commands), ("reverse", commands[::-1])):
            run_dir = tmp_path / order
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)  # relative out paths, so the sidecars match too
            for name, extra in configs.items():
                config = dict(BASE_CONFIG, **extra, out=f"{name}.csv")
                (run_dir / f"{name}.json").write_text(json.dumps(config))
            for argv in sequence:
                assert main(argv) == 0, argv
            outputs[order] = {path.name: path.read_bytes() for path in run_dir.iterdir()}
        assert len(outputs["forward"]) == 2 * len(commands) + len(configs)
        assert outputs["forward"] == outputs["reverse"]


def row_by_row_csv(path, header, columns):
    """Reference writer: every row formatted by one %-format, cell by cell."""
    conv = {"i": "%d", "u": "%d", "O": "%s", "U": "%s"}
    row = ",".join(conv.get(c.dtype.kind, "%.17g") for c in columns) + "\r\n"
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(header) + "\r\n")
        f.writelines(row % cells for cells in zip(*(c.tolist() for c in columns)))


# float64 values whose text is easy to get wrong: signed zeros and nans,
# infinities, subnormals and 1-ulp neighbours; exact 17th-digit ties (round half
# to even: 123456789012345.12); the %g switches between fixed and exponent
# notation; 1e153, stored as 9.999999999999999997e152, whose 17 digits round up
# to 1e+153; and three-digit exponents
HARD_FLOATS = np.array([
    0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
    np.nextafter(2.2250738585072014e-308, 0.0), 1.0, np.nextafter(1.0, 2.0),
    np.nextafter(1.0, 0.0), 0.1, 0.30000000000000004, 1e300, -1.7976931348623157e308,
    1e16, 12345678901234567.0,
    123456789012345.125, -123456789012345.125,
    1e-5, np.nextafter(1e-5, 0.0), np.nextafter(1e-5, 1.0), 9.9999999999999995e-05, 1e-4,
    np.nextafter(1e17, 0.0), 1e17, np.nextafter(1e17, np.inf),
    1e153, 1e-100, 1e-300, np.nextafter(1e-300, 0.0), 1e200,
])


class TestWriteCsv:
    @pytest.mark.parametrize("rows", [0, 1, 7, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1,
                                      2 * _CSV_BLOCK + 3])
    def test_matches_row_by_row_writer(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        pick = rng.integers(0, len(HARD_FLOATS), rows)
        nan_bits = np.array([0x7FF8000000000001, 0xFFF0000000000002], dtype=np.uint64)
        columns = [
            HARD_FLOATS[pick],                                       # repeats
            np.where(pick % 5 == 0, 0.0, -0.0),                      # signed zeros only
            rng.standard_normal(rows),                               # all distinct
            np.tile(nan_bits.view(np.float64), rows)[:rows],         # nan payloads
            rng.integers(-(2**62), 2**62, rows),
            rng.integers(0, 3, rows).astype(np.uint8),
            pick % 2 == 0,
            rng.standard_normal(rows).astype(np.float32),
            np.array([f"case{k % 3}" for k in range(rows)], dtype=object),
            np.array(["a", "b,c"] * rows, dtype=str)[:rows],
        ]
        header = [f"c{k}" for k in range(len(columns))]
        write_csv(str(tmp_path / "new.csv"), header, columns)
        row_by_row_csv(str(tmp_path / "ref.csv"), header, columns)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "ref.csv").read_bytes()
        assert new.count(b"\r\n") == rows + 1

    @pytest.mark.parametrize("rows", [0, 1, 7, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1,
                                      2 * _CSV_BLOCK + 3])
    def test_value_row_pairs_match_expanded_columns(self, tmp_path, rows):
        # a (values, rows) column writes the bytes of values[rows]; the signed
        # zeros and nan payloads keep their own texts
        rng = np.random.default_rng(rows)
        nan_bits = np.array([0x7FF8000000000001, 0xFFF0000000000002], dtype=np.uint64)
        hard = np.concatenate([HARD_FLOATS, nan_bits.view(np.float64)])
        pairs = [
            (hard, rng.integers(0, len(hard), rows)),
            (hard, np.tile(np.arange(len(hard)), rows)[:rows]),
            (hard, np.repeat(np.arange(len(hard)), rows)[:rows]),
            (np.array([3, -7, 2**62]), rng.integers(0, 3, rows)),
            (np.array(["a", "b,c"]), np.arange(rows) % 2),
        ]
        columns = [*pairs, rng.standard_normal(rows), np.arange(rows)]
        header = [f"c{k}" for k in range(len(columns))]
        write_csv(str(tmp_path / "pairs.csv"), header, columns)
        write_csv(str(tmp_path / "expanded.csv"), header,
                  [values[index] for values, index in pairs] + columns[len(pairs):])
        new = (tmp_path / "pairs.csv").read_bytes()
        assert new == (tmp_path / "expanded.csv").read_bytes()
        assert new.count(b"\r\n") == rows + 1

    def test_random_bit_patterns_match_row_by_row_writer(self, tmp_path):
        rng = np.random.default_rng(18)
        bits = rng.integers(0, 2**64, 2**18, dtype=np.uint64)
        mantissas = rng.integers(1, 2**52, 1024, dtype=np.uint64)
        signs = rng.integers(0, 2, 1024, dtype=np.uint64) << np.uint64(63)
        subnormals = (signs | mantissas).view(np.float64)
        nans = (signs | np.uint64(0x7FF << 52) | mantissas).view(np.float64)
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        tens = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
        column = np.concatenate([bits.view(np.float64), subnormals, nans, tens, -tens])
        write_csv(str(tmp_path / "new.csv"), ["v"], [column])
        row_by_row_csv(str(tmp_path / "ref.csv"), ["v"], [column])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @staticmethod
    def assert_matches_row_by_row_writer(tmp_path, column):
        column = np.concatenate([column, np.nextafter(column, -np.inf), np.nextafter(column, np.inf)])
        column = np.concatenate([column, -column])
        write_csv(str(tmp_path / "new.csv"), ["v"], [column])
        row_by_row_csv(str(tmp_path / "ref.csv"), ["v"], [column])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_powers_of_two_match_row_by_row_writer(self, tmp_path):
        # every binade's first value, the subnormals' included, and its
        # 1-ulp neighbours, of both signs
        self.assert_matches_row_by_row_writer(tmp_path, np.ldexp(1.0, np.arange(-1074, 1024)))

    def test_exact_ties_match_row_by_row_writer(self, tmp_path):
        # v = m / 2**(17 - E) with m odd scales to y = m * 5**(16 - E) / 2, an
        # exact tie on the 17th digit wherever y is in [1e16, 1e17) and m
        # below 2**53; decades E = -8..15 hold such v
        ties = []
        for E in range(-8, 16):
            five = 5 ** (16 - E)
            low, high = -(-2 * 10 ** 16 // five), min(-(-2 * 10 ** 17 // five), 2 ** 53)
            odd = [m for m in (low, low + 1, (low + high) // 2, (low + high) // 2 + 1,
                               high - 2, high - 1) if m % 2 and low <= m < high]
            assert odd, E
            for m in odd:
                v = m / 2.0 ** (17 - E)
                y = Fraction(v) * Fraction(10) ** (16 - E)
                assert y.denominator == 2 and 10 ** 16 <= y < 10 ** 17, (E, m)
                ties.append(v)
        self.assert_matches_row_by_row_writer(tmp_path, np.array(ties))

    @pytest.mark.parametrize("fig_id", ["1a", "1b", "1c", "2a", "2b"])
    def test_figure_grids_rarely_fall_back_to_python(self, fig_id):
        # Python formats only the zeros and the near-ties: 2 or 3 of a grid's
        # 40 803 x, y and W values
        _, ((x, _), (y, _), w), _ = cmd_figure(fig_id)
        values = np.concatenate([x, y, w])
        assert len(values) == 201 + 201 + 201 * 201
        slow = _g17._decimal(values)[2]
        assert slow.sum() <= 1e-3 * len(values)
