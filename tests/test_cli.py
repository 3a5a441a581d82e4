from __future__ import annotations

import csv
import json
import sys
import time
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from wglimit import cli, experiments, kernels, vertex_spectrum
from wglimit.cli import _parse_eps_grid, main
from wglimit.experiments import ConfigError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from compare_outputs import README_RUN_CONFIG, readme_examples  # noqa: E402

README = Path(__file__).resolve().parents[1] / "README.md"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSpectrumCommand:
    def test_zero_profile(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--profile", "zero", "--count", "4",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["n", "lambda", "y_at_minus1", "y_at_plus1"]
        lams = [float(r[1]) for r in rows[1:]]
        assert lams == pytest.approx([0.0, np.pi**2 / 4, np.pi**2, 9 * np.pi**2 / 4],
                                     abs=1e-9)

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_case_is_the_classification(self, tmp_path, capsys, count):
        # tuned:2's zero eigenvalue is lambda_2: --count 1 stops below it, and
        # still prints the case that classify and every sweep use
        out = tmp_path / "spec.csv"
        assert main(["spectrum", "--profile", "tuned:2", "--count", str(count),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {out} ({count} eigenvalues, case=2)\n"
        assert len(read_csv(out)) == 1 + count

    def test_covering_count_adds_no_solve(self, tmp_path, monkeypatch):
        # a count that reaches the classification's reads its case from its own spectrum
        calls = []
        monkeypatch.setattr(cli, "classify", lambda *a: calls.append(a))
        assert main(["spectrum", "--profile", "tuned:2", "--count", "4",
                     "--out", str(tmp_path / "spec.csv")]) == 0
        assert calls == []


class TestKernelCommand:
    def test_grid_dump(self, tmp_path):
        out = tmp_path / "kernel.csv"
        assert main(["kernel", "--profile", "bump:0.5", "--z", "1,1",
                     "--grid", "5", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0] == ["s", "s_prime", "re", "im"]
        assert len(rows) == 1 + 25

    def test_series_mode(self, tmp_path):
        out = tmp_path / "kernel_series.csv"
        assert main(["kernel", "--profile", "zero", "--z", "1,1", "--grid", "4",
                     "--mode", "series", "--n-terms", "40", "--out", str(out)]) == 0
        assert len(read_csv(out)) == 1 + 16

    def test_near_eigenvalue_exit_code(self, tmp_path):
        out = tmp_path / "kernel.csv"
        assert main(["kernel", "--profile", "zero", "--z", "0,0",
                     "--out", str(out)]) == 3

    @pytest.mark.parametrize("profile, z", [("tuned:2", "0.1,0.1"), ("bump:0.5", "-3,0.5")])
    def test_grid_is_the_per_row_value_bit_for_bit(self, tmp_path, profile, z):
        # one call on the whole grid (Taylor route at |z| <= SERIES_RADIUS, else
        # shot) writes the bits of a call per grid row
        out = tmp_path / "k.csv"
        assert main(["kernel", f"--profile={profile}", f"--z={z}", "--grid", "31",
                     "--out", str(out)]) == 0
        sol = kernels.vertex_kernel_at(cli._parse_profile(profile), cli._parse_z(z))
        grid = np.linspace(-1.0, 1.0, 31)
        expect = np.concatenate([sol.value(np.full(31, s), grid) for s in grid])
        rows = np.array(read_csv(out)[1:], dtype=float)
        assert rows[:, 2].tobytes() == expect.real.tobytes()
        assert rows[:, 3].tobytes() == expect.imag.tobytes()

    def test_series_mode_forms_the_modes_once(self, tmp_path, monkeypatch):
        # the per-row loop formed them twice per grid row
        calls = []
        modes = kernels._free_mode_values
        monkeypatch.setattr(kernels, "_free_mode_values",
                            lambda s, n: calls.append(len(s)) or modes(s, n))
        assert main(["kernel", "--profile", "bump:0.5", "--z", "1,1", "--grid", "7",
                     "--mode", "series", "--out", str(tmp_path / "k.csv")]) == 0
        assert len(calls) == 1 and calls[0] <= 7

    def test_series_mode_does_not_shoot(self, tmp_path, monkeypatch):
        def no_shooting(*args, **kwargs):
            raise AssertionError("the series route must not integrate")

        monkeypatch.setattr(vertex_spectrum, "_coefficient_solve", no_shooting)
        assert main(["kernel", "--profile", "bump:0.5", "--z", "1,1", "--grid", "3",
                     "--mode", "series", "--out", str(tmp_path / "k.csv")]) == 0

    def test_series_mode_overflow_exit_code(self, tmp_path):
        # the free Neumann kernel overflows in cmath; a discarded shoot used to fail first
        assert main(["kernel", "--profile", "zero", "--z=-1e6,1", "--mode", "series",
                     "--out", str(tmp_path / "k.csv")]) == 3

    @pytest.mark.parametrize("z", ["-2e5,1", "-1e6,1"])
    def test_shooting_overflow_exit_code(self, tmp_path, z):
        # zeta grows like exp(2 sqrt(-z)) and overflows; nothing is written
        out = tmp_path / "k.csv"
        assert main(["kernel", "--profile", "zero", f"--z={z}", "--out", str(out)]) == 3
        assert not out.exists() or not any(
            word in out.read_text().lower() for word in ("nan", "inf"))

    def test_shooting_at_the_largest_admitted_z(self, tmp_path):
        out = tmp_path / "k.csv"
        assert main(["kernel", "--profile", "zero", "--z=1e6,1", "--grid", "3",
                     "--out", str(out)]) == 0
        assert np.isfinite(np.array(read_csv(out)[1:], dtype=float)).all()

    def test_shooting_cap_exit_code(self, tmp_path):
        # about 1e9 right-hand-side evaluations uncapped; the cap stops it
        start = time.perf_counter()
        assert main(["kernel", "--profile", "zero", "--z=1e16,1",
                     "--out", str(tmp_path / "k.csv")]) == 3
        assert time.perf_counter() - start < 15.0

    def test_panel_cap_message_is_short(self, tmp_path, capsys):
        # the panel count was printed as a 151-digit integer
        assert main(["kernel", "--profile=bump:0.5", "--z=1e300,1", "--grid", "5",
                     "--out", str(tmp_path / "k.csv")]) == 3
        err = capsys.readouterr().err
        assert "needs 2e+150 panels, more than" in err and len(err) < 120

    def test_csv_cells_read_back(self, tmp_path):
        # numpy 2 floats used to be written as np.float64(...)
        kernel = tmp_path / "k.csv"
        assert main(["kernel", "--profile", "bump:0.5", "--z", "1,1", "--grid", "3",
                     "--out", str(kernel)]) == 0
        residual = tmp_path / "r.csv"
        assert main(["residual-sweep", "--profile", "zero", "--z", "0,1",
                     "--eps-grid", "2^-3..2^-6", "--f1", "exp:1",
                     "--out", str(residual)]) == 0
        rows = read_csv(residual)
        assert "bound_ratio" in rows[2]
        for row in read_csv(kernel)[1:] + rows[3:]:
            for cell in row:
                if cell not in ("", "slope", "slope_half_width"):
                    float(cell)


class TestSweepCommands:
    def test_one_series_solve_per_side(self, tmp_path, monkeypatch):
        # the SERIES_TERMS-term Taylor coefficients are solved once per profile (an even
        # profile's right side is its left one mirrored), and shared by every
        # command and sweep point in the process
        vertex_spectrum.taylor_shooting.cache_clear()
        terms, solve = [], vertex_spectrum._coefficient_solve
        monkeypatch.setattr(vertex_spectrum, "_coefficient_solve",
                            lambda prof, c, k, *a: terms.append(k) or solve(prof, c, k, *a))
        common = ["--profile=tuned:2", "--z=0.2,0.9", "--eps-grid", "2^-4..2^-6",
                  "--delta-rule", "fixed-ratio:0.08"]
        for argv in (["coupling"], ["residual-sweep", "--f1", "exp:1"],
                     ["graph-limit", "--f1", "gaussian:3.2,0.45"]):
            assert main([*argv, *common, "--out", str(tmp_path / f"{argv[0]}.csv")]) == 0
        assert terms.count(vertex_spectrum.SERIES_TERMS) == 1

    def test_coupling(self, tmp_path):
        out = tmp_path / "coupling.csv"
        assert main(["coupling", "--profile", "zero", "--z", "0,1",
                     "--eps-grid", "2^-6..2^-12", "--out", str(out)]) == 0
        rows = read_csv(out)
        header = rows[2]
        assert header[:2] == ["epsilon", "delta"]
        assert "dev_q" in header and "dev_xi" in header
        assert rows[-2][0] == "slope"
        slope = float(rows[-2][header.index("dev_q")])
        assert abs(slope - 1.0) < 0.15
        assert (tmp_path / "coupling.csv.json").exists()

    @pytest.mark.parametrize("command", ["coupling", "graph-limit", "residual-sweep"])
    def test_resonant_sweep_below_the_wronskian_floor(self, tmp_path, command):
        # |W| = 7.8e-14 and 1.9e-14 at 2^-22 and 2^-23: both points failed while
        # the sweeps refused |W| < WRONSKIAN_FLOOR
        out = tmp_path / "sweep.csv"
        assert main([command, "--profile", "tuned:2", "--z", "0,1",
                     "--eps-grid", "2^-14..2^-23", "--out", str(out)]) == 0
        payload = json.loads((tmp_path / "sweep.csv.json").read_text())
        assert len(payload["rows"]) == 10 and payload["failures"] == []

    def test_json_out_keeps_the_csv(self, tmp_path):
        # the JSON twin used to overwrite an --out that ends in .json
        out = tmp_path / "sw.json"
        assert main(["coupling", "--profile", "zero", "--z=0,1",
                     "--eps-grid", "2^-6..2^-10", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert rows[2][:2] == ["epsilon", "delta"] and rows[-2][0] == "slope"
        assert len([float(cell) for row in rows[3:-2] for cell in row]) == 5 * 4
        assert json.loads((tmp_path / "sw.json.json").read_text())["rows"]

    def test_residual_sweep(self, tmp_path):
        out = tmp_path / "res.csv"
        assert main(["residual-sweep", "--profile", "bump:0.5", "--z", "0,1",
                     "--eps-grid", "0.25,0.125,0.0625,0.03125,0.015625",
                     "--delta-rule", "fixed-ratio:0.1",
                     "--f1", "exp:1", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert "residual_Hnorm" in rows[2]

    def test_residual_sweep_narrow_indicator(self, tmp_path):
        out = tmp_path / "res.csv"
        assert main(["residual-sweep", "--profile", "bump:0.5", "--z", "0,1",
                     "--eps-grid", "2^-3..2^-6", "--f1", "indicator:5,5.01",
                     "--out", str(out)]) == 0
        header, first = read_csv(out)[2:4]
        point = dict(zip(header, first))
        assert float(point["data_norm"]) == pytest.approx(0.1, rel=1e-12)
        assert float(point["residual_Hnorm"]) > 0.0

    def test_narrow_gaussian_data(self, tmp_path):
        # panels of half the pulse width resolve it: 6014 panels at width 0.001
        out = tmp_path / "x.csv"
        assert main(["graph-limit", "--eps-grid", "2^-3..2^-6", "--f1", "gaussian:3,0.001",
                     "--out", str(out)]) == 0
        assert all(float(row[2]) > 0.0 for row in read_csv(out)[3:7])
        for width in (0.01, 0.001):
            assert main(["residual-sweep", "--eps-grid", "2^-3..2^-6",
                         "--f1", f"gaussian:3,{width}", "--out", str(out)]) == 0
            header, first = read_csv(out)[2:4]
            norm = float(dict(zip(header, first))["data_norm"])
            assert norm == pytest.approx(np.sqrt(width * np.sqrt(np.pi / 2)), rel=1e-12)

    def test_eps_grid_exponent_bound(self):
        assert len(_parse_eps_grid("2^-3..2^-1074")) == 1072
        assert _parse_eps_grid("2^-1074..2^-1074") == (5e-324,)
        with pytest.raises(ConfigError):
            _parse_eps_grid("2^-3..2^-1075")

    def test_graph_limit(self, tmp_path):
        out = tmp_path / "gl.csv"
        assert main(["graph-limit", "--profile", "zero", "--z", "0,1",
                     "--eps-grid", "2^-4..2^-9", "--f1", "exp:1",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert "comparison_norm" in rows[2]

    def test_validation_exit_code(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["coupling", "--profile", "wiggle:3", "--out", str(out)]) == 2
        assert main(["coupling", "--profile", "zero",
                     "--eps-grid", "0.1,0.2", "--out", str(out)]) == 2

    @pytest.mark.parametrize("argv", [
        ["kernel", "--profile", "bump:0.5", "--z=nan,1"],
        ["kernel", "--profile", "zero", "--z=1,inf"],
        ["coupling", "--profile", "zero", "--p1=nan,0"],
        ["coupling", "--profile", "zero", "--eps-grid", "0.1,nan"],
        ["coupling", "--profile", "zero", "--delta-rule", "power:nan"],
        ["coupling", "--profile", "zero", "--delta-rule", "power:inf"],
        ["residual-sweep", "--profile", "zero", "--delta-rule", "fixed-ratio:nan"],
    ])
    def test_non_finite_exit_code(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("argv", [
        ["kernel", "--profile=bump:0.5", "--z=1.7e308,1.7e308"],
        ["kernel", "--profile=bump:0.5", "--z=1.7e308,1.7e308", "--mode", "series"],
        ["coupling", "--profile=bump:0.5", "--z=-1.7e308,1.7e308"],
        ["oracle-compare", "--profile=zero", "--z=-1.7e308,1.7e308", "--f1", "exp:1"],
    ], ids=["kernel", "kernel-series", "coupling", "oracle-compare"])
    def test_z_of_infinite_modulus_exit_code(self, tmp_path, capsys, argv):
        # both parts finite, |z| overflows: kernel exited 3 on abs(z), coupling
        # exited 0 with every point failed
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "1.7e308,1.7e308" in err and "modulus" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["coupling", "--profile", "zero", "--z", "4,0"],
        ["coupling", "--profile", "zero", "--z", "0,0"],
        ["graph-limit", "--profile", "zero", "--z", "4,0"],
        ["oracle-compare", "--profile", "zero", "--z", "4,0"],
    ])
    def test_z_on_edge_spectrum_exit_code(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--count", "0"],
        ["oracle-compare", "--h-u", "0.3"],
        ["oracle-compare", "--h-s", "0.3"],
        ["oracle-compare", "--epsilon", "0.3", "--delta", "0.5"],
        ["residual-sweep", "--eps-grid", "2^-3..2^-6", "--f1", "exp:-1"],
        ["graph-limit", "--eps-grid", "2^-3..2^-6", "--f1", "gaussian:3,0"],
        ["graph-limit", "--eps-grid", "2^-3..2^-6", "--f1", "indicator:2,1"],
        ["oracle-compare", "--f1", "exp:-1"],
        ["oracle-compare", "--f1", "none"],
        # panels of half the pulse width: 6e9 of them, over the panel bound
        ["oracle-compare", "--f1", "gaussian:3,1e-9"],
        ["residual-sweep", "--eps-grid", "2^-3..2^-6", "--f1", "gaussian:3,1e-9"],
        ["oracle-compare", "--h-s", "0"],
        ["oracle-compare", "--h-u", "0.03125", "--n", "32"],  # chi_32 vanishes on the nodes
        ["oracle-compare", "--h-u", "0.03125", "--n", "40"],  # aliases to mode 24
        # mode 1 is an open channel with h_s^2 kappa^2 = 9.9 > 4: no discrete wave
        ["oracle-compare", "--n", "2"],
        ["kernel", "--mode", "series", "--n-terms", "0"],
        ["kernel", "--mode", "series", "--n-terms", "-5"],
        ["kernel", "--grid", "0"],
        ["coupling", "--window-policy", "bogus"],
        ["coupling", "--window-policy", "drop:-1"],
        ["spectrum", "--profile", "zero", "--tol=-1"],
        ["spectrum", "--profile", "zero", "--tol=nan"],
        ["spectrum", "--profile", "bump:0.5", "--tol=inf"],
        # a range of 1e300, over the panel bound
        ["graph-limit", "--eps-grid", "2^-3..2^-6", "--f1", "gaussian:1e300,1"],
        # a range of 4e7, over the panel bound
        ["residual-sweep", "--eps-grid", "2^-3..2^-6", "--f1", "exp:1e-6"],
        ["graph-limit", "--eps-grid", "2^-3..2^-6", "--f1", "exp:1e-6"],
        # target_index: an integer >= 2, on tuned_bump only
        ["coupling", "--profile",
         '{"kind": "tuned_bump", "amplitude": 6.1, "target_index": "2"}'],
        ["coupling", "--profile",
         '{"kind": "tuned_bump", "amplitude": 6.1, "target_index": 2.5}'],
        ["coupling", "--profile", '{"kind": "bump", "amplitude": 0.5, "target_index": 2}'],
    ])
    def test_input_error_exit_code(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("argv", [
        ["oracle-compare", "--z=1,1e-12"],
        ["oracle-compare", "--h-u", "0.001", "--h-s", "0.001", "--refine"],
        ["oracle-compare", "--h-s", "0.001953125", "--refine"],  # only the refined grid
        ["oracle-compare", "--h-u", "0.001953125", "--h-s", "0.0625"],  # strip blocks
        ["spectrum", "--profile", "bump:0.5", "--count", "51"],
        ["spectrum", "--profile", "bump:0.5", "--count", "477"],
        ["coupling", "--profile", "tuned:4"],
        ["coupling", "--profile", "tuned:1000000000"],
        ["kernel", "--grid", "1002"],
        ["kernel", "--mode", "series", "--n-terms", "2001"],
        ["coupling", "--eps-grid", "2^-3..2^-1075"],  # 2^-1075 rounds to 0
    ])
    def test_size_over_bound_exit_code(self, tmp_path, argv):
        # each is rejected before any eigensolve, FD assembly or large array
        start = time.perf_counter()
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
        assert time.perf_counter() - start < 1.0

    def test_json_twin_directory_exit_code(self, tmp_path, monkeypatch):
        # OUT.json used to be opened only after every point ran and OUT was written
        def no_point(*args, **kwargs):
            raise AssertionError("a sweep point ran")

        for metric in experiments.METRICS:
            monkeypatch.setitem(experiments.METRICS, metric, no_point)
        out = tmp_path / "r.csv"
        (tmp_path / "r.csv.json").mkdir()
        assert main(["coupling", "--eps-grid", "0.25,0.125,0.0625,0.03125",
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["graph-limit", "--profile", "bump:0.5", "--eps-grid", "2^-700..2^-720"],
        ["residual-sweep", "--f1", "exp:1", "--eps-grid", "0.1,1e-100,1e-250"],
    ])
    def test_delta_underflow_exit_code(self, tmp_path, monkeypatch, capsys, argv):
        # power:1.5 gives delta = 0 below eps = 2^-716 (and at 1e-250): the points
        # above it used to run before the sweep exited 2 from the first such point
        def no_point(*args, **kwargs):
            raise AssertionError("a sweep point ran")

        for metric in experiments.METRICS:
            monkeypatch.setitem(experiments.METRICS, metric, no_point)
        assert main([*argv, "--out", str(tmp_path / "s.csv")]) == 2
        assert "underflows to delta = 0" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (["graph-limit", "--n", "2"], "unrecognized arguments: --n 2"),
        (["coupling", "--n", "2"], "unrecognized arguments: --n 2"),
        # 16 u-panels of order 8 integrate chi_n^2 to 1e-10 up to n = 15
        (["residual-sweep", "--f1", "exp:1", "--n", "128"], "n = 128 exceeds 15"),
    ])
    def test_transverse_index_exit_code(self, tmp_path, monkeypatch, capsys, argv, message):
        # graph-limit rows used to ignore --n and write it into their config
        def no_point(*args, **kwargs):
            raise AssertionError("a sweep point ran")

        for metric in experiments.METRICS:
            monkeypatch.setitem(experiments.METRICS, metric, no_point)
        assert main([*argv, "--out", str(tmp_path / "s.csv")]) == 2
        assert message in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("metric", ["coupling", "graph-limit"])
    def test_run_transverse_index_off_residual_exit_code(self, tmp_path, monkeypatch, capsys,
                                                          metric):
        def no_point(*args, **kwargs):
            raise AssertionError("a sweep point ran")

        for name in experiments.METRICS:
            monkeypatch.setitem(experiments.METRICS, name, no_point)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "profile": {"kind": "bump", "amplitude": 0.5}, "metric": metric, "z": [0.0, 1.0],
            "eps_grid": [0.25, 0.125, 0.0625, 0.03125], "delta_rule": ["ratio", 0.1],
            "f1": {"type": "exp", "rate": 1.0}, "n": 2}))
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert "reads no transverse mode; n must be 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, unknown", [
        ("f1", {"type": "gaussian", "centre": 5.0, "width": 0.5}, "centre"),
        ("window_polcy", "stabilize", "window_polcy"),
        ("profile", {"kind": "bump", "amplitude": 0.5, "target": 3}, "target"),
    ])
    def test_run_unknown_json_key_exit_code(self, tmp_path, capsys, key, value, unknown):
        # each was ignored: the Gaussian ran at its default center 3.0, the window at
        # drop:2 and the bump untuned, while the output echoed the key
        cfg = dict(README_RUN_CONFIG, metric="graph-limit", p=None,
                   f1={"type": "gaussian", "center": 5.0, "width": 0.5})
        cfg[key] = value
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert main(["run", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert unknown in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_negative_real_z_oracle_exit_code(self, tmp_path):
        # the FD system is well posed off [0, inf): z = -1 reads as z = -1 + 1e-12 i
        reports = []
        for z in ("-1,0", "-1,1e-12"):
            out = tmp_path / f"{z}.json"
            assert main(["oracle-compare", f"--z={z}", "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        exact, near = reports
        assert (exact["grid"], exact["case"]) == (near["grid"], near["case"])
        assert exact["norms"] == pytest.approx(near["norms"], rel=1e-12)
        for key in ("mismatch", "hat_vs_discrete"):
            assert exact[key] == pytest.approx(near[key], rel=1e-12)

    def test_shortest_edge_oracle_exit_code(self, tmp_path):
        # Im sqrt(z) = 450 asks for 2.6 s-steps of edge; the grid keeps 4
        out = tmp_path / "x.json"
        assert main(["oracle-compare", "--z=-202500,1", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["grid"]["s_max"] == 4 / 64

    @pytest.mark.parametrize("rule", ["fixed-ratio:0.2", "power:1"])
    def test_residual_sweep_without_admissible_point_exit_code(self, tmp_path, capsys, rule):
        # tuned:2 has sup|gamma| = 6.104: even the grid's smallest delta/eps breaks
        # ratio * sup|gamma| < 1, so no point could run
        out = tmp_path / "res.csv"
        assert main(["residual-sweep", "--profile", "tuned:2", "--eps-grid", "2^-2..2^-8",
                     "--delta-rule", rule, "--f1", "exp:1", "--out", str(out)]) == 2
        assert "too large for amplitude" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_residual_sweep_partly_admissible(self, tmp_path):
        # power:1.5: delta/eps = eps^0.5 passes the bound at the 3 smallest eps only
        out = tmp_path / "res.csv"
        assert main(["residual-sweep", "--profile", "tuned:2", "--eps-grid", "2^-2..2^-8",
                     "--delta-rule", "power:1.5", "--f1", "exp:1", "--out", str(out)]) == 0
        result = json.loads((tmp_path / "res.csv.json").read_text())
        assert [row["epsilon"] for row in result["rows"]] == [2.0**-6, 2.0**-7, 2.0**-8]
        assert len(result["failures"]) == 4

    def test_shooting_cap_is_a_point_failure(self, tmp_path):
        out = tmp_path / "cap.csv"
        assert main(["coupling", "--profile", "bump:0.5", "--z=1e16,1",
                     "--eps-grid", "0.5,0.25", "--out", str(out)]) == 0
        failures = json.loads((tmp_path / "cap.csv.json").read_text())["failures"]
        assert len(failures) == 2
        cap = f"more than {vertex_spectrum.MAX_SHOOT_PANELS}"
        assert all(cap in f["error"] for f in failures)

    def test_real_p_accepted(self, tmp_path):
        out = tmp_path / "p.csv"
        assert main(["coupling", "--profile", "zero", "--eps-grid", "2^-6..2^-9",
                     "--p1", "4,0", "--p2", "0,0", "--out", str(out)]) == 0

    def test_no_case_flag(self, tmp_path):
        assert main(["coupling", "--case", "auto",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_run_from_config(self, tmp_path):
        cfg = {
            "profile": {"kind": "zero", "amplitude": 0.0},
            "metric": "coupling",
            "z": [0.0, 1.0],
            "eps_grid": [2.0**-k for k in range(6, 12)],
            "delta_rule": ["power", 1.5],
            "p": [[1.0, 0.0], [0.0, 0.0]],
            "window_policy": "drop:2",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run.csv"
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.parametrize("key, value", [("window_policy", 5),
                                            ("quadrature_panels", [64]),
                                            ("quadrature_panels", [257, 64]),
                                            ("quadrature_order", 33),
                                            ("zero_tolerance", -1),
                                            ("delta_rule", ["power"]),  # lists too short
                                            ("z", [0]),
                                            ("p", [[1, 0]])])
    def test_run_bad_residual_setting_exit_code(self, tmp_path, key, value):
        cfg = {
            "profile": {"kind": "bump", "amplitude": 0.5},
            "metric": "residual",
            "z": [0.0, 1.0],
            "eps_grid": [0.25, 0.125, 0.0625, 0.03125],
            "delta_rule": ["ratio", 0.1],
            "f1": {"type": "exp", "rate": 1.0},
            key: value,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o.csv")]) == 2

    @pytest.mark.parametrize("key, value", [
        ("z", [0.0, True]),
        ("z", [0.0, 1.0, 9.0]),
        ("p", [[True, 0.0], [0.0, 0.0]]),
        ("p", [[1.0, 0.0, 9.0], [0.0, 0.0]]),
        ("p", [[1.0, 0.0], [0.0, 0.0], [9.0, 9.0]]),
        ("eps_grid", [True, 0.5, 0.25, 0.125]),
        ("eps_grid", ["0.5", 0.25, 0.125, 0.0625]),
        ("delta_rule", ["ratio", True]),
        ("delta_rule", ["power", 1.5, 9.0]),
        ("zero_tolerance", True),
        ("profile", {"kind": "tuned_bump", "amplitude": True, "target_index": 2}),
        ("f1", {"type": "exp", "rate": True}),
    ])
    def test_run_non_number_or_long_list_exit_code(self, tmp_path, capsys, key, value):
        # each ran: true read as 1.0, "0.5" as 0.5, and a longer list was cut to
        # its first two entries (z = [0, 1, 9] ran at z = i), while the output
        # echoed the config as given
        (tmp_path / "cfg.json").write_text(json.dumps({**README_RUN_CONFIG, key: value}))
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == 2
        assert "malformed config" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("command", ["coupling", "residual-sweep", "graph-limit"])
    def test_sweep_takes_no_config(self, tmp_path, command):
        # only ``run`` reads a config; ``coupling --config`` ran whatever it held
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"profile": {"kind": "zero", "amplitude": 0.0},
                                        "z": [0.0, 1.0], "eps_grid": [0.5, 0.25],
                                        "delta_rule": ["power", 1.5]}))
        assert main([command, "--config", str(cfg_path),
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_run_missing_config_exit_code(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.json"),
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert main(["run", "--config", str(tmp_path),  # a directory
                     "--out", str(tmp_path / "o.csv")]) == 2

    def test_io_failure_after_the_checks_is_not_a_validation_error(self, tmp_path,
                                                                    monkeypatch):
        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli, "run_sweep", disk_full)
        (tmp_path / "config.json").write_text(json.dumps(README_RUN_CONFIG))
        with pytest.raises(OSError):
            main(["run", "--config", str(tmp_path / "config.json"),
                  "--out", str(tmp_path / "o.csv")])

    @pytest.mark.parametrize("argv", [["spectrum"], ["coupling"], ["oracle-compare"],
                                      ["run", "--config", "config.json"]])
    def test_out_in_missing_directory_exit_code(self, tmp_path, monkeypatch, argv):
        # found before any work: no eigensolve, sweep or FD solve starts
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("eigenvalues", "run_sweep", "oracle_report"):
            monkeypatch.setattr(cli, name, no_work)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps(README_RUN_CONFIG))
        assert main([*argv, "--out", str(tmp_path / "missing" / "x.csv")]) == 2
        assert main([*argv, "--out", str(tmp_path)]) == 2  # a directory, not a file

    @pytest.mark.parametrize("p", ["1e308,0", "0,-1e308"])
    def test_overflowing_p_fails_every_point(self, tmp_path, capsys, p):
        # |p| is finite, but N p overflows in the solve (N ~ [[1, 1], [1, 1]] on
        # zero): every point used to be written as a row of NaN, with numpy's
        # overflow warnings on stderr
        out = tmp_path / "c.csv"
        assert main(["coupling", "--profile", "zero", f"--p1={p}", f"--p2={p}",
                     "--eps-grid", "2^-6..2^-9", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "4 point(s) failed" in captured.out and captured.err == ""
        assert read_csv(out)[3][0] == "slope"  # no rows
        failures = json.loads((tmp_path / "c.csv.json").read_text())["failures"]
        assert len(failures) == 4 and all("not finite" in f["error"] for f in failures)

    @pytest.mark.parametrize("p, code", [([[1.5e308, 0.0], [1.5e308, 0.0]], 2),
                                         ([[1e308, 0.0], [1e308, 0.0]], 0)])
    def test_run_config_p_near_overflow(self, tmp_path, capsys, p, code):
        # a 2-norm that overflows is refused; a finite one that overflows the
        # solve fails its points
        (tmp_path / "cfg.json").write_text(json.dumps(dict(README_RUN_CONFIG, p=p)))
        out = tmp_path / "o.csv"
        assert main(["run", "--config", str(tmp_path / "cfg.json"), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert "2-norm" in err and not out.exists()
        else:
            assert err == "" and len(json.loads(Path(f"{out}.json").read_text())["failures"]) == 4

    @pytest.mark.parametrize("p1", ["1e160,0", "4.149515568880993e180,0"])  # 2^600
    def test_large_p_writes_rows(self, tmp_path, p1):
        # the deviations are ratios of norms: p, q and xi are scaled by a power of
        # two before the norms square them, so a p of 2^600 writes the rows of p = 1
        # bit for bit (every point past |p| ~ 1.3e154 used to fail)
        rows = {}
        for p in ("1,0", p1):
            out = tmp_path / f"{p}.csv"
            assert main(["coupling", "--profile", "zero", f"--p1={p}", "--eps-grid", "2^-6..2^-9",
                         "--out", str(out)]) == 0
            payload = json.loads(Path(f"{out}.json").read_text())
            assert payload["failures"] == [] and len(payload["rows"]) == 4
            rows[p] = payload["rows"]
        assert (rows[p1] == rows["1,0"]) == p1.startswith("4.1")

    def test_p_of_infinite_norm_exit_code(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        assert main(["coupling", "--profile", "zero", "--p1=1.5e308,0", "--p2=0,1.5e308",
                     "--out", str(out)]) == 2
        assert "2-norm" in capsys.readouterr().err and not out.exists()

    def test_run_malformed_config(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"metric": "coupling"}))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o.csv")]) == 2


def example_ids(examples: list[list[str]]) -> list[str]:
    """Test ids: a command's first example is named by the command, a later
    one also by its position."""
    commands = [argv[0] for argv in examples]
    return [cmd if commands.index(cmd) == i else f"{cmd}-{i}" for i, cmd in enumerate(commands)]


class TestReadmeExamples:
    """The README's CLI examples are the end-to-end contract: each one runs."""

    EXAMPLES = readme_examples(README)
    IDS = example_ids(EXAMPLES)

    def test_every_subcommand_has_an_example(self):
        assert sorted({argv[0] for argv in self.EXAMPLES}) == sorted(
            ["spectrum", "kernel", "coupling", "residual-sweep", "graph-limit",
             "oracle-compare", "run"])

    @pytest.mark.parametrize("argv", EXAMPLES, ids=IDS)
    def test_example_runs(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.json").write_text(json.dumps(README_RUN_CONFIG))
        assert main(argv) == 0
        out = tmp_path / argv[argv.index("--out") + 1]
        assert out.exists()
        if argv[0] not in ("spectrum", "kernel", "oracle-compare"):
            assert out.with_name(out.name + ".json").exists()


class TestOracleCompare:
    def test_small_grid_report(self, tmp_path):
        out = tmp_path / "oracle.json"
        code = main(["oracle-compare", "--profile", "zero", "--z", "0,4",
                     "--epsilon", "0.25", "--h-u", "0.0625", "--h-s", "0.0625",
                     "--f1", "gaussian:2,0.4", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["case"] == "2"
        assert report["mismatch"] < 0.2
        assert report["grid"]["unknowns"] > 0

    def test_open_channel_resolved_in_s(self, tmp_path, capsys):
        # at delta = eps mode 1 of --n 2 propagates with h_s^2 kappa^2 = 0.08
        out = tmp_path / "oracle.json"
        argv = ["oracle-compare", "--profile", "bump:0.5", "--n", "2", "--f1", "gaussian:3,0.5"]
        assert main([*argv, "--epsilon", "0.3", "--delta", "0.3", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["mismatch"] < 0.1
        assert main([*argv, "--out", str(out)]) == 2
        assert "h_s <= 0.009944 passes" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--h-u", "1e-320"], "h_u = 1e-320 is too small"),
        (["--h-s", "1e-320"], "h_s = 1e-320 is too small"),
        (["--delta", "1e-160"], "delta = 1e-160 is too small"),
        (["--delta-power", "400"], "delta = 7.06e-210 is too small"),  # 0.3^400
    ])
    def test_tiny_step_or_delta_exit_code(self, tmp_path, capsys, argv, message):
        # 1/h or (4/h_u^2)/delta^2 is not finite: refused before rounding or any solve
        assert main(["oracle-compare", *argv, "--out", str(tmp_path / "o.json")]) == 2
        assert message in capsys.readouterr().err

    def test_small_delta_fails_the_backward_error_gate(self, tmp_path, capsys):
        # (4/h_u^2)/delta^2 = 4.1e303 is finite, so the solve runs, and misses the gate
        assert main(["oracle-compare", "--delta", "1e-150", "--out", str(tmp_path / "o.json")]) == 3
        assert "backward error" in capsys.readouterr().err

    def test_one_parser_serves_every_call(self, tmp_path, monkeypatch):
        builds = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        cli._parser.cache_clear()
        argv = ["oracle-compare", "--profile", "zero", "--z", "0,4", "--epsilon", "0.25",
                "--h-u", "0.0625", "--h-s", "0.0625", "--f1", "gaussian:2,0.4"]
        reports = []
        for extra, code in ((["--refine"], 0), (["--no-such-flag"], 2), ([], 0)):
            out = tmp_path / f"oracle{len(reports)}.json"
            assert main([*argv, *extra, "--out", str(out)]) == code
            if code == 0:
                reports.append(json.loads(out.read_text()))
        assert builds == [1]
        assert reports[0]["refinement_factor"] is not None
        assert reports[1]["refinement_factor"] is None

    def test_half_line_panel_bound_before_fd_solve(self, tmp_path, monkeypatch):
        # exp:1e-6 reaches to 40/rate = 4e7: 1.6e8 panels, which once ran out
        # of memory after the FD solve
        def no_solve(*args, **kwargs):
            raise AssertionError("FD solve started")

        monkeypatch.setattr(experiments, "fd_resolvent", no_solve)
        assert main(["oracle-compare", "--f1", "exp:1e-6",
                     "--out", str(tmp_path / "o.json")]) == 2


# A bounded CLI input space: small counts and grids, <= 4-point eps grids and
# tuned:K with K <= 3.  Each flag is rarely invalid, so about half of the
# examples run to the end and the rest probe the checks.
def choice(valid, invalid):
    return st.sampled_from(valid * 8 + invalid)


PROFILES = choice(["zero", "bump:0.5", "bump:-0.8", "tuned:2",
                   '{"kind":"bump","amplitude":0.5}'],
                  ["bump:1.5", "bump:nan", "tuned:1", "tuned:3", "wiggle:1",
                   '{"kind":"bump","amplitude":null}', '{"kind":"bump","amplitude":[0.5]}'])
ZS = choice(["0,1", "1,1", "-1,0.5"], ["-1,0", "4,0", "0,0", "nan,1", "1"])
EPS_GRIDS = choice(["2^-3..2^-6", "2^-5..2^-8", "0.25,0.125,0.0625", "0.5",
                    "2^-700..2^-720"],
                   ["2^-4..2^-2", "0.1,0.2", "0.5,0", "2", "nan"])
DELTA_RULES = choice(["power:1.5", "fixed-ratio:0.1"],
                     ["fixed-ratio:2", "power:0.5", "power:inf", "ratio:0.1"])
WINDOWS = choice(["drop:2", "drop:0", "stabilize"], ["drop:x", "drop:9"])
EDGES = choice(["exp:1", "gaussian:3,0.5", "indicator:0,1", "none"],
               ["exp:-1", "exp:0", "gaussian:3,0", "gaussian:nan,1", "indicator:2,1",
                "sinc:1"])
STEPS = choice(["0.25", "0.125"], ["0.3", "0.5", "0"])


def _sweep_argv(command):
    common = st.tuples(PROFILES, ZS, EPS_GRIDS, DELTA_RULES, WINDOWS)
    if command == "coupling":
        extra = st.tuples(ZS, ZS).map(lambda p: ["--p1", p[0], "--p2", p[1]])
    else:
        extra = st.tuples(EDGES, EDGES).map(lambda a: ["--f1", a[0], "--f2", a[1]])
    if command == "residual-sweep":  # the one sweep that reads chi_n
        extra = st.tuples(choice(["1", "2"], ["0"]), extra).map(lambda a: ["--n", a[0], *a[1]])
    return st.tuples(common, extra).map(lambda a: [
        command, f"--profile={a[0][0]}", f"--z={a[0][1]}", "--eps-grid", a[0][2],
        "--delta-rule", a[0][3], "--window-policy", a[0][4], *a[1]])


ARGVS = st.one_of(
    st.tuples(PROFILES, st.integers(-1, 4)).map(
        lambda a: ["spectrum", f"--profile={a[0]}", "--count", str(a[1])]),
    st.tuples(PROFILES, ZS, st.integers(-1, 4), st.sampled_from(["wronskian", "series"]),
              st.integers(1, 40)).map(
        lambda a: ["kernel", f"--profile={a[0]}", f"--z={a[1]}", "--grid", str(a[2]),
                   "--mode", a[3], "--n-terms", str(a[4])]),
    _sweep_argv("coupling"), _sweep_argv("residual-sweep"), _sweep_argv("graph-limit"),
    st.tuples(PROFILES, ZS, choice(["0.5", "0.3"], ["1.5", "0"]),
              choice([[], ["--delta", "0.05"]], [["--delta", "0.6"]]),
              STEPS, STEPS, EDGES, st.booleans()).map(
        lambda a: ["oracle-compare", f"--profile={a[0]}", f"--z={a[1]}", "--epsilon", a[2],
                   *a[3], "--h-u", a[4], "--h-s", a[5], "--f1", a[6],
                   *(["--refine"] if a[7] else [])]),
)


class TestExitCodeProperty:
    @given(argv=ARGVS)
    @settings(max_examples=60, deadline=timedelta(seconds=20), derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_code_is_0_2_or_3(self, tmp_path, monkeypatch, argv):
        # and a sweep that exits 2 does so before any point
        points = []
        with monkeypatch.context() as patch:
            for metric, point in experiments.METRICS.items():
                patch.setitem(experiments.METRICS, metric,
                              lambda *args, point=point: points.append(1) or point(*args))
            code = main([*argv, "--out", str(tmp_path / "out.csv")])
        event(f"{argv[0]} exit {code}")
        assert code in (0, 2, 3)
        assert code != 2 or not points
