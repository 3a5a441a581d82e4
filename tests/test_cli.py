from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from wglimit.cli import main


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


class TestSweepCommands:
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

    def test_residual_sweep(self, tmp_path):
        out = tmp_path / "res.csv"
        assert main(["residual-sweep", "--profile", "bump:0.5", "--z", "0,1",
                     "--eps-grid", "0.25,0.125,0.0625,0.03125,0.015625",
                     "--delta-rule", "fixed-ratio:0.1",
                     "--f1", "exp:1", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert "residual_Hnorm" in rows[2]

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
        ["coupling", "--profile", "zero", "--z", "4,0"],
        ["coupling", "--profile", "zero", "--z", "0,0"],
        ["graph-limit", "--profile", "zero", "--z", "4,0"],
        ["oracle-compare", "--profile", "zero", "--z", "4,0"],
    ])
    def test_z_on_edge_spectrum_exit_code(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2

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

    def test_run_malformed_config(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"metric": "coupling"}))
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o.csv")]) == 2


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
