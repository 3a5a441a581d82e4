from __future__ import annotations

import json

import numpy as np
import pytest

import wglimit.experiments as experiments
import wglimit.vertex_spectrum as vertex_spectrum
from wglimit import CurvatureProfile, ExperimentConfig, run_sweep
from wglimit.experiments import (
    ConfigError,
    FitError,
    delta_for,
    edge_function_from_spec,
    fit_slope,
    oracle_report,
)

ZERO = CurvatureProfile.zero()


def dyadic(lo: int, hi: int) -> tuple[float, ...]:
    """The eps grid 2^-lo .. 2^-hi."""
    return tuple(2.0**-k for k in range(lo, hi + 1))


class TestFitSlope:
    def test_exact_power(self):
        eps = np.array([2.0**-k for k in range(3, 12)])
        fit = fit_slope(eps, eps**2, window_policy="drop:0")
        assert abs(fit.slope - 2.0) < 1e-12
        assert fit.half_width < 1e-12

    def test_perturbed_power(self):
        eps = np.array([2.0**-k for k in range(3, 12)])
        fit = fit_slope(eps, eps * (1 + 0.1 * eps), window_policy="stabilize")
        assert 0.98 <= fit.slope <= 1.02

    def test_constant_metric(self):
        eps = np.array([2.0**-k for k in range(3, 10)])
        fit = fit_slope(eps, np.full_like(eps, 3.0), window_policy="drop:0")
        assert abs(fit.slope) < 1e-12

    def test_default_window_policy_is_the_sweeps(self):
        eps = np.array([2.0**-k for k in range(3, 12)])
        vals = eps * (1 + 0.1 * eps)
        assert fit_slope(eps, vals) == fit_slope(eps, vals, "drop:2")
        assert ExperimentConfig(CurvatureProfile.zero()).window_policy == "drop:2"

    def test_insufficient_points(self):
        with pytest.raises(FitError):
            fit_slope([0.5, 0.25, 0.125], [1, 2, 3])

    def test_drop_policy_too_aggressive(self):
        eps = np.array([0.5, 0.25, 0.125, 0.0625, 0.03125])
        with pytest.raises(FitError):
            fit_slope(eps, eps, window_policy="drop:3")

    @pytest.mark.parametrize("policy", ["bogus", "drop:-1", "drop:1.5", "drop:", 5])
    def test_bad_window_policy_rejected(self, policy):
        eps = np.array([2.0**-k for k in range(3, 10)])
        with pytest.raises(ConfigError):
            fit_slope(eps, eps, window_policy=policy)

    def test_nonpositive_values_excluded(self):
        eps = np.array([2.0**-k for k in range(3, 10)])
        vals = eps.copy()
        vals[2] = 0.0
        fit = fit_slope(eps, vals, window_policy="drop:0")
        assert abs(fit.slope - 1.0) < 1e-12


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(profile=ZERO, eps_grid=()).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(profile=ZERO, eps_grid=(0.1, 0.2)).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(profile=ZERO, delta_rule=("power", 0.5)).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(profile=ZERO, delta_rule=("ratio", 2.0)).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(profile=ZERO, metric="unknown").validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(profile=ZERO, metric="residual").validate()
        with pytest.raises(ConfigError):  # p = 0 would make every row 0.0
            ExperimentConfig(profile=ZERO, p=None).validate()

    @pytest.mark.parametrize("field, value", [
        ("z", complex(float("nan"), 1.0)),
        ("z", complex(1.0, float("inf"))),
        ("p", (complex(float("nan"), 0.0), 0j)),
        ("eps_grid", (0.25, float("nan"), 0.0625)),
        ("delta_rule", ("power", float("nan"))),
        ("delta_rule", ("power", float("inf"))),
        ("delta_rule", ("ratio", float("nan"))),
        ("zero_tolerance", float("nan")),
        ("zero_tolerance", float("inf")),
        ("zero_tolerance", -1.0),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError):
            ExperimentConfig(profile=ZERO, **{field: value}).validate()

    @pytest.mark.parametrize("z", [4.0 + 0j, 0j, complex(4.0, -0.0)])
    def test_z_on_edge_spectrum_rejected(self, z):
        with pytest.raises(ConfigError):
            ExperimentConfig(profile=ZERO, z=z).validate()
        with pytest.raises(ConfigError):
            oracle_report(ZERO, z, 0.25, 0.25**3, edge_function_from_spec(
                {"type": "gaussian"}), None)

    def test_z_off_edge_spectrum_accepted(self):
        for z in (-1.0 + 0j, 4.0 + 1e-3j, 4.0 - 1e-3j):
            ExperimentConfig(profile=ZERO, z=z).validate()

    def test_non_finite_json_rejected(self):
        d = ExperimentConfig(profile=ZERO).to_json_dict()
        d["eps_grid"][1] = float("nan")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_dict(json.loads(json.dumps(d)))

    def test_delta_rules(self):
        assert delta_for(("power", 1.5), 0.25) == 0.25**1.5
        assert delta_for(("ratio", 0.1), 0.25) == 0.025

    @pytest.mark.parametrize("policy", ["bogus", "drop:-1", "drop:1.5", "drop:", 5])
    def test_bad_window_policy_config_rejected(self, policy):
        with pytest.raises(ConfigError):
            ExperimentConfig(profile=ZERO, window_policy=policy).validate()

    @pytest.mark.parametrize("panels", [(64,), (64, 16, 4), (0, 16), (64, -1), (64.5, 16),
                                        (True, 16), (257, 64)])
    def test_bad_quadrature_panels_rejected(self, panels):
        with pytest.raises(ConfigError):
            ExperimentConfig(profile=ZERO, quadrature_panels=panels).validate()

    @pytest.mark.parametrize("key, value", [("quadrature_order", 8.9), ("n", 1.7),
                                            ("n", True)])
    def test_non_integer_json_value_rejected(self, key, value):
        # int() used to truncate these to 8, 1 and 1, and the echoed config showed that
        d = ExperimentConfig(profile=ZERO, metric="residual", p=None,
                             f1={"type": "exp", "rate": 1.0}).to_json_dict()
        d[key] = value
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_dict(d)

    def test_json_round_trip(self):
        cfg = ExperimentConfig(profile=CurvatureProfile.bump(0.4),
                               metric="residual", z=0.5 + 2j,
                               eps_grid=(0.25, 0.125, 0.0625, 0.03125, 0.015625),
                               delta_rule=("ratio", 0.2),
                               f1={"type": "exp", "rate": 2.0}, p=None)
        back = ExperimentConfig.from_json_dict(
            json.loads(json.dumps(cfg.to_json_dict())))
        assert back == cfg

    def test_old_config_with_seed_loads(self):
        cfg = ExperimentConfig(profile=ZERO, eps_grid=dyadic(6, 10))
        d = cfg.to_json_dict()
        assert "seed" not in d
        d["seed"] = 7
        assert ExperimentConfig.from_json_dict(json.loads(json.dumps(d))) == cfg

    def test_edge_function_specs(self):
        assert edge_function_from_spec(None) is None
        f = edge_function_from_spec({"type": "gaussian", "center": 2.0, "width": 0.3})
        assert f(2.0) == pytest.approx(1.0)
        with pytest.raises(ConfigError):
            edge_function_from_spec({"type": "sinc"})

    @pytest.mark.parametrize("spec", [
        {"type": "exp", "rate": -1.0},
        {"type": "exp", "rate": 0.0},
        {"type": "exp", "rate": float("inf")},
        {"type": "gaussian", "center": 3.0, "width": 0.0},
        {"type": "gaussian", "center": float("nan"), "width": 0.5},
        {"type": "indicator", "lo": 2.0, "hi": 1.0},
        {"type": "indicator", "lo": 0.0, "hi": float("inf")},
    ])
    def test_bad_edge_data_rejected(self, spec):
        with pytest.raises(ConfigError):
            edge_function_from_spec(spec)
        with pytest.raises(ConfigError):
            ExperimentConfig(profile=ZERO, metric="graph-limit", f1=spec, p=None).validate()

    @pytest.mark.parametrize("f1", ["exp", {"type": "exp", "rate": None},
                                    {"type": "gaussian", "width": [1]}])
    def test_malformed_edge_data_json_rejected(self, f1):
        d = ExperimentConfig(profile=ZERO, metric="graph-limit", p=None,
                             f1={"type": "exp"}).to_json_dict()
        d["f1"] = f1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_dict(json.loads(json.dumps(d)))

    def test_missing_optional_keys_take_defaults(self):
        # edge data is required (p is not given); every other key is optional
        d = {"profile": {"kind": "zero"}, "z": [0.0, 1.0], "f1": {"type": "exp"},
             "eps_grid": [0.25, 0.125, 0.0625, 0.03125], "delta_rule": ["power", 1.5]}
        assert ExperimentConfig.from_json_dict(d) == ExperimentConfig(
            profile=ZERO, eps_grid=(0.25, 0.125, 0.0625, 0.03125), p=None,
            f1={"type": "exp"})


class TestRunSweep:
    def test_coupling_slopes(self):
        cfg = ExperimentConfig(profile=ZERO, metric="coupling", z=1j,
                               eps_grid=dyadic(6, 14))
        res = run_sweep(cfg)
        assert abs(res.slopes["dev_q"].slope - 1.0) < 0.15
        assert abs(res.slopes["dev_xi"].slope - 2.0) < 0.2

    def test_point_failures_recorded(self, tuned2):
        # early points violate the tuned profile's aspect-ratio bound and
        # must be excluded, not fatal
        cfg = ExperimentConfig(profile=tuned2, metric="residual", z=1j,
                               eps_grid=tuple(2.0**-k for k in range(2, 11)),
                               delta_rule=("power", 1.5),
                               f1={"type": "exp", "rate": 1.0}, p=None)
        res = run_sweep(cfg)
        assert len(res.failures) >= 1
        assert len(res.rows) + len(res.failures) == 9
        assert all(r["epsilon"] <= 0.03 for r in res.rows)

    def test_reproducible_csv(self, tmp_path):
        cfg = ExperimentConfig(profile=ZERO, metric="coupling", z=1j,
                               eps_grid=dyadic(6, 12))
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        run_sweep(cfg).to_csv(p1)
        run_sweep(cfg).to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_embeds_config_and_slopes(self, tmp_path):
        cfg = ExperimentConfig(profile=ZERO, metric="coupling", z=1j,
                               eps_grid=dyadic(6, 12))
        path = tmp_path / "sweep.csv"
        run_sweep(cfg).to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# wglimit sweep schema_version=")
        embedded = json.loads(lines[1].removeprefix("# config: "))
        assert embedded == cfg.to_json_dict()
        assert lines[2].split(",")[0] == "epsilon"
        assert lines[-2].split(",")[0] == "slope"
        assert lines[-1].split(",")[0] == "slope_half_width"

    def test_json_output(self, tmp_path):
        cfg = ExperimentConfig(profile=ZERO, metric="graph-limit", z=1j,
                               eps_grid=dyadic(5, 10),
                               f1={"type": "exp", "rate": 1.0}, p=None)
        path = tmp_path / "sweep.json"
        run_sweep(cfg).to_json(path)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == 1
        assert payload["config"]["metric"] == "graph-limit"
        assert "comparison_norm" in payload["slopes"]
        assert len(payload["rows"]) == 6

    def test_resonant_projector_once_per_sweep(self, monkeypatch, tuned2):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return projector(*args, **kwargs)

        projector = experiments.resonant_projector
        monkeypatch.setattr(experiments, "resonant_projector", counted)
        cfg = ExperimentConfig(profile=tuned2, metric="coupling", z=1j,
                               eps_grid=dyadic(6, 12))
        result = run_sweep(cfg)
        assert len(result.rows) == 7 and not result.failures
        assert len(calls) == 1

    def test_residual_sweep_uses_config_tolerance(self, tuned2):
        # lambda_2 = -5.75e-6: resonant at zero_tolerance 1e-3, generic at
        # the default 1e-9; every residual point must use the config's case
        near = CurvatureProfile("tuned_bump", tuned2.amplitude * (1 + 1e-6), 2)
        cfg = ExperimentConfig(profile=near, metric="residual", z=1j,
                               eps_grid=dyadic(4, 7), delta_rule=("ratio", 0.1),
                               f1={"type": "exp", "rate": 1.0}, p=None,
                               zero_tolerance=1e-3)
        result = run_sweep(cfg)
        assert not result.failures
        assert len(result.rows) == 4
        assert all(np.isfinite(r["bound_ratio"]) for r in result.rows)

    def test_resonant_residual_sweep_solves_spectrum_once(self, monkeypatch, tuned2):
        # the sweep classifies at zero_tolerance 1e-3 and the resonant bound
        # reads the zero-mode at the default tolerance; both threshold one
        # cached solve, so each of the 4 eigenpairs is solved once
        calls = []
        eigenpair = vertex_spectrum._eigenpair
        monkeypatch.setattr(vertex_spectrum, "_eigenpair",
                            lambda *args: calls.append(args[2]) or eigenpair(*args))
        near = CurvatureProfile("tuned_bump", tuned2.amplitude * (1 + 2e-6), 2)
        cfg = ExperimentConfig(profile=near, metric="residual", z=1j,
                               eps_grid=dyadic(4, 7), delta_rule=("ratio", 0.1),
                               f1={"type": "exp", "rate": 1.0}, p=None,
                               zero_tolerance=1e-3)
        result = run_sweep(cfg)
        assert len(result.rows) == 4 and not result.failures
        assert vertex_spectrum.classify(near, 1e-3).resonant
        assert sorted(calls) == [0, 1, 2, 3]
