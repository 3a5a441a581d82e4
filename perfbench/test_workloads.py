"""Tests of the benchmark's input generator and span reduction.

Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import spans
from workloads import TUNED_RATIO_MAX, WORKLOADS, make_steps

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from wglimit.cli import build_parser  # noqa: E402

SEEDS = range(40)


def _flag(argv, name: str) -> str | None:
    for i, arg in enumerate(argv):
        if arg.startswith(name + "="):
            return arg.split("=", 1)[1]
        if arg == name:
            return argv[i + 1]
    return None


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert make_steps(workload, 7) == make_steps(workload, 7)
    assert make_steps(workload, 7) != make_steps(workload, 8)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_has_work(workload):
    commands = {step.command for step in make_steps(workload, 0)}
    assert {"spectrum", "oracle-compare"} <= commands
    assert commands & {"coupling", "residual-sweep", "graph-limit"}


def test_tuned_ratio_stays_below_geometry_limit():
    for seed in SEEDS:
        for step in make_steps("tuned-resonant", seed):
            rule = _flag(step.argv, "--delta-rule")
            if rule is not None:
                kind, value = rule.split(":")
                assert kind == "fixed-ratio"
                assert 0.0 < float(value) <= TUNED_RATIO_MAX


@pytest.mark.parametrize("workload", WORKLOADS)
def test_z_off_the_spectrum(workload):
    for seed in SEEDS:
        for step in make_steps(workload, seed):
            assert "--z" not in step.argv  # always the --z=RE,IM form
            if step.command == "spectrum":
                continue
            re, im = (float(v) for v in _flag(step.argv, "--z").split(","))
            assert im != 0.0  # so z is off [0, inf) and the FD oracle accepts it


def test_negative_real_part_parses():
    seen_negative = False
    parser = build_parser()
    for workload in WORKLOADS:
        for seed in range(10):
            for step in make_steps(workload, seed):
                args = parser.parse_args([*step.argv, "--out", "unused"])
                seen_negative |= getattr(args, "z", "").startswith("-")
    assert seen_negative


def test_unknown_workload():
    with pytest.raises(ValueError):
        make_steps("nope", 0)


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.spans = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["vertex_spectrum.eigen", 1.0, 5.0, 0, 2],
        ["vertex_spectrum.ivp", 2.0, 3.0, 1, 0],
        ["vertex_spectrum.eigen", 3.0, 4.0, 1, 1],  # nested: not timed twice
        ["fd_oracle.factor", 6.0, 8.5, 0, 0],
    ]
    metrics = tracer.metrics()
    assert metrics["cli.self_s"] == pytest.approx(3.5)
    assert metrics["vertex_spectrum.self_s"] == pytest.approx(4.0)
    assert metrics["vertex_spectrum.eigen_s"] == pytest.approx(4.0)
    assert metrics["fd_oracle.factor_s"] == pytest.approx(2.5)
    assert metrics["vertex_spectrum.ivp_per_eigenvalue"] == pytest.approx(0.5)
    layer, key = tracer.self_times()
    assert max(layer, key=layer.get) == "vertex_spectrum"
    assert max(key, key=key.get) == "cli.main"


def test_reference_seconds_cancel_machine_speed():
    import probe
    import run

    ref = probe.REFERENCE_S
    # Probes before the first group, between groups and after the last;
    # the machine ran at half speed during the second group.
    probes = [ref, ref, 2 * ref, 2 * ref]
    first = {"seconds": 3.0, "probe": 0}
    second = {"seconds": 6.0, "probe": 2}
    across = {"seconds": 4.5, "probe": 1}  # probes at full and half speed
    assert run.reference_seconds(first, probes) == pytest.approx(3.0)
    assert run.reference_seconds(second, probes) == pytest.approx(3.0)
    assert run.reference_seconds(across, probes) == pytest.approx(3.0)
