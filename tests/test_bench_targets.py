"""The traced benchmark wraps library functions by name; each must exist,
and its post hooks, which bind arguments by name, must run."""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
SRC = Path(__file__).resolve().parents[1] / "src"

# One tiny step of each command kind the workloads run, through wglimit.cli.main
# with every span installed; prints the exit codes and the per-layer metrics.
TRACED_RUN = """
import json, sys
import wglimit.cli
import spans

tracer = spans.Tracer()
spans.install(tracer)
codes = [wglimit.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "metrics": tracer.metrics()}))
"""
SWEEP = ("--profile=bump:0.5", "--z=0.3,0.7", "--eps-grid", "2^-3..2^-6",
         "--delta-rule", "fixed-ratio:0.1")
STEPS = (
    ("spectrum", "--profile=bump:0.5", "--count", "2", "--out", "spectrum.csv"),
    ("coupling", *SWEEP, "--out", "coupling.csv"),
    ("residual-sweep", *SWEEP, "--f1", "exp:1", "--out", "residual.csv"),
    ("graph-limit", *SWEEP, "--f1", "gaussian:3,0.5", "--out", "graph.csv"),
    ("oracle-compare", "--profile=zero", "--z=0.3,0.7", "--epsilon", "0.5",
     "--h-u", "0.125", "--h-s", "0.25", "--f1", "gaussian:3,0.5", "--out", "oracle.json"),
)


def test_span_targets_resolve():
    # load spans.py without installing its wrappers
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, path, *_ in (*spans.TARGETS, *spans.COUNTED):
        obj = importlib.import_module(module_name)
        for part in path.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"{module_name}.{path}"


def test_traced_steps_run(tmp_path):
    # residual_norms' quadrature_order and panels, fd_resolvent's grid and
    # run_sweep's config are read by name after each call: a renamed
    # parameter would crash every traced run.  install() rebinds the library
    # for good, so the run has its own interpreter.
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), str(PERFBENCH),
                                                        os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, json.dumps(STEPS)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * len(STEPS), proc.stderr
    metrics = result["metrics"]
    for name in ("graph_limit.calls", "residual.quad_nodes", "fd_oracle.unknowns",
                 "experiments.points", "vertex_spectrum.eigen_calls",
                 "vertex_spectrum.classify_calls"):
        assert metrics[name] > 0, name
