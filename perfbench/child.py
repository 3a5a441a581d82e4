"""One cold benchmark process: import the CLI, run the steps, report.

Usage: ``python3 child.py RESULT.json [STEPS.json [--trace]]``.  The
parent puts the checkout's ``src`` on PYTHONPATH.  With only a result
path the process stops after ``import wglimit.cli`` (a set-up sample).
Otherwise each step's argv goes through ``wglimit.cli.main`` in order,
in this one interpreter.  The fixed calibration work in ``probe.py`` is
timed before the first step, after the last, and wherever the steps
pass from one group (spectrum, sweeps, oracle) to the next, so every
group is bracketed by two probes close to it in time.  The result file
holds the clock reading after the import, each step's exit code,
duration and preceding probe, the peak RSS (before the last probe), the
probe durations and, when traced, the per-layer metrics.
"""

import time

import json
import resource
import sys
import traceback

import wglimit.cli

READY = time.perf_counter()


def _group(argv_step: list[str]) -> str:
    """Steps of one group share the probes around them."""
    command = argv_step[0]
    return command if command in ("spectrum", "oracle-compare") else "sweep"


def main(argv: list[str]) -> None:
    result: dict = {"ready": READY, "module": wglimit.cli.__file__}
    if len(argv) > 1:
        with open(argv[1], encoding="utf-8") as fh:
            steps = json.load(fh)
        import probe

        tracer = None
        if "--trace" in argv[2:]:
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        result["steps"] = []
        probes = [probe.run()]
        for i, argv_step in enumerate(steps):
            start = time.perf_counter()
            try:
                code = wglimit.cli.main(argv_step)
            except Exception:  # a crash is a failed step; keep going
                traceback.print_exc()
                code = -1
            result["steps"].append({"code": code, "seconds": time.perf_counter() - start,
                                    "probe": len(probes) - 1})
            if i + 1 < len(steps) and _group(steps[i + 1]) != _group(argv_step):
                probes.append(probe.run())
        if tracer is not None:
            result["trace"] = tracer.metrics()
            layer_self, key_self = tracer.self_times()
            result["dominant_layer"] = max(layer_self, key=layer_self.get, default="")
            result["dominant_span"] = max(key_self, key=key_self.get, default="")
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["probe_s"] = probes + [probe.run()]
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
