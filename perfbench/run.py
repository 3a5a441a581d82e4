"""wglimit benchmark: cold CLI processes on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a wglimit checkout.  Each iteration starts a fresh
interpreter (``child.py``) that imports ``wglimit.cli`` from the
checkout's ``src`` and runs the workload's CLI steps through
``wglimit.cli.main``, so every iteration pays tuning and the cold
spectrum caches as a user does.  Iterations repeat until the next one
would overrun ``--seconds``; the report gives medians over them.
Everything is serial: WGL_THREADS is unset and BLAS is held to one
thread.

Each iteration's process also times the fixed calibration work in
``probe.py`` around each group of steps (see ``child.py``).  Timings
are reported in reference seconds (``ref_s``): a step's seconds times
``probe.REFERENCE_S`` over the mean of the two probes around it, so
that a machine running at half speed reads the same.  On a shared VM
whose speed swings by 30-70% within seconds to minutes this cancels
much of the drift that raw seconds carry; the raw medians are printed
beside them.  Set-up time and memory are reported as measured.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced iterations and reports the per-layer metrics of the
traced ones, plus the tracing overhead (traced minus untraced wall
time).  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--all`` runs
every workload both ways and rewrites ``BENCHMARK.json`` and
``perfbench/RECORD.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import probe
import spans
from workloads import WHY, WORKLOADS, Step, make_steps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = 42
SETUP_MIN, SETUP_MAX = 2, 12  # set-up-only processes per run
HARD_LIMIT_S = 170.0  # a run must end within 180 s

# Reported metric -> (unit, better, bound as a share of the parent's
# median).  Even calibrated, timings on a shared 2-core VM spread by
# 5-15% between runs, so they take a bound of 0.25; memory is steady.
# Set-up time is reported in plain seconds, as a user pays it.
END_TO_END = {
    "wall_ref_s": ("ref_s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "points_per_ref_s": ("1/ref_s", "higher", 0.25),
    "spectrum_ref_s": ("ref_s", "lower", 0.25),
    "fd_unknowns_per_ref_s": ("1/ref_s", "higher", 0.25),
}
# Per-iteration figures printed beside them, as measured.
RAW = {"wall_s": "s", "points_per_s": "1/s", "spectrum_s": "s",
       "fd_unknowns_per_s": "1/s", "probe_s": "s"}

EXCLUDED = {
    "tier1_suite_wall": (
        "The Tier-1 suite's wall time is not a workload: tests are added "
        "between changes, so it is not the same work from one commit to the "
        "next, and at ~44 s a run it would cost 44 s x 22 runs per workload."),
    "wgl_threads_pool": (
        "The WGL_THREADS sweep pool is not measured: on a 2-core machine a "
        "process pool cannot give steady scaling figures, so every workload "
        "runs serially with WGL_THREADS unset."),
    "error_rate": (
        "error_rate (failed over attempted operations) is 0 on a correct run, "
        "so it is carried by the result's 'attempted' and 'failed' fields and "
        "printed, not listed as a metric that must never be 0."),
}


def _env() -> dict:
    env = dict(os.environ)
    env.pop("WGL_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Spawns child processes inside one work directory."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline  # perf_counter value by which all must end
        self.env = _env()
        self.spawned = 0

    def spawn(self, steps: list[Step] | None, trace: bool) -> dict:
        """Run one child; returns its result plus ``wall`` and ``setup``."""
        self.spawned += 1
        tag = f"p{self.spawned}"
        result_path = self.workdir / f"{tag}.result.json"
        argv = [sys.executable, str(HERE / "child.py"), str(result_path)]
        if steps is not None:
            outdir = self.workdir / tag
            outdir.mkdir()
            steps_path = self.workdir / f"{tag}.steps.json"
            steps_path.write_text(json.dumps(
                [[*s.argv, "--out", str(outdir / s.out)] for s in steps]))
            argv.append(str(steps_path))
            if trace:
                argv.append("--trace")
        log_path = self.workdir / f"{tag}.log"
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                    stdin=subprocess.DEVNULL, env=self.env,
                                    cwd=self.workdir)
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = None
            wall = time.perf_counter() - start
        result: dict = {}
        if code == 0 and result_path.is_file():
            result = json.loads(result_path.read_text())
        result.update(code=code, wall=wall, log=str(log_path),
                      setup=result["ready"] - start if "ready" in result else None,
                      outdir=self.workdir / tag)
        expected = (ROOT / "src" / "wglimit" / "cli.py").resolve()
        result["own_source"] = Path(result.get("module", "")).resolve() == expected
        return result


def _log_tail(child: dict, lines: int = 12) -> str:
    try:
        text = Path(child["log"]).read_text(errors="replace")
    except OSError:
        return "    (no log)"
    return "\n".join("    " + line for line in text.splitlines()[-lines:])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(samples: dict) -> dict:
    """Reported metric -> its median over the run's samples."""
    return {m: statistics.median(samples[m]) if samples[m] else 0.0 for m in END_TO_END}


def _workload_wall(child: dict) -> float:
    """An iteration's wall time without its probes."""
    return child["wall"] - sum(child["probe_s"])


def reference_seconds(result: dict, probes: list[float]) -> float:
    """A step's duration in ref_s: scaled by the machine speed that the
    two probes around its group measured."""
    i = result["probe"]
    speed = (probes[i] + probes[i + 1]) / (2 * probe.REFERENCE_S)
    return result["seconds"] / speed


def _iteration_metrics(steps: list[Step], child: dict) -> dict:
    """End-to-end figures of one untraced iteration, raw and in ref_s."""
    probes = child["probe_s"]
    timed = list(zip(steps, child.get("steps", [])))
    spectrum = [r for s, r in timed if s.command == "spectrum"]
    sweep = [r for s, r in timed if s.n_points]
    oracle = [(s, r) for s, r in timed if s.command == "oracle-compare"]
    points = sum(s.n_points for s in steps)
    unknowns = _oracle_unknowns([s for s, _ in oracle], child["outdir"])
    out = {"wall_s": _workload_wall(child), "probe_s": statistics.mean(probes),
           "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
           "spectrum_s": sum(r["seconds"] for r in spectrum),
           "points_per_s": points / sum(r["seconds"] for r in sweep),
           "fd_unknowns_per_s": unknowns / sum(r["seconds"] for _, r in oracle)}
    out["wall_ref_s"] = out["wall_s"] / (out["probe_s"] / probe.REFERENCE_S)
    out["spectrum_ref_s"] = sum(reference_seconds(r, probes) for r in spectrum)
    out["points_per_ref_s"] = points / sum(reference_seconds(r, probes) for r in sweep)
    out["fd_unknowns_per_ref_s"] = unknowns / sum(
        reference_seconds(r, probes) for _, r in oracle)
    return out


def _oracle_unknowns(steps: list[Step], outdir: Path) -> int:
    """Unknowns solved by the oracle steps, refined grids included."""
    unknowns = 0
    for step in steps:
        report = json.loads((outdir / step.out).read_text())
        n = report["grid"]["unknowns"]
        unknowns += n
        if report["refinement_factor"] is not None:
            # --refine halves h_s: 2 n_lines + 1 lines of n_u = 1/h_u - 1 nodes.
            unknowns += 2 * n + round(1.0 / report["grid"]["h_u"]) - 1
    return unknowns


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the full report."""
    start = time.perf_counter()
    steps = make_steps(name, seed)
    workdir = HERE / ".work" / f"{os.getpid()}-{name}-{seed}-{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(workdir, start + HARD_LIMIT_S)
    attempted = failed = 0
    setup: list[float] = []
    problems: list[str] = []
    plain: list[dict] = []
    traced: list[dict] = []
    all_checks: list[checks.Check] = []
    notes: list[str] = []
    digests: set = set()
    setup_walls: list[float] = []

    def setup_sample() -> None:
        nonlocal attempted, failed
        child = runner.spawn(None, False)
        setup_walls.append(child["wall"])
        attempted += 1
        if child["code"] != 0 or not child["own_source"]:
            failed += 1
            problems.append("set-up process failed:\n" + _log_tail(child))
        else:
            setup.append(child["setup"])

    try:
        longest = 0.0
        while True:
            want_trace = trace and len(traced) <= len(plain)
            child = runner.spawn(steps, want_trace)
            longest = max(longest, child["wall"])
            results = child.get("steps", [])
            if child["code"] != 0 or len(results) != len(steps) or not child["own_source"]:
                problems.append(f"iteration process failed (exit {child['code']}):\n"
                                + _log_tail(child))
                attempted += 1
                failed += 1
                break
            setup.append(child["setup"])
            ops, bad, found, notes, step_problems = _score(name, steps, child, want_trace)
            attempted += ops
            failed += bad
            all_checks += found
            problems += step_problems
            digests.add(checks.digest(steps, child["outdir"]))
            child["e2e"] = {} if step_problems else _iteration_metrics(steps, child)
            (traced if want_trace else plain).append(child)
            shutil.rmtree(child["outdir"], ignore_errors=True)
            # Machine speed drifts over seconds: spread set-up samples over
            # the run instead of taking them back to back.
            setup_sample()
            enough = not trace or (traced and plain)
            reserve = max(1, SETUP_MIN - len(setup_walls)) * max(setup_walls)
            if enough and time.perf_counter() + longest + reserve > start + seconds:
                break
            if time.perf_counter() + longest > start + HARD_LIMIT_S:
                break
        # Further set-up samples fill what is left of the run.
        while len(setup_walls) < SETUP_MIN or (
                len(setup_walls) < SETUP_MAX
                and time.perf_counter() + 2 * max(setup_walls) < start + seconds):
            setup_sample()
        attempted += 1
        if len(digests) > 1:
            failed += 1
            problems.append("outputs differ between iterations of one seed")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass
    samples: dict = {m: [] for m in [*END_TO_END, *RAW]}
    samples["setup_s"] = setup
    for child in plain:
        for metric, value in child["e2e"].items():
            samples[metric].append(value)
    layer: dict = {}
    if traced:
        per_iter = [child["trace"] for child in traced]
        for metric in per_iter[0]:
            layer[metric] = statistics.median(t[metric] for t in per_iter)
        layer["trace.wall_s"] = statistics.median(map(_workload_wall, traced))
        if plain:
            layer["trace.overhead_s"] = (layer["trace.wall_s"]
                                         - statistics.median(map(_workload_wall, plain)))
    return {
        "workload": name, "seed": seed, "trace": trace,
        "iterations": {"untraced": len(plain), "traced": len(traced),
                       "setup_only": len(setup_walls)},
        "samples": samples, "per_layer": layer,
        "attempted": attempted, "failed": failed, "problems": problems,
        "checks": all_checks, "notes": notes,
        "dominant": [(c["dominant_layer"], c["dominant_span"]) for c in traced],
        "digest": min(digests, default=None),
        "elapsed_s": time.perf_counter() - start,
    }


def _score(name: str, steps: list[Step], child: dict, traced: bool) -> tuple:
    """(attempted, failed, checks, notes, problems) of one iteration.

    A sweep point, a non-sweep command and an output check are one
    operation each.
    """
    attempted = failed = 0
    problems: list[str] = []
    for step, res in zip(steps, child["steps"]):
        ops = step.n_points or 1
        attempted += ops
        if res["code"] != 0:
            failed += ops
            problems.append(f"{step.label}: exit code {res['code']}")
        elif step.n_points:
            failed += checks.failed_points(step, child["outdir"])
    found, notes = checks.check_outputs(name, steps, child["outdir"])
    if traced:
        found += _trace_sanity(name, child["trace"], len(steps))
    attempted += len(found)
    failed += sum(not c.ok for c in found)
    return attempted, failed, found, notes, problems


def _trace_sanity(name: str, metrics: dict, n_steps: int) -> list[checks.Check]:
    """Structural facts every traced run must show."""
    found = []
    if name in ("generic-sweep", "fd-oracle"):
        found.append(checks.Check("trace: profile.tune_calls == 0",
                                  metrics["profile.tune_calls"] == 0,
                                  f"{metrics['profile.tune_calls']:g} calls"))
    if name == "generic-sweep":
        found.append(checks.Check("trace: coupling.projector_calls == 0",
                                  metrics["coupling.projector_calls"] == 0,
                                  f"{metrics['coupling.projector_calls']:g} calls"))
    found.append(checks.Check("trace: cli.commands == steps run",
                              metrics["cli.commands"] == n_steps,
                              f"{metrics['cli.commands']:g} commands"))
    return found


EXPECTED_DOMINANT = {"tuned-resonant": ("layer", "vertex_spectrum"),
                     "fd-oracle": ("span", "fd_oracle.factor")}


def _print_report(report: dict) -> None:
    it = report["iterations"]
    print(f"workload {report['workload']} seed {report['seed']}: "
          f"{it['untraced']} untraced + {it['traced']} traced iterations, "
          f"{it['setup_only']} set-up-only processes, "
          f"{report['elapsed_s']:.1f} s")
    units = {**{m: spec[0] for m, spec in END_TO_END.items()}, **RAW}
    for metric, values in report["samples"].items():
        if values:
            q1, med, q3 = _quartiles(values)
            raw = "(as measured)" if metric in RAW else ""
            print(f"  {metric:<22} {med:14.6g} {units[metric]:<7} "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}) {raw}")
    rate = report["failed"] / report["attempted"]
    print(f"  {'error_rate':<18} {rate:14.6g} 1    "
          f"({report['failed']} failed / {report['attempted']} attempted)")
    for metric, value in report["per_layer"].items():
        print(f"  {metric:<36} {value:14.6g} {spans.PER_LAYER[metric][0]}")
    seen = set()
    for check in report["checks"]:
        if (check.name, check.ok) not in seen:
            seen.add((check.name, check.ok))
            print(f"  [{'PASS' if check.ok else 'FAIL'}] {check.name} ({check.detail})")
    for note in report["notes"]:
        print(f"  [NOTE] {note}")
    if report["dominant"]:
        layer, span = report["dominant"][0]
        print(f"  [NOTE] largest self time: layer {layer}, span {span}")
        expected = EXPECTED_DOMINANT.get(report["workload"])
        if expected:
            got = layer if expected[0] == "layer" else span
            print(f"  [NOTE] expected dominant {expected[0]} {expected[1]}: "
                  f"{'holds' if got == expected[1] else 'does not hold'} "
                  "(diagnostic, not checked)")
    for problem in report["problems"]:
        print(f"  [FAIL] {problem}")
    print(f"  output digest (rounded to 6 digits): {report['digest']}")


def _result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = {m: {"value": report["per_layer"].get(m, 0.0),
                       "unit": spans.PER_LAYER[m][0]} for m in spans.PER_LAYER}
    else:
        metrics = {m: {"value": v, "unit": END_TO_END[m][0]}
                   for m, v in end_to_end(report["samples"]).items()}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": WHY[w]} for w in WORKLOADS],
        "end_to_end": [{"name": m, "unit": u, "better": b, "bound": bound}
                       for m, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": m, "unit": u, "better": b}
                      for m, (u, b) in spans.PER_LAYER.items()],
    }


def _record(reports: list[dict], seed: int, seconds: float) -> dict:
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    workloads = {}
    for report in reports:
        entry = workloads.setdefault(report["workload"], {"why": WHY[report["workload"]]})
        if report["trace"]:
            entry["per_layer"] = report["per_layer"]
            entry["dominant_self_time"] = report["dominant"]
        else:
            entry["digest"] = report["digest"]
            units = {**{m: spec[0] for m, spec in END_TO_END.items()}, **RAW}
            entry["end_to_end"] = {
                m: dict(zip(("q1", "median", "q3"), _quartiles(v)), n=len(v), unit=units[m])
                for m, v in report["samples"].items() if v}
            entry["error_rate"] = report["failed"] / report["attempted"]
            entry["notes"] = report["notes"]
    return {
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "nproc": os.cpu_count()},
        "versions": {"python": platform.python_version(), **versions},
        "seed": seed, "seconds": seconds,
        "workloads": workloads,
        "excluded": EXCLUDED,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload both ways; rewrite BENCHMARK.json "
                         "and perfbench/RECORD.json")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "wglimit" / "cli.py").is_file():
        print(f"no wglimit source under {ROOT / 'src'}: run from a wglimit checkout",
              file=sys.stderr)
        return 2
    if args.all:
        reports = []
        for name in WORKLOADS:
            for trace in (False, True):
                reports.append(run_workload(name, args.seed, args.seconds, trace))
                _print_report(reports[-1])
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
        (HERE / "RECORD.json").write_text(
            json.dumps(_record(reports, args.seed, args.seconds), indent=2) + "\n")
        return 0 if all(r["failed"] == 0 for r in reports) else 1
    if args.workload is None:
        ap.error("--workload is required unless --all is given")
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(report)
    print(json.dumps(_result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
