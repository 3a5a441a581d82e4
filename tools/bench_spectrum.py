"""Time the spectrum layer's cold calls in fresh interpreters; write BENCH_spectrum.json.

Usage: ``python3 tools/bench_spectrum.py [--checkout DIR] [--runs N] [--out FILE]``.

Each sample is one fresh interpreter running ``CHECKOUT/src``'s ``wglimit``
at one BLAS thread (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1 before numpy loads).  It imports the library,
does the case's untimed setup and then times one call, whose caches are
empty because the process is new:

* ``tune_to_resonance(2)``: the resonance tuning of ``tuned:2``;
* ``eigenvalues(tuned:2, 4)``: after tuning ``tuned:2`` (untimed);
* ``eigenvalues(bump:0.6218, 6)``: a generic bump.

The cases alternate within each of the ``--runs`` rounds, so a slow
moment of the machine spreads over all of them.  The output holds, per
case, the median and quartiles in ms and the samples, together with the
checkout's git commit (when it is a git checkout; ``-dirty`` when its
tracked files differ from it), the round count and the
Python and numpy versions.  Defaults: the checkout this file sits in, 15
rounds and ``BENCH_spectrum.json`` in the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

CASES = {
    "tune_to_resonance(2)": (
        "", "tune_to_resonance(2)"),
    "eigenvalues(tuned:2, 4)": (
        "profile = tune_to_resonance(2)", "eigenvalues(profile, 4)"),
    "eigenvalues(bump:0.6218, 6)": (
        "profile = CurvatureProfile.bump(0.6218)", "eigenvalues(profile, 6)"),
}

CHILD = """\
import time
from wglimit import CurvatureProfile, eigenvalues, tune_to_resonance
{setup}
start = time.perf_counter()
{call}
print(repr(1e3 * (time.perf_counter() - start)))
"""

ONE_THREAD = {name: "1" for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def time_case(checkout: Path, setup: str, call: str) -> float:
    """Milliseconds of one cold call in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), **ONE_THREAD)
    out = subprocess.run([sys.executable, "-c", CHILD.format(setup=setup, call=call)],
                         check=True, capture_output=True, text=True, env=env)
    return float(out.stdout)


def commit_of(checkout: Path) -> str | None:
    """The checkout's git commit, suffixed ``-dirty`` if its tracked files differ."""
    out = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty",
                          "--abbrev=40"], capture_output=True, text=True)
    return out.stdout.strip() or None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--checkout", type=Path, default=Path(__file__).resolve().parents[1])
    ap.add_argument("--runs", type=int, default=15)
    ap.add_argument("--out", type=Path, default=Path("BENCH_spectrum.json"))
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")

    samples = {name: [] for name in CASES}
    for _ in range(args.runs):
        for name, (setup, call) in CASES.items():
            samples[name].append(time_case(args.checkout, setup, call))
    cases = {}
    for name, times in samples.items():
        q1, median, q3 = np.percentile(times, [25, 50, 75])
        cases[name] = {"median_ms": median, "q1_ms": q1, "q3_ms": q3, "samples_ms": times}
    report = {
        "harness": "tools/bench_spectrum.py",
        "commit": commit_of(args.checkout),
        "runs": args.runs,
        "blas_threads": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cases": cases,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for name, row in cases.items():
        print(f"{name:30s} {row['median_ms']:8.3f} ms  "
              f"[{row['q1_ms']:.3f}, {row['q3_ms']:.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
