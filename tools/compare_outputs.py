"""Write every README example and benchmark step output of one checkout.

Usage: ``python3 tools/compare_outputs.py CHECKOUT OUTDIR [--seeds 1 2]``.

The steps run in this one interpreter through ``CHECKOUT``'s
``wglimit.cli.main`` (``CHECKOUT/src`` goes first on ``sys.path``):

* the ``wglimit ...`` commands of the README's CLI section, parsed as
  ``tests/test_cli.py::TestReadmeExamples`` parses them, into
  ``OUTDIR/readme`` (the ``run`` example reads the same small coupling
  config that test writes);
* every step of ``perfbench.workloads.make_steps`` for each workload and
  seed, into ``OUTDIR/<workload>-<seed>``.

Each step writes its output files under a relative ``--out`` and its
captured stdout and exit code to ``<label>.stdout``.  Comparing two
checkouts is then ``diff -r OUTDIR_A OUTDIR_B``.  ``perfbench`` is only
imported, never written to.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

# the config file the README's ``run`` example reads
README_RUN_CONFIG = {
    "profile": {"kind": "zero", "amplitude": 0.0},
    "metric": "coupling",
    "z": [0.0, 1.0],
    "eps_grid": [2.0**-k for k in range(6, 10)],
    "delta_rule": ["power", 1.5],
}


def readme_examples(readme: Path) -> list[list[str]]:
    """The ``wglimit`` commands of the README's CLI section, as argv lists."""
    text = readme.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("wglimit ")]


def run_step(main, outdir: Path, label: str, argv: list[str]) -> int:
    """Run one CLI step inside outdir; keep its stdout and exit code."""
    outdir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    buf = io.StringIO()
    os.chdir(outdir)
    try:
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    finally:
        os.chdir(cwd)
    (outdir / f"{label}.stdout").write_text(f"{buf.getvalue()}exit {code}\n",
                                            encoding="utf-8")
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path)
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout)]
    from wglimit.cli import main as cli_main
    from perfbench.workloads import WORKLOADS, make_steps

    failed = 0
    readme_dir = args.outdir / "readme"
    readme_dir.mkdir(parents=True, exist_ok=True)
    (readme_dir / "config.json").write_text(json.dumps(README_RUN_CONFIG), encoding="utf-8")
    for i, example in enumerate(readme_examples(checkout / "README.md")):
        failed += run_step(cli_main, readme_dir, f"{i}-{example[0]}", example) != 0
    for workload in WORKLOADS:
        for seed in args.seeds:
            outdir = args.outdir / f"{workload}-{seed}"
            for step in make_steps(workload, seed):
                failed += run_step(cli_main, outdir, step.label,
                                   [*step.argv, "--out", step.out]) != 0
    print(f"wrote {args.outdir} ({failed} step(s) with a nonzero exit code)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
