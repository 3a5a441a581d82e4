"""Write every README example and benchmark step output of one checkout.

Usage: ``python3 tools/compare_outputs.py CHECKOUT OUTDIR [--seeds 1 2]``,
or ``python3 tools/compare_outputs.py --diff OUTDIR_A OUTDIR_B``.

The steps run in this one interpreter through ``CHECKOUT``'s
``wglimit.cli.main`` (``CHECKOUT/src`` goes first on ``sys.path``):

* the ``wglimit ...`` commands of the README's CLI section, parsed by
  ``readme_examples`` (which ``tests/test_cli.py::TestReadmeExamples``
  also runs), into ``OUTDIR/readme`` (the ``run`` example reads
  ``README_RUN_CONFIG``, a small coupling config);
* every step of ``perfbench.workloads.make_steps`` for each workload and
  seed, into ``OUTDIR/<workload>-<seed>``.

Each step writes its output files under a relative ``--out`` and its
captured stdout and exit code to ``<label>.stdout``.  Comparing two
checkouts is then ``diff -r OUTDIR_A OUTDIR_B``.  ``perfbench`` is only
imported, never written to.

Before numpy is imported, ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` are set to 1, as ``perfbench/run.py`` sets them for its
children: a BLAS product's rounding can depend on its thread count, so
outputs written on machines with different core counts could differ.

``--diff`` compares two such directories file by file where outputs are
not byte-identical: each file whose text matches once every number is
masked gets the largest relative change |a - b| / max(|a|, |b|) over its
numbers, with the line it sits on, and a ``.json`` file also the largest
change per key path (``tolerances.solve_residual``, ``rows[].mismatch``,
list items folded into ``[]``), so a key whose definition changed does not
hide the others, with the ``epsilon`` of the sweep row that holds it; any
other difference is reported as such.  The last line
sums up: the largest relative change of all, the number of files compared
and of those byte-identical, and the file and key of that change (its
line, outside ``.json``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import re
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
    "p": [[1.0, 0.0], [0.0, 0.0]],
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


NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\b(?:nan|inf)\b")


def relative_change(x: float, y: float) -> float:
    """|x - y| / max(|x|, |y|); 0 for equal numbers or two NaNs, inf when
    only one side is finite."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def numeric_change(old: str, new: str) -> tuple[float, int] | None:
    """Largest relative change between the numbers of two texts and its
    1-based line, or None when they differ other than in their numbers."""
    if NUMBER.sub("#", old) != NUMBER.sub("#", new):
        return None
    worst, line = 0.0, 0
    for a, b in zip(NUMBER.finditer(old), NUMBER.finditer(new)):
        rel = relative_change(float(a.group()), float(b.group()))
        if rel > worst:
            worst, line = rel, old.count("\n", 0, a.start()) + 1
    return worst, line


def json_changes(old: str, new: str) -> dict[str, tuple[float, float | None]]:
    """Largest relative change per key path of two JSON texts that differ
    only in their numbers, and the ``epsilon`` of the list item (a sweep
    row) it sits in, or None; list items share their list's path plus ``[]``."""
    changes: dict[str, tuple[float, float | None]] = {}

    def walk(a, b, path: str, eps) -> None:
        if isinstance(a, dict):
            for key in a:
                walk(a[key], b[key], f"{path}.{key}" if path else key, eps)
        elif isinstance(a, list):
            for x, y in zip(a, b):
                walk(x, y, f"{path}[]", x.get("epsilon", eps) if isinstance(x, dict) else eps)
        elif isinstance(a, (int, float)) and not isinstance(a, bool):
            rel = relative_change(float(a), float(b))
            if rel > changes.get(path, (0.0,))[0]:
                changes[path] = (rel, eps)

    walk(json.loads(old), json.loads(new), "", None)
    return changes


def diff_outputs(dir_a: Path, dir_b: Path) -> int:
    """Print one line per file of two output directories and a summary
    line; 1 if any differs other than in its numbers or exists on one side
    only."""
    names_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    status = compared = identical = 0
    worst = (0.0, None, None)  # relative change, file, key
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            print(f"only in {dir_a if name in names_a else dir_b}: {name}")
            status = 1
            continue
        compared += 1
        old = (dir_a / name).read_text(encoding="utf-8")
        new = (dir_b / name).read_text(encoding="utf-8")
        if old == new:
            identical += 1
            print(f"identical  {name}")
            continue
        change = numeric_change(old, new)
        if change is None:
            print(f"text differs  {name}")
            status = 1
            continue
        print(f"max rel {change[0]:.2e} (line {change[1]})  {name}")
        key = f"line {change[1]}"
        if name.suffix == ".json":
            keys = json_changes(old, new)
            for path, (rel, eps) in sorted(keys.items()):
                at = "" if eps is None else f" at epsilon {eps!r}"
                print(f"    max rel {rel:.2e}{at}  {path}")
            if keys:
                key = max(keys, key=lambda k: keys[k][0])
        if change[0] > worst[0]:
            worst = (change[0], name, key)
    where = f": {worst[1]} {worst[2]}" if worst[1] else ""
    print(f"max rel {worst[0]:.2e} of {compared} files compared "
          f"({identical} byte-identical){where}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path)
    ap.add_argument("outdir", type=Path)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--diff", action="store_true",
                    help="compare two output directories instead of writing one")
    args = ap.parse_args(argv)
    if args.diff:
        return diff_outputs(args.checkout, args.outdir)
    # before wglimit imports numpy (module docstring)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
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
