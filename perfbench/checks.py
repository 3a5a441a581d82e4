"""Output checks, known-defect diagnostics and output digests.

Tolerances match or are tighter than ``tests/test_acceptance.py``:
slopes are read from the sweep's own JSON twin (its fitted window), the
oracle figures from the ``oracle-compare`` report.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

SLOPE_TOL = 0.15
TUNED_LAMBDA_TOL = 1e-10
BOUND_RATIO_SPREAD = 3.0
MISMATCH_TOL = 0.10
REFINEMENT_RANGE = (3.0, 5.0)


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


def _sweep_json(path: Path) -> dict:
    with open(f"{path}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _slope(data: dict, column: str) -> float:
    return float(data["slopes"][column]["slope"])


def _spectrum_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _evaluate(workload: str, step, path: Path) -> tuple[list[tuple], list[str]]:
    """[(name, ok, detail)] and diagnostic notes for one step's output."""
    tuned = workload == "tuned-resonant"
    out: list[tuple] = []
    notes: list[str] = []
    if step.command == "spectrum" and tuned:
        lam2 = float(_spectrum_rows(path)[1]["lambda"])
        out.append(("tuned |lambda_2| <= 1e-10", abs(lam2) <= TUNED_LAMBDA_TOL,
                    f"|lambda_2| = {abs(lam2):.2e}"))
    elif step.command == "coupling":
        data = _sweep_json(path)
        slope = _slope(data, "dev_q")
        out.append((f"{step.label} dev_q slope 1 +- {SLOPE_TOL}",
                    abs(slope - 1.0) <= SLOPE_TOL, f"slope {slope:.4f}"))
        if tuned:
            notes.append(
                f"known defect, not checked: tuned dev_xi slope "
                f"{_slope(data, 'dev_xi'):.4f} (paper: 2; ROADMAP open item 3)")
    elif step.command == "residual-sweep":
        data = _sweep_json(path)
        if tuned:
            ratios = [row["bound_ratio"] for row in data["rows"]]
            spread = max(ratios) / min(ratios)
            out.append((f"{step.label} resonant bound_ratio max/min <= "
                        f"{BOUND_RATIO_SPREAD:g}", spread <= BOUND_RATIO_SPREAD,
                        f"max/min {spread:.3f}"))
        else:
            slope = _slope(data, "residual_Hnorm")
            out.append((f"{step.label} residual_Hnorm slope -0.5 +- {SLOPE_TOL}",
                        abs(slope + 0.5) <= SLOPE_TOL, f"slope {slope:.4f}"))
    elif step.command == "oracle-compare":
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        mismatch = float(report["mismatch"])
        out.append((f"{step.label} mismatch <= {MISMATCH_TOL:g}",
                    mismatch <= MISMATCH_TOL, f"mismatch {mismatch:.4f}"))
        if "--profile=zero" in step.argv:
            factor = report["refinement_factor"]
            lo, hi = REFINEMENT_RANGE
            out.append((f"{step.label} refinement factor in [{lo:g}, {hi:g}]",
                        factor is not None and lo <= factor <= hi,
                        f"factor {factor}"))
    return out, notes


def check_outputs(workload: str, steps, outdir: Path) -> tuple[list[Check], list[str]]:
    """Checks of every step's output; an unreadable output fails its step's check."""
    checks: list[Check] = []
    notes: list[str] = []
    for step in steps:
        try:
            found, step_notes = _evaluate(workload, step, outdir / step.out)
        except (OSError, KeyError, IndexError, TypeError, ValueError,
                ZeroDivisionError) as exc:
            checks.append(Check(f"{step.label} output readable", False,
                                f"{type(exc).__name__}: {exc}"))
            continue
        checks += [Check(*c) for c in found]
        notes += step_notes
    return checks, notes


def failed_points(step, outdir: Path) -> int:
    """Sweep points the sweep recorded as failed (all of them if unreadable)."""
    try:
        return len(_sweep_json(outdir / step.out)["failures"])
    except (OSError, KeyError, ValueError):
        return step.n_points


def _rounded(value, digits: int = 6):
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        # Version strings and solver backward errors (noise-level floats)
        # are not results.
        return {k: _rounded(v, digits) for k, v in value.items()
                if k not in ("version", "tolerances")}
    if isinstance(value, list):
        return [_rounded(v, digits) for v in value]
    return value


def digest(steps, outdir: Path) -> str:
    """Digest of the numeric outputs rounded to 6 significant digits."""
    h = hashlib.sha256()
    for step in steps:
        path = outdir / step.out
        try:
            if step.n_points:
                value = _sweep_json(path)  # the CSV repeats its JSON twin
            elif step.command == "spectrum":
                value = [[float(v) for v in row.values()] for row in _spectrum_rows(path)]
            else:
                value = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue  # a missing output already fails its step's check
        h.update(json.dumps(_rounded(value), sort_keys=True).encode())
    return h.hexdigest()[:16]
