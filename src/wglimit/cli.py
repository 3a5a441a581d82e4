"""Command-line interface.

Subcommands: spectrum, kernel, coupling, residual-sweep, graph-limit,
oracle-compare, run.  Each parses its flags and calls one library
function: the sweeps build an ``ExperimentConfig`` for ``run_sweep``,
and oracle-compare writes the dict of ``oracle_report``.  Exit codes:
0 success, 2 validation error (z on [0, inf) included for sweeps and
oracle-compare, and a --config that cannot be read or an --out whose
directory does not exist, both found before any work), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import json
import math
import os
import sys
from functools import cache, partial

import numpy as np

from . import __version__
from .coupling import SingularSystemError
from .experiments import (
    DEFAULT_WINDOW_POLICY,
    ConfigError,
    ExperimentConfig,
    FitError,
    csv_cell,
    edge_function_from_spec,
    oracle_report,
    run_sweep,
)
from .fd_oracle import H_S, H_U, OracleError
from .kernels import (SERIES_DEFAULT_TERMS, KernelError, NearEigenvalueError, series_kernel,
                      vertex_kernel_at)
from .profile import CurvatureProfile, ProfileError, tune_to_resonance
from .vertex_spectrum import DEFAULT_ZERO_TOLERANCE, IntegrationError, SpectrumError, eigenvalues

VALIDATION_ERRORS = (ConfigError, ProfileError, FitError, ValueError)
NUMERICAL_ERRORS = (NearEigenvalueError, SingularSystemError, IntegrationError,
                    SpectrumError, KernelError, OracleError, OverflowError)
# Largest `kernel --grid` (grid^2 CSV rows, streamed) and `kernel --n-terms`; each
# route evaluates a grid point once (2000 series terms on 1001 points: 11 s, 2 vCPUs).
MAX_KERNEL_GRID = 1001
MAX_SERIES_TERMS = 2000
# Largest B of `--eps-grid 2^-A..2^-B`: 2^-1075 rounds to 0.
MAX_EPS_EXPONENT = 1074


def _parse_profile(text: str) -> CurvatureProfile:
    if text == "zero":
        return CurvatureProfile.zero()
    if text.startswith("bump:"):
        return CurvatureProfile.bump(float(text.split(":", 1)[1]))
    if text.startswith("tuned:"):
        return tune_to_resonance(CurvatureProfile.bump(0.5),
                                 int(text.split(":", 1)[1]))
    if text.startswith("{"):
        return CurvatureProfile.from_json_fragment(json.loads(text))
    raise ConfigError(f"cannot parse profile {text!r} "
                      "(use zero | bump:A | tuned:K | JSON fragment)")


def _parse_z(text: str) -> complex:
    re, im = text.split(",")
    z = complex(float(re), float(im))
    if not cmath.isfinite(z):
        raise ConfigError(f"complex number {text!r} is not finite")
    return z


def _parse_eps_grid(text: str) -> tuple[float, ...]:
    if text.startswith("2^-") and ".." in text:
        lo, hi = (int(k) for k in text[3:].split("..2^-"))
        if lo < 0 or hi > MAX_EPS_EXPONENT:  # before the range is built
            raise ConfigError(f"--eps-grid {text!r} needs 0 <= A and B <= {MAX_EPS_EXPONENT}")
        return tuple(2.0**-k for k in range(lo, hi + 1))
    return tuple(float(v) for v in text.split(","))


def _parse_delta_rule(text: str) -> tuple[str, float]:
    kind, _, value = text.partition(":")
    rule = {"fixed-ratio": "ratio", "power": "power"}.get(kind)
    if rule is not None and math.isfinite(float(value)):
        return (rule, float(value))
    raise ConfigError(f"cannot parse delta rule {text!r} "
                      "(use fixed-ratio:R | power:A with finite R, A)")


def _parse_edge_fn(text: str | None):
    if text is None or text == "none":
        return None
    kind, _, rest = text.partition(":")
    if kind == "exp":
        return {"type": "exp", "rate": float(rest or 1.0)}
    if kind == "gaussian":
        c, w = (rest or "3,0.5").split(",")
        return {"type": "gaussian", "center": float(c), "width": float(w)}
    if kind == "indicator":
        lo, hi = (rest or "0,1").split(",")
        return {"type": "indicator", "lo": float(lo), "hi": float(hi)}
    raise ConfigError(f"cannot parse edge function {text!r}")


def _check_out(path: str) -> None:
    """--out must name a file in an existing directory, checked before any work."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"cannot write --out {path!r}: not a file in an existing directory")


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([csv_cell(v) for v in row])


def _cmd_spectrum(args) -> int:
    profile = _parse_profile(args.profile)
    spec = eigenvalues(profile, args.count, args.tol)
    rows = [
        (n + 1, float(spec.eigenvalues[n]), spec.functions[n].at_minus1,
         spec.functions[n].at_plus1)
        for n in range(args.count)
    ]
    _write_csv(args.out, ["n", "lambda", "y_at_minus1", "y_at_plus1"], rows)
    print(f"wrote {args.out} ({args.count} eigenvalues, "
          f"case={'2' if spec.case.resonant else '1'})")
    return 0


def _cmd_kernel(args) -> int:
    if not 1 <= args.grid <= MAX_KERNEL_GRID:
        raise ConfigError(f"--grid must lie in [1, {MAX_KERNEL_GRID}], got {args.grid}")
    if not 1 <= args.n_terms <= MAX_SERIES_TERMS:
        raise ConfigError(f"--n-terms must lie in [1, {MAX_SERIES_TERMS}], got {args.n_terms}")
    profile = _parse_profile(args.profile)
    z = _parse_z(args.z)
    kernel = partial(series_kernel, profile, z, n_terms=args.n_terms) \
        if args.mode == "series" else vertex_kernel_at(profile, z).value
    grid = np.linspace(-1.0, 1.0, args.grid)
    vals = kernel(grid[:, None], grid[None, :])
    rows = ((s, sp, v.real, v.imag) for s, row in zip(grid, vals) for sp, v in zip(grid, row))
    _write_csv(args.out, ["s", "s_prime", "re", "im"], rows)
    print(f"wrote {args.out} ({args.grid}x{args.grid} kernel grid)")
    return 0


def _build_config(args) -> ExperimentConfig:
    if args.command == "run":
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read --config {args.config!r}: {exc.strerror}") from exc
        return ExperimentConfig.from_json_dict(data)
    metric = args.metric
    kwargs = dict(
        profile=_parse_profile(args.profile),
        metric=metric,
        z=_parse_z(args.z),
        eps_grid=_parse_eps_grid(args.eps_grid),
        delta_rule=_parse_delta_rule(args.delta_rule),
        window_policy=args.window_policy,
    )
    if metric == "coupling":
        p1 = _parse_z(args.p1)
        p2 = _parse_z(args.p2)
        kwargs["p"] = (p1, p2)
    else:
        kwargs["n"] = args.n
        kwargs["f1"] = _parse_edge_fn(args.f1)
        kwargs["f2"] = _parse_edge_fn(args.f2)
        kwargs["p"] = None
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


def _cmd_sweep(args) -> int:
    """coupling, residual-sweep, graph-limit, and run (from its --config)."""
    out, json_path = args.out, args.out + ".json"
    _check_out(json_path)
    result = run_sweep(_build_config(args))
    result.to_csv(out)
    result.to_json(json_path)
    for col, fit in sorted(result.slopes.items()):
        print(f"{col}: slope={fit.slope:.4f} +- {fit.half_width:.4f} "
              f"(window from point {fit.window_start}, {fit.n_points} pts)")
    if result.failures:
        print(f"{len(result.failures)} point(s) failed and were excluded")
    print(f"wrote {out} and {json_path}")
    return 0


def _cmd_oracle_compare(args) -> int:
    eps = args.epsilon
    report = oracle_report(
        _parse_profile(args.profile), _parse_z(args.z), eps,
        args.delta if args.delta is not None else eps**args.delta_power,
        edge_function_from_spec(_parse_edge_fn(args.f1)),
        edge_function_from_spec(_parse_edge_fn(args.f2)),
        n=args.n, h_u=args.h_u, h_s=args.h_s, refine=args.refine)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
    print(f"mismatch={report['mismatch']:.4f} "
          f"refinement_factor={report['refinement_factor']}")
    print(f"wrote {args.out}")
    return 0


def _add_sweep_flags(sub, coupling: bool) -> None:
    sub.add_argument("--profile", default="zero")
    sub.add_argument("--z", default="0,1", help="RE,IM")
    sub.add_argument("--eps-grid", default="2^-6..2^-14")
    sub.add_argument("--delta-rule", default="power:1.5")
    sub.add_argument("--window-policy", default=DEFAULT_WINDOW_POLICY)
    sub.add_argument("--out", required=True)
    if coupling:
        sub.add_argument("--p1", default="1,0")
        sub.add_argument("--p2", default="0,0")
    else:
        sub.add_argument("--n", type=int, default=1)
        sub.add_argument("--f1", default="gaussian:3,0.5")
        sub.add_argument("--f2", default="none")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="wglimit",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("--version", action="version", version=__version__)
    subs = ap.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("spectrum", help="vertex eigenvalues to CSV")
    sp.add_argument("--profile", default="zero")
    sp.add_argument("--count", type=int, default=6)
    sp.add_argument("--tol", type=float, default=DEFAULT_ZERO_TOLERANCE)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=_cmd_spectrum)

    kp = subs.add_parser("kernel", help="vertex kernel grid to CSV")
    kp.add_argument("--profile", default="zero")
    kp.add_argument("--z", default="0,1")
    kp.add_argument("--grid", type=int, default=21)
    kp.add_argument("--mode", default="wronskian", choices=["wronskian", "series"])
    kp.add_argument("--n-terms", type=int, default=SERIES_DEFAULT_TERMS)
    kp.add_argument("--out", required=True)
    kp.set_defaults(func=_cmd_kernel)

    cp = subs.add_parser("coupling", help="coupling deviation sweep")
    _add_sweep_flags(cp, coupling=True)
    cp.set_defaults(func=_cmd_sweep, metric="coupling")

    rp = subs.add_parser("residual-sweep", help="residual norm sweep")
    _add_sweep_flags(rp, coupling=False)
    rp.set_defaults(func=_cmd_sweep, metric="residual")

    gp = subs.add_parser("graph-limit", help="graph resolvent comparison sweep")
    _add_sweep_flags(gp, coupling=False)
    gp.set_defaults(func=_cmd_sweep, metric="graph-limit")

    op = subs.add_parser("oracle-compare", help="FD oracle vs graph limit")
    op.add_argument("--profile", default="zero")
    op.add_argument("--z", default="0,1")
    op.add_argument("--epsilon", type=float, default=0.3)
    op.add_argument("--delta", type=float, default=None)
    op.add_argument("--delta-power", type=float, default=3.0)
    op.add_argument("--h-u", type=float, default=H_U)
    op.add_argument("--h-s", type=float, default=H_S,
                    help="one s-step for both edges and the vertex strip")
    op.add_argument("--n", type=int, default=1)
    op.add_argument("--f1", default="gaussian:3,0.5")
    op.add_argument("--f2", default="none")
    op.add_argument("--refine", action="store_true")
    op.add_argument("--out", required=True)
    op.set_defaults(func=_cmd_oracle_compare)

    rn = subs.add_parser("run", help="run a sweep from a JSON config")
    rn.add_argument("--config", required=True)
    rn.add_argument("--out", required=True)
    rn.set_defaults(func=_cmd_sweep)
    return ap


@cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first ``main`` call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    try:
        _check_out(args.out)
        return args.func(args)
    except VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
