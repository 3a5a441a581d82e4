"""Parameter sweeps, slope fitting, result persistence and the FD oracle report.

A sweep walks eps down a strictly decreasing grid, pairs it with a width
delta through a rule (fixed ratio delta = r*eps or power delta = eps^a),
evaluates one ``METRICS`` point function per point on a ``SweepContext``
that holds everything eps-independent (built once per sweep), and fits
log-log slopes on a stabilised window.  A coupling or graph-limit point
is one ``coupling.solve_coupling`` (the kernel at eps^2 z and the closed
form) and no more: its row is a reduction of the coefficients (q, xi, p);
only a residual point assembles the trial field, on the same solve.
Results persist as CSV (rows plus a trailing slope summary) and JSON;
both embed the fully resolved config so outputs are self-describing and
bitwise reproducible.  ``oracle_report`` is the oracle-compare report.
Sweeps and the report reject z on [0, inf), and every metric that reads
the edge data, like the report, rejects data of norm 0.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import re
from dataclasses import dataclass

import numpy as np

from . import __version__
from .coupling import (DECOUPLED, KirchhoffProjector, asymptotic_deviation, resonant_projector,
                       solve_coupling)
from .fd_oracle import H_S, H_U, TRUNCATION_TOL, WaveguideGrid, fd_resolvent, trapezoid_weights
from .graph_limit import boundary_limits, graph_q, limit_comparison, limit_resolvent
from .kernels import (ExpDecay, GaussianPulse, HalfLineResolvent, Indicator, KernelError,
                      boundary_derivatives, edge_field)
from .profile import CurvatureProfile, ProfileError, _check_ratio, json_number
from .residual import (MAX_QUADRATURE_NODES, MIN_QUADRATURE_ORDER, QUADRATURE_ORDER,
                       QUADRATURE_PANELS, ResidualQuadrature, assemble, data_norm,
                       residual_norms)
from .vertex_spectrum import (DEFAULT_ZERO_TOLERANCE, CaseLabel, IntegrationError,
                              SpectrumError, check_zero_tolerance, classify)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "FitError",
    "SCHEMA_VERSION",
    "SlopeFit",
    "SweepResult",
    "delta_for",
    "edge_function_from_spec",
    "fit_slope",
    "oracle_report",
    "run_sweep",
]

SCHEMA_VERSION = 2
MIN_FIT_POINTS = 4
DEFAULT_EPS_GRID = tuple(2.0**-k for k in range(6, 15))  # 2^-6 .. 2^-14
DEFAULT_WINDOW_POLICY = "drop:2"
POINT_ERRORS = (KernelError, IntegrationError, SpectrumError, ProfileError, OverflowError)


class ConfigError(ValueError):
    pass


class FitError(ValueError):
    pass


def _check_data_norm(norm: float) -> None:
    """Data of norm 0 give a zero field: rows of exact zeros, or a report
    relative to 0; a norm that is not finite gives rows of NaN."""
    if not 0.0 < norm < math.inf:
        raise ConfigError(f"the edge data have norm {norm}; it must be positive and finite")


def _check_z(z: complex) -> None:
    """z must be finite, with a finite modulus, and off [0, inf), where the
    edge resolvent is undefined."""
    if not cmath.isfinite(z):
        raise ConfigError(f"z = {z} is not finite")
    if math.isinf(math.hypot(z.real, z.imag)):  # where abs(z) raises OverflowError
        raise ConfigError(f"z = {z} has a modulus too large for a float")
    if z.imag == 0.0 and z.real >= 0.0:
        raise ConfigError(f"z = {z} lies on [0, inf), the spectrum of the edges")


def edge_function_from_spec(spec: dict | None):
    """Build an edge data record from its JSON descriptor, checking its values."""
    if spec is None:
        return None
    kind = spec.get("type")
    if kind == "exp":
        f = ExpDecay(rate=json_number(spec.get("rate", 1.0)))
        ok, keys = f.rate > 0.0, {"rate"}
    elif kind == "gaussian":
        f = GaussianPulse(center=json_number(spec.get("center", 3.0)),
                          width=json_number(spec.get("width", 0.5)))
        ok, keys = f.width > 0.0, {"center", "width"}
    elif kind == "indicator":
        f = Indicator(lo=json_number(spec.get("lo", 0.0)), hi=json_number(spec.get("hi", 1.0)))
        ok, keys = f.lo < f.hi, {"lo", "hi"}
    else:
        raise ConfigError(f"unknown edge function spec {spec!r}")
    if unknown := sorted(set(spec) - keys - {"type"}):
        raise ConfigError(f"edge function {spec!r} has unknown keys {unknown}")
    if not (ok and all(math.isfinite(v) for v in vars(f).values())):
        raise ConfigError(f"edge function {spec!r} needs finite values, "
                          "rate > 0, width > 0 and lo < hi")
    return f


# Optional JSON keys and their value conversions; a missing key takes the default.
_OPTIONAL_KEYS = (("metric", None), ("n", None), ("f1", None), ("f2", None),
                  ("quadrature_panels", tuple), ("quadrature_order", None),
                  ("zero_tolerance", json_number), ("window_policy", None))
# Every key a config may hold; ``seed``, which older configs carry, is ignored.
_CONFIG_KEYS = {"schema_version", "seed", "profile", "z", "eps_grid", "delta_rule", "p",
                *(key for key, _ in _OPTIONAL_KEYS)}


def _is_int(value) -> bool:
    """A plain integer: JSON's 1.7 and true are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _pair(value):
    """A JSON list of exactly two entries; a longer one is not cut short."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{value!r} is not a list of two entries")
    return value


def csv_cell(value):
    """A CSV cell; floats, numpy's included, as repr(float), which float() reads."""
    return repr(float(value)) if isinstance(value, float) else value


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved sweep description; serialises losslessly to JSON."""

    profile: CurvatureProfile
    metric: str = "coupling"
    z: complex = 1j
    n: int = 1
    eps_grid: tuple[float, ...] = DEFAULT_EPS_GRID
    delta_rule: tuple[str, float] = ("power", 1.5)
    p: tuple[complex, complex] | None = (1.0 + 0j, 0.0 + 0j)
    f1: dict | None = None
    f2: dict | None = None
    quadrature_panels: tuple[int, int] = QUADRATURE_PANELS
    quadrature_order: int = QUADRATURE_ORDER
    zero_tolerance: float = DEFAULT_ZERO_TOLERANCE
    window_policy: str = DEFAULT_WINDOW_POLICY

    def validate(self) -> None:
        if self.metric not in METRICS:
            raise ConfigError(f"unknown metric {self.metric!r}")
        _check_z(self.z)
        if self.p is not None:
            if not all(cmath.isfinite(c) for c in self.p):
                raise ConfigError(f"p = {self.p} is not finite")
            if math.isinf(math.hypot(*(x for c in self.p for x in (c.real, c.imag)))):
                raise ConfigError(f"p = {self.p} has a 2-norm too large for a float")
        if not self.eps_grid:
            raise ConfigError("eps_grid must be nonempty")
        eps = np.asarray(self.eps_grid, dtype=float)
        if not np.all((eps > 0) & (eps <= 1)):
            raise ConfigError("eps values must lie in (0, 1]")
        if np.any(np.diff(eps) >= 0):
            raise ConfigError("eps_grid must be strictly decreasing")
        kind, value = self.delta_rule
        if not math.isfinite(value):
            raise ConfigError(f"delta rule value {value} is not finite")
        if kind == "power":
            if value < 1.0:
                raise ConfigError("power rule needs exponent >= 1 (delta <= eps)")
        elif kind == "ratio":
            if not 0.0 < value <= 1.0:
                raise ConfigError("ratio rule needs 0 < r <= 1")
        else:
            raise ConfigError(f"unknown delta rule {kind!r}")
        if self.metric != "coupling":  # the coupling metric reads no delta
            zero = [e for e in self.eps_grid if not delta_for(self.delta_rule, e) > 0.0]
            if zero:
                raise ConfigError(f"delta rule {kind}:{value} underflows to delta = 0 at "
                                  f"eps = {zero[0]:.6g}; metric {self.metric!r} needs delta > 0")
        if self.f1 is None and self.f2 is None and (self.metric != "coupling" or self.p is None):
            raise ConfigError(f"metric {self.metric!r} needs edge data f1/f2 (or, for coupling, p)")
        for spec in (self.f1, self.f2):
            edge_function_from_spec(spec)
        if not _is_int(self.n) or self.n < 1:
            raise ConfigError(f"transverse index n must be an integer >= 1, got {self.n!r}")
        if self.n != 1 and self.metric != "residual":  # their rows do not depend on n
            raise ConfigError(f"metric {self.metric!r} reads no transverse mode; "
                              f"n must be 1, got {self.n}")
        if not _is_int(self.quadrature_order) or self.quadrature_order < MIN_QUADRATURE_ORDER:
            raise ConfigError(f"quadrature order must be an integer >= {MIN_QUADRATURE_ORDER}, "
                              f"got {self.quadrature_order!r}")
        panels = self.quadrature_panels
        if len(panels) != 2 or not all(_is_int(k) and k >= 1 for k in panels):
            raise ConfigError(f"quadrature_panels {panels!r} must be two positive integers")
        nodes = panels[0] * panels[1] * self.quadrature_order**2
        if nodes > MAX_QUADRATURE_NODES:
            raise ConfigError(f"quadrature of {nodes} nodes exceeds {MAX_QUADRATURE_NODES}")
        _drop_count(self.window_policy)
        check_zero_tolerance(self.zero_tolerance, ConfigError)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "profile": self.profile.to_json_fragment(),
            "metric": self.metric,
            "z": [self.z.real, self.z.imag],
            "n": self.n,
            "eps_grid": list(self.eps_grid),
            "delta_rule": [self.delta_rule[0], self.delta_rule[1]],
            "p": None if self.p is None else [[c.real, c.imag] for c in self.p],
            "f1": self.f1,
            "f2": self.f2,
            "quadrature_panels": list(self.quadrature_panels),
            "quadrature_order": self.quadrature_order,
            "zero_tolerance": self.zero_tolerance,
            "window_policy": self.window_policy,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "ExperimentConfig":
        try:
            if unknown := sorted(set(d) - _CONFIG_KEYS):
                raise ConfigError(f"unknown keys {unknown}")
            profile = CurvatureProfile.from_json_fragment(d["profile"])
            z = complex(*map(json_number, _pair(d["z"])))
            p = d.get("p")  # a missing p means: take p from the edge data
            if p is not None:
                p = tuple(complex(*map(json_number, _pair(c))) for c in _pair(p))
            kind, value = _pair(d["delta_rule"])
            optional = {key: d[key] if convert is None else convert(d[key])
                        for key, convert in _OPTIONAL_KEYS if key in d}
            cfg = ExperimentConfig(
                profile=profile,
                z=z,
                eps_grid=tuple(map(json_number, d["eps_grid"])),
                delta_rule=(kind, json_number(value)),
                p=p,
                **optional,
            )
            cfg.validate()  # inside: a malformed edge-data spec fails here
        except (AttributeError, IndexError, KeyError, TypeError, ValueError, ProfileError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        return cfg


def delta_for(rule: tuple[str, float], eps: float) -> float:
    kind, value = rule
    if kind == "power":
        return eps**value
    if kind == "ratio":
        return value * eps
    raise ConfigError(f"unknown delta rule {kind!r}")


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    half_width: float
    window_start: int
    n_points: int


def _ols(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    n = len(x)
    xm = x - x.mean()
    sxx = float(np.sum(xm * xm))
    slope = float(np.sum(xm * y) / sxx)
    icept = float(y.mean() - slope * x.mean())
    r = y - (icept + slope * x)
    se = math.sqrt(float(np.sum(r * r)) / max(n - 2, 1) / sxx)
    return slope, 2.0 * se


def _drop_count(window_policy) -> int | None:
    """K of a ``drop:K`` window policy, None for ``stabilize``, else a ConfigError."""
    if window_policy == "stabilize":
        return None
    match = isinstance(window_policy, str) and re.fullmatch("drop:([0-9]+)", window_policy)
    if not match:
        raise ConfigError(f"window policy {window_policy!r} is neither 'stabilize' "
                          "nor 'drop:K' with an integer K >= 0")
    return int(match.group(1))


def fit_slope(eps, values, window_policy: str = DEFAULT_WINDOW_POLICY) -> SlopeFit:
    """Log-log OLS slope of values against eps on a stabilised window.

    Rows must be ordered by decreasing eps.  Policy ``drop:k`` discards
    the k largest-eps points; ``stabilize`` drops leading points until
    the slope moves by less than 0.02 between successive windows.
    """
    drop = _drop_count(window_policy)
    eps = np.asarray(eps, dtype=float)
    values = np.asarray(values, dtype=float)
    good = np.isfinite(values) & (values > 0.0) & np.isfinite(eps)
    eps, values = eps[good], values[good]
    if len(eps) < MIN_FIT_POINTS:
        raise FitError(f"need at least {MIN_FIT_POINTS} usable points, have {len(eps)}")
    x = np.log(eps)
    y = np.log(values)
    if drop is not None:
        if len(x) - drop < MIN_FIT_POINTS:
            raise FitError("window policy drops too many points")
        slope, hw = _ols(x[drop:], y[drop:])
        return SlopeFit(slope, hw, drop, len(x) - drop)
    prev = None
    best = None
    for k in range(0, len(x) - MIN_FIT_POINTS + 1):
        slope, hw = _ols(x[k:], y[k:])
        if prev is not None and abs(prev[0] - slope) < 0.02:
            return SlopeFit(prev[0], prev[1], k - 1, len(x) - (k - 1))
        prev = (slope, hw)
        best = SlopeFit(slope, hw, k, len(x) - k)
    return best


@dataclass(frozen=True)
class SweepContext:
    """The eps-independent data of a sweep, built once per sweep."""

    config: ExperimentConfig
    case: CaseLabel
    f1: object
    f2: object
    p: np.ndarray
    projector: KirchhoffProjector = DECOUPLED  # resonant_projector for a resonant coupling sweep
    residual: ResidualQuadrature | None = None  # residual metric

    @staticmethod
    def build(config: ExperimentConfig) -> "SweepContext":
        f1 = edge_function_from_spec(config.f1)
        f2 = edge_function_from_spec(config.f2)
        case = classify(config.profile, config.zero_tolerance)
        if config.metric == "coupling" and config.p is not None:
            p = np.asarray(config.p, dtype=complex)
        else:
            p = boundary_derivatives(HalfLineResolvent(config.z), f1, f2)
        projector = DECOUPLED
        if config.metric == "coupling" and case.resonant:
            # depends on (profile, tolerance) only, so one per sweep is exact
            projector = resonant_projector(config.profile, config.zero_tolerance)
        residual = None
        if config.metric == "residual":
            # no point is admissible if the smallest delta/eps breaks the profile's bound
            _check_ratio(config.profile, min(delta_for(config.delta_rule, eps) / eps
                                             for eps in config.eps_grid))
            residual = ResidualQuadrature.build(config.profile, config.n, f1, f2, case,
                                                config.quadrature_order,
                                                config.quadrature_panels)
        if config.metric != "coupling" or config.p is None:  # the metric reads f1, f2
            _check_data_norm(data_norm(f1, f2) if residual is None else residual.data_norm)
        return SweepContext(config, case, f1, f2, p, projector, residual)


def _coupling_point(ctx: SweepContext, eps: float, delta: float) -> dict:
    coeffs = solve_coupling(ctx.config.profile, ctx.config.z, eps, ctx.p, ctx.case)
    with np.errstate(over="ignore", invalid="ignore"):
        dev = asymptotic_deviation(coeffs, ctx.projector)
    row = {"dev_q": dev.dev_q, "dev_xi": dev.dev_xi}
    if not (np.isfinite(coeffs.xi).all() and all(map(math.isfinite, row.values()))):
        raise OverflowError(f"the coupling solve at eps = {eps:.6g} overflowed: "
                            "xi or the deviations are not finite")
    return row


def _residual_point(ctx: SweepContext, eps: float, delta: float) -> dict:
    cfg = ctx.config
    sol = assemble(cfg.profile, cfg.n, cfg.z, eps, delta, ctx.f1, ctx.f2,
                   p=ctx.p, case=ctx.case)
    rep = residual_norms(sol, cfg.quadrature_order, cfg.quadrature_panels,
                         table=ctx.residual)
    bound = rep.bound_case2 if ctx.case.resonant else rep.bound_case1
    return {
        "residual_Hnorm": rep.residual_Hnorm,
        "residual_l2_V": rep.residual_l2_V,
        "xi_norm": rep.xi_norms[0] + rep.xi_norms[1],
        "data_norm": rep.data_norm,
        "bound_ratio": rep.residual_l2_V / bound if bound > 0 else float("nan"),
    }


def _graph_limit_point(ctx: SweepContext, eps: float, delta: float) -> dict:
    coeffs = solve_coupling(ctx.config.profile, ctx.config.z, eps, ctx.p, ctx.case)
    row = {"comparison_norm": limit_comparison(coeffs)}
    lims = boundary_limits(coeffs)
    if ctx.case.resonant:
        row.update(lims)  # kirchhoff_value_defect, kirchhoff_flux_defect
    else:
        row["value_defect_1"], row["value_defect_2"] = lims["value_defects"]
        row["deriv_defect_1"], row["deriv_defect_2"] = lims["derivative_defects"]
    return row


METRICS = {
    "coupling": _coupling_point,
    "residual": _residual_point,
    "graph-limit": _graph_limit_point,
}


@dataclass(frozen=True)
class SweepResult:
    config: ExperimentConfig
    rows: tuple[dict, ...]
    slopes: dict
    failures: tuple[dict, ...]

    def columns(self) -> list[str]:
        cols: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def to_csv(self, path) -> None:
        cols = self.columns()
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# wglimit sweep schema_version={SCHEMA_VERSION} "
                     f"version={__version__}\n")
            fh.write("# config: " + json.dumps(self.config.to_json_dict(),
                                               sort_keys=True) + "\n")
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in self.rows:
                writer.writerow([csv_cell(row.get(c, "")) for c in cols])
            for label, attr in (("slope", "slope"), ("slope_half_width", "half_width")):
                writer.writerow([label] + [
                    csv_cell(getattr(self.slopes[c], attr)) if c in self.slopes else ""
                    for c in cols[1:]])

    def to_json(self, path) -> None:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "version": __version__,
            "config": self.config.to_json_dict(),
            "rows": list(self.rows),
            "slopes": {
                k: {"slope": v.slope, "half_width": v.half_width,
                    "window_start": v.window_start, "n_points": v.n_points}
                for k, v in self.slopes.items()
            },
            "failures": list(self.failures),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)


def run_sweep(config: ExperimentConfig) -> SweepResult:
    """Evaluate the configured metric over the eps grid and fit slopes.

    Per-point numerical failures are recorded and excluded from the fit;
    they do not abort the sweep.
    """
    config.validate()
    ctx = SweepContext.build(config)
    rows: list[dict] = []
    failures: list[dict] = []
    for eps in config.eps_grid:
        delta = delta_for(config.delta_rule, eps)
        try:
            row = METRICS[config.metric](ctx, eps, delta)
        except POINT_ERRORS as exc:
            failures.append({"epsilon": eps, "error": str(exc)})
            continue
        rows.append({"epsilon": eps, "delta": delta, **row})
    slopes: dict = {}
    if rows:
        eps_arr = np.array([r["epsilon"] for r in rows])
        for col in rows[0]:
            if col in ("epsilon", "delta"):
                continue
            vals = np.array([r.get(col, float("nan")) for r in rows], dtype=float)
            try:
                slopes[col] = fit_slope(eps_arr, vals, config.window_policy)
            except FitError:
                continue
    return SweepResult(config, tuple(rows), slopes, tuple(failures))


def oracle_report(profile: CurvatureProfile, z: complex, epsilon: float,
                  delta: float, f1, f2, n: int = 1, h_u: float = H_U,
                  h_s: float = H_S, refine: bool = False) -> dict:
    """The oracle-compare report at one (eps, delta).

    The FD solution's edge projections are compared, in the trapezoid L2
    norm over both edges, with the limit resolvent (``mismatch``, relative
    to the data norm) and the trial field (``hat_vs_discrete``); ``refine``
    halves the s-step once for the trial-field ``refinement_factor``.
    """
    z = complex(z)
    _check_z(z)
    if f1 is None and f2 is None:
        raise ConfigError("the oracle report needs edge data f1/f2")
    grid = WaveguideGrid.build(epsilon, delta, z, h_u=h_u, h_s=h_s)
    fine_grid = grid.refined() if refine else None  # bounded before any solve
    if n > grid.n_u:
        # sampled on the u-nodes, chi_n vanishes (n = n_u + 1) or aliases
        raise ConfigError(f"transverse index n = {n} exceeds the {grid.n_u} modes "
                          f"of the u-grid with h_u = {grid.h_u}")
    # a mode k < n with kappa_k^2 > 0 propagates along the edges (an open channel);
    # past h_s^2 kappa_k^2 = 4 the 3-point s-stencil has no wave for it, only a sawtooth
    kappa_sq = -grid.mode_gaps(n)[: n - 1] / delta**2 + z.real
    if n > 1 and (ratio := grid.h_s**2 * kappa_sq.max()) > 4.0:
        raise ConfigError(
            f"transverse index n = {n}: the open channel k = {int(kappa_sq.argmax()) + 1} has "
            f"h_s^2 ((lambda_n - lambda_k)/delta^2 + Re z) = {ratio:.4g} > 4 at h_s = {grid.h_s}, "
            f"where the 3-point s-stencil carries no wave; h_s <= "
            f"{2.0 / math.sqrt(kappa_sq.max()):.4g} passes")
    fnorm = data_norm(f1, f2)
    _check_data_norm(fnorm)
    sol = assemble(profile, n, z, epsilon, delta, f1, f2)
    # the limit's and the trial field's edge values before any solve, on one r0 f per
    # edge (both read r0(z) and the same data): their half-line panel bound is checked here
    r0, q_limit = sol.resolvent0, graph_q(limit_resolvent(sol.case, z), sol.coeffs.p)
    limit, trial = zip(*(edge_field(r0, f, (q_limit[e], sol.coeffs.q[e]), grid.edge_s)
                         for e, f in enumerate((f1, f2))))
    fd = fd_resolvent(grid, profile, n, z, f1, f2)

    def edge_l2_sq(fd_sol, values) -> float:
        """Squared distance of the FD edge projections from values per edge."""
        w = trapezoid_weights(len(fd_sol.grid.edge_s), fd_sol.grid.h_s)
        return sum(float(np.sum(w * np.abs(fd_sol.edge_projection(e) - v) ** 2))
                   for e, v in zip((1, 2), values))

    mismatch_sq = edge_l2_sq(fd, limit)
    hat_sq = edge_l2_sq(fd, trial)
    report = {
        "schema_version": 1,
        "grid": {
            "h_u": grid.h_u, "h_s": grid.h_s, "s_max": grid.s_max,
            "unknowns": grid.n_unknowns,
        },
        "tolerances": {"solve_residual": fd.solve_residual,
                       "truncation": TRUNCATION_TOL},
        "norms": {"data": fnorm, "fd_energy": fd.energy_norm},
        "mismatch": float(np.sqrt(mismatch_sq)) / fnorm,
        "hat_vs_discrete": float(np.sqrt(hat_sq)),
        "case": "2" if sol.case.resonant else "1",
        "refinement_factor": None,
    }
    if refine:
        fine = fd_resolvent(fine_grid, profile, n, z, f1, f2)
        fine_trial = [sol.edge_profile(e, fine_grid.edge_s) for e in (1, 2)]
        report["refinement_factor"] = float(np.sqrt(hat_sq / edge_l2_sq(fine, fine_trial)))
    return report
