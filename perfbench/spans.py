"""Spans and counts around the public functions of each wglimit layer.

``install(tracer)`` replaces each traced function by a wrapper at every
``wglimit`` module that binds it (third-party callables such as
``solve_ivp`` only where the named module binds them), so calls made
through re-exports and ``from ... import`` bindings are all seen.  Spans
are kept in memory as (key, start, end, parent) and reduced to per-layer
metrics by ``Tracer.metrics()`` after the run.  Hot callables inside the
integrator right-hand side are counted, never timed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("profile", "vertex_spectrum", "kernels", "coupling", "residual",
          "graph_limit", "fd_oracle", "experiments", "cli")

# Per-layer metrics reported by a traced run: name -> (unit, better).
PER_LAYER = {
    "profile.gamma_calls": ("count", "lower"),
    "profile.geometry_s": ("s", "lower"),
    "profile.tune_calls": ("count", "lower"),
    "profile.tune_s": ("s", "lower"),
    "vertex_spectrum.ivp_calls": ("count", "lower"),
    "vertex_spectrum.ivp_nfev": ("count", "lower"),
    "vertex_spectrum.ivp_s": ("s", "lower"),
    "vertex_spectrum.eigen_calls": ("count", "lower"),
    "vertex_spectrum.eigen_s": ("s", "lower"),
    "vertex_spectrum.classify_calls": ("count", "lower"),
    "vertex_spectrum.shoot_calls": ("count", "lower"),
    "vertex_spectrum.shoot_s": ("s", "lower"),
    "vertex_spectrum.ivp_per_eigenvalue": ("count", "lower"),
    "kernels.kernel_calls": ("count", "lower"),
    "kernels.kernel_s": ("s", "lower"),
    "kernels.quad_calls": ("count", "lower"),
    "kernels.quad_s": ("s", "lower"),
    "kernels.grid_apply_s": ("s", "lower"),
    "coupling.solve_calls": ("count", "lower"),
    "coupling.solve_s": ("s", "lower"),
    "coupling.projector_calls": ("count", "lower"),
    "coupling.projector_s": ("s", "lower"),
    "coupling.deviation_s": ("s", "lower"),
    "residual.assemble_calls": ("count", "lower"),
    "residual.assemble_s": ("s", "lower"),
    "residual.norms_calls": ("count", "lower"),
    "residual.norms_s": ("s", "lower"),
    "residual.quad_nodes": ("count", "lower"),
    "residual.data_norm_calls": ("count", "lower"),
    "residual.data_norm_s": ("s", "lower"),
    "graph_limit.calls": ("count", "lower"),
    "graph_limit.s": ("s", "lower"),
    "fd_oracle.solves": ("count", "lower"),
    "fd_oracle.unknowns": ("count", "lower"),
    "fd_oracle.resolvent_s": ("s", "lower"),
    "fd_oracle.factor_s": ("s", "lower"),
    "fd_oracle.lu_nnz": ("count", "lower"),
    "fd_oracle.lu_bytes": ("bytes", "lower"),
    "experiments.sweeps": ("count", "lower"),
    "experiments.points": ("count", "lower"),
    "experiments.failed_points": ("count", "lower"),
    "experiments.sweep_s": ("s", "lower"),
    "experiments.fit_s": ("s", "lower"),
    "experiments.persist_s": ("s", "lower"),
    "cli.commands": ("count", "lower"),
    "cli.failed_commands": ("count", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Metric name -> span key whose outermost spans give the time and calls.
_SPAN_TIMES = {
    "profile.geometry_s": "profile.geometry",
    "profile.tune_s": "profile.tune",
    "vertex_spectrum.ivp_s": "vertex_spectrum.ivp",
    "vertex_spectrum.eigen_s": "vertex_spectrum.eigen",
    "vertex_spectrum.shoot_s": "vertex_spectrum.shoot",
    "kernels.kernel_s": "kernels.kernel",
    "kernels.quad_s": "kernels.quad",
    "kernels.grid_apply_s": "kernels.grid_apply",
    "coupling.solve_s": "coupling.solve",
    "coupling.projector_s": "coupling.projector",
    "coupling.deviation_s": "coupling.deviation",
    "residual.assemble_s": "residual.assemble",
    "residual.norms_s": "residual.norms",
    "residual.data_norm_s": "residual.data_norm",
    "graph_limit.s": "graph_limit.call",
    "fd_oracle.resolvent_s": "fd_oracle.resolvent",
    "fd_oracle.factor_s": "fd_oracle.factor",
    "experiments.sweep_s": "experiments.sweep",
    "experiments.fit_s": "experiments.fit",
    "experiments.persist_s": "experiments.persist",
}
_CALLS = {
    "profile.gamma_calls": "profile.gamma",
    "profile.tune_calls": "profile.tune",
    "vertex_spectrum.ivp_calls": "vertex_spectrum.ivp",
    "vertex_spectrum.eigen_calls": "vertex_spectrum.eigen",
    "vertex_spectrum.classify_calls": "vertex_spectrum.classify",
    "vertex_spectrum.shoot_calls": "vertex_spectrum.shoot",
    "kernels.kernel_calls": "kernels.kernel",
    "kernels.quad_calls": "kernels.quad",
    "coupling.solve_calls": "coupling.solve",
    "coupling.projector_calls": "coupling.projector",
    "residual.assemble_calls": "residual.assemble",
    "residual.norms_calls": "residual.norms",
    "residual.data_norm_calls": "residual.data_norm",
    "graph_limit.calls": "graph_limit.call",
    "fd_oracle.solves": "fd_oracle.resolvent",
    "experiments.sweeps": "experiments.sweep",
    "cli.commands": "cli.main",
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [key, start, end, parent, eigenvalues]
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.sums: defaultdict = defaultdict(float)
        self.maxima: defaultdict = defaultdict(float)

    def enter(self, key: str) -> int:
        self.calls[key] += 1
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([key, time.perf_counter(), None, parent, 0])
        self.stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def leave(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _own_times(self) -> list[float]:
        """Each span's self time: its duration minus its direct children's."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self) -> dict:
        """Per-layer metrics (every name in PER_LAYER except ``trace.*``)."""
        out = {name: 0.0 for name in PER_LAYER if not name.startswith("trace.")}
        outermost_time: defaultdict = defaultdict(float)
        ivp_in_eigen = [0] * len(self.spans)
        for key, start, end, parent, _ in self.spans:
            nested = False  # inside another span with the same key
            eigen = None  # outermost enclosing eigen span
            j = parent
            while j >= 0:
                nested = nested or self.spans[j][0] == key
                if self.spans[j][0] == "vertex_spectrum.eigen":
                    eigen = j
                j = self.spans[j][3]
            if not nested:
                outermost_time[key] += end - start
            if key == "vertex_spectrum.ivp" and eigen is not None:
                ivp_in_eigen[eigen] += 1
        for name, key in _SPAN_TIMES.items():
            out[name] = outermost_time[key]
        for name, key in _CALLS.items():
            out[name] = float(self.calls[key])
        for layer, seconds in self.self_times()[0].items():
            out[f"{layer}.self_s"] = seconds
        # Solver work per eigenvalue actually computed (cache hits excluded).
        computed = [i for i, n in enumerate(ivp_in_eigen) if n > 0]
        n_eig = sum(self.spans[i][4] for i in computed)
        out["vertex_spectrum.ivp_per_eigenvalue"] = (
            sum(ivp_in_eigen[i] for i in computed) / n_eig if n_eig else 0.0)
        out.update(self.sums)
        out.update(self.maxima)
        return out

    def self_times(self) -> tuple[dict, dict]:
        """Self time summed by layer and by span key."""
        by_layer: defaultdict = defaultdict(float)
        by_key: defaultdict = defaultdict(float)
        for span, own in zip(self.spans, self._own_times()):
            by_key[span[0]] += own
            by_layer[span[0].split(".", 1)[0]] += own
        return dict(by_layer), dict(by_key)


# --- post-call hooks: (tracer, span index, bound arguments, result) ---------

def _ivp_nfev(tr, i, args, result):
    tr.sums["vertex_spectrum.ivp_nfev"] += result.nfev


def _eigen_count(tr, i, args, result):
    tr.spans[i][4] = len(result.eigenvalues) if hasattr(result, "eigenvalues") else 1


def _quad_nodes(tr, i, args, result):
    order = args["quadrature_order"]
    panels = args["panels"]
    tr.sums["residual.quad_nodes"] += panels[0] * order * panels[1] * order


def _unknowns(tr, i, args, result):
    tr.sums["fd_oracle.unknowns"] += args["grid"].n_unknowns


def _lu_fill(tr, i, args, result):
    # SuperLU.nnz is the stored fill of L and U; bytes assume one value
    # (the matrix dtype) and one int32 row index per stored entry.
    nnz = int(result.nnz)
    tr.maxima["fd_oracle.lu_nnz"] = max(tr.maxima["fd_oracle.lu_nnz"], nnz)
    lu_bytes = nnz * (args["A"].dtype.itemsize + 4)
    tr.maxima["fd_oracle.lu_bytes"] = max(tr.maxima["fd_oracle.lu_bytes"], lu_bytes)


def _sweep_points(tr, i, args, result):
    tr.sums["experiments.points"] += len(args["config"].eps_grid)
    tr.sums["experiments.failed_points"] += len(result.failures)


def _cli_status(tr, i, args, result):
    tr.sums["cli.failed_commands"] += 1 if result != 0 else 0


# (module, attribute path, span key, post hook)
TARGETS = (
    ("wglimit.profile", "tune_to_resonance", "profile.tune", None),
    ("wglimit.profile", "geometry_fields", "profile.geometry", None),
    ("wglimit.profile", "geometry_residual_fields", "profile.geometry", None),
    ("wglimit.profile", "eval_geometry", "profile.geometry", None),
    ("wglimit.vertex_spectrum", "solve_ivp", "vertex_spectrum.ivp", _ivp_nfev),
    ("wglimit.vertex_spectrum", "eigenvalues", "vertex_spectrum.eigen", _eigen_count),
    ("wglimit.vertex_spectrum", "eigenvalue_by_index", "vertex_spectrum.eigen",
     _eigen_count),
    ("wglimit.vertex_spectrum", "classify", "vertex_spectrum.classify", None),
    ("wglimit.vertex_spectrum", "classify_case", "vertex_spectrum.classify", None),
    ("wglimit.vertex_spectrum", "spectrum_for_case", "vertex_spectrum.classify", None),
    ("wglimit.vertex_spectrum", "shoot", "vertex_spectrum.shoot", None),
    ("wglimit.kernels", "vertex_kernel_at", "kernels.kernel", None),
    ("wglimit.kernels", "quad", "kernels.quad", None),
    ("wglimit.kernels", "half_line_apply", "kernels.half_line", None),
    ("wglimit.kernels", "boundary_derivative", "kernels.half_line", None),
    ("wglimit.kernels", "half_line_apply_grid", "kernels.grid_apply", None),
    ("wglimit.coupling", "solve_coupling", "coupling.solve", None),
    ("wglimit.coupling", "solve_coupling_from_kernel", "coupling.solve", None),
    ("wglimit.coupling", "resonant_projector", "coupling.projector", None),
    ("wglimit.coupling", "kirchhoff_projector", "coupling.kirchhoff", None),
    ("wglimit.coupling", "asymptotic_deviation", "coupling.deviation", None),
    ("wglimit.residual", "assemble", "residual.assemble", None),
    ("wglimit.residual", "residual_norms", "residual.norms", _quad_nodes),
    ("wglimit.residual", "data_norm", "residual.data_norm", None),
    *(("wglimit.graph_limit", name, "graph_limit.call", None)
      for name in ("decoupled_resolvent", "kirchhoff_resolvent", "graph_q",
                   "apply_resolvent", "apply_resolvent_grid", "limit_comparison",
                   "boundary_limits", "pi_theta_projector")),
    ("wglimit.fd_oracle", "fd_resolvent", "fd_oracle.resolvent", _unknowns),
    ("wglimit.fd_oracle", "spla.splu", "fd_oracle.factor", _lu_fill),
    ("wglimit.experiments", "run_sweep", "experiments.sweep", _sweep_points),
    ("wglimit.experiments", "fit_slope", "experiments.fit", None),
    ("wglimit.experiments", "SweepResult.to_csv", "experiments.persist", None),
    ("wglimit.experiments", "SweepResult.to_json", "experiments.persist", None),
    ("wglimit.cli", "main", "cli.main", _cli_status),
)
# Called inside the solve_ivp right-hand side: counted only.  Every
# gamma evaluation (eval_gamma included) goes through this method.
COUNTED = (
    ("wglimit.profile", "CurvatureProfile.gamma", "profile.gamma"),
)


def _span_wrapper(tracer: Tracer, key: str, fn, post):
    signature = inspect.signature(fn) if post is not None else None

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        i = tracer.enter(key)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(i)
        if post is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            post(tracer, i, bound.arguments, result)
        return result

    return wrapped


def _count_wrapper(tracer: Tracer, key: str, fn):
    calls = tracer.calls

    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)

    return wrapped


def _rebind(module, path: str, make) -> None:
    """Replace ``module.path`` by ``make(original)``.

    A ``wglimit`` function is replaced at every loaded ``wglimit`` module
    that binds it; a class attribute on its class; anything else (scipy
    callables) only in ``module``.  A dotted path through a module
    object (``spla.splu``) swaps in a copy of that module so the original
    stays untouched for other importers.
    """
    head, _, attr = path.rpartition(".")
    owner = module
    if head:
        owner = getattr(module, head)
        if isinstance(owner, types.ModuleType):
            proxy = types.ModuleType(owner.__name__)
            proxy.__dict__.update(owner.__dict__)
            setattr(module, head, proxy)
            owner = proxy
    original = getattr(owner, attr)
    wrapped = make(original)
    if isinstance(owner, type) or owner is not module:
        setattr(owner, attr, wrapped)
        return
    if not getattr(original, "__module__", "").startswith("wglimit"):
        setattr(module, attr, wrapped)
        return
    for name, mod in list(sys.modules.items()):
        if name == "wglimit" or name.startswith("wglimit."):
            for bound_name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, bound_name, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every traced callable; call once, after importing wglimit.cli."""
    for module_name, path, key, post in TARGETS:
        module = importlib.import_module(module_name)
        _rebind(module, path, lambda fn, k=key, p=post: _span_wrapper(tracer, k, fn, p))
    for module_name, path, key in COUNTED:
        module = importlib.import_module(module_name)
        _rebind(module, path, lambda fn, k=key: _count_wrapper(tracer, k, fn))
