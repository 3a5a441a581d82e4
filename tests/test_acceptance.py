"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -s``).

All tolerances are fixed here, not calibrated at runtime; sweeps use the
deterministic default grids.  The heavyweight finite-difference
comparison (criterion 5) runs at desk scale and dominates the runtime.
"""

from __future__ import annotations

import time

import numpy as np

from wglimit import (
    ExperimentConfig,
    GaussianPulse,
    assemble,
    check_potential_identity,
    eigenvalues,
    fd_vertex_eigen,
    kirchhoff_projector,
    neumann_free_kernel,
    oracle_report,
    pi_theta_projector,
    residual_norms,
    resonant_projector,
    run_sweep,
    shoot,
    solve_coupling,
    vertex_kernel_at,
)
from wglimit.coupling import asymptotic_deviation
from wglimit.kernels import series_kernel
from wglimit.vertex_spectrum import wronskian_values

from conftest import log_slope

Z = 1j
NEUMANN = np.array([0.0, np.pi**2 / 4, np.pi**2, 9 * np.pi**2 / 4])


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"[PASS] {self.name} ({self.elapsed:.1f}s / budget {self.seconds:.0f}s)")
        else:
            print(f"[FAIL] {self.name} ({self.elapsed:.1f}s)")
        return False


def test_criterion_1_flat_profile_closed_forms(zero_profile):
    with _Budget("criterion 1: flat-profile closed-form suite", 5.0) as budget:
        spec = eigenvalues(zero_profile, 4, 1e-9)
        assert np.max(np.abs(spec.eigenvalues - NEUMANN)) <= 1e-9

        kernel = vertex_kernel_at(zero_profile, Z)
        grid = np.linspace(-1.0, 1.0, 21)
        err = max(abs(kernel.value(s, sp) - neumann_free_kernel(Z, s, sp))
                  for s in grid for sp in grid)
        assert err <= 1e-8

        proj = kirchhoff_projector(spec.case.alpha1, spec.case.alpha2)
        assert np.max(np.abs(proj.lambda0 - 0.5)) <= 1e-8

        sol = assemble(zero_profile, 1, Z, 0.1, 0.01,
                       GaussianPulse(center=3.0, width=0.5), None)
        assert residual_norms(sol).residual_Hnorm <= 1e-10
    assert budget.elapsed < 5.0


def test_criterion_2_kernel_dual_representation(bump05, tuned2, rng):
    with _Budget("criterion 2: Wronskian vs eigenfunction-series kernel", 10.0) as budget:
        z = 1 + 1j
        for profile in (bump05, tuned2):
            kw = vertex_kernel_at(profile, z)
            for s, sp in rng.uniform(-1, 1, size=(10, 2)):
                assert abs(kw.value(s, sp) - series_kernel(profile, z, s, sp, n_terms=200)) <= 1e-6
    assert budget.elapsed < 10.0


def test_criterion_3_coupling_asymptotics(zero_profile, bump05, tuned2):
    with _Budget("criterion 3: coupling coefficient rates", 30.0) as budget:
        eps = [2.0**-k for k in range(6, 15)]
        p = np.array([1.0, 0.0], dtype=complex)

        for profile in (zero_profile, tuned2):
            proj = resonant_projector(profile)
            dq, dxi = [], []
            for e in eps:
                dev = asymptotic_deviation(solve_coupling(profile, Z, e, p), proj)
                dq.append(dev.dev_q)
                dxi.append(dev.dev_xi)
            assert abs(log_slope(eps[2:], dq[2:]) - 1.0) <= 0.15
            assert abs(log_slope(eps[2:], dxi[2:]) - 2.0) <= 0.2

        qn = [float(np.linalg.norm(solve_coupling(bump05, Z, e, p).q)) for e in eps]
        assert abs(log_slope(eps[2:], qn[2:]) - 1.0) <= 0.15
    assert budget.elapsed < 30.0


def test_criterion_4_residual_rate_shapes(bump05, tuned2):
    with _Budget("criterion 4: residual norm rate shapes", 120.0) as budget:
        from wglimit.kernels import ExpDecay

        # fixed eps, delta-sweep
        deltas = [0.2 * 2.0**-k for k in range(3, 9)]
        vals = [residual_norms(assemble(bump05, 1, Z, 0.2, d, ExpDecay(), None)).residual_Hnorm
                for d in deltas]
        assert abs(log_slope(deltas, vals) - 1.0) <= 0.1

        cfg = ExperimentConfig(profile=bump05, metric="residual", z=Z,
                               eps_grid=tuple(2.0**-k for k in range(3, 13)),
                               delta_rule=("ratio", 0.1),
                               f1={"type": "exp", "rate": 1.0}, p=None,
                               window_policy="stabilize")
        fit = run_sweep(cfg).slopes["residual_Hnorm"]
        assert abs(fit.slope - (-0.5)) <= 0.15

        ratios = []
        for k in range(3, 8):
            e = 2.0**-k
            rep = residual_norms(assemble(tuned2, 1, Z, e, 0.1 * e, ExpDecay(), None))
            ratios.append(rep.residual_l2_V / rep.bound_case2)
        assert max(ratios) / min(ratios) <= 3.0
    assert budget.elapsed < 120.0


def test_criterion_5_fd_oracle_graph_limit(zero_profile, bump05, tuned2):
    with _Budget("criterion 5: discrete resolvent vs graph limit", 600.0) as budget:
        eps, delta = 0.3, 0.3**3
        f1 = GaussianPulse(center=3.0, width=0.5)

        # resonant flat profile: weighted Kirchhoff limit, refined once
        report = oracle_report(zero_profile, Z, eps, delta, f1, None,
                               h_u=1 / 32, h_s=1 / 64, refine=True)
        assert report["case"] == "2"
        assert report["mismatch"] <= 0.10
        assert 3.0 <= report["refinement_factor"] <= 5.0

        # generic bump: decoupled limit
        report = oracle_report(bump05, Z, eps, delta, f1, None, h_u=1 / 32, h_s=1 / 64)
        assert report["case"] == "1"
        assert report["mismatch"] <= 0.10

        # tuned bump: weighted Kirchhoff limit with a curved vertex
        report = oracle_report(tuned2, Z, eps, delta, f1, None, h_u=1 / 32, h_s=1 / 64)
        assert report["case"] == "2"
        assert report["mismatch"] <= 0.10
    assert budget.elapsed < 600.0


def test_criterion_6_structural_identities(bump05, zero_profile):
    with _Budget("criterion 6: structural identities", 10.0) as budget:
        grid = [(sv, uv) for sv in np.linspace(-0.95, 0.95, 20)
                for uv in np.linspace(0.05, 0.95, 20)]
        assert check_potential_identity(bump05, 0.3, grid) <= 1e-8

        sol_sh = shoot(bump05, 1 + 1j)
        wv = wronskian_values(sol_sh, np.union1d(sol_sh.mesh, np.linspace(-1, 1, 2001)))
        assert np.max(np.abs(wv - sol_sh.wronskian)) / abs(sol_sh.wronskian) <= 1e-8

        from wglimit.kernels import ExpDecay
        sol = assemble(bump05, 1, Z, 0.1, 0.01, ExpDecay(), None)
        defects = sol.interface_defects()
        assert max(defects["value"]) <= 1e-8
        assert max(defects["derivative"]) <= 1e-8

        proj = kirchhoff_projector(0.8, -0.6)
        lam0 = proj.lambda0
        assert np.max(np.abs(lam0 @ lam0 - lam0)) <= 1e-12
        assert np.max(np.abs(lam0 - lam0.T)) <= 1e-12
        assert abs(np.trace(lam0) - 1.0) <= 1e-12
        pi = pi_theta_projector(np.array([0.8, -0.6]))
        assert np.max(np.abs(pi - proj.lambda0_perp)) <= 1e-12
    assert budget.elapsed < 10.0


def test_criterion_7_eigenvalue_oracle_agreement(zero_profile, bump05, tuned2):
    with _Budget("criterion 7: shooting vs finite-difference eigenvalues", 30.0) as budget:
        for profile in (zero_profile, bump05, tuned2):
            spec = eigenvalues(profile, 6)
            fd = fd_vertex_eigen(profile, 2000, 6)
            assert np.max(np.abs(spec.eigenvalues - fd.lams)) <= 1e-6
        from wglimit.vertex_spectrum import eigenvalue_by_index
        assert abs(eigenvalue_by_index(tuned2, 2)) <= 1e-10
    assert budget.elapsed < 30.0
