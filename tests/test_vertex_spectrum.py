from __future__ import annotations

import cmath
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import simpson, solve_ivp

from wglimit import CurvatureProfile, eigenvalues, shoot
from wglimit import vertex_spectrum
from wglimit.cli import main
from wglimit.profile import _amplitude_slope
from wglimit.vertex_spectrum import (
    MAX_EIGENVALUE_COUNT,
    SERIES_RADIUS,
    IntegrationError,
    SpectrumError,
    _NODES,
    _STAGES,
    _TABLEAU_SQ,
    _WEIGHTS,
    _galerkin_eigenpairs,
    _eigenpairs,
    _panel_count,
    classify_case,
    eigenvalue_by_index,
    taylor_shooting,
    wronskian_values,
)

from conftest import ShiftedBump, corners

SRC = Path(__file__).resolve().parents[1] / "src"

NEUMANN = [0.0, np.pi**2 / 4, np.pi**2, 9 * np.pi**2 / 4]


@pytest.fixture(scope="module")
def bump_edge():
    return CurvatureProfile.bump(-0.999)


def full_contraction_solve(profile, centre, terms, mirrored):
    """(states, forcing) of the coefficient solve with the panel maps contracted
    over the full (P, K, stage, K, 2) response, all K^2 blocks (test-side oracle)."""
    panels = _panel_count(profile.sup_gamma**2 / 4.0 + abs(centre))
    edges = np.linspace(-1.0, 1.0, panels + 1)
    h = edges[1] - edges[0]
    t = edges[:-1, None] + h * _NODES
    q = -0.25 * profile.gamma(-t if mirrored else t) ** 2 - centre
    inv = np.linalg.inv(np.eye(_STAGES) - h * h * _TABLEAU_SQ * q[:, None, :])
    stages = [inv @ np.stack([np.ones(_STAGES), h * _NODES], axis=1)]
    for _ in range(1, terms):
        stages.append(-h * h * inv @ (_TABLEAU_SQ @ stages[-1]))
    blocks = [q[..., None] * y - prev for y, prev in zip(stages, [0.0] + stages)]
    lag = np.subtract.outer(np.arange(terms), np.arange(terms))
    response = np.stack(blocks + [0.0 * blocks[0]])[np.where(lag < 0, terms, lag)]
    response = response.transpose(2, 0, 3, 1, 4)  # (P, K, stage, K, 2)
    ends = np.stack([h * h * _WEIGHTS * (1.0 - _NODES), h * _WEIGHTS])
    maps = np.einsum("is,pksjn->pkijn", ends, response).reshape(panels, 2 * terms, 2 * terms)
    maps += np.kron(np.eye(terms), [[1.0, h], [0.0, 1.0]])
    states = np.zeros((panels + 1, 2 * terms), dtype=q.dtype)
    states[0, 0] = 1.0
    for p in range(panels):
        states[p + 1] = maps[p] @ states[p]
    forcing = response.reshape(panels, terms * _STAGES, -1) @ states[:-1, :, None]
    forcing = np.pad(forcing.reshape(panels, terms, _STAGES), ((0, 1), (0, 0), (0, 0)))
    return states.reshape(panels + 1, terms, 2), forcing


class TestShoot:
    def test_zero_profile_closed_form(self, zero_profile):
        z = np.pi**2 / 16
        sol = shoot(zero_profile, z)
        sq = np.sqrt(z)
        # zeta(s) = cos(sqrt(z)(s+1)); at s=1 it crosses zero
        assert abs(sol.zeta(1.0) - np.cos(2 * sq)) < 1e-10
        assert abs(sol.zeta(1.0)) < 1e-10
        assert abs(sol.wronskian - (-sq * np.sin(2 * sq))) < 1e-10
        assert abs(sol.wronskian + np.pi / 4) < 1e-10

    @pytest.mark.parametrize("w", [0.0, 0.2j, -0.25, 3 + 1j, 400 - 2j, -30 + 1j])
    def test_zero_profile_dirichlet_end(self, zero_profile, w):
        # chi(s) = sin(sqrt(w)(s+1))/sqrt(w), so D = sin(2 sqrt(w))/sqrt(w), 2 at w = 0;
        # the Taylor route inside the radius, the shot beyond it
        sol = taylor_shooting(zero_profile).at(w) if abs(w) <= SERIES_RADIUS \
            else shoot(zero_profile, w)
        sq = np.sqrt(complex(w))
        exact = 2.0 if w == 0 else np.sin(2 * sq) / sq
        assert abs(sol.dirichlet - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_zero_profile_at_zero_energy(self, zero_profile):
        sol = shoot(zero_profile, 0.0)
        grid = np.linspace(-1, 1, 11)
        assert np.allclose(sol.zeta(grid), 1.0, atol=1e-12)
        assert np.allclose(sol.eta(grid), 1.0, atol=1e-12)
        assert abs(sol.wronskian) < 1e-12

    def test_initial_conditions(self, bump05):
        sol = shoot(bump05, 1 + 0.5j)
        assert sol.zeta(-1.0) == pytest.approx(1.0)
        assert abs(sol.zeta_sol(-1.0)[1]) < 1e-12
        assert sol.eta(1.0) == pytest.approx(1.0)
        assert abs(sol.eta_sol(1.0)[1]) < 1e-12

    def test_wronskian_constancy(self, bump05):
        # the panel ends and the dense output between them
        sol = shoot(bump05, 1 + 0.5j)
        w = wronskian_values(sol, np.union1d(sol.mesh, np.linspace(-1, 1, 2001)))
        ref = sol.wronskian
        assert np.max(np.abs(w - ref)) / abs(ref) < 1e-8

    def test_against_second_integrator(self, bump05):
        # independent integration at tighter tolerance with another method
        z = 1 + 0.5j

        def rhs(s, y):
            return [y[1], (-0.25 * bump05.gamma(s) ** 2 - z) * y[0]]

        ref = solve_ivp(rhs, (-1, 1), np.array([1.0 + 0j, 0j]), method="RK45",
                        rtol=1e-12, atol=1e-14)
        sol = shoot(bump05, z)
        assert abs(sol.wronskian - ref.y[1, -1]) < 1e-8

    def test_tiny_spectral_parameter_keeps_relative_accuracy(self, zero_profile):
        w = (2.0**-14) ** 2 * 1j
        sol = shoot(zero_profile, w)
        sq = cmath.sqrt(w)
        exact = -sq * cmath.sin(2 * sq)
        assert abs(sol.wronskian - exact) / abs(exact) < 1e-9


class TestCollocation:
    def test_tuned_wronskian_offset_against_mpmath(self):
        # W_0 = zeta_0'(+1) at this amplitude is +1.041e-13 from a 30-digit
        # mpmath odefun run; an adaptive DOP853 solve at rtol 1e-13 gave
        # -7.96e-16
        profile = CurvatureProfile("tuned_bump", 6.104017588677615, 2)
        assert taylor_shooting(profile).wronskian[0] == pytest.approx(1.041e-13, abs=2e-15)

    def test_halving_the_panels(self, bump05, monkeypatch):
        z = 1e6 + 1j
        fine = (shoot(bump05, z).wronskian, eigenvalue_by_index(bump05, 50))
        panels = vertex_spectrum._panel_count
        monkeypatch.setattr(vertex_spectrum, "_panel_count", lambda q: panels(q) // 2)
        # the spectrum is cached per (profile, count): cleared, or the fine value comes back
        vertex_spectrum._shooting_eigenpairs.cache_clear()
        try:
            coarse = (shoot(bump05, z).wronskian, eigenvalue_by_index(bump05, 50))
        finally:
            vertex_spectrum._shooting_eigenpairs.cache_clear()
        for a, b in zip(fine, coarse):
            assert abs(a - b) <= 1e-10 * abs(a)

    def test_panel_cap_raises_before_any_work(self, zero_profile, monkeypatch):
        monkeypatch.setattr(np.linalg, "inv", None)
        with pytest.raises(IntegrationError, match="panels"):
            shoot(zero_profile, 1e12)

    def test_dense_output_is_the_collocation_polynomial(self, bump05):
        # at the panel ends it reads the swept states; at the stage nodes
        # it satisfies the equation zeta'' = (V - z) zeta
        z = 3.0 + 1j
        sol = shoot(bump05, z)
        left = sol.zeta_sol.coefficients
        assert np.array_equal(left(sol.mesh), left.states[:, 0].T)
        h = sol.mesh[1] - sol.mesh[0]
        nodes = (sol.mesh[:-1, None] + h * vertex_spectrum._NODES).ravel()
        q = -0.25 * bump05.gamma(nodes) ** 2 - z
        assert np.max(np.abs(left.forcing[:-1, 0].ravel() - q * sol.zeta(nodes))) < 1e-12

    @pytest.mark.parametrize("profile_name", ["zero_profile", "bump05", "bump_edge", "tuned2"])
    @pytest.mark.parametrize("terms", [1, 2, 4, 12])
    def test_lag_blocks_match_the_full_contraction(self, profile_name, terms, request):
        # the K lag blocks give the bits of the K x K block contraction
        profile = request.getfixturevalue(profile_name)
        for centre in (0.0, 2.4674, -0.3, 0.3 + 0.5j, -40 + 3j, 5900.0):
            for mirrored in (False, True):
                sol = vertex_spectrum._coefficient_solve(profile, [centre], terms, "test",
                                                         mirrored)[0]
                states, forcing = full_contraction_solve(profile, centre, terms, mirrored)
                assert sol.states.tobytes() == states.tobytes()
                assert sol.forcing.tobytes() == forcing.tobytes()

    @pytest.mark.parametrize("profile_name", ["zero_profile", "bump05", "bump_edge", "tuned2"])
    def test_corners_are_the_dense_end_values(self, profile_name, request, rng):
        # corner_numerator reads the last panel-end states; the dense output gives the same bits
        profile = request.getfixturevalue(profile_name)
        taylor = taylor_shooting(profile)
        for w in SERIES_RADIUS * rng.uniform(-1, 1, 40) * np.exp(2j * np.pi * rng.random(40)):
            for sol in (taylor.at(w), shoot(profile, 40 * w)):
                dense = np.array([[sol.eta(-1.0), 1.0], [1.0, sol.zeta(1.0)]]) / sol.wronskian
                assert corners(sol).tobytes() == dense.tobytes()

    @pytest.mark.parametrize("profile_name", ["zero_profile", "bump05", "tuned2"])
    def test_combine_is_the_tensordot_sum_over_powers(self, profile_name, request, rng):
        # combine's table and product keep the bits and dtype of the plain sum
        # over powers: complex powers on real Taylor values, real powers on a
        # shot's complex values and on an eigenfunction's real ones
        profile = request.getfixturevalue(profile_name)
        sides = [taylor_shooting(profile).at(0.1 - 0.2j).zeta_sol, shoot(profile, 3 + 1j).eta_sol,
                 eigenvalues(profile, 2).functions[1]._sol]
        for side in sides:
            for s in (0.37, -1.0, rng.uniform(-1, 1, 9), rng.uniform(-1, 1, (3, 4))):
                y = side.coefficients(np.asarray(s))
                plain = np.tensordot(side.powers, y.reshape(2, len(side.powers), *y.shape[1:]),
                                     axes=(0, 1))
                got = side.combine(y)
                assert got.dtype == plain.dtype and got.shape == plain.shape
                assert got.tobytes() == plain.tobytes()

    def test_taylor_coefficients_independent_of_blas_threads(self):
        # no product in the solves or the eigenpairs rounds by the BLAS thread count;
        # bump:0.5's 50 eigenpairs take 30 stacked solves
        script = """
import hashlib
import numpy as np
from wglimit import CurvatureProfile, eigenvalues, tune_to_resonance
from wglimit.vertex_spectrum import taylor_shooting
for prof in (CurvatureProfile.zero(), CurvatureProfile.bump(0.5), CurvatureProfile.bump(-0.999),
             tune_to_resonance(2)):
    t = taylor_shooting(prof)
    arrays = (t.left.states, t.left.forcing, t.right.states, t.right.forcing,
              eigenvalues(prof, 8).eigenvalues)
    print(hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest())
spec = eigenvalues(CurvatureProfile.bump(0.5), 50)
arrays = [spec.eigenvalues, *(np.array([fn.scale, fn.derivative_norm, fn.at_minus1, fn.at_plus1])
                              for fn in spec.functions),
          *(fn.value(np.linspace(-1.0, 1.0, 37)) for fn in spec.functions)]
print(hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest())
"""
        path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
        digests = {subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                                  text=True, env=dict(os.environ, PYTHONPATH=path,
                                                      OPENBLAS_NUM_THREADS=threads)).stdout
                   for threads in ("1", "2")}
        assert len(digests) == 1 and len(digests.pop().split()) == 5

    def test_no_integrator_import(self, tmp_path):
        # the CLI and its five analytic commands load no scipy module; the
        # FD oracle loads scipy.linalg at its first solve, in the same process
        script = f"""
import sys
from wglimit.cli import main

def run(*argv):
    assert main([*argv, "--out", r"{tmp_path}/" + argv[0]]) == 0

run("spectrum", "--profile", "tuned:2")
run("coupling", "--profile", "bump:0.5", "--z", "0,1", "--eps-grid", "2^-3..2^-5",
    "--p1", "1,0")
run("residual-sweep", "--profile", "bump:0.5", "--z", "0,1", "--eps-grid", "2^-3..2^-5",
    "--f1", "exp:1")
run("graph-limit", "--profile", "zero", "--z", "0,1", "--eps-grid", "2^-4..2^-6",
    "--f1", "exp:1")
run("kernel", "--profile", "bump:0.5", "--z", "1,1", "--grid", "3")
print("scipy modules:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
run("oracle-compare", "--profile", "zero", "--z", "0,4", "--epsilon", "0.25",
    "--h-u", "0.0625", "--h-s", "0.0625", "--f1", "gaussian:2,0.4")
"""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert "scipy modules: []" in out.splitlines()


def count_solves(monkeypatch) -> list:
    """The term count of every coefficient solve made from here on."""
    terms, solve = [], vertex_spectrum._coefficient_solve
    monkeypatch.setattr(vertex_spectrum, "_coefficient_solve",
                        lambda prof, c, k, *a: terms.append(k) or solve(prof, c, k, *a))
    return terms


class TestMirroredPair:
    """An even profile's right solve is its left one read in t = -s: one solve."""

    PROFILES = ["zero_profile", "bump05", "bump_edge", "bump_neg", "tuned2"]
    CENTRES = [0.0, 2.4674, 0.3 + 0.5j, -40 + 3j]

    @pytest.fixture(scope="class")
    def bump_neg(self):
        return CurvatureProfile.bump(-0.586)

    @pytest.mark.parametrize("profile_name", PROFILES)
    @pytest.mark.parametrize("terms", [1, 4, 12])
    def test_shared_right_is_the_mirrored_solve(self, profile_name, terms, request):
        profile = request.getfixturevalue(profile_name)
        for centre in self.CENTRES:
            left, right = vertex_spectrum._coefficient_pair(profile, centre, terms, "test")
            assert right.mirrored and not left.mirrored
            assert right.states is left.states and right.forcing is left.forcing
            # the partners too: psi is chi read in t = -s
            assert right.stacked.mirrored and not left.stacked.mirrored
            assert right.stacked.states is left.stacked.states
            assert right.stacked.forcing is left.stacked.forcing
            solo = vertex_spectrum._coefficient_solve(profile, [centre], terms, "test", True,
                                                      None, True)[0]
            # stepping the Dirichlet start data leaves the solve's own bits alone
            plain = vertex_spectrum._coefficient_solve(profile, [centre], terms, "test")[0]
            assert plain.stacked is None and left.stacked.states.shape[1] == 2 * terms
            for own in (left, left.stacked):
                assert own.states[:, :terms].tobytes() == plain.states.tobytes()
                assert own.forcing[:, :terms].tobytes() == plain.forcing.tobytes()
            for shared, own in ((right, solo), (right.stacked, solo.stacked)):
                assert shared.edges.tobytes() == own.edges.tobytes()
                assert shared.states.tobytes() == own.states.tobytes()
                assert shared.forcing.tobytes() == own.forcing.tobytes()

    @pytest.mark.parametrize("profile_name", PROFILES)
    def test_node_values_mirror(self, profile_name, request):
        # on bitwise mirrored nodes eta is zeta reversed and eta' is -zeta' reversed
        profile = request.getfixturevalue(profile_name)
        s = vertex_spectrum._panel_nodes(-1.0, 1.0, 64, 8)[0]
        assert np.array_equal(s, -s[::-1])
        for sol in (taylor_shooting(profile).at(0.1 - 0.2j), shoot(profile, 3 + 1j)):
            zeta, eta = sol.zeta_sol(s), sol.eta_sol(s)
            assert eta[0].tobytes() == zeta[0][::-1].tobytes()
            assert eta[1].tobytes() == (-zeta[1][::-1]).tobytes()
            left, right = sol.zeta_sol.coefficients, sol.eta_sol.coefficients
            terms = len(sol.zeta_sol.powers)
            # psi runs in t = -s as eta does: the stacked values mirror too
            for a, b, rows in ((left, right, terms), (left.stacked, right.stacked, 2 * terms)):
                flipped = a(s)[:, ::-1].copy()
                flipped[rows:] *= -1.0
                assert b(s).tobytes() == flipped.tobytes()
            n = sol.corner_numerator()
            assert n[0, 0] == n[1, 1]

    @pytest.mark.parametrize("uneven", [False, True])
    def test_dirichlet_partners(self, tuned2, uneven):
        # chi(-1) = 0, chi'(-1) = 1 and psi(+1) = 0, psi'(+1) = -1 exactly; the
        # Wronskians with the other solutions give chi(+1) = psi(-1) = D,
        # chi'(+1) = eta(-1) and psi'(-1) = -zeta(+1)
        profile = ShiftedBump("bump", 0.5) if uneven else tuned2
        for sol in (taylor_shooting(profile).at(0.1 - 0.2j), shoot(profile, 3 + 1j)):
            chi, psi = (vertex_spectrum._TaylorSide(
                side.coefficients.stacked, np.concatenate([0.0 * side.powers, side.powers]))
                for side in (sol.zeta_sol, sol.eta_sol))
            assert tuple(chi(-1.0)) == (0.0, 1.0) and tuple(psi(1.0)) == (0.0, -1.0)
            (chi_end, chi_slope), (psi_end, psi_slope) = chi(1.0), psi(-1.0)
            scale = max(1.0, abs(sol.dirichlet))
            assert abs(chi_end - sol.dirichlet) <= 1e-15 * scale
            assert abs(psi_end - sol.dirichlet) <= 1e-13 * scale
            assert abs(chi_slope - sol.eta(-1.0)) <= 1e-13 * max(1.0, abs(chi_slope))
            assert abs(psi_slope + sol.zeta(1.0)) <= 1e-13 * max(1.0, abs(psi_slope))

    def test_uneven_profile_takes_two_solves(self, monkeypatch):
        profile = ShiftedBump("bump", 0.5)
        terms = count_solves(monkeypatch)
        for centre in (0.0, 3 + 1j):
            left, right = vertex_spectrum._coefficient_pair(profile, centre, 4, "test")
            assert right.states is not left.states and right.mirrored
            assert right.stacked.states is not left.stacked.states and right.stacked.mirrored
            assert left.states.tobytes() != right.states.tobytes()
        assert terms == [4, 4, 4, 4]
        sol = shoot(profile, 3 + 1j)
        assert sol.eta_sol.coefficients.states is not sol.zeta_sol.coefficients.states
        dense = np.array([[sol.eta(-1.0), 1.0], [1.0, sol.zeta(1.0)]]) / sol.wronskian
        assert corners(sol).tobytes() == dense.tobytes()
        assert corners(sol)[0, 0] != corners(sol)[1, 1]

    def test_cold_taylor_solve_is_one_solve(self, tuned2, monkeypatch):
        taylor_shooting.cache_clear()
        terms = count_solves(monkeypatch)
        taylor = taylor_shooting(tuned2)
        assert terms == [vertex_spectrum.SERIES_TERMS]
        assert taylor.right.states is taylor.left.states

    @pytest.mark.parametrize("profile_name", PROFILES)
    def test_derivative_norm_is_the_rule_sum(self, profile_name, request):
        # ||y'|| from the normalising call's values: the bits of the norm taken
        # from a second evaluation of the derivative at the stage nodes
        profile = request.getfixturevalue(profile_name)
        for fn in eigenvalues(profile, 4).functions:
            panels = len(fn._sol.coefficients.edges) - 1
            rule = vertex_spectrum._panel_nodes(-1.0, 1.0, panels, _STAGES)
            assert fn.derivative_norm == float(np.sqrt(rule[1] @ fn.derivative(rule[0]) ** 2))


class TestEigenvalues:
    def test_neumann_spectrum(self, zero_profile):
        spec = eigenvalues(zero_profile, 4, 1e-9)
        assert np.max(np.abs(spec.eigenvalues - NEUMANN)) < 1e-9
        assert spec.case.resonant and spec.case.n_star == 1
        assert spec.case.alpha1 == pytest.approx(1 / np.sqrt(2), abs=1e-9)
        assert spec.case.alpha2 == pytest.approx(1 / np.sqrt(2), abs=1e-9)
        grid = np.linspace(-1, 1, 17)
        assert np.allclose(spec.functions[spec.case.n_star - 1].value(grid), 1 / np.sqrt(2),
                           atol=1e-9)

    def test_bump_is_generic(self, bump05):
        spec = eigenvalues(bump05, 4, 1e-9)
        assert spec.eigenvalues[0] < 0.0
        assert not spec.case.resonant

    def test_free_bracketing_bound(self, bump05):
        # lambda_n in [mu_n - sup(gamma^2/4), mu_n]
        spec = eigenvalues(bump05, 6, 1e-9)
        sup_v = 0.25 * 0.5**2
        for n, lam in enumerate(spec.eigenvalues, start=1):
            mu = ((n - 1) * np.pi / 2) ** 2
            assert mu - sup_v - 1e-9 <= lam <= mu + 1e-9

    def test_normalisation_and_boundary(self, bump05):
        spec = eigenvalues(bump05, 4, 1e-9)
        grid = np.linspace(-1, 1, 4001)
        for fn in spec.functions:
            vals = fn.value(grid)
            assert abs(simpson(vals**2, x=grid) - 1.0) < 1e-8
            assert abs(fn.derivative(-1.0)) < 1e-8
            assert abs(fn.derivative(1.0)) < 1e-8

    def test_orthogonality(self, bump05):
        spec = eigenvalues(bump05, 4, 1e-9)
        grid = np.linspace(-1, 1, 4001)
        vals = np.array([fn.value(grid) for fn in spec.functions])
        gram = simpson(vals[:, None, :] * vals[None, :, :], x=grid, axis=-1)
        off = gram - np.eye(4)
        assert np.max(np.abs(off)) < 1e-7

    def test_eigen_residual(self, bump05):
        # -y'' - (gamma^2/4) y = lambda y checked with a 5-point stencil on y'
        spec = eigenvalues(bump05, 4, 1e-9)
        h = 2e-3
        grid = np.linspace(-0.9, 0.9, 301)
        for fn in spec.functions:
            d1 = fn.derivative
            ypp = (-d1(grid + 2 * h) + 8 * d1(grid + h) - 8 * d1(grid - h)
                   + d1(grid - 2 * h)) / (12 * h)
            resid = -ypp - 0.25 * bump05.gamma(grid) ** 2 * fn.value(grid) \
                - fn.lam * fn.value(grid)
            assert np.sqrt(np.mean(resid**2)) < 1e-7

    def test_wronskian_vanishes_at_eigenvalues(self, bump05, monkeypatch):
        spec = eigenvalues(bump05, 4, 1e-9)
        # measure on twice the panels so that integration noise does not
        # mask the root quality
        panels = vertex_spectrum._panel_count
        monkeypatch.setattr(vertex_spectrum, "_panel_count", lambda q: 2 * panels(q))
        for lam in spec.eigenvalues:
            sol = shoot(bump05, float(lam))
            assert abs(sol.wronskian) < 1e-10 * max(1.0, abs(lam))

    def test_spectrum_continuity_in_amplitude(self):
        a = CurvatureProfile.bump(0.43)
        b = CurvatureProfile.bump(0.43 + 1e-4)
        sa = eigenvalues(a, 3, 1e-9)
        sb = eigenvalues(b, 3, 1e-9)
        assert np.max(np.abs(sa.eigenvalues - sb.eigenvalues)) < 1e-2

    def test_sup_norm_uniformity(self, bump05):
        # boundedness of the eigenfunction sup norms over computed modes
        spec = eigenvalues(bump05, 8, 1e-9)
        grid = np.linspace(-1, 1, 2001)
        sups = [np.max(np.abs(fn.value(grid))) for fn in spec.functions]
        assert max(sups) < 3.0

    @pytest.mark.parametrize("amp, count, solves", [(0.4321, 5, 1), (0.5, 50, 30)])
    def test_one_solve_per_panel_count(self, monkeypatch, amp, count, solves):
        # one stacked solve per panel count, each eigenpair's centre in exactly one
        vertex_spectrum._shooting_eigenpairs.cache_clear()
        calls = []
        solve = vertex_spectrum._coefficient_solve
        monkeypatch.setattr(vertex_spectrum, "_coefficient_solve",
                            lambda prof, c, *a: calls.append(list(c)) or solve(prof, c, *a))
        profile = CurvatureProfile.bump(amp)
        eigenvalues(profile, count)
        assert len(calls) == solves
        galerkin = _galerkin_eigenpairs(profile, count + 1)[0][:count]
        assert sorted(c for centres in calls for c in centres) == sorted(galerkin)

    @pytest.mark.parametrize("profile_name, count", [("bump05", 50), ("tuned2", 4),
                                                     ("zero_profile", 12)])
    def test_stacked_eigenpairs_are_stacks_of_one(self, profile_name, count, request):
        # each eigenpair of a stacked solve has the bits of a solve about its centre
        # alone, and its normalisation on the shared node table those of its own
        profile = request.getfixturevalue(profile_name)
        vertex_spectrum._shooting_eigenpairs.cache_clear()
        galerkin = _galerkin_eigenpairs(profile, count + 1)[0]
        for k, fn in enumerate(eigenvalues(profile, count).functions):
            sol = fn._sol.coefficients
            solo = vertex_spectrum._coefficient_solve(profile, [float(galerkin[k])],
                                                      vertex_spectrum._EIGEN_TERMS, "test")[0]
            assert sol.edges.tobytes() == solo.edges.tobytes()
            assert sol.states.tobytes() == solo.states.tobytes()
            assert sol.forcing.tobytes() == solo.forcing.tobytes()
            d = vertex_spectrum._wronskian_root(solo.states[-1, :, 1], galerkin, k)
            assert fn.lam == float(galerkin[k]) + d
            side = vertex_spectrum._TaylorSide(solo, d ** np.arange(vertex_spectrum._EIGEN_TERMS))
            rule = vertex_spectrum._panel_nodes(-1.0, 1.0, len(solo.edges) - 1, _STAGES)
            vals, slopes = side(rule[0])
            scale = 1.0 / np.sqrt(rule[1] @ (vals * vals))
            assert fn.scale == scale
            assert fn.derivative_norm == float(np.sqrt(rule[1] @ (slopes * scale) ** 2))
            # the end values read the panel-end states with the dense output's bits
            assert fn.at_minus1 == float(fn.value(-1.0))
            assert fn.at_plus1 == float(fn.value(1.0))

    def test_count_guard(self, zero_profile):
        with pytest.raises(ValueError):
            eigenvalues(zero_profile, 0, 1e-9)
        with pytest.raises(ValueError):
            eigenvalues(zero_profile, MAX_EIGENVALUE_COUNT + 1, 1e-9)


class TestClassifyCase:
    def test_zero_profile(self, zero_profile):
        case = classify_case(eigenvalues(zero_profile, 4, 1e-9))
        assert case.resonant and case.n_star == 1
        assert case.alpha1 == pytest.approx(1 / np.sqrt(2), abs=1e-9)

    def test_bump(self, bump05):
        case = classify_case(eigenvalues(bump05, 4, 1e-9))
        assert not case.resonant

    def test_strict_threshold(self, bump05):
        # resonant exactly when the smallest |lambda| is within the tolerance
        lam = float(np.min(np.abs(eigenvalues(bump05, 2, 1e-9).eigenvalues)))
        assert not classify_case(eigenvalues(bump05, 2, 0.5 * lam)).resonant
        case = classify_case(eigenvalues(bump05, 2, 2.0 * lam))
        assert case.resonant and case.n_star == 1

    def test_tuned_case2(self, tuned2):
        spec = eigenvalues(tuned2, 4, 1e-9)
        case = classify_case(spec)
        assert case.resonant and case.n_star == 2
        assert case.alpha1 * case.alpha2 < 0
        assert spec.case is case


def sign_changes(values: np.ndarray) -> int:
    """Sign changes of sampled values, ignoring samples at the noise floor."""
    v = values[np.abs(values) > 1e-8 * np.max(np.abs(values))]
    return int(np.count_nonzero(np.signbit(v[1:]) != np.signbit(v[:-1])))


@pytest.fixture(params=["zero", "bump:0.9", "bump:-0.9", "tuned2"])
def any_profile(request):
    if request.param == "tuned2":
        return request.getfixturevalue("tuned2")
    if request.param == "zero":
        return CurvatureProfile.zero()
    return CurvatureProfile.bump(float(request.param.split(":")[1]))


class TestGalerkinPolish:
    def test_nth_eigenfunction_has_n_minus_1_nodes(self, any_profile):
        spec = eigenvalues(any_profile, 6)
        grid = np.linspace(-1, 1, 4001)
        for n, fn in enumerate(spec.functions, start=1):
            assert sign_changes(fn.value(grid)) == n - 1

    def test_roots_within_galerkin_half_gap(self, any_profile):
        lams = eigenvalues(any_profile, 6).eigenvalues
        galerkin = _galerkin_eigenpairs(any_profile, 7)[0]
        gaps = np.diff(galerkin)
        below = np.concatenate([gaps[:1], gaps[:-1]])
        for k in range(6):
            dev = lams[k] - galerkin[k]
            assert -below[k] / 2 <= dev <= gaps[k] / 2
            # the two routes agree far inside the half-gap
            assert abs(dev) < 1e-9 * max(1.0, abs(galerkin[k]))

    def test_widened_bracket_finds_root(self, zero_profile):
        # a Galerkin value 1e-6 off: Newton steps from it still find the root
        galerkin = np.array([0.0, np.pi**2 / 4 + 1e-6, np.pi**2])
        assert _eigenpairs(zero_profile, galerkin)[1].lam == pytest.approx(np.pi**2 / 4,
                                                                           abs=1e-12)

    def test_no_root_in_gap_raises(self, zero_profile):
        # a fake Galerkin value at 1.0 between the Neumann eigenvalues 0
        # and pi^2/4: the Wronskian has no root within the half-gap
        with pytest.raises(SpectrumError):
            _eigenpairs(zero_profile, np.array([1.0, 2.0]))

    @pytest.mark.parametrize("profile_name", ["zero_profile", "bump05", "tuned2"])
    def test_eigenpairs_match_scipy_eigh(self, profile_name, request):
        # numpy's eigh against scipy's on the same Galerkin Hamiltonian, the
        # eigenvalues relative to the largest compared (tuned2's lambda_2 is
        # 3.4e-12 from numpy and -1.9e-12 from scipy, 5e-16 of |H| = 1e4 apart)
        profile = request.getfixturevalue(profile_name)
        lams, coef, _, mu = _galerkin_eigenpairs(profile, 6)
        want, vecs = scipy.linalg.eigh(vertex_spectrum._galerkin_matrices(profile, 6)[0]
                                       + np.diag(mu))
        vecs *= np.where(np.diagonal(vecs) < 0.0, -1.0, 1.0)
        assert np.max(np.abs(lams - want[:6])) <= 1e-12 * np.max(np.abs(want[:6]))
        assert np.max(np.abs(coef - vecs[:, :6])) <= 1e-10

    def test_galerkin_matrix_against_direct_quadrature(self, bump05):
        # entries of the transform-built matrix against composite Gauss on the
        # products of cosines, 16 nodes per period of the highest product
        x, w = np.polynomial.legendre.leggauss(16)
        half = 1.0 / 4096
        s = (np.linspace(-1.0 + half, 1.0 - half, 4096)[:, None] + half * x).ravel()
        weighted = np.tile(half * w, 4096) * -0.25 * bump05.gamma(s) ** 2

        def modes(j):
            out = np.cos(np.asarray(j)[..., None] * (np.pi * (s + 1.0) / 2.0))
            out[np.asarray(j) == 0] = np.sqrt(0.5)
            return out

        small = vertex_spectrum._galerkin_matrices(bump05, 6)[0]
        want = modes(np.arange(66)) ** 2 @ weighted
        assert np.max(np.abs(np.diagonal(small) - want)) <= 1e-15
        big = vertex_spectrum._galerkin_matrices(bump05, 2000)[0]
        for j, k in [(0, 2), (1, 3), (3, 7), (2000, 2058), (2000, 2059), (2059, 2059)]:
            assert abs(big[j, k] - modes(j) * modes(k) @ weighted) <= 1e-15

    def test_galerkin_arrays_read_only(self, bump05):
        lams, coef, _, mu = _galerkin_eigenpairs(bump05, 4)
        for arr in (lams, coef, mu):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("profile_name", ["zero", "bump:0.5", "bump:-0.586", "tuned2"])
    @pytest.mark.parametrize("n_modes", [3, 5, 7])
    def test_sign_alignment_is_the_column_loop(self, profile_name, n_modes, request):
        # reference: numpy's eigh of the same matrix, each column negated in a
        # loop where its diagonal entry is negative; equal bit for bit
        profile = (request.getfixturevalue("tuned2") if profile_name == "tuned2"
                   else CurvatureProfile.zero() if profile_name == "zero"
                   else CurvatureProfile.bump(float(profile_name.split(":")[1])))
        potential, mu = vertex_spectrum._galerkin_matrices(profile, n_modes)
        want_lams, want = np.linalg.eigh(potential + np.diag(mu))
        for n in range(len(mu)):
            if want[n, n] < 0:
                want[:, n] = -want[:, n]
        lams, coef, n_basis, got_mu = _galerkin_eigenpairs(profile, n_modes)
        assert n_basis == len(mu) and got_mu.tobytes() == mu.tobytes()
        assert lams.tobytes() == want_lams[:n_modes].tobytes()
        assert coef.tobytes() == np.ascontiguousarray(want[:, :n_modes]).tobytes()

    def test_stage_rule_is_the_cached_gauss_rule(self):
        # the import computes leggauss(8) once, through the cache every
        # composite rule reads; the cached arrays are read-only
        script = ("from wglimit import vertex_spectrum as vs\n"
                  "before = vs._gauss_rule.cache_info()\n"
                  "vs._panel_nodes(-1.0, 1.0, 4, 8)\n"
                  "after = vs._gauss_rule.cache_info()\n"
                  "print(before.misses, before.hits, after.misses, after.hits)")
        path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
        out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                             text=True, env=dict(os.environ, PYTHONPATH=path)).stdout
        assert out.split() == ["1", "0", "1", "1"]
        nodes, weights = vertex_spectrum._gauss_rule(8)
        assert nodes.tobytes() == np.polynomial.legendre.leggauss(8)[0].tobytes()
        assert weights.tobytes() == np.polynomial.legendre.leggauss(8)[1].tobytes()
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("amp", [3.0, None])
    def test_hellmann_feynman_slope(self, tuned2, amp):
        amp = tuned2.amplitude if amp is None else amp
        h = 1e-4

        def lam2(a):
            return eigenvalue_by_index(CurvatureProfile("tuned_bump", a, 2), 2)

        central = (lam2(amp + h) - lam2(amp - h)) / (2 * h)
        slope = _amplitude_slope(CurvatureProfile("tuned_bump", amp, 2))
        assert slope == pytest.approx(central, rel=1e-6)

    def test_untunable_index_fails_fast(self, tmp_path):
        # no amplitude <= 8 zeroes lambda_3 (Galerkin lambda_3(8) = 4.40)
        start = time.perf_counter()
        assert main(["spectrum", "--profile", "tuned:3",
                     "--out", str(tmp_path / "s.csv")]) == 2
        assert time.perf_counter() - start < 5.0
