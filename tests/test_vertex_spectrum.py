from __future__ import annotations

import cmath
import time

import numpy as np
import pytest
from scipy.integrate import simpson, solve_ivp

from wglimit import CurvatureProfile, eigenvalues, shoot
from wglimit import vertex_spectrum
from wglimit.cli import main
from wglimit.profile import _amplitude_slope
from wglimit.vertex_spectrum import (
    MAX_EIGENVALUE_COUNT,
    SpectrumError,
    _galerkin_eigenpairs,
    _eigenpair,
    classify_case,
    eigenvalue_by_index,
    wronskian_values,
)

NEUMANN = [0.0, np.pi**2 / 4, np.pi**2, 9 * np.pi**2 / 4]


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

    def test_zero_profile_at_zero_energy(self, zero_profile):
        sol = shoot(zero_profile, 0.0)
        grid = np.linspace(-1, 1, 11)
        assert np.allclose(sol.zeta(grid), 1.0, atol=1e-12)
        assert np.allclose(sol.eta(grid), 1.0, atol=1e-12)
        assert abs(sol.wronskian) < 1e-12

    def test_initial_conditions(self, bump05):
        sol = shoot(bump05, 1 + 0.5j)
        assert sol.zeta(-1.0) == pytest.approx(1.0)
        assert abs(sol.zeta_prime(-1.0)) < 1e-12
        assert sol.eta(1.0) == pytest.approx(1.0)
        assert abs(sol.eta_prime(1.0)) < 1e-12

    def test_wronskian_constancy(self, bump05):
        sol = shoot(bump05, 1 + 0.5j)
        w = wronskian_values(sol, sol.mesh)
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


class TestEigenvalues:
    def test_neumann_spectrum(self, zero_profile):
        spec = eigenvalues(zero_profile, 4, 1e-9)
        assert np.max(np.abs(spec.eigenvalues - NEUMANN)) < 1e-9
        assert spec.resonant and spec.case.n_star == 1
        assert spec.case.alpha1 == pytest.approx(1 / np.sqrt(2), abs=1e-9)
        assert spec.case.alpha2 == pytest.approx(1 / np.sqrt(2), abs=1e-9)
        grid = np.linspace(-1, 1, 17)
        assert np.allclose(spec.star_function.value(grid), 1 / np.sqrt(2), atol=1e-9)

    def test_bump_is_generic(self, bump05):
        spec = eigenvalues(bump05, 4, 1e-9)
        assert spec.eigenvalues[0] < 0.0
        assert not spec.resonant

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

    def test_wronskian_vanishes_at_eigenvalues(self, bump05):
        spec = eigenvalues(bump05, 4, 1e-9)
        for lam in spec.eigenvalues:
            # measure with the refinement-grade integrator so integration
            # noise does not mask the root quality
            sol = shoot(bump05, float(lam), rtol=1e-12, atol=1e-14)
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

    def test_one_solve_per_eigenpair(self, monkeypatch):
        vertex_spectrum._shooting_eigenpairs.cache_clear()
        calls = []
        ivp = vertex_spectrum.solve_ivp
        monkeypatch.setattr(vertex_spectrum, "solve_ivp",
                            lambda *args, **kw: calls.append(1) or ivp(*args, **kw))
        eigenvalues(CurvatureProfile.bump(0.4321), 5)
        assert len(calls) == 5

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
        assert _eigenpair(zero_profile, galerkin, 1).lam == pytest.approx(np.pi**2 / 4,
                                                                          abs=1e-12)

    def test_no_root_in_gap_raises(self, zero_profile):
        # a fake Galerkin value at 1.0 between the Neumann eigenvalues 0
        # and pi^2/4: the Wronskian has no root within the half-gap
        with pytest.raises(SpectrumError):
            _eigenpair(zero_profile, np.array([1.0, 2.0]), 0)

    def test_galerkin_arrays_read_only(self, bump05):
        lams, coef, _, mu = _galerkin_eigenpairs(bump05, 4)
        for arr in (lams, coef, mu):
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
