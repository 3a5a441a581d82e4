from __future__ import annotations

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wglimit import (CurvatureProfile, kirchhoff_projector, resonant_projector, solve_coupling,
                     vertex_kernel_at)
from wglimit.coupling import DECOUPLED, asymptotic_deviation, solve_coupling_from_kernel
from wglimit.graph_limit import limit_comparison
from wglimit.kernels import ExpDecay, series_kernel, sqrt_upper
from wglimit.residual import assemble
from wglimit.vertex_spectrum import CaseLabel, shoot, spectrum_for_case, taylor_shooting

from conftest import ShiftedBump, corners, log_slope

Z = 1j
SQ = sqrt_upper(Z)
P10 = np.array([1.0, 0.0], dtype=complex)


class TestLambdaEps:
    def test_zero_profile_closed_corners(self, zero_profile):
        eps = 0.05
        w = eps**2 * Z
        lam = corners(vertex_kernel_at(zero_profile, w))
        sq = cmath.sqrt(w)
        diag = -cmath.cos(2 * sq) / (sq * cmath.sin(2 * sq))
        off = -1.0 / (sq * cmath.sin(2 * sq))
        expect = np.array([[diag, off], [off, diag]])
        assert np.max(np.abs(lam - expect)) < 1e-8 * abs(diag)

    def test_symmetry(self, bump05):
        lam = corners(vertex_kernel_at(bump05, 0.04j))
        assert abs(lam[0, 1] - lam[1, 0]) < 1e-9

    def test_series_corners_agree(self, bump05):
        w = 0.04j
        lam_w = corners(vertex_kernel_at(bump05, w))
        lam_s = np.array([[series_kernel(bump05, w, a, b) for b in (-1.0, 1.0)]
                          for a in (-1.0, 1.0)])
        assert np.max(np.abs(lam_w - lam_s)) < 1e-6


class TestKirchhoffProjector:
    def test_symmetric_weights(self):
        proj = kirchhoff_projector(1 / np.sqrt(2), 1 / np.sqrt(2))
        assert np.allclose(proj.lambda0, 0.5 * np.ones((2, 2)), atol=1e-15)

    def test_one_zero_weight(self):
        proj = kirchhoff_projector(1.0, 0.0)
        assert np.allclose(proj.lambda0, [[1, 0], [0, 0]], atol=1e-15)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            kirchhoff_projector(0.0, 0.0)

    @given(a1=st.floats(-3, 3), a2=st.floats(-3, 3))
    @settings(max_examples=100, deadline=None)
    def test_projector_identities(self, a1, a2):
        if a1 * a1 + a2 * a2 < 1e-6:
            return
        proj = kirchhoff_projector(a1, a2)
        lam0 = proj.lambda0
        assert np.max(np.abs(lam0 @ lam0 - lam0)) < 1e-12
        assert np.max(np.abs(lam0 - lam0.T)) < 1e-12
        assert abs(np.trace(lam0) - 1.0) < 1e-12
        assert np.max(np.abs(lam0 + proj.lambda0_perp - np.eye(2))) < 1e-12
        assert np.max(np.abs(proj.lambda0_perp @ lam0)) < 1e-12
        flipped = kirchhoff_projector(-a1, -a2)
        assert np.max(np.abs(flipped.lambda0 - lam0)) < 1e-12


class TestSolveCoupling:
    def test_zero_data(self, bump05):
        coeffs = solve_coupling(bump05, Z, 0.01, np.zeros(2))
        assert np.all(coeffs.q == 0) and np.all(coeffs.xi == 0)

    def test_zero_profile_near_limit(self, zero_profile):
        eps = 1e-3
        coeffs = solve_coupling(zero_profile, Z, eps, P10)
        q_limit = (1j / SQ) * (0.5 * np.ones((2, 2)) @ P10)
        assert np.allclose(q_limit, 1j / (2 * SQ) * np.ones(2))
        assert np.linalg.norm(coeffs.q - q_limit) <= 10 * eps

    def test_bump_case1_smallness(self, bump05):
        # Calibrated constant: the lowest eigenvalue of this profile sits
        # at -0.0139, so the naive O(eps) constant is ~33 (measured);
        # bound frozen at 50 with margin.
        eps = 1e-3
        p = np.array([1.0, 1.0], dtype=complex)
        coeffs = solve_coupling(bump05, Z, eps, p)
        assert np.linalg.norm(coeffs.q) <= 50 * eps * np.linalg.norm(p)
        assert np.linalg.norm(coeffs.xi - p) <= 50 * eps * np.linalg.norm(p)

    def test_back_substitution_residual(self, bump05, zero_profile):
        for prof in (bump05, zero_profile):
            for eps in (0.3, 1e-2, 1e-4):
                coeffs = solve_coupling(prof, Z, eps, P10)
                assert coeffs.back_residual <= 1e-10 * np.linalg.norm(coeffs.p)
                # xi = p + i sqrt(z) q holds identically
                assert np.allclose(coeffs.xi, coeffs.p + 1j * SQ * coeffs.q,
                                   atol=1e-15)

    def test_singular_system_raises(self):
        sigma = 1j * 0.1 * SQ

        class StubKernel:
            # N = I, D = 0 and W = 2 sigma: the denominator W - sigma tr N + sigma^2 D
            # is exactly 0, as is det(1 - sigma L) with L = N / W
            wronskian, dirichlet = 2.0 * sigma, 0.0

            def corner_numerator(self):
                return np.eye(2, dtype=complex)

        with pytest.raises(OverflowError, match="not finite"):
            solve_coupling_from_kernel(StubKernel(), Z, 0.1, P10, CaseLabel(False))


class TestClosedForm:
    """q = eps (N - sigma D) p / (W - sigma tr N + sigma^2 D) rests on det N = W D."""

    PROFILES = {"zero": CurvatureProfile.zero(), "bump:0.5": CurvatureProfile.bump(0.5),
                "bump:-0.9": CurvatureProfile.bump(-0.9), "shifted": ShiftedBump("bump", 0.5)}

    @pytest.mark.parametrize("name", [*PROFILES, "tuned:2"])
    def test_det_n_is_w_times_d(self, name, tuned2):
        # the Taylor route for |w| <= 0.25, the shot one beyond; relative to the
        # scale |eta(-1) zeta(+1)| + 1 of det N's own rounding
        profile = tuned2 if name == "tuned:2" else self.PROFILES[name]
        taylor = taylor_shooting(profile)
        sols = [taylor.at(w) for w in (0.0, 1e-6j, 0.1j, -0.25, 0.25, 0.2 + 0.1j, -0.1 - 0.17j)]
        sols += [shoot(profile, z) for z in (0.3 + 0.1j, 0.3 + 0.7j, 30 + 1j, 900 + 1j, -40 + 3j)]
        for sol in sols:
            n = sol.corner_numerator()
            det = n[0, 0] * n[1, 1] - 1.0
            scale = abs(n[0, 0] * n[1, 1]) + 1.0
            assert abs(det - sol.wronskian * sol.dirichlet) <= 1e-14 * scale

    def test_agrees_with_the_inverse_on_a_generic_profile(self, bump05):
        for eps in (0.3, 2.0**-6, 2.0**-12):
            kernel = vertex_kernel_at(bump05, eps**2 * Z)
            lam = corners(kernel)
            want = np.linalg.solve(np.eye(2) - 1j * eps * SQ * lam, eps * (lam @ P10))
            got = solve_coupling_from_kernel(kernel, Z, eps, P10, CaseLabel(False)).q
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_one_ulp_of_p_moves_resonant_rows_by_rounding(self, tuned2):
        # at a resonance L = N / W ~ 1/eps^2, and a solve through (1 - sigma L)^-1
        # amplifies one ulp of p by about 1/eps^2; the closed form forms no 1/W
        case = spectrum_for_case(tuned2).case
        proj = resonant_projector(tuned2)
        for z in (1j, 0.3 + 0.7j, -0.2 + 1.1j):
            for p in (P10, np.array([1.0, 0.3], dtype=complex)):
                near = p * (1.0 - 2.0**-53)
                for eps in (2.0**-20, 2.0**-22):  # |W| below the kernel's floor at 2^-22
                    kernel = taylor_shooting(tuned2).at(eps**2 * z)
                    dev_q = [asymptotic_deviation(solve_coupling_from_kernel(
                        kernel, z, eps, x, case), proj).dev_q for x in (p, near)]
                    assert abs(dev_q[1] - dev_q[0]) <= 1e-8 * dev_q[0]
                eps = 2.0**-16
                norm = [limit_comparison(assemble(tuned2, 1, z, eps, 0.08 * eps, ExpDecay(), None,
                                                  p=x, case=case).coeffs) for x in (p, near)]
                assert abs(norm[1] - norm[0]) <= 1e-9 * norm[0]


class TestAsymptoticDeviation:
    def test_null_input_convention(self, zero_profile):
        coeffs = solve_coupling(zero_profile, Z, 0.01, np.zeros(2))
        dev = asymptotic_deviation(coeffs, kirchhoff_projector(1.0, 1.0))
        assert dev.dev_q == 0.0 and dev.dev_xi == 0.0

    def test_case2_slopes(self, zero_profile):
        proj = resonant_projector(zero_profile)
        eps = [2.0**-k for k in range(6, 15)]
        dq, dxi = [], []
        for e in eps:
            coeffs = solve_coupling(zero_profile, Z, e, P10)
            dev = asymptotic_deviation(coeffs, proj)
            dq.append(dev.dev_q)
            dxi.append(dev.dev_xi)
            # xi - P0perp p = i sqrt(z) (q - q_limit): without the first-order
            # term xi's deviation is sqrt|z| dev_q, no new figure
            naive = np.linalg.norm(coeffs.xi - proj.lambda0_perp @ P10) / np.linalg.norm(P10)
            assert naive == pytest.approx(abs(Z) ** 0.5 * dev.dev_q, rel=1e-6)
        assert abs(log_slope(eps[2:], dq[2:]) - 1.0) < 0.15
        assert abs(log_slope(eps[2:], dxi[2:]) - 2.0) < 0.2

    def test_case1_slope(self, bump05):
        eps = [2.0**-k for k in range(6, 15)]
        dq = [asymptotic_deviation(solve_coupling(bump05, Z, e, P10), DECOUPLED).dev_q
              for e in eps]
        assert abs(log_slope(eps[2:], dq[2:]) - 1.0) < 0.15

    @pytest.mark.parametrize("z", [Z, 0.3 + 0.7j, -2.0 + 0.1j])
    @pytest.mark.parametrize("p", [P10, np.array([1.0, 0.3 + 2.0j]),
                                   np.array([3e300, -1e299j])])
    def test_generic_deviation_is_the_decoupled_distance(self, bump05, z, p):
        # against P0 = 0 the one formula reads |q| and |xi - p|, bit for bit
        def decoupled_distances(coeffs):
            e = np.frexp(np.max(np.abs(coeffs.p)))[1]
            p, q, xi = (np.ldexp(x.view(float), -e).view(complex)
                        for x in (coeffs.p, coeffs.q, coeffs.xi))
            pnorm = float(np.linalg.norm(p))
            return float(np.linalg.norm(q)) / pnorm, float(np.linalg.norm(xi - p)) / pnorm

        for eps in (2.0**-k for k in range(6, 15)):
            coeffs = solve_coupling(bump05, z, eps, p)
            dev = asymptotic_deviation(coeffs, DECOUPLED)
            assert (dev.dev_q, dev.dev_xi) == decoupled_distances(coeffs)

    def test_resonant_distance_to_the_decoupled_limit(self, tuned2):
        # q -> (i/sqrt(z)) P0 p: the distance to q = 0 tends to |P0 p| / (|sqrt z| |p|)
        p = np.array([1.0, 0.3], dtype=complex)
        lam0 = resonant_projector(tuned2).lambda0
        far = np.linalg.norm(lam0 @ p) / (abs(Z) ** 0.5 * np.linalg.norm(p))
        for eps in (2.0**-6, 2.0**-10, 2.0**-14):
            coeffs = solve_coupling(tuned2, Z, eps, p)
            dev = asymptotic_deviation(coeffs, DECOUPLED)
            assert np.isfinite(dev.dev_q) and np.isfinite(dev.dev_xi)
            assert dev.dev_q == pytest.approx(np.linalg.norm(coeffs.q) / np.linalg.norm(p),
                                              rel=1e-15)
            assert dev.dev_xi == pytest.approx(
                np.linalg.norm(coeffs.xi - p) / np.linalg.norm(p), rel=1e-15)
        assert dev.dev_q == pytest.approx(far, rel=1e-3)

    def test_expansion_coefficient(self, zero_profile):
        # entrywise epsilon-coefficient of the q-map along the sweep
        proj = resonant_projector(zero_profile)
        eps = np.array([2.0**-k for k in range(8, 15)])
        coefs = []
        for e in eps:
            kernel = vertex_kernel_at(zero_profile, e**2 * Z)
            lam = corners(kernel)
            m = np.linalg.solve(np.eye(2) - 1j * e * SQ * lam, e * lam)
            coefs.append((m - 1j * proj.lambda0 / SQ) / e)
        fitted = np.mean(coefs[-3:], axis=0)
        lam0_block = proj.lambda0 @ fitted @ proj.lambda0
        target = proj.lambda0 @ proj.first_order @ proj.lambda0  # -P0 / (a1^2 + a2^2)
        assert np.max(np.abs(lam0_block - target)) <= 0.05 * np.max(np.abs(target))
        # the perpendicular block is a real first-order effect; it must
        # match the regular corner part sandwiched by the complement
        full_target = proj.first_order
        assert np.max(np.abs(fitted - full_target)) <= 0.05 * np.max(np.abs(full_target))

    def test_lambda0_sign_invariance_via_spectrum(self, zero_profile):
        # Lambda_0 built from (alpha1, alpha2) is unchanged under y* -> -y*
        from wglimit.vertex_spectrum import spectrum_for_case

        spec = spectrum_for_case(zero_profile)
        p1 = kirchhoff_projector(spec.case.alpha1, spec.case.alpha2)
        p2 = kirchhoff_projector(-spec.case.alpha1, -spec.case.alpha2)
        assert np.max(np.abs(p1.lambda0 - p2.lambda0)) < 1e-15


class TestHelpers:
    def test_regular_corner_part_zero_profile(self, zero_profile):
        # closed form: parallel eigenvalue 1/3, perpendicular eigenvalue 1;
        # W_0 = 0 exactly for the zero profile
        taylor = taylor_shooting(zero_profile)
        assert taylor.wronskian[0] == 0.0
        r0 = taylor.pole_parts()[1]
        expect = np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3.0
        assert np.max(np.abs(r0 - expect)) < 1e-10

    @pytest.mark.parametrize("profile_name", ["zero_profile", "tuned2"])
    def test_residue_is_the_weighted_projector(self, profile_name, request):
        # N_0 / W_1 = -(alpha1^2 + alpha2^2) P0 at a resonance
        profile = request.getfixturevalue(profile_name)
        case = spectrum_for_case(profile).case
        proj = kirchhoff_projector(case.alpha1, case.alpha2)
        nsq = case.alpha1**2 + case.alpha2**2
        residue = taylor_shooting(profile).pole_parts()[0]
        assert np.max(np.abs(residue + nsq * proj.lambda0)) < 1e-10

    def test_resonant_projector_rejects_generic(self, bump05):
        with pytest.raises(ValueError):
            resonant_projector(bump05)
