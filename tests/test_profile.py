from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wglimit import CurvatureProfile
from wglimit.profile import (
    ProfileError,
    check_potential_identity,
    eval_geometry,
    geometry_fields,
    geometry_residual_fields,
    tune_to_resonance,
)

from conftest import log_slope, plain_geometry

SRC = Path(__file__).resolve().parents[1] / "src"


def central_diff(f, s, h=1e-5):
    return (f(s + h) - f(s - h)) / (2 * h)


class TestEvalGamma:
    def test_zero_profile_is_zero(self, zero_profile):
        assert zero_profile.gamma(0.3, 0) == 0.0

    def test_bump_peak_equals_amplitude(self, bump05):
        assert bump05.gamma(0.0, 0) == pytest.approx(0.5, abs=1e-15)

    def test_vanishes_outside_support(self, bump05):
        for s in (-1.0, 1.0, -1.5, 2.0):
            for order in (0, 1, 2):
                assert bump05.gamma(s, order) == 0.0

    def test_first_derivative_matches_finite_difference(self, bump05):
        fd = central_diff(lambda s: bump05.gamma(s, 0), 0.5)
        assert abs(bump05.gamma(0.5, 1) - fd) < 1e-8

    def test_second_derivative_matches_finite_difference(self, bump05):
        for s in (-0.7, -0.2, 0.1, 0.6):
            fd = central_diff(lambda t: bump05.gamma(t, 1), s)
            assert abs(bump05.gamma(s, 2) - fd) < 1e-6

    def test_smooth_decay_near_support_edge(self, bump05):
        # gamma and two derivatives all collapse approaching +-1
        for order in (0, 1, 2):
            assert abs(bump05.gamma(0.999, order)) < 1e-100

    def test_rejects_bad_order(self, bump05):
        with pytest.raises(ProfileError):
            bump05.gamma(0.0, 3)

    @pytest.mark.parametrize("profile", [
        CurvatureProfile.zero(), CurvatureProfile.bump(0.5), CurvatureProfile.bump(-0.7),
        CurvatureProfile("tuned_bump", 6.104017588677615, 2),
        CurvatureProfile("tuned_bump", -6.1, 2),
    ])
    def test_scalar_path_is_bitwise_the_array_path(self, profile, rng):
        s = np.concatenate([[-1.0, 1.0, 0.0, -0.0, 1.0 - 1e-16, -1.5],
                            rng.uniform(-1.2, 1.2, 2000)])
        scalar = np.array([profile.gamma(float(v)) for v in s])
        # compared as bit patterns, so the -0.0 of a negative amplitude counts
        assert np.array_equal(scalar.view(np.int64), profile.gamma(s).view(np.int64))


class TestConstruction:
    def test_amplitude_cap(self):
        with pytest.raises(ProfileError):
            CurvatureProfile.bump(1.0)

    def test_zero_amplitude_rejected(self):
        with pytest.raises(ProfileError):
            CurvatureProfile.bump(0.0)

    def test_tuned_requires_target(self):
        with pytest.raises(ProfileError):
            CurvatureProfile("tuned_bump", 5.0, None)

    @pytest.mark.parametrize("frag", [
        {"kind": "tuned_bump", "amplitude": 6.1, "target_index": "2"},
        {"kind": "tuned_bump", "amplitude": 6.1, "target_index": 2.5},
        {"kind": "tuned_bump", "amplitude": 6.1, "target_index": True},
        {"kind": "tuned_bump", "amplitude": 6.1, "target_index": 1},
        {"kind": "bump", "amplitude": 0.5, "target_index": 2},
        {"kind": "zero", "target_index": 2},
    ])
    def test_target_index_is_an_integer_on_tuned_bumps_only(self, frag):
        with pytest.raises(ProfileError):
            CurvatureProfile.from_json_fragment(frag)

    def test_unknown_key_rejected(self):
        # "target" used to be dropped, and the fragment ran as an untuned bump
        with pytest.raises(ProfileError, match=r"unknown keys \['target'\]"):
            CurvatureProfile.from_json_fragment({"kind": "bump", "amplitude": 0.5, "target": 3})

    @pytest.mark.parametrize("amplitude", [None, [0.5], "half", "0.5", True])
    def test_non_numeric_amplitude_rejected(self, amplitude):
        # null and [0.5] used to escape as a bare TypeError (exit 1 from the CLI);
        # "0.5" and true used to load as untuned amplitudes 0.5 and 1.0
        with pytest.raises(ProfileError, match="amplitude"):
            CurvatureProfile.from_json_fragment({"kind": "tuned_bump", "amplitude": amplitude,
                                                 "target_index": 2})

    def test_json_round_trip(self, bump05, tuned2):
        for prof in (CurvatureProfile.zero(), bump05, tuned2):
            frag = json.loads(json.dumps(prof.to_json_fragment()))
            assert CurvatureProfile.from_json_fragment(frag) == prof


class TestEvalGeometry:
    def test_zero_profile_flat(self, zero_profile):
        g = eval_geometry(zero_profile, 0.2, 0.7, 0.5)
        assert g.g == 1.0 and g.ds_inv_g == 0.0 and g.W == 0.0

    def test_u_zero_collapses_to_gamma_sq(self, bump05):
        g = eval_geometry(bump05, 0.0, 0.0, 0.3)
        assert g.g == 1.0
        assert g.W == pytest.approx(-0.0625, abs=1e-15)

    def test_against_finite_difference_oracle(self, bump05):
        # Oracle: build g pointwise from gamma values only, differentiate
        # 1/g and the three W ingredients numerically.
        s, u, rho = 0.2, 0.7, 0.4
        geo = eval_geometry(bump05, s, u, rho)

        def g_of(sv):
            return (1.0 + u * rho * bump05.gamma(sv, 0)) ** 2

        assert geo.g == pytest.approx(g_of(s), abs=1e-14)
        assert geo.inv_g == pytest.approx(1.0 / g_of(s), abs=1e-14)
        fd = central_diff(lambda sv: 1.0 / g_of(sv), s)
        assert geo.ds_inv_g == pytest.approx(fd, abs=1e-7)
        gam = bump05.gamma(s, 0)
        gam1_fd = central_diff(lambda sv: bump05.gamma(sv, 0), s)
        gam2_fd = (bump05.gamma(s + 1e-4, 1) - bump05.gamma(s - 1e-4, 1)) / 2e-4
        a = 1.0 + u * rho * gam
        w_oracle = (-0.25 * gam**2 / a**2 + 0.5 * u * rho * gam2_fd / a**3
                    - 1.25 * (u * rho * gam1_fd) ** 2 / a**4)
        assert geo.W == pytest.approx(w_oracle, abs=1e-7)

    def test_rejects_bad_ratio(self, bump05):
        with pytest.raises(ProfileError):
            eval_geometry(bump05, 0.0, 0.5, 0.0)
        with pytest.raises(ProfileError):
            eval_geometry(bump05, 0.0, 0.5, 1.5)

    def test_tuned_profile_ratio_restriction(self, tuned2):
        with pytest.raises(ProfileError):
            eval_geometry(tuned2, 0.0, 1.0, 0.5)
        eval_geometry(tuned2, 0.0, 1.0, 0.1)  # valid below 1/amplitude

    @given(s=st.floats(-1.0, 1.0), u=st.floats(0.0, 1.0),
           rho=st.floats(0.01, 1.0), amp=st.floats(0.05, 0.999))
    @settings(max_examples=200, deadline=None)
    def test_metric_bounds(self, s, u, rho, amp):
        prof = CurvatureProfile.bump(amp)
        g = eval_geometry(prof, s, u, rho).g
        assert (1.0 - amp) ** 2 - 1e-12 <= g <= (1.0 + amp) ** 2 + 1e-12 < 4.0

    def test_boundary_metric_is_one(self, bump05):
        for u in (0.0, 0.3, 1.0):
            assert eval_geometry(bump05, -1.0, u, 0.8).g == 1.0
            assert eval_geometry(bump05, 1.0, u, 0.8).g == 1.0

    def test_w_converges_to_gamma_sq_quarter(self, bump05):
        # max-grid defect of W + gamma^2/4 is O(ratio)
        s = np.linspace(-0.95, 0.95, 41)
        u = np.linspace(0.0, 1.0, 21)
        ratios = [2.0**-k for k in range(2, 9)]
        defects = []
        for rho in ratios:
            f = geometry_fields(bump05, s[:, None], u[None, :], rho)
            gam = bump05.gamma(s)[:, None]
            defects.append(np.max(np.abs(f["W"] + 0.25 * gam**2)))
        slope = log_slope(ratios, defects)
        assert abs(slope - 1.0) < 0.1


class TestPotentialIdentity:
    def grid(self, n=20):
        s = np.linspace(-0.95, 0.95, n)
        u = np.linspace(0.05, 0.95, n)
        return [(sv, uv) for sv in s for uv in u]

    def test_zero_profile(self, zero_profile):
        assert check_potential_identity(zero_profile, 0.5, self.grid()) == 0.0

    def test_bump(self, bump05):
        assert check_potential_identity(bump05, 0.3, self.grid()) <= 1e-8

    def test_extreme_ratio(self):
        prof = CurvatureProfile.bump(0.9)
        assert check_potential_identity(prof, 1.0, self.grid()) <= 1e-8

    def test_empty_grid_rejected(self, bump05):
        with pytest.raises(ProfileError):
            check_potential_identity(bump05, 0.3, [])


class TestResidualFields:
    def test_matches_plain_difference(self, bump05):
        s = np.linspace(-0.9, 0.9, 7)
        u = np.linspace(0.1, 1.0, 5)
        rho = 0.25
        f = geometry_residual_fields(bump05, s[:, None], u[None, :], rho)
        g = geometry_fields(bump05, s[:, None], u[None, :], rho)
        plain = plain_geometry(bump05, s[:, None], u[None, :], rho)
        gam = bump05.gamma(s)[:, None]
        assert np.allclose(f["inv_g_minus_1"], plain["inv_g"] - 1.0, atol=1e-14)
        assert np.allclose(f["w_plus_quarter_gamma_sq"], plain["W"] + 0.25 * gam**2,
                           atol=1e-14)
        assert np.allclose(f["ds_inv_g"], plain["ds_inv_g"], atol=1e-14)
        for key in ("inv_g", "ds_inv_g", "W"):
            assert np.allclose(g[key], plain[key], atol=1e-14)
        assert np.allclose(g["g"] * plain["inv_g"], 1.0, atol=1e-14)

    @staticmethod
    def expression_fields(profile, s, u, ratio):
        """The fields as plain expressions with their temporaries, the form
        the in-place assembly must match bit for bit (test-side reference)."""
        s = np.asarray(s, dtype=float)
        u = np.asarray(u, dtype=float)
        gam = profile.gamma(s, 0)
        gam1 = profile.gamma(s, 1)
        gam2 = profile.gamma(s, 2)
        b = u * ratio * gam
        a = 1.0 + b
        two_plus_b, a_sq, a_cube = 2.0 + b, a * a, a**3
        inv_g_minus_1 = -b * two_plus_b / a_sq
        urg1 = u * ratio * gam1
        w_plus = (
            0.25 * gam * gam * b * two_plus_b / a_sq
            + 0.5 * (u * ratio * gam2) / a_cube
            - 1.25 * urg1 * urg1 / a**4
        )
        ds_inv_g = -2.0 * urg1 / a_cube
        return {
            "inv_g_minus_1": inv_g_minus_1,
            "w_plus_quarter_gamma_sq": w_plus,
            "ds_inv_g": ds_inv_g,
            "gamma_sq": gam * gam,
        }

    @pytest.mark.parametrize("profile_name", ["zero_profile", "bump05", "tuned2"])
    @pytest.mark.parametrize("ratio", [1e-9, 0.013, 0.1])
    def test_in_place_terms_keep_the_expression_bits(self, profile_name, ratio, rng, request):
        profile = request.getfixturevalue(profile_name)
        s = rng.uniform(-1.0, 1.0, 37)
        u = rng.uniform(0.0, 1.0, 11)
        for args in ((s[:, None], u[None, :]), (s, rng.uniform(0.0, 1.0, 37)),
                     (s, 0.4), (0.3, u), (0.3, 0.4), (-0.7, 1.0)):
            got = geometry_residual_fields(profile, *args, ratio)
            expect = self.expression_fields(profile, *args, ratio)
            assert got.keys() == expect.keys()
            for key, value in expect.items():
                assert type(got[key]) is type(value), key
                assert np.shape(got[key]) == np.shape(value), key
                assert np.asarray(got[key]).tobytes() == np.asarray(value).tobytes(), key

    def test_accurate_at_tiny_ratio(self, bump05):
        # the dedicated assembly stays O(ratio) where naive differencing
        # would be pure cancellation noise
        f = geometry_residual_fields(bump05, 0.3, 0.5, 1e-12)
        assert 0 < abs(f["w_plus_quarter_gamma_sq"]) < 1e-11
        assert 0 < abs(f["inv_g_minus_1"]) < 1e-11


class TestTuneToResonance:
    def test_zero_profile_rejected(self, zero_profile):
        with pytest.raises(ProfileError):
            tune_to_resonance(zero_profile, 2)

    def test_index_one_rejected(self, bump05):
        with pytest.raises(ProfileError):
            tune_to_resonance(bump05, 1)

    @pytest.mark.parametrize("index", [4, 10**9])
    def test_index_above_three_rejected(self, bump05, index):
        # lambda_4 >= (3 pi/2)^2 - 8^2/4 > 0 at every amplitude up to the cap
        with pytest.raises(ProfileError, match="stays positive"):
            tune_to_resonance(bump05, index)

    def test_tuned_eigenvalue_is_zero(self, tuned2):
        from wglimit.vertex_spectrum import eigenvalue_by_index

        assert abs(eigenvalue_by_index(tuned2, 2)) < 1e-10

    def test_kernel_pole_sits_at_zero(self, tuned2):
        # tuning roots the Taylor Wronskian the vertex kernel reads
        from wglimit.vertex_spectrum import taylor_shooting

        wr = taylor_shooting(tuned2).wronskian
        assert abs(wr[0] / wr[1]) <= 1e-13

    def test_two_term_wronskian_is_the_taylor_one(self, tuned2):
        # the tuning polish reads W_0, W_1 from a one-sided 2-term solve
        from wglimit.vertex_spectrum import _coefficient_solve, taylor_shooting

        two = _coefficient_solve(tuned2, [0.0], 2, "test")[0].states[-1, :, 1]
        assert np.max(np.abs(two - taylor_shooting(tuned2).wronskian[:2])) <= 1e-15

    def test_tuning_adds_at_most_one_taylor_solve(self, bump05):
        from wglimit import profile
        from wglimit.vertex_spectrum import taylor_shooting

        profile._tuned_amplitude.cache_clear()
        taylor_shooting.cache_clear()
        tune_to_resonance(bump05, 2)
        assert taylor_shooting.cache_info().currsize <= 1

    def test_amplitude_grid_is_one_batched_solve(self, bump05):
        # the 16-point scan takes no per-amplitude Galerkin eigensolve, the
        # bracket stops at its noise floor after about five, and the tuned
        # amplitude is unchanged
        from wglimit import profile
        from wglimit.vertex_spectrum import _galerkin_eigenpairs

        profile._tuned_amplitude.cache_clear()
        _galerkin_eigenpairs.cache_clear()
        tune_to_resonance(bump05, 2)
        assert _galerkin_eigenpairs.cache_info().misses <= 6
        assert profile._tuned_amplitude(2) == 6.104017588677534

    def test_amplitude_independent_of_blas_threads(self):
        # the Galerkin matrix is one FFT, not a BLAS product whose rounding
        # depends on the thread count
        script = "from wglimit.profile import _tuned_amplitude; print(repr(_tuned_amplitude(2)))"
        path = os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
        amps = {subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                               text=True, env=dict(os.environ, PYTHONPATH=path,
                                                   OPENBLAS_NUM_THREADS=threads)).stdout
                for threads in ("1", "2")}
        assert amps == {"6.104017588677534\n"}

    def test_classifies_as_resonant(self, tuned2):
        from wglimit.vertex_spectrum import classify

        case = classify(tuned2)
        assert case.resonant and case.n_star == 2
        assert case.alpha1 * case.alpha2 < 0  # one interior node
