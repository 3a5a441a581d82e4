from __future__ import annotations

import cmath
import warnings

import numpy as np
import pytest
from scipy.special import roots_legendre, wofz

from wglimit import ExpDecay, GaussianPulse, Indicator, neumann_free_kernel, vertex_kernel_at
from wglimit import kernels
from wglimit.cli import build_parser
from wglimit.kernels import (
    WRONSKIAN_FLOOR,
    HalfLineResolvent,
    KernelError,
    NearEigenvalueError,
    boundary_derivative,
    boundary_derivatives,
    half_line_apply_grid,
    series_kernel,
    sqrt_upper,
)
from wglimit.vertex_spectrum import SERIES_RADIUS, SERIES_TERMS, shoot, taylor_shooting

from conftest import corners


def panel_quad(fn, a, b, breakpoints=(), panels=64, order=8):
    """Composite Gauss-Legendre with forced panel breaks (test oracle)."""
    edges = np.unique(np.concatenate([np.linspace(a, b, panels + 1),
                                      [p for p in breakpoints if a < p < b]]))
    nodes, weights = roots_legendre(order)
    total = 0.0 + 0.0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
        total += half * np.sum(weights * fn(mid + half * nodes))
    return total


def gaussian_moment(beta, g, a, b=None):
    """Integral_a^b exp(beta t) g(t) dt for g = GaussianPulse, b = None for
    infinity, by completing the square (test oracle).

    A tail Integral_x^inf (side 1) or Integral_-inf^x (side -1) is
    exp(beta x) g(x) (w sqrt(pi)/2) wofz(side i (x - m)/w), m = c + beta w^2/2,
    whose Faddeeva factor is bounded for x on that side of Re m.  The range
    is split at Re m, so each piece is a difference of two such tails, the
    larger of which is the piece itself: nothing cancels or overflows at any
    |beta|.
    """
    c, w = g.center, g.width
    m = c + beta * w**2 / 2
    a = np.asarray(a, dtype=float)
    b = np.full_like(a, np.inf) if b is None else np.asarray(b, dtype=float)

    def tail(x, side):
        """The tail at x, or 0 at infinity and on the other side of Re m
        (where the split puts both ends of a piece at Re m's clip)."""
        use = np.isfinite(x) & (side * (x - m.real) >= 0)
        x = np.where(use, x, m.real)
        val = (0.5 * w * np.sqrt(np.pi) * np.exp(beta * x - ((x - c) / w) ** 2)
               * wofz(side * 1j * (x - m) / w))
        return np.where(use, val, 0.0)

    split = np.clip(m.real, a, b)
    return (tail(split, -1) - tail(a, -1)) + (tail(split, 1) - tail(b, 1))


def r0_closed_form(k, f, s):
    """(r0 f)(s) in closed form for the edge data records (test oracle).

    ExpDecay: c (e^{iks} - e^{-as}) / (a^2 + k^2).  Otherwise
    (i/2k) [e^{iks} A(s) + e^{-iks} B(s) - e^{iks} B(0)] with the
    antiderivatives A(s) = Int_0^s e^{-ikt} f dt and B(s) = Int_s^inf e^{ikt} f dt.
    """
    s = np.asarray(s, dtype=float)
    if isinstance(f, ExpDecay):
        return f.coefficient * (np.exp(1j * k * s) - np.exp(-f.rate * s)) / (f.rate**2 + k**2)
    if isinstance(f, Indicator):
        m = np.clip(s, f.lo, f.hi)
        a_s = (np.exp(-1j * k * f.lo) - np.exp(-1j * k * m)) / (1j * k)
        b_s = (np.exp(1j * k * f.hi) - np.exp(1j * k * m)) / (1j * k)
        b_0 = (np.exp(1j * k * f.hi) - np.exp(1j * k * f.lo)) / (1j * k)
    else:
        a_s = gaussian_moment(-1j * k, f, 0.0, s)
        b_s = gaussian_moment(1j * k, f, s)
        b_0 = gaussian_moment(1j * k, f, 0.0)
    return (0.5j / k) * (np.exp(1j * k * s) * (a_s - b_0) + np.exp(-1j * k * s) * b_s)


class TestSqrtBranch:
    def test_negative_real(self):
        assert sqrt_upper(-4.0) == pytest.approx(2j)

    def test_flip_to_upper_half(self):
        assert sqrt_upper(1 - 1e-9j).imag > 0

    def test_square_recovers(self):
        for z in (1 + 1j, -2 + 0.3j, 0.5 - 2j):
            assert sqrt_upper(z) ** 2 == pytest.approx(z)


class TestFreeKernel:
    def test_endpoint_collapse(self):
        z = 1j
        sq = cmath.sqrt(z)
        expect = -cmath.cos(2 * sq) / (sq * cmath.sin(2 * sq))
        assert neumann_free_kernel(z, 1.0, 1.0) == pytest.approx(expect)
        assert neumann_free_kernel(z, -1.0, -1.0) == pytest.approx(expect)

    def test_matches_shooting_kernel(self, zero_profile):
        z = 1 + 1j
        kernel = vertex_kernel_at(zero_profile, z)
        assert abs(kernel.value(-0.2, 0.4) - neumann_free_kernel(z, -0.2, 0.4)) < 1e-9

    def test_symmetry(self):
        z = 1 + 1j
        assert neumann_free_kernel(z, 0.4, -0.2) == neumann_free_kernel(z, -0.2, 0.4)

    def test_near_eigenvalue_guard(self):
        with pytest.raises(NearEigenvalueError):
            neumann_free_kernel(0.0, 0.1, 0.2)


class TestVertexKernel:
    def test_zero_profile_reduces_to_free(self, zero_profile):
        kernel = vertex_kernel_at(zero_profile, 1j)
        grid = np.linspace(-1, 1, 21)
        s, sp = grid[:, None], grid[None, :]
        err = np.max(np.abs(kernel.value(s, sp) - neumann_free_kernel(1j, s, sp)))
        assert err < 1e-8

    def test_symmetry(self, bump05):
        kernel = vertex_kernel_at(bump05, 1 + 1j)
        assert abs(kernel.value(0.3, -0.6) - kernel.value(-0.6, 0.3)) < 1e-10

    @pytest.mark.parametrize("profile_name", ["bump05", "tuned2", "zero_profile"])
    def test_series_agrees_with_wronskian(self, profile_name, request, rng):
        profile = request.getfixturevalue(profile_name)
        z = 1 + 1j
        kw = vertex_kernel_at(profile, z)
        pts = rng.uniform(-1, 1, size=(10, 2))
        for s, sp in pts:
            assert abs(kw.value(s, sp) - series_kernel(profile, z, s, sp, n_terms=200)) < 1e-6
        ks_corners = np.array([[series_kernel(profile, z, a, b, n_terms=200)
                                for b in (-1.0, 1.0)] for a in (-1.0, 1.0)])
        assert np.max(np.abs(corners(kw) - ks_corners)) < 1e-6

    @pytest.mark.parametrize("profile_name", ["bump05", "tuned2"])
    def test_series_grid_matches_scalar_calls(self, profile_name, request):
        # the grid call sums the expansion as matrix products, a scalar call per
        # point pair in another order
        profile = request.getfixturevalue(profile_name)
        z, grid = -2 + 0.5j, np.linspace(-1.0, 1.0, 9)
        matrix = series_kernel(profile, z, grid[:, None], grid[None, :], n_terms=120)
        scalar = [[series_kernel(profile, z, a, b, n_terms=120) for b in grid] for a in grid]
        assert all(type(v) is complex for row in scalar for v in row)
        assert np.max(np.abs(matrix - np.array(scalar)) / np.abs(scalar)) < 1e-13

    def test_near_eigenvalue_guard(self, zero_profile, tmp_path):
        # only the kernel command's r = zeta eta / Wv refuses a point below the
        # floor; the shooting solution itself, which the sweeps read, is returned
        assert abs(vertex_kernel_at(zero_profile, 0.0).wronskian) < WRONSKIAN_FLOOR
        args = build_parser().parse_args(["kernel", "--profile", "zero", "--z", "0,0",
                                          "--out", str(tmp_path / "k.csv")])
        with pytest.raises(NearEigenvalueError):
            args.func(args)

    @pytest.mark.parametrize("n_terms", [0, -5])
    def test_term_count_below_one_rejected(self, bump05, n_terms):
        # 0 used to give the free Neumann kernel and -5 silently 55 modes
        with pytest.raises(ValueError):
            series_kernel(bump05, 1 + 1j, 0.0, 0.0, n_terms=n_terms)

    @pytest.mark.parametrize("profile_name", ["zero_profile", "bump05", "tuned2"])
    @pytest.mark.parametrize("z", [1j, 1 + 1j, -2 + 0.5j, 30 - 4j, 1e-6j, 1e-3 - 1e-8j])
    def test_corners_are_the_endpoint_values(self, profile_name, z, request):
        # corner_numerator reads eta(-1) and zeta(+1) only; zeta(-1) = eta(+1) = 1 exactly
        kernel = vertex_kernel_at(request.getfixturevalue(profile_name), z)
        four = np.array([[kernel.value(a, b) for b in (-1.0, 1.0)] for a in (-1.0, 1.0)])
        assert corners(kernel).tobytes() == four.tobytes()

    def test_resolvent_identity(self, bump05, rng):
        # r = r0 - r0 (-gamma^2/4) r at scattered points, by quadrature
        z = 1 + 1j
        kernel = vertex_kernel_at(bump05, z)
        for s, sp in rng.uniform(-1, 1, size=(10, 2)):
            def integrand(t):
                t = np.atleast_1d(t)
                r0 = neumann_free_kernel(z, s, t)
                rv = kernel.value(t, np.full_like(t, sp))
                return r0 * (-0.25 * bump05.gamma(t) ** 2) * rv

            correction = panel_quad(integrand, -1.0, 1.0, breakpoints=(s, sp))
            lhs = kernel.value(s, sp)
            rhs = neumann_free_kernel(z, s, sp) - correction
            assert abs(lhs - rhs) < 1e-6

    def test_case1_sup_bound_along_sweep(self, bump05):
        # once eps^2 is below the lowest eigenvalue scale the kernel
        # magnitude saturates
        grid = np.linspace(-1, 1, 41)
        sups = []
        for k in range(4, 10):
            kernel = vertex_kernel_at(bump05, (2.0**-k) ** 2 * 1j)
            vals = kernel.value(grid[:, None] * np.ones_like(grid)[None, :],
                                np.ones_like(grid)[:, None] * grid[None, :])
            sups.append(np.max(np.abs(vals)))
        assert max(sups) <= 2.0 * sups[0]

    def test_case2_subtracted_sup_bound(self, zero_profile):
        grid = np.linspace(-1, 1, 41)
        ystar = 1 / np.sqrt(2)
        sups = []
        for k in range(4, 11):
            w = (2.0**-k) ** 2 * 1j
            kernel = vertex_kernel_at(zero_profile, w)
            vals = kernel.value(grid[:, None] * np.ones_like(grid)[None, :],
                                np.ones_like(grid)[:, None] * grid[None, :])
            sups.append(np.max(np.abs(vals + ystar * ystar / w)))
        assert max(sups) <= 2.0 * sups[0]


class TestTaylorRoute:
    @pytest.mark.parametrize("profile_name", ["zero_profile", "bump05", "tuned2"])
    @pytest.mark.parametrize("radius", [SERIES_RADIUS, SERIES_RADIUS / 4, 1e-6, 1e-12])
    def test_corners_match_shooting(self, profile_name, radius, request):
        profile = request.getfixturevalue(profile_name)
        for arg in (0.5, 1.3, 2.9):
            w = radius * cmath.exp(1j * arg)
            taylor = vertex_kernel_at(profile, w)
            ref = shoot(profile, w)
            # the numerator N(w) = [[eta(-1), 1], [1, zeta(+1)]], Wv and D = chi(+1)
            num, ref_num = taylor.corner_numerator(), ref.corner_numerator()
            scale = np.max(np.abs(ref_num))
            assert np.max(np.abs(num - ref_num)) <= 1e-12 * scale
            assert abs(taylor.wronskian - ref.wronskian) <= 1e-12 * scale
            assert abs(taylor.dirichlet - ref.dirichlet) <= 1e-12 * scale
            if profile_name == "tuned2" and radius < SERIES_RADIUS / 4:
                # at the pole both routes carry ~1e-13 absolute noise in
                # Wv ~ 1.37 w, so the corners themselves are ill-conditioned
                continue
            err = np.max(np.abs(corners(taylor) - corners(ref)))
            assert err <= 1e-12 * np.max(np.abs(corners(ref)))

    def test_shoots_only_outside_the_radius(self, bump05, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return shoot(*args, **kwargs)

        monkeypatch.setattr(kernels, "shoot", counted)
        vertex_kernel_at(bump05, SERIES_RADIUS * 1j)
        vertex_kernel_at(bump05, -SERIES_RADIUS)
        assert calls == []
        vertex_kernel_at(bump05, SERIES_RADIUS * (1 + 1e-9) * 1j)
        assert len(calls) == 1

    @pytest.mark.parametrize("profile_name", ["zero_profile", "bump05", "tuned2"])
    def test_terms_cover_twice_the_radius(self, profile_name, request):
        # the last term kept is below 1e-16 of the leading one at 2 * radius
        taylor = taylor_shooting(request.getfixturevalue(profile_name))
        for coef in (taylor.eta_start, taylor.zeta_end, taylor.wronskian, taylor.dirichlet):
            last = abs(coef[-1]) * (2 * SERIES_RADIUS) ** (SERIES_TERMS - 1)
            assert last <= 1e-16 * np.max(np.abs(coef[:2]))


def s_derivative(kernel, s, endpoint: int):
    """d/ds r(z; s, endpoint): zeta'(s)/Wv at endpoint +1, eta'(s)/Wv at -1."""
    side = kernel.zeta_sol if endpoint == 1 else kernel.eta_sol
    return side(np.asarray(s, dtype=float))[1] / kernel.wronskian


class TestKernelDerivative:
    def test_endpoint_relations(self, bump05):
        kernel = vertex_kernel_at(bump05, 1 + 1j)
        assert s_derivative(kernel, 1.0, 1) == pytest.approx(1.0, abs=1e-9)
        assert s_derivative(kernel, -1.0, -1) == pytest.approx(-1.0, abs=1e-9)
        assert abs(s_derivative(kernel, 1.0, -1)) < 1e-9
        assert abs(s_derivative(kernel, -1.0, 1)) < 1e-9

    def test_matches_finite_difference(self, bump05):
        kernel = vertex_kernel_at(bump05, 1 + 1j)
        h = 1e-5
        fd = (kernel.value(0.2 + h, -1.0) - kernel.value(0.2 - h, -1.0)) / (2 * h)
        assert abs(s_derivative(kernel, 0.2, -1) - fd) < 1e-6

    def test_free_derivative_l2_bounded_along_sweep(self, zero_profile):
        # || d/ds r(eps^2 z; ., +-1) ||_L2 stays bounded as eps -> 0
        grid = np.linspace(-1, 1, 2001)
        for endpoint in (-1, 1):
            norms = []
            for k in range(3, 9):
                kernel = vertex_kernel_at(zero_profile, (2.0**-k) ** 2 * 1j)
                d = s_derivative(kernel, grid, endpoint)
                norms.append(np.sqrt(np.trapezoid(np.abs(d) ** 2, grid)))
            assert max(norms) <= 2.0 * max(norms[0], 1e-12)

    def test_case2_subtracted_derivative_bound(self, tuned2):
        # d/ds r(eps^2 z; ., +-1) + y*' y*(+-1)/(eps^2 z) stays bounded
        from wglimit.vertex_spectrum import spectrum_for_case

        spec = spectrum_for_case(tuned2)
        ystar = spec.functions[spec.case.n_star - 1]
        grid = np.linspace(-1, 1, 2001)
        dstar = ystar.derivative(grid)
        for endpoint, alpha in ((-1, spec.case.alpha1), (1, spec.case.alpha2)):
            norms = []
            for k in range(3, 8):
                w = (2.0**-k) ** 2 * 1j
                kernel = vertex_kernel_at(tuned2, w)
                d = s_derivative(kernel, grid, endpoint) + dstar * alpha / w
                norms.append(np.sqrt(np.trapezoid(np.abs(d) ** 2, grid)))
            assert max(norms) <= 2.0 * norms[0]


class TestHalfLine:
    def test_requires_upper_half_sqrt(self):
        with pytest.raises(KernelError):
            HalfLineResolvent(4.0)

    def test_dirichlet_at_origin(self):
        res = HalfLineResolvent(1j)
        assert half_line_apply_grid(res, ExpDecay(), 0.0) == 0.0

    def test_exp_against_trapezoid_oracle(self):
        res = HalfLineResolvent(1j)
        k = res.sqrt_z
        s = 1.0
        t = np.linspace(0.0, 40.0, 400001)
        integrand = (0.5j / k) * (np.exp(1j * k * np.abs(s - t))
                                  - np.exp(1j * k * (s + t))) * np.exp(-t)
        oracle = np.trapezoid(integrand, t)
        assert abs(half_line_apply_grid(res, ExpDecay(), s) - oracle) < 1e-7

    def test_indicator_against_antiderivative(self):
        z, s = 2j, 0.5
        res = HalfLineResolvent(z)
        k = res.sqrt_z
        part = ((np.exp(1j * k * s) - 1) / (1j * k)
                + (np.exp(1j * k * (1 - s)) - 1) / (1j * k))
        image = np.exp(1j * k * s) * (np.exp(1j * k) - 1) / (1j * k)
        expect = (0.5j / k) * (part - image)
        got = half_line_apply_grid(res, Indicator(0.0, 1.0), s)
        assert abs(got - expect) < 1e-9

    @pytest.mark.parametrize("f", [GaussianPulse(center=2.0, width=0.4),
                                   Indicator(2.0, 3.0), GaussianPulse(center=3.0, width=0.05),
                                   GaussianPulse(center=3.0, width=0.01)])
    def test_grid_against_closed_form(self, rng, f):
        res = HalfLineResolvent(1 + 1j)
        s = np.sort(rng.uniform(0.0, 8.0, size=9))
        expect = r0_closed_form(res.sqrt_z, f, s)
        grid_vals = half_line_apply_grid(res, f, s)
        assert np.max(np.abs(grid_vals - expect)) <= 1e-12 * np.max(np.abs(expect))

    def test_no_overflow_at_large_im_sqrt_z(self):
        # Im sqrt(z) = 100: Im sqrt(z) * s reaches 3000, where sin(ks) alone
        # overflows; r0 f at s = 30 is about 9.4e-18
        res = HalfLineResolvent(-1e4 + 1j)
        s = np.array([0.5, 1.0, 5.0, 30.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = half_line_apply_grid(res, ExpDecay(1.0), s)
        expect = r0_closed_form(res.sqrt_z, ExpDecay(1.0), s)
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - expect)) <= 1e-12 * np.max(np.abs(expect))

    @pytest.mark.parametrize("rate", [1e-6, 1e-320])
    def test_panel_bound(self, rate):
        # the range 40/rate, 4e7 or inf, needs more panels than the bound
        with pytest.raises(ValueError, match="panels"):
            half_line_apply_grid(HalfLineResolvent(1j), ExpDecay(rate=rate), 1.0)

    @pytest.mark.parametrize("f", [GaussianPulse(center=2.0, width=0.4), ExpDecay()])
    def test_grid_across_kink_against_closed_form(self, f):
        # data without breakpoints: the kernel kink at t = s is a panel end;
        # at z = -4 + 0.1i, Im sqrt(z) = 2 and a tail integral taken as a
        # difference of two over (0, inf) loses 1e-10 of |r0 f|
        s = np.linspace(0.25, 7.75, 31)
        for z in (1 + 1j, -4 + 0.1j, -400 + 1j):
            res = HalfLineResolvent(z)
            grid_vals = half_line_apply_grid(res, f, s)
            assert np.max(np.abs(grid_vals - r0_closed_form(res.sqrt_z, f, s))) < 1e-12


class TestBoundaryDerivative:
    def test_zero_data(self):
        res = HalfLineResolvent(1j)
        assert boundary_derivative(res, Indicator(0.0, 0.0)) == pytest.approx(0.0)

    def test_data_vector(self):
        res = HalfLineResolvent(1j)
        p = boundary_derivatives(res, None, ExpDecay())
        assert p.dtype == complex
        assert p[0] == 0.0 and p[1] == boundary_derivative(res, ExpDecay())

    def test_exp_closed_form(self):
        # p = int exp(i sqrt(i) s) exp(-s) ds = 1/(1 - i e^{i pi/4});
        # the sign is pinned by p = (r0 f)'(0), cross-checked below
        res = HalfLineResolvent(1j)
        expect = 1.0 / (1.0 - 1j * cmath.exp(1j * cmath.pi / 4))
        assert boundary_derivative(res, ExpDecay()) == pytest.approx(expect, abs=1e-10)
        # a decay length of 1e-4: panels of a quarter of it
        expect = 1.0 / (1e4 - 1j * res.sqrt_z)
        assert boundary_derivative(res, ExpDecay(1e4)) == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("width", [0.5, 0.01])
    def test_gaussian_closed_form(self, width):
        # panels of half the pulse width
        res = HalfLineResolvent(1j)
        g = GaussianPulse(3.0, width)
        expect = gaussian_moment(1j * res.sqrt_z, g, 0.0)
        assert boundary_derivative(res, g) == pytest.approx(expect, rel=1e-12)

    def test_indicator_closed_form(self):
        res = HalfLineResolvent(1j)
        k = res.sqrt_z
        expect = (cmath.exp(1j * k) - 1) / (1j * k)
        got = boundary_derivative(res, Indicator(0.0, 1.0))
        assert got == pytest.approx(expect, abs=1e-10)

    def test_narrow_indicator_closed_form(self):
        # the quadrature is split at the jump at 5, so the 0.01-wide step is seen
        res = HalfLineResolvent(1j)
        k = res.sqrt_z
        expect = (cmath.exp(5.01j * k) - cmath.exp(5j * k)) / (1j * k)
        got = boundary_derivative(res, Indicator(5.0, 5.01))
        assert got == pytest.approx(expect, rel=1e-10)

    def test_matches_derivative_of_apply(self):
        # second-order one-sided stencil at the boundary; r0 f vanishes at 0
        res = HalfLineResolvent(1j)
        h = 1e-5
        for f in (ExpDecay(), Indicator(0.0, 1.0)):
            x1, x2 = half_line_apply_grid(res, f, np.array([h, 2 * h]))
            fd = (4 * x1 - x2) / (2 * h)
            assert abs(boundary_derivative(res, f) - fd) < 1e-6

