"""Adaptive 1D, surface, and nested integration engines."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lubgap.geometry import GapProfile
from lubgap.quadrature import (
    CachedAntiderivative,
    QuadratureError,
    QuadResult,
    QuadSpec,
    integrate_1d,
    integrate_nested,
    integrate_surface,
)


class TestQuadSpec:
    def test_defaults(self):
        spec = QuadSpec()
        assert spec.rel_tol > 0.0
        assert spec.max_subdivisions > 0

    def test_requires_positive_tolerance(self):
        with pytest.raises(ValueError):
            QuadSpec(abs_tol=0.0, rel_tol=0.0)

    def test_with_splits(self):
        spec = QuadSpec().with_splits([0.25, 0.5])
        assert spec.split_points == (0.25, 0.5)


class TestIntegrate1d:
    def test_constant(self):
        res = integrate_1d(lambda t: np.ones_like(t), 0.0, 1.0, vectorized=True)
        assert res.value == pytest.approx(1.0, abs=1e-14)
        assert res.error_estimate <= 1e-10

    def test_sin(self):
        res = integrate_1d(np.sin, 0.0, math.pi, vectorized=True)
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_boundary_layer_kernel(self):
        eps = 1e-4
        res = integrate_1d(
            lambda t: t / (eps + t * t),
            0.0,
            1.0,
            QuadSpec(rel_tol=1e-12, max_subdivisions=400),
            vectorized=True,
        )
        assert res.value == pytest.approx(0.5 * math.log(1.0 + 1.0 / eps), rel=1e-10)

    def test_budget_exhausted(self):
        eps = 1e-12
        with pytest.raises(QuadratureError) as exc:
            integrate_1d(
                lambda t: t / (eps + t * t),
                0.0,
                1.0,
                QuadSpec(rel_tol=1e-14, max_subdivisions=2),
                vectorized=True,
            )
        # best-effort result travels with the error
        assert isinstance(exc.value.result, QuadResult)

    def test_split_invariance(self):
        spec = QuadSpec(rel_tol=1e-12, max_subdivisions=200)
        base = integrate_1d(np.exp, 0.0, 1.0, spec, vectorized=True)
        split = integrate_1d(
            np.exp, 0.0, 1.0, spec.with_splits([0.3, 0.7]), vectorized=True
        )
        assert abs(base.value - split.value) <= base.error_estimate + split.error_estimate + 1e-14

    @given(
        a=st.floats(-1.0, 0.5),
        width=st.floats(0.1, 2.0),
        c0=st.floats(-3.0, 3.0),
        c1=st.floats(-3.0, 3.0),
    )
    @settings(max_examples=30, deadline=None)
    # 1 - t^2 cancels on [0, 1.734375] below the roundoff floor of rel_tol
    @example(a=0.0, width=1.734375, c0=1.0, c1=-1.0)
    def test_linearity_on_polynomials(self, a, width, c0, c1):
        b = a + width
        spec = QuadSpec(rel_tol=1e-12, max_subdivisions=100)
        combo = integrate_1d(lambda t: c0 + c1 * t * t, a, b, spec, vectorized=True)
        part0 = integrate_1d(lambda t: np.ones_like(t), a, b, spec, vectorized=True)
        part1 = integrate_1d(lambda t: t * t, a, b, spec, vectorized=True)
        assert combo.value == pytest.approx(
            c0 * part0.value + c1 * part1.value, abs=1e-10, rel=1e-10
        )


class TestIntegrateSurface:
    def _profile(self, eps=1e-3):
        return GapProfile(
            kind="m-convex", m=2.0, s=0.0, eps=eps, r=0.5, R=2.0, dimension=3
        )

    def test_cap_area(self):
        # area of the paraboloid cap: 2*pi * int_0^r sqrt(1+t^2) t dt
        res = integrate_surface(lambda sp: 1.0, self._profile())
        expected = (2.0 * math.pi / 3.0) * (1.25**1.5 - 1.0)
        assert res.value == pytest.approx(expected, rel=1e-9)

    def test_projected_area(self):
        # n3 * dS = -dx' exactly, so integrating n3 gives -pi r^2
        res = integrate_surface(lambda sp: sp.n[2], self._profile())
        assert res.value == pytest.approx(-math.pi * 0.25, rel=1e-10)

    def test_odd_integrand_vanishes(self):
        # a pure relative target is unreachable on an exactly-zero integral
        spec = QuadSpec(abs_tol=1e-12, rel_tol=1e-9)
        res = integrate_surface(lambda sp: sp.xprime[0], self._profile(), spec)
        assert abs(res.value) <= max(res.error_estimate, 1e-12)

    def test_projection_identity_flat(self):
        prof = GapProfile(
            kind="flat-capped", m=2.0, s=0.1, eps=1e-3, r=0.5, R=2.0, dimension=3
        )
        res = integrate_surface(lambda sp: -sp.n[2], prof)
        assert res.value == pytest.approx(math.pi * 0.25, rel=1e-9)


class TestNested:
    def test_polynomial(self):
        # inner(x) = int_0^x t^2 dt = x^3/3; outer integral over [0,1] = 1/12
        res = integrate_nested(
            outer=lambda x, inner: inner,
            kernel=lambda t: t * t,
            a=0.0,
            b=1.0,
        )
        assert res.value == pytest.approx(1.0 / 12.0, rel=1e-8)

    def test_anchor_point_is_zero(self):
        cache = CachedAntiderivative(
            lambda t: t * t, lo=-0.5, hi=0.5, x0=-0.5, tol=1e-10
        )
        assert float(cache(-0.5)) == pytest.approx(0.0, abs=1e-14)

    def test_cache_matches_direct(self):
        eps = 1e-2
        kernel = lambda t: t * t / (eps + t * t) ** 3
        cache = CachedAntiderivative(kernel, lo=0.0, hi=0.5, x0=0.0, tol=1e-10)
        for x in (0.05, 0.2, 0.37, 0.5):
            direct = integrate_1d(
                kernel,
                0.0,
                x,
                QuadSpec(rel_tol=1e-12, max_subdivisions=200),
                vectorized=True,
            )
            assert float(cache(x)) == pytest.approx(direct.value, rel=1e-7)
