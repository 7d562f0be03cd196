"""Adaptive integration and panel rules."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lubgap.quadrature import (
    QuadratureError,
    QuadResult,
    QuadSpec,
    integrate_1d,
    kronrod_panels,
    trapezoid_ring,
)

from helpers import cumulative_sums


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
        res = integrate_1d(lambda t: np.ones_like(t), 0.0, 1.0)
        assert res.value == pytest.approx(1.0, abs=1e-14)
        assert res.error_estimate <= 1e-10

    def test_sin(self):
        res = integrate_1d(np.sin, 0.0, math.pi)
        assert res.value == pytest.approx(2.0, rel=1e-12)

    def test_boundary_layer_kernel(self):
        eps = 1e-4
        res = integrate_1d(
            lambda t: t / (eps + t * t),
            0.0,
            1.0,
            QuadSpec(rel_tol=1e-12, max_subdivisions=400),
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
            )
        # best-effort result travels with the error
        assert isinstance(exc.value.result, QuadResult)

    def test_split_invariance(self):
        spec = QuadSpec(rel_tol=1e-12, max_subdivisions=200)
        base = integrate_1d(np.exp, 0.0, 1.0, spec)
        split = integrate_1d(np.exp, 0.0, 1.0, spec.with_splits([0.3, 0.7]))
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
        combo = integrate_1d(lambda t: c0 + c1 * t * t, a, b, spec)
        part0 = integrate_1d(lambda t: np.ones_like(t), a, b, spec)
        part1 = integrate_1d(lambda t: t * t, a, b, spec)
        assert combo.value == pytest.approx(
            c0 * part0.value + c1 * part1.value, abs=1e-10, rel=1e-10
        )


class TestPanelRules:
    def test_kronrod_panels_cumulative(self):
        # degree 6 is below the 7-point Gauss degree, so both rules are exact
        edges = np.array([-1.0, -0.2, 0.5, 1.5])
        rule = kronrod_panels(edges)
        full, low, cum = cumulative_sums(rule, rule.x**6)
        assert full.shape == low.shape == (3,)
        assert np.max(np.abs(full - low)) <= 1e-14
        assert cum == pytest.approx((edges**7 - edges[0] ** 7) / 7.0, rel=1e-13)
        assert cumulative_sums(rule, np.stack([rule.x, -rule.x]))[2].shape == (2, 4)

    def test_trapezoid_ring(self):
        # the ring is one panel of [0, 2pi]; its embedded rule the even nodes
        ring = trapezoid_ring(64)[2]
        assert ring.x.shape == (1, 64)
        full, low, _ = cumulative_sums(ring, np.cos(3.0 * ring.x) ** 2)
        assert full[0] == pytest.approx(np.pi, rel=1e-14)
        assert low[0] == pytest.approx(np.pi, rel=1e-14)
        full, low, _ = cumulative_sums(ring, np.cos(16.0 * ring.x) ** 2)
        assert full[0] == pytest.approx(np.pi, rel=1e-14)
        assert low[0] == pytest.approx(2.0 * np.pi, rel=1e-14)

    def test_short_ring(self):
        # both rules of the 8-point ring are exact below degree 4; the
        # embedded 4-point rule aliases degree 4 onto the constant
        ring = trapezoid_ring(8)[2]
        assert ring.x.shape == (1, 8)
        full, low, _ = cumulative_sums(ring, np.cos(ring.x + 0.3) ** 2 + np.sin(3.0 * ring.x))
        assert full[0] == pytest.approx(np.pi, rel=1e-14)
        assert low[0] == pytest.approx(np.pi, rel=1e-14)
        full, low, _ = cumulative_sums(ring, np.cos(2.0 * ring.x) ** 2)
        assert full[0] == pytest.approx(np.pi, rel=1e-14)
        assert low[0] == pytest.approx(2.0 * np.pi, rel=1e-14)
