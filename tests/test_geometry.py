"""Gap profiles, surface sampling, normals, lever arms, and Jacobians."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lubgap.config import MIN_SUBDIVISIONS
from lubgap.geometry import (
    FlatHypothesisError,
    GapProfile,
    surface_sample,
)
from lubgap.quadrature import layer_splits

from helpers import flat, mconvex


class TestGapProfile:
    def test_mconvex_requires_no_flat_radius(self):
        with pytest.raises(ValueError):
            GapProfile(
                kind="m-convex", m=2.0, s=0.1, eps=1e-3, r=0.5, R=2.0, dimension=3
            )

    def test_flat_radius_below_gap_radius(self):
        with pytest.raises(ValueError):
            flat(s=0.6)

    @pytest.mark.parametrize("field", ["m", "r", "s", "eps", "R"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_field_rejected(self, field, value):
        # a NaN or infinite field used to pass, and failed later as an
        # exhausted quadrature budget or a quiet NaN expansion value
        for good in (mconvex(), flat()):
            with pytest.raises(ValueError, match="finite"):
                replace(good, **{field: value})

    def test_flat_hypothesis_check(self):
        # s < (sqrt(2)-1) r is required by the flat-cap expansions
        good = flat(s=0.1)
        good.check_flat_hypothesis()
        bad = flat(s=0.25)  # 0.25 > (sqrt(2)-1)*0.5 = 0.207
        with pytest.raises(FlatHypothesisError):
            bad.check_flat_hypothesis()
        with pytest.warns(UserWarning):
            bad.check_flat_hypothesis(override=True)


class TestRadialSplits:
    # the one owner of where gap integrals split: halving steps from the
    # layer, the axis on m-convex profiles and the rim on flat caps

    def test_mconvex_layer_scale(self):
        for m, eps in ((2.0, 1e-4), (2.5, 1e-6), (8.0, 1e-8)):
            prof = mconvex(m=m, eps=eps)
            delta = eps ** (1.0 / m)
            want = [delta * 2.0**j for j in range(60) if delta * 2.0**j < prof.r]
            assert prof.radial_splits() == tuple(want)
        # a layer as wide as the gap region (delta >= r) leaves no split
        assert mconvex(eps=0.5).radial_splits() == ()
        assert mconvex(eps=0.25).radial_splits() == ()

    def test_flat_cap_halves_from_rim(self):
        for s, eps in ((0.05, 1e-4), (0.15, 1e-8), (0.1, 1e-9)):
            prof = flat(s=s, eps=eps)
            delta = math.sqrt(eps)
            want = [s] + [s + delta * 2.0**j for j in range(60) if s + delta * 2.0**j < prof.r]
            assert prof.radial_splits() == tuple(want)
            # no axis split: the cap has h = eps throughout
            assert min(prof.radial_splits()) == s

    def test_2d_mirrored_with_zero(self):
        # m = 1.2 < 2: the halving starts J = ceil(52 / 1.2) = 44 levels below delta
        w0 = 1e-6 ** (1.0 / 1.2) * 2.0**-44
        half = tuple(w0 * 2.0**j for j in range(120) if w0 * 2.0**j < 0.5)
        want = tuple(-p for p in reversed(half)) + (0.0,) + half
        assert mconvex(m=1.2, eps=1e-6, dimension=2).radial_splits() == want
        delta = 1e-6**0.5
        half = tuple(delta * 2.0**j for j in range(60) if delta * 2.0**j < 0.5)
        want = tuple(-p for p in reversed(half)) + (0.0,) + half
        assert mconvex(m=2.0, eps=1e-6, dimension=2).radial_splits() == want
        assert mconvex(eps=0.5, dimension=2).radial_splits() == (0.0,)
        half = flat(s=0.05, eps=1e-8).radial_splits()
        want = tuple(-p for p in reversed(half)) + (0.0,) + half
        assert flat(s=0.05, eps=1e-8, dimension=2).radial_splits() == want

    @pytest.mark.parametrize("m", [1.01, 1.2, 1.5, 1.95])
    @pytest.mark.parametrize("eps", [1e-2, 1e-8, 1e-12])
    def test_2d_graded_to_axis(self, m, eps):
        # m < 2: the curvature is unbounded at the axis, so the panels halve
        # on from delta down to where the gap is eps to roundoff
        prof = mconvex(m=m, eps=eps, dimension=2)
        pts = prof.radial_splits()
        delta = prof.boundary_layer_scale()
        assert {delta * 2.0**j for j in range(60) if delta * 2.0**j < prof.r} <= set(pts)
        w0 = min(p for p in pts if p > 0.0)
        assert w0**m <= 2.0**-52 * eps
        assert np.all(np.diff(pts) > 0.0)
        assert len(pts) + 1 < MIN_SUBDIVISIONS

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_strictly_increasing_inside(self, dimension):
        for prof in (
            *(mconvex(m=m, eps=eps, dimension=dimension) for m in (2.0, 4.0) for eps in (1e-2, 1e-8)),
            *(flat(s=s, eps=eps, dimension=dimension) for s in (0.05, 0.15) for eps in (1e-2, 1e-9)),
        ):
            pts = np.array(prof.radial_splits())
            assert np.all(np.diff(pts) > 0.0), prof
            assert np.all(np.abs(pts) < prof.r), prof

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_layer_splits_own_the_grading(self, dimension):
        # the positive half is layer_splits' own: from the axis on m-convex
        # profiles; on flat caps the rim, then from the rim at m = 2
        positive = lambda prof: tuple(p for p in prof.radial_splits() if p > 0.0)
        ms = (1.01, 1.2, 1.5, 2.0, 4.0) if dimension == 2 else (2.0, 2.5, 4.0, 8.0)
        for m in ms:
            for eps in (1e-2, 1e-8, 1e-15):
                prof = mconvex(m=m, eps=eps, dimension=dimension)
                assert positive(prof) == layer_splits(m, eps, prof.r), prof
        for s in (0.05, 0.15):
            for eps in (1e-2, 1e-9):
                prof = flat(s=s, eps=eps, dimension=dimension)
                assert positive(prof) == (s, *layer_splits(2.0, eps, prof.r, start=s)), prof

    def test_underflowing_start_raises(self):
        # m = 1.0001 at eps = 1e-320: delta 2^-52 underflows to 0, from
        # which the halving would never reach r
        with pytest.raises(ValueError, match="underflows"):
            mconvex(m=1.0001, eps=1e-320, dimension=2).radial_splits()


class TestGap:
    def test_mconvex_values(self):
        assert mconvex(eps=1e-3).h(0.1, 0.0) == pytest.approx(0.011, rel=1e-14)
        assert mconvex(eps=1e-3, m=3.0).h(0.0, 0.1) == pytest.approx(1e-3 + 1e-3, rel=1e-14)

    def test_flat_values(self):
        prof = flat(s=0.1, eps=1e-3)
        assert prof.h(0.05, 0.0) == pytest.approx(1e-3, rel=1e-14)
        assert prof.h(0.3, 0.0) == pytest.approx(1e-3 + 0.04, rel=1e-12)

    def test_2d(self):
        prof = mconvex(dimension=2)
        assert prof.h(0.1) == pytest.approx(0.011, rel=1e-14)
        assert prof.h(-0.1) == pytest.approx(0.011, rel=1e-14)

    def test_out_of_region(self):
        # the signed 2D coordinate, below the midplane
        with pytest.raises(ValueError):
            surface_sample(mconvex(dimension=2), "bottom", -0.6)

    @given(x=st.floats(-0.5, 0.5), y=st.floats(-0.3, 0.3))
    @settings(max_examples=50, deadline=None)
    def test_at_least_eps_and_even(self, x, y):
        prof = mconvex()
        if math.hypot(x, y) > prof.r:
            return
        h = prof.h(x, y)
        assert h >= prof.eps
        assert prof.h(-x, -y) == pytest.approx(h, rel=1e-14)

    def test_flat_gap_is_c1_at_kink(self):
        # slope is continuous across |x'| = s (the kink is in curvature)
        prof = flat(s=0.1, eps=1e-3)
        d = 1e-7
        left = (prof.h(0.1 - d, 0.0) - prof.h(0.1 - 3 * d, 0.0)) / (2 * d)
        right = (prof.h(0.1 + 3 * d, 0.0) - prof.h(0.1 + d, 0.0)) / (2 * d)
        assert abs(left - right) < 1e-5


class TestSurfaceSample:
    def test_apex(self):
        sp = surface_sample(mconvex(), "top", (0.0, 0.0))
        assert sp.x3 == pytest.approx(5e-4, rel=1e-14)
        assert tuple(sp.n) == pytest.approx((0.0, 0.0, -1.0))
        assert sp.jac == pytest.approx(1.0, rel=1e-14)

    def test_normal_formula_m2(self):
        t = 0.3
        sp = surface_sample(mconvex(), "top", (t, 0.0))
        root = math.sqrt(1.0 + t * t)
        assert sp.n[0] == pytest.approx(t / root, rel=1e-12)
        assert sp.n[2] == pytest.approx(-1.0 / root, rel=1e-12)

    def test_projection_identity(self):
        # n3 * jac = -1 on both profiles
        for prof in (mconvex(), mconvex(m=3.0), flat(s=0.1)):
            for t in (0.05, 0.15, 0.3, 0.45):
                sp = surface_sample(prof, "top", (t, 0.0))
                assert sp.n[2] * sp.jac == pytest.approx(-1.0, rel=1e-12)
                assert sp.n[2] < 0.0

    def test_unit_normal(self):
        for xp in ((0.1, 0.2), (0.3, -0.1), (-0.2, -0.2)):
            sp = surface_sample(mconvex(), "top", xp)
            assert np.linalg.norm(sp.n) == pytest.approx(1.0, rel=1e-13)

    def test_lever_arm_at_apex(self):
        for prof in (mconvex(), flat(s=0.1)):
            sp = surface_sample(prof, "top", (0.0, 0.0))
            assert tuple(sp.nu) == pytest.approx((0.0, 0.0, -prof.R))

    def test_lever_arm_on_flat_cap(self):
        sp = surface_sample(flat(s=0.1), "top", (0.05, 0.0))
        assert sp.nu[2] == pytest.approx(-2.0, rel=1e-14)

    def test_lever_arm_mconvex(self):
        # nu3 = |x'|^m / 2 - R on the curved surface
        sp = surface_sample(mconvex(), "top", (0.2, 0.1))
        assert sp.nu[2] == pytest.approx(0.5 * 0.05 - 2.0, rel=1e-12)

    def test_flat_cap_normal(self):
        sp = surface_sample(flat(s=0.1), "top", (0.05, 0.02))
        assert tuple(sp.n) == pytest.approx((0.0, 0.0, -1.0))
        assert sp.jac == pytest.approx(1.0)

    def test_bottom_mirrors_top(self):
        top = surface_sample(mconvex(), "top", (0.2, 0.1))
        bot = surface_sample(mconvex(), "bottom", (0.2, 0.1))
        assert bot.x3 == pytest.approx(-top.x3, rel=1e-14)

    def test_2d_sample(self):
        sp = surface_sample(mconvex(dimension=2), "top", 0.2)
        assert sp.x3 == pytest.approx(0.5 * (1e-3 + 0.04), rel=1e-13)
        assert sp.n[1] < 0.0

    def test_out_of_region(self):
        with pytest.raises(ValueError):
            surface_sample(mconvex(), "top", (0.6, 0.0))
