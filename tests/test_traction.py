"""Surface traction assembly and numeric force/torque integration."""

import math

import numpy as np
import pytest

from lubgap import fields, traction
from lubgap.fields import ProblemParams, subflow_indices
from lubgap.geometry import GapProfile
from lubgap.quadrature import SHORT_RING, TRAPEZOID_RING, kronrod_panels, ring_integrals
from lubgap.traction import (
    _ROTATION_RING,
    _rotation_field_moments,
    _rotation_pressure,
    force_numeric,
    total_numeric,
    traction_moments,
)

from helpers import leading_coefficient, mirrored_ring


def mconvex(m=2.0, eps=1e-3, dimension=3, r=0.5, R=2.0):
    return GapProfile(
        kind="m-convex", m=m, s=0.0, eps=eps, r=r, R=R, dimension=dimension
    )


def moments_at(k, params, xprime):
    """``(w, nu x w)`` of :func:`traction_moments` at one boundary point."""
    pts = tuple(np.array([float(v)]) for v in np.atleast_1d(xprime))
    mom = traction_moments(k, params, pts, params.profile.h(*pts))[:, 0]
    d = params.profile.dimension
    return mom[:d], mom[d:]


class TestTraction:
    def test_pure_shear_at_apex(self, params3d):
        # at the apex N = n = (0,0,-1), the A-terms vanish by parity and the
        # shear sub-flow traction reduces to (-mu (U1 - w2 R)/eps, 0, 0)
        prof = params3d.profile
        w, _ = moments_at(1, params3d, (0.0, 0.0))
        c = params3d.U[0] - params3d.omega[1] * prof.R
        expected = -params3d.mu * c / prof.eps
        assert w[0] == pytest.approx(expected, rel=1e-12)
        assert abs(w[1]) <= 1e-12 * abs(expected)
        assert abs(w[2]) <= 1e-12 * abs(expected)

    def test_linear_in_motion(self, prof3d):
        base = ProblemParams(
            profile=prof3d, mu=1.0, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1)
        )
        double = ProblemParams(
            profile=prof3d, mu=1.0, U=(0.6, -0.4, -1.0), omega=(0.3, 0.4, 0.2)
        )
        for k in subflow_indices(3):
            t1 = np.concatenate(moments_at(k, base, (0.21, -0.13)))
            t2 = np.concatenate(moments_at(k, double, (0.21, -0.13)))
            assert np.max(np.abs(t2 - 2.0 * t1)) <= 1e-11 * max(
                float(np.max(np.abs(t2))), 1e-30
            )

    def test_rigid_mean_not_gap_singular(self):
        # the k=0 interpolant is eps-uniformly smooth: its apex traction
        # stays bounded while the shear sub-flow's grows like 1/eps
        vals = []
        for eps in (1e-3, 1e-4, 1e-5):
            prof = mconvex(eps=eps)
            params = ProblemParams(
                profile=prof, mu=1.0, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1)
            )
            w, _ = moments_at(0, params, (0.0, 0.0))
            vals.append(float(np.max(np.abs(w))))
        assert max(vals) <= 10.0 * min(vals)

    def test_2d(self, params2d):
        x1 = np.array([-0.3, 0.0, 0.2])
        mom = traction_moments(1, params2d, (x1,), params2d.profile.h(x1))
        assert mom.shape == (3, 3)  # w1, w2 and the scalar torque
        assert np.all(np.isfinite(mom))
        w, tq = moments_at(1, params2d, 0.2)
        assert w.shape == (2,) and tq.shape == (1,)


class TestForceNumeric:
    def test_squeeze_force_value(self):
        # m=2, mu=1, U3=-1, omega=0, r=0.5: F3 = -3*pi*U3*Gamma_34/eps + O(1)
        # with Gamma_34 = 1/2, i.e. about +(3*pi/2)*1e4 at eps = 1e-4 (the
        # approach U3 < 0 is resisted by a positive vertical force)
        prof = mconvex(eps=1e-4)
        params = ProblemParams(
            profile=prof, mu=1.0, U=(0.0, 0.0, -1.0), omega=(0.0, 0.0, 0.0)
        )
        res = force_numeric(3, params)
        assert res.F[2] == pytest.approx(1.5 * math.pi * 1e4, rel=1e-2)
        assert abs(res.F[0]) <= 1e-8 * abs(res.F[2])
        assert abs(res.F[1]) <= 1e-8 * abs(res.F[2])

    def test_zero_motion_zero_force(self, prof3d):
        params = ProblemParams(
            profile=prof3d, mu=1.0, U=(0.0, 0.0, 0.0), omega=(0.0, 0.0, 0.0)
        )
        for k in subflow_indices(3):
            res = force_numeric(k, params)
            assert np.all(res.F == 0.0)
            assert np.all(np.asarray(res.T) == 0.0)

    def test_error_estimates_nonnegative(self, params3d, params2d):
        for params in (params3d, params2d):
            for k in subflow_indices(params.profile.dimension):
                res = force_numeric(k, params)
                assert np.all(np.asarray(res.F_err) >= 0.0)
                assert np.all(np.asarray(res.T_err) >= 0.0)
                assert np.all(np.isfinite(res.F))

    def test_invalid_subflow(self, params2d):
        with pytest.raises(ValueError):
            force_numeric(6, params2d)

    def test_shear_parity_zeros(self):
        # k=1: F2, F3, T1, T3 stay bounded across a decade of gap widths
        # while F1 grows like the log moment
        f1 = []
        others = []
        for eps in (1e-3, 1e-4):
            prof = mconvex(eps=eps)
            params = ProblemParams(
                profile=prof, mu=1.0, U=(1.0, 0.0, 0.0), omega=(0.0, 0.0, 0.0)
            )
            res = force_numeric(1, params)
            f1.append(abs(float(res.F[0])))
            others.append(
                max(
                    abs(float(res.F[1])),
                    abs(float(res.F[2])),
                    abs(float(res.T[0])),
                    abs(float(res.T[2])),
                )
            )
        # log growth: |ln 1e-4| / |ln 1e-3| = 4/3
        assert f1[1] > 1.25 * f1[0]
        assert max(others) <= 1e-6 * f1[0]

    def test_squeeze_exponent_m3(self):
        # |F3| ~ eps^-(3 - 4/m): slope -(5/3) for m = 3
        eps = (1e-3, 1e-4)
        vals = []
        for e in eps:
            prof = mconvex(m=3.0, eps=e)
            params = ProblemParams(
                profile=prof, mu=1.0, U=(0.0, 0.0, -1.0), omega=(0.0, 0.0, 0.0)
            )
            vals.append(abs(float(force_numeric(3, params).F[2])))
        slope = (math.log(vals[1]) - math.log(vals[0])) / (
            math.log(eps[1]) - math.log(eps[0])
        )
        assert slope == pytest.approx(-(3.0 - 4.0 / 3.0), abs=0.03)

    def test_2d_squeeze_torque_scalar(self, params2d):
        res = force_numeric(2, params2d)
        assert np.isscalar(res.T) or np.ndim(res.T) == 0
        assert res.F.shape == (2,)

    @pytest.mark.parametrize("d, k", [(d, k) for d in (3, 2) for k in subflow_indices(d)])
    def test_each_panel_evaluated_once(self, d, k, params3d, params2d, monkeypatch):
        # the adaptive pass reads the probe's panels instead of evaluating
        # them again, and evaluations counts each distinct point once
        calls = []

        def spy(f, ring, ts):
            calls.append((ts.tobytes(), ring[0].shape[-1]))
            return ring_integrals(f, ring, ts)

        monkeypatch.setattr(traction, "ring_integrals", spy)
        res = force_numeric(k, params3d if d == 3 else params2d)
        panels = {key for key, _ in calls}
        nring = {size for _, size in calls}
        assert len(set(calls)) == len(calls) == len(panels) * len(nring)
        if k != 6:
            assert nring == {8 if d == 3 else 1}
            per_node = nring.pop()
        else:
            # the rotation reduces each panel twice: its field on the 10-point
            # ring, its pressure's four running-integral reads per node on the
            # graded octant
            octant = (nring - {10}).pop()
            assert nring == {10, octant}
            per_node = 10 + 4 * octant
        # 15 Kronrod nodes per radial panel
        assert res.evaluations == len(panels) * 15 * per_node


# m-convex profiles, and the flat cap s = 0.05 with radii on both sides of its rim
_SHORT_RING_PROFILES = pytest.mark.parametrize(
    "kind, m, s", [("m-convex", m, 0.0) for m in (2.0, 2.5, 4.0, 8.0)] + [("flat-capped", 2.0, 0.05)]
)
_SHORT_RING_RADII = np.array([1e-4, 0.01, 0.049, 0.051, 0.2, 0.5])


def _general_moments(kind, m, s, ks=range(6)):
    """Ring integrands of 3D sub-flows ``ks`` under a general motion, eps 1e-2..1e-8.

    ``k = 6`` stands for the rotation's moments without its running-integral
    pressure, the part the force route integrates on the 10-point ring.
    """
    for eps in 10.0 ** -np.arange(2, 9):
        prof = GapProfile(kind=kind, m=m, s=s, eps=eps, r=0.5, R=2.0, dimension=3)
        params = ProblemParams(profile=prof, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1))
        for k in ks:
            if k == 6:
                yield (eps, k), lambda t, xp, params=params: _rotation_field_moments(
                    params, t, xp
                )
            else:
                yield (eps, k), lambda t, xp, k=k, params=params: traction_moments(
                    k, params, xp, params.profile.h_radial(t)
                )


def _ring_modes(moments, ts, n=256):
    """Magnitudes of the angular Fourier modes of ``moments`` on ``n``-point rings."""
    theta = 2.0 * np.pi * np.arange(n) / n
    xprime = tuple((ts[:, None] * f(theta)).ravel() for f in (np.cos, np.sin))
    return np.abs(np.fft.rfft(moments(np.repeat(ts, n), xprime).reshape(6, ts.size, n), axis=-1))


def _assert_ring_exact(moments, ring, ts, case):
    """``ring`` integrates ``moments`` as the 64-point trapezoid does, with a
    roundoff angular estimate."""
    theta = TRAPEZOID_RING[2].x[0]
    xprime = tuple((ts[:, None] * f(theta)).ravel() for f in (np.cos, np.sin))
    # per radius, the largest moment on the ring times the ring length
    fine_ring = moments(np.repeat(ts, theta.size), xprime).reshape(6, ts.size, -1)
    scale = 2.0 * np.pi * ts * np.max(np.abs(fine_ring), axis=(0, 2))
    short = ring_integrals(moments, ring, ts)
    fine = ring_integrals(moments, TRAPEZOID_RING, ts)
    assert np.all(np.abs(short[:6] - fine[:6]) <= 1e-14 * scale), case
    assert np.all(short[6:] <= 1e-14 * scale), case


class TestShortRing:
    # every 3D translation and spin moment (k = 0..5) is a trigonometric
    # polynomial of degree <= 2 in the ring angle: each field is built from
    # x', J x' and radial functions, and the normal and the lever arm add one
    # degree each; the 8-point trapezoid and its embedded 4-point rule are
    # exact below degree 4

    @_SHORT_RING_PROFILES
    def test_moments_degree_two(self, kind, m, s):
        for case, moments in _general_moments(kind, m, s):
            modes = _ring_modes(moments, _SHORT_RING_RADII)
            assert np.max(modes[..., 3:]) <= 1e-13 * np.max(modes), case

    @_SHORT_RING_PROFILES
    def test_matches_trapezoid(self, kind, m, s):
        for case, moments in _general_moments(kind, m, s):
            _assert_ring_exact(moments, SHORT_RING, _SHORT_RING_RADII, case)


def _pressure_moments(params):
    """The moments ``6 mu G (N, nu x N)`` of the rotation's running-integral
    pressure term, point by point on the rings."""
    prof = params.profile
    c1, c2 = fields._squeeze_type(6, params)[1]

    def moments(t, xprime):
        x1, x2 = xprime
        q = lambda a, c: fields._running_integral(prof, 3, a, c)
        G = c1 * (q(x1, x2) - q(prof.r, x2)) + c2 * (q(x2, x1) + q(prof.r, x1))
        H1 = prof.radial_jet(t, 1)[0]
        N = np.stack([0.5 * H1 * x1, 0.5 * H1 * x2, -np.ones_like(x1)])
        nu = np.stack([x1, x2, 0.5 * (prof.h_radial(t) - prof.eps) - prof.R])
        return 6.0 * params.mu * G * np.concatenate([N, np.cross(nu, N, axis=0)])

    return moments


def _rotation_params(kind, m, s, eps):
    prof = GapProfile(kind=kind, m=m, s=s, eps=eps, r=0.5, R=2.0, dimension=3)
    return ProblemParams(profile=prof, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1))


class TestRotationSplit:
    # the rotation k = 6 is integrated in two parts: its moments without the
    # running-integral pressure G (x_a^2 times radial functions, so
    # trigonometric polynomials of degree <= 4) on the 10-point ring, and
    # the moments of G, which need the graded rule, as two quarter-ring
    # integrals of Q_3

    @_SHORT_RING_PROFILES
    def test_field_moments_degree_four(self, kind, m, s):
        for case, moments in _general_moments(kind, m, s, ks=(6,)):
            modes = _ring_modes(moments, _SHORT_RING_RADII)
            assert np.max(modes[..., 5:]) <= 1e-13 * np.max(modes), case

    @_SHORT_RING_PROFILES
    def test_field_ring_exact(self, kind, m, s):
        for case, moments in _general_moments(kind, m, s, ks=(6,)):
            _assert_ring_exact(moments, _ROTATION_RING, _SHORT_RING_RADII, case)

    @_SHORT_RING_PROFILES
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_pressure_matches_mirrored_ring(self, kind, m, s, eps):
        # the parity of Q_3 reduces the graded ring to its first quadrant
        params = _rotation_params(kind, m, s, eps)
        ts = _SHORT_RING_RADII
        got = _rotation_pressure(params, ts)
        want = ring_integrals(_pressure_moments(params), mirrored_ring(params.profile, ts), ts)
        scale = np.max(np.abs(want[:6]), axis=0)
        assert np.all(np.abs(got[:6] - want[:6]) <= 1e-13 * scale)
        assert np.all(got[5] == 0.0)

    @_SHORT_RING_PROFILES
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_angular_estimate_bounds_error(self, kind, m, s, eps, monkeypatch):
        # against the same rule with every panel split into eight
        params = _rotation_params(kind, m, s, eps)
        ts = _SHORT_RING_RADII
        got = _rotation_pressure(params, ts)
        octant_rule = traction._octant_rule

        def refined(profile, ts):
            rule = octant_rule(profile, ts)
            lo, hi = rule.x[..., 7] - rule.half, rule.x[..., 7] + rule.half
            edges = lo[..., None] + (hi - lo)[..., None] * np.linspace(0.0, 1.0, 9)[:-1]
            edges = np.concatenate([edges.reshape(*lo.shape[:-1], -1), hi[..., -1:]], axis=-1)
            return kronrod_panels(edges)

        monkeypatch.setattr(traction, "_octant_rule", refined)
        want = _rotation_pressure(params, ts)
        scale = np.max(np.abs(want[:6]), axis=0)
        assert np.all(np.abs(got[:6] - want[:6]) <= got[6:] + 1e-15 * scale)


class TestOctantRule:
    # the rotation pressure's angular rule: one sinh grading per side of each
    # feature angle, with a fixed panel count and no stray near-coincident
    # edges.  A sinh grading's first panel is its narrowest; over the grid
    # below it is at least 0.054 of the grading width on m-convex profiles
    # (m = 8, eps = 1e-2) and 0.031 on the flat cap (eps = 1e-2, t = r),
    # where the width exceeds the octant and the panels are nearly uniform

    @staticmethod
    def _cases():
        for m in (2.0, 2.5, 4.0, 8.0):
            for eps in 10.0 ** -np.arange(2, 9):
                yield GapProfile(kind="m-convex", m=m, s=0.0, eps=eps, r=0.5, R=2.0, dimension=3)
        for eps in 10.0 ** -np.arange(2, 9):
            yield GapProfile(kind="flat-capped", m=2.0, s=0.05, eps=eps, r=0.5, R=2.0, dimension=3)

    def test_edges_span_octant(self):
        for prof in self._cases():
            edges = traction._octant_edges(prof, _SHORT_RING_RADII)
            assert np.all(edges[..., 0] == 0.0), prof
            assert np.all(edges[..., -1] == 0.25 * np.pi), prof
            assert np.all(np.diff(edges, axis=-1) > 0.0), prof

    def test_fixed_panel_count(self):
        counts = {"m-convex": set(), "flat-capped": set()}
        for prof in self._cases():
            edges = np.atleast_2d(traction._octant_edges(prof, _SHORT_RING_RADII))
            assert edges.shape[0] in (1, _SHORT_RING_RADII.size), prof
            assert edges.shape[-1] - 1 == traction._octant_panels(prof), prof
            counts[prof.kind].add(edges.shape[-1] - 1)
        assert counts == {"m-convex": {12}, "flat-capped": {16}}

    def test_no_narrow_panels(self):
        # every panel is at least 1/40 of the smallest grading width at its
        # radius: delta / r toward 0, and delta / t toward a flat cap's feature
        for prof in self._cases():
            delta = prof.boundary_layer_scale()
            width = delta / prof.r
            if prof.kind == "flat-capped":
                width = np.minimum(width, delta / _SHORT_RING_RADII)[:, None]
            panels = np.diff(traction._octant_edges(prof, _SHORT_RING_RADII), axis=-1)
            assert np.all(panels >= width / 40.0), prof

    def test_rule_on_edges(self):
        prof = GapProfile(kind="flat-capped", m=2.0, s=0.05, eps=1e-6, r=0.5, R=2.0, dimension=3)
        rule = traction._octant_rule(prof, _SHORT_RING_RADII)
        weights = (rule.half[..., None] * rule.weights).sum(axis=(-2, -1))
        assert rule.x.shape == (_SHORT_RING_RADII.size, 16, 15)
        assert weights == pytest.approx(np.full(_SHORT_RING_RADII.size, 0.25 * np.pi), rel=1e-15)


# the eight symmetries of the square acting on (cos, sin)
_OCTANT_MAPS = [
    lambda c, s: (c, s),
    lambda c, s: (s, c),
    lambda c, s: (-s, c),
    lambda c, s: (-c, s),
    lambda c, s: (-c, -s),
    lambda c, s: (-s, -c),
    lambda c, s: (s, -c),
    lambda c, s: (c, -s),
]


class TestRotationRing:
    @pytest.mark.parametrize(
        "kind, m, s",
        [
            ("m-convex", 2.0, 0.0),
            ("m-convex", 2.5, 0.0),
            ("m-convex", 4.0, 0.0),
            ("m-convex", 8.0, 0.0),
            ("flat-capped", 2.0, 0.1),
        ],
    )
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_ring_invariant_under_octant_maps(self, kind, m, s, eps):
        prof = GapProfile(kind=kind, m=m, s=s, eps=eps, r=0.5, R=2.0, dimension=3)
        t = 0.3 * prof.r
        cos, sin, rule = mirrored_ring(prof, np.array([t]))
        if kind == "flat-capped":
            # one ring per radius, graded toward the angle where it crosses
            # |x2| = s (or |x1| = s)
            cos, sin, rule = cos[0], sin[0], rule._replace(x=rule.x[0], half=rule.half[0])
        w = (rule.half[:, None] * rule.weights[None, :]).ravel()
        assert cos.shape == sin.shape == w.shape == (rule.x.size,)
        assert np.sum(w) == pytest.approx(2.0 * np.pi, rel=1e-14)

        def canonical(c, s_):
            order = np.lexsort((w, s_, c))
            return np.stack([c[order], s_[order], w[order]]).view(np.uint64)

        ref = canonical(cos, sin)
        for octant_map in _OCTANT_MAPS:
            assert np.array_equal(canonical(*octant_map(cos, sin)), ref)
        # so a ring of radius t repeats each (|x1|, |x2|) pair four times
        pairs = np.unique(np.abs(t * cos) + 1j * np.abs(t * sin))
        assert pairs.size == cos.size // 4

    # force_numeric(6) on the general3d problem (m = 2, r = 0.5, R = 2,
    # U = (0.3, -0.2, -0.5), omega = (0.15, 0.2, 0.1)) from the full-circle
    # ring that preceded the mirrored one, read off the rotation table:
    # (F, T, F_err, T_err)
    _K6_TABLE = {
        1e-2: (
            [11.659655576494542, -8.744741682388284, 75.37550453841286],
            [-10.112676536964438, -13.483568715935448, 1.7224249170743295e-17],
            [6.244612544156109e-05, 6.241882753493534e-05, 0.00012523846233375454],
            [0.0004080570555805045, 0.00040808347815658106, 0.0004079330152229288],
        ),
        1e-3: (
            [117.75385062661043, -88.31538796879512, 815.4690032393337],
            [-86.34396701128347, -115.12528934987787, -1.3639023940193437e-17],
            [0.0036347331072840126, 0.0036334019275405484, 0.007296075433900593],
            [0.023764362746144203, 0.02376560248763093, 0.02375916937232568],
        ),
        1e-4: (
            [1178.0555311668911, -883.5416483772359, 8235.558907418148],
            [-833.5016454579754, -1111.335527274612, 6.321560793244731e-17],
            [0.17538686893957411, 0.17533719090303165, 0.35172468989664196],
            [1.147317062844121, 1.1473635020533095, 1.1471530302926862],
        ),
    }
    # the same with the closed-form m = 2 rotation pressure: the table's
    # error term is gone from the bounds.  The octant rule built directly from
    # one sinh grading moved F_err[2] at eps = 1e-3 from 2.246e-10 to
    # 2.161e-10 (each value stayed within the old bound); the other bounds
    # moved by less than their pin
    _K6_REFERENCE = {
        1e-2: (
            [11.659655486262768, -8.744741614697075, 75.37550427032956],
            [-10.112676471945782, -13.483568629261047, -4.628239682305254e-19],
            [1.475017352865672e-09, 1.1062631796168056e-09, 1.664094232228955e-09],
            [5.138906966172862e-09, 6.851875790567142e-09, 6.743788386022251e-17],
        ),
        1e-3: (
            [117.75384838768385, -88.31538629076287, 815.4689949226839],
            [-86.34396538978349, -115.12528718637802, 1.7511624379093655e-17],
            [8.882146594124447e-10, 6.662095432522377e-10, 2.1607555897095383e-10],
            [2.8466374217566207e-09, 3.7954531274022395e-09, 2.1582626251840923e-16],
        ),
        1e-4: (
            [1178.05544938681, -883.5415870401075, 8235.558371000889],
            [-833.5015874265707, -1111.3354499020943, -5.1523905230788675e-17],
            [1.284614099787042e-07, 9.635112652083533e-08, 4.937055778651937e-05],
            [3.179695854086973e-07, 4.239531946179525e-07, 6.280451659068127e-16],
        ),
    }

    @pytest.mark.parametrize("eps", sorted(_K6_REFERENCE))
    def test_rotation_force_unchanged(self, eps):
        params = ProblemParams(
            profile=mconvex(eps=eps), mu=1.0, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1)
        )
        F, T, F_err, T_err = (np.array(v) for v in self._K6_REFERENCE[eps])
        res = force_numeric(6, params)
        scale = max(float(np.max(np.abs(F))), float(np.max(np.abs(T))))
        assert np.max(np.abs(res.F - F)) <= 1e-9 * scale
        assert np.max(np.abs(res.T - T)) <= 1e-9 * scale
        assert res.F_err == pytest.approx(F_err, rel=1e-2)
        assert res.T_err == pytest.approx(T_err, rel=1e-2)
        # the closed form moved each value by less than the table's bound
        F0, T0, F0_err, T0_err = (np.array(v) for v in self._K6_TABLE[eps])
        assert np.all(np.abs(res.F - F0) <= F0_err)
        assert np.all(np.abs(res.T - T0) <= T0_err)


class TestReferenceValues:
    # force_numeric on the params3d / params2d fixtures (m = 2, eps = 1e-3)
    # before the traction integrands and drivers were folded into one:
    # (F, T, F_err, T_err, evaluations) per dimension and sub-flow.  The
    # squeeze sub-flows (3D k = 3, 2D k = 2), the 2D rotation (k = 4) and,
    # with the m = 2 closed form of its running integral, the 3D rotation
    # (k = 6) were pinned again when their pressures became closed-form:
    # each new value lies within the old bound of the old one (for k = 6
    # checked against _TABLE_K6), the bounds fell (3D k = 3 F3 from 1.4e-4
    # to 1.0e-5, k = 6 F3 from 7.3e-3 to 2.2e-10).  The evaluations count
    # distinct points: each radial panel once, on the 8-point ring in 3D
    # for k != 6; for k = 6 the 10 field points of its ring plus the four
    # running-integral reads per node of its graded octant (94800 -> 87600
    # when that octant became 12 panels at every (m, eps)).
    _REFERENCE = {
        3: {
            0: (
                [0.09326603190344701, -0.06994952392758524, 1.4444151605454298e-18],
                [-0.131615551600588, -0.17548740213411737, 7.583796165255376e-19],
                [1.1304206222865345e-15, 8.487828482778594e-16, 1.4859434404476333e-18],
                [1.5971323999818942e-15, 2.124088530710167e-15, 1.0516731498717769e-18],
                240,
            ),
            1: (
                [1.8126761802368663, -2.3529151158617323e-20, -6.6994189225477334e-18],
                [-6.052761906758886e-22, -3.6253523604737325, -1.4721725569037065e-18],
                [6.022133043453079e-12, 6.690415674080469e-19, 1.501737128949818e-17],
                [1.5973950027410276e-18, 1.2044063352589815e-11, 7.042488039616886e-18],
                960,
            ),
            2: (
                [-1.8563563631730738e-19, -1.8126761802368656, 1.6191822042255479e-18],
                [-3.625352360473731, 2.664335989030229e-19, 1.1675282252088996e-17],
                [6.45885305936273e-19, 6.022056072401149e-12, 1.2547621407248727e-17],
                [1.204403193919922e-11, 1.9910127336145986e-18, 5.377745188281749e-18],
                960,
            ),
            3: (
                [-2.019479371598354e-15, -3.110413101825977e-17, 2343.2817606368953],
                [3.358126216422507e-16, 7.233398548964677e-15, -6.423259620215046e-17],
                [6.603686561250973e-15, 6.61444999014554e-15, 1.0133618928673129e-05],
                [1.655273885478653e-14, 1.6978766008861138e-14, 2.445014300989176e-16],
                960,
            ),
            4: (
                [1.4062111452233391e-18, 1.1386689053912158e-17, -8.01679015881442e-20],
                [2.3730750352286693e-17, -1.4180967937294306e-18, -0.08654461720197612],
                [6.0208299559557574e-18, 6.444457177814176e-18, 7.731001449090473e-19],
                [1.3527532569600562e-17, 1.5977298232913604e-17, 1.962965699089395e-10],
                720,
            ),
            5: (
                [-0.07672714015950802, 0.05754535511963102, -1.3984112771255002e-18],
                [0.10772760245741098, 0.14363680327654796, -5.8527798284865e-19],
                [1.9854131167778516e-10, 1.4890598330678663e-10, 8.156054484111181e-19],
                [2.9953942735823067e-10, 3.993859060796894e-10, 7.56331735219886e-19],
                720,
            ),
            6: (
                [117.75384838768385, -88.31538629076287, 815.4689949226839],
                [-86.34396538978349, -115.12528718637802, 1.7511624379093655e-17],
                [8.882146594124447e-10, 6.662095432522377e-10, 2.2460721146905288e-10],
                [2.8466374217566207e-09, 3.7954531274022395e-09, 2.1582626251840923e-16],
                87600,
            ),
        },
        2: {
            0: (
                [-0.14583333333333337, 0.0],
                [-0.2744791666666666],
                [1.7649085775783536e-15, 3.7819469519536143e-16],
                [3.3218100727992574e-15],
                60,
            ),
            1: (
                [-86.63026682207216, 2.220446049250313e-16],
                [-173.70471851073324],
                [1.546796689542603e-08, 1.725172568709189e-11],
                [3.0928304177600245e-08],
                240,
            ),
            2: (
                [3.907985046680551e-14, 44691.71644499474],
                [-2.4868995751603507e-14],
                [3.827940784228635e-06, 0.00012390309738916647],
                [1.1532107536029312e-05],
                240,
            ),
            3: (
                [0.11296801849693615, -8.673617379884035e-19],
                [0.2102493446512905],
                [3.31294687741846e-10, 8.599985851344004e-11],
                [6.745672575252983e-10],
                180,
            ),
            4: (
                [-2338.115174164096, 9309.70513546158],
                [-2228.144559457929],
                [5.3104234688130326e-08, 1.2649616745978355e-06],
                [1.4136674655812997e-07],
                240,
            ),
        },
    }

    # 3D k = 6 as read off the rotation table: (F, T, F_err, T_err)
    _TABLE_K6 = (
        [117.75385061338856, -88.31538796004143, 815.46900319407],
        [-86.34396700332246, -115.12528933776332, -2.267355569456631e-19],
        [0.0036359411071687072, 0.0036344338457763954, 0.007303004049834825],
        [0.023765332787220855, 0.023766739235749332, 0.023759169372325688],
    )

    @pytest.mark.parametrize(
        "d, k", [(d, k) for d in (3, 2) for k in subflow_indices(d)]
    )
    def test_force_numeric_unchanged(self, d, k, params3d, params2d):
        params = params3d if d == 3 else params2d
        res = force_numeric(k, params)
        F, T, F_err, T_err, nev = self._REFERENCE[d][k]
        ref = np.array(F + T)
        scale = float(np.max(np.abs(ref)))
        got = np.concatenate([res.F, np.atleast_1d(res.T)])
        got_err = np.concatenate([res.F_err, np.atleast_1d(res.T_err)])
        # the rings only sum in a different order: values and bounds agree
        # to roundoff of the sub-flow's largest component
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale
        assert np.max(np.abs(got_err - np.array(F_err + T_err))) <= 1e-12 * scale
        assert res.evaluations == nev
        if (d, k) == (3, 6):
            F0, T0, F0_err, T0_err = self._TABLE_K6
            assert np.all(np.abs(got - np.array(F0 + T0)) <= np.array(F0_err + T0_err))


class TestTotalNumeric:
    def test_zero_scale_subflows_skipped(self, monkeypatch):
        # a pure squeeze never integrates the rotation sub-flow, in 3D
        # (k = 6, nor reads its pressure's running integral) and in 2D (k = 4)
        squeeze3 = ProblemParams(profile=mconvex(eps=2e-3), U=(0.0, 0.0, -1.0))
        squeeze2 = ProblemParams(
            profile=mconvex(eps=2e-3, dimension=2), U=(0.0, -1.0), omega=0.0
        )
        reads = []

        def spy(*args, **kwargs):
            reads.append(args)
            return fields._running_integral(*args, **kwargs)

        monkeypatch.setattr(traction, "_running_integral", spy)
        for params, k, k_squeeze in ((squeeze3, 6, 3), (squeeze2, 4, 2)):
            res = total_numeric(params)
            zero = res.per_subflow[k]
            for v in (zero.F, zero.T, zero.F_err, zero.T_err):
                v = np.atleast_1d(v)
                assert np.all(v == 0.0) and not np.any(np.signbit(v))
            assert zero.evaluations == 0
            assert res.per_subflow[k_squeeze].evaluations > 0
        assert reads == []
        # the spy sits where the rotation's force route reads the running integral
        force_numeric(6, ProblemParams(profile=mconvex(eps=2e-3), omega=(0.1, 0.0, 0.0)))
        assert reads

    def test_superposition(self, prof3d):
        U = (0.3, -0.2, -0.5)
        w = (0.15, 0.2, 0.1)
        both = total_numeric(ProblemParams(profile=prof3d, mu=1.0, U=U, omega=w))
        only_u = total_numeric(
            ProblemParams(profile=prof3d, mu=1.0, U=U, omega=(0.0, 0.0, 0.0))
        )
        only_w = total_numeric(
            ProblemParams(profile=prof3d, mu=1.0, U=(0.0, 0.0, 0.0), omega=w)
        )
        tol_F = both.F_err + only_u.F_err + only_w.F_err
        assert np.all(np.abs(both.F - only_u.F - only_w.F) <= tol_F + 1e-10)
        tol_T = both.T_err + only_u.T_err + only_w.T_err
        assert np.all(np.abs(both.T - only_u.T - only_w.T) <= tol_T + 1e-10)

    def test_per_subflow_sums_to_total(self, params2d):
        res = total_numeric(params2d)
        assert set(res.per_subflow) == set(subflow_indices(2))
        F = np.sum([r.F for r in res.per_subflow.values()], axis=0)
        assert np.max(np.abs(F - res.F)) <= 1e-12 * max(float(np.max(np.abs(F))), 1e-30)


def _robustness_cases():
    squeeze = (0.0, 0.0, -1.0)
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        for m in (2.0, 2.5, 4.0, 8.0):
            yield pytest.param(GapProfile.m_convex(3, m, 0.5, eps, 2.0), squeeze, (0.0,) * 3,
                               id=f"3d-m{m}-eps{eps:g}")
        for s in (0.05, 0.15):
            yield pytest.param(GapProfile.flat_capped(3, 0.5, s, eps, 2.0), squeeze, (0.0,) * 3,
                               id=f"3d-flat{s}-eps{eps:g}")
        for m in (1.2, 2.0):
            yield pytest.param(GapProfile.m_convex(2, m, 0.5, eps, 2.0), (0.4, -0.3), 0.25,
                               id=f"2d-m{m}-eps{eps:g}")
        # general motion: the rotation sub-flow k = 6, closed-form at m = 2,
        # a Gauss rule otherwise
        for m in (2.0, 2.5, 4.0, 8.0):
            yield pytest.param(GapProfile.m_convex(3, m, 0.5, eps, 2.0), (0.3, -0.2, -0.5),
                               (0.15, 0.2, 0.1), id=f"3d-m{m}-general-eps{eps:g}")
        for s in (0.05, 0.15):
            yield pytest.param(GapProfile.flat_capped(3, 0.5, s, eps, 2.0), (0.3, -0.2, -0.5),
                               (0.15, 0.2, 0.1), id=f"3d-flat{s}-general-eps{eps:g}")


class TestRobustnessGrid:
    # down to eps = 1e-8 the certified bounds stay at the quadrature
    # tolerance: no pressure error term swamps them, and the rotation's
    # angular rings resolve its pressure on m != 2 and flat caps
    @pytest.mark.parametrize("profile, U, omega", _robustness_cases())
    def test_bounds_small(self, profile, U, omega):
        res = total_numeric(ProblemParams(profile=profile, U=U, omega=omega))
        vals = np.concatenate([res.F, np.atleast_1d(res.T)])
        errs = np.concatenate([res.F_err, np.atleast_1d(res.T_err)])
        assert np.max(errs) <= 1e-6 * np.max(np.abs(vals))


class TestLeadingCoefficient:
    def test_power_model_exact(self):
        c, d, a = 3.7, -1.2, 1.5
        v = lambda e: c * e ** (-a) + d
        got = leading_coefficient(v(1e-3), v(1e-4), 1e-3, 1e-4, power=a)
        assert got == pytest.approx(c, rel=1e-12)

    def test_log_model_exact(self):
        c, d = -2.25, 0.4
        v = lambda e: c * abs(math.log(e)) + d
        got = leading_coefficient(v(1e-2), v(1e-5), 1e-2, 1e-5, is_log=True)
        assert got == pytest.approx(c, rel=1e-12)

    def test_equal_eps_rejected(self):
        with pytest.raises(ValueError):
            leading_coefficient(1.0, 2.0, 1e-3, 1e-3, power=1.0)
