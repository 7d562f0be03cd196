"""Surface traction assembly and numeric force/torque integration."""

import math

import mpmath
import numpy as np
import pytest

from lubgap import fields, traction
from lubgap.config import MIN_SUBDIVISIONS
from lubgap.dualcheck import ell
from lubgap.fields import ProblemParams, subflow_indices
from lubgap.geometry import GapProfile
from lubgap.quadrature import (
    SHORT_RING,
    TRAPEZOID_RING,
    QuadSpec,
    integrate_vector,
    ring_integrals,
)
from lubgap.report import component_names
from lubgap.traction import (
    _ROTATION_RING,
    ForceResult,
    TotalResult,
    _ring_moments,
    force_numeric,
    total_numeric,
    traction_moments,
)

from helpers import (
    flat,
    kronrod_panels,
    leading_coefficient,
    mconvex,
    mirrored_ring,
    octant_edges,
    octant_panels,
    octant_rule,
    rotation_f3_line,
    rotation_pressure,
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
        # the rigid mean is closed-form; any other sub-flow makes one ring
        # pass, its absolute tolerance from its own initial panels, and the
        # rotation one radial pass of its G rows plus the corner rule;
        # evaluations counts each distinct point once
        calls, rows = [], []
        pressure_rows = traction._rotation_pressure_rows

        def spy(f, ring, ts):
            calls.append((ts.tobytes(), ring[0].shape[-1]))
            return ring_integrals(f, ring, ts)

        def spy_rows(params, ts):
            rows.append(ts.copy())
            return pressure_rows(params, ts)

        monkeypatch.setattr(traction, "ring_integrals", spy)
        monkeypatch.setattr(traction, "_rotation_pressure_rows", spy_rows)
        res = force_numeric(k, params3d if d == 3 else params2d)
        if k == 0:
            assert calls == rows == [] and res.evaluations == 0
            return
        # a call holds every panel of one refinement step: no radial node
        # is evaluated twice, within a call or across calls
        ts = np.concatenate([np.frombuffer(key) for key, _ in calls])
        assert np.unique(ts).size == ts.size
        nring = {size for _, size in calls}
        # the rotation's field on the 10-point ring, plus the nodes of its G
        # pass (15 Kronrod nodes per panel of a call) and of the corner rule
        assert nring == {10 if k == 6 else 8 if d == 3 else 1}
        g = np.concatenate(rows) if rows else np.zeros(0)
        assert (k == 6) == bool(rows) and np.unique(g).size == g.size and g.size % 15 == 0
        corner = traction._CORNER_PHI.size * traction._CORNER_T.size if k == 6 else 0
        assert res.evaluations == ts.size * nring.pop() + g.size + corner

    @pytest.mark.parametrize(
        "profile",
        [
            mconvex(2.5, 1e-6),
            flat(0.05, 1e-8),
            mconvex(1.2, 1e-6, dimension=2),
            flat(0.05, 1e-8, dimension=2),
        ],
        ids=lambda prof: f"{prof.dimension}d-{prof.kind}",
    )
    def test_every_pass_splits_at_radial_splits(self, profile, monkeypatch):
        # one owner of the split points: every radial pass, the ring pass and
        # the rotation's G pass, reads radial_splits; no sub-flow adds splits
        # of its own, and the rigid mean makes no pass
        d, splits = profile.dimension, profile.radial_splits()
        U, omega = ((0.3, -0.2, -0.5), (0.15, 0.2, 0.1)) if d == 3 else ((0.4, -0.3), 0.25)
        params = ProblemParams(profile=profile, U=U, omega=omega)
        passes = []

        def spy(f, a, b, spec, *args, **kwargs):
            passes.append((b, spec.split_points))
            return integrate_vector(f, a, b, spec, *args, **kwargs)

        monkeypatch.setattr(traction, "integrate_vector", spy)
        for k in subflow_indices(d):
            passes.clear()
            force_numeric(k, params)
            assert passes == [(profile.r, splits)] * (0 if k == 0 else 2 if k == 6 else 1), k
        passes.clear()
        total_numeric(params)
        assert passes == [(profile.r, splits)] * (2 if d == 3 else 1)


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
                yield (eps, k), lambda t, xp, params=params: _ring_moments(params, [6], t, xp)[0]
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
    # the moments of G by integration by parts along x1: F1, F2, T1 and T2
    # as radial rows, F3 as a polar radial row over the disc plus a fixed
    # tensor rule over the corners of its rectangle.  The graded octant
    # rule (tests/helpers.py), which integrates the moments of G ring by
    # ring, is their reference

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
        got = rotation_pressure(params, ts)
        want = ring_integrals(_pressure_moments(params), mirrored_ring(params.profile, ts), ts)
        scale = np.max(np.abs(want[:6]), axis=0)
        assert np.all(np.abs(got[:6] - want[:6]) <= 1e-13 * scale)
        assert np.all(got[5] == 0.0)

    @_SHORT_RING_PROFILES
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_angular_estimate_bounds_error(self, kind, m, s, eps):
        # against the same rule with every panel split into eight
        params = _rotation_params(kind, m, s, eps)
        ts = _SHORT_RING_RADII
        got = rotation_pressure(params, ts)
        rule = octant_rule(params.profile, ts)
        lo, hi = rule.x[..., 7] - rule.half, rule.x[..., 7] + rule.half
        edges = lo[..., None] + (hi - lo)[..., None] * np.linspace(0.0, 1.0, 9)[:-1]
        edges = np.concatenate([edges.reshape(*lo.shape[:-1], -1), hi[..., -1:]], axis=-1)
        want = rotation_pressure(params, ts, kronrod_panels(edges))
        scale = np.max(np.abs(want[:6]), axis=0)
        assert np.all(np.abs(got[:6] - want[:6]) <= got[6:] + 1e-15 * scale)


    @pytest.mark.parametrize(
        "kind, m, s, eps",
        [("m-convex", m, 0.0, eps) for m in (2.0, 2.5, 4.0, 8.0) for eps in (1e-4, 1e-8)]
        + [("flat-capped", 2.0, 0.05, eps) for eps in (1e-4, 1e-8, 1e-9)],
    )
    def test_pressure_moments_match_octant_rule(self, kind, m, s, eps, monkeypatch):
        # without the field moments, force_numeric(6) returns the moments of G.
        # On the flat cap the radial rows fall from 1/eps^3 over the width
        # delta beyond the rim; the reference splits where the force route
        # does, at radial_splits (s + delta 2^j there), since without splits
        # beyond the rim F3 misses at eps = 1e-8 and the radial rows at 1e-9
        params = _rotation_params(kind, m, s, eps)
        prof = params.profile
        zero_field = lambda _k, _p, _gap, z, running: (None, np.zeros_like(z), np.zeros((3, 3, z.size)))
        monkeypatch.setattr(traction, "_eval", zero_field)
        res = force_numeric(6, params)
        got, got_err = res.components()
        # the reference: the octant rule's ring integrals, radially at 1e-9
        spec = QuadSpec(rel_tol=1e-9, split_points=prof.radial_splits())
        fvec = lambda ts: rotation_pressure(params, ts)
        vals, errs, _ = integrate_vector(fvec, 0.0, prof.r, spec, ncomp=12, ncheck=6)
        want, want_err = vals[:6], errs[:6] + vals[6:]
        assert np.all(np.abs(got - want)[:5] <= (got_err + want_err)[:5])
        assert got[5] == 0.0

    @pytest.mark.parametrize(
        "kind, m, s",
        [("m-convex", m, 0.0) for m in (2.0, 2.5, 4.0)] + [("flat-capped", 2.0, 0.05)],
    )
    def test_solves_at_config_floor(self, kind, m, s):
        # rel_tol = 1e-12 is the config minimum: the G pass, run finer than
        # the ring pass, must still converge within the subdivision budget
        for eps in (1e-2, 1e-4, 1e-6, 1e-8):
            params = _rotation_params(kind, m, s, eps)
            tight, tight_err = force_numeric(6, params, rel_tol=1e-12).components()
            default, default_err = force_numeric(6, params).components()
            assert np.all(np.abs(tight - default) <= tight_err + default_err), eps

    @pytest.mark.parametrize(
        "kind, m, s",
        [("m-convex", m, 0.0) for m in (2.0, 2.5, 4.0, 8.0)] + [("flat-capped", 2.0, 0.05)],
    )
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_f3_row_matches_line(self, kind, m, s, eps):
        # the polar F3 row over the disc plus the corner rule equal the line
        # integral of Q_3 over the rectangle they both cover
        params = _rotation_params(kind, m, s, eps)
        prof = params.profile
        spec = QuadSpec(rel_tol=1e-13, split_points=prof.radial_splits())
        rows = lambda ts: traction._rotation_pressure_rows(params, ts)[2]
        disc = integrate_vector(rows, 0.0, prof.r, spec, ncomp=1)[0][0]
        corner = traction._rotation_corner(params)[0]
        line = rotation_f3_line(params)[0]
        assert disc + corner == pytest.approx(line, rel=1e-12, abs=0.0)


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
            edges = octant_edges(prof, _SHORT_RING_RADII)
            assert np.all(edges[..., 0] == 0.0), prof
            assert np.all(edges[..., -1] == 0.25 * np.pi), prof
            assert np.all(np.diff(edges, axis=-1) > 0.0), prof

    def test_fixed_panel_count(self):
        counts = {"m-convex": set(), "flat-capped": set()}
        for prof in self._cases():
            edges = np.atleast_2d(octant_edges(prof, _SHORT_RING_RADII))
            assert edges.shape[0] in (1, _SHORT_RING_RADII.size), prof
            assert edges.shape[-1] - 1 == octant_panels(prof), prof
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
            panels = np.diff(octant_edges(prof, _SHORT_RING_RADII), axis=-1)
            assert np.all(panels >= width / 40.0), prof

    def test_rule_on_edges(self):
        prof = GapProfile(kind="flat-capped", m=2.0, s=0.05, eps=1e-6, r=0.5, R=2.0, dimension=3)
        rule = octant_rule(prof, _SHORT_RING_RADII)
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
    # U = (0.3, -0.2, -0.5), omega = (0.15, 0.2, 0.1)) with the moments of its
    # running-integral pressure G on the graded octant rule (each value within
    # the bound of the rotation table that preceded it): (F, T, F_err, T_err)
    _K6_OCTANT = {
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
    # the same with the moments of G by integration by parts: F1, F2, T1 and
    # T2 as radial rows, F3 as a line integral.  Each value moved by less
    # than its octant bound.  Pinned again when the radial splits began
    # halving from delta, and again when F3 became a polar radial row plus a
    # corner rule in a G pass of its own, apart from the ring pass of the
    # field moments: each new value lies within the sum of its old and new
    # bounds.  The F1, F2, T1 and T2 bounds rose (at eps = 1e-2 from 5.4e-11,
    # 4.0e-11, 4.0e-11, 5.3e-11), since the field moments now stop on their
    # first round, within the same tolerance; the F3 bounds fell (from 1.9e-9,
    # 8.4e-9, 1.7e-7)
    _K6_REFERENCE = {
        0.01: (
            [11.659655486262768, -8.744741614697075, 75.37550427032969],
            [-10.112676471945786, -13.483568629261047, -2.4622677475471894e-17],
            [1.6955162878782341e-09, 1.2716370370008075e-09, 4.622864679305821e-11],
            [2.5597167319682788e-09, 3.412955603020546e-09, 6.083465793187957e-17],
        ),
        0.001: (
            [117.75384838768386, -88.31538629076287, 815.4689949226841],
            [-86.3439653897835, -115.12528718637799, -2.6154482037023064e-17],
            [1.7916396769955124e-09, 1.3437298557099054e-09, 2.917718627692144e-10],
            [2.6649232328699983e-09, 3.553230471949625e-09, 8.257027359391968e-17],
        ),
        0.0001: (
            [1178.0554493868099, -883.5415870401073, 8235.558371000887],
            [-833.5015874265702, -1111.3354499020938, -2.744988970076434e-17],
            [2.074332140039895e-09, 1.5557475615455185e-09, 2.615433081426319e-09],
            [2.867866432672615e-09, 3.823823059235448e-09, 7.978484662511029e-17],
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
        # integration by parts moved each value by less than the octant bound
        F0, T0, F0_err, T0_err = (np.array(v) for v in self._K6_OCTANT[eps])
        assert np.all(np.abs(res.F - F0) <= F0_err)
        assert np.all(np.abs(res.T - T0) <= T0_err)


class TestReferenceValues:
    # force_numeric on the params3d / params2d fixtures (m = 2, eps = 1e-3)
    # before the traction integrands and drivers were folded into one:
    # (F, T, F_err, T_err, evaluations) per dimension and sub-flow.  The
    # squeeze sub-flows (3D k = 3, 2D k = 2), the 2D rotation (k = 4) and,
    # with the m = 2 closed form of its running integral, the 3D rotation
    # (k = 6) were pinned again when their pressures became closed-form:
    # each new value lies within the old bound of the old one, the bounds
    # fell (3D k = 3 F3 from 1.4e-4 to 1.0e-5, k = 6 F3 from 7.3e-3 to
    # 2.2e-10).  k = 6 was pinned again when the moments of its
    # running-integral pressure left the graded octant rule for integration
    # by parts: each value lies within its octant bound (_OCTANT_K6).  All
    # were pinned again when the radial splits began halving from delta
    # (delta 2^j < r): each new value lies within the sum of its old and new
    # bounds.  The rigid mean (k = 0, 3D and 2D) was pinned again when it
    # became closed-form, and k = 6 when its F3 became a polar radial row plus
    # a corner rule in a G pass of its own: each new value lies within the
    # sum of its old and new bounds.  The evaluations count distinct points:
    # none for k = 0; each radial panel once, on the 8-point ring in 3D for
    # k = 1..5; for k = 6 the 10 field points of its ring plus the nodes of
    # its G pass and of the corner rule (87600 on the octant rule, four
    # running-integral reads per octant node).
    _REFERENCE = {
        3: {
            0: (
                [0.09326603190344698, -0.06994952392758523, 0.0],
                [-0.13161555160058802, -0.17548740213411737, 0.0],
                [9.3266031903447e-17, 6.994952392758524e-17, 0.0],
                [1.4818254410975295e-16, 1.9757672547967062e-16, 0.0],
                0,
            ),
            1: (
                [1.8126761802368663, 6.499081609730511e-19, -6.536196112870825e-18],
                [9.923139309101443e-19, -3.625352360473733, -7.845643837378164e-19],
                [4.153309620493415e-12, 1.9893869338724764e-18, 2.2961873737633203e-17],
                [5.321602765235871e-18, 8.306682776576734e-12, 1.789444158447331e-17],
                600,
            ),
            2: (
                [-3.151647193270011e-19, -1.8126761802368652, -9.991041496670302e-18],
                [-3.6253523604737308, 2.7552467124098094e-19, 1.339706976580181e-17],
                [2.278738362119087e-18, 4.153332234524805e-12, 3.2778274508344095e-17],
                [8.306590268438783e-12, 5.532638751529254e-18, 9.563776724754684e-18],
                600,
            ),
            3: (
                [-2.7592751947941773e-15, 1.161121100713327e-15, 2343.281760636895],
                [3.99999995890534e-15, 9.551410588159003e-15, -3.118351393551635e-17],
                [1.0169517094779291e-14, 1.1580810922852471e-14, 4.983554035343745e-06],
                [2.8799470356489634e-14, 2.597696829101341e-14, 9.158368010984558e-16],
                600,
            ),
            4: (
                [1.5191234677708897e-18, 1.1836373376420883e-17, -2.9844836602659484e-19],
                [2.2271024634735057e-17, -3.932958048777389e-18, -0.08654461720197608],
                [1.7647197767776298e-17, 9.102571466751701e-18, 2.076527290795386e-18],
                [1.7788201894302316e-17, 3.279793931746981e-17, 4.817864146168868e-15],
                600,
            ),
            5: (
                [-0.07672714015950796, 0.05754535511963097, -1.5941367354560666e-18],
                [0.10772760245741088, 0.14363680327654782, -1.037297794598395e-18],
                [4.695948193351456e-15, 3.5210164271484217e-15, 1.282596454152447e-18],
                [6.954192456160888e-15, 9.272385217313783e-15, 1.3729887109770667e-18],
                600,
            ),
            6: (
                [117.75384838768386, -88.31538629076287, 815.4689949226841],
                [-86.3439653897835, -115.12528718637799, -2.6154482037023064e-17],
                [1.7916396769955124e-09, 1.3437298557099054e-09, 2.917718627692144e-10],
                [2.6649232328699983e-09, 3.553230471949625e-09, 8.257027359391968e-17],
                2805,
            ),
        },
        2: {
            0: (
                [-0.14583333333333334, 0.0],
                [-0.27447916666666666],
                [1.4583333333333334e-16, 0.0],
                [3.0885416666666673e-16],
                0,
            ),
            1: (
                [-86.63026682207214, -1.1102230246251565e-16],
                [-173.70471851073324],
                [7.4192050579701815e-09, 1.1898025459146724e-11],
                [1.4834970082752196e-08],
                150,
            ),
            2: (
                [7.105427357601002e-15, 44691.71644499476],
                [2.842170943040401e-14],
                [1.880766884590725e-06, 8.80773864407613e-05],
                [5.668294276988547e-06],
                150,
            ),
            3: (
                [0.11296801849693441, -2.168404344971009e-18],
                [0.21024934465128703],
                [1.0305773892924442e-12, 1.268182480228364e-15],
                [2.053918060698654e-12],
                150,
            ),
            4: (
                [-2338.115174164097, 9309.705135461581],
                [-2228.14455945793],
                [4.2555078244445196e-08, 5.965561330323054e-07],
                [1.221165763366501e-07],
                150,
            ),
        },
    }

    # 3D k = 6 with the moments of G on the graded octant rule, 87600
    # evaluations: (F, T, F_err, T_err)
    _OCTANT_K6 = (
        [117.75384838768385, -88.31538629076287, 815.4689949226839],
        [-86.34396538978349, -115.12528718637802, 1.7511624379093655e-17],
        [8.882146594124447e-10, 6.662095432522377e-10, 2.2460721146905288e-10],
        [2.8466374217566207e-09, 3.7954531274022395e-09, 2.1582626251840923e-16],
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
        got, got_err = res.components()
        # the rings only sum in a different order: values and bounds agree
        # to roundoff of the sub-flow's largest component
        assert np.max(np.abs(got - ref)) <= 1e-12 * scale
        assert np.max(np.abs(got_err - np.array(F_err + T_err))) <= 1e-12 * scale
        assert res.evaluations == nev
        if (d, k) == (3, 6):
            F0, T0, F0_err, T0_err = self._OCTANT_K6
            assert np.all(np.abs(got - np.array(F0 + T0)) <= np.array(F0_err + T0_err))


def _rigid_profiles():
    for m in (2.0, 2.5, 8.0):
        yield mconvex(m)
    for s in (0.05, 0.15):
        yield flat(s)
    for m in (1.2, 1.5, 2.0):
        yield mconvex(m, dimension=2)
    yield flat(0.1, dimension=2)


class TestRigidMean:
    # the rigid mean k = 0 is closed-form: its stress reads only h' and
    # l = (h - eps)/2 - R, so its moments are eps-independent polynomials

    @staticmethod
    def _params(prof):
        if prof.dimension == 3:
            return ProblemParams(profile=prof, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1))
        return ProblemParams(profile=prof, U=(0.4, -0.3), omega=0.25)

    @pytest.mark.parametrize("prof", _rigid_profiles(), ids=lambda p: f"{p.dimension}d-{p.kind}-{p.m}-{p.s}")
    def test_matches_mpmath(self, prof):
        # F and T from I and J by mpmath.quad of their defining integrals
        params = self._params(prof)
        res = force_numeric(0, params)
        with mpmath.workdps(30):
            r, R, s = mpmath.mpf(prof.r), mpmath.mpf(prof.R), mpmath.mpf(prof.s)
            if prof.kind == "m-convex":
                dh = lambda x: prof.m * x ** (prof.m - 1)
                lever = lambda x: x**prof.m / 2 - R
                pts = [0, r]
            else:
                dh = lambda x: 2 * (x - s) if x > s else mpmath.mpf(0)
                lever = lambda x: (x - s) ** 2 / 2 - R if x > s else -R
                pts = [0, s, r]
            if prof.dimension == 3:
                weight = lambda x: (mpmath.mpf(3) / 8 * dh(x) ** 2 + 1) * x
                I = mpmath.quad(weight, pts)
                J = mpmath.quad(lambda x: dh(x) * x**2 / 4 + lever(x) * weight(x), pts)
                w1, w2, _ = params.omega
                want = [mpmath.pi * I * w2, -mpmath.pi * I * w1, mpmath.pi * J * w1, mpmath.pi * J * w2]
                got = [*res.F[:2], *res.T[:2]]
                assert res.F[2] == 0.0 and res.T[2] == 0.0
            else:
                weight = lambda x: dh(x) ** 2 / 4 + mpmath.mpf(1) / 2
                I = mpmath.quad(weight, pts)
                J = mpmath.quad(lambda x: x * dh(x) / 4 + lever(x) * weight(x), pts)
                want, got = [-2 * params.omega * I, 2 * params.omega * J], [res.F[0], res.T]
                assert res.F[1] == 0.0
            want = [float(w) for w in want]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-14 * abs(w)

    @pytest.mark.parametrize("prof", _rigid_profiles(), ids=lambda p: f"{p.dimension}d-{p.kind}-{p.m}-{p.s}")
    @pytest.mark.parametrize("eps", [1e-2, 1e-6])
    def test_matches_ring_pass(self, prof, eps):
        # against the adaptive pass over the rings of traction_moments(0)
        prof = GapProfile(kind=prof.kind, m=prof.m, s=prof.s, eps=eps, r=prof.r, R=prof.R,
                          dimension=prof.dimension)
        params = self._params(prof)
        d, nmom = prof.dimension, 3 * (prof.dimension - 1)
        ring = SHORT_RING if d == 3 else traction.LINE_RING
        moments = lambda t, xp: traction_moments(0, params, xp, prof.h_radial(t))
        spec = QuadSpec(rel_tol=1e-8, split_points=prof.radial_splits())
        vals, errs, _ = integrate_vector(lambda ts: ring_integrals(moments, ring, ts),
                                         0.0 if d == 3 else -prof.r, prof.r, spec,
                                         ncomp=2 * nmom, ncheck=nmom, initial_scale=True)
        got, got_err = force_numeric(0, params).components()
        bound = got_err + errs[:nmom] + vals[nmom:]
        # the pass leaves the exactly vanishing components at roundoff of the
        # largest one, which its per-component floor does not cover
        assert np.all(np.abs(got - vals[:nmom]) <= bound + 1e-15 * np.max(np.abs(got)))

    @pytest.mark.parametrize("d", [3, 2])
    def test_zero_rotation_exact_zeros(self, d):
        # without (w1, w2) in 3D, or w0 in 2D, the rigid mean is exactly
        # zero, with no negative zeros, whatever the translation and spin
        prof = mconvex(2.5) if d == 3 else mconvex(1.5, dimension=2)
        U, omega = ((0.3, -0.2, -0.5), (0.0, 0.0, 0.7)) if d == 3 else ((0.4, -0.3), 0.0)
        res = force_numeric(0, ProblemParams(profile=prof, U=U, omega=omega))
        for v in res.components():
            assert np.all(v == 0.0) and not np.any(np.signbit(v))
        assert res.evaluations == 0


def _contract_params(d, motion):
    # the general motion solves every sub-flow; the pure squeeze leaves
    # most of them at zero scale, zero-filled by total_numeric
    general = motion == "general"
    if d == 3:
        U, omega = ((0.3, -0.2, -0.5), (0.15, 0.2, 0.1)) if general else ((0.0, 0.0, -1.0), (0.0,) * 3)
        return ProblemParams(profile=mconvex(2.5, 1e-4), U=U, omega=omega)
    U, omega = ((0.4, -0.3), 0.25) if general else ((0.0, -1.0), 0.0)
    return ProblemParams(profile=mconvex(1.5, 1e-4, dimension=2), U=U, omega=omega)


def _component(res, name):
    # the component named as in the CSV: F1..F3, T1..T3 or T
    field = getattr(res, name[0])
    return field if name == "T" else field[int(name[1:]) - 1]


class TestResultContract:
    # one moment vector per result: the torque is a float in 2D and a
    # 3-vector in 3D, components() lists the forces then the torque, and a
    # total is the left-to-right sum of its sub-flows

    @staticmethod
    def _results(d, motion):
        params = _contract_params(d, motion)
        total = total_numeric(params)
        return [force_numeric(k, params) for k in subflow_indices(d)] + [total, *total.per_subflow.values()]

    @pytest.mark.parametrize("motion", ["general", "squeeze"])
    @pytest.mark.parametrize("d", [3, 2])
    def test_shapes_and_components(self, d, motion):
        names = component_names(d)
        for res in self._results(d, motion):
            assert isinstance(res, ForceResult)
            assert res.F.shape == res.F_err.shape == (d,)
            if d == 2:
                assert type(res.T) is float and type(res.T_err) is float
            else:
                assert res.T.shape == res.T_err.shape == (3,)
            values, bounds = res.components()
            assert np.array_equal(values, np.r_[res.F, np.atleast_1d(res.T)])
            assert np.array_equal(bounds, np.r_[res.F_err, np.atleast_1d(res.T_err)])
            assert values.shape == bounds.shape == (len(names),)
            for i, name in enumerate(names):
                assert values[i] == _component(res, name)

    @pytest.mark.parametrize("motion", ["general", "squeeze"])
    @pytest.mark.parametrize("d", [3, 2])
    def test_total_sums_subflows(self, d, motion):
        total = total_numeric(_contract_params(d, motion))
        assert isinstance(total, TotalResult) and isinstance(total, ForceResult)
        assert list(total.per_subflow) == list(subflow_indices(d))
        parts = [res.components() for res in total.per_subflow.values()]
        for i, got in enumerate(total.components()):
            want = parts[0][i]
            for part in parts[1:]:
                want = want + part[i]
            assert got.tobytes() == want.tobytes()
        assert total.evaluations == sum(res.evaluations for res in total.per_subflow.values())

    @pytest.mark.parametrize("d", [3, 2])
    def test_zero_filled_subflows(self, d):
        params = _contract_params(d, "squeeze")
        total = total_numeric(params)
        zero = [k for k in subflow_indices(d) if fields.subflow_scale(k, params) == 0.0]
        assert len(zero) >= 2
        for k in zero:
            res = total.per_subflow[k]
            for v in res.components():
                assert np.all(v == 0.0) and not np.any(np.signbit(v))
            assert res.evaluations == 0


class TestPassCounts:
    # a solve makes two radial passes in 3D (the ring pass of k = 1..6 and
    # the rotation's G pass) and one in 2D; the rigid mean makes none.  The
    # ring pass takes the radial jet of h once per ring point set, for all
    # its sub-flows and the boundary normal

    @staticmethod
    def _count(params, monkeypatch):
        passes, reads, jets, point_sets = [], [], [], []

        def counted(fvec, *args, **kwargs):
            calls = []
            passes.append(calls)
            return integrate_vector(lambda x: calls.append(x.size) or fvec(x), *args, **kwargs)

        def spy(*args, **kwargs):
            reads.append(args)
            return running(*args, **kwargs)

        def spy_jet(self, rho, order):
            jets.append(np.size(rho))
            return jet(self, rho, order)

        def spy_rings(f, ring, ts):
            point_sets.append(ts.size * ring[0].shape[-1])
            return rings(f, ring, ts)

        running, jet, rings = fields._running_integral, GapProfile.radial_jet, traction.ring_integrals
        monkeypatch.setattr(traction, "integrate_vector", counted)
        monkeypatch.setattr(fields, "_running_integral", spy)
        monkeypatch.setattr(GapProfile, "radial_jet", spy_jet)
        monkeypatch.setattr(traction, "ring_integrals", spy_rings)
        total_numeric(params)
        return [len(calls) for calls in passes], reads, jets, point_sets

    def test_general3d(self, monkeypatch):
        # m = 2, eps = 1e-4, the general motion: the G pass makes two
        # integrand calls, the ring pass one, and the force route reads no
        # running integral; the ring pass's two point sets (the 8-point ring
        # of k = 1..5, the 10-point ring of the rotation) take one jet each
        params = ProblemParams(profile=mconvex(eps=1e-4), U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1))
        calls, reads, jets, point_sets = self._count(params, monkeypatch)
        assert calls == [2, 1]
        assert reads == [] and not hasattr(traction, "_running_integral")
        assert len(point_sets) == 2 and jets == point_sets

    def test_2d(self, monkeypatch):
        params = ProblemParams(profile=mconvex(1.2, 1e-8, dimension=2), U=(0.4, -0.3), omega=0.25)
        calls, reads, jets, point_sets = self._count(params, monkeypatch)
        assert calls == [1] and reads == []
        assert len(point_sets) == 1 and jets == point_sets


class TestTotalNumeric:
    def test_zero_scale_subflows_skipped(self, monkeypatch):
        # a pure squeeze never integrates the rotation sub-flow, in 3D
        # (k = 6, nor its pressure's G rows) and in 2D (k = 4)
        squeeze3 = ProblemParams(profile=mconvex(eps=2e-3), U=(0.0, 0.0, -1.0))
        squeeze2 = ProblemParams(
            profile=mconvex(eps=2e-3, dimension=2), U=(0.0, -1.0), omega=0.0
        )
        reads = []
        pressure_rows = traction._rotation_pressure_rows

        def spy(*args, **kwargs):
            reads.append(args)
            return pressure_rows(*args, **kwargs)

        monkeypatch.setattr(traction, "_rotation_pressure_rows", spy)
        for params, k, k_squeeze in ((squeeze3, 6, 3), (squeeze2, 4, 2)):
            res = total_numeric(params)
            zero = res.per_subflow[k]
            for v in zero.components():
                assert np.all(v == 0.0) and not np.any(np.signbit(v))
            assert zero.evaluations == 0
            assert res.per_subflow[k_squeeze].evaluations > 0
        assert reads == []
        # the spy sits where the rotation's force route reads its G rows
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


class TestRefinementSteps:
    def test_squeeze_grid_2d_calls(self, monkeypatch):
        # at m < 2 the radial pass starts on panels halving from delta down
        # to where the gap is eps to roundoff, and a refinement round bisects
        # every panel the tolerance still needs in one call: the 2D m = 1.2,
        # eps = 1e-8 solve makes one integrand call, its rigid mean closed-form
        # and k = 1..4 in one ring pass (5 with one pass per sub-flow, 35 with
        # the halving stopped at delta, 66 bisecting one panel per call, 249
        # with delta the only split)
        calls = []

        def counted(fvec, *args, **kwargs):
            return integrate_vector(lambda x: calls.append(x.size) or fvec(x), *args, **kwargs)

        monkeypatch.setattr(traction, "integrate_vector", counted)
        prof = mconvex(1.2, 1e-8, dimension=2)
        total_numeric(ProblemParams(profile=prof, U=(0.4, -0.3), omega=0.25), rel_tol=1e-8)
        assert len(calls) == 1

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("m", [1.1, 1.2, 1.5, 1.8, 1.95])
    def test_2d_axis_grading(self, m, eps, rel_tol, monkeypatch):
        # with panels graded into the axis singularity of m < 2, every total
        # is honest against a rel_tol = 1e-13 solve and the one ring pass of
        # k = 1..4 makes at most two integrand calls
        params = ProblemParams(profile=mconvex(m, eps, dimension=2), U=(0.4, -0.3), omega=0.25)
        ref, ref_err = total_numeric(params, rel_tol=1e-13).components()
        passes = []

        def counted(fvec, *args, **kwargs):
            calls = []
            passes.append(calls)
            return integrate_vector(lambda x: calls.append(x.size) or fvec(x), *args, **kwargs)

        monkeypatch.setattr(traction, "integrate_vector", counted)
        got, got_err = total_numeric(params, rel_tol=rel_tol).components()
        assert np.all(np.abs(got - ref) <= got_err + ref_err)
        assert len(passes) == 1
        assert all(0 < len(calls) <= 2 for calls in passes)

    def test_2d_near_m1_within_min_budget(self):
        # m = 1.01 starts on the most initial panels of the graded splits,
        # 184 at eps = 1e-12 and 204 at 1e-15, and still completes within
        # the smallest budget, which counts the bisections past them
        for eps in (1e-12, 1e-15):
            params = ProblemParams(profile=mconvex(1.01, eps, dimension=2), U=(0.4, -0.3), omega=0.25)
            vals, errs = total_numeric(params, rel_tol=1e-12, max_subdivisions=MIN_SUBDIVISIONS).components()
            assert np.all(errs <= 1e-6 * np.max(np.abs(vals)))

    def test_dual_check_splits_unchanged(self):
        # the dual check's volume integrals split m-convex profiles at delta
        # alone, not at the force route's splits halving from delta: these
        # values, bit for bit, are those of the delta split (the squeeze-type
        # pairs with exact vertical moments, within 1e-14 of the Gauss rule's
        # 2.787815956672281 and -0.08793403108999849; the shear pair within
        # 1e-14 of its value by the Golub-Welsch 5-point rule)
        params = ProblemParams(
            profile=mconvex(eps=1e-4), mu=1.0, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1)
        )
        assert ell(1, 1, params) == 0.00013225807500226477
        assert 0.00013225807500226477 == pytest.approx(0.00013225807500226474, rel=1e-14, abs=0.0)
        assert ell(3, 3, params) == 2.787815956672283
        assert ell(3, 6, params) == -0.08793403108999875
        assert 2.787815956672283 == pytest.approx(2.787815956672281, rel=1e-14, abs=0.0)
        assert -0.08793403108999875 == pytest.approx(-0.08793403108999849, rel=1e-14, abs=0.0)


def _robustness_cases():
    squeeze = (0.0, 0.0, -1.0)
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        for m in (2.0, 2.5, 4.0, 8.0):
            yield pytest.param(mconvex(m, eps), squeeze, (0.0,) * 3,
                               id=f"3d-m{m}-eps{eps:g}")
        for s in (0.05, 0.15):
            yield pytest.param(flat(s, eps), squeeze, (0.0,) * 3,
                               id=f"3d-flat{s}-eps{eps:g}")
        for m in (1.2, 2.0):
            yield pytest.param(mconvex(m, eps, dimension=2), (0.4, -0.3), 0.25,
                               id=f"2d-m{m}-eps{eps:g}")
        # general motion: the rotation sub-flow k = 6, closed-form at m = 2,
        # a Gauss rule otherwise
        for m in (2.0, 2.5, 4.0, 8.0):
            yield pytest.param(mconvex(m, eps), (0.3, -0.2, -0.5),
                               (0.15, 0.2, 0.1), id=f"3d-m{m}-general-eps{eps:g}")
        for s in (0.05, 0.15):
            yield pytest.param(flat(s, eps), (0.3, -0.2, -0.5),
                               (0.15, 0.2, 0.1), id=f"3d-flat{s}-general-eps{eps:g}")


class TestRobustnessGrid:
    # down to eps = 1e-8 the certified bounds stay at the quadrature
    # tolerance: no pressure error term swamps them, and the rotation's
    # angular rings resolve its pressure on m != 2 and flat caps
    @pytest.mark.parametrize("profile, U, omega", _robustness_cases())
    def test_bounds_small(self, profile, U, omega):
        vals, errs = total_numeric(ProblemParams(profile=profile, U=U, omega=omega)).components()
        assert np.max(errs) <= 1e-6 * np.max(np.abs(vals))


class TestFlatCapBounds:
    # on flat caps the integrands fall from their plateau over the width
    # delta beyond the rim; with panels halving from the rim for every
    # sub-flow, each default bound holds against a rel_tol = 1e-13 solve
    @pytest.mark.parametrize("d", [3, 2])
    @pytest.mark.parametrize("s", [0.05, 0.15])
    @pytest.mark.parametrize("eps", [1e-8, 1e-9])
    def test_default_within_bound(self, d, s, eps):
        prof = flat(s, eps, dimension=d)
        U, omega = ((0.3, -0.2, -0.5), (0.15, 0.2, 0.1)) if d == 3 else ((0.4, -0.3), 0.25)
        params = ProblemParams(profile=prof, U=U, omega=omega)
        got, got_err = total_numeric(params).components()
        ref = total_numeric(params, rel_tol=1e-13).components()[0]
        assert np.all(np.abs(got - ref) <= got_err)


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
