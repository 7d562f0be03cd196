"""Constructed gap velocity/pressure fields: boundary data, analytic
gradients, incompressibility, and pressure-gradient consistency."""

import mpmath
import numpy as np
import pytest

from lubgap import fields
from lubgap.fields import (
    ProblemParams,
    _kernel_tail,
    _running_integral,
    boundary_target,
    eval_field,
    eval_field_many,
    pressure_cache_error,
    subflow_indices,
    subflow_scale,
)
from lubgap.geometry import surface_sample

from helpers import divergence, flat, mconvex


RNG_SEED = 74250


def interior_points(prof, n, rng):
    """Random interior points of the gap region, safely off the boundary."""
    pts = []
    for _ in range(n):
        if prof.dimension == 3:
            t = 0.9 * prof.r * np.sqrt(rng.uniform())
            th = rng.uniform(0.0, 2.0 * np.pi)
            x1, x2 = t * np.cos(th), t * np.sin(th)
            h = float(prof.h(x1, x2))
            pts.append((x1, x2, rng.uniform(-0.45, 0.45) * h))
        else:
            x1 = float(rng.uniform(-0.9, 0.9) * prof.r)
            h = float(prof.h(x1))
            pts.append((x1, rng.uniform(-0.45, 0.45) * h))
    return pts


def surface_points(prof, n, rng):
    pts = []
    for _ in range(n):
        side = "top" if rng.uniform() < 0.5 else "bottom"
        if prof.dimension == 3:
            t = 0.95 * prof.r * np.sqrt(rng.uniform())
            th = rng.uniform(0.0, 2.0 * np.pi)
            pts.append((side, (t * np.cos(th), t * np.sin(th))))
        else:
            pts.append((side, float(rng.uniform(-0.95, 0.95) * prof.r)))
    return pts


def closed_form_grad_h(prof, xp):
    """``grad h`` written out: ``m |x'|^(m-2) x'``, or ``2 (rho - s)/rho x'`` beyond a flat rim."""
    rho = float(np.hypot(*xp)) if len(xp) == 2 else abs(xp[0])
    if prof.kind == "m-convex":
        fac = prof.m * rho ** (prof.m - 2.0)
    else:
        fac = 2.0 * (rho - prof.s) / rho if rho > prof.s else 0.0
    return [fac * x for x in xp]


def motion_scale(params):
    vals = np.atleast_1d(params.U).tolist() + np.atleast_1d(params.omega).tolist()
    return max(max(abs(float(v)) for v in vals), 1e-30)


def sp_coords(sp, dim):
    return (*sp.xprime, sp.x3) if dim == 3 else (sp.xprime, sp.x3)


class TestSubflowIndices:
    def test_ranges(self):
        assert subflow_indices(3) == (0, 1, 2, 3, 4, 5, 6)
        assert subflow_indices(2) == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("dim, k", [(3, 7), (3, -1), (2, 5)])
    def test_eval_rejects_unknown_index(self, dim, k, params3d, params2d):
        params = params3d if dim == 3 else params2d
        coords = [np.array([0.01])] * dim
        with pytest.raises(ValueError):
            eval_field_many(k, params, *coords)
        with pytest.raises(ValueError):
            eval_field(k, params, [0.01] * dim)


class TestBoundaryConditions:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_residuals(self, dim, params3d, params2d):
        params = params3d if dim == 3 else params2d
        prof = params.profile
        rng = np.random.default_rng(RNG_SEED)
        scale = motion_scale(params)
        for k in subflow_indices(dim):
            for side, xp in surface_points(prof, 1000 // len(subflow_indices(dim)), rng):
                sp = surface_sample(prof, side, xp)
                u = eval_field(k, params, sp_coords(sp, dim)).u
                target = boundary_target(k, params, sp)
                assert np.max(np.abs(u - target)) <= 1e-12 * scale
                # the rigid mean sums its rows in boundary_target's order
                assert k != 0 or np.array_equal(u, target)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_array_sample_matches_points(self, dim, params3d, params2d):
        # surface_sample and boundary_target take point arrays: each column
        # holds the point-by-point value, and scalar input still gives floats
        params = params3d if dim == 3 else params2d
        prof = params.profile
        xs = np.random.default_rng(RNG_SEED + 1).uniform(-0.6, 0.6, (dim - 1, 40)) * prof.r
        pick = (lambda a: tuple(a)) if dim == 3 else (lambda a: a[0])
        for side in ("top", "bottom"):
            sp = surface_sample(prof, side, pick(xs))
            targets = [boundary_target(k, params, sp) for k in subflow_indices(dim)]
            for i in range(xs.shape[1]):
                one = surface_sample(prof, side, pick(xs[:, i]))
                assert isinstance(one.x3, float) and isinstance(one.jac, float)
                got = [sp.x3[i], sp.jac[i], *(v[i] for v in sp.n), *(v[i] for v in sp.nu)]
                assert got == pytest.approx([one.x3, one.jac, *one.n, *one.nu], rel=1e-15, abs=1e-300)
                for k, target in zip(subflow_indices(dim), targets):
                    want = boundary_target(k, params, one)
                    assert target[:, i] == pytest.approx(want, rel=1e-15, abs=1e-300)
        outside = np.array([[0.0, 1.1 * prof.r], [0.0, 0.0]])[: dim - 1]
        with pytest.raises(ValueError):
            surface_sample(prof, "top", pick(outside))

    def test_squeeze_target_3d(self, params3d):
        sp = surface_sample(params3d.profile, "top", (0.1, 0.2))
        target = boundary_target(3, params3d, sp)
        assert tuple(target) == pytest.approx((0.0, 0.0, params3d.U[2] / 2.0))

    def test_profile_shear_target_3d(self, params3d):
        # k=5 top: (w2 t^m / 4, -w1 t^m / 4, 0)
        sp = surface_sample(params3d.profile, "top", (0.3, 0.0))
        target = boundary_target(5, params3d, sp)
        tm = 0.3**2
        w1, w2, _ = params3d.omega
        assert tuple(target) == pytest.approx((w2 * tm / 4.0, -w1 * tm / 4.0, 0.0))

    def test_spin_target_2d(self, params2d):
        sp = surface_sample(params2d.profile, "bottom", 0.2)
        target = boundary_target(4, params2d, sp)
        assert tuple(target) == pytest.approx((0.0, -params2d.omega * 0.2 / 2.0))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_decomposition_identity(self, dim, params3d, params2d):
        # sum over k of the top targets = U + omega x nu; bottom sums to 0
        params = params3d if dim == 3 else params2d
        prof = params.profile
        rng = np.random.default_rng(RNG_SEED + 1)
        for side, xp in surface_points(prof, 50, rng):
            sp = surface_sample(prof, side, xp)
            total = sum(boundary_target(k, params, sp) for k in subflow_indices(dim))
            if side == "bottom":
                expected = np.zeros(dim)
            elif dim == 3:
                expected = np.asarray(params.U) + np.cross(params.omega, sp.nu)
            else:
                nu = np.asarray(sp.nu)
                expected = np.asarray(params.U) + params.omega * np.array(
                    [-nu[1], nu[0]]
                )
            assert np.max(np.abs(total - expected)) <= 1e-12 * motion_scale(params)


class TestFieldValues:
    def test_shear_on_top_surface(self, params3d):
        # k=1 top-surface velocity is the constant (c/2, 0, 0)
        c = params3d.U[0] - params3d.omega[1] * params3d.profile.R
        sp = surface_sample(params3d.profile, "top", (0.21, -0.08))
        u = eval_field(1, params3d, sp_coords(sp, 3)).u
        assert tuple(u) == pytest.approx((c / 2.0, 0.0, 0.0), abs=1e-14)

    def test_squeeze_horizontal_vanishes_on_top(self, params3d):
        sp = surface_sample(params3d.profile, "top", (0.17, 0.05))
        u = eval_field(3, params3d, sp_coords(sp, 3)).u
        assert abs(u[0]) <= 1e-14
        assert abs(u[1]) <= 1e-14

    def test_rigid_mean_formula(self, params3d):
        # k=0 is (U + omega x nu)/2 with the surface lever arm
        prof = params3d.profile
        x = (0.1, -0.2, 0.0003)
        u = eval_field(0, params3d, x).u
        nu = np.array([x[0], x[1], 0.5 * (0.1**2 + 0.2**2) - prof.R])
        expected = 0.5 * (np.asarray(params3d.U) + np.cross(params3d.omega, nu))
        assert np.max(np.abs(u - expected)) <= 1e-14

    def test_profile_shear_2d_on_top(self, params2d):
        # 2D k=3 top: u1 = -omega0 |x1|^m / 4
        prof = params2d.profile
        x1 = 0.3
        sp = surface_sample(prof, "top", x1)
        u = eval_field(3, params2d, sp_coords(sp, 2)).u
        assert u[0] == pytest.approx(-params2d.omega * x1**2 / 4.0, rel=1e-12)


class TestDivergence:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_corrective_subflows_divergence_free(self, dim, params3d, params2d):
        params = params3d if dim == 3 else params2d
        rng = np.random.default_rng(RNG_SEED + 2)
        pts = interior_points(params.profile, 40, rng)
        for k in subflow_indices(dim):
            if k == 0:
                continue
            for x in pts:
                div = divergence(k, params, x)
                gscale = float(np.max(np.abs(eval_field(k, params, x).grad_u)))
                assert abs(div) <= 1e-12 * max(gscale, 1e-30)

    def test_rigid_mean_divergence_identity(self, params3d, params2d, params3d_flat):
        # the k=0 rigid-mean interpolant carries the surface lever arm, so
        # div u = (omega2 d1h - omega1 d2h)/4 (2D: -omega0 h'/4), not zero
        rng = np.random.default_rng(RNG_SEED + 3)
        params2d_m12 = ProblemParams(profile=mconvex(1.2, 1e-3, dimension=2),
                                     U=params2d.U, omega=params2d.omega)
        params2d_flat = ProblemParams(profile=flat(0.1, 1e-3, dimension=2),
                                      U=params2d.U, omega=params2d.omega)
        for params in (params3d, params3d_flat):
            for x in interior_points(params.profile, 20, rng):
                g1, g2 = closed_form_grad_h(params.profile, x[:2])
                expected = 0.25 * (params.omega[1] * g1 - params.omega[0] * g2)
                assert divergence(0, params, x) == pytest.approx(expected, abs=1e-14)
        for params in (params2d, params2d_m12, params2d_flat):
            for x in interior_points(params.profile, 20, rng):
                (g1,) = closed_form_grad_h(params.profile, x[:1])
                expected = -0.25 * params.omega * g1
                assert divergence(0, params, x) == pytest.approx(expected, abs=1e-14)

    def test_rotation_divergence_cancellation_3d(self, params3d):
        # k=6 divergence cancels through A3 = d1A1 + d2A2, B3 = d1B1 + d2B2
        prof = params3d.profile
        h = float(prof.h(0.1, 0.2))
        x = (0.1, 0.2, 0.3 * h)
        div = divergence(6, params3d, x)
        gscale = float(np.max(np.abs(eval_field(6, params3d, x).grad_u)))
        assert abs(div) <= 1e-12 * gscale


class TestGradients:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_analytic_vs_central_differences(self, dim, params3d, params2d):
        params = params3d if dim == 3 else params2d
        prof = params.profile
        rng = np.random.default_rng(RNG_SEED + 4)
        step = 1e-6 * prof.r
        for k in subflow_indices(dim):
            for x in interior_points(prof, 8, rng):
                fe = eval_field(k, params, x)
                fd = np.zeros((dim, dim))
                for j in range(dim):
                    dx = np.zeros(dim)
                    dx[j] = step
                    up = eval_field(k, params, tuple(np.asarray(x) + dx)).u
                    um = eval_field(k, params, tuple(np.asarray(x) - dx)).u
                    fd[:, j] = (up - um) / (2.0 * step)
                scale = max(float(np.max(np.abs(fe.grad_u))), 1e-12)
                assert np.max(np.abs(fe.grad_u - fd)) <= 1e-6 * scale


NONCONSTANT_PRESSURE = {3: (3, 6), 2: (2, 4)}
SHEAR_TYPE = {3: (1, 2, 4, 5), 2: (1, 3)}


def _mp_gap(prof):
    """The gap ``h`` as an mpmath function of the planar coordinates."""

    def h(*x):
        rho = mpmath.sqrt(sum(t * t for t in x))
        if prof.kind == "m-convex":
            return prof.eps + rho**prof.m
        return prof.eps + max(rho - prof.s, 0) ** 2

    return h


def _mp_planar_coefficients(k, params):
    """``[(A_a, B_a)]`` of squeeze-type sub-flow ``k`` as mpmath functions of ``x'``."""
    h = _mp_gap(params.profile)
    if params.profile.dimension == 2:
        U2, w0 = params.U[1], params.omega
        if k == 2:
            return [(lambda a: 1.5 * U2 * a / h(a), lambda a: -2.0 * U2 * a / h(a) ** 3)]
        return [(lambda a: 0.75 * w0 * a * a / h(a), lambda a: -w0 * a * a / h(a) ** 3)]
    U3, (w1, w2, _w3) = params.U[2], params.omega
    if k == 3:
        return [(lambda a, b: 0.75 * U3 * a / h(a, b), lambda a, b: -U3 * a / h(a, b) ** 3),
                (lambda a, b: 0.75 * U3 * b / h(a, b), lambda a, b: -U3 * b / h(a, b) ** 3)]
    return [(lambda a, b: -0.75 * w2 * a * a / h(a, b), lambda a, b: w2 * a * a / h(a, b) ** 3),
            (lambda a, b: 0.75 * w1 * b * b / h(a, b), lambda a, b: -w1 * b * b / h(a, b) ** 3)]


def _mp_derivative(xp):
    """``D(f, *axes)``: the planar partial derivative of ``f`` at ``xp``."""
    return lambda f, *axes: mpmath.diff(f, xp, tuple(axes.count(i) for i in range(len(xp))))


def _mp_ansatz(coefs, xp, z):
    """``u`` and ``grad u`` of ``u_a = -(A_a + 3 B_a z^2)``, ``u_z = A z + B z^3``.

    ``A = sum_a d_a A_a`` and ``B = sum_a d_a B_a`` make the field
    divergence-free; every planar derivative is ``mpmath.diff``.
    """
    d = len(xp)
    D = _mp_derivative(xp)
    u, grad = [], []
    for A, B in coefs:
        u.append(-(A(*xp) + 3 * B(*xp) * z * z))
        grad.append([-(D(A, j) + 3 * D(B, j) * z * z) for j in range(d)] + [-6 * B(*xp) * z])
    Av = sum(D(A, a) for a, (A, _B) in enumerate(coefs))
    Bv = sum(D(B, a) for a, (_A, B) in enumerate(coefs))
    u.append(Av * z + Bv * z**3)
    row = []
    for j in range(d):
        dA = sum(D(A, a, j) for a, (A, _B) in enumerate(coefs))
        dB = sum(D(B, a, j) for a, (_A, B) in enumerate(coefs))
        row.append(dA * z + dB * z**3)
    grad.append(row + [Av + 3 * Bv * z * z])
    return np.array(u, dtype=float), np.array(grad, dtype=float)


def _mp_shear_profile(k, params):
    """``[V_a]`` of shear-type sub-flow ``k`` as mpmath functions of ``x'``.

    Each ``V`` is read off the sub-flow's boundary data: ``z V`` takes the
    tangential target at ``z = +-h/2``.
    """
    prof = params.profile
    h, eps, R = _mp_gap(prof), prof.eps, prof.R
    if prof.dimension == 2:
        (U1, _U2), w0 = params.U, params.omega
        if k == 1:
            return [lambda a: (U1 + w0 * R) / h(a)]
        return [lambda a: w0 * (eps / h(a) - 1) / 2]
    (U1, U2, _U3), (w1, w2, w3) = params.U, params.omega
    return {
        1: [lambda a, b: (U1 - w2 * R) / h(a, b), lambda a, b: 0],
        2: [lambda a, b: 0, lambda a, b: (U2 + w1 * R) / h(a, b)],
        4: [lambda a, b: -w3 * b / h(a, b), lambda a, b: w3 * a / h(a, b)],
        5: [lambda a, b: w2 * (1 - eps / h(a, b)) / 2, lambda a, b: -w1 * (1 - eps / h(a, b)) / 2],
    }[k]


def _mp_shear_ansatz(V, h, xp, z):
    """``u`` and ``grad u`` of ``u' = z V``, ``u_z = (h^2/4 - z^2) div V / 2``.

    The vertical velocity makes the field divergence-free and vanishes on
    both boundaries; every planar derivative is ``mpmath.diff``.
    """
    d = len(xp)
    D = _mp_derivative(xp)
    divV = sum(D(Va, a) for a, Va in enumerate(V))
    hv = h(*xp)
    u = [z * Va(*xp) for Va in V] + [(hv * hv / 4 - z * z) * divV / 2]
    grad = [[z * D(Va, j) for j in range(d)] + [Va(*xp)] for Va in V]
    row = []
    for j in range(d):
        ddivV = sum(D(Va, a, j) for a, Va in enumerate(V))
        row.append(hv * D(h, j) * divV / 4 + (hv * hv / 4 - z * z) * ddivV / 2)
    grad.append(row + [-z * divV])
    return np.array(u, dtype=float), np.array(grad, dtype=float)


def _mp_reference(family, k, params):
    """``(xp, z) -> (u, grad)`` of sub-flow ``k``'s ansatz in mpmath."""
    if family == "squeeze":
        coefs = _mp_planar_coefficients(k, params)
        return lambda xp, z: _mp_ansatz(coefs, xp, z)
    V, h = _mp_shear_profile(k, params), _mp_gap(params.profile)
    return lambda xp, z: _mp_shear_ansatz(V, h, xp, z)


_SQUEEZE_TYPE_PROFILES = [
    mconvex(m, 1e-3) for m in (2.0, 2.5, 4.0, 8.0)
] + [flat(0.05, 1e-3)] + [
    mconvex(m, 1e-3, dimension=2) for m in (1.2, 2.0, 4.0)
]
_EXACT_IDS = ["m2", "m2.5", "m4", "m8", "flat", "2d-m1.2", "2d-m2", "2d-m4"]


def _exact_case(prof):
    """Motion and points of the exact tests: the axis, generic points, both
    sides of the flat rim ``|x'| = 0.05``, each at two heights."""
    if prof.dimension == 3:
        params = ProblemParams(profile=prof, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1))
        c, s = np.cos(0.7), np.sin(0.7)
        planar = [(0.0, 0.0), (0.03, 0.07), (-0.09, 0.02), (0.011, -0.004), (0.2, -0.25),
                  (0.049 * c, 0.049 * s), (0.051 * c, -0.051 * s)]
    else:
        params = ProblemParams(profile=prof, U=(0.4, -0.3), omega=0.25)
        planar = [(0.0,), (0.03,), (-0.09,), (0.011,), (0.3,), (-0.049,), (0.051,)]
    return params, [(*xp, f * float(prof.h(*xp))) for xp in planar for f in (0.3, -0.41)]


class TestSqueezeTypeExact:
    # the squeeze- and shear-type sub-flows against their ansatz,
    # differentiated by mpmath from its definition: other m than the
    # central-difference test, flat caps, and the limits on the axis

    @pytest.mark.parametrize(
        "prof, family",
        [pytest.param(p, "squeeze", id=i) for p, i in zip(_SQUEEZE_TYPE_PROFILES, _EXACT_IDS)]
        + [pytest.param(p, "shear", id="shear-" + i)
           for p, i in zip(_SQUEEZE_TYPE_PROFILES, _EXACT_IDS)],
    )
    def test_matches_mpmath(self, prof, family):
        params, points = _exact_case(prof)
        if family == "shear":
            # a squeeze type is held at each point.  A shear type's V = (a +
            # b/h) e cancels near the axis (k = 5: (1 - eps/h)/2), so it is
            # held to its largest value over the points; and for m < 2 its
            # d1 u2 ~ h'' is unbounded on the axis, which is left out
            points = [x for x in points if prof.m >= 2.0 or x[0] != 0.0]
        coords = np.array(points).T
        ks = (NONCONSTANT_PRESSURE if family == "squeeze" else SHEAR_TYPE)[prof.dimension]
        for k in ks:
            u, _p, grad = eval_field_many(k, params, *coords)
            reference = _mp_reference(family, k, params)
            with mpmath.workdps(30):
                want = [reference(tuple(map(mpmath.mpf, x[:-1])), x[-1]) for x in points]
            for got, ref in ((u, [w[0] for w in want]), (grad, [w[1] for w in want])):
                ref = np.moveaxis(np.array(ref), 0, -1)
                scale = np.abs(ref).reshape(-1, len(points)).max(axis=0)
                if family == "shear":
                    scale = scale.max()
                err = np.abs(got - ref).reshape(-1, len(points)).max(axis=0)
                assert np.all(err <= 1e-12 * scale), (k, points[int(np.argmax(err / scale))])

    @pytest.mark.parametrize("k", SHEAR_TYPE[2])
    @pytest.mark.parametrize("x1", [-1.5e-3, 2e-3])
    def test_near_axis_second_derivative_2d(self, k, x1):
        # d1 u2 sums H1 + H2 x1^2 = h'', which cancels by a factor of about
        # 5 at m = 1.2 near the axis; H2 taken from H1 keeps it to roundoff
        prof = _SQUEEZE_TYPE_PROFILES[5]
        params = ProblemParams(profile=prof, U=(0.4, -0.3), omega=0.25)
        z = 0.3 * float(prof.h(x1))
        got = eval_field_many(k, params, np.array([x1]), np.array([z]))[2][1, 0, 0]
        with mpmath.workdps(40):
            want = _mp_reference("shear", k, params)((mpmath.mpf(x1),), z)[1][1, 0]
        assert abs(got - want) <= 1e-15 * abs(want)

    @pytest.mark.parametrize("prof", _SQUEEZE_TYPE_PROFILES, ids=_EXACT_IDS)
    def test_planar_rows_match_flat_points(self, prof):
        # planar arrays (n, 1) under heights (n, 5) give, bit for bit, what
        # the flat public entry point gives at the repeated points
        params, points = _exact_case(prof)
        xp = np.array(points)[:, :-1]
        z = np.array(points)[:, -1:] * np.linspace(-1.0, 1.0, 5)
        gap = prof.at(tuple(xp.T[:, :, None]), 2)
        for k in subflow_indices(prof.dimension):
            rows = fields._eval(k, params, gap, z)
            flat = eval_field_many(k, params, *np.repeat(xp, 5, axis=0).T, z.ravel())
            for got, want in zip(rows, flat):
                assert got.shape == want.shape[:-1] + z.shape
                assert np.array_equal(got.reshape(want.shape), want)

    @pytest.mark.parametrize("prof", [_SQUEEZE_TYPE_PROFILES[1], _SQUEEZE_TYPE_PROFILES[4]],
                             ids=["m2.5", "flat"])
    def test_spin_vertical_row_exactly_zero(self, prof):
        # V = omega3 J x' / h is divergence-free for radial h, so the
        # vertical spin has no vertical velocity, bit for bit
        params, points = _exact_case(prof)
        u, _p, grad = eval_field_many(4, params, *np.array(points).T)
        assert np.all(u[2] == 0.0)
        assert np.all(grad[2] == 0.0)


def _stokes_residual(k, params, x, step):
    """grad p - mu*laplace(u) by central differences, and the field scale."""
    dim = params.profile.dimension
    xa = np.asarray(x, dtype=float)
    gp = np.zeros(dim)
    lap = np.zeros(dim)
    u0 = eval_field(k, params, tuple(xa)).u
    for j in range(dim):
        dx = np.zeros(dim)
        dx[j] = step
        fp = eval_field(k, params, tuple(xa + dx))
        fm = eval_field(k, params, tuple(xa - dx))
        gp[j] = (fp.p - fm.p) / (2.0 * step)
        lap += (fp.u + fm.u - 2.0 * u0) / step**2
    lap *= params.mu
    scale = max(float(np.max(np.abs(gp))), float(np.max(np.abs(lap))), 1e-10)
    return gp - lap, scale


class TestPressure:
    # The pressures are chosen so that grad p balances mu*laplace(u) for
    # the x3-independent part of the momentum equation.  The balance is
    # therefore exact on the midplane x3 = 0 (except for the 3D rotation
    # sub-flow, whose pressure gradient has a genuinely unmatched
    # x3-independent cross term), while off the midplane an O(x3^2)
    # remainder survives: the constructed velocities are quadratic in x3
    # but the matched gradient is not, so no x3-independent pressure can
    # cancel the curvature carried by the horizontal Laplacian.

    @pytest.mark.parametrize("dim", [2, 3])
    def test_midplane_balance_exact(self, dim, params3d, params2d):
        params = params3d if dim == 3 else params2d
        prof = params.profile
        rng = np.random.default_rng(RNG_SEED + 5)
        step = 2e-5 * prof.r
        for k in NONCONSTANT_PRESSURE[dim]:
            if dim == 3 and k == 6:
                continue
            for x in interior_points(prof, 5, rng):
                x = (*np.asarray(x)[: dim - 1], 0.0)
                res, scale = _stokes_residual(k, params, x, step)
                assert np.max(np.abs(res)) <= 1e-6 * scale

    def test_squeeze_residual_law_3d(self, params3d):
        # off the midplane the unmatched remainder for the squeeze sub-flow
        # (m = 2) is exactly mu*U3 * 144 x' (eps - rho^2) / h^5 * x3^2 in
        # the horizontal components (derived symbolically from the
        # constructed profile functions)
        prof = params3d.profile
        step = 1e-5 * prof.r
        for x1, x2 in ((0.1, -0.05), (0.25, 0.15)):
            rho2 = x1 * x1 + x2 * x2
            h = prof.eps + rho2
            for frac in (0.2, 0.4):
                x3 = frac * h / 2.0
                res, _ = _stokes_residual(3, params3d, (x1, x2, x3), step)
                pred = (
                    params3d.mu
                    * params3d.U[2]
                    * 144.0
                    * np.array([x1, x2])
                    * (prof.eps - rho2)
                    / h**5
                    * x3
                    * x3
                )
                assert np.max(np.abs(res[:2] - pred)) <= 1e-3 * np.max(np.abs(pred))

    def test_offplane_residual_quadratic_2d(self, params2d):
        # the 2D remainder scales like x3^2: doubling x3 quadruples it
        prof = params2d.profile
        step = 1e-5 * prof.r
        x1 = 0.15
        h = float(prof.h(x1))
        for k in NONCONSTANT_PRESSURE[2]:
            r1, _ = _stokes_residual(k, params2d, (x1, 0.1 * h), step)
            r2, _ = _stokes_residual(k, params2d, (x1, 0.2 * h), step)
            assert abs(r2[0] / r1[0]) == pytest.approx(4.0, rel=5e-2)

    def test_rotation_cross_term_survives_3d(self, params3d):
        # the 3D rotation pressure leaves an x3-independent cross-gradient
        # unmatched even on the midplane; assert it is genuinely there
        step = 1e-5 * params3d.profile.r
        res, scale = _stokes_residual(6, params3d, (0.1, -0.05, 0.0), step)
        assert np.max(np.abs(res)) > 0.1 * scale

    def test_constant_pressure_subflows_zero(self, params3d, params2d):
        rng = np.random.default_rng(RNG_SEED + 6)
        for params in (params3d, params2d):
            dim = params.profile.dimension
            for k in subflow_indices(dim):
                if k in NONCONSTANT_PRESSURE[dim]:
                    continue
                for x in interior_points(params.profile, 5, rng):
                    assert eval_field(k, params, x).p == 0.0

    def test_pressure_cache_error_reported(self, prof3d, prof2d, prof3d_m25, prof3d_flat):
        # no pressure is tabulated: every one is closed-form or, for the 3D
        # rotation off m = 2, a Gauss rule exact to roundoff
        assert pressure_cache_error(3, prof3d) == 0.0
        assert pressure_cache_error(2, prof2d) == 0.0
        assert pressure_cache_error(4, prof2d) == 0.0
        assert pressure_cache_error(6, prof3d) == 0.0
        assert pressure_cache_error(6, prof3d_m25) == 0.0
        assert pressure_cache_error(6, prof3d_flat) == 0.0


class TestKernelTails:
    # the running integrals of the squeeze and 2D rotation pressures,
    # int_rho^r and int_0^rho of t^j / h^3, as differences of closed-form
    # tails; flat caps checked against 30-digit quadrature split at the rim

    @pytest.mark.parametrize("s", [0.05, 0.15])
    @pytest.mark.parametrize("eps", [1e-2, 1e-5, 1e-8])
    def test_flat_cap_running_integrals(self, s, eps):
        prof = flat(s, eps)
        r, delta = prof.r, prof.boundary_layer_scale()
        with mpmath.workdps(30):
            S, E = mpmath.mpf(s), mpmath.mpf(eps)

            def exact(j, a, b):
                flat = (min(b, S) ** (j + 1) - min(a, S) ** (j + 1)) / ((j + 1) * E**3)
                lo = max(a, S)
                if lo >= b:
                    return float(flat)
                pts = [lo] + [p for p in (s + delta, s + 10 * delta) if lo < p < b] + [b]
                return float(flat + mpmath.quad(lambda t: t**j / (E + (t - S) ** 2) ** 3, pts))

            for j in (1, 2):
                full = exact(j, 0.0, r)
                for rho in (0.0, 0.5 * s, s, s + delta, r):
                    outer = _kernel_tail(prof, j, rho) - _kernel_tail(prof, j, r)
                    inner = _kernel_tail(prof, j, 0.0) - _kernel_tail(prof, j, rho)
                    tol = 1e-14 * full
                    assert outer == pytest.approx(exact(j, rho, r), rel=1e-12, abs=tol)
                    assert inner == pytest.approx(exact(j, 0.0, rho), rel=1e-12, abs=tol)


class TestLinearity:
    def test_fields_linear_in_motion(self, prof3d):
        base = ProblemParams(
            profile=prof3d, mu=1.0, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1)
        )
        double = ProblemParams(
            profile=prof3d, mu=1.0, U=(0.6, -0.4, -1.0), omega=(0.3, 0.4, 0.2)
        )
        x = (0.1, -0.05, 0.0002)
        for k in subflow_indices(3):
            u1 = eval_field(k, base, x).u
            u2 = eval_field(k, double, x).u
            assert np.max(np.abs(u2 - 2.0 * u1)) <= 1e-12 * max(
                float(np.max(np.abs(u2))), 1e-30
            )


@pytest.fixture
def prof3d_m25():
    return mconvex(2.5, 1e-3)


@pytest.fixture
def params3d_m25(prof3d_m25):
    return ProblemParams(
        profile=prof3d_m25, mu=1.0, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1)
    )


class TestRotationClosedForm:
    # at m-convex m = 2 the running integral of the 3D rotation pressure,
    # Q(a, c) = int_0^a t^2 / (eps + t^2 + c^2)^3 dt, is evaluated in closed form

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_matches_mpmath(self, eps):
        prof = mconvex(2.0, eps)
        r, delta = prof.r, prof.boundary_layer_scale()
        with mpmath.workdps(30):
            E = mpmath.mpf(eps)
            for c in (0.0, 0.1 * delta, delta, r):
                A, C2 = eps + c * c, mpmath.mpf(c) ** 2
                full = np.pi / (16.0 * A**1.5)  # the integral over [0, inf)
                sA = np.sqrt(A)
                for a in np.geomspace(1e-4 * sA, r, 13):
                    pts = [0] + [p for p in (sA, 10 * sA) if p < a] + [a]
                    exact = float(mpmath.quad(lambda t: t**2 / (E + t**2 + C2) ** 3, pts))
                    for sgn in (1.0, -1.0):
                        got = float(_running_integral(prof, 3, sgn * a, c))
                        assert abs(got - sgn * exact) <= 1e-12 * full, (a, c)

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6, 1e-8])
    def test_table_error_is_honest(self, eps):
        # off m = 2 the rotation pressure reports a zero table error too: the
        # Gauss rule that serves it, run on a profile within roundoff of
        # m = 2, must match the closed form to roundoff on a dense grid
        # reaching into c < delta, for Q_1, Q_3 and their d22, each against
        # its largest value
        prof = mconvex(2.0, eps)
        near = mconvex(np.nextafter(2.0, 3.0), eps)
        assert pressure_cache_error(6, near) == 0.0
        r, delta = prof.r, prof.boundary_layer_scale()
        mult = np.array([0.0, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0])
        g = np.append(mult[mult * delta < r] * delta, r)
        g = np.unique(np.concatenate([g, 0.5 * (g[:-1] + g[1:]), np.sqrt(g[1:-1] * g[2:])]))
        a, c = np.meshgrid(g, g, indexing="ij")
        for n in (1, 3):
            for second in (False, True):
                exact = _running_integral(prof, n, a, c, second)
                got = _running_integral(near, n, a, c, second)
                assert np.max(np.abs(got - exact)) <= 1e-13 * np.max(np.abs(exact))


def _mp_running_integral(prof, n, a, c, second):
    """``Q_n(a, c)`` or ``d22 Q_n(a, c)`` by 20-digit tanh-sinh quadrature.

    ``d22`` is taken under the integral from the chain rule on ``h(rho)``,
    ``rho = sqrt(t^2 + c^2)``, written out independently of the jet code.
    """
    E, C = mpmath.mpf(prof.eps), mpmath.mpf(c)
    if prof.kind == "m-convex":
        m = mpmath.mpf(prof.m)
        H = lambda rho: (E + rho**m, m * rho ** (m - 1), m * (m - 1) * rho ** (m - 2))
    else:
        S = mpmath.mpf(prof.s)
        H = lambda rho: (E + (rho - S) ** 2, 2 * (rho - S), 2) if rho > S else (E, 0, 0)

    def f(t):
        rho = mpmath.sqrt(t * t + C * C)
        h, h1, h2 = H(rho)
        if not second:
            return t * t / h**n
        g1 = -n * h1 / h ** (n + 1)
        g2 = n * (n + 1) * h1**2 / h ** (n + 2) - n * h2 / h ** (n + 1)
        return t * t * (g1 / rho + C * C * (g2 / rho**2 - g1 / rho**3))

    delta = prof.boundary_layer_scale()
    pts = [delta * k for k in (1.0, 10.0, 100.0)]
    if prof.kind == "flat-capped":
        if c < prof.s:  # the rim, where h leaves eps
            rim = np.sqrt(prof.s**2 - c * c)
            pts += [rim, rim + delta, rim + 10.0 * delta]
        pts += [np.sqrt(2.0 * prof.s * delta)]
    pts = [0.0] + sorted(p for p in set(pts) if 0.0 < p < a) + [a]
    return float(mpmath.quad(f, pts))


def _running_integral_profiles():
    for eps in (1e-2, 1e-5, 1e-8):
        for m in (2.0, 2.5, 4.0, 8.0):
            yield pytest.param(mconvex(m, eps), id=f"m{m}-eps{eps:g}")
        for s in (0.05, 0.15):
            yield pytest.param(flat(s, eps), id=f"flat{s}-eps{eps:g}")


class TestRunningIntegral:
    # Q_n(a, c) = int_0^a t^2 / h(sqrt(t^2 + c^2))^n dt and its d22, the
    # 3D rotation pressure and dual potentials, against 20-digit quadrature

    @pytest.mark.parametrize("prof", _running_integral_profiles())
    def test_matches_mpmath(self, prof):
        r, delta = prof.r, prof.boundary_layer_scale()
        # on the axis c = 0, at the boundary-layer scale, and for flat caps
        # on the rim circle rho = s, inside it across the rim, and ending
        # just past the rim
        points = [(r, 0.0), (2.0 * delta, 0.5 * delta)]
        if prof.kind == "flat-capped":
            points += [(r, prof.s), (r, prof.s - delta), (np.sqrt(0.75) * prof.s + delta, 0.5 * prof.s)]
        with mpmath.workdps(20):
            for a, c in points:
                for n in (1, 3):
                    for second in (False, True):
                        if n == 3 and c == 0.0 and not second:
                            # Q_3 on the axis is a difference of kernel tails
                            want = _kernel_tail(prof, 2, 0.0) - _kernel_tail(prof, 2, a)
                        else:
                            want = _mp_running_integral(prof, n, a, c, second)
                        got = float(_running_integral(prof, n, a, c, second))
                        assert abs(got - want) <= 1e-12 * abs(want), (a, c, n, second)
                        assert float(_running_integral(prof, n, -a, -c, second)) == -got

    def test_zero_at_zero(self, prof3d_flat):
        # a = 0 is the empty integral, also on the axis
        for n in (1, 3):
            for second in (False, True):
                assert _running_integral(prof3d_flat, n, 0.0, 0.0, second) == 0.0


class TestSubflowScale:
    def test_zero_exactly_when_field_vanishes(self, prof3d, prof2d):
        cases = [
            (ProblemParams(profile=prof3d, U=(0.0, 0.0, -1.0)), {3}),
            (ProblemParams(profile=prof3d, U=(0.0, 0.0, 0.0), omega=(0.0, 0.0, 0.3)), {4}),
            (ProblemParams(profile=prof3d, U=(0.0, 0.0, 0.0), omega=(0.1, 0.0, 0.0)), {2, 5, 6}),
            (ProblemParams(profile=prof2d, U=(0.0, 0.5), omega=0.0), {2}),
            (ProblemParams(profile=prof2d, U=(0.0, 0.0), omega=0.2), {1, 3, 4}),
        ]
        rng = np.random.default_rng(RNG_SEED + 8)
        for params, active in cases:
            dim = params.profile.dimension
            pts = interior_points(params.profile, 3, rng)
            for k in subflow_indices(dim):
                scale = subflow_scale(k, params)
                assert (scale > 0.0) == (k in active or k == 0), (dim, k)
                if scale == 0.0:
                    for x in pts:
                        ev = eval_field(k, params, x)
                        assert np.all(ev.u == 0.0) and ev.p == 0.0
                        assert np.all(ev.grad_u == 0.0)
