"""Energy functional, dual test tensors, and the error bilinear form."""

import mpmath
import numpy as np
import pytest

from lubgap import dualcheck, fields
from lubgap.asymptotics import fit_exponent
from lubgap.dualcheck import EllReport, dual_tensor, ell, err_sweep
from lubgap.fields import ProblemParams
from lubgap.geometry import GapProfile
from lubgap.quadrature import QuadSpec

import helpers
from helpers import cumulative_sums, energy, flat, graded_line, kronrod_panels, mconvex

RNG_SEED = 90812
# the cross pairs of ell that vanish by parity
PARITY_ZERO = ((1, 2), (1, 3), (1, 6), (2, 3), (2, 6))


def core_points(prof, n, rng):
    """Random points of the core region {|x'| < r/4, |x3| < h/2}."""
    pts = []
    for _ in range(n):
        t = 0.9 * 0.25 * prof.r * np.sqrt(rng.uniform())
        th = rng.uniform(0.0, 2.0 * np.pi)
        x1, x2 = t * np.cos(th), t * np.sin(th)
        h = float(prof.h(x1, x2))
        pts.append((x1, x2, rng.uniform(-0.45, 0.45) * h))
    return pts


def squeeze_params(prof):
    return ProblemParams(
        profile=prof, mu=1.0, U=(0.0, 0.0, -1.0), omega=(0.0, 0.0, 0.0)
    )


def fd_divergence(k, params, x, step):
    """Divergence of the dual tensor by central differences; (value, scale)."""
    div = np.zeros(3)
    scale = 0.0
    for j in range(3):
        dx = np.zeros(3)
        dx[j] = step
        sp = dual_tensor(k, params, np.asarray(x) + dx)
        sm = dual_tensor(k, params, np.asarray(x) - dx)
        grad_j = (sp - sm) / (2.0 * step)
        div += grad_j[j, :]
        scale = max(scale, float(np.max(np.abs(grad_j))))
    return div, scale


class TestDualTensor:
    def test_zero_subflows(self, params3d):
        rng = np.random.default_rng(RNG_SEED)
        for k in (0, 4, 5):
            for x in core_points(params3d.profile, 5, rng):
                assert np.all(dual_tensor(k, params3d, x) == 0.0)

    def test_symmetry(self, params3d):
        rng = np.random.default_rng(RNG_SEED + 1)
        for k in (1, 2, 3, 6):
            for x in core_points(params3d.profile, 5, rng):
                S = dual_tensor(k, params3d, x)
                assert np.max(np.abs(S - S.T)) == 0.0

    def test_zero_outside_core(self, params3d):
        prof = params3d.profile
        x = (0.3 * prof.r, 0.0, 0.0)  # |x'| > r/4
        for k in (1, 2, 3, 6):
            assert np.all(dual_tensor(k, params3d, x) == 0.0)

    def test_shear_matrix_midplane(self, params3d):
        # k=1 at x3 = 0: only the (1,3) shear entry mu (U1 - w2 R) / h
        prof = params3d.profile
        c = params3d.U[0] - params3d.omega[1] * prof.R
        for x1, x2 in ((0.05, 0.02), (-0.08, 0.06)):
            h = float(prof.h(x1, x2))
            S = dual_tensor(1, params3d, (x1, x2, 0.0))
            assert S[0, 2] == pytest.approx(params3d.mu * c / h, rel=1e-12)
            assert np.all(np.diag(S) == 0.0)
            assert S[0, 1] == 0.0
            assert S[1, 2] == 0.0

    def test_squeeze_divergence_free(self, prof3d):
        params = squeeze_params(prof3d)
        rng = np.random.default_rng(RNG_SEED + 2)
        step = 1e-5 * prof3d.r
        for x in core_points(prof3d, 10, rng):
            div, scale = fd_divergence(3, params, x, step)
            assert np.max(np.abs(div)) <= 1e-4 * scale

    def test_rotation_divergence_residual(self, prof3d):
        # the rotation tensor's divergence keeps an x3-independent
        # horizontal cross term (the same term that survives in the
        # pressure balance); the vertical component still closes
        params = ProblemParams(
            profile=prof3d, mu=1.0, U=(0.0, 0.0, 0.0), omega=(0.15, 0.2, 0.0)
        )
        step = 1e-5 * prof3d.r
        x = (0.05, 0.03, 0.0002)
        div, scale = fd_divergence(6, params, x, step)
        assert abs(div[2]) <= 1e-4 * scale
        assert max(abs(div[0]), abs(div[1])) > 1e-4 * scale

    def test_2d_rejected(self, params2d):
        with pytest.raises(ValueError):
            dual_tensor(1, params2d, (0.05, 0.0, 0.0))

    def test_unknown_subflow(self, params3d):
        with pytest.raises(ValueError):
            dual_tensor(9, params3d, (0.05, 0.0, 0.0))


def _mp_coefficients(k, prof, w1, w2):
    """``(A1, A2, B1, B2)`` of sub-flow ``k`` as mpmath functions of ``(x1, x2)``."""

    def h(x1, x2):
        rho = mpmath.sqrt(x1 * x1 + x2 * x2)
        if prof.kind == "m-convex":
            return prof.eps + rho**prof.m
        return prof.eps + max(rho - prof.s, 0) ** 2

    if k == 3:
        return (lambda a, b: 0.75 * a / h(a, b), lambda a, b: 0.75 * b / h(a, b),
                lambda a, b: -a / h(a, b) ** 3, lambda a, b: -b / h(a, b) ** 3)
    return (lambda a, b: -0.75 * w2 * a * a / h(a, b), lambda a, b: 0.75 * w1 * b * b / h(a, b),
            lambda a, b: w2 * a * a / h(a, b) ** 3, lambda a, b: -w1 * b * b / h(a, b) ** 3)


def _exact_profiles():
    return [mconvex(m, 1e-3) for m in (2.0, 2.5, 4.0, 8.0)] + [
        flat(0.05, 1e-3)
    ]


class TestExactDerivatives:
    # the planar derivatives of the construction coefficients c x1^p / h^n
    # are exact; no finite difference enters the dual tensors

    @pytest.mark.parametrize("k", [3, 6])
    @pytest.mark.parametrize("prof", _exact_profiles(), ids=["m2", "m2.5", "m4", "m8", "flat"])
    def test_kernels_match_mpmath(self, prof, k):
        # off the rim of the flat cap (|x'| = 0.05), inside and outside it;
        # U3 = 1 makes the squeeze's amplitudes those of _mp_coefficients
        w1, w2 = 0.15, 0.2
        params = ProblemParams(profile=prof, U=(0.0, 0.0, 1.0), omega=(w1, w2, 0.0))
        p, c = fields._squeeze_type(k, params)
        points = ((0.03, 0.07), (-0.09, 0.02), (0.011, -0.004), (0.1, -0.1), (-0.002, 0.0015))
        with mpmath.workdps(30):
            coefs = _mp_coefficients(k, prof, w1, w2)
            for x1, x2 in points:
                args = (prof.at((np.array(x1), np.array(x2)), 3), p, c)
                # the entries on each coefficient's own axis, alone or together,
                # are the full engine's bit for bit; d_a lap is only among them
                full, own_axis = fields._coefficient_derivs(*args), fields._coefficient_derivs(*args, range(7))
                for f, o, axis in zip(full, own_axis, (0, 1, 0, 1)):
                    swap = (0, 1, 2, 3, 4, 5) if axis == 0 else (0, 2, 1, 5, 4, 3)
                    assert [o[i] for i in swap] == f
                for i in range(7):
                    alone = fields._coefficient_derivs(*args, (i,))
                    assert [a for a, in alone] == [o[i] for o in own_axis]
                got = [f + o[6:] for f, o in zip(full, own_axis)]
                for f, own, g in zip(coefs, (0, 1, 0, 1), got):
                    d = lambda i, j: mpmath.diff(f, (x1, x2), (i, j))
                    lap = d(3, 0) + d(1, 2) if own == 0 else d(0, 3) + d(2, 1)
                    want = [f(x1, x2), d(1, 0), d(0, 1), d(2, 0), d(1, 1), d(0, 2), lap]
                    # the value, the first and the higher derivatives, each
                    # against its own scale; inside the cap some derivatives
                    # vanish and mpmath returns roundoff for them
                    orders = ((slice(0, 1), 1.0), (slice(1, 3), prof.r), (slice(3, 7), prof.r**3))
                    for part, length in orders:
                        scale = max(max(abs(w) for w in want[part]), abs(want[0]) / length)
                        for gi, wi in zip(g[part], want[part]):
                            assert abs(float(gi) - float(wi)) <= 1e-9 * float(scale), (x1, x2)

    def test_flat_squeeze_potential_matches_line(self):
        # the squeeze's QA vanishes and its QB is closed-form; the cumulative
        # Kronrod line of their integrands lap A1 - d1 A3 and lap B1 + d1 B3,
        # with edges where the line crosses the rim, must agree
        prof = flat(0.05, 1e-4)
        bound = 0.25 * prof.r
        for x2 in (0.0, 0.03, 0.07):
            x1 = np.array([-0.1, -0.02, 0.0, 0.01, 0.045, 0.06, 0.12])
            edges = np.linspace(-bound, bound, 65)
            if x2 < prof.s:
                edges = np.concatenate([edges, np.array([-1.0, 1.0]) * np.sqrt(prof.s**2 - x2**2)])
            edges = np.union1d(edges, x1)
            line = kronrod_panels(edges)
            lx, ly = line.x, np.full_like(line.x, x2)
            A1, A2, B1, B2 = fields._coefficient_derivs(prof.at((lx, ly), 2), 1, (-1.0, -1.0))
            at = np.searchsorted(edges, x1)
            lineA = cumulative_sums(line, A1[3] + A1[5] - A1[3] - A2[4])[2][at]
            lineB = cumulative_sums(line, B1[3] + B1[5] + B1[3] + B2[4])[2][at]
            lines = np.full_like(x1, x2)
            QB = dualcheck._squeeze_qb(-1.0, prof.at((x1, lines), 1),
                                       prof.at((np.full_like(x1, -bound), lines), 1))
            scale = np.max(np.abs(lineB))
            assert np.max(np.abs(lineA)) <= 1e-10 * scale
            assert np.max(np.abs(QB - lineB)) <= 1e-10 * scale

    @pytest.mark.parametrize("prof", _exact_profiles(), ids=["m2", "m2.5", "m4", "m8", "flat"])
    def test_rotation_potentials_match_line(self, prof):
        # QA and QB of the rotation are exact (differences of coefficient
        # derivatives plus d22 of Q_1 and Q_3); the cumulative Kronrod line
        # of their integrands d22 A1 - d12 A2 and 2 d11 B1 + d22 B1 + d12 B2
        # from x1 = -r/4, graded toward the axis and the rim, must agree
        c = (0.2, -0.15)
        bound, delta = 0.25 * prof.r, prof.boundary_layer_scale()
        # points at the boundary-layer scale, or at 0.01 where it exceeds the core
        d = min(delta, 0.01)
        x1 = np.array([-0.1, -0.02, -0.3 * d, 0.0, 2.0 * d, 0.01, 0.045, 0.06, 0.12])
        for x2 in (0.0, 0.5 * d, 0.03, 0.07):
            centers = [0.0]
            if prof.kind == "flat-capped" and x2 < prof.s:
                centers += list(np.array([-1.0, 1.0]) * np.sqrt(prof.s**2 - x2**2))
            edges = np.union1d(graded_line(-bound, bound, centers, delta), x1)
            line = kronrod_panels(edges)
            A1, A2, B1, B2 = fields._coefficient_derivs(prof.at((line.x, np.full_like(line.x, x2)), 2), 2, c)
            at = np.searchsorted(edges, x1)
            lineA = cumulative_sums(line, A1[5] - A2[4])[2][at]
            lineB = cumulative_sums(line, 2.0 * B1[3] + B1[5] + B2[4])[2][at]
            lines = np.full_like(x1, x2)
            QA, QB = dualcheck._rotation_potentials(prof, c, prof.at((x1, lines), 1),
                                                    prof.at((np.full_like(x1, -bound), lines), 1))
            assert np.max(np.abs(QA - lineA)) <= 1e-10 * np.max(np.abs(lineA)), x2
            assert np.max(np.abs(QB - lineB)) <= 1e-10 * np.max(np.abs(lineB)), x2

    @pytest.mark.parametrize("k", [3, 6])
    @pytest.mark.parametrize("prof", _exact_profiles(), ids=["m2", "m2.5", "m4", "m8", "flat"])
    def test_axis_limit(self, prof, k):
        # the radial forms take their limits on the axis x' = 0
        params = ProblemParams(profile=prof, mu=1.0, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1))
        x3, d = 0.2 * prof.eps, 1e-7 * prof.r
        on = dual_tensor(k, params, (0.0, 0.0, x3))
        near = dual_tensor(k, params, (0.6 * d, 0.8 * d, x3))
        assert np.all(np.isfinite(on))
        assert np.max(np.abs(on - near)) <= 1e-6 * np.max(np.abs(on))


class TestEll:
    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("kind, m, s", [("m-convex", 2.0, 0.0), ("m-convex", 2.5, 0.0),
                                            ("m-convex", 4.0, 0.0), ("flat-capped", 2.0, 0.05),
                                            ("flat-capped", 2.0, 0.1)])
    def test_discrepancy_diagonal_trace_free(self, kind, m, s, eps):
        # the squeeze-type dual tensors correct the field's stress on the
        # diagonal only, and div u = 0, so the discrepancy D(u) - dev(S)/(2 mu)
        # is the trace-free diagonal -(q_a - qbar)/(2 mu) that ell reads, as
        # polynomials in x3^2 per planar point; S carries the pressure, so the
        # reference is exact only to the roundoff of its diagonal
        prof = GapProfile(kind=kind, m=m, s=s, eps=eps, r=0.5, R=2.0, dimension=3)
        mu = 0.7
        params = ProblemParams(profile=prof, mu=mu, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1))
        rng = np.random.default_rng(RNG_SEED + 6)
        pts = np.array(core_points(prof, 200, rng))
        x1, x2 = pts[:, :1], pts[:, 1:2]
        x3 = prof.h(x1, x2) * np.linspace(-0.45, 0.45, 5)
        eye = np.eye(3)[:, :, None, None]
        gap = prof.at((x1, x2), 3)
        for k in (3, 6):
            grad = fields._eval(k, params, gap, x3)[2]
            S = dualcheck._dual_tensor_many(k, params, gap, x3)[0]
            dev = S - np.trace(S) / 3.0 * eye
            want = 0.5 * (grad + grad.swapaxes(0, 1)) - dev / (2.0 * mu)
            D = dualcheck._diagonal(k, params, gap[:, 0])[..., None]
            diagonal = D[:, 0] + D[:, 1] * x3**2 + D[:, 2] * x3**4
            assert np.max(np.abs(diagonal.sum(axis=0))) <= 1e-12 * np.max(np.abs(diagonal))
            got = np.eye(3)[:, :, None, None] * diagonal[:, None]
            scale = np.max(np.abs(np.einsum("aa...->a...", S)), axis=0) / (2.0 * mu)
            assert np.all(np.max(np.abs(want - got), axis=(0, 1)) <= 1e-9 * scale)

    @pytest.mark.parametrize("i, eps", [(6, 1e-4), (3, 1e-3)])
    def test_rings_two_panels_at_a_time(self, i, eps, monkeypatch):
        # a refinement round may bisect several panels in one integrand call;
        # the volume integrals still take the rings of at most two panels'
        # radii at a time, so the arrays of a ring call do not grow with the
        # round (ell(3, 3) at eps = 1e-3 has a round of 60)
        outer, rings = [], []
        integrate, ring_integrals = dualcheck.integrate_1d, dualcheck.ring_integrals
        monkeypatch.setattr(dualcheck, "integrate_1d",
                            lambda f, *args: integrate(lambda ts: outer.append(ts.size) or f(ts), *args))
        monkeypatch.setattr(dualcheck, "ring_integrals",
                            lambda f, ring, ts: rings.append(ts.size) or ring_integrals(f, ring, ts))
        prof = GapProfile(kind="m-convex", m=2.0, s=0.0, eps=eps, r=0.5, R=2.0, dimension=3)
        params = ProblemParams(profile=prof, mu=1.0, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1))
        assert ell(i, i, params) > 0.0
        assert max(rings) <= 30
        assert sum(rings) == sum(outer)
        if i == 3:
            assert max(outer) > 30

    def test_planar_quantities_once_per_planar_point(self, params3d, monkeypatch):
        # the discrepancy and the energy take the radial jet of h once per
        # planar point, for the rows of the heights, not once per Gauss
        # height; a column of ell(3, 6) takes one jet for its planar points,
        # for both sub-flows, and the only other jets are those of the line
        # ends (-r/4, x2) and (-r/4, x1), shared by both sub-flows' corrections
        calls, columns = [], []
        jet, evaluate, rings = GapProfile.radial_jet, dualcheck._eval, dualcheck.ring_integrals

        def spy_jet(self, rho, order):
            calls.append(("jet", np.array(rho)))
            return jet(self, rho, order)

        def spy_eval(k, params, gap, x3, running=True):
            calls.append(("heights", x3.shape))
            return evaluate(k, params, gap, x3, running)

        def spy_rings(f, ring, ts):
            def column(t, xprime):
                start = len(calls)
                out = f(t, xprime)
                columns.append((xprime, [rho for _kind, rho in calls[start:]]))
                return out

            return rings(column, ring, ts)

        monkeypatch.setattr(GapProfile, "radial_jet", spy_jet)
        monkeypatch.setattr(dualcheck, "_eval", spy_eval)
        monkeypatch.setattr(helpers, "_eval", spy_eval)

        def assert_planar_rows():
            heights = 0
            for kind, value in calls:
                if kind == "jet":
                    rows = value.size
                else:
                    assert value == (rows, 5)
                    heights += 1
            assert heights > 0
            calls.clear()

        prof = params3d.profile
        pts = np.array(core_points(prof, 30, np.random.default_rng(RNG_SEED + 7)))
        x1, x2 = pts[:, :1], pts[:, 1:2]
        x3 = prof.h(x1, x2) * np.linspace(-0.45, 0.45, 5)
        dualcheck._discrepancy_many(1, params3d, prof.at((x1, x2), 3), x3)
        assert_planar_rows()
        energy(params3d, QuadSpec(rel_tol=1e-3))
        assert_planar_rows()

        monkeypatch.setattr(dualcheck, "ring_integrals", spy_rings)
        ell(3, 6, params3d, QuadSpec(rel_tol=1e-4, abs_tol=1e-10))
        b = 0.25 * prof.r
        assert columns
        for (x1, x2), jets in columns:
            ends = [np.hypot(b, x2), np.hypot(b, x1)]
            assert len(jets) == 3
            for got, want in zip(jets, [np.hypot(x1, x2)] + ends):
                assert np.array_equal(got, want)

    def test_symmetry(self, params3d):
        assert ell(1, 2, params3d) == pytest.approx(ell(2, 1, params3d), rel=1e-12)

    def test_diagonal_nonnegative(self, params3d):
        for i in (1, 2, 3, 6):
            assert ell(i, i, params3d) >= 0.0

    def test_cauchy_schwarz(self, params3d):
        pairs = ((1, 2), (1, 3), (2, 6))
        diag = {i: ell(i, i, params3d) for i in (1, 2, 3, 6)}
        for i, j in pairs:
            cross = ell(i, j, params3d)
            assert cross * cross <= diag[i] * diag[j] * (1.0 + 1e-6) + 1e-15

    def test_zero_motion_short_circuits(self, prof3d):
        params = ProblemParams(
            profile=prof3d, mu=1.0, U=(0.0, 0.0, 0.0), omega=(0.0, 0.0, 0.0)
        )
        for i in (1, 2, 3, 6):
            assert ell(i, i, params) == 0.0

    def test_2d_rejected(self, params2d):
        with pytest.raises(ValueError):
            ell(1, 1, params2d)

    def test_potentials_read_once_per_planar_point(self, params3d, monkeypatch):
        # squeeze-type ell evaluates no field and no dual tensor: the
        # corrections come from the coefficient engine, once per planar
        # point, and only the entries they read: d_a lap for q_3, d_a for
        # the rotation's potentials; the rotation's running integrals see
        # only the planar points and their line ends, for q_1 and q_2 and
        # for n = 1, 3
        volume, planar, reads, asked = [], [], [], []
        engine, integral = dualcheck._coefficient_derivs, dualcheck._running_integral

        def counted_engine(gap, p, c, entries=None):
            asked.append(entries)
            if entries == (6,):
                planar.append((p, gap.rho.size))
            return engine(gap, p, c, entries)

        def counted_integral(prof, n, a, c, second=False):
            reads.append(a.size)
            return integral(prof, n, a, c, second)

        monkeypatch.setattr(dualcheck, "_eval", lambda *args: volume.append(args))
        monkeypatch.setattr(dualcheck, "_dual_tensor_many", lambda *args: volume.append(args))
        monkeypatch.setattr(dualcheck, "_coefficient_derivs", counted_engine)
        monkeypatch.setattr(dualcheck, "_running_integral", counted_integral)
        for pair in ((3, 3), (3, 6), (6, 6)):
            planar.clear()
            reads.clear()
            asked.clear()
            ell(*pair, params3d, QuadSpec(rel_tol=1e-4, abs_tol=1e-10))
            assert volume == [] and planar, pair
            assert reads == [2 * n for p, n in planar if p == 2 for _ in range(4)], pair
            assert set(asked) <= {(6,), (1,)}, pair

    @pytest.mark.parametrize("kind, m, s, eps", [("m-convex", 2.5, 0.0, 1e-3),
                                                 ("m-convex", 4.0, 0.0, 1e-5),
                                                 ("flat-capped", 2.0, 0.05, 1e-3)])
    def test_parity_zero_pairs(self, kind, m, s, eps):
        # the shear-type integrands are odd under x3 -> -x3 against the even
        # squeeze types, and the two shears' product is odd under x1 -> -x1
        prof = GapProfile(kind=kind, m=m, s=s, eps=eps, r=0.5, R=2.0, dimension=3)
        params = ProblemParams(profile=prof, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1))
        diag = {i: ell(i, i, params) for i in (1, 2, 3, 6)}
        for i, j in PARITY_ZERO:
            assert abs(ell(i, j, params)) <= 1e-15 * np.sqrt(diag[i] * diag[j]), (i, j)

    @pytest.mark.parametrize("m, s", [(2.0, 0.0), (2.5, 0.0), (4.0, 0.0), (2.0, 0.05)],
                             ids=["m2", "m2.5", "m4", "flat0.05"])
    def test_matches_reference_construction(self, m, s):
        # every pair the sweep integrates, against the construction it
        # replaced (helpers.reference_ell: the 64-point ring, the 5-point
        # vertical Gauss rule and full discrepancies): the exact x3 moments
        # change only the rounding, and 1e-14 also holds the 8-point ring of
        # the shear pairs exact; both run on the same radial panels, here at a
        # tolerance that keeps the rotation pairs on flat caps affordable
        spec = QuadSpec(rel_tol=1e-4, abs_tol=1e-10)
        for eps in (1e-2, 1e-3, 1e-4):
            prof = flat(s, eps) if s else mconvex(m, eps)
            params = ProblemParams(profile=prof, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1))
            for pair in ((1, 1), (2, 2), (3, 3), (3, 6), (6, 6)):
                want = helpers.reference_ell(*pair, params, spec)
                assert ell(*pair, params, spec) == pytest.approx(want, rel=1e-14, abs=0.0), (eps, pair)


class TestEnergy:
    def test_zero_motion(self, prof3d):
        params = ProblemParams(
            profile=prof3d, mu=1.0, U=(0.0, 0.0, 0.0), omega=(0.0, 0.0, 0.0)
        )
        assert energy(params) == 0.0

    def test_quadratic_scaling(self, prof3d):
        base = ProblemParams(
            profile=prof3d, mu=1.0, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1)
        )
        double = ProblemParams(
            profile=prof3d, mu=1.0, U=(0.6, -0.4, -1.0), omega=(0.3, 0.4, 0.2)
        )
        assert energy(double) == pytest.approx(4.0 * energy(base), rel=1e-8)

    def test_squeeze_blowup_slope(self):
        # squeeze-only energy grows like 1/eps as the gap closes
        eps_grid = (1e-2, 1e-3, 1e-4)
        vals = []
        for e in eps_grid:
            prof = GapProfile(
                kind="m-convex", m=2.0, s=0.0, eps=e, r=0.5, R=2.0, dimension=3
            )
            vals.append(energy(squeeze_params(prof)))
        slope = fit_exponent(eps_grid, vals)
        assert slope == pytest.approx(1.0, abs=0.05)

    def test_2d_rejected(self, params2d):
        with pytest.raises(ValueError):
            energy(params2d)


class TestErrSweep:
    def test_report_structure(self, prof3d):
        params = squeeze_params(prof3d)  # only the squeeze sub-flow active
        spec = QuadSpec(rel_tol=1e-6, abs_tol=1e-12)
        rep = err_sweep(params, (1e-2, 1e-3, 1e-4), spec)
        assert rep.eps_grid == (1e-2, 1e-3, 1e-4)
        assert rep.pairs == ((3, 3),)
        assert len(rep.values[(3, 3)]) == 3
        assert all(v >= 0.0 for v in rep.values[(3, 3)])
        assert (3, 3) in rep.slopes

    def test_values_pinned(self, params3d, monkeypatch):
        # the sweep's values, bit for bit, with exact planar derivatives and
        # exact rotation potentials; sub-flows 1 and 2 read the gradients
        # of the shear-type engine, sub-flows 3 and 6 their corrections
        # alone, and the five parity-zero cross pairs are not integrated:
        # one volume integral per remaining pair and epsilon
        calls = []
        integrate = dualcheck._volume_integrate
        monkeypatch.setattr(dualcheck, "_volume_integrate",
                            lambda *args: calls.append(args) or integrate(*args))
        rep = err_sweep(params3d, (1e-1, 3e-2, 1e-2), QuadSpec(rel_tol=1e-4, abs_tol=1e-10))
        assert len(calls) == 5 * 3
        zero = (0.0, 0.0, 0.0)
        pinned = {
            (1, 1): (1.0622490324460754e-05, 2.701366556612738e-05, 5.4541324006928335e-05),
            (2, 2): (1.0622490324460742e-05, 2.7013665566127348e-05, 5.454132400692829e-05),
            (3, 3): (0.007806171439382991, 0.03444235004625883, 0.04445659974906069),
            (3, 6): (3.910939050751126e-05, 8.306475608960257e-06, -5.7450319191019455e-05),
            (6, 6): (5.609785368805176e-05, 2.5444685611451586e-05, 0.00018104386342161842),
        }
        assert rep.values == {**pinned, **{pair: zero for pair in PARITY_ZERO}}
        # the pins of the 64-point ring, 5-point vertical Gauss rule and full
        # (3, 3, n, 5) discrepancies: the exact vertical moments and the
        # 8-point shear ring move only the last digits
        before = {
            (1, 1): (1.0622490324460752e-05, 2.7013665566127372e-05, 5.4541324006928335e-05),
            (2, 2): (1.062249032446074e-05, 2.7013665566127345e-05, 5.4541324006928274e-05),
            (3, 3): (0.007806171439382986, 0.034442350046258806, 0.04445659974906065),
            (3, 6): (3.910939050751123e-05, 8.306475608960254e-06, -5.745031919101939e-05),
            (6, 6): (5.609785368805172e-05, 2.5444685611451563e-05, 0.00018104386342161825),
        }
        for pair, values in pinned.items():
            assert values == pytest.approx(before[pair], rel=1e-14, abs=0.0), pair
        assert all(rep.slopes[pair] is None for pair in PARITY_ZERO)

    def test_slopes_are_fit_exponent(self, params3d):
        # one fit helper: each slope against log eps is fit_exponent's
        # against -log eps negated, bit for bit, and polyfit's line
        rep = err_sweep(params3d, (1e-1, 3e-2, 1e-2), QuadSpec(rel_tol=1e-4, abs_tol=1e-10))
        fitted = [pair for pair in rep.pairs if pair not in PARITY_ZERO]
        assert fitted == [(1, 1), (2, 2), (3, 3), (3, 6), (6, 6)]
        for pair in fitted:
            slope = rep.slopes[pair]
            assert slope == -fit_exponent(rep.eps_grid, rep.values[pair])
            want = np.polyfit(np.log(rep.eps_grid), np.log(np.abs(rep.values[pair])), 1)[0]
            assert slope == pytest.approx(want, rel=1e-14, abs=0.0)
        assert rep.violations == tuple(pair for pair in fitted if rep.slopes[pair] < -0.2)

    def test_grid_validation(self, params3d):
        with pytest.raises(ValueError):
            err_sweep(params3d, (1e-2, 1e-3))
        with pytest.raises(ValueError):
            err_sweep(params3d, (1e-2, 1e-2, 1e-3))
        with pytest.raises(ValueError):
            err_sweep(params3d, (1e-2, 8e-3, 5e-3))

    def test_report_rejects_increasing_grid(self):
        with pytest.raises(ValueError):
            EllReport(
                pairs=((1, 1),),
                eps_grid=(1e-4, 1e-3, 1e-2),
                values={(1, 1): (1.0, 1.0, 1.0)},
                slopes={(1, 1): 0.0},
                violations=(),
            )
