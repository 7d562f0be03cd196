"""End-to-end acceptance suite.

Quantitative checks that tie the package together: the gamma-coefficient
table against an arbitrary-precision oracle, the closed-form gap moment,
numeric force/torque integrals against the blow-up expansions (leading
coefficients, fitted exponents, sandwich bounds, log extraction), field
correctness at tight tolerances, dual-form boundedness, byte-level
determinism of the command-line artifacts, and the convergence of
numeric - expansion to a constant over every theorem term.
"""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest

from lubgap.asymptotics import fit_exponent, force_asymptotic
from lubgap.cli import EXIT_OK, main
from lubgap.dualcheck import err_sweep
from lubgap.fields import (
    ProblemParams,
    boundary_target,
    eval_field,
    subflow_indices,
)
from lubgap.geometry import GapProfile, surface_sample
from lubgap.quadrature import QuadSpec
from lubgap.special import gamma_coeff, phi
from lubgap.traction import force_numeric, total_numeric

from helpers import divergence, flat, leading_coefficient, mconvex

RNG_SEED = 20260823


# ---------------------------------------------------------------------------
# 1. gamma-coefficient oracle
# ---------------------------------------------------------------------------

# Frozen oracle: (i, j, m, Gamma(i - j/m) * Gamma(j/m) / m) computed with
# 50-digit arbitrary-precision arithmetic (mpmath, dps=50), inputs drawn
# with random.Random(20260823): m ~ U(1.2, 5.0), j ~ U(0.1, 4.0),
# i = j/m + U(0.05, 3.0), each rounded to 6 decimals.
GAMMA_ORACLE = (
    (1.02143, 2.044287, 3.620426, 0.8441137883677499),
    (1.087215, 0.327206, 2.313719, 2.958610464923312),
    (1.782262, 2.979247, 3.558506, 0.32714013120481017),
    (3.522025, 2.737334, 2.671315, 0.4899039291170968),
    (1.506259, 1.831977, 3.4642, 0.49101141682037996),
    (1.709301, 0.826085, 4.423703, 0.9899560891963578),
    (1.694159, 0.872789, 3.037283, 0.9140315440460918),
    (2.498079, 0.54055, 1.352745, 1.716492376367734),
    (2.132272, 2.65838, 4.501998, 0.2982211144198228),
    (0.91736, 0.977292, 1.435843, 3.5573131998168193),
    (1.26178, 0.639131, 1.598954, 1.528796210549743),
    (3.447196, 2.469002, 2.523731, 0.5221556278630065),
    (2.252255, 2.892342, 4.297124, 0.27853046747190896),
    (3.136284, 2.664014, 1.296517, 0.7577647461177951),
    (5.064379, 3.609787, 1.230189, 1.626670225503214),
    (2.489786, 2.759032, 2.638133, 0.32753241497673713),
    (1.566694, 1.376249, 1.749778, 0.8004667037561325),
    (4.548442, 2.306648, 1.417655, 1.1781434372849773),
    (1.895709, 2.870989, 4.93116, 0.27811819538454036),
    (2.330253, 2.599516, 2.141483, 0.4035793453149992),
    (3.121088, 2.816156, 3.583002, 0.3926681142516858),
    (1.406904, 1.688416, 1.896311, 0.9747116247917091),
    (3.033069, 1.033282, 2.615719, 1.2640032982399159),
    (1.419275, 0.109764, 1.99209, 7.8719230536065465),
    (0.929734, 0.833596, 3.043998, 1.486152138964331),
    (3.511319, 2.190675, 2.395562, 0.6294420772510693),
    (1.60209, 1.76904, 1.827003, 0.7902788250193893),
    (1.004366, 0.879035, 3.506152, 1.2583827647099335),
    (2.501534, 0.678454, 4.483603, 1.6539473189029217),
    (0.786671, 1.958275, 3.211761, 2.3871976625015403),
    (1.687865, 2.723783, 3.38717, 0.3704665403037789),
    (0.429458, 1.515164, 4.753172, 5.05326728744321),
    (4.092769, 3.656125, 3.237378, 0.5616904869647273),
    (2.403455, 2.095301, 3.238545, 0.395258477748067),
    (2.514988, 2.694134, 4.932043, 0.3256001406828252),
    (2.319679, 3.74252, 4.726422, 0.2203466277402021),
    (1.770298, 0.702454, 3.650595, 1.1674934857495982),
    (0.738053, 2.527862, 4.381987, 2.0328081601598673),
    (0.714327, 0.723296, 4.562105, 2.0579579983356764),
    (2.790843, 1.652138, 1.493893, 0.5754471967544),
    (1.315521, 1.538137, 2.026826, 0.9568272576815011),
    (1.530286, 1.907871, 3.856172, 0.45546542622723873),
    (2.65503, 0.312094, 4.490793, 4.3700577002272665),
    (2.662077, 1.213748, 1.331899, 0.7313681771344488),
    (4.094473, 2.709052, 1.483552, 0.7244527345122366),
    (2.920921, 1.050975, 2.063224, 1.0558102465881858),
    (1.654169, 0.396313, 3.040695, 2.103968740558083),
    (1.191541, 2.096766, 4.817293, 0.5142557520233738),
    (3.886532, 3.385572, 3.763948, 0.561324243279065),
    (3.465643, 2.561335, 3.583999, 0.5728260112186907),
)


class TestGammaOracle:
    def test_closed_form_values(self):
        assert gamma_coeff(1, 2, 2) == pytest.approx(0.5, abs=1e-12)
        assert gamma_coeff(3, 4, 2) == pytest.approx(0.5, abs=1e-12)
        assert gamma_coeff(1, 1, 2) == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert gamma_coeff(3, 3, 2) == pytest.approx(math.pi / 8.0, abs=1e-12)

    def test_frozen_oracle(self):
        for i, j, m, expected in GAMMA_ORACLE:
            assert gamma_coeff(i, j, m) == pytest.approx(expected, rel=1e-11)


# ---------------------------------------------------------------------------
# 2. closed-form gap moment at m = 2
# ---------------------------------------------------------------------------


class TestPhiClosedForm:
    def test_log_identity_grid(self):
        for r in np.linspace(0.1, 1.0, 5):
            for eps in np.logspace(-6.0, -2.0, 5):
                exact = 0.5 * math.log1p(r * r / eps)
                assert abs(phi(1, 1, 2, r, eps) - exact) <= 1e-9 * abs(exact)


# ---------------------------------------------------------------------------
# 3. squeeze-force leading coefficient
# ---------------------------------------------------------------------------


class TestSqueezeCoefficient:
    @pytest.mark.parametrize("m", [2.0, 3.0, 4.0])
    def test_leading_ratio(self, m):
        eps = 1e-5
        params = ProblemParams(
            profile=mconvex(m, eps), mu=1.0, U=(0.0, 0.0, -1.0), omega=(0.0, 0.0, 0.0)
        )
        f3 = float(force_numeric(3, params).F[2])
        # approach (U3 < 0) is resisted: the vertical force on the top
        # particle is positive, with coefficient 3 pi mu |U3| Gamma_34
        lead = 3.0 * math.pi * gamma_coeff(3, 4, m)
        assert eps ** (3.0 - 4.0 / m) * f3 / lead == pytest.approx(1.0, abs=0.01)


# ---------------------------------------------------------------------------
# 4. blow-up exponent fits
# ---------------------------------------------------------------------------


class TestBlowupExponents:
    @pytest.mark.parametrize("m", [2.0, 3.0, 4.0])
    def test_squeeze_slope(self, m):
        grid = (1e-3, 1e-4, 1e-5)
        vals = []
        for eps in grid:
            params = ProblemParams(
                profile=mconvex(m, eps),
                mu=1.0,
                U=(0.0, 0.0, -1.0),
                omega=(0.0, 0.0, 0.0),
            )
            vals.append(abs(float(force_numeric(3, params).F[2])))
        expected = 3.0 - 4.0 / m
        assert fit_exponent(grid, vals) == pytest.approx(expected, rel=0.01)

    @pytest.mark.parametrize("m", [3.0, 4.0])
    def test_shear_slope(self, m):
        # the O(1) remainder is not small relative to eps^-(1 - 2/m) until
        # the gap is quite thin, hence the deep grid
        grid = (1e-6, 1e-7, 1e-8)
        vals = []
        for eps in grid:
            params = ProblemParams(
                profile=mconvex(m, eps),
                mu=1.0,
                U=(1.0, 0.0, 0.0),
                omega=(0.0, 0.0, 0.0),
            )
            vals.append(abs(float(force_numeric(1, params).F[0])))
        expected = 1.0 - 2.0 / m
        assert fit_exponent(grid, vals) == pytest.approx(expected, rel=0.02)

    def test_shear_log_coefficient_m2(self):
        # at m = 2 the shear force grows like |ln eps|; differencing two
        # samples eliminates the O(1) constant
        vals = {}
        for eps in (1e-3, 1e-5):
            params = ProblemParams(
                profile=mconvex(2.0, eps),
                mu=1.0,
                U=(1.0, 0.0, 0.0),
                omega=(0.0, 0.0, 0.0),
            )
            vals[eps] = float(force_numeric(1, params).F[0])
        coeff = leading_coefficient(vals[1e-3], vals[1e-5], 1e-3, 1e-5, is_log=True)
        # drag opposes the motion: coefficient -pi mu U1
        assert coeff == pytest.approx(-math.pi, rel=0.05)


# ---------------------------------------------------------------------------
# 5. sandwich bound for the rotation-driven horizontal force
# ---------------------------------------------------------------------------


class TestSandwichBound:
    def test_extracted_coefficient_in_bounds(self):
        m, r, R = 3.0, 0.5, 2.0
        a12 = 2.0 * math.pi * gamma_coeff(1, 2, m)
        a34 = 1.5 * math.pi * gamma_coeff(3, 4, m)

        def known(eps):
            # exactly-known singular terms of F1 for U = 0, omega = (0,1,0):
            # the shear drag at power 1 - 2/m (with U1 - w2 R = -2) and the
            # rotation cross term at power 2 - 4/m
            return 2.0 * a12 * eps ** (-1.0 / 3.0) + a34 * eps ** (-2.0 / 3.0)

        f1 = {}
        for eps in (1e-5, 1e-6):
            params = ProblemParams(
                profile=mconvex(m, eps, r=r, R=R),
                mu=1.0,
                U=(0.0, 0.0, 0.0),
                omega=(0.0, 1.0, 0.0),
            )
            f1[eps] = float(total_numeric(params).F[0])
        c = leading_coefficient(
            f1[1e-5] - known(1e-5),
            f1[1e-6] - known(1e-6),
            1e-5,
            1e-6,
            power=3.0 - 4.0 / m,
        )
        lo = 2.0 ** (-m) * r**m * a34
        hi = 2.0 ** (m / 2.0) * r**m * a34
        assert lo * 0.98 <= c <= hi * 1.02


# ---------------------------------------------------------------------------
# 6. parity / zero-component suite
# ---------------------------------------------------------------------------


def _random_motions(n, rng):
    motions = []
    for idx in range(n):
        u = rng.uniform(-1.0, 1.0, size=3)
        u[2] = -abs(u[2])
        w = rng.uniform(-1.0, 1.0, size=3)
        if idx % 2 == 0:
            w[2] = 0.0  # half the configs carry no spin
        motions.append((tuple(u), tuple(w)))
    return motions


class TestParitySuite:
    @pytest.mark.parametrize("kind,s", [("m-convex", 0.0), ("flat-capped", 0.1)])
    def test_vertical_torque(self, kind, s):
        prof = GapProfile(
            kind=kind, m=2.0, s=s, eps=1e-3, r=0.5, R=2.0, dimension=3
        )
        rng = np.random.default_rng(RNG_SEED)
        for u, w in _random_motions(10, rng):
            params = ProblemParams(profile=prof, mu=1.0, U=u, omega=w)
            tot = total_numeric(params, rel_tol=1e-7)
            err = float(tot.T_err[2])
            # every sub-flow except the spin one is even in the azimuthal
            # reflection, so the vertical torque is carried by spin alone
            spin = float(tot.per_subflow[4].T[2])
            assert abs(float(tot.T[2]) - spin) <= 10.0 * max(err, 1e-14)
            if w[2] == 0.0:
                assert abs(float(tot.T[2])) <= 10.0 * max(err, 1e-14)

    @pytest.mark.parametrize("kind,s", [("m-convex", 0.0), ("flat-capped", 0.1)])
    def test_shear_cross_components_vanish(self, kind, s):
        # the x1-shear sub-flow produces no F2/F3 at any gap width: the
        # components stay at quadrature-noise level across a decade of eps
        for eps in (1e-2, 3.16e-3, 1e-3):
            prof = GapProfile(
                kind=kind, m=2.0, s=s, eps=eps, r=0.5, R=2.0, dimension=3
            )
            params = ProblemParams(
                profile=prof, mu=1.0, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1)
            )
            res = force_numeric(1, params, rel_tol=1e-7)
            f1 = max(abs(float(res.F[0])), 1e-14)
            for comp in (1, 2):
                tol = 10.0 * max(float(res.F_err[comp]), 1e-12 * f1)
                assert abs(float(res.F[comp])) <= tol


# ---------------------------------------------------------------------------
# 7. field correctness suite
# ---------------------------------------------------------------------------


def _motion_scale(params):
    vals = np.atleast_1d(params.U).tolist() + np.atleast_1d(params.omega).tolist()
    return max(max(abs(float(v)) for v in vals), 1e-30)


def _interior_points(prof, n, rng):
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
            pts.append((x1, rng.uniform(-0.45, 0.45) * float(prof.h(x1))))
    return pts


def _grad_h(prof, xp):
    """``grad h`` written out: ``m |x'|^(m-2) x'``, or ``2 (rho - s)/rho x'`` beyond a flat rim."""
    rho = float(np.hypot(*xp)) if len(xp) == 2 else abs(xp[0])
    if prof.kind == "m-convex":
        fac = prof.m * rho ** (prof.m - 2.0)
    else:
        fac = 2.0 * (rho - prof.s) / rho if rho > prof.s else 0.0
    return [fac * x for x in xp]


def _stokes_residual(k, params, x, step):
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


class TestFieldSuite:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_boundary_conditions(self, dim, params3d, params2d):
        params = params3d if dim == 3 else params2d
        prof = params.profile
        rng = np.random.default_rng(RNG_SEED + 1)
        scale = _motion_scale(params)
        ks = subflow_indices(dim)
        per_k = 1000 // len(ks)
        for k in ks:
            for _ in range(per_k):
                side = "top" if rng.uniform() < 0.5 else "bottom"
                if dim == 3:
                    t = 0.95 * prof.r * np.sqrt(rng.uniform())
                    th = rng.uniform(0.0, 2.0 * np.pi)
                    xp = (t * np.cos(th), t * np.sin(th))
                else:
                    xp = float(rng.uniform(-0.95, 0.95) * prof.r)
                sp = surface_sample(prof, side, xp)
                x = (*sp.xprime, sp.x3) if dim == 3 else (sp.xprime, sp.x3)
                u = eval_field(k, params, x).u
                target = boundary_target(k, params, sp)
                assert np.max(np.abs(u - target)) <= 1e-12 * scale

    @pytest.mark.parametrize("dim", [2, 3])
    def test_divergence(self, dim, params3d, params2d):
        params = params3d if dim == 3 else params2d
        prof = params.profile
        rng = np.random.default_rng(RNG_SEED + 2)
        pts = _interior_points(prof, 25, rng)
        for k in subflow_indices(dim):
            for x in pts:
                div = divergence(k, params, x)
                if k == 0:
                    # the rigid-mean interpolant carries the surface lever
                    # arm: its divergence equals an explicit profile term
                    if dim == 3:
                        g1, g2 = _grad_h(prof, x[:2])
                        expected = 0.25 * (params.omega[1] * g1 - params.omega[0] * g2)
                    else:
                        expected = -0.25 * params.omega * _grad_h(prof, x[:1])[0]
                    assert div == pytest.approx(expected, abs=1e-14)
                else:
                    gscale = float(np.max(np.abs(eval_field(k, params, x).grad_u)))
                    assert abs(div) <= 1e-12 * max(gscale, 1e-30)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_gradients_match_central_differences(self, dim, params3d, params2d):
        params = params3d if dim == 3 else params2d
        prof = params.profile
        rng = np.random.default_rng(RNG_SEED + 3)
        step = 1e-6 * prof.r
        for k in subflow_indices(dim):
            for x in _interior_points(prof, 6, rng):
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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_pressure_balance_on_midplane(self, dim, params3d, params2d):
        # grad p balances mu*laplace(u) exactly on the midplane x3 = 0 for
        # the pressure-carrying sub-flows (off-plane an O(x3^2) remainder
        # survives by construction; the 3D rotation sub-flow additionally
        # keeps an unmatched x3-independent cross term and is excluded)
        params = params3d if dim == 3 else params2d
        prof = params.profile
        rng = np.random.default_rng(RNG_SEED + 4)
        step = 2e-5 * prof.r
        pressure_ks = (3,) if dim == 3 else (2, 4)
        for k in pressure_ks:
            for x in _interior_points(prof, 5, rng):
                x = (*np.asarray(x)[: dim - 1], 0.0)
                res, scale = _stokes_residual(k, params, x, step)
                assert np.max(np.abs(res)) <= 1e-5 * scale

    def test_squeeze_offplane_residual_law_3d(self, params3d):
        # off the midplane the squeeze remainder (m = 2) is exactly
        # mu U3 * 144 x' (eps - rho^2) / h^5 * x3^2 in the horizontal
        # components, so the balance defect is quantified, not just bounded
        prof = params3d.profile
        step = 1e-5 * prof.r
        x1, x2 = 0.1, -0.05
        rho2 = x1 * x1 + x2 * x2
        h = prof.eps + rho2
        x3 = 0.3 * h / 2.0
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


# ---------------------------------------------------------------------------
# 8. flat-capped squeeze force against the expansion
# ---------------------------------------------------------------------------


class TestFlatSqueeze:
    def test_numeric_matches_expansion(self):
        eps = 1e-4
        prof = GapProfile(
            kind="flat-capped", m=2.0, s=0.1, eps=eps, r=0.5, R=2.0, dimension=3
        )
        params = ProblemParams(
            profile=prof, mu=1.0, U=(0.0, 0.0, -1.0), omega=(0.0, 0.0, 0.0)
        )
        numeric = float(total_numeric(params).F[2])
        asym = force_asymptotic(params).F[2].evaluate(eps)
        assert numeric / asym == pytest.approx(1.0, abs=0.02)


# ---------------------------------------------------------------------------
# 9. two-dimensional cross-checks
# ---------------------------------------------------------------------------


class Test2dCrossChecks:
    def test_shear_force_ratio(self):
        eps = 1e-6
        params = ProblemParams(
            profile=mconvex(2.0, eps, dimension=2), mu=1.0, U=(1.0, 0.0), omega=0.0
        )
        numeric = float(total_numeric(params).F[0])
        # leading shear drag: -(U1 + omega0 R) * 2 Gamma_11 / sqrt(eps)
        predicted = -params.U[0] * 2.0 * gamma_coeff(1, 1, 2) / math.sqrt(eps)
        assert numeric / predicted == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("m,expected", [(5.0 / 3.0, -18.0 / 5.0), (3.0, 1.5)])
    def test_torque_log_coefficient(self, m, expected):
        # subtract the power-law terms of the expansion from the numeric
        # torque; the remainder grows like |ln eps|.  The O(1) part of the
        # remainder contains a bounded eps^(1/m)-type oscillation whose
        # amplitude dwarfs the log over any practical eps range, so a plain
        # two-point differencing misextracts the coefficient; solving the
        # three-parameter model c|ln eps| + C + d eps^(1/3) exactly on
        # three gap widths removes it
        grid = (1e-5, 1e-6, 1e-7)
        resid = []
        for eps in grid:
            params = ProblemParams(
                profile=mconvex(m, eps, dimension=2), mu=1.0, U=(0.0, 0.0), omega=1.0
            )
            t_num = float(
                total_numeric(params, rel_tol=1e-12, max_subdivisions=4000).T
            )
            texp = force_asymptotic(params).T
            power_part = sum(t.evaluate(eps) for t in texp.terms if t.power != 0.0)
            resid.append(t_num - power_part)
        design = np.array(
            [[abs(math.log(e)), 1.0, e ** (1.0 / 3.0)] for e in grid]
        )
        c = float(np.linalg.solve(design, np.asarray(resid))[0])
        assert c == pytest.approx(expected, rel=0.10)


# ---------------------------------------------------------------------------
# 10. dual-form boundedness
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def dual_report():
    prof = GapProfile(
        kind="m-convex", m=2.0, s=0.0, eps=1e-2, r=2.0, R=2.0, dimension=3
    )
    params = ProblemParams(
        profile=prof, mu=1.0, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1)
    )
    spec = QuadSpec(rel_tol=1e-6, abs_tol=1e-12, max_subdivisions=2000)
    return err_sweep(params, (1e-2, 1e-3, 1e-4), spec)


class TestDualBoundedness:
    # Note: the squeeze (i = 3) and rotation (i = 6) discrepancy forms
    # genuinely grow as the gap closes (like |ln eps| and a high inverse
    # power of eps respectively), so the boundedness assertion fails for
    # those two indices.  Exact planar derivatives, closed-form squeeze
    # potentials and the discrepancy from the diagonal corrections alone
    # left the slopes at -0.3176 and -4.9003 (-0.3175 and -4.9003 with
    # finite differences and a squeeze table).  The (3, 3) slope is resolved
    # by this grid's 64-point ring: 2048- and 8192-point rings give -0.3176
    # too, so that failure belongs to the construction.  The (6, 6) slope
    # is not: the 64-point ring misses the rotation's angular features of
    # width delta/t, and resolved rings give about -4.45, which still fails
    # the bound.  So -4.9003 is a ring artefact, not the construction's law.
    @pytest.mark.parametrize("i", [1, 2, 3, 6])
    def test_diagonal_bounded(self, dual_report, i):
        slope = dual_report.slopes[(i, i)]
        assert slope is not None
        assert abs(slope) <= 0.1

    def test_cauchy_schwarz_all_pairs(self, dual_report):
        diag = {i: dual_report.values[(i, i)] for i in (1, 2, 3, 6)}
        for (i, j), vals in dual_report.values.items():
            if i == j:
                continue
            for idx, cross in enumerate(vals):
                bound = diag[i][idx] * diag[j][idx] * (1.0 + 1e-6) + 1e-15
                assert cross * cross <= bound


# ---------------------------------------------------------------------------
# 11. determinism of the command-line artifacts
# ---------------------------------------------------------------------------

DETERMINISM_CFG = """
[profile]
dimension = 3
kind = m-convex
m = 2.0
eps = 1e-2
r = 0.5
R = 2.0

[motion]
mu = 1.0
U = 0.3, -0.2, -0.5
omega = 0.15, 0.2, 0.1

[quadrature]
rel_tol = 1e-7
"""


class TestDeterminism:
    def test_verify_artifacts_byte_identical(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(DETERMINISM_CFG, encoding="utf-8")
        blobs = []
        for tag in ("a", "b"):
            csv_path = tmp_path / f"{tag}.csv"
            json_path = tmp_path / f"{tag}.json"
            code = main(
                [
                    "verify", "--suite", "bc", "--config", str(cfg),
                    "--out-csv", str(csv_path), "--out-json", str(json_path),
                ]
            )
            assert code == EXIT_OK
            blobs.append((csv_path.read_bytes(), json_path.read_bytes()))
        assert blobs[0][0] == blobs[1][0]
        assert blobs[0][1] == blobs[1][1]
        payload = json.loads(blobs[0][1])
        assert payload["schema"] == "lubgap-report v1"


# ---------------------------------------------------------------------------
# 12. remainder matrix: numeric - expansion converges to a constant
# ---------------------------------------------------------------------------

# Every theorem term is checked at once: a wrong or missing term of order
# eps^-p leaves a remainder whose decade-to-decade differences grow (p > 0)
# or stay put (a log).  2D: U = (0.4, -0.3), omega = 0.25; 3D: translation
# only, U = (0.3, -0.2, -0.5).  The decades run from eps = 1e-4, below which
# every case is in its expansion's regime (the flat caps need eps << s^2; from
# 1e-2, 2D m = 5/3 F2 and the flat-cap torques are not yet monotone), down to
# 1e-12 (2D) or 1e-10 (3D), where float64 cancellation takes over.
_REMAINDER_CASES = {
    **{f"2d-m{m:.4g}": (mconvex(m, dimension=2), ("F1", "F2", "T"))
       for m in (1.2, 1.5, 5.0 / 3.0, 2.0, 2.5, 3.0, 3.001, 4.0, 6.0)},
    **{f"3d-m{m:.4g}": (mconvex(m), ("F1", "F2", "F3", "T1", "T2")) for m in (2.0, 2.1, 2.5, 4.0)},
    **{f"3d-flat{s}": (flat(s), ("F1", "F2", "F3", "T1", "T2")) for s in (0.05, 0.15)},
}
# a decade is used only where its bound is at most this fraction of its remainder
_REMAINDER_BOUND_FRACTION = 0.05

# Measured remainders, (case, component) -> {eps: value}: 2D at the last two
# resolved decades of the 1e-2..1e-12 grid by 100 (those that pass the
# fraction above), 3D the limits.  They are pinned to 5e-4
# relative (four quoted digits) plus the decade's bound; the 3D limits at the
# last used decade, F3 at m = 4 and on the flat cap to 5e-3 (it is resolved to
# eps 1e-6 only).
_REMAINDER_PINS = {
    ("2d-m1.2", "F1"): {1e-10: -2.191, 1e-12: -2.230},
    ("2d-m1.2", "F2"): {1e-10: -16.63, 1e-12: -16.57},
    ("2d-m1.2", "T"): {1e-10: -6.022, 1e-12: -6.100},
    ("2d-m1.5", "F1"): {1e-10: -1.056, 1e-12: -1.057},
    ("2d-m1.5", "F2"): {1e-10: -11.714},
    ("2d-m1.5", "T"): {1e-10: 0.3881, 1e-12: 0.3864},
    ("2d-m1.667", "F1"): {1e-8: -0.9930, 1e-10: -0.9944},
    ("2d-m1.667", "F2"): {1e-8: -12.578},
    ("2d-m1.667", "T"): {1e-8: -0.6923, 1e-10: -0.6951},
    ("2d-m2", "F1"): {1e-6: -1.057, 1e-8: -1.067},
    ("2d-m2", "F2"): {1e-6: -17.808, 1e-8: -17.802},
    ("2d-m2", "T"): {1e-6: -3.109, 1e-8: -3.129},
    ("2d-m2.5", "F1"): {1e-6: -1.244},
    ("2d-m2.5", "F2"): {1e-6: -37.00},
    ("2d-m2.5", "T"): {1e-6: -3.385},
    ("2d-m3", "F1"): {1e-4: -0.7815, 1e-6: -1.269},
    ("2d-m3", "F2"): {1e-4: -83.99, 1e-6: -84.08},
    ("2d-m3", "T"): {1e-4: -2.254, 1e-6: -3.307},
    ("2d-m3.001", "F1"): {1e-4: -0.7806, 1e-6: -1.269},
    ("2d-m3.001", "T"): {1e-4: -2.252, 1e-6: -3.306},
    ("2d-m4", "F1"): {1e-4: 2.070, 1e-6: 0.6226},
    ("2d-m4", "F2"): {1e-4: -477.8},
    ("2d-m4", "T"): {1e-4: 5.748},
}
_REMAINDER_LIMITS = {
    "3d-m2": (1.0709, -0.71395, -12.959, -1.4279, -2.1419),
    "3d-m2.1": (1.0516, -0.70105, -13.917, -1.3977, -2.0966),
    "3d-m2.5": (1.0933, -0.72888, -22.50, -1.4366, -2.1549),
    "3d-m4": (2.1715, -1.4477, -281.6, -2.8160, -4.2214),
    "3d-flat0.05": (1.481, -0.9875, -21.56, -1.9505, -2.926),
}


@functools.lru_cache(maxsize=None)
def _remainders(case):
    """Decades, remainders and bounds of every component of ``case``."""
    base, names = _REMAINDER_CASES[case]
    d = base.dimension
    motion = dict(U=(0.4, -0.3), omega=0.25) if d == 2 else dict(
        U=(0.3, -0.2, -0.5), omega=(0.0, 0.0, 0.0))
    decades = tuple(10.0 ** -k for k in range(4, 13 if d == 2 else 11))
    rem, bound = [], []
    for eps in decades:
        params = ProblemParams(profile=dataclasses.replace(base, eps=eps), mu=1.0, **motion)
        total = total_numeric(params, rel_tol=1e-12, max_subdivisions=4000)
        values, bounds = total.components()
        expansions = force_asymptotic(params).components()
        rem.append([v - e.evaluate(eps) for v, e in zip(values, expansions)])
        bound.append(bounds)
    return decades, np.array(rem)[:, : len(names)], np.array(bound)[:, : len(names)]


def _resolved(case, component):
    """The decades whose bound is small against the remainder."""
    decades, rem, bound = _remainders(case)
    c = _REMAINDER_CASES[case][1].index(component)
    keep = bound[:, c] <= _REMAINDER_BOUND_FRACTION * np.abs(rem[:, c])
    return np.array(decades)[keep], rem[keep, c], bound[keep, c]


class TestRemainderMatrix:
    @pytest.mark.parametrize(
        "case, component",
        [(case, comp) for case, (_, names) in _REMAINDER_CASES.items() for comp in names],
    )
    def test_differences_shrink(self, case, component):
        # Cauchy: each decade's change is no larger than the one before,
        # up to the bounds of the three decades involved
        _, rem, bound = _resolved(case, component)
        assert len(rem) >= 2
        diff = np.abs(np.diff(rem))
        for j in range(len(diff) - 1):
            assert diff[j + 1] <= diff[j] + bound[j : j + 3].sum(), (j, rem.tolist())

    @pytest.mark.parametrize("case, component", sorted(_REMAINDER_PINS))
    def test_pinned_2d(self, case, component):
        decades, rem, bound = _resolved(case, component)
        for eps, value in _REMAINDER_PINS[case, component].items():
            (i,) = np.flatnonzero(np.isclose(decades, eps, rtol=1e-9, atol=0.0))
            assert abs(rem[i] - value) <= 5e-4 * abs(value) + bound[i], eps

    @pytest.mark.parametrize("component", ["F1", "T"])
    def test_uniform_through_m3(self, component):
        # the expansion is continuous through the 2D torque's branch point at
        # m = 3, so 1e-3 past it the remainder moves by less than 0.01 (F2
        # has no term there; its O(1) part moves by 0.14 with m itself)
        decades, rem, _ = _resolved("2d-m3", component)
        near_decades, near, _ = _resolved("2d-m3.001", component)
        shared = np.intersect1d(decades, near_decades)
        assert len(shared) >= 2
        for eps in shared:
            assert abs(near[near_decades == eps][0] - rem[decades == eps][0]) <= 0.01, eps

    @pytest.mark.parametrize("case", sorted(_REMAINDER_LIMITS))
    def test_pinned_3d_limits(self, case):
        for component, limit in zip(_REMAINDER_CASES[case][1], _REMAINDER_LIMITS[case]):
            _, rem, bound = _resolved(case, component)
            rel = 5e-3 if component == "F3" and case in ("3d-m4", "3d-flat0.05") else 5e-4
            assert abs(rem[-1] - limit) <= rel * abs(limit) + bound[-1], component
