"""Closed-form blow-up expansions: coefficients, regime dispatch, sandwich
residuals, and exponent fitting."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lubgap.asymptotics import (
    fit_exponent,
    force_asymptotic,
    force_asymptotic_2d,
    force_asymptotic_2d_flat,
    force_asymptotic_3d,
    force_asymptotic_3d_flat,
)
from lubgap.fields import ProblemParams
from lubgap.geometry import FlatHypothesisError, GapProfile
from lubgap.special import gamma_coeff


def prof(m=2.0, dimension=3, kind="m-convex", s=0.0, eps=1e-3, r=0.5, R=2.0):
    return GapProfile(kind=kind, m=m, s=s, eps=eps, r=r, R=R, dimension=dimension)


def params(profile, U, omega, mu=1.0):
    return ProblemParams(profile=profile, mu=mu, U=U, omega=omega)


def coeff_of(exp, power):
    """Total coefficient at the requested exponent, or 0.0 if absent; the
    marginal ``|ln eps|`` term is the one at power 0.

    Distinct source terms may share an exponent (e.g. the 2D shear and
    mid exponents coincide at m = 2), so matches are summed.
    """
    return sum(t.coeff for t in exp.terms if t.power == pytest.approx(power))


class TestTranslationOnly3d:
    # with omega = 0 and m = 2 the expansion collapses to single log terms
    def test_shear_m2(self):
        res = force_asymptotic_3d(params(prof(m=2.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
        F1, F2, F3 = res.F
        T1, T2, T3 = res.T
        assert len(F1.terms) == 1 and F1.terms[0].is_log
        assert F1.terms[0].coeff == pytest.approx(-math.pi, rel=1e-13)
        assert len(T2.terms) == 1 and T2.terms[0].is_log
        assert T2.terms[0].coeff == pytest.approx(math.pi * 2.0, rel=1e-13)
        for comp in (F2, F3, T1, T3):
            assert comp.is_empty

    def test_squeeze_m4(self):
        # F3 = -2 U3 alpha34 eps^-2 with alpha34 = (3/2) pi Gamma_34(4),
        # Gamma_34(4) = 1/4, so the coefficient is 3 pi / 4 for U3 = -1
        res = force_asymptotic_3d(params(prof(m=4.0), (0.0, 0.0, -1.0), (0.0, 0.0, 0.0)))
        F3 = res.F[2]
        assert len(F3.terms) == 1
        assert F3.terms[0].power == pytest.approx(2.0)
        assert F3.terms[0].coeff == pytest.approx(0.75 * math.pi, rel=1e-13)

    def test_zero_motion_empty(self):
        res = force_asymptotic_3d(params(prof(), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
        for comp in res.components():
            assert comp.is_empty


class TestCoefficients3d:
    def test_m2_values(self):
        res = force_asymptotic_3d(params(prof(m=2.0), (0.0, 0.0, -1.0), (0.0, 0.0, 0.0)))
        assert res.coefficients["b12"] == pytest.approx(math.pi, rel=1e-13)
        assert res.coefficients["alpha34"] == pytest.approx(0.75 * math.pi, rel=1e-13)

    def test_vertical_torque_always_empty(self):
        res = force_asymptotic_3d(
            params(prof(m=3.0), (0.1, -0.2, -0.4), (0.3, 0.2, 0.0))
        )
        assert res.T[2].is_empty


class TestSandwichResiduals:
    def test_lower_below_upper(self):
        res = force_asymptotic_3d(
            params(prof(m=3.0), (0.1, -0.2, -0.4), (0.3, 0.2, 0.1))
        )
        checked = 0
        for comp in res.components():
            if comp.residual is None:
                continue
            checked += 1
            for eps in (1e-2, 1e-3, 1e-4, 1e-6):
                lo, hi = comp.evaluate_bounds(eps)
                assert lo <= hi
        assert checked >= 4

    def test_m2_sandwich(self):
        # at m = 2 the extra rotation term's b = (2 - 4/m) alpha34 vanishes,
        # and the F1 sandwich's 2^-m r^m and 2^(m/2) r^m are r^2/4 and 2 r^2
        r, w2 = 0.5, 0.2
        res = force_asymptotic_3d(params(prof(m=2.0, r=r), (0.0, 0.0, 0.0), (0.0, w2, 0.0)))
        F1 = res.F[0]
        (term,) = F1.terms
        assert term.is_log and term.power == 0.0
        a34 = res.coefficients["alpha34"]
        assert F1.residual.lower[0].coeff == w2 * (r**2 / 4.0 * a34)
        assert F1.residual.upper[0].coeff == w2 * (2.0 * r**2 * a34)

    def test_sign_violation_warns_and_suppresses(self):
        with pytest.warns(UserWarning):
            res = force_asymptotic_3d(
                params(prof(m=3.0), (0.1, -0.2, 0.4), (0.3, 0.2, 0.1))
            )
        assert res.warnings
        for comp in res.components():
            assert comp.residual is None
        # the equality-type terms survive
        assert not res.F[0].is_empty

    def test_linearity_of_known_terms(self):
        one = force_asymptotic_3d(
            params(prof(m=3.0), (0.1, -0.2, -0.4), (0.3, 0.2, 0.1))
        )
        two = force_asymptotic_3d(
            params(prof(m=3.0), (0.2, -0.4, -0.8), (0.6, 0.4, 0.2))
        )
        eps = 1e-4
        for a, b in zip(one.components(), two.components()):
            assert b.evaluate(eps) == pytest.approx(2.0 * a.evaluate(eps), abs=1e-12)


class TestFlat3d:
    def test_small_cap_reduces_to_curved_m2(self):
        # as s -> 0 the flat-capped ladders collapse termwise onto the
        # m = 2 expansions
        U, w = (0.3, -0.2, -0.5), (0.0, 0.0, 0.0)
        flat = force_asymptotic_3d_flat(
            params(prof(kind="flat-capped", s=1e-9), U, w)
        )
        curved = force_asymptotic_3d(params(prof(m=2.0), U, w))
        for a, b in zip(flat.components(), curved.components()):
            for eps in (1e-3, 1e-5):
                assert a.evaluate(eps) == pytest.approx(b.evaluate(eps), rel=1e-6, abs=1e-12)

    def test_squeeze_ladder_coefficients(self):
        # F3 = -3 pi mu U3 [1/(2 eps) + (3/2) Gamma_21 s eps^-3/2
        #      + 3 Gamma_32 s^2 eps^-2 + Gamma_31 s^3 eps^-5/2 + s^4/(2 eps^3)]
        s = 0.1
        res = force_asymptotic_3d_flat(
            params(prof(kind="flat-capped", s=s), (0.0, 0.0, -1.0), (0.0, 0.0, 0.0))
        )
        F3 = res.F[2]
        base = 3.0 * math.pi  # -3 pi mu U3 with U3 = -1
        assert coeff_of(F3, 1.0) == pytest.approx(base * 0.5, rel=1e-13)
        assert coeff_of(F3, 3.0) == pytest.approx(base * 0.5 * s**4, rel=1e-13)
        # the half-integer rungs are present with positive coefficients
        for p in (1.5, 2.0, 2.5):
            assert coeff_of(F3, p) > 0.0
        powers = sorted(t.power for t in F3.terms)
        assert powers == pytest.approx([1.0, 1.5, 2.0, 2.5, 3.0])

    def test_shear_bracket(self):
        # horizontal force carries coeff * (|ln eps| + 2 s G11 eps^-1/2
        # + s^2 eps^-1) with G11 = pi/2
        s = 0.1
        res = force_asymptotic_3d_flat(
            params(prof(kind="flat-capped", s=s), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
        )
        F1 = res.F[0]
        c = -math.pi  # -pi mu (U1 - w2 R)
        assert coeff_of(F1, 0.0) == pytest.approx(c, rel=1e-13)
        assert coeff_of(F1, 0.5) == pytest.approx(c * 2.0 * s * math.pi / 2.0, rel=1e-13)
        assert coeff_of(F1, 1.0) == pytest.approx(c * s**2, rel=1e-13)

    def test_hypothesis_enforced(self):
        bad = params(
            prof(kind="flat-capped", s=0.25), (0.0, 0.0, -1.0), (0.0, 0.0, 0.0)
        )
        with pytest.raises(FlatHypothesisError):
            force_asymptotic_3d_flat(bad)
        with pytest.warns(UserWarning):
            force_asymptotic_3d_flat(bad, override_flat_hypothesis=True)


class Test2d:
    def test_rotation_m2_force(self):
        # mu=1, w0=1, U=0, r=0.5, R=1:
        # F1 = -(alpha11 R + alpha33) eps^-1/2 - r^2 alpha33 eps^-3/2
        # with alpha11 = pi, alpha33 = 3 pi / 8; the eps^-1/2 terms are
        # log-type, so they carry b = (1/2) alpha
        p = params(prof(m=2.0, dimension=2, R=1.0), (0.0, 0.0), 1.0)
        res = force_asymptotic_2d(p)
        a11, a33 = math.pi, 3.0 * math.pi / 8.0
        assert res.coefficients["b11"] == pytest.approx(0.5 * a11, rel=1e-13)
        assert res.coefficients["alpha33"] == pytest.approx(a33, rel=1e-13)
        F1 = res.F[0]
        assert coeff_of(F1, 0.5) == pytest.approx(-0.5 * (a11 * 1.0 + a33), rel=1e-13)
        assert coeff_of(F1, 1.5) == pytest.approx(-0.25 * a33, rel=1e-13)
        assert [t.is_log for t in F1.terms] == [False, True, True]

    def test_translation_only_second_component(self):
        # U = (U1, 0), w0 = 0: the squeeze-type force has a zero factor
        res = force_asymptotic_2d(params(prof(dimension=2), (1.0, 0.0), 0.0))
        assert res.F[1].is_empty

    def test_torque_log_case_m53(self):
        res = force_asymptotic_2d(params(prof(m=5.0 / 3.0, dimension=2), (0.0, 0.0), 1.0))
        assert coeff_of(res.T, 0.0) == pytest.approx(-18.0 / 5.0, rel=1e-14)

    def test_torque_log_case_m3(self):
        res = force_asymptotic_2d(params(prof(m=3.0, dimension=2), (0.0, 0.0), 1.0))
        assert coeff_of(res.T, 0.0) == pytest.approx(1.5, rel=1e-14)

    def test_force_branch_boundary_m32(self):
        # the eps^-(2-3/m) force term is log-type on both sides of m = 3/2,
        # with b = (2 - 3/m) times -w0 alpha33: it vanishes at m = 3/2
        # itself and tends to the constant w0 alpha33 below it
        for m in (1.2, 1.4, 1.5, 1.6, 2.5):
            res = force_asymptotic_2d(params(prof(m=m, dimension=2), (0.0, 0.0), 1.0))
            q = 2.0 - 3.0 / m
            mid = [t for t in res.F[0].terms if t.power == q]
            if m == 1.5:
                assert mid == []
                continue
            (term,) = mid
            assert term.is_log
            assert term.coeff == pytest.approx(-q * res.coefficients["alpha33"], rel=1e-15)

    @pytest.mark.parametrize("dm, above", [(5e-13, False), (2e-12, True)])
    def test_mid_terms_share_their_branch(self, dm, above):
        # force and torque take their eps^-(2-3/m) terms in the same
        # log-type form on either side of m = 3/2: there is no edge
        m = 1.5 + dm if above else 1.5 - dm
        res = force_asymptotic_2d(params(prof(m=m, dimension=2), (0.0, 0.0), 1.0))
        for exp in (res.F[0], res.T):
            (mid,) = [t for t in exp.terms if t.power == 2.0 - 3.0 / m]
            assert mid.is_log

    @pytest.mark.parametrize(
        "m", [3.0 + 1e-12, 3.0 + 2e-12, 5.0 / 3.0 - 1e-12, 5.0 / 3.0 + 2e-12,
              15.0 / 11.0 - 1e-9, 15.0 / 11.0 + 1e-9, 1.8 - 1e-9, 1.8 + 1e-9, 3.0 - 1e-12]
    )
    def test_torque_reads_the_alphas_that_exist(self, m):
        # the torque carries its log-type b35 and b13 terms exactly while
        # their exponents 3 - 5/m and 1 - 3/m exceed -2/3 (edges at m = 15/11
        # and m = 9/5), and the coefficients dict names what it reads
        res = force_asymptotic_2d(params(prof(m=m, dimension=2), (0.0, 0.0), 1.0))
        for name, q in (("b35", 3.0 - 5.0 / m), ("b13", 1.0 - 3.0 / m)):
            assert (name in res.coefficients) == (q > -2.0 / 3.0)
            term = [t for t in res.T.terms if t.power == q]
            assert bool(term) == (name in res.coefficients)
            assert all(t.is_log for t in term)

    def test_torque_high_m_extra_term(self):
        # for m > 3 the torque's b13 term has a positive exponent 1 - 3/m,
        # with b13 = (9/2) mu Gamma(1 + 1 - 3/m) Gamma(3/m) / m
        m = 4.0
        res = force_asymptotic_2d(params(prof(m=m, dimension=2), (0.0, 0.0), 1.0))
        b13 = 4.5 * math.gamma(1.25) * math.gamma(0.75) / 4.0
        assert res.coefficients["b13"] == pytest.approx(b13, rel=1e-14)
        assert coeff_of(res.T, 1.0 - 3.0 / m) == pytest.approx(b13, rel=1e-14)


class TestBranchPointContinuity:
    """The expansions are continuous in m through every branch point.

    The numeric route is continuous in m, so a jump of the expansion is a
    jump of the remainder.  Only the terms whose exponent passes 0 at the
    branch point can jump (every other term is a plain power with a smooth
    coefficient, and below eps = 1e-8 their genuine change across 2 delta
    dwarfs any O(1)); those are the terms with |power| < 0.1 here.  Their
    smooth change is about b ln(eps)^2 q'(m) delta, below 1.3e3 delta for
    these motions down to eps = 1e-12.  The pole ~1/(m - m*) of a power
    written on one side of m*, or an |ln eps| present only at m*, breaks the
    bound by orders of magnitude.
    """

    @staticmethod
    def _near_zero(m, dimension):
        motion = ((0.3, -0.2, -0.5), (0.15, 0.2, 0.1)) if dimension == 3 else ((0.4, -0.3), 0.25)
        res = force_asymptotic(params(prof(m=m, dimension=dimension), *motion))
        return [[t for t in exp.terms if abs(t.power) < 0.1] for exp in res.components()]

    @pytest.mark.parametrize("delta", [1e-6, 1e-3])
    @pytest.mark.parametrize("dimension, m_star", [(3, 2.0), (2, 1.5), (2, 5.0 / 3.0), (2, 3.0)])
    def test_no_jump(self, dimension, m_star, delta):
        # 3D m = 2 is one-sided: 3D profiles need m >= 2
        lower = self._near_zero(m_star if dimension == 3 else m_star - delta, dimension)
        upper = self._near_zero(m_star + delta, dimension)
        for eps in [10.0**-k for k in range(4, 13)]:
            for lo, up in zip(lower, upper):
                jump = sum(t.evaluate(eps) for t in up) - sum(t.evaluate(eps) for t in lo)
                assert abs(jump) <= 2e3 * delta, (eps, jump)


class TestFlat2d:
    def test_rotation_coefficients(self):
        # mu=1, w0=1, U=0, s=0.1, r=0.5: alpha_3 = 2 mu w0 s^3 (r-s)^2
        p = params(prof(dimension=2, kind="flat-capped", s=0.1), (0.0, 0.0), 1.0)
        res = force_asymptotic_2d_flat(p)
        assert res.coefficients["alpha_3"] == pytest.approx(3.2e-4, rel=1e-13)
        # torque log coefficient gamma_0 = mu w0 s (9/2 - 3 s^2 - 15 R)
        # - mu (U1 + w0 R) s
        expected_g0 = 0.1 * (4.5 - 3.0 * 0.01 - 15.0 * 2.0) - 2.0 * 0.1
        assert res.coefficients["gamma_0"] == pytest.approx(expected_g0, rel=1e-12)
        assert coeff_of(res.T, 0.0) == pytest.approx(expected_g0, rel=1e-12)

    def test_squeeze_ladder_shares_motion_factor(self):
        # every F2 rung is proportional to 2 U2 - w0 r
        base = params(
            prof(dimension=2, kind="flat-capped", s=0.1), (0.0, -0.3), 0.0
        )
        res = force_asymptotic_2d_flat(base)
        factor = 2.0 * (-0.3)
        # the ladder enters the force with a minus sign, so each term's
        # coefficient is opposite in sign to the motion factor
        for t in res.F[1].terms:
            assert t.coeff * factor < 0.0
        zero = params(
            prof(dimension=2, kind="flat-capped", s=0.1), (0.0, 0.05), 0.2
        )
        # 2 U2 = w0 r makes the whole ladder vanish
        res0 = force_asymptotic_2d_flat(zero)
        assert res0.F[1].is_empty

    def test_small_cap_reduces_to_curved(self):
        # the curved theorem writes its two eps^-1/2 force terms in the
        # log-type form, which differs from the ladder's powers by the
        # constant (U1 + w0 R) alpha11 + w0 alpha33
        U, w0 = (0.4, -0.3), 0.25
        flat = force_asymptotic_2d_flat(
            params(prof(dimension=2, kind="flat-capped", s=1e-9), U, w0)
        )
        curved = force_asymptotic_2d(params(prof(m=2.0, dimension=2), U, w0))
        c = curved.coefficients
        shift = (U[0] + w0 * 2.0) * c["b11"] / 0.5 + w0 * c["alpha33"]
        for eps in (1e-3, 1e-5):
            assert flat.F[0].evaluate(eps) == pytest.approx(
                curved.F[0].evaluate(eps) - shift, rel=1e-6
            )
            assert flat.F[1].evaluate(eps) == pytest.approx(
                curved.F[1].evaluate(eps), rel=1e-6
            )


def by_power(terms):
    """``{power: coeff}``, a log-type term keyed ``("log", power)``."""
    return {("log", t.power) if t.is_log else t.power: t.coeff for t in terms}


class TestCoefficientContract:
    """Every expansion term is a named coefficient of its theorem times its
    motion factor, so the JSON ``coefficients`` name what the terms carry."""

    U3, W3 = (0.3, -0.2, -0.5), (0.15, 0.2, 0.1)

    @pytest.mark.parametrize("s", [0.05, 0.15])
    def test_flat_2d(self, s):
        # F1, F2 and T are -sum_p c[family_p] eps^-p; gamma_0 multiplies ln eps
        res = force_asymptotic_2d_flat(
            params(prof(dimension=2, kind="flat-capped", s=s), (0.4, -0.3), 0.25, mu=1.3)
        )
        c = res.coefficients
        rungs = ["1/2", "1", "3/2", "2", "5/2", "3"]
        assert list(c) == (
            [f"alpha_{p}" for p in rungs] + [f"beta_{p}" for p in rungs[2:]]
            + ["gamma_0"] + [f"gamma_{p}" for p in rungs]
        )
        for exp, family in zip(res.components(), ("alpha", "beta", "gamma")):
            want = {
                float(Fraction(name.partition("_")[2])): -value
                for name, value in c.items()
                if name.startswith(family + "_") and name != "gamma_0"
            }
            if family == "gamma":
                want["log", 0.0] = c["gamma_0"]  # -gamma_0 ln eps = gamma_0 |ln eps|
            assert by_power(exp.terms) == want
            assert exp.residual is None

    def test_mconvex_2d(self):
        m, r, R, (U1, U2), w0 = 4.0, 0.5, 2.0, (0.4, -0.3), 0.25
        res = force_asymptotic_2d(params(prof(m=m, dimension=2, r=r, R=R), (U1, U2), w0, mu=1.3))
        c = res.coefficients
        assert list(c) == ["b11", "alpha33", "beta", "b35", "b13"]
        # each b is its exponent times the paper's coefficient
        q11, q35, q13 = 1 - 1 / m, 3 - 5 / m, 1 - 3 / m
        paper = {
            "b11": 2.0 * 1.3 * gamma_coeff(1, 1, m) * q11,
            "b35": 3.0 * 1.3 * gamma_coeff(3, 5, m) * q35,
            "b13": 1.3 / (2.0 * m) * ((18.0 + 3.0 * m) * gamma_coeff(1, 3, m)
                                      + 6.0 * m * gamma_coeff(2, 3, m)) * q13,
        }
        assert {name: c[name] for name in paper} == pytest.approx(paper, rel=1e-13)
        cu = U1 + w0 * R
        F1, F2 = res.F
        assert by_power(F1.terms) == pytest.approx({
            ("log", q11): -cu * c["b11"], 3 - 3 / m: -w0 * r**m * c["alpha33"],
            ("log", 2 - 3 / m): -w0 * (2 - 3 / m) * c["alpha33"],
        }, rel=1e-14)
        assert by_power(F2.terms) == pytest.approx(
            {3 - 3 / m: -2.0 * (2.0 * U2 - w0 * r) * c["alpha33"]}, rel=1e-14
        )
        assert by_power(res.T.terms) == pytest.approx({
            ("log", q11): -R * cu * c["b11"], 3 - 3 / m: w0 * r**2 * c["beta"],
            ("log", 2 - 3 / m): -R * w0 * (2 - 3 / m) * c["alpha33"],
            ("log", q35): -w0 * c["b35"], ("log", q13): w0 * c["b13"],
        }, rel=1e-14)

    def test_mconvex_3d(self):
        m, r, R = 4.0, 0.5, 2.0
        res = force_asymptotic_3d(params(prof(m=m, r=r, R=R), self.U3, self.W3, mu=1.3))
        c = res.coefficients
        assert list(c) == ["b12", "alpha34", "beta1", "beta2"]
        (U1, U2, U3), (w1, w2, _) = self.U3, self.W3
        cu1, cu2 = U1 - w2 * R, U2 + w1 * R
        q1, q2, p3 = 1 - 2 / m, 2 - 4 / m, 3 - 4 / m
        b12, a34 = c["b12"], c["alpha34"]
        assert b12 == pytest.approx(2.0 * math.pi * 1.3 * gamma_coeff(1, 2, m) * q1, rel=1e-13)
        lo, up = 2.0 ** -m * r**m, 2.0 ** (m / 2) * r**m
        shear, rot = ("log", q1), ("log", q2)
        want = [  # (known terms, lower, upper) per component
            ({shear: -cu1 * b12, rot: w2 * q2 * a34}, {p3: w2 * lo * a34}, {p3: w2 * up * a34}),
            ({shear: -cu2 * b12, rot: -w1 * q2 * a34}, {p3: -w1 * up * a34}, {p3: -w1 * lo * a34}),
            ({p3: -2.0 * U3 * a34}, {p3: (w1 + w2) * r * a34}, {p3: 2.0 * (w1 + w2) * r * a34}),
            ({shear: -R * cu2 * b12}, {p3: w1 * r**2 * c["beta1"]}, {p3: w1 * r**2 * c["beta2"]}),
            ({shear: R * cu1 * b12}, {p3: w2 * r**2 * c["beta1"]}, {p3: w2 * r**2 * c["beta2"]}),
        ]
        for exp, (known, lower, upper) in zip(res.components(), want):
            assert by_power(exp.terms) == pytest.approx(known, rel=1e-14)
            assert by_power(exp.residual.lower) == pytest.approx(lower, rel=1e-14)
            assert by_power(exp.residual.upper) == pytest.approx(upper, rel=1e-14)
        assert res.T[2].is_empty

    def test_flat_3d_sandwiches(self):
        # each sandwich is a pair of named coefficients, at eps^-1 and eps^-3,
        # times its rotation factor
        res = force_asymptotic_3d_flat(
            params(prof(kind="flat-capped", s=0.15), self.U3, self.W3, mu=1.3)
        )
        c = res.coefficients
        assert sorted(c) == [f"{x}{a}_{p}" for x in "BCD" for a in "12" for p in "13"]
        w1, w2, _ = self.W3

        def pair(prefix, scale):
            return {1.0: scale * c[prefix + "_1"], 3.0: scale * c[prefix + "_3"]}

        want = [
            (pair("B1", w2), pair("B2", w2)),
            (pair("B2", -w1), pair("B1", -w1)),
            (pair("C1", w1 + w2), pair("C2", w1 + w2)),
            (pair("D1", w1), pair("D2", w1)),
            (pair("D1", w2), pair("D2", w2)),
        ]
        for exp, (lower, upper) in zip(res.components(), want):
            assert by_power(exp.residual.lower) == pytest.approx(lower, rel=1e-14)
            assert by_power(exp.residual.upper) == pytest.approx(upper, rel=1e-14)


class TestDispatch:
    def test_routes_by_profile(self, params3d, params2d, params3d_flat):
        assert force_asymptotic(params3d).coefficients.keys() >= {
            "b12",
            "alpha34",
        }
        assert "b11" in force_asymptotic(params2d).coefficients
        assert "B1_1" in force_asymptotic(params3d_flat).coefficients

    def test_wrong_profile_rejected(self, params3d, params2d):
        with pytest.raises(ValueError):
            force_asymptotic_2d(params3d)
        with pytest.raises(ValueError):
            force_asymptotic_3d(params2d)
        with pytest.raises(ValueError):
            force_asymptotic_3d_flat(params3d)


class TestFitExponent:
    def test_pure_power(self):
        eps = np.array([1e-2, 1e-3, 1e-4, 1e-5])
        assert fit_exponent(eps, eps**-2.0) == pytest.approx(2.0, abs=1e-12)

    def test_power_plus_constant(self):
        eps = np.geomspace(1e-5, 1e-4, 6)
        vals = 5.0 * eps**-1.0 + 7.0
        assert fit_exponent(eps, vals) == pytest.approx(1.0, abs=1e-3)

    def test_constant_samples(self):
        eps = np.array([1e-2, 1e-3, 1e-4])
        assert fit_exponent(eps, np.full(3, 4.2)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_values_rejected(self):
        with pytest.raises(ValueError):
            fit_exponent([1e-2, 1e-3], [1.0, 0.0])

    def test_mismatched_rejected(self):
        with pytest.raises(ValueError):
            fit_exponent([1e-2, 1e-3, 1e-4], [1.0, 2.0])

    @pytest.mark.parametrize(
        "eps, vals",
        [
            ([1e-3, 1e-3, 1e-3], [1.0, 2.0, 3.0]),
            ([1e-2, math.nan, 1e-4], [1.0, 2.0, 3.0]),
            ([1e-2, 0.0, 1e-4], [1.0, 2.0, 3.0]),
            ([1e-2, -1e-3, 1e-4], [1.0, 2.0, 3.0]),
            ([1e-2, math.inf, 1e-4], [1.0, 2.0, 3.0]),
            ([1e-2, 1e-3, 1e-4], [1.0, math.inf, 3.0]),
            ([1e-2, 1e-3, 1e-4], [1.0, -math.inf, 3.0]),
            ([1e-2, 1e-3, 1e-4], [1.0, math.nan, 3.0]),
        ],
        ids=["one-eps", "nan-eps", "zero-eps", "negative-eps", "inf-eps",
             "inf-value", "-inf-value", "nan-value"],
    )
    def test_bad_input_rejected(self, eps, vals):
        # once a RankWarning and 0.0432, LAPACK's LinAlgError (a ValueError
        # subclass) after an error message on stderr, or nan
        with pytest.raises(ValueError) as info:
            fit_exponent(eps, vals)
        assert info.type is ValueError

    @pytest.mark.parametrize("p", [-1.0, 0.5, 1.0, 2.0, 3.0])
    def test_power_laws_to_roundoff(self, p):
        for eps in (np.array([1e-2, 1e-3, 1e-4, 1e-5]), np.geomspace(1e-2, 1e-4, 5), 2.0 ** -np.arange(1.0, 8.0)):
            assert fit_exponent(eps, 3.0 * eps**-p) == pytest.approx(p, rel=2e-15, abs=0.0)

    def test_matches_polyfit(self):
        # the closed-form slope is polyfit's least-squares line on grids
        # spanning at least a decade
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(3, 7))
            hi = rng.uniform(1.0, 3.0)
            eps = np.geomspace(10.0**-hi, 10.0 ** -(hi + rng.uniform(1.0, 6.0)), n)
            p = rng.uniform(0.5, 3.0)
            vals = -rng.uniform(0.1, 10.0) * eps**-p * np.exp(0.2 * rng.standard_normal(n))
            want = np.polyfit(-np.log(eps), np.log(np.abs(vals)), 1)[0]
            assert fit_exponent(eps, vals) == pytest.approx(want, rel=1e-14, abs=0.0)
