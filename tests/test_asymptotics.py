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


def prof(m=2.0, dimension=3, kind="m-convex", s=0.0, eps=1e-3, r=0.5, R=2.0):
    return GapProfile(kind=kind, m=m, s=s, eps=eps, r=r, R=R, dimension=dimension)


def params(profile, U, omega, mu=1.0):
    return ProblemParams(profile=profile, mu=mu, U=U, omega=omega)


def coeff_of(exp, power=None, is_log=False):
    """Total coefficient at the requested exponent, or 0.0 if absent.

    Distinct source terms may share an exponent (e.g. the 2D shear and
    mid exponents coincide at m = 2), so matches are summed.
    """
    total = 0.0
    for t in exp.terms:
        if is_log and t.is_log:
            total += t.coeff
        elif not is_log and not t.is_log and t.power == pytest.approx(power):
            total += t.coeff
    return total


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
        assert res.coefficients["alpha12"] == pytest.approx(math.pi, rel=1e-13)
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
        assert coeff_of(F1, is_log=True) == pytest.approx(c, rel=1e-13)
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
        # with alpha11 = pi, alpha33 = 3 pi / 8
        p = params(prof(m=2.0, dimension=2, R=1.0), (0.0, 0.0), 1.0)
        res = force_asymptotic_2d(p)
        a11, a33 = math.pi, 3.0 * math.pi / 8.0
        assert res.coefficients["alpha11"] == pytest.approx(a11, rel=1e-13)
        assert res.coefficients["alpha33"] == pytest.approx(a33, rel=1e-13)
        F1 = res.F[0]
        assert coeff_of(F1, 0.5) == pytest.approx(-(a11 * 1.0 + a33), rel=1e-13)
        assert coeff_of(F1, 1.5) == pytest.approx(-0.25 * a33, rel=1e-13)

    def test_translation_only_second_component(self):
        # U = (U1, 0), w0 = 0: the squeeze-type force has a zero factor
        res = force_asymptotic_2d(params(prof(dimension=2), (1.0, 0.0), 0.0))
        assert res.F[1].is_empty

    def test_torque_log_case_m53(self):
        res = force_asymptotic_2d(params(prof(m=5.0 / 3.0, dimension=2), (0.0, 0.0), 1.0))
        assert coeff_of(res.T, is_log=True) == pytest.approx(-18.0 / 5.0, rel=1e-13)

    def test_torque_log_case_m3(self):
        res = force_asymptotic_2d(params(prof(m=3.0, dimension=2), (0.0, 0.0), 1.0))
        assert coeff_of(res.T, is_log=True) == pytest.approx(1.5, rel=1e-13)

    def test_force_branch_boundary_m32(self):
        # m = 3/2 sits in the low branch: no eps^-(2-3/m) force term
        res_lo = force_asymptotic_2d(params(prof(m=1.5, dimension=2), (0.0, 0.0), 1.0))
        assert coeff_of(res_lo.F[0], 2.0 - 3.0 / 1.5) == 0.0
        res_hi = force_asymptotic_2d(params(prof(m=1.6, dimension=2), (0.0, 0.0), 1.0))
        assert coeff_of(res_hi.F[0], 2.0 - 3.0 / 1.6) != 0.0

    @pytest.mark.parametrize("dm, present", [(5e-13, False), (2e-12, True)])
    def test_mid_terms_share_their_branch(self, dm, present):
        # force and torque take their eps^-(2-3/m) terms on the same side of
        # the low branch's edge just past m = 3/2
        m = 1.5 + dm
        res = force_asymptotic_2d(params(prof(m=m, dimension=2), (0.0, 0.0), 1.0))
        for exp in (res.F[0], res.T):
            assert any(t.power == 2.0 - 3.0 / m for t in exp.terms) is present

    @pytest.mark.parametrize("m", [3.0 + 1e-12, 3.0 + 2e-12, 5.0 / 3.0 - 1e-12, 5.0 / 3.0 + 2e-12])
    def test_torque_reads_the_alphas_that_exist(self, m):
        # at the edges of the marginal bands the torque carries its alpha13
        # and alpha35 terms exactly where the theorem defines the coefficient
        res = force_asymptotic_2d(params(prof(m=m, dimension=2), (0.0, 0.0), 1.0))
        powers = {t.power for t in res.T.terms}
        if abs(m - 5.0 / 3.0) > 1e-12:
            assert (3.0 - 5.0 / m in powers) == ("alpha35" in res.coefficients)
        assert (1.0 - 3.0 / m in powers) == ("alpha13" in res.coefficients)

    def test_torque_high_m_extra_term(self):
        # for m > 3 the torque gains a positive-exponent alpha13 term
        m = 4.0
        res = force_asymptotic_2d(params(prof(m=m, dimension=2), (0.0, 0.0), 1.0))
        assert coeff_of(res.T, 1.0 - 3.0 / m) != 0.0
        assert "alpha13" in res.coefficients


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
        assert coeff_of(res.T, is_log=True) == pytest.approx(expected_g0, rel=1e-12)

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
        U, w0 = (0.4, -0.3), 0.25
        flat = force_asymptotic_2d_flat(
            params(prof(dimension=2, kind="flat-capped", s=1e-9), U, w0)
        )
        curved = force_asymptotic_2d(params(prof(m=2.0, dimension=2), U, w0))
        for eps in (1e-3, 1e-5):
            assert flat.F[0].evaluate(eps) == pytest.approx(
                curved.F[0].evaluate(eps), rel=1e-6
            )
            assert flat.F[1].evaluate(eps) == pytest.approx(
                curved.F[1].evaluate(eps), rel=1e-6
            )


def by_power(terms):
    return {"log" if t.is_log else t.power: t.coeff for t in terms}


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
                want["log"] = c["gamma_0"]  # -gamma_0 ln eps = gamma_0 |ln eps|
            assert by_power(exp.terms) == want
            assert exp.residual is None

    def test_mconvex_2d(self):
        m, r, R, (U1, U2), w0 = 4.0, 0.5, 2.0, (0.4, -0.3), 0.25
        res = force_asymptotic_2d(params(prof(m=m, dimension=2, r=r, R=R), (U1, U2), w0, mu=1.3))
        c = res.coefficients
        assert list(c) == ["alpha11", "alpha33", "beta", "alpha35", "alpha13"]
        cu = U1 + w0 * R
        F1, F2 = res.F
        assert by_power(F1.terms) == pytest.approx({
            1 - 1 / m: -cu * c["alpha11"], 3 - 3 / m: -w0 * r**m * c["alpha33"],
            2 - 3 / m: -w0 * c["alpha33"],
        }, rel=1e-14)
        assert by_power(F2.terms) == pytest.approx(
            {3 - 3 / m: -2.0 * (2.0 * U2 - w0 * r) * c["alpha33"]}, rel=1e-14
        )
        assert by_power(res.T.terms) == pytest.approx({
            1 - 1 / m: -R * cu * c["alpha11"], 3 - 3 / m: w0 * r**2 * c["beta"],
            2 - 3 / m: -R * w0 * c["alpha33"], 3 - 5 / m: -w0 * c["alpha35"],
            1 - 3 / m: w0 * c["alpha13"],
        }, rel=1e-14)

    def test_mconvex_3d(self):
        m, r, R = 4.0, 0.5, 2.0
        res = force_asymptotic_3d(params(prof(m=m, r=r, R=R), self.U3, self.W3, mu=1.3))
        c = res.coefficients
        assert list(c) == ["alpha12", "alpha34", "beta1", "beta2"]
        (U1, U2, U3), (w1, w2, _) = self.U3, self.W3
        cu1, cu2 = U1 - w2 * R, U2 + w1 * R
        shear, rot, p3 = 1 - 2 / m, 2 - 4 / m, 3 - 4 / m
        lo, up = 2.0 ** -m * r**m, 2.0 ** (m / 2) * r**m
        a12, a34 = c["alpha12"], c["alpha34"]
        want = [  # (known terms, lower, upper) per component
            ({shear: -cu1 * a12, rot: w2 * a34}, {p3: w2 * lo * a34}, {p3: w2 * up * a34}),
            ({shear: -cu2 * a12, rot: -w1 * a34}, {p3: -w1 * up * a34}, {p3: -w1 * lo * a34}),
            ({p3: -2.0 * U3 * a34}, {p3: (w1 + w2) * r * a34}, {p3: 2.0 * (w1 + w2) * r * a34}),
            ({shear: -R * cu2 * a12}, {p3: w1 * r**2 * c["beta1"]}, {p3: w1 * r**2 * c["beta2"]}),
            ({shear: R * cu1 * a12}, {p3: w2 * r**2 * c["beta1"]}, {p3: w2 * r**2 * c["beta2"]}),
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
            "alpha12",
            "alpha34",
        }
        assert "alpha11" in force_asymptotic(params2d).coefficients
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
