"""Gamma-coefficient table and the gap-moment integral families.

The frozen oracle tuples below were computed with mpmath at 50 decimal
digits (gamma values directly; integrals by high-precision quadrature split
at the boundary-layer scale) and are independent of the implementation
under test.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lubgap import special
from lubgap.quadrature import layer_splits
from lubgap.special import (
    AsymptoticExpansion,
    AsymptoticTerm,
    IntervalResidual,
    ToleranceNotMet,
    gamma,
    gamma_coeff,
    gap_tail,
    phi,
    psi,
)

from helpers import phi_leading

# (s, Gamma(s)) from mpmath.gamma, 50 digits
GAMMA_ORACLE = (
    (20.836827, 1.4871593537821266e18),
    (0.518357, 1.7110981381003705),
    (41.262073, 2.1541996946266412e48),
    (14.939006, 74066597885.26022),
    (18.4269, 1213358831189914.8),
    (9.691131, 181934.59078173622),
    (28.304748, 2.994707455603909e28),
    (8.092774, 6079.824433946175),
    (6.222102, 176.0622195447772),
    (21.652484, 1.7640576168957164e19),
)

# (i, j, m, (1/m)*Gamma(i - j/m)*Gamma(j/m)) from mpmath, 50 digits
GAMMA_COEFF_ORACLE = (
    (2.4673, 1.0461, 3.2576, 0.9156893675362496),
    (3.9252, 2.4727, 3.0653, 0.8443204215679572),
    (1.6955, 0.1411, 2.4241, 6.172467674087988),
    (3.8862, 5.8728, 4.0037, 0.2782880669355552),
    (3.1979, 1.0732, 1.488, 1.112446736202552),
    (1.9509, 5.3132, 3.3545, 0.644400362230267),
    (3.078, 1.3957, 3.142, 0.9308311987030221),
    (2.9829, 4.949, 4.2478, 0.204582612977169),
    (3.3066, 3.3305, 1.8247, 0.45549322345084886),
    (2.5601, 3.1094, 4.8388, 0.2798427380608608),
    (0.6454, 0.9848, 4.9348, 1.85244154423843),
    (3.4127, 0.9016, 1.9935, 1.8947446252537279),
)

# (i, j, m, r, eps, integral) from mpmath.quad, 50 digits
PHI_ORACLE = (
    (1, 1, 2, 1.0, 0.0001, 4.6052201834882585),
    (1, 0, 1, 1.0, 0.5, 1.0986122886681098),
    (2, 3, 2, 0.5, 0.001, 2.2647185014384017),
    (3, 3, 2, 0.7, 1e-05, 24998.979623072868),
    (1.5, 2.0, 3.0, 0.8, 0.0001, 65.73506264855484),
    (3, 4, 2, 0.5, 1e-06, 587.0486305480479),
    (2, 2, 4, 1.0, 0.001, 1561.3106464351677),
    # m < 2: breakpoints delta 10^k, not the splits under test
    (1, 0, 1.2, 0.5, 1e-06, 46.61638766985367),
    (2, 1, 1.2, 0.5, 1e-06, 198.23449670504246),
    (3, 2, 1.2, 0.5, 1e-06, 979.2215157729465),
    (1, 0, 1.5, 0.5, 1e-06, 239.01149010647964),
    (2, 1, 1.5, 0.5, 1e-06, 8059.330512233107),
    (3, 2, 1.5, 0.5, 1e-06, 333331.44772325014),
)

# (i, j, s, r, eps, integral) from mpmath.quad, 50 digits
PSI_ORACLE = (
    (3, 0, 0.1, 0.5, 0.001, 18627346.65288535),
    (2, 1, 0.2, 0.5, 0.0001, 162077.10040172678),
    (1, 2, 0.05, 1.0, 0.01, 1.1204214502692829),
    (3, 4, 0.1, 0.5, 0.0001, 701885.5246291378),
)


class TestGamma:
    def test_integer_factorials(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)

    def test_half(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)

    @pytest.mark.parametrize("s,expected", GAMMA_ORACLE)
    def test_oracle(self, s, expected):
        assert gamma(s) == pytest.approx(expected, rel=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            gamma(0.0)
        with pytest.raises(ValueError):
            gamma(-1.0)


class TestGammaCoeff:
    def test_log_branch(self):
        # i = j/m lands on the special branch with value 1/m
        assert gamma_coeff(1, 2, 2) == pytest.approx(0.5, rel=1e-14)
        assert gamma_coeff(2, 6, 3) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_tabulated_m2(self):
        assert gamma_coeff(3, 4, 2) == pytest.approx(0.5, rel=1e-12)
        assert gamma_coeff(1, 1, 2) == pytest.approx(math.pi / 2.0, rel=1e-12)
        assert gamma_coeff(3, 3, 2) == pytest.approx(math.pi / 8.0, rel=1e-12)

    def test_m3_pair(self):
        expected = gamma(5.0 / 3.0) * gamma(4.0 / 3.0) / 3.0
        assert gamma_coeff(3, 4, 3) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("i,j,m,expected", GAMMA_COEFF_ORACLE)
    def test_oracle(self, i, j, m, expected):
        assert gamma_coeff(i, j, m) == pytest.approx(expected, rel=1e-11)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            gamma_coeff(1, 3, 2)

    def test_branch_behaviour_near_boundary(self):
        # The two-Gamma product diverges like Gamma(delta) ~ 1/delta as
        # i -> j/m; the 1/m branch is the log-case convention, not a
        # continuous limit.  Just inside the detection tolerance the branch
        # value is returned so roundoff cannot hit the pole.
        m = 2.0
        delta = 1e-8
        val = gamma_coeff(1.0 + delta, 2.0, m)
        assert val == pytest.approx(gamma(1.0) / (m * delta), rel=1e-6)
        assert gamma_coeff(1.0 + 1e-13, 2.0, m) == 1.0 / m
        # and just on the pole side of it
        assert gamma_coeff(1.0 - 1e-13, 2.0, m) == 1.0 / m

    @given(
        i=st.floats(0.5, 4.0),
        j=st.floats(0.1, 4.0),
        m=st.floats(1.2, 5.0),
    )
    def test_positive(self, i, j, m):
        if i - j / m <= 1e-3:
            return
        assert gamma_coeff(i, j, m) > 0.0


@pytest.fixture
def layer_spy(monkeypatch):
    """The split points and the integrand call sizes of each layer integral."""
    splits, calls = [], []
    real = special.integrate_1d

    def spy(f, a, b, spec):
        splits.append(spec.split_points)
        return real(lambda t: calls.append(t.size) or f(t), a, b, spec)

    monkeypatch.setattr(special, "integrate_1d", spy)
    return splits, calls


class TestPhi:
    @pytest.mark.parametrize("i,j,m,r,eps,expected", PHI_ORACLE)
    def test_oracle(self, i, j, m, r, eps, expected):
        assert phi(i, j, m, r, eps) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("i,j,m,r,eps,expected", [row for row in PHI_ORACLE if row[2] < 2.0])
    def test_graded_layer(self, i, j, m, r, eps, expected, layer_spy):
        # 1 < m < 2 starts on panels graded into the axis, as the force
        # route's radial passes do, m = 1 on the plain splits: at most 3
        # integrand calls, split where layer_splits places the points
        splits, calls = layer_spy
        assert phi(i, j, m, r, eps) == pytest.approx(expected, rel=1e-10)
        assert len(calls) <= 3
        assert splits == [layer_splits(m, eps, r)]

    @pytest.mark.parametrize("i, j, m, r, eps, evaluations",
                             [(1, 0, 1.0, 1.0, 0.5, 60), (1, 1, 0.1, 0.5, 1e-2, 1005)])
    def test_no_grading_at_or_below_m1(self, i, j, m, r, eps, evaluations, layer_spy):
        # for m <= 1 the curvature of t^m is not steeper at the axis than the
        # layer's own, so the pass starts on the plain splits delta 2^j: no
        # more evaluations than that start took (grading into the axis made
        # 810 and 8805)
        with mpmath.workdps(50):
            f = lambda t: t**j / (eps + t**m) ** i
            want = float(mpmath.quad(f, [0, mpmath.mpf(eps) ** (1 / mpmath.mpf(m)), r]))
        assert phi(i, j, m, r, eps) == pytest.approx(want, rel=1e-10)
        assert sum(layer_spy[1]) <= evaluations
        assert layer_spy[0] == [layer_splits(m, eps, r)]

    def test_psi_splits(self, layer_spy):
        psi(2, 1, 0.2, 0.5, 1e-4)
        assert layer_spy[0] == [layer_splits(2.0, 1e-4, 0.5)]

    def test_closed_form_m2_log(self):
        # int_0^r t/(eps+t^2) dt = (1/2) ln(1 + r^2/eps)
        for r in (0.1, 0.3, 0.55, 0.8, 1.0):
            for eps in (1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
                expected = 0.5 * math.log(1.0 + r * r / eps)
                assert phi(1, 1, 2, r, eps) == pytest.approx(expected, rel=1e-9)

    def test_closed_form_m1(self):
        assert phi(1, 0, 1, 1.0, 0.5) == pytest.approx(math.log(3.0), rel=1e-10)

    def test_empty_interval(self):
        assert phi(2, 1, 2, 0.0, 1e-3) == 0.0

    def test_eps_domain(self):
        with pytest.raises(ValueError):
            phi(1, 1, 2, 1.0, 0.0)

    @given(
        eps1=st.floats(1e-6, 1e-2),
        factor=st.floats(1.5, 10.0),
        r=st.floats(0.1, 1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_eps(self, eps1, factor, r):
        assert phi(2, 1, 2, r, eps1) > phi(2, 1, 2, r, eps1 * factor)

    @given(
        r1=st.floats(0.1, 0.5),
        factor=st.floats(1.5, 2.0),
        eps=st.floats(1e-5, 1e-2),
    )
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_r(self, r1, factor, eps):
        assert phi(2, 1, 2, r1 * factor, eps) > phi(2, 1, 2, r1, eps)


class TestGapTail:
    @pytest.mark.parametrize("m", [1.2, 2.0, 2.5, 4.0, 8.0])
    @pytest.mark.parametrize("i, j", [(3, 0), (3, 1), (3, 2)])
    def test_matches_mpmath(self, i, j, m):
        # the incomplete Beta form, evaluated live in 50-digit arithmetic:
        # 1/(1+w) must keep the digits of w down to w = 1e-24
        r = 0.5
        with mpmath.workdps(50):
            a = mpmath.mpf(j + 1) / m
            b = i - a
            for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
                delta = eps ** (1.0 / m)
                rhos = [0.0, 1e-3 * delta, 1e-2 * delta, 0.3 * delta, delta, 7.0 * delta, 0.1, r]
                got = gap_tail(i, j, m, np.array(rhos), eps)
                for rho, g in zip(rhos, got):
                    w = mpmath.mpf(rho) ** m / eps
                    ref = mpmath.mpf(eps) ** (a - i) / m * mpmath.betainc(
                        b, a, 0, 1 / (1 + w), regularized=False
                    )
                    assert g == pytest.approx(float(ref), rel=1e-13)

    @pytest.mark.parametrize("m", [1.2, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0])
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_incomplete_beta_matches_mpmath(self, j, m):
        # at eps = 1 the tail is B_{1/(1+w)}(b, a)/m with w = rho^m: the
        # numpy incomplete Beta over w from 1e-20 to 1e12, through the
        # branch switch at w = 1
        ws = np.concatenate([np.logspace(-20, 12, 33), np.linspace(0.25, 4.0, 16), [1.0]])
        rhos = ws ** (1.0 / m)
        got = gap_tail(3, j, m, rhos, 1.0)
        with mpmath.workdps(50):
            a = mpmath.mpf(j + 1) / m
            for rho, g in zip(rhos, got):
                x = 1 / (1 + mpmath.mpf(rho) ** m)
                ref = mpmath.betainc(3 - a, a, 0, x, regularized=False) / m
                assert g == pytest.approx(float(ref), rel=1e-13)

    def test_elementary_tail_is_the_beta_form(self):
        # m = 2, j = 1 takes the closed form 1/(2(i-1)(eps + rho^2)^(i-1))
        rhos = np.array([0.0, 1e-6, 1e-3, 0.03, 0.1, 0.5, 3.0])
        for i, eps in ((3, 1e-3), (3, 1e-8), (2, 1e-5)):
            got = gap_tail(i, 1, 2.0, rhos, eps)
            with mpmath.workdps(30):
                for rho, g in zip(rhos, got):
                    w = mpmath.mpf(rho) ** 2 / eps
                    ref = mpmath.mpf(eps) ** (1 - i) / 2 * mpmath.betainc(
                        i - 1, 1, 0, 1 / (1 + w), regularized=False
                    )
                    assert g == pytest.approx(float(ref), rel=1e-13)

    @pytest.mark.parametrize(
        "i, j, m, eps",
        [(3, 1, 2.0, 1e-4), (3, 2, 2.5, 1e-6), (3, 0, 4.0, 1e-3), (2, 2, 2.0, 1e-5)],
    )
    def test_difference_of_tails_is_phi(self, i, j, m, eps):
        r = 0.5
        diff = float(gap_tail(i, j, m, 0.0, eps) - gap_tail(i, j, m, r, eps))
        assert diff == pytest.approx(phi(i, j, m, r, eps), rel=1e-10)

    def test_complete_integral(self):
        # at rho = 0 the tail is the Beta integral behind phi_leading
        i, j, m, eps = 3, 1, 2.5, 1e-6
        a = (j + 1) / m
        expected = eps ** (a - i) / m * gamma(a) * gamma(i - a) / gamma(i)
        assert float(gap_tail(i, j, m, 0.0, eps)) == pytest.approx(expected, rel=1e-13)

    def test_divergent_tail_rejected(self):
        with pytest.raises(ValueError):
            gap_tail(1, 1, 2.0, 0.1, 1e-3)  # b = 0
        with pytest.raises(ValueError):
            gap_tail(1, 2, 2.0, 0.1, 1e-3)  # b < 0
        with pytest.raises(ValueError):
            gap_tail(3, 1, 2.0, -0.1, 1e-3)


class TestPhiLeading:
    def test_log_case(self):
        exp = phi_leading(1, 1, 2)
        assert len(exp.terms) == 1
        assert exp.terms[0].is_log
        assert exp.terms[0].coeff == pytest.approx(0.5, rel=1e-14)

    def test_power_case(self):
        # int t^3/(eps+t^2)^3 ~ eps^-1/4: the coefficient carries 1/Gamma(i)
        exp = phi_leading(3, 3, 2)
        assert len(exp.terms) == 1
        term = exp.terms[0]
        assert not term.is_log
        assert term.power == pytest.approx(1.0, rel=1e-14)
        assert term.coeff == pytest.approx(0.25, rel=1e-12)

    def test_convergent_case(self):
        exp = phi_leading(1, 3, 2)
        assert exp.terms == ()

    def test_matches_quadrature(self):
        # the singular part dominates: phi/leading -> 1 as eps -> 0
        exp = phi_leading(3, 3, 2)
        prev = None
        for eps in (1e-3, 1e-4, 1e-5):
            ratio = phi(3, 3, 2, 0.7, eps) / exp.evaluate(eps)
            err = abs(ratio - 1.0)
            if prev is not None:
                assert err < prev
            prev = err
        assert prev < 1e-2


class TestPsi:
    @pytest.mark.parametrize("i,j,s,r,eps,expected", PSI_ORACLE)
    def test_oracle(self, i, j, s, r, eps, expected):
        assert psi(i, j, s, r, eps) == pytest.approx(expected, rel=1e-9)

    def test_s_zero_reduces_to_phi(self):
        assert psi(1, 1, 0.0, 1.0, 1e-4) == pytest.approx(
            phi(1, 1, 2, 1.0, 1e-4), rel=1e-10
        )

    def test_empty_interval(self):
        assert psi(1, 0, 0.2, 0.0, 1e-3) == 0.0

    def test_binomial_route(self):
        # (t+s)^2 = t^2 + 2st + s^2 decomposes into phi(m=2) pieces
        i, s, r, eps = 2.0, 0.15, 0.5, 1e-3
        direct = psi(i, 2, s, r, eps)
        split = (
            phi(i, 2, 2, r, eps)
            + 2.0 * s * phi(i, 1, 2, r, eps)
            + s * s * phi(i, 0, 2, r, eps)
        )
        assert direct == pytest.approx(split, rel=1e-9)


class TestAsymptoticExpansion:
    def test_evaluate(self):
        exp = AsymptoticExpansion(
            (AsymptoticTerm(2.0, power=1.0), AsymptoticTerm(3.0, is_log=True))
        )
        eps = 1e-3
        assert exp.evaluate(eps) == pytest.approx(
            2.0e3 + 3.0 * abs(math.log(eps)), rel=1e-14
        )

    @pytest.mark.parametrize("eps", [0.3, 1e-3, 1e-8, 1e-12])
    def test_log_type_at_power_zero(self, eps):
        # the log-type form at q = 0 is the plain |ln eps| term, bit for bit
        assert AsymptoticTerm(-2.7, is_log=True).evaluate(eps) == -2.7 * abs(math.log(eps))

    @pytest.mark.parametrize("q", [1e-8, -1e-8, 3e-9, -3e-12, 1e-16, 0.3, -0.3])
    @pytest.mark.parametrize("eps", [0.3, 1e-4, 1e-8])
    def test_log_type_matches_oracle(self, q, eps):
        # b (eps^-q - 1)/q, through and away from q = 0, against 50 digits
        with mpmath.workdps(50):
            want = float((mpmath.mpf(eps) ** -mpmath.mpf(q) - 1) / mpmath.mpf(q))
        got = AsymptoticTerm(1.0, power=q, is_log=True).evaluate(eps)
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_negative_power(self):
        # a negative power is admissible only in the log-type form, which
        # then tends to the constant -1/q
        assert AsymptoticTerm(1.0, power=-0.5, is_log=True).evaluate(1e-12) == pytest.approx(2.0, rel=1e-5)
        with pytest.raises(ValueError):
            AsymptoticTerm(1.0, power=-0.5)

    def test_several_log_type_terms(self):
        terms = (
            AsymptoticTerm(1.5, is_log=True),
            AsymptoticTerm(-0.5, power=0.2, is_log=True),
            AsymptoticTerm(0.25, power=-0.3, is_log=True),
            AsymptoticTerm(2.0, power=1.0),
        )
        exp = AsymptoticExpansion(terms)
        assert [t.power for t in exp.terms] == [1.0, 0.2, 0.0, -0.3]
        eps = 1e-6
        assert exp.evaluate(eps) == pytest.approx(sum(t.evaluate(eps) for t in terms), rel=1e-15)

    def test_empty(self):
        exp = AsymptoticExpansion(())
        assert exp.is_empty
        assert exp.evaluate(1e-4) == 0.0

    def test_interval_ordering(self):
        res = IntervalResidual(
            lower=(AsymptoticTerm(1.0, power=1.0),),
            upper=(AsymptoticTerm(2.0, power=1.0),),
        )
        exp = AsymptoticExpansion((AsymptoticTerm(1.0, power=2.0),), res)
        for eps in (1e-2, 1e-3, 1e-5, 0.3):
            lo, hi = exp.evaluate_bounds(eps)
            assert lo <= hi

    def test_eps_domain(self):
        exp = AsymptoticExpansion((AsymptoticTerm(1.0, power=1.0),))
        with pytest.raises(ValueError):
            exp.evaluate(0.0)

    def test_tolerance_error_type(self):
        assert issubclass(ToleranceNotMet, RuntimeError)
