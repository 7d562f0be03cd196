"""Adaptive integration and panel rules."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lubgap.quadrature import (
    SHORT_RING,
    TRAPEZOID_RING,
    QuadratureError,
    QuadResult,
    QuadSpec,
    _GAUSS_LEGENDRE_5,
    _GAUSS_LEGENDRE_16,
    integrate_1d,
    integrate_vector,
    layer_splits,
    ring_integrals,
    trapezoid_ring,
)

from helpers import cumulative_sums, gauss_legendre, kronrod_panels, serial_integrate_vector


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
        # split points are held sorted, without repeats
        assert QuadSpec(split_points=(0.5, 0.25, 0.5)).split_points == (0.25, 0.5)
        assert spec.with_splits([0.5, 0.1]).split_points == (0.1, 0.25, 0.5)

    def test_duplicate_split_makes_no_empty_panel(self):
        # a repeated split point is one cut: two panels of 15 nodes, and no
        # zero-width panel dividing by its width
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = integrate_1d(np.exp, 0.0, 1.0, QuadSpec(rel_tol=1e-6, split_points=(0.5, 0.5)))
        assert res.evaluations == 30
        assert res.value == pytest.approx(math.e - 1.0, rel=1e-12)


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

    @pytest.mark.parametrize(
        "f",
        [lambda t: 1.0 / (t - 0.5), lambda t: np.where(t < 0.6, t, np.nan), lambda t: np.full_like(t, 1e308)],
        ids=["pole-at-node", "nan-on-part", "sum-overflows"],
    )
    def test_not_finite(self, f):
        # a non-finite panel sum stops the first round: it neither passes
        # the stop test as inf <= inf nor spends the subdivision budget
        with np.errstate(all="ignore"), pytest.raises(QuadratureError, match="not finite") as exc:
            integrate_1d(f, 0.0, 1.0)
        assert exc.value.result.evaluations == 15

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
    # a subnormal integrand, whose roundoff floor 50 eps int |f| underflows:
    # the stop test's floor is at least the smallest normal float
    @example(a=0.125, width=0.1, c0=0.0, c1=2.2250738585e-313)
    def test_linearity_on_polynomials(self, a, width, c0, c1):
        b = a + width
        spec = QuadSpec(rel_tol=1e-12, max_subdivisions=100)
        combo = integrate_1d(lambda t: c0 + c1 * t * t, a, b, spec)
        part0 = integrate_1d(lambda t: np.ones_like(t), a, b, spec)
        part1 = integrate_1d(lambda t: t * t, a, b, spec)
        assert combo.value == pytest.approx(
            c0 * part0.value + c1 * part1.value, abs=1e-10, rel=1e-10
        )


_EPS_LAYER = 1e-6


def _scaled_layers(t):
    """Three layers of width 1e-2, three about 1e-8 as large of width 1e-5,
    and six carried components."""
    return np.stack(
        [t**k / (1e-4 + t * t) for k in range(3)]
        + [1e-9 * t**k / (1e-10 + t * t) for k in range(1, 4)]
        + [np.cos(k * t) for k in range(6)]
    )


def _two_peaks(t):
    return 1.0 / (1e-4 + (t - 0.25) ** 2) + 1.0 / (1e-4 + (t - 0.75) ** 2)


_DRIVER_CASES = {
    "polynomial": (lambda t: 1.0 + 3.0 * t - 2.0 * t**5 + t**29, -1.0, 2.0, QuadSpec(rel_tol=1e-12), {}),
    "layer": (
        lambda t: 1.0 / (_EPS_LAYER + t * t) ** 1.5,
        0.0,
        1.0,
        QuadSpec(rel_tol=1e-10, split_points=layer_splits(2.0, _EPS_LAYER, 1.0)),
        {},
    ),
    # 12 components, the first 6 driving refinement
    "vector-ncheck": (
        lambda t: np.stack(
            [t**k / (1e-4 + t * t) for k in range(6)] + [np.cos(k * t) for k in range(6)]
        ),
        0.0,
        1.0,
        QuadSpec(abs_tol=1e-12, rel_tol=1e-9, split_points=(0.01, 0.1)),
        {"ncomp": 12, "ncheck": 6},
    ),
    # 12 components, the first 6 checked, three of them ~1e-8 of the largest:
    # the floor rel_tol * max |initial totals| stops their refinement (225
    # evaluations here, 25725 without initial_scale)
    "vector-initial-scale": (
        _scaled_layers,
        0.0,
        1.0,
        QuadSpec(rel_tol=1e-9, split_points=(0.01, 0.1)),
        {"ncomp": 12, "ncheck": 6, "initial_scale": True},
    ),
    # the same reversed: the a > b recursion passes initial_scale on
    "reversed-initial-scale": (
        _scaled_layers,
        1.0,
        0.0,
        QuadSpec(rel_tol=1e-9, split_points=(0.01, 0.1)),
        {"ncomp": 12, "ncheck": 6, "initial_scale": True},
    ),
    # the roundoff-floor example of test_linearity_on_polynomials
    "roundoff-floor": (
        lambda t: 1.0 - t * t, 0.0, 1.734375, QuadSpec(rel_tol=1e-12, max_subdivisions=100), {}
    ),
    "budget-exhausted": (
        lambda t: t / (1e-12 + t * t), 0.0, 1.0, QuadSpec(rel_tol=1e-14, max_subdivisions=7), {}
    ),
    # the two peaks of test_round_bisects_every_peak: the second round wants
    # both halves of [0, 1] but the budget has room for one
    "budget-cuts-round": (
        _two_peaks, 0.0, 1.0, QuadSpec(rel_tol=1e-10, max_subdivisions=2), {}
    ),
    # more initial panels than the budget: it counts the bisections past them
    "budget-past-splits": (
        _two_peaks,
        0.0,
        1.0,
        QuadSpec(rel_tol=1e-10, max_subdivisions=4, split_points=(0.1, 0.4, 0.5, 0.6, 0.9)),
        {},
    ),
}


class TestIntegrateVector:
    @pytest.mark.parametrize("case", _DRIVER_CASES)
    def test_matches_serial_panels(self, case):
        # one call per refinement round gives, bit for bit, the values,
        # bounds, evaluations and nodes of one call per panel
        f, a, b, spec, kwargs = _DRIVER_CASES[case]

        def run(driver):
            calls = []

            def spy(x):
                calls.append(x.copy())
                return f(x)

            try:
                out = driver(spy, a, b, spec, **kwargs)
            except QuadratureError as exc:
                out = exc.result
            return out, calls

        (got, calls), (ref, ref_calls) = run(integrate_vector), run(serial_integrate_vector)
        assert case.startswith("budget-") == isinstance(got, QuadResult)
        if isinstance(got, QuadResult):
            assert got == ref
            evaluations = got.evaluations
        else:
            assert [v.tobytes() for v in got[:2]] == [v.tobytes() for v in ref[:2]]
            assert got[2] == ref[2]
            evaluations = got[2]
        # the reference's probe pass evaluates the initial panels once more
        ninitial = 1 + sum(min(a, b) < p < max(a, b) for p in spec.split_points)
        ref_calls = ref_calls[ninitial:] if kwargs.get("initial_scale") else ref_calls
        assert np.concatenate(calls).tobytes() == np.concatenate(ref_calls).tobytes()
        # the initial panels in one call, then both halves of every panel a
        # round bisects in one call, 15 nodes per panel
        sizes = [x.size for x in calls]
        assert sizes[0] == 15 * ninitial
        assert all(n > 0 and n % 30 == 0 for n in sizes[1:])
        assert sum(sizes) == evaluations
        if case.startswith("budget-"):
            # the budget's every bisection was spent, past the initial panels
            assert evaluations == 15 * (ninitial + 2 * spec.max_subdivisions)

    def test_round_bisects_every_peak(self):
        # two equal peaks: the round after the first bisects both halves in
        # one call, and the rounds take no more evaluations than bisecting
        # one panel per step
        f = _two_peaks
        spec = QuadSpec(rel_tol=1e-10)
        sizes = []
        values, _, nevals = integrate_vector(lambda x: sizes.append(x.size) or f(x), 0.0, 1.0, spec)
        assert sizes[:3] == [15, 30, 60]
        exact = 2.0 * 100.0 * (math.atan(75.0) + math.atan(25.0))
        assert values[0] == pytest.approx(exact, rel=1e-10)
        serial = serial_integrate_vector(f, 0.0, 1.0, spec, rounds=False)[2]
        assert nevals <= serial
        # one panel per step makes one call for the initial panel, then one per bisection
        assert len(sizes) < 1 + (serial - 15) // 30

    def test_batch_is_one_array(self):
        # the nodes of a call are the panels' 15 Kronrod nodes, panel after panel
        calls = []
        integrate_vector(lambda x: calls.append(x.copy()) or np.ones_like(x), 0.0, 1.0,
                         QuadSpec(split_points=(0.25, 0.5)))
        (x,) = calls
        edges = np.array([0.0, 0.25, 0.5, 1.0])
        assert x.tobytes() == kronrod_panels(edges).x.ravel().tobytes()


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

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 16, 32])
    def test_gauss_legendre(self, n):
        # the Newton oracle against numpy.polynomial's, symmetric bit for bit
        x, w = gauss_legendre(n)
        want_x, want_w = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(x - want_x)) <= 1e-14
        assert np.max(np.abs(w - want_w)) <= 1e-14
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 16, 32])
    def test_gauss_legendre_against_mpmath(self, n):
        # 40-digit Newton on the same recurrence from each double node: the
        # nodes within 2.3e-16 and the weights within 1e-15 relative of the
        # exact rule
        x, w = gauss_legendre(n)
        with mpmath.workdps(40):
            for xi, wi in zip(x, w):
                z = mpmath.mpf(float(xi))
                for _ in range(6):
                    p0, p1 = mpmath.mpf(1), z
                    for j in range(1, n):
                        p0, p1 = p1, ((2 * j + 1) * z * p1 - j * p0) / (j + 1)
                    dp = n * (p0 - z * p1) / (1 - z * z)
                    z -= p1 / dp
                assert abs(xi - z) <= 2.3e-16
                assert abs(wi / (2 / ((1 - z * z) * dp * dp)) - 1) <= 1e-15

    @pytest.mark.parametrize("n, table", [(5, _GAUSS_LEGENDRE_5), (16, _GAUSS_LEGENDRE_16)])
    def test_gauss_legendre_tables(self, n, table):
        # the literal rules are the Newton oracle's, bit for bit
        for got, want in zip(table, gauss_legendre(n)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("ring", [SHORT_RING, TRAPEZOID_RING], ids=["8", "64"])
    @pytest.mark.parametrize("nrow", [1, 3])
    def test_ring_sums_do_not_depend_on_stacking(self, ring, nrow):
        # integrate_vector's integrand must give each node values that do
        # not depend on the other nodes of the call; PanelRule.panel_sums
        # reduces with BLAS @, so pin that every radius's full and embedded
        # sums are the same bits alone as stacked with 30 others.  One row
        # at one radius is a single contiguous vector, which numpy hands to
        # ddot rather than gemv, in other last bits; integrate_vector never
        # passes fewer than 15 radii, so one row is reduced with a neighbour
        rng = np.random.default_rng(nrow)
        ts = rng.uniform(0.01, 1.0, 31)
        a = rng.standard_normal((nrow, 5))

        def f(t, xprime):
            x1, x2 = xprime
            return np.stack([c[0] + x1 * (c[1] + x2 * (c[2] + x1 * c[3])) + c[4] * t * x2**3 for c in a])

        stacked = ring_integrals(f, ring, ts)
        for i in range(ts.size):
            if nrow > 1:
                alone = ring_integrals(f, ring, ts[i : i + 1])
            else:
                alone = ring_integrals(f, ring, ts[[i, i - 1]])[:, :1]
            assert alone[:, 0].tobytes() == stacked[:, i].tobytes(), i

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
