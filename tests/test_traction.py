"""Surface traction assembly and numeric force/torque integration."""

import math

import numpy as np
import pytest

from lubgap.fields import (
    ProblemParams,
    _rotation_cache_2d,
    _rotation_table_3d,
    subflow_indices,
)
from lubgap.geometry import GapProfile, surface_sample
from lubgap.quadrature import _WEIGHTS_K
from lubgap.traction import (
    _mirrored_ring,
    force_numeric,
    leading_coefficient,
    total_numeric,
    traction,
)


def mconvex(m=2.0, eps=1e-3, dimension=3, r=0.5, R=2.0):
    return GapProfile(
        kind="m-convex", m=m, s=0.0, eps=eps, r=r, R=R, dimension=dimension
    )


class TestTraction:
    def test_pure_shear_at_apex(self, params3d):
        # at the apex n = (0,0,-1), the A-terms vanish by parity and the
        # shear sub-flow traction reduces to (-mu (U1 - w2 R)/eps, 0, 0)
        prof = params3d.profile
        sp = surface_sample(prof, "top", (0.0, 0.0))
        tr = traction(1, params3d, sp)
        c = params3d.U[0] - params3d.omega[1] * prof.R
        expected = -params3d.mu * c / prof.eps
        assert tr[0] == pytest.approx(expected, rel=1e-12)
        assert abs(tr[1]) <= 1e-12 * abs(expected)
        assert abs(tr[2]) <= 1e-12 * abs(expected)

    def test_linear_in_motion(self, prof3d):
        base = ProblemParams(
            profile=prof3d, mu=1.0, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1)
        )
        double = ProblemParams(
            profile=prof3d, mu=1.0, U=(0.6, -0.4, -1.0), omega=(0.3, 0.4, 0.2)
        )
        sp = surface_sample(prof3d, "top", (0.21, -0.13))
        for k in subflow_indices(3):
            t1 = traction(k, base, sp)
            t2 = traction(k, double, sp)
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
            sp = surface_sample(prof, "top", (0.0, 0.0))
            vals.append(float(np.max(np.abs(traction(0, params, sp)))))
        assert max(vals) <= 10.0 * min(vals)

    def test_2d(self, params2d):
        sp = surface_sample(params2d.profile, "top", 0.2)
        tr = traction(1, params2d, sp)
        assert tr.shape == (2,)
        assert np.all(np.isfinite(tr))


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
        cos, sin, half = _mirrored_ring(prof)
        w = (half[:, None] * _WEIGHTS_K[None, :]).ravel()
        assert cos.shape == sin.shape == w.shape
        assert np.sum(w) == pytest.approx(2.0 * np.pi, rel=1e-14)

        def canonical(c, s_):
            order = np.lexsort((w, s_, c))
            return np.stack([c[order], s_[order], w[order]]).view(np.uint64)

        ref = canonical(cos, sin)
        for octant_map in _OCTANT_MAPS:
            assert np.array_equal(canonical(*octant_map(cos, sin)), ref)
        # so a ring of radius t repeats each (|x1|, |x2|) pair four times
        t = 0.3 * prof.r
        pairs = np.unique(np.abs(t * cos) + 1j * np.abs(t * sin))
        assert pairs.size == cos.size // 4

    # force_numeric(6) on the general3d problem (m = 2, r = 0.5, R = 2,
    # U = (0.3, -0.2, -0.5), omega = (0.15, 0.2, 0.1)) from the full-circle
    # ring that preceded the mirrored one: mirroring must not move them
    _K6_REFERENCE = {
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


class TestTotalNumeric:
    def test_zero_scale_subflows_skipped(self):
        # a pure squeeze never integrates (or tabulates) the rotation
        # sub-flow, in 3D (k = 6) and in 2D (k = 4)
        squeeze3 = ProblemParams(profile=mconvex(eps=2e-3), U=(0.0, 0.0, -1.0))
        squeeze2 = ProblemParams(
            profile=mconvex(eps=2e-3, dimension=2), U=(0.0, -1.0), omega=0.0
        )
        cases = [(squeeze3, 6, 3, _rotation_table_3d), (squeeze2, 4, 2, _rotation_cache_2d)]
        for params, k, k_squeeze, table in cases:
            table.cache_clear()
            res = total_numeric(params)
            zero = res.per_subflow[k]
            for v in (zero.F, zero.T, zero.F_err, zero.T_err):
                v = np.atleast_1d(v)
                assert np.all(v == 0.0) and not np.any(np.signbit(v))
            assert zero.evaluations == 0
            assert table.cache_info().currsize == 0
            assert res.per_subflow[k_squeeze].evaluations > 0

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
