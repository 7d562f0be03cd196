"""Closed-form lubrication sub-flow fields in the gap region.

The velocity field between the particles is built as a sum of sub-flows,
each matching one piece of the rigid-body boundary data and each given in
closed form as a polynomial in the vertical coordinate whose coefficients
are algebraic functions of the gap ``h`` and its planar derivatives:

* 3D, sub-flows ``k = 0..6``: rigid mean (0), horizontal shears (1, 2),
  vertical squeeze (3), vertical spin (4), gap-scale shear correction (5),
  and horizontal-axis rotation (6).
* 2D, sub-flows ``k = 0..4``: rigid mean (0), horizontal shear (1),
  vertical squeeze (2), gap-scale shear correction (3), rotation (4).

The squeeze-type sub-flows -- the squeezes (3D ``k = 3``, 2D ``k = 2``) and
the rotations (3D ``k = 6``, 2D ``k = 4``) -- share one ansatz: on each
planar axis ``a``, ``B_a = c_a x_a^p / h^3`` and ``A_a = -3/4 h^2 B_a``, with
``p = 1`` for a squeeze and ``p = 2`` for a rotation.  One coefficient
engine, :func:`_coefficient_derivs`, gives the coefficients and their exact
planar derivatives from the radial jet of ``h``; each sub-flow only names
its ``(p, c)`` (:func:`_squeeze_type`) and its pressure integral.  The dual
check (:mod:`lubgap.dualcheck`) reads the same engine.

These sub-flows carry a pressure built from running integrals of
``t^j / h^3`` kernels.  The radial ones (3D squeeze, 2D squeeze and
rotation) are differences of closed-form kernel tails, incomplete Beta
functions.  The 3D rotation pressure is closed-form (an
arctan form) on m-convex profiles with ``m = 2``; for other ``m`` and for
flat caps it reads a bivariate table, built once per profile and reused
across evaluations, whose measured error is the only pressure error term.
Velocity gradients are fully analytic -- no finite differences and no
spline derivatives enter the stress evaluation.

Sign conventions: the top particle translates with ``U`` and rotates with
``omega`` about its centroid ``(0', eps/2 + R)``; the bottom particle is
at rest.  Each sub-flow's boundary values on the two gap boundaries are
available from :func:`boundary_target`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .geometry import GapProfile, SurfacePoint, _safe_pow
from .quadrature import QuadSpec, integrate_1d, kronrod_panels
from .special import gap_tail

__all__ = [
    "ProblemParams",
    "FieldEval",
    "subflow_indices",
    "subflow_scale",
    "eval_field",
    "eval_field_many",
    "boundary_target",
    "divergence",
    "pressure_cache_error",
]


def subflow_indices(dimension: int) -> tuple[int, ...]:
    """Sub-flow labels for the given dimension: 0..6 (3D) or 0..4 (2D)."""
    if dimension == 3:
        return tuple(range(7))
    if dimension == 2:
        return tuple(range(5))
    raise ValueError("dimension must be 2 or 3")


def subflow_scale(k: int, params: ProblemParams) -> float:
    """Velocity scale of sub-flow ``k``; zero means the field vanishes."""
    prof = params.profile
    if prof.dimension == 2:
        U1, U2 = params.U
        w0 = params.omega
        if k == 0:
            return max(abs(U1), abs(U2), abs(w0))
        if k == 1:
            return abs(U1 + w0 * prof.R)
        if k == 2:
            return abs(U2)
        return abs(w0)  # k in (3, 4)
    U1, U2, U3 = params.U
    w1, w2, w3 = params.omega
    if k == 0:
        return max(abs(v) for v in (*params.U, *params.omega))
    if k == 1:
        return abs(U1 - w2 * prof.R)
    if k == 2:
        return abs(U2 + w1 * prof.R)
    if k == 3:
        return abs(U3)
    if k == 4:
        return abs(w3)
    return max(abs(w1), abs(w2))  # k in (5, 6)


@dataclass(frozen=True)
class ProblemParams:
    """Motion data and fluid viscosity for a gap problem.

    ``U`` is the translation velocity of the top particle (3 components in
    3D, 2 in 2D); ``omega`` is its angular velocity (3 components in 3D, a
    scalar in 2D).
    """

    profile: GapProfile
    mu: float = 1.0
    U: tuple = (0.0, 0.0, 0.0)
    omega: tuple | float = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if self.mu <= 0.0:
            raise ValueError("viscosity mu must be positive")
        d = self.profile.dimension
        U = tuple(float(v) for v in np.atleast_1d(self.U))
        if len(U) != d:
            raise ValueError(f"U must have {d} components in {d}D")
        object.__setattr__(self, "U", U)
        if d == 3:
            om = tuple(float(v) for v in np.atleast_1d(self.omega))
            if len(om) != 3:
                raise ValueError("omega must have 3 components in 3D")
        else:
            om = np.atleast_1d(self.omega)
            if om.size != 1:
                raise ValueError("omega is a scalar in 2D")
            om = float(om[0])
        object.__setattr__(self, "omega", om)


@dataclass(frozen=True)
class FieldEval:
    """Velocity, pressure, and velocity gradient at one point.

    ``grad_u[i, j]`` is the partial derivative of component ``i`` with
    respect to coordinate ``j``.
    """

    u: np.ndarray
    p: float
    grad_u: np.ndarray


# ---------------------------------------------------------------------------
# pressure integrals: closed-form kernel tails, and the 3D rotation table
# ---------------------------------------------------------------------------


def _kernel_tail(profile: GapProfile, j: int, rho):
    """Tail ``int_rho^inf t^j / h(t)^3 dt`` of the pressure kernel, ``rho >= 0``.

    An incomplete Beta function (:func:`lubgap.special.gap_tail`) for
    m-convex profiles.  Flat caps have ``h = eps + u^2`` at ``u = t - s``
    beyond the rim; ``(u + s)^j`` expands into ``m = 2`` tails at
    ``u = max(rho - s, 0)``, and inside the rim the flat part adds
    ``int_rho^s t^j / eps^3 dt``.
    """
    eps = profile.eps
    if profile.kind == "m-convex":
        return gap_tail(3, j, profile.m, rho, eps)
    s = profile.s
    u = np.maximum(rho - s, 0.0)
    tail = sum(comb(j, n) * s ** (j - n) * gap_tail(3, n, 2.0, u, eps) for n in range(j + 1))
    disc = (s ** (j + 1) - np.minimum(rho, s) ** (j + 1)) / ((j + 1) * eps**3)
    return tail + disc


def _graded_nodes(lo: float, hi: float, centers, delta: float, n_side=56, n_uniform=33):
    """Node set on [lo, hi]: coarse uniform background plus sinh-graded
    clusters (inner spacing ~delta) around each center."""
    pts = set(np.linspace(lo, hi, n_uniform).tolist())
    span = hi - lo
    vmax = float(np.arcsinh(span / delta))
    offs = delta * np.sinh(np.linspace(0.0, vmax, n_side))
    for c0 in centers:
        for sgn in (1.0, -1.0):
            vals = c0 + sgn * offs
            pts.update(vals[(vals > lo) & (vals < hi)].tolist())
        if lo <= c0 <= hi:
            pts.add(float(c0))
    pts.update((lo, hi))
    nodes = np.array(sorted(pts))
    keep = np.concatenate([[True], np.diff(nodes) > 1e-13 * max(span, 1.0)])
    return nodes[keep]


class _RotationTable:
    """Bivariate table of ``Q(a, c) = int_0^a t^2 / h(sqrt(t^2 + c^2))^3 dt``.

    ``Q`` is odd in ``a`` and even in ``c``; the table covers the first
    quadrant, and its spline is fitted over the mirrored axes (``c`` in both
    tabulations, ``a`` in the direct one), so the fit keeps that parity
    instead of an end condition on the axes.  Two tabulations are used:

    * m-convex profiles: direct tabulation in ``(a, c)``.  The integrand
      is smooth there and peaks at the origin, so sinh-graded axes with
      inner spacing at the boundary-layer scale resolve it.
    * flat-capped profiles: the curvature of ``h`` jumps on the rim circle
      ``t^2 + c^2 = s^2``, which no axis-aligned ``(a, c)`` grid can track.
      Rewriting the integral in the radius variable ``rho``,

          Q(a, c) = int_c^P  rho sqrt(rho^2 - c^2) / h(rho)^3 drho,
          P = sqrt(a^2 + c^2),

      moves the rim to the fixed grid coordinate ``P = s``, where the node
      set is graded.

    Used for m-convex ``m != 2`` and for flat caps; at ``m = 2``
    :class:`_RotationClosedForm` replaces it.  The table error is measured
    against direct adaptive quadrature at fixed sample points, including
    the first ``c`` intervals, where the spline error peaks, and points
    next to the flat rim, and surfaced via ``abs_error`` / ``rel_error``.

    The rotation pressure reads the table four times per point, at
    ``(x1, x2)``, ``(r, x2)``, ``(x2, x1)`` and ``(r, x1)``.  By the parity
    of ``Q`` all four depend on ``(|x1|, |x2|)`` alone, up to the sign of
    the first argument, so :meth:`q_pairs` reads the spline once per
    distinct pair and scatters the values back.  The ring points of the
    numeric route repeat each pair four times (see
    :func:`lubgap.traction._mirrored_ring`) and the vertical Gauss rule
    of the dual check repeats each planar point, so most lookups are
    shared.
    """

    def __init__(self, profile: GapProfile):
        self.profile = profile
        r = profile.r
        delta = profile.boundary_layer_scale()
        self._radial = profile.kind == "flat-capped"
        if self._radial:
            centers = [0.0, profile.s]
            p_nodes = _graded_nodes(0.0, np.sqrt(2.0) * r, centers, delta, n_side=72)
            c_nodes = _graded_nodes(0.0, r, centers, delta, n_side=56)
            h3 = lambda rho: profile.h_radial(rho) ** 3
            table = np.empty((p_nodes.size, c_nodes.size))
            for jc, c in enumerate(c_nodes):
                edges = p_nodes
                if 0.0 < c < edges[-1] and c not in edges:
                    edges = np.sort(np.append(edges, c))
                rule = kronrod_panels(edges)
                x = rule.x
                f = x * np.sqrt(np.maximum(x * x - c * c, 0.0)) / h3(x)
                f[x < c] = 0.0
                table[:, jc] = rule.sums(f)[2][np.searchsorted(edges, p_nodes)]
        else:
            p_nodes = _graded_nodes(0.0, r, [0.0], delta, n_side=96)
            c_nodes = _graded_nodes(0.0, r, [0.0], delta, n_side=80)
            rule = kronrod_panels(p_nodes)
            t = rule.x
            c = c_nodes[:, None, None]
            table = rule.sums(t * t / profile.h_radial(np.hypot(t, c)) ** 3)[2].T
        c_all = np.concatenate([-c_nodes[:0:-1], c_nodes])
        table = np.concatenate([table[:, :0:-1], table], axis=1)
        if not self._radial:
            p_nodes = np.concatenate([-p_nodes[:0:-1], p_nodes])
            table = np.concatenate([-table[:0:-1], table])
        from scipy.interpolate import RectBivariateSpline
        self._spline = RectBivariateSpline(p_nodes, c_all, table, kx=3, ky=3, s=0)
        self._measure_error(c_nodes)

    def q(self, a, c):
        """``Q(a, c)`` for array arguments (odd in a, even in c)."""
        a = np.asarray(a, dtype=float)
        c = np.asarray(c, dtype=float)
        a, c = np.broadcast_arrays(a, c)
        first = np.hypot(a, c) if self._radial else np.abs(a)
        return np.sign(a) * self._spline.ev(first.ravel(), np.abs(c).ravel()).reshape(a.shape)

    def q_pairs(self, x1, x2):
        """``Q(x1, x2), Q(r, x2), Q(x2, x1), Q(r, x1)`` for 1D point arrays.

        Bit-identical to four :meth:`q` calls, with one lookup per distinct
        ``(|x1|, |x2|)`` pair.
        """
        pairs, inv = np.unique(np.abs(x1) + 1j * np.abs(x2), return_inverse=True)
        a, c = pairs.real, pairs.imag
        r = np.full_like(a, self.profile.r)
        return (
            np.sign(x1) * self.q(a, c)[inv],
            self.q(r, c)[inv],
            np.sign(x2) * self.q(c, a)[inv],
            self.q(r, a)[inv],
        )

    def _direct(self, a: float, c: float) -> float:
        prof = self.profile
        kernel = lambda t: t**2 / prof.h_radial(np.hypot(t, c)) ** 3
        splits = [prof.boundary_layer_scale()]
        if prof.kind == "flat-capped" and abs(c) < prof.s:
            splits.append(np.sqrt(prof.s**2 - c * c))
        spec = QuadSpec(rel_tol=1e-11, max_subdivisions=800).with_splits(
            [p for p in splits if 0.0 < p < abs(a)]
        )
        res = integrate_1d(kernel, 0.0, abs(a), spec, vectorized=True)
        return float(np.sign(a)) * res.value

    def _measure_error(self, c_nodes) -> None:
        prof = self.profile
        rng = np.random.default_rng(20260823)
        a = prof.r * rng.uniform(0.05, 1.0, 24)
        c = prof.r * rng.uniform(0.0, 1.0, 24)
        # stress the boundary layer, where the integrand peaks, and the first
        # c intervals, where the spline error peaks
        d0 = prof.boundary_layer_scale()
        near0 = c_nodes[:3, None] + np.diff(c_nodes[:4])[:, None] * np.array([0.25, 0.35, 0.5])
        la, lc = np.meshgrid(
            d0 * np.array([0.5, 1.0, 3.0, 10.0]),
            np.concatenate([d0 * np.array([0.0, 0.4, 1.5, 5.0]), near0.ravel()]),
        )
        keep = (la.ravel() < prof.r) & (lc.ravel() < prof.r)
        a = np.concatenate([a, la.ravel()[keep]])
        c = np.concatenate([c, lc.ravel()[keep]])
        if prof.kind == "flat-capped":
            # stress the rim |x'| ~ s where the table is hardest to get right
            extra_c = prof.s + d0 * np.array([-3.0, -1.0, -0.3, 0.0, 0.3, 1.0, 3.0])
            extra_c = extra_c[(extra_c >= 0.0) & (extra_c <= prof.r)]
            a = np.concatenate([a, np.full(extra_c.size, 0.9 * prof.r)])
            c = np.concatenate([c, extra_c])
        abs_err = scale = 0.0
        for ai, ci in zip(a, c):
            exact = self._direct(ai, ci)
            got = float(self.q(ai, ci))
            abs_err = max(abs_err, abs(got - exact))
            scale = max(scale, abs(exact))
        self.abs_error = abs_err
        # relative to the table's dynamic scale, the honest figure for
        # propagating into force error estimates (pointwise ratios blow up
        # where Q itself is negligibly small)
        self.rel_error = abs_err / scale if scale > 0.0 else 0.0


class _RotationClosedForm:
    """``Q(a, c)`` of :class:`_RotationTable` in closed form on m-convex
    profiles with ``m = 2``, where ``h = A + t^2`` with ``A = eps + c^2``.

    Same interface as the table, exact up to roundoff (zero error terms);
    ``q_pairs`` evaluates the four ``Q`` on every point, which costs less
    than sorting out the distinct pairs.
    """

    abs_error = rel_error = 0.0

    def __init__(self, profile: GapProfile):
        self.profile = profile

    def q(self, a, c):
        """``Q(a, c)`` for array arguments (odd in a, even in c)."""
        A = self.profile.eps + np.square(c)
        sA = np.sqrt(A)
        return a * (a * a - A) / (8.0 * A * (A + a * a) ** 2) + np.arctan(a / sA) / (8.0 * A * sA)

    def q_pairs(self, x1, x2):
        """``Q(x1, x2), Q(r, x2), Q(x2, x1), Q(r, x1)`` for 1D point arrays."""
        r = self.profile.r
        return self.q(x1, x2), self.q(r, x2), self.q(x2, x1), self.q(r, x1)


@lru_cache(maxsize=8)
def _rotation_table_3d(profile: GapProfile):
    """The 3D rotation ``Q``: closed-form at m-convex ``m = 2``, else a table."""
    if profile.kind == "m-convex" and profile.m == 2.0:
        return _RotationClosedForm(profile)
    return _RotationTable(profile)


def pressure_cache_error(k: int, profile: GapProfile) -> float:
    """Measured absolute table error of sub-flow ``k``'s pressure.

    Only the 3D rotation pressure (``k = 6``) at ``m != 2`` or on flat caps
    reads a table; every other pressure is closed-form or vanishes, and
    reports zero.  The returned value is the raw error of the tabulated
    running integrals (``G``-type quantity); the pressure picks up a factor
    ``6 mu`` times the motion amplitude, which callers apply when
    propagating it into force error estimates.  Querying builds the table
    if absent.
    """
    if profile.dimension == 3 and k == 6:
        return 2.0 * _rotation_table_3d(profile).abs_error
    return 0.0


# ---------------------------------------------------------------------------
# squeeze-type sub-flows: one ansatz, exact planar derivatives
# ---------------------------------------------------------------------------


def _squeeze_type(k: int, params: ProblemParams):
    """``(p, c)`` of squeeze-type sub-flow ``k``: 3D ``k = 3, 6``, 2D ``k = 2, 4``.

    Each planar axis ``a`` has ``B_a = c_a x_a^p / h^3`` and
    ``A_a = -3/4 h^2 B_a``.
    """
    if params.profile.dimension == 3:
        U3, (w1, w2, _w3) = params.U[2], params.omega
        return {3: (1, (-U3, -U3)), 6: (2, (w2, -w1))}[k]
    return {2: (1, (-2.0 * params.U[1],)), 4: (2, (-params.omega,))}[k]


def _radial_jet(profile, rho, order):
    """``(H1, .., H_order)`` of the gap: ``H1 = h'/rho`` and ``H(j+1) = H(j)'/rho``.

    A radial ``g`` with jet ``(a1, a2, a3)`` has ``d_i g = a1 x_i``,
    ``d_ij g = a1 delta_ij + a2 x_i x_j`` and ``d_ijk g = a2 (delta_ij x_k +
    delta_ik x_j + delta_jk x_i) + a3 x_i x_j x_k``.  On the axis each ``H``
    takes the value that gives these products their limits; flat caps take
    the flat side at ``rho = s``.
    """
    if profile.kind == "m-convex":
        m = profile.m
        coefs = (m, m * (m - 2.0), m * (m - 2.0) * (m - 4.0))[:order]
        return tuple(c * _safe_pow(rho, m - 2.0 * j) for j, c in enumerate(coefs, 1))
    s, outside = profile.s, rho > profile.s
    rho = np.where(outside, rho, 1.0)
    jet = (2.0 - 2.0 * s / rho, 2.0 * s / rho**3, -6.0 * s / rho**5)[:order]
    return tuple(np.where(outside, H, 0.0) for H in jet)


def _monomial_derivs(p, jet, x, y):
    """``[f, f_x, f_y, f_xx, f_xy, f_yy]`` of ``f = x^p u``, ``p`` in {1, 2}.

    ``u`` is radial with the jet ``jet = (u, a1, a2)`` (see
    :func:`_radial_jet`); a fourth entry ``a3`` appends ``d_x (f_xx + f_yy)``.
    """
    u, a1, a2 = jet[:3]
    P, P1, P11 = (x, 1.0, 0.0) if p == 1 else (x * x, 2.0 * x, 2.0)
    out = [
        P * u,
        P1 * u + P * a1 * x,
        P * a1 * y,
        P * (a1 + a2 * x * x) + 2.0 * P1 * a1 * x + P11 * u,
        (P * a2 * x + P1 * a1) * y,
        P * (a1 + a2 * y * y),
    ]
    if len(jet) == 4:
        a3 = jet[3]
        out.append(
            P * x * (4.0 * a2 + a3 * (x * x + y * y))
            + P1 * (4.0 * a1 + a2 * (3.0 * x * x + y * y))
            + 3.0 * P11 * a1 * x
        )
    return out


def _coefficient_derivs(profile, p, c, x1, x2, third=False):
    """Squeeze-type coefficients and their exact planar derivatives.

    ``A_a = -3/4 c_a x_a^p / h`` and ``B_a = c_a x_a^p / h^3`` for each
    entry of ``c`` (axes ``x1``, ``x2``; a one-entry ``c`` is the 2D form on
    ``x1``, with ``x2 = 0``).  Returns ``[A1, A2, B1, B2]`` (``[A1, B1]`` in
    2D), each ``[f, d1 f, d2 f, d11 f, d12 f, d22 f]``; ``third`` appends
    ``d_a lap f`` on the coefficient's own axis ``a``.  The chain rule
    carries the jet of ``h`` over to ``h^-n`` and the Leibniz rule to the
    product, without dividing by ``rho``.
    """
    rho = np.hypot(x1, x2)
    h = profile.h_radial(rho)
    e = [H / h for H in _radial_jet(profile, rho, 3 if third else 2)]
    out = []
    for scale, n in ((-0.75, 1), (1.0, 3)):
        u = 1.0 / h**n
        jet = [u, -n * u * e[0], n * u * ((n + 1) * e[0] * e[0] - e[1])]
        if third:
            jet.append(-n * u * ((n + 1) * e[0] * ((n + 2) * e[0] * e[0] - 3.0 * e[1]) + e[2]))
        jets = [[scale * ca * a for a in jet] for ca in c]
        out.append(_monomial_derivs(p, jets[0], x1, x2))
        if len(c) == 2:
            # differentiated along x2 first; reorder to x1, x2
            f, f2, f1, f22, f12, f11, *lap = _monomial_derivs(p, jets[1], x2, x1)
            out.append([f, f1, f2, f11, f12, f22, *lap])
    return out


def _eval_squeeze_type(k, params, x1, x2, z):
    """``(u, pressure, grad)`` of a squeeze-type sub-flow at height ``z``.

    ``u_a = -(A_a + 3 B_a z^2)`` on the planar axes and ``A3 z + B3 z^3``
    vertically, with ``A3 = sum_a d_a A_a`` and ``B3 = sum_a d_a B_a``, so the
    field is divergence-free.  The pressure is ``mu (3 B3 z^2 - A3 - 6 G)``,
    where ``G`` integrates ``B_a`` along ``x_a``; ``G`` is all that differs
    between the sub-flows.  In 2D ``x2`` is 0 and ``z`` is the second
    coordinate.
    """
    prof = params.profile
    p, c = _squeeze_type(k, params)
    d = len(c)
    coefs = _coefficient_derivs(prof, p, c, x1, x2)
    A, B = coefs[:d], coefs[d:]
    zsq = z * z
    u = np.empty((d + 1, z.size))
    grad = np.empty((d + 1, d + 1, z.size))
    for a in range(d):
        u[a] = -(A[a][0] + 3.0 * B[a][0] * zsq)
        grad[a, d] = -6.0 * B[a][0] * z
        for j in range(d):
            grad[a, j] = -(A[a][1 + j] + 3.0 * B[a][1 + j] * zsq)
    A3, B3 = (sum(C[a][1 + a] for a in range(d)) for C in (A, B))
    u[d] = A3 * z + B3 * z * zsq
    grad[d, d] = A3 + 3.0 * B3 * zsq
    for j in range(d):
        # d_j A3 = sum_a d_ja A_a
        A3j, B3j = (sum(C[a][3 + a + j] for a in range(d)) for C in (A, B))
        grad[d, j] = A3j * z + B3j * z * zsq
    if p == 1:
        # radial: c int_r^|x'| t / h^3 dt, a difference of kernel tails
        G = -c[0] * (_kernel_tail(prof, 1, np.hypot(x1, x2)) - _kernel_tail(prof, 1, prof.r))
    elif d == 2:
        q12, qr2, q21, qr1 = _rotation_table_3d(prof).q_pairs(x1, x2)
        G = c[0] * (q12 - qr2) + c[1] * (q21 + qr1)
    else:
        # int_0^x t^2 / h^3 dt = T(0) - T(x) for the kernel tail T
        T0, Tx, Tr = (_kernel_tail(prof, 2, t) for t in (0.0, np.abs(x1), prof.r))
        G = c[0] * (np.sign(x1) * (T0 - Tx) + (T0 - Tr))
    return u, params.mu * (3.0 * B3 * zsq - A3 - 6.0 * G), grad


# ---------------------------------------------------------------------------
# 3D sub-flow evaluation (vectorized over points)
# ---------------------------------------------------------------------------


def _eval3(k: int, params: ProblemParams, x1, x2, x3):
    if k in (3, 6):
        return _eval_squeeze_type(k, params, x1, x2, x3)
    prof = params.profile
    U1, U2, U3 = params.U
    w1, w2, w3 = params.omega
    eps = prof.eps

    n = x1.size
    h = np.asarray(prof.h(x1, x2), dtype=float)
    g1, g2 = prof.h_grad(x1, x2)
    h11, h12, h22 = prof.h_hess(x1, x2)
    g1 = np.broadcast_to(np.asarray(g1, float), (n,))
    g2 = np.broadcast_to(np.asarray(g2, float), (n,))
    h11 = np.broadcast_to(np.asarray(h11, float), (n,))
    h12 = np.broadcast_to(np.asarray(h12, float), (n,))
    h22 = np.broadcast_to(np.asarray(h22, float), (n,))

    u = np.zeros((3, n))
    p = np.zeros(n)
    grad = np.zeros((3, 3, n))
    x3sq = x3 * x3

    if k == 0:
        w = 0.5 * (h - eps) - prof.R
        u[0] = 0.5 * (U1 + w2 * w - w3 * x2)
        u[1] = 0.5 * (U2 + w3 * x1 - w1 * w)
        u[2] = 0.5 * (U3 + w1 * x2 - w2 * x1)
        grad[0, 0] = 0.25 * w2 * g1
        grad[0, 1] = 0.25 * w2 * g2 - 0.5 * w3
        grad[1, 0] = 0.5 * w3 - 0.25 * w1 * g1
        grad[1, 1] = -0.25 * w1 * g2
        grad[2, 0] = -0.5 * w2
        grad[2, 1] = 0.5 * w1
        return u, p, grad

    if k in (1, 2):
        if k == 1:
            c, row, ga = U1 - w2 * prof.R, 0, g1
            ga1, ga2 = h11, h12
        else:
            c, row, ga = U2 + w1 * prof.R, 1, g2
            ga1, ga2 = h12, h22
        H = 1.0 / h
        A = ga / 8.0
        B = -ga / h**2
        u[row] = c * H * x3
        u[2] = c * (-A - 0.5 * B * x3sq)
        grad[row, 0] = -c * x3 * g1 / h**2
        grad[row, 1] = -c * x3 * g2 / h**2
        grad[row, 2] = c * H
        for j, (gaj, gj) in enumerate(((ga1, g1), (ga2, g2))):
            dA = gaj / 8.0
            dB = -gaj / h**2 + 2.0 * ga * gj / h**3
            grad[2, j] = c * (-dA - 0.5 * x3sq * dB)
        grad[2, 2] = -c * B * x3
        return u, p, grad

    if k == 4:
        h2, h3 = h**2, h**3
        H1, H2 = -x2 / h, x1 / h
        dH1 = (x2 * g1 / h2, -1.0 / h + x2 * g2 / h2)
        dH2 = (1.0 / h - x1 * g1 / h2, -x1 * g2 / h2)
        A1, A2 = -x2 * g1 / 8.0, x1 * g2 / 8.0
        dA1 = (-x2 * h11 / 8.0, -(g1 + x2 * h12) / 8.0)
        dA2 = ((g2 + x1 * h12) / 8.0, x1 * h22 / 8.0)
        B1, B2 = x2 * g1 / h2, -x1 * g2 / h2
        dB1 = (
            x2 * h11 / h2 - 2.0 * x2 * g1 * g1 / h3,
            (g1 + x2 * h12) / h2 - 2.0 * x2 * g1 * g2 / h3,
        )
        dB2 = (
            -(g2 + x1 * h12) / h2 + 2.0 * x1 * g2 * g1 / h3,
            -x1 * h22 / h2 + 2.0 * x1 * g2 * g2 / h3,
        )
        u[0] = w3 * H1 * x3
        u[1] = w3 * H2 * x3
        u[2] = w3 * (-A1 - A2 - 0.5 * (B1 + B2) * x3sq)
        for j in range(2):
            grad[0, j] = w3 * dH1[j] * x3
            grad[1, j] = w3 * dH2[j] * x3
            grad[2, j] = w3 * (-dA1[j] - dA2[j] - 0.5 * (dB1[j] + dB2[j]) * x3sq)
        grad[0, 2] = w3 * H1
        grad[1, 2] = w3 * H2
        grad[2, 2] = -w3 * (B1 + B2) * x3
        return u, p, grad

    if k == 5:
        h2, h3 = h**2, h**3
        H1 = 0.5 - eps / (2.0 * h)
        H2 = -0.5 + eps / (2.0 * h)
        A1, A2 = -eps * g1 / 16.0, eps * g2 / 16.0
        B1, B2 = eps * g1 / (2.0 * h2), -eps * g2 / (2.0 * h2)
        u[0] = w2 * H1 * x3
        u[1] = w1 * H2 * x3
        u[2] = w2 * (-A1 - 0.5 * B1 * x3sq) + w1 * (-A2 - 0.5 * B2 * x3sq)
        for j, (gj, g1j, g2j) in enumerate(((g1, h11, h12), (g2, h12, h22))):
            dH1 = eps * gj / (2.0 * h2)
            dA1 = -eps * g1j / 16.0
            dB1 = 0.5 * eps * (g1j / h2 - 2.0 * g1 * gj / h3)
            dA2 = eps * g2j / 16.0
            dB2 = -0.5 * eps * (g2j / h2 - 2.0 * g2 * gj / h3)
            grad[0, j] = w2 * dH1 * x3
            grad[1, j] = -w1 * dH1 * x3
            grad[2, j] = w2 * (-dA1 - 0.5 * dB1 * x3sq) + w1 * (-dA2 - 0.5 * dB2 * x3sq)
        grad[0, 2] = w2 * H1
        grad[1, 2] = w1 * H2
        grad[2, 2] = -(w2 * B1 + w1 * B2) * x3
        return u, p, grad

    raise ValueError(f"unknown 3D sub-flow index {k}")


# ---------------------------------------------------------------------------
# 2D sub-flow evaluation (vectorized over points)
# ---------------------------------------------------------------------------


def _eval2(k: int, params: ProblemParams, x1, x2):
    if k in (2, 4):
        return _eval_squeeze_type(k, params, x1, 0.0, x2)
    prof = params.profile
    U1, U2 = params.U
    w0 = params.omega
    eps = prof.eps

    n = x1.size
    h = np.asarray(prof.h(x1), dtype=float)
    g = np.broadcast_to(np.asarray(prof.dh(x1), float), (n,))
    gp = np.broadcast_to(np.asarray(prof.d2h(x1), float), (n,))

    u = np.zeros((2, n))
    p = np.zeros(n)
    grad = np.zeros((2, 2, n))
    x2sq = x2 * x2

    if k == 0:
        u[0] = 0.5 * (U1 + w0 * (prof.R - 0.5 * (h - eps)))
        u[1] = 0.5 * (U2 + w0 * x1)
        grad[0, 0] = -0.25 * w0 * g
        grad[1, 0] = 0.5 * w0
        return u, p, grad

    h2, h3 = h**2, h**3

    if k == 1:
        c = U1 + w0 * prof.R
        H = 1.0 / h
        A = g / 8.0
        B = -g / h2
        u[0] = c * H * x2
        u[1] = c * (-A - 0.5 * B * x2sq)
        grad[0, 0] = -c * x2 * g / h2
        grad[0, 1] = c * H
        dA = gp / 8.0
        dB = -gp / h2 + 2.0 * g * g / h3
        grad[1, 0] = c * (-dA - 0.5 * x2sq * dB)
        grad[1, 1] = -c * B * x2
        return u, p, grad

    if k == 3:
        H = -0.5 + eps / (2.0 * h)
        A = eps * g / 16.0
        B = -eps * g / (2.0 * h2)
        dH = -eps * g / (2.0 * h2)
        dA = eps * gp / 16.0
        dB = -0.5 * eps * (gp / h2 - 2.0 * g * g / h3)
        u[0] = w0 * H * x2
        u[1] = w0 * (-A - 0.5 * B * x2sq)
        grad[0, 0] = w0 * dH * x2
        grad[0, 1] = w0 * H
        grad[1, 0] = w0 * (-dA - 0.5 * x2sq * dB)
        grad[1, 1] = -w0 * B * x2
        return u, p, grad

    raise ValueError(f"unknown 2D sub-flow index {k}")


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------


def eval_field_many(k: int, params: ProblemParams, *coords):
    """Vectorized sub-flow evaluation.

    ``coords`` are the point coordinates as equal-length arrays
    (``x1, x2, x3`` in 3D; ``x1, x2`` in 2D).  Returns ``(u, p, grad)``
    with shapes ``(d, n)``, ``(n,)``, ``(d, d, n)``.
    """
    d = params.profile.dimension
    if len(coords) != d:
        raise ValueError(f"expected {d} coordinate arrays")
    arrs = [np.asarray(c, dtype=float).ravel() for c in coords]
    if d == 3:
        return _eval3(k, params, *arrs)
    return _eval2(k, params, *arrs)


def eval_field(k: int, params: ProblemParams, x) -> FieldEval:
    """Evaluate sub-flow ``k`` at point ``x``.

    ``x`` is ``(x1, x2, x3)`` in 3D or ``(x1, x2)`` in 2D.  Sub-flows
    whose pressure vanishes identically return ``p = 0.0`` exactly.
    """
    if k not in subflow_indices(params.profile.dimension):
        raise ValueError(
            f"sub-flow index {k} invalid for dimension {params.profile.dimension}"
        )
    coords = [np.array([float(v)]) for v in x]
    u, p, grad = eval_field_many(k, params, *coords)
    return FieldEval(u=u[:, 0].copy(), p=float(p[0]), grad_u=grad[:, :, 0].copy())


def boundary_target(k: int, params: ProblemParams, sp: SurfacePoint) -> np.ndarray:
    """Boundary value sub-flow ``k`` is built to match at surface point ``sp``.

    The targets are the even/odd split of the rigid-body data: the sum over
    all sub-flows equals ``U + omega x nu`` on the top boundary and ``0`` on
    the bottom one.
    """
    prof = params.profile
    d = prof.dimension
    if k not in subflow_indices(d):
        raise ValueError(f"sub-flow index {k} invalid for dimension {d}")
    sgn = 1.0 if sp.x3 > 0.0 else -1.0
    h = prof.h_radial(np.hypot(*sp.xprime) if d == 3 else abs(sp.xprime))

    if d == 3:
        x1, x2 = sp.xprime
        U1, U2, U3 = params.U
        w1, w2, w3 = params.omega
        if k == 0:
            w = 0.5 * (h - prof.eps) - prof.R
            return np.array(
                [
                    0.5 * (U1 + w2 * w - w3 * x2),
                    0.5 * (U2 + w3 * x1 - w1 * w),
                    0.5 * (U3 + w1 * x2 - w2 * x1),
                ]
            )
        if k == 1:
            return np.array([sgn * 0.5 * (U1 - w2 * prof.R), 0.0, 0.0])
        if k == 2:
            return np.array([0.0, sgn * 0.5 * (U2 + w1 * prof.R), 0.0])
        if k == 3:
            return np.array([0.0, 0.0, sgn * 0.5 * U3])
        if k == 4:
            return np.array([-sgn * 0.5 * w3 * x2, sgn * 0.5 * w3 * x1, 0.0])
        if k == 5:
            gap4 = 0.25 * (h - prof.eps)
            return np.array([sgn * gap4 * w2, -sgn * gap4 * w1, 0.0])
        # k == 6
        return np.array([0.0, 0.0, sgn * 0.5 * (w1 * x2 - w2 * x1)])

    x1 = sp.xprime
    U1, U2 = params.U
    w0 = params.omega
    if k == 0:
        return np.array(
            [0.5 * (U1 + w0 * (prof.R - 0.5 * (h - prof.eps))), 0.5 * (U2 + w0 * x1)]
        )
    if k == 1:
        return np.array([sgn * 0.5 * (U1 + w0 * prof.R), 0.0])
    if k == 2:
        return np.array([0.0, sgn * 0.5 * U2])
    if k == 3:
        return np.array([-sgn * 0.25 * w0 * (h - prof.eps), 0.0])
    # k == 4
    return np.array([0.0, sgn * 0.5 * w0 * x1])


def divergence(k: int, params: ProblemParams, x) -> float:
    """Analytic divergence of sub-flow ``k`` at point ``x``.

    Identically zero for every sub-flow except the rigid mean ``k = 0``,
    whose divergence is ``(omega2 d1 h - omega1 d2 h)/4`` in 3D and
    ``-omega0 h'/4`` in 2D (the mean flow follows the gap shape and is
    solenoidal only for vertical-axis rotations).
    """
    ev = eval_field(k, params, x)
    return float(np.trace(ev.grad_u))
