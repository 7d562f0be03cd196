"""Numeric force and torque: the traction moments integrated over the gap.

The hydrodynamic force and torque on the top particle are surface
integrals of the Newtonian traction over the top gap boundary,

    F = int sigma n dS,      T = int nu x (sigma n) dS,
    sigma = mu (grad u + grad u^T) - p I,

with ``n`` the outward normal of the particle and ``nu`` the lever arm
about its centroid.  In 2D the torque is the scalar
``nu1 (sigma n)_2 - nu2 (sigma n)_1``.

One integrand serves both dimensions: :func:`traction_moments` evaluates
``w = sigma N`` and ``nu x w`` on the boundary ``x3 = h/2``, with the
area-weighted normal ``N = (grad h / 2, -1)`` (the identity
``n dS = N dx'`` removes the normalization roundoff).  A solve
(:func:`total_numeric`, and :func:`force_numeric` as its one-sub-flow case)
integrates each part by the rule it needs:

* the rigid mean (``k = 0``) in closed form (:func:`_rigid_mean`);
* the field moments of every other active sub-flow in one adaptive radial
  pass (:func:`lubgap.quadrature.integrate_vector`) over ring integrals
  (:func:`lubgap.quadrature.ring_integrals`), each sub-flow resolved
  relative to its own largest initial total.  A ring is its directions
  plus an angular rule whose embedded rule bounds the angular error: in 2D
  the one node ``x1 = t`` over ``[-r, r]``; in 3D the 8-point trapezoid,
  exact with its embedded rule for the translation/spin moments, which are
  trigonometric polynomials of degree at most 2 in the angle (``x'``,
  ``J x'`` and radial functions build the fields; the normal and the lever
  arm add one degree each), and for the rotation the 10-point trapezoid,
  exact for its moments without the running-integral term ``G`` of its
  pressure, of degree at most 4.  The sub-flows on one ring share its
  points, their planar gap record (:meth:`GapProfile.at`), the normal and
  the lever arm;
* in 3D, the moments of the rotation's ``G`` in a second radial pass
  (:func:`_rotation_pressure`).  ``G`` varies over an angular width
  ``delta/t`` near the cardinal angles, but integrated by parts along each
  line ``x2 = const`` its moments become closed-form radial rows.

Both passes start on the panels between
:meth:`~lubgap.geometry.GapProfile.radial_splits`, which halve toward the
boundary layer (:func:`lubgap.quadrature.layer_splits`, at ``m < 2`` on
into the axis, where the curvature is unbounded); the budget counts
bisections past them.  Each refinement round evaluates all its radial
nodes in one call.  Sub-flows whose velocity scale is zero are skipped by
:func:`total_numeric`.  Every pressure is closed-form, so the error bounds
are the quadrature and angular estimates alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# eval_field_many and pressure_cache_error stay importable here: perfbench wraps them by name
from .fields import (  # noqa: F401
    ProblemParams,
    _eval,
    _squeeze_type,
    eval_field_many,
    pressure_cache_error,
    subflow_indices,
    subflow_scale,
)
from .quadrature import (
    _NODES,
    DEFAULT_MAX_SUBDIVISIONS,
    DEFAULT_REL_TOL,
    LINE_RING,
    SHORT_RING,
    QuadSpec,
    _panel_sums,
    integrate_vector,
    ring_integrals,
    trapezoid_ring,
)

__all__ = [
    "traction_moments",
    "ForceResult",
    "TotalResult",
    "force_numeric",
    "total_numeric",
]


@dataclass(frozen=True)
class ForceResult:
    """Numeric force/torque of one sub-flow with certified error bounds.

    ``T``/``T_err`` are 3-vectors in 3D and floats in 2D;
    :meth:`components` gives the values and bounds as flat vectors in the
    order of :func:`lubgap.report.component_names`.  The error bounds
    combine the adaptive-quadrature estimate and the angular-resolution
    check.  ``evaluations`` counts the distinct gap points at which the
    traction was evaluated: 0 for the closed-form rigid mean; for the 3D
    rotation, its ring points plus the nodes of its ``G`` pass and of the
    corner rule.
    """

    F: np.ndarray
    T: np.ndarray | float
    F_err: np.ndarray
    T_err: np.ndarray | float
    evaluations: int

    def components(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, bounds)``: the forces, then the torque, as flat vectors."""
        return np.append(self.F, self.T), np.append(self.F_err, self.T_err)


@dataclass(frozen=True)
class TotalResult(ForceResult):
    """Sum over sub-flows, with each sub-flow's :class:`ForceResult` in
    ``per_subflow``; every total component is the left-to-right sum of the
    sub-flows' components."""

    per_subflow: dict


def _result(values, bounds, evaluations, per_subflow=None):
    """The result of a moment vector (the forces, then the torque), a
    :class:`TotalResult` given ``per_subflow``: the one place the torque
    becomes a 3-vector in 3D and a float in 2D."""
    d = len(values) // 3 + 1
    T, T_err = values[d:], bounds[d:]
    if d == 2:
        T, T_err = float(T[0]), float(T_err[0])
    out = dict(F=values[:d], T=T, F_err=bounds[:d], T_err=T_err, evaluations=evaluations)
    return ForceResult(**out) if per_subflow is None else TotalResult(**out, per_subflow=per_subflow)


def traction_moments(k: int, params: ProblemParams, xprime, h) -> np.ndarray:
    """Traction moments of sub-flow ``k`` at points of the top gap boundary.

    ``xprime`` holds the planar coordinates of the points, ``(x1, x2)`` in
    3D and ``(x1,)`` in 2D, and ``h`` the gap there.  The field is taken on
    the boundary ``x3 = h/2`` and its stress contracted with the
    area-weighted normal ``N = (grad h / 2, -1)``, so ``N dx' = n dS``.
    Returns ``w = sigma N`` followed by the moment ``nu x w`` about the top
    centroid, ``nu = (x', (h - eps)/2 - R)``: shape ``(6, n)`` in 3D and
    ``(3, n)`` in 2D, where the moment is the scalar ``nu1 w2 - nu2 w1``.
    """
    gap = params.profile.at(xprime, 2)
    return _stress_moments(params.mu, *_boundary(params, gap, h), _eval(k, params, gap, 0.5 * h))


def _boundary(params, gap, h):
    """The normal ``N`` and lever arm ``nu`` over the points of ``gap`` at the boundary gap ``h``."""
    njac = np.stack([0.5 * gap.jet[0] * x for x in gap.xprime] + [-np.ones_like(h)])
    return njac, np.stack([*gap.xprime, 0.5 * (h - params.profile.eps) - params.profile.R])


def _stress_moments(mu, njac, nu, field):
    """:func:`traction_moments` of the field ``(u, p, grad)`` taken at ``x3 = h/2``."""
    _u, p, grad = field
    two_d = grad + grad.transpose(1, 0, 2)
    w = mu * np.einsum("ijn,jn->in", two_d, njac) - p[None, :] * njac
    if len(nu) == 2:
        return np.concatenate([w, (nu[0] * w[1] - nu[1] * w[0])[None, :]])
    torque = [nu[1] * w[2] - nu[2] * w[1], nu[2] * w[0] - nu[0] * w[2], nu[0] * w[1] - nu[1] * w[0]]
    return np.concatenate([w, torque])


def _ring_moments(params, ks, t, xprime):
    """The moments of sub-flows ``ks`` at ring points of radii ``t``, one block
    each, the 3D rotation without ``G``: the planar gap, normal and lever arm
    are built once.  The boundary height ``h(t)`` comes from the ring radius."""
    h = params.profile.h_radial(t)
    gap = params.profile.at(xprime, 2)
    njac, nu = _boundary(params, gap, h)
    return [_stress_moments(params.mu, njac, nu, _eval(k, params, gap, 0.5 * h, running=k != 6)) for k in ks]


# the rotation's moments without G, of degree <= 4 in the ring angle, are
# integrated exactly by the 10-point trapezoid and its embedded 5-point rule
_ROTATION_RING = trapezoid_ring(10)


def _rigid_mean(params):
    """The rigid mean ``k = 0`` in closed form, with a roundoff bound:
    ``(values, bounds, 0)``.

    Its stress reads only ``h'`` and ``l = (h - eps)/2 - R``, so its moments
    do not depend on ``eps``.  3D: ``F = mu pi I (w2, -w1, 0)`` and ``T = mu
    pi J (w1, w2, 0)`` with ``I = int_0^r (3/8 h'^2 + 1) rho`` and ``J =
    int_0^r [h' rho^2/4 + l (3/8 h'^2 + 1) rho]``; 2D: ``F = (-2 mu w0 I, 0)``
    and ``T = 2 mu w0 J`` with ``I = int_0^r (h'^2/4 + 1/2)`` and ``J =
    int_0^r [x h'/4 + l (h'^2/4 + 1/2)]``.  On m-convex profiles these are
    powers of ``r``, on flat caps polynomials in ``u = r - s``.  ``J = a - R
    I``, and every term of ``I`` and ``a`` is positive, so the bound is
    ``1e-15`` (the roundoff floor of ``integrate_vector``) times the sum of the
    terms' magnitudes.  Zero rotation gives exact, unsigned zeros.
    """
    prof = params.profile
    m, r, s, u = prof.m, prof.r, prof.s, prof.r - prof.s
    flat = prof.kind == "flat-capped"
    if prof.dimension == 3:
        if flat:
            I = 0.5 * r**2 + 0.375 * u**4 + 0.5 * s * u**3
            a = u**6 / 8 + 0.15 * s * u**5 + 0.25 * u**4 + 0.5 * s * u**3 + 0.25 * s**2 * u**2
        else:
            I = 3.0 * m * r ** (2 * m) / 16 + 0.5 * r**2
            a = 0.25 * r ** (m + 2) + m * r ** (3 * m) / 16
        w1, w2, _w3 = params.omega
        v = np.pi * params.mu * np.array([w2, 0.0 - w1, 0.0, w1, w2, 0.0])
    else:
        if flat:
            I, a = 0.5 * r + u**3 / 3, 0.1 * u**5 + 0.25 * u**3 + 0.25 * s * u**2
        else:
            I = m * m * r ** (2 * m - 1) / (4 * (2 * m - 1)) + 0.5 * r
            a = 0.25 * r ** (m + 1) + m * m * r ** (3 * m - 1) / (8 * (3 * m - 1))
        c = 2.0 * params.mu * params.omega
        v = np.array([0.0 - c, 0.0, c])
    # I weighs the d forces, J = a - R I the torque
    split = (prof.dimension, len(v) - prof.dimension)
    values = np.repeat([I, a - prof.R * I], split) * v + 0.0
    return values, np.repeat([1e-15 * I, 1e-15 * (a + prof.R * I)], split) * np.abs(v), 0


def _polar_weight(k):
    """``W / r`` of the F3 row: ``W(rho) = int cos^2 th sqrt(r^2 - rho^2 sin^2
    th) dth`` over ``|th| < pi/2``, at ``k = rho / r`` in ``[0, 1)``.

    ``W = 2 r (2 - (1 + k^2) S) K / 3`` with ``K`` the complete elliptic
    integral of the first kind and ``E = K (1 - k^2 S)``, both by the
    arithmetic-geometric mean of ``a_0 = 1``, ``b_0 = k' = sqrt(1 - k^2)``:
    ``K = pi / (2 a_N)`` and ``S = sum_n 2^(n-1) c_n^2 / k^2``, ``c_(n+1) = (a_n
    - b_n)/2`` (A&S 17.6, DLMF 19.8).  ``S`` starts at ``1/2``, and ``c_1^2 /
    k^2 = k^2 / (4 (1 + k')^2)``, ``c_(n+1)^2 / k^2 = (c_n^2 / k^2)^2 k^2 / (16
    a_(n+1)^2)``, so nothing divides by ``k``.
    """
    k2 = k * k
    kp = np.sqrt((1.0 - k) * (1.0 + k))
    a, b = 0.5 * (1.0 + kp), np.sqrt(kp)
    term = k2 / (4.0 * (1.0 + kp) ** 2)
    S, q, p = 0.5 + term, k2 / 16.0, 1.0
    # the means converge quadratically: a - b <= 2e-16 is the mean to roundoff
    while np.max(a - b) > 2e-16:
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        term = term * term * q / (a * a)
        p *= 2.0
        S += p * term
    return np.pi * (2.0 - (1.0 + k2) * S) / (3.0 * a)


# the mean over k in [0, 1] of k'^4 ln(k'^2/16) / 8, k' = sqrt(1 - k^2), by
# d/da of int_0^1 (1 - k^2)^a dk = sqrt(pi) Gamma(a + 1) / (2 Gamma(a + 3/2))
_LOG_TERM_MEAN = -2.0 / 15.0 * (np.log(2.0) + 47.0 / 60.0)


def _rotation_pressure_rows(params, ts):
    """Radial integrands of the moments of ``6 mu G (N, nu x N)`` over the disc.

    ``-6 mu G`` is the running-integral term of the 3D rotation's pressure,
    ``G = c1 (Q(x1, x2) - Q(r, x2)) + c2 (Q(x2, x1) + Q(r, x1))`` with ``Q =
    Q_3``, ``Q_3(a, c) = int_0^a t^2 / h(sqrt(t^2 + c^2))^3 dt``, and ``nu x N
    = a (-x2, x1, 0)`` with ``a = 1 + w H1/2``, ``w = (h - eps)/2 - R``.  The
    weights are derivatives along the line: ``H1 x1 = d1 h`` and ``a x1 = d1
    Phi``, ``Phi = x1^2/2 + (h - eps)^2/8 - R h/2``.  On the circle ``|x'| =
    r`` both take their rim values, so one integration by parts along each
    line ``x2 = const``, with ``d1 Q(x1, x2) = x1^2/h^3``, leaves radial
    integrands: with ``k3 = pi mu t^3 / h^3``, ``F1 = 3 c1 k3 (h(r) - h)``,
    ``T2 = 6 c1 k3 Psi``, ``Psi = (r^2 - t^2)/2 + ((h(r) - eps)^2 - (h -
    eps)^2)/8 - R (h(r) - h)/2``, and by the symmetry ``x1 <-> x2``, ``F2``
    and ``-T1`` the same with ``c2``.  ``Q`` is odd in its first argument, so
    over the disc only the anchor terms of ``G`` remain in F3: ``12 mu (c1 -
    c2)`` times the integral of ``sqrt(r^2 - y^2) t^2 / h^3`` over the
    rectangle ``0 < t < r``, ``|y| < r``; in polar form its part in the disc
    ``t^2 + y^2 < r^2`` is the row ``12 mu (c1 - c2) t^3 W(t) / h^3``
    (:func:`_polar_weight`), and the rest is :func:`_rotation_corner`.
    At ``t = r``, the end of the pass, ``W / r`` is not analytic: its leading
    singular term is ``-k'^4 ln(4/k') / 4``, ``k = t / r``, of order ``(r -
    t)^2 ln(r - t)``.  The row leaves that term out at the weight ``r^3 /
    h(r)^3`` of ``t = r``, less its mean over ``[0, r]``, so the integral is
    unchanged and the rest is an order smoother.  Their angular estimate is 0.
    """
    prof = params.profile
    c1, c2 = _squeeze_type(6, params)[1]
    h, hr, eps = prof.h_radial(ts), prof.h_radial(prof.r), prof.eps
    g = params.mu * ts**3 / h**3
    psi = 0.5 * (prof.r**2 - ts**2) - 0.5 * prof.R * (hr - h)
    psi += 0.125 * ((hr - eps) ** 2 - (h - eps) ** 2)
    f, t = 3.0 * np.pi * g * (hr - h), 6.0 * np.pi * g * psi
    k = ts / prof.r
    kp2 = (1.0 - k) * (1.0 + k)
    log_term = 0.125 * kp2 * kp2 * np.log(kp2 / 16.0) - _LOG_TERM_MEAN
    f3 = 12.0 * (c1 - c2) * prof.r * (g * _polar_weight(k) - params.mu * (prof.r / hr) ** 3 * log_term)
    return np.stack([c1 * f, c2 * f, f3, -c2 * t, c1 * t, np.zeros_like(ts)])


# the corner rule: the 15-point Kronrod rule on four equal panels of phi in
# [0, pi/2] and on two equal panels of [0, 1], the fraction of [r cos phi, r]
_CORNER_EDGES = np.linspace(0.0, 0.5 * np.pi, 5)
_CORNER_PHI = (_CORNER_EDGES[:-1, None] + np.pi / 16 * (_NODES + 1.0)).ravel()
_CORNER_T = np.array([[0.0], [0.5]]) + 0.25 * (_NODES + 1.0)


def _rotation_corner(params):
    """The F3 moment of ``6 mu G`` beyond the disc: ``(value, error, nodes)``.

    ``12 mu (c1 - c2)`` times the integral of ``sqrt(r^2 - y^2) t^2 / h^3``
    over the two corners ``t^2 + y^2 > r^2`` of the rectangle ``0 < t < r``,
    ``|y| < r`` (see :func:`_rotation_pressure_rows`), in ``y = r sin phi``
    and ``t`` from ``r cos phi`` to ``r``.  There ``h >= h(r)`` and the
    integrand is analytic, so a fixed tensor rule serves; its error is the
    15/7 estimate of the outer rule plus the integrated estimates of the
    inner one.
    """
    prof = params.profile
    c1, c2 = _squeeze_type(6, params)[1]
    r, cos = prof.r, np.cos(_CORNER_PHI)
    # the inner panels [lo, lo + span/2] and their nodes, per phi node
    base, span = r * cos[:, None], r - r * cos[:, None]
    lo = (base + span * np.array([0.0, 0.5])).ravel()
    t = base[..., None] + span[..., None] * _CORNER_T
    f = t * t / prof.h_radial(np.sqrt(t * t + np.square(r * np.sin(_CORNER_PHI))[:, None, None])) ** 3
    inner = _panel_sums(f.reshape(1, lo.size, -1), lo, lo + 0.5 * span.repeat(2))
    inner = inner[:, :2, 0].reshape(cos.size, 2, 2).sum(axis=1)
    g = (np.square(r * cos)[:, None] * inner).T.reshape(2, _CORNER_EDGES.size - 1, -1)
    outer = _panel_sums(g, _CORNER_EDGES[:-1], _CORNER_EDGES[1:]).sum(axis=0)
    coef = 24.0 * params.mu * (c1 - c2)
    return coef * outer[0, 0], abs(coef) * (outer[1, 0] + outer[0, 1]), f.size


def _rotation_pressure(params, rel_tol, max_subdivisions):
    """The moments of ``6 mu G``: the ``G`` pass of :func:`_rotation_pressure_rows`
    plus :func:`_rotation_corner` in F3: ``(values, errors, evaluations)``.

    The F3 row is not analytic at ``rho = r``, so its estimate stays near the
    pass's tolerance instead of falling far below it as a smooth integrand's
    does: the pass runs at ``rel_tol / 1e4``, but no finer than 1e-13, so
    that the F3 bound stays a small part of ``rel_tol |F3|``.
    """
    prof = params.profile
    spec = QuadSpec(rel_tol=max(rel_tol / 1e4, 1e-13), max_subdivisions=max_subdivisions,
                    split_points=prof.radial_splits())
    vals, errs, nevals = integrate_vector(lambda ts: _rotation_pressure_rows(params, ts), 0.0, prof.r,
                                          spec, ncomp=6, initial_scale=True)
    corner, corner_err, corner_nodes = _rotation_corner(params)
    vals[2] += corner
    errs[2] += corner_err
    return vals, errs, nevals + corner_nodes


def _solve(params, ks, rel_tol, max_subdivisions) -> dict:
    """``(values, bounds, evaluations)`` of each sub-flow in ``ks``, as the
    module docstring says."""
    prof = params.profile
    d = prof.dimension
    # the d force components and the torque: 3 moments in 2D, 6 in 3D
    nmom = 3 * (d - 1)
    # rows per moment: its value and, in 3D, its angular estimate (the line ring's is 0)
    nrow = 2 if d == 3 else 1
    out = {0: _rigid_mean(params)} if 0 in ks else {}
    ks = [k for k in ks if k != 0]
    if not ks:
        return out
    floors = np.zeros(len(ks))
    if 6 in ks:
        g_vals, g_errs, g_nev = _rotation_pressure(params, rel_tol, max_subdivisions)
        floors[ks.index(6)] = np.max(np.abs(g_vals))
    # (ring, sub-flows) of the ring pass: the 3D rotation on a ring of its own
    groups = [(LINE_RING, ks)] if d == 2 else [
        (SHORT_RING, [k for k in ks if k != 6]), (_ROTATION_RING, [k for k in ks if k == 6])]
    groups = [(ring, group) for ring, group in groups if group]

    def rings(ts):
        # each sub-flow's rings reduced on its own, then stacked: first every
        # sub-flow's moments, then their angular estimates
        parts = [part for ring, group in groups
                 for part in ring_integrals(lambda t, xp, g=group: _ring_moments(params, g, t, xp), ring, ts)]
        return np.concatenate([p[:nmom] for p in parts] + [p[nmom:] for p in parts if nrow == 2])

    spec = QuadSpec(rel_tol=rel_tol, max_subdivisions=max_subdivisions, split_points=prof.radial_splits())
    ncheck = nmom * len(ks)
    vals, errs, nevals = integrate_vector(rings, 0.0 if d == 3 else -prof.r, prof.r, spec,
                                          ncomp=nrow * ncheck, ncheck=ncheck, initial_scale=floors)
    vals, errs = vals.reshape(nrow, len(ks), nmom), errs.reshape(nrow, len(ks), nmom)
    err = errs[0] + np.maximum(vals[1:], 0.0).sum(axis=0)
    nring = {k: ring[0].shape[-1] for ring, group in groups for k in group}
    for i, k in enumerate(ks):
        val, bound, nev = vals[0, i].copy(), err[i].copy(), nevals * nring[k]
        if k == 6:
            val, bound, nev = val + g_vals, bound + g_errs, nev + g_nev
        out[k] = (val, bound, nev)
    return out


def force_numeric(
    k: int,
    params: ProblemParams,
    rel_tol: float = DEFAULT_REL_TOL,
    max_subdivisions: int = DEFAULT_MAX_SUBDIVISIONS,
) -> ForceResult:
    """Force and torque of sub-flow ``k`` on the top particle.

    The one-sub-flow case of :func:`total_numeric`: the rigid mean ``k = 0``
    in closed form; any other sub-flow by its ring pass, from panels split
    at :meth:`GapProfile.radial_splits`, in 3D on the exact 8-point ring, in
    2D on the one-node ring ``x1 = t`` over ``[-r, r]``.  The rotation ``k =
    6`` takes the exact 10-point ring and adds :func:`_rotation_pressure`.
    The absolute tolerance of a pass is ``rel_tol`` times the largest
    force/torque component of its initial panels (``initial_scale`` of
    :func:`~lubgap.quadrature.integrate_vector`), for the rotation's ring
    pass at least ``rel_tol`` times the largest moment of ``G``.  The
    bounds add the quadrature and, in 3D, the angular estimates (roundoff
    there); see :class:`ForceResult` for ``evaluations``.
    """
    d = params.profile.dimension
    if k not in subflow_indices(d):
        raise ValueError(f"sub-flow index {k} invalid for dimension {d}")
    return _result(*_solve(params, [k], rel_tol, max_subdivisions)[k])


def total_numeric(
    params: ProblemParams,
    rel_tol: float = DEFAULT_REL_TOL,
    max_subdivisions: int = DEFAULT_MAX_SUBDIVISIONS,
) -> TotalResult:
    """Total force/torque: the sum over all sub-flows.

    The rigid mean is closed-form; the field moments of every other active
    sub-flow share one ring pass, each resolved relative to its own largest
    initial total as in :func:`force_numeric`, and the 3D rotation adds its
    ``G`` pass.  A sub-flow whose velocity scale is zero vanishes
    identically; it is not integrated and contributes an all-zero
    :class:`ForceResult` with ``evaluations = 0``.
    """
    d = params.profile.dimension
    active = [k for k in subflow_indices(d) if subflow_scale(k, params) != 0.0]
    solved = _solve(params, active, rel_tol, max_subdivisions)
    # the d force components and the torque: 3 moments in 2D, 6 in 3D
    per = {k: solved.get(k) or (*np.zeros((2, 3 * (d - 1))), 0) for k in subflow_indices(d)}
    values, bounds, nevs = zip(*per.values())
    return _result(np.sum(values, axis=0), np.sum(bounds, axis=0), sum(nevs),
                   {k: _result(*part) for k, part in per.items()})
