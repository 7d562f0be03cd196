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
``n dS = N dx'`` removes the normalization roundoff).  One driver,
:func:`force_numeric`, integrates all force and torque components of a
sub-flow in a single adaptive pass (:func:`lubgap.quadrature.integrate_vector`)
radially over ring integrals (:func:`lubgap.quadrature.ring_integrals`),
from the panels of a coarse probe that fixes the absolute tolerance.  A
ring is its directions plus an angular rule whose embedded rule bounds the
angular error: in 2D the one node ``x1 = t`` over ``[-r, r]``; in 3D the
8-point trapezoid, exact with its embedded rule for the translation/spin
moments, which are trigonometric polynomials of degree at most 2 in the
angle (``x'``, ``J x'`` and radial functions build the fields; the normal
and the lever arm add one degree each).  The rotation sub-flow splits its
pressure: the running-integral term ``G``, which varies over an angular
width ``delta/t`` near the cardinal angles, reduces by parity to two
quarter-ring integrals on graded Gauss-Kronrod panels of the first octant
(:func:`_rotation_pressure`); the rest, of degree at most 4, runs on the
exact 10-point trapezoid.  Sub-flows whose velocity scale is zero are
skipped by :func:`total_numeric`.  Every
pressure is closed-form or exact to roundoff
(:func:`lubgap.fields._running_integral`), so the error bounds are the
quadrature and angular estimates alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# pressure_cache_error stays importable here: the perfbench tracer wraps it by name
from .fields import (  # noqa: F401
    ProblemParams,
    _eval_squeeze_type,
    _running_integral,
    _squeeze_type,
    eval_field_many,
    pressure_cache_error,
    subflow_indices,
    subflow_scale,
)
from .quadrature import (
    DEFAULT_MAX_SUBDIVISIONS,
    DEFAULT_REL_TOL,
    LINE_RING,
    SHORT_RING,
    QuadSpec,
    integrate_vector,
    kronrod_panels,
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

    ``T``/``T_err`` are 3-vectors in 3D and scalars in 2D.  The error
    bounds combine the adaptive-quadrature estimate and the
    angular-resolution check.
    """

    F: np.ndarray
    T: np.ndarray | float
    F_err: np.ndarray
    T_err: np.ndarray | float
    evaluations: int


@dataclass(frozen=True)
class TotalResult:
    """Sum over sub-flows, with the per-sub-flow results retained."""

    F: np.ndarray
    T: np.ndarray | float
    F_err: np.ndarray
    T_err: np.ndarray | float
    evaluations: int
    per_subflow: dict


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
    return _stress_moments(params, xprime, h, eval_field_many(k, params, *xprime, 0.5 * h))


def _stress_moments(params, xprime, h, field):
    """:func:`traction_moments` of the field ``(u, p, grad)`` taken at ``x3 = h/2``."""
    prof = params.profile
    mu, eps, R = params.mu, prof.eps, prof.R
    H1 = prof.radial_jet(np.hypot(*xprime) if prof.dimension == 3 else np.abs(xprime[0]), 1)[0]
    _u, p, grad = field
    njac = np.stack([0.5 * H1 * x for x in xprime] + [-np.ones_like(h)])
    two_d = grad + grad.transpose(1, 0, 2)
    w = mu * np.einsum("ijn,jn->in", two_d, njac) - p[None, :] * njac
    nu = np.stack([*xprime, 0.5 * (h - eps) - R])
    if prof.dimension == 2:
        return np.concatenate([w, (nu[0] * w[1] - nu[1] * w[0])[None, :]])
    return np.concatenate([w, np.cross(nu, w, axis=0)])


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


# sinh-graded edges on each side of a flat cap's feature angle
_FEATURE_EDGES = 3


def _octant_rule(profile, ts):
    """The graded angular rule of the rotation pressure at the radii ``ts``.

    15-point Gauss-Kronrod panels on the first octant ``[0, pi/4]``, graded
    toward the cardinal angle 0, where the rotation pressure switches on
    over a width ``delta / t`` that a uniform rule cannot resolve; read at
    ``theta`` and at its mirror ``pi/2 - theta``, the rule covers the first
    quadrant, and the pressure's parity the rest of the ring
    (:func:`_rotation_pressure`).

    On m-convex profiles one rule serves every radius.  On flat caps the
    pressure also switches on, over a width ``delta`` in ``x2``, across the
    lines ``|x2| = s`` (and ``|x1| = s``), where the flat part of ``Q_3``
    ends; a ring of radius ``t > s`` crosses them at ``asin(s/t)`` (or
    ``acos(s/t)`` in the first octant).  Each radius then gets its own
    panels, with edges sinh-graded toward that angle, and ``rule.x`` and
    ``rule.half`` gain a leading radius axis.  Every radius has the same
    panel count: the graded edges on each side of the angle end short of
    the octant's ends.  Rings inside the cap get the same edges around
    ``pi/8``.
    """
    dth = profile.boundary_layer_scale() / profile.r
    centers = [0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, 2.0 * np.pi]
    edges = _graded_nodes(0.0, 2.0 * np.pi, centers, dth, n_side=14, n_uniform=17)
    edges = np.append(edges[edges < 0.25 * np.pi], 0.25 * np.pi)
    if profile.kind == "flat-capped":
        ts = np.maximum(ts, 1e-300)
        ratio = np.minimum(profile.s / ts, 1.0)[:, None]
        angle = np.where(ratio * ratio <= 0.5, np.arcsin(ratio), np.arccos(ratio))
        # rings inside the cap cross no feature line; refine them mid-octant
        angle = np.where(ratio < 1.0, angle, 0.125 * np.pi)
        width = profile.boundary_layer_scale() / ts[:, None]
        v = np.linspace(0.0, 1.0, _FEATURE_EDGES + 1)[:-1]
        grade = lambda span: width * np.sinh(v * np.arcsinh(span / width))
        feature = [angle - grade(angle)[:, :0:-1], angle + grade(0.25 * np.pi - angle)]
        grid = np.broadcast_to(edges, (ts.size, edges.size))
        edges = np.sort(np.concatenate([grid, *feature], axis=1))
    return kronrod_panels(edges)


# the rotation's moments without G, of degree <= 4 in the ring angle, are
# integrated exactly by the 10-point trapezoid and its embedded 5-point rule
_ROTATION_RING = trapezoid_ring(10)


def _rotation_field_moments(params, t, xprime):
    """Traction moments of the 3D rotation, less the running-integral term ``G``
    of its pressure, at ring points of radius ``t``."""
    h = params.profile.h_radial(t)
    field = _eval_squeeze_type(6, params, *xprime, 0.5 * h, running=False)
    return _stress_moments(params, xprime, h, field)


def _rotation_pressure(params, ts):
    """Ring integrals of the 3D rotation's moments ``6 mu G (N, nu x N)``, laid out
    as by :func:`lubgap.quadrature.ring_integrals`.

    ``-6 mu G`` is the running-integral term of the pressure, ``G = c1 (Q(x1, x2)
    - Q(r, x2)) + c2 (Q(x2, x1) + Q(r, x1))`` with ``Q = Q_3``, and ``nu x N =
    a (-x2, x1, 0)`` with ``a = 1 + w H1/2``, ``w = (h - eps)/2 - R``.  ``Q`` is
    odd in its first argument and even in its second, so a ring of radius ``t``
    leaves ``J0 = t int Q(r, x2)`` and ``J1 = t int Q(x1, x2) x1``: ``F = 6 mu
    (H1 c1 J1/2, H1 c2 J1/2, (c1 - c2) J0)`` and ``T = 6 mu a (-c2 J1, c1 J1,
    0)``.  ``J0``, ``J1`` and their angular estimates (from the per-panel
    Kronrod-Gauss differences) are four times their first-quadrant values, read
    on :func:`_octant_rule` at ``theta`` and at ``pi/2 - theta``.
    """
    prof = params.profile
    rule = _octant_rule(prof, ts)
    lead = rule.x.shape[:-2]
    octant = (np.cos(rule.x).reshape(*lead, -1), np.sin(rule.x).reshape(*lead, -1), rule)

    def halves(_t, xprime):
        # the integrands of J0 at theta and at pi/2 - theta, then those of J1
        x1, x2 = xprime
        r = np.full_like(x1, prof.r)
        q = _running_integral(prof, 3, np.stack([r, r, x1, x2]), np.stack([x2, x1, x2, x1]))
        q[2:] *= np.stack(xprime)
        return q

    J0, J1, E0, E1 = 4.0 * ring_integrals(halves, octant, ts).reshape(4, 2, -1).sum(axis=1)
    c1, c2 = _squeeze_type(6, params)[1]
    mu6, H1 = 6.0 * params.mu, prof.radial_jet(ts, 1)[0]
    a = 1.0 + 0.5 * (0.5 * (prof.h_radial(ts) - prof.eps) - prof.R) * H1
    zero = np.zeros_like(ts)
    on_j1 = mu6 * np.stack([0.5 * H1 * c1, 0.5 * H1 * c2, zero, -a * c2, a * c1, zero])
    vals, errs = on_j1 * J1, np.abs(on_j1) * E1
    vals[2], errs[2] = mu6 * (c1 - c2) * J0, mu6 * abs(c1 - c2) * E0
    return np.concatenate([vals, errs])


def force_numeric(
    k: int,
    params: ProblemParams,
    rel_tol: float = DEFAULT_REL_TOL,
    max_subdivisions: int = DEFAULT_MAX_SUBDIVISIONS,
) -> ForceResult:
    """Force and torque of sub-flow ``k`` on the top particle.

    Integrates the traction moments over the top gap boundary radially,
    split at :meth:`GapProfile.radial_splits`, over ring integrals: in 3D
    the exact 8-point trapezoid ring, or for the rotation ``k = 6`` the exact
    10-point one plus :func:`_rotation_pressure`; in 2D the one-node ring
    ``x1 = t`` over ``[-r, r]``.  A coarse probe, whose panels are not
    evaluated again, sets the absolute tolerance relative to the largest
    force/torque component of this sub-flow.  The bounds add the quadrature
    and angular estimates (0 in 2D, roundoff in 3D but for the rotation
    pressure); ``evaluations`` counts distinct points and running-integral reads.
    """
    prof = params.profile
    d = prof.dimension
    if k not in subflow_indices(d):
        raise ValueError(f"sub-flow index {k} invalid for dimension {d}")
    ring, lo = (SHORT_RING, 0.0) if d == 3 else (LINE_RING, -prof.r)
    moments = lambda t, xprime: traction_moments(k, params, xprime, prof.h_radial(t))
    rings, nring = (lambda ts: ring_integrals(moments, ring, ts)), ring[0].shape[-1]
    if k == 6:
        field = lambda t, xprime: _rotation_field_moments(params, t, xprime)
        rings = lambda ts: ring_integrals(field, _ROTATION_RING, ts) + _rotation_pressure(params, ts)
        # the field points, and four running-integral reads per octant node
        nring = _ROTATION_RING[0].size + 4 * _octant_rule(prof, np.array([prof.r])).x.size
    splits = prof.radial_splits()
    # the d force components and the torque: 3 moments in 2D, 6 in 3D
    nmom = 3 * (d - 1)
    # ring integrals per radial panel: the adaptive pass reads the probe's here
    panels = {}

    def fvec(ts):
        key = ts.tobytes()
        if key not in panels:
            panels[key] = rings(ts)
        return panels[key]

    probe = QuadSpec(abs_tol=1e300, rel_tol=1.0, split_points=splits)
    vals0 = integrate_vector(fvec, lo, prof.r, probe, ncomp=2 * nmom, ncheck=nmom)[0]
    scale = max(float(np.max(np.abs(vals0[:nmom]))), 1e-300)
    spec = QuadSpec(
        abs_tol=rel_tol * scale,
        rel_tol=rel_tol,
        max_subdivisions=max_subdivisions,
        split_points=splits,
    )
    vals, errs, _ = integrate_vector(fvec, lo, prof.r, spec, ncomp=2 * nmom, ncheck=nmom)

    err = errs[:nmom] + np.maximum(vals[nmom:], 0.0)
    T, T_err = vals[d:nmom].copy(), err[d:nmom].copy()
    if d == 2:
        T, T_err = float(T[0]), float(T_err[0])
    return ForceResult(
        F=vals[:d].copy(),
        T=T,
        F_err=err[:d].copy(),
        T_err=T_err,
        evaluations=sum(v.shape[-1] for v in panels.values()) * nring,
    )


def total_numeric(
    params: ProblemParams,
    rel_tol: float = DEFAULT_REL_TOL,
    max_subdivisions: int = DEFAULT_MAX_SUBDIVISIONS,
) -> TotalResult:
    """Total force/torque: sum of :func:`force_numeric` over all sub-flows.

    A sub-flow whose velocity scale is zero vanishes identically; it is
    not integrated and contributes an
    all-zero :class:`ForceResult` with ``evaluations = 0``.
    """
    d = params.profile.dimension
    per = {}
    for k in subflow_indices(d):
        if subflow_scale(k, params) == 0.0:
            per[k] = ForceResult(
                F=np.zeros(d),
                T=np.zeros(3) if d == 3 else 0.0,
                F_err=np.zeros(d),
                T_err=np.zeros(3) if d == 3 else 0.0,
                evaluations=0,
            )
        else:
            per[k] = force_numeric(k, params, rel_tol, max_subdivisions)
    F = np.sum([res.F for res in per.values()], axis=0)
    F_err = np.sum([res.F_err for res in per.values()], axis=0)
    if d == 3:
        T = np.sum([res.T for res in per.values()], axis=0)
        T_err = np.sum([res.T_err for res in per.values()], axis=0)
    else:
        T = float(sum(res.T for res in per.values()))
        T_err = float(sum(res.T_err for res in per.values()))
    nev = sum(res.evaluations for res in per.values())
    return TotalResult(F=F, T=T, F_err=F_err, T_err=T_err, evaluations=nev, per_subflow=per)
