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
from the panels between :meth:`~lubgap.geometry.GapProfile.radial_splits`,
which halve toward the boundary layer and whose totals fix the absolute
tolerance; at ``m < 2`` (2D) they go on halving into the axis, where the
curvature is unbounded, down to where the gap is ``eps`` to roundoff
(:func:`lubgap.quadrature.layer_splits`); the budget counts bisections past them.
Each refinement round reduces the rings of all its radial nodes in one
call: those of every initial panel, then of the halves of every panel
the round bisects.  A ring is its directions plus an angular rule whose
embedded rule bounds the angular error: in 2D the one node ``x1 = t``
over ``[-r, r]``; in 3D the 8-point trapezoid, exact with its embedded
rule for the translation/spin moments, which are trigonometric
polynomials of degree at most 2 in the angle (``x'``, ``J x'`` and radial
functions build the fields; the normal and the lever arm add one degree
each).  The rotation sub-flow splits its
pressure: its moments without the running-integral term ``G``, of degree
at most 4, run on the exact 10-point trapezoid.  ``G`` varies over an
angular width ``delta/t`` near the cardinal angles, but its moments need no
angular rule: integrated by parts along each line ``x2 = const``, its F1,
F2, T1 and T2 become radial rows of the same pass
(:func:`_rotation_pressure_rows`) and its F3 one line integral of ``Q_3``
(:func:`_rotation_pressure_f3`).  Sub-flows whose velocity scale is zero
are skipped by :func:`total_numeric`.  Every pressure is closed-form or
exact to roundoff (:func:`lubgap.fields._running_integral`), so the error
bounds are the quadrature and angular estimates alone.
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
    angular-resolution check.  ``evaluations`` counts the distinct gap
    points at which the traction was evaluated, plus, for the 3D rotation,
    the ``Q_3`` reads of its pressure's F3 line integral.
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


# the rotation's moments without G, of degree <= 4 in the ring angle, are
# integrated exactly by the 10-point trapezoid and its embedded 5-point rule
_ROTATION_RING = trapezoid_ring(10)


def _rotation_field_moments(params, t, xprime):
    """Traction moments of the 3D rotation, less the running-integral term ``G``
    of its pressure, at ring points of radius ``t``."""
    h = params.profile.h_radial(t)
    field = _eval_squeeze_type(6, params, *xprime, 0.5 * h, running=False)
    return _stress_moments(params, xprime, h, field)


def _rotation_pressure_rows(params, ts):
    """Radial integrands of the F1, F2, T1 and T2 moments of ``6 mu G (N, nu x N)``.

    ``-6 mu G`` is the running-integral term of the 3D rotation's pressure,
    ``G = c1 (Q(x1, x2) - Q(r, x2)) + c2 (Q(x2, x1) + Q(r, x1))`` with ``Q =
    Q_3``, and ``nu x N = a (-x2, x1, 0)`` with ``a = 1 + w H1/2``, ``w = (h -
    eps)/2 - R``.  The weights are derivatives along the line: ``H1 x1 = d1 h``
    and ``a x1 = d1 Phi``, ``Phi = x1^2/2 + (h - eps)^2/8 - R h/2``.  On the
    circle ``|x'| = r`` both take their rim values, so one integration by
    parts along each line ``x2 = const``, with ``d1 Q(x1, x2) = x1^2/h^3``,
    leaves radial integrands: with ``k3 = pi mu t^3 / h^3``, ``F1 = 3 c1 k3
    (h(r) - h)``, ``T2 = 6 c1 k3 Psi``, ``Psi = (r^2 - t^2)/2 + ((h(r) -
    eps)^2 - (h - eps)^2)/8 - R (h(r) - h)/2``, and by the symmetry ``x1 <->
    x2``, ``F2`` and ``-T1`` the same with ``c2``.  Their angular estimate is 0.
    """
    prof = params.profile
    c1, c2 = _squeeze_type(6, params)[1]
    h, hr, eps = prof.h_radial(ts), prof.h_radial(prof.r), prof.eps
    k3 = np.pi * params.mu * ts**3 / h**3
    psi = 0.5 * (prof.r**2 - ts**2) - 0.5 * prof.R * (hr - h)
    psi += 0.125 * ((hr - eps) ** 2 - (h - eps) ** 2)
    f, t = 3.0 * k3 * (hr - h), 6.0 * k3 * psi
    zero = np.zeros_like(ts)
    return np.stack([c1 * f, c2 * f, zero, -c2 * t, c1 * t, zero])


def _rotation_pressure_f3(params, rel_tol, max_subdivisions):
    """The F3 moment of ``6 mu G``: ``(value, error, Q_3 reads)``.

    ``Q`` is odd in its first argument, so over the disc only the anchor
    terms of ``G`` remain: ``F3 = 12 mu (c1 - c2) int_{-r}^{r} sqrt(r^2 - y^2)
    Q(r, y) dy``, integrated in ``y = r sin phi`` over ``[0, pi/2]``, split
    where :meth:`GapProfile.radial_splits` cross the line.
    """
    prof = params.profile
    c1, c2 = _squeeze_type(6, params)[1]
    r, coef = prof.r, 24.0 * params.mu * (c1 - c2) * prof.r**2

    def line(phi):
        return coef * np.cos(phi) ** 2 * _running_integral(prof, 3, r, r * np.sin(phi))

    spec = QuadSpec(
        rel_tol=rel_tol,
        max_subdivisions=max_subdivisions,
        split_points=tuple(np.arcsin(np.asarray(prof.radial_splits()) / r)),
    )
    vals, errs, nevals = integrate_vector(line, 0.0, 0.5 * np.pi, spec, ncomp=1)
    return float(vals[0]), float(errs[0]), nevals


def force_numeric(
    k: int,
    params: ProblemParams,
    rel_tol: float = DEFAULT_REL_TOL,
    max_subdivisions: int = DEFAULT_MAX_SUBDIVISIONS,
) -> ForceResult:
    """Force and torque of sub-flow ``k`` on the top particle.

    Integrates the traction moments over the top gap boundary radially,
    from panels that halve toward the boundary layer (at ``m < 2`` on into
    the axis singularity of the curvature), split at
    :meth:`GapProfile.radial_splits` for every sub-flow, over ring
    integrals: in 3D the exact 8-point trapezoid ring; in 2D the one-node
    ring ``x1 = t`` over ``[-r, r]``.  The rotation ``k = 6`` takes the
    exact 10-point ring plus the radial rows of
    :func:`_rotation_pressure_rows`, and adds :func:`_rotation_pressure_f3`,
    at ``rel_tol / 100`` but no finer than 1e-13, to F3.  The absolute
    tolerance is ``rel_tol`` times the largest force/torque component of the
    initial panels (``initial_scale`` of
    :func:`~lubgap.quadrature.integrate_vector`).  The bounds add the
    quadrature and angular estimates (0 in 2D, roundoff in 3D); see
    :class:`ForceResult` for ``evaluations``.
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

        def rings(ts):
            out = ring_integrals(field, _ROTATION_RING, ts)
            out[:6] += _rotation_pressure_rows(params, ts)
            return out

        nring = _ROTATION_RING[0].size
    # the d force components and the torque: 3 moments in 2D, 6 in 3D
    nmom = 3 * (d - 1)
    spec = QuadSpec(rel_tol=rel_tol, max_subdivisions=max_subdivisions,
                    split_points=prof.radial_splits())
    vals, errs, nevals = integrate_vector(rings, lo, prof.r, spec, ncomp=2 * nmom, ncheck=nmom,
                                          initial_scale=True)

    err = errs[:nmom] + np.maximum(vals[nmom:], 0.0)
    nev = nevals * nring
    if k == 6:
        # below the ring pass's tolerance, so as not to widen the F3 bound, but
        # no finer than 1e-13, which the line reaches at every eps
        line_tol = max(rel_tol / 100.0, 1e-13)
        f3, f3_err, nline = _rotation_pressure_f3(params, line_tol, max_subdivisions)
        vals[2] += f3
        err[2] += f3_err
        nev += nline
    T, T_err = vals[d:nmom].copy(), err[d:nmom].copy()
    if d == 2:
        T, T_err = float(T[0]), float(T_err[0])
    return ForceResult(
        F=vals[:d].copy(),
        T=T,
        F_err=err[:d].copy(),
        T_err=T_err,
        evaluations=nev,
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
