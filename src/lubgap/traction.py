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
after a coarse probe that fixes the absolute tolerance: over ``[-r, r]``
in 2D, radially over ring integrals in 3D.  A ring is its directions plus
an angular rule held as data (:class:`lubgap.quadrature.PanelRule`), and
its embedded rule bounds the angular error: the 64-point trapezoid for the
translation/spin sub-flows, whose ring data are smooth and periodic, and,
for the rotation sub-flow whose pressure varies over an angular width
``delta/t`` near the cardinal angles, Gauss-Kronrod panels graded toward
those angles and mirrored from the first octant onto the other seven
(:func:`_mirrored_ring`).  Sub-flows whose velocity scale is zero are
skipped by :func:`total_numeric`.  Every pressure is closed-form or exact
to roundoff (:func:`lubgap.fields._running_integral`), so the error bounds
are the quadrature and angular estimates alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# pressure_cache_error stays importable here: the perfbench tracer wraps it by name
from .fields import (  # noqa: F401
    ProblemParams,
    _graded_nodes,
    eval_field_many,
    pressure_cache_error,
    subflow_indices,
    subflow_scale,
)
from .quadrature import (
    DEFAULT_REL_TOL,
    QuadSpec,
    integrate_vector,
    kronrod_panels,
    trapezoid_ring,
)

__all__ = [
    "traction_moments",
    "ForceResult",
    "TotalResult",
    "force_numeric",
    "total_numeric",
    "leading_coefficient",
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
    prof = params.profile
    mu, eps, R = params.mu, prof.eps, prof.R
    grad_h = prof.h_grad(*xprime) if prof.dimension == 3 else (prof.dh(*xprime),)
    _u, p, grad = eval_field_many(k, params, *xprime, 0.5 * h)
    njac = np.stack(
        [0.5 * np.broadcast_to(np.asarray(g, float), h.shape) for g in grad_h]
        + [-np.ones_like(h)]
    )
    two_d = grad + grad.transpose(1, 0, 2)
    w = mu * np.einsum("ijn,jn->in", two_d, njac) - p[None, :] * njac
    nu = np.stack([*xprime, 0.5 * (h - eps) - R])
    if prof.dimension == 2:
        return np.concatenate([w, (nu[0] * w[1] - nu[1] * w[0])[None, :]])
    return np.concatenate([w, np.cross(nu, w, axis=0)])


_TRAPEZOID = trapezoid_ring()
_TRAPEZOID_RING = (np.cos(_TRAPEZOID.x[0]), np.sin(_TRAPEZOID.x[0]), _TRAPEZOID)


# sinh-graded edges on each side of a flat cap's feature angle
_FEATURE_EDGES = 3


def _mirrored_ring(profile, ts):
    """The graded angular ring of the rotation sub-flow at the radii ``ts``.

    Returns ``(cos, sin, rule)``: ``rule`` holds 15-point Gauss-Kronrod
    panels graded toward the cardinal angles, where the rotation pressure
    switches on over a width ``delta / t`` that a uniform rule cannot
    resolve; ``cos``/``sin`` are the ring directions at its nodes, panel
    by panel.  The panels are built on the first octant ``[0, pi/4]`` and
    mirrored onto the other seven by sign flips and by swapping
    ``(cos, sin)``.  The ring is therefore invariant, bit for bit, under
    the eight symmetries of the square: since ``t * (-c) == -(t * c)``
    exactly, a ring of radius ``t`` repeats each ``(|x1|, |x2|)`` pair four
    times and the rotation pressure's running integral runs once per
    distinct pair (see :func:`lubgap.fields._rotation_q`).

    On m-convex profiles one ring serves every radius.  On flat caps the
    pressure also switches on, over a width ``delta`` in ``x2``, across the
    lines ``|x2| = s`` (and ``|x1| = s``), where the flat part of ``Q_3``
    ends; a ring of radius ``t > s`` crosses them at ``asin(s/t)`` (or
    ``acos(s/t)`` in the first octant).  Each ring then gets its own
    panels, with edges sinh-graded toward that angle, and ``cos``, ``sin``,
    ``rule.x`` and ``rule.half`` gain a leading radius axis.  Every ring has
    the same panel count: the graded edges on each side of the angle end
    short of the octant's ends.  Rings inside the cap get the same edges
    around ``pi/8``.
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
    rule = kronrod_panels(edges)
    th = rule.x
    c, s = np.cos(th), np.sin(th)
    q = 0.5 * np.pi
    lead = th.shape[:-2]
    # octants counter-clockwise: theta, pi/2 - theta, pi/2 + theta, pi - theta, ...
    cos = np.concatenate([c, s, -s, -c, -c, -s, s, c], axis=-2).reshape(*lead, -1)
    sin = np.concatenate([s, c, c, s, -s, -c, -c, -s], axis=-2).reshape(*lead, -1)
    theta = np.concatenate(
        [th, q - th, q + th, 2 * q - th, 2 * q + th, 3 * q - th, 3 * q + th, 4 * q - th],
        axis=-2,
    )
    return cos, sin, rule._replace(x=theta, half=np.tile(rule.half, 8))


def _ring_moments(k, params, ring, ts):
    """Traction moments integrated over the rings of radii ``ts``: (12, nt).

    ``ring`` is ``(cos, sin, rule)``: the ring directions and the angular
    rule as data.  Rows 0..5 are ``t`` times the ring integrals of the
    moments by the full rule; rows 6..11 ``t`` times the summed per-panel
    differences from the embedded rule, which bound the angular error.
    """
    cos, sin, rule = ring
    nt, nring = ts.size, cos.shape[-1]
    t = np.repeat(ts, nring)
    xprime = (t * np.broadcast_to(cos, (nt, nring)).ravel(), t * np.broadcast_to(sin, (nt, nring)).ravel())
    h = np.broadcast_to(np.asarray(params.profile.h_radial(t), float), t.shape)
    pan = traction_moments(k, params, xprime, h).reshape(6, nt, *rule.x.shape[-2:])
    full, low, _ = rule.sums(pan, embedded=True)
    return np.concatenate([full.sum(axis=2), np.abs(full - low).sum(axis=2)]) * ts[None, :]


def force_numeric(
    k: int,
    params: ProblemParams,
    rel_tol: float = DEFAULT_REL_TOL,
    max_subdivisions: int = 2000,
) -> ForceResult:
    """Force and torque of sub-flow ``k`` on the top particle.

    Integrates the traction moments over the top gap boundary: in 3D
    radially over ring integrals (the graded ring for the rotation
    sub-flow ``k = 6``, the trapezoid ring otherwise), split at the
    ``eps^(1/m)`` layer scale and the flat radius; in 2D over
    ``[-r, r]``, split there and at ``x1 = 0``.  A coarse probe pass sets
    the absolute tolerance, so tolerances are relative to the largest
    force/torque component of this sub-flow.  The bounds add the
    quadrature estimate and the angular estimate (3D); no pressure adds
    an error term.
    """
    prof = params.profile
    d = prof.dimension
    if k not in subflow_indices(d):
        raise ValueError(f"sub-flow index {k} invalid for dimension {d}")
    if d == 3:
        ring = (lambda ts: _mirrored_ring(prof, ts)) if k == 6 else (lambda ts: _TRAPEZOID_RING)
        fvec = lambda ts: _ring_moments(k, params, ring(ts), ts)
        lo, splits, nring = 0.0, prof.radial_splits(), ring(np.array([prof.r]))[0].shape[-1]
        ncomp, nmom = 12, 6
    else:

        def fvec(xs):
            h = np.broadcast_to(np.asarray(prof.h(xs), float), xs.shape)
            return traction_moments(k, params, (xs,), h)

        delta = prof.boundary_layer_scale()
        splits = sorted(
            {p for base in (delta, prof.s) for p in (base, -base) if 0.0 < abs(p) < prof.r}
            | {0.0}
        )
        lo, nring, ncomp, nmom = -prof.r, 1, 3, 3

    probe = QuadSpec(abs_tol=1e300, rel_tol=1.0, split_points=splits)
    vals0, _, n0 = integrate_vector(fvec, lo, prof.r, probe, ncomp=ncomp, ncheck=nmom)
    scale = max(float(np.max(np.abs(vals0[:nmom]))), 1e-300)
    spec = QuadSpec(
        abs_tol=rel_tol * scale,
        rel_tol=rel_tol,
        max_subdivisions=max_subdivisions,
        split_points=splits,
    )
    vals, errs, nev = integrate_vector(fvec, lo, prof.r, spec, ncomp=ncomp, ncheck=nmom)

    err = errs[:nmom] + np.maximum(vals[nmom:], 0.0) if d == 3 else errs
    T, T_err = vals[d:nmom].copy(), err[d:nmom].copy()
    if d == 2:
        T, T_err = float(T[0]), float(T_err[0])
    return ForceResult(
        F=vals[:d].copy(),
        T=T,
        F_err=err[:d].copy(),
        T_err=T_err,
        evaluations=(n0 + nev) * nring,
    )


def total_numeric(
    params: ProblemParams,
    rel_tol: float = DEFAULT_REL_TOL,
    max_subdivisions: int = 2000,
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


def leading_coefficient(
    v1: float,
    v2: float,
    eps1: float,
    eps2: float,
    power: float = 0.0,
    is_log: bool = False,
) -> float:
    """Leading coefficient from values at two gap widths.

    Assuming ``v(eps) = c * t(eps) + const`` with ``t = eps^-power`` (or
    ``|ln eps|`` when ``is_log``), differencing the two samples eliminates
    the unknown constant:

        c = (v1 - v2) / (t(eps1) - t(eps2)).
    """
    if eps1 == eps2:
        raise ValueError("need two distinct gap widths")
    if is_log:
        t1, t2 = abs(np.log(eps1)), abs(np.log(eps2))
    else:
        t1, t2 = eps1 ** (-power), eps2 ** (-power)
    return (v1 - v2) / (t1 - t2)
