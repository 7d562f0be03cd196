"""Surface tractions and numeric force/torque integrals.

The hydrodynamic force and torque on the top particle are surface
integrals of the Newtonian traction over the top gap boundary,

    F = int sigma n dS,      T = int nu x (sigma n) dS,
    sigma = mu (grad u + grad u^T) - p I,

with ``n`` the outward normal of the particle and ``nu`` the lever arm
about its centroid.  In 2D the torque is the scalar
``nu1 (sigma n)_2 - nu2 (sigma n)_1``.

All force and torque components of one sub-flow are integrated in a single
adaptive radial pass; the ring reduction at each radius uses either a
64-point trapezoid sum (spectrally accurate for the smooth periodic ring
data of the translation/spin sub-flows; a 64-vs-32-point difference is
folded into the error estimate) or, for the rotation sub-flow whose
pressure varies over an angular width ``delta/t`` near the cardinal
angles, Gauss-Kronrod panels graded toward those angles.  Those panels
are built on the octant ``[0, pi/4]`` and mirrored onto the other seven
octants by sign flips and a ``(cos, sin)`` swap, so the ring points
repeat each ``(|x1|, |x2|)`` pair exactly and the rotation pressure table
is read once per distinct pair.  Sub-flows whose velocity scale is zero
are skipped by :func:`total_numeric`.  The identity
``n dS = (d1 h/2, d2 h/2, -1) dx'`` removes the normalization roundoff.
Pressure-cache interpolation errors are propagated into the reported
error bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    ProblemParams,
    _graded_nodes,
    eval_field,
    eval_field_many,
    pressure_cache_error,
    subflow_indices,
    subflow_scale,
)
from .geometry import SurfacePoint
from .quadrature import (
    _GAUSS_IDX,
    _NODES,
    _WEIGHTS_G,
    _WEIGHTS_K,
    QuadSpec,
    integrate_vector,
)

__all__ = [
    "traction",
    "ForceResult",
    "TotalResult",
    "force_numeric",
    "total_numeric",
    "leading_coefficient",
]

_NTHETA = 64


def traction(k: int, params: ProblemParams, sp: SurfacePoint) -> np.ndarray:
    """Traction ``sigma n`` of sub-flow ``k`` at surface point ``sp``.

    Uses the unit normal stored on ``sp``; the stress is assembled from the
    analytic velocity gradient and pressure.
    """
    x = (*sp.xprime, sp.x3) if params.profile.dimension == 3 else (sp.xprime, sp.x3)
    ev = eval_field(k, params, x)
    sig = params.mu * (ev.grad_u + ev.grad_u.T)
    sig -= ev.p * np.eye(params.profile.dimension)
    return sig @ np.asarray(sp.n)


@dataclass(frozen=True)
class ForceResult:
    """Numeric force/torque of one sub-flow with certified error bounds.

    ``T``/``T_err`` are 3-vectors in 3D and scalars in 2D.  The error
    bounds combine the adaptive-quadrature estimate, the angular-resolution
    check, and the propagated pressure-cache error.
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


def _pressure_error_bound(k: int, params: ProblemParams) -> float:
    """Upper bound for the pointwise pressure error from the cached tables."""
    pce = pressure_cache_error(k, params.profile)
    if pce == 0.0:
        return 0.0
    if params.profile.dimension == 3:
        amp = abs(params.U[2]) if k == 3 else abs(params.omega[0]) + abs(params.omega[1])
    else:
        amp = abs(params.U[1]) if k == 2 else abs(params.omega)
    return 6.0 * params.mu * amp * pce


def _ring_components(k, params, ts, cos, sin):
    """Force/torque ring integrands: (6, nt, ntheta) traction moments.

    ``cos``/``sin`` are the ring directions; every radius in ``ts`` uses
    the same ones."""
    prof = params.profile
    mu, eps, R = params.mu, prof.eps, prof.R
    nt = ts.size
    t = np.repeat(ts, cos.size)
    x1 = t * np.tile(cos, nt)
    x2 = t * np.tile(sin, nt)
    h = np.broadcast_to(np.asarray(prof.h_radial(t), float), t.shape)
    u, p, grad = eval_field_many(k, params, x1, x2, 0.5 * h)
    g1, g2 = prof.h_grad(x1, x2)
    njac = np.stack(
        [
            0.5 * np.broadcast_to(np.asarray(g1, float), t.shape),
            0.5 * np.broadcast_to(np.asarray(g2, float), t.shape),
            -np.ones_like(t),
        ]
    )
    two_d = grad + grad.transpose(1, 0, 2)
    w = mu * np.einsum("ijn,jn->in", two_d, njac) - p[None, :] * njac
    nu = np.stack([x1, x2, (0.5 * (h - eps) - R)])
    tq = np.stack(
        [
            nu[1] * w[2] - nu[2] * w[1],
            nu[2] * w[0] - nu[0] * w[2],
            nu[0] * w[1] - nu[1] * w[0],
        ]
    )
    return np.concatenate([w, tq]).reshape(6, nt, cos.size)


def _fvec_trapezoid(k, params):
    """Radial integrand with a uniform trapezoid ring rule.

    Spectrally accurate for the smooth periodic ring data of the
    translation/spin sub-flows; a 64-vs-32-point difference provides the
    angular error estimate (components 6..11)."""
    theta = 2.0 * np.pi * np.arange(_NTHETA) / _NTHETA
    cos, sin = np.cos(theta), np.sin(theta)
    dtheta = 2.0 * np.pi / _NTHETA

    def fvec(ts: np.ndarray) -> np.ndarray:
        comps = _ring_components(k, params, ts, cos, sin)
        full = comps.sum(axis=2) * dtheta
        half = comps[:, :, ::2].sum(axis=2) * (2.0 * dtheta)
        return np.concatenate([full, np.abs(full - half)]) * ts[None, :]

    return fvec, _NTHETA


def _mirrored_ring(profile):
    """Directions and panel half-widths of the graded rotation ring.

    Returns ``(cos, sin, half)``: ``cos``/``sin`` hold the 15 Kronrod
    nodes of each panel, panel by panel, and ``half`` the panel
    half-widths in ``theta``.  The panels are graded toward the cardinal
    angles, built on the first octant ``[0, pi/4]`` and mirrored onto the
    other seven by sign flips and by swapping ``(cos, sin)``.  The ring is
    therefore invariant, bit for bit, under the eight symmetries of the
    square.
    """
    dth = profile.boundary_layer_scale() / profile.r
    centers = [0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi, 2.0 * np.pi]
    edges = _graded_nodes(0.0, 2.0 * np.pi, centers, dth, n_side=14, n_uniform=17)
    edges = np.append(edges[edges < 0.25 * np.pi], 0.25 * np.pi)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    theta = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
    c, s = np.cos(theta), np.sin(theta)
    # octants counter-clockwise: theta, pi/2 - theta, pi/2 + theta, pi - theta, ...
    cos = np.concatenate([c, s, -s, -c, -c, -s, s, c])
    sin = np.concatenate([s, c, c, s, -s, -c, -c, -s])
    return cos, sin, np.tile(half, 8)


def _fvec_graded_ring(k, params):
    """Radial integrand with sinh-graded Gauss-Kronrod ring panels.

    The rotation pressure's nested integrals switch on over an angular
    width ``delta / t`` around each cardinal angle, which a uniform ring
    rule cannot resolve; panels graded toward ``0, pi/2, pi, 3pi/2`` at
    the worst-case width ``delta / r`` are used instead
    (:func:`_mirrored_ring`).  The ring is octant-mirrored: since
    ``t * (-c) == -(t * c)`` holds exactly, the eight images of a node
    share ``(|x1|, |x2|)`` up to a swap, so each ring repeats every
    rotation-table lookup four times and the table is read once per
    distinct pair (see :class:`lubgap.fields._RotationTable`).  The
    summed Kronrod-vs-Gauss panel differences (components 6..11) bound
    the angular error."""
    cos, sin, half = _mirrored_ring(params.profile)
    npan = half.size

    def fvec(ts: np.ndarray) -> np.ndarray:
        comps = _ring_components(k, params, ts, cos, sin)
        pan = comps.reshape(6, ts.size, npan, _NODES.size)
        resk = (pan @ _WEIGHTS_K) * half
        resg = (pan[..., _GAUSS_IDX] @ _WEIGHTS_G) * half
        full = resk.sum(axis=2)
        err = np.abs(resk - resg).sum(axis=2)
        return np.concatenate([full, err]) * ts[None, :]

    return fvec, cos.size


def _force_numeric_3d(k, params, rel_tol, max_subdivisions):
    prof = params.profile
    eps, R = prof.eps, prof.R
    fvec, ntheta = (
        _fvec_graded_ring(k, params) if k == 6 else _fvec_trapezoid(k, params)
    )

    splits = prof.radial_splits()
    probe = QuadSpec(abs_tol=1e300, rel_tol=1.0, split_points=splits)
    vals0, _, n0 = integrate_vector(fvec, 0.0, prof.r, probe, ncomp=12, ncheck=6)
    scale = max(float(np.max(np.abs(vals0[:6]))), 1e-300)
    spec = QuadSpec(
        abs_tol=rel_tol * scale,
        rel_tol=rel_tol,
        max_subdivisions=max_subdivisions,
        split_points=splits,
    )
    vals, errs, nev = integrate_vector(fvec, 0.0, prof.r, spec, ncomp=12, ncheck=6)

    ang_err = np.maximum(vals[6:], 0.0)
    perr = _pressure_error_bound(k, params)
    area = np.pi * prof.r**2
    gmax = float(prof.dh_radial(prof.r))
    lever = float(np.hypot(prof.r, R + 0.5 * (prof.h_radial(prof.r) - eps)))
    p_F = perr * area * np.array([0.5 * gmax, 0.5 * gmax, 1.0])
    p_T = perr * area * lever * (1.0 + 0.5 * gmax) * np.ones(3)
    return ForceResult(
        F=vals[:3].copy(),
        T=vals[3:6].copy(),
        F_err=errs[:3] + ang_err[:3] + p_F,
        T_err=errs[3:6] + ang_err[3:6] + p_T,
        evaluations=(n0 + nev) * ntheta,
    )


def _force_numeric_2d(k, params, rel_tol, max_subdivisions):
    prof = params.profile
    mu, eps, R = params.mu, prof.eps, prof.R

    def fvec(xs: np.ndarray) -> np.ndarray:
        h = np.broadcast_to(np.asarray(prof.h(xs), float), xs.shape)
        x2 = 0.5 * h
        u, p, grad = eval_field_many(k, params, xs, x2)
        g = np.broadcast_to(np.asarray(prof.dh(xs), float), xs.shape)
        njac = np.stack([0.5 * g, -np.ones_like(xs)])
        two_d = grad + grad.transpose(1, 0, 2)
        w = mu * np.einsum("ijn,jn->in", two_d, njac) - p[None, :] * njac
        nu1 = xs
        nu2 = 0.5 * (h - eps) - R
        tq = nu1 * w[1] - nu2 * w[0]
        return np.concatenate([w, tq[None, :]])

    delta = prof.boundary_layer_scale()
    splits = sorted(
        {p for base in (delta, prof.s) for p in (base, -base) if 0.0 < abs(p) < prof.r}
        | {0.0}
    )
    probe = QuadSpec(abs_tol=1e300, rel_tol=1.0, split_points=splits)
    vals0, _, n0 = integrate_vector(fvec, -prof.r, prof.r, probe, ncomp=3)
    scale = max(float(np.max(np.abs(vals0))), 1e-300)
    spec = QuadSpec(
        abs_tol=rel_tol * scale,
        rel_tol=rel_tol,
        max_subdivisions=max_subdivisions,
        split_points=splits,
    )
    vals, errs, nev = integrate_vector(fvec, -prof.r, prof.r, spec, ncomp=3)

    perr = _pressure_error_bound(k, params)
    length = 2.0 * prof.r
    gmax = float(prof.dh_radial(prof.r))
    lever = float(np.hypot(prof.r, R + 0.5 * (prof.h_radial(prof.r) - eps)))
    p_F = perr * length * np.array([0.5 * gmax, 1.0])
    p_T = perr * length * lever * (1.0 + 0.5 * gmax)
    return ForceResult(
        F=vals[:2].copy(),
        T=float(vals[2]),
        F_err=errs[:2] + p_F,
        T_err=float(errs[2]) + p_T,
        evaluations=n0 + nev,
    )


def force_numeric(
    k: int,
    params: ProblemParams,
    rel_tol: float = 1e-8,
    max_subdivisions: int = 2000,
) -> ForceResult:
    """Force and torque of sub-flow ``k`` on the top particle.

    Integrates the traction over the top gap boundary with the radial axis
    split at the ``eps^(1/m)`` layer scale (and the flat radius); in 2D the
    interval is additionally split at ``x1 = 0``.  Tolerances are relative
    to the largest force/torque component of this sub-flow.
    """
    if k not in subflow_indices(params.profile.dimension):
        raise ValueError(
            f"sub-flow index {k} invalid for dimension {params.profile.dimension}"
        )
    if params.profile.dimension == 3:
        return _force_numeric_3d(k, params, rel_tol, max_subdivisions)
    return _force_numeric_2d(k, params, rel_tol, max_subdivisions)


def total_numeric(
    params: ProblemParams,
    rel_tol: float = 1e-8,
    max_subdivisions: int = 2000,
) -> TotalResult:
    """Total force/torque: sum of :func:`force_numeric` over all sub-flows.

    A sub-flow whose velocity scale is zero vanishes identically; it is
    not integrated (and builds no pressure table) and contributes an
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
