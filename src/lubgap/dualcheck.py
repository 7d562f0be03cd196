"""Primal-dual diagnostics for the constructed 3D gap fields.

The force asymptotics are justified by a primal-dual energy argument: the
constructed velocity field is an admissible trial field for the viscous
energy functional, and a matching family of dual stress tensors ``S(k)``
(one per sub-flow, supported on the core region ``|x'| < r/4``) certifies
that the energy gap stays O(1) as the interparticle distance shrinks.  The
three sub-flows that only contribute at O(1) get the zero tensor; the two
translation shears get explicit shear tensors; the squeeze and rotation
sub-flows get the field's own stress corrected on the diagonal by integral
terms ``q_k`` that restore an exactly divergence-free row structure.

This module evaluates that machinery numerically at desk scale:

* :func:`energy` -- viscous energy of the total constructed field over the
  gap region (half the stress-strain product integrated in volume),
* :func:`dual_tensor` -- the dual tensor ``S(k)`` at a point,
* :func:`ell` -- the error bilinear form ``ell[i, j]``, the volume inner
  product of the dual discrepancies of two sub-flows,
* :func:`err_sweep` -- boundedness sweep of ``ell`` over an epsilon grid.

For the exact solution the energy identity pins the energy to
``-(U.F + omega.T)/2``, so the energy check here is a blow-up-slope
consistency test against the force asymptotics, not an equality test.

Every construction coefficient is ``c x1^p / h^n`` or its ``x2`` mirror,
and its planar derivatives are exact; they come from the coefficient engine
of the fields, :func:`lubgap.fields._coefficient_derivs`, which adds the
third-order ``d_a lap`` terms the diagonal corrections need.  The shear
tensors read the field's own gradient; the squeeze and rotation tensors
assemble it from the same engine call that gives their corrections.  The
inner integrals defining ``q_1`` and ``q_2`` are exact: the squeeze's are
closed-form (one vanishes identically, the other is a difference of ``B3``
values), the rotation's are differences of coefficient derivatives plus
``d22`` of the running integrals ``Q_1`` and ``Q_3``
(:func:`lubgap.fields._running_integral`).  Whatever depends on ``x'``
alone is computed once per planar point of the volume quadrature and shared
by its vertical Gauss nodes; :func:`err_sweep` is serial.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    ProblemParams,
    _coefficient_derivs,
    _eval3,
    _running_integral,
    _squeeze_type,
    _squeeze_type_grad,
    subflow_indices,
    subflow_scale,
)
from .quadrature import QuadSpec, integrate_1d, trapezoid_ring

__all__ = ["EllReport", "energy", "dual_tensor", "ell", "err_sweep"]

_RING = trapezoid_ring()
_NGAUSS = 5
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(_NGAUSS)


# ---------------------------------------------------------------------------
# the inner integrals of the diagonal corrections
# ---------------------------------------------------------------------------


def _squeeze_qb(profile, c, x1, x2):
    """``QB`` of the squeeze correction ``q_1`` (see :func:`_rotation_potentials`), in closed form.

    The squeeze coefficients ``B_a = c x_a / h^3`` have ``d2 A1 = d1 A2`` and
    ``d2 B1 = d1 B2`` because ``h`` is radial, so the integrand of ``QA``
    vanishes and that of ``QB`` is ``2 d1 B3``: ``QB = 2 (B3(x1, x2) -
    B3(-r/4, x2))``, with the radial ``B3 = c (2 - 3 rho h' / h) / h^3``.
    """

    def b3(rho):
        h = profile.h_radial(rho)
        return c * (2.0 - 3.0 * rho * profile.dh_radial(rho) / h) / h**3

    return 2.0 * (b3(np.hypot(x1, x2)) - b3(np.hypot(0.25 * profile.r, x2)))


def _rotation_potentials(profile, c, x1, x2):
    """``(QA, QB)`` of the rotation correction ``q_1`` at planar points, exact.

    ``q_1 = mu (QA(x') + 3 x3^2 QB(x'))`` with
    ``QA = int_{-b}^{x1} (lap A1 - d1 A3) dx1`` and
    ``QB = int_{-b}^{x1} (lap B1 + d1 B3) dx1`` at fixed ``x2``, ``b = r/4``;
    the integrands are ``d22 A1 - d12 A2`` and ``2 d11 B1 + d22 B1 + d12 B2``.
    With ``[f] = f(x1, x2) - f(-b, x2)`` and ``Q_n`` odd in its first
    argument (:func:`lubgap.fields._running_integral`),

        QA = -[d2 A2] - 3/4 c1 d22 (Q_1(x1, x2) + Q_1(b, x2)),
        QB = 2 [d1 B1] + [d2 B2] + c1 d22 (Q_3(x1, x2) + Q_3(b, x2)),

    where ``d22`` acts on ``x2``.  The coefficients are the rotation's,
    ``p = 2`` with the amplitudes ``c = (c1, c2)``; ``q_2`` reads the
    potentials of the swapped amplitudes at swapped coordinates ``(x2, x1)``.
    Anchoring each line at the core edge ``x1 = -b`` keeps the potentials at
    the local antiderivative scale: ``q_1`` is gauge-free up to an additive
    function of ``x2``, and an anchor at ``x1 = 0`` would inject an
    O(eps^-3) offset on the near-axis lines, which enters ``q_1`` with an
    ``x3^2`` profile, is not pure trace, and destroys the boundedness of
    the error form.
    """
    b = 0.25 * profile.r
    n = x1.size
    lines = np.concatenate([x2, x2])
    A1, A2, B1, B2 = _coefficient_derivs(profile, 2, c, np.concatenate([x1, np.full(n, -b)]), lines)
    ends = np.concatenate([x1, np.full(n, b)])

    def jump(f):
        return f[:n] - f[n:]

    def d22(j):
        f = _running_integral(profile, j, ends, lines, second=True)
        return f[:n] + f[n:]

    QA = -jump(A2[2]) - 0.75 * c[0] * d22(1)
    QB = 2.0 * jump(B1[1]) + jump(B2[2]) + c[0] * d22(3)
    return QA, QB


# ---------------------------------------------------------------------------
# dual tensors
# ---------------------------------------------------------------------------


def _volume_points(x1, x2, x3):
    """Planar points ``(n,)`` under heights ``x3`` ``(n, g)`` as ``n*g`` points, planar-major."""
    g = x3.shape[1]
    return np.repeat(x1, g), np.repeat(x2, g), x3.reshape(-1)


def _dual_tensor_many(k, params, x1, x2, x3, pressure=True):
    """Dual tensor ``S(k)`` and the field gradient of sub-flow ``k``; (3, 3, n*g) each.

    The points are the planar points ``(x1, x2)``, shape (n,), each under
    the heights ``x3``, shape (n, g), flattened as in :func:`_volume_points`.
    Every quantity of ``x'`` alone is computed once per planar point and
    broadcast over ``x3``; for k = 3, 6 that includes the coefficient
    derivatives the gradient is assembled from.  The tensor is zero outside
    the core region ``{|x'| < r/4, |x3| < h/2}`` and for the sub-flows 0,
    4, 5.  ``pressure=False`` leaves out the pressure, an isotropic part
    that the dual discrepancy removes with the trace.
    """
    prof = params.profile
    mu = params.mu
    if k in (3, 6):
        power, c = _squeeze_type(k, params)
        coefs = _coefficient_derivs(prof, power, c, x1, x2, third=True)
        planar = [[f[:, None] for f in C] for C in coefs]
        grad = _squeeze_type_grad(planar[:2], planar[2:], x3)[0].reshape(3, 3, -1)
    else:
        grad = _eval3(k, params, *_volume_points(x1, x2, x3))[2]
    S = np.zeros_like(grad)
    if k in (0, 4, 5) or subflow_scale(k, params) == 0.0:
        return S, grad

    h = np.asarray(prof.h(x1, x2), float)[:, None]
    inside = ((np.hypot(x1, x2) < 0.25 * prof.r)[:, None] & (np.abs(x3) < 0.5 * h)).reshape(-1)

    if k in (1, 2):
        # the shear's own viscous stress in the (row, 3) plane
        row = k - 1
        S[row, 2] = S[2, row] = mu * grad[row, 2]
        S[2, 2] = mu * grad[2, 2]
        return S * inside, grad

    # k in (3, 6): correct the field's own stress on the diagonal; q_2 reads
    # the potentials of q_1 at swapped coordinates (x2, x1) and amplitudes
    if k == 3:
        QA1 = QA2 = 0.0
        QB1, QB2 = _squeeze_qb(prof, c[0], x1, x2), _squeeze_qb(prof, c[1], x2, x1)
    else:
        QA1, QB1 = _rotation_potentials(prof, c, x1, x2)
        QA2, QB2 = _rotation_potentials(prof, c[::-1], x2, x1)
        QA1, QA2 = QA1[:, None], QA2[:, None]
    A1, A2, B1, B2 = coefs
    lapA3, lapB3 = A1[6] + A2[6], B1[6] + B2[6]
    x3sq = x3 * x3
    q1 = mu * (QA1 + 3.0 * x3sq * QB1[:, None])
    q2 = mu * (QA2 + 3.0 * x3sq * QB2[:, None])
    q3 = -mu * (0.5 * lapA3[:, None] * x3sq + 0.25 * lapB3[:, None] * x3sq * x3sq)
    p = _eval3(k, params, *_volume_points(x1, x2, x3))[1] if pressure else 0.0

    for a in range(3):
        for b in range(a + 1, 3):
            S[a, b] = S[b, a] = mu * (grad[a, b] + grad[b, a])
    S[0, 0] = 2.0 * mu * grad[0, 0] - p + q1.reshape(-1)
    S[1, 1] = 2.0 * mu * grad[1, 1] - p + q2.reshape(-1)
    S[2, 2] = 2.0 * mu * grad[2, 2] - p + q3.reshape(-1)
    return S * inside, grad


def dual_tensor(k: int, params: ProblemParams, x) -> np.ndarray:
    """Dual test tensor ``S(k)`` at point ``x = (x1, x2, x3)``.

    Symmetric 3x3 array; identically zero for ``k`` in {0, 4, 5} and outside
    the core region ``{|x'| < r/4, |x3| < h/2}``.
    """
    if params.profile.dimension != 3:
        raise ValueError("dual tensors are defined for 3D problems")
    if k not in subflow_indices(3):
        raise ValueError(f"unknown sub-flow index {k}")
    x1, x2, x3 = (np.atleast_1d(np.asarray(v, float)) for v in x)
    return _dual_tensor_many(k, params, x1, x2, x3[:, None])[0][:, :, 0]


# ---------------------------------------------------------------------------
# volume quadrature over the gap (polar x Gauss tensor product)
# ---------------------------------------------------------------------------


def _volume_integrate(pointfun, params, rmax, spec):
    """Integrate ``pointfun(x1, x2, x3)`` over ``{|x'| < rmax, |x3| < h/2}``.

    Radial direction adaptive (Gauss-Kronrod, split at the boundary-layer
    scale and the flat radius), the shared 64-point trapezoid ring
    (:func:`lubgap.quadrature.trapezoid_ring`, full rule only), 5-point
    Gauss rule vertically across the local gap.  ``pointfun`` receives the
    planar points, shape (n,), and the Gauss heights over each, shape
    (n, 5), and returns the ``n*5`` values in :func:`_volume_points` order.
    """
    prof = params.profile
    theta = _RING.x[0]
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    ntheta = theta.size
    dtheta = _RING.weights[0] * _RING.half[0]

    def radial(ts: np.ndarray) -> np.ndarray:
        nt = ts.size
        x1 = (ts[:, None] * cos_t[None, :]).reshape(nt * ntheta)
        x2 = (ts[:, None] * sin_t[None, :]).reshape(nt * ntheta)
        h = np.asarray(prof.h(x1, x2), float)
        half = 0.5 * h
        vals = pointfun(x1, x2, half[:, None] * _GAUSS_X[None, :]).reshape(nt * ntheta, _NGAUSS)
        vert = (vals * _GAUSS_W[None, :]).sum(axis=1) * half
        rings = vert.reshape(nt, ntheta).sum(axis=1) * dtheta
        return rings * ts

    spec = spec.with_splits([p for p in prof.radial_splits() if p < rmax])
    return integrate_1d(radial, 0.0, rmax, spec, vectorized=True)


def energy(params: ProblemParams, spec: QuadSpec | None = None) -> float:
    """Viscous energy of the total constructed field over the gap region.

    ``I[v] = (1/2) int sigma(v) : D(v) dx`` over ``{|x'| < r, |x3| < h/2}``;
    since the constructed field is divergence-free this equals
    ``mu int |D(v)|^2``.  For the exact solution this quantity satisfies
    ``I = -(U.F + omega.T)/2``, so its blow-up slope must track the force
    asymptotics; that slope consistency, not equality, is what the value is
    for.
    """
    prof = params.profile
    if prof.dimension != 3:
        raise ValueError("energy is implemented for 3D problems")
    spec = spec or QuadSpec(rel_tol=1e-8)
    mu = params.mu
    ks = subflow_indices(3)

    def pointfun(x1, x2, x3):
        x1, x2, x3 = _volume_points(x1, x2, x3)
        total = np.zeros((3, 3, x1.size))
        for k in ks:
            if subflow_scale(k, params) == 0.0:
                continue
            _u, _p, grad = _eval3(k, params, x1, x2, x3)
            total += grad
        D = 0.5 * (total + total.transpose(1, 0, 2))
        return mu * np.einsum("abn,abn->n", D, D)

    return float(_volume_integrate(pointfun, params, prof.r, spec).value)


# ---------------------------------------------------------------------------
# the error bilinear form
# ---------------------------------------------------------------------------


def _discrepancy_many(k, params, x1, x2, x3):
    """``D(u(k)) - (S(k) - tr S(k)/3 E) / (2 mu)``; (3, 3, n*g).

    The points are given as for :func:`_dual_tensor_many`.
    """
    mu = params.mu
    S, grad = _dual_tensor_many(k, params, x1, x2, x3, pressure=False)
    D = 0.5 * (grad + grad.transpose(1, 0, 2))
    tr = S[0, 0] + S[1, 1] + S[2, 2]
    for a in range(3):
        S[a, a] -= tr / 3.0
    return D - S / (2.0 * mu)


def ell(i: int, j: int, params: ProblemParams, spec: QuadSpec | None = None) -> float:
    """Error bilinear form ``ell[i, j]`` over the core region.

    ``mu`` times the volume integral over ``{|x'| < r/4, |x3| < h/2}`` of the
    Frobenius product of the dual discrepancies of sub-flows ``i`` and
    ``j``.  Symmetric in ``(i, j)``; the diagonal is nonnegative.  The dual
    tensors are designed to keep these entries bounded as eps shrinks;
    :func:`err_sweep` measures how close the construction comes to that goal
    for each pair.
    """
    prof = params.profile
    if prof.dimension != 3:
        raise ValueError("ell is implemented for 3D problems")
    if i not in subflow_indices(3) or j not in subflow_indices(3):
        raise ValueError(f"unknown sub-flow pair ({i}, {j})")
    if subflow_scale(i, params) == 0.0 or subflow_scale(j, params) == 0.0:
        return 0.0
    spec = spec or QuadSpec(rel_tol=1e-7, abs_tol=1e-12)
    mu = params.mu

    def pointfun(x1, x2, x3):
        Ei = _discrepancy_many(i, params, x1, x2, x3)
        Ej = Ei if j == i else _discrepancy_many(j, params, x1, x2, x3)
        return mu * np.einsum("abn,abn->n", Ei, Ej)

    return float(_volume_integrate(pointfun, params, 0.25 * prof.r, spec).value)


# ---------------------------------------------------------------------------
# boundedness sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EllReport:
    """Boundedness sweep of the error bilinear form.

    ``eps_grid`` is strictly decreasing; ``values[p]`` aligns with it for
    every pair ``p``; ``slopes[p]`` is the fitted slope of ``log |ell|``
    against ``log eps`` (negative means growth as the gap closes);
    ``violations`` lists the pairs whose slope falls below -0.2.
    """

    pairs: tuple
    eps_grid: tuple
    values: dict
    slopes: dict
    violations: tuple

    def __post_init__(self) -> None:
        if any(a <= b for a, b in zip(self.eps_grid[:-1], self.eps_grid[1:])):
            raise ValueError("eps grid must be strictly decreasing")


_SWEEP_SUBFLOWS = (1, 2, 3, 6)


def err_sweep(params: ProblemParams, eps_list, spec: QuadSpec | None = None) -> EllReport:
    """Evaluate ``ell`` over an epsilon grid and fit boundedness slopes.

    Covers the diagonal pairs ``(i, i)`` for the four sub-flows with nonzero
    dual tensors and every cross pair among them whose velocity scales are
    nonzero.  The pairs run serially, one epsilon after another.
    A fitted slope below -0.2 flags a boundedness violation.
    """
    eps_grid = tuple(sorted((float(e) for e in eps_list), reverse=True))
    if len(eps_grid) < 3:
        raise ValueError("need at least three epsilon values")
    if len(set(eps_grid)) != len(eps_grid):
        raise ValueError("epsilon values must be distinct")
    if eps_grid[0] / eps_grid[-1] < 10.0:
        raise ValueError("epsilon grid must span at least a decade")

    active = [k for k in _SWEEP_SUBFLOWS if subflow_scale(k, params) > 0.0]
    pairs = tuple(
        (a, b) for ai, a in enumerate(active) for b in active[ai:]
    )

    values = {pair: [] for pair in pairs}
    for e in eps_grid:
        par = replace(params, profile=replace(params.profile, eps=e))
        for a, b in pairs:
            values[(a, b)].append(ell(a, b, par, spec))
    values = {pair: tuple(vals) for pair, vals in values.items()}

    slopes = {}
    violations = []
    log_eps = np.log(eps_grid)
    for pair, vals in values.items():
        a, b = pair
        arr = np.abs(np.asarray(vals))
        # Cross pairs that vanish identically (e.g. by parity) come back as
        # quadrature noise; judge that against the Cauchy-Schwarz scale of
        # the two diagonals instead of fitting a slope to roundoff.
        floor = 1e-9 * np.sqrt(
            max(max(np.abs(values[(a, a)])), 1e-300)
            * max(max(np.abs(values[(b, b)])), 1e-300)
        )
        if np.any(arr == 0.0) or (a != b and np.max(arr) < floor):
            slopes[pair] = None
            continue
        slope = float(np.polyfit(log_eps, np.log(arr), 1)[0])
        slopes[pair] = slope
        if slope < -0.2:
            violations.append(pair)
    return EllReport(pairs, eps_grid, values, slopes, tuple(violations))
