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

* :func:`dual_tensor` -- the dual tensor ``S(k)`` at a point,
* :func:`ell` -- the error bilinear form ``ell[i, j]``, the volume inner
  product of the dual discrepancies of two sub-flows,
* :func:`err_sweep` -- boundedness sweep of ``ell`` over an epsilon grid.

The check computes only the numbers it reports.  For the squeeze and
rotation sub-flows ``S`` is ``2 mu D(u)`` off the diagonal and
``2 mu D(u) - p + q_a`` on it, and ``div u = 0``, so their discrepancy is
the diagonal ``-(q_a - qbar) / (2 mu)``, a polynomial in ``x3^2`` per planar
point: their ``ell`` reads the corrections alone, evaluates no field, and
integrates across the gap by the exact moments of ``x3``; pairs with a
translation shear take a 5-point Gauss rule.  A shear against a squeeze or
rotation is odd under ``x3 -> -x3`` and the two shears' product under
``x1 -> -x1``; :func:`err_sweep` records these five pairs as exact zeros
without integrating them (:func:`ell` still integrates any pair).

Every construction coefficient is ``c x1^p / h^n`` or its ``x2`` mirror,
and its planar derivatives are exact; they come from the coefficient engine
of the fields, :func:`lubgap.fields._coefficient_derivs`, asked only for the
entries read: ``d_a lap`` for ``q_3``, ``d_a`` for the rotation's
potentials.  A dual tensor reads the field's own gradient and pressure from
one field call.  The inner integrals defining ``q_1`` and ``q_2`` are exact:
the squeeze's are closed-form (one vanishes identically, the other is a
difference of ``B3`` values), the rotation's are differences of coefficient
derivatives plus ``d22`` of the running integrals ``Q_1`` and ``Q_3``
(:func:`lubgap.fields._running_integral`).  Whatever depends on ``x'``
alone is computed once per planar point: each ring call builds one planar
gap record (:meth:`GapProfile.at`) for both sub-flows of a pair, and only
the line ends of the corrections take their own.  The rings of planar
points are reduced by :func:`lubgap.quadrature.ring_integrals`: the exact
8-point ring for the two shears (trigonometric polynomials of degree <= 4
in the angle), the 64-point one otherwise.  :func:`err_sweep` is serial.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .asymptotics import fit_exponent
from .fields import (
    ProblemParams,
    _coefficient_derivs,
    _eval,
    _running_integral,
    _squeeze_type,
    subflow_indices,
    subflow_scale,
)
from .quadrature import SHORT_RING, TRAPEZOID_RING, QuadSpec, _GAUSS_LEGENDRE_5, integrate_1d, ring_integrals

__all__ = ["EllReport", "dual_tensor", "ell", "err_sweep"]


# ---------------------------------------------------------------------------
# the inner integrals of the diagonal corrections
# ---------------------------------------------------------------------------


def _squeeze_qb(c, gap, end):
    """``QB`` of the squeeze correction ``q_1`` (see :func:`_rotation_potentials`), in closed form.

    The squeeze coefficients ``B_a = c x_a / h^3`` have ``d2 A1 = d1 A2`` and
    ``d2 B1 = d1 B2`` because ``h`` is radial, so the integrand of ``QA``
    vanishes and that of ``QB`` is ``2 d1 B3``: ``QB = 2 (B3(x1, x2) -
    B3(-r/4, x2))``, with the radial ``B3 = c (2 - 3 rho^2 H1 / h) / h^3``
    and ``H1 = h'/rho``, from the gap records of the points and their line ends.
    """

    def b3(g):
        return c * (2.0 - 3.0 * g.rho * g.rho * g.jet[0] / g.h) / g.h**3

    return 2.0 * (b3(gap) - b3(end))


def _rotation_potentials(profile, c, gap, end):
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
    potentials of the swapped amplitudes at swapped coordinates ``(x2, x1)``;
    ``gap`` and ``end`` are the gap records of the points and of ``(-b, x2)``.
    Anchoring each line at the core edge ``x1 = -b`` keeps the potentials at
    the local antiderivative scale: ``q_1`` is gauge-free up to an additive
    function of ``x2``, and an anchor at ``x1 = 0`` would inject an
    O(eps^-3) offset on the near-axis lines, which enters ``q_1`` with an
    ``x3^2`` profile, is not pure trace, and destroys the boundedness of
    the error form.
    """
    x1, x2 = gap.xprime
    n = len(x1)
    # each coefficient's first derivative along its own axis, at the points and at the line ends
    (_, (d2A2,), (d1B1,), (d2B2,)), (_, (e2A2,), (e1B1,), (e2B2,)) = (
        _coefficient_derivs(g, 2, c, entries=(1,)) for g in (gap, end))
    ends = np.concatenate([x1, np.full_like(x1, 0.25 * profile.r)])
    lines = np.concatenate([x2, x2])

    def d22(j):
        f = _running_integral(profile, j, ends, lines, second=True)
        return f[:n] + f[n:]

    QA = -(d2A2 - e2A2) - 0.75 * c[0] * d22(1)
    QB = 2.0 * (d1B1 - e1B1) + (d2B2 - e2B2) + c[0] * d22(3)
    return QA, QB


# ---------------------------------------------------------------------------
# dual tensors
# ---------------------------------------------------------------------------


def _line_ends(prof, gap):
    """The gap records (jet order 1) of the line ends ``(-r/4, x2)`` and
    ``(-r/4, x1)`` of the points of ``gap``, where the corrections' potentials
    of ``q_1`` and ``q_2`` are anchored."""
    x1, x2 = gap.xprime
    return [prof.at((np.full_like(x1, -0.25 * prof.r), line), 1) for line in (x2, x1)]


def _correction_terms(k, params, gap, ends=None):
    """Planar parts ``(QA1, QB1, QA2, QB2, lapA3, lapB3)`` of the diagonal
    corrections of squeeze-type sub-flow ``k`` at the points of ``gap`` (jet
    order 3): ``q_a = mu (QA_a + 3 x3^2 QB_a)`` (a = 1, 2) and ``q_3 = -mu
    (lapA3 x3^2 / 2 + lapB3 x3^4 / 4)``, ``lapA3 = sum_a d_a lap A_a``; ``q_2``
    reads the potentials of ``q_1`` at swapped ``(x2, x1)`` and amplitudes.
    ``ends`` is :func:`_line_ends` of ``gap``, built here when not given."""
    prof = params.profile
    power, c = _squeeze_type(k, params)
    (lA1,), (lA2,), (lB1,), (lB2,) = _coefficient_derivs(gap, power, c, entries=(6,))
    x1, x2 = gap.xprime
    ends = ends or _line_ends(prof, gap)
    swapped = replace(gap, xprime=(x2, x1))
    if k == 3:
        QA1 = QA2 = 0.0
        QB1, QB2 = _squeeze_qb(c[0], gap, ends[0]), _squeeze_qb(c[1], swapped, ends[1])
    else:
        QA1, QB1 = _rotation_potentials(prof, c, gap, ends[0])
        QA2, QB2 = _rotation_potentials(prof, c[::-1], swapped, ends[1])
    return QA1, QB1, QA2, QB2, lA1 + lA2, lB1 + lB2


def _diagonal(k, params, gap, ends=None):
    """The discrepancy ``d_a = -(q_a - qbar) / (2 mu)`` of squeeze-type sub-flow
    ``k`` as ``D[a, 0] + D[a, 1] x3^2 + D[a, 2] x3^4``; ``D`` is (3, 3) + gap.h.shape;
    ``ends`` as for :func:`_correction_terms`."""
    QA1, QB1, QA2, QB2, lapA3, lapB3 = _correction_terms(k, params, gap, ends)
    q = np.zeros((3, 3) + lapA3.shape)
    q[0, 0], q[0, 1] = QA1, 3.0 * QB1
    q[1, 0], q[1, 1] = QA2, 3.0 * QB2
    q[2, 1], q[2, 2] = -0.5 * lapA3, -0.25 * lapB3
    return 0.5 * (q.mean(axis=0) - q)


def _dual_tensor_many(k, params, gap, x3):
    """Dual tensor ``S(k)`` and the field gradient of sub-flow ``k``; (3, 3, n, g) each.

    The points are the planar points of ``gap`` (jet order 3), shape (n, 1),
    each under the heights ``x3``, shape (n, g); whatever depends on ``x'``
    alone is evaluated once per planar point.  The tensor is zero outside the core
    region ``{|x'| < r/4, |x3| < h/2}`` and for the sub-flows 0, 4, 5.
    """
    prof = params.profile
    mu = params.mu
    _u, p, grad = _eval(k, params, gap, x3)
    S = np.zeros_like(grad)
    if k in (0, 4, 5) or subflow_scale(k, params) == 0.0:
        return S, grad

    inside = (gap.rho < 0.25 * prof.r) & (np.abs(x3) < 0.5 * gap.h)

    if k in (1, 2):
        # the shear's own viscous stress in the (row, 3) plane
        row = k - 1
        S[row, 2] = S[2, row] = mu * grad[row, 2]
        S[2, 2] = mu * grad[2, 2]
        return np.multiply(S, inside, out=S), grad

    # k in (3, 6): correct the field's own stress on the diagonal
    for a in range(3):
        for b in range(a + 1, 3):
            S[a, b] = S[b, a] = mu * (grad[a, b] + grad[b, a])
    QA1, QB1, QA2, QB2, lapA3, lapB3 = _correction_terms(k, params, gap)
    x3sq = x3 * x3
    q1 = mu * (QA1 + 3.0 * x3sq * QB1)
    q2 = mu * (QA2 + 3.0 * x3sq * QB2)
    q3 = -mu * (0.5 * lapA3 * x3sq + 0.25 * lapB3 * x3sq * x3sq)
    for a, q in enumerate((q1, q2, q3)):
        S[a, a] = 2.0 * mu * grad[a, a] - p + q
    return np.multiply(S, inside, out=S), grad


def dual_tensor(k: int, params: ProblemParams, x) -> np.ndarray:
    """Dual test tensor ``S(k)`` at point ``x = (x1, x2, x3)``.

    Symmetric 3x3 array; identically zero for ``k`` in {0, 4, 5} and outside
    the core region ``{|x'| < r/4, |x3| < h/2}``.
    """
    if params.profile.dimension != 3:
        raise ValueError("dual tensors are defined for 3D problems")
    if k not in subflow_indices(3):
        raise ValueError(f"unknown sub-flow index {k}")
    x1, x2, x3 = (np.full((1, 1), float(v)) for v in x)
    return _dual_tensor_many(k, params, params.profile.at((x1, x2), 3), x3)[0][:, :, 0, 0]


# ---------------------------------------------------------------------------
# volume quadrature over the gap (polar rings of vertical integrals)
# ---------------------------------------------------------------------------


def _volume_integrate(column, params, rmax, spec, ring=TRAPEZOID_RING):
    """Integrate over ``{|x'| < rmax, |x3| < h/2}`` from the vertical integrals
    ``column(gap)`` at planar points, shape (n,), from their gap record of jet
    order 3: radially adaptive (Gauss-Kronrod, split inside ``rmax`` at
    :meth:`GapProfile.radial_splits`, of which m-convex profiles take only
    ``delta``), angularly by the trapezoid ``ring``
    (:func:`lubgap.quadrature.ring_integrals`, full rule)."""
    prof = params.profile
    planar = lambda _t, xprime: column(prof.at(xprime, 3))
    # m-convex: delta alone; on the r/4 core at 1e-7 a graded start costs more than it saves
    splits = prof.radial_splits()[: 1 if prof.kind == "m-convex" else None]
    spec = spec.with_splits([p for p in splits if p < rmax])
    # two panels' radii at a time, as one bisection takes them: a round's rings
    # would otherwise hold the arrays of all its panels at once
    rings = lambda ts: ring_integrals(planar, ring, ts)[0]
    radial = lambda ts: np.concatenate([rings(ts[i:i + 30]) for i in range(0, ts.size, 30)])
    return integrate_1d(radial, 0.0, rmax, spec)


# ---------------------------------------------------------------------------
# the error bilinear form
# ---------------------------------------------------------------------------

# int_{|x3| < h/2} x3^(2k) = 2 (h/2)^(2k + 1) / (2k + 1) at k = p + q of the diagonal products
_ODD = np.arange(1.0, 10.0, 2.0)[:, None]
_PQ = np.add.outer(np.arange(3), np.arange(3))


def _discrepancy_many(k, params, gap, x3):
    """``D(u(k)) - (S(k) - tr S(k)/3 E) / (2 mu)``; (3, 3, n, g).

    The points are given as for :func:`_dual_tensor_many`.  For k = 3, 6 it
    is :func:`_diagonal` at the heights (see the module docstring).
    """
    mu = params.mu
    if k in (3, 6):
        D, x3sq, E = _diagonal(k, params, gap), x3 * x3, np.zeros((3, 3) + x3.shape)
        for a in range(3):
            E[a, a] = D[a, 0] + x3sq * (D[a, 1] + x3sq * D[a, 2])
        return E
    S, grad = _dual_tensor_many(k, params, gap, x3)
    # in place: the (3, 3, n, g) arrays are the largest of the dual check
    D = grad + grad.swapaxes(0, 1)
    D *= 0.5
    tr = S[0, 0] + S[1, 1] + S[2, 2]
    for a in range(3):
        S[a, a] -= tr / 3.0
    return np.subtract(D, np.divide(S, 2.0 * mu, out=S), out=D)


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
    ring = SHORT_RING if i in (1, 2) and j in (1, 2) else TRAPEZOID_RING

    if i in (3, 6) and j in (3, 6):
        # polynomials in x3^2 on each diagonal entry: exact vertical moments
        def column(gap):
            # both sub-flows anchor their potentials at the same line ends
            ends = _line_ends(prof, gap)
            Di = _diagonal(i, params, gap, ends)
            Dj = Di if j == i else _diagonal(j, params, gap, ends)
            return mu * np.einsum("apn,aqn,pqn->n", Di, Dj, (2.0 * (0.5 * gap.h)**_ODD / _ODD)[_PQ])

    else:
        gx, gw = _GAUSS_LEGENDRE_5

        def column(gap):
            half = 0.5 * gap.h
            rows, x3 = gap[:, None], half[:, None] * gx
            Ei = _discrepancy_many(i, params, rows, x3)
            Ej = Ei if j == i else _discrepancy_many(j, params, rows, x3)
            return (mu * np.einsum("ab...,ab...->...", Ei, Ej) * gw).sum(axis=1) * half

    return float(_volume_integrate(column, params, 0.25 * prof.r, spec, ring).value)


# ---------------------------------------------------------------------------
# boundedness sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EllReport:
    """Boundedness sweep of the error bilinear form.

    ``eps_grid`` is strictly decreasing; ``values[p]`` aligns with it for
    every pair ``p``; ``slopes[p]`` is the fitted slope of ``log |ell|``
    against ``log eps`` (negative means growth as the gap closes), or
    ``None`` when a value is zero; ``violations`` lists the pairs whose slope falls below -0.2.
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
# cross pairs whose integrand is odd under x3 -> -x3 (a shear with a squeeze
# type) or x1 -> -x1 (the two shears); see the module docstring
_PARITY_ZERO = ((1, 2), (1, 3), (1, 6), (2, 3), (2, 6))


def err_sweep(params: ProblemParams, eps_list, spec: QuadSpec | None = None) -> EllReport:
    """Evaluate ``ell`` over an epsilon grid and fit boundedness slopes.

    Covers the diagonal pairs ``(i, i)`` for the four sub-flows with nonzero
    dual tensors and every cross pair among them whose velocity scales are
    nonzero.  Only the diagonal pairs and (3, 6) are integrated, serially,
    one epsilon after another; the parity-zero pairs read exactly 0.0.
    A pair with a zero value gets no slope; the others get the
    least-squares slope of ``log |ell|`` against ``log eps``, which is
    ``-fit_exponent`` to the bit; a slope below -0.2 flags a boundedness
    violation.
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
            values[(a, b)].append(0.0 if (a, b) in _PARITY_ZERO else ell(a, b, par, spec))
    values = {pair: tuple(vals) for pair, vals in values.items()}

    slopes = {}
    violations = []
    for pair, vals in values.items():
        if 0.0 in vals:
            slopes[pair] = None
            continue
        slope = -fit_exponent(eps_grid, vals)
        slopes[pair] = slope
        if slope < -0.2:
            violations.append(pair)
    return EllReport(pairs, eps_grid, values, slopes, tuple(violations))
