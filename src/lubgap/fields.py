"""Closed-form lubrication sub-flow fields in the gap region.

The velocity field between the particles is built as a sum of sub-flows,
each matching one piece of the rigid-body boundary data and each given in
closed form as a polynomial in the vertical coordinate whose coefficients
are algebraic functions of the gap ``h`` and its planar derivatives.  There
are seven in 3D (``k = 0..6``) and five in 2D (``k = 0..4``), in three
families:

* the rigid mean (``k = 0``), the only field written out by hand;
* the shear type: the horizontal shears (3D ``k = 1, 2``, 2D ``k = 1``), the
  vertical spin (3D ``k = 4``) and the gap-scale shear corrections (3D
  ``k = 5``, 2D ``k = 3``).  They have ``u' = x3 V(x')``, ``u3 = (h^2/4 -
  x3^2) div V / 2`` and no pressure, with ``V = (a + b/h) e + g J x'/h``
  and ``J x' = (-x2, x1)``; each names its ``(a, b, e, g)`` once
  (:func:`_shear_type`), and one engine, :func:`_eval_shear_type`, builds
  the field from the radial jet of ``h``;
* the squeeze type: the vertical squeezes (3D ``k = 3``, 2D ``k = 2``) and
  the rotations (3D ``k = 6``, 2D ``k = 4``).  On each planar axis ``a``,
  ``B_a = c_a x_a^p / h^3`` and ``A_a = -3/4 h^2 B_a``, with ``p = 1`` for a
  squeeze and ``p = 2`` for a rotation.  One coefficient engine,
  :func:`_coefficient_derivs`, gives the coefficients and their exact
  planar derivatives from the radial jet of ``h``; each sub-flow only
  names its ``(p, c)`` (:func:`_squeeze_type`) and its pressure integral.
  The dual check (:mod:`lubgap.dualcheck`) reads the same engine.

One evaluator, :func:`_eval`, serves both dimensions.  The engines read
``rho``, ``h`` and the radial jet from the caller's planar gap record
(:meth:`GapProfile.at`), so sub-flows on shared points share one record.

The squeeze-type sub-flows carry a pressure built from running integrals of
``t^j / h^3`` kernels.  The radial ones (3D squeeze, 2D squeeze and
rotation) are differences of closed-form kernel tails, incomplete Beta
functions.  The 3D rotation pressure reads ``Q_3(a, c) = int_0^a t^2 /
h(sqrt(t^2 + c^2))^3 dt`` from :func:`_running_integral`: an arctan form
on m-convex profiles with ``m = 2``, a fixed Gauss-Legendre rule exact to
roundoff otherwise.  The same function gives the dual check its rotation
potentials; the force route integrates the moments of that pressure term
in closed-form radial rows instead (:mod:`lubgap.traction`).  No pressure is tabulated, so none adds an error term.
Velocity gradients are fully analytic -- no finite differences enter the
stress evaluation.

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

from .geometry import GapProfile, SurfacePoint
# lubgap.fields.integrate_1d stays importable: the perfbench tracer wraps it by name
from .quadrature import _gauss_legendre, integrate_1d  # noqa: F401
from .special import gap_tail

__all__ = [
    "ProblemParams",
    "FieldEval",
    "subflow_indices",
    "subflow_scale",
    "eval_field",
    "eval_field_many",
    "boundary_target",
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
    """Velocity scale of sub-flow ``k``, zero exactly when the field vanishes: the largest
    motion component for the rigid mean, else from the amplitudes the sub-flow names."""
    if k == 0:
        return float(np.max(np.abs(np.append(params.U, params.omega))))
    squeeze = _squeeze_type(k, params)
    if squeeze:
        return max(abs(v) for v in squeeze[1])
    a, b, e, g = _shear_type(k, params)
    return max(abs(a), abs(b)) * max(abs(v) for v in e) + abs(g)


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
# pressure integrals: closed-form kernel tails and the running integral Q_n
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


@lru_cache(maxsize=64)
def _kernel_tail_at(profile: GapProfile, j: int, rho: float) -> float:
    """:func:`_kernel_tail` at one ``rho``, kept per profile: the constants ``T(0)``, ``T(r)``."""
    return float(_kernel_tail(profile, j, rho))


# Gauss-Legendre nodes per panel of the running-integral rule
_GL_NODES = 16
# pairs (a, c) per block of the running-integral rule
_PAIR_BLOCK = 128


@lru_cache(maxsize=2)
def _sinh_rule(graded: bool):
    """Nodes and weights on ``[0, 1]`` of the running-integral rule.

    Eight equal panels of 16 Gauss-Legendre nodes; ``graded`` splits the
    first panel geometrically toward 0 (ratio 0.15, four levels), where
    ``h`` is not analytic in ``t`` for m-convex profiles with ``m/2`` not
    an integer.
    """
    edges = np.linspace(0.0, 1.0, 9)
    if graded:
        edges = np.concatenate([[0.0], edges[1] * 0.15 ** np.arange(4.0, 0.0, -1.0), edges[1:]])
    lo, half = edges[:-1, None], 0.5 * np.diff(edges)[:, None]
    x, w = _gauss_legendre(_GL_NODES)
    return (lo + half * (x + 1.0)).ravel(), (half * w).ravel()


def _running_integral(profile: GapProfile, n: int, a, c, second: bool = False):
    """``Q_n(a, c) = int_0^a t^2 / h(sqrt(t^2 + c^2))^n dt``, or ``d^2 Q_n / dc^2``.

    ``n`` is 1 or 3 and the arguments broadcast; ``Q_n`` is odd in ``a``
    and even in ``c``.  The 3D rotation pressure reads ``Q_3``
    (:func:`_eval_squeeze_type`), the rotation's dual
    potentials read ``d22 Q_1`` and ``d22 Q_3`` (:mod:`lubgap.dualcheck`).

    * m-convex ``m = 2``: ``h = A + t^2`` with ``A = eps + c^2``, so
      ``Q_3`` is an arctan form and ``Q_1 = a - sqrt(A) arctan(a/sqrt(A))``.
      ``d/dc = 2c d/dA`` gives ``d22 Q_n = -2n J_(n+1) + 4n(n+1) c^2
      J_(n+2)``, with ``J_k = I_(k-1) - A I_k`` and ``I_k = int_0^a
      (A + t^2)^-k dt`` by the reduction formula.
    * otherwise a fixed Gauss-Legendre rule (:func:`_sinh_rule`) in
      ``t = t0 + scale sinh(tau)``, ``tau`` in ``[0, asinh((a - t0) /
      scale)]``.  m-convex: ``t0 = 0`` and ``scale = max(delta, c)``.  Flat
      caps of radius ``s``: ``h`` is ``eps`` inside the rim ``t = sqrt(s^2
      - c^2)``, where the integral is ``t^3 / (3 eps^n)`` and its ``c``
      derivatives vanish; the rule starts at the rim (at ``t = 0`` for
      ``c >= s``), with ``scale`` the width over which ``h`` grows beyond
      it, and takes ``rho - s`` from the rim offset, free of cancellation.
      ``d22`` goes under the integral as the radial jet of ``h^-n``.

    Both are exact to roundoff; ``tests/test_fields.py`` holds them to
    high-precision quadrature.
    """
    a, c = np.broadcast_arrays(np.asarray(a, float), np.asarray(c, float))
    eps = profile.eps
    if profile.kind == "m-convex" and profile.m == 2.0:
        A = eps + np.square(c)
        sA = np.sqrt(A)
        at = np.arctan(a / sA)
        if not second:
            if n == 3:
                return a * (a * a - A) / (8.0 * A * (A + a * a) ** 2) + at / (8.0 * A * sA)
            return a - sA * at
        I = [a, at / sA]
        for k in range(1, n + 2):
            I.append(a / (2.0 * k * A * (A + a * a) ** k) + (2.0 * k - 1.0) / (2.0 * k * A) * I[k])
        J1, J2 = (I[k - 1] - A * I[k] for k in (n + 1, n + 2))
        return -2.0 * n * J1 + 4.0 * n * (n + 1) * np.square(c) * J2

    shape = a.shape
    sgn, a, c = np.sign(a).ravel(), np.abs(a).ravel(), np.abs(c).ravel()
    flat = profile.kind == "flat-capped"
    if flat:
        s, d = profile.s, np.sqrt(eps)
        rim = np.sqrt(np.maximum((s - c) * (s + c), 0.0))
        t0, u0 = np.minimum(a, rim), np.maximum(c - s, 0.0)
        with np.errstate(divide="ignore"):
            scale = np.where(
                c < s,
                np.minimum(d * s / rim, np.sqrt(2.0 * s * d)),
                np.sqrt(2.0 * c) * (eps + u0 * u0) ** 0.25,
            )
    else:
        t0 = np.zeros_like(a)
        scale = np.maximum(profile.boundary_layer_scale(), c)
    span = np.arcsinh((a - t0) / scale)
    X, W = _sinh_rule(not flat and profile.m % 2.0 != 0.0)
    out = np.empty_like(a)
    # blocks of pairs keep the node arrays in cache
    for lo in range(0, a.size, _PAIR_BLOCK):
        b = slice(lo, lo + _PAIR_BLOCK)
        sh = np.sinh(span[b, None] * X)
        x = scale[b, None] * sh
        t = t0[b, None] + x
        tt, cc = t * t, (c[b] * c[b])[:, None]
        rho2 = tt + cc
        if flat:
            # rho - s_cap = (rho^2 - s_cap^2) / (rho + s_cap), with rho^2 - s_cap^2
            # = x (x + 2 rim) inside the rim and u0 + t^2 / (rho + c) outside
            rho = np.sqrt(rho2)
            u = u0[b, None] + x * (x + 2.0 * t0[b, None]) / (rho + np.maximum(c[b], s)[:, None])
            h = eps + u * u
        else:
            # rho^(m - 2), from which h and its radial jet follow
            P = rho2 ** (0.5 * profile.m - 1.0)
            h = eps + rho2 * P
        g = 1.0 / h if n == 1 else 1.0 / (h * h * h)
        if second:
            # d22 of h(rho)^-n is a1 + a2 c^2 with the jet a1 = -n g e1 and
            # a2 = n g ((n + 1) e1^2 - e2), e_j = H_j / h (see GapProfile.radial_jet);
            # rho = 0 only at t = 0, where the node weight vanishes
            rho2 = np.where(rho2 > 0.0, rho2, 1.0)
            if flat:
                rho = np.sqrt(rho2)
                e1, e2 = 2.0 * u / (rho * h), 2.0 * s / (rho * rho2 * h)
            else:
                e1 = profile.m * P / h
                e2 = (profile.m - 2.0) * e1 / rho2
            g = n * g * (((n + 1) * e1 * e1 - e2) * cc - e1)
        out[b] = (tt * g * np.sqrt(1.0 + sh * sh) * W).sum(axis=1)
    out *= span * scale
    if flat and not second:
        out += t0**3 / (3.0 * eps**n)
    return (sgn * out).reshape(shape)


def pressure_cache_error(k: int, profile: GapProfile) -> float:
    """Table error of sub-flow ``k``'s pressure: zero, no pressure is tabulated.

    Every pressure is closed-form, or (3D rotation off m-convex ``m = 2``)
    a fixed Gauss rule exact to roundoff, so no table error term enters
    the force bounds.  Kept so that callers that propagate a table error
    keep working.
    """
    return 0.0


# ---------------------------------------------------------------------------
# squeeze-type sub-flows: one ansatz, exact planar derivatives
# ---------------------------------------------------------------------------


def _squeeze_type(k: int, params: ProblemParams):
    """``(p, c)`` of squeeze-type sub-flow ``k``: 3D ``k = 3, 6``, 2D ``k = 2, 4``;
    ``None`` for the other sub-flows.

    Each planar axis ``a`` has ``B_a = c_a x_a^p / h^3`` and
    ``A_a = -3/4 h^2 B_a``.
    """
    if params.profile.dimension == 3:
        U3, (w1, w2, _w3) = params.U[2], params.omega
        return {3: (1, (-U3, -U3)), 6: (2, (w2, -w1))}.get(k)
    return {2: (1, (-2.0 * params.U[1],)), 4: (2, (-params.omega,))}.get(k)


def _monomial_derivs(p, jet, x, y=None, entries=None):
    """The ``entries`` (all but the last by default) of ``[f, f_x, f_y, f_xx,
    f_xy, f_yy, d_x (f_xx + f_yy)]`` of ``f = x^p u``, ``p`` in {1, 2}.

    ``u`` is radial with the jet ``jet = (u, a1, ..)`` (see
    :meth:`GapProfile.radial_jet`), as long as the entries read.  Without
    ``y`` (the line ``y = 0`` of 2D) the ``y`` derivatives are ``None``.
    """
    u, a1, a2, a3 = (*jet, None, None, None)[:4]
    P, P1, P11 = (x, 1.0, 0.0) if p == 1 else (x * x, 2.0 * x, 2.0)
    entry = (
        lambda: P * u,
        lambda: P1 * u + P * a1 * x,
        lambda: P * a1 * y,
        lambda: P * (a1 + a2 * x * x) + 2.0 * P1 * a1 * x + P11 * u,
        lambda: (P * a2 * x + P1 * a1) * y,
        lambda: P * (a1 + a2 * y * y),
        lambda: P * x * (4.0 * a2 + a3 * (x * x + y * y))
        + P1 * (4.0 * a1 + a2 * (3.0 * x * x + y * y))
        + 3.0 * P11 * a1 * x,
    )
    return [None if y is None and i in (2, 4, 5) else entry[i]() for i in entries or range(6)]


def _coefficient_derivs(gap, p, c, entries=None):
    """Squeeze-type coefficients and their exact planar derivatives.

    ``A_a = -3/4 c_a x_a^p / h`` and ``B_a = c_a x_a^p / h^3`` for each
    entry of ``c`` at the planar points of the gap record ``gap`` (axes
    ``x1``, ``x2``; a one-entry ``c`` is the 2D form on ``x1``).  Returns
    ``[A1, A2, B1, B2]`` (``[A1, B1]`` in 2D, without the ``x2`` derivatives,
    which are ``None``), each ``[f, d1 f, d2 f, d11 f, d12 f, d22 f]``, or
    (3D) only the ``entries`` of ``[f, d_a f, d_b f, d_aa f, d_ab f, d_bb f,
    d_a lap f]`` on its own axis ``a``, from only the jet they read.  The
    chain rule carries the jet of ``h`` over to ``h^-n`` and the Leibniz
    rule to the product, without dividing by ``rho``.
    """
    # the order of the jet each entry reads
    order = max((0, 1, 1, 2, 2, 2, 3)[i] for i in entries) if entries else 2
    h = gap.h
    x1, x2 = (*gap.xprime, None)[:2]
    e = [H / h for H in gap.jet[: max(order, 1)]]
    out = []
    for scale, n in ((-0.75, 1), (1.0, 3)):
        u = 1.0 / h**n
        jet = [u, -n * u * e[0]]
        if order > 1:
            jet.append(n * u * ((n + 1) * e[0] * e[0] - e[1]))
        if order > 2:
            jet.append(-n * u * ((n + 1) * e[0] * ((n + 2) * e[0] * e[0] - 3.0 * e[1]) + e[2]))
        jets = [[scale * ca * a for a in jet[: order + 1]] for ca in c]
        out.append(_monomial_derivs(p, jets[0], x1, x2, entries))
        if len(c) == 2:
            # on its own axis x2 first; reordered to x1, x2 unless entries are asked for
            f = _monomial_derivs(p, jets[1], x2, x1, entries)
            out.append(f if entries else [f[i] for i in (0, 2, 1, 5, 4, 3)])
    return out


def _eval_squeeze_type(k, params, gap, z, running=True):
    """``(u, pressure, grad)`` of a squeeze-type sub-flow at heights ``z``.

    ``u_a = -(A_a + 3 B_a z^2)`` on the planar axes and ``A3 z + B3 z^3``
    vertically, with ``A3 = sum_a d_a A_a`` and ``B3 = sum_a d_a B_a``, so the
    field is divergence-free.  The pressure is ``mu (3 B3 z^2 - A3 - 6 G)``,
    where ``G`` integrates ``B_a`` along ``x_a``; ``G`` is all that differs
    between the sub-flows (``running=False`` leaves it out).  In 2D ``z`` is
    the second coordinate.
    """
    prof = params.profile
    p, c = _squeeze_type(k, params)
    d = len(c)
    coefs = _coefficient_derivs(gap, p, c)
    A, B = coefs[:d], coefs[d:]
    zsq = z * z
    u = np.empty((d + 1,) + z.shape)
    grad = np.empty((d + 1, d + 1) + z.shape)
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
    if not running:
        G = 0.0
    elif p == 1:
        # radial: c int_r^|x'| t / h^3 dt, a difference of kernel tails
        G = -c[0] * (_kernel_tail(prof, 1, gap.rho) - _kernel_tail_at(prof, 1, prof.r))
    elif d == 2:
        x1, x2 = gap.xprime
        q = lambda a, b: _running_integral(prof, 3, a, b)
        G = c[0] * (q(x1, x2) - q(prof.r, x2)) + c[1] * (q(x2, x1) + q(prof.r, x1))
    else:
        # int_0^x t^2 / h^3 dt = T(0) - T(x) for the kernel tail T
        T0, Tr = (_kernel_tail_at(prof, 2, t) for t in (0.0, prof.r))
        Tx = _kernel_tail(prof, 2, gap.rho)
        G = c[0] * (np.sign(gap.xprime[0]) * (T0 - Tx) + (T0 - Tr))
    return u, params.mu * (3.0 * B3 * zsq - A3 - 6.0 * G), grad


# ---------------------------------------------------------------------------
# shear-type sub-flows: one ansatz, zero pressure
# ---------------------------------------------------------------------------


def _shear_type(k: int, params: ProblemParams):
    """``(a, b, e, g)`` of shear-type sub-flow ``k``: ``V = (a + b/h) e + g (-x2, x1)/h``."""
    prof = params.profile
    if prof.dimension == 2:
        w0 = params.omega
        return {
            1: (0.0, params.U[0] + w0 * prof.R, (1.0,), 0.0),
            3: (-0.5, 0.5 * prof.eps, (w0,), 0.0),
        }[k]
    U1, U2, _U3 = params.U
    w1, w2, w3 = params.omega
    return {
        1: (0.0, U1 - w2 * prof.R, (1.0, 0.0), 0.0),
        2: (0.0, U2 + w1 * prof.R, (0.0, 1.0), 0.0),
        4: (0.0, 0.0, (0.0, 0.0), w3),
        5: (0.5, -0.5 * prof.eps, (w2, -w1), 0.0),
    }[k]


def _eval_shear_type(k, params, gap, z):
    """``(u, pressure, grad)`` of a shear-type sub-flow at heights ``z``.

    The n = 1 chain rule of :func:`_coefficient_derivs` gives ``d_i (1/h) =
    f1 x_i`` and ``d_ij (1/h) = f1 delta_ij + f2 x_i x_j``.
    The ``J`` part of ``V`` is divergence-free for radial ``h``, so ``div V =
    b f1 (e . x')`` and the vertical spin (3D ``k = 4``) has ``u_z = 0`` exactly.
    """
    a, b, e, g = _shear_type(k, params)
    xp, h = gap.xprime, gap.h
    d = len(xp)
    H1, H2 = gap.jet[:2]
    inv = 1.0 / h
    f1 = -H1 * inv * inv
    f2 = inv * inv * (2.0 * H1 * H1 * inv - H2)
    # d_j V_i = f1 c_i x_j + g J_ij / h, with c = b e + g J x'
    V = [(a + b / h) * ei for ei in e]
    c = [b * ei for ei in e]
    if g:
        V = [V[0] - g * inv * xp[1], V[1] + g * inv * xp[0]]
        c = [c[0] - g * xp[1], c[1] + g * xp[0]]
    u = np.empty((d + 1,) + z.shape)
    grad = np.empty((d + 1, d + 1) + z.shape)
    zf1 = z * f1
    for i in range(d):
        u[i] = z * V[i]
        grad[i, d] = V[i]
        for j in range(d):
            grad[i, j] = zf1 * c[i] * xp[j]
    if g:
        grad[0, 1] -= z * g * inv
        grad[1, 0] += z * g * inv
    # h^2 f1 = -H1: u_z = -b (e . x') Q, radial Q = H1/8 + z^2 f1/2, d_j Q = P x_j
    ex = sum(ei * x for ei, x in zip(e, xp))
    Q = 0.125 * H1 + 0.5 * z * z * f1
    P = 0.125 * H2 + 0.5 * z * z * f2
    u[d] = -b * ex * Q
    grad[d, d] = -b * ex * zf1
    for j in range(d):
        grad[d, j] = -b * (e[j] * Q + ex * P * xp[j])
    return u, np.zeros(z.shape), grad


# ---------------------------------------------------------------------------
# one evaluator for both dimensions: the rigid mean k = 0 is the only
# hand-written field
# ---------------------------------------------------------------------------


def _eval(k: int, params: ProblemParams, gap, z, running=True):
    """``(u, pressure, grad)`` of sub-flow ``k`` at heights ``z`` over the points of
    ``gap`` (jet order 2 or more), whose planar rows ``(n, 1)`` broadcast against
    heights ``(n, g)``; ``running=False`` leaves out a squeeze type's ``G``."""
    d = len(gap.xprime)
    if k not in subflow_indices(d + 1):
        raise ValueError(f"sub-flow index {k} invalid for dimension {d + 1}")
    if _squeeze_type(k, params):
        return _eval_squeeze_type(k, params, gap, z, running)
    if k:
        return _eval_shear_type(k, params, gap, z)
    # the rigid mean: u = (U + omega x nu) / 2 with the lever arm nu = (x', (h -
    # eps)/2 - R) and omega x nu = Omega nu, each row summed from its cyclic
    # predecessor on, as boundary_target sums it; grad u = Omega (grad nu) / 2
    prof, w = params.profile, params.omega
    spin = ((0.0, -w[2], w[1]), (w[2], 0.0, -w[0]), (-w[1], w[0], 0.0)) if d == 2 else ((0.0, -w), (w, 0.0))
    nu = (*gap.xprime, 0.5 * (gap.h - prof.eps) - prof.R)
    g = [gap.jet[0] * x for x in gap.xprime]
    shape = np.broadcast_shapes(np.shape(gap.h), z.shape)
    u = np.empty((d + 1,) + shape)
    grad = np.zeros((d + 1, d + 1) + shape)
    for i in range(d + 1):
        total = params.U[i]
        for j in ((i + s) % (d + 1) for s in range(d, 0, -1)):
            total = total + spin[i][j] * nu[j]
        u[i] = 0.5 * total
        for j in range(d):
            # d_j nu = e_j + e_d H1 x_j / 2; the zero entries Omega_ii add no term
            grad[i, j] = 0.5 * spin[i][j] if i == d else 0.25 * spin[i][d] * g[j]
            if i != j and i != d:
                grad[i, j] += 0.5 * spin[i][j]
    return u, np.zeros(shape), grad


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
    *xprime, z = (np.asarray(c, dtype=float).ravel() for c in coords)
    return _eval(k, params, params.profile.at(xprime, 2), z)


def eval_field(k: int, params: ProblemParams, x) -> FieldEval:
    """Evaluate sub-flow ``k`` at point ``x``.

    ``x`` is ``(x1, x2, x3)`` in 3D or ``(x1, x2)`` in 2D.  Sub-flows
    whose pressure vanishes identically return ``p = 0.0`` exactly.
    """
    coords = [np.array([float(v)]) for v in x]
    u, p, grad = eval_field_many(k, params, *coords)
    return FieldEval(u=u[:, 0].copy(), p=float(p[0]), grad_u=grad[:, :, 0].copy())


def boundary_target(k: int, params: ProblemParams, sp: SurfacePoint) -> np.ndarray:
    """Boundary value sub-flow ``k`` is built to match at surface point ``sp``.

    The targets are the even/odd split of the rigid-body data: the sum over
    all sub-flows equals ``U + omega x nu`` on the top boundary and ``0`` on
    the bottom one.  They are written out independently of the field
    engines, so that the boundary checks compare two derivations.  Shape
    ``(d,)``, or ``(d, n)`` for a ``sp`` sampled at ``n`` points.
    """
    prof = params.profile
    d = prof.dimension
    if k not in subflow_indices(d):
        raise ValueError(f"sub-flow index {k} invalid for dimension {d}")
    sgn = np.sign(sp.x3)
    h = prof.h_radial(np.hypot(*sp.xprime) if d == 3 else np.abs(sp.xprime))
    rows = lambda *vals: np.stack(np.broadcast_arrays(*vals))

    if d == 3:
        x1, x2 = sp.xprime
        U1, U2, U3 = params.U
        w1, w2, w3 = params.omega
        if k == 0:
            w = 0.5 * (h - prof.eps) - prof.R
            return rows(
                0.5 * (U1 + w2 * w - w3 * x2),
                0.5 * (U2 + w3 * x1 - w1 * w),
                0.5 * (U3 + w1 * x2 - w2 * x1),
            )
        if k == 1:
            return rows(sgn * 0.5 * (U1 - w2 * prof.R), 0.0, 0.0)
        if k == 2:
            return rows(0.0, sgn * 0.5 * (U2 + w1 * prof.R), 0.0)
        if k == 3:
            return rows(0.0, 0.0, sgn * 0.5 * U3)
        if k == 4:
            return rows(-sgn * 0.5 * w3 * x2, sgn * 0.5 * w3 * x1, 0.0)
        if k == 5:
            gap4 = 0.25 * (h - prof.eps)
            return rows(sgn * gap4 * w2, -sgn * gap4 * w1, 0.0)
        # k == 6
        return rows(0.0, 0.0, sgn * 0.5 * (w1 * x2 - w2 * x1))

    x1 = sp.xprime
    U1, U2 = params.U
    w0 = params.omega
    if k == 0:
        return rows(0.5 * (U1 + w0 * (prof.R - 0.5 * (h - prof.eps))), 0.5 * (U2 + w0 * x1))
    if k == 1:
        return rows(sgn * 0.5 * (U1 + w0 * prof.R), 0.0)
    if k == 2:
        return rows(0.0, sgn * 0.5 * U2)
    if k == 3:
        return rows(-sgn * 0.25 * w0 * (h - prof.eps), 0.0)
    # k == 4
    return rows(0.0, sgn * 0.5 * w0 * x1)

