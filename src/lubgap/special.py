"""Special functions for the gap-blow-up analysis.

This module provides the Gamma function, the two-branch coefficient

    gamma_coeff(i, j, m) = (1/m) * Gamma(i - j/m) * Gamma(j/m)   if i != j/m
                         = 1/m                                    if i == j/m

and the two integral families that carry the singular behaviour of the
hydrodynamic force as the gap width ``eps`` closes:

    phi(i, j, m, r, eps) = int_0^r t^j / (eps + t^m)^i dt
    psi(i, j, s, r, eps) = int_0^r (t + s)^j / (eps + t^2)^i dt

Both families are one layer integral: adaptive Gauss-Kronrod over
``[0, r]``, split where the force route's gap integrals split
(:func:`lubgap.quadrature.layer_splits`, from the layer scale
``eps^(1/m)``, ``sqrt(eps)`` for ``psi``).

The tails of the ``phi`` kernel are incomplete Beta functions.  With
``w = rho^m / eps``, ``a = (j+1)/m`` and ``b = i - a > 0``,

    gap_tail(i, j, m, rho, eps) = int_rho^inf t^j / (eps + t^m)^i dt
                                = eps^(a-i)/m * B(a, b) * I_{1/(1+w)}(b, a),

by the substitution ``u = t^m / eps`` and then ``v = 1/(1+u)``
(:func:`gap_tail`).  With the unregularized
``B_x(p, q) = int_0^x v^(p-1) (1-v)^(q-1) dv``, the branch is chosen on
``w`` itself: for ``w >= 1`` the tail is ``B_x(b, a)`` at
``x = 1/(1+w) <= 1/2``; for ``w < 1`` it is ``B(a, b) - B_z(a, b)`` at
``z = w/(1+w) < 1/2``, computed from ``w``.  (``x`` itself rounds to 1
once ``w < 1.1e-16``, which would drop the ``w^a`` term near the axis.)
On ``[0, 1/2]``, ``B_x(p, q) = x^p int_0^1 s^(p-1) (1 - x s)^(q-1) ds``
is a 12-point Gauss-Jacobi rule for the weight ``s^(p-1)``, with nodes
and weights from the Jacobi matrix (Golub and Welsch, Math. Comp. 23,
1969); the other factor is analytic on ``|s| < 2``.  The relative error
stays below 1e-13; the worst case, about 5e-14, is the complement near
``w = 1`` when ``a`` is small.  At ``m = 2``, ``j = 1`` the tail is
elementary, ``1/(2(i-1)(eps + rho^2)^(i-1))``.

The leading coefficient of ``phi`` in the blow-up branch ``i > (j+1)/m`` is

    (1/m) * B((j+1)/m, i - (j+1)/m) = gamma_coeff(i, j+1, m) / Gamma(i),

obtained by the substitution ``t = eps^(1/m) u`` and the Beta integral
``int_0^inf u^j/(1+u^m)^i du``; for ``i = 1`` the ``1/Gamma(i)`` factor is
unity, which is the form the closed-form force coefficients use.  In the
marginal case ``i = (j+1)/m`` the integral grows like ``(1/m)|ln eps|``,
with the coefficient exactly ``1/m`` (not via Gamma, which has a pole
there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quadrature import QuadSpec, QuadratureError, integrate_1d, layer_splits

__all__ = [
    "gamma",
    "gamma_coeff",
    "phi",
    "gap_tail",
    "psi",
    "AsymptoticTerm",
    "IntervalResidual",
    "AsymptoticExpansion",
    "ToleranceNotMet",
]

#: index pairs (i, j) tabulated in the source analysis; gamma_coeff accepts
#: any admissible pair, these are the ones exercised by the force theorems.
TABULATED_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 3), (3, 4), (3, 5), (3, 6))


class ToleranceNotMet(RuntimeError):
    """Quadrature finished above the requested tolerance.

    Carries the achieved error estimate in ``achieved``.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


def gamma(s: float) -> float:
    """Gamma function for positive real argument.

    Backed by the platform Lanczos-class implementation (``math.gamma``,
    accurate to a few ulp, well within the 1e-13 relative requirement on
    ``(0, 50]``); validated against an arbitrary-precision oracle in the
    test suite.
    """
    if s <= 0.0:
        raise ValueError(f"gamma requires s > 0, got {s}")
    return math.gamma(s)


def gamma_coeff(i, j, m) -> float:
    """Two-branch coefficient ``(1/m)Gamma(i - j/m)Gamma(j/m)`` or ``1/m``.

    The degenerate branch ``i = j/m`` is detected within a relative
    tolerance of 1e-12 on either side, so that roundoff in a real ``m``
    cannot push the evaluation onto the Gamma pole; an exact ``i = j/m``
    rounds to within an ulp of it.
    """
    i_f, j_f, m_f = float(i), float(j), float(m)
    if i_f <= 0.0:
        raise ValueError(f"index i must be positive, got {i}")
    if j_f < 0.0:
        raise ValueError(f"index j must be nonnegative, got {j}")
    if m_f <= 1.0:
        raise ValueError(f"exponent m must exceed 1, got {m}")

    if abs(i_f - j_f / m_f) <= 1e-12 * max(1.0, abs(i_f)):
        return 1.0 / m_f
    if i_f - j_f / m_f < 0.0:
        raise ValueError(f"Gamma pole: i - j/m = {i_f - j_f / m_f} < 0 for ({i}, {j}, {m})")
    if j_f == 0.0:
        # Gamma(j/m) diverges at j=0; the family never uses j=0 with i>j/m
        raise ValueError("j must be positive unless i = j/m")
    return gamma(i_f - j_f / m_f) * gamma(j_f / m_f) / m_f


# ---------------------------------------------------------------------------
# asymptotic expansion containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticTerm:
    """One term ``coeff * eps^(-power)`` or ``coeff * |ln eps|``."""

    coeff: float
    power: float = 0.0
    is_log: bool = False

    def __post_init__(self) -> None:
        if self.is_log and self.power != 0.0:
            raise ValueError("log terms carry power = 0")
        if not self.is_log and self.power < 0.0:
            raise ValueError("powers are recorded as nonnegative exponents of 1/eps")

    def evaluate(self, eps: float) -> float:
        if self.is_log:
            return self.coeff * abs(math.log(eps))
        return self.coeff * eps ** (-self.power)


def _evaluate_terms(terms, eps: float) -> float:
    return sum(t.evaluate(eps) for t in terms)


@dataclass(frozen=True)
class IntervalResidual:
    """Sandwich residual: the uncontrolled part lies between two expansions."""

    lower: tuple[AsymptoticTerm, ...]
    upper: tuple[AsymptoticTerm, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lower", tuple(self.lower))
        object.__setattr__(self, "upper", tuple(self.upper))


@dataclass(frozen=True)
class AsymptoticExpansion:
    """Known singular terms plus a residual class.

    ``residual`` is ``None`` for a plain O(1)-bounded remainder, or an
    :class:`IntervalResidual` when the source theorem pins the next term
    between explicit lower and upper expansions instead of giving it
    exactly.
    """

    terms: tuple[AsymptoticTerm, ...] = ()
    residual: IntervalResidual | None = None

    def __post_init__(self) -> None:
        terms = tuple(self.terms)
        if sum(1 for t in terms if t.is_log) > 1:
            raise ValueError("at most one log term per expansion")
        key = lambda t: (-t.power, t.is_log)
        object.__setattr__(self, "terms", tuple(sorted(terms, key=key)))

    @property
    def is_empty(self) -> bool:
        return not self.terms and self.residual is None

    def evaluate(self, eps: float) -> float:
        """Sum of the known (equality-side) terms at ``eps``."""
        if not 0.0 < eps:
            raise ValueError("eps must be positive")
        return _evaluate_terms(self.terms, eps)

    def evaluate_bounds(self, eps: float) -> tuple[float, float]:
        """Lower/upper values including the interval residual (if any)."""
        base = self.evaluate(eps)
        if self.residual is None:
            return base, base
        return (
            base + _evaluate_terms(self.residual.lower, eps),
            base + _evaluate_terms(self.residual.upper, eps),
        )


# ---------------------------------------------------------------------------
# integral families
# ---------------------------------------------------------------------------

_PHI_TOL = 1e-10


def _layer_integral(f, m: float, r: float, eps: float, label: str) -> float:
    """``int_0^r f(t) dt`` for an integrand that varies on the layer scale
    ``delta = eps^(1/m)``: one adaptive pass split at ``layer_splits(m, eps,
    r)``, so each panel beyond the layer is as wide as its distance from the
    axis.  Relative error 1e-10, else :class:`ToleranceNotMet`."""
    if eps <= 0.0 or m <= 0.0:
        raise ValueError(f"eps and m must be positive, got eps = {eps}, m = {m}")
    if r < 0.0:
        raise ValueError("r must be nonnegative")
    splits = layer_splits(m, eps, r)
    try:
        res = integrate_1d(f, 0.0, r, QuadSpec(rel_tol=1e-13, max_subdivisions=400, split_points=splits))
    except QuadratureError as exc:
        raise ToleranceNotMet(f"{label} quadrature: {exc}", exc.result.error_estimate)
    if res.error_estimate > _PHI_TOL * abs(res.value):
        raise ToleranceNotMet(
            f"{label} achieved {res.error_estimate:.3e} > {_PHI_TOL:.0e} rel", res.error_estimate
        )
    return res.value


def phi(i: float, j: float, m: float, r: float, eps: float) -> float:
    """Blow-up integral ``int_0^r t^j / (eps + t^m)^i dt``.

    The integrand varies on the boundary-layer scale ``delta = eps^(1/m)``;
    one adaptive pass splits at ``layer_splits(m, eps, r)``.  Relative
    error 1e-10.
    """
    if j <= -1.0:
        raise ValueError(f"phi diverges at t = 0 for j <= -1, got j = {j}")
    f = lambda t: t**j / (eps + t**m) ** i
    return _layer_integral(f, m, r, eps, f"phi({i},{j},{m},{r},{eps})")


def gap_tail(i: float, j: float, m: float, rho, eps: float):
    """Closed-form tail ``int_rho^inf t^j / (eps + t^m)^i dt``, vectorized in ``rho``.

    Requires ``b = i - (j+1)/m > 0`` (the tail converges) and ``rho >= 0``.
    At ``rho = 0`` this is the complete integral
    ``eps^(a-i)/m * B(a, b)``, ``a = (j+1)/m``.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    a = (j + 1.0) / m
    b = i - a
    if b <= 0.0:
        raise ValueError(f"the tail diverges: i - (j+1)/m = {b} <= 0")
    rho = np.asarray(rho, dtype=float)
    if (rho < 0.0).any():
        raise ValueError("rho must be nonnegative")
    if m == 2.0 and j == 1:
        return 1.0 / (2.0 * (i - 1.0) * (eps + rho * rho) ** (i - 1.0))
    w = np.atleast_1d(rho**m / eps)
    out = np.empty_like(w)
    far = w >= 1.0
    near = ~far
    if far.any():
        out[far] = _incomplete_beta(b, a, 1.0 / (1.0 + w[far]))
    if near.any():
        z = w[near] / (1.0 + w[near])
        out[near] = gamma(a) * gamma(b) / gamma(i) - _incomplete_beta(a, b, z)
    return eps ** (a - i) / m * out.reshape(rho.shape)


_JACOBI_NODES = 12


@lru_cache(maxsize=64)
def _gauss_jacobi(p: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss rule for ``int_0^1 s^(p-1) f(s) ds``.

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    the polynomials orthogonal for that weight (the Jacobi polynomials
    ``P_n^(0, p-1)`` moved to ``[0, 1]``), the weights the squared first
    eigenvector components times the mass ``1/p``.
    """
    beta = p - 1.0
    n = np.arange(1.0, _JACOBI_NODES)
    k = 2.0 * n + beta
    diag = np.concatenate([[beta / (beta + 2.0)], beta * beta / (k * (k + 2.0))])
    off = n * (n + beta) / (k * np.sqrt(k * k - 1.0))
    nodes, vecs = np.linalg.eigh(np.diag(0.5 + 0.5 * diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, vecs[0] ** 2 / p


def _incomplete_beta(p: float, q: float, x: np.ndarray) -> np.ndarray:
    """``B_x(p, q) = int_0^x v^(p-1) (1 - v)^(q-1) dv`` for ``0 <= x <= 1/2``.

    The rule is summed point by point (``einsum``, not a BLAS product, whose
    rounding depends on where a point sits in ``x``), so each value is
    independent of the other entries of ``x``.
    """
    s, weights = _gauss_jacobi(p)
    return x**p * np.einsum("...j,j->...", (1.0 - np.multiply.outer(x, s)) ** (q - 1.0), weights)


def psi(i: float, j: float, s: float, r: float, eps: float) -> float:
    """Shifted family ``int_0^r (t + s)^j / (eps + t^2)^i dt``.

    Reduces to ``phi`` with ``m = 2`` when ``s = 0``, and splits as it does,
    from the layer scale ``sqrt(eps)``.  Relative error 1e-10.
    """
    if s < 0.0:
        raise ValueError("s must be nonnegative")
    if s == 0.0 and j <= -1.0:
        raise ValueError(f"psi diverges at t = 0 for s = 0 and j <= -1, got j = {j}")
    f = lambda t: (t + s) ** j / (eps + t**2) ** i
    return _layer_integral(f, 2.0, r, eps, f"psi({i},{j},{s},{r},{eps})")
