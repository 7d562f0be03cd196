"""Closed-form blow-up expansions of the hydrodynamic force and torque.

For each supported geometry the force/torque components are given as
asymptotic expansions in the gap width ``eps``: explicitly known singular
terms, plus either a plain O(1) remainder or a *sandwich residual* whose
next singular term is only pinned between explicit lower and upper
expansions (rotation-driven contributions in 3D).

Conventions:

* All expansions are for the force/torque exerted on the upper particle,
  with the torque taken about its centroid.
* The sandwich inequalities are established under the sign normalization
  ``U3 <= 0``, ``omega_i >= 0``.  When the supplied motion violates it the
  interval residuals are dropped (the known terms remain valid) and a
  warning is recorded on the result and emitted via :mod:`warnings`.
* Flat-capped expansions require the cap hypothesis ``s < (sqrt(2)-1) r``;
  pass ``override_flat_hypothesis=True`` to evaluate outside the proven
  range (with a warning).

The printed torque sandwich builders for the 3D flat cap omit the
viscosity factor present in every other coefficient of the family; it is
restored here (all coefficients scale linearly in ``mu``).
"""

from __future__ import annotations

import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from .fields import ProblemParams
from .special import AsymptoticExpansion, AsymptoticTerm, IntervalResidual, gamma, gamma_coeff

__all__ = [
    "TheoremResult",
    "force_asymptotic_3d",
    "force_asymptotic_3d_flat",
    "force_asymptotic_2d",
    "force_asymptotic_2d_flat",
    "force_asymptotic",
    "fit_exponent",
    "alpha_coefficients",
]


@dataclass(frozen=True)
class TheoremResult:
    """Asymptotic force/torque expansions for one configuration.

    ``F`` holds one expansion per force component; ``T`` holds three
    expansions in 3D and a single one in 2D (scalar torque).
    ``coefficients`` maps each named closed-form coefficient of the theorem
    to its value; every term of the expansions reads its coefficient there.
    """

    F: tuple
    T: tuple | AsymptoticExpansion
    coefficients: dict
    warnings: tuple = ()

    def components(self) -> tuple:
        """The forces' expansions, then the torque's, in the order of
        :func:`lubgap.report.component_names`."""
        return (*self.F, *(self.T if isinstance(self.T, tuple) else (self.T,)))


# the lowest exponent q at which a log-type term continued past its branch
# point is kept: its b carries Gamma(1 + q), whose pole is at q = -1.  The
# edges fall at m = 15/11 (b35) and m = 9/5 (b13).
_Q_MIN = -2.0 / 3.0


def _pole_free(i, j, m) -> float:
    """``Gamma(1 + q) Gamma(j/m) / m`` with ``q = i - j/m``: ``q`` times
    :func:`gamma_coeff`, finite through ``q = 0``."""
    return gamma(1.0 + i - j / m) * gamma(j / m) / m


def alpha_coefficients(m: float, mu: float) -> dict:
    """The coefficients of the m-convex theorems that depend on ``m`` and ``mu``
    alone.  A term ``c eps^-q`` whose exponent ``q = i - j/m`` crosses 0 is
    read in the log-type form ``b (eps^-q - 1)/q`` with the pole-free ``b = q
    c``: ``b12_3d``, ``b11_2d``, ``b35_2d`` and ``b13_2d``, each wherever it is
    finite (``q > -1``).  ``alpha34_3d`` is given at ``m >= 2`` (3D profiles),
    ``alpha33_2d`` at every ``m``.
    """
    out = {"b12_3d": 2.0 * np.pi * mu * _pole_free(1, 2, m)}
    if m >= 2.0:
        out["alpha34_3d"] = 1.5 * np.pi * mu * gamma_coeff(3, 4, m)
    out["b11_2d"] = 2.0 * mu * _pole_free(1, 1, m)
    out["alpha33_2d"] = 3.0 * mu * gamma_coeff(3, 3, m)
    # b13 is q (mu/2m) ((18 + 3m) Gamma(1,3;m) + 6m Gamma(2,3;m)), and
    # Gamma(2,3;m) = q Gamma(1,3;m) folds the bracket to 9m
    for name, scale, i, j in (("b35_2d", 3.0, 3, 5), ("b13_2d", 4.5, 1, 3)):
        if 1.0 + i - j / m > 0.0:
            out[name] = scale * mu * _pole_free(i, j, m)
    return out


def _terms(*pairs) -> tuple:
    """Build terms from (coeff, power) pairs, or (coeff, power, True) for the
    log-type form, dropping exact zeros so that empty components stay empty."""
    return tuple(AsymptoticTerm(float(c), float(p), *log) for c, p, *log in pairs if c != 0.0)


# the power p of the term eps^-p that each 2D flat-cap coefficient name's
# suffix names; the suffix 0 names the logarithmic term
_LADDER_POWERS = {"1/2": 0.5, "1": 1.0, "3/2": 1.5, "2": 2.0, "5/2": 2.5, "3": 3.0}


def _ladder(coeffs: dict, family: str) -> AsymptoticExpansion:
    """``-sum_p coeffs[family_p] eps^-p`` over the names of ``family``, in
    their order; the log term is ``-coeff ln eps = +coeff |ln eps|``."""
    pairs = []
    for name, value in coeffs.items():
        head, _, suffix = name.partition("_")
        if head == family:
            pairs.append((value, 0.0, True) if suffix == "0" else (-value, _LADDER_POWERS[suffix]))
    return AsymptoticExpansion(_terms(*pairs))


def _sandwich_3d(params: ProblemParams, shear, extra, f3, bounds, c: dict) -> TheoremResult:
    """F1..T3 of a 3D theorem.  ``shear(f, cu)`` gives the shear terms of
    factor ``f cu`` (``cu1 = U1 - w2 R``, ``cu2 = U2 + w1 R``), ``extra`` the
    forces' unit rotation terms, ``f3`` F3's known terms, and ``bounds`` the
    unit sandwich bounds ``(B1, B2, C1, C2, D1, D2)``, with ``B1 <= B2`` and
    so on; a component scales its unit terms by its rotation factor.

    The sandwiches hold under the sign normalization ``U3 <= 0``, ``omega_i
    >= 0``; otherwise they are dropped with a warning.
    """
    w1, w2, _w3 = params.omega
    R = params.profile.R
    cu1, cu2 = params.U[0] - w2 * R, params.U[1] + w1 * R
    B1, B2, C1, C2, D1, D2 = bounds
    warns = ()
    if params.U[2] > 0.0 or min(params.omega) < 0.0:
        warns = (
            "motion violates the sign normalization (U3 <= 0, omega >= 0); "
            "interval residuals are suppressed, known terms remain valid",
        )
        _warnings.warn(warns[0], stacklevel=3)

    def scaled(w, unit):
        return [(w * k, *rest) for k, *rest in unit]

    def component(known, w, lower, upper):
        lo, up = _terms(*scaled(w, lower)), _terms(*scaled(w, upper))
        residual = IntervalResidual(lo, up) if (lo or up) and not warns else None
        return AsymptoticExpansion(_terms(*known), residual)

    F = (
        component(shear(-1.0, cu1) + scaled(w2, extra), w2, B1, B2),
        component(shear(-1.0, cu2) + scaled(-w1, extra), -w1, B2, B1),
        component(f3, w1 + w2, C1, C2),
    )
    T = (component(shear(-R, cu2), w1, D1, D2), component(shear(R, cu1), w2, D1, D2))
    return TheoremResult(F, (*T, AsymptoticExpansion(())), c, warns)


def force_asymptotic_3d(params: ProblemParams) -> TheoremResult:
    """Blow-up expansion for a 3D profile ``h = eps + |x'|^m``.

    The shear terms are log-type in ``eps^-(1-2/m)``, ``|ln eps|`` at ``m =
    2``; so is the horizontal forces' extra rotation term in ``eps^-(2-4/m)``,
    which vanishes at ``m = 2``.  The rotation-driven leading terms at
    ``eps^-(3-4/m)`` are sandwich residuals.
    """
    prof = params.profile
    if prof.dimension != 3 or prof.kind != "m-convex":
        raise ValueError("requires a 3D m-convex profile")
    mu, r, R, m = params.mu, prof.r, prof.R, prof.m

    alphas = alpha_coefficients(m, mu)
    a34 = alphas["alpha34_3d"]
    c = {
        "b12": alphas["b12_3d"],
        "alpha34": a34,
        "beta1": (3.0 / 16.0) * np.pi * mu * gamma_coeff(3, 4, m)
        * (1.0 - 2.0 ** (m / 2.0 + 2.0) * R * r ** (m - 2.0) + 2.0 ** (-2.0 * m) * r ** (2.0 * m - 2.0)),
        "beta2": 3.0 * np.pi * mu * gamma_coeff(3, 4, m)
        * (1.0 - 2.0 ** (-m) * R * r ** (m - 2.0) + 2.0 ** (m - 2.0) * r ** (2.0 * m - 2.0)),
    }
    q1, q2, p3 = 1.0 - 2.0 / m, 2.0 - 4.0 / m, 3.0 - 4.0 / m
    unit = lambda k: [(k, p3)]
    return _sandwich_3d(
        params,
        lambda f, cu: [(f * cu * c["b12"], q1, True)],
        [(q2 * a34, q2, True)],
        [(-2.0 * params.U[2] * a34, p3)],
        (unit(2.0 ** (-m) * r**m * a34), unit(2.0 ** (m / 2.0) * r**m * a34), unit(r * a34),
         unit(2.0 * r * a34), unit(r**2 * c["beta1"]), unit(r**2 * c["beta2"])),
        c,
    )


def force_asymptotic_3d_flat(
    params: ProblemParams, override_flat_hypothesis: bool = False
) -> TheoremResult:
    """Blow-up expansion for a 3D flat-capped profile (cap radius ``s``).

    The shear bracket ``|ln eps| + 2 s G11 eps^-1/2 + s^2 eps^-1`` appears
    in the horizontal forces and torques; the squeeze force reaches
    ``eps^-3``.  Requires ``s < (sqrt(2)-1) r`` unless overridden.
    """
    prof = params.profile
    if prof.dimension != 3 or prof.kind != "flat-capped":
        raise ValueError("requires a 3D flat-capped profile")
    prof.check_flat_hypothesis(override_flat_hypothesis)
    mu, r, R, s = params.mu, prof.r, prof.R, prof.s
    U3 = params.U[2]

    G11 = gamma_coeff(1, 1, 2)
    G21 = gamma_coeff(2, 1, 2)
    G31 = gamma_coeff(3, 1, 2)
    G32 = gamma_coeff(3, 2, 2)
    pim = np.pi * mu
    c = {
        "B1_1": (3.0 / 16.0) * pim * (r - s) ** 2,
        "B1_3": (3.0 / 16.0) * pim * (r - s) ** 2 * s**4,
        "B2_1": (3.0 / 4.0) * pim * (2.0 * r - s) ** 2,
        "B2_3": (3.0 / 4.0) * pim * (2.0 * r - s) ** 2 * 2.0 * s**4,
        "C1_1": (3.0 / 4.0) * pim * (r + s),
        "C1_3": (3.0 / 4.0) * pim * (r + s) * s**4,
        "C2_1": (3.0 / 2.0) * pim * r,
        "C2_3": (3.0 / 2.0) * pim * r * 2.0 * s**4,
        "D1_1": (3.0 / 32.0)
        * pim
        * (-4.0 * R * (np.sqrt(2.0) * r - s) ** 2 + (r + s) ** 2 + (r - s) ** 4 / 16.0),
        "D1_3": -(3.0 / 16.0)
        * pim
        * s**4
        * (4.0 * R * (np.sqrt(2.0) * r - s) ** 2 + (s - r) ** 2 - 2.0 * r**2 - (r - s) ** 4 / 16.0),
        "D2_1": (3.0 / 8.0) * pim * (-R * (r - s) ** 2 + 4.0 * r**2 + (np.sqrt(2.0) * r - s) ** 4),
        "D2_3": -(3.0 / 16.0)
        * pim
        * s**4
        * (R * (r - s) ** 2 - 4.0 * r**2 + 2.0 * s**2 - (np.sqrt(2.0) * r - s) ** 4),
    }

    def bracket(f, cu):
        """coeff * (|ln eps| + 2 s G11 / eps^1/2 + s^2 / eps), coeff = pi mu f cu"""
        coeff = pim * f * cu
        return [(coeff, 0.0, True), (coeff * 2.0 * s * G11, 0.5), (coeff * s**2, 1.0)]

    f3 = [
        (-3.0 * pim * U3 * 0.5, 1.0),
        (-3.0 * pim * U3 * 1.5 * s * G21, 1.5),
        (-3.0 * pim * U3 * 3.0 * s**2 * G32, 2.0),
        (-3.0 * pim * U3 * s**3 * G31, 2.5),
        (-3.0 * pim * U3 * 0.5 * s**4, 3.0),
    ]
    bounds = tuple([(c[f"{x}_1"], 1.0), (c[f"{x}_3"], 3.0)] for x in ("B1", "B2", "C1", "C2", "D1", "D2"))
    return _sandwich_3d(params, bracket, [], f3, bounds, c)


def force_asymptotic_2d(params: ProblemParams) -> TheoremResult:
    """Blow-up expansion for a 2D profile ``h = eps + |x1|^m`` (m > 1).

    The force and torque expansions are exact up to O(1) (no sandwich
    residuals).  Every term whose exponent crosses 0 is log-type: the shear
    terms (``1 - 1/m``), the mid terms (``2 - 3/m``, through ``m = 3/2``) and
    the torque's ``b35`` (``3 - 5/m``, ``|ln eps|`` at ``m = 5/3``) and ``b13``
    (``1 - 3/m``, ``|ln eps|`` at ``m = 3``) terms, these two while their
    exponent exceeds ``-2/3``.
    """
    prof = params.profile
    if prof.dimension != 2 or prof.kind != "m-convex":
        raise ValueError("requires a 2D m-convex profile")
    mu, r, R, m = params.mu, prof.r, prof.R, prof.m
    U1, U2 = params.U
    w0 = params.omega

    alphas = alpha_coefficients(m, mu)
    c = {
        "b11": alphas["b11_2d"],
        "alpha33": alphas["alpha33_2d"],
        "beta": 3.0 * mu * (1.0 + 0.25 * r ** (2.0 * m - 2.0) - R * r ** (m - 2.0)) * gamma_coeff(3, 3, m),
    }
    pshear = 1.0 - 1.0 / m
    psq = 3.0 - 3.0 / m
    pmid = 2.0 - 3.0 / m
    q35, q13 = 3.0 - 5.0 / m, 1.0 - 3.0 / m
    c.update((name, alphas[name + "_2d"]) for name, q in (("b35", q35), ("b13", q13)) if q > _Q_MIN)
    cu = U1 + w0 * R

    F1 = AsymptoticExpansion(_terms(
        (-cu * c["b11"], pshear, True),
        (-w0 * r**m * c["alpha33"], psq),
        (-w0 * pmid * c["alpha33"], pmid, True),
    ))
    F2 = AsymptoticExpansion(_terms((-2.0 * (2.0 * U2 - w0 * r) * c["alpha33"], psq)))
    T = AsymptoticExpansion(_terms(
        (-R * cu * c["b11"], pshear, True),
        (w0 * r**2 * c["beta"], psq),
        (-R * w0 * pmid * c["alpha33"], pmid, True),
        (-w0 * c.get("b35", 0.0), q35, True),
        (w0 * c.get("b13", 0.0), q13, True),
    ))
    return TheoremResult((F1, F2), T, c)


def force_asymptotic_2d_flat(
    params: ProblemParams, override_flat_hypothesis: bool = False
) -> TheoremResult:
    """Blow-up expansion for a 2D flat-capped profile (cap half-width ``s``).

    Exact up to O(1): half-integer power ladders up to ``eps^-3`` in force
    and torque, plus a logarithmic torque term.  Requires
    ``s < (sqrt(2)-1) r`` unless overridden.
    """
    prof = params.profile
    if prof.dimension != 2 or prof.kind != "flat-capped":
        raise ValueError("requires a 2D flat-capped profile")
    prof.check_flat_hypothesis(override_flat_hypothesis)
    mu, r, R, s = params.mu, prof.r, prof.R, prof.s
    U1, U2 = params.U
    w0 = params.omega

    G11 = gamma_coeff(1, 1, 2)
    G31 = gamma_coeff(3, 1, 2)
    G33 = gamma_coeff(3, 3, 2)
    G35 = gamma_coeff(3, 5, 2)
    cu = U1 + w0 * R
    # The squeeze-type force ladder is exactly -12 mu (2 U2 - w0 r) times the
    # expansion of  int_0^r t^2 / h^3 dt  (cap term s^3/(3 eps^3) plus
    # half-integer annulus moments); every beta shares the 2 U2 - w0 r factor.
    sq = 2.0 * U2 - w0 * r
    c = {
        "alpha_1/2": 2.0 * mu * cu * G11 + 3.0 * mu * w0 * G33,
        "alpha_1": 2.0 * mu * cu * s + 3.0 * mu * w0 * s,
        "alpha_3/2": mu * w0 * (3.0 * (r - s) ** 2 * G33 + 3.0 * s**2 * G31),
        "alpha_2": mu * w0 * (3.0 * s * (r - s) ** 2 + 2.0 * s**3),
        "alpha_5/2": 3.0 * mu * w0 * s**2 * (r - s) ** 2 * G31,
        "alpha_3": 2.0 * mu * w0 * s**3 * (r - s) ** 2,
        "beta_3/2": 6.0 * mu * sq * G33,
        "beta_2": 6.0 * mu * s * sq,
        "beta_5/2": 6.0 * mu * s**2 * sq * G31,
        "beta_3": 4.0 * mu * s**3 * sq,
        "gamma_0": mu * w0 * s * (4.5 - 3.0 * s**2 - 15.0 * R) - mu * cu * s,
        "gamma_1/2": 2.0 * mu * R * cu * G11
        + 0.75 * mu * w0 * ((16.0 * R - 7.0) * s**2 * G31 + 4.0 * R * G33 + 4.0 * G35),
        "gamma_1": mu * w0 * s * (3.0 * R - s**2 + 6.0) + 2.0 * mu * R * cu * s,
        "gamma_3/2": 0.25 * mu * w0 * (
            (12.0 * R * (r - s) ** 2 - 3.0 * (r - s) ** 4 - 12.0 * r**2 + 72.0 * s**2) * G33
            + 12.0 * R * s**2 * G31
        ),
        "gamma_2": 0.25 * mu * w0 * (
            8.0 * s**3 * R - 12.0 * s * r**2 + 24.0 * s**3 + 12.0 * R * s * (r - s) ** 2 - 3.0 * s * (r - s) ** 4
        ),
        "gamma_5/2": 0.25 * mu * w0
        * (-12.0 * s**2 * r**2 + 12.0 * s**4 + 12.0 * R * s**2 * (r - s) ** 2 - 3.0 * s**2 * (r - s) ** 4)
        * G31,
        "gamma_3": 0.1 * mu * w0 * (
            -20.0 * r**2 * s**3 + 12.0 * s**5 + 20.0 * R * s**3 * (r - s) ** 2 - 5.0 * s**3 * (r - s) ** 4
        ),
    }
    return TheoremResult((_ladder(c, "alpha"), _ladder(c, "beta")), _ladder(c, "gamma"), c)


def force_asymptotic(
    params: ProblemParams, override_flat_hypothesis: bool = False
) -> TheoremResult:
    """Dispatch to the expansion matching the profile's dimension and kind."""
    prof = params.profile
    if prof.dimension == 3:
        if prof.kind == "m-convex":
            return force_asymptotic_3d(params)
        return force_asymptotic_3d_flat(params, override_flat_hypothesis)
    if prof.kind == "m-convex":
        return force_asymptotic_2d(params)
    return force_asymptotic_2d_flat(params, override_flat_hypothesis)


def fit_exponent(eps_values, values) -> float:
    """Least-squares blow-up exponent ``p`` with ``|v| ~ C eps^-p``.

    The closed-form least-squares slope of ``y = log |v|`` against ``x =
    -log eps``, ``sum((x - xm) (y - ym)) / sum((x - xm)^2)`` about the
    means; centred, it changes sign exactly with ``x``.  Raises
    ``ValueError`` on sequences of different lengths, a non-finite or
    non-positive ``eps``, fewer than two distinct ``eps``, and a
    non-finite or zero value.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    values = np.asarray(values, dtype=float)
    if eps_values.size != values.size or eps_values.size < 2:
        raise ValueError("need matching sequences of at least two samples")
    if not np.all(np.isfinite(eps_values) & (eps_values > 0.0)):
        raise ValueError("eps values must be finite and positive")
    if eps_values.min() == eps_values.max():
        raise ValueError("need at least two distinct eps values")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")
    if np.any(values == 0.0):
        raise ValueError("cannot fit an exponent through zero values")
    x = -np.log(eps_values)
    y = np.log(np.abs(values))
    x -= x.mean()
    return float(np.sum(x * (y - y.mean())) / np.sum(x * x))
