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
from .special import AsymptoticExpansion, AsymptoticTerm, IntervalResidual, gamma_coeff

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


# the relative width of the m-convex theorems' marginal branches at m = 5/3 and m = 3
_BRANCH_TOL = 1e-12


def alpha_coefficients(m: float, mu: float) -> dict:
    """The coefficients of the m-convex theorems that depend on ``m`` and ``mu``
    alone, each where it is defined: ``alpha12_3d`` and ``alpha34_3d`` at ``m >=
    2`` (3D profiles), ``alpha11_2d`` and ``alpha33_2d``, ``alpha35_2d`` from
    within ``1e-12`` below ``m = 5/3`` and ``alpha13_2d`` from ``1e-12`` past
    ``m = 3``, the thresholds of :func:`force_asymptotic_2d`'s torque branches.
    """
    out = {}
    if m >= 2.0:
        out["alpha12_3d"] = 2.0 * np.pi * mu * gamma_coeff(1, 2, m)
        out["alpha34_3d"] = 1.5 * np.pi * mu * gamma_coeff(3, 4, m)
    out["alpha11_2d"] = 2.0 * mu * gamma_coeff(1, 1, m)
    out["alpha33_2d"] = 3.0 * mu * gamma_coeff(3, 3, m)
    if m > 5.0 / 3.0 - _BRANCH_TOL:
        out["alpha35_2d"] = 3.0 * mu * gamma_coeff(3, 5, m)
    if m > 3.0 + _BRANCH_TOL:
        out["alpha13_2d"] = (mu / (2.0 * m)) * (
            (18.0 + 3.0 * m) * gamma_coeff(1, 3, m) + 6.0 * m * gamma_coeff(2, 3, m)
        )
    return out


def _terms(*pairs) -> tuple:
    """Build terms from (coeff, power) or (coeff, "log") pairs, dropping
    exact zeros so that empty components stay empty."""
    out = []
    for coeff, power in pairs:
        if coeff == 0.0:
            continue
        if power == "log":
            out.append(AsymptoticTerm(float(coeff), is_log=True))
        else:
            out.append(AsymptoticTerm(float(coeff), power=float(power)))
    return tuple(out)


def _interval(lower_pairs, upper_pairs, keep: bool) -> IntervalResidual | None:
    if not keep:
        return None
    lo, up = _terms(*lower_pairs), _terms(*upper_pairs)
    if not lo and not up:
        return None
    return IntervalResidual(lo, up)


# the power p of the term eps^-p that each 2D flat-cap coefficient name's
# suffix names; the suffix 0 names the logarithmic term
_LADDER_POWERS = {"0": "log", "1/2": 0.5, "1": 1.0, "3/2": 1.5, "2": 2.0, "5/2": 2.5, "3": 3.0}


def _ladder(coeffs: dict, family: str) -> AsymptoticExpansion:
    """``-sum_p coeffs[family_p] eps^-p`` over the names of ``family``, in
    their order; the log term is ``-coeff ln eps = +coeff |ln eps|``."""
    pairs = []
    for name, value in coeffs.items():
        head, _, suffix = name.partition("_")
        if head == family:
            power = _LADDER_POWERS[suffix]
            pairs.append((value if power == "log" else -value, power))
    return AsymptoticExpansion(_terms(*pairs))


def _sign_normalized(params: ProblemParams) -> tuple[bool, tuple]:
    """Check the sandwich sign hypothesis; return (ok, warnings)."""
    if params.profile.dimension == 3:
        U3 = params.U[2]
        bad = U3 > 0.0 or min(params.omega) < 0.0
    else:
        bad = params.omega < 0.0
    if bad:
        msg = (
            "motion violates the sign normalization (U3 <= 0, omega >= 0); "
            "interval residuals are suppressed, known terms remain valid"
        )
        _warnings.warn(msg, stacklevel=3)
        return False, (msg,)
    return True, ()


def force_asymptotic_3d(params: ProblemParams) -> TheoremResult:
    """Blow-up expansion for a 3D profile ``h = eps + |x'|^m``.

    For ``m = 2`` the shear terms are logarithmic; for ``m > 2`` they decay
    as ``eps^-(1-2/m)`` and an extra rotation term ``eps^-(2-4/m)`` appears
    in the horizontal force components.  The rotation-driven leading terms
    at ``eps^-(3-4/m)`` are sandwich residuals.
    """
    prof = params.profile
    if prof.dimension != 3 or prof.kind != "m-convex":
        raise ValueError("requires a 3D m-convex profile")
    mu, r, R, m = params.mu, prof.r, prof.R, prof.m
    U1, U2, U3 = params.U
    w1, w2, _w3 = params.omega

    alphas = alpha_coefficients(m, mu)
    c = {
        "alpha12": alphas["alpha12_3d"],
        "alpha34": alphas["alpha34_3d"],
        "beta1": (3.0 / 16.0) * np.pi * mu * gamma_coeff(3, 4, m)
        * (1.0 - 2.0 ** (m / 2.0 + 2.0) * R * r ** (m - 2.0) + 2.0 ** (-2.0 * m) * r ** (2.0 * m - 2.0)),
        "beta2": 3.0 * np.pi * mu * gamma_coeff(3, 4, m)
        * (1.0 - 2.0 ** (-m) * R * r ** (m - 2.0) + 2.0 ** (m - 2.0) * r ** (2.0 * m - 2.0)),
    }
    cu1 = U1 - w2 * R
    cu2 = U2 + w1 * R
    keep, warns = _sign_normalized(params)

    p3 = 3.0 - 4.0 / m
    if m == 2.0:
        shear_pow = "log"
        lo1, up1 = 0.25 * r**2, 2.0 * r**2
    else:
        shear_pow = 1.0 - 2.0 / m
        lo1, up1 = 2.0 ** (-m) * r**m, 2.0 ** (m / 2.0) * r**m

    extra_F1 = () if m == 2.0 else ((w2 * c["alpha34"], 2.0 - 4.0 / m),)
    extra_F2 = () if m == 2.0 else ((-w1 * c["alpha34"], 2.0 - 4.0 / m),)

    F1 = AsymptoticExpansion(
        _terms((-cu1 * c["alpha12"], shear_pow), *extra_F1),
        _interval([(w2 * lo1 * c["alpha34"], p3)], [(w2 * up1 * c["alpha34"], p3)], keep),
    )
    F2 = AsymptoticExpansion(
        _terms((-cu2 * c["alpha12"], shear_pow), *extra_F2),
        _interval([(-w1 * up1 * c["alpha34"], p3)], [(-w1 * lo1 * c["alpha34"], p3)], keep),
    )
    F3 = AsymptoticExpansion(
        _terms((-2.0 * U3 * c["alpha34"], p3)),
        _interval([((w1 + w2) * r * c["alpha34"], p3)], [(2.0 * (w1 + w2) * r * c["alpha34"], p3)], keep),
    )
    T1 = AsymptoticExpansion(
        _terms((-R * cu2 * c["alpha12"], shear_pow)),
        _interval([(w1 * r**2 * c["beta1"], p3)], [(w1 * r**2 * c["beta2"], p3)], keep),
    )
    T2 = AsymptoticExpansion(
        _terms((R * cu1 * c["alpha12"], shear_pow)),
        _interval([(w2 * r**2 * c["beta1"], p3)], [(w2 * r**2 * c["beta2"], p3)], keep),
    )
    T3 = AsymptoticExpansion(())
    return TheoremResult((F1, F2, F3), (T1, T2, T3), c, warns)


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
    U1, U2, U3 = params.U
    w1, w2, _w3 = params.omega

    G11 = gamma_coeff(1, 1, 2)
    G21 = gamma_coeff(2, 1, 2)
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
    keep, warns = _sign_normalized(params)

    def bracket(coeff):
        """coeff * (|ln eps| + 2 s G11 / eps^1/2 + s^2 / eps)"""
        return (
            (coeff, "log"),
            (coeff * 2.0 * s * G11, 0.5),
            (coeff * s**2, 1.0),
        )

    def pair(prefix, scale):
        return [(scale * c[prefix + "_1"], 1.0), (scale * c[prefix + "_3"], 3.0)]

    F1 = AsymptoticExpansion(
        _terms(*bracket(-pim * (U1 - w2 * R))),
        _interval(pair("B1", w2), pair("B2", w2), keep),
    )
    F2 = AsymptoticExpansion(
        _terms(*bracket(-pim * (U2 + w1 * R))),
        _interval(
            [(-c, p) for c, p in pair("B2", w1)], [(-c, p) for c, p in pair("B1", w1)], keep
        ),
    )
    G31 = gamma_coeff(3, 1, 2)
    F3 = AsymptoticExpansion(
        _terms(
            (-3.0 * pim * U3 * 0.5, 1.0),
            (-3.0 * pim * U3 * 1.5 * s * G21, 1.5),
            (-3.0 * pim * U3 * 3.0 * s**2 * G32, 2.0),
            (-3.0 * pim * U3 * s**3 * G31, 2.5),
            (-3.0 * pim * U3 * 0.5 * s**4, 3.0),
        ),
        _interval(pair("C1", w1 + w2), pair("C2", w1 + w2), keep),
    )
    T1 = AsymptoticExpansion(
        _terms(*bracket(-pim * R * (U2 + w1 * R))),
        _interval(pair("D1", w1), pair("D2", w1), keep),
    )
    T2 = AsymptoticExpansion(
        _terms(*bracket(pim * R * (U1 - w2 * R))),
        _interval(pair("D1", w2), pair("D2", w2), keep),
    )
    T3 = AsymptoticExpansion(())
    return TheoremResult((F1, F2, F3), (T1, T2, T3), c, warns)


def force_asymptotic_2d(params: ProblemParams) -> TheoremResult:
    """Blow-up expansion for a 2D profile ``h = eps + |x1|^m`` (m > 1).

    The force expansion is exact up to O(1) (no sandwich residuals); the
    torque goes through six regimes in ``m``, with logarithmic marginal
    cases at ``m = 5/3`` and ``m = 3``.  ``m = 3/2`` sits in the low branch.
    """
    prof = params.profile
    if prof.dimension != 2 or prof.kind != "m-convex":
        raise ValueError("requires a 2D m-convex profile")
    mu, r, R, m = params.mu, prof.r, prof.R, prof.m
    U1, U2 = params.U
    w0 = params.omega

    alphas = alpha_coefficients(m, mu)
    c = {
        "alpha11": alphas["alpha11_2d"],
        "alpha33": alphas["alpha33_2d"],
        "beta": 3.0 * mu * (1.0 + 0.25 * r ** (2.0 * m - 2.0) - R * r ** (m - 2.0)) * gamma_coeff(3, 3, m),
    }
    c.update((name, alphas[name + "_2d"]) for name in ("alpha35", "alpha13") if name + "_2d" in alphas)
    cu = U1 + w0 * R
    pshear = 1.0 - 1.0 / m
    psq = 3.0 - 3.0 / m
    pmid = 2.0 - 3.0 / m
    # the eps^-pmid terms of force and torque start past the low branch
    has_pmid = m > 1.5 + _BRANCH_TOL

    F1_pairs = [(-cu * c["alpha11"], pshear), (-w0 * r**m * c["alpha33"], psq)]
    if has_pmid:
        F1_pairs.append((-w0 * c["alpha33"], pmid))
    F1 = AsymptoticExpansion(_terms(*F1_pairs))
    F2 = AsymptoticExpansion(_terms((-2.0 * (2.0 * U2 - w0 * r) * c["alpha33"], psq)))

    T_pairs = [(-R * cu * c["alpha11"], pshear), (w0 * r**2 * c["beta"], psq)]
    if abs(m - 5.0 / 3.0) <= _BRANCH_TOL:
        T_pairs = [
            (-(18.0 / 5.0) * mu * w0, "log"),
            (-R * w0 * c["alpha33"], 0.2),
            (-R * cu * c["alpha11"], 0.4),
            (w0 * r**2 * c["beta"], 1.2),
        ]
    elif abs(m - 3.0) <= _BRANCH_TOL:
        T_pairs = [
            (1.5 * mu * w0, "log"),
            (-R * cu * c["alpha11"], 2.0 / 3.0),
            (-R * w0 * c["alpha33"], 1.0),
            (-w0 * c["alpha35"], 4.0 / 3.0),
            (w0 * r**2 * c["beta"], 2.0),
        ]
    elif has_pmid:
        T_pairs.append((-R * w0 * c["alpha33"], pmid))
        if "alpha35" in c:
            T_pairs.append((-w0 * c["alpha35"], 3.0 - 5.0 / m))
        if "alpha13" in c:
            T_pairs.append((w0 * c["alpha13"], 1.0 - 3.0 / m))
    T = AsymptoticExpansion(_terms(*T_pairs))
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
