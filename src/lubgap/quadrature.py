"""Adaptive quadrature engines.

Three entry points are provided:

* :func:`integrate_1d` -- adaptive Gauss-Kronrod (15/7 embedded pair)
  bisection on an interval, honoring user-supplied split points.
* :func:`integrate_surface` -- surface integral over the top gap boundary
  of a 3D profile, written in polar coordinates as
  ``int_0^r int_0^{2pi} g * J(t) * t dtheta dt`` with the radial axis split
  at the ``eps^(1/m)`` boundary-layer scale (and at the flat radius ``s``
  for flat-capped profiles).  The angular direction uses a fixed 64-point
  trapezoid rule: the integrands that occur are low-degree trigonometric
  polynomials in theta times radial factors, for which the trapezoid rule
  is spectrally exact (checked by doubling the resolution in tests).
* :func:`integrate_nested` -- outer integral of a function that consumes a
  running inner integral ``inner(x) = int kernel``; the inner integral is
  tabulated once on a Chebyshev-spaced grid as a cached cumulative
  antiderivative and interpolated, with the interpolation error measured
  and kept below a tenth of the total budget.

All engines are stateless and re-entrant; caches are created per call.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.interpolate import CubicSpline

__all__ = [
    "QuadSpec",
    "QuadResult",
    "QuadratureError",
    "integrate_1d",
    "integrate_vector",
    "integrate_surface",
    "integrate_nested",
    "CachedAntiderivative",
]

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1]
# (public-domain QUADPACK table).  Odd-indexed abscissae carry the
# embedded Gauss weights.
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full node vector on [-1, 1], ascending
_NODES = np.concatenate([-_XK[:-1], [0.0], _XK[:-1][::-1]])
_WEIGHTS_K = np.concatenate([_WK[:-1], [_WK[-1]], _WK[:-1][::-1]])
_GAUSS_IDX = np.arange(1, 15, 2)  # positions of the embedded 7-point rule
_WEIGHTS_G = np.concatenate([_WG[:-1], [_WG[-1]], _WG[:-1][::-1]])

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadSpec:
    """Tolerance and subdivision budget for the adaptive engines.

    At least one of ``abs_tol``, ``rel_tol`` must be positive.
    ``split_points`` are breakpoints that must lie strictly inside the
    integration interval; panels never straddle them.
    """

    abs_tol: float = 0.0
    rel_tol: float = 1e-10
    max_subdivisions: int = 400
    split_points: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.abs_tol <= 0.0 and self.rel_tol <= 0.0:
            raise ValueError("at least one of abs_tol, rel_tol must be positive")
        if self.abs_tol < 0.0:
            raise ValueError("abs_tol must be >= 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        object.__setattr__(self, "split_points", tuple(self.split_points))

    def with_splits(self, points: Sequence[float]) -> "QuadSpec":
        """Return a copy with ``points`` merged into ``split_points``."""
        merged = tuple(sorted(set(self.split_points) | set(points)))
        return QuadSpec(self.abs_tol, self.rel_tol, self.max_subdivisions, merged)


@dataclass(frozen=True)
class QuadResult:
    """Value, certified error estimate, and evaluation count of an integral."""

    value: float
    error_estimate: float
    evaluations: int
    cache_error: float = 0.0  # interpolation error of a nested-integral cache


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted before the tolerance was met.

    Carries the best estimate obtained so far in ``result``.
    """

    def __init__(self, message: str, result: QuadResult):
        super().__init__(message)
        self.result = result


def _panel(fvec: Callable[[np.ndarray], np.ndarray], a: float, b: float):
    """Evaluate the 15/7 pair on one panel for a vector-valued integrand.

    Returns (kronrod, err, resabs, nevals); all component-wise arrays.
    """
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _NODES
    fx = np.asarray(fvec(x), dtype=float)
    if fx.ndim == 1:
        fx = fx[np.newaxis, :]
    resk = half * fx @ _WEIGHTS_K
    resg = half * fx[:, _GAUSS_IDX] @ _WEIGHTS_G
    resabs = half * np.abs(fx) @ _WEIGHTS_K
    # QUADPACK-style scaled error estimate from the embedded difference
    mean = resk / (b - a)
    resasc = half * np.abs(fx - mean[:, None]) @ _WEIGHTS_K
    diff = np.abs(resk - resg)
    err = np.empty_like(diff)
    for c in range(diff.size):
        if resasc[c] > 0.0 and diff[c] > 0.0:
            err[c] = resasc[c] * min(1.0, (200.0 * diff[c] / resasc[c]) ** 1.5)
        else:
            err[c] = diff[c]
        err[c] = max(err[c], 50.0 * _EPS * resabs[c])
    return resk, err, resabs, x.size


def _initial_panels(a: float, b: float, spec: QuadSpec) -> list[tuple[float, float]]:
    cuts = [a] + [p for p in sorted(spec.split_points) if a < p < b] + [b]
    return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1)]


def integrate_vector(
    fvec: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadSpec,
    ncomp: int | None = None,
    ncheck: int | None = None,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Adaptively integrate a vector-valued integrand component-wise.

    ``fvec`` maps an abscissa array of shape ``(n,)`` to values of shape
    ``(ncomp, n)`` (or ``(n,)`` for a single component).  All components
    share the panel schedule; panels are bisected (worst first by summed
    error) until every component meets
    ``max(abs_tol, rel_tol * |value_c|)`` or sits at its roundoff floor,
    the sum of the per-panel floors ``50 * eps * int |f_c|``.  Bisection
    cannot reduce that floor, so, as in QUADPACK, a value that cancels
    below it stops refinement instead of exhausting the budget.

    When ``ncheck`` is given, only the first ``ncheck`` components drive
    refinement and the convergence test; the rest are carried along (used
    for cheap side quantities such as resolution diagnostics that need
    not be integrated to tolerance).

    Returns ``(values, errors, evaluations)``.  The per-component error
    includes a roundoff floor of ``1e-15 * int |f_c|`` so that estimates
    for components that vanish only after cancellation remain honest.
    """
    if a == b:
        z = np.zeros(ncomp or 1)
        return z, z.copy(), 0
    if a > b:
        v, e, n = integrate_vector(fvec, b, a, spec, ncomp, ncheck)
        return -v, e, n

    panels = []
    nevals = 0
    counter = 0  # tie-breaker keeps the heap order deterministic
    for (lo, hi) in _initial_panels(a, b, spec):
        resk, err, resabs, n = _panel(fvec, lo, hi)
        nevals += n
        counter += 1
        heapq.heappush(
            panels, (-float(err[:ncheck].sum()), counter, lo, hi, resk, err, resabs)
        )

    def totals():
        vs = sum(p[4] for p in panels)
        es = sum(p[5] for p in panels)
        rs = sum(p[6] for p in panels)
        return vs, es, rs

    while True:
        values, errors, resabs = totals()
        target = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(values))
        floor = sum(50.0 * _EPS * p[6] for p in panels)
        done = (errors <= target) | (errors <= floor)
        if np.all(done[:ncheck]):
            break
        if len(panels) >= spec.max_subdivisions:
            errors = errors + 1e-15 * resabs
            raise QuadratureError(
                "subdivision budget exhausted",
                QuadResult(float(values[0]), float(errors[0]), nevals),
            )
        _, _, lo, hi, _, _, _ = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        for (p, q) in ((lo, mid), (mid, hi)):
            resk, err, rab, n = _panel(fvec, p, q)
            nevals += n
            counter += 1
            heapq.heappush(
                panels, (-float(err[:ncheck].sum()), counter, p, q, resk, err, rab)
            )

    values, errors, resabs = totals()
    errors = errors + 1e-15 * resabs
    return values, errors, nevals


def integrate_1d(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadSpec | None = None,
    *,
    vectorized: bool = False,
) -> QuadResult:
    """Integrate ``f`` over ``[a, b]`` by adaptive Gauss-Kronrod bisection.

    ``spec.split_points`` inside the interval become hard panel boundaries.
    Raises :class:`QuadratureError` (carrying the best estimate) if the
    subdivision budget is exhausted.  Set ``vectorized=True`` if ``f``
    accepts and returns numpy arrays.
    """
    spec = spec or QuadSpec()
    if vectorized:
        fvec = lambda x: np.asarray(f(x), dtype=float)[np.newaxis, :]
    else:
        fvec = lambda x: np.array([[float(f(t)) for t in x]])
    values, errors, nevals = integrate_vector(fvec, a, b, spec, ncomp=1)
    return QuadResult(float(values[0]), float(errors[0]), nevals)


def integrate_surface(g, profile, spec: QuadSpec | None = None) -> QuadResult:
    """Integrate ``g`` over the top gap boundary of a 3D profile.

    Computed as ``int_0^r [ t * J(t) * (2pi/64) * sum_theta g ] dt`` with the
    radial axis split at ``eps^(1/m)`` (and at ``s`` for flat-capped
    profiles).  ``g`` receives a :class:`~lubgap.geometry.SurfacePoint`.
    """
    from . import geometry  # local import to avoid a cycle

    if profile.dimension != 3:
        raise ValueError("integrate_surface requires a 3D profile")
    spec = spec or QuadSpec(rel_tol=1e-9)
    spec = spec.with_splits(profile.radial_splits())

    ntheta = 64
    theta = 2.0 * np.pi * np.arange(ntheta) / ntheta
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    dtheta = 2.0 * np.pi / ntheta

    def radial(ts: np.ndarray) -> np.ndarray:
        out = np.empty_like(ts)
        for i, t in enumerate(ts):
            acc = 0.0
            for c, s in zip(cos_t, sin_t):
                sp = geometry.surface_sample(profile, "top", (t * c, t * s))
                acc += g(sp)
            # jac is radial: take it from the last sample of this ring
            out[i] = acc * dtheta * t * sp.jac
        return out

    return integrate_1d(radial, 0.0, profile.r, spec, vectorized=True)


class CachedAntiderivative:
    """Cumulative antiderivative ``K(x) = int_{x0}^{x} kernel(t) dt``.

    The kernel is integrated once, panel by panel, on a Chebyshev-spaced
    node set (per segment between split points) and the cumulative values
    are interpolated with a cubic spline.  The node count doubles until
    the measured interpolation error is below ``tol``.

    Attributes
    ----------
    interp_error : float
        Measured maximum interpolation error (midpoint check at the final
        resolution).
    evaluations : int
        Number of kernel evaluations spent building the table.
    """

    def __init__(
        self,
        kernel: Callable[[np.ndarray], np.ndarray],
        lo: float,
        hi: float,
        x0: float,
        tol: float,
        split_points: Sequence[float] = (),
        n_start: int = 16,
        max_nodes: int = 1 << 14,
    ):
        if not (lo <= x0 <= hi):
            raise ValueError("x0 must lie in [lo, hi]")
        self.kernel = kernel
        self.lo, self.hi, self.x0 = lo, hi, x0
        self.evaluations = 0
        splits = [lo] + [p for p in sorted(set(split_points)) if lo < p < hi] + [hi]

        n = n_start
        prev_spline = None
        while True:
            nodes = self._chebyshev_nodes(splits, n)
            values = self._cumulative(nodes)
            spline = CubicSpline(nodes, values)
            if prev_spline is not None:
                mids = 0.5 * (nodes[:-1] + nodes[1:])
                err = float(np.max(np.abs(spline(mids) - prev_spline(mids))))
                scale = float(np.max(np.abs(values))) or 1.0
                if err <= tol * scale or len(nodes) >= max_nodes:
                    self.interp_error = err
                    break
            prev_spline = spline
            n *= 2
        self._spline = spline

    @staticmethod
    def _chebyshev_nodes(splits: list[float], n: int) -> np.ndarray:
        parts = []
        for a, b in zip(splits[:-1], splits[1:]):
            k = np.arange(n + 1)
            cheb = 0.5 * (a + b) - 0.5 * (b - a) * np.cos(np.pi * k / n)
            cheb[0], cheb[-1] = a, b  # pin endpoints exactly
            parts.append(cheb if not parts else cheb[1:])
        return np.concatenate(parts)

    def _cumulative(self, nodes: np.ndarray) -> np.ndarray:
        # Gauss-Kronrod value of the kernel on every inter-node panel,
        # evaluated in one vectorized call.
        a, b = nodes[:-1], nodes[1:]
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        x = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
        fx = np.asarray(self.kernel(x), dtype=float).reshape(len(a), _NODES.size)
        self.evaluations += x.size
        panel = half * (fx @ _WEIGHTS_K)
        cum = np.concatenate([[0.0], np.cumsum(panel)])
        # re-zero at x0
        return cum - np.interp(self.x0, nodes, cum)

    def __call__(self, x):
        return self._spline(x)


def integrate_nested(
    outer: Callable[[float, float], float],
    kernel: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadSpec | None = None,
    inner_lower: float | None = None,
    kernel_splits: Sequence[float] = (),
) -> QuadResult:
    """Integrate ``outer(x, inner(x))`` over ``[a, b]``.

    ``inner(x) = int_{inner_lower}^{x} kernel(t) dt`` is evaluated through a
    cached cumulative-antiderivative table (see
    :class:`CachedAntiderivative`); the table's interpolation error budget
    is a tenth of the requested tolerance and the measured value is
    surfaced in ``QuadResult.cache_error``.
    """
    spec = spec or QuadSpec()
    if inner_lower is None:
        inner_lower = a
    lo = min(a, b, inner_lower)
    hi = max(a, b, inner_lower)
    cache_tol = 0.1 * max(spec.rel_tol, 1e-14)
    cache = CachedAntiderivative(
        kernel, lo, hi, inner_lower, cache_tol, split_points=kernel_splits
    )

    def f(xs: np.ndarray) -> np.ndarray:
        inner = cache(xs)
        return np.array([float(outer(x, K)) for x, K in zip(xs, inner)])

    res = integrate_1d(f, a, b, spec, vectorized=True)
    return QuadResult(
        res.value,
        res.error_estimate,
        res.evaluations + cache.evaluations,
        cache_error=cache.interp_error,
    )
