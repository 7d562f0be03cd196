"""The quadrature layer shared by the numeric routes.

* :func:`integrate_vector` / :func:`integrate_1d` -- adaptive
  Gauss-Kronrod (15/7 embedded pair) bisection on an interval, honoring
  split points; every component of a vector integrand shares one panel
  schedule.
* :class:`PanelRule` -- a fixed composite rule with an embedded
  lower-order rule, held as data: the nodes of each panel, the
  half-widths, and the node weights on ``[-1, 1]``.  :func:`kronrod_panels`
  places the 15/7 pair on given panel edges; it serves the graded
  angular ring of the rotation sub-flow.  :func:`trapezoid_ring` is the 64-point periodic trapezoid
  rule on ``[0, 2pi]`` as a single panel whose embedded rule is the even
  nodes: the ring of the translation/spin sub-flows and of the dual
  check's volume integrals.

All engines are stateless and re-entrant; caches are created per call.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "DEFAULT_REL_TOL",
    "QuadSpec",
    "QuadResult",
    "QuadratureError",
    "integrate_1d",
    "integrate_vector",
    "PanelRule",
    "kronrod_panels",
    "trapezoid_ring",
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

# Relative tolerance of the numeric force route, shared by
# force_numeric/total_numeric and the [quadrature] rel_tol of a run config.
DEFAULT_REL_TOL = 1e-8


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


class PanelRule(NamedTuple):
    """A composite rule with an embedded lower-order rule, held as data.

    ``x[p]`` holds the nodes of panel ``p`` and ``half[p]`` its
    half-width; ``weights`` are the node weights on ``[-1, 1]``, the same
    on every panel, and ``embedded`` / ``embedded_weights`` the positions
    and weights of the embedded rule's nodes.
    """

    x: np.ndarray
    half: np.ndarray
    weights: np.ndarray
    embedded: np.ndarray
    embedded_weights: np.ndarray

    def sums(self, fx: np.ndarray, embedded: bool = False):
        """Per-panel sums of values ``fx`` of shape ``(..., npan, nodes)``.

        Returns ``(full, low, cum)`` over the last axis: the sums of the
        full rule, those of the embedded rule (``None`` unless
        ``embedded``), and the cumulative full sums at the panel edges,
        starting from 0.
        """
        full = (fx @ self.weights) * self.half
        low = None
        if embedded:
            low = (fx[..., self.embedded] @ self.embedded_weights) * self.half
        cum = np.cumsum(full, axis=-1)
        return full, low, np.concatenate([np.zeros_like(cum[..., :1]), cum], axis=-1)


def kronrod_panels(edges: np.ndarray) -> PanelRule:
    """The 15-point Kronrod rule, with its embedded 7-point Gauss rule, on
    the panels between consecutive ``edges`` (along the last axis)."""
    a, b = edges[..., :-1], edges[..., 1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid[..., None] + half[..., None] * _NODES
    return PanelRule(x, half, _WEIGHTS_K, _GAUSS_IDX, _WEIGHTS_G)


def trapezoid_ring() -> PanelRule:
    """The 64-point periodic trapezoid rule on ``[0, 2pi]`` as one panel.

    Its embedded rule is the 32-point rule on the even nodes.  Spectrally
    accurate for smooth periodic data.
    """
    n = 64
    x = 2.0 * np.pi * np.arange(n) / n
    return PanelRule(
        x[None, :],
        np.array([np.pi]),
        np.full(n, 2.0 / n),
        np.arange(0, n, 2),
        np.full(n // 2, 4.0 / n),
    )
