"""The quadrature layer shared by the numeric routes.

* :func:`integrate_vector` / :func:`integrate_1d` -- adaptive
  Gauss-Kronrod (15/7 embedded pair) bisection on an interval, honoring
  split points; every component of a vector integrand shares one panel
  schedule, its panels held as arrays in creation order.  A refinement
  round bisects, worst first, every panel the tolerance still needs, and
  evaluates and sums the panels it creates at once.
  :func:`layer_splits` places the split points of every gap integral.
* :class:`PanelRule` -- a fixed composite rule with an embedded
  lower-order rule, held as data: the nodes of each panel, the
  half-widths, and the node weights on ``[-1, 1]``.
  :func:`trapezoid_ring` is the ``n``-point periodic trapezoid ring, one
  panel whose embedded rule is the even nodes.
* :func:`ring_integrals` -- the one ring reduction of every gap-plane
  integral, by a ring's full and embedded rule: the trapezoid rings
  :data:`TRAPEZOID_RING` (64 points) and :data:`SHORT_RING` (8 points) in
  3D, :data:`LINE_RING`, the one-node ring ``x1 = t``, in 2D.

All engines are stateless and re-entrant.  The only caches are
module-level ``functools.lru_cache`` wrappers of fixed rules and kernel
tails, shared by every call: ``fields._sinh_rule``,
``fields._kernel_tail_at`` and ``special._gauss_jacobi``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

__all__ = [
    "DEFAULT_REL_TOL",
    "DEFAULT_MAX_SUBDIVISIONS",
    "QuadSpec",
    "QuadResult",
    "QuadratureError",
    "integrate_1d",
    "integrate_vector",
    "layer_splits",
    "PanelRule",
    "trapezoid_ring",
    "TRAPEZOID_RING",
    "SHORT_RING",
    "LINE_RING",
    "ring_integrals",
]

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1]
# (public-domain QUADPACK table): rows (node x >= 0, Kronrod weight), x
# descending.  Odd-indexed abscissae carry the embedded Gauss weights.
_XK, _WK = np.array([
    [0.991455371120812639206854697526329, 0.022935322010529224963732008058970],
    [0.949107912342758524526189684047851, 0.063092092629978553290700663189204],
    [0.864864423359769072789712788640926, 0.104790010322250183839876322541518],
    [0.741531185599394439863864773280788, 0.140653259715525918745189590510238],
    [0.586087235467691130294144838258730, 0.169004726639267902826583426598550],
    [0.405845151377397166906606412076961, 0.190350578064785409913256402421014],
    [0.207784955007898467600689403773245, 0.204432940075298892414161999234649],
    [0.000000000000000000000000000000000, 0.209482141084727828012999174891714],
]).T
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])


def _symmetric(x, w):
    """The rule on ``[-1, 1]``, ascending, from the nodes ``x >= 0`` of a
    symmetric rule, descending, and their weights ``w``: the negative half is
    the mirror image of the positive, so the rule is symmetric bit for bit,
    and an odd rule's middle node 0, last in ``x``, is not mirrored."""
    half = x.size - (x[-1] == 0.0)
    return np.concatenate([-x[:half], x[::-1]]), np.concatenate([w[:half], w[::-1]])


# full node vector on [-1, 1], ascending
_NODES, _WEIGHTS_K = _symmetric(_XK, _WK)
_GAUSS_IDX = np.arange(1, 15, 2)  # positions of the embedded 7-point rule
_WEIGHTS_G = _symmetric(_XK[1::2], _WG)[1]

# The 5- and 16-point Gauss-Legendre rules on [-1, 1], the vertical rule of the
# dual check and the panel rule of the running integrals, held as tables like
# the Kronrod rule, so no run builds them: rows (node x >= 0, weight), x
# descending, each exact to 33 decimals, so that it rounds correctly to double.
_GAUSS_LEGENDRE_5 = _symmetric(*np.array([
    [0.906179845938663992797626878299393, 0.236926885056189087514264040719917],
    [0.538469310105683091036314420700209, 0.478628670499366468041291514835638],
    [0.000000000000000000000000000000000, 0.568888888888888888888888888888889],
]).T)
_GAUSS_LEGENDRE_16 = _symmetric(*np.array([
    [0.989400934991649932596154173450333, 0.027152459411754094851780572456018],
    [0.944575023073232576077988415534608, 0.062253523938647892862843836994378],
    [0.865631202387831743880467897712393, 0.095158511682492784809925107602246],
    [0.755404408355003033895101194847442, 0.124628971255533872052476282192016],
    [0.617876244402643748446671764048791, 0.149595988816576732081501730547479],
    [0.458016777657227386342419442983578, 0.169156519395002538189312079030360],
    [0.281603550779258913230460501460496, 0.182603415044923588866763667969220],
    [0.095012509837637440185319335424958, 0.189450610455068496285396723208283],
]).T)

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny  # floor of the roundoff floor, which underflows on subnormal f

# Relative tolerance and subdivision budget of the numeric force route, shared
# by force_numeric/total_numeric and the [quadrature] section of a run config;
# the budget is also QuadSpec's default.
DEFAULT_REL_TOL = 1e-8
DEFAULT_MAX_SUBDIVISIONS = 2000


@dataclass(frozen=True)
class QuadSpec:
    """Tolerance and subdivision budget for the adaptive engines.

    At least one of ``abs_tol``, ``rel_tol`` must be positive;
    ``max_subdivisions`` caps the bisections past the initial panels.
    ``split_points`` are breakpoints, held sorted and without repeats;
    panels never straddle those strictly inside the integration interval.
    """

    abs_tol: float = 0.0
    rel_tol: float = 1e-10
    max_subdivisions: int = DEFAULT_MAX_SUBDIVISIONS
    split_points: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.abs_tol <= 0.0 and self.rel_tol <= 0.0:
            raise ValueError("at least one of abs_tol, rel_tol must be positive")
        if self.abs_tol < 0.0:
            raise ValueError("abs_tol must be >= 0")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        object.__setattr__(self, "split_points", tuple(sorted(set(self.split_points))))

    def with_splits(self, points: Sequence[float]) -> "QuadSpec":
        """Return a copy with ``points`` merged into ``split_points``."""
        splits = (*self.split_points, *points)
        return QuadSpec(self.abs_tol, self.rel_tol, self.max_subdivisions, splits)


@dataclass(frozen=True)
class QuadResult:
    """Value, certified error estimate, and evaluation count of an integral."""

    value: float
    error_estimate: float
    evaluations: int


class QuadratureError(RuntimeError):
    """Subdivision budget exhausted before the tolerance was met, or an
    integrand that is not finite.

    Carries the best estimate obtained so far in ``result``.
    """

    def __init__(self, message: str, result: QuadResult):
        super().__init__(message)
        self.result = result


# bytes of values per pass of _panel_sums: its temporaries stay below glibc's
# 128 KiB mmap threshold, so they reuse heap memory instead of mapping afresh
_SUMS_BYTES = 96 << 10


def _panel_sums(fx: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The 15/7 pair on the panels ``[lo, hi]`` from the values ``fx``, shape
    ``(ncomp, npan, 15)``, at their nodes: per panel, the rows (kronrod, err,
    resabs), shape ``(npan, 3, ncomp)``.  Every sum is ``(fx * w).sum(-1)``
    over a contiguous row, so a panel's sums do not depend on how many
    panels or components are stacked with it (``fx @ w`` would); many
    components are summed a block of them at a time."""
    fx = np.ascontiguousarray(fx)
    step = max(1, _SUMS_BYTES // max(fx[0].nbytes, 1))
    if fx.shape[0] > step:
        blocks = [_panel_sums(fx[i : i + step], lo, hi) for i in range(0, fx.shape[0], step)]
        return np.concatenate(blocks, axis=2)
    half = 0.5 * (hi - lo)
    resk = (fx * _WEIGHTS_K).sum(-1) * half
    resabs = (np.abs(fx) * _WEIGHTS_K).sum(-1) * half
    # QUADPACK-style scaled error estimate from the embedded difference
    resasc = (np.abs(fx - (resk / (hi - lo))[..., None]) * _WEIGHTS_K).sum(-1) * half
    diff = np.abs(resk - (fx[..., _GAUSS_IDX] * _WEIGHTS_G).sum(-1) * half)
    scale = np.minimum(1.0, np.divide(200.0 * diff, resasc, out=np.ones_like(diff), where=resasc > 0.0))
    err = np.maximum(np.where(resasc > 0.0, resasc * scale * np.sqrt(scale), diff), 50.0 * _EPS * resabs)
    return np.stack([resk.T, err.T, resabs.T], axis=1)


def integrate_vector(
    fvec: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadSpec,
    ncomp: int | None = None,
    ncheck: int | None = None,
    initial_scale: bool | np.ndarray = False,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Adaptively integrate a vector-valued integrand component-wise.

    ``fvec`` maps an abscissa array of shape ``(n,)`` to values of shape
    ``(ncomp, n)`` (or ``(n,)`` for a single component), point by point: a
    node's value may not depend on which nodes share the call.  All
    components share the panel schedule, refined in rounds until every
    component meets ``max(abs_tol, rel_tol * |value_c|)`` or sits at its
    roundoff floor, the sum of the per-panel floors ``50 * eps * int |f_c|``
    but at least the smallest normal float.
    Bisection cannot reduce that floor, so, as in QUADPACK, a value that
    cancels below it stops refinement instead of exhausting the budget.
    The panels are held as arrays in creation order.  A round orders them
    by summed checked error, worst first (ties in creation order), and
    bisects the shortest run of the worst whose removal lets the rest meet
    that test, a single one when it holds the excess error, but never more
    than ``max_subdivisions`` bisections in all.  ``fvec`` is called once per
    round, on the 15 Kronrod nodes of each panel the round creates (first
    the initial panels, cut at the split points; then each parent's left
    half and right half), and they are summed in one numpy pass.

    When ``ncheck`` is given, only the first ``ncheck`` components drive
    refinement and the convergence test; the rest are carried along (used
    for cheap side quantities such as resolution diagnostics that need
    not be integrated to tolerance).

    With ``initial_scale``, the absolute tolerance is at least ``rel_tol``
    times the largest checked total of the initial panels (floored at
    1e-300), so that every component is resolved relative to the largest
    one.  Those totals are summed in creation order, as the reported totals
    are, so the tolerance is bit for bit that of a pass stopped on the
    initial panels.  An array ``initial_scale`` of ``ng`` floors splits the
    checked components into ``ng`` equal consecutive groups, each resolved
    relative to its own largest initial total, but at least its floor (True
    is one group with floor 0): so integrands stacked into one pass keep the
    tolerances of their own passes.

    Returns ``(values, errors, evaluations)``.  The per-component error
    includes a roundoff floor of ``1e-15 * int |f_c|`` so that estimates
    for components that vanish only after cancellation remain honest.
    Raises :class:`QuadratureError` when the budget is spent, or in the
    first round whose summed ``int |f_c|`` is not finite.
    """
    if a == b:
        z = np.zeros(ncomp or 1)
        return z, z.copy(), 0
    if a > b:
        v, e, n = integrate_vector(fvec, b, a, spec, ncomp, ncheck, initial_scale)
        return -v, e, n

    def evaluate(lo, hi):
        """The sums of the panels ``[lo, hi]``: one ``fvec`` call, one numpy pass."""
        half, mid = 0.5 * (hi - lo), 0.5 * (lo + hi)
        x = (mid[:, None] + half[:, None] * _NODES).ravel()
        return _panel_sums(np.asarray(fvec(x), dtype=float).reshape(-1, lo.size, _NODES.size), lo, hi)

    # the panels in creation order, first the initial ones, cut at the split points
    cuts = np.array([a] + [p for p in spec.split_points if a < p < b] + [b])
    lo, hi = cuts[:-1], cuts[1:]
    parts, nevals, ninitial = evaluate(lo, hi), _NODES.size * lo.size, lo.size
    abs_tol = spec.abs_tol
    if initial_scale is not False:
        floors = np.zeros(1) if initial_scale is True else np.asarray(initial_scale, dtype=float)
        totals = np.abs(parts.sum(axis=0)[0, :ncheck]).reshape(floors.size, -1)
        scale = np.maximum(totals.max(axis=1), floors)
        group = np.maximum(abs_tol, spec.rel_tol * np.maximum(scale, 1e-300))
        abs_tol = np.full(parts.shape[-1], abs_tol)
        abs_tol[: totals.size] = group.repeat(totals.shape[1])

    while True:
        values, errors, resabs = parts.sum(axis=0)
        if not np.isfinite(resabs).all():
            result = QuadResult(float(values[0]), float(errors[0]), nevals)
            raise QuadratureError("the integrand is not finite", result)
        target = np.maximum(abs_tol, spec.rel_tol * np.abs(values))
        floor = np.maximum(50.0 * _EPS * resabs, _TINY)
        met = lambda err: ((err <= target) | (err <= floor))[..., :ncheck].all(-1)
        done, room = met(errors), spec.max_subdivisions + ninitial - lo.size
        if done or room <= 0:
            break
        # a round: bisect, worst first, the fewest panels (at most room) whose
        # errors keep the rest from the stop test; Python's stable sort keeps
        # ties in creation order and, unlike numpy's, maps no sort kernel
        err = parts[:, 1, :ncheck].sum(-1).tolist()
        worst = sorted(range(lo.size), key=err.__getitem__, reverse=True)[:room]
        enough = met(errors - np.cumsum(parts[worst, 1], axis=0)).tolist()
        enough[-1] = True
        worst = worst[: 1 + enough.index(True)]
        keep = np.ones(lo.size, bool)
        keep[worst] = False
        # each parent's left half, then its right half, after the panels kept
        new_lo, new_hi = lo[worst].repeat(2), hi[worst].repeat(2)
        new_lo[1::2] = new_hi[::2] = 0.5 * (lo[worst] + hi[worst])
        parts = np.concatenate([parts[keep], evaluate(new_lo, new_hi)])
        lo, hi = np.concatenate([lo[keep], new_lo]), np.concatenate([hi[keep], new_hi])
        nevals += _NODES.size * new_lo.size

    errors = errors + 1e-15 * resabs
    if not done:
        result = QuadResult(float(values[0]), float(errors[0]), nevals)
        raise QuadratureError("subdivision budget exhausted", result)
    return values, errors, nevals


def integrate_1d(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    spec: QuadSpec | None = None,
) -> QuadResult:
    """Integrate ``f`` over ``[a, b]`` by adaptive Gauss-Kronrod bisection.

    ``f`` maps an array of nodes to the array of its values there.
    ``spec.split_points`` inside the interval become hard panel boundaries.
    Raises :class:`QuadratureError` (carrying the best estimate) if the
    subdivision budget is exhausted or the integrand is not finite.
    """
    spec = spec or QuadSpec()
    values, errors, nevals = integrate_vector(f, a, b, spec, ncomp=1)
    return QuadResult(float(values[0]), float(errors[0]), nevals)


def layer_splits(m: float, eps: float, stop: float, start: float = 0.0) -> tuple[float, ...]:
    """Split points ``start + w 2^j < stop``, ``j = 0, 1, ..``, halving toward
    a layer of width ``delta = eps^(1/m)`` at ``start``.  ``w = delta``, but
    for ``1 < m < 2``, where the curvature ``m (m - 1) t^(m - 2)`` is
    unbounded at the axis, ``w = delta 2^-ceil(52 / m)``: then ``w^m <=
    2^-52 eps``, the gap is ``eps`` to roundoff, and every ``delta 2^j`` is
    still a split.  A ``w`` that underflows to 0 raises :class:`ValueError`."""
    width = eps ** (1.0 / m)
    if 1.0 < m < 2.0:
        width *= 2.0 ** -math.ceil(52.0 / m)
    if not width > 0.0:
        raise ValueError(f"the first split width underflows to 0 at m = {m}, eps = {eps}")
    pts, step = [], width
    while start + step < stop:
        pts.append(start + step)
        step *= 2.0
    return tuple(pts)


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

    def panel_sums(self, fx: np.ndarray):
        """Per-panel sums ``(full, low)`` of values ``fx`` of shape
        ``(..., npan, nodes)``: by the full and by the embedded rule."""
        full = (fx @ self.weights) * self.half
        return full, (fx[..., self.embedded] @ self.embedded_weights) * self.half


def trapezoid_ring(n: int):
    """The ``n``-point periodic trapezoid ring on ``[0, 2pi]``: ``(cos, sin, rule)``.

    ``rule`` is one panel whose embedded rule is the ``n/2``-point rule on
    the even nodes.  Both are exact for trigonometric polynomials below
    degree ``n/2``, and spectrally accurate for smooth periodic data.
    """
    x = 2.0 * np.pi * np.arange(n) / n
    rule = PanelRule(
        x[None, :],
        np.array([np.pi]),
        np.full(n, 2.0 / n),
        np.arange(0, n, 2),
        np.full(n // 2, 4.0 / n),
    )
    return np.cos(x), np.sin(x), rule


# the rings of ring_integrals: the 64-point trapezoid of the dual check; the
# 8-point one, exact for the 3D force moments of k != 6 and the dual check's
# shear pairs (trigonometric polynomials of degree <= 4); and the 2D line as
# the one-node ring x1 = t, its own embedded rule (angular term 0)
TRAPEZOID_RING = trapezoid_ring(64)
SHORT_RING = trapezoid_ring(8)
_ONE = np.ones(1)
LINE_RING = (_ONE, PanelRule(np.zeros((1, 1)), _ONE, _ONE, np.zeros(1, int), _ONE))


def ring_integrals(f, ring, ts: np.ndarray) -> np.ndarray | list:
    """Integrals of ``f`` over the rings of radii ``ts``: shape ``(2 nrow, nt)``.

    A ring is ``(*directions, rule)``: per planar coordinate the unit
    direction at each node, panel by panel, and the :class:`PanelRule`;
    with a leading radius axis on both, each radius has its own nodes.
    ``f(t, xprime)`` maps the radius and the coordinates ``t * direction``
    of the ring points to their values, shape ``(nrow, n)``.  The first
    ``nrow`` rows are the integrals by the full rule, the rest the summed
    per-panel differences from the embedded rule, which bound the angular
    error; all carry the polar Jacobian ``t^(d - 2)``.  Integrands that
    share the ring points need not stack their values: ``f`` may return a
    list of such blocks, and then the result is the list of their
    integrals, each block reduced on its own.
    """
    *dirs, rule = ring
    xprime = tuple((ts[:, None] * c).ravel() for c in dirs)
    # the polar Jacobian t^(d - 2): t on the rings of the plane, 1 on the line
    jacobian = ts if len(dirs) == 2 else 1.0

    def reduce(values):
        full, low = rule.panel_sums(values.reshape(-1, ts.size, *rule.x.shape[-2:]))
        return np.concatenate([full, np.abs(full - low)]).sum(axis=2) * jacobian

    blocks = f(np.repeat(ts, dirs[0].shape[-1]), xprime)
    return [reduce(b) for b in blocks] if isinstance(blocks, list) else reduce(blocks)
