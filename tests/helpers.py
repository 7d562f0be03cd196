"""Helpers shared by the test modules."""

import heapq

import numpy as np

from lubgap.dualcheck import _correction_terms, _discrepancy_many, _volume_integrate
from lubgap.fields import (
    _eval,
    _running_integral,
    _squeeze_type,
    eval_field,
    subflow_indices,
    subflow_scale,
)
from lubgap.geometry import GapProfile
from lubgap.quadrature import (
    _GAUSS_IDX,
    _NODES,
    _WEIGHTS_G,
    _WEIGHTS_K,
    TRAPEZOID_RING,
    PanelRule,
    QuadratureError,
    QuadResult,
    QuadSpec,
    _panel_sums,
    integrate_vector,
    ring_integrals,
)
from lubgap.special import AsymptoticExpansion, AsymptoticTerm, gamma, gamma_coeff


def mconvex(m=2.0, eps=1e-3, r=0.5, R=2.0, dimension=3) -> GapProfile:
    """The m-convex profile ``h = eps + |x'|^m``."""
    return GapProfile(kind="m-convex", m=m, s=0.0, eps=eps, r=r, R=R, dimension=dimension)


def flat(s=0.1, eps=1e-3, r=0.5, R=2.0, dimension=3) -> GapProfile:
    """The flat-capped profile of flat radius ``s``."""
    return GapProfile(kind="flat-capped", m=2.0, s=s, eps=eps, r=r, R=R, dimension=dimension)


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


def divergence(k, params, x) -> float:
    """Analytic divergence of sub-flow ``k`` at point ``x``: the trace of the
    exact gradient of :func:`lubgap.fields.eval_field`.

    Identically zero for every sub-flow except the rigid mean ``k = 0``,
    whose divergence is ``(omega2 d1 h - omega1 d2 h)/4`` in 3D and
    ``-omega0 h'/4`` in 2D (the mean flow follows the gap shape and is
    solenoidal only for vertical-axis rotations).
    """
    return float(np.trace(eval_field(k, params, x).grad_u))


def phi_leading(i: float, j: float, m: float) -> AsymptoticExpansion:
    """Leading behaviour of ``lubgap.special.phi(i, j, m, r, eps)`` as ``eps -> 0``.

    * ``i > (j+1)/m``: single term
      ``gamma_coeff(i, j+1, m)/Gamma(i) * eps^-(i-(j+1)/m)``, O(1) residual.
    * ``i = (j+1)/m``: ``(1/m)|ln eps|``, O(1) residual (coefficient 1/m
      exactly; the Gamma route hits a pole here).
    * ``i < (j+1)/m``: the integral converges at eps=0; empty term list.
    """
    if i <= 0.0 or j < 0.0 or m <= 1.0:
        raise ValueError("require i > 0, j >= 0, m > 1")
    threshold = (j + 1.0) / m
    if abs(i - threshold) <= 1e-12 * max(1.0, abs(i)):
        return AsymptoticExpansion((AsymptoticTerm(1.0 / m, is_log=True),))
    if i > threshold:
        coeff = gamma_coeff(i, j + 1.0, m) / gamma(i)
        return AsymptoticExpansion((AsymptoticTerm(coeff, power=i - threshold),))
    return AsymptoticExpansion(())


def energy(params, spec=None) -> float:
    """Viscous energy of the total constructed 3D field over the gap region.

    ``I[v] = (1/2) int sigma(v) : D(v) dx`` over ``{|x'| < r, |x3| < h/2}``,
    by the dual check's volume quadrature; since the constructed field is
    divergence-free this equals ``mu int |D(v)|^2``.  For the exact
    solution ``I = -(U.F + omega.T)/2``, so its blow-up slope must track
    the force asymptotics; that slope consistency, not equality, is what
    the value is for.
    """
    prof = params.profile
    if prof.dimension != 3:
        raise ValueError("energy is implemented for 3D problems")
    spec = spec or QuadSpec(rel_tol=1e-8)

    def pointfun(gap, x3):
        total = np.zeros((3, 3) + x3.shape)
        for k in subflow_indices(3):
            if subflow_scale(k, params) != 0.0:
                total += _eval(k, params, gap, x3)[2]
        D = 0.5 * (total + total.swapaxes(0, 1))
        return params.mu * np.einsum("ab...,ab...->...", D, D)

    return float(_volume_integrate(gauss_column(pointfun), params, prof.r, spec).value)


def gauss_legendre(n: int):
    """The ``n``-point Gauss-Legendre rule on ``[-1, 1]``: ascending nodes and
    weights, the oracle of the tables in :mod:`lubgap.quadrature`.

    Newton's method on the three-term recurrence of ``P_n`` finds the roots
    ``x >= 0`` from ``cos(pi (k - 1/4) / (n + 1/2))``, ``k = 1 .. ceil(n/2)``;
    the weights are ``2 / ((1 - x^2) P_n'(x)^2)``.  Both are computed in
    ``numpy.longdouble`` (80-bit extended on x86-64) and then rounded: the
    weight's relative condition number in its node, ``2x / (1 - x^2)``,
    would cost a few units in the last place near ``x = 1`` at a double
    node.  The negative half is the mirror image of the positive, so the
    rule is symmetric bit for bit."""
    k = np.arange(1, (n + 1) // 2 + 1, dtype=np.longdouble)
    x = np.cos(np.pi * (k - 0.25) / (n + 0.5))
    # the middle node of an odd rule, a root of P_n to the last bit
    x[n // 2 :] = 0.0

    def legendre(x):
        # P_n(x) and P_n'(x) = n (P_(n-1)(x) - x P_n(x)) / (1 - x^2)
        p0, p1 = np.ones_like(x), x
        for j in range(1, n):
            p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
        return p1, n * (p0 - x * p1) / ((1 - x) * (1 + x))

    tol = 64 * np.finfo(x.dtype).eps
    for _ in range(100):
        p, dp = legendre(x)
        step = p / dp
        x -= step
        if np.all(np.abs(step) <= tol):
            break
    dp = legendre(x)[1]
    w = 2 / ((1 - x) * (1 + x) * dp * dp)
    x, w, half = x.astype(float), w.astype(float), n // 2
    return np.concatenate([-x[:half], x[::-1]]), np.concatenate([w[:half], w[::-1]])


def gauss_column(pointfun):
    """The vertical integrals over ``|x3| < h/2`` of ``pointfun(gap, x3)`` by
    the 5-point Gauss rule, as ``lubgap.dualcheck._volume_integrate`` takes
    them: ``pointfun`` receives the planar gap record of the points, shape
    (n, 1), and the Gauss heights over each, shape (n, 5), and returns the
    values there."""
    gx, gw = gauss_legendre(5)

    def column(gap):
        half = 0.5 * gap.h
        return (pointfun(gap[:, None], half[:, None] * gx) * gw).sum(axis=1) * half

    return column


def reference_ell(i, j, params, spec=None) -> float:
    """``lubgap.dualcheck.ell`` as it was built before its exact vertical moments
    and per-pair rings: the 64-point ring for every pair, the 5-point vertical
    Gauss rule, and the full ``(3, 3, n, g)`` discrepancies, those of the
    squeeze types as the identity times ``(qbar - q_a) / (2 mu)``."""
    prof, mu = params.profile, params.mu
    if subflow_scale(i, params) == 0.0 or subflow_scale(j, params) == 0.0:
        return 0.0

    def discrepancy(k, gap, x3):
        if k in (3, 6):
            QA1, QB1, QA2, QB2, lapA3, lapB3 = _correction_terms(k, params, gap)
            x3sq = x3 * x3
            q = np.stack([
                mu * (QA1 + 3.0 * x3sq * QB1),
                mu * (QA2 + 3.0 * x3sq * QB2),
                -mu * (0.5 * lapA3 * x3sq + 0.25 * lapB3 * x3sq * x3sq),
            ])
            return np.eye(3)[:, :, None, None] * ((q.mean(axis=0) - q) / (2.0 * mu))
        return _discrepancy_many(k, params, gap, x3)

    def pointfun(gap, x3):
        return mu * np.einsum("ab...,ab...->...", discrepancy(i, gap, x3), discrepancy(j, gap, x3))

    spec = spec or QuadSpec(rel_tol=1e-7, abs_tol=1e-12)
    return float(_volume_integrate(gauss_column(pointfun), params, 0.25 * prof.r, spec, TRAPEZOID_RING).value)


def kronrod_panels(edges: np.ndarray) -> PanelRule:
    """The 15-point Kronrod rule, with its embedded 7-point Gauss rule, on
    the panels between consecutive ``edges`` (along the last axis): the
    nodes of :func:`lubgap.quadrature.integrate_vector`, for graded
    reference rules."""
    a, b = edges[..., :-1], edges[..., 1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid[..., None] + half[..., None] * _NODES
    return PanelRule(x, half, _WEIGHTS_K, _GAUSS_IDX, _WEIGHTS_G)


def serial_integrate_vector(fvec, a, b, spec, ncomp=None, ncheck=None, initial_scale=False, rounds=True):
    """The reference of :func:`lubgap.quadrature.integrate_vector`: the same
    rounds, order and stop test, but the worst panels taken off a heap and
    one ``fvec`` call per 15-node panel, each panel summed by
    :func:`lubgap.quadrature._panel_sums` on its own as soon as it is
    evaluated.  The totals are summed over the panels in creation order, as
    the driver sums them.  A round bisects panels, worst first, until the
    panels left would meet the stop test; with ``rounds=False`` it bisects
    the worst panel alone, one panel per step.  The budget caps the
    bisections past the initial panels.  ``initial_scale`` takes two
    passes: a probe that stops on the initial panels, whose checked totals
    set the absolute tolerance ``rel_tol * max(|totals|)`` of the second."""
    if a > b:
        v, e, n = serial_integrate_vector(fvec, b, a, spec, ncomp, ncheck, initial_scale, rounds)
        return -v, e, n
    if initial_scale:
        probe = QuadSpec(abs_tol=1e300, rel_tol=1.0, split_points=spec.split_points)
        totals = serial_integrate_vector(fvec, a, b, probe, ncomp, ncheck)[0]
        scale = max(float(np.max(np.abs(totals[:ncheck]))), 1e-300)
        abs_tol = max(spec.abs_tol, spec.rel_tol * scale)
        spec = QuadSpec(abs_tol, spec.rel_tol, spec.max_subdivisions, spec.split_points)
    # alive: the live panels' sums, keyed by the evaluation count at their
    # creation, so in creation order; heap: (-summed checked error, key, lo, hi)
    heap, alive, nevals = [], {}, 0

    def push(lo, hi):
        nonlocal nevals
        fx = np.asarray(fvec(0.5 * (lo + hi) + 0.5 * (hi - lo) * _NODES), dtype=float)
        (parts,) = _panel_sums(fx.reshape(-1, 1, _NODES.size), np.array([lo]), np.array([hi]))
        nevals += _NODES.size
        alive[nevals] = parts
        heapq.heappush(heap, (-float(parts[1][:ncheck].sum()), nevals, lo, hi))

    cuts = [a] + [p for p in spec.split_points if a < p < b] + [b]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        push(lo, hi)
    # each bisection adds one panel: the panel count the budget allows
    budget = spec.max_subdivisions + len(heap)
    while True:
        values, errors, resabs = np.sum(list(alive.values()), axis=0)
        target = np.maximum(spec.abs_tol, spec.rel_tol * np.abs(values))
        floor = np.maximum(50.0 * np.finfo(float).eps * resabs, np.finfo(float).tiny)

        def met(err):
            return np.all(((err <= target) | (err <= floor))[:ncheck])

        done = met(errors)
        if done or len(heap) >= budget:
            break
        popped, removed = [], 0.0
        while heap and len(heap) + 2 * len(popped) < budget and not met(errors - removed):
            _, key, lo, hi = heapq.heappop(heap)
            removed = removed + alive.pop(key)[1]
            popped.append((lo, hi))
            if not rounds:
                break
        for lo, hi in popped:
            mid = 0.5 * (lo + hi)
            push(lo, mid)
            push(mid, hi)
    errors = errors + 1e-15 * resabs
    if not done:
        raise QuadratureError(
            "subdivision budget exhausted", QuadResult(float(values[0]), float(errors[0]), nevals)
        )
    return values, errors, nevals


def cumulative_sums(rule, fx: np.ndarray):
    """Per-panel sums of values ``fx`` of shape ``(..., npan, nodes)`` by a
    :class:`lubgap.quadrature.PanelRule`.

    Returns ``(full, low, cum)`` over the last axis: the sums of the full
    rule, those of the embedded rule, and the cumulative full sums at the
    panel edges, starting from 0.
    """
    full, low = rule.panel_sums(fx)
    cum = np.cumsum(np.concatenate([np.zeros_like(full[..., :1]), full], axis=-1), axis=-1)
    return full, low, cum


def mirrored_ring(profile, ts):
    """The rotation's graded octant rule mirrored onto the whole circle.

    Returns the ring ``(cos, sin, rule)`` of
    :func:`lubgap.quadrature.ring_integrals`: the panels of
    :func:`octant_rule` on ``[0, pi/4]``, mapped onto the
    other seven octants by sign flips and by swapping ``(cos, sin)``.  The
    ring is invariant, bit for bit, under the eight symmetries of the
    square; on flat caps ``cos``, ``sin``, ``rule.x`` and ``rule.half``
    keep the octant rule's leading radius axis.
    """
    rule = octant_rule(profile, ts)
    th = rule.x
    c, s = np.cos(th), np.sin(th)
    q = 0.5 * np.pi
    lead = th.shape[:-2]
    # octants counter-clockwise: theta, pi/2 - theta, pi/2 + theta, pi - theta, ...
    cos = np.concatenate([c, s, -s, -c, -c, -s, s, c], axis=-2).reshape(*lead, -1)
    sin = np.concatenate([s, c, c, s, -s, -c, -c, -s], axis=-2).reshape(*lead, -1)
    theta = np.concatenate(
        [th, q - th, q + th, 2 * q - th, 2 * q + th, 3 * q - th, 3 * q + th, 4 * q - th],
        axis=-2,
    )
    return cos, sin, rule._replace(x=theta, half=np.tile(rule.half, 8))


def graded_line(lo: float, hi: float, centers, delta: float):
    """Edges on ``[lo, hi]`` for a reference line integral: a uniform
    background of 33 points plus 48 sinh-graded points on each side of
    every center, spaced ``delta`` at the center, without near-duplicates."""
    pts = set(np.linspace(lo, hi, 33).tolist())
    span = hi - lo
    offs = delta * np.sinh(np.linspace(0.0, np.arcsinh(span / delta), 48))
    for c0 in centers:
        for sgn in (1.0, -1.0):
            vals = c0 + sgn * offs
            pts.update(vals[(vals > lo) & (vals < hi)].tolist())
        if lo <= c0 <= hi:
            pts.add(float(c0))
    pts.update((lo, hi))
    nodes = np.array(sorted(pts))
    keep = np.concatenate([[True], np.diff(nodes) > 1e-13 * max(span, 1.0)])
    return nodes[keep]


# The rotation pressure's graded octant rule: the reference for the force
# route's closed-form moments of G (lubgap.traction._rotation_pressure_rows,
# _rotation_corner).  It integrates the moments of G point by point on
# the rings, so it shares none of that code's identities.

# panels of the octant rule, sinh-graded toward the cardinal angle 0
OCTANT_PANELS = 12
# on flat caps, the panels on each side of the feature angle; the panels
# graded toward 0 give up as many
FEATURE_PANELS = 4


def sinh_edges(at, end, width, n):
    """``n + 1`` edges from ``at`` to ``end``, sinh-graded toward ``at`` at the
    width ``width``; the last is ``end`` exactly.  The arguments broadcast."""
    v = np.linspace(0.0, 1.0, n + 1)
    span = end - at
    edges = at + np.sign(span) * width * np.sinh(v * np.arcsinh(np.abs(span) / width))
    edges[..., -1:] = end
    return edges


def octant_panels(profile) -> int:
    """The panel count of :func:`octant_edges`, the same at every radius."""
    return OCTANT_PANELS + (FEATURE_PANELS if profile.kind == "flat-capped" else 0)


def octant_edges(profile, ts):
    """Panel edges of the rotation pressure's angular rule at the radii ``ts``.

    The first octant ``[0, pi/4]``, which :func:`rotation_pressure` reads at
    ``theta`` and ``pi/2 - theta``, sinh-graded (:func:`sinh_edges`) toward
    the cardinal angle 0 at the width ``delta / r`` over which the rotation
    pressure switches on, too narrow for a uniform rule.

    On m-convex profiles one set of :data:`OCTANT_PANELS` panels serves
    every radius.  On flat caps the pressure also switches on, over a width
    ``delta`` in ``x2``, across the lines ``|x2| = s`` (and ``|x1| = s``),
    where the flat part of ``Q_3`` ends; a ring of radius ``t > s`` crosses
    them at the angle ``a = asin(s/t)`` (or ``acos(s/t)`` in the first
    octant).  Each radius then gets its own row of edges: ``[0, a/2]`` graded
    toward 0 as above, with :data:`FEATURE_PANELS` fewer panels, and
    ``[a/2, a]`` and ``[a, pi/4]`` graded toward ``a`` at the width
    ``delta / t``, with :data:`FEATURE_PANELS` each.  Rings inside the cap
    take ``a = pi/8``; at ``t = s sqrt(2)``, where ``a = pi/4``, the last
    panels have zero width.  Every radius has :func:`octant_panels` panels.
    """
    delta, quarter = profile.boundary_layer_scale(), 0.25 * np.pi
    if profile.kind != "flat-capped":
        return sinh_edges(0.0, quarter, delta / profile.r, OCTANT_PANELS)
    ts = np.maximum(ts, 1e-300)[:, None]
    ratio = np.minimum(profile.s / ts, 1.0)
    angle = np.where(ratio * ratio <= 0.5, np.arcsin(ratio), np.arccos(ratio))
    # rings inside the cap cross no feature line; refine them mid-octant
    angle = np.where(ratio < 1.0, angle, 0.5 * quarter)
    n, width = FEATURE_PANELS, delta / ts
    edges = [
        sinh_edges(0.0, 0.5 * angle, delta / profile.r, OCTANT_PANELS - n),
        sinh_edges(angle, 0.5 * angle, width, n)[:, -2::-1],
        sinh_edges(angle, quarter, width, n)[:, 1:],
    ]
    return np.concatenate(edges, axis=1)


def octant_rule(profile, ts):
    """15-point Gauss-Kronrod panels on :func:`octant_edges`; on flat caps
    ``rule.x`` and ``rule.half`` have a leading radius axis."""
    return kronrod_panels(octant_edges(profile, ts))


def rotation_pressure(params, ts, rule=None):
    """Ring integrals of the 3D rotation's moments ``6 mu G (N, nu x N)``, laid out
    as by :func:`lubgap.quadrature.ring_integrals`, on ``rule`` (by default
    :func:`octant_rule` at ``ts``).

    ``-6 mu G`` is the running-integral term of the pressure, ``G = c1 (Q(x1, x2)
    - Q(r, x2)) + c2 (Q(x2, x1) + Q(r, x1))`` with ``Q = Q_3``, and ``nu x N =
    a (-x2, x1, 0)`` with ``a = 1 + w H1/2``, ``w = (h - eps)/2 - R``.  ``Q`` is
    odd in its first argument and even in its second, so a ring of radius ``t``
    leaves ``J0 = t int Q(r, x2)`` and ``J1 = t int Q(x1, x2) x1``: ``F = 6 mu
    (H1 c1 J1/2, H1 c2 J1/2, (c1 - c2) J0)`` and ``T = 6 mu a (-c2 J1, c1 J1,
    0)``.  ``J0``, ``J1`` and their angular estimates (from the per-panel
    Kronrod-Gauss differences) are four times their first-quadrant values, read
    on the octant rule at ``theta`` and at ``pi/2 - theta``.
    """
    prof = params.profile
    rule = octant_rule(prof, ts) if rule is None else rule
    lead = rule.x.shape[:-2]
    octant = (np.cos(rule.x).reshape(*lead, -1), np.sin(rule.x).reshape(*lead, -1), rule)

    def halves(_t, xprime):
        # the integrands of J0 at theta and at pi/2 - theta, then those of J1
        x1, x2 = xprime
        r = np.full_like(x1, prof.r)
        q = _running_integral(prof, 3, np.stack([r, r, x1, x2]), np.stack([x2, x1, x2, x1]))
        q[2:] *= np.stack(xprime)
        return q

    J0, J1, E0, E1 = 4.0 * ring_integrals(halves, octant, ts).reshape(4, 2, -1).sum(axis=1)
    c1, c2 = _squeeze_type(6, params)[1]
    mu6, H1 = 6.0 * params.mu, prof.radial_jet(ts, 1)[0]
    a = 1.0 + 0.5 * (0.5 * (prof.h_radial(ts) - prof.eps) - prof.R) * H1
    zero = np.zeros_like(ts)
    on_j1 = mu6 * np.stack([0.5 * H1 * c1, 0.5 * H1 * c2, zero, -a * c2, a * c1, zero])
    vals, errs = on_j1 * J1, np.abs(on_j1) * E1
    vals[2], errs[2] = mu6 * (c1 - c2) * J0, mu6 * abs(c1 - c2) * E0
    return np.concatenate([vals, errs])


def rotation_f3_line(params, rel_tol=1e-13):
    """The F3 moment of the 3D rotation's ``6 mu G`` as one line integral of
    ``Q_3``: ``(value, error)``.

    ``Q`` is odd in its first argument, so over the disc only the anchor
    terms of ``G`` remain: ``F3 = 12 mu (c1 - c2) int_{-r}^{r} sqrt(r^2 - y^2)
    Q(r, y) dy``, integrated in ``y = r sin phi`` over ``[0, pi/2]``, split
    where :meth:`GapProfile.radial_splits` cross the line.  It shares no
    identity with the force route's polar F3 row and corner rule, whose
    oracle it is.
    """
    prof = params.profile
    c1, c2 = _squeeze_type(6, params)[1]
    r, coef = prof.r, 24.0 * params.mu * (c1 - c2) * prof.r**2

    def line(phi):
        return coef * np.cos(phi) ** 2 * _running_integral(prof, 3, r, r * np.sin(phi))

    spec = QuadSpec(rel_tol=rel_tol, split_points=tuple(np.arcsin(np.asarray(prof.radial_splits()) / r)))
    vals, errs, _ = integrate_vector(line, 0.0, 0.5 * np.pi, spec, ncomp=1)
    return float(vals[0]), float(errs[0])
