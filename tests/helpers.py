"""Helpers shared by the test modules."""

import numpy as np

from lubgap.traction import _octant_rule


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
    :func:`lubgap.traction._octant_rule` on ``[0, pi/4]``, mapped onto the
    other seven octants by sign flips and by swapping ``(cos, sin)``.  The
    ring is invariant, bit for bit, under the eight symmetries of the
    square; on flat caps ``cos``, ``sin``, ``rule.x`` and ``rule.half``
    keep the octant rule's leading radius axis.
    """
    rule = _octant_rule(profile, ts)
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
