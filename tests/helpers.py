"""Helpers shared by the test modules."""

import numpy as np


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
