"""Gap geometry: profiles and surface parametrization.

Two nearly touching rigid particles are placed symmetrically about the
midplane ``x3 = 0``; through the gap region the top particle's boundary is

    x3 = eps/2 + |x'|^m / 2            (m-convex)
    x3 = eps/2                          for |x'| <= s,
         eps/2 + (|x'| - s)^2 / 2       for s < |x'| <= r   (flat-capped)

and the bottom boundary is its mirror image.  The vertical distance between
the boundaries is the gap function ``h``; the top particle's centroid sits
at ``(0', eps/2 + R)``, so the lever arm of a top surface point is
``nu = (x1, x2, (h - eps)/2 - R)``.  The 2D profiles are the single-variable
analogues with coordinate ``x1`` and vertical coordinate ``x2``.

Profile objects are immutable; all evaluators accept scalars or numpy
arrays and are pure functions of their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .quadrature import layer_splits

__all__ = ["GapProfile", "PlanarGap", "SurfacePoint", "surface_sample", "FlatHypothesisError"]

_SQRT2M1 = np.sqrt(2.0) - 1.0


class FlatHypothesisError(ValueError):
    """Flat radius violates the s < (sqrt(2)-1) r hypothesis of the flat asymptotics."""


@dataclass(frozen=True)
class PlanarGap:
    """The gap at planar points (:meth:`GapProfile.at`): their coordinates ``xprime``,
    ``rho = |x'|``, ``h`` and the radial jet ``(H1, .., H_order)``, all of one shape."""

    xprime: tuple
    rho: np.ndarray
    h: np.ndarray
    jet: tuple

    def __getitem__(self, index) -> PlanarGap:
        """``index`` applied to every array: ``gap[:, None]`` are rows under heights ``(n, g)``."""
        return PlanarGap(tuple(x[index] for x in self.xprime), self.rho[index], self.h[index],
                         tuple(H[index] for H in self.jet))


@dataclass(frozen=True)
class GapProfile:
    """Geometry of the near-contact region.

    Parameters
    ----------
    dimension : 2 or 3
    kind : "m-convex" or "flat-capped"
    m : profile exponent; >= 2 in 3D, > 1 in 2D.  Flat-capped profiles use
        a parabolic (m = 2) curved part; ``m`` is forced to 2 there.
    r : radius of the gap region.
    s : flat-cap radius (flat-capped only; 0 otherwise).
    eps : interparticle distance at closest approach.
    R : distance from the contact plane to the particle centroid.
    """

    dimension: int
    kind: Literal["m-convex", "flat-capped"]
    m: float
    r: float
    s: float
    eps: float
    R: float

    def __post_init__(self) -> None:
        if self.dimension not in (2, 3):
            raise ValueError("dimension must be 2 or 3")
        if self.kind not in ("m-convex", "flat-capped"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not all(map(math.isfinite, (self.m, self.r, self.s, self.eps, self.R))):
            raise ValueError("m, r, s, eps, R must be finite")
        if self.eps <= 0.0 or self.r <= 0.0 or self.R <= 0.0:
            raise ValueError("eps, r, R must be positive")
        if self.kind == "m-convex":
            if self.dimension == 3 and self.m < 2.0:
                raise ValueError("3D profiles require m >= 2")
            if self.dimension == 2 and self.m <= 1.0:
                raise ValueError("2D profiles require m > 1")
            if self.s != 0.0:
                raise ValueError("m-convex profiles have no flat radius")
        else:
            object.__setattr__(self, "m", 2.0)
            if not 0.0 < self.s < self.r:
                raise ValueError("flat-capped profiles require 0 < s < r")

    # -- scalar/array evaluators of the radial profile ---------------------

    def check_flat_hypothesis(self, override: bool = False) -> None:
        """Validate ``s < (sqrt(2)-1) r`` required by the flat asymptotics."""
        if self.kind != "flat-capped":
            return
        if self.s >= _SQRT2M1 * self.r:
            if override:
                import warnings

                warnings.warn(
                    f"flat radius s={self.s} >= (sqrt(2)-1)r={_SQRT2M1 * self.r:.6g}; "
                    "flat asymptotics are outside their proven range",
                    stacklevel=2,
                )
            else:
                raise FlatHypothesisError(
                    f"s={self.s} violates s < (sqrt(2)-1) r = {_SQRT2M1 * self.r:.6g}"
                )

    def h_radial(self, rho):
        """Gap as a function of the radial coordinate ``rho = |x'| >= 0``."""
        rho = np.abs(rho)
        if self.kind == "m-convex":
            return self.eps + rho**self.m
        return self.eps + np.square(np.maximum(rho - self.s, 0.0))

    def boundary_layer_scale(self) -> float:
        """Radial scale ``eps^(1/m)`` over which the gap doubles."""
        return self.eps ** (1.0 / self.m)

    def radial_splits(self) -> tuple[float, ...]:
        """The radial split points of every gap integral, increasing:
        :func:`~lubgap.quadrature.layer_splits` from the axis on m-convex
        profiles; on flat caps the rim ``s``, then the same from ``s`` at
        ``m = 2``, as the gap doubles over ``delta`` beyond the rim (``h =
        eps`` on the cap).  In 2D, whose radial coordinate is the signed
        ``x1``, also ``0`` and the mirrors.  The dual check reads only
        ``delta``, the first m-convex point in 3D.
        """
        if self.kind == "m-convex":
            pts = list(layer_splits(self.m, self.eps, self.r))
        else:
            pts = [self.s, *layer_splits(self.m, self.eps, self.r, start=self.s)]
        if self.dimension == 2:
            pts = [-p for p in reversed(pts)] + [0.0] + pts
        return tuple(pts)

    # -- h and the radial jet of its planar derivatives --------------------

    def h(self, x1, x2=None):
        if self.dimension == 2:
            return self.h_radial(x1)
        return self.h_radial(np.hypot(x1, x2))

    def at(self, xprime, order: int) -> PlanarGap:
        """The :class:`PlanarGap` of planar points ``xprime``, ``(x1, x2)`` or ``(x1,)``,
        with ``order`` jet entries: the one map from planar coordinates to
        ``rho``, ``h`` and the jet, read by every field, normal and dual correction."""
        rho = np.hypot(*xprime) if self.dimension == 3 else np.abs(xprime[0])
        return PlanarGap(tuple(xprime), rho, self.h_radial(rho), self.radial_jet(rho, order))

    def radial_jet(self, rho, order):
        """``(H1, .., H_order)`` of the gap: ``H1 = h'/rho`` and ``H(j+1) = H(j)'/rho``.

        A radial ``g`` with jet ``(a1, a2, a3)`` has ``d_i g = a1 x_i``,
        ``d_ij g = a1 delta_ij + a2 x_i x_j`` and ``d_ijk g = a2 (delta_ij x_k +
        delta_ik x_j + delta_jk x_i) + a3 x_i x_j x_k``; in particular
        ``grad h = H1 x'``.  m-convex: ``H1 = m rho^(m - 2)`` and ``H(j+1) =
        (m - 2j) H(j) / rho^2``, with ``H_j`` the constant ``m (m - 2) ..
        (m - 2j + 2)`` when ``m = 2j``.  On the axis each ``H`` takes the
        value that gives these products their limits; flat caps take the
        flat side at ``rho = s``.
        """
        if self.kind == "m-convex":
            # the axis, and radii whose square underflows, take the axis values
            m, rho2 = self.m, np.square(rho)
            on_axis = rho2 == 0.0
            safe = np.where(on_axis, 1.0, rho)
            H = np.where(on_axis, m if m == 2.0 else 0.0, m * safe ** (m - 2.0))
            jet, coef = [H], m
            for j in range(2, order + 1):
                coef *= m - 2.0 * j + 2.0
                H = (m - 2.0 * j + 2.0) * H / np.where(on_axis, 1.0, rho2)
                jet.append(np.full_like(H, coef) if m == 2.0 * j else H)
            return tuple(jet)
        s, outside = self.s, rho > self.s
        rho = np.where(outside, rho, 1.0)
        jet = (2.0 - 2.0 * s / rho, 2.0 * s / rho**3, -6.0 * s / rho**5)[:order]
        return tuple(np.where(outside, H, 0.0) for H in jet)


@dataclass(frozen=True)
class SurfacePoint:
    """A point of the top (or bottom) gap boundary, or an array of them.

    Attributes
    ----------
    xprime : planar coordinates (x1, x2), or x1 in 2D.  Every attribute
        holds floats, or arrays for points sampled as arrays.
    x3 : height of the boundary point (``+h/2`` on top).
    n : unit outward normal of the top particle (points down into the gap,
        vertical component negative).
    nu : lever arm, the point minus the top particle's centroid.
    jac : area element factor dS/dx' = sqrt(1 + |grad x3|^2) >= 1.
    """

    xprime: tuple
    x3: float
    n: tuple
    nu: tuple
    jac: float


def surface_sample(profile: GapProfile, side: str, xprime) -> SurfacePoint:
    """Sample the gap boundary at planar position ``xprime``.

    ``xprime`` is ``(x1, x2)`` in 3D and ``x1`` in 2D, with scalar or array
    coordinates; the fields of the result are floats for scalars and arrays
    of the coordinates' shape otherwise.  ``side`` is ``"top"`` or
    ``"bottom"``; the returned normal is always the
    outward normal of the particle the sampled boundary belongs to (downward
    ``n3 < 0`` on top, upward on bottom), and ``nu`` is the lever arm with
    respect to the top particle's centroid as used by the torque integrals.
    On the flat-cap kink circle ``|x'| = s`` the flat-region (vertical)
    normal is returned, a measure-zero determinism convention.
    """
    if side not in ("top", "bottom"):
        raise ValueError("side must be 'top' or 'bottom'")
    sign = 1.0 if side == "top" else -1.0
    d = profile.dimension
    planar = tuple(np.asarray(v, dtype=float) for v in (xprime if d == 3 else (xprime,)))
    gap = profile.at(planar, 1)
    rho, h = gap.rho, gap.h
    if np.any(rho > profile.r):
        name = "|x'|" if d == 3 else "|x1|"
        raise ValueError(f"{name} = {np.max(rho)} outside the gap region r = {profile.r}")
    # grad of the surface height h/2
    half_H1 = 0.5 * gap.jet[0]
    g = [half_H1 * x for x in planar]
    jac = np.sqrt(sum((gi * gi for gi in g), 1.0))
    # the lever arm is always taken about the top centroid (torque on D1)
    lever = 0.5 * (h - profile.eps) - profile.R
    if side == "bottom":
        lever = -0.5 * (h - profile.eps) - profile.eps - profile.R
    keep = float if rho.ndim == 0 else np.asarray
    planar = tuple(keep(x) for x in planar)
    n = tuple(keep(v) for v in (*(sign * gi / jac for gi in g), -sign / jac))
    return SurfacePoint(
        planar if d == 3 else planar[0], keep(sign * 0.5 * h), n, (*planar, keep(lever)), keep(jac)
    )
