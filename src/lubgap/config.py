"""Run configuration: structured text files describing one computation.

A run is described by a single INI-style file with bracketed sections and
``key = value`` lines; physics parameters never come from positional
command-line arguments, so a sweep is always reproducible from its config
artifact.  ``_SCHEMA`` is the format: each section's keys in file order,
with each key's type and default.  :func:`parse_config` reads every value
through it and :func:`dump_config` writes every value from it.  Sections:

``[profile]``
    ``dimension`` (2 or 3), ``kind`` (``m-convex`` or ``flat-capped``),
    ``m`` (convexity exponent, m-convex only), ``s`` (flat radius,
    flat-capped only), ``eps``, ``r``, ``R``.
``[motion]``
    ``mu``, ``U`` (comma-separated, dimension components), ``omega``
    (three comma-separated values in 3D, a scalar in 2D).
``[quadrature]`` (optional)
    ``rel_tol``, ``max_subdivisions`` of the numeric force route; the
    absolute tolerance is set from the initial panels of each integral,
    not configured, and the budget counts the bisections past them.  The
    library's own defaults apply, 1e-8 and 2000 (:mod:`lubgap.quadrature`);
    ``rel_tol`` below 1e-12 (the roundoff floor of the force integrals)
    and ``max_subdivisions`` below 200 are rejected, not raised silently.
``[sweep]`` (optional)
    ``eps_from``, ``eps_to``, ``points`` -- a log-spaced epsilon grid.
``[output]`` (optional)
    ``csv``, ``json`` -- artifact paths.
``[run]`` (optional)
    ``mode`` (``numeric`` | ``asymptotic`` | ``both``),
    ``override_flat_hypothesis`` (bool).

Any other section or key is rejected with :class:`ConfigError`, so a typo
cannot pass for a default.  An error names its file and section once.

:func:`dump_config` renders a config back to text such that re-parsing
yields an equal :class:`RunConfig` (floats are written in shortest
round-trip form).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from .fields import ProblemParams
from .geometry import GapProfile
from .quadrature import DEFAULT_MAX_SUBDIVISIONS, DEFAULT_REL_TOL, QuadSpec

__all__ = [
    "ConfigError",
    "SweepSpec",
    "RunConfig",
    "parse_config",
    "load_config",
    "dump_config",
    "MODES",
]

MODES = ("numeric", "asymptotic", "both")

# the default of a key that the file must give
_REQUIRED = object()

# the format: each section's keys in file order, each key's (type, default);
# ``tuple`` reads a comma-separated list of numbers
_SCHEMA = {
    "profile": {"dimension": (int, 3), "kind": (str, "m-convex"), "m": (float, 2.0),
                "s": (float, 0.0), "eps": (float, _REQUIRED), "r": (float, _REQUIRED),
                "R": (float, _REQUIRED)},
    "motion": {"mu": (float, 1.0), "U": (tuple, _REQUIRED), "omega": (tuple, None)},
    "quadrature": {"rel_tol": (float, DEFAULT_REL_TOL),
                   "max_subdivisions": (int, DEFAULT_MAX_SUBDIVISIONS)},
    "sweep": {"eps_from": (float, _REQUIRED), "eps_to": (float, _REQUIRED),
              "points": (int, _REQUIRED)},
    "output": {"csv": (str, None), "json": (str, None)},
    "run": {"mode": (str, "both"), "override_flat_hypothesis": (bool, False)},
}
_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}

# the smallest force-route tolerance and subdivision budget a config may ask for
MIN_REL_TOL = 1e-12
MIN_SUBDIVISIONS = 200


def _default_quadrature() -> QuadSpec:
    return QuadSpec(rel_tol=DEFAULT_REL_TOL)


def _check_quadrature(spec: QuadSpec) -> QuadSpec:
    if spec.rel_tol < MIN_REL_TOL:
        raise ValueError(f"rel_tol must be >= {MIN_REL_TOL:g}, got {spec.rel_tol:g}")
    if spec.max_subdivisions < MIN_SUBDIVISIONS:
        raise ValueError(
            f"max_subdivisions must be >= {MIN_SUBDIVISIONS}, got {spec.max_subdivisions}"
        )
    return spec


class ConfigError(ValueError):
    """Invalid or missing configuration data, with section/key context."""

    def __init__(self, message: str, *, source: str = "<config>", where: str = ""):
        loc = f"{source}[{where}]" if where else source
        super().__init__(f"{loc}: {message}")
        self.source = source
        self.where = where


@dataclass(frozen=True)
class SweepSpec:
    """Log-spaced epsilon grid from ``eps_from`` down to ``eps_to``."""

    eps_from: float
    eps_to: float
    points: int

    def __post_init__(self) -> None:
        if not self.eps_from > self.eps_to > 0.0:
            raise ValueError("sweep requires eps_from > eps_to > 0")
        if self.points < 3:
            raise ValueError("sweep requires at least 3 points")

    def grid(self) -> tuple[float, ...]:
        """Epsilon values, strictly decreasing."""
        return tuple(
            float(e)
            for e in np.logspace(
                np.log10(self.eps_from), np.log10(self.eps_to), self.points
            )
        )


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce one computation."""

    problem: ProblemParams
    quadrature: QuadSpec = field(default_factory=_default_quadrature)
    sweep: SweepSpec | None = None
    csv_path: str | None = None
    json_path: str | None = None
    mode: str = "both"
    override_flat_hypothesis: bool = False

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        _check_quadrature(self.quadrature)

    def eps_grid(self) -> tuple[float, ...]:
        """The sweep grid, or the single configured epsilon."""
        if self.sweep is not None:
            return self.sweep.grid()
        return (self.problem.profile.eps,)


def _read(sec, key: str, kind: type, default):
    """The value of ``key`` in ``sec`` (``None`` for an absent section) as
    ``kind``, or ``default``; a bad or missing value raises ``ValueError``."""
    if sec is None or key not in sec:
        if default is _REQUIRED:
            raise ValueError(f"missing key {key!r}")
        return default
    raw = sec[key]
    if kind is str:
        if not raw:
            raise ValueError(f"key {key!r} is empty")
        return raw
    if kind is bool:
        if raw.lower() not in _BOOLS:
            raise ValueError(f"key {key!r} is not a boolean: {raw!r}")
        return _BOOLS[raw.lower()]
    try:
        values = tuple(float(v) for v in raw.split(","))
    except ValueError:
        values = (np.nan,)
    if not np.all(np.isfinite(values)):
        raise ValueError(f"key {key!r} has a value that is not a finite number: {raw!r}")
    if kind is tuple:
        return values
    if len(values) != 1:
        raise ValueError(f"key {key!r} is not a number: {raw!r}")
    if kind is int and values[0] != int(values[0]):
        raise ValueError(f"key {key!r} is not an integer: {raw!r}")
    return kind(values[0])


def parse_config(text: str, source: str = "<string>") -> RunConfig:
    """Parse configuration text into a validated :class:`RunConfig`."""
    # no interpolation: a '%' in a value (an artifact path) is a literal
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    cp.optionxform = str  # keys are case-sensitive: r and R are distinct
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"not valid INI syntax: {exc}", source=source) from exc
    if cp.defaults():
        raise ConfigError("unknown section [DEFAULT]", source=source)
    for name in cp.sections():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]", source=source)
        for key in cp[name]:
            if key not in _SCHEMA[name]:
                raise ConfigError(f"unknown key {key!r}", source=source, where=name)
    for name in ("profile", "motion"):
        if not cp.has_section(name):
            raise ConfigError(f"missing required section [{name}]", source=source)

    def section(name: str, build):
        """``build`` called with every key of section ``name`` read through
        ``_SCHEMA``; the one place a ``ValueError`` gains its location."""
        sec = cp[name] if cp.has_section(name) else None
        try:
            return build(**{key: _read(sec, key, *spec) for key, spec in _SCHEMA[name].items()})
        except ValueError as exc:
            raise ConfigError(str(exc), source=source, where=name) from exc

    profile = section("profile", GapProfile)
    # omega defaults to no rotation: three zeros in 3D, a scalar in 2D
    no_spin = (0.0, 0.0, 0.0) if profile.dimension == 3 else 0.0
    problem = section("motion", lambda omega, **kw: ProblemParams(
        profile, omega=no_spin if omega is None else omega, **kw))
    quadrature = section("quadrature", lambda **kw: _check_quadrature(QuadSpec(**kw)))
    sweep = section("sweep", SweepSpec) if cp.has_section("sweep") else None
    paths = section("output", lambda csv, json: {"csv_path": csv, "json_path": json})
    return section("run", lambda **kw: RunConfig(problem, quadrature, sweep, **paths, **kw))


def load_config(path: str) -> RunConfig:
    """Read and parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", source=str(path)) from exc
    return parse_config(text, source=str(path))


def _format(value, kind: type) -> str:
    if kind is bool:
        return str(value).lower()
    if kind in (float, tuple):  # shortest round-trip form
        return ", ".join(repr(float(v)) for v in np.atleast_1d(value))
    return str(value)


def dump_config(config: RunConfig) -> str:
    """Render a config to text; re-parsing yields an equal :class:`RunConfig`.

    An absent ``[sweep]`` and unset artifact paths are not written."""
    owners = {
        "profile": config.problem.profile,
        "motion": config.problem,
        "quadrature": config.quadrature,
        "sweep": config.sweep,
        "output": SimpleNamespace(csv=config.csv_path, json=config.json_path),
        "run": config,
    }
    lines = []
    for name, keys in _SCHEMA.items():
        values = {key: getattr(owners[name], key, None) for key in keys}
        written = [f"{key} = {_format(v, keys[key][0])}"
                   for key, v in values.items() if v is not None]
        if written:
            lines += [f"[{name}]", *written, ""]
    return "\n".join(lines)
