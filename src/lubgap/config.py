"""Run configuration: structured text files describing one computation.

A run is described by a single INI-style file with bracketed sections and
``key = value`` lines; physics parameters never come from positional
command-line arguments, so a sweep is always reproducible from its config
artifact.  Sections:

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
cannot pass for a default.

:func:`dump_config` renders a config back to text such that re-parsing
yields an equal :class:`RunConfig` (floats are written in shortest
round-trip form).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

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

# the sections a config may hold and the keys of each
_KEYS = {
    "profile": ("dimension", "kind", "m", "s", "eps", "r", "R"),
    "motion": ("mu", "U", "omega"),
    "quadrature": ("rel_tol", "max_subdivisions"),
    "sweep": ("eps_from", "eps_to", "points"),
    "output": ("csv", "json"),
    "run": ("mode", "override_flat_hypothesis"),
}

# the smallest force-route tolerance and subdivision budget a config may ask for
MIN_REL_TOL = 1e-12
MIN_SUBDIVISIONS = 200


def _default_quadrature() -> QuadSpec:
    return QuadSpec(rel_tol=DEFAULT_REL_TOL)


def _check_quadrature(spec: QuadSpec) -> None:
    if spec.rel_tol < MIN_REL_TOL:
        raise ValueError(f"rel_tol must be >= {MIN_REL_TOL:g}, got {spec.rel_tol:g}")
    if spec.max_subdivisions < MIN_SUBDIVISIONS:
        raise ValueError(
            f"max_subdivisions must be >= {MIN_SUBDIVISIONS}, got {spec.max_subdivisions}"
        )


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


def _section(cp: configparser.ConfigParser, name: str, source: str, required=False):
    if not cp.has_section(name):
        if required:
            raise ConfigError(f"missing required section [{name}]", source=source)
        return None
    return cp[name]


def _get_floats(sec, key: str, source: str, name: str, default=None) -> tuple[float, ...]:
    """The comma-separated numbers of ``key``, each finite, or ``(default,)``."""
    if key not in sec:
        if default is not None:
            return (default,)
        raise ConfigError(f"missing key {key!r}", source=source, where=name)
    try:
        values = tuple(float(v) for v in sec[key].split(","))
    except ValueError:
        values = (np.nan,)
    if not np.all(np.isfinite(values)):
        raise ConfigError(f"key {key!r} has a value that is not a finite number: {sec[key]!r}",
                          source=source, where=name)
    return values


def _get_float(sec, key: str, source: str, name: str, default=None) -> float:
    values = _get_floats(sec, key, source, name, default)
    if len(values) != 1:
        raise ConfigError(f"key {key!r} is not a number: {sec[key]!r}", source=source, where=name)
    return values[0]


def _get_int(sec, key: str, source: str, name: str, default=None) -> int:
    value = _get_float(sec, key, source, name, default)
    if value != int(value):
        raise ConfigError(f"key {key!r} is not an integer: {sec[key]!r}", source=source, where=name)
    return int(value)


def _get_bool(sec, key: str, source: str, name: str, default: bool) -> bool:
    if key not in sec:
        return default
    raw = sec[key].strip().lower()
    if raw in ("true", "yes", "on", "1"):
        return True
    if raw in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"key {key!r} is not a boolean: {sec[key]!r}", source=source, where=name)


def parse_config(text: str, source: str = "<string>") -> RunConfig:
    """Parse configuration text into a validated :class:`RunConfig`."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # keys are case-sensitive: r and R are distinct
    try:
        cp.read_string(text, source=source)
    except configparser.Error as exc:
        raise ConfigError(f"not valid INI syntax: {exc}", source=source) from exc
    if cp.defaults():
        raise ConfigError("unknown section [DEFAULT]", source=source)
    for name in cp.sections():
        if name not in _KEYS:
            raise ConfigError(f"unknown section [{name}]", source=source)
        for key in cp[name]:
            if key not in _KEYS[name]:
                raise ConfigError(f"unknown key {key!r}", source=source, where=name)

    prof_sec = _section(cp, "profile", source, required=True)
    dimension = _get_int(prof_sec, "dimension", source, "profile", 3)
    kind = prof_sec.get("kind", "m-convex").strip()
    try:
        profile = GapProfile(
            kind=kind,
            m=_get_float(prof_sec, "m", source, "profile", 2.0),
            s=_get_float(prof_sec, "s", source, "profile", 0.0),
            eps=_get_float(prof_sec, "eps", source, "profile"),
            r=_get_float(prof_sec, "r", source, "profile"),
            R=_get_float(prof_sec, "R", source, "profile"),
            dimension=dimension,
        )
    except ValueError as exc:
        raise ConfigError(str(exc), source=source, where="profile") from exc

    mot_sec = _section(cp, "motion", source, required=True)
    U = _get_floats(mot_sec, "U", source, "motion")
    if "omega" in mot_sec:
        omega_vals = _get_floats(mot_sec, "omega", source, "motion")
    else:
        omega_vals = (0.0, 0.0, 0.0) if dimension == 3 else (0.0,)
    omega = omega_vals if dimension == 3 else omega_vals[0]
    try:
        problem = ProblemParams(
            profile=profile,
            mu=_get_float(mot_sec, "mu", source, "motion", 1.0),
            U=U,
            omega=omega,
        )
    except ValueError as exc:
        raise ConfigError(str(exc), source=source, where="motion") from exc

    quad_sec = _section(cp, "quadrature", source)
    if quad_sec is None:
        quadrature = _default_quadrature()
    else:
        try:
            quadrature = QuadSpec(
                rel_tol=_get_float(quad_sec, "rel_tol", source, "quadrature", DEFAULT_REL_TOL),
                max_subdivisions=_get_int(quad_sec, "max_subdivisions", source, "quadrature",
                                          DEFAULT_MAX_SUBDIVISIONS),
            )
            _check_quadrature(quadrature)
        except ValueError as exc:
            raise ConfigError(str(exc), source=source, where="quadrature") from exc

    sweep_sec = _section(cp, "sweep", source)
    sweep = None
    if sweep_sec is not None:
        try:
            sweep = SweepSpec(
                eps_from=_get_float(sweep_sec, "eps_from", source, "sweep"),
                eps_to=_get_float(sweep_sec, "eps_to", source, "sweep"),
                points=_get_int(sweep_sec, "points", source, "sweep"),
            )
        except ValueError as exc:
            raise ConfigError(str(exc), source=source, where="sweep") from exc

    out_sec = _section(cp, "output", source)
    csv_path = out_sec.get("csv") if out_sec is not None else None
    json_path = out_sec.get("json") if out_sec is not None else None

    run_sec = _section(cp, "run", source)
    mode = run_sec.get("mode", "both").strip() if run_sec is not None else "both"
    override = (
        _get_bool(run_sec, "override_flat_hypothesis", source, "run", False)
        if run_sec is not None
        else False
    )
    try:
        return RunConfig(
            problem=problem,
            quadrature=quadrature,
            sweep=sweep,
            csv_path=csv_path,
            json_path=json_path,
            mode=mode,
            override_flat_hypothesis=override,
        )
    except ValueError as exc:
        raise ConfigError(str(exc), source=source, where="run") from exc


def load_config(path: str) -> RunConfig:
    """Read and parse a configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", source=str(path)) from exc
    return parse_config(text, source=str(path))


def _fmt(x: float) -> str:
    return repr(float(x))


def dump_config(config: RunConfig) -> str:
    """Render a config to text; re-parsing yields an equal :class:`RunConfig`."""
    prof = config.problem.profile
    lines = [
        "[profile]",
        f"dimension = {prof.dimension}",
        f"kind = {prof.kind}",
        f"m = {_fmt(prof.m)}",
        f"s = {_fmt(prof.s)}",
        f"eps = {_fmt(prof.eps)}",
        f"r = {_fmt(prof.r)}",
        f"R = {_fmt(prof.R)}",
        "",
        "[motion]",
        f"mu = {_fmt(config.problem.mu)}",
        "U = " + ", ".join(_fmt(v) for v in config.problem.U),
    ]
    omega = config.problem.omega
    if prof.dimension == 3:
        lines.append("omega = " + ", ".join(_fmt(v) for v in omega))
    else:
        lines.append(f"omega = {_fmt(omega)}")
    lines += [
        "",
        "[quadrature]",
        f"rel_tol = {_fmt(config.quadrature.rel_tol)}",
        f"max_subdivisions = {config.quadrature.max_subdivisions}",
    ]
    if config.sweep is not None:
        lines += [
            "",
            "[sweep]",
            f"eps_from = {_fmt(config.sweep.eps_from)}",
            f"eps_to = {_fmt(config.sweep.eps_to)}",
            f"points = {config.sweep.points}",
        ]
    if config.csv_path is not None or config.json_path is not None:
        lines += ["", "[output]"]
        if config.csv_path is not None:
            lines.append(f"csv = {config.csv_path}")
        if config.json_path is not None:
            lines.append(f"json = {config.json_path}")
    lines += [
        "",
        "[run]",
        f"mode = {config.mode}",
        f"override_flat_hypothesis = {str(config.override_flat_hypothesis).lower()}",
        "",
    ]
    return "\n".join(lines)
