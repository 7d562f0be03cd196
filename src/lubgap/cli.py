"""Command-line interface: config-driven computations with stable artifacts.

Subcommands
-----------

``constants``
    Print the two-Gamma coefficient table and the derived per-unit-viscosity
    theorem coefficients for a given convexity exponent ``m``.
``phi``
    Evaluate one gap-moment integral (``phi``, or ``psi`` when a flat radius
    is given) at explicit indices.
``force``
    Compute numeric and/or closed-form forces and torques at the configured
    epsilon (or a ``--eps`` override) and write CSV/JSON reports.
``sweep``
    The same over the config's log-spaced epsilon grid, with fitted blow-up
    exponents.
``verify``
    Run one of the property suites (``bc``, ``div``, ``parity``, ``dual``,
    ``exponents``) and report each check's outcome; any failed check makes
    the exit status 3.

Exit codes: 0 success, 1 configuration error, 2 computation failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import errno
import locale  # noqa: F401 - argparse's gettext imports it lazily on the first parse
import os
import sys
from dataclasses import replace

import numpy as np
# Both imports stay eager: perfbench's worker imports this module once and forks
# every operation, so a lazy import would be paid inside each fork, not once.
import numpy.random  # noqa: F401 - numpy loads it lazily; the bc/div suites draw from it

from . import dualcheck
from .asymptotics import alpha_coefficients, force_asymptotic
from .config import MODES, ConfigError, RunConfig, load_config
from .fields import boundary_target, eval_field_many, subflow_indices
from .fields import eval_field  # noqa: F401 - a name perfbench wraps and calls
from .geometry import FlatHypothesisError, surface_sample
from .quadrature import QuadratureError, QuadResult
from .report import Report, build_report, component_names, render_csv, render_json
from .report import serialize_ell_report
from .special import TABULATED_PAIRS, ToleranceNotMet, gamma_coeff, phi, psi
from .traction import total_numeric  # noqa: F401 - a name perfbench.tracing wraps

__all__ = ["main", "cmd_constants", "cmd_force", "cmd_verify", "SUITES"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPUTE = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    """Bad command line; reported as a configuration error (exit 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise _UsageError(message)


def _finite_float(text: str) -> float:
    """The argparse type of every float flag: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


# ---------------------------------------------------------------------------
# constants / phi
# ---------------------------------------------------------------------------


def cmd_constants(m: float) -> list[tuple[str, float]]:
    """Coefficient table for exponent ``m``: Gamma pairs plus derived alphas.

    The derived theorem coefficients are those of
    :func:`~lubgap.asymptotics.alpha_coefficients` per unit viscosity
    (``mu = 1``); entries that only exist for part of the ``m`` range (the
    3D alphas, whose profiles need ``m >= 2``, and the 2D torque ladder
    extras) appear only when defined.
    """
    rows = []
    for i, j in TABULATED_PAIRS:
        try:
            rows.append((f"Gamma({i},{j})", gamma_coeff(i, j, m)))
        except ValueError:
            pass  # pairs below their convergence threshold for this m

    rows += alpha_coefficients(m, 1.0).items()
    return rows


def _run_constants(args) -> int:
    rows = cmd_constants(args.m)
    width = max(len(name) for name, _ in rows)
    for name, value in rows:
        print(f"{name:<{width}}  {value!r}")
    return EXIT_OK


def _run_phi(args) -> int:
    if args.s is not None:
        value = psi(args.i, args.j, args.s, args.r, args.eps)
        label = f"psi({args.i}, {args.j}, s={args.s}, r={args.r}, eps={args.eps})"
    else:
        value = phi(args.i, args.j, args.m, args.r, args.eps)
        label = f"phi({args.i}, {args.j}, m={args.m}, r={args.r}, eps={args.eps})"
    print(f"{label} = {value!r}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# force / sweep
# ---------------------------------------------------------------------------


def _load_run_config(args, need_sweep: bool = False) -> RunConfig:
    config = load_config(args.config)
    flags = {"mode": args.mode, "csv_path": args.out_csv, "json_path": args.out_json,
             "override_flat_hypothesis": args.override_flat_hypothesis or None}
    config = replace(config, **{k: v for k, v in flags.items() if v is not None})
    if getattr(args, "eps", None) is not None:
        if args.eps <= 0.0:
            raise ConfigError("--eps must be positive", source="<cli>")
        config = replace(
            config,
            problem=replace(
                config.problem, profile=replace(config.problem.profile, eps=args.eps)
            ),
            sweep=None,
        )
    if need_sweep and config.sweep is None:
        raise ConfigError(
            "the sweep command requires a [sweep] section", source=args.config
        )
    # an artifact that cannot be written fails here, before any computation
    for path in (p for p in (config.csv_path, config.json_path) if p is not None):
        missing = path == "" or not os.path.isdir(os.path.dirname(path) or ".")
        if missing or os.path.isdir(path):
            reason = os.strerror(errno.ENOENT if missing else errno.EISDIR)
            raise ConfigError(f"cannot write artifact: {reason}", source=path)
    return config


def _write_artifacts(config: RunConfig, report: Report) -> None:
    for path, render in ((config.csv_path, render_csv), (config.json_path, render_json)):
        if path is None:
            continue
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(render(report))
        except OSError as exc:
            raise ConfigError(f"cannot write artifact: {exc.strerror or exc}", source=path) from exc


def cmd_force(config: RunConfig) -> tuple[Report, int]:
    """Compute the configured report; exit status reflects embedded errors."""
    report = build_report(config)
    _write_artifacts(config, report)
    status = EXIT_COMPUTE if report.errors else EXIT_OK
    return report, status


def _print_report_summary(report: Report) -> None:
    for row in report.rows:
        if row["subflow"] != "total":
            continue
        parts = [f"eps={row['eps']!r}", f"{row['component']}:"]
        if row["numeric"] is not None:
            parts.append(f"numeric={row['numeric']!r} (+-{row['error_est']!r})")
        if row["asymptotic"] is not None:
            parts.append(f"asymptotic={row['asymptotic']!r}")
        if row["ratio"] is not None:
            parts.append(f"ratio={row['ratio']!r}")
        print("  ".join(parts))
    for err in report.errors:
        print(f"eps={err['eps']!r}  ERROR: {err['error']}", file=sys.stderr)


def _run_force(args, need_sweep: bool) -> int:
    config = _load_run_config(args, need_sweep=need_sweep)
    report, status = cmd_force(config)
    _print_report_summary(report)
    if report.exponents:
        for comp, p in report.exponents.items():
            print(f"fitted exponent {comp}: eps^({p!r})")
    return status


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _check(name: str, value: float, tolerance: float) -> dict:
    return {
        "name": name,
        "value": float(value),
        "tolerance": float(tolerance),
        "passed": bool(value <= tolerance),
    }


def _motion_scale(params) -> float:
    vals = np.atleast_1d(params.U).tolist() + np.atleast_1d(params.omega).tolist()
    return max(max(abs(float(v)) for v in vals), 1e-30)


def _suite_bc(config: RunConfig, npoints: int = 200) -> tuple[list[dict], dict]:
    """Boundary-condition residuals of every sub-flow on both surfaces."""
    params = config.problem
    prof = params.profile
    d = prof.dimension
    rng = np.random.default_rng(20240811)
    scale = _motion_scale(params)
    checks = []
    for k in subflow_indices(d):
        worst = 0.0
        for side in ("top", "bottom"):
            # one row of draws per point, in the order of one draw at a time
            if d == 3:
                t, th = rng.uniform([0.0, 0.0], [0.9025, 2.0 * np.pi], (npoints, 2)).T
                t = prof.r * np.sqrt(t)
                xps = (t * np.cos(th), t * np.sin(th))
            else:
                xps = rng.uniform(-0.95, 0.95, npoints) * prof.r
            sp = surface_sample(prof, side, xps)
            u = eval_field_many(k, params, *np.atleast_2d(sp.xprime), sp.x3)[0]
            target = boundary_target(k, params, sp)
            worst = max(worst, float(np.max(np.abs(u - target))) / scale)
        checks.append(_check(f"bc-residual-k{k}", worst, 1e-9))
    return checks, {}


def _rigid_mean_divergence(params, x):
    """Exact divergence of the k=0 rigid-mean field at points ``x``.

    That field carries the surface lever arm in place of the vertical
    coordinate, so its divergence is (omega x grad h)_3 / 4 rather than
    zero; every corrective sub-flow is exactly incompressible.
    """
    prof = params.profile
    H1 = prof.at(x[:-1], 1).jet[0]
    if prof.dimension == 3:
        return 0.25 * (params.omega[1] * H1 * x[0] - params.omega[0] * H1 * x[1])
    return 0.25 * -params.omega * (H1 * x[0])


def _suite_div(config: RunConfig, npoints: int = 100) -> tuple[list[dict], dict]:
    """Analytic incompressibility at interior points; dual-tensor row check."""
    params = config.problem
    prof = params.profile
    rng = np.random.default_rng(20240812)
    checks = []
    # one row of draws per point, in the order of one draw at a time
    for k in subflow_indices(prof.dimension):
        if prof.dimension == 3:
            t, th, z = rng.uniform([0.0, 0.0, -0.45], [1.0, 2.0 * np.pi, 0.45], (npoints, 3)).T
            t = 0.9 * prof.r * np.sqrt(t)
            x1, x2 = t * np.cos(th), t * np.sin(th)
            x = (x1, x2, z * prof.h(x1, x2))
        else:
            x1, z = rng.uniform([-0.9, -0.45], [0.9, 0.45], (npoints, 2)).T
            x1 = x1 * prof.r
            x = (x1, z * prof.h(x1))
        grad = eval_field_many(k, params, *x)[2]
        div = np.trace(grad)
        if k == 0:
            div = np.abs(div - _rigid_mean_divergence(params, x))
            gscale = _motion_scale(params)
        else:
            div = np.abs(div)
            gscale = np.max(np.abs(grad), axis=(0, 1))
        worst = float(np.max(div / np.maximum(gscale, 1e-30)))
        checks.append(_check(f"divergence-k{k}", worst, 1e-11))
    if prof.dimension == 3 and abs(params.U[2]) > 0.0:
        t, th, z = rng.uniform([0.3, 0.0, -0.4], [0.9, 2.0 * np.pi, 0.4], (20, 3)).T
        t = t * 0.25 * prof.r
        x1, x2 = t * np.cos(th), t * np.sin(th)
        h = prof.h(x1, x2)
        x = np.stack([x1, x2, z * h])
        # planar steps scale with r, the x3 step with the local gap: (axis, point)
        step = np.stack([np.full_like(h, 1e-6 * prof.r)] * 2 + [1e-6 * h])
        # the points moved by +step and -step along each axis: (2, axis, coord, point)
        dx = np.eye(3)[:, :, None] * step[:, None, :]
        pts = np.stack([x + dx, x - dx])
        p1, p2, p3 = pts.transpose(2, 0, 1, 3).reshape(3, -1, 1)
        S = dualcheck._dual_tensor_many(3, params, prof.at((p1, p2), 3), p3)[0].reshape(3, 3, 2, 3, -1)
        dS = (S[:, :, 0] - S[:, :, 1]) / (2.0 * step)  # (row, col, axis, point)
        rowdiv = sum(dS[axis, :, axis] for axis in range(3))
        sscale = np.max(np.abs(dS), axis=(0, 1, 2))
        worst = float(np.max(np.max(np.abs(rowdiv), axis=0) / np.maximum(sscale, 1e-30)))
        checks.append(_check("dual-tensor-div-squeeze", worst, 1e-4))
    return checks, {}


def _suite_parity(config: RunConfig) -> tuple[list[dict], dict]:
    """Vanishing components forced by symmetry, at the configured epsilon.

    The checks read the per-sub-flow values and bounds off the rows of the
    numeric report, which solves the totals once.
    """
    params = config.problem
    report = build_report(replace(config, mode="numeric", sweep=None))
    if report.errors:
        raise QuadratureError(
            f"numeric solve failed: {report.errors[0]['error']}",
            QuadResult(float("nan"), float("inf"), 0),
        )
    cell = {(row["subflow"], row["component"]): row for row in report.rows}
    slack = 1e-13 * _motion_scale(params)

    def vanishes(name, subflow, comp):
        row = cell[subflow, comp]
        return _check(name, abs(row["numeric"]), 10.0 * row["error_est"] + slack)

    if params.profile.dimension == 2:
        return [vanishes("squeeze-subflow-torque", "2", "T")], {"rows": report.rows}
    # The in-plane spin sub-flow (k=4) exerts a genuine O(1) vertical
    # drag torque; every other sub-flow's vertical torque vanishes
    # exactly by the parity of its traction in the polar angle.
    total, spin = cell["total", "T3"], cell["4", "T3"]
    checks = [
        _check(
            "vertical-torque-nonspin",
            abs(total["numeric"] - spin["numeric"]),
            10.0 * (total["error_est"] + spin["error_est"]) + slack,
        )
    ]
    checks += [vanishes(f"shear-subflow-{comp}", "1", comp) for comp in ("F2", "F3")]
    return checks, {"rows": report.rows}


_DUAL_EPS_GRID = (1e-2, 1e-3, 1e-4)


def _suite_dual(config: RunConfig) -> tuple[list[dict], dict]:
    """Dual-form boundedness sweep: slopes and Cauchy-Schwarz."""
    params = config.problem
    if params.profile.dimension != 3:
        raise ConfigError("the dual suite requires a 3D profile", source="<cli>")
    grid = config.sweep.grid() if config.sweep is not None else _DUAL_EPS_GRID
    rep = dualcheck.err_sweep(params, grid)
    checks = []
    for pair in rep.pairs:
        a, b = pair
        slope = rep.slopes[pair]
        if a == b:
            checks.append(
                _check(f"ell-slope-{a}{b}", abs(slope) if slope is not None else 0.0, 0.1)
            )
    cs_worst = 0.0
    for (a, b), vals in rep.values.items():
        if a == b:
            continue
        for v, va, vb in zip(vals, rep.values[(a, a)], rep.values[(b, b)]):
            bound = max(va * vb, 0.0)
            if bound == 0.0:
                continue
            cs_worst = max(cs_worst, v * v / bound)
    checks.append(_check("cauchy-schwarz-max-ratio", cs_worst, 1.0 + 1e-6))
    return checks, {"ell_report": serialize_ell_report(rep)}


def _suite_exponents(config: RunConfig) -> tuple[list[dict], dict]:
    """Fitted blow-up exponents of the numeric totals vs the expansions."""
    if config.sweep is None:
        raise ConfigError(
            "the exponents suite requires a [sweep] section", source="<cli>"
        )
    report = build_report(replace(config, mode="numeric"))
    theorem = force_asymptotic(config.problem, config.override_flat_hypothesis)
    checks = []
    for name, exp in zip(component_names(config.problem.profile.dimension), theorem.components()):
        if report.exponents is None or name not in report.exponents:
            continue
        powers = [t.power for t in exp.terms if not t.is_log]
        if not powers:
            continue
        predicted = max(powers)
        fitted = -report.exponents[name]
        checks.append(
            _check(
                f"exponent-{name}",
                abs(fitted - predicted),
                max(0.05 * predicted, 0.05),
            )
        )
    return checks, {"rows": report.rows}


# each suite returns its checks and the Report fields it sets
_SUITES = {"bc": _suite_bc, "div": _suite_div, "parity": _suite_parity, "dual": _suite_dual,
           "exponents": _suite_exponents}
SUITES = tuple(_SUITES)


def cmd_verify(config: RunConfig, suite: str) -> tuple[Report, int]:
    """Run one property suite; status 3 when any check fails."""
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; choose from {SUITES}", source="<cli>")
    base = build_report(replace(config, mode="asymptotic", sweep=None))
    checks, fields = _SUITES[suite](config)
    passed = all(c["passed"] for c in checks)
    suite_out = {"name": suite, "passed": passed, "checks": checks}
    report = replace(base, mode=config.mode, suite=suite_out, **{"rows": (), **fields})
    _write_artifacts(config, report)
    return report, EXIT_OK if passed else EXIT_VERIFY


def _run_verify(args) -> int:
    config = _load_run_config(args)
    report, status = cmd_verify(config, args.suite)
    for c in report.suite["checks"]:
        verdict = "ok" if c["passed"] else "FAIL"
        print(f"[{verdict}] {c['name']}: value={c['value']!r} tolerance={c['tolerance']!r}")
    print(f"suite {args.suite}: {'passed' if report.suite['passed'] else 'FAILED'}")
    return status


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _add_run_flags(sp, with_eps: bool = True) -> None:
    sp.add_argument("--config", required=True, help="path to the run config file")
    sp.add_argument("--mode", choices=MODES, default=None, help="override the run mode")
    if with_eps:
        sp.add_argument(
            "--eps", type=_finite_float, default=None, help="override epsilon (single point)"
        )
    sp.add_argument("--out-csv", default=None, help="override the CSV artifact path")
    sp.add_argument("--out-json", default=None, help="override the JSON artifact path")
    sp.add_argument(
        "--override-flat-hypothesis",
        action="store_true",
        help="evaluate flat-cap expansions outside their validity range",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="lubgap", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", help="coefficient table for an exponent m")
    sp.add_argument("--m", type=_finite_float, default=2.0, help="convexity exponent (> 1)")

    sp = sub.add_parser("phi", help="evaluate one gap-moment integral")
    sp.add_argument("--i", type=_finite_float, required=True)
    sp.add_argument("--j", type=_finite_float, required=True)
    sp.add_argument("--m", type=_finite_float, default=2.0)
    sp.add_argument("--r", type=_finite_float, required=True)
    sp.add_argument("--eps", type=_finite_float, required=True)
    sp.add_argument("--s", type=_finite_float, default=None, help="flat radius (psi variant)")

    sp = sub.add_parser("force", help="forces/torques at one epsilon")
    _add_run_flags(sp)

    sp = sub.add_parser("sweep", help="forces/torques over the config's epsilon grid")
    _add_run_flags(sp, with_eps=False)

    sp = sub.add_parser("verify", help="run a property suite")
    sp.add_argument("--suite", choices=SUITES, required=True)
    _add_run_flags(sp)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "constants":
            return _run_constants(args)
        if args.command == "phi":
            return _run_phi(args)
        if args.command == "force":
            return _run_force(args, need_sweep=False)
        if args.command == "sweep":
            return _run_force(args, need_sweep=True)
        return _run_verify(args)
    except (_UsageError, ConfigError, FlatHypothesisError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (QuadratureError, ToleranceNotMet) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
