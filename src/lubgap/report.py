"""Deterministic result assembly and CSV/JSON rendering.

A :class:`Report` collects, for one config, the numeric per-sub-flow
forces/torques, the totals, the matching closed-form expansions, and
numeric/asymptotic comparison rows over the epsilon grid.  Rendering is
bit-stable: floats are written in shortest round-trip form (``repr``), rows
are ordered by (eps descending, component, sub-flow), and no timestamps or
environment data enter the artifacts, so identical configs produce
byte-identical CSV and JSON.

CSV schema (versioned by the header comment ``# lubgap-report v1``)::

    eps,component,subflow,numeric,error_est,asymptotic,ratio

Numeric cells are blank when the run mode skips the numeric solve; the
asymptotic and ratio cells are blank on per-sub-flow rows and on components
whose expansion is empty (pure O(1) components), never 0, so that empty
expansions cannot masquerade as vanishing forces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .asymptotics import TheoremResult, fit_exponent, force_asymptotic
from .config import RunConfig, dump_config
from .fields import subflow_indices
from .special import AsymptoticExpansion
from .traction import TotalResult, total_numeric

__all__ = [
    "Report",
    "build_report",
    "render_csv",
    "render_json",
    "component_names",
    "serialize_ell_report",
    "CSV_HEADER",
]

CSV_HEADER = "# lubgap-report v1"
_COLUMNS = ("eps", "component", "subflow", "numeric", "error_est", "asymptotic", "ratio")


def component_names(dimension: int) -> tuple[str, ...]:
    """Force/torque component labels: F1..F3, T1..T3 (3D) or F1, F2, T (2D)."""
    if dimension == 3:
        return ("F1", "F2", "F3", "T1", "T2", "T3")
    return ("F1", "F2", "T")


def _fmt(x) -> str:
    return "" if x is None else repr(float(x))


@dataclass(frozen=True)
class Report:
    """All artifacts of one run.

    ``rows`` is a tuple of dicts with the CSV columns (floats or None);
    ``expansions`` maps component name to a serialized expansion;
    ``exponents`` maps component name to a fitted blow-up exponent (sweeps
    with at least two valid numeric points only); ``suite`` carries
    verification-check outcomes when produced by the ``verify`` command.
    """

    config_echo: str
    mode: str
    rows: tuple
    expansions: dict
    coefficients: dict
    warnings: tuple = ()
    exponents: dict | None = None
    errors: tuple = ()
    suite: dict | None = None
    ell_report: dict | None = None


def _serialize_expansion(exp: AsymptoticExpansion) -> dict:
    def terms(ts):
        return [
            {"coeff": t.coeff, "power": t.power, "is_log": t.is_log} for t in ts
        ]

    out = {"terms": terms(exp.terms)}
    if exp.residual is not None:
        out["residual"] = {
            "lower": terms(exp.residual.lower),
            "upper": terms(exp.residual.upper),
        }
    return out


def _component_expansions(theorem: TheoremResult, dimension: int) -> dict:
    names = component_names(dimension)
    if dimension == 3:
        exps = (*theorem.F, *theorem.T)
    else:
        exps = (*theorem.F, theorem.T)
    return dict(zip(names, exps))


def _component_values(total: TotalResult, dimension: int):
    """Per-component (value, error) for the totals and each sub-flow."""
    if dimension == 3:
        tot_vals = (*total.F, *total.T)
        tot_errs = (*total.F_err, *total.T_err)
        per = {
            k: ((*res.F, *res.T), (*res.F_err, *res.T_err))
            for k, res in total.per_subflow.items()
        }
    else:
        tot_vals = (*total.F, total.T)
        tot_errs = (*total.F_err, total.T_err)
        per = {
            k: ((*res.F, res.T), (*res.F_err, res.T_err))
            for k, res in total.per_subflow.items()
        }
    return tot_vals, tot_errs, per


def build_report(config: RunConfig) -> Report:
    """Compute everything the config asks for and assemble a :class:`Report`.

    Sweep points are solved one after another, in descending ``eps``.  A
    failed epsilon point is recorded in ``errors`` and its numeric cells
    stay blank; the sweep is never aborted by a single point.
    """
    problem = config.problem
    dimension = problem.profile.dimension
    names = component_names(dimension)
    eps_grid = tuple(sorted(config.eps_grid(), reverse=True))
    want_numeric = config.mode in ("numeric", "both")
    want_asym = config.mode in ("asymptotic", "both")

    theorem = None
    expansions: dict = {}
    coefficients: dict = {}
    warnings: tuple = ()
    if want_asym:
        theorem = force_asymptotic(problem, config.override_flat_hypothesis)
        expansions = _component_expansions(theorem, dimension)
        coefficients = theorem.coefficients.as_dict()
        warnings = theorem.warnings

    numeric_results: dict = {}
    errors = []
    for eps in eps_grid if want_numeric else ():
        par = replace(problem, profile=replace(problem.profile, eps=eps))
        try:
            numeric_results[eps] = total_numeric(
                par,
                rel_tol=config.quadrature.rel_tol,
                max_subdivisions=config.quadrature.max_subdivisions,
            )
        except Exception as exc:  # noqa: BLE001 - embedded per row by contract
            errors.append({"eps": eps, "error": f"{type(exc).__name__}: {exc}"})

    rows = []
    for eps in eps_grid:
        total = numeric_results.get(eps)
        tot_vals = tot_errs = per = None
        if total is not None:
            tot_vals, tot_errs, per = _component_values(total, dimension)
        for ci, comp in enumerate(names):
            if per is not None:
                for k in subflow_indices(dimension):
                    vals, errs = per[k]
                    rows.append(
                        {
                            "eps": eps,
                            "component": comp,
                            "subflow": str(k),
                            "numeric": float(vals[ci]),
                            "error_est": float(errs[ci]),
                            "asymptotic": None,
                            "ratio": None,
                        }
                    )
            asym = None
            ratio = None
            if want_asym:
                exp = expansions[comp]
                if not exp.is_empty:
                    asym = exp.evaluate(eps)
            numeric = float(tot_vals[ci]) if tot_vals is not None else None
            if numeric is not None and asym not in (None, 0.0):
                ratio = numeric / asym
            rows.append(
                {
                    "eps": eps,
                    "component": comp,
                    "subflow": "total",
                    "numeric": numeric,
                    "error_est": float(tot_errs[ci]) if tot_errs is not None else None,
                    "asymptotic": asym,
                    "ratio": ratio,
                }
            )

    exponents = None
    if want_numeric and len(numeric_results) >= 2:
        exponents = {}
        eps_ok = [e for e in eps_grid if e in numeric_results]
        for ci, comp in enumerate(names):
            vals = [
                _component_values(numeric_results[e], dimension)[0][ci] for e in eps_ok
            ]
            if all(v != 0.0 for v in vals):
                exponents[comp] = -fit_exponent(eps_ok, vals)

    return Report(
        # the echo describes the computation; artifact destinations are
        # excluded so the rendered content never depends on where it is
        # written
        config_echo=dump_config(replace(config, csv_path=None, json_path=None)),
        mode=config.mode,
        rows=tuple(rows),
        expansions={k: _serialize_expansion(v) for k, v in expansions.items()},
        coefficients=coefficients,
        warnings=warnings,
        exponents=exponents,
        errors=tuple(errors),
    )


def render_csv(report: Report) -> str:
    """Versioned, bit-stable CSV rendering of the comparison rows."""
    lines = [CSV_HEADER, ",".join(_COLUMNS)]
    for row in report.rows:
        lines.append(
            ",".join(
                (
                    _fmt(row["eps"]),
                    row["component"],
                    row["subflow"],
                    _fmt(row["numeric"]),
                    _fmt(row["error_est"]),
                    _fmt(row["asymptotic"]),
                    _fmt(row["ratio"]),
                )
            )
        )
    return "\n".join(lines) + "\n"


def render_json(report: Report) -> str:
    """Bit-stable JSON rendering of the full report."""
    payload = {
        "schema": "lubgap-report v1",
        "mode": report.mode,
        "config": report.config_echo,
        "rows": [dict(r) for r in report.rows],
        "expansions": report.expansions,
        "coefficients": report.coefficients,
        "warnings": list(report.warnings),
        "errors": [dict(e) for e in report.errors],
    }
    if report.exponents is not None:
        payload["fitted_exponents"] = report.exponents
    if report.suite is not None:
        payload["suite"] = report.suite
    if report.ell_report is not None:
        payload["ell_report"] = report.ell_report
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def serialize_ell_report(rep) -> dict:
    """JSON-friendly form of a dual-check sweep report."""
    return {
        "eps_grid": list(rep.eps_grid),
        "pairs": [f"{a},{b}" for a, b in rep.pairs],
        "values": {f"{a},{b}": list(v) for (a, b), v in rep.values.items()},
        "slopes": {f"{a},{b}": s for (a, b), s in rep.slopes.items()},
        "violations": [f"{a},{b}" for a, b in rep.violations],
    }
