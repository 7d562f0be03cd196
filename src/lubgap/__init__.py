"""Lubrication forces between two nearly touching convex particles.

The package computes the hydrodynamic force and torque that a viscous
flow exerts on two adjacent particles separated by a thin gap
``h = eps + |x'|^m`` (or a flat-capped variant), both by numerically
integrating the closed-form gap fields and by evaluating the matching
blow-up expansions in the gap width ``eps``, and cross-checks the two
routes against each other.

Module map
----------

:mod:`lubgap.special`
    Gamma-function coefficient table, gap-moment integrals
    (``phi``/``psi``) and their closed-form tails (``gap_tail``), plus
    the asymptotic-expansion containers.
:mod:`lubgap.geometry`
    Gap profiles, surface sampling, and the flat-cap validity check.
:mod:`lubgap.quadrature`
    The one quadrature layer: adaptive Gauss-Kronrod integration, and
    the Gauss-Kronrod panel and trapezoid ring rules that the rings are
    built on.
:mod:`lubgap.fields`
    Closed-form velocity/pressure fields of the seven elementary
    sub-flows and their boundary data; the running integrals of the 3D
    rotation pressure and dual potentials (closed form at ``m = 2``, a
    fixed Gauss rule for other ``m`` and flat caps).
:mod:`lubgap.traction`
    Traction moments on the gap boundary and the numeric force/torque
    driver (2D and 3D).
:mod:`lubgap.asymptotics`
    Blow-up expansions with explicit coefficients and interval
    residuals; exponent fitting.
:mod:`lubgap.dualcheck`
    Dual-form energy functionals used as an independent consistency
    check on the field construction.
:mod:`lubgap.config`, :mod:`lubgap.report`, :mod:`lubgap.cli`
    Config files, deterministic CSV/JSON artifacts, and the command
    line front end.
"""

from .asymptotics import (
    CoefficientSet,
    TheoremResult,
    fit_exponent,
    force_asymptotic,
)
from .config import ConfigError, RunConfig, SweepSpec, dump_config, load_config, parse_config
from .dualcheck import EllReport, dual_tensor, ell, energy, err_sweep
from .fields import (
    FieldEval,
    ProblemParams,
    boundary_target,
    divergence,
    eval_field,
    subflow_indices,
)
from .geometry import FlatHypothesisError, GapProfile, SurfacePoint, gap, surface_sample
from .quadrature import QuadratureError, QuadSpec
from .report import Report, build_report, render_csv, render_json
from .special import (
    AsymptoticExpansion,
    AsymptoticTerm,
    GammaCoeff,
    IntervalResidual,
    ToleranceNotMet,
    gamma_coeff,
    phi,
    phi_leading,
    psi,
)
from .traction import ForceResult, TotalResult, force_numeric, total_numeric

__all__ = [
    "AsymptoticExpansion",
    "AsymptoticTerm",
    "CoefficientSet",
    "ConfigError",
    "EllReport",
    "FieldEval",
    "FlatHypothesisError",
    "ForceResult",
    "GammaCoeff",
    "GapProfile",
    "IntervalResidual",
    "ProblemParams",
    "QuadSpec",
    "QuadratureError",
    "Report",
    "RunConfig",
    "SurfacePoint",
    "SweepSpec",
    "TheoremResult",
    "ToleranceNotMet",
    "TotalResult",
    "boundary_target",
    "build_report",
    "divergence",
    "dual_tensor",
    "dump_config",
    "ell",
    "energy",
    "err_sweep",
    "eval_field",
    "fit_exponent",
    "force_asymptotic",
    "force_numeric",
    "gamma_coeff",
    "gap",
    "load_config",
    "parse_config",
    "phi",
    "phi_leading",
    "psi",
    "render_csv",
    "render_json",
    "subflow_indices",
    "surface_sample",
    "total_numeric",
]

__version__ = "0.1.0"
