"""Package metadata, module layout, and the perfbench trace hook."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import lubgap

ROOT = Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert lubgap.__version__ == meta["project"]["version"]


def test_traction_module_not_shadowed():
    import lubgap.traction

    assert lubgap.traction is importlib.import_module("lubgap.traction")


# Runs in a fresh interpreter: installing the tracer rebinds module
# attributes for the whole process.
_TRACE_SMOKE = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import lubgap
from perfbench.tracing import Tracer, install
tracer = Tracer()
install(tracer, lubgap)
from lubgap.traction import total_numeric
profile = lubgap.GapProfile.m_convex(dimension=2, m=2.0, r=0.5, eps=1e-3, R=2.0)
total_numeric(lubgap.ProblemParams(profile=profile, U=(0.4, -0.3), omega=0.25))
print(json.dumps(sorted({span[0] for span in tracer.spans})))
"""


def test_perfbench_trace_install_smoke():
    # the traced benchmark run wraps lubgap's layer entry points by name;
    # a refactor that drops or hides one of them breaks it
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_SMOKE, str(ROOT / "src"), str(ROOT)],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    names = json.loads(proc.stdout.splitlines()[-1])
    assert "traction.force_numeric" in names
    assert "quadrature.integrate_vector" in names
    assert "fields.eval_field_many" in names


_M2_NO_INTERPOLATE = """
import sys
sys.path.insert(0, sys.argv[1])
import lubgap, lubgap.cli
profile = lubgap.GapProfile.m_convex(dimension=3, m=2.0, r=0.5, eps=1e-3, R=2.0)
params = lubgap.ProblemParams(profile=profile, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1))
lubgap.total_numeric(params)
print("scipy.interpolate" in sys.modules)
"""


def test_m2_solve_never_loads_interpolate():
    # only the bivariate tables (m != 2, flat caps, the dual check) need
    # scipy.interpolate; an m = 2 solve, rotation included, is closed-form
    proc = subprocess.run(
        [sys.executable, "-c", _M2_NO_INTERPOLATE, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


_SQUEEZE_SWEEP_NO_INTERPOLATE = """
import sys
sys.path.insert(0, sys.argv[1])
import lubgap
from lubgap.quadrature import QuadSpec
profile = lubgap.GapProfile.m_convex(dimension=3, m=2.0, r=0.5, eps=1e-3, R=2.0)
params = lubgap.ProblemParams(profile=profile, U=(0.0, 0.0, -1.0), omega=(0.0, 0.0, 0.0))
rep = lubgap.err_sweep(params, (1e-2, 3e-3, 1e-3), QuadSpec(rel_tol=1e-4, abs_tol=1e-10))
print(rep.pairs == ((3, 3),), "scipy.interpolate" in sys.modules)
"""


def test_squeeze_dual_sweep_never_loads_interpolate():
    # the squeeze's dual potentials are closed-form; only the rotation's
    # dual tables need scipy.interpolate
    proc = subprocess.run(
        [sys.executable, "-c", _SQUEEZE_SWEEP_NO_INTERPOLATE, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]
