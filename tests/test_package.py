"""Package metadata, module layout, and the perfbench trace hook."""

import ast
import contextlib
import importlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
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
from lubgap.traction import force_numeric, total_numeric
profile = lubgap.GapProfile(dimension=2, kind="m-convex", m=2.0, r=0.5, s=0.0, eps=1e-3, R=2.0)
total_numeric(lubgap.ProblemParams(profile=profile, U=(0.4, -0.3), omega=0.25))
# total_numeric solves every sub-flow at once, without force_numeric
force_numeric(1, lubgap.ProblemParams(profile=profile, U=(0.4, -0.3), omega=0.25))
from lubgap import dualcheck
profile = lubgap.GapProfile(dimension=3, kind="m-convex", m=2.0, r=0.5, s=0.0, eps=1e-2, R=2.0)
params = lubgap.ProblemParams(profile=profile, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1))
dualcheck.ell(1, 1, params, lubgap.QuadSpec(rel_tol=1e-4, abs_tol=1e-10))
# the solves and ell evaluate their fields past eval_field_many, from one
# planar gap record per point set; the public evaluator still goes through it
lubgap.eval_field(1, params, (0.1, 0.05, 0.0))
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
    assert "dualcheck.ell" in names
    assert "quadrature.integrate_1d" in names


_M2_NO_INTERPOLATE = """
import sys
sys.path.insert(0, sys.argv[1])
import lubgap, lubgap.cli
profile = lubgap.GapProfile(dimension=3, kind="m-convex", m=2.0, r=0.5, s=0.0, eps=1e-3, R=2.0)
params = lubgap.ProblemParams(profile=profile, U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1))
lubgap.total_numeric(params)
print(any(name.split(".")[0] == "scipy" for name in sys.modules))
"""


def test_m2_solve_never_loads_interpolate():
    # an m = 2 solve, rotation included, is closed-form and loads no
    # scipy module at all
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
profile = lubgap.GapProfile(dimension=3, kind="m-convex", m=2.0, r=0.5, s=0.0, eps=1e-3, R=2.0)
params = lubgap.ProblemParams(profile=profile, U=(0.0, 0.0, -1.0), omega=(0.0, 0.0, 0.0))
rep = lubgap.err_sweep(params, (1e-2, 3e-3, 1e-3), QuadSpec(rel_tol=1e-4, abs_tol=1e-10))
print(rep.pairs == ((3, 3),), any(name.split(".")[0] == "scipy" for name in sys.modules))
"""


def test_squeeze_dual_sweep_never_loads_interpolate():
    # the squeeze's dual potentials are closed-form and load no scipy
    # module (see also test_rotation_never_loads_interpolate)
    proc = subprocess.run(
        [sys.executable, "-c", _SQUEEZE_SWEEP_NO_INTERPOLATE, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


_ROTATION_NO_INTERPOLATE = """
import sys
sys.path.insert(0, sys.argv[1])
import lubgap
from lubgap.quadrature import QuadSpec
motion = dict(U=(0.3, -0.2, -0.5), omega=(0.15, 0.2, 0.1))
shape = dict(dimension=3, r=0.5, eps=1e-3, R=2.0)
for profile in (lubgap.GapProfile(kind="m-convex", m=2.5, s=0.0, **shape),
                lubgap.GapProfile(kind="flat-capped", m=2.0, s=0.05, **shape)):
    lubgap.total_numeric(lubgap.ProblemParams(profile=profile, **motion))
profile = lubgap.GapProfile(dimension=3, kind="m-convex", m=2.5, r=0.5, s=0.0, eps=1e-2, R=2.0)
params = lubgap.ProblemParams(profile=profile, U=(0.0, 0.0, 0.0), omega=(0.15, 0.2, 0.0))
rep = lubgap.err_sweep(params, (1e-1, 3e-2, 1e-2), QuadSpec(rel_tol=1e-3, abs_tol=1e-8))
print((6, 6) in rep.pairs, any(name.split(".")[0] == "scipy" for name in sys.modules))
"""


def test_rotation_never_loads_interpolate():
    # the rotation's running integrals are a closed form or a fixed Gauss
    # rule: a general solve at m = 2.5 and on a flat cap, and a rotation
    # dual sweep, build no table and load no scipy module
    proc = subprocess.run(
        [sys.executable, "-c", _ROTATION_NO_INTERPOLATE, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "False"]


_NO_SCIPY = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import lubgap, lubgap.cli
profile = lubgap.GapProfile(dimension=2, kind="m-convex", m=1.2, r=0.5, s=0.0, eps=1e-3, R=2.0)
lubgap.total_numeric(lubgap.ProblemParams(profile=profile, U=(0.4, -0.3), omega=0.25))
profile = lubgap.GapProfile(dimension=3, kind="flat-capped", m=2.0, r=0.5, s=0.05, eps=1e-4, R=2.0)
lubgap.total_numeric(lubgap.ProblemParams(profile=profile, U=(0.0, 0.0, -1.0), omega=(0.0, 0.0, 0.0)))
with contextlib.redirect_stdout(io.StringIO()):
    code = lubgap.cli.main(["verify", "--suite", "bc", "--config", sys.argv[2]])
print(code, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""

_BC_CONFIG = """
[profile]
dimension = 3
kind = m-convex
m = 2.0
eps = 1e-2
r = 0.5
R = 2.0

[motion]
U = 0.3, -0.2, -0.5
omega = 0.15, 0.2, 0.1
"""


def test_runtime_never_loads_scipy(tmp_path):
    # the incomplete Beta behind the kernel tails is numpy: importing the
    # package and the CLI, a 2D m = 1.2 solve, a flat-cap solve and the
    # bc verify suite load no scipy module
    cfg = tmp_path / "bc.ini"
    cfg.write_text(_BC_CONFIG, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY, str(ROOT / "src"), str(cfg)],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]"]


_NO_POLYNOMIAL = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import lubgap, lubgap.cli
from lubgap.fields import _running_integral
loaded = lambda: sorted(name for name in sys.modules if name.startswith("numpy.polynomial"))
print(loaded())
profile = lubgap.GapProfile(dimension=3, kind="m-convex", m=2.5, r=0.5, s=0.0, eps=1e-3, R=2.0)
_running_integral(profile, 3, np.array([0.1]), np.array([0.05]))
print(loaded())
with contextlib.redirect_stdout(io.StringIO()):
    code = lubgap.cli.main(["verify", "--suite", "dual", "--config", sys.argv[2]])
print(code in (0, 3), loaded())
"""


def test_import_never_loads_numpy_polynomial(tmp_path):
    # the Gauss-Legendre rules come from the Legendre recurrence: importing
    # the package and the CLI, the running integral off m = 2 and the dual
    # suite do not pay for numpy.polynomial
    cfg = tmp_path / "dual.ini"
    cfg.write_text(_BC_CONFIG, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", _NO_POLYNOMIAL, str(ROOT / "src"), str(cfg)],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["[]", "[]", "True", "[]"]


_GENERAL3D = """
[profile]
dimension = 3
kind = m-convex
m = 2.0
eps = 1e-4
r = 0.5
R = 2.0

[motion]
mu = 1.0
U = 0.3, -0.2, -0.5
omega = 0.15, 0.2, 0.1

[quadrature]
rel_tol = 1e-8
max_subdivisions = 2000
"""


def test_m2_paths_never_call_numpy_linalg(tmp_path, monkeypatch):
    # a forked operation's peak RSS grows by the LAPACK pages it touches:
    # the general3d sweep's fitted exponents, err_sweep's slopes and 5-point
    # vertical rule and the dual suite run with every numpy.linalg function
    # and numpy.polyfit raising, the rule caches cleared.  Off m = 2 the
    # force route still reaches special._gauss_jacobi, which stays on
    # numpy.linalg.eigh: the control below
    from lubgap import fields, quadrature, special
    from lubgap.cli import EXIT_VERIFY, main
    from lubgap.dualcheck import err_sweep

    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called")

        return call

    for name in np.linalg.__all__:
        if name != "LinAlgError":
            monkeypatch.setattr(np.linalg, name, refuse(name))
    monkeypatch.setattr(np, "polyfit", refuse("polyfit"))
    for cached in (quadrature._gauss_legendre, fields._sinh_rule, special._gauss_jacobi):
        cached.cache_clear()

    cfg = tmp_path / "general3d.ini"
    cfg.write_text(_GENERAL3D, encoding="utf-8")
    sweep = tmp_path / "sweep.ini"
    sweep.write_text(_GENERAL3D + "\n[sweep]\neps_from = 1e-2\neps_to = 1e-4\npoints = 5\n", encoding="utf-8")
    report = lubgap.build_report(lubgap.load_config(str(sweep)))
    assert not report.errors and len(report.exponents) == 6
    rep = err_sweep(lubgap.load_config(str(cfg)).problem, (1e-2, 1e-3, 1e-4))
    assert rep.slopes[(1, 1)] is not None
    argv = ["verify", "--suite", "dual", "--config", str(cfg),
            "--out-csv", str(tmp_path / "dual.csv"), "--out-json", str(tmp_path / "dual.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_VERIFY
    assert calls == []
    with pytest.raises(AssertionError):
        special._gauss_jacobi(1.5)
    assert calls == ["eigh"]


_EAGER_IMPORTS = """
import sys
sys.path.insert(0, sys.argv[1])
import lubgap.cli
print("numpy.random" in sys.modules, "lubgap.dualcheck" in sys.modules)
"""


def test_cli_import_loads_forked_dependencies():
    # perfbench's worker imports lubgap.cli once and forks every operation:
    # numpy.random (bc/div suites) and lubgap.dualcheck (dual suite) must be
    # loaded by the import, so that no forked operation pays for them
    proc = subprocess.run(
        [sys.executable, "-c", _EAGER_IMPORTS, str(ROOT / "src")],
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True"]


def test_planar_gap_has_one_owner():
    # rho = |x'|, h and the radial jet of planar points come from
    # GapProfile.at alone; boundary_target keeps its own h on purpose, as the
    # independent derivation that the boundary checks compare against
    owners = {"GapProfile", "boundary_target"}
    found = []
    for path in sorted((ROOT / "src" / "lubgap").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in ("hypot", "radial_jet") and getattr(top, "name", None) not in owners:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []
