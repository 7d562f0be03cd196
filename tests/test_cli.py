"""Command-line interface: subcommands, flag overrides, artifacts, exit codes."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lubgap.cli
import lubgap.report
from lubgap.cli import EXIT_COMPUTE, EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, main
from lubgap.config import load_config
from lubgap.fields import subflow_indices
from lubgap.quadrature import QuadratureError, QuadResult
from lubgap.special import psi
from lubgap.traction import total_numeric

CFG = """
[profile]
dimension = 3
kind = m-convex
m = 2.0
eps = 1e-2
r = 0.5
R = 2.0

[motion]
mu = 1.0
U = 0.3, -0.2, -0.5
omega = 0.15, 0.2, 0.1

[quadrature]
rel_tol = 1e-7
"""

CFG_SWEEP = CFG + """
[sweep]
eps_from = 1e-2
eps_to = 1e-3
points = 3
"""

CFG_2D = """
[profile]
dimension = 2
eps = 1e-2
r = 0.5
R = 2.0

[motion]
U = 0.4, -0.3
omega = 0.25

[quadrature]
rel_tol = 1e-7
"""

CFG_SQUEEZE_M8 = """
[profile]
dimension = 3
kind = m-convex
m = 8.0
eps = 1e-6
r = 0.5
R = 2.0

[motion]
U = 0.0, 0.0, -1.0
omega = 0.0, 0.0, 0.0
"""


@pytest.fixture
def cfg_path(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text(CFG, encoding="utf-8")
    return str(p)


@pytest.fixture
def cfg_sweep_path(tmp_path):
    p = tmp_path / "sweep.ini"
    p.write_text(CFG_SWEEP, encoding="utf-8")
    return str(p)


class TestConstants:
    def test_m2_table(self, capsys):
        assert main(["constants", "--m", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Gamma(1,2)  0.5" in out
        # alpha34 = (3/2) pi Gamma_34 = 3 pi / 4 per unit viscosity
        line = next(l for l in out.splitlines() if l.startswith("alpha34_3d"))
        assert float(line.split()[-1]) == pytest.approx(0.75 * math.pi, rel=1e-13)
        # the (1,3) pair sits below its convergence threshold at m = 2
        assert "Gamma(1,3)" not in out

    def test_high_m_extra_rows(self, capsys):
        assert main(["constants", "--m", "4"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "Gamma(1,3)" in out
        assert "b13_2d" in out and "b35_2d" in out

    def test_m_within_roundoff_of_2(self):
        # the degenerate Gamma branch is detected on both sides of m = 2
        assert main(["constants", "--m", "1.9999999999999"]) == EXIT_OK
        assert main(["constants", "--m", "2.0000000000001"]) == EXIT_OK

    @pytest.mark.parametrize("m", ["1.2", "1.5", "1.6666666666666667"])
    def test_2d_only_exponent(self, m, capsys):
        # 1 < m < 2 admits 2D profiles only: alpha34_3d, for m >= 2 profiles,
        # is left out; each pole-free b prints wherever it is finite, b35_2d
        # past m = 5/4 and b13_2d past m = 3/2
        rows = {"b12_3d", "b11_2d", "alpha33_2d"}
        rows |= {"1.2": set(), "1.5": {"b35_2d"}}.get(m, {"b35_2d", "b13_2d"})
        assert main(["constants", "--m", m]) == EXIT_OK
        out = capsys.readouterr().out
        assert {line.split()[0] for line in out.splitlines() if "Gamma" not in line} == rows

    @pytest.mark.parametrize("m, name, value", [("2", "b12_3d", math.pi), ("3", "b13_2d", 1.5),
                                                ("1.6666666666666667", "b35_2d", 3.6)])
    def test_marginal_b(self, m, name, value, capsys):
        # at its branch point each b is the coefficient of the |ln eps| term
        assert main(["constants", "--m", m]) == EXIT_OK
        line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith(name))
        assert float(line.split()[-1]) == pytest.approx(value, rel=1e-14)

    def test_invalid_m(self, capsys):
        assert main(["constants", "--m", "0.5"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err


class TestPhi:
    def test_phi_value(self, capsys):
        code = main(
            ["phi", "--i", "1", "--j", "1", "--m", "2", "--r", "1.0", "--eps", "1e-4"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        value = float(out.strip().split("=")[-1])
        assert value == pytest.approx(0.5 * math.log(1.0 + 1e4), rel=1e-9)

    @pytest.mark.parametrize(
        "m, eps, message",
        [("0", "1e-4", "m must be positive"), ("-2", "1e-4", "m must be positive"),
         # eps^(1/m) rounds to 0, from which the layer's halving never ends
         ("0.9", "1e-300", "underflows")],
    )
    def test_bad_layer_exits_1(self, m, eps, message, capsys):
        argv = ["phi", "--i", "1", "--j", "1", "--m", m, "--r", "1", "--eps", eps]
        assert main(argv) == EXIT_CONFIG == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_psi_variant(self, capsys):
        code = main(
            [
                "phi", "--i", "1", "--j", "1", "--r", "1.0", "--eps", "1e-4",
                "--s", "0.0",
            ]
        )
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("psi(")

    def test_missing_required_flag(self, capsys):
        assert main(["phi", "--i", "1", "--j", "1"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flags, name",
        [(["--j", "-1"], "phi"), (["--j", "-1.5", "--m", "4"], "phi"),
         (["--j", "-2", "--s", "0"], "psi")],
    )
    def test_divergent_at_axis_exits_1(self, flags, name, capsys):
        # t^j is not integrable at 0 for j <= -1: an input error, not a
        # quadrature budget spent on a divergent integral
        argv = ["phi", "--i", "1", "--r", "0.5", "--eps", "1e-3", *flags]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} diverges at t = 0")

    def test_psi_negative_j_with_flat_radius(self, capsys):
        # (t + s)^j stays bounded at the axis when s > 0
        argv = ["phi", "--i", "1", "--j", "-2", "--s", "0.1", "--r", "0.5", "--eps", "1e-3"]
        assert main(argv) == EXIT_OK
        value = float(capsys.readouterr().out.strip().split("=")[-1])
        assert value == pytest.approx(psi(1, -2, 0.1, 0.5, 1e-3), rel=1e-12) and value > 0.0


class TestForce:
    def test_writes_artifacts(self, cfg_path, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        code = main(
            [
                "force", "--config", cfg_path,
                "--out-csv", str(csv_path), "--out-json", str(json_path),
            ]
        )
        assert code == EXIT_OK
        assert csv_path.read_text().startswith("# lubgap-report v1\n")
        payload = json.loads(json_path.read_text())
        assert payload["schema"] == "lubgap-report v1"
        assert payload["errors"] == []
        out = capsys.readouterr().out
        assert "F3:" in out and "ratio=" in out

    def test_eps_override(self, cfg_path, tmp_path):
        json_path = tmp_path / "o.json"
        code = main(
            [
                "force", "--config", cfg_path, "--eps", "2e-3",
                "--mode", "numeric", "--out-json", str(json_path),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(json_path.read_text())
        assert {row["eps"] for row in payload["rows"]} == {2e-3}
        assert payload["mode"] == "numeric"

    def test_negative_eps_rejected(self, cfg_path, capsys):
        assert main(["force", "--config", cfg_path, "--eps", "-1"]) == EXIT_CONFIG

    def test_quadrature_below_floor_exit_code(self, tmp_path, capsys):
        p = tmp_path / "tight.ini"
        p.write_text(CFG.replace("rel_tol = 1e-7", "rel_tol = 1e-14"), encoding="utf-8")
        assert main(["force", "--config", str(p)]) == EXIT_CONFIG
        assert "rel_tol" in capsys.readouterr().err

    def test_quadrature_at_floor_solves(self, tmp_path, capsys):
        # the documented minimum rel_tol = 1e-12 must solve, rotation included
        p = tmp_path / "floor.ini"
        p.write_text(CFG.replace("rel_tol = 1e-7", "rel_tol = 1e-12"), encoding="utf-8")
        json_path = tmp_path / "floor.json"
        argv = ["force", "--config", str(p), "--eps", "1e-6", "--out-json", str(json_path)]
        assert main(argv) == EXIT_OK
        assert json.loads(json_path.read_text())["errors"] == []

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        p = tmp_path / "typo.ini"
        p.write_text(CFG.replace("rel_tol = 1e-7", "rel_tl = 1e-7"), encoding="utf-8")
        assert main(["force", "--config", str(p)]) == EXIT_CONFIG
        assert "rel_tl" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["force", "--config", str(tmp_path / "nope.ini")]) == EXIT_CONFIG

    def test_byte_identical_artifacts(self, cfg_path, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for p in paths:
            assert main(["force", "--config", cfg_path, "--out-csv", str(p)]) == EXIT_OK
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_compute_failure_exit_code(self, cfg_path, monkeypatch, capsys):
        import lubgap.report as report_mod

        def boom(*args, **kwargs):
            raise RuntimeError("synthetic quadrature breakdown")

        monkeypatch.setattr(report_mod, "total_numeric", boom)
        assert main(["force", "--config", cfg_path]) == EXIT_COMPUTE
        assert "synthetic quadrature breakdown" in capsys.readouterr().err


class TestSweep:
    def test_requires_sweep_section(self, cfg_path, capsys):
        assert main(["sweep", "--config", cfg_path]) == EXIT_CONFIG
        assert "[sweep]" in capsys.readouterr().err

    def test_fits_exponents(self, cfg_sweep_path, capsys):
        assert main(["sweep", "--config", cfg_sweep_path]) == EXIT_OK
        assert "fitted exponent" in capsys.readouterr().out


class TestVerify:
    def test_bc_suite_passes(self, cfg_path, capsys):
        assert main(["verify", "--suite", "bc", "--config", cfg_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "suite bc: passed" in out
        assert out.count("[ok]") >= 7

    def test_div_suite_passes(self, cfg_path, capsys):
        assert main(["verify", "--suite", "div", "--config", cfg_path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "dual-tensor-div-squeeze" in out
        assert "suite div: passed" in out

    def test_div_suite_squeeze_small_gap(self, tmp_path, capsys):
        # at m = 8, eps = 1e-6 the gap core is far thinner than r: an x3
        # step scaled with r left it, and the row check read 1.0
        p = tmp_path / "m8.ini"
        p.write_text(CFG_SQUEEZE_M8, encoding="utf-8")
        json_path = tmp_path / "v.json"
        code = main(["verify", "--suite", "div", "--config", str(p), "--out-json", str(json_path)])
        checks = {c["name"]: c for c in json.loads(json_path.read_text())["suite"]["checks"]}
        assert checks["dual-tensor-div-squeeze"]["value"] < 1e-4
        assert code == EXIT_OK

    @pytest.mark.parametrize("m", ["2.0", "2.5"])
    def test_div_suite_general_motion_small_eps(self, tmp_path, m):
        # the dual tensor's row divergence at eps = 1e-8 read 2.0e-4 (m = 2)
        # and 6.5e-5 (m = 2.5) with finite-difference Laplacians
        p = tmp_path / "small.ini"
        p.write_text(CFG.replace("m = 2.0", f"m = {m}").replace("eps = 1e-2", "eps = 1e-8"))
        json_path = tmp_path / "v.json"
        code = main(["verify", "--suite", "div", "--config", str(p), "--out-json", str(json_path)])
        checks = {c["name"]: c for c in json.loads(json_path.read_text())["suite"]["checks"]}
        assert checks["dual-tensor-div-squeeze"]["value"] < 1e-4
        assert code == EXIT_OK

    @pytest.mark.parametrize("text", [CFG, CFG_2D], ids=["3d", "2d"])
    def test_bc_div_sample_points(self, text, tmp_path, monkeypatch):
        # the bc points lie on the surfaces over |x'| < 0.95 r, the div points
        # inside the gap over |x'| < 0.9 r and |x3| < 0.45 h; every
        # (sub-flow, side) evaluates points of its own
        p = tmp_path / "run.ini"
        p.write_text(text, encoding="utf-8")
        config = load_config(str(p))
        prof = config.problem.profile
        planar = []

        def surface_sample(profile, side, xps):
            planar.append(np.atleast_2d(xps))
            return real_sample(profile, side, xps)

        real_sample = lubgap.cli.surface_sample
        monkeypatch.setattr(lubgap.cli, "surface_sample", surface_sample)
        assert all(c["passed"] for c in lubgap.cli._suite_bc(config)[0])
        interior = []

        def eval_field_many(k, params, *x):
            interior.append(np.stack(x))
            return real_eval(k, params, *x)

        real_eval = lubgap.cli.eval_field_many
        monkeypatch.setattr(lubgap.cli, "eval_field_many", eval_field_many)
        assert all(c["passed"] for c in lubgap.cli._suite_div(config)[0])
        nk = len(subflow_indices(prof.dimension))
        assert len(planar) == 2 * nk and len(interior) == nk
        for xps in planar:
            assert xps.shape == (prof.dimension - 1, 200)
            assert np.all(np.hypot.reduce(xps) < 0.95 * prof.r)
        for x in interior:
            assert x.shape == (prof.dimension, 100)
            assert np.all(np.hypot.reduce(x[:-1]) < 0.9 * prof.r)
            assert np.all(np.abs(x[-1]) < 0.45 * prof.h(*x[:-1]))
        for points in (planar, interior):
            assert len({x.tobytes() for x in points}) == len(points)

    def test_bc_div_artifacts_repeat(self, cfg_path, tmp_path):
        # the sample is a fixed sequence: two fresh interpreters write the
        # same bytes
        src = str(Path(lubgap.cli.__file__).resolve().parents[1])
        script = "import sys; sys.path.insert(0, sys.argv[1]); from lubgap.cli import main; sys.exit(main(sys.argv[2:]))"
        for suite in ("bc", "div"):
            outs = []
            for run in range(2):
                out = tmp_path / f"{suite}{run}.json"
                argv = ["verify", "--suite", suite, "--config", cfg_path, "--out-json", str(out)]
                proc = subprocess.run([sys.executable, "-c", script, src, *argv], capture_output=True,
                                      text=True, timeout=300, check=False)
                assert proc.returncode == EXIT_OK, proc.stderr
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]

    def test_parity_suite_passes_2d(self, tmp_path, capsys):
        p = tmp_path / "run2d.ini"
        p.write_text(CFG_2D, encoding="utf-8")
        assert main(["verify", "--suite", "parity", "--config", str(p)]) == EXIT_OK
        assert "squeeze-subflow-torque" in capsys.readouterr().out

    def test_parity_suite_passes_3d(self, cfg_path, tmp_path, capsys):
        json_path = tmp_path / "v.json"
        code = main(
            [
                "verify", "--suite", "parity", "--config", cfg_path,
                "--out-json", str(json_path),
            ]
        )
        assert code == EXIT_OK
        payload = json.loads(json_path.read_text())
        assert payload["suite"]["name"] == "parity"
        assert payload["suite"]["passed"] is True
        names = {c["name"] for c in payload["suite"]["checks"]}
        assert "vertical-torque-nonspin" in names

    @pytest.mark.parametrize("cfg", [CFG, CFG_2D], ids=["3d", "2d"])
    def test_parity_suite_solves_once(self, cfg, tmp_path, monkeypatch):
        # the checks read the report's rows: one solve, and the same numbers
        # as checks formed from a separate total_numeric solve
        p = tmp_path / "run.ini"
        p.write_text(cfg, encoding="utf-8")
        solves = []

        def counted(*args, **kwargs):
            solves.append(args)
            return total_numeric(*args, **kwargs)

        monkeypatch.setattr(lubgap.report, "total_numeric", counted)
        monkeypatch.setattr(lubgap.cli, "total_numeric", counted)
        json_path = tmp_path / "v.json"
        assert main(["verify", "--suite", "parity", "--config", str(p),
                     "--out-json", str(json_path)]) == EXIT_OK
        assert len(solves) == 1
        checks = {c["name"]: (c["value"], c["tolerance"])
                  for c in json.loads(json_path.read_text())["suite"]["checks"]}

        config = load_config(str(p))
        params = config.problem
        tot = total_numeric(
            params,
            rel_tol=config.quadrature.rel_tol,
            max_subdivisions=config.quadrature.max_subdivisions,
        )
        slack = 1e-13 * max(abs(v) for v in (*np.atleast_1d(params.U),
                                             *np.atleast_1d(params.omega)))
        per = tot.per_subflow
        if params.profile.dimension == 2:
            expected = {"squeeze-subflow-torque": (abs(per[2].T), 10.0 * per[2].T_err + slack)}
        else:
            expected = {
                "vertical-torque-nonspin": (
                    abs(tot.T[2] - per[4].T[2]), 10.0 * (tot.T_err[2] + per[4].T_err[2]) + slack
                ),
                "shear-subflow-F2": (abs(per[1].F[1]), 10.0 * per[1].F_err[1] + slack),
                "shear-subflow-F3": (abs(per[1].F[2]), 10.0 * per[1].F_err[2] + slack),
            }
        assert checks == {k: (float(v), float(t)) for k, (v, t) in expected.items()}

    def test_parity_suite_failed_solve(self, cfg_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise QuadratureError("subdivision budget exhausted", QuadResult(0.0, 1.0, 0))

        monkeypatch.setattr(lubgap.report, "total_numeric", failing)
        assert main(["verify", "--suite", "parity", "--config", cfg_path]) == EXIT_COMPUTE
        assert "subdivision budget exhausted" in capsys.readouterr().err

    def test_exponents_requires_sweep(self, cfg_path):
        assert main(["verify", "--suite", "exponents", "--config", cfg_path]) == EXIT_CONFIG

    def test_exponents_suite_passes(self, cfg_sweep_path, capsys):
        code = main(["verify", "--suite", "exponents", "--config", cfg_sweep_path])
        assert code == EXIT_OK
        assert "exponent-F3" in capsys.readouterr().out

    def test_dual_suite_flags_growth(self, tmp_path, capsys):
        # squeeze-only motion: the squeeze pair's error form genuinely grows
        # as the gap closes, so the boundedness suite must report failure
        cfg = CFG.replace("U = 0.3, -0.2, -0.5", "U = 0.0, 0.0, -1.0").replace(
            "omega = 0.15, 0.2, 0.1", "omega = 0.0, 0.0, 0.0"
        )
        p = tmp_path / "sq.ini"
        p.write_text(cfg, encoding="utf-8")
        assert main(["verify", "--suite", "dual", "--config", str(p)]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "ell-slope-33" in out
        assert "suite dual: FAILED" in out

    def test_unknown_suite(self, cfg_path):
        assert main(["verify", "--suite", "bogus", "--config", cfg_path]) == EXIT_CONFIG


_PHI_ARGS = {"--i": "1", "--j": "1", "--m": "2", "--r": "1", "--eps": "1e-3"}


def _float_flag_argv(command, flag, value, cfg_path):
    if command == "constants":
        return ["constants", f"{flag}={value}"]
    if command == "phi":
        return ["phi"] + [f"{k}={v}" for k, v in {**_PHI_ARGS, flag: value}.items()]
    suite = ["--suite", "bc"] if command == "verify" else []
    return [command, *suite, "--config", cfg_path, f"{flag}={value}"]


class TestBadInput:
    # non-finite and non-integral numbers exit 1 at the input boundary:
    # an error message, no traceback and no artifact

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command, flag",
        [("constants", "--m")]
        + [("phi", flag) for flag in ("--i", "--j", "--m", "--r", "--eps", "--s")]
        + [("force", "--eps"), ("verify", "--eps")],
    )
    def test_non_finite_flag(self, command, flag, value, cfg_path, tmp_path, capsys):
        csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
        argv = _float_flag_argv(command, flag, value, cfg_path)
        if command in ("force", "verify"):
            argv += ["--out-csv", str(csv_path), "--out-json", str(json_path)]
        assert main(argv) == EXIT_CONFIG
        out = capsys.readouterr()
        assert f"argument {flag}: not a finite number" in out.err and "Traceback" not in out.err
        assert out.out == "" and not csv_path.exists() and not json_path.exists()

    @pytest.mark.parametrize(
        "line",
        ["eps = inf", "r = nan", "R = inf", "m = nan", "mu = nan", "U = nan, 0.0, -0.5",
         "rel_tol = nan", "max_subdivisions = inf", "points = inf", "dimension = inf",
         "dimension = 3.9"],
    )
    def test_bad_config_value(self, line, tmp_path, capsys):
        key = line.split(" = ")[0]
        text = CFG_SWEEP.replace("rel_tol = 1e-7", "rel_tol = 1e-7\nmax_subdivisions = 2000")
        text, count = re.subn(rf"^{key} = .*$", line, text, flags=re.M)
        assert count == 1
        p = tmp_path / "bad.ini"
        p.write_text(text, encoding="utf-8")
        csv_path, json_path = tmp_path / "out.csv", tmp_path / "out.json"
        argv = ["sweep", "--config", str(p), "--out-csv", str(csv_path), "--out-json", str(json_path)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"key '{key}'" in err and "Traceback" not in err
        assert not csv_path.exists() and not json_path.exists()


class TestArtifactPaths:
    # a path that cannot be written is an input error (exit 1, one location)

    def test_empty_config_path(self, tmp_path, capsys):
        p = tmp_path / "run.ini"
        p.write_text(CFG + "\n[output]\ncsv =\n", encoding="utf-8")
        assert main(["force", "--config", str(p)]) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.err == f"error: {p}[output]: key 'csv' is empty\n" and out.out == ""

    def test_unwritable_flag_path(self, cfg_path, tmp_path, capsys):
        json_path = tmp_path / "absent" / "x.json"
        argv = ["force", "--config", cfg_path, "--mode", "asymptotic", "--out-json", str(json_path)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: {json_path}: cannot write artifact: No such file or directory\n"

    @pytest.mark.parametrize("command", [["force"], ["sweep"], ["verify", "--suite", "parity"]])
    @pytest.mark.parametrize(
        "bad, reason",
        [("absent/x.json", "No such file or directory"), ("", "No such file or directory"),
         (".", "Is a directory")],
    )
    def test_checked_before_any_solve(self, command, bad, reason, tmp_path, monkeypatch, capsys):
        # the path is rejected before the computation, and the writable CSV
        # is not left behind without its JSON
        p = tmp_path / "run.ini"
        p.write_text(CFG_SWEEP, encoding="utf-8")
        solves = []
        monkeypatch.setattr(lubgap.report, "total_numeric", lambda *a, **k: solves.append(a))
        monkeypatch.setattr(lubgap.cli, "total_numeric", lambda *a, **k: solves.append(a))
        csv_path, json_path = tmp_path / "left.csv", str(tmp_path / bad) if bad else ""
        argv = [*command, "--config", str(p), "--out-csv", str(csv_path), "--out-json", json_path]
        assert main(argv) == EXIT_CONFIG
        out = capsys.readouterr()
        assert out.err == f"error: {json_path}: cannot write artifact: {reason}\n"
        assert out.out == "" and solves == [] and not csv_path.exists()
        assert not (tmp_path / "absent").exists()

    def test_config_path_checked_before_any_solve(self, tmp_path, monkeypatch, capsys):
        p = tmp_path / "run.ini"
        p.write_text(CFG + f"\n[output]\ncsv = {tmp_path / 'absent' / 'x.csv'}\n", encoding="utf-8")
        solves = []
        monkeypatch.setattr(lubgap.report, "total_numeric", lambda *a, **k: solves.append(a))
        assert main(["force", "--config", str(p)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "cannot write artifact: No such file or directory" in err and solves == []


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_CONFIG

    def test_unknown_flag(self, cfg_path):
        assert main(["force", "--config", cfg_path, "--fast"]) == EXIT_CONFIG
