"""Command-line interface: subcommands, flag overrides, artifacts, exit codes."""

import json
import math

import numpy as np
import pytest

import lubgap.cli
import lubgap.report
from lubgap.cli import EXIT_COMPUTE, EXIT_CONFIG, EXIT_OK, EXIT_VERIFY, main
from lubgap.config import load_config
from lubgap.quadrature import QuadratureError, QuadResult
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
        assert "alpha13_2d" in out

    def test_m_within_roundoff_of_2(self):
        # the degenerate Gamma branch is detected on both sides of m = 2
        assert main(["constants", "--m", "1.9999999999999"]) == EXIT_OK
        assert main(["constants", "--m", "2.0000000000001"]) == EXIT_OK

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


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_CONFIG

    def test_unknown_flag(self, cfg_path):
        assert main(["force", "--config", cfg_path, "--fast"]) == EXIT_CONFIG
