"""Config parsing, validation errors, and round-trip rendering."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lubgap.config import (
    ConfigError,
    RunConfig,
    SweepSpec,
    dump_config,
    load_config,
    parse_config,
)
from lubgap.quadrature import DEFAULT_REL_TOL

BASE_3D = """
[profile]
dimension = 3
kind = m-convex
m = 2.0
eps = 1e-3
r = 0.5
R = 2.0

[motion]
mu = 1.0
U = 0.3, -0.2, -0.5
omega = 0.15, 0.2, 0.1
"""


def with_sections(extra: str) -> str:
    return BASE_3D + "\n" + extra


class TestParse:
    def test_minimal_3d(self):
        cfg = parse_config(BASE_3D)
        # the library's default force tolerance
        assert cfg.quadrature.rel_tol == DEFAULT_REL_TOL == 1e-8
        prof = cfg.problem.profile
        assert prof.dimension == 3
        assert prof.eps == 1e-3
        assert prof.r == 0.5
        assert prof.R == 2.0  # r and R are distinct, case-sensitive keys
        assert cfg.problem.U == (0.3, -0.2, -0.5)
        assert cfg.problem.omega == (0.15, 0.2, 0.1)
        assert cfg.mode == "both"
        assert cfg.sweep is None
        assert cfg.override_flat_hypothesis is False

    def test_2d_scalar_omega(self):
        cfg = parse_config(
            """
[profile]
dimension = 2
eps = 1e-3
r = 0.5
R = 2.0

[motion]
U = 0.4, -0.3
omega = 0.25
"""
        )
        assert cfg.problem.omega == 0.25
        assert cfg.problem.U == (0.4, -0.3)

    def test_omega_defaults_to_zero(self):
        text = BASE_3D.replace("omega = 0.15, 0.2, 0.1\n", "")
        cfg = parse_config(text)
        assert tuple(cfg.problem.omega) == (0.0, 0.0, 0.0)

    def test_optional_sections(self):
        cfg = parse_config(
            with_sections(
                """
[quadrature]
rel_tol = 1e-9
max_subdivisions = 250

[sweep]
eps_from = 1e-2
eps_to = 1e-4
points = 5

[output]
csv = out.csv
json = out.json

[run]
mode = numeric
override_flat_hypothesis = false
"""
            )
        )
        assert cfg.quadrature.rel_tol == 1e-9
        assert cfg.quadrature.max_subdivisions == 250
        assert cfg.sweep == SweepSpec(1e-2, 1e-4, 5)
        assert cfg.csv_path == "out.csv"
        assert cfg.json_path == "out.json"
        assert cfg.mode == "numeric"

    def test_inline_comments(self):
        cfg = parse_config(BASE_3D.replace("eps = 1e-3", "eps = 1e-3  # gap width"))
        assert cfg.problem.profile.eps == 1e-3


class TestErrors:
    def test_missing_profile_section(self):
        with pytest.raises(ConfigError, match=r"\[profile\]"):
            parse_config("[motion]\nU = 1, 0, 0\n")

    def test_missing_motion_key(self):
        text = BASE_3D.replace("U = 0.3, -0.2, -0.5\n", "")
        with pytest.raises(ConfigError, match="motion"):
            parse_config(text)

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="eps"):
            parse_config(BASE_3D.replace("eps = 1e-3", "eps = narrow"))

    def test_bad_vector(self):
        with pytest.raises(ConfigError, match="U"):
            parse_config(BASE_3D.replace("U = 0.3, -0.2, -0.5", "U = 0.3, oops"))

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="mode"):
            parse_config(with_sections("[run]\nmode = fast\n"))

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="override_flat_hypothesis"):
            parse_config(with_sections("[run]\noverride_flat_hypothesis = maybe\n"))

    @pytest.mark.parametrize(
        "section", ["rel_tol = 1e-13", "rel_tol = 0", "max_subdivisions = 199"]
    )
    def test_quadrature_below_floor_rejected(self, section):
        # no silent cap: a tolerance below 1e-12 or a budget below 200 is an
        # error, not quietly raised to the floor
        with pytest.raises(ConfigError, match="quadrature"):
            parse_config(with_sections(f"[quadrature]\n{section}\n"))

    def test_quadrature_floor_accepted(self):
        cfg = parse_config(with_sections("[quadrature]\nrel_tol = 1e-12\nmax_subdivisions = 200\n"))
        assert (cfg.quadrature.rel_tol, cfg.quadrature.max_subdivisions) == (1e-12, 200)

    def test_bad_sweep_order(self):
        with pytest.raises(ConfigError, match="sweep"):
            parse_config(
                with_sections("[sweep]\neps_from = 1e-4\neps_to = 1e-2\npoints = 5\n")
            )

    def test_sweep_too_few_points(self):
        with pytest.raises(ConfigError, match="sweep"):
            parse_config(
                with_sections("[sweep]\neps_from = 1e-2\neps_to = 1e-4\npoints = 2\n")
            )

    def test_invalid_ini(self):
        with pytest.raises(ConfigError, match="INI"):
            parse_config("profile]\nbroken\n")

    def test_profile_validation_propagates(self):
        # m-convex with a flat radius is a geometry error, reported with
        # the section context
        with pytest.raises(ConfigError, match="profile"):
            parse_config(BASE_3D.replace("m = 2.0", "m = 2.0\ns = 0.1"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(str(tmp_path / "absent.ini"))


class TestSweepSpec:
    def test_grid_log_spaced_decreasing(self):
        grid = SweepSpec(1e-2, 1e-4, 5).grid()
        assert len(grid) == 5
        assert grid[0] == pytest.approx(1e-2)
        assert grid[-1] == pytest.approx(1e-4)
        assert all(a > b for a, b in zip(grid, grid[1:]))
        ratios = [a / b for a, b in zip(grid, grid[1:])]
        assert all(q == pytest.approx(ratios[0], rel=1e-12) for q in ratios)

    def test_eps_grid_without_sweep(self):
        cfg = parse_config(BASE_3D)
        assert cfg.eps_grid() == (1e-3,)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "extra",
        [
            "",
            "[sweep]\neps_from = 1e-2\neps_to = 1e-4\npoints = 4\n",
            "[output]\ncsv = a.csv\njson = b.json\n\n[run]\nmode = asymptotic\n",
        ],
    )
    def test_dump_parse_identity(self, extra):
        cfg = parse_config(with_sections(extra))
        assert parse_config(dump_config(cfg)) == cfg

    def test_flat_profile(self):
        text = BASE_3D.replace("kind = m-convex", "kind = flat-capped").replace(
            "m = 2.0", "m = 2.0\ns = 0.1"
        )
        cfg = parse_config(text)
        assert cfg.problem.profile.kind == "flat-capped"
        assert parse_config(dump_config(cfg)) == cfg

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(BASE_3D, encoding="utf-8")
        assert load_config(str(path)) == parse_config(BASE_3D)

    @given(
        eps=st.floats(1e-6, 1e-2),
        r=st.floats(0.1, 1.0),
        R=st.floats(1.1, 5.0),
        mu=st.floats(0.1, 10.0),
        u=st.tuples(
            st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 0.0)
        ),
        w=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random(self, eps, r, R, mu, u, w):
        if not all(map(math.isfinite, (*u, *w, eps, r, R, mu))):
            return
        text = f"""
[profile]
dimension = 3
eps = {eps!r}
r = {r!r}
R = {R!r}

[motion]
mu = {mu!r}
U = {u[0]!r}, {u[1]!r}, {u[2]!r}
omega = {w[0]!r}, {w[1]!r}, {w[2]!r}
"""
        cfg = parse_config(text)
        assert parse_config(dump_config(cfg)) == cfg


class TestRunConfig:
    def test_mode_validated(self, params3d):
        with pytest.raises(ValueError):
            RunConfig(problem=params3d, mode="quick")
