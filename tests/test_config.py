"""Config parsing, validation errors, and round-trip rendering."""

import configparser
import inspect
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lubgap.config import (
    _REQUIRED,
    _SCHEMA,
    ConfigError,
    RunConfig,
    SweepSpec,
    dump_config,
    load_config,
    parse_config,
)
from lubgap.quadrature import DEFAULT_MAX_SUBDIVISIONS, DEFAULT_REL_TOL, QuadSpec
from lubgap.traction import force_numeric, total_numeric

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

    def test_2d_omega_is_one_number(self):
        # a second value is an error, not dropped
        text = "[profile]\ndimension = 2\neps = 1e-3\nr = 0.5\nR = 2.0\n\n[motion]\nU = 0.4, -0.3\n"
        assert parse_config(text).problem.omega == 0.0
        with pytest.raises(ConfigError, match=r"\[motion\]: omega is a scalar in 2D"):
            parse_config(text + "omega = 0.25, 0.5\n")

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

    @pytest.mark.parametrize(
        "section", ["", "[quadrature]\nrel_tol = 1e-9\n"], ids=["no-section", "no-key"]
    )
    def test_default_subdivisions_match_library(self, section):
        # an omitted max_subdivisions gives the budget the library uses
        cfg = parse_config(with_sections(section))
        assert cfg.quadrature.max_subdivisions == DEFAULT_MAX_SUBDIVISIONS == 2000
        for fn in (force_numeric, total_numeric):
            assert inspect.signature(fn).parameters["max_subdivisions"].default == 2000
        assert QuadSpec().max_subdivisions == 2000

    def test_inline_comments(self):
        cfg = parse_config(BASE_3D.replace("eps = 1e-3", "eps = 1e-3  # gap width"))
        assert cfg.problem.profile.eps == 1e-3

    def test_percent_is_literal(self):
        # no interpolation: a '%' in a path is kept, and survives the round trip
        cfg = parse_config(with_sections("[output]\ncsv = runs/%d.csv\n"))
        assert cfg.csv_path == "runs/%d.csv"
        assert parse_config(dump_config(cfg)) == cfg


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

    @pytest.mark.parametrize(
        "extra, where",
        [
            ("[quadrature]\nrel_tl = 1e-3\n", "quadrature"),
            # the absolute tolerance comes from each integral's initial panels
            ("[quadrature]\nabs_tol = 1e-12\n", "quadrature"),
            ("[sweeep]\neps_from = 1e-2\neps_to = 1e-4\npoints = 5\n", "sweeep"),
            ("[DEFAULT]\neps = 1e-3\n", "DEFAULT"),
        ],
        ids=["key-typo", "abs_tol", "section-typo", "DEFAULT"],
    )
    def test_unknown_section_or_key_rejected(self, extra, where):
        # a typo must not pass for a default
        with pytest.raises(ConfigError, match=where):
            parse_config(with_sections(extra))

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


# a config holding every numeric key
FULL_3D = with_sections(
    "[quadrature]\nrel_tol = 1e-8\nmax_subdivisions = 2000\n\n"
    "[sweep]\neps_from = 1e-2\neps_to = 1e-4\npoints = 5\n"
).replace("m = 2.0", "m = 2.0\ns = 0.0")
NUMERIC_KEYS = ("dimension", "m", "s", "eps", "r", "R", "mu", "U", "omega",
                "rel_tol", "max_subdivisions", "eps_from", "eps_to", "points")


def with_value(key: str, value: str) -> str:
    text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", FULL_3D, flags=re.M)
    assert count == 1
    return text


class TestNumericValues:
    # non-finite or non-integral numbers fail at parsing, before they can
    # reach a solve as nan or inf, or as an OverflowError

    def test_full_config_parses(self):
        cfg = parse_config(FULL_3D)
        assert cfg.sweep is not None and cfg.quadrature.max_subdivisions == 2000

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", NUMERIC_KEYS)
    def test_non_finite_rejected(self, key, value):
        if key in ("U", "omega"):
            value = f"0.1, {value}, 0.1"
        with pytest.raises(ConfigError, match=f"key '{key}' has a value that is not a finite number"):
            parse_config(with_value(key, value))

    @pytest.mark.parametrize(
        "key, value",
        [("dimension", "3.9"), ("dimension", "2.5"), ("points", "4.5"), ("max_subdivisions", "250.5")],
    )
    def test_non_integral_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"key '{key}' is not an integer"):
            parse_config(with_value(key, value))

    def test_integral_floats_accepted(self):
        text = FULL_3D.replace("dimension = 3", "dimension = 3.0").replace("points = 5", "points = 5.0")
        cfg = parse_config(text.replace("max_subdivisions = 2000", "max_subdivisions = 2e3"))
        assert cfg == parse_config(FULL_3D)


# a config holding every key of the format
EVERY_KEY = FULL_3D + (
    "\n[output]\ncsv = out.csv\njson = out.json\n\n"
    "[run]\nmode = both\noverride_flat_hypothesis = false\n"
)
SCHEMA_KEYS = [(name, key) for name, keys in _SCHEMA.items() for key in keys]
REQUIRED_KEYS = [(name, key) for name, key in SCHEMA_KEYS if _SCHEMA[name][key][1] is _REQUIRED]


def _bad_value(section: str, key: str) -> str:
    if key in ("kind", "mode"):
        return "quick"
    # an empty artifact path, a bool that is neither, a number that is not finite
    return {str: "", bool: "maybe"}.get(_SCHEMA[section][key][0], "nan")


class TestErrorLocation:
    # an error names its source and section once, whichever key it reads

    def _assert_located_once(self, text: str, section: str) -> str:
        with pytest.raises(ConfigError) as info:
            parse_config(text, source="c.ini")
        message = str(info.value)
        assert message.startswith(f"c.ini[{section}]: ")
        assert message.count(f"[{section}]") == 1 and message.count("c.ini") == 1
        return message

    def test_every_key_parses(self):
        # so each bad value below is the only fault in its section
        cfg = parse_config(EVERY_KEY)
        assert (cfg.csv_path, cfg.json_path) == ("out.csv", "out.json")

    @pytest.mark.parametrize("section, key", SCHEMA_KEYS, ids=[f"{n}.{k}" for n, k in SCHEMA_KEYS])
    def test_bad_value(self, section, key):
        line = f"{key} = {_bad_value(section, key)}"
        text, count = re.subn(rf"^{key} = .*$", line, EVERY_KEY, flags=re.M)
        assert count == 1
        self._assert_located_once(text, section)

    @pytest.mark.parametrize(
        "section, key", REQUIRED_KEYS, ids=[f"{n}.{k}" for n, k in REQUIRED_KEYS]
    )
    def test_missing_required_key(self, section, key):
        text, count = re.subn(rf"^{key} = .*\n", "", EVERY_KEY, flags=re.M)
        assert count == 1
        assert self._assert_located_once(text, section).endswith(f"missing key {key!r}")


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadmeConfig:
    # the README's config block shows every key of the format, in order

    def _block(self) -> str:
        text = README.read_text(encoding="utf-8")
        section = text.split("### Config format (INI)", 1)[1]
        return section.split("```ini\n", 1)[1].split("```", 1)[0]

    def test_parses(self):
        cfg = parse_config(self._block())
        assert parse_config(dump_config(cfg)) == cfg

    def test_keys_match_schema(self):
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
        cp.optionxform = str
        cp.read_string(self._block())
        shown = {name: tuple(cp[name]) for name in cp.sections()}
        assert shown == {name: tuple(keys) for name, keys in _SCHEMA.items()}
        assert list(shown) == list(_SCHEMA)


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
