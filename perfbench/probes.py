"""Per-layer probes of the traced run, timed from outside through public functions.

All probes use the ``general3d`` problem (3D, m = 2, general motion):

* ``fields``: ``eval_field_many`` per sub-flow on a seed-drawn 4096-point
  gap sample at eps = 1e-4, tables warm; a cold ``pressure_cache_error``
  for the rotation (k = 6) and squeeze (k = 3) tables, with the table
  errors it returns; scalar ``eval_field`` calls as the ``bc``/``div``
  suites make them.
* ``asymptotics``: ``force_asymptotic``.
* ``config``: ``load_config``.
* ``dualcheck``: a cold ``dual_tensor(3, ...)`` and ``dual_tensor(6, ...)``
  (the dual-potential tables), then ``ell(i, j)`` once per sub-flow pair,
  serially, at eps = 1e-3 with the tables warm.

Cold probes run in a forked child so they start with empty caches.
"""

from __future__ import annotations

import importlib
import statistics
import time
from dataclasses import replace

import numpy as np

from tracing import ZERO_PAIRS

NPTS = 4096
REPEATS = 7
ELL_EPS = 1e-3
ELL_PAIRS = ("11", "12", "13", "16", "22", "23", "26", "33", "36", "66")


def _median_time(fn, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _gap_sample(profile, seed: int):
    rng = np.random.default_rng(seed)
    t = profile.r * np.sqrt(rng.uniform(size=NPTS))
    th = rng.uniform(0.0, 2.0 * np.pi, NPTS)
    x1, x2 = t * np.cos(th), t * np.sin(th)
    x3 = rng.uniform(-0.5, 0.5, NPTS) * profile.h(x1, x2)
    return x1, x2, x3


def _cold_tables(lubgap, params) -> dict:
    fields = importlib.import_module("lubgap.fields")
    t0 = time.perf_counter()
    rot_err = fields.pressure_cache_error(6, params.profile)
    t1 = time.perf_counter()
    sq_err = fields.pressure_cache_error(3, params.profile)
    t2 = time.perf_counter()
    return {
        "fields.rot_table.build_s": (t1 - t0, "s"),
        "fields.squeeze_table.build_s": (t2 - t1, "s"),
        "fields.rot_table.error": (float(rot_err), "1"),
        "fields.squeeze_table.error": (float(sq_err), "1"),
    }


def _field_rates(lubgap, params, seed: int) -> dict:
    fields = importlib.import_module("lubgap.fields")
    x1, x2, x3 = _gap_sample(params.profile, seed)
    out = {}
    for k in lubgap.subflow_indices(3):
        fields.eval_field_many(k, params, x1, x2, x3)  # builds the tables
        secs = _median_time(lambda: fields.eval_field_many(k, params, x1, x2, x3))
        out[f"fields.k{k}.ns_per_pt"] = (1e9 * secs / NPTS, "ns")
    cli = importlib.import_module("lubgap.cli")
    points = list(zip(x1[:70], x2[:70], x3[:70]))

    def scalar_calls():
        for k in lubgap.subflow_indices(3):
            for x in points:
                cli.eval_field(k, params, x)

    ncalls = len(points) * len(lubgap.subflow_indices(3))
    out["cli.eval_field_us"] = (1e6 * _median_time(scalar_calls, 3) / ncalls, "us")
    return out


def _dual(lubgap, params) -> dict:
    dualcheck = importlib.import_module("lubgap.dualcheck")
    par = replace(params, profile=replace(params.profile, eps=ELL_EPS))
    x0 = (0.01, 0.01, 0.0)
    t0 = time.perf_counter()
    dualcheck.dual_tensor(3, par, x0)
    dualcheck.dual_tensor(6, par, x0)
    out = {"dualcheck.qtable.build_s": (time.perf_counter() - t0, "s")}

    evals = [0]
    integrate_1d = dualcheck.integrate_1d

    def counted(*args, **kwargs):
        res = integrate_1d(*args, **kwargs)
        evals[0] += res.evaluations
        return res

    dualcheck.integrate_1d = counted
    times = {}
    for pair in ELL_PAIRS:
        t0 = time.perf_counter()
        dualcheck.ell(int(pair[0]), int(pair[1]), par)
        times[pair] = time.perf_counter() - t0
        out[f"dualcheck.ell.{pair}.s"] = (times[pair], "s")
    out["dualcheck.quad_evals"] = (evals[0], "count")
    zero = sum(t for pair, t in times.items() if pair in ZERO_PAIRS)
    out["dualcheck.zero_pair_share"] = (zero / sum(times.values()), "1")
    return out


def run_all(lubgap, spec: dict, in_child) -> dict:
    """All probes; ``in_child(fn, *args)`` runs a cold probe in a forked child."""
    config = lubgap.load_config(spec["config_path"])
    params = config.problem
    out = {
        "config.load_ms": (1e3 * _median_time(lambda: lubgap.load_config(spec["config_path"]), 21), "ms"),
        "asymptotics.force_asymptotic_us": (
            1e6 * _median_time(lambda: lubgap.force_asymptotic(params), 21), "us"),
    }
    for probe, args in ((_cold_tables, (lubgap, params)),
                        (_field_rates, (lubgap, params, spec["seed"])),
                        (_dual, (lubgap, params))):
        result, _rss = in_child(probe, *args)
        out.update({k: tuple(v) for k, v in result.items()})
    return out
