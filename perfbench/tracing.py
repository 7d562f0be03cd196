"""Spans around the calls into each ``lubgap`` layer, recorded from outside.

:func:`install` replaces module attributes with timing wrappers at the
places where callers look them up.  Names bound with ``from ... import``
are wrapped in the calling module (``lubgap.traction.eval_field_many``,
``lubgap.traction.integrate_vector``, ``lubgap.dualcheck.integrate_1d``,
``lubgap.cli.eval_field`` and so on).  ``import lubgap.traction`` yields the
``traction`` function because the package re-exports it under the module's
name, so modules are reached through :func:`importlib.import_module`.

A span is ``[name, start, end, parent, attrs]``; ``parent`` is the index of
the enclosing span, or -1.  A span opened on a pool thread with nothing
open on that thread takes the innermost span open on the main thread as its
parent, so the tasks of ``build_report`` and ``err_sweep`` hang under the
call that started the pool.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from pathlib import Path

_KRONROD_NODES = 15  # abscissae per panel of lubgap's adaptive Gauss-Kronrod rule
FIELDS = ("fields.eval_field_many", "fields.pressure_cache_error")
# dual-check cross pairs whose ell vanishes by parity (about 1e-22 .. 1e-18)
ZERO_PAIRS = ("12", "13", "16", "23", "26")
QUADRATURE = ("quadrature.integrate_vector", "quadrature.integrate_1d")


class Tracer:
    """In-memory span recorder, safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = True
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, attrs: dict, on_result=None):
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else -1
        span = [name, 0.0, 0.0, parent, attrs]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        span[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            stack.pop()
        if on_result is not None:
            on_result(attrs, result)
        return result

    def wrap(self, name: str, fn, describe=None, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = describe(*args, **kwargs) if describe is not None else {}
            return self.call(name, fn, args, kwargs, attrs, on_result)

        return wrapper

    def dump(self, path) -> int:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
        return len(self.spans)


def _k(k, *_a, **_kw) -> dict:
    return {"k": int(k)}


def _eval_many(k, _params, *coords) -> dict:
    return {"k": int(k), "npts": int(len(coords[0]))}


def _pair(i, j, *_a, **_kw) -> dict:
    return {"pair": f"{int(i)}{int(j)}"}


def _force_result(attrs, result) -> None:
    attrs["evaluations"] = int(result.evaluations)


def _quad_result(attrs, result) -> None:
    attrs["nevals"] = int(result[2])


def _integrate_vector(tracer: Tracer, fn, site: str):
    """Span for the adaptive integrator plus a child span per integrand callback."""

    def wrapper(fvec, a, b, spec, *args, **kwargs):
        def timed(x):
            return tracer.call("quadrature.integrand", fvec, (x,), {}, {"site": site})

        attrs = {"site": site, "rel_tol": float(spec.rel_tol)}
        return tracer.call("quadrature.integrate_vector", fn, (timed, a, b, spec, *args),
                           kwargs, attrs, _quad_result)

    return functools.wraps(fn)(wrapper)


def install(tracer: Tracer, lubgap) -> None:
    """Wrap the layer entry points of ``lubgap`` in place (for this process)."""
    mod = {name: importlib.import_module(f"lubgap.{name}")
           for name in ("fields", "traction", "quadrature", "dualcheck", "report", "cli", "special")}
    plan = [
        (mod["fields"], "eval_field_many", "fields.eval_field_many", _eval_many, None),
        (mod["traction"], "eval_field_many", "fields.eval_field_many", _eval_many, None),
        (mod["fields"], "pressure_cache_error", "fields.pressure_cache_error", _k, None),
        (mod["traction"], "pressure_cache_error", "fields.pressure_cache_error", _k, None),
        (mod["traction"], "force_numeric", "traction.force_numeric", _k, _force_result),
        (mod["report"], "total_numeric", "traction.total_numeric", None, None),
        (mod["cli"], "total_numeric", "traction.total_numeric", None, None),
        (mod["dualcheck"], "integrate_1d", "quadrature.integrate_1d", None, None),
        (mod["fields"], "integrate_1d", "quadrature.integrate_1d", None, None),
        (mod["special"], "integrate_1d", "quadrature.integrate_1d", None, None),
        (mod["report"], "force_asymptotic", "asymptotics.force_asymptotic", None, None),
        (mod["cli"], "force_asymptotic", "asymptotics.force_asymptotic", None, None),
        (lubgap, "build_report", "report.build_report", None, None),
        (mod["cli"], "build_report", "report.build_report", None, None),
        (lubgap, "render_csv", "report.render_csv", None, None),
        (lubgap, "render_json", "report.render_json", None, None),
        (mod["cli"], "render_csv", "report.render_csv", None, None),
        (mod["cli"], "render_json", "report.render_json", None, None),
        (mod["dualcheck"], "ell", "dualcheck.ell", _pair, None),
        (mod["dualcheck"], "err_sweep", "dualcheck.err_sweep", None, None),
        (mod["dualcheck"], "dual_tensor", "dualcheck.dual_tensor", None, None),
        (mod["cli"], "eval_field", "cli.eval_field", None, None),
        (mod["cli"], "main", "cli.main", None, None),
        (lubgap, "load_config", "config.load_config", None, None),
        (mod["cli"], "load_config", "config.load_config", None, None),
    ]
    for module, attr, name, describe, on_result in plan:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), describe, on_result))
    for site in ("traction", "quadrature"):
        module = mod[site]
        module.integrate_vector = _integrate_vector(tracer, module.integrate_vector, site)


# ---------------------------------------------------------------------------
# reading spans back and deriving the per-layer metrics
# ---------------------------------------------------------------------------


def load(path: Path, op_id: str, base: int = 0) -> list[dict]:
    """Spans of one operation, with parents offset by ``base`` for merging."""
    raw = json.loads(path.read_text(encoding="utf-8"))
    return [{"name": n, "start": s, "end": e, "parent": (p + base if p >= 0 else -1),
             "op": op_id, "attrs": a} for n, s, e, p, a in raw]


def write_spans(spans: list[dict], path: Path) -> None:
    path.write_text(json.dumps(spans) + "\n", encoding="utf-8")


def self_times(spans: list[dict]) -> list[float]:
    """Span duration minus the part of its interval that child spans cover.

    Children on pool threads may overlap each other; their union is taken,
    so a parent that only waits for its pool gets a self time near zero.
    """
    children: dict[int, list[int]] = {}
    for i, sp in enumerate(spans):
        if sp["parent"] >= 0:
            children.setdefault(sp["parent"], []).append(i)
    out = []
    for i, sp in enumerate(spans):
        covered, cur_lo, cur_hi = 0.0, None, None
        ivals = sorted((max(spans[c]["start"], sp["start"]), min(spans[c]["end"], sp["end"]))
                       for c in children.get(i, ()))
        for lo, hi in ivals:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(sp["end"] - sp["start"] - covered)
    return out


def layer_metrics(spans: list[dict]) -> dict:
    """Per-layer metrics of one traced session: ``{name: (value, unit)}``."""
    own = self_times(spans)
    dur = [sp["end"] - sp["start"] for sp in spans]
    names = [sp["name"] for sp in spans]

    def total(which, values=dur) -> float:
        return sum(v for n, v in zip(names, values) if n in which)

    out = {
        "fields.eval_calls": (names.count("fields.eval_field_many"), "count"),
        "fields.eval_points": (sum(sp["attrs"]["npts"] for sp in spans
                                   if sp["name"] == "fields.eval_field_many"), "count"),
        "fields.self_s": (total(FIELDS, own), "s"),
    }

    per_k = {k: [0.0, 0] for k in range(7)}
    ring_self = 0.0
    for i, sp in enumerate(spans):
        if sp["name"] == "traction.force_numeric":
            per_k[sp["attrs"]["k"]][0] += dur[i]
            per_k[sp["attrs"]["k"]][1] += sp["attrs"].get("evaluations", 0)
            ring_self += own[i]
        elif sp["name"] == "quadrature.integrand" and sp["attrs"]["site"] == "traction":
            ring_self += own[i]
    numeric_s = sum(v[0] for v in per_k.values())
    for k, (secs, evals) in per_k.items():
        out[f"traction.k{k}.s"] = (secs, "s")
        out[f"traction.k{k}.evaluations"] = (evals, "count")
    out["traction.k6.share"] = (per_k[6][0] / numeric_s if numeric_s else 0.0, "1")
    out["traction.ring_self_s"] = (ring_self, "s")

    outer = [i for i, sp in enumerate(spans) if sp["name"] == "quadrature.integrate_vector"
             and (sp["parent"] < 0 or spans[sp["parent"]]["name"] != sp["name"])]
    nevals = sum(spans[i]["attrs"].get("nevals", 0) for i in outer)
    probe_evals = sum(spans[i]["attrs"].get("nevals", 0) for i in outer
                      if spans[i]["attrs"]["rel_tol"] == 1.0)
    panels = nevals / _KRONROD_NODES
    quad_self = total(QUADRATURE, own)
    out["quadrature.calls"] = (len(outer), "count")
    out["quadrature.panels"] = (panels, "count")
    out["quadrature.self_s"] = (quad_self, "s")
    out["quadrature.us_per_panel"] = (1e6 * quad_self / panels if panels else 0.0, "us")
    out["quadrature.probe_share"] = (probe_evals / nevals if nevals else 0.0, "1")

    out["report.render_s"] = (total(("report.render_csv", "report.render_json")), "s")
    out["report.total_numeric_calls"] = (names.count("traction.total_numeric"), "count")
    out["report.pool_ratio"] = (_pool_ratio(spans, "report.build_report", "traction.total_numeric"), "1")
    out["dualcheck.pool_ratio"] = (_pool_ratio(spans, "dualcheck.err_sweep", "dualcheck.ell"), "1")
    tasks = [sp for sp in spans if sp["name"] == "dualcheck.ell" and sp["parent"] >= 0
             and spans[sp["parent"]]["name"] == "dualcheck.err_sweep"]
    task_s = sum(t["end"] - t["start"] for t in tasks)
    zero_s = sum(t["end"] - t["start"] for t in tasks if t["attrs"]["pair"] in ZERO_PAIRS)
    out["dualcheck.sweep.zero_pair_share"] = (zero_s / task_s if task_s else 0.0, "1")
    out["cli.eval_field_calls"] = (names.count("cli.eval_field"), "count")
    out["cli.dual_tensor_calls"] = (names.count("dualcheck.dual_tensor"), "count")
    return out


def _pool_ratio(spans: list[dict], parent_name: str, task_name: str) -> float:
    """Summed task time over the wall time in which the tasks ran.

    About 1 means the pool bought no overlap; 0 when no such pool ran.
    """
    tasks: dict[int, list[dict]] = {}
    for sp in spans:
        if sp["name"] == task_name and sp["parent"] >= 0 and spans[sp["parent"]]["name"] == parent_name:
            tasks.setdefault(sp["parent"], []).append(sp)
    busy = sum(t["end"] - t["start"] for group in tasks.values() for t in group)
    wall = sum(max(t["end"] for t in g) - min(t["start"] for t in g) for g in tasks.values())
    return busy / wall if wall > 0.0 else 0.0
