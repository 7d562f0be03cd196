"""Benchmark worker: runs inside a fresh interpreter that imports ``lubgap``.

Usage (started by ``run.py``, which sets ``PYTHONPATH`` to the checkout's
``src``)::

    python3 perfbench/worker.py setup CONFIG
    python3 perfbench/worker.py session SPEC.json
    python3 perfbench/worker.py probes SPEC.json

``setup`` times ``import lubgap`` plus ``load_config``.  ``session`` imports
``lubgap`` once and then forks one child per operation, so every operation
starts with empty pressure-table caches, as a separate ``lubgap`` call
would; it repeats the session until the time in the spec has passed.  ``probes`` runs the per-layer probes of the traced run.  Each mode
prints one JSON document per line on standard output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

_T0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _import_lubgap(expected_src: str):
    import lubgap
    import lubgap.cli  # noqa: F401 - the entry point of the verify operations

    where = Path(lubgap.__file__).resolve()
    if Path(expected_src).resolve() not in where.parents:
        raise SystemExit(f"lubgap imported from {where}, not from {expected_src}")
    return lubgap


def in_child(fn, *args):
    """Run ``fn(*args)`` in a forked child; return (its JSON result, max RSS in KiB).

    The child inherits the imported modules but none of the state the
    parent builds later, and ``fn`` must return something JSON can encode.
    """
    rfd, wfd = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:  # child
        os.close(rfd)
        code = 0
        try:
            payload = json.dumps({"result": fn(*args)})
        except BaseException as exc:  # noqa: BLE001 - reported to the parent
            payload = json.dumps({"error": f"{type(exc).__name__}: {exc}"})
            code = 1
        try:
            with os.fdopen(wfd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "r", encoding="utf-8") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    msg = json.loads(data) if data else {"error": f"child died, wait status {status}"}
    if "error" in msg:
        raise RuntimeError(msg["error"])
    return msg["result"], usage.ru_maxrss


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _squeeze_ratios(lubgap, config, totals) -> list:
    """numeric / asymptotic of the leading squeeze component (F3 in 3D, F2 in 2D)."""
    dim = config.problem.profile.dimension
    comp = "F3" if dim == 3 else "F2"
    theorem = lubgap.force_asymptotic(config.problem, config.override_flat_hypothesis)
    exp = theorem.F[2] if dim == 3 else theorem.F[1]
    out = []
    for eps, name, numeric, _err in totals:
        if name != comp or exp.is_empty:
            continue
        asym = exp.evaluate(eps)
        if asym != 0.0:
            out.append([eps, numeric / asym])
    return out


def _totals(rows) -> list:
    return [[r["eps"], r["component"], r["numeric"], r["error_est"]]
            for r in rows if r["subflow"] == "total" and r["numeric"] is not None]


def _run_report(lubgap, op) -> dict:
    config = lubgap.load_config(op["config_path"])
    t0 = time.perf_counter()
    report = lubgap.build_report(config)
    csv_text = lubgap.render_csv(report)
    json_text = lubgap.render_json(report)
    with open(op["csv_path"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(csv_text)
    with open(op["json_path"], "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json_text)
    elapsed = time.perf_counter() - t0
    return {
        "time_s": elapsed,
        "config": config,
        "status": 2 if report.errors else 0,
        "error": "; ".join(e["error"] for e in report.errors) or None,
        "rows": report.rows,
        "checks": {},
        "deterministic": (lubgap.render_csv(report) == csv_text
                          and lubgap.render_json(report) == json_text),
        "sha256": {"csv": _sha(csv_text), "json": _sha(json_text)},
    }


def _run_verify(lubgap, op) -> dict:
    argv = ["verify", "--suite", op["suite"], "--config", op["config_path"],
            "--out-json", op["json_path"]]
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        status = lubgap.cli.main(argv)
    elapsed = time.perf_counter() - t0
    out = {"time_s": elapsed, "config": lubgap.load_config(op["config_path"]),
           "status": status, "error": None, "rows": (), "checks": {},
           "deterministic": None, "sha256": {}}
    if status in (1, 2):
        out["error"] = f"lubgap verify exited {status}"
        return out
    json_text = Path(op["json_path"]).read_text(encoding="utf-8")
    payload = json.loads(json_text)
    out["rows"] = payload["rows"]
    out["checks"] = {c["name"]: c["passed"] for c in payload["suite"]["checks"]}
    out["sha256"] = {"json": _sha(json_text)}
    return out


def run_op(lubgap, op: dict, spans_path: str | None) -> dict:
    """Run one operation (in a forked child) and summarise its outputs."""
    tracer = None
    if spans_path is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, lubgap)
    runner = _run_report if op["kind"] == "report" else _run_verify
    res = runner(lubgap, op)
    nspans = 0
    if tracer is not None:
        tracer.active = False
        nspans = tracer.dump(spans_path)
    totals = _totals(res["rows"])
    return {
        "id": op["id"],
        "time_s": res["time_s"],
        "status": res["status"],
        "error": res["error"],
        "totals": totals,
        "squeeze_ratio": _squeeze_ratios(lubgap, res["config"], totals),
        "checks": res["checks"],
        "deterministic": res["deterministic"],
        "sha256": res["sha256"],
        "spans": nspans,
    }


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def _versions(lubgap) -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "lubgap": lubgap.__version__}


def mode_setup(config_path: str, expected_src: str) -> None:
    lubgap = _import_lubgap(expected_src)
    t_import = time.perf_counter()
    lubgap.load_config(config_path)
    t_end = time.perf_counter()
    _emit({"import_s": t_import - _T0, "load_s": t_end - t_import,
           "setup_s": t_end - _T0, "versions": _versions(lubgap)})


def mode_session(spec: dict) -> None:
    """Repeat the session until ``spec["seconds"]`` have passed (at least once)."""
    lubgap = _import_lubgap(spec["src"])
    start = time.perf_counter()
    session = 0
    while session == 0 or time.perf_counter() - start < spec["seconds"]:
        for op in spec["ops"]:
            spans_path = op.get("spans_path") if spec.get("trace") else None
            try:
                result, maxrss = in_child(run_op, lubgap, op, spans_path)
            except RuntimeError as exc:
                result, maxrss = {"id": op["id"], "status": None, "error": str(exc)}, 0
            result["maxrss_kb"] = maxrss
            result["session"] = session
            _emit(result)
        session += 1


def mode_probes(spec: dict) -> None:
    import probes

    lubgap = _import_lubgap(spec["src"])
    _emit(probes.run_all(lubgap, spec, in_child))


def main(argv: list[str]) -> int:
    mode, arg = argv[0], argv[1]
    if mode == "setup":
        mode_setup(arg, argv[2])
        return 0
    spec = json.loads(Path(arg).read_text(encoding="utf-8"))
    if mode == "session":
        mode_session(spec)
    elif mode == "probes":
        mode_probes(spec)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
