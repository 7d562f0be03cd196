"""lubgap benchmark: cold solve/verify latency, accuracy and a traced layer run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload general3d --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes one
untraced and one traced pass over the workload's session plus the layer
probes, and reports the per-layer metrics.  Either way the outputs are
checked against ``perfbench/reference.json``, and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--write-reference`` recomputes the reference from the
current checkout (one pass over every workload).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import GENERAL3D, WORKLOADS, ini, materialize  # noqa: E402

REFERENCE = HERE / "reference.json"
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"
SETUP_SAMPLES = 5
PROCESS_TIMEOUT_S = 170
ACCURATE_REL = 1e-6  # ROADMAP item 4 target for the largest component's bound
# names of the per-operation timings printed with each run (not gated)
OP_GROUPS = {"force": "force_s", "sweep": "sweep_s", "grid": "grid_s",
             "verify:bc": "verify_bc_s", "verify:div": "verify_div_s",
             "verify:parity": "verify_parity_s", "verify:dual": "verify_dual_s"}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(*args: str) -> list[dict]:
    """Run the worker in a fresh interpreter; return its JSON output lines."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], env=_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]


def run_sessions(ops: list[dict], seconds: float = 0.0, trace_dir: Path | None = None) -> list[list[dict]]:
    """Run the session in one worker, repeated until ``seconds`` have passed."""
    spec = {"src": str(SRC), "trace": trace_dir is not None, "ops": ops, "seconds": seconds}
    if trace_dir is not None:
        for i, op in enumerate(ops):
            op["spans_path"] = str(trace_dir / f"spans{i:02d}.json")
    spec_path = Path(ops[0]["config_path"]).parent / "session.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    sessions: list[list[dict]] = []
    for res in _worker("session", str(spec_path)):
        if res["session"] == len(sessions):
            sessions.append([])
        sessions[-1].append(res)
    return sessions


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def gate(result: dict, reference: dict) -> list[str]:
    """Reasons why one operation failed; empty when it passed.

    A total fails when it differs from its reference by more than the sum
    of the two reported error bounds.  A verify check fails only when it
    passed in the reference; at the reference commit the ``dual`` suite's
    slope checks fail by design, so the suite exits 3 without counting.
    """
    if result.get("status") not in (0, 3) or result.get("error"):
        return [f"status {result.get('status')}: {result.get('error')}"]
    ref = reference["ops"].get(result["id"])
    if ref is None:
        return ["no reference for this operation"]
    reasons = []
    got = {(eps, comp): (num, err) for eps, comp, num, err in result["totals"]}
    for eps, comp, num, err in ref["totals"]:
        if (eps, comp) not in got:
            reasons.append(f"missing total {comp} at eps={eps!r}")
            continue
        g_num, g_err = got[(eps, comp)]
        if abs(g_num - num) > g_err + err:
            reasons.append(f"{comp} at eps={eps!r}: {g_num!r} vs reference {num!r} (+-{g_err + err:.3g})")
    for name, passed in ref["checks"].items():
        if passed and not result["checks"].get(name, False):
            reasons.append(f"check {name} passed in the reference, now fails")
    if result.get("deterministic") is False:
        reasons.append("rendering the report twice gave different bytes")
    return reasons


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float | None, float | None]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(samples)
    if n < 11:
        return None, None
    ordered = sorted(samples)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def accuracy(results: list[dict]) -> dict:
    """Error-bound and asymptotic-agreement figures over one session's solves."""
    rel = []
    for res in results:
        by_eps: dict = {}
        for eps, _comp, num, err in res["totals"]:
            vals, errs = by_eps.setdefault(eps, ([], []))
            vals.append(abs(num))
            errs.append(err)
        for vals, errs in by_eps.values():
            rel.append(max(errs) / max(max(vals), 1e-300))
    ratios = [abs(r - 1.0) for res in results for _eps, r in res["squeeze_ratio"]]
    return {
        "bound_rel_max": max(rel),
        "bound_rel_geomean": math.exp(statistics.fmean(math.log(max(v, 1e-300)) for v in rel)),
        "accurate_frac": sum(v <= ACCURATE_REL for v in rel) / len(rel),
        "solves": len(rel),
        "asym_ratio_dev_max": max(ratios),
    }


def _op_group(op_id: str) -> str:
    return "grid" if op_id.startswith("grid:") else op_id


def tree_digest(root: Path) -> str:
    """SHA-256 over the relative paths and bytes of the ``.py`` files under ``root``."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(seed: int, versions: dict) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, **versions, "commit": commit,
            "src_sha256": tree_digest(SRC), "seed": seed,
            "program_pools": f"build_report and err_sweep use 4 worker threads on {os.cpu_count()} cores"}


# ---------------------------------------------------------------------------
# the two run kinds
# ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, list[list[dict]]]:
    ops = materialize(workload, seed, workdir)

    def setup():
        return _worker("setup", ops[0]["config_path"], str(SRC))[-1]

    # set-up samples are taken before and after the measured sessions
    setups = [setup() for _ in range(SETUP_SAMPLES // 2)]
    sessions = run_sessions(ops, seconds)
    setups += [setup() for _ in range(SETUP_SAMPLES - len(setups))]
    metrics = {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "session_s": (statistics.median(sum(r.get("time_s", 0.0) for r in sess) for sess in sessions), "s"),
        # the largest operation of a session; its median over the sessions
        "peak_rss_mb": (statistics.median(max(r["maxrss_kb"] for r in sess) for sess in sessions) / 1024.0, "MB"),
    }
    return {"metrics": metrics, "setups": setups}, sessions


def traced(workload: str, seed: int, workdir: Path) -> tuple[dict, list[list[dict]]]:
    ops = materialize(workload, seed, workdir)
    setups = [_worker("setup", ops[0]["config_path"], str(SRC))[-1] for _ in range(3)]
    plain = run_sessions(ops)[0]
    trace_dir = workdir / "spans"
    trace_dir.mkdir()
    with_trace = run_sessions(ops, trace_dir=trace_dir)[0]
    spans = []
    for i, res in enumerate(with_trace):
        spans.extend(tracing.load(Path(ops[i]["spans_path"]), res["id"], base=len(spans)))
    probe_config = workdir / "probes.ini"
    probe_config.write_text(ini(GENERAL3D), encoding="utf-8")
    probe_spec = workdir / "probes.json"
    probe_spec.write_text(json.dumps({"src": str(SRC), "seed": seed,
                                      "config_path": str(probe_config)}), encoding="utf-8")
    probes = _worker("probes", str(probe_spec))[-1]
    layer = tracing.layer_metrics(spans)
    layer.update(probes)
    layer["lubgap.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
    layer["trace.overhead_s"] = (sum(r["time_s"] for r in with_trace) - sum(r["time_s"] for r in plain), "s")
    layer["trace.spans"] = (len(spans), "count")
    mismatched = [a["id"] for a, b in zip(plain, with_trace) if a.get("sha256") != b.get("sha256")
                  or a.get("totals") != b.get("totals")]
    return ({"metrics": layer, "setups": setups, "spans": spans, "mismatched": mismatched},
            [plain, with_trace])


def write_reference() -> int:
    reference = {"ops": {}}
    for workload in WORKLOADS:
        workdir = OUT / f"reference-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            for res in run_sessions(materialize(workload, 0, workdir))[0]:
                if res.get("status") not in (0, 3):
                    print(f"{res['id']}: {res.get('error')}", file=sys.stderr)
                    return 1
                reference["ops"][res["id"]] = {k: res[k] for k in ("totals", "checks", "sha256")}
                print(f"{res['id']}: {res['time_s']:.3f} s")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)
    if not (SRC / "lubgap" / "__init__.py").is_file():
        print(f"error: no lubgap sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        ap.error("--workload is required")
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if args.trace:
            info, sessions = traced(args.workload, args.seed, workdir)
        else:
            info, sessions = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = [res for sess in sessions for res in sess]
    failures = {}
    failed = 0
    for res in results:
        reasons = gate(res, reference)
        if reasons:
            failed += 1
            failures.setdefault(res["id"], reasons)
    # every session computes the same problems, so its totals must repeat exactly
    consistent = all([r.get("totals") for r in s] == [r.get("totals") for r in sessions[0]] for s in sessions)
    mismatched = info.get("mismatched", [])
    # informational: refactors that keep the maths must keep the artifacts' bytes
    identical = sum(res.get("sha256") == reference["ops"].get(res["id"], {}).get("sha256")
                    for res in results)
    correct = failed == 0 and consistent and not mismatched
    solved = [r for r in sessions[0] if r.get("totals")]
    acc = accuracy(solved) if solved else None

    metrics = info["metrics"]
    if not args.trace and acc is not None:
        for name in ("bound_rel_max", "bound_rel_geomean", "asym_ratio_dev_max"):
            metrics[name] = (acc[name], "1")

    # per-operation timings, reported with their sample counts (not gated)
    groups: dict = {}
    for sess in sessions[:1] if args.trace else sessions:
        per_sess: dict = {}
        for res in sess:
            if "time_s" in res:
                key = OP_GROUPS[_op_group(res["id"])]
                per_sess[key] = per_sess.get(key, 0.0) + res["time_s"]
        for key, val in per_sess.items():
            groups.setdefault(key, []).append(val)

    prov = provenance(args.seed, info["setups"][0]["versions"])
    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "provenance": prov, "sessions": len(sessions), "operations": groups,
               "accuracy": acc, "failures": failures, "consistent": consistent,
               "trace_mismatch": mismatched, "artifacts_identical": identical,
               "setup_samples": [x["setup_s"] for x in info["setups"]],
               "op_samples": [[[r["id"], r.get("time_s"), r.get("maxrss_kb")] for r in sess] for sess in sessions],
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracing.write_spans(info["spans"], stem.with_suffix(".spans.json"))

    print(f"provenance: {json.dumps(prov)}")
    for key, vals in groups.items():
        pct, val = tail(vals)
        extra = f"  p{pct:.0f}={val:.4f} s" if pct is not None else ""
        print(f"op {key:<16} median={statistics.median(vals):.4f} s  n={len(vals)}{extra}")
    print(f"fail_frac = {failed}/{len(results)} operations failed the correctness gate")
    print(f"artifacts byte-identical to the reference: {identical}/{len(results)}")
    if acc is not None:
        print(f"accuracy: {acc['solves']} solves, accurate_frac={acc['accurate_frac']:.4f} "
              f"(bound <= {ACCURATE_REL:g} x largest component)")
    for op_id, reasons in failures.items():
        print(f"FAILED {op_id}: {'; '.join(reasons)}")
    if not consistent:
        print("FAILED: totals differ between sessions of the same run")
    if mismatched:
        print(f"FAILED: traced outputs differ from untraced ones: {mismatched}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
