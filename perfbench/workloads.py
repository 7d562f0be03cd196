"""Workload definitions: the problems each workload solves and its operations.

A workload is a fixed list of operations (one "session").  Every operation
runs cold, in a freshly forked process, the way a researcher pays for it on
each ``lubgap`` call.  The seed only permutes the order of the operations in
a session and draws the field-evaluation sample of the traced run; the set
of problems is the same for every seed, so the reference totals apply.
"""

from __future__ import annotations

import random
from pathlib import Path

# Fixed quadrature settings: a later change to the library default tolerance
# must not pass for a speed-up.
_QUAD = {"rel_tol": "1e-8", "max_subdivisions": "2000"}

GENERAL3D = {
    "profile": {"dimension": "3", "kind": "m-convex", "m": "2.0", "eps": "1e-4",
                "r": "0.5", "R": "2.0"},
    "motion": {"mu": "1.0", "U": "0.3, -0.2, -0.5", "omega": "0.15, 0.2, 0.1"},
    "quadrature": _QUAD,
}
SWEEP5 = {"eps_from": "1e-2", "eps_to": "1e-4", "points": "5"}
VERIFY_SUITES = ("bc", "div", "parity", "dual")


def _profile3(m="2.0", eps="1e-6", kind="m-convex", s=None):
    prof = {"dimension": "3", "kind": kind, "m": m, "eps": eps, "r": "0.5", "R": "2.0"}
    if s is not None:
        prof["s"] = s
    return prof


def _grid_problems() -> list[tuple[str, dict]]:
    squeeze = {"mu": "1.0", "U": "0.0, 0.0, -1.0", "omega": "0.0, 0.0, 0.0"}
    slide_spin = {"mu": "1.0", "U": "1.0, 0.5, -1.0", "omega": "0.0, 0.0, 0.3"}
    out = []
    for m in ("2.0", "2.5", "4.0", "8.0"):
        for eps in ("1e-6", "1e-8"):
            out.append((f"squeeze-m{m}-eps{eps}", {"profile": _profile3(m, eps), "motion": squeeze}))
    for s in ("0.05", "0.15"):
        out.append((f"squeeze-flat-s{s}-eps1e-6",
                    {"profile": _profile3(kind="flat-capped", s=s), "motion": squeeze}))
    out.append(("slidespin-m2.0-eps1e-6", {"profile": _profile3(), "motion": slide_spin}))
    out.append(("slidespin-flat-s0.05-eps1e-6",
                {"profile": _profile3(kind="flat-capped", s="0.05"), "motion": slide_spin}))
    for m in ("1.2", "2.0"):
        for eps in ("1e-6", "1e-8"):
            out.append((f"2d-m{m}-eps{eps}", {
                "profile": {"dimension": "2", "kind": "m-convex", "m": m, "eps": eps,
                            "r": "0.5", "R": "2.0"},
                "motion": {"mu": "1.0", "U": "0.4, -0.3", "omega": "0.25"},
            }))
    for _name, sections in out:
        sections["quadrature"] = _QUAD
    return out


WORKLOADS = ("general3d", "squeeze-grid", "verify3d")


def ini(sections: dict) -> str:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    return "\n".join(lines)


def session_ops(workload: str) -> list[dict]:
    """Operations of one session, in canonical order.

    Each operation is a dict with ``id``, ``kind`` (``report`` runs
    ``load_config`` + ``build_report`` + ``render_csv``/``render_json``;
    ``verify`` runs ``lubgap.cli.main verify``), the config text and, for
    ``verify``, the suite.
    """
    if workload == "general3d":
        return [
            {"id": "force", "kind": "report", "config": ini(GENERAL3D)},
            {"id": "sweep", "kind": "report", "config": ini({**GENERAL3D, "sweep": SWEEP5})},
        ]
    if workload == "squeeze-grid":
        return [{"id": f"grid:{name}", "kind": "report", "config": ini(sec)}
                for name, sec in _grid_problems()]
    if workload == "verify3d":
        return [{"id": f"verify:{s}", "kind": "verify", "suite": s, "config": ini(GENERAL3D)}
                for s in VERIFY_SUITES]
    raise ValueError(f"unknown workload {workload!r}")


def materialize(workload: str, seed: int, workdir: Path) -> list[dict]:
    """Write each operation's config and artifact paths under ``workdir``.

    Returns the session's operations in the seed's order.
    """
    ops = session_ops(workload)
    random.Random(seed).shuffle(ops)
    workdir.mkdir(parents=True, exist_ok=True)
    for i, op in enumerate(ops):
        stem = workdir / f"op{i:02d}"
        cfg = stem.with_suffix(".ini")
        cfg.write_text(op["config"], encoding="utf-8")
        op["config_path"] = str(cfg)
        op["csv_path"] = str(stem.with_suffix(".csv"))
        op["json_path"] = str(stem.with_suffix(".json"))
    return ops
