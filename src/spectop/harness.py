"""Experiment drivers: config validation, trial execution, CSV and manifest output.

Each experiment kind maps to one trial function producing a flat column
dict.  The runner derives an independent seed per trial index, collects the
rows in index order, writes them to records.csv, and writes manifest.json
with the config echo, the resolved parameters, the package version, and
median/quartile summaries of the numeric columns.  Re-running a config
reproduces every column except wall_ms exactly.
"""

import json
import math
import os
import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

import numpy as np

from . import __version__
from .audit import audit, find_path_witness
from .complexes import FaceProcess, isolated_faces, sample_complex, window_density
from .criteria import cohomology_hitting, garland_check, graph_connectivity_hitting, t_hitting
from .graphs import GraphParams, components, erdos_renyi, induced_subgraph, read_edge_list
from .homology import betti_dminus1
from .seeding import derive_seed
from .spectral import gap, gap_at_most, giant_gap
from .tails import soundness_grid

KINDS = (
    "graph-gap",
    "below-threshold",
    "connectivity-gap",
    "link-audit",
    "poisson-betti",
    "cohomology-hit",
    "t-hit",
    "certify",
    "tail-check",
)

_NEEDS_P = {"graph-gap", "below-threshold", "link-audit"}
_NEEDS_D = {"link-audit", "poisson-betti", "cohomology-hit"}


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n: Optional[int] = None
    d: Optional[int] = None
    p: Optional[float] = None
    coeff: Optional[float] = None
    c: Optional[float] = None
    trials: int = 1
    master_seed: int = 0
    M: float = 10.0
    grid_points: int = 12
    out: str = "runs"
    import_path: Optional[str] = None
    workers: int = 1


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    values: Dict[str, object]
    wall_ms: float


@dataclass(frozen=True)
class RunResult:
    config: ExperimentConfig
    columns: List[str]
    records: List[TrialRecord]
    csv_path: str
    manifest_path: str
    manifest: dict
    ok: bool


def validate(cfg: ExperimentConfig) -> None:
    """Reject a bad config with the offending field named."""
    if cfg.kind not in KINDS:
        raise ValueError(f"kind must be one of {', '.join(KINDS)}")
    if cfg.kind == "tail-check":
        return
    if cfg.trials < 1:
        raise ValueError("trials must be at least 1")
    if cfg.master_seed < 0:
        raise ValueError("seed must be non-negative")
    if cfg.workers < 1:
        raise ValueError("workers must be at least 1")
    if cfg.p is not None and cfg.coeff is not None:
        raise ValueError("p and coeff are mutually exclusive")
    if cfg.p is not None and not 0.0 <= cfg.p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if cfg.coeff is not None and cfg.coeff <= 0.0:
        raise ValueError("coeff must be positive")

    if cfg.kind == "certify":
        if cfg.import_path is None:
            if cfg.p is None and cfg.coeff is None:
                raise ValueError("certify needs p or coeff (or an import file)")
            _need_n(cfg)
        elif cfg.trials != 1:
            raise ValueError("trials must be 1 when importing a fixed graph")
        if cfg.M < 1.0:
            raise ValueError("M must be at least 1")
        return
    if cfg.import_path is not None:
        raise ValueError("import is only meaningful for certify")

    _need_n(cfg)
    if cfg.kind in _NEEDS_P and cfg.p is None and cfg.coeff is None:
        raise ValueError(f"{cfg.kind} needs p or coeff")
    if cfg.kind in _NEEDS_D:
        if cfg.d is None or cfg.d < 2:
            raise ValueError(f"{cfg.kind} needs d >= 2")
        if cfg.n < cfg.d + 1:
            raise ValueError("n must be at least d + 1")
    if cfg.kind == "poisson-betti" and cfg.p is None and cfg.c is None:
        raise ValueError("poisson-betti needs c (window constant) or literal p")
    if cfg.kind == "t-hit":
        if cfg.d not in (None, 2):
            raise ValueError("t-hit runs in dimension 2")
        if cfg.grid_points < 1:
            raise ValueError("grid must have at least one point")
        if cfg.n < 3:
            raise ValueError("n must be at least 3")


def _need_n(cfg: ExperimentConfig) -> None:
    if cfg.n is None or cfg.n < 2:
        raise ValueError(f"{cfg.kind} needs n >= 2")


def resolve_p(cfg: ExperimentConfig) -> Optional[float]:
    """Numeric edge/face probability for the run, or None when unused."""
    if cfg.kind == "poisson-betti" and cfg.p is None:
        return window_density(cfg.n, cfg.d, cfg.c)
    if cfg.p is not None:
        return cfg.p
    if cfg.coeff is not None:
        p = cfg.coeff * math.log(cfg.n) / cfg.n
        if p > 1.0:
            raise ValueError(f"coeff {cfg.coeff} resolves to p = {p:.4g} > 1")
        return p
    return None


def _giant(g):
    comp = components(g)
    return induced_subgraph(g, np.flatnonzero(comp.component_id == comp.giant))


def _graph_gap_trial(cfg, p, seed):
    g = erdos_renyi(GraphParams(cfg.n, p, seed))
    if g.edge_count == 0:
        return {"giant_size": 1, "gap": None, "lambda2": None,
                "lambda_max": None, "gap_sqrt_d": None}
    sub = _giant(g)
    r = gap(sub)
    d = (cfg.n - 1) * p
    return {
        "giant_size": sub.n,
        "gap": r.lambda_abs,
        "lambda2": r.lambda2,
        "lambda_max": r.lambda_max,
        "gap_sqrt_d": r.lambda_abs * math.sqrt(d),
    }


def _below_threshold_trial(cfg, p, seed):
    g = erdos_renyi(GraphParams(cfg.n, p, seed))
    m = max(1, math.floor(cfg.n * p / 2))
    if g.edge_count == 0:
        return {"giant_size": 1, "gap": None, "lambda2": None,
                "lambda_max": None, "witness_m": m, "witness_found": False}
    sub = _giant(g)
    r = gap(sub)
    witness = find_path_witness(sub, m)
    return {
        "giant_size": sub.n,
        "gap": r.lambda_abs,
        "lambda2": r.lambda2,
        "lambda_max": r.lambda_max,
        "witness_m": m,
        "witness_found": witness is not None,
    }


def _connectivity_gap_trial(cfg, p, seed):
    h = graph_connectivity_hitting(FaceProcess(cfg.n, 1, seed=seed))
    return {
        "tau_c": h.tau_c_index,
        "m1_no_isolated": h.M1,
        "gap": h.gap.lambda_abs,
        "lambda2": h.gap.lambda2,
        "lambda_max": h.gap.lambda_max,
        "gap_sqrt_log_n": h.gap.lambda_abs * math.sqrt(math.log(cfg.n)),
    }


def _link_audit_trial(cfg, p, seed):
    y = sample_complex(cfg.n, cfg.d, p, seed=seed)
    r = garland_check(y)
    return {**asdict(r), "worst_face": "-".join(map(str, r.worst_face)) if r.worst_face else None}


def _poisson_betti_trial(cfg, p, seed):
    y = sample_complex(cfg.n, cfg.d, p, seed=seed)
    iso = isolated_faces(y).isolated_count
    betti = betti_dminus1(y, seed=seed)
    return {"isolated": iso, "betti": betti, "identity_holds": betti == iso}


def _cohomology_hit_trial(cfg, p, seed):
    h = cohomology_hitting(FaceProcess(cfg.n, cfg.d, seed=seed), seed=seed)
    return {"m1": h.M1, "m2": h.M2, "coincide": h.M1 == h.M2}


def _t_hit_trial(cfg, p, seed):
    proc = FaceProcess(cfg.n, 2, seed=seed)
    pts = np.linspace(0, proc.total, cfg.grid_points)
    grid = sorted(set(int(round(x)) for x in pts))
    h = t_hitting(proc, grid)
    return {"m1": h.M1, "m2t": h.M2T, "found": h.M2T is not None}


def _certify_trial(cfg, p, seed):
    if cfg.import_path is not None:
        g = read_edge_list(cfg.import_path)
        if g.edge_count == 0:
            raise ValueError(f"{cfg.import_path}: certify needs a graph with at least one edge")
        d = 2.0 * g.edge_count / g.n
    else:
        g = erdos_renyi(GraphParams(cfg.n, p, seed))
        d = (cfg.n - 1) * p
    report = audit(g, d, cfg.M)
    measured = giant_gap(g).lambda_abs if g.edge_count else None
    bound = None if report.certified_bound is None else report.certified_bound + 1e-7
    # measured can only undershoot the true gap (Lanczos), so it refutes a
    # bound but confirms one only at or above 1, where spec(L) in [0, 2]
    # implies it; below 1 the inertia count decides
    sound = (
        bound is not None
        and measured is not None
        and measured <= bound
        and (bound >= 1.0 or gap_at_most(_giant(g), bound))
    )
    return {**asdict(report), "measured_gap": measured, "sound": sound}


_TRIALS = {
    "graph-gap": _graph_gap_trial,
    "below-threshold": _below_threshold_trial,
    "connectivity-gap": _connectivity_gap_trial,
    "link-audit": _link_audit_trial,
    "poisson-betti": _poisson_betti_trial,
    "cohomology-hit": _cohomology_hit_trial,
    "t-hit": _t_hit_trial,
    "certify": _certify_trial,
}


def run_trial(cfg: ExperimentConfig, trial: int) -> TrialRecord:
    """One trial, replayable from (master_seed, trial) alone."""
    validate(cfg)
    p = resolve_p(cfg)
    seed = derive_seed(cfg.master_seed, trial)
    t0 = time.perf_counter()
    values = _TRIALS[cfg.kind](cfg, p, seed)
    wall_ms = (time.perf_counter() - t0) * 1e3
    return TrialRecord(trial=trial, seed=seed, values=values, wall_ms=wall_ms)


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _summaries(columns, records):
    out = {}
    for col in columns:
        vals = [
            float(r.values[col]) for r in records
            if isinstance(r.values[col], (int, float, np.integer, np.floating))
            and not isinstance(r.values[col], (bool, np.bool_))
        ]
        if not vals:
            continue
        q1, med, q3 = np.percentile(vals, [25, 50, 75])
        out[col] = {"q1": float(q1), "median": float(med), "q3": float(q3)}
    return out


def _tail_check_records(cfg):
    records = []
    for i, cell in enumerate(soundness_grid()):
        records.append(TrialRecord(trial=i, seed=cfg.master_seed, values=cell, wall_ms=0.0))
    return records


def run(cfg: ExperimentConfig) -> RunResult:
    """Execute a config: records.csv plus manifest.json under cfg.out."""
    validate(cfg)
    if cfg.kind == "tail-check":
        records = _tail_check_records(cfg)
        ok = all(r.values["lower_ok"] and r.values["upper_ok"] for r in records)
        resolved_p = None
    else:
        resolved_p = resolve_p(cfg)
        if cfg.workers > 1:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                records = list(pool.map(lambda t: run_trial(cfg, t), range(cfg.trials)))
        else:
            records = [run_trial(cfg, t) for t in range(cfg.trials)]
        ok = True
        if cfg.kind == "certify":
            ok = all(r.values["sound"] for r in records)

    columns = list(records[0].values.keys())
    os.makedirs(cfg.out, exist_ok=True)
    csv_path = os.path.join(cfg.out, "records.csv")
    with open(csv_path, "w") as fh:
        fh.write(",".join(["trial", "seed"] + columns + ["wall_ms"]) + "\n")
        for r in records:
            cells = [str(r.trial), str(r.seed)]
            cells += [_fmt(r.values[c]) for c in columns]
            cells.append(format(r.wall_ms, ".3f"))
            fh.write(",".join(cells) + "\n")

    manifest = {
        "kind": cfg.kind,
        "config": asdict(cfg),
        "resolved": {
            "p": resolved_p,
            "expected_degree": (cfg.n - 1) * resolved_p if resolved_p is not None else None,
        },
        "version": __version__,
        "columns": ["trial", "seed"] + columns + ["wall_ms"],
        "rows": len(records),
        "ok": ok,
        "summaries": _summaries(columns, records),
    }
    manifest_path = os.path.join(cfg.out, "manifest.json")
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    return RunResult(
        config=cfg,
        columns=columns,
        records=records,
        csv_path=csv_path,
        manifest_path=manifest_path,
        manifest=manifest,
        ok=ok,
    )
