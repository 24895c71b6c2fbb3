"""spectop benchmark: trial throughput of three CLI kinds, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from anywhere; the program is imported from ``src/`` next to this
directory.  One process is one workload run: a closed loop with one
client that calls ``spectop.harness.run`` with ``trials=1, workers=1`` for
trial after trial until ``--seconds`` of run() time are spent.  Trial i
uses master seed ``seed * SEED_STRIDE + i``; the program sees only the
config.  Every trial's records.csv row is checked (see checks.py).

``--trace 0`` prints the end-to-end metrics, with times scaled by the
host's measured speed (see "Host speed" below); ``--trace 1`` runs a fixed
number of trials twice, untraced and traced, and prints per-layer self
times, exact work counts and the tracing overhead (see README.md).
``--tiny`` runs each workload at a toy size, for smoke tests.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""
import os

# BLAS is pinned to one thread before numpy is first imported, here and in
# every child process (they inherit the environment).
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import check_invariants, compare_reference, read_row  # noqa: E402
from tracing import LAYERS, MissingTarget, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

SEED_STRIDE = 100_000
DEFAULT_SEED = 0
SETUP_REPEATS = 7
SUBPROCESS_TIMEOUT_S = 60


# Host speed.  On a host whose cores are shared with other tenants, speed
# drifts by tens of percent over minutes, and CPU time drifts with wall
# time.  So the timings of a --trace 0 run are also expressed in reference
# seconds: a short kernel of the workload's own character is timed
# KERNEL_REPS times after every timed interval, and all wall seconds of the
# run are divided by the run's slowdown, the mean kernel time over the
# kernel's nominal time.  Single kernel samples can be bimodal on such a
# host while one fixed trial repeated varies far less, so only the mean
# over the whole run is used.  The nominal times are typical kernel times on a 2-core
# x86 box at 2.1 GHz with one BLAS thread, so a reference second is about
# a wall second there.
KERNEL_REPS = 3
_KERNEL_SYM = np.random.default_rng(12345).standard_normal((320, 320))
_KERNEL_SYM = _KERNEL_SYM + _KERNEL_SYM.T
_KERNEL_IDX = np.arange(30)


def python_kernel():
    """Interpreter-bound: dict and int work plus tiny numpy calls, like a scan loop."""
    s, d = 0, {}
    for i in range(20000):
        s += (i * i) % 7
        d[i & 255] = s
    for _ in range(100):
        np.searchsorted(_KERNEL_IDX, 5)
        np.unique(_KERNEL_IDX % 7)


def blas_kernel():
    """BLAS-bound: one dense symmetric eigensolve, like a certify trial."""
    np.linalg.eigvalsh(_KERNEL_SYM)


KERNEL_NOMINAL_S = {python_kernel: 4.5e-3, blas_kernel: 6.4e-3}


class HostSpeed:
    """Kernel samples taken between the timed intervals of one run."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []
        self.sample()

    def sample(self):
        for _ in range(KERNEL_REPS):
            t0 = time.perf_counter()
            self.kernel()
            self.samples.append(time.perf_counter() - t0)

    def slowdown(self):
        """Mean kernel time over its nominal time; about 1.0 on the reference box."""
        return statistics.fmean(self.samples) / KERNEL_NOMINAL_S[self.kernel]


@dataclass(frozen=True)
class Workload:
    kind: str
    params: dict
    tiny: dict
    kernel: object  # the host-speed kernel of the trial's character
    nominal_trial_s: float  # sizes the traced run only; measured on a 2-core x86 box


# graph_certify: dense eigensolves; cohomology_hit: streamed mod-p rank;
# t_scan: thousands of links and tiny eigensolves.  README.md says why, and
# why t_scan uses grid 100: its trial time is then steady across seeds.
WORKLOADS = {
    "graph_certify": Workload(
        kind="certify",
        params={"n": 2000, "coeff": 1.5, "M": 10.0},
        tiny={"n": 60, "coeff": 1.5, "M": 10.0},
        kernel=blas_kernel,
        nominal_trial_s=2.2,
    ),
    "cohomology_hit": Workload(
        kind="cohomology-hit",
        params={"n": 40, "d": 2},
        tiny={"n": 10, "d": 2},
        kernel=python_kernel,
        nominal_trial_s=0.8,
    ),
    "t_scan": Workload(
        kind="t-hit",
        params={"n": 25, "grid_points": 100},
        tiny={"n": 10, "grid_points": 12},
        kernel=python_kernel,
        nominal_trial_s=1.4,
    ),
}

END_TO_END = {
    "trials_per_s": "trials/s",
    "trial_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# name -> unit.  "<layer>.self_s" sums the self times of a layer's spans;
# any other "<span>_s" is the self time of that one span, except that
# harness.io_s is the self time of the root span harness.run.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "spectral.eigensolve_s": "s",
    "spectral.eigensolve_calls": "count",
    "spectral.eigensolve_dim_max": "count",
    "spectral.eigensolve_flops_computed": "flop",
    "spectral.laplacian_s": "s",
    "spectral.laplacian_bytes_computed": "B",
    "spectral.seminorm_s": "s",
    "graphs.erdos_renyi_s": "s",
    "graphs.components_s": "s",
    "graphs.from_edges_s": "s",
    "graphs.from_edges_calls": "count",
    "graphs.induced_subgraph_s": "s",
    "complexes.link_s": "s",
    "complexes.link_calls": "count",
    "complexes.prefix_s": "s",
    "complexes.prefix_calls": "count",
    "complexes.process_draw_s": "s",
    "complexes.faces_drawn": "count",
    "complexes.faces_used": "count",
    "complexes.draw_useful_ratio": "ratio",
    "complexes.stats_s": "s",
    "homology.rank_s": "s",
    "homology.columns_fed": "count",
    "homology.columns_rank_grew": "count",
    "homology.rank_growth_ratio": "ratio",
    "criteria.t_structure_calls": "count",
    "criteria.link_lambda2_calls": "count",
    "harness.run_trial_s": "s",
    "harness.io_s": "s",
    "trace.trials": "count",
    "trace.trials_per_s_untraced": "trials/s",
    "trace.trials_per_s_traced": "trials/s",
    "trace.overhead_trials_per_s": "trials/s",
}

_SETUP_CODE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from spectop.harness import ExperimentConfig, run\n"
    "run(ExperimentConfig(**json.loads(sys.argv[2])))\n"
)


def load_harness():
    """Import spectop.harness from this checkout's src/, or exit non-zero."""
    if not (SRC / "spectop" / "harness.py").is_file():
        sys.exit(f"error: no spectop sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import spectop
    import spectop.harness as harness

    if SRC not in Path(spectop.__file__).resolve().parents:
        sys.exit(f"error: spectop imported from {spectop.__file__}, not from {SRC}")
    return harness


def config_kwargs(spec, params, master_seed, out):
    return dict(kind=spec.kind, trials=1, workers=1, master_seed=master_seed, out=str(out), **params)


@dataclass
class Trial:
    seconds: float
    errors: list


def one_trial(harness, spec, params, master_seed, ref_row=None, tracer=None):
    """Time one harness.run call from outside, then check the row it wrote."""
    out = OUT / f"run-{spec.kind}"
    cfg = harness.ExperimentConfig(**config_kwargs(spec, params, master_seed, out))
    t0 = time.perf_counter()
    try:
        if tracer is None:
            harness.run(cfg)
        else:
            with tracer.trial(master_seed):
                harness.run(cfg)
    except Exception as exc:  # a failed trial is counted, not fatal
        return Trial(time.perf_counter() - t0, [f"{type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - t0
    try:
        row = read_row(out / "records.csv")
    except (OSError, ValueError) as exc:
        return Trial(seconds, [f"records.csv unreadable: {exc}"])
    errors = check_invariants(spec.kind, params, row)
    if ref_row is not None:
        errors += compare_reference(row, ref_row)
    return Trial(seconds, [f"master_seed {master_seed}: {e}" for e in errors])


def load_reference(name, spec):
    """Stored seed-commit rows of the default seed, or None if absent."""
    with open(REFERENCE) as fh:
        ref = json.load(fh).get(name)
    if ref is None:
        return None
    if ref["params"] != spec.params or ref["seed"] != DEFAULT_SEED:
        sys.exit(f"error: {REFERENCE.name} entry for {name} was made for other params")
    return ref["rows"]


def _ref_row(reference, i):
    return reference[i] if reference is not None and i < len(reference) else None


def setup_seconds(spec, host):
    """Wall seconds of a fresh interpreter importing spectop.harness and running one tiny trial."""
    kwargs = json.dumps(config_kwargs(spec, spec.tiny, 0, OUT / f"setup-{spec.kind}"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), kwargs],
                   check=True, timeout=SUBPROCESS_TIMEOUT_S, stdout=subprocess.DEVNULL)
    seconds = time.perf_counter() - t0
    host.sample()
    return seconds


def closed_loop(harness, spec, params, seed, seconds, reference, host):
    """Trials back to back until their run() wall time reaches `seconds`."""
    trials = []
    spent = 0.0
    while spent < seconds:
        i = len(trials)
        trials.append(one_trial(harness, spec, params, seed * SEED_STRIDE + i, _ref_row(reference, i)))
        host.sample()
        spent += trials[-1].seconds
    return trials


def end_to_end(harness, spec, params, seed, seconds, reference):
    """End-to-end metrics in reference seconds, and the same timings in wall seconds."""
    setup_host = HostSpeed(python_kernel)  # imports are interpreter-bound
    setup_wall = [setup_seconds(spec, setup_host) for _ in range(SETUP_REPEATS)]
    one_trial(harness, spec, spec.tiny, 0)  # warm-up: first-call costs belong to setup_s
    host = HostSpeed(spec.kernel)
    trials = closed_loop(harness, spec, params, seed, seconds, reference, host)
    wall = [t.seconds for t in trials]
    slowdown = host.slowdown()
    ref = [s / slowdown for s in wall]
    ok = sum(1 for t in trials if not t.errors)
    metrics = {
        "trials_per_s": len(ref) / sum(ref),
        "trial_s_p50": statistics.median(ref),
        "setup_s": statistics.median(setup_wall) / setup_host.slowdown(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ok_frac": ok / len(trials),
    }
    wall_record = {
        "trials_per_s": len(wall) / sum(wall),
        "trial_s_p50": statistics.median(wall),
        "setup_s": statistics.median(setup_wall),
        "host_slowdown": slowdown,
        "setup_host_slowdown": setup_host.slowdown(),
        "trial_wall_s": wall,
        "setup_wall_s": setup_wall,
    }
    return metrics, trials, wall_record


def trace_trial_count(spec, seconds):
    """Fixed for (workload, seconds), so the work counts repeat exactly per seed."""
    return max(1, math.ceil(seconds / 2 / spec.nominal_trial_s))


def per_layer(harness, spec, params, seed, seconds, reference, trace_path):
    """Each trial untraced and traced, alternating which goes first."""
    one_trial(harness, spec, spec.tiny, 0)
    tracer = Tracer()
    plain, traced = [], []
    for i in range(trace_trial_count(spec, seconds)):
        ref_row = _ref_row(reference, i)
        seed_i = seed * SEED_STRIDE + i
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                with tracer.installed():
                    traced.append(one_trial(harness, spec, params, seed_i, ref_row, tracer))
            else:
                plain.append(one_trial(harness, spec, params, seed_i, ref_row))
    tracer.write(trace_path)

    self_s, root = tracer.self_times()
    layer_s = {layer: 0.0 for layer in LAYERS}
    for name, s in self_s.items():
        layer_s[name.split(".")[0]] += s
    counts = tracer.counts
    tps_plain = len(plain) / sum(t.seconds for t in plain)
    tps_traced = len(traced) / sum(t.seconds for t in traced)
    metrics = {
        **{f"{layer}.self_s": s for layer, s in layer_s.items()},
        **{f"{layer}.share": s / root for layer, s in layer_s.items()},
        "spectral.eigensolve_dim_max": tracer.dim_max,
        "harness.io_s": self_s.get("harness.run", 0.0),
        "complexes.draw_useful_ratio": _ratio(counts["complexes.faces_used"], counts["complexes.faces_drawn"]),
        "homology.rank_growth_ratio": _ratio(counts["homology.columns_rank_grew"], counts["homology.columns_fed"]),
        "trace.trials_per_s_untraced": tps_plain,
        "trace.trials_per_s_traced": tps_traced,
        "trace.overhead_trials_per_s": tps_plain - tps_traced,
    }
    for name in PER_LAYER:
        if name in metrics:
            continue
        if name.endswith("_s"):
            metrics[name] = self_s.get(name[:-2], 0.0)
        else:
            metrics[name] = counts[name]
    return metrics, plain + traced, {k: round(v, 6) for k, v in sorted(self_s.items())}


def _ratio(num, den):
    return num / den if den else 0.0


def loadavg():
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def git_revision():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT_S,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment():
    import numpy
    import scipy
    from spectop.homology import RankTracker

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": int(BLAS_THREADS),
        "rank_engine": type(RankTracker(4, seed=0)._core).__name__,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="toy sizes, no reference check")
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**40:
        ap.error("--seed must lie in [0, 2^40)")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    harness = load_harness()
    spec = WORKLOADS[args.workload]
    params = spec.tiny if args.tiny else spec.params
    reference = None
    if not args.tiny and args.seed == DEFAULT_SEED:
        reference = load_reference(args.workload, spec)
    OUT.mkdir(exist_ok=True)

    load_before = loadavg()
    env = environment()
    if args.trace:
        trace_path = OUT / f"trace-{args.workload}.jsonl"
        try:
            metrics, trials, span_self_s = per_layer(harness, spec, params, args.seed, args.seconds,
                                                     reference, trace_path)
        except MissingTarget as exc:
            sys.exit(f"error: {exc}")
        units = PER_LAYER
    else:
        metrics, trials, wall_record = end_to_end(harness, spec, params, args.seed, args.seconds,
                                                  reference)
        units = END_TO_END
    load_after = loadavg()
    env.update(loadavg_before=load_before, loadavg_after=load_after,
               contended=max(load_before[0], load_after[0]) > (env["nproc"] or 1),
               reference_checked=reference is not None)
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")

    failed = sum(1 for t in trials if t.errors)
    for t in trials:
        for e in t.errors:
            print(f"FAIL {e}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "params": params, "env": env}))
    if args.trace:
        print(json.dumps({"span_self_s": span_self_s, "trace_file": str(trace_path.relative_to(ROOT))}))
    else:
        print(json.dumps({"wall": wall_record}))
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(trials),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
