"""Regenerate reference.json: the default seed's outputs at the current commit.

    python3 perfbench/make_reference.py

Run it only on a commit whose outputs are trusted; later commits are then
checked against them by run.py.  Each workload stores the first
REFERENCE_TRIALS[name] trials, about 1.5 times what a 35 s run
reaches here; later trials of a run are checked by invariants only.
"""
import json
import sys

import run
from checks import outputs, read_row

REFERENCE_TRIALS = {"graph_certify": 24, "cohomology_hit": 64, "t_scan": 40}


def main():
    harness = run.load_harness()
    run.OUT.mkdir(exist_ok=True)
    ref = {}
    for name, spec in run.WORKLOADS.items():
        rows = []
        for i in range(REFERENCE_TRIALS[name]):
            master_seed = run.DEFAULT_SEED * run.SEED_STRIDE + i
            trial = run.one_trial(harness, spec, spec.params, master_seed)
            if trial.errors:
                sys.exit(f"{name} trial {i} fails its invariants: {trial.errors}")
            rows.append(outputs(read_row(run.OUT / f"run-{spec.kind}" / "records.csv")))
        ref[name] = {"params": spec.params, "seed": run.DEFAULT_SEED, "rows": rows}
        print(f"{name}: {len(rows)} rows", file=sys.stderr)
    with open(run.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
