"""Regenerate the golden records that tests/test_golden.py replays.

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/make_golden.py

Each config in CONFIGS runs through harness.run and its records.csv is
stored as tests/golden/<kind>/records.csv.  Run this only on a commit whose
outputs are trusted, and list every regeneration in CHANGES.md with the rows
it changed and why.
"""
import os
import shutil
import sys
import tempfile

from spectop.harness import ExperimentConfig, run

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))

# the first three are tests/test_harness.py's SMALL_CONFIGS at master seed 5
CONFIGS = {
    "graph-gap": dict(n=60, coeff=1.5, trials=3, master_seed=5),
    "below-threshold": dict(n=60, coeff=0.5, trials=3, master_seed=5),
    "connectivity-gap": dict(n=40, trials=3, master_seed=5),
    "certify": dict(n=2000, coeff=1.5, trials=3),
    "link-audit": dict(n=40, d=2, coeff=1.5, trials=3),
    "t-hit": dict(n=25, grid_points=100, trials=2),
    "poisson-betti": dict(n=40, d=2, c=0.0, trials=20),
    "cohomology-hit": dict(n=40, d=2, trials=40),
    "tail-check": dict(),
}


def config(kind: str, out: str) -> ExperimentConfig:
    return ExperimentConfig(kind=kind, out=out, **CONFIGS[kind])


def golden_path(kind: str) -> str:
    return os.path.join(GOLDEN_DIR, kind, "records.csv")


def main() -> int:
    for kind in CONFIGS:
        with tempfile.TemporaryDirectory() as tmp:
            result = run(config(kind, tmp))
            os.makedirs(os.path.dirname(golden_path(kind)), exist_ok=True)
            shutil.copyfile(result.csv_path, golden_path(kind))
        print(f"{golden_path(kind)}: {len(result.records)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
