"""
Driving experiments from the command line
=========================================

Every experiment kind is exposed through the `spectop` entry point.  A run
writes records.csv (one row per trial) and manifest.json (config echo,
resolved parameters, version, quartile summaries) into --out.  Replaying a
config reproduces every column except wall_ms bit for bit.

This script shells out to the CLI the way a batch user would.
"""
import json
import subprocess
import sys
import tempfile
from pathlib import Path

with tempfile.TemporaryDirectory(prefix="spectop-demo-") as tmp:
    out = Path(tmp)
    cmds = [
        ["graph-gap", "--n", "300", "--coeff", "1.2", "--trials", "5",
         "--seed", "1", "--out", str(out / "gap")],
        ["connectivity-gap", "--n", "200", "--trials", "5",
         "--seed", "2", "--out", str(out / "tau")],
        ["poisson-betti", "--n", "40", "--d", "2", "--c", "0", "--trials", "8",
         "--seed", "3", "--out", str(out / "window")],
        ["tail-check", "--out", str(out / "tails")],
    ]

    failed = []
    for cmd in cmds:
        full = [sys.executable, "-m", "spectop.cli"] + cmd
        print("$ spectop " + " ".join(cmd))
        res = subprocess.run(full, capture_output=True, text=True)
        print(res.stdout.strip())
        if res.returncode != 0:
            failed.append(cmd[0])
            print(f"exit code {res.returncode}: {res.stderr.strip()}")
        print()
    if failed:
        sys.exit("failed: " + ", ".join(failed))

    manifest = json.loads((out / "gap" / "manifest.json").read_text())
    print("graph-gap manifest summaries:")
    for col, stats in manifest["summaries"].items():
        print(f"  {col}: median {stats['median']:.4f}  "
              f"IQR [{stats['q1']:.4f}, {stats['q3']:.4f}]")

    print()
    print("records.csv head:")
    for line in (out / "gap" / "records.csv").read_text().splitlines()[:3]:
        print("  " + line)
