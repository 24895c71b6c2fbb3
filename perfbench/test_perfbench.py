"""Tests of the benchmark itself: output contract and its correctness check."""
import importlib.util
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

_spec = importlib.util.spec_from_file_location("perfbench_checks", HERE / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


def _bench(root, *args):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=root,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = _bench(ROOT, "--workload", workload, "--seed", "1", "--seconds", "0.5",
                  "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        # the tracing overhead is a difference of two timings and may be negative
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name


def _copy_checkout(dst, with_src=True):
    shutil.copy(ROOT / "BENCHMARK.json", dst / "BENCHMARK.json")
    shutil.copytree(HERE, dst / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dst / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_corrupted_reference_is_reported(tmp_path):
    _copy_checkout(tmp_path)
    ref_path = tmp_path / "perfbench" / "reference.json"
    ref = json.loads(ref_path.read_text())
    ref["cohomology_hit"]["rows"][0]["m2"] += 1
    ref_path.write_text(json.dumps(ref))
    done = _bench(tmp_path, "--workload", "cohomology_hit", "--seed", "0", "--seconds", "0.01",
                  "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1 and result["attempted"] == 1
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert "m2=" in done.stderr and "reference" in done.stderr


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    _copy_checkout(tmp_path, with_src=False)
    done = _bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_missing_traced_name_fails_the_traced_run(tmp_path):
    _copy_checkout(tmp_path)
    criteria = tmp_path / "src" / "spectop" / "criteria.py"
    criteria.write_text(criteria.read_text().replace("t_structure(", "t_structure_v2("))
    done = _bench(tmp_path, "--workload", "t_scan", "--seed", "1", "--seconds", "0.01", "--trace", "1",
                  "--tiny")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert "spectop.criteria.t_structure" in done.stderr


def test_float_tolerance_is_relative_1e9():
    ref = {"measured_gap": 0.5690855192653648, "fuzz_size": 2}
    close = {"measured_gap": 0.5690855192653603, "fuzz_size": 2, "wall_ms": 1.0}
    assert checks.compare_reference(close, ref) == []
    far = dict(close, measured_gap=ref["measured_gap"] * (1 + 1e-8))
    assert any("measured_gap" in e for e in checks.compare_reference(far, ref))
    off_by_one = dict(close, fuzz_size=3)
    assert any("fuzz_size" in e for e in checks.compare_reference(off_by_one, ref))


def test_invariants_catch_inconsistent_rows():
    row = {"m1": 500, "m2t": None, "found": 1, "wall_ms": 3.0}
    assert any("found" in e for e in checks.check_invariants("t-hit", {"n": 25}, row))
    row = {"m1": 1500, "m2": 1400, "coincide": 0, "wall_ms": 3.0}
    assert checks.check_invariants("cohomology-hit", {"n": 40, "d": 2}, row)
    row = {"n": 60, "sound": 0, "fuzz_size": 0, "measured_gap": 0.5, "certified_bound": 0.4, "wall_ms": 1.0}
    errors = checks.check_invariants("certify", {"n": 60}, row)
    assert any("sound" in e for e in errors) and any("certified_bound" in e for e in errors)
