"""The demos byte-compile and import only names their spectop modules define,
README lists exactly the demos there are, and every demo but the slow one
runs to exit 0.

08_hitting_coincidence.py takes about 90 s, so only its imports are
checked here; run it by hand after changing what it calls.
"""
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SLOW_DEMOS = {"08_hitting_coincidence.py"}


def test_demos_exist():
    assert DEMOS


def test_readme_lists_every_demo():
    section = (ROOT / "README.md").read_text().split("## Demos", 1)[1]
    listed = re.findall(r"^python3 demos/(\S+\.py)$", section, flags=re.M)
    assert listed == [p.name for p in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_compiles_and_spectop_imports_resolve(path):
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    compile(tree, str(path), "exec")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "spectop":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "spectop":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert alias.name in vars(module), f"{node.module} defines no {alias.name}"


@pytest.mark.parametrize("path", [p for p in DEMOS if p.name not in SLOW_DEMOS], ids=lambda p: p.name)
def test_quick_demo_runs(path, tmp_path):
    # TMPDIR keeps what a demo writes under tmp_path, which pytest removes
    src = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": src, "TMPDIR": str(tmp_path)}
    res = subprocess.run([sys.executable, str(path)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
