"""The demos byte-compile and import only names their spectop modules define,
and README lists exactly the demos there are.

The test suite does not run the demos, so without this check a removed or
renamed public name would break them silently.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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
