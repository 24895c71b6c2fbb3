"""Every name a spectop module imports is used in that module.

No linter runs on this code, so a deletion that leaves an import behind
would otherwise go unnoticed.  An import marked ``# noqa: F401`` (on its
own line or on its statement's first line) is kept on purpose and exempt;
a name listed in ``__all__`` counts as used.
"""
import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "spectop").glob("*.py"))


def unused_imports(source: str):
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # as flake8 reads it: on the name's line or the statement's first
                if "# noqa: F401" in lines[alias.lineno - 1] + lines[node.lineno - 1]:
                    continue
                # `import a.b` binds a
                imported.append((alias.lineno, alias.asname or alias.name.split(".")[0]))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_modules_exist():
    assert MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = (
        "from itertools import combinations\n"
        "from typing import Iterator, Optional\n"
        "import numpy.linalg\n"
        "from .graphs import link  # noqa: F401\n"
        "from .spectral import (  # noqa: F401\n"
        "    gap,\n"
        ")\n"
        "x: Optional[int] = numpy.linalg.norm([1])\n"
    )
    assert unused_imports(source) == [(1, "combinations"), (2, "Iterator")]
