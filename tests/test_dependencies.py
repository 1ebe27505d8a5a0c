"""Every third-party package ``src/repro`` imports is an install
requirement.

The scan walks every module with ``ast`` (lazy imports inside functions
included) and compares each top-level package outside the standard
library against ``[project].dependencies`` in ``pyproject.toml``, so an
undeclared import fails here rather than at a user's first run.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def declared_dependencies():
    """Distribution names in ``[project].dependencies``."""
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ImportError:  # Python < 3.11: read the one list literal
        match = re.search(r"^dependencies\s*=\s*(\[[^\]]*\])", text, re.MULTILINE)
        requirements = ast.literal_eval(match.group(1))
    else:
        requirements = tomllib.loads(text)["project"]["dependencies"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
        for req in requirements
    }


def third_party_imports():
    """Top-level package -> modules importing it, for every import in
    ``src/repro`` that is neither ``repro`` nor the standard library."""
    found = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(path.relative_to(ROOT).as_posix())
    return found


@pytest.mark.skipif(
    not hasattr(sys, "stdlib_module_names"), reason="needs Python >= 3.10"
)
def test_every_third_party_import_is_declared():
    imports = third_party_imports()
    assert "numpy" in imports  # the scan sees the package's imports
    undeclared = {
        package: sorted(modules)
        for package, modules in imports.items()
        if package.lower() not in declared_dependencies()
    }
    assert undeclared == {}
