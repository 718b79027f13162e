"""Static checks of the package source."""

import ast
import re
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "robustmean"


def imported_names(tree):
    """The names bound by the module's imports, ``__future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def referenced_names(tree):
    """Every name the module reads, plus the strings in its ``__all__``."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    assert imported_names(tree) - referenced_names(tree) == set()


def test_ci_runs_the_tier1_command():
    # The workflow's test step is the Tier-1 command that ROADMAP.md gives.
    yaml = pytest.importorskip("yaml")
    root = SOURCE.parents[1]
    workflow = yaml.safe_load((root / ".github/workflows/tier1.yml").read_text())
    job = workflow["jobs"]["tests"]
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]*)`",
                        (root / "ROADMAP.md").read_text()).group(1)
    assert job["steps"][-1]["run"] == command
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
