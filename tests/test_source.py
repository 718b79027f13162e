"""Static checks of the package source."""

import ast
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "robustmean"
# The package, the tests and the demos: no two of their files share a name.
MODULES = sorted([*SOURCE.glob("*.py"), *ROOT.glob("tests/*.py"),
                  *ROOT.glob("demos/*.py")])


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


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    assert imported_names(tree) - referenced_names(tree) == set()


def test_ci_runs_the_tier1_command():
    # The workflow's test step is the Tier-1 command that ROADMAP.md gives.
    # The job's lines are read with the stdlib, since the job installs no
    # YAML parser: its last "run:" is the last step's plain one-line command.
    workflow = (ROOT / ".github/workflows/tier1.yml").read_text()
    job = re.search(r"^  tests:\n((?:(?:    .*)?\n)*)", workflow, re.M).group(1)
    command = re.search(r"\*\*Tier-1 verify:\*\* `([^`]*)`",
                        (ROOT / "ROADMAP.md").read_text()).group(1)
    assert re.findall(r"^ +(?:- )?run: (.*)$", job, re.M)[-1] == command
    versions = re.search(r"^ +python-version: (\[.*\])$", job, re.M).group(1)
    assert json.loads(versions) == ["3.10", "3.11"]


def test_every_ci_job_has_a_timeout():
    # A hung step fails its job instead of holding the runner for GitHub's
    # 6-hour default.
    workflow = (ROOT / ".github/workflows/tier1.yml").read_text()
    jobs = workflow.split("\njobs:\n", 1)[1]
    bodies = re.findall(r"^  (\S+):\n((?:(?:    .*)?\n)*)", jobs, re.M)
    assert bodies
    for name, body in bodies:
        assert re.search(r"^    timeout-minutes: \d+$", body, re.M), name
