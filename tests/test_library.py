"""The public library surface that the README and the demos rely on."""

import ast
import re
from pathlib import Path

import pytest

import sbmlab

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [ROOT / "demos" / f"{name}.py" for name in (
    "algebraic_identities", "corner_convergence", "disk_embedded")]


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("ErrorReport(")
    assert "err_l2=" in out and "dofs=" in out


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "sbmlab"
             for alias in node.names]
    assert names
    missing = [name for name in names if not hasattr(sbmlab, name)]
    assert not missing
