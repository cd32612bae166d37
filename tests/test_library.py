"""The public library surface that the README and the demos rely on."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sbmlab

ROOT = Path(__file__).resolve().parents[1]
DEMOS = [ROOT / "demos" / f"{name}.py" for name in (
    "algebraic_identities", "corner_convergence", "disk_embedded")]


@pytest.mark.parametrize("doc", ["README.md", "PAPER.md"])
def test_readme_library_example_runs(doc, capsys):
    text = (ROOT / doc).read_text()
    section = text.split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, doc, "exec"), {})
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


@pytest.mark.parametrize("name", ["disk_embedded", "algebraic_identities",
                                  "corner_convergence"])
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # three of the corner study's five levels keep the run near one second
    args = ["3"] if name == "corner_convergence" else []
    done = subprocess.run([sys.executable, str(ROOT / "demos" / f"{name}.py"),
                           *args],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout
