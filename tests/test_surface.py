"""Public surface: exported names, the names the demos import, and the
names the traced benchmark wraps all exist."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import weylsys

ROOT = Path(__file__).resolve().parents[1]


def test_exported_and_demo_names_exist():
    missing = [name for name in weylsys.__all__ if not hasattr(weylsys, name)]
    for demo in sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
                "weylsys"
            ):
                module = importlib.import_module(node.module)
                missing += [
                    f"{demo.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if not hasattr(module, alias.name)
                ]
    assert missing == []


def test_benchmark_span_wrappers_install():
    env = dict(os.environ)
    paths = [str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH")]
    env["PYTHONPATH"] = os.pathsep.join(filter(None, paths))
    proc = subprocess.run(
        [sys.executable, "-c", "import inproc; inproc.install(inproc.Recorder())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
