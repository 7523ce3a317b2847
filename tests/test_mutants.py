"""Mutant gate: ``verify`` must fail on a wrong formula.

Each mutant replaces one string, which must occur exactly once, in a copy
of ``src/weylsys``, and ``python -m weylsys.cli verify --model twisted`` on
the copy must exit 3 (tolerance failure).  A target that moves or repeats
fails the gate loudly instead of letting it pass quietly.

The expected failures change the second coefficient on both sides of
``verify``'s comparison: its b profile multiplies the same panel integrals
as the direct route, and no pipeline calls ``resolvent_symbol``.  They are
strict, so each turns into a failure as soon as an independent recovery
route (ROADMAP item 1) kills it, and then moves to the plain list.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "weylsys"

SURVIVES = pytest.mark.xfail(
    strict=True,
    reason="verify reads both sides off one panel (ROADMAP item 1)",
)

MUTANTS = [
    pytest.param("coefficients.py", "term_sub = -pref * int_sub",
                 "term_sub = pref * int_sub", id="term_sub-prefactor-sign"),
    pytest.param("resolvent.py", "2.0 * math.pi * (p2 - p1)",
                 "math.pi * (p2 - p1)", id="two-angle-constant"),
    pytest.param("resolvent.py", "total += 1j * (n * d.volume) * moment",
                 "total += 1j * (n * d.volume) * 2.0 * moment", id="b1-moment-doubled"),
    pytest.param("coefficients.py", "sub = (np.einsum(", "sub = -(np.einsum(",
                 id="subprincipal-sign", marks=SURVIVES),
    pytest.param("coefficients.py", 'bracket = np.einsum("nkj,nkj->nk"',
                 'bracket = -np.einsum("nkj,nkj->nk"', id="bracket-sign", marks=SURVIVES),
    pytest.param("coefficients.py", "int_curv = self.region_integral(",
                 "int_curv = 2.0 * self.region_integral(", id="curvature-doubled",
                 marks=SURVIVES),
    pytest.param("resolvent.py", "middle = 0.5j * np.sum(", "middle = -0.5j * np.sum(",
                 id="resolvent-symbol-bracket-sign", marks=SURVIVES),
]


@pytest.mark.parametrize("module, target, replacement", MUTANTS)
def test_verify_kills_mutant(tmp_path, module, target, replacement):
    package = tmp_path / "src" / "weylsys"
    shutil.copytree(SRC, package, ignore=shutil.ignore_patterns("__pycache__"))
    path = package / module
    source = path.read_text(encoding="utf-8")
    assert source.count(target) == 1, f"mutant target not unique in {module}: {target!r}"
    path.write_text(source.replace(target, replacement), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(package.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "weylsys.cli", "verify", "--model", "twisted",
         "--out", str(tmp_path / "out")],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 3, proc.stdout + proc.stderr
