"""Golden outputs: the command set's CSVs and stdouts, byte for byte.

``tests/golden/<case>/`` holds what each command of ``CASES`` writes, its
CSVs and its console lines (``stdout.txt``), ``tests/golden/demos/`` what
each demo prints, and ``tests/golden/STACK`` the Python, numpy and
OpenBLAS (version and kernel core) that made them.  On that stack the test
reruns the set through ``cli.main`` and compares bytes, and
``test_surface.py::test_demo_runs`` compares each demo's stdout; on another
stack both skip and name the two stacks, since BLAS kernels round
differently per CPU and no byte is promised there.  Rewrite the files
after a change that moves bytes, and state the move, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import ctypes
import io
import itertools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from weylsys.cli import main
from weylsys.torus import _openblas_libraries

GOLDEN = Path(__file__).with_name("golden")
ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))

# each case's arguments; no case has a lone Galerkin block, whose bits
# follow the BLAS thread count
CASES = {
    **{f"all-{name}": ["compute", "--model", name, "--pipeline", "all", "-k", "16"]
       for name in ("dirac", "shifted-dirac", "mass-dirac", "twisted")},
    "spectral-twisted-k40": ["compute", "--model", "twisted", "--pipeline", "spectral",
                             "-k", "40"],
    "verify-twisted": ["verify", "--model", "twisted"],
    "gn-check": ["gn-check"],
}


def stack() -> str:
    """Python, numpy and the loaded OpenBLAS's configuration, core included."""
    blas = "no OpenBLAS found"
    for lib in _openblas_libraries():
        for name in ("scipy_openblas_get_config64_", "openblas_get_config"):
            if hasattr(lib, name):
                config = getattr(lib, name)
                config.argtypes, config.restype = [], ctypes.c_char_p
                blas = config().decode().strip()
    return (f"python {sys.version.split()[0]}\nnumpy {np.__version__}\n"
            f"openblas {' '.join(blas.split())}\n")


def require_recorded_stack() -> None:
    """Skip, naming both stacks, unless this is the stack of the goldens."""
    recorded = (GOLDEN / "STACK").read_text()
    if stack() != recorded:
        pytest.skip(f"goldens made on\n{recorded}this stack is\n{stack()}")


def run_demo(demo: str) -> subprocess.CompletedProcess:
    """Run ``demos/<demo>`` in a fresh interpreter under the suite's
    warning rule, its output captured as text."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    env["PYTHONWARNINGS"] = "error"  # the suite's own warning rule
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


def demo_golden(demo: str) -> Path:
    """The recorded stdout of ``demos/<demo>``."""
    return GOLDEN / "demos" / f"{Path(demo).stem}.txt"


def run_case(name: str, out: Path) -> None:
    """Run one case into ``out``, its console lines as ``stdout.txt``."""
    out.mkdir(parents=True)
    console = io.StringIO()
    with contextlib.redirect_stdout(console):
        code = main([*CASES[name], "--out", str(out)])
    assert code == 0, f"{name} exited {code}"
    (out / "stdout.txt").write_text(console.getvalue())


def first_difference(got: bytes, want: bytes) -> str:
    """The first line at which two unequal outputs differ, both sides shown."""
    pairs = itertools.zip_longest(got.decode().split("\n"), want.decode().split("\n"))
    number, (mine, theirs) = next((n, pair) for n, pair in enumerate(pairs, 1)
                                  if pair[0] != pair[1])
    return f"line {number}:\n  got  {mine!r}\n  want {theirs!r}"


def test_golden_outputs(tmp_path):
    require_recorded_stack()
    for name in CASES:
        run_case(name, tmp_path / name)
        wanted = sorted(path.name for path in (GOLDEN / name).iterdir())
        assert sorted(path.name for path in (tmp_path / name).iterdir()) == wanted, name
        for file in wanted:
            got = (tmp_path / name / file).read_bytes()
            want = (GOLDEN / name / file).read_bytes()
            assert got == want, f"{name}/{file} differs at {first_difference(got, want)}"


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    for case in CASES:
        run_case(case, GOLDEN / case)
    (GOLDEN / "demos").mkdir()
    for demo in DEMOS:
        proc = run_demo(demo)
        assert proc.returncode == 0, proc.stderr
        demo_golden(demo).write_text(proc.stdout)
    (GOLDEN / "STACK").write_text(stack())
    print(f"wrote {sum(1 for _ in GOLDEN.rglob('*.*'))} files under {GOLDEN}")
