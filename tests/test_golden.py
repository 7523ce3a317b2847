"""Golden outputs: the command set's CSVs and stdouts, byte for byte.

``tests/golden/<case>/`` holds what each command of ``CASES`` writes, its
CSVs and its console lines (``stdout.txt``), and ``tests/golden/STACK``
the Python, numpy and OpenBLAS (version and kernel core) that made them.
On that stack the test reruns the set through ``cli.main`` and compares
bytes; on another one it skips and names both stacks, since BLAS kernels
round differently per CPU and no byte is promised there.  Rewrite the
files after a change that moves bytes, and state the move, with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import ctypes
import io
import itertools
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from weylsys.cli import main
from weylsys.torus import _openblas_libraries

GOLDEN = Path(__file__).with_name("golden")

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
    recorded = (GOLDEN / "STACK").read_text()
    if stack() != recorded:
        pytest.skip(f"goldens made on\n{recorded}this stack is\n{stack()}")
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
    (GOLDEN / "STACK").write_text(stack())
    print(f"wrote {sum(1 for _ in GOLDEN.rglob('*.*'))} files under {GOLDEN}")
