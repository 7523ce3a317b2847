"""Two-term local spectral asymptotics for first-order elliptic systems.

Three independent pipelines at desk scale:

* ``coefficients`` -- the direct phase-space formulas for the first and
  second local coefficient densities,
* ``resolvent`` -- recovery of the same quantities from the traced
  resolvent symbol through angle-resolved expansion coefficients,
* ``torus`` -- ground truth: dense spectra of the concrete systems of
  ``models`` on the flat two-torus, smoothed counting functions, and
  asymptotic fits.

``symbols`` holds the shared eigen-jet and bracket machinery, ``kernels``
the closed-form moment integrals behind the recovery route, ``models`` the
torus models and their catalog, and ``cli`` the command line front end.
An exported name loads its home module on first use.
"""

import importlib
import os

# OpenBLAS reads this once, when numpy loads it, so it must be set before the
# first import of numpy.  Its idle worker threads busy-wait 2^timeout clock
# cycles before they sleep: at OpenBLAS's default of 28 that is about 0.1 s of
# a core at start-up and after every threaded BLAS call, 0.04-0.08 s of CPU
# per CLI process on 2 threads, and it stalls other threads now and then
# (twisted, K = 40, 15 fresh processes: the counting took up to 0.47 s at 28,
# up to 0.17 s at 20).  At 20 the workers spin under a millisecond, which
# still keeps them warm across back-to-back LAPACK calls.  No thread count
# and no result bit depends on it; a value set in the environment wins.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

# each export's home module, imported when the name is first read (PEP 562)
_HOMES = {name: module for module, names in {
    "coefficients": ("CosphereQuadrature", "SecondWeylResult", "WeylCoefficients",
                     "first_weyl", "second_weyl", "weyl_coefficients"),
    "errors": ("WeylError",),
    "kernels": ("expansion_b_coefficients", "kernel_moment_closed",
                "kernel_moment_numeric", "power_difference_kernel"),
    "models": ("TorusModel", "build_model", "catalog_names"),
    "resolvent": ("b_profile", "power_trace_symbol", "radial_factor",
                  "recover_second_weyl", "resolvent_symbol"),
    "symbols": ("EigenJet", "MatrixJet", "PhasePoint", "SymbolField", "eigen_jet",
                "generalized_bracket"),
    "torus": ("CountingSamples", "Mollifier", "SpectrumResult", "assemble_and_solve",
              "build_mollifier", "fit_weyl", "local_counting_mollified"),
}.items() for name in names}
__all__ = sorted(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"
