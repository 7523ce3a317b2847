"""Two-term local spectral asymptotics for first-order elliptic systems.

Three independent pipelines at desk scale:

* ``coefficients`` -- the direct phase-space formulas for the first and
  second local coefficient densities,
* ``resolvent`` -- recovery of the same quantities from the traced
  resolvent symbol through angle-resolved expansion coefficients,
* ``torus`` -- ground truth: dense spectra of concrete systems on the flat
  two-torus, smoothed counting functions, and asymptotic fits.

``symbols`` holds the shared eigen-jet and bracket machinery, ``kernels``
the closed-form moment integrals behind the recovery route, and ``cli``
the command line front end.
"""

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

from .coefficients import (
    CosphereQuadrature,
    SecondWeylResult,
    WeylCoefficients,
    first_weyl,
    second_weyl,
    weyl_coefficients,
)
from .errors import WeylError
from .kernels import (
    expansion_b_coefficients,
    kernel_moment_closed,
    kernel_moment_numeric,
    power_difference_kernel,
)
from .resolvent import (
    b_profile,
    power_trace_symbol,
    radial_factor,
    recover_second_weyl,
    resolvent_symbol,
)
from .symbols import (
    EigenJet,
    MatrixJet,
    PhasePoint,
    SymbolField,
    eigen_jet,
    generalized_bracket,
)
from .torus import (
    CountingSamples,
    Mollifier,
    SpectrumResult,
    TorusModel,
    assemble_and_solve,
    build_model,
    build_mollifier,
    catalog_names,
    fit_weyl,
    local_counting_mollified,
)

__version__ = "0.1.0"

__all__ = [
    "CosphereQuadrature",
    "CountingSamples",
    "EigenJet",
    "MatrixJet",
    "Mollifier",
    "PhasePoint",
    "SecondWeylResult",
    "SpectrumResult",
    "SymbolField",
    "TorusModel",
    "WeylCoefficients",
    "WeylError",
    "assemble_and_solve",
    "b_profile",
    "build_model",
    "build_mollifier",
    "catalog_names",
    "eigen_jet",
    "expansion_b_coefficients",
    "first_weyl",
    "fit_weyl",
    "generalized_bracket",
    "kernel_moment_closed",
    "kernel_moment_numeric",
    "local_counting_mollified",
    "power_difference_kernel",
    "power_trace_symbol",
    "radial_factor",
    "recover_second_weyl",
    "resolvent_symbol",
    "second_weyl",
    "weyl_coefficients",
]
