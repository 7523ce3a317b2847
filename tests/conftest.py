import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from weylsys import build_model, default_mollifier, power_difference_kernel
from weylsys.errors import AngleOutOfRange, QuadratureFailure


@pytest.fixture(scope="session")
def dirac_model():
    return build_model("dirac")


@pytest.fixture(scope="session")
def shifted_dirac_model():
    return build_model("shifted-dirac", {"beta": 0.3})


@pytest.fixture(scope="session")
def mass_dirac_model():
    return build_model("mass-dirac", {"b": 0.5})


@pytest.fixture(scope="session")
def twisted_model():
    return build_model("twisted", {"eps": 0.1})


@pytest.fixture(scope="session")
def mollifier_t3():
    return default_mollifier(3.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def random_phase_points(rng, count, lo=0.4, hi=2.5):
    """Random phase-space points with |xi| bounded away from zero."""
    pts = []
    for _ in range(count):
        x = rng.uniform(0.0, 2.0 * np.pi, size=2)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        radius = rng.uniform(lo, hi)
        xi = radius * np.array([np.cos(angle), np.sin(angle)])
        pts.append((x, xi))
    return pts


def cauchy_derivative(fn, z: complex, order: int, radius: float, n_nodes: int = 64):
    """order-th derivative of fn at z via the Cauchy integral on a circle."""
    if order == 0:
        return fn(z)
    ks = np.arange(n_nodes)
    ws = np.exp(2j * math.pi * ks / n_nodes)
    vals = np.array([fn(z + radius * w) for w in ws])
    coeff = np.mean(vals * np.exp(-2j * math.pi * order * ks / n_nodes))
    return math.factorial(order) * coeff / radius ** order


def radial_profile(phi: float, n: int, k: int, cutoff: float = 400.0) -> float:
    """Numeric radial integral for positive sheets (oracle for radial_factor).

    k = 1 integrates the order-n kernel against mu^(n-1); k = 2 the
    order-(n-1) kernel against mu^(n-2).  Both must equal -2 (pi - phi)
    independently of n.  Adaptive quadrature on [0, R] plus an inverted
    substitution on the tail; raises :class:`QuadratureFailure` when the
    error estimates are too large.
    """
    if not 0.0 < phi < math.pi:
        raise AngleOutOfRange(f"phi must lie in (0, pi), got {phi}")
    if k not in (1, 2):
        raise ValueError("k must be 1 or 2")
    z = cmath.exp(1j * phi)
    order = n if k == 1 else n - 1
    power = n - 1 if k == 1 else n - 2

    def integrand(mu: float) -> float:
        return power_difference_kernel(mu, z, order).imag * mu ** power

    val, err = quad(integrand, 0.0, cutoff, limit=600, epsabs=1e-12, epsrel=1e-11,
                    points=[1.0, 2.0])
    # Tail via mu = cutoff / u; integrand decays like mu^(power - order - 2).
    def tail_integrand(u: float) -> float:
        mu = cutoff / u
        return integrand(mu) * mu / u

    tval, terr = quad(tail_integrand, 0.0, 1.0, limit=200, epsabs=1e-12, epsrel=1e-10)
    if err + terr > 1e-7:
        raise QuadratureFailure(
            f"radial integral error estimate {err + terr:.2e} too large"
        )
    # The kernel is purely imaginary, so i * int(kernel) = -int(Im kernel).
    return -(val + tval)
