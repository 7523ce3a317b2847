import cmath
import copy
import math

import numpy as np
import pytest
from scipy.integrate import quad

from weylsys import (
    MatrixJet,
    PhasePoint,
    SymbolField,
    build_model,
    default_mollifier,
    eigen_jet,
    generalized_bracket,
    power_difference_kernel,
)
from weylsys.errors import AngleOutOfRange, QuadratureFailure
from weylsys.symbols import require_hermitian


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


# ---------------------------------------------------------------------------
# Hand-built fields on the stacked contract
# ---------------------------------------------------------------------------

def pointwise_field(dim, degree, fn, derivatives=None):
    """A :class:`SymbolField` from a one-point map (x, xi) -> (m, m).

    The stacked evaluator applies ``fn`` to every row of xi.  The optional
    ``derivatives(x, xi) -> (dx, dxi)``, each (n, m, m), becomes the
    field's analytic jet the same way.
    """
    def evaluator(x, xi):
        return np.array([fn(x, row) for row in xi], dtype=complex)

    jet = None
    if derivatives is not None:
        def jet(x, xi):
            parts = [derivatives(x, row) for row in xi]
            return (evaluator(x, xi), np.array([d[0] for d in parts]),
                    np.array([d[1] for d in parts]))

    return SymbolField(dim, degree, evaluator, jet)


def check_field_contract(field, points, scales=(0.5, 2.0, 3.7), tol=1e-9):
    """Verify Hermiticity and positive homogeneity on sample points.

    Raises :class:`NotHermitian` or ValueError on violation.  A test helper
    for hand-built fields; model registration runs its own stacked check
    (``registration_check`` in :mod:`weylsys.torus`).
    """
    for p in points:
        value = field(p)
        require_hermitian(value)
        for t in scales:
            scaled = field(PhasePoint(p.x, t * p.xi))
            expected = (t ** field.degree) * value
            err = np.max(np.abs(scaled - expected))
            if err > tol * max(1.0, np.max(np.abs(expected))):
                raise ValueError(
                    f"homogeneity defect {err:.3e} at scale {t} "
                    f"(degree {field.degree})"
                )


# ---------------------------------------------------------------------------
# Eigenvector-form oracle: the form of the second-coefficient integrands
# that the gauge-free projection form replaces
# ---------------------------------------------------------------------------

def conjugate_transpose(jet):
    swap = (0, 2, 1)
    return MatrixJet(
        jet.value.conj().T,
        jet.dx.conj().transpose(swap),
        jet.dxi.conj().transpose(swap),
    )


def vector_jet(jet, pos):
    """Column-vector jet of eigenvector ``pos`` (shape (m, 1))."""
    return MatrixJet(
        jet.v[pos][:, None],
        jet.dv_x[:, pos][:, :, None],
        jet.dv_xi[:, pos][:, :, None],
    )


def vector_curvature_scalar(jet, pos):
    """{v^*, v} for one sheet (purely imaginary); equals -tr {P, P, P}."""
    vj = vector_jet(jet, pos)
    acc = 0.0 + 0.0j
    for alpha in range(jet.point.n):
        acc += (vj.dx[alpha].conj().T @ vj.dxi[alpha])[0, 0]
        acc -= (vj.dxi[alpha].conj().T @ vj.dx[alpha])[0, 0]
    return complex(acc)


def vector_sheet_terms(leading, nextorder, p):
    """Per sheet at one point: (v^* A_next v, {v^*, A_lead - h, v}, {v^*, v})."""
    jet = eigen_jet(leading, p)
    a_next = nextorder(p) if nextorder is not None else np.zeros(
        (leading.dim, leading.dim), dtype=complex
    )
    lead_val = leading(p)
    ident = np.eye(leading.dim)
    out = []
    for pos in range(jet.m):
        vj = vector_jet(jet, pos)
        vjh = conjugate_transpose(vj)
        middle = lead_val - jet.h[pos] * ident
        v = jet.v[pos]
        out.append((
            complex(np.conj(v) @ a_next @ v),
            complex(generalized_bracket(vjh, middle, vj)[0, 0]),
            vector_curvature_scalar(jet, pos),
        ))
    return out


def vector_integrands(panel):
    """Eigenvector-form (sub, bracket, curvature) integrands, each (N, m)."""
    v, dv_x, dv_xi = panel.jets.v, panel.jets.dv_x, panel.jets.dv_xi
    sub = np.einsum("nki,nij,nkj->nk", v.conj(), panel.a_next, v)
    # {v^*, A - h, v} and -{v^*, v} (the latter equals tr {P, P, P})
    path = "naki,nkij,nakj->nk"
    bracket = (np.einsum(path, dv_x.conj(), panel.middle, dv_xi)
               - np.einsum(path, dv_xi.conj(), panel.middle, dv_x))
    curvature = (np.einsum("naki,naki->nk", dv_xi.conj(), dv_x)
                 - np.einsum("naki,naki->nk", dv_x.conj(), dv_xi))
    return sub, bracket, curvature


def vector_form(panel):
    """A copy of ``panel`` whose integrands are the eigenvector forms, so
    its ``second_terms``/``second_coefficient`` integrate those instead."""
    out = copy.copy(panel)
    out.sub, out.bracket, out.curvature = vector_integrands(panel)
    return out
