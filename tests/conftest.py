import cmath
import copy
import math
from dataclasses import dataclass, field

import weylsys  # before numpy, whose OpenBLAS reads the idle timeout it sets
import numpy as np
import pytest
from scipy.integrate import quad

from weylsys import (
    CosphereQuadrature,
    MatrixJet,
    PhasePoint,
    SymbolField,
    TorusModel,
    build_model,
    build_mollifier,
    eigen_jet,
    generalized_bracket,
    power_difference_kernel,
)
from weylsys.errors import (
    AngleOutOfRange,
    BudgetExceeded,
    NotHermitian,
    QuadratureFailure,
    SolveFailure,
)
from weylsys.coefficients import _node_terms
from weylsys.symbols import DEFAULT_STEP, eigen_jet_stack, require_hermitian, symbol_jets
from weylsys.torus import DEFAULT_BUDGET, TRUSTED_FRACTION, TrigMatrixField


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
    return build_mollifier(3.0)


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
# The mollifier's vanishing-moment contract
# ---------------------------------------------------------------------------

_MOMENT_STENCILS = {
    1: np.array([0, 0, -0.5, 0, 0.5, 0, 0]),
    2: np.array([0, 0, 1, -2, 1, 0, 0]),
    3: np.array([0, -0.5, 1, 0, -1, 0.5, 0]),
    4: np.array([0, 1, -4, 6, -4, 1, 0]),
    5: np.array([-0.5, 2, -2.5, 0, 2.5, -2, 0.5]),
    6: np.array([1, -6, 15, -20, 15, -6, 1]),
}


class MomentGrid:
    """A mollifier sampled by its own band sum at nu = 0.25 * (-n, ..., n),
    |nu| <= 2500; rho is even, so the half nu >= 0 is summed and mirrored.

    Moments are read through the transform reconstructed from the samples
    (uniform-grid summation below the band limit is alias-free), the
    well-conditioned face of the vanishing-moment property where direct
    high-order moment quadrature is not.
    """

    def __init__(self, moll):
        half = 0.25 * np.arange(10001)
        rho = moll(half)
        self.support = moll.support
        self.grid = np.concatenate([-half[:0:-1], half])
        self.samples = np.concatenate([rho[:0:-1], rho])

    def transform_back(self, t):
        """The band side from the samples: sum rho(nu) cos(nu t) d."""
        d = self.grid[1] - self.grid[0]
        vals = np.array([np.dot(self.samples, np.cos(self.grid * tt)) * d
                         for tt in np.atleast_1d(t)])
        return vals if np.ndim(t) else float(vals[0])

    def mass(self):
        """int rho = reconstructed transform at t = 0."""
        return self.transform_back(0.0)

    def moment(self, m):
        """|m-th moment|: up to a unit-modulus factor the m-th derivative of
        the reconstructed transform at zero, by a 7-point central difference
        inside the plateau [-T/2, T/2]."""
        if not 0 < m <= 6:
            raise ValueError("moments implemented for 1 <= m <= 6")
        h = min(0.16 * self.support, 0.3)
        rb = self.transform_back(np.arange(-3, 4) * h)
        return abs(float(np.dot(_MOMENT_STENCILS[m], rb))) / h ** m

    def envelope(self, lo):
        """sup |rho(nu)| (1 + |nu|)^4 over the sampled |nu| >= lo."""
        mask = np.abs(self.grid) >= lo
        return float(np.max(np.abs(self.samples[mask])
                            * (1.0 + np.abs(self.grid[mask])) ** 4))


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


def flipped_field(field):
    """The field of the sign-flipped operator (matrix negated pointwise)."""
    ev, jet = field.evaluator, field.jet

    def neg_ev(x, xi):
        return -np.asarray(ev(x, xi), dtype=complex)

    neg_jet = None
    if jet is not None:
        def neg_jet(x, xi):
            return tuple(-np.asarray(a) for a in jet(x, xi))

    return SymbolField(field.dim, field.degree, neg_ev, neg_jet)


def sheet_position(sheets, sheet):
    """Index of a signed sheet label in a row of labels; ValueError if absent."""
    hits = np.nonzero(sheets == sheet)[0]
    if hits.size != 1:
        raise ValueError(f"no sheet {sheet}; labels are {sheets.tolist()}")
    return int(hits[0])


def bare_jet(matrix):
    """The eigen-jet of one Hermitian matrix over zero phase-space
    directions: its derivative arrays have shape (0, ...)."""
    matrix = np.asarray(matrix)[None]
    none = np.zeros((1, 0, *matrix.shape[1:]))
    return eigen_jet_stack(matrix, none, none).at(0)


def node_terms(leading, nextorder, p):
    """The cosphere panel's computation at the one node p.xi: the eigen-jet
    and the subprincipal, bracket and curvature integrands, each (m,)."""
    jets, sub, bracket, curvature = _node_terms(
        leading, nextorder, p.x, p.xi[None], DEFAULT_STEP
    )
    return jets.at(0), sub[0], bracket[0], curvature[0]


def xi_norm(p):
    """|xi| of a :class:`PhasePoint`."""
    return float(np.linalg.norm(p.xi))


def check_field_contract(field, points, scales=(0.5, 2.0, 3.7), tol=1e-9):
    """Verify Hermiticity and positive homogeneity on sample points.

    Raises :class:`NotHermitian` or ValueError on violation.  A test helper
    for hand-built fields; model registration applies the same
    ``require_hermitian`` rule to every sampled symbol but does not test
    homogeneity (``registration_check`` in :mod:`weylsys.torus`).
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
# that the gauge-free projection form replaces, with eigenvectors and their
# derivatives derived from an eigen-jet's projections
# ---------------------------------------------------------------------------

def eigenvector_jets(jet):
    """(v, dv_x, dv_xi) of an eigen-jet at one node or a stack of nodes.

    v_k (rows, [..., k, i]) is the largest column of P_k, normalised, with
    its largest component made real positive; dv_k = dP_k v_k is the
    parallel gauge v_k* dv_k = 0, since P dP P = 0.  Derivatives are
    [..., axis, k, i].
    """
    norms = np.linalg.norm(jet.P, axis=-2)  # [..., k, j] = |column j of P_k|
    j = np.argmax(norms, axis=-1)[..., None]
    v = (np.take_along_axis(jet.P, j[..., None, :], axis=-1)[..., 0]
         / np.take_along_axis(norms, j, axis=-1))
    pivot = np.take_along_axis(v, np.argmax(np.abs(v), axis=-1)[..., None], axis=-1)
    v = v * (np.conj(pivot) / np.abs(pivot))
    dv_x, dv_xi = (np.einsum("...akij,...kj->...aki", d, v)
                   for d in (jet.dP_x, jet.dP_xi))
    return v, dv_x, dv_xi


def conjugate_transpose(jet):
    swap = (0, 2, 1)
    return MatrixJet(
        jet.value.conj().T,
        jet.dx.conj().transpose(swap),
        jet.dxi.conj().transpose(swap),
    )


def vector_jet(jet, pos):
    """Column-vector jet of eigenvector ``pos`` (shape (m, 1)) of a
    one-node eigen-jet."""
    v, dv_x, dv_xi = eigenvector_jets(jet)
    return MatrixJet(v[pos][:, None], dv_x[:, pos][:, :, None],
                     dv_xi[:, pos][:, :, None])


def vector_curvature_scalar(jet, pos):
    """{v^*, v} for one sheet (purely imaginary); equals -tr {P, P, P}."""
    vj = vector_jet(jet, pos)
    acc = 0.0 + 0.0j
    for alpha in range(vj.n):
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
        v = vj.value[:, 0]
        out.append((
            complex(np.conj(v) @ a_next @ v),
            complex(generalized_bracket(vjh, middle, vj)[0, 0]),
            vector_curvature_scalar(jet, pos),
        ))
    return out


def vector_integrands(jets, leading, nextorder, x, xi):
    """Eigenvector-form (sub, bracket, curvature) integrands, each (N, m),
    at x and the N rows of xi.

    Only the projections and sheet values come from ``jets``, the
    eigen-jets of those N nodes; A and A_next are evaluated here.
    """
    lead = leading.values(x, xi)
    a_next = (nextorder.values(x, xi) if nextorder is not None
              else np.zeros_like(lead))
    v, dv_x, dv_xi = eigenvector_jets(jets)
    middle = lead[:, None] - jets.h[..., None, None] * np.eye(lead.shape[-1])
    sub = np.einsum("nki,nij,nkj->nk", v.conj(), a_next, v)
    # {v^*, A - h, v} and -{v^*, v} (the latter equals tr {P, P, P})
    path = "naki,nkij,nakj->nk"
    bracket = (np.einsum(path, dv_x.conj(), middle, dv_xi)
               - np.einsum(path, dv_xi.conj(), middle, dv_x))
    curvature = (np.einsum("naki,naki->nk", dv_xi.conj(), dv_x)
                 - np.einsum("naki,naki->nk", dv_x.conj(), dv_xi))
    return sub, bracket, curvature


def vector_form(panel, leading, nextorder):
    """A copy of ``panel``, which must be on the default quadrature, whose
    integrands are the eigenvector forms, so its
    ``second_terms``/``coefficients`` integrate those instead."""
    omega, weights = CosphereQuadrature().nodes(panel.n)
    np.testing.assert_array_equal(weights, panel.weights)
    out = copy.copy(panel)
    out.sub, out.bracket, out.curvature = vector_integrands(
        panel.jets, leading, nextorder, panel.x, omega
    )
    return out


# ---------------------------------------------------------------------------
# Pauli-form oracle: both coefficients of a 2 x 2 system with no
# eigendecomposition
# ---------------------------------------------------------------------------

PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                 dtype=complex)


def pauli_vector(mats):
    """(a0, a) with mats = a0 I + a . sigma, for Hermitian (..., 2, 2)."""
    a0 = 0.5 * np.trace(mats, axis1=-2, axis2=-1).real
    a = 0.5 * np.einsum("...ij,sji->...s", mats, PAULI).real
    return a0, a


def pauli_coefficients(leading, nextorder, x):
    """(a1+, a1-, a0+, a0-) of a 2 x 2 system from its Pauli vectors.

    At every node of the default quadrature, with A = a0 I + a . sigma, n = a/|a| and
    B = A_next: h+- = a0 +- |a|,
    curvature+- = +-(i/2) sum_alpha n . (d_xi_alpha n x d_x_alpha n),
    bracket+- = +-2|a| curvature+- and sub+- = tr B / 2 +- tr(B n . sigma) / 2.
    A sheet counts in the branch whose sign its h has at the first node;
    the branch sums are the panel's region integrals and prefactors.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    omega, weights = CosphereQuadrature().nodes(n)
    value, dx, dxi = symbol_jets(leading, x, omega)
    a0, a = pauli_vector(value)
    radius = np.linalg.norm(a, axis=-1)
    unit = a / radius[:, None]

    def d_unit(d_mats):
        da = pauli_vector(d_mats)[1]
        along = np.einsum("nas,ns->na", da, unit)[..., None] * unit[:, None]
        return (da - along) / radius[:, None, None]

    berry = 0.5j * np.einsum("ns,nas->n", unit, np.cross(d_unit(dxi), d_unit(dx)))
    b0, b = (pauli_vector(nextorder.values(x, omega)) if nextorder is not None
             else (np.zeros(len(omega)), np.zeros((len(omega), 3))))
    b_along = np.einsum("ns,ns->n", b, unit)
    pref = n * (n - 1) / (2.0 * math.pi) ** n
    first = {1: 0.0, -1: 0.0}
    second = {1: 0.0, -1: 0.0}
    for s in (1, -1):
        h = a0 + s * radius
        curvature = s * berry
        bracket = 2.0 * s * radius * curvature
        sub = b0 + s * b_along
        branch = 1 if h[0] > 0 else -1

        def region(samples):
            return np.sum(weights * samples * np.abs(h) ** (-n)) / n

        first[branch] += n / (2.0 * math.pi) ** n * region(1.0).real
        second[branch] += (-pref * region(branch * sub)
                           + 0.5j * pref * region(branch * bracket)
                           + n * 1j / (2.0 * math.pi) ** n
                           * region(branch * h * curvature)).real
    return first[1], first[-1], second[1], second[-1]


# ---------------------------------------------------------------------------
# Gauge twins: a torus model conjugated by a periodic unitary, the same
# operator up to unitary equivalence
# ---------------------------------------------------------------------------

def gauge_twin(model, g):
    """The 2 x 2 ``model`` conjugated by U = diag(e^(i g.x), 1), g integer.

    C'^j = U C^j U* and B' = U B U* - (1/2) sum_j g_j {C'^j, Pi_1} with
    Pi_1 = diag(1, 0): in mode terms, entry (0, 1) of every mode moves by
    +g and entry (1, 0) by -g.  Unitarily equivalent on L^2(T^2), so the
    spectrum, the pointwise weights and every local coefficient are the
    model's.  Built directly: registration of an x2-dependent twin scans a
    full x grid and is not needed for a twin of a registered model.
    """
    shifts = np.array([[0, 1], [-1, 0]])  # entry (i, j) moves by shifts[i, j] g

    def conjugate(fld):
        modes = {}
        for k, mat in fld.modes.items():
            for (i, j), s in np.ndenumerate(shifts):
                key = (k[0] + s * g[0], k[1] + s * g[1])
                modes.setdefault(key, np.zeros((2, 2), dtype=complex))[i, j] += mat[i, j]
        return TrigMatrixField(2, modes)

    coefficients = tuple(conjugate(fld) for fld in model.coefficients)
    potential = dict(conjugate(model.potential).modes)
    projector = np.diag([1.0, 0.0]).astype(complex)
    for g_j, fld in zip(g, coefficients):
        for k, mat in fld.modes.items():
            anti = mat @ projector + projector @ mat
            potential[k] = potential.get(k, 0) - 0.5 * g_j * anti
    return TorusModel(f"{model.name}-twin", coefficients, TrigMatrixField(2, potential))


# ---------------------------------------------------------------------------
# Reference Galerkin solve: breadth-first components, entry-by-entry block
# assembly and per-component eigenvectors, the form that the labelled,
# scattered solve with weights at given points replaces
# ---------------------------------------------------------------------------

def mode_list(K: int) -> np.ndarray:
    ks = np.arange(-K, K + 1)
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    return np.stack([k1.ravel(), k2.ravel()], axis=1)


def reference_components(modes: np.ndarray, couplings: set, K: int) -> list:
    """Connected components of the mode-coupling graph (indices into modes)."""
    if not couplings:
        return [np.array([i]) for i in range(modes.shape[0])]
    index = {tuple(m): i for i, m in enumerate(modes)}
    seen = np.zeros(modes.shape[0], dtype=bool)
    comps = []
    for start in range(modes.shape[0]):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            base = modes[i]
            for g in couplings:
                for sign in (1, -1):
                    nb = (base[0] + sign * g[0], base[1] + sign * g[1])
                    j = index.get(nb)
                    if j is not None and not seen[j]:
                        seen[j] = True
                        stack.append(j)
        comps.append(np.array(sorted(comp)))
    return comps


@dataclass
class ReferenceSpectrum:
    """Full spectrum with eigenvector coefficients stored per component."""

    K: int
    dim: int
    eigenvalues: np.ndarray
    trusted_max: float
    _components: list = field(default_factory=list, repr=False)
    _order: np.ndarray = field(default=None, repr=False)

    def weights(self, x_points: np.ndarray) -> np.ndarray:
        """Pointwise eigenfunction weights ||v_k(x)||^2, shape (n_eig, n_x).

        Eigenvectors are unit vectors in the orthonormal Fourier basis, so
        each weight integrates to one over the torus.
        """
        x_points = np.atleast_2d(np.asarray(x_points, dtype=float))
        norm = (2.0 * math.pi) ** (-x_points.shape[1])
        blocks = []
        for modes, vectors in self._components:
            phases = np.exp(1j * modes @ x_points.T)  # (n_modes, n_x)
            n_local = vectors.shape[1]
            m = self.dim
            # vectors rows are (mode, component) pairs, mode-major
            resh = vectors.reshape(modes.shape[0], m, n_local)
            amp = np.einsum("gmk,gp->kmp", resh, phases)
            w = norm * np.sum(np.abs(amp) ** 2, axis=1)  # (n_local, n_x)
            blocks.append(w)
        stacked = np.concatenate(blocks, axis=0)
        return stacked[self._order]


def reference_spectrum(model, K: int, budget: int = DEFAULT_BUDGET) -> ReferenceSpectrum:
    """Assemble the truncated operator over modes |k|_inf <= K and solve."""
    if K < 8:
        raise ValueError("truncation K must be at least 8")
    m = model.dim
    modes = mode_list(K)
    dim_total = m * modes.shape[0]
    if dim_total > budget:
        raise BudgetExceeded(
            f"matrix dimension {dim_total} exceeds budget {budget}"
        )
    coeff_modes = {}
    for alpha, fld in enumerate(model.coefficients):
        for g, mat in fld.modes.items():
            coeff_modes.setdefault(g, [None] * (model.n + 1))[alpha] = mat
    for g, mat in model.potential.modes.items():
        coeff_modes.setdefault(g, [None] * (model.n + 1))[model.n] = mat

    comps = reference_components(modes, model.coupling_modes(), K)
    all_values = []
    comp_store = []
    for comp in comps:
        local_modes = modes[comp]
        local_index = {tuple(mm): i for i, mm in enumerate(local_modes)}
        dim_local = m * local_modes.shape[0]
        block = np.zeros((dim_local, dim_local), dtype=complex)
        for g, mats in coeff_modes.items():
            for i, kvec in enumerate(local_modes):
                target = (kvec[0] + g[0], kvec[1] + g[1])
                j = local_index.get(target)
                if j is None:
                    continue
                acc = np.zeros((m, m), dtype=complex)
                for alpha in range(model.n):
                    if mats[alpha] is not None:
                        acc += 0.5 * (kvec[alpha] + target[alpha]) * mats[alpha]
                if mats[model.n] is not None:
                    acc += mats[model.n]
                block[j * m:(j + 1) * m, i * m:(i + 1) * m] += acc
        defect = np.max(np.abs(block - block.conj().T)) if dim_local else 0.0
        if defect > 1e-10 * max(1.0, K):
            raise NotHermitian(
                f"assembled block Hermiticity defect {defect:.3e}"
            )
        block = 0.5 * (block + block.conj().T)
        try:
            vals, vecs = np.linalg.eigh(block)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise SolveFailure(f"dense eigensolver failed: {exc}") from exc
        all_values.append(vals)
        comp_store.append((local_modes.astype(float), vecs))
    merged = np.concatenate(all_values)
    order = np.argsort(merged, kind="stable")
    return ReferenceSpectrum(
        K=K,
        dim=m,
        eigenvalues=merged[order],
        trusted_max=TRUSTED_FRACTION * K,
        _components=comp_store,
        _order=order,
    )
