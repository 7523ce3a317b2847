"""Symbol-core tests: eigen-decomposition, jets, brackets, gauge freedom."""

import numpy as np
import pytest

from weylsys import (
    PhasePoint,
    SymbolField,
    eigen_jet,
    generalized_bracket,
)
from weylsys.errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NotElliptic,
    NotHermitian,
)
from weylsys.symbols import MatrixJet, require_hermitian, symbol_jets

_STENCIL = ((-2.0, 1.0), (-1.0, -8.0), (1.0, 8.0), (2.0, -1.0))

from conftest import (
    bare_jet,
    check_field_contract,
    conjugate_transpose,
    node_terms,
    pointwise_field,
    random_phase_points,
    sheet_position,
    vector_curvature_scalar,
    vector_integrands,
    vector_jet,
    vector_sheet_terms,
    xi_norm,
)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.diag([1.0, -1.0]).astype(complex)


def planar_spin_field():
    """xi_1 sigma_1 + xi_2 sigma_2: eigenvalues +-|xi|."""
    return pointwise_field(
        2, 1, lambda x, xi: SIGMA1 * xi[0] + SIGMA2 * xi[1]
    )


# ---------------------------------------------------------------------------
# PhasePoint and SymbolField contracts
# ---------------------------------------------------------------------------

def test_phase_point_rejects_zero_momentum():
    with pytest.raises(ValueError):
        PhasePoint([0.0, 0.0], [0.0, 0.0])


def test_phase_point_rejects_one_dimension():
    with pytest.raises(ValueError):
        PhasePoint([0.0], [1.0])


def test_field_contract_on_planar_spin(rng):
    pts = [PhasePoint(x, xi) for x, xi in random_phase_points(rng, 5)]
    check_field_contract(planar_spin_field(), pts)


# ---------------------------------------------------------------------------
# eigen-jets of bare matrices
# ---------------------------------------------------------------------------

def test_diagonal_matrix_sheets():
    sys = bare_jet(np.diag([-1.0, 1.0]))
    assert sys.sheets.tolist() == [-1, 1]
    np.testing.assert_allclose(sys.h, [-1.0, 1.0])
    np.testing.assert_allclose(sys.P[0], np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(sys.P[1], np.diag([0.0, 1.0]), atol=1e-14)


def test_planar_spin_eigenvectors():
    # 2x2 characteristic-polynomial oracle at xi = (1, 0): eigenvalues +-1,
    # the positive eigenvector is (1, 1)/sqrt(2), so P+ = [[1, 1], [1, 1]]/2.
    f = planar_spin_field()
    sys = bare_jet(f(PhasePoint([0.0, 0.0], [1.0, 0.0])))
    np.testing.assert_allclose(sys.h, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(sys.P[1], np.full((2, 2), 0.5), atol=1e-14)


def test_degenerate_gap_raises():
    with pytest.raises(DegenerateSpectrum):
        bare_jet(np.diag([1.0, 1.0 + 1e-9]))


def test_near_zero_eigenvalue_raises():
    with pytest.raises(NotElliptic):
        bare_jet(np.diag([1e-9, 1.0]))


def test_simplicity_threshold_is_relative_to_the_stack():
    # the one rule: |eigenvalue| and adjacent gap must reach 1e-6 times the
    # largest |eigenvalue| of the whole stack
    from weylsys import CosphereQuadrature
    from weylsys.coefficients import CospherePanel

    with pytest.raises(NotElliptic):
        bare_jet(np.diag([0.9e-6, 1.0]))
    with pytest.raises(DegenerateSpectrum):
        bare_jet(np.diag([1.0, 1.0 + 0.9e-6]))
    bare_jet(np.diag([1.1e-6, 1.0]))
    bare_jet(np.diag([1.0, 1.0 + 1.1e-6]))

    # every node but one is diag(2, 1) |xi|; that one is diag(small, 1), so
    # its own largest |eigenvalue| is 1 and the panel's is 2
    def panel(small):
        def fn(x, xi):
            bad = abs(xi[0] - 1.0) < 1e-12  # the node at angle 0 only
            return np.diag([small if bad else 2.0, 1.0]) * np.linalg.norm(xi)

        zero = np.zeros((2, 2, 2))
        field = pointwise_field(2, 1, fn, lambda x, xi: (zero, zero))
        return CospherePanel(field, None, np.zeros(2), CosphereQuadrature(n_angles=16))

    with pytest.raises(NotElliptic):
        panel(0.9e-6 * 2.0)
    assert np.min(panel(1.1e-6 * 2.0).eta) == pytest.approx(2.2e-6)


def test_non_hermitian_raises():
    with pytest.raises(NotHermitian):
        bare_jet(np.array([[0.0, 1.0], [0.0, 0.5]]))


def test_hermitian_matrix_near_the_largest_float_keeps_its_entries():
    # the mean of the triangles is taken from halves, so nothing overflows
    mat = 1e308 * (SIGMA1 + SIGMA3)
    assert np.array_equal(require_hermitian(mat), mat)


def test_sheet_counts_add_up(rng):
    for _ in range(10):
        h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        h = h + h.conj().T + 5.0 * np.eye(3)
        try:
            sys = bare_jet(h)
        except (NotElliptic, DegenerateSpectrum):
            continue
        assert np.count_nonzero(np.sign(sys.h)) == 3
        for pos, sheet in enumerate(sys.sheets):
            assert (sheet > 0) == (sys.h[pos] > 0)


def test_bare_jet_is_the_eigen_jet_without_directions(twisted_model, rng):
    # one construction: the bare matrix's record is the eigen-jet's, with
    # derivative arrays over zero phase-space directions
    lead, _ = twisted_model.symbol_fields()
    for x, xi in random_phase_points(rng, 10):
        p = PhasePoint(x, xi)
        bare, jet = bare_jet(lead(p)), eigen_jet(lead, p)
        for name in ("sheets", "h", "P"):
            assert np.array_equal(getattr(bare, name), getattr(jet, name)), name
        assert bare.dP_x.shape == (0, 2, 2, 2)


# ---------------------------------------------------------------------------
# symbol_jets at one node
# ---------------------------------------------------------------------------

def test_constant_field_has_zero_derivatives():
    f = pointwise_field(2, 0, lambda x, xi: SIGMA3.copy())
    _, (dx,), (dxi,) = symbol_jets(f, [0.1, 0.2], [[0.7, -0.4]])
    assert np.max(np.abs(dx)) < 1e-12
    assert np.max(np.abs(dxi)) < 1e-12


def test_norm_field_gradient():
    f = pointwise_field(2, 1, lambda x, xi: np.linalg.norm(xi) * np.eye(2, dtype=complex))
    _, _, (dxi,) = symbol_jets(f, [0.0, 0.0], [[0.0, 1.0]])
    np.testing.assert_allclose(dxi[0][0, 0], 0.0, atol=1e-9)
    np.testing.assert_allclose(dxi[1][0, 0], 1.0, atol=1e-9)


def quadratic_field():
    def ev(x, xi):
        a = x[0] ** 2 + 2.0 * x[1] * xi[0]
        b = xi[0] * xi[1]
        return np.array([[a, b], [b, -a]], dtype=complex)

    def ev_dx(x, xi):
        da0 = 2.0 * x[0]
        da1 = 2.0 * xi[0]
        return np.array([
            [[da0, 0.0], [0.0, -da0]],
            [[da1, 0.0], [0.0, -da1]],
        ], dtype=complex)

    def ev_dxi(x, xi):
        return np.array([
            [[2.0 * x[1], xi[1]], [xi[1], -2.0 * x[1]]],
            [[0.0, xi[0]], [xi[0], 0.0]],
        ], dtype=complex)

    return ev, ev_dx, ev_dxi


@pytest.mark.parametrize("step", [1e-2, 1e-3])
def test_quadratic_fd_convergence(step):
    ev, ev_dx, ev_dxi = quadratic_field()
    f = pointwise_field(2, 0, ev)
    p = PhasePoint([0.4, -0.3], [0.9, 0.5])
    _, (dx,), (dxi,) = symbol_jets(f, p.x, p.xi[None], step=step)
    err = max(
        np.max(np.abs(dx - ev_dx(p.x, p.xi))),
        np.max(np.abs(dxi - ev_dxi(p.x, p.xi))),
    )
    # five-point stencils on polynomials of degree two are exact up to
    # roundoff; demand far better than the O(step^2) contract
    assert err < 10.0 * step ** 2


def test_analytic_derivatives_bypass_differencing():
    ev, ev_dx, ev_dxi = quadratic_field()
    f = pointwise_field(2, 0, ev, lambda x, xi: (ev_dx(x, xi), ev_dxi(x, xi)))
    p = PhasePoint([0.4, -0.3], [0.9, 0.5])
    _, (dx,), (dxi,) = symbol_jets(f, p.x, p.xi[None], step=1e-1)
    np.testing.assert_allclose(dx, ev_dx(p.x, p.xi), atol=1e-14)
    np.testing.assert_allclose(dxi, ev_dxi(p.x, p.xi), atol=1e-14)


# ---------------------------------------------------------------------------
# Brackets against an exact polynomial oracle
# ---------------------------------------------------------------------------

class PolyMatrix:
    """Matrix of bivariate monomial sums c * x1^a x2^b xi1^c xi2^d with
    exact differentiation; the bracket oracle below is term-by-term."""

    def __init__(self, terms):
        # terms: list of (coeff matrix, (a, b, c, d))
        self.terms = [(np.asarray(c, dtype=complex), e) for c, e in terms]

    def value(self, x, xi):
        out = 0
        for c, (a, b, cc, d) in self.terms:
            out = out + c * x[0] ** a * x[1] ** b * xi[0] ** cc * xi[1] ** d
        return out

    def derivative(self, which):
        terms = []
        for c, e in self.terms:
            e = list(e)
            if e[which] > 0:
                power = e[which]
                e[which] -= 1
                terms.append((power * c, tuple(e)))
        if not terms:
            terms = [(0.0 * self.terms[0][0], (0, 0, 0, 0))]
        return PolyMatrix(terms)

    def jet(self, x, xi):
        dx = np.array([self.derivative(0).value(x, xi),
                       self.derivative(1).value(x, xi)])
        dxi = np.array([self.derivative(2).value(x, xi),
                        self.derivative(3).value(x, xi)])
        return MatrixJet(self.value(x, xi), dx, dxi)


def poisson_oracle(pm_a, pm_b, x, xi):
    out = 0
    for alpha, (dxa, dxia) in enumerate([(0, 2), (1, 3)]):
        out = out + (
            pm_a.derivative(dxa).value(x, xi) @ pm_b.derivative(dxia).value(x, xi)
            - pm_a.derivative(dxia).value(x, xi) @ pm_b.derivative(dxa).value(x, xi)
        )
    return out


def generalized_oracle(pm_f, g, pm_h, x, xi):
    out = 0
    for dxa, dxia in [(0, 2), (1, 3)]:
        out = out + (
            pm_f.derivative(dxa).value(x, xi) @ g @ pm_h.derivative(dxia).value(x, xi)
            - pm_f.derivative(dxia).value(x, xi) @ g @ pm_h.derivative(dxa).value(x, xi)
        )
    return out


def random_poly(rng, dim=2, n_terms=4, max_deg=2):
    terms = []
    for _ in range(n_terms):
        c = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        e = tuple(int(v) for v in rng.integers(0, max_deg + 1, size=4))
        terms.append((c, e))
    return PolyMatrix(terms)


def test_canonical_pair_bracket():
    ident = np.eye(2)
    pm_x = PolyMatrix([(ident, (1, 0, 0, 0))])
    pm_xi = PolyMatrix([(ident, (0, 0, 1, 0))])
    x, xi = np.array([0.3, 0.7]), np.array([0.2, -1.1])
    val = generalized_bracket(pm_x.jet(x, xi), ident, pm_xi.jet(x, xi))
    np.testing.assert_allclose(val, ident, atol=1e-14)


def test_scalar_self_bracket_vanishes(rng):
    pm = random_poly(rng, dim=2, n_terms=3)
    scalar = PolyMatrix([(c[0, 0] * np.eye(2), e) for c, e in pm.terms])
    x, xi = np.array([0.5, 1.2]), np.array([0.4, 0.8])
    val = generalized_bracket(scalar.jet(x, xi), np.eye(2), scalar.jet(x, xi))
    np.testing.assert_allclose(val, 0.0, atol=1e-12)


def test_poisson_bracket_matches_polynomial_oracle(rng):
    for _ in range(6):
        pm_a, pm_b = random_poly(rng), random_poly(rng)
        x, xi = rng.normal(size=2), rng.normal(size=2) + np.array([1.5, 0.0])
        got = generalized_bracket(pm_a.jet(x, xi), np.eye(2), pm_b.jet(x, xi))
        want = poisson_oracle(pm_a, pm_b, x, xi)
        np.testing.assert_allclose(got, want, atol=1e-8)


def test_generalized_bracket_matches_polynomial_oracle(rng):
    for _ in range(6):
        pm_f, pm_h = random_poly(rng), random_poly(rng)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        x, xi = rng.normal(size=2), rng.normal(size=2) + np.array([1.5, 0.0])
        got = generalized_bracket(pm_f.jet(x, xi), g, pm_h.jet(x, xi))
        want = generalized_oracle(pm_f, g, pm_h, x, xi)
        np.testing.assert_allclose(got, want, atol=1e-8)


def test_x_independent_arguments_vanish(rng):
    pm_f = PolyMatrix([(rng.normal(size=(2, 2)), (0, 0, 2, 1))])
    pm_h = PolyMatrix([(rng.normal(size=(2, 2)), (0, 0, 1, 1))])
    g = rng.normal(size=(2, 2))
    x, xi = np.array([0.4, 0.2]), np.array([0.9, 1.4])
    val = generalized_bracket(pm_f.jet(x, xi), g, pm_h.jet(x, xi))
    np.testing.assert_allclose(val, 0.0, atol=1e-14)


def test_dimension_mismatch_raises(rng):
    a = random_poly(rng, dim=2)
    b = random_poly(rng, dim=3)
    x, xi = np.array([0.1, 0.2]), np.array([0.5, 0.6])
    with pytest.raises(DimensionMismatch):
        generalized_bracket(a.jet(x, xi), np.eye(2), b.jet(x, xi))


@pytest.mark.parametrize("malformed", [
    lambda v, dx, dxi: (v, dx[:, :1], dxi),  # one of the two x-directions
    lambda v, dx, dxi: (v[:1], dx, dxi),  # one node of the panel's 256
    lambda v, dx, dxi: (v, dx[..., :1, :1], dxi[..., :1, :1]),  # 1 x 1 blocks
], ids=["dx-one-direction", "value-one-node", "one-by-one-derivatives"])
def test_malformed_jet_is_a_dimension_mismatch(twisted_model, malformed):
    # the first two gave a wrong a0+ at x = (0.3, 0) with no error, the last
    # numpy's untyped ValueError
    from weylsys import weyl_coefficients

    lead, sub = twisted_model.symbol_fields()
    bad = SymbolField(lead.dim, lead.degree, lead.evaluator,
                      lambda x, xi: malformed(*lead.jet(x, xi)))
    with pytest.raises(DimensionMismatch, match="^jet returned shape "):
        weyl_coefficients(bad, sub, np.array([0.3, 0.0]))


# ---------------------------------------------------------------------------
# eigen_jet invariants
# ---------------------------------------------------------------------------

def test_constant_symbol_jet_derivatives_vanish():
    f = pointwise_field(2, 1, lambda x, xi: SIGMA3 * np.linalg.norm(xi))
    # x-derivatives must vanish identically for an x-independent field
    jet = eigen_jet(f, PhasePoint([0.3, 0.8], [1.0, 0.0]))
    assert np.max(np.abs(jet.dP_x)) < 1e-10


def test_planar_spin_jet_no_x_dependence():
    f = planar_spin_field()
    jet, _, _, curvature = node_terms(f, None, PhasePoint([0.0, 0.0], [0.8, 0.6]))
    pos = sheet_position(jet.sheets, 1)
    assert abs(vector_curvature_scalar(jet, pos)) < 1e-10
    assert abs(curvature[pos]) < 1e-10


def _twisted_jet(twisted_model, x, xi):
    lead, _ = twisted_model.symbol_fields()
    return eigen_jet(lead, PhasePoint(x, xi))


def test_eigen_jet_invariants_on_twisted(twisted_model, rng):
    lead, _ = twisted_model.symbol_fields()
    for x, xi in random_phase_points(rng, 8):
        p = PhasePoint(x, xi)
        jet = eigen_jet(lead, p)
        value = lead(p)
        ident = np.eye(2)
        recon = sum(jet.h[i] * jet.P[i] for i in range(jet.m))
        np.testing.assert_allclose(recon, value, atol=1e-10 * max(1, xi_norm(p)))
        total = sum(jet.P[i] for i in range(jet.m))
        np.testing.assert_allclose(total, ident, atol=1e-12)
        for i in range(jet.m):
            np.testing.assert_allclose(jet.P[i] @ jet.P[i], jet.P[i], atol=1e-12)
            assert abs(np.trace(jet.P[i]) - 1.0) < 1e-12
            for j in range(jet.m):
                if j != i:
                    assert np.max(np.abs(jet.P[i] @ jet.P[j])) < 1e-12
        assert np.min(np.diff(jet.h)) > 1e-6 * np.max(np.abs(jet.h))


def test_projection_derivative_identity_on_twisted(twisted_model, rng):
    # (dP_k) P_j + P_k dP_j = delta_kj dP_k in every direction
    lead, _ = twisted_model.symbol_fields()
    for x, xi in random_phase_points(rng, 5):
        jet = eigen_jet(lead, PhasePoint(x, xi))
        for darr in (jet.dP_x, jet.dP_xi):
            for alpha in range(2):
                for k in range(jet.m):
                    for j in range(jet.m):
                        lhs = darr[alpha, k] @ jet.P[j] + jet.P[k] @ darr[alpha, j]
                        rhs = darr[alpha, k] if k == j else np.zeros((2, 2))
                        np.testing.assert_allclose(lhs, rhs, atol=1e-6)


def test_curvature_identity_on_twisted(twisted_model, rng):
    # tr {P, P, P} = -{v^*, v}, both sides from independent data paths
    lead, _ = twisted_model.symbol_fields()
    for x, xi in random_phase_points(rng, 8):
        jet, _, _, curvature = node_terms(lead, None, PhasePoint(x, xi))
        for pos in range(jet.m):
            lhs = curvature[pos]
            rhs = -vector_curvature_scalar(jet, pos)
            assert abs(lhs - rhs) < 1e-6
            assert abs(lhs.real) < 1e-8  # purely imaginary


def test_self_bracket_trace_vanishes(twisted_model, rng):
    # tr {P, P} = 0 exactly (trace of a commutator sum); the matrix itself
    # need not vanish.
    lead, _ = twisted_model.symbol_fields()
    for x, xi in random_phase_points(rng, 4):
        jet = eigen_jet(lead, PhasePoint(x, xi))
        for pos in range(jet.m):
            pj = jet.projection_jet(pos)
            val = generalized_bracket(pj, np.eye(2), pj)
            assert abs(np.trace(val)) < 1e-12


def gap_closing_field(angle):
    """2|xi| I + |xi| g (cos x1 sigma_3 + sin x1 sigma_1), g = 1e-9 + (1 - u.e)/2.

    u = xi/|xi| and e the unit vector at ``angle``: the eigenvectors turn
    with x1, and the gap 2 |xi| g nearly closes in the direction e only.
    No analytic derivatives, so jets take the differencing fallback.
    """
    e = np.array([np.cos(angle), np.sin(angle)])

    def ev(x, xi):
        r = np.linalg.norm(xi)
        g = 1e-9 + 0.5 * (1.0 - float(np.dot(xi, e)) / r)
        turn = np.cos(x[0]) * SIGMA3 + np.sin(x[0]) * SIGMA1
        return r * (2.0 * np.eye(2) + g * turn)

    return pointwise_field(2, 1, ev)


def test_near_degenerate_gap_raises():
    # Exact jets divide by h_k - h_j, so a near-degenerate gap must stop
    # the computation with DegenerateSpectrum, from one jet and from a
    # panel with one bad node among 256.
    from weylsys.coefficients import CospherePanel, CosphereQuadrature

    quad = CosphereQuadrature(n_angles=256)
    bad = 2.0 * np.pi * 37 / 256  # the direction of cosphere node 37
    x = np.array([0.4, 1.1])
    f = gap_closing_field(bad)
    with pytest.raises(DegenerateSpectrum):
        eigen_jet(f, PhasePoint(x, 1.7 * np.array([np.cos(bad), np.sin(bad)])))
    with pytest.raises(DegenerateSpectrum):
        CospherePanel(f, None, x, quad)
    # away from that direction the same field is fine: the gap, not the
    # field, is what the guard reacts to
    eigen_jet(f, PhasePoint(x, np.array([np.cos(bad + 0.1), np.sin(bad + 0.1)])))
    CospherePanel(gap_closing_field(bad + np.pi / 256), None, x, quad)


def test_homogeneity_of_sheets(twisted_model, rng):
    lead, _ = twisted_model.symbol_fields()
    for x, xi in random_phase_points(rng, 4):
        p = PhasePoint(x, xi)
        jet = eigen_jet(lead, p)
        for t in (0.5, 3.0):
            jet_t = eigen_jet(lead, PhasePoint(x, t * xi))
            np.testing.assert_allclose(jet_t.h, t * jet.h, rtol=1e-12)
            np.testing.assert_allclose(jet_t.P, jet.P, atol=1e-9)


# ---------------------------------------------------------------------------
# Gauge invariance of the three second-coefficient integrand scalars
# ---------------------------------------------------------------------------

def regauged_vector_jet(jet, pos, grad_x, grad_xi):
    """Apply v -> exp(i phi) v with phi(p) = 0 and given gradient."""
    vj = vector_jet(jet, pos)
    dx = np.array([vj.dx[a] + 1j * grad_x[a] * vj.value for a in range(2)])
    dxi = np.array([vj.dxi[a] + 1j * grad_xi[a] * vj.value for a in range(2)])
    return MatrixJet(vj.value, dx, dxi)


def gauge_gradients(coeffs, p):
    """Gradients of a sin/cos/angle gauge field at p (value irrelevant)."""
    a, b, c, d = coeffs
    x, xi = p.x, p.xi
    norm = np.linalg.norm(xi)
    grad_x = np.array([a * np.cos(x[0]), -b * np.sin(x[1])])
    # gradient of (c xi_1 + d xi_2)/|xi|
    grad_xi = np.array(
        [
            c / norm - (c * xi[0] + d * xi[1]) * xi[0] / norm ** 3,
            d / norm - (c * xi[0] + d * xi[1]) * xi[1] / norm ** 3,
        ]
    )
    return grad_x, grad_xi


def test_gauge_invariance_of_integrand_scalars(twisted_model, rng):
    lead, sub = twisted_model.symbol_fields()
    for x, xi in random_phase_points(rng, 6):
        p = PhasePoint(x, xi)
        jet = eigen_jet(lead, p)
        a_sub = sub(p)
        lead_val = lead(p)
        for pos in range(jet.m):
            vj = vector_jet(jet, pos)
            vjh = conjugate_transpose(vj)
            middle = lead_val - jet.h[pos] * np.eye(2)
            base_sub = (vj.value.conj().T @ a_sub @ vj.value)[0, 0]
            base_brack = generalized_bracket(vjh, middle, vj)[0, 0]
            base_curv = vector_curvature_scalar(jet, pos)
            for _ in range(4):
                coeffs = rng.normal(size=4)
                gx, gxi = gauge_gradients(coeffs, p)
                rv = regauged_vector_jet(jet, pos, gx, gxi)
                rvh = conjugate_transpose(rv)
                new_sub = (rv.value.conj().T @ a_sub @ rv.value)[0, 0]
                new_brack = generalized_bracket(rvh, middle, rv)[0, 0]
                new_curv = 0.0 + 0.0j
                for alpha in range(2):
                    new_curv += (rv.dx[alpha].conj().T @ rv.dxi[alpha])[0, 0]
                    new_curv -= (rv.dxi[alpha].conj().T @ rv.dx[alpha])[0, 0]
                assert abs(new_sub - base_sub) < 1e-6
                assert abs(new_brack - base_brack) < 1e-6
                assert abs(new_curv - base_curv) < 1e-6


# ---------------------------------------------------------------------------
# Exact jets against re-diagonalisation, and the stacked panel against
# single-point jets
# ---------------------------------------------------------------------------

def stencil_jet(field, p, step=1e-3):
    """Five-point central differences of re-diagonalised P (oracle).

    Every stencil point gets its own eigen-decomposition; P is gauge-free,
    so no phase alignment is needed.  Absolute step in x, relative step in
    xi.  Returns dP_x, dP_xi (n, m, m, m).
    """
    out = []
    for kind, h in (("x", step), ("xi", step * xi_norm(p))):
        dP = np.zeros((p.n, field.dim, field.dim, field.dim), dtype=complex)
        for axis in range(p.n):
            for off, w in _STENCIL:
                shift = np.eye(p.n)[axis] * off * h
                if kind == "x":
                    moved = PhasePoint(p.x + shift, p.xi)
                else:
                    moved = PhasePoint(p.x, p.xi + shift)
                dP[axis] += w * bare_jet(field(moved)).P / (12.0 * h)
        out.append(dP)
    return tuple(out)


def test_exact_jets_match_rediagonalisation_stencil(twisted_model):
    lead, _ = twisted_model.symbol_fields()
    # the same evaluator without derivatives takes the differencing fallback
    bare = SymbolField(lead.dim, lead.degree, lead.evaluator)
    pts = random_phase_points(np.random.default_rng(7), 24)
    for field in (lead, bare):
        for x, xi in pts:
            p = PhasePoint(x, xi)
            jet = eigen_jet(field, p)
            dP_x, dP_xi = stencil_jet(lead, p)
            np.testing.assert_allclose(jet.dP_x, dP_x, rtol=0, atol=1e-8)
            np.testing.assert_allclose(jet.dP_xi, dP_xi, rtol=0, atol=1e-8)


def test_panel_nodes_equal_single_point_jets(twisted_model):
    from weylsys.coefficients import CospherePanel, CosphereQuadrature

    lead, sub = twisted_model.symbol_fields()
    x = np.array([1.3, 0.4])
    panel = CospherePanel(lead, sub, x, CosphereQuadrature())
    omega = CosphereQuadrature().nodes(2)[0]
    sub_v, brack_v, curv_v = vector_integrands(panel.jets, lead, sub, x, omega)
    assert len(panel.weights) == 256
    for i, row in enumerate(omega):
        p = PhasePoint(x, row)
        jet = eigen_jet(lead, p)
        stacked = panel.jets.at(i)
        for name in ("sheets", "h", "P", "dP_x", "dP_xi"):
            np.testing.assert_allclose(
                getattr(stacked, name), getattr(jet, name), rtol=0, atol=1e-12,
                err_msg=name,
            )
        node, sub_p, bracket_p, curvature_p = node_terms(lead, sub, p)
        for pos, t_vec in enumerate(vector_sheet_terms(lead, sub, p)):
            assert panel.h[i, pos] == node.h[pos]
            sub_vector, bracket_vector, curvature_vector = t_vec
            want = (sub_p[pos], bracket_p[pos], curvature_p[pos],
                    sub_vector, bracket_vector, -curvature_vector)
            got = (panel.sub[i, pos], panel.bracket[i, pos], panel.curvature[i, pos],
                   sub_v[i, pos], brack_v[i, pos], curv_v[i, pos])
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
