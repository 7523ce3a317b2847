"""Direct-pipeline tests: region integrals, both coefficient densities."""

import math

import numpy as np
import pytest

from weylsys import (
    CosphereQuadrature,
    SymbolField,
    b_profile,
    build_model,
    first_weyl,
    recover_second_weyl,
    second_weyl,
    weyl_coefficients,
)
from weylsys.coefficients import CospherePanel, _node_terms, _trace_bracket
from weylsys.errors import NotElliptic
from weylsys.symbols import DEFAULT_STEP

from conftest import (
    flipped_field,
    gauge_twin,
    pauli_coefficients,
    pointwise_field,
    sheet_position,
    vector_form,
    vector_integrands,
)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)

TWO_PI = 2.0 * math.pi
X0 = np.array([0.4, 1.1])


def planar_spin_field(scale1=1.0, scale2=1.0):
    return pointwise_field(
        2, 1,
        lambda x, xi: SIGMA1 * scale1 * xi[0] + SIGMA2 * scale2 * xi[1],
    )


def test_quadrature_validation():
    with pytest.raises(ValueError):
        CosphereQuadrature(n_angles=15)
    with pytest.raises(ValueError):
        CosphereQuadrature(n_angles=8)


def test_panel_rejects_non_finite_base_point():
    for x in ([np.nan, 0.0], [0.0, np.inf]):
        with pytest.raises(ValueError, match="non-finite"):
            CospherePanel(planar_spin_field(), None, np.array(x), CosphereQuadrature())


def test_sphere_rule_integrates_constants():
    quad = CosphereQuadrature(n_angles=64, n_polar=24)
    for n, surface in ((2, TWO_PI), (3, 4.0 * math.pi)):
        omega, weights = quad.nodes(n)
        assert abs(np.sum(weights) - surface) < 1e-12
        np.testing.assert_allclose(np.linalg.norm(omega, axis=1), 1.0, atol=1e-14)


# ---------------------------------------------------------------------------
# region integrals
# ---------------------------------------------------------------------------

def region_volume(field, x, sheet, quad=CosphereQuadrature(), samples=None):
    """Integral of ``samples`` (default 1) over one sheet's sublevel region."""
    panel = CospherePanel(field, None, x, quad)
    if samples is None:
        samples = np.ones(len(panel.weights))
    return panel.region_integral(sheet_position(panel.sheets, sheet), samples)


def test_unit_disk_area():
    val = region_volume(planar_spin_field(), X0, 1)
    assert abs(val - math.pi) < 1e-12


def test_ellipse_area():
    # |h| = sqrt(xi1^2 + 4 xi2^2): the sublevel set is an ellipse with
    # semi-axes 1 and 1/2, area pi/2 (analytic oracle)
    val = region_volume(planar_spin_field(1.0, 2.0), X0, 1)
    assert abs(val - math.pi / 2.0) < 1e-12


def test_odd_integrand_vanishes():
    # xi_1 / |xi| at the unit-sphere nodes is the first node coordinate
    omega, _ = CosphereQuadrature().nodes(2)
    val = region_volume(planar_spin_field(), X0, 1, samples=omega[:, 0])
    assert abs(val) < 1e-13


def test_region_integral_negative_sheet():
    val = region_volume(planar_spin_field(), X0, -1)
    assert abs(val - math.pi) < 1e-12


# ---------------------------------------------------------------------------
# first coefficient
# ---------------------------------------------------------------------------

def test_first_weyl_planar_spin():
    assert abs(first_weyl(planar_spin_field(), X0) - 1.0 / TWO_PI) < 1e-13


def test_first_weyl_negative_definite_is_zero():
    f = pointwise_field(
        2, 1, lambda x, xi: -np.linalg.norm(xi) * np.diag([1.0, 2.0]).astype(complex)
    )
    assert first_weyl(f, X0) == 0.0


def test_first_weyl_anisotropic():
    f = planar_spin_field(1.0, 2.0)
    assert abs(first_weyl(f, X0) - 1.0 / (4.0 * math.pi)) < 1e-13


def test_first_weyl_scaling(twisted_model):
    # A -> c A shrinks the sublevel region by c per axis: a1 scales by c^-n
    lead, _ = twisted_model.symbol_fields()
    base = first_weyl(lead, X0)
    for c in (0.5, 2.0):
        scaled = SymbolField(2, 1, lambda x, xi, c=c: c * lead.evaluator(x, xi))
        val = first_weyl(scaled, X0)
        assert abs(val - base / c ** 2) < 1e-12 * base


# ---------------------------------------------------------------------------
# second coefficient
# ---------------------------------------------------------------------------

def test_constant_symbol_second_vanishes():
    res = second_weyl(planar_spin_field(), None, X0)
    assert abs(res.value) < 1e-12


def lattice_second_coefficient(beta, lam_max=120.0):
    """Brute-force lattice oracle for the shifted planar-spin system.

    Counts +-|k| + beta below lam on the integer lattice and fits the
    smoothed count N(lam) ~ pi (lam - beta)^2 / (2 pi)^2, whose derivative
    carries the second coefficient -beta/(2 pi).
    """
    kmax = int(lam_max) + 2
    ks = np.arange(-kmax, kmax + 1)
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    norms = np.hypot(k1, k2).ravel()
    lams = np.arange(40.0, lam_max, 0.5)
    counts = np.array([np.sum(norms + beta < lam) for lam in lams]) / TWO_PI ** 2
    design = np.stack([lams ** 2, lams, np.ones_like(lams)], axis=1)
    coef, *_ = np.linalg.lstsq(design, counts, rcond=None)
    # N ~ (a1/2) lam^2 + a0 lam + ...
    return 2.0 * coef[0], coef[1]


def test_shifted_planar_spin_second_coefficient():
    beta = 0.3
    f = planar_spin_field()
    sub = pointwise_field(2, 0, lambda x, xi: beta * np.eye(2, dtype=complex))
    res = second_weyl(f, sub, X0)
    want = -beta / TWO_PI
    assert abs(res.value - want) < 1e-12
    # independent brute-force lattice count; the raw staircase fit carries
    # O(lam^1/2) number-theoretic fluctuation, so ask for ~10% only
    a1_lat, a0_lat = lattice_second_coefficient(beta)
    assert abs(a1_lat - 1.0 / TWO_PI) < 2e-4
    assert abs(a0_lat - want) < 0.1 * abs(want)
    # breakdown: pure subprincipal term
    terms = res.sheets[1]
    assert abs(terms.term_sub - want) < 1e-12
    assert abs(terms.term_bracket) < 1e-12
    assert abs(terms.term_curvature) < 1e-12


def test_twisted_has_nonzero_bracket_and_curvature(twisted_model):
    lead, sub = twisted_model.symbol_fields()
    res = second_weyl(lead, sub, np.array([0.9, 0.0]))
    terms = res.sheets[1]
    assert abs(terms.term_bracket) > 1e-4
    assert abs(terms.term_curvature) > 1e-4


def test_vector_and_projection_forms_agree(twisted_model):
    lead, sub = twisted_model.symbol_fields()
    for x1 in (0.0, 0.9, 2.5):
        x = np.array([x1, 0.0])
        a = second_weyl(lead, sub, x)
        panel = CospherePanel(lead, sub, x, CosphereQuadrature())
        b = vector_form(panel, lead, sub).coefficients()
        assert abs(a.value - b.a_second_plus) < 1e-6


def form_factors(leading, nextorder, x, sheet):
    """(c_first, c_second) of one sheet from the vector and projection forms."""
    panel = CospherePanel(leading, nextorder, x, CosphereQuadrature())
    pos = sheet_position(panel.sheets, sheet)
    vect = vector_form(panel, leading, nextorder).second_terms(pos)
    proj = panel.second_terms(pos)
    return vect.c_first, proj.c_first, vect.c_second, proj.c_second


def test_projection_form_check_constant():
    for value in form_factors(planar_spin_field(), None, X0, 1):
        assert abs(value) < 1e-10


def test_projection_form_check_shifted():
    beta = 0.3
    sub = pointwise_field(2, 0, lambda x, xi: beta * np.eye(2, dtype=complex))
    first_v, first_p, second_v, second_p = form_factors(planar_spin_field(), sub, X0, 1)
    assert abs(first_v - first_p) < 1e-8
    assert abs(second_v - second_p) < 1e-8
    # c_first = -n(n-1) * beta * area of the unit disk
    assert abs(first_p - (-2.0 * beta * math.pi)) < 1e-10


def test_projection_form_check_twisted(twisted_model):
    lead, sub = twisted_model.symbol_fields()
    first_v, first_p, second_v, second_p = form_factors(
        lead, sub, np.array([1.3, 0.0]), 1
    )
    assert abs(first_v - first_p) < 1e-6
    assert abs(second_v - second_p) < 1e-6


# ---------------------------------------------------------------------------
# both branches
# ---------------------------------------------------------------------------

def test_sign_flip_duality(twisted_model, mass_dirac_model):
    """The minus branch equals the direct negative-sheet computation."""
    lead, sub = twisted_model.symbol_fields()
    x = np.array([0.7, 0.0])
    coeffs = weyl_coefficients(lead, sub, x)
    # direct negative-sheet route on the original operator
    quad = CosphereQuadrature()
    vol_neg = region_volume(lead, x, -1, quad)
    a1_minus_direct = 2.0 / TWO_PI ** 2 * vol_neg
    assert abs(coeffs.a_first_minus - a1_minus_direct) < 1e-12
    panel = CospherePanel(lead, sub, x, quad)
    neg_terms = panel.second_terms(panel.positions()[0])
    assert panel.sheets[0] == -1
    a0_minus_direct = -neg_terms.total
    assert abs(coeffs.a_second_minus - a0_minus_direct) < 1e-9
    # weyl_coefficients reads the minus branch off the negative sheets of
    # its one panel; an independent panel of the sign-flipped pair, with
    # its own eigensolve, must give the same values sheet by sheet
    for model in (twisted_model, mass_dirac_model):
        lead, sub = model.symbol_fields()
        for x in (np.array([0.7, 0.0]), np.array([2.9, 1.6])):
            coeffs = weyl_coefficients(lead, sub, x, quad)
            flip_lead, flip_sub = flipped_field(lead), flipped_field(sub)
            assert abs(coeffs.a_first_minus - first_weyl(flip_lead, x, quad)) < 1e-12
            flipped = second_weyl(flip_lead, flip_sub, x, quad)
            assert abs(coeffs.a_second_minus - flipped.value) < 1e-10
            # the minus branch's sheet k is sheet -k here, its terms negated
            panel = CospherePanel(lead, sub, x, quad)
            minus = {-int(panel.sheets[pos]): panel.second_terms(pos)
                     for pos in panel.positions() if panel.sheets[pos] < 0}
            assert sorted(minus) == sorted(flipped.sheets) == [1]
            for sheet, terms in flipped.sheets.items():
                got = minus[sheet]
                assert got.sign == -terms.sign == -1
                for name in ("term_sub", "term_bracket", "term_curvature",
                             "c_first", "c_second"):
                    assert abs(-getattr(got, name) - getattr(terms, name)) < 1e-10


def test_one_reading_feeds_every_entry_point(twisted_model, mass_dirac_model):
    # the minus branch is the exact negation of the negative sheets, and the
    # entry points are reads of one WeylCoefficients, bit for bit
    for model in (twisted_model, mass_dirac_model):
        lead, sub = model.symbol_fields()
        x = np.array([0.7, 0.3])
        coeffs = weyl_coefficients(lead, sub, x)
        negative = [t for t in coeffs.terms if t.sheet < 0]
        assert [t.sheet for t in coeffs.terms] == [-1, 1]
        assert coeffs.a_second_minus == -sum(t.total for t in negative)
        assert coeffs.breakdown == {1: coeffs.terms[1]}
        assert first_weyl(lead, x) == coeffs.a_first_plus
        assert second_weyl(lead, sub, x).value == coeffs.a_second_plus
        again = b_profile(lead, sub, x).coefficients
        assert again.terms == coeffs.terms
        assert (again.a_first_plus, again.a_first_minus, again.a_second_plus,
                again.a_second_minus) == (coeffs.a_first_plus, coeffs.a_first_minus,
                                          coeffs.a_second_plus, coeffs.a_second_minus)


def test_records_compare_and_keep_no_caller_array(twisted_model):
    # the base point is kept as a tuple of floats: records compare with ==,
    # and an edit of the caller's array afterwards moves no record
    lead, sub = twisted_model.symbol_fields()
    x = np.array([0.7, 0.3])
    coeffs = weyl_coefficients(lead, sub, x)
    assert coeffs == weyl_coefficients(lead, sub, [0.7, 0.3])
    x[0] = 5.0
    assert coeffs.x == (0.7, 0.3)
    assert b_profile(lead, sub, x) != b_profile(lead, sub, [0.7, 0.3])


def test_weyl_coefficients_symmetric_model(dirac_model):
    lead, sub = dirac_model.symbol_fields()
    coeffs = weyl_coefficients(lead, sub, np.array([0.2, 0.4]))
    assert abs(coeffs.a_first_plus - coeffs.a_first_minus) < 1e-13
    assert abs(coeffs.a_second_plus) < 1e-12
    assert abs(coeffs.a_second_minus) < 1e-12
    assert coeffs.a_first_plus > 0


def test_not_elliptic_region_integral():
    # leading symbol degenerate along a direction: sigma_1 xi_1 alone
    f = pointwise_field(2, 1, lambda x, xi: SIGMA1 * xi[0])
    with pytest.raises(NotElliptic):
        region_volume(f, X0, 1)


def test_complex_residue_detected():
    # a constant imaginary part of the subprincipal integrand must be
    # flagged, not dropped.  An anti-Hermitian next-order symbol such as i I
    # fails the Hermiticity rule before any integral, so the integrand it
    # would give, tr(i P_k) = i, goes onto the panel directly
    from weylsys.errors import ComplexResidue

    panel = CospherePanel(planar_spin_field(), None, X0, CosphereQuadrature())
    panel.sub = panel.sub + 1j
    with pytest.raises(ComplexResidue):
        panel.coefficients()


def test_three_dimensional_region_volume():
    # n = 3 rule: volume of the unit ball from |h| = |xi|
    f3 = SymbolField(
        2, 1,
        lambda x, xi: np.linalg.norm(xi, axis=1)[:, None, None]
        * np.diag([1.0, -1.0]).astype(complex),
    )
    x3 = np.array([0.1, 0.2, 0.3])
    val = region_volume(f3, x3, 1, CosphereQuadrature(n_angles=64, n_polar=24))
    assert abs(val - 4.0 * math.pi / 3.0) < 1e-10


def test_panel_applies_the_node_rules():
    # the stacked eigensolve keeps every per-node rule and its typed error
    from weylsys.errors import NotHermitian

    quad = CosphereQuadrature(n_angles=16)
    skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

    def one_bad_node(x, xi):
        bad = abs(xi[0] - 1.0) < 1e-12  # the node at angle 0 only
        return SIGMA1 * xi[0] + SIGMA2 * xi[1] + (1e-3 * skew if bad else 0.0)

    with pytest.raises(NotHermitian):
        CospherePanel(pointwise_field(2, 1, one_bad_node), None, X0, quad)

    # diag(2|xi|, |xi| cos(theta + pi/16)): no node is near a zero or a
    # crossing, but the second eigenvalue changes sign between nodes
    c, s = math.cos(math.pi / 16), math.sin(math.pi / 16)
    turning = pointwise_field(
        2, 1,
        lambda x, xi: np.diag([2.0 * np.linalg.norm(xi), c * xi[0] - s * xi[1]])
        .astype(complex),
    )
    with pytest.raises(NotElliptic, match="signature"):
        CospherePanel(turning, None, X0, quad)


# ---------------------------------------------------------------------------
# one trace for the bracket and the curvature
# ---------------------------------------------------------------------------

COEFFICIENT_NAMES = ("a_first_plus", "a_first_minus", "a_second_plus", "a_second_minus")
ORACLE_POINTS = (np.array([0.0, 0.0]), np.array([1.3, 4.2]), np.array([2.5, 0.7]))


def coefficient_values(model, x):
    lead, sub = model.symbol_fields()
    coeffs = weyl_coefficients(lead, sub, x)
    return np.array([getattr(coeffs, name) for name in COEFFICIENT_NAMES]), coeffs


def test_pauli_oracle_matches_the_panel(dirac_model, shifted_dirac_model,
                                        mass_dirac_model, twisted_model):
    # a1 and a0+- of a 2 x 2 system with no eigendecomposition at all
    models = (dirac_model, shifted_dirac_model, mass_dirac_model, twisted_model,
              build_model("twisted", {"eps": 0.2}))
    for model in models:
        lead, sub = model.symbol_fields()
        for x in ORACLE_POINTS:
            values, _ = coefficient_values(model, x)
            oracle = pauli_coefficients(lead, sub, x)
            np.testing.assert_allclose(oracle, values, rtol=0, atol=1e-13,
                                       err_msg=f"{model.name} at {x}")


def recovered_second(model, x):
    """Two-angle and limit recoveries of a0+ at x."""
    lead, sub = model.symbol_fields()
    prof = b_profile(lead, sub, x)
    two = recover_second_weyl(
        {p: prof.b0(p) for p in (math.pi / 4, 3 * math.pi / 4)}, "two-angle"
    )
    lim = recover_second_weyl({p: prof.b0(p) for p in (0.2, 0.1, 0.05)}, "limit")
    return np.array([two, lim])


@pytest.mark.parametrize("g", [(1, 0), (2, 0), (0, 1)], ids=lambda g: f"g={g[0]},{g[1]}")
def test_gauge_twins_keep_every_coefficient(twisted_model, g):
    # the twin is unitarily equivalent, so every local coefficient is the
    # model's, while the per-sheet terms, which are not invariant, move
    twin = gauge_twin(twisted_model, g)
    lead, sub = twin.symbol_fields()
    moves = []
    for x in ORACLE_POINTS:
        want, base = coefficient_values(twisted_model, x)
        got, coeffs = coefficient_values(twin, x)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        np.testing.assert_allclose(recovered_second(twin, x),
                                   recovered_second(twisted_model, x), rtol=0, atol=1e-12)
        np.testing.assert_allclose(pauli_coefficients(lead, sub, x), got,
                                   rtol=0, atol=1e-13)
        moved, kept = coeffs.breakdown[1], base.breakdown[1]
        moves += [abs(moved.term_sub - kept.term_sub),
                  abs(moved.term_bracket - kept.term_bracket)]
    assert max(moves) > 1e-3


def random_linear_field(rng, m):
    """A(x, xi) = sum_a xi_a (C_a + sum_b x_b D_ab), seeded random Hermitian
    C and D, with its analytic jet."""
    def hermitian():
        g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        return g + g.conj().T

    c = np.array([hermitian() for _ in range(2)])
    d = np.array([[hermitian() for _ in range(2)] for _ in range(2)])

    def slopes(x):
        return c + np.einsum("b,abij->aij", x, d)

    def derivatives(x, xi):
        return np.einsum("a,abij->bij", xi, d), slopes(x)

    return pointwise_field(m, 1, lambda x, xi: np.einsum("a,aij->ij", xi, slopes(x)),
                           derivatives)


@pytest.mark.parametrize("m", [3, 4])
def test_one_trace_gives_bracket_and_curvature(rng, m):
    # the bracket's middle factor A - h_k, formed here, against the
    # panel's sum_j (h_j - h_k) tr {P_k, P_j, P_k}; every row of that
    # trace sums to tr {P, I, P} = 0
    field = random_linear_field(rng, m)
    x = rng.uniform(0.0, 2.0 * math.pi, size=2)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=12)
    xi = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    jets, _, bracket, curvature = _node_terms(field, None, x, xi, DEFAULT_STEP)
    middle = field.values(x, xi)[:, None] - jets.h[..., None, None] * np.eye(m)
    path = "nakij,nkjl,nakli->nk"
    for got, centre in ((bracket, middle), (curvature, jets.P)):
        want = (np.einsum(path, jets.dP_x, centre, jets.dP_xi)
                - np.einsum(path, jets.dP_xi, centre, jets.dP_x))
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
    trace = _trace_bracket(jets.dP_x, jets.P, jets.dP_xi)
    scale = np.maximum(1.0, np.max(np.abs(trace), axis=(1, 2)))
    assert np.all(np.abs(trace.sum(axis=2)) <= 1e-12 * scale[:, None])


@pytest.mark.parametrize("m", [3, 4])
def test_eigenvector_forms_match_the_node_terms(rng, m):
    # v* A_next v, {v*, A - h, v} and -{v*, v}, with v and dv derived from
    # the projections, against the panel's projection-form integrands
    field = random_linear_field(rng, m)
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    sub = pointwise_field(m, 0, lambda x, xi: g + g.conj().T)
    x = rng.uniform(0.0, 2.0 * math.pi, size=2)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=12)
    xi = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    jets, *terms = _node_terms(field, sub, x, xi, DEFAULT_STEP)
    for got, want in zip(vector_integrands(jets, field, sub, x, xi), terms):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


# ---------------------------------------------------------------------------
# non-finite steps and jets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("step", [0.0, -1e-3, float("nan"), float("inf")])
def test_differencing_step_must_be_positive_and_finite(twisted_model, step):
    lead, sub = twisted_model.symbol_fields()
    bare = SymbolField(2, 1, lead.evaluator)  # takes the differencing fallback
    with pytest.raises(ValueError, match="step"):
        second_weyl(bare, sub, np.array([0.3, 0.0]), step=step)


def test_non_finite_jet_is_rejected(twisted_model):
    lead, sub = twisted_model.symbol_fields()

    def jet(x, xi):
        value, dx, dxi = lead.jet(x, xi)
        dx = dx.copy()
        dx[0, 0, 0, 0] = np.nan
        return value, dx, dxi

    with pytest.raises(ValueError, match="non-finite"):
        weyl_coefficients(SymbolField(2, 1, lead.evaluator, jet), sub, np.array([0.3, 0.0]))
