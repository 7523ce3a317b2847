"""Recovery-route tests: resolvent symbol, traces, radial factors, inversion."""

import cmath
import math

import numpy as np
import pytest

from weylsys import (
    MatrixJet,
    PhasePoint,
    SymbolField,
    b_profile,
    build_model,
    catalog_names,
    eigen_jet,
    generalized_bracket,
    power_difference_kernel,
    power_trace_symbol,
    radial_factor,
    recover_second_weyl,
    resolvent_symbol,
    second_weyl,
    weyl_coefficients,
)
from weylsys.errors import (
    AngleOutOfRange,
    DegenerateAngles,
    DimensionMismatch,
    NotHermitian,
    QuadratureFailure,
    SingularResolvent,
)
from weylsys.symbols import symbol_jets

from conftest import (
    cauchy_derivative,
    differenced,
    node_terms,
    pointwise_field,
    radial_profile,
    random_phase_points,
)

SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA3 = np.diag([1.0, -1.0]).astype(complex)


# ---------------------------------------------------------------------------
# resolvent symbol
# ---------------------------------------------------------------------------

def test_constant_symbol_resolvent_is_plain_inverse():
    f = differenced(pointwise_field(2, 1, lambda x, xi: SIGMA3 * np.linalg.norm(xi)))
    p = PhasePoint([0.1, 0.7], [0.6, 0.8])
    z = 0.3 + 0.9j
    got = resolvent_symbol(f, None, p, z)
    want = np.linalg.inv(f(p) - z * np.eye(2))
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_leading_term_is_spectral_sum(twisted_model, rng):
    # leading part equals sum_j P_j / (h_j - z)
    lead, _ = twisted_model.symbol_fields()
    for x, xi in random_phase_points(rng, 5):
        p = PhasePoint(x, xi)
        jet = eigen_jet(lead, p)
        z = 0.4 + 1.1j
        want = sum(
            jet.P[i] / (jet.h[i] - z) for i in range(jet.m)
        )
        got = np.linalg.inv(lead(p) - z * np.eye(2))
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_conjugate_symmetry(twisted_model, rng):
    lead, sub = twisted_model.symbol_fields()
    for x, xi in random_phase_points(rng, 5):
        p = PhasePoint(x, xi)
        z = 0.8 + 0.7j
        a = resolvent_symbol(lead, sub, p, np.conj(z))
        b = resolvent_symbol(lead, sub, p, z).conj().T
        assert np.max(np.abs(a - b)) < 1e-8


@pytest.mark.parametrize("name", catalog_names())
def test_closed_form_matches_bracket_definition(name, rng):
    # R + R M R against the definition R - R A_next R + (i/2) {R, A - z, R},
    # with R's jet formed here from A's (dR = -R dA R); 3 + 0.05i lies near
    # the spectrum, where R is large
    lead, sub = build_model(name).symbol_fields()
    for x, xi in random_phase_points(rng, 25):
        p = PhasePoint(x, xi)
        (a,), (a_dx,), (a_dxi,) = symbol_jets(lead, x, xi[None])
        for z in (0.6 + 0.9j, -1.3 + 0.2j, 3.0 + 0.05j):
            shifted = a - z * np.eye(lead.dim)
            res = np.linalg.inv(shifted)
            jet = MatrixJet(res, -res @ a_dx @ res, -res @ a_dxi @ res)
            want = (res - res @ sub(p) @ res
                    + 0.5j * generalized_bracket(jet, shifted, jet))
            got = resolvent_symbol(lead, sub, p, z)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_singular_resolvent_raises(dirac_model):
    lead, sub = dirac_model.symbol_fields()
    p = PhasePoint([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(SingularResolvent):
        resolvent_symbol(lead, sub, p, 1.0 + 1e-12j)


def test_non_hermitian_symbol_raises_on_every_route():
    # Hermiticity defect 0.5 in the upper triangle, which eigvalsh never reads
    skew = np.array([[0.0, 0.5], [0.0, 0.0]])
    f = differenced(pointwise_field(
        2, 1, lambda x, xi: SIGMA3 * xi[0] + (SIGMA1 + skew) * xi[1]
    ))
    p = PhasePoint([0.1, 0.7], [0.6, 0.8])
    z = 0.3 + 0.9j
    with pytest.raises(NotHermitian):
        resolvent_symbol(f, None, p, z)
    with pytest.raises(NotHermitian):
        eigen_jet(f, p)
    with pytest.raises(NotHermitian):
        power_trace_symbol(f, None, p, z, 2)


def every_route(lead, sub):
    """The direct coefficients, the traced sheet sum and the matrix
    resolvent symbol of one symbol pair, each as a call."""
    p = PhasePoint([0.3, 0.0], [0.6, 0.8])
    z = 0.3 + 0.9j
    return (lambda: weyl_coefficients(lead, sub, p.x),
            lambda: power_trace_symbol(lead, sub, p, z, 2),
            lambda: resolvent_symbol(lead, sub, p, z))


def test_non_finite_next_order_symbol_raises_on_every_route(twisted_model):
    lead, _ = twisted_model.symbol_fields()
    nan_sub = pointwise_field(2, 0, lambda x, xi: np.full((2, 2), np.nan))
    for route in every_route(lead, nan_sub):
        with pytest.raises(ValueError, match="non-finite"):
            route()


@pytest.mark.parametrize("route", range(3), ids=["coefficients", "power-trace", "resolvent"])
def test_non_hermitian_next_order_symbol_raises(twisted_model, route):
    # twisted's next-order symbol 0.3 I with 1e-3 added to entry (0, 1): the
    # leading symbol's Hermiticity rule applies to it on every route
    lead, _ = twisted_model.symbol_fields()
    value = np.array([[0.3, 1e-3], [0.0, 0.3]])
    bent = pointwise_field(2, 0, lambda x, xi: value)
    with pytest.raises(NotHermitian):
        every_route(lead, bent)[route]()


def test_degree_one_next_order_symbol_raises_on_every_route(twisted_model):
    # the leading symbol passed again as the next-order one
    lead, _ = twisted_model.symbol_fields()
    for route in every_route(lead, lead):
        with pytest.raises(ValueError, match="degree 0"):
            route()


def test_next_order_symbol_of_another_size_raises_on_every_route(twisted_model):
    lead, _ = twisted_model.symbol_fields()
    sub = pointwise_field(3, 0, lambda x, xi: np.eye(3, dtype=complex))
    for route in every_route(lead, sub):
        with pytest.raises(DimensionMismatch):
            route()


def test_degree_zero_leading_symbol_raises_on_every_route(twisted_model):
    lead, sub = twisted_model.symbol_fields()
    flat = SymbolField(lead.dim, 0, lead.evaluator, lead.jet)
    p = PhasePoint([0.3, 0.0], [0.6, 0.8])
    for route in (*every_route(flat, sub), lambda: eigen_jet(flat, p)):
        with pytest.raises(ValueError, match="degree-1"):
            route()


def test_jetless_leading_symbol_raises_on_every_route(twisted_model):
    # the leading symbol is differentiated analytically only: a field with
    # no jet is refused before its evaluator is called
    lead, sub = twisted_model.symbol_fields()
    calls = []

    def evaluator(x, xi):
        calls.append(len(xi))
        return lead.evaluator(x, xi)

    bare = SymbolField(lead.dim, lead.degree, evaluator)
    p = PhasePoint([0.3, 0.0], [0.6, 0.8])
    for route in (*every_route(bare, sub), lambda: eigen_jet(bare, p)):
        with pytest.raises(ValueError, match="no analytic jet"):
            route()
    assert calls == []


# ---------------------------------------------------------------------------
# traced symbol forms
# ---------------------------------------------------------------------------

def test_matrix_trace_equals_sheet_sum(twisted_model, rng):
    # full-matrix route vs the single-sheet-sum closed form
    lead, sub = twisted_model.symbol_fields()
    for x, xi in random_phase_points(rng, 8):
        p = PhasePoint(x, xi)
        z = 0.5 + 0.8j
        lhs = complex(np.trace(resolvent_symbol(lead, sub, p, z)))
        rhs = power_trace_symbol(lead, sub, p, z, 2)
        assert abs(lhs - rhs) < 1e-6


def test_trace_closed_form_constant_diagonal():
    f = differenced(pointwise_field(2, 1, lambda x, xi: SIGMA3 * np.linalg.norm(xi)))
    p = PhasePoint([0.0, 0.0], [0.6, 0.8])
    z = 1j
    got = power_trace_symbol(f, None, p, z, 2)
    want = 1.0 / (1.0 - z) + 1.0 / (-1.0 - z)
    assert abs(got - want) < 1e-12


def test_trace_constant_with_potential(rng):
    f = differenced(pointwise_field(2, 1, lambda x, xi: SIGMA3 * np.linalg.norm(xi)))
    b = np.array([[0.4, 0.1], [0.1, -0.2]], dtype=complex)
    sub = pointwise_field(2, 0, lambda x, xi: b)
    p = PhasePoint([0.0, 0.0], [1.0, 0.0])
    z = 0.3 + 1.2j
    got = power_trace_symbol(f, sub, p, z, 2)
    want = 0.0j
    for h, proj in ((1.0, np.diag([1.0, 0.0])), (-1.0, np.diag([0.0, 1.0]))):
        want += 1.0 / (h - z) - np.trace(b @ proj) / (h - z) ** 2
    assert abs(got - want) < 1e-12


def test_power_trace_constant_n3():
    f = differenced(pointwise_field(2, 1, lambda x, xi: SIGMA3 * np.linalg.norm(xi)))
    b = np.array([[0.4, 0.0], [0.0, -0.2]], dtype=complex)
    sub = pointwise_field(2, 0, lambda x, xi: b)
    p = PhasePoint([0.0, 0.0], [1.0, 0.0])
    z = 0.2 + 0.9j
    got = power_trace_symbol(f, sub, p, z, 3)
    want = 0.0j
    for h, tr_bp in ((1.0, 0.4), (-1.0, -0.2)):
        want += 1.0 / (h - z) ** 2 - 2.0 * tr_bp / (h - z) ** 3
    assert abs(got - want) < 1e-12


def test_power_trace_matches_contour_derivative(twisted_model, rng):
    # (n-2)-fold z-derivative of the traced resolvent, via a Cauchy circle
    lead, sub = twisted_model.symbol_fields()
    pts = random_phase_points(rng, 3)
    for n in (3, 4):
        for x, xi in pts:
            p = PhasePoint(x, xi)
            z = 0.6 + 1.0j
            jet_h = np.linalg.eigvalsh(lead(p))
            radius = 0.45 * float(np.min(np.abs(jet_h - z)))
            got = power_trace_symbol(lead, sub, p, z, n)

            def fn(w):
                return power_trace_symbol(lead, sub, p, w, 2)

            want = cauchy_derivative(fn, z, n - 2, radius) / math.factorial(n - 2)
            assert abs(got - want) < 1e-7 * max(1.0, abs(want))


# ---------------------------------------------------------------------------
# radial factors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("phi", [math.pi / 6, math.pi / 2, 2.8])
def test_radial_factor_positive_sheet(phi):
    for n in (2, 3, 5):
        assert abs(radial_factor(n, phi, 1) - (-2.0 * (math.pi - phi))) < 1e-12


@pytest.mark.parametrize("phi", [0.4, 1.5])
def test_radial_factor_negative_sheet(phi):
    for n in (2, 3):
        want = (-1.0) ** n * 2.0 * phi
        assert abs(radial_factor(n, phi, -1) - want) < 1e-12


def test_radial_factor_rejects_sign_zero():
    # a sheet sign is 1 or -1; 0 is no sheet and must not read as negative
    with pytest.raises(ValueError):
        radial_factor(2, 1.0, 0)


def test_radial_profile_matches_closed_form():
    for phi in (math.pi / 6, math.pi / 2, 2.5):
        for k in (1, 2):
            got = radial_profile(phi, 3, k)
            assert abs(got - (-2.0 * (math.pi - phi))) < 1e-6


def test_radial_profile_n_independent():
    phi = math.pi / 6
    a = radial_profile(phi, 2, 1)
    b = radial_profile(phi, 5, 1)
    assert abs(a - b) < 1e-8


def test_radial_profile_angle_limit():
    # value tends to 0 as phi -> pi
    val = radial_profile(math.pi - 1e-4, 2, 2)
    assert abs(val) < 1e-3


# ---------------------------------------------------------------------------
# b coefficients and recovery
# ---------------------------------------------------------------------------

def test_b0_vanishes_for_clean_constant_model(dirac_model):
    lead, sub = dirac_model.symbol_fields()
    prof = b_profile(lead, sub, np.array([0.5, 0.5]))
    for phi in (0.3, 1.2, 2.9):
        assert abs(prof.b0(phi)) < 1e-12


def test_b0_affine_in_angle(twisted_model):
    lead, sub = twisted_model.symbol_fields()
    prof = b_profile(lead, sub, np.array([0.9, 0.0]))
    p1, p2, p3 = 0.4, 1.3, 2.7
    v1, v2, v3 = prof.b0(p1), prof.b0(p2), prof.b0(p3)
    # affine interpolation through (p1, p3) must reproduce p2
    pred = v1 + (v3 - v1) * (p2 - p1) / (p3 - p1)
    assert abs(pred - v2) < 1e-6


def test_negative_sheets_fade_at_small_angle(twisted_model):
    lead, sub = twisted_model.symbol_fields()
    prof = b_profile(lead, sub, np.array([0.9, 0.0]))
    vals = [abs(prof.b0_sheet(phi, -1)) for phi in (0.1, 0.05, 0.025)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.3 * vals[0]


def test_factorization_against_direct_plane_quadrature(twisted_model):
    """Angular-times-radial factorization vs direct 2D momentum quadrature.

    The direct route evaluates the full next-order traced-symbol combination
    at every (r, theta) node without using homogeneity; coarse tolerance.
    """
    lead, sub = twisted_model.symbol_fields()
    x = np.array([0.7, 0.0])
    phi = 1.1
    n = 2
    z = cmath.exp(1j * phi)
    n_theta = 32
    thetas = 2.0 * math.pi * np.arange(n_theta) / n_theta
    nodes, weights = np.polynomial.legendre.leggauss(96)
    # map (0, 1) -> (0, inf) via r = t / (1 - t)
    t = 0.5 * (nodes + 1.0)
    rad = t / (1.0 - t)
    jac = 1.0 / (1.0 - t) ** 2 * 0.5 * weights
    total = {1: 0.0 + 0.0j, -1: 0.0 + 0.0j}
    for theta in thetas:
        omega = np.array([math.cos(theta), math.sin(theta)])
        for r, jw in zip(rad, jac):
            p = PhasePoint(x, r * omega)
            jet, sub_p, bracket_p, curvature_p = node_terms(lead, sub, p)
            for pos in range(jet.m):
                # next-order symbol of the traced power: pole part + curvature
                pole_num = -(n - 1) * (sub_p[pos] - 0.5j * bracket_p[pos])
                combo = pole_num * power_difference_kernel(jet.h[pos], z, n)
                combo += 1j * curvature_p[pos] * power_difference_kernel(
                    jet.h[pos], z, n - 1
                )
                weight = r * jw * (2.0 * math.pi / n_theta)
                total[int(jet.sheets[pos])] += 1j * combo * weight
    prof = b_profile(lead, sub, x)
    for sheet in (1, -1):
        direct = total[sheet]
        assert abs(direct.imag) < 1e-6
        factored = prof.b0_sheet(phi, sheet)
        assert abs(direct.real - factored) < 1e-3 * max(1.0, abs(factored))


def test_recover_synthetic_affine():
    # b0 built from the closed form with known coefficients inverts exactly
    a0p, a0m = 0.37, -0.21
    n = 2

    def b0(phi):
        return -2.0 * ((math.pi - phi) * a0p + (-1.0) ** n * phi * a0m)

    vals = {0.5: b0(0.5), 2.2: b0(2.2)}
    assert abs(recover_second_weyl(vals, "two-angle") - a0p) < 1e-14
    seq = {phi: b0(phi) for phi in (0.4, 0.2, 0.1, 0.05)}
    assert abs(recover_second_weyl(seq, "limit") - a0p) < 1e-12


def test_recover_rejects_equal_angles():
    with pytest.raises(DegenerateAngles):
        recover_second_weyl({0.7: 1.0, 0.7 + 1e-9: 1.1}, "two-angle")


@pytest.mark.parametrize(
    "method, b0",
    [("two-angle", {0.5: 1e308, 2.5: -1e308}),
     ("limit", {0.2: 1.7e308, 0.1: 1.7e308, 0.05: 1.7e308})],
)
def test_recovery_that_overflows_is_a_quadrature_failure(method, b0):
    # finite b0 values near the largest float overflow the inversion
    with pytest.raises(QuadratureFailure, match=f"{method} recovery is not finite"):
        recover_second_weyl(b0, method)


def test_b0_that_overflows_is_a_quadrature_failure():
    # at beta = 1e307 the panel's terms are finite, but a term times the
    # radial factor -2 (pi - phi) is not
    lead, sub = build_model("shifted-dirac", {"beta": 1e307}).symbol_fields()
    prof = b_profile(lead, sub, np.array([0.0, 0.0]))
    with pytest.raises(QuadratureFailure, match="b0 at phi = 0.785398 is not finite"):
        prof.b0(math.pi / 4)


def test_angle_range_enforced(dirac_model):
    lead, sub = dirac_model.symbol_fields()
    prof = b_profile(lead, sub, np.array([0.0, 0.0]))
    with pytest.raises(AngleOutOfRange):
        prof.b0(0.0)
    with pytest.raises(AngleOutOfRange):
        radial_factor(2, math.pi, 1)
    with pytest.raises(AngleOutOfRange):
        recover_second_weyl({-0.1: 1.0, 0.5: 2.0}, "two-angle")


def test_two_pipeline_agreement(twisted_model):
    lead, sub = twisted_model.symbol_fields()
    for x1 in (0.0, 1.6):
        x = np.array([x1, 0.0])
        direct = second_weyl(lead, sub, x).value
        prof = b_profile(lead, sub, x)
        two = recover_second_weyl(
            {p: prof.b0(p) for p in (math.pi / 4, 3 * math.pi / 4)}, "two-angle"
        )
        lim = recover_second_weyl(
            {p: prof.b0(p) for p in (0.2, 0.1, 0.05)}, "limit"
        )
        assert abs(two - direct) < 1e-4 * abs(direct)
        assert abs(lim - direct) < 1e-4 * abs(direct)
