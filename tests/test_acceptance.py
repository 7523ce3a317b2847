"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and nowhere else.
"""

import cmath
import math
import time

import numpy as np
import pytest

from weylsys import (
    PhasePoint,
    assemble_and_solve,
    b_profile,
    build_mollifier,
    eigen_jet,
    expansion_b_coefficients,
    fit_weyl,
    generalized_bracket,
    kernel_moment_closed,
    kernel_moment_numeric,
    local_counting_mollified,
    power_trace_symbol,
    recover_second_weyl,
    resolvent_symbol,
    second_weyl,
    weyl_coefficients,
)

from conftest import (
    MomentGrid,
    conjugate_transpose,
    radial_profile,
    random_phase_points,
    vector_curvature_scalar,
    vector_jet,
)
from test_symbols import gauge_gradients, regauged_vector_jet

TWO_PI = 2.0 * math.pi
FIVE_ANGLES = (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3,
               5 * math.pi / 6)


def report(number: int, title: str, started: float, budget: float) -> None:
    elapsed = time.time() - started
    print(f"[PASS] criterion {number}: {title} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed < budget


def test_criterion_1_kernel_moment_closed_forms():
    started = time.time()
    worst = 0.0
    for n in (2, 3, 4, 5):
        for phi in FIVE_ANGLES:
            z = cmath.exp(1j * phi)
            for power in (n, n - 1):
                closed = kernel_moment_closed(n, z, power)
                numeric = kernel_moment_numeric(n, z, power)
                rel = abs(closed - numeric) / max(abs(closed), 1e-12)
                worst = max(worst, rel)
    assert worst < 1e-6
    report(1, f"kernel moment closed forms, max rel err {worst:.2e}", started, 10)


def test_criterion_2_radial_profile():
    started = time.time()
    worst = 0.0
    for phi in FIVE_ANGLES:
        want = -2.0 * (math.pi - phi)
        for k in (1, 2):
            got = radial_profile(phi, 3, k)
            worst = max(worst, abs(got - want))
            assert abs(got - want) < 1e-6
        diff = abs(radial_profile(phi, 2, 1) - radial_profile(phi, 5, 1))
        assert diff < 1e-8
    report(2, f"radial profiles match -2(pi - phi), max dev {worst:.2e}",
           started, 10)


def test_criterion_3_trace_identities(twisted_model, rng):
    started = time.time()
    lead, sub = twisted_model.symbol_fields()
    ident = np.eye(2)
    z = 0.6 + 0.9j
    worst_decomp = 0.0
    worst_deriv = 0.0
    worst_trace = 0.0
    for x, xi in random_phase_points(rng, 100):
        p = PhasePoint(x, xi)
        jet = eigen_jet(lead, p)
        m = jet.m

        def tr_bracket(a, b, c):
            return complex(np.trace(generalized_bracket(
                jet.projection_jet(a), jet.P[b], jet.projection_jet(c)
            )))

        # three-index trace decomposition into single-index building blocks
        for k in range(m):
            for j in range(m):
                for l in range(m):
                    lhs = tr_bracket(k, j, l)
                    rhs = 0.0 + 0.0j
                    if k == j and j == l:
                        rhs += 2.0 * tr_bracket(j, j, j)
                    if k == j:
                        rhs -= tr_bracket(l, j, l)
                    if j == l:
                        rhs -= tr_bracket(k, j, k)
                    if k == l:
                        rhs += tr_bracket(k, j, k)
                    worst_decomp = max(worst_decomp, abs(lhs - rhs))
        # projection-derivative identity in every direction
        for darr in (jet.dP_x, jet.dP_xi):
            for alpha in range(2):
                for k in range(m):
                    for j in range(m):
                        lhs = darr[alpha, k] @ jet.P[j] + jet.P[k] @ darr[alpha, j]
                        rhs = darr[alpha, k] if k == j else 0.0
                        worst_deriv = max(worst_deriv,
                                          float(np.max(np.abs(lhs - rhs))))
        # matrix trace of the two-term resolvent symbol vs sheet-sum form
        lhs = complex(np.trace(resolvent_symbol(lead, sub, p, z)))
        rhs = power_trace_symbol(lead, sub, p, z, 2)
        worst_trace = max(worst_trace, abs(lhs - rhs))
    assert worst_decomp < 1e-6
    assert worst_deriv < 1e-6
    assert worst_trace < 1e-6
    report(
        3,
        "trace identities: decomposition "
        f"{worst_decomp:.2e}, derivative {worst_deriv:.2e}, "
        f"matrix-vs-sheet trace {worst_trace:.2e}",
        started, 30,
    )


def test_criterion_4_gauge_invariance(twisted_model, rng):
    started = time.time()
    lead, sub = twisted_model.symbol_fields()
    worst = 0.0
    for x, xi in random_phase_points(rng, 50):
        p = PhasePoint(x, xi)
        jet = eigen_jet(lead, p)
        a_sub = sub(p)
        lead_val = lead(p)
        for pos in range(jet.m):
            vj = vector_jet(jet, pos)
            vjh = conjugate_transpose(vj)
            middle = lead_val - jet.h[pos] * np.eye(2)
            base = (
                (vj.value.conj().T @ a_sub @ vj.value)[0, 0],
                generalized_bracket(vjh, middle, vj)[0, 0],
                vector_curvature_scalar(jet, pos),
            )
            for _ in range(20):
                gx, gxi = gauge_gradients(rng.normal(size=4), p)
                rv = regauged_vector_jet(jet, pos, gx, gxi)
                rvh = conjugate_transpose(rv)
                curv = 0.0 + 0.0j
                for alpha in range(2):
                    curv += (rv.dx[alpha].conj().T @ rv.dxi[alpha])[0, 0]
                    curv -= (rv.dxi[alpha].conj().T @ rv.dx[alpha])[0, 0]
                new = (
                    (rv.value.conj().T @ a_sub @ rv.value)[0, 0],
                    generalized_bracket(rvh, middle, rv)[0, 0],
                    curv,
                )
                worst = max(worst, max(abs(a - b) for a, b in zip(base, new)))
    assert worst < 1e-6
    report(4, f"gauge invariance of integrand scalars, max dev {worst:.2e}",
           started, 60)


def test_criterion_5_pipeline_cross_agreement(twisted_model):
    started = time.time()
    lead, sub = twisted_model.symbol_fields()
    xs = [np.array([TWO_PI * i / 8.0, 0.0]) for i in range(8)]
    worst_rec = 0.0
    worst_b1 = 0.0
    for x in xs:
        coeffs = weyl_coefficients(lead, sub, x)
        direct = coeffs.a_second_plus
        prof = b_profile(lead, sub, x)
        two = recover_second_weyl(
            {phi: prof.b0(phi) for phi in (math.pi / 4, 3 * math.pi / 4)},
            "two-angle",
        )
        lim = recover_second_weyl(
            {phi: prof.b0(phi) for phi in (0.2, 0.1, 0.05)}, "limit"
        )
        for rec in (two, lim):
            worst_rec = max(worst_rec, abs(rec - direct) / abs(direct))
        for phi in (math.pi / 4, 1.3, 3 * math.pi / 4):
            closed, _ = expansion_b_coefficients(
                coeffs.a_first_plus, coeffs.a_first_minus,
                coeffs.a_second_plus, coeffs.a_second_minus, 2, phi,
            )
            worst_b1 = max(worst_b1,
                           abs(prof.b1(phi) - closed) / max(abs(closed), 1e-12))
    assert worst_rec < 1e-4
    assert worst_b1 < 1e-6
    report(
        5,
        f"recovery vs direct rel {worst_rec:.2e}; b1 vs closed form "
        f"{worst_b1:.2e}",
        started, 120,
    )


def test_criterion_6_constant_coefficient_ground_truth(
    shifted_dirac_model, mass_dirac_model, mollifier_t3
):
    started = time.time()
    spec = assemble_and_solve(shifted_dirac_model, 32, [[0.3, 0.9]])
    mu = np.arange(3.0, 19.2 + 0.025, 0.05)
    samples = local_counting_mollified(spec, mollifier_t3, 0, mu)
    fit = fit_weyl(samples, 2, (3.0, 19.2), mollifier=mollifier_t3)
    a1_want = 1.0 / TWO_PI
    a0_want = -0.3 / TWO_PI
    rel1 = abs(fit.a_leading - a1_want) / a1_want
    rel0 = abs(fit.a_second - a0_want) / abs(a0_want)
    assert rel1 < 0.02
    assert rel0 < 0.10
    # mass-dirac eigenvalues against the dispersion closed form
    specm = assemble_and_solve(mass_dirac_model, 32, np.zeros((0, 2)))
    ks = np.arange(-32, 33)
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    mag = np.sqrt((k1 ** 2 + k2 ** 2).ravel() + 0.25)
    want = np.sort(np.concatenate([mag, -mag]))
    want = want[np.abs(want) <= specm.trusted_max]
    dev = float(np.max(np.abs(specm.trusted() - want)))
    assert dev < 1e-10
    report(
        6,
        f"constant-coefficient fits: a1 rel {rel1:.2e} (<2%), a0 rel "
        f"{rel0:.2e} (<10%); dispersion dev {dev:.1e}",
        started, 300,
    )


def test_criterion_7_x_dependent_ground_truth(twisted_model, mollifier_t3):
    started = time.time()
    lead, sub = twisted_model.symbol_fields()
    xs = [np.array([TWO_PI * i / 8.0, 0.0]) for i in range(8)]
    avg_direct = float(np.mean([second_weyl(lead, sub, x).value for x in xs]))
    errs = []
    for K in (16, 24, 32):
        spec = assemble_and_solve(twisted_model, K, xs)
        mu_hi = 0.6 * K
        mu = np.arange(3.0, mu_hi + 0.025, 0.05)
        fits = []
        for i in range(len(xs)):
            samples = local_counting_mollified(spec, mollifier_t3, i, mu)
            fits.append(
                fit_weyl(samples, 2, (3.0, mu_hi), mollifier=mollifier_t3).a_second
            )
        errs.append(abs(float(np.mean(fits)) - avg_direct))
    rel = errs[-1] / abs(avg_direct)
    assert rel < 0.15
    assert errs[0] > errs[1] > errs[2]
    report(
        7,
        f"x-dependent closed loop: final rel {rel:.2e} (<15%), errors "
        f"{errs[0]:.1e} > {errs[1]:.1e} > {errs[2]:.1e} monotone",
        started, 900,
    )


def test_criterion_8_mollifier_contract(shifted_dirac_model):
    started = time.time()
    moll1 = build_mollifier(1.0)
    moll2 = build_mollifier(2.0)
    for moll in (moll1, moll2):
        grid = MomentGrid(moll)
        assert abs(grid.mass() - 1.0) < 1e-8
        for m in range(1, 7):
            assert grid.moment(m) < 1e-6
    # fitted coefficients under both supports agree within the fit residual
    spec = assemble_and_solve(shifted_dirac_model, 40, [[0.3, 0.9]])
    fits = {}
    for moll in (moll1, moll2):
        mu_lo = 4.8
        mu = np.arange(mu_lo, 24.0 + 0.025, 0.05)
        samples = local_counting_mollified(spec, moll, 0, mu)
        fits[moll.support] = fit_weyl(samples, 2, (mu_lo, 24.0))
    d0 = abs(fits[1.0].a_second - fits[2.0].a_second)
    d1 = abs(fits[1.0].a_leading - fits[2.0].a_leading)
    residual = fits[1.0].residual_rms + fits[2.0].residual_rms
    assert d0 < residual
    assert d1 < residual
    report(
        8,
        f"mollifier contract: moments ok; coefficient diffs {d1:.1e}/"
        f"{d0:.1e} < residual {residual:.1e}",
        started, 30,
    )
