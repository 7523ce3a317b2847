"""Ground-truth harness tests: models, spectra, mollifier, counting, fits."""

import ctypes
import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

import weylsys
from weylsys import (
    assemble_and_solve,
    build_model,
    build_mollifier,
    catalog_names,
    fit_weyl,
    local_counting_mollified,
)
from weylsys.errors import (
    BudgetExceeded,
    ConfigError,
    DimensionMismatch,
    EllipticityViolation,
    IllConditionedFit,
    NotHermitian,
    QuadratureFailure,
    SolveFailure,
    SupportTooLarge,
    UnknownModel,
    WindowViolation,
)
from scipy.integrate import quad

from weylsys import torus
from weylsys.models import (
    SIGMA1,
    SIGMA2,
    SIGMA3,
    TorusModel,
    TrigMatrixField,
    registration_check,
)
from weylsys.symbols import PhasePoint, require_hermitian
from weylsys.torus import Mollifier, SpectrumResult, _angle_split, bump_step, plateau_transform

from conftest import MomentGrid, check_field_contract, reference_spectrum

TWO_PI = 2.0 * math.pi
NO_POINTS = np.zeros((0, 2))


# ---------------------------------------------------------------------------
# fields and models
# ---------------------------------------------------------------------------

def test_trig_field_hermitian_everywhere(rng):
    fld = TrigMatrixField.from_waves(
        2,
        [
            ("const", (0, 0), np.diag([1.0, -1.0])),
            ("sin", (1, 0), np.array([[0, 1], [1, 0]])),
            ("cos", (2, 1), np.array([[0.3, 0.2j], [-0.2j, -0.1]])),
        ],
    )
    xs = rng.uniform(0, TWO_PI, size=(10, 2))
    for x in xs:
        val = fld.value(x)
        assert np.max(np.abs(val - val.conj().T)) < 1e-13
        # gradient vs finite differences
        h = 1e-6
        for alpha in range(2):
            e = np.zeros(2)
            e[alpha] = h
            fd = (fld.value(x + e) - fld.value(x - e)) / (2 * h)
            np.testing.assert_allclose(fld.gradient(x)[alpha], fd, atol=1e-7)
    # a stack of points of any leading shape gives the per-point values
    grid = xs.reshape(2, 5, 2)
    np.testing.assert_allclose(
        fld.value(grid), [[fld.value(x) for x in row] for row in grid],
        rtol=0.0, atol=1e-14,
    )
    np.testing.assert_allclose(
        fld.gradient(grid), [[fld.gradient(x) for x in row] for row in grid],
        rtol=0.0, atol=1e-14,
    )


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_trig_field_rejects_non_finite_modes(bad):
    # NaN would fail "any entry nonzero" and drop the mode; +-inf would pass
    # the symmetry check, as inf - inf is NaN and NaN > tol is False
    mat = np.zeros((2, 2), dtype=complex)
    mat[0, 1] = mat[1, 0] = bad
    with pytest.raises(ValueError, match="non-finite"):
        TrigMatrixField(2, {(0, 0): mat})
    with pytest.raises(ValueError, match="non-finite"):
        TrigMatrixField(2, {(1, 0): mat, (-1, 0): mat.conj().T})


@pytest.mark.parametrize("bad", [0.5, 1.0 + 1e-9, math.nan, math.inf])
def test_trig_field_rejects_non_integer_wavevectors(bad):
    # int() would truncate: (0.5, 0) and (-0.5, 0) became the constant mode 2A,
    # and cos((0.5, 0) . x) A the constant A
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError, match="not an integer"):
        TrigMatrixField(2, {(bad, 0): a, (-bad, 0): a})
    with pytest.raises(ValueError, match="not an integer"):
        TrigMatrixField.from_waves(2, [("cos", (0, bad), a)])
    # integral floats and numpy integers are integer wavevectors
    fld = TrigMatrixField.from_waves(2, [("cos", (1.0, np.int64(2)), a)])
    assert sorted(fld.modes) == [(-1, -2), (1, 2)]
    assert all(type(c) is int for g in fld.modes for c in g)


@pytest.mark.parametrize(
    "modes",
    [{(1, 0): SIGMA1},
     {(0, 0): np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])},
     {(1, 0): SIGMA1, (-1, 0): SIGMA1 + 1e-6 * SIGMA3}],
    ids=["missing-partner", "constant-1e-6-apart", "pair-1e-6-apart"],
)
def test_field_rejects_non_hermitian_modes(modes):
    # the field's constructor is the one place the Hermiticity rule runs
    with pytest.raises(NotHermitian):
        TrigMatrixField(2, modes)


def test_conjugate_pair_keeps_its_bits_near_the_largest_float():
    # (C + C^dagger) / 2 overflowed a Hermitian 1e308 mode to inf
    mat = 1e308 * SIGMA3
    fld = TrigMatrixField.constant(mat)
    assert fld.modes[(0, 0)].tobytes() == mat.tobytes()
    assert np.array_equal(fld.value(np.zeros(2)), mat)
    wave = TrigMatrixField.from_waves(2, [("cos", (1, 0), 1e308 * SIGMA1)])
    plus, minus = wave.modes[(1, 0)], wave.modes[(-1, 0)]
    assert np.all(np.isfinite(plus)) and np.array_equal(plus, minus.conj().T)
    assert np.array_equal(wave.value(np.zeros(2)), 1e308 * SIGMA1)



def test_opposite_pair_near_the_largest_float_is_not_hermitian():
    # C_(-g) - C_g^dagger overflowed with a numpy warning (an error in this
    # suite) before the check could raise; a difference of halves cannot
    with pytest.raises(NotHermitian, match="mode \\(1, 0\\)"):
        TrigMatrixField(2, {(1, 0): [[1e308, 0], [0, 0]], (-1, 0): [[-1e308, 0], [0, 0]]})

def test_parameter_that_overflows_a_field_is_a_config_error():
    # eps (sigma_3 + 1) doubles eps, so twisted's (1, 0) mode is infinite
    with pytest.raises(ConfigError, match="model twisted at eps=1e\\+308 overflows a field"):
        build_model("twisted", {"eps": 1e308})


def test_registration_fails_closed_on_an_overflowing_symbol():
    # finite modes whose sum overflows at x = 0; eigvalsh of such a symbol
    # may return NaN, which passes a "margin < bound" test
    a1 = TrigMatrixField.from_waves(
        2, [("cos", (1, 0), 1.5e308 * SIGMA1), ("cos", (2, 0), 1.5e308 * SIGMA1)]
    )
    model = TorusModel("overflowing", (a1, TrigMatrixField.constant(SIGMA2)),
                       TrigMatrixField.constant(np.zeros((2, 2))))
    with pytest.raises(EllipticityViolation, match="not finite"):
        registration_check(model)


def test_field_modes_are_read_only():
    # neither the mapping nor a mode can be edited past the rule
    fld = TrigMatrixField.from_waves(2, [("cos", (1, 0), SIGMA1)])
    with pytest.raises(TypeError):
        fld.modes[(1, 0)] = SIGMA2
    with pytest.raises(ValueError):
        fld.modes[(1, 0)][0, 1] = 2.0


@pytest.mark.parametrize(
    "coefficients, potential",
    [((TrigMatrixField.constant(SIGMA1),), TrigMatrixField.constant(SIGMA3)),
     ((TrigMatrixField.constant(SIGMA1), TrigMatrixField.constant(SIGMA2),
       TrigMatrixField.constant(SIGMA3)), TrigMatrixField.constant(SIGMA3)),
     ((TrigMatrixField.constant(SIGMA1), TrigMatrixField.constant(SIGMA2)),
      TrigMatrixField.constant(np.eye(3))),
     ((TrigMatrixField.constant(SIGMA1),
       TrigMatrixField.from_waves(2, [("const", (0, 0), SIGMA2),
                                      ("cos", (1, 0, 0), 0.1 * SIGMA3)])),
      TrigMatrixField.constant(SIGMA3))],
    ids=["one-field", "three-fields", "sizes-2-and-3", "three-component-wavevector"],
)
def test_model_rejects_fields_off_the_two_torus(coefficients, potential):
    # unchecked, each reaches registration or assembly as an untyped numpy
    # error, or, with one field, as the spectrum of a one-axis operator
    with pytest.raises(DimensionMismatch):
        TorusModel("mismatched", coefficients, potential)


def test_catalog_contents():
    assert catalog_names() == ["dirac", "mass-dirac", "shifted-dirac", "twisted"]


def test_unknown_model():
    with pytest.raises(UnknownModel):
        build_model("nosuch")
    with pytest.raises(UnknownModel):
        build_model("dirac", {"beta": 1.0})


def test_dirac_registration(dirac_model):
    min_abs, min_gap = registration_check(dirac_model)
    assert abs(min_abs - 1.0) < 1e-12
    assert abs(min_gap - 2.0) < 1e-12


def test_twisted_registration_margins():
    model = build_model("twisted", {"eps": 0.2})
    min_abs, min_gap = registration_check(model)
    assert min_abs > 0.7
    assert min_gap > 1.9


def test_twisted_large_coupling_rejected():
    with pytest.raises(EllipticityViolation):
        build_model("twisted", {"eps": 0.9})


def scalar_registration(model, n_x=64, n_theta=256, scan_x2=False):
    """Reference registration: one check and one eigvalsh per node over the
    whole cosphere, on the symbols of each chart position's stacked field
    call; x2 = 0 only unless ``scan_x2``."""
    lead = model.leading_symbol()
    min_abs = min_gap = math.inf
    grid = TWO_PI * np.arange(n_x) / n_x
    thetas = TWO_PI * np.arange(n_theta) / n_theta
    xis = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    for x2 in grid if scan_x2 else (0.0,):
        for x1 in grid:
            for symbol in lead.evaluator(np.array([x1, x2]), xis):
                vals = np.linalg.eigvalsh(require_hermitian(symbol))
                min_abs = min(min_abs, float(np.min(np.abs(vals))))
                min_gap = min(min_gap, float(np.min(np.diff(vals))))
    return min_abs, min_gap


def x2_coupled_twisted():
    """Twisted plus eps cos(x2) sigma_3 in a2: one block holds every mode."""
    twisted = build_model("twisted", {"eps": 0.1})
    a1, a2 = twisted.coefficients
    extra = TrigMatrixField.from_waves(2, [("cos", (0, 1), 0.1 * SIGMA3)])
    a2 = TrigMatrixField(2, {**a2.modes, **extra.modes})
    return TorusModel("twisted-x2", (a1, a2), twisted.potential)


@pytest.mark.parametrize(
    "name, params",
    [("dirac", {}), ("shifted-dirac", {"beta": 0.3}), ("mass-dirac", {"b": 0.5}),
     ("twisted", {"eps": 0.2}), ("twisted-x2", {})],
)
def test_stacked_registration_matches_scalar_loop(name, params):
    if name == "twisted-x2":
        # the oracle scans every x2 row node by node, so on a reduced grid
        model, grid = x2_coupled_twisted(), {"n_x": 16, "n_theta": 64}
    else:
        model, grid = build_model(name, params), {}
    got = registration_check(model, **grid)
    want = scalar_registration(model, **grid, scan_x2=name == "twisted-x2")
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_registration_scans_x2():
    # a1 = (1 + cos x2) sigma_1 / 2 vanishes at x2 = pi, so the leading
    # symbol is 0 at x = (0, pi), xi = (1, 0); the x2 = 0 row alone misses it
    a1 = TrigMatrixField.from_waves(
        2, [("const", (0, 0), 0.5 * SIGMA1), ("cos", (0, 1), 0.5 * SIGMA1)]
    )
    model = TorusModel(
        "x2-degenerate", (a1, TrigMatrixField.constant(SIGMA2)),
        TrigMatrixField.constant(np.zeros((2, 2))),
    )
    with pytest.raises(EllipticityViolation):
        registration_check(model)


def test_model_symbol_contract(twisted_model, rng):
    lead, sub = twisted_model.symbol_fields()
    pts = []
    for _ in range(4):
        x = rng.uniform(0, TWO_PI, size=2)
        xi = rng.normal(size=2)
        xi /= np.linalg.norm(xi)
        pts.append(PhasePoint(x, xi))
    check_field_contract(lead, pts)
    check_field_contract(sub, pts)


def test_analytic_model_derivatives_match_differencing(twisted_model):
    from weylsys.symbols import SymbolField, symbol_jets

    lead, _ = twisted_model.symbol_fields()
    bare = SymbolField(lead.dim, lead.degree, lead.evaluator)
    p = PhasePoint([0.8, 0.3], [0.7, -0.9])
    _, dx, dxi = symbol_jets(lead, p.x, p.xi[None])
    _, num_dx, num_dxi = symbol_jets(bare, p.x, p.xi[None], step=1e-4)
    np.testing.assert_allclose(dx, num_dx, atol=1e-9)
    np.testing.assert_allclose(dxi, num_dxi, atol=1e-9)


# ---------------------------------------------------------------------------
# assembly and spectra
# ---------------------------------------------------------------------------

def plane_wave_spectrum(K, offset=0.0, mass=0.0):
    ks = np.arange(-K, K + 1)
    k1, k2 = np.meshgrid(ks, ks, indexing="ij")
    r = np.hypot(k1, k2).ravel()
    mag = np.sqrt(r ** 2 + mass ** 2)
    return np.sort(np.concatenate([mag + offset, -mag + offset]))


def test_shifted_dirac_spectrum_exact(shifted_dirac_model):
    spec = assemble_and_solve(shifted_dirac_model, 16, NO_POINTS)
    # every trusted eigenvalue matches +-|k| + beta over |k| <= 9
    want = plane_wave_spectrum(16, offset=0.3)
    want = want[np.abs(want) <= spec.trusted_max]
    got = spec.trusted()
    assert got.size == want.size
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_dirac_chiral_symmetry(dirac_model):
    # conjugation by sigma_3 flips the sign of the operator, so the
    # spectrum is symmetric under lambda -> -lambda
    spec = assemble_and_solve(dirac_model, 12, NO_POINTS)
    lam = spec.eigenvalues
    np.testing.assert_allclose(np.sort(lam), np.sort(-lam)[::-1] * -1, atol=1e-10)
    np.testing.assert_allclose(lam, -lam[::-1], atol=1e-10)


def test_mass_dirac_spectrum(mass_dirac_model):
    spec = assemble_and_solve(mass_dirac_model, 16, NO_POINTS)
    want = plane_wave_spectrum(16, mass=0.5)
    want = want[np.abs(want) <= spec.trusted_max]
    np.testing.assert_allclose(spec.trusted(), want, atol=1e-10)


def test_budget_enforced(dirac_model):
    with pytest.raises(BudgetExceeded):
        assemble_and_solve(dirac_model, 64, NO_POINTS)
    # checked before allocation: the mode grid alone would take terabytes
    with pytest.raises(BudgetExceeded):
        assemble_and_solve(dirac_model, 10 ** 6, NO_POINTS)


def test_minimum_truncation(dirac_model):
    with pytest.raises(ValueError):
        assemble_and_solve(dirac_model, 4, NO_POINTS)


@pytest.mark.parametrize("name", ["dirac_model", "twisted_model"])
def test_truncation_must_be_an_integer(name, request):
    model = request.getfixturevalue(name)
    for bad in (8.5, 16.25, math.nan, math.inf):
        with pytest.raises(ValueError, match="integer"):
            assemble_and_solve(model, bad, [[0.0, 0.0]])
    # an integral float or numpy integer is that integer
    want = assemble_and_solve(model, 8, [[0.0, 0.0]])
    for K in (8.0, np.int64(8)):
        got = assemble_and_solve(model, K, [[0.0, 0.0]])
        assert type(got.K) is int
        np.testing.assert_array_equal(got.eigenvalues, want.eigenvalues)
        np.testing.assert_array_equal(got.weights, want.weights)


def test_points_must_be_pairs(dirac_model):
    with pytest.raises(ValueError):
        assemble_and_solve(dirac_model, 8, np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_points_must_be_finite(twisted_model, bad, monkeypatch):
    # rejected before the mode graph is labelled, let alone assembled
    def unreachable(*args):
        raise AssertionError("assembly started")

    monkeypatch.setattr(torus, "_component_labels", unreachable)
    with pytest.raises(ValueError, match="finite"):
        assemble_and_solve(twisted_model, 16, np.array([[bad, 0.0], [0.5, 1.0]]))

def test_constant_weights_are_uniform(shifted_dirac_model):
    xs = np.array([[0.0, 0.0], [1.0, 2.0], [4.0, 0.5]])
    w = assemble_and_solve(shifted_dirac_model, 8, xs).weights
    np.testing.assert_allclose(w, 1.0 / TWO_PI ** 2, atol=1e-12)


def test_weights_nonnegative_and_normalised(twisted_model):
    # weights depend on x1 only and have harmonics up to 2K = 16, so a
    # 32-point uniform average integrates them exactly
    grid = np.stack(
        [np.linspace(0, TWO_PI, 32, endpoint=False), np.zeros(32)], axis=1
    )
    w = assemble_and_solve(twisted_model, 8, grid).weights
    assert np.min(w) >= -1e-13
    avg = np.mean(w, axis=1) * TWO_PI ** 2
    np.testing.assert_allclose(avg, 1.0, atol=1e-10)


ORACLE_POINTS = np.array([[0.0, 0.0], [1.3, 4.2], [0.5, 2.0]])


def reference_weights(ref, x_points):
    """The reference weights, one x at a time."""
    return np.concatenate([ref.weights(x) for x in x_points], axis=1)


@pytest.mark.parametrize("K", [8, 12])
@pytest.mark.parametrize(
    "name, params",
    [("dirac", {}), ("shifted-dirac", {"beta": 0.3}), ("mass-dirac", {"b": 0.5}),
     ("twisted", {"eps": 0.1})],
)
def test_solve_matches_reference_on_catalog(name, params, K):
    model = build_model(name, params)
    # the eigenvalues are the reference's bits; the weights are probe
    # products of the same eigenvectors, summed in another order
    spec = assemble_and_solve(model, K, ORACLE_POINTS)
    ref = reference_spectrum(model, K)
    assert np.array_equal(spec.eigenvalues, ref.eigenvalues)
    np.testing.assert_allclose(
        spec.weights, reference_weights(ref, ORACLE_POINTS), rtol=0.0, atol=1e-15
    )


def diagonal_coupled():
    """Coupled only through (2, 1): components of several sizes."""
    a1 = TrigMatrixField.from_waves(
        2, [("const", (0, 0), SIGMA1), ("sin", (2, 1), 0.2 * SIGMA3)]
    )
    return TorusModel(
        "diagonal", (a1, TrigMatrixField.constant(SIGMA2)),
        TrigMatrixField.constant(0.3 * SIGMA3),
    )


@pytest.mark.parametrize("make_model", [x2_coupled_twisted, diagonal_coupled])
def test_solve_matches_reference_on_general_couplings(make_model):
    model = make_model()
    spec = assemble_and_solve(model, 8, ORACLE_POINTS)
    ref = reference_spectrum(model, 8)
    assert np.array_equal(spec.eigenvalues, ref.eigenvalues)
    np.testing.assert_allclose(
        spec.weights, reference_weights(ref, ORACLE_POINTS), rtol=0.0, atol=1e-12
    )


def test_general_couplings_block_structure():
    from conftest import mode_list, reference_components

    modes = mode_list(8)
    sizes = [c.size for c in reference_components(
        modes, x2_coupled_twisted().coupling_modes(), 8)]
    assert sizes == [17 * 17]  # one 578-row block
    sizes = {c.size for c in reference_components(
        modes, diagonal_coupled().coupling_modes(), 8)}
    assert len(sizes) > 2


@pytest.mark.parametrize(
    "make_model, K, rows",
    [(lambda: build_model("twisted"), 16, 66), (lambda: build_model("dirac"), 8, 2),
     (x2_coupled_twisted, 8, 578), (diagonal_coupled, 8, 18)],
    ids=["twisted-16", "dirac-8", "twisted-x2-8", "diagonal-8"],
)
def test_chunked_solve_is_exact(make_model, K, rows, monkeypatch):
    # 33 twisted blocks of 66 rows, 289 dirac blocks of 2 rows, one x2-coupled
    # block of 578 rows: stacks of one block, then of two with a partial last;
    # the diagonal model's blocks of 2 to 18 rows then fill stacks of 2 to
    # 162, several of them partial
    model = make_model()
    whole = assemble_and_solve(model, K, ORACLE_POINTS)
    for size in (1, 2 * 16 * rows ** 2):
        monkeypatch.setattr(torus, "_TABLE_BYTES", size)
        spec = assemble_and_solve(model, K, ORACLE_POINTS)
        assert np.array_equal(spec.eigenvalues, whole.eigenvalues)
        assert np.array_equal(spec.weights, whole.weights)


def test_solve_memory_is_bounded(twisted_model):
    # all 65 twisted blocks of 130 rows at K = 32 in one stack take 17.6 MB
    tracemalloc.start()
    try:
        assemble_and_solve(twisted_model, 32, ORACLE_POINTS[:2])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_one_block_solve_holds_one_and_a_half_blocks():
    # the x2-coupled model at K = 8 is one 578-row block of 5.3 MB: it is
    # Hermitian as filled, and dstedc works in its spent storage, so the
    # peak is the block and dstedc's eigenvector matrix of half a block
    require_lapack()
    model, block = x2_coupled_twisted(), 16 * 578 ** 2
    tracemalloc.start()
    try:
        assemble_and_solve(model, 8, ORACLE_POINTS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.7 * block


def near_pair_twisted():
    """Twisted with a2's (1, 0) mode off its partner's adjoint by 1e-13,
    inside the Hermiticity rule's 1e-12."""
    twisted = build_model("twisted", {"eps": 0.1})
    a1, a2 = twisted.coefficients
    modes = dict(a2.modes)
    modes[(1, 0)] = modes[(1, 0)] + 1e-13 * np.array([[1.0, 2.0j], [0.5, -1.0j]])
    return TorusModel("twisted-near-pair", (a1, TrigMatrixField(2, modes)),
                      twisted.potential)


@pytest.mark.parametrize(
    "make_model, K, route",
    [(lambda: build_model("twisted"), 16, "default"),
     (lambda: build_model("twisted"), 40, "default"),
     (lambda: build_model("twisted"), 40, "fallback"),
     (lambda: build_model("dirac"), 8, "default"),
     (x2_coupled_twisted, 8, "default"),
     (near_pair_twisted, 16, "default")],
    ids=["twisted-16", "twisted-40-tridiagonal", "twisted-40-fallback", "dirac-8",
         "twisted-x2-8", "twisted-near-pair-16"],
)
def test_blocks_are_hermitian_as_filled(make_model, K, route, monkeypatch):
    # every block reaches its solver exactly equal to its conjugate
    # transpose, with no symmetrisation between the scatter and the solve
    model = make_model()
    if route == "fallback":
        monkeypatch.setattr(torus, "_lapack", lambda: None)
    eigh, probe_spectrum, seen = np.linalg.eigh, torus._probe_spectrum, []

    def spy(solver):
        def entry(a, *args, **kwargs):  # one block or a stack of them
            seen.append((a.shape[-1] * math.prod(a.shape[:-2]),
                         np.array_equal(a, a.conj().swapaxes(-1, -2))))
            return solver(a, *args, **kwargs)
        return entry

    monkeypatch.setattr(np.linalg, "eigh", spy(eigh))
    monkeypatch.setattr(torus, "_probe_spectrum", spy(probe_spectrum))
    spec = assemble_and_solve(model, K, ORACLE_POINTS)
    assert sum(rows for rows, _ in seen) == spec.eigenvalues.size
    assert all(exact for _, exact in seen)


@pytest.mark.parametrize(
    "name, K, calls",
    [("dirac", 32, 2), ("twisted", 16, 11)],
    ids=["dirac-32", "twisted-16"],
)
def test_one_eigensolve_per_stack(name, K, calls, monkeypatch):
    # dirac's 4,225 two-row blocks fill two stacks and twisted's 33 blocks of
    # 66 rows fill 11 stacks of three: one eigh each, whatever the block count
    model, eigh, shapes = build_model(name), np.linalg.eigh, []

    def counted(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    spec = assemble_and_solve(model, K, ORACLE_POINTS[:2])
    assert len(shapes) == calls
    assert sum(math.prod(shape[:-1]) for shape in shapes) == spec.eigenvalues.size


def test_stored_mode_pairs_are_exact():
    # a pair 1e-13 apart is stored exactly conjugate; every stored pair of
    # the catalog is, so the rule run again on a field's modes returns
    # their bits, in their order
    a2 = near_pair_twisted().coefficients[1]
    assert np.array_equal(a2.modes[(-1, 0)], a2.modes[(1, 0)].conj().T)
    for name in catalog_names():
        model = build_model(name)
        for fld in (*model.coefficients, model.potential):
            modes = fld.modes
            assert all(np.array_equal(modes[tuple(-c for c in g)], mat.conj().T)
                       for g, mat in modes.items())
            again = TrigMatrixField(fld.dim, modes).modes
            assert list(again) == list(modes)
            assert all(np.array_equal(again[g], modes[g]) for g in modes)


@pytest.mark.parametrize(
    "make_model, K",
    [(lambda: build_model("twisted"), 16), (lambda: build_model("dirac"), 8),
     (x2_coupled_twisted, 8)],
    ids=["twisted-16", "dirac-8", "twisted-x2-8"],
)
def test_pool_changes_only_the_schedule(make_model, K, monkeypatch):
    # twisted's 11 stacks run on the pool; dirac's one stack of 289 blocks and
    # the x2-coupled model's one block run in this thread either way
    model = make_model()
    pooled = assemble_and_solve(model, K, ORACLE_POINTS)
    blas = torus._openblas()
    monkeypatch.setattr(torus, "_openblas", lambda: blas and (lambda: 1, blas[1]))
    serial = assemble_and_solve(model, K, ORACLE_POINTS)
    assert np.array_equal(serial.eigenvalues, pooled.eigenvalues)
    assert np.array_equal(serial.weights, pooled.weights)
    monkeypatch.setattr(torus, "_openblas", lambda: None)
    fallback = assemble_and_solve(model, K, ORACLE_POINTS)
    for got, want in ((fallback.eigenvalues, pooled.eigenvalues),
                      (fallback.weights, pooled.weights)):
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_pool_restores_the_blas_thread_count(twisted_model):
    blas = torus._openblas()
    if blas is None:
        pytest.skip("no pinnable OpenBLAS loaded")
    threads = blas[0]()
    assemble_and_solve(twisted_model, 16, NO_POINTS)
    assert blas[0]() == threads


@pytest.fixture
def two_workers(monkeypatch):
    """The pool on two workers, whatever the machine: the count query reads 2,
    and each count a worker sets is recorded as (thread, count) and passed on
    to numpy's OpenBLAS, whose own count is set again at teardown."""
    blas, calls = torus._openblas(), []
    threads = blas[0]() if blas else 1

    def set_threads(n):
        calls.append((threading.current_thread(), n))
        if blas is not None:
            blas[1](n)

    monkeypatch.setattr(torus, "_openblas", lambda: (lambda: 2, set_threads))
    yield calls
    if blas is not None:
        blas[1](threads)


def first_blocks_meet():
    """True on the first call from each thread, after the first call from a
    second thread has come too: the caller and a helper then hold one stack
    each.  False on every later call."""
    barrier, seen = threading.Barrier(2, timeout=30), set()

    def meet():
        thread = threading.current_thread()
        if thread in seen:
            return False
        seen.add(thread)
        barrier.wait()
        return True

    return meet


def eigh_failing_on(main: bool, threads: set):
    """``np.linalg.eigh`` that fails on the first stack of the main thread
    (``main``) or of the helper, once both have reached their first stack;
    the failing thread goes into ``threads``."""
    eigh, meet = np.linalg.eigh, first_blocks_meet()

    def failing(a, *args, **kwargs):
        thread = threading.current_thread()
        if meet() and (thread is threading.main_thread()) == main:
            threads.add(thread)
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a, *args, **kwargs)

    return failing


def test_worker_solver_failure_is_typed(twisted_model, two_workers, monkeypatch):
    # twisted at K = 16 is 11 stacks: the caller and the helper each take
    # one, and the first stack the helper solves fails
    threads = set()
    monkeypatch.setattr(np.linalg, "eigh", eigh_failing_on(False, threads))
    with pytest.raises(SolveFailure) as info:
        assemble_and_solve(twisted_model, 16, ORACLE_POINTS)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    assert threads and threading.main_thread() not in threads


def test_caller_solver_failure_is_typed(twisted_model, two_workers, monkeypatch):
    # the mirror case: the first stack of the caller's own share fails
    threads = set()
    monkeypatch.setattr(np.linalg, "eigh", eigh_failing_on(True, threads))
    with pytest.raises(SolveFailure) as info:
        assemble_and_solve(twisted_model, 16, ORACLE_POINTS)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    assert threads == {threading.main_thread()}


def test_caller_and_helper_both_solve(twisted_model, two_workers, monkeypatch):
    # each worker sets one BLAS thread, the count read at the start is set
    # again at the end, and the blocks come out as in one thread
    eigh, meet, threads = np.linalg.eigh, first_blocks_meet(), set()

    def counted(a, *args, **kwargs):
        meet()
        threads.add(threading.current_thread())
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    pooled = assemble_and_solve(twisted_model, 16, ORACLE_POINTS)
    assert len(threads) == 2 and threading.main_thread() in threads
    *pinned, restored = two_workers
    assert sorted(n for _, n in pinned) == [1, 1]
    assert {thread for thread, _ in pinned} == threads
    assert restored == (threading.main_thread(), 2)
    # one worker: the stacks run in this thread, and no count is set
    monkeypatch.setattr(torus, "_openblas", lambda: (lambda: 1, None))
    serial = assemble_and_solve(twisted_model, 16, ORACLE_POINTS)
    assert np.array_equal(serial.eigenvalues, pooled.eigenvalues)
    assert np.array_equal(serial.weights, pooled.weights)


def test_earlier_failure_raises_and_stops_the_pool(two_workers):
    # item 1 fails first in time and item 0 after it: item 0's exception
    # raises, and no later item starts once one has failed
    failed, started = threading.Event(), []

    def fn(i):
        started.append(i)
        if i == 1:
            failed.set()
            raise KeyError("item 1")
        if i == 0:
            assert failed.wait(timeout=30)
            time.sleep(0.05)
            raise ValueError("item 0")
        return i

    with pytest.raises(ValueError, match="item 0"):
        torus._map_pinned(fn, list(range(6)))
    assert sorted(started) == [0, 1]
    assert two_workers[-1] == (threading.main_thread(), 2)


def test_pool_takes_each_item_once_under_contention(monkeypatch):
    # eight workers on two cores, switching threads every microsecond: a
    # lost update of the shared counter would run an item twice or skip it
    monkeypatch.setattr(torus, "_openblas", lambda: (lambda: 8, lambda n: 0))
    runs = [0] * 2000

    def fn(i):
        runs[i] += 1  # each index is one worker's alone
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = torus._map_pinned(fn, list(range(len(runs))))
    finally:
        sys.setswitchinterval(interval)
    assert got == [i * i for i in range(len(runs))]
    assert runs == [1] * len(runs)





def test_band_sums_run_on_one_blas_thread(twisted_model, mollifier_t3, monkeypatch):
    # the counting's characteristic and band sum and the fit's mollifier
    # shape (no bottom columns on this window) each set one BLAS thread and
    # then the caller's count (3 here) again, also when a sum raises
    spec = assemble_and_solve(twisted_model, 16, ORACLE_POINTS[:1])
    mu = np.arange(3.0, 9.6, 0.05)
    calls = []
    monkeypatch.setattr(torus, "_openblas", lambda: (lambda: 3, calls.append))
    samples = local_counting_mollified(spec, mollifier_t3, 0, mu)
    assert calls == [1, 3, 1, 3]
    calls.clear()
    fit_weyl(samples, 2, (3.0, 9.6), mollifier_t3)
    assert calls == [1, 3]

    def failing(row_bytes):
        raise RuntimeError("table")

    monkeypatch.setattr(torus, "_table_rows", failing)
    for run in (lambda: local_counting_mollified(spec, mollifier_t3, 0, mu, "minus"),
                lambda: fit_weyl(samples, 2, (3.0, 9.6), mollifier_t3)):
        calls.clear()
        with pytest.raises(RuntimeError, match="table"):
            run()
        assert calls == [1, 3]

# ---------------------------------------------------------------------------
# weights from the tridiagonal form
# ---------------------------------------------------------------------------

def require_lapack():
    if torus._lapack() is None:
        pytest.skip("no ILP64 LAPACK exported by the loaded OpenBLAS")


def test_probe_spectrum_matches_scipy_oracle(rng):
    # a random Hermitian 200-row block: 100 modes of a 2-vector, two x, so
    # four probe columns
    require_lapack()
    from scipy.linalg import eigh

    rows, x_points = 200, rng.uniform(0.0, TWO_PI, size=(2, 2))
    modes = rng.integers(-20, 21, size=(rows // 2, 2)).astype(float)
    a = rng.standard_normal((rows, rows)) + 1j * rng.standard_normal((rows, rows))
    a += a.conj().T
    vals, vecs = eigh(a)
    phases = np.exp(1j * modes @ x_points.T)  # (n_modes, n_x)
    amp = np.einsum("gmk,gp->kmp", vecs.reshape(rows // 2, 2, rows), phases)
    want = np.sum(np.abs(amp) ** 2, axis=1) / TWO_PI ** 2
    # probe row 2 p + c is e^(i k.x_p) (x) e_c
    got_vals, re, im = torus._probe_spectrum(a.copy(), np.kron(phases.T, np.eye(2)))
    got = torus._probe_weights(re, im, 2)
    np.testing.assert_allclose(got_vals, vals, rtol=0.0, atol=1e-12 * np.max(np.abs(vals)))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(np.sum(got, axis=0), rows / TWO_PI ** 2, rtol=1e-12)


@lru_cache(maxsize=None)
def twisted_reference(K):
    """Eigenvalues and weights at ORACLE_POINTS of twisted by the reference."""
    ref = reference_spectrum(build_model("twisted"), K)
    return ref.eigenvalues, reference_weights(ref, ORACLE_POINTS)


@pytest.mark.parametrize(
    "K, route, x_points",
    [pytest.param(K, route, points, id=f"{K}-{route}{suffix}")
     for points, suffix in ((ORACLE_POINTS, ""), (NO_POINTS, "-no-points"))
     for K in (32, 40) for route in ("tridiagonal", "fallback")],
)
def test_large_blocks_match_reference(twisted_model, K, route, x_points, monkeypatch):
    # 2K + 1 twisted blocks of 2 (2K + 1) rows: 130 at K = 32, 162 at K = 40,
    # all past the cut; the fallback is what runs without the LAPACK lookup.
    # With no points zunmtr rotates zero probe columns: eigenvalues only
    if route == "tridiagonal":
        require_lapack()
    else:
        monkeypatch.setattr(torus, "_lapack", lambda: None)
    probe_spectrum, calls = torus._probe_spectrum, []

    def counted(*args):
        calls.append(args[0].shape[0])
        return probe_spectrum(*args)

    monkeypatch.setattr(torus, "_probe_spectrum", counted)
    spec = assemble_and_solve(twisted_model, K, x_points)
    want = [2 * (2 * K + 1)] * (2 * K + 1) if route == "tridiagonal" else []
    assert sorted(calls) == want
    eigenvalues, weights = twisted_reference(K)
    assert np.array_equal(spec.eigenvalues, eigenvalues)
    weights = weights[:, :x_points.shape[0]]  # (n, 0) without points
    assert spec.weights.shape == weights.shape
    np.testing.assert_allclose(spec.weights, weights, rtol=0.0, atol=1e-12)


def libm_angle(x: float) -> float:
    """The angle in [0, 2 pi) whose cos and sin are libm's for x."""
    return math.atan2(math.sin(x), math.cos(x)) % TWO_PI


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("K, route", [(16, "eigh"), (40, "tridiagonal")])
def test_huge_point_is_solved_at_its_angle(twisted_model, K, route):
    # k x keeps no digit of the angle at x = 1e17 and overflows at 1e308;
    # each is probed at its libm angle, the point the direct route
    # evaluates.  66-row blocks at K = 16 take the stacked eigh, 162-row
    # ones at K = 40 the tridiagonal route
    if route == "tridiagonal":
        require_lapack()
    for x in (1e17, 1e308):
        spec = assemble_and_solve(twisted_model, K, [[0.3, 0.0], [x, 0.0]])
        at_angle = assemble_and_solve(twisted_model, K, [[0.3, 0.0], [libm_angle(x), 0.0]])
        assert np.array_equal(spec.eigenvalues, at_angle.eigenvalues)
        assert np.array_equal(spec.weights, at_angle.weights)
        assert spec.x_points.tolist() == [[0.3, 0.0], [x, 0.0]]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x", [(1e308, 0.0), (0.0, -1e308), (1e308, 1e308)])
def test_huge_coordinates_need_no_phase_guard(twisted_model, x):
    # each coordinate outside [0, 2 pi) is probed at its own libm angle, so
    # no phase k.x can overflow and no numpy warning is raised
    spec = assemble_and_solve(twisted_model, 16, [[0.3, 0.0], list(x)])
    angles = [libm_angle(c) if not 0.0 <= c < TWO_PI else c for c in x]
    at_angle = assemble_and_solve(twisted_model, 16, [[0.3, 0.0], angles])
    assert np.array_equal(spec.weights, at_angle.weights)


def test_worker_tridiagonal_failure_is_typed(twisted_model, two_workers, monkeypatch):
    # K = 32: 65 blocks of 130 rows in stacks of three.  The caller and the
    # helper each take one, and the dstedc call after the helper's first
    # zhetrd fails
    require_lapack()
    zhetrd, zunmtr, dstedc = torus._lapack()
    K, last, meet, threads = 32, threading.local(), first_blocks_meet(), set()

    def tridiagonalise(*args):
        if args[8].value != -1:  # not a workspace query
            last.block = meet() and threading.current_thread() is not threading.main_thread()
        zhetrd(*args)

    def failing(*args):
        dstedc(*args)
        if args[7].value != -1 and getattr(last, "block", False):
            threads.add(threading.current_thread())
            args[10].value = K + 1

    monkeypatch.setattr(torus, "_lapack", lambda: (tridiagonalise, zunmtr, failing))
    with pytest.raises(SolveFailure, match="LAPACK info 33") as info:
        assemble_and_solve(twisted_model, K, ORACLE_POINTS)
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    assert len(threads) == 1
    assert threading.main_thread() not in threads


_START_UP_LOOKUPS = """
import json, sys
import weylsys.cli
from weylsys import torus
from weylsys.models import build_model

build_model("twisted")
print(json.dumps({
    "lookups": [f.cache_info().currsize for f in
                (torus._openblas_libraries, torus._openblas, torus._lapack)],
    "futures": "concurrent.futures" in sys.modules,
}))
"""


def fresh_env(**settings) -> dict:
    """This environment with the package's sources first on PYTHONPATH,
    every warning an error and ``settings`` applied; a setting of None
    removes the variable."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error"  # the suite's own warning rule
    for name, value in settings.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return env


def test_start_up_runs_no_blas_lookup():
    # a fresh interpreter: importing the CLI and registering a model neither
    # reads /proc/self/maps nor imports the worker pool
    proc = subprocess.run([sys.executable, "-c", _START_UP_LOOKUPS], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"lookups": [0, 0, 0], "futures": False}


_SPECTRAL_RUN_MODULES = """
import json, sys
from weylsys.cli import main

code = main(["compute", "--pipeline", "spectral", "--model", "twisted", "-k", "8",
             "--set", "fit.mu_lo=2", "--out", sys.argv[1]])
print(json.dumps({"code": code, "ma": "numpy.ma" in sys.modules}))
"""


def test_spectral_run_imports_no_masked_arrays(tmp_path):
    # a fresh interpreter: np.unique imports numpy.ma (12-19 ms and 1 MB of
    # peak RSS), so the Galerkin solve finds its component sizes without it
    proc = subprocess.run([sys.executable, "-c", _SPECTRAL_RUN_MODULES, str(tmp_path)],
                          env=fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"code": 0, "ma": False}


# four idle spells: after start-up and after each of three threaded products
_IDLE_WORKERS = """
import os, time
import weylsys
import numpy as np

a = np.ones((256, 256))
for _ in range(3):
    time.sleep(0.15)
    a @ a
time.sleep(0.15)
print(os.environ["OPENBLAS_THREAD_TIMEOUT"])
"""


def test_idle_blas_workers_sleep():
    # OpenBLAS's idle workers busy-wait 2^timeout clock cycles before they
    # sleep: about 0.1 s of a core per idle spell at its default of 28, under
    # a millisecond at the package's 20, unless the environment sets it
    if (os.cpu_count() or 1) < 2 or torus._openblas() is None:
        pytest.skip("needs 2 CPUs and numpy's OpenBLAS")

    def child(timeout):
        env = fresh_env(OPENBLAS_NUM_THREADS="2", OPENBLAS_THREAD_TIMEOUT=timeout)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run([sys.executable, "-c", _IDLE_WORKERS], env=env,
                              capture_output=True, text=True, timeout=120)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        assert proc.returncode == 0, proc.stderr
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        return proc.stdout.strip(), cpu

    setting, cpu = child(None)
    assert setting == "20"
    explicit, cpu_explicit = child("28")  # OpenBLAS's own default
    assert explicit == "28"
    assert cpu < cpu_explicit - 0.15


def test_spectral_fit_does_not_depend_on_the_blas_thread_count(tmp_path):
    # the solve's stacks and the band sums run on one BLAS thread each; with
    # the band sums threaded, a second thread moved a0_fit in its last bits
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "weylsys.cli", "compute", "--model", "twisted",
             "--pipeline", "spectral", "-k", "16", "--out", str(out)],
            env=fresh_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        written.append((out / "spectral_fit.csv").read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize("branch", ["plus", "minus"])
def test_branch_without_a_trusted_eigenvalue_is_a_window_violation(branch, mollifier_t3):
    # beta = 30 puts every eigenvalue at K = 8 in [18.6, 41.4]: the plus branch
    # has none in [0, 4.8] and the minus branch none at all
    spec = assemble_and_solve(build_model("shifted-dirac", {"beta": 30.0}), 8, [[0.0, 0.0]])
    with pytest.raises(WindowViolation, match=f"^{branch} branch has no eigenvalue in "
                                              "the trusted window \\[0, 4.80\\]$"):
        local_counting_mollified(spec, mollifier_t3, 0, np.arange(2.0, 4.8, 0.1), branch)

def test_spectrum_keeps_no_eigenvectors():
    names = [f.name for f in dataclasses.fields(SpectrumResult)]
    assert names == ["K", "eigenvalues", "x_points", "weights", "trusted_max"]


def test_galerkin_matches_symbol_pipeline_for_twisted(twisted_model):
    # global eigenvalue count vs the two-term phase-space prediction
    spec = assemble_and_solve(twisted_model, 16, NO_POINTS)
    lam = spec.trusted()
    lam_max = 0.9 * spec.trusted_max
    from weylsys import first_weyl, second_weyl

    lead, sub = twisted_model.symbol_fields()
    xs = np.linspace(0, TWO_PI, 8, endpoint=False)
    a1_avg = np.mean([first_weyl(lead, np.array([x, 0.0])) for x in xs])
    a0_avg = np.mean(
        [second_weyl(lead, sub, np.array([x, 0.0])).value for x in xs]
    )
    count = np.sum((lam > 0) & (lam < lam_max))
    predicted = (a1_avg / 2.0 * lam_max ** 2 + a0_avg * lam_max) * TWO_PI ** 2
    assert abs(count - predicted) < 0.02 * predicted


# ---------------------------------------------------------------------------
# mollifier
# ---------------------------------------------------------------------------

def test_mollifier_support_bound():
    # the class is the one checked constructor, exported once, as
    # build_mollifier: past the loop bound its band would read the closed
    # trajectories of the trace, and a support that is not positive has no
    # band at all
    assert weylsys.build_mollifier is build_mollifier is Mollifier
    assert "Mollifier" not in weylsys.__all__
    for support in (7.0, TWO_PI, math.inf):
        with pytest.raises(SupportTooLarge) as info:
            Mollifier(support)
        assert str(info.value) == f"support {support} not below the loop bound 6.283185"
    for support in (0.0, -1.0, -3.0, math.nan):
        with pytest.raises(ValueError) as info:
            Mollifier(support)
        assert str(info.value) == "support must be positive"


def test_mollifier_contract(mollifier_t3):
    moll = MomentGrid(mollifier_t3)
    assert abs(moll.mass() - 1.0) < 1e-8
    for m in range(1, 7):
        assert moll.moment(m) < 1e-6
    for m in (-1, 7):
        with pytest.raises(ValueError, match="m <= 6"):
            moll.moment(m)
    # rapid decay: the fourth-power-weighted envelope is finite and falls
    # hard across decades (decay strictly faster than the fourth power;
    # the far bin sits at the roundoff floor of the transform)
    near = moll.envelope(20.0)
    far = moll.envelope(600.0)
    assert np.isfinite(near)
    assert far < 0.2 * near
    # plateau of the realized transform
    for t in (0.0, 0.5, 1.2):
        assert abs(moll.transform_back(t) - 1.0) < 1e-9


def quad_step(u):
    """Reference step: adaptive quadrature of the standard bump on [-1, 2u - 1]."""
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0

    def bump(s):
        return math.exp(-1.0 / (1.0 - s * s)) if abs(s) < 1.0 else 0.0

    norm, _ = quad(bump, -1.0, 1.0, epsabs=1e-14, epsrel=1e-13)
    val, _ = quad(bump, -1.0, 2.0 * u - 1.0, epsabs=1e-14, epsrel=1e-12)
    return val / norm


def test_vectorised_step_matches_adaptive_quadrature():
    edges = [1e-12, 1e-9, 1e-6, 1e-3, 0.5 - 1e-12, 0.5, 0.5 + 1e-12]
    us = np.concatenate([
        np.linspace(0.0, 1.0, 201), edges, [1.0 - e for e in edges], [-0.5, 1.5],
    ])
    got = bump_step(us)
    want = np.array([quad_step(u) for u in us])
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    assert np.all(np.diff(bump_step(np.linspace(0.0, 1.0, 1001))) >= 0.0)


def test_plateau_transform_uses_the_step():
    t = np.array([0.0, 1.4, 1.6, 2.2, 2.9, 3.0, 3.5])
    band = plateau_transform(t, 3.0)
    want = [1.0, 1.0, quad_step(2.0 * (3.0 - 1.6) / 3.0),
            quad_step(2.0 * (3.0 - 2.2) / 3.0), quad_step(2.0 * (3.0 - 2.9) / 3.0),
            0.0, 0.0]
    np.testing.assert_allclose(band, want, rtol=0.0, atol=1e-12)
    assert plateau_transform(-1.6, 3.0) == band[2]


def test_step_rows_bound_the_mollifier_build():
    # the whole (values x nodes) table at once is the reference; the plateau
    # of the largest band table, at 16,384 nodes, would hold 10.5 MB of it
    nodes, weights, _ = torus._step_rule()
    # a row is the tables s and bump(s), two of 80 doubles
    rows = torus._TABLE_BYTES // (2 * 8 * nodes.size)
    v = np.linspace(0.0, 0.5, 2 * rows + 7)
    whole = (torus._bump(-1.0 + np.multiply.outer(v, 1.0 + nodes)) @ weights) * v
    assert np.array_equal(torus._bump_integral(v, nodes, weights), whole)
    tracemalloc.start()
    try:
        build_mollifier(3.0)(33645.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_mollifier_band_vanishes_outside_support():
    moll = MomentGrid(build_mollifier(1.0))
    assert abs(moll.transform_back(1.5)) < 1e-9
    assert abs(moll.transform_back(0.25) - 1.0) < 1e-9


def plateau_band(support, n):
    """The nodes k T / n, k = 0, ..., n, of [0, T] and their
    trapezoid-weighted plateau values."""
    t = np.linspace(0.0, support, n + 1)
    band = plateau_transform(t, support) * (support / n)
    band[0] *= 0.5
    return t, band


def exact_transform(moll, nu, rows=500):
    """(1/pi) sum_k band_k cos(nu t_k) summed directly at every nu, on the
    rule's nodes at the largest |nu|."""
    t, band = plateau_band(moll.support, moll._nodes(np.max(np.abs(nu), initial=0.0)))
    return np.concatenate([
        np.cos(np.outer(nu[i:i + rows], t)) @ band / math.pi
        for i in range(0, nu.size, rows)
    ])


def dense_transform(support, nu, n=1 << 15, rows=16):
    """(1/pi) int_0^T plateau(t) cos(nu t) dt by the trapezoid rule on a
    fixed 2^15 + 1 nodes, whatever the rule reads: its aliases lie past
    nu T = 2 pi 2^15 - 2000, beyond every nu asked of it here.  Each phase
    nu h k is exact but for the one rounding of nu h: nu h is split into
    26-bit halves, whose products with k < 2^26 round nowhere.  Rounded
    products nu t_k err alike across a regular grid and summed to 3e-13 of
    the peak at nu T = 8e4."""
    k = np.arange(n + 1.0)
    _, band = plateau_band(support, n)
    step = np.asarray(nu, dtype=float) * (support / n)
    hi = step * 134217729.0  # Dekker's split, 2^27 + 1
    hi -= hi - step
    lo = step - hi
    out = []
    for i in range(0, step.size, rows):
        a, b = np.outer(hi[i:i + rows], k), np.outer(lo[i:i + rows], k)
        out.append((np.cos(a) * np.cos(b) - np.sin(a) * np.sin(b)) @ band / math.pi)
    return np.concatenate(out)


@pytest.mark.parametrize("support", [0.5, 3.0, 6.0])
def test_mollifier_matches_exact_transform(support, rng):
    # the band sum is exact at every nu, far beyond the fit's |nu| <= 0.6 K,
    # out to the moment grid's |nu| <= 2500
    moll = build_mollifier(support)
    nu = rng.uniform(-2500.0, 2500.0, 4000)
    peak = exact_transform(moll, np.zeros(1))[0]  # the band is nonnegative
    np.testing.assert_allclose(moll(nu), exact_transform(moll, nu),
                               rtol=0.0, atol=1e-13 * peak)
    scalar = moll(-120.0)
    assert scalar.shape == ()
    assert abs(scalar - exact_transform(moll, np.array([-120.0]))[0]) < 1e-13 * peak
    grid = nu[:12].reshape(3, 4)
    np.testing.assert_array_equal(moll(grid), moll(nu[:12]).reshape(3, 4))
    assert moll(grid[:, :0]).shape == (3, 0)


@pytest.mark.parametrize("support, reach", [(0.5, 3e4), (3.0, 3e4), (6.0, 1.6e4)])
def test_mollifier_matches_a_dense_quadrature(support, reach, rng):
    # a fixed band of 6,001 nodes aliased past nu T = 2 pi 6000 - 2000:
    # at support 3 it read rho(4000 pi) as rho(0); the node rule reads any
    # reach its table holds (16,800 at support 6) at roundoff
    moll = build_mollifier(support)
    nu = np.r_[0.0, 4000.0 * math.pi, reach, -reach, rng.uniform(-reach, reach, 150),
               rng.uniform(-2500.0, 2500.0, 150)]
    want = dense_transform(support, nu)
    np.testing.assert_allclose(moll(nu), want, rtol=0.0, atol=1e-13 * want[0])
    assert abs(moll(4000.0 * math.pi) - want[1]) < 1e-13 * want[0]


def fills_the_split(n):
    bases, offsets = _angle_split(n, 1.0)
    return bases.size * offsets.size == n + 1


def test_node_count_is_the_least_alias_free_fill(twisted_model, mollifier_t3):
    # at every reach, n puts the aliases past nu T = 2000 and its n + 1
    # nodes fill the angle-addition table, and no smaller alias-free count
    # does; the counting at the K = 40 defaults reads 361 nodes, its fit 342
    for support in (0.5, 3.0, 6.0):
        moll = build_mollifier(support)
        for reach in np.r_[0.0, np.geomspace(0.1, 1e4, 300)]:
            n = moll._nodes(reach)
            need = math.ceil((support * reach + torus._ALIAS_FREE) / TWO_PI)
            assert n >= need and fills_the_split(n)
            assert not any(fills_the_split(m) for m in range(need, n))
    spec = assemble_and_solve(twisted_model, 40, np.zeros((0, 2)))
    reach = np.max(spec.eigenvalues)
    assert 60.0 < reach < 61.0
    assert mollifier_t3._nodes(reach) == 360
    assert mollifier_t3._nodes(spec.trusted_max + 1.0) == 341
    # the last reach whose 16,384 nodes fit one 256 KiB table
    assert mollifier_t3._nodes(33645.0) == 128 ** 2 - 1


@pytest.mark.parametrize("n", [1, 3, 15, 341, 379])
def test_angle_addition_matches_the_direct_sum(n, rng):
    # nodes 0, ..., n in blocks of isqrt(n) + 1 offsets, every block full:
    # 1 x 2, 2 x 2 (n = 3), 4 x 4, 18 x 19 and 19 x 20 (the node rule's
    # counts at support 3)
    moll = build_mollifier(2.5)
    t, band = plateau_band(2.5, n)
    bases, offsets = _angle_split(n, 2.5 / n)
    nu = np.linspace(-40.0, 40.0, 161)
    phase = np.outer(nu, t)
    phi = rng.normal(size=(bases.size, offsets.size)) + 1j * rng.normal(
        size=(bases.size, offsets.size))
    # angle addition rounds each phase nu t as base plus offset, the direct
    # sum as one product: a few ulps of |nu t| per term apart, while a wrong
    # sign, table or index is an error of the order of the peak
    for got, want in (
        (moll._sum(nu, 1.0, n), np.cos(phase) @ band / math.pi),
        (moll._sum(nu, phi, n),
         (np.exp(1j * phase) @ (band * phi.ravel()[:n + 1])).real / math.pi),
    ):
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=2e-14 * np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# counting and fitting
# ---------------------------------------------------------------------------

def test_counting_window_enforced(shifted_dirac_model, mollifier_t3):
    spec = assemble_and_solve(shifted_dirac_model, 8, [[0.0, 0.0]])
    with pytest.raises(WindowViolation):
        local_counting_mollified(spec, mollifier_t3, 0, np.arange(1.0, 10.0, 0.5))


def test_counting_checks_its_point_index(shifted_dirac_model, mollifier_t3):
    # an index past the points raised an untyped IndexError, a bool failed
    # to broadcast, and -1 counted the last point
    spec = assemble_and_solve(shifted_dirac_model, 8, [[0.0, 0.0], [0.3, 0.9]])
    mu = np.arange(3.0, 4.8, 0.25)
    for i in (2, -1, True, False, 1.0, None):
        with pytest.raises(ValueError, match=r"^point index i must be an integer in "
                                             rf"\[0, 2\), not {i!r}$"):
            local_counting_mollified(spec, mollifier_t3, i, mu)
    assert np.array_equal(local_counting_mollified(spec, mollifier_t3, np.int64(1), mu).values,
                          local_counting_mollified(spec, mollifier_t3, 1, mu).values)


def test_counting_reads_a_spectrum_that_cannot_change(shifted_dirac_model, mollifier_t3):
    # a built record is fixed when made: every edit through its arrays
    # raises, and a record with other arrays counts those
    spec = assemble_and_solve(shifted_dirac_model, 16, [[0.3, 0.9]])
    mu = np.arange(2.0, 9.0, 0.5)
    first = local_counting_mollified(spec, mollifier_t3, 0, mu).values
    for arr in (spec.eigenvalues, spec.weights, spec.x_points):
        with pytest.raises(ValueError):
            arr *= 2
    doubled = dataclasses.replace(spec, weights=2 * spec.weights)
    np.testing.assert_array_equal(
        local_counting_mollified(doubled, mollifier_t3, 0, mu).values, 2 * first)
    # a caller's own arrays stay writable
    own = np.array([-1.0, 2.0]), np.zeros((1, 2)), np.ones((2, 1))
    SpectrumResult(K=8, eigenvalues=own[0], x_points=own[1], weights=own[2],
                   trusted_max=4.8)
    assert all(arr.flags.writeable for arr in own)


def test_counting_reads_a_callers_arrays_as_they_are_now(shifted_dirac_model, mollifier_t3):
    # nothing is kept on the spectrum: a record over a caller's own arrays,
    # which the caller edits after a first count, counts what a fresh record
    # of those arrays counts
    built = assemble_and_solve(shifted_dirac_model, 16, [[0.3, 0.9]])
    weights = np.array(built.weights)
    spec = SpectrumResult(K=16, eigenvalues=np.array(built.eigenvalues),
                          x_points=np.array(built.x_points), weights=weights,
                          trusted_max=built.trusted_max)
    mu = np.arange(2.0, 9.0, 0.5)
    first = local_counting_mollified(spec, mollifier_t3, 0, mu).values
    weights *= 2
    again = local_counting_mollified(spec, mollifier_t3, 0, mu).values
    fresh = local_counting_mollified(dataclasses.replace(spec), mollifier_t3, 0, mu).values
    np.testing.assert_array_equal(again, fresh)
    np.testing.assert_array_equal(again, 2 * first)


def test_counting_rejects_nan_and_empty_grids(shifted_dirac_model, mollifier_t3):
    # NaN passes both comparisons of a "< 0 or > trusted" check
    spec = assemble_and_solve(shifted_dirac_model, 8, [[0.0, 0.0]])
    for mu in ([3.0, np.nan, 4.0], [np.nan], []):
        with pytest.raises(WindowViolation):
            local_counting_mollified(spec, mollifier_t3, 0, mu)


@pytest.mark.parametrize("table, bad", [
    ("weights", np.nan), ("weights", np.inf), ("eigenvalues", np.nan), ("eigenvalues", -np.inf),
])
def test_counting_refuses_a_spectrum_that_is_not_finite(shifted_dirac_model, mollifier_t3,
                                                        table, bad):
    # a NaN weight made every sample NaN, and a NaN eigenvalue is neither
    # > 0 nor < 0, so it fell out of both branches without a word
    spec = assemble_and_solve(shifted_dirac_model, 8, [[0.0, 0.0], [0.3, 0.9]])
    arr = getattr(spec, table).copy()
    arr[(5, 0) if table == "weights" else 5] = bad
    spoiled = dataclasses.replace(spec, **{table: arr})
    name = "weights at point 0" if table == "weights" else table
    mu = np.arange(3.0, 4.8, 0.25)
    for branch in ("plus", "minus"):
        with pytest.raises(QuadratureFailure, match=f"^spectrum {name} not finite$"):
            local_counting_mollified(spoiled, mollifier_t3, 0, mu, branch)
    if table == "weights":  # another point's weight spoils no sample here
        assert np.array_equal(local_counting_mollified(spoiled, mollifier_t3, 1, mu).values,
                              local_counting_mollified(spec, mollifier_t3, 1, mu).values)


def test_local_counting_matches_global(shifted_dirac_model, mollifier_t3):
    # integral over the torus of the local count equals the global count
    spec = assemble_and_solve(shifted_dirac_model, 12, [[0.7, 0.2]])
    mu = np.arange(3.0, 7.0, 0.5)
    samples = local_counting_mollified(spec, mollifier_t3, 0, mu)
    lam = spec.eigenvalues[spec.eigenvalues > 0]
    global_count = np.array(
        [np.sum(mollifier_t3(m - lam)) for m in mu]
    ) / TWO_PI ** 2
    np.testing.assert_allclose(samples.values, global_count, atol=1e-10)
    # values are finite and smooth at grid resolution
    assert np.all(np.isfinite(samples.values))
    assert np.max(np.abs(np.diff(samples.values, 2))) < 1.0


def direct_counting(moll, reach, centers, weights, mu):
    """(1/pi) sum_k band_k sum_j weights_j cos((mu - centers_j) t_k) on the
    rule's nodes at ``reach``, the direct cosine sum of
    :func:`exact_transform` over every eigenvalue with
    cos(a - b) = cos a cos b + sin a sin b: every phase is one product, with
    no angle addition over the nodes and no interpolation."""
    t, band = plateau_band(moll.support, moll._nodes(reach))
    phase = np.outer(t, centers)
    c, s = np.cos(phase) @ weights, np.sin(phase) @ weights
    mu_phase = np.outer(mu, t)
    return (np.cos(mu_phase) @ (band * c) + np.sin(mu_phase) @ (band * s)) / math.pi


def test_counting_matches_direct_band_sum(twisted_model, mollifier_t3):
    # the branches reach 24.0 and 23.4, so the counting reads the rule's 342
    # nodes, 18 blocks of 19 offsets; an eigenvalue takes an 18-wide base
    # table, its 18-wide weighted copy and a 19-wide offset table,
    # 16 (2 * 18 + 19) bytes, so a block of the budget holds 297: the 1,090
    # positive eigenvalues fill 3 blocks and end in a partial 4th of 199,
    # the 1,088 negative ones in one of 197
    spec = assemble_and_solve(twisted_model, 16, [[1.3, 4.2], [0.3, 0.9]])
    lam = spec.eigenvalues
    mu = np.arange(2.4, 9.6 + 0.025, 0.05)
    for branch, sel, centers, partial in (("plus", lam > 0, lam[lam > 0], 199),
                                          ("minus", lam < 0, -lam[lam < 0], 197)):
        reach = np.max(centers)
        n = mollifier_t3._nodes(reach)
        bases, offsets = _angle_split(n, mollifier_t3.support / n)
        assert (bases.size, offsets.size) == (18, 19)
        rows = torus._TABLE_BYTES // (16 * (2 * bases.size + offsets.size))
        assert centers.size > rows and centers.size % rows == partial
        for i in (1, 0):
            samples = local_counting_mollified(spec, mollifier_t3, i, mu, branch)
            want = direct_counting(mollifier_t3, reach, centers, spec.weights[sel, i], mu)
            np.testing.assert_allclose(samples.values, want, rtol=0.0,
                                       atol=1e-13 * np.max(np.abs(want)))
            # the second call at a point reads the kept characteristic function
            again = local_counting_mollified(spec, mollifier_t3, i, mu, branch)
            np.testing.assert_array_equal(again.values, samples.values)


def dirac_plus(shift: float) -> TorusModel:
    """Dirac (+) (Dirac + shift): 4 x 4 fields, two decoupled Dirac systems."""
    def doubled(mat, second):
        return TrigMatrixField.constant(np.block([[mat, np.zeros((2, 2))],
                                                  [np.zeros((2, 2)), second]]))

    return TorusModel("dirac-pair", (doubled(SIGMA1, SIGMA1), doubled(SIGMA2, SIGMA2)),
                      doubled(np.zeros((2, 2)), shift * np.eye(2)))


def test_counting_keeps_a_far_copy_of_the_spectrum_apart(dirac_model, mollifier_t3):
    # the copy at 4000 pi adds rho(mu - lambda) below roundoff; a band of
    # nodes 3 / 6000 apart read it as the copy's own rho(mu - lambda + 4000 pi),
    # a second Dirac counting, 100% of the peak
    x, mu = [[0.3, 0.9]], np.arange(3.0, 9.6 + 0.025, 0.05)
    want = local_counting_mollified(assemble_and_solve(dirac_model, 16, x),
                                    mollifier_t3, 0, mu).values
    spec = assemble_and_solve(dirac_plus(4000.0 * math.pi), 16, x)
    got = local_counting_mollified(spec, mollifier_t3, 0, mu).values
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))


def test_counting_reads_its_own_branch_reach(dirac_model, mollifier_t3):
    # a copy of the spectrum at -5e4 is the minus branch's alone: the plus
    # counting's nodes come from the plus branch's reach, where the reach of
    # every eigenvalue would pass the band table
    x, mu = [[0.3, 0.9]], np.arange(3.0, 9.6 + 0.025, 0.05)
    want = local_counting_mollified(assemble_and_solve(dirac_model, 16, x),
                                    mollifier_t3, 0, mu).values
    spec = assemble_and_solve(dirac_plus(-5e4), 16, x)
    got = local_counting_mollified(spec, mollifier_t3, 0, mu).values
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))
    with pytest.raises(QuadratureFailure, match=r"^band reach 5\.002e\+04 needs more"):
        local_counting_mollified(spec, mollifier_t3, 0, mu, "minus")


def test_reach_past_the_band_table_is_a_quadrature_failure(mollifier_t3):
    # 16,384 nodes fill the 256 KiB table: past that reach, and at a nu that
    # is not finite, the sum raises before it builds a table
    tracemalloc.start()
    try:
        with pytest.raises(QuadratureFailure, match=r"^band reach 3\.365e\+04 needs more"):
            mollifier_t3(np.full(1000, 33647.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    for bad in (np.inf, -np.inf, np.nan, [1.0, np.nan]):
        with pytest.raises(QuadratureFailure, match="^band reach (inf|nan) "):
            mollifier_t3(bad)
    spec = SpectrumResult(K=100, eigenvalues=np.array([-1.0, 3.0, 4e4]),
                          x_points=np.zeros((1, 2)), weights=np.ones((3, 1)),
                          trusted_max=60.0)
    with pytest.raises(QuadratureFailure, match=r"^band reach 4\.000e\+04 needs more"):
        local_counting_mollified(spec, mollifier_t3, 0, np.arange(3.0, 9.0))


@pytest.mark.parametrize("support", [0.5, 1.0, 3.0, 6.0])
def test_plateau_transform_is_roundoff_from_the_alias_free_bound(support):
    # the plateau is scaled by T, so its transform is below 1e-14 of its
    # peak from nu T = 2000 at every support: read through the rule's nodes
    # at the reach 20000 / T, whose own aliases lie beyond it
    moll = build_mollifier(support)
    nu = np.linspace(torus._ALIAS_FREE, 20000.0, 3601) / support
    assert np.max(np.abs(moll(nu))) <= 1e-14 * moll(0.0)


SEED_POINTS = [[0.844235, 5.324583], [4.798937, 1.602646]]


@pytest.mark.parametrize("K", [16, 40])
def test_strided_counting_matches_the_full_band(twisted_model, mollifier_t3, K,
                                                monkeypatch):
    # the counting and the fit on the rule's 342 to 361 nodes against the
    # same sums on the rule's 5,112 nodes of reach 1e4
    spec = assemble_and_solve(twisted_model, K, SEED_POINTS)
    mu = np.arange(3.0, 0.6 * K + 0.025, 0.05)
    strided = {(branch, i): local_counting_mollified(spec, mollifier_t3, i, mu, branch)
               for branch in ("plus", "minus") for i in (0, 1)}
    fits = [fit_weyl(strided["plus", i], 2, (3.0, 0.6 * K), mollifier_t3) for i in (0, 1)]
    nodes = Mollifier._nodes
    monkeypatch.setattr(Mollifier, "_nodes", lambda self, reach: nodes(self, 1e4))
    for (branch, i), samples in strided.items():
        want = local_counting_mollified(spec, mollifier_t3, i, mu, branch).values
        np.testing.assert_allclose(samples.values, want, rtol=0.0,
                                   atol=1e-14 * np.max(np.abs(want)))
    for i, fit in enumerate(fits):
        want = fit_weyl(strided["plus", i], 2, (3.0, 0.6 * K), mollifier_t3)
        assert fit.columns == want.columns
        assert abs(fit.a_leading - want.a_leading) <= 1e-14
        assert abs(fit.a_second - want.a_second) <= 1e-14


def test_counting_keeps_eigenvalues_beyond_the_core():
    # at support 0.5, rho(80.5) = -1.3e-4 against a peak of 0.12: the
    # counting and the mollifier's own evaluation must both keep every
    # eigenvalue more than 80 above the grid
    moll = build_mollifier(0.5)
    gen = np.random.default_rng(7)
    lam = np.sort(np.r_[-gen.uniform(0.5, 150.0, 100), gen.uniform(0.5, 150.0, 200)])
    weights = gen.uniform(0.0, 0.05, (lam.size, 2))
    spec = SpectrumResult(K=100, eigenvalues=lam, x_points=np.zeros((2, 2)),
                          weights=weights, trusted_max=60.0)
    mu = np.linspace(2.0, 60.0, 20)
    samples = local_counting_mollified(spec, moll, 1, mu)
    nu = mu[:, None] - lam[lam > 0]
    rho = exact_transform(moll, nu.ravel()).reshape(nu.shape)
    want = rho @ weights[lam > 0, 1]
    peak = np.max(np.abs(want))
    np.testing.assert_allclose(samples.values, want, rtol=0.0, atol=1e-13 * peak)
    np.testing.assert_allclose(moll(nu) @ weights[lam > 0, 1], want,
                               rtol=0.0, atol=1e-13 * peak)


def test_spectral_tables_stay_within_the_budget(twisted_model):
    # the counting and fit of the CLI's spectral run at K = 40 and two x,
    # and the mollifier at the 10,001 points MomentGrid reads; with tables
    # of 1,024 eigenvalues and all nu rows at once they held 4.7 and 36 MB
    spec = assemble_and_solve(twisted_model, 40, ORACLE_POINTS[:2])
    moll = build_mollifier(3.0)
    mu = np.arange(3.0, 24.0 + 0.025, 0.05)
    nu = 0.25 * np.arange(10001.0)
    tracemalloc.start()
    try:
        for i in (0, 1):
            fit_weyl(local_counting_mollified(spec, moll, i, mu), 2, (3.0, 24.0), moll)
        _, counting = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        moll(nu)
        _, call = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counting < 1.5e6
    assert call < 2e6


def test_minus_branch_counts_negative_spectrum(shifted_dirac_model, mollifier_t3):
    spec = assemble_and_solve(shifted_dirac_model, 12, [[0.0, 0.0]])
    mu = np.arange(3.0, 7.0, 0.5)
    samples = local_counting_mollified(spec, mollifier_t3, 0, mu, branch="minus")
    lam = spec.eigenvalues[spec.eigenvalues < 0]
    want = np.array([np.sum(mollifier_t3(m + lam)) for m in mu]) / TWO_PI ** 2
    np.testing.assert_allclose(samples.values, want, atol=1e-10)


def test_fit_recovers_exact_polynomial(mollifier_t3):
    from weylsys.torus import CountingSamples

    mu = np.arange(3.0, 12.0, 0.05)
    values = 0.2 * mu + 0.05
    samples = CountingSamples(
        mu=mu, values=values,
        mollifier_support=3.0, trusted_max=20.0,
    )
    fit = fit_weyl(samples, 2, (3.0, 12.0))
    assert abs(fit.a_leading - 0.2) < 1e-12
    assert abs(fit.a_second - 0.05) < 1e-12
    assert fit.residual_rms < 1e-14


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_refuses_samples_that_are_not_finite(mollifier_t3, bad):
    from weylsys.torus import CountingSamples

    # a NaN sample made every coefficient NaN, and an inf one tripped
    # numpy's invalid-value warning inside the least-squares products
    mu = np.arange(3.0, 12.0, 0.05)
    values = 0.2 * mu + 0.05
    values[0] = bad
    samples = CountingSamples(
        mu=mu, values=values,
        mollifier_support=3.0, trusted_max=20.0,
    )
    for moll in (None, mollifier_t3):
        with pytest.raises(QuadratureFailure,
                           match="^counting samples in the fit window not finite$"):
            fit_weyl(samples, 2, (3.0, 12.0), mollifier=moll)
        # a sample outside the window is never read
        assert abs(fit_weyl(samples, 2, (3.5, 12.0), mollifier=moll).a_leading - 0.2) < 1e-9


def test_fit_window_must_span_factor_two(mollifier_t3):
    from weylsys.torus import CountingSamples

    mu = np.arange(8.0, 12.0, 0.05)
    samples = CountingSamples(
        mu=mu, values=np.ones_like(mu),
        mollifier_support=3.0, trusted_max=20.0,
    )
    with pytest.raises(IllConditionedFit):
        fit_weyl(samples, 2, (8.0, 12.0))


def test_fit_needs_samples_in_the_upper_window(mollifier_t3):
    from weylsys.torus import CountingSamples

    # 20 samples on [3, 3.95] of the window [3, 12]: none in its upper 60%,
    # where the bottom-column rule judges the mollifier's decay
    mu = np.arange(3.0, 4.0, 0.05)
    samples = CountingSamples(
        mu=mu, values=0.2 * mu,
        mollifier_support=3.0, trusted_max=20.0,
    )
    for moll in (None, mollifier_t3):
        with pytest.raises(IllConditionedFit, match="upper 60%"):
            fit_weyl(samples, 2, (3.0, 12.0), mollifier=moll)


def test_counting_keeps_its_own_grid(shifted_dirac_model, mollifier_t3):
    # the samples hold a read-only copy of the grid, so editing the caller's
    # grid afterwards cannot move a fit of them
    spec = assemble_and_solve(shifted_dirac_model, 16, [[0.3, 0.9]])
    mu = np.arange(3.0, 9.6, 0.05)
    samples = local_counting_mollified(spec, mollifier_t3, 0, mu)
    before = fit_weyl(samples, 2, (3.0, 9.6), mollifier=mollifier_t3)
    assert samples.mu is not mu and not samples.mu.flags.writeable
    mu *= 1.01
    assert fit_weyl(samples, 2, (3.0, 9.6), mollifier=mollifier_t3) == before


def test_fit_bottom_columns_are_the_mollifier_and_its_shift(twisted_model, mollifier_t3):
    # at K = 40 the shape decays across [3, 24], so the fit takes the bottom
    # columns rho(mu) and rho(mu - 1), each its own band sum: a sign slip in
    # the shift would move the fit off the full-band design
    spec = assemble_and_solve(twisted_model, 40, SEED_POINTS[:1])
    mu = np.arange(3.0, 24.0 + 0.025, 0.05)
    samples = local_counting_mollified(spec, mollifier_t3, 0, mu)
    fit = fit_weyl(samples, 2, (3.0, 24.0), mollifier=mollifier_t3)
    assert fit.columns == ("leading", "second", "next-order", "bottom-0", "bottom-1")
    design = np.stack([mu, np.ones_like(mu), 1.0 / mu, mollifier_t3(mu),
                       mollifier_t3(mu - 1.0)], axis=1)
    want, *_ = np.linalg.lstsq(design, samples.values, rcond=None)
    assert abs(fit.a_leading - want[0]) <= 1e-12
    assert abs(fit.a_second - want[1]) <= 1e-12


def test_fit_rejects_another_mollifier(shifted_dirac_model, mollifier_t3):
    # bottom columns of another shape than the samples' would bias the fit
    spec = assemble_and_solve(shifted_dirac_model, 24, [[0.3, 0.9]])
    mu = np.arange(3.0, 14.4 + 0.025, 0.05)
    samples = local_counting_mollified(spec, mollifier_t3, 0, mu)
    with pytest.raises(ValueError, match="support 2 differs"):
        fit_weyl(samples, 2, (3.0, 14.4), mollifier=build_mollifier(2.0))


def test_fit_window_respects_smearing_scale(mollifier_t3):
    from weylsys.torus import CountingSamples

    mu = np.arange(0.5, 12.0, 0.05)
    samples = CountingSamples(
        mu=mu, values=np.ones_like(mu),
        mollifier_support=1.0, trusted_max=20.0,
    )
    with pytest.raises(WindowViolation):
        fit_weyl(samples, 2, (0.5, 12.0))


def test_shifted_dirac_fit(shifted_dirac_model, mollifier_t3):
    spec = assemble_and_solve(shifted_dirac_model, 24, [[0.3, 0.9]])
    mu = np.arange(3.0, 14.4 + 0.025, 0.05)
    samples = local_counting_mollified(spec, mollifier_t3, 0, mu)
    fit = fit_weyl(samples, 2, (3.0, 14.4), mollifier=mollifier_t3)
    assert abs(fit.a_leading - 1.0 / TWO_PI) < 0.01 / TWO_PI
    assert abs(fit.a_second - (-0.3 / TWO_PI)) < 0.1 * 0.3 / TWO_PI


def test_dirac_fit_second_coefficient_vanishes(dirac_model, mollifier_t3):
    spec = assemble_and_solve(dirac_model, 32, [[1.0, 0.5]])
    mu = np.arange(3.0, 19.2 + 0.025, 0.05)
    samples = local_counting_mollified(spec, mollifier_t3, 0, mu)
    fit = fit_weyl(samples, 2, (3.0, 19.2), mollifier=mollifier_t3)
    assert abs(fit.a_second) < 0.01 * fit.a_leading


def test_fit_errors_match_normal_equations_when_well_conditioned(rng):
    from weylsys.torus import CountingSamples

    mu = np.arange(3.0, 14.0, 0.05)
    values = 0.3 * mu + 0.1 - 0.4 / mu + rng.normal(0.0, 1e-3, mu.size)
    samples = CountingSamples(
        mu=mu, values=values,
        mollifier_support=3.0, trusted_max=20.0,
    )
    fit = fit_weyl(samples, 2, (3.0, 14.0))
    assert fit.columns == ("leading", "second", "next-order")
    design = np.stack([mu, np.ones_like(mu), 1.0 / mu], axis=1)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    res = values - design @ coef
    cov = (res @ res / (mu.size - 3)) * np.linalg.inv(design.T @ design)
    want = np.sqrt(np.diag(cov))
    assert fit.se_leading == pytest.approx(want[0], rel=1e-12)
    assert fit.se_second == pytest.approx(want[1], rel=1e-12)


def test_fit_errors_finite_on_nearly_collinear_design():
    from weylsys.torus import _least_squares

    # cond(design) ~ 1e9, so the normal matrix is singular to working precision
    t = np.linspace(0.0, 1.0, 50)
    design = np.stack([np.ones_like(t), 1.0 + 1e-9 * t], axis=1)
    y = 2.0 + 0.5 * t + 1e-6 * np.cos(7.0 * t)
    coef, res, se = _least_squares(design, y)
    assert np.all(np.isfinite(coef)) and np.all(np.isfinite(res))
    assert np.all(np.isfinite(se)) and np.all(se > 0.0)


@pytest.mark.parametrize("repeat", [False, True], ids=["full-rank", "repeated-column"])
def test_least_squares_coefficients_match_lstsq(repeat, rng):
    from weylsys.torus import _least_squares

    # a repeated column makes the design rank-deficient: both give the
    # minimum-norm solution under the same singular-value cutoff
    design = rng.normal(size=(60, 4))
    if repeat:
        design[:, 3] = design[:, 1]
    y = rng.normal(size=60)
    want, *_ = np.linalg.lstsq(design, y, rcond=None)
    coef, _, _ = _least_squares(design, y)
    assert np.max(np.abs(coef - want)) <= 1e-12


def test_symbols_evaluate_fields_once_per_base_point(twisted_model, monkeypatch):
    from weylsys import CosphereQuadrature
    from weylsys.coefficients import CospherePanel

    calls = {"value": 0, "gradient": 0}
    for name in calls:
        original = getattr(TrigMatrixField, name)

        def counted(self, x, _name=name, _fn=original):
            calls[_name] += 1
            return _fn(self, x)

        monkeypatch.setattr(TrigMatrixField, name, counted)
    lead, sub = twisted_model.symbol_fields()
    seen = []
    for n_angles, x in ((32, (0.3, 0.0)), (256, (1.1, 2.0)), (256, (1.1, 2.0))):
        for key in calls:
            calls[key] = 0
        CospherePanel(lead, sub, np.array(x), CosphereQuadrature(n_angles=n_angles))
        seen.append(dict(calls))
    # per panel, whatever its node count: each of the two coefficient
    # fields and the potential once, and the gradients of the coefficient
    # fields once; nothing is remembered between panels, so a second panel
    # at the same x makes the same calls again
    assert seen[:2] == [{"value": 3, "gradient": 2}] * 2
    assert seen[2] == {"value": 3, "gradient": 2}
