"""Kernel family tests: structure, derivative ladder, moment closed forms."""

import cmath
import math

import numpy as np
import pytest

from weylsys import (
    expansion_b_coefficients,
    kernel_moment_closed,
    kernel_moment_numeric,
    power_difference_kernel,
)
from weylsys.errors import AngleOutOfRange, QuadratureFailure, RealSpectralParameter
from weylsys.kernels import _adaptive_gauss, arg_positive_cut, gauss_legendre


def test_kernel_is_purely_imaginary(rng):
    for _ in range(30):
        mu = rng.uniform(0.0, 10.0)
        z = complex(rng.normal(), rng.normal())
        if z.imag == 0:
            continue
        n = int(rng.integers(1, 6))
        val = power_difference_kernel(mu, z, n)
        assert abs(val.real) < 1e-14 * max(1.0, abs(val))


def test_real_parameter_rejected():
    with pytest.raises(RealSpectralParameter):
        power_difference_kernel(1.0, 2.0 + 0.0j, 3)


def test_derivative_ladder(rng):
    # d/dmu k_n = -n k_(n+1), via central differences
    for _ in range(10):
        mu = rng.uniform(0.5, 5.0)
        z = complex(rng.normal(), rng.normal() + 1.2)
        n = int(rng.integers(1, 5))
        h = 1e-5
        fd = (
            power_difference_kernel(mu + h, z, n)
            - power_difference_kernel(mu - h, z, n)
        ) / (2 * h)
        want = -n * power_difference_kernel(mu, z, n + 1)
        assert abs(fd - want) < 1e-7 * max(1.0, abs(want))


def test_magnitude_bound(rng):
    # |k_n| <= 4/|mu - z|^n + 2/|mu - 2z|^n
    for _ in range(10000):
        mu = rng.uniform(0.0, 20.0)
        z = complex(rng.normal(), rng.normal())
        if abs(z.imag) < 1e-3:
            continue
        n = int(rng.integers(1, 6))
        val = abs(power_difference_kernel(mu, z, n))
        bound = 4.0 / abs(mu - z) ** n + 2.0 / abs(mu - 2 * z) ** n
        assert val <= bound * (1 + 1e-12)


def test_scaling_homogeneity(rng):
    # k_n(t mu, t z) = t^-n k_n(mu, z) for t > 0
    for _ in range(20):
        mu = rng.uniform(0.1, 5.0)
        z = complex(rng.normal(), rng.normal() + 0.8)
        n = int(rng.integers(1, 6))
        t = rng.uniform(0.1, 7.0)
        lhs = power_difference_kernel(t * mu, t * z, n)
        rhs = t ** (-n) * power_difference_kernel(mu, z, n)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_conjugate_parameter_flips_sign(rng):
    for _ in range(20):
        mu = rng.uniform(0.0, 5.0)
        z = complex(rng.normal(), rng.normal() + 0.5)
        n = int(rng.integers(1, 6))
        lhs = power_difference_kernel(mu, np.conj(z), n)
        rhs = -power_difference_kernel(mu, z, n)
        assert abs(lhs - rhs) < 1e-13 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# Moment integrals
# ---------------------------------------------------------------------------

def test_arg_positive_cut():
    assert arg_positive_cut(1.0 + 0.0j) == 0.0
    assert abs(arg_positive_cut(1j) - math.pi / 2) < 1e-15
    assert abs(arg_positive_cut(-1j) - 3 * math.pi / 2) < 1e-15
    assert abs(arg_positive_cut(-1.0 + 0.0j) - math.pi) < 1e-15


def test_moment_power_n_spot_value():
    # n = 3, z on the unit circle at angle pi/3: 12 i ln2 sin(pi/3)
    z = cmath.exp(1j * math.pi / 3)
    got = kernel_moment_closed(3, z, power=3)
    want = 12j * math.log(2.0) * math.sin(math.pi / 3)
    assert abs(got - want) < 1e-15


def test_moment_power_nm1_upper_half():
    # z = exp(i phi), Im z > 0: i (2 pi - 2 phi)
    for phi in (0.3, 1.1, 2.6):
        z = cmath.exp(1j * phi)
        got = kernel_moment_closed(4, z, power=3)
        want = 1j * (2 * math.pi - 2 * phi)
        assert abs(got - want) < 1e-14


def test_moment_power_nm1_lower_half():
    # Im z < 0: no 2 pi i term, argument wraps to 2 phi
    for phi in (0.3, 1.1):
        z = cmath.exp(-1j * phi)
        got = kernel_moment_closed(2, z, power=1)
        want = -1j * (2 * math.pi - 2 * phi)
        assert abs(got - want) < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "phi",
    # the last five: poles within 0.05 of the real axis, and Im z < 0
    [math.pi / 6, math.pi / 2, 5 * math.pi / 6,
     0.05, math.pi - 0.05, -0.05, -math.pi / 2, -(math.pi - 0.05)],
)
def test_numeric_matches_closed(n, phi):
    z = cmath.exp(1j * phi)
    for power in (n, n - 1):
        closed = kernel_moment_closed(n, z, power)
        numeric = kernel_moment_numeric(n, z, power)
        assert abs(closed - numeric) < 1e-6 * max(1.0, abs(closed))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("phi", [math.pi / 2, math.pi / 6], ids=["z=i", "z=e^(i pi/6)"])
def test_numeric_tail_sums_past_vanishing_terms(n, phi):
    # a_k ~ Im z^k vanishes at k = 6 for both z (and at every even k for
    # z = i); a tail stopped there misses a_7, 2.7e-9 for n = 1 at z = i
    z = cmath.exp(1j * phi)
    for power in (n, n - 1):
        closed = kernel_moment_closed(n, z, power)
        numeric = kernel_moment_numeric(n, z, power)
        assert abs(closed - numeric) <= 1e-12 * abs(closed)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_numeric_matches_adaptive_quadpack(n):
    from scipy.integrate import quad

    for phi in (math.pi / 6, math.pi / 2, 5 * math.pi / 6):
        z = cmath.exp(1j * phi)
        for power in (n, n - 1):
            def integrand(mu):
                return power_difference_kernel(mu, z, n).imag * mu ** power

            want, _ = quad(integrand, 0.0, 50.0, limit=400, epsabs=1e-12,
                           epsrel=1e-10, points=[1.0, 2.0])
            got, err = _adaptive_gauss(integrand, (0.0, 1.0, 2.0, 50.0), 1e-12, 1e-10)
            assert abs(got - want) <= 1e-9 * abs(want)
            assert err <= 1e-10 * abs(want)


@pytest.mark.parametrize("n", [3, 20, 32, 40, 80])
def test_golub_welsch_rule_matches_numpy(n):
    # the rules of the adaptive pair, the polar cosine and the bump step;
    # leggauss's weights are themselves 7e-14 to 1.1e-12 off at n = 20-80
    nodes, weights = gauss_legendre(n)
    want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(nodes - want_nodes)) <= 4.4e-16
    np.testing.assert_allclose(weights, want_weights, rtol=2e-12, atol=0.0)
    np.testing.assert_array_equal(nodes, -nodes[::-1])
    np.testing.assert_array_equal(weights, weights[::-1])
    # exact on every monomial up to x^(2n - 1)
    powers = np.arange(2 * n)
    exact = np.where(powers % 2 == 0, 2.0 / (powers + 1), 0.0)
    np.testing.assert_allclose((nodes[:, None] ** powers).T @ weights, exact,
                               rtol=0.0, atol=4e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 20, 40, 80])
def test_newton_rule_matches_numpy_to_roundoff(n):
    # Newton's method on the three-term recurrence, down to the lone node 0;
    # its weights are nearer the true ones than leggauss's (7e-14 to 1.1e-12
    # off at n = 20-80), so agreement is bounded by numpy's error
    nodes, weights = gauss_legendre(n)
    want_nodes, want_weights = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(nodes - want_nodes)) <= 1e-14
    assert np.max(np.abs(weights - want_weights)) <= 1e-14
    np.testing.assert_array_equal(nodes, -nodes[::-1])
    powers = np.arange(2 * n)
    exact = np.where(powers % 2 == 0, 2.0 / (powers + 1), 0.0)
    np.testing.assert_allclose((nodes[:, None] ** powers).T @ weights, exact,
                               rtol=0.0, atol=4e-15)


def test_rule_needs_a_node():
    with pytest.raises(ValueError, match="n >= 1"):
        gauss_legendre(0)


def test_adaptive_rule_resolves_a_narrow_peak():
    # a Lorentzian of width 1e-4 centred away from every breakpoint
    width = 1e-4
    got, _ = _adaptive_gauss(
        lambda x: width / ((x - 0.3) ** 2 + width ** 2), (0.0, 1.0), 1e-12, 1e-10
    )
    want = math.atan(0.7 / width) + math.atan(0.3 / width)
    assert abs(got - want) < 1e-9 * want


@pytest.mark.parametrize(
    "integrand", [lambda x: 1.0 / x, lambda x: np.full_like(x, np.nan)]
)
def test_adaptive_rule_fails_when_it_cannot_converge(integrand):
    with pytest.raises(QuadratureFailure):
        _adaptive_gauss(integrand, (0.0, 1.0), 1e-12, 1e-10)


def test_moment_rejects_bad_power():
    with pytest.raises(ValueError):
        kernel_moment_closed(3, 1j, power=1)


@pytest.mark.parametrize("power", [0, -1])
def test_moments_reject_a_kernel_index_below_one(power):
    # the kernel k_0 is not defined; both evaluators refuse it alike
    for moment in (kernel_moment_closed, kernel_moment_numeric):
        with pytest.raises(ValueError, match="kernel index"):
            moment(0, 1j, power)


# ---------------------------------------------------------------------------
# Closed-form expansion coefficients
# ---------------------------------------------------------------------------

def test_b_zero_when_second_coefficients_vanish():
    b1, b0 = expansion_b_coefficients(0.2, 0.1, 0.0, 0.0, 2, 0.7)
    assert b0 == 0.0
    assert b1 != 0.0


def test_b_right_angle_even_dimension():
    # phi = pi/2, even n: b0 = -pi (a0+ + a0-)
    a0p, a0m = 0.4, -0.7
    _, b0 = expansion_b_coefficients(1.0, 1.0, a0p, a0m, 2, math.pi / 2)
    assert abs(b0 - (-math.pi * (a0p + a0m))) < 1e-14


def test_angle_validation():
    with pytest.raises(AngleOutOfRange):
        expansion_b_coefficients(1, 1, 1, 1, 2, 0.0)
    with pytest.raises(AngleOutOfRange):
        expansion_b_coefficients(1, 1, 1, 1, 2, math.pi)
