"""Resolvent power-difference kernels and their closed-form moment integrals.

The recovery route weights the spectral measure with the family

    k_n(mu, z) = 2/(mu - z)^n - 1/(mu - 2z)^n - (complex conjugate terms),

a purely imaginary function of real mu for any non-real z.  The two moment
integrals int_0^inf k_n mu^n dmu and int_0^inf k_n mu^(n-1) dmu have closed
forms; the second one is evaluated with the complex argument taken in
[0, 2pi) (branch cut along the positive real axis), which is what makes the
positive and negative spectral branches separable.

The numeric moment evaluator is deliberately independent of the closed
forms: adaptive Gauss-Legendre quadrature on [0, R] (a 20/40-point pair on
every interval, halving all unconverged intervals at once) plus an analytic
large-mu tail summed from the kernel's asymptotic expansion.  It serves as
the standing oracle for the closed forms.  :func:`check_recovery_angles`
lives here so the CLI checks a configuration without loading the recovery
route.  The module needs numpy only.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

from .errors import AngleOutOfRange, DegenerateAngles, QuadratureFailure, RealSpectralParameter


def power_difference_kernel(mu, z: complex, n: int):
    """k_n(mu, z); accepts scalar or array mu.  Im z must be nonzero."""
    if n < 1:
        raise ValueError("kernel index must be >= 1")
    z = complex(z)
    if z.imag == 0.0:
        raise RealSpectralParameter("kernel undefined for real spectral parameter")
    mu = np.asarray(mu, dtype=float)
    w = 2.0 / (mu - z) ** n - 1.0 / (mu - 2 * z) ** n
    out = w - np.conj(w)
    return complex(out) if out.ndim == 0 else out


def arg_positive_cut(w: complex) -> float:
    """Argument of w in [0, 2pi), branch cut along the positive real axis."""
    a = cmath.phase(w)
    if a < 0.0:
        a += 2.0 * math.pi
    return a


def kernel_moment_closed(n: int, z: complex, power: int) -> complex:
    """Closed form of int_0^inf k_n(mu, z) mu^power dmu for power in {n, n-1}.

    power = n   ->  4 n i (ln 2) Im z
    power = n-1 ->  i pi (1 + sgn Im z) - i Arg(z^2),  Arg in [0, 2pi).
    """
    if n < 1:
        raise ValueError("kernel index must be >= 1")
    z = complex(z)
    if z.imag == 0.0:
        raise RealSpectralParameter("moment undefined for real spectral parameter")
    if power == n:
        return 4.0j * n * math.log(2.0) * z.imag
    if power == n - 1:
        sgn = 1.0 if z.imag > 0 else -1.0
        return 1j * math.pi * (1.0 + sgn) - 1j * arg_positive_cut(z * z)
    raise ValueError(f"power must be n or n-1, got {power} with n={n}")


def _tail_coefficients(z: complex, n: int, kmax: int) -> list[complex]:
    """Coefficients a_k of k_n(mu, z) ~ sum_k a_k mu^(-n-k) for large mu."""
    coeffs = []
    for k in range(kmax + 1):
        c = math.comb(n + k - 1, k) * (2.0 - 2.0 ** k)
        coeffs.append(c * 2j * (z ** k).imag)
    return coeffs


# Most subintervals one adaptive integral may use (the bound QUADPACK's
# ``limit`` puts on its partition).
_MAX_INTERVALS = 400
# Agreement of the two rules counts as converged below this multiple of
# the integral of |f| (QUADPACK's roundoff floor, 50 machine epsilons).
_ROUNDOFF = 50.0 * np.finfo(float).eps
# The numeric moment's cutoff R / |z|, relative accuracy and tail length.
_CUTOFF_FACTOR = 50.0
_REL_TOL = 1e-10
_TAIL_TERMS = 40


def gauss_legendre(n: int) -> tuple:
    """n-point Gauss-Legendre nodes and weights on [-1, 1] by Golub-Welsch:
    the eigenvalues of the Jacobi matrix (off-diagonal k / sqrt(4 k^2 - 1))
    and 2 v_0^2 from its unit eigenvectors, symmetrised as numpy's
    ``leggauss`` does, which would import ``numpy.polynomial``."""
    k = np.arange(1.0, n)
    nodes, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    weights = 2.0 * vectors[0] ** 2
    return (nodes - nodes[::-1]) / 2.0, (weights + weights[::-1]) / 2.0


@lru_cache(maxsize=None)
def _gauss_pair() -> tuple:
    """20- and 40-point Gauss-Legendre nodes and weights on [-1, 1]."""
    return gauss_legendre(20), gauss_legendre(40)


def _adaptive_gauss(f, breakpoints, abs_tol: float, rel_tol: float) -> tuple:
    """Integral of a vectorised f over [breakpoints[0], breakpoints[-1]].

    Every open interval gets a 20- and a 40-point Gauss-Legendre rule; the
    40-point value is kept once the two agree to the interval's share (by
    width) of max(abs_tol, rel_tol * |integral|), or to roundoff, and every
    other interval is halved, all of them in one pass.  Returns (value,
    error estimate); raises :class:`QuadratureFailure` when the partition
    would exceed ``_MAX_INTERVALS`` intervals.
    """
    (x20, w20), (x40, w40) = _gauss_pair()
    lo = np.asarray(breakpoints[:-1], dtype=float)
    hi = np.asarray(breakpoints[1:], dtype=float)
    length = hi[-1] - lo[0]
    done, value, error = 0, 0.0, 0.0
    while lo.size:
        if done + lo.size > _MAX_INTERVALS:
            raise QuadratureFailure(
                f"adaptive rule needs more than {_MAX_INTERVALS} intervals"
            )
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        f40 = f(mid[:, None] + half[:, None] * x40)
        g20 = half * (f(mid[:, None] + half[:, None] * x20) @ w20)
        g40 = half * (f40 @ w40)
        err = np.abs(g40 - g20)
        tol = max(abs_tol, rel_tol * abs(value + np.sum(g40)))
        # an interval whose rules agree to roundoff cannot do better
        roundoff = _ROUNDOFF * half * (np.abs(f40) @ w40)
        ok = err <= np.maximum(tol * (2.0 * half / length), roundoff)
        done += int(np.count_nonzero(ok))
        value += float(np.sum(g40[ok]))
        error += float(np.sum(err[ok]))
        lo = np.concatenate([lo[~ok], mid[~ok]])
        hi = np.concatenate([mid[~ok], hi[~ok]])
    return value, error


def kernel_moment_numeric(n: int, z: complex, power: int) -> complex:
    """Numeric moment integral: adaptive quadrature on [0, R] + analytic tail.

    R = ``_CUTOFF_FACTOR`` |z|, with breakpoints at |z| and 2|z|.  The tail
    uses the large-mu expansion of the kernel; each term integrates in
    closed form.  Raises :class:`QuadratureFailure` if the adaptive rule
    reports a large error or runs out of intervals.
    """
    z = complex(z)
    if z.imag == 0.0:
        raise RealSpectralParameter("moment undefined for real spectral parameter")
    if power not in (n, n - 1):
        raise ValueError(f"power must be n or n-1, got {power} with n={n}")
    radius = _CUTOFF_FACTOR * abs(z)

    def integrand(mu: np.ndarray) -> np.ndarray:
        return power_difference_kernel(mu, z, n).imag * mu ** power

    val, err = _adaptive_gauss(
        integrand, (0.0, abs(z), 2 * abs(z), radius), 1e-12, _REL_TOL
    )
    if err > 1e-6 * max(1.0, abs(val)):
        raise QuadratureFailure(f"kernel moment error estimate {err:.2e} too large")
    # Tail: sum_k a_k int_R^inf mu^(power-n-k) dmu; exponent power-n-k <= -2
    # for k >= 2 (the k = 0, 1 coefficients vanish identically).  All
    # _TAIL_TERMS terms: a_k ~ Im z^k vanishes at k = 6 for every angle that
    # is a multiple of pi/6, while later terms do not.
    tail = 0.0 + 0.0j
    for k, a_k in enumerate(_tail_coefficients(z, n, _TAIL_TERMS)):
        expo = power - n - k
        if expo >= -1:
            if a_k != 0:
                raise QuadratureFailure("non-integrable tail term; bad power")
            continue
        tail += a_k * (-(radius ** (expo + 1)) / (expo + 1))
    return 1j * val + tail


def expansion_b_coefficients(
    a_first_plus: float,
    a_first_minus: float,
    a_second_plus: float,
    a_second_minus: float,
    n: int,
    phi: float,
) -> tuple[float, float]:
    """Closed forms of the two angle-resolved expansion coefficients.

    b1 = -4 (ln 2)(n-1)(sin phi) [a_first_plus + (-1)^n a_first_minus]
    b0 = -2 [(pi - phi) a_second_plus + (-1)^n phi a_second_minus]
    """
    if not 0.0 < phi < math.pi:
        raise AngleOutOfRange(f"phi must lie in (0, pi), got {phi}")
    sign = (-1.0) ** n
    b1 = -4.0 * math.log(2.0) * (n - 1) * math.sin(phi) * (
        a_first_plus + sign * a_first_minus
    )
    b0 = -2.0 * ((math.pi - phi) * a_second_plus + sign * phi * a_second_minus)
    return b1, b0


def check_recovery_angles(angles, method: str) -> list:
    """The angles a recovery ``method`` can invert, sorted ascending.

    Each must lie in (0, pi) (:class:`AngleOutOfRange`); 'two-angle' takes
    exactly two and 'limit' at least two (``ValueError``), and they must
    spread over at least 1e-6 (:class:`DegenerateAngles`).
    """
    angles = sorted(angles)
    for a in angles:
        if not 0.0 < a < math.pi:
            raise AngleOutOfRange(f"angle {a} outside (0, pi)")
    if method not in ("two-angle", "limit"):
        raise ValueError("method must be 'two-angle' or 'limit'")
    if method == "two-angle" and len(angles) != 2:
        raise ValueError("two-angle recovery needs exactly two angles")
    if len(angles) < 2:
        raise ValueError("limit recovery needs at least two angles")
    if angles[-1] - angles[0] < 1e-6:
        raise DegenerateAngles(f"angles {angles} spread less than 1e-6")
    return angles
