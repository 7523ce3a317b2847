"""Resolvent-symbol route to the second coefficient.

Expand the resolvent's symmetric-quantization symbol in its two leading
terms, take its matrix trace (which collapses to a single sheet sum),
weight with the power-difference kernels, and split every phase-space
integral into an angular factor times a universal radial factor.  The
radial factors have closed forms.  The angular factors are the direct
route's own per-sheet terms: :func:`b_profile` wraps the base point's
:class:`~weylsys.coefficients.WeylCoefficients`, so a recovered value
checks the radial factors and the inversion, not the panel's integrands.
The two angle-resolved coefficients b1, b0 then recover the second
coefficient either from two angles or from an extrapolated small-angle
limit.  The matrix symbol itself, :func:`resolvent_symbol`, is R + R M R in
closed form with R = (A - z)^-1: one jet of A and one inverse, no jet of R.

Negative sheets enter b0 with a radial factor proportional to the angle
itself, so they drop out of the small-angle limit; the two-angle inversion
removes them algebraically.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, Optional

import numpy as np

from .coefficients import (
    CosphereQuadrature,
    WeylCoefficients,
    _node_terms,
    weyl_coefficients,
)
from .errors import AngleOutOfRange, QuadratureFailure, SingularResolvent
from .kernels import check_recovery_angles, kernel_moment_closed
from .symbols import (
    PhasePoint,
    SymbolField,
    check_symbol_pair,
    eigen_jet,  # not called here; perfbench/inproc.py wraps resolvent.eigen_jet
    require_hermitian,
    symbol_jets,
)

RESOLVENT_DISTANCE_TOL = 1e-8


def _check_distance(h: np.ndarray, z: complex) -> None:
    dist = float(np.min(np.abs(h - z)))
    if dist < RESOLVENT_DISTANCE_TOL:
        raise SingularResolvent(
            f"spectral parameter within {dist:.2e} of a sheet Hamiltonian"
        )


def resolvent_symbol(
    leading: SymbolField,
    nextorder: Optional[SymbolField],
    p: PhasePoint,
    z: complex,
) -> np.ndarray:
    """Two leading terms of the resolvent's symmetric-quantization symbol.

    R - R A_next R + (i/2) {R, A - z, R} with R = (A - z)^-1, everything
    evaluated pointwise; the omitted remainder is one order lower in both
    the momentum and the spectral parameter.  Since dR = -R dA R and
    R (A - z) R = R, the bracket is R [sum_alpha (A_x R A_xi - A_xi R A_x)] R,
    so the symbol is R + R M R with
    M = (i/2) sum_alpha (A_x R A_xi - A_xi R A_x) - A_next: one jet of A,
    one inverse, no jet of R.  The pair must pass
    :func:`~weylsys.symbols.check_symbol_pair`; raises :class:`NotHermitian`
    when A or A_next fails the Hermiticity rule of the eigen-jets.
    """
    check_symbol_pair(leading, nextorder)
    (value,), (dx,), (dxi,) = symbol_jets(leading, p.x, p.xi[None])
    _check_distance(np.linalg.eigvalsh(require_hermitian(value)), z)
    res = np.linalg.inv(value - z * np.eye(leading.dim))
    middle = 0.5j * np.sum(dx @ res @ dxi - dxi @ res @ dx, axis=0)
    if nextorder is not None:
        middle -= require_hermitian(nextorder(p))
    return res + res @ middle @ res


def power_trace_symbol(
    leading: SymbolField,
    nextorder: Optional[SymbolField],
    p: PhasePoint,
    z: complex,
    n: int,
) -> complex:
    """Traced symbol of (A - z)^(1-n), two leading terms, n >= 2.

    A sum over sheets, from one :func:`_node_terms` call at p, of the
    leading term (h - z)^(1-n) and the next-order term: the pole
    (-(n-1) s + (i/2)(n-1) b) / (h - z)^n of the subprincipal and bracket
    integrands s and b, plus the curvature term i c / (h - z)^(n-1).
    """
    if n < 2:
        raise ValueError("power trace requires n >= 2")
    jets, sub, bracket, curvature = _node_terms(leading, nextorder, p.x, p.xi[None])
    _check_distance(jets.h[0], z)
    total = 0.0 + 0.0j
    for h, s, b, c in zip(*(a[0].tolist() for a in (jets.h, sub, bracket, curvature))):
        pole = (-(n - 1) * s + 0.5j * (n - 1) * b) / (h - z) ** n
        curv = 1j * c / (h - z) ** (n - 1)
        total += (h - z) ** (1 - n) + (pole + curv)
    return total


def radial_factor(n: int, phi: float, sheet_sign: int) -> float:
    """Universal radial factor of the angle-resolved second coefficient.

    -2 (pi - phi) for positive sheets; the negative-sheet factor follows
    from the same closed moment form with the spectral parameter reflected
    through the origin and equals (-1)^n * 2 phi.  Both are independent of
    which of the two integrand splittings they multiply, and of n for
    positive sheets.
    """
    if not 0.0 < phi < math.pi:
        raise AngleOutOfRange(f"phi must lie in (0, pi), got {phi}")
    if sheet_sign not in (1, -1):
        raise ValueError(f"sheet sign must be 1 or -1, got {sheet_sign}")
    z = cmath.exp(1j * phi)
    if sheet_sign > 0:
        val = 1j * kernel_moment_closed(n, z, power=n - 1)
    else:
        val = 1j * (-1.0) ** n * kernel_moment_closed(n, -z, power=n - 1)
    if abs(val.imag) > 1e-12:
        raise QuadratureFailure("radial factor failed to come out real")
    return float(val.real)


@dataclass(frozen=True)
class BProfile:
    """Angle-resolved expansion coefficients at a fixed base point.

    ``coefficients`` is the base point's
    :class:`~weylsys.coefficients.WeylCoefficients`: its per-sheet volumes
    and angular factors (``terms``) are computed once, and evaluation at
    any angle applies the closed-form radial and kernel factors.  It gives
    the direct coefficients too, from the same panel.
    """

    coefficients: WeylCoefficients

    def b1(self, phi: float) -> float:
        if not 0.0 < phi < math.pi:
            raise AngleOutOfRange(f"phi must lie in (0, pi), got {phi}")
        z = cmath.exp(1j * phi)
        total = 0.0 + 0.0j
        n = len(self.coefficients.x)
        for d in self.coefficients.terms:
            if d.sign > 0:
                moment = kernel_moment_closed(n - 1, z, power=n - 1)
            else:
                moment = (-1.0) ** (n - 1) * kernel_moment_closed(n - 1, -z, power=n - 1)
            total += 1j * (n * d.volume) * moment
        value = total / (2.0 * math.pi) ** n
        return float(value.real)

    def b0_sheet(self, phi: float, sheet: int) -> float:
        n = len(self.coefficients.x)
        for d in self.coefficients.terms:
            if d.sheet == sheet:
                return (d.c_first + d.c_second) * radial_factor(n, phi, d.sign)
        raise ValueError(f"no sheet {sheet}")

    def b0(self, phi: float) -> float:
        total = sum(self.b0_sheet(phi, d.sheet) for d in self.coefficients.terms)
        value = total / (2.0 * math.pi) ** len(self.coefficients.x)
        if not math.isfinite(value):  # a finite panel term times a radial factor overflows
            raise QuadratureFailure(f"b0 at phi = {phi:g} is not finite")
        return value


def b_profile(
    leading: SymbolField,
    nextorder: Optional[SymbolField],
    x: np.ndarray,
    quad_rule: CosphereQuadrature = CosphereQuadrature(),
) -> BProfile:
    """Compute the angle-independent sheet data for the b coefficients."""
    return BProfile(weyl_coefficients(leading, nextorder, x, quad_rule))


def recover_second_weyl(
    b0_values: Mapping[float, float],
    method: str = "two-angle",
) -> float:
    """Invert angle-resolved b0 values to the plus-branch second coefficient.

    'two-angle' uses exactly two angles; 'limit' fits an affine model to a
    decreasing angle sequence and extrapolates to zero angle (exact for the
    affine dependence the expansion guarantees).  The limit fit is the
    least-squares line in closed form, from centred sums: slope
    sum (phi - mean phi)(b0 - mean b0) / sum (phi - mean phi)^2 and intercept
    mean b0 - slope * mean phi.  The angles must pass
    :func:`~weylsys.kernels.check_recovery_angles`, whose spread of at least
    1e-6 keeps the slope's denominator away from zero.  A value that is not
    finite raises :class:`QuadratureFailure`.
    """
    angles = check_recovery_angles(b0_values, method)
    if method == "two-angle":
        p1, p2 = angles
        value = (p1 * b0_values[p2] - p2 * b0_values[p1]) / (
            2.0 * math.pi * (p2 - p1)
        )
    else:
        arr = np.array(angles)
        vals = np.array([b0_values[a] for a in angles])
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            dphi = arr - arr.mean()
            slope = (dphi @ (vals - vals.mean())) / (dphi @ dphi)
            value = -(vals.mean() - slope * arr.mean()) / (2.0 * math.pi)
    if not math.isfinite(value):
        raise QuadratureFailure(f"{method} recovery is not finite")
    return value
