"""Local Weyl coefficient densities from symbol data.

The leading coefficient is a phase-space volume: for each positive sheet,
the volume of the region where the sheet Hamiltonian is below one.  The
second coefficient adds three scalar integrand terms per sheet: the
next-order symbol traced against the eigenprojection, a bracket term built
from the leading symbol, and a curvature term built from the
eigenprojection alone.  Homogeneity reduces every region integral to a
cosphere quadrature, which for n = 2 is a plain periodic trapezoid rule
(spectrally accurate).

The bracket and curvature terms are taken in their projection forms,
which are entirely gauge-free.  The algebraically equal eigenvector forms
of the earlier literature serve only as a test oracle, in
``tests/conftest.py``.

All of it comes from one :class:`CospherePanel` per base point: one
stacked call of each symbol field over every cosphere node, one stacked
eigen-jet (:func:`~weylsys.symbols.eigen_jet_stack`), and per-sheet
integrand arrays; :func:`_node_terms` builds them for any stack of
covectors, a single one included.  The bracket and the curvature share one
trace, T[k, j] = tr {P_k, P_j, P_k}: since A - h_k = sum_j (h_j - h_k) P_j,
the bracket integrand tr {P_k, A - h_k, P_k} is sum_j (h_j - h_k) T[k, j],
and the curvature integrand is T[k, k].  Both branches read the same panel.
The sign-flipped operator has the same projections and negated sheets, so
its positive sheets are the negative sheets here with h, the subprincipal
integrand and the bracket integrand negated and the curvature integrand
unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ComplexResidue, NotElliptic
from .symbols import (
    DEFAULT_STEP,
    SymbolField,
    check_symbol_pair,
    eigen_jet,  # not called here; perfbench/inproc.py wraps coefficients.eigen_jet
    eigen_jet_stack,
    require_hermitian,
    symbol_jets,
)

IMAG_RESIDUE_TOL = 1e-6


@dataclass(frozen=True)
class CosphereQuadrature:
    """Angular quadrature rule on the unit sphere of the cotangent fibre.

    For n = 2 a uniform angle grid with trapezoid weights; for n = 3 a
    Gauss-Legendre rule in the polar cosine crossed with a trapezoid in
    azimuth.  ``n_angles`` counts azimuthal nodes and must be >= 16, even.
    """

    n_angles: int = 256
    n_polar: int = 32

    def __post_init__(self):
        if self.n_angles < 16 or self.n_angles % 2 != 0:
            raise ValueError("n_angles must be an even integer >= 16")

    def nodes(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Unit vectors (rows) and weights integrating over the unit sphere."""
        if n == 2:
            theta = 2.0 * math.pi * np.arange(self.n_angles) / self.n_angles
            omega = np.stack([np.cos(theta), np.sin(theta)], axis=1)
            weights = np.full(self.n_angles, 2.0 * math.pi / self.n_angles)
            return omega, weights
        if n == 3:
            c, w_c = np.polynomial.legendre.leggauss(self.n_polar)
            phi = 2.0 * math.pi * np.arange(self.n_angles) / self.n_angles
            sin_t = np.sqrt(1.0 - c ** 2)[:, None]
            polar = np.broadcast_to(c[:, None], (self.n_polar, self.n_angles))
            omega = np.stack([sin_t * np.cos(phi), sin_t * np.sin(phi), polar], axis=-1)
            weights = np.repeat(w_c * (2.0 * math.pi / self.n_angles), self.n_angles)
            return omega.reshape(-1, 3), weights
        raise ValueError(f"cosphere quadrature implemented for n in {{2, 3}}, got {n}")


@dataclass(frozen=True)
class SheetSecondTerms:
    """Region-integrated cosphere data for one sheet.

    ``volume`` is the phase-space volume of {|h_sheet| < 1};
    ``c_first``/``c_second`` are the two angular factors (projection-form
    production values); the three ``term_*`` fields give the breakdown of
    this sheet's contribution to the second coefficient density, already
    carrying the dimensional prefactors.
    """

    sheet: int
    sign: int
    volume: float
    c_first: float
    c_second: float
    term_sub: float
    term_bracket: float
    term_curvature: float

    @property
    def total(self) -> float:
        return self.term_sub + self.term_bracket + self.term_curvature


@dataclass(frozen=True)
class WeylCoefficients:
    """Leading and second local coefficient densities at one point.

    ``breakdown`` maps each positive sheet label of the original operator
    to its :class:`SheetSecondTerms`; the minus-branch values are those of
    the sign-flipped operator.
    """

    x: np.ndarray
    a_first_plus: float
    a_first_minus: float
    a_second_plus: float
    a_second_minus: float
    breakdown: dict = field(default_factory=dict)


@dataclass(frozen=True)
class SecondWeylResult:
    """Second coefficient density at one point with per-sheet breakdown."""

    value: float
    sheets: dict  # positive sheet label -> SheetSecondTerms


def _trace_bracket(d_x: np.ndarray, middle: np.ndarray, d_xi: np.ndarray) -> np.ndarray:
    """T[k, j] = tr {F_k, G_j, F_k} = sum_alpha tr(G_j [F_xi, F_x]_k), (N, m, m).

    ``d_x``/``d_xi`` are (N, n, m, m, m) sheet-matrix derivatives indexed
    [node, axis, sheet k], ``middle`` is (N, m, m, m) indexed [node, sheet j].
    """
    path = "nakij,nakjl->nkil"
    commutator = np.einsum(path, d_xi, d_x) - np.einsum(path, d_x, d_xi)
    return np.einsum("nkil,njli->nkj", commutator, middle)


def _node_terms(
    leading: SymbolField,
    nextorder: Optional[SymbolField],
    x: np.ndarray,
    xi: np.ndarray,
    step: float,
) -> tuple:
    """Eigen-jets and projection-form integrands at x and every row of xi.

    One stacked call of each field, one stacked eigen-jet and one trace
    T[k, j] = tr {P_k, P_j, P_k}: the curvature integrand is T[k, k] and the
    bracket integrand sum_j (h_j - h_k) T[k, j].  Returns the
    :class:`~weylsys.symbols.EigenJet` of the N nodes and the subprincipal,
    bracket and curvature integrands, each (N, m).  The pair must pass
    :func:`~weylsys.symbols.check_symbol_pair`, and both symbols' values
    :func:`~weylsys.symbols.require_hermitian` (:class:`NotHermitian`).
    """
    check_symbol_pair(leading, nextorder)
    jets = eigen_jet_stack(*symbol_jets(leading, x, xi, step))
    sub = (np.einsum("nij,nkji->nk", require_hermitian(nextorder.values(x, xi)), jets.P)
           if nextorder is not None else np.zeros(jets.h.shape, dtype=complex))
    trace = _trace_bracket(jets.dP_x, jets.P, jets.dP_xi)
    split = jets.h[:, None, :] - jets.h[:, :, None]  # [k, j] = h_j - h_k
    bracket = np.einsum("nkj,nkj->nk", split, trace)
    curvature = trace.diagonal(axis1=1, axis2=2)
    return jets, sub, bracket, curvature


class CospherePanel:
    """Per-sheet integrand samples over the cosphere nodes at fixed x.

    Evaluates each symbol field once for all nodes, takes one stacked
    eigen-jet of the leading symbol and keeps the projection-form
    integrands as (N, m) arrays.  Every node must pass the Hermiticity,
    ellipticity and gap rules, whose one threshold is relative to the
    largest eigenvalue magnitude over all nodes (a per-matrix threshold
    would let a uniformly tiny, hence degenerate, symbol through), and the
    sheet signature must be the same at every node.  Quadrature sums run
    through numpy's pairwise reduction in a fixed node order, so results
    are reproducible bit-for-bit for a given configuration.

    ``branch=-1`` in the methods below reads the sign-flipped operator off
    the same panel (see the module docstring).
    """

    def __init__(
        self,
        leading: SymbolField,
        nextorder: Optional[SymbolField],
        x: np.ndarray,
        quad: CosphereQuadrature,
        step: float = DEFAULT_STEP,
    ):
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            raise ValueError("non-finite base point")
        self.x = x
        self.n = x.size
        omega, self.weights = quad.nodes(self.n)
        self.jets, self.sub, self.bracket, self.curvature = _node_terms(
            leading, nextorder, x, omega, step
        )
        self.sheets = self.jets.sheets[0]
        if np.any(self.jets.sheets != self.sheets):
            raise NotElliptic("sheet signature changed across the cosphere")
        self.h = self.jets.h
        self.eta = np.abs(self.h)

    def positions(self) -> range:
        return range(self.sheets.size)

    def branch_positions(self, branch: int = 1) -> list:
        """Positions of one branch's sheets, in that branch's ascending order.

        The positive sheets for ``branch=1``; for ``branch=-1`` the
        negative sheets, which are the positive sheets of the sign-flipped
        operator.
        """
        return [pos for pos in self.positions()[::branch] if branch * self.sheets[pos] > 0]

    def region_integral(self, pos: int, samples: np.ndarray) -> complex:
        """Integral of a degree-0 scalar over {|h_sheet| < 1} from node samples."""
        eta = self.eta[:, pos]
        return np.sum(self.weights * samples * eta ** (-self.n)) / self.n

    def volume(self, pos: int) -> float:
        """Phase-space volume of {|h_sheet| < 1}, the same for both branches."""
        return float(self.region_integral(pos, np.ones(len(self.weights))).real)

    def second_terms(self, pos: int, branch: int = 1) -> SheetSecondTerms:
        """Region-integrated second-coefficient pieces for one sheet.

        With ``branch=-1`` the sheet is read as a sheet of the sign-flipped
        operator: label, h, subprincipal and bracket integrands change sign.
        """
        n = self.n
        pref = n * (n - 1) / (2.0 * math.pi) ** n
        h = branch * self.h[:, pos]
        int_sub = self.region_integral(pos, branch * self.sub[:, pos])
        int_brack = self.region_integral(pos, branch * self.bracket[:, pos])
        int_curv = self.region_integral(pos, h * self.curvature[:, pos])
        term_sub = -pref * int_sub
        term_bracket = pref * 0.5j * int_brack
        term_curv = (n * 1j / (2.0 * math.pi) ** n) * int_curv
        c_first = -n * (n - 1) * (int_sub - 0.5j * int_brack)
        c_second = n * 1j * int_curv
        for name, val in (
            ("subprincipal", term_sub),
            ("bracket", term_bracket),
            ("curvature", term_curv),
            ("c_first", c_first),
            ("c_second", c_second),
        ):
            if abs(val.imag) > IMAG_RESIDUE_TOL * max(1.0, abs(val.real)):
                raise ComplexResidue(
                    f"{name} term has imaginary residue {val.imag:.3e}"
                )
        sheet = branch * int(self.sheets[pos])
        return SheetSecondTerms(
            sheet=sheet,
            sign=1 if sheet > 0 else -1,
            volume=self.volume(pos),
            c_first=float(c_first.real),
            c_second=float(c_second.real),
            term_sub=float(term_sub.real),
            term_bracket=float(term_bracket.real),
            term_curvature=float(term_curv.real),
        )

    def first_coefficient(self, branch: int = 1) -> float:
        """Leading density of one branch: n (2 pi)^-n sum of its region volumes."""
        total = 0.0
        for pos in self.branch_positions(branch):
            total += self.volume(pos)
        return self.n / (2.0 * math.pi) ** self.n * total

    def second_coefficient(self, branch: int = 1) -> SecondWeylResult:
        """Second density of one branch with its per-sheet breakdown."""
        sheets = {}
        total = 0.0
        for pos in self.branch_positions(branch):
            terms = self.second_terms(pos, branch)
            sheets[terms.sheet] = terms
            total += terms.total
        return SecondWeylResult(total, sheets)

    def coefficients(self) -> WeylCoefficients:
        """Both branches of both coefficient densities at this base point."""
        plus = self.second_coefficient(1)
        return WeylCoefficients(
            x=self.x,
            a_first_plus=self.first_coefficient(1),
            a_first_minus=self.first_coefficient(-1),
            a_second_plus=plus.value,
            a_second_minus=self.second_coefficient(-1).value,
            breakdown=plus.sheets,
        )


def first_weyl(
    leading: SymbolField,
    x: np.ndarray,
    quad: CosphereQuadrature = CosphereQuadrature(),
) -> float:
    """Leading local coefficient density: n (2 pi)^-n sum of positive-sheet
    region volumes.  Returns 0 when the leading symbol has no positive
    eigenvalues."""
    panel = CospherePanel(leading, None, x, quad)
    return panel.first_coefficient()


def second_weyl(
    leading: SymbolField,
    nextorder: Optional[SymbolField],
    x: np.ndarray,
    quad: CosphereQuadrature = CosphereQuadrature(),
    step: float = DEFAULT_STEP,
) -> SecondWeylResult:
    """Second local coefficient density with per-term breakdown.

    Sums the subprincipal, bracket and curvature terms, in their gauge-free
    projection forms, over positive sheets.
    """
    panel = CospherePanel(leading, nextorder, x, quad, step)
    return panel.second_coefficient()


def weyl_coefficients(
    leading: SymbolField,
    nextorder: Optional[SymbolField],
    x: np.ndarray,
    quad: CosphereQuadrature = CosphereQuadrature(),
) -> WeylCoefficients:
    """Both branches of the first and second coefficient densities at x.

    One panel serves both: the minus branch is the plus-branch formulas
    applied to the sign-flipped symbol pair, read off the negative sheets.
    """
    return CospherePanel(leading, nextorder, x, quad).coefficients()
