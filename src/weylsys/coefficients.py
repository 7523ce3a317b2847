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
and the curvature integrand is T[k, k].  Every sheet is read once, as a
sheet of the original operator.  The minus branch is the plus branch of the
sign-flipped operator, which has the same projections and negated sheets:
its positive sheets are the negative sheets here with h, the subprincipal
integrand and the bracket integrand negated and the curvature integrand
unchanged, so each of its region integrals, hence each of its terms, is the
exact negative of the one read here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    volume: float
    c_first: float
    c_second: float
    term_sub: float
    term_bracket: float
    term_curvature: float

    @property
    def sign(self) -> int:
        return 1 if self.sheet > 0 else -1

    @property
    def total(self) -> float:
        return self.term_sub + self.term_bracket + self.term_curvature


@dataclass(frozen=True)
class WeylCoefficients:
    """Leading and second local coefficient densities at one point.

    ``terms`` holds every sheet's :class:`SheetSecondTerms`, in ascending
    sheet order, read once off the original operator; the minus-branch
    values are those of the sign-flipped operator, whose terms are the
    exact negatives of the negative sheets' terms.
    """

    x: np.ndarray
    a_first_plus: float
    a_first_minus: float
    a_second_plus: float
    a_second_minus: float
    terms: tuple

    @property
    def breakdown(self) -> dict:
        """Positive sheet label -> its :class:`SheetSecondTerms`."""
        return {t.sheet: t for t in self.terms if t.sheet > 0}


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

    def region_integral(self, pos: int, samples: np.ndarray) -> complex:
        """Integral of a degree-0 scalar over {|h_sheet| < 1} from node samples."""
        eta = self.eta[:, pos]
        return np.sum(self.weights * samples * eta ** (-self.n)) / self.n

    def second_terms(self, pos: int) -> SheetSecondTerms:
        """Region-integrated second-coefficient pieces for one sheet."""
        n = self.n
        pref = n * (n - 1) / (2.0 * math.pi) ** n
        volume = self.region_integral(pos, np.ones(len(self.weights)))
        int_sub = self.region_integral(pos, self.sub[:, pos])
        int_brack = self.region_integral(pos, self.bracket[:, pos])
        int_curv = self.region_integral(pos, self.h[:, pos] * self.curvature[:, pos])
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
        return SheetSecondTerms(
            sheet=int(self.sheets[pos]),
            volume=float(volume.real),
            c_first=float(c_first.real),
            c_second=float(c_second.real),
            term_sub=float(term_sub.real),
            term_bracket=float(term_bracket.real),
            term_curvature=float(term_curv.real),
        )

    def coefficients(self) -> WeylCoefficients:
        """Both branches of both coefficient densities at this base point.

        The minus branch takes the negative sheets with their terms negated
        (sheet -k is sheet k of the sign-flipped operator), and each branch
        sums in the ascending order of its own labels, |sheet|.  The leading
        density is n (2 pi)^-n times the sum of the region volumes.
        """
        terms = tuple(self.second_terms(pos) for pos in self.positions())
        scale = self.n / (2.0 * math.pi) ** self.n
        first = {1: 0.0, -1: 0.0}
        second = {1: 0.0, -1: 0.0}
        for t in sorted(terms, key=lambda t: abs(t.sheet)):
            first[t.sign] += t.volume
            second[t.sign] += t.sign * t.total
        return WeylCoefficients(
            x=self.x,
            a_first_plus=scale * first[1],
            a_first_minus=scale * first[-1],
            a_second_plus=second[1],
            a_second_minus=second[-1],
            terms=terms,
        )


def weyl_coefficients(
    leading: SymbolField,
    nextorder: Optional[SymbolField],
    x: np.ndarray,
    quad: CosphereQuadrature = CosphereQuadrature(),
) -> WeylCoefficients:
    """Both branches of the first and second coefficient densities at x,
    from one panel that reads each sheet once."""
    return CospherePanel(leading, nextorder, x, quad).coefficients()


def first_weyl(
    leading: SymbolField,
    x: np.ndarray,
    quad: CosphereQuadrature = CosphereQuadrature(),
) -> float:
    """Leading local coefficient density: n (2 pi)^-n sum of positive-sheet
    region volumes.  Returns 0 when the leading symbol has no positive
    eigenvalues."""
    return weyl_coefficients(leading, None, x, quad).a_first_plus


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
    coeffs = CospherePanel(leading, nextorder, x, quad, step).coefficients()
    return SecondWeylResult(coeffs.a_second_plus, coeffs.breakdown)
