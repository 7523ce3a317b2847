"""Hermitian matrix symbol fields on phase space and their eigen-jets.

A symbol field assigns an m x m Hermitian matrix to every phase-space
point (x, xi) with xi != 0.  Fields are evaluated stacked: one call takes
a base point x of shape (n,) and N covectors xi of shape (N, n) and
returns the N matrices, so a cosphere panel is one call per field.  This
module evaluates such fields, computes their eigen-decompositions with a
deterministic sheet enumeration (signed indices, negative eigenvalues get
negative indices), differentiates the eigenprojections in all 2n
phase-space directions, and provides the three-slot bracket on matrix
jets.  :class:`PhasePoint` is the single-point face of the same calls
(N = 1).

Only the leading symbol is differentiated, and only analytically: its
field must carry a jet, the closed-form derivatives that every torus model
gives; the next-order one enters the coefficients by its value alone.
Eigen-jets are exact first-order perturbation theory on the symbol's
derivative matrices dA, stacked over all N covectors: with eigenpairs
(h_k, v_k),

    dv_k = sum_{j != k} v_j (v_j* dA v_k) / (h_k - h_j)
    dP_k = dv_k v_k* + v_k dv_k*
         = sum_{j != k} (P_j dA P_k + h.c.) / (h_k - h_j)   (Kato).

The resolvent's trace reads only h, P and dP, so :class:`EigenJet` holds
those alone; eigenvectors are intermediates of :func:`eigen_jet_stack`.
They still get a fixed phase (largest component real positive) before
P = v v* is formed: P is phase-invariant, but its rounding is not, and the
fixed phase makes its bits independent of the phases LAPACK returns.

One construction, :func:`eigen_jet_stack`, serves a whole stack of points
with one stacked eigensolve into one record, :class:`EigenJet`, with a
node axis; :func:`eigen_jet` is its node 0 at one point.  The derivatives
are formed in blocks of nodes that fit the run's one transient-table
budget (``models._TABLE_BYTES``), so a panel's temporaries do not grow
with its nodes; every node gets the same arithmetic, and bits, in any
block.  Every route reads a leading symbol through :func:`symbol_jets`,
which refuses a field without a jet before any other work.

Everything here is a pure function of its inputs and all returned values
are immutable; concurrent callers need no coordination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    NotElliptic,
    NotHermitian,
)
from .models import _table_rows

HERMITICITY_TOL = 1e-10
SIMPLICITY_FACTOR = 1e-6


@dataclass(frozen=True)
class PhasePoint:
    """A point (x, xi) of phase space; xi must be nonzero and n >= 2."""

    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        if x.shape != xi.shape or x.ndim != 1:
            raise DimensionMismatch(
                f"x and xi must be equal-length vectors, got {x.shape} and {xi.shape}"
            )
        if x.size < 2:
            raise ValueError("phase space dimension must be at least 2")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(xi)):
            raise ValueError("non-finite phase-space coordinates")
        if np.linalg.norm(xi) == 0.0:
            raise ValueError("xi = 0 is outside the symbol domain")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi", xi)

    @property
    def n(self) -> int:
        return self.x.size


def _shaped(a, shape: tuple, what: str) -> np.ndarray:
    """``a`` as a complex array, :class:`DimensionMismatch` unless of ``shape``."""
    a = np.asarray(a, dtype=complex)
    if a.shape != shape:
        raise DimensionMismatch(f"{what} returned shape {a.shape}, expected {shape}")
    return a


@dataclass(frozen=True)
class SymbolField:
    """Stacked evaluator for an m x m Hermitian matrix field on phase space.

    Parameters
    ----------
    dim : int
        Matrix size m >= 2.
    degree : int
        Positive-homogeneity degree in xi (1 for the leading symbol,
        0 for the next-order one).
    evaluator : callable
        Maps a base point x of shape (n,) and covectors xi of shape (N, n)
        to the (N, m, m) complex matrices at (x, xi[i]), all finite.
    jet : callable, optional
        Same arguments; returns the value together with the analytic x-
        and xi-derivatives, shapes (N, m, m), (N, n, m, m) and
        (N, n, m, m).  A leading symbol must have one (:func:`symbol_jets`).
    """

    dim: int
    degree: int
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jet: Optional[
        Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
    ] = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("matrix dimension must be at least 2")

    def values(self, x: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """The (N, m, m) matrices at x and every row of xi.

        :class:`DimensionMismatch` on a wrong shape, ``ValueError`` on a
        non-finite entry.
        """
        m = _shaped(self.evaluator(x, xi), (len(xi), self.dim, self.dim), "evaluator")
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite symbol value")
        return m

    def __call__(self, p: PhasePoint) -> np.ndarray:
        return self.values(p.x, p.xi[None])[0]


def check_symbol_pair(leading: SymbolField, nextorder: Optional[SymbolField]) -> None:
    """The rule on a symbol pair, checked before any work: the leading
    symbol has degree 1 (``ValueError``); the next-order one, when given,
    has the leading symbol's size (:class:`DimensionMismatch`) and degree 0
    (``ValueError``)."""
    if leading.degree != 1:
        raise ValueError("eigen jets are defined for degree-1 leading symbols")
    if nextorder is not None and nextorder.dim != leading.dim:
        raise DimensionMismatch(
            f"next-order symbol is {nextorder.dim} x {nextorder.dim}, leading {leading.dim}"
        )
    if nextorder is not None and nextorder.degree != 0:
        raise ValueError(f"next-order symbols have degree 0, not {nextorder.degree}")


@dataclass(frozen=True)
class MatrixJet:
    """Value and first phase-space derivatives of a matrix-valued map.

    ``value`` has shape (p, q); ``dx`` and ``dxi`` have shape (n, p, q).
    Row/column vectors are jets with p == 1 or q == 1.
    """

    value: np.ndarray
    dx: np.ndarray
    dxi: np.ndarray

    @property
    def n(self) -> int:
        return self.dx.shape[0]


def require_hermitian(matrix: np.ndarray) -> np.ndarray:
    """Validate Hermiticity and return the symmetrised matrix.

    Takes one matrix or a stack (..., m, m); the rule
    ``defect <= HERMITICITY_TOL * max(1, max |A|)`` applies to each matrix
    on its own.  The mean of the two triangles is taken from their halves,
    so an entry near the largest float does not overflow.
    """
    matrix = np.asarray(matrix, dtype=complex)
    adjoint = matrix.conj().swapaxes(-1, -2)
    defect = np.max(np.abs(matrix - adjoint), axis=(-2, -1))
    scale = np.maximum(1.0, np.max(np.abs(matrix), axis=(-2, -1)))
    if np.any(defect > HERMITICITY_TOL * scale):
        raise NotHermitian(
            f"Hermiticity defect {np.max(defect):.3e} exceeds {HERMITICITY_TOL:.1e}"
        )
    return 0.5 * matrix + 0.5 * adjoint


def _fix_phase(vectors: np.ndarray) -> np.ndarray:
    """Make the largest-magnitude component of each column real positive."""
    k = np.argmax(np.abs(vectors), axis=-2)
    piv = np.take_along_axis(vectors, k[..., None, :], axis=-2)
    return vectors * (np.conj(piv) / np.abs(piv))


def sheet_labels(values: np.ndarray) -> np.ndarray:
    """Signed sheet labels for ascending eigenvalues: -m_minus..-1, 1..m_plus.

    Works along the last axis, so a stack of spectra gets one row each.
    """
    idx = np.arange(values.shape[-1])
    m_minus = np.sum(values < 0, axis=-1, keepdims=True)
    return np.where(idx < m_minus, idx - m_minus, idx - m_minus + 1)


def _decompose_stack(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One stacked eigensolve of (N, m, m) matrices with the per-matrix rules.

    Returns ascending eigenvalues (N, m) and phase-fixed column eigenvectors
    (N, m, m).  Every |eigenvalue| and every adjacent gap must reach the
    threshold ``SIMPLICITY_FACTOR`` times the largest |eigenvalue| of the
    whole stack.
    """
    values, vectors = np.linalg.eigh(require_hermitian(matrices))
    radius = float(np.max(np.abs(values)))
    threshold = SIMPLICITY_FACTOR * max(radius, 1e-300)
    smallest = float(np.min(np.abs(values)))
    if smallest < threshold:
        raise NotElliptic(
            f"eigenvalue of magnitude {smallest:.3e} below threshold {threshold:.3e}"
        )
    gap = float(np.min(np.diff(values, axis=-1)))
    if gap < threshold:
        raise DegenerateSpectrum(
            f"adjacent eigenvalue gap {gap:.3e} below threshold "
            f"{threshold:.3e}"
        )
    return values, _fix_phase(vectors)


def symbol_jets(
    field: SymbolField,
    x: np.ndarray,
    xi: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value and first derivatives of a field at x and every row of xi.

    Returns (N, m, m) values and (N, n, m, m) x- and xi-derivatives, read
    off the field's analytic jet.  Derivative matrices of square Hermitian
    fields are re-symmetrised, which removes O(roundoff) asymmetry.
    ``ValueError`` when the field has no jet, before it is evaluated, or
    when a returned array has a non-finite entry; :class:`DimensionMismatch`
    when a jet's array has another shape.
    """
    if field.jet is None:
        raise ValueError("symbol field has no analytic jet to differentiate")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    value, dx, dxi = field.jet(x, xi)
    value = _shaped(value, (len(xi), field.dim, field.dim), "jet")
    dx, dxi = (_shaped(d, (len(xi), x.size) + value.shape[1:], "jet") for d in (dx, dxi))
    dx = 0.5 * (dx + dx.conj().swapaxes(-1, -2))
    dxi = 0.5 * (dxi + dxi.conj().swapaxes(-1, -2))
    if not all(np.all(np.isfinite(a)) for a in (value, dx, dxi)):
        raise ValueError("non-finite symbol jet")
    return value, dx, dxi


def generalized_bracket(
    jet_f: MatrixJet,
    middle: np.ndarray,
    jet_h: MatrixJet,
) -> np.ndarray:
    """{F, G, H} = sum_alpha (F_x G H_xi - F_xi G H_x); G is not differentiated.

    F may be (p, m), G (m, m') and H (m', q); the result is (p, q).  Scalar
    brackets such as {v^*, G, v} are the 1 x 1 case, and the Poisson
    bracket {A, B} is {A, I, B}.
    """
    n = jet_f.n
    if jet_h.n != n:
        raise DimensionMismatch("jets taken at different phase-space dimensions")
    middle = np.asarray(middle, dtype=complex)
    if jet_f.value.shape[1] != middle.shape[0] or middle.shape[1] != jet_h.value.shape[0]:
        raise DimensionMismatch(
            f"incompatible shapes {jet_f.value.shape} / {middle.shape} / "
            f"{jet_h.value.shape}"
        )
    out = np.zeros((jet_f.value.shape[0], jet_h.value.shape[1]), dtype=complex)
    for alpha in range(n):
        out += jet_f.dx[alpha] @ middle @ jet_h.dxi[alpha]
        out -= jet_f.dxi[alpha] @ middle @ jet_h.dx[alpha]
    return out


@dataclass(frozen=True)
class EigenJet:
    """Eigenvalues and eigenprojections of a leading symbol, with the
    projections' first derivatives in all phase-space directions.

    Arrays are indexed by sorted sheet position; ``sheets`` maps positions
    to signed labels.  At one point: sheets and h (m,), P (m, m, m) and
    dP_* (n, m, m, m).  :func:`eigen_jet_stack` puts a node axis N in
    front of each; :meth:`at` takes one node out.
    """

    sheets: np.ndarray
    h: np.ndarray
    P: np.ndarray
    dP_x: np.ndarray
    dP_xi: np.ndarray

    @property
    def m(self) -> int:
        return self.h.shape[-1]

    def at(self, i: int) -> "EigenJet":
        """The eigen-jet of node i of a jet of N points."""
        return EigenJet(**{k: a[i] for k, a in vars(self).items()})

    def projection_jet(self, pos: int) -> MatrixJet:
        return MatrixJet(self.P[pos], self.dP_x[:, pos], self.dP_xi[:, pos])


def eigen_jet_stack(
    values: np.ndarray,
    dx: np.ndarray,
    dxi: np.ndarray,
) -> EigenJet:
    """Exact eigen-jets of a stack of symbol jets by first-order perturbation.

    ``values`` (N, m, m) are the symbol matrices, ``dx`` and ``dxi``
    (N, n, m, m) their Hermitian derivative matrices: one stacked
    eigensolve of all N, then the module docstring's formulas for every
    point, direction and sheet.  The derivatives are formed in blocks of
    nodes that fit one transient table (:func:`~weylsys.models._table_rows`),
    each written into its rows of one preallocated dP, so the temporaries
    of one block are held at a time; every node's arithmetic is the same
    whatever the block, and so are its bits.  The eigenvectors and their
    parallel-gauge derivatives are formed on the way to P and dP and not
    kept.  The stack must pass the rules of :func:`_decompose_stack`, whose
    threshold reads all N nodes, else the matching :class:`WeylError` is
    raised: a small gap would blow up the 1/(h_k - h_j) factors.
    """
    h, vecs = _decompose_stack(values)
    n = dx.shape[1]
    m = h.shape[-1]
    off = ~np.eye(m, dtype=bool)
    split = h[:, None, :] - h[:, :, None]  # [j, k] = h_k - h_j
    inverse = np.where(off, 1.0 / np.where(off, split, 1.0), 0.0)
    v = vecs.swapaxes(-1, -2)
    P = v[..., :, None] * v.conj()[..., None, :]
    dP = np.empty((len(h), 2 * n, m, m, m), dtype=complex)
    # per node, five (2n, m, m) tables and three (2n, m, m, m), the block of dP included
    nodes = _table_rows(16 * 2 * n * m * m * (5 + 3 * m))
    for lo in range(0, len(h), nodes):
        block = slice(lo, lo + nodes)
        _derive_block(vecs[block], inverse[block], dx[block], dxi[block], dP[block])
    return EigenJet(
        sheets=sheet_labels(h), h=h, P=P, dP_x=dP[:, :n], dP_xi=dP[:, n:]
    )


def _derive_block(vecs: np.ndarray, inverse: np.ndarray, dx: np.ndarray,
                  dxi: np.ndarray, out: np.ndarray) -> None:
    """dP of a block of nodes into ``out``, (nodes, 2n, m, m, m): x
    directions, then xi; its temporaries go when it returns."""
    d_a = np.concatenate([dx, dxi], axis=1)
    # coupling[..., j, k] = v_j* dA v_k, one (m, m) block per direction
    coupling = vecs.conj().swapaxes(-1, -2)[:, None] @ d_a @ vecs[:, None]
    dvecs = vecs[:, None] @ (coupling * inverse[:, None])
    dv = dvecs.swapaxes(-1, -2)
    half = dv[..., :, None] * vecs.swapaxes(-1, -2).conj()[:, None, :, None, :]  # dv_k v_k*
    np.add(half, half.conj().swapaxes(-1, -2), out=out)


def eigen_jet(field: SymbolField, p: PhasePoint) -> EigenJet:
    """Eigen-decomposition with exact first derivatives at one point.

    :func:`eigen_jet_stack` on the field's :func:`symbol_jets` at N = 1,
    node 0 taken out.  All sheets are returned.  Raises ``ValueError``
    unless the field has degree 1 (:func:`check_symbol_pair`), and
    :class:`NotHermitian`, :class:`NotElliptic` or
    :class:`DegenerateSpectrum` when the respective rule fails.
    """
    check_symbol_pair(field, None)
    return eigen_jet_stack(*symbol_jets(field, p.x, p.xi[None])).at(0)

