"""Torus models: their fields, the catalog and registration.

A model is a first-order symmetrized system on the flat two-torus with
Hermitian trigonometric-polynomial coefficient fields.  Each catalog row is
a builder and its parameters' defaults; :func:`build_model` makes a model
and registers it.  Every command that takes a model reads this module; the
spectral ground truth on top of it is :mod:`weylsys.torus`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Optional

import numpy as np

from .errors import (ConfigError, DimensionMismatch, EllipticityViolation, NotHermitian,
                     UnknownModel)

if TYPE_CHECKING:
    from .symbols import SymbolField

SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)

# the spectral solve's window and budget, read when the CLI defines RunConfig
TRUSTED_FRACTION = 0.6
DEFAULT_BUDGET = 14000
ELLIPTICITY_MARGIN = 0.05
GAP_MARGIN = 0.05
# Bytes of one transient table of a run: a block of registration's symbols,
# a Galerkin stack, a block of the counting's eigenvalue tables, a block of
# nu rows of the band sum, a block of step values of the bump integral, a
# block of the eigen-jet's nodes.
# Each sizes its rows from it (:func:`_table_rows`); a row larger than the
# budget goes alone.
_TABLE_BYTES = 1 << 18


def _table_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` bytes each that fit in ``_TABLE_BYTES``, at
    least one; an empty row counts as one byte."""
    return max(1, _TABLE_BYTES // max(1, row_bytes))


class TrigMatrixField:
    """Hermitian matrix field on the torus with finitely many Fourier modes.

    Stores coefficients C_g for integer wavevectors g (``ValueError`` on a
    component that is not a finite integer; ``1.0`` is one) as
    C_g/2 + C_(-g)^dagger/2, or C_g where that equals C_(-g)^dagger: the one
    Hermiticity rule of torus fields, run once, makes every pair exactly
    conjugate and keeps the bits of one that already is at any finite size
    (:class:`NotHermitian` when a partner is missing or
    max |C_(-g) - C_g^dagger| > 1e-12).  ``modes`` (no setter) is a read-only
    mapping of read-only arrays, so values stay Hermitian at every x.
    """

    def __init__(self, dim: int, modes: dict):
        self.dim = dim
        table = {}
        for g, mat in modes.items():
            if not all(math.isfinite(c) and c == int(c) for c in g):
                raise ValueError(f"wavevector {tuple(g)} is not an integer vector")
            g = tuple(int(c) for c in g)
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != (dim, dim):
                raise ValueError(f"mode {g} has shape {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise ValueError(f"mode {g} has a non-finite entry")
            if np.max(np.abs(mat)) > 0:
                table[g] = table.get(g, 0) + mat
        stored = {}
        for g, mat in table.items():
            partner = table.get(tuple(-c for c in g))
            adjoint = None if partner is None else partner.conj().T
            # halves: a difference or a sum near the largest float overflows
            if adjoint is None or np.max(np.abs(0.5 * adjoint - 0.5 * mat)) > 0.5e-12:
                raise NotHermitian(f"coefficient symmetry violated at mode {g}")
            stored[g] = np.where(adjoint == mat, mat, 0.5 * mat + 0.5 * adjoint)
            stored[g].flags.writeable = False
        self._modes = MappingProxyType(stored)

    @property
    def modes(self) -> MappingProxyType:
        return self._modes

    @classmethod
    def constant(cls, mat: np.ndarray) -> "TrigMatrixField":
        mat = np.asarray(mat, dtype=complex)
        return cls(mat.shape[0], {(0, 0): mat})

    @classmethod
    def from_waves(cls, dim: int, terms: Iterable[tuple]) -> "TrigMatrixField":
        """Build from (kind, wavevector, Hermitian matrix) terms.

        kind 'const' adds M; 'cos' adds cos(g . x) M; 'sin' adds sin(g . x) M.
        """
        modes: dict = {}

        def add(g, mat):  # the constructor checks and converts g
            modes[tuple(g)] = modes.get(tuple(g), 0) + mat

        for kind, g, mat in terms:
            mat = np.asarray(mat, dtype=complex)
            if kind == "const":
                add((0, 0), mat)
            elif kind == "cos":
                add(g, 0.5 * mat)
                add(tuple(-c for c in g), 0.5 * mat)
            elif kind == "sin":
                add(g, mat / 2.0j)
                add(tuple(-c for c in g), -mat / 2.0j)
            else:
                raise ValueError(f"unknown term kind {kind!r}")
        return cls(dim, modes)

    def value(self, x: np.ndarray) -> np.ndarray:
        """The field at points x of shape (..., n), shape (..., dim, dim)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1] + (self.dim, self.dim), dtype=complex)
        for g, mat in self.modes.items():
            out += mat * np.exp(1j * (x @ g))[..., None, None]
        return out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """d/dx^alpha of the field at x (..., n), shape (..., n, dim, dim)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape + (self.dim, self.dim), dtype=complex)
        for g, mat in self.modes.items():
            phase = 1j * np.exp(1j * (x @ g))
            out += (phase[..., None] * g)[..., None, None] * mat
        return out


@dataclass(frozen=True)
class TorusModel:
    """First-order symmetrized system on the flat 2-torus.

    operator = (1/2) sum_alpha [C^alpha (-i d_alpha) + (-i d_alpha) C^alpha] + B.
    The leading symbol is sum_alpha C^alpha(x) xi_alpha; the invariantly
    defined next-order symbol of the symmetrized form equals B(x) exactly
    (the symmetrization correction cancels the mixed-derivative term).
    Raises :class:`DimensionMismatch` unless there are two coefficient
    fields, every wavevector has two components and every field is m x m
    for one m.
    """

    name: str
    coefficients: tuple  # one TrigMatrixField per axis
    potential: TrigMatrixField

    def __post_init__(self):
        fields = (*self.coefficients, self.potential)
        if len(self.coefficients) != 2 or any(len(g) != 2 for fld in fields for g in fld.modes):
            raise DimensionMismatch(f"model {self.name} is not on the 2-torus: it needs 2 "
                                    "coefficient fields and wavevectors of 2 components")
        if len({fld.dim for fld in fields}) != 1:
            raise DimensionMismatch(f"model {self.name}: fields of sizes "
                                    f"{[fld.dim for fld in fields]}, not one m")

    @property
    def n(self) -> int:
        return len(self.coefficients)

    @property
    def dim(self) -> int:
        return self.potential.dim

    def _check_base_point(self, x) -> None:
        """The symbols' one rule on a base point: :class:`DimensionMismatch`
        unless it has shape (n,)."""
        if np.shape(x) != (self.n,):
            raise DimensionMismatch(f"base point of shape {np.shape(x)}, not ({self.n},)")

    def leading_symbol(self) -> SymbolField:
        from .symbols import SymbolField  # registration never loads symbols

        coeffs = self.coefficients
        n, dim = self.n, self.dim

        def combine(mats, xi):
            """sum_alpha mats[alpha] xi_alpha for every row of xi."""
            out = np.zeros((len(xi), dim, dim), dtype=complex)
            for alpha, mat in enumerate(mats):
                out += mat * xi[:, alpha, None, None]
            return out

        def ev(x, xi):
            self._check_base_point(x)
            return combine([fld.value(x) for fld in coeffs], xi)

        # one read of each coefficient field and its gradient per call
        def jet(x, xi):
            self._check_base_point(x)  # every route reads this jet first
            vals = [fld.value(x) for fld in coeffs]
            grads = [fld.gradient(x) for fld in coeffs]
            dx = np.stack(
                [combine([g[alpha] for g in grads], xi) for alpha in range(n)], axis=1
            )
            dxi = np.repeat(np.stack(vals)[None], len(xi), axis=0)
            return combine(vals, xi), dx, dxi

        return SymbolField(dim, 1, ev, jet)

    def subprincipal_symbol(self) -> SymbolField:
        from .symbols import SymbolField

        pot = self.potential

        def ev(x, xi):
            self._check_base_point(x)
            return np.repeat(pot.value(x)[None], len(xi), axis=0)

        return SymbolField(self.dim, 0, ev)

    def symbol_fields(self) -> tuple[SymbolField, SymbolField]:
        return self.leading_symbol(), self.subprincipal_symbol()

    def coupling_modes(self) -> set:
        out = set()
        for fld in (*self.coefficients, self.potential):
            out.update(g for g in fld.modes if g != (0, 0))
        return out


def _dirac_fields():
    return (
        TrigMatrixField.constant(SIGMA1),
        TrigMatrixField.constant(SIGMA2),
    )


def _build_dirac() -> TorusModel:
    return TorusModel("dirac", _dirac_fields(), TrigMatrixField.constant(np.zeros((2, 2))))


def _build_shifted_dirac(beta: float) -> TorusModel:
    return TorusModel("shifted-dirac", _dirac_fields(),
                      TrigMatrixField.constant(beta * IDENTITY2))


def _build_mass_dirac(b: float) -> TorusModel:
    return TorusModel("mass-dirac", _dirac_fields(), TrigMatrixField.constant(b * SIGMA3))


def _build_twisted(eps: float) -> TorusModel:
    a1 = TrigMatrixField.from_waves(
        2,
        [
            ("const", (0, 0), SIGMA1),
            ("sin", (1, 0), eps * (SIGMA3 + IDENTITY2)),
            ("cos", (1, 0), eps * IDENTITY2),
        ],
    )
    a2 = TrigMatrixField.from_waves(
        2,
        [
            ("const", (0, 0), SIGMA2),
            ("cos", (1, 0), eps * SIGMA3),
        ],
    )
    pot = TrigMatrixField.constant(3.0 * eps * IDENTITY2)
    return TorusModel("twisted", (a1, a2), pot)


# name -> (builder taking its parameters by name, {parameter: default})
_CATALOG = {
    "dirac": (_build_dirac, {}),
    "shifted-dirac": (_build_shifted_dirac, {"beta": 0.3}),
    "mass-dirac": (_build_mass_dirac, {"b": 0.5}),
    "twisted": (_build_twisted, {"eps": 0.1}),
}
# the same name -> {parameter: default}, read-only
MODEL_PARAMETERS = MappingProxyType(
    {name: MappingProxyType(defaults) for name, (_, defaults) in _CATALOG.items()}
)


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def registration_check(
    model: TorusModel,
    n_x: int = 64,
    n_theta: int = 256,
) -> tuple[float, float]:
    """Sample ellipticity and simplicity margins of the leading symbol.

    Scans a grid in the first chart coordinate crossed with cosphere angles
    and returns (min |eigenvalue|, min gap) over the grid, both at |xi| = 1.
    ``n_theta`` angles per turn set the angle grid, but only the half in
    [0, pi) is scanned: the leading symbol is linear in xi, so
    A(x, -xi) = -A(x, xi) has the same |eigenvalues| and gaps.  x2 = 0
    suffices unless a coefficient field has a mode with g2 != 0; then the
    same grid is scanned in x2 too.  The fields' modes are Hermitian pairs
    from construction (:class:`TrigMatrixField`), so no Hermiticity pass runs
    here.  Each field is evaluated once per x2 row; the row's symbols are
    products with the angles, broadcast over the positions with no
    temporary of their size, and stacked eigensolves, over as many
    positions as fit one transient table (:func:`_table_rows`).  Raises
    :class:`EllipticityViolation` when a margin is too small or a sampled
    symbol or eigenvalue is not finite.
    """
    xs = 2.0 * math.pi * np.arange(n_x) / n_x
    thetas = 2.0 * math.pi * np.arange(n_theta // 2) / n_theta
    xi = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    depends_on_x2 = any(g[1] for fld in model.coefficients for g in fld.modes)
    positions = _table_rows(16 * thetas.size * model.dim ** 2)
    min_abs = min_gap = math.inf
    for x2 in xs if depends_on_x2 else (0.0,):
        x = np.stack([xs, np.full(n_x, x2)], axis=1)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            fields = np.stack([fld.value(x).reshape(n_x, -1) for fld in model.coefficients], 1)
        for lo in range(0, n_x, positions):
            with np.errstate(over="ignore", invalid="ignore"):  # checked just below
                symbols = (xi @ fields[lo:lo + positions]).reshape(
                    -1, thetas.size, model.dim, model.dim)
                vals = np.linalg.eigvalsh(symbols)
            # eigvalsh reads one triangle, so a NaN in the other shows in no value
            if not (np.isfinite(symbols).all() and np.isfinite(vals).all()):
                raise EllipticityViolation(f"model {model.name}: sampled symbol not finite")
            min_abs = min(min_abs, float(np.min(np.abs(vals))))
            if model.dim > 1:
                min_gap = min(min_gap, float(np.min(np.diff(vals, axis=-1))))
            del symbols, vals  # else held while the next block's are made
    if min_abs < ELLIPTICITY_MARGIN:
        raise EllipticityViolation(
            f"model {model.name}: sampled eigenvalue magnitude {min_abs:.3e} "
            f"below margin {ELLIPTICITY_MARGIN}"
        )
    if min_gap < GAP_MARGIN:
        raise EllipticityViolation(
            f"model {model.name}: sampled eigenvalue gap {min_gap:.3e} "
            f"below margin {GAP_MARGIN}"
        )
    return min_abs, min_gap


def check_model(name: str, params) -> None:
    """Raise :class:`UnknownModel` unless catalog model ``name`` takes ``params``."""
    if name not in _CATALOG:
        raise UnknownModel(
            f"unknown model {name!r}; catalog: {', '.join(catalog_names())}"
        )
    for key in params:
        if key not in MODEL_PARAMETERS[name]:
            raise UnknownModel(f"model {name!r} takes no parameter {key!r}")


def build_model(name: str, params: Optional[dict] = None) -> TorusModel:
    """Instantiate a catalog model, at its row's defaults, and register it;
    a parameter that overflows a field is a :class:`ConfigError`."""
    check_model(name, params or {})
    builder, defaults = _CATALOG[name]
    values = {key: float(value) for key, value in {**defaults, **(params or {})}.items()}
    try:
        # an overflow surfaces as the field's non-finite entry, not as numpy's warning
        with np.errstate(over="ignore", invalid="ignore"):
            model = builder(**values)
    except ValueError as exc:
        given = ", ".join(f"{key}={value:g}" for key, value in values.items())
        raise ConfigError(f"model {name} at {given} overflows a field: {exc}") from exc
    registration_check(model)
    return model
