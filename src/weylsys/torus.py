"""Ground-truth harness on the flat two-torus.

The models of :mod:`weylsys.models`, first-order systems with
trigonometric-polynomial Hermitian coefficients, are assembled in the
Fourier basis, where the symmetrized operator has the midpoint form
H[k', k] = ((k + k')/2) . C_(k'-k) + B_(k'-k).  It is Hermitian exactly when
C_(-g) = C_g^dagger: a field keeps that rule on its modes, read-only once
made, so each block is Hermitian as filled, bit for bit.  The mode-coupling
graph splits into connected components (constant-coefficient models
decouple mode by mode), found by vectorised min-label propagation.
Components of equal size are filled in stacks of at most 256 KiB of blocks
(a larger block alone), so thousands of tiny blocks share one vectorised
scatter and one dense Hermitian eigensolve.  A block of 24 rows or more,
the measured crossover, is instead reduced to real tridiagonal form by
LAPACK, block by block in the stack's own storage, and only the probes are
rotated into that basis.  Both read one probe matrix per stack, rows
e^(i k.x) (x) e_c, and one reduction turns the amplitudes into the weights
|phi(x)|^2 = (2 pi)^-2 sum_c |amplitude|^2, the probes' spectral measures.
When numpy's OpenBLAS exports no ILP64 LAPACK, every stack takes the
dense eigensolve; both routes give the same eigenvalues.  The stacks are
solved side by side by the calling thread and helper threads, one BLAS
thread each, as a threaded eigensolve of a block of a few hundred rows
gains nothing from a second core; only a lone block keeps BLAS's own
threads.  The merged spectrum is trusted up to 0.6 times the truncation.

The smoothed local counting derivative convolves the pointwise eigenfunction
weights with a compactly band-limited mollifier (plateau transform, built
from the standard exp(-1/(1-s^2)) bump).  Its band limit means the sample
reads the local half-wave trace sum_lambda |phi_lambda(x)|^2 e^(-i lambda t)
only at trapezoid nodes of the band [0, T], T below the shortest loop 2 pi
(checked when a :class:`Mollifier` is made), so the counting is an exact
transform of the band, by angle addition over the nodes, and no eigenvalue
is paired with a grid point; each call builds the trace at its own point,
and nothing is kept on the spectrum.  Every band sum, the mollifier's own
evaluation included, takes its nodes from one rule (:meth:`Mollifier._nodes`):
as many as put every alias of the frequencies it reaches where the
plateau's transform is below roundoff, 342 to 380 at support 3 up to K = 72.
Every transient table of the run (a Galerkin stack, a block of eigenvalues,
of nu rows or of step values, and registration's symbols) takes as many
rows as fit one 256 KiB budget, :mod:`weylsys.models`' ``_TABLE_BYTES``,
and the band sums' products run on one BLAS thread
(:func:`_one_blas_thread`), so no result bit depends on the thread count
but a lone block's.
A least-squares fit over a trusted window extracts the two leading growth
coefficients, with a next-order column and, when the mollifier's shape
decays across the window, two spectral-bottom columns.
"""

from __future__ import annotations

import itertools
import math
import mmap
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import (
    BudgetExceeded,
    IllConditionedFit,
    QuadratureFailure,
    SolveFailure,
    SupportTooLarge,
    WindowViolation,
)
from .kernels import gauss_legendre
from .models import DEFAULT_BUDGET, TRUSTED_FRACTION, TorusModel, _TABLE_BYTES, _table_rows


def _component_labels(modes: np.ndarray, couplings: set, K: int) -> np.ndarray:
    """Smallest mode index reachable from each mode through the couplings.

    Each label drops to the minimum over its neighbours k + g and then to
    the label of its label, until nothing changes.
    """
    size = 2 * K + 1
    edges = []
    for g in couplings:
        src = np.flatnonzero(np.all(np.abs(modes + g) <= K, axis=1))
        edges.append((src, src + g[0] * size + g[1]))
    labels = np.arange(modes.shape[0])
    while True:
        new = labels.copy()
        for src, dst in edges:
            new[src] = np.minimum(new[src], labels[dst])
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _probe_matrix(modes: np.ndarray, m: int, x_points: np.ndarray) -> np.ndarray:
    """Probe matrices (S, n_x m, rows) of a stack's blocks of modes (S, n_modes,
    2): row p m + c is e^(i k.x_p) (x) e_c over the (mode, component) rows."""
    phases = np.exp(1j * x_points @ modes.swapaxes(1, 2))[:, :, None, :, None]
    return (phases * np.eye(m)[:, None, :]).reshape(modes.shape[0], -1, modes.shape[1] * m)


def _probe_weights(re: np.ndarray, im: np.ndarray, m: int) -> np.ndarray:
    """Weights (..., rows, n_x) of probe amplitudes on unit eigenvectors, real
    and imaginary parts (..., n_x m, rows): (2 pi)^-2 sum_c (Re^2 + Im^2)
    over each point's m probes, each integrating to one over the torus."""
    amp2 = (re ** 2 + im ** 2).reshape(re.shape[:-2] + (-1, m, re.shape[-1]))
    return (2.0 * math.pi) ** -2 * amp2.sum(axis=-2).swapaxes(-1, -2)


@dataclass(frozen=True)
class SpectrumResult:
    """Spectrum of the truncated operator and its pointwise weights.

    ``eigenvalues`` are globally sorted; ``weights[k, i]`` is the weight
    |phi_k(x_i)|^2 of eigenfunction k at ``x_points[i]``, each integrating
    to one over the torus.  No eigenvectors are kept.  ``trusted_max`` =
    0.6 K bounds the truncation-unpolluted window.  The three arrays are
    read-only views (a caller's own stay writable); nothing derived from
    them is kept, so a record reads them as they are at each call.
    """

    K: int
    eigenvalues: np.ndarray
    x_points: np.ndarray
    weights: np.ndarray
    trusted_max: float

    def __post_init__(self):
        for name in ("eigenvalues", "x_points", "weights"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def trusted(self) -> np.ndarray:
        lam = self.eigenvalues
        return lam[np.abs(lam) <= self.trusted_max]


@lru_cache(maxsize=None)
def _openblas_libraries() -> tuple:
    """ctypes handles of the loaded libraries whose path names OpenBLAS, from
    one read of /proc/self/maps; empty without that file (another OS)."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split(maxsplit=5)[-1].strip()
                            for line in maps if "openblas" in line.lower()})
    except OSError:
        return ()
    libs = []
    for path in paths:
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:
            continue
    return tuple(libs)


@lru_cache(maxsize=None)
def _openblas() -> Optional[tuple]:
    """(get_num_threads, set_num_threads_local) of the OpenBLAS that numpy
    loaded, or None when no loaded library exports both (another BLAS,
    another OS, an OpenBLAS before 0.3.27)."""
    import ctypes

    # numpy's wheel exports the count query under a name that scipy's own
    # OpenBLAS lacks; other builds export the plain name
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        for lib in _openblas_libraries():
            if hasattr(lib, name) and hasattr(lib, "openblas_set_num_threads_local"):
                get, set_local = getattr(lib, name), lib.openblas_set_num_threads_local
                get.argtypes, get.restype = [], ctypes.c_int
                set_local.argtypes, set_local.restype = [ctypes.c_int], ctypes.c_int
                return get, set_local
    return None


@lru_cache(maxsize=None)
def _lapack() -> Optional[tuple]:
    """(zhetrd, zunmtr, dstedc) of the ILP64 LAPACK in numpy's OpenBLAS, or
    None when no loaded library exports all three (another BLAS, an LP64
    build, another OS).

    Fortran convention: every argument by reference (arrays as addresses,
    integers as ``c_int64``), then one hidden length per character argument.
    """
    import ctypes

    char, i64, ptr = ctypes.c_char_p, ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    size = ctypes.c_size_t
    signatures = {
        # uplo, n, a, lda, d, e, tau, work, lwork, info
        "scipy_zhetrd_64_": [char, i64, ptr, i64, ptr, ptr, ptr, ptr, i64, i64, size],
        # side, uplo, trans, m, n, a, lda, tau, c, ldc, work, lwork, info
        "scipy_zunmtr_64_": [char, char, char, i64, i64, ptr, i64, ptr, ptr, i64, ptr,
                             i64, i64, size, size, size],
        # compz, n, d, e, z, ldz, work, lwork, iwork, liwork, info
        "scipy_dstedc_64_": [char, i64, ptr, ptr, ptr, i64, ptr, i64, ptr, i64, i64, size],
    }
    for lib in _openblas_libraries():
        if all(hasattr(lib, name) for name in signatures):
            routines = tuple(getattr(lib, name) for name in signatures)
            for routine, argtypes in zip(routines, signatures.values()):
                routine.argtypes, routine.restype = argtypes, None
            return routines
    return None


@lru_cache(maxsize=None)
def _workspace(rows: int, probes: int) -> tuple:
    """LAPACK's own work lengths for :func:`_probe_spectrum` on a block of
    ``rows`` rows with ``probes`` probe columns: (zhetrd, zunmtr, dstedc
    real, dstedc integer), as ``c_int64``."""
    import ctypes

    zhetrd, zunmtr, dstedc = _lapack()
    i64 = ctypes.c_int64
    n, query, info = i64(rows), i64(-1), i64()
    cbuf, rbuf, ibuf = np.zeros(1, complex), np.zeros(1), np.zeros(1, np.int64)
    c, r = cbuf.ctypes.data, rbuf.ctypes.data
    zhetrd(b"L", n, c, n, r, r, c, c, query, info, 1)
    trd = int(cbuf[0].real)
    zunmtr(b"L", b"L", b"C", n, i64(probes), c, n, c, c, n, c, query, info, 1, 1, 1)
    mtr = int(cbuf[0].real)
    dstedc(b"I", n, r, r, r, n, r, query, ibuf.ctypes.data, query, info, 1)
    return i64(trd), i64(mtr), i64(int(rbuf[0])), i64(int(ibuf[0]))


def _mapping(size: int) -> mmap.mmap:
    """A zero-filled anonymous mapping of ``size`` bytes, unmapped once the
    last reference to it goes, so none of it stays resident, as a freed heap
    block can (glibc keeps one once its mmap threshold has risen past it)."""
    return mmap.mmap(-1, size)


def _carve(buffer, layout) -> list:
    """Consecutive views of ``buffer``, one 1-D array per (dtype, count) of
    ``layout``, from its start."""
    views, offset = [], 0
    for dtype, count in layout:
        views.append(np.frombuffer(buffer, dtype, count, offset))
        offset += views[-1].nbytes
    return views


def _probe_layout(blocks: int, rows: int, probes: int) -> tuple:
    """(dtype, count) of the arrays of :func:`_probe_spectrum` on a stack of
    ``blocks`` blocks of ``rows`` rows, ``probes`` probe rows each: the
    blocks' doubles and ``dstedc``'s spare after them, then tau, work, d, e
    and iwork."""
    trd, mtr, lrwork, liwork = (length.value for length in _workspace(rows, probes))
    square = rows * rows
    # a spent block's 2 rows^2 doubles hold z and then the real work, 1 + 4
    # rows + rows^2 doubles at most, so the last block needs a spare after it
    spare = max(0, lrwork - square)
    return ((float, 2 * blocks * square + spare), (complex, rows),
            (complex, max(trd, mtr)), (float, rows), (float, rows), (np.int64, liwork))


def _probe_spectrum(space: list, probes: np.ndarray) -> list:
    """Eigenvalues of each Hermitian block of a stack and its eigenvectors'
    amplitudes on the block's probe rows, real and imaginary parts
    (n_probes, rows), in block order, with no eigenvector matrix formed
    (the Golub-Welsch observation).

    ``space`` is :func:`_carve` of :func:`_probe_layout`, with the blocks,
    C order, at the start of its first array, and ``probes`` is
    (blocks, n_probes, rows).  LAPACK reads a C-order block as its
    conjugate, A^T = Q T Q^H with T real tridiagonal (``zhetrd``, in place),
    so the block's eigenvectors are conj(Q) z for the eigenvectors z of T
    (``dstedc``), and the amplitude of one on a probe p is p^T conj(Q) z =
    z^T Q^H p: ``zunmtr`` rotates the probes, Fortran's columns, in place.
    The eigenvalues are ``np.linalg.eigh``'s bits: its ``zheevd`` runs the
    same two routines on the same matrix.  The blocks are solved last to
    first, so block i is spent once ``zunmtr`` has run, and ``dstedc``'s z
    and real work fill it and run on into the blocks after it, already
    solved, and the spare: the stack is solved in its own storage plus
    4 rows + 1 doubles, and only the results are allocated.  The blocks and
    the probes are overwritten.  Raises ``LinAlgError`` on a nonzero LAPACK
    ``info``, and ``ValueError`` on a ``space`` that is not the layout's.
    """
    import ctypes

    zhetrd, zunmtr, dstedc = _lapack()
    if probes.ndim != 3 or probes.dtype != complex or not probes.flags.c_contiguous:
        raise ValueError("probes must be a C-contiguous complex (blocks, n_probes, rows) array")
    blocks, n_probes, rows = probes.shape
    layout = _probe_layout(blocks, rows, n_probes)
    if [(view.dtype, view.size) for view in space] != [(np.dtype(t), c) for t, c in layout]:
        raise ValueError("space must be carved from the stack's probe layout")
    store, tau, work, d, e, iwork = space
    lwork = _workspace(rows, n_probes)
    square, n, info = rows * rows, ctypes.c_int64(rows), ctypes.c_int64()
    spectra = [None] * blocks
    for i in reversed(range(blocks)):
        spent = store[2 * i * square:]
        a = spent.ctypes.data
        zhetrd(b"L", n, a, n, d.ctypes.data, e.ctypes.data, tau.ctypes.data,
               work.ctypes.data, lwork[0], info, 1)
        if info.value == 0:
            zunmtr(b"L", b"L", b"C", n, ctypes.c_int64(n_probes), a, n, tau.ctypes.data,
                   probes[i].ctypes.data, n, work.ctypes.data, lwork[1], info, 1, 1, 1)
        if info.value == 0:
            dstedc(b"I", n, d.ctypes.data, e.ctypes.data, a, n, spent[square:].ctypes.data,
                   lwork[2], iwork.ctypes.data, lwork[3], info, 1)
        if info.value:
            raise np.linalg.LinAlgError(
                f"tridiagonal eigensolver failed: LAPACK info {info.value}")
        # row j of z is eigenvector j of T; real products make no complex copy of z
        z = spent[:square].reshape(rows, rows)
        spectra[i] = (d.copy(), probes[i].real @ z.T, probes[i].imag @ z.T)
    return spectra


@contextmanager
def _one_blas_thread():
    """Run the body on one OpenBLAS thread, where numpy's OpenBLAS can be
    pinned (:func:`_openblas`), and set the count read on entry again on
    exit, also when the body raises.  OpenBLAS's pthreads build applies the
    "local" count to the whole process.  Works as a decorator too."""
    blas = _openblas()
    if blas is None:
        yield
        return
    threads = blas[0]()
    blas[1](1)
    try:
        yield
    finally:
        blas[1](threads)


def _map_pinned(fn, items: list) -> list:
    """[fn(item) for item in items], on min(BLAS threads, len(items)) workers
    that use one BLAS thread each: this thread and one fewer helper threads.

    Every worker takes item indices from one shared counter, in order, and
    none takes an item after a failure; so every item before a failing one
    has run, and the first failing item in item order raises, with its own
    exception.  Results come back in item order.  With one worker, or
    without a pinnable OpenBLAS, the items run in this thread on BLAS's own
    threads: a single large block gains more from a threaded eigensolve
    than from a second worker.  This thread's pin is
    :func:`_one_blas_thread`'s, and each helper sets its own.
    """
    blas = _openblas()
    workers = min(blas[0]() if blas else 1, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    results, failures = [None] * len(items), {}
    lock, taken = threading.Lock(), itertools.count()

    def work():
        while True:
            with lock:
                i = len(items) if failures else next(taken)
            if i >= len(items):
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:  # raised below, in item order
                with lock:
                    failures[i] = exc
                if not isinstance(exc, Exception):
                    raise  # an interrupt or exit is no item's failure

    def pinned_work():
        blas[1](1)
        work()

    helpers = []
    with _one_blas_thread():
        try:
            for _ in range(workers - 1):
                helper = threading.Thread(target=pinned_work)
                helper.start()
                helpers.append(helper)
            work()
        finally:
            for helper in helpers:
                helper.join()
    if failures:
        first = failures[min(failures)]
        failures.clear()  # a later failure's frames would outlive the call
        raise first
    return results


def assemble_and_solve(
    model: TorusModel,
    K: int,
    x_points: np.ndarray,
    budget: int = DEFAULT_BUDGET,
) -> SpectrumResult:
    """Assemble the truncated operator over modes |k|_inf <= K and solve.

    The plane-wave matrix is block-diagonal over the components of the
    mode-coupling graph.  Components of equal size are filled in stacks of
    at most ``_TABLE_BYTES`` (one block if it is larger), by one scatter
    per Fourier mode of the fields (exactly conjugate pairs): an entry
    gets one product and its mirror the conjugate of the same product, so
    each block is Hermitian as filled.  Each block yields its eigenvalues
    and its weights at ``x_points`` (n_x, 2); (0, 2) gives eigenvalues only.
    A stack of blocks below ``_TRIDIAGONAL_ROWS`` rows, or any stack when
    numpy's OpenBLAS exports no LAPACK routines, is solved by one ``eigh``
    call, its eigenvectors times the stack's probes (:func:`_probe_matrix`)
    giving the amplitudes; a larger block's come from its tridiagonal form
    (:func:`_probe_spectrum`).  :func:`_probe_weights` reduces both.  The
    stacks are independent and run on :func:`_map_pinned`'s workers, one
    BLAS thread each; the result does not depend on their schedule.  Each
    worker fills and solves its stacks in one zero-filled mapping
    (:func:`_mapping`), grown only when a larger stack arrives, and writes
    each block's eigenvalues and weights into the block's rows of the
    spectrum; every mapping is released when the call returns, also when
    it raises, so none of the solve stays resident after it.
    A coordinate outside [0, 2 pi) is probed at atan2(sin x, cos x) mod
    2 pi, whose cos and sin are libm's for x (the direct route's point); one
    inside keeps its bits, and the result keeps the caller's ``x_points``.
    Raises :class:`BudgetExceeded`, before any allocation, when m (2K+1)^2
    exceeds the budget, ``ValueError`` on a truncation below 8 or not an
    integer (``16.0`` is one) or on ``x_points`` that are not finite pairs,
    and :class:`SolveFailure` on breakdown or on a weight that is not finite.
    """
    if not (math.isfinite(K) and K == int(K)):
        raise ValueError(f"truncation K must be an integer, not {K!r}")
    if K < 8:
        raise ValueError("truncation K must be at least 8")
    K = int(K)
    m = model.dim
    size = 2 * K + 1
    if m * size ** 2 > budget:
        raise BudgetExceeded(
            f"matrix dimension {m * size ** 2} exceeds budget {budget}"
        )
    x_points = np.array(x_points, dtype=float, ndmin=2)
    if x_points.shape[1:] != (2,):
        raise ValueError(f"x_points must have shape (n_x, 2), not {x_points.shape}")
    if not np.all(np.isfinite(x_points)):
        raise ValueError("x_points must be finite")
    # k x itself keeps no digit of the angle once x passes about 1e16
    angles = np.array([[c if 0.0 <= c < 2.0 * math.pi
                        else math.atan2(math.sin(c), math.cos(c)) % (2.0 * math.pi)
                        for c in pt] for pt in x_points.tolist()]).reshape(x_points.shape)
    ks = np.arange(-K, K + 1)
    modes = np.stack(np.meshgrid(ks, ks, indexing="ij"), axis=-1).reshape(-1, 2)
    labels = _component_labels(modes, model.coupling_modes(), K)
    # components in order of their smallest mode, each in ascending mode order
    by_label = np.argsort(labels, kind="stable")
    starts = np.flatnonzero(np.r_[True, np.diff(labels[by_label]) != 0])
    sizes = np.diff(np.r_[starts, modes.shape[0]])
    position = np.empty_like(by_label)  # index of each mode in its component
    position[by_label] = np.arange(by_label.size) - np.repeat(starts, sizes)
    *coefficients, potential = (fld.modes for fld in (*model.coefficients, model.potential))
    field_modes = dict.fromkeys(g for fld in (*coefficients, potential) for g in fld)
    stacks = []  # component indices, by size and then smallest mode
    # not np.unique: it imports numpy.ma, 12-19 ms and 1 MB of peak RSS
    for n_local in sorted(set(sizes.tolist())):
        components = np.flatnonzero(sizes == n_local)
        per_stack = _table_rows(16 * (n_local * m) ** 2)
        stacks.extend(components[lo:lo + per_stack]
                      for lo in range(0, components.size, per_stack))

    # each component's rows of the spectrum, in component order, filled in
    # place by the stacks' workers
    offsets = np.r_[0, np.cumsum(sizes * m)]
    values, weights = np.empty(offsets[-1]), np.empty((offsets[-1], angles.shape[0]))
    held = {}  # each worker's mapping, by thread

    def carve(layout):
        """Views of this worker's mapping, grown first if ``layout`` needs more."""
        nbytes = sum(np.dtype(dtype).itemsize * count for dtype, count in layout)
        worker = threading.get_ident()
        if worker not in held or len(held[worker]) < nbytes:
            held[worker] = _mapping(nbytes)  # the last stack's views went with its solve
        return _carve(held[worker], layout)

    def solve(group):
        """Eigenvalues and weights of each block of one stack, into its rows."""
        n_local = sizes[group[0]]
        rows = n_local * m
        slots = offsets[group, None] + np.arange(rows)
        kvec = modes[by_label[starts[group, None] + np.arange(n_local)]]
        probes = _probe_matrix(kvec.astype(float), m, angles)
        tridiagonal = rows >= _TRIDIAGONAL_ROWS and _lapack() is not None
        doubles = 2 * group.size * rows ** 2
        space = carve(_probe_layout(group.size, rows, probes.shape[1]) if tridiagonal
                      else ((float, doubles),))
        stack = space[0][:doubles].view(complex).reshape(group.size, n_local, m, n_local, m)
        stack.fill(0.0)
        for g in field_modes:
            target = kvec + g
            comp, i = np.nonzero(np.all(np.abs(target) <= K, axis=-1))
            k, t = kvec[comp, i], target[comp, i]
            j = position[(t[:, 0] + K) * size + t[:, 1] + K]
            acc = np.zeros((comp.size, m, m), dtype=complex)
            for alpha, fld in enumerate(coefficients):
                if g in fld:
                    coef = 0.5 * (k[:, alpha] + t[:, alpha])
                    acc += coef[:, None, None] * fld[g]
            if g in potential:
                acc += potential[g]
            stack[comp, j, :, i, :] += acc
        try:
            if not tridiagonal:
                values[slots], vecs = np.linalg.eigh(stack.reshape(group.size, rows, rows))
                amp = probes @ vecs
                weights[slots] = _probe_weights(amp.real, amp.imag, m)
                return
            for slot, (vals, re, im) in zip(slots, _probe_spectrum(space, probes)):
                values[slot], weights[slot] = vals, _probe_weights(re, im, m)
        except np.linalg.LinAlgError as exc:
            raise SolveFailure(f"dense eigensolver failed: {exc}") from exc

    try:
        _map_pinned(solve, stacks)
    except BaseException as exc:
        # the failing stack's frames hold views of its worker's mapping
        while exc is not None:
            traceback.clear_frames(exc.__traceback__)
            exc = exc.__context__
        raise
    finally:
        held.clear()  # each mapping is unmapped with its last view
    if not np.all(np.isfinite(weights)):
        raise SolveFailure("weights not finite")
    order = np.argsort(values, kind="stable")
    return SpectrumResult(
        K=K,
        eigenvalues=values[order],
        x_points=x_points,
        weights=weights[order],
        trusted_max=TRUSTED_FRACTION * K,
    )


# ---------------------------------------------------------------------------
# Mollifier
# ---------------------------------------------------------------------------

def _bump(s: np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - s[inside] ** 2))
    return out


def _bump_integral(v: np.ndarray, nodes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Integral of the standard bump over [-1, 2v - 1], for 0 <= v <= 1/2,
    over the values of v whose (values x nodes) tables s and bump(s) fit
    :func:`_table_rows`."""
    v = np.asarray(v, dtype=float)
    flat = v.ravel()
    out = np.empty_like(flat)
    rows = _table_rows(2 * 8 * nodes.size)
    for i in range(0, flat.size, rows):
        s = -1.0 + np.multiply.outer(flat[i:i + rows], 1.0 + nodes)
        out[i:i + rows] = _bump(s) @ weights
    return (out * flat).reshape(v.shape)


@lru_cache(maxsize=None)
def _step_rule() -> tuple:
    """Nodes, weights and bump norm of the one rule behind every step value.

    The bump is flat to all orders at -1, so 80 Gauss-Legendre nodes
    (:func:`~weylsys.kernels.gauss_legendre`) reach the roundoff floor: on
    the half-support intervals used by
    :func:`bump_step`, 160 nodes move no step value by more than 4e-16
    (40 nodes would still be 9e-12 off).  Built on first use, so runs
    without a mollifier never pay for it.
    """
    nodes, weights = gauss_legendre(80)
    norm = 2.0 * float(_bump_integral(np.array(0.5), nodes, weights))
    return nodes, weights, norm


def bump_step(u) -> np.ndarray:
    """Integrated standard bump, 0 at u <= 0, 1 at u >= 1, smooth between.

    Vectorised over u.  Uses step(u) = 1 - step(1 - u) above u = 1/2, so
    every integral runs over at most half of the bump's support.
    """
    nodes, weights, norm = _step_rule()
    u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    lower = _bump_integral(np.minimum(u, 1.0 - u), nodes, weights) / norm
    return np.where(u > 0.5, 1.0 - lower, lower)


def plateau_transform(t, support: float):
    """The band side of the mollifier: 1 on [-T/2, T/2], 0 outside (-T, T)."""
    arr = np.atleast_1d(np.asarray(t, dtype=float))
    a = np.abs(arr)
    out = np.zeros_like(a)
    out[a <= support / 2.0] = 1.0
    mid = (a > support / 2.0) & (a < support)
    out[mid] = bump_step(2.0 * (support - a[mid]) / support)
    return out if np.ndim(t) else float(out[0])


# nu T from which the plateau's transform stays below 1e-14 of its peak; the
# plateau is scaled by T, so the same at every support (1e-12 from 1,296).
_ALIAS_FREE = 2000.0
# Rows from which a Galerkin block is tridiagonalised instead of eigh-solved:
# the measured crossover.  Per block, in 256 KiB stacks of random Hermitian
# blocks with four probe rows, one BLAS thread, best of nine (SkylakeX
# OpenBLAS 0.3.31, 2 vCPU):
#   rows             16     20     24     34     50     66     98    162
#   eigh, us       42.8   75.2  121.3  153.1  338.4  613.4   1482   4752
#   tridiagonal    53.7   70.5   93.8  147.4  275.2  445.0    984   2704
# From 26 to 32 rows zheevd's divide and conquer (past LAPACK's 25 rows)
# runs 2-12% ahead of dstedc's; no catalog block has that size.
_TRIDIAGONAL_ROWS = 24


def _angle_split(n: int, spacing: float) -> tuple:
    """Bases and offsets of the points spacing * (0, ..., n) for angle
    addition: point i = b R + r is base spacing * b R plus offset
    spacing * r, with R = isqrt(n) + 1 offsets and n // R + 1 bases."""
    n_off = math.isqrt(n) + 1  # ceil(sqrt(n + 1)) offsets, ceil((n + 1) / n_off) bases
    n_base = n // n_off + 1
    return spacing * (n_off * np.arange(n_base)), spacing * np.arange(n_off)


@dataclass(frozen=True)
class Mollifier:
    """Sampled mollifier: inverse transform of a compactly supported plateau.

    Every evaluation is a band sum (1/pi) sum_k w_k cos(nu t_k) of the
    trapezoid-weighted plateau values w_k at the nodes t_k = k T / n of
    [0, T], T the support (:meth:`_sum`), with n from the one node rule of
    :meth:`_nodes` at the largest |nu| the sum reaches, so every sum is the
    plateau's transform up to roundoff.  A call at a nu that is not finite
    or past the rule's table raises :class:`QuadratureFailure`.  T must lie
    below 2 pi, the shortest closed trajectory on the unit-speed torus
    (:class:`SupportTooLarge`), and be positive (``ValueError``, NaN too).
    """

    support: float

    def __post_init__(self):
        if not self.support > 0.0:  # NaN too
            raise ValueError("support must be positive")
        if self.support >= 2.0 * math.pi:
            raise SupportTooLarge(f"support {self.support} not below the loop "
                                  f"bound {2 * math.pi:.6f}")

    def _nodes(self, reach: float) -> int:
        """n of the nodes k T / n, k = 0, ..., n, of a band sum reaching
        |nu| <= ``reach``: their trapezoid rule is the plateau's transform
        plus aliases at nu + 2 pi j n / T, j != 0, so the least n with
        2 pi n >= T reach + ``_ALIAS_FREE`` puts each alias below 1e-14 of
        the peak; it is rounded up until the n + 1 nodes fill
        :func:`_angle_split`'s table.  :class:`QuadratureFailure`, naming
        the reach, when that table of complex values would not fit
        ``_TABLE_BYTES`` (a reach above about 33,600 at support 3, or not
        finite)."""
        cap = _TABLE_BYTES // 16
        need = (self.support * reach + _ALIAS_FREE) / (2.0 * math.pi)
        n = math.ceil(need) if need < cap else cap  # NaN too
        n_off = math.isqrt(n) + 1
        n = -(-(n + 1) // n_off) * n_off - 1
        if n + 1 > cap:
            raise QuadratureFailure(f"band reach {reach:.3e} needs more than the {cap} "
                                    "nodes of one band table")
        return n

    @_one_blas_thread()
    def _sum(self, nu: np.ndarray, phi, n: int) -> np.ndarray:
        """(1/pi) sum_k w_k Re[e^(i nu t_k) phi(t_k)] at every nu of a 1-D
        array over the n + 1 nodes of :meth:`_nodes`, phi a constant or one
        (bases x offsets) node-value table of :func:`_angle_split`: one
        (n_nu x bases)(bases x offsets) product of exponential tables, bases
        counted from the middle one (half the rounding of nu t), and a dot
        with the offsets' table, over the nu rows whose tables and products
        fit :func:`_table_rows`, on one BLAS thread (:func:`_band_characteristic`)."""
        bases, offsets = _angle_split(n, self.support / n)
        mid = bases[bases.size // 2]
        t = np.linspace(0.0, self.support, n + 1)
        weights = plateau_transform(t, self.support) * (self.support / n)
        weights[0] *= 0.5  # the plateau vanishes at the last node, t = T
        weighted = weights.reshape(bases.size, offsets.size) * phi
        rows = _table_rows(16 * (bases.size + 3 * offsets.size))
        out = np.empty(nu.shape)
        for i in range(0, nu.size, rows):
            block = nu[i:i + rows]
            rotated = ((np.exp(1j * np.outer(block, bases - mid)) @ weighted)
                       * np.exp(1j * np.outer(block, offsets)))
            out[i:i + rows] = (np.exp(1j * mid * block) * np.sum(rotated, axis=-1)).real
        return out / math.pi

    def __call__(self, nu) -> np.ndarray:
        nu = np.asarray(nu, dtype=float)
        reach = float(np.max(np.abs(nu), initial=0.0))
        return self._sum(nu.ravel(), 1.0, self._nodes(reach)).reshape(nu.shape)


build_mollifier = Mollifier


# ---------------------------------------------------------------------------
# Counting and fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountingSamples:
    """Smoothed local counting derivative on a grid ``mu`` (a read-only copy)."""

    mu: np.ndarray
    values: np.ndarray
    mollifier_support: float
    trusted_max: float

    def __post_init__(self):
        mu = np.array(self.mu, dtype=float)
        mu.flags.writeable = False
        object.__setattr__(self, "mu", mu)


@_one_blas_thread()
def _band_characteristic(centers, weights, bases, offsets) -> np.ndarray:
    """Phi(t) = sum_j weights[j] e^(-i centers_j t) at the nodes t = base +
    offset of :func:`_angle_split`, shape (n_base, n_off).

    e^(-i c (a + s)) = e^(-i c a) e^(-i c s), so Phi is one
    (n_base x n_eig)(n_eig x n_off) product, summed over blocks of the
    eigenvalues whose two tables and weighted copy ``base * w`` fit
    :func:`_table_rows`.  The products run on one BLAS thread
    (:func:`_one_blas_thread`): OpenBLAS threads a complex product from
    about 65,000 multiply-adds, below these tables' size, and waking a
    sleeping worker costs more than the product, while a sum split across
    threads would round with the thread count.
    """
    out = np.zeros((bases.size, offsets.size), dtype=complex)
    rows = _table_rows(16 * (2 * bases.size + offsets.size))
    for j in range(0, centers.size, rows):
        block = centers[j:j + rows]
        base = np.exp(-1j * np.outer(bases, block))
        off = np.exp(-1j * np.outer(block, offsets))
        out += (base * weights[j:j + rows]) @ off
    return out


def local_counting_mollified(
    spectrum: SpectrumResult,
    mollifier: Mollifier,
    i: int,
    mu_grid: np.ndarray,
    branch: str = "plus",
) -> CountingSamples:
    """Convolve the weighted spectral measure with the mollifier at one point.

    Reads the weights at ``spectrum.x_points[i]``.
    plus branch: sum over positive eigenvalues of rho(mu - lambda) w(x);
    minus branch mirrors through zero.  rho is a band sum, so the sample is
    exactly the mollifier's :meth:`Mollifier._sum` with phi the local
    half-wave trace Phi(t) = sum_lambda w(x) e^(-i lambda t) at the nodes
    of :meth:`Mollifier._nodes` at the reach R = max(largest center of the
    branch, trusted_max), by angle addition (a far eigenvalue of the other
    branch adds no node).  Each call builds Phi at its own point, and
    nothing is kept on the spectrum.  Every eigenvalue counts, however far
    from the grid.
    Raises :class:`WindowViolation` when the grid is empty, holds NaN or
    leaves the trusted window, or when the branch has no eigenvalue in that
    window (a shift past the truncation), ``ValueError`` unless ``i`` is an
    integer (not a bool) in [0, n_x) or on an unknown branch, and
    :class:`QuadratureFailure` when an eigenvalue or the point's weight is
    not finite, when a band phase, a node times an eigenvalue, is not
    finite, or, after that, when R is past the band table
    (:meth:`Mollifier._nodes`).
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    if mu_grid.size == 0:
        raise WindowViolation("empty mu grid")
    lo, hi = np.min(mu_grid), np.max(mu_grid)
    if not (lo >= 0.0 and hi <= spectrum.trusted_max):  # NaN fails too
        raise WindowViolation(
            f"mu grid [{lo:.2f}, {hi:.2f}] outside "
            f"trusted window [0, {spectrum.trusted_max:.2f}]"
        )
    n_x = spectrum.weights.shape[1]
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)) or not 0 <= i < n_x:
        raise ValueError(f"point index i must be an integer in [0, {n_x}), not {i!r}")
    lam, w = spectrum.eigenvalues, spectrum.weights[:, i]
    for name, arr in (("eigenvalues", lam), (f"weights at point {i}", w)):
        if not np.all(np.isfinite(arr)):
            raise QuadratureFailure(f"spectrum {name} not finite")
    if branch == "plus":
        sel = lam > 0
        centers = lam[sel]
    elif branch == "minus":
        sel = lam < 0
        centers = -lam[sel]
    else:
        raise ValueError("branch must be 'plus' or 'minus'")
    reach = float(np.max(centers, initial=spectrum.trusted_max))
    if not math.isfinite(mollifier.support * reach):  # NaN too
        raise QuadratureFailure(f"band phases overflow at eigenvalue reach {reach:.3e}")
    if not np.any(centers <= spectrum.trusted_max):
        raise WindowViolation(
            f"{branch} branch has no eigenvalue in the trusted window "
            f"[0, {spectrum.trusted_max:.2f}]"
        )
    n = mollifier._nodes(reach)
    phi = _band_characteristic(centers, w[sel], *_angle_split(n, mollifier.support / n))
    return CountingSamples(
        mu=mu_grid,
        values=mollifier._sum(mu_grid, phi, n),
        mollifier_support=mollifier.support,
        trusted_max=spectrum.trusted_max,
    )


def _least_squares(design: np.ndarray, y: np.ndarray) -> tuple:
    """Coefficients, residuals and coefficient standard errors of a fit.

    One thin SVD of the design gives both.  The coefficients are the
    minimum-norm solution V diag(1/s) U^T y with numpy's least-squares
    default cutoff: singular values below eps * max(M, N) * s_max contribute
    nothing.  The errors are sigma * |row of V diag(1/s)|, never from
    inverting the normal matrix: its condition number is the square of the
    design's.
    """
    u, sing, vt = np.linalg.svd(design, full_matrices=False)
    keep = sing > np.finfo(float).eps * max(design.shape) * sing[0]
    inv = np.divide(1.0, sing, out=np.zeros_like(sing), where=keep)
    coef = vt.T @ (inv * (u.T @ y))
    res = y - design @ coef
    dof = max(y.size - design.shape[1], 1)
    se = np.sqrt(res @ res / dof) * np.linalg.norm(vt.T / sing, axis=1)
    return coef, res, se


@dataclass(frozen=True)
class WeylFit:
    """Result of the two-term asymptotic fit."""

    a_leading: float
    a_second: float
    residual_rms: float
    se_leading: float
    se_second: float
    n_samples: int
    columns: tuple


def check_fit_window(mu, mu_lo: float, mu_hi: float, support: float) -> tuple:
    """Masks of the sample grid ``mu`` in the window and of those samples in
    its upper 60%, by the rules that do not depend on the spectrum: a span
    of at least a factor 2 and 8 grid points, one in the upper 60%
    (:class:`IllConditionedFit`), and mu_lo at or above the mollifier
    smearing scale 4 / support (:class:`WindowViolation`)."""
    if mu_hi <= mu_lo or mu_hi / max(mu_lo, 1e-12) < 2.0:
        raise IllConditionedFit(f"fit window [{mu_lo:g}, {mu_hi:g}] spans less than "
                                "a factor 2")
    if mu_lo < 4.0 / support - 1e-9:
        raise WindowViolation(f"fit window starts at {mu_lo:g}, below the mollifier "
                              f"smearing scale 4 / support = {4.0 / support:g}")
    mask = (mu >= mu_lo) & (mu <= mu_hi)
    if np.count_nonzero(mask) < 8:
        raise IllConditionedFit("fewer than 8 samples in the fit window")
    upper = mu[mask] > mu_lo + 0.4 * (mu_hi - mu_lo)
    if not np.any(upper):
        raise IllConditionedFit("no sample in the upper 60% of the fit window")
    return mask, upper


def fit_weyl(
    samples: CountingSamples,
    n: int,
    window: tuple,
    mollifier: Optional[Mollifier] = None,
) -> WeylFit:
    """Least-squares fit of the two-term growth law to counting samples.

    Basis: mu^(n-1), mu^(n-2), mu^(n-3) (next asymptotic order) and, when
    a mollifier is given and its shape decays across the window, two
    spectral-bottom columns rho(mu), rho(mu - 1), band sums at the reach
    trusted_max + 1 (:meth:`Mollifier._nodes`), absorbing the exactly known
    low-spectrum contamination.  Returns coefficients with their
    least-squares standard errors and the RMS residual.  Raises the
    :func:`check_fit_window` errors (the shape's decay is judged in the
    window's upper 60%), :class:`QuadratureFailure` when a sample in the
    window is not finite, and ``ValueError`` when the mollifier's support
    is not the one the samples were smoothed with (its bottom columns would
    bias the fit).
    """
    if mollifier is not None and mollifier.support != samples.mollifier_support:
        raise ValueError(f"mollifier support {mollifier.support:g} differs from the "
                         f"samples' support {samples.mollifier_support:g}")
    mu_lo, mu_hi = float(window[0]), float(window[1])
    mask, upper = check_fit_window(samples.mu, mu_lo, mu_hi, samples.mollifier_support)
    if mu_hi > samples.trusted_max + 1e-9:
        raise WindowViolation("fit window exceeds the trusted spectral range")
    mu = samples.mu[mask]
    y = samples.values[mask]
    if not np.all(np.isfinite(y)):
        raise QuadratureFailure("counting samples in the fit window not finite")
    cols = [mu ** (n - 1), mu ** (n - 2), mu ** (n - 3)]
    names = ["leading", "second", "next-order"]
    if mollifier is not None:
        # rho(mu) and rho(mu - 1) reach |nu| <= trusted_max + 1
        n = mollifier._nodes(samples.trusted_max + 1.0)
        shape = mollifier._sum(mu, 1.0, n)
        peak = float(np.max(np.abs(shape)))
        mid = float(np.max(np.abs(shape[upper])))
        if peak > 0 and mid < 0.05 * peak:
            cols.extend([shape, mollifier._sum(mu - 1.0, 1.0, n)])
            names.extend(["bottom-0", "bottom-1"])
    coef, res, se = _least_squares(np.stack(cols, axis=1), y)
    return WeylFit(
        a_leading=float(coef[0]),
        a_second=float(coef[1]),
        residual_rms=float(np.sqrt(np.mean(res ** 2))),
        se_leading=float(se[0]),
        se_second=float(se[1]),
        n_samples=int(mu.size),
        columns=tuple(names),
    )
