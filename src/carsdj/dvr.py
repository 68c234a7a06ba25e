"""Sinc-function discrete variable representation on a uniform grid.

Bound vibrational states of an arbitrary 1-D potential are obtained by
diagonalising kinetic + potential in the sinc basis, where the kinetic
matrix has the closed form

    T[i][i] = hbar^2 / (2 m dx^2) * pi^2 / 3
    T[i][j] = hbar^2 / (2 m dx^2) * 2 (-1)^(i-j) / (i-j)^2,  i != j

and the potential is diagonal at the grid points.  The kinetic matrix
depends only on i - j, so it is Toeplitz and is filled from its first row.
Convergence is exponential in the number of points per de Broglie
wavelength, so modest grids give spectroscopic accuracy.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .constants import HBARSQ_CM1_AMU_ANG2


@dataclass(frozen=True)
class Grid:
    """Uniform radial grid, endpoints included.

    Attributes
    ----------
    r_min, r_max : float
        Interval ends in angstrom.
    n_points : int
        Number of grid points (at least 16).
    """

    r_min: float
    r_max: float
    n_points: int

    def __post_init__(self) -> None:
        if not (self.r_min < self.r_max):
            raise ValueError(
                f"grid interval is empty: r_min ({self.r_min:g}) must be below "
                f"r_max ({self.r_max:g})"
            )
        if self.n_points < 16:
            raise ValueError(f"n_points must be at least 16, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return (self.r_max - self.r_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.n_points)


@dataclass(frozen=True)
class EigenSolution:
    """Retained bound states of one potential curve.

    Attributes
    ----------
    energies : np.ndarray
        Ascending eigenvalues in cm^-1, relative to the well minimum.
    wavefunctions : np.ndarray
        Shape (n_states, n_points); unit Euclidean norm grid coefficient
        vectors, signed so the first significant component is positive.
    """

    energies: np.ndarray
    wavefunctions: np.ndarray

    @property
    def n_bound(self) -> int:
        """Number of retained states."""
        return len(self.energies)


def kinetic_matrix(grid: Grid, reduced_mass: float) -> np.ndarray:
    """Sinc-DVR kinetic energy matrix in cm^-1.

    Raises ValueError unless the mass is positive and every entry is
    finite.
    """
    if reduced_mass <= 0.0:
        raise ValueError(f"reduced_mass must be positive, got {reduced_mass}")
    offset = np.arange(grid.n_points)
    with np.errstate(divide="ignore"):
        row = 2.0 * np.where(offset % 2 == 0, 1.0, -1.0) / (offset.astype(float) ** 2)
    row[0] = np.pi**2 / 3.0
    # A tiny mass underflows the denominator to 0 or overflows the entries.
    denominator = 2.0 * reduced_mass * grid.spacing**2
    with np.errstate(divide="ignore", over="ignore"):
        row = np.float64(HBARSQ_CM1_AMU_ANG2) / denominator * row
    if not np.isfinite(row).all():
        raise ValueError(
            f"reduced_mass = {reduced_mass:.4g} amu and a grid spacing of "
            f"{grid.spacing:.4g} angstrom make the kinetic energy matrix "
            f"non-finite"
        )
    rows = np.lib.stride_tricks.sliding_window_view(np.concatenate([row[:0:-1], row]), len(row))
    return rows[::-1].copy()


def build_hamiltonian(
    grid: Grid,
    potential: Callable[[np.ndarray], np.ndarray],
    reduced_mass: float,
) -> np.ndarray:
    """Kinetic + diagonal potential on the grid.

    Raises
    ------
    ValueError
        If the potential evaluates to a non-finite value anywhere, naming
        the offending grid point.
    """
    r = grid.points()
    v = np.asarray(potential(r), dtype=float)
    if v.shape != r.shape:
        raise ValueError(
            f"potential returned shape {v.shape}, expected {r.shape}"
        )
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        i = int(bad[0])
        raise ValueError(
            f"potential is not finite at grid point {i} (r = {r[i]:.6f} angstrom)"
        )
    h = kinetic_matrix(grid, reduced_mass)
    h[np.diag_indices_from(h)] += v
    return h


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each row so its first significant component is positive.

    The significance threshold is relative to the row's largest magnitude,
    which keeps the convention stable under grid refinement.
    """
    magnitude = np.abs(vectors)
    significant = magnitude > 1e-4 * magnitude.max(axis=1, keepdims=True)
    first = vectors[np.arange(len(vectors)), significant.argmax(axis=1)]
    return vectors * np.where(first < 0.0, -1.0, 1.0)[:, None]


# scipy's LAPACK library, found by the import system's own rules and opened
# by path, so scipy.linalg, about half of ``import carsdj``, is not imported.
_LINALG = os.path.join(importlib.util.find_spec("scipy").submodule_search_locations[0], "linalg")
_LAPACK = ctypes.CDLL(importlib.machinery.PathFinder.find_spec("cython_lapack", [_LINALG]).origin)


def _symbol(*names: str) -> str | None:
    """The first of ``names`` that scipy's LAPACK library exports, or None."""
    return next((name for name in names if hasattr(_LAPACK, name)), None)


_INT = ctypes.POINTER(ctypes.c_int)
_DOUBLE = ctypes.POINTER(ctypes.c_double)
# jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz,
# work, lwork, iwork, liwork, info
_DSYEVR_TYPE = ctypes.CFUNCTYPE(
    None,
    *(ctypes.c_char_p,) * 3,
    *(_INT, _DOUBLE, _INT, _DOUBLE, _DOUBLE, _INT, _INT, _DOUBLE, _INT, _DOUBLE),
    *(_DOUBLE, _INT, _INT, _DOUBLE, _INT, _INT, _INT, _INT),
)
# scipy's own dsyevr, the routine scipy.linalg.eigh calls by default.  A
# ctypes call releases the GIL, which eigh's f2py wrapper holds, so two
# threads can each solve a curve at once.  scipy's wheels export it with a
# prefix; a scipy built on another LAPACK may export the plain name.
_DSYEVR_NAME = _symbol("scipy_dsyevr_", "dsyevr_")
if _DSYEVR_NAME is None:
    raise ImportError(f"{_LAPACK._name} exports neither scipy_dsyevr_ nor dsyevr_")
_DSYEVR = _DSYEVR_TYPE((_DSYEVR_NAME, _LAPACK))


def _dsyevr(hamiltonian: np.ndarray, n_states: int) -> tuple[np.ndarray, np.ndarray]:
    """Lowest ``n_states`` eigenvalues and eigenvector columns of a square
    symmetric matrix, from its lower triangle.

    The arguments are those ``scipy.linalg.eigh(hamiltonian,
    subset_by_index=[0, n_states - 1])`` passes, an F-ordered float copy of
    the matrix included, so the bits are its bits.  The workspace sizes
    come from the routine's own query (``lwork = liwork = -1``), which gives
    the sizes eigh allocates.  RuntimeError if either call fails.
    """
    a = np.array(hamiltonian, dtype=float, order="F")
    n = a.shape[0]
    w = np.empty(n)
    z = np.empty((n, n_states), order="F")
    found, info = ctypes.c_int(), ctypes.c_int()

    def i(value: int):
        return ctypes.byref(ctypes.c_int(value))

    def d(value: float):
        return ctypes.byref(ctypes.c_double(value))

    def p(array: np.ndarray):
        return array.ctypes.data_as(_INT if array.dtype == np.intc else _DOUBLE)

    def call(work: np.ndarray, iwork: np.ndarray, lwork: int, liwork: int) -> None:
        _DSYEVR(
            b"V", b"I", b"L", i(n), p(a), i(n), d(0.0), d(1.0), i(1), i(n_states),
            d(0.0), ctypes.byref(found), p(w), p(z), i(n), p(np.empty(2 * n, np.intc)),
            p(work), i(lwork), p(iwork), i(liwork), ctypes.byref(info),
        )
        if info.value != 0:
            raise RuntimeError(
                f"eigensolver failed to converge: dsyevr returned info = {info.value}"
            )

    work, iwork = np.empty(1), np.empty(1, np.intc)
    call(work, iwork, -1, -1)
    lwork, liwork = int(work[0]), int(iwork[0])
    call(np.empty(lwork), np.empty(liwork, np.intc), lwork, liwork)
    return w[: found.value], z[:, : found.value]


def _eigensolve(hamiltonian: np.ndarray, n_states: int) -> EigenSolution:
    """``solve_bound_states`` for a square matrix and a count in [1, dim],
    unpinned and untraced, for a worker inside its caller's pin.  ValueError
    if an entry is not finite, RuntimeError if the eigensolver fails.
    """
    if not np.isfinite(hamiltonian).all():
        raise ValueError("hamiltonian must not contain infs or NaNs")
    energies, vectors = _dsyevr(hamiltonian, n_states)
    return EigenSolution(energies=energies, wavefunctions=_fix_signs(vectors.T))


def _blas_thread_calls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """Get and set of the thread count of the OpenBLAS scipy's LAPACK calls,
    or None under another BLAS.  Looked up in scipy's own LAPACK library,
    so numpy's separately bundled copy is not found instead."""
    get = _symbol("scipy_openblas_get_num_threads", "openblas_get_num_threads")
    if get is None:
        return None
    return (
        ctypes.CFUNCTYPE(ctypes.c_int)((get, _LAPACK)),
        ctypes.CFUNCTYPE(None, ctypes.c_int)((get.replace("_get_", "_set_"), _LAPACK)),
    )


_BLAS_THREADS = _blas_thread_calls()
_PIN_LOCK = threading.RLock()
# While a pin is held: the holder's thread id and the count from before its
# outermost pin.
_PIN_HELD: tuple[int, int] | None = None


def _fresh_pin_lock() -> None:
    """A forked child's lock: the thread that held the parent's is gone.
    Only that thread would have restored the count, so the child does it
    here; a pin the forking thread holds restores the count on leaving."""
    global _PIN_LOCK, _PIN_HELD
    _PIN_LOCK = threading.RLock()
    if _PIN_HELD is not None and _PIN_HELD[0] != threading.get_ident():
        _BLAS_THREADS[1](_PIN_HELD[1])
        _PIN_HELD = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_pin_lock)


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Pin scipy's OpenBLAS to one thread for the whole process, then
    restore its count.  One thread per eigensolve gives the same bits
    whatever the count was, and lets two run side by side.  One thread
    holds the pin at a time and may take it again; a worker running inside
    its caller's pin must not take it, or it waits forever.  The outermost
    pin records its thread and the count it found in ``_PIN_HELD``, so that
    a child forked from another thread gets that count back."""
    global _PIN_HELD
    with _PIN_LOCK:
        if _BLAS_THREADS is None:
            yield
            return
        get, set_ = _BLAS_THREADS
        previous = get()
        outermost = _PIN_HELD is None
        if outermost:
            _PIN_HELD = threading.get_ident(), previous
        set_(1)
        try:
            yield
        finally:
            set_(previous)
            if outermost:
                _PIN_HELD = None


def solve_bound_states(hamiltonian: np.ndarray, n_states: int) -> EigenSolution:
    """Lowest ``n_states`` eigenpairs with a deterministic sign convention.

    Solved under ``_one_blas_thread``: one BLAS thread's bits, whatever the count.

    Raises
    ------
    ValueError
        If the matrix is not square or has a non-finite entry, or more
        states are requested than the matrix dimension.
    RuntimeError
        If the dense symmetric eigensolver fails to converge.
    """
    dim = hamiltonian.shape[0]
    if hamiltonian.shape != (dim, dim):
        raise ValueError(f"hamiltonian must be square, got {hamiltonian.shape}")
    if not (1 <= n_states <= dim):
        raise ValueError(
            f"n_states must be in [1, {dim}], got {n_states}"
        )
    with _one_blas_thread():
        return _eigensolve(hamiltonian, n_states)
