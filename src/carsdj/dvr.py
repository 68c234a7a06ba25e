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

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

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
    return scipy.linalg.toeplitz(row)


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


def solve_bound_states(hamiltonian: np.ndarray, n_states: int) -> EigenSolution:
    """Lowest ``n_states`` eigenpairs with a deterministic sign convention.

    Raises
    ------
    ValueError
        If more states are requested than the matrix dimension.
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
    try:
        energies, vectors = scipy.linalg.eigh(
            hamiltonian, subset_by_index=[0, n_states - 1]
        )
    except scipy.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigensolver failed to converge: {exc}") from exc
    return EigenSolution(energies=energies, wavefunctions=_fix_signs(vectors.T))
