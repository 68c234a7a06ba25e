"""Grid, kinetic operator, and bound-state solver on exactly solvable cases."""

import numpy as np
import pytest
import scipy.linalg

from carsdj.constants import HBARSQ_CM1_AMU_ANG2
from carsdj.dvr import (
    Grid,
    _fix_signs,
    build_hamiltonian,
    kinetic_matrix,
    solve_bound_states,
)
from carsdj.molecule import DEFAULT_GRID, IODINE_B, IODINE_REDUCED_MASS, IODINE_X
from carsdj.morse import morse_potential


def _dense_kinetic_matrix(grid, reduced_mass):
    """Reference: every entry from the full matrix of index offsets."""
    coeff = HBARSQ_CM1_AMU_ANG2 / (2.0 * reduced_mass * grid.spacing**2)
    idx = np.arange(grid.n_points)
    diff = idx[:, None] - idx[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = 2.0 * np.where(diff % 2 == 0, 1.0, -1.0) / (diff.astype(float) ** 2)
    np.fill_diagonal(t, np.pi**2 / 3.0)
    return coeff * t


def _row_loop_fix_signs(vectors):
    """Reference: the sign convention applied one row at a time."""
    out = vectors.copy()
    for row in out:
        thresh = 1e-4 * np.max(np.abs(row))
        first = np.flatnonzero(np.abs(row) > thresh)[0]
        if row[first] < 0.0:
            row *= -1.0
    return out


def test_grid_rejects_empty_interval_and_too_few_points():
    with pytest.raises(ValueError, match="interval is empty"):
        Grid(r_min=3.0, r_max=3.0, n_points=64)
    with pytest.raises(ValueError, match="at least 16"):
        Grid(r_min=0.0, r_max=1.0, n_points=8)


def test_grid_points_include_both_endpoints():
    g = Grid(r_min=1.0, r_max=3.0, n_points=21)
    r = g.points()
    assert r.shape == (21,)
    assert r[0] == 1.0 and r[-1] == 3.0
    assert g.spacing == pytest.approx(0.1, abs=1e-15)
    np.testing.assert_allclose(np.diff(r), g.spacing, rtol=0, atol=1e-12)


def test_kinetic_matrix_structure():
    g = Grid(r_min=0.0, r_max=2.0, n_points=33)
    mu = 5.0
    t = kinetic_matrix(g, mu)
    coeff = HBARSQ_CM1_AMU_ANG2 / (2.0 * mu * g.spacing**2)
    assert t.shape == (33, 33)
    np.testing.assert_array_equal(t, t.T)
    np.testing.assert_allclose(np.diag(t), coeff * np.pi**2 / 3.0, rtol=1e-14)
    assert t[0, 1] == pytest.approx(-2.0 * coeff, rel=1e-14)
    assert t[0, 2] == pytest.approx(0.5 * coeff, rel=1e-14)
    # entries depend only on the index offset
    assert t[3, 7] == pytest.approx(t[10, 14], rel=1e-14)


@pytest.mark.parametrize("reduced_mass", [2e-303, 1e-320, 5e-324])
def test_kinetic_matrix_rejects_non_finite_entries(reduced_mass):
    with pytest.raises(ValueError, match="reduced_mass = .* non-finite"):
        kinetic_matrix(DEFAULT_GRID, reduced_mass)


@pytest.mark.parametrize("reduced_mass", [0.0, -1.0])
def test_kinetic_matrix_rejects_a_mass_that_is_not_positive(reduced_mass):
    with pytest.raises(
        ValueError, match=f"^reduced_mass must be positive, got {reduced_mass}$"
    ):
        kinetic_matrix(DEFAULT_GRID, reduced_mass)


def test_kinetic_matrix_scales_inversely_with_mass():
    g = Grid(r_min=0.0, r_max=2.0, n_points=17)
    np.testing.assert_allclose(
        kinetic_matrix(g, 8.0), 0.5 * kinetic_matrix(g, 4.0), rtol=1e-15
    )


def test_kinetic_matrix_reproduces_plane_wave_curvature():
    g = Grid(r_min=0.0, r_max=40.0, n_points=1024)
    t = kinetic_matrix(g, 1.0)
    x = g.points()
    k = 0.3 * np.pi / g.spacing
    psi = np.sin(k * (x - 20.0))
    expect = (HBARSQ_CM1_AMU_ANG2 / 2.0) * k * k * psi
    err = np.abs((t @ psi)[300:724] - expect[300:724]).max() / np.abs(expect).max()
    assert err < 1e-4


@pytest.mark.parametrize("n_points", [16, 17, 33, 512, 513])
@pytest.mark.parametrize("reduced_mass", [IODINE_REDUCED_MASS, 1.0])
@pytest.mark.parametrize("bounds", [(2.0, 6.5), (-4.0, 4.3)])
def test_kinetic_matrix_is_bit_identical_to_the_dense_construction(
    n_points, reduced_mass, bounds
):
    g = Grid(*bounds, n_points)
    fast = kinetic_matrix(g, reduced_mass)
    assert fast.dtype == np.float64 and fast.flags.writeable
    assert fast.tobytes() == _dense_kinetic_matrix(g, reduced_mass).tobytes()


def test_sign_fix_is_bit_identical_to_the_row_loop_on_the_default_states():
    for params in (IODINE_X, IODINE_B):
        h = build_hamiltonian(
            DEFAULT_GRID, lambda r: morse_potential(params, r), IODINE_REDUCED_MASS
        )
        _, vectors = scipy.linalg.eigh(h, subset_by_index=[0, 39])
        for rows in (vectors.T, -vectors.T):
            assert _fix_signs(rows).tobytes() == _row_loop_fix_signs(rows).tobytes()


def test_sign_fix_is_bit_identical_to_the_row_loop_on_random_rows():
    rng = np.random.default_rng(8)
    rows = rng.standard_normal((200, 24))
    for row in rows:
        # Leading entries below the 1e-4 threshold of either sign, exact
        # zeros of either sign, then a first significant entry of
        # random sign.
        lead = rng.integers(0, 8)
        row[:lead] = rng.choice([-1e-6, 1e-6, 0.0, -0.0], size=lead)
        row[rng.integers(0, 24, size=3)] = rng.choice([0.0, -0.0], size=3)
        row[lead] = rng.choice([-2.0, 2.0])
    expect = _row_loop_fix_signs(rows)
    assert _fix_signs(rows).tobytes() == expect.tobytes()
    zeros = expect == 0.0
    assert np.signbit(expect[zeros]).any() and (~np.signbit(expect[zeros])).any()
    assert (rows[:, 0] < 0.0).any() and (rows[:, 0] > 0.0).any()


def test_hamiltonian_adds_potential_on_the_diagonal():
    g = Grid(r_min=-1.0, r_max=1.0, n_points=17)
    h = build_hamiltonian(g, lambda r: 3.0 * r**2, 2.0)
    expect = kinetic_matrix(g, 2.0)
    expect[np.diag_indices_from(expect)] += 3.0 * g.points() ** 2
    np.testing.assert_array_equal(h, expect)


def test_hamiltonian_rejects_bad_potentials():
    g = Grid(r_min=0.5, r_max=1.5, n_points=16)
    with pytest.raises(ValueError, match="shape"):
        build_hamiltonian(g, lambda r: np.array([1.0]), 1.0)
    with pytest.raises(ValueError, match="not finite at grid point"):
        build_hamiltonian(g, lambda r: np.where(r < 1.0, 0.0, np.inf), 1.0)


def test_harmonic_levels_and_orthonormality():
    g = Grid(r_min=-4.0, r_max=4.3, n_points=512)
    k, mu = 400.0, 10.0
    omega = np.sqrt(k * HBARSQ_CM1_AMU_ANG2 / mu)
    assert omega == pytest.approx(36.72343033, abs=1e-7)
    h = build_hamiltonian(g, lambda r: 0.5 * k * r**2, mu)
    sol = solve_bound_states(h, 12)
    assert sol.n_bound == 12
    expect = omega * (np.arange(12) + 0.5)
    np.testing.assert_allclose(sol.energies, expect, rtol=0, atol=1e-8)
    overlaps = sol.wavefunctions @ sol.wavefunctions.T
    np.testing.assert_allclose(overlaps, np.eye(12), rtol=0, atol=1e-8)


def test_eigenvector_sign_convention():
    g = Grid(r_min=-4.0, r_max=4.3, n_points=256)
    h = build_hamiltonian(g, lambda r: 0.5 * 400.0 * r**2, 10.0)
    sol = solve_bound_states(h, 8)
    for row in sol.wavefunctions:
        first = np.flatnonzero(np.abs(row) > 1e-4 * np.abs(row).max())[0]
        assert row[first] > 0.0


def test_solver_rejects_bad_shapes_and_counts():
    with pytest.raises(ValueError, match="square"):
        solve_bound_states(np.zeros((4, 5)), 2)
    h = np.eye(16)
    with pytest.raises(ValueError, match="n_states"):
        solve_bound_states(h, 0)
    with pytest.raises(ValueError, match="n_states"):
        solve_bound_states(h, 17)


def test_an_eigensolver_failure_is_a_runtime_error(monkeypatch):
    def fails(*args, **kwargs):
        raise scipy.linalg.LinAlgError("synthetic failure")

    monkeypatch.setattr(scipy.linalg, "eigh", fails)
    with pytest.raises(
        RuntimeError, match="^eigensolver failed to converge: synthetic failure$"
    ):
        solve_bound_states(np.eye(16), 2)
