"""Grid, kinetic operator, and bound-state solver on exactly solvable cases."""

import numpy as np
import pytest

from carsdj.constants import HBARSQ_CM1_AMU_ANG2
from carsdj.dvr import Grid, build_hamiltonian, kinetic_matrix, solve_bound_states


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
