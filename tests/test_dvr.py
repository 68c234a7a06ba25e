"""Grid, kinetic operator, and bound-state solver on exactly solvable cases."""

import os
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import carsdj.dvr as dvr
from carsdj.constants import HBARSQ_CM1_AMU_ANG2
from carsdj.dvr import (
    Grid,
    _dsyevr,
    _fix_signs,
    _one_blas_thread,
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


def test_a_failure_the_routine_reports_is_a_runtime_error(monkeypatch):
    # The routine's info argument is the last one; a positive info means
    # that some eigenvalues or eigenvectors did not converge.
    @dvr._DSYEVR_TYPE
    def reports_failure(*args):
        args[-1][0] = 3

    monkeypatch.setattr(dvr, "_DSYEVR", reports_failure)
    with pytest.raises(
        RuntimeError, match="^eigensolver failed to converge: dsyevr returned info = 3$"
    ):
        solve_bound_states(np.eye(16), 2)


def test_a_failure_the_solve_reports_after_its_query_is_a_runtime_error(monkeypatch):
    # The routine's lwork argument is -1 in the workspace query only.
    real = dvr._DSYEVR

    @dvr._DSYEVR_TYPE
    def solve_reports_failure(*args):
        real(*args)
        if args[17][0] != -1:
            args[-1][0] = 3

    monkeypatch.setattr(dvr, "_DSYEVR", solve_reports_failure)
    with pytest.raises(
        RuntimeError, match="^eigensolver failed to converge: dsyevr returned info = 3$"
    ):
        solve_bound_states(np.eye(16), 2)


@pytest.mark.parametrize("n", [16, 37, 100, 512, 2048])
def test_the_workspace_query_gives_the_sizes_eigh_allocates(monkeypatch, n):
    # Only the query reaches the routine, so a large n costs nothing.
    real, sizes = dvr._DSYEVR, []

    @dvr._DSYEVR_TYPE
    def query_only(*args):
        sizes.append((args[17][0], args[19][0]))
        if args[17][0] == -1:
            real(*args)

    monkeypatch.setattr(dvr, "_DSYEVR", query_only)
    _dsyevr(np.eye(n), 1)
    lwork, liwork, info = scipy.linalg.lapack.dsyevr_lwork(n, lower=1)
    assert info == 0
    assert sizes == [(-1, -1), (int(lwork), int(liwork))]


def test_a_build_imports_no_scipy_linalg():
    # scipy.linalg is about half of ``import carsdj``; dvr opens scipy's
    # LAPACK library by path instead.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
    )
    code = (
        "import sys, carsdj; carsdj.build_model(); "
        "print([m for m in sys.modules if m.startswith('scipy.linalg')])"
    )
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout == "[]\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_hamiltonian_is_refused(bad):
    h = np.eye(16)
    h[3, 5] = bad
    with pytest.raises(ValueError, match="^hamiltonian must not contain infs or NaNs$"):
        solve_bound_states(h, 2)


@st.composite
def _symmetric_matrices(draw):
    """(matrix, k): a random symmetric float or integer matrix, or a Morse
    DVR Hamiltonian with d_e and beta perturbed, C- or F-ordered."""
    dim = draw(st.integers(16, 600))
    k = draw(st.integers(1, dim))
    kind = draw(st.sampled_from(["random", "integer", "morse"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "morse":
        base = draw(st.sampled_from([IODINE_X, IODINE_B]))
        s = 1.0 + rng.uniform(-0.02, 0.02, size=2)
        params = replace(base, d_e=base.d_e * s[0], beta=base.beta * s[1])
        h = build_hamiltonian(
            Grid(2.0, 6.5, dim), lambda r: morse_potential(params, r), IODINE_REDUCED_MASS
        )
    elif kind == "integer":
        m = rng.integers(-1000, 1000, size=(dim, dim))
        h = m + m.T
    else:
        m = rng.standard_normal((dim, dim))
        h = m + m.T
    return np.asarray(h, order=draw(st.sampled_from("CF"))), k


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(_symmetric_matrices(), st.booleans())
def test_the_private_eigensolve_is_bit_identical_to_scipy_eigh(case, pinned):
    # Same LAPACK routine and arguments, same bits, on one BLAS thread or
    # on the process's count, provided both run on the same one.  The
    # public solve always runs on one.
    h, k = case
    before = h.tobytes()
    with _one_blas_thread() if pinned else nullcontext():
        energies, vectors = scipy.linalg.eigh(h, subset_by_index=[0, k - 1])
        got_energies, got_vectors = _dsyevr(h, k)
        sol = solve_bound_states(h, k)
    with _one_blas_thread():
        one_energies, one_vectors = scipy.linalg.eigh(h, subset_by_index=[0, k - 1])
    assert h.tobytes() == before
    assert got_energies.tobytes() == energies.tobytes()
    assert got_vectors.tobytes() == vectors.tobytes()
    assert sol.energies.tobytes() == one_energies.tobytes()
    assert sol.wavefunctions.tobytes() == _fix_signs(one_vectors.T).tobytes()
