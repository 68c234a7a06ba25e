"""Shared fixtures for the test suite."""

import pytest

from carsdj import build_model
from carsdj.dvr import Grid, build_hamiltonian, solve_bound_states
from carsdj.molecule import VibronicModel


@pytest.fixture(scope="session")
def model():
    """Default iodine model, built once for the whole session."""
    return build_model()


@pytest.fixture(scope="session")
def harmonic_model():
    """A model built by hand from two displaced harmonic curves, whose
    upper levels are equally spaced."""
    k_x, k_b, mu = 500.0, 300.0, 20.0
    g = Grid(-5.0, 5.4, 700)
    lower = solve_bound_states(
        build_hamiltonian(g, lambda r: 0.5 * k_x * r**2, mu), 12
    )
    upper = solve_bound_states(
        build_hamiltonian(g, lambda r: 0.5 * k_b * (r - 0.35) ** 2, mu), 12
    )
    return VibronicModel(
        x_states=lower,
        b_states=upper,
        fc=upper.wavefunctions @ lower.wavefunctions.T,
        t_e=12000.0,
        reduced_mass=mu,
    )
