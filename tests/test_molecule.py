"""Two-surface model: level accuracy, overlap structure, and window helpers."""

import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carsdj.cli import ExperimentConfig
from carsdj.constants import HBARSQ_CM1_AMU_ANG2
from carsdj.dvr import Grid, build_hamiltonian, solve_bound_states
from carsdj.molecule import (
    DEFAULT_GRID,
    IODINE_B,
    IODINE_REDUCED_MASS,
    IODINE_X,
    VibronicModel,
    _cached_model,
    build_model,
    checked_window,
    transition_wavenumber,
    vibrational_period,
    with_equalized_fc,
)
from carsdj.morse import MorseParams, morse_analytic_levels


def test_default_model_shape(model):
    assert model.n_x == 40
    assert model.n_b == 40
    assert model.fc.shape == (40, 40)
    assert model.t_e == 15647.0
    assert np.all(np.diff(model.x_states.energies) > 0.0)
    assert np.all(np.diff(model.b_states.energies) > 0.0)


def test_numerical_levels_match_analytic_ladder(model):
    for states, params in (
        (model.x_states, IODINE_X),
        (model.b_states, IODINE_B),
    ):
        analytic = morse_analytic_levels(params, IODINE_REDUCED_MASS, states.n_bound)
        np.testing.assert_allclose(states.energies, analytic, rtol=1e-6)


def test_levels_stable_under_grid_refinement(model):
    fine = build_model(grid=Grid(2.0, 6.5, 1024))
    assert fine.n_x == model.n_x and fine.n_b == model.n_b
    assert np.abs(fine.x_states.energies - model.x_states.energies).max() < 1e-6
    assert np.abs(fine.b_states.energies - model.b_states.energies).max() < 1e-6


def test_overlap_rows_obey_the_completeness_bound(model):
    # expanding any state over the retained states of the other curve can
    # at most exhaust its unit norm
    assert (model.fc**2).sum(axis=1).max() <= 1.0 + 1e-10
    assert (model.fc**2).sum(axis=0).max() <= 1.0 + 1e-10


def test_overlap_signs_are_uniform_across_the_working_levels(model):
    ws = np.arange(16, 28)
    assert np.all(model.fc[ws, 0] > 0.0)
    assert np.all(model.fc[ws, 4] < 0.0)


def test_displaced_oscillator_overlaps_match_closed_form():
    # two harmonic curves offset by d: the ground state of the displaced
    # curve has Poisson-distributed overlaps with the other curve's ladder
    mu, k, d = 10.0, 400.0, 0.3
    g = Grid(-4.0, 4.3, 512)
    lower = solve_bound_states(
        build_hamiltonian(g, lambda r: 0.5 * k * r**2, mu), 12
    )
    upper = solve_bound_states(
        build_hamiltonian(g, lambda r: 0.5 * k * (r - d) ** 2, mu), 12
    )
    fc = upper.wavefunctions @ lower.wavefunctions.T
    omega = math.sqrt(k * HBARSQ_CM1_AMU_ANG2 / mu)
    length_sq = HBARSQ_CM1_AMU_ANG2 / (mu * omega)
    z = d / math.sqrt(2.0 * length_sq)
    expect = np.array(
        [
            math.exp(-0.5 * z * z) * z**v / math.sqrt(math.factorial(v))
            for v in range(12)
        ]
    )
    np.testing.assert_allclose(np.abs(fc[0, :]), expect, rtol=0, atol=1e-10)
    np.testing.assert_allclose(
        lower.energies, omega * (np.arange(12) + 0.5), rtol=0, atol=1e-8
    )


def test_transition_wavenumbers(model):
    assert transition_wavenumber(model, 22, 0) == pytest.approx(17958.119036, abs=0.01)
    assert transition_wavenumber(model, 22, 4) == pytest.approx(17118.175445, abs=0.01)
    expect = model.t_e + model.b_states.energies[7] - model.x_states.energies[3]
    assert transition_wavenumber(model, 7, 3) == expect
    with pytest.raises(ValueError, match="upper level"):
        transition_wavenumber(model, 40, 0)
    with pytest.raises(ValueError, match="lower level"):
        transition_wavenumber(model, 0, -1)


def test_transition_matrix_matches_every_scalar_read(model):
    for m in (model, with_equalized_fc(model, (18, 25), 4)):
        assert m.nu.shape == (m.n_b, m.n_x)
        for w in range(m.n_b):
            for v in range(m.n_x):
                assert m.nu[w, v] == transition_wavenumber(m, w, v)


def test_vibrational_periods(model):
    assert vibrational_period(model, "B", 22) == pytest.approx(387.38497165, abs=1e-4)
    assert vibrational_period(model, "X", 0) == pytest.approx(156.796206, abs=1e-3)
    with pytest.raises(ValueError, match="surface"):
        vibrational_period(model, "C", 0)
    with pytest.raises(ValueError, match="upper level 40, but n_b_states = 40"):
        vibrational_period(model, "B", 39)


def test_window_scores_peak_at_the_central_level(model):
    expectations = {(20, 23): 1.1001, (19, 24): 1.2772, (18, 25): 1.6232}
    for window, ratio in expectations.items():
        ws = np.arange(window[0], window[1] + 1)
        scores = np.abs(model.fc[ws, 0] * model.fc[ws, 4])
        assert int(ws[np.argmax(scores)]) == 22
        assert scores.max() / scores.min() == pytest.approx(ratio, abs=1e-3)
    with pytest.raises(ValueError, match="upper level 45, but n_b_states = 40"):
        checked_window(model, (30, 45), 4)
    with pytest.raises(ValueError, match="lower level 60, but n_x_states = 40"):
        checked_window(model, (20, 23), 60)


def test_a_model_built_by_hand_names_only_the_levels(harmonic_model):
    # no build request was recorded, so no key can be blamed
    message = (
        "this run needs upper level 12, but the model retains only 12 upper "
        "levels (0-11)"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        checked_window(harmonic_model, (9, 12))


def test_equalized_overlaps(model):
    original = model.fc.copy()
    window = (18, 25)
    ws = np.arange(18, 26)
    flat = with_equalized_fc(model, window, 4)
    for v in (0, 4):
        col = model.fc[ws, v]
        mean = np.exp(np.mean(np.log(np.abs(col))))
        np.testing.assert_allclose(np.abs(flat.fc[ws, v]), mean, rtol=1e-12)
        np.testing.assert_array_equal(np.sign(flat.fc[ws, v]), np.sign(col))
    untouched = np.ones_like(model.fc, dtype=bool)
    untouched[np.ix_(ws, [0, 4])] = False
    np.testing.assert_array_equal(flat.fc[untouched], model.fc[untouched])
    np.testing.assert_array_equal(model.fc, original)


def test_equalized_overlaps_validation(model):
    with pytest.raises(ValueError, match="upper level 41, but n_b_states = 40"):
        with_equalized_fc(model, (39, 41), 4)
    with pytest.raises(ValueError, match="lower level 60, but n_x_states = 40"):
        with_equalized_fc(model, (18, 25), 60)
    fc_bad = model.fc.copy()
    fc_bad[20, 0] = 0.0
    with pytest.raises(ValueError, match="cannot equalise"):
        with_equalized_fc(replace(model, fc=fc_bad), (18, 25), 4)


def test_build_model_rejects_grids_that_clip_the_wavefunctions():
    with pytest.raises(ValueError):
        build_model(grid=Grid(2.4, 3.2, 64))


@pytest.mark.parametrize("r_min", [0.0, -1.0])
def test_a_grid_reaching_r_0_is_blamed_for_a_wide_well(r_min):
    # The inner turning point is below 0, but so is the grid's start: the
    # clearance that fails is the grid's, not one r_e or beta forces.
    wide = replace(IODINE_X, beta=1e-300)
    with pytest.raises(ValueError, match=r"too small .* points \(-\d\.\d+e\+298, "):
        build_model(x_params=wide, grid=Grid(r_min, 6.5, 512))


# Every key a build refusal may name: the Morse parameters of either curve,
# the mass, the grid and the state counts.
_BUILD_KEY = re.compile(
    r"\b([xb]_(d_e|r_e|beta)|reduced_mass|r_min|r_max|n_points|n_[xb]_states)\b"
)


@st.composite
def _curve(draw, base):
    """``base`` with each of d_e, r_e and beta kept or replaced by 10^U(-300, 300)."""
    magnitude = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
    d_e, r_e, beta = (
        draw(st.just(value) | magnitude) for value in (base.d_e, base.r_e, base.beta)
    )
    return MorseParams(d_e, r_e, beta, base.t_e)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    _curve(IODINE_X),
    _curve(IODINE_B),
    st.just(IODINE_REDUCED_MASS)
    | st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
    | st.sampled_from([0.0, -1.0, -IODINE_REDUCED_MASS]),
    st.just(2.0) | st.floats(-1.0, 4.0),
    st.just(6.5) | st.floats(0.5, 9.0),
    st.sampled_from([16, 64, 256, 512]) | st.integers(-2, 15),
    st.integers(1, 600) | st.integers(-2, 0),
    st.integers(1, 600) | st.integers(-2, 0),
)
# a level so high that its momentum overflowed a numpy scalar
@example(replace(IODINE_X, d_e=1e300), IODINE_B, 1e10, 2.0, 6.5, 512, 40, 40)
# refusals that the grid's and the lower curve's checks shadow in the draws
@example(IODINE_X, IODINE_B, IODINE_REDUCED_MASS, 2.0, 6.5, 512, 40, 0)
@example(IODINE_X, IODINE_B, 0.0, 2.0, 6.5, 512, 40, 40)
def test_any_build_returns_a_model_or_names_a_key(
    x_params, b_params, reduced_mass, r_min, r_max, n_points, n_x, n_b
):
    # the grid and the build refuse what they cannot solve with a
    # ValueError naming a config key; never a warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            grid = Grid(r_min, r_max, n_points)
            built = build_model(x_params, b_params, reduced_mass, grid, n_x, n_b)
        except ValueError as exc:
            assert _BUILD_KEY.search(str(exc)), str(exc)
        else:
            assert isinstance(built, VibronicModel)
    assert not caught, [str(w.message) for w in caught]


def _model_arrays(model):
    return (
        model.fc,
        model.x_states.energies,
        model.x_states.wavefunctions,
        model.b_states.energies,
        model.b_states.wavefunctions,
    )


def test_a_cache_hit_equals_an_uncached_build_bit_for_bit():
    hit = build_model()
    assert build_model() is hit
    uncached = _cached_model.__wrapped__(
        IODINE_X, IODINE_B, IODINE_REDUCED_MASS, DEFAULT_GRID, 40, 40
    )
    for cached, fresh in zip(_model_arrays(hit), _model_arrays(uncached)):
        assert cached.tobytes() == fresh.tobytes()


def test_keyword_and_positional_builds_share_one_entry():
    _cached_model.cache_clear()
    default = build_model()
    assert ExperimentConfig().build() is default
    assert build_model(IODINE_X, IODINE_B, IODINE_REDUCED_MASS, DEFAULT_GRID) is default
    info = _cached_model.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)


@pytest.mark.parametrize(
    "changed",
    [
        {"grid": Grid(2.0, 6.5, 480)},
        {"x_params": replace(IODINE_X, d_e=12551.0)},
        {"b_params": replace(IODINE_B, beta=1.851)},
        {"n_x": 39},
        {"n_b": 39},
    ],
    ids=["grid", "x_d_e", "b_beta", "n_x", "n_b"],
)
def test_a_changed_argument_misses_the_cache(changed):
    default = build_model()
    misses = _cached_model.cache_info().misses
    other = build_model(**changed)
    assert other is not default
    assert _cached_model.cache_info().misses == misses + 1


def test_every_array_of_a_built_model_is_read_only(model, harmonic_model):
    # per-model caches would go stale if any model, however it was made,
    # let its arrays change in place
    equalized = with_equalized_fc(model, (18, 21), 4)
    for made in (model, equalized, replace(model), harmonic_model):
        for array in _model_arrays(made) + (made.nu,):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


def test_a_failing_build_is_not_cached():
    bad = Grid(2.4, 3.2, 64)
    before = _cached_model.cache_info()
    for _ in range(2):
        with pytest.raises(ValueError, match="too small"):
            build_model(grid=bad)
    after = _cached_model.cache_info()
    assert after.misses == before.misses + 2
    assert after.currsize == before.currsize
