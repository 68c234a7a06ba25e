"""End-to-end acceptance checks, one per headline behavior.

Run with ``pytest -s tests/test_acceptance.py`` to see one [PASS]/[FAIL]
line per check.  Every check prints its verdict with the measured
numbers and then asserts it, so the module doubles as a regression gate.
"""

import time
from dataclasses import replace

import numpy as np
from scipy.special import eval_genlaguerre, gammaln

from carsdj.algorithm import (
    PERIOD_LEVEL,
    BooleanFunction,
    RunOptions,
    all_outcomes,
    distinguishability,
    enumerate_functions,
    fidelity_table,
    pearson_r,
    sweep_delay,
)
from carsdj.constants import HBARSQ_CM1_AMU_ANG2
from carsdj.dynamics import (
    apply_stokes,
    cars_spectrum,
    prepare_first_order,
    random_oracle_configs,
    signal_magnitude,
    time_domain_oracle,
)
from carsdj.molecule import (
    DEFAULT_GRID,
    IODINE_B,
    IODINE_REDUCED_MASS,
    IODINE_X,
    _cached_model,
    build_model,
    fc_window_score,
    vibrational_period,
)
from carsdj.morse import harmonic_wavenumber, morse_analytic_levels
from carsdj.pulses import design_probe, design_pump, design_stokes


def _report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_default_model_builds_fast_and_accurately():
    _cached_model.cache_clear()  # time a real build, not a cache hit
    start = time.perf_counter()
    fresh = build_model()
    elapsed = time.perf_counter() - start
    worst = 0.0
    for states, params in ((fresh.x_states, IODINE_X), (fresh.b_states, IODINE_B)):
        analytic = morse_analytic_levels(params, IODINE_REDUCED_MASS, 30)
        rel = np.abs(states.energies[:30] - analytic) / analytic
        worst = max(worst, float(rel.max()))
    ok = elapsed < 5.0 and worst < 1e-6
    _report(
        1,
        "default model builds in under 5 s and matches the closed-form "
        "ladder to 1e-6 over the lowest 30 levels of both curves",
        ok,
        f"build {elapsed:.2f} s, worst relative level error {worst:.2e}",
    )


def test_criterion_2_spectroscopic_scales_match_iodine(model):
    omega_x = harmonic_wavenumber(IODINE_X, IODINE_REDUCED_MASS)
    spacing = float(model.b_states.energies[22] - model.b_states.energies[21])
    ok = 213.5 <= omega_x <= 215.5 and 82.0 <= spacing <= 88.0
    _report(
        2,
        "ground harmonic constant and upper-curve spacing at the working "
        "level land in the iodine range",
        ok,
        f"omega_x {omega_x:.4f} cm^-1, spacing(22-21) {spacing:.4f} cm^-1",
    )


def test_criterion_3_strongest_raman_channel_sits_mid_window(model):
    scores = fc_window_score(model, 4, (18, 25))
    best = int(scores[np.argmax(scores[:, 1]), 0])
    ok = best in (21, 22, 23)
    _report(
        3,
        "the strongest 0 -> 4 Raman channel over upper levels 18-25 sits "
        "mid-window",
        ok,
        f"argmax at upper level {best}",
    )


def test_criterion_4_frequency_and_time_domain_amplitudes_agree(model):
    rng = np.random.default_rng(20260817)
    start = time.perf_counter()
    worst = 0.0
    for window, v_target, pump, stokes in random_oracle_configs(rng, model, 20):
        first = prepare_first_order(model, pump, window)
        a = apply_stokes(model, first, stokes)
        freq_signal = signal_magnitude(a, v_target)
        time_signal = time_domain_oracle(model, pump, stokes, v_target, window)
        worst = max(worst, abs(freq_signal - time_signal) / max(time_signal, 1e-300))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 60.0
    _report(
        4,
        "20 randomized pulse configurations agree with the explicit "
        "time-domain quadrature to 1e-6",
        ok,
        f"worst relative deviation {worst:.2e}, {elapsed:.1f} s",
    )


def test_criterion_5_idealized_limit_classifies_exactly(model):
    options = RunOptions(tailored=True, flat_envelopes=True)
    worst_spread = 0.0
    worst_stray = 0.0
    worst_d = 0.0
    worst_r = 0.0
    for n in (4, 8):
        outcomes = all_outcomes(model, n, 0.0, options)
        signals = outcomes.signals
        ideal = np.abs(outcomes.s_n).astype(float)
        ratios = signals[ideal > 0] / ideal[ideal > 0]
        const = signals[ideal == ideal.max()].max()
        worst_spread = max(worst_spread, float(np.ptp(ratios) / ratios.mean()))
        worst_stray = max(worst_stray, float(signals[ideal == 0].max() / const))
        worst_d = max(worst_d, abs(distinguishability(outcomes) - 1.0))
        worst_r = max(worst_r, abs(pearson_r(outcomes) - 1.0))
    ok = (
        worst_spread < 1e-12
        and worst_stray <= 1e-12
        and worst_d < 1e-12
        and worst_r < 1e-12
    )
    _report(
        5,
        "flat tailored zero-delay runs classify exactly: signals "
        "proportional to the ideal count, balanced masks silent, D = r = 1",
        ok,
        f"proportionality spread {worst_spread:.1e}, balanced/constant "
        f"{worst_stray:.1e}, |D-1| {worst_d:.1e}, |r-1| {worst_r:.1e}",
    )


def test_criterion_6_benchmark_grid_lands_in_the_expected_bands(model):
    start = time.perf_counter()
    table = fidelity_table(model)
    elapsed = time.perf_counter() - start
    cell = {(m.n, m.tau_multiple, m.tailored): m for m in table}
    r41 = cell[(4, 1.0, False)].r
    d41 = cell[(4, 1.0, False)].d
    d81 = cell[(8, 1.0, False)].d
    monotone = all(
        cell[(4, m, False)].d > cell[(6, m, False)].d > cell[(8, m, False)].d
        for m in (0.0, 1.0)
    )
    gain = {
        m: cell[(8, m, True)].d - cell[(8, m, False)].d for m in (0.0, 1.0, 2.0)
    }
    ok = (
        elapsed < 60.0
        and r41 >= 0.95
        and 0.80 <= d41 <= 1.00
        and 0.47 <= d81 <= 0.77
        and monotone
        and gain[0.0] >= 0.2
        and gain[1.0] > 0.0
        and gain[2.0] <= 0.1
    )
    _report(
        6,
        "the correlation/distinguishability grid reproduces the benchmark "
        "bands, shrinks with window size, and tailoring recovers contrast "
        "at short delay",
        ok,
        f"r(4,1)={r41:.4f}, D(4,1)={d41:.4f}, D(8,1)={d81:.4f}, tailored "
        f"gains {gain[0.0]:+.4f}/{gain[1.0]:+.4f}/{gain[2.0]:+.4f}, "
        f"{elapsed:.1f} s",
    )


def test_criterion_7_constant_masks_revive_and_balanced_stay_suppressed(model):
    multiples = np.linspace(0.0, 2.5, 501)
    const_trace = sweep_delay(model, BooleanFunction((0, 0, 0, 0)), multiples)[:, 1]
    alt_trace = sweep_delay(model, BooleanFunction((0, 1, 0, 1)), multiples)[:, 1]
    norm = const_trace / const_trace.max()
    peaks = [
        i
        for i in range(1, len(multiples) - 1)
        if norm[i] > norm[i - 1] and norm[i] >= norm[i + 1] and norm[i] >= 0.5
    ]
    peak_multiples = multiples[peaks]
    near_integer = all(
        round(m) >= 1 and abs(m - round(m)) <= 0.1 * round(m)
        for m in peak_multiples
    )
    covered = {int(round(m)) for m in peak_multiples}
    ratios_at_peaks = [alt_trace[i] / const_trace[i] for i in peaks]
    exact_idx = [int(np.argmin(np.abs(multiples - k))) for k in (0.0, 1.0, 2.0)]
    ratios_exact = [alt_trace[i] / const_trace[i] for i in exact_idx]
    outcomes = all_outcomes(model, 4, 1.0)
    signals, s_n = outcomes.signals, outcomes.s_n
    worst_balanced = signals[s_n == 0].max() / signals[np.abs(s_n) == 4].max()
    ok = (
        near_integer
        and {1, 2} <= covered
        and max(ratios_at_peaks) < 0.15
        and max(ratios_exact) < 0.15
        and worst_balanced < 0.15
    )
    _report(
        7,
        "constant-mask revivals sit at integer periods while every "
        "balanced mask stays below 15% of the constant reference",
        ok,
        f"peaks at {np.round(peak_multiples, 3).tolist()}, alternating at "
        f"multiples 0/1/2: {max(ratios_exact):.4f}, worst balanced "
        f"{worst_balanced:.4f}",
    )


def test_criterion_8_gated_line_tracks_the_prepared_amplitude(model):
    tau_b = vibrational_period(model, "B", 22)
    window = (20, 23)
    pump = design_pump(model, window, duration_fwhm=30.0)
    probe = design_probe(model, PERIOD_LEVEL, 4)
    first = prepare_first_order(model, pump, window)
    ratios = []
    for f in enumerate_functions(4):
        stokes = design_stokes(
            model, 4, window, f.bits, duration_fwhm=30.0, delay=tau_b
        )
        a = apply_stokes(model, first, stokes)
        spectrum = cars_spectrum(model, a, probe)
        ratios.append(abs(spectrum[22]) / signal_magnitude(a, 4))
    ratios = np.array(ratios)
    spread = float(np.ptp(ratios) / ratios.mean())
    ok = spread < 0.01
    _report(
        8,
        "the probed emission line is proportional to the prepared target "
        "amplitude across all 16 masks to better than 1%",
        ok,
        f"ratio spread {spread:.2e}",
    )


def test_criterion_9_complement_symmetry_and_scale_invariance(model):
    symmetric = True
    for m in (0.0, 1.0):
        # index of the complement of f is 2^4 - 1 - index(f)
        signals = all_outcomes(model, 4, m).signals
        symmetric = symmetric and np.array_equal(signals, signals[::-1])
    outcomes = all_outcomes(model, 4, 1.0)
    scaled = replace(outcomes, signals=outcomes.signals * 3.7)
    d_shift = abs(distinguishability(outcomes) - distinguishability(scaled))
    r_shift = abs(pearson_r(outcomes) - pearson_r(scaled))
    ok = symmetric and d_shift <= 1e-12 and r_shift <= 1e-12
    _report(
        9,
        "complementary masks give identical signals and both metrics are "
        "invariant under rescaling the outcomes",
        ok,
        f"complement equality {'exact' if symmetric else 'broken'}, "
        f"|dD| {d_shift:.1e}, |dr| {r_shift:.1e}",
    )


def _morse_eigenfunctions(params, reduced_mass, r, n_levels):
    """Closed-form Morse states psi_v(r), v < n_levels (Dahl & Springborg 1988).

    psi_v = N_v z^(lam-v-1/2) e^(-z/2) L_v^(2lam-2v-1)(z) with
    z = 2 lam e^(-beta (r - r_e)) and N_v^2 = beta v! (2lam-2v-1) / Gamma(2lam-v),
    evaluated in log space so that no factor overflows.
    """
    lam = np.sqrt(2.0 * reduced_mass * params.d_e / HBARSQ_CM1_AMU_ANG2) / params.beta
    z = 2.0 * lam * np.exp(-params.beta * (r - params.r_e))
    v = np.arange(n_levels)[:, None]
    alpha = 2.0 * lam - 2.0 * v - 1.0
    log_norm = 0.5 * (
        np.log(params.beta) + gammaln(v + 1.0) + np.log(alpha) - gammaln(2.0 * lam - v)
    )
    laguerre = eval_genlaguerre(v, alpha, z)
    with np.errstate(divide="ignore"):
        log_abs = (
            log_norm + (lam - v - 0.5) * np.log(z) - 0.5 * z + np.log(np.abs(laguerre))
        )
    return np.sign(laguerre) * np.exp(log_abs)


def test_criterion_10_states_and_overlaps_match_closed_form_morse(model):
    r = DEFAULT_GRID.points()
    infidelity = {}
    sampled = {}
    for tag, states, params in (
        ("X", model.x_states, IODINE_X),
        ("B", model.b_states, IODINE_B),
    ):
        # Grid coefficients of a sinc-DVR state are sqrt(dx) * psi(r_i).
        psi = np.sqrt(DEFAULT_GRID.spacing) * _morse_eigenfunctions(
            params, IODINE_REDUCED_MASS, r, states.n_bound
        )
        overlap = np.sum(states.wavefunctions * psi, axis=1)
        infidelity[tag] = float(np.max(1.0 - np.abs(overlap)))
        sampled[tag] = psi * np.sign(overlap)[:, None]
    fc_error = float(np.abs(model.fc - sampled["B"] @ sampled["X"].T).max())
    ok = (
        model.n_x == model.n_b == 40
        and max(infidelity.values()) < 1e-10
        and fc_error < 1e-10
    )
    _report(
        10,
        "all 40 X and 40 B states match the closed-form Morse eigenfunctions "
        "sampled on the grid, and the FC matrix their overlaps, to 1e-10",
        ok,
        f"max 1 - |<DVR|Morse>| X {infidelity['X']:.1e}, B {infidelity['B']:.1e}; "
        f"max |dFC| {fc_error:.1e}",
    )
