"""Coherence transfer: closed-form checks, the time-domain cross-check, readout."""

from dataclasses import replace

import numpy as np
import pytest

from carsdj.algorithm import PERIOD_LEVEL
from carsdj.constants import TWO_PI_C
from carsdj.dvr import Grid, build_hamiltonian, solve_bound_states
from carsdj.dynamics import (
    SecondOrderCoherence,
    apply_stokes,
    cars_spectrum,
    prepare_first_order,
    signal_magnitude,
    time_domain_oracle,
)
from carsdj.molecule import VibronicModel, transition_wavenumber, vibrational_period
from carsdj.pulses import (
    PulseSpec,
    design_probe,
    design_pump,
    design_stokes,
    spectral_amplitude,
)

WINDOW = (20, 23)


def test_first_order_amplitudes_follow_the_pump_spectrum(model):
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    first = prepare_first_order(model, pump, WINDOW)
    np.testing.assert_array_equal(first.w_levels, np.arange(20, 24))
    for i, w in enumerate(first.w_levels):
        nu = transition_wavenumber(model, int(w), 0)
        expect = 1j * model.fc[w, 0] * spectral_amplitude(pump, nu)[0]
        assert abs(first.c[i] - expect) < 1e-14
    # a 30 fs pump covers the window with modest amplitude variation
    ratio = np.abs(first.c).max() / np.abs(first.c).min()
    assert ratio == pytest.approx(1.250985, abs=1e-4)


def test_pump_delay_adds_the_expected_phase(model):
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    base = prepare_first_order(model, pump, WINDOW)
    got = prepare_first_order(model, replace(pump, delay=35.0), WINDOW)
    nus = np.array(
        [transition_wavenumber(model, int(w), 0) for w in base.w_levels]
    )
    np.testing.assert_allclose(
        got.c, base.c * np.exp(1j * TWO_PI_C * nus * 35.0), rtol=1e-12
    )


def test_first_order_rejects_out_of_range_windows(model):
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    with pytest.raises(ValueError, match="window"):
        prepare_first_order(model, pump, (35, 45))


def test_second_order_amplitudes_match_the_explicit_sum(model):
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    first = prepare_first_order(model, pump, WINDOW)
    tau = 200.0
    stokes = design_stokes(
        model, 4, WINDOW, (0, 1, 0, 1), duration_fwhm=30.0, delay=tau
    )
    second = apply_stokes(model, first, stokes, tau)
    stokes0 = replace(stokes, delay=0.0)
    expect = np.zeros(model.n_x, dtype=complex)
    for i, w in enumerate(first.w_levels):
        phase = np.exp(
            -1j * TWO_PI_C * transition_wavenumber(model, int(w), 0) * tau
        )
        for v in range(model.n_x):
            nu_wv = transition_wavenumber(model, int(w), v)
            expect[v] += (
                model.fc[w, v]
                * np.conj(spectral_amplitude(stokes0, nu_wv)[0])
                * first.c[i]
                * phase
            )
    np.testing.assert_allclose(second.a, expect, rtol=0, atol=1e-14)
    assert second.tau == tau


def test_stokes_bookkeeping_delay_is_ignored(model):
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    first = prepare_first_order(model, pump, WINDOW)
    tau = 150.0
    with_delay = design_stokes(
        model, 4, WINDOW, (0, 0, 1, 1), duration_fwhm=30.0, delay=tau
    )
    without = replace(with_delay, delay=0.0)
    a1 = apply_stokes(model, first, with_delay, tau).a
    a2 = apply_stokes(model, first, without, tau).a
    np.testing.assert_array_equal(a1, a2)


def test_transfer_is_linear_in_both_pulse_amplitudes(model):
    tau = 90.0
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    stokes = design_stokes(model, 4, WINDOW, (0, 1, 1, 0), duration_fwhm=30.0)
    base = apply_stokes(
        model, prepare_first_order(model, pump, WINDOW), stokes, tau
    ).a
    scaled = apply_stokes(
        model,
        prepare_first_order(model, replace(pump, amplitude=1.9), WINDOW),
        replace(stokes, amplitude=2.5),
        tau,
    ).a
    np.testing.assert_allclose(scaled, 1.9 * 2.5 * base, rtol=1e-12)


def test_signal_magnitude_reads_one_channel(model):
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    first = prepare_first_order(model, pump, WINDOW)
    stokes = design_stokes(model, 4, WINDOW, (0, 0, 0, 0), duration_fwhm=30.0)
    second = apply_stokes(model, first, stokes, 0.0)
    assert signal_magnitude(second, 4) == abs(second.a[4])
    with pytest.raises(ValueError, match="target level"):
        signal_magnitude(second, 40)


def test_frequency_domain_amplitude_matches_time_quadrature(model):
    pump = PulseSpec(
        center=transition_wavenumber(model, 21, 0) + 40.0,
        duration_fwhm=45.0,
        amplitude=1.3,
        delay=-20.0,
    )
    stokes = PulseSpec(
        center=transition_wavenumber(model, 21, 3) - 25.0,
        duration_fwhm=60.0,
        amplitude=0.7,
    )
    tau = 350.0
    first = prepare_first_order(model, pump, (19, 23))
    second = apply_stokes(model, first, stokes, tau)
    fast = signal_magnitude(second, 3)
    slow = time_domain_oracle(model, pump, stokes, tau, 3, (19, 23))
    assert abs(fast - slow) / slow < 1e-6


def test_time_quadrature_validates_inputs(model):
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    stokes = PulseSpec(center=17100.0, duration_fwhm=30.0)
    with pytest.raises(ValueError, match="target level"):
        time_domain_oracle(model, pump, stokes, 0.0, 40, WINDOW)
    with pytest.raises(ValueError, match="window"):
        time_domain_oracle(model, pump, stokes, 0.0, 4, (38, 45))


def test_emission_lines_sit_at_the_upper_to_ground_transitions(model):
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    first = prepare_first_order(model, pump, WINDOW)
    stokes = design_stokes(model, 4, WINDOW, (0, 0, 0, 0), duration_fwhm=30.0)
    second = apply_stokes(model, first, stokes, 0.0)
    spectrum = cars_spectrum(model, second, design_probe(model, PERIOD_LEVEL, 4))
    np.testing.assert_array_equal(spectrum.w_levels, np.arange(model.n_b))
    expect = np.array(
        [transition_wavenumber(model, w, 0) for w in range(model.n_b)]
    )
    np.testing.assert_allclose(spectrum.wavenumbers, expect, rtol=1e-12)
    with pytest.raises(ValueError, match="lower levels"):
        cars_spectrum(
            model,
            SecondOrderCoherence(a=np.zeros(5, dtype=complex), tau=0.0),
            design_probe(model, PERIOD_LEVEL, 4),
        )


def test_probe_gates_a_single_emission_line(model):
    tau_b = vibrational_period(model, "B", 22)
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    first = prepare_first_order(model, pump, WINDOW)
    stokes = design_stokes(
        model, 4, WINDOW, (0, 0, 0, 0), duration_fwhm=30.0, delay=tau_b
    )
    second = apply_stokes(model, first, stokes, tau_b)
    spectrum = cars_spectrum(model, second, design_probe(model, PERIOD_LEVEL, 4))
    amps = np.abs(spectrum.amplitudes)
    gate = amps[22]
    assert spectrum.wavenumbers[22] == pytest.approx(
        transition_wavenumber(model, 22, 0), abs=1e-6
    )
    # the adjacent upper levels radiate nothing through the narrow probe
    assert amps[21] / gate < 1e-12
    assert amps[23] / gate < 1e-12
    # any distant satellite picked up by an accidental resonance lies far
    # outside the gated line and is spectrally separable
    others = np.delete(np.arange(model.n_b), 22)
    leaky = others[amps[others] > 1e-3 * gate]
    if leaky.size:
        separation = np.abs(spectrum.wavenumbers[leaky] - spectrum.wavenumbers[22]).min()
        assert separation > 100.0


def test_emitted_line_tracks_the_target_amplitude(model):
    # the gated line amplitude is proportional to |a_target| with a
    # mask-independent constant
    from carsdj.algorithm import enumerate_functions

    tau_b = vibrational_period(model, "B", 22)
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    probe = design_probe(model, PERIOD_LEVEL, 4)
    first = prepare_first_order(model, pump, WINDOW)
    ratios = []
    for f in enumerate_functions(4):
        stokes = design_stokes(
            model, 4, WINDOW, f.bits, duration_fwhm=30.0, delay=tau_b
        )
        second = apply_stokes(model, first, stokes, tau_b)
        spectrum = cars_spectrum(model, second, probe)
        ratios.append(np.abs(spectrum.amplitudes[22]) / signal_magnitude(second, 4))
    ratios = np.array(ratios)
    assert np.ptp(ratios) / ratios.mean() < 1e-6


def test_equally_spaced_levels_revive_exactly_after_one_period():
    # on a harmonic upper curve every coherence rephases after the period,
    # so the signal at one and two periods equals the zero-delay signal
    k_x, k_b, mu = 500.0, 300.0, 20.0
    g = Grid(-5.0, 5.4, 700)
    lower = solve_bound_states(
        build_hamiltonian(g, lambda r: 0.5 * k_x * r**2, mu), 12, g
    )
    upper = solve_bound_states(
        build_hamiltonian(g, lambda r: 0.5 * k_b * (r - 0.35) ** 2, mu), 12, g
    )
    synth = VibronicModel(
        x_states=lower,
        b_states=upper,
        fc=upper.wavefunctions @ lower.wavefunctions.T,
        t_e=12000.0,
        reduced_mass=mu,
    )
    window, v_target = (4, 7), 2
    tau_b = vibrational_period(synth, "B", 5)
    assert tau_b == pytest.approx(1483.270712, abs=1e-4)
    pump = design_pump(synth, window, duration_fwhm=40.0)
    first = prepare_first_order(synth, pump, window)
    signals = []
    for tau in (0.0, tau_b, 2.0 * tau_b):
        stokes = design_stokes(
            synth, v_target, window, (0, 1, 1, 0), duration_fwhm=40.0, delay=tau
        )
        second = apply_stokes(synth, first, stokes, tau)
        signals.append(signal_magnitude(second, v_target))
    assert signals[0] == pytest.approx(2.4720328362e-02, rel=1e-8)
    assert abs(signals[1] - signals[0]) / signals[0] < 1e-9
    assert abs(signals[2] - signals[0]) / signals[0] < 1e-9
