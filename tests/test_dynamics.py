"""Coherence transfer: closed-form checks, the time-domain cross-check, readout."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from carsdj.algorithm import PERIOD_LEVEL
from carsdj.constants import TWO_PI_C
from carsdj.dynamics import (
    _ORACLE_STEP_FS,
    _ORACLE_WINDOW_SIGMAS,
    apply_stokes,
    evolution_phase,
    prepare_first_order,
    random_oracle_configs,
    signal_magnitude,
    time_domain_oracle,
)
from carsdj.molecule import transition_wavenumber, vibrational_period
from carsdj.pulses import (
    PulseSpec,
    _unit_phase,
    design_probe,
    design_pump,
    design_stokes,
    spectral_amplitude,
    time_profile,
)
from references import cars_spectrum

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
    with pytest.raises(ValueError, match="upper level 45, but n_b_states = 40"):
        prepare_first_order(model, pump, (35, 45))


@pytest.mark.parametrize("tau", [0.0, 200.0])
def test_second_order_amplitudes_match_the_explicit_sum(model, tau):
    # the Stokes pulse's own delay sets the upper-state evolution phase
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    first = prepare_first_order(model, pump, WINDOW)
    stokes = design_stokes(
        model, 4, WINDOW, (0, 1, 0, 1), duration_fwhm=30.0, delay=tau
    )
    a = apply_stokes(model, first, stokes)
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
    np.testing.assert_allclose(a, expect, rtol=0, atol=1e-14)


def test_transfer_is_linear_in_both_pulse_amplitudes(model):
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    stokes = design_stokes(
        model, 4, WINDOW, (0, 1, 1, 0), duration_fwhm=30.0, delay=90.0
    )
    base = apply_stokes(model, prepare_first_order(model, pump, WINDOW), stokes)
    scaled = apply_stokes(
        model,
        prepare_first_order(model, replace(pump, amplitude=1.9), WINDOW),
        replace(stokes, amplitude=2.5),
    )
    np.testing.assert_allclose(scaled, 1.9 * 2.5 * base, rtol=1e-12)


def test_signal_magnitude_reads_one_channel(model):
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    first = prepare_first_order(model, pump, WINDOW)
    stokes = design_stokes(model, 4, WINDOW, (0, 0, 0, 0), duration_fwhm=30.0)
    a = apply_stokes(model, first, stokes)
    assert signal_magnitude(a, 4) == abs(a[4])
    with pytest.raises(ValueError, match="target level"):
        signal_magnitude(a, 40)


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
        delay=350.0,
    )
    first = prepare_first_order(model, pump, (19, 23))
    fast = signal_magnitude(apply_stokes(model, first, stokes), 3)
    slow = time_domain_oracle(model, pump, stokes, 3, (19, 23))
    assert abs(fast - slow) / slow < 1e-6


def _oracle_grids(pulse):
    """The coarse and the fine time grid ``time_domain_oracle`` integrates
    the pulse on."""
    for step, sigmas in (
        (_ORACLE_STEP_FS, _ORACLE_WINDOW_SIGMAS),
        (_ORACLE_STEP_FS / 2.0, 1.5 * _ORACLE_WINDOW_SIGMAS),
    ):
        half = sigmas * pulse.sigma_t
        n_pts = max(int(np.ceil(2.0 * half / step)) + 1, 9)
        yield pulse.delay + np.linspace(-half, half, n_pts)


def _exp_profile(pulse, t):
    # the unmasked time profile with its carrier from np.exp, as it was
    # written before the unit-phase helper
    s = t - pulse.delay
    sigma = pulse.sigma_t
    return (
        pulse.amplitude
        / (sigma * math.sqrt(2.0 * math.pi))
        * np.exp(-0.5 * (s / sigma) ** 2)
        * np.exp(-1j * TWO_PI_C * pulse.center * s)
    )


def test_unit_phases_equal_the_complex_exponentials(model):
    # every site that takes exp(+-i theta) from the helper gives the bits
    # of the np.exp expression it replaced
    rng = np.random.default_rng(20260817)  # the oracle-check default seed
    for window, v_target, pump, stokes in random_oracle_configs(rng, model, 20):
        ws = np.arange(window[0], window[1] + 1)
        for pulse, nu, sign in (
            (pump, model.nu[ws, 0], 1.0),
            (stokes, model.nu[ws, v_target], -1.0),
        ):
            for t in _oracle_grids(pulse):
                profile = time_profile(pulse, t)
                assert profile.tobytes() == _exp_profile(pulse, t).tobytes()
                phase = _unit_phase(sign * TWO_PI_C * np.outer(nu, t))
                expected = np.exp(sign * 1j * TWO_PI_C * np.outer(nu, t))
                assert phase.tobytes() == expected.tobytes()
    ws = np.arange(14, 30)
    tau_b = vibrational_period(model, "B", PERIOD_LEVEL)
    taus = np.linspace(0.0, 2.5, 501) * tau_b
    for tau in (0.0, tau_b, 1234.5, taus[:, None]):
        expected = np.exp(-1j * TWO_PI_C * model.nu[ws, 0] * tau)
        assert evolution_phase(model, ws, tau).tobytes() == expected.tobytes()
    stokes = design_stokes(model, 4, (20, 23), (0, 1, 1, 0), 10.0, delay=1.5 * tau_b)
    nu = np.linspace(stokes.center - 2000.0, stokes.center + 2000.0, 2001)
    expected = spectral_amplitude(replace(stokes, delay=0.0), nu) * np.exp(
        1j * TWO_PI_C * nu * stokes.delay
    )
    assert spectral_amplitude(stokes, nu).tobytes() == expected.tobytes()
    # a -0.0 angle gives +0.0 sine, as the complex product 1j * theta does
    zeros = np.array([0.0, -0.0])
    assert _unit_phase(zeros).tobytes() == np.exp(1j * zeros).tobytes()


def test_time_quadrature_validates_inputs(model):
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    stokes = PulseSpec(center=17100.0, duration_fwhm=30.0)
    with pytest.raises(ValueError, match="lower level 40, but n_x_states = 40"):
        time_domain_oracle(model, pump, stokes, 40, WINDOW)
    with pytest.raises(ValueError, match="upper level 45, but n_b_states = 40"):
        time_domain_oracle(model, pump, stokes, 4, (38, 45))


def test_time_quadrature_refuses_a_hard_edged_mask(model):
    # the mask's 1/t field tails outrun any practical time window
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    stokes = design_stokes(model, 4, WINDOW, (0, 1, 1, 0), 30.0)
    with pytest.raises(RuntimeError, match="quadrature did not converge") as err:
        time_domain_oracle(model, pump, stokes, 4, WINDOW)
    assert "barely reach" not in str(err.value)


@pytest.mark.parametrize("v_target", [0, 4])
def test_time_quadrature_says_when_the_pulses_barely_reach_the_window(
    model, v_target
):
    # the grid moves the amplitude (9.5e-25, 2.6e-30) by 5e-4 and 8e-4 of
    # itself, but by less than 1e-20 of what the pulses could give
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    stokes = PulseSpec(transition_wavenumber(model, 22, 4), 30.0)
    with pytest.raises(RuntimeError, match="quadrature did not converge") as err:
        time_domain_oracle(model, pump, stokes, v_target, (0, 1))
    found = re.search(
        r"; the pulses barely reach the window: amplitude (\S+) against the "
        r"bound (\S+) of sum \|fc\| \|\|E_P\|\|_1 \|\|E_S\|\|_1$",
        str(err.value),
    )
    assert found, str(err.value)
    amplitude, bound = map(float, found.groups())
    assert 0.0 < amplitude < 1e-15 * bound


def test_emission_lines_sit_at_the_upper_to_ground_transitions(model):
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    first = prepare_first_order(model, pump, WINDOW)
    stokes = design_stokes(model, 4, WINDOW, (0, 0, 0, 0), duration_fwhm=30.0)
    a = apply_stokes(model, first, stokes)
    spectrum = cars_spectrum(model, a, design_probe(model, PERIOD_LEVEL, 4))
    assert spectrum.shape == (model.n_b,)


def test_probe_gates_a_single_emission_line(model):
    tau_b = vibrational_period(model, "B", 22)
    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    first = prepare_first_order(model, pump, WINDOW)
    stokes = design_stokes(
        model, 4, WINDOW, (0, 0, 0, 0), duration_fwhm=30.0, delay=tau_b
    )
    a = apply_stokes(model, first, stokes)
    spectrum = cars_spectrum(model, a, design_probe(model, PERIOD_LEVEL, 4))
    amps = np.abs(spectrum)
    gate = amps[22]
    # the adjacent upper levels radiate nothing through the narrow probe
    assert amps[21] / gate < 1e-12
    assert amps[23] / gate < 1e-12
    # any distant satellite picked up by an accidental resonance lies far
    # outside the gated line and is spectrally separable
    others = np.delete(np.arange(model.n_b), 22)
    leaky = others[amps[others] > 1e-3 * gate]
    if leaky.size:
        separation = np.abs(model.nu[leaky, 0] - model.nu[22, 0]).min()
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
        a = apply_stokes(model, first, stokes)
        spectrum = cars_spectrum(model, a, probe)
        ratios.append(np.abs(spectrum[22]) / signal_magnitude(a, 4))
    ratios = np.array(ratios)
    assert np.ptp(ratios) / ratios.mean() < 1e-6


def test_equally_spaced_levels_revive_exactly_after_one_period(harmonic_model):
    # on a harmonic upper curve every coherence rephases after the period,
    # so the signal at one and two periods equals the zero-delay signal
    synth = harmonic_model
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
        a = apply_stokes(synth, first, stokes)
        signals.append(signal_magnitude(a, v_target))
    assert signals[0] == pytest.approx(2.4720328362e-02, rel=1e-8)
    assert abs(signals[1] - signals[0]) / signals[0] < 1e-9
    assert abs(signals[2] - signals[0]) / signals[0] < 1e-9
