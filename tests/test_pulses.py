"""Pulse model: masks, spectra, time profiles, and the designed pulses."""

import math
from dataclasses import replace

import numpy as np
import pytest

from carsdj.algorithm import PERIOD_LEVEL
from carsdj.constants import C_CM_PER_FS, TWO_PI_C
from carsdj.molecule import transition_wavenumber
from carsdj.pulses import (
    PulseSpec,
    SpectralMask,
    design_probe,
    design_pump,
    design_stokes,
    spectral_amplitude,
    time_profile,
)


def test_mask_validation():
    with pytest.raises(ValueError, match="at least two"):
        SpectralMask(bin_edges=np.array([1.0]), factors=np.array([]))
    with pytest.raises(ValueError, match="ascending"):
        SpectralMask(bin_edges=np.array([2.0, 1.0]), factors=np.array([1.0]))
    with pytest.raises(ValueError, match="finite"):
        SpectralMask(bin_edges=np.array([1.0, np.inf]), factors=np.array([1.0]))
    with pytest.raises(ValueError, match="factors for"):
        SpectralMask(bin_edges=np.array([1.0, 2.0, 3.0]), factors=np.array([1.0]))


def test_mask_bins_are_half_open():
    mask = SpectralMask(
        bin_edges=np.array([10.0, 20.0, 30.0]), factors=np.array([2.0, 3.0])
    )
    assert mask.n_bins == 2
    got = mask.factor(np.array([9.99, 10.0, 19.99, 20.0, 29.99, 30.0, 31.0]))
    np.testing.assert_array_equal(got, [1.0, 2.0, 2.0, 3.0, 3.0, 1.0, 1.0])


def test_mask_outside_factor():
    mask = SpectralMask(
        bin_edges=np.array([0.0, 1.0]),
        factors=np.array([-1.0]),
        outside_factor=0.5,
    )
    np.testing.assert_array_equal(
        mask.factor(np.array([-1.0, 0.5, 2.0])), [0.5, -1.0, 0.5]
    )


def test_sign_mask_squares_to_identity():
    mask = SpectralMask(
        bin_edges=np.array([5.0, 6.0, 7.0, 8.0]),
        factors=np.array([1.0, -1.0, 1.0]),
    )
    nu = np.linspace(4.0, 9.0, 101)
    np.testing.assert_array_equal(mask.factor(nu) ** 2, np.ones(101))


def test_pulse_validation():
    with pytest.raises(ValueError, match="center"):
        PulseSpec(center=0.0, duration_fwhm=30.0)
    with pytest.raises(ValueError, match="duration"):
        PulseSpec(center=100.0, duration_fwhm=-1.0)
    with pytest.raises(ValueError, match="amplitude"):
        PulseSpec(center=100.0, duration_fwhm=30.0, amplitude=0.0)


def test_bandwidth_is_the_transform_limit():
    p50 = PulseSpec(center=18000.0, duration_fwhm=50.0)
    p30 = PulseSpec(center=18000.0, duration_fwhm=30.0)
    assert p50.bandwidth_fwhm == pytest.approx(294.38445733, abs=1e-4)
    assert p30.bandwidth_fwhm == pytest.approx(490.64076222, abs=1e-4)
    for p in (p50, p30):
        product = p.duration_fwhm * p.bandwidth_fwhm * C_CM_PER_FS
        assert product == pytest.approx(2.0 * math.log(2.0) / math.pi, abs=1e-12)
        assert p.sigma_t == pytest.approx(
            p.duration_fwhm / (2.0 * math.sqrt(math.log(2.0))), rel=1e-14
        )


def test_spectrum_peaks_at_the_carrier():
    p = PulseSpec(center=17500.0, duration_fwhm=40.0, amplitude=1.7)
    peak = spectral_amplitude(p, p.center)[0]
    assert peak == pytest.approx(1.7, abs=1e-14)
    assert peak.imag == 0.0
    half = np.abs(spectral_amplitude(p, p.center + p.bandwidth_fwhm / 2.0))[0]
    assert half == pytest.approx(1.7 / math.sqrt(2.0), rel=1e-12)


def test_delay_is_a_pure_spectral_phase():
    p = PulseSpec(center=17500.0, duration_fwhm=40.0)
    moved = replace(p, delay=85.0)
    nu = np.linspace(16500.0, 18500.0, 7)
    base = spectral_amplitude(p, nu)
    got = spectral_amplitude(moved, nu)
    np.testing.assert_allclose(np.abs(got), np.abs(base), rtol=1e-14)
    np.testing.assert_allclose(
        got, base * np.exp(1j * TWO_PI_C * nu * 85.0), rtol=1e-12
    )


def test_mask_multiplies_the_spectrum():
    mask = SpectralMask(
        bin_edges=np.array([17400.0, 17600.0]), factors=np.array([-1.0])
    )
    p = PulseSpec(center=17500.0, duration_fwhm=40.0)
    masked = replace(p, mask=mask)
    nu = np.array([17300.0, 17450.0, 17700.0])
    np.testing.assert_allclose(
        spectral_amplitude(masked, nu),
        spectral_amplitude(p, nu) * mask.factor(nu),
        rtol=1e-14,
    )


def test_flat_envelope_spectrum_is_uniform():
    p = PulseSpec(center=17500.0, duration_fwhm=40.0, amplitude=2.5, flat=True)
    nu = np.array([100.0, 17500.0, 40000.0])
    np.testing.assert_array_equal(spectral_amplitude(p, nu), 2.5 * np.ones(3))


def test_time_profile_duration_is_the_intensity_fwhm():
    p = PulseSpec(center=17500.0, duration_fwhm=60.0, delay=40.0)
    peak = np.abs(time_profile(p, 40.0))[0]
    half = np.abs(time_profile(p, np.array([10.0, 70.0])))
    np.testing.assert_allclose(half**2, 0.5 * peak**2, rtol=1e-12)


def test_time_profile_carrier_and_peak_position():
    p = PulseSpec(center=17500.0, duration_fwhm=60.0, delay=40.0)
    dt = 0.37
    val = time_profile(p, 40.0 + dt)[0]
    rotated = val * np.exp(1j * TWO_PI_C * p.center * dt)
    assert abs(np.angle(rotated)) < 1e-10
    assert np.abs(time_profile(p, 40.0))[0] > np.abs(time_profile(p, 41.0))[0]


def test_flat_pulse_has_no_time_profile():
    p = PulseSpec(center=17500.0, duration_fwhm=60.0, flat=True)
    with pytest.raises(ValueError, match="flat"):
        time_profile(p, 0.0)


def test_masked_profile_is_zero_far_outside_the_pulse():
    mask = SpectralMask(
        bin_edges=np.array([17000.0, 18000.0]), factors=np.array([-1.0])
    )
    p = PulseSpec(center=17500.0, duration_fwhm=30.0, delay=10.0, mask=mask)
    far = time_profile(p, np.array([10.0 - 2000.0, 10.0 + 2000.0]))
    assert np.all(far == 0.0)
    near = time_profile(p, np.linspace(-200.0, 200.0, 101))
    assert np.all(np.isfinite(near))


def test_unmasked_profile_is_the_inverse_transform_of_the_spectrum(model):
    pump = design_pump(model, (20, 23), duration_fwhm=30.0)
    width = 8.0 * pump.bandwidth_fwhm
    nu = np.linspace(pump.center - width, pump.center + width, 20001)
    amp = spectral_amplitude(pump, nu)
    peak = np.abs(time_profile(pump, 0.0))[0]
    for t in (-40.0, 0.0, 35.5):
        numeric = C_CM_PER_FS * np.trapezoid(
            amp * np.exp(-1j * TWO_PI_C * nu * t), nu
        )
        got = time_profile(pump, t)[0]
        assert abs(numeric - got) / peak < 1e-9


def test_masked_profile_matches_piecewise_quadrature(model):
    # hard mask edges break the integrand into smooth segments; a trapezoid
    # rule per segment plus one Richardson step pins the closed form down
    stokes = design_stokes(
        model, 4, (20, 23), (0, 1, 0, 1), duration_fwhm=30.0, delay=123.4
    )
    plain = replace(stokes, mask=None)
    width = 8.0 * stokes.bandwidth_fwhm
    lo, hi = stokes.center - width, stokes.center + width
    edges = [lo] + [e for e in stokes.mask.bin_edges if lo < e < hi] + [hi]
    peak = np.abs(time_profile(stokes, 123.4))[0]

    def quadrature(t, points_per_segment):
        total = 0.0j
        for a, b in zip(edges[:-1], edges[1:]):
            factor = complex(stokes.mask.factor(0.5 * (a + b))[0])
            nu = np.linspace(a, b, points_per_segment)
            amp = spectral_amplitude(plain, nu) * factor
            total += np.trapezoid(amp * np.exp(-1j * TWO_PI_C * nu * t), nu)
        return C_CM_PER_FS * total

    for t in (0.0, 60.0, 123.4, 200.0, 300.0, 400.0):
        coarse = quadrature(t, 20001)
        fine = quadrature(t, 40001)
        numeric = fine + (fine - coarse) / 3.0
        got = time_profile(stokes, t)[0]
        assert abs(numeric - got) / peak < 2e-6


def test_designed_pump_center_and_window_errors(model):
    pump = design_pump(model, (20, 23), duration_fwhm=25.0, amplitude=0.8)
    expect = np.mean([transition_wavenumber(model, w, 0) for w in range(20, 24)])
    assert pump.center == pytest.approx(expect, abs=1e-9)
    assert pump.duration_fwhm == 25.0
    assert pump.amplitude == 0.8
    assert pump.mask is None
    with pytest.raises(ValueError, match="empty window"):
        design_pump(model, (23, 20), 30.0)


def test_designed_stokes_bins_bracket_each_transition(model):
    bits = (0, 1, 1, 0)
    stokes = design_stokes(model, 4, (20, 23), bits, duration_fwhm=30.0, delay=55.0)
    nus = np.array([transition_wavenumber(model, w, 4) for w in range(20, 24)])
    edges = stokes.mask.bin_edges
    assert edges.shape == (5,)
    np.testing.assert_allclose(edges[1:-1], 0.5 * (nus[:-1] + nus[1:]), rtol=1e-12)
    assert edges[0] == pytest.approx(nus[0] - (edges[1] - nus[0]), rel=1e-12)
    assert edges[-1] == pytest.approx(nus[-1] + (nus[-1] - edges[-2]), rel=1e-12)
    np.testing.assert_array_equal(
        stokes.mask.factor(nus).real, [1.0, -1.0, -1.0, 1.0]
    )
    assert stokes.center == pytest.approx(np.mean(nus), abs=1e-9)
    assert stokes.delay == 55.0


def test_designed_stokes_validation(model):
    with pytest.raises(ValueError, match="at least 2 levels"):
        design_stokes(model, 4, (22, 22), (0,), 30.0)
    with pytest.raises(ValueError, match="bits for a window"):
        design_stokes(model, 4, (20, 23), (0, 1), 30.0)
    with pytest.raises(ValueError, match="bits must be 0 or 1"):
        design_stokes(model, 4, (20, 23), (0, 1, 2, 0), 30.0)


def test_designed_probe_gates_one_line(model):
    probe = design_probe(model, PERIOD_LEVEL, 4)
    assert probe.center == pytest.approx(
        transition_wavenumber(model, 22, 4), abs=1e-9
    )
    assert probe.duration_fwhm == 1000.0
    assert probe.mask is None
