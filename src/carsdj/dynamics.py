"""Perturbative coherence transfer through the two-colour Raman sequence.

Sign and phase conventions (used consistently everywhere):

* free evolution of a level at energy E carries exp(-i 2 pi c E t),
  E in cm^-1, t in fs, c in cm/fs;
* absorption samples the spectral amplitude at the transition wavenumber,
  stimulated emission samples its complex conjugate;
* a pulse delayed by tau carries the spectral phase exp(+i 2 pi c nu tau);
* first order (pump, lower 0 -> upper w):
      c_w = i * fc[w, 0] * A_P(nu(w, 0));
* second order (Stokes, upper w -> lower v, arriving at
  tau = stokes.delay):
      a_v = sum_w fc[w, v] * conj(A_S0(nu(w, v)))
                 * exp(-i 2 pi c nu(w, 0) tau) * c_w,
  where A_S0 is the Stokes spectrum evaluated in its own frame (delay
  stripped) and the explicit phase carries the upper-state free evolution
  over the delay.

The second-order product form is the exact non-time-ordered perturbative
amplitude: both time orderings of the two interactions are summed, which
factorises the double time integral into a product of two Fourier
transforms.  Relative to that exact amplitude the expression above differs
only by a w-independent phase (Fourier shift theorem), so every observable
|a_v| is identical; ``time_domain_oracle`` checks this equivalence by
brute-force quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import TWO_PI_C
from .molecule import (
    VibronicModel,
    _is_level,
    checked_lines,
    checked_window,
    transition_wavenumber,
)
from .pulses import PulseSpec, _unit_phase, spectral_amplitude, time_profile

# Coarse time grid of ``time_domain_oracle``: trapezoidal step in fs and
# half-width in field standard deviations.
_ORACLE_STEP_FS = 0.25
_ORACLE_WINDOW_SIGMAS = 8.0


@dataclass(frozen=True)
class FirstOrderCoherence:
    """Upper-state coherence amplitudes prepared by the pump.

    Attributes
    ----------
    w_levels : np.ndarray
        Upper levels carrying amplitude, ascending.
    c : np.ndarray
        Complex amplitude per level in ``w_levels`` (bra fixed at the
        lower-state ground level).
    """

    w_levels: np.ndarray
    c: np.ndarray


def prepare_first_order(
    model: VibronicModel, pump: PulseSpec, w_window: tuple[int, int]
) -> FirstOrderCoherence:
    """First-order amplitudes c_w = i fc[w, 0] A_P(nu(w, 0)) over a window."""
    ws = checked_window(model, w_window)
    amps = spectral_amplitude(pump, model.nu[ws, 0])
    c = 1j * model.fc[ws, 0] * amps
    return FirstOrderCoherence(w_levels=ws, c=c)


def apply_stokes(
    model: VibronicModel, first: FirstOrderCoherence, stokes: PulseSpec
) -> np.ndarray:
    """Transfer the upper-state coherence down to every retained lower level.

    Returns shape (n_x,): a[v] is the complex amplitude of lower level v
    against the frozen ground-state bra.  The Stokes spectrum is evaluated
    in the pulse's own frame; its arrival time ``stokes.delay`` enters
    through the explicit upper-state evolution phase (see the module
    docstring).
    """
    ws = first.w_levels
    emission = stokes_emission(model, ws, stokes)
    weights = first.c * evolution_phase(model, ws, stokes.delay)
    return np.einsum("wv,wv,w->v", model.fc[ws, :], emission, weights)


def stokes_emission(
    model: VibronicModel, ws: np.ndarray, stokes: PulseSpec
) -> np.ndarray:
    """conj(A_S0(nu(w, v))) over (upper levels ``ws``, every retained v).

    The spectrum is taken in the pulse's own frame: ``stokes.delay`` is
    stripped, since the delay enters through ``evolution_phase``.
    """
    stokes_local = replace(stokes, delay=0.0)
    nu_wv = model.nu[ws]
    return np.conj(spectral_amplitude(stokes_local, nu_wv.ravel())).reshape(
        nu_wv.shape
    )


def evolution_phase(
    model: VibronicModel, ws: np.ndarray, tau: float | np.ndarray
) -> np.ndarray:
    """Upper-state free evolution exp(-i 2 pi c nu(w, 0) tau) over ``ws``.

    A scalar ``tau`` gives shape (len(ws),); a column of delays, shape
    (T, 1), gives the whole (T, len(ws)) grid, element for element the
    same values as one scalar call per delay.
    """
    return _unit_phase(-TWO_PI_C * model.nu[ws, 0] * tau)


def signal_magnitude(a: np.ndarray, v_target: int) -> float:
    """|a_{v_target}|, the observable channel amplitude, at an integer level."""
    if not (_is_level(v_target) and 0 <= v_target < a.size):
        raise ValueError(
            f"target level {v_target} outside retained range [0, {a.size})"
        )
    return float(np.abs(a[v_target]))


def cars_spectrum(
    model: VibronicModel, a: np.ndarray, probe: PulseSpec
) -> np.ndarray:
    """Third-order anti-Stokes line amplitudes after the probe.

    b_w = sum_v fc[w, v] A_Pr(nu(w, v)) a_v for every retained upper
    level; returns shape (n_b,), the amplitude b_w * fc[w, 0] of the line
    radiated at nu(w, 0).
    """
    if a.size != model.n_x:
        raise ValueError(
            f"coherence has {a.size} lower levels, model retains {model.n_x}"
        )
    probe_amps = spectral_amplitude(probe, model.nu.ravel()).reshape(model.nu.shape)
    b = (model.fc * probe_amps) @ a
    return b * model.fc[:, 0]


def time_domain_oracle(
    model: VibronicModel,
    pump: PulseSpec,
    stokes: PulseSpec,
    v_target: int,
    w_window: tuple[int, int],
) -> float:
    """|a_{v_target}| by explicit double time integration of the fields.

    Both time orderings of the pump and Stokes interactions are included,
    so the double integral factorises into the product of two single
    integrals, each evaluated here with the trapezoidal rule on a uniform
    grid (a 0.25 fs step, halved once as a convergence check).  This is the
    independent cross-check of the frequency-domain product form.

    Raises
    ------
    ValueError
        If the target or window levels are not retained.
    RuntimeError
        If halving the time step while widening the window moves the
        result by more than 1e-7 relative (quadrature not converged;
        hard-edged masks with long 1/t field tails trigger this at any
        practical window).
    """
    ws = checked_window(model, w_window, v_target)
    nu_w0 = model.nu[ws, 0]
    nu_wv = model.nu[ws, v_target]

    def amplitude(step: float, sigmas: float) -> complex:
        # Pump integral I_P(w) = int E_P(t) exp(+i 2 pi c nu(w,0) t) dt
        half = sigmas * pump.sigma_t
        n_pts = max(int(np.ceil(2.0 * half / step)) + 1, 9)
        t_p = pump.delay + np.linspace(-half, half, n_pts)
        field_p = time_profile(pump, t_p)
        phase_p = _unit_phase(TWO_PI_C * np.outer(nu_w0, t_p))
        i_pump = np.trapezoid(phase_p * field_p[None, :], t_p, axis=1)
        # Stokes integral conj(I_S(w)) = int conj(E_S(t)) exp(-i ...) dt
        half_s = sigmas * stokes.sigma_t
        n_pts_s = max(int(np.ceil(2.0 * half_s / step)) + 1, 9)
        t_s = stokes.delay + np.linspace(-half_s, half_s, n_pts_s)
        field_s = np.conj(time_profile(stokes, t_s))
        phase_s = _unit_phase(-TWO_PI_C * np.outer(nu_wv, t_s))
        i_stokes = np.trapezoid(phase_s * field_s[None, :], t_s, axis=1)
        fc_prod = model.fc[ws, v_target] * model.fc[ws, 0]
        return complex(-np.sum(fc_prod * i_stokes * i_pump))

    coarse = amplitude(_ORACLE_STEP_FS, _ORACLE_WINDOW_SIGMAS)
    fine = amplitude(_ORACLE_STEP_FS / 2.0, 1.5 * _ORACLE_WINDOW_SIGMAS)
    scale = max(abs(fine), 1e-300)
    if abs(fine - coarse) / scale > 1e-7:
        raise RuntimeError(
            "time-domain quadrature did not converge: refining the grid "
            f"moved the amplitude by {abs(fine - coarse) / scale:.3e} relative"
        )
    return abs(fine)


# Inclusive level bounds of ``random_oracle_configs``: windows lie inside
# these upper levels, targets among these lower levels.
ORACLE_UPPER_LEVELS = (16, 30)
ORACLE_TARGET_LEVELS = (1, 6)


def random_oracle_configs(
    rng: np.random.Generator, model: VibronicModel, k: int
) -> list[tuple[tuple[int, int], int, PulseSpec, PulseSpec]]:
    """``k`` random (w_window, v_target, pump, stokes) oracle inputs.

    Windows span 2-6 levels; both carriers sit within 120 cm^-1 of the
    mid-window lines nu(mid, 0) and nu(mid, v_target).  The Stokes pulse
    arrives 0-900 fs after time zero.  ValueError unless the windows' lines
    are positive and ascend at the highest target, which has the lowest.
    """
    w_first, w_last = ORACLE_UPPER_LEVELS
    v_first, v_last = ORACLE_TARGET_LEVELS
    checked_lines(model, ORACLE_UPPER_LEVELS, v_last, f"lower level {v_last}")
    configs = []
    for _ in range(k):
        w_lo = int(rng.integers(w_first, w_last - 4))
        w_hi = w_lo + int(rng.integers(1, 6))  # at most w_last
        v_target = int(rng.integers(v_first, v_last + 1))
        mid = (w_lo + w_hi) // 2
        pump = PulseSpec(
            center=transition_wavenumber(model, mid, 0)
            + float(rng.uniform(-120.0, 120.0)),
            duration_fwhm=float(rng.uniform(15.0, 150.0)),
            amplitude=float(rng.uniform(0.3, 3.0)),
            delay=float(rng.uniform(-50.0, 50.0)),
        )
        stokes = PulseSpec(
            center=transition_wavenumber(model, mid, v_target)
            + float(rng.uniform(-120.0, 120.0)),
            duration_fwhm=float(rng.uniform(15.0, 150.0)),
            amplitude=float(rng.uniform(0.3, 3.0)),
            delay=float(rng.uniform(0.0, 900.0)),
        )
        configs.append(((w_lo, w_hi), v_target, pump, stokes))
    return configs
