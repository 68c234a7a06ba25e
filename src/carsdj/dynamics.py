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

    Returns shape (n_x,): a[v] = sum_w L[w, v] c_w exp(-i 2 pi c nu(w, 0)
    tau), the complex amplitude of lower level v against the frozen
    ground-state bra, with L the Stokes legs of ``stokes_legs``.  The
    arrival time tau = ``stokes.delay`` enters only through the explicit
    upper-state evolution phase (see the module docstring).
    """
    ws = first.w_levels
    weights = first.c * evolution_phase(model, ws, stokes.delay)
    return np.einsum("wv,w->v", stokes_legs(model, ws, stokes), weights)


def stokes_legs(
    model: VibronicModel, ws: np.ndarray, stokes: PulseSpec
) -> np.ndarray:
    """fc[w, v] conj(A_S0(nu(w, v))) over (upper levels ``ws``, every
    retained v).

    The spectrum is taken in the pulse's own frame: ``stokes.delay`` is
    stripped, since the delay enters through ``evolution_phase``.
    """
    stokes_local = replace(stokes, delay=0.0)
    nu_wv = model.nu[ws]
    emission = np.conj(spectral_amplitude(stokes_local, nu_wv.ravel()))
    return model.fc[ws, :] * emission.reshape(nu_wv.shape)


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
    integrals, the pump's at nu(w, 0) and the conjugated Stokes pulse's at
    nu(w, v_target), both taken by one trapezoidal Fourier transform on a
    uniform grid (a 0.25 fs step, halved once as a convergence check).
    This is the independent cross-check of the frequency-domain product
    form.

    Raises
    ------
    ValueError
        If the target or window levels are not retained.
    RuntimeError
        If halving the time step while widening the window moves the
        result by more than 1e-7 relative (quadrature not converged;
        hard-edged masks with long 1/t field tails trigger this at any
        practical window).  When the move is within 1e-7 of the bound
        sum_w |fc[w, v_target] fc[w, 0]| ||E_P||_1 ||E_S||_1 on the
        amplitude, the pulses barely reach the window, and the message
        says so with the amplitude and the bound.
    """
    ws = checked_window(model, w_window, v_target)
    fc_prod = model.fc[ws, v_target] * model.fc[ws, 0]

    def grid(pulse: PulseSpec, step: float, sigmas: float) -> tuple[np.ndarray, ...]:
        """A uniform time grid ``sigmas`` field widths about the pulse, and
        the field on it."""
        half = sigmas * pulse.sigma_t
        n_pts = max(int(np.ceil(2.0 * half / step)) + 1, 9)
        t = pulse.delay + np.linspace(-half, half, n_pts)
        return t, time_profile(pulse, t)

    def transform(
        pulse: PulseSpec, nu: np.ndarray, step: float, sigmas: float
    ) -> np.ndarray:
        """I(w) = int E(t) exp(+i 2 pi c nu(w) t) dt by the trapezoidal rule."""
        t, field = grid(pulse, step, sigmas)
        phase = _unit_phase(TWO_PI_C * np.outer(nu, t))
        return np.trapezoid(phase * field[None, :], t, axis=1)

    def amplitude(step: float, sigmas: float) -> complex:
        i_pump = transform(pump, model.nu[ws, 0], step, sigmas)
        i_stokes = np.conj(transform(stokes, model.nu[ws, v_target], step, sigmas))
        return complex(-np.sum(fc_prod * i_stokes * i_pump))

    fine_grid = (_ORACLE_STEP_FS / 2.0, 1.5 * _ORACLE_WINDOW_SIGMAS)
    coarse = amplitude(_ORACLE_STEP_FS, _ORACLE_WINDOW_SIGMAS)
    fine = amplitude(*fine_grid)
    scale = max(abs(fine), 1e-300)
    moved = abs(fine - coarse)
    if moved / scale > 1e-7:
        message = (
            "time-domain quadrature did not converge: refining the grid "
            f"moved the amplitude by {moved / scale:.3e} relative"
        )
        # |I_P(w)| and |I_S(w)| are at most the fields' L1 norms.  Converged
        # next to that bound, the amplitude is tiny, not the grid too coarse.
        bound = np.abs(fc_prod).sum()
        for pulse in (pump, stokes):
            t, field = grid(pulse, *fine_grid)
            bound *= np.trapezoid(np.abs(field), t)
        if moved <= 1e-7 * bound:
            message += (
                f"; the pulses barely reach the window: amplitude {abs(fine):.3e} "
                f"against the bound {bound:.3e} of sum |fc| ||E_P||_1 ||E_S||_1"
            )
        raise RuntimeError(message)
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
    mid-window lines nu(mid, 0) and nu(mid, v_target).  Arrivals lie in
    [-50, 50] fs for the pump and [0, 900] fs for the Stokes pulse; each
    draws carrier offset, duration, amplitude and arrival, in that order.
    ValueError unless the windows' lines are positive and ascend at the
    highest target, which has the lowest.
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
        pump, stokes = (
            PulseSpec(
                center=transition_wavenumber(model, mid, v)
                + float(rng.uniform(-120.0, 120.0)),
                duration_fwhm=float(rng.uniform(15.0, 150.0)),
                amplitude=float(rng.uniform(0.3, 3.0)),
                delay=float(rng.uniform(*arrival)),
            )
            for v, arrival in ((0, (-50.0, 50.0)), (v_target, (0.0, 900.0)))
        )
        configs.append(((w_lo, w_hi), v_target, pump, stokes))
    return configs
