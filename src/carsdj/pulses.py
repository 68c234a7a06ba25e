"""Transform-limited Gaussian pulses with binned +/-1 spectral phase masks.

A pulse is specified in the frequency domain.  The envelope is the
analytic Fourier transform of a Gaussian whose *intensity* full width at
half maximum is ``duration_fwhm``; a delay enters purely as the linear
spectral phase exp(+i 2 pi c nu delay), and an optional piecewise-constant
mask multiplies the spectrum inside hard-edged wavenumber bins.  Signs of
-1 in the mask encode the bits of a Boolean function on the Raman
channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import C_CM_PER_FS, SIGMA_TO_FWHM, TWO_PI_C
from .molecule import VibronicModel, checked_lines, transition_wavenumber

# Beyond this many envelope standard deviations the field underflows and
# the complex error function would overflow; treat the field as zero.
_ERF_GUARD_SIGMAS = 25.0 * math.sqrt(2.0)

# Probe intensity FWHM in fs: long enough that the spectrum addresses one
# upper level only.
DEFAULT_PROBE_DURATION = 1000.0


@dataclass(frozen=True)
class SpectralMask:
    """Piecewise-constant spectral factor on hard-edged wavenumber bins.

    Outside every bin the factor is 1.

    Attributes
    ----------
    bin_edges : np.ndarray
        Ascending edges in cm^-1; N+1 edges delimit N bins, each bin being
        the half-open interval [edge_k, edge_{k+1}).
    factors : np.ndarray
        Complex factor applied inside each bin (length N).
    """

    bin_edges: np.ndarray
    factors: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.bin_edges, dtype=float)
        factors = np.asarray(self.factors, dtype=complex)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("need at least two bin edges")
        if not np.all(np.isfinite(edges)):
            raise ValueError("bin edges must be finite")
        if not np.all(np.diff(edges) > 0.0):
            raise ValueError("bin edges must be strictly ascending")
        if factors.shape != (edges.size - 1,):
            raise ValueError(
                f"got {factors.size} factors for {edges.size - 1} bins"
            )
        object.__setattr__(self, "bin_edges", edges)
        object.__setattr__(self, "factors", factors)

    @property
    def n_bins(self) -> int:
        return self.factors.size

    def factor(self, nu: np.ndarray | float) -> np.ndarray:
        """Mask value at wavenumber(s) ``nu``."""
        nu_arr = np.atleast_1d(np.asarray(nu, dtype=float))
        idx = np.searchsorted(self.bin_edges, nu_arr, side="right") - 1
        inside = (idx >= 0) & (idx < self.n_bins)
        out = np.ones(nu_arr.shape, dtype=complex)
        out[inside] = self.factors[idx[inside]]
        return out


@dataclass(frozen=True)
class PulseSpec:
    """Frequency-domain description of one transform-limited pulse.

    Attributes
    ----------
    center : float
        Carrier wavenumber in cm^-1.
    duration_fwhm : float
        Intensity FWHM of the unmasked time profile in fs.
    amplitude : float
        Peak spectral amplitude (arbitrary units).
    delay : float
        Arrival time in fs, carried as a linear spectral phase.
    mask : SpectralMask | None
        Optional binned spectral factor.
    flat : bool
        If True the Gaussian envelope is replaced by 1 everywhere (the
        idealised zero-duration limit); mask and delay still apply.
    """

    center: float
    duration_fwhm: float
    amplitude: float = 1.0
    delay: float = 0.0
    mask: SpectralMask | None = None
    flat: bool = False

    def __post_init__(self) -> None:
        for what, value in (
            ("center wavenumber", self.center),
            ("duration", self.duration_fwhm),
            ("amplitude", self.amplitude),
        ):
            if not (0.0 < value < math.inf):
                raise ValueError(f"{what} must be positive and finite, got {value}")

    @property
    def sigma_t(self) -> float:
        """Standard deviation of the time-domain *field* envelope in fs."""
        return self.duration_fwhm / SIGMA_TO_FWHM

    @property
    def bandwidth_fwhm(self) -> float:
        """Intensity FWHM of the spectrum in cm^-1 (transform limit)."""
        return 2.0 * math.log(2.0) / (math.pi * C_CM_PER_FS * self.duration_fwhm)


def _unit_phase(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) filled from cos(theta) and sin(theta).

    Bit for bit the same as ``np.exp(1j * theta)``, without building the
    complex angle or taking a complex exponential.  The complex product
    ``1j * theta`` turns a -0.0 angle into +0.0, and so does adding 0.0 to
    the sine.
    """
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.add(np.sin(theta), 0.0, out=out.imag)
    return out


def spectral_amplitude(pulse: PulseSpec, nu: np.ndarray | float) -> np.ndarray:
    """Complex spectral amplitude at wavenumber(s) ``nu``.

    amplitude * envelope(nu) * mask(nu) * exp(+i 2 pi c nu delay), where
    the envelope peaks at 1 on the carrier.
    """
    nu_arr = np.atleast_1d(np.asarray(nu, dtype=float))
    if pulse.flat:
        env = np.ones_like(nu_arr)
    else:
        detune = TWO_PI_C * (nu_arr - pulse.center)
        # Far from the carrier the square overflows and the envelope
        # reaches its limit, 0.
        with np.errstate(over="ignore"):
            env = np.exp(-0.5 * (pulse.sigma_t * detune) ** 2)
    out = (pulse.amplitude * env).astype(complex)
    if pulse.mask is not None:
        out *= pulse.mask.factor(nu_arr)
    if pulse.delay != 0.0:
        out *= _unit_phase(TWO_PI_C * nu_arr * pulse.delay)
    return out


def time_profile(pulse: PulseSpec, t: np.ndarray | float) -> np.ndarray:
    """Complex analytic field E(t), the inverse transform of the spectrum.

    Closed form: a pure Gaussian for unmasked pulses; for masked pulses
    each hard-edged bin contributes a complex-error-function window.  Not
    defined for ``flat`` pulses, which have no finite-energy time profile.
    """
    if pulse.flat:
        raise ValueError("flat-envelope pulses have no time-domain profile")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    sigma = pulse.sigma_t
    s = t_arr - pulse.delay
    omega0 = TWO_PI_C * pulse.center
    prefactor = (
        pulse.amplitude
        / (sigma * math.sqrt(2.0 * math.pi))
        * np.exp(-0.5 * (s / sigma) ** 2)
        * _unit_phase(-omega0 * s)
    )
    if pulse.mask is None:
        return prefactor
    import scipy.special  # only masked pulses need it, and it is slow to import

    mask = pulse.mask
    # Gaussian times a top-hat bin [a, b] transforms to the difference of
    # two complex error functions; sum the deviation of each bin factor
    # from 1 (the factor outside the bins) on top of the full-Gaussian
    # background.
    total = np.ones(t_arr.shape, dtype=complex)
    safe = np.abs(s) <= _ERF_GUARD_SIGMAS * sigma
    z_scale = sigma / math.sqrt(2.0)
    edges_omega = TWO_PI_C * mask.bin_edges - omega0
    s_safe = s[safe]
    erf_at_edges = [
        scipy.special.erf(z_scale * edge + 1j * s_safe / (sigma * math.sqrt(2.0)))
        for edge in edges_omega
    ]
    correction = np.zeros(s_safe.shape, dtype=complex)
    for k in range(mask.n_bins):
        delta = mask.factors[k] - 1.0
        if delta != 0.0:
            correction += 0.5 * delta * (erf_at_edges[k + 1] - erf_at_edges[k])
    total[safe] += correction
    total[~safe] = 0.0
    return prefactor * total


def design_pump(
    model: VibronicModel,
    w_window: tuple[int, int],
    duration_fwhm: float,
    amplitude: float = 1.0,
) -> PulseSpec:
    """Unmasked pulse centred on the mean of nu(w, 0) over the window."""
    return PulseSpec(
        center=float(np.mean(checked_lines(model, w_window, 0, "lower level 0"))),
        duration_fwhm=duration_fwhm,
        amplitude=amplitude,
    )


def design_stokes(
    model: VibronicModel,
    v_target: int,
    w_window: tuple[int, int],
    f_bits: tuple[int, ...],
    duration_fwhm: float,
    amplitude: float = 1.0,
    delay: float = 0.0,
) -> PulseSpec:
    """Masked pulse encoding Boolean bits on the w -> v_target transitions.

    Bin k covers the transition nu(w_lo + k, v_target) and carries the
    factor (-1)**f_bits[k]; bin edges sit at the midpoints between
    adjacent transition wavenumbers, with the outer edges extended
    symmetrically.
    """
    nus = checked_lines(model, w_window, v_target, f"v_target = {v_target}")
    if nus.size < 2:
        raise ValueError("mask construction needs a window of at least 2 levels")
    if len(f_bits) != nus.size:
        raise ValueError(
            f"got {len(f_bits)} bits for a window of {nus.size} levels"
        )
    if any(b not in (0, 1) for b in f_bits):
        raise ValueError(f"bits must be 0 or 1, got {f_bits}")
    mid = 0.5 * (nus[:-1] + nus[1:])
    first = nus[0] - (mid[0] - nus[0])
    last = nus[-1] + (nus[-1] - mid[-1])
    edges = np.concatenate([[first], mid, [last]])
    factors = np.where(np.asarray(f_bits) == 0, 1.0, -1.0).astype(complex)
    mask = SpectralMask(bin_edges=edges, factors=factors)
    return PulseSpec(
        center=float(np.mean(nus)),
        duration_fwhm=duration_fwhm,
        amplitude=amplitude,
        delay=delay,
        mask=mask,
    )


def design_probe(
    model: VibronicModel,
    w_level: int,
    v_target: int,
    duration_fwhm: float = DEFAULT_PROBE_DURATION,
) -> PulseSpec:
    """Narrowband pulse centred on the single nu(w_level, v_target) line."""
    return PulseSpec(
        center=transition_wavenumber(model, w_level, v_target),
        duration_fwhm=duration_fwhm,
    )
