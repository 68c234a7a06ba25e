"""Test-side reference computations that the package does not ship."""

import numpy as np

from carsdj.molecule import VibronicModel
from carsdj.pulses import PulseSpec, spectral_amplitude


def cars_spectrum(model: VibronicModel, a: np.ndarray, probe: PulseSpec) -> np.ndarray:
    """Third-order anti-Stokes line amplitudes after the probe.

    b_w = sum_v fc[w, v] A_Pr(nu(w, v)) a_v for every retained upper
    level; returns shape (n_b,), the amplitude b_w * fc[w, 0] of the line
    radiated at nu(w, 0).  ``a`` holds one amplitude per retained lower
    level, as ``apply_stokes`` returns it.
    """
    probe_amps = spectral_amplitude(probe, model.nu.ravel()).reshape(model.nu.shape)
    b = (model.fc * probe_amps) @ a
    return b * model.fc[:, 0]
