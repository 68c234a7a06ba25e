"""Show the three designed pulses and how a bit mask shapes the Stokes.

Prints the design numbers (centers, bandwidths, mask bins) for the
standard 4-point window, then samples the spectra.  With matplotlib
installed it saves a figure overlaying the pump, the probe, and two
masked Stokes variants against the transition lines they address.
"""

import numpy as np

from carsdj.algorithm import PERIOD_LEVEL
from carsdj.molecule import build_model, transition_wavenumber, vibrational_period
from carsdj.pulses import (
    design_probe,
    design_pump,
    design_stokes,
    spectral_amplitude,
)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

WINDOW = (20, 23)
V_TARGET = 4


def describe(name, pulse) -> None:
    print(
        f"  {name}: center {pulse.center:11.3f} cm^-1, duration "
        f"{pulse.duration_fwhm:7.1f} fs, bandwidth {pulse.bandwidth_fwhm:8.3f} cm^-1"
    )
    if pulse.mask is not None:
        edges = ", ".join(f"{e:.1f}" for e in pulse.mask.bin_edges)
        signs = ", ".join(f"{f.real:+.0f}" for f in pulse.mask.factors)
        print(f"      mask edges [{edges}]")
        print(f"      mask signs [{signs}]")


def main() -> None:
    model = build_model()
    tau_b = vibrational_period(model, "B", PERIOD_LEVEL)

    pump = design_pump(model, WINDOW, duration_fwhm=30.0)
    probe = design_probe(model)
    # drawn undelayed; a delay only multiplies the spectrum by a phase
    stokes_const = design_stokes(
        model, V_TARGET, WINDOW, (0, 0, 0, 0), duration_fwhm=30.0
    )
    stokes_alt = design_stokes(
        model, V_TARGET, WINDOW, (0, 1, 0, 1), duration_fwhm=30.0
    )

    print("== designed pulses for window (20, 23), target level 4 ==")
    describe("pump        ", pump)
    describe("probe       ", probe)
    describe("Stokes(0000)", stokes_const)
    describe("Stokes(0101)", stokes_alt)
    print(f"\n  benchmark Stokes delay = one upper-state period = {tau_b:.3f} fs")

    print("\n== addressed transitions ==")
    for w in range(WINDOW[0], WINDOW[1] + 1):
        print(
            f"  w = {w}: pump line {transition_wavenumber(model, w, 0):11.3f}, "
            f"Stokes line {transition_wavenumber(model, w, V_TARGET):11.3f} cm^-1"
        )

    if plt is None:
        print("\nmatplotlib not installed; skipping the figure")
        return

    fig, axes = plt.subplots(2, 1, figsize=(8.0, 6.0), sharey=True)
    nu_p = np.linspace(pump.center - 900.0, pump.center + 900.0, 3000)
    axes[0].plot(nu_p, np.abs(spectral_amplitude(pump, nu_p)), label="pump")
    axes[0].plot(
        nu_p, np.abs(spectral_amplitude(probe, nu_p)) / 30.0, label="probe / 30"
    )
    for w in range(WINDOW[0], WINDOW[1] + 1):
        axes[0].axvline(
            transition_wavenumber(model, w, 0), color="gray", lw=0.6, ls=":"
        )
    nu_s = np.linspace(stokes_const.center - 900.0, stokes_const.center + 900.0, 3000)
    for pulse, label in ((stokes_const, "Stokes 0000"), (stokes_alt, "Stokes 0101")):
        amp = spectral_amplitude(pulse, nu_s)
        axes[1].plot(nu_s, np.sign(amp.real) * np.abs(amp), label=label)
    for w in range(WINDOW[0], WINDOW[1] + 1):
        axes[1].axvline(
            transition_wavenumber(model, w, V_TARGET), color="gray", lw=0.6, ls=":"
        )
    for ax in axes:
        ax.set_ylabel("amplitude")
        ax.legend(loc="upper right")
    axes[1].set_xlabel("wavenumber (cm$^{-1}$)")
    fig.tight_layout()
    fig.savefig("pulse_gallery.png", dpi=150)
    print("\nwrote pulse_gallery.png")


if __name__ == "__main__":
    main()
