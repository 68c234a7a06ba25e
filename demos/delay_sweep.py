"""Trace the signal against the pump-Stokes delay for two mask classes.

A constant mask leaves all channels in phase, so the signal revives
whenever the upper-state wavepacket returns to its starting position.
The alternating balanced mask cancels pairwise and stays near zero at
every revival.  Prints the revival positions and suppression ratios;
with matplotlib installed it also saves the two traces.
"""

import numpy as np

from carsdj.algorithm import PERIOD_LEVEL, BooleanFunction, sweep_delay
from carsdj.molecule import build_model, vibrational_period

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

N_POINTS = 301


def main() -> None:
    model = build_model()
    tau_b = vibrational_period(model, "B", PERIOD_LEVEL)
    multiples = np.linspace(0.0, 2.5, N_POINTS)

    constant = BooleanFunction((0, 0, 0, 0))
    alternating = BooleanFunction((0, 1, 0, 1))
    const_trace = sweep_delay(model, constant, multiples)
    alt_trace = sweep_delay(model, alternating, multiples)
    const_a = const_trace[:, 1]
    alt_a = alt_trace[:, 1]

    print(f"upper-state period at level {PERIOD_LEVEL}: {tau_b:.3f} fs")
    print(f"constant mask {constant.as_string}, alternating mask {alternating.as_string}\n")

    norm = const_a / const_a.max()
    peaks = [
        i
        for i in range(1, N_POINTS - 1)
        if norm[i] > norm[i - 1] and norm[i] >= norm[i + 1] and norm[i] >= 0.5
    ]
    print("== constant-mask revivals ==")
    for i in peaks:
        print(
            f"  delay {const_trace[i, 0]:8.1f} fs = {multiples[i]:.3f} periods, "
            f"height {norm[i]:.4f} of max"
        )

    print("\n== balanced suppression at integer multiples ==")
    for k in (0.0, 1.0, 2.0):
        i = int(np.argmin(np.abs(multiples - k)))
        print(
            f"  {k:.0f} periods: alternating / constant = "
            f"{alt_a[i] / const_a[i]:.4f}"
        )

    if plt is None:
        print("\nmatplotlib not installed; skipping the figure")
        return

    fig, ax = plt.subplots(figsize=(8.0, 4.5))
    ax.plot(multiples, const_a, label="constant 0000")
    ax.plot(multiples, alt_a, label="alternating 0101")
    for k in (1.0, 2.0):
        ax.axvline(k, color="gray", lw=0.6, ls=":")
    ax.set_xlabel("delay (upper-state periods)")
    ax.set_ylabel("signal |a$_4$|")
    ax.legend()
    fig.tight_layout()
    fig.savefig("delay_sweep.png", dpi=150)
    print("\nwrote delay_sweep.png")


if __name__ == "__main__":
    main()
