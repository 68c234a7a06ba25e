"""Survey the two-curve vibrational model every other demo builds on.

Prints the closed-form spectroscopic constants, checks the numerically
solved ladders against the analytic ones, reports the local periods that
set the vibrational clock, and scores the Raman channels across the
working window.  With matplotlib installed it also saves a figure of
the two potential wells with their retained levels.
"""

import numpy as np

from carsdj.algorithm import PERIOD_LEVEL
from carsdj.molecule import (
    DEFAULT_GRID,
    IODINE_B,
    IODINE_REDUCED_MASS,
    IODINE_X,
    build_model,
    checked_window,
    transition_wavenumber,
    vibrational_period,
)
from carsdj.morse import (
    anharmonicity,
    bound_state_count,
    harmonic_wavenumber,
    morse_analytic_levels,
    morse_potential,
)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None


def fc_window_score(model, v_target: int, w_window: tuple[int, int]) -> np.ndarray:
    """(w, |fc[w, 0] * fc[w, v_target]|) rows over an inclusive window: how
    strongly each upper level couples the v=0 -> v_target Raman channel."""
    ws = checked_window(model, w_window, v_target)
    scores = np.abs(model.fc[ws, 0] * model.fc[ws, v_target])
    return np.column_stack([ws.astype(float), scores])


def main() -> None:
    model = build_model()

    print("== closed-form constants ==")
    for label, params in (("lower (X)", IODINE_X), ("upper (B)", IODINE_B)):
        omega = harmonic_wavenumber(params, IODINE_REDUCED_MASS)
        chi = anharmonicity(params, IODINE_REDUCED_MASS)
        n_bound = bound_state_count(params, IODINE_REDUCED_MASS)
        print(
            f"  {label}: omega_e = {omega:9.4f} cm^-1, "
            f"omega_e x_e = {chi:7.4f} cm^-1, {n_bound} bound levels"
        )

    print("\n== numeric ladder vs closed form (worst of lowest 30) ==")
    for label, params, states in (
        ("X", IODINE_X, model.x_states),
        ("B", IODINE_B, model.b_states),
    ):
        analytic = morse_analytic_levels(params, IODINE_REDUCED_MASS, 30)
        worst = np.max(np.abs(states.energies[:30] - analytic) / analytic)
        print(f"  {label}: {states.n_bound} retained, worst rel error {worst:.2e}")

    print("\n== vibrational clock ==")
    w = PERIOD_LEVEL
    print(f"  upper-state period at level {w}: {vibrational_period(model, 'B', w):9.3f} fs")
    print(f"  lower-state period at level 0:  {vibrational_period(model, 'X', 0):9.3f} fs")
    print(f"  pump line    nu({w}, 0) = {transition_wavenumber(model, w, 0):12.4f} cm^-1")
    print(f"  Stokes line  nu({w}, 4) = {transition_wavenumber(model, w, 4):12.4f} cm^-1")

    print("\n== Raman channel scores |fc[w,0] * fc[w,4]| over the widest window ==")
    scores = fc_window_score(model, 4, (18, 25))
    top = scores[np.argmax(scores[:, 1]), 0]
    for w, score in scores:
        marker = "  <- strongest" if w == top else ""
        print(f"  w = {int(w):2d}: {score:.6e}{marker}")

    if plt is None:
        print("\nmatplotlib not installed; skipping the figure")
        return

    r = DEFAULT_GRID.points()
    fig, ax = plt.subplots(figsize=(7.0, 5.0))
    v_x = morse_potential(IODINE_X, r)
    v_b = model.t_e + morse_potential(IODINE_B, r)
    ax.plot(r, v_x, color="tab:blue", label="lower curve")
    ax.plot(r, v_b, color="tab:red", label="upper curve")
    for e in model.x_states.energies[::4]:
        ax.axhline(e, color="tab:blue", lw=0.4, alpha=0.4)
    for e in model.t_e + model.b_states.energies[::4]:
        ax.axhline(e, color="tab:red", lw=0.4, alpha=0.4)
    ax.set_xlabel("bond length (angstrom)")
    ax.set_ylabel("energy (cm$^{-1}$)")
    ax.set_ylim(-500.0, 25000.0)
    ax.legend()
    fig.tight_layout()
    fig.savefig("level_structure.png", dpi=150)
    print("\nwrote level_structure.png")


if __name__ == "__main__":
    main()
