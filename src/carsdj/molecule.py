"""Two-surface vibronic model: bound states on both curves plus overlaps.

The model couples the ground (X) and excited (B) electronic curves of a
diatomic through the Condon approximation, so every optical matrix element
factorises into an electronic constant (set to one) times a vibrational
overlap.  Overlaps are plain Euclidean dot products of the grid coefficient
vectors, which is the exact DVR quadrature of the wavefunction product on a
uniform grid.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from .constants import C_CM_PER_FS, HBARSQ_CM1_AMU_ANG2
from .dvr import (
    EigenSolution,
    Grid,
    _eigensolve,
    _one_blas_thread,
    build_hamiltonian,
    solve_bound_states,
)
from .morse import MorseParams, morse_potential, turning_points

# Iodine B-X parameters; energies cm^-1, lengths angstrom.
IODINE_X = MorseParams(d_e=12550.0, r_e=2.666, beta=1.858, t_e=0.0)
IODINE_B = MorseParams(d_e=4500.0, r_e=3.016, beta=1.850, t_e=15647.0)
IODINE_REDUCED_MASS = 126.904473 / 2.0

# Default grid: comfortably brackets the turning points of every retained
# state on both curves, with enough points that the retained eigenvalues
# are converged well below 1e-6 cm^-1 (checked by the test suite).
DEFAULT_GRID = Grid(r_min=2.0, r_max=6.5, n_points=512)

DEFAULT_N_X = 40
DEFAULT_N_B = 40

# Outermost retained wavefunctions decay over a few de Broglie lengths
# beyond the classical turning point; demand this much clearance.
_TURNING_MARGIN_ANG = 0.25


@dataclass(frozen=True, eq=False)
class VibronicModel:
    """Bound states of both curves plus the Franck-Condon overlap matrix.

    Equality and hash are by identity: the fields hold arrays, and
    per-model caches key on the object.  Every array is read-only, so
    nothing cached on a model can go stale.

    Attributes
    ----------
    x_states, b_states : EigenSolution
        Retained vibrational states of the lower and upper curve; energies
        are relative to each curve's own minimum.
    fc : np.ndarray
        Shape (n_b, n_x); fc[w, v] is the signed overlap of upper state w
        with lower state v.
    t_e : float
        Electronic offset between the two minima in cm^-1.
    reduced_mass : float
        Reduced mass in amu.
    requested : dict or None
        Per curve tag, "x" or "b", the Morse parameters and state count
        ``build_model`` was asked for; None for a model built by hand.
    """

    x_states: EigenSolution
    b_states: EigenSolution
    fc: np.ndarray
    t_e: float
    reduced_mass: float
    requested: dict[str, tuple[MorseParams, int]] | None = None

    def __post_init__(self) -> None:
        for sol in (self.x_states, self.b_states):
            sol.energies.flags.writeable = False
            sol.wavefunctions.flags.writeable = False
        self.fc.flags.writeable = False

    @property
    def n_x(self) -> int:
        return self.x_states.n_bound

    @property
    def n_b(self) -> int:
        return self.b_states.n_bound

    @cached_property
    def nu(self) -> np.ndarray:
        """Read-only transition wavenumbers t_e + E_B(w) - E_X(v) in cm^-1.

        Shape (n_b, n_x).  Validate levels with ``check_retained`` first: a
        negative, float or bool level would wrap, raise or read level 0 or 1.
        """
        e_b, e_x = self.b_states.energies, self.x_states.energies
        nu = self.t_e + e_b[:, None] - e_x[None, :]
        nu.flags.writeable = False
        return nu


def _retained(
    sol: EigenSolution,
    params: MorseParams,
    grid: Grid,
    reduced_mass: float,
    n_requested: int,
    tag: str,
) -> EigenSolution:
    """Retained states of one curve from its solved lowest states; ``tag`` is
    "x" (lower) or "b" (upper), the prefix of the curve's parameters in
    error messages."""
    label = "lower" if tag == "x" else "upper"
    energies = sol.energies
    # Every level of a well-relative Hamiltonian is positive; a level that
    # is not means the curve spans more orders of magnitude on the grid
    # than the eigensolver resolves.
    if not (np.isfinite(energies).all() and energies[0] > 0.0):
        raise ValueError(
            f"{tag}_d_e = {params.d_e:.4g} and {tag}_beta = {params.beta:.4g} make "
            f"the {label} Morse well too steep to solve on this grid: its lowest "
            f"level came out at {energies[0]:.4g} cm^-1"
        )
    # Bound-state cutoff: keep levels below the dissociation limit by at
    # least one local level spacing, so near-threshold grid artefacts are
    # never retained.
    keep = sol.n_bound
    while keep > 1:
        spacing = energies[keep - 1] - energies[keep - 2]
        if energies[keep - 1] < params.d_e - spacing:
            break
        keep -= 1
    if energies[0] >= params.d_e:
        raise ValueError(
            f"{tag}_d_e = {params.d_e:.4g}, {tag}_beta = {params.beta:.4g} and "
            f"reduced_mass = {reduced_mass:.4g} bind no {label} level on this grid: "
            f"its lowest level, {energies[0]:.4g} cm^-1, is not below {tag}_d_e"
        )
    if keep < sol.n_bound:
        sol = EigenSolution(energies[:keep], sol.wavefunctions[:keep])
    top = sol.energies[-1]
    # A level whose momentum at the well bottom exceeds the sinc basis
    # limit pi/dx is an artefact of too few points, whatever the range.
    # In Python floats a huge level overflows to inf, without a warning.
    k_top = math.sqrt(2.0 * reduced_mass * float(top) / HBARSQ_CM1_AMU_ANG2)
    if k_top > math.pi / grid.spacing:
        raise ValueError(
            f"grid of n_points = {grid.n_points} too coarse for {label} level "
            f"{sol.n_bound - 1}: its momentum {k_top:.4g} /angstrom exceeds "
            f"pi/dx = {math.pi / grid.spacing:.4g} /angstrom"
        )
    inner, outer = turning_points(params, top)
    tight = [
        f"{key} = {value:g}"
        for key, value, room in (
            ("r_min", grid.r_min, inner - grid.r_min),
            ("r_max", grid.r_max, grid.r_max - outer),
        )
        if room < _TURNING_MARGIN_ANG
    ]
    if tight:
        # inner > r_e - ln 2 / beta, so only r_e and beta can put it below
        # r = 0, outside any grid that starts above 0.
        if inner <= 0.0 < grid.r_min:
            raise ValueError(
                f"{tag}_r_e = {params.r_e:.4g} and {tag}_beta = {params.beta:.4g} put "
                f"the inner turning point of {label} level {sol.n_bound - 1} at "
                f"{inner:.4g} angstrom, below r = 0, outside the grid"
            )
        raise ValueError(
            f"grid [{grid.r_min}, {grid.r_max}] angstrom too small at "
            f"{' and '.join(tight)} for {label} level {sol.n_bound - 1} "
            f"(n_{tag}_states = {n_requested}): turning points ({inner:.4g}, "
            f"{outer:.4g}) need {_TURNING_MARGIN_ANG} angstrom clearance"
        )
    return sol


def build_model(
    x_params: MorseParams = IODINE_X,
    b_params: MorseParams = IODINE_B,
    reduced_mass: float = IODINE_REDUCED_MASS,
    grid: Grid = DEFAULT_GRID,
    n_x: int = DEFAULT_N_X,
    n_b: int = DEFAULT_N_B,
) -> VibronicModel:
    """Solve both curves on a shared grid and form the overlap matrix.

    ``n_x`` and ``n_b`` are upper bounds; levels failing the bound-state
    cutoff are dropped.

    The upper curve is solved on a worker thread that lives for the
    build while the caller solves the lower one, with scipy's OpenBLAS
    pinned to one thread for the whole process meanwhile, so the bits are
    those of one thread whatever the count.  No thread outlives the build.

    The last model built is cached per process, keyed by the six
    arguments however they are passed, so a repeated build returns the
    same object.  Every array of the model is read-only; failed builds
    are not cached.

    Raises
    ------
    ValueError
        Naming the config keys that can fix it, if ``check_build`` refuses
        the inputs, a curve's well is too steep to solve or binds no level
        on the grid, the grid is too coarse for the top retained level, or
        a retained level's turning points come within 0.25 angstrom of an
        end of the grid (or below r = 0).
    """
    return _cached_model(x_params, b_params, reduced_mass, grid, n_x, n_b)


# One model: every caller that repeats a build (CLI subcommands run in one
# process) repeats the last one, and older models would only stay alive.
@lru_cache(maxsize=1)
def _cached_model(
    x_params: MorseParams,
    b_params: MorseParams,
    reduced_mass: float,
    grid: Grid,
    n_x: int,
    n_b: int,
) -> VibronicModel:
    check_build(x_params, b_params, grid, n_x, n_b)
    h_x = build_hamiltonian(grid, lambda r: morse_potential(x_params, r), reduced_mass)
    h_b = build_hamiltonian(grid, lambda r: morse_potential(b_params, r), reduced_mass)
    # Leaving the executor joins the worker before the pin is released.  No
    # traced layer runs on the worker: a trace records one thread.
    with _one_blas_thread(), ThreadPoolExecutor(1, "carsdj-upper") as worker:
        upper = worker.submit(_eigensolve, h_b, n_b)
        x_eig = solve_bound_states(h_x, n_x)
    # The lower curve's refusal comes first, however the two solves ended.
    x_sol = _retained(x_eig, x_params, grid, reduced_mass, n_x, "x")
    b_sol = _retained(upper.result(), b_params, grid, reduced_mass, n_b, "b")
    return VibronicModel(
        x_states=x_sol,
        b_states=b_sol,
        fc=b_sol.wavefunctions @ x_sol.wavefunctions.T,
        t_e=b_params.t_e - x_params.t_e,
        reduced_mass=reduced_mass,
        requested={"x": (x_params, n_x), "b": (b_params, n_b)},
    )


def check_build(
    x_params: MorseParams, b_params: MorseParams, grid: Grid, n_x: int, n_b: int
) -> None:
    """ValueError naming its keys if a curve overflows or a count is below 1
    or exceeds n_points."""
    # A Morse curve is largest at an end of the grid.
    ends = np.array([grid.r_min, grid.r_max])
    for tag, params in (("x", x_params), ("b", b_params)):
        with np.errstate(over="ignore"):
            finite = np.isfinite(morse_potential(params, ends)).all()
        if not finite:
            raise ValueError(
                f"{tag}_d_e, {tag}_r_e and {tag}_beta make the Morse curve "
                f"overflow on the grid [{grid.r_min:g}, {grid.r_max:g}] angstrom"
            )
    for key, count in (("n_x_states", n_x), ("n_b_states", n_b)):
        if count < 1:
            raise ValueError(f"{key} must be at least 1, got {count}")
        if count > grid.n_points:
            raise ValueError(
                f"{key} ({count}) must not exceed n_points ({grid.n_points})"
            )


def _is_level(v: object) -> bool:
    """Whether ``v`` indexes a level: a Python or numpy integer, not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def check_retained(model: VibronicModel, tag: str, level: int) -> None:
    """ValueError unless ``level`` of curve ``tag``, "x" (lower) or "b" (upper),
    is an integer level the model retains, naming the key that keeps more."""
    side, kept = ("lower", model.n_x) if tag == "x" else ("upper", model.n_b)
    if not (_is_level(level) and level >= 0):
        raise ValueError(
            f"this run needs {side} level {level!r}, but levels are integers from 0"
        )
    if level < kept:
        return
    why = f"the model retains only {kept} {side} levels"
    if model.requested is not None:
        params, count = model.requested[tag]
        why = f"n_{tag}_states = {count} retained only {kept} {side} levels"
        # Fewer levels than requested: the curve, not the request, fell short.
        if kept < count:
            why = (
                f"{tag}_d_e = {params.d_e:.4g} cm^-1, {tag}_beta = {params.beta:.4g} "
                f"and reduced_mass = {model.reduced_mass:.4g} bind only {kept} "
                f"{side} levels below the cutoff"
            )
    raise ValueError(f"this run needs {side} level {level}, but {why} (0-{kept - 1})")


def checked_window(
    model: VibronicModel, w_window: tuple[int, int], v_target: int | None = None
) -> np.ndarray:
    """Upper levels of an inclusive window, ascending, after validation:
    ValueError unless both ends are integer levels, the window is non-empty
    and ``check_retained`` accepts its top level, then its bottom level and
    lower level ``v_target``."""
    w_lo, w_hi = w_window
    # An end that is no level has no order; check_retained names it.
    for level in (w_hi, w_lo):
        if not _is_level(level):
            check_retained(model, "b", level)
    if w_lo > w_hi:
        raise ValueError(f"empty window [{w_lo}, {w_hi}]")
    check_retained(model, "b", w_hi)
    check_retained(model, "b", w_lo)
    if v_target is not None:
        check_retained(model, "x", v_target)
    return np.arange(w_lo, w_hi + 1)


def checked_lines(
    model: VibronicModel, w_window: tuple[int, int], v: int, level: str
) -> np.ndarray:
    """Lines nu(w, v) of an inclusive window of upper levels, after validation.

    Raises ValueError unless ``checked_window`` accepts the window and ``v``,
    and the lines are positive and strictly ascend: pulses are centred on
    them and a Stokes mask bins them.  A small electronic offset with a high
    ``v`` puts them below zero, a huge one rounds them together.  ``level``
    names ``v`` in the message, which names the offset by its config key.
    """
    lines = model.nu[checked_window(model, w_window, v), v]
    w_lo, w_hi = w_window
    if not lines.min() > 0.0:
        raise ValueError(
            f"b_t_e = {model.t_e:.4g} cm^-1 and {level} put the lowest line of "
            f"upper levels {w_lo}-{w_hi} at {lines.min():.4g} cm^-1; lines must be "
            "positive"
        )
    if not (np.diff(lines) > 0.0).all():
        raise ValueError(
            f"b_t_e = {model.t_e:.4g} cm^-1 swamps upper levels {w_lo}-{w_hi}: "
            "their transition wavenumbers do not ascend in floating point"
        )
    return lines


def transition_wavenumber(model: VibronicModel, w: int, v: int) -> float:
    """Vertical transition energy t_e + E_B(w) - E_X(v) in cm^-1."""
    checked_window(model, (w, w), v)
    return float(model.nu[w, v])


def vibrational_period(model: VibronicModel, surface: str, level: int) -> float:
    """Classical period 1 / (c * local spacing) in fs at the given level.

    The local spacing is E(level+1) - E(level), so ``check_retained`` must
    accept ``level + 1``, then ``level``.
    """
    if surface not in ("X", "B"):
        raise ValueError(f"surface must be 'X' or 'B', got {surface!r}")
    tag = surface.lower()
    check_retained(model, tag, level + 1)
    check_retained(model, tag, level)
    energies = (model.x_states if tag == "x" else model.b_states).energies
    spacing = float(energies[level + 1] - energies[level])
    return 1.0 / (C_CM_PER_FS * spacing)


def with_equalized_fc(
    model: VibronicModel, w_window: tuple[int, int], v_target: int
) -> VibronicModel:
    """Model copy with uniform channel overlaps inside the window.

    Every fc[w, 0] and fc[w, v_target] for w in the inclusive window is
    replaced by the geometric mean of the replaced column's magnitudes,
    keeping each entry's original sign.  This is the idealised limit in
    which all Raman channels carry equal weight.
    """
    ws = checked_window(model, w_window, v_target)
    fc = model.fc.copy()
    for v in (0, v_target):
        col = fc[ws, v]
        if np.any(col == 0.0):
            raise ValueError(
                f"cannot equalise: zero overlap at v={v} inside window "
                f"[{w_window[0]}, {w_window[1]}]"
            )
        mean = float(np.exp(np.mean(np.log(np.abs(col)))))
        fc[ws, v] = np.sign(col) * mean
    return replace(model, fc=fc)
