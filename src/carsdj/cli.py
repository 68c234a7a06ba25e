"""Command-line front end emitting reproducible CSV artifacts.

Six subcommands cover the standard reproductions:

``eigen``
    Bound-level energies of both electronic surfaces next to the
    closed-form values, with deltas.
``fc``
    Overlap matrix and transition-wavenumber table.
``pulses``
    Complex spectral amplitudes of the pump, Stokes, and probe pulses.
``sweep``
    Signal-versus-delay traces for chosen bit masks.
``table1``
    Correlation/distinguishability grid over window sizes and delays.
``oracle-check``
    Frequency- versus time-domain signal agreement over randomized
    pulse configurations.

Configuration is a flat ``key=value`` file ('#' starts a comment).
Each subcommand yields its tables and ``main`` alone writes them.  Every
output CSV begins with comment lines echoing the fully resolved
configuration, so identical inputs produce byte-identical files whatever
the BLAS thread count: the model build runs its eigensolves on one thread
of scipy's OpenBLAS.  Exit codes: 0 success, 1 invalid configuration or
an output that cannot be written, 2 numerical failure (a non-finite cell
included).
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import Field, dataclass, field, fields, replace
from itertools import groupby
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .algorithm import (
    DEFAULT_WINDOWS,
    PERIOD_LEVEL,
    TABLE_ROWS,
    TABLE_TAUS,
    BooleanFunction,
    RunOptions,
    design_pulses,
    fidelity_table,
    prepare_model,
    sweep_delay,
)
from .constants import HBARSQ_CM1_AMU_ANG2, TWO_PI_C
from .dvr import Grid
from .dynamics import (
    apply_stokes,
    prepare_first_order,
    random_oracle_configs,
    signal_magnitude,
    time_domain_oracle,
)
from .molecule import (
    DEFAULT_GRID,
    DEFAULT_N_B,
    DEFAULT_N_X,
    IODINE_B,
    IODINE_REDUCED_MASS,
    IODINE_X,
    VibronicModel,
    build_model,
    check_build,
    checked_lines,
    vibrational_period,
)
from .morse import (
    MorseParams,
    anharmonicity,
    harmonic_wavenumber,
    morse_analytic_levels,
)
from .pulses import DEFAULT_PROBE_DURATION, PulseSpec, design_probe, spectral_amplitude

# Largest admissible frequency/time-domain disagreement for oracle-check.
ORACLE_TOLERANCE = 1e-6
# Largest delay phase a double holds to ORACLE_TOLERANCE: past it, the
# phase modulo 2 pi has lost digits the oracle check demands.
_PHASE_LIMIT = ORACLE_TOLERANCE / np.finfo(float).eps

_SPECTRUM_POINTS = 2001


class ConfigError(ValueError):
    """Invalid configuration text, flag value, or key combination."""


# Range rules: each takes a key's name and value and returns what is wrong
# with the value, or None when it is in range.

def _positive(name: str, v: float) -> str | None:
    return None if v > 0 else f"{name} must be positive"


def _nonnegative(name: str, v: float) -> str | None:
    return None if v >= 0 else f"{name} must be nonnegative"


def _at_least(bound: int, most: int | None = None) -> Callable[[str, int], str | None]:
    def check(name: str, v: int) -> str | None:
        if v < bound:
            return f"{name} must be at least {bound}"
        if most is not None and v > most:
            return f"{name} must be at most {most}, got {v}"
        return None

    return check


def _check_n(name: str, v: int) -> str | None:
    lo, hi = min(DEFAULT_WINDOWS), max(DEFAULT_WINDOWS)
    if v < lo or v > hi:
        return f"{name} must be between {lo} and {hi}, got {v}"
    if v not in DEFAULT_WINDOWS:
        return f"{name} must be even (balanced functions need equal halves), got {v}"
    return None


def _check_tau(name: str, values: tuple[float, ...]) -> str | None:
    if not values:
        return f"{name} needs at least one delay multiple"
    for v in values:
        if v < 0:
            return f"{name} must hold nonnegative delay multiples, got {v:g}"
    return None


def _check_out_dir(name: str, v: str) -> str | None:
    if not v:
        return f"{name} must not be empty"
    if "\0" in v:
        return f"{name} must not hold a NUL byte"
    return None


def _key(default: object, rule: Callable):
    """Field of a config key: its default and its range rule."""
    return field(default=default, metadata={"rule": rule})


def _check_range(key: Field, value: object) -> None:
    """ConfigError unless ``value`` is of ``key``'s kind and, unless it is
    auto (None), keeps ``key``'s range rule."""
    kind = _KINDS[key.type]
    if not kind.admits(value):
        raise ConfigError(f"{key.name} must be {kind.what}, got {value!r}")
    rule = key.metadata.get("rule")
    problem = None if rule is None or value is None else rule(key.name, value)
    if problem is not None:
        raise ConfigError(problem)


_RUN_DEFAULTS = RunOptions()

# Upper bounds that keep a run's arrays in memory: the dense Hamiltonian
# of an 8192-point grid takes 512 MB, the channel weights of a
# million-point sweep at n = 16 take 256 MB, and 10**5 oracle
# configurations, all drawn before the first quadrature, take about 60 MB
# and 8 minutes of quadrature.
_MAX_GRID_POINTS = 8192
_MAX_SWEEP_POINTS = 10**6
_MAX_ORACLE_CONFIGS = 10**5


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description.

    Field order is the canonical key order of the config format and of
    the header echoed into every output file; each field's annotation
    names its key's kind in ``_KINDS`` and its ``rule`` metadata the
    key's range rule.
    ``w_min``/``w_max`` and ``pump_duration`` accept the literal value
    ``auto`` (stored as None), which resolves to the standard window for
    the domain size and to the calibrated pump duration for the mode.
    """

    x_d_e: float = _key(IODINE_X.d_e, _positive)
    x_r_e: float = _key(IODINE_X.r_e, _positive)
    x_beta: float = _key(IODINE_X.beta, _positive)
    b_d_e: float = _key(IODINE_B.d_e, _positive)
    b_r_e: float = _key(IODINE_B.r_e, _positive)
    b_beta: float = _key(IODINE_B.beta, _positive)
    b_t_e: float = _key(IODINE_B.t_e, _nonnegative)
    reduced_mass: float = _key(IODINE_REDUCED_MASS, _positive)
    r_min: float = _key(DEFAULT_GRID.r_min, _positive)
    r_max: float = _key(DEFAULT_GRID.r_max, _positive)
    n_points: int = _key(DEFAULT_GRID.n_points, _at_least(16, _MAX_GRID_POINTS))
    n_x_states: int = _key(DEFAULT_N_X, _at_least(1))
    n_b_states: int = _key(DEFAULT_N_B, _at_least(1))
    n: int = _key(4, _check_n)
    v_target: int = _key(_RUN_DEFAULTS.v_target, _nonnegative)
    w_min: int | None = _key(None, _nonnegative)
    w_max: int | None = _key(None, _nonnegative)
    tau: tuple[float, ...] = _key(TABLE_TAUS, _check_tau)
    tailored: bool = _RUN_DEFAULTS.tailored
    flat: bool = _RUN_DEFAULTS.flat_envelopes
    pump_duration: float | None = _key(_RUN_DEFAULTS.pump_duration, _positive)
    stokes_duration: float = _key(_RUN_DEFAULTS.stokes_duration, _positive)
    probe_duration: float = _key(DEFAULT_PROBE_DURATION, _positive)
    pump_amplitude: float = _key(_RUN_DEFAULTS.pump_amplitude, _positive)
    stokes_amplitude: float = _key(_RUN_DEFAULTS.stokes_amplitude, _positive)
    sweep_max_multiple: float = _key(2.5, _positive)
    sweep_points: int = _key(501, _at_least(2, _MAX_SWEEP_POINTS))
    oracle_configs: int = _key(20, _at_least(1, _MAX_ORACLE_CONFIGS))
    oracle_seed: int = _key(20260817, _nonnegative)
    dump_wavefunctions: bool = False
    out_dir: str = _key("out", _check_out_dir)

    def __post_init__(self) -> None:
        """Every check of every config, however made: each key's kind and
        range rule in field order, then the cross-key checks; ConfigError
        at the first."""
        for key in fields(self):
            _check_range(key, getattr(self, key.name))
        try:
            check_build(
                self.x_params(), self.b_params(), self.grid(), self.n_x_states,
                self.n_b_states,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        # Sinc-basis momentum limit pi/dx of the finest grid n_points allows.
        k_finest = np.pi * (_MAX_GRID_POINTS - 1) / (self.r_max - self.r_min)
        for tag, params in (("x", self.x_params()), ("b", self.b_params())):
            # Closed-form ground level E0 = omega_e/2 - omega_e x_e/4: if even
            # its momentum outruns the finest grid, no n_points can help.
            w = harmonic_wavenumber(params, self.reduced_mass)
            e0 = w / 2.0 - anharmonicity(params, self.reduced_mass) / 4.0
            with np.errstate(invalid="ignore"):  # E0 < 0: the curve binds nothing
                k0 = np.sqrt(2.0 * self.reduced_mass * e0 / HBARSQ_CM1_AMU_ANG2)
            if k0 > k_finest:
                raise ConfigError(
                    f"{tag}_d_e, {tag}_beta and reduced_mass make the Morse well too "
                    f"steep for any grid: its ground level's momentum {k0:.4g} "
                    f"/angstrom exceeds pi/dx = {k_finest:.4g} /angstrom even at "
                    f"n_points = {_MAX_GRID_POINTS}"
                )
        if (self.w_min is None) != (self.w_max is None):
            raise ConfigError("w_min and w_max must be set together")
        if self.w_min is not None and self.w_max < self.w_min:
            raise ConfigError(
                f"w_max ({self.w_max}) must be at least w_min ({self.w_min})"
            )
        try:
            self.resolved_window()
        except ValueError as exc:
            raise ConfigError(f"{exc}; w_min and w_max must span n levels") from None
        if self.v_target >= self.n_x_states:
            raise ConfigError(
                f"v_target ({self.v_target}) is not among the "
                f"{self.n_x_states} requested lower levels"
            )

    def x_params(self) -> MorseParams:
        return MorseParams(d_e=self.x_d_e, r_e=self.x_r_e, beta=self.x_beta)

    def b_params(self) -> MorseParams:
        return MorseParams(
            d_e=self.b_d_e, r_e=self.b_r_e, beta=self.b_beta, t_e=self.b_t_e
        )

    def grid(self) -> Grid:
        return Grid(r_min=self.r_min, r_max=self.r_max, n_points=self.n_points)

    def resolved_window(self) -> tuple[int, int]:
        return self.run_options().resolved_window(self.n)

    def resolved_pump_duration(self) -> float:
        return self.run_options().resolved_pump_duration()

    def run_options(self) -> RunOptions:
        window = None
        if self.w_min is not None and self.w_max is not None:
            window = (self.w_min, self.w_max)
        return RunOptions(
            w_window=window,
            v_target=self.v_target,
            pump_duration=self.pump_duration,
            stokes_duration=self.stokes_duration,
            pump_amplitude=self.pump_amplitude,
            stokes_amplitude=self.stokes_amplitude,
            tailored=self.tailored,
            flat_envelopes=self.flat,
        )

    def build(self) -> VibronicModel:
        """Solve the model; the library refuses, naming the key, a run that
        needs a level the model did not retain."""
        return build_model(
            x_params=self.x_params(),
            b_params=self.b_params(),
            reduced_mass=self.reduced_mass,
            grid=self.grid(),
            n_x=self.n_x_states,
            n_b=self.n_b_states,
        )


# ---------------------------------------------------------------------------
# Config parsing

# Field of each key: its annotation text (annotations are postponed, so
# strings) names its kind in _KINDS, its metadata the range rule.
_KEYS: dict[str, Field] = {key.name: key for key in fields(ExperimentConfig)}


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None


def _parse_int(text: str) -> int:
    try:
        return int(text, 10)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_floats(text: str) -> tuple[float, ...]:
    parts = [part.strip() for part in text.split(",")]
    if parts == [""]:
        parts = []
    return tuple(_parse_float(part) for part in parts)


def _is_finite_float(v: object) -> bool:
    return isinstance(v, float) and math.isfinite(v)


def _is_int(v: object) -> bool:
    # A bool is an int to Python, but its text is true or false.
    return isinstance(v, int) and not isinstance(v, bool)


class _Kind(NamedTuple):
    """How a key's text reads, which values a config holds for the key,
    and what those values are, to complete "<key> must be ..."."""

    read: Callable[[str], object]
    admits: Callable[[object], bool]
    what: str


def _or_auto(kind: _Kind) -> _Kind:
    """``kind`` that also reads ``auto``, held as None."""
    return _Kind(
        lambda text: None if text.lower() == "auto" else kind.read(text),
        lambda v: v is None or kind.admits(v),
        f"{kind.what} or auto",
    )


_FLOAT = _Kind(_parse_float, _is_finite_float, "a finite number")
_INT = _Kind(_parse_int, _is_int, "an integer")

# The kind of each annotation text.  A config holds exactly the values its
# key's text can give, so an int is no float: the header echoes an int with
# %d and a float with %.12g, and one value must have one echo.
_KINDS: dict[str, _Kind] = {
    "float": _FLOAT,
    "float | None": _or_auto(_FLOAT),
    "int": _INT,
    "int | None": _or_auto(_INT),
    "bool": _Kind(_parse_bool, lambda v: isinstance(v, bool), "true or false"),
    "tuple[float, ...]": _Kind(
        _parse_floats,
        lambda v: isinstance(v, tuple) and all(map(_is_finite_float, v)),
        "a tuple of finite numbers",
    ),
    "str": _Kind(str, lambda v: isinstance(v, str), "a string"),
}


def _parse_value(name: str, text: str):
    """Read and check one value; raises ValueError with a message."""
    key = _KEYS[name]
    value = _KINDS[key.type].read(text)
    _check_range(key, value)
    return value


def _parse_values(text: str) -> dict[str, object]:
    """The values of the keys that flat key=value text sets.

    Unknown keys, malformed numbers, and per-key range violations are
    reported with the offending line number.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        name, _, value_text = line.partition("=")
        name = name.strip()
        value_text = value_text.strip()
        if name not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {name!r}")
        if name in values:
            raise ConfigError(f"line {lineno}: duplicate key {name!r}")
        try:
            values[name] = _parse_value(name, value_text)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return values


def parse_config(text: str) -> ExperimentConfig:
    """Validated configuration of flat key=value text (empty: the defaults)."""
    return ExperimentConfig(**_parse_values(text))


# ---------------------------------------------------------------------------
# Output formatting

def _column(values) -> tuple[str, list]:
    """The %-conversion of a column of cells and the cells as Python values.

    Floats are written to 12 significant digits, integers in full, bools
    as true/false and anything else as its str().
    """
    array = np.asarray(values)
    cells = array.tolist()
    kind = array.dtype.kind
    if kind == "f":
        return "%.12g", cells
    if kind == "b":
        return "%s", ["true" if cell else "false" for cell in cells]
    if kind in "iu":
        return "%d", cells
    return "%s", cells


def _fmt(value) -> str:
    conversion, (cell,) = _column([value])
    return conversion % cell


def _config_lines(config: ExperimentConfig) -> list[str]:
    """Header comment lines with every key explicit and resolved."""
    resolved_window = config.resolved_window()
    resolved = {
        "w_min": resolved_window[0],
        "w_max": resolved_window[1],
        "pump_duration": config.resolved_pump_duration(),
        "tau": ",".join(_fmt(m) for m in config.tau),
    }
    lines = []
    for field in fields(config):
        value = resolved.get(field.name, getattr(config, field.name))
        lines.append(f"# {field.name}={_fmt(value)}")
    return lines


class Table(NamedTuple):
    """One output CSV: its file name, its named, equally long columns
    (arrays or lists) and the header keys of this file alone."""

    name: str
    columns: dict[str, object]
    extra: tuple[tuple[str, object], ...] = ()


def _write_csv(path: Path, header: list[str], table: Table) -> int:
    """Write the run's header lines and the table's own keys, then one line
    per row of its columns, every line from one %-template; return the
    number of rows."""
    lines = [*header, *(f"# {name}={_fmt(value)}" for name, value in table.extra)]
    lines.append(",".join(table.columns))
    conversions, cells = zip(*map(_column, table.columns.values()))
    template = ",".join(conversions)
    rows = [template % row for row in zip(*cells, strict=True)]
    lines.extend(rows)
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    return len(rows)


def _parse_masks(args, n: int, *defaults: tuple[int, ...]) -> list[BooleanFunction]:
    """The masks of ``--mask``, or the bit tuples ``defaults`` without it."""
    text = getattr(args, "mask", None)
    if text is None:
        return [BooleanFunction(bits) for bits in defaults]
    masks = []
    for token in text.split(","):
        token = token.strip()
        if not token or set(token) - {"0", "1"}:
            raise ConfigError(
                f"invalid --mask: expected a string of 0s and 1s, got {token!r}"
            )
        if len(token) != n:
            raise ConfigError(
                f"invalid --mask: {token!r} has {len(token)} bits for a domain of "
                f"{n} points"
            )
        f = BooleanFunction(tuple(int(ch) for ch in token))
        if f in masks:
            raise ConfigError(f"invalid --mask: duplicate mask {token!r}")
        masks.append(f)
    return masks


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_eigen(config: ExperimentConfig, args) -> Iterator[Table]:
    """bound-level energies with closed-form deltas"""
    model = config.build()
    surfaces = (
        ("x", config.x_params(), model.x_states),
        ("b", config.b_params(), model.b_states),
    )
    for tag, params, solution in surfaces:
        energies = solution.energies
        index = np.arange(len(energies))
        analytic = morse_analytic_levels(params, config.reduced_mass, len(energies))
        yield Table(
            f"eigen_{tag}.csv",
            {
                "index": index,
                "energy_cm1": energies,
                "analytic_cm1": analytic,
                "delta_cm1": energies - analytic,
            },
        )
        if config.dump_wavefunctions:
            coefficients = {
                f"c{j}": column for j, column in enumerate(solution.wavefunctions.T)
            }
            yield Table(
                f"wavefunctions_{tag}.csv",
                {"index": index, "energy_cm1": energies, **coefficients},
            )


def _cmd_fc(config: ExperimentConfig, args) -> Iterator[Table]:
    """overlap matrix and transition table"""
    model, _ = prepare_model(config.build(), config.run_options(), config.n)
    w, v = np.indices(model.fc.shape)
    columns = {"w": w, "v": v, "fc": model.fc, "nu_cm1": model.nu}
    yield Table("fc.csv", {name: values.ravel() for name, values in columns.items()})


def _spectrum_grid(pulse: PulseSpec, key: str) -> np.ndarray:
    """Wavenumbers a pulse's spectrum is written at; ConfigError naming
    ``{key}_duration`` unless their span is finite and they strictly ascend."""
    width = 4.0 * pulse.bandwidth_fwhm
    lo = pulse.center - width
    hi = pulse.center + width
    if pulse.mask is not None:
        lo = min(lo, pulse.mask.bin_edges[0] - pulse.bandwidth_fwhm)
        hi = max(hi, pulse.mask.bin_edges[-1] + pulse.bandwidth_fwhm)
    if not np.isfinite(hi - lo):
        raise ConfigError(
            f"{key}_duration = {pulse.duration_fwhm:.4g} fs is too short: its "
            "spectrum is too wide to sample in floating point"
        )
    nu = np.linspace(lo, hi, _SPECTRUM_POINTS)
    if not (np.diff(nu) > 0.0).all():
        raise ConfigError(
            f"{key}_duration = {pulse.duration_fwhm:.4g} fs is too long: its "
            f"spectrum is too narrow to sample around {pulse.center:.4g} cm^-1"
        )
    return nu


def _spectrum(
    name: str, pulse: PulseSpec, key: str, extra: tuple[tuple[str, object], ...] = ()
) -> Table:
    """Table of a pulse's complex spectrum; ConfigError naming the pulse's
    duration and amplitude keys unless it is sampled on a finite grid and
    reaches the normal float range there."""
    nu = _spectrum_grid(pulse, key)
    amp = spectral_amplitude(pulse, nu)
    if not np.abs(amp).max() >= np.finfo(float).tiny:
        keys = f"{key}_duration = {pulse.duration_fwhm:.4g} fs"
        if f"{key}_amplitude" in _KEYS:
            keys += f" and {key}_amplitude = {pulse.amplitude:.4g}"
        raise ConfigError(
            f"{keys} leave the {key} spectrum below the float range at every "
            "sampled wavenumber"
        )
    return Table(name, {"nu_cm1": nu, "re_amp": amp.real, "im_amp": amp.imag}, extra)


def _delay_model(
    config: ExperimentConfig, key: str, multiple: float
) -> tuple[VibronicModel, float]:
    """Model of a run timed in upper-state periods, and the period tau_B;
    ConfigError unless ``multiple``, the largest delay under ``key`` the run
    uses, keeps every transition's evolution phase finite and precise."""
    model = config.build()
    tau_b = vibrational_period(model, "B", PERIOD_LEVEL)
    # The pump's lines first, as the run checks them: an offset that rounds
    # them together also leaves the phase no digit, and it is the key to name.
    checked_lines(model, config.resolved_window(), 0, "lower level 0")
    _check_phase(key, multiple, tau_b, model.nu.max())
    return model, tau_b


def _check_phase(
    key: str, multiple: float, tau_b: float, nu: float, grid: str = ""
) -> None:
    """ConfigError unless the delay ``multiple`` under ``key`` keeps
    2 pi c nu tau finite and within ``_PHASE_LIMIT``; ``grid`` names what
    set nu, when it is not a transition."""
    phase = TWO_PI_C * float(nu) * (multiple * tau_b)
    if not np.isfinite(phase):
        raise ConfigError(
            f"{key} = {multiple:g} is too large: the delay of "
            f"{multiple * tau_b:g} fs overflows the phase at {nu:.4g} cm^-1{grid}"
        )
    if abs(phase) > _PHASE_LIMIT:
        raise ConfigError(
            f"{key} = {multiple:g} is too large: the delay of {multiple * tau_b:g} fs "
            f"gives a phase of {abs(phase):.4g} rad at {nu:.4g} cm^-1{grid}, above "
            f"{_PHASE_LIMIT:.4g} rad, where a double no longer holds it to "
            f"{ORACLE_TOLERANCE:g} rad"
        )


def _cmd_pulses(config: ExperimentConfig, args) -> Iterator[Table]:
    """complex pulse spectra"""
    window = config.resolved_window()
    # The spectra carry the first delay only, so only it is checked.
    model, tau_b = _delay_model(config, "tau", config.tau[0])
    masks = _parse_masks(args, config.n, (0,) * config.n)
    delay = config.tau[0] * tau_b
    probe_level = min(max(PERIOD_LEVEL, window[0]), window[1])

    options = config.run_options()
    designs = [design_pulses(model, window, f.bits, options, delay) for f in masks]
    # The Stokes spectra are sampled beyond the transitions.
    stokes = designs[0][1]
    stokes_nu = _spectrum_grid(stokes, "stokes")
    grid = f" on the spectrum of stokes_duration = {stokes.duration_fwhm:.4g} fs"
    _check_phase("tau", config.tau[0], tau_b, np.abs(stokes_nu).max(), grid)
    probe = design_probe(model, probe_level, config.v_target, config.probe_duration)
    if config.flat:
        probe = replace(probe, flat=True)
    # Every spectrum is checked before the first file is written.
    tables = [
        _spectrum("pump.csv", designs[0][0], "pump"),
        _spectrum("probe.csv", probe, "probe", (("probe_level", probe_level),)),
    ]
    for f, (_, stokes) in zip(masks, designs):
        extra = (("mask", f.as_string), ("delay_fs", delay), ("tau_b_fs", tau_b))
        tables.append(_spectrum(f"stokes_{f.as_string}.csv", stokes, "stokes", extra))
    yield from tables


def _cmd_sweep(config: ExperimentConfig, args) -> Iterator[Table]:
    """signal-versus-delay traces"""
    model, tau_b = _delay_model(
        config, "sweep_max_multiple", config.sweep_max_multiple
    )
    options = config.run_options()
    alternating = tuple(k % 2 for k in range(config.n))
    masks = _parse_masks(args, config.n, (0,) * config.n, alternating)
    multiples = np.linspace(0.0, config.sweep_max_multiple, config.sweep_points)
    for f in masks:
        trace = sweep_delay(model, f, multiples, options)
        yield Table(
            f"sweep_{f.as_string}.csv",
            {"tau_fs": trace[:, 0], "tau_multiple": multiples, "A": trace[:, 1]},
            (("mask", f.as_string), ("class", f.classification), ("tau_b_fs", tau_b)),
        )


def _cmd_table1(config: ExperimentConfig, args) -> Iterator[Table]:
    """correlation/distinguishability grid"""
    if config.tailored:
        raise ConfigError(
            "tailored = true does not apply to table1: every row sets its own "
            "tailored (n = 8 runs both), so it would change only the header"
        )
    sizes = sorted({n for n, _ in TABLE_ROWS})
    if config.n not in sizes:
        raise ConfigError(
            f"n = {config.n} does not apply to table1: its rows run n = "
            f"{', '.join(map(str, sizes))}, so it would change only the header"
        )
    model, _ = _delay_model(config, "tau", max(config.tau))
    table = fidelity_table(model, config.tau, config.run_options())
    metrics = ("n", "tau_multiple", "tailored", "r", "d", "r_pct", "d_pct")
    yield Table(
        "metrics.csv", {name: [getattr(m, name) for m in table] for name in metrics}
    )
    for (n, tailored), cells in groupby(table, lambda m: (m.n, m.tailored)):
        outcomes = [m.outcomes for m in cells]
        # Per-function labels as BooleanFunction gives them: bits least
        # significant first, and the class from S_N.
        s_n = outcomes[0].s_n
        labels = {
            "mask_index": np.arange(2**n),
            "bits": [format(i, f"0{n}b")[::-1] for i in range(2**n)],
            "class": np.where(
                np.abs(s_n) == n, "constant", np.where(s_n == 0, "balanced", "other")
            ),
            "s_n": s_n,
        }
        yield Table(
            f"outcomes_n{n}t.csv" if tailored else f"outcomes_n{n}.csv",
            {
                **{key: np.tile(col, len(outcomes)) for key, col in labels.items()},
                "tau_fs": np.repeat([o.tau_fs for o in outcomes], 2**n),
                "tau_multiple": np.repeat([o.tau_multiple for o in outcomes], 2**n),
                "A": np.concatenate([o.signals for o in outcomes]),
            },
            (("row_n", n), ("row_tailored", tailored)),
        )
    print("n   tailored  tau   r%   D%")
    for m in table:
        print(
            f"{m.n}   {_fmt(m.tailored):5s}     {_fmt(m.tau_multiple):4s} "
            f"{m.r_pct:3d}  {m.d_pct:3d}"
        )


def _cmd_oracle_check(config: ExperimentConfig, args) -> Iterator[Table]:
    """frequency- vs time-domain agreement"""
    model = config.build()
    rng = np.random.default_rng(config.oracle_seed)
    configs = random_oracle_configs(rng, model, config.oracle_configs)
    rows = []
    worst = 0.0
    for index, (window, v_target, pump, stokes) in enumerate(configs):
        first = prepare_first_order(model, pump, window)
        a = apply_stokes(model, first, stokes)
        freq_signal = signal_magnitude(a, v_target)
        time_signal = time_domain_oracle(model, pump, stokes, v_target, window)
        rel_dev = abs(freq_signal - time_signal) / max(time_signal, 1e-300)
        worst = max(worst, rel_dev)
        rows.append(
            (index, *window, v_target, pump.duration_fwhm, stokes.duration_fwhm,
             pump.amplitude, stokes.amplitude, pump.delay, stokes.delay,
             freq_signal, time_signal, rel_dev)
        )
    names = (
        "config_index", "w_lo", "w_hi", "v_target", "pump_fwhm_fs", "stokes_fwhm_fs",
        "pump_amplitude", "stokes_amplitude", "pump_delay_fs", "tau_fs",
        "freq_signal", "time_signal", "rel_dev",
    )
    yield Table("oracle_check.csv", dict(zip(names, zip(*rows))))
    print(
        f"max relative deviation = {worst:.3e} over {config.oracle_configs} "
        f"configurations (threshold {ORACLE_TOLERANCE:.0e})"
    )
    if worst > ORACLE_TOLERANCE:
        raise RuntimeError(
            f"frequency/time-domain mismatch: {worst:.3e} exceeds "
            f"{ORACLE_TOLERANCE:.0e}"
        )


_COMMANDS = {
    "eigen": _cmd_eigen,
    "fc": _cmd_fc,
    "pulses": _cmd_pulses,
    "sweep": _cmd_sweep,
    "table1": _cmd_table1,
    "oracle-check": _cmd_oracle_check,
}


# ---------------------------------------------------------------------------
# Entry point

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit(2); remap flag problems to the validation code.
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="carsdj", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", metavar="PATH", help="key=value configuration file"
    )
    common.add_argument(
        "--out", metavar="DIR", help="output directory (default 'out')"
    )
    common.add_argument(
        "--n", metavar="N", help="domain size override (even, 2-16)"
    )
    common.add_argument(
        "--tau",
        metavar="LIST",
        help="comma-separated delay multiples of the upper-state period",
    )
    common.add_argument(
        "--tailored",
        action="store_true",
        help="equalize channel overlaps inside the window",
    )
    subparsers = parser.add_subparsers(
        dest="command", required=True, metavar="subcommand"
    )
    for name, command in _COMMANDS.items():
        # Each subcommand's help line is its function's docstring.
        sub = subparsers.add_parser(name, parents=[common], help=command.__doc__)
        if name in ("pulses", "sweep"):
            sub.add_argument(
                "--mask",
                metavar="BITS",
                help="comma-separated bit masks, e.g. 0000,0101",
            )
    return parser


def _load_config(args) -> ExperimentConfig:
    text = ""
    if args.config is not None:
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}")
    # A flag replaces its key before the cross-key checks see either.
    values = _parse_values(text)
    for flag, name in (("n", "n"), ("tau", "tau"), ("out", "out_dir")):
        text = getattr(args, flag)
        if text is not None:
            try:
                values[name] = _parse_value(name, text)
            except ValueError as exc:
                raise ConfigError(f"invalid --{flag}: {exc}") from None
    if args.tailored:
        values["tailored"] = True
    return ExperimentConfig(**values)


@contextmanager
def _writing_out_dir(out_dir: str) -> Iterator[None]:
    """ConfigError naming ``out_dir`` for an OSError raised inside."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write to out_dir {out_dir!r}: {exc}") from None


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args)
        out = Path(config.out_dir)
        header = [f"# command={args.command}", *_config_lines(config)]
        with _writing_out_dir(config.out_dir):
            out.mkdir(parents=True, exist_ok=True)
        for table in _COMMANDS[args.command](config, args):
            path = out / table.name
            for name, values in table.columns.items():
                cells = np.asarray(values)
                if cells.dtype.kind == "f" and not np.isfinite(cells).all():
                    raise RuntimeError(
                        f"column {name!r} of {path} holds a non-finite cell; "
                        "the file is not written"
                    )
            with _writing_out_dir(config.out_dir):
                rows = _write_csv(path, header, table)
            print(f"wrote {path} ({rows} rows)")
        sys.stdout.flush()
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Every file write is mapped to out_dir above; this is stdout.
        print(f"error: cannot write to stdout: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
