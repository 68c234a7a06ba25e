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
Every output CSV begins with comment lines echoing the fully resolved
configuration, so identical inputs produce byte-identical files.  Exit
codes: 0 success, 1 invalid configuration, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable

import numpy as np

from .algorithm import (
    DEFAULT_PUMP_DURATION,
    DEFAULT_STOKES_DURATION,
    DEFAULT_TAILORED_PUMP_DURATION,
    DEFAULT_WINDOWS,
    PERIOD_LEVEL,
    TABLE_ROWS,
    BooleanFunction,
    RunOptions,
    sweep_delay,
    table_metrics,
    table_outcomes,
)
from .dvr import Grid
from .dynamics import (
    apply_stokes,
    prepare_first_order,
    signal_magnitude,
    time_domain_oracle,
)
from .molecule import (
    DEFAULT_N_B,
    DEFAULT_N_X,
    IODINE_REDUCED_MASS,
    VibronicModel,
    build_model,
    transition_wavenumber,
    vibrational_period,
    with_equalized_fc,
)
from .morse import MorseParams, morse_analytic_levels
from .pulses import (
    PulseSpec,
    design_probe,
    design_pump,
    design_stokes,
    spectral_amplitude,
)

# Largest admissible frequency/time-domain disagreement for oracle-check.
ORACLE_TOLERANCE = 1e-6

_SPECTRUM_POINTS = 2001


class ConfigError(ValueError):
    """Invalid configuration text, flag value, or key combination."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description.

    Field order is the canonical key order of the config format and of
    the header echoed into every output file.  ``w_min``/``w_max`` and
    ``pump_duration`` accept the literal value ``auto`` (stored as
    None), which resolves to the standard window for the domain size
    and to the calibrated pump duration for the mode.
    """

    x_d_e: float = 12550.0
    x_r_e: float = 2.666
    x_beta: float = 1.858
    b_d_e: float = 4500.0
    b_r_e: float = 3.016
    b_beta: float = 1.850
    b_t_e: float = 15647.0
    reduced_mass: float = IODINE_REDUCED_MASS
    r_min: float = 2.0
    r_max: float = 6.5
    n_points: int = 512
    n_x_states: int = DEFAULT_N_X
    n_b_states: int = DEFAULT_N_B
    n: int = 4
    v_target: int = 4
    w_min: int | None = None
    w_max: int | None = None
    tau: tuple[float, ...] = (0.0, 1.0, 2.0)
    tailored: bool = False
    flat: bool = False
    pump_duration: float | None = None
    stokes_duration: float = DEFAULT_STOKES_DURATION
    probe_duration: float = 1000.0
    pump_amplitude: float = 1.0
    stokes_amplitude: float = 1.0
    sweep_max_multiple: float = 2.5
    sweep_points: int = 501
    oracle_configs: int = 20
    oracle_seed: int = 20260817
    dump_wavefunctions: bool = False
    out_dir: str = "out"

    def x_params(self) -> MorseParams:
        return MorseParams(d_e=self.x_d_e, r_e=self.x_r_e, beta=self.x_beta)

    def b_params(self) -> MorseParams:
        return MorseParams(
            d_e=self.b_d_e, r_e=self.b_r_e, beta=self.b_beta, t_e=self.b_t_e
        )

    def grid(self) -> Grid:
        return Grid(r_min=self.r_min, r_max=self.r_max, n_points=self.n_points)

    def resolved_window(self) -> tuple[int, int]:
        if self.w_min is not None and self.w_max is not None:
            return (self.w_min, self.w_max)
        return DEFAULT_WINDOWS[self.n]

    def resolved_pump_duration(self) -> float:
        if self.pump_duration is not None:
            return self.pump_duration
        if self.tailored:
            return DEFAULT_TAILORED_PUMP_DURATION
        return DEFAULT_PUMP_DURATION

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
        return build_model(
            x_params=self.x_params(),
            b_params=self.b_params(),
            reduced_mass=self.reduced_mass,
            grid=self.grid(),
            n_x=self.n_x_states,
            n_b=self.n_b_states,
        )

    def prepared_model(self) -> VibronicModel:
        """Model with the tailored equalization applied when requested."""
        model = self.build()
        if self.tailored:
            model = with_equalized_fc(model, self.resolved_window(), self.v_target)
        return model


# ---------------------------------------------------------------------------
# Config parsing

def _positive(name: str) -> Callable[[float], str | None]:
    return lambda v: None if v > 0 else f"{name} must be positive"


def _nonnegative(name: str) -> Callable[[float], str | None]:
    return lambda v: None if v >= 0 else f"{name} must be nonnegative"


def _at_least(name: str, bound: int) -> Callable[[int], str | None]:
    return lambda v: None if v >= bound else f"{name} must be at least {bound}"


def _check_n(v: int) -> str | None:
    if v < 2 or v > 16:
        return f"n must be between 2 and 16, got {v}"
    if v % 2 != 0:
        return f"n must be even (balanced functions need equal halves), got {v}"
    return None


def _check_tau(values: tuple[float, ...]) -> str | None:
    if not values:
        return "tau needs at least one delay multiple"
    for v in values:
        if v < 0:
            return f"delay multiples must be nonnegative, got {v:g}"
    return None


def _check_out_dir(v: str) -> str | None:
    return None if v else "out_dir must not be empty"


@dataclass(frozen=True)
class _Key:
    name: str
    kind: str  # float | int | bool | floats | str | auto_float | auto_int
    check: Callable | None = None


_KEYS: tuple[_Key, ...] = (
    _Key("x_d_e", "float", _positive("x_d_e")),
    _Key("x_r_e", "float", _positive("x_r_e")),
    _Key("x_beta", "float", _positive("x_beta")),
    _Key("b_d_e", "float", _positive("b_d_e")),
    _Key("b_r_e", "float", _positive("b_r_e")),
    _Key("b_beta", "float", _positive("b_beta")),
    _Key("b_t_e", "float", _nonnegative("b_t_e")),
    _Key("reduced_mass", "float", _positive("reduced_mass")),
    _Key("r_min", "float", _positive("r_min")),
    _Key("r_max", "float", _positive("r_max")),
    _Key("n_points", "int", _at_least("n_points", 16)),
    _Key("n_x_states", "int", _at_least("n_x_states", 1)),
    _Key("n_b_states", "int", _at_least("n_b_states", 1)),
    _Key("n", "int", _check_n),
    _Key("v_target", "int", _nonnegative("v_target")),
    _Key("w_min", "auto_int", _nonnegative("w_min")),
    _Key("w_max", "auto_int", _nonnegative("w_max")),
    _Key("tau", "floats", _check_tau),
    _Key("tailored", "bool"),
    _Key("flat", "bool"),
    _Key("pump_duration", "auto_float", _positive("pump_duration")),
    _Key("stokes_duration", "float", _positive("stokes_duration")),
    _Key("probe_duration", "float", _positive("probe_duration")),
    _Key("pump_amplitude", "float", _positive("pump_amplitude")),
    _Key("stokes_amplitude", "float", _positive("stokes_amplitude")),
    _Key("sweep_max_multiple", "float", _positive("sweep_max_multiple")),
    _Key("sweep_points", "int", _at_least("sweep_points", 2)),
    _Key("oracle_configs", "int", _at_least("oracle_configs", 1)),
    _Key("oracle_seed", "int", _nonnegative("oracle_seed")),
    _Key("dump_wavefunctions", "bool"),
    _Key("out_dir", "str", _check_out_dir),
)

_KEY_BY_NAME = {key.name: key for key in _KEYS}


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


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


def _parse_value(key: _Key, text: str):
    """Convert and range-check one value; raises ValueError with a message."""
    if key.kind in ("auto_float", "auto_int") and text.lower() == "auto":
        return None
    if key.kind in ("float", "auto_float"):
        value = _parse_float(text)
    elif key.kind in ("int", "auto_int"):
        value = _parse_int(text)
    elif key.kind == "bool":
        value = _parse_bool(text)
    elif key.kind == "floats":
        parts = [part.strip() for part in text.split(",")]
        if parts == [""]:
            parts = []
        value = tuple(_parse_float(part) for part in parts)
    else:
        value = text
    if key.check is not None:
        problem = key.check(value)
        if problem is not None:
            raise ValueError(problem)
    return value


def _validate_cross(config: ExperimentConfig) -> None:
    """Checks spanning several keys; raises ConfigError on the first failure."""
    if config.r_min >= config.r_max:
        raise ConfigError(
            f"r_min ({config.r_min:g}) must be below r_max ({config.r_max:g})"
        )
    if (config.w_min is None) != (config.w_max is None):
        raise ConfigError("w_min and w_max must be set together")
    if config.w_min is not None and config.w_max is not None:
        if config.w_max < config.w_min:
            raise ConfigError(
                f"w_max ({config.w_max}) must be at least w_min ({config.w_min})"
            )
        span = config.w_max - config.w_min + 1
        if span != config.n:
            raise ConfigError(
                f"window [{config.w_min}, {config.w_max}] holds {span} levels "
                f"for a domain of {config.n} points"
            )
        if config.w_max >= config.n_b_states:
            raise ConfigError(
                f"w_max ({config.w_max}) is not among the "
                f"{config.n_b_states} retained upper levels"
            )
    elif config.n not in DEFAULT_WINDOWS:
        raise ConfigError(f"no default window for n={config.n}; set w_min and w_max")
    if config.v_target >= config.n_x_states:
        raise ConfigError(
            f"v_target ({config.v_target}) is not among the "
            f"{config.n_x_states} retained lower levels"
        )


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key=value text into a validated configuration.

    Unknown keys, malformed numbers, and per-key range violations are
    reported with the offending line number.  Empty input yields the
    full default setup.
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
        if name not in _KEY_BY_NAME:
            raise ConfigError(f"line {lineno}: unknown key {name!r}")
        if name in values:
            raise ConfigError(f"line {lineno}: duplicate key {name!r}")
        try:
            values[name] = _parse_value(_KEY_BY_NAME[name], value_text)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    config = replace(ExperimentConfig(), **values)
    _validate_cross(config)
    return config


# ---------------------------------------------------------------------------
# Output formatting

def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


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


def _write_csv(
    path: Path,
    config: ExperimentConfig,
    command: str,
    columns: tuple[str, ...],
    rows: list[tuple],
    extra: tuple[tuple[str, object], ...] = (),
) -> None:
    lines = [f"# command={command}"]
    lines.extend(_config_lines(config))
    for name, value in extra:
        lines.append(f"# {name}={_fmt(value)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(cell) for cell in row))
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(rows)} rows)")


def _parse_masks(text: str | None, n: int) -> list[BooleanFunction]:
    if text is None:
        return []
    masks = []
    for token in text.split(","):
        token = token.strip()
        if not token or set(token) - {"0", "1"}:
            raise ConfigError(f"mask must be a string of 0s and 1s, got {token!r}")
        if len(token) != n:
            raise ConfigError(
                f"mask {token!r} has {len(token)} bits for a domain of {n} points"
            )
        masks.append(BooleanFunction(tuple(int(ch) for ch in token)))
    return masks


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_eigen(config: ExperimentConfig, out: Path, args) -> None:
    model = config.build()
    surfaces = (
        ("x", config.x_params(), model.x_states),
        ("b", config.b_params(), model.b_states),
    )
    for tag, params, solution in surfaces:
        count = len(solution.energies)
        analytic = morse_analytic_levels(params, config.reduced_mass, count)
        rows = [
            (
                i,
                solution.energies[i],
                analytic[i],
                solution.energies[i] - analytic[i],
            )
            for i in range(count)
        ]
        _write_csv(
            out / f"eigen_{tag}.csv",
            config,
            "eigen",
            ("index", "energy_cm1", "analytic_cm1", "delta_cm1"),
            rows,
        )
        if config.dump_wavefunctions:
            n_grid = solution.wavefunctions.shape[1]
            columns = ("index", "energy_cm1") + tuple(
                f"c{j}" for j in range(n_grid)
            )
            wf_rows = [
                (i, solution.energies[i], *solution.wavefunctions[i])
                for i in range(count)
            ]
            _write_csv(
                out / f"wavefunctions_{tag}.csv", config, "eigen", columns, wf_rows
            )


def _cmd_fc(config: ExperimentConfig, out: Path, args) -> None:
    model = config.prepared_model()
    rows = [
        (w, v, model.fc[w, v], transition_wavenumber(model, w, v))
        for w in range(model.n_b)
        for v in range(model.n_x)
    ]
    _write_csv(out / "fc.csv", config, "fc", ("w", "v", "fc", "nu_cm1"), rows)


def _spectrum_grid(pulse: PulseSpec) -> np.ndarray:
    width = 4.0 * pulse.bandwidth_fwhm
    lo = pulse.center - width
    hi = pulse.center + width
    if pulse.mask is not None:
        lo = min(lo, pulse.mask.bin_edges[0] - pulse.bandwidth_fwhm)
        hi = max(hi, pulse.mask.bin_edges[-1] + pulse.bandwidth_fwhm)
    return np.linspace(lo, hi, _SPECTRUM_POINTS)


def _dump_spectrum(
    path: Path,
    config: ExperimentConfig,
    pulse: PulseSpec,
    extra: tuple[tuple[str, object], ...] = (),
) -> None:
    nu = _spectrum_grid(pulse)
    amp = spectral_amplitude(pulse, nu)
    rows = [(nu[i], amp[i].real, amp[i].imag) for i in range(len(nu))]
    _write_csv(path, config, "pulses", ("nu_cm1", "re_amp", "im_amp"), rows, extra)


def _cmd_pulses(config: ExperimentConfig, out: Path, args) -> None:
    model = config.build()
    window = config.resolved_window()
    masks = _parse_masks(getattr(args, "mask", None), config.n)
    if not masks:
        masks = [BooleanFunction((0,) * config.n)]
    tau_b = vibrational_period(model, "B", PERIOD_LEVEL)
    delay = config.tau[0] * tau_b
    probe_level = min(max(PERIOD_LEVEL, window[0]), window[1])

    pump = design_pump(
        model,
        window,
        duration_fwhm=config.resolved_pump_duration(),
        amplitude=config.pump_amplitude,
    )
    probe = design_probe(
        model,
        w_level=probe_level,
        v_target=config.v_target,
        duration_fwhm=config.probe_duration,
    )
    if config.flat:
        pump = replace(pump, flat=True)
        probe = replace(probe, flat=True)
    _dump_spectrum(out / "pump.csv", config, pump)
    _dump_spectrum(
        out / "probe.csv", config, probe, (("probe_level", probe_level),)
    )
    for f in masks:
        stokes = design_stokes(
            model,
            config.v_target,
            window,
            f.bits,
            duration_fwhm=config.stokes_duration,
            amplitude=config.stokes_amplitude,
            delay=delay,
        )
        if config.flat:
            stokes = replace(stokes, flat=True)
        _dump_spectrum(
            out / f"stokes_{f.as_string}.csv",
            config,
            stokes,
            (("mask", f.as_string), ("delay_fs", delay), ("tau_b_fs", tau_b)),
        )


def _cmd_sweep(config: ExperimentConfig, out: Path, args) -> None:
    model = config.build()
    options = config.run_options()
    masks = _parse_masks(getattr(args, "mask", None), config.n)
    if not masks:
        constant = BooleanFunction((0,) * config.n)
        alternating = BooleanFunction(tuple(k % 2 for k in range(config.n)))
        masks = [constant, alternating]
    tau_b = vibrational_period(model, "B", PERIOD_LEVEL)
    multiples = np.linspace(0.0, config.sweep_max_multiple, config.sweep_points)
    for f in masks:
        trace = sweep_delay(model, f, multiples, options)
        rows = [
            (trace[i, 0], multiples[i], trace[i, 1]) for i in range(len(multiples))
        ]
        _write_csv(
            out / f"sweep_{f.as_string}.csv",
            config,
            "sweep",
            ("tau_fs", "tau_multiple", "A"),
            rows,
            (("mask", f.as_string), ("class", f.classification), ("tau_b_fs", tau_b)),
        )


def _cmd_table1(config: ExperimentConfig, out: Path, args) -> None:
    model = config.build()
    table = table_outcomes(model, tuple(config.tau), TABLE_ROWS, config.run_options())
    metrics = table_metrics(table)
    metric_rows = [
        (m.n, m.tau_multiple, m.tailored, m.r, m.d, m.r_pct, m.d_pct)
        for m in metrics
    ]
    _write_csv(
        out / "metrics.csv",
        config,
        "table1",
        ("n", "tau_multiple", "tailored", "r", "d", "r_pct", "d_pct"),
        metric_rows,
    )
    for (n, tailored), cells in table:
        rows = [
            (
                o.function.index,
                o.function.as_string,
                o.function.classification,
                o.s_n,
                o.tau_fs,
                o.tau_multiple,
                o.signal,
            )
            for outcomes in cells
            for o in outcomes
        ]
        name = f"outcomes_n{n}t.csv" if tailored else f"outcomes_n{n}.csv"
        _write_csv(
            out / name,
            config,
            "table1",
            ("mask_index", "bits", "class", "s_n", "tau_fs", "tau_multiple", "A"),
            rows,
            (("row_n", n), ("row_tailored", tailored)),
        )
    print("n   tailored  tau   r%   D%")
    for m in metrics:
        print(
            f"{m.n}   {_fmt(m.tailored):5s}     {_fmt(m.tau_multiple):4s} "
            f"{m.r_pct:3d}  {m.d_pct:3d}"
        )


def _cmd_oracle_check(config: ExperimentConfig, out: Path, args) -> None:
    model = config.build()
    if model.n_b < 31 or model.n_x < 8:
        raise ConfigError(
            "oracle-check samples windows over upper levels 16-30 and "
            "targets up to 6; retain at least 31 upper and 8 lower levels"
        )
    rng = np.random.default_rng(config.oracle_seed)
    rows = []
    worst = 0.0
    for index in range(config.oracle_configs):
        w_lo = int(rng.integers(16, 26))
        w_hi = w_lo + int(rng.integers(1, 6))
        v_target = int(rng.integers(1, 7))
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
        )
        tau = float(rng.uniform(0.0, 900.0))
        first = prepare_first_order(model, pump, (w_lo, w_hi))
        second = apply_stokes(model, first, stokes, tau)
        freq_signal = signal_magnitude(second, v_target)
        time_signal = time_domain_oracle(
            model, pump, stokes, tau, v_target, (w_lo, w_hi)
        )
        rel_dev = abs(freq_signal - time_signal) / max(time_signal, 1e-300)
        worst = max(worst, rel_dev)
        rows.append(
            (
                index,
                w_lo,
                w_hi,
                v_target,
                pump.duration_fwhm,
                stokes.duration_fwhm,
                pump.amplitude,
                stokes.amplitude,
                pump.delay,
                tau,
                freq_signal,
                time_signal,
                rel_dev,
            )
        )
    _write_csv(
        out / "oracle_check.csv",
        config,
        "oracle-check",
        (
            "config_index",
            "w_lo",
            "w_hi",
            "v_target",
            "pump_fwhm_fs",
            "stokes_fwhm_fs",
            "pump_amplitude",
            "stokes_amplitude",
            "pump_delay_fs",
            "tau_fs",
            "freq_signal",
            "time_signal",
            "rel_dev",
        ),
        rows,
    )
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
        "--n", type=int, metavar="N", help="domain size override (even, 2-16)"
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
    descriptions = {
        "eigen": "bound-level energies with closed-form deltas",
        "fc": "overlap matrix and transition table",
        "pulses": "complex pulse spectra",
        "sweep": "signal-versus-delay traces",
        "table1": "correlation/distinguishability grid",
        "oracle-check": "frequency- vs time-domain agreement",
    }
    for name, description in descriptions.items():
        sub = subparsers.add_parser(name, parents=[common], help=description)
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
            text = Path(args.config).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}")
    config = parse_config(text)
    overrides: dict[str, object] = {}
    if args.n is not None:
        problem = _check_n(args.n)
        if problem is not None:
            raise ConfigError(f"invalid --n: {problem}")
        overrides["n"] = args.n
    if args.tau is not None:
        try:
            overrides["tau"] = _parse_value(_KEY_BY_NAME["tau"], args.tau)
        except ValueError as exc:
            raise ConfigError(f"invalid --tau: {exc}") from None
    if args.tailored:
        overrides["tailored"] = True
    if args.out is not None:
        overrides["out_dir"] = args.out
    if overrides:
        config = replace(config, **overrides)
    _validate_cross(config)
    return config


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args)
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](config, out, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
