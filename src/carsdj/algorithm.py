"""Single-query Boolean function classification on Raman interference.

A Boolean function f on N points is encoded as +/-1 signs across the N
Stokes mask bins; the measured channel amplitude is then proportional to
|sum_k (-1)^f(k) z_k| for channel weights z_k, which for uniform weights
equals |S_N(f)| = |sum_k (-1)^f(k)|.  Constant functions give |S_N| = N,
balanced functions give 0, so one amplitude measurement classifies f.
Two figures of merit quantify how well the physical weights approximate
that ideal: a distinguishability D (worst balanced signal against the
constant signal) and the Pearson correlation r between measured amplitudes
and |S_N| over all 2^N functions.

Channel-weight identity.  Each mask bin sits on one transition
nu(w_k, v_target), so the mask only multiplies the k-th term of the
second-order sum by (-1)^f(k):

    a(f, tau) = sum_k (-1)^f(k) z_k(tau),
    z_k(tau) = fc[w_k, v_t] conj(A_S0(nu(w_k, v_t))) c_{w_k}
               exp(-i 2 pi c nu(w_k, 0) tau),

with A_S0 the unmasked Stokes spectrum.  The weights z_k do not depend
on f, so ``channel_weights`` designs the pulses once per (model, n,
options), keeping every factor but the delay phase, and
``all_outcomes``/``sweep_delay`` only form signed sums.  The Stokes
factor fc conj(A_S0) is the column v_t of ``dynamics.stokes_legs``,
the very legs ``apply_stokes`` sums over.  The sums run sequentially in
window order, as the second-order transfer does, and a +/-1 sign flips
a term exactly, so every signal is bit-identical to ``run_instance``,
which composes the full pipeline for one function and is the oracle the
tests check the kernel against.  Only the functions with f(n - 1) = 0
are summed: a complement gives the same signal, bit for bit, so the
other half is mirrored.  ``run_instance`` and ``enumerate_functions``
are not exported at the package root.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, replace
from functools import lru_cache
from numbers import Real
from typing import NamedTuple

import numpy as np

from .dynamics import (
    apply_stokes,
    evolution_phase,
    prepare_first_order,
    signal_magnitude,
    stokes_legs,
)
from .molecule import VibronicModel, _is_level, vibrational_period, with_equalized_fc
from .pulses import PulseSpec, design_pump, design_stokes

# Upper level whose local spacing defines the reference period tau_B.
PERIOD_LEVEL = 22

_MAX_ENUMERATION_N = 16

# Smallest normal float: a weight below it carries a few bits at most.
_TINY = np.finfo(float).tiny

# Standard window of every even domain size: n levels centred on
# PERIOD_LEVEL, which sits at offset n // 2.
DEFAULT_WINDOWS: dict[int, tuple[int, int]] = {
    n: (PERIOD_LEVEL - n // 2, PERIOD_LEVEL + n // 2 - 1)
    for n in range(2, _MAX_ENUMERATION_N + 1, 2)
}

# Benchmark pulse durations (intensity FWHM, fs).  The published pulse
# widths leave the Gaussian width convention open; 30 fs reproduces the
# reported fidelity landscape across window sizes and is the calibrated
# default here.  Tailored runs broaden the pump so its spectrum is flat
# across the widest window.
DEFAULT_PUMP_DURATION = 30.0
DEFAULT_TAILORED_PUMP_DURATION = 10.0
DEFAULT_STOKES_DURATION = 30.0


@dataclass(frozen=True)
class BooleanFunction:
    """Boolean function given by its value table.

    ``bits[k]`` is f at the k-th domain point; domain points map onto
    window levels in ascending order.
    """

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) < 1:
            raise ValueError("need at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError(f"bits must be 0 or 1, got {self.bits}")

    @property
    def n(self) -> int:
        return len(self.bits)

    @property
    def classification(self) -> str:
        ones = sum(self.bits)
        if ones in (0, self.n):
            return "constant"
        if 2 * ones == self.n:
            return "balanced"
        return "other"

    @property
    def index(self) -> int:
        """Enumeration index: bit k of the integer is bits[k]."""
        return sum(b << k for k, b in enumerate(self.bits))

    @property
    def as_string(self) -> str:
        return "".join(str(b) for b in self.bits)


def s_n(f: BooleanFunction) -> int:
    """Signed sum sum_k (-1)^f(k); N for constant-0, -N for constant-1."""
    return f.n - 2 * sum(f.bits)


def enumerate_functions(n: int) -> list[BooleanFunction]:
    """All 2^n Boolean functions on n points, ascending by index; a test
    oracle, kept here unexported only because the benchmark trace names it."""
    if not (1 <= n <= _MAX_ENUMERATION_N):
        raise ValueError(
            f"domain size must be in [1, {_MAX_ENUMERATION_N}], got {n}"
        )
    return [BooleanFunction(tuple((i >> k) & 1 for k in range(n))) for i in range(2**n)]


class _Selection(NamedTuple):
    """What is read of the functions on n points beyond their signals;
    the constant functions are always columns 0 and 2^n - 1."""

    s_n: np.ndarray
    balanced: np.ndarray
    centred_ideal: np.ndarray
    degenerate: bool


@lru_cache(maxsize=_MAX_ENUMERATION_N)
def _selection(n: int) -> _Selection:
    """Read-only S_N of every function on n points, in enumeration order,
    the indices of the balanced functions, and |S_N| minus its mean, as
    ``np.corrcoef`` centres it; degenerate when |S_N| has no spread (n = 1).

    S_N is built by the same doubling as the signals: function i + 2^k
    differs from function i < 2^k only in bit k, so each step appends
    s - 1 to s + 1.
    """
    s = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        s = np.concatenate([s + 1, s - 1])
    ideal = np.abs(s).astype(float)
    balanced = np.flatnonzero(s == 0)
    centred = ideal - ideal.mean()
    for array in (s, balanced, centred):
        array.flags.writeable = False
    return _Selection(s, balanced, centred, bool(np.ptp(ideal) == 0.0))


@dataclass(frozen=True)
class RunOptions:
    """Knobs for one classification run.

    ``pump_duration`` of None resolves to the calibrated defaults: a
    broadened pump in tailored mode, the standard benchmark duration
    otherwise.  ``tailored`` additionally equalises the channel overlaps
    inside the window.  ``flat_envelopes`` replaces both spectral
    envelopes by 1 (the idealised limit in which the classification
    becomes exact).
    """

    w_window: tuple[int, int] | None = None
    v_target: int = 4
    pump_duration: float | None = None
    stokes_duration: float = DEFAULT_STOKES_DURATION
    pump_amplitude: float = 1.0
    stokes_amplitude: float = 1.0
    tailored: bool = False
    flat_envelopes: bool = False

    def __post_init__(self) -> None:
        # A tuple keeps the options hashable, so they can key a cache.
        if self.w_window is not None:
            object.__setattr__(self, "w_window", tuple(self.w_window))
            if len(self.w_window) != 2 or not all(map(_is_level, self.w_window)):
                raise ValueError(
                    f"w_window must be two integer levels, got {self.w_window!r}"
                )
        if not _is_level(self.v_target):
            raise ValueError(
                f"v_target must be an integer level, got {self.v_target!r}"
            )
        # An infinite or nan amplitude turns the weights into nan, with a
        # warning, and such a duration makes no pulse; None is the auto pump
        # duration.
        numbers = ("stokes_duration", "pump_amplitude", "stokes_amplitude")
        if self.pump_duration is not None:
            numbers = ("pump_duration", *numbers)
        for name in numbers:
            value = getattr(self, name)
            if not (isinstance(value, Real) and 0.0 < value < math.inf):
                raise ValueError(
                    f"{name} must be a positive finite number, got {value!r}"
                )

    def resolved_window(self, n: int) -> tuple[int, int]:
        """The window of a run on n points; ValueError unless n is a domain
        size a run enumerates and the window holds n levels."""
        # A Stokes mask needs two lines to set its bin edges between.
        if not (_is_level(n) and 2 <= n <= _MAX_ENUMERATION_N):
            raise ValueError(
                f"domain size n must be an integer in [2, {_MAX_ENUMERATION_N}], "
                f"got {n!r}"
            )
        if self.w_window is None:
            if n not in DEFAULT_WINDOWS:
                raise ValueError(
                    f"no default window for domain size {n}; pass w_window"
                )
            return DEFAULT_WINDOWS[n]
        w_lo, w_hi = self.w_window
        if w_hi - w_lo + 1 != n:
            raise ValueError(
                f"window [{w_lo}, {w_hi}] holds {w_hi - w_lo + 1} levels "
                f"for a domain of {n} points"
            )
        return self.w_window

    def resolved_pump_duration(self) -> float:
        if self.pump_duration is not None:
            return self.pump_duration
        if self.tailored:
            return DEFAULT_TAILORED_PUMP_DURATION
        return DEFAULT_PUMP_DURATION


@dataclass(frozen=True, eq=False)
class Outcomes:
    """Every function on n points evaluated at one delay.

    ``signals[i]`` belongs to function i of ``enumerate_functions(n)``.
    Equality is identity: the fields hold an array.
    """

    n: int
    tau_fs: float
    tau_multiple: float
    signals: np.ndarray

    def __post_init__(self) -> None:
        if np.shape(self.signals) != (2**self.n,):
            raise ValueError(
                f"need 2^{self.n} signals, got shape {np.shape(self.signals)}"
            )

    @property
    def s_n(self) -> np.ndarray:
        """Signed sum S_N of every function, in enumeration order; one
        read-only table per n."""
        return _selection(self.n).s_n


@dataclass(frozen=True, eq=False)
class FidelityMetrics:
    """Correlation and distinguishability of one benchmark table cell.

    ``outcomes`` holds every signal the metrics are computed from; the
    cell's n and delay are read from it.  Equality is identity: the
    outcomes hold an array.
    """

    tailored: bool
    outcomes: Outcomes
    r: float
    d: float

    @property
    def n(self) -> int:
        return self.outcomes.n

    @property
    def tau_multiple(self) -> float:
        return self.outcomes.tau_multiple

    @property
    def r_pct(self) -> int:
        return int(round(100.0 * self.r))

    @property
    def d_pct(self) -> int:
        return int(round(100.0 * self.d))


def prepare_model(
    model: VibronicModel, options: RunOptions, n: int
) -> tuple[VibronicModel, tuple[int, int]]:
    """The model a run on n points uses, tailored when requested, and its window."""
    window = options.resolved_window(n)
    if options.tailored:
        model = with_equalized_fc(model, window, options.v_target)
    return model, window


def run_instance(
    model: VibronicModel,
    f: BooleanFunction,
    tau_multiple: float,
    options: RunOptions = RunOptions(),
) -> float:
    """Signal of one Boolean function at a delay of ``tau_multiple`` periods,
    from the full pipeline: pump and first order over the window, the
    function's Stokes mask at the delay, the transfer and the readout.  The
    tests' oracle for the kernel, kept here unexported only because the
    benchmark trace names it."""
    model, window = prepare_model(model, options, f.n)
    tau = tau_multiple * vibrational_period(model, "B", PERIOD_LEVEL)
    pump, stokes = design_pulses(model, window, f.bits, options, delay=tau)
    first = prepare_first_order(model, pump, window)
    return signal_magnitude(apply_stokes(model, first, stokes), options.v_target)


def design_pulses(
    model: VibronicModel,
    window: tuple[int, int],
    bits: tuple[int, ...],
    options: RunOptions,
    delay: float = 0.0,
) -> tuple[PulseSpec, PulseSpec]:
    """Pump and bit-masked Stokes pulse of a run, with flat envelopes if set."""
    pump = design_pump(
        model,
        window,
        duration_fwhm=options.resolved_pump_duration(),
        amplitude=options.pump_amplitude,
    )
    stokes = design_stokes(
        model,
        options.v_target,
        window,
        bits,
        duration_fwhm=options.stokes_duration,
        amplitude=options.stokes_amplitude,
        delay=delay,
    )
    if options.flat_envelopes:
        pump, stokes = replace(pump, flat=True), replace(stokes, flat=True)
    return pump, stokes


class _Legs(NamedTuple):
    """Delay-independent factors of the channel weights of one run.

    Holds no reference to the model, so a cached entry cannot keep its
    key alive.
    """

    tau_b: float
    ws: np.ndarray
    stokes_leg: np.ndarray
    c: np.ndarray


# Legs per model, keyed by (n, options); an entry dies with its model.
_LEGS: weakref.WeakKeyDictionary[VibronicModel, dict] = weakref.WeakKeyDictionary()
# Distinct runs kept per model, oldest dropped first.  A D/r landscape or
# a benchmark table needs one per (n, window, tailored) row.
_LEGS_PER_MODEL = 32


def _legs(model: VibronicModel, n: int, options: RunOptions) -> _Legs:
    """The legs of a run on n points, computed once per (model, n, options).

    The tailored equalisation, pump design, first-order preparation and
    the all-+1 Stokes design run on a miss only; the arrays returned are
    read-only and shared by every hit.  Failed runs are not cached.
    """
    runs = _LEGS.setdefault(model, {})
    key = (n, options)
    legs = runs.get(key)
    if legs is None:
        run_model, window = prepare_model(model, options, n)
        tau_b = vibrational_period(run_model, "B", PERIOD_LEVEL)
        pump, stokes = design_pulses(run_model, window, (0,) * n, options)
        first = prepare_first_order(run_model, pump, window)
        ws = first.w_levels
        stokes_leg = stokes_legs(run_model, ws, stokes)[:, options.v_target]
        legs = _Legs(tau_b, ws, stokes_leg, first.c)
        for array in (ws, stokes_leg, first.c):
            array.flags.writeable = False
        if len(runs) >= _LEGS_PER_MODEL:
            del runs[next(iter(runs))]
        runs[key] = legs
    return legs


def channel_weights(
    model: VibronicModel,
    n: int,
    tau_multiples: np.ndarray | tuple[float, ...],
    options: RunOptions = RunOptions(),
) -> tuple[np.ndarray, np.ndarray]:
    """Function-independent channel weights over a grid of delays.

    Does once all the work ``run_instance`` repeats per function: the
    tailored equalisation, pump design and first-order preparation, and
    one all-+1 Stokes design, all kept per (model, n, options) by
    ``_legs``; then the evolution phases of every delay.  Returns
    ``(tau_fs, z)`` with ``tau_fs`` of shape (T,) and ``z`` of shape
    (T, n); the signal of f at delay t is |sum_k (-1)^f(k) z[t, k]| (see
    the module docstring).  Negative delay multiples are accepted on
    purpose: the product form sums both time orderings, so the amplitude
    is defined there.

    Raises
    ------
    ValueError
        If n is not a domain size in [2, 16], the window does not hold n
        retained upper levels, ``v_target`` is not a retained lower level,
        the window's lines are not positive and ascending, a delay multiple
        gives no finite phase, the pulse amplitudes overflow a weight or
        the bound sum_k |z[t, k]| of the signals it feeds, or the
        amplitudes and durations leave every weight below the normal
        float range.
    """
    legs = _legs(model, n, options)
    multiples = np.asarray(tau_multiples, dtype=float).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        tau_fs = multiples * legs.tau_b
        # The equalisation leaves the transition wavenumbers alone.
        phase = evolution_phase(model, legs.ws, tau_fs[:, None])
        # Envelopes, overlaps and phases are at most 1 in size, so only a
        # phase that is not finite or the amplitudes can push a weight, or a
        # signal, past the float range: a nan phase makes its weights nan.
        z = legs.stokes_leg * (legs.c * phase)
        magnitudes = np.abs(z)
        bounded = np.isfinite(magnitudes.sum(axis=1)).all()
    if not bounded:
        finite = np.isfinite(phase).all(axis=1)
        if not finite.all():
            bad = multiples[~finite][0]
            raise ValueError(f"delay multiple {bad:g} gives no finite delay phase")
        raise ValueError(
            f"pump_amplitude = {options.pump_amplitude:g} and stokes_amplitude = "
            f"{options.stokes_amplitude:g} overflow the channel weights"
        )
    # Subnormal weights carry a few bits, and zero ones no signal at all:
    # small amplitudes, or pulses so long that their spectra miss the
    # window, do that.
    if z.size and magnitudes.max() < _TINY:
        raise ValueError(
            f"pump_amplitude = {options.pump_amplitude:g}, stokes_amplitude = "
            f"{options.stokes_amplitude:g}, pump_duration = "
            f"{options.resolved_pump_duration():g} and stokes_duration = "
            f"{options.stokes_duration:g} fs leave every channel weight below "
            "the float range"
        )
    return tau_fs, z


def _half_sums(z: np.ndarray) -> np.ndarray:
    """sum_k (-1)^f(k) z[t, k] of the functions f with f(n - 1) = 0, that is
    functions 0 .. 2^(n-1) - 1, shape (T, 2^(n-1)).

    Prefix doubling: after step k the first 2^(k+1) columns hold the
    sums over bits 0..k: one broadcast add of (+z_k, -z_k) to the first
    2^k turns column i into column i + z_k and makes column i + 2^k
    column i - z_k.  The last point only adds +z_(n-1).  Every sum is
    still ((0 +- z_0) +- z_1) +- ..., term by term in window order as
    ``apply_stokes`` sums, because a + (-b) equals a - b in IEEE
    arithmetic; a matrix product or a Gray-code walk would reorder or
    reuse sums and move the last digits.
    """
    t, n = z.shape
    pm = z.T[:-1, :, None, None]
    pm = np.concatenate([pm, -pm], axis=2)
    acc = np.zeros((t, 1, 1), dtype=complex)
    for k in range(n - 1):
        acc = (acc + pm[k]).reshape(t, 1, -1)
    return acc.reshape(t, -1) + z[:, -1:]


def _enumerated_signals(z: np.ndarray) -> np.ndarray:
    """|sum_k (-1)^f(k) z[t, k]| of every function f, shape (T, 2^n).

    The complement of function i is function 2^n - 1 - i, and its sum
    takes the negated term at every step.  Round-to-nearest is symmetric
    in sign, so each of its partial sums is the exact negation of that of
    f, up to the sign of a zero, and its signal has the same bits: the
    second half is the first, mirrored.
    """
    half = np.abs(_half_sums(z))
    return np.concatenate([half, half[:, ::-1]], axis=1)


def all_outcomes(
    model: VibronicModel,
    n: int,
    tau_multiple: float,
    options: RunOptions = RunOptions(),
) -> Outcomes:
    """Every Boolean function on n points at one delay.

    Built from one set of channel weights; each signal equals that of
    ``run_instance`` for the same function, bit for bit.
    """
    tau_fs, z = channel_weights(model, n, (tau_multiple,), options)
    signals = _enumerated_signals(z)[0]
    signals.flags.writeable = False
    return Outcomes(n, float(tau_fs[0]), tau_multiple, signals)


def sweep_delay(
    model: VibronicModel,
    f: BooleanFunction,
    tau_multiples: np.ndarray,
    options: RunOptions = RunOptions(),
) -> np.ndarray:
    """Signal trace over a grid of delay multiples.

    Returns shape (len(tau_multiples), 2): columns (tau_fs, signal), equal
    to ``run_instance`` at each delay.
    """
    tau_fs, z = channel_weights(model, f.n, tau_multiples, options)
    acc = np.zeros(tau_fs.shape, dtype=complex)
    for bit, term in zip(f.bits, z.T):
        acc = acc - term if bit else acc + term
    return np.column_stack([tau_fs, np.abs(acc)])


def distinguishability(outcomes: Outcomes) -> float:
    """D = 1 - max(balanced signal) / constant signal.

    The two constant functions give identical signals up to a global
    phase; that equality is checked here, and the larger value is used
    as the reference.
    """
    signals = outcomes.signals
    balanced = signals[_selection(outcomes.n).balanced]
    if balanced.size == 0:
        raise ValueError("need at least one balanced-function outcome")
    first, last = float(signals[0]), float(signals[-1])
    # max keeps a nan only as its first argument; np.maximum keeps either.
    reference = last if math.isnan(last) else max(first, last)
    if reference <= 0.0:
        raise ValueError("constant-function signal vanished; D undefined")
    if min(first, last) < reference * (1.0 - 1e-9):
        raise ValueError(
            "the two constant-function signals disagree beyond rounding; "
            "the outcome set is inconsistent"
        )
    return float(1.0 - balanced.max() / reference)


def pearson_r(outcomes: Outcomes) -> float:
    """Correlation between measured signals and |S_N| over the outcomes,
    computed on the signals divided by their maximum.

    The arithmetic of ``np.corrcoef``, step for step: centre both rows of
    one (2, 2^n) array, take their products in its one ``dot`` with the
    transpose, scale by 1 / (2^n - 1), divide c01 by both deviations in
    turn and clip to [-1, 1].
    """
    selection = _selection(outcomes.n)
    signals = outcomes.signals
    top = signals.max()
    if selection.degenerate or top - signals.min() == 0.0:
        raise ValueError("degenerate outcome set; correlation undefined")
    # r does not depend on scale; squares of raw signals near 1e+-160
    # would under- or overflow in the products.
    x = np.empty((2, signals.size))
    np.divide(signals, top, out=x[0])
    # ndarray.mean's arithmetic, without its call.
    x[0] -= np.add.reduce(x[0]) / signals.size
    x[1] = selection.centred_ideal
    # x with its own transpose reaches the BLAS routine np.cov reaches; a
    # copy would take another one and move the last bits.
    c = np.dot(x, x.T)
    # Python's / and math.sqrt round correctly, as np.true_divide and
    # np.sqrt do, so the bits stay those of corrcoef.
    c *= 1 / (signals.size - 1)
    r = float(c[0, 1] / math.sqrt(c[0, 0]) / math.sqrt(c[1, 1]))
    # min/max keep a nan, as np.clip does.
    return min(max(r, -1.0), 1.0)


# Standard benchmark rows: three window sizes plus the tailored variant
# of the widest one.
TABLE_ROWS: tuple[tuple[int, bool], ...] = ((4, False), (6, False), (8, False), (8, True))
# Delays of the table, in multiples of tau_B.
TABLE_TAUS: tuple[float, ...] = (0.0, 1.0, 2.0)


def fidelity_table(
    model: VibronicModel,
    tau_multiples: tuple[float, ...] = TABLE_TAUS,
    options: RunOptions = RunOptions(),
) -> list[FidelityMetrics]:
    """Correlation/distinguishability grid over ``TABLE_ROWS`` and delays.

    One cell per row and delay, in row order, each enumerated once by
    ``all_outcomes``.  A configured ``options.w_window`` applies only to
    the rows whose n matches its size; the other rows use their default
    windows.  A cell whose signals are all equal is refused with a
    ValueError naming the durations, its n and its delay.
    """
    table = []
    for n, tailored in TABLE_ROWS:
        row = row_options(options, n, tailored)
        for m in tau_multiples:
            outcomes = all_outcomes(model, n, m, row)
            # A Stokes pulse long enough to reach one line alone leaves every
            # signal equal, and r undefined.
            if outcomes.signals.max() == outcomes.signals.min():
                raise ValueError(
                    f"stokes_duration = {row.stokes_duration:g} and pump_duration = "
                    f"{row.resolved_pump_duration():g} fs leave every signal of n = "
                    f"{n} at delay multiple {m:g} equal; r is undefined"
                )
            table.append(
                FidelityMetrics(
                    tailored, outcomes, pearson_r(outcomes), distinguishability(outcomes)
                )
            )
    return table


def row_options(options: RunOptions, n: int, tailored: bool) -> RunOptions:
    """Options of the table row (n, tailored): a configured window is kept
    only when it holds n levels, otherwise the row's default applies."""
    window = options.w_window
    if window is not None and window[1] - window[0] + 1 != n:
        window = None
    return replace(options, tailored=tailored, w_window=window)
