"""Boolean encoding, outcome bookkeeping, and the fidelity metrics."""

import gc
import re
import warnings
import weakref
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carsdj import algorithm
from carsdj.algorithm import (
    DEFAULT_PUMP_DURATION,
    DEFAULT_TAILORED_PUMP_DURATION,
    DEFAULT_WINDOWS,
    PERIOD_LEVEL,
    TABLE_ROWS,
    BooleanFunction,
    FidelityMetrics,
    Outcomes,
    RunOptions,
    _enumerated_sums,
    all_outcomes,
    channel_weights,
    design_pulses,
    distinguishability,
    enumerate_functions,
    fidelity_table,
    pearson_r,
    prepare_model,
    row_options,
    run_instance,
    s_n,
    sweep_delay,
)
from carsdj.dynamics import (
    apply_stokes,
    prepare_first_order,
    random_oracle_configs,
    signal_magnitude,
    time_domain_oracle,
)
from carsdj.molecule import (
    IODINE_B,
    IODINE_X,
    build_model,
    checked_window,
    transition_wavenumber,
    vibrational_period,
    with_equalized_fc,
)
from carsdj.pulses import PulseSpec, design_probe, design_pump, design_stokes

_KERNEL_TAUS = (0.0, 0.5, 1.0, 1.5, 2.0)

# The D/r landscape: (n, window, tailored) rows, each at _KERNEL_TAUS.
_LANDSCAPE_ROWS = (
    (4, None, False),
    (6, None, False),
    (8, None, False),
    (8, None, True),
    (10, (17, 26), False),
    (12, (16, 27), False),
)


def _bit_matrix(n):
    """Boolean (2^n, n) table whose row i holds the bits of function i."""
    return ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(bool)


def _signal_sums(z, bits):
    """sum_k (-1)^bits[f, k] z[t, k] for every (t, f), shape (T, F): the
    term-by-term loop the prefix-doubling kernel replaced, kept as its
    reference."""
    acc = np.zeros((z.shape[0], bits.shape[0]), dtype=complex)
    for k in range(z.shape[1]):
        term = z[:, k, None]
        acc += np.where(bits[:, k], -term, term)
    return acc


def _outcomes(signals, tau=0.0):
    signals = np.asarray(signals, dtype=float)
    return Outcomes(int(np.log2(signals.size)), tau, 0.0, signals)


def test_boolean_function_properties():
    f = BooleanFunction((0, 1, 1, 0))
    assert f.n == 4
    assert f.classification == "balanced"
    assert f.index == 6
    assert f.as_string == "0110"
    assert s_n(f) == 0
    assert BooleanFunction((0, 0)).classification == "constant"
    assert BooleanFunction((1, 1, 1, 1)).classification == "constant"
    assert BooleanFunction((1, 0, 0, 0)).classification == "other"
    assert s_n(BooleanFunction((0, 0, 0, 0))) == 4
    assert s_n(BooleanFunction((1, 1, 1, 1))) == -4
    assert s_n(BooleanFunction((1, 0, 0, 0))) == 2


def test_boolean_function_validation():
    with pytest.raises(ValueError, match="at least one bit"):
        BooleanFunction(())
    with pytest.raises(ValueError, match="0 or 1"):
        BooleanFunction((0, 2))


def test_enumeration_covers_every_function():
    fns = enumerate_functions(4)
    assert len(fns) == 16
    assert [f.index for f in fns] == list(range(16))
    classes = [f.classification for f in fns]
    assert classes.count("constant") == 2
    assert classes.count("balanced") == 6
    assert classes.count("other") == 8
    classes2 = [f.classification for f in enumerate_functions(2)]
    assert classes2.count("constant") == 2
    assert classes2.count("balanced") == 2
    fns8 = enumerate_functions(8)
    assert len(fns8) == 256
    assert sum(1 for f in fns8 if f.classification == "balanced") == 70
    with pytest.raises(ValueError, match="domain size"):
        enumerate_functions(0)
    with pytest.raises(ValueError, match="domain size"):
        enumerate_functions(17)


def test_run_options_defaults():
    opts = RunOptions()
    assert PERIOD_LEVEL == 22
    for n, window in {2: (21, 22), 4: (20, 23), 6: (19, 24), 8: (18, 25)}.items():
        assert DEFAULT_WINDOWS[n] == window
    # every even size up to 16: n levels with PERIOD_LEVEL at offset n // 2
    assert sorted(DEFAULT_WINDOWS) == list(range(2, 17, 2))
    for n, (w_lo, w_hi) in DEFAULT_WINDOWS.items():
        assert w_hi - w_lo + 1 == n and PERIOD_LEVEL - w_lo == n // 2
    assert opts.resolved_window(4) == (20, 23)
    assert opts.resolved_window(8) == (18, 25)
    assert RunOptions(w_window=(10, 13)).resolved_window(4) == (10, 13)
    with pytest.raises(ValueError, match="no default window"):
        opts.resolved_window(3)
    assert opts.resolved_pump_duration() == DEFAULT_PUMP_DURATION
    assert (
        RunOptions(tailored=True).resolved_pump_duration()
        == DEFAULT_TAILORED_PUMP_DURATION
    )
    assert (
        RunOptions(pump_duration=77.0, tailored=True).resolved_pump_duration()
        == 77.0
    )


def test_run_instance_returns_the_signal(model):
    signal = run_instance(model, BooleanFunction((0, 0, 0, 0)), 1.0)
    assert type(signal) is float and signal > 0.0
    assert signal == all_outcomes(model, 4, 1.0).signals[0]


def test_run_instance_rejects_mismatched_windows(model):
    with pytest.raises(ValueError, match="holds 3 levels"):
        run_instance(
            model, BooleanFunction((0, 0, 0, 0)), 0.0, RunOptions(w_window=(20, 22))
        )


def test_outcomes_are_enumerated_in_index_order(model):
    outs = all_outcomes(model, 2, 0.0)
    assert outs.n == 2 and outs.tau_multiple == 0.0
    assert outs.signals.shape == (4,)
    assert outs.s_n.tolist() == [s_n(f) for f in enumerate_functions(2)]
    assert outs.s_n.tolist() == [2, 0, 0, -2]
    with pytest.raises(ValueError, match="2\\^2 signals"):
        Outcomes(2, 0.0, 0.0, np.zeros(3))


def test_complementary_functions_are_indistinguishable(model):
    # flipping every bit negates each transfer term, leaving the magnitude
    for tau in (0.0, 1.0):
        signals = all_outcomes(model, 4, tau).signals
        # index of the complement of f is 2^4 - 1 - index(f)
        assert np.array_equal(signals, signals[::-1])


def test_constant_functions_give_the_largest_signal(model):
    for n in (4, 6):
        for tau in (0.0, 1.0):
            outs = all_outcomes(model, n, tau)
            const = outs.signals[np.abs(outs.s_n) == n].max()
            assert outs.signals.max() == const


def test_sweep_columns(model):
    multiples = np.array([0.0, 0.5, 1.0])
    trace = sweep_delay(model, BooleanFunction((0, 0, 0, 0)), multiples)
    assert trace.shape == (3, 2)
    np.testing.assert_allclose(trace[:, 0], multiples * 387.38497165, atol=1e-3)
    assert np.all(trace[:, 1] >= 0.0)


def test_distinguishability_bookkeeping():
    # n = 2 in enumeration order: 00 (constant), 10, 01 (balanced), 11
    assert distinguishability(_outcomes([1.0, 0.25, 0.125, 1.0])) == 0.75
    # the larger constant signal is the reference
    assert distinguishability(
        _outcomes([1.0, 0.25, 0.125, 1.0 - 1e-12])
    ) == 0.75
    # odd n has no balanced functions
    with pytest.raises(ValueError, match="balanced-function outcome"):
        distinguishability(_outcomes(np.ones(8)))
    with pytest.raises(ValueError, match="disagree"):
        distinguishability(_outcomes([1.0, 0.2, 0.2, 0.5]))
    with pytest.raises(ValueError, match="vanished"):
        distinguishability(_outcomes([0.0, 0.0, 0.0, 0.0]))


def test_correlation_requires_a_spread():
    assert pearson_r(_outcomes([2.0, 0.0, 0.0, 2.0])) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="degenerate"):
        pearson_r(_outcomes([0.5, 0.5, 0.5, 0.5]))
    # n = 1: both functions are constant, so |S_N| has no spread
    with pytest.raises(ValueError, match="degenerate"):
        pearson_r(_outcomes([1.0, 0.5]))


def test_idealized_run_classifies_perfectly(model):
    # flat envelopes plus equalized overlaps at zero delay: the signal is
    # exactly proportional to |sum_k (-1)^f(k)|
    opts = RunOptions(tailored=True, flat_envelopes=True)
    outs = all_outcomes(model, 4, 0.0, opts)
    ideal = np.abs(outs.s_n)
    const = outs.signals[ideal == 4].max()
    np.testing.assert_allclose(outs.signals / const, ideal / 4.0, rtol=0, atol=1e-12)
    assert distinguishability(outs) == pytest.approx(1.0, abs=1e-12)
    assert pearson_r(outs) == pytest.approx(1.0, abs=1e-12)


def test_metrics_ignore_overall_signal_scale(model):
    outs = all_outcomes(model, 4, 1.0)
    scaled = replace(outs, signals=outs.signals * 3.7)
    assert abs(distinguishability(scaled) - distinguishability(outs)) < 1e-15
    assert abs(pearson_r(scaled) - pearson_r(outs)) < 1e-12


def test_fidelity_table_layout_and_values(model):
    table = fidelity_table(model)
    assert [(m.n, m.tailored, m.tau_multiple) for m in table] == [
        (4, False, 0.0), (4, False, 1.0), (4, False, 2.0),
        (6, False, 0.0), (6, False, 1.0), (6, False, 2.0),
        (8, False, 0.0), (8, False, 1.0), (8, False, 2.0),
        (8, True, 0.0), (8, True, 1.0), (8, True, 2.0),
    ]
    cell = {(m.n, m.tailored, m.tau_multiple): m for m in table}
    assert cell[(4, False, 1.0)].r == pytest.approx(0.9798, abs=1e-3)
    assert cell[(4, False, 1.0)].d == pytest.approx(0.8580, abs=1e-3)
    assert cell[(8, False, 1.0)].d == pytest.approx(0.4973, abs=1e-3)
    assert cell[(8, True, 0.0)].d == pytest.approx(0.8094, abs=1e-3)
    assert cell[(4, False, 1.0)].r_pct == 98
    assert cell[(4, False, 1.0)].d_pct == 86


def test_percentage_rounding():
    outcomes = _outcomes([1.0, 0.2, 0.2, 1.0])
    m = FidelityMetrics(tailored=False, outcomes=outcomes, r=0.978, d=0.8649)
    assert (m.n, m.tau_multiple) == (2, 0.0)
    assert m.r_pct == 98
    assert m.d_pct == 86


def test_fidelity_table_cells_equal_all_outcomes(model):
    table = fidelity_table(model, (0.0, 1.0))
    assert len(table) == 2 * len(TABLE_ROWS)
    for m in table:
        direct = all_outcomes(
            model, m.n, m.tau_multiple, RunOptions(tailored=m.tailored)
        )
        assert np.array_equal(m.outcomes.signals, direct.signals)
        assert m.outcomes.tau_fs == direct.tau_fs
        assert (m.r, m.d) == (pearson_r(direct), distinguishability(direct))


def test_a_cell_of_equal_signals_is_refused_naming_the_durations():
    # a Stokes pulse so long that it reaches only the line on its carrier
    # leaves all 16 signals equal; pearson_r once refused naming no key
    model = replace(
        build_model(IODINE_X, replace(IODINE_B, d_e=1000.0)), t_e=6.4492059155592776e16
    )
    message = (
        "stokes_duration = 1e+300 and pump_duration = 30 fs leave every signal "
        "of n = 4 at delay multiple 0 equal; r is undefined"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        fidelity_table(model, (0.0,), RunOptions(stokes_duration=1e300, v_target=0))


def test_table_rows_of_another_size_use_default_windows(model):
    # a configured window applies only to the row whose n matches it
    options = RunOptions(w_window=(20, 25))
    table = fidelity_table(model, (1.0,), options)
    cells = {(m.n, m.tailored): m.outcomes for m in table}
    default_4 = all_outcomes(model, 4, 1.0)
    shifted_6 = all_outcomes(model, 6, 1.0, options)
    assert np.array_equal(cells[(4, False)].signals, default_4.signals)
    assert np.array_equal(cells[(6, False)].signals, shifted_6.signals)


def test_enumeration_returns_a_fresh_list_each_call():
    first = enumerate_functions(4)
    first.clear()
    assert len(enumerate_functions(4)) == 16
    assert enumerate_functions(6) is not enumerate_functions(6)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize(
    "options",
    [RunOptions(), RunOptions(tailored=True), RunOptions(flat_envelopes=True)],
    ids=["plain", "tailored", "flat"],
)
def test_kernel_equals_run_instance_exactly(model, n, options):
    tau_b = vibrational_period(model, "B", PERIOD_LEVEL)
    for tau in _KERNEL_TAUS:
        outs = all_outcomes(model, n, tau, options)
        assert outs.tau_fs == tau * tau_b
        for f, signal, signed_sum in zip(
            enumerate_functions(n), outs.signals, outs.s_n
        ):
            assert signal == run_instance(model, f, tau, options)
            assert signed_sum == s_n(f)


@pytest.mark.parametrize(
    "n, window, tau", [(10, (17, 26), 1.5), (12, (16, 27), 0.5), (10, None, 1.0)]
)
def test_kernel_equals_run_instance_on_wide_windows(model, n, window, tau):
    options = RunOptions(w_window=window)
    outs = all_outcomes(model, n, tau, options)
    assert outs.signals.shape == (2**n,)
    for f, signal in zip(enumerate_functions(n), outs.signals):
        assert signal == run_instance(model, f, tau, options)


def test_sweep_equals_run_instance_exactly(model):
    multiples = np.linspace(0.0, 2.5, 501)
    tau_b = vibrational_period(model, "B", PERIOD_LEVEL)
    for f in enumerate_functions(4):
        trace = sweep_delay(model, f, multiples)
        expected = np.array(
            [(m * tau_b, run_instance(model, f, float(m))) for m in multiples]
        )
        assert np.array_equal(trace, expected)


@pytest.mark.parametrize("n", range(2, 17, 2))
@pytest.mark.parametrize(
    "options",
    [RunOptions(), RunOptions(tailored=True), RunOptions(flat_envelopes=True)],
    ids=["plain", "tailored", "flat"],
)
def test_kernel_equals_the_loop_reference_on_model_weights(model, n, options):
    options = replace(options, w_window=(22 - n // 2, 21 + n // 2))
    _, z = channel_weights(model, n, _KERNEL_TAUS, options)
    expected = np.abs(_signal_sums(z, _bit_matrix(n)))
    for t, tau in enumerate(_KERNEL_TAUS):
        signals = all_outcomes(model, n, tau, options).signals
        assert signals.tobytes() == expected[t].tobytes()


def test_sixteen_point_enumeration_is_complement_symmetric(model):
    signals = all_outcomes(model, 16, 1.0, RunOptions(w_window=(14, 29))).signals
    assert signals.size == 2**16
    # index of the complement of f is 2^16 - 1 - index(f)
    assert np.array_equal(signals, signals[::-1])


def test_channel_weights_shape_and_delays(model):
    taus = np.array([0.0, 1.0, 2.0])
    tau_fs, z = channel_weights(model, 4, taus)
    assert tau_fs.shape == (3,) and z.shape == (3, 4)
    np.testing.assert_allclose(tau_fs, taus * 387.38497165, atol=1e-3)
    # the constant-0 signal is the plain sum of the weights
    constant = BooleanFunction((0, 0, 0, 0))
    assert abs(z[1].sum()) == pytest.approx(run_instance(model, constant, 1.0))


def test_channel_weights_reject_bad_windows_and_targets(model):
    with pytest.raises(ValueError, match="holds 3 levels"):
        channel_weights(model, 4, (0.0,), RunOptions(w_window=(20, 22)))
    with pytest.raises(ValueError, match="no default window"):
        channel_weights(model, 3, (0.0,))
    with pytest.raises(ValueError, match="upper level"):
        channel_weights(model, 4, (0.0,), RunOptions(w_window=(38, 41)))
    with pytest.raises(ValueError, match="upper level 41, but n_b_states = 40"):
        channel_weights(model, 4, (0.0,), RunOptions(w_window=(38, 41), tailored=True))
    with pytest.raises(ValueError, match="lower level"):
        channel_weights(model, 4, (0.0,), RunOptions(v_target=40))
    with pytest.raises(ValueError, match="lower level"):
        channel_weights(model, 4, (0.0,), RunOptions(v_target=-1))


def _reference_metrics(functions, signals):
    """D and r by the per-function formulas, one function at a time."""
    groups = {"constant": [], "balanced": [], "other": []}
    for f, signal in zip(functions, signals.tolist()):
        groups[f.classification].append(signal)
    reference = max(groups["constant"])
    d = 1.0 - max(groups["balanced"]) / reference
    ideal = np.array([abs(s_n(f)) for f in functions], dtype=float)
    scaled = np.array(signals.tolist()) / max(signals.tolist())
    r = float(np.corrcoef(scaled, ideal)[0, 1])
    return d, r


def _reference_distinguishability(outcomes):
    """D by boolean masks over S_N: the body the per-n selection table
    replaced, kept as its reference."""
    s_n = outcomes.s_n
    constants = outcomes.signals[np.abs(s_n) == outcomes.n]
    balanced = outcomes.signals[s_n == 0]
    if balanced.size == 0:
        raise ValueError("need at least one balanced-function outcome")
    reference = constants.max()
    if reference <= 0.0:
        raise ValueError("constant-function signal vanished; D undefined")
    if constants.min() < reference * (1.0 - 1e-9):
        raise ValueError(
            "the two constant-function signals disagree beyond rounding; "
            "the outcome set is inconsistent"
        )
    return float(1.0 - balanced.max() / reference)


def _reference_pearson_r(outcomes):
    """r by ``np.corrcoef``: the body the inlined arithmetic replaced,
    kept as its reference."""
    ideal = np.abs(outcomes.s_n).astype(float)
    signals = outcomes.signals
    if np.ptp(ideal) == 0.0 or np.ptp(signals) == 0.0:
        raise ValueError("degenerate outcome set; correlation undefined")
    return float(np.corrcoef(signals / signals.max(), ideal)[0, 1])


def test_array_metrics_equal_the_per_function_formulas(model):
    cells = [
        (n, RunOptions(w_window=window, tailored=tailored), _KERNEL_TAUS)
        for n, window, tailored in _LANDSCAPE_ROWS
    ]
    cells.append((16, RunOptions(w_window=(14, 29)), (0.0, 1.0, 2.0)))
    for n, options, taus in cells:
        functions = enumerate_functions(n)
        for tau in taus:
            outs = all_outcomes(model, n, tau, options)
            d, r = _reference_metrics(functions, outs.signals)
            assert distinguishability(outs) == d
            assert pearson_r(outs) == r


_PARTS = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300]),
)


@st.composite
def _weights(draw):
    n = draw(st.integers(1, 16))
    t = 1 if n > 12 else draw(st.integers(1, 3))
    parts = draw(st.lists(_PARTS, min_size=2 * t * n, max_size=2 * t * n))
    return np.array(parts).view(complex).reshape(t, n)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(_weights())
def test_doubling_kernel_equals_the_loop_bit_for_bit(z):
    # ±0.0, subnormals and weights near 1e300 included
    n = z.shape[1]
    sums = _enumerated_sums(z)
    assert sums.tobytes() == _signal_sums(z, _bit_matrix(n)).tobytes()


@st.composite
def _signal_sets(draw):
    """Outcomes on n = 1-16 points scaled by 1e-300 to 1e300: random,
    tied, partly zero or all equal, or with disagreeing or vanished
    constants."""
    n = draw(st.sampled_from(range(1, 17)))
    kind = draw(
        st.sampled_from(["random", "ties", "zeros", "equal", "disagree", "vanished"])
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 2**n
    if kind == "equal":
        signals = np.full(size, rng.random())
    elif kind == "ties":
        signals = rng.integers(0, 3, size).astype(float)
    else:
        signals = rng.random(size)
    if kind == "zeros":
        signals[rng.random(size) < 0.5] = 0.0
    # the constant pair agrees, as complements do, unless drawn otherwise
    signals[-1] = signals[0]
    if kind == "disagree":
        signals[-1] = signals[0] * draw(st.sampled_from([0.5, 1 - 1e-8, 1 - 1e-10, 2.0]))
    elif kind == "vanished":
        signals[0] = signals[-1] = 0.0
    signals *= 10.0 ** draw(st.integers(-300, 300))
    return _outcomes(signals)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_signal_sets())
def test_metrics_equal_their_reference_bodies(outcomes):
    for metric, reference in (
        (distinguishability, _reference_distinguishability),
        (pearson_r, _reference_pearson_r),
    ):
        try:
            expected = reference(outcomes)
        except ValueError as error:
            with pytest.raises(ValueError) as raised:
                metric(outcomes)
            assert str(raised.value) == str(error)
        else:
            assert metric(outcomes) == expected


def test_selection_tables_are_read_only_with_the_constants_at_the_ends():
    for n in range(1, 17):
        table = algorithm._selection(n)
        s = algorithm._selection(n).s_n
        assert algorithm._selection(n) is table
        assert np.array_equal(table.balanced, np.flatnonzero(s == 0))
        assert np.array_equal(np.flatnonzero(np.abs(s) == n), [0, 2**n - 1])
        assert table.degenerate == (n == 1)
        for array in (table.balanced, table.centred_ideal):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1


def test_correlation_does_not_call_corrcoef(model, monkeypatch):
    outs = all_outcomes(model, 8, 1.0)
    expected = _reference_pearson_r(outs)

    def refuse(*args, **kwargs):
        raise AssertionError("np.corrcoef was called")

    monkeypatch.setattr(np, "corrcoef", refuse)
    assert pearson_r(outs) == expected


def test_the_paper_claim_holds_as_orderings_and_signs(model):
    # the 48-cell grid: n = 2, 4, ..., 16 on default windows, plain and
    # tailored, at 0, 1 and 2 periods
    ns = range(2, 17, 2)
    d = {
        (n, tailored, tau): distinguishability(
            all_outcomes(model, n, tau, RunOptions(tailored=tailored))
        )
        for n in ns
        for tailored in (False, True)
        for tau in (0.0, 1.0, 2.0)
    }
    # equalised overlaps beat the plain window at zero delay
    assert all(d[n, True, 0.0] > d[n, False, 0.0] for n in ns if n >= 4)
    # the plain contrast at zero delay falls with every added level
    plain = [d[n, False, 0.0] for n in ns]
    assert all(a > b for a, b in zip(plain, plain[1:]))
    # contrast decays with delay in every row
    for n in ns:
        for tailored in (False, True):
            assert d[n, tailored, 0.0] > d[n, tailored, 1.0] > d[n, tailored, 2.0]
    # at two periods the balanced functions outshine the constants from
    # n = 12 on, and tailoring hurts from n = 8 on
    for tailored in (False, True):
        assert all((d[n, tailored, 2.0] < 0.0) == (n >= 12) for n in ns if n >= 10)
    assert all(d[n, True, 2.0] < d[n, False, 2.0] for n in ns if n >= 8)


@settings(derandomize=True, database=None, max_examples=16, deadline=None)
@given(
    st.tuples(st.floats(0.995, 1.005), st.floats(0.995, 1.005)),
    st.tuples(*[st.floats(0.98, 1.02)] * 4),
)
def test_tailoring_beats_the_plain_window_across_models_while_the_signs_agree(
    r_e, d_e_beta
):
    # r_e of both curves within 0.5 %, d_e and beta within 2 %: tailoring keeps
    # each overlap's sign, so it lifts D at zero delay wherever the signs
    # sigma_k agree over the window, and may not where one flips
    x, b = (
        replace(p, r_e=p.r_e * r, d_e=p.d_e * d, beta=p.beta * beta)
        for p, r, d, beta in zip((IODINE_X, IODINE_B), r_e, d_e_beta[:2], d_e_beta[2:])
    )
    family = build_model(x, b)
    for n, window in DEFAULT_WINDOWS.items():
        sigma = _overlap_signs(family, window, 4)
        if n >= 4 and (sigma == sigma[0]).all():
            plain, tailored = (
                distinguishability(all_outcomes(family, n, 0.0, RunOptions(tailored=t)))
                for t in (False, True)
            )
            assert tailored > plain, (n, x, b)


def test_signed_sums_are_one_read_only_table_per_n():
    for n in range(1, 17):
        s = Outcomes(n, 0.0, 0.0, np.zeros(2**n)).s_n
        popcount = np.array([bin(i).count("1") for i in range(2**n)])
        assert s.dtype == np.int64 and not s.flags.writeable
        assert np.array_equal(s, n - 2 * popcount)
        assert Outcomes(n, 1.0, 1.0, np.ones(2**n)).s_n is s


@pytest.mark.parametrize("amplitude", [1e150, 1e-150, 1e160, 1e-160, 1e-300])
def test_metrics_survive_extreme_stokes_amplitudes(model, amplitude):
    # r once squared raw signals, so 1e-160 read r = 0.832 for 0.9855
    default = fidelity_table(model, (0.0, 1.0))
    scaled = fidelity_table(model, (0.0, 1.0), RunOptions(stokes_amplitude=amplitude))
    for m, ref in zip(scaled, default):
        assert abs(m.r - ref.r) <= 1e-12
        assert abs(m.d - ref.d) <= 1e-12


def test_overflowing_amplitudes_are_refused(model):
    options = RunOptions(pump_amplitude=1e300, stokes_amplitude=1e300)
    with pytest.raises(ValueError, match="pump_amplitude = 1e\\+300 and stokes_amp"):
        channel_weights(model, 4, (0.0,), options)
    # 1e300 on the pump alone keeps every weight and signal finite
    outs = all_outcomes(model, 4, 1.0, RunOptions(pump_amplitude=1e300))
    assert np.isfinite(outs.signals).all()


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, 2e305, 1e306, 1e308])
def test_a_non_finite_delay_is_named(model, tau):
    # nan once blamed the amplitudes, inf warned in the phase, and a huge
    # finite multiple overflowed the delay or the phase before its check
    message = re.escape(f"delay multiple {tau:g} gives no finite delay")
    with pytest.raises(ValueError, match=message):
        all_outcomes(model, 4, tau)
    with pytest.raises(ValueError, match=message):
        sweep_delay(model, BooleanFunction((0, 1, 1, 0)), np.array([0.0, tau]))


def _run_bytes(get_model, n, taus, options):
    """tau_fs and z over ``taus``, every signal, r and D at the first three
    delays, as bytes, each call on the model ``get_model()`` returns; a
    refused run gives its message."""
    try:
        tau_fs, z = channel_weights(get_model(), n, taus, options)
    except ValueError as exc:
        return str(exc)
    out = [tau_fs.tobytes(), z.tobytes()]
    for tau in taus[:3]:
        outs = all_outcomes(get_model(), n, tau, options)
        out.append(outs.signals.tobytes())
        try:
            out.append(np.array([pearson_r(outs), distinguishability(outs)]).tobytes())
        except ValueError as exc:
            out.append(str(exc))
    return out


_DELAYS = st.one_of(
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4).map(tuple),
    st.just(tuple(np.linspace(0.0, 2.5, 501).tolist())),
)


@st.composite
def _cached_runs(draw):
    n = draw(st.integers(1, 8)) * 2
    w_lo = draw(st.integers(0, 39 - n))
    window = draw(st.sampled_from([None, (w_lo, w_lo + n - 1)]))
    options = RunOptions(
        w_window=window,
        v_target=draw(st.integers(0, 8)),
        pump_duration=draw(st.one_of(st.none(), st.floats(5.0, 300.0))),
        stokes_duration=draw(st.floats(5.0, 300.0)),
        # products beyond 1e+-300 are refused, on a hit as on a miss
        pump_amplitude=10.0 ** draw(st.integers(-200, 200)),
        stokes_amplitude=10.0 ** draw(st.integers(-200, 200)),
        tailored=draw(st.booleans()),
        flat_envelopes=draw(st.booleans()),
    )
    return n, draw(_DELAYS), options


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_cached_runs())
def test_cached_legs_equal_a_cold_call_bit_for_bit(model, run):
    n, taus, options = run
    # a fresh copy of the model has an empty cache, so every call misses
    cold = _run_bytes(lambda: replace(model), n, taus, options)
    shared = replace(model)
    first = _run_bytes(lambda: shared, n, taus, options)
    hit = _run_bytes(lambda: shared, n, taus, options)
    assert cold == first == hit


def test_pulses_are_designed_once_per_model_n_and_options(model, monkeypatch):
    windows = []
    design = algorithm.design_pump

    def counted(model, window, **kwargs):
        windows.append(window)
        return design(model, window, **kwargs)

    monkeypatch.setattr(algorithm, "design_pump", counted)
    fresh = replace(model)
    tailored = RunOptions(tailored=True)
    for tau in _KERNEL_TAUS:
        all_outcomes(fresh, 4, tau)
        all_outcomes(fresh, 8, tau, tailored)
    sweep_delay(fresh, BooleanFunction((0, 1, 0, 1)), np.linspace(0.0, 2.5, 11))
    fidelity_table(fresh, (0.0,))
    assert windows == [(20, 23), (18, 25), (19, 24), (18, 25)]
    # another n, other options or another model each design once more
    channel_weights(fresh, 4, (0.0,), RunOptions(stokes_amplitude=2.0))
    channel_weights(replace(model), 4, (0.0,))
    assert len(windows) == 6


def test_cached_legs_die_with_their_model(model):
    fresh = replace(model)
    for options in (RunOptions(), RunOptions(tailored=True)):
        all_outcomes(fresh, 8, 1.0, options)
    assert len(algorithm._LEGS[fresh]) == 2
    ref = weakref.ref(fresh)
    del fresh
    gc.collect()
    assert ref() is None


def test_models_compare_and_hash_by_identity(model):
    copy = replace(model)
    assert copy != model and model == model
    assert hash(model) != hash(copy)


def test_a_list_window_is_keyed_as_its_tuple(model):
    listed = RunOptions(w_window=[18, 21])
    assert listed == RunOptions(w_window=(18, 21))
    assert hash(listed) == hash(RunOptions(w_window=(18, 21)))
    fresh = replace(model)
    as_list = all_outcomes(fresh, 4, 1.0, RunOptions(w_window=[18, 21]))
    as_tuple = all_outcomes(fresh, 4, 1.0, RunOptions(w_window=(18, 21)))
    assert as_list.signals.tobytes() == as_tuple.signals.tobytes()
    assert list(algorithm._LEGS[fresh]) == [(4, RunOptions(w_window=(18, 21)))]


def test_a_failing_run_is_not_cached(model, monkeypatch):
    fresh = replace(model)
    with pytest.raises(ValueError, match="upper level 41, but n_b_states = 40"):
        channel_weights(fresh, 4, (0.0,), RunOptions(w_window=(38, 41)))
    design = algorithm.design_pump
    failures = [ValueError("design failed once")]

    def flaky(*args, **kwargs):
        if failures:
            raise failures.pop()
        return design(*args, **kwargs)

    monkeypatch.setattr(algorithm, "design_pump", flaky)
    with pytest.raises(ValueError, match="design failed once"):
        channel_weights(fresh, 4, (0.0,))
    assert not algorithm._LEGS[fresh]
    _, z = channel_weights(fresh, 4, (0.0,))
    assert z.tobytes() == channel_weights(replace(model), 4, (0.0,))[1].tobytes()


def test_cached_legs_are_read_only_and_bounded(model):
    fresh = replace(model)
    _, z = channel_weights(fresh, 4, (0.0, 1.0))
    (legs,) = algorithm._LEGS[fresh].values()
    for array in (legs.ws, legs.stokes_leg, legs.c):
        assert not array.flags.writeable
    # the weights are the caller's to change
    z[:] = 0.0
    assert channel_weights(fresh, 4, (0.0, 1.0))[1].any()
    for k in range(algorithm._LEGS_PER_MODEL + 3):
        channel_weights(fresh, 2, (0.0,), RunOptions(stokes_amplitude=1.0 + k))
    assert len(algorithm._LEGS[fresh]) == algorithm._LEGS_PER_MODEL


@pytest.mark.parametrize(
    "options",
    [
        RunOptions(stokes_amplitude=1e-320),
        RunOptions(pump_amplitude=1e-160, stokes_amplitude=1e-160),
        RunOptions(pump_duration=1e300),
        RunOptions(stokes_duration=1e300, tailored=True),
    ],
)
def test_vanishing_weights_are_refused_on_every_call(model, options):
    # 1e-320 used to give subnormal weights and D, r a point off
    fresh = replace(model)
    for _ in range(2):
        with pytest.raises(ValueError, match="pump_duration = .* leave every") as err:
            all_outcomes(fresh, 4, 0.0, options)
        assert "stokes_amplitude" in str(err.value)
        assert "stokes_duration" in str(err.value)


# Physics invariants over drawn runs: n, window, delays, v_target and
# options from _cached_runs, with both amplitudes reset to 1.

def _unit_amplitudes(options):
    return replace(options, pump_amplitude=1.0, stokes_amplitude=1.0)


def _metrics(outcomes):
    """(D, r) of an outcome set, or the message that refuses one."""
    try:
        return distinguishability(outcomes), pearson_r(outcomes)
    except ValueError as exc:
        return str(exc)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_cached_runs())
def test_complementary_functions_give_the_same_signal_bit_for_bit(model, run):
    n, taus, options = run
    for tau in taus[:3]:
        signals = all_outcomes(model, n, tau, _unit_amplitudes(options)).signals
        # the complement of function i is function 2^n - 1 - i
        assert signals.tobytes() == signals[::-1].tobytes()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_cached_runs(), st.integers(-150, 150), st.integers(-150, 150))
def test_metrics_do_not_depend_on_the_amplitudes(model, run, product, pump):
    # products within 1e+-150 keep every weight in the normal float range
    n, taus, options = run
    options = _unit_amplitudes(options)
    scaled = replace(
        options, pump_amplitude=10.0**pump, stokes_amplitude=10.0 ** (product - pump)
    )
    for tau in taus[:3]:
        base = _metrics(all_outcomes(model, n, tau, options))
        moved = _metrics(all_outcomes(model, n, tau, scaled))
        if isinstance(base, str):
            assert moved == base
        else:
            assert np.abs(np.subtract(moved, base)).max() < 1e-9


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_cached_runs(), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.integers(0))
def test_raman_amplitudes_are_linear_in_each_pulse_amplitude(
    model, run, alpha, beta, index
):
    n, taus, options = run
    options = _unit_amplitudes(options)
    run_model, window = prepare_model(model, options, n)
    bits = tuple((index >> k) & 1 for k in range(n))
    delay = taus[0] * vibrational_period(run_model, "B", PERIOD_LEVEL)

    def amplitudes(pump_amplitude, stokes_amplitude):
        scaled = replace(
            options, pump_amplitude=pump_amplitude, stokes_amplitude=stokes_amplitude
        )
        pump, stokes = design_pulses(run_model, window, bits, scaled, delay)
        return apply_stokes(run_model, prepare_first_order(run_model, pump, window), stokes)

    a = amplitudes(1.0, 1.0)
    for factor, pump_amplitude, stokes_amplitude in (
        (alpha, alpha, 1.0),
        (beta, 1.0, beta),
    ):
        error = amplitudes(pump_amplitude, stokes_amplitude) - factor * a
        assert np.abs(error).max() <= 1e-12 * factor * np.abs(a).max()


def _overlap_signs(model, window, v_target):
    """sigma_k = sign(fc[w_k, 0] fc[w_k, v_target]) over a window."""
    w_lo, w_hi = window
    return np.sign(model.fc[w_lo : w_hi + 1, 0] * model.fc[w_lo : w_hi + 1, v_target])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_cached_runs())
def test_the_idealised_limit_follows_the_overlap_signs(model, run):
    # flat envelopes, tailored overlaps, no delay: every channel weight has
    # one size, so only the overlap signs sigma_k tell the functions apart
    n, _, options = run
    options = replace(_unit_amplitudes(options), tailored=True, flat_envelopes=True)
    sigma = _overlap_signs(model, options.resolved_window(n), options.v_target)
    ideal = np.abs(np.where(_bit_matrix(n), -sigma, sigma).sum(axis=1)) / n
    signals = all_outcomes(model, n, 0.0, options).signals
    assert np.abs(signals / signals.max() - ideal).max() < 1e-13


def test_the_idealised_limit_is_exact_only_while_the_overlap_signs_agree(model):
    options = RunOptions(tailored=True, flat_envelopes=True)
    for n, window in DEFAULT_WINDOWS.items():
        sigma = _overlap_signs(model, window, options.v_target)
        d, r = _metrics(all_outcomes(model, n, 0.0, options))
        if n < 16:
            assert (sigma == sigma[0]).all(), n
            assert abs(d - 1.0) < 1e-12 and abs(r - 1.0) < 1e-12, n
    # the outer channels of the n = 16 window (14, 29) flip sign
    assert sigma.tolist() == [1.0] + [-1.0] * 14 + [1.0]
    assert d == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert r == pytest.approx(0.4839, abs=1e-4)


# Each library entry point on n = 4 points at one delay.
_LIBRARY_RUNS = {
    "all_outcomes": lambda model, options: all_outcomes(model, 4, 1.0, options),
    "sweep_delay": lambda model, options: sweep_delay(
        model, BooleanFunction((0, 1, 1, 0)), np.array([0.0, 1.0]), options
    ),
    "fidelity_table": lambda model, options: fidelity_table(model, (1.0,), options),
    "run_instance": lambda model, options: run_instance(
        model, BooleanFunction((0, 1, 1, 0)), 1.0, options
    ),
}


@pytest.mark.parametrize("call", list(_LIBRARY_RUNS))
def test_lines_below_zero_are_refused_naming_b_t_e_and_v_target(model, call):
    # the window's lines at v_target = 17 are -83.6, 6.1, 94.0 and 180.2
    # cm^-1; all_outcomes once returned D = -0.480 and r = 0.115 from them
    message = (
        "b_t_e = 1150 cm^-1 and v_target = 17 put the lowest line of upper levels "
        "20-23 at -83.62 cm^-1; lines must be positive"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _LIBRARY_RUNS[call](replace(model, t_e=1150.0), RunOptions(v_target=17))


@pytest.mark.parametrize(
    ("t_e", "v_target", "named"),
    [
        (1.0, 17, "b_t_e = 1 cm^-1 and v_target = 17 put"),
        (-3000.0, 4, "b_t_e = -3000 cm^-1 and lower level 0 put"),
        (1e20, 4, "b_t_e = 1e+20 cm^-1 swamps upper levels 20-23"),
        (1e308, 4, "b_t_e = 1e+308 cm^-1 swamps upper levels 20-23"),
    ],
)
def test_every_line_refusal_names_b_t_e(model, t_e, v_target, named):
    # these once read "center wavenumber must be positive", "transition
    # wavenumbers are not strictly ascending" or overflowed the pump's mean
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=f"^{re.escape(named)}"):
            all_outcomes(replace(model, t_e=t_e), 4, 1.0, RunOptions(v_target=v_target))
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize(
    ("field", "value"),
    [
        ("w_window", (20.5, 23.5)),
        ("w_window", (20, 23.0)),
        ("w_window", (20, 22, 23)),
        ("w_window", (False, True)),
        ("v_target", 2.5),
        ("v_target", True),
    ],
)
def test_run_options_refuse_levels_that_are_not_integers(field, value):
    # a float window or target once ended in IndexError inside all_outcomes
    what = "two integer levels" if field == "w_window" else "an integer level"
    message = f"{field} must be {what}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunOptions(**{field: value})


@pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
@pytest.mark.parametrize(
    "field", ["pump_duration", "stokes_duration", "pump_amplitude", "stokes_amplitude"]
)
def test_run_options_name_a_pulse_number_that_is_not_positive_and_finite(
    field, value
):
    # these once read "duration must be positive" or "amplitude must be
    # positive" from a pulse, or leaked invalid-value warnings from the weights
    message = f"{field} must be a positive finite number, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RunOptions(**{field: value})
    assert RunOptions(**{field: 1e-320}).resolved_pump_duration() > 0.0


def test_numpy_integer_levels_run_as_their_python_values(model):
    numpy_levels = RunOptions(
        w_window=(np.int64(20), np.int32(23)), v_target=np.int64(4)
    )
    assert numpy_levels == RunOptions(w_window=(20, 23), v_target=4)
    signals = all_outcomes(model, 4, 1.0, numpy_levels).signals
    assert signals.tobytes() == all_outcomes(model, 4, 1.0).signals.tobytes()


@pytest.mark.parametrize(
    ("n", "window"), [(17, (13, 29)), (18, (13, 30)), (0, None), (1, (22, 22))]
)
def test_a_domain_size_beyond_the_enumerable_range_is_refused(model, n, window):
    # n = 18 once returned 2^18 signals; nothing stopped 2^40. n = 1 was
    # admitted, then refused by the Stokes mask without naming n.
    message = f"domain size n must be an integer in [2, 16], got {n}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        all_outcomes(model, n, 1.0, RunOptions(w_window=window))
    with pytest.raises(ValueError, match=re.escape(message)):
        RunOptions(w_window=window).resolved_window(n)


@pytest.mark.parametrize(
    ("build", "named", "absent"),
    [
        ({"n_b": 20}, ("n_b_states",), ("b_d_e", "b_beta")),
        (
            {"b_params": replace(IODINE_B, d_e=400.0)},
            ("b_d_e", "b_beta", "reduced_mass"),
            ("n_b_states",),
        ),
        ({"n_x": 3}, ("n_x_states",), ("x_d_e", "x_beta")),
    ],
    ids=["n_b_states", "b_d_e", "n_x_states"],
)
def test_every_entry_point_names_the_key_that_keeps_a_missing_level(
    model, build, named, absent
):
    # A run that needs a level the model did not keep names the state count
    # when the request fell short, and the curve's keys when the bound-state
    # cutoff did; the library's level checks once named no key.
    short = build_model(**build)
    window, f = (20, 23), BooleanFunction((0, 1, 0, 1))
    pump = design_pump(model, window, 30.0)
    stokes = design_stokes(model, 4, window, (0, 0, 0, 0), 30.0)
    surface, level = ("X", 4) if "n_x" in build else ("B", PERIOD_LEVEL)
    calls = [
        lambda: all_outcomes(short, 4, 1.0),
        lambda: sweep_delay(short, f, np.array([0.0, 1.0])),
        lambda: fidelity_table(short),
        lambda: run_instance(short, f, 1.0),
        lambda: design_probe(short, PERIOD_LEVEL, 4),
        lambda: with_equalized_fc(short, window, 4),
        lambda: time_domain_oracle(short, pump, stokes, 4, window),
        lambda: random_oracle_configs(np.random.default_rng(0), short, 1),
        lambda: vibrational_period(short, surface, level),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^this run needs") as refusal:
            call()
        message = str(refusal.value)
        for key in named:
            assert re.search(rf"\b{key}\b", message), message
        for key in absent:
            assert not re.search(rf"\b{key}\b", message), message


# Each library call that takes levels, on a window, its bottom level and a
# lower level.  The oracle's pulses are unmasked and 5 fs long, so its
# quadrature converges on every window; the coherence is the default window's.
_LEVEL_CALLS = {
    "checked_window": checked_window,
    "transition_wavenumber": lambda m, w, v: transition_wavenumber(m, w[0], v),
    "vibrational_period": lambda m, w, v: vibrational_period(m, "B", w[0]),
    "design_pump": lambda m, w, v: design_pump(m, w, 30.0),
    "design_stokes": lambda m, w, v: design_stokes(
        m, v, w, (0,) * len(range(int(w[0]), int(w[1]) + 1)), 30.0
    ),
    "design_probe": lambda m, w, v: design_probe(m, w[0], v),
    "prepare_first_order": lambda m, w, v: prepare_first_order(
        m, design_pump(m, (20, 23), 30.0), w
    ),
    "with_equalized_fc": with_equalized_fc,
    "time_domain_oracle": lambda m, w, v: time_domain_oracle(
        m,
        PulseSpec(transition_wavenumber(m, 20, 0), 5.0),
        PulseSpec(transition_wavenumber(m, 20, 20), 5.0),
        v,
        w,
    ),
    "signal_magnitude": lambda m, w, v: signal_magnitude(
        apply_stokes(
            m,
            prepare_first_order(m, design_pump(m, (20, 23), 30.0), (20, 23)),
            design_stokes(m, 4, (20, 23), (0, 0, 0, 0), 30.0),
        ),
        v,
    ),
}
_LEVELS = (
    st.integers(-3, 45)
    | st.integers(-3, 45).map(np.int64)
    | st.sampled_from([22.0, 20.5, 4.0, -1.0, 45.5])
    | st.booleans()
)
# A window of one level is no level fault: design_stokes refuses its mask.
_WINDOWS = st.tuples(_LEVELS, _LEVELS).filter(lambda w: w[0] != w[1])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.sampled_from(list(_LEVEL_CALLS)),
    _WINDOWS.map(lambda w: tuple(sorted(w))) | _WINDOWS,
    _LEVELS,
)
def test_a_level_that_is_not_a_retained_integer_is_named(model, call, window, v):
    # float, bool and negative levels once ended in IndexError or TypeError,
    # or ran on levels 0 and 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            _LEVEL_CALLS[call](model, window, v)
        except ValueError as exc:
            assert re.match(
                r"^(empty window|target level|this run needs (upper|lower) level .+, but )",
                str(exc),
            ), str(exc)
    assert not caught, [str(w.message) for w in caught]


# Morse curves of the library fuzz beside the default: one binds only 31
# upper levels, one spaces the lower levels wider, lowering their lines.
_FUZZ_CURVES = (
    (IODINE_X, replace(IODINE_B, d_e=1000.0)),
    (replace(IODINE_X, beta=2.4), IODINE_B),
)


@lru_cache(maxsize=len(_FUZZ_CURVES))
def _fuzz_model(index):
    return build_model(*_FUZZ_CURVES[index])


_PULSE_NUMBERS = ("pump_duration", "stokes_duration", "pump_amplitude", "stokes_amplitude")


@st.composite
def _library_inputs(draw):
    """(n, RunOptions keywords, delay multiples) of one library run: mostly
    integer windows of n levels, up to n = 20, some of them out of range or
    of float or numpy levels, and at times one pulse number 0, -1, inf or nan."""
    n = draw(st.sampled_from([2, 4, 6, 8]) | st.integers(1, 20))
    window = draw(
        st.none()
        | st.integers(10, 20).map(lambda lo: (lo, lo + n - 1))
        | st.integers(-1, 40).map(lambda lo: (lo, lo + n - 1))
        | st.integers(0, 36).map(lambda lo: (lo + 0.5, lo + n - 0.5))
        | st.integers(0, 36).map(lambda lo: (np.int64(lo), np.int64(lo + n - 1)))
    )
    keywords = {
        "w_window": window,
        "v_target": draw(
            st.integers(0, 8)
            | st.integers(-1, 41)
            | st.sampled_from([2.5, np.int64(17)])
        ),
        "pump_duration": draw(st.sampled_from([None, None, 10.0, 1e300])),
        "stokes_duration": draw(st.sampled_from([30.0, 30.0, 1e-3, 1e300])),
        "pump_amplitude": draw(st.sampled_from([1.0, 1.0, 1e300, 1e-320])),
        "tailored": draw(st.booleans()),
        "flat_envelopes": draw(st.booleans()),
    }
    spoiled = draw(st.none() | st.sampled_from(_PULSE_NUMBERS))
    if spoiled is not None:
        keywords[spoiled] = draw(st.sampled_from([0.0, -1.0, np.inf, np.nan]))
    delays = st.sampled_from([0.0, 1.0, 2.5, -1.0, 1e308, np.nan])
    return n, keywords, tuple(draw(st.lists(delays, min_size=1, max_size=3)))


# The refusals of the line, level, retention, domain-size and equal-signal
# checks, which name their field, n, b_t_e, the curve's keys or the durations
# (a Stokes pulse so long that it reaches one line alone leaves a
# fidelity_table cell every signal equal), then those a drawn run may meet
# for other reasons.  A level refusal names a negative level only if one was
# drawn.
_NAMED_REFUSAL = re.compile(
    r"^b_t_e = \S+ cm\^-1 (and (v_target = -?\d+|lower level 0) put the lowest line"
    r"|swamps upper levels)|^(w_window|v_target|(pump|stokes)_(duration|amplitude))"
    r" must be|^domain size n must"
    r"|^stokes_duration = \S+ and pump_duration = \S+ fs leave every signal of n ="
    r"|^this run needs (upper|lower) level -?\d+, but"
)
_OTHER_REFUSAL = re.compile(
    r"^(empty window|no default window|delay multiple"
    r"|pump_amplitude = |cannot equalise|constant-function signal vanished)"
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    st.sampled_from(["all_outcomes", "sweep_delay", "fidelity_table"]),
    st.sampled_from([None, *range(len(_FUZZ_CURVES))]),
    st.floats(1e4, 3e4)
    | st.floats(0.0, 3e4)
    | st.sampled_from([0.0, 1.0, 1150.0, 15647.0, 1e20, 1e308])
    | st.floats(0.0, 1e308),
    _library_inputs(),
)
def test_any_library_run_gives_finite_signals_or_names_what_is_wrong(
    model, call, curves, t_e, inputs
):
    # a run returns finite signals from positive lines, or raises a
    # ValueError that says what is wrong; never IndexError, TypeError or a
    # warning
    n, keywords, taus = inputs
    base = model if curves is None else _fuzz_model(curves)
    run_model = replace(base, t_e=t_e)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            options = RunOptions(**keywords)
            if call == "all_outcomes":
                signals = all_outcomes(run_model, n, taus[0], options).signals
                runs = [(n, options, signals)]
            elif call == "sweep_delay":
                f = BooleanFunction(tuple(k % 2 for k in range(n)))
                trace = sweep_delay(run_model, f, np.array(taus), options)
                runs = [(n, options, trace)]
            else:
                runs = [
                    (m.n, row_options(options, m.n, m.tailored), m.outcomes.signals)
                    for m in fidelity_table(run_model, taus, options)
                ]
        except ValueError as exc:
            message = str(exc)
            assert _NAMED_REFUSAL.search(message) or _OTHER_REFUSAL.search(message), (
                message
            )
            levels = (*(keywords["w_window"] or ()), keywords["v_target"])
            negative = re.match(r"^this run needs \w+ level (-\d+), but", message)
            if negative:
                assert int(negative[1]) in levels, message
            if not all(isinstance(v, (int, np.integer)) for v in levels):
                assert re.match("^(w_window|v_target) must be", message), message
            elif not all(
                keywords.get(key) is None or 0.0 < keywords[key] < np.inf
                for key in _PULSE_NUMBERS
            ):
                assert re.match(r"^(pump|stokes)_(duration|amplitude) must", message)
            elif n > 16 and call != "fidelity_table":
                assert message.startswith("domain size n must"), message
        else:
            for size, run_options, values in runs:
                assert np.isfinite(values).all()
                w_lo, w_hi = run_options.resolved_window(size)
                for v in (0, run_options.v_target):
                    assert (run_model.nu[w_lo : w_hi + 1, v] > 0.0).all()
    assert not caught, [str(w.message) for w in caught]
