"""Boolean encoding, outcome bookkeeping, and the fidelity metrics."""

from dataclasses import replace

import numpy as np
import pytest

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
    all_outcomes,
    channel_weights,
    distinguishability,
    enumerate_functions,
    fidelity_table,
    pearson_r,
    run_instance,
    s_n,
    sweep_delay,
)

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


def test_run_instance_records_the_delay(model):
    out = run_instance(model, BooleanFunction((0, 0, 0, 0)), 1.0)
    assert out.tau_multiple == 1.0
    assert out.tau_fs == pytest.approx(387.38497165, abs=1e-4)
    assert out.s_n == 4
    assert out.signal > 0.0


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
    for tau in _KERNEL_TAUS:
        outs = all_outcomes(model, n, tau, options)
        for f, signal, signed_sum in zip(
            enumerate_functions(n), outs.signals, outs.s_n
        ):
            ref = run_instance(model, f, tau, options)
            assert signal == ref.signal
            assert outs.tau_fs == ref.tau_fs
            assert signed_sum == ref.s_n


@pytest.mark.parametrize(
    "n, window, tau", [(10, (17, 26), 1.5), (12, (16, 27), 0.5), (10, None, 1.0)]
)
def test_kernel_equals_run_instance_on_wide_windows(model, n, window, tau):
    options = RunOptions(w_window=window)
    outs = all_outcomes(model, n, tau, options)
    assert outs.signals.shape == (2**n,)
    for f, signal in zip(enumerate_functions(n), outs.signals):
        assert signal == run_instance(model, f, tau, options).signal


def test_sweep_equals_run_instance_exactly(model):
    multiples = np.linspace(0.0, 2.5, 501)
    for f in enumerate_functions(4):
        trace = sweep_delay(model, f, multiples)
        expected = np.array(
            [
                (o.tau_fs, o.signal)
                for o in (run_instance(model, f, float(m)) for m in multiples)
            ]
        )
        assert np.array_equal(trace, expected)


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
    assert abs(z[1].sum()) == pytest.approx(run_instance(model, constant, 1.0).signal)


def test_channel_weights_reject_bad_windows_and_targets(model):
    with pytest.raises(ValueError, match="holds 3 levels"):
        channel_weights(model, 4, (0.0,), RunOptions(w_window=(20, 22)))
    with pytest.raises(ValueError, match="no default window"):
        channel_weights(model, 3, (0.0,))
    with pytest.raises(ValueError, match="upper level"):
        channel_weights(model, 4, (0.0,), RunOptions(w_window=(38, 41)))
    with pytest.raises(ValueError, match="outside retained"):
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
    r = float(np.corrcoef(np.array(signals.tolist()), ideal)[0, 1])
    return d, r


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
