"""Boolean encoding, outcome bookkeeping, and the fidelity metrics."""

from dataclasses import replace

import numpy as np
import pytest

from carsdj.algorithm import (
    DEFAULT_PUMP_DURATION,
    DEFAULT_TAILORED_PUMP_DURATION,
    DEFAULT_WINDOWS,
    PERIOD_LEVEL,
    BooleanFunction,
    DJOutcome,
    FidelityMetrics,
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
    table_metrics,
    table_outcomes,
)

_KERNEL_TAUS = (0.0, 0.5, 1.0, 1.5, 2.0)


def _outcome(f, signal, tau=0.0):
    return DJOutcome(
        function=f, tau_fs=tau, tau_multiple=0.0, signal=signal, s_n=s_n(f)
    )


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
    assert DEFAULT_WINDOWS == {2: (21, 22), 4: (20, 23), 6: (19, 24), 8: (18, 25)}
    assert PERIOD_LEVEL == 22
    assert opts.resolved_window(4) == (20, 23)
    assert opts.resolved_window(8) == (18, 25)
    assert RunOptions(w_window=(10, 13)).resolved_window(4) == (10, 13)
    with pytest.raises(ValueError, match="no default window"):
        opts.resolved_window(10)
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
    assert [o.function.index for o in outs] == list(range(4))


def test_complementary_functions_are_indistinguishable(model):
    # flipping every bit negates each transfer term, leaving the magnitude
    for tau in (0.0, 1.0):
        outs = all_outcomes(model, 4, tau)
        by_bits = {o.function.bits: o.signal for o in outs}
        for bits, signal in by_bits.items():
            assert signal == by_bits[tuple(1 - b for b in bits)]


def test_constant_functions_give_the_largest_signal(model):
    for n in (4, 6):
        for tau in (0.0, 1.0):
            outs = all_outcomes(model, n, tau)
            const = max(
                o.signal for o in outs if o.function.classification == "constant"
            )
            assert max(o.signal for o in outs) == const


def test_sweep_columns(model):
    multiples = np.array([0.0, 0.5, 1.0])
    trace = sweep_delay(model, BooleanFunction((0, 0, 0, 0)), multiples)
    assert trace.shape == (3, 2)
    np.testing.assert_allclose(trace[:, 0], multiples * 387.38497165, atol=1e-3)
    assert np.all(trace[:, 1] >= 0.0)


def test_distinguishability_bookkeeping():
    c0 = BooleanFunction((0, 0))
    c1 = BooleanFunction((1, 1))
    b = BooleanFunction((0, 1))
    outs = [_outcome(c0, 1.0), _outcome(c1, 1.0), _outcome(b, 0.25)]
    assert distinguishability(outs) == pytest.approx(0.75)
    with pytest.raises(ValueError, match="empty"):
        distinguishability([])
    with pytest.raises(ValueError, match="constant-function outcome"):
        distinguishability([_outcome(b, 0.5)])
    with pytest.raises(ValueError, match="balanced-function outcome"):
        distinguishability([_outcome(c0, 0.5)])
    with pytest.raises(ValueError, match="disagree"):
        distinguishability(
            [_outcome(c0, 1.0), _outcome(c1, 0.5), _outcome(b, 0.2)]
        )
    with pytest.raises(ValueError, match="delays"):
        distinguishability([_outcome(c0, 1.0), _outcome(b, 0.5, tau=100.0)])
    with pytest.raises(ValueError, match="vanished"):
        distinguishability(
            [_outcome(c0, 0.0), _outcome(c1, 0.0), _outcome(b, 0.0)]
        )


def test_correlation_requires_a_spread():
    c0 = BooleanFunction((0, 0))
    b = BooleanFunction((0, 1))
    with pytest.raises(ValueError, match="at least three"):
        pearson_r([_outcome(c0, 1.0), _outcome(b, 0.5)])
    balanced_only = [
        _outcome(BooleanFunction((0, 1)), 0.5),
        _outcome(BooleanFunction((1, 0)), 0.6),
        _outcome(BooleanFunction((0, 1)), 0.7),
    ]
    with pytest.raises(ValueError, match="degenerate"):
        pearson_r(balanced_only)


def test_idealized_run_classifies_perfectly(model):
    # flat envelopes plus equalized overlaps at zero delay: the signal is
    # exactly proportional to |sum_k (-1)^f(k)|
    opts = RunOptions(tailored=True, flat_envelopes=True)
    outs = all_outcomes(model, 4, 0.0, opts)
    signals = np.array([o.signal for o in outs])
    ideal = np.array([abs(o.s_n) for o in outs], dtype=float)
    const = max(
        o.signal for o in outs if o.function.classification == "constant"
    )
    np.testing.assert_allclose(signals / const, ideal / 4.0, rtol=0, atol=1e-12)
    assert distinguishability(outs) == pytest.approx(1.0, abs=1e-12)
    assert pearson_r(outs) == pytest.approx(1.0, abs=1e-12)


def test_metrics_ignore_overall_signal_scale(model):
    outs = all_outcomes(model, 4, 1.0)
    scaled = [replace(o, signal=o.signal * 3.7) for o in outs]
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
    m = FidelityMetrics(n=4, tau_multiple=0.0, tailored=False, r=0.978, d=0.8649)
    assert m.r_pct == 98
    assert m.d_pct == 86


def test_fidelity_table_is_built_from_table_outcomes(model):
    table = table_outcomes(model, (1.0,), ((4, False), (8, True)))
    assert [(row, len(cells)) for row, cells in table] == [
        ((4, False), 1), ((8, True), 1),
    ]
    direct = all_outcomes(model, 8, 1.0, RunOptions(tailored=True))
    assert [o.signal for o in table[1][1][0]] == [o.signal for o in direct]
    rows = ((4, False), (8, True))
    assert fidelity_table(model, (1.0,), rows) == table_metrics(table)


def test_table_rows_of_another_size_use_default_windows(model):
    # a configured window applies only to the row whose n matches it
    options = RunOptions(w_window=(20, 25))
    table = dict(table_outcomes(model, (1.0,), ((4, False), (6, False)), options))
    default_4 = all_outcomes(model, 4, 1.0)
    shifted_6 = all_outcomes(model, 6, 1.0, options)
    assert [o.signal for o in table[(4, False)][0]] == [o.signal for o in default_4]
    assert [o.signal for o in table[(6, False)][0]] == [o.signal for o in shifted_6]


def test_enumeration_returns_a_fresh_list_each_call():
    first = enumerate_functions(4)
    first.clear()
    assert len(enumerate_functions(4)) == 16
    assert enumerate_functions(6) is not enumerate_functions(6)
    # small domains share their immutable functions; large ones are not kept
    assert enumerate_functions(12)[5] is enumerate_functions(12)[5]
    assert enumerate_functions(13)[5] is not enumerate_functions(13)[5]


@pytest.mark.parametrize("n", [2, 4, 6, 8])
@pytest.mark.parametrize(
    "options",
    [RunOptions(), RunOptions(tailored=True), RunOptions(flat_envelopes=True)],
    ids=["plain", "tailored", "flat"],
)
def test_kernel_equals_run_instance_exactly(model, n, options):
    for tau in _KERNEL_TAUS:
        for o in all_outcomes(model, n, tau, options):
            ref = run_instance(model, o.function, tau, options)
            assert o.signal == ref.signal
            assert o.tau_fs == ref.tau_fs
            assert o.s_n == ref.s_n


@pytest.mark.parametrize(
    "n, window, tau", [(10, (17, 26), 1.5), (12, (16, 27), 0.5)]
)
def test_kernel_equals_run_instance_on_wide_windows(model, n, window, tau):
    options = RunOptions(w_window=window)
    outs = all_outcomes(model, n, tau, options)
    assert len(outs) == 2**n
    for o in outs:
        assert o.signal == run_instance(model, o.function, tau, options).signal


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
    outs = all_outcomes(model, 16, 1.0, RunOptions(w_window=(14, 29)))
    signals = np.array([o.signal for o in outs])
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
        channel_weights(model, 10, (0.0,))
    with pytest.raises(ValueError, match="upper level"):
        channel_weights(model, 4, (0.0,), RunOptions(w_window=(38, 41)))
    with pytest.raises(ValueError, match="outside retained"):
        channel_weights(model, 4, (0.0,), RunOptions(w_window=(38, 41), tailored=True))
    with pytest.raises(ValueError, match="lower level"):
        channel_weights(model, 4, (0.0,), RunOptions(v_target=40))
    with pytest.raises(ValueError, match="lower level"):
        channel_weights(model, 4, (0.0,), RunOptions(v_target=-1))
