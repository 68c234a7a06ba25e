"""Command-line interface: config parsing, outputs, and exit codes."""

import dataclasses
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import carsdj.cli as cli
from carsdj import RunOptions, all_outcomes
from carsdj.cli import ConfigError, main, parse_config


def _read_csv(path):
    lines = [
        line
        for line in Path(path).read_text().splitlines()
        if not line.startswith("#")
    ]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _header_lines(path):
    return [
        line for line in Path(path).read_text().splitlines() if line.startswith("#")
    ]


def test_default_config_resolves_the_benchmark_setup():
    cfg = parse_config("")
    assert cfg.n == 4
    assert cfg.v_target == 4
    assert cfg.resolved_window() == (20, 23)
    assert cfg.resolved_pump_duration() == 30.0
    assert cfg.tau == (0.0, 1.0, 2.0)
    assert cfg.sweep_points == 501


def test_config_tailored_window_and_duration():
    cfg = parse_config("n = 8\ntailored = true\n")
    assert cfg.resolved_window() == (18, 25)
    assert cfg.resolved_pump_duration() == 10.0
    assert cfg.run_options().tailored is True


def test_config_comments_and_auto_values():
    cfg = parse_config("# heading\nn = 6  # trailing comment\npump_duration = auto\n")
    assert cfg.n == 6
    assert cfg.pump_duration is None
    assert cfg.resolved_window() == (19, 24)


def test_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2: unknown key"):
        parse_config("n = 4\nbogus_key = 1\n")
    with pytest.raises(ConfigError, match="line 3: duplicate key"):
        parse_config("n = 4\n\nn = 6\n")
    with pytest.raises(ConfigError, match="line 1: expected a number"):
        parse_config("r_min = abc\n")
    with pytest.raises(ConfigError, match="line 1: expected key=value"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="must be even"):
        parse_config("n = 5\n")
    with pytest.raises(ConfigError, match="line 1: n must be between 2 and 16"):
        parse_config("n = 18\n")
    with pytest.raises(ConfigError, match="line 1: n_points must be at most 8192"):
        parse_config("n_points = 1000000\n")
    with pytest.raises(ConfigError, match="line 2: sweep_points must be at most 1000000"):
        parse_config("n = 4\nsweep_points = 1000000000000\n")


def test_config_cross_checks():
    with pytest.raises(ConfigError, match="w_min and w_max must be set together"):
        parse_config("w_min = 20\n")
    with pytest.raises(ConfigError, match="holds 6 levels"):
        parse_config("n = 4\nw_min = 20\nw_max = 25\n")
    assert parse_config("n = 10\n").resolved_window() == (17, 26)
    assert parse_config("n = 12\n").resolved_window() == (16, 27)
    assert parse_config("n = 16\n").resolved_window() == (14, 29)
    with pytest.raises(ConfigError, match="r_min"):
        parse_config("r_min = 6.0\nr_max = 3.0\n")
    with pytest.raises(ConfigError, match="v_target"):
        parse_config("v_target = 40\n")
    with pytest.raises(ConfigError, match="n_x_states .* n_points"):
        parse_config("n_points = 16\n")
    with pytest.raises(ConfigError, match="n_b_states .* n_points"):
        parse_config("n_points = 30\nn_x_states = 30\n")


def test_every_config_is_cross_checked_when_made():
    # dataclasses.replace once skipped the checks that parse_config ran
    with pytest.raises(ConfigError, match="w_min and w_max must be set together"):
        dataclasses.replace(parse_config(""), w_min=20)
    with pytest.raises(ConfigError, match="holds 6 levels for a domain of 4"):
        cli.ExperimentConfig(w_min=18, w_max=23)


def _problem(make) -> str | None:
    """The ConfigError message of ``make()``, or None when it succeeds."""
    try:
        make()
    except ConfigError as exc:
        return str(exc)
    return None


def _config_text(value) -> str:
    """A config file's text of one value."""
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return repr(value) if isinstance(value, float) else str(value)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
# Values of each annotation, in and out of every key's range; out_dir's
# alphabet avoids whitespace and '#', which the file format strips.
_VALUES = {
    "float": _FLOATS | st.sampled_from([0.0, -1.0, 1e-300]),
    "int": st.integers(-(10**6), 10**12) | st.integers(-3, 20),
    "bool": st.booleans(),
    "tuple[float, ...]": st.lists(_FLOATS, max_size=3).map(tuple),
    "str": st.text(alphabet="ab/.\0", max_size=4),
}


def _key_values(key: dataclasses.Field):
    """A key's name and a value of its annotation (None too for an auto key)."""
    kind = key.type.removesuffix(" | None")
    values = _VALUES[kind]
    if kind != key.type:
        values |= st.none()
    return st.tuples(st.just(key.name), values)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.sampled_from(dataclasses.fields(cli.ExperimentConfig)).flatmap(_key_values))
@example(("oracle_configs", 10**9))
@example(("out_dir", ""))
@example(("out_dir", "a\0b"))
@example(("tau", ()))
@example(("tau", (-1.0,)))
@example(("pump_amplitude", -1.0))
@example(("n_points", 8193))
def test_a_config_made_by_hand_is_checked_as_the_parser_checks_it(item):
    # a config made by hand once skipped every per-key range rule
    key, value = item
    by_hand = _problem(lambda: cli.ExperimentConfig(**{key: value}))
    parsed = _problem(lambda: parse_config(f"{key} = {_config_text(value)}\n"))
    assert by_hand == (parsed and parsed.removeprefix("line 1: "))
    if parsed is not None and parsed.startswith("line 1: "):
        assert re.search(rf"\b{key}\b", by_hand), by_hand


def test_a_replaced_config_is_range_checked():
    with pytest.raises(ConfigError, match="^tau needs at least one delay multiple$"):
        dataclasses.replace(parse_config(""), tau=())


def test_an_out_dir_with_a_nul_byte_is_named(tmp_path, capsys):
    # it once ended in "error: embedded null byte", naming no key
    config = tmp_path / "run.conf"
    config.write_text("out_dir = a\0b\n")
    assert main(["eigen", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err == "error: line 1: out_dir must not hold a NUL byte\n"


def test_a_flag_replaces_its_key_before_the_cross_checks(tmp_path):
    # the file's window alone fits no domain of 4 points; --n 6 rescues it
    config = tmp_path / "run.conf"
    config.write_text("w_min = 19\nw_max = 24\nsweep_points = 3\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--n", "6", "--out", str(out)]) == 0
    header = _header_lines(out / "sweep_000000.csv")
    assert "# n=6" in header and "# w_min=19" in header and "# w_max=24" in header


def test_a_flag_that_breaks_the_file_window_is_refused(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("n = 6\nw_min = 19\nw_max = 24\n")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(config), "--n", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: window [19, 24] holds 6 levels for a domain of 4 points" in err
    assert not out.exists()


def test_a_malformed_flag_is_named_before_the_file_cross_checks(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("w_min = 20\n")
    assert main(["eigen", "--config", str(config), "--n", "5"]) == 1
    assert "error: invalid --n: n must be even" in capsys.readouterr().err


def test_oracle_configs_is_bounded():
    # every configuration is drawn before the first quadrature
    assert parse_config("oracle_configs = 100000\n").oracle_configs == 100000
    with pytest.raises(
        ConfigError, match="line 1: oracle_configs must be at most 100000, got 100001"
    ):
        parse_config("oracle_configs = 100001\n")


def test_config_header_round_trips_through_the_parser(tmp_path):
    # every key's value type: auto, tau lists, booleans, ints, floats, text
    config = tmp_path / "run.conf"
    config.write_text(
        "n = 6\ntau = 0.5, 1.25\ntailored = yes\npump_duration = auto\n"
        "b_d_e = 4500.5\ndump_wavefunctions = false\n"
    )
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["eigen", "--config", str(config), "--out", str(first)]) == 0
    header = _header_lines(first / "eigen_x.csv")
    assert "# w_min=19" in header and "# pump_duration=10" in header
    assert "# tau=0.5,1.25" in header and "# tailored=true" in header
    config.write_text("\n".join(line[2:] for line in header[1:]) + "\n")
    assert main(["eigen", "--config", str(config), "--out", str(second)]) == 0
    assert _header_lines(second / "eigen_x.csv") == [
        line.replace(str(first), str(second)) for line in header
    ]


def test_eigen_writes_level_tables(tmp_path, capsys):
    assert main(["eigen", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out and "40 rows" in out
    for tag in ("x", "b"):
        path = tmp_path / f"eigen_{tag}.csv"
        header, rows = _read_csv(path)
        assert header == ["index", "energy_cm1", "analytic_cm1", "delta_cm1"]
        assert len(rows) == 40
        for cells in rows:
            energy, analytic = float(cells[1]), float(cells[2])
            assert abs(float(cells[3])) / analytic < 1e-6
            assert abs(energy - analytic - float(cells[3])) < 1e-9
        comments = _header_lines(path)
        assert "# command=eigen" in comments
        assert "# n=4" in comments
        assert "# w_min=20" in comments
        assert "# w_max=23" in comments
        assert "# pump_duration=30" in comments


def test_fc_writes_the_full_overlap_table(tmp_path):
    assert main(["fc", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "fc.csv")
    assert header == ["w", "v", "fc", "nu_cm1"]
    assert len(rows) == 1600


def test_eigen_dumps_unit_norm_wavefunctions(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("dump_wavefunctions = true\n")
    assert main(["eigen", "--config", str(config), "--out", str(tmp_path)]) == 0
    for tag in ("x", "b"):
        header, rows = _read_csv(tmp_path / f"wavefunctions_{tag}.csv")
        assert header == ["index", "energy_cm1"] + [f"c{j}" for j in range(512)]
        _, levels = _read_csv(tmp_path / f"eigen_{tag}.csv")
        assert [cells[:2] for cells in rows] == [cells[:2] for cells in levels]
        coefficients = np.array([[float(c) for c in cells[2:]] for cells in rows])
        np.testing.assert_allclose((coefficients**2).sum(axis=1), 1.0, atol=1e-9)


def test_fc_tailored_equalizes_the_window_channels(tmp_path):
    plain, tailored = tmp_path / "plain", tmp_path / "tailored"
    assert main(["fc", "--out", str(plain)]) == 0
    assert main(["fc", "--tailored", "--out", str(tailored)]) == 0
    _, plain_rows = _read_csv(plain / "fc.csv")
    _, rows = _read_csv(tailored / "fc.csv")
    assert len(rows) == len(plain_rows) == 1600
    channels = {0: set(), 4: set()}
    for cells, plain_cells in zip(rows, plain_rows):
        w, v = int(cells[0]), int(cells[1])
        if 20 <= w <= 23 and v in channels:
            channels[v].add(abs(float(cells[2])))
            assert cells[3] == plain_cells[3]
        else:
            assert cells == plain_cells
    assert all(len(magnitudes) == 1 for magnitudes in channels.values())


def test_pulses_writes_spectra_for_each_mask(tmp_path):
    assert main(["pulses", "--out", str(tmp_path), "--mask", "0101,0000"]) == 0
    for name in ("pump.csv", "probe.csv", "stokes_0101.csv", "stokes_0000.csv"):
        header, rows = _read_csv(tmp_path / name)
        assert header == ["nu_cm1", "re_amp", "im_amp"]
        assert len(rows) == 2001
    comments = _header_lines(tmp_path / "stokes_0101.csv")
    assert any(line.startswith("# mask=0101") for line in comments)
    assert any(line.startswith("# tau_b_fs=387.38497") for line in comments)


def test_flat_pulses_have_constant_magnitude(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("flat = true\n")
    assert main(["pulses", "--config", str(config), "--out", str(tmp_path)]) == 0
    _, rows = _read_csv(tmp_path / "probe.csv")
    amps = np.array([complex(float(c[1]), float(c[2])) for c in rows])
    assert len(amps) == 2001
    np.testing.assert_allclose(np.abs(amps), 1.0, rtol=1e-11)


def _per_cell_fmt(value) -> str:
    # the per-cell formatter the column writer replaced, kept as its reference
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def test_column_writer_equals_the_per_cell_join(tmp_path):
    rng = np.random.default_rng(5)
    count = 2000
    floats = rng.standard_normal(count) * 10.0 ** rng.integers(-310, 308, count)
    floats[:9] = [np.inf, -np.inf, np.nan, -0.0, 0.0, 1e300, -1e-300, 5e-324, 1e12 + 1]
    ints = rng.integers(-(10**15), 10**15, count)
    ints[:4] = [0, -1, 10**12 + 1, 2**62]
    columns = {
        "float": floats,
        "int": ints,
        "bool": (rng.random(count) < 0.5).tolist(),
        "str": ["".join(rng.choice(list("01ab"), 4)) for _ in range(count)],
        "float_list": rng.uniform(-1e13, 1e13, count).tolist(),
        "int_list": rng.integers(10**12, 10**17, count).tolist(),
    }
    path = tmp_path / "cells.csv"
    cli._write_csv(path, ["# command=test"], cli.Table(path.name, columns))
    header, rows = _read_csv(path)
    assert header == list(columns)
    cells = list(zip(*columns.values()))
    reference = [",".join(_per_cell_fmt(cell) for cell in row) for row in cells]
    assert [",".join(row) for row in rows] == reference
    # the header's formatter follows the same rule
    assert [",".join(cli._fmt(cell) for cell in row) for row in cells] == reference


def test_sweep_default_masks_and_reproducible_bytes(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("n = 2\nsweep_points = 21\n")
    out = tmp_path / "first"
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    for name in ("sweep_00.csv", "sweep_01.csv"):
        header, rows = _read_csv(out / name)
        assert header == ["tau_fs", "tau_multiple", "A"]
        assert len(rows) == 21
    first = (out / "sweep_00.csv").read_bytes()
    assert main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "sweep_00.csv").read_bytes() == first


def test_table1_writes_metrics_and_outcomes(tmp_path, capsys):
    assert main(["table1", "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "metrics.csv")
    assert header == ["n", "tau_multiple", "tailored", "r", "d", "r_pct", "d_pct"]
    assert len(rows) == 12
    cell = {(c[0], c[1], c[2]): c for c in rows}
    benchmark = cell[("4", "1", "false")]
    assert benchmark[5] == "98"
    assert benchmark[6] == "86"
    for name, count in (
        ("outcomes_n4.csv", 16 * 3),
        ("outcomes_n6.csv", 64 * 3),
        ("outcomes_n8.csv", 256 * 3),
        ("outcomes_n8t.csv", 256 * 3),
    ):
        header, rows = _read_csv(tmp_path / name)
        assert header == [
            "mask_index", "bits", "class", "s_n", "tau_fs", "tau_multiple", "A",
        ]
        assert len(rows) == count
    assert "tailored" in capsys.readouterr().out


def test_table1_keeps_a_configured_window_to_its_own_row(tmp_path, model):
    # rows of another size than the configured window use default windows
    config = tmp_path / "run.conf"
    config.write_text("n = 6\nw_min = 20\nw_max = 25\ntau = 1\n")
    assert main(["table1", "--config", str(config), "--out", str(tmp_path)]) == 0
    for name, n, options in (
        ("outcomes_n4.csv", 4, RunOptions()),
        ("outcomes_n6.csv", 6, RunOptions(w_window=(20, 25))),
        ("outcomes_n8t.csv", 8, RunOptions(tailored=True)),
    ):
        _, rows = _read_csv(tmp_path / name)
        signals = all_outcomes(model, n, 1.0, options).signals
        expected = [f"{signal:.12g}" for signal in signals]
        assert [cells[-1] for cells in rows] == expected
    assert "# w_min=20" in _header_lines(tmp_path / "metrics.csv")
    # the default window of n = 4, given explicitly, also runs every row
    config.write_text("w_min = 20\nw_max = 23\n")
    assert main(["table1", "--config", str(config), "--out", str(tmp_path)]) == 0


def test_table1_needs_only_the_levels_its_rows_run(tmp_path, capsys):
    # the rows' default windows reach upper level 25, the n = 8 rows' (18, 25)
    config = tmp_path / "run.conf"
    config.write_text("n = 4\nn_b_states = 28\n")
    assert main(["table1", "--config", str(config), "--out", str(tmp_path)]) == 0
    config.write_text("n = 4\nn_b_states = 25\n")
    assert main(["table1", "--config", str(config), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "needs upper level 25, but n_b_states = 25" in err


@pytest.mark.parametrize("n", [2, 10, 12, 14, 16])
def test_table1_refuses_a_domain_size_no_row_runs(tmp_path, capsys, n):
    # n = 16 once exited 0 echoing n = 16 and the window (14, 29), which no row ran
    out = tmp_path / "out"
    assert main(["table1", "--n", str(n), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: n = {n} does not apply to table1: its rows run n = 4, 6, 8" in err
    assert list(out.iterdir()) == []


def test_oracle_check_passes_on_a_small_sample(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("oracle_configs = 5\n")
    assert main(["oracle-check", "--config", str(config), "--out", str(tmp_path)]) == 0
    header, rows = _read_csv(tmp_path / "oracle_check.csv")
    assert header[-1] == "rel_dev"
    assert len(rows) == 5
    assert all(float(cells[-1]) < 1e-6 for cells in rows)


@pytest.mark.parametrize(
    ("text", "command", "retained"),
    [
        ("n_b_states = 20\n", "sweep", 20),
        ("n_b_states = 20\n", "table1", 20),
        ("n_b_states = 20\n", "pulses", 20),
        ("b_d_e = 400\n", "sweep", 19),
        ("n = 8\ntailored = true\nn_b_states = 24\n", "fc", 24),
        ("w_min = 20\nw_max = 23\nn_b_states = 20\n", "sweep", 20),
    ],
)
def test_too_few_upper_levels_name_the_key(tmp_path, capsys, text, command, retained):
    config = tmp_path / "run.conf"
    config.write_text(text)
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "n_b_states" in err and f"retained only {retained} upper levels" in err


def test_runs_that_need_no_window_accept_few_upper_levels(tmp_path):
    config = tmp_path / "run.conf"
    # an explicit window is checked against the retained levels only by runs that use it
    for text in ("n_b_states = 20\n", "w_min = 20\nw_max = 23\nn_b_states = 20\n"):
        config.write_text(text)
        for command in ("eigen", "fc"):
            assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("sub", ["", "sub"])
def test_an_output_path_that_is_a_file_exits_with_code_one(tmp_path, capsys, sub):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / sub if sub else afile
    assert main(["eigen", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"cannot write to out_dir {str(out)!r}" in err
    assert afile.read_text() == "kept\n"


def test_an_empty_out_flag_is_refused_as_an_empty_out_dir(
    tmp_path, capsys, monkeypatch
):
    # "" once wrote into the working directory
    monkeypatch.chdir(tmp_path)
    assert main(["eigen", "--out", ""]) == 1
    assert "invalid --out: out_dir must not be empty" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    ("text", "command", "key"),
    [
        ("tau = 1e308\n", "pulses", "tau"),
        ("tau = 0, 1e308\n", "table1", "tau"),
        ("tau = 2e305\n", "table1", "tau"),
        ("sweep_max_multiple = 1e308\n", "sweep", "sweep_max_multiple"),
    ],
)
def test_delays_that_overflow_exit_with_code_one(tmp_path, capsys, text, command, key):
    config = tmp_path / "run.conf"
    config.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {key} = " in err and "overflows the phase" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    ("text", "message"),
    [
        (
            "n_points = 16\nn_x_states = 16\nn_b_states = 16\n",
            "n_points = 16 too coarse",
        ),
        ("n_points = 100\n", "n_points = 100 too coarse"),
        ("n_points = 200\n", "n_points = 200 too coarse"),
        ("r_max = 4.0\n", "grid [2.0, 4.0] angstrom too small"),
        ("x_d_e = 1e300\n", "x_d_e, x_beta and reduced_mass make the Morse well"),
        ("b_d_e = 1e300\n", "b_d_e, b_beta and reduced_mass make the Morse well"),
        ("reduced_mass = 1e300\n", "x_d_e, x_beta and reduced_mass make the"),
        ("reduced_mass = 1e-320\n", "error: reduced_mass = 1e-320 amu and a grid"),
        ("reduced_mass = 5e-324\n", "error: reduced_mass = 4.941e-324 amu and a"),
        ("reduced_mass = 2e-303\n", "error: reduced_mass = 2e-303 amu and a grid"),
        ("x_beta = 300\n", "x_d_e = 1.255e+04 and x_beta = 300 make the lower"),
        ("b_beta = 300\n", "b_d_e = 4500 and b_beta = 300 make the upper"),
        ("x_beta = 1e-300\n", "x_r_e = 2.666 and x_beta = 1e-300 put the inner"),
        ("b_beta = 1e-300\n", "b_r_e = 3.016 and b_beta = 1e-300 put the inner"),
        ("x_r_e = 1e-300\n", "x_r_e = 1e-300 and x_beta = 1.858 put the inner"),
        ("reduced_mass = 1e-300\n", "x_beta = 1.858 and reduced_mass = 1e-300 bind no"),
        ("x_d_e = 1e-300\n", "x_d_e = 1e-300, x_beta = 1.858 and reduced_mass = 63.45"),
        ("b_d_e = 1e-300\n", "b_d_e = 1e-300, b_beta = 1.85 and reduced_mass = 63.45"),
    ],
)
def test_grid_problems_name_their_cause(tmp_path, capsys, text, message):
    config = tmp_path / "run.conf"
    config.write_text(text)
    assert main(["eigen", "--config", str(config), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert message in err
    # numbers are shown to four significant digits, never in full
    assert len(err) < 200


@pytest.mark.parametrize(
    ("text", "command", "tag"),
    [
        ("x_beta = 1000\n", "eigen", "x"),
        ("b_beta = 400\n", "pulses", "b"),
        ("x_r_e = 1e300\n", "eigen", "x"),
    ],
)
def test_morse_curves_that_overflow_name_their_keys(tmp_path, capsys, text, command, tag):
    config = tmp_path / "run.conf"
    config.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {tag}_d_e, {tag}_r_e and {tag}_beta" in err
    assert "grid [2, 6.5] angstrom" in err
    assert not out.exists()


@pytest.mark.parametrize(
    ("text", "command", "message"),
    [
        ("b_t_e = 1e308\n", "pulses", "b_t_e = 1e+308 cm^-1 swamps upper levels 20-23"),
        ("b_t_e = 1e308\n", "oracle-check", "b_t_e = 1e+308 cm^-1 swamps upper levels 16-30"),
        ("b_t_e = 1e20\n", "sweep", "b_t_e = 1e+20 cm^-1 swamps upper levels 20-23"),
        ("b_t_e = 1e20\n", "table1", "b_t_e = 1e+20 cm^-1 swamps upper levels 20-23"),
    ],
)
def test_an_electronic_offset_that_merges_the_lines_names_b_t_e(
    tmp_path, capsys, text, command, message
):
    # 1e308 used to overflow the pump's mean line, 1e20 to blame the mask bins
    config = tmp_path / "run.conf"
    config.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and len(err) < 200
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["sweep", "table1"])
def test_amplitudes_that_overflow_the_weights_exit_with_code_one(
    tmp_path, capsys, command
):
    # both used to write nan in every row and exit 0
    config = tmp_path / "run.conf"
    config.write_text("pump_amplitude = 1e300\nstokes_amplitude = 1e300\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: pump_amplitude = 1e+300 and stokes_amplitude = 1e+300" in err
    assert len(err) < 200
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    ("text", "argv", "values"),
    [
        ("stokes_amplitude = 1e-320\n", ["table1"], "1, stokes_amplitude = 9.99989e-321"),
        ("stokes_amplitude = 1e-320\n", ["sweep"], "1, stokes_amplitude = 9.99989e-321"),
        ("pump_duration = 1e300\n", ["sweep"], "pump_duration = 1e+300 and stokes_duration = 30 fs"),
        ("stokes_duration = 1e300\n", ["sweep"], "and stokes_duration = 1e+300 fs"),
        ("pump_duration = 1e300\n", ["table1"], "pump_duration = 1e+300 and"),
    ],
)
def test_vanishing_weights_exit_with_code_one_naming_their_keys(
    tmp_path, capsys, text, argv, values
):
    # with exit 0, 1e-320 used to print D and r a point off and the
    # durations to write all-zero traces; table1 blamed a "degenerate
    # outcome set"
    config = tmp_path / "run.conf"
    config.write_text(text)
    out = tmp_path / "out"
    assert main([*argv, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: pump_amplitude = 1") and values in err
    assert "leave every channel weight below the float range" in err
    assert len(err) < 200
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    ("text", "command", "message"),
    [
        (
            "b_t_e = 1\nv_target = 17\n",
            command,
            "b_t_e = 1 cm^-1 and v_target = 17 put the lowest line of upper levels "
            "20-23 at -1233 cm^-1",
        )
        for command in ("pulses", "sweep", "table1")
    ]
    + [
        (
            "b_t_e = 0\nx_beta = 20\n",
            "oracle-check",
            "b_t_e = 0 cm^-1 and lower level 6 put the lowest line of upper "
            "levels 16-30 at -8660 cm^-1",
        )
    ],
)
def test_lines_below_zero_name_b_t_e_and_v_target(
    tmp_path, capsys, text, command, message
):
    # used to exit 1 with "center wavenumber must be positive, got -1099.82..."
    config = tmp_path / "run.conf"
    config.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and len(err) < 200
    assert list(out.iterdir()) == []


def test_out_flag_overrides_the_config_directory(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(f"out_dir = {tmp_path / 'ignored'}\n")
    target = tmp_path / "actual"
    assert main(["eigen", "--config", str(config), "--out", str(target)]) == 0
    assert (target / "eigen_x.csv").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize("command", ["pulses", "sweep"])
def test_a_repeated_mask_is_refused(tmp_path, capsys, command):
    # a repeat once computed and wrote the same file twice
    out = tmp_path / "out"
    assert main([command, "--mask", "0110,0101,0110", "--out", str(out)]) == 1
    assert "error: invalid --mask: duplicate mask '0110'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_configuration_problems_exit_with_code_one(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("n = 5\n")
    assert main(["eigen", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert main(["eigen", "--config", str(tmp_path / "missing.conf")]) == 1
    assert main(["eigen", "--n", "5", "--out", str(tmp_path)]) == 1
    assert main(["bogus"]) == 1
    assert main(["pulses", "--mask", "01x0", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err


def test_an_undecodable_config_file_is_named(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_bytes(b"\xffn = 4\n")
    assert main(["eigen", "--config", str(bad), "--out", str(tmp_path)]) == 1
    assert f"error: cannot read config file {str(bad)!r}" in capsys.readouterr().err


def test_numerical_failures_exit_with_code_two(tmp_path, monkeypatch, capsys):
    def boom(config, args):
        raise RuntimeError("synthetic convergence failure")

    monkeypatch.setitem(cli._COMMANDS, "eigen", boom)
    assert main(["eigen", "--out", str(tmp_path)]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_a_non_finite_cell_exits_with_code_two_naming_file_and_column(
    tmp_path, monkeypatch, capsys, bad
):
    def command(config, args):
        yield cli.Table("first.csv", {"x": [1.0, 2.0]})
        yield cli.Table("second.csv", {"x": [1.0, 2.0], "y": np.array([0.5, bad])})
        raise AssertionError("resumed after the refusal")

    monkeypatch.setitem(cli._COMMANDS, "eigen", command)
    assert main(["eigen", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"column 'y' of {tmp_path / 'second.csv'} holds a non-finite cell" in err
    assert [path.name for path in tmp_path.iterdir()] == ["first.csv"]


def test_subcommands_write_nothing_themselves(tmp_path, monkeypatch):
    # main alone turns the yielded tables into files
    monkeypatch.chdir(tmp_path)
    config = parse_config("")
    for command in cli._COMMANDS:
        args = cli._build_parser().parse_args([command])
        tables = list(cli._COMMANDS[command](config, args))
        assert tables and all(isinstance(table, cli.Table) for table in tables)
    assert list(tmp_path.iterdir()) == []


def test_table1_refuses_tailored(tmp_path, capsys):
    # every row sets its own tailored: the flag used to change only the header
    out = tmp_path / "out"
    assert main(["table1", "--tailored", "--out", str(out)]) == 1
    assert "error: tailored = true does not apply to table1" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("pump_duration = 1e-305\n", "pump_duration = 1e-305 fs is too short"),
        ("stokes_duration = 1e-305\n", "stokes_duration = 1e-305 fs is too short"),
        ("probe_duration = 1e-305\n", "probe_duration = 1e-305 fs is too short"),
        (
            "stokes_duration = 1e300\n",
            "stokes_duration = 1e+300 fs and stokes_amplitude = 1 leave the stokes "
            "spectrum below the float range",
        ),
        (
            "pump_amplitude = 1e-308\n",
            "pump_duration = 30 fs and pump_amplitude = 1e-308 leave the pump",
        ),
        ("pump_duration = 1e300\n", "pump_duration = 1e+300 fs is too long"),
        ("probe_duration = 1e300\n", "probe_duration = 1e+300 fs is too long"),
        (
            "stokes_duration = 1e-303\ntau = 100\n",
            "tau = 100 is too large: the delay of 38738.5 fs overflows the phase "
            "at 5.888e+307 cm^-1 on the spectrum of stokes_duration = 1e-303 fs",
        ),
    ],
)
def test_spectra_that_cannot_be_sampled_name_their_keys(
    tmp_path, capsys, text, message
):
    # 1e-305 used to write nan cells with exit 0 (stokes: blame tau), 1e300
    # an all-zero Stokes spectrum or a pump/probe spectrum at one
    # wavenumber, and the Stokes grid's overflow a 300-digit wavenumber
    config = tmp_path / "run.conf"
    config.write_text(text)
    out = tmp_path / "out"
    assert main(["pulses", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}" in err and len(err) < 200
    assert list(out.iterdir()) == []


_PULSE_KEYS = (
    "pump_duration", "stokes_duration", "probe_duration",
    "pump_amplitude", "stokes_amplitude",
)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.sampled_from(_PULSE_KEYS),
        st.one_of(
            st.sampled_from([1e-308, 1e-305, 1e-303, 1e300, 1e308]),
            st.floats(-308.0, 308.0).map(lambda exponent: 10.0**exponent),
        ),
        min_size=1,
    )
)
def test_pulses_exit_zero_only_with_finite_nonzero_spectra(values):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "run.conf")
        config.write_text("".join(f"{key} = {v!r}\n" for key, v in values.items()))
        out = Path(tmp, "out")
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main(["pulses", "--config", str(config), "--out", str(out)])
        if code == 1:
            assert any(key in stderr.getvalue() for key in _PULSE_KEYS)
            return
        assert code == 0, stderr.getvalue()
        for path in out.iterdir():
            _, rows = _read_csv(path)
            cells = np.array(rows, dtype=float)
            assert np.isfinite(cells).all()
            assert (np.diff(cells[:, 0]) > 0.0).all(), path.name
            assert np.abs(cells[:, 1:]).max() > 0.0, path.name


# Runs each subcommand of a {name: (argv, config text)} JSON argument in
# its own directory, writing to the default relative out_dir, so that the
# echoed configuration is the same wherever the test runs.
_CLI_RUNS = """
import json, os, sys
from carsdj.cli import main
for name, (argv, text) in json.loads(sys.argv[1]).items():
    os.mkdir(name)
    os.chdir(name)
    with open("run.conf", "w") as handle:
        handle.write(text)
    if main(argv + ["--config", "run.conf"]) != 0:
        sys.exit(f"{name} failed")
    os.chdir("..")
"""

_ROOT = Path(__file__).resolve().parents[1]


def _cli_hashes(tmp_path, runs):
    """sha256 of every CSV each run writes, keyed by run name and file name."""
    # The goldens hold with BLAS on one thread; other thread counts move the
    # eigensolver's last digits, so the runs need their own process.
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(
            filter(None, (str(_ROOT / "src"), os.environ.get("PYTHONPATH")))
        ),
    )
    run = subprocess.run(
        [sys.executable, "-c", _CLI_RUNS, json.dumps(runs)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    return {
        name: {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / name / "out").iterdir()
        }
        for name in runs
    }


def test_default_csvs_match_the_golden_hashes(tmp_path):
    # every subcommand with the default configuration, as the cli-suite
    # benchmark workload runs them (sweep with all 16 n = 4 masks)
    goldens = json.loads((_ROOT / "perfbench" / "goldens.json").read_text())
    masks = ",".join(format(i, "04b")[::-1] for i in range(16))
    runs = {
        command: ([command] + (["--mask", masks] if command == "sweep" else []), "")
        for command in goldens["cli-suite"]
    }
    assert _cli_hashes(tmp_path, runs) == goldens["cli-suite"]


# Writer paths the default runs miss: wavefunction dumps, a tailored
# overlap table, flat masked spectra with a delay phase, a two-delay
# table and a sixteen-point sweep.
NONDEFAULT_RUNS = {
    "eigen_wavefunctions": (["eigen"], "dump_wavefunctions = true\n"),
    "fc_tailored": (["fc"], "tailored = true\n"),
    "pulses_flat_masked": (["pulses", "--mask", "0110,1011"], "flat = true\ntau = 1.5\n"),
    "table1_two_delays": (["table1"], "tau = 0, 0.5\n"),
    "sweep_n16": (["sweep"], "n = 16\n"),
}


def test_nondefault_csvs_match_the_golden_hashes(tmp_path):
    goldens = json.loads((_ROOT / "tests" / "nondefault_goldens.json").read_text())
    assert _cli_hashes(tmp_path, NONDEFAULT_RUNS) == goldens
