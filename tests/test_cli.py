"""Command-line interface: config parsing, outputs, and exit codes."""

import dataclasses
import errno
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import carsdj.cli as cli
from carsdj import RunOptions, all_outcomes
from carsdj.cli import ConfigError, main, parse_config
from carsdj.algorithm import (
    PERIOD_LEVEL,
    BooleanFunction,
    design_pulses,
    prepare_model,
    sweep_delay,
)
from carsdj.constants import TWO_PI_C
from carsdj.dvr import Grid
from carsdj.dynamics import (
    apply_stokes,
    prepare_first_order,
    random_oracle_configs,
    signal_magnitude,
)
from carsdj.molecule import build_model, vibrational_period
from carsdj.morse import MorseParams


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
        return ",".join(map(_config_text, value))
    return repr(float(value)) if isinstance(value, float) else str(value)


# Finite or not: both paths refuse inf and nan alike.
_FLOATS = st.floats()
_FLOAT_VALUES = _FLOATS | st.sampled_from([0.0, -1.0, 1e-300])
_INT_VALUES = st.integers(-(10**6), 10**12) | st.integers(-3, 20)
# Values of each kind of cli._KINDS, in and out of every key's range;
# out_dir's alphabet avoids whitespace and '#', which the file format strips.
_VALUES = {
    "float": _FLOAT_VALUES,
    "float | None": _FLOAT_VALUES | st.none(),
    "int": _INT_VALUES,
    "int | None": _INT_VALUES | st.none(),
    "bool": st.booleans(),
    "tuple[float, ...]": st.lists(_FLOATS, max_size=3).map(tuple),
    "str": st.text(alphabet="ab/.\0", max_size=4),
}


def test_every_key_has_a_kind_and_every_kind_has_test_values():
    assert {key.type for key in dataclasses.fields(cli.ExperimentConfig)} <= set(
        cli._KINDS
    )
    assert _VALUES.keys() == cli._KINDS.keys()


def _key_values(key: dataclasses.Field):
    """A key's name and a value of its kind."""
    return st.tuples(st.just(key.name), _VALUES[key.type])


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.sampled_from(dataclasses.fields(cli.ExperimentConfig)).flatmap(_key_values))
@example(("oracle_configs", 10**9))
@example(("out_dir", ""))
@example(("out_dir", "a\0b"))
@example(("tau", ()))
@example(("tau", (-1.0,)))
@example(("pump_amplitude", -1.0))
@example(("n_points", 8193))
@example(("pump_amplitude", float("inf")))
@example(("tau", (0.0, float("nan"))))
def test_a_config_made_by_hand_is_checked_as_the_parser_checks_it(item):
    # a config made by hand once skipped every per-key range rule
    key, value = item
    by_hand = _problem(lambda: cli.ExperimentConfig(**{key: value}))
    parsed = _problem(lambda: parse_config(f"{key} = {_config_text(value)}\n"))
    assert by_hand == (parsed and parsed.removeprefix("line 1: "))
    if parsed is not None and parsed.startswith("line 1: "):
        assert re.search(rf"\b{key}\b", by_hand), by_hand


# Python values of any type, of a key's kind or not.
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**20), 10**20)
    | st.floats()
    | st.floats().map(np.float64)
    | st.text(max_size=4)
)
_ANY_VALUES = (
    _SCALARS
    | st.lists(_SCALARS, max_size=3)
    | st.lists(_SCALARS, max_size=3).map(tuple)
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(dataclasses.fields(cli.ExperimentConfig)), _ANY_VALUES)
@example(cli._KEYS["n_points"], 100.5)
@example(cli._KEYS["tau"], [0.0, 1.0])
@example(cli._KEYS["x_d_e"], None)
@example(cli._KEYS["out_dir"], 5)
@example(cli._KEYS["tau"], ("a",))
@example(cli._KEYS["tailored"], "false")
@example(cli._KEYS["stokes_duration"], float("inf"))
@example(cli._KEYS["n"], True)
@example(cli._KEYS["x_d_e"], 5)
def test_any_python_value_gives_a_config_or_names_its_key(key, value):
    # each of the examples once passed, or raised TypeError
    try:
        config = cli.ExperimentConfig(**{key.name: value})
    except ConfigError as exc:
        message = str(exc)
        if not re.search(rf"\b{key.name}\b", message):
            # a check that spans several keys, which the file path makes too
            text = f"{key.name} = {_config_text(value)}\n"
            assert message == _problem(lambda: parse_config(text)), message
        return
    # a config holds only what its key's text gives
    assert parse_config(f"{key.name} = {_config_text(value)}\n") == config


@pytest.mark.parametrize(
    ("values", "message"),
    [
        ({"n_points": 100.5}, "n_points must be an integer, got 100.5"),
        ({"tau": [0.0, 1.0]}, "tau must be a tuple of finite numbers, got [0.0, 1.0]"),
        ({"x_d_e": None}, "x_d_e must be a finite number, got None"),
        ({"out_dir": 5}, "out_dir must be a string, got 5"),
        ({"tau": ("a",)}, "tau must be a tuple of finite numbers, got ('a',)"),
        ({"tailored": "false"}, "tailored must be true or false, got 'false'"),
        ({"pump_amplitude": float("inf")}, "pump_amplitude must be a finite number, got inf"),
        ({"stokes_duration": float("inf")}, "stokes_duration must be a finite number, got inf"),
        ({"tau": (float("nan"),)}, "tau must be a tuple of finite numbers, got (nan,)"),
        ({"w_min": 2.0, "w_max": 5}, "w_min must be an integer or auto, got 2.0"),
        ({"pump_duration": 10}, "pump_duration must be a finite number or auto, got 10"),
    ],
)
def test_a_value_of_another_kind_is_named(values, message):
    # each was accepted, or raised TypeError; "false" ran tailored
    with pytest.raises(ConfigError) as by_hand:
        cli.ExperimentConfig(**values)
    with pytest.raises(ConfigError) as replaced:
        dataclasses.replace(parse_config(""), **values)
    assert str(by_hand.value) == str(replaced.value) == message


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("pump_amplitude = inf\n", "line 1: pump_amplitude must be a finite number, got inf"),
        ("tau = 0, 1e999\n", "line 1: tau must be a tuple of finite numbers, got (0.0, inf)"),
        ("n_points = 1.5\n", "line 1: expected an integer, got '1.5'"),
        ("tailored = maybe\n", "line 1: expected true or false, got 'maybe'"),
        ("w_min = 5\nw_max = 3\n", "w_max (3) must be at least w_min (5)"),
    ],
)
def test_a_bad_value_in_a_file_exits_with_code_one(tmp_path, capsys, text, message):
    config = tmp_path / "run.conf"
    config.write_text(text)
    out = tmp_path / "out"
    assert main(["eigen", "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# Text of a value: the words the readers treat specially, numbers at and
# past the float range, and separators the file format cuts at.
_TOKENS = (
    st.sampled_from(
        ["inf", "-inf", "nan", "auto", "AUTO", "1e999", "-1e999", "-0", "0", "1",
         "4", "6", "16", "23", "2.5", "1e-320", "1e308", "true", "no", "", ",",
         "#", "0,", ",1", "1,#", "a\0b"]
    )
    | st.integers(-5, 40).map(str)
    | st.integers(-5, 10**5).map(str)
    | st.floats().map(repr)
    | st.text(alphabet="0123456789.,-+e#a ", max_size=6)
)
# Line numbers, keys and flags an exit-1 message may name.
_NAMED = re.compile(
    r"\bline \d+\b|\b(?:%s)\b|--(?:n|tau|out)\b"
    % "|".join(key.name for key in dataclasses.fields(cli.ExperimentConfig))
)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    st.dictionaries(st.sampled_from(list(cli._KEYS)), _TOKENS, max_size=4),
    st.lists(st.text(alphabet="abn_ =#,", max_size=6), max_size=1),
)
@example({"w_min": "19", "w_max": "24"}, [])
def test_any_config_text_gives_a_config_or_a_named_problem(values, raw):
    # a window that fits no domain of n points once named no key
    text = "".join([*(f"{key} = {value}\n" for key, value in values.items()), *raw])
    problem = _problem(lambda: parse_config(text))
    assert problem is None or _NAMED.search(problem), problem


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    st.fixed_dictionaries(
        {},
        optional={
            "n": _TOKENS,
            "tau": st.lists(_TOKENS, max_size=3).map(",".join),
            # no '/' or '.', so every write stays in the working directory
            "out": _TOKENS.filter(lambda t: "." not in t)
            | st.text(alphabet="ab#,-0 \0", max_size=4),
        },
    )
)
def test_any_flag_text_exits_zero_or_one_naming_what_is_wrong(flags):
    argv = ["eigen", *(f"--{flag}={value}" for flag, value in flags.items())]
    stderr = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(cwd)
    err = stderr.getvalue()
    if code == 0:
        assert err == ""
        return
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1, err
    assert _NAMED.search(err), err


# Extreme values of each kind, as config text; the fuzzes above cover
# negative and non-finite ones.  The caps keep one run small: a 2048-point
# grid, 5000 delays and 3 oracle configurations.
_CAPS = {"n_points": 2048, "sweep_points": 5000, "oracle_configs": 3}
_EXTREME_FLOATS = [0.0, 5e-324, 1e-300, 1e-10, 0.5, 2.0, 1e10, 1e300, 1.7e308]
_EXTREME_INTS = [0, 1, 2, 3, 5, 6, 16, 17, 23, 29, 39, 40, 41, 100, 10**9, 2**63]


def _extreme_text(key: dataclasses.Field):
    """Text of an extreme value of a key, within the caps."""
    kind = key.type.removesuffix(" | None")
    if kind == "float":
        values = st.sampled_from(_EXTREME_FLOATS)
        if key.default:
            # near the default too, where the physics gives way first
            factors = st.sampled_from([0.1, 0.5, 0.9, 1.1, 2.0, 10.0])
            values |= factors.map(lambda factor: factor * key.default)
    elif kind == "int":
        cap = _CAPS.get(key.name)
        ints = [v for v in _EXTREME_INTS if cap is None or v < cap]
        values = st.sampled_from(ints + ([cap] if cap else []))
    elif kind == "tuple[float, ...]":
        values = st.lists(st.sampled_from(_EXTREME_FLOATS), max_size=3).map(tuple)
    elif kind == "bool":
        values = st.booleans()
    else:
        values = st.sampled_from(["", "a\0b", "o", "#"])
    if key.type.endswith("| None"):
        values |= st.none()
    return st.tuples(st.just(key.name), values.map(_config_text))


# What an exit-1 message of main may name: a config line, a key or a flag.
_NAMED_BY_MAIN = re.compile(_NAMED.pattern + r"|--(?:tailored|mask)\b")
_CONFIG_KEYS = st.sampled_from(dataclasses.fields(cli.ExperimentConfig))
_MASKS = st.text(alphabet="01", min_size=2, max_size=8) | st.sampled_from(["", "2"])


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    st.sampled_from(list(cli._COMMANDS)),
    st.lists(
        _CONFIG_KEYS.flatmap(_extreme_text),
        min_size=1,
        max_size=2,
        unique_by=lambda item: item[0],
    ),
    # Mostly values a run accepts, so that the run goes on to the physics;
    # the flag fuzz above covers bad flag text.
    st.fixed_dictionaries(
        {},
        optional={
            "n": st.sampled_from(["4", "4", "6", "8", "16", "2", "5", "x"]),
            "tau": st.lists(
                st.sampled_from(["0", "1", "2.5", "0.5", "100", "1e308", "-1", "nan"]),
                min_size=1,
                max_size=3,
            ).map(",".join),
            "out": st.sampled_from(["o", "o", "o", "", "a\0b"]),
            "tailored": st.just(True),
            "mask": st.lists(_MASKS, min_size=1, max_size=3).map(",".join),
        },
    ),
)
def test_any_run_of_main_exits_cleanly_naming_what_is_wrong(command, values, flags):
    # a run exits 0 with finite cells, 1 naming a key, a flag or a config
    # line, or 2; never with a traceback or a warning
    if command not in ("pulses", "sweep"):
        flags.pop("mask", None)
    text = "".join(f"{key} = {value}\n" for key, value in values)
    if "oracle_configs" not in dict(values):
        text += f"oracle_configs = {_CAPS['oracle_configs']}\n"
    argv = [command, "--config", "run.conf"]
    for flag, value in flags.items():
        argv.append(f"--{flag}" if value is True else f"--{flag}={value}")
    stderr = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("run.conf").write_text(text)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
                    code = main(argv)
            written = sorted(Path(".").rglob("*.csv"))
            cells = [row for path in written for row in _read_csv(path)[1]]
        finally:
            os.chdir(cwd)
    err = stderr.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2), err
    if code == 0:
        for row in cells:
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert np.isfinite(value), (argv, text)
    elif code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert _NAMED_BY_MAIN.search(err), (argv, text, err)
    else:
        assert err.startswith("numerical failure: ") and err.count("\n") == 1, err


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
    assert err == (
        "error: window [19, 24] holds 6 levels for a domain of 4 points; w_min and "
        "w_max must span n levels\n"
    )
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


@pytest.mark.parametrize(
    ("text", "command", "flags", "tag", "kept"),
    [
        pytest.param("b_d_e = 400\n", "sweep", [], "b", 19, id="sweep"),
        pytest.param("b_d_e = 400\n", "pulses", [], "b", 19, id="pulses"),
        pytest.param("b_d_e = 500\n", "pulses", [], "b", 21, id="pulses-21"),
        pytest.param("b_d_e = 400\n", "oracle-check", [], "b", 19, id="oracle-check"),
        pytest.param("b_d_e = 400\n", "fc", ["--tailored"], "b", 19, id="tailored-fc"),
        pytest.param("x_d_e = 20\n", "sweep", [], "x", 2, id="lower-sweep"),
    ],
)
def test_too_few_levels_kept_by_the_cutoff_name_the_curve(
    tmp_path, capsys, text, command, flags, tag, kept
):
    # the refusal once named n_b_states, which cannot add a level the cutoff drops
    config = tmp_path / "run.conf"
    config.write_text(text)
    args = [command, "--config", str(config), "--out", str(tmp_path), *flags]
    assert main(args) == 1
    err = capsys.readouterr().err
    for key in (f"{tag}_d_e", f"{tag}_beta", "reduced_mass"):
        assert re.search(rf"\b{key}\b", err), err
    assert not re.search(rf"\bn_{tag}_states\b", err), err
    side = "upper" if tag == "b" else "lower"
    assert f"bind only {kept} {side} levels below the cutoff" in err


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
    "command, key", [("table1", "tau"), ("sweep", "sweep_max_multiple")]
)
def test_a_delay_phase_that_keeps_no_digit_exits_with_code_one(
    tmp_path, capsys, command, key
):
    # Past 1e-6 / 2^-52 rad a double holds the phase to less than 1e-6 rad;
    # at 1e300 periods it kept none, and table1 printed D = -225 % with exit 0.
    model = build_model()
    per_period = TWO_PI_C * model.nu.max() * vibrational_period(model, "B", PERIOD_LEVEL)
    bound = float(1e-6 / np.finfo(float).eps / per_period)
    for k, (multiple, code) in enumerate(
        ((0.999 * bound, 0), (1.001 * bound, 1), (1e300, 1))
    ):
        value = f"0, {multiple!r}" if key == "tau" else repr(multiple)
        config = tmp_path / "run.conf"
        config.write_text(f"{key} = {value}\n")
        out = tmp_path / f"out{k}"
        assert main([command, "--config", str(config), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert f"error: {key} = {multiple:g} is too large: " in err
            assert "where a double no longer holds it to 1e-06 rad" in err
            assert list(out.iterdir()) == []


def test_pulses_checks_only_the_delay_it_writes(tmp_path):
    # The spectra carry the first delay; a later one that would overflow the
    # phase changes nothing but the echoed tau.
    first, both = tmp_path / "first", tmp_path / "both"
    assert main(["pulses", "--tau", "0", "--out", str(first)]) == 0
    assert main(["pulses", "--tau", "0,1e306", "--out", str(both)]) == 0
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in both.iterdir())
    assert len(names) == 3
    for name in names:
        expect = (first / name).read_text().splitlines()
        got = (both / name).read_text().splitlines()
        assert "# tau=0" in expect and "# tau=0,1e+306" in got
        drop = {"# tau=0", "# tau=0,1e+306", f"# out_dir={first}", f"# out_dir={both}"}
        assert [line for line in got if line not in drop] == [
            line for line in expect if line not in drop
        ]


class _ClosedStdout(io.TextIOBase):
    """A stdout whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("command", ["eigen", "table1"])
def test_a_closed_stdout_is_named_and_not_blamed_on_out_dir(
    tmp_path, capsys, monkeypatch, command
):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main([command, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: cannot write to stdout: [Errno 32] Broken pipe\n"
    # The first file was written before its line to stdout failed.
    assert len(list(tmp_path.iterdir())) == 1


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
        ("x_d_e = 1e14\nx_beta = 13\n", "too steep for any grid"),
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


@pytest.mark.parametrize(
    ("text", "named", "points"),
    [
        ("x_beta = 0.5\n", "r_min = 2 for lower level 39 (n_x_states", "1.967, 3.75"),
        ("b_r_e = 2.0\n", "r_min = 2 for upper level 39 (n_b_states", "1.635, 3.783"),
        ("r_max = 4.5\n", "r_max = 4.5 for upper level 39 (n_b_states", "2.669, 4.254"),
    ],
)
def test_the_grid_clearance_refusal_names_its_keys(
    tmp_path, capsys, text, named, points
):
    # the refusal once named the grid's range but no key
    config = tmp_path / "run.conf"
    config.write_text(text)
    assert main(["eigen", "--config", str(config), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"too small at {named} = 40): turning points ({points}) need 0.25" in err


def test_oracle_check_line_refusal_never_names_v_target(tmp_path, capsys):
    # oracle-check reads no v_target, yet v_target = 6 once put it in the message
    config = tmp_path / "run.conf"
    errors = []
    for v_target in (4, 6):
        config.write_text(f"b_t_e = 0\nx_beta = 5.6\nv_target = {v_target}\n")
        argv = ["oracle-check", "--config", str(config), "--out", str(tmp_path)]
        assert main(argv) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "lower level 6" in errors[0] and "v_target" not in errors[0]


@pytest.mark.parametrize(
    ("text", "command"),
    [
        # every case of the two tests above that pin these refusals' bytes
        ("b_t_e = 1e308\n", "pulses"),
        ("b_t_e = 1e308\n", "oracle-check"),
        ("b_t_e = 1e20\n", "sweep"),
        ("b_t_e = 1e20\n", "table1"),
        ("b_t_e = 1\nv_target = 17\n", "pulses"),
        ("b_t_e = 1\nv_target = 17\n", "sweep"),
        ("b_t_e = 1\nv_target = 17\n", "table1"),
        ("b_t_e = 0\nx_beta = 20\n", "oracle-check"),
    ],
)
def test_a_line_refusal_is_the_library_s_word_for_word(
    tmp_path, capsys, text, command
):
    # the library owns the line check; the CLI only reports its refusal
    config = tmp_path / "run.conf"
    config.write_text(text)
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    cfg = parse_config(text)
    model = cfg.build()
    with pytest.raises(ValueError) as refusal:
        if command == "oracle-check":
            random_oracle_configs(np.random.default_rng(cfg.oracle_seed), model, 1)
        else:
            design_pulses(model, cfg.resolved_window(), (0,) * cfg.n, cfg.run_options())
    assert err == f"error: {refusal.value}\n"


@pytest.mark.parametrize(
    "keys",
    [
        {"r_min": 6.0, "r_max": 3.0},
        {"x_beta": 1000.0},
        {"b_r_e": 1e300},
        {"n_points": 30, "n_x_states": 40},
    ],
)
def test_a_build_refusal_is_the_library_s_word_for_word(tmp_path, capsys, keys):
    # the library owns the grid, curve and state-count checks; the CLI only
    # reports their refusal
    config = tmp_path / "run.conf"
    config.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    assert main(["eigen", "--config", str(config), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    v = {key.name: key.default for key in dataclasses.fields(cli.ExperimentConfig)}
    v.update(keys)
    with pytest.raises(ValueError) as refusal:
        build_model(
            MorseParams(v["x_d_e"], v["x_r_e"], v["x_beta"]),
            MorseParams(v["b_d_e"], v["b_r_e"], v["b_beta"], v["b_t_e"]),
            v["reduced_mass"],
            Grid(v["r_min"], v["r_max"], v["n_points"]),
            v["n_x_states"],
            v["n_b_states"],
        )
    assert err == f"error: {refusal.value}\n"


@pytest.mark.parametrize(
    ("text", "command"),
    [
        ("n_b_states = 20\n", "sweep"),
        ("b_d_e = 400\n", "pulses"),
        ("b_d_e = 400\n", "oracle-check"),
        ("n = 8\ntailored = true\nn_b_states = 24\n", "fc"),
        ("x_d_e = 20\n", "sweep"),
    ],
)
def test_a_retention_refusal_is_the_library_s_word_for_word(
    tmp_path, capsys, text, command
):
    # the library owns the check that a run's levels were kept; the CLI no
    # longer works out which levels a subcommand needs
    config = tmp_path / "run.conf"
    config.write_text(text)
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    cfg = parse_config(text)
    model, options = cfg.build(), cfg.run_options()
    with pytest.raises(ValueError) as refusal:
        if command == "oracle-check":
            random_oracle_configs(np.random.default_rng(cfg.oracle_seed), model, 1)
        elif command == "fc":
            prepare_model(model, options, cfg.n)
        elif command == "pulses":
            design_pulses(model, cfg.resolved_window(), (0,) * cfg.n, options)
        else:
            sweep_delay(model, BooleanFunction((0,) * cfg.n), np.array([0.0]), options)
    assert err == f"error: {refusal.value}\n"


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


@pytest.mark.parametrize("command", ["pulses", "sweep"])
def test_a_mask_of_another_length_is_refused(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([command, "--mask", "0110,010", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: invalid --mask: '010' has 3 bits for a domain of 4 points\n"
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


def test_an_oracle_mismatch_exits_with_code_two_after_writing_the_table(
    tmp_path, monkeypatch, capsys
):
    # the table is the evidence of the mismatch, so it is written first
    def off_by_a_thousandth(model, pump, stokes, v_target, window):
        a = apply_stokes(model, prepare_first_order(model, pump, window), stokes)
        return 1.001 * signal_magnitude(a, v_target)

    monkeypatch.setattr(cli, "time_domain_oracle", off_by_a_thousandth)
    config = tmp_path / "run.conf"
    config.write_text("oracle_configs = 2\n")
    out = tmp_path / "out"
    assert main(["oracle-check", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "max relative deviation = 9.990e-04 over 2 configurations" in captured.out
    assert captured.err == (
        "numerical failure: frequency/time-domain mismatch: 9.990e-04 exceeds 1e-06\n"
    )
    header, rows = _read_csv(out / "oracle_check.csv")
    assert header[-1] == "rel_dev" and len(rows) == 2
    assert all(float(cells[-1]) == pytest.approx(1e-3 / 1.001) for cells in rows)


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


def _cli_hashes(tmp_path, runs, threads=1):
    """sha256 of every CSV each run writes, keyed by run name and file name,
    from a process whose BLAS thread variables are all ``threads``."""
    # BLAS reads the thread variables when it loads, so the runs need their
    # own process.
    tmp_path.mkdir(exist_ok=True)
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS=str(threads),
        OMP_NUM_THREADS=str(threads),
        MKL_NUM_THREADS=str(threads),
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


def _default_runs():
    """Every subcommand with the default configuration, as the cli-suite
    benchmark workload runs them (sweep with all 16 n = 4 masks), and
    their golden hashes."""
    goldens = json.loads((_ROOT / "perfbench" / "goldens.json").read_text())
    masks = ",".join(format(i, "04b")[::-1] for i in range(16))
    runs = {
        command: ([command] + (["--mask", masks] if command == "sweep" else []), "")
        for command in goldens["cli-suite"]
    }
    return runs, goldens["cli-suite"]


def test_default_csvs_match_the_golden_hashes(tmp_path):
    runs, goldens = _default_runs()
    assert _cli_hashes(tmp_path, runs) == goldens


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


def _nondefault_goldens():
    return json.loads((_ROOT / "tests" / "nondefault_goldens.json").read_text())


def test_nondefault_csvs_match_the_golden_hashes(tmp_path):
    assert _cli_hashes(tmp_path, NONDEFAULT_RUNS) == _nondefault_goldens()


# The goldens are the bytes of one BLAS thread, and the build pins its
# eigensolves to one thread, so two give the same bytes.  Unpinned, two
# threads move the eigensolver's last digits.  On a 1-CPU machine OpenBLAS
# may cap itself at one thread, and then this test cannot fail.
def test_two_blas_threads_give_the_golden_bytes(tmp_path):
    runs, goldens = _default_runs()
    assert _cli_hashes(tmp_path / "default", runs, threads=2) == goldens
    assert (
        _cli_hashes(tmp_path / "nondefault", NONDEFAULT_RUNS, threads=2)
        == _nondefault_goldens()
    )
