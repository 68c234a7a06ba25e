"""Command-line interface: config parsing, outputs, and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_pulses_writes_spectra_for_each_mask(tmp_path):
    assert main(["pulses", "--out", str(tmp_path), "--mask", "0101,0000"]) == 0
    for name in ("pump.csv", "probe.csv", "stokes_0101.csv", "stokes_0000.csv"):
        header, rows = _read_csv(tmp_path / name)
        assert header == ["nu_cm1", "re_amp", "im_amp"]
        assert len(rows) == 2001
    comments = _header_lines(tmp_path / "stokes_0101.csv")
    assert any(line.startswith("# mask=0101") for line in comments)
    assert any(line.startswith("# tau_b_fs=387.38497") for line in comments)


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
    ],
)
def test_grid_problems_name_their_cause(tmp_path, capsys, text, message):
    config = tmp_path / "run.conf"
    config.write_text(text)
    assert main(["eigen", "--config", str(config), "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


def test_out_flag_overrides_the_config_directory(tmp_path):
    config = tmp_path / "run.conf"
    config.write_text(f"out_dir = {tmp_path / 'ignored'}\n")
    target = tmp_path / "actual"
    assert main(["eigen", "--config", str(config), "--out", str(target)]) == 0
    assert (target / "eigen_x.csv").exists()
    assert not (tmp_path / "ignored").exists()


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


def test_numerical_failures_exit_with_code_two(tmp_path, monkeypatch, capsys):
    def boom(config, out, args):
        raise RuntimeError("synthetic convergence failure")

    monkeypatch.setitem(cli._COMMANDS, "eigen", boom)
    assert main(["eigen", "--out", str(tmp_path)]) == 2
    assert "numerical failure" in capsys.readouterr().err


# Runs every subcommand with the default configuration, each in its own
# directory, as the cli-suite benchmark workload does (sweep with all 16
# n = 4 masks).
_DEFAULT_RUN = """
import os, sys
from carsdj.cli import main
masks = ",".join(format(i, "04b")[::-1] for i in range(16))
for command in ("eigen", "fc", "pulses", "sweep", "table1", "oracle-check"):
    os.mkdir(command)
    os.chdir(command)
    if main([command] + (["--mask", masks] if command == "sweep" else [])) != 0:
        sys.exit(f"{command} failed")
    os.chdir("..")
"""


def test_default_csvs_match_the_golden_hashes(tmp_path):
    # The goldens hold with BLAS on one thread; other thread counts move the
    # eigensolver's last digits, so the run needs its own process.
    root = Path(__file__).resolve().parents[1]
    goldens = json.loads((root / "perfbench" / "goldens.json").read_text())
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(
            filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))
        ),
    )
    run = subprocess.run(
        [sys.executable, "-c", _DEFAULT_RUN],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    for command, expected in goldens["cli-suite"].items():
        written = {
            path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in (tmp_path / command / "out").iterdir()
        }
        assert written == expected, command
