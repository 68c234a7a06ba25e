"""The documented usage runs (the README quick start and every demo), and
the README tables name every config key and subcommand and give every
key's default."""

import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

from carsdj.cli import _COMMANDS, ExperimentConfig, parse_config

ROOT = Path(__file__).resolve().parents[1]


def _quick_start() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


# Runs the quick start, then each demo as a script, in one interpreter.
_RUN = """
import runpy, sys
exec(compile(sys.argv[1], "README quick start", "exec"), {"__name__": "__main__"})
for path in sys.argv[2:]:
    print("== demo", path)
    runpy.run_path(path, run_name="__main__")
"""


def test_readme_quick_start_and_demos_run(tmp_path):
    # the quick start teaches the kernel, not the per-function test oracle
    assert not re.search(r"\b(run_instance|enumerate_functions)\b", _quick_start())
    demos = sorted(str(path) for path in (ROOT / "demos").glob("*.py"))
    assert len(demos) == 4
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(
            filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
        ),
    )
    run = subprocess.run(
        [sys.executable, "-c", _RUN, _quick_start(), *demos],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    lines = run.stdout.splitlines()
    assert lines[1] == "True" and lines[3].startswith("D = ")
    assert sum(line.startswith("== demo") for line in lines) == 4


def _table_rows(heading: str) -> list[list[str]]:
    """The cells of each row of the first table under a README heading."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split(f"\n{heading}\n", 1)[1]
    rows = section.split("\n| --- |", 1)[1].split("\n\n", 1)[0].splitlines()[1:]
    return [row.split("|")[1:-1] for row in rows]


def _table_names(heading: str) -> list[str]:
    """The backquoted names in the first cell of each row of the first
    table under a README heading."""
    cells = [row[0] for row in _table_rows(heading)]
    return [name for cell in cells for name in re.findall(r"`([^`]+)`", cell)]


def test_readme_tables_name_every_config_key_and_subcommand():
    keys = [field.name for field in fields(ExperimentConfig)]
    assert _table_names("### Config files") == keys
    assert _table_names("## Command-line tool") == list(_COMMANDS)


def test_readme_config_defaults_are_the_field_defaults():
    # a row's defaults are comma-separated, one per key, or one for all its keys
    defaults = {}
    for names, texts, _ in _table_rows("### Config files"):
        keys = re.findall(r"`([^`]+)`", names)
        values = [text.strip().strip("`") for text in texts.split(", ")]
        if len(values) == 1:
            values *= len(keys)
        defaults.update(zip(keys, values, strict=True))
    for field in fields(ExperimentConfig):
        parsed = parse_config(f"{field.name} = {defaults[field.name]}\n")
        assert getattr(parsed, field.name) == field.default, field.name
