"""The three benchmark workloads: seeded inputs, operations and checks.

Each workload hands out operations ("ops").  An op runs one piece of the
package's public API and returns its output; ``observe`` turns that
output into the form stored in ``goldens.json``; ``check`` compares it
with the golden value (and with physical properties where no golden
value exists) and returns a failure message or None.

Workloads never reach into ``carsdj`` internals.  They look functions up
on the package at call time (``carsdj.all_outcomes``, ``carsdj.cli.main``)
so that the tracing wrappers, when installed, see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import carsdj
import carsdj.algorithm
import carsdj.cli

# Seed whose first param-scan draws are stored in goldens.json.
DEFAULT_SEED = 1

# Float goldens (D and r) must agree to RTOL relative, ATOL absolute.  The
# arithmetic is deterministic for one BLAS build and thread count, so the
# only legitimate drift is reordered floating-point sums (a different
# OpenBLAS kernel or a vectorised rewrite such as the channel-weight
# kernel, which moves D and r by about 1e-15).  1e-9 leaves six orders of
# magnitude for that and still fails any change a printed percentage, a
# CSV digit or the physics could show.
RTOL = 1e-9
ATOL = 1e-12

# DVR levels must match the closed-form Morse ladder this closely over the
# lowest LEVELS_CHECKED levels of both curves (acceptance criterion 1).
LEVEL_RTOL = 1e-6
LEVELS_CHECKED = 30


@dataclass(frozen=True)
class Op:
    """One operation of a workload.

    ``key`` names its golden value (None where only property checks
    apply); ``evals`` is the number of Boolean-function x delay
    evaluations its outputs need, counted from the inputs.
    """

    kind: str
    key: str | None
    evals: int
    run: Callable[[], object]


def _close(expected: float, actual: float) -> bool:
    return abs(expected - actual) <= RTOL * max(abs(expected), abs(actual)) + ATOL


def _compare(goldens: dict, key: str, observed: dict) -> str | None:
    if key not in goldens:
        return f"no golden value for {key}"
    expected = goldens[key]
    for name, value in expected.items():
        if name not in observed:
            return f"{key}: missing {name}"
        got = observed[name]
        if isinstance(value, float):
            if not _close(value, got):
                return f"{key}: {name} = {got!r}, golden {value!r}"
        elif got != value:
            return f"{key}: {name} = {got!r}, golden {value!r}"
    return None


def _metrics(outcomes) -> dict[str, float]:
    return {
        "d": carsdj.distinguishability(outcomes),
        "r": carsdj.pearson_r(outcomes),
    }


class Workload:
    """Common interface; subclasses fill in the ops."""

    tail_percentile = 50
    # Share of the workload's time spent in dvr (self time of
    # build_hamiltonian and solve_bound_states in a traced run at the
    # commit that defined the benchmark); it weighs the eigensolve kernel
    # of the reference gauge (see reference.py).
    dvr_share = 0.0

    def __init__(self, seed: int, goldens: dict) -> None:
        self.seed = seed
        self.goldens = goldens
        self.counters: dict[str, float] = {}

    def prepare(self) -> None:
        """Work done once before any op, outside every timing."""

    def warmup(self) -> list[Op]:
        return []

    def pass_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def observe(self, op: Op, output) -> dict:
        return output

    def check(self, op: Op, output) -> str | None:
        observed = self.observe(op, output)
        if op.key is None:
            return None
        return _compare(self.goldens, op.key, observed)

    def close(self) -> None:
        """Release what the workload created."""


# ---------------------------------------------------------------------------
# landscape: the D/r grid over window size and delay on one model.

LANDSCAPE_ROWS: tuple[tuple[int, tuple[int, int] | None, bool], ...] = (
    (4, None, False),
    (6, None, False),
    (8, None, False),
    (8, None, True),
    (10, (17, 26), False),
    (12, (16, 27), False),
)
LANDSCAPE_TAUS: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5, 2.0)


def cell_key(n: int, window, tailored: bool, tau: float) -> str:
    lo, hi = window if window is not None else carsdj.DEFAULT_WINDOWS[n]
    return f"n{n}{'t' if tailored else ''}_w{lo}-{hi}_tau{tau:g}"


class Landscape(Workload):
    """Every Boolean function of each row, at each delay; one op per cell.

    The seed sets the order in which the cells of each pass run.
    """

    tail_percentile = 90

    def __init__(self, seed, goldens, rows=LANDSCAPE_ROWS, taus=LANDSCAPE_TAUS):
        super().__init__(seed, goldens)
        self.cells = [(n, w, t, tau) for n, w, t in rows for tau in taus]
        self.rows = rows

    def prepare(self) -> None:
        self.model = carsdj.build_model()

    def _op(self, n, window, tailored, tau) -> Op:
        options = carsdj.RunOptions(w_window=window, tailored=tailored)

        def run():
            return _metrics(carsdj.all_outcomes(self.model, n, tau, options))

        return Op("landscape.cell", cell_key(n, window, tailored, tau), 2**n, run)

    def warmup(self) -> list[Op]:
        return [self._op(n, w, t, 0.5) for n, w, t in self.rows if n <= 8]

    def pass_ops(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, index])
        return [self._op(*self.cells[i]) for i in rng.permutation(len(self.cells))]


# ---------------------------------------------------------------------------
# param-scan: model building under seeded perturbations of both curves.

PERTURBATION = 0.02
SCAN_N = 4
SCAN_TAU = 1.0


class ScanPoint(NamedTuple):
    x_params: carsdj.MorseParams
    b_params: carsdj.MorseParams
    model: carsdj.VibronicModel
    metrics: dict[str, float]


class ParamScan(Workload):
    """Build a perturbed model and classify n = 4 on it; one op per draw.

    Draw i of seed s scales d_e and beta of both curves by factors drawn
    uniformly from 1 +/- PERTURBATION with generator (s, i).  The warm-up
    runs the golden draws of DEFAULT_SEED, so every run checks them
    whatever its seed; every op is also checked against the closed-form
    Morse levels.
    """

    tail_percentile = 95
    dvr_share = 0.9

    def __init__(self, seed, goldens, ops_per_pass=16, golden_draws=8):
        super().__init__(seed, goldens)
        self.ops_per_pass = ops_per_pass
        self.golden_draws = golden_draws

    def _op(self, seed: int, i: int) -> Op:
        scale = 1.0 + np.random.default_rng([seed, i]).uniform(
            -PERTURBATION, PERTURBATION, size=4
        )
        x0, b0 = carsdj.IODINE_X, carsdj.IODINE_B
        x = replace(x0, d_e=x0.d_e * scale[0], beta=x0.beta * scale[1])
        b = replace(b0, d_e=b0.d_e * scale[2], beta=b0.beta * scale[3])
        key = f"draw{i}" if seed == DEFAULT_SEED and i < self.golden_draws else None

        def run():
            model = carsdj.build_model(x_params=x, b_params=b)
            outcomes = carsdj.all_outcomes(model, SCAN_N, SCAN_TAU)
            return ScanPoint(x, b, model, _metrics(outcomes))

        return Op("param-scan.point", key, 2**SCAN_N, run)

    def warmup(self) -> list[Op]:
        return [self._op(DEFAULT_SEED, i) for i in range(self.golden_draws)]

    def pass_ops(self, index: int) -> list[Op]:
        first = index * self.ops_per_pass
        return [self._op(self.seed, i) for i in range(first, first + self.ops_per_pass)]

    def observe(self, op: Op, output: ScanPoint) -> dict:
        return output.metrics

    def check(self, op: Op, output: ScanPoint) -> str | None:
        mass = output.model.reduced_mass
        for label, states, params in (
            ("X", output.model.x_states, output.x_params),
            ("B", output.model.b_states, output.b_params),
        ):
            analytic = carsdj.morse_analytic_levels(params, mass, LEVELS_CHECKED)
            levels = states.energies[:LEVELS_CHECKED]
            worst = float(np.max(np.abs(levels - analytic) / analytic))
            if not worst < LEVEL_RTOL:
                return f"{label} levels off the Morse ladder by {worst:.2e} relative"
        d, r = output.metrics["d"], output.metrics["r"]
        if not (d <= 1.0 and -1.0 <= r <= 1.0):
            return f"D = {d!r} or r = {r!r} out of range"
        return super().check(op, output)


# ---------------------------------------------------------------------------
# cli-suite: the six subcommands with the default configuration.

SUBCOMMANDS: tuple[str, ...] = (
    "eigen",
    "fc",
    "pulses",
    "sweep",
    "table1",
    "oracle-check",
)
SWEEP_MASKS: tuple[str, ...] = tuple(
    "".join(str((i >> k) & 1) for k in range(4)) for i in range(16)
)


class CliRun(NamedTuple):
    code: int
    directory: Path
    console: str


def _evals(subcommand: str, masks: tuple[str, ...]) -> int:
    config = carsdj.cli.ExperimentConfig()
    if subcommand == "sweep":
        return len(masks) * config.sweep_points
    if subcommand == "table1":
        rows = carsdj.algorithm.TABLE_ROWS
        return sum(2**n for n, _ in rows) * len(config.tau)
    return 0


class CliSuite(Workload):
    """One ``carsdj.cli.main`` call per op, each into a fresh directory.

    A pass runs every subcommand once, in an order set by the seed.  The
    sha256 of every CSV written must match its golden value.
    """

    tail_percentile = 75
    dvr_share = 0.1

    def __init__(
        self, seed, goldens, workdir: Path, subcommands=SUBCOMMANDS, masks=SWEEP_MASKS
    ):
        super().__init__(seed, goldens)
        self.workdir = Path(workdir)
        self.subcommands = subcommands
        self.masks = masks
        self.counters = {"cli.bytes_written": 0}

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def _op(self, subcommand: str) -> Op:
        argv = [subcommand]
        if subcommand == "sweep":
            argv += ["--mask", ",".join(self.masks)]

        def run():
            directory = Path(tempfile.mkdtemp(prefix="op-", dir=self.workdir))
            console = io.StringIO()
            cwd = os.getcwd()
            os.chdir(directory)
            try:
                with contextlib.redirect_stdout(console):
                    with contextlib.redirect_stderr(console):
                        code = carsdj.cli.main(argv)
            finally:
                os.chdir(cwd)
            return CliRun(code, directory, console.getvalue())

        return Op(f"cli.{subcommand}", subcommand, _evals(subcommand, self.masks), run)

    def warmup(self) -> list[Op]:
        return [self._op(s) for s in self.subcommands if s in ("eigen", "fc", "pulses")]

    def pass_ops(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, index])
        order = rng.permutation(len(self.subcommands))
        return [self._op(self.subcommands[i]) for i in order]

    def observe(self, op: Op, output: CliRun) -> dict:
        """sha256 per CSV written; removes the op's directory."""
        try:
            files = sorted((output.directory / "out").glob("*"))
            self.counters["cli.bytes_written"] += sum(p.stat().st_size for p in files)
            return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        finally:
            shutil.rmtree(output.directory)

    def check(self, op: Op, output: CliRun) -> str | None:
        hashes = self.observe(op, output)
        if output.code != 0:
            return f"{op.key}: exit code {output.code}: {output.console[-300:]}"
        expected = self.goldens.get(op.key, {})
        if op.key == "sweep":
            names = [f"sweep_{m}.csv" for m in self.masks]
            expected = {name: expected.get(name) for name in names}
        if set(hashes) != set(expected):
            return f"{op.key}: wrote {sorted(hashes)}, expected {sorted(expected)}"
        return _compare({op.key: expected}, op.key, hashes)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(
    name: str, seed: int, goldens: dict, workdir: Path, tiny: bool = False
) -> Workload:
    """The named workload; ``tiny`` shrinks it for the benchmark's own tests."""
    own = goldens.get(name, {})
    if name == "landscape":
        if tiny:
            rows = (LANDSCAPE_ROWS[0], LANDSCAPE_ROWS[3])
            return Landscape(seed, own, rows=rows, taus=(0.0, 1.0))
        return Landscape(seed, own)
    if name == "param-scan":
        if tiny:
            return ParamScan(seed, own, ops_per_pass=2, golden_draws=2)
        return ParamScan(seed, own)
    if name == "cli-suite":
        if tiny:
            return CliSuite(
                seed, own, workdir, subcommands=("eigen", "fc", "sweep"), masks=("0110",)
            )
        return CliSuite(seed, own, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS: tuple[str, ...] = ("landscape", "param-scan", "cli-suite")
