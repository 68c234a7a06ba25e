"""Layer spans recorded from outside the package.

Every public function named in ``LAYERS`` is replaced, wherever a
``carsdj`` module looks it up by name, with a wrapper that opens a span
(name, start, end, parent) around the call and updates a few work
counters.  Nothing inside ``carsdj`` changes: calls made inside the
package are counted because each module's global that names the function
is rebound, not only the attribute of its home module.

A span's self time is its duration minus the part of its interval that
its child spans cover (the union of the children, clipped to the parent).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

# (module, function, span name).  distinguishability and pearson_r share
# one span name: together they are the metrics layer.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("dvr", "build_hamiltonian", "dvr.build_hamiltonian"),
    ("dvr", "solve_bound_states", "dvr.solve_bound_states"),
    ("molecule", "build_model", "molecule.build_model"),
    ("molecule", "with_equalized_fc", "molecule.with_equalized_fc"),
    ("molecule", "transition_wavenumber", "molecule.transition_wavenumber"),
    ("pulses", "design_pump", "pulses.design_pump"),
    ("pulses", "design_stokes", "pulses.design_stokes"),
    ("pulses", "spectral_amplitude", "pulses.spectral_amplitude"),
    ("pulses", "time_profile", "pulses.time_profile"),
    ("dynamics", "prepare_first_order", "dynamics.prepare_first_order"),
    ("dynamics", "apply_stokes", "dynamics.apply_stokes"),
    ("dynamics", "time_domain_oracle", "dynamics.time_domain_oracle"),
    ("algorithm", "run_instance", "algorithm.run_instance"),
    ("algorithm", "all_outcomes", "algorithm.all_outcomes"),
    ("algorithm", "sweep_delay", "algorithm.sweep_delay"),
    ("algorithm", "fidelity_table", "algorithm.fidelity_table"),
    ("algorithm", "enumerate_functions", "algorithm.enumerate_functions"),
    ("algorithm", "distinguishability", "algorithm.metrics"),
    ("algorithm", "pearson_r", "algorithm.metrics"),
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "main", "cli.main"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for _, _, name in LAYERS))


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the parent span in the same sequence, -1 for a root


def _union_length(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, summed self time in seconds)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    out: dict[str, tuple[int, float]] = {}
    for index, span in enumerate(spans):
        covered = _union_length(children.get(index, ()), span.start, span.end)
        calls, total = out.get(span.name, (0, 0.0))
        out[span.name] = (calls + 1, total + (span.end - span.start) - covered)
    return out


class Tracer:
    """Span recorder for one thread, plus work counters.

    Spans are kept in compact arrays until ``drain`` hands them over; the
    caller drains after each operation so memory stays bounded by the
    largest operation.
    """

    def __init__(self) -> None:
        self.counters: dict[str, float] = defaultdict(float)
        self.cells: set = set()  # all_outcomes cells seen in this operation
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._reset()

    def _reset(self) -> None:
        self._name_id = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        index = len(self._start)
        self._name_id.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(index)
        self._start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self._end[index] = perf_counter()
        self._stack.pop()

    def new_operation(self) -> None:
        self.cells = set()

    def drain(self) -> list[Span]:
        """Return the finished spans and forget them; no span may be open."""
        if self._stack:
            raise RuntimeError("drain with an open span")
        names = self._names
        spans = [
            Span(names[n], s, e, p)
            for n, s, e, p in zip(self._name_id, self._start, self._end, self._parent)
        ]
        self._reset()
        return spans


# ---------------------------------------------------------------------------
# Work counters updated after a wrapped call returns.

def _arg(args: tuple, kwargs: dict, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_solve(tracer, args, kwargs, result) -> None:
    dim = int(_arg(args, kwargs, 0, "hamiltonian").shape[0])
    tracer.counters["dvr.grid_points_sum"] += dim
    tracer.counters["dvr.eigh_flops_computed"] += float(dim) ** 3


def _count_build(tracer, args, kwargs, result, *, signature) -> None:
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    requested = bound.arguments["n_x"] + bound.arguments["n_b"]
    tracer.counters["molecule.levels_requested"] += requested
    tracer.counters["molecule.levels_kept"] += result.n_x + result.n_b


def _count_points(key: str, position: int, name: str):
    def count(tracer, args, kwargs, result) -> None:
        tracer.counters[key] += getattr(_arg(args, kwargs, position, name), "size", 1)

    return count


def _count_cells(tracer, args, kwargs, result) -> None:
    """Evaluations requested from all_outcomes, and those of unseen cells.

    A cell is one (n, tau, options) triple within one operation; the ratio
    of the two counters is 1 when no cell is enumerated twice.
    """
    n = _arg(args, kwargs, 1, "n")
    tau = _arg(args, kwargs, 2, "tau_multiple")
    options = args[3] if len(args) > 3 else kwargs.get("options")
    tracer.counters["algorithm.evaluations"] += 2**n
    if (n, tau, options) not in tracer.cells:
        tracer.cells.add((n, tau, options))
        tracer.counters["algorithm.unique_evaluations"] += 2**n


def _wrap(tracer: Tracer, name: str, fn: Callable, count: Callable | None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    return wrapper


@contextmanager
def instrumented(tracer: Tracer) -> Iterator[None]:
    """Rebind every LAYERS function in every loaded carsdj module.

    The original bindings are restored on exit.
    """
    homes = {m: importlib.import_module(f"carsdj.{m}") for m, _, _ in LAYERS}
    counts: dict[str, Callable] = {
        "solve_bound_states": _count_solve,
        "build_model": functools.partial(
            _count_build, signature=inspect.signature(homes["molecule"].build_model)
        ),
        "spectral_amplitude": _count_points(
            "pulses.spectral_amplitude.points", 1, "nu"
        ),
        "time_profile": _count_points("pulses.time_profile.points", 1, "t"),
        "all_outcomes": _count_cells,
    }
    modules = [
        module
        for key, module in sys.modules.items()
        if key == "carsdj" or key.startswith("carsdj.")
    ]
    replaced: list[tuple[object, str, Callable]] = []
    try:
        for module_name, fn_name, span_name in LAYERS:
            original = getattr(homes[module_name], fn_name)
            wrapper = _wrap(tracer, span_name, original, counts.get(fn_name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        replaced.append((module, attr, original))
                        setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in reversed(replaced):
            setattr(module, attr, original)
