"""The benchmark's layer trace still finds every function it names.

``perfbench/tracing.py`` rebinds each function in its ``LAYERS`` by name;
a refactor that renames or drops one breaks ``perfbench/run.py --trace``,
which these tests otherwise never run.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_is_rebound_and_restored():
    tracing = _load_tracing()
    homes = {m: importlib.import_module(f"carsdj.{m}") for m, _, _ in tracing.LAYERS}
    missing = [
        f"carsdj.{m}.{fn}" for m, fn, _ in tracing.LAYERS if not hasattr(homes[m], fn)
    ]
    assert not missing
    originals = {(m, fn): getattr(homes[m], fn) for m, fn, _ in tracing.LAYERS}
    with tracing.instrumented(tracing.Tracer()):
        for (m, fn), original in originals.items():
            wrapper = getattr(homes[m], fn)
            assert wrapper is not original and wrapper.__wrapped__ is original
    for (m, fn), original in originals.items():
        assert getattr(homes[m], fn) is original


def test_the_test_oracles_stay_traceable_but_unexported():
    # the trace binds run_instance and enumerate_functions in
    # carsdj.algorithm; the package root offers neither, nor cars_spectrum,
    # which lives with the tests
    import carsdj
    import carsdj.algorithm

    oracles = ("run_instance", "enumerate_functions")
    assert all(callable(getattr(carsdj.algorithm, name, None)) for name in oracles)
    for name in (*oracles, "cars_spectrum"):
        assert not hasattr(carsdj, name), name
        assert name not in carsdj.__all__, name
