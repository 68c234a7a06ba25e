"""Start-up shared by the benchmark's scripts; standard library only.

Must run before numpy is imported: the BLAS reads its thread count once,
at load time.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "carsdj"
GOLDENS = HERE / "goldens.json"
PINNED_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout holds no carsdj source to benchmark."""


def prepare() -> None:
    """Pin the BLAS to one thread and put the checkout's src first on the path.

    Raises MissingSource when there is no package source to measure.
    """
    if not (SOURCE / "__init__.py").is_file():
        raise MissingSource(f"no package source at {SOURCE}")
    for var in THREAD_VARS:
        os.environ[var] = PINNED_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import carsdj

    if Path(carsdj.__file__).resolve().parent != SOURCE.resolve():
        raise MissingSource(f"imported carsdj from {carsdj.__file__}, not {SOURCE}")
