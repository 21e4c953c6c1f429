"""Paths, process settings and small helpers shared by the benchmark scripts.

``bootstrap()`` must run before anything imports numpy or gridscope: it
pins numerical libraries to one thread (every load is one process with no
extra threads) and puts the checkout's own ``src`` and ``tests`` first on
the import path, so the code measured is the code in this checkout.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".perfbench_work"

# One thread per numerical library, and a fixed string-hash seed so that
# repetitions in different processes do the same work.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class MissingProgram(RuntimeError):
    """The checkout lacks the program or its oracles."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def bootstrap() -> None:
    for name, value in CHILD_ENV.items():
        os.environ.setdefault(name, value)
    for need in (SRC / "gridscope" / "__init__.py", TESTS / "oracles.py"):
        if not need.is_file():
            raise MissingProgram(f"{need.relative_to(ROOT)} not found under {ROOT}")
    for path in (str(TESTS), str(SRC)):
        if path in sys.path:
            sys.path.remove(path)
        sys.path.insert(0, path)
    import gridscope

    if Path(gridscope.__file__).resolve().parent != (SRC / "gridscope").resolve():
        raise MissingProgram(f"imported gridscope from {gridscope.__file__}, not {SRC}")


class Timings(dict):
    """Accumulated wall time per name, in seconds."""

    @contextmanager
    def timed(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self[name] = self.get(name, 0.0) + time.perf_counter() - start


def median(values) -> float:
    return statistics.median(values) if values else 0.0
