"""Process set-up shared by every benchmark entry point.

Import this module before anything imports numpy: it pins BLAS and
OpenMP to one thread (threaded OpenBLAS makes the history solver's
``matrix_rank``/``lstsq`` calls measure the scheduler instead of the
program as soon as another process competes for the two cores) and puts
the repository's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

#: Thread-count variables honoured by OpenBLAS, OpenMP and MKL builds.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
SRC_DIR = REPO_ROOT / "src"
#: Untracked output location (results, the report's working directory).
OUT_DIR = BENCH_DIR / "out"

#: Whether the pinning preceded numpy's import (stamped into results:
#: a late pin may leave BLAS threaded).
PINNED_BEFORE_NUMPY = "numpy" not in sys.modules
for _name in THREAD_VARS:
    os.environ[_name] = str(BLAS_THREADS)


class MissingProgram(RuntimeError):
    """The checkout holds the benchmark but not the program it measures."""


def add_program_to_path() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/repro``."""
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise MissingProgram(
            f"no program to benchmark: {SRC_DIR / 'repro'} is missing"
        )
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
