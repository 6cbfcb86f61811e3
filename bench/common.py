"""Locate and import the turbox sources of the checkout the benchmark sits in.

The benchmark never uses an installed turbox: it imports `src/turbox` next
to its own directory, and refuses to run when that tree is missing.  numpy
and its BLAS are pinned to one thread before anything imports numpy, so
the process CPU time counts turbox's own (single) thread only.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingSources(RuntimeError):
    """The checkout holds no turbox sources to benchmark."""


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_turbox():
    """Import turbox from this checkout's `src/`, and nothing else."""
    if not (SRC / "turbox" / "__init__.py").is_file():
        raise MissingSources(f"no turbox sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import turbox  # imports every module the benchmark calls or traces

    where = Path(turbox.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise MissingSources(f"turbox was imported from {where}, not from {SRC}")
    return turbox
