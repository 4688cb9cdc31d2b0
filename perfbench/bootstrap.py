"""Process set-up shared by the benchmark's entry scripts.

Call ``prepare()`` before anything imports NumPy: it pins every BLAS to one
thread per process and puts this checkout's ``src/`` first on the import
path, so the benchmark always measures the code beside it.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "cardiosleep" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no cardiosleep package under {SRC}")
    sys.path.insert(0, str(SRC))
