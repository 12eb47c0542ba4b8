"""Paths, the fixture digest and the thread setting shared by the benchmark's
scripts.  Imports nothing heavy: the thread variables must be in the
environment before numpy loads its BLAS.
"""

from __future__ import annotations

import hashlib
import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
FIXTURE_PATH = os.path.join(BENCH_DIR, "fixture", "sft_grid_rotation.lsk")
FIXTURE_SHA256 = "95e26d26914ebe10d93944e5ab94dcd23bee8ab4a49f10070ce1ad405aaf1fc6"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def single_thread_env() -> dict[str, str]:
    """One BLAS/OpenMP thread: same step time as two on a 2-core box, less CPU."""
    return {name: "1" for name in THREAD_VARS}


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
