"""Thread counts: BLAS's, and the ordered map that evaluation and block
updates run on worker threads.

This module does not import numpy, so the command line can fix BLAS's
thread count through the environment before numpy loads
(:func:`pin_blas_threads`).
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# the variables OpenBLAS, MKL and OpenMP read their thread count from, in
# the order they take precedence
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def pin_blas_threads() -> None:
    """Run BLAS on one thread unless the environment already sets a count.

    Worker threads then each run their own single-threaded products
    instead of contending for BLAS's threads.  BLAS reads the count when
    numpy loads, so once numpy has loaded this does nothing.
    """
    if "numpy" in sys.modules:
        return
    if not any(os.environ.get(var) for var in BLAS_THREAD_ENV):
        for var in BLAS_THREAD_ENV:
            os.environ[var] = "1"


def blas_threads() -> int:
    """BLAS's thread count as the environment sets it: the first of
    :data:`BLAS_THREAD_ENV` that holds a positive integer, else the usable
    cores, which OpenBLAS and MKL default to.  Only a guess where numpy
    loaded under another environment.
    """
    for var in BLAS_THREAD_ENV:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_ordered(fn: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """``[fn(x) for x in items]``, on ``workers`` threads when that and the
    number of items are both above one.  Results come back in item order,
    and an exception is raised for the first failing item in that order.
    """
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]
