"""Machine record stored with every result, and the calibration probe.

The probe is a fixed piece of pure-Python and BLAS work.  It is timed at the
start and end of a run and reported only; no metric is rescaled by it.
"""

from __future__ import annotations

import ctypes
import os
import platform
import resource
import statistics
import time

import numpy as np
import scipy

_PROBE_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def calibration_probe_ms(repeats: int = 5) -> float:
    """Median wall time of the fixed probe, in ms."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i % 7
        m = _PROBE_MATRIX
        for _ in range(100):
            m = np.tanh(_PROBE_MATRIX @ m)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> tuple[str, int | None]:
    """OpenBLAS version from numpy's build record and its live thread count."""
    try:
        version = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version", "unknown")
    except (KeyError, TypeError):
        version = "unknown"
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
        if threads is not None:
            break
    return version, threads


def machine_record() -> dict:
    blas_version, blas_threads = _blas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_version,
        "blas_threads": blas_threads,
    }
