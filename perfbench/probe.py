"""Fresh-process probes, each run as its own subprocess.

    python probe.py env                   print the environment block as JSON
    python probe.py setup N_DIM N R_MAX   import nlslab and build one grid's
                                          grid, transform and propagator

The benchmark times ``setup`` from outside, so the figure includes
interpreter start and imports: the set-up every CLI invocation pays.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import sys

_THREAD_QUERIES = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)


def _loaded_blas_libraries() -> list[str]:
    """Paths of the BLAS shared objects mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        return []
    return sorted(p for p in paths if p.startswith("/"))


def _blas_threads() -> dict:
    """Thread count reported by each loaded OpenBLAS, by library file name."""
    out = {}
    for path in _loaded_blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_QUERIES:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (maps scipy's own BLAS)

    import nlslab

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nlslab": getattr(nlslab, "__version__", "unknown"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_in_use": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }


def setup(dimension: int, n_points: int, r_max: float) -> None:
    import nlslab

    grid = nlslab.make_spectral_grid(dimension, n_points, r_max)
    nlslab.get_transform(grid)
    nlslab.get_propagator(grid)


if __name__ == "__main__":
    if sys.argv[1] == "env":
        print(json.dumps(environment()))
    else:
        setup(int(sys.argv[2]), int(sys.argv[3]), float(sys.argv[4]))
