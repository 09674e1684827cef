"""Thread counts of the OpenBLAS libraries loaded into this process, and the
allocator's thresholds, set for the solver pool's workers (spectral) and the
CLI's own process (cli.main)."""

from __future__ import annotations

import os
import re

_BLAS_LIBRARY = re.compile(r"lib.*(blas|mkl|blis)", re.IGNORECASE)
_OPENBLAS_THREADS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),  # numpy wheels
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),        # scipy wheels
    ("openblas_set_num_threads", "openblas_get_num_threads"),                    # a plain OpenBLAS
)


def keep_freed_memory():
    """Serve blocks below 1 GiB from this process's heap, and keep up to 1 GiB
    of freed memory there.

    glibc otherwise hands the work arrays of each LAPACK call back to the
    system, and the next call page-faults them in again.  The setting lasts
    for the process: glibc cannot restore its dynamic thresholds.  Does
    nothing where the C library has no ``mallopt`` (musl, macOS).
    """
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for option in (-3, -1):  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
        mallopt(option, 1 << 30)


def blas_threads(threads=None) -> dict | None:
    """Thread count of each loaded OpenBLAS by path, read before setting ``threads``.

    ``threads`` is one count for every library, or the dict an earlier call
    returned, which restores those counts.  Returns None, setting nothing,
    when the loaded libraries cannot be listed or one has no thread setter.
    """
    import ctypes

    try:
        with open("/proc/self/maps") as fh:  # the shared objects mapped into this process
            paths = {parts[5].strip() for parts in (line.split(maxsplit=5) for line in fh)
                     if len(parts) == 6}
    except OSError:
        return None
    found = {}
    for path in sorted(p for p in paths if _BLAS_LIBRARY.match(os.path.basename(p))):
        lib = ctypes.CDLL(path)
        names = next((pair for pair in _OPENBLAS_THREADS
                      if all(hasattr(lib, name) for name in pair)), None)
        if names is None:
            return None
        set_threads, get_threads = (getattr(lib, name) for name in names)
        set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
        get_threads.argtypes, get_threads.restype = (), ctypes.c_int
        found[path] = set_threads, get_threads
    previous = {path: get() for path, (_, get) in found.items()}
    if threads is not None:
        for path, (set_threads, _) in found.items():
            set_threads(threads.get(path, previous[path]) if isinstance(threads, dict)
                        else threads)
    return previous
