"""Thread count of the OpenBLAS that NumPy loaded.

Worker processes (sweep cells, serve replicas, data-parallel ranks) run
one BLAS thread each: the parallelism comes from the processes, and a
full BLAS pool in every one of them oversubscribes the cores.  The
``OPENBLAS_NUM_THREADS`` / ``OMP_NUM_THREADS`` variables cannot do this:
OpenBLAS reads them once, when it loads, and a forked worker inherits a
library its parent loaded.  So the count is set through the library's
own call.

The library is the ``*openblas*`` file mapped into this process
(``/proc/self/maps``).  Its getter and setter are looked up under the
names NumPy's ILP64 wheels export (``scipy_openblas_*64_``), then the
LP64 wheel names, then those of a plain OpenBLAS build; trying names
before files picks NumPy's library when SciPy has mapped its own LP64
OpenBLAS beside it.  Where there is no ``/proc`` or no OpenBLAS, both
functions change nothing and return ``None``.
"""

from __future__ import annotations

import ctypes
import os

import numpy  # noqa: F401  - maps NumPy's BLAS into this process

__all__ = ["blas_threads", "set_blas_threads"]

#: (getter, setter) symbol pairs, in lookup order.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _mapped_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError:
        return []
    paths: dict[str, None] = {}
    for line in lines:
        fields = line.split(maxsplit=5)
        if len(fields) == 6:
            path = fields[5].strip()
            if "openblas" in os.path.basename(path).lower():
                paths.setdefault(path)
    return list(paths)


def _openblas():
    """``(get, set)`` thread-count functions of NumPy's OpenBLAS, or None."""
    libs = []
    for path in _mapped_openblas():
        try:
            libs.append(ctypes.CDLL(path))
        except OSError:  # e.g. "... (deleted)": the file went after mapping
            continue
    for get_name, set_name in _SYMBOLS:
        for lib in libs:
            get = getattr(lib, get_name, None)
            put = getattr(lib, set_name, None)
            if get is None or put is None:
                continue
            get.argtypes = []
            get.restype = ctypes.c_int
            put.argtypes = [ctypes.c_int]
            put.restype = None
            return get, put
    return None


def blas_threads() -> int | None:
    """Threads NumPy's OpenBLAS runs a call on; None without OpenBLAS."""
    funcs = _openblas()
    return None if funcs is None else funcs[0]()


def set_blas_threads(n: int) -> int | None:
    """Run NumPy's OpenBLAS on ``n`` threads and return the previous count.

    Without OpenBLAS nothing changes and the result is None.
    """
    if n < 1:
        raise ValueError(f"BLAS thread count must be >= 1, got {n}")
    funcs = _openblas()
    if funcs is None:
        return None
    get, put = funcs
    previous = get()
    put(n)
    return previous
