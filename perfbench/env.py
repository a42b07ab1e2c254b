"""Environment block recorded with every benchmark result.

Records interpreter and library versions, the core count, the thread count of
each loaded OpenBLAS (numpy and scipy bundle separate pools), the BLAS/OpenMP
environment variables as set, whether helmdd's numba kernels are active, and
the source commit when the checkout carries git metadata.
"""

import ctypes
import glob
import os
import platform
from pathlib import Path

import numpy as np
import scipy

# (package, library file pattern, thread-count symbol) of each bundled OpenBLAS
_OPENBLAS = (
    ("numpy", "libscipy_openblas64_*.so*", "scipy_openblas_get_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so*", "scipy_openblas_get_num_threads"),
)


def _openblas_threads(package, pattern, symbol):
    """Thread count reported by the OpenBLAS bundled with a wheel, or None."""
    pkg = __import__(package)
    libs = Path(pkg.__file__).resolve().parent.parent / f"{package}.libs"
    for path in sorted(glob.glob(str(libs / pattern))):
        try:
            lib = ctypes.CDLL(path)
            fn = getattr(lib, symbol)
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def _git_commit(root):
    """HEAD commit read from .git without running git; None outside a repo."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root):
    from helmdd import _kernels

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": {pkg: _openblas_threads(pkg, pat, sym)
                             for pkg, pat, sym in _OPENBLAS},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "using_numba": _kernels.using_numba(),
        "git_commit": _git_commit(root),
    }
