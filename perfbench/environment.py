"""What a result was measured on: code, interpreter, BLAS and machine."""

from __future__ import annotations

import ctypes
import glob
import os
import platform

import numpy as np


def git_sha(root: str) -> str:
    """HEAD of the checkout at root, read from .git without running git
    (which would search parent directories when root is no repository)."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _openblas():
    """numpy's bundled OpenBLAS, already loaded; None when numpy links
    another BLAS."""
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                            "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs_dir, "*openblas*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def blas_threads() -> int | str:
    """Threads numpy's OpenBLAS uses now, read from the library."""
    lib = _openblas()
    if lib is not None:
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return "unknown"


def record(root: str) -> dict:
    """Environment of this result.  The BLAS thread count is read from the
    library, so a thread setting made through the environment shows."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    load1, load5, load15 = os.getloadavg()
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} "
                f"{blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": [round(load1, 2), round(load5, 2),
                          round(load15, 2)],
    }
