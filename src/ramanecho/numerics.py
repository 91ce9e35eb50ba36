"""Small numerical and I/O helpers used by the integrators and writers.

node_product and CumulativeQuadrature.directed are the node sums and the
Z quadrature chosen once for one shape, which a stage holds and calls;
weighted_node_sum makes node_product's choice on every call.
"""

from __future__ import annotations

import math
import os
import tempfile
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np


# one-sided cubic weights of the first and the last interval, on the
# four samples at each end of the axis
_END_TAPS = np.array([0, 1, 2, 3, -4, -3, -2, -1])
_END_WEIGHTS = np.array([[9.0, 19.0, -5.0, 1.0], [1.0, -5.0, 19.0, 9.0]])

# OpenBLAS runs a product on one thread while it is small, so that its
# bits cannot depend on the thread count: by its interface sources, with
# GEMM_MULTITHREAD_THRESHOLD at its default 4, a gemm of m n k <= 262,144
# (gemm.c) and a gemv of m n < 9,216 (gemv.c).  Later releases raised
# them (0.3.31, with numpy 2.4.6 on a 2-vCPU x86-64 VM, woke no second
# thread up to 1,000,000 and 460,800).  A node sum or a dense Z
# quadrature is np.dot up to half of the older sizes (one_thread_product)
# and runs off BLAS above them.
GEMM_ONE_THREAD_MAX = 262_144 // 2
GEMV_ONE_THREAD_MAX = 9_216 // 2

# the longest axis whose complex row, an (n, n) by (n, 2) gemm, is within
# GEMM_ONE_THREAD_MAX, which is also about where the dense product stops
# being faster than cumulative_integral: 2.5-3.4 against 11-12 us a
# complex row at n = 17-65, 12.8 against 11.6 us at 257 (numpy 2.4.6,
# one thread of a 2-vCPU x86-64 VM)
DENSE_QUADRATURE_MAX = math.isqrt(GEMM_ONE_THREAD_MAX // 2)

# the views the bound products read and return: a complex array's
# interleaved float64 parts, and a complex row's as (n, 2)
_FLOAT = np.dtype(np.float64)
_COMPLEX = np.dtype(np.complex128)
_PARTS = np.dtype((np.float64, (2,)))

# the rows table_chunks formats with one % of its template
ROW_BLOCK = 4096

# golden section stops at this argument interval, or after this many steps
GOLDEN_TOL = 1e-10
GOLDEN_MAX_ITER = 200


def cumulative_integral(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled y with I[0] = 0.

    Fourth-order accurate: each interval increment integrates the cubic
    through the four nearest samples.  Falls back to trapezoid for fewer
    than 4 samples.
    """
    y = np.asarray(y)
    n = y.shape[-1]
    out = np.empty_like(y, dtype=np.promote_types(y.dtype, np.float64))
    out[..., :1] = 0.0
    if n < 2:
        return out
    inc = out[..., 1:]
    if n < 4:
        np.add(y[..., 1:], y[..., :-1], out=inc)
        inc *= 0.5 * dx
        np.cumsum(inc, axis=-1, out=inc)
        return out
    # interior intervals [i, i+1], i = 1 .. n-3: cubic through i-1 .. i+2
    mid = inc[..., 1:-1]
    np.multiply(y[..., 1:-2], 13.0, out=mid)
    mid -= y[..., :-3]
    mid += 13.0 * y[..., 2:-1]
    mid -= y[..., 3:]
    if y.ndim == 1 and y.dtype.kind == "c":
        # a field row, four per step: scalar taps, paired as the complex
        # reduction below pairs them, so both give the same bits
        a0, a1, a2, a3 = y[:4].tolist()
        b0, b1, b2, b3 = y[-4:].tolist()
        inc[0] = (9.0 * a0 + 19.0 * a1) + (a3 - 5.0 * a2)
        inc[-1] = (b0 - 5.0 * b1) + (19.0 * b2 + 9.0 * b3)
    else:
        ends = y[..., _END_TAPS].reshape(y.shape[:-1] + (2, 4))
        inc[..., ::n - 2] = np.add.reduce(ends * _END_WEIGHTS, axis=-1)
    inc *= dx / 24.0
    inc.cumsum(axis=-1, out=inc)
    return out


class CumulativeQuadrature:
    """cumulative_integral(y, dx) on one fixed axis of n points; weights
    is the (n, n) real weight matrix W, cumulative_integral of the
    identity, up to DENSE_QUADRATURE_MAX points and None above."""

    def __init__(self, n: int, dx: float):
        self.dx = dx
        self.weights = None if n > DENSE_QUADRATURE_MAX else \
            np.ascontiguousarray(cumulative_integral(np.eye(n), dx).T)

    def directed(self, sign: int, scale: float = 1.0,
                 real: bool = False) -> Callable:
        """The integral from the first point for sign +1, or from each
        point to the last for sign -1, times scale, as a callable (y, out)
        that takes no decision and writes into out.

        For a complex row (real False) y and out are the (n, 2) float64
        parts of C-contiguous complex rows, for a real row (real True)
        C-contiguous float64 rows.  On a dense axis, for a complex row or
        a real one whose gemv is within one_thread_product's bound, it is
        the bare bound ndarray.dot of scale W, or of scale J W J for sign
        -1 with J the reversal: the same weights as cumulative_integral's
        summed in another order, so it agrees with that to rounding, and
        flips neither y nor the result.  Otherwise it writes scale times
        cumulative_integral itself, run on the flipped row and flipped
        back for sign -1.
        """
        if self.weights is not None and (
                not real or one_thread_product(*self.weights.shape, 1)):
            weights = self.weights if sign > 0 else self.weights[::-1, ::-1]
            if scale != 1.0:
                weights = scale * weights
            return np.ascontiguousarray(weights).dot
        dx, step = self.dx, 1 if sign > 0 else -1

        def integrate(y: np.ndarray, out: np.ndarray) -> None:
            if not real:
                y, out = y.view(_COMPLEX)[:, 0], out.view(_COMPLEX)[:, 0]
            integral = cumulative_integral(y[::step], dx)[::step]
            out[...] = integral if scale == 1.0 else scale * integral

        return integrate


def trapezoid_energy(y: np.ndarray, dx: float) -> float:
    """Energy integral of |y|^2 over a uniform grid."""
    return float(np.trapezoid(np.abs(np.asarray(y)) ** 2, dx=dx))


def one_thread_product(m: int, k: int, n: int) -> bool:
    """Whether np.dot of an (m, k) and a (k, n) float64 array is within
    half of the size up to which OpenBLAS runs it on one thread: numpy
    calls a gemv when m or n is 1, bounded by GEMV_ONE_THREAD_MAX, and a
    gemm otherwise, bounded by GEMM_ONE_THREAD_MAX."""
    size = m * k * n
    if m == 1 or n == 1:
        return size <= GEMV_ONE_THREAD_MAX
    return size <= GEMM_ONE_THREAD_MAX


def node_product(weights_shape: tuple, shape: tuple) -> Callable:
    """weighted_node_sum's product for weights of weights_shape and a
    C-contiguous float64 x of this (n_node, n_cols) shape, chosen once: a
    callable (weights, x, out=None) that takes no decision.

    Within one_thread_product's bound it is np.ndarray.dot, which is
    np.dot without numpy's __array_function__ dispatch, and at the shipped
    scenarios' shapes 3-6 times faster than einsum; above it, einsum's own
    loop, off BLAS, since OpenBLAS may split a larger product across
    threads and sum it in another order.  Either writes into a
    C-contiguous float64 out when one is given, with the bits it would
    return, and neither depends on the BLAS thread count.
    """
    rows = weights_shape[0] if len(weights_shape) == 2 else 1
    if one_thread_product(rows, shape[0], shape[1]):
        return np.ndarray.dot
    return partial(np.einsum, "kj,jz->kz" if len(weights_shape) == 2
                   else "j,jz->z")


def weighted_node_sum(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j weights[j] * x[j, :] over the node axis for real weights.

    weights is the (n_node,) node weights, or a real (rows, n_node) table
    that gives one sum per row.  A complex x is summed as its interleaved
    real and imaginary parts, by node_product's product for x made
    C-contiguous in float64 or complex128.
    """
    x = np.ascontiguousarray(x, np.promote_types(x.dtype, np.float64))
    parts = x.view(_FLOAT)
    return node_product(weights.shape, parts.shape)(weights, parts).view(
        x.dtype)


def golden_section_max(fn, lo: float, hi: float) -> tuple[float, float]:
    """Maximize a unimodal scalar function on [lo, hi].

    Returns (argmax, max).  Deterministic; stops once the argument
    interval is below GOLDEN_TOL or after GOLDEN_MAX_ITER steps.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(GOLDEN_MAX_ITER):
        if b - a < GOLDEN_TOL:
            break
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    x = 0.5 * (a + b)
    return x, fn(x)


def fmt_float(x: float) -> str:
    """Format with 17 significant digits (round-trip safe, >= 15 required)."""
    return format(float(x), ".17g")


def table_chunks(template: str, columns: list) -> Iterator[str]:
    """The rows of equal-length list columns, each template % its cells,
    as chunks of ROW_BLOCK rows: one % of the template repeated, on the
    block's cells interleaved row by row."""
    for start in range(0, len(columns[0]), ROW_BLOCK):
        block = [column[start:start + ROW_BLOCK] for column in columns]
        cells = [None] * (len(block) * len(block[0]))
        for j, column in enumerate(block):
            cells[j::len(block)] = column
        yield (template * len(block[0])) % tuple(cells)


def write_text_atomic(path: str, text: str | Iterable[str]) -> None:
    """Whole-file atomic write of a str, or of str chunks written as they
    come: temp file in the same directory, then rename, and no temp file
    left when a chunk raises.  The file gets 0o666 less the umask, as
    open(path, "w") gives a new file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
