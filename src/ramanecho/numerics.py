"""Small numerical and I/O helpers used by the integrators and writers.

The node sums and the Z quadrature come in two forms with the same bits:
weighted_node_sum and CumulativeQuadrature.__call__ choose their product
and normalise their operands on every call, and node_product and
CumulativeQuadrature.directed are the products chosen once for one
shape, which a stage holds and calls directly.  directed also runs the
rule from the far end of the axis, the integral from each point to the
last, as a retrieval stage integrates.
"""

from __future__ import annotations

import math
import os
import tempfile
from functools import partial
from typing import Callable

import numpy as np


# one-sided cubic weights of the first and the last interval, on the
# four samples at each end of the axis
_END_TAPS = np.array([0, 1, 2, 3, -4, -3, -2, -1])
_END_WEIGHTS = np.array([[9.0, 19.0, -5.0, 1.0], [1.0, -5.0, 19.0, 9.0]])

# OpenBLAS runs a product on one thread while it is small, so that its
# bits cannot depend on the thread count.  Its interface sources set the
# size as a multiple of GEMM_MULTITHREAD_THRESHOLD, 4 by default: a gemm
# of m n k <= 65,536 x 4 = 262,144 (interface/gemm.c) and a gemv on an
# m x n matrix of m n < 2,304 x 4 = 9,216 (interface/gemv.c).  Later
# releases raised them: on a 2-vCPU x86-64 VM, the OpenBLAS 0.3.31
# bundled with numpy 2.4.6 woke no second thread (its worker took no CPU
# time over repeated calls) for a gemm of m n k <= 1,000,000 or a gemv of
# m n < 460,800.  A node sum or a dense Z
# quadrature runs as np.dot up to half of the older sizes
# (one_thread_product), and off BLAS above them.
GEMM_ONE_THREAD_MAX = 262_144 // 2
GEMV_ONE_THREAD_MAX = 9_216 // 2

# CumulativeQuadrature applies the rule to a complex row as one dense
# matrix product up to this many points, in either direction: the longest
# axis whose complex row, an (n, n) by (n, 2) gemm, is within
# GEMM_ONE_THREAD_MAX.  That is also about where the product stops being
# the faster form.  Per call on a complex row
# (numpy 2.4.6, OpenBLAS 0.3.31, one thread of a shared 2-vCPU x86-64 VM,
# best of 7 x 1000): the product takes 2.5-3.4 us against 11-12 us for
# cumulative_integral at n = 17-65, 8.0 against 11.0 us at 193, 12.8
# against 11.6 us at 257 and 137 against 14 us at 641.
DENSE_QUADRATURE_MAX = math.isqrt(GEMM_ONE_THREAD_MAX // 2)

# the views the bound products read and return: a complex array's
# interleaved float64 parts, and a complex row's as (n, 2)
_FLOAT = np.dtype(np.float64)
_COMPLEX = np.dtype(np.complex128)
_PARTS = np.dtype((np.float64, (2,)))

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
    """cumulative_integral(y, dx) on one fixed axis of n points.

    Up to DENSE_QUADRATURE_MAX points the rule is applied as one (n, n)
    real weight matrix W, cumulative_integral of the identity, to the real
    and imaginary parts of y as an (n, 2) product: the same weights summed
    in another order, so a result differs from cumulative_integral's in
    its last bits.  A longer axis, or a real y whose (n,) product is a
    gemv above one_thread_product's bound, calls cumulative_integral
    itself, bit for bit.  weights is W, None above DENSE_QUADRATURE_MAX.

    directed(sign, scale, real) makes that choice once for one kind of
    row and one direction: the integral from the first point for sign
    +1, and for sign -1 from each point to the last, times scale.
    Backward the dense rule is the flipped weight matrix J W J, with J
    the reversal: it sums the terms of the flipped cumulative_integral of
    the flipped y in the opposite order, so it agrees with that to
    rounding, and flips neither y nor the result.  __call__ is the
    forward rule chosen on every call.
    """

    def __init__(self, n: int, dx: float):
        self.dx = dx
        self.weights = None if n > DENSE_QUADRATURE_MAX else \
            np.ascontiguousarray(cumulative_integral(np.eye(n), dx).T)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """The cumulative integral of the samples y on the axis, by the
        forward integrator of y's kind, on y made C-contiguous."""
        y = np.ascontiguousarray(y, np.promote_types(y.dtype, np.float64))
        out = np.empty_like(y)
        if y.dtype.kind == "c":
            self.directed(+1)(y.view(_PARTS), out.view(_PARTS))
        else:
            self.directed(+1, real=True)(y, out)
        return out

    def directed(self, sign: int, scale: float = 1.0,
                 real: bool = False) -> Callable:
        """The integral in the direction of sign, times scale, as a
        callable (y, out) that takes no decision and writes into out.

        For a complex row (real False) y and out are the (n, 2) float64
        parts of C-contiguous complex rows, for a real row (real True)
        C-contiguous float64 rows.  On a dense axis, for a complex row or
        a real one whose gemv is within one_thread_product's bound, the
        integrator is the bare bound ndarray.dot of W, or of J W J for
        sign -1, pre-scaled by scale.  Otherwise it writes scale times
        cumulative_integral, run on the flipped row and flipped back for
        sign -1.
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
    half of the size up to which OpenBLAS runs it on one thread.

    numpy calls a gemv when m or n is 1, bounded by GEMV_ONE_THREAD_MAX,
    and a gemm otherwise, bounded by GEMM_ONE_THREAD_MAX; either product
    of that size has the same bits on any number of threads.
    """
    size = m * k * n
    if m == 1 or n == 1:
        return size <= GEMV_ONE_THREAD_MAX
    return size <= GEMM_ONE_THREAD_MAX


def node_product(weights_shape: tuple, shape: tuple) -> Callable:
    """weighted_node_sum's product for weights of weights_shape and a
    C-contiguous float64 x of this (n_node, n_cols) shape, chosen once: a
    callable (weights, x, out=None) that takes no decision.

    Within one_thread_product's bound it is np.ndarray.dot, which is
    np.dot without numpy's __array_function__ dispatch (both call the same
    C product); above it, einsum's own loop.  Either writes into a
    C-contiguous float64 out when one is given, with the bits it would
    return.
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
    real and imaginary parts.  Within one_thread_product's bound the sum
    is np.dot, a gemv or a gemm that OpenBLAS keeps on one thread, and at
    the node counts and slabs of the shipped scenarios 3-6 times faster
    than einsum.  Above the bound it is einsum's own loop, off BLAS, since
    OpenBLAS may split a larger product across threads and sum it in
    another order.  Either way the result is bit-identical from run to
    run and does not depend on the BLAS thread count.  The product is
    node_product's for the float64 parts of x made C-contiguous in
    float64 or complex128: a stage chooses it once and calls it directly.
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


def write_text_atomic(path: str, text: str) -> None:
    """Whole-file atomic write: temp file in the same directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
