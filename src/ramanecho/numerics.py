"""Small numerical and I/O helpers used by the integrators and writers."""

from __future__ import annotations

import os
import tempfile

import numpy as np


# one-sided cubic weights of the first and the last interval, on the
# four samples at each end of the axis
_END_TAPS = np.array([0, 1, 2, 3, -4, -3, -2, -1])
_END_WEIGHTS = np.array([[9.0, 19.0, -5.0, 1.0], [1.0, -5.0, 19.0, 9.0]])

# CumulativeQuadrature applies the rule as one dense matrix product up to
# this many points, where the product stops being the faster form.  Per
# call on a complex row (numpy 2.4.6, OpenBLAS 0.3.31, one thread of a
# shared 2-vCPU x86-64 VM, best of 7 x 1000): the product takes 2.5-3.4 us
# against 11-12 us for cumulative_integral at n = 17-65, 8.0 against
# 11.0 us at 193, 12.8 against 11.6 us at 257 and 137 against 14 us at
# 641.  At most 256 points, the product is a gemm of m n k = 2 n^2 <=
# 131,072, at most half the size up to which OpenBLAS runs a gemm on one
# thread by default (262,144), so its bits do not depend on the thread
# count.
DENSE_QUADRATURE_MAX = 256

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
    real weight matrix, cumulative_integral of the identity, to the real
    and imaginary parts of y as an (n, 2) product: the same weights summed
    in another order, so a result differs from cumulative_integral's in
    its last bits.  A longer axis calls cumulative_integral itself, bit
    for bit.
    """

    def __init__(self, n: int, dx: float):
        self.dx = dx
        self.weights = (np.ascontiguousarray(cumulative_integral(
            np.eye(n), dx).T) if n <= DENSE_QUADRATURE_MAX else None)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        """The cumulative integral of the samples y on the axis."""
        if self.weights is None:
            return cumulative_integral(y, self.dx)
        y = np.ascontiguousarray(y, np.promote_types(y.dtype, np.float64))
        parts = y.view(np.float64).reshape(y.size, -1)
        return np.dot(self.weights, parts).view(y.dtype).ravel()


def trapezoid_energy(y: np.ndarray, dx: float) -> float:
    """Energy integral of |y|^2 over a uniform grid."""
    return float(np.trapezoid(np.abs(np.asarray(y)) ** 2, dx=dx))


def weighted_node_sum(weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j weights[j] * x[j, :] over the node axis for real weights.

    A complex x is summed as its interleaved real and imaginary parts, by
    einsum's own loop: bit-identical from run to run, and not dependent on
    the BLAS library or its thread count, as a matrix product over the
    nodes could be once it is large enough for OpenBLAS to split it across
    threads.  (CumulativeQuadrature's product is a BLAS call, kept below
    that size.)
    """
    x = np.ascontiguousarray(x, np.promote_types(x.dtype, np.float64))
    return np.einsum("j,jz->z", weights, x.view(np.float64)).view(x.dtype)


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
