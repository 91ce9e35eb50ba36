"""Small numerical and I/O helpers used by the integrators and writers."""

from __future__ import annotations

import os
import tempfile

import numpy as np


# one-sided cubic weights of the first and the last interval, on the
# four samples at each end of the axis
_END_TAPS = np.array([0, 1, 2, 3, -4, -3, -2, -1])
_END_WEIGHTS = np.array([[9.0, 19.0, -5.0, 1.0], [1.0, -5.0, 19.0, 9.0]])

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
    ends = y[..., _END_TAPS].reshape(y.shape[:-1] + (2, 4))
    inc[..., ::n - 2] = np.add.reduce(ends * _END_WEIGHTS, axis=-1)
    inc *= dx / 24.0
    np.cumsum(inc, axis=-1, out=inc)
    return out


def trapezoid_energy(y: np.ndarray, dx: float) -> float:
    """Energy integral of |y|^2 over a uniform grid."""
    return float(np.trapezoid(np.abs(np.asarray(y)) ** 2, dx=dx))


def simpson_nodes(t0: float, dt: float) -> np.ndarray:
    """The nine Simpson points t0 + dt * (0, 1/8, ..., 1) of one step.

    Entries 0, 4 and 8 are t0, t0 + dt/2 and t0 + dt exactly as the
    steppers compute their stage times.
    """
    return t0 + dt * np.array(
        [0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0])


def simpson_sums(v: np.ndarray, dt: float):
    """Integrals over [t0, t0+dt/2] and [t0, t0+dt] of a function sampled
    at simpson_nodes(t0, dt)."""
    # composite Simpson, two panels of width dt/4 per half: h/3 = dt/24
    half = (dt / 24.0) * (v[0] + 4.0 * v[1] + 2.0 * v[2] + 4.0 * v[3] + v[4])
    full = half + (dt / 24.0) * (v[4] + 4.0 * v[5] + 2.0 * v[6] + 4.0 * v[7] + v[8])
    return half, full


def weighted_node_sum(weights: np.ndarray, x: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """sum_j weights[j] * x[j, :] over the node axis, in fixed node order.

    A numpy reduction over axis 0 adds the weighted rows one after
    another, so the result is bit-identical from run to run and does not
    depend on the BLAS library or its thread count, as a matrix product
    would.  out, when given, receives the weighted rows.
    """
    return np.add.reduce(np.multiply(weights[:, None], x, out=out), axis=0)


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
