"""Small numerical and I/O helpers used by the integrators and writers."""

from __future__ import annotations

import os
import tempfile

import numpy as np


def cumulative_integral(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral of uniformly sampled y with I[0] = 0.

    Fourth-order accurate: each interval increment integrates the cubic
    through the four nearest samples.  Falls back to trapezoid for fewer
    than 4 samples.
    """
    y = np.asarray(y)
    n = y.shape[-1]
    out = np.zeros_like(y, dtype=np.result_type(y.dtype, np.float64))
    if n < 2:
        return out
    if n < 4:
        inc = 0.5 * dx * (y[..., 1:] + y[..., :-1])
        out[..., 1:] = np.cumsum(inc, axis=-1)
        return out
    inc = np.empty_like(out[..., :-1])
    # interior intervals [i, i+1], i = 1 .. n-3: cubic through i-1 .. i+2
    inc[..., 1:-1] = (dx / 24.0) * (
        -y[..., :-3] + 13.0 * y[..., 1:-2] + 13.0 * y[..., 2:-1] - y[..., 3:]
    )
    # one-sided cubic at the two boundary intervals
    inc[..., 0] = (dx / 24.0) * (
        9.0 * y[..., 0] + 19.0 * y[..., 1] - 5.0 * y[..., 2] + y[..., 3]
    )
    inc[..., -1] = (dx / 24.0) * (
        y[..., -4] - 5.0 * y[..., -3] + 19.0 * y[..., -2] + 9.0 * y[..., -1]
    )
    out[..., 1:] = np.cumsum(inc, axis=-1)
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


def simpson_increments(fn, t0: float, dt: float):
    """Integrals of fn over [t0, t0+dt/2] and [t0, t0+dt] by Simpson panels.

    fn must accept numpy arrays.  Accuracy O(dt^5) per call, enough for the
    per-step phase bookkeeping of the exponential integrators.
    """
    return simpson_sums(fn(simpson_nodes(t0, dt)), dt)


def weighted_node_sum(weights: np.ndarray, x: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """sum_j weights[j] * x[j, :] over the node axis, in fixed node order.

    A numpy reduction over axis 0 adds the weighted rows one after
    another, so the result is bit-identical from run to run and does not
    depend on the BLAS library or its thread count, as a matrix product
    would.  out, when given, receives the weighted rows.
    """
    return np.add.reduce(np.multiply(weights[:, None], x, out=out), axis=0)


def golden_section_max(fn, lo: float, hi: float, tol: float = 1e-10,
                       max_iter: int = 200) -> tuple[float, float]:
    """Maximize a unimodal scalar function on [lo, hi].

    Returns (argmax, max).  Deterministic; tol is on the argument interval.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if b - a < tol:
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


def write_csv_atomic(path: str, header: list[str], rows, comments=()) -> None:
    """CSV with '.' decimals, comma delimiter, one header row, atomic write.

    rows yield sequences of floats/strings; comments are appended verbatim
    as '#'-prefixed lines.
    """
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else fmt_float(cell) for cell in row))
    for comment in comments:
        lines.append("# " + comment)
    write_text_atomic(path, "\n".join(lines) + "\n")
