"""Echo records: envelope bookkeeping, efficiency and fidelity measures.

Both integrators express their result as an EchoRecord holding the input
envelope on the stage-1 clock and the echo envelope on the stage-2 clock
(zero at reading onset).  Envelopes are the physical field amplitudes
a = zeta * Delta / conj(Omega), so energy ratios are photon-number ratios
and are insensitive to the control dressing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import CONTROL_FLOOR
from .errors import PhysicalityViolation, ZeroInputEnergy
from .numerics import fmt_float, table_chunks, trapezoid_energy, \
    write_text_atomic


def envelope_from_scaled(zeta_face, control, tau):
    """Physical envelope a = zeta * Delta / conj(Omega) on the control
    support, zero where the control is off."""
    tau = np.asarray(tau, dtype=float)
    zeta_face = np.asarray(zeta_face, dtype=complex)
    om = np.asarray(control.rabi(tau), dtype=complex)
    om2 = np.abs(om) ** 2
    mask = om2 > CONTROL_FLOOR * max(om2.max(), 1e-300)
    out = np.zeros_like(zeta_face)
    out[mask] = (zeta_face[mask] * control.one_photon_detuning
                 / np.conj(om[mask]))
    return out


def centroid(tau, envelope) -> float:
    """First moment of |envelope|^2; falls back to the window center when
    the envelope is empty."""
    tau = np.asarray(tau, dtype=float)
    w = np.abs(np.asarray(envelope)) ** 2
    total = np.trapezoid(w, tau)
    if total <= 0:
        return float(0.5 * (tau[0] + tau[-1]))
    return float(np.trapezoid(tau * w, tau) / total)


def overlap_fidelity(tau_input, input_envelope, tau_echo, echo_envelope
                     ) -> float:
    """Normalized overlap of the echo with the time-reversed input.

    |integral a2(t) conj(a1(-t)) dt|^2 / (E2 * E1), with both envelopes
    shifted to their energy centroids first so a pure timing offset does
    not read as infidelity.  Global phases drop out.
    Linear resampling bounds the absolute accuracy near (grid step)^2 / 6
    per squared envelope width, plenty for the ~0.99 floors in use.
    """
    t1 = np.asarray(tau_input, dtype=float)
    a1 = np.asarray(input_envelope, dtype=complex)
    t2 = np.asarray(tau_echo, dtype=float)
    a2 = np.asarray(echo_envelope, dtype=complex)

    e1 = trapezoid_energy(a1, t1[1] - t1[0])
    e2 = trapezoid_energy(a2, t2[1] - t2[0])
    if e1 <= 0 or e2 <= 0:
        return 0.0

    # reversed input b(t) = a1(-t)
    tb = -t1[::-1]
    b = a1[::-1]

    t2 = t2 - centroid(t2, a2)
    tb = tb - centroid(tb, b)

    # common grid at 4x the finer sampling keeps the linear-interpolation
    # bias of the overlap well below the 1e-4 level the floors care about
    dt = 0.25 * min(t2[1] - t2[0], tb[1] - tb[0])
    lo = min(t2[0], tb[0])
    hi = max(t2[-1], tb[-1])
    n = int(math.ceil((hi - lo) / dt)) + 1
    grid = np.linspace(lo, hi, n)

    def resample(x, y):
        re = np.interp(grid, x, y.real, left=0.0, right=0.0)
        im = np.interp(grid, x, y.imag, left=0.0, right=0.0)
        return re + 1j * im

    f2 = resample(t2, a2)
    fb = resample(tb, b)
    overlap = np.trapezoid(f2 * np.conj(fb), grid)
    fid = float(abs(overlap) ** 2 / (e1 * e2))
    return min(max(fid, 0.0), 1.0)


@dataclass
class EchoRecord:
    """One storage/recall outcome.

    tau_input/tau_echo are each stage's local clock (echo clock zero at
    reading onset).  Envelopes are Stark-dressed in both regimes (the
    accumulated control Stark phase removed: the linear solver's tilde
    variables factor it out, the nonlinear solver removes it from its
    input and psi2 from its echo), so they coincide with the physical
    field amplitudes whenever the reversal conditions hold.
    """

    protocol: str
    tau_input: np.ndarray
    input_envelope: np.ndarray
    tau_echo: np.ndarray
    echo_envelope: np.ndarray
    t1: float = math.nan
    t2: float = math.nan
    transmitted_fraction: float = math.nan
    extras: dict = field(default_factory=dict)

    @property
    def input_energy(self) -> float:
        return trapezoid_energy(self.input_envelope,
                                self.tau_input[1] - self.tau_input[0])

    @property
    def echo_energy(self) -> float:
        return trapezoid_energy(self.echo_envelope,
                                self.tau_echo[1] - self.tau_echo[0])

    @property
    def echo_peak_time(self) -> float:
        """Energy centroid of the echo on the stage-2 clock."""
        return centroid(self.tau_echo, self.echo_envelope)

    def summary_line(self, efficiency: float, fidelity: float) -> str:
        """One-line summary; efficiency and fidelity are the pair
        measure_efficiency returned for this record."""
        parts = [f"protocol={self.protocol}"]
        for name, val in (("t1", self.t1), ("t2", self.t2),
                          ("efficiency", efficiency), ("fidelity", fidelity),
                          ("echo_peak_time", self.echo_peak_time)):
            if isinstance(val, float) and math.isnan(val):
                continue
            parts.append(f"{name}={fmt_float(val)}")
        return " ".join(parts)


def measure_efficiency(record: EchoRecord) -> tuple[float, float]:
    """Energy recall efficiency and reversed-envelope overlap fidelity."""
    e_in = record.input_energy
    if e_in <= 0:
        raise ZeroInputEnergy("input envelope carries no energy")
    eps = record.echo_energy / e_in
    if eps > 1.0 + 1e-6:
        raise PhysicalityViolation(
            f"recall efficiency {eps} exceeds unity beyond tolerance")
    fid = overlap_fidelity(record.tau_input, record.input_envelope,
                           record.tau_echo, record.echo_envelope)
    return eps, fid


def write_envelope_csv(path: str, tau, envelope) -> None:
    """Field snapshot at the face Z = 0, columns (tau, z, re_zeta,
    im_zeta)."""
    tau = np.asarray(tau, dtype=float)
    env = np.asarray(envelope, dtype=complex)
    # %.17g writes the cell fmt_float writes; 0 is fmt_float(0.0)
    write_text_atomic(path, chain(["tau,z,re_zeta,im_zeta\n"], table_chunks(
        "%.17g,0,%.17g,%.17g\n",
        [tau.tolist(), env.real.tolist(), env.imag.tolist()])))
