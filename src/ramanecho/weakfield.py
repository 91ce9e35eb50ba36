"""Linearized storage/recall dynamics in Stark-transformed variables.

The linear regime works in tilde variables: the field and coherence with
the control Stark phase psi(tau) = Delta * int f dtau and the linear
Z-phase beta/(2 Delta) * Z factored out.  What remains is

    dZ zeta~   = -(beta f(tau)/2) * B~12,     B~12 = sum_j w_j R~12_j
    dtau R~12_j = -i (d21_j + d31_j f(tau)) R~12_j  (+/-) zeta~

with drive sign +1 during storage and -1 during retrieval.  The field
equation is a pure quadrature in Z (input face Z=0 for storage; zero
boundary at Z=L with backward emission toward Z=0 for retrieval).  The
atom equation is integrated with a 4th-order exponential scheme: each
node's deterministic detuning phase is rotated out analytically, so only
the smooth driven motion is stepped by Runge-Kutta.  The field is solved
at the k2, k3 and k4 stages and recorded at the step end; k1 reuses the
row recorded from the same coherences at the same clock.  The control on
every step's Simpson points and the boundary values are tabulated once
per stage, in a StageTable that the first step builds.

Because the equations are linear and every node is driven by the same
field row, each Runge-Kutta slope is rank one: a per-node factor times
one row across Z.  field_row therefore takes the node-summed kernel
B~12, and a step needs only two weighted node sums over the (node x Z)
coherences; the stage kernels, the recorded row's kernel and the new
coherences follow from rows and node-weight scalars (see advance_weak).
Every node sum runs off BLAS, so the output does not depend on the BLAS
thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import ProtocolConfig
from .core import (
    ControlProfile,
    EnsembleSpec,
    Grid,
    MediumSpec,
    ProbeSpec,
    WEAK_AMPLITUDE_RATIO,
)
from .errors import NonFiniteField, WeakFieldViolation
from .numerics import cumulative_integral, trapezoid_energy, \
    weighted_node_sum
from . import stages
from .records import EchoRecord, envelope_from_scaled

# validity margins for the linearization
STARK_VALIDITY_FACTOR = 0.01   # Delta |zeta|^2/|Omega|^2 <= this * d_omega
DETUNING_VALIDITY_FACTOR = 0.1  # max |d31| <= this * |Delta|


@dataclass(kw_only=True)
class WeakState(stages.StageState):
    """Evolving linear-regime state on one stage grid.

    The shared stage state in tilde variables: r12 is the coherence R~12
    and boundary(s, Omega(s)) the incoming tilde field at the injection
    face.
    """

    def excitation(self, ensemble: EnsembleSpec) -> np.ndarray:
        """Ensemble excitation sum_j w_j |R~12_j|^2 at every Z."""
        return weighted_node_sum(ensemble.weights, np.abs(self.r12) ** 2)


def field_row(state: WeakState, medium: MediumSpec, control: ControlProfile,
              s: float, b12: np.ndarray, sampled=None) -> np.ndarray:
    """Tilde field across the slab at time s, given the kernel B~12.

    b12 is the node-summed coherence sum_j w_j R~12_j at every Z.
    Storage integrates the source from the input face; retrieval from the
    far face (zero incoming echo), emitting toward Z = 0.  sampled is the
    pair (f(s), boundary value) of a stage table; without it both are
    evaluated at s here.
    """
    if sampled is None:
        rabi_s, f_s = control.at(s)
        sampled = f_s, state.boundary(s, rabi_s)
    f_s, incoming = sampled
    gain = 0.5 * medium.coupling_beta * f_s
    if state.drive_sign > 0:
        row = incoming - gain * cumulative_integral(b12, state.dz)
    else:
        tail = cumulative_integral(b12[::-1], state.dz)[::-1]
        row = incoming + gain * tail
    if not np.isfinite(row).all():
        raise NonFiniteField(f"field row non-finite at tau={s}")
    return row


def advance_weak(state: WeakState, ensemble: EnsembleSpec,
                 medium: MediumSpec, control: ControlProfile, dt: float,
                 bandwidth: float) -> WeakState:
    """One exponential-RK4 step of the linear system, in place.

    The per-node detuning phase d21 + d31 f(tau) is integrated to high
    order by Simpson panels and applied as exact rotations rh and rf over
    the half and the full step.  Every node is driven by the same field
    row, so each Runge-Kutta slope is rank one, a node factor times one
    row across Z: k1 = d row1, k2 = dh row2, k3 = dh row3, k4 = df row4,
    with d the drive sign, dh = d conj(rh) and df = d conj(rf).  The
    field sees the stage coherences only through their weighted node sum,
    so with P_h = sum_j w_j rh_j p_j and P_f = sum_j w_j rf_j p_j, the
    only sums over (node x Z) arrays, the stage kernels are rows:

        B(k2) = P_h + (dt/2) d (sum w rh) row1
        B(k3) = P_h + (dt/2) (sum w rh dh) row2
        B(k4) = P_f + dt (sum w rf dh) row3

    The new coherences rf (p + (dt/6) (k1 + 2 k2 + 2 k3 + k4)) are
    built once, and the kernel of the row recorded at the new clock
    follows from the same linearity.  k1 reuses the recorded row when
    state.row_current says it was solved from the current coherences,
    else it is solved too.  Rows and rotations read the stage table.
    bandwidth is the signal bandwidth that the linear-regime validity
    checks price the probe Stark shift against.
    """
    table = state.table or stages.StageTable.build(
        state, control, dt, lambda s, psi, rabi: state.boundary(s, rabi))
    times, _, om2, sampled, df_half, df_full = table.row(state.step_index)
    d21 = ensemble.delta21s
    d31 = ensemble.delta31s
    rot_half = np.exp(-1j * (d21 * (0.5 * dt) + d31 * df_half))
    rot_full = np.exp(-1j * (d21 * dt + d31 * df_full))
    # the rotations are unimodular: undoing one multiplies by its conjugate
    drive = float(state.drive_sign)
    drive_half = drive * np.conj(rot_half)
    drive_full = drive * np.conj(rot_full)
    w = ensemble.weights
    w_half = w * rot_half
    w_full = w * rot_full
    p = state.r12
    # complex weights, which weighted_node_sum does not take
    p_half = np.add.reduce(w_half[:, None] * p, axis=0)
    p_full = np.add.reduce(w_full[:, None] * p, axis=0)
    sum_half, sum_half_dh, sum_full, sum_full_dh, sum_full_df = \
        np.add.reduce([w_half, w_half * drive_half, w_full,
                       w_full * drive_half, w_full * drive_full], axis=1)

    def row_at(k, b12):
        return field_row(state, medium, control, times[k], b12, sampled[k])

    row1 = (state.zeta_t[state.step_index] if state.row_current
            else row_at(0, weighted_node_sum(w, p)))
    if om2[0] > 1e-9 * table.peak2:
        # the probe Stark shift, priced while the control is on
        stark = abs(control.one_photon_detuning) \
            * float((np.abs(row1) ** 2).max()) / om2[0]
        if stark > STARK_VALIDITY_FACTOR * bandwidth:
            raise WeakFieldViolation(
                f"probe-induced Stark shift {stark:.3g} exceeds "
                f"{STARK_VALIDITY_FACTOR} x bandwidth at tau={times[0]:.4g}"
                "; use the strong-field integrator")
    row2 = row_at(1, p_half + (0.5 * dt * drive * sum_half) * row1)
    row3 = row_at(1, p_half + (0.5 * dt * sum_half_dh) * row2)
    row4 = row_at(2, p_full + (dt * sum_full_dh) * row3)

    row23 = row2 + row3
    p_new = p + ((dt / 6.0) * drive) * row1
    p_new += drive_half[:, None] * ((dt / 3.0) * row23)
    p_new += drive_full[:, None] * ((dt / 6.0) * row4)
    p_new *= rot_full[:, None]
    state.r12 = p_new
    state.clock += dt
    state.step_index += 1
    b12 = (p_full + ((dt / 6.0) * drive * sum_full) * row1
           + ((dt / 3.0) * sum_full_dh) * row23
           + ((dt / 6.0) * sum_full_df) * row4)
    state.zeta_t[state.step_index] = row_at(2, b12)
    state.row_current = True
    return state


@dataclass(frozen=True)
class TildeInput:
    """Scaled input field at the entry face in tilde variables.

    The physical probe envelope is dressed by conj(rabi), the control
    Omega(s) at the row's time; the Stark chirp that centers it on
    the shifted line is exactly the factored-out psi, so the tilde
    boundary is smooth.
    """

    probe: ProbeSpec

    def __call__(self, s, rabi):
        scale = WEAK_AMPLITUDE_RATIO * self.probe.amplitude_scale
        return 1j * scale * np.conj(rabi) * self.probe.envelope(s)


def _validate_grid(grid: Grid, ensemble: EnsembleSpec,
                   control: ControlProfile, medium: MediumSpec,
                   bandwidth: float) -> None:
    # the linearization holds while max |d31| <= this factor x |Delta|
    worst = DETUNING_VALIDITY_FACTOR * abs(control.one_photon_detuning)
    if ensemble.max_abs_delta31 > worst:
        raise WeakFieldViolation(
            f"max |delta31| = {ensemble.max_abs_delta31} exceeds "
            f"{DETUNING_VALIDITY_FACTOR} |Delta| = {worst}")
    # the driven motion beats at each node's Raman detuning against the
    # field, whose own rate is the signal bandwidth
    f_peak = control.peak_f()
    rate = float(np.max(np.abs(ensemble.raman_detunings(f_peak)))) \
        + bandwidth
    grid.validate(max_phase_rate=rate,
                  max_coupling=0.5 * medium.coupling_beta * f_peak)


def run_weak_storage(probe: ProbeSpec, control: ControlProfile,
                     ensemble: EnsembleSpec, medium: MediumSpec,
                     grid: Grid) -> stages.StorageOutcome:
    """Drive the full storage stage and account for every photon.

    Returns the frozen state at the stage end together with the energy
    audit: input photons = transmitted photons + stored excitation for the
    lossless linear system.
    """
    stages.check_storage(probe, control, grid)
    tau = grid.tau()
    _validate_grid(grid, ensemble, control, medium, probe.spectral_width)
    state = WeakState.fresh(grid, ensemble, drive_sign=+1,
                            boundary=TildeInput(probe))
    stages.march(
        state, field_row(state, medium, control, 0.0,
                         weighted_node_sum(ensemble.weights, state.r12)),
        grid.n_tau,
        lambda: advance_weak(state, ensemble, medium, control, grid.dt,
                             bandwidth=probe.spectral_width))
    return stages.audit_storage(
        state, ensemble, tau, control, medium,
        envelope_from_scaled(state.zeta_t[:, 0], control, tau))


def recall_weak(stored: WeakState, control2: ControlProfile,
                protocol: ProtocolConfig, ensemble: EnsembleSpec,
                medium: MediumSpec, grid2: Grid,
                tau_input: np.ndarray, input_envelope: np.ndarray,
                gap_time: float = 0.0,
                conditions=None,
                transmitted_fraction: float = math.nan) -> EchoRecord:
    """Retrieve the echo from a stored linear-regime state.

    ensemble is the stage-1 node table; stages.hand_over applies the
    strict gate, the dark-interval phase and the RECRIB inversion.  The
    tilde variables factor out the linear Z-phase, so no mode-matching
    map follows.  conditions, when supplied, is the ConditionReport
    consulted in strict mode.
    """
    r12, ensemble2 = stages.hand_over(stored, protocol, ensemble, grid2,
                                      gap_time, conditions)
    bandwidth = stages.recall_bandwidth(tau_input)
    _validate_grid(grid2, ensemble2, control2, medium, bandwidth)

    state = WeakState.fresh(grid2, ensemble2, drive_sign=-1,
                            r12_initial=r12)
    return stages.recall(
        state, ensemble2, grid2, control2, medium,
        field_row(state, medium, control2, 0.0,
                  weighted_node_sum(ensemble2.weights, state.r12)),
        lambda: advance_weak(state, ensemble2, medium, control2, grid2.dt,
                             bandwidth=bandwidth),
        protocol, tau_input, input_envelope, transmitted_fraction,
        conditions)


# ---------------------------------------------------------------------------
# frequency-domain oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SusceptibilityKernel:
    """Discrete-ensemble linear response shared by oracle and integrator.

    D(omega) = sum_j w_j / (i (DeltaR_j - omega) + eta); eta > 0 models a
    homogeneous width, eta = 0 keeps the nodes undamped (matching the
    time-domain integrator).  alpha_eff is the line-center energy
    absorption coefficient beta f Re D of the (eta-smoothed) line; with
    eta = 0 a smoothing on the node-spacing scale is substituted so the
    number remains a useful continuum estimate.
    """

    ensemble: EnsembleSpec
    f_value: float
    beta: float
    eta: float = 0.0

    def __post_init__(self):
        if self.f_value <= 0 or self.beta <= 0:
            raise ValueError("f_value and beta must be > 0")
        if self.eta < 0:
            raise ValueError("eta must be >= 0")

    def raman_detunings(self) -> np.ndarray:
        return self.ensemble.raman_detunings(self.f_value)

    def D(self, omega, eta_extra: float = 0.0) -> np.ndarray:
        """Ensemble response at (possibly an array of) frequencies."""
        om = np.atleast_1d(np.asarray(omega, dtype=float))
        dr = self.raman_detunings()
        w = self.ensemble.weights
        denom = 1j * (dr[None, :] - om[:, None]) + (self.eta + eta_extra)
        out = (w[None, :] / denom).sum(axis=1)
        return out if np.ndim(omega) else out[0]

    @property
    def center(self) -> float:
        dr = self.raman_detunings()
        return float(np.sum(self.ensemble.weights * dr))

    @property
    def alpha_eff(self) -> float:
        eta = self.eta
        if eta == 0.0:
            dr = np.sort(self.raman_detunings())
            if len(dr) > 1:
                eta = 3.0 * float(np.median(np.diff(dr)))
            else:
                eta = 1e-3
        dr = self.raman_detunings()
        w = self.ensemble.weights
        re_d = float(np.sum(
            w * eta / ((dr - self.center) ** 2 + eta ** 2)))
        return self.beta * self.f_value * re_d


@dataclass
class TransmissionResult:
    tau: np.ndarray
    output: np.ndarray
    ratio: float


# the transform pads the window to this multiple of its length, and the
# damping falls by this many e-folds across the padding
PAD_FACTOR = 4
DAMPING_CYCLES = 10.0


def analytic_transmission(probe: ProbeSpec, kernel: SusceptibilityKernel,
                          medium: MediumSpec, window: tuple[float, float],
                          n_time: int | None = None) -> TransmissionResult:
    """Exact linear transmission through the slab in the frequency domain.

    The input envelope is damped by exp(-eta t), convolved with the
    equally damped medium response (a rigorous identity for causal
    kernels), and the damping undone afterward, so periodic-FFT wraparound
    is suppressed by exp(-eta (T_pad - T)) without biasing the result.
    Assumes f stationary over the window (evaluated from the kernel).
    """
    t0, t1 = window
    span = t1 - t0
    if n_time is None:
        max_rate = float(np.max(np.abs(kernel.raman_detunings()))) \
            + 10.0 * probe.spectral_width
        n_time = int(2 ** math.ceil(math.log2(
            max(span * max_rate / 0.3, 512))))
    tau = np.linspace(t0, t1, n_time, endpoint=False)
    a_in = probe.sample(tau)

    n_pad = PAD_FACTOR * n_time
    eta = DAMPING_CYCLES / (span * (PAD_FACTOR - 1))
    damped = np.zeros(n_pad, dtype=complex)
    damped[:n_time] = a_in * np.exp(-eta * (tau - t0))
    spec = np.fft.fft(damped)
    omega = 2.0 * np.pi * np.fft.fftfreq(n_pad, d=tau[1] - tau[0])
    depth = 0.5 * kernel.beta * kernel.f_value * medium.length_L
    # numpy's forward FFT pairs bin omega_k with exp(-i omega_k t), so the
    # causal response kernel sum_j w exp(-(i Delta_j + eta) u) multiplies
    # each bin by D evaluated at -omega_k
    transfer = np.exp(-depth * kernel.D(-omega, eta_extra=eta))
    out_damped = np.fft.ifft(spec * transfer)[:n_time]
    out = out_damped * np.exp(+eta * (tau - t0))
    if not np.all(np.isfinite(out)):
        raise NonFiniteField("frequency-domain transform overflowed")

    dt = tau[1] - tau[0]
    e_in = trapezoid_energy(a_in, dt)
    e_out = trapezoid_energy(out, dt)
    ratio = e_out / e_in if e_in > 0 else 0.0
    return TransmissionResult(tau=tau, output=out, ratio=float(ratio))


def fid_kernel(ensemble: EnsembleSpec, f_value: float, tau) -> np.ndarray:
    """Free-induction kernel B~12(tau) after unit impulse excitation."""
    tau = np.asarray(tau, dtype=float)
    dr = ensemble.raman_detunings(f_value)
    return (ensemble.weights[None, :]
            * np.exp(-1j * dr[None, :] * tau[:, None])).sum(axis=1)
