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
row recorded from the same coherences at the same clock.  The control is
sampled once per step, and the ensemble sum B~12 runs in fixed node
order off BLAS, so the output does not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

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
from .errors import (
    ConditionsUnmet,
    NonFiniteField,
    WeakFieldViolation,
)
from .numerics import cumulative_integral, trapezoid_energy, \
    weighted_node_sum
from .records import EchoRecord, envelope_from_scaled

# validity margins for the linearization
STARK_VALIDITY_FACTOR = 0.01   # Delta |zeta|^2/|Omega|^2 <= this * d_omega
DETUNING_VALIDITY_FACTOR = 0.1  # max |d31| <= this * |Delta|


@dataclass
class WeakState:
    """Evolving linear-regime state on one stage grid.

    zeta_t rows are filled as the clock advances; r12_t is the current
    coherence; accumulated_psi tracks the factored-out Stark phase and
    f_integral the running integral of f (both diagnostics for mapping
    back to untransformed variables).  row_current says that
    zeta_t[step_index] was solved from the current coherences at the
    current clock, by a run driver at row 0 or by advance_weak at the step
    end; the next advance_weak reuses it as its k1 row.  Code that changes
    r12_t in place between steps must clear it.
    """

    zeta_t: np.ndarray          # (n_tau, n_z) complex
    r12_t: np.ndarray           # (n_node, n_z) complex
    accumulated_psi: float
    clock: float
    step_index: int
    drive_sign: int             # +1 storage, -1 retrieval
    direction: int              # +1 integrate 0->L, -1 backward emission
    z: np.ndarray
    boundary: Callable          # incoming tilde field at the injection face
    f_integral: float = 0.0
    row_current: bool = False
    # weighted rows of B~12, overwritten at every solve
    _rows12: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._rows12 = np.empty(self.r12_t.shape, dtype=complex)

    @classmethod
    def fresh(cls, grid: Grid, ensemble: EnsembleSpec, drive_sign: int,
              direction: int, boundary: Callable | None = None,
              r12_initial: np.ndarray | None = None) -> "WeakState":
        r12 = (np.zeros((ensemble.n_nodes, grid.n_z), dtype=complex)
               if r12_initial is None else np.array(r12_initial,
                                                    dtype=complex))
        if boundary is None:
            boundary = lambda s: 0.0 + 0.0j
        return cls(
            zeta_t=np.zeros((grid.n_tau, grid.n_z), dtype=complex),
            r12_t=r12, accumulated_psi=0.0, clock=0.0, step_index=0,
            drive_sign=drive_sign, direction=direction, z=grid.z(),
            boundary=boundary)

    @property
    def dz(self) -> float:
        return float(self.z[1] - self.z[0])


def field_row(state: WeakState, ensemble: EnsembleSpec, medium: MediumSpec,
              control: ControlProfile, s: float,
              r12: np.ndarray, sampled=None) -> np.ndarray:
    """Tilde field across the slab at time s, given the coherences.

    Storage integrates the source from the input face; retrieval from the
    far face (zero incoming echo), emitting toward Z = 0.  sampled is the
    (Omega(s), f(s)) pair when the caller has already sampled the control
    at s; otherwise control is evaluated here.
    """
    rabi_s, f_s = control.at(s) if sampled is None else sampled
    b12 = weighted_node_sum(ensemble.weights, r12, out=state._rows12)
    gain = 0.5 * medium.coupling_beta * f_s
    if isinstance(state.boundary, TildeInput):
        incoming = state.boundary(s, rabi_s)
    else:
        incoming = state.boundary(s)
    if state.direction > 0:
        row = incoming - gain * cumulative_integral(b12, state.dz)
    else:
        tail = cumulative_integral(b12[::-1], state.dz)[::-1]
        row = incoming + gain * tail
    if not np.all(np.isfinite(row)):
        raise NonFiniteField(f"field row non-finite at tau={s}")
    return row


def _validity_checks(ensemble, control, s, rabi_s, row,
                     bandwidth: float | None):
    if bandwidth is None:
        return
    d = control.one_photon_detuning
    worst = DETUNING_VALIDITY_FACTOR * abs(d)
    if ensemble.max_abs_delta31 > worst:
        raise WeakFieldViolation(
            f"max |delta31| = {ensemble.max_abs_delta31} exceeds "
            f"{DETUNING_VALIDITY_FACTOR} |Delta| = {worst}")
    om2 = float(np.abs(rabi_s) ** 2)
    if om2 > 1e-9 * control.peak_rabi() ** 2:
        stark = abs(d) * float(np.max(np.abs(row) ** 2)) / om2
        if stark > STARK_VALIDITY_FACTOR * bandwidth:
            raise WeakFieldViolation(
                f"probe-induced Stark shift {stark:.3g} exceeds "
                f"{STARK_VALIDITY_FACTOR} x bandwidth at tau={s:.4g}; "
                "use the strong-field integrator")


def advance_weak(state: WeakState, ensemble: EnsembleSpec,
                 medium: MediumSpec, control: ControlProfile, dt: float,
                 bandwidth: float | None = None) -> WeakState:
    """One exponential-RK4 step of the linear system, in place.

    The per-node detuning phase d21 + d31 f(tau) is integrated to high
    order by Simpson panels and applied as an exact rotation.  The field
    is solved at the k2, k3 and k4 stages and recorded at the new clock;
    k1 reuses the recorded row when state.row_current says it was solved
    from the current coherences, else it is solved too.  bandwidth, when
    given, arms the linear-regime validity checks.
    """
    s = state.clock
    sample = control.sample_step(s, dt)
    times = (s, s + 0.5 * dt, s + dt)
    d21 = ensemble.delta21s[:, None]
    d31 = ensemble.delta31s[:, None]
    phi_half = d21 * (0.5 * dt) + d31 * sample.df_half
    phi_full = d21 * dt + d31 * sample.df_full
    rot_half = np.exp(-1j * phi_half)
    rot_full = np.exp(-1j * phi_full)
    # the rotations are unimodular: undoing one multiplies by its conjugate
    drive = float(state.drive_sign)
    drive_half = drive * np.conj(rot_half)
    drive_full = drive * np.conj(rot_full)
    p = state.r12_t

    def row_at(k, r12):
        return field_row(state, ensemble, medium, control, times[k], r12,
                         sample.stage(k))

    row1 = (state.zeta_t[state.step_index] if state.row_current
            else row_at(0, p))
    _validity_checks(ensemble, control, s, sample.rabi[0], row1, bandwidth)
    k1 = drive * row1[None, :]
    k2 = drive_half * row_at(1, rot_half * (p + 0.5 * dt * k1))[None, :]
    k3 = drive_half * row_at(1, rot_half * (p + 0.5 * dt * k2))[None, :]
    k4 = drive_full * row_at(2, rot_full * (p + dt * k3))[None, :]

    p_new = p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    state.r12_t = rot_full * p_new
    state.clock = s + dt
    state.step_index += 1
    state.f_integral += sample.df_full
    state.accumulated_psi += control.one_photon_detuning * sample.df_full
    state.row_current = False
    if state.step_index < state.zeta_t.shape[0]:
        state.zeta_t[state.step_index] = row_at(2, state.r12_t)
        state.row_current = True
    return state


@dataclass(frozen=True)
class TildeInput:
    """Scaled input field at the entry face in tilde variables.

    The physical probe envelope is dressed by conj(Omega); the Stark chirp
    that centers it on the shifted line is exactly the factored-out psi,
    so the tilde boundary is smooth.  Called as boundary(s) it samples the
    control; the stepper passes the Omega(s) it already sampled as rabi.
    """

    probe: ProbeSpec
    control: ControlProfile

    def __call__(self, s, rabi=None):
        if rabi is None:
            rabi = self.control.rabi(s)
        scale = WEAK_AMPLITUDE_RATIO * self.probe.amplitude_scale
        return 1j * scale * np.conj(rabi) * self.probe.envelope(s)


def tilde_input(probe: ProbeSpec, control: ControlProfile) -> TildeInput:
    """Scaled input field at the entry face (see TildeInput)."""
    return TildeInput(probe, control)


def _excitation_profile(state: WeakState, ensemble: EnsembleSpec
                        ) -> np.ndarray:
    return weighted_node_sum(ensemble.weights, np.abs(state.r12_t) ** 2)


@dataclass
class WeakStorageOutcome:
    state: WeakState
    tau: np.ndarray
    input_envelope: np.ndarray      # dressed envelope at Z=0
    transmitted_fraction: float
    input_photons: float
    transmitted_photons: float
    stored_excitation: float
    audit_residual: float


def run_weak_storage(probe: ProbeSpec, control: ControlProfile,
                     ensemble: EnsembleSpec, medium: MediumSpec,
                     grid: Grid, check_validity: bool = True
                     ) -> WeakStorageOutcome:
    """Drive the full storage stage and account for every photon.

    Returns the frozen state at the stage end together with the energy
    audit: input photons = transmitted photons + stored excitation for the
    lossless linear system.
    """
    tau = grid.tau()
    f_peak = control.peak_f()
    max_rate = float(np.max(np.abs(ensemble.raman_detunings(f_peak)))) \
        + probe.spectral_width
    grid.validate(max_phase_rate=max_rate,
                  max_coupling=0.5 * medium.coupling_beta * f_peak)

    state = WeakState.fresh(grid, ensemble, drive_sign=+1, direction=+1,
                            boundary=tilde_input(probe, control))
    state.zeta_t[0] = field_row(state, ensemble, medium, control, 0.0,
                                state.r12_t)
    state.row_current = True
    bandwidth = probe.spectral_width if check_validity else None
    flux_weight = np.zeros(grid.n_tau)
    f_tau = np.asarray(control.f(tau), dtype=float)
    on = f_tau > 1e-12 * max(f_peak, 1e-300)
    flux_weight[on] = 2.0 / (medium.coupling_beta * f_tau[on])

    for _ in range(grid.n_tau - 1):
        advance_weak(state, ensemble, medium, control, grid.dt,
                     bandwidth=bandwidth)

    z_in = state.zeta_t[:, 0]
    z_out = state.zeta_t[:, -1]
    input_photons = float(np.trapezoid(
        flux_weight * np.abs(z_in) ** 2, tau))
    transmitted_photons = float(np.trapezoid(
        flux_weight * np.abs(z_out) ** 2, tau))
    # 4th-order quadrature: the stored profile decays like exp(-alpha z)
    # and plain trapezoid error would dominate the audit at depth >~ 10
    stored = float(cumulative_integral(
        _excitation_profile(state, ensemble), grid.dz)[-1])
    scale = max(input_photons, 1e-300)
    audit = abs(input_photons - transmitted_photons - stored) / scale
    transmitted = transmitted_photons / scale

    return WeakStorageOutcome(
        state=state, tau=tau,
        input_envelope=envelope_from_scaled(z_in, control, tau),
        transmitted_fraction=transmitted,
        input_photons=input_photons,
        transmitted_photons=transmitted_photons,
        stored_excitation=stored,
        audit_residual=audit)


def recall_weak(stored: WeakState, protocol: ProtocolConfig,
                control2: ControlProfile, ensemble: EnsembleSpec,
                medium: MediumSpec, grid2: Grid,
                tau_input, input_envelope,
                storage_ensemble_inverted: bool = True,
                gap_time: float = 0.0,
                conditions=None,
                check_validity: bool = True,
                transmitted_fraction: float = math.nan) -> EchoRecord:
    """Retrieve the echo from a stored linear-regime state.

    ensemble is the stage-1 node table; RECRIB recall inverts it per the
    protocol flags while comb recall keeps it.  gap_time applies the free
    dark-interval phase exp(-i d21 t) analytically (detunings as seen
    before any inversion).  conditions, when supplied, is the
    ConditionReport consulted in strict mode.
    """
    if protocol.strict and conditions is not None and not conditions.overall:
        raise ConditionsUnmet(
            "strict mode: conditions failed: "
            + ", ".join(conditions.failing_ids()), report=conditions)

    r12 = np.array(stored.r12_t, dtype=complex)
    if gap_time > 0.0:
        r12 *= np.exp(-1j * ensemble.delta21s * gap_time)[:, None]
    if protocol.protocol == "recrib" and storage_ensemble_inverted:
        ensemble2 = ensemble.inverted(
            invert_31=protocol.invert_delta31,
            invert_21=protocol.invert_delta21)
    else:
        ensemble2 = ensemble

    state = WeakState.fresh(grid2, ensemble2, drive_sign=-1, direction=-1,
                            boundary=None, r12_initial=r12)
    state.zeta_t[0] = field_row(state, ensemble2, medium, control2, 0.0,
                                state.r12_t)
    state.row_current = True
    bandwidth = None
    if check_validity and tau_input is not None:
        span = float(tau_input[-1] - tau_input[0])
        bandwidth = max(1.0 / max(span, 1e-300), 1e-12)

    for _ in range(grid2.n_tau - 1):
        advance_weak(state, ensemble2, medium, control2, grid2.dt,
                     bandwidth=bandwidth)

    tau2 = grid2.tau()
    echo = envelope_from_scaled(state.zeta_t[:, 0], control2, tau2)
    t2_pred = math.nan if protocol.t2 is None else protocol.t2
    return EchoRecord(
        protocol=protocol.protocol,
        tau_input=np.asarray(tau_input, dtype=float),
        input_envelope=np.asarray(input_envelope, dtype=complex),
        tau_echo=tau2,
        echo_envelope=echo,
        t1=protocol.t1,
        t2=t2_pred,
        transmitted_fraction=transmitted_fraction,
        conditions=conditions,
        extras={"state": state},
    )


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

    def check_passivity(self, omega_grid) -> None:
        vals = self.D(omega_grid)
        worst = float(np.min(self.beta * self.f_value * vals.real / 2.0))
        if worst < -1e-12:
            raise ValueError(f"active medium: min Re[beta f D/2] = {worst}")


@dataclass
class TransmissionResult:
    tau: np.ndarray
    output: np.ndarray
    ratio: float
    eta_numeric: float
    kernel: SusceptibilityKernel


def _probe_window(probe: ProbeSpec, half_widths: float = 12.0
                  ) -> tuple[float, float]:
    dt = probe.duration
    scan = np.linspace(-100.0 * dt, 100.0 * dt, 8192)
    a = np.abs(probe.sample(scan))
    peak = a.max()
    if peak == 0:
        return (-half_widths * dt, half_widths * dt)
    c = float(np.sum(scan * a ** 2) / np.sum(a ** 2))
    return (c - half_widths * dt, c + half_widths * dt)


def analytic_transmission(probe: ProbeSpec, kernel: SusceptibilityKernel,
                          medium: MediumSpec, control: ControlProfile,
                          window: tuple[float, float] | None = None,
                          n_time: int | None = None, pad_factor: int = 4,
                          damping_cycles: float = 10.0
                          ) -> TransmissionResult:
    """Exact linear transmission through the slab in the frequency domain.

    The input envelope is damped by exp(-eta t), convolved with the
    equally damped medium response (a rigorous identity for causal
    kernels), and the damping undone afterward, so periodic-FFT wraparound
    is suppressed by exp(-eta (T_pad - T)) without biasing the result.
    Assumes f stationary over the window (evaluated from the kernel).
    """
    if window is None:
        window = _probe_window(probe)
    t0, t1 = window
    span = t1 - t0
    if n_time is None:
        max_rate = float(np.max(np.abs(kernel.raman_detunings()))) \
            + 10.0 * probe.spectral_width
        n_time = int(2 ** math.ceil(math.log2(
            max(span * max_rate / 0.3, 512))))
    tau = np.linspace(t0, t1, n_time, endpoint=False)
    a_in = probe.sample(tau)

    n_pad = pad_factor * n_time
    eta = damping_cycles / (span * (pad_factor - 1))
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
    return TransmissionResult(tau=tau, output=out, ratio=float(ratio),
                              eta_numeric=float(eta), kernel=kernel)


def fid_kernel(ensemble: EnsembleSpec, f_value: float, tau) -> np.ndarray:
    """Free-induction kernel B~12(tau) after unit impulse excitation."""
    tau = np.asarray(tau, dtype=float)
    dr = ensemble.raman_detunings(f_value)
    return (ensemble.weights[None, :]
            * np.exp(-1j * dr[None, :] * tau[:, None])).sum(axis=1)
