"""Nonlinear storage/recall dynamics of the Raman-reduced Bloch system.

The strong-field solver evolves the scaled field together with the full
per-node ground-state Bloch variables.  With the stage sign s_nu = +1 for
storage and -1 for retrieval, c_j = 1 / (1 + d31_j / Delta) the one-photon
denominator factor, and B_mn = sum_j w_j c_j r_mn_j, the system is

    dZ zeta    = (i beta/2) (s_nu B11 zeta / Delta + f(tau) B12)
    dtau r12_j = +i s_nu c_j zeta (2 r11_j - 1)
                 - i [d21_j - Delta c_j f(tau) + Delta c_j |zeta|^2/|Omega|^2] r12_j
    dtau r11_j = -2 s_nu c_j Im(conj(zeta) r12_j)

The detuning bracket reads the static two-photon shift d21_j alongside
the control light shift -Delta c_j f and the probe light shift written in
regular form |g A|^2 / (Delta + d31) = Delta c_j |zeta|^2 / |Omega|^2.
The linearized solver's composite rate d21 + d31 f is the first order of
d21 - Delta c_j f once the common Stark rotation Delta f is factored off.

Unlike the linear module this one works in bare variables: the input
boundary carries the physical control-induced chirp exp(+i psi), and the
stepper rotates the full per-node bracket d21 - Delta c_j f out exactly
(Simpson-integrated control phases), so the fast common phase cancels
between the field and the rotation and the Runge-Kutta stages only see
the slow node-spread rates.  The field is solved across the slab by an
integrating-factor quadrature at the k2, k3 and k4 stages of every
Runge-Kutta step and recorded at the step end, keeping the coupled step
4th order; k1 reuses the row recorded from the same atoms at the same
clock.  The control is sampled once per step, on the Simpson points that
also supply the stage values.  Storage integrates the field from the
input face Z = 0; retrieval from a zero boundary at Z = L, emitting
backward.  All node/Z updates are whole-array operations and the
ensemble sums run in fixed node order off BLAS, so repeated runs are
bit-identical whatever the BLAS thread count.
"""

from __future__ import annotations

import math
import warnings
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
    StepSample,
    SUPPORT_FLOOR,
    WEAK_AMPLITUDE_RATIO,
)
from .errors import (
    ControlVanishes,
    IncompleteAbsorptionWarning,
    NonFiniteField,
    PhysicalityViolation,
    ResonantSingularity,
    ValidationError,
)
from .numerics import cumulative_integral, weighted_node_sum
from . import stages
from .records import EchoRecord, envelope_from_scaled

# Bloch-sphere slack |r12|^2 <= r11 (1 - r11) + BLOCH_EPS guaranteed on the
# state after every step; excursions beyond BLOCH_EMERGENCY mean the step
# went unstable rather than accumulated truncation, and raise
BLOCH_EPS = 1.0e-8
BLOCH_EMERGENCY = 1.0e-3

# |Omega|^2 below this fraction of its peak counts as control-off for the
# probe Stark ratio; a live field there is a ControlVanishes error
CONTROL_FLOOR = 1.0e-12
FIELD_FLOOR = 1.0e-9

# transmitted-energy fraction above which the complete-absorption premise
# of the recall analysis is flagged
ABSORPTION_WARNING_FRACTION = 0.05


def _c_factors(ensemble: EnsembleSpec, one_photon_detuning: float
               ) -> np.ndarray:
    """Per-node denominator factor 1 / (1 + d31 / Delta)."""
    denom = 1.0 + ensemble.delta31s / one_photon_detuning
    if np.any(np.abs(denom) < 1e-6):
        raise ResonantSingularity(
            "Delta + d31 vanished for a node; the adiabatic reduction is "
            "invalid there")
    return 1.0 / denom


@dataclass
class SimulationState:
    """Evolving strong-field state on one stage grid.

    zeta_t rows fill as the clock advances; r12/r11 are the current
    coherence and ground population per (node, Z).  accumulated_psi is
    the running control Stark phase Delta * int f and zeta_scale the
    largest field magnitude seen so far (the reference for control-off
    field checks).  row_current says that zeta_t[step_index] was solved
    from the current atoms at the current clock, by a run driver at row 0
    or by advance_strong at the step end; the next advance_strong reuses
    it as its k1 row.  Code that changes the atoms in place between steps
    must clear it.
    """

    zeta_t: np.ndarray          # (n_tau, n_z) complex
    r12: np.ndarray             # (n_node, n_z) complex
    r11: np.ndarray             # (n_node, n_z) real
    stage: str                  # "storage" | "retrieval"
    clock: float
    step_index: int
    z: np.ndarray
    c_factors: np.ndarray       # (n_node,)
    boundary: Callable          # (tau, psi, Omega(tau)) -> incoming field
    accumulated_psi: float = 0.0
    zeta_scale: float = 0.0
    row_current: bool = False
    # weighted rows of the ensemble kernels, overwritten at every solve
    _rows11: np.ndarray = field(init=False, repr=False, compare=False)
    _rows12: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._rows11 = np.empty(self.r11.shape)
        self._rows12 = np.empty(self.r12.shape, dtype=complex)

    @classmethod
    def fresh(cls, grid: Grid, ensemble: EnsembleSpec,
              one_photon_detuning: float, stage: str,
              boundary: Callable | None = None,
              r12_initial: np.ndarray | None = None,
              r11_initial: np.ndarray | None = None) -> "SimulationState":
        if stage not in ("storage", "retrieval"):
            raise ValidationError(f"unknown stage {stage!r}")
        shape = (ensemble.n_nodes, grid.n_z)
        r12 = (np.zeros(shape, dtype=complex) if r12_initial is None
               else np.array(r12_initial, dtype=complex))
        r11 = (np.ones(shape, dtype=float) if r11_initial is None
               else np.array(r11_initial, dtype=float))
        if r12.shape != shape or r11.shape != shape:
            raise ValidationError(
                f"initial atomic arrays must have shape {shape}")
        if boundary is None:
            boundary = lambda s, psi, rabi: 0.0 + 0.0j
        return cls(
            zeta_t=np.zeros((grid.n_tau, grid.n_z), dtype=complex),
            r12=r12, r11=r11, stage=stage, clock=0.0, step_index=0,
            z=grid.z(), c_factors=_c_factors(ensemble, one_photon_detuning),
            boundary=boundary)

    @property
    def stage_sign(self) -> int:
        return +1 if self.stage == "storage" else -1

    @property
    def dz(self) -> float:
        return float(self.z[1] - self.z[0])

    def excitation(self, ensemble: EnsembleSpec) -> np.ndarray:
        """Ensemble excitation sum_j w_j (1 - r11_j) at every Z."""
        return weighted_node_sum(ensemble.weights, 1.0 - self.r11)

    def assert_physical(self) -> None:
        """Restore the Bloch-ball bounds and raise if they truly broke.

        The lossless equations keep each node's Bloch vector
        (Re r12, Im r12, r11 - 1/2) on the sphere of radius 1/2 exactly,
        so an outward excursion is integrator truncation.  The drift is
        systematic, not confined to population turning points: on the
        saturating storage stage (721 x 641 grid, 33 nodes) about 62% of
        all cells end each step outside the sphere, by up to 1.0e-6, and
        the projection acts on 11.3 million cells per round trip.  Every
        excursion is projected radially back onto the ball, which keeps
        0 <= r11 <= 1 and |r12|^2 <= r11 (1 - r11) + BLOCH_EPS invariant
        at any validated step size.  An excursion beyond BLOCH_EMERGENCY is not
        truncation-sized and raises instead of being hidden."""
        s_z = self.r11 - 0.5
        norm = np.sqrt(np.abs(self.r12) ** 2 + s_z ** 2)
        worst = float(norm.max()) - 0.5
        if not math.isfinite(worst) or worst > BLOCH_EMERGENCY:
            raise PhysicalityViolation(
                f"Bloch vector left the unit ball by {worst:.3g}")
        # masked in place: only cells outside the sphere change, each by
        # the shrink 0.5 / norm, which overwrites norm there
        over = norm > 0.5
        shrink = np.divide(0.5, norm, out=norm, where=over)
        np.multiply(self.r12, shrink, out=self.r12, where=over)
        np.multiply(s_z, shrink, out=s_z, where=over)
        np.add(s_z, 0.5, out=self.r11, where=over)
        np.clip(self.r11, 0.0, 1.0, out=self.r11)


def _solve_field_ode(a: np.ndarray, source: np.ndarray, dz: float,
                     boundary_value: complex) -> np.ndarray:
    """dZ zeta = a(Z) zeta + source(Z) with zeta[0] = boundary_value.

    Integrating-factor quadrature: both cumulative integrals are 4th
    order, and a purely imaginary a (the population-dispersion term)
    yields an exactly unimodular factor.
    """
    phi = np.exp(cumulative_integral(a, dz))
    inner = cumulative_integral(source / phi, dz)
    return phi * (boundary_value + inner)


def ensemble_kernels(state: SimulationState, ensemble: EnsembleSpec,
                     r12: np.ndarray, r11: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Ensemble kernels B11 = sum_j w_j c_j r11_j and B12 = sum_j w_j c_j
    r12_j at every Z, as field_row uses them.

    The weighted rows go to the state's buffers and are summed in fixed
    node order off BLAS, so repeated evaluation is bit-identical.
    """
    wc = ensemble.weights * state.c_factors
    return (weighted_node_sum(wc, r11, out=state._rows11),
            weighted_node_sum(wc, r12, out=state._rows12))


def field_row(state: SimulationState, ensemble: EnsembleSpec,
              medium: MediumSpec, control: ControlProfile, s: float,
              psi: float, r12: np.ndarray, r11: np.ndarray,
              sampled=None) -> np.ndarray:
    """Scaled field across the slab at time s given the atomic arrays.

    Storage integrates from the input face Z = 0; retrieval from a zero
    boundary at the far face toward the exit at Z = 0 (the slab is
    flipped, solved forward, and flipped back).  sampled is the
    (Omega(s), f(s)) pair when the caller has already sampled the
    control at s; otherwise control is evaluated here.  The boundary
    gets the same Omega(s).
    """
    rabi_s, f_s = control.at(s) if sampled is None else sampled
    b11, b12 = ensemble_kernels(state, ensemble, r12, r11)
    sgn = state.stage_sign
    beta = medium.coupling_beta
    a = (0.5j * beta * sgn / control.one_photon_detuning) * b11
    source = (0.5j * beta * f_s) * b12
    incoming = complex(state.boundary(s, psi, rabi_s))
    if sgn > 0:
        row = _solve_field_ode(a, source, state.dz, incoming)
    else:
        rev = _solve_field_ode(-a[::-1], -source[::-1], state.dz, incoming)
        row = rev[::-1]
    if not np.all(np.isfinite(row)):
        raise NonFiniteField(f"field row non-finite at tau={s}")
    return row


def _stark_ratio(state: SimulationState, s: float, row: np.ndarray,
                 om2: float, peak2: float) -> np.ndarray | None:
    """|zeta|^2 / |Omega|^2 per Z, or None with the control off.

    Times Delta c_j it is the probe light shift, which equals the regular
    form |g A|^2 / (Delta + d31); with the control off a live field makes
    it singular, which is the ControlVanishes regime error.
    """
    if om2 <= CONTROL_FLOOR * peak2:
        row_mag = float(np.max(np.abs(row)))
        if row_mag > FIELD_FLOOR * max(state.zeta_scale, 1e-300):
            raise ControlVanishes(
                f"|Omega(tau={s:.6g})| = 0 with |zeta| = {row_mag:.3g}; "
                "the probe Stark ratio is singular")
        return None
    return np.abs(row) ** 2 / om2


def _lawson_step(state: SimulationState, ensemble: EnsembleSpec,
                 control: ControlProfile, dt: float, sample: StepSample,
                 row1: np.ndarray, row_at: Callable) -> None:
    """One RK4 step in the frame co-rotating with d21 - Delta c_j f.

    The per-node bracket phase is Simpson-integrated from the step's
    control sample and applied as an exact rotation; row1 is the field
    row at the step start and row_at(k, r12, r11) supplies the row the
    slopes see at stage time s + k dt/2 (k = 1, 2).  The drive and the
    probe Stark rate are the only terms the Runge-Kutta stages step.
    """
    s = state.clock
    delta = control.one_photon_detuning
    sgn = float(state.stage_sign)
    c = state.c_factors[:, None]
    d21 = ensemble.delta21s[:, None]

    rot_half = np.exp(-1j * (d21 * (0.5 * dt) - delta * c * sample.df_half))
    rot_full = np.exp(-1j * (d21 * dt - delta * c * sample.df_full))
    # per-node constants of the slopes; the rotations are unimodular, so
    # undoing one is a multiplication by its conjugate
    drive = (1j * sgn) * c
    drive_half = drive * np.conj(rot_half)
    drive_full = drive * np.conj(rot_full)
    stark = -1j * delta * c
    coupling = -2.0 * sgn * c
    peak2 = control.peak_rabi() ** 2

    def slope(k, drive_k, p_st, n_st, r12_st, row):
        om2 = float(np.abs(sample.rabi[4 * k]) ** 2)
        ratio = _stark_ratio(state, s + 0.5 * k * dt, row, om2, peak2)
        kp = drive_k * (row[None, :] * (2.0 * n_st - 1.0))
        if ratio is not None:
            kp += stark * (ratio[None, :] * p_st)
        kn = coupling * (np.conj(row)[None, :] * r12_st).imag
        return kp, kn

    p, n = state.r12, state.r11
    k1p, k1n = slope(0, drive, p, n, p, row1)
    p_st, n_st = p + 0.5 * dt * k1p, n + 0.5 * dt * k1n
    r12_st = rot_half * p_st
    k2p, k2n = slope(1, drive_half, p_st, n_st, r12_st,
                     row_at(1, r12_st, n_st))
    p_st, n_st = p + 0.5 * dt * k2p, n + 0.5 * dt * k2n
    r12_st = rot_half * p_st
    k3p, k3n = slope(1, drive_half, p_st, n_st, r12_st,
                     row_at(1, r12_st, n_st))
    p_st, n_st = p + dt * k3p, n + dt * k3n
    r12_st = rot_full * p_st
    k4p, k4n = slope(2, drive_full, p_st, n_st, r12_st,
                     row_at(2, r12_st, n_st))

    state.r12 = rot_full * (p + (dt / 6.0) * (k1p + 2.0 * k2p
                                              + 2.0 * k3p + k4p))
    state.r11 = n + (dt / 6.0) * (k1n + 2.0 * k2n + 2.0 * k3n + k4n)
    state.clock = s + dt
    state.step_index += 1
    state.accumulated_psi += delta * sample.df_full
    state.row_current = False
    state.assert_physical()


def advance_atoms(state: SimulationState, ensemble: EnsembleSpec,
                  control: ControlProfile, dt: float) -> SimulationState:
    """One frozen-field atomic step: the row recorded at the current step
    index drives all four Runge-Kutta stages."""
    row = state.zeta_t[state.step_index]
    _lawson_step(state, ensemble, control, dt,
                 control.sample_step(state.clock, dt), row,
                 row_at=lambda k, r12, r11: row)
    state.zeta_scale = max(state.zeta_scale, float(np.max(np.abs(row))))
    return state


def advance_strong(state: SimulationState, ensemble: EnsembleSpec,
                   medium: MediumSpec, control: ControlProfile, dt: float
                   ) -> SimulationState:
    """One coupled step: the field is solved from the provisional atoms
    at the k2, k3 and k4 stages, then recorded at the new clock.

    k1 reuses the recorded row when state.row_current says it was solved
    from the current atoms; otherwise k1 solves its row as well.
    """
    s = state.clock
    sample = control.sample_step(s, dt)
    times = (s, s + 0.5 * dt, s + dt)
    psi0, delta = state.accumulated_psi, control.one_photon_detuning
    psis = (psi0, psi0 + delta * sample.df_half,
            psi0 + delta * sample.df_full)

    def row_at(k, r12, r11):
        return field_row(state, ensemble, medium, control, times[k],
                         psis[k], r12, r11, sample.stage(k))

    row1 = (state.zeta_t[state.step_index] if state.row_current
            else row_at(0, state.r12, state.r11))
    _lawson_step(state, ensemble, control, dt, sample, row1, row_at)
    if state.step_index < state.zeta_t.shape[0]:
        row = row_at(2, state.r12, state.r11)
        state.zeta_t[state.step_index] = row
        state.row_current = True
        state.zeta_scale = max(state.zeta_scale,
                               float(np.max(np.abs(row))))
    return state


@dataclass(frozen=True)
class ProbeBoundary:
    """Scaled input field at the entry face.

    The physical envelope is dressed by conj(rabi), the control Omega(s)
    that field_row sampled, and carries the control Stark chirp
    exp(+i psi), which keeps the probe centered on the shifted line while
    the control is on.
    """

    probe: ProbeSpec

    def __call__(self, s, psi, rabi):
        scale = WEAK_AMPLITUDE_RATIO * self.probe.amplitude_scale
        return (scale * np.conj(rabi) * self.probe.envelope(s)
                * np.exp(1j * psi))


def _validate_grid(grid: Grid, ensemble: EnsembleSpec,
                   control: ControlProfile, medium: MediumSpec,
                   drive_bound: float, bandwidth: float) -> None:
    # the stepper rotates out the full bracket, so the residual tau rate
    # is the node spread plus the state-dependent drive and Stark terms
    f_peak = control.peak_f()
    delta = abs(control.one_photon_detuning)
    c_max = float(np.max(np.abs(
        _c_factors(ensemble, control.one_photon_detuning))))
    stark_bound = delta * c_max * drive_bound ** 2 \
        / max(control.peak_rabi() ** 2, 1e-300)
    rate = float(np.max(np.abs(ensemble.delta21s))) \
        + float(np.max(np.abs(ensemble.delta31s))) * f_peak * c_max \
        + bandwidth + drive_bound * c_max + stark_bound
    coupling = 0.5 * medium.coupling_beta * c_max * (f_peak + 1.0 / delta)
    grid.validate(max_phase_rate=rate, max_coupling=coupling)


def run_storage(probe: ProbeSpec, control: ControlProfile,
                ensemble: EnsembleSpec, medium: MediumSpec,
                grid: Grid) -> stages.StorageOutcome:
    """Drive the nonlinear storage stage and account for every photon.

    A transmitted fraction above 5% triggers IncompleteAbsorptionWarning
    because the recall analysis presumes complete absorption.
    """
    tau = grid.tau()
    peak_zeta = WEAK_AMPLITUDE_RATIO * probe.amplitude_scale \
        * control.peak_rabi()
    _validate_grid(grid, ensemble, control, medium,
                   drive_bound=peak_zeta, bandwidth=probe.spectral_width)

    # the scaled field cannot represent probe light outside the control
    # window, where conj(Omega) vanishes
    env_all = np.abs(probe.sample(tau))
    env_peak = float(env_all.max())
    outside = (tau < control.switch_on) | (tau > control.switch_off)
    if env_peak > 0 and np.any(env_all[outside] > SUPPORT_FLOOR * env_peak):
        raise ValidationError(
            "probe support extends outside the control window")

    state = SimulationState.fresh(
        grid, ensemble, control.one_photon_detuning, stage="storage",
        boundary=ProbeBoundary(probe))
    state.zeta_scale = peak_zeta
    stages.march(
        state, field_row(state, ensemble, medium, control, 0.0, 0.0,
                         state.r12, state.r11), grid.n_tau,
        lambda: advance_strong(state, ensemble, medium, control, grid.dt))

    # Stark-dressed record (accumulated Stark phase removed): the raw
    # chirp runs at Delta f rad per unit, far beyond Nyquist on any grid
    # the solver needs, and the solver cancels it analytically anyway
    input_envelope = (WEAK_AMPLITUDE_RATIO * probe.amplitude_scale
                      * control.one_photon_detuning * probe.sample(tau))
    out = stages.audit_storage(state, ensemble, tau, control, medium,
                               input_envelope)
    if out.transmitted_fraction > ABSORPTION_WARNING_FRACTION:
        warnings.warn(
            f"transmitted fraction {out.transmitted_fraction:.3g} exceeds "
            f"{ABSORPTION_WARNING_FRACTION}: the probe is not completely "
            "absorbed", IncompleteAbsorptionWarning)
    return out


def handover_wavevector_mismatch(protocol: ProtocolConfig) -> float:
    """Residual grating wave number q left by the mode-matching operation.

    q = (n1 w1 + n2 w2) / c - (K1z - K2z); the stored coherence maps into
    the retrieval frame as r12 exp(i q Z).  Without phase-matching data
    the operation is assumed ideal (q = 0); a backward-matched geometry
    gives q = 0 exactly.
    """
    m = protocol.matching
    if m is None:
        return 0.0
    return (m.n1 * m.omega1 + m.n2 * m.omega2) / m.light_speed \
        - (m.K1z - m.K2z)


def run_retrieval(stored: SimulationState, control2: ControlProfile,
                  protocol: ProtocolConfig, ensemble: EnsembleSpec,
                  medium: MediumSpec, grid2: Grid,
                  tau_input=None, input_envelope=None,
                  gap_time: float = 0.0,
                  conditions=None,
                  transmitted_fraction: float = math.nan) -> EchoRecord:
    """Retrieve the echo from a stored strong-field state.

    ensemble is the stage-1 node table; stages.hand_over applies the
    strict gate, the dark-interval phase and the RECRIB inversion.  After
    it, the mode-matching map r12 -> r12 exp(i q Z) carries the grating
    into the retrieval frame.  conditions, when supplied, is the
    ConditionReport consulted in strict mode.
    """
    r12, ensemble2 = stages.hand_over(stored.r12, stored.z, protocol,
                                      ensemble, grid2, gap_time, conditions)
    q = handover_wavevector_mismatch(protocol)
    if q != 0.0:
        r12 *= np.exp(1j * q * stored.z)[None, :]
    drive_bound = max(stored.zeta_scale, 1e-300)
    _validate_grid(grid2, ensemble2, control2, medium,
                   drive_bound=drive_bound,
                   bandwidth=stages.recall_bandwidth(tau_input, grid2))

    state = SimulationState.fresh(
        grid2, ensemble2, control2.one_photon_detuning, stage="retrieval",
        boundary=None, r12_initial=r12, r11_initial=stored.r11)
    state.zeta_scale = drive_bound
    extras = stages.recall(
        state, ensemble2, grid2, control2, medium,
        field_row(state, ensemble2, medium, control2, 0.0, 0.0, state.r12,
                  state.r11),
        lambda: advance_strong(state, ensemble2, medium, control2, grid2.dt))

    tau2 = grid2.tau()
    # dress the echo the same way the input record is dressed: remove the
    # stage-2 accumulated Stark phase so the envelope is slow on the grid
    psi2 = control2.one_photon_detuning * cumulative_integral(
        np.asarray(control2.f(tau2), dtype=float), grid2.dt)
    echo = envelope_from_scaled(state.zeta_t[:, 0], control2, tau2) \
        * np.exp(-1j * psi2)
    return stages.echo_record(protocol, tau_input, input_envelope, tau2,
                              echo, transmitted_fraction, conditions, extras)
