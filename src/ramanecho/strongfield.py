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
clock.  The per-node constants are set once per stage in the state, and
the control on every step's Simpson points (which also supply the stage
values), the Stark phase and the boundary values in its StageTable.
Storage integrates the field from the input face Z = 0; retrieval from
a zero boundary at Z = L, emitting backward.  All node/Z updates are
whole-array operations and the ensemble sums run off BLAS, so repeated
runs are bit-identical whatever the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    ControlVanishes,
    NonFiniteField,
    PhysicalityViolation,
    ResonantSingularity,
)
from .numerics import cumulative_integral, weighted_node_sum
from . import stages
from .records import EchoRecord

# Bloch-sphere slack |r12|^2 <= r11 (1 - r11) + BLOCH_EPS guaranteed on the
# state after every step; excursions beyond BLOCH_EMERGENCY mean the step
# went unstable rather than accumulated truncation, and raise
BLOCH_EPS = 1.0e-8
BLOCH_EMERGENCY = 1.0e-3

# |Omega|^2 below this fraction of its peak counts as control-off for the
# probe Stark ratio; a live field there is a ControlVanishes error
CONTROL_FLOOR = 1.0e-12
FIELD_FLOOR = 1.0e-9


def _c_factors(ensemble: EnsembleSpec, one_photon_detuning: float
               ) -> np.ndarray:
    """Per-node denominator factor 1 / (1 + d31 / Delta)."""
    denom = 1.0 + ensemble.delta31s / one_photon_detuning
    if np.any(np.abs(denom) < 1e-6):
        raise ResonantSingularity(
            "Delta + d31 vanished for a node; the adiabatic reduction is "
            "invalid there")
    return 1.0 / denom


@dataclass(kw_only=True)
class SimulationState(stages.StageState):
    """Evolving strong-field state on one stage grid.

    Adds the ground population r11 per (node, Z) to the shared stage
    state, whose boundary is called as (tau, psi, Omega(tau)).
    kernel_weights are the w_j c_j of the ensemble kernels B_mn, and nodes
    the slopes' per-node constants: d21, the bracket rate Delta c_j and
    the drive, Stark and coupling factors.  zeta_scale is the largest
    field magnitude seen so far (the reference for control-off field
    checks).
    """

    r11: np.ndarray             # (n_node, n_z) real
    kernel_weights: np.ndarray  # (n_node,)
    nodes: tuple                # (n_node, 1) columns
    zeta_scale: float = 0.0

    @classmethod
    def fresh(cls, grid: Grid, ensemble: EnsembleSpec,
              one_photon_detuning: float, drive_sign: int,
              boundary: Callable | None = None,
              r12_initial: np.ndarray | None = None,
              r11_initial: np.ndarray | None = None) -> "SimulationState":
        c = _c_factors(ensemble, one_photon_detuning)
        sgn, delta, col = float(drive_sign), one_photon_detuning, c[:, None]
        return super().fresh(
            grid, ensemble, drive_sign, boundary, r12_initial,
            r11=stages.node_array(grid, ensemble, r11_initial, 1.0, float),
            kernel_weights=ensemble.weights * c,
            nodes=(ensemble.delta21s[:, None], delta * col, (1j * sgn) * col,
                   -1j * delta * col, -2.0 * sgn * col))

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


def field_row(state: SimulationState, medium: MediumSpec,
              control: ControlProfile, s: float, psi: float,
              r12: np.ndarray, r11: np.ndarray, sampled=None) -> np.ndarray:
    """Scaled field across the slab at time s and Stark phase psi, from
    the ensemble kernels B11 and B12 of the atomic arrays.

    Storage integrates from the input face Z = 0; retrieval from a zero
    boundary at the far face toward the exit at Z = 0 (the slab is
    flipped, solved forward, and flipped back).  sampled is the pair
    (f(s), boundary value) of a stage table; without it both are
    evaluated at s here.
    """
    if sampled is None:
        rabi_s, f_s = control.at(s)
        sampled = f_s, complex(state.boundary(s, psi, rabi_s))
    f_s, incoming = sampled
    w, sgn, beta = state.kernel_weights, state.drive_sign, medium.coupling_beta
    a = (0.5j * beta * sgn / control.one_photon_detuning) \
        * weighted_node_sum(w, r11)
    source = (0.5j * beta * f_s) * weighted_node_sum(w, r12)
    if sgn > 0:
        row = _solve_field_ode(a, source, state.dz, incoming)
    else:
        rev = _solve_field_ode(-a[::-1], -source[::-1], state.dz, incoming)
        row = rev[::-1]
    if not np.isfinite(row).all():
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
        row_mag = float(np.abs(row).max())
        if row_mag > FIELD_FLOOR * max(state.zeta_scale, 1e-300):
            raise ControlVanishes(
                f"|Omega(tau={s:.6g})| = 0 with |zeta| = {row_mag:.3g}; "
                "the probe Stark ratio is singular")
        return None
    return np.abs(row) ** 2 / om2


def _lawson_step(state: SimulationState, table: stages.StageTable,
                 dt: float, row1: np.ndarray, row_at: Callable) -> None:
    """One RK4 step in the frame co-rotating with d21 - Delta c_j f.

    The per-node bracket phase is Simpson-integrated from the table's
    control row and applied as an exact rotation; row1 is the field row
    at the step start and row_at(k, r12, r11) supplies the row the
    slopes see at stage time s + k dt/2 (k = 1, 2).  The drive and the
    probe Stark rate are the only terms the Runge-Kutta stages step.
    """
    times, _, om2, _, df_half, df_full = table.row(state.step_index)
    d21, bracket, drive, stark, coupling = state.nodes
    rot_half = np.exp(-1j * (d21 * (0.5 * dt) - bracket * df_half))
    rot_full = np.exp(-1j * (d21 * dt - bracket * df_full))
    # the rotations are unimodular, so undoing one is a multiplication by
    # its conjugate
    drive_half = drive * np.conj(rot_half)
    drive_full = drive * np.conj(rot_full)

    def slope(k, drive_k, p_st, n_st, r12_st, row):
        ratio = _stark_ratio(state, times[k], row, om2[k], table.peak2)
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
    state.clock += dt
    state.step_index += 1
    state.row_current = False
    state.assert_physical()


def advance_atoms(state: SimulationState, control: ControlProfile,
                  dt: float) -> SimulationState:
    """One frozen-field atomic step: the row recorded at the current step
    index drives all four Runge-Kutta stages."""
    table = state.table or stages.StageTable.build(
        state, control, dt, state.boundary)
    row = state.zeta_t[state.step_index]
    _lawson_step(state, table, dt, row, row_at=lambda k, r12, r11: row)
    state.zeta_scale = max(state.zeta_scale, float(np.abs(row).max()))
    return state


def advance_strong(state: SimulationState, medium: MediumSpec,
                   control: ControlProfile, dt: float) -> SimulationState:
    """One coupled step: the field is solved from the provisional atoms
    at the k2, k3 and k4 stages, then recorded at the new clock.

    k1 reuses the recorded row when state.row_current says it was solved
    from the current atoms; otherwise k1 solves its row as well.  Every
    row takes its time, Stark phase, f and boundary value from the stage
    table.
    """
    table = state.table or stages.StageTable.build(
        state, control, dt, state.boundary)
    times, psis, _, sampled, _, _ = table.row(state.step_index)

    def row_at(k, r12, r11):
        return field_row(state, medium, control, times[k], psis[k], r12,
                         r11, sampled[k])

    row1 = (state.zeta_t[state.step_index] if state.row_current
            else row_at(0, state.r12, state.r11))
    _lawson_step(state, table, dt, row1, row_at)
    row = row_at(2, state.r12, state.r11)
    state.zeta_t[state.step_index] = row
    state.row_current = True
    state.zeta_scale = max(state.zeta_scale, float(np.abs(row).max()))
    return state


@dataclass(frozen=True)
class ProbeBoundary:
    """Scaled input field at the entry face.

    The physical envelope is dressed by conj(rabi), the control Omega(s)
    at the row's time, and carries the control Stark chirp
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
    """Drive the nonlinear storage stage and account for every photon."""
    stages.check_storage(probe, control, grid)
    tau = grid.tau()
    peak_zeta = WEAK_AMPLITUDE_RATIO * probe.amplitude_scale \
        * control.peak_rabi()
    _validate_grid(grid, ensemble, control, medium,
                   drive_bound=peak_zeta, bandwidth=probe.spectral_width)

    state = SimulationState.fresh(
        grid, ensemble, control.one_photon_detuning, drive_sign=+1,
        boundary=ProbeBoundary(probe))
    state.zeta_scale = peak_zeta
    stages.march(
        state, field_row(state, medium, control, 0.0, 0.0, state.r12,
                         state.r11), grid.n_tau,
        lambda: advance_strong(state, medium, control, grid.dt))

    # Stark-dressed record (accumulated Stark phase removed): the raw
    # chirp runs at Delta f rad per unit, far beyond Nyquist on any grid
    # the solver needs, and the solver cancels it analytically anyway
    input_envelope = (WEAK_AMPLITUDE_RATIO * probe.amplitude_scale
                      * control.one_photon_detuning * probe.sample(tau))
    return stages.audit_storage(state, ensemble, tau, control, medium,
                                input_envelope)


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
                  tau_input: np.ndarray, input_envelope: np.ndarray,
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
    r12, ensemble2 = stages.hand_over(stored, protocol, ensemble, grid2,
                                      gap_time, conditions)
    q = handover_wavevector_mismatch(protocol)
    if q != 0.0:
        r12 *= np.exp(1j * q * stored.z)[None, :]
    drive_bound = max(stored.zeta_scale, 1e-300)
    _validate_grid(grid2, ensemble2, control2, medium,
                   drive_bound=drive_bound,
                   bandwidth=stages.recall_bandwidth(tau_input))

    state = SimulationState.fresh(
        grid2, ensemble2, control2.one_photon_detuning, drive_sign=-1,
        r12_initial=r12, r11_initial=stored.r11)
    state.zeta_scale = drive_bound
    # dress the echo the same way the input record is dressed: remove the
    # stage-2 accumulated Stark phase so the envelope is slow on the grid
    psi2 = control2.one_photon_detuning * cumulative_integral(
        np.asarray(control2.f(grid2.tau()), dtype=float), grid2.dt)
    return stages.recall(
        state, ensemble2, grid2, control2, medium,
        field_row(state, medium, control2, 0.0, 0.0, state.r12, state.r11),
        lambda: advance_strong(state, medium, control2, grid2.dt),
        protocol, tau_input, input_envelope, transmitted_fraction,
        conditions, stark_phase=psi2)
