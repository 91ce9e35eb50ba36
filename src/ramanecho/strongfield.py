"""Nonlinear storage/recall dynamics of the Raman-reduced Bloch system.

The strong-field solver evolves the scaled field together with the full
per-node ground-state Bloch variables: the coherence r12_j and the Bloch
z-component s_j = r11_j - 1/2, half the population difference.  With the
stage sign s_nu = +1 for storage and -1 for retrieval, c_j = 1 / (1 +
d31_j / Delta) the one-photon denominator factor, and B_mn = sum_j w_j
c_j r_mn_j, the system is

    dZ zeta    = (i beta/2) (s_nu B11 zeta / Delta + f(tau) B12)
    dtau r12_j = +2 i s_nu c_j zeta s_j
                 - i [d21_j - Delta c_j f(tau) + Delta c_j |zeta|^2/|Omega|^2] r12_j
    dtau s_j   = -2 s_nu c_j Im(conj(zeta) r12_j)

with B11 = sum_j w_j c_j s_j + (1/2) sum_j w_j c_j, whose second term is
a constant of the stage.  The detuning bracket reads the static
two-photon shift d21_j alongside the control light shift -Delta c_j f
and the probe light shift written in regular form |g A|^2 / (Delta + d31)
= Delta c_j |zeta|^2 / |Omega|^2.  The linearized solver's composite
rate d21 + d31 f is the first order of d21 - Delta c_j f once the common
Stark rotation Delta f is factored off.

Unlike the linear module this one works in bare variables, so the input
boundary carries the control Stark chirp (ProbeBoundary).  The atoms step
by RK4-Lawson in the bracket (_lawson_step, advance_strong), and the
field is solved across the slab by an integrating-factor quadrature
(_field_solve).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .conditions import ProtocolConfig
from .core import (
    CONTROL_FLOOR,
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
from .numerics import (
    _FLOAT,
    _PARTS,
    cumulative_integral,
    node_product,
    weighted_node_sum,
)
from . import stages

# Bloch excursions beyond BLOCH_EMERGENCY mean the step went unstable
# rather than accumulated truncation, and raise
BLOCH_EMERGENCY = 1.0e-3

# a field row above this fraction of the largest field seen, where the
# control is off (core.CONTROL_FLOOR), is a ControlVanishes error
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

    Adds the Bloch z-component bloch_z = r11 - 1/2 per (node, Z) to the shared
    stage state.  kernel_weights are the w_j c_j of the ensemble kernels B_mn,
    and half_weight is (1/2) sum_j w_j c_j, the part of B11 that does not
    depend on the atoms.  nodes are the per-node columns the step scales by
    its step sizes and RK weights: the bracket's rates -i d21 and i Delta c_j
    per unit f, the drive i s_nu c_j and the population coupling -2 s_nu c_j.
    stark is -s_nu Delta / 2, which over |Omega|^2 is the kappa/2 of the
    coherence slope.  zeta_scale is the largest row_peak seen so far (the
    reference for control-off field checks).
    """

    bloch_z: np.ndarray         # (n_node, n_z) real, r11 - 1/2
    kernel_weights: np.ndarray  # (n_node,)
    half_weight: float
    nodes: tuple                # (n_node, 1) columns
    stark: float
    zeta_scale: float = 0.0
    # the field solve on operands made for this state alone (_field_solve)
    _solve: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        self._solve = _field_solve(self)

    @classmethod
    def fresh(cls, grid: Grid, ensemble: EnsembleSpec,
              control: ControlProfile, medium: MediumSpec, drive_sign: int,
              boundary: Callable | None = None,
              r12_initial: np.ndarray | None = None,
              bloch_z_initial: np.ndarray | None = None
              ) -> "SimulationState":
        """The stage at clock 0 (stages.StageState.fresh), with
        bloch_z_initial (default 1/2, every atom in the ground state) and
        the per-node constants of the control's Delta."""
        delta = control.one_photon_detuning
        c = _c_factors(ensemble, delta)
        sgn, col = float(drive_sign), c[:, None]
        kernel_weights = ensemble.weights * c
        return super().fresh(
            grid, ensemble, control, medium, drive_sign, boundary,
            r12_initial,
            bloch_z=stages.node_array(grid, ensemble, bloch_z_initial, 0.5,
                                      float),
            kernel_weights=kernel_weights,
            half_weight=0.5 * float(np.sum(kernel_weights)),
            nodes=(-1j * ensemble.delta21s[:, None], 1j * delta * col,
                   (1j * sgn) * col, -2.0 * sgn * col),
            stark=-0.5 * sgn * delta)

    @classmethod
    def storage_stage(cls, probe, control, ensemble, medium, grid):
        peak_zeta = WEAK_AMPLITUDE_RATIO * probe.amplitude_scale \
            * control.peak_rabi()
        _validate_grid(grid, ensemble, control, medium,
                       drive_bound=peak_zeta, bandwidth=probe.spectral_width)
        state = cls.fresh(grid, ensemble, control, medium, drive_sign=+1,
                          boundary=ProbeBoundary(probe))
        state.zeta_scale = peak_zeta
        return state

    def input_record(self, probe) -> np.ndarray:
        # Stark-dressed (accumulated Stark phase removed): the raw chirp
        # runs at Delta f rad per unit, far beyond Nyquist on any grid the
        # solver needs, and the solver cancels it analytically anyway
        return (WEAK_AMPLITUDE_RATIO * probe.amplitude_scale
                * self.control.one_photon_detuning
                * probe.sample(self.grid.tau()))

    def recall_stage(self, r12, protocol, control2, ensemble2, medium, grid2,
                     bandwidth):
        # the mode-matching map r12 -> r12 exp(i q Z) carries the grating
        # into the retrieval frame; the stored z-component carries over
        q = handover_wavevector_mismatch(protocol)
        if q != 0.0:
            r12 *= np.exp(1j * q * self.grid.z())[None, :]
        drive_bound = max(self.zeta_scale, 1e-300)
        _validate_grid(grid2, ensemble2, control2, medium,
                       drive_bound=drive_bound, bandwidth=bandwidth)
        state = self.fresh(grid2, ensemble2, control2, medium, drive_sign=-1,
                           r12_initial=r12, bloch_z_initial=self.bloch_z)
        state.zeta_scale = drive_bound
        return state

    def stepper(self) -> Callable:
        return advance_strong

    def echo_phase(self) -> np.ndarray:
        # the stage-2 accumulated Stark phase, removed from the echo as it
        # is from the input record, so that the envelope is slow on the grid
        return self.control.one_photon_detuning * cumulative_integral(
            np.asarray(self.control.f(self.grid.tau()), dtype=float),
            self.grid.dt)

    @property
    def r11(self) -> np.ndarray:
        """The ground population bloch_z + 1/2, a fresh array."""
        return self.bloch_z + 0.5

    def first_row(self) -> np.ndarray:
        """Row 0 from the current atoms at the table's first stage time."""
        times, _, sampled, _, _ = self.table.row(0)
        return field_row(self, times[0], self.r12, self.bloch_z, sampled[0])

    def excitation(self) -> np.ndarray:
        """Ensemble excitation sum_j w_j (1/2 - s_j) at every Z."""
        return weighted_node_sum(self.ensemble.weights, 0.5 - self.bloch_z)

    def build_factors(self, df_half: float, df_full: float) -> tuple:
        """The step factors of the state's node columns and dt for the
        control integrals df_half and df_full (_step_factors)."""
        return _step_factors(self.nodes, self.table.dt, df_half, df_full)

    def workspace(self) -> tuple:
        """The buffers a step and its projection write: seven complex and
        two real (n_node, n_z) arrays, and the parts of them the slopes
        read or write, viewed once: the real parts of the three G buffers
        and the imaginary parts of the two product buffers.

        Allocated at first use and held until stages.march drops them at
        the stage end, so the steps of a stage write into the same memory
        instead of fresh arrays, which above the C library's mapping
        threshold would be mapped and faulted in again at every step.  A
        step hands the first complex and real buffer to the state as the
        new atoms and takes the old atoms in their place.
        """
        if self._work is None:
            shape = self.r12.shape
            complex_buffers = [np.empty(shape, dtype=complex)
                               for _ in range(7)]
            g1, g2, g3, prod1, prod = complex_buffers[2:]
            self._work = (complex_buffers, [np.empty(shape) for _ in range(2)],
                          (g1.real, g2.real, g3.real, prod1.imag, prod.imag))
        return self._work

    def assert_physical(self) -> None:
        """Restore the Bloch-ball bounds and raise if they truly broke.

        The lossless equations keep each node's Bloch vector
        (Re r12, Im r12, s) on the sphere of radius 1/2 exactly, so an
        outward excursion is integrator truncation.  The drift is
        systematic: on the saturating storage stage (721 x 641 grid, 33
        nodes) about 62% of all cells end each step outside the sphere,
        by up to 1.0e-6.  So the projection runs on every cell, in the
        workspace's buffers: with norm the vector's length, r12 and s are
        scaled by 0.5 / max(norm, 0.5), exactly 1 inside the sphere, so
        those cells keep their bits, and s is clipped to [-1/2, 1/2].
        After every step 0 <= r11 <= 1 and |r12|^2 <= r11 (1 - r11) hold
        to rounding.  An excursion beyond BLOCH_EMERGENCY is not
        truncation-sized and raises, a non-finite one as the field row
        that made it (stages.StageState.record)."""
        _, (norm, square), _ = self.workspace()
        s = self.bloch_z
        np.abs(self.r12, out=norm)
        np.multiply(norm, norm, out=norm)
        np.multiply(s, s, out=square)
        norm += square
        np.sqrt(norm, out=norm)
        worst = float(np.maximum.reduce(norm, None)) - 0.5
        if not math.isfinite(worst):
            raise NonFiniteField("field row non-finite in the step to "
                                 f"clock {self.step_index}")
        if worst > BLOCH_EMERGENCY:
            raise PhysicalityViolation(
                f"Bloch vector left the unit ball by {worst:.3g}")
        shrink = np.maximum(norm, 0.5, out=norm)
        np.divide(0.5, shrink, out=shrink)
        self.r12.real *= shrink
        self.r12.imag *= shrink
        s *= shrink
        np.minimum(s, 0.5, out=s)
        np.maximum(s, -0.5, out=s)


def _field_solve(state: SimulationState) -> Callable:
    """The field solve of the state, solve(r12, bloch_z, f_s, incoming),
    on operands made once for it.

    With Q the quadrature's integral in the stage's direction (from the
    input face for storage, from Z to the far face for retrieval:
    CumulativeQuadrature.directed) and sigma = drive_sign, the
    integrating-factor solve of dZ zeta = a zeta + source is

        theta = (beta / (2 Delta)) Q (b11 + half_weight)
        row   = phi (incoming + (i beta f_s sigma / 2) Q(conj(phi) b12))

    with phi = exp(i theta) and b11, b12 the node sums over bloch_z and
    r12: the phase is the real kernel b11 integrated by a pre-scaled
    integrator, with the constant half-weight term integrated once, and
    phi is unimodular, so dividing by it is multiplying by its conjugate.
    Every product writes with out= into a buffer, or into a float64 view
    of one, made here; the row it returns is a fresh array.
    """
    n_node, n_z = state.r12.shape
    quadrature, sign = state.quadrature, state.drive_sign
    beta = state.medium.coupling_beta
    phase_dot = quadrature.directed(
        sign, 0.5 * beta / state.control.one_photon_detuning, real=True)
    source_dot = quadrature.directed(sign)
    phase_offset = np.empty(n_z)
    phase_dot(np.full(n_z, state.half_weight), phase_offset)
    kernel = state.kernel_weights
    b11_sum = node_product(kernel.shape, (n_node, n_z))
    b12_sum = node_product(kernel.shape, (n_node, 2 * n_z))
    b11, theta = np.empty(n_z), np.empty(n_z)
    phi, conj_phi, b12, inner = (np.empty(n_z, dtype=complex)
                                 for _ in range(4))
    phi_real, phi_imag = phi.real, phi.imag
    b12_flat, b12_parts = b12.view(_FLOAT), b12.view(_PARTS)
    inner_parts = inner.view(_PARTS)
    gain = 0.5j * beta * sign

    def solve(r12, bloch_z, f_s, incoming):
        b11_sum(kernel, bloch_z, out=b11)
        phase_dot(b11, theta)
        np.add(theta, phase_offset, out=theta)
        np.cos(theta, out=phi_real)
        np.sin(theta, out=phi_imag)
        np.conjugate(phi, out=conj_phi)
        b12_sum(kernel, r12.view(_FLOAT), out=b12_flat)
        np.multiply(b12, conj_phi, out=b12)
        source_dot(b12_parts, inner_parts)
        np.multiply(inner, gain * f_s, out=inner)
        np.add(inner, incoming, out=inner)
        return np.multiply(phi, inner)

    return solve


def field_row(state: SimulationState, s: float, r12: np.ndarray,
              bloch_z: np.ndarray, sampled: tuple) -> np.ndarray:
    """Scaled field across the slab at time s (_field_solve), from the
    coherences r12 and Bloch z-components bloch_z, C-contiguous (node, Z)
    arrays as the state's own and its workspace's are; sampled is the
    pair (f(s), boundary value) of a stage table row.  Unchecked: see
    stages.StageState.record."""
    f_s, incoming = sampled
    return state._solve(r12, bloch_z, f_s, incoming)


def _stark_factor(state: SimulationState, s: float, row: np.ndarray,
                  om2: float, peak2: float) -> float:
    """kappa/2 = -s_nu Delta / (2 |Omega|^2), or 0 with the control off.

    Times 2 i s_nu c_j zeta conj(zeta) r12 it is the probe light shift
    Delta c_j |zeta|^2/|Omega|^2 acting on r12, which equals the regular
    form |g A|^2 / (Delta + d31); with the control off a live field
    makes it singular, which is the ControlVanishes regime error.
    """
    if om2 <= CONTROL_FLOOR * peak2:
        row_mag = float(np.maximum.reduce(np.abs(row)))
        if row_mag > FIELD_FLOOR * max(state.zeta_scale, 1e-300):
            raise ControlVanishes(
                f"|Omega(tau={s:.6g})| = 0 with |zeta| = {row_mag:.3g}; "
                "the probe Stark ratio is singular")
        return 0.0
    return state.stark / om2


def _lawson_step(state: SimulationState, step: tuple, row1: np.ndarray,
                 row_at: Callable) -> None:
    """One RK4-Lawson step for the bracket d21 - Delta c_j f, written in
    the lab frame.  The bracket acts through exact rotations, so its fast
    common phase cancels between the field and the rotation, and the
    Runge-Kutta truncation sees only the slow node-spread rates.

    R_h and R_f are the bracket rotations over the half and the full
    step, with the phase Simpson-integrated from the table's control row,
    and p is r12 at the step start.  Apart from the bracket, the
    coherence slope is i s_nu c_j G with G = 2 row (s + (kappa/2)
    conj(row) r12), kappa = -s_nu Delta / |Omega|^2 (0 with the control
    off).  RK4 in the frame co-rotating with the bracket, taken back to
    the lab frame stage by stage (R* R = 1), reads

        r12_2 = R_h p + (dt/2) i s_nu c R_h G_1
        r12_3 = R_h p + (dt/2) i s_nu c G_2
        r12_4 = R_f p + dt i s_nu c R_f R_h* G_3
        r12'  = R_f p + (dt/6) i s_nu c (R_f G_1 + 2 R_f R_h* (G_2 + G_3)
                                         + G_4)

    so each stage is one rotated start value plus one (n_node, 1) column
    times G.  The z-component stages fold their step size h into the
    coupling column the same way: s_k = s + h (-2 s_nu c) Im(conj(row)
    r12) at the previous stage, where conj(row) r12 is the product G
    reads.  step is the stage table's row of the step, row1 the field
    row at the step start, and row_at(k, r12, s) supplies the row the
    slopes see at stage time t + k dt/2 (k = 1, 2), with dt the stage
    table's grid step.  The columns are _step_factors' (step_factors).

    Every (node, Z) intermediate is written into the state's workspace,
    in the order and with the operands an expression per stage would
    use, so the bits are those of fresh arrays.  The new atoms land in
    the first complex and real buffers, which become the state's r12
    and bloch_z; the old ones take their place in the workspace.
    """
    table = state.table
    times, om2, _, df_half, df_full = step
    (rot_half, rot_full, drive_half, drive_sixth, pop_half, pop_full,
     pop_sixth, col2, col4, col_new1, col_new23) = state.step_factors(
        df_half, df_full)
    complex_buffers, real_buffers, views = state.workspace()
    half, stage, g1, g2, g3, prod1, prod = complex_buffers
    s_st, i23 = real_buffers
    g1_real, g2_real, g3_real, i1, i_prod = views

    def slope(k, row, s_k, r12_k, g, g_real, prod):
        """G into g, whose real part is g_real, and conj(row) r12 into
        prod at stage time k dt/2."""
        factor = _stark_factor(state, times[k], row, om2[k], table.peak2)
        np.multiply(np.conj(row), r12_k, out=prod)
        np.multiply(prod, factor, out=g)
        g_real += s_k
        g *= 2.0 * row

    # Im(conj(row) r12) of the first slope is i1, a view of prod1, and of
    # the later ones i_prod, a view of prod
    p, s = state.r12, state.bloch_z
    slope(0, row1, s, p, g1, g1_real, prod1)
    np.multiply(rot_half, p, out=half)
    np.multiply(col2, g1, out=stage)
    stage += half
    np.multiply(pop_half, i1, out=s_st)
    s_st += s
    slope(1, row_at(1, stage, s_st), s_st, stage, g2, g2_real, prod)
    i23[...] = i_prod
    np.multiply(drive_half, g2, out=stage)
    stage += half
    np.multiply(pop_half, i23, out=s_st)
    s_st += s
    slope(1, row_at(1, stage, s_st), s_st, stage, g3, g3_real, prod)
    # R_f p replaces R_h p, which no later stage reads
    np.multiply(rot_full, p, out=half)
    np.multiply(col4, g3, out=stage)
    stage += half
    np.multiply(pop_full, i_prod, out=s_st)
    s_st += s
    g2 += g3
    i23 += i_prod
    # G_4 replaces G_3, which is read no more
    slope(2, row_at(2, stage, s_st), s_st, stage, g3, g3_real, prod)

    # r12' = R_f p + col_new1 G_1 + col_new23 (G_2 + G_3) + drive_sixth G_4
    for column, g in ((col_new1, g1), (col_new23, g2), (drive_sixth, g3)):
        np.multiply(column, g, out=stage)
        half += stage
    # s' = s + pop_sixth ((i1 + i4) + 2 (i2 + i3))
    np.add(i1, i_prod, out=s_st)
    i23 *= 2.0
    s_st += i23
    s_st *= pop_sixth
    s_st += s
    complex_buffers[0], state.r12 = p, half
    real_buffers[0], state.bloch_z = s, s_st
    state.step_index += 1
    state.assert_physical()


def _step_factors(nodes: tuple, dt: float, df_half: float,
                  df_full: float) -> tuple:
    """The (n_node, 1) columns of a step with control integrals df_half
    and df_full: the bracket rotations R_h and R_f, the drive and
    coupling columns scaled by the step sizes and RK weights, and the
    drive columns folded with the rotations (see _lawson_step)."""
    d21_rate, f_rate, drive, coupling = nodes
    rot_half = np.exp(d21_rate * (0.5 * dt) + f_rate * df_half)
    rot_full = np.exp(d21_rate * dt + f_rate * df_full)
    # the rotations are unimodular, so undoing one is a multiplication by
    # its conjugate
    back = rot_full * np.conj(rot_half)
    drive_half, drive_sixth = drive * (0.5 * dt), drive * (dt / 6.0)
    return (rot_half, rot_full, drive_half, drive_sixth,
            coupling * (0.5 * dt), coupling * dt, coupling * (dt / 6.0),
            drive_half * rot_half, drive * dt * back,
            drive_sixth * rot_full, 2.0 * drive_sixth * back)


def advance_strong(state: SimulationState) -> SimulationState:
    """One coupled step: the field is solved from the provisional atoms
    at the k2, k3 and k4 stages, then recorded at the new clock.

    k1 reuses the held row, which was solved from the current atoms.
    Every row takes its time, f and boundary value from the stage table,
    whose row of the step is read once here and handed to the step.
    """
    step = state.table.row(state.step_index)
    times, _, sampled, _, _ = step

    def row_at(k, r12, bloch_z):
        return field_row(state, times[k], r12, bloch_z, sampled[k])

    _lawson_step(state, step, state.row, row_at)
    state.record(row_at(2, state.r12, state.bloch_z), times[2])
    state.zeta_scale = max(state.zeta_scale, state.row_peak)
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


run_storage = SimulationState.store
run_retrieval = SimulationState.retrieve
