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
row recorded from the same coherences at the same clock, which for the
first step is the row the fresh state solved.  The state holds only
that row and the trace of the field at its two faces, from which the
storage driver records the input envelope at Z = 0.  The control at the
stage times, its Simpson integrals and the boundary values are tabulated
once per stage, in a StageTable that the fresh state builds; field_row
and advance_weak read the stage inputs and the signal bandwidth from the
state alone.  The per-node rotations, drive columns and node-weight sums
of a step depend on the control only through those integrals, so they
are rebuilt only when the integrals change (StageState.step_factors).

Because the equations are linear and every node is driven by the same
field row, each Runge-Kutta slope is rank one: a per-node factor times
one row across Z.  field_row therefore takes the node-summed kernel
B~12, and a step's (node x Z) work is two kernels, in a workspace held
for the stage: one product of a (4, n_node) table for its node sums, by
the rule of numerics.weighted_node_sum (a BLAS product only within the
size that OpenBLAS keeps on one thread), and one BLAS product of inner
dimension 3 for the new coherences (see advance_weak).  The state
chooses its node sums' products and its quadrature's form for a row
once, from its shapes (stages.StageState), and the step calls them
directly.  So no bit of a weak stage depends on the BLAS thread count.
A short slab's rotation column is full-shape (StageState.step_factors),
and its table sum and Z integral write into rows held for the stage,
retrieval integrating backward by the flipped weight matrix
(_short_slab_integral).
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
from .errors import NonFiniteField, WeakFieldViolation
from .numerics import _PARTS, node_sum
from . import stages
from .records import EchoRecord, envelope_from_scaled

# validity margins for the linearization
STARK_VALIDITY_FACTOR = 0.01   # Delta |zeta|^2/|Omega|^2 <= this * d_omega
DETUNING_VALIDITY_FACTOR = 0.1  # max |d31| <= this * |Delta|


@dataclass(kw_only=True)
class WeakState(stages.StageState):
    """Evolving linear-regime state on one stage grid.

    The shared stage state in tilde variables: r12 is the coherence R~12.
    bandwidth is the signal bandwidth that the linear-regime validity
    checks price the probe Stark shift against.  table_sum is the product
    of a step's (4, n_node) node-sum table against the coherences, chosen
    with the state's other products (see stages.StageState); on a short
    slab it writes the sums into one (4, n_z) array held for the stage,
    which the next call overwrites.
    """

    bandwidth: float
    table_sum: Callable = field(init=False, repr=False, compare=False)
    # a short slab's Z integral on operands made for this state alone
    # (_short_slab_integral), None on a long slab
    _integrate: Callable | None = field(init=False, repr=False,
                                        compare=False)

    def __post_init__(self):
        super().__post_init__()
        n_node, n_z = self.r12.shape
        held = np.empty((4, n_z), dtype=complex) if self._short else None
        self.table_sum = node_sum((4, n_node), self.r12.shape, complex,
                                  out=held)
        self._integrate = _short_slab_integral(self) if self._short \
            else None

    def first_row(self) -> np.ndarray:
        """Row 0 from the current coherences at the table's first stage
        time."""
        times, _, sampled, _, _ = self.table.row(0)
        return _finite(field_row(
            self, times[0],
            self.complex_sum(self.ensemble.weights, self.r12), sampled[0]),
            times[0])

    def excitation(self) -> np.ndarray:
        """Ensemble excitation sum_j w_j |R~12_j|^2 at every Z."""
        return self.real_sum(self.ensemble.weights, np.abs(self.r12) ** 2)

    def build_factors(self, df_half: float, df_full: float) -> tuple:
        """The step factors of the state's ensemble, dt and drive sign for
        the control integrals df_half and df_full (_step_factors)."""
        return _step_factors(self.ensemble, self.table.dt,
                             float(self.drive_sign), df_half, df_full)

    def workspace(self) -> tuple:
        """The buffers a step writes: two complex (n_node, n_z) arrays,
        for rf p and the update product, and the complex (3, n_z) rows R.

        Allocated at first use and held until stages.march drops them at
        the stage end, as the strong step's are.  The list is mutable: a
        step hands its first buffer to the state as the new coherences and
        takes the old ones in its place.
        """
        if self._work is None:
            shape = self.r12.shape
            self._work = ([np.empty(shape, dtype=complex) for _ in range(2)],
                          np.empty((3, shape[1]), dtype=complex))
        return self._work


def _short_slab_integral(state: WeakState) -> Callable:
    """The Z integral of a short slab's field solve, integrate(b12), on
    operands made once for the state.

    Storage integrates from the input face by the dense weights W,
    retrieval from the far face by the flipped J W J, so no row is
    flipped or copied.  The product writes into the float64 parts of one
    row held for the stage, which it returns and the next call
    overwrites.
    """
    quadrature = state.quadrature
    weights = (quadrature.weights if state.drive_sign > 0
               else quadrature.backward_weights)
    dot = weights.dot
    integral = np.empty(state.r12.shape[1], dtype=complex)
    parts = integral.view(_PARTS)

    def integrate(b12: np.ndarray) -> np.ndarray:
        dot(b12.view(_PARTS), out=parts)
        return integral

    return integrate


def field_row(state: WeakState, s: float, b12: np.ndarray,
              sampled: tuple) -> np.ndarray:
    """Tilde field across the slab at time s, given the kernel B~12.

    b12 is the node-summed coherence sum_j w_j R~12_j at every Z, a
    C-contiguous row.  Storage integrates the source from the input face;
    retrieval from the far face (zero incoming echo), emitting toward Z =
    0.  A short slab integrates on the operands its state made once
    (_short_slab_integral), retrieval backward by the flipped weight
    matrix; a long slab by the state's quadrature.complex_row, retrieval
    on a reversed copy.  sampled is the pair (f(s), boundary value) of a
    stage table row.
    """
    f_s, incoming = sampled
    gain = 0.5 * state.medium.coupling_beta * f_s
    if state._integrate is not None:
        integral = state._integrate(b12)
    elif state.drive_sign > 0:
        integral = state.quadrature.complex_row(b12)
    else:
        integral = state.quadrature.complex_row(b12[::-1].copy())[::-1]
    if state.drive_sign > 0:
        return incoming - gain * integral
    return incoming + gain * integral


def advance_weak(state: WeakState) -> WeakState:
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

    The step does its (node x Z) work in two kernels.  The node sums are
    the state's table_sum of the real (4, n_node) table [Re w
    rh; Im w rh; Re w rf; Im w rf] against the coherences' interleaved
    real and imaginary parts, which gives S_re and S_im of each sum, P =
    S_re + i S_im: a gemm while OpenBLAS keeps one of that size on one
    thread (every shipped scenario), einsum's own loop above it.  The new
    coherences rf (p + (dt/6) (k1 + 2 k2 + 2 k3 +
    k4)) are rf p + U R, with U = rf [(dt/6) d, (dt/3) dh, (dt/6) df]
    the (n_node, 3) update table and R = [row1; row2 + row3; row4]: a
    BLAS product, but a complex one of inner dimension 3, so however
    OpenBLAS splits it across threads, every output is the same
    three-term sum and its bits do not depend on the thread count.  (The
    same product as a real gemm, [Re U, Im U] times the interleaved
    parts of [R; i R], is no faster and does depend on it: at 129 x 1025
    OpenBLAS 0.3.31 gives other bits on two threads, from the kernel it
    runs at the edge of a thread's block.)  The kernel of the
    row recorded at the new clock follows from the same linearity.  k1
    reuses the recorded row, which was solved from the current
    coherences.  Rows, rotations and the step dt read the stage table.
    The rotations, the tables and the node-weight scalars depend on the
    control only through the step's integrals df_half and df_full, so
    they are rebuilt only when the pair differs from the previous step's
    and reused while it repeats, as on a flat-top plateau.  rf p, U R
    and R are written into the state's workspace.  The probe Stark shift
    is priced against the state's bandwidth.  The field rows are checked
    once per step, on the recorded row: a non-finite k2, k3 or k4 row
    reaches it through its kernel, since 0 x NaN is NaN.
    """
    table = state.table
    times, om2, sampled, df_half, df_full = table.row(state.step_index)
    (rot_full, sum_table, update, kernel2, kernel3, kernel4, record1,
     record23, record4) = state.step_factors(df_half, df_full)
    buffers, rows = state.workspace()
    p, rotated, product = state.r12, *buffers
    # S_re and S_im of P_h, then of P_f, as complex rows
    s_re_h, s_im_h, s_re_f, s_im_f = state.table_sum(sum_table, p)
    p_half = s_re_h + 1j * s_im_h
    p_full = s_re_f + 1j * s_im_f

    def row_at(k, b12):
        return field_row(state, times[k], b12, sampled[k])

    row1 = state.row
    if om2[0] > 1e-9 * table.peak2:
        # the probe Stark shift, priced while the control is on
        # max |row|^2, as the square of max |row|: squaring keeps the order
        row_max = float(np.maximum.reduce(np.abs(row1)))
        stark = abs(state.control.one_photon_detuning) \
            * (row_max * row_max) / om2[0]
        if stark > STARK_VALIDITY_FACTOR * state.bandwidth:
            raise WeakFieldViolation(
                f"probe-induced Stark shift {stark:.3g} exceeds "
                f"{STARK_VALIDITY_FACTOR} x bandwidth at tau={times[0]:.4g}"
                "; use the strong-field integrator")
    row2 = row_at(1, p_half + kernel2 * row1)
    row3 = row_at(1, p_half + kernel3 * row2)
    row4 = row_at(2, p_full + kernel4 * row3)

    rows[0] = row1
    np.add(row2, row3, out=rows[1])
    rows[2] = row4
    np.multiply(rot_full, p, out=rotated)
    np.matmul(update, rows, out=product)
    rotated += product
    buffers[0], state.r12 = p, rotated
    state.step_index += 1
    b12 = p_full + record1 * row1 + record23 * rows[1] + record4 * row4
    state.record(_finite(row_at(2, b12), times[2]))
    return state


def _finite(row: np.ndarray, s: float) -> np.ndarray:
    """row, refused when any of its values is not finite."""
    if not np.logical_and.reduce(np.isfinite(row)):
        raise NonFiniteField(f"field row non-finite at tau={s}")
    return row


def _step_factors(ensemble: EnsembleSpec, dt: float, drive: float,
                  df_half: float, df_full: float) -> tuple:
    """The per-node factors of a step with control integrals df_half and
    df_full: the rotation rf as an (n_node, 1) column, the real (4,
    n_node) node-sum table [Re w rh; Im w rh; Re w rf; Im w rf], the
    (n_node, 3) update table rf [(dt/6) d, (dt/3) dh, (dt/6) df], then
    the node-weight scalars of the stage kernels B(k2), B(k3), B(k4) and
    of the recorded row's kernel (see advance_weak)."""
    d21 = ensemble.delta21s
    d31 = ensemble.delta31s
    rot_half = np.exp(-1j * (d21 * (0.5 * dt) + d31 * df_half))
    rot_full = np.exp(-1j * (d21 * dt + d31 * df_full))
    # the rotations are unimodular: undoing one multiplies by its conjugate
    drive_half = drive * np.conj(rot_half)
    drive_full = drive * np.conj(rot_full)
    w = ensemble.weights
    w_half = w * rot_half
    w_full = w * rot_full
    sum_half, sum_half_dh, sum_full, sum_full_dh, sum_full_df = \
        np.add.reduce([w_half, w_half * drive_half, w_full,
                       w_full * drive_half, w_full * drive_full], axis=1)
    sum_table = np.stack([w_half.real, w_half.imag, w_full.real,
                          w_full.imag])
    update = rot_full[:, None] * np.stack(
        [np.full(d21.shape, (dt / 6.0) * drive), (dt / 3.0) * drive_half,
         (dt / 6.0) * drive_full], axis=1)
    return (rot_full[:, None], sum_table, update,
            0.5 * dt * drive * sum_half, 0.5 * dt * sum_half_dh,
            dt * sum_full_dh, (dt / 6.0) * drive * sum_full,
            (dt / 3.0) * sum_full_dh, (dt / 6.0) * sum_full_df)


@dataclass(frozen=True)
class TildeInput:
    """Scaled input field at the entry face in tilde variables.

    The physical probe envelope is dressed by conj(rabi), the control
    Omega(s) at the row's time; the Stark chirp exp(+i psi) that centers
    it on the shifted line is exactly what the tilde variables factor
    out, so psi goes unused and the tilde boundary is smooth.
    """

    probe: ProbeSpec

    def __call__(self, s, psi, rabi):
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
    _validate_grid(grid, ensemble, control, medium, probe.spectral_width)
    state = WeakState.fresh(grid, ensemble, control, medium, drive_sign=+1,
                            boundary=TildeInput(probe),
                            bandwidth=probe.spectral_width)
    stages.march(state, advance_weak)
    return stages.audit_storage(
        state, envelope_from_scaled(state.faces[:, 0], control, grid.tau()))


def recall_weak(stored: WeakState, control2: ControlProfile,
                protocol: ProtocolConfig, ensemble: EnsembleSpec,
                medium: MediumSpec, grid2: Grid,
                tau_input: np.ndarray, input_envelope: np.ndarray,
                transmitted_fraction: float = math.nan) -> EchoRecord:
    """Retrieve the echo from a stored linear-regime state.

    ensemble is the stage-1 node table, which stages.hand_over refuses
    unless it is the stored state's; it applies the dark-interval phase
    over protocol.gap_time and the RECRIB inversion.  The tilde variables
    factor out the linear Z-phase, so no mode-matching map follows.
    """
    r12, ensemble2 = stages.hand_over(stored, protocol, ensemble, grid2)
    bandwidth = stages.recall_bandwidth(tau_input)
    _validate_grid(grid2, ensemble2, control2, medium, bandwidth)

    state = WeakState.fresh(grid2, ensemble2, control2, medium,
                            drive_sign=-1, r12_initial=r12,
                            bandwidth=bandwidth)
    return stages.recall(state, advance_weak, protocol, tau_input,
                         input_envelope, transmitted_fraction)
