"""Linearized storage/recall dynamics in Stark-transformed variables.

The linear regime works in tilde variables: the field and coherence with
the control Stark phase psi(tau) = Delta * int f dtau and the linear
Z-phase beta/(2 Delta) * Z factored out.  What remains is

    dZ zeta~   = -(beta f(tau)/2) * B~12,     B~12 = sum_j w_j R~12_j
    dtau R~12_j = -i (d21_j + d31_j f(tau)) R~12_j  (+/-) zeta~

with drive sign +1 during storage and -1 during retrieval.  The field
equation is a pure quadrature in Z (input face Z=0 for storage; zero
boundary at Z=L with backward emission toward Z=0 for retrieval).

The atom equation is integrated with a 4th-order exponential scheme:
each node's deterministic detuning phase is rotated out analytically, so
only the smooth driven motion is stepped by Runge-Kutta.  The field is
solved at the k2, k3 and k4 stages and recorded at the step end; k1
reuses the row recorded from the same coherences at the same clock.  The
equations are linear and every node is driven by the same field row, so
each Runge-Kutta slope is rank one, a per-node factor times one row
across Z, and a step's (node x Z) work is two products: its node sums
and its update (advance_weak).  The state chooses their forms, and its
quadrature's, once from its shapes, so no bit of a weak stage depends on
the BLAS thread count.

Storage and recall run through stages.StageState.store and retrieve:
WeakState supplies its stages, its input record at Z = 0 and its step,
and no echo phase, since the tilde variables factor the Stark phase out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import (
    ControlProfile,
    EnsembleSpec,
    Grid,
    MediumSpec,
    ProbeSpec,
    WEAK_AMPLITUDE_RATIO,
)
from .errors import NonFiniteField, WeakFieldViolation
from .numerics import (
    _FLOAT,
    _PARTS,
    node_product,
    one_thread_product,
    weighted_node_sum,
)
from . import stages
from .records import envelope_from_scaled

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
    once from the state's shapes (see stages.StageState); it writes the
    sums into one (4, n_z) array held for the stage, which the step and
    the next call overwrite.

    The complex rows of a step are made with the state: kernel, the
    node-summed kernel a step's field rows integrate, read through the
    (n_z, 2) parts view held with it (_field_integral); scratch, one more
    row; and the (6, n_z) block [R; i R] of the update, whose rows 0-2
    are R = [row1; row2 + row3; row4] and rows 3-5 i R, read through its
    float64 view.  rows holds the block's views a step writes and reads:
    R's three rows, then R.  _update writes the update U R by the form
    chosen from the state's shape (_update_product), and real_update says
    which form it is.  No closure held here captures the state, so a
    finished stage is freed by reference counting alone.
    """

    bandwidth: float
    table_sum: Callable = field(init=False, repr=False, compare=False)
    kernel: np.ndarray = field(init=False, repr=False, compare=False)
    scratch: np.ndarray = field(init=False, repr=False, compare=False)
    rows: tuple = field(init=False, repr=False, compare=False)
    real_update: bool = field(init=False, repr=False, compare=False)
    # the Z integral on operands made for this state alone (_field_integral)
    _integrate: Callable = field(init=False, repr=False, compare=False)
    _update: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        super().__post_init__()
        n_node, n_z = self.r12.shape
        self.kernel, self.scratch = (np.empty(n_z, dtype=complex)
                                     for _ in range(2))
        block = np.empty((6, n_z), dtype=complex)
        self.rows = (*block[:3], block[:3])
        self.real_update = one_thread_product(n_node, 6, 2 * n_z)
        self.table_sum = _table_sum(self)
        self._integrate = _field_integral(self)
        self._update = _update_product(block, self.real_update)

    def first_row(self) -> np.ndarray:
        """Row 0 from the current coherences at the table's first stage
        time."""
        times, _, sampled, _, _ = self.table.row(0)
        return _finite(field_row(
            self, times[0], weighted_node_sum(self.ensemble.weights,
                                              self.r12), sampled[0]),
            times[0])

    def excitation(self) -> np.ndarray:
        """Ensemble excitation sum_j w_j |R~12_j|^2 at every Z."""
        return weighted_node_sum(self.ensemble.weights,
                                 np.abs(self.r12) ** 2)

    def build_factors(self, df_half: float, df_full: float) -> tuple:
        """The step factors of the state's ensemble, dt and drive sign for
        the control integrals df_half and df_full, with the update table
        in the state's form (_step_factors)."""
        return _step_factors(self.ensemble, self.table.dt,
                             float(self.drive_sign), self.real_update,
                             df_half, df_full)

    @classmethod
    def storage_stage(cls, probe, control, ensemble, medium, grid):
        _validate_grid(grid, ensemble, control, medium, probe.spectral_width)
        return cls.fresh(grid, ensemble, control, medium, drive_sign=+1,
                         boundary=TildeInput(probe),
                         bandwidth=probe.spectral_width)

    def input_record(self, probe) -> np.ndarray:
        return envelope_from_scaled(self.faces[:, 0], self.control,
                                    self.grid.tau())

    def recall_stage(self, r12, protocol, control2, ensemble2, medium, grid2,
                     bandwidth):
        # the tilde variables factor out the linear Z-phase, so no
        # mode-matching map follows the handover
        _validate_grid(grid2, ensemble2, control2, medium, bandwidth)
        return self.fresh(grid2, ensemble2, control2, medium, drive_sign=-1,
                          r12_initial=r12, bandwidth=bandwidth)

    def stepper(self) -> Callable:
        return advance_weak

    def workspace(self) -> list:
        """The buffers a step writes: two complex (n_node, n_z) arrays,
        for rf p and the update product.

        Allocated at first use and held until stages.march drops them at
        the stage end, as the strong step's are.  The list is mutable: a
        step hands its first buffer to the state as the new coherences and
        takes the old ones in its place.
        """
        if self._work is None:
            self._work = [np.empty(self.r12.shape, dtype=complex)
                          for _ in range(2)]
        return self._work


def _table_sum(state: WeakState) -> Callable:
    """The node sums of a step, table_sum(table, p), for a real (4,
    n_node) table against the coherences p: node_product on p's float64
    parts, chosen once for the state's shape.  It writes the (4, n_z)
    complex sums into an array held for the stage, which it returns and
    the next call overwrites."""
    n_node, n_z = state.r12.shape
    product = node_product((4, n_node), (n_node, 2 * n_z))
    sums = np.empty((4, n_z), dtype=complex)
    flat = sums.view(_FLOAT)

    def table_sum(table: np.ndarray, p: np.ndarray) -> np.ndarray:
        product(table, p.view(_FLOAT), out=flat)
        return sums

    return table_sum


def _field_integral(state: WeakState) -> Callable:
    """The Z integral of the state's field solve, integrate(b12), on
    operands made once for it.

    Storage integrates from the input face, retrieval from the far face,
    by the quadrature's integrator in the stage's direction
    (CumulativeQuadrature.directed), so no row is flipped or copied.  The
    state's own kernel row is read through the parts view held with it,
    any other C-contiguous row through a view of its own.  It writes
    into the float64 parts of one row held for the stage, which it
    returns and the next call overwrites.
    """
    integral_dot = state.quadrature.directed(state.drive_sign)
    integral = np.empty(state.r12.shape[1], dtype=complex)
    parts = integral.view(_PARTS)
    kernel = state.kernel
    kernel_parts = kernel.view(_PARTS)

    def integrate(b12: np.ndarray) -> np.ndarray:
        integral_dot(kernel_parts if b12 is kernel else b12.view(_PARTS),
                     parts)
        return integral

    return integrate


def _update_product(block: np.ndarray, real: bool) -> Callable:
    """The update U R of a step, update(table, out), for the (6, n_z)
    block [R; i R] of a state, written into the complex (n_node, n_z)
    out.

    real (within one_thread_product's bound for an (n_node, 6) by (6, 2
    n_z) product) takes the real (n_node, 6) table [Re U, Im U], fills
    i R from R and writes one real gemm on the block's float64 parts:
    [Re U, Im U] [R; i R] = U R, since a real factor scales both parts of
    a complex entry.  Otherwise it takes the complex (n_node, 3) U and
    writes the complex matmul U R: of inner dimension 3, so however
    OpenBLAS splits it across threads, every output is the same
    three-term sum.  The real gemm is not: at 129 x 1025 OpenBLAS 0.3.31
    gives other bits on two threads, from the kernel it runs at the edge
    of a thread's block.
    """
    head = block[:3]
    if not real:
        def update(table: np.ndarray, out: np.ndarray) -> None:
            np.matmul(table, head, out=out)
        return update
    tail, parts = block[3:], block.view(_FLOAT)

    def update(table: np.ndarray, out: np.ndarray) -> None:
        np.multiply(head, 1j, out=tail)
        table.dot(parts, out=out.view(_FLOAT))

    return update


def field_row(state: WeakState, s: float, b12: np.ndarray,
              sampled: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """Tilde field across the slab at time s, given the kernel B~12.

    b12 is the node-summed coherence sum_j w_j R~12_j at every Z, a
    C-contiguous row: a step passes the state's kernel row, which is
    integrated through the parts view held with it.  Storage integrates
    the source from the input face; retrieval from the far face (zero
    incoming echo), emitting toward Z = 0, both on the operands the state
    made once (_field_integral).  sampled is the pair (f(s), boundary
    value) of a stage table row.  The row is written into out, a
    complex (n_z,) row, or into a fresh row when out is None; either has
    the same bits.
    """
    f_s, incoming = sampled
    gain = 0.5 * state.medium.coupling_beta * f_s
    out = np.multiply(state._integrate(b12), gain, out=out)
    if state.drive_sign > 0:
        return np.subtract(incoming, out, out=out)
    return np.add(incoming, out, out=out)


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
    coherences rf (p + (dt/6) (k1 + 2 k2 + 2 k3 + k4)) are rf p + U R,
    with U = rf [(dt/6) d, (dt/3) dh, (dt/6) df] the (n_node, 3) update
    table and R = [row1; row2 + row3; row4], in the form the state chose
    from its shape (_update_product): a real gemm of [Re U, Im U] on
    [R; i R] within one_thread_product's bound (every shipped scenario),
    the complex matmul U R above it.  The kernel of the row recorded at
    the new clock follows from the same linearity, P_f plus one product
    of its (3,) coefficients with R.  k1 reuses the recorded row, which
    was solved from the current coherences.  Rows, rotations and the
    step dt read the stage table.  The rotations, the tables and the
    node-weight scalars depend on the control only through the step's
    integrals df_half and df_full, so they are rebuilt only when the
    pair differs from the previous step's and reused while it repeats,
    as on a flat-top plateau.  rf p and U R are written into the state's
    workspace.  The stage kernels and the field rows go into the rows the
    state holds: each kernel into its kernel row, row2 into R[1], row3
    into the scratch row and row4 into R[2], then row1 into R[0] and row3
    added to R[1]; the recorded row is solved into the scratch row.  The
    probe Stark shift is priced against the state's bandwidth.  The field
    rows are checked once per step, on the recorded row: a non-finite
    k2, k3 or k4 row reaches it through its kernel, since 0 x NaN is NaN.
    """
    table = state.table
    times, om2, sampled, df_half, df_full = table.row(state.step_index)
    (rot_full, sum_table, update, kernel2, kernel3, kernel4,
     record_coefs) = state.step_factors(df_half, df_full)
    buffers = state.workspace()
    p, rotated, product = state.r12, *buffers
    kernel, row3 = state.kernel, state.scratch
    r1, r23, r4, rows = state.rows
    # S_re and S_im of P_h, then of P_f, as complex rows; each P is
    # S_re + i S_im, written over its S_im row
    s_re_h, p_half, s_re_f, p_full = state.table_sum(sum_table, p)
    p_half *= 1j
    p_half += s_re_h
    p_full *= 1j
    p_full += s_re_f

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
    np.multiply(kernel2, row1, out=kernel)
    kernel += p_half
    row2 = field_row(state, times[1], kernel, sampled[1], out=r23)
    np.multiply(kernel3, row2, out=kernel)
    kernel += p_half
    field_row(state, times[1], kernel, sampled[1], out=row3)
    np.multiply(kernel4, row3, out=kernel)
    kernel += p_full
    field_row(state, times[2], kernel, sampled[2], out=r4)
    r1[...] = row1
    r23 += row3

    np.multiply(rot_full, p, out=rotated)
    state._update(update, product)
    rotated += product
    buffers[0], state.r12 = p, rotated
    state.step_index += 1
    np.matmul(record_coefs, rows, out=kernel)
    kernel += p_full
    state.record(_finite(field_row(state, times[2], kernel, sampled[2],
                                   out=row3), times[2]))
    return state


def _finite(row: np.ndarray, s: float) -> np.ndarray:
    """row, refused when any of its values is not finite."""
    if not np.logical_and.reduce(np.isfinite(row)):
        raise NonFiniteField(f"field row non-finite at tau={s}")
    return row


def _step_factors(ensemble: EnsembleSpec, dt: float, drive: float,
                  real_update: bool, df_half: float, df_full: float) -> tuple:
    """The per-node factors of a step with control integrals df_half and
    df_full: the rotation rf as an (n_node, 1) column, the real (4,
    n_node) node-sum table [Re w rh; Im w rh; Re w rf; Im w rf], the
    update table of U = rf [(dt/6) d, (dt/3) dh, (dt/6) df], then the
    node-weight scalars of the stage kernels B(k2), B(k3), B(k4) and the
    (3,) coefficients of the recorded row's kernel (see advance_weak).
    The update table is the real (n_node, 6) [Re U, Im U] for
    real_update, else the complex (n_node, 3) U (_update_product)."""
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
    if real_update:
        update = np.concatenate([update.real, update.imag], axis=1)
    record = np.array([(dt / 6.0) * drive * sum_full,
                       (dt / 3.0) * sum_full_dh, (dt / 6.0) * sum_full_df])
    return (rot_full[:, None], sum_table, update,
            0.5 * dt * drive * sum_half, 0.5 * dt * sum_half_dh,
            dt * sum_full_dh, record)


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


run_weak_storage = WeakState.store
recall_weak = WeakState.retrieve
