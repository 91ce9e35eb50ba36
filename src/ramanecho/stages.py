"""Stage orchestration shared by the weak- and strong-field drivers.

Both regimes store a probe in the slab and recall it as a backward echo,
and they differ only in their equations.  What the drivers do alike
lives here once: the stage state with its Z quadrature and the products
of its node sums, chosen once from its shapes, the stage table
of what the steps read that does not depend on the atoms, its rows
converted to Python numbers a block of steps at a time, the storage
checks, stepping a stage, the reuse of each step's per-node factors
while the control's step integrals repeat, the photon-flux audits of
storage and retrieval, the handover of the stored coherences to the
recall stage (node-table and Z-axis checks, the dark-interval phase over
the protocol's gap_time, RECRIB node inversion) and the echo record.

Each regime's state is a StageState: weakfield.WeakState and
strongfield.SimulationState add their own atomic variables, a
first_row() (their field row at the table's row-0 values) and an
excitation() profile across the slab.  A state is complete when made:
fresh builds its table from clock 0, records row 0 and keeps the grid,
ensemble, control and medium, which every step, field row, audit and
recall reads from the state alone.  So every row of a stage comes from
the one table and the one set of stage inputs.  Of the field, a state
keeps the current row, which the next step starts from, and the trace
of its two faces over the stage, which is all the audits and the echo
read; march drops the buffers a regime's step holds when the stage
ends, or when a step raises.  march also steps a long slab with numpy's
ufunc buffer at STEP_BUFFER elements, so that a broadcast product's
chunk of each operand stays in the L1 data cache, and restores the
caller's size afterwards.  A short slab, a row of fewer than _LONG_ROW
points, keeps numpy's default buffer, but a product with a broadcast
operand still runs one inner loop per node row, since numpy cannot
merge a broadcast axis: so its step columns are repeated to the full
(node, Z) shape once per build (StageState.step_factors), and each
regime solves its field rows on operands its state made once.
Elementwise ufuncs give the same bits at any buffer size and for
either form of a column.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .conditions import ProtocolConfig
from .core import CONTROL_FLOOR, ControlProfile, EnsembleSpec, Grid, MediumSpec
from .errors import (
    DetuningTooSmall,
    IncompleteAbsorptionWarning,
    ValidationError,
)
from .numerics import CumulativeQuadrature, cumulative_integral, node_sum
from .records import EchoRecord, envelope_from_scaled

# far-off-resonance bound |Delta| >= DETUNING_FACTOR x probe bandwidth
DETUNING_FACTOR = 10.0

# share of the probe energy that may lie outside the window a storage
# stage injects it in: efficiency is measured against the injected input,
# so a larger share would bias it by more than the 1e-6 slack that
# measure_efficiency grants an efficiency above one
SUPPORT_FRACTION = 1.0e-6
# the support check samples the probe this many durations past the
# window, on the stage grid's point count plus this many more
SUPPORT_REACH = 10.0
SUPPORT_SAMPLES = 256

# transmitted-energy fraction above which the complete-absorption premise
# of the recall analysis is flagged
ABSORPTION_WARNING_FRACTION = 0.05

# numpy's ufunc buffer, in elements, while march steps a slab whose row
# has at least _LONG_ROW points (see march); numpy takes only multiples
# of 16
STEP_BUFFER = 256
_LONG_ROW = 128

# steps whose table rows StageTable.row converts to Python numbers at once
_ROW_BLOCK = 32


def _full_shape(factors: tuple, shape: tuple) -> tuple:
    """factors with each (n_node, 1) column of an (n_node, n_z) shape
    repeated across its n_z points; every other factor as it is."""
    n_node, n_z = shape
    return tuple(
        f.repeat(n_z, 1) if isinstance(f, np.ndarray)
        and f.shape == (n_node, 1) else f for f in factors)


def node_array(grid, ensemble, initial, fill: float, dtype) -> np.ndarray:
    """An (n_node, n_z) atomic array: a C-contiguous copy of initial, or
    fill."""
    shape = (ensemble.n_nodes, grid.n_z)
    out = (np.full(shape, fill, dtype=dtype) if initial is None
           else np.array(initial, dtype=dtype, order="C"))
    if out.shape != shape:
        raise ValidationError(
            f"initial atomic arrays must have shape {shape}")
    return out


@dataclass(kw_only=True)
class StageState:
    """Evolving state of one stage on its grid, in either regime.

    row is the field row solved from the current atoms, a contiguous
    (n_z,) array: fresh records row 0, and each step records the row at
    its end over it, which the next step reuses as its k1 row.  faces
    traces the field at Z = 0 and Z = L, one (n_tau, 2) entry per clock
    recorded, which is all the audits and the echo read of the field.
    r12 is the current coherence per (node, Z); grid, ensemble, control
    and medium are the stage inputs fresh was given.  drive_sign is +1
    for storage, which integrates the field from the input face Z = 0,
    and -1 for retrieval, which emits backward from a zero boundary at
    Z = L.  quadrature is the cumulative integral on the grid's Z axis,
    and table is the stage's StageTable.  A subclass supplies
    first_row(), its regime's field row at the table's row-0 values, and
    build_factors(df_half, df_full), its per-node step factors.

    The products of the stage are chosen once, when the state is made,
    from its (n_node, n_z) shape (numerics.node_sum): real_sum and
    complex_sum take (n_node,) weights against a real or a complex
    C-contiguous (node, Z) array, and quadrature.complex_row integrates a
    C-contiguous complex row.  Within one_thread_product's bound each is
    a bare np.dot, above it einsum or cumulative_integral; either gives
    the bits of numerics.weighted_node_sum and of the quadrature's
    __call__, which choose and normalise on every call.  _short marks a
    slab of fewer than _LONG_ROW points, whose step columns are full-shape
    (step_factors) and whose regime solves its field rows on operands
    made once, with the state.  None of these are __init__ fields, so a
    dataclasses.replace copy chooses them again for its own shapes.
    _factors is the set of per-node step factors built last, which
    step_factors reuses; _work holds the buffers a regime's step writes,
    which march drops when the stage ends.
    """

    row: np.ndarray             # (n_z,) complex
    faces: np.ndarray           # (n_tau, 2) complex
    r12: np.ndarray             # (n_node, n_z) complex
    grid: Grid
    ensemble: EnsembleSpec
    control: ControlProfile
    medium: MediumSpec
    drive_sign: int             # +1 storage, -1 retrieval
    quadrature: CumulativeQuadrature
    table: StageTable
    step_index: int = 0
    # not an __init__ field, so a dataclasses.replace copy starts without
    # the set, whatever ensemble or node columns it carries
    _factors: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)
    # likewise, so that a copy never writes into the buffers of the state
    # it was copied from
    _work: object | None = field(default=None, init=False, repr=False,
                                 compare=False)
    real_sum: Callable = field(init=False, repr=False, compare=False)
    complex_sum: Callable = field(init=False, repr=False, compare=False)
    _short: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights, shape = self.ensemble.weights.shape, self.r12.shape
        self.real_sum = node_sum(weights, shape, float)
        self.complex_sum = node_sum(weights, shape, complex)
        self._short = shape[1] < _LONG_ROW

    def record(self, row: np.ndarray) -> None:
        """Hold row as the field row of the current clock, and trace its
        faces there."""
        self.row[:] = row
        self.faces[self.step_index] = row[0], row[-1]

    def step_factors(self, df_half: float, df_full: float) -> tuple:
        """The per-node factors build_factors(df_half, df_full) of the
        current step, rebuilt only when the step's control integrals
        change.

        A step's rotations and the columns folded from them depend on the
        state's node columns, the table's dt and the step integrals
        (df_half, df_full) alone.  The first two are fixed for the life
        of the state, and a flat-top control repeats the integrals on
        every step of its plateau.  So the set last built is reused while
        the pair is equal, and the result is bit for bit what rebuilding
        it would give.  The integrals are sums of f >= 0, never -0.0, so
        equal floats are equal bits.  One set is held per state.

        On a short slab every (n_node, 1) column of the set is repeated
        across the slab's n_z points, once per build (_full_shape): numpy
        cannot merge a broadcast axis, so a product of a column with a
        (node, Z) array runs one inner loop per node, where the same
        product of two (node, Z) arrays runs one.  Each product gives the
        same bits either way.
        """
        pair = (df_half, df_full)
        if self._factors is None or self._factors[0] != pair:
            factors = self.build_factors(df_half, df_full)
            if self._short:
                factors = _full_shape(factors, self.r12.shape)
            self._factors = (pair, factors)
        return self._factors[1]

    @classmethod
    def fresh(cls, grid, ensemble, control, medium, drive_sign: int,
              boundary: Callable | None = None,
              r12_initial: np.ndarray | None = None, **own):
        """The stage at clock 0 with r12_initial (default zero), its
        quadrature, its table for control and boundary, and row 0 solved
        from the initial atoms; the state keeps grid, ensemble, control
        and medium, and own holds the subclass's fields."""
        z = grid.z()
        quadrature = CumulativeQuadrature(grid.n_z, float(z[1] - z[0]))
        state = cls(row=np.empty(grid.n_z, dtype=complex),
                    faces=np.zeros((grid.n_tau, 2), dtype=complex),
                    r12=node_array(grid, ensemble, r12_initial, 0.0, complex),
                    grid=grid, ensemble=ensemble, control=control,
                    medium=medium, drive_sign=drive_sign,
                    quadrature=quadrature,
                    table=StageTable.build(control, grid, boundary), **own)
        state.record(state.first_row())
        return state


@dataclass(frozen=True)
class StageTable:
    """What the steps of one stage read that does not depend on the atoms.

    Row i is step i, at its stage times s, s + dt/2 and s + dt: the
    control f, |Omega|^2 and the field row's boundary value there, and
    the integrals of f over the step's half and whole, Simpson's rule on
    the points s + dt (0, 1/8, ..., 1).  dt is the grid step, which every
    step reads here so that it cannot differ from the integrals' own.
    """

    times: np.ndarray           # (n_steps, 3)
    f: np.ndarray               # (n_steps, 3)
    om2: np.ndarray             # (n_steps, 3)
    incoming: np.ndarray        # (n_steps, 3)
    df_half: np.ndarray         # (n_steps,)
    df_full: np.ndarray         # (n_steps,)
    peak2: float
    dt: float

    @classmethod
    def build(cls, control, grid, boundary: Callable | None) -> StageTable:
        """The table of the grid's n_tau - 1 steps from clock 0.

        boundary(s, psi, Omega) takes arrays of the stage times, the
        Stark phase Delta int f there (0 at the first step) and the
        control; None is the recall stage's: no incoming field.
        """
        n_steps, dt = grid.n_tau - 1, grid.dt
        # the step starts add dt in sequence, as the steps advance
        starts = np.cumsum(np.r_[0.0, np.full(n_steps - 1, dt)])
        times = starts[:, None] + dt * np.linspace(0.0, 1.0, 9)
        rabi, f = control.at(times)
        # composite Simpson, two panels of width dt/4 per half: h/3 = dt/24
        v = f.T
        half = (dt / 24.0) * (v[0] + 4.0 * v[1] + 2.0 * v[2] + 4.0 * v[3]
                              + v[4])
        full = half + (dt / 24.0) * (v[4] + 4.0 * v[5] + 2.0 * v[6]
                                     + 4.0 * v[7] + v[8])
        delta = control.one_photon_detuning
        psi0 = np.cumsum(np.r_[0.0, delta * full[:-1]])
        psi = np.stack([psi0, psi0 + delta * half, psi0 + delta * full], 1)
        times, rabi = times[:, ::4], rabi[:, ::4]
        incoming = 0j if boundary is None else boundary(times, psi, rabi)
        return cls(times, f[:, ::4], np.abs(rabi) ** 2,
                   np.broadcast_to(np.asarray(incoming, dtype=complex),
                                   psi.shape),
                   half, full, control.peak_rabi() ** 2, dt)

    # the first step of the rows converted last, and those rows; none
    # at first
    _block: list = field(default_factory=lambda: [-_ROW_BLOCK, []],
                         init=False, repr=False, compare=False)

    def row(self, i: int):
        """Step i in Python numbers: stage times, |Omega|^2, (f, boundary
        value) pairs, df_half and df_full.

        The rows are converted from the arrays _ROW_BLOCK steps at a
        time, and the block of the last row asked for is held, so a
        stage stepped in order converts each row once and holds no more
        than one block."""
        start, rows = self._block
        if not 0 <= i - start < _ROW_BLOCK:
            start = i - i % _ROW_BLOCK
            block = slice(start, start + _ROW_BLOCK)
            pairs = [tuple(zip(f, incoming)) for f, incoming in
                     zip(self.f[block].tolist(),
                         self.incoming[block].tolist())]
            rows = list(zip(self.times[block].tolist(),
                            self.om2[block].tolist(), pairs,
                            self.df_half[block].tolist(),
                            self.df_full[block].tolist()))
            self._block[:] = start, rows
        return rows[i - start]


def check_storage(probe, control, grid) -> None:
    """Refuse a storage stage whose premises fail, before it is stepped.

    The one-photon detuning must be far off resonance: |Delta| >=
    DETUNING_FACTOR x the probe bandwidth.  The probe must lie where the
    stage injects it, on the stage grid [0, t_end] and inside the control
    window, since the scaled field cannot carry probe light where
    conj(Omega) vanishes: more than SUPPORT_FRACTION of its energy
    outside is refused.
    """
    delta = abs(control.one_photon_detuning)
    if delta < DETUNING_FACTOR * probe.spectral_width:
        raise DetuningTooSmall(
            f"|Delta| = {delta} below {DETUNING_FACTOR} x probe bandwidth "
            f"{probe.spectral_width}")
    lo, hi = max(0.0, control.switch_on), min(grid.t_end, control.switch_off)
    reach = SUPPORT_REACH * probe.duration
    t = np.linspace(lo - reach, hi + reach, grid.n_tau + SUPPORT_SAMPLES)
    energy = np.abs(probe.sample(t)) ** 2
    share = np.sum(energy[(t < lo) | (t > hi)]) / max(np.sum(energy), 1e-300)
    if share > SUPPORT_FRACTION:
        raise ValidationError(
            "probe support extends outside the control window on the stage "
            f"grid: {share:.3g} of its energy lies outside "
            f"[{lo:.6g}, {hi:.6g}]")


@dataclass
class StorageOutcome:
    state: StageState
    tau: np.ndarray
    input_envelope: np.ndarray      # dressed physical envelope at Z = 0
    transmitted_fraction: float
    input_photons: float
    transmitted_photons: float
    stored_excitation: float
    audit_residual: float


def march(state: StageState, advance: Callable) -> None:
    """Step a fresh stage to its end, each step by advance(state), then
    drop the buffers the steps wrote, which nothing after the stage
    reads, also when a step raises.

    A long slab, a row of at least _LONG_ROW points, is stepped with
    numpy's ufunc buffer at STEP_BUFFER elements, and the caller's size
    is restored afterwards.  A product of an (n_node, 1) column or an
    (n_z,) row with a (node, Z) array goes through numpy's buffered
    iterator, whose default buffer gathers a dozen long rows per operand,
    more than a core's L1 data cache holds; a small buffer keeps each
    operand's chunk in it.  A short slab keeps numpy's default: its
    whole array fits the default buffer in one chunk, where a small one
    would cut it into several, and its step columns are full-shape
    (StageState.step_factors), so their products take no buffer at all.
    Elementwise ufuncs do not depend on how the iterator chunks their
    operands, so no bit depends on the size.
    """
    try:
        with np.errstate():
            if state.grid.n_z >= _LONG_ROW:
                np.setbufsize(STEP_BUFFER)
            for _ in range(state.grid.n_tau - 1):
                advance(state)
    finally:
        state._work = None


def flux_weights(control, medium, tau: np.ndarray) -> np.ndarray:
    """Photon-flux weight 2 / (beta f) where the control is on, else 0."""
    f_tau = np.asarray(control.f(tau), dtype=float)
    out = np.zeros_like(f_tau)
    on = f_tau > CONTROL_FLOOR * max(control.peak_f(), 1e-300)
    out[on] = 2.0 / (medium.coupling_beta * f_tau[on])
    return out


def _held_excitation(state: StageState) -> float:
    """Ensemble excitation of the state integrated across the slab."""
    # 4th-order quadrature: the stored profile decays like exp(-alpha z)
    # and plain trapezoid error would dominate the audit at depth >~ 10
    return float(cumulative_integral(state.excitation(),
                                     state.quadrature.dx)[-1])


def audit_storage(state: StageState,
                  input_envelope: np.ndarray) -> StorageOutcome:
    """Account for every photon of a finished storage stage.

    The photon flux 2 |zeta|^2 / (beta f) obeys an exact continuity law
    against the ensemble excitation, so input = transmitted + stored is
    a discretization audit, not a physics assumption.  A transmitted
    fraction above ABSORPTION_WARNING_FRACTION triggers
    IncompleteAbsorptionWarning, because the recall analysis presumes
    complete absorption.  The outcome's tau is the stage grid's clock.
    """
    tau = state.grid.tau()
    flux = flux_weights(state.control, state.medium, tau)
    input_photons = float(np.trapezoid(
        flux * np.abs(state.faces[:, 0]) ** 2, tau))
    transmitted_photons = float(np.trapezoid(
        flux * np.abs(state.faces[:, 1]) ** 2, tau))
    stored = _held_excitation(state)
    scale = max(input_photons, 1e-300)
    transmitted_fraction = transmitted_photons / scale
    if transmitted_fraction > ABSORPTION_WARNING_FRACTION:
        warnings.warn(
            f"transmitted fraction {transmitted_fraction:.3g} exceeds "
            f"{ABSORPTION_WARNING_FRACTION}: the probe is not completely "
            "absorbed", IncompleteAbsorptionWarning)
    return StorageOutcome(
        state=state, tau=tau, input_envelope=input_envelope,
        transmitted_fraction=transmitted_fraction,
        input_photons=input_photons,
        transmitted_photons=transmitted_photons, stored_excitation=stored,
        audit_residual=abs(input_photons - transmitted_photons - stored)
        / scale)


def hand_over(stored: StageState, protocol: ProtocolConfig, ensemble,
              grid2):
    """Stored coherences and node table at the start of recall.

    ensemble is the stage-1 node table the caller stored with: one whose
    node detunings or weights differ from the stored state's is refused,
    as is a retrieval grid on another Z axis.  The dark interval adds the
    free phase exp(-i d21 protocol.gap_time) with the detunings as seen
    before any inversion, while the populations stay frozen; a gap_time
    whose phase overflows is refused by name, before any numpy warning.
    Returns a copy of the stored r12 and the stage-2 node table,
    protocol.recall_ensemble of the stored one.
    """
    if not all(np.array_equal(getattr(ensemble, name),
                              getattr(stored.ensemble, name))
               for name in ("delta21s", "delta31s", "weights")):
        raise ValidationError(
            "ensemble does not match the stored state's node table")
    z = stored.grid.z()
    if z.shape != (grid2.n_z,) or not np.allclose(z, grid2.z()):
        raise ValidationError(
            "retrieval grid does not match the stored state's Z axis")
    phase = protocol.dark_phase(ensemble)
    r12 = np.array(stored.r12, dtype=complex)
    if protocol.gap_time > 0.0:
        r12 *= np.exp(-1j * phase)[:, None]
    return r12, protocol.recall_ensemble(ensemble)


def recall_bandwidth(tau_input: np.ndarray) -> float:
    """Probe bandwidth priced by the recall stage: the inverse span of the
    input clock."""
    span = float(tau_input[-1] - tau_input[0])
    return max(1.0 / max(span, 1e-300), 1e-12)


def recall(state: StageState, advance: Callable, protocol: ProtocolConfig,
           tau_input: np.ndarray, input_envelope: np.ndarray,
           transmitted_fraction: float,
           stark_phase: np.ndarray | None = None) -> EchoRecord:
    """Step the fresh recall stage by advance(state), audit it and record
    the echo.

    The photons emitted at Z = 0 must match the excitation the ensemble
    released; the residual is relative to what it held when recall
    began, and goes to the record's extras with the final state.  The
    echo is the physical envelope at Z = 0, dressed by exp(-i
    stark_phase) when the regime's variables carry the stage-2 Stark
    phase.
    """
    held = _held_excitation(state)
    march(state, advance)
    tau2 = state.grid.tau()
    flux = flux_weights(state.control, state.medium, tau2)
    emitted = float(np.trapezoid(
        flux * np.abs(state.faces[:, 0]) ** 2, tau2))
    released = held - _held_excitation(state)
    echo = envelope_from_scaled(state.faces[:, 0], state.control, tau2)
    if stark_phase is not None:
        echo = echo * np.exp(-1j * stark_phase)
    return EchoRecord(
        protocol=protocol.protocol,
        tau_input=np.asarray(tau_input, dtype=float),
        input_envelope=np.asarray(input_envelope, dtype=complex),
        tau_echo=tau2,
        echo_envelope=echo,
        t1=protocol.t1,
        t2=math.nan if protocol.t2 is None else protocol.t2,
        transmitted_fraction=transmitted_fraction,
        extras={"state": state,
                "audit_residual": abs(emitted - released) / max(held, 1e-300)},
    )
