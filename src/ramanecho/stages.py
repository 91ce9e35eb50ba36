"""The stage lifecycle, written once for both regimes.

Both regimes store a probe in the slab and recall it as a backward echo,
and differ only in their equations.  StageState.store and
StageState.retrieve are the one storage driver and the one recall
driver; weakfield.WeakState and strongfield.SimulationState are
StageStates that supply their equations (see StageState).
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
    NonFiniteField,
    ValidationError,
)
from .numerics import CumulativeQuadrature, cumulative_integral
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

    row is the field row solved from the current atoms, which the next
    step reuses as its k1 row, and row_peak its max |row| (record); faces
    traces the field at Z = 0 and Z = L, one (n_tau, 2) entry per clock
    recorded, which is all the audits and the echo read of the field.
    r12 is the coherence per (node, Z); grid, ensemble, control and
    medium are the inputs fresh was given.
    drive_sign is +1 for storage, which integrates the field from the
    input face Z = 0, and -1 for retrieval, which emits backward from a
    zero boundary at Z = L.

    A regime supplies its equations: first_row(), its field row at the
    table's row 0; build_factors(df_half, df_full), its per-node step
    factors; storage_stage and recall_stage, its stage at clock 0 for
    storage and for recall from the handed-over r12; input_record(probe),
    its input record at Z = 0; stepper(), its module's step function,
    looked up once per stage; and echo_phase(), where its variables
    carry the stage-2 Stark phase.
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
    row_peak: float = 0.0
    # the step factors built last (step_factors), the buffers a regime's
    # step writes (march drops them) and whether the slab is short
    # (march): none is an __init__ field, so a dataclasses.replace copy
    # makes them again for its own shapes and never writes into the
    # buffers of the state it was copied from
    _factors: tuple | None = field(default=None, init=False, repr=False,
                                   compare=False)
    _work: object | None = field(default=None, init=False, repr=False,
                                 compare=False)
    _short: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._short = self.r12.shape[1] < _LONG_ROW

    def record(self, row: np.ndarray, tau: float) -> None:
        """Hold row as the field row of clock tau, with its peak max |row|,
        and trace its faces there: the one field check of both regimes,
        which refuses a NaN or inf row (one a step does not record reaches
        the atoms, and so this check, in the same step)."""
        self.row_peak = float(np.maximum.reduce(np.abs(row)))
        if not math.isfinite(self.row_peak):
            raise NonFiniteField(f"field row non-finite at tau={tau}")
        self.row[:] = row
        self.faces[self.step_index] = row[0], row[-1]

    def step_factors(self, df_half: float, df_full: float) -> tuple:
        """The per-node factors build_factors(df_half, df_full) of the
        current step, rebuilt only when the step's control integrals
        change.

        The factors depend on the state's node columns and the table's
        dt, fixed for the life of the state, and on the step integrals
        (df_half, df_full), which a flat-top control repeats on every step
        of its plateau.  So the one set held is reused while the pair is
        equal, bit for bit what rebuilding it would give: the integrals
        are sums of f >= 0, never -0.0, so equal floats are equal bits.

        On a short slab each (n_node, 1) column is repeated across the
        slab's n_z points, once per build (_full_shape): numpy cannot
        merge a broadcast axis, so a column times a (node, Z) array runs
        one inner loop per node, where two (node, Z) arrays run one, with
        the same bits.
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
        state.record(state.first_row(), 0.0)
        return state

    @classmethod
    def store(cls, probe, control, ensemble, medium, grid) -> StorageOutcome:
        """Check, step and audit the storage stage of probe in this
        regime."""
        check_storage(probe, control, grid)
        state = cls.storage_stage(probe, control, ensemble, medium, grid)
        march(state, state.stepper())
        return audit_storage(state, state.input_record(probe))

    def retrieve(self, control2, protocol: ProtocolConfig, ensemble, medium,
                 grid2, tau_input: np.ndarray, input_envelope: np.ndarray,
                 transmitted_fraction: float = math.nan) -> EchoRecord:
        """Recall the echo from this stored state, in its own regime.

        ensemble is the stage-1 node table (hand_over).  The recall stage
        prices the probe bandwidth as the inverse span of tau_input.  The
        photons emitted at Z = 0 must match the excitation the ensemble
        released; the residual is relative to what it held when recall began,
        and goes to the record's extras with the final state.  The echo is the
        physical envelope at Z = 0, dressed by exp(-i echo_phase()) when the
        regime's variables carry the stage-2 Stark phase.
        """
        r12, ensemble2 = hand_over(self, protocol, ensemble, grid2)
        span = float(tau_input[-1] - tau_input[0])
        bandwidth = max(1.0 / max(span, 1e-300), 1e-12)
        state = self.recall_stage(r12, protocol, control2, ensemble2, medium,
                                  grid2, bandwidth)
        held = _held_excitation(state)
        march(state, state.stepper())
        tau2, emitted, _ = state.photons()
        released = held - _held_excitation(state)
        echo = envelope_from_scaled(state.faces[:, 0], state.control, tau2)
        phase = state.echo_phase()
        if phase is not None:
            echo = echo * np.exp(-1j * phase)
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
                    "audit_residual": abs(emitted - released)
                    / max(held, 1e-300)},
        )

    def photons(self) -> tuple[np.ndarray, float, float]:
        """The stage clock and the photons through Z = 0 and Z = L over
        it: the flux 2 |zeta|^2 / (beta f) of each face, 0 where the
        control is off (core.CONTROL_FLOOR), by the trapezoid rule."""
        tau = self.grid.tau()
        f = np.asarray(self.control.f(tau), dtype=float)
        weight = np.zeros_like(f)
        on = f > CONTROL_FLOOR * max(self.control.peak_f(), 1e-300)
        weight[on] = 2.0 / (self.medium.coupling_beta * f[on])
        near, far = (float(np.trapezoid(weight * np.abs(face) ** 2, tau))
                     for face in self.faces.T)
        return tau, near, far

    def echo_phase(self) -> np.ndarray | None:
        return None


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
    audit_residual: float


def march(state: StageState, advance: Callable) -> None:
    """Step a fresh stage to its end, each step by advance(state), then
    drop the buffers the steps wrote, which nothing after the stage
    reads, also when a step raises.

    A long slab, a row of at least _LONG_ROW points, is stepped with
    numpy's ufunc buffer at STEP_BUFFER elements, and the caller's size
    is restored afterwards: a column or row times a (node, Z) array goes
    through numpy's buffered iterator, whose default buffer gathers a
    dozen long rows per operand, more than a core's L1 data cache holds.
    A short slab keeps the default, which holds its whole array in one
    chunk, and its full-shape columns (StageState.step_factors) take no
    buffer at all.  Elementwise ufuncs do not depend on how the iterator
    chunks their operands, so no bit depends on the size.
    """
    try:
        with np.errstate():
            if not state._short:
                np.setbufsize(STEP_BUFFER)
            for _ in range(state.grid.n_tau - 1):
                advance(state)
    finally:
        state._work = None


def _held_excitation(state: StageState) -> float:
    """Ensemble excitation of the state integrated across the slab."""
    # 4th-order quadrature: the stored profile decays like exp(-alpha z)
    # and plain trapezoid error would dominate the audit at depth >~ 10
    return float(cumulative_integral(state.excitation(),
                                     state.quadrature.dx)[-1])


def audit_storage(state: StageState,
                  input_envelope: np.ndarray) -> StorageOutcome:
    """Account for every photon of a finished storage stage.

    The photon flux (StageState.photons) obeys an exact continuity law
    against the ensemble excitation, so input = transmitted + stored is
    a discretization audit, not a physics assumption.  A transmitted
    fraction above ABSORPTION_WARNING_FRACTION triggers
    IncompleteAbsorptionWarning, because the recall analysis presumes
    complete absorption.  The outcome's tau is the stage grid's clock.
    """
    tau, photons_in, photons_out = state.photons()
    stored = _held_excitation(state)
    scale = max(photons_in, 1e-300)
    transmitted_fraction = photons_out / scale
    if transmitted_fraction > ABSORPTION_WARNING_FRACTION:
        warnings.warn(
            f"transmitted fraction {transmitted_fraction:.3g} exceeds "
            f"{ABSORPTION_WARNING_FRACTION}: the probe is not completely "
            "absorbed", IncompleteAbsorptionWarning)
    return StorageOutcome(
        state=state, tau=tau, input_envelope=input_envelope,
        transmitted_fraction=transmitted_fraction,
        audit_residual=abs(photons_in - photons_out - stored) / scale)


def hand_over(stored: StageState, protocol: ProtocolConfig, ensemble,
              grid2):
    """Stored coherences and node table at the start of recall.

    ensemble is the stage-1 node table the caller stored with: one whose
    node detunings or weights differ from the stored state's is refused,
    as is a retrieval grid whose Z axis differs from the stored one in
    any bit.  The dark interval adds the free phase
    protocol.dark_phase(ensemble), with the detunings as seen before any
    inversion, while the populations stay frozen.  Returns a copy of the
    stored r12 and the stage-2 node table, protocol.recall_ensemble of
    the stored one.
    """
    if not all(np.array_equal(getattr(ensemble, name),
                              getattr(stored.ensemble, name))
               for name in ("delta21s", "delta31s", "weights")):
        raise ValidationError(
            "ensemble does not match the stored state's node table")
    if not np.array_equal(stored.grid.z(), grid2.z()):
        raise ValidationError(
            "retrieval grid does not match the stored state's Z axis")
    phase = protocol.dark_phase(ensemble)
    r12 = np.array(stored.r12, dtype=complex)
    if protocol.gap_time > 0.0:
        r12 *= np.exp(-1j * phase)[:, None]
    return r12, protocol.recall_ensemble(ensemble)
