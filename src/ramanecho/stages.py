"""Stage orchestration shared by the weak- and strong-field drivers.

Both regimes store a probe in the slab and recall it as a backward echo,
and they differ only in their equations.  What the drivers do alike
lives here once: the stage state, the stage table of what the steps read
that does not depend on the atoms, the storage checks, stepping a stage
from its recorded first row, the photon-flux audits of storage and
retrieval, the recall gate (gap_time check and strict gate, which a
scenario run applies before storage), the handover of the stored
coherences to the recall stage (the gate again, Z-axis check,
dark-interval phase, RECRIB node inversion) and the echo record.

Each regime's state is a StageState: weakfield.WeakState and
strongfield.SimulationState add their own atomic variables and an
excitation(ensemble) profile across the slab.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .conditions import ProtocolConfig
from .errors import (
    ConditionsUnmet,
    DetuningTooSmall,
    IncompleteAbsorptionWarning,
    ValidationError,
)
from .numerics import cumulative_integral
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


def node_array(grid, ensemble, initial, fill: float, dtype) -> np.ndarray:
    """An (n_node, n_z) atomic array: a copy of initial, or fill."""
    shape = (ensemble.n_nodes, grid.n_z)
    out = (np.full(shape, fill, dtype=dtype) if initial is None
           else np.array(initial, dtype=dtype))
    if out.shape != shape:
        raise ValidationError(
            f"initial atomic arrays must have shape {shape}")
    return out


def zero_boundary(*_) -> complex:
    """The recall stage's incoming field: none."""
    return 0.0 + 0.0j


@dataclass(kw_only=True)
class StageState:
    """Evolving state of one stage on its grid, in either regime.

    zeta_t rows fill as the clock advances; r12 is the current coherence
    per (node, Z), and z the Z axis with its step dz.  drive_sign is +1
    for storage, which integrates the field from the input face Z = 0,
    and -1 for retrieval, which emits backward from a zero boundary at
    Z = L.  boundary is the incoming field at the injection face, called
    with times s (arrays of them in the stage table), the strong regime's
    Stark phase there and the control Omega(s).  row_current says that
    zeta_t[step_index] was solved from the current atoms at the current
    clock, by a run driver at row 0 or by the regime's step at the step
    end; the next step reuses it as its k1 row.  Code that changes the
    atoms in place between steps must clear it.  The first step builds
    table, a StageTable for one control and dt.
    """

    zeta_t: np.ndarray          # (n_tau, n_z) complex
    r12: np.ndarray             # (n_node, n_z) complex
    z: np.ndarray
    dz: float
    drive_sign: int             # +1 storage, -1 retrieval
    boundary: Callable
    clock: float = 0.0
    step_index: int = 0
    row_current: bool = False
    table: StageTable | None = None

    @classmethod
    def fresh(cls, grid, ensemble, drive_sign: int,
              boundary: Callable | None = None,
              r12_initial: np.ndarray | None = None, **own):
        """Blank field rows and r12_initial (default zero) at clock 0;
        own holds the subclass's fields."""
        z = grid.z()
        return cls(zeta_t=np.zeros((grid.n_tau, grid.n_z), dtype=complex),
                   r12=node_array(grid, ensemble, r12_initial, 0.0, complex),
                   z=z, dz=float(z[1] - z[0]), drive_sign=drive_sign,
                   boundary=zero_boundary if boundary is None else boundary,
                   **own)


@dataclass(frozen=True)
class StageTable:
    """What the steps of one stage read that does not depend on the atoms.

    Row i is step first + i: the control on its Simpson points s + dt (0,
    1/8, ..., 1), of which 0, 4 and 8 are the stage times s, s + dt/2 and
    s + dt, the Simpson integrals of f over its half and whole, and at the
    stage times the Stark phase Delta int f (0 at the first step),
    |Omega|^2 and the field row's boundary value.
    """

    first: int
    times: np.ndarray           # (n_steps, 9)
    rabi: np.ndarray            # (n_steps, 9)
    f: np.ndarray               # (n_steps, 9)
    df_half: np.ndarray         # (n_steps,)
    df_full: np.ndarray         # (n_steps,)
    psi: np.ndarray             # (n_steps, 3)
    om2: np.ndarray             # (n_steps, 3)
    incoming: np.ndarray        # (n_steps, 3)
    peak2: float

    @classmethod
    def build(cls, state: StageState, control, dt: float,
              boundary) -> StageTable:
        """state.table, set for the state's steps left from its clock on;
        boundary(s, psi, Omega) takes arrays."""
        n_steps = state.zeta_t.shape[0] - 1 - state.step_index
        # the step starts add dt in sequence, as the steps advance the clock
        clock = np.cumsum(np.r_[state.clock, np.full(n_steps - 1, dt)])
        times = clock[:, None] + dt * np.linspace(0.0, 1.0, 9)
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
        incoming = np.asarray(boundary(times[:, ::4], psi, rabi[:, ::4]),
                              dtype=complex)
        state.table = cls(state.step_index, times, rabi, f, half, full, psi,
                          np.abs(rabi[:, ::4]) ** 2,
                          np.broadcast_to(incoming, psi.shape),
                          control.peak_rabi() ** 2)
        return state.table

    def row(self, step_index: int):
        """Step step_index in Python numbers: stage times, Stark phases,
        |Omega|^2, (f, boundary value) pairs, df_half and df_full."""
        i = step_index - self.first
        return (self.times[i, ::4].tolist(), self.psi[i].tolist(),
                self.om2[i].tolist(),
                tuple(zip(self.f[i, ::4].tolist(), self.incoming[i].tolist())),
                float(self.df_half[i]), float(self.df_full[i]))


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


def march(state, row0: np.ndarray, n_tau: int, step) -> None:
    """Record row 0, solved from the initial atoms, then take n_tau - 1
    steps.  row_current lets the first step reuse row 0 as its k1 row,
    and the first step builds the stage table that every step reads."""
    state.zeta_t[0] = row0
    state.row_current = True
    for _ in range(n_tau - 1):
        step()


def flux_weights(control, medium, tau: np.ndarray) -> np.ndarray:
    """Photon-flux weight 2 / (beta f) where the control is on, else 0."""
    f_tau = np.asarray(control.f(tau), dtype=float)
    out = np.zeros_like(f_tau)
    on = f_tau > 1e-12 * max(control.peak_f(), 1e-300)
    out[on] = 2.0 / (medium.coupling_beta * f_tau[on])
    return out


def _held_excitation(state, ensemble) -> float:
    """Ensemble excitation of the state integrated across the slab."""
    # 4th-order quadrature: the stored profile decays like exp(-alpha z)
    # and plain trapezoid error would dominate the audit at depth >~ 10
    return float(cumulative_integral(state.excitation(ensemble),
                                     state.dz)[-1])


def audit_storage(state, ensemble, tau: np.ndarray, control, medium,
                  input_envelope: np.ndarray) -> StorageOutcome:
    """Account for every photon of a finished storage stage.

    The photon flux 2 |zeta|^2 / (beta f) obeys an exact continuity law
    against the ensemble excitation, so input = transmitted + stored is
    a discretization audit, not a physics assumption.  A transmitted
    fraction above ABSORPTION_WARNING_FRACTION triggers
    IncompleteAbsorptionWarning, because the recall analysis presumes
    complete absorption.
    """
    flux = flux_weights(control, medium, tau)
    input_photons = float(np.trapezoid(
        flux * np.abs(state.zeta_t[:, 0]) ** 2, tau))
    transmitted_photons = float(np.trapezoid(
        flux * np.abs(state.zeta_t[:, -1]) ** 2, tau))
    stored = _held_excitation(state, ensemble)
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


def gate_recall(protocol: ProtocolConfig, gap_time: float,
                conditions) -> None:
    """Refuse a recall that may not run, before anything is stepped.

    A negative or non-finite gap_time raises ValidationError; then strict
    mode raises ConditionsUnmet when the ConditionReport conditions has a
    failure.  Both need only the scenario and its report, so a scenario
    run calls this before its storage stage, and hand_over calls it again
    for callers that recall a state they stored themselves.
    """
    if not (math.isfinite(gap_time) and gap_time >= 0.0):
        raise ValidationError(
            f"gap_time must be finite and >= 0, got {gap_time!r}")
    if protocol.strict and conditions is not None and not conditions.overall:
        raise ConditionsUnmet(
            "strict mode: conditions failed: "
            + ", ".join(conditions.failing_ids()), report=conditions)


def hand_over(stored: StageState, protocol: ProtocolConfig, ensemble,
              grid2, gap_time: float, conditions):
    """Stored coherences and node table at the start of recall.

    gate_recall applies the gap_time check and the strict gate first.
    The dark interval adds the free phase exp(-i d21 gap_time) with the
    detunings as seen before any inversion, while the populations stay
    frozen.  RECRIB recall inverts the nodes per the protocol flags; comb
    recall keeps them.  Returns a copy of the stored r12 and the stage-2
    node table.
    """
    gate_recall(protocol, gap_time, conditions)
    if stored.z.shape != (grid2.n_z,) or not np.allclose(stored.z, grid2.z()):
        raise ValidationError(
            "retrieval grid does not match the stored state's Z axis")
    r12 = np.array(stored.r12, dtype=complex)
    if gap_time > 0.0:
        r12 *= np.exp(-1j * ensemble.delta21s * gap_time)[:, None]
    if protocol.protocol == "recrib":
        ensemble = ensemble.inverted(invert_31=protocol.invert_delta31,
                                     invert_21=protocol.invert_delta21)
    return r12, ensemble


def recall_bandwidth(tau_input: np.ndarray) -> float:
    """Probe bandwidth priced by the recall stage: the inverse span of the
    input clock."""
    span = float(tau_input[-1] - tau_input[0])
    return max(1.0 / max(span, 1e-300), 1e-12)


def recall(state: StageState, ensemble, grid2, control2, medium,
           row0: np.ndarray, step, protocol: ProtocolConfig,
           tau_input: np.ndarray, input_envelope: np.ndarray,
           transmitted_fraction: float, conditions,
           stark_phase: np.ndarray | None = None) -> EchoRecord:
    """Step the recall stage from the handed-over state, audit it and
    record the echo.

    The photons emitted at Z = 0 must match the excitation the ensemble
    released; the residual is relative to what it held when recall
    began, and goes to the record's extras with the final state.  The
    echo is the physical envelope at Z = 0, dressed by exp(-i
    stark_phase) when the regime's variables carry the stage-2 Stark
    phase.
    """
    held = _held_excitation(state, ensemble)
    march(state, row0, grid2.n_tau, step)
    tau2 = grid2.tau()
    flux = flux_weights(control2, medium, tau2)
    emitted = float(np.trapezoid(
        flux * np.abs(state.zeta_t[:, 0]) ** 2, tau2))
    released = held - _held_excitation(state, ensemble)
    echo = envelope_from_scaled(state.zeta_t[:, 0], control2, tau2)
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
        conditions=conditions,
        extras={"state": state,
                "audit_residual": abs(emitted - released) / max(held, 1e-300),
                "emitted_photons": emitted,
                "released_excitation": released},
    )
