"""Stage orchestration shared by the weak- and strong-field drivers.

Both regimes store a probe in the slab and recall it as a backward echo,
and they differ only in their equations.  What the drivers do alike
lives here once: stepping a stage from its recorded first row, the
photon-flux audits of storage and retrieval, the recall gate (gap_time
check and strict gate, which a scenario run applies before storage), the
handover of the stored coherences to the recall stage (the gate again,
Z-axis check, dark-interval phase, RECRIB node inversion), the recall
bandwidth and the echo record.

Either regime's state serves: both carry the field rows zeta_t, the Z
axis z and its step dz, the row_current flag and an excitation(ensemble)
profile across the slab.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import ProtocolConfig
from .errors import ConditionsUnmet, ValidationError
from .numerics import cumulative_integral
from .records import EchoRecord


@dataclass
class StorageOutcome:
    state: object                   # WeakState | SimulationState
    tau: np.ndarray
    input_envelope: np.ndarray      # dressed physical envelope at Z = 0
    transmitted_fraction: float
    input_photons: float
    transmitted_photons: float
    stored_excitation: float
    audit_residual: float


def march(state, row0: np.ndarray, n_tau: int, step) -> None:
    """Record row 0, solved from the initial atoms, then take n_tau - 1
    steps.  row_current lets the first step reuse row 0 as its k1 row."""
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
    a discretization audit, not a physics assumption.
    """
    flux = flux_weights(control, medium, tau)
    input_photons = float(np.trapezoid(
        flux * np.abs(state.zeta_t[:, 0]) ** 2, tau))
    transmitted_photons = float(np.trapezoid(
        flux * np.abs(state.zeta_t[:, -1]) ** 2, tau))
    stored = _held_excitation(state, ensemble)
    scale = max(input_photons, 1e-300)
    return StorageOutcome(
        state=state, tau=tau, input_envelope=input_envelope,
        transmitted_fraction=transmitted_photons / scale,
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


def hand_over(r12: np.ndarray, z: np.ndarray, protocol: ProtocolConfig,
              ensemble, grid2, gap_time: float, conditions):
    """Stored coherences and node table at the start of recall.

    gate_recall applies the gap_time check and the strict gate first.
    The dark interval adds the free phase exp(-i d21 gap_time) with the
    detunings as seen before any inversion, while the populations stay
    frozen.  RECRIB recall inverts the nodes per the protocol flags; comb
    recall keeps them.  Returns a copy of r12 and the stage-2 node table.
    """
    gate_recall(protocol, gap_time, conditions)
    if z.shape != (grid2.n_z,) or not np.allclose(z, grid2.z()):
        raise ValidationError(
            "retrieval grid does not match the stored state's Z axis")
    r12 = np.array(r12, dtype=complex)
    if gap_time > 0.0:
        r12 *= np.exp(-1j * ensemble.delta21s * gap_time)[:, None]
    if protocol.protocol == "recrib":
        ensemble = ensemble.inverted(invert_31=protocol.invert_delta31,
                                     invert_21=protocol.invert_delta21)
    return r12, ensemble


def recall_bandwidth(tau_input, grid2) -> float:
    """Probe bandwidth priced by the recall stage: the inverse span of the
    input clock, or of the recall window when there is no input."""
    if tau_input is None:
        return 1.0 / grid2.t_end
    span = float(tau_input[-1] - tau_input[0])
    return max(1.0 / max(span, 1e-300), 1e-12)


def recall(state, ensemble, grid2, control2, medium, row0: np.ndarray,
           step) -> dict:
    """Step the recall stage from the handed-over state and audit it.

    The photons emitted at Z = 0 must match the excitation the ensemble
    released; the residual is relative to what it held when recall
    began.  Returns the echo record's extras: the final state and the
    audit.
    """
    held = _held_excitation(state, ensemble)
    march(state, row0, grid2.n_tau, step)
    tau2 = grid2.tau()
    flux = flux_weights(control2, medium, tau2)
    emitted = float(np.trapezoid(
        flux * np.abs(state.zeta_t[:, 0]) ** 2, tau2))
    released = held - _held_excitation(state, ensemble)
    return {"state": state,
            "audit_residual": abs(emitted - released) / max(held, 1e-300),
            "emitted_photons": emitted, "released_excitation": released}


def echo_record(protocol: ProtocolConfig, tau_input, input_envelope,
                tau_echo: np.ndarray, echo_envelope: np.ndarray,
                transmitted_fraction: float, conditions, extras: dict
                ) -> EchoRecord:
    return EchoRecord(
        protocol=protocol.protocol,
        tau_input=(None if tau_input is None
                   else np.asarray(tau_input, dtype=float)),
        input_envelope=(None if input_envelope is None
                        else np.asarray(input_envelope, dtype=complex)),
        tau_echo=tau_echo,
        echo_envelope=echo_envelope,
        t1=protocol.t1,
        t2=math.nan if protocol.t2 is None else protocol.t2,
        transmitted_fraction=transmitted_fraction,
        conditions=conditions,
        extras=extras,
    )
