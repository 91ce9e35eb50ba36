"""Test-only oracles: independent implementations that the package's
results are checked against.

rotating_frame_step is the strong-field RK4-Lawson step as it was first
written, in the frame co-rotating with the bracket d21 - Delta c_j f:
the Runge-Kutta stages step the rotating-frame coherence, every stage
rotates it back to the lab frame for its field row, and the drive column
is rotated back at every stage.  strongfield._lawson_step writes the
same scheme in the lab frame, so the two differ only by rounding.  The
oracle reads its own per-node columns from state.nodes: give it a copy
of a state whose nodes are rotating_frame_nodes(...).

scan_optimal_gamma and scan_write_sweep_csv are efficiency.optimal_gamma
and efficiency.write_sweep_csv as they were before the bracket scan was
screened with one array evaluation and the shared gamma cells were
formatted once: a full 4001-point scalar scan, and every cell formatted
where it is written.  The package must reproduce them bit for bit.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Callable

import numpy as np

from ramanecho.efficiency import EfficiencyModel, _curve, _normalize_protocol
from ramanecho.errors import ControlVanishes, NoInteriorMaximum, \
    ValidationError
from ramanecho.numerics import fmt_float, golden_section_max, \
    write_text_atomic
from ramanecho.strongfield import (
    CONTROL_FLOOR,
    FIELD_FLOOR,
    SimulationState,
    _c_factors,
)


def rotating_frame_nodes(ensemble, control, drive_sign: int) -> tuple:
    """The oracle's (n_node, 1) columns: d21, the bracket rate Delta c_j,
    and the drive, Stark and coupling factors."""
    delta = control.one_photon_detuning
    c = _c_factors(ensemble, delta)
    sgn, col = float(drive_sign), c[:, None]
    return (ensemble.delta21s[:, None], delta * col, (1j * sgn) * col,
            -1j * delta * col, -2.0 * sgn * col)


def rotating_frame_copy(state: SimulationState, ensemble, control
                        ) -> SimulationState:
    """A copy of state, atoms and field rows included, that carries the
    oracle's columns."""
    return dataclasses.replace(
        state, r12=state.r12.copy(), r11=state.r11.copy(),
        zeta_t=state.zeta_t.copy(),
        nodes=rotating_frame_nodes(ensemble, control, state.drive_sign))


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


def rotating_frame_step(state: SimulationState, dt: float,
                        row1: np.ndarray, row_at: Callable) -> None:
    """One RK4 step in the frame co-rotating with d21 - Delta c_j f.

    The per-node bracket phase is Simpson-integrated from the table's
    control row and applied as an exact rotation; row1 is the field row
    at the step start and row_at(k, r12, r11) supplies the row the
    slopes see at stage time s + k dt/2 (k = 1, 2).  The drive and the
    probe Stark rate are the only terms the Runge-Kutta stages step.
    """
    table = state.table
    times, om2, _, df_half, df_full = table.row(state.step_index)
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
    state.step_index += 1
    state.assert_physical()


def scan_optimal_gamma(protocol: str, alpha0L: float,
                       total_time: float | None = None
                       ) -> tuple[float, float]:
    """Peak of a 4001-point scalar scan, refined by golden section."""
    if not alpha0L > 0:
        raise ValidationError("alpha0L must be > 0")
    model = EfficiencyModel(protocol, alpha0L, 0.0, total_time)
    f = _curve(model)
    grid = np.linspace(0.0, 1.0, 4001)
    vals = np.array([f(g) for g in grid.tolist()])
    k = int(np.argmax(vals))
    if k == len(grid) - 1:
        warnings.warn(
            f"efficiency maximum for {model.protocol} at alpha0L={alpha0L} "
            "sits on the gamma = 1 boundary", NoInteriorMaximum)
        return 1.0, float(vals[-1])
    g_star, eps_star = golden_section_max(f, grid[max(k - 1, 0)],
                                          grid[k + 1])
    return float(g_star), float(eps_star)


def scan_write_sweep_csv(path: str, traces: dict,
                         total_time: float | None = None) -> None:
    """The sweep CSV with every cell formatted where it is written."""
    lines = ["protocol,alpha0L,gamma,epsilon"]
    comments = []
    for (protocol, alpha0L), table in traces.items():
        p, alpha_cell = _normalize_protocol(protocol), fmt_float(alpha0L)
        lines.extend(f"{p},{alpha_cell},{fmt_float(g)},{fmt_float(e)}"
                     for g, e in np.asarray(table, dtype=float).tolist())
        g_star, eps_star = scan_optimal_gamma(p, alpha0L, total_time)
        comments.append(
            f"# optimal {p} alpha0L={alpha_cell} "
            f"gamma={fmt_float(g_star)} epsilon={fmt_float(eps_star)}")
    write_text_atomic(path, "\n".join(lines + comments) + "\n")
