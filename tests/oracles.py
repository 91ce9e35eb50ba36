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

SusceptibilityKernel, analytic_transmission and fid_kernel are the
linear regime solved in the frequency domain: the discrete ensemble's
response D(omega), the slab's transmission of a probe through it, and
the free-induction decay after an impulse.  The weak-field integrator
and the strong-field integrator at weak amplitude must transmit what
they predict.

solve_strong_stage2 constructs the stage 2 that nulls all four
strong-field residuals; the condition checkers must pass it.

allocating_lawson_step and allocating_assert_physical are the strong
step and its Bloch projection written the plain way, every stage an
expression on fresh arrays; allocating_advance_strong steps a stage with
them.  The package's step, which writes into a held workspace, must
reproduce them bit for bit.  r11_form_advance_strong steps a stage as
the package did when it held the ground population r11 instead of the
Bloch z-component: the drive 2 r11 - 1 and the probe Stark rate as
separate products, B11 summed over r11 itself, and the projection in
masked passes.  The two forms differ only by rounding.

forward_quadrature is the forward rule of a CumulativeQuadrature chosen
on every call, for any kind and layout of samples: the reference the
integrators a stage holds (CumulativeQuadrature.directed) are checked
against.

flipped_field_row is strongfield.field_row in the general form the
package first solved every slab in, on the general helpers
(_solve_field_ode): B11 summed over the Bloch z-component plus the stage
constant, the phase integrated as a complex row, the source divided by
the integrating factor, and retrieval solved on the flipped slab and
flipped back.  The package's solve, on operands its state made once,
must stay within rounding of it.

advance_atoms steps the strong-field atoms under a frozen field row,
which isolates the atom update for the Rabi, rotation and Bloch-ball
oracles.  refined(grid, factor) is the nested refinement the
convergence tests compare a grid against.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Callable

import numpy as np

from ramanecho.conditions import PhaseMatching, StageSetup, echo_carrier
from ramanecho.core import EnsembleSpec, Grid, ProbeSpec, require_finite
from ramanecho.efficiency import EfficiencyModel, _curve, _normalize_protocol
from ramanecho.errors import ControlVanishes, NoInteriorMaximum, \
    NonFiniteField, PhysicalityViolation, ValidationError
from ramanecho.numerics import _PARTS, fmt_float, golden_section_max, \
    trapezoid_energy, weighted_node_sum, write_text_atomic
from ramanecho.strongfield import (
    BLOCH_EMERGENCY,
    CONTROL_FLOOR,
    FIELD_FLOOR,
    SimulationState,
    _c_factors,
    _lawson_step,
    _stark_factor,
    field_row,
)


def rotating_frame_nodes(ensemble, control, drive_sign: int) -> tuple:
    """The oracle's (n_node, 1) columns: d21, the bracket rate Delta c_j,
    and the drive, Stark and coupling factors."""
    delta = control.one_photon_detuning
    c = _c_factors(ensemble, delta)
    sgn, col = float(drive_sign), c[:, None]
    return (ensemble.delta21s[:, None], delta * col, (1j * sgn) * col,
            -1j * delta * col, -2.0 * sgn * col)


def rotating_frame_copy(state: SimulationState) -> SimulationState:
    """A copy of state, atoms, field row and face trace included, that
    carries the oracle's columns for the state's ensemble and control."""
    return dataclasses.replace(
        state, r12=state.r12.copy(), bloch_z=state.bloch_z.copy(),
        row=state.row.copy(), faces=state.faces.copy(),
        nodes=rotating_frame_nodes(state.ensemble, state.control,
                                   state.drive_sign))


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
    The step runs on the ground population r11 = bloch_z + 1/2, and
    only its final store goes back to the state's bloch_z.
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
    state.bloch_z = n + (dt / 6.0) * (k1n + 2.0 * k2n + 2.0 * k3n + k4n) \
        - 0.5
    state.step_index += 1
    state.assert_physical()


def allocating_assert_physical(state: SimulationState) -> None:
    """SimulationState.assert_physical on fresh arrays: every cell scaled
    by 0.5 / max(norm, 0.5), then the clip of bloch_z to [-1/2, 1/2]."""
    s = state.bloch_z
    norm = np.sqrt(np.abs(state.r12) ** 2 + s ** 2)
    worst = float(norm.max()) - 0.5
    if not math.isfinite(worst) or worst > BLOCH_EMERGENCY:
        raise PhysicalityViolation(
            f"Bloch vector left the unit ball by {worst:.3g}")
    shrink = 0.5 / np.maximum(norm, 0.5)
    state.r12 = state.r12 * shrink
    state.bloch_z = np.clip(s * shrink, -0.5, 0.5)


def allocating_lawson_step(state: SimulationState, row1: np.ndarray,
                           row_at: Callable) -> None:
    """strongfield._lawson_step with every stage an expression on fresh
    arrays, projected by allocating_assert_physical."""
    table = state.table
    times, om2, _, df_half, df_full = table.row(state.step_index)
    (rot_half, rot_full, drive_half, drive_sixth, pop_half, pop_full,
     pop_sixth, col2, col4, col_new1, col_new23) = state.step_factors(
        df_half, df_full)

    def slope(k, row, s_st, r12_st):
        """G and Im(conj(row) r12) at stage time k dt/2."""
        factor = _stark_factor(state, times[k], row, om2[k], table.peak2)
        prod = np.conj(row)[None, :] * r12_st
        return (s_st + prod * factor) * (2.0 * row), prod.imag

    p, s = state.r12, state.bloch_z
    g1, i1 = slope(0, row1, s, p)
    p_half = rot_half * p
    r12_st = p_half + col2 * g1
    s_st = s + pop_half * i1
    g2, i2 = slope(1, row_at(1, r12_st, s_st), s_st, r12_st)
    r12_st = p_half + drive_half * g2
    s_st = s + pop_half * i2
    g3, i3 = slope(1, row_at(1, r12_st, s_st), s_st, r12_st)
    p_full = rot_full * p
    r12_st = p_full + col4 * g3
    s_st = s + pop_full * i3
    g2 += g3
    i23 = i2 + i3
    # free what the last stage no longer reads before its field solve,
    # where the step holds the most arrays
    del p_half, g3, i2, i3
    g4, i4 = slope(2, row_at(2, r12_st, s_st), s_st, r12_st)

    state.r12 = (p_full + col_new1 * g1 + col_new23 * g2
                 + drive_sixth * g4)
    state.bloch_z = s + pop_sixth * (i1 + i4 + 2.0 * i23)
    state.step_index += 1
    allocating_assert_physical(state)


def allocating_advance_strong(state: SimulationState) -> SimulationState:
    """strongfield.advance_strong with allocating_lawson_step as its
    step: the same field rows, recorded the same way."""
    times, _, sampled, _, _ = state.table.row(state.step_index)

    def row_at(k, r12, bloch_z):
        return field_row(state, times[k], r12, bloch_z, sampled[k])

    allocating_lawson_step(state, state.row, row_at)
    row = row_at(2, state.r12, state.bloch_z)
    state.record(row)
    state.zeta_scale = max(state.zeta_scale, float(np.abs(row).max()))
    return state


def forward_quadrature(quadrature, y: np.ndarray) -> np.ndarray:
    """The cumulative integral of the samples y on the axis of quadrature
    (a CumulativeQuadrature), by its forward integrator for y's kind, on
    y made C-contiguous."""
    y = np.ascontiguousarray(y, np.promote_types(y.dtype, np.float64))
    out = np.empty_like(y)
    if y.dtype.kind == "c":
        quadrature.directed(+1)(y.view(_PARTS), out.view(_PARTS))
    else:
        quadrature.directed(+1, real=True)(y, out)
    return out


def _solve_field_ode(a: np.ndarray, source: np.ndarray,
                     quadrature: Callable,
                     boundary_value: complex) -> np.ndarray:
    """dZ zeta = a(Z) zeta + source(Z) with zeta[0] = boundary_value.

    Integrating-factor quadrature: both cumulative integrals are 4th
    order, and a purely imaginary a (the population-dispersion term)
    yields an exactly unimodular factor.  quadrature is the
    CumulativeQuadrature of the axis (forward_quadrature).
    """
    phi = np.exp(forward_quadrature(quadrature, a))
    inner = forward_quadrature(quadrature, source / phi)
    return phi * (boundary_value + inner)


def flipped_field_row(state: SimulationState, s: float, r12: np.ndarray,
                      bloch_z: np.ndarray, sampled: tuple) -> np.ndarray:
    """strongfield.field_row by _solve_field_ode on the general helpers,
    retrieval on the flipped slab."""
    f_s, incoming = sampled
    w, sgn = state.kernel_weights, state.drive_sign
    beta = state.medium.coupling_beta
    a = (0.5j * beta * sgn / state.control.one_photon_detuning) \
        * (weighted_node_sum(w, bloch_z) + state.half_weight)
    source = (0.5j * beta * f_s) * weighted_node_sum(w, r12)
    if sgn > 0:
        return _solve_field_ode(a, source, state.quadrature, incoming)
    return _solve_field_ode(-a[::-1], -source[::-1], state.quadrature,
                            incoming)[::-1]


def _r11_form_field_row(state: SimulationState, s: float, r12: np.ndarray,
                        r11: np.ndarray, sampled: tuple) -> np.ndarray:
    """strongfield.field_row with B11 summed over r11."""
    f_s, incoming = sampled
    w, sgn = state.kernel_weights, state.drive_sign
    beta = state.medium.coupling_beta
    a = (0.5j * beta * sgn / state.control.one_photon_detuning) \
        * weighted_node_sum(w, r11)
    source = (0.5j * beta * f_s) * weighted_node_sum(w, r12)
    if sgn > 0:
        return _solve_field_ode(a, source, state.quadrature, incoming)
    return _solve_field_ode(-a[::-1], -source[::-1], state.quadrature,
                            incoming)[::-1]


def _r11_form_lawson_step(state: SimulationState, r11: np.ndarray,
                          row1: np.ndarray, row_at: Callable) -> np.ndarray:
    """The allocating step on r11, with G = row (2 r11 - 1) + (-s_nu
    Delta |row|^2/|Omega|^2) r12 and the masked projection; advances the
    state's r12 and returns the new r11."""
    table = state.table
    times, om2, _, df_half, df_full = table.row(state.step_index)
    (rot_half, rot_full, drive_half, drive_sixth, pop_half, pop_full,
     pop_sixth, col2, col4, col_new1, col_new23) = state.step_factors(
        df_half, df_full)

    def slope(k, row, n_st, r12_st):
        # 2 kappa/2 = -s_nu Delta / |Omega|^2 exactly, and 0 with the
        # control off
        factor = _stark_factor(state, times[k], row, om2[k], table.peak2)
        g = row[None, :] * (2.0 * n_st - 1.0)
        if factor != 0.0:
            g += (np.abs(row) ** 2 * (2.0 * factor))[None, :] * r12_st
        return g, (np.conj(row)[None, :] * r12_st).imag

    p, n = state.r12, r11
    g1, i1 = slope(0, row1, n, p)
    p_half = rot_half * p
    r12_st = p_half + col2 * g1
    n_st = n + pop_half * i1
    g2, i2 = slope(1, row_at(1, r12_st, n_st), n_st, r12_st)
    r12_st = p_half + drive_half * g2
    n_st = n + pop_half * i2
    g3, i3 = slope(1, row_at(1, r12_st, n_st), n_st, r12_st)
    p_full = rot_full * p
    r12_st = p_full + col4 * g3
    n_st = n + pop_full * i3
    g2 += g3
    i23 = i2 + i3
    g4, i4 = slope(2, row_at(2, r12_st, n_st), n_st, r12_st)

    r12 = p_full + col_new1 * g1 + col_new23 * g2 + drive_sixth * g4
    r11 = n + pop_sixth * (i1 + i4 + 2.0 * i23)
    state.step_index += 1
    # the projection of the cells outside the sphere, in masked passes
    s_z = r11 - 0.5
    norm = np.sqrt(np.abs(r12) ** 2 + s_z ** 2)
    worst = float(norm.max()) - 0.5
    if not math.isfinite(worst) or worst > BLOCH_EMERGENCY:
        raise PhysicalityViolation(
            f"Bloch vector left the unit ball by {worst:.3g}")
    over = norm > 0.5
    shrink = np.divide(0.5, norm, out=norm, where=over)
    np.multiply(r12, shrink, out=r12, where=over)
    np.multiply(s_z, shrink, out=s_z, where=over)
    np.add(s_z, 0.5, out=r11, where=over)
    np.clip(r11, 0.0, 1.0, out=r11)
    state.r12 = r12
    return r11


def r11_form_advance_strong(state: SimulationState,
                            r11: np.ndarray) -> np.ndarray:
    """A coupled step of state on the ground population r11, which the
    caller holds beside it: the state's r12, row and faces advance, and
    the new r11 is returned.  The state's bloch_z is not read."""
    times, _, sampled, _, _ = state.table.row(state.step_index)

    def row_at(k, r12, n):
        return _r11_form_field_row(state, times[k], r12, n, sampled[k])

    r11 = _r11_form_lawson_step(state, r11, state.row, row_at)
    row = row_at(2, state.r12, r11)
    state.record(row)
    state.zeta_scale = max(state.zeta_scale, float(np.abs(row).max()))
    return r11


def scan_optimal_gamma(protocol: str, alpha0L: float,
                       total_time: float | None = None
                       ) -> tuple[float, float]:
    """Peak of a 4001-point scalar scan, refined by golden section; a
    refined efficiency of 0 is refused as the package refuses it."""
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
    if eps_star == 0.0:
        raise ValidationError(
            f"{model.protocol} efficiency rounds to 0 around its peak at "
            f"alpha0L={alpha0L!r}, total_time={model.total_time!r}: "
            "no optimum to report")
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


@dataclasses.dataclass(frozen=True)
class SusceptibilityKernel:
    """Discrete-ensemble linear response.

    D(omega) = sum_j w_j / (i (DeltaR_j - omega) + eta); eta > 0 models a
    homogeneous width, eta = 0 keeps the nodes undamped (matching the
    time-domain integrator).
    """

    ensemble: EnsembleSpec
    f_value: float
    beta: float
    eta: float = 0.0

    def __post_init__(self):
        require_finite(self, "f_value", "beta", "eta")
        if self.f_value <= 0 or self.beta <= 0:
            raise ValidationError("f_value and beta must be > 0")
        if self.eta < 0:
            raise ValidationError("eta must be >= 0")

    def raman_detunings(self) -> np.ndarray:
        return self.ensemble.raman_detunings(self.f_value)

    def D(self, omega, eta_extra: float = 0.0) -> np.ndarray:
        """Ensemble response at (possibly an array of) frequencies."""
        om = np.atleast_1d(np.asarray(omega, dtype=float))
        dr = self.raman_detunings()
        w = self.ensemble.weights
        denom = 1j * (dr[None, :] - om[:, None]) + (self.eta + eta_extra)
        out = (w[None, :] / denom).sum(axis=1)
        return out if np.ndim(omega) else out[0]


@dataclasses.dataclass
class TransmissionResult:
    tau: np.ndarray
    output: np.ndarray
    ratio: float


# the transform pads the window to this multiple of its length, and the
# damping falls by this many e-folds across the padding
PAD_FACTOR = 4
DAMPING_CYCLES = 10.0


def analytic_transmission(probe: ProbeSpec, kernel: SusceptibilityKernel,
                          length: float, window: tuple[float, float],
                          n_time: int | None = None) -> TransmissionResult:
    """Exact linear transmission through a slab of the given length in
    the frequency domain.

    The input envelope is damped by exp(-eta t), convolved with the
    equally damped medium response (a rigorous identity for causal
    kernels), and the damping undone afterward, so periodic-FFT wraparound
    is suppressed by exp(-eta (T_pad - T)) without biasing the result.
    Assumes f stationary over the window (evaluated from the kernel).
    """
    t0, t1 = window
    span = t1 - t0
    if n_time is None:
        max_rate = float(np.max(np.abs(kernel.raman_detunings()))) \
            + 10.0 * probe.spectral_width
        n_time = int(2 ** math.ceil(math.log2(
            max(span * max_rate / 0.3, 512))))
    tau = np.linspace(t0, t1, n_time, endpoint=False)
    a_in = probe.sample(tau)

    n_pad = PAD_FACTOR * n_time
    eta = DAMPING_CYCLES / (span * (PAD_FACTOR - 1))
    damped = np.zeros(n_pad, dtype=complex)
    damped[:n_time] = a_in * np.exp(-eta * (tau - t0))
    spec = np.fft.fft(damped)
    omega = 2.0 * np.pi * np.fft.fftfreq(n_pad, d=tau[1] - tau[0])
    depth = 0.5 * kernel.beta * kernel.f_value * length
    # numpy's forward FFT pairs bin omega_k with exp(-i omega_k t), so the
    # causal response kernel sum_j w exp(-(i Delta_j + eta) u) multiplies
    # each bin by D evaluated at -omega_k
    transfer = np.exp(-depth * kernel.D(-omega, eta_extra=eta))
    out_damped = np.fft.ifft(spec * transfer)[:n_time]
    out = out_damped * np.exp(+eta * (tau - t0))
    if not np.all(np.isfinite(out)):
        raise NonFiniteField("frequency-domain transform overflowed")

    dt = tau[1] - tau[0]
    e_in = trapezoid_energy(a_in, dt)
    e_out = trapezoid_energy(out, dt)
    ratio = e_out / e_in if e_in > 0 else 0.0
    return TransmissionResult(tau=tau, output=out, ratio=float(ratio))


def fid_kernel(ensemble: EnsembleSpec, f_value: float, tau) -> np.ndarray:
    """Free-induction kernel B~12(tau) after unit impulse excitation."""
    tau = np.asarray(tau, dtype=float)
    dr = ensemble.raman_detunings(f_value)
    return (ensemble.weights[None, :]
            * np.exp(-1j * dr[None, :] * tau[:, None])).sum(axis=1)


def solve_strong_stage2(stage1: StageSetup, anchor: float = 0.0
                        ) -> StageSetup:
    """Construct the stage-2 parameters that null all four residuals.

    Flips the one-photon detuning, mirrors the control envelope about the
    shared-clock origin, keeps the coupling, inverts every node, and
    phase-matches the backward echo on the carrier echo_carrier gives
    for the probe carrier omega1 of stage 1's matching.  anchor
    re-anchors the mirrored envelope in stage-2 local time (local
    reversal point anchor/2 instead of 0).
    """
    ctl1 = stage1.control
    m1 = stage1.matching
    # shared clock: stage 2 local time = anchor + (shared time), so the
    # mirrored envelope lands at local tau = anchor - (stage-1 local tau)
    ctl2 = ctl1.time_reversed(anchor=anchor + stage1.clock_offset,
                              detuning=-ctl1.one_photon_detuning)
    omega2 = echo_carrier(m1.omega1, ctl1, ctl2)
    c = m1.light_speed
    k2 = m1.K1z - (m1.n1 * m1.omega1 + m1.n2 * omega2) / c
    matching2 = PhaseMatching(
        K1z=m1.K1z, K2z=k2, omega1=m1.omega1, omega2=omega2, n1=m1.n1,
        n2=m1.n2, light_speed=c)
    return StageSetup(
        control=ctl2,
        ensemble=stage1.ensemble.inverted(),
        probe=None,
        matching=matching2,
        beta=stage1.beta,
        clock_offset=anchor,
    )


def advance_atoms(state: SimulationState) -> SimulationState:
    """One frozen-field atomic step: the state's held row drives all four
    Runge-Kutta stages."""
    row = state.row
    _lawson_step(state, state.table.row(state.step_index), row,
                 row_at=lambda k, r12, bloch_z: row)
    state.zeta_scale = max(state.zeta_scale, float(np.abs(row).max()))
    return state


def refined(grid: Grid, factor: int = 2) -> Grid:
    """The grid with every tau and Z step split into factor steps."""
    return Grid(n_tau=(grid.n_tau - 1) * factor + 1,
                n_z=(grid.n_z - 1) * factor + 1,
                t_end=grid.t_end, length=grid.length)
