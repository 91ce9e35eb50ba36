"""Linear-regime integrator and frequency-domain oracle tests."""

import dataclasses
import gc
import math
import os
import subprocess
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramanecho.conditions import ProtocolConfig
from ramanecho import stages, strongfield, weakfield
from ramanecho.core import (
    ControlProfile,
    Grid,
    MediumSpec,
    ProbeSpec,
    build_comb_ensemble,
    build_gaussian_ensemble,
)
from ramanecho.errors import (
    NonFiniteField,
    StepTooCoarse,
    ValidationError,
    WeakFieldViolation,
)
from ramanecho.numerics import (
    DENSE_QUADRATURE_MAX,
    CumulativeQuadrature,
    cumulative_integral,
    node_product,
    weighted_node_sum,
)
from ramanecho.records import measure_efficiency
from ramanecho.scenario import build_grids, load_scenario, stage_setups
from ramanecho.strongfield import ProbeBoundary, SimulationState, \
    advance_strong
from ramanecho.weakfield import (
    TildeInput,
    WeakState,
    advance_weak,
    field_row,
    recall_weak,
    run_weak_storage,
)
from oracles import SusceptibilityKernel, analytic_transmission, fid_kernel

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

FID_TOL = 1e-4                  # impulse-response kernel vs Gaussian decay
ROTATION_TOL = 1e-9             # free evolution must be an exact rotation
SMALL_SLAB_TOL = 1e-7           # single node, no feedback: plain quadrature
LINEARITY_TOL = 1e-10
STEP_ORACLE_TOL = 1e-12         # rank-one step vs dense stage arrays
AUDIT_TOL = 1e-3                # photon flux vs stored excitation balance
ECHO_EFFICIENCY_FLOOR = 0.99    # deep symmetric RECRIB recall
ECHO_FIDELITY_FLOOR = 0.995
MONOCHROMATIC_TOL = 1e-6        # narrowband probe vs direct pole sum
IDENTITY_TOL = 1e-9             # zero-depth transmission
TIME_FREQ_TOL = 1e-4            # independent pipelines, Gaussian line
COMB_TIME_FREQ_TOL = 2e-2       # comb line, partial absorption


def make_gaussian_setup(alpha_eff_l=20.0, n_nodes=65, duration=2.0,
                        t_end=24.0, n_tau=385, n_z=65):
    ens = build_gaussian_ensemble(width=1.0, n_nodes=n_nodes, rule="uniform")
    ctl = ControlProfile.flat_top(rabi=60.0, detuning=60.0, switch_on=0.0,
                                  switch_off=t_end)
    probe = ProbeSpec.gaussian(center=0.5 * t_end, duration=duration)
    med = MediumSpec.from_alpha_eff(alpha_eff_l,
                                    line_width_31=ens.line_width_31(),
                                    length_L=1.0)
    grid = Grid(n_tau=n_tau, n_z=n_z, t_end=t_end, length=1.0)
    return ens, ctl, probe, med, grid


# ---------------------------------------------------------------------------
# kernel oracles
# ---------------------------------------------------------------------------

def test_fid_kernel_matches_gaussian_decay():
    # DERIVED oracle: continuum Fourier transform of the Gaussian line
    tau = np.linspace(0.0, 4.0, 400)
    for ens in (build_gaussian_ensemble(width=1.0, n_nodes=64),
                build_gaussian_ensemble(width=1.0, n_nodes=129,
                                        rule="uniform")):
        b = fid_kernel(ens, 1.0, tau)
        assert np.max(np.abs(np.abs(b) - np.exp(-tau ** 2 / 2.0))) < FID_TOL


def test_fid_through_integrator_matches_kernel():
    # free evolution (negligible feedback) must reproduce the closed form
    ens = build_gaussian_ensemble(width=1.0, n_nodes=33, rule="uniform")
    ctl = ControlProfile.flat_top(rabi=60.0, detuning=60.0, switch_on=-2.0,
                                  switch_off=6.0, rise_time=0.5)
    med = MediumSpec(coupling_beta=1e-12)
    grid = Grid(n_tau=161, n_z=5, t_end=4.0, length=1.0)
    state = WeakState.fresh(grid, ens, ctl, med, drive_sign=+1,
                            r12_initial=np.ones((ens.n_nodes, grid.n_z)),
                            bandwidth=1.0)
    vals = [np.sum(ens.weights * state.r12[:, 0])]
    for _ in range(grid.n_tau - 1):
        advance_weak(state)
        vals.append(np.sum(ens.weights * state.r12[:, 0]))
    got = np.array(vals)
    want = fid_kernel(ens, 1.0, grid.tau())
    assert np.max(np.abs(got - want)) < ROTATION_TOL


def test_comb_kernel_revives_at_period():
    ens = build_comb_ensemble(spacing=1.0, tooth_width=0.02, n_lines=11,
                              nodes_per_tooth=5)
    period = 2.0 * math.pi
    b0 = abs(fid_kernel(ens, 1.0, np.array([0.0]))[0])
    b_rev = abs(fid_kernel(ens, 1.0, np.array([period]))[0])
    b_mid = abs(fid_kernel(ens, 1.0, np.array([0.5 * period]))[0])
    assert b_rev > 0.99 * b0
    assert b_mid < 0.15 * b0


def test_single_node_small_slab_is_plain_quadrature():
    # TRIVIAL limit: resonant node, no feedback: R12(tau) = int zeta dtau
    ens = build_gaussian_ensemble(width=1.0, n_nodes=1)
    ctl = ControlProfile.flat_top(rabi=60.0, detuning=60.0, switch_on=-2.0,
                                  switch_off=10.0, rise_time=0.5)
    probe = ProbeSpec.gaussian(center=4.0, duration=0.8)
    med = MediumSpec(coupling_beta=1e-12)
    grid = Grid(n_tau=1025, n_z=5, t_end=8.0, length=1.0)
    boundary = TildeInput(probe)(grid.tau(), 0.0, ctl.rabi(grid.tau()))
    want = cumulative_integral(boundary, grid.dt)
    got = _node_history(probe, ctl, ens, med, grid)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) < SMALL_SLAB_TOL * scale


def _node_history(probe, ctl, ens, med, grid):
    state = WeakState.fresh(grid, ens, ctl, med, drive_sign=+1,
                            boundary=TildeInput(probe),
                            bandwidth=probe.spectral_width)
    hist = [state.r12[0, 0]]
    for _ in range(grid.n_tau - 1):
        advance_weak(state)
        hist.append(state.r12[0, 0])
    return np.array(hist)


def test_fresh_state_solves_row_0_from_its_table():
    # probe centred on tau = 0 with the control on there, so the input
    # boundary at row 0 is O(1) and a row 0 left blank would show
    ens = build_gaussian_ensemble(width=1.0, n_nodes=5, rule="uniform")
    ctl = ControlProfile.flat_top(rabi=60.0, detuning=60.0, switch_on=-2.0,
                                  switch_off=10.0, rise_time=0.5)
    probe = ProbeSpec.gaussian(center=0.0, duration=0.8)
    med = MediumSpec(coupling_beta=2.0)
    grid = Grid(n_tau=65, n_z=9, t_end=2.0, length=1.0)
    rng = np.random.default_rng(3)
    r12 = 0.05 * (rng.standard_normal((ens.n_nodes, grid.n_z))
                  + 1j * rng.standard_normal((ens.n_nodes, grid.n_z)))
    state = WeakState.fresh(grid, ens, ctl, med, drive_sign=+1,
                            boundary=TildeInput(probe), r12_initial=r12,
                            bandwidth=probe.spectral_width)
    table = state.table
    f0, incoming0 = float(table.f[0, 0]), complex(table.incoming[0, 0])
    assert table.times[0, 0] == 0.0 and f0 > 0.0
    assert incoming0 == pytest.approx(
        TildeInput(probe)(0.0, 0.0, ctl.rabi(0.0)), rel=1e-12)
    assert abs(incoming0) > 0.01
    want = field_row(state, 0.0, weighted_node_sum(ens.weights, r12),
                     (f0, incoming0))
    assert np.array_equal(state.row, want)
    assert np.array_equal(state.faces[0], want[[0, -1]])
    assert not np.any(state.faces[1:])


@pytest.mark.parametrize("n_z", [257, 641])
@pytest.mark.parametrize("sign", [+1, -1])
def test_long_slab_row_is_the_banded_quadrature_bit_for_bit(n_z, sign):
    # above DENSE_QUADRATURE_MAX the row integrates by cumulative_integral
    # itself, so its bits are those of the banded rule
    ens = build_gaussian_ensemble(width=1.0, n_nodes=5, rule="uniform")
    ctl = ControlProfile.flat_top(rabi=60.0, detuning=60.0, switch_on=0.0,
                                  switch_off=2.0)
    med = MediumSpec(coupling_beta=20.0)
    grid = Grid(n_tau=5, n_z=n_z, t_end=2.0, length=1.0)
    rng = np.random.default_rng(n_z)
    r12 = 0.05 * (rng.standard_normal((ens.n_nodes, n_z))
                  + 1j * rng.standard_normal((ens.n_nodes, n_z)))
    state = WeakState.fresh(grid, ens, ctl, med, drive_sign=sign,
                            r12_initial=r12, bandwidth=1.0)
    assert state.quadrature.weights is None
    b12 = weighted_node_sum(ens.weights, r12)
    z = grid.z()
    dz = float(z[1] - z[0])
    f_s, incoming = 0.7, 0.3 - 0.2j
    gain = 0.5 * med.coupling_beta * f_s
    if sign > 0:
        want = incoming - gain * cumulative_integral(b12, dz)
    else:
        want = incoming + gain * cumulative_integral(b12[::-1], dz)[::-1]
    got = field_row(state, 0.0, b12, (f_s, incoming))
    assert got.tobytes() == want.tobytes()


def _simpson_step(control, s, dt):
    """The control on one step's Simpson points s + dt (0, 1/8, ..., 1),
    sampled for that step alone: (Omega, f, int f over the first half,
    int f over the whole step)."""
    rabi = control.rabi(s + dt * np.linspace(0.0, 1.0, 9))
    f = np.abs(rabi) ** 2 / control.one_photon_detuning ** 2
    half = (dt / 24.0) * (f[0] + 4.0 * f[1] + 2.0 * f[2] + 4.0 * f[3] + f[4])
    full = half + (dt / 24.0) * (f[4] + 4.0 * f[5] + 2.0 * f[6]
                                 + 4.0 * f[7] + f[8])
    return rabi, f, float(half), float(full)


def _sampled(control, boundary, t):
    """(f, boundary value) at time t, evaluated there alone; the tilde
    boundary does not read the Stark phase."""
    rabi, f = control.at(t)
    return f, 0j if boundary is None else complex(boundary(t, 0.0, rabi))


def _dense_advance_weak(state, boundary, s, dt):
    # the step from time s evaluated on full (node x Z) stage arrays, each
    # summed over the nodes for its field row; the oracle of the rank-one
    # evaluation, with the state's control and the boundary evaluated at
    # each stage time
    ensemble, control = state.ensemble, state.control
    _, _, df_half, df_full = _simpson_step(control, s, dt)
    times = (s, s + 0.5 * dt, s + dt)
    d21 = ensemble.delta21s[:, None]
    d31 = ensemble.delta31s[:, None]
    rot_half = np.exp(-1j * (d21 * (0.5 * dt) + d31 * df_half))
    rot_full = np.exp(-1j * (d21 * dt + d31 * df_full))
    drive = float(state.drive_sign)
    drive_half = drive * np.conj(rot_half)
    drive_full = drive * np.conj(rot_full)
    p = state.r12

    def row_at(k, r12):
        return field_row(state, times[k],
                         weighted_node_sum(ensemble.weights, r12),
                         _sampled(control, boundary, times[k]))

    row1 = state.row
    k1 = drive * row1[None, :]
    k2 = drive_half * row_at(1, rot_half * (p + 0.5 * dt * k1))[None, :]
    k3 = drive_half * row_at(1, rot_half * (p + 0.5 * dt * k2))[None, :]
    k4 = drive_full * row_at(2, rot_full * (p + dt * k3))[None, :]
    state.r12 = rot_full * (p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3
                                                 + k4))
    state.step_index += 1
    state.record(row_at(2, state.r12), times[2])


def _mid_ramp_state(drive_sign):
    # d21 and d31 spreads, random coherences, step 3 on the control's
    # rising edge so the Stark increments are not linear in time; its row
    # is solved from the coherences with the control and the boundary
    # evaluated at that time alone
    ens = build_gaussian_ensemble(width=1.0, n_nodes=9, rule="uniform",
                                  width_21=0.3, n_nodes_21=3)
    ctl = ControlProfile.flat_top(rabi=60.0, detuning=60.0, switch_on=0.0,
                                  switch_off=8.0, rise_time=1.0)
    probe = ProbeSpec.gaussian(center=0.6, duration=0.5)
    med = MediumSpec(coupling_beta=30.0)
    grid = Grid(n_tau=65, n_z=17, t_end=8.0, length=1.0)
    rng = np.random.default_rng(7)
    r12 = 0.1 * (rng.standard_normal((ens.n_nodes, grid.n_z))
                 + 1j * rng.standard_normal((ens.n_nodes, grid.n_z)))
    boundary = TildeInput(probe) if drive_sign > 0 else None
    # bandwidth 2.0 is the probe's, 1 / duration
    state = WeakState.fresh(grid, ens, ctl, med, drive_sign=drive_sign,
                            boundary=boundary, r12_initial=r12,
                            bandwidth=2.0)
    state.step_index, s = 3, 3 * grid.dt
    state.record(field_row(state, s, weighted_node_sum(ens.weights, r12),
                           _sampled(ctl, boundary, s)), s)
    return state, ens, ctl, boundary, grid


@pytest.mark.parametrize("drive_sign", [+1, -1], ids=["storage", "recall"])
def test_rank_one_step_matches_dense_step(drive_sign):
    rank_one, ens, ctl, boundary, grid = _mid_ramp_state(drive_sign)
    dense = _mid_ramp_state(drive_sign)[0]
    s, dt = 3 * grid.dt, grid.dt
    _, _, df_half, df_full = _simpson_step(ctl, s, dt)
    assert abs(2.0 * df_half - df_full) > 1e-3 * df_full
    assert np.ptp(ens.delta21s) > 0.0 and np.ptp(ens.delta31s) > 0.0
    advance_weak(rank_one)
    _dense_advance_weak(dense, boundary, s, dt)
    assert rank_one.step_index == dense.step_index == 4
    # the table's step 3 runs over the times the oracle evaluated
    assert rank_one.table.times[3].tolist() == [s, s + 0.5 * dt, s + dt]
    assert rank_one.table.dt == dt
    for got, want in ((rank_one.r12, dense.r12),
                      (rank_one.row, dense.row),
                      (rank_one.faces[4], dense.faces[4])):
        scale = np.max(np.abs(want))
        assert scale > 0.0
        assert np.max(np.abs(got - want)) <= STEP_ORACLE_TOL * scale


# a stage checks the field once per step, on the row it records
# (StageState.record).  A NaN in one cell of r12 reaches the weak step's
# k2 row through P_h, and its recorded row through that row's kernel; it
# reaches the strong step's new atoms, which its Bloch-ball check reads
# before the row is recorded.  So the step that meets it refuses it as
# a non-finite field, and no numpy warning comes first
@pytest.mark.parametrize("regime, drive_sign", [
    pytest.param("weak", +1, id="storage"),
    pytest.param("weak", -1, id="recall"),
    pytest.param("strong", +1, id="strong-storage"),
    pytest.param("strong", -1, id="strong-recall")])
def test_non_finite_coherence_is_refused_in_the_same_step(regime,
                                                          drive_sign):
    if regime == "weak":
        state, advance = _mid_ramp_state(drive_sign)[0], advance_weak
        message = f"at tau={float(state.table.times[3, 2])!r}$"
    else:
        state, advance = _products_stage(regime, drive_sign)
        for _ in range(40):             # onto the plateau, the probe in
            advance(state)
        message = "in the step to clock 41$"
    assert state.row_peak > 0.0
    state.r12[4, 7] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteField,
                           match=r"^field row non-finite " + message):
            advance(state)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1.0, -np.inf)],
                         ids=["nan", "inf", "imaginary-inf"])
def test_record_holds_the_row_peak_and_refuses_a_non_finite_row(bad):
    # the one field check of both regimes: record reduces the row once to
    # its peak, which the strong zeta_scale and the weak Stark check read
    state = _mid_ramp_state(+1)[0]
    row = state.row.copy()
    assert state.row_peak == float(np.max(np.abs(row))) > 0.0
    row[5] = bad
    with pytest.raises(NonFiniteField,
                       match=r"^field row non-finite at tau=2\.5$"):
        state.record(row, 2.5)


# the weak step in a fresh interpreter: digests of r12, row and faces
# after steps of storage from seeded coherences
_THREAD_RUN = """
import hashlib
import numpy as np
from ramanecho.core import (ControlProfile, Grid, MediumSpec, ProbeSpec,
                            build_gaussian_ensemble)
from ramanecho.weakfield import TildeInput, WeakState, advance_weak

n_node, n_z, steps = {n_node}, {n_z}, {steps}
ens = build_gaussian_ensemble(width=1.0, n_nodes=n_node, rule="uniform")
ctl = ControlProfile.flat_top(rabi=60.0, detuning=60.0, switch_on=0.0,
                              switch_off=24.0)
probe = ProbeSpec.gaussian(center=12.0, duration=2.0)
med = MediumSpec.from_alpha_eff(20.0, line_width_31=ens.line_width_31(),
                                length_L=1.0)
rng = np.random.default_rng(1)
r12 = 0.01 * (rng.standard_normal((n_node, n_z))
              + 1j * rng.standard_normal((n_node, n_z)))
state = WeakState.fresh(Grid(n_tau=385, n_z=n_z, t_end=24.0, length=1.0),
                        ens, ctl, med, drive_sign=+1,
                        boundary=TildeInput(probe), r12_initial=r12,
                        bandwidth=probe.spectral_width)
for _ in range(steps):
    advance_weak(state)
for name in ("r12", "row", "faces"):
    print(name, hashlib.sha256(getattr(state, name).tobytes()).hexdigest())
"""


def test_weak_step_does_not_depend_on_blas_threads():
    # 129 nodes x 1025 Z: the update product U R is a gemm of m n k =
    # 129 x 1025 x 3, above the size up to which OpenBLAS runs a gemm on
    # one thread (262,144), so two threads split it; with inner dimension
    # 3 every output is the same three-term sum either way.  With
    # OpenBLAS 0.3.31, a node sum by matrix product (W @ p on the complex
    # (2, n_node) weights) gives other last bits on two threads within 5
    # steps, and the update taken as a real gemm ([Re U, Im U] times the
    # parts of [R; i R]) within 20
    n_node, n_z = 129, 1025
    assert n_node * n_z * 3 > 262_144
    src_dir = os.path.dirname(os.path.dirname(weakfield.__file__))
    code = _THREAD_RUN.format(n_node=n_node, n_z=n_z, steps=40)
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src_dir, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split("\n"))
    assert [line.split()[0] for line in digests[0] if line] == \
        ["r12", "row", "faces"]
    assert digests[0] == digests[1]


def _stage_under_a_ramp(regime):
    """One whole stage stepped under a ramped control with a Gaussian
    probe: the state, its table when fresh, the control, the probe, its
    boundary and dt."""
    ens = build_gaussian_ensemble(width=1.0, n_nodes=17, rule="uniform")
    ctl = ControlProfile.flat_top(rabi=60.0, detuning=60.0, switch_on=0.0,
                                  switch_off=4.0, rise_time=1.0)
    probe = ProbeSpec.gaussian(center=1.5, duration=0.5)
    med = MediumSpec(coupling_beta=2.0)
    grid = Grid(n_tau=91, n_z=9, t_end=3.0, length=1.0)
    if regime == "strong":
        boundary = ProbeBoundary(probe)
        state = SimulationState.fresh(grid, ens, ctl, med, drive_sign=+1,
                                      boundary=boundary)
        advance = advance_strong
    else:
        boundary = TildeInput(probe)
        state = WeakState.fresh(grid, ens, ctl, med, drive_sign=+1,
                                boundary=boundary,
                                bandwidth=probe.spectral_width)
        advance = advance_weak
    table = state.table
    for _ in range(grid.n_tau - 1):
        advance(state)
    return state, table, ctl, probe, boundary, grid.dt


@pytest.mark.parametrize("regime", ["strong", "weak"])
def test_stage_table_holds_what_each_step_would_sample(regime):
    state, table, ctl, probe, boundary, dt = _stage_under_a_ramp(regime)
    # the steps read the table the fresh state built
    assert state.table is table
    n_steps, n_node = state.grid.n_tau - 1, state.r12.shape[0]
    # the step starts add dt in sequence
    clocks = [0.0]
    for _ in range(n_steps - 1):
        clocks.append(clocks[-1] + dt)
    assert table.times[:, 0].tolist() == clocks
    delta = ctl.one_photon_detuning
    eps = np.finfo(float).eps
    psi = 0.0
    for i, s in enumerate(clocks):
        rabi, f, half, full = _simpson_step(ctl, s, dt)
        assert np.array_equal(table.f[i], f[::4])
        assert table.df_half[i] == half and table.df_full[i] == full
        psis = [psi, psi + delta * half, psi + delta * full]
        psi += delta * full
        times = (s, s + 0.5 * dt, s + dt)
        assert table.times[i].tolist() == list(times)
        for k, t in enumerate(times):
            # the table squares on arrays, x * x; a number alone is
            # squared by the C library's pow, which may be 1 ulp off
            om2 = float(abs(rabi[4 * k])) ** 2
            assert abs(table.om2[i, k] - om2) <= np.spacing(om2)
            want = complex(boundary(t, psis[k], rabi[4 * k]))
            # so the probe's Gaussian exponent may differ by 1 ulp, which
            # exp scales by the exponent's size
            exponent = 0.5 * ((t - 1.5) / probe.duration) ** 2
            assert abs(table.incoming[i, k] - want) \
                <= (exponent + 4.0) * eps * abs(want)
    # every array has a row per step and at most 3 entries in it, so none
    # grows with the node count
    arrays = [v for v in vars(table).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 6
    for value in arrays:
        assert value.shape[0] == n_steps and value.size <= 3 * n_steps
        assert value.size < n_steps * n_node


def _dipped_control():
    """A Python-API control on all stage: a plateau with a dip to half
    the Rabi frequency on (1.2, 1.6)."""
    def env(tau):
        tau = np.asarray(tau)
        return 60.0 * np.where((tau > 1.2) & (tau < 1.6), 0.5, 1.0)

    return ControlProfile(rabi_envelope=env, one_photon_detuning=60.0,
                          switch_on=0.0, switch_off=3.0)


REUSE_CONTROLS = {
    # off, rising edge, plateau, falling edge, off again
    "flat_top": lambda: ControlProfile.flat_top(
        rabi=60.0, detuning=60.0, switch_on=0.5, switch_off=2.5,
        rise_time=0.4),
    "dip": _dipped_control,
}


def _reuse_stage(regime, control, ens=None):
    """A fresh stage of either regime, with a d21 and a d31 spread, and
    its stepper."""
    ens = ens or build_gaussian_ensemble(width=1.0, n_nodes=9,
                                         rule="uniform", width_21=0.3,
                                         n_nodes_21=3)
    probe = ProbeSpec.gaussian(center=1.5, duration=0.4)
    med = MediumSpec(coupling_beta=2.0)
    grid = Grid(n_tau=91, n_z=9, t_end=3.0, length=1.0)
    if regime == "strong":
        state = SimulationState.fresh(grid, ens, control, med,
                                      drive_sign=+1,
                                      boundary=ProbeBoundary(probe))
        return state, advance_strong
    state = WeakState.fresh(grid, ens, control, med, drive_sign=+1,
                            boundary=TildeInput(probe), bandwidth=1.0)
    return state, advance_weak


def _run(state, step, rebuild=False):
    """Step state to the end of its stage; rebuild clears the reused
    step factors before every step."""
    while state.step_index < state.grid.n_tau - 1:
        if rebuild:
            state._factors = None
        step(state)
    return state


def _same_atoms(a, b):
    same = all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("r12", "row", "faces"))
    return same and np.array_equal(getattr(a, "bloch_z", 0.0),
                                   getattr(b, "bloch_z", 0.0))


@pytest.mark.parametrize("control", sorted(REUSE_CONTROLS))
@pytest.mark.parametrize("regime", ["strong", "weak"])
def test_reused_step_factors_equal_rebuilt_ones(regime, control,
                                                monkeypatch):
    module = strongfield if regime == "strong" else weakfield
    builds = []

    def counted(*args):
        builds.append(args[-2:])
        return original(*args)

    original = module._step_factors
    monkeypatch.setattr(module, "_step_factors", counted)
    ctl = REUSE_CONTROLS[control]()
    reused = _run(*_reuse_stage(regime, ctl))
    pairs = list(zip(reused.table.df_half.tolist(),
                     reused.table.df_full.tolist()))
    # the integrals change, repeat, and come back to a pair held before
    changed = [i for i in range(1, len(pairs)) if pairs[i] != pairs[i - 1]]
    assert len(changed) >= 4 and len(changed) < len(pairs) // 2
    assert any(pairs[i] in pairs[:i - 1] for i in changed)
    # one build for the first step and one per change, none per repeat
    assert builds == [pairs[0]] + [pairs[i] for i in changed]
    rebuilt = _run(*_reuse_stage(regime, ctl), rebuild=True)
    assert len(builds) == 1 + len(changed) + len(pairs)
    assert _same_atoms(reused, rebuilt)


@pytest.mark.parametrize("regime", ["strong", "weak"],
                         ids=["strong-copy", "weak-copy"])
def test_other_node_columns_rebuild_the_step_factors(regime):
    # the held set is keyed by the step integrals alone, since a state's
    # ensemble and node columns are fixed for its life; a
    # dataclasses.replace copy with another ensemble (and, in the strong
    # regime, its node columns) starts without the set, so it never reads
    # the factors of the columns it was copied from
    ctl = REUSE_CONTROLS["flat_top"]()
    state, advance = _reuse_stage(regime, ctl)
    for _ in range(40):                 # into the plateau
        advance(state)
    assert state._factors is not None
    other = build_gaussian_ensemble(width=1.5, n_nodes=9, rule="uniform",
                                    width_21=0.5, n_nodes_21=3)
    fields = {"ensemble": other}
    if regime == "strong":
        fields["nodes"] = _reuse_stage(regime, ctl, other)[0].nodes

    def copy():
        atoms = {"r12": state.r12.copy(), "row": state.row.copy(),
                 "faces": state.faces.copy()}
        if regime == "strong":
            atoms["bloch_z"] = state.bloch_z.copy()
        return dataclasses.replace(state, **atoms, **fields)

    reference = _run(copy(), advance, rebuild=True)
    moved = copy()
    assert moved._factors is None
    assert _same_atoms(_run(moved, advance), reference)


def _products_stage(regime, drive_sign, n_node=9, n_z=9):
    """A fresh stage of either regime on a slab of n_node x n_z: storage
    of a probe from zero atoms, or retrieval from random atoms, on a
    Gaussian line with a d31 spread."""
    ens = build_gaussian_ensemble(width=1.0, n_nodes=n_node, rule="uniform")
    ctl = REUSE_CONTROLS["flat_top"]()
    med = MediumSpec(coupling_beta=2.0)
    grid = Grid(n_tau=91, n_z=n_z, t_end=3.0, length=1.0)
    own = {}
    if drive_sign > 0:
        own["boundary"] = (ProbeBoundary if regime == "strong"
                           else TildeInput)(
            ProbeSpec.gaussian(center=1.5, duration=0.4))
    else:
        rng = np.random.default_rng(n_node * n_z)
        theta = rng.uniform(0.0, 0.6, (n_node, n_z))
        phi = rng.uniform(0.0, 2.0 * math.pi, (n_node, n_z))
        own["r12_initial"] = 0.5 * np.sin(theta) * np.exp(1j * phi)
        if regime == "strong":
            own["bloch_z_initial"] = 0.5 * np.cos(theta)
    if regime == "strong":
        state = SimulationState.fresh(grid, ens, ctl, med, drive_sign,
                                      **own)
        state.zeta_scale = 1.0
        return state, advance_strong
    return WeakState.fresh(grid, ens, ctl, med, drive_sign, bandwidth=1.0,
                           **own), advance_weak


def _general_product(weights_shape, shape):
    """A node product that chooses and normalises on every call: the
    general helper weighted_node_sum, written into out."""
    def product(weights, x, out):
        out[...] = weighted_node_sum(weights, x)
    return product


@pytest.mark.parametrize("drive_sign", [+1, -1],
                         ids=["storage", "retrieval"])
@pytest.mark.parametrize("regime", ["strong", "weak"])
def test_chosen_products_step_a_stage_as_the_general_helpers(
        regime, drive_sign, monkeypatch):
    # the state's node sums and Z integrals, chosen once from its shapes
    # and held with their rows, against the same rules chosen on every
    # call: the general node sum weighted_node_sum and an integrator
    # directed anew for each row, on a C-contiguous copy of it.  The same
    # bits of every array a stage keeps.  The slab is the shortest long
    # one, whose node sums are still a BLAS gemv and whose complex rows
    # still integrate by the dense weight matrix, while its real phase
    # row is past the gemv bound
    n_z = stages._LONG_ROW + 1
    state, advance = _products_stage(regime, drive_sign, n_z=n_z)
    directed = CumulativeQuadrature.directed

    def per_call(quadrature, sign, scale=1.0, real=False):
        def integrate(y, out):
            directed(quadrature, sign, scale, real)(
                np.ascontiguousarray(y), out)
        return integrate

    monkeypatch.setattr(CumulativeQuadrature, "directed", per_call)
    monkeypatch.setattr(strongfield, "node_product", _general_product)
    ref, _ = _products_stage(regime, drive_sign, n_z=n_z)
    assert ref.quadrature.weights is not None
    if regime == "weak":
        ref.table_sum = weighted_node_sum
    ref.record(ref.first_row(), 0.0)
    _run(state, advance)
    _run(ref, advance)
    assert _same_atoms(state, ref)
    assert np.array_equal(state.excitation(), ref.excitation())
    assert np.max(np.abs(state.faces)) > 1e-3


@pytest.mark.parametrize("drive_sign", [+1, -1],
                         ids=["storage", "retrieval"])
@pytest.mark.parametrize("regime", ["strong", "weak"])
def test_full_shape_columns_step_a_short_slab_as_node_columns(
        regime, drive_sign, monkeypatch):
    # a short slab repeats each (n_node, 1) step column across Z once per
    # build, so that its products run one loop; every product is
    # elementwise, so the stage keeps the bits of (n_node, 1) columns,
    # also where the control integrals change and the columns are rebuilt
    state, advance = _products_stage(regime, drive_sign)
    ref, _ = _products_stage(regime, drive_sign)
    _run(state, advance)
    monkeypatch.setattr(stages, "_full_shape", lambda factors, shape: factors)
    _run(ref, advance)
    shape = state.r12.shape
    columns = [(a.shape, b.shape) for a, b in zip(state._factors[1],
                                                 ref._factors[1])
               if isinstance(b, np.ndarray) and b.shape == (shape[0], 1)]
    assert columns and all(full == shape for full, _ in columns)
    assert len(columns) == (11 if regime == "strong" else 1)
    assert _same_atoms(state, ref)
    assert np.max(np.abs(state.faces)) > 1e-3


@pytest.mark.parametrize("regime", ["strong", "weak"])
def test_a_stepped_stage_is_freed_by_reference_counting(regime):
    # the closures a state holds capture its buffers, never the state, so
    # dropping the last reference frees it; a state in a reference cycle
    # would wait for the cycle collector, and every stage with it
    state, advance = _products_stage(regime, +1)
    stages.march(state, advance)
    freed = weakref.ref(state)
    gc.disable()
    try:
        del state
        assert freed() is None
    finally:
        gc.enable()


# (n_node, n_z) of a stage whose node sum is exactly at
# one_thread_product's bound: the strong solve's (n_node,) kernel weights
# against the real Bloch z-components, m n = 36 x 128 =
# GEMV_ONE_THREAD_MAX, and against the complex coherences' interleaved
# parts, 36 x (2 x 64), and the weak step's (4, n_node) table against
# them, m n k = 4 x 128 x 256 = GEMM_ONE_THREAD_MAX.  The weak update's
# real gemm, (n_node, 6) by (6, 2 n_z), has m n k = 12 n_node n_z, which
# is never exactly 131,072: at 86 x 127 it is 131,064, and one more node
# or Z point takes it past
BOUND_SLABS = {"real": (36, 128), "complex": (36, 64), "table": (128, 128),
               "update": (86, 127)}


@pytest.mark.parametrize("past", ["at", "node", "z", "saturating"])
@pytest.mark.parametrize("form", sorted(BOUND_SLABS))
def test_stage_binds_a_blas_node_sum_only_within_the_bound(form, past,
                                                          monkeypatch):
    # np.dot's bits exactly at the bound, einsum's one node or one Z
    # point past it and on the saturating case's 33 x 641 slab; for the
    # weak update, the real gemm at the bound and the complex matmul of
    # inner dimension 3 past it
    n_node, n_z = (33, 641) if past == "saturating" else BOUND_SLABS[form]
    n_node += past == "node"
    n_z += past == "z"
    bound = {}

    def noted(weights_shape, shape):
        bound[shape] = node_product(weights_shape, shape)
        return bound[shape]

    monkeypatch.setattr(strongfield, "node_product", noted)
    state, _ = _products_stage(
        "weak" if form in ("table", "update") else "strong", -1, n_node,
        n_z)
    rng = np.random.default_rng(n_node * n_z)
    if form == "update":
        # the step factors carry the update table in the state's form
        assert state.real_update == (past == "at")
        built = state.build_factors(*state.table.row(0)[3:])[2]
        assert (built.shape, built.dtype) == (
            ((n_node, 6), np.float64) if past == "at"
            else ((n_node, 3), np.complex128))
        u, r = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for shape in ((n_node, 3), (3, n_z)))
        table = np.concatenate([u.real, u.imag], axis=1)
        state.rows[-1][...] = r
        got = np.empty((n_node, n_z), dtype=complex)
        state._update(table if state.real_update else u, got)
        dot = np.dot(table, np.concatenate([r, 1j * r]).view(np.float64))
        matmul = np.matmul(u, r)
        assert not np.array_equal(dot.view(complex), matmul)
        assert np.array_equal(got, dot.view(complex) if past == "at"
                              else matmul)
        return
    x = rng.standard_normal((n_node, n_z))
    if form != "real":
        x = x + 1j * rng.standard_normal(x.shape)
    parts = x.view(np.float64)
    if form == "table":
        weights = rng.standard_normal((4, n_node)) / n_node
        got = state.table_sum(weights, x)
        assert got.dtype == x.dtype
        got = got.view(np.float64)
    else:
        weights = state.kernel_weights
        got = np.empty(parts.shape[1])
        bound[parts.shape](weights, parts, out=got)
    dot = np.dot(weights, parts)
    einsum = np.einsum("kj,jz->kz" if form == "table" else "j,jz->z",
                       weights, parts)
    assert not np.array_equal(dot, einsum)
    assert np.array_equal(got, dot if past == "at" else einsum)


@pytest.mark.parametrize("n_z", [DENSE_QUADRATURE_MAX,
                                 DENSE_QUADRATURE_MAX + 1, 641])
def test_stage_binds_the_dense_quadrature_only_within_the_bound(n_z):
    # in either direction, the product of the weights, or of the flipped
    # weights, with the row's (n, 2) parts up to DENSE_QUADRATURE_MAX
    # points, cumulative_integral past it
    state, _ = _products_stage("strong", -1, 3, n_z)
    quadrature = state.quadrature
    rng = np.random.default_rng(n_z)
    y = rng.standard_normal(n_z) + 1j * rng.standard_normal(n_z)
    parts = y.view(np.float64).reshape(n_z, 2)
    for sign in (+1, -1):
        got = np.empty_like(y)
        quadrature.directed(sign)(parts, got.view(np.float64).reshape(n_z, 2))
        banded = cumulative_integral(y[::sign], quadrature.dx)[::sign]
        if n_z > DENSE_QUADRATURE_MAX:
            assert quadrature.weights is None
            assert np.array_equal(got, banded)
            continue
        weights = np.ascontiguousarray(quadrature.weights[::sign, ::sign])
        dense = np.dot(weights, parts).view(complex).ravel()
        assert not np.array_equal(dense, banded)
        assert np.array_equal(got, dense)


# calls one plateau step may make, as sys.setprofile reports them:
# Python frames, and C-level calls of builtin functions and methods
# (ufuncs and operators are not reported).  Python 3.11 with numpy 2.4.6
# counts (28, 25) on recrib_strong's 17 x 17 storage stage and (15, 11)
# on recrib_ideal's 65 x 65.  The bounds leave 3-6 calls for numpy
# versions whose dispatch wrappers add a frame or two
STEP_CALL_BUDGET = {"recrib_strong": (33, 31), "recrib_ideal": (18, 15)}
# ndarray.view calls a strong plateau step may make: one per field row,
# the coherences' float64 parts for their node sum; every other operand
# and result of its products is viewed once per stage
STRONG_STEP_VIEWS = 4
# and a weak one: the coherences' float64 parts for the table sum, and
# the update product's for the real gemm; its field rows integrate the
# kernel row through the parts view held with it
WEAK_STEP_VIEWS = 2


def _step_calls(state, advance):
    """(Python, C-level, ndarray.view) calls of one advance(state)."""
    counts = {"call": 0, "c_call": 0, "view": 0}

    def profile(frame, event, arg):
        if event in counts and arg is not sys.setprofile:
            counts[event] += 1
            counts["view"] += getattr(arg, "__qualname__",
                                      None) == "ndarray.view"

    sys.setprofile(profile)
    try:
        advance(state)
    finally:
        sys.setprofile(None)
    return counts["call"], counts["c_call"], counts["view"]


@pytest.mark.parametrize("name", sorted(STEP_CALL_BUDGET))
def test_a_plateau_step_keeps_its_call_budget(name):
    # the per-call overhead of a short slab's step, counted rather than
    # timed: the storage stage of the shipped scenario, stepped onto its
    # control plateau, where the step reuses its factors and workspace
    scenario = load_scenario(os.path.join(SCENARIO_DIR, f"{name}.ini"))
    stage1, _, med, _ = stage_setups(scenario)
    grid = build_grids(scenario)[0]
    if scenario.run.regime == "strong":
        state = SimulationState.fresh(grid, stage1.ensemble, stage1.control,
                                      med, +1, ProbeBoundary(stage1.probe))
        advance = advance_strong
    else:
        state = WeakState.fresh(grid, stage1.ensemble, stage1.control, med,
                                +1, TildeInput(stage1.probe),
                                bandwidth=stage1.probe.spectral_width)
        advance = advance_weak
    for _ in range(40):
        advance(state)
    python, c_level, views = _step_calls(state, advance)
    max_python, max_c_level = STEP_CALL_BUDGET[name]
    assert python <= max_python and c_level <= max_c_level, (python, c_level)
    assert views <= (STRONG_STEP_VIEWS if scenario.run.regime == "strong"
                     else WEAK_STEP_VIEWS), views


# ---------------------------------------------------------------------------
# storage stage
# ---------------------------------------------------------------------------

def test_storage_counts_field_solves_and_peak_samples(monkeypatch):
    # work, not time: row 0 plus four solves per step (k1 reuses the
    # recorded row), and at most one peak lookup per step
    calls = {"field_row": 0, "peak_rabi": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(weakfield, "field_row",
                        counted("field_row", weakfield.field_row))
    monkeypatch.setattr(ControlProfile, "peak_rabi",
                        counted("peak_rabi", ControlProfile.peak_rabi))
    ens, ctl, probe, med, grid = make_gaussian_setup(n_tau=289, n_z=17,
                                                     n_nodes=17)
    run_weak_storage(probe, ctl, ens, med, grid)
    assert calls["field_row"] == 1 + 4 * (grid.n_tau - 1)
    assert calls["peak_rabi"] <= grid.n_tau - 1


def test_storage_is_linear_in_amplitude():
    ens, ctl, probe, med, grid = make_gaussian_setup(n_tau=289, n_z=33,
                                                     n_nodes=33)
    out1 = run_weak_storage(probe, ctl, ens, med, grid)
    probe2 = ProbeSpec.gaussian(center=12.0, duration=2.0,
                                amplitude_scale=2.0)
    out2 = run_weak_storage(probe2, ctl, ens, med, grid)
    # the field at both faces over the stage and the row at its end,
    # against the field's scale, and the stored coherences double with
    # the input
    field = max(np.max(np.abs(out2.state.faces)),
                np.max(np.abs(out2.state.row)))
    for name, scale in (("faces", field), ("row", field),
                        ("r12", np.max(np.abs(out2.state.r12)))):
        got1, got2 = getattr(out1.state, name), getattr(out2.state, name)
        assert np.max(np.abs(2.0 * got1 - got2)) < LINEARITY_TOL * scale


def test_storage_audit_balances():
    ens, ctl, probe, med, grid = make_gaussian_setup()
    out = run_weak_storage(probe, ctl, ens, med, grid)
    assert out.audit_residual < AUDIT_TOL
    assert 0.0 <= out.transmitted_fraction <= 1.0
    _, photons_in, photons_out = out.state.photons()
    assert photons_out / photons_in == out.transmitted_fraction
    assert stages._held_excitation(out.state) >= 0.0


# shallow slabs transmit much of the probe on purpose here
@pytest.mark.filterwarnings(
    "ignore::ramanecho.errors.IncompleteAbsorptionWarning")
@settings(max_examples=8, deadline=None)
@given(alpha=st.floats(0.5, 6.0), duration=st.floats(1.2, 3.0))
def test_storage_audit_balances_generic(alpha, duration):
    ens = build_gaussian_ensemble(width=1.0, n_nodes=33, rule="uniform")
    ctl = ControlProfile.flat_top(rabi=60.0, detuning=60.0, switch_on=0.0,
                                  switch_off=24.0)
    probe = ProbeSpec.gaussian(center=12.0, duration=duration)
    med = MediumSpec.from_alpha_eff(alpha, line_width_31=1.0, length_L=1.0)
    grid = Grid(n_tau=289, n_z=33, t_end=24.0, length=1.0)
    out = run_weak_storage(probe, ctl, ens, med, grid)
    assert out.audit_residual < AUDIT_TOL
    assert 0.0 <= out.transmitted_fraction <= 1.0


def test_detuning_validity_guard():
    ens = build_gaussian_ensemble(width=5.0, n_nodes=17, rule="uniform")
    ctl = ControlProfile.flat_top(rabi=30.0, detuning=30.0, switch_on=0.0,
                                  switch_off=4.0)
    probe = ProbeSpec.gaussian(center=2.0, duration=0.4)
    med = MediumSpec(coupling_beta=1.0)
    grid = Grid(n_tau=513, n_z=17, t_end=4.0, length=1.0)
    with pytest.raises(WeakFieldViolation):
        run_weak_storage(probe, ctl, ens, med, grid)


def test_probe_stark_validity_guard():
    ens, ctl, _, med, grid = make_gaussian_setup(n_tau=289, n_z=33,
                                                 n_nodes=33)
    loud = ProbeSpec.gaussian(center=12.0, duration=2.0,
                              amplitude_scale=40.0)
    with pytest.raises(WeakFieldViolation):
        run_weak_storage(loud, ctl, ens, med, grid)


# ---------------------------------------------------------------------------
# recall
# ---------------------------------------------------------------------------

def run_recrib_round_trip(grid=None, ens=None):
    base_ens = ens or build_gaussian_ensemble(width=1.0, n_nodes=65,
                                              rule="uniform")
    ctl1 = ControlProfile.flat_top(rabi=60.0, detuning=60.0, switch_on=0.0,
                                   switch_off=24.0)
    probe = ProbeSpec.gaussian(center=12.0, duration=2.0)
    med = MediumSpec.from_alpha_eff(20.0,
                                    line_width_31=base_ens.line_width_31(),
                                    length_L=1.0)
    g = grid or Grid(n_tau=385, n_z=65, t_end=24.0, length=1.0)
    out = run_weak_storage(probe, ctl1, base_ens, med, g)
    protocol = ProtocolConfig(protocol="recrib", t1=12.0, t2=12.0)
    ctl2 = ctl1.time_reversed(anchor=24.0, detuning=-60.0)
    record = recall_weak(out.state, ctl2, protocol, base_ens, med, g,
                         tau_input=out.tau,
                         input_envelope=out.input_envelope,
                         transmitted_fraction=out.transmitted_fraction)
    return out, record


def test_recrib_recall_is_time_reversal():
    out, record = run_recrib_round_trip()
    eps, fid = measure_efficiency(record)
    assert eps > ECHO_EFFICIENCY_FLOOR
    assert fid > ECHO_FIDELITY_FLOOR
    # deep medium: almost nothing leaks through
    assert out.transmitted_fraction < 1e-4
    assert record.extras["audit_residual"] < AUDIT_TOL
    # echo emerges at t2 = f1 t1 / f2 = t1 on the recall clock
    assert abs(record.echo_peak_time - 12.0) < 2.0 * (24.0 / 384)


def test_recall_validates_its_grid():
    # the recall prices its own grid: too few tau points for the node
    # spread, or a Z axis other than the stored state's, is refused
    ens, ctl1, _, med, grid = make_gaussian_setup(n_tau=289, n_z=17,
                                                  n_nodes=17)
    stored = WeakState.fresh(grid, ens, ctl1, med, drive_sign=+1,
                             bandwidth=1.0)
    protocol = ProtocolConfig(protocol="recrib", t1=12.0, t2=12.0)
    ctl2 = ctl1.time_reversed(anchor=24.0, detuning=-60.0)
    tau = grid.tau()
    env = np.zeros_like(tau, dtype=complex)
    coarse = Grid(n_tau=33, n_z=grid.n_z, t_end=grid.t_end, length=1.0)
    with pytest.raises(StepTooCoarse, match="n_tau"):
        recall_weak(stored, ctl2, protocol, ens, med, coarse, tau, env)
    other_z = Grid(n_tau=grid.n_tau, n_z=33, t_end=grid.t_end, length=1.0)
    with pytest.raises(ValidationError, match="Z axis"):
        recall_weak(stored, ctl2, protocol, ens, med, other_z, tau, env)


def test_recall_energy_scales_quadratically():
    # half the input amplitude gives exactly a quarter of the echo energy
    ens = build_gaussian_ensemble(width=1.0, n_nodes=33, rule="uniform")
    grid = Grid(n_tau=289, n_z=33, t_end=24.0, length=1.0)
    _, full = run_recrib_round_trip(grid=grid, ens=ens)
    ctl1 = ControlProfile.flat_top(rabi=60.0, detuning=60.0, switch_on=0.0,
                                   switch_off=24.0)
    probe = ProbeSpec.gaussian(center=12.0, duration=2.0,
                               amplitude_scale=0.5)
    med = MediumSpec.from_alpha_eff(20.0, line_width_31=1.0, length_L=1.0)
    out = run_weak_storage(probe, ctl1, ens, med, grid)
    protocol = ProtocolConfig(protocol="recrib", t1=12.0, t2=12.0)
    ctl2 = ctl1.time_reversed(anchor=24.0, detuning=-60.0)
    half = recall_weak(out.state, ctl2, protocol, ens, med, grid,
                       tau_input=out.tau,
                       input_envelope=out.input_envelope)
    assert abs(half.echo_energy / full.echo_energy - 0.25) < 1e-9
    # the efficiency itself is amplitude independent
    assert abs(measure_efficiency(half)[0]
               - measure_efficiency(full)[0]) < 1e-9


def test_reafc_echo_at_comb_period():
    ens = build_comb_ensemble(spacing=1.0, tooth_width=0.05, n_lines=21,
                              nodes_per_tooth=5)
    center = 1.0
    off1 = center + math.pi
    ctl1 = ControlProfile.flat_top(rabi=120.0, detuning=120.0,
                                   switch_on=0.0, switch_off=off1,
                                   rise_time=0.05)
    probe = ProbeSpec.gaussian(center=center, duration=0.15)
    med = MediumSpec(coupling_beta=42.0)
    grid1 = Grid(n_tau=257, n_z=49, t_end=off1, length=1.0)
    out = run_weak_storage(probe, ctl1, ens, med, grid1)

    protocol = ProtocolConfig(protocol="reafc", t1=math.pi, t2=math.pi, k=1)
    t_end2 = 2.0 * math.pi
    ctl2 = ControlProfile.flat_top(rabi=120.0, detuning=-120.0,
                                   switch_on=0.0, switch_off=t_end2,
                                   rise_time=0.05)
    grid2 = Grid(n_tau=385, n_z=49, t_end=t_end2, length=1.0)
    record = recall_weak(out.state, ctl2, protocol, ens, med, grid2,
                         tau_input=out.tau,
                         input_envelope=out.input_envelope)
    eps, fid = measure_efficiency(record)
    assert eps > 0.5
    assert fid > 0.9
    assert abs(record.echo_peak_time - math.pi) < grid2.dt


RECIPROCITY_TOL = 1e-6          # weak round trip at n_tau 289, 17 x 17
RECIPROCITY_ORDER_DROP = 12.0   # order 4 in n_tau: 16x per halved dt


def _three_gaussians(seed):
    """A smooth complex input: a seeded sum of three complex Gaussians,
    centred in [9, 15] with widths in [1.2, 2]."""
    rng = np.random.default_rng(seed)
    centres, widths = rng.uniform(9.0, 15.0, 3), rng.uniform(1.2, 2.0, 3)
    amplitudes = rng.standard_normal(3) + 1j * rng.standard_normal(3)

    def envelope(t):
        t = np.asarray(t, dtype=float)
        return sum(a * np.exp(-(t - c) ** 2 / (2.0 * w ** 2))
                   for a, c, w in zip(amplitudes, centres, widths))
    return envelope


@pytest.mark.filterwarnings(
    "ignore::ramanecho.errors.IncompleteAbsorptionWarning")
def test_weak_round_trip_is_reciprocal_under_time_reversal():
    # the paper's time reversibility as an oracle: G maps an input to its
    # echo and R x(t) = conj(x(T - t)), so <G x, y> = <x, R G R y> for
    # every pair of inputs, to the stepper's order.  x is taken on the
    # input clock as the analytic envelope, not the input record, which
    # carries the weak record's factor i 1e-3 Delta.  At this depth the
    # slab transmits 20-50% of each input
    t_end = 24.0
    ens = build_gaussian_ensemble(width=1.0, n_nodes=17, rule="uniform")
    ctl1 = ControlProfile.flat_top(rabi=60.0, detuning=60.0, switch_on=0.0,
                                   switch_off=t_end)
    ctl2 = ctl1.time_reversed(anchor=t_end, detuning=-60.0)
    med = MediumSpec.from_alpha_eff(3.0, line_width_31=ens.line_width_31(),
                                    length_L=1.0)
    protocol = ProtocolConfig(protocol="recrib", t1=12.0, t2=12.0)
    x, y = _three_gaussians(1), _three_gaussians(2)

    def echo(envelope, grid):
        out = run_weak_storage(ProbeSpec(envelope=envelope, duration=1.2),
                               ctl1, ens, med, grid)
        record = recall_weak(out.state, ctl2, protocol, ens, med, grid,
                             tau_input=out.tau,
                             input_envelope=out.input_envelope)
        return record.tau_echo, record.echo_envelope

    def residuals(n_tau, reversals):
        """|<G x, y> - <x, R G R y>| / |<G x, y>| with R the time reversal
        followed by each of reversals."""
        grid = Grid(n_tau=n_tau, n_z=17, t_end=t_end, length=1.0)
        tau, gx = echo(x, grid)
        forward = np.trapezoid(gx * np.conj(y(tau)), tau)
        out = []
        for flip in reversals:
            _, gry = echo(lambda t: flip(y(t_end - np.asarray(t))), grid)
            # the clock is uniform from 0 to t_end: reversed, it is t_end - t
            adjoint = np.trapezoid(x(tau) * np.conj(flip(gry[::-1])), tau)
            out.append(abs(forward - adjoint) / abs(forward))
        return out

    (coarse, unconjugated), (fine,) = (residuals(289, (np.conj, np.asarray)),
                                       residuals(577, (np.conj,)))
    assert coarse < RECIPROCITY_TOL
    assert coarse / fine >= RECIPROCITY_ORDER_DROP
    # without the conjugation in R the identity fails at order one
    assert unconjugated > 1.0


# ---------------------------------------------------------------------------
# frequency-domain oracle
# ---------------------------------------------------------------------------

def test_kernel_passivity():
    ens = build_gaussian_ensemble(width=1.0, n_nodes=48)
    kern = SusceptibilityKernel(ens, 0.25, 4.0, eta=0.3)
    omega = np.linspace(-10.0, 10.0, 801)
    assert np.all(kern.D(omega).real >= 0.0)


# eta = 0 is valid: it keeps the nodes undamped, as the integrator does
@pytest.mark.parametrize("name, value", [
    (name, value) for name in ("f_value", "beta", "eta")
    for value in (math.nan, math.inf, -math.inf, 0.0, -1.0)
    if (name, value) != ("eta", 0.0)])
def test_kernel_refuses_bad_numbers(name, value):
    ens = build_gaussian_ensemble(width=1.0, n_nodes=8)
    numbers = {"f_value": 0.25, "beta": 4.0, "eta": 0.3, name: value}
    with pytest.raises(ValidationError, match=name):
        SusceptibilityKernel(ens, **numbers)


def test_monochromatic_transmission_matches_pole_sum():
    # DERIVED: probe much narrower than the damped line reads off
    # exp(-beta f L Re D(0)) directly
    ens = build_gaussian_ensemble(width=1.0, n_nodes=24)
    med = MediumSpec.from_alpha_eff(3.0, line_width_31=1.0, length_L=1.0)
    kern = SusceptibilityKernel(ens, 1.0, med.coupling_beta, eta=0.5)
    probe = ProbeSpec.gaussian(center=0.0, duration=5000.0)
    length = 1.0
    res = analytic_transmission(probe, kern, length,
                                window=(-60000.0, 60000.0), n_time=2 ** 15)
    expected = math.exp(-med.coupling_beta * length * kern.D(0.0).real)
    assert abs(res.ratio - expected) / expected < MONOCHROMATIC_TOL


def test_zero_depth_transmission_is_identity():
    ens = build_gaussian_ensemble(width=1.0, n_nodes=24)
    kern = SusceptibilityKernel(ens, 1.0, 2.0, eta=0.2)
    probe = ProbeSpec.gaussian(center=0.0, duration=1.0)
    res = analytic_transmission(probe, kern, 1e-14, window=(-12.0, 12.0),
                                n_time=2048)
    assert abs(res.ratio - 1.0) < IDENTITY_TOL
    want = probe.sample(res.tau)
    assert np.max(np.abs(res.output - want)) < IDENTITY_TOL


# shallow slabs transmit much of the probe on purpose here
@pytest.mark.filterwarnings(
    "ignore::ramanecho.errors.IncompleteAbsorptionWarning")
@pytest.mark.parametrize("alpha_eff_l", [1.0, 3.0, 10.0])
def test_time_domain_matches_frequency_domain(alpha_eff_l):
    ens, ctl, probe, med, grid = make_gaussian_setup(
        alpha_eff_l=alpha_eff_l, n_tau=513)
    out = run_weak_storage(probe, ctl, ens, med, grid)
    kern = SusceptibilityKernel(ens, 1.0, med.coupling_beta, eta=0.0)
    res = analytic_transmission(probe, kern, grid.length,
                                window=(0.0, 24.0), n_time=4096)
    rel = abs(out.transmitted_fraction - res.ratio) / res.ratio
    assert rel < TIME_FREQ_TOL


def test_comb_transmission_matches_time_domain():
    ens = build_comb_ensemble(spacing=1.0, tooth_width=0.05, n_lines=9,
                              nodes_per_tooth=5)
    ctl = ControlProfile.flat_top(rabi=120.0, detuning=120.0, switch_on=0.0,
                                  switch_off=6.0, rise_time=0.03)
    probe = ProbeSpec.gaussian(center=3.0, duration=0.4)
    med = MediumSpec(coupling_beta=20.0)
    grid = Grid(n_tau=513, n_z=49, t_end=6.0, length=1.0)
    out = run_weak_storage(probe, ctl, ens, med, grid)
    kern = SusceptibilityKernel(ens, 1.0, med.coupling_beta, eta=0.0)
    res = analytic_transmission(probe, kern, grid.length,
                                window=(0.0, 6.0), n_time=4096)
    rel = abs(out.transmitted_fraction - res.ratio) / max(res.ratio, 1e-12)
    assert rel < COMB_TIME_FREQ_TOL
