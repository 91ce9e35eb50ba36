"""Nonlinear integrator tests: exact limits, oracles, and round trips."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramanecho import strongfield
from ramanecho.conditions import (
    ConditionEntry,
    ConditionReport,
    PhaseMatching,
    ProtocolConfig,
)
from ramanecho.core import (
    ControlProfile,
    EnsembleSpec,
    Grid,
    MediumSpec,
    ProbeSpec,
    WEAK_AMPLITUDE_RATIO,
    build_gaussian_ensemble,
    gaussian_envelope,
)
from ramanecho.errors import (
    ConditionsUnmet,
    ControlVanishes,
    DetuningTooSmall,
    IncompleteAbsorptionWarning,
    PhysicalityViolation,
    ValidationError,
)
from ramanecho.numerics import weighted_node_sum
from ramanecho.records import measure_efficiency
from ramanecho.strongfield import (
    ProbeBoundary,
    SimulationState,
    advance_atoms,
    advance_strong,
    field_row,
    handover_wavevector_mismatch,
    run_retrieval,
    run_storage,
)
from ramanecho.weakfield import (
    SusceptibilityKernel,
    analytic_transmission,
    recall_weak,
    run_weak_storage,
)

REDUCTION_TOL = 1e-12           # kernel reduction vs compensated column sums
FIELD_CLOSED_FORM_TOL = 1e-12   # integrating factor vs exact slab solutions
REFINED_FIELD_TOL = 1e-8        # smooth profile vs 4x refined Z reference
ROTATION_TOL = 1e-9             # static detuning must be an exact rotation
RABI_TOL = 1e-6                 # resonant drive vs two-level closed form
AUDIT_TOL = 1e-3                # photon flux vs stored excitation balance
EQUIVALENCE_TOL = 1e-4          # strong vs linear epsilon at weak amplitude
PHASE_TOL = 1e-10               # global input phase must drop out
INVARIANT_SLACK = 1e-8          # Bloch-ball slack on evolved states
ECHO_EFFICIENCY_FLOOR = 0.98    # deep met-conditions recall, weak amplitude
ECHO_FIDELITY_FLOOR = 0.99
SATURATED_FIDELITY_FLOOR = 0.95     # met-conditions recall, saturating drive
CONDITION_IV_GAP = 0.05         # minimum epsilon cost of Delta2 = +Delta1
MISMATCH_CAP = 0.1              # leftover grating wave number must suppress
REFINE_SLACK = 1e-9

DEEP_DELTA = 200.0              # weak-amplitude scenario, alpha_eff L = 20
SAT_DELTA = 20.0                # saturating scenario, alpha_eff L = 500
SAT_DEPTH = 500.0


def single_node(delta21=0.0, delta31=0.0):
    return EnsembleSpec(shape="gaussian", weights=[1.0], delta21s=[delta21],
                        delta31s=[delta31])


def const_control(rabi, detuning, t_end):
    # flat over [0, t_end]: the rise lives outside the simulated window
    return ControlProfile.flat_top(rabi=rabi, detuning=detuning,
                                   switch_on=-t_end, switch_off=2.0 * t_end)


# ---------------------------------------------------------------------------
# ensemble kernels and field rows
# ---------------------------------------------------------------------------

def test_kernel_reduction_matches_compensated_sum():
    # the ensemble kernels field_row sums
    rng = np.random.default_rng(7)
    n_node, n_z = 64, 17
    w = rng.random(n_node)
    w /= w.sum()
    d21 = rng.normal(size=n_node)
    d31 = rng.uniform(-5.0, 5.0, size=n_node)
    ens = EnsembleSpec(shape="gaussian", weights=w, delta21s=d21,
                       delta31s=d31)
    c = 1.0 / (1.0 + ens.delta31s / 50.0)
    r12 = rng.standard_normal((n_node, n_z)) \
        + 1j * rng.standard_normal((n_node, n_z))
    r11 = rng.random((n_node, n_z))
    grid = Grid(n_tau=2, n_z=n_z, t_end=1.0, length=1.0)
    state = SimulationState.fresh(grid, ens, 50.0, drive_sign=+1,
                                  r12_initial=r12, r11_initial=r11)
    b11 = weighted_node_sum(state.kernel_weights, state.r11)
    b12 = weighted_node_sum(state.kernel_weights, state.r12)

    wc = ens.weights * c
    want11 = np.array([math.fsum(wc * r11[:, k]) for k in range(n_z)])
    want12 = np.array(
        [math.fsum(wc * r12[:, k].real) for k in range(n_z)]) \
        + 1j * np.array(
            [math.fsum(wc * r12[:, k].imag) for k in range(n_z)])
    scale11 = np.max(np.abs(want11))
    scale12 = np.max(np.abs(want12))
    assert np.max(np.abs(b11 - want11)) < REDUCTION_TOL * scale11
    assert np.max(np.abs(b12 - want12)) < REDUCTION_TOL * scale12


def _field_test_pieces(n_z=65, beta=4.0, detuning=50.0):
    ens = single_node()
    ctl = const_control(rabi=detuning, detuning=detuning, t_end=1.0)  # f = 1
    med = MediumSpec(coupling_beta=beta, length_L=1.0)
    grid = Grid(n_tau=5, n_z=n_z, t_end=1.0, length=1.0)
    return ens, ctl, med, grid


def test_field_row_no_coherence_no_input_is_zero():
    ens, ctl, med, grid = _field_test_pieces()
    for sgn in (+1, -1):
        state = SimulationState.fresh(grid, ens, ctl.one_photon_detuning,
                                      drive_sign=sgn)
        row = field_row(state, med, ctl, 0.0, 0.0, state.r12, state.r11)
        assert np.all(row == 0)


def test_population_term_keeps_field_magnitude():
    # zero coherence leaves only the dispersive B11 term, which is a pure
    # phase: |zeta| must be flat across the slab in either direction
    ens, ctl, med, grid = _field_test_pieces(beta=12.0)
    zeta0 = 0.3 - 0.4j
    state = SimulationState.fresh(grid, ens, ctl.one_photon_detuning,
                                  drive_sign=+1,
                                  boundary=lambda s, psi, rabi: zeta0)
    row = field_row(state, med, ctl, 0.0, 0.0, state.r12, state.r11)
    assert row[0] == zeta0
    assert np.max(np.abs(np.abs(row) - abs(zeta0))) < FIELD_CLOSED_FORM_TOL

    back = SimulationState.fresh(grid, ens, ctl.one_photon_detuning,
                                 drive_sign=-1,
                                 boundary=lambda s, psi, rabi: zeta0)
    row_b = field_row(back, med, ctl, 0.0, 0.0, back.r12, back.r11)
    assert row_b[-1] == zeta0
    assert np.max(np.abs(np.abs(row_b) - abs(zeta0))) < FIELD_CLOSED_FORM_TOL


def test_single_node_row_matches_closed_form():
    # constant coherence, single node: dZ zeta = a zeta + s is exactly
    # solvable and the quadrature must land on it
    ens, ctl, med, grid = _field_test_pieces(beta=4.0, detuning=50.0)
    z = grid.z()
    r = 0.2 + 0.1j
    for sgn in (+1, -1):
        state = SimulationState.fresh(
            grid, ens, ctl.one_photon_detuning, drive_sign=sgn,
            r12_initial=np.full((1, grid.n_z), r),
            r11_initial=np.ones((1, grid.n_z)))
        a = 0.5j * med.coupling_beta * sgn / ctl.one_photon_detuning
        s = 0.5j * med.coupling_beta * 1.0 * r
        if sgn > 0:
            want = (s / a) * (np.exp(a * z) - 1.0)
        else:
            want = (s / a) * (np.exp(a * (z - grid.length)) - 1.0)
        row = field_row(state, med, ctl, 0.0, 0.0, state.r12, state.r11)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(row - want)) < FIELD_CLOSED_FORM_TOL * scale


def test_short_slab_row_is_linear_in_depth():
    # leading order of the exact solution: zeta(L) = (i beta / 2) f r L
    ens, ctl, med, grid = _field_test_pieces(beta=0.4, detuning=50.0)
    r = 0.2 + 0.1j
    state = SimulationState.fresh(
        grid, ens, ctl.one_photon_detuning, drive_sign=+1,
        r12_initial=np.full((1, grid.n_z), r),
        r11_initial=np.ones((1, grid.n_z)))
    row = field_row(state, med, ctl, 0.0, 0.0, state.r12, state.r11)
    linear = 0.5j * med.coupling_beta * r * grid.length
    a_l = 0.5 * med.coupling_beta / ctl.one_photon_detuning * grid.length
    assert abs(row[-1] - linear) < 0.6 * a_l * abs(linear)


def test_row_matches_refined_z_reference():
    # smooth multi-node profile: the 4th-order quadrature at n_z = 65 must
    # agree with a 4x refined reference on the shared points
    ens = EnsembleSpec(shape="gaussian", weights=[0.1, 0.2, 0.4, 0.2, 0.1],
                       delta21s=np.zeros(5),
                       delta31s=[-4.0, -2.0, 0.0, 2.0, 4.0])
    ctl = const_control(rabi=40.0, detuning=40.0, t_end=1.0)
    med = MediumSpec(coupling_beta=8.0, length_L=1.0)

    def atoms(z):
        phases = np.arange(5)[:, None]
        r12 = (0.3 + 0.2j) * np.exp(-0.5 * z)[None, :] \
            * (1.0 + 0.3 * np.sin(z[None, :] + phases))
        r11 = 0.8 + 0.15 * np.cos(z[None, :] + 0.3 * phases)
        return r12, r11

    rows = {}
    for n_z in (65, 257):
        grid = Grid(n_tau=5, n_z=n_z, t_end=1.0, length=1.0)
        r12, r11 = atoms(grid.z())
        for sgn in (+1, -1):
            state = SimulationState.fresh(
                grid, ens, ctl.one_photon_detuning, drive_sign=sgn,
                boundary=lambda s, psi, rabi: 0.05 + 0.02j,
                r12_initial=r12, r11_initial=r11)
            rows[sgn, n_z] = field_row(state, med, ctl, 0.0, 0.0,
                                       state.r12, state.r11)
    for sgn in (+1, -1):
        coarse = rows[sgn, 65]
        fine = rows[sgn, 257][::4]
        scale = np.max(np.abs(fine))
        assert np.max(np.abs(coarse - fine)) < REFINED_FIELD_TOL * scale


# ---------------------------------------------------------------------------
# atomic stepper: exact limits and the two-level oracle
# ---------------------------------------------------------------------------

def test_free_atom_is_unchanged():
    ens = single_node()
    ctl = ControlProfile.flat_top(rabi=0.0, detuning=50.0, switch_on=-2.0,
                                  switch_off=4.0)
    grid = Grid(n_tau=11, n_z=9, t_end=0.5, length=1.0)
    r12_0 = np.full((1, grid.n_z), 0.2 + 0.05j)
    r11_0 = np.full((1, grid.n_z), 0.7)
    state = SimulationState.fresh(grid, ens, 50.0, drive_sign=+1,
                                  r12_initial=r12_0, r11_initial=r11_0)
    for _ in range(grid.n_tau - 1):
        advance_atoms(state, ctl, grid.dt)
    assert np.array_equal(state.r12, r12_0)
    assert np.array_equal(state.r11, r11_0)


def test_static_detuning_is_exact_rotation():
    d21 = 0.7
    ens = single_node(delta21=d21)
    ctl = ControlProfile.flat_top(rabi=0.0, detuning=50.0, switch_on=-2.0,
                                  switch_off=4.0)
    grid = Grid(n_tau=41, n_z=5, t_end=2.0, length=1.0)
    r12_0 = 0.3 + 0.4j
    state = SimulationState.fresh(
        grid, ens, 50.0, drive_sign=+1,
        r12_initial=np.full((1, grid.n_z), r12_0),
        r11_initial=np.full((1, grid.n_z), 0.5))
    for _ in range(grid.n_tau - 1):
        advance_atoms(state, ctl, grid.dt)
    want = np.exp(-1j * d21 * grid.t_end) * r12_0
    assert np.max(np.abs(state.r12 - want)) < ROTATION_TOL
    assert np.max(np.abs(state.r11 - 0.5)) < ROTATION_TOL


def test_resonant_drive_matches_rabi_oracle():
    # DERIVED oracle: a static d21 = Delta f sits exactly on the composite
    # two-photon resonance, so a constant field Rabi-flops the node:
    # r11 = cos^2(zeta tau), r12 = (i/2) sin(2 zeta tau).  The scales are
    # deliberately extreme (f = 1e6) to prove the stepper's phase handling
    # is exact rather than merely resolved.
    delta, rabi = 1.0e3, 1.0e6
    f_val = (rabi / delta) ** 2
    ens = single_node(delta21=delta * f_val)
    ctl = const_control(rabi=rabi, detuning=delta, t_end=2.0)
    grid = Grid(n_tau=2001, n_z=3, t_end=2.0, length=1.0)
    zeta = 0.5
    state = SimulationState.fresh(grid, ens, delta, drive_sign=+1)
    state.zeta_t[:] = zeta
    state.zeta_scale = zeta
    hist = np.empty(grid.n_tau)
    hist[0] = state.r11[0, 0]
    for k in range(grid.n_tau - 1):
        advance_atoms(state, ctl, grid.dt)
        hist[k + 1] = state.r11[0, 0]
    tau = grid.tau()
    assert np.max(np.abs(hist - np.cos(zeta * tau) ** 2)) < RABI_TOL
    want12 = 0.5j * math.sin(2.0 * zeta * grid.t_end)
    assert abs(state.r12[0, 0] - want12) < RABI_TOL
    # initial motion: absorption lowers r11 and builds +i coherence
    assert hist[5] < hist[0]


@settings(max_examples=10, deadline=None)
@given(amp=st.floats(0.2, 2.0), delta=st.sampled_from([40.0, -40.0]),
       d21=st.floats(-2.0, 2.0), d31=st.floats(0.0, 3.0))
def test_bloch_ball_survives_generic_drive(amp, delta, d21, d31):
    ens = EnsembleSpec(shape="gaussian", weights=[0.25, 0.5, 0.25],
                       delta21s=[d21, 0.0, -d21], delta31s=[-d31, 0.0, d31])
    ctl = const_control(rabi=40.0, detuning=delta, t_end=0.8)
    grid = Grid(n_tau=41, n_z=5, t_end=0.8, length=1.0)
    state = SimulationState.fresh(grid, ens, delta, drive_sign=+1)
    state.zeta_t[:] = amp * (0.6 + 0.8j)
    state.zeta_scale = amp
    for _ in range(grid.n_tau - 1):
        advance_atoms(state, ctl, grid.dt)
    assert np.all(state.r11 >= 0.0)
    assert np.all(state.r11 <= 1.0)
    excess = np.max(np.abs(state.r12) ** 2 - state.r11 * (1.0 - state.r11))
    assert excess <= INVARIANT_SLACK
    # bit for bit the radial projection of the excursions alone, written
    # with boolean gathers and scatters
    rng = np.random.default_rng(11)
    mixed = SimulationState.fresh(Grid(n_tau=5, n_z=257, t_end=1.0,
                                       length=1.0), ens, 50.0,
                                  drive_sign=+1)
    theta = rng.uniform(0.0, math.pi, mixed.r11.shape)
    radius = 0.5 + rng.uniform(-1e-6, 1e-6, mixed.r11.shape)
    mixed.r12[:] = radius * np.sin(theta) * np.exp(
        1j * rng.uniform(0.0, 2.0 * math.pi, theta.shape))
    mixed.r11[:] = 0.5 + radius * np.cos(theta)
    r12, r11 = mixed.r12.copy(), mixed.r11.copy()
    s_z = r11 - 0.5
    norm = np.sqrt(np.abs(r12) ** 2 + s_z ** 2)
    over = norm > 0.5
    assert 0 < np.count_nonzero(over) < over.size
    shrink = 0.5 / norm[over]
    r12[over] *= shrink
    r11[over] = 0.5 + s_z[over] * shrink
    np.clip(r11, 0.0, 1.0, out=r11)
    mixed.assert_physical()
    assert np.array_equal(mixed.r12, r12)
    assert np.array_equal(mixed.r11, r11)


def test_projection_absorbs_truncation_overshoot():
    ens = single_node()
    grid = Grid(n_tau=5, n_z=7, t_end=1.0, length=1.0)
    state = SimulationState.fresh(grid, ens, 50.0, drive_sign=+1)
    state.r11[:] = 1.0 + 5.0e-7
    state.assert_physical()
    assert np.all(state.r11 <= 1.0)
    assert np.all(state.r11 >= 0.0)
    excess = np.max(np.abs(state.r12) ** 2 - state.r11 * (1.0 - state.r11))
    assert excess <= INVARIANT_SLACK


def test_unphysical_state_raises():
    ens = single_node()
    grid = Grid(n_tau=5, n_z=7, t_end=1.0, length=1.0)
    state = SimulationState.fresh(grid, ens, 50.0, drive_sign=+1)
    state.r11[:] = 1.5
    with pytest.raises(PhysicalityViolation):
        state.assert_physical()
    hot = SimulationState.fresh(grid, ens, 50.0, drive_sign=+1)
    hot.r12[:] = 1.0
    with pytest.raises(PhysicalityViolation):
        hot.assert_physical()


def test_live_field_with_control_off_raises():
    ens = single_node()
    ctl = ControlProfile.flat_top(rabi=0.0, detuning=50.0, switch_on=-2.0,
                                  switch_off=4.0)
    grid = Grid(n_tau=5, n_z=7, t_end=1.0, length=1.0)
    state = SimulationState.fresh(grid, ens, 50.0, drive_sign=+1)
    state.zeta_t[:] = 0.1
    state.zeta_scale = 0.1
    with pytest.raises(ControlVanishes):
        advance_atoms(state, ctl, grid.dt)


# ---------------------------------------------------------------------------
# storage drivers
# ---------------------------------------------------------------------------

def _cheap_setup(amplitude_scale=1e-3, alpha_eff_l=10.0):
    ens = build_gaussian_ensemble(width=1.0, n_nodes=17, rule="uniform")
    ctl = ControlProfile.flat_top(rabi=60.0, detuning=60.0, switch_on=0.0,
                                  switch_off=16.0)
    probe = ProbeSpec.gaussian(center=8.0, duration=2.0,
                               amplitude_scale=amplitude_scale)
    med = MediumSpec.from_alpha_eff(alpha_eff_l,
                                    line_width_31=ens.line_width_31(),
                                    length_L=1.0)
    grid = Grid(n_tau=289, n_z=17, t_end=16.0, length=1.0)
    return ens, ctl, probe, med, grid


def test_first_step_solves_its_row_unless_the_package_recorded_it():
    # probe centred on tau = 0, so the input boundary there is O(1): a
    # step that took an unsolved zeta_t[0] for its k1 row would drift
    ens = build_gaussian_ensemble(width=1.0, n_nodes=5, rule="uniform")
    ctl = ControlProfile.flat_top(rabi=60.0, detuning=60.0, switch_on=-2.0,
                                  switch_off=10.0, rise_time=0.5)
    probe = ProbeSpec.gaussian(center=0.0, duration=0.8)
    med = MediumSpec(coupling_beta=2.0, length_L=1.0)
    grid = Grid(n_tau=65, n_z=9, t_end=2.0, length=1.0)
    assert abs(ProbeBoundary(probe)(0.0, 0.0, ctl.rabi(0.0))) > 0.01

    def history(record_row0):
        state = SimulationState.fresh(
            grid, ens, ctl.one_photon_detuning, drive_sign=+1,
            boundary=ProbeBoundary(probe))
        if record_row0:
            state.zeta_t[0] = field_row(state, med, ctl, 0.0, 0.0,
                                        state.r12, state.r11)
        for _ in range(grid.n_tau - 1):
            advance_strong(state, med, ctl, grid.dt)
        return state

    bare, recorded = history(False), history(True)
    assert np.array_equal(bare.r12, recorded.r12)
    assert np.array_equal(bare.r11, recorded.r11)
    assert np.array_equal(bare.zeta_t[1:], recorded.zeta_t[1:])


def test_storage_counts_field_solves_and_peak_samples(monkeypatch):
    # work, not time: row 0 plus four solves per step (k1 reuses the
    # recorded row), and at most one more peak lookup per extra step
    calls = {"field_row": 0, "peak_rabi": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(strongfield, "field_row",
                        counted("field_row", strongfield.field_row))
    monkeypatch.setattr(ControlProfile, "peak_rabi",
                        counted("peak_rabi", ControlProfile.peak_rabi))
    ens, ctl, probe, med, coarse = _cheap_setup()
    peaks = []
    for grid in (coarse, coarse.refined()):
        calls.update(field_row=0, peak_rabi=0)
        run_storage(probe, ctl, ens, med, grid)
        assert calls["field_row"] == 1 + 4 * (grid.n_tau - 1)
        peaks.append(calls["peak_rabi"])
    assert peaks[1] - peaks[0] <= coarse.refined().n_tau - coarse.n_tau


def test_zero_probe_stores_nothing():
    ens, ctl, _, med, grid = _cheap_setup()
    probe = ProbeSpec.gaussian(center=8.0, duration=2.0, amplitude_scale=0.0)
    out = run_storage(probe, ctl, ens, med, grid)
    assert np.all(out.state.zeta_t == 0)
    assert np.all(out.state.r12 == 0)
    assert np.all(out.state.r11 == 1.0)
    assert out.input_photons == 0.0
    assert out.stored_excitation == 0.0
    assert out.transmitted_fraction == 0.0
    assert out.audit_residual == 0.0


def test_probe_tail_outside_control_window_rejected():
    ens, _, probe, med, grid = _cheap_setup()
    short_ctl = ControlProfile.flat_top(rabi=60.0, detuning=60.0,
                                        switch_on=0.0, switch_off=9.0)
    with pytest.raises(ValidationError, match="outside the control window"):
        run_storage(probe, short_ctl, ens, med, grid)


@pytest.mark.parametrize("store", [run_weak_storage, run_storage],
                         ids=["weak", "strong"])
def test_both_regimes_run_the_storage_checks(store):
    ens, ctl, probe, med, grid = _cheap_setup()
    # half of a probe centred on either end of the stage grid is never
    # injected, so an efficiency measured against it would mislead
    for center in (0.0, grid.t_end):
        cut = ProbeSpec.gaussian(center=center, duration=2.0,
                                 amplitude_scale=1e-3)
        with pytest.raises(ValidationError,
                           match="outside the control window"):
            store(cut, ctl, ens, med, grid)
    # bandwidth 1 / 0.1 = 10 needs |Delta| >= 100; the control gives 60
    narrow = ProbeSpec.gaussian(center=8.0, duration=0.1,
                                amplitude_scale=1e-3)
    with pytest.raises(DetuningTooSmall):
        store(narrow, ctl, ens, med, grid)
    shallow = _cheap_setup(alpha_eff_l=1.0)[3]
    with pytest.warns(IncompleteAbsorptionWarning):
        out = store(probe, ctl, ens, shallow, grid)
    assert out.transmitted_fraction > 0.05


def test_strict_mode_gates_on_failing_report():
    ens, ctl, _, med, grid = _cheap_setup()
    stored = SimulationState.fresh(grid, ens, 60.0, drive_sign=+1)
    report = ConditionReport(entries=(
        ConditionEntry(id="iv", residual=2.0, tolerance=1e-9,
                       satisfied=False),))
    protocol = ProtocolConfig(protocol="recrib", t1=8.0, t2=8.0, strict=True)
    ctl2 = ctl.time_reversed(anchor=16.0, detuning=-60.0)
    tau_in = grid.tau()
    with pytest.raises(ConditionsUnmet, match="iv"):
        run_retrieval(stored, ctl2, protocol, ens, med, grid,
                      tau_input=tau_in,
                      input_envelope=gaussian_envelope(8.0, 2.0)(tau_in),
                      conditions=report)


def test_retrieving_empty_state_yields_nothing():
    ens, ctl, _, med, grid = _cheap_setup()
    stored = SimulationState.fresh(grid, ens, 60.0, drive_sign=+1)
    protocol = ProtocolConfig(protocol="recrib", t1=8.0, t2=8.0)
    ctl2 = ctl.time_reversed(anchor=16.0, detuning=-60.0)
    tau_in = grid.tau()
    record = run_retrieval(stored, ctl2, protocol, ens, med, grid,
                           tau_input=tau_in,
                           input_envelope=gaussian_envelope(8.0, 2.0)(tau_in))
    assert record.echo_energy == 0.0
    assert np.all(record.extras["state"].zeta_t == 0)
    eps, _ = measure_efficiency(record)
    assert eps == 0.0


def test_global_input_phase_drops_out():
    # the equations carry an exact U(1) symmetry of the scaled field; a
    # global input phase must come back on the echo and nowhere else,
    # including at visibly nonlinear amplitude
    ens, ctl, _, med, grid = _cheap_setup()
    base = gaussian_envelope(8.0, 2.0)
    protocol = ProtocolConfig(protocol="recrib", t1=8.0, t2=8.0)
    ctl2 = ctl.time_reversed(anchor=16.0, detuning=-60.0)

    def round_trip(phase):
        probe = ProbeSpec(envelope=lambda t: np.exp(1j * phase) * base(t),
                          duration=2.0, amplitude_scale=5.0)
        out = run_storage(probe, ctl, ens, med, grid)
        return run_retrieval(out.state, ctl2, protocol, ens, med, grid,
                             tau_input=out.tau,
                             input_envelope=out.input_envelope)

    plain = round_trip(0.0)
    turned = round_trip(1.234)
    eps0, _ = measure_efficiency(plain)
    eps1, _ = measure_efficiency(turned)
    assert abs(eps1 - eps0) <= PHASE_TOL * eps0
    peak = np.max(np.abs(plain.echo_envelope))
    drift = np.max(np.abs(turned.echo_envelope
                          - np.exp(1.234j) * plain.echo_envelope))
    assert drift <= PHASE_TOL * peak


# ---------------------------------------------------------------------------
# deep weak-amplitude scenario: oracle transmission, audits, equivalence
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def deep_case():
    ens = build_gaussian_ensemble(width=1.0, n_nodes=33, rule="uniform")
    ctl1 = ControlProfile.flat_top(rabi=DEEP_DELTA, detuning=DEEP_DELTA,
                                   switch_on=0.0, switch_off=24.0)
    probe = ProbeSpec.gaussian(center=12.0, duration=2.0,
                               amplitude_scale=1e-3)
    med = MediumSpec.from_alpha_eff(20.0, line_width_31=ens.line_width_31(),
                                    length_L=1.0)
    grid = Grid(n_tau=2049, n_z=129, t_end=24.0, length=1.0)
    out = run_storage(probe, ctl1, ens, med, grid)
    protocol = ProtocolConfig(protocol="recrib", t1=12.0, t2=12.0)
    ctl2 = ctl1.time_reversed(anchor=24.0, detuning=-DEEP_DELTA)
    record = run_retrieval(out.state, ctl2, protocol, ens, med, grid,
                           tau_input=out.tau,
                           input_envelope=out.input_envelope,
                           transmitted_fraction=out.transmitted_fraction)
    weak_out = run_weak_storage(probe, ctl1, ens, med, grid)
    weak_record = recall_weak(weak_out.state, ctl2, protocol, ens, med, grid,
                              tau_input=weak_out.tau,
                              input_envelope=weak_out.input_envelope,
                              transmitted_fraction=weak_out.transmitted_fraction)
    return dict(ens=ens, ctl1=ctl1, ctl2=ctl2, probe=probe, med=med,
                grid=grid, out=out, record=record, weak_out=weak_out,
                weak_record=weak_record)


def test_deep_storage_audit_balances(deep_case):
    assert deep_case["out"].audit_residual < AUDIT_TOL


def test_deep_transmission_bounded_by_linear_oracle(deep_case):
    # at this depth the line-center exponent is unobservable; what leaks
    # is spectral wings, which the frequency-domain oracle prices.  The
    # factor 2 covers the d31-dependent line-shape tilt the linear oracle
    # does not model.
    out, med, ens = deep_case["out"], deep_case["med"], deep_case["ens"]
    kern = SusceptibilityKernel(ensemble=ens, f_value=1.0,
                                beta=med.coupling_beta)
    oracle = analytic_transmission(deep_case["probe"], kern, med,
                                   window=(0.0, 24.0))
    assert out.transmitted_fraction <= \
        math.exp(-20.0) + 2.0 * oracle.ratio + 1e-8
    assert out.transmitted_fraction < 1e-5


def test_met_recall_reverses_deep_storage(deep_case):
    eps, fid = measure_efficiency(deep_case["record"])
    assert eps > ECHO_EFFICIENCY_FLOOR
    assert fid > ECHO_FIDELITY_FLOOR
    assert abs(deep_case["record"].echo_peak_time - 12.0) < 0.05


def test_retrieval_audit_balances(deep_case):
    assert deep_case["record"].extras["audit_residual"] < AUDIT_TOL


def test_strong_matches_linear_at_weak_amplitude(deep_case):
    eps_s, fid_s = measure_efficiency(deep_case["record"])
    eps_w, fid_w = measure_efficiency(deep_case["weak_record"])
    assert abs(eps_s - eps_w) <= EQUIVALENCE_TOL
    assert abs(fid_s - fid_w) <= 10.0 * EQUIVALENCE_TOL


def test_evolved_states_respect_bloch_ball(deep_case):
    for state in (deep_case["out"].state,
                  deep_case["record"].extras["state"]):
        assert np.all(state.r11 >= 0.0)
        assert np.all(state.r11 <= 1.0)
        excess = np.max(np.abs(state.r12) ** 2
                        - state.r11 * (1.0 - state.r11))
        assert excess <= INVARIANT_SLACK


def test_handover_mismatch_map():
    assert handover_wavevector_mismatch(
        ProtocolConfig(protocol="recrib", t1=1.0, t2=1.0)) == 0.0
    matching = PhaseMatching(K1z=1.25, K2z=0.75, omega1=1.0, omega2=1.0)
    got = handover_wavevector_mismatch(
        ProtocolConfig(protocol="recrib", t1=1.0, t2=1.0, matching=matching))
    assert got == 1.5
    matched = PhaseMatching.backward_matched(omega1=1000.0, omega2=980.0)
    resid = handover_wavevector_mismatch(
        ProtocolConfig(protocol="recrib", t1=1.0, t2=1.0, matching=matched))
    assert abs(resid) < 1e-9 * 1000.0


def test_mismatched_handover_suppresses_echo(deep_case):
    # q / alpha_eff = 2 pi: the stored grating no longer radiates into the
    # backward mode and the recall must collapse
    out, med, ens = deep_case["out"], deep_case["med"], deep_case["ens"]
    q = 2.0 * math.pi * 20.0
    matching = PhaseMatching(K1z=0.0, K2z=q, omega1=0.0, omega2=0.0)
    protocol = ProtocolConfig(protocol="recrib", t1=12.0, t2=12.0,
                              matching=matching)
    rec_q = run_retrieval(out.state, deep_case["ctl2"], protocol, ens, med,
                          deep_case["grid"], tau_input=out.tau,
                          input_envelope=out.input_envelope)
    eps_q, _ = measure_efficiency(rec_q)
    eps_met, _ = measure_efficiency(deep_case["record"])
    assert eps_q < MISMATCH_CAP * eps_met


# ---------------------------------------------------------------------------
# saturating scenario: condition iv at amplitude where the probe Stark
# shift is half the probe bandwidth
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def saturating_case():
    ens = build_gaussian_ensemble(width=1.0, n_nodes=33, rule="uniform")
    ctl1 = ControlProfile.flat_top(rabi=SAT_DELTA, detuning=SAT_DELTA,
                                   switch_on=0.0, switch_off=24.0)  # f = 1
    bandwidth = 0.5
    peak_zeta = math.sqrt(0.5 * bandwidth * SAT_DELTA)
    amp = peak_zeta / (WEAK_AMPLITUDE_RATIO * SAT_DELTA)
    probe = ProbeSpec.gaussian(center=12.0, duration=1.0 / bandwidth,
                               amplitude_scale=amp)
    med = MediumSpec.from_alpha_eff(SAT_DEPTH,
                                    line_width_31=ens.line_width_31(),
                                    length_L=1.0)
    # the retrieval validation prices the reshaped field peak (~1.74x the
    # input peak), which is what sets the tau resolution here
    coarse = Grid(n_tau=721, n_z=641, t_end=24.0, length=1.0)
    fine = coarse.refined()
    protocol = ProtocolConfig(protocol="recrib", t1=12.0, t2=12.0)
    met2 = ctl1.time_reversed(anchor=24.0, detuning=-SAT_DELTA)
    broken2 = ctl1.time_reversed(anchor=24.0, detuning=+SAT_DELTA)
    out_f = run_storage(probe, ctl1, ens, med, fine)
    out_c = run_storage(probe, ctl1, ens, med, coarse)
    met_f = run_retrieval(out_f.state, met2, protocol, ens, med, fine,
                          tau_input=out_f.tau,
                          input_envelope=out_f.input_envelope,
                          transmitted_fraction=out_f.transmitted_fraction)
    broken_f = run_retrieval(out_f.state, broken2, protocol, ens, med, fine,
                             tau_input=out_f.tau,
                             input_envelope=out_f.input_envelope,
                             transmitted_fraction=out_f.transmitted_fraction)
    met_c = run_retrieval(out_c.state, met2, protocol, ens, med, coarse,
                          tau_input=out_c.tau,
                          input_envelope=out_c.input_envelope,
                          transmitted_fraction=out_c.transmitted_fraction)
    return dict(out_f=out_f, out_c=out_c, met_f=met_f, broken_f=broken_f,
                met_c=met_c)


def test_saturating_regime_is_nonlinear(saturating_case):
    out = saturating_case["out_f"]
    # populations must really move, otherwise this scenario tests nothing
    assert float(out.state.r11.min()) < 0.1
    assert out.transmitted_fraction < 0.01
    # nonlinear reshaping pushes the internal field past the input peak
    peak_zeta = math.sqrt(0.5 * 0.5 * SAT_DELTA)
    assert out.state.zeta_scale > 1.2 * peak_zeta


def test_condition_iv_controls_saturating_recall(saturating_case):
    eps_met, fid_met = measure_efficiency(saturating_case["met_f"])
    eps_broken, fid_broken = measure_efficiency(saturating_case["broken_f"])
    assert eps_met - eps_broken >= CONDITION_IV_GAP
    assert fid_met >= SATURATED_FIDELITY_FLOOR
    # the same-sign stage-2 detuning garbles the echo it does emit
    assert fid_broken < 0.5
    met_peak = saturating_case["met_f"].echo_peak_time
    assert abs(met_peak - 12.0) < 0.05


def test_refinement_improves_saturating_recall(saturating_case):
    eps_fine, _ = measure_efficiency(saturating_case["met_f"])
    eps_coarse, _ = measure_efficiency(saturating_case["met_c"])
    assert eps_fine >= eps_coarse - REFINE_SLACK


def test_saturating_audits_balance(saturating_case):
    assert saturating_case["out_f"].audit_residual < AUDIT_TOL
    assert saturating_case["met_f"].extras["audit_residual"] < AUDIT_TOL
    assert saturating_case["broken_f"].extras["audit_residual"] < AUDIT_TOL
