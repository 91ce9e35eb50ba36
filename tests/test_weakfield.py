"""Linear-regime integrator and frequency-domain oracle tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramanecho.conditions import ProtocolConfig
from ramanecho import weakfield
from ramanecho.core import (
    ControlProfile,
    Grid,
    MediumSpec,
    ProbeSpec,
    build_comb_ensemble,
    build_gaussian_ensemble,
)
from ramanecho.errors import WeakFieldViolation
from ramanecho.numerics import cumulative_integral
from ramanecho.records import envelope_from_scaled, measure_efficiency
from ramanecho.weakfield import (
    SusceptibilityKernel,
    WeakState,
    advance_weak,
    analytic_transmission,
    fid_kernel,
    field_row,
    recall_weak,
    run_weak_storage,
    tilde_input,
)

FID_TOL = 1e-4                  # impulse-response kernel vs Gaussian decay
ROTATION_TOL = 1e-9             # free evolution must be an exact rotation
SMALL_SLAB_TOL = 1e-7           # single node, no feedback: plain quadrature
LINEARITY_TOL = 1e-10
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
    med = MediumSpec(coupling_beta=1e-12, length_L=1.0)
    grid = Grid(n_tau=161, n_z=5, t_end=4.0, length=1.0)
    state = WeakState.fresh(grid, ens, drive_sign=+1, direction=+1)
    state.r12_t[:] = 1.0
    vals = [np.sum(ens.weights * state.r12_t[:, 0])]
    for _ in range(grid.n_tau - 1):
        advance_weak(state, ens, med, ctl, grid.dt)
        vals.append(np.sum(ens.weights * state.r12_t[:, 0]))
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
    med = MediumSpec(coupling_beta=1e-12, length_L=1.0)
    grid = Grid(n_tau=1025, n_z=5, t_end=8.0, length=1.0)
    boundary = tilde_input(probe, ctl)(grid.tau())
    want = cumulative_integral(boundary, grid.dt)
    got = _node_history(probe, ctl, ens, med, grid)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) < SMALL_SLAB_TOL * scale


def _node_history(probe, ctl, ens, med, grid, record_row0=False):
    state = WeakState.fresh(grid, ens, drive_sign=+1, direction=+1,
                            boundary=tilde_input(probe, ctl))
    if record_row0:
        state.zeta_t[0] = field_row(state, ens, med, ctl, 0.0, state.r12_t)
    hist = [state.r12_t[0, 0]]
    for _ in range(grid.n_tau - 1):
        advance_weak(state, ens, med, ctl, grid.dt)
        hist.append(state.r12_t[0, 0])
    return np.array(hist)


def test_first_step_solves_its_row_unless_the_package_recorded_it():
    # probe centred on tau = 0, so the input boundary there is O(1): a
    # step that took an unsolved zeta_t[0] for its k1 row would drift
    ens = build_gaussian_ensemble(width=1.0, n_nodes=1)
    ctl = ControlProfile.flat_top(rabi=60.0, detuning=60.0, switch_on=-2.0,
                                  switch_off=10.0, rise_time=0.5)
    probe = ProbeSpec.gaussian(center=0.0, duration=0.8)
    med = MediumSpec(coupling_beta=1e-12, length_L=1.0)
    grid = Grid(n_tau=65, n_z=5, t_end=2.0, length=1.0)
    assert abs(tilde_input(probe, ctl)(0.0)) > 0.01
    bare = _node_history(probe, ctl, ens, med, grid)
    recorded = _node_history(probe, ctl, ens, med, grid, record_row0=True)
    assert np.array_equal(bare, recorded)


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
    scale = np.max(np.abs(out2.state.zeta_t))
    diff = np.max(np.abs(2.0 * out1.state.zeta_t - out2.state.zeta_t))
    assert diff < LINEARITY_TOL * scale


def test_storage_audit_balances():
    ens, ctl, probe, med, grid = make_gaussian_setup()
    out = run_weak_storage(probe, ctl, ens, med, grid)
    assert out.audit_residual < AUDIT_TOL
    assert 0.0 <= out.transmitted_fraction <= 1.0
    assert out.stored_excitation >= 0.0


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
    med = MediumSpec(coupling_beta=1.0, length_L=1.0)
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
    record = recall_weak(out.state, protocol, ctl2, base_ens, med, g,
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
    # echo emerges at t2 = f1 t1 / f2 = t1 on the recall clock
    assert abs(record.echo_peak_time - 12.0) < 2.0 * (24.0 / 384)


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
    half = recall_weak(out.state, protocol, ctl2, ens, med, grid,
                       tau_input=out.tau,
                       input_envelope=out.input_envelope)
    assert abs(half.echo_energy / full.echo_energy - 0.25) < 1e-9
    # the efficiency itself is amplitude independent
    assert abs(half.efficiency - full.efficiency) < 1e-9


def test_reafc_echo_at_comb_period():
    ens = build_comb_ensemble(spacing=1.0, tooth_width=0.05, n_lines=21,
                              nodes_per_tooth=5)
    center = 1.0
    off1 = center + math.pi
    ctl1 = ControlProfile.flat_top(rabi=120.0, detuning=120.0,
                                   switch_on=0.0, switch_off=off1,
                                   rise_time=0.05)
    probe = ProbeSpec.gaussian(center=center, duration=0.15)
    med = MediumSpec(coupling_beta=42.0, length_L=1.0)
    grid1 = Grid(n_tau=257, n_z=49, t_end=off1, length=1.0)
    out = run_weak_storage(probe, ctl1, ens, med, grid1)

    protocol = ProtocolConfig(protocol="reafc", t1=math.pi, t2=math.pi,
                              comb_spacing=1.0, k=1)
    t_end2 = 2.0 * math.pi
    ctl2 = ControlProfile.flat_top(rabi=120.0, detuning=-120.0,
                                   switch_on=0.0, switch_off=t_end2,
                                   rise_time=0.05)
    grid2 = Grid(n_tau=385, n_z=49, t_end=t_end2, length=1.0)
    record = recall_weak(out.state, protocol, ctl2, ens, med, grid2,
                         tau_input=out.tau,
                         input_envelope=out.input_envelope)
    eps, fid = measure_efficiency(record)
    assert eps > 0.5
    assert fid > 0.9
    assert abs(record.echo_peak_time - math.pi) < grid2.dt


# ---------------------------------------------------------------------------
# frequency-domain oracle
# ---------------------------------------------------------------------------

def test_kernel_passivity_and_alpha_eff():
    ens = build_gaussian_ensemble(width=1.0, n_nodes=48)
    kern = SusceptibilityKernel(ens, 0.25, 4.0, eta=0.3)
    omega = np.linspace(-10.0, 10.0, 801)
    kern.check_passivity(omega)
    assert np.all(kern.D(omega).real >= 0.0)
    assert kern.alpha_eff > 0.0


def test_monochromatic_transmission_matches_pole_sum():
    # DERIVED: probe much narrower than the damped line reads off
    # exp(-beta f L Re D(0)) directly
    ens = build_gaussian_ensemble(width=1.0, n_nodes=24)
    med = MediumSpec.from_alpha_eff(3.0, line_width_31=1.0, length_L=1.0)
    ctl = ControlProfile.flat_top(rabi=60.0, detuning=60.0,
                                  switch_on=-1e6, switch_off=1e6)
    kern = SusceptibilityKernel(ens, 1.0, med.coupling_beta, eta=0.5)
    probe = ProbeSpec.gaussian(center=0.0, duration=5000.0)
    res = analytic_transmission(probe, kern, med, ctl,
                                window=(-60000.0, 60000.0), n_time=2 ** 15)
    expected = math.exp(-med.coupling_beta * med.length_L
                        * kern.D(0.0).real)
    assert abs(res.ratio - expected) / expected < MONOCHROMATIC_TOL


def test_zero_depth_transmission_is_identity():
    ens = build_gaussian_ensemble(width=1.0, n_nodes=24)
    med = MediumSpec(coupling_beta=2.0, length_L=1e-14)
    ctl = ControlProfile.flat_top(rabi=60.0, detuning=60.0,
                                  switch_on=-100.0, switch_off=100.0)
    kern = SusceptibilityKernel(ens, 1.0, med.coupling_beta, eta=0.2)
    probe = ProbeSpec.gaussian(center=0.0, duration=1.0)
    res = analytic_transmission(probe, kern, med, ctl,
                                window=(-12.0, 12.0), n_time=2048)
    assert abs(res.ratio - 1.0) < IDENTITY_TOL
    want = probe.sample(res.tau)
    assert np.max(np.abs(res.output - want)) < IDENTITY_TOL


@pytest.mark.parametrize("alpha_eff_l", [1.0, 3.0, 10.0])
def test_time_domain_matches_frequency_domain(alpha_eff_l):
    ens, ctl, probe, med, grid = make_gaussian_setup(
        alpha_eff_l=alpha_eff_l, n_tau=513)
    out = run_weak_storage(probe, ctl, ens, med, grid)
    kern = SusceptibilityKernel(ens, 1.0, med.coupling_beta, eta=0.0)
    res = analytic_transmission(probe, kern, med, ctl, window=(0.0, 24.0),
                                n_time=4096)
    rel = abs(out.transmitted_fraction - res.ratio) / res.ratio
    assert rel < TIME_FREQ_TOL


def test_comb_transmission_matches_time_domain():
    ens = build_comb_ensemble(spacing=1.0, tooth_width=0.05, n_lines=9,
                              nodes_per_tooth=5)
    ctl = ControlProfile.flat_top(rabi=120.0, detuning=120.0, switch_on=0.0,
                                  switch_off=6.0, rise_time=0.03)
    probe = ProbeSpec.gaussian(center=3.0, duration=0.4)
    med = MediumSpec(coupling_beta=20.0, length_L=1.0)
    grid = Grid(n_tau=513, n_z=49, t_end=6.0, length=1.0)
    out = run_weak_storage(probe, ctl, ens, med, grid)
    kern = SusceptibilityKernel(ens, 1.0, med.coupling_beta, eta=0.0)
    res = analytic_transmission(probe, kern, med, ctl, window=(0.0, 6.0),
                                n_time=4096)
    rel = abs(out.transmitted_fraction - res.ratio) / max(res.ratio, 1e-12)
    assert rel < COMB_TIME_FREQ_TOL
