"""Acceptance suite: one test per shipped acceptance criterion.

Each test prints one line with the measured numbers (visible under
`pytest -s`); under `pytest -v` the per-test PASSED/FAILED listing gives
the one-line-per-criterion verdict.  Tolerances are stated next to each
assertion; regression magnitudes marked "frozen" were pinned from the
first converged run of this code base.
"""

import glob
import math
import os
import time

import numpy as np
import pytest

from ramanecho.conditions import (
    PhaseMatching,
    ProtocolConfig,
    StageSetup,
    check_strong_conditions,
    check_weak_conditions,
    echo_time_afc,
)
from ramanecho.core import (
    WEAK_AMPLITUDE_RATIO,
    ControlProfile,
    Grid,
    MediumSpec,
    ProbeSpec,
    build_comb_ensemble,
    build_gaussian_ensemble,
)
from ramanecho.efficiency import RECRIB, REAFC, EfficiencyModel, epsilon, sweep_gamma
from ramanecho.records import centroid, measure_efficiency
from ramanecho.runs import run_scenario
from ramanecho.scenario import (
    build_controls,
    build_ensemble,
    build_grids,
    build_medium,
    build_probe,
    load_scenario,
)
from ramanecho.strongfield import run_retrieval, run_storage
from ramanecho.weakfield import recall_weak, run_weak_storage
from oracles import (
    SusceptibilityKernel,
    analytic_transmission,
    fid_kernel,
    refined,
    solve_strong_stage2,
)

SIG12_REL_TOL = 1e-12           # twelve significant digits
POINT_BUDGET_S = 1e-3           # single closed-form evaluation
SWEEP_BUDGET_S = 5.0            # six traces at step 1e-3
RECALL_BUDGET_S = 120.0         # weak recall incl. 2x refinement
WEAK_EFFICIENCY_FLOOR = 0.98
WEAK_FIDELITY_FLOOR = 0.99
EPS_CONVERGED_TOL = 1e-7        # recall efficiency change under 2x refinement
EQUIVALENCE_TOL = 1e-4          # strong vs weak at amplitude 1e-3
CONDITION_IV_GAP = 0.05         # met-minus-broken efficiency, >= 5 points
SATURATED_FIDELITY_FLOOR = 0.95
FROZEN_REGRESSION_TOL = 2e-3    # saturated-run magnitudes, frozen values
FID_ORACLE_TOL = 1e-4
TRANSMISSION_REL_TOL = 1e-2
AUDIT_TOL = 1e-3
ROUND_TRIP_TOL = 1e-12
TIMING_ALGEBRA_TOL = 1e-12

# frozen from the first converged run (33 nodes, 721 x 641 grid)
SATURATED_MET_EPS = 0.999763
SATURATED_BROKEN_EPS = 0.854129

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")

DEPTHS = (50.0, 200.0, 1000.0)


def report(n, text):
    print(f"criterion {n:02d} pass: {text}")


# ---------------------------------------------------------------------------
# 1. closed-form efficiency point
# ---------------------------------------------------------------------------

def test_criterion_01_closed_form_point_to_twelve_digits():
    model = EfficiencyModel(RECRIB, alpha0L=50.0, gamma_param=0.05)
    want = math.exp(-0.16) * (1.0 - math.exp(-2.5)) ** 2
    got = epsilon(model)
    rel = abs(got - want) / want
    assert rel <= SIG12_REL_TOL
    n = 1000
    t0 = time.perf_counter()
    for _ in range(n):
        epsilon(model)
    per_call = (time.perf_counter() - t0) / n
    assert per_call < POINT_BUDGET_S
    report(1, f"epsilon={got!r} rel_err={rel:.1e} "
              f"per_call={per_call * 1e6:.2f}us")


# ---------------------------------------------------------------------------
# 2. six-trace sweep shape properties
# ---------------------------------------------------------------------------

def test_criterion_02_sweep_trace_shapes_and_speed():
    gamma = np.arange(0, 1001, dtype=float) * 1e-3
    t0 = time.perf_counter()
    traces = {(p, a): sweep_gamma(p, a, gamma)
              for p in (RECRIB, REAFC) for a in DEPTHS}
    elapsed = time.perf_counter() - t0
    assert elapsed < SWEEP_BUDGET_S

    peaks = {}
    for (p, a), table in traces.items():
        eps = table[:, 1]
        assert eps[0] == 0.0
        i = int(np.argmax(eps))
        assert 0 < i < eps.size - 1
        d = np.diff(eps)
        assert np.all(d[:i] > 0)
        assert np.all(d[i:] < 0)
        peaks[(p, a)] = eps[i]
    for p in (RECRIB, REAFC):
        assert peaks[(p, 50.0)] < peaks[(p, 200.0)] < peaks[(p, 1000.0)]
    gaps = [peaks[(REAFC, a)] - peaks[(RECRIB, a)] for a in DEPTHS]
    assert all(g >= 0.0 for g in gaps)
    assert gaps[0] > gaps[1] > gaps[2]
    report(2, f"six traces in {elapsed:.3f}s, peak gaps "
              f"{gaps[0]:.4f} > {gaps[1]:.4f} > {gaps[2]:.4f}")


# ---------------------------------------------------------------------------
# 3. weak-field time reversal at the mandated grid
# ---------------------------------------------------------------------------

def _weak_recall_at(grid):
    ens = build_gaussian_ensemble(width=1.0, n_nodes=129, rule="uniform")
    ctl1 = ControlProfile.flat_top(rabi=60.0, detuning=60.0, switch_on=0.0,
                                   switch_off=24.0)
    probe = ProbeSpec.gaussian(center=12.0, duration=2.0)
    med = MediumSpec.from_alpha_eff(20.0, line_width_31=ens.line_width_31(),
                                    length_L=1.0)
    protocol = ProtocolConfig(protocol="recrib", t1=12.0, t2=12.0)
    ctl2 = ctl1.time_reversed(anchor=24.0, detuning=-60.0)
    out = run_weak_storage(probe, ctl1, ens, med, grid)
    rec = recall_weak(out.state, ctl2, protocol, ens, med, grid,
                      tau_input=out.tau, input_envelope=out.input_envelope,
                      transmitted_fraction=out.transmitted_fraction)
    return measure_efficiency(rec)


def test_criterion_03_weak_recall_floors_and_grid_convergence():
    t0 = time.perf_counter()
    base_grid = Grid(n_tau=513, n_z=129, t_end=24.0, length=1.0)
    eps_base, fid_base = _weak_recall_at(base_grid)
    eps_fine, fid_fine = _weak_recall_at(refined(base_grid))
    elapsed = time.perf_counter() - t0
    assert elapsed < RECALL_BUDGET_S
    assert eps_base >= WEAK_EFFICIENCY_FLOOR
    assert fid_base >= WEAK_FIDELITY_FLOOR
    # the efficiency is grid-converged to nine digits at the mandated
    # floor grid and approaches its limit from above, so the 2x
    # refinement moves it at the 1e-8 level instead of increasing it;
    # the fidelity still converges upward and must increase
    assert abs(eps_fine - eps_base) <= EPS_CONVERGED_TOL
    assert fid_fine > fid_base
    report(3, f"eps={eps_base:.8f} fid={fid_base:.8f} "
              f"d_eps={eps_fine - eps_base:+.1e} "
              f"d_fid={fid_fine - fid_base:+.1e} in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. strong/weak equivalence in the linear limit
# ---------------------------------------------------------------------------

def _deep_linear_setup():
    ens = build_gaussian_ensemble(width=1.0, n_nodes=33, rule="uniform")
    ctl1 = ControlProfile.flat_top(rabi=200.0, detuning=200.0, switch_on=0.0,
                                   switch_off=24.0)
    probe = ProbeSpec.gaussian(center=12.0, duration=2.0,
                               amplitude_scale=1e-3)
    med = MediumSpec.from_alpha_eff(20.0, line_width_31=ens.line_width_31(),
                                    length_L=1.0)
    grid = Grid(n_tau=2049, n_z=129, t_end=24.0, length=1.0)
    protocol = ProtocolConfig(protocol="recrib", t1=12.0, t2=12.0)
    ctl2 = ctl1.time_reversed(anchor=24.0, detuning=-200.0)
    return ens, ctl1, ctl2, probe, med, grid, protocol


def test_criterion_04_linear_limit_equivalence():
    ens, ctl1, ctl2, probe, med, grid, protocol = _deep_linear_setup()
    out_s = run_storage(probe, ctl1, ens, med, grid)
    rec_s = run_retrieval(out_s.state, ctl2, protocol, ens, med, grid,
                          tau_input=out_s.tau,
                          input_envelope=out_s.input_envelope,
                          transmitted_fraction=out_s.transmitted_fraction)
    eps_s, _ = measure_efficiency(rec_s)
    out_w = run_weak_storage(probe, ctl1, ens, med, grid)
    rec_w = recall_weak(out_w.state, ctl2, protocol, ens, med, grid,
                        tau_input=out_w.tau,
                        input_envelope=out_w.input_envelope,
                        transmitted_fraction=out_w.transmitted_fraction)
    eps_w, _ = measure_efficiency(rec_w)
    assert abs(eps_s - eps_w) <= EQUIVALENCE_TOL
    report(4, f"eps_strong={eps_s:.7f} eps_weak={eps_w:.7f} "
              f"|diff|={abs(eps_s - eps_w):.1e}")


# ---------------------------------------------------------------------------
# 5. nonlinearity matters: met vs broken condition iv at saturation
# ---------------------------------------------------------------------------

def test_criterion_05_saturated_reversal_beats_broken_detuning():
    rabi = detuning = 20.0
    probe_bandwidth = 0.5
    # amplitude where the peak probe Stark shift equals half the probe
    # bandwidth: Delta |zeta|^2 / |Omega|^2 = 0.5 * bandwidth
    peak_zeta = math.sqrt(0.5 * probe_bandwidth * detuning)
    amp = peak_zeta / (WEAK_AMPLITUDE_RATIO * detuning)
    assert detuning * peak_zeta ** 2 / rabi ** 2 == pytest.approx(
        0.5 * probe_bandwidth, rel=1e-12)

    ens = build_gaussian_ensemble(width=1.0, n_nodes=33, rule="uniform")
    ctl1 = ControlProfile.flat_top(rabi=rabi, detuning=detuning,
                                   switch_on=0.0, switch_off=24.0)
    probe = ProbeSpec.gaussian(center=12.0, duration=2.0,
                               amplitude_scale=amp)
    med = MediumSpec.from_alpha_eff(500.0,
                                    line_width_31=ens.line_width_31(),
                                    length_L=1.0)
    grid = Grid(n_tau=721, n_z=641, t_end=24.0, length=1.0)
    protocol = ProtocolConfig(protocol="recrib", t1=12.0, t2=12.0)
    met2 = ctl1.time_reversed(anchor=24.0, detuning=-detuning)
    broken2 = ctl1.time_reversed(anchor=24.0, detuning=+detuning)

    out = run_storage(probe, ctl1, ens, med, grid)
    assert np.min(out.state.r11) < 0.5  # genuinely saturated storage
    results = {}
    for tag, ctl2 in (("met", met2), ("broken", broken2)):
        rec = run_retrieval(out.state, ctl2, protocol, ens, med, grid,
                            tau_input=out.tau,
                            input_envelope=out.input_envelope,
                            transmitted_fraction=out.transmitted_fraction)
        results[tag] = measure_efficiency(rec)
    eps_met, fid_met = results["met"]
    eps_broken, _ = results["broken"]
    assert eps_met - eps_broken >= CONDITION_IV_GAP
    assert fid_met >= SATURATED_FIDELITY_FLOOR
    assert eps_met == pytest.approx(SATURATED_MET_EPS,
                                    abs=FROZEN_REGRESSION_TOL)
    assert eps_broken == pytest.approx(SATURATED_BROKEN_EPS,
                                       abs=FROZEN_REGRESSION_TOL)
    report(5, f"eps_met={eps_met:.6f} eps_broken={eps_broken:.6f} "
              f"gap={eps_met - eps_broken:.4f} fid_met={fid_met:.6f}")


# ---------------------------------------------------------------------------
# 6. comb echo timing and period scaling
# ---------------------------------------------------------------------------

def _comb_recall(spacing, n_lines, t_end2, n_tau2):
    ens = build_comb_ensemble(spacing=spacing, tooth_width=0.05,
                              n_lines=n_lines, nodes_per_tooth=5)
    off1 = 1.0 + math.pi
    ctl1 = ControlProfile.flat_top(rabi=120.0, detuning=120.0,
                                   switch_on=0.0, switch_off=off1,
                                   rise_time=0.05)
    probe = ProbeSpec.gaussian(center=1.0, duration=0.15)
    med = MediumSpec(coupling_beta=42.0)
    grid1 = Grid(n_tau=257, n_z=49, t_end=off1, length=1.0)
    t1 = math.pi
    t2 = echo_time_afc(1.0, 1.0, t1, spacing, k=1)
    protocol = ProtocolConfig(protocol="reafc", t1=t1, t2=t2, k=1)
    ctl2 = ControlProfile.flat_top(rabi=120.0, detuning=-120.0,
                                   switch_on=0.0, switch_off=t_end2,
                                   rise_time=0.05)
    grid2 = Grid(n_tau=n_tau2, n_z=49, t_end=t_end2, length=1.0)
    out = run_weak_storage(probe, ctl1, ens, med, grid1)
    rec = recall_weak(out.state, ctl2, protocol, ens, med, grid2,
                      tau_input=out.tau, input_envelope=out.input_envelope,
                      transmitted_fraction=out.transmitted_fraction)
    return t1, t2, centroid(rec.tau_echo, rec.echo_envelope), grid2.dt


def test_criterion_06_comb_echo_centroid_and_period_doubling():
    t1, t2_full, cen_full, dt_full = _comb_recall(1.0, 21,
                                                  2.0 * math.pi, 385)
    assert t2_full == pytest.approx(math.pi, abs=TIMING_ALGEBRA_TOL)
    assert abs(cen_full - t2_full) <= dt_full

    t1, t2_half, cen_half, dt_half = _comb_recall(0.5, 41, 10.5, 865)
    # halving the spacing doubles the rephasing period t1 + t2, exactly
    # in the timing algebra and within grid steps in the simulation
    assert (t1 + t2_half) == pytest.approx(2.0 * (t1 + t2_full),
                                           abs=TIMING_ALGEBRA_TOL)
    assert abs((t1 + cen_half) - 2.0 * (t1 + cen_full)) <= dt_full + dt_half
    report(6, f"centroid at spacing 1 off by {abs(cen_full - t2_full):.4f} "
              f"(step {dt_full:.4f}); period ratio "
              f"{(t1 + cen_half) / (t1 + cen_full):.5f}")


# ---------------------------------------------------------------------------
# 7. free-induction decay oracle
# ---------------------------------------------------------------------------

def test_criterion_07_fid_kernel_matches_gaussian_decay():
    tau = np.linspace(0.0, 4.0, 401)
    worst = 0.0
    for ens in (build_gaussian_ensemble(width=1.0, n_nodes=64),
                build_gaussian_ensemble(width=1.0, n_nodes=129,
                                        rule="uniform")):
        b = fid_kernel(ens, 1.0, tau)
        worst = max(worst, float(np.max(np.abs(np.abs(b)
                                               - np.exp(-tau ** 2 / 2.0)))))
    assert worst < FID_ORACLE_TOL
    report(7, f"max |B12| deviation {worst:.2e} over sigma*tau <= 4")


# ---------------------------------------------------------------------------
# 8. transmission oracle at three depths
# ---------------------------------------------------------------------------

# shallow slabs transmit much of the probe on purpose here
@pytest.mark.filterwarnings(
    "ignore::ramanecho.errors.IncompleteAbsorptionWarning")
def test_criterion_08_transmission_matches_frequency_domain():
    rels = []
    for alpha_eff_l in (1.0, 3.0, 10.0):
        ens = build_gaussian_ensemble(width=1.0, n_nodes=65, rule="uniform")
        ctl = ControlProfile.flat_top(rabi=60.0, detuning=60.0,
                                      switch_on=0.0, switch_off=24.0)
        probe = ProbeSpec.gaussian(center=12.0, duration=2.0)
        med = MediumSpec.from_alpha_eff(alpha_eff_l,
                                        line_width_31=ens.line_width_31(),
                                        length_L=1.0)
        grid = Grid(n_tau=513, n_z=65, t_end=24.0, length=1.0)
        out = run_weak_storage(probe, ctl, ens, med, grid)
        kern = SusceptibilityKernel(ens, 1.0, med.coupling_beta, eta=0.0)
        res = analytic_transmission(probe, kern, grid.length,
                                    window=(0.0, 24.0), n_time=4096)
        rels.append(abs(out.transmitted_fraction - res.ratio) / res.ratio)
    assert max(rels) < TRANSMISSION_REL_TOL
    report(8, "relative errors at depth 1/3/10: "
              + "/".join(f"{r:.1e}" for r in rels))


# ---------------------------------------------------------------------------
# 9. conservation audit on every shipped scenario
# ---------------------------------------------------------------------------

def test_criterion_09_storage_audit_on_all_shipped_scenarios():
    paths = sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.ini")))
    assert paths, "no bundled scenarios found"
    audits = {}
    for path in paths:
        sc = load_scenario(path)
        ens = build_ensemble(sc)
        med = build_medium(sc, ens)
        probe = build_probe(sc)
        ctl1, _ = build_controls(sc)
        grid1, _ = build_grids(sc)
        if sc.run.regime == "strong":
            out = run_storage(probe, ctl1, ens, med, grid1)
        else:
            out = run_weak_storage(probe, ctl1, ens, med, grid1)
        audits[os.path.basename(path)] = out.audit_residual
        assert out.audit_residual <= AUDIT_TOL
    # the scenarios that run to a recall (recrib_broken_iv is strict and
    # refused before storage) must also balance their retrieval audit
    recalls = {}
    for name in ("recrib_ideal.ini", "recrib_strong.ini", "reafc_weak.ini"):
        result = run_scenario(load_scenario(os.path.join(SCENARIO_DIR, name)))
        recalls[name] = result.record.extras["audit_residual"]
        assert recalls[name] <= AUDIT_TOL
    report(9, " ".join(f"{name}:{res:.1e}" for name, res in audits.items())
           + " retrieval " + " ".join(f"{name}:{res:.1e}"
                                      for name, res in recalls.items()))


# ---------------------------------------------------------------------------
# 10. condition checkers: solver round trip, ii' vs ii
# ---------------------------------------------------------------------------

def test_criterion_10_condition_checkers_round_trip_and_cross_terms():
    control1 = ControlProfile.flat_top(rabi=4.0, detuning=40.0,
                                       switch_on=0.0, switch_off=10.0,
                                       rise_time=1.0, carrier=960.0)
    ensemble = build_gaussian_ensemble(width=1.0, n_nodes=16)
    probe = ProbeSpec.gaussian(center=2.0, duration=1.0)
    matching = PhaseMatching.backward_matched(omega1=1000.0, omega2=1080.0)
    stage1 = StageSetup(control=control1, ensemble=ensemble, probe=probe,
                        matching=matching, beta=2.0, clock_offset=10.0)
    stage2 = solve_strong_stage2(stage1)
    strict = check_strong_conditions(stage1, stage2)
    assert strict.overall
    worst = max(e.residual for e in strict.entries)
    assert worst <= ROUND_TRIP_TOL

    # cross-compensated pair: beta2 f2 = beta1 f1 with unequal factors
    def env2(tau):
        return math.sqrt(2.0) * np.abs(control1.rabi(10.0 - np.asarray(tau)))

    control2 = ControlProfile(rabi_envelope=env2, one_photon_detuning=-40.0,
                              switch_on=0.0, switch_off=10.0)
    half_beta = StageSetup(control=control2,
                           ensemble=stage1.ensemble.inverted(),
                           matching=stage1.matching, beta=1.0,
                           clock_offset=0.0)
    weak_report = check_weak_conditions(stage1, half_beta, k=0)
    strong_report = check_strong_conditions(stage1, half_beta)
    product_entry = weak_report.get("ii'")
    envelope_entry = strong_report.get("ii")
    assert product_entry.satisfied
    assert product_entry.residual <= ROUND_TRIP_TOL
    assert not envelope_entry.satisfied
    report(10, f"solver round trip worst residual {worst:.1e}; "
               f"cross-compensation ii' residual "
               f"{product_entry.residual:.1e}, "
               f"strong ii residual {envelope_entry.residual:.3f}")
