"""Recall-condition checkers, solvers, and echo timing."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanecho.conditions import (
    PhaseMatching,
    StageSetup,
    _shared_grid,
    check_strong_conditions,
    check_weak_conditions,
    echo_carrier,
    echo_time_afc,
)
from ramanecho.core import (
    ControlProfile,
    ProbeSpec,
    build_comb_ensemble,
    build_gaussian_ensemble,
)
from ramanecho.errors import NonCausalEcho, ValidationError
from ramanecho.scenario import (
    build_controls,
    build_matching,
    default_scenario,
    stage_setups,
)
from oracles import solve_strong_stage2

ROUND_TRIP_TOL = 1e-12


def make_stage1(rabi=4.0, detuning=40.0, switch_off=10.0, rise=1.0,
                beta=2.0, omega1=1000.0, n_nodes=16, clock_offset=None):
    control = ControlProfile.flat_top(
        rabi=rabi, detuning=detuning, switch_on=0.0, switch_off=switch_off,
        rise_time=rise, carrier=omega1 - detuning)
    ensemble = build_gaussian_ensemble(width=1.0, n_nodes=n_nodes)
    probe = ProbeSpec.gaussian(center=2.0, duration=1.0)
    matching = PhaseMatching.backward_matched(
        omega1=omega1, omega2=omega1 + 2.0 * detuning)
    return StageSetup(
        control=control, ensemble=ensemble, probe=probe, matching=matching,
        beta=beta,
        clock_offset=switch_off if clock_offset is None else clock_offset)


# ---------------------------------------------------------------------------
# strong conditions
# ---------------------------------------------------------------------------

def test_solved_stage_passes_everything():
    stage1 = make_stage1()
    stage2 = solve_strong_stage2(stage1)
    report = check_strong_conditions(stage1, stage2)
    assert report.overall
    for entry in report.entries:
        assert entry.residual <= ROUND_TRIP_TOL
        assert not entry.blocked


def test_solved_stage_parameters():
    stage1 = make_stage1(detuning=5.0, omega1=100.0)
    stage2 = solve_strong_stage2(stage1)
    assert stage2.control.one_photon_detuning == -5.0
    # omega1 + 2 Delta1 f1 with f1 = 4^2 / 5^2
    assert stage2.matching.omega2 == pytest.approx(106.4, abs=1e-12)
    assert stage2.beta == stage1.beta
    # node map flips the detuning axis
    assert np.allclose(np.sort(stage2.ensemble.delta31s),
                       np.sort(-stage1.ensemble.delta31s))


def test_symmetric_envelope_is_self_reversed():
    env = lambda tau: 3.0 * np.exp(-np.asarray(tau) ** 2 / 2.0)
    control = ControlProfile(rabi_envelope=env, one_photon_detuning=30.0,
                             switch_on=-6.0, switch_off=6.0)
    stage1 = make_stage1(clock_offset=0.0)
    stage1 = replace(stage1, control=control, clock_offset=0.0)
    stage2 = solve_strong_stage2(stage1)
    tau = np.linspace(-6.0, 6.0, 301)
    assert np.allclose(np.abs(stage2.control.rabi(tau)),
                       np.abs(control.rabi(tau)), atol=1e-14)


def test_equal_detunings_give_iv_residual_two():
    stage1 = make_stage1()
    stage2 = solve_strong_stage2(stage1)
    broken = replace(
        stage2,
        control=replace(stage2.control,
                        one_photon_detuning=+stage1.control.one_photon_detuning))
    report = check_strong_conditions(stage1, broken)
    entry = report.get("iv")
    assert not entry.satisfied
    assert entry.residual == pytest.approx(2.0, abs=1e-12)
    assert not report.overall


def test_unreversed_asymmetric_envelope_residual_matches_direct_scan():
    # central symmetric peak plus one side bump: the amplitude mismatch
    # dominates the f mismatch, so the reported residual is the plain
    # envelope scan
    def env(tau):
        tau = np.asarray(tau)
        return (np.exp(-tau ** 2 / 0.5)
                + 0.5 * np.exp(-(tau - 3.0) ** 2 / 0.125))

    control = ControlProfile(rabi_envelope=env, one_photon_detuning=40.0,
                             switch_on=-5.0, switch_off=5.0)
    stage1 = make_stage1(clock_offset=0.0)
    stage1 = replace(stage1, control=control, clock_offset=0.0)
    stage2 = solve_strong_stage2(stage1)
    unreversed = replace(stage2, control=replace(
        control, one_photon_detuning=-40.0))

    tau_grid = _shared_grid(stage1, unreversed)
    report = check_strong_conditions(stage1, unreversed)

    om = np.abs(env(tau_grid))
    om_rev = np.abs(env(-tau_grid))
    expected = np.max(np.abs(om - om_rev)) / om.max()
    f_scan = np.max(np.abs(om ** 2 - om_rev ** 2)) / (om.max() ** 2)
    assert expected > f_scan
    assert report.get("ii").residual == pytest.approx(expected, rel=1e-12)
    assert not report.get("ii").satisfied


def test_condition_iii_blocked_until_ii_and_iv_pass():
    stage1 = make_stage1()
    stage2 = solve_strong_stage2(stage1)
    broken = replace(
        stage2,
        control=replace(stage2.control,
                        one_photon_detuning=+stage1.control.one_photon_detuning))
    report = check_strong_conditions(stage1, broken)
    entry = report.get("iii")
    assert entry.blocked
    assert not entry.satisfied
    assert math.isnan(entry.residual)
    assert "blocked" in report.as_text()


def test_report_text_layout():
    stage1 = make_stage1()
    report = check_strong_conditions(stage1, solve_strong_stage2(stage1))
    text = report.as_text()
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[-1] == "overall pass"
    for cid, line in zip(("i", "ii", "iii", "iv"), lines):
        assert line.startswith(cid + " ")
        assert "residual=" in line and "tolerance=" in line
        assert line.endswith("pass")
    assert report.failing_ids() == []


@settings(max_examples=20, deadline=None)
@given(rabi=st.floats(0.5, 10.0), detuning=st.floats(20.0, 200.0),
       switch_off=st.floats(4.0, 20.0), beta=st.floats(0.5, 5.0))
def test_solver_round_trip_property(rabi, detuning, switch_off, beta):
    stage1 = make_stage1(rabi=rabi, detuning=detuning,
                         switch_off=switch_off, rise=0.2 * switch_off,
                         beta=beta)
    report = check_strong_conditions(stage1, solve_strong_stage2(stage1))
    assert report.overall
    assert max(e.residual for e in report.entries) <= ROUND_TRIP_TOL


# ---------------------------------------------------------------------------
# weak conditions
# ---------------------------------------------------------------------------

def test_strong_solution_implies_weak_conditions():
    stage1 = make_stage1()
    stage2 = solve_strong_stage2(stage1)
    report = check_weak_conditions(stage1, stage2, k=0)
    assert report.overall
    assert max(e.residual for e in report.entries) <= ROUND_TRIP_TOL


def test_product_condition_allows_unequal_beta_and_f():
    stage1 = make_stage1(rabi=4.0, detuning=40.0, beta=2.0,
                         clock_offset=10.0)
    base = stage1.control

    def env2(tau):
        return math.sqrt(2.0) * np.abs(base.rabi(10.0 - np.asarray(tau)))

    control2 = ControlProfile(rabi_envelope=env2, one_photon_detuning=-40.0,
                              switch_on=0.0, switch_off=10.0)
    stage2 = StageSetup(control=control2,
                        ensemble=stage1.ensemble.inverted(),
                        matching=stage1.matching, beta=1.0, clock_offset=0.0)
    report = check_weak_conditions(stage1, stage2, k=0)
    entry = report.get("ii'")
    assert entry.satisfied
    assert entry.residual <= ROUND_TRIP_TOL
    # sanity: the raw envelopes really do differ
    assert stage2.beta != stage1.beta


def test_weak_phase_matching_includes_dispersion_term():
    stage1 = make_stage1()
    stage2 = solve_strong_stage2(stage1)
    report = check_weak_conditions(stage1, stage2)
    assert report.get("i'").residual <= ROUND_TRIP_TOL
    # breaking the detuning sign unbalances beta1/Delta1 + beta2/Delta2
    lopsided = replace(
        stage2,
        control=replace(stage2.control, one_photon_detuning=-80.0))
    report2 = check_weak_conditions(stage1, lopsided)
    expected = (stage1.beta / 40.0 + stage2.beta / -80.0) / 1000.0
    assert report2.get("i'").residual == pytest.approx(abs(expected),
                                                       rel=1e-9)


def make_comb_stages(f1=1.0, f2=1.0, spacing=1.0):
    d = 40.0
    c1 = ControlProfile.flat_top(rabi=d * math.sqrt(f1), detuning=d,
                                 switch_on=0.0, switch_off=10.0,
                                 rise_time=0.5)
    c2 = ControlProfile.flat_top(rabi=d * math.sqrt(f2), detuning=d,
                                 switch_on=0.0, switch_off=10.0,
                                 rise_time=0.5)
    ens = build_comb_ensemble(spacing=spacing, tooth_width=0.05, n_lines=5,
                              nodes_per_tooth=3)
    m = PhaseMatching.backward_matched(omega1=1000.0, omega2=1000.0)
    s1 = StageSetup(control=c1, ensemble=ens, matching=m, beta=1.0,
                    clock_offset=10.0)
    s2 = StageSetup(control=c2, ensemble=ens, matching=m, beta=1.0,
                    clock_offset=0.0)
    return s1, s2


def test_comb_rephasing_timing_first_order():
    s1, s2 = make_comb_stages()
    report = check_weak_conditions(s1, s2, k=1, t1=math.pi, t2=math.pi)
    entry = report.get("iii'")
    assert entry.satisfied
    assert entry.residual <= 1e-12


def test_comb_rephasing_second_order_needs_double_period():
    s1, s2 = make_comb_stages()
    good = check_weak_conditions(s1, s2, k=2, t1=2.0 * math.pi,
                                 t2=2.0 * math.pi)
    assert good.get("iii'").satisfied
    bad = check_weak_conditions(s1, s2, k=2, t1=math.pi, t2=math.pi)
    entry = bad.get("iii'")
    assert not entry.satisfied
    assert entry.residual == pytest.approx(1.0, abs=1e-12)


def test_comb_timing_requires_comb_ensemble():
    stage1 = make_stage1()
    stage2 = solve_strong_stage2(stage1)
    with pytest.raises(ValidationError):
        check_weak_conditions(stage1, stage2, k=1, t1=1.0, t2=1.0)


# ---------------------------------------------------------------------------
# echo carrier
# ---------------------------------------------------------------------------

def test_identical_controls_leave_carrier_unchanged():
    c = ControlProfile.flat_top(rabi=4.0, detuning=40.0, switch_on=0.0,
                                switch_off=10.0, rise_time=1.0, carrier=90.0)
    omega2 = echo_carrier(100.0, c, c)
    assert omega2 == pytest.approx(100.0, abs=1e-12)


def test_carrier_conversion_substitution():
    c1 = ControlProfile.flat_top(rabi=4.0, detuning=40.0, switch_on=0.0,
                                 switch_off=10.0, rise_time=1.0, carrier=90.0)
    # shift2 = rabi^2 / detuning = 4 / -40 = -0.1
    c2 = ControlProfile.flat_top(rabi=2.0, detuning=-40.0, switch_on=0.0,
                                 switch_off=10.0, rise_time=1.0, carrier=93.0)
    omega2 = echo_carrier(100.0, c1, c2)
    assert omega2 == pytest.approx(103.5, abs=1e-9)


def test_carrier_conversion_is_linear_in_control_carrier():
    c1 = ControlProfile.flat_top(rabi=4.0, detuning=40.0, switch_on=0.0,
                                 switch_off=10.0, rise_time=1.0, carrier=90.0)
    outs = []
    for cc in (90.0, 91.0, 95.0, 100.0):
        c2 = replace(c1, carrier=cc)
        outs.append(echo_carrier(100.0, c1, c2))
    diffs = np.diff(outs)
    assert np.allclose(diffs, [1.0, 4.0, 5.0], atol=1e-9)


def _quarter_f(**control2):
    """The default scenario at omega1 = 100 with control1 at rabi 30 and
    detuning 60, so f1 = 0.25; control2 mirrors it unless keys say
    otherwise."""
    base = default_scenario()
    return replace(base, control1=replace(base.control1, rabi=30.0),
                   control2=replace(base.control2, **control2),
                   matching=replace(base.matching, omega1=100.0))


def test_every_stage2_path_takes_the_one_echo_carrier_at_f_below_one():
    # omega1 + Delta1 f1 - Delta2 f2 = 100 + 60/4 + 60/4 on a mirrored
    # control2; a rule that leaves out f reads 220
    scenario = _quarter_f()
    ctl1, ctl2 = build_controls(scenario)
    assert ctl1.peak_f() == ctl2.peak_f() == 0.25
    assert echo_carrier(100.0, ctl1, ctl2) == 130.0
    assert build_matching(scenario, ctl1, ctl2).omega2 == 130.0
    stage1 = stage_setups(scenario)[0]
    assert stage1.matching.omega2 == 130.0
    assert solve_strong_stage2(stage1).matching.omega2 == 130.0


@pytest.mark.parametrize("regime", ["weak", "strong"])
def test_constructed_stage2_passes_every_condition_at_f_below_one(regime):
    stage1, stage2, _, proto = stage_setups(_quarter_f())
    solved = solve_strong_stage2(stage1)
    # without a stage-1 matching the checkers read the solved stage's own
    pairs = [(stage1, stage2), (stage1, solved),
             (replace(stage1, matching=None), solved)]
    for first, second in pairs:
        if regime == "strong":
            report = check_strong_conditions(first, second)
        else:
            report = check_weak_conditions(first, second, k=0, t1=proto.t1,
                                           t2=proto.t2)
        assert report.overall, report.as_text()


def test_flat_top_control2_on_the_writing_detuning_keeps_the_carrier():
    # equal Stark shifts Delta f in both stages cancel
    scenario = _quarter_f(mode="flat_top", rabi=30.0, detuning=60.0)
    ctl1, ctl2 = build_controls(scenario)
    assert ctl2.peak_f() == ctl1.peak_f() == 0.25
    assert echo_carrier(100.0, ctl1, ctl2) == 100.0
    assert build_matching(scenario, ctl1, ctl2).omega2 == 100.0


# ---------------------------------------------------------------------------
# echo timing
# ---------------------------------------------------------------------------

def test_echo_time_substitutions():
    assert echo_time_afc(1.0, 1.0, math.pi, 1.0, k=1) == pytest.approx(
        math.pi, abs=1e-15)
    assert echo_time_afc(1.0, 2.0, math.pi, 1.0, k=1) == pytest.approx(
        math.pi / 2.0, abs=1e-15)


def test_echo_time_causality():
    with pytest.raises(NonCausalEcho):
        echo_time_afc(1.0, 1.0, 3.0 * math.pi, 1.0, k=1)
    assert echo_time_afc(1.0, 1.0, 3.0 * math.pi, 1.0, k=2) == pytest.approx(
        math.pi, abs=1e-12)


def test_echo_time_argument_validation():
    with pytest.raises(ValidationError):
        echo_time_afc(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        echo_time_afc(1.0, 1.0, 1.0, -1.0)
    with pytest.raises(ValidationError):
        echo_time_afc(1.0, 1.0, 1.0, 1.0, k=0)
    # an order beyond the float range is refused by name, not by an
    # OverflowError from forming 2 pi k
    with pytest.raises(ValidationError, match="k is too large"):
        echo_time_afc(1.0, 1.0, 1.0, 1.0, k=10 ** 400)
    # an order that is not an integer is refused by name, as
    # ProtocolConfig refuses it: a nan reached int(k) and raised a bare
    # ValueError, an inf an OverflowError
    for k in (math.nan, math.inf, 1.5, 2.0):
        with pytest.raises(ValidationError,
                           match="^k must be an integer >= 1$"):
            echo_time_afc(1.0, 1.0, 1.0, 1.0, k=k)


@pytest.mark.parametrize("f1, f2, t1, spacing", [
    (1.0, 1.0, 1.0, 1e-308),     # 2 pi / spacing overflows
    (1.0, 1e-320, 1.0, 1.0),     # dividing by a subnormal f2 overflows
    (10.0, 1.0, 1e308, 1e-308),  # inf - inf is nan, and nan <= 0 is false
])
def test_echo_time_refuses_a_non_finite_time(f1, f2, t1, spacing):
    with pytest.raises(ValidationError, match="not finite"):
        echo_time_afc(f1, f2, t1, spacing, k=1)


@settings(max_examples=50, deadline=None)
@given(f1=st.floats(0.1, 4.0), f2=st.floats(0.1, 4.0),
       t1=st.floats(0.0, 2.0), spacing=st.floats(0.2, 3.0),
       k=st.integers(1, 4))
def test_echo_time_halving_identity(f1, f2, t1, spacing, k):
    try:
        t2_full = echo_time_afc(f1, f2, t1, spacing, k=k)
        t2_half = echo_time_afc(f1, f2, t1, spacing / 2.0, k=k)
    except NonCausalEcho:
        return
    lhs = t2_half
    rhs = 2.0 * t2_full + f1 * t1 / f2
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# phase matching type
# ---------------------------------------------------------------------------

def test_backward_matched_construction():
    m = PhaseMatching.backward_matched(omega1=100.0, omega2=110.0)
    assert m.K1z == pytest.approx(100.0)
    assert m.K2z == pytest.approx(-110.0)
    assert m.residual() <= 1e-15


def test_phase_matching_validation():
    with pytest.raises(ValidationError):
        PhaseMatching(K1z=1.0, K2z=-1.0, omega1=1.0, omega2=1.0, n1=0.5)
    with pytest.raises(ValidationError):
        PhaseMatching(K1z=1.0, K2z=-1.0, omega1=1.0, omega2=1.0,
                      light_speed=0.0)
