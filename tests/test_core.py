"""Domain types and ensemble builders."""

import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramanecho.conditions import PhaseMatching, ProtocolConfig, StageSetup
from ramanecho.core import (
    ControlProfile,
    EnsembleSpec,
    Grid,
    MediumSpec,
    ProbeSpec,
    build_comb_ensemble,
    build_gaussian_ensemble,
    gaussian_envelope,
    raised_cosine_envelope,
)
from ramanecho.errors import (
    EvenLineCount,
    NonPositiveWidth,
    StepTooCoarse,
    TooFewNodes,
    UnresolvedComb,
    ValidationError,
)
from ramanecho import numerics
from ramanecho.numerics import (
    DENSE_QUADRATURE_MAX,
    GEMV_ONE_THREAD_MAX,
    CumulativeQuadrature,
    cumulative_integral,
    one_thread_product,
    weighted_node_sum,
)
from ramanecho.strongfield import SimulationState
from oracles import forward_quadrature, refined

WEIGHT_SUM_TOL = 1e-10
MOMENT_TOL = 1e-6
UNIFORM_MOMENT_TOL = 1e-3
SYMMETRY_TOL = 1e-12
RATIO_TOL = 1e-4


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------

def truncated_gaussian_second_moment(width, cut=5.0, n=100_000):
    """Second moment of a Gaussian truncated at +-cut sigma, by fine
    trapezoidal quadrature."""
    x = np.linspace(-cut * width, cut * width, n)
    g = np.exp(-x ** 2 / (2.0 * width ** 2))
    return np.trapezoid(x ** 2 * g, x) / np.trapezoid(g, x)


def tooth_envelope_overlap(center, tooth_width, envelope_width, n=200_000):
    """Overlap integral of one comb tooth with the comb envelope."""
    x = np.linspace(center - 12 * tooth_width, center + 12 * tooth_width, n)
    tooth = np.exp(-(x - center) ** 2 / (2.0 * tooth_width ** 2))
    env = np.exp(-x ** 2 / (2.0 * envelope_width ** 2))
    return np.trapezoid(tooth * env, x)


# ---------------------------------------------------------------------------
# gaussian ensembles
# ---------------------------------------------------------------------------

def test_single_node_is_degenerate_delta():
    ens = build_gaussian_ensemble(width=1.0, n_nodes=1)
    assert (ens.delta21s.tolist(), ens.delta31s.tolist(),
            ens.weights.tolist()) == ([0.0], [0.0], [1.0])


def test_gauss_hermite_moments():
    ens = build_gaussian_ensemble(width=1.0, n_nodes=64)
    assert abs(ens.weights.sum() - 1.0) <= WEIGHT_SUM_TOL
    second = float(np.sum(ens.weights * ens.delta31s ** 2))
    assert abs(second - 1.0) <= MOMENT_TOL


def test_uniform_truncated_second_moment_matches_fine_reference():
    ens = build_gaussian_ensemble(width=2.0, n_nodes=129, rule="uniform")
    second = float(np.sum(ens.weights * ens.delta31s ** 2))
    assert abs(second - 4.0) / 4.0 <= UNIFORM_MOMENT_TOL
    reference = truncated_gaussian_second_moment(2.0)
    assert abs(second - reference) / reference <= 1e-4
    assert np.max(np.abs(ens.delta31s)) <= 10.0 + 1e-12


def test_gaussian_ensemble_rejects_bad_inputs():
    with pytest.raises(NonPositiveWidth):
        build_gaussian_ensemble(width=0.0, n_nodes=8)
    with pytest.raises(TooFewNodes):
        build_gaussian_ensemble(width=1.0, n_nodes=2)
    with pytest.raises(ValidationError):
        build_gaussian_ensemble(width=1.0, n_nodes=8, rule="simpson")


@settings(max_examples=30, deadline=None)
@given(width=st.floats(0.05, 20.0),
       n_nodes=st.integers(3, 80),
       rule=st.sampled_from(["gausshermite", "uniform"]))
def test_gaussian_ensemble_invariants(width, n_nodes, rule):
    ens = build_gaussian_ensemble(width=width, n_nodes=n_nodes, rule=rule)
    assert abs(ens.weights.sum() - 1.0) <= WEIGHT_SUM_TOL
    mean = float(np.sum(ens.weights * ens.delta31s))
    assert abs(mean) <= 1e-8 * width
    assert np.all(np.diff(ens.delta31s) >= 0)
    assert np.all(ens.weights >= 0)


def test_tensor_product_with_raman_line():
    ens = build_gaussian_ensemble(width=1.0, n_nodes=8,
                                  width_21=0.3, n_nodes_21=4)
    assert ens.n_nodes == 32
    assert abs(ens.weights.sum() - 1.0) <= WEIGHT_SUM_TOL
    second21 = float(np.sum(ens.weights * ens.delta21s ** 2))
    assert abs(second21 - 0.09) <= 1e-8


# ---------------------------------------------------------------------------
# comb ensembles
# ---------------------------------------------------------------------------

def teeth(ens):
    """Each node's tooth index, read off its detuning and the spacing."""
    return np.rint(ens.delta31s / ens.comb_spacing)


def test_delta_comb_has_equal_weights():
    ens = build_comb_ensemble(spacing=1.0, tooth_width=1e-6, n_lines=5,
                              nodes_per_tooth=1)
    assert ens.n_nodes == 5
    assert np.allclose(ens.weights, 0.2, atol=1e-12)
    assert teeth(ens).tolist() == [-2, -1, 0, 1, 2]
    assert np.allclose(ens.delta31s, [-2, -1, 0, 1, 2], atol=1e-5)


def test_comb_weight_symmetry():
    ens = build_comb_ensemble(spacing=1.0, tooth_width=0.05, n_lines=7,
                              nodes_per_tooth=5, envelope_width=2.5)
    assert abs(ens.weights.sum() - 1.0) <= WEIGHT_SUM_TOL
    for n in range(1, 4):
        w_plus = ens.weights[teeth(ens) == n].sum()
        w_minus = ens.weights[teeth(ens) == -n].sum()
        assert abs(w_plus - w_minus) <= SYMMETRY_TOL


def test_adjacent_tooth_weight_ratio_matches_overlap_integral():
    spacing, tooth_width, env_width = 1.0, 0.05, 2.0
    ens = build_comb_ensemble(spacing=spacing, tooth_width=tooth_width,
                              n_lines=5, nodes_per_tooth=7,
                              envelope_width=env_width)
    w0 = ens.weights[teeth(ens) == 0].sum()
    w1 = ens.weights[teeth(ens) == 1].sum()
    expected = (tooth_envelope_overlap(spacing, tooth_width, env_width)
                / tooth_envelope_overlap(0.0, tooth_width, env_width))
    assert abs(w1 / w0 - expected) / expected <= RATIO_TOL


def test_comb_rejects_bad_inputs():
    with pytest.raises(EvenLineCount):
        build_comb_ensemble(spacing=1.0, tooth_width=0.05, n_lines=4)
    with pytest.raises(UnresolvedComb):
        build_comb_ensemble(spacing=1.0, tooth_width=0.3, n_lines=5)
    with pytest.raises(NonPositiveWidth):
        build_comb_ensemble(spacing=-1.0, tooth_width=0.05, n_lines=5)


# ---------------------------------------------------------------------------
# ensemble spec behavior
# ---------------------------------------------------------------------------

def test_weight_normalization_enforced():
    with pytest.raises(ValidationError):
        EnsembleSpec(weights=[0.6, 0.6],
                     delta21s=[0.0, 0.0], delta31s=[-1.0, 1.0])


def test_raman_detunings_compose_both_lines():
    ens = EnsembleSpec(weights=[0.5, 0.5],
                       delta21s=[0.2, -0.2], delta31s=[-1.0, 1.0])
    dr = ens.raman_detunings(f_value=0.25)
    assert np.allclose(dr, [0.2 - 0.25, -0.2 + 0.25], atol=1e-15)


def test_inverted_flips_signs_and_comb_indices():
    ens = build_comb_ensemble(spacing=1.0, tooth_width=0.05, n_lines=5,
                              nodes_per_tooth=3, envelope_width=2.0)
    flipped = ens.inverted()
    assert np.allclose(np.sort(flipped.delta31s), np.sort(-ens.delta31s))
    assert abs(flipped.weights.sum() - 1.0) <= WEIGHT_SUM_TOL
    again = flipped.inverted()
    assert np.allclose(np.sort(again.delta31s), np.sort(ens.delta31s))


def _node_by_node_gaussian(width, n_nodes, rule, width_21, n_nodes_21):
    """Reference builder: the same quadrature node by node in Python loops
    (nodes as (delta31, delta21, weight) tuples)."""
    if n_nodes == 1:
        d31, w31 = np.array([0.0]), np.array([1.0])
    elif rule == "gausshermite":
        x, w = np.polynomial.hermite.hermgauss(n_nodes)
        d31, w31 = x * math.sqrt(2.0) * width, w / math.sqrt(math.pi)
    else:
        d31 = np.linspace(-5.0 * width, 5.0 * width, n_nodes)
        w31 = np.exp(-d31 ** 2 / (2.0 * width ** 2))
        w31 = w31 / w31.sum()
    if width_21 > 0 and n_nodes_21 > 1:
        x, w = np.polynomial.hermite.hermgauss(n_nodes_21)
        d21, w21 = x * math.sqrt(2.0) * width_21, w / math.sqrt(math.pi)
    else:
        d21, w21 = np.array([0.0]), np.array([1.0])
    nodes = sorted(((float(b), float(a), float(wa * wb))
                    for b, wb in zip(d31, w31) for a, wa in zip(d21, w21)),
                   key=lambda nd: nd[:2])
    total = sum(node[2] for node in nodes)
    return [(b, a, w / total) for b, a, w in nodes]


def _node_by_node_comb(spacing, tooth_width, n_lines, nodes_per_tooth,
                       envelope_width):
    if nodes_per_tooth == 1:
        local_d, local_w = np.array([0.0]), np.array([1.0])
    else:
        x, w = np.polynomial.hermite.hermgauss(nodes_per_tooth)
        local_d = x * math.sqrt(2.0) * tooth_width
        local_w = w / math.sqrt(math.pi)
    half = (n_lines - 1) // 2
    nodes = []
    for n in range(-half, half + 1):
        center = n * spacing
        for d, w in zip(local_d, local_w):
            env = 1.0 if math.isinf(envelope_width) else math.exp(
                -(center + d) ** 2 / (2.0 * envelope_width ** 2))
            nodes.append((float(center + d), 0.0, float(env * w)))
    total = sum(node[2] for node in nodes)
    return [(b, a, w / total)
            for b, a, w in sorted(nodes, key=lambda nd: nd[:2])]


def _node_table(ens):
    return list(zip(ens.delta31s.tolist(), ens.delta21s.tolist(),
                    ens.weights.tolist()))


@pytest.mark.parametrize("kw", [
    dict(width=1.0, n_nodes=1, rule="uniform", width_21=0.0, n_nodes_21=1),
    dict(width=1.0, n_nodes=65, rule="uniform", width_21=0.0, n_nodes_21=1),
    dict(width=0.7, n_nodes=8, rule="gausshermite", width_21=0.3,
         n_nodes_21=4),
    dict(width=1.0, n_nodes=9, rule="uniform", width_21=0.3, n_nodes_21=3)])
def test_gaussian_builder_matches_node_by_node_reference(kw):
    # same products, same sort, same summation order: bit for bit
    ens = build_gaussian_ensemble(**kw)
    assert _node_table(ens) == _node_by_node_gaussian(**kw)
    flipped = [(-b, -a, w) for b, a, w in _node_table(ens)]
    assert _node_table(ens.inverted()) == flipped


# the last case's outer Gauss-Hermite nodes reach into the neighbouring
# teeth, so sorting reorders the nodes and the summation order shows
@pytest.mark.parametrize(
    "n_lines,tooth_width,nodes_per_tooth,envelope_width", [
    (5, 0.05, 1, math.inf), (21, 0.05, 5, math.inf), (5, 0.05, 3, 2.0),
    (21, 0.05, 7, 4.0), (9, 0.24, 16, math.inf)])
def test_comb_builder_matches_node_by_node_reference(
        n_lines, tooth_width, nodes_per_tooth, envelope_width):
    kw = dict(spacing=1.0, tooth_width=tooth_width, n_lines=n_lines,
              nodes_per_tooth=nodes_per_tooth, envelope_width=envelope_width)
    ens = build_comb_ensemble(**kw)
    assert _node_table(ens) == _node_by_node_comb(**kw)
    assert ens.comb_spacing == 1.0
    flipped = [(-b, -a, w) for b, a, w in _node_table(ens)]
    assert _node_table(ens.inverted()) == flipped


# ---------------------------------------------------------------------------
# medium
# ---------------------------------------------------------------------------

def test_from_alpha_eff_round_trips():
    length = 2.0
    med = MediumSpec.from_alpha_eff(alpha_eff_L=20.0, line_width_31=1.0,
                                    length_L=length)
    # alpha0 = beta sqrt(pi/2) / width for a Gaussian 31 line of width 1
    alpha0 = med.coupling_beta * math.sqrt(math.pi / 2.0) / 1.0
    assert alpha0 * length == pytest.approx(20.0, rel=1e-12)


# ---------------------------------------------------------------------------
# non-finite values
# ---------------------------------------------------------------------------

def _control(**kw):
    args = dict(rabi_envelope=lambda tau: tau, one_photon_detuning=10.0,
                switch_on=0.0, switch_off=1.0)
    return ControlProfile(**{**args, **kw})


def _phase_matching(**kw):
    return PhaseMatching(**{**dict(K1z=1.0, K2z=-1.0, omega1=1.0,
                                   omega2=1.0), **kw})


def _one_node(**kw):
    return EnsembleSpec(**{**dict(weights=[1.0], delta21s=[0.0],
                                  delta31s=[0.0]), **kw})


# every frozen dataclass refuses a nan or infinite number, naming the field
NON_FINITE_FIELDS = {
    "coupling_beta": lambda v: MediumSpec(coupling_beta=v),
    "t_end": lambda v: Grid(n_tau=11, n_z=11, t_end=v, length=1.0),
    "length": lambda v: Grid(n_tau=11, n_z=11, t_end=1.0, length=v),
    "duration": lambda v: ProbeSpec.gaussian(center=0.0, duration=v),
    "amplitude_scale": lambda v: ProbeSpec.gaussian(
        center=0.0, duration=1.0, amplitude_scale=v),
    "carrier": lambda v: _control(carrier=v),
    "one_photon_detuning": lambda v: ControlProfile.flat_top(
        rabi=1.0, detuning=v, switch_on=0.0, switch_off=1.0),
    "switch_on": lambda v: _control(switch_on=v),
    "switch_off": lambda v: _control(switch_off=v),
    "weights": lambda v: _one_node(weights=[v]),
    "delta21s": lambda v: _one_node(delta21s=[v]),
    "delta31s": lambda v: _one_node(delta31s=[v]),
    "comb_spacing": lambda v: _one_node(comb_spacing=v),
    "t1": lambda v: ProtocolConfig("recrib", t1=v),
    "t2": lambda v: ProtocolConfig("recrib", t2=v),
    "gap_time": lambda v: ProtocolConfig("recrib", gap_time=v),
    "omega1": lambda v: _phase_matching(omega1=v),
    "light_speed": lambda v: _phase_matching(light_speed=v),
    "beta": lambda v: StageSetup(control=_control(), ensemble=_one_node(),
                                 beta=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(NON_FINITE_FIELDS))
def test_dataclasses_refuse_non_finite_fields(name, value):
    with pytest.raises(ValidationError, match=f"^{name} must be finite"):
        NON_FINITE_FIELDS[name](value)


# a grid's point counts and the comb's rephasing order are integers,
# refused by name otherwise: a nan n_z passed n_z >= 2 and gave a nan dz,
# an n_tau of 3.5 failed later in tau() with a bare TypeError, and a nan
# k failed in expected_echo_time with a bare ValueError
NON_INTEGER_FIELDS = {
    "n_tau": lambda v: Grid(n_tau=v, n_z=5, t_end=1.0, length=1.0),
    "n_z": lambda v: Grid(n_tau=5, n_z=v, t_end=1.0, length=1.0),
    "k": lambda v: ProtocolConfig("reafc", t1=1.0, k=v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, 3.5, 1.5])
@pytest.mark.parametrize("name", sorted(NON_INTEGER_FIELDS))
def test_dataclasses_refuse_non_integer_counts(name, value):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer"):
        NON_INTEGER_FIELDS[name](value)


# the protocol's times, storage dwell, recall window and dark interval,
# are durations: a negative one is refused by name
@pytest.mark.parametrize("name", ["t1", "t2", "gap_time"])
def test_protocol_refuses_negative_times(name):
    with pytest.raises(ValidationError, match=f"^{name} must be >= 0$"):
        ProtocolConfig("recrib", **{name: -1.0})


# every ensemble builder refuses a non-finite width by name: a nan
# width_21 built no d21 spread, a nan envelope_width the flat comb, and
# a nan width was refused only by EnsembleSpec, as "delta31s must be
# finite"; an infinite envelope_width is the flat comb, the default
NON_FINITE_WIDTHS = {
    "width": lambda v: build_gaussian_ensemble(width=v, n_nodes=3),
    "width_21": lambda v: build_gaussian_ensemble(
        width=1.0, n_nodes=3, width_21=v, n_nodes_21=3),
    "spacing": lambda v: build_comb_ensemble(spacing=v, tooth_width=0.05,
                                             n_lines=3),
    "tooth_width": lambda v: build_comb_ensemble(spacing=1.0,
                                                 tooth_width=v, n_lines=3),
    "envelope_width": lambda v: build_comb_ensemble(
        spacing=1.0, tooth_width=0.05, n_lines=3, envelope_width=v),
}


@pytest.mark.parametrize("name, value", [
    (name, value) for name in sorted(NON_FINITE_WIDTHS)
    for value in (math.nan, math.inf, -math.inf)
    if (name, value) != ("envelope_width", math.inf)])
def test_ensemble_builders_refuse_non_finite_widths(name, value):
    with pytest.raises((ValidationError, NonPositiveWidth),
                       match=f"^{name} must be "):
        NON_FINITE_WIDTHS[name](value)


# a width whose square underflows to 0 or overflows is refused by name
# before numpy divides by that square: the uniform rule printed a
# RuntimeWarning and then failed as "weights must be finite", the
# Gauss-Hermite rule built subnormal nodes, the comb envelope divided by
# zero, and an overflowing square raised a bare OverflowError
UNSQUARABLE_WIDTHS = {
    ("width", "uniform"): lambda v: build_gaussian_ensemble(
        width=v, n_nodes=3, rule="uniform"),
    ("width", "gausshermite"): lambda v: build_gaussian_ensemble(
        width=v, n_nodes=3, rule="gausshermite"),
    ("envelope_width", "comb"): lambda v: build_comb_ensemble(
        spacing=1, tooth_width=0.05, n_lines=3, envelope_width=v),
}


@pytest.mark.parametrize("value, fault", [
    (1e-320, "underflows to 0"), (1e-170, "underflows to 0"),
    (1e200, "overflows a float")])
@pytest.mark.parametrize("name, rule", sorted(UNSQUARABLE_WIDTHS))
def test_ensemble_builders_refuse_widths_whose_square_is_not_a_float(
        name, rule, value, fault):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=(
                f"^{name} = {re.escape(repr(value))} {fault} when "
                "squared$")):
            UNSQUARABLE_WIDTHS[name, rule](value)


def _flat_top(**kw):
    return ControlProfile.flat_top(**{**dict(
        rabi=2.0, detuning=30.0, switch_on=0.0, switch_off=10.0), **kw})


# every envelope factory refuses a nan or infinite argument, naming it;
# (factory, argument) -> call with the argument set to the value
NON_FINITE_ARGUMENTS = {
    ("raised_cosine_envelope", "on"):
        lambda v: raised_cosine_envelope(on=v, off=10.0, rise=1.0),
    ("raised_cosine_envelope", "off"):
        lambda v: raised_cosine_envelope(on=0.0, off=v, rise=1.0),
    ("raised_cosine_envelope", "rise"):
        lambda v: raised_cosine_envelope(on=0.0, off=10.0, rise=v),
    ("gaussian_envelope", "center"):
        lambda v: gaussian_envelope(center=v, duration=2.0),
    ("gaussian_envelope", "duration"):
        lambda v: gaussian_envelope(center=0.0, duration=v),
    ("flat_top", "rabi"): lambda v: _flat_top(rabi=v),
    ("flat_top", "switch_on"): lambda v: _flat_top(switch_on=v),
    ("flat_top", "switch_off"): lambda v: _flat_top(switch_off=v),
    ("flat_top", "rise_time"): lambda v: _flat_top(rise_time=v),
    ("ProbeSpec.gaussian", "center"):
        lambda v: ProbeSpec.gaussian(center=v, duration=2.0),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("factory, name", sorted(NON_FINITE_ARGUMENTS))
def test_envelope_factories_refuse_non_finite_arguments(factory, name,
                                                        value):
    # a nan passes every range check: a nan rise time would build a hard
    # gate, and a nan rabi or probe center would surface only as a
    # non-finite field row once stepped
    with pytest.raises(ValidationError, match=f"^{name} must be finite"):
        NON_FINITE_ARGUMENTS[factory, name](value)


# ---------------------------------------------------------------------------
# control profiles
# ---------------------------------------------------------------------------

def test_flat_top_derived_quantities():
    ctl = ControlProfile.flat_top(rabi=4.0, detuning=40.0, switch_on=0.0,
                                  switch_off=10.0, rise_time=1.0)
    mid = np.array([5.0])
    assert ctl.f(mid)[0] == pytest.approx(0.01, rel=1e-12)
    # the Stark shift Delta f
    assert ctl.one_photon_detuning * ctl.f(mid)[0] == pytest.approx(
        0.4, rel=1e-12)
    assert ctl.f(np.array([-1.0]))[0] == 0.0
    assert ctl.peak_f() == pytest.approx(0.01, rel=1e-9)


def test_zero_detuning_rejected():
    with pytest.raises(ValidationError):
        ControlProfile(rabi_envelope=lambda t: 1.0, one_photon_detuning=0.0)


def test_time_reversed_envelope():
    ctl = ControlProfile.flat_top(rabi=2.0, detuning=30.0, switch_on=1.0,
                                  switch_off=7.0, rise_time=2.0)
    rev = ctl.time_reversed(anchor=7.0, detuning=-30.0)
    tau = np.linspace(-1.0, 9.0, 401)
    assert np.allclose(np.abs(rev.rabi(tau)), np.abs(ctl.rabi(7.0 - tau)),
                       atol=1e-14)
    assert rev.switch_on == 0.0 and rev.switch_off == 6.0
    assert rev.one_photon_detuning == -30.0


def test_time_reversed_keeps_or_replaces_carrier_and_refuses_stale_keywords():
    ctl = ControlProfile.flat_top(rabi=2.0, detuning=30.0, switch_on=1.0,
                                  switch_off=7.0, rise_time=2.0, carrier=0.5)
    assert ctl.time_reversed(anchor=7.0).carrier == 0.5
    assert ctl.time_reversed(anchor=7.0, carrier=-0.25).carrier == -0.25
    with pytest.raises(TypeError):
        ctl.time_reversed(anchor=7.0, detuning_factor=10.0)
    with pytest.raises(TypeError):
        ControlProfile.flat_top(rabi=2.0, detuning=30.0, switch_on=1.0,
                                switch_off=7.0, detuning_factor=10.0)


def test_raised_cosine_edges():
    env = raised_cosine_envelope(on=0.0, off=10.0, rise=2.0)
    tau = np.array([-0.1, 0.0, 1.0, 5.0, 9.0, 10.0, 10.1])
    vals = env(tau)
    assert vals[0] == 0.0 and vals[-1] == 0.0
    assert vals[3] == 1.0
    assert vals[1] == pytest.approx(0.0, abs=1e-15)
    assert vals[2] == pytest.approx(0.5, abs=1e-12)
    assert vals[4] == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# probe
# ---------------------------------------------------------------------------

def test_probe_duration_bandwidth_convention():
    p = ProbeSpec.gaussian(center=0.0, duration=2.0)
    assert p.spectral_width == pytest.approx(0.5, rel=1e-12)
    with pytest.raises(ValidationError):
        ProbeSpec(envelope=gaussian_envelope(0.0, 2.0), duration=0.0)
    with pytest.raises(ValidationError):
        ProbeSpec.gaussian(center=0.0, duration=1.0, amplitude_scale=-0.5)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_grid_spacing_and_axes():
    g = Grid(n_tau=101, n_z=51, t_end=10.0, length=1.0)
    assert g.dt == pytest.approx(0.1)
    assert g.dz == pytest.approx(0.02)
    assert g.tau()[0] == 0.0 and g.tau()[-1] == 10.0
    assert g.z()[-1] == 1.0


def test_grid_step_guards():
    g = Grid(n_tau=11, n_z=11, t_end=10.0, length=1.0)
    g.validate(max_phase_rate=0.4, max_coupling=4.0)
    with pytest.raises(StepTooCoarse):
        g.validate(max_phase_rate=1.0, max_coupling=1.0)
    with pytest.raises(StepTooCoarse):
        g.validate(max_phase_rate=0.1, max_coupling=6.0)


def test_grid_refinement_preserves_extent():
    g = Grid(n_tau=11, n_z=6, t_end=1.0, length=2.0)
    r = refined(g, 4)
    assert r.n_tau == 41 and r.n_z == 21
    assert r.t_end == g.t_end and r.length == g.length


# ---------------------------------------------------------------------------
# numerical helpers
# ---------------------------------------------------------------------------

CUMINT_REFERENCE_TOL = 1e-14    # in-place fill vs the plain formula
CUBIC_TOL = 1e-12               # the 4-point rule is exact on cubics
ROW_BRANCH_TOL = 1e-15          # a complex row alone vs in a (3, n) stack
NODE_SUM_TOL = 1e-15            # a node sum vs the row-by-row sum or fsum


def _cumulative_integral_reference(y, dx):
    # the plain formula: every increment built out of place, the two end
    # intervals from scalar arithmetic
    y = np.asarray(y)
    n = y.shape[-1]
    out = np.zeros_like(y, dtype=np.result_type(y.dtype, np.float64))
    if n < 2:
        return out
    if n < 4:
        inc = 0.5 * dx * (y[..., 1:] + y[..., :-1])
        out[..., 1:] = np.cumsum(inc, axis=-1)
        return out
    inc = np.empty_like(out[..., :-1])
    inc[..., 1:-1] = (dx / 24.0) * (
        -y[..., :-3] + 13.0 * y[..., 1:-2] + 13.0 * y[..., 2:-1] - y[..., 3:]
    )
    inc[..., 0] = (dx / 24.0) * (
        9.0 * y[..., 0] + 19.0 * y[..., 1] - 5.0 * y[..., 2] + y[..., 3]
    )
    inc[..., -1] = (dx / 24.0) * (
        y[..., -4] - 5.0 * y[..., -3] + 19.0 * y[..., -2] + 9.0 * y[..., -1]
    )
    out[..., 1:] = np.cumsum(inc, axis=-1)
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5, 17, 49, 65, 641])
@pytest.mark.parametrize("kind", ["real", "complex", "complex-2d"])
def test_cumulative_integral_matches_reference_formula(n, kind):
    rng = np.random.default_rng(n)
    shape = (3, n) if kind.endswith("2d") else (n,)
    y = rng.standard_normal(shape)
    if kind.startswith("complex"):
        y = y + 1j * rng.standard_normal(shape)
    got = cumulative_integral(y, 0.37)
    want = _cumulative_integral_reference(y, 0.37)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.all(got[..., 0] == 0.0)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= CUMINT_REFERENCE_TOL * scale


@pytest.mark.parametrize("n", [4, 5, 17, 49, 65, DENSE_QUADRATURE_MAX])
@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("orientation", ["storage", "retrieval"])
def test_dense_quadrature_matches_cumulative_integral(n, kind, orientation):
    # up to DENSE_QUADRATURE_MAX points the rule is one matrix product;
    # retrieval integrates the flipped slab, a reversed view
    rng = np.random.default_rng(n)
    y = rng.standard_normal(n)
    if kind == "complex":
        y = y + 1j * rng.standard_normal(n)
    quadrature = CumulativeQuadrature(n, 0.37)
    assert quadrature.weights is not None
    if orientation == "storage":
        got, want = forward_quadrature(quadrature, y), \
            cumulative_integral(y, 0.37)
    else:
        got = forward_quadrature(quadrature, y[::-1])[::-1]
        want = cumulative_integral(y[::-1], 0.37)[::-1]
    assert got.dtype == want.dtype and got.shape == want.shape
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= CUMINT_REFERENCE_TOL * scale


@pytest.mark.parametrize("n", [17, DENSE_QUADRATURE_MAX,
                               DENSE_QUADRATURE_MAX + 1])
def test_backward_quadrature_is_the_flipped_forward_rule(n):
    # the backward integrator, directed(-1), integrates from each point to
    # the end of the axis, as the forward rule does on the flipped
    # samples: by the flipped weight matrix J W J to rounding, and past
    # DENSE_QUADRATURE_MAX, where no matrix is made, by the flipped
    # cumulative_integral itself
    rng = np.random.default_rng(200 + n)
    y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    quadrature = CumulativeQuadrature(n, 0.37)
    backward = quadrature.directed(-1)
    got = np.empty_like(y)
    backward(y.view(np.float64).reshape(n, 2),
             got.view(np.float64).reshape(n, 2))
    want = cumulative_integral(y[::-1], 0.37)[::-1]
    if n > DENSE_QUADRATURE_MAX:
        assert quadrature.weights is None
        assert np.array_equal(got, want)
        return
    matrix = backward.__self__
    assert backward.__name__ == "dot" and matrix.flags.c_contiguous
    assert np.array_equal(matrix, quadrature.weights[::-1, ::-1])
    assert np.array_equal(got, np.dot(matrix, y.view(np.float64).reshape(
        n, 2)).view(complex).ravel())
    assert got[-1] == 0.0
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= CUMINT_REFERENCE_TOL * scale


@pytest.mark.parametrize("n", [4, 5, 17, 49, 65, 641])
def test_cumulative_integral_is_exact_on_cubics(n):
    x = np.linspace(-1.0, 2.0, n)
    y = 2.0 - x + 3.0 * x ** 2 - 0.5 * x ** 3
    antiderivative = 2.0 * x - x ** 2 / 2.0 + x ** 3 - x ** 4 / 8.0
    want = antiderivative - antiderivative[0]
    got = cumulative_integral(y, x[1] - x[0])
    assert np.max(np.abs(got - want)) <= CUBIC_TOL * np.max(np.abs(want))
    got_c = cumulative_integral((1.0 - 2.0j) * y, x[1] - x[0])
    assert np.max(np.abs(got_c - (1.0 - 2.0j) * want)) \
        <= CUBIC_TOL * np.max(np.abs(want)) * abs(1.0 - 2.0j)


@pytest.mark.parametrize("n", [4, 5, 17, 49, 65, 641])
def test_cumulative_integral_rows_alone_match_rows_stacked(n):
    # a 1-D complex row takes its end taps in scalar arithmetic; the same
    # row inside a (3, n) array takes them from the array reduction
    rng = np.random.default_rng(100 + n)
    y = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    stacked = cumulative_integral(y, 0.37)
    for k in range(3):
        alone = cumulative_integral(y[k], 0.37)
        scale = np.max(np.abs(stacked[k]))
        assert np.max(np.abs(alone - stacked[k])) <= ROW_BRANCH_TOL * scale


# the node x Z shapes of the saturating case and the shipped scenarios,
# and a single node
NODE_SUM_SHAPES = [(33, 641), (65, 65), (105, 49), (17, 17), (1, 65)]


@pytest.mark.parametrize("shape", NODE_SUM_SHAPES)
@pytest.mark.parametrize("kind", ["real", "complex", "complex-strided"])
def test_weighted_node_sum_matches_row_by_row_sum(shape, kind):
    rng = np.random.default_rng(shape[0] * shape[1])
    w = rng.random(shape[0])
    w /= w.sum()
    n_z = 2 * shape[1] if kind.endswith("strided") else shape[1]
    x = rng.standard_normal((shape[0], n_z))
    if kind.startswith("complex"):
        x = x + 1j * rng.standard_normal(x.shape)
    if kind.endswith("strided"):
        x = x[:, ::2]
        assert not x.flags.c_contiguous
    # the fixed-order reduction: weighted rows added one after another
    want = np.add.reduce(w[:, None] * x, axis=0)
    got = weighted_node_sum(w, x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.max(np.abs(got - want)) <= NODE_SUM_TOL * np.max(np.abs(want))
    for _ in range(20):
        assert np.array_equal(weighted_node_sum(w, x), got)


# node x Z shapes of complex coherences whose node sum is exactly at the
# one-thread bound, and one Z point past it: the 1-D weights' gemv on the
# (n_node, 2 n_z) parts, m n = 36 x 128 = GEMV_ONE_THREAD_MAX, and the
# weak step's (4, n_node) table's gemm, m n k = 4 x 128 x 256 =
# GEMM_ONE_THREAD_MAX
EDGE_SHAPES = {"vector": (36, 64), "table": (128, 128)}


def _edge_operands(form, past, kind="complex"):
    """Weights and x of a node sum at the bound, or one Z point past it."""
    n_node, n_z = EDGE_SHAPES[form]
    if kind == "real":
        n_z *= 2
    rng = np.random.default_rng(n_node * n_z + past)
    x = rng.standard_normal((n_node, n_z + past))
    if kind == "complex":
        x = x + 1j * rng.standard_normal(x.shape)
    if form == "vector":
        weights = rng.random(n_node)
        weights /= weights.sum()
    else:
        weights = rng.standard_normal((4, n_node)) / n_node
    return weights, x


def test_one_thread_product_bound():
    # gemv when a side is 1, gemm otherwise; the dense quadrature's
    # longest axis is the last whose complex row fits the gemm bound
    assert one_thread_product(1, 36, 128)
    assert not one_thread_product(1, 36, 129)
    assert one_thread_product(4608, 1, 1)
    assert not one_thread_product(1, 4609, 1)
    assert one_thread_product(4, 128, 256)
    assert not one_thread_product(4, 128, 257)
    assert one_thread_product(DENSE_QUADRATURE_MAX, DENSE_QUADRATURE_MAX, 2)
    assert not one_thread_product(DENSE_QUADRATURE_MAX + 1,
                                  DENSE_QUADRATURE_MAX + 1, 2)


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("form", ["vector", "table"])
@pytest.mark.parametrize("past", [0, 1])
def test_node_sum_is_a_blas_product_only_within_the_bound(form, past, kind):
    # exactly np.dot's bits at the bound and exactly einsum's past it, so
    # that moving a larger sum onto BLAS, which may split it across
    # threads, fails here
    weights, x = _edge_operands(form, past, kind)
    parts = x.view(np.float64)
    got = weighted_node_sum(weights, x)
    dot = np.dot(weights, parts).view(x.dtype)
    einsum = np.einsum("kj,jz->kz" if form == "table" else "j,jz->z",
                       weights, parts).view(x.dtype)
    assert not np.array_equal(dot, einsum)
    assert np.array_equal(got, einsum if past else dot)
    # both against the correctly rounded sum of the rounded products
    products = weights[..., :, None] * parts
    exact = np.array([[math.fsum(col) for col in row.T] for row in
                      products.reshape(-1, *parts.shape)])
    want = exact.reshape(got.view(np.float64).shape)
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got.view(np.float64) - want)) <= NODE_SUM_TOL * scale


_EDGE_RUN = """
import hashlib
import sys
sys.path.insert(0, {tests!r})
from test_core import _edge_operands
from ramanecho.numerics import weighted_node_sum
for form in ("vector", "table"):
    got = weighted_node_sum(*_edge_operands(form, 0))
    print(form, hashlib.sha256(got.tobytes()).hexdigest())
"""


def test_node_sums_at_the_bound_do_not_depend_on_blas_threads():
    # the largest node sums taken on BLAS, each in a fresh interpreter
    # whose OpenBLAS runs on one and on two threads
    src_dir = os.path.dirname(os.path.dirname(numerics.__file__))
    code = _EDGE_RUN.format(tests=os.path.dirname(os.path.abspath(__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src_dir, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert [line.split()[0] for line in digests[0].splitlines()] == \
        ["vector", "table"]
    assert digests[0] == digests[1]


@pytest.mark.parametrize("n", [67, 68])
def test_real_quadrature_is_a_blas_product_only_within_the_bound(
        n, monkeypatch):
    # a real row is an (n, n) by (n, 1) gemv, within the bound up to
    # n^2 = 67^2 <= GEMV_ONE_THREAD_MAX; past it cumulative_integral.  The
    # strong state's phase integrator keeps the rule in both directions:
    # the pre-scaled weights, flipped for retrieval, or the scaled
    # cumulative_integral, run on the flipped row for retrieval
    rng = np.random.default_rng(n)
    y = rng.standard_normal(n)
    quadrature = CumulativeQuadrature(n, 0.37)
    dense = n * n <= GEMV_ONE_THREAD_MAX
    want = (np.dot(quadrature.weights, y[:, None]).ravel()
            if dense else cumulative_integral(y, 0.37))
    assert np.array_equal(forward_quadrature(quadrature, y), want)

    directed, real_rows = CumulativeQuadrature.directed, []

    def noted(self, sign, scale=1.0, real=False):
        integrate = directed(self, sign, scale, real)
        if real:
            real_rows.append((self, sign, scale, integrate))
        return integrate

    monkeypatch.setattr(CumulativeQuadrature, "directed", noted)
    ens = build_gaussian_ensemble(width=1.0, n_nodes=3, rule="uniform")
    ctl = ControlProfile.flat_top(rabi=40.0, detuning=40.0, switch_on=0.0,
                                  switch_off=1.0)
    grid = Grid(n_tau=5, n_z=n, t_end=1.0, length=1.0)
    for drive_sign in (+1, -1):
        SimulationState.fresh(grid, ens, ctl, MediumSpec(coupling_beta=8.0),
                              drive_sign)
        (own, sign, scale, phase), = real_rows
        real_rows.clear()
        assert sign == drive_sign and scale == 8.0 / (2.0 * 40.0)
        got = np.empty(n)
        phase(y, got)
        if dense:
            matrix = np.ascontiguousarray(
                scale * own.weights[::sign, ::sign])
            assert np.array_equal(phase.__self__, matrix)
            want = np.dot(matrix, y[:, None]).ravel()
        else:
            want = scale * cumulative_integral(y[::sign], own.dx)[::sign]
        assert np.array_equal(got, want)
