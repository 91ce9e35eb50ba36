"""Closed-form efficiency model and gamma optimization."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy._core._multiarray_umath import __cpu_features__

from ramanecho.efficiency import (
    COMB_PEAK_FACTOR,
    DEFAULT_TOTAL_TIME,
    EfficiencyModel,
    _closed_form,
    _curve,
    epsilon,
    optimal_gamma,
    sweep_gamma,
    write_sweep_csv,
)
from ramanecho.errors import NoInteriorMaximum, ValidationError

from oracles import scan_optimal_gamma, scan_write_sweep_csv

SCALAR_TOL = 1e-12
OPT_EPS_TOL = 1e-8
OPT_GAMMA_TOL = 2e-7

# frozen from a grid search (step 1e-4) refined by an independent
# golden-section pass on the closed-form expression
OPTIMA = {
    ("recrib", 50.0): (0.054576390210, 0.7220356797040037),
    ("reafc", 50.0): (0.035861229514, 0.9293817392029976),
    ("recrib", 200.0): (0.024318516710, 0.9480456912707563),
    ("reafc", 200.0): (0.013638681364, 0.9905544824010424),
    ("recrib", 1000.0): (0.007625604221, 0.9953135870624176),
    ("reafc", 1000.0): (0.003871754008, 0.9992865007271557),
}


def reference_epsilon(protocol, alpha0L, gamma, total_time=None):
    """Direct transcription of the closed form, kept independent of the
    package implementation."""
    if total_time is None:
        total_time = 8.0 if protocol == "recrib" else 2.0 * math.pi
    depth = alpha0L * gamma * (math.sqrt(2.0 * math.pi)
                               if protocol == "reafc" else 1.0)
    return math.exp(-(gamma * total_time) ** 2) * (1.0 - math.exp(-depth)) ** 2


# ---------------------------------------------------------------------------
# scalar evaluation
# ---------------------------------------------------------------------------

def test_zero_gamma_means_zero_efficiency():
    for protocol in ("recrib", "reafc"):
        assert epsilon(EfficiencyModel(protocol, 500.0, 0.0)) == 0.0


def test_half_absorption_without_dephasing():
    model = EfficiencyModel("recrib", alpha0L=10.0,
                            gamma_param=math.log(2.0) / 10.0, total_time=0.0)
    assert epsilon(model) == pytest.approx(0.25, abs=SCALAR_TOL)


def test_recrib_scalar_point():
    model = EfficiencyModel("recrib", alpha0L=50.0, gamma_param=0.05,
                            total_time=8.0)
    expected = math.exp(-0.16) * (1.0 - math.exp(-2.5)) ** 2
    assert epsilon(model) == pytest.approx(expected, abs=SCALAR_TOL)
    assert epsilon(model) == pytest.approx(0.7179890451625548, abs=SCALAR_TOL)


def test_default_total_times():
    assert EfficiencyModel("recrib", 1.0, 0.1).total_time == 8.0
    assert EfficiencyModel("reafc", 1.0, 0.1).total_time == pytest.approx(
        2.0 * math.pi, abs=1e-15)
    assert DEFAULT_TOTAL_TIME["recrib"] == 8.0


def test_model_validation():
    with pytest.raises(ValidationError):
        EfficiencyModel("recrib", -1.0, 0.1)
    with pytest.raises(ValidationError):
        EfficiencyModel("recrib", 1.0, -0.1)
    with pytest.raises(ValidationError):
        EfficiencyModel("crib", 1.0, 0.1)
    for bad in (math.nan, math.inf, -math.inf):
        for field in ("alpha0L", "gamma_param", "total_time"):
            values = {"alpha0L": 50.0, "gamma_param": 0.05,
                      "total_time": 8.0, field: bad}
            with pytest.raises(ValidationError, match=field):
                EfficiencyModel("recrib", **values)


def test_model_refuses_what_the_closed_form_would_overflow():
    # (gamma T)^2 for gamma up to 1, and the comb's sqrt(2 pi) alpha0L
    with pytest.raises(ValidationError, match="total_time"):
        EfficiencyModel("recrib", 50.0, 0.5, total_time=1e200)
    with pytest.raises(ValidationError, match="alpha0L"):
        EfficiencyModel("reafc", 1e308, 0.5)
    assert EfficiencyModel("recrib", 1e308, 0.5, total_time=1e150)
    # gamma_param itself is not bounded by 1 on the Python API
    for gamma, total_time in ((1e200, None), (2e153, None), (1e10, 1e150)):
        with pytest.raises(ValidationError, match="gamma_param"):
            EfficiencyModel("recrib", 50.0, gamma, total_time)
    assert epsilon(EfficiencyModel("recrib", 50.0, 1e153)) == 0.0
    for bad in ({"total_time": 1e200}, {"alpha0L": 1e308}):
        kwargs = {"alpha0L": 50.0, **bad}
        with pytest.raises(ValidationError, match=next(iter(bad))):
            optimal_gamma("reafc", **kwargs)
        with pytest.raises(ValidationError, match=next(iter(bad))):
            sweep_gamma("reafc", gamma_grid=[0.1, 0.2], **kwargs)


# ---------------------------------------------------------------------------
# effective absorption
# ---------------------------------------------------------------------------

def effective_depth(protocol, alpha0, ratio):
    """The closed form's effective depth at gamma = ratio: alpha0 times the
    protocol factor times ratio."""
    return EfficiencyModel(protocol, alpha0, ratio).depth_per_gamma * ratio


def test_alpha_eff_substitutions():
    assert effective_depth("recrib", 10.0, 0.1) == pytest.approx(1.0, abs=1e-15)
    assert effective_depth("reafc", 10.0, 1.0 / math.sqrt(2.0 * math.pi)) \
        == pytest.approx(10.0, abs=1e-12)


def test_alpha_eff_protocol_ratio_is_exact():
    for ratio in (0.05, 0.3, 1.0):
        r = effective_depth("reafc", 7.0, ratio) / effective_depth("recrib", 7.0, ratio)
        assert r == pytest.approx(math.sqrt(2.0 * math.pi), abs=1e-15)
    assert COMB_PEAK_FACTOR == pytest.approx(math.sqrt(2.0 * math.pi))


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_endpoints_and_peak():
    grid = np.arange(0.0, 1.0 + 1e-9, 1e-4)
    for protocol, peak_eps, peak_gamma in (
            ("recrib", 0.7220356797040037, 0.0545764),
            ("reafc", 0.9293817392029976, 0.0358612)):
        table = sweep_gamma(protocol, 50.0, grid)
        assert table.shape == (len(grid), 2)
        assert table[0, 1] == 0.0
        k = int(np.argmax(table[:, 1]))
        assert table[k, 1] == pytest.approx(peak_eps, abs=1e-5)
        assert table[k, 0] == pytest.approx(peak_gamma, abs=1.5e-4)


def test_sweep_grid_validation():
    with pytest.raises(ValidationError):
        sweep_gamma("recrib", 50.0, [0.2, 0.1])
    with pytest.raises(ValidationError):
        sweep_gamma("recrib", 50.0, [0.5, 1.2])
    for bad_grid in ([0.1, math.nan, 0.3], [math.nan], [0.1, math.inf]):
        with pytest.raises(ValidationError):
            sweep_gamma("recrib", 50.0, bad_grid)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sweep_and_optimum_refuse_non_finite_inputs(bad):
    for kwargs in ({"alpha0L": bad}, {"alpha0L": 50.0, "total_time": bad}):
        with pytest.raises(ValidationError):
            sweep_gamma("reafc", gamma_grid=[0.1, 0.2], **kwargs)
        with pytest.raises(ValidationError):
            optimal_gamma("reafc", **kwargs)


@pytest.mark.parametrize("total_time", [None, 3.7])
@pytest.mark.parametrize("protocol", ["recrib", "reafc"])
def test_sweep_rows_equal_scalar_epsilon_exactly(protocol, total_time):
    grid = np.concatenate([np.linspace(0.0, 1.0, 1001)[:-1],
                           np.geomspace(0.9995, 1.0, 7)])
    table = sweep_gamma(protocol, 137.5, grid, total_time=total_time)
    assert table[:, 0].tolist() == grid.tolist()
    assert table[:, 1].tolist() == [
        epsilon(EfficiencyModel(protocol, 137.5, g, total_time))
        for g in grid]


@pytest.mark.parametrize("total_time", [None, 3.7])
@pytest.mark.parametrize("protocol", ["recrib", "reafc"])
def test_closed_form_bits_do_not_depend_on_the_gamma_layout(protocol,
                                                             total_time):
    # the grid of the exact-row test: a 0-d `** 2` would move its row 603
    # at (recrib, 3.7)
    grid = np.concatenate([np.linspace(0.0, 1.0, 1001)[:-1],
                           np.geomspace(0.9995, 1.0, 7)])
    model = EfficiencyModel(protocol, 137.5, 0.0, total_time)
    contiguous = _closed_form(model, grid).tolist()
    table = np.column_stack([grid, grid[::-1]])
    for column in (table[:, 0], table[::-1, 1]):
        assert not column.flags.c_contiguous
        assert _closed_form(model, column).tolist() == contiguous
    assert [float(_closed_form(model, np.asarray(g)))
            for g in grid.tolist()] == contiguous


def test_default_sweep_rows_stay_within_3_ulps_of_the_math_form():
    grid = np.linspace(0.0, 1.0, 1001)
    moved = 0
    for protocol in ("recrib", "reafc"):
        for alpha0L in (50.0, 200.0, 1000.0):
            rows = sweep_gamma(protocol, alpha0L, grid)[:, 1]
            f = _curve(EfficiencyModel(protocol, alpha0L, 0.0))
            scalar = np.array([f(g) for g in grid.tolist()])
            # both non-negative, so their bit patterns count ulps
            ulps = np.abs(rows.view(np.int64) - scalar.view(np.int64))
            assert ulps.max() <= 3
            moved += int(np.count_nonzero(ulps))
    # numpy runs a float64 exp through its AVX512F kernel where the CPU
    # has one; math.exp is the C library's
    if __cpu_features__.get("AVX512F"):
        assert moved == 270


def test_sweep_matches_scalar_evaluation():
    grid = np.linspace(0.01, 0.2, 20)
    table = sweep_gamma("reafc", 80.0, grid)
    spot = epsilon(EfficiencyModel("reafc", 80.0, grid[7]))
    assert table[7, 1] == pytest.approx(spot, abs=1e-15)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_optimal_points_match_frozen_oracle():
    for (protocol, alpha0L), (g_ref, eps_ref) in OPTIMA.items():
        g_star, eps_star = optimal_gamma(protocol, alpha0L)
        assert eps_star == pytest.approx(eps_ref, abs=OPT_EPS_TOL)
        assert g_star == pytest.approx(g_ref, abs=OPT_GAMMA_TOL)


# the optimum comment lines of the default `ramanecho sweep`, as recorded
# in SWEEP_OPTIMA of perfbench/workloads.py: (gamma*, epsilon*)
SWEEP_OPTIMA = {
    ("recrib", 50.0): (0.054576391005673755, 0.72203567970400384),
    ("recrib", 200.0): (0.024318516562079437, 0.94804569127075644),
    ("recrib", 1000.0): (0.0076256040980142541, 0.99531358706241757),
    ("reafc", 50.0): (0.035861230536962094, 0.9293817392029976),
    ("reafc", 200.0): (0.013638680279658956, 0.99055448240104227),
    ("reafc", 1000.0): (0.0038717546356832368, 0.99928650072715552),
}


def test_default_optima_match_the_recorded_sweep():
    for (protocol, alpha0L), (g_ref, eps_ref) in SWEEP_OPTIMA.items():
        g_star, eps_star = optimal_gamma(protocol, alpha0L)
        assert g_star == pytest.approx(g_ref, rel=1e-12, abs=0)
        assert eps_star == pytest.approx(eps_ref, rel=1e-12, abs=0)


def test_peak_efficiency_grows_with_depth():
    for protocol in ("recrib", "reafc"):
        peaks = [optimal_gamma(protocol, a)[1] for a in (50.0, 200.0, 1000.0)]
        assert peaks[0] < peaks[1] < peaks[2]


def test_protocol_gap_shrinks_with_depth():
    gaps = []
    for alpha0L in (50.0, 200.0, 1000.0):
        gap = (optimal_gamma("reafc", alpha0L)[1]
               - optimal_gamma("recrib", alpha0L)[1])
        assert gap > 0
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2]


def test_vanishing_depth_kills_efficiency():
    _, eps_star = optimal_gamma("recrib", 1e-3)
    assert eps_star < 1e-6


def test_boundary_maximum_warns():
    with pytest.warns(NoInteriorMaximum):
        g_star, eps_star = optimal_gamma("recrib", 5.0, total_time=0.0)
    assert g_star == 1.0
    assert eps_star == pytest.approx((1.0 - math.exp(-5.0)) ** 2, abs=1e-12)


@pytest.mark.parametrize("alpha0L", [100.0, 1000.0])
@pytest.mark.parametrize("protocol", ["recrib", "reafc"])
def test_zero_total_time_takes_the_boundary_path(protocol, alpha0L):
    # eps rounds to 1 well inside (0, 1] at these depths, but without
    # dephasing it increases all the way to gamma = 1
    assert epsilon(EfficiencyModel(protocol, alpha0L, 0.5, 0.0)) == 1.0
    with pytest.warns(NoInteriorMaximum):
        g_star, eps_star = optimal_gamma(protocol, alpha0L, total_time=0.0)
    assert g_star == 1.0
    assert eps_star == epsilon(EfficiencyModel(protocol, alpha0L, 1.0, 0.0))


def _optimum_and_warnings(optimizer, *args):
    """The optimum, or the refusal's message, with the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = optimizer(*args)
        except ValidationError as exc:
            result = str(exc)
    return result, [(w.category, str(w.message)) for w in caught]


# depths from 1e-3 to 1e7 and total times from a dephasing that only
# rounding sees (1e-12), through near-flat peaks where numpy's and
# math's exp pick different grid points (1e-6, 1e-5) and the defaults
# (None), to one where the curve is subnormal (1.08e5) or zero (1e6) on
# the whole bracket grid
DIFF_ALPHA0L = np.geomspace(1e-3, 1e7, 241).tolist()
DIFF_TOTAL_TIMES = [1e-12, 1e-8, 1e-6, 1e-5, 1e-4, 1.0, None, 100.0,
                    1.08e5, 1e6]


@pytest.mark.parametrize("protocol", ["recrib", "reafc"])
def test_screened_optimum_equals_the_full_scalar_scan(protocol):
    for alpha0L in DIFF_ALPHA0L:
        for total_time in DIFF_TOTAL_TIMES:
            args = (protocol, alpha0L, total_time)
            assert (_optimum_and_warnings(optimal_gamma, *args)
                    == _optimum_and_warnings(scan_optimal_gamma, *args)), args


@pytest.mark.parametrize("alpha0L,total_time", [
    (1e-16, None), (1e-17, None), (1e-100, None), (1e-300, None),
    (50.0, 1e6)])
def test_an_optimum_that_rounds_to_zero_is_refused(alpha0L, total_time):
    # the golden section ends on a point whose efficiency rounds to 0,
    # near 2.5e-4 or 0.45, while the maximiser is near 1/T = 0.125
    with pytest.raises(ValidationError) as caught:
        optimal_gamma("recrib", alpha0L, total_time)
    message = str(caught.value)
    assert f"alpha0L={alpha0L!r}" in message
    assert "total_time=" in message
    if alpha0L == 1e-16:
        # the curve itself is not 0 everywhere: only its located peak is
        assert sweep_gamma("recrib", alpha0L, [0.75])[0, 1] > 0.0


def test_reafc_dominates_across_depth_range():
    for alpha0L in (10.0, 50.0, 300.0, 2000.0):
        assert (optimal_gamma("reafc", alpha0L)[1]
                >= optimal_gamma("recrib", alpha0L)[1])


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(protocol=st.sampled_from(["recrib", "reafc"]),
       alpha0L=st.floats(0.0, 3000.0),
       gamma=st.floats(0.0, 1.0))
def test_epsilon_bounds_and_reference(protocol, alpha0L, gamma):
    val = epsilon(EfficiencyModel(protocol, alpha0L, gamma))
    assert 0.0 <= val < 1.0
    assert val == pytest.approx(reference_epsilon(protocol, alpha0L, gamma),
                                abs=1e-14)


@settings(max_examples=60, deadline=None)
@given(protocol=st.sampled_from(["recrib", "reafc"]),
       alpha0L=st.floats(0.1, 1000.0),
       gamma=st.floats(1e-3, 1.0),
       factor=st.floats(1.0, 10.0))
def test_more_depth_never_hurts(protocol, alpha0L, gamma, factor):
    lo = epsilon(EfficiencyModel(protocol, alpha0L, gamma))
    hi = epsilon(EfficiencyModel(protocol, alpha0L * factor, gamma))
    assert hi >= lo - 1e-15


@settings(max_examples=40, deadline=None)
@given(gamma=st.floats(0.01, 0.5))
def test_saturation_limit(gamma):
    val = epsilon(EfficiencyModel("recrib", 1e6, gamma))
    assert val == pytest.approx(math.exp(-(8.0 * gamma) ** 2), rel=1e-12)


# ---------------------------------------------------------------------------
# csv output
# ---------------------------------------------------------------------------

def test_sweep_csv_layout_and_determinism(tmp_path):
    grid = np.linspace(0.0, 0.2, 21)[1:]
    traces = {
        ("recrib", 50.0): sweep_gamma("recrib", 50.0, grid),
        ("reafc", 50.0): sweep_gamma("reafc", 50.0, grid),
    }
    path = tmp_path / "sweep.csv"
    optima = write_sweep_csv(str(path), traces)
    assert optima == {key: optimal_gamma(*key) for key in traces}
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "protocol,alpha0L,gamma,epsilon"
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    comments = [ln for ln in lines if ln.startswith("#")]
    assert len(data) == 2 * len(grid)
    assert len(comments) == 2
    assert all("optimal" in c for c in comments)
    # 17 significant digits survive a round trip
    g_back = float(data[3].split(",")[2])
    assert g_back == grid[3]
    write_sweep_csv(str(path), traces)
    assert path.read_text() == text


def _sweep_bytes(writer, path, traces):
    writer(str(path), traces)
    return path.read_bytes()


def test_sweep_csv_equals_the_cell_by_cell_writer_on_a_shared_grid(tmp_path):
    grid = np.linspace(0.0, 1.0, 201)
    traces = {(protocol, alpha0L): sweep_gamma(protocol, alpha0L, grid)
              for protocol in ("recrib", "reafc")
              for alpha0L in (50.0, 200.0, 1000.0)}
    path = tmp_path / "sweep.csv"
    assert (_sweep_bytes(write_sweep_csv, path, traces)
            == _sweep_bytes(scan_write_sweep_csv, path, traces))


def test_sweep_csv_equals_the_cell_by_cell_writer_on_different_grids(
        tmp_path):
    # grids that change from trace to trace, come back, differ only in
    # the sign of a zero (equal values, different cells), and have
    # different lengths
    grids = [np.linspace(0.0, 1.0, 101), np.linspace(0.0, 0.5, 101),
             np.linspace(0.0, 1.0, 101), np.r_[-0.0, 0.25, 0.5],
             np.r_[0.0, 0.25, 0.5], np.geomspace(1e-3, 1.0, 37)]
    traces = {(protocol, alpha0L): sweep_gamma(protocol, alpha0L, grid)
              for (protocol, alpha0L), grid in zip(
                  [("recrib", 50.0), ("reafc", 50.0), ("recrib", 200.0),
                   ("reafc", 200.0), ("recrib", 1000.0), ("reafc", 1000.0)],
                  grids)}
    path = tmp_path / "sweep.csv"
    text = _sweep_bytes(write_sweep_csv, path, traces)
    assert text == _sweep_bytes(scan_write_sweep_csv, path, traces)
    assert b"\nreafc,200,-0," in text and b"\nrecrib,1000,0," in text
