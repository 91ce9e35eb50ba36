"""Scenario files and the command-line front end."""

import math
import os
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramanecho
from ramanecho.cli import main, parse_alpha0l_list, parse_gamma_range
from ramanecho.efficiency import EfficiencyModel, epsilon
from ramanecho.errors import ArgumentError, ParseError, ValidationError
from ramanecho.numerics import fmt_float
from ramanecho.runs import run_scenario, scenario_report, write_outputs
from ramanecho.scenario import (
    Scenario,
    build_controls,
    build_protocol,
    default_scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
    write_scenario,
)

TIMING_TOL = 1e-9
EFFICIENCY_FLOOR = 0.98
SPOT_GAMMA = 0.05
SPOT_ALPHA0L = 50.0

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def bundled(name):
    return os.path.join(SCENARIO_DIR, f"{name}.ini")


# ---------------------------------------------------------------------------
# parse and dump
# ---------------------------------------------------------------------------

def test_dump_parse_round_trip_is_identity():
    scenario = default_scenario()
    text = dump_scenario(scenario)
    assert parse_scenario(text) == scenario
    assert dump_scenario(parse_scenario(text)) == text


def test_sparse_file_fills_documented_defaults():
    scenario = parse_scenario("[run]\nregime = weak\n")
    assert scenario == replace(default_scenario(),
                               run=scenario.run)


def test_empty_file_is_a_parse_error():
    with pytest.raises(ParseError, match=r"missing required section"):
        parse_scenario("")


def test_malformed_line_reports_location():
    text = "[run]\nregime weak no equals sign\n"
    with pytest.raises(ParseError, match=r"line"):
        parse_scenario(text)


def test_unknown_section_and_key_are_rejected():
    with pytest.raises(ParseError, match=r"unknown section.*lasers"):
        parse_scenario("[run]\n[lasers]\npower = 9\n")
    with pytest.raises(ParseError, match=r"unknown key.*powr"):
        parse_scenario("[run]\n[control1]\npowr = 9\n")


def test_bad_scalar_values_name_section_and_key():
    with pytest.raises(ParseError, match=r"\[grid\] n_tau"):
        parse_scenario("[run]\n[grid]\nn_tau = sixty\n")
    with pytest.raises(ParseError, match=r"\[probe\] center"):
        parse_scenario("[run]\n[probe]\ncenter = twelve\n")
    with pytest.raises(ParseError, match=r"\[protocol\] strict"):
        parse_scenario("[run]\n[protocol]\nstrict = maybe\n")
    with pytest.raises(ParseError, match=r"\[run\] regime"):
        parse_scenario("[run]\nregime = medium\n")


def test_medium_rejects_both_depth_and_coupling():
    text = "[run]\n[medium]\nalpha_eff_l = 20.0\nbeta = 42.0\n"
    with pytest.raises(ParseError, match=r"not both"):
        parse_scenario(text)


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match=r"cannot read"):
        load_scenario(str(tmp_path / "nope.ini"))


FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=50, deadline=None)
@given(center=FINITE, duration=FINITE, rabi=FINITE, t_end=FINITE,
       strict=st.booleans(), n_tau=st.integers(-10**9, 10**9))
def test_round_trip_survives_arbitrary_numbers(center, duration, rabi,
                                               t_end, strict, n_tau):
    # serialization fidelity only; physical validation happens at build
    base = default_scenario()
    scenario = replace(
        base,
        probe=replace(base.probe, center=center, duration=duration),
        control1=replace(base.control1, rabi=rabi),
        protocol=replace(base.protocol, strict=strict),
        grid=replace(base.grid, t_end=t_end, n_tau=n_tau))
    assert parse_scenario(dump_scenario(scenario)) == scenario


# ---------------------------------------------------------------------------
# builders and condition reports
# ---------------------------------------------------------------------------

def test_blank_times_derive_from_controls_and_comb():
    scenario = load_scenario(bundled("reafc_weak"))
    ctl1, ctl2 = build_controls(scenario)
    proto = build_protocol(scenario, ctl1, ctl2)
    assert abs(proto.t1 - math.pi) < TIMING_TOL
    assert abs(proto.t2 - math.pi) < TIMING_TOL


def test_control2_defaults_mirror_the_writing_stage():
    scenario = default_scenario()
    ctl1, ctl2 = build_controls(scenario)
    assert ctl2.one_photon_detuning == -ctl1.one_photon_detuning
    assert ctl2.switch_off - ctl2.switch_on == pytest.approx(
        ctl1.switch_off - ctl1.switch_on)


def test_default_scenario_conditions_all_pass():
    report = scenario_report(default_scenario())
    assert report.overall
    for entry in report.entries:
        assert entry.residual == 0.0


def test_broken_detuning_report_fails_iv_and_blocks_iii():
    report = scenario_report(load_scenario(bundled("recrib_broken_iv")))
    assert not report.overall
    assert not report.get("iv").satisfied
    assert report.get("iii").blocked
    assert "blocked" in report.as_text()


def test_reafc_timing_ten_percent_off_fails_comb_condition():
    base = load_scenario(bundled("reafc_weak"))
    late = replace(base, protocol=replace(base.protocol,
                                          t1=1.1 * math.pi,
                                          t2=1.1 * math.pi))
    report = scenario_report(late)
    entry = report.get("iii'")
    assert not entry.satisfied
    assert entry.residual == pytest.approx(0.1, abs=TIMING_TOL)


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------

def test_gamma_range_covers_the_unit_interval_inclusively():
    grid = parse_gamma_range("0:1:0.001")
    assert grid.size == 1001
    assert grid[0] == 0.0
    assert grid[-1] == 1.0


def test_gamma_range_rejects_garbage():
    for text in ("zero:one", "0:1", "0:1:0", "1:0:0.1", "0:1:-0.1"):
        with pytest.raises(ArgumentError):
            parse_gamma_range(text)


def test_alpha0l_list_parsing():
    assert parse_alpha0l_list("50,200,1000") == [50.0, 200.0, 1000.0]
    with pytest.raises(ArgumentError):
        parse_alpha0l_list("50,two hundred")


# ---------------------------------------------------------------------------
# CLI end to end
# ---------------------------------------------------------------------------

def test_simulate_bundled_ideal_reports_high_efficiency(tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    code = main(["simulate", bundled("recrib_ideal"), "--out", out_dir])
    captured = capsys.readouterr()
    assert code == 0
    line = captured.out.splitlines()[0]
    efficiency = float(line.split("efficiency=")[1].split()[0])
    assert efficiency >= EFFICIENCY_FLOOR
    for name in ("input.csv", "echo.csv", "summary.txt", "conditions.txt"):
        assert os.path.exists(os.path.join(out_dir, name))


def test_simulate_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    dirs = [str(tmp_path / tag) for tag in ("a", "b")]
    for out_dir in dirs:
        assert main(["simulate", bundled("recrib_ideal"),
                     "--out", out_dir]) == 0
    capsys.readouterr()
    for name in ("input.csv", "echo.csv", "summary.txt", "conditions.txt"):
        with open(os.path.join(dirs[0], name), "rb") as fh:
            first = fh.read()
        with open(os.path.join(dirs[1], name), "rb") as fh:
            second = fh.read()
        assert first == second


def test_simulate_strict_broken_detuning_exits_2_naming_iv(tmp_path, capsys):
    code = main(["simulate", bundled("recrib_broken_iv"),
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "iv" in captured.err


def test_strict_flag_overrides_a_lenient_scenario(tmp_path, capsys):
    base = load_scenario(bundled("recrib_broken_iv"))
    lenient = replace(base, protocol=replace(base.protocol, strict=False))
    path = str(tmp_path / "lenient.ini")
    write_scenario(lenient, path)
    code = main(["simulate", path, "--strict",
                 "--out", str(tmp_path / "out")])
    capsys.readouterr()
    assert code == 2


def test_simulate_empty_file_exits_1(tmp_path, capsys):
    path = str(tmp_path / "empty.ini")
    open(path, "w").close()
    code = main(["simulate", path])
    captured = capsys.readouterr()
    assert code == 1
    assert "missing required section" in captured.err


def test_check_exit_codes_and_blocked_line(capsys):
    assert main(["check", bundled("reafc_weak")]) == 0
    capsys.readouterr()
    assert main(["check", bundled("recrib_broken_iv")]) == 3
    captured = capsys.readouterr()
    assert "blocked" in captured.out
    assert "iv" in captured.out


def test_sweep_single_point_matches_the_closed_form(tmp_path, capsys):
    out = str(tmp_path / "point.csv")
    code = main(["sweep", "--protocol", "recrib", "--alpha0L", "50",
                 "--gamma", "0.05:0.05:1", "--out", out])
    capsys.readouterr()
    assert code == 0
    with open(out) as fh:
        rows = [line for line in fh if not line.startswith("#")]
    assert rows[0].strip() == "protocol,alpha0L,gamma,epsilon"
    _, _, gamma_cell, eps_cell = rows[1].strip().split(",")
    model = EfficiencyModel("recrib", SPOT_ALPHA0L, float(gamma_cell))
    assert eps_cell == fmt_float(epsilon(model))


def test_sweep_six_traces_deterministic(tmp_path, capsys):
    files = [str(tmp_path / f"sweep_{tag}.csv") for tag in ("a", "b")]
    for out in files:
        code = main(["sweep", "--protocol", "both",
                     "--alpha0L", "50,200,1000", "--gamma", "0:1:0.01",
                     "--out", out])
        assert code == 0
    capsys.readouterr()
    with open(files[0], "rb") as fh:
        first = fh.read()
    with open(files[1], "rb") as fh:
        second = fh.read()
    assert first == second
    data_rows = [line for line in first.decode().splitlines()
                 if line and not line.startswith(("#", "protocol"))]
    assert len(data_rows) == 6 * 101


def test_bad_arguments_exit_1(capsys):
    assert main(["sweep", "--gamma", "zero:one"]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["echo-time", "--t1", "x", "--delta-comb", "1"]) == 1
    capsys.readouterr()


def test_echo_time_subcommand(capsys):
    assert main(["echo-time", "--t1", str(math.pi),
                 "--delta-comb", "1.0"]) == 0
    captured = capsys.readouterr()
    assert float(captured.out) == pytest.approx(math.pi, abs=TIMING_TOL)


def test_echo_time_non_causal_exits_1(capsys):
    code = main(["echo-time", "--t1", "7.0", "--delta-comb", "1.0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "k >= 2" in captured.err


def test_dump_defaults_round_trips(tmp_path, capsys):
    path = str(tmp_path / "defaults.ini")
    assert main(["dump-defaults", "--out", path]) == 0
    capsys.readouterr()
    assert load_scenario(path) == default_scenario()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ramanecho", "dump-defaults"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert parse_scenario(proc.stdout) == default_scenario()


def test_simulate_output_does_not_depend_on_blas_threads(tmp_path):
    # the weak solver's ensemble sums stay off BLAS, whose reductions
    # change their last bits with the thread count
    src_dir = os.path.dirname(os.path.dirname(ramanecho.__file__))
    scenario = os.path.abspath(bundled("reafc_weak"))
    runs = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads{threads}"
        cwd.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src_dir, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run(
            [sys.executable, "-m", "ramanecho", "simulate", scenario,
             "--out", "out"],
            cwd=cwd, env=env, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        artifacts = {}
        for name in sorted(os.listdir(cwd / "out")):
            with open(cwd / "out" / name, "rb") as fh:
                artifacts[name] = fh.read()
        runs.append((proc.stdout, artifacts))
    assert runs[0][1]
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# orchestration API
# ---------------------------------------------------------------------------

def test_run_scenario_writes_summary_with_conditions(tmp_path):
    result = run_scenario(load_scenario(bundled("recrib_ideal")))
    assert result.efficiency >= EFFICIENCY_FLOOR
    assert result.report.overall
    paths = write_outputs(result, str(tmp_path / "out"))
    with open(paths["summary"]) as fh:
        summary = fh.read()
    assert "efficiency=" in summary
    assert "overall pass" in summary


def test_reafc_scenario_echo_arrives_on_the_comb_clock():
    scenario = load_scenario(bundled("reafc_weak"))
    result = run_scenario(scenario)
    dt2 = result.record.tau_echo[1] - result.record.tau_echo[0]
    assert abs(result.record.echo_peak_time - math.pi) <= dt2
    assert result.efficiency > 0.5
    assert result.fidelity > 0.9
