"""Scenario files and the command-line front end."""

import contextlib
import io
import math
import os
import stat
import subprocess
import sys
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ramanecho
from ramanecho import cli, core, stages
from ramanecho.cli import (
    MAX_GAMMA_POINTS,
    main,
    parse_alpha0l_list,
    parse_gamma_range,
)
from ramanecho.efficiency import EfficiencyModel, epsilon
from ramanecho.errors import ArgumentError, ParseError, ValidationError
from ramanecho.numerics import fmt_float
from ramanecho.runs import run_scenario, scenario_report, write_outputs
from ramanecho.scenario import (
    MAX_INT_DIGITS,
    SHOWN_CHARS,
    Scenario,
    build_controls,
    default_scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
    stage_setups,
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


# the default scenario's canonical text, pinned literally: a round trip
# alone passes for any format consistent with itself; blank values keep
# the space after "="
DEFAULT_DUMP = "\n".join((
    "[run]", "regime = weak", "label = recrib_ideal",
    "out_dir = runs/recrib_ideal", "",
    "[ensemble]", "shape = gaussian", "width = 1.0", "n_nodes = 65",
    "rule = uniform", "width_21 = 0.0", "n_nodes_21 = 1", "spacing = 1.0",
    "tooth_width = 0.05", "n_lines = 21", "nodes_per_tooth = 5", "",
    "[medium]", "alpha_eff_l = 20.0", "beta = ", "length = 1.0", "",
    "[probe]", "center = 12.0", "duration = 2.0", "amplitude_scale = 1.0",
    "",
    "[control1]", "mode = flat_top", "rabi = 60.0", "detuning = 60.0",
    "switch_on = 0.0", "switch_off = 24.0", "rise_time = ", "anchor = ", "",
    "[control2]", "mode = mirror", "rabi = 60.0", "detuning = ",
    "switch_on = 0.0", "switch_off = 24.0", "rise_time = ", "anchor = ", "",
    "[protocol]", "name = recrib", "t1 = ", "t2 = ", "k = 1",
    "strict = false", "gap_time = 0.0", "",
    "[grid]", "n_tau = 385", "n_z = 65", "t_end = 24.0", "n_tau2 = ",
    "t_end2 = ", "",
    "[matching]", "omega1 = 100000.0", "omega2 = ", "k1z = ", "k2z = ",
    ""))


def test_default_dump_is_the_pinned_text():
    assert dump_scenario(default_scenario()) == DEFAULT_DUMP


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


def test_beta_alone_replaces_the_default_depth():
    medium = parse_scenario("[run]\n[medium]\nbeta = 42.0\n").medium
    assert (medium.alpha_eff_l, medium.beta) == (None, 42.0)
    medium = parse_scenario("[run]\n[medium]\nbeta =\n").medium
    assert (medium.alpha_eff_l, medium.beta) == (20.0, None)


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
    proto = stage_setups(scenario)[3]
    assert abs(proto.t1 - math.pi) < TIMING_TOL
    assert abs(proto.t2 - math.pi) < TIMING_TOL


def test_control2_defaults_mirror_the_writing_stage():
    scenario = default_scenario()
    ctl1, ctl2 = build_controls(scenario)
    assert ctl2.one_photon_detuning == -ctl1.one_photon_detuning
    assert ctl2.switch_off - ctl2.switch_on == pytest.approx(
        ctl1.switch_off - ctl1.switch_on)


def _with_control2(regime="weak", **keys):
    base = default_scenario()
    return replace(base, run=replace(base.run, regime=regime),
                   control2=replace(base.control2, **keys))


@pytest.mark.parametrize("regime, condition",
                         [("weak", "ii'"), ("strong", "ii")])
def test_mirror_anchor_sets_the_reversal_clock_and_the_image(regime,
                                                             condition):
    # an explicit anchor moves the stage-2 image and the shared clock
    # together, so the envelope-reversal condition still holds
    anchor = 30.0
    scenario = _with_control2(regime, anchor=anchor)
    stage1, stage2, _, _ = stage_setups(scenario)
    assert stage1.clock_offset == anchor
    ctl1, ctl2 = stage1.control, stage2.control
    t = np.linspace(-2.0, 32.0, 341)
    assert np.abs(ctl2.rabi(t)).max() > 0.0
    assert np.allclose(ctl2.rabi(t), ctl1.rabi(anchor - t), rtol=1e-13,
                       atol=0.0)
    entry = scenario_report(scenario).get(condition)
    assert entry.satisfied and entry.residual == 0.0


def test_flat_top_control2_ignores_the_anchor():
    plain = _with_control2(mode="flat_top", detuning=-60.0)
    anchored = replace(plain, control2=replace(plain.control2,
                                               anchor=30.0))
    stage1, stage2, _, _ = stage_setups(anchored)
    want1, want2, _, _ = stage_setups(plain)
    assert stage1.clock_offset == want1.clock_offset \
        == anchored.control1.switch_off
    t = np.linspace(-2.0, 32.0, 341)
    assert np.array_equal(stage2.control.rabi(t), want2.control.rabi(t))
    assert (stage2.control.switch_on, stage2.control.switch_off) \
        == (want2.control.switch_on, want2.control.switch_off)


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
    # a step that does not divide the range ends on the last whole step
    # before stop, not on a shorter step to stop
    for text, size in (("0:1:0.35", 3), ("0:0.5:0.2", 3), ("0:1:0.3", 4)):
        start, stop, step = map(float, text.split(":"))
        grid = parse_gamma_range(text)
        assert grid.size == size and grid[0] == start and grid[-1] <= stop
        assert all(math.isclose(d, step)
                   for d in (grid[1:] - grid[:-1]).tolist()), text


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


@pytest.mark.parametrize("name", ["recrib_ideal", "recrib_strong"])
def test_simulate_reports_the_retrieval_audit(tmp_path, capsys, name):
    # stdout prints it after the storage audit, summary.txt in full; both
    # are the recall stage's own residual
    want = run_scenario(load_scenario(bundled(name))).record.extras[
        "audit_residual"]
    out_dir = str(tmp_path / "out")
    assert main(["simulate", bundled(name), "--out", out_dir]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = [line.partition(" = ")[0] for line in lines].index("storage_audit")
    assert lines[at + 1] == f"retrieval_audit = {want:.6e}"
    with open(os.path.join(out_dir, "summary.txt")) as fh:
        summary = fh.read().splitlines()
    assert f"retrieval_audit={fmt_float(want)}" in summary
    assert 0.0 < want < 1e-3


def test_summary_records_the_storage_audit(tmp_path, capsys):
    # the storage residual that stdout prints, in 17 digits, on the line
    # before the retrieval audit
    out_dir = str(tmp_path / "out")
    assert main(["simulate", bundled("recrib_ideal"), "--out", out_dir]) == 0
    printed = [line for line in capsys.readouterr().out.splitlines()
               if line.startswith("storage_audit = ")]
    with open(os.path.join(out_dir, "summary.txt")) as fh:
        summary = fh.read().splitlines()
    at = [line.partition("=")[0] for line in summary].index("storage_audit")
    assert summary[at + 1].startswith("retrieval_audit=")
    cell = summary[at].partition("=")[2]
    value = float(cell)
    assert cell == fmt_float(value)
    assert printed == [f"storage_audit = {value:.6e}"]
    assert 0.0 < value < 1e-3


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
    path = tmp_path / "lenient.ini"
    path.write_text(dump_scenario(lenient))
    code = main(["simulate", str(path), "--strict",
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


def _forbid_storage(monkeypatch):
    def storage(*args, **kwargs):
        raise AssertionError("the storage stage ran")
    monkeypatch.setattr(stages.StageState, "store", classmethod(storage))


def test_strict_refusal_comes_before_storage(tmp_path, capsys, monkeypatch):
    _forbid_storage(monkeypatch)
    out_dir = tmp_path / "out"
    code = main(["simulate", bundled("recrib_broken_iv"),
                 "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert "conditions unmet" in captured.err
    assert "Traceback" not in captured.err
    assert not out_dir.exists()


@pytest.mark.parametrize("gap_time", ["nan", "-3.0"])
def test_simulate_rejects_bad_gap_time(tmp_path, capsys, monkeypatch,
                                       gap_time):
    _forbid_storage(monkeypatch)
    with open(bundled("recrib_ideal")) as fh:
        text = fh.read()
    assert "gap_time = 0.0" in text
    path = str(tmp_path / "gap.ini")
    with open(path, "w") as fh:
        fh.write(text.replace("gap_time = 0.0", f"gap_time = {gap_time}"))
    out_dir = tmp_path / "out"
    code = main(["simulate", path, "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("\n") == 1
    assert "gap_time" in captured.err
    assert "Traceback" not in captured.err
    assert not out_dir.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section,key", [
    ("medium", "alpha_eff_l"), ("probe", "duration"), ("grid", "t_end"),
    ("control1", "rabi"), ("protocol", "gap_time")])
@pytest.mark.parametrize("command", ["simulate", "check"])
def test_non_finite_scenario_number_exits_1(tmp_path, capsys, command,
                                            section, key, value):
    scenario = load_scenario(bundled("recrib_ideal"))
    text = dump_scenario(scenario)
    block = text.index(f"[{section}]")
    line = text.index(f"\n{key} = ", block) + 1
    end = text.index("\n", line)
    path = str(tmp_path / "bad.ini")
    with open(path, "w") as fh:
        fh.write(text[:line] + f"{key} = {value}" + text[end:])
    out_dir = tmp_path / "out"
    argv = [command, path] + (["--out", str(out_dir)]
                              if command == "simulate" else [])
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("\n") == 1
    assert f"[{section}] {key}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not out_dir.exists()


def _scenario_keys():
    """(section, key, type) of every scenario key, from the schema."""
    return [(section.name, key.name, key.type.removesuffix(" | None"))
            for section in fields(Scenario)
            for key in fields(section.default)]


def _with_value(text, section, key, value):
    """A dumped scenario text with one key set."""
    block = text.index(f"[{section}]")
    line = text.index(f"\n{key} = ", block) + 1
    end = text.index("\n", line)
    return text[:line] + f"{key} = {value}" + text[end:]


def _write_with_value(tmp_path, name, section, key, value):
    """The bundled scenario `name`, dumped in full, with one key set."""
    path = str(tmp_path / "edited.ini")
    with open(path, "w") as fh:
        fh.write(_with_value(dump_scenario(load_scenario(bundled(name))),
                             section, key, value))
    return path


# huge integers are left out: a huge n_lines loops building nodes and a
# huge n_tau allocates
BAD_VALUES = {
    "float": ("nan", "inf", "-inf", "0", "-1", "1e300", "-1e300"),
    "int": ("0", "-1", "2"),
}


@pytest.mark.parametrize("section,key,kind", [
    case for case in _scenario_keys() if case[2] in BAD_VALUES])
@pytest.mark.parametrize("name", ["recrib_ideal", "reafc_weak"])
def test_check_survives_bad_values_of_every_key(tmp_path, capsys, name,
                                               section, key, kind):
    for value in BAD_VALUES[kind]:
        path = _write_with_value(tmp_path, name, section, key, value)
        code = main(["check", path])
        err = capsys.readouterr().err
        where = f"[{section}] {key} = {value}: {err!r}"
        assert code in (0, 1, 3), where
        assert err.count("\n") <= 1, where
        assert "Traceback" not in err, where


# the schema fuzz of check: any key of the schema, which dump-defaults
# prints in full, set to any of these values, exits 0-3 with no internal
# error, traceback or warning.  Among them, a subnormal width or
# detuning gave numpy warnings once its square underflowed to 0
FUZZ_VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "0", "-1",
               "1e-320", "9" * 400, "", "x", "3.5")


@settings(max_examples=300, deadline=None)
@given(key=st.sampled_from(_scenario_keys()),
       value=st.sampled_from(FUZZ_VALUES))
def test_check_exits_cleanly_on_any_key_and_value(tmp_path_factory, key,
                                                  value):
    section, name, _ = key
    path = tmp_path_factory.getbasetemp() / "fuzzed.ini"
    path.write_text(_with_value(DEFAULT_DUMP, section, name, value))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    where = f"[{section}] {name} = {value[:40]}: {err.getvalue()!r}"
    assert code in (0, 1, 2, 3), where
    for sign in ("internal error", "Traceback", "warning:"):
        assert sign not in err.getvalue(), where


# a size key far past the ceiling of its largest array, for the
# commands whose runs allocated it: a 400-digit integer, which numpy
# refuses as a size, and two that it would try to allocate
HUGE_SIZES = ("1" + "0" * 400, str(10 ** 18), str(10 ** 9))
SIZE_CASES = [("check", "ensemble", "n_nodes"), ("check", "grid", "n_tau"),
              ("simulate", "grid", "n_z"), ("simulate", "grid", "n_tau2")]
# the child's address space, so that a size that is not refused fails
# with MemoryError instead of taking the machine's memory
SIZE_RUN_BYTES = 2 << 30

_SIZE_RUN = """
import contextlib, io, resource
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from ramanecho.cli import main
for argv in {cases!r}:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(err):
        code = main(argv)
    print(code, err.getvalue().replace("\\n", " | "))
"""


def test_huge_sizes_are_refused_by_key_before_any_allocation(tmp_path):
    # one interpreter under a 2 GiB address-space limit runs every case
    # through cli.main; each must exit 1 on one error line naming its key
    cases, keys = [], []
    for command, section, key in SIZE_CASES:
        for i, value in enumerate(HUGE_SIZES):
            case_dir = tmp_path / f"{key}-{i}"
            case_dir.mkdir()
            path = _write_with_value(case_dir, "recrib_strong", section,
                                     key, value)
            argv = [command, path]
            if command == "simulate":
                argv += ["--out", str(case_dir / "out")]
            cases.append(argv)
            keys.append(f"[{section}] {key} must be at most ")
    src_dir = os.path.dirname(os.path.dirname(ramanecho.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src_dir, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c",
         _SIZE_RUN.format(limit=SIZE_RUN_BYTES, cases=cases)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(cases)
    for argv, key, line in zip(cases, keys, lines):
        assert line.startswith(f"1 error: {key}"), (argv, line)
        assert line.endswith(" bytes | ") and line.count(" | ") == 1, \
            (argv, line)
    assert not any((tmp_path / f"{key}-{i}" / "out").exists()
                   for _, _, key in SIZE_CASES for i in range(3))


@pytest.mark.parametrize("command", ["check", "simulate"])
def test_integer_keys_are_refused_past_their_digits(tmp_path, capsys,
                                                    command):
    # an integer key of more than MAX_INT_DIGITS digits is refused by key
    # before it is converted, with only the start of its value echoed;
    # one of MAX_INT_DIGITS digits converts, and its ceiling refuses it
    out_dir = tmp_path / "out"
    echoed = repr("9" * SHOWN_CHARS)
    for digits, message in (
            (5000, f"error: [grid] n_z = {echoed}... (5000 characters): "
                   f"expected an integer of at most {MAX_INT_DIGITS} "
                   "digits\n"),
            (MAX_INT_DIGITS, "error: [grid] n_z must be at most ")):
        path = _write_with_value(tmp_path, "recrib_strong", "grid", "n_z",
                                 "9" * digits)
        argv = [command, path] + (["--out", str(out_dir)]
                                  if command == "simulate" else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1 and len(captured.err) < 200
        assert not out_dir.exists()


# one key past its ceiling, or node keys whose product is: (name,
# ensemble keys, key the refusal names); each is refused before the
# builders allocate anything
CEILING_CASES = [
    ("recrib_ideal", {"rule": "gausshermite", "n_nodes": 11_586},
     "[ensemble] n_nodes must be at most 11585"),
    ("recrib_ideal", {"width_21": 0.1, "n_nodes_21": 2 ** 25 + 1},
     "[ensemble] n_nodes_21 must be at most 11585"),
    ("recrib_ideal", {"n_nodes": 2 ** 13, "width_21": 0.1,
                      "n_nodes_21": 2 ** 13},
     "[ensemble] n_nodes x n_nodes_21 must be at most 33554432 nodes"),
    ("reafc_weak", {"n_lines": 2 ** 25 + 1},
     "[ensemble] n_lines must be at most 33554432"),
    ("recrib_ideal", {"n_nodes": 2 ** 20}, "[grid] n_z must be at most 64"),
]


@pytest.mark.parametrize("name,keys,refusal", CEILING_CASES)
def test_size_ceilings_refuse_by_key(name, keys, refusal):
    base = load_scenario(bundled(name))
    scenario = replace(base, ensemble=replace(base.ensemble, **keys))
    with pytest.raises(ValidationError) as caught:
        stage_setups(scenario)
    assert str(caught.value).startswith(refusal + ":")


# every value is refused with an error line of its own; bare_message is
# False where the scenario builders refuse a number whose square would
# overflow a float, and the line then names its key and value
@pytest.mark.parametrize("section,key,value,bare_message", [
    ("medium", "length", "0", True), ("probe", "duration", "0", True),
    ("matching", "omega1", "0", True), ("control1", "rabi", "1e300", True),
    ("control1", "rabi", "-1e300", True),
    ("ensemble", "width", "1e300", False),
    ("probe", "duration", "1e300", False),
    ("control1", "detuning", "1e300", False),
    ("control1", "detuning", "-1e300", False),
    ("control2", "detuning", "1e300", False),
    ("control2", "detuning", "-1e300", False),
    ("probe", "center", "-1e300", False),
    ("probe", "amplitude_scale", "1e300", False)])
def test_simulate_refuses_extreme_values_on_one_line(tmp_path, capsys,
                                                     section, key, value,
                                                     bare_message):
    path = _write_with_value(tmp_path, "recrib_ideal", section, key, value)
    out_dir = tmp_path / "out"
    code = main(["simulate", path, "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    if not bare_message:
        assert captured.err.startswith(f"error: [{section}] {key} = ")
    assert "Traceback" not in captured.err
    assert not out_dir.exists()


# check refuses the same overflowing numbers in the same words, since the
# builders it shares with simulate are where they are read; so too a
# number whose square underflows to 0, which printed numpy warnings from
# the divisions by it before its error line
@pytest.mark.parametrize("section,key,value", [
    ("ensemble", "width", "1e300"), ("probe", "duration", "1e300"),
    ("control1", "detuning", "1e300"), ("control1", "detuning", "-1e300"),
    ("control2", "detuning", "1e300"), ("control2", "detuning", "-1e300"),
    ("control1", "rabi", "1e300"), ("control1", "rabi", "-1e300"),
    ("probe", "center", "-1e300"), ("probe", "amplitude_scale", "1e300"),
    ("ensemble", "width", "1e-320"), ("control1", "detuning", "1e-320"),
    ("control2", "detuning", "-1e-320"), ("control1", "rabi", "1e-320")])
def test_overflowing_scenario_number_names_its_key(tmp_path, capsys,
                                                   section, key, value):
    path = _write_with_value(tmp_path, "recrib_ideal", section, key, value)
    code = main(["check", path])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(f"error: [{section}] {key} = ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


@pytest.mark.parametrize("mode,code", [("mirror", 0), ("flat_top", 1)])
def test_control2_rabi_is_refused_only_where_it_is_read(tmp_path, capsys,
                                                       mode, code):
    """A mirror control2 is the image of control1 and never reads its own
    rabi; a flat_top control2 does, and an overflowing one is refused."""
    base = load_scenario(bundled("recrib_ideal"))
    control2 = replace(base.control1, mode=mode, rabi=1e300, detuning=-60.0)
    path = tmp_path / "edited.ini"
    path.write_text(dump_scenario(replace(base, control2=control2)))
    assert main(["check", str(path)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: [control2] rabi = 1e+300")
        assert err.count("\n") == 1
    else:
        assert err == ""


def _command_exits_1_with(tmp_path, capsys, command, path, message):
    """command on the scenario file exits 1 with the one line
    `error: message` and writes nothing."""
    out_dir = tmp_path / "out"
    argv = [command, str(path)] + (["--out", str(out_dir)]
                                   if command == "simulate" else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""
    assert not out_dir.exists()


# without a control there is nothing to write or read with: a zero Rabi
# frequency is refused by key in both regimes, wherever it is read
@pytest.mark.parametrize("command", ["check", "simulate"])
@pytest.mark.parametrize("name", ["recrib_ideal", "recrib_strong"])
@pytest.mark.parametrize("section", ["control1", "control2"])
def test_zero_control_rabi_is_refused_by_key(tmp_path, capsys, command, name,
                                             section):
    base = load_scenario(bundled(name))
    if section == "control1":
        edited = replace(base, control1=replace(base.control1, rabi=0.0))
    else:
        edited = replace(base, control2=replace(
            base.control1, rabi=0.0, detuning=-base.control1.detuning))
    path = tmp_path / "edited.ini"
    path.write_text(dump_scenario(edited))
    _command_exits_1_with(tmp_path, capsys, command, path,
                          f"[{section}] rabi must be non-zero")


# a negative recall window or dark interval is refused alike by check and
# simulate, before storage; the t2 cases keep their bare command ids
@pytest.mark.parametrize("command,key", [
    pytest.param(command, key,
                 id=command if key == "t2" else f"{command}-{key}")
    for key in ("t2", "gap_time") for command in ("check", "simulate")])
def test_negative_t2_is_refused_by_key(tmp_path, capsys, monkeypatch,
                                       command, key):
    _forbid_storage(monkeypatch)
    path = _write_with_value(tmp_path, "recrib_ideal", "protocol", key,
                             "-1")
    _command_exits_1_with(tmp_path, capsys, command, path,
                          f"{key} must be >= 0")


# a dark interval whose phase max|d21| gap_time overflows is refused by
# key before storage, with no numpy warning; at gap_time 0 the scenario
# runs (n_tau = 801 resolves the 21 spread)
@pytest.mark.parametrize("command", ["check", "simulate"])
def test_overflowing_gap_time_is_refused_by_key(tmp_path, capsys,
                                                monkeypatch, command):
    _forbid_storage(monkeypatch)
    base = load_scenario(bundled("recrib_ideal"))
    edited = replace(
        base,
        ensemble=replace(base.ensemble, width_21=5.0, n_nodes_21=3),
        grid=replace(base.grid, n_tau=801),
        protocol=replace(base.protocol, gap_time=1e308))
    path = tmp_path / "edited.ini"
    path.write_text(dump_scenario(edited))
    _command_exits_1_with(tmp_path, capsys, command, path,
                          "[protocol] gap_time = 1e+308 overflows the "
                          "dark-interval phase")


# a zero coupling is refused by the [medium] key that sets it; a
# single-node Gaussian line has width 0, so its depth cannot set one
@pytest.mark.parametrize("name,section,key,value,message", [
    ("recrib_ideal", "medium", "alpha_eff_l", "0",
     "[medium] alpha_eff_l must be > 0"),
    ("reafc_weak", "medium", "beta", "0", "[medium] beta must be > 0"),
    ("recrib_ideal", "ensemble", "n_nodes", "1",
     "[medium] alpha_eff_l needs a 31 line of non-zero width; "
     "give beta instead")], ids=["alpha_eff_l", "beta", "single_node"])
@pytest.mark.parametrize("command", ["check", "simulate"])
def test_zero_coupling_is_refused_by_its_medium_key(tmp_path, capsys,
                                                    command, name, section,
                                                    key, value, message):
    path = _write_with_value(tmp_path, name, section, key, value)
    _command_exits_1_with(tmp_path, capsys, command, path, message)


# the same refusal by key for the slab, the probe and the comb: the slab
# length is refused on both medium paths (depth and coupling), and a
# reafc scenario needs a comb
@pytest.mark.parametrize("name,section,key,value,message", [
    ("recrib_ideal", "medium", "length", "0", "[medium] length must be > 0"),
    ("reafc_weak", "medium", "length", "0", "[medium] length must be > 0"),
    ("recrib_ideal", "probe", "duration", "0",
     "[probe] duration must be > 0"),
    ("reafc_weak", "ensemble", "shape", "gaussian",
     "[protocol] name = reafc needs [ensemble] shape = comb")],
    ids=["length_depth", "length_beta", "duration", "reafc_gaussian"])
@pytest.mark.parametrize("command", ["check", "simulate"])
def test_invalid_value_is_refused_by_its_scenario_key(tmp_path, capsys,
                                                      command, name, section,
                                                      key, value, message):
    path = _write_with_value(tmp_path, name, section, key, value)
    _command_exits_1_with(tmp_path, capsys, command, path, message)


def _write_with_line(tmp_path, name, section, line):
    """The bundled scenario `name` with one line added after [section]."""
    with open(bundled(name)) as fh:
        text = fh.read()
    path = tmp_path / "edited.ini"
    path.write_text(text.replace(f"[{section}]\n", f"[{section}]\n{line}\n"))
    return path


# the comb spacing has one key, [ensemble] spacing: an older file that
# still states it under [protocol] is refused by the parser
@pytest.mark.parametrize("command", ["check", "simulate"])
def test_comb_spacing_key_is_unknown(tmp_path, capsys, command):
    path = _write_with_line(tmp_path, "reafc_weak", "protocol",
                            "comb_spacing = 1.0")
    _command_exits_1_with(tmp_path, capsys, command, path,
                          "[protocol] unknown key(s): comb_spacing")


# both regimes derive the recall protocol before they check or run, so
# check refuses a comb echo that is already due during storage exactly
# as simulate does
@pytest.mark.parametrize("regime", ["weak", "strong"])
@pytest.mark.parametrize("command", ["check", "simulate"])
def test_non_causal_comb_echo_is_refused_in_both_regimes(tmp_path, capsys,
                                                         command, regime):
    path = _write_with_line(tmp_path, "reafc_weak", "protocol", "t1 = 7.0")
    path.write_text(path.read_text().replace(
        "regime = weak", f"regime = {regime}"))
    t2 = 2.0 * math.pi - 7.0
    _command_exits_1_with(
        tmp_path, capsys, command, path,
        f"rephasing order k=1 already passed during storage (t2={t2:.6g}); "
        "try k >= 2")


def test_check_with_an_overflowing_rabi_prints_one_line(tmp_path):
    """Outside pytest no warning is captured: the refusal is all that
    reaches stderr."""
    path = _write_with_value(tmp_path, "recrib_ideal", "control1", "rabi",
                             "1e300")
    src_dir = os.path.dirname(os.path.dirname(ramanecho.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src_dir, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "ramanecho", "check", path],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: [control1] rabi = 1e+300")
    assert proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_check_refuses_what_simulate_refuses_before_storage(tmp_path,
                                                           capsys):
    """A probe centred on the stage start is cut at tau = 0: the storage
    checks refuse it, in check as in simulate, before anything is
    stepped."""
    path = _write_with_value(tmp_path, "recrib_ideal", "probe", "center",
                             "0.0")
    out_dir = tmp_path / "out"
    assert main(["simulate", path, "--out", str(out_dir)]) == 1
    simulated = capsys.readouterr()
    assert main(["check", path]) == 1
    checked = capsys.readouterr()
    assert checked.err.startswith(
        "error: probe support extends outside the control window")
    assert checked.err.count("\n") == 1
    assert checked == simulated
    assert checked.out == ""
    assert not out_dir.exists()


def test_incomplete_absorption_warning_prints_one_line(tmp_path):
    """Outside pytest, a warning reaches stderr as one line and the run
    still exits 0."""
    path = _write_with_value(tmp_path, "recrib_ideal", "medium",
                             "alpha_eff_l", "1.0")
    src_dir = os.path.dirname(os.path.dirname(ramanecho.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src_dir, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "ramanecho", "simulate", path,
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stderr.startswith("warning: transmitted fraction")
    assert proc.stderr.count("\n") == 1


def test_comb_ensemble_ignores_an_overflowing_gaussian_width(tmp_path,
                                                             capsys):
    """A comb never reads [ensemble] width, so no value of it is refused."""
    assert main(["check", bundled("reafc_weak")]) == 0
    expected = capsys.readouterr()
    path = _write_with_value(tmp_path, "reafc_weak", "ensemble", "width",
                             "1e300")
    assert main(["check", path]) == 0
    assert capsys.readouterr() == expected


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


@pytest.mark.parametrize("option,value", [
    ("--alpha0L", "nan"), ("--alpha0L", "inf"), ("--alpha0L", "50,nan"),
    ("--total-time", "nan"), ("--total-time", "inf"),
    ("--gamma", "0:1:nan"), ("--gamma", "0:inf:0.1")])
def test_sweep_refuses_non_finite_arguments(tmp_path, capsys, option, value):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", option, value, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert option in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv,key", [
    (["--total-time", "1e200"], "total_time"),
    (["--protocol", "reafc", "--alpha0L", "1e308"], "alpha0L")])
def test_sweep_refuses_an_overflowing_value_by_key(tmp_path, capsys, argv,
                                                   key):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", *argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "internal error" not in captured.err
    assert captured.err.startswith(f"error: {key} ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_sweep_refuses_an_optimum_that_rounds_to_zero(tmp_path, capsys):
    # the row at gamma 0.75 is 2.9e-48, but the located peak rounds to 0
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--protocol", "recrib", "--alpha0L", "1e-16",
                 "--gamma", "0:1:0.25", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: recrib efficiency rounds to 0")
    assert "alpha0L=1e-16" in captured.err
    assert "total_time=8.0" in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_a_sweep_failing_after_rows_streamed_leaves_the_target(tmp_path,
                                                              capsys):
    # the first trace's rows are written to the temp file before the
    # second trace's optimum, at alpha0L 1e-16, raises
    out = tmp_path / "sweep.csv"
    before = b"protocol,alpha0L,gamma,epsilon\nkept\n"
    out.write_bytes(before)
    code = main(["sweep", "--alpha0L", "50,1e-16", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: recrib efficiency rounds to 0")
    assert captured.err.count("\n") == 1
    assert out.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]


def test_artifacts_get_the_mode_the_umask_leaves(tmp_path, capsys):
    # a simulate run's four artifacts (written as `simulate` writes them,
    # from one run), dump-defaults and sweep, as open(path, "w") would
    # create them
    result = run_scenario(load_scenario(bundled("recrib_ideal")))
    previous = os.umask(0o022)
    try:
        for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
            os.umask(umask)
            out = tmp_path / f"umask-{umask:03o}"
            write_outputs(result, str(out / "run"))
            assert main(["dump-defaults",
                         "--out", str(out / "defaults.ini")]) == 0
            assert main(["sweep", "--gamma", "0:1:0.5",
                         "--out", str(out / "sweep.csv")]) == 0
            written = [p for p in out.rglob("*") if p.is_file()]
            assert len(written) == 6
            assert {stat.S_IMODE(p.stat().st_mode)
                    for p in written} == {mode}, oct(umask)
    finally:
        os.umask(previous)
    capsys.readouterr()


@pytest.mark.parametrize("step", ["1e-300", "1e-320"])
def test_sweep_refuses_a_gamma_grid_too_large_to_build(tmp_path, capsys,
                                                       step):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--gamma", f"0:1:{step}", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: --gamma ")
    assert str(MAX_GAMMA_POINTS) in captured.err
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_largest_gamma_grid_is_accepted():
    grid = parse_gamma_range("0:1:1e-6")
    assert grid.size == MAX_GAMMA_POINTS
    assert grid[0] == 0.0 and grid[-1] == 1.0


def test_default_sweep_builds_two_models_per_trace(tmp_path, capsys,
                                                   monkeypatch):
    built = []
    post_init = EfficiencyModel.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(EfficiencyModel, "__post_init__", counted)
    assert main(["sweep", "--out", str(tmp_path / "sweep.csv")]) == 0
    assert "6 traces" in capsys.readouterr().out
    assert len(built) <= 2 * 6


def test_sweep_holds_one_trace_at_a_time(tmp_path, capsys, monkeypatch):
    # cmd_sweep builds each trace as the writer reaches it: when a trace
    # is built, every trace built before it has been freed.  A depth
    # given twice is still one trace per protocol
    tables, live_at_build = [], []
    sweep_gamma = cli.sweep_gamma

    def tracked(*args, **kwargs):
        live_at_build.append(sum(ref() is not None for ref in tables))
        table = sweep_gamma(*args, **kwargs)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(cli, "sweep_gamma", tracked)
    path = tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha0L", "50,200,50", "--out", str(path)]) == 0
    assert "4 traces, 1001 points each" in capsys.readouterr().out
    assert live_at_build == [0, 0, 0, 0]
    assert path.read_text().count("# optimal") == 4


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


@pytest.mark.parametrize("args", [
    ["--t1", "1", "--delta-comb", "1e-308"],               # inf
    ["--t1", "1", "--delta-comb", "1", "--f2", "1e-320"],  # inf
    ["--t1", "1e308", "--f1", "10", "--delta-comb", "1e-308"],  # inf - inf
    ["--t1", "1", "--delta-comb", "1", "--k", "1" + "0" * 400],  # no float
])
def test_echo_time_refuses_an_overflowed_time(capsys, args):
    # finite arguments whose t2 overflows; a nan t2 would also pass the
    # causality check, since nan <= 0 is false.  An order k beyond the
    # float range cannot even form 2 pi k / delta_comb, and is refused by
    # name instead of reaching the CLI as an internal OverflowError
    code = main(["echo-time", *args])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    if "--k" in args:
        assert captured.err.startswith("error: k is too large: a 401-digit")
    else:
        assert captured.err.startswith("error: echo time t2 = ")
        assert "not finite" in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("option", ["--f1", "--f2", "--t1", "--delta-comb"])
def test_echo_time_refuses_non_finite_numbers(capsys, option, value):
    args = {"--f1": "1.0", "--f2": "1.0", "--t1": "1.0", "--delta-comb": "1.0"}
    args[option] = value
    code = main(["echo-time", *(part for item in args.items()
                                for part in item)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert option in captured.err


# each option that takes one value, after the arguments its subcommand
# needs besides it
LONG_VALUE_ARGV = {
    "--k": ["echo-time", "--t1", "1", "--delta-comb", "1"],
    "--t1": ["echo-time", "--delta-comb", "1"],
    "--f1": ["echo-time", "--t1", "1", "--delta-comb", "1"],
    "--f2": ["echo-time", "--t1", "1", "--delta-comb", "1"],
    "--delta-comb": ["echo-time", "--t1", "1"],
    "--total-time": ["sweep"],
    "--alpha0L": ["sweep"],
    "--gamma": ["sweep"],
}


@pytest.mark.parametrize("option", sorted(LONG_VALUE_ARGV))
def test_a_refused_long_value_is_echoed_cut(tmp_path, capsys, option):
    # a 5,000-digit value is refused on one short line, which echoes at
    # most SHOWN_CHARS of it, as a scenario key's refusal does
    out = tmp_path / "sweep.csv"
    argv = LONG_VALUE_ARGV[option]
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(out)]
    code = main([*argv, option, "9" * 5000])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: ") and option in lines[0]
    assert f"{'9' * SHOWN_CHARS!r}... (5000 characters)" in lines[0]
    assert len(lines[0]) <= 128, lines[0]
    assert not out.exists()


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


@pytest.mark.parametrize("name", ["recrib_ideal", "recrib_strong",
                                  "reafc_weak"])
def test_simulate_output_does_not_depend_on_blas_threads(tmp_path, name):
    # both solvers' node sums and their Z quadrature are BLAS products
    # only while small enough for OpenBLAS to run them on one thread; a
    # larger BLAS reduction can change its last bits with the thread count
    src_dir = os.path.dirname(os.path.dirname(ramanecho.__file__))
    scenario = os.path.abspath(bundled(name))
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


@pytest.mark.parametrize("name", ["recrib_ideal", "recrib_strong"])
def test_simulate_builds_each_control_once(tmp_path, capsys, monkeypatch,
                                           name):
    built = []
    post_init = core.ControlProfile.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(core.ControlProfile, "__post_init__", counting)
    assert main(["simulate", bundled(name),
                 "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()
    assert len(built) == 2


def test_reafc_scenario_echo_arrives_on_the_comb_clock():
    scenario = load_scenario(bundled("reafc_weak"))
    result = run_scenario(scenario)
    dt2 = result.record.tau_echo[1] - result.record.tau_echo[0]
    assert abs(result.record.echo_peak_time - math.pi) <= dt2
    assert result.efficiency > 0.5
    assert result.fidelity > 0.9


# ---------------------------------------------------------------------------
# scripts
# ---------------------------------------------------------------------------

SCRIPT_DIR = os.path.join(os.path.dirname(__file__), "..", "scripts")


def _run_script(name, cwd, *args):
    src_dir = os.path.dirname(os.path.dirname(ramanecho.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src_dir, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPT_DIR, name), *args],
        cwd=cwd, env=env, capture_output=True, text=True)


def test_recrib_demo_script_runs_the_bundled_scenarios(tmp_path):
    proc = _run_script("recrib_demo.py", tmp_path, "--out-root", "runs")
    assert proc.returncode == 0, proc.stderr
    assert "=== recrib_broken_iv ===\nrefused: " in proc.stdout
    for name in ("recrib_ideal", "recrib_strong", "reafc_weak"):
        assert f"=== {name} ===\nprotocol=" in proc.stdout
        assert sorted(os.listdir(tmp_path / "runs" / name)) == [
            "conditions.txt", "echo.csv", "input.csv", "summary.txt"]
    assert not (tmp_path / "runs" / "recrib_broken_iv").exists()


def test_fig2_sweep_script_writes_six_traces(tmp_path):
    proc = _run_script("fig2_sweep.py", tmp_path, "--out", "sweep.csv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "wrote sweep.csv"
    with open(tmp_path / "sweep.csv") as fh:
        rows = [line for line in fh
                if line.strip() and not line.startswith(("#", "protocol"))]
    assert len(rows) == 6 * 1001
