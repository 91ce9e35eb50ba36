"""Scenario files: the human-editable surface tying one run together.

A scenario is an INI document with named sections mirroring the core
types.  Every physics input is explicit and reviewable; there is no
randomness anywhere, so a scenario fully determines its outputs.  The
parser is strict: unknown sections or keys, malformed numbers, and
missing required sections all raise ParseError naming the location.

Optional keys may be left blank ("key =") to request the documented
derived default; dump_scenario writes every key back out, so a dumped
scenario reloads to an identical configuration.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, replace

from .conditions import PhaseMatching, ProtocolConfig, StageSetup
from .core import (
    ControlProfile,
    EnsembleSpec,
    Grid,
    MediumSpec,
    ProbeSpec,
    build_comb_ensemble,
    build_gaussian_ensemble,
)
from .errors import ParseError, ValidationError
from .numerics import write_text_atomic

REGIMES = ("weak", "strong")
CONTROL2_MODES = ("mirror", "flat_top")


@dataclass(frozen=True)
class RunSection:
    regime: str = "weak"
    label: str = "recrib_ideal"
    out_dir: str = "runs/recrib_ideal"


@dataclass(frozen=True)
class EnsembleSection:
    """Gaussian line (width/n_nodes/rule) or comb (spacing/tooth_width/
    n_lines/nodes_per_tooth); the unused family's keys are ignored by the
    builder but still round-trip."""

    shape: str = "gaussian"
    width: float = 1.0
    n_nodes: int = 65
    rule: str = "uniform"
    width_21: float = 0.0
    n_nodes_21: int = 1
    spacing: float = 1.0
    tooth_width: float = 0.05
    n_lines: int = 21
    nodes_per_tooth: int = 5


@dataclass(frozen=True)
class MediumSection:
    """Give exactly one of alpha_eff_l (line-center depth, Gaussian line)
    or beta (composite coupling, any line shape)."""

    alpha_eff_l: float | None = 20.0
    beta: float | None = None
    length: float = 1.0


@dataclass(frozen=True)
class ProbeSection:
    center: float = 12.0
    duration: float = 2.0
    amplitude_scale: float = 1.0


@dataclass(frozen=True)
class ControlSection:
    """Blank rise_time means the flat_top default (5% of the window).

    For [control2] only: mode "mirror" builds the time-reversed image of
    control1 about `anchor` (blank: control1 switch_off) with `detuning`
    (blank: -detuning1), ignoring the envelope keys; mode "flat_top"
    reads them like [control1].
    """

    mode: str = "mirror"
    rabi: float = 60.0
    detuning: float | None = 60.0
    switch_on: float = 0.0
    switch_off: float = 24.0
    rise_time: float | None = None
    anchor: float | None = None


@dataclass(frozen=True)
class ProtocolSection:
    """Blank t1 derives switch_off1 - probe center; blank t2 derives t1
    for recrib and the comb rephasing time for reafc."""

    name: str = "recrib"
    t1: float | None = None
    t2: float | None = None
    comb_spacing: float = 0.0
    k: int = 1
    strict: bool = False
    gap_time: float = 0.0


@dataclass(frozen=True)
class GridSection:
    """Blank n_tau2/t_end2 reuse the stage-1 values."""

    n_tau: int = 385
    n_z: int = 65
    t_end: float = 24.0
    n_tau2: int | None = None
    t_end2: float | None = None


@dataclass(frozen=True)
class MatchingSection:
    """Probe carrier and echo carrier (blank: omega1 + 2 detuning1 f1),
    fed to the backward phase-matched geometry; explicit k1z/k2z override
    it for deliberately mismatched setups."""

    omega1: float = 1.0e5
    omega2: float | None = None
    k1z: float | None = None
    k2z: float | None = None


@dataclass(frozen=True)
class Scenario:
    run: RunSection = RunSection()
    ensemble: EnsembleSection = EnsembleSection()
    medium: MediumSection = MediumSection()
    probe: ProbeSection = ProbeSection()
    control1: ControlSection = ControlSection(mode="flat_top")
    control2: ControlSection = ControlSection(mode="mirror", detuning=None)
    protocol: ProtocolSection = ProtocolSection()
    grid: GridSection = GridSection()
    matching: MatchingSection = MatchingSection()


def default_scenario() -> Scenario:
    """The bundled reference configuration (deep linear RECRIB recall)."""
    return Scenario()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_SECTIONS = ("run", "ensemble", "medium", "probe", "control1", "control2",
             "protocol", "grid", "matching")


def _fail(section: str, key: str, value: str, want: str):
    raise ParseError(f"[{section}] {key} = {value!r}: expected {want}")


def _get_str(sec, section, key, default, choices=None):
    raw = sec.get(key, None)
    value = default if raw is None or raw == "" else raw.strip()
    if choices is not None and value not in choices:
        _fail(section, key, value, "one of " + "/".join(choices))
    return value


def _get_float(sec, section, key, default):
    raw = sec.get(key, None)
    if raw is None or raw.strip() == "":
        return default
    try:
        value = float(raw)
    except ValueError:
        _fail(section, key, raw, "a number")
    if not math.isfinite(value):
        _fail(section, key, raw, "a finite number")
    return value


def _get_int(sec, section, key, default):
    raw = sec.get(key, None)
    if raw is None or raw.strip() == "":
        return default
    try:
        return int(raw)
    except ValueError:
        _fail(section, key, raw, "an integer")


def _get_bool(sec, section, key, default):
    raw = sec.get(key, None)
    if raw is None or raw.strip() == "":
        return default
    states = configparser.ConfigParser.BOOLEAN_STATES
    try:
        return states[raw.strip().lower()]
    except KeyError:
        _fail(section, key, raw, "a boolean")


def _check_keys(parser, section, allowed):
    if not parser.has_section(section):
        return {}
    sec = parser[section]
    unknown = sorted(set(sec) - set(allowed))
    if unknown:
        raise ParseError(
            f"[{section}] unknown key(s): {', '.join(unknown)}")
    return sec


def parse_scenario(text: str, origin: str = "<string>") -> Scenario:
    """Parse scenario text; ParseError carries the failing location."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc

    unknown = sorted(set(parser.sections()) - set(_SECTIONS))
    if unknown:
        raise ParseError(f"unknown section(s): {', '.join(unknown)}")
    if not parser.has_section("run"):
        raise ParseError(f"{origin}: missing required section [run]")

    sec = _check_keys(parser, "run", ("regime", "label", "out_dir"))
    d = RunSection()
    run = RunSection(
        regime=_get_str(sec, "run", "regime", d.regime, REGIMES),
        label=_get_str(sec, "run", "label", d.label),
        out_dir=_get_str(sec, "run", "out_dir", d.out_dir))

    sec = _check_keys(parser, "ensemble", (
        "shape", "width", "n_nodes", "rule", "width_21", "n_nodes_21",
        "spacing", "tooth_width", "n_lines", "nodes_per_tooth"))
    d = EnsembleSection()
    ensemble = EnsembleSection(
        shape=_get_str(sec, "ensemble", "shape", d.shape,
                       ("gaussian", "comb")),
        width=_get_float(sec, "ensemble", "width", d.width),
        n_nodes=_get_int(sec, "ensemble", "n_nodes", d.n_nodes),
        rule=_get_str(sec, "ensemble", "rule", d.rule,
                      ("gausshermite", "uniform")),
        width_21=_get_float(sec, "ensemble", "width_21", d.width_21),
        n_nodes_21=_get_int(sec, "ensemble", "n_nodes_21", d.n_nodes_21),
        spacing=_get_float(sec, "ensemble", "spacing", d.spacing),
        tooth_width=_get_float(sec, "ensemble", "tooth_width",
                               d.tooth_width),
        n_lines=_get_int(sec, "ensemble", "n_lines", d.n_lines),
        nodes_per_tooth=_get_int(sec, "ensemble", "nodes_per_tooth",
                                 d.nodes_per_tooth))

    sec = _check_keys(parser, "medium", ("alpha_eff_l", "beta", "length"))
    d = MediumSection()
    medium = MediumSection(
        alpha_eff_l=_get_float(sec, "medium", "alpha_eff_l", None),
        beta=_get_float(sec, "medium", "beta", None),
        length=_get_float(sec, "medium", "length", d.length))
    if medium.alpha_eff_l is None and medium.beta is None:
        medium = replace(medium, alpha_eff_l=d.alpha_eff_l)
    if medium.alpha_eff_l is not None and medium.beta is not None:
        raise ParseError("[medium] give alpha_eff_l or beta, not both")

    sec = _check_keys(parser, "probe",
                      ("center", "duration", "amplitude_scale"))
    d = ProbeSection()
    probe = ProbeSection(
        center=_get_float(sec, "probe", "center", d.center),
        duration=_get_float(sec, "probe", "duration", d.duration),
        amplitude_scale=_get_float(sec, "probe", "amplitude_scale",
                                   d.amplitude_scale))

    control_keys = ("mode", "rabi", "detuning", "switch_on", "switch_off",
                    "rise_time", "anchor")

    def control(section, default):
        sec = _check_keys(parser, section, control_keys)
        return ControlSection(
            mode=_get_str(sec, section, "mode", default.mode,
                          CONTROL2_MODES),
            rabi=_get_float(sec, section, "rabi", default.rabi),
            detuning=_get_float(sec, section, "detuning", default.detuning),
            switch_on=_get_float(sec, section, "switch_on",
                                 default.switch_on),
            switch_off=_get_float(sec, section, "switch_off",
                                  default.switch_off),
            rise_time=_get_float(sec, section, "rise_time",
                                 default.rise_time),
            anchor=_get_float(sec, section, "anchor", default.anchor))

    control1 = control("control1", ControlSection(mode="flat_top"))
    if control1.mode != "flat_top":
        raise ParseError("[control1] mode must be flat_top")
    if control1.detuning is None:
        raise ParseError("[control1] detuning is required")
    control2 = control("control2", ControlSection(mode="mirror",
                                                  detuning=None))

    sec = _check_keys(parser, "protocol", (
        "name", "t1", "t2", "comb_spacing", "k", "strict", "gap_time"))
    d = ProtocolSection()
    protocol = ProtocolSection(
        name=_get_str(sec, "protocol", "name", d.name, ("recrib", "reafc")),
        t1=_get_float(sec, "protocol", "t1", d.t1),
        t2=_get_float(sec, "protocol", "t2", d.t2),
        comb_spacing=_get_float(sec, "protocol", "comb_spacing",
                                d.comb_spacing),
        k=_get_int(sec, "protocol", "k", d.k),
        strict=_get_bool(sec, "protocol", "strict", d.strict),
        gap_time=_get_float(sec, "protocol", "gap_time", d.gap_time))

    sec = _check_keys(parser, "grid",
                      ("n_tau", "n_z", "t_end", "n_tau2", "t_end2"))
    d = GridSection()
    grid = GridSection(
        n_tau=_get_int(sec, "grid", "n_tau", d.n_tau),
        n_z=_get_int(sec, "grid", "n_z", d.n_z),
        t_end=_get_float(sec, "grid", "t_end", d.t_end),
        n_tau2=_get_int(sec, "grid", "n_tau2", d.n_tau2),
        t_end2=_get_float(sec, "grid", "t_end2", d.t_end2))

    sec = _check_keys(parser, "matching", ("omega1", "omega2", "k1z", "k2z"))
    d = MatchingSection()
    matching = MatchingSection(
        omega1=_get_float(sec, "matching", "omega1", d.omega1),
        omega2=_get_float(sec, "matching", "omega2", d.omega2),
        k1z=_get_float(sec, "matching", "k1z", d.k1z),
        k2z=_get_float(sec, "matching", "k2z", d.k2z))

    return Scenario(run=run, ensemble=ensemble, medium=medium, probe=probe,
                    control1=control1, control2=control2, protocol=protocol,
                    grid=grid, matching=matching)


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read scenario file: {exc}") from exc
    return parse_scenario(text, origin=path)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # repr is the shortest digit string that reparses to the same
        # float, friendlier to hand edits than a fixed 17 digits
        return repr(value)
    return str(value)


def dump_scenario(scenario: Scenario) -> str:
    """Canonical text form; parse_scenario(dump_scenario(s)) == s."""
    sc = scenario
    blocks = (
        ("run", (("regime", sc.run.regime), ("label", sc.run.label),
                 ("out_dir", sc.run.out_dir))),
        ("ensemble", (
            ("shape", sc.ensemble.shape), ("width", sc.ensemble.width),
            ("n_nodes", sc.ensemble.n_nodes), ("rule", sc.ensemble.rule),
            ("width_21", sc.ensemble.width_21),
            ("n_nodes_21", sc.ensemble.n_nodes_21),
            ("spacing", sc.ensemble.spacing),
            ("tooth_width", sc.ensemble.tooth_width),
            ("n_lines", sc.ensemble.n_lines),
            ("nodes_per_tooth", sc.ensemble.nodes_per_tooth))),
        ("medium", (("alpha_eff_l", sc.medium.alpha_eff_l),
                    ("beta", sc.medium.beta),
                    ("length", sc.medium.length))),
        ("probe", (("center", sc.probe.center),
                   ("duration", sc.probe.duration),
                   ("amplitude_scale", sc.probe.amplitude_scale))),
        ("control1", (
            ("mode", sc.control1.mode), ("rabi", sc.control1.rabi),
            ("detuning", sc.control1.detuning),
            ("switch_on", sc.control1.switch_on),
            ("switch_off", sc.control1.switch_off),
            ("rise_time", sc.control1.rise_time),
            ("anchor", sc.control1.anchor))),
        ("control2", (
            ("mode", sc.control2.mode), ("rabi", sc.control2.rabi),
            ("detuning", sc.control2.detuning),
            ("switch_on", sc.control2.switch_on),
            ("switch_off", sc.control2.switch_off),
            ("rise_time", sc.control2.rise_time),
            ("anchor", sc.control2.anchor))),
        ("protocol", (
            ("name", sc.protocol.name), ("t1", sc.protocol.t1),
            ("t2", sc.protocol.t2),
            ("comb_spacing", sc.protocol.comb_spacing),
            ("k", sc.protocol.k), ("strict", sc.protocol.strict),
            ("gap_time", sc.protocol.gap_time))),
        ("grid", (("n_tau", sc.grid.n_tau), ("n_z", sc.grid.n_z),
                  ("t_end", sc.grid.t_end), ("n_tau2", sc.grid.n_tau2),
                  ("t_end2", sc.grid.t_end2))),
        ("matching", (("omega1", sc.matching.omega1),
                      ("omega2", sc.matching.omega2),
                      ("k1z", sc.matching.k1z), ("k2z", sc.matching.k2z))),
    )
    lines = []
    for section, pairs in blocks:
        lines.append(f"[{section}]")
        for key, value in pairs:
            lines.append(f"{key} = {_cell(value)}")
        lines.append("")
    return "\n".join(lines)


def write_scenario(scenario: Scenario, path: str) -> None:
    write_text_atomic(path, dump_scenario(scenario))


# ---------------------------------------------------------------------------
# builders: scenario sections to core objects
# ---------------------------------------------------------------------------

def build_ensemble(sc: Scenario) -> EnsembleSpec:
    e = sc.ensemble
    if e.shape == "comb":
        return build_comb_ensemble(spacing=e.spacing,
                                   tooth_width=e.tooth_width,
                                   n_lines=e.n_lines,
                                   nodes_per_tooth=e.nodes_per_tooth)
    return build_gaussian_ensemble(width=e.width, n_nodes=e.n_nodes,
                                   rule=e.rule, width_21=e.width_21,
                                   n_nodes_21=e.n_nodes_21)


def build_medium(sc: Scenario, ensemble: EnsembleSpec) -> MediumSpec:
    m = sc.medium
    if m.beta is not None:
        return MediumSpec(coupling_beta=m.beta, length_L=m.length)
    return MediumSpec.from_alpha_eff(m.alpha_eff_l,
                                     line_width_31=ensemble.line_width_31(),
                                     length_L=m.length)


def build_probe(sc: Scenario) -> ProbeSpec:
    p = sc.probe
    return ProbeSpec.gaussian(center=p.center, duration=p.duration,
                              amplitude_scale=p.amplitude_scale)


def build_controls(sc: Scenario) -> tuple[ControlProfile, ControlProfile]:
    c1 = sc.control1
    ctl1 = ControlProfile.flat_top(rabi=c1.rabi, detuning=c1.detuning,
                                   switch_on=c1.switch_on,
                                   switch_off=c1.switch_off,
                                   rise_time=c1.rise_time)
    c2 = sc.control2
    if c2.mode == "mirror":
        anchor = c1.switch_off if c2.anchor is None else c2.anchor
        detuning = -c1.detuning if c2.detuning is None else c2.detuning
        ctl2 = ctl1.time_reversed(anchor=anchor, detuning=detuning)
    else:
        if c2.detuning is None:
            raise ValidationError("[control2] flat_top needs a detuning")
        ctl2 = ControlProfile.flat_top(rabi=c2.rabi, detuning=c2.detuning,
                                       switch_on=c2.switch_on,
                                       switch_off=c2.switch_off,
                                       rise_time=c2.rise_time)
    return ctl1, ctl2


def build_grids(sc: Scenario) -> tuple[Grid, Grid]:
    g = sc.grid
    grid1 = Grid(n_tau=g.n_tau, n_z=g.n_z, t_end=g.t_end,
                 length=sc.medium.length)
    grid2 = Grid(n_tau=g.n_tau if g.n_tau2 is None else g.n_tau2,
                 n_z=g.n_z,
                 t_end=g.t_end if g.t_end2 is None else g.t_end2,
                 length=sc.medium.length)
    return grid1, grid2


def build_matching(sc: Scenario, ctl1: ControlProfile) -> PhaseMatching:
    m = sc.matching
    omega2 = m.omega2
    if omega2 is None:
        omega2 = m.omega1 + 2.0 * ctl1.one_photon_detuning * ctl1.peak_f()
    matched = PhaseMatching.backward_matched(omega1=m.omega1, omega2=omega2)
    k1z = matched.K1z if m.k1z is None else m.k1z
    k2z = matched.K2z if m.k2z is None else m.k2z
    return PhaseMatching(K1z=k1z, K2z=k2z, omega1=m.omega1, omega2=omega2)


def build_protocol(sc: Scenario, ctl1: ControlProfile,
                   ctl2: ControlProfile) -> ProtocolConfig:
    p = sc.protocol
    t1 = p.t1 if p.t1 is not None else ctl1.switch_off - sc.probe.center
    if t1 < 0:
        raise ValidationError(
            "probe center lies after control1 switch-off; t1 < 0")
    proto = ProtocolConfig(protocol=p.name, t1=t1, t2=p.t2,
                           matching=build_matching(sc, ctl1),
                           comb_spacing=p.comb_spacing, k=p.k,
                           strict=p.strict)
    if proto.t2 is None:
        t2 = proto.expected_echo_time(ctl1.peak_f(), ctl2.peak_f())
        proto = replace(proto, t2=t2)
    return proto


def stage_setups(sc: Scenario) -> tuple[StageSetup, StageSetup]:
    """Condition-checker view of the two stages.

    The shared reversal clock puts its origin at the stage-2 reading
    onset, i.e. stage-1 times are shifted by the mirror anchor (mirror
    mode) or by control1 switch-off (explicit stage-2 control).
    """
    ens = build_ensemble(sc)
    med = build_medium(sc, ens)
    probe = build_probe(sc)
    ctl1, ctl2 = build_controls(sc)
    matching = build_matching(sc, ctl1)
    if sc.control2.mode == "mirror" and sc.control2.anchor is not None:
        offset1 = sc.control2.anchor
    else:
        offset1 = ctl1.switch_off
    if sc.protocol.name == "recrib":
        ens2 = ens.inverted()
    else:
        ens2 = ens
    stage1 = StageSetup(control=ctl1, ensemble=ens, probe=probe,
                        matching=matching, beta=med.coupling_beta,
                        clock_offset=offset1)
    stage2 = StageSetup(control=ctl2, ensemble=ens2, probe=None,
                        matching=matching, beta=med.coupling_beta,
                        clock_offset=0.0)
    return stage1, stage2
