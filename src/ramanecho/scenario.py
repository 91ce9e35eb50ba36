"""Scenario files: the human-editable surface tying one run together.

A scenario is an INI document with named sections mirroring the core
types.  Every physics input is explicit and reviewable; there is no
randomness anywhere, so a scenario fully determines its outputs.  The
section dataclasses below are the only schema: the parser and the dumper
walk their fields, so a new key is a new field.  The parser is strict:
unknown sections or keys, malformed numbers, and missing required
sections all raise ParseError naming the location.

Optional keys may be left blank ("key =") to request the documented
derived default; dump_scenario writes every key back out, so a dumped
scenario reloads to an identical configuration.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace

from .conditions import PhaseMatching, ProtocolConfig, StageSetup, echo_carrier
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

REGIMES = ("weak", "strong")
CONTROL2_MODES = ("mirror", "flat_top")

# the most bytes one array of a run may take; check_sizes holds every
# size key to it
MAX_ARRAY_BYTES = 2 ** 30

# the most digits an integer key may have: Python's own default limit on
# converting text to an integer (sys.int_info.default_max_str_digits),
# held here so that the refusal, and the cost of the conversion, do not
# depend on the interpreter's setting.  Every size key's ceiling has far
# fewer digits, and check_sizes names it
MAX_INT_DIGITS = 4300

# how much of a refused value an error message echoes
SHOWN_CHARS = 40


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
    """Blank t1 derives switch_off1 - probe center; blank t2 derives
    f1 t1 / f2 at the controls' peak f for recrib (t1 on mirrored
    controls) and the comb rephasing time for reafc."""

    name: str = "recrib"
    t1: float | None = None
    t2: float | None = None
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
    """Probe carrier omega1 and echo carrier omega2, fed to the backward
    phase-matched geometry; explicit k1z/k2z override it for deliberately
    mismatched setups.  Blank omega2 is the two-photon resonance of both
    stages, conditions.echo_carrier: omega1 + (carrier2 - carrier1) +
    detuning1 f1 - detuning2 f2 at the controls' peak f, which is
    omega1 + 2 detuning1 f1 for a mirrored control2."""

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

# a section per Scenario field, a key per section field, typed by its
# annotation; the string keys listed here take one of the given values
CHOICES = {
    ("run", "regime"): REGIMES,
    ("ensemble", "shape"): ("gaussian", "comb"),
    ("ensemble", "rule"): ("gausshermite", "uniform"),
    ("control1", "mode"): CONTROL2_MODES,
    ("control2", "mode"): CONTROL2_MODES,
    ("protocol", "name"): ("recrib", "reafc"),
}


def _shown(value: str) -> str:
    """A refused value as an error message echoes it: its repr, cut to
    its first SHOWN_CHARS characters when it is longer."""
    if len(value) > SHOWN_CHARS:
        return f"{value[:SHOWN_CHARS]!r}... ({len(value)} characters)"
    return repr(value)


def _fail(section: str, key: str, value: str, want: str):
    """Refuse a raw value by key, echoing at most SHOWN_CHARS of it."""
    raise ParseError(f"[{section}] {key} = {_shown(value)}: expected {want}")


def _value(section: str, key, raw: str):
    """A non-blank INI value converted to the type of the field `key`."""
    kind = key.type.removesuffix(" | None")
    if kind == "str":
        choices = CHOICES.get((section, key.name))
        if choices is not None and raw not in choices:
            _fail(section, key.name, raw, "one of " + "/".join(choices))
        return raw
    if kind == "bool":
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        except KeyError:
            _fail(section, key.name, raw, "a boolean")
    if kind == "int":
        if sum(map(str.isdigit, raw)) > MAX_INT_DIGITS:
            _fail(section, key.name, raw,
                  f"an integer of at most {MAX_INT_DIGITS} digits")
        try:
            return int(raw)
        except ValueError:
            _fail(section, key.name, raw, "an integer")
    try:
        value = float(raw)
    except ValueError:
        _fail(section, key.name, raw, "a number")
    if not math.isfinite(value):
        _fail(section, key.name, raw, "a finite number")
    return value


def _given(parser, section: str, keys) -> dict:
    """The section's non-blank values by key; blank or absent keys keep
    the documented default."""
    if not parser.has_section(section):
        return {}
    sec = parser[section]
    unknown = sorted(set(sec) - {key.name for key in keys})
    if unknown:
        raise ParseError(
            f"[{section}] unknown key(s): {', '.join(unknown)}")
    given = {}
    for key in keys:
        raw = sec.get(key.name, "").strip()
        if raw:
            given[key.name] = _value(section, key, raw)
    return given


def parse_scenario(text: str, origin: str = "<string>") -> Scenario:
    """Parse scenario text; ParseError carries the failing location."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=origin)
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc

    sections = fields(Scenario)
    unknown = sorted(set(parser.sections())
                     - {section.name for section in sections})
    if unknown:
        raise ParseError(f"unknown section(s): {', '.join(unknown)}")
    if not parser.has_section("run"):
        raise ParseError(f"{origin}: missing required section [run]")

    parsed = {}
    for section in sections:
        given = _given(parser, section.name, fields(section.default))
        if section.name == "medium":
            if "alpha_eff_l" in given and "beta" in given:
                raise ParseError(
                    "[medium] give alpha_eff_l or beta, not both")
            if "beta" in given:
                given["alpha_eff_l"] = None
        parsed[section.name] = replace(section.default, **given)
        if section.name == "control1" and parsed["control1"].mode != "flat_top":
            raise ParseError("[control1] mode must be flat_top")
    return Scenario(**parsed)


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
    lines = []
    for section in fields(Scenario):
        values = getattr(scenario, section.name)
        lines.append(f"[{section.name}]")
        for key in fields(values):
            lines.append(f"{key.name} = {_cell(getattr(values, key.name))}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# builders: scenario sections to core objects
# ---------------------------------------------------------------------------

def _squarable(section: str, key: str, value: float) -> float:
    """value, refused by key when the model's square of it overflows, or
    underflows to 0 while value is not 0 (the model divides by it)."""
    square = value * value
    if not math.isfinite(square):
        raise ValidationError(f"[{section}] {key} = {value!r} overflows "
                              "a float when squared")
    if square == 0 and value != 0:
        raise ValidationError(f"[{section}] {key} = {value!r} underflows "
                              "to 0 when squared")
    return value


def _rabi(section: str, value: float) -> float:
    """A control's Rabi frequency, refused by key when it is 0 (f = 0)."""
    if value == 0:
        raise ValidationError(f"[{section}] rabi must be non-zero")
    return _squarable(section, "rabi", value)


def _at_most(section: str, key: str, value: int, ceiling: int,
             array: str) -> None:
    """Refuse value by key when it is above ceiling, the largest value
    whose array stays within MAX_ARRAY_BYTES."""
    if value > ceiling:
        raise ValidationError(
            f"[{section}] {key} must be at most {ceiling}: a larger one "
            f"makes {array} of more than {MAX_ARRAY_BYTES} bytes")


def check_sizes(sc: Scenario) -> None:
    """Refuse a size key whose largest array would take more than
    MAX_ARRAY_BYTES (1 GiB), by key, before any array is allocated.

    The largest array each key sizes, and the ceiling it gives:
    - n_tau, and n_tau2 when given: a stage table's (n_tau - 1, 9)
      float64 control samples, 72 bytes a step, so n_tau <= 14,913,081;
    - n_z and the node count: the complex (node, Z) coherences, 16 bytes a
      cell, so n_node x n_z <= 2**26 cells.  The node count is n_nodes,
      times n_nodes_21 when width_21 > 0, for a Gaussian line, and n_lines
      x nodes_per_tooth for a comb.  Each node key is held to the cells
      of the least n_z, 2, and n_z to the cells the node count leaves;
    - a Gauss-Hermite rule's (n, n) float64 companion matrix, 8 n^2
      bytes, so n_nodes (rule gausshermite), n_nodes_21 and
      nodes_per_tooth <= 11,585.
    A key the scenario's line shape does not read is not checked.
    """
    steps = MAX_ARRAY_BYTES // 72
    table = "a stage table"
    _at_most("grid", "n_tau", sc.grid.n_tau, steps + 1, table)
    if sc.grid.n_tau2 is not None:
        _at_most("grid", "n_tau2", sc.grid.n_tau2, steps + 1, table)
    cells = MAX_ARRAY_BYTES // 16
    companion = math.isqrt(MAX_ARRAY_BYTES // 8)
    e = sc.ensemble
    if e.shape == "comb":
        node_keys = [("n_lines", e.n_lines, False),
                     ("nodes_per_tooth", e.nodes_per_tooth, True)]
    else:
        node_keys = [("n_nodes", e.n_nodes, e.rule == "gausshermite")]
        if e.width_21 > 0:
            node_keys.append(("n_nodes_21", e.n_nodes_21, True))
    n_node = 1
    for key, value, hermite in node_keys:
        if hermite:
            _at_most("ensemble", key, value, companion,
                     "a Gauss-Hermite companion matrix")
        _at_most("ensemble", key, value, cells // 2, "a (node, Z) array")
        n_node *= max(value, 1)
    if n_node > cells // 2:
        raise ValidationError(
            f"[ensemble] {' x '.join(key for key, _, _ in node_keys)} "
            f"must be at most {cells // 2} nodes: more make a (node, Z) "
            f"array of more than {MAX_ARRAY_BYTES} bytes")
    _at_most("grid", "n_z", sc.grid.n_z, cells // n_node,
             f"a (node, Z) array of {n_node} nodes")


def build_ensemble(sc: Scenario) -> EnsembleSpec:
    e = sc.ensemble
    if e.shape == "comb":
        return build_comb_ensemble(spacing=e.spacing,
                                   tooth_width=e.tooth_width,
                                   n_lines=e.n_lines,
                                   nodes_per_tooth=e.nodes_per_tooth)
    return build_gaussian_ensemble(width=_squarable("ensemble", "width",
                                                    e.width),
                                   n_nodes=e.n_nodes,
                                   rule=e.rule, width_21=e.width_21,
                                   n_nodes_21=e.n_nodes_21)


def build_medium(sc: Scenario, ensemble: EnsembleSpec) -> MediumSpec:
    m = sc.medium
    if not m.length > 0:
        raise ValidationError("[medium] length must be > 0")
    key = "alpha_eff_l" if m.beta is None else "beta"
    if not getattr(m, key) > 0:
        raise ValidationError(f"[medium] {key} must be > 0")
    if m.beta is not None:
        return MediumSpec(coupling_beta=m.beta)
    width = ensemble.line_width_31()
    if width == 0:
        raise ValidationError("[medium] alpha_eff_l needs a 31 line of "
                              "non-zero width; give beta instead")
    return MediumSpec.from_alpha_eff(m.alpha_eff_l, line_width_31=width,
                                     length_L=m.length)


def build_probe(sc: Scenario) -> ProbeSpec:
    p = sc.probe
    center = _squarable("probe", "center", p.center)
    duration = _squarable("probe", "duration", p.duration)
    if duration <= 0:
        raise ValidationError("[probe] duration must be > 0")
    return ProbeSpec.gaussian(
        center=center, duration=duration,
        amplitude_scale=_squarable("probe", "amplitude_scale",
                                   p.amplitude_scale))


def _reversal_anchor(sc: Scenario) -> float:
    """The stage-1 time mirrored onto the stage-2 clock origin: control2's
    anchor when given in mirror mode, else control1 switch_off."""
    c2 = sc.control2
    mirror = c2.mode == "mirror" and c2.anchor is not None
    return c2.anchor if mirror else sc.control1.switch_off


def build_controls(sc: Scenario) -> tuple[ControlProfile, ControlProfile]:
    c1 = sc.control1
    ctl1 = ControlProfile.flat_top(rabi=_rabi("control1", c1.rabi),
                                   detuning=_squarable("control1", "detuning",
                                                       c1.detuning),
                                   switch_on=c1.switch_on,
                                   switch_off=c1.switch_off,
                                   rise_time=c1.rise_time)
    c2 = sc.control2
    if c2.detuning is not None:
        _squarable("control2", "detuning", c2.detuning)
    if c2.mode == "mirror":
        detuning = -c1.detuning if c2.detuning is None else c2.detuning
        ctl2 = ctl1.time_reversed(anchor=_reversal_anchor(sc),
                                  detuning=detuning)
    else:
        if c2.detuning is None:
            raise ValidationError("[control2] flat_top needs a detuning")
        ctl2 = ControlProfile.flat_top(rabi=_rabi("control2", c2.rabi),
                                       detuning=c2.detuning,
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


def build_matching(sc: Scenario, ctl1: ControlProfile,
                   ctl2: ControlProfile) -> PhaseMatching:
    m = sc.matching
    if m.omega1 == 0:
        # the phase-matching residuals are relative to the probe carrier
        raise ValidationError("[matching] omega1 must be non-zero")
    omega2 = m.omega2
    if omega2 is None:
        omega2 = echo_carrier(m.omega1, ctl1, ctl2)
    matched = PhaseMatching.backward_matched(omega1=m.omega1, omega2=omega2)
    k1z = matched.K1z if m.k1z is None else m.k1z
    k2z = matched.K2z if m.k2z is None else m.k2z
    return PhaseMatching(K1z=k1z, K2z=k2z, omega1=m.omega1, omega2=omega2)


def stage_setups(sc: Scenario) -> tuple[StageSetup, StageSetup, MediumSpec,
                                        ProtocolConfig]:
    """The scenario's objects, each built once: the condition-checker view
    of the two stages, the medium they share and the recall protocol.

    Stage 1 carries the ensemble, probe, stage-1 control and matching a
    run uses; stage 2 the stage-2 control and the node table the protocol
    recalls on.  The shared reversal clock puts its origin at the stage-2
    reading onset, i.e. stage-1 times are shifted by the mirror anchor
    (mirror mode) or by control1 switch-off (explicit stage-2 control).
    The protocol's blank t1 and t2 derive as ProtocolSection states, and
    a gap_time whose dark-interval phase overflows is refused by key.  A
    size key is refused first, by check_sizes, before any array exists.
    """
    check_sizes(sc)
    p = sc.protocol
    if p.name == "reafc" and sc.ensemble.shape != "comb":
        raise ValidationError(
            "[protocol] name = reafc needs [ensemble] shape = comb")
    ens = build_ensemble(sc)
    med = build_medium(sc, ens)
    probe = build_probe(sc)
    ctl1, ctl2 = build_controls(sc)
    matching = build_matching(sc, ctl1, ctl2)
    t1 = p.t1 if p.t1 is not None else ctl1.switch_off - sc.probe.center
    if t1 < 0:
        raise ValidationError(
            "probe center lies after control1 switch-off; t1 < 0")
    proto = ProtocolConfig(protocol=p.name, t1=t1, t2=p.t2,
                           gap_time=p.gap_time, matching=matching, k=p.k)
    try:
        proto.dark_phase(ens)
    except ValidationError as exc:
        raise ValidationError(f"[protocol] {exc}") from None
    if proto.t2 is None:
        proto = replace(proto, t2=proto.expected_echo_time(
            ctl1.peak_f(), ctl2.peak_f(), ens.comb_spacing))
    stage1 = StageSetup(control=ctl1, ensemble=ens, probe=probe,
                        matching=matching, beta=med.coupling_beta,
                        clock_offset=_reversal_anchor(sc))
    stage2 = StageSetup(control=ctl2, ensemble=proto.recall_ensemble(ens),
                        probe=None, matching=matching,
                        beta=med.coupling_beta, clock_offset=0.0)
    return stage1, stage2, med, proto
