"""Reversibility conditions for echo recall, their checkers, and echo timing.

Strong-field recall needs four conditions: (i) phase matching between probe
and backward echo, (ii) time-reversed control envelopes with equal coupling,
(iii) node-wise rephasing of the total Raman detuning, and (iv)
anti-correlated one-photon detunings.  The weak-field (linear) regime
relaxes these to primed variants: (i') phase matching including the
slow-light index correction beta/Delta per stage, (ii') a product condition
on beta * f only, and (iii') either node-wise inversion (k = 0) or the comb
timing f1 t1 + f2 t2 = 2 pi k / spacing (k >= 1).

Envelope conditions compare the stages on a shared clock where stage 2 runs
backward: residuals are built from Omega2(-tau) against Omega1(tau).  Each
stage carries a clock_offset mapping its local time to that shared clock.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import (ControlProfile, EnsembleSpec, ProbeSpec, require_finite,
                   require_integer)
from .errors import NonCausalEcho, ValidationError

ALGEBRAIC_TOL = 1e-9
ENVELOPE_TOL = 1e-6

# shared-clock samples the envelope conditions are checked on
SHARED_SAMPLES = 2048

TOLERANCES = {
    "i": ALGEBRAIC_TOL,
    "ii": ENVELOPE_TOL,
    "iii": ALGEBRAIC_TOL,
    "iv": ALGEBRAIC_TOL,
    "i'": ALGEBRAIC_TOL,
    "ii'": ENVELOPE_TOL,
    "iii'": ALGEBRAIC_TOL,
}


@dataclass(frozen=True)
class PhaseMatching:
    """Wavevector bookkeeping for the probe/echo pair.

    Only z-projections are dynamical (1-d reduction).  light_speed sets
    the unit system.
    """

    K1z: float
    K2z: float
    omega1: float
    omega2: float
    n1: float = 1.0
    n2: float = 1.0
    light_speed: float = 1.0

    def __post_init__(self):
        require_finite(self, "K1z", "K2z", "omega1", "omega2", "n1", "n2",
                       "light_speed")
        if self.light_speed <= 0:
            raise ValidationError("light_speed must be > 0")
        if self.n1 < 1.0 or self.n2 < 1.0:
            raise ValidationError("refractive indexes must be >= 1")

    @classmethod
    def backward_matched(cls, omega1: float, omega2: float, n1: float = 1.0,
                         n2: float = 1.0, light_speed: float = 1.0
                         ) -> "PhaseMatching":
        """Forward probe, backward echo, both on their free dispersion."""
        k1 = n1 * omega1 / light_speed
        k2 = k1 - (n1 * omega1 + n2 * omega2) / light_speed
        return cls(K1z=k1, K2z=k2, omega1=omega1, omega2=omega2, n1=n1,
                   n2=n2, light_speed=light_speed)

    def residual(self, slow_light: float = 0.0) -> float:
        """Normalized defect of c(K1 - K2) = n1 w1 + n2 w2 + c slow_light.

        The strong conditions take no slow-light term; the weak ones pass
        the index correction beta1/Delta1 + beta2/Delta2.
        """
        c = self.light_speed
        target = (self.n1 * self.omega1 + self.n2 * self.omega2
                  + c * slow_light)
        return abs(c * (self.K1z - self.K2z) - target) / abs(
            self.n1 * self.omega1)


@dataclass(frozen=True)
class ConditionEntry:
    id: str
    residual: float
    tolerance: float
    satisfied: bool
    blocked: bool = False

    def line(self) -> str:
        status = "blocked" if self.blocked else (
            "pass" if self.satisfied else "fail")
        return (f"{self.id} residual={self.residual:.6e} "
                f"tolerance={self.tolerance:.1e} {status}")


@dataclass(frozen=True)
class ConditionReport:
    entries: tuple[ConditionEntry, ...]

    @property
    def overall(self) -> bool:
        return all(e.satisfied for e in self.entries)

    def get(self, cid: str) -> ConditionEntry:
        for e in self.entries:
            if e.id == cid:
                return e
        raise KeyError(cid)

    def failing_ids(self) -> list[str]:
        return [e.id for e in self.entries if not e.satisfied]

    def as_text(self) -> str:
        lines = [e.line() for e in self.entries]
        lines.append(f"overall {'pass' if self.overall else 'fail'}")
        return "\n".join(lines)


@dataclass(frozen=True)
class ProtocolConfig:
    """Recall-protocol selector shared by both integrators.

    t1 is the storage dephasing time (coherence write instant to stage-1
    control switch-off); t2, when given, prescribes the retrieval window
    you expect the echo in.  gap_time is the dark interval between the
    stages, over which the stored coherences take the free phase
    exp(-i d21 gap_time).  For comb recall, k fixes the rephasing order
    on the comb ensemble's spacing.
    """

    protocol: str
    t1: float = 0.0
    t2: float | None = None
    gap_time: float = 0.0
    matching: PhaseMatching | None = None
    k: int = 1
    invert_delta21: bool = True
    invert_delta31: bool = True

    def __post_init__(self):
        require_finite(self, "t1", "t2", "gap_time")
        require_integer(self, "k")
        if self.protocol not in ("recrib", "reafc"):
            raise ValidationError(f"unknown protocol {self.protocol!r}")
        if self.protocol == "reafc" and self.k < 1:
            raise ValidationError("reafc needs k >= 1")
        for name in ("t1", "t2", "gap_time"):
            if (getattr(self, name) or 0.0) < 0:
                raise ValidationError(f"{name} must be >= 0")

    def expected_echo_time(self, f1: float, f2: float,
                           comb_spacing: float) -> float:
        """Echo emission time on the stage-2 clock; comb_spacing is the
        comb ensemble's tooth spacing, which only comb recall reads."""
        if self.protocol == "recrib":
            if f2 <= 0:
                raise ValidationError("f2 must be > 0")
            return f1 * self.t1 / f2
        return echo_time_afc(f1, f2, self.t1, comb_spacing, self.k)

    def dark_phase(self, ensemble: EnsembleSpec) -> np.ndarray:
        """The free phase d21 gap_time of each node over the dark
        interval; a gap_time for which it overflows is refused by name."""
        # Python floats, which overflow to inf without a numpy warning
        if not math.isfinite(max(map(abs, ensemble.delta21s.tolist()))
                             * self.gap_time):
            raise ValidationError(f"gap_time = {self.gap_time!r} overflows "
                                  "the dark-interval phase")
        return ensemble.delta21s * self.gap_time

    def recall_ensemble(self, ensemble: EnsembleSpec) -> EnsembleSpec:
        """The stage-2 node table recalling from the stage-1 ensemble:
        RECRIB inverts the nodes per invert_delta21/invert_delta31, comb
        recall keeps them."""
        if self.protocol == "recrib":
            return ensemble.inverted(invert_31=self.invert_delta31,
                                     invert_21=self.invert_delta21)
        return ensemble


@dataclass(frozen=True)
class StageSetup:
    """Everything one stage contributes to the condition checks.

    beta is the stage's composite coupling constant (the envelope
    conditions compare beta1 f1 against beta2 f2, so it lives here rather
    than on a shared medium).  clock_offset maps stage-local time to the
    shared reversal clock: shared = local - clock_offset.
    """

    control: ControlProfile
    ensemble: EnsembleSpec
    probe: ProbeSpec | None = None
    matching: PhaseMatching | None = None
    beta: float = 1.0
    clock_offset: float = 0.0

    def __post_init__(self):
        require_finite(self, "beta", "clock_offset")

    def shared_rabi(self, tau_shared):
        return self.control.rabi(np.asarray(tau_shared) + self.clock_offset)

    def shared_f(self, tau_shared):
        return self.control.f(np.asarray(tau_shared) + self.clock_offset)

    def shared_window(self) -> tuple[float, float]:
        return (self.control.switch_on - self.clock_offset,
                self.control.switch_off - self.clock_offset)


def _entry(cid, residual) -> ConditionEntry:
    tol = TOLERANCES[cid]
    return ConditionEntry(id=cid, residual=float(residual), tolerance=tol,
                          satisfied=bool(residual <= tol))


def _blocked(cid) -> ConditionEntry:
    return ConditionEntry(id=cid, residual=math.nan,
                          tolerance=TOLERANCES[cid], satisfied=False,
                          blocked=True)


def _shared_grid(stage1: StageSetup, stage2: StageSetup) -> np.ndarray:
    """Tau samples covering stage 1 and the reflection of stage 2."""
    a1, b1 = stage1.shared_window()
    a2, b2 = stage2.shared_window()
    lo = min(a1, -b2)
    hi = max(b1, -a2)
    pad = 0.05 * (hi - lo)
    return np.linspace(lo - pad, hi + pad, SHARED_SAMPLES)


def _matching_of(stage1: StageSetup, stage2: StageSetup) -> PhaseMatching:
    m = stage1.matching or stage2.matching
    if m is None:
        raise ValidationError("no PhaseMatching attached to either stage")
    return m


def _paired_ensembles(stage1: StageSetup, stage2: StageSetup):
    e1, e2 = stage1.ensemble, stage2.ensemble
    if e1.n_nodes != e2.n_nodes:
        raise ValidationError(
            "stage ensembles must pair node-for-node "
            f"({e1.n_nodes} vs {e2.n_nodes})")
    return e1, e2


def _inversion_residual(stage1: StageSetup, stage2: StageSetup) -> float:
    """Node-wise rephasing defect of the total Raman detunings at the
    stages' peak control levels, relative to the stage-1 Raman width."""
    e1, e2 = _paired_ensembles(stage1, stage2)
    fp1 = stage1.control.peak_f()
    total1 = e1.raman_detunings(fp1)
    total2 = e2.raman_detunings(stage2.control.peak_f())
    width = e1.raman_width(fp1)
    scale = width if width > 0 else max(np.max(np.abs(total1)), 1.0)
    return float(np.max(np.abs(total2 + total1))) / scale


def check_strong_conditions(stage1: StageSetup, stage2: StageSetup
                            ) -> ConditionReport:
    """Residuals of the four strong-field recall conditions.

    Never raises on physics grounds; every defect is reported.  Condition
    iii is only evaluated when ii and iv pass, because its node-pairing
    form presumes them; otherwise it is reported blocked.
    """
    tau_grid = _shared_grid(stage1, stage2)

    matching = _matching_of(stage1, stage2)
    res_i = matching.residual()

    om1 = np.abs(stage1.shared_rabi(tau_grid))
    om2r = np.abs(stage2.shared_rabi(-tau_grid))
    om_scale = max(om1.max(), 1e-300)
    f1 = stage1.shared_f(tau_grid)
    f2r = stage2.shared_f(-tau_grid)
    f_scale = max(f1.max(), 1e-300)
    res_ii = max(
        float(np.max(np.abs(om1 - om2r))) / om_scale,
        abs(stage1.beta - stage2.beta) / abs(stage1.beta),
        float(np.max(np.abs(f1 - f2r))) / f_scale,
    )

    d1 = stage1.control.one_photon_detuning
    d2 = stage2.control.one_photon_detuning
    e1, e2 = _paired_ensembles(stage1, stage2)
    res_iv = max(
        abs(d2 + d1) / abs(d1),
        float(np.max(np.abs(e2.delta31s / d2 - e1.delta31s / d1))),
    )

    ent_i = _entry("i", res_i)
    ent_ii = _entry("ii", res_ii)
    ent_iv = _entry("iv", res_iv)

    if ent_ii.satisfied and ent_iv.satisfied:
        ent_iii = _entry("iii", _inversion_residual(stage1, stage2))
    else:
        ent_iii = _blocked("iii")

    return ConditionReport(entries=(ent_i, ent_ii, ent_iii, ent_iv))


def check_weak_conditions(stage1: StageSetup, stage2: StageSetup,
                          k: int = 0, t1: float = 0.0, t2: float = 0.0
                          ) -> ConditionReport:
    """Residuals of the linear-regime recall conditions.

    For comb rephasing (k >= 1) supply the storage and retrieval times t1
    and t2; the comb spacing is read from the stage-1 ensemble.  k = 0
    checks node-wise inversion instead.
    """
    if k < 0:
        raise ValidationError("k must be >= 0")
    tau_grid = _shared_grid(stage1, stage2)

    matching = _matching_of(stage1, stage2)
    d1 = stage1.control.one_photon_detuning
    d2 = stage2.control.one_photon_detuning
    res_i = matching.residual(stage1.beta / d1 + stage2.beta / d2)

    bf1 = stage1.beta * stage1.shared_f(tau_grid)
    bf2r = stage2.beta * stage2.shared_f(-tau_grid)
    res_ii = float(np.max(np.abs(bf1 - bf2r))) / max(bf1.max(), 1e-300)

    if k == 0:
        res_iii = _inversion_residual(stage1, stage2)
    else:
        spacing = stage1.ensemble.comb_spacing
        if spacing <= 0:
            raise ValidationError(
                "k >= 1 rephasing needs a comb ensemble with positive "
                "spacing")
        fp1 = stage1.control.peak_f()
        fp2 = stage2.control.peak_f()
        res_iii = (abs(fp1 * t1 + fp2 * t2 - 2.0 * math.pi * k / spacing)
                   * spacing / (2.0 * math.pi))

    return ConditionReport(entries=(
        _entry("i'", res_i),
        _entry("ii'", res_ii),
        _entry("iii'", res_iii),
    ))


def echo_carrier(omega1: float, control1: ControlProfile,
                 control2: ControlProfile) -> float:
    """Echo carrier omega2 under two-photon resonance in both stages.

    omega2 = omega1 + (carrier2 - carrier1) + Delta1 f1 - Delta2 f2: the
    control carrier difference plus the difference of the stages' Stark
    shifts Delta f at their peak control levels.
    """
    shift1 = control1.one_photon_detuning * control1.peak_f()
    shift2 = control2.one_photon_detuning * control2.peak_f()
    return omega1 + (control2.carrier - control1.carrier) + shift1 - shift2


def echo_time_afc(f1: float, f2: float, t1: float, delta_comb: float,
                  k: int = 1) -> float:
    """Retrieval delay t2 completing the comb rephasing at order k.

    Solves f1 t1 + f2 t2 = 2 pi k / delta_comb.  An integer k too large
    for a float, whose 2 pi k / delta_comb cannot be formed, is refused
    by name.  A t2 that overflows to inf or nan is refused before the
    causality check, which a nan would pass.
    """
    if f2 <= 0:
        raise ValidationError("f2 must be > 0")
    if delta_comb <= 0:
        raise ValidationError("delta_comb must be > 0")
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValidationError("k must be an integer >= 1")
    try:
        rephasing = 2.0 * math.pi * k / delta_comb
    except OverflowError:
        raise ValidationError(
            f"k is too large: a {len(str(k))}-digit rephasing order k "
            "exceeds the float range, so 2 pi k / delta_comb cannot be "
            "formed") from None
    t2 = (rephasing - f1 * t1) / f2
    if not math.isfinite(t2):
        raise ValidationError(
            f"echo time t2 = {t2} is not finite: the rephasing time "
            f"overflows for f1={f1!r}, f2={f2!r}, t1={t1!r}, "
            f"delta_comb={delta_comb!r}")
    if t2 <= 0:
        raise NonCausalEcho(
            f"rephasing order k={k} already passed during storage "
            f"(t2={t2:.6g}); try k >= {k + 1}")
    return t2
