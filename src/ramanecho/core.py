"""Domain types shared by both integrators.

Conventions used throughout the package:

* every Gaussian "width" is a standard deviation;
* the probe time/bandwidth pair obeys ``spectral_width * duration = 1``;
* ``f_nu(tau) = |Omega_nu(tau)|^2 / Delta_nu^2`` is derived, never stored;
* ``amplitude_scale = 1`` corresponds to a peak scaled-field ratio
  ``|zeta| / |Omega| = 1e-3`` (deep weak field), larger values are the
  strong-field knob;
* all quantities are in mutually consistent but arbitrary units
  (frequencies in units of the Raman linewidth work well).
"""

from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    EvenLineCount,
    NonPositiveWidth,
    StepTooCoarse,
    TooFewNodes,
    UnresolvedComb,
    ValidationError,
)

# amplitude_scale = 1 puts the peak |zeta|/|Omega| here
WEAK_AMPLITUDE_RATIO = 1.0e-3

# |Omega|^2 at or below this fraction of its peak counts as control-off:
# no flux weight, no physical envelope and no probe Stark ratio there
CONTROL_FLOOR = 1.0e-12

# samples of |Omega| across the switch window that peak_rabi and peak_f
# take their maximum over
PEAK_SAMPLES = 2048


class CombEnvelopeWarning(UserWarning):
    """Comb envelope wider than the comb itself: edge teeth are truncated."""


def require_finite(obj, *names: str) -> None:
    """require_finite_arguments on the named fields of obj."""
    require_finite_arguments(**{name: getattr(obj, name) for name in names})


def require_finite_arguments(**values) -> None:
    """Refuse a nan or infinite value among the named arguments; None
    (an optional argument left out) passes."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")


def require_squarable(name: str, value: float) -> None:
    """Refuse a value whose square overflows, or a non-zero value whose
    square underflows to 0, which the model divides by, naming it."""
    if not math.isfinite(value * value):
        raise ValidationError(f"{name} = {value!r} overflows a float when "
                              "squared")
    if value != 0 and value * value == 0:
        raise ValidationError(f"{name} = {value!r} underflows to 0 when "
                              "squared")


def require_integer(obj, *names: str) -> None:
    """Refuse any of the named fields that is not an integer, such as 3.5
    or nan."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, numbers.Integral):
            raise ValidationError(f"{name} must be an integer, got {value!r}")


# envelope factories

def gaussian_envelope(center: float, duration: float) -> Callable:
    """Unit-peak Gaussian ``exp(-(t-center)^2 / (2 duration^2))``."""
    require_finite_arguments(center=center, duration=duration)

    def env(tau):
        tau = np.asarray(tau, dtype=float)
        return np.exp(-((tau - center) ** 2) / (2.0 * duration ** 2))
    return env


def raised_cosine_envelope(on: float, off: float, rise: float) -> Callable:
    """Flat-top profile with raised-cosine edges of the given rise time.

    Zero outside [on, off], unity on [on+rise, off-rise].  rise = 0 gives a
    hard gate.
    """
    # a nan passes every comparison below, and rise = nan would then give
    # a hard gate
    require_finite_arguments(on=on, off=off, rise=rise)
    if off <= on:
        raise ValidationError(f"switch_off {off} must exceed switch_on {on}")
    if rise < 0 or 2.0 * rise > (off - on):
        raise ValidationError("rise time must satisfy 0 <= rise <= (off-on)/2")

    def env(tau):
        tau = np.asarray(tau, dtype=float)
        out = np.zeros_like(tau)
        inside = (tau >= on) & (tau <= off)
        out[inside] = 1.0
        if rise > 0.0:
            up = inside & (tau < on + rise)
            out[up] = 0.5 * (1.0 - np.cos(np.pi * (tau[up] - on) / rise))
            down = inside & (tau > off - rise)
            out[down] = 0.5 * (1.0 - np.cos(np.pi * (off - tau[down]) / rise))
        return out
    return env


# medium

@dataclass(frozen=True)
class MediumSpec:
    """Propagation medium: its composite coupling (the slab is the grid's).

    coupling_beta has units frequency/length; a Gaussian 31 line of std
    width w has the on-resonance energy absorption coefficient
    alpha0 = beta * sqrt(pi/2) / w.
    """

    coupling_beta: float

    def __post_init__(self):
        require_finite(self, "coupling_beta")
        if self.coupling_beta <= 0:
            raise ValidationError("coupling_beta must be > 0")

    @classmethod
    def from_alpha_eff(cls, alpha_eff_L: float, line_width_31: float,
                       length_L: float = 1.0) -> "MediumSpec":
        """Medium whose line-center energy transmission across length_L is
        exp(-alpha_eff_L) for a Gaussian 31 line of the given width."""
        if length_L <= 0:
            raise ValidationError("length_L must be > 0")
        beta = alpha_eff_L * line_width_31 / (math.sqrt(math.pi / 2.0) * length_L)
        return cls(coupling_beta=beta)


# detuning ensemble

@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """Quadrature representation of the doubly inhomogeneous ensemble.

    Node i sits at detunings (delta21s[i], delta31s[i]) of the joint
    distribution G(d21) G(d31) with quadrature weight weights[i].  A comb
    has its tooth spacing in comb_spacing; it is 0 for a Gaussian line.
    The arrays are copied on construction and read-only afterwards.
    """

    weights: np.ndarray
    delta21s: np.ndarray
    delta31s: np.ndarray
    comb_spacing: float = 0.0

    def __post_init__(self):
        require_finite(self, "comb_spacing")
        n = np.shape(self.weights)
        for name in ("weights", "delta21s", "delta31s"):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.ndim != 1 or arr.shape != n:
                raise ValidationError(
                    "node arrays must be one-dimensional and of one length")
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} must be finite")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if np.any(self.weights < 0):
            raise ValidationError("node weight must be >= 0")
        total = self.weights.sum()
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"node weights sum to {total!r}, expected 1")

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    @property
    def max_abs_delta31(self) -> float:
        return float(np.max(np.abs(self.delta31s))) if self.n_nodes else 0.0

    def raman_detunings(self, f_value: float) -> np.ndarray:
        """Per-node Raman detuning d21 + d31 * f at a given control level."""
        return self.delta21s + self.delta31s * f_value

    def line_width_31(self) -> float:
        """Total width of the simulated 31 line (quadrature 2nd moment)."""
        return float(np.sqrt(np.sum(self.weights * self.delta31s ** 2)))

    def raman_width(self, f_value: float) -> float:
        dr = self.raman_detunings(f_value)
        return float(np.sqrt(np.sum(self.weights * dr ** 2)))

    def inverted(self) -> "EnsembleSpec":
        """Node map Delta -> -Delta used by RECRIB recall."""
        return replace(self, delta21s=-self.delta21s,
                       delta31s=-self.delta31s)


def _gauss_hermite_nodes(width: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes/weights integrating a Gaussian of std `width` exactly for
    polynomials up to degree 2n-1."""
    x, w = np.polynomial.hermite.hermgauss(n)
    return x * math.sqrt(2.0) * width, w / math.sqrt(math.pi)


def _uniform_nodes(width: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform grid truncated at +-5 sigma, weights proportional to G."""
    x = np.linspace(-5.0 * width, 5.0 * width, n)
    w = np.exp(-x ** 2 / (2.0 * width ** 2))
    return x, w / w.sum()


def build_gaussian_ensemble(width: float, n_nodes: int,
                            rule: str = "gausshermite",
                            width_21: float = 0.0, n_nodes_21: int = 1
                            ) -> EnsembleSpec:
    """Gaussian 31 line as a normalized quadrature ensemble.

    rule "gausshermite" gives spectral accuracy for smooth detuning
    integrands; "uniform" (truncated at 5 sigma) bounds the largest node
    detuning, which the time steppers prefer.  n_nodes = 1 is the
    degenerate delta-distribution limit.  A non-zero width_21 builds the
    tensor product with a Gaussian d21 distribution on n_nodes_21 nodes.
    """
    require_finite_arguments(width=width, width_21=width_21)
    if width <= 0:
        raise NonPositiveWidth(f"width must be > 0, got {width}")
    require_squarable("width", width)
    if n_nodes != 1 and n_nodes < 3:
        raise TooFewNodes(f"need n_nodes >= 3 (or exactly 1), got {n_nodes}")
    if width_21 < 0:
        raise NonPositiveWidth("width_21 must be >= 0")

    if n_nodes == 1:
        d31, w31 = np.array([0.0]), np.array([1.0])
    elif rule == "gausshermite":
        d31, w31 = _gauss_hermite_nodes(width, n_nodes)
    elif rule == "uniform":
        d31, w31 = _uniform_nodes(width, n_nodes)
    else:
        raise ValidationError(f"unknown quadrature rule {rule!r}")

    if width_21 > 0 and n_nodes_21 > 1:
        d21, w21 = _gauss_hermite_nodes(width_21, n_nodes_21)
    else:
        d21, w21 = np.array([0.0]), np.array([1.0])

    # tensor product, d21 fastest, then sorted by (d31, d21)
    delta31 = np.repeat(d31, len(d21))
    delta21 = np.tile(d21, len(d31))
    weights = np.repeat(w31, len(d21)) * np.tile(w21, len(d31))
    order = np.lexsort((delta21, delta31))
    weights = weights[order]
    # remove the one-part-in-1e16 rounding of the weight sum; summed in
    # node order (np.sum would pair terms), like the comb weights below
    return EnsembleSpec(weights=weights / sum(weights.tolist()),
                        delta21s=delta21[order], delta31s=delta31[order])


def build_comb_ensemble(spacing: float, tooth_width: float, n_lines: int,
                        nodes_per_tooth: int = 5,
                        envelope_width: float = math.inf) -> EnsembleSpec:
    """Frequency comb on the 31 transition: teeth at n * spacing.

    Each tooth is a Gaussian of std tooth_width sampled by Gauss-Hermite
    quadrature; tooth weights follow a Gaussian envelope of std
    envelope_width (inf = flat).
    """
    require_finite_arguments(spacing=spacing, tooth_width=tooth_width)
    if spacing <= 0 or tooth_width <= 0:
        raise NonPositiveWidth("spacing and tooth_width must be > 0")
    if not envelope_width > 0:
        raise NonPositiveWidth(
            f"envelope_width must be > 0, got {envelope_width!r}")
    if math.isfinite(envelope_width):
        require_squarable("envelope_width", envelope_width)
    if n_lines % 2 == 0:
        raise EvenLineCount(f"n_lines must be odd, got {n_lines}")
    if n_lines < 3:
        raise TooFewNodes(f"need n_lines >= 3, got {n_lines}")
    if nodes_per_tooth < 1:
        raise TooFewNodes("need nodes_per_tooth >= 1")
    if tooth_width >= spacing / 4.0:
        raise UnresolvedComb(
            f"tooth_width {tooth_width} >= spacing/4 = {spacing / 4.0}")
    if math.isfinite(envelope_width) and envelope_width >= n_lines * spacing:
        warnings.warn(
            "comb envelope wider than the comb span; edge teeth truncate "
            "the envelope", CombEnvelopeWarning)

    half = (n_lines - 1) // 2
    if nodes_per_tooth == 1:
        local_d, local_w = np.array([0.0]), np.array([1.0])
    else:
        local_d, local_w = _gauss_hermite_nodes(tooth_width, nodes_per_tooth)

    teeth = np.arange(-half, half + 1)
    delta31 = np.repeat(teeth * spacing, len(local_d)) + np.tile(local_d,
                                                                  n_lines)
    weights = np.tile(local_w, n_lines)
    if math.isfinite(envelope_width):
        # envelope applies at the node's actual detuning, so the tooth
        # weights converge to the tooth * envelope overlap integral
        scale = 2.0 * envelope_width ** 2
        weights = np.array([math.exp(-d ** 2 / scale) for d in delta31]) \
            * weights
    # normalized in tooth order, then sorted by (d31, d21)
    weights = weights / sum(weights.tolist())
    order = np.argsort(delta31, kind="stable")
    return EnsembleSpec(weights=weights[order],
                        delta21s=np.zeros(len(order)),
                        delta31s=delta31[order], comb_spacing=spacing)


# control and probe fields

@dataclass(frozen=True)
class ControlProfile:
    """Classical control field of one stage; carrier is the control
    laser's own carrier, which conditions.echo_carrier reads."""

    rabi_envelope: Callable
    one_photon_detuning: float
    carrier: float = 0.0
    switch_on: float = 0.0
    switch_off: float = 1.0

    def __post_init__(self):
        require_finite(self, "one_photon_detuning", "carrier", "switch_on",
                       "switch_off")
        if self.one_photon_detuning == 0:
            raise ValidationError("one_photon_detuning must be non-zero")
        if self.switch_off <= self.switch_on:
            raise ValidationError("switch_off must exceed switch_on")

    def rabi(self, tau):
        return np.asarray(self.rabi_envelope(tau))

    def _f_of(self, rabi):
        return np.abs(rabi) ** 2 / self.one_photon_detuning ** 2

    def f(self, tau):
        """Dimensionless control parameter |Omega|^2 / Delta^2."""
        return self._f_of(self.rabi(tau))

    def at(self, s):
        """(Omega, f) at the times s, from one envelope evaluation."""
        rabi = self.rabi(s)
        return rabi, self._f_of(rabi)

    @cached_property
    def _window_abs_rabi(self) -> np.ndarray:
        """|Omega| on PEAK_SAMPLES points of the switch window, read-only;
        the envelope is immutable, so it is sampled once per profile."""
        samples = np.abs(self.rabi(np.linspace(
            self.switch_on, self.switch_off, PEAK_SAMPLES)))
        samples.setflags(write=False)
        return samples

    def peak_f(self) -> float:
        return float(np.max(self._f_of(self._window_abs_rabi)))

    def peak_rabi(self) -> float:
        return float(np.max(self._window_abs_rabi))

    @classmethod
    def flat_top(cls, rabi: float, detuning: float, switch_on: float,
                 switch_off: float, rise_time: float | None = None,
                 **kw) -> "ControlProfile":
        """Plateau control with raised-cosine edges (default rise: 5% of
        the on-window)."""
        require_finite_arguments(rabi=rabi, switch_on=switch_on,
                                 switch_off=switch_off, rise_time=rise_time)
        if rise_time is None:
            rise_time = 0.05 * (switch_off - switch_on)
        shape = raised_cosine_envelope(switch_on, switch_off, rise_time)

        def env(tau):
            return rabi * shape(tau)

        return cls(rabi_envelope=env, one_photon_detuning=detuning,
                   switch_on=switch_on, switch_off=switch_off, **kw)

    def time_reversed(self, anchor: float, detuning: float | None = None,
                      carrier: float | None = None) -> "ControlProfile":
        """Mirror image Omega'(tau) = Omega(anchor - tau).

        Used to build the stage-2 control satisfying the envelope-reversal
        condition; the anchor maps stage-1 switch-off to the new origin.
        detuning and carrier keep this profile's values when not given.
        """
        base = self.rabi_envelope

        def env(tau):
            return base(anchor - np.asarray(tau))

        return ControlProfile(
            rabi_envelope=env,
            one_photon_detuning=(self.one_photon_detuning
                                 if detuning is None else detuning),
            carrier=self.carrier if carrier is None else carrier,
            switch_on=anchor - self.switch_off,
            switch_off=anchor - self.switch_on,
        )


@dataclass(frozen=True)
class ProbeSpec:
    """Input probe envelope A1(tau, Z=0) and its duration; the probe
    carrier is PhaseMatching.omega1."""

    envelope: Callable
    duration: float
    amplitude_scale: float = 1.0

    def __post_init__(self):
        require_finite(self, "duration", "amplitude_scale")
        if self.amplitude_scale < 0:
            raise ValidationError("amplitude_scale must be >= 0")
        if self.duration <= 0:
            raise ValidationError("duration must be > 0")

    @property
    def spectral_width(self) -> float:
        """Bandwidth by the convention spectral_width * duration = 1."""
        return 1.0 / self.duration

    @classmethod
    def gaussian(cls, center: float, duration: float,
                 amplitude_scale: float = 1.0) -> "ProbeSpec":
        return cls(envelope=gaussian_envelope(center, duration),
                   duration=duration, amplitude_scale=amplitude_scale)

    def sample(self, tau):
        return np.asarray(self.envelope(tau), dtype=complex)


# grids

def _count_hint(count: str, need: float) -> str:
    """The smallest point count that meets a step guard, if any does."""
    if math.isfinite(need):
        return f"need {count} >= {int(need) + 2}"
    return f"no finite {count} will do"


@dataclass(frozen=True)
class Grid:
    """Uniform (tau, Z) grid for one stage."""

    n_tau: int
    n_z: int
    t_end: float
    length: float

    def __post_init__(self):
        require_finite(self, "t_end", "length")
        require_integer(self, "n_tau", "n_z")
        if self.n_tau < 2 or self.n_z < 2:
            raise ValidationError("n_tau and n_z must be >= 2")
        if self.t_end <= 0 or self.length <= 0:
            raise ValidationError("t_end and length must be > 0")

    @property
    def dt(self) -> float:
        return self.t_end / (self.n_tau - 1)

    @property
    def dz(self) -> float:
        return self.length / (self.n_z - 1)

    def tau(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_tau)

    def z(self) -> np.ndarray:
        return np.linspace(0.0, self.length, self.n_z)

    def validate(self, max_phase_rate: float, max_coupling: float) -> None:
        """Step-size guards: dt x (residual phase rate) and dz x (field
        coupling) must both stay at or below 0.5.

        The steppers rotate the deterministic detuning phases analytically,
        so the phase rate supplied here is the residual seen by the RK
        stages (node spread and state-dependent shifts), not the raw
        carrier-scale rates.
        """
        if self.dt * max_phase_rate > 0.5:
            raise StepTooCoarse(
                f"dt * phase rate = {self.dt * max_phase_rate:.3g} > 0.5; "
                + _count_hint("n_tau", self.t_end * max_phase_rate / 0.5))
        if self.dz * max_coupling > 0.5:
            raise StepTooCoarse(
                f"dz * coupling = {self.dz * max_coupling:.3g} > 0.5; "
                + _count_hint("n_z", self.length * max_coupling / 0.5))
