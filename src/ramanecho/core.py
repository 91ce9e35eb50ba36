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
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DetuningTooSmall,
    EvenLineCount,
    NonPositiveWidth,
    ResonantSingularity,
    StepTooCoarse,
    TooFewNodes,
    UnresolvedComb,
    ValidationError,
)
from .numerics import simpson_nodes, simpson_sums

# amplitude_scale = 1 puts the peak |zeta|/|Omega| here
WEAK_AMPLITUDE_RATIO = 1.0e-3

# numerical support threshold for "compact support" checks
SUPPORT_FLOOR = 1.0e-8


class CombEnvelopeWarning(UserWarning):
    """Comb envelope wider than the comb itself: edge teeth are truncated."""


# ---------------------------------------------------------------------------
# envelope factories
# ---------------------------------------------------------------------------

def gaussian_envelope(center: float, duration: float) -> Callable:
    """Unit-peak Gaussian ``exp(-(t-center)^2 / (2 duration^2))``."""
    def env(tau):
        tau = np.asarray(tau, dtype=float)
        return np.exp(-((tau - center) ** 2) / (2.0 * duration ** 2))
    return env


def raised_cosine_envelope(on: float, off: float, rise: float) -> Callable:
    """Flat-top profile with raised-cosine edges of the given rise time.

    Zero outside [on, off], unity on [on+rise, off-rise].  rise = 0 gives a
    hard gate.
    """
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


# ---------------------------------------------------------------------------
# medium
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MediumSpec:
    """Propagation medium: composite coupling, geometry, and optical depth.

    coupling_beta has units frequency/length; alpha0 is the on-resonance
    energy absorption coefficient ``beta * sqrt(pi/2) / natural_width_31``.
    Per-field refractive index and group velocity are (probe, echo) pairs;
    a scalar is broadcast to both fields.
    """

    coupling_beta: float
    length_L: float
    refractive_index_n: tuple[float, float] = (1.0, 1.0)
    group_velocity_v: tuple[float, float] = (1.0, 1.0)
    alpha0: float | None = None

    def __post_init__(self):
        if self.coupling_beta <= 0:
            raise ValidationError("coupling_beta must be > 0")
        if self.length_L <= 0:
            raise ValidationError("length_L must be > 0")
        for name in ("refractive_index_n", "group_velocity_v"):
            val = getattr(self, name)
            if np.isscalar(val):
                val = (float(val), float(val))
                object.__setattr__(self, name, val)
            else:
                object.__setattr__(self, name, (float(val[0]), float(val[1])))
        n1, n2 = self.refractive_index_n
        if n1 < 1.0 or n2 < 1.0:
            raise ValidationError("refractive indexes must be >= 1")
        v1, v2 = self.group_velocity_v
        if v1 <= 0 or v2 <= 0:
            raise ValidationError("group velocities must be > 0")
        if self.alpha0 is not None and self.alpha0 < 0:
            raise ValidationError("alpha0 must be >= 0")

    def derived_alpha0(self, natural_width_31: float) -> float:
        """alpha0 from beta and the natural 31 linewidth (std dev)."""
        if natural_width_31 <= 0:
            raise NonPositiveWidth("natural width must be > 0")
        return self.coupling_beta * math.sqrt(math.pi / 2.0) / natural_width_31

    def resolve_alpha0(self, natural_width_31: float) -> float:
        """Stored alpha0 when supplied (validated), else derived.

        When both alpha0 and the width are given they must agree to 1e-12
        relative.
        """
        derived = self.derived_alpha0(natural_width_31)
        if self.alpha0 is None:
            return derived
        if abs(self.alpha0 - derived) > 1e-12 * max(abs(derived), 1.0):
            raise ValidationError(
                f"alpha0 {self.alpha0!r} inconsistent with beta and width "
                f"(derived {derived!r})")
        return self.alpha0

    @classmethod
    def from_alpha_eff(cls, alpha_eff_L: float, line_width_31: float,
                       length_L: float = 1.0, **kw) -> "MediumSpec":
        """Medium whose line-center energy transmission is exp(-alpha_eff_L)
        for a Gaussian 31 line of the given width."""
        beta = alpha_eff_L * line_width_31 / (math.sqrt(math.pi / 2.0) * length_L)
        return cls(coupling_beta=beta, length_L=length_L, **kw)


# ---------------------------------------------------------------------------
# detuning ensemble
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetuningNode:
    """One quadrature node of the joint distribution G(d21) G(d31)."""

    delta21: float
    delta31: float
    weight: float
    comb_index: int = 0

    def __post_init__(self):
        if self.weight < 0:
            raise ValidationError("node weight must be >= 0")


@dataclass(frozen=True)
class EnsembleSpec:
    """Quadrature representation of the doubly inhomogeneous ensemble.

    natural_width_31 is the irreversible part of the 31 line (std dev);
    controlled_width_31 the reversible (RECRIB) broadening.  The node list
    represents whichever combination a scenario simulates.
    """

    shape: str                      # "gaussian" | "comb"
    nodes: tuple[DetuningNode, ...]
    natural_width_31: float = 1.0
    controlled_width_31: float = 0.0
    comb_spacing: float = 0.0
    tooth_width: float = 0.0
    n_lines: int = 0
    width_21: float = 0.0

    def __post_init__(self):
        if self.shape not in ("gaussian", "comb"):
            raise ValidationError(f"unknown ensemble shape {self.shape!r}")
        if self.natural_width_31 <= 0:
            raise NonPositiveWidth("natural_width_31 must be > 0")
        if self.controlled_width_31 < 0 or self.width_21 < 0:
            raise NonPositiveWidth("widths must be >= 0")
        if self.shape == "comb" and self.tooth_width >= self.comb_spacing:
            raise UnresolvedComb("tooth width must be below the comb spacing")
        nodes = tuple(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        w = np.array([n.weight for n in nodes], dtype=float)
        total = w.sum()
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"node weights sum to {total!r}, expected 1")
        for name, arr in (
            ("_weights", w),
            ("_delta21", np.array([n.delta21 for n in nodes], dtype=float)),
            ("_delta31", np.array([n.delta31 for n in nodes], dtype=float)),
            ("_comb_index", np.array([n.comb_index for n in nodes], dtype=int)),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def weights(self) -> np.ndarray:
        return self._weights

    @property
    def delta21s(self) -> np.ndarray:
        return self._delta21

    @property
    def delta31s(self) -> np.ndarray:
        return self._delta31

    @property
    def comb_indices(self) -> np.ndarray:
        return self._comb_index

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def max_abs_delta31(self) -> float:
        return float(np.max(np.abs(self._delta31))) if len(self.nodes) else 0.0

    def raman_detunings(self, f_value: float) -> np.ndarray:
        """Per-node Raman detuning d21 + d31 * f at a given control level."""
        return self._delta21 + self._delta31 * f_value

    def line_width_31(self) -> float:
        """Total width of the simulated 31 line (quadrature 2nd moment)."""
        return float(np.sqrt(np.sum(self._weights * self._delta31 ** 2)))

    def raman_width(self, f_value: float) -> float:
        dr = self.raman_detunings(f_value)
        return float(np.sqrt(np.sum(self._weights * dr ** 2)))

    def inverted(self, invert_31: bool = True, invert_21: bool = True
                 ) -> "EnsembleSpec":
        """Node map Delta -> -Delta used by RECRIB recall.

        Leaving one component un-inverted models the irreversible residual.
        """
        nodes = tuple(
            DetuningNode(
                delta21=-n.delta21 if invert_21 else n.delta21,
                delta31=-n.delta31 if invert_31 else n.delta31,
                weight=n.weight,
                comb_index=-n.comb_index if invert_31 else n.comb_index,
            )
            for n in self.nodes
        )
        return EnsembleSpec(
            shape=self.shape, nodes=nodes,
            natural_width_31=self.natural_width_31,
            controlled_width_31=self.controlled_width_31,
            comb_spacing=self.comb_spacing, tooth_width=self.tooth_width,
            n_lines=self.n_lines, width_21=self.width_21)


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
                            width_21: float = 0.0, n_nodes_21: int = 1,
                            natural_width: float | None = None,
                            controlled_width: float | None = None,
                            ) -> EnsembleSpec:
    """Gaussian 31 line as a normalized quadrature ensemble.

    rule "gausshermite" gives spectral accuracy for smooth detuning
    integrands; "uniform" (truncated at 5 sigma) bounds the largest node
    detuning, which the time steppers prefer.  n_nodes = 1 is the
    degenerate delta-distribution limit.  A non-zero width_21 builds the
    tensor product with a Gaussian d21 distribution on n_nodes_21 nodes.
    """
    if width <= 0:
        raise NonPositiveWidth(f"width must be > 0, got {width}")
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

    nodes = [
        DetuningNode(delta21=float(a), delta31=float(b),
                     weight=float(wa * wb))
        for b, wb in zip(d31, w31)
        for a, wa in zip(d21, w21)
    ]
    nodes.sort(key=lambda nd: (nd.delta31, nd.delta21))
    # remove the one-part-in-1e16 rounding of the weight sum
    total = sum(nd.weight for nd in nodes)
    nodes = tuple(
        DetuningNode(nd.delta21, nd.delta31, nd.weight / total) for nd in nodes)
    return EnsembleSpec(
        shape="gaussian", nodes=nodes,
        natural_width_31=width if natural_width is None else natural_width,
        controlled_width_31=0.0 if controlled_width is None else controlled_width,
        width_21=width_21)


def build_comb_ensemble(spacing: float, tooth_width: float, n_lines: int,
                        nodes_per_tooth: int = 5,
                        envelope_width: float = math.inf) -> EnsembleSpec:
    """Frequency comb on the 31 transition: teeth at n * spacing.

    Each tooth is a Gaussian of std tooth_width sampled by Gauss-Hermite
    quadrature; tooth weights follow a Gaussian envelope of std
    envelope_width (inf = flat).
    """
    if spacing <= 0 or tooth_width <= 0:
        raise NonPositiveWidth("spacing and tooth_width must be > 0")
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

    nodes = []
    for n in range(-half, half + 1):
        center = n * spacing
        for d, w in zip(local_d, local_w):
            # envelope applies at the node's actual detuning, so the tooth
            # weights converge to the tooth * envelope overlap integral
            if math.isinf(envelope_width):
                env = 1.0
            else:
                env = math.exp(-(center + d) ** 2
                               / (2.0 * envelope_width ** 2))
            nodes.append(DetuningNode(
                delta21=0.0, delta31=float(center + d),
                weight=float(env * w), comb_index=n))
    total = sum(nd.weight for nd in nodes)
    nodes = tuple(
        DetuningNode(nd.delta21, nd.delta31, nd.weight / total, nd.comb_index)
        for nd in sorted(nodes, key=lambda nd: (nd.delta31, nd.delta21)))
    return EnsembleSpec(
        shape="comb", nodes=nodes,
        natural_width_31=tooth_width, controlled_width_31=0.0,
        comb_spacing=spacing, tooth_width=tooth_width, n_lines=n_lines)


# ---------------------------------------------------------------------------
# control and probe fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StepSample:
    """The control on one step's Simpson points s + dt * (0, 1/8, ..., 1).

    One envelope evaluation per step: entries 0, 4 and 8 are the
    Runge-Kutta stage times s, s + dt/2 and s + dt, and df_half, df_full
    are the Simpson integrals of f over the half and the whole step.
    """

    rabi: np.ndarray            # (9,) Omega
    f: np.ndarray               # (9,) |Omega|^2 / Delta^2
    df_half: float
    df_full: float

    def stage(self, k: int):
        """(Omega, f) at stage time s + k dt/2, k = 0, 1, 2."""
        return self.rabi[4 * k], float(self.f[4 * k])


@dataclass(frozen=True)
class ControlProfile:
    """Classical control field of one stage.

    f_nu(tau) and the Stark shift are always derived from rabi_envelope and
    one_photon_detuning; nothing redundant is stored.  When probe_bandwidth
    is supplied the far-off-resonance bound |Delta| >= factor * d_omega is
    enforced at construction.
    """

    rabi_envelope: Callable
    one_photon_detuning: float
    carrier: float = 0.0
    wavevector: tuple[float, float, float] = (0.0, 0.0, 0.0)
    switch_on: float = 0.0
    switch_off: float = 1.0
    probe_bandwidth: float | None = None
    detuning_factor: float = 10.0

    def __post_init__(self):
        if self.one_photon_detuning == 0:
            raise ValidationError("one_photon_detuning must be non-zero")
        if self.switch_off <= self.switch_on:
            raise ValidationError("switch_off must exceed switch_on")
        kv = self.wavevector
        if np.isscalar(kv):
            kv = (0.0, 0.0, float(kv))
        object.__setattr__(self, "wavevector",
                           (float(kv[0]), float(kv[1]), float(kv[2])))
        if self.probe_bandwidth is not None:
            if abs(self.one_photon_detuning) < \
                    self.detuning_factor * self.probe_bandwidth:
                raise DetuningTooSmall(
                    f"|Delta| = {abs(self.one_photon_detuning)} below "
                    f"{self.detuning_factor} x probe bandwidth "
                    f"{self.probe_bandwidth}")
        # |Omega| on the switch window per sample count; the envelope is
        # immutable, so the peaks are sampled once per profile
        object.__setattr__(self, "_window_samples", {})

    @property
    def kz(self) -> float:
        return self.wavevector[2]

    def rabi(self, tau):
        return np.asarray(self.rabi_envelope(tau))

    def _f_of(self, rabi):
        return np.abs(rabi) ** 2 / self.one_photon_detuning ** 2

    def f(self, tau):
        """Dimensionless control parameter |Omega|^2 / Delta^2."""
        return self._f_of(self.rabi(tau))

    def at(self, s: float):
        """(Omega, f) at one time, from a single envelope evaluation."""
        rabi = self.rabi(s)
        return rabi, float(self._f_of(rabi))

    def stark_shift(self, tau):
        """Delta_nu^s(tau) = Delta_nu f_nu(tau)."""
        return self.one_photon_detuning * self.f(tau)

    def sample_step(self, s: float, dt: float) -> "StepSample":
        """The control on the Simpson points of the step [s, s + dt]."""
        rabi = self.rabi(simpson_nodes(s, dt))
        f = self._f_of(rabi)
        df_half, df_full = simpson_sums(f, dt)
        return StepSample(rabi=rabi, f=f, df_half=float(df_half),
                          df_full=float(df_full))

    def _window_abs_rabi(self, n_samples: int) -> np.ndarray:
        samples = self._window_samples.get(n_samples)
        if samples is None:
            tau = np.linspace(self.switch_on, self.switch_off, n_samples)
            samples = np.abs(self.rabi(tau))
            samples.setflags(write=False)
            self._window_samples[n_samples] = samples
        return samples

    def peak_f(self, n_samples: int = 2048) -> float:
        return float(np.max(self._f_of(self._window_abs_rabi(n_samples))))

    def peak_rabi(self, n_samples: int = 2048) -> float:
        return float(np.max(self._window_abs_rabi(n_samples)))

    @classmethod
    def flat_top(cls, rabi: float, detuning: float, switch_on: float,
                 switch_off: float, rise_time: float | None = None,
                 **kw) -> "ControlProfile":
        """Plateau control with raised-cosine edges (default rise: 5% of
        the on-window)."""
        if rise_time is None:
            rise_time = 0.05 * (switch_off - switch_on)
        shape = raised_cosine_envelope(switch_on, switch_off, rise_time)

        def env(tau):
            return rabi * shape(tau)

        return cls(rabi_envelope=env, one_photon_detuning=detuning,
                   switch_on=switch_on, switch_off=switch_off, **kw)

    def time_reversed(self, anchor: float, detuning: float | None = None,
                      **kw) -> "ControlProfile":
        """Mirror image Omega'(tau) = Omega(anchor - tau).

        Used to build the stage-2 control satisfying the envelope-reversal
        condition; the anchor maps stage-1 switch-off to the new origin.
        """
        base = self.rabi_envelope

        def env(tau):
            return base(anchor - np.asarray(tau))

        return ControlProfile(
            rabi_envelope=env,
            one_photon_detuning=(self.one_photon_detuning
                                 if detuning is None else detuning),
            carrier=kw.pop("carrier", self.carrier),
            wavevector=kw.pop("wavevector", self.wavevector),
            switch_on=anchor - self.switch_off,
            switch_off=anchor - self.switch_on,
            probe_bandwidth=kw.pop("probe_bandwidth", self.probe_bandwidth),
            detuning_factor=kw.pop("detuning_factor", self.detuning_factor),
        )


@dataclass(frozen=True)
class ProbeSpec:
    """Input probe envelope A1(tau, Z=0) and its bandwidth bookkeeping."""

    envelope: Callable
    carrier: float = 0.0
    duration: float | None = None
    spectral_width: float | None = None
    amplitude_scale: float = 1.0

    def __post_init__(self):
        if self.amplitude_scale < 0:
            raise ValidationError("amplitude_scale must be >= 0")
        dt, dw = self.duration, self.spectral_width
        if dt is None and dw is None:
            raise ValidationError("give duration or spectral_width")
        if dt is None:
            dt = 1.0 / dw
        if dw is None:
            dw = 1.0 / dt
        if dt <= 0 or dw <= 0:
            raise ValidationError("duration and spectral_width must be > 0")
        if abs(dt * dw - 1.0) > 1e-9:
            raise ValidationError(
                f"duration * spectral_width = {dt * dw!r}, convention is 1")
        object.__setattr__(self, "duration", float(dt))
        object.__setattr__(self, "spectral_width", float(dw))

    @classmethod
    def gaussian(cls, center: float, duration: float,
                 amplitude_scale: float = 1.0, carrier: float = 0.0
                 ) -> "ProbeSpec":
        return cls(envelope=gaussian_envelope(center, duration),
                   carrier=carrier, duration=duration,
                   amplitude_scale=amplitude_scale)

    def sample(self, tau):
        return np.asarray(self.envelope(tau), dtype=complex)

    def measured_spectral_width(self, window: tuple[float, float],
                                n_samples: int = 4096) -> float:
        """Gaussian-equivalent RMS bandwidth of the sampled envelope.

        sqrt(2) x the rms width of |A(omega)|^2, so a Gaussian of duration
        dt measures exactly 1/dt.
        """
        t0, t1 = window
        tau = np.linspace(t0, t1, n_samples, endpoint=False)
        a = self.sample(tau)
        spec = np.abs(np.fft.fft(a)) ** 2
        omega = 2.0 * np.pi * np.fft.fftfreq(n_samples, d=tau[1] - tau[0])
        total = spec.sum()
        if total == 0:
            raise ValidationError("probe envelope is identically zero")
        mean = (omega * spec).sum() / total
        var = (((omega - mean) ** 2) * spec).sum() / total
        return float(math.sqrt(2.0 * var))

    def validate_spectral_width(self, window: tuple[float, float],
                                tolerance: float = 0.05) -> float:
        measured = self.measured_spectral_width(window)
        if abs(measured - self.spectral_width) > tolerance * self.spectral_width:
            raise ValidationError(
                f"declared spectral width {self.spectral_width} differs from "
                f"measured {measured} by more than {tolerance:.0%}")
        return measured

    def validate_support(self, window: tuple[float, float],
                         n_samples: int = 4096) -> None:
        """Require compact numerical support inside the stage window."""
        t0, t1 = window
        tau = np.linspace(t0, t1, n_samples)
        a = np.abs(self.sample(tau))
        peak = a.max()
        if peak == 0:
            return
        if a[0] > SUPPORT_FLOOR * peak or a[-1] > SUPPORT_FLOOR * peak:
            raise ValidationError(
                "probe envelope does not vanish inside the stage window")


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    """Uniform (tau, Z) grid for one stage.

    moving_frame records which frame the stage uses: "probe"
    (tau1 = t - Z/v1, integration along +Z) or "echo"
    (tau2 = t + Z/v2 - tau_e, integration along -Z).
    """

    n_tau: int
    n_z: int
    t_end: float
    length: float
    moving_frame: str = "probe"

    def __post_init__(self):
        if self.n_tau < 2 or self.n_z < 2:
            raise ValidationError("n_tau and n_z must be >= 2")
        if self.t_end <= 0 or self.length <= 0:
            raise ValidationError("t_end and length must be > 0")
        if self.moving_frame not in ("probe", "echo"):
            raise ValidationError(f"unknown frame {self.moving_frame!r}")

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
                f"need n_tau >= {int(self.t_end * max_phase_rate / 0.5) + 2}")
        if self.dz * max_coupling > 0.5:
            raise StepTooCoarse(
                f"dz * coupling = {self.dz * max_coupling:.3g} > 0.5; "
                f"need n_z >= {int(self.length * max_coupling / 0.5) + 2}")

    def refined(self, factor: int = 2) -> "Grid":
        return Grid(n_tau=(self.n_tau - 1) * factor + 1,
                    n_z=(self.n_z - 1) * factor + 1,
                    t_end=self.t_end, length=self.length,
                    moving_frame=self.moving_frame)


# ---------------------------------------------------------------------------
# adiabatic-elimination diagnostic
# ---------------------------------------------------------------------------

def reconstruct_excited_coherences(field_amplitude, rabi, r12, r11,
                                   one_photon_detuning: float,
                                   delta31):
    """Excited-state coherences slaved to the slow variables.

    field_amplitude is the unscaled g*A (not zeta), so the expression is
    regular when the control vanishes.  Returns (R13, R32); both are
    diagnostics and never fed back into the integrators.
    """
    denom = one_photon_detuning + np.asarray(delta31, dtype=float)
    if np.any(np.abs(denom) < 1e-6 * abs(one_photon_detuning)):
        raise ResonantSingularity(
            "Delta_nu + delta31 vanished: node crosses the one-photon "
            "resonance")
    ga = np.asarray(field_amplitude, dtype=complex)
    om = np.asarray(rabi, dtype=complex)
    r12 = np.asarray(r12, dtype=complex)
    r11 = np.asarray(r11, dtype=float)
    r13 = (ga * r11 + om * r12) / denom
    r32 = (np.conj(ga) * r12 + np.conj(om) * (1.0 - r11)) / denom
    return r13, r32
