"""Closed-form recall efficiency for the two rephasing protocols.

The model trades irreversible dephasing against absorption depth.  With
gamma the ratio of the irreversible linewidth to the controlled spectral
scale (natural/controlled width for RECRIB, tooth width/comb spacing for
REAFC), and time normalized so the controlled scale is unity,

    efficiency = exp(-(gamma * total_time)^2) * (1 - exp(-depth))^2,

where the effective depth is alpha0L * gamma for RECRIB and
alpha0L * sqrt(2 pi) * gamma for REAFC.  The protocol factors come from
the line-center absorption of a Gaussian line rebinned onto the
controlled profile: RECRIB stretches the line by 1/gamma, while a comb
concentrates the same area into teeth whose peak gain over the mean is
sqrt(2 pi) * gamma per unit spacing.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoInteriorMaximum, RatioOutOfRange, ValidationError
from .numerics import fmt_float, golden_section_max, write_text_atomic

RECRIB = "recrib"
REAFC = "reafc"

# single-temporal-mode storage conventions: probe bandwidth 0.5 gives
# t1 = t2 = 2 * duration = 4 for RECRIB; one comb rephasing period, 2 pi,
# for REAFC
DEFAULT_TOTAL_TIME = {RECRIB: 8.0, REAFC: 2.0 * math.pi}

COMB_PEAK_FACTOR = math.sqrt(2.0 * math.pi)


def _normalize_protocol(protocol: str) -> str:
    p = str(protocol).strip().lower()
    if p not in (RECRIB, REAFC):
        raise ValidationError(f"unknown protocol {protocol!r}")
    return p


@dataclass(frozen=True)
class EfficiencyModel:
    """One evaluation point of the closed-form efficiency.

    total_time defaults to the protocol's single-mode convention (8 for
    RECRIB, 2 pi for REAFC); an explicit override, including 0 to switch
    the dephasing factor off, is honored as-is.
    """

    protocol: str
    alpha0L: float
    gamma_param: float
    total_time: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "protocol",
                           _normalize_protocol(self.protocol))
        if self.total_time is None:
            object.__setattr__(self, "total_time",
                               DEFAULT_TOTAL_TIME[self.protocol])
        for name in ("alpha0L", "gamma_param", "total_time"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValidationError(f"{name} must be finite and >= 0")

    @property
    def depth_per_gamma(self) -> float:
        factor = COMB_PEAK_FACTOR if self.protocol == REAFC else 1.0
        return self.alpha0L * factor


def _curve(model: EfficiencyModel):
    """Efficiency as a function of gamma at the model's protocol, depth
    and total time: the one closed form, evaluated on plain floats."""
    total_time, depth_per_gamma = model.total_time, model.depth_per_gamma

    def eps(gamma: float) -> float:
        dephasing = math.exp(-(gamma * total_time) ** 2)
        absorption = (1.0 - math.exp(-depth_per_gamma * gamma)) ** 2
        return dephasing * absorption
    return eps


def epsilon(model: EfficiencyModel) -> float:
    """Recall efficiency: dephasing envelope times absorption completeness."""
    return _curve(model)(model.gamma_param)


def alpha_eff(protocol: str, alpha0: float, ratio: float) -> float:
    """Effective absorption coefficient after spectral tailoring.

    ratio is natural width / controlled width (RECRIB) or tooth width /
    comb spacing (REAFC); both schemes keep it in (0, 1].
    """
    p = _normalize_protocol(protocol)
    if not (0.0 < ratio <= 1.0):
        raise RatioOutOfRange(f"ratio must lie in (0, 1], got {ratio}")
    factor = COMB_PEAK_FACTOR if p == REAFC else 1.0
    return alpha0 * factor * ratio


def sweep_gamma(protocol: str, alpha0L: float, gamma_grid,
                total_time: float | None = None) -> np.ndarray:
    """Efficiency along a monotone gamma grid in [0, 1].

    Returns an (n, 2) array of (gamma, efficiency) rows.
    """
    curve = _curve(EfficiencyModel(protocol, alpha0L, 0.0, total_time))
    grid = np.asarray(gamma_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValidationError("gamma_grid must be a non-empty 1-d array")
    # written so that a nan anywhere fails it too
    if not (np.all(np.diff(grid) > 0) and 0.0 <= grid[0] and grid[-1] <= 1.0):
        raise ValidationError("gamma_grid must increase strictly in [0, 1]")
    return np.column_stack([grid, [curve(g) for g in grid.tolist()]])


def optimal_gamma(protocol: str, alpha0L: float,
                  total_time: float | None = None) -> tuple[float, float]:
    """Interior maximizer of efficiency over gamma in (0, 1].

    With a the depth per unit gamma, d(log eps)/d(gamma) vanishes where
    gamma T^2 (e^{a gamma} - 1) = a; the left side increases strictly
    from 0, so eps has one stationary point, a maximum.  The peak of a
    4001-point scan therefore brackets it between its neighbours, and
    golden section refines it to an efficiency converged well below
    1e-8.  A maximum on the gamma = 1 boundary (so always for T = 0)
    raises the NoInteriorMaximum warning and is returned anyway.
    """
    if not alpha0L > 0:
        raise ValidationError("alpha0L must be > 0")
    model = EfficiencyModel(protocol, alpha0L, 0.0, total_time)
    f = _curve(model)
    grid = np.linspace(0.0, 1.0, 4001)
    vals = np.array([f(g) for g in grid.tolist()])
    k = int(np.argmax(vals))
    if k == len(grid) - 1:
        warnings.warn(
            f"efficiency maximum for {model.protocol} at alpha0L={alpha0L} "
            "sits on the gamma = 1 boundary", NoInteriorMaximum)
        return 1.0, float(vals[-1])
    g_star, eps_star = golden_section_max(f, grid[max(k - 1, 0)],
                                          grid[k + 1])
    return float(g_star), float(eps_star)


def write_sweep_csv(path: str, traces: dict, total_time: float | None = None
                    ) -> None:
    """Write (protocol, alpha0L) -> (n, 2) sweep tables to one CSV.

    Appends a comment row per trace with its optimal point.
    """
    lines = ["protocol,alpha0L,gamma,epsilon"]
    comments = []
    for (protocol, alpha0L), table in traces.items():
        p, alpha_cell = _normalize_protocol(protocol), fmt_float(alpha0L)
        lines.extend(f"{p},{alpha_cell},{fmt_float(g)},{fmt_float(e)}"
                     for g, e in np.asarray(table, dtype=float).tolist())
        g_star, eps_star = optimal_gamma(p, alpha0L, total_time)
        comments.append(
            f"# optimal {p} alpha0L={alpha_cell} "
            f"gamma={fmt_float(g_star)} epsilon={fmt_float(eps_star)}")
    write_text_atomic(path, "\n".join(lines + comments) + "\n")
