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

The closed form is written once as an array expression (`_closed_form`)
whose bits do not depend on the shape of gamma: a sweep trace is one
evaluation on its grid, `epsilon` is the same expression on a 0-d array,
so each row equals `epsilon` at its gamma, and `optimal_gamma` screens
its bracket grid with it.  The optimum itself (the confirmation of the
screened peak, the golden section and the boundary value) keeps the
scalar math.exp form, on which the recorded optima were found; numpy's
exp differs from math.exp by a few ulps, and refining on it would move
the default sweep's gamma* by up to 2.4e-8 relative.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoInteriorMaximum, ValidationError
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
        # the closed form squares gamma * total_time for gamma up to 1 and
        # scales gamma by the depth, so both must stay finite
        if not math.isfinite(self.total_time * self.total_time):
            raise ValidationError(
                f"total_time {self.total_time!r} overflows when squared")
        scaled = self.gamma_param * self.total_time
        if not math.isfinite(scaled * scaled):
            raise ValidationError(
                f"gamma_param {self.gamma_param!r} times total_time "
                f"{self.total_time!r} overflows when squared")
        if not math.isfinite(self.depth_per_gamma):
            raise ValidationError(
                f"alpha0L {self.alpha0L!r} overflows the {self.protocol} "
                "absorption depth")

    @property
    def depth_per_gamma(self) -> float:
        factor = COMB_PEAK_FACTOR if self.protocol == REAFC else 1.0
        return self.alpha0L * factor


def _closed_form(model: EfficiencyModel, gamma: np.ndarray) -> np.ndarray:
    """Efficiency at the model's protocol, depth and total time for every
    gamma, as one array expression.  Its bits do not depend on the shape
    or the strides of gamma: numpy's exp works the same on a 0-d array, a
    contiguous grid and the fresh products made here from a strided
    column; the squares are products, since `** 2` on a 0-d array calls
    pow, which now and then rounds differently from `x * x`."""
    scaled = gamma * model.total_time
    missed = 1.0 - np.exp(-model.depth_per_gamma * gamma)
    return np.exp(-(scaled * scaled)) * (missed * missed)


def _curve(model: EfficiencyModel):
    """The closed form on plain floats through math.exp: the form the
    optimum confirms and refines on (see the module docstring)."""
    total_time, depth_per_gamma = model.total_time, model.depth_per_gamma

    def eps(gamma: float) -> float:
        dephasing = math.exp(-(gamma * total_time) ** 2)
        absorption = (1.0 - math.exp(-depth_per_gamma * gamma)) ** 2
        return dephasing * absorption
    return eps


def epsilon(model: EfficiencyModel) -> float:
    """Recall efficiency: dephasing envelope times absorption completeness.
    The closed form on a 0-d array, so that it equals the sweep's row."""
    return float(_closed_form(model, np.asarray(model.gamma_param)))


def sweep_gamma(protocol: str, alpha0L: float, gamma_grid,
                total_time: float | None = None) -> np.ndarray:
    """Efficiency along a monotone gamma grid in [0, 1], each row equal to
    `epsilon` at its gamma.

    Returns an (n, 2) array of (gamma, efficiency) rows.
    """
    model = EfficiencyModel(protocol, alpha0L, 0.0, total_time)
    grid = np.asarray(gamma_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValidationError("gamma_grid must be a non-empty 1-d array")
    # written so that a nan anywhere fails it too
    if not (np.all(np.diff(grid) > 0) and 0.0 <= grid[0] and grid[-1] <= 1.0):
        raise ValidationError("gamma_grid must increase strictly in [0, 1]")
    return np.column_stack([grid, _closed_form(model, grid)])


# the bracket scan of optimal_gamma, and the relative margin within which
# a screened value may be the scan's maximum: numpy's and math's exp agree
# to a few ulps, far inside it
BRACKET_GRID = np.linspace(0.0, 1.0, 4001)
BRACKET_GRID.flags.writeable = False
SCREEN_MARGIN = 1e-12


def _boundary_maximum(model: EfficiencyModel, curve) -> tuple[float, float]:
    warnings.warn(
        f"efficiency maximum for {model.protocol} at "
        f"alpha0L={model.alpha0L} sits on the gamma = 1 boundary",
        NoInteriorMaximum)
    return 1.0, curve(1.0)


def optimal_gamma(protocol: str, alpha0L: float,
                  total_time: float | None = None) -> tuple[float, float]:
    """Interior maximizer of efficiency over gamma in (0, 1].

    With a the depth per unit gamma, d(log eps)/d(gamma) vanishes where
    gamma T^2 (e^{a gamma} - 1) = a; the left side increases strictly
    from 0 for T > 0, so eps has one stationary point, a maximum.  The
    peak of a 4001-point scan of the scalar closed form brackets it
    between its neighbours, and golden section refines it to an
    efficiency converged well below 1e-8.  The scan is screened and
    confirmed: the closed form is evaluated once as an array on the
    grid, and only the points within SCREEN_MARGIN of its maximum (all of
    them on a flat or vanishing curve) are evaluated as scalars, whose
    first maximum is the scan's peak.  A peak on the gamma = 1 boundary
    raises the NoInteriorMaximum warning and returns (1, eps(1)).  For
    T = 0 eps increases on all of [0, 1], so it always takes that path,
    even where the rounded curve reaches 1 inside the interval.  Where
    the refined efficiency rounds to 0 (a depth too small for
    1 - exp(-depth) to leave 0, or a dephasing that underflows on the
    whole bracket) the located point means nothing, and a
    ValidationError names alpha0L and total_time.
    """
    if not alpha0L > 0:
        raise ValidationError("alpha0L must be > 0")
    model = EfficiencyModel(protocol, alpha0L, 0.0, total_time)
    f = _curve(model)
    if model.total_time == 0.0:
        return _boundary_maximum(model, f)
    screen = _closed_form(model, BRACKET_GRID)
    # the absolute floor keeps every point where the screen is subnormal,
    # so that its last bits cannot decide
    floor = screen.max() * (1.0 - SCREEN_MARGIN) - np.finfo(float).tiny
    candidates = np.flatnonzero(screen >= floor)
    values = [f(g) for g in BRACKET_GRID[candidates].tolist()]
    k = int(candidates[values.index(max(values))])
    if k == BRACKET_GRID.size - 1:
        return _boundary_maximum(model, f)
    g_star, eps_star = golden_section_max(f, BRACKET_GRID[max(k - 1, 0)],
                                          BRACKET_GRID[k + 1])
    if eps_star == 0.0:
        raise ValidationError(
            f"{model.protocol} efficiency rounds to 0 around its peak at "
            f"alpha0L={alpha0L!r}, total_time={model.total_time!r}: "
            "no optimum to report")
    return float(g_star), float(eps_star)


def write_sweep_csv(path: str, traces: dict, total_time: float | None = None
                    ) -> dict:
    """Write (protocol, alpha0L) -> (n, 2) sweep tables to one CSV.

    Appends a comment row per trace with its optimal point, and returns
    those optima, (gamma*, epsilon*) by trace key.
    """
    lines = ["protocol,alpha0L,gamma,epsilon"]
    comments = []
    optima = {}
    gamma_bits = gamma_cells = None
    for (protocol, alpha0L), table in traces.items():
        p, alpha_cell = _normalize_protocol(protocol), fmt_float(alpha0L)
        gamma, eps = np.asarray(table, dtype=float).T
        # a trace on the previous trace's grid reuses its cells; bits, not
        # values, are compared, since -0.0 == 0.0 formats differently
        if gamma.tobytes() != gamma_bits:
            gamma_bits = gamma.tobytes()
            gamma_cells = [fmt_float(g) for g in gamma.tolist()]
        prefix = f"{p},{alpha_cell},"
        # the cell fmt_float writes, formatted inline
        lines.extend(f"{prefix}{g},{e:.17g}"
                     for g, e in zip(gamma_cells, eps.tolist()))
        g_star, eps_star = optimal_gamma(p, alpha0L, total_time)
        optima[(protocol, alpha0L)] = (g_star, eps_star)
        comments.append(
            f"# optimal {p} alpha0L={alpha_cell} "
            f"gamma={fmt_float(g_star)} epsilon={fmt_float(eps_star)}")
    write_text_atomic(path, "\n".join(lines + comments) + "\n")
    return optima
