"""Exception and warning types shared across the package."""


class SimulationError(Exception):
    """Base class for all errors raised by this package."""


class NonPositiveWidth(SimulationError):
    """A distribution width that must be strictly positive is not."""


class TooFewNodes(SimulationError):
    """Quadrature node count below the minimum needed for the rule."""


class UnresolvedComb(SimulationError):
    """Comb teeth too wide relative to the spacing to be resolved."""


class EvenLineCount(SimulationError):
    """Comb ensembles need an odd number of lines (a center line at 0)."""


class ResonantSingularity(SimulationError):
    """One-photon denominator Delta_nu + delta31 vanished; adiabatic
    elimination is invalid for this node."""


class DetuningTooSmall(SimulationError):
    """One-photon detuning does not dominate the probe bandwidth."""


class StepTooCoarse(SimulationError):
    """Grid step violates a phase-resolution or field-coupling bound."""


class NonFiniteField(SimulationError):
    """NaN or overflow appeared in a field or coherence array."""


class ControlVanishes(SimulationError):
    """|Omega(tau)| = 0 while the scaled field is non-zero, making the
    probe Stark ratio |zeta|^2/|Omega|^2 singular."""


class PhysicalityViolation(SimulationError):
    """Bloch-sphere bound |r12|^2 <= r11 (1 - r11) broken beyond eps_num."""


class WeakFieldViolation(SimulationError):
    """Weak-field validity flags failed (field too strong or ensemble
    too wide relative to the one-photon detuning)."""


class ConditionsUnmet(SimulationError):
    """Reversibility conditions failed and strict mode is on."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ZeroInputEnergy(SimulationError):
    """Efficiency undefined: the input envelope carries no energy."""


class NonCausalEcho(SimulationError):
    """Requested comb rephasing order k gives a non-positive emission
    time; a larger k is needed."""


class ParseError(SimulationError):
    """Malformed scenario file; carries location when known."""


class ValidationError(SimulationError):
    """A scenario or parameter invariant is breached."""


class ArgumentError(SimulationError):
    """Malformed command-line argument value."""


class IncompleteAbsorptionWarning(UserWarning):
    """More than 5% of the probe energy left the medium unabsorbed."""


class NoInteriorMaximum(UserWarning):
    """Efficiency maximized at the Gamma = 1 boundary of the scan."""
