"""Semiclassical simulator and analytics for Raman-echo quantum memory.

Two integrators share one set of domain types: a strong-field solver that
evolves the full single-atom Bloch variables coupled to the scaled probe
field, and a weak-field solver for the linearized dynamics.  On top of
those sit the rephasing-condition checkers, the closed-form efficiency
model for the RECRIB and REAFC protocols, and a small CLI.
"""

from .conditions import (
    PhaseMatching,
    ProtocolConfig,
    StageSetup,
    check_strong_conditions,
    check_weak_conditions,
    echo_time_afc,
)
from .core import (
    ControlProfile,
    EnsembleSpec,
    Grid,
    MediumSpec,
    ProbeSpec,
    build_comb_ensemble,
    build_gaussian_ensemble,
)
from .efficiency import (
    EfficiencyModel,
    epsilon,
    optimal_gamma,
    sweep_gamma,
)
from .errors import SimulationError
from .records import EchoRecord, measure_efficiency
from .runs import RunResult, run_scenario, scenario_report, write_outputs
from .scenario import (
    Scenario,
    default_scenario,
    dump_scenario,
    load_scenario,
    parse_scenario,
)
from .strongfield import run_retrieval, run_storage
from .weakfield import (
    recall_weak,
    run_weak_storage,
)

__version__ = "0.1.0"

__all__ = [
    "ControlProfile",
    "EchoRecord",
    "EfficiencyModel",
    "EnsembleSpec",
    "Grid",
    "MediumSpec",
    "PhaseMatching",
    "ProbeSpec",
    "ProtocolConfig",
    "RunResult",
    "Scenario",
    "SimulationError",
    "StageSetup",
    "build_comb_ensemble",
    "build_gaussian_ensemble",
    "check_strong_conditions",
    "check_weak_conditions",
    "default_scenario",
    "dump_scenario",
    "echo_time_afc",
    "epsilon",
    "load_scenario",
    "measure_efficiency",
    "optimal_gamma",
    "parse_scenario",
    "recall_weak",
    "run_retrieval",
    "run_scenario",
    "run_storage",
    "run_weak_storage",
    "scenario_report",
    "sweep_gamma",
    "write_outputs",
    "__version__",
]
