"""Scenario orchestration: check conditions, run both stages, write files.

The scenario's objects are built once and serve both the reversal-
condition report and the run.  The report is checked before the storage
stage, so strict scenarios with a failed condition are refused before
anything is stepped; it also rides along into the recall drivers, and
report-only scenarios attach it to the echo record for inspection.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .conditions import (
    ConditionReport,
    ProtocolConfig,
    check_strong_conditions,
    check_weak_conditions,
)
from . import stages
from .numerics import write_text_atomic
from .records import EchoRecord, measure_efficiency
from .scenario import Scenario, build_grids, build_protocol, stage_setups
from .strongfield import run_retrieval, run_storage
from .weakfield import recall_weak, run_weak_storage


def _check(scenario: Scenario, stage1, stage2,
           proto: ProtocolConfig | None = None) -> ConditionReport:
    """Run the regime's reversal-condition checker on the two stages; the
    weak checker reads t1 and t2 off the protocol (built when not given)."""
    if scenario.run.regime == "strong":
        return check_strong_conditions(stage1, stage2)
    if proto is None:
        proto = build_protocol(scenario, stage1, stage2)
    k = scenario.protocol.k if scenario.protocol.name == "reafc" else 0
    return check_weak_conditions(stage1, stage2, k=k, t1=proto.t1,
                                 t2=proto.t2)


def scenario_report(scenario: Scenario) -> ConditionReport:
    """Run the regime's reversal-condition checker on the two stages,
    once the storage checks that a run makes first have passed."""
    stage1, stage2, _ = stage_setups(scenario)
    stages.check_storage(stage1.probe, stage1.control,
                         build_grids(scenario)[0])
    return _check(scenario, stage1, stage2)


@dataclass
class RunResult:
    scenario: Scenario
    report: ConditionReport
    record: EchoRecord
    efficiency: float
    fidelity: float
    storage_audit: float
    transmitted_fraction: float

    def summary_lines(self) -> list[str]:
        rec = self.record
        return [
            rec.summary_line(self.efficiency, self.fidelity),
            f"transmitted_fraction = {self.transmitted_fraction:.6e}",
            f"storage_audit = {self.storage_audit:.6e}",
            f"conditions {'pass' if self.report.overall else 'fail'}",
        ]


def run_scenario(scenario: Scenario) -> RunResult:
    """Storage plus recall for one scenario file.

    Builds the scenario's objects once and checks its conditions on them.
    Raises ConditionsUnmet before the storage stage when the scenario is
    strict and the report has a failure, and ValidationError there for a
    negative or non-finite gap_time.
    """
    stage1, stage2, med = stage_setups(scenario)
    ens, probe, ctl1, ctl2 = (stage1.ensemble, stage1.probe, stage1.control,
                              stage2.control)
    proto = build_protocol(scenario, stage1, stage2)
    report = _check(scenario, stage1, stage2, proto)
    grid1, grid2 = build_grids(scenario)
    stages.gate_recall(proto, scenario.protocol.gap_time, report)
    # looked up at call time, so that a test can replace a driver here
    store, recall = ((run_storage, run_retrieval)
                     if scenario.run.regime == "strong"
                     else (run_weak_storage, recall_weak))
    out = store(probe, ctl1, ens, med, grid1)
    record = recall(
        out.state, ctl2, proto, ens, med, grid2,
        tau_input=out.tau, input_envelope=out.input_envelope,
        gap_time=scenario.protocol.gap_time, conditions=report,
        transmitted_fraction=out.transmitted_fraction)
    efficiency, fidelity = measure_efficiency(record)
    return RunResult(scenario=scenario, report=report, record=record,
                     efficiency=efficiency, fidelity=fidelity,
                     storage_audit=out.audit_residual,
                     transmitted_fraction=out.transmitted_fraction)


def write_outputs(result: RunResult, out_dir: str) -> dict[str, str]:
    """Write the run's flat-file artifacts; every write is atomic."""
    os.makedirs(out_dir, exist_ok=True)
    record = result.record
    paths = {
        "input": os.path.join(out_dir, "input.csv"),
        "echo": os.path.join(out_dir, "echo.csv"),
        "summary": os.path.join(out_dir, "summary.txt"),
        "conditions": os.path.join(out_dir, "conditions.txt"),
    }
    record.write_input_csv(paths["input"])
    record.write_echo_csv(paths["echo"])
    record.write_summary(paths["summary"], result.efficiency,
                         result.fidelity)
    write_text_atomic(paths["conditions"], result.report.as_text() + "\n")
    return paths
