"""Scenario orchestration: check conditions, run both stages, write files.

The scenario's objects are built once and serve both the reversal-
condition report and the run.  The report is checked before the storage
stage, so strict scenarios with a failed condition are refused before
anything is stepped, and the run result carries it into summary.txt and
conditions.txt.
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
from .errors import ConditionsUnmet
from .numerics import fmt_float, write_text_atomic
from .records import EchoRecord, measure_efficiency, write_envelope_csv
from .scenario import Scenario, build_grids, stage_setups
from .strongfield import run_retrieval, run_storage
from .weakfield import recall_weak, run_weak_storage


def _check(scenario: Scenario, stage1, stage2,
           proto: ProtocolConfig) -> ConditionReport:
    """Run the regime's reversal-condition checker on the two stages; the
    weak checker reads t1 and t2 off the protocol."""
    if scenario.run.regime == "strong":
        return check_strong_conditions(stage1, stage2)
    k = scenario.protocol.k if scenario.protocol.name == "reafc" else 0
    return check_weak_conditions(stage1, stage2, k=k, t1=proto.t1,
                                 t2=proto.t2)


def scenario_report(scenario: Scenario) -> ConditionReport:
    """Run the regime's reversal-condition checker on the two stages,
    once the storage checks that a run makes first have passed."""
    stage1, stage2, _, proto = stage_setups(scenario)
    stages.check_storage(stage1.probe, stage1.control,
                         build_grids(scenario)[0])
    return _check(scenario, stage1, stage2, proto)


@dataclass
class RunResult:
    scenario: Scenario
    report: ConditionReport
    record: EchoRecord
    efficiency: float
    fidelity: float
    storage_audit: float

    def summary_lines(self) -> list[str]:
        rec = self.record
        return [
            rec.summary_line(self.efficiency, self.fidelity),
            f"transmitted_fraction = {rec.transmitted_fraction:.6e}",
            f"storage_audit = {self.storage_audit:.6e}",
            f"retrieval_audit = {rec.extras['audit_residual']:.6e}",
            f"conditions {'pass' if self.report.overall else 'fail'}",
        ]


def run_scenario(scenario: Scenario) -> RunResult:
    """Storage plus recall for one scenario file.

    Builds the scenario's objects once and checks its conditions on them.
    Raises ConditionsUnmet before the storage stage when the scenario is
    strict and the report has a failure.
    """
    stage1, stage2, med, proto = stage_setups(scenario)
    ens, probe, ctl1, ctl2 = (stage1.ensemble, stage1.probe, stage1.control,
                              stage2.control)
    report = _check(scenario, stage1, stage2, proto)
    grid1, grid2 = build_grids(scenario)
    if scenario.protocol.strict and not report.overall:
        raise ConditionsUnmet("strict mode: conditions failed: "
                              + ", ".join(report.failing_ids()))
    # looked up at call time, so that a test can replace a driver here
    store, recall = ((run_storage, run_retrieval)
                     if scenario.run.regime == "strong"
                     else (run_weak_storage, recall_weak))
    out = store(probe, ctl1, ens, med, grid1)
    record = recall(
        out.state, ctl2, proto, ens, med, grid2,
        tau_input=out.tau, input_envelope=out.input_envelope,
        transmitted_fraction=out.transmitted_fraction)
    efficiency, fidelity = measure_efficiency(record)
    return RunResult(scenario=scenario, report=report, record=record,
                     efficiency=efficiency, fidelity=fidelity,
                     storage_audit=out.audit_residual)


def write_outputs(result: RunResult, out_dir: str) -> dict[str, str]:
    """Write the run's flat-file artifacts; every write is atomic.  The
    summary holds both photon audits and the condition report."""
    os.makedirs(out_dir, exist_ok=True)
    record = result.record
    paths = {
        "input": os.path.join(out_dir, "input.csv"),
        "echo": os.path.join(out_dir, "echo.csv"),
        "summary": os.path.join(out_dir, "summary.txt"),
        "conditions": os.path.join(out_dir, "conditions.txt"),
    }
    write_envelope_csv(paths["input"], record.tau_input, record.input_envelope)
    write_envelope_csv(paths["echo"], record.tau_echo, record.echo_envelope)
    report = result.report.as_text()
    write_text_atomic(paths["summary"], "\n".join([
        record.summary_line(result.efficiency, result.fidelity),
        f"transmitted_fraction={fmt_float(record.transmitted_fraction)}",
        f"storage_audit={fmt_float(result.storage_audit)}",
        f"retrieval_audit={fmt_float(record.extras['audit_residual'])}",
        report]) + "\n")
    write_text_atomic(paths["conditions"], report + "\n")
    return paths
