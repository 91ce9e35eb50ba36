"""The benchmark's three workloads and the checks every operation passes.

Each workload builds its inputs from the seed in its constructor (the
set-up the benchmark times).  `parts` lists the steps of one operation
as (label, step) pairs; the benchmark times each step on its own, with
the reference probe run around and during it, and passes each step the
result of the one before.  `check` verifies the results of one
operation's steps (not timed).  The package is driven only through its
public entry points: `ramanecho.cli.main`, `run_storage`/`run_retrieval`
and the functions they need to build their inputs.

Why these three (see README.md for the layer map):
  scenarios   what a user runs: `ramanecho simulate` then `check` on the
              four shipped INI files; small grids, so per-call Python
              overhead dominates; both regimes and the strict refusal.
  saturating  the strong-field round trip of the acceptance test at
              33 nodes on a 721 x 641 grid; array arithmetic dominates.
  sweep       the default `ramanecho sweep`; only the closed-form
              efficiency layer runs, which the other two never call.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import os
import random
import shutil
import traceback
from dataclasses import dataclass, field

import numpy as np

from ramanecho import (
    ControlProfile,
    Grid,
    MediumSpec,
    ProbeSpec,
    ProtocolConfig,
    build_gaussian_ensemble,
    measure_efficiency,
    run_retrieval,
    run_storage,
)
from ramanecho import cli
from ramanecho.core import WEAK_AMPLITUDE_RATIO
from ramanecho.scenario import build_ensemble, build_grids, load_scenario

# Cross-configuration references compare with a tolerance: the weak
# solver's BLAS reduction changes last bits with the thread count
# (reafc_weak: 0.80918531860982 on 1 thread, 0.8091853186098199 on 2).
REL_TOL = 1e-9
AUDIT_TOL = 1e-3

SCENARIOS = ("recrib_ideal", "recrib_strong", "reafc_weak",
             "recrib_broken_iv")
EXPECTED_EXIT = {
    "simulate": {"recrib_ideal": 0, "recrib_strong": 0, "reafc_weak": 0,
                 "recrib_broken_iv": 2},
    "check": {"recrib_ideal": 0, "recrib_strong": 0, "reafc_weak": 0,
              "recrib_broken_iv": 3},
}

# References recorded at commit af73456 (numpy 2.4.6, OpenBLAS 0.3.31 on
# 2 threads, Python 3.11): (efficiency, fidelity) printed by `simulate`.
SCENARIO_REFERENCE = {
    "recrib_ideal": (0.999999343011542, 0.9998319786121022),
    "recrib_strong": (0.989090447035017, 0.9989287784087137),
    "reafc_weak": (0.80918531860982, 0.9672794728530663),
}
# eps_met is the value test_acceptance.py freezes as 0.999763
SATURATING_REFERENCE = {"efficiency": 0.9997628407208532,
                        "fidelity": 0.9999237410037394}
# optimum comment lines of the default sweep: (gamma*, epsilon*)
SWEEP_OPTIMA = {
    "recrib 50": (0.054576391005673755, 0.72203567970400384),
    "recrib 200": (0.024318516562079437, 0.94804569127075644),
    "recrib 1000": (0.0076256040980142541, 0.99531358706241757),
    "reafc 50": (0.035861230536962094, 0.9293817392029976),
    "reafc 200": (0.013638680279658956, 0.99055448240104227),
    "reafc 1000": (0.0038717546356832368, 0.99928650072715552),
}

SWEEP_TRACES = 6
SWEEP_POINTS = 1001


@dataclass
class Checked:
    """Verdict on one operation."""

    attempted: int
    errors: list[str] = field(default_factory=list)
    cell_steps: int = 0
    points: int = 0
    audit: float = math.nan

    @property
    def failed(self) -> int:
        return len(self.errors)


def _call_cli(argv):
    """cli.main with captured output: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # noqa: BLE001 - an operation failure, not ours
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def _close(value, reference) -> bool:
    return math.isclose(value, reference, rel_tol=REL_TOL, abs_tol=0.0)


def _summary_fields(stdout: str) -> dict[str, float]:
    """key=value pairs of `simulate`'s summary line plus its audit line."""
    fields = {}
    lines = stdout.splitlines()
    for part in lines[0].split() if lines else ():
        key, _, value = part.partition("=")
        if key in ("efficiency", "fidelity"):
            fields[key] = float(value)
    for line in lines:
        if line.startswith("storage_audit = "):
            fields["storage_audit"] = float(line.split("=")[1])
    return fields


class Identity:
    """Byte identity of a named output across the operations of one run."""

    def __init__(self):
        self._first: dict[str, str] = {}

    def check(self, key: str, *blobs: bytes) -> str | None:
        digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
        first = self._first.setdefault(key, digest)
        if digest != first:
            return f"{key}: output differs from the first repetition"
        return None


class Scenarios:
    """One operation: simulate then check on each shipped scenario, the
    four pairs in an order drawn from the seed."""

    name = "scenarios"

    def __init__(self, root: str, seed: int, work_dir: str):
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.paths = {n: os.path.join(root, "scenarios", f"{n}.ini")
                      for n in SCENARIOS}
        self.cells = {}
        for name, path in self.paths.items():
            scenario = load_scenario(path)
            nodes = build_ensemble(scenario).n_nodes
            g1, g2 = build_grids(scenario)
            self.cells[name] = (g1.n_tau * g1.n_z * nodes,
                                g2.n_tau * g2.n_z * nodes)
        self.identity = Identity()

    def parts(self):
        order = list(SCENARIOS)
        self.rng.shuffle(order)
        return [(name, functools.partial(self._simulate_then_check, name))
                for name in order]

    def _simulate_then_check(self, name, _previous):
        out_dir = os.path.join(self.work_dir, name)
        shutil.rmtree(out_dir, ignore_errors=True)
        return [("simulate", name, _call_cli(
                    ["simulate", self.paths[name], "--out", out_dir])),
                ("check", name, _call_cli(["check", self.paths[name]]))]

    def check(self, results) -> Checked:
        outcomes = [outcome for part in results for outcome in part]
        result = Checked(attempted=len(outcomes))
        audits = []
        for command, name, (code, stdout, stderr) in outcomes:
            tag = f"{command} {name}"
            want = EXPECTED_EXIT[command][name]
            if code != want:
                result.errors.append(
                    f"{tag}: exit {code}, expected {want}: {stderr[-500:]}")
                continue
            if command == "check":
                problem = self.identity.check(tag, stdout.encode())
                if problem:
                    result.errors.append(problem)
                continue
            out_dir = os.path.join(self.work_dir, name)
            storage, retrieval = self.cells[name]
            if code == 2:
                result.cell_steps += storage
                if not stderr.startswith("conditions unmet") or \
                        os.path.exists(out_dir):
                    result.errors.append(
                        f"{tag}: refusal must report the unmet conditions "
                        "and write nothing")
                continue
            result.cell_steps += storage + retrieval
            problem = self._check_simulate(tag, name, stdout, out_dir,
                                           audits)
            if problem:
                result.errors.append(problem)
        result.audit = max(audits, default=math.nan)
        return result

    def _check_simulate(self, tag, name, stdout, out_dir, audits):
        fields = _summary_fields(stdout)
        if set(fields) != {"efficiency", "fidelity", "storage_audit"}:
            return f"{tag}: summary incomplete: {stdout[:300]!r}"
        audits.append(fields["storage_audit"])
        if not fields["storage_audit"] < AUDIT_TOL:
            return f"{tag}: storage audit {fields['storage_audit']}"
        eps_ref, fid_ref = SCENARIO_REFERENCE[name]
        if not (_close(fields["efficiency"], eps_ref)
                and _close(fields["fidelity"], fid_ref)):
            return (f"{tag}: efficiency/fidelity {fields['efficiency']!r}/"
                    f"{fields['fidelity']!r}, reference {eps_ref!r}/"
                    f"{fid_ref!r}")
        blobs = [stdout.encode()]
        for artifact in ("input.csv", "echo.csv", "summary.txt",
                         "conditions.txt"):
            try:
                with open(os.path.join(out_dir, artifact), "rb") as fh:
                    blobs.append(fh.read())
            except OSError as exc:
                return f"{tag}: artifact missing: {exc}"
        return self.identity.check(tag, *blobs)


class Saturating:
    """One operation: strong-field storage plus the met-condition
    retrieval of test_criterion_05 (33 nodes, 721 x 641 grid)."""

    name = "saturating"

    def __init__(self, root: str, seed: int, work_dir: str):
        rabi = detuning = 20.0
        probe_bandwidth = 0.5
        # peak probe Stark shift equal to half the probe bandwidth
        peak_zeta = math.sqrt(0.5 * probe_bandwidth * detuning)
        amp = peak_zeta / (WEAK_AMPLITUDE_RATIO * detuning)
        self.ensemble = build_gaussian_ensemble(width=1.0, n_nodes=33,
                                                rule="uniform")
        self.control1 = ControlProfile.flat_top(
            rabi=rabi, detuning=detuning, switch_on=0.0, switch_off=24.0)
        self.input_probe = ProbeSpec.gaussian(center=12.0, duration=2.0,
                                        amplitude_scale=amp)
        self.medium = MediumSpec.from_alpha_eff(
            500.0, line_width_31=self.ensemble.line_width_31(),
            length_L=1.0)
        self.grid = Grid(n_tau=721, n_z=641, t_end=24.0, length=1.0)
        self.protocol = ProtocolConfig(protocol="recrib", t1=12.0, t2=12.0)
        self.control2 = self.control1.time_reversed(anchor=24.0,
                                                    detuning=-detuning)
        self.cells = 2 * (self.grid.n_tau * self.grid.n_z
                          * self.ensemble.n_nodes)
        self.identity = Identity()

    def parts(self):
        return [("storage", self._storage), ("retrieval", self._retrieval)]

    def _storage(self, _previous):
        try:
            return run_storage(self.input_probe, self.control1,
                               self.ensemble, self.medium, self.grid)
        except Exception:  # noqa: BLE001 - an operation failure, not ours
            return {"error": traceback.format_exc()}

    def _retrieval(self, out):
        if isinstance(out, dict):
            return out
        try:
            min_r11 = float(np.min(out.state.r11))
            rec = run_retrieval(
                out.state, self.control2, self.protocol, self.ensemble,
                self.medium, self.grid, tau_input=out.tau,
                input_envelope=out.input_envelope,
                transmitted_fraction=out.transmitted_fraction)
            eps, fid = measure_efficiency(rec)
        except Exception:  # noqa: BLE001 - an operation failure, not ours
            return {"error": traceback.format_exc()}
        return {"efficiency": eps, "fidelity": fid, "min_r11": min_r11,
                "audits": (out.audit_residual,
                           rec.extras["audit_residual"]),
                "echo": rec.echo_envelope.tobytes()}

    def check(self, results) -> Checked:
        outcome = results[-1]
        result = Checked(attempted=1)
        if "error" in outcome:
            result.errors.append(outcome["error"][-1000:])
            return result
        result.cell_steps = self.cells
        result.audit = max(outcome["audits"])
        ref = SATURATING_REFERENCE
        if not outcome["min_r11"] < 0.5:
            result.errors.append("storage did not saturate")
        elif not result.audit < AUDIT_TOL:
            result.errors.append(f"audits {outcome['audits']}")
        elif not (_close(outcome["efficiency"], ref["efficiency"])
                  and _close(outcome["fidelity"], ref["fidelity"])):
            result.errors.append(
                f"efficiency/fidelity {outcome['efficiency']!r}/"
                f"{outcome['fidelity']!r}, reference {ref}")
        else:
            problem = self.identity.check("echo", outcome["echo"])
            if problem:
                result.errors.append(problem)
        return result


def _closed_form(protocol: np.ndarray, alpha0l: np.ndarray,
                 gamma: np.ndarray) -> np.ndarray:
    """exp(-(gamma T)^2) (1 - exp(-depth))^2 written out independently of
    ramanecho.efficiency: T = 8, depth = alpha0L gamma for RECRIB;
    T = 2 pi, depth = sqrt(2 pi) alpha0L gamma for REAFC."""
    comb = protocol == "reafc"
    total_time = np.where(comb, 2.0 * math.pi, 8.0)
    depth = alpha0l * gamma * np.where(comb, math.sqrt(2.0 * math.pi), 1.0)
    return np.exp(-(gamma * total_time) ** 2) * (1.0 - np.exp(-depth)) ** 2


class Sweep:
    """One operation: the default `ramanecho sweep` (6 traces x 1,001
    gamma points plus the optimum of each trace)."""

    name = "sweep"

    def __init__(self, root: str, seed: int, work_dir: str):
        self.csv = os.path.join(work_dir, "sweep.csv")
        self.argv = ["sweep", "--out", self.csv]
        self.identity = Identity()

    def parts(self):
        return [("sweep", lambda _previous: _call_cli(self.argv))]

    def check(self, results) -> Checked:
        result = Checked(attempted=1)
        code, stdout, stderr = results[-1]
        try:
            with open(self.csv, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            data, stderr = b"", stderr + str(exc)
        if code != 0 or not data:
            result.errors.append(f"sweep: exit {code}: {stderr[-500:]}")
            return result
        problem = self._check_table(data.decode())
        if problem is None:
            problem = self.identity.check("sweep", stdout.encode(), data)
        if problem:
            result.errors.append(problem)
        else:
            result.points = SWEEP_TRACES * SWEEP_POINTS
        return result

    @staticmethod
    def _check_table(text: str) -> str | None:
        lines = text.splitlines()
        rows = [line.split(",") for line in lines[1:]
                if not line.startswith("#")]
        optima = [line for line in lines if line.startswith("# optimal ")]
        if lines[0] != "protocol,alpha0L,gamma,epsilon" or \
                len(rows) != SWEEP_TRACES * SWEEP_POINTS:
            return f"sweep: {len(rows)} rows, header {lines[0]!r}"
        protocol = np.array([r[0] for r in rows])
        table = np.array([[float(v) for v in r[1:]] for r in rows])
        expected = _closed_form(protocol, table[:, 0], table[:, 1])
        if not np.allclose(table[:, 2], expected, rtol=1e-12, atol=1e-15):
            worst = float(np.max(np.abs(table[:, 2] - expected)))
            return f"sweep: epsilon off the closed form by {worst:.3g}"
        found = {}
        for line in optima:
            parts = dict(p.partition("=")[::2] for p in line.split()[3:])
            key = f"{line.split()[2]} {parts['alpha0L']}"
            found[key] = (float(parts["gamma"]), float(parts["epsilon"]))
        if set(found) != set(SWEEP_OPTIMA):
            return f"sweep: optima for {sorted(found)}"
        for key, (g_ref, e_ref) in SWEEP_OPTIMA.items():
            g, e = found[key]
            if not (_close(g, g_ref) and _close(e, e_ref)):
                return f"sweep: optimum {key} at {g!r}, {e!r}"
        return None


WORKLOADS = {cls.name: cls for cls in (Scenarios, Saturating, Sweep)}
