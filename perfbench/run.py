"""ramanecho benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload scenarios --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from a checkout of the repository; the package is imported from the
checkout's `src/`, never from an installed copy.  After one untimed
warm-up operation, operations run one after another until `--seconds`
have passed (at least one runs).  Each part of an operation is timed
between runs of the reference probe (probe.py), and the gated times are
scaled to the probe's reference speed.  With
`--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
runs untraced for the first half of the time and traced for the second,
and reports the per-layer metrics of BENCHMARK.json plus the tracing
overhead.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.  `--smoke` runs every
workload once in both modes and checks that every metric prints with
its unit and that no operation fails.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")

SETUP_REPEATS = 7
# end-to-end metrics printed but not gated in BENCHMARK.json, where a
# gated metric must apply to every workload and never read 0, and the
# unscaled times, which follow the machine's speed (see probe.py)
UNGATED = {
    "wall_raw_s": ("s", ("scenarios", "saturating", "sweep")),
    "cpu_raw_s": ("s", ("scenarios", "saturating", "sweep")),
    "setup_raw_s": ("s", ("scenarios", "saturating", "sweep")),
    "probe_s": ("s", ("scenarios", "saturating", "sweep")),
    "error_rate": ("ratio", ("scenarios", "saturating", "sweep")),
    "cell_steps_per_s": ("1/s", ("scenarios", "saturating")),
    "points_per_s": ("1/s", ("sweep",)),
    "audit_residual_max": ("ratio", ("scenarios", "saturating")),
}
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# a traced sweep records 30k spans per operation; past this many spans
# the traced half ends early (after a whole operation) to bound memory
MAX_SPANS = 1_000_000


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or inputs)."""


def import_package():
    """Import ramanecho from this checkout's src/ and nowhere else."""
    init = os.path.join(SRC, "ramanecho", "__init__.py")
    if not os.path.isfile(init):
        raise BenchError(f"no package sources at {init}")
    if not os.path.isdir(os.path.join(ROOT, "scenarios")):
        raise BenchError("no scenarios/ directory next to perfbench/")
    sys.path.insert(0, SRC)
    import ramanecho
    if os.path.realpath(ramanecho.__file__) != os.path.realpath(init):
        raise BenchError(f"imported {ramanecho.__file__}, not {init}")
    import workloads
    return workloads


def scale(part: dict) -> dict:
    """The part's wall and CPU time at the reference speed, from the
    median of the probes run before, during and after it."""
    factor = probe.REFERENCE_S / statistics.median(part["probes"])
    return {"wall": part["wall"] * factor, "cpu": part["cpu"] * factor}


def measure_setup(workload: str, seed: int,
                  repeats: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters that import ramanecho and build the
    workload's inputs, as a CLI user pays it on every run, and the times
    of the probes run before each of them and after the last."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", workload, "--seed", str(seed)]
    for _ in range(3):  # the first runs of the probe are slower
        probe.probe()
    times, probes = [], [probe.probe()]
    for _ in range(repeats):
        t0 = time.perf_counter()
        child = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls every 50 ms, which would round the
        # time up to the next poll; this waits in waitpid instead
        watchdog = threading.Timer(120, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, argv)
        probes.append(probe.probe())
    return times, probes


def run_ops(workload, seconds: float, tracer=None,
            sample: bool = True) -> list[dict]:
    """Closed loop: operations back to back until `seconds` have passed.
    Each part of an operation is timed on its own, between two probes and,
    if `sample`, with the probe run during it; the time of those runs is
    not counted in the part's."""
    for _ in range(3):  # the first runs of the probe are slower
        probe.probe()
    sampler = probe.Sampler()
    samples = []
    deadline = time.perf_counter() + seconds
    while not samples or (time.perf_counter() < deadline and (
            tracer is None or tracer.span_count < MAX_SPANS)):
        with (contextlib.nullcontext() if tracer is None
              else tracer.operation(workload.name)):
            parts, results, previous = [], [], None
            before = probe.probe()
            for label, step in workload.parts():
                with (sampler.active() if sample
                      else contextlib.nullcontext(sampler)):
                    t0, c0 = time.perf_counter(), time.process_time()
                    previous = step(previous)
                    wall = time.perf_counter() - t0 - sampler.wall_used
                    cpu = time.process_time() - c0 - sampler.cpu_used
                after = probe.probe()
                parts.append({"label": label, "wall": wall, "cpu": cpu,
                              "probes": [before, *sampler.samples, after]})
                results.append(previous)
                before = after
        samples.append({"parts": parts, "checked": workload.check(results)})
    return samples


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest listed percentile with at least ten samples above it."""
    if len(values) < 2:
        return None
    cuts = statistics.quantiles(values, n=1000, method="inclusive")
    for pct in PERCENTILES:
        value = cuts[round(pct * 10) - 1]
        if sum(v > value for v in values) >= 10:
            return pct, value
    return None


def per_operation(samples: list[dict], key: str, scaled: bool) -> float:
    """Time of one operation: the sum over its parts of each part's median
    time (wall or cpu), scaled to the reference speed or not."""
    by_label: dict[str, list[float]] = {}
    for s in samples:
        for part in s["parts"]:
            value = scale(part)[key] if scaled else part[key]
            by_label.setdefault(part["label"], []).append(value)
    return sum(statistics.median(v) for v in by_label.values())


def end_to_end(samples: list[dict],
               setup: tuple[list[float], list[float]],
               error_rate: float) -> dict:
    checks = [s["checked"] for s in samples]
    total_wall = sum(p["wall"] for s in samples for p in s["parts"])
    probes = [x for s in samples for p in s["parts"] for x in p["probes"]]
    audits = [c.audit for c in checks if c.audit == c.audit]
    cell_steps = sum(c.cell_steps for c in checks)
    points = sum(c.points for c in checks)
    metrics = {
        "wall_s": (per_operation(samples, "wall", True), "s"),
        "cpu_s": (per_operation(samples, "cpu", True), "s"),
        # scaled by the median probe of the whole set-up: scaling each
        # interpreter by its neighbours added more noise than it removed
        "setup_s": (statistics.median(setup[0]) * probe.REFERENCE_S
                    / statistics.median(setup[1]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "wall_raw_s": (per_operation(samples, "wall", False), "s"),
        "cpu_raw_s": (per_operation(samples, "cpu", False), "s"),
        "setup_raw_s": (statistics.median(setup[0]), "s"),
        "probe_s": (statistics.median(probes), "s"),
        "error_rate": (error_rate, "ratio"),
    }
    # the rest apply to some workloads only and print only where they do
    if cell_steps:
        metrics["cell_steps_per_s"] = (cell_steps / total_wall, "1/s")
    if points:
        metrics["points_per_s"] = (points / total_wall, "1/s")
    if audits:
        metrics["audit_residual_max"] = (max(audits), "ratio")
    return metrics


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def report(workload_name: str, env: dict, metrics: dict, notes: list[str],
           gated: list[str], attempted: int, failed: int) -> dict:
    print(f"# workload {workload_name}")
    print("# environment " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for note in notes:
        print(note)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]} for name in gated},
    }
    return result


def run(args) -> int:
    workloads = import_package()

    cls = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        cls(ROOT, args.seed, TMP_DIR)
        return 0
    import environment
    import tracing

    spec = load_spec()
    env = environment.record(ROOT)

    setup = ([], []) if args.trace else measure_setup(
        args.workload, args.seed, 1 if args.seconds == 0 else SETUP_REPEATS)
    work_dir = os.path.join(TMP_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        workload = cls(ROOT, args.seed, work_dir)
        # The first operation in a process is up to 1.4x slower (the
        # allocator returns large temporaries to the kernel until its
        # mmap threshold adapts), so one operation runs untimed; its
        # outputs are checked like the others'.
        warm_up = run_ops(workload, 0) if args.seconds else []
        if args.trace:
            # no probe inside the parts: it would run inside traced spans
            untraced = run_ops(workload, args.seconds / 2, sample=False)
            tracer = tracing.Tracer()
            tracer.install()
            traced = run_ops(workload, args.seconds / 2, tracer,
                             sample=False)
            tracer.save(os.path.join(OUT_DIR,
                                     f"spans-{args.workload}.npz"))
        else:
            samples = run_ops(workload, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if args.trace:
        samples = untraced + traced
    attempted = sum(s["checked"].attempted for s in warm_up + samples)
    failed = sum(s["checked"].failed for s in warm_up + samples)
    notes = []
    if args.trace:
        metrics = tracing.layer_metrics(tracer, len(traced))
        wall_u = per_operation(untraced, "wall", True)
        wall_t = per_operation(traced, "wall", True)
        metrics["trace.wall_s_untraced"] = (wall_u, "s")
        metrics["trace.wall_s_traced"] = (wall_t, "s")
        metrics["trace.overhead_s"] = (wall_t - wall_u, "s")
        gated = [m["name"] for m in spec["per_layer"]]
        notes.append(f"# traced ops = {len(traced)}, untraced ops = "
                     f"{len(untraced)}; counts and times are per operation")
    else:
        metrics = end_to_end(samples, setup, failed / attempted)
        gated = [m["name"] for m in spec["end_to_end"]]
        walls = [sum(scale(p)["wall"] for p in s["parts"])
                 for s in samples]
        pct = tail(walls)
        labels = {p["label"] for s in samples for p in s["parts"]}
        notes.append(f"# wall_s, cpu_s: sum over {len(labels)} parts of "
                     f"the median scaled part time; operations = "
                     f"{len(walls)}; " + (
            f"p{pct[0]:g} of scaled wall_s = {pct[1]:.6g} s" if pct else
            "no percentile has 10 samples above it"))
        notes.append(f"# setup_s samples = {len(setup[0])}")
    for s in warm_up + samples:
        for error in s["checked"].errors:
            print(f"# FAILED: {error}", file=sys.stderr)
    result = report(args.workload, env, metrics, notes, gated, attempted,
                    failed)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"environment": env, "workload": args.workload,
                   "seed": args.seed, "seconds": args.seconds,
                   "all_metrics": metrics, "result": result,
                   "setup": {"times": setup[0], "probes": setup[1]},
                   "reference_s": probe.REFERENCE_S,
                   "ops": [[[p["label"], p["wall"], p["cpu"], p["probes"]]
                            for p in s["parts"]] for s in samples]},
                  fh, indent=1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def smoke() -> int:
    """Each workload once in both modes: every metric printed with its
    unit, every operation correct.  Prints each run's report."""
    spec = load_spec()
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units.update({name: unit for name, (unit, _) in UNGATED.items()})
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 workload, "--seed", "1", "--seconds", "0", "--trace",
                 str(trace)], cwd=ROOT, capture_output=True, text=True,
                timeout=600)
            label = f"{workload} trace={trace}"
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(lines[-1])
            want = [m["name"] for m in
                    spec["per_layer" if trace else "end_to_end"]]
            if list(result["metrics"]) != want:
                problems.append(f"{label}: metrics {list(result['metrics'])}")
            printed_only = [name for name, (_, where) in UNGATED.items()
                            if not trace and workload in where]
            for name in want + printed_only:
                unit = units[name]
                got = result["metrics"].get(name, {}).get("unit", unit)
                if got != unit or not any(
                        line.startswith(f"{name} = ") and
                        line.endswith(f" {unit}") for line in lines):
                    problems.append(f"{label}: {name} not printed in {unit}")
            printed = [line for line in lines
                       if line.startswith("error_rate = ")]
            if not trace and printed != ["error_rate = 0 ratio"]:
                problems.append(f"{label}: {printed}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{label}: {result['failed']} failed\n"
                                f"{proc.stderr[-2000:]}")
            print("\n".join(lines[:-1]))
            print(f"smoke {label}: {len(want)} metrics, "
                  f"{result['attempted']} attempted, "
                  f"{result['failed']} failed")
    for problem in problems:
        print(f"SMOKE FAILED {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("scenarios", "saturating",
                                               "sweep"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once and check the output")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
