#!/usr/bin/env python3
"""Benchmark of the gapcircuits verifier: end-to-end and per-layer figures.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads are `grid`, `wide` and `dense` (see workloads.py and README.md);
`all` runs each in its own process, so no peak memory leaks between them.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
from a separate traced run.  Human-readable lines come first; the last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Exact per-instance counts go to perfbench/results/.

The program is imported from this checkout's src/; without it the script
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import workloads as wl
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE_DIR = ROOT / "src" / "gapcircuits"
RESULTS_DIR = BENCH_DIR / "results"

PROBE_SECONDS = 1.0
OP_KINDS = ("X", "CX", "Toffoli", "MCBitmask", "Z", "QramLoad")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "verify_p50_ms": "ms",
    "verify_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "builders.build_s": "s",
    "builders.gates": "count",
    "builders.ns_per_gate": "ns",
    "simulator.pathsum_s": "s",
    "simulator.branch_gates": "count",
    "simulator.pathsum_ns_per_branch_gate": "ns",
    **{f"simulator.ops.{kind}": "count" for kind in OP_KINDS},
    "simulator.pathsum_threaded_speedup": "x",
    "simulator.dense_s": "s",
    "simulator.dense_ms_per_gate": "ms",
    "simulator.dense_accept_s": "s",
    "simulator.dense_bytes": "B-computed",
    "verification.oracle_s": "s",
    "verification.accountant_s": "s",
    "verification.report_s": "s",
    "textio.to_text_s": "s",
    "textio.from_text_s": "s",
    "textio.bytes": "B",
    "instancefile.generate_s": "s",
    "trace.overhead_s": "s",
}


def import_program():
    """Import the package afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m.split(".")[0] == "gapcircuits"]:
        del sys.modules[name]
    gc = importlib.import_module("gapcircuits")
    if Path(gc.__file__).resolve().parent != PACKAGE_DIR:
        raise ImportError(f"gapcircuits came from {gc.__file__}, not from {PACKAGE_DIR}")
    return gc


def timed_setup(workload: wl.Workload, seed: int) -> tuple[float, float]:
    """CPU seconds of one set-up, and of its instance generation alone.

    A set-up is what a user pays before the first verification: a fresh
    import of the program plus generation of the workload's instances.  The
    modules the run verifies with are put back afterwards.
    """
    kept = {name: module for name, module in sys.modules.items()
            if name.split(".")[0] == "gapcircuits"}
    try:
        t0 = time.process_time()
        gc = import_program()
        t1 = time.process_time()
        wl.make_instances(gc, workload, seed)
        t2 = time.process_time()
    finally:
        sys.modules.update(kept)
    return t2 - t0, t2 - t1


def record_counts(gc, cases, path: Path) -> list[dict]:
    """Build each case once, untimed, and write its exact counts as JSON lines."""
    rows = []
    for case in cases:
        built = gc.build_circuit(case.instance, case.mode)
        rows.append({"seed": case.seed, "problem": case.problem, "mode": case.mode,
                     "n": built.n, "r": built.r, "d": built.d, "bound": built.bound,
                     **wl.circuit_counts(built.circuit)})
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
    return rows


def verify_case(gc, workload: wl.Workload, case: wl.Case):
    """One verification as a user runs it, ending with the text and JSON reports."""
    if workload.through_text:
        text = gc.built_to_text(gc.build_circuit(case.instance, case.mode))
        result = gc.verify_built(case.instance, gc.built_from_text(text))
    else:
        result = gc.verify_instance(case.instance, case.mode, with_dense=workload.dense)
    report = gc.render_report(result)
    result.to_dict()
    return result, report


class Passes:
    """Passes over the whole case list for a set time, at least one.

    Each repetition is timed in CPU seconds of this process
    (`time.process_time`).  The program runs single-threaded here, so on a
    machine of its own that is the time a user waits.  On a shared VM it
    leaves out the time the hypervisor gives this vCPU to other tenants
    (steal time, which the guest kernel does not charge to the process).
    Before each pass the workload's calibration kernel gives the pass's
    scale (see calibration.py).  A verification's latency is the median,
    over passes, of its CPU seconds times the pass's scale.  Raw CPU and
    wall seconds are kept for the human-readable lines and the traced run.
    Only program time is timed; the benchmark's checks, the calibration and
    the `between` call before each pass run outside it.
    """

    def __init__(self, gc, workload: wl.Workload, cases: list[wl.Case]) -> None:
        self.gc, self.workload, self.cases = gc, workload, cases
        self.cpu: list[list[float]] = [[] for _ in cases]
        self.wall: list[list[float]] = [[] for _ in cases]
        self.scales: list[float] = []
        self.passes = 0
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, seconds: float, between=None) -> Passes:
        tolerance = self.gc.DENSE_TOLERANCE if self.workload.dense else None
        started = time.perf_counter()
        while self.passes == 0 or time.perf_counter() - started < seconds:
            if between is not None:
                between()
            self.scales.append(calibration.scale(self.workload.kernel))
            for index, case in enumerate(self.cases):
                w0, t0 = time.perf_counter(), time.process_time()
                try:
                    result, report = verify_case(self.gc, self.workload, case)
                    cpu, wall = time.process_time() - t0, time.perf_counter() - w0
                except Exception as exc:  # any raised error, a cap included, is a failed verification
                    cpu, wall = time.process_time() - t0, time.perf_counter() - w0
                    reason = f"{type(exc).__name__}: {exc}"
                else:
                    reason = wl.check(case, result, report, tolerance)
                if reason is not None:
                    self.failures.append(f"{case.problem} {case.params} {case.mode} "
                                         f"seed={case.seed}: {reason}")
                self.cpu[index].append(cpu)
                self.wall[index].append(wall)
                self.attempted += 1
            self.passes += 1
        return self

    def latencies(self, kind: str = "scaled") -> list[float]:
        """Each case's median seconds: "scaled", raw "cpu" or "wall"."""
        if kind == "scaled":
            return [statistics.median(t * s for t, s in zip(samples, self.scales))
                    for samples in self.cpu]
        return [statistics.median(samples) for samples in getattr(self, kind)]

    def pass_seconds(self, kind: str = "scaled") -> float:
        """Seconds to verify the whole set once."""
        return sum(self.latencies(kind))


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def trace_sites(gc):
    """Every attribute through which the benchmark or the program calls a traced function."""
    v = gc.verification
    return [
        (gc, "build_circuit", "build_circuit", None),
        (v, "build_circuit", "build_circuit", None),
        (gc, "built_to_text", "built_to_text", len),
        (gc, "built_from_text", "built_from_text", None),
        (v, "oracle_counts", "oracle_counts", None),
        (v, "simulate_pathsum", "simulate_pathsum", None),
        (v, "simulate_dense", "simulate_dense", lambda state: state.nbytes),
        (v, "dense_acceptance", "dense_acceptance", None),
        (v, "gate_accountant", "gate_accountant", None),
        (gc, "render_report", "render_report", None),
        (gc.VerifyResult, "to_dict", "to_dict", None),
    ]


def threaded_probe(gc, case: wl.Case, jobs: int) -> tuple[float, str | None]:
    """Path-sum time at jobs=1 over jobs=`jobs` on one case, and any mismatch.

    Wall seconds: CPU seconds would add up the threads' time.
    """
    circuit = gc.build_circuit(case.instance, case.mode).circuit
    times: tuple[list[float], list[float]] = ([], [])
    sums = set()
    while min(sum(side) for side in times) < PROBE_SECONDS:
        for side, n_jobs in zip(times, (1, jobs)):
            t0 = time.perf_counter()
            sums.add(gc.simulate_pathsum(circuit, jobs=n_jobs).signed_sum)
            side.append(time.perf_counter() - t0)
    speedup = statistics.median(times[0]) / statistics.median(times[1])
    return speedup, None if sums == {-case.gap} else f"signed sums {sorted(sums)} != {{{-case.gap}}}"


def layer_metrics(workload: wl.Workload, counts: list[dict], tracer: Tracer, n_passes: int,
                  generate_s: float, overhead_s: float, speedup: float) -> dict[str, float]:
    self_s = tracer.self_seconds()

    def per_pass(*names: str) -> float:
        return sum(self_s.get(name, 0.0) for name in names) / n_passes

    gates = sum(row["gates"] for row in counts)
    branch_gates = sum(row["branch_gates"] for row in counts)
    dense_gates = gates if workload.dense else 0
    build_s, pathsum_s, dense_s = (per_pass("build_circuit"), per_pass("simulate_pathsum"),
                                   per_pass("simulate_dense"))
    return {
        "builders.build_s": build_s,
        "builders.gates": gates,
        "builders.ns_per_gate": ratio(build_s * 1e9, gates),
        "simulator.pathsum_s": pathsum_s,
        "simulator.branch_gates": branch_gates,
        "simulator.pathsum_ns_per_branch_gate": ratio(pathsum_s * 1e9, branch_gates),
        **{f"simulator.ops.{kind}": sum(row["ops"].get(kind, 0) for row in counts)
           for kind in OP_KINDS},
        "simulator.pathsum_threaded_speedup": speedup,
        "simulator.dense_s": dense_s,
        "simulator.dense_ms_per_gate": ratio(dense_s * 1e3, dense_gates),
        "simulator.dense_accept_s": per_pass("dense_acceptance"),
        "simulator.dense_bytes": max(tracer.sizes("simulate_dense"), default=0),
        "verification.oracle_s": per_pass("oracle_counts"),
        "verification.accountant_s": per_pass("gate_accountant"),
        "verification.report_s": per_pass("render_report", "to_dict"),
        "textio.to_text_s": per_pass("built_to_text"),
        "textio.from_text_s": per_pass("built_from_text"),
        "textio.bytes": sum(tracer.sizes("built_to_text")) // n_passes,
        "instancefile.generate_s": generate_s,
        "trace.overhead_s": overhead_s,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = wl.WORKLOADS[name]
    gc = import_program()
    instances = wl.make_instances(gc, workload, seed)
    cases = wl.make_cases(instances)
    counts = record_counts(gc, cases, RESULTS_DIR / f"{name}-seed{seed}.jsonl")
    # Warm-up, untimed: the workload's own path on the smallest ov instance.
    warm = wl.make_cases([(wl.Spec("ov", {"n": 2, "d": 1}, wl.BOTH), 0,
                           gc.generate("ov", 0, n=2, d=1))])
    Passes(gc, workload, warm).run(0)

    # One set-up is timed before each pass, outside the pass's timing, so
    # that set-up samples spread over the run as the verifications' do.
    # Set-up is pure Python, so it is scaled by the python kernel.
    setups: list[tuple[float, float, float]] = []
    plain = Passes(gc, workload, cases).run(
        seconds / 2 if trace else seconds,
        between=lambda: setups.append((calibration.scale("python"),
                                       *timed_setup(workload, seed))))
    setup_s = statistics.median(scale * total for scale, total, _ in setups)
    generate_s = statistics.median(generation for _, _, generation in setups)
    attempted, failures = plain.attempted, list(plain.failures)
    jobs = len(os.sched_getaffinity(0))
    lines = [f"workload: {name}  seed: {seed}  seconds: {seconds:g}  trace: {int(trace)}",
             f"machine: nproc={jobs} python={platform.python_version()} "
             f"numpy={sys.modules['numpy'].__version__} {platform.machine()}",
             f"instances: {len(instances)}  verifications per pass: {len(cases)}"]
    if trace:
        tracer = Tracer()
        with tracer.installed(trace_sites(gc)):
            traced = Passes(gc, workload, cases).run(seconds / 2)
        probe_case = max(zip(cases, counts), key=lambda pair: pair[1]["branch_gates"])[0]
        try:
            speedup, mismatch = threaded_probe(gc, probe_case, jobs)
        except Exception as exc:  # a failed probe counts like a failed verification
            speedup, mismatch = 0.0, f"{type(exc).__name__}: {exc}"
        attempted += traced.attempted + 1
        failures += traced.failures + ([f"threaded probe: {mismatch}"] if mismatch else [])
        metrics = layer_metrics(workload, counts, tracer, traced.passes, generate_s,
                                traced.pass_seconds() - plain.pass_seconds(),
                                speedup)
        units = PER_LAYER_UNITS
        lines.append(f"passes: {plain.passes} untraced, {traced.passes} traced  "
                     f"threaded probe: jobs=1 vs jobs={jobs} on {probe_case.problem} "
                     f"{probe_case.params} {probe_case.mode}")
    else:
        latencies = plain.latencies()
        metrics = {
            "setup_s": setup_s,
            "pass_s": sum(latencies),
            "verify_p50_ms": statistics.median(latencies) * 1e3,
            "verify_p99_ms": nearest_rank(latencies, 99) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        lines.append(f"passes: {plain.passes}  verifications timed: {plain.attempted}  "
                     f"unscaled pass: {plain.pass_seconds('cpu'):.4f} CPU s, "
                     f"{plain.pass_seconds('wall'):.4f} wall s  "
                     f"{workload.kernel} scale: median {statistics.median(plain.scales):.4f}")
    lines.append(f"attempted: {attempted}  failed: {len(failures)}  "
                 f"fail_frac: {len(failures) / attempted:g}")
    lines += [f"failure: {reason}" for reason in failures[:10]]
    lines += [f"{key}: {value} {units[key]}" for key, value in metrics.items()]
    print("\n".join(lines), flush=True)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in its own process; metrics are prefixed with the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True, timeout=900)
        *human, last = child.stdout.rstrip("\n").split("\n")
        print("\n".join(human) + "\n", flush=True)
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{key}": value
                                    for key, value in result["metrics"].items()})
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*wl.WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time; at least one full pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {PACKAGE_DIR}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
