"""Command line front end.

Subcommands:

    gen       write a seeded random instance as canonical JSON
    build     compile an instance file to built-circuit text
    simulate  run one circuit (instance JSON or built text) on a backend
    verify    check the acceptance identity, qubit count, and gate bounds
    sweep     verify seeded random grids across problems and modes

Exit codes: 0 all checks pass, 1 a verification or backend-agreement
check failed, 2 malformed input or unusable arguments, 3 a resource cap
was exceeded.  Output is deterministic except for the `generated:` and
`wall:` lines (and the matching JSON fields).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from datetime import datetime, timezone
from pathlib import Path

from .builders import (
    MODE_EXPLICIT,
    MODE_QRAM,
    InstanceError,
    OVInstance,
    PROBLEM_3SUM,
    PROBLEM_NWT,
    PROBLEM_OV,
    build_circuit,
    hadamard_count,
)
from .instancefile import (
    BUDGETS,
    generate,
    instance_from_text,
    instance_to_text,
    read_instance,
    stable_seed,
)
from .ir import BitString, CircuitError, Z
from .simulator import (
    BRANCH_CAP_DEFAULT,
    CapExceededError,
    SimulationError,
    check_branch_cap,
    dense_acceptance,
    simulate_dense,
    simulate_pathsum,
)
from .textio import built_from_text, built_to_text
from .verification import (
    dense_agrees,
    render_report,
    render_rows,
    report_rows,
    verify_built,
    verify_instance,
)

# Default grid sizes for `sweep`, all inside the generator budgets.
SWEEP_CELLS = {
    PROBLEM_OV: [{"n": 2, "d": 1}, {"n": 3, "d": 2}, {"n": 5, "d": 3}, {"n": 8, "d": 4}],
    PROBLEM_3SUM: [{"n": 2, "bound": 2}, {"n": 3, "bound": 4},
                   {"n": 4, "bound": 8}, {"n": 6, "bound": 64}],
    PROBLEM_NWT: [{"n": 2, "bound": 1}, {"n": 3, "bound": 1},
                  {"n": 4, "bound": 2}, {"n": 6, "bound": 3}],
}


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")


def _cmd_gen(args: argparse.Namespace) -> int:
    instance = generate(args.problem, args.seed, n=args.n, d=args.d, bound=args.bound)
    _write_or_print(instance_to_text(instance, seed=args.seed), args.out)
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    built = build_circuit(read_instance(args.instance), args.mode)
    _write_or_print(built_to_text(built), args.out)
    return 0


def _load_circuit_arg(args: argparse.Namespace):
    """A circuit argument is instance JSON or built-circuit text; sniff by shape.

    An instance is checked against the branch cap, which bounds every
    backend, before it is built: an nwt weight table alone has 4^r entries.
    """
    try:
        text = Path(args.circuit).read_text()
    except OSError as exc:
        raise InstanceError(f"cannot read {args.circuit}: {exc}") from exc
    if text.lstrip().startswith("{"):
        instance = instance_from_text(text)
        check_branch_cap(hadamard_count(instance), args.branch_cap)
        return build_circuit(instance, args.mode)
    return built_from_text(text)


def _cmd_simulate(args: argparse.Namespace) -> int:
    built = _load_circuit_arg(args)
    report: dict = {"problem": built.problem, "mode": built.mode,
                    "qubits": built.circuit.n_qubits, "exponent": built.denom_exponent}
    if args.backend in ("pathsum", "both"):
        outcome = simulate_pathsum(built.circuit, branch_cap=args.branch_cap)
        report["pathsum"] = {"signed_sum": outcome.signed_sum,
                             "branches": outcome.n_branches,
                             "accepted": outcome.n_accepted,
                             "p_acc": str(outcome.p_acc),
                             "p_acc_float": float(outcome.p_acc)}
    if args.backend in ("dense", "both"):
        dense_value = dense_acceptance(built.circuit,
                                       simulate_dense(built.circuit, branch_cap=args.branch_cap))
        report["dense"] = {"p_acc": float(dense_value)}
    if args.backend == "both":
        report["agree"] = dense_agrees(dense_value, outcome)

    print(render_rows(report_rows(report)))
    if args.out is not None:
        Path(args.out).write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0 if report.get("agree", True) else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    instance = read_instance(args.instance)
    modes = [MODE_QRAM, MODE_EXPLICIT] if args.mode == "both" else [args.mode]
    results = [
        verify_instance(instance, mode, with_dense=args.dense, branch_cap=args.branch_cap)
        for mode in modes
    ]
    print(f"generated: {_timestamp()}")
    print("\n\n".join(render_report(result) for result in results))
    if args.out is not None:
        payload = {"generated": _timestamp(),
                   "results": [result.to_dict() for result in results]}
        Path(args.out).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0 if all(result.ok for result in results) else 1


def _mode_row(result) -> dict:
    """One mode's sweep row; bound_ratio is the worst count / bound over bounded rows."""
    ratios = [result.gates.per_step.get(step, {}).get(kind, 0) / bound
              for step, kinds in result.gates.bounds.items()
              for kind, bound in kinds.items() if bound > 0]
    return {"ok": result.ok, "bound_ratio": round(max(ratios, default=0.0), 6),
            "gap": result.oracle.gap, "signed_sum": result.outcome.signed_sum}


def _run_trial(task: tuple) -> dict:
    """One sweep trial; module level so process pools can pickle it."""
    problem, params, trial, seed, branch_cap = task
    instance = generate(problem, seed, n=params["n"],
                        d=params.get("d"), bound=params.get("bound"))
    modes = {mode: _mode_row(verify_instance(instance, mode, branch_cap=branch_cap))
             for mode in (MODE_QRAM, MODE_EXPLICIT)}
    return {"problem": problem, "params": params, "trial": trial,
            "seed": seed, "modes": modes}


def _mutation_control_row(branch_cap: int) -> dict:
    """Verify a circuit with its final phase gate removed; must be caught."""
    instance = OVInstance(u=(BitString((1,)), BitString((0,))),
                          v=(BitString((1,)), BitString((0,))))
    built = build_circuit(instance, MODE_QRAM)
    assert isinstance(built.circuit.gates[-1], Z)
    built.circuit.gates.pop()
    result = verify_built(instance, built, branch_cap=branch_cap)
    return {"problem": PROBLEM_OV, "params": {"n": 2, "d": 1}, "trial": "control",
            "seed": None, "modes": {MODE_QRAM: _mode_row(result)}}


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.trials < 1:  # a sweep that checks nothing cannot pass
        raise InstanceError(f"sweep --trials must be at least 1, got {args.trials}")
    started = time.monotonic()
    problems = list(SWEEP_CELLS) if args.problem == "all" else [args.problem]
    tasks = []
    for problem in problems:
        for params in SWEEP_CELLS[problem]:
            for trial in range(args.trials):
                seed = stable_seed(args.seed, problem,
                                   *(f"{k}={params[k]}" for k in sorted(params)), trial)
                tasks.append((problem, params, trial, seed, args.branch_cap))

    # A fork-started pool starts all its workers at once, so never more than tasks.
    if (workers := min(args.jobs, len(tasks))) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_trial, tasks))
    else:
        rows = [_run_trial(task) for task in tasks]

    control = _mutation_control_row(args.branch_cap) if args.mutation_control else None

    lines = [f"generated: {_timestamp()}", f"seed: {args.seed}", f"trials: {args.trials}"]
    total = failed = 0
    for problem in problems:
        checks = ok_count = 0
        worst = 0.0
        for row in rows:
            if row["problem"] != problem:
                continue
            for mode_stats in row["modes"].values():
                checks += 1
                ok_count += mode_stats["ok"]
                worst = max(worst, mode_stats["bound_ratio"])
        lines.append(f"{problem}: cells={len(SWEEP_CELLS[problem])} checks={checks} "
                     f"pass={ok_count} fail={checks - ok_count} max_bound_ratio={worst:.3f}")
        total += checks
        failed += checks - ok_count
    if control is not None:
        detected = not control["modes"][MODE_QRAM]["ok"]
        total += 1
        failed += 1  # the tampered circuit counts as a failing check by design
        lines.append("control: mutation detected (forced failure)" if detected
                     else "control: mutation NOT detected, verifier is unsound")
    lines.append(f"total: checks={total} pass={total - failed} fail={failed}")
    wall = time.monotonic() - started
    lines.append(f"wall: {wall:.2f}s")
    print("\n".join(lines))

    if args.out is not None:
        payload = {"generated": _timestamp(), "seed": args.seed, "trials": args.trials,
                   "rows": rows, "control": control,
                   "checks": total, "failed": failed, "wall_seconds": round(wall, 3)}
        Path(args.out).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0 if failed == 0 else 1


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--branch-cap", type=int, default=BRANCH_CAP_DEFAULT,
                        help="log2 cap on enumerated branches")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gapcircuits",
                                     description="Build, simulate, and verify gap circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded random instance")
    gen.add_argument("problem", choices=sorted(BUDGETS))
    gen.add_argument("-n", type=int, required=True, help="number of vectors, values, or nodes")
    gen.add_argument("-d", type=int, help="vector width (ov only)")
    gen.add_argument("--bound", type=int, help="value or weight bound (3sum and nwt)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", help="output path (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    build = sub.add_parser("build", help="compile an instance file to circuit text")
    build.add_argument("instance", help="instance JSON path")
    build.add_argument("--mode", choices=[MODE_QRAM, MODE_EXPLICIT], default=MODE_QRAM)
    build.add_argument("--out", help="output path (default stdout)")
    build.set_defaults(func=_cmd_build)

    sim = sub.add_parser("simulate", help="run one circuit and print acceptance numbers")
    sim.add_argument("circuit", help="instance JSON or built-circuit text path")
    sim.add_argument("--mode", choices=[MODE_QRAM, MODE_EXPLICIT], default=MODE_QRAM,
                     help="build mode when the input is an instance file")
    sim.add_argument("--backend", choices=["pathsum", "dense", "both"], default="pathsum")
    _add_sim_flags(sim)
    sim.add_argument("--out", help="also write a JSON report here")
    sim.set_defaults(func=_cmd_simulate)

    verify = sub.add_parser("verify", help="check the acceptance identity and gate bounds")
    verify.add_argument("instance", help="instance JSON path")
    verify.add_argument("--mode", choices=[MODE_QRAM, MODE_EXPLICIT, "both"], default="both")
    verify.add_argument("--dense", action="store_true",
                        help="cross-check with the dense backend")
    _add_sim_flags(verify)
    verify.add_argument("--out", help="also write a JSON report here")
    verify.set_defaults(func=_cmd_verify)

    sweep = sub.add_parser("sweep", help="verify seeded random grids")
    sweep.add_argument("--problem", choices=[*sorted(BUDGETS), "all"], default="all")
    sweep.add_argument("--trials", type=int, default=5, help="trials per grid cell")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--branch-cap", type=int, default=BRANCH_CAP_DEFAULT)
    sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    sweep.add_argument("--mutation-control", action="store_true",
                       help="also verify a deliberately tampered circuit (forces exit 1)")
    sweep.add_argument("--out", help="also write a JSON report here")
    sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InstanceError, CircuitError, SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
