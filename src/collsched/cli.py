"""Command-line front end.

Exit codes: 0 success, 2 infeasible, 3 solver timeout, 4 validation failure,
1 other (`FAILURES`). Failures print a JSON error document to stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import topology as topo
from .demand import demand_from_json, demand_to_json, generate_demand, merge_demands
from .epochs import FASTEST, SLOWEST, epoch_duration
from .errors import (CollschedError, EstimationError, HorizonInfeasibleError,
                     RoundLimitError, SolverTimeoutError, ValidationError)
from .estimator import estimate_epoch_upper_bound
from .lp import horizon_lower_bound
from .milp import ModelOptions
from .schedule import msccl_style_steps, schedule_from_json, schedule_to_json
from .simulator import SimOptions, algorithmic_bandwidth, simulate
from .topology import COPY, SWITCH_MODES, topology_from_json, topology_to_json
from .workflow import synthesize


# The error type and exit code of a failure: those of the first class it is.
FAILURES = ((HorizonInfeasibleError, "infeasible", 2), (RoundLimitError, "round-limit", 2),
            (SolverTimeoutError, "timeout", 3),
            ((ValidationError, EstimationError), "validation", 4), (CollschedError, "error", 1))


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CollschedError as exc:
        kind, code = next((kind, code) for cls, kind, code in FAILURES if isinstance(exc, cls))
        print(json.dumps({"error": {"type": kind, "message": str(exc)}}, sort_keys=True))
        return code


def _dump(doc, path=None) -> None:
    """Write a JSON document to `path`, or else to stdout: the one file format."""
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _read(path):
    """The JSON document at `path`, as `_dump` wrote it."""
    with open(path) as f:
        return json.load(f)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="collsched",
                                description="Synthesize and verify collective "
                                            "communication schedules.")
    sub = p.add_subparsers(required=True)

    g = sub.add_parser("gen-topology", help="emit a built-in topology as JSON")
    g.add_argument("kind", choices=sorted(topo.GENERATORS))
    g.add_argument("--chassis", type=int, default=1)
    g.add_argument("--nodes", type=int, default=8, help="node count for line/ring")
    g.add_argument("--leaves", type=int, default=3, help="leaf count for star")
    g.add_argument("--capacity", type=float, default=1.0,
                   help="bytes/sec per link for star/line/ring")
    g.add_argument("--alpha", type=float, default=0.0,
                   help="seconds of latency per link for star/line/ring")
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen_topology)

    g = sub.add_parser("gen-demand", help="emit a collective demand as JSON")
    g.add_argument("kind", choices=["allgather", "alltoall"])
    g.add_argument("--topology", required=True)
    g.add_argument("--chunks", type=int, default=1)
    g.add_argument("--chunk-size", type=int, default=1)
    g.add_argument("--merge-with", action="append", default=[],
                   help="demand files to merge in (multi-tenant)")
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen_demand)

    g = sub.add_parser("estimate-epochs", help="upper-bound the epoch horizon")
    _common_model_flags(g)
    g.set_defaults(func=cmd_estimate)

    g = sub.add_parser("solve", help="synthesize a schedule and verify it by replay")
    _common_model_flags(g)
    g.add_argument("--method", choices=["milp", "lp", "astar"], default="milp")
    g.add_argument("--buffer-limit", type=float, default=None)
    g.add_argument("--epochs", type=int, default=None, help="horizon in epochs (milp and lp only)")
    g.add_argument("--search-horizon", action="store_true",
                   help="search for the smallest feasible horizon (milp and lp only)")
    g.add_argument("--gap", type=float, default=0.0)
    g.add_argument("--time-limit", type=float, default=300.0)
    g.add_argument("--epochs-per-round", type=int, default=None,
                   help="A* round length (default: 4 or the largest link delay); A* stops "
                        "with a round-limit error once a window of rounds derived from the "
                        "network meets no demand entry")
    g.add_argument("--out", default=None, help="schedule JSON path")
    g.add_argument("--steps-out", default=None, help="also emit a step-list export")
    g.add_argument("--dump-model", default=None,
                   help="write the solved model in LP format (milp and lp only); with "
                        "--search-horizon it is the probe that proved the horizon, "
                        "which may have more epochs than the one reported")
    g.set_defaults(func=cmd_solve)

    g = sub.add_parser(
        "simulate", help="replay a schedule and report violations",
        description="Replay a schedule. transfer_time_sec is the time the schedule "
                    "takes as executed, each send delayed until its chunk is held and "
                    "its link has room; claimed_transfer_time_sec is what the schedule "
                    "claims; violations are checked as scheduled.")
    g.add_argument("--topology", required=True)
    g.add_argument("--demand", required=True)
    g.add_argument("--schedule", required=True)
    g.add_argument("--switch", choices=SWITCH_MODES, default=COPY)
    g.add_argument("--out", default=None)
    g.add_argument("--csv", default=None, help="append a metrics row to this CSV")
    g.set_defaults(func=cmd_simulate)

    g = sub.add_parser(
        "compare", help="compare two schedule files on one workload",
        description="Replay two schedules on one workload. transfer_time_sec is each "
                    "schedule's executed time, as in `simulate`, not its claimed time.")
    g.add_argument("--topology", required=True)
    g.add_argument("--demand", required=True)
    g.add_argument("--schedule", required=True)
    g.add_argument("--against", required=True)
    g.add_argument("--switch", choices=SWITCH_MODES, default=COPY)
    g.set_defaults(func=cmd_compare)
    return p


def _common_model_flags(g) -> None:
    g.add_argument("--topology", required=True)
    g.add_argument("--demand", required=True)
    g.add_argument("--switch", choices=SWITCH_MODES, default=COPY)
    g.add_argument("--epoch-mode", choices=[SLOWEST, FASTEST], default=FASTEST)
    g.add_argument("--em", type=int, default=1, help="epoch multiplier")


def cmd_gen_topology(args) -> int:
    kind = args.kind
    if kind in ("line", "ring"):
        t = topo.GENERATORS[kind](args.nodes, args.capacity, args.alpha)
    elif kind == "star":
        t = topo.star(args.leaves, args.capacity, args.alpha)
    elif kind == "dgx1":
        t = topo.dgx1()
    else:
        t = topo.GENERATORS[kind](chassis=args.chassis)
    _dump(topology_to_json(t), args.out)
    return 0


def cmd_gen_demand(args) -> int:
    t = topology_from_json(_read(args.topology))
    d = generate_demand(args.kind, t, args.chunks, args.chunk_size)
    if args.merge_with:
        d = merge_demands([d] + [demand_from_json(_read(p)) for p in args.merge_with])
    _dump(demand_to_json(d), args.out)
    return 0


def cmd_estimate(args) -> int:
    t = topology_from_json(_read(args.topology))
    d = demand_from_json(_read(args.demand))
    tau = epoch_duration(t, d.chunk_size, args.epoch_mode, args.em)
    n_e = estimate_epoch_upper_bound(t, d, tau, opts=ModelOptions(switch_mode=args.switch))
    _dump({"epochs_upper_bound": n_e, "lp_lower_bound": horizon_lower_bound(t, d, tau),
           "tau_sec": tau})
    return 0


def cmd_solve(args) -> int:
    t = topology_from_json(_read(args.topology))
    d = demand_from_json(_read(args.demand))
    result = synthesize(
        t, d, args.method, switch_mode=args.switch, buffer_limit=args.buffer_limit,
        epoch_mode=args.epoch_mode, em=args.em, epochs=args.epochs,
        search_horizon=args.search_horizon, gap=args.gap,
        time_limit=args.time_limit, epochs_per_round=args.epochs_per_round,
        dump_model_path=args.dump_model)
    sched = result.schedule
    sched.meta.update({
        "method": result.method, "status": result.status,
        "solver_wall_time_sec": round(result.solver_wall_time, 6),
        "objective": result.objective, "achieved_gap": result.achieved_gap,
        "epochs": result.epochs,
    })
    if args.out:
        _dump(schedule_to_json(sched), args.out)
    if args.steps_out:
        _dump({"steps": msccl_style_steps(sched)}, args.steps_out)
    bw = algorithmic_bandwidth(result.report)
    summary = {
        "method": result.method,
        "status": result.status,
        "epochs": result.epochs,
        "tau_sec": result.tau,
        "completion_epoch": sched.completion_epoch,
        "transfer_time_sec": sched.transfer_time,
        "events": len(sched.events),
        "solver_wall_time_sec": round(result.solver_wall_time, 6),
        "algorithmic_bandwidth_bytes_per_sec": bw["aggregate"],
        "violations": 0,
        "warnings": result.warnings,
    }
    if not args.out:
        summary["schedule"] = schedule_to_json(sched)
    _dump(summary)
    return 0


def _report_doc(report, sched) -> dict:
    bw = algorithmic_bandwidth(report)
    return {
        "violations": [
            {"kind": v.kind, "location": v.location, "epoch": v.epoch}
            for v in report.violations
        ],
        "completion_epoch": report.completion_epoch,
        "transfer_time_sec": report.transfer_time,
        "per_destination_completion": {str(k): v for k, v in
                                       sorted(report.completion_epochs.items(), key=str)},
        "output_buffer_bytes": {str(k): v for k, v in
                                sorted(report.output_buffer_bytes.items(), key=str)},
        "algorithmic_bandwidth_bytes_per_sec": bw["aggregate"],
        "claimed_transfer_time_sec": sched.transfer_time,
    }


def cmd_simulate(args) -> int:
    t = topology_from_json(_read(args.topology))
    d = demand_from_json(_read(args.demand))
    sched = schedule_from_json(_read(args.schedule))
    report = simulate(sched, t, d, SimOptions(switch_mode=args.switch))
    doc = _report_doc(report, sched)
    _dump(doc, args.out)
    if args.out:
        _dump(doc)
    if args.csv:
        _append_csv(args.csv, args.schedule, report)
    return 0 if not report.violations else 4


def _append_csv(path, name, report) -> None:
    bw = algorithmic_bandwidth(report)
    import os
    fresh = not os.path.exists(path)
    with open(path, "a", newline="") as f:
        w = csv.writer(f)
        if fresh:
            w.writerow(["schedule", "violations", "completion_epoch",
                        "transfer_time_sec", "algorithmic_bandwidth_bytes_per_sec"])
        w.writerow([name, len(report.violations), report.completion_epoch,
                    report.transfer_time, bw["aggregate"]])


def cmd_compare(args) -> int:
    t = topology_from_json(_read(args.topology))
    d = demand_from_json(_read(args.demand))
    rows = []
    for path in (args.schedule, args.against):
        sched = schedule_from_json(_read(path))
        report = simulate(sched, t, d, SimOptions(switch_mode=args.switch))
        bw = algorithmic_bandwidth(report)
        rows.append({
            "schedule": path,
            "transfer_time_sec": report.transfer_time,
            "solver_wall_time_sec": sched.meta.get("solver_wall_time_sec"),
            "algorithmic_bandwidth_bytes_per_sec": bw["aggregate"],
            "violations": len(report.violations),
        })
    _dump({"comparison": rows})
    header = f"{'schedule':40} {'transfer(s)':>14} {'solver(s)':>12} {'bw(B/s)':>14} {'viol':>5}"
    print(header, file=sys.stderr)
    for r in rows:
        print(f"{r['schedule'][:40]:40} {r['transfer_time_sec']:>14.3e} "
              f"{(r['solver_wall_time_sec'] or 0.0):>12.3f} "
              f"{r['algorithmic_bandwidth_bytes_per_sec']:>14.3e} "
              f"{r['violations']:>5}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
