"""Synthesis benchmark: time `collsched.workflow.synthesize` on fixed workloads.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

One client drives `synthesize` in a closed loop: one call at a time, in one
process, each call starting when the previous one has returned and been
checked. Calls continue until the next one would end after `--seconds`; at
least one call is always made. Each call takes the next of the run's inputs,
seven relabellings drawn from `--seed`, and runs pinned to the next CPU.

`--trace 0` gives the end-to-end metrics: the median `synthesize` time of a
warm process, the set-up time of a fresh interpreter, the replayed
algorithmic bandwidth, the peak resident memory and the share of calls that
passed every output check. `--trace 1` spends half the time on untraced calls
and half on calls traced by `tracer.Tracer`, and reports the per-layer
metrics of the median traced call together with the tracing overhead.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it gives the sample
count, tail percentile, failures and library versions. With `--workload all`
each workload runs in a fresh child process and a table is printed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
# No BLAS thread pool: the benchmark is one single-threaded client. (HiGHS,
# as scipy calls it, starts no thread of its own on a 2-core machine.)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# workloads puts the checkout's sources first on sys.path.
from workloads import WORKLOADS, TIME_LIMIT, Workload, run_inputs  # noqa: E402
from collsched import SimOptions, algorithmic_bandwidth, generate_demand, simulate, synthesize  # noqa: E402
from collsched.topology import ring  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_PROBES = 5
# Run in a fresh interpreter: import the package, build one run's inputs.
SETUP_PROBE = (
    "import sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import workloads\n"
    "workloads.run_inputs(workloads.WORKLOADS[sys.argv[2]], int(sys.argv[3]))\n"
    "print(time.perf_counter() - start)\n"
)
FINISHED = ("optimal", "optimal-per-round")


@dataclass
class Call:
    seconds: float
    result: object | None
    problems: list[str] = field(default_factory=list)
    tracer: Tracer | None = None
    # Peak resident memory of the process so far, taken as the call returns.
    peak_rss_mb: float = 0.0
    # Index of the run's input the call synthesized a schedule for.
    input: int = 0


def setup_seconds(w: Workload, seed: int) -> list[float]:
    """Import-plus-inputs time of several fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(BENCH), w.name, str(seed)],
            capture_output=True, text=True, timeout=120, check=True, cwd=BENCH.parent)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def warm_up(w: Workload) -> None:
    """Pay first-call costs (lazy imports, caches) on a four-GPU ring."""
    t = ring(4)
    synthesize(t, generate_demand("alltoall", t), **w.synthesis_options())


def check(result, t, d, opts: dict, seconds: float, first) -> list[str]:
    """Every reason the returned schedule can not be trusted; empty if none."""
    problems = []
    report, sched = result.report, result.schedule
    if result.status not in FINISHED or seconds >= TIME_LIMIT:
        problems.append(f"solver stopped early (status {result.status})")
    if not report.ok:
        problems.append(f"replay found {len(report.violations)} violations")
    missing = set(d.entries) - set(report.per_entry_completion)
    if missing:
        problems.append(f"{len(missing)} demand entries never delivered")
    if sched.completion_epoch != report.completion_epoch:
        problems.append(f"schedule claims epoch {sched.completion_epoch}, "
                        f"replay says {report.completion_epoch}")
    again = simulate(sched, t, d, SimOptions(switch_mode=opts["switch_mode"]))
    if (again.violations or again.completion_epoch != report.completion_epoch
            or again.per_entry_completion != report.per_entry_completion
            or again.transfer_time != report.transfer_time):
        problems.append("a second replay disagrees with the reported one")
    if first is not None and sched.events != first.schedule.events:
        problems.append("schedule differs from the first call's on this input")
    return problems


def closed_loop(w: Workload, inputs: list, seconds: float, traced: bool,
                firsts: dict | None = None) -> list[Call]:
    """Call `synthesize` on each of `inputs` in turn until `seconds` would be
    passed. `firsts` maps an input's index to an earlier result whose
    schedule every call on that input must return again."""
    opts = w.synthesis_options()
    firsts = dict(firsts or {})
    cpus = sorted(os.sched_getaffinity(0))
    calls: list[Call] = []
    start = time.perf_counter()
    try:
        while True:
            # A lone busy process stays on one CPU for a whole run, and on a
            # shared host each CPU slows and speeds up on its own as other
            # tenants' load comes and goes. Taking the CPUs in turn makes a
            # run sample all of them.
            os.sched_setaffinity(0, {cpus[len(calls) % len(cpus)]})
            i = len(calls) % len(inputs)
            call = timed_call(*inputs[i], opts, traced, firsts.get(i))
            call.input = i
            if call.result is not None:
                firsts.setdefault(i, call.result)
            calls.append(call)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(c.seconds for c in calls) > seconds:
                return calls
    finally:
        os.sched_setaffinity(0, cpus)


def timed_call(t, d, opts: dict, traced: bool, first) -> Call:
    """One checked `synthesize` call; a call that raises is a failed call."""
    gc.collect()
    tracer = Tracer() if traced else None
    try:
        if tracer is None:
            began = time.perf_counter()
            result = synthesize(t, d, **opts)
            took = time.perf_counter() - began
        else:
            with tracer:
                result = tracer.call("workflow", synthesize, t, d, **opts)
            took = tracer.total("workflow")
    except Exception as exc:  # keep measuring
        traceback.print_exc()
        took = time.perf_counter() - began if tracer is None else tracer.total("workflow")
        return Call(took, None, [f"raised {exc!r}"], tracer, peak_rss_mb())
    peak = peak_rss_mb()
    return Call(took, result, check(result, t, d, opts, took, first or result), tracer, peak)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def tail(samples: list[float]) -> dict | None:
    """Highest nearest-rank percentile with at least ten samples above it."""
    ordered = sorted(samples)
    rank = len(ordered) - 11  # ten samples lie beyond this index
    if rank < 0:
        return None
    return {"percentile": 100.0 * (rank + 1) / len(ordered), "value": ordered[rank]}


def environment() -> dict:
    import numpy
    import scipy
    from scipy.optimize._highspy import _core as highs
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}."
                 f"{highs.HIGHS_VERSION_PATCH}",
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload in this process; return (info, result line)."""
    inputs = run_inputs(w, seed)
    warm_up(w)
    if trace:
        # Only the first input: a seed's counts must repeat from run to run,
        # whichever traced call is the median one.
        plain = closed_loop(w, inputs[:1], seconds / 2, traced=False)
        firsts = {c.input: c.result for c in plain if c.result is not None}
        traced = closed_loop(w, inputs[:1], seconds / 2, traced=True, firsts=firsts)
        calls, metrics = plain + traced, layer_metrics(plain, traced)
    else:
        setup = setup_seconds(w, seed)
        calls = closed_loop(w, inputs, seconds, traced=False)
        metrics = end_to_end_metrics(calls, setup)
    samples = [c.seconds for c in calls if c.tracer is None]
    failed = sum(1 for c in calls if c.problems)
    info = {
        "workload": w.name, "seed": seed, "trace": int(trace),
        "inputs_called": len({c.input for c in calls}),
        "synth_s": {"median": statistics.median(samples), "tail": tail(samples),
                    "samples": len(samples), "values": samples},
        "fail_rate": failed / len(calls),
        "problems": sorted({p for c in calls for p in c.problems}),
        "environment": environment(),
    }
    line = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared_metrics(trace) if metrics},
    }
    return info, line


def end_to_end_metrics(calls: list[Call], setup: list[float]) -> dict:
    # Each input returns one schedule; take the median over the inputs.
    done = {c.input: c.result for c in calls if c.result is not None}
    bandwidths = [algorithmic_bandwidth(r.report)["aggregate"] / 1e9 for r in done.values()]
    return {
        "synth_s": statistics.median(c.seconds for c in calls),
        "setup_s": statistics.median(setup),
        "algbw_GBps": statistics.median(bandwidths) if bandwidths else 0.0,
        # Through the first call only: how many calls fit in the run depends
        # on the machine's speed, and each further call can fragment the heap.
        "peak_rss_mb": calls[0].peak_rss_mb,
        "ok_rate": sum(1 for c in calls if not c.problems) / len(calls),
    }


def layer_metrics(plain: list[Call], traced: list[Call]) -> dict:
    """Per-layer metrics of the median traced call, plus the tracing
    overhead against the untraced calls; empty if no traced call returned."""
    returned = sorted((c for c in traced if c.result is not None), key=lambda c: c.seconds)
    if not returned:
        return {}
    median_call = returned[(len(returned) - 1) // 2]
    metrics = median_call.tracer.metrics(median_call.result)
    untraced = statistics.median(c.seconds for c in plain)
    metrics["trace.untraced_synth_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.synth_s"] - untraced
    return metrics


def declared_metrics(trace: bool) -> list[dict]:
    """The metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in a fresh child process; print a table of its metrics."""
    results, ok = {}, True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600, cwd=BENCH.parent)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: failed\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        info, line = json.loads(lines[-2]), json.loads(lines[-1])
        results[name] = line
        ok = ok and line["correct"]
        synth = info["synth_s"]
        tail_text = (f"p{synth['tail']['percentile']:.0f} {synth['tail']['value']:.3f} s"
                     if synth["tail"] else "no tail percentile")
        print(f"{name} (seed {seed}): {line['attempted']} calls, fail_rate "
              f"{info['fail_rate']:.3f}; untraced synth_s median {synth['median']:.3f} s, "
              f"{tail_text}, {synth['samples']} samples")
        for key, m in line["metrics"].items():
            print(f"  {key:28s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(results))
    return 0 if ok else 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    info, line = run_workload(WORKLOADS[args.workload], args.seed, args.seconds,
                              bool(args.trace))
    print(json.dumps(info))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
