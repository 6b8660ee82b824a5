"""Per-layer spans and counters for one `synthesize` call, recorded from
outside the package.

`Tracer` replaces the public functions of each collsched module on the names
their callers look up (for `solve` that is four names), records a span per
call and restores every original on exit. Nothing under `src/` changes. A
layer's self time is its span's duration minus the durations of its child
spans, so the self times of all spans of a call add up to the root span.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

from collsched import astar, estimator, solver, workflow
from collsched.model import BINARY

# Span name -> per-layer metric that reports the span's self time.
SELF_TIME_METRICS = {
    "workflow": "workflow.self_s",
    "estimator": "estimator.self_s",
    "milp.build": "milp.build_s",
    "lp.build": "lp.build_s",
    "astar": "astar.advance_s",
    "astar.build": "astar.build_s",
    "solver.solve": "solver.assemble_s",
    "solver.highs": "solver.highs_s",
    "schedule.extract": "schedule.extract_s",
    "lp.decompose": "lp.decompose_s",
    "simulator.replay": "simulator.replay_s",
    "trace": "trace.bookkeeping_s",
}
COUNT_METRICS = (
    "estimator.solves", "estimator.bound_K", "astar.rounds",
    "model.vars", "model.rows", "model.nnz", "model.fixed_vars", "model.binaries",
    "model.max_nnz", "solver.calls", "solver.infeasible", "solver.bb_nodes",
    "simulator.events",
)


class Tracer:
    """Context manager: wraps the package's functions on entry, restores
    them on exit. Spans are kept in memory as (name, start, end, parent)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._open: list[tuple[str, int]] = []  # (name, slot in spans)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def call(self, name: str, fn, /, *args, **kwargs):
        """Run `fn` inside a span called `name`. Positional-only, so that the
        wrapped functions' own `name` keywords pass through."""
        slot = len(self.spans)
        self.spans.append(None)  # reserved now, so spans stay in start order
        parent = self._open[-1][1] if self._open else -1
        self._open.append((name, slot))
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[slot] = (name, start, time.perf_counter(), parent)
            self._open.pop()

    def inside(self, name: str) -> bool:
        return any(n == name for n, _ in self._open)

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time over every span of that name."""
        out = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        for name, start, stop, _ in self.spans:
            out[name] += stop - start
        for name, start, stop, parent in self.spans:
            if parent >= 0:
                out[self.spans[parent][0]] -= stop - start
        return out

    def total(self, name: str) -> float:
        return sum(stop - start for n, start, stop, _ in self.spans if n == name)

    def metrics(self, result) -> dict[str, float]:
        """Every per-layer metric of one traced call that returned `result`.

        A layer that did not run reports 0.
        """
        out = {SELF_TIME_METRICS[n]: v for n, v in self.self_times().items()}
        out.update((name, self.counts[name]) for name in COUNT_METRICS)
        out["estimator.s"] = self.total("estimator")
        bound = self.counts["estimator.bound_K"]
        out["estimator.slack"] = bound / (result.report.completion_epoch + 1) if bound else 0.0
        flows_set = self.counts["schedule.flows_set"]
        out["schedule.kept_ratio"] = (self.counts["schedule.flows_kept"] / flows_set
                                      if flows_set else 0.0)
        out["schedule.events"] = len(result.schedule.events)
        out["trace.synth_s"] = self.total("workflow")
        return out

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, module, attr: str, span: str, after=None) -> None:
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.call(span, original, *args, **kwargs)
            if after is not None:
                self.call("trace", after, args, result)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def __enter__(self) -> "Tracer":
        w = self._wrap
        w(workflow, "estimate_epoch_upper_bound", "estimator", self._after_estimate)
        w(workflow, "build_general_model", "milp.build")
        w(estimator, "build_time_expanded", "milp.build")
        w(workflow, "build_lp_model", "lp.build")
        w(workflow, "astar_solve", "astar")
        w(astar, "build_round_model", "astar.build", self._after_round_build)
        for module in (workflow, solver, astar, estimator):
            w(module, "solve", "solver.solve", self._after_solve)
        w(solver, "milp", "solver.highs", self._after_highs)
        w(workflow, "prune_unused_flows", "schedule.extract", self._after_prune)
        w(workflow, "extract_schedule", "schedule.extract")
        w(astar, "schedule_from_flows", "schedule.extract", self._after_stitch)
        w(workflow, "lp_rates_to_schedule", "lp.decompose")
        w(workflow, "simulate", "simulator.replay", self._after_replay)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- counters, taken outside the layer's own span ------------------------

    def _after_estimate(self, args, bound) -> None:
        self.counts["estimator.bound_K"] += bound

    def _after_round_build(self, args, m) -> None:
        self.counts["astar.rounds"] += 1

    def _after_solve(self, args, sol) -> None:
        m = args[0]
        nnz = sum(len(coeffs) for coeffs, _, _ in m.rows)
        c = self.counts
        c["model.vars"] += m.num_vars
        c["model.rows"] += len(m.rows)
        c["model.nnz"] += nnz
        c["model.max_nnz"] = max(c["model.max_nnz"], nnz)
        c["model.fixed_vars"] += sum(1 for lo, hi in zip(m.lb, m.ub) if lo == hi)
        c["model.binaries"] += m.kinds.count(BINARY)
        c["solver.calls"] += 1
        c["solver.infeasible"] += sol.status == solver.INFEASIBLE
        # Spans still open here are the solve's callers.
        c["estimator.solves"] += self.inside("estimator")

    def _after_highs(self, args, res) -> None:
        self.counts["solver.bb_nodes"] += res.get("mip_node_count") or 0

    def _after_prune(self, args, pruned) -> None:
        self.counts["schedule.flows_set"] += len(args[0].family_values("F", 0.5))
        self.counts["schedule.flows_kept"] += len(pruned.family_values("F", 0.5))

    def _after_stitch(self, args, sched) -> None:
        self.counts["schedule.flows_set"] += len(args[0])
        self.counts["schedule.flows_kept"] += len(sched.events)

    def _after_replay(self, args, report) -> None:
        self.counts["simulator.events"] += len(args[0].events)
