"""The benchmark's workloads and the seeded inputs they give to `synthesize`.

Each workload is a topology generator, a collective and a set of synthesis
options. An input seed applies an isomorphic relabelling of the GPU ids before
the demand is generated: the problem is the same graph, but every model the
pipeline builds lists its variables in another order. One run of the
benchmark takes `RELABELLINGS` inputs from its seed.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# The benchmark measures the sources of the checkout it sits in, never an
# installed copy of the package.
SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "collsched" / "__init__.py").is_file():
    raise ImportError(f"no collsched sources under {SRC}")
sys.path.insert(0, str(SRC))

from collsched import Demand, Edge, Topology, generate_demand  # noqa: E402
from collsched import topology as topologies  # noqa: E402

MiB = 1 << 20
# Inputs one run cycles through. A* does more or less work on different
# relabellings (19 or 20 rounds), so a run that measured only one would move
# with its seed; over several it measures their mix. Odd, so that taking the
# inputs and two CPUs in turn pairs every input with each CPU.
RELABELLINGS = 7
# Far above any run, so that reaching it is a failure, never a result.
TIME_LIMIT = 600.0


@dataclass(frozen=True)
class Workload:
    name: str
    topology: Callable[[], Topology]
    collective: str
    options: dict = field(default_factory=dict)

    def synthesis_options(self) -> dict:
        """Keyword arguments of `synthesize` beyond topology and demand."""
        return {"switch_mode": "copy", "epoch_mode": "fastest",
                "time_limit": TIME_LIMIT, **self.options}


# Why each workload is here (one line each also sits in BENCHMARK.json):
# - ndv2x2-allgather-astar: 19 or 20 A* rounds; round-model construction and
#   matrix assembly dominate, the estimator never runs.
# - dgx2-alltoall-lp: estimator coarse MILPs (whole-chunk builds and branch
#   and bound), then horizon probes of the copy-free LP, some infeasible;
#   HiGHS dominates, memory peaks here, and the replay handles fractional
#   events.
# Between them every layer of `synthesize` runs except the one-shot MILP's
# own build, pruning and extraction; a third workload for it did not fit the
# run-time budget at a steady run length.
WORKLOADS = {w.name: w for w in (
    Workload("ndv2x2-allgather-astar", lambda: topologies.ndv2(chassis=2),
             "allgather", {"method": "astar"}),
    Workload("dgx2-alltoall-lp", lambda: topologies.dgx2(chassis=1),
             "alltoall", {"method": "lp", "search_horizon": True}),
)}


def relabel(t: Topology, seed: int) -> Topology:
    """The same graph with its GPU ids permuted by `seed`; switches keep
    their names."""
    gpus = list(t.gpus)
    shuffled = gpus[:]
    random.Random(seed).shuffle(shuffled)
    new = dict(zip(gpus, shuffled))
    rename = lambda n: new.get(n, n)
    edges = tuple(Edge(rename(e.src), rename(e.dst), e.capacity, e.alpha) for e in t.edges)
    overrides = {(rename(a), rename(b), k): cap
                 for (a, b, k), cap in t.capacity_overrides.items()}
    return Topology(t.nodes, t.switches, edges, overrides)


def make_inputs(w: Workload, seed: int) -> tuple[Topology, Demand]:
    t = relabel(w.topology(), seed)
    return t, generate_demand(w.collective, t, chunk_size=MiB)


def run_inputs(w: Workload, seed: int) -> list[tuple[Topology, Demand]]:
    """The inputs of one run with benchmark seed `seed`; no two seeds share one."""
    return [make_inputs(w, seed * RELABELLINGS + i) for i in range(RELABELLINGS)]
