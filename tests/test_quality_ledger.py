"""Quality ledger: upper limits on what A* gives on the cheap cells of the
north-star matrix (unrelabelled inputs, 1 MiB chunks, default options), so a
change that makes schedules longer or wordier fails here. Each limit is the
value A* gave when it was pinned; a change that improves a cell may lower
its limit."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from workloads import WORKLOADS, run_inputs  # noqa: E402  (the benchmark's inputs, read only)

from collsched import generate_demand  # noqa: E402
from collsched.topology import Edge, Topology, dgx1, ndv2  # noqa: E402
from collsched.workflow import synthesize  # noqa: E402

MIB = 1 << 20


@pytest.mark.parametrize("topology, collective, epochs, chunk_hops", [
    (dgx1, "allgather", 6, 56),
    (dgx1, "alltoall", 11, 80),
    (lambda: ndv2(chassis=2), "allgather", 56, 256),
], ids=["dgx1-allgather", "dgx1-alltoall", "ndv2x2-allgather"])
def test_astar_stays_within_its_ledger(topology, collective, epochs, chunk_hops):
    t = topology()
    result = synthesize(t, generate_demand(collective, t, 1, MIB), "astar")
    assert result.report.ok
    assert result.epochs <= epochs
    assert len(result.schedule.events) <= chunk_hops  # a whole chunk over one link each


def test_hyper_edge_star_allgather_completes_at_epoch_4():
    # Four GPUs around one switch, every link a chunk per epoch with a
    # one-epoch latency, so a hyper-edge's delay is 2. Each GPU drains at
    # most one hyper-edge an epoch, so its three chunks go out in epochs 0-2
    # at best and the last is read at epoch 4: the optimum.
    edges = tuple(e for i in range(4) for e in (Edge(i, "h", 1.0, 1.0), Edge("h", i, 1.0, 1.0)))
    t = Topology((0, 1, 2, 3, "h"), frozenset({"h"}), edges)
    result = synthesize(t, generate_demand("allgather", t, 1, 1), "astar",
                        switch_mode="hyper-edge")
    assert result.report.ok
    assert result.report.completion_epoch <= 4


# Each `ndv2x2-allgather-astar` input of benchmark seed 1, as the benchmark
# builds it (GPU ids relabelled, 1 MiB chunks, the workload's options), and
# the epochs A* took when they were pinned.
SEED1_EPOCHS = [60, 60, 60, 60, 64, 64, 64]


def test_astar_benchmark_inputs_stay_within_their_ledger():
    w = WORKLOADS["ndv2x2-allgather-astar"]
    got = [synthesize(t, d, **w.synthesis_options()).epochs for t, d in run_inputs(w, 1)]
    assert all(g <= limit for g, limit in zip(got, SEED1_EPOCHS, strict=True)), got
