"""The benchmark's tracer wraps package functions by name and reads the
models that `solve` receives; these tests run its wrapping test in the
package's suite, so a change under src/ that drops one of those names fails
here too, and check that what it counts of each model is what `solve`
receives, of which HiGHS gets the free columns and every row.
They also run the bench's checks of its two small inputs, which take the
MILP and LP paths of `synthesize` traced, and of its output checks."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from test_bench import (SMALL_LP, SMALL_MILP, test_checks_reject_tampered_results,  # noqa: E402,F401
                        test_tracer_restores_every_wrapped_name)
# Aliased, so that pytest does not collect it with the bench's A* parameter.
from test_bench import test_self_times_add_up_to_synth_time as self_times_add_up  # noqa: E402
from tracer import Tracer  # noqa: E402

from collsched import astar, estimator, solver, workflow  # noqa: E402
from collsched.demand import generate_demand  # noqa: E402
from collsched.topology import ring  # noqa: E402
from collsched.workflow import synthesize  # noqa: E402


@pytest.mark.parametrize("method, kwargs", [
    ("milp", {}), ("lp", {"search_horizon": True}), ("astar", {})])
def test_tracer_counts_what_highs_receives(method, kwargs, monkeypatch):
    # The tracer counts each model `solve` receives; HiGHS receives exactly
    # its free columns (lb < ub) and every row.
    received, handed = [], []
    real_solve, real_milp = solver.solve, solver.milp

    def receive(m, *args, **kwargs):
        a, free = m.matrix(), m.lb != m.ub
        received.append((m.num_vars, a.nnz, int(m.binary.sum()),
                         int(np.diff(a.indptr)[free].sum()), int(m.binary[free].sum())))
        return real_solve(m, *args, **kwargs)

    def record(c, *, integrality, lb, ub, a, row_lb, row_ub, options, offset):
        handed.append((len(c), a.shape[0], a.nnz, int(integrality.sum())))
        return real_milp(c, integrality=integrality, lb=lb, ub=ub, a=a, row_lb=row_lb,
                         row_ub=row_ub, options=options, offset=offset)

    for module in (workflow, solver, astar, estimator):
        monkeypatch.setattr(module, "solve", receive)
    monkeypatch.setattr(solver, "milp", record)
    t = ring(4)
    with Tracer() as tracer:
        synthesize(t, generate_demand("alltoall", t), method, **kwargs)
    counts = tracer.counts
    assert counts["solver.calls"] == len(received) == len(handed) > 0
    vars_, rows, nnz, binaries = (sum(column) for column in zip(*handed))
    model_vars, model_nnz, model_binaries, free_nnz, free_binaries = (
        sum(column) for column in zip(*received))
    assert (counts["model.vars"], counts["model.nnz"], counts["model.binaries"]) == (
        model_vars, model_nnz, model_binaries)
    assert counts["model.max_nnz"] == max(r[1] for r in received)
    assert counts["model.vars"] - counts["model.fixed_vars"] == vars_
    assert counts["model.rows"] == rows
    assert (nnz, binaries) == (free_nnz, free_binaries)
    assert [h[2] for h in handed] == [r[3] for r in received]


@pytest.mark.parametrize("w", [SMALL_MILP, SMALL_LP], ids=lambda w: w.name)
def test_self_times_add_up_on_the_small_paths(w):
    self_times_add_up(w, astar_call=None)  # the A* call is read for the A* input only
