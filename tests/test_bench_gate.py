"""The benchmark's tracer wraps package functions by name and reads the
models that `solve` receives; these tests run its wrapping test in the
package's suite, so a change under src/ that drops one of those names fails
here too, and check that what it counts of each model is what HiGHS gets.
They also run the bench's checks of its two small inputs, which take the
MILP and LP paths of `synthesize` traced, and of its output checks."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from test_bench import (SMALL_LP, SMALL_MILP, test_checks_reject_tampered_results,  # noqa: E402,F401
                        test_tracer_restores_every_wrapped_name)
# Aliased, so that pytest does not collect it with the bench's A* parameter.
from test_bench import test_self_times_add_up_to_synth_time as self_times_add_up  # noqa: E402
from tracer import Tracer  # noqa: E402

from collsched import solver  # noqa: E402
from collsched.demand import generate_demand  # noqa: E402
from collsched.topology import ring  # noqa: E402
from collsched.workflow import synthesize  # noqa: E402


@pytest.mark.parametrize("method, kwargs", [
    ("milp", {}), ("lp", {"search_horizon": True}), ("astar", {})])
def test_tracer_counts_what_highs_receives(method, kwargs, monkeypatch):
    handed = []
    real = solver.milp

    def record(c, integrality, bounds, constraints, options):
        a = constraints.A if constraints is not None else None
        handed.append((len(c), 0 if a is None else a.shape[0], 0 if a is None else a.nnz,
                       int(integrality.sum())))
        return real(c=c, integrality=integrality, bounds=bounds, constraints=constraints,
                    options=options)

    monkeypatch.setattr(solver, "milp", record)
    t = ring(4)
    with Tracer() as tracer:
        synthesize(t, generate_demand("alltoall", t), method, **kwargs)
    counts = tracer.counts
    assert counts["solver.calls"] == len(handed) > 0
    vars_, rows, nnz, binaries = (sum(column) for column in zip(*handed))
    assert (counts["model.vars"], counts["model.rows"], counts["model.nnz"],
            counts["model.binaries"]) == (vars_, rows, nnz, binaries)
    assert counts["model.max_nnz"] == max(h[2] for h in handed)


@pytest.mark.parametrize("w", [SMALL_MILP, SMALL_LP], ids=lambda w: w.name)
def test_self_times_add_up_on_the_small_paths(w):
    self_times_add_up(w, astar_call=None)  # the A* call is read for the A* input only
