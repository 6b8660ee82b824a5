"""Golden digests of the models that `solver.solve` receives.

Each input's model is hashed as `solve` receives it, one entry per column:
the minimised objective `c` (`objective_arrays()` negated), the binary
flags, the column bounds, the row bounds and the CSC `indptr`/`indices`/
`data` of `matrix()`. That is exactly what `solve` handed to HiGHS before
it learnt to hand over only the free columns, so any change to how models
are built, stored or assembled must keep every model as it was. The digests
were first recorded from the row-by-row model builders; the one-shot ones
(`milp/*`, `coarse*/*`) again when those models began to fix every send that
cannot reach a destination in time, and the A* rounds after round 0 again
when rounds began to fix every send into a node that already holds the
chunk, and the LP ones (`lp/*`) again when the LP stopped carrying
cumulative reads, and every A* round (`astar/*`) again when rounds began to
fix the buffers, look-ahead and progress counters their carry decides. The
A* rounds after round 0 also pin the solve that seeds them: each round is
solved by `solve` to seed the next. To print the digests of the current
code, or with `--changed` only those that differ from `GOLDEN`, as
`key: old → new`:

    PYTHONPATH=src python tests/test_model_digests.py [--changed]
"""

import hashlib
import sys

import numpy as np
import pytest

from collsched import astar, solver
from collsched.astar import advance_state, build_round_model, initial_state, round_distance_table
from collsched.demand import generate_demand
from collsched.epochs import EpochConfig, epoch_duration, link_timing
from collsched.estimator import default_candidates
from collsched.lp import build_lp_model
from collsched.milp import ModelOptions, build_time_expanded, model_topology
from collsched.topology import Topology, dgx1, dgx2, line, ndv2

MIB = 1 << 20


def _slice(t: Topology, keep) -> Topology:
    keep = set(keep) | set(t.switches)
    edges = tuple(e for e in t.edges if e.src in keep and e.dst in keep)
    return Topology(tuple(n for n in t.nodes if n in keep), t.switches, edges)


def _topologies():
    base = dgx1()
    # GPU 0 -> GPU 1 doubled at epoch 1 and halved at epoch 2; GPU 2 -> GPU 3
    # doubled at epoch 0.
    overridden = Topology(base.nodes, base.switches, base.edges,
                          {(0, 1, 1): 100e9, (0, 1, 2): 25e9, (2, 3, 0): 100e9})
    return {
        "dgx1": base,
        "dgx1-override": overridden,
        # Two chassis joined by the 12.5 GB/s switch links: kappa 4.
        "ndv2x2-slice": _slice(ndv2(chassis=2), (0, 1, 2, 8, 9, 10)),
        # Two switched chassis and their 12.5 GB/s cross links: kappa 10.
        "dgx2x2-slice": _slice(dgx2(chassis=2), (0, 1, 14, 15, 16, 17, 30, 31)),
    }


def _modes(name):
    return ("copy",) if name.startswith("dgx1") else ("copy", "no-copy", "hyper-edge")


def _one_shot_inputs():
    """name -> zero-argument model builder."""
    out = {}
    for name, t in _topologies().items():
        tau = epoch_duration(t, MIB)
        probe = EpochConfig(tau, 1, MIB)
        for coll in ("allgather", "alltoall"):
            d = generate_demand(coll, t, 1, MIB)
            for mode in _modes(name):
                opts = ModelOptions(switch_mode=mode)
                K = link_timing(model_topology(t, opts)[0], probe).max_delta + 2
                cfg = EpochConfig(tau, K, MIB)
                out[f"milp/{name}/{coll}/{mode}"] = (
                    lambda t=t, d=d, cfg=cfg, opts=opts: build_time_expanded(t, d, cfg, opts))
                # The estimator's coarse models for its first candidate time.
                total = default_candidates(t, d)[0]
                for n_e in (4, 8) if name.startswith("ndv2") else (4,):
                    coarse = EpochConfig(total / n_e, n_e, MIB)
                    out[f"coarse{n_e}/{name}/{coll}/{mode}"] = (
                        lambda t=t, d=d, cfg=coarse, opts=opts:
                        build_time_expanded(t, d, cfg, opts))
                if mode != "hyper-edge":
                    out[f"lp/{name}/{coll}/{mode}"] = (
                        lambda t=t, d=d, cfg=cfg, opts=opts: build_lp_model(t, d, cfg, opts))
            limited = ModelOptions(buffer_limit=len(t.gpus))
            cfg = EpochConfig(tau, 6, MIB)
            out[f"milp/{name}/{coll}/buffer-limit"] = (
                lambda t=t, d=d, cfg=cfg, opts=limited: build_time_expanded(t, d, cfg, opts))
            out[f"lp/{name}/{coll}/buffer-limit"] = (
                lambda t=t, d=d, cfg=cfg, opts=limited: build_lp_model(t, d, cfg, opts))
    return out


def _round_input(name, coll):
    """The topology and demand of an A* input: a digest topology, or line6,
    a 6-node line with no latency, where a send lands within its round."""
    t = line(6) if name == "line6" else _topologies()[name]
    return t, generate_demand(coll, t, 1, MIB)


def _solved_rounds(name, coll, mode):
    """A* rounds 0-2, each solved to seed the next: the states that seed
    rounds 0-3, the round models, their solutions, the model topology and
    the link timing."""
    t, d = _round_input(name, coll)
    opts = ModelOptions(switch_mode=mode)
    tau = epoch_duration(t, MIB)
    t_eff = model_topology(t, opts)[0]
    K = max(4, link_timing(t_eff, EpochConfig(tau, 1, MIB)).max_delta)
    cfg = EpochConfig(tau, K, MIB)
    timing = link_timing(t_eff, cfg)
    fw = round_distance_table(t, cfg)
    states, models, sols = [initial_state(d)], [], []
    for _ in range(3):
        models.append(build_round_model(t, states[-1], cfg, fw, 0.5, opts))
        sols.append(solver.solve(models[-1]))
        states.append(advance_state(states[-1], sols[-1], timing))
    return states, models, sols, t_eff, timing


def _astar_rounds(name, coll, mode):
    """Models of A* rounds 0-2, each round solved to seed the next, the
    carries they hand on, the model topology and the link timing."""
    states, models, _, t_eff, timing = _solved_rounds(name, coll, mode)
    return models, [s.carry for s in states[1:]], t_eff, timing


def _digest(m) -> str:
    """Digest of the model as `solve` receives it."""
    c = np.zeros(m.num_vars)
    np.subtract.at(c, *m.objective_arrays())
    a = m.matrix()
    h = hashlib.sha256(repr(a.shape).encode())
    for arr, dtype in ((c, np.float64), (m.binary, np.int64), (m.lb, np.float64),
                       (m.ub, np.float64), *((b, np.float64) for b in m.row_bounds()),
                       (a.indptr, np.int64), (a.indices, np.int64), (a.data, np.float64)):
        arr = np.ascontiguousarray(arr, dtype=dtype)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


GOLDEN = {
    'coarse4/dgx1-override/allgather/copy': '363a6c3a031fe1d6',
    'coarse4/dgx1-override/alltoall/copy': 'c80ede71ef078d71',
    'coarse4/dgx1/allgather/copy': '736a2bcbe22dacb1',
    'coarse4/dgx1/alltoall/copy': '4d912838afb25fd0',
    'coarse4/dgx2x2-slice/allgather/copy': '19989bdf9aed079d',
    'coarse4/dgx2x2-slice/allgather/hyper-edge': 'a5f19b59ca0b736a',
    'coarse4/dgx2x2-slice/allgather/no-copy': 'c88f630fed17873f',
    'coarse4/dgx2x2-slice/alltoall/copy': '929a25fe145de612',
    'coarse4/dgx2x2-slice/alltoall/hyper-edge': 'e84a47bfb8707d52',
    'coarse4/dgx2x2-slice/alltoall/no-copy': '26e8a5cf992a8d8e',
    'coarse4/ndv2x2-slice/allgather/copy': '2a60087d87e333f5',
    'coarse4/ndv2x2-slice/allgather/hyper-edge': 'fbe7bd09c3a2f4c9',
    'coarse4/ndv2x2-slice/allgather/no-copy': '03987e13de6d0927',
    'coarse4/ndv2x2-slice/alltoall/copy': '8739bb7802b0a9e8',
    'coarse4/ndv2x2-slice/alltoall/hyper-edge': '3222651e46527851',
    'coarse4/ndv2x2-slice/alltoall/no-copy': 'f847f9cbcc414f54',
    'coarse8/ndv2x2-slice/allgather/copy': 'f64f46711d4ca049',
    'coarse8/ndv2x2-slice/allgather/hyper-edge': '30aa72ff2d5f6721',
    'coarse8/ndv2x2-slice/allgather/no-copy': 'c810177409260c46',
    'coarse8/ndv2x2-slice/alltoall/copy': '0b49bcdd7876871f',
    'coarse8/ndv2x2-slice/alltoall/hyper-edge': 'e219e6b1eb59ba09',
    'coarse8/ndv2x2-slice/alltoall/no-copy': 'd67fe9754a25fed4',
    'lp/dgx1-override/allgather/buffer-limit': '4d533ea2f8369667',
    'lp/dgx1-override/allgather/copy': 'df91d3538959f35b',
    'lp/dgx1-override/alltoall/buffer-limit': '4d533ea2f8369667',
    'lp/dgx1-override/alltoall/copy': 'df91d3538959f35b',
    'lp/dgx1/allgather/buffer-limit': 'cbf70230941acd74',
    'lp/dgx1/allgather/copy': '114e540cc11f7e45',
    'lp/dgx1/alltoall/buffer-limit': 'cbf70230941acd74',
    'lp/dgx1/alltoall/copy': '114e540cc11f7e45',
    'lp/dgx2x2-slice/allgather/buffer-limit': '1d26eb673e32ac52',
    'lp/dgx2x2-slice/allgather/copy': '9aa73548d632d0e1',
    'lp/dgx2x2-slice/allgather/no-copy': '9aa73548d632d0e1',
    'lp/dgx2x2-slice/alltoall/buffer-limit': '1d26eb673e32ac52',
    'lp/dgx2x2-slice/alltoall/copy': '9aa73548d632d0e1',
    'lp/dgx2x2-slice/alltoall/no-copy': '9aa73548d632d0e1',
    'lp/ndv2x2-slice/allgather/buffer-limit': 'b67040923fade0fe',
    'lp/ndv2x2-slice/allgather/copy': '1c59b68db7810f71',
    'lp/ndv2x2-slice/allgather/no-copy': '1c59b68db7810f71',
    'lp/ndv2x2-slice/alltoall/buffer-limit': 'b67040923fade0fe',
    'lp/ndv2x2-slice/alltoall/copy': '1c59b68db7810f71',
    'lp/ndv2x2-slice/alltoall/no-copy': '1c59b68db7810f71',
    'milp/dgx1-override/allgather/buffer-limit': '25dc4d8348291997',
    'milp/dgx1-override/allgather/copy': '3f0627bfac505527',
    'milp/dgx1-override/alltoall/buffer-limit': '4ff73ea00f8144f4',
    'milp/dgx1-override/alltoall/copy': '25c321eb913474ae',
    'milp/dgx1/allgather/buffer-limit': '849f9b159acff543',
    'milp/dgx1/allgather/copy': '77400b9ab7280f1d',
    'milp/dgx1/alltoall/buffer-limit': '395029b2eb812588',
    'milp/dgx1/alltoall/copy': '167dc75a6676275f',
    'milp/dgx2x2-slice/allgather/buffer-limit': 'de98c73749cd374f',
    'milp/dgx2x2-slice/allgather/copy': '0fbd1dd8002436e4',
    'milp/dgx2x2-slice/allgather/hyper-edge': 'b0e8311117b5e19b',
    'milp/dgx2x2-slice/allgather/no-copy': 'f8c9b766eed884ad',
    'milp/dgx2x2-slice/alltoall/buffer-limit': '399e7e80f1aab0d2',
    'milp/dgx2x2-slice/alltoall/copy': '7b6c4c3571e76e38',
    'milp/dgx2x2-slice/alltoall/hyper-edge': 'd704a7380f353011',
    'milp/dgx2x2-slice/alltoall/no-copy': 'd58b8234f92c9b69',
    'milp/ndv2x2-slice/allgather/buffer-limit': 'b8d19eb850bf9d94',
    'milp/ndv2x2-slice/allgather/copy': 'ac1e8ad49f347c3f',
    'milp/ndv2x2-slice/allgather/hyper-edge': '4cf7520d7d9b37a5',
    'milp/ndv2x2-slice/allgather/no-copy': 'e28edeaf3f6e9df9',
    'milp/ndv2x2-slice/alltoall/buffer-limit': '8d0f826733e4abe4',
    'milp/ndv2x2-slice/alltoall/copy': 'a1e106abd5f505e2',
    'milp/ndv2x2-slice/alltoall/hyper-edge': 'e5645cdd1cc09c99',
    'milp/ndv2x2-slice/alltoall/no-copy': '625ae500bb1478aa',
    'astar/ndv2x2-slice/allgather/copy/0': '7e7c3ab86993737c',
    'astar/ndv2x2-slice/allgather/copy/1': 'bad5a3831a09c165',
    'astar/ndv2x2-slice/allgather/copy/2': '1c878763459a4288',
    'astar/ndv2x2-slice/alltoall/no-copy/0': '7a0f77a2b89c68c9',
    'astar/ndv2x2-slice/alltoall/no-copy/1': '550ab91095d5a91d',
    'astar/ndv2x2-slice/alltoall/no-copy/2': '4e57c044b1e4c6e5',
    'astar/dgx2x2-slice/allgather/hyper-edge/0': '54908c670a622e23',
    'astar/dgx2x2-slice/allgather/hyper-edge/1': '3670a05aca5568b1',
    'astar/dgx2x2-slice/allgather/hyper-edge/2': '86eb68c676f0970f',
}


ONE_SHOT = _one_shot_inputs()


@pytest.mark.parametrize("name", sorted(ONE_SHOT))
def test_one_shot_models_reach_highs_unchanged(name):
    assert _digest(ONE_SHOT[name]()) == GOLDEN[name]


# Each dgx1 input's optimum at its smallest feasible horizon, K* = 7, as
# the LP gave it while it carried cumulative reads as columns. Allgather and
# alltoall give the same copy-free LP, and a buffer of 8 never binds.
LP_OPTIMA = {"dgx1": 56.066666667, "dgx1-override": 56.291666667}


@pytest.mark.parametrize("name", [n for n in sorted(ONE_SHOT) if n.startswith("lp/dgx1")])
def test_lp_per_epoch_reads_keep_the_cumulative_optimum(name):
    # Weighing the read at epoch k by the suffix sum of 1/(j + 1), j >= k,
    # is the early-delivery objective on cumulative reads, so K* and the
    # optimum stay as they were.
    _, topo, coll, mode = name.split("/")
    t = _topologies()[topo]
    d = generate_demand(coll, t, 1, MIB)
    opts = (ModelOptions(buffer_limit=len(t.gpus)) if mode == "buffer-limit"
            else ModelOptions(switch_mode=mode))
    build = lambda K: build_lp_model(t, d, EpochConfig(epoch_duration(t, MIB), K, MIB), opts)
    assert solver.solve(build(6)).status == solver.INFEASIBLE
    sol = solver.solve(build(7))
    assert sol.objective == pytest.approx(LP_OPTIMA[topo], rel=1e-9)
    reads = np.cumsum(sol.x[sol.model.families["Rd"].index], axis=1)
    assert sol.objective == pytest.approx((reads / np.arange(1, 8)).sum(), rel=1e-9)


ASTAR = [("ndv2x2-slice", "allgather", "copy"), ("ndv2x2-slice", "alltoall", "no-copy"),
         ("dgx2x2-slice", "allgather", "hyper-edge")]


@pytest.mark.parametrize("name, coll, mode", ASTAR)
def test_astar_round_models_reach_highs_unchanged(name, coll, mode):
    models, carries, t_eff, timing = _astar_rounds(name, coll, mode)
    got = [_digest(m) for m in models]
    assert got == [GOLDEN[f"astar/{name}/{coll}/{mode}/{r}"] for r in range(3)]
    # The rounds exercise the carry: arrivals at a switch and windows of a
    # kappa > 1 link still loaded at the round's start.
    if t_eff.switches:
        assert any(t_eff.is_switch(n) for c in carries for (_, _, n, _) in c.arrivals)
    assert any(timing.kappa[(i, j)] > 1 for c in carries for (i, j, _) in c.link_load)


# The optimum of A* rounds 0-2 as `_solved_rounds` reaches them, given by
# the round builder from the same states before rounds fixed the buffers,
# look-ahead and progress counters their carry decides. On line6 a send
# lands within its round, so a round's buffers are only partly decided.
ROUND_OPTIMA = {
    ("ndv2x2-slice", "allgather", "copy"): [32.520933224465324, 7.362889312102464,
                                            8.181200611723831],
    ("ndv2x2-slice", "alltoall", "no-copy"): [32.18251493286339, 6.478092001229404,
                                              4.813504695274837],
    ("dgx2x2-slice", "allgather", "hyper-edge"): [81.6301209690617, 56.62409706080107,
                                                  25.556099765277708],
    ("line6", "alltoall", "copy"): [54.00208333333333, 14.002083333333333, 6.334733333333333],
}


def _carried(m, carry) -> np.ndarray:
    """What the carry alone has put in each buffer B[c, b, k] by epoch k."""
    b = m.families["B"]
    com, node = b.axes[0].position, b.axes[1].position
    got = np.zeros(b.index.shape)
    for (s, c, n, k), v in carry.arrivals.items():
        if (s, c) in com and n in node and k < got.shape[2]:
            got[com[(s, c)], node[n], k] += v
    return np.cumsum(got, axis=2)


def _decidable(m) -> set:
    """Columns of B and Q still free though an equality row holds no other
    free column, so that the row alone decides them."""
    free = m.lb != m.ub
    a = m.matrix().transpose()  # column i is row i
    lo, hi = m.row_bounds()
    row = np.repeat(np.arange(len(lo)), np.diff(a.indptr))
    on = free[a.indices] & (a.data != 0)
    alone = (lo == hi) & (np.bincount(row[on], minlength=len(lo)) == 1)
    cols = set(a.indices[on & alone[row]].tolist())
    return cols & set(np.concatenate([m.families[f].index.ravel() for f in "BQ"]).tolist())


@pytest.mark.parametrize("name, coll, mode", sorted(ROUND_OPTIMA))
def test_round_models_fix_what_their_carry_decides(name, coll, mode):
    states, models, sols, _, _ = _solved_rounds(name, coll, mode)
    assert [s.objective for s in sols] == pytest.approx(ROUND_OPTIMA[name, coll, mode],
                                                        rel=1e-9, abs=1e-9)
    for state, m in zip(states, models):
        b = m.families["B"].index
        fixed = m.lb[b] == m.ub[b]
        assert np.array_equal(m.lb[b][fixed], _carried(m, state.carry)[fixed])
        assert fixed[:, :, 1:].any()
        if name == "line6":
            assert not fixed.all()


@pytest.mark.parametrize("name, coll, mode", sorted(ROUND_OPTIMA))
def test_no_round_leaves_a_decided_buffer_or_look_ahead_free(name, coll, mode, monkeypatch):
    models = []

    def solve(m, opts=None):
        models.append(m)
        return solver.solve(m, opts)

    monkeypatch.setattr(astar, "solve", solve)
    t, d = _round_input(name, coll)
    astar.astar_solve(t, d, epoch_duration(t, MIB), opts=ModelOptions(switch_mode=mode))
    assert len(models) >= 3
    assert [_decidable(m) for m in models] == [set()] * len(models)


def _record():
    out = {name: _digest(build()) for name, build in sorted(ONE_SHOT.items())}
    for name, coll, mode in ASTAR:
        for r, m in enumerate(_astar_rounds(name, coll, mode)[0]):
            out[f"astar/{name}/{coll}/{mode}/{r}"] = _digest(m)
    return out


if __name__ == "__main__":
    got = _record()
    if sys.argv[1:] == ["--changed"]:
        for key, value in got.items():
            if GOLDEN.get(key) != value:
                print(f"{key}: {GOLDEN.get(key)} → {value}")
    else:
        print("GOLDEN = {")
        for key, value in got.items():
            print(f"    {key!r}: {value!r},")
        print("}")
