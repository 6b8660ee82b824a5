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
fix the buffers, look-ahead and progress counters their carry decides, and
all of them again when every builder began to settle its model
(`Model.settle`), dropping the rows its fixings decide, and the A* rounds
again when rounds gained one row per (commodity, buffering node) capping
its receptions at one and began to be solved as their LP relaxation first,
and the A* rounds after round 0 again when every round became a copy of one
template over the whole demand, whose met entries and commodities are
fixed at 0: their columns moved, but not what HiGHS gets of them
(`GOLDEN_HIGHS`).
The A* rounds after round 0 also pin the solve that seeds them: each round
is solved by `astar.solve_round` to seed the next. To print the digests and
`ROUND_OPTIMA` of the current code, or with `--changed` only the entries
that differ, as `key: old → new`:

    PYTHONPATH=src python tests/test_model_digests.py [--changed]
"""

import hashlib
import sys

import numpy as np
import pytest

from collsched import astar, solver
from collsched.astar import (advance_state, build_round_model, initial_state, round_template,
                             solve_round)
from collsched.demand import generate_demand
from collsched.epochs import EpochConfig, epoch_duration, link_timing
from collsched.estimator import default_candidates
from collsched.lp import build_lp_model
from collsched.milp import ModelOptions, build_time_expanded, model_topology
from collsched.model import holds
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
    """The topology and demand of an A* input: a digest topology; line6, a
    6-node line with no latency, where a send lands within its round; or
    ndv2x2, the whole two-chassis NDv2."""
    extra = {"line6": line(6), "ndv2x2": ndv2(chassis=2)}
    t = extra[name] if name in extra else _topologies()[name]
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
    template = round_template(t, d, cfg, opts)
    states, models, sols = [initial_state(d)], [], []
    for _ in range(3):
        models.append(build_round_model(template, states[-1]))
        sols.append(solve_round(models[-1]))
        states.append(advance_state(states[-1], sols[-1], timing))
    return states, models, sols, t_eff, timing


def _astar_rounds(name, coll, mode):
    """Models of A* rounds 0-2, each round solved to seed the next, the
    carries they hand on, the model topology and the link timing."""
    states, models, _, t_eff, timing = _solved_rounds(name, coll, mode)
    return models, [s.carry for s in states[1:]], t_eff, timing


def _hash(c, integrality, lb, ub, row_lb, row_ub, a) -> str:
    """Digest of a model as columns, column bounds, row bounds and a CSC."""
    h = hashlib.sha256(repr(a.shape).encode())
    for arr, dtype in ((c, np.float64), (integrality, np.int64), (lb, np.float64),
                       (ub, np.float64), (row_lb, np.float64), (row_ub, np.float64),
                       (a.indptr, np.int64), (a.indices, np.int64), (a.data, np.float64)):
        arr = np.ascontiguousarray(arr, dtype=dtype)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:16]


def _digest(m) -> str:
    """Digest of the model as `solve` receives it."""
    c = np.zeros(m.num_vars)
    np.subtract.at(c, *m.objective_arrays())
    return _hash(c, m.binary, m.lb, m.ub, *m.row_bounds(), m.matrix())


GOLDEN = {
    'coarse4/dgx1-override/allgather/copy': '3b79ad1b37a73039',
    'coarse4/dgx1-override/alltoall/copy': '68792691fbc92d17',
    'coarse4/dgx1/allgather/copy': '3e297b779203b9ae',
    'coarse4/dgx1/alltoall/copy': 'a024daa113574019',
    'coarse4/dgx2x2-slice/allgather/copy': 'e085767a30040383',
    'coarse4/dgx2x2-slice/allgather/hyper-edge': '55138fce5fe6e150',
    'coarse4/dgx2x2-slice/allgather/no-copy': 'e085767a30040383',
    'coarse4/dgx2x2-slice/alltoall/copy': 'c11b1009d52fab81',
    'coarse4/dgx2x2-slice/alltoall/hyper-edge': '3b665d226ad0ba22',
    'coarse4/dgx2x2-slice/alltoall/no-copy': 'c11b1009d52fab81',
    'coarse4/ndv2x2-slice/allgather/copy': '2f592b074a6982af',
    'coarse4/ndv2x2-slice/allgather/hyper-edge': '13514c83610740f3',
    'coarse4/ndv2x2-slice/allgather/no-copy': '2f592b074a6982af',
    'coarse4/ndv2x2-slice/alltoall/copy': '044c13509245798c',
    'coarse4/ndv2x2-slice/alltoall/hyper-edge': '6daa45e7cad6128e',
    'coarse4/ndv2x2-slice/alltoall/no-copy': '044c13509245798c',
    'coarse8/ndv2x2-slice/allgather/copy': '5b0856e7bf78c0df',
    'coarse8/ndv2x2-slice/allgather/hyper-edge': '19f0ac008c2a696c',
    'coarse8/ndv2x2-slice/allgather/no-copy': 'f701397cfb2d9154',
    'coarse8/ndv2x2-slice/alltoall/copy': '5bcc34789e910d8c',
    'coarse8/ndv2x2-slice/alltoall/hyper-edge': '0020c53a59275c1a',
    'coarse8/ndv2x2-slice/alltoall/no-copy': '3ef6d4b4a107b3a0',
    'lp/dgx1-override/allgather/buffer-limit': '9e2fb924cc7e986f',
    'lp/dgx1-override/allgather/copy': 'ec45001939ae1454',
    'lp/dgx1-override/alltoall/buffer-limit': '9e2fb924cc7e986f',
    'lp/dgx1-override/alltoall/copy': 'ec45001939ae1454',
    'lp/dgx1/allgather/buffer-limit': 'e3a1283483e137dc',
    'lp/dgx1/allgather/copy': '66378625aba47a74',
    'lp/dgx1/alltoall/buffer-limit': 'e3a1283483e137dc',
    'lp/dgx1/alltoall/copy': '66378625aba47a74',
    'lp/dgx2x2-slice/allgather/buffer-limit': '7f8d855dc060082c',
    'lp/dgx2x2-slice/allgather/copy': '9b822dedd37bf74c',
    'lp/dgx2x2-slice/allgather/no-copy': '9b822dedd37bf74c',
    'lp/dgx2x2-slice/alltoall/buffer-limit': '7f8d855dc060082c',
    'lp/dgx2x2-slice/alltoall/copy': '9b822dedd37bf74c',
    'lp/dgx2x2-slice/alltoall/no-copy': '9b822dedd37bf74c',
    'lp/ndv2x2-slice/allgather/buffer-limit': '54f8f3ccac8d1757',
    'lp/ndv2x2-slice/allgather/copy': 'cd0ffcc4dda29229',
    'lp/ndv2x2-slice/allgather/no-copy': 'cd0ffcc4dda29229',
    'lp/ndv2x2-slice/alltoall/buffer-limit': '54f8f3ccac8d1757',
    'lp/ndv2x2-slice/alltoall/copy': 'cd0ffcc4dda29229',
    'lp/ndv2x2-slice/alltoall/no-copy': 'cd0ffcc4dda29229',
    'milp/dgx1-override/allgather/buffer-limit': 'ff96341495851f4c',
    'milp/dgx1-override/allgather/copy': 'dad7dc074e81b3be',
    'milp/dgx1-override/alltoall/buffer-limit': '5768a4d3745c4808',
    'milp/dgx1-override/alltoall/copy': 'cc0f81aebe4b110e',
    'milp/dgx1/allgather/buffer-limit': 'ffdd47569eccfad6',
    'milp/dgx1/allgather/copy': 'dad7dc074e81b3be',
    'milp/dgx1/alltoall/buffer-limit': '8596fd26b27a823d',
    'milp/dgx1/alltoall/copy': 'cc0f81aebe4b110e',
    'milp/dgx2x2-slice/allgather/buffer-limit': 'bde2257fafbc7ecf',
    'milp/dgx2x2-slice/allgather/copy': 'f2beb787847c15cb',
    'milp/dgx2x2-slice/allgather/hyper-edge': '5f9b64abdc776c47',
    'milp/dgx2x2-slice/allgather/no-copy': 'f2beb787847c15cb',
    'milp/dgx2x2-slice/alltoall/buffer-limit': 'd7062e703595cffe',
    'milp/dgx2x2-slice/alltoall/copy': '42cdf6e01cd3a3a0',
    'milp/dgx2x2-slice/alltoall/hyper-edge': '50d75ec4a8fcd182',
    'milp/dgx2x2-slice/alltoall/no-copy': '42cdf6e01cd3a3a0',
    'milp/ndv2x2-slice/allgather/buffer-limit': '202f97fe1c7606b8',
    'milp/ndv2x2-slice/allgather/copy': '6c6ee4a5ace65239',
    'milp/ndv2x2-slice/allgather/hyper-edge': '62c0a961b80c4c09',
    'milp/ndv2x2-slice/allgather/no-copy': '6c6ee4a5ace65239',
    'milp/ndv2x2-slice/alltoall/buffer-limit': '9edc9afa9498016c',
    'milp/ndv2x2-slice/alltoall/copy': '201b0723ad8466f2',
    'milp/ndv2x2-slice/alltoall/hyper-edge': '8f18abdadb0cfd58',
    'milp/ndv2x2-slice/alltoall/no-copy': '201b0723ad8466f2',
    'astar/ndv2x2-slice/allgather/copy/0': '1be135c1f3ce5e4d',
    'astar/ndv2x2-slice/allgather/copy/1': '0608242eacebcb1c',
    'astar/ndv2x2-slice/allgather/copy/2': '55021b8aacf99e8f',
    'astar/ndv2x2-slice/alltoall/no-copy/0': 'eede80fac6ad2b44',
    'astar/ndv2x2-slice/alltoall/no-copy/1': 'c7f4c0950de2f576',
    'astar/ndv2x2-slice/alltoall/no-copy/2': '0ec41bc7b22108a7',
    'astar/dgx2x2-slice/allgather/hyper-edge/0': '56667c6969a5fd2c',
    'astar/dgx2x2-slice/allgather/hyper-edge/1': 'f9efeaafdf537883',
    'astar/dgx2x2-slice/allgather/hyper-edge/2': 'f4394b6ea4ad82d0',
}


# Per-round HiGHS inputs of whole A* solves (`_highs_rounds`).
GOLDEN_HIGHS = {
    'dgx2x2-slice/allgather/hyper-edge': ['32018a8c6fa7b3df', 'cfe412f7ee74c077', '01f756a0c5b842f5', '0f439cfe6abe77f3'],
    'line6/alltoall/copy': ['1fae7bcbf26c43f1', '978dc65790936625', '4eed31510aaad02d', '889ef4ddd0ecf577', '3a5945b8733edf2e'],
    'ndv2x2-slice/allgather/copy': ['38a3c5c09d26440f', '128e6322de1b975b', '22c7bdcc04e85441', '4088a42de3dcc75d', '554fc2651b33ef9c', '2248bfd4ce037049', 'a8a9f3578cd5c47b'],
    'ndv2x2-slice/alltoall/no-copy': ['943bc644b20ce054', 'befa122d3a8030de', '340bf948717e287e', '0386dc24d6a954de', '4a20c1016eb77b5b', '5c5f60709565ae47', '567e5ed7327e6201', 'd5978093a398f585', 'b8b81257743d774b', '0771e4cfc29f4a71', 'c0a4f3a5897655bf', '6218db23a2ed504a', '1347f3006207ab01', 'c6f1aa22f5936db8', 'bd2e0c34d2140b92', '7fb008926e811fca', '4638b030593bfd4f'],
    'ndv2x2/allgather/copy': ['436356fb734e540c', '975f4af18fbb414f', '3644a5319cbed748', 'b6ce4d467703d72d', '0b08c8671473adce', 'aafc95eb25ac0424', 'e354564640e6108c', '9f53c18715af5b2b', '9d32a089bd054be6', '24b7161e09bc860f', '01bbe073438d2d6e', '09aec3d1d3448507', 'a28d4720e79ee530'],
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


# The optimum of A* rounds 0-2 as `_solved_rounds` reaches them, each round
# solved by `astar.solve_round`. Recorded when rounds gained their
# one-arrival rows and began to be solved as their LP relaxation first; the
# MILP of each round model gives the same optimum within 2e-14. Before,
# they were given by the round builder from before rounds fixed the
# buffers, look-ahead and progress counters their carry decides, and again,
# bit for bit, by the round builder from before rounds were settled. On
# line6 a send lands within its round, so a round's buffers are only partly
# decided.
ROUND_OPTIMA = {
    ("ndv2x2-slice", "allgather", "copy"): [26.085213832476995, 7.362889312102462,
                                            7.879509077724377],
    ("ndv2x2-slice", "alltoall", "no-copy"): [25.690266338127334, 5.283890586015713,
                                              6.8630875054475355],
    ("dgx2x2-slice", "allgather", "hyper-edge"): [65.65126798530859, 31.607440750548573,
                                                  16.371402167810775],
    ("line6", "alltoall", "copy"): [47.66874999999999, 9.668433333333333, 7.3340000000000005],
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


def _thin_rows(m) -> np.ndarray:
    """Open columns (free, with a nonzero summed coefficient) of each row
    with fewer than two, in rows that could hold; a row with none that fails
    at its fixed columns' values cannot."""
    free = m.lb != m.ub
    a = m.matrix().transpose()  # column i is row i
    row = np.repeat(np.arange(m.num_rows), np.diff(a.indptr))
    on = free[a.indices] & (a.data != 0)
    count = np.bincount(row[on], minlength=m.num_rows)
    lo, hi = m.row_bounds()
    fails = (count == 0) & ~holds(m.matrix() @ np.where(free, 0.0, m.lb), lo, hi)
    return count[(count < 2) & ~fails]


def _full_astar_rounds(name, coll, mode, monkeypatch) -> list:
    """Every round model of a whole `astar_solve` of the A* input."""
    models = []

    def solve(m, opts=None):
        models.append(m)
        return solver.solve(m, opts)

    monkeypatch.setattr(astar, "solve", solve)
    t, d = _round_input(name, coll)
    astar.astar_solve(t, d, epoch_duration(t, MIB), opts=ModelOptions(switch_mode=mode))
    return models


def _highs_rounds(name, coll, mode):
    """What HiGHS receives in every solve of a whole `astar_solve` of the A*
    input, one digest per solve (its objective offset aside), and the
    demand left after each round."""
    digests, left = [], []
    real_milp, real_advance = solver.milp, astar.advance_state

    def milp(c, *, integrality, lb, ub, a, row_lb, row_ub, options, offset=0.0):
        digests.append(_hash(c, integrality, lb, ub, row_lb, row_ub, a))
        return real_milp(c, integrality=integrality, lb=lb, ub=ub, a=a, row_lb=row_lb,
                         row_ub=row_ub, options=options, offset=offset)

    def advance(*args, **kwargs):
        state = real_advance(*args, **kwargs)
        left.append(state.demand)
        return state

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "milp", milp)
        mp.setattr(astar, "advance_state", advance)
        t, d = _round_input(name, coll)
        astar.astar_solve(t, d, epoch_duration(t, MIB), opts=ModelOptions(switch_mode=mode))
    return digests, left


# Every round of a whole A* solve of each `ROUND_OPTIMA` input and of the
# whole ndv2x2 allgather, as HiGHS receives it: the free columns' `c`,
# integrality and bounds, the row bounds less the fixed columns' share, and
# the CSC. Recorded while each round was built from scratch.
HIGHS_ROUNDS = sorted(ROUND_OPTIMA) + [("ndv2x2", "allgather", "copy")]


@pytest.mark.parametrize("name, coll, mode", HIGHS_ROUNDS)
def test_every_astar_round_reaches_highs_unchanged(name, coll, mode):
    digests, left = _highs_rounds(name, coll, mode)
    assert digests == GOLDEN_HIGHS["/".join((name, coll, mode))]
    if name == "ndv2x2":
        # Its rounds meet some of a commodity's destinations before others,
        # and run on after whole commodities are gone.
        before = generate_demand(coll, ndv2(chassis=2), 1, MIB).commodities
        assert any(0 < len(dem.entries) and set(dem.commodities) == set(before)
                   and len(dem.entries) < len(before) * 15 for dem in left)
        assert any(0 < len(dem.commodities) < len(before) for dem in left)


@pytest.mark.parametrize("name", sorted(ONE_SHOT) + [
    "astar/" + "/".join(key) for key in sorted(set(ASTAR) | set(ROUND_OPTIMA))])
def test_no_model_keeps_a_row_with_fewer_than_two_open_columns(name, monkeypatch):
    # Every model is settled: a row whose fixed columns decide it is gone,
    # or turned into bounds, unless it cannot hold. The A* inputs check
    # every round of a whole solve.
    if name.startswith("astar/"):
        models = _full_astar_rounds(*name.split("/")[1:], monkeypatch)
        assert len(models) >= 3
    else:
        models = [ONE_SHOT[name]()]
    assert [_thin_rows(m).tolist() for m in models] == [[]] * len(models)


def _record():
    out = {name: _digest(build()) for name, build in sorted(ONE_SHOT.items())}
    for name, coll, mode in ASTAR:
        for r, m in enumerate(_astar_rounds(name, coll, mode)[0]):
            out[f"astar/{name}/{coll}/{mode}/{r}"] = _digest(m)
    for key in HIGHS_ROUNDS:
        out["/".join(key)] = _highs_rounds(*key)[0]
    optima = {key: [s.objective for s in _solved_rounds(*key)[2]] for key in sorted(ROUND_OPTIMA)}
    return out, optima


def _same_optima(old, new) -> bool:
    return old is not None and new == pytest.approx(old, rel=1e-9, abs=1e-9)


if __name__ == "__main__":
    got, optima = _record()
    if sys.argv[1:] == ["--changed"]:
        for key, value in got.items():
            old = GOLDEN.get(key, GOLDEN_HIGHS.get(key))
            if old != value:
                print(f"{key}: {old} → {value}")
        for key, value in optima.items():
            if not _same_optima(ROUND_OPTIMA.get(key), value):
                print(f"ROUND_OPTIMA{key}: {ROUND_OPTIMA.get(key)} → {value}")
    else:
        for title, lists in (("GOLDEN", False), ("GOLDEN_HIGHS", True)):
            print(f"{title} = {{")
            for key, value in got.items():
                if isinstance(value, list) == lists:
                    print(f"    {key!r}: {value!r},")
            print("}")
        print("ROUND_OPTIMA = {")
        for key, value in optima.items():
            print(f"    {key!r}: {value!r},")
        print("}")
