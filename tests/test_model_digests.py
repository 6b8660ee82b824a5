"""Golden digests of the models that `solver.solve` receives.

Each input's model is hashed as `solve` receives it, one entry per column:
the minimised objective `c` (`objective_arrays()` negated), the binary
flags, the column bounds, the row bounds and the CSC `indptr`/`indices`/
`data` of `matrix()`. That is exactly what `solve` handed to HiGHS before
it learnt to hand over only the free columns, so any change to how models
are built, stored or assembled must keep every model as it was. The digests
were first recorded from the row-by-row model builders. The A* rounds after
round 0 also pin the solve that seeds them: each round is solved by `solve`
to seed the next. To print the digests of the current code:

    PYTHONPATH=src python tests/test_model_digests.py
"""

import hashlib

import numpy as np
import pytest

from collsched import solver
from collsched.astar import advance_state, build_round_model, initial_state, round_distance_table
from collsched.demand import generate_demand
from collsched.epochs import EpochConfig, epoch_duration, link_timing
from collsched.estimator import default_candidates
from collsched.lp import build_lp_model
from collsched.milp import ModelOptions, build_time_expanded, model_topology
from collsched.topology import Topology, dgx1, dgx2, ndv2

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


def _astar_rounds(name, coll, mode):
    """Models of A* rounds 0-2, each round solved to seed the next."""
    t = _topologies()[name]
    d = generate_demand(coll, t, 1, MIB)
    opts = ModelOptions(switch_mode=mode)
    tau = epoch_duration(t, MIB)
    t_eff = model_topology(t, opts)[0]
    K = max(4, link_timing(t_eff, EpochConfig(tau, 1, MIB)).max_delta)
    cfg = EpochConfig(tau, K, MIB)
    timing = link_timing(t_eff, cfg)
    fw = round_distance_table(t, cfg)
    state = initial_state(d)
    models, carries = [], []
    for _ in range(3):
        m = build_round_model(t, state, cfg, fw, 0.5, opts)
        models.append(m)
        state = advance_state(state, solver.solve(m), t_eff, cfg, timing)
        carries.append(state.carry)
    return models, carries, t_eff, timing


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
    'coarse4/dgx1-override/allgather/copy': '4c74e51e6782f677',
    'coarse4/dgx1-override/alltoall/copy': 'a1ea50b882a6c71e',
    'coarse4/dgx1/allgather/copy': '008633483a3144d2',
    'coarse4/dgx1/alltoall/copy': 'a2d775b9b4823d0c',
    'coarse4/dgx2x2-slice/allgather/copy': 'e6700afd57692a71',
    'coarse4/dgx2x2-slice/allgather/hyper-edge': 'a45a7eaebc719711',
    'coarse4/dgx2x2-slice/allgather/no-copy': '988b369111fec014',
    'coarse4/dgx2x2-slice/alltoall/copy': 'ab9d2ef17273e4de',
    'coarse4/dgx2x2-slice/alltoall/hyper-edge': '55456199f6ebfb88',
    'coarse4/dgx2x2-slice/alltoall/no-copy': 'eaac7c93d8d74a06',
    'coarse4/ndv2x2-slice/allgather/copy': 'fa45984d7202253d',
    'coarse4/ndv2x2-slice/allgather/hyper-edge': '11da3bbdf39e1bbb',
    'coarse4/ndv2x2-slice/allgather/no-copy': '4eea631497a5eaba',
    'coarse4/ndv2x2-slice/alltoall/copy': '295241187dbad966',
    'coarse4/ndv2x2-slice/alltoall/hyper-edge': 'e5a3a8abd468f975',
    'coarse4/ndv2x2-slice/alltoall/no-copy': 'bd6e9cad7c98c199',
    'coarse8/ndv2x2-slice/allgather/copy': '431eaa11ed513eaa',
    'coarse8/ndv2x2-slice/allgather/hyper-edge': '517c948c0934badf',
    'coarse8/ndv2x2-slice/allgather/no-copy': '48bd0f6ac7e229c1',
    'coarse8/ndv2x2-slice/alltoall/copy': 'f026db2cb51a6234',
    'coarse8/ndv2x2-slice/alltoall/hyper-edge': '8a972a0fefaacfab',
    'coarse8/ndv2x2-slice/alltoall/no-copy': 'e4f068318bec8f3a',
    'lp/dgx1-override/allgather/buffer-limit': '2e683847b612be93',
    'lp/dgx1-override/allgather/copy': '0e11609590069d1a',
    'lp/dgx1-override/alltoall/buffer-limit': '2e683847b612be93',
    'lp/dgx1-override/alltoall/copy': '0e11609590069d1a',
    'lp/dgx1/allgather/buffer-limit': 'e3c598c946114b69',
    'lp/dgx1/allgather/copy': '5fa94c54ea18c880',
    'lp/dgx1/alltoall/buffer-limit': 'e3c598c946114b69',
    'lp/dgx1/alltoall/copy': '5fa94c54ea18c880',
    'lp/dgx2x2-slice/allgather/buffer-limit': '39daf694d2f7f557',
    'lp/dgx2x2-slice/allgather/copy': '35c61de475cc3e86',
    'lp/dgx2x2-slice/allgather/no-copy': '35c61de475cc3e86',
    'lp/dgx2x2-slice/alltoall/buffer-limit': '39daf694d2f7f557',
    'lp/dgx2x2-slice/alltoall/copy': '35c61de475cc3e86',
    'lp/dgx2x2-slice/alltoall/no-copy': '35c61de475cc3e86',
    'lp/ndv2x2-slice/allgather/buffer-limit': '44a8d2e09ce7f290',
    'lp/ndv2x2-slice/allgather/copy': '7691419606636d3a',
    'lp/ndv2x2-slice/allgather/no-copy': '7691419606636d3a',
    'lp/ndv2x2-slice/alltoall/buffer-limit': '44a8d2e09ce7f290',
    'lp/ndv2x2-slice/alltoall/copy': '7691419606636d3a',
    'lp/ndv2x2-slice/alltoall/no-copy': '7691419606636d3a',
    'milp/dgx1-override/allgather/buffer-limit': 'eb04e9dd90bec5b7',
    'milp/dgx1-override/allgather/copy': '063bcf46be77b4d6',
    'milp/dgx1-override/alltoall/buffer-limit': 'a3b5692ff912dcbd',
    'milp/dgx1-override/alltoall/copy': 'ffe3cfdebf478234',
    'milp/dgx1/allgather/buffer-limit': 'a822e7f52f31a7b5',
    'milp/dgx1/allgather/copy': 'e0184ebcb43c4faa',
    'milp/dgx1/alltoall/buffer-limit': '9546657017bd40d3',
    'milp/dgx1/alltoall/copy': 'be0adf095f170dc8',
    'milp/dgx2x2-slice/allgather/buffer-limit': '8ea06bd58df26237',
    'milp/dgx2x2-slice/allgather/copy': 'bd2981d9f2453ea2',
    'milp/dgx2x2-slice/allgather/hyper-edge': '2029c59521a50669',
    'milp/dgx2x2-slice/allgather/no-copy': 'ac084e333d9490d6',
    'milp/dgx2x2-slice/alltoall/buffer-limit': 'b946d7a6bdb60aa1',
    'milp/dgx2x2-slice/alltoall/copy': '3b5be9fc9369f61d',
    'milp/dgx2x2-slice/alltoall/hyper-edge': 'e7861d24794efef7',
    'milp/dgx2x2-slice/alltoall/no-copy': 'c4c13fed072a4935',
    'milp/ndv2x2-slice/allgather/buffer-limit': 'c8a3b84e556e0d2a',
    'milp/ndv2x2-slice/allgather/copy': '9e9bdbd25fbf3f6b',
    'milp/ndv2x2-slice/allgather/hyper-edge': '123855e5c213c07a',
    'milp/ndv2x2-slice/allgather/no-copy': 'ee3381cae6e06c26',
    'milp/ndv2x2-slice/alltoall/buffer-limit': '51317a589de3656f',
    'milp/ndv2x2-slice/alltoall/copy': 'de4faa47901691a3',
    'milp/ndv2x2-slice/alltoall/hyper-edge': '59c5ed329cd5ec22',
    'milp/ndv2x2-slice/alltoall/no-copy': 'ce68cf8143ee0f4d',
    'astar/ndv2x2-slice/allgather/copy/0': '5332eef402e953cb',
    'astar/ndv2x2-slice/allgather/copy/1': 'b66b95a405d9ee5e',
    'astar/ndv2x2-slice/allgather/copy/2': 'dbeb7a201f7d3e87',
    'astar/ndv2x2-slice/alltoall/no-copy/0': '60902bfdcc95ea80',
    'astar/ndv2x2-slice/alltoall/no-copy/1': 'e94e037d45034c58',
    'astar/ndv2x2-slice/alltoall/no-copy/2': '14c94105cc87f4d1',
    'astar/dgx2x2-slice/allgather/hyper-edge/0': '7dc09906db33ec80',
    'astar/dgx2x2-slice/allgather/hyper-edge/1': '52747781e1bfdfde',
    'astar/dgx2x2-slice/allgather/hyper-edge/2': '9cad2cdb1353fa48',
}


ONE_SHOT = _one_shot_inputs()


@pytest.mark.parametrize("name", sorted(ONE_SHOT))
def test_one_shot_models_reach_highs_unchanged(name):
    assert _digest(ONE_SHOT[name]()) == GOLDEN[name]


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


def _record():
    out = {name: _digest(build()) for name, build in sorted(ONE_SHOT.items())}
    for name, coll, mode in ASTAR:
        for r, m in enumerate(_astar_rounds(name, coll, mode)[0]):
            out[f"astar/{name}/{coll}/{mode}/{r}"] = _digest(m)
    return out


if __name__ == "__main__":
    print("GOLDEN = {")
    for key, value in _record().items():
        print(f"    {key!r}: {value!r},")
    print("}")
