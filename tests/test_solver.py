import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp as scipy_milp
from scipy.optimize._highspy import _core
from scipy.sparse import csc_matrix

from collsched import Demand, extensions, solver
from collsched.astar import astar_solve, build_round_model, initial_state, round_template
from collsched.demand import generate_demand
from collsched.epochs import EpochConfig, link_timing
from collsched.estimator import default_candidates, estimate_epoch_upper_bound
from collsched.errors import (ConservationError, HorizonInfeasibleError, SolverBackendError,
                              SolverTimeoutError, ValidationError)
from collsched.lp import build_lp_model
from collsched.milp import ModelOptions, build_general_model, build_time_expanded, model_topology
from collsched.model import BINARY, CONTINUOUS, INF, Axis, Model
from collsched.solver import (FEASIBLE_GAP, INFEASIBLE, OPTIMAL, TIMEOUT, TOL, SolverOptions,
                              completion_epoch, min_feasible_horizon, solve)
from collsched.topology import Edge, Topology, line, ring, star
from collsched.workflow import synthesize
from test_model_digests import ASTAR, ONE_SHOT, _astar_rounds


def _scalars(m, *specs):
    """One single-key family per (name, kind, ub) spec; their columns."""
    first = m.columns(len(specs))
    for i, (name, kind, ub) in enumerate(specs):
        m.add_family(name, [Axis([0])], np.array([first + i]), kind, ub=ub)
    return range(first, first + len(specs))


def test_trivial_binary_max(solver_opts):
    m = Model()
    [x] = _scalars(m, ("x", BINARY, INF))
    m.add_rows([-INF], [1.0], (0, x, 1.0))
    m.add_objective(x, 1.0)
    sol = solve(m, solver_opts)
    assert sol.status == OPTIMAL
    assert sol.x[x] == pytest.approx(1.0)
    assert sol.objective == pytest.approx(1.0)


def test_contradiction_is_infeasible(solver_opts):
    m = Model()
    [x] = _scalars(m, ("x", CONTINUOUS, INF))
    m.add_rows([1.0, -INF], [INF, 0.0], ([0, 1], x, 1.0))
    sol = solve(m, solver_opts)
    assert sol.status == INFEASIBLE
    assert sol.x is None


def test_integrality_of_integer_vars(solver_opts):
    m = Model()
    x, y = _scalars(m, ("x", BINARY, INF), ("y", CONTINUOUS, 10.0))
    m.add_rows([-INF], [7.5], (0, [x, y], [3.0, 2.0]))
    m.add_objective([x, y], [5.0, 1.0])
    sol = solve(m, solver_opts)
    assert abs(sol.x[x] - round(sol.x[x])) < 1e-6


def test_star3_objective_matches_hand_sum(star3, solver_opts):
    # the 2-epoch optimum delivers all three copies in epoch 1: 3 * 1/2
    t, d = star3
    sol = solve(build_general_model(t, d, EpochConfig(1.0, 2), ModelOptions()), solver_opts)
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(1.5)


def test_min_feasible_horizon_star3(star3, solver_opts):
    t, d = star3
    builder = lambda k: build_general_model(t, d, EpochConfig(1.0, k), ModelOptions())
    k, sol, _ = min_feasible_horizon(builder, 1, 8, solver_opts)
    assert k == 2 and sol.feasible


def test_min_feasible_horizon_no_copy(star3, solver_opts):
    t, d = star3
    opts = ModelOptions(switch_mode="no-copy")
    builder = lambda k: build_general_model(t, d, EpochConfig(1.0, k), opts)
    k, _, _ = min_feasible_horizon(builder, 1, 8, solver_opts)
    assert k == 4


def test_horizon_range_exhausted(star3, solver_opts):
    t, d = star3
    builder = lambda k: build_general_model(t, d, EpochConfig(1.0, k), ModelOptions())
    with pytest.raises(HorizonInfeasibleError):
        min_feasible_horizon(builder, 1, 1, solver_opts)


@pytest.mark.parametrize("k_lo, k_hi", [(0, 3), (3, 2)])
def test_bad_horizon_range_is_refused(k_lo, k_hi):
    with pytest.raises(ValidationError, match=rf"bad horizon range \[{k_lo}, {k_hi}\]"):
        min_feasible_horizon(lambda k: _reads_model(k, 1, 0), k_lo, k_hi)


def test_probe_without_an_incumbent_stops_the_search(monkeypatch):
    monkeypatch.setattr(solver, "solve", lambda m, opts: solver.Solution(TIMEOUT, m))
    with pytest.raises(SolverTimeoutError, match="no incumbent within 5.0s at horizon K=2"):
        min_feasible_horizon(lambda k: _reads_model(k, 1, 0), 1, 4, SolverOptions(time_limit=5.0))


def test_reads_that_never_reach_the_demand_are_refused():
    m = Model()
    reads = m.columns(3) + np.arange(3)[None, :]
    m.add_family("R", [Axis(["d"]), Axis(range(3))], reads, ub=1.0)
    m.meta["reads"] = "R"
    with pytest.raises(ConservationError, match="reads of 'd' never reach the demand"):
        completion_epoch(solver.Solution(OPTIMAL, m, np.full(3, 0.5)))


def _per_epoch_reads(values) -> solver.Solution:
    """A solved model whose one demand, of 1, is read per epoch as `values`."""
    m = Model()
    reads = m.columns(len(values)) + np.arange(len(values))[None, :]
    m.add_family("Rd", [Axis(["d"]), Axis(range(len(values)))], reads, ub=1.0)
    m.meta.update({"reads": "Rd", "per_epoch_reads": True})
    return solver.Solution(OPTIMAL, m, np.array(values, dtype=float))


@pytest.mark.parametrize("values, epoch", [
    ([0.0, 0.0, 0.5, 0.0, 0.5, 0.0], 4),
    ([0.0, 0.5, 0.5 - TOL / 2, 0.0], 2),
], ids=["split", "within-tol"])
def test_per_epoch_reads_complete_once_their_sum_meets_the_demand(values, epoch):
    assert completion_epoch(_per_epoch_reads(values)) == epoch


def test_per_epoch_reads_that_never_reach_the_demand_are_refused():
    with pytest.raises(ConservationError, match="reads of 'd' never reach the demand"):
        completion_epoch(_per_epoch_reads([0.25, 0.25, 0.25]))


def test_feasibility_monotone_in_horizon(star3, solver_opts):
    t, d = star3
    feasible = []
    for k in range(1, 7):
        sol = solve(build_general_model(t, d, EpochConfig(1.0, k), ModelOptions()),
                    solver_opts)
        feasible.append(sol.feasible)
    assert feasible == sorted(feasible)  # False... then True...


def test_gap_honesty(star3, solver_opts):
    t, d = star3
    opts = SolverOptions(time_limit=60, relative_gap=0.5)
    sol = solve(build_general_model(t, d, EpochConfig(1.0, 4), ModelOptions()), opts)
    assert sol.feasible
    assert sol.achieved_gap <= 0.5 + 1e-9


def test_solver_options_validation():
    with pytest.raises(ValidationError):
        SolverOptions(relative_gap=1.0)
    with pytest.raises(ValidationError):
        SolverOptions(time_limit=0.0)
    with pytest.raises(ValidationError):
        SolverOptions(time_limit=float("nan"))
    assert SolverOptions(time_limit=INF).time_limit == INF


def test_synthesis_refuses_a_nan_time_limit():
    t = ring(4)
    with pytest.raises(ValidationError, match="time_limit"):
        synthesize(t, generate_demand("alltoall", t), "milp", time_limit=float("nan"))


def test_lp_text_export(star3):
    t, d = star3
    m = build_general_model(t, d, EpochConfig(1.0, 2), ModelOptions())
    text = m.to_lp_text()
    assert text.startswith("Maximize")
    assert "Subject To" in text and "Binaries" in text and text.rstrip().endswith("End")


def test_deterministic_resolve(star3, solver_opts):
    t, d = star3
    runs = []
    for _ in range(2):
        sol = solve(build_general_model(t, d, EpochConfig(1.0, 3), ModelOptions()),
                    solver_opts)
        runs.append(sorted(sol.family_values("F", 0.5)))
    assert runs[0] == runs[1]


def _reads_model(k: int, k_star: int, completion: int) -> Model:
    """One demand's cumulative reads over k epochs: infeasible below k_star,
    else complete from epoch `completion` on."""
    m = Model()
    reads = m.columns(k) + np.arange(k)[None, :]
    m.add_family("R", [Axis([0]), Axis(range(k))], reads, ub=1.0)
    m.meta["reads"] = "R"
    m.fix(reads[0, :completion], 0.0)
    m.fix(reads[0, completion:], 1.0)
    if k < k_star:
        m.add_rows([2.0], [INF], (0, reads[0, -1], 1.0))
    m.add_objective(reads, 1.0 / (np.arange(k) + 1))
    return m


def _bisection_probes(k_lo: int, k_hi: int, k_star: int) -> int:
    """Probes plain bisection makes on [k_lo, k_hi] for threshold k_star."""
    probes, lo, hi = 0, k_lo, k_hi
    while lo <= hi:
        mid = (lo + hi) // 2
        probes += 1
        lo, hi = (lo, mid - 1) if mid >= k_star else (mid + 1, hi)
    return probes


@settings(max_examples=60, deadline=None)
@given(k_star=st.integers(1, 30), below=st.integers(0, 30), above=st.integers(0, 30),
       data=st.data())
def test_search_ends_at_a_probe_completion(k_star, below, above, data):
    # Each feasible probe completes at any epoch in [K* - 1, K - 1]: the
    # search still returns K* with a solution complete at K* - 1, has proved
    # K* - 1 infeasible, and never probes more than plain bisection.
    k_lo, k_hi = max(1, k_star - below), k_star + above
    probed = {}

    def builder(k):
        completion = data.draw(st.integers(k_star - 1, k - 1)) if k >= k_star else 0
        probed[k] = k >= k_star
        return _reads_model(k, k_star, completion)

    k, sol, seconds = min_feasible_horizon(builder, k_lo, k_hi)
    assert k == k_star
    assert completion_epoch(sol) == k_star - 1
    assert k_star == k_lo or probed.get(k_star - 1) is False
    assert len(probed) <= _bisection_probes(k_lo, k_hi, k_star)
    assert seconds >= 0


def test_search_skips_horizons_a_probe_proved_feasible():
    # The dgx2 alltoall LP's shape: K* = 18 in [1, 31], every feasible probe
    # completing at epoch 17. Plain bisection solves 16, 24, 20, 18, 17.
    probed = []

    def builder(k):
        probed.append(k)
        return _reads_model(k, 18, 17)

    k, _, _ = min_feasible_horizon(builder, 1, 31)
    assert k == 18 and probed == [16, 24, 17]


def _check_minimal(builder, k_hi, solver_opts):
    k, sol, _ = min_feasible_horizon(builder, 1, k_hi, solver_opts)
    assert completion_epoch(sol) == k - 1
    assert solve(builder(k), solver_opts).status == OPTIMAL
    if k > 1:
        assert solve(builder(k - 1), solver_opts).status == INFEASIBLE
    return k, sol


@pytest.mark.parametrize("t, longer_probe", [(ring(6), False), (line(4), False), (ring(5), True)],
                         ids=["ring6", "line4", "ring5"])
def test_lp_search_returns_an_optimum_of_the_minimal_horizon(t, longer_probe, solver_opts):
    # On ring(6) and line(4) alltoall a long horizon's optimum completes
    # later than K* - 1, so the search solves K* itself; on ring(5) the
    # probe at K = 8 completes at K* - 1 = 2 and is returned.
    d = generate_demand("alltoall", t)
    builder = lambda k: build_lp_model(t, d, EpochConfig(1.0, k), ModelOptions())
    k, sol = _check_minimal(builder, 16, solver_opts)
    probe_k = sol.model.meta["cfg"].K
    assert (probe_k > k) == longer_probe
    # Past K*, each epoch rewards every complete unit of demand by 1/(k+1).
    constant = len(d.entries) * sum(1.0 / (e + 1) for e in range(k, probe_k))
    own = solve(builder(k), solver_opts).objective
    assert sol.objective - constant == pytest.approx(own, rel=1e-9)


@pytest.mark.parametrize("mode", ["copy", "no-copy", "hyper-edge"])
def test_milp_search_is_minimal_on_star3(star3, mode, solver_opts):
    t, d = star3
    opts = ModelOptions(switch_mode=mode)
    _check_minimal(lambda k: build_general_model(t, d, EpochConfig(1.0, k), opts), 8, solver_opts)


def test_milp_search_is_minimal_on_diamond(diamond_multicast, solver_opts):
    t, d = diamond_multicast
    _check_minimal(lambda k: build_general_model(t, d, EpochConfig(1.0, k), ModelOptions()),
                   8, solver_opts)


# -- solver.milp against scipy.optimize.milp ---------------------------------
#
# `solver.milp` hands the model to scipy's bundled HiGHS binding directly.
# scipy's own `milp` wrapper over the same HiGHS is the reference: on the same
# input both must run the same solve.
_HIGHS = solver.milp


def test_private_binding_is_pinned():
    # A scipy that moves or renames any of these fails here first.
    for name in ("passModel", "setOptionValue", "run", "getModelStatus", "getInfo",
                 "getSolution"):
        assert callable(getattr(_core._Highs, name, None)), name
    for name in ("objective_function_value", "mip_gap", "mip_node_count"):
        assert hasattr(_core.HighsInfo, name), name
    assert hasattr(_core.HighsSolution, "col_value")
    for enum, members in (
            (_core.HighsModelStatus, ("kOptimal", "kInfeasible", "kTimeLimit",
                                      "kIterationLimit", "kSolutionLimit")),
            (_core.HighsStatus, ("kOk", "kError")),
            (_core.MatrixFormat, ("kColwise",)), (_core.ObjSense, ("kMinimize",))):
        assert set(members) <= set(enum.__members__), enum
    assert _core.kHighsInf == np.inf


# -- HiGHS and the sparse kernels without scipy.optimize or scipy.sparse ----
#
# `extensions.load` loads scipy's HiGHS binding and sparse kernels without
# importing `scipy.optimize` or `scipy.sparse`. A fresh interpreter shows what
# a process pays for: these run in subprocesses.

def _fresh(code: str) -> str:
    """Last line a fresh interpreter prints running `code` with the package's
    sources first on its path."""
    src = str(Path(solver.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return proc.stdout.strip().splitlines()[-1]


def test_synthesis_never_imports_scipy_optimize():
    assert _fresh(
        "import sys\n"
        "import collsched, collsched.cli\n"
        "from collsched import generate_demand, synthesize\n"
        "from collsched.topology import ring\n"
        "t = ring(4)\n"
        "d = generate_demand('alltoall', t)\n"
        "for method, kwargs in (('milp', {}), ('lp', {'search_horizon': True}), ('astar', {})):\n"
        "    assert synthesize(t, d, method, **kwargs).report.ok\n"
        "print([m for m in ('scipy.optimize', 'scipy.linalg', 'scipy.special',\n"
        "                   'scipy.sparse', 'numpy.f2py', 'numpy.testing', 'numpy.ma')\n"
        "       if m in sys.modules])\n") == "[]"


def test_binding_loaded_by_scipy_optimize_is_reused():
    assert _fresh(
        "import scipy.optimize\n"
        "from collsched import solver\n"
        "print(solver._Highs is scipy.optimize._highspy._core._Highs)\n") == "True"


def test_scipy_optimize_reuses_the_binding_the_package_loaded():
    assert _fresh(
        "from collsched import solver\n"
        "from scipy.optimize._highspy import _core\n"
        "from scipy.optimize import Bounds, LinearConstraint, milp\n"
        "res = milp([-1.0, -1.0], integrality=[1, 1], bounds=Bounds(0, 3),\n"
        "           constraints=LinearConstraint([[1.0, 2.0]], -float('inf'), 4.5))\n"
        "print(_core is solver._core, res.success, res.fun)\n") == "True True -3.0"


def test_kernels_loaded_by_scipy_sparse_are_reused():
    assert _fresh(
        "import sys\n"
        "import scipy.sparse\n"
        "from collsched import model\n"
        "print(model._sparsetools is sys.modules['scipy.sparse._sparsetools'])\n") == "True"


def test_scipy_sparse_reuses_the_kernels_the_package_loaded():
    assert _fresh(
        "from collsched import model\n"
        "import scipy.sparse as sp\n"
        "from scipy.sparse import _compressed\n"
        "a = sp.csc_matrix(([1.0, 2.0, 3.0], ([0, 1, 0], [1, 0, 1])), shape=(2, 2)).tocsr()\n"
        "print(_compressed.csr_sort_indices is model._sparsetools.csr_sort_indices,\n"
        "      a.toarray().tolist())\n") == "True [[0.0, 4.0], [2.0, 0.0]]"


def test_missing_binding_names_the_scipy_it_needs(monkeypatch, tmp_path):
    import scipy
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    for name in ("scipy.optimize._highspy._core", "scipy.sparse._sparsetools"):
        monkeypatch.delitem(sys.modules, name)
        with pytest.raises(ImportError, match=r"scipy>=1\.17"):
            extensions.load(name)


def _reference_status(res, relative_gap: float = 0.0) -> str:
    """The package status `solve` gave a `scipy.optimize.milp` result (integer
    codes: 0 optimal, 1 time or iteration limit, 2 infeasible, 4 other)."""
    if res.status == 2:
        return INFEASIBLE
    if res.x is None:
        if res.status != 1:
            raise SolverBackendError(res.message)
        return TIMEOUT
    gap = res.mip_gap or 0.0
    if res.status == 0 and gap <= max(relative_gap, 1e-9):
        return OPTIMAL
    return FEASIBLE_GAP


def _arrays(c, lb, ub, a, row_lb, row_ub) -> dict:
    """A model as `solver.milp` takes it: float arrays and a CSC matrix."""
    a = csc_matrix(np.asarray(a, dtype=float))
    c = np.asarray(c, dtype=float)
    lb, ub = (np.broadcast_to(np.asarray(v, dtype=float), c.shape) for v in (lb, ub))
    row_lb, row_ub = (np.broadcast_to(np.asarray(v, dtype=float), a.shape[:1])
                      for v in (row_lb, row_ub))
    return dict(c=c, lb=lb, ub=ub, a=a, row_lb=row_lb, row_ub=row_ub)


def _both(c, integrality, lb, ub, a, row_lb, row_ub, **options):
    """(scipy's result, ours) for one model: scipy gets `Bounds` and a
    `LinearConstraint` (None for a model without rows), ours the arrays.
    `a` is any compressed-column matrix, a `model.CSC` included; scipy gets
    a `csc_matrix` of its arrays. scipy warns about HiGHS options it passes
    through unvetted."""
    a_ref = csc_matrix((a.data, a.indices, a.indptr), shape=a.shape)
    rows = LinearConstraint(a_ref, row_lb, row_ub) if a.shape[0] else None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ref = scipy_milp(c, integrality=integrality, bounds=Bounds(lb, ub), constraints=rows,
                         options=dict(options))
    return ref, _HIGHS(c, integrality=integrality, lb=lb, ub=ub, a=a, row_lb=row_lb,
                       row_ub=row_ub, options=dict(options))


def _same_solve(ref, ours) -> None:
    assert solver._outcome(ours, 0.0) == _reference_status(ref)
    if ref.x is None:
        assert ours["x"] is None
    else:
        assert ours["x"].dtype == ref.x.dtype and ours["x"].tobytes() == ref.x.tobytes()
    for key in ("fun", "mip_gap", "mip_node_count"):
        assert ours[key] == ref[key], key


def _knapsacks(n: int, m: int, seed: int = 0):
    """max value s.t. m random knapsack rows at half their weight; x in [0, 1]."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, 20, (m, n)).astype(float)
    c = -rng.integers(1, 30, n).astype(float)
    return _arrays(c, 0.0, 1.0, a, -np.inf, a.sum(axis=1) / 2 + 0.5)


@pytest.mark.parametrize("integral", [False, True], ids=["lp", "milp"])
def test_milp_solves_as_scipy_does(integral):
    model = _knapsacks(20, 8)
    ref, ours = _both(integrality=np.full(20, int(integral)), **model, time_limit=60.0)
    assert ours["status"] == _core.HighsModelStatus.kOptimal
    if integral:
        assert ours["mip_node_count"] > 0  # branching ran
    _same_solve(ref, ours)


@pytest.mark.parametrize("integral", [False, True], ids=["lp", "milp"])
def test_infeasible_model_as_scipy(integral):
    model = _arrays([1.0, 1.0], 0.0, 1.0, [[1.0, 1.0]], 3.0, np.inf)
    ref, ours = _both(integrality=np.full(2, int(integral)), **model)
    _same_solve(ref, ours)
    assert solver._outcome(ours, 0.0) == INFEASIBLE


def test_model_without_rows_as_scipy():
    model = _arrays([-1.0, 2.0, -3.0], [0, -1, 0], [4, 1, 2.5], np.zeros((0, 3)), [], [])
    ref, ours = _both(integrality=np.array([1, 0, 0]), **model)
    _same_solve(ref, ours)
    assert ours["x"].tolist() == [4.0, -1.0, 2.5]


@pytest.mark.parametrize("integral", [False, True], ids=["lp", "milp"])
def test_unbounded_model_raises_as_scipy(integral):
    model = _arrays([-1.0, 0.0], 0.0, np.inf, [[1.0, -1.0]], -np.inf, 1.0)
    ref, ours = _both(integrality=np.full(2, int(integral)), **model)
    for res, outcome in ((ref, _reference_status), (ours, solver._outcome)):
        with pytest.raises(SolverBackendError):
            outcome(res, 0.0)


@pytest.mark.parametrize("integral", [False, True], ids=["lp", "milp"])
def test_time_limit_without_incumbent_as_scipy(integral):
    model = _knapsacks(100, 50)
    ref, ours = _both(integrality=np.full(100, int(integral)), **model, time_limit=1e-9)
    _same_solve(ref, ours)
    assert ours["status"] == _core.HighsModelStatus.kTimeLimit
    assert solver._outcome(ours, 0.0) == TIMEOUT


def test_time_limit_with_incumbent_as_scipy():
    # Where a wall-clock limit cuts branch and bound is not reproducible,
    # not even between two runs of scipy's own `milp`, so the incumbent,
    # its gap and the node count are checked for what they are, not bitwise.
    model = _knapsacks(100, 50)
    c, a, row_ub = model["c"], model["a"], model["row_ub"]
    ref, ours = _both(integrality=np.ones(100), **model, time_limit=0.2)
    assert ours["status"] == _core.HighsModelStatus.kTimeLimit and ref.status == 1
    assert solver._outcome(ours, 0.0) == _reference_status(ref) == FEASIBLE_GAP
    for x, fun, gap in ((ref.x, ref.fun, ref.mip_gap),
                        (ours["x"], ours["fun"], ours["mip_gap"])):
        assert np.allclose(x, np.round(x), atol=1e-6) and np.all(a @ x <= row_ub + 1e-6)
        assert fun == pytest.approx(c @ x) and gap > 0
    assert ours["mip_node_count"] >= 0


def test_first_incumbent_stop_as_scipy():
    # The stop the estimator asks for is deterministic: compared bitwise.
    ref, ours = _both(integrality=np.ones(30), **_knapsacks(30, 10), time_limit=60.0,
                      mip_max_improving_sols=1)
    _same_solve(ref, ours)
    assert ours["status"] == _core.HighsModelStatus.kSolutionLimit
    assert solver._outcome(ours, 0.0) == FEASIBLE_GAP


@pytest.mark.parametrize("build, moved", [
    (lambda t, d: build_general_model(t, d, EpochConfig(1.0, 3), ModelOptions()), True),
    (lambda t, d: build_lp_model(t, d, EpochConfig(1.0, 3), ModelOptions()), False),
], ids=["milp", "lp"])
def test_solve_hands_scipy_the_same_model(build, moved, monkeypatch):
    t = ring(4)
    m = build(t, generate_demand("alltoall", t))
    pairs = []

    def both(c, *, integrality, lb, ub, a, row_lb, row_ub, options, offset):
        # scipy has no objective offset: compared without it, then run with it.
        ref, ours = _both(c, integrality, lb, ub, a, row_lb, row_ub, **options)
        shifted = _HIGHS(c, integrality=integrality, lb=lb, ub=ub, a=a, row_lb=row_lb,
                         row_ub=row_ub, options=options, offset=offset)
        pairs.append((ref, ours, shifted, offset))
        return shifted

    monkeypatch.setattr(solver, "milp", both)
    sol = solve(m)
    assert sol.status == OPTIMAL
    [(ref, ours, shifted, offset)] = pairs
    _same_solve(ref, ours)
    # The offset moves the objective and nothing else. No fixed column of
    # the LP carries objective weight, so its offset is 0.
    assert offset != 0 if moved else offset == 0.0
    assert shifted["x"].tobytes() == ours["x"].tobytes()
    assert shifted["fun"] == pytest.approx(ref.fun + offset, rel=1e-12)
    assert sol.objective == -shifted["fun"]


def test_refused_option_raises():
    with pytest.raises(SolverBackendError, match="no_such_option"):
        solver.milp(np.ones(1), integrality=np.zeros(1), lb=np.zeros(1), ub=np.ones(1),
                    a=csc_matrix((0, 1)), row_lb=np.zeros(0), row_ub=np.zeros(0),
                    options={"no_such_option": 1})



@pytest.mark.parametrize("build, ipm", [
    (lambda t, d: build_general_model(t, d, EpochConfig(1.0, 3), ModelOptions()), False),
    (lambda t, d: build_lp_model(t, d, EpochConfig(1.0, 3), ModelOptions()), True),
], ids=["milp", "lp"])
def test_lp_alone_goes_to_the_interior_point_solver(build, ipm, monkeypatch):
    t = ring(4)
    m = build(t, generate_demand("alltoall", t))
    assert m.binary.any() != ipm
    seen = []

    def recorded(c, *, integrality, lb, ub, a, row_lb, row_ub, options, offset):
        seen.append(dict(options))
        return _HIGHS(c, integrality=integrality, lb=lb, ub=ub, a=a, row_lb=row_lb,
                      row_ub=row_ub, options=options, offset=offset)

    monkeypatch.setattr(solver, "milp", recorded)
    assert solve(m).status == OPTIMAL
    [options] = seen
    assert ("solver" in options) == ipm
    assert options.get("solver", "ipm") == "ipm"


def test_vertex_solve_runs_dual_simplex_without_presolve(monkeypatch):
    t = ring(4)
    d = generate_demand("alltoall", t)
    m = build_lp_model(t, d, EpochConfig(1.0, 3), ModelOptions())
    seen = []

    def recorded(c, *, integrality, lb, ub, a, row_lb, row_ub, options, offset):
        seen.append(dict(options))
        return _HIGHS(c, integrality=integrality, lb=lb, ub=ub, a=a, row_lb=row_lb,
                      row_ub=row_ub, options=options, offset=offset)

    monkeypatch.setattr(solver, "milp", recorded)
    sol = solve(m, SolverOptions(vertex=True))
    assert sol.status == OPTIMAL
    assert sol.objective == pytest.approx(solve(m).objective, rel=1e-9)
    assert (seen[0]["solver"], seen[0]["presolve"]) == ("simplex", "off")
    assert seen[1]["solver"] == "ipm" and "presolve" not in seen[1]
    with pytest.raises(ValidationError, match="no binary free column"):
        solve(build_general_model(t, d, EpochConfig(1.0, 3), ModelOptions()),
              SolverOptions(vertex=True))


@pytest.mark.parametrize("run, jump", [
    (lambda t, d: astar_solve(t, d, 1.0, 2), False),
    (lambda t, d: solve(build_general_model(t, d, EpochConfig(1.0, 3), ModelOptions())), False),
    (lambda t, d: solve(build_lp_model(t, d, EpochConfig(1.0, 3), ModelOptions())), False),
    (lambda t, d: estimate_epoch_upper_bound(t, d, 1.0), True),
], ids=["astar-round", "milp", "lp", "first-incumbent"])
def test_feasibility_jump_runs_only_for_a_first_incumbent(run, jump, monkeypatch):
    # Feasibility jump only looks for a first feasible point, so only a solve
    # that stops at its first incumbent runs it.
    t = ring(4)
    seen = []

    def recorded(c, *, integrality, lb, ub, a, row_lb, row_ub, options, offset):
        seen.append(options["mip_heuristic_run_feasibility_jump"])
        return _HIGHS(c, integrality=integrality, lb=lb, ub=ub, a=a, row_lb=row_lb,
                      row_ub=row_ub, options=options, offset=offset)

    monkeypatch.setattr(solver, "milp", recorded)
    run(t, generate_demand("alltoall", t))
    assert seen and set(seen) == {jump}


def test_interior_point_solve_repeats_bit_for_bit():
    # The benchmark checks every call's schedule against the first call's.
    t = ring(6)
    m = build_lp_model(t, generate_demand("alltoall", t), EpochConfig(1.0, 6), ModelOptions())
    first, second = solve(m), solve(m)
    assert first.status == second.status == OPTIMAL
    assert first.x.tobytes() == second.x.tobytes()


def test_undecided_interior_point_run_falls_back_to_simplex(monkeypatch):
    t = ring(4)
    m = build_lp_model(t, generate_demand("alltoall", t), EpochConfig(1.0, 3), ModelOptions())
    seen = []

    def undecided_ipm(c, *, integrality, lb, ub, a, row_lb, row_ub, options, offset):
        seen.append(dict(options))
        if options["solver"] == "ipm":
            return {"status": _core.HighsModelStatus.kSolveError, "x": None, "fun": None,
                    "mip_gap": None, "mip_node_count": None}
        return _HIGHS(c, integrality=integrality, lb=lb, ub=ub, a=a, row_lb=row_lb,
                      row_ub=row_ub, options=options, offset=offset)

    monkeypatch.setattr(solver, "milp", undecided_ipm)
    assert solve(m, SolverOptions(time_limit=30.0)).status == OPTIMAL
    assert [o["solver"] for o in seen] == ["ipm", "simplex"]
    assert 0 < seen[1]["time_limit"] <= 30.0


def test_infeasible_lp_the_interior_point_solver_leaves_undecided(monkeypatch):
    # On its free columns, HiGHS 1.12's interior-point solver ends this
    # settled LP at K = 6 in kSolveError; simplex proves it infeasible.
    # K = 7 is the smallest feasible horizon. (Found by searching random
    # small LPs: 3-node lines with random capacities, latencies and
    # overrides, K = 1 up to the first feasible horizon; about two
    # interior-point runs in a thousand end so.)
    t = Topology((0, 1, 2), frozenset(), (
        Edge(0, 1, 2.0, 0.5), Edge(1, 0, 1 / 3, 0.5), Edge(1, 2, 2.0, 1.0), Edge(2, 1, 3.0, 1.0)),
        {(2, 1, 2): 4.0, (0, 1, 3): 4.0, (1, 0, 2): 0.5})
    d = generate_demand("alltoall", t)
    runs = []

    def recorded(c, **kwargs):
        res = _HIGHS(c, **kwargs)
        runs.append((kwargs["options"]["solver"], res["status"]))
        return res

    monkeypatch.setattr(solver, "milp", recorded)
    statuses = [solve(build_lp_model(t, d, EpochConfig(1.0, K), ModelOptions())).status
                for K in (6, 7)]
    assert statuses == [INFEASIBLE, OPTIMAL]
    (first, undecided), (second, proved), (third, _) = runs
    assert (first, second, third) == ("ipm", "simplex", "ipm")
    assert undecided not in solver._IPM_DECIDED
    assert proved == _core.HighsModelStatus.kInfeasible


# -- solve hands HiGHS only the columns that can move -------------------------


def _never_highs(*args, **kwargs):
    raise AssertionError("HiGHS was called")


@pytest.mark.parametrize("row_lb, row_ub, status", [
    (2.5, 2.5, OPTIMAL), (2.5 + 2e-6, INF, OPTIMAL), (-INF, 2.5 - 2e-6, OPTIMAL),
    (2.5 + 1e-5, INF, INFEASIBLE), (-INF, 2.4, INFEASIBLE)],
    ids=["holds", "lb-within-tol", "ub-within-tol", "lb-broken", "ub-broken"])
def test_model_with_no_free_column_never_reaches_highs(row_lb, row_ub, status, monkeypatch):
    monkeypatch.setattr(solver, "milp", _never_highs)
    m = Model()
    x, y = _scalars(m, ("x", CONTINUOUS, INF), ("y", BINARY, INF))
    m.fix([x, y], [0.5, 1.0])
    m.add_rows([row_lb], [row_ub], (0, [x, y], [1.0, 2.0]))
    m.add_objective([x, y], [3.0, 1.0])
    sol = solve(m)
    assert sol.status == status
    if status == OPTIMAL:
        assert sol.x.tolist() == [0.5, 1.0] and sol.objective == 2.5
    else:
        assert sol.x is None


@pytest.mark.parametrize("row_lb, status", [(0.0, OPTIMAL), (1.0, INFEASIBLE)])
def test_model_with_no_column_never_reaches_highs(row_lb, status, monkeypatch):
    monkeypatch.setattr(solver, "milp", _never_highs)
    m = Model()
    m.add_rows([row_lb], [2.0])  # an empty row: 0 must lie in its bounds
    sol = solve(m)
    assert sol.status == status
    if status == OPTIMAL:
        assert sol.x.shape == (0,) and sol.objective == 0.0


class _Handed(Exception):
    pass


def _highs_input(m: Model, monkeypatch) -> dict | None:
    """The arguments `solve` hands `solver.milp` for the model, HiGHS not
    run; None if `solve` never calls it."""
    handed = []

    def record(c, **kwargs):
        handed.append({"c": c, **kwargs})
        raise _Handed

    with monkeypatch.context() as patched:
        patched.setattr(solver, "milp", record)
        try:
            solve(m)
        except _Handed:
            pass
    return handed[0] if handed else None


def _reference_input(m: Model) -> dict:
    """What `solve` must hand HiGHS, read off the whole matrix: each fixed
    column's value moved into the row bounds and its objective share into
    the offset, then the free columns taken, in column order."""
    c = np.zeros(m.num_vars)
    np.subtract.at(c, *m.objective_arrays())
    free = m.lb != m.ub
    x = np.where(free, 0.0, m.lb)
    a = m.matrix()
    moved = a @ x
    row_lb, row_ub = m.row_bounds()
    cols = np.flatnonzero(free)
    start, count = a.indptr[cols], np.diff(a.indptr)[cols]
    indptr = np.concatenate([[0], np.cumsum(count)]).astype(a.indptr.dtype)
    take = np.repeat(start - indptr[:-1], count) + np.arange(indptr[-1])
    return {"c": c[free], "integrality": m.binary[free].astype(np.uint8), "lb": m.lb[free],
            "ub": m.ub[free], "indptr": indptr, "indices": a.indices[take],
            "data": a.data[take], "shape": (m.num_rows, len(cols)), "row_lb": row_lb - moved,
            "row_ub": row_ub - moved, "offset": float(c @ x)}


def _assert_highs_gets_the_reference(m: Model, monkeypatch) -> None:
    ref, got = _reference_input(m), _highs_input(m, monkeypatch)
    if got is None:
        assert ref["shape"][1] == 0
        return
    a = got.pop("a")
    got.update(indptr=a.indptr, indices=a.indices, data=a.data, shape=a.shape)
    assert got.pop("offset").hex() == ref.pop("offset").hex()
    assert got.pop("shape") == ref.pop("shape")
    for name, want in ref.items():
        assert got[name].dtype == want.dtype and got[name].tobytes() == want.tobytes(), name


@pytest.mark.parametrize("name", sorted(ONE_SHOT))
def test_highs_gets_the_free_columns_of_the_whole_matrix(name, monkeypatch):
    _assert_highs_gets_the_reference(ONE_SHOT[name](), monkeypatch)


@pytest.mark.parametrize("name, coll, mode", ASTAR)
def test_highs_gets_the_free_columns_of_each_astar_round(name, coll, mode, monkeypatch):
    for m in _astar_rounds(name, coll, mode)[0]:
        _assert_highs_gets_the_reference(m, monkeypatch)


def _full_model_solve(m, **options):
    """`solver.milp` on every column of the model, with the options `solve`
    uses, as `solve` called it before it handed over only the free columns."""
    c = np.zeros(m.num_vars)
    np.subtract.at(c, *m.objective_arrays())
    options = {"time_limit": 60.0, "mip_rel_gap": 0.0, **options}
    lp = not m.binary.any()
    row_lb, row_ub = m.row_bounds()
    run = lambda: _HIGHS(c, integrality=m.binary.astype(np.uint8), lb=m.lb, ub=m.ub,
                         a=m.matrix(), row_lb=row_lb, row_ub=row_ub, options=options)
    if lp:
        options["solver"] = "ipm"
    res = run()
    if lp and res["status"] not in solver._IPM_DECIDED:
        options["solver"] = "simplex"
        res = run()
    return res


def _star3():
    return star(3), Demand(frozenset({("s", 0, "d1"), ("s", 0, "d2"), ("s", 0, "d3")}), 1, 1)


def _exactness_models():
    """name -> zero-argument builder: the one-shot MILP, the LP, an A* round
    and the estimator's coarse model on ring, line and star inputs in each
    switch mode, at a horizon too short and one long enough; and the MILP
    and LP of a ring with a capacity override."""
    r4, l3 = ring(4), line(3)
    inputs = {"ring4": (r4, generate_demand("alltoall", r4)),
              "line3": (l3, generate_demand("allgather", l3)), "star3": _star3()}
    out = {}
    for name, (t, d) in inputs.items():
        for mode in ("copy", "no-copy", "hyper-edge"):
            opts = ModelOptions(switch_mode=mode)
            t_eff = model_topology(t, opts)[0]
            for K in (1, 4):
                cfg = EpochConfig(1.0, K)
                out[f"milp/{name}/{mode}/{K}"] = lambda t=t, d=d, c=cfg, o=opts: (
                    build_general_model(t, d, c, o))
                if mode != "hyper-edge":
                    out[f"lp/{name}/{mode}/{K}"] = lambda t=t, d=d, c=cfg, o=opts: (
                        build_lp_model(t, d, c, o))
            K = max(4, link_timing(t_eff, EpochConfig(1.0, 1)).max_delta)
            cfg = EpochConfig(1.0, K)
            out[f"astar/{name}/{mode}"] = lambda t=t, d=d, c=cfg, o=opts: build_round_model(
                round_template(t, d, c, o), initial_state(d))
            coarse = EpochConfig(default_candidates(t, d)[0] / 4, 4)
            out[f"coarse/{name}/{mode}"] = lambda t=t, d=d, c=coarse, o=opts: (
                build_time_expanded(t, d, c, o))
    t = Topology(r4.nodes, frozenset(), r4.edges, {(0, 1, 1): 2.0, (1, 2, 0): 0.5})
    d, cfg = generate_demand("alltoall", t), EpochConfig(1.0, 3)
    out["milp/ring4-override"] = lambda: build_general_model(t, d, cfg, ModelOptions())
    out["lp/ring4-override"] = lambda: build_lp_model(t, d, cfg, ModelOptions())
    return out


EXACTNESS = _exactness_models()


# Inputs whose model settles to every column fixed: `solve` decides them
# without HiGHS.
ALL_FIXED = {"milp/star3/copy/1", "milp/star3/no-copy/1"}


@pytest.mark.parametrize("name", sorted(EXACTNESS))
def test_free_columns_solve_as_the_whole_model(name, monkeypatch):
    m = EXACTNESS[name]()
    fixed = m.lb == m.ub
    assert fixed.any() and fixed.all() == (name in ALL_FIXED)
    ref = _full_model_solve(m)
    if fixed.all():
        monkeypatch.setattr(solver, "milp", _never_highs)
    sol = solve(m)
    assert sol.status == solver._outcome(ref, 0.0)
    if not sol.feasible:
        assert sol.x is None
        return
    assert sol.objective == pytest.approx(-ref["fun"], rel=1e-9, abs=1e-12)
    x = sol.x
    assert x[fixed].tobytes() == m.lb[fixed].tobytes()
    assert np.all((x >= m.lb - TOL) & (x <= m.ub + TOL))
    assert np.allclose(x[m.binary], np.round(x[m.binary]), atol=TOL)
    lb, ub = m.row_bounds()
    ax = m.matrix() @ x
    assert np.all(ax >= lb - TOL * np.maximum(1.0, np.abs(lb)))
    assert np.all(ax <= ub + TOL * np.maximum(1.0, np.abs(ub)))


def test_gap_is_the_whole_models_when_fixed_columns_carry_most_of_the_objective():
    # 60 binaries under 20 knapsack rows, plus one column fixed at 1 that
    # is worth 1000, most of the optimum. HiGHS stops at a 5% gap of the
    # whole objective; the same incumbent is over 10% short of the bound on
    # the free columns' share alone, so an objective without the fixed
    # column's share would not stop there.
    rng = np.random.default_rng(0)
    n, rows = 60, 20
    a = rng.integers(1, 20, (rows, n)).astype(float)
    m = Model()
    x = m.columns(n + 1) + np.arange(n + 1)
    m.add_family("x", [Axis(range(n + 1))], x, BINARY)
    m.fix(x[-1], 1.0)
    m.add_rows(np.full(rows, -INF), a.sum(axis=1) / 2 + 1.5,
               (np.arange(rows)[:, None], x[None, :], np.hstack([a, np.ones((rows, 1))])))
    m.add_objective(x, np.append(rng.integers(1, 30, n).astype(float), 1000.0))
    sol = solve(m, SolverOptions(relative_gap=0.05))
    ref = _full_model_solve(m, mip_rel_gap=0.05)
    assert sol.objective == -ref["fun"] and sol.achieved_gap == ref["mip_gap"]
    assert 0 < sol.achieved_gap <= 0.05
    assert sol.achieved_gap * sol.objective / (sol.objective - 1000.0) > 0.1
