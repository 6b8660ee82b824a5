"""The command-line front end, run in-process on a 4-node ring with an
all-to-all demand (12 one-chunk entries, finished by epoch 2)."""

import ast
import csv
import inspect
import json
from pathlib import Path

import pytest

from collsched import cli, solver, workflow
from collsched.errors import ConservationError, RoundLimitError, SolverTimeoutError


def _run(capsys, *argv):
    """Exit code and the JSON document printed on stdout (None if nothing)."""
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture
def ring4(tmp_path, capsys):
    topo, dem = tmp_path / "topology.json", tmp_path / "demand.json"
    assert _run(capsys, "gen-topology", "ring", "--nodes", 4, "--out", topo) == (0, None)
    assert _run(capsys, "gen-demand", "alltoall", "--topology", topo, "--out", dem) == (0, None)
    return topo, dem


def _solve(capsys, ring4, tmp_path, method, *extra):
    topo, dem = ring4
    out = tmp_path / f"{method}.json"
    code, summary = _run(capsys, "solve", "--topology", topo, "--demand", dem,
                         "--method", method, "--out", out, *extra)
    return code, summary, out


def test_generators(ring4, tmp_path, capsys):
    topo, dem = ring4
    t = json.loads(topo.read_text())
    assert len(t["nodes"]) == 4 and len(t["edges"]) == 8
    assert len(json.loads(dem.read_text())["entries"]) == 12
    merged = tmp_path / "merged.json"
    assert _run(capsys, "gen-demand", "alltoall", "--topology", topo,
                "--merge-with", dem, "--out", merged) == (0, None)
    doc = json.loads(merged.read_text())
    assert len(doc["entries"]) == 24 and doc["chunk_count"] == 24


def test_estimate_epochs(ring4, capsys):
    topo, dem = ring4
    code, doc = _run(capsys, "estimate-epochs", "--topology", topo, "--demand", dem)
    assert code == 0
    assert doc["tau_sec"] == 1.0
    assert doc["epochs_upper_bound"] >= 3  # epochs 0..2 are needed
    # Fractions split over both directions let the copy-free LP finish by
    # epoch 1, so its sound lower bound is 2, not 3.
    assert doc["lp_lower_bound"] == 2 < doc["epochs_upper_bound"]


@pytest.mark.parametrize("method", ["milp", "lp", "astar"])
def test_solve_writes_schedule_and_steps(ring4, tmp_path, capsys, method):
    steps = tmp_path / "steps.json"
    code, summary, out = _solve(capsys, ring4, tmp_path, method, "--steps-out", steps)
    assert code == 0
    assert summary["method"] == method and summary["violations"] == 0
    assert summary["completion_epoch"] == 2 and summary["events"] == 16
    sched = json.loads(out.read_text())
    assert len(sched["events"]) == 16 and sched["meta"]["method"] == method
    assert json.loads(steps.read_text())["steps"]


def test_solve_dumps_milp_model(ring4, tmp_path, capsys):
    model = tmp_path / "model.lp"
    code, _, _ = _solve(capsys, ring4, tmp_path, "milp", "--epochs", 3, "--dump-model", model)
    assert code == 0
    assert model.read_text().startswith("Maximize")


def test_search_dumps_the_model_it_returns(tmp_path, capsys, monkeypatch):
    # On a 5-node ring with alpha 0.5, alltoall of two chunks, the search
    # starts at the bound 6, which is infeasible; its next probe, K = 12,
    # completes at epoch 6, so it proves K* = 7 and is the model written.
    solved = []
    real = solver.solve

    def record(m, opts=None):
        sol = real(m, opts)
        solved.append((m, sol.feasible))
        return sol

    monkeypatch.setattr(solver, "solve", record)
    topo, dem, model = tmp_path / "ring5.json", tmp_path / "demand.json", tmp_path / "model.lp"
    _run(capsys, "gen-topology", "ring", "--nodes", 5, "--alpha", 0.5, "--out", topo)
    _run(capsys, "gen-demand", "alltoall", "--topology", topo, "--chunks", 2, "--out", dem)
    code, summary = _run(capsys, "solve", "--topology", topo, "--demand", dem, "--method", "lp",
                         "--search-horizon", "--dump-model", model)
    assert code == 0
    returned = [m for m, feasible in solved if feasible][-1]
    assert model.read_text() == returned.to_lp_text()
    assert returned.meta["cfg"].K > summary["epochs"] == 7


def test_simulate_and_compare(ring4, tmp_path, capsys):
    topo, dem = ring4
    _, _, milp = _solve(capsys, ring4, tmp_path, "milp", "--epochs", 3)
    _, _, lp = _solve(capsys, ring4, tmp_path, "lp", "--epochs", 3)
    table = tmp_path / "metrics.csv"
    code, report = _run(capsys, "simulate", "--topology", topo, "--demand", dem,
                        "--schedule", milp, "--csv", table)
    assert code == 0
    assert report["violations"] == [] and report["completion_epoch"] == 2
    rows = list(csv.reader(table.open()))
    assert rows[0][0] == "schedule" and rows[1][:3] == [str(milp), "0", "2"]
    code, doc = _run(capsys, "compare", "--topology", topo, "--demand", dem,
                     "--schedule", milp, "--against", lp)
    assert code == 0
    assert [r["schedule"] for r in doc["comparison"]] == [str(milp), str(lp)]
    assert all(r["violations"] == 0 for r in doc["comparison"])


@pytest.mark.parametrize("method, extra, code, kind", [
    ("milp", ["--epochs", 1], 2, "infeasible"),
    ("lp", ["--epochs", 3, "--switch", "hyper-edge"], 4, "validation"),
    ("astar", ["--dump-model", "model.lp"], 4, "validation"),
    ("astar", ["--epochs", 2], 4, "validation"),
    ("astar", ["--search-horizon"], 4, "validation"),
    ("milp", ["--time-limit", "nan"], 4, "validation"),
    ("milp", ["--buffer-limit", "nan"], 4, "validation"),
])
def test_solve_exit_codes(ring4, tmp_path, capsys, method, extra, code, kind):
    extra = [tmp_path / a if a == "model.lp" else a for a in extra]
    got, doc, _ = _solve(capsys, ring4, tmp_path, method, *extra)
    assert got == code
    assert doc["error"]["type"] == kind and doc["error"]["message"]


@pytest.mark.parametrize("exc, code, kind", [
    (RoundLimitError("no demand entry met in the 3 rounds to round 2: 1 unmet"), 2,
     "round-limit"),
    (SolverTimeoutError("no incumbent"), 3, "timeout"),
    (ConservationError("no delivery"), 1, "error"),
])
def test_solve_exit_codes_of_other_failures(ring4, tmp_path, capsys, monkeypatch,
                                            exc, code, kind):
    # No small input stalls, times out or breaks conservation, so `synthesize`
    # raises.
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "synthesize", fail)
    got, doc, _ = _solve(capsys, ring4, tmp_path, "milp")
    assert got == code
    assert doc["error"] == {"type": kind, "message": str(exc)}


@pytest.mark.parametrize("argv, gpus, switches", [
    (["star"], 4, 1), (["star", "--leaves", 5], 6, 1), (["ndv2", "--chassis", 2], 16, 1)])
def test_gen_topology_star_and_chassis(tmp_path, capsys, argv, gpus, switches):
    # A star is one source and its leaves around a switch; two ndv2 chassis
    # share one switch.
    out = tmp_path / "topology.json"
    assert _run(capsys, "gen-topology", *argv, "--out", out) == (0, None)
    nodes = json.loads(out.read_text())["nodes"]
    assert sum(not n["is_switch"] for n in nodes) == gpus
    assert sum(n["is_switch"] for n in nodes) == switches


def test_solve_refuses_an_oversized_horizon(tmp_path, capsys):
    # The default 1-byte chunks on dgx1 give an estimate of 140,019 epochs.
    topo, dem = tmp_path / "topology.json", tmp_path / "demand.json"
    assert _run(capsys, "gen-topology", "dgx1", "--out", topo) == (0, None)
    assert _run(capsys, "gen-demand", "alltoall", "--topology", topo, "--out", dem) == (0, None)
    code, doc = _run(capsys, "solve", "--topology", topo, "--demand", dem)
    assert code == 4
    assert doc["error"]["type"] == "validation" and "140019-epoch" in doc["error"]["message"]


def test_simulate_flags_an_incomplete_schedule(ring4, tmp_path, capsys):
    topo, dem = ring4
    _, _, out = _solve(capsys, ring4, tmp_path, "milp", "--epochs", 3)
    sched = json.loads(out.read_text())
    sched["events"] = sched["events"][1:]
    out.write_text(json.dumps(sched))
    code, report = _run(capsys, "simulate", "--topology", topo, "--demand", dem,
                        "--schedule", out)
    assert code == 4
    assert "unmet-demand" in {v["kind"] for v in report["violations"]}


def test_only_the_cli_reads_and_writes_files():
    # Every file has one format and one home, `cli._dump` and `cli._read`.
    # The one other file is the LP-format model that `synthesize` dumps.
    calls: dict = {}
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            f = node.func
            if isinstance(f, ast.Name):
                name = f.id
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                name = f"{f.value.id}.{f.attr}"
            else:
                continue
            if name in ("open", "json.dump", "json.load"):
                calls.setdefault(path.name, []).append(name)
    assert {"open", "json.load"} <= set(calls.pop("cli.py"))
    assert calls == {"workflow.py": ["open"]}


def test_solve_passes_every_synthesis_option():
    # `collsched solve` and `synthesize` offer one set of options: the call
    # in `cmd_solve` names every keyword-only parameter, and no other.
    tree = ast.parse(Path(cli.__file__).read_text())
    solve_fn = next(n for n in tree.body
                    if isinstance(n, ast.FunctionDef) and n.name == "cmd_solve")
    call = next(n for n in ast.walk(solve_fn) if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name) and n.func.id == "synthesize")
    keyword_only = {name for name, p in inspect.signature(workflow.synthesize).parameters.items()
                    if p.kind is inspect.Parameter.KEYWORD_ONLY}
    assert {kw.arg for kw in call.keywords} == keyword_only
