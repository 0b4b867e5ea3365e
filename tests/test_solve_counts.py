"""How many scope problems CLI commands solve, counted in this process."""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import teamsearch.cli as cli
import teamsearch.scopes as scopes_module

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def solved(monkeypatch):
    """Alliances solved, by mode: each equilibrium and each planner solve's."""
    seen = {"eq": [], "sp": []}
    real_eq, real_sp = scopes_module.equilibrium_scopes, scopes_module.planner_scopes

    def solving(alliance, costs, bounds):
        seen["eq"].append(tuple(alliance))
        return real_eq(alliance, costs, bounds)

    def planning(alliance, costs, bounds, *memo):
        seen["sp"].append(tuple(alliance))
        return real_sp(alliance, costs, bounds, *memo)

    monkeypatch.setattr(scopes_module, "equilibrium_scopes", solving)
    monkeypatch.setattr(scopes_module, "planner_scopes", planning)
    return seen


def run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_solve_sp_solves_the_team_once(solved):
    out = run(["solve", str(SCENARIOS / "three_agents.json"), "--mode", "sp"])
    assert solved == {"eq": [], "sp": [(0, 1, 2)]}
    assert out == (GOLDEN / "three_agents.solve-sp.txt").read_text(encoding="utf-8")


def test_scan_solves_three_equilibria(solved, monkeypatch, tmp_path):
    # Every labelled cell has three distinct exponential specs of one rate, so
    # the scan-wide memo keyed by reply pattern needs one solve per suffix
    # alliance; the planner memo is per grid row.
    caches = []

    class Recording(scopes_module.ProfileCache):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            caches.append(self)

    monkeypatch.setattr(cli, "ProfileCache", Recording)
    monkeypatch.setattr("teamsearch.planner.ProfileCache", Recording)
    monkeypatch.setattr("teamsearch.equilibrium.ProfileCache", Recording)
    doc = json.loads((SCENARIOS / "scan.json").read_text(encoding="utf-8"))
    doc["scan"]["steps"] = 12
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rows = run(["scan", str(path)]).splitlines()[1:]
    assert len(rows) == 144 and sum(row.endswith(",,") for row in rows) < 144
    assert sorted(solved["eq"]) == [(0, 1, 2), (1, 2), (2,)]
    eq_caches = [c for c in caches if c.solve is scopes_module.equilibrium_scopes]
    assert len(eq_caches) == 1 and len(eq_caches[0]._profiles) == 3
    assert len(caches) == 1 + 12  # and one planner memo per grid row


def bare_planner_solves(monkeypatch):
    """Make every planner solve take a fresh memo of c' at the bounds."""
    real = scopes_module.planner_scopes
    monkeypatch.setattr(scopes_module, "planner_scopes",
                        lambda alliance, costs, bounds, *memo: real(alliance, costs, bounds))


def test_greedy_chain_solves_each_suffix_once(solved, monkeypatch, tmp_path):
    # A sorted 40-agent team solves each of its 40 suffix alliances once, and
    # prints what it prints when every suffix is solved by a bare solve.
    agents = [{"family": "scaled_exponential", "b": 1.0, "beta": 1.0 + 0.05 * i}
              for i in range(40)]
    path = tmp_path / "sorted40.json"
    path.write_text(json.dumps({"agents": agents, "scope_bounds": {"lo": 0.1, "hi": 10.0}}),
                    encoding="utf-8")
    argv = ["schedule", str(path), "--mode", "sp"]
    out = run(argv)
    assert sorted(solved["sp"]) == [tuple(range(j, 40)) for j in range(40)]
    assert out == (GOLDEN / "sorted40.schedule-sp.txt").read_text(encoding="utf-8")
    bare_planner_solves(monkeypatch)
    assert run(argv) == out


def test_scan_row_memo_solves_each_distinct_suffix_problem_once(monkeypatch, tmp_path):
    # Each grid row's chains share one planner cache, so its memo of c' at
    # the bounds sees each distinct (suffix alliance, member specs) problem
    # once; the CSV is the one printed when every solve is a bare one.
    doc = json.loads((SCENARIOS / "scan.json").read_text(encoding="utf-8"))
    doc["scan"]["steps"] = 12
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    problems = {}  # id of a row's memo -> the problems solved with it
    memos = []  # kept alive, so no id is reused
    real = scopes_module.planner_scopes

    def counting(alliance, costs, bounds, memo):
        memos.append(memo)
        problems.setdefault(id(memo), []).append(
            (tuple(alliance), tuple(costs[i] for i in alliance)))
        return real(alliance, costs, bounds, memo)

    monkeypatch.setattr(scopes_module, "planner_scopes", counting)
    out = run(["scan", str(path)])
    assert len(problems) == 11  # the beta3 = 2 row has no cell with beta3 > beta2 > 1
    for solved in problems.values():
        assert len(solved) == len(set(solved))
        assert {alliance for alliance, _ in solved} == {(0, 1, 2), (1, 2), (2,)}
    monkeypatch.undo()
    bare_planner_solves(monkeypatch)
    assert run(["scan", str(path)]) == out


@pytest.mark.parametrize("team", ["reversed", "shuffled", "repeated"])
def test_greedy_chain_of_any_agent_order_solves_each_suffix_once(solved, monkeypatch, tmp_path,
                                                                  team):
    # Listed in reverse, shuffled, or with each beta held by two agents (so
    # equal specs share memo entries), a 40-agent proportional team still
    # solves one nested chain of 40 suffix alliances, each once, and prints
    # what it prints when every suffix is solved by a bare solve.
    betas = [1.0 + 0.05 * i for i in range(40)]
    if team == "reversed":
        betas.reverse()
    elif team == "shuffled":
        betas = [betas[k] for k in np.random.default_rng(7).permutation(40)]
    else:
        betas = [1.0 + 0.1 * (i // 2) for i in range(40)]
    agents = [{"family": "scaled_exponential", "b": 1.0, "beta": beta} for beta in betas]
    path = tmp_path / f"{team}40.json"
    path.write_text(json.dumps({"agents": agents, "scope_bounds": {"lo": 0.1, "hi": 10.0}}),
                    encoding="utf-8")
    argv = ["schedule", str(path), "--mode", "sp"]
    out = run(argv)
    chain = sorted(solved["sp"], key=len)
    assert [len(alliance) for alliance in chain] == list(range(1, 41))
    assert all(set(small) < set(large) for small, large in zip(chain, chain[1:]))
    bare_planner_solves(monkeypatch)
    assert run(argv) == out


def test_scan_row_cells_share_their_unit_and_beta3_specs(monkeypatch):
    # Within a beta3 row, every cell's first agent is the template's first
    # spec (beta = 1) and its third agent one spec built for the row; only the
    # beta2 spec is built per cell.  The cascades get the chains' lists.
    import teamsearch.scan as scan_module
    from teamsearch.costs import ScaledExponential, ScopeBounds

    chained, cascaded = [], []
    real_chains, real_schedules = scan_module.optimal_chains, scan_module.exit_schedules
    monkeypatch.setattr(scan_module, "optimal_chains",
                        lambda lists, bounds: chained.append(lists) or real_chains(lists, bounds))
    monkeypatch.setattr(scan_module, "exit_schedules", lambda problems, bounds: real_schedules(
        ((team, cascaded.append(costs) or costs) for team, costs in problems), bounds))
    agents = [ScaledExponential(b=1.0) for _ in range(3)]
    spec = scan_module.ScanSpec(beta2_range=(0.6, 2.6), beta3_range=(1.0, 7.0), steps=12)
    cells = list(scan_module.scan_cells(agents, ScopeBounds(0.1, 10.0), spec))
    assert len(cells) == 144 and len(chained) == 12
    assert len(cascaded) == sum(map(len, chained)) > 12
    assert all(a is b for a, b in zip((c for row in chained for c in row), cascaded))
    for row in filter(None, chained):
        assert all(costs[0] is agents[0] and costs[2] is row[0][2] for costs in row)
        assert len({id(costs[1]) for costs in row}) == len(row)
