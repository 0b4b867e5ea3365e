"""How many scope problems CLI commands solve, counted in this process."""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

import teamsearch.cli as cli
import teamsearch.scopes as scopes_module

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture
def solved(monkeypatch):
    """Alliances solved, by mode: each equilibrium solve's, and each planner pass's."""
    seen = {"eq": [], "sp": []}
    real_eq, real_sp = scopes_module.equilibrium_scopes, scopes_module._planner_pass

    def solving(alliance, costs, bounds):
        seen["eq"].append(tuple(alliance))
        return real_eq(alliance, costs, bounds)

    def passing(problems, bounds):
        seen["sp"].extend(tuple(alliance) for alliance, _ in problems)
        return real_sp(problems, bounds)

    monkeypatch.setattr(scopes_module, "equilibrium_scopes", solving)
    monkeypatch.setattr(scopes_module, "_planner_pass", passing)
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


def test_greedy_chain_solves_its_suffixes_in_batched_passes(monkeypatch, tmp_path):
    # The greedy chain prefetches all n suffix alliances, so a sorted 40-agent
    # team makes ceil(40 / PASS_ROWS) planner passes, not one per suffix, and
    # prints what it prints when each suffix is solved alone.
    agents = [{"family": "scaled_exponential", "b": 1.0, "beta": 1.0 + 0.05 * i}
              for i in range(40)]
    path = tmp_path / "sorted40.json"
    path.write_text(json.dumps({"agents": agents, "scope_bounds": {"lo": 0.1, "hi": 10.0}}),
                    encoding="utf-8")
    argv = ["schedule", str(path), "--mode", "sp"]
    passes = [0]
    real = scopes_module._planner_pass

    def counting(problems, bounds):
        passes[0] += 1
        return real(problems, bounds)

    monkeypatch.setattr(scopes_module, "_planner_pass", counting)
    out = run(argv)
    assert passes[0] <= 3
    monkeypatch.setattr(scopes_module.ProfileCache, "prefetch", lambda *args: None)
    passes[0] = 0
    assert run(argv) == out
    assert passes[0] == 40


def test_scan_prefetches_once_per_row(monkeypatch, tmp_path):
    # The planner solves a row's suffix alliances for all its cells in one
    # prefetch, and builds each cell's chain from them; the CSV is the one
    # printed when every alliance is solved alone.
    doc = json.loads((SCENARIOS / "scan.json").read_text(encoding="utf-8"))
    doc["scan"]["steps"] = 12
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    calls = [0]
    real = scopes_module.ProfileCache.prefetch

    def counting(self, problems, bounds):
        calls[0] += 1
        return real(self, problems, bounds)

    monkeypatch.setattr(scopes_module.ProfileCache, "prefetch", counting)
    out = run(["scan", str(path)])
    assert calls[0] == 12
    monkeypatch.setattr(scopes_module.ProfileCache, "prefetch", lambda *args: None)
    assert run(["scan", str(path)]) == out
