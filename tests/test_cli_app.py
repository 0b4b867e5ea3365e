"""End-to-end CLI tests (subprocess against the installed entry point)."""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "teamsearch", *args],
        capture_output=True, text=True, timeout=600,
    )


def write_scenario(tmp_path: Path, doc: dict, name: str = "scenario.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_doc(betas=(1.0, 1.2, 2.0)) -> dict:
    return {
        "agents": [
            {"family": "scaled_exponential", "b": 1.0, "beta": b} for b in betas
        ],
        "scope_bounds": {"lo": 0.1, "hi": 10.0},
    }


def parse_table(text: str):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    return list(csv.reader(lines)), comments


def test_validate_echoes_normalized_scenario():
    result = run_cli("validate", str(SCENARIOS / "three_agents.json"))
    assert result.returncode == 0
    echo = json.loads(result.stdout)
    assert echo["agents"][0] == {"family": "scaled_exponential", "b": 1.0, "beta": 1.0}
    assert echo["scope_bounds"] == {"lo": 0.1, "hi": 10.0}


def test_validate_rejects_bad_scenarios(tmp_path):
    bad_beta = base_doc(betas=(1.0, 0.5, 2.0))
    result = run_cli("validate", write_scenario(tmp_path, bad_beta, "a.json"))
    assert result.returncode == 2
    assert "error" in result.stderr

    no_bounds = base_doc()
    del no_bounds["scope_bounds"]
    assert run_cli("validate", write_scenario(tmp_path, no_bounds, "b.json")).returncode == 2

    unknown = base_doc()
    unknown["extra_field"] = 1
    assert run_cli("validate", write_scenario(tmp_path, unknown, "c.json")).returncode == 2

    unknown_nested = base_doc()
    unknown_nested["agents"][0]["slope"] = 2.0
    assert run_cli("validate", write_scenario(tmp_path, unknown_nested, "d.json")).returncode == 2

    (tmp_path / "e.json").write_text("{not json")
    assert run_cli("validate", str(tmp_path / "e.json")).returncode == 2
    assert run_cli("validate", str(tmp_path / "missing.json")).returncode == 2


def test_solve_equilibrium_table():
    result = run_cli("solve", str(SCENARIOS / "three_agents.json"), "--mode", "eq")
    assert result.returncode == 0
    rows, comments = parse_table(result.stdout)
    assert rows[0] == ["agent", "sigma", "cost_rate", "drawdown"]
    assert [r[0] for r in rows[1:]] == ["1", "2", "3"]
    for row in rows[1:]:
        assert float(row[1]) == pytest.approx(2.0 / 3.0, rel=1e-9)
    drawdowns = [float(r[3]) for r in rows[1:]]
    assert drawdowns[0] == pytest.approx(1.026834238, rel=1e-8)
    assert drawdowns[2] == pytest.approx(2.053668476, rel=1e-8)
    assert any("total_scope: 2" in c for c in comments)


def test_solve_planner_table():
    result = run_cli("solve", str(SCENARIOS / "three_agents.json"), "--mode", "sp")
    assert result.returncode == 0
    rows, _ = parse_table(result.stdout)
    sigmas = [float(r[1]) for r in rows[1:]]
    assert sigmas == sorted(sigmas)
    for row in rows[1:]:
        assert float(row[3]) == pytest.approx(3.261524325, rel=1e-8)


def test_schedule_two_wave_table():
    result = run_cli("schedule", str(SCENARIOS / "two_waves.json"), "--mode", "eq")
    assert result.returncode == 0
    rows, comments = parse_table(result.stdout)
    assert rows[0] == ["wave", "members", "drawdown", "welfare"]
    assert rows[1][1] == "{1,2}" and rows[2][1] == "{3}"
    assert float(rows[1][2]) == pytest.approx(1.026834238, rel=1e-8)
    assert float(rows[2][2]) == pytest.approx(2.165364532, rel=1e-8)
    assert any("total_welfare: 2.374375639" in c for c in comments)


def test_schedule_planner_trace():
    result = run_cli("schedule", str(SCENARIOS / "three_agents.json"), "--mode", "sp")
    assert result.returncode == 0
    rows, comments = parse_table(result.stdout)
    assert rows[1][1] == "{1,2,3}"
    assert float(rows[1][2]) == pytest.approx(3.261524325, rel=1e-8)
    assert any("total_welfare: 4.892286487" in c for c in comments)
    assert any(c.startswith("# greedy_trace: {1,2,3}") for c in comments)


def quick_sim_doc(doc: dict, **overrides) -> dict:
    doc = dict(doc)
    sim = {"dt": 1e-3, "n_paths": 2000, "seed": 1, "bridge_correction": True}
    sim.update(overrides)
    doc["sim"] = sim
    return doc


def test_simulate_pass_rows_and_dump(tmp_path):
    doc = quick_sim_doc(base_doc(betas=(1.0,)))
    path = write_scenario(tmp_path, doc)
    dump = tmp_path / "dump.csv"
    result = run_cli("simulate", path, "--mode", "eq", "--dump-samples", str(dump))
    assert result.returncode == 0
    rows, comments = parse_table(result.stdout)
    assert rows[0] == ["quantity", "analytic", "mc_mean", "mc_se", "z", "status"]
    by_name = {r[0]: r for r in rows[1:]}
    assert set(by_name) == {"payoff_1", "total_payoff"}
    assert all(r[5] == "PASS" for r in rows[1:])
    assert float(by_name["payoff_1"][1]) == pytest.approx(0.1353352832, rel=1e-8)
    assert any(c.startswith("# censored:") for c in comments)

    dumped = list(csv.reader(dump.open()))
    assert dumped[0] == ["path", "tau_1", "M_1", "payoff_1"]
    assert len(dumped) == 2001


def test_simulate_penalty_rows(tmp_path):
    doc = quick_sim_doc(base_doc(betas=(1.0, 20.0)))
    doc["penalty"] = {"alpha": 0.5}
    path = write_scenario(tmp_path, doc)
    result = run_cli("simulate", path, "--mode", "penalty")
    assert result.returncode == 0
    rows, _ = parse_table(result.stdout)
    by_name = {r[0]: r for r in rows[1:]}
    assert set(by_name) == {"payoff_1", "payoff_2", "continuation_frequency"}
    assert all(r[5] == "PASS" for r in rows[1:])
    assert float(by_name["continuation_frequency"][1]) == pytest.approx(0.6229250471, rel=1e-8)


def test_simulate_penalty_without_section_fails(tmp_path):
    path = write_scenario(tmp_path, quick_sim_doc(base_doc(betas=(1.0, 20.0))))
    assert run_cli("simulate", path, "--mode", "penalty").returncode == 2


def test_scan_example_cells(tmp_path):
    doc = base_doc(betas=(1.0, 1.0, 1.0))
    doc["scan"] = {"beta2_range": [0.0, 2.4], "beta3_range": [0.0, 8.0], "steps": 4}
    path = write_scenario(tmp_path, doc)
    result = run_cli("scan", path)
    assert result.returncode == 0
    rows, _ = parse_table(result.stdout)
    assert rows[0] == ["beta2", "beta3", "equilibrium", "planner"]
    assert len(rows) == 17  # 4x4 grid, every cell emitted
    cells = {(float(r[0]), float(r[1])): (r[2], r[3]) for r in rows[1:]}
    assert cells[(1.2, 2.0)] == ("{1,2,3}", "{1,2,3}")
    assert cells[(1.2, 8.0)][0] == "{1,2}{3}"
    assert cells[(0.6, 2.0)] == ("", "")  # beta2 <= 1: invalid cell kept, unlabeled


def test_scan_rejects_wrong_template(tmp_path):
    doc = base_doc(betas=(1.0, 1.2, 2.0))  # template betas must be 1.0
    doc["scan"] = {"steps": 4}
    assert run_cli("scan", write_scenario(tmp_path, doc)).returncode == 2


def test_scan_svg_rendering(tmp_path):
    doc = base_doc(betas=(1.0, 1.0, 1.0))
    doc["scan"] = {"beta2_range": [0.0, 2.4], "beta3_range": [0.0, 8.0], "steps": 4}
    path = write_scenario(tmp_path, doc)
    svg = tmp_path / "grid.svg"
    result = run_cli("scan", path, "--out", str(tmp_path / "grid.csv"), "--svg", str(svg))
    assert result.returncode == 0
    body = svg.read_text()
    assert body.startswith("<svg") and body.count("<rect") == 16


def test_solver_failure_exits_one(tmp_path):
    doc = {
        "agents": [{"family": "affine_quadratic", "a2": 1.0, "a1": 0.0, "a0": 1.0}],
        "scope_bounds": {"lo": 0.1, "hi": 10.0},
    }
    path = write_scenario(tmp_path, doc)
    assert run_cli("validate", path).returncode == 0  # parses fine
    result = run_cli("solve", path, "--mode", "eq")  # reply jump: no fixed point
    assert result.returncode == 1
    assert "error" in result.stderr


def test_strict_censoring_exits_one(tmp_path):
    doc = quick_sim_doc(base_doc(betas=(1.0,)), t_max=0.02, n_paths=300)
    path = write_scenario(tmp_path, doc)
    assert run_cli("simulate", path, "--mode", "eq").returncode == 0
    assert run_cli("simulate", path, "--mode", "eq", "--strict").returncode == 1


def test_simulate_deterministic_and_seed_sensitive(tmp_path):
    doc = quick_sim_doc(base_doc(betas=(1.0,)), n_paths=500)
    path = write_scenario(tmp_path, doc)
    out_a, out_b, out_c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert run_cli("simulate", path, "--out", str(out_a)).returncode == 0
    assert run_cli("simulate", path, "--out", str(out_b)).returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert run_cli("simulate", path, "--seed", "99", "--out", str(out_c)).returncode == 0
    assert out_a.read_bytes() != out_c.read_bytes()


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_paths", 100.0),
        ("n_paths", True),
        ("bridge_correction", "no"),
        ("seed", 1.5),
    ],
)
def test_wrongly_typed_sim_field_exits_two(tmp_path, field, value):
    doc = quick_sim_doc(base_doc(betas=(1.0,)), n_paths=100)
    doc["sim"][field] = value
    result = run_cli("simulate", write_scenario(tmp_path, doc))
    assert result.returncode == 2
    assert result.stderr.startswith(f"error: sim.{field} must be ")
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr


def test_import_leaves_scipy_unloaded():
    code = "import sys, teamsearch, teamsearch.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def assert_one_line_error(result):
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert len(result.stderr.splitlines()) == 1
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize(
    "keys, value",
    [
        (("scope_bounds", "lo"), "0.1"),
        (("scope_bounds", "lo"), True),
        (("scope_bounds", "lo"), None),
        (("agents", 0, "family"), ["x"]),
        (("sim", "t_max"), math.inf),
        (("sim", "dt"), math.inf),
    ],
    ids=["lo_string", "lo_true", "lo_null", "family_list", "t_max_infinity", "dt_infinity"],
)
def test_invalid_scenario_value_exits_two(tmp_path, keys, value):
    doc = quick_sim_doc(base_doc(betas=(1.0,)), n_paths=100)
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value  # json writes math.inf as Infinity
    assert_one_line_error(run_cli("simulate", write_scenario(tmp_path, doc)))


@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json")))
def test_validate_echo_round_trips(tmp_path, name):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert run_cli("validate", str(SCENARIOS / name), "--out", str(first)).returncode == 0
    assert run_cli("validate", str(first), "--out", str(second)).returncode == 0
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("case", ["non_utf8", "directory", "out", "dump_samples", "svg"])
def test_io_error_exits_two(tmp_path, case):
    unwritable = str(tmp_path / "no_such_dir" / "file")
    sim = write_scenario(tmp_path, quick_sim_doc(base_doc(betas=(1.0,)), n_paths=100), "sim.json")
    scan_doc = base_doc(betas=(1.0, 1.0, 1.0))
    scan_doc["scan"] = {"steps": 2}
    scan = write_scenario(tmp_path, scan_doc, "scan.json")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"agents": "\u00e9"}'.encode("latin-1"))
    argv = {
        "non_utf8": ["validate", str(latin1)],
        "directory": ["validate", str(tmp_path)],
        "out": ["solve", sim, "--out", unwritable],
        "dump_samples": ["simulate", sim, "--dump-samples", unwritable],
        "svg": ["scan", scan, "--out", str(tmp_path / "grid.csv"), "--svg", unwritable],
    }[case]
    assert_one_line_error(run_cli(*argv))


def test_horizon_over_step_budget_exits_two_quickly(tmp_path):
    doc = quick_sim_doc(base_doc(betas=(1.0,)), dt=1e-300, n_paths=10)
    result = subprocess.run(
        [sys.executable, "-m", "teamsearch", "simulate", write_scenario(tmp_path, doc)],
        capture_output=True, text=True, timeout=30,
    )
    assert_one_line_error(result)
    assert "budget" in result.stderr


def test_solve_prints_profile_warnings(tmp_path):
    doc = {
        "agents": [{"family": "scaled_power", "a": 1.0, "p": 2.0}],
        "scope_bounds": {"lo": 0.1, "hi": 10.0},
    }
    result = run_cli("solve", write_scenario(tmp_path, doc), "--mode", "eq")
    assert result.returncode == 0
    rows, comments = parse_table(result.stdout)
    assert float(rows[1][1]) == 0.1
    warnings = [c for c in comments if c.startswith("# warning: ")]
    assert len(warnings) == 1 and "reply gap is zero" in warnings[0]


def test_scan_over_cell_budget_exits_two_quickly(tmp_path):
    template = base_doc(betas=(1.0, 1.0, 1.0))
    doc = dict(template, scan={"steps": 100_000})
    result = subprocess.run(
        [sys.executable, "-m", "teamsearch", "scan", write_scenario(tmp_path, doc)],
        capture_output=True, text=True, timeout=30,
    )
    assert_one_line_error(result)
    assert "budget" in result.stderr
    # 1000 steps is exactly the 10**6-cell budget
    for steps, code in ((8, 0), (96, 0), (1000, 0), (1001, 2)):
        doc = dict(template, scan={"steps": steps})
        assert run_cli("validate", write_scenario(tmp_path, doc)).returncode == code


def test_cost_domain_error_is_one_line(tmp_path):
    doc = {
        "agents": [{"family": "scaled_power", "a": 1.0, "p": 300.0}],
        "scope_bounds": {"lo": 0.1, "hi": 100.0},
    }
    result = run_cli("validate", write_scenario(tmp_path, doc))
    assert_one_line_error(result)
    assert "non-finite value at sigma=10.6894" in result.stderr


def test_scan_matches_per_cell_reference_loop(tmp_path):
    # Cells straddle beta2 = 1, e^(1/3), beta3 = e^(4/3) and beta3 = e*beta2,
    # so every exit pattern occurs; the scan's shared memos must give what
    # each cell gives solved on its own.
    from teamsearch.costs import ScaledExponential, ScopeBounds
    from teamsearch.equilibrium import equilibrium_exit_schedule
    from teamsearch.planner import optimal_chain

    lo2, hi2, lo3, hi3, steps = 0.6, 2.6, 1.0, 7.0, 12
    doc = base_doc(betas=(1.0, 1.0, 1.0))
    doc["scan"] = {"beta2_range": [lo2, hi2], "beta3_range": [lo3, hi3], "steps": steps}
    result = run_cli("scan", write_scenario(tmp_path, doc))
    assert result.returncode == 0 and result.stderr == ""

    def label(waves):
        return "".join("{" + ",".join(str(i + 1) for i in sorted(w)) + "}" for w in waves)

    bounds = ScopeBounds(0.1, 10.0)
    idx = [float(i) for i in range(1, steps + 1)]
    expected = [["beta2", "beta3", "equilibrium", "planner"]]
    for b3 in [lo3 + i * (hi3 - lo3) / steps for i in idx]:
        for b2 in [lo2 + i * (hi2 - lo2) / steps for i in idx]:
            cell = ["%.10g" % b2, "%.10g" % b3, "", ""]
            if b3 > b2 > 1.0:
                costs = [ScaledExponential(b=1.0, beta=beta) for beta in (1.0, b2, b3)]
                schedule = equilibrium_exit_schedule(range(3), costs, bounds)
                chain = optimal_chain(costs, bounds)
                links = zip(chain.alliances, chain.alliances[1:] + ((),))
                cell[2:] = [label(w.exiting for w in schedule.waves),
                            label(set(a) - set(b) for a, b in links)]
            expected.append(cell)
    rows, _ = parse_table(result.stdout)
    assert rows == expected
    assert {row[2] for row in rows[1:]} == {"", "{1,2,3}", "{1,2}{3}", "{1}{2,3}", "{1}{2}{3}"}


def unsorted_team_doc(n: int, seed: int, spread: float = 6.0) -> dict:
    import random

    log_beta = [spread * k / (n - 1) for k in range(n)]
    while log_beta == sorted(log_beta):
        random.Random(seed).shuffle(log_beta)
    return base_doc(betas=[math.exp(v) for v in log_beta])


@pytest.mark.parametrize("n", [7, 8])
def test_schedule_sp_solves_large_unsorted_team(tmp_path, n):
    # Unsorted teams take the greedy on their multiplier order; the welfare of
    # the best chain cannot depend on agent order, so it equals the greedy
    # chain's on the sorted team.
    from teamsearch.costs import ScaledExponential, ScopeBounds
    from teamsearch.planner import greedy_wellordered_chain
    from teamsearch.welfare import chain_welfare

    doc = unsorted_team_doc(n, seed=n)
    result = run_cli("schedule", write_scenario(tmp_path, doc), "--mode", "sp")
    assert result.returncode == 0 and result.stderr == ""
    _, comments = parse_table(result.stdout)
    total = float(next(c for c in comments if c.startswith("# total_welfare: ")).split()[-1])
    costs = [ScaledExponential(b=1.0, beta=a["beta"]) for a in doc["agents"]]
    costs.sort(key=lambda spec: spec.beta)
    expected = chain_welfare(greedy_wellordered_chain(costs, ScopeBounds(0.1, 10.0)), costs)
    assert total == pytest.approx(expected.total, rel=1e-8)


def test_simulate_sp_runs_seven_agent_unsorted_team(tmp_path):
    doc = quick_sim_doc(unsorted_team_doc(7, seed=3, spread=1.0), dt=1e-2, n_paths=200)
    result = run_cli("simulate", write_scenario(tmp_path, doc), "--mode", "sp")
    assert result.returncode == 0 and result.stderr == ""


@pytest.mark.parametrize("command", ["schedule", "simulate"])
def test_unsorted_team_over_chain_limit_exits_two_quickly(tmp_path, command):
    doc = quick_sim_doc(unsorted_team_doc(11, seed=11), n_paths=10)
    # Rates b alternating 1.0 and 1.5 make the costs non-proportional, so the
    # chain needs the DP, which refuses teams over 10 agents.
    for k, agent in enumerate(doc["agents"]):
        agent["b"] = 1.5 if k % 2 else 1.0
    result = subprocess.run(
        [sys.executable, "-m", "teamsearch", command, write_scenario(tmp_path, doc),
         "--mode", "sp"],
        capture_output=True, text=True, timeout=30,
    )
    assert_one_line_error(result)
    assert "over 10 agents" in result.stderr
    # With one rate the team is proportional and takes the greedy chain, which
    # has no limit, unsorted or sorted.
    for agent in doc["agents"]:
        agent["b"] = 1.0
    assert run_cli("schedule", write_scenario(tmp_path, doc), "--mode", "sp").returncode == 0
    doc["agents"].sort(key=lambda agent: agent["beta"])
    assert run_cli("schedule", write_scenario(tmp_path, doc), "--mode", "sp").returncode == 0


@pytest.mark.parametrize(
    "agent, hi",
    [({"family": "scaled_exponential", "b": 1.0}, 400.0),
     ({"family": "affine_quadratic", "a2": 1e200, "a1": 0.0, "a0": 1.0}, 4.0)],
    ids=["exponential", "affine"],
)
def test_validate_is_quiet_where_cost_products_overflow(tmp_path, agent, hi):
    doc = {"agents": [agent], "scope_bounds": {"lo": 0.1, "hi": hi}}
    result = run_cli("validate", write_scenario(tmp_path, doc))
    assert result.returncode == 0
    assert result.stderr == ""
    (echoed,) = json.loads(result.stdout)["agents"]
    assert echoed.items() >= agent.items()


@pytest.mark.parametrize(
    "agents, hi",
    [([{"family": "scaled_exponential", "b": 1.0, "beta": 1.0},
       {"family": "scaled_exponential", "b": 1.0, "beta": 3.0}], 400.0),
     ([{"family": "scaled_exponential", "b": 0.5}], 1418.0)],
    ids=["gap-signs", "multiplier-times-scope"],
)
@pytest.mark.parametrize("command", ["solve", "schedule"])
def test_planner_is_quiet_where_gaps_overflow(tmp_path, agents, hi, command):
    # Valid scenarios whose planner gaps pass 1e154 (so a product of two gap
    # values overflows) or whose lam * sigma overflows at the top multiplier.
    path = write_scenario(tmp_path, {"agents": agents, "scope_bounds": {"lo": 0.1, "hi": hi}})
    assert run_cli("validate", path).returncode == 0
    result = run_cli(command, path, "--mode", "sp")
    assert result.returncode == 0
    assert result.stderr == ""
    assert parse_table(result.stdout)[0]


@pytest.mark.parametrize("command", ["solve", "schedule"])
def test_planner_is_quiet_where_bracket_midpoints_overflow(tmp_path, command):
    # The top multiplier brackets lie above 9e307, where a + b overflows
    # before the midpoint halves it; the midpoint is inf either way.
    doc = {"agents": [{"family": "scaled_exponential", "b": 1.0}],
           "scope_bounds": {"lo": 0.1, "hi": 709.5}}
    result = run_cli(command, write_scenario(tmp_path, doc), "--mode", "sp")
    assert result.returncode == 0
    assert result.stderr == ""
    assert parse_table(result.stdout)[0]


def test_schedule_prints_greedy_trace_only_for_greedy_chains(tmp_path):
    # Multipliers that fall with the index: the greedy picks suffixes of the
    # team in multiplier order, not range(j, n), so it prints no pick trace.
    doc = base_doc(betas=(2.0, 1.0))
    result = run_cli("schedule", write_scenario(tmp_path, doc), "--mode", "sp")
    assert result.returncode == 0
    rows, comments = parse_table(result.stdout)
    assert rows[0] == ["wave", "members", "drawdown", "welfare"]
    assert not any(c.startswith("# greedy_trace") for c in comments)
    greedy = run_cli("schedule", str(SCENARIOS / "three_agents.json"), "--mode", "sp")
    assert "# greedy_trace: {1,2,3}" in greedy.stdout


def test_simulate_refuses_fewer_than_two_paths(tmp_path):
    path = write_scenario(tmp_path, quick_sim_doc(base_doc(betas=(1.0,)), n_paths=1))
    assert run_cli("validate", path).returncode == 0  # SimConfig itself accepts one path
    for argv in (["--mode", "eq"], ["--mode", "sp", "--seed", "3"]):
        result = run_cli("simulate", path, *argv)
        assert_one_line_error(result)
        assert "n_paths >= 2" in result.stderr


def test_scan_range_whose_grid_overflows_exits_two(tmp_path):
    doc = dict(base_doc(betas=(1.0, 1.0, 1.0)),
               scan={"steps": 3, "beta2_range": [0, 1e300], "beta3_range": [0, 1e308]})
    path = write_scenario(tmp_path, doc)
    for command in ("validate", "scan"):
        result = run_cli(command, path)
        assert_one_line_error(result)
        assert "overflows" in result.stderr and "1e+308" in result.stderr
    doc["scan"]["beta3_range"] = [0, 5e307]  # 3 * 5e307 is still finite
    assert run_cli("validate", write_scenario(tmp_path, doc)).returncode == 0


def test_penalty_without_continuation_regime_passes_frequency_row(tmp_path):
    # Continuation needs alpha > e/20 (about 0.136) for this pair.
    doc = json.loads((SCENARIOS / "penalty.json").read_text())
    doc["penalty"]["alpha"] = 0.1
    doc["sim"]["n_paths"] = 500
    result = run_cli("simulate", write_scenario(tmp_path, doc), "--mode", "penalty")
    assert result.returncode == 0, result.stderr
    rows, _ = parse_table(result.stdout)
    freq = {r[0]: r for r in rows[1:]}["continuation_frequency"]
    assert freq[1:3] == ["0", "0"] and freq[5] == "PASS"
    assert all(r[5] == "PASS" for r in rows[1:])


def test_penalty_frequency_is_a_share_of_paths_whose_first_exit_fired(tmp_path):
    # A path censored before the first exit has no first-exit maximum, so the
    # share and its standard error are taken over the paths that fired.
    import numpy as np

    from teamsearch import PenaltyConfig, ScaledExponential, ScopeBounds, SimConfig, penalty_policy
    from teamsearch.simulate import simulate_phases

    doc = json.loads((SCENARIOS / "penalty.json").read_text())
    doc["sim"].update(n_paths=400, t_max=0.3)
    result = run_cli("simulate", write_scenario(tmp_path, doc), "--mode", "penalty")
    assert result.returncode == 0, result.stderr
    rows, _ = parse_table(result.stdout)
    row = {r[0]: r for r in rows[1:]}["continuation_frequency"]

    costs = (ScaledExponential(b=1.0), ScaledExponential(b=1.0, beta=20.0))
    policy = penalty_policy(PenaltyConfig(alpha=0.5, costs=costs, bounds=ScopeBounds(0.1, 10.0)))
    outcome = simulate_phases(policy.phases, SimConfig(**doc["sim"]))
    first = outcome.wave_M[0][~np.isnan(outcome.wave_M[0])]
    assert 0 < first.size < outcome.n_paths  # some paths stopped before the first exit
    share = float((first < policy.threshold).mean())
    assert row[2:4] == ["%.10g" % share, "%.10g" % math.sqrt(share * (1 - share) / first.size)]

    doc["sim"].update(n_paths=50, t_max=0.002)  # no path reaches the first exit
    result = run_cli("simulate", write_scenario(tmp_path, doc), "--mode", "penalty")
    assert result.returncode == 1 and result.stderr.startswith("error: ")
    assert len(result.stderr.splitlines()) == 1 and "first exit" in result.stderr


def test_team_over_agent_budget_exits_two_quickly(tmp_path):
    from teamsearch.cli import MAX_TEAM_AGENTS

    doc = base_doc(betas=[1.0 + 0.05 * i for i in range(MAX_TEAM_AGENTS + 1)])
    result = subprocess.run(
        [sys.executable, "-m", "teamsearch", "schedule", write_scenario(tmp_path, doc)],
        capture_output=True, text=True, timeout=30,
    )
    assert_one_line_error(result)
    assert "budget" in result.stderr
    doc["agents"].pop()
    assert run_cli("validate", write_scenario(tmp_path, doc)).returncode == 0


def test_failing_solve_of_a_large_team_prints_a_short_line(tmp_path):
    # Every member of the sorted 1,000-agent team replies lo, so n * lo = 100
    # is the fixed point, but the reply gap misses zero there by -1.41e-12.
    # The error names the alliance by its ends and size, not every member.
    doc = base_doc(betas=[1.0 + 0.05 * i for i in range(1000)])
    result = run_cli("schedule", write_scenario(tmp_path, doc), "--mode", "eq")
    assert result.returncode == 1 and result.stderr.startswith("error: ")
    assert len(result.stderr.splitlines()) == 1 and len(result.stderr) < 300
    assert "sub-alliance (0, 1, 2, ..., 999) of 1000 members" in result.stderr


def main_error(capsys, doc_or_text, tmp_path) -> str:
    """The one ``error:`` line that ``cli.main`` prints for an invalid scenario."""
    from teamsearch import cli

    path = tmp_path / "scenario.json"
    text = doc_or_text if isinstance(doc_or_text, str) else json.dumps(doc_or_text)
    path.write_text(text)
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    return err


def _edited(edit, betas=(1.0, 1.2, 2.0)) -> dict:
    doc = base_doc(betas)
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "doc, message",
    [
        (_edited(lambda d: d["scope_bounds"].update(hi=10**400)),
         "scope_bounds.hi must be a finite number"),
        (_edited(lambda d: d.update(sim=5)), "'sim' must be an object"),
        (_edited(lambda d: d["agents"].append(5)), "each agent needs a 'family' field"),
        (_edited(lambda d: d["agents"][0].pop("family")), "each agent needs a 'family' field"),
        (_edited(lambda d: d.update(scan={"beta2_range": [5.0, 1.0]})), "beta ranges must be"),
        (_edited(lambda d: d.update(scan={"steps": 0})), "steps must be a positive integer"),
        (_edited(lambda d: d.update(agents=[])), "'agents' must be a non-empty list"),
        (_edited(lambda d: d.update(agents={})), "'agents' must be a non-empty list"),
        (_edited(lambda d: d.update(scan={}), betas=(1.0, 1.0)), "exactly 3 scaled_exponential"),
        (_edited(lambda d: (d["agents"][2].update(b=2.0), d.update(scan={}))),
         "share the exponential rate b"),
    ],
    ids=["int_too_large_for_a_float", "section_not_an_object", "agent_not_an_object",
         "agent_without_family", "scan_lo_not_below_hi", "scan_steps_below_one", "agents_empty",
         "agents_not_a_list", "scan_two_agents", "scan_agents_differ_in_b"],
)
def test_invalid_scenario_branches_exit_two_with_one_line(capsys, tmp_path, doc, message):
    assert message in main_error(capsys, doc, tmp_path)


@pytest.mark.parametrize("key", ["agents", "b"])
def test_duplicate_scenario_key_exits_two(capsys, tmp_path, key):
    agent = '{"family": "scaled_exponential", "b": 1.0, "beta": 1.0%s}' % (
        ', "b": 2.0' if key == "b" else "")
    agents = '"agents": [%s]' % agent
    text = '{%s, %s"scope_bounds": {"lo": 0.1, "hi": 10.0}}' % (
        agents, agents + ", " if key == "agents" else "")
    assert main_error(capsys, text, tmp_path) == f"error: duplicate key '{key}' in scenario\n"


def test_validation_errors_echo_long_values_shortened(capsys, tmp_path):
    # A short value prints in full; a long one is cut by reprlib to a short line.
    doc = base_doc(betas=(1.0,))
    doc["scope_bounds"]["lo"] = "0.1"
    assert main_error(capsys, doc, tmp_path) == (
        "error: scope_bounds.lo must be a finite number, got '0.1'\n")
    long_b = _edited(lambda d: d["agents"][0].update(b="x" * 200_000), betas=(1.0,))
    long_family = _edited(lambda d: d["agents"][0].update(family="f" * 100_000), betas=(1.0,))
    many_keys = _edited(lambda d: d["scope_bounds"].update({f"k{i}": 0 for i in range(20_000)}))
    for doc, start in ((long_b, "error: agents[0].b must be a finite number, got 'xxx"),
                       (long_family, "error: agents[0]: unknown family 'fff"),
                       (many_keys, "error: unknown key(s) ['k0', 'k1', ")):
        err = main_error(capsys, doc, tmp_path)
        assert err.startswith(start) and "..." in err and len(err) < 200


def test_scan_budget_error_shortens_a_huge_step_count(capsys, tmp_path):
    # A step count over the cell budget is echoed by reprlib: in full when
    # short, cut to a short line when it has thousands of digits.
    doc = dict(base_doc(betas=(1.0, 1.0, 1.0)), scan={"steps": 1001})
    assert main_error(capsys, doc, tmp_path) == (
        "error: scan: steps=1001 gives 1002001 cells, over the budget of 1000000\n")
    doc["scan"]["steps"] = 10**2000
    err = main_error(capsys, doc, tmp_path)
    assert err.startswith("error: scan: steps=1000") and "budget" in err
    assert "..." in err and len(err.encode()) < 200


def test_scan_budget_error_names_the_budget_for_a_step_count_too_long_to_square(capsys, tmp_path):
    # 10**2200 squared has 4,401 digits, past what Python formats as a
    # string; the line still names the cell budget.
    doc = dict(base_doc(betas=(1.0, 1.0, 1.0)), scan={"steps": 10**2200})
    err = main_error(capsys, doc, tmp_path)
    assert err.startswith("error: scan: steps=1000") and "budget of 1000000" in err
    assert len(err.encode()) < 200


def test_scan_budget_error_names_the_budget_for_a_step_count_too_long_to_print():
    # 10**5000 has more digits than Python formats as a string (a scenario
    # file cannot hold it, but a caller can build the spec): the line gives
    # its size in bits and the cell budget.
    from teamsearch.scan import MAX_SCAN_CELLS, ScanSpec

    with pytest.raises(ValueError) as raised:
        ScanSpec(steps=10**5000)
    text = str(raised.value)
    assert text == (f"steps=<an int of {(10**5000).bit_length()} bits> gives more than "
                    f"{MAX_SCAN_CELLS}**2 cells, over the budget of {MAX_SCAN_CELLS}")
    assert len(text.splitlines()) == 1 and len(text.encode()) < 200


def test_coarse_step_is_named_and_strict_refuses_it(tmp_path):
    # Three affine agents whose one phase lasts 2 expected steps of dt = 0.25:
    # every check fails against a correct closed form, and a warning says why.
    agent = {"family": "affine_quadratic", "a2": 1.0, "a1": 0.0, "a0": 1.0}
    doc = {"agents": [agent] * 3, "scope_bounds": {"lo": 0.1, "hi": 0.9},
           "sim": {"dt": 0.25, "n_paths": 2000, "seed": 3, "bridge_correction": True}}
    path = write_scenario(tmp_path, doc)
    text = ("phase 1 lasts 2 expected steps of dt=0.25, under 50; "
            "a step this coarse biases its stops")
    result = run_cli("simulate", path, "--mode", "eq")
    rows, comments = parse_table(result.stdout)
    assert result.returncode == 0
    assert {row[-1] for row in rows[1:]} == {"FAIL"}
    assert comments[-1] == f"# warning: {text}"
    strict = run_cli("simulate", path, "--mode", "eq", "--strict")
    assert (strict.returncode, strict.stdout, strict.stderr) == (1, "", f"error: {text}\n")


@pytest.mark.parametrize("beta_range", [(0.0, 10**400), (-10**400, 1.0), (0, 10**400)])
def test_scan_spec_refuses_ints_past_the_float_range(beta_range):
    # An int past the float range passes a plain comparison with math.inf, and
    # hi - lo then fails to convert; both ends are checked first, so the spec
    # gives its one-line error on either axis.
    from teamsearch.scan import ScanSpec

    for spec in ({"beta2_range": beta_range}, {"beta3_range": beta_range}):
        with pytest.raises(ValueError) as raised:
            ScanSpec(**spec)
        assert str(raised.value) == "beta ranges must be finite with 0 <= lo < hi"


def test_scan_spec_names_an_int_grid_numerator_past_the_float_range():
    # Both ends are floats' size, but steps * (hi - lo) is an int past the
    # float range: the overflow line, shortened, not an OverflowError.
    from teamsearch.scan import ScanSpec

    with pytest.raises(ValueError) as raised:
        ScanSpec(beta2_range=(0, 10**308), steps=3)
    text = str(raised.value)
    assert text.startswith("steps * (hi - lo) overflows for the beta range [0, 1000")
    assert len(text.splitlines()) == 1 and len(text.encode()) < 200


def test_validate_checks_rule_abiding_agents_at_their_bounds_only(capsys, monkeypatch, tmp_path):
    # Agents within their family's rules are checked from c, c' and c'' at
    # lo and hi: six scalar evaluations each, and no array, so no grid.
    import numpy as np

    from teamsearch import cli
    from teamsearch.costs import CostFamily

    calls, arrays = [0], [0]
    real = CostFamily._evaluate

    def counting(self, expr, sigma):
        calls[0] += 1
        arrays[0] += isinstance(sigma, np.ndarray)
        return real(self, expr, sigma)

    monkeypatch.setattr(CostFamily, "_evaluate", counting)
    doc = {"agents": [{"family": "scaled_exponential", "b": 0.5 + 0.01 * (i % 100),
                       "beta": 1.0 + 0.05 * i} for i in range(1000)],
           "scope_bounds": {"lo": 0.1, "hi": 10.0}}
    assert cli.main(["validate", write_scenario(tmp_path, doc)]) == 0
    assert capsys.readouterr().err == ""
    assert (calls[0], arrays[0]) == (6000, 0)


E, P, A = "scaled_exponential", "scaled_power", "affine_quadratic"


@pytest.mark.parametrize("agents, bounds, line", [
    ([{"family": A, "a2": -1.0, "a1": 0.0, "a0": 1.0}], [0.1, 2.0],
     "agents[0] invalid: quadratic coefficient a2 must be positive; cost must be positive on "
     "the scope interval; cost must be strictly increasing on the scope interval; cost "
     "curvature must stay above 1e-09"),
    ([{"family": E, "b": -2.0, "beta": 1.0}], [0.1, 2.0],
     "agents[0] invalid: rate b must be positive; cost must be strictly increasing on the "
     "scope interval"),
    ([{"family": P, "a": 1.0, "p": 1.5, "beta": 1.0}], [0.1, 2.0],
     "agents[0] invalid: exponent p must be >= 2"),
    ([{"family": E, "b": 1.0, "beta": 0.5}], [0.1, 2.0],
     "agents[0] invalid: divisor beta must be >= 1"),
    ([{"family": E, "b": 1000.0}], [0.1, 4.0],
     "agents[0] invalid: ScaledExponential(b=1000.0, beta=1.0) produced a non-finite value "
     "at sigma=0.7122999999999999"),
    ([{"family": E, "b": 1.0}], [1.0, 800.0],
     "agents[0] invalid: ScaledExponential(b=1.0, beta=1.0) produced a non-finite value at "
     "sigma=710.5120000000001"),
    ([{"family": P, "a": 1.0, "p": 300.0}], [0.1, 100.0],
     "agents[0] invalid: ScaledPower(a=1.0, p=300.0, beta=1.0) produced a non-finite value "
     "at sigma=10.6894"),
    ([{"family": P, "a": 1e300, "p": 1e10}], [0.5, 2.0],
     "agents[0] invalid: ScaledPower(a=1e+300, p=10000000000.0, beta=1.0) produced a "
     "non-finite value at sigma=1.001"),
    ([{"family": E, "b": 1e-300, "beta": 1e300}], [0.1, 10.0],
     "agents[0] invalid: cost must be strictly increasing on the scope interval; cost "
     "curvature must stay above 1e-09"),
    ([{"family": A, "a2": 1e-10, "a1": 0.0, "a0": 1.0}], [0.1, 10.0],
     "agents[0] invalid: cost curvature must stay above 1e-09"),
    ([{"family": P, "a": 1e-12, "p": 2.0}], [0.1, 10.0],
     "agents[0] invalid: cost curvature must stay above 1e-09"),
    ([{"family": A, "a2": 1.0, "a1": -5.0, "a0": -1.0}], [0.1, 10.0],
     "agents[0] invalid: linear coefficient a1 must be non-negative; constant a0 must be "
     "positive; cost must be positive on the scope interval; cost must be strictly "
     "increasing on the scope interval"),
    ([{"family": A, "a2": 1e200, "a1": 0.0, "a0": 1.0}], [0.1, 1e60],
     "agents[0] invalid: AffineQuadratic(a2=1e+200, a1=0.0, a0=1.0) produced a non-finite "
     "value at sigma=9.999999999999999e+56"),
    ([{"family": P, "a": 1e-10, "p": 2.0}], [3.0, 3.0],
     "agents[0] invalid: cost curvature must stay above 1e-09"),
    ([{"family": E, "b": 1e-12}], [1e-9, 1e-9],
     "agents[0] invalid: cost curvature must stay above 1e-09"),
    ([{"family": E, "b": 1.0, "beta": 2.0},
      {"family": P, "a": 2.0, "p": 2.0, "beta": 0.0}], [0.1, 10.0],
     "agents[1] invalid: divisor beta must be >= 1; ScaledPower(a=2.0, p=2.0, beta=0.0) "
     "produced a non-finite value at sigma=0.1"),
    ([{"family": E, "b": 1.0}, {"family": E, "b": 0.5, "beta": 3.0},
      {"family": E, "b": 1e154}], [0.1, 10.0],
     "agents[2] invalid: ScaledExponential(b=1e+154, beta=1.0) produced a non-finite value "
     "at sigma=0.1"),
    ([{"family": A, "a2": 1e308, "a1": 0.0, "a0": 1.0}], [1e-9, 1e-9],
     "agents[0] invalid: AffineQuadratic(a2=1e+308, a1=0.0, a0=1.0) produced a non-finite "
     "value at sigma=1e-09"),
    ([{"family": P, "a": 1.0, "p": 2.0, "beta": 1.0}], [1e6, 1e160],
     "agents[0] invalid: ScaledPower(a=1.0, p=2.0, beta=1.0) produced a non-finite value at "
     "sigma=1e+157"),
])
def test_invalid_agent_lines_name_the_grid_offender(capsys, tmp_path, agents, bounds, line):
    # Rule-breaking agents and agents whose cost overflows inside [lo, hi]
    # keep the grid's issues, in order, and its first offending grid scope.
    doc = {"agents": agents, "scope_bounds": {"lo": bounds[0], "hi": bounds[1]}}
    assert main_error(capsys, doc, tmp_path) == f"error: {line}\n"
