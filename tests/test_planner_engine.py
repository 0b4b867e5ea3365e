"""Tests for planner chain drawdowns, greedy sequence, and brute-force oracle."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from teamsearch.costs import AffineQuadratic, ScaledExponential, ScopeBounds
from teamsearch.equilibrium import equilibrium_exit_schedule
from teamsearch.errors import ValidationError
from teamsearch.planner import (
    brute_force_optimal_chain,
    enumerate_chains,
    greedy_wellordered_chain,
    optimal_chain,
    planner_drawdown,
)
from teamsearch.welfare import chain_welfare, equilibrium_payoffs

WIDE = ScopeBounds(0.1, 10.0)
ROOMY = ScopeBounds(0.01, 50.0)


def exp_team(betas, b=1.0):
    return [ScaledExponential(b=b, beta=float(beta)) for beta in betas]


def exp_lambda(betas):
    # planner multiplier for exponential b=1 teams: log lam = 2 - mean(log beta)
    return math.exp(2.0 - float(np.mean(np.log(betas))))


def test_terminal_drawdown_two_symmetric_agents():
    costs = exp_team([1.0, 1.0])
    # S = 4, C = 2 e^2: d = 2 S^2 / (2 C)... = 8/e^2 = 1.0826822658929016
    d = planner_drawdown([0, 1], [], costs, WIDE)
    assert d == pytest.approx(8.0 * math.exp(-2.0), rel=1e-9)
    trigger = 2.0 / math.e
    assert d > trigger  # planner waits longer than the equilibrium


def test_terminal_drawdown_three_agents():
    costs = exp_team([1.0, 1.2, 2.0])
    d = planner_drawdown([0, 1, 2], [], costs, WIDE)
    # d = 2 n^2 / lambda = 18 / exp(2 - (ln 1.2 + ln 2)/3) = 3.2615243247
    assert d == pytest.approx(18.0 / exp_lambda([1.0, 1.2, 2.0]), rel=1e-9)
    assert d == pytest.approx(3.2615243247, abs=1e-8)


def test_single_agent_matches_equilibrium_drawdown():
    costs = exp_team([2.0])
    d = planner_drawdown([0], [], costs, WIDE)
    # sigma = 2, c = e^2/2: d = 4/e^2 = 0.5413411329464508
    assert d == pytest.approx(4.0 * math.exp(-2.0), rel=1e-9)


def test_planner_drawdown_validates_nesting():
    costs = exp_team([1.0, 1.2, 2.0])
    with pytest.raises(ValueError):
        planner_drawdown([0, 1], [0, 1], costs, WIDE)
    with pytest.raises(ValueError):
        planner_drawdown([0, 1], [2], costs, WIDE)
    with pytest.raises(ValueError):
        planner_drawdown([], [0], costs, WIDE)


def test_greedy_single_alliance_instance():
    costs = exp_team([1.0, 1.2, 2.0])
    chain = greedy_wellordered_chain(costs, WIDE)
    assert chain.alliances == ((0, 1, 2),)
    assert chain.feasible
    assert chain.trace == (0,)
    assert chain.drawdowns[0] == pytest.approx(3.2615243247, abs=1e-8)
    # suffix candidates it beat: 8/lambda_{2,3} = 1.6772, 4/e^2 = 0.5413
    d2 = planner_drawdown([1, 2], [], costs, WIDE)
    d3 = planner_drawdown([2], [], costs, WIDE)
    assert d2 == pytest.approx(8.0 / exp_lambda([1.2, 2.0]), rel=1e-9)
    assert chain.drawdowns[0] > d2 > d3


def test_greedy_two_wave_instance():
    costs = exp_team([1.0, 30.0, 30.0])
    chain = greedy_wellordered_chain(costs, ROOMY)
    assert chain.alliances == ((0, 1, 2), (1, 2))
    assert chain.feasible
    assert chain.trace == (1, 0)
    # terminal drawdown of {2,3}: 8/(e^2/30) = 240/e^2 = 32.4804...
    assert chain.drawdowns[1] == pytest.approx(240.0 * math.exp(-2.0), rel=1e-9)
    assert chain.drawdowns[0] < chain.drawdowns[1]


def test_greedy_symmetric_team_single_alliance():
    costs = exp_team([1.0] * 4)
    chain = greedy_wellordered_chain(costs, ROOMY)
    assert chain.alliances == ((0, 1, 2, 3),)


def test_greedy_trivial_team():
    chain = greedy_wellordered_chain(exp_team([1.0]), WIDE)
    assert chain.alliances == ((0,),)
    assert chain.drawdowns[0] == pytest.approx(2.0 * math.exp(-2.0), rel=1e-9)


def test_greedy_input_validation():
    with pytest.raises(ValidationError):
        greedy_wellordered_chain(
            [ScaledExponential(b=1.0), AffineQuadratic(1.0, 0.0, 1.0)], WIDE
        )
    with pytest.raises(ValidationError):
        greedy_wellordered_chain(exp_team([2.0, 1.0]), WIDE)  # multipliers decreasing


def test_enumerate_chains_counts():
    assert len(enumerate_chains([0], wellordered=True)) == 1
    three = enumerate_chains([0, 1, 2], wellordered=True)
    assert len(three) == 4
    assert ((0, 1, 2),) in three
    assert ((0, 1, 2), (1, 2)) in three
    assert ((0, 1, 2), (2,)) in three
    assert ((0, 1, 2), (1, 2), (2,)) in three
    assert len(enumerate_chains(range(4), wellordered=True)) == 8
    # general nesting: ordered set partitions of 3 elements = 13
    assert len(enumerate_chains([0, 1, 2], wellordered=False)) == 13
    with pytest.raises(ValueError):
        enumerate_chains(range(11), wellordered=True)
    with pytest.raises(ValueError):
        enumerate_chains(range(7), wellordered=False)


def test_brute_force_matches_greedy_on_reference_instance():
    costs = exp_team([1.0, 1.2, 2.0])
    chain, report = brute_force_optimal_chain(costs, WIDE)
    greedy = greedy_wellordered_chain(costs, WIDE)
    assert chain.alliances == greedy.alliances
    np.testing.assert_allclose(chain.drawdowns, greedy.drawdowns, rtol=1e-9)
    # planner welfare 27/lambda = 4.8922864870 beats the equilibrium 1.8825294365
    assert report.total == pytest.approx(27.0 / exp_lambda([1.0, 1.2, 2.0]), rel=1e-9)
    schedule = equilibrium_exit_schedule([0, 1, 2], costs, WIDE)
    eq_total = equilibrium_payoffs(schedule, costs).total
    assert report.total > eq_total


def test_greedy_equals_brute_force_on_random_instances():
    rng = np.random.default_rng(20240814)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        betas = np.sort(np.exp(rng.uniform(0.0, 3.5, size=n)))
        betas[0] = 1.0
        costs = exp_team(betas)
        greedy = greedy_wellordered_chain(costs, ROOMY)
        brute, _ = brute_force_optimal_chain(costs, ROOMY)
        assert greedy.alliances == brute.alliances
        np.testing.assert_allclose(greedy.drawdowns, brute.drawdowns, rtol=1e-9)
        assert greedy.feasible


def test_chain_drawdowns_are_stationary_points_of_welfare():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        betas = np.sort(np.exp(rng.uniform(0.0, 4.0, size=n)))
        betas[0] = 1.0
        costs = exp_team(betas)
        chain = greedy_wellordered_chain(costs, ROOMY)
        base = chain_welfare(chain, costs).total
        h = 1e-5
        for k in range(len(chain.drawdowns)):
            for sign in (+1.0, -1.0):
                bumped = list(chain.drawdowns)
                bumped[k] += sign * h
                reports = chain_welfare(replace(chain, drawdowns=tuple(bumped)), costs)
                # quadratic in d_k: any perturbation can only lower welfare
                assert reports.total <= base + 1e-10 * max(1.0, abs(base))
            up = list(chain.drawdowns)
            down = list(chain.drawdowns)
            up[k] += h
            down[k] -= h
            deriv = (
                chain_welfare(replace(chain, drawdowns=tuple(up)), costs).total
                - chain_welfare(replace(chain, drawdowns=tuple(down)), costs).total
            ) / (2 * h)
            assert abs(deriv) <= 1e-6 * max(1.0, abs(base))
            checked += 1
    assert checked >= 20


def test_planner_beats_equilibrium_welfare():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        betas = np.sort(np.exp(rng.uniform(0.0, 2.5, size=n)))
        costs = exp_team(betas)
        chain = optimal_chain(costs, ROOMY)
        sp_total = chain_welfare(chain, costs).total
        schedule = equilibrium_exit_schedule(range(n), costs, ROOMY)
        eq_total = equilibrium_payoffs(schedule, costs).total
        assert sp_total >= eq_total - 1e-10


def test_planner_drawdown_dominates_equilibrium_trigger_on_shared_alliances():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        betas = np.sort(np.exp(rng.uniform(0.0, 3.0, size=n)))
        costs = exp_team(betas)
        chain = greedy_wellordered_chain(costs, ROOMY)
        schedule = equilibrium_exit_schedule(range(n), costs, ROOMY)
        eq_by_alliance = {w.alliance: w.trigger for w in schedule.waves}
        for alliance, d in zip(chain.alliances, chain.drawdowns):
            if alliance in eq_by_alliance:
                assert d >= eq_by_alliance[alliance] - 1e-9


def test_brute_force_sums_chain_costs_once_per_alliance(monkeypatch):
    # C/S^2 is memoized per alliance: outside the scope solves and the welfare
    # of feasible chains, cost() runs at most once per member of each distinct
    # alliance, however many chain links reuse that alliance.
    import teamsearch.planner as planner_module

    inside, counted, solved = [0], [0], set()

    class CountingExponential(ScaledExponential):
        def cost(self, sigma):
            counted[0] += not inside[0]
            return super().cost(sigma)

    def uncounted(fn):
        def wrapped(*args):
            inside[0] += 1
            try:
                return fn(*args)
            finally:
                inside[0] -= 1
        return wrapped

    solve = uncounted(planner_module.planner_scopes)
    monkeypatch.setattr(
        planner_module, "planner_scopes", lambda *args: solved.add(args[0]) or solve(*args)
    )
    monkeypatch.setattr(planner_module, "chain_welfare", uncounted(planner_module.chain_welfare))
    costs = [CountingExponential(b=1.0, beta=beta) for beta in (3.0, 1.0, 5.0, 1.5, 2.0)]
    brute_force_optimal_chain(costs, ROOMY)
    bound = sum(len(alliance) for alliance in solved)
    links = sum(len(chain) for chain in enumerate_chains(range(5), wellordered=False))
    assert 0 < counted[0] <= bound
    assert links > 10 * bound


def mixed_unsorted_team(rng, family: str, n: int):
    # Every other agent is exponential.  Power costs have p = 2, whose planner
    # gap is flat; affine ones solve only at the upper scope bound, and only
    # when it is wide.  A quarter of the agents repeat an earlier one.  A team
    # that greedy_wellordered_chain would take is drawn again.
    from teamsearch.costs import ScaledPower
    from teamsearch.planner import _check_wellordered

    costs = []
    for i in range(n):
        if costs and rng.random() < 0.25:
            costs.append(costs[int(rng.integers(len(costs)))])
        elif family == "exponential" or i % 2 == 0:
            costs.append(ScaledExponential(b=float(rng.uniform(0.5, 2.0)),
                                           beta=float(np.exp(rng.uniform(0.0, 4.0)))))
        elif family == "power":
            costs.append(ScaledPower(a=float(np.exp(rng.uniform(0.0, 3.0))), p=2.0,
                                     beta=float(np.exp(rng.uniform(0.0, 2.0)))))
        else:
            a2 = float(np.exp(rng.uniform(-1.0, 1.0)))
            costs.append(AffineQuadratic(a2=a2, a1=a2 * float(rng.uniform(0.0, 0.02)),
                                         a0=a2 * float(rng.uniform(0.1, 2.0))))
    try:
        _check_wellordered(costs)
    except ValidationError:
        return costs
    return mixed_unsorted_team(rng, family, n)


def outcome(solve):
    try:
        return solve()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def assert_same_as_brute_force(costs, bounds):
    dp = outcome(lambda: optimal_chain(costs, bounds))
    brute = outcome(lambda: brute_force_optimal_chain(costs, bounds, wellordered=False)[0])
    if isinstance(brute, tuple):
        assert dp == brute
        return False
    assert dp.alliances == brute.alliances
    assert dp.drawdowns == brute.drawdowns
    assert dp == brute  # profiles, feasibility and trace too
    dp_report, brute_report = chain_welfare(dp, costs), chain_welfare(brute, costs)
    assert dp_report.per_agent == brute_report.per_agent
    assert dp_report.total == brute_report.total
    return True


@pytest.mark.parametrize("family", ["exponential", "power", "affine"])
def test_dp_chain_equals_brute_force_on_random_unsorted_teams(family):
    rng = np.random.default_rng({"exponential": 61, "power": 62, "affine": 63}[family])
    solved = raised = 0
    for k in range(16):
        n = int(rng.integers(2, 7))
        if assert_same_as_brute_force(mixed_unsorted_team(rng, family, n),
                                      ROOMY if k % 2 else WIDE):
            solved += 1
        else:
            raised += 1
    assert solved >= 3 and raised + solved == 16


def test_dp_chain_keeps_brute_force_pick_among_near_ties(monkeypatch):
    # With a wide tie tolerance many feasible chains reach the rescoring
    # step, so the pick rests on brute force's rule alone: the first chain,
    # in enumeration order, with the largest chain_welfare total.
    import teamsearch.planner as planner_module

    scored = [0]
    welfare = planner_module.chain_welfare
    monkeypatch.setattr(planner_module, "CHAIN_TIE_TOL", 0.5)
    monkeypatch.setattr(planner_module, "chain_welfare",
                        lambda *args: scored.__setitem__(0, scored[0] + 1) or welfare(*args))
    rng = np.random.default_rng(64)
    rescored = []
    for _ in range(12):
        betas = np.exp(rng.uniform(0.0, 6.0, size=int(rng.integers(3, 7))))
        betas[-1] = betas[0]  # a duplicate agent
        while np.all(np.diff(betas) >= 0.0):
            betas = rng.permutation(betas)
        costs = exp_team(betas)
        before = scored[0]
        optimal_chain(costs, WIDE)
        rescored.append(scored[0] - before)
        assert assert_same_as_brute_force(costs, WIDE)
    assert sum(count > 1 for count in rescored) >= 6


def test_dp_chain_refuses_equal_consecutive_drawdowns(monkeypatch):
    # Feasible chains need strictly increasing drawdowns.  Stub drawdowns
    # make one chain's second drawdown equal its first; with every chain
    # rescored, the DP must still skip it, as brute force does.
    import teamsearch.planner as planner_module

    table = {
        ((0, 1, 2), ()): 0.5,
        ((0, 1, 2), (0, 1)): 10.0,
        ((0, 1), ()): 10.0,
        ((0, 1), (0,)): 11.0,
        ((0,), ()): 11.5,
    }
    monkeypatch.setattr(planner_module, "_drawdown", lambda links, a, b: table.get((a, b), -1.0))
    monkeypatch.setattr(planner_module, "CHAIN_TIE_TOL", 0.99)
    costs = exp_team([2.0, 1.0, 3.0])
    dp = optimal_chain(costs, ROOMY)
    brute, _ = brute_force_optimal_chain(costs, ROOMY, wellordered=False)
    assert dp == brute


def test_optimum_over_all_nested_chains_uses_suffix_alliances():
    # The paper's claim for proportional costs ordered cheapest-last: the best
    # chain over *all* nested chains (the DP, exact up to MAX_CHAIN_AGENTS)
    # uses suffix alliances only, so it is the greedy chain.
    from teamsearch.planner import _dp_optimal_chain

    # 33 of these 40 chains have several phases (25-37 over seeds 0-9).
    rng = np.random.default_rng(0)
    multi_phase = 0
    for _ in range(40):
        n = int(rng.integers(2, 9))
        betas = np.sort(np.exp(rng.uniform(0.0, 7.0, size=n)))
        costs = exp_team(betas, b=float(rng.uniform(0.5, 2.0)))
        greedy = greedy_wellordered_chain(costs, ROOMY)
        dp = _dp_optimal_chain(costs, ROOMY, None)
        assert dp.alliances == greedy.alliances
        assert dp.drawdowns == greedy.drawdowns
        assert chain_welfare(dp, costs).total == chain_welfare(greedy, costs).total
        multi_phase += len(greedy.alliances) > 1
    assert multi_phase >= 30
