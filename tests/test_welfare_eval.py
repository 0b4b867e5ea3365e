"""Tests for phase decomposition and closed-form welfare."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pytest

from teamsearch.costs import ScaledExponential, ScopeBounds
from teamsearch.equilibrium import equilibrium_exit_schedule
from teamsearch.errors import ValidationError
from teamsearch.scopes import ScopeProfile, equilibrium_scopes
from teamsearch.welfare import (
    chain_welfare,
    equilibrium_payoffs,
    phase_stats,
    solo_value,
)

WIDE = ScopeBounds(0.1, 10.0)


def exp_team(betas, b=1.0):
    return [ScaledExponential(b=b, beta=float(beta)) for beta in betas]


@dataclass
class FakePlan:
    items: list

    def phases(self):
        return list(self.items)


def make_profile(per_agent):
    total = sum(per_agent.values())
    return ScopeProfile(per_agent=dict(per_agent), total=total, interior=True,
                        degenerate=False, residual=0.0)


def test_phase_stats_values():
    assert phase_stats(0.0, 1.0, 1.0) == (1.0, 1.0)
    gain, duration = phase_stats(0.5, 1.0, 2.0)
    assert gain == 0.5
    assert duration == 0.1875
    # near-coincident gaps approach (0, 0)
    gain, duration = phase_stats(1.0, 1.0 + 1e-12, 1.0)
    assert gain == pytest.approx(0.0, abs=1e-11)
    assert duration == pytest.approx(0.0, abs=1e-11)


def test_phase_stats_rejects_bad_gaps():
    with pytest.raises(ValidationError):
        phase_stats(1.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        phase_stats(2.0, 1.0, 1.0)
    with pytest.raises(ValidationError):
        phase_stats(-0.1, 1.0, 1.0)
    with pytest.raises(ValidationError):
        phase_stats(0.0, 1.0, 0.0)


def test_single_agent_value():
    costs = exp_team([1.0])
    schedule = equilibrium_exit_schedule([0], costs, WIDE)
    report = equilibrium_payoffs(schedule, costs)
    # payoff = d - c d^2 / S^2 = 1/e^2 = 0.1353352832366127
    assert report.per_agent[0] == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert report.total == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert report.per_phase[0].expected_gain == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
    assert report.per_phase[0].expected_duration == pytest.approx(math.exp(-4.0), rel=1e-12)


def test_three_agent_single_wave_welfare():
    costs = exp_team([1.0, 1.2, 2.0])
    schedule = equilibrium_exit_schedule([0, 1, 2], costs, WIDE)
    report = equilibrium_payoffs(schedule, costs)
    base = math.exp(-2.0 / 3.0)
    # per-agent payoff e^{-2/3} (2 - 1/beta)
    assert report.per_agent[0] == pytest.approx(base * 1.0, rel=1e-12)
    assert report.per_agent[1] == pytest.approx(base * (2.0 - 1.0 / 1.2), rel=1e-12)
    assert report.per_agent[2] == pytest.approx(base * 1.5, rel=1e-12)
    assert report.total == pytest.approx(1.8825294364528378, rel=1e-10)
    assert report.total == pytest.approx(sum(report.per_agent.values()), abs=1e-12)


def test_two_wave_welfare():
    costs = exp_team([1.0, 1.2, 8.0])
    schedule = equilibrium_exit_schedule([0, 1, 2], costs, WIDE)
    report = equilibrium_payoffs(schedule, costs)
    base = math.exp(-2.0 / 3.0)
    assert report.per_agent[0] == pytest.approx(base, rel=1e-12)
    assert report.per_agent[1] == pytest.approx(base * (2.0 - 1.0 / 1.2), rel=1e-12)
    # lone survivor continues from gap d1, not from scratch:
    # payoff = 8 e^{-2} + (e^{2/3} - e^{-2/3})/8 = 1.2619718811456618
    survivor = 8.0 * math.exp(-2.0) + (math.exp(2.0 / 3.0) - math.exp(-2.0 / 3.0)) / 8.0
    assert report.per_agent[2] == pytest.approx(survivor, rel=1e-10)
    assert len(report.per_phase) == 2
    dur1 = report.per_phase[0].expected_duration
    dur2 = report.per_phase[1].expected_duration
    d1 = 2.0 * base
    d2 = 16.0 * math.exp(-2.0)
    assert dur1 == pytest.approx(d1 * d1 / 4.0, rel=1e-10)
    assert dur2 == pytest.approx((d2 * d2 - d1 * d1) / 4.0, rel=1e-10)


def test_chain_welfare_rejects_infeasible_plans():
    profile = make_profile({0: 1.0, 1: 1.0})
    smaller = make_profile({0: 2.0})
    with pytest.raises(ValidationError):
        chain_welfare(FakePlan([]), exp_team([1.0, 1.0]))
    with pytest.raises(ValidationError):
        # non-increasing drawdowns
        chain_welfare(
            FakePlan([((0, 1), profile, 1.0), ((0,), smaller, 0.5)]),
            exp_team([1.0, 1.0]),
        )
    with pytest.raises(ValidationError):
        # alliances must strictly shrink
        chain_welfare(
            FakePlan([((0,), smaller, 1.0), ((0, 1), profile, 2.0)]),
            exp_team([1.0, 1.0]),
        )


def test_participation_beats_solo_search():
    rng = np.random.default_rng(20240813)
    for _ in range(50):
        n = int(rng.integers(2, 7))
        b = float(rng.uniform(0.5, 2.0))
        betas = np.sort(rng.uniform(1.0, 5.0, size=n))
        costs = exp_team(betas, b=b)
        schedule = equilibrium_exit_schedule(range(n), costs, WIDE)
        report = equilibrium_payoffs(schedule, costs)
        for i in range(n):
            solo = equilibrium_exit_schedule([i], costs, WIDE)
            solo_report = equilibrium_payoffs(solo, costs)
            assert report.per_agent[i] >= solo_report.per_agent[i] - 1e-12
            sigma = solo.waves[0].profile.per_agent[i]
            assert solo_report.per_agent[i] == pytest.approx(
                solo_value(costs[i], sigma), rel=1e-10
            )


def test_chain_welfare_telescopes_to_half_the_exit_drawdowns():
    # At the planner's drawdowns d_k = m_k / (2 (g_k - g_{k+1})), g = C/S^2,
    # the phase costs telescope: total welfare = 1/2 sum_k m_k d_k, where m_k
    # agents exit at d_k.  Any feasible chain, optimal or not, obeys it.
    from teamsearch.planner import _build_chain, _Links, enumerate_chains

    rng = np.random.default_rng(2718)
    bounds = ScopeBounds(0.01, 50.0)
    checked, linked = 0, 0
    for _ in range(12):
        n = int(rng.integers(2, 6))
        costs = [ScaledExponential(b=float(rng.uniform(0.5, 2.0)),
                                   beta=float(np.exp(rng.uniform(0.0, 6.0)))) for _ in range(n)]
        links = _Links(costs, bounds)
        for skeleton in enumerate_chains(range(n), wellordered=False):
            chain = _build_chain(links, skeleton)
            if not chain.feasible:
                continue
            exits = [len(a) - len(b) for a, b in zip(chain.alliances, chain.alliances[1:] + ((),))]
            half = 0.5 * sum(m * d for m, d in zip(exits, chain.drawdowns))
            assert chain_welfare(chain, costs).total == pytest.approx(half, rel=1e-9)
            checked += 1
            linked += len(exits) > 1
    assert checked >= 20 and linked >= 8


def test_welfare_and_simulation_check_a_plan_alike():
    # Both read the plan through plan_phases, so a bad plan fails them the same way.
    from teamsearch.simulate import SimConfig, simulate_schedule

    team = make_profile({0: 1.0, 1: 1.0})
    solo = make_profile({0: 2.0})
    costs = exp_team([1.0, 1.0])
    for items, message in (
        ([], "plan has no phases"),
        ([((0, 1), team, 1.0), ((0,), solo, 0.5)], "phase 1 drawdown 0.5 must exceed"),
        ([((0, 1), team, math.inf)], "phase 0 drawdown inf"),
        ([((0,), solo, 1.0), ((0, 1), team, 2.0)], "strictly shrink"),
    ):
        with pytest.raises(ValidationError, match=message):
            chain_welfare(FakePlan(items), costs)
        with pytest.raises(ValidationError, match=message):
            simulate_schedule(FakePlan(items), costs, SimConfig(n_paths=1))


@pytest.mark.parametrize(
    "alliances, exits",
    [
        (((0, 1, 2), (1, 2), (2,)), [(0,), (1,), (2,)]),
        (((2, 0, 1),), [(0, 1, 2)]),
        (((0, 1, 2, 3), (3, 0), (0,)), [(1, 2), (3,), (0,)]),
    ],
    ids=["three_phases", "one_phase", "non_suffix"],
)
def test_chain_exits_lists_who_leaves_after_each_phase(alliances, exits):
    from teamsearch.welfare import chain_exits

    assert chain_exits(alliances) == exits
