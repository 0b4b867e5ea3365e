"""Tests for the Monte Carlo path engine.

Statistical checks use frozen seeds; z-scores quoted in comments were
measured once at those seeds and all sit well inside the 3-SE gates.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from teamsearch.costs import ScaledExponential, ScopeBounds
from teamsearch.equilibrium import equilibrium_exit_schedule
from teamsearch.errors import SimulationError, ValidationError
from teamsearch.scopes import ScopeProfile
from teamsearch.simulate import (
    MAX_STEPS,
    Phase,
    SimConfig,
    simulate_equilibrium_vs_planner,
    simulate_phases,
    simulate_schedule,
    stopped_max_distribution_test,
)
from teamsearch.welfare import equilibrium_payoffs

WIDE = ScopeBounds(0.1, 10.0)


def single_agent_schedule():
    costs = [ScaledExponential(b=1.0)]
    return equilibrium_exit_schedule(range(1), costs, WIDE), costs


class FlatPlan:
    """Minimal phased plan: one alliance, one scope, one drawdown."""

    def __init__(self, scope: float, drawdown: float):
        self.scope = scope
        self.drawdown = drawdown

    def phases(self):
        profile = ScopeProfile(
            per_agent={0: self.scope}, total=self.scope,
            interior=True, degenerate=False, residual=0.0,
        )
        yield (0,), profile, self.drawdown


def test_single_agent_benchmark_moments():
    # sigma = 2, trigger d = 2/e^2, value 1/e^2, E[tau] = e^-4, E[M] = d
    schedule, costs = single_agent_schedule()
    config = SimConfig(dt=1e-4, n_paths=20_000, seed=1, bridge_correction=True)
    out = simulate_schedule(schedule, costs, config)
    assert out.censored_count == 0

    value = 1.0 / math.e**2  # 0.1353352832366127
    mean, se = out.mean_payoff(0), out.payoff_se(0)
    assert abs(mean - value) <= 3.0 * se  # measured z = -0.25

    mean_tau, mean_m, count = out.wave_stats(0)
    se_tau, se_m = out.wave_se(0)
    assert count == 20_000
    assert abs(mean_tau - math.exp(-4.0)) <= 3.0 * se_tau  # z = +1.82
    assert abs(mean_m - 2.0 / math.e**2) <= 3.0 * se_m  # z = +0.57


def test_fixed_horizon_running_max_mean():
    # E[max over [0,t]] = sigma * sqrt(2 t / pi); every path is censored at
    # t_max, so this also exercises horizon valuation at the agent's scale.
    costs = [ScaledExponential(b=1.0, beta=1e9)]  # negligible flow cost
    config = SimConfig(dt=2e-4, n_paths=10_000, seed=4, bridge_correction=True, t_max=0.25)
    out = simulate_schedule(FlatPlan(2.0, 1e9), costs, config)
    assert out.censored_count == 10_000
    assert out.warnings  # censoring fraction above the 1% threshold
    target = 2.0 * math.sqrt(2.0 * 0.25 / math.pi)  # 0.7978845608028654
    assert abs(out.mean_payoff(0) - target) <= 3.0 * out.payoff_se(0)  # z = +0.09


def test_stopped_max_distribution_ks_pass():
    config = SimConfig(dt=4e-4, n_paths=10_000, seed=3, bridge_correction=True)
    report = stopped_max_distribution_test(1.0, 1.0, config)
    assert report.n_samples == 10_000
    assert report.null_mean == 1.0
    assert report.passed  # measured p = 0.92
    assert report.pvalue > report.significance


def test_stopped_max_distribution_ks_rejects_wrong_null():
    config = SimConfig(dt=1e-3, n_paths=2_000, seed=3, bridge_correction=True)
    report = stopped_max_distribution_test(1.0, 1.0, config, null_mean=2.0)
    assert not report.passed  # measured p = 1.7e-120


def test_naive_mode_is_biased_at_coarse_dt():
    # Without the bridge correction the discrete maximum lags the true one,
    # so the stopped-max law fails KS at dt = 1e-3; this is the bias the
    # bridge mode exists to remove.
    config = SimConfig(dt=1e-3, n_paths=20_000, seed=3)
    report = stopped_max_distribution_test(1.0, 1.0, config)
    assert not report.passed  # measured p = 1.1e-07


def test_dt_halving_changes_mean_by_less_than_one_se():
    schedule, costs = single_agent_schedule()
    coarse = simulate_schedule(
        schedule, costs, SimConfig(dt=2e-4, n_paths=5_000, seed=2, bridge_correction=True)
    )
    fine = simulate_schedule(
        schedule, costs, SimConfig(dt=1e-4, n_paths=5_000, seed=2, bridge_correction=True)
    )
    diff = abs(coarse.mean_payoff(0) - fine.mean_payoff(0))
    assert diff < coarse.payoff_se(0)  # measured 0.20 se


def test_bit_exact_reproducibility_and_seed_sensitivity():
    schedule, costs = single_agent_schedule()
    config = SimConfig(dt=1e-3, n_paths=500, seed=11)
    a = simulate_schedule(schedule, costs, config)
    b = simulate_schedule(schedule, costs, config)
    assert a.equals(b)
    c = simulate_schedule(schedule, costs, SimConfig(dt=1e-3, n_paths=500, seed=12))
    assert not a.equals(c)


def test_two_wave_schedule_moments_and_order():
    # multipliers (1, 1.2, 8): wave 1 = agents {0,1} at 2 e^{-2/3},
    # wave 2 = agent 2 at 16 e^{-2}; per-agent values below are exact.
    costs = [ScaledExponential(b=1.0, beta=b) for b in (1.0, 1.2, 8.0)]
    schedule = equilibrium_exit_schedule(range(3), costs, WIDE)
    report = equilibrium_payoffs(schedule, costs)
    out = simulate_schedule(
        schedule, costs, SimConfig(dt=2e-4, n_paths=5_000, seed=0, bridge_correction=True)
    )
    # measured z = (+0.56, +0.55, +0.00)
    for agent in (0, 1, 2):
        assert abs(out.mean_payoff(agent) - report.per_agent[agent]) <= 3.0 * out.payoff_se(agent)

    fired_both = ~np.isnan(out.wave_tau).any(axis=0)
    assert fired_both.mean() > 0.98
    taus = out.wave_tau[:, fired_both]
    maxima = out.wave_M[:, fired_both]
    assert (taus[1] > taus[0]).all()
    assert (maxima[1] >= maxima[0]).all()  # running max never decreases
    assert (maxima[0] >= 0.0).all()  # stopped max is Exp(trigger): small values legal


def test_payoff_assembly_matches_per_path_reference():
    costs = [ScaledExponential(b=1.0, beta=b) for b in (1.0, 1.2, 8.0)]
    schedule = equilibrium_exit_schedule(range(3), costs, WIDE)
    out = simulate_schedule(schedule, costs, SimConfig(dt=1e-3, n_paths=64, seed=9))
    phases = list(schedule.phases())
    rates = [
        {i: costs[i].cost(prof.per_agent[i]) for i in alli} for alli, prof, _ in phases
    ]
    for p in range(64):
        t0, t1 = out.wave_tau[0, p], out.wave_tau[1, p]
        assert not math.isnan(t0) and not math.isnan(t1)
        expected = {
            0: out.wave_M[0, p] - rates[0][0] * t0,
            1: out.wave_M[0, p] - rates[0][1] * t0,
            2: out.wave_M[1, p] - rates[0][2] * t0 - rates[1][2] * (t1 - t0),
        }
        for agent, value in expected.items():
            assert out.payoffs[out.agents.index(agent), p] == pytest.approx(value, abs=1e-12)


def test_strict_mode_escalates_censoring():
    schedule, costs = single_agent_schedule()
    lax = SimConfig(dt=1e-3, n_paths=200, seed=5, t_max=0.02)
    out = simulate_schedule(schedule, costs, lax)
    assert out.censored_count > 2  # over the 1% threshold
    assert out.warnings
    assert np.isfinite(out.payoffs).all()
    strict = SimConfig(dt=1e-3, n_paths=200, seed=5, t_max=0.02, strict=True)
    with pytest.raises(SimulationError):
        simulate_schedule(schedule, costs, strict)


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(dt=0.0)
    with pytest.raises(ValidationError):
        SimConfig(n_paths=0)
    with pytest.raises(ValidationError):
        SimConfig(t_max=-1.0)
    with pytest.raises(ValidationError):
        SimConfig(seed=-1)


def test_equilibrium_vs_planner_comparison():
    # two symmetric agents: equilibrium total 2/e, planner total 8/e^2,
    # so the welfare gap is 8/e^2 - 2/e = 0.3469233829...
    costs = [ScaledExponential(b=1.0), ScaledExponential(b=1.0)]
    config = SimConfig(dt=2e-4, n_paths=5_000, seed=0, bridge_correction=True)
    cmp_ = simulate_equilibrium_vs_planner(costs, WIDE, config)
    assert sum(cmp_.eq_welfare.values()) == pytest.approx(2.0 / math.e, rel=1e-9)
    assert sum(cmp_.sp_welfare.values()) == pytest.approx(8.0 / math.e**2, rel=1e-9)
    analytic_gap = 8.0 / math.e**2 - 2.0 / math.e
    assert abs(cmp_.total_gap - analytic_gap) <= 3.0 * cmp_.total_gap_se  # z = +1.01
    for agent in (0, 1):
        assert abs(cmp_.gap_mean[agent] - analytic_gap / 2.0) <= 3.0 * cmp_.gap_se[agent]
    assert cmp_.total_gap > 0.0


def test_non_finite_step_and_horizon_budget_rejected_before_run():
    for kwargs in ({"dt": math.inf}, {"t_max": math.inf}):
        with pytest.raises(ValidationError, match="finite"):
            SimConfig(**kwargs)
    phases = [Phase(alliance=(0,), scope=1.0, trigger=1.0, rates={0: 0.0})]
    # 50 expected run lengths of 1.0 at this dt are far over the budget.
    with pytest.raises(ValidationError, match="budget"):
        simulate_phases(phases, (0,), SimConfig(dt=50.0 / MAX_STEPS / 2, n_paths=1))
    with pytest.raises(ValidationError, match="budget"):
        simulate_phases(phases, (0,), SimConfig(dt=1e-300, t_max=1e10, n_paths=1))
