"""Tests for the late-exit penalty extension."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy import integrate

from teamsearch.costs import ScaledExponential, ScopeBounds
from teamsearch.equilibrium import equilibrium_exit_schedule
from teamsearch.errors import ValidationError
from teamsearch.penalty import (
    PenaltyConfig,
    expected_penalty_payoffs,
    penalty_policy,
    simulate_penalty,
)
from teamsearch.simulate import SimConfig, simulate_phases, simulate_schedule

WIDE = ScopeBounds(0.1, 10.0)
PAIR = (ScaledExponential(b=1.0), ScaledExponential(b=1.0, beta=20.0))


def test_policy_frozen_values():
    policy = penalty_policy(PenaltyConfig(alpha=0.5, costs=PAIR, bounds=WIDE))
    assert policy.leader == 0 and policy.follower == 1
    assert policy.trigger == pytest.approx(2.0 / math.e, rel=1e-12)
    assert policy.continuation_drawdown == pytest.approx(20.0 / math.e**2, rel=1e-12)
    assert policy.continues
    assert policy.threshold == pytest.approx(0.7175939500232421, rel=1e-9)
    assert policy.continuation_probability == pytest.approx(0.6229250471164016, rel=1e-9)

    # independent check: the threshold is the indifference point between
    # taking M now and continuing for alpha * (M + gain) - solo costs
    sigma = policy.solo_profile.per_agent[1]
    rate = PAIR[1].cost(sigma)
    d, dc, m = policy.trigger, policy.continuation_drawdown, policy.threshold
    continue_value = 0.5 * (m + dc - d) - rate * (dc**2 - d**2) / sigma**2
    assert continue_value == pytest.approx(m, rel=1e-12)


def test_team_phase_is_alpha_invariant():
    profiles = []
    for alpha in (0.0, 0.3, 0.7, 1.0):
        policy = penalty_policy(PenaltyConfig(alpha=alpha, costs=PAIR, bounds=WIDE))
        profiles.append((policy.team_profile.per_agent, policy.team_profile.total, policy.trigger))
    assert all(p == profiles[0] for p in profiles)


def test_threshold_monotone_and_regime_boundary():
    # continuation exists iff alpha * 40 / e^2 > 2 / e, i.e. alpha > e / 20
    cut = math.e / 20.0
    below = penalty_policy(PenaltyConfig(alpha=cut - 1e-3, costs=PAIR, bounds=WIDE))
    above = penalty_policy(PenaltyConfig(alpha=cut + 1e-3, costs=PAIR, bounds=WIDE))
    assert not below.continues and below.threshold == 0.0
    assert below.continuation_probability == 0.0
    assert above.continues and above.threshold > 0.0

    thresholds = [
        penalty_policy(PenaltyConfig(alpha=a, costs=PAIR, bounds=WIDE)).threshold
        for a in (0.2, 0.4, 0.6, 0.8, 0.95)
    ]
    assert all(b > a for a, b in zip(thresholds, thresholds[1:]))

    full = penalty_policy(PenaltyConfig(alpha=1.0, costs=PAIR, bounds=WIDE))
    assert math.isinf(full.threshold)
    assert full.continuation_probability == 1.0


def test_analytic_payoffs_against_quadrature():
    config = PenaltyConfig(alpha=0.5, costs=PAIR, bounds=WIDE)
    policy = penalty_policy(config)
    values = expected_penalty_payoffs(policy)
    # leader: 2/e - e * (2/e)^2 / 4 = 1/e exactly
    assert values[0] == pytest.approx(1.0 / math.e, rel=1e-12)
    assert values[1] == pytest.approx(0.8470005670710576, rel=1e-9)

    # independent oracle: integrate the follower's conditional value over
    # the Exp(trigger) law of the maximum at the first exit
    d, dc, m_bar, alpha = policy.trigger, policy.continuation_drawdown, policy.threshold, 0.5
    sigma = policy.solo_profile.per_agent[1]
    solo_rate = PAIR[1].cost(sigma)
    team_rate = PAIR[1].cost(policy.team_profile.per_agent[1])

    def conditional(m: float) -> float:
        if m >= m_bar:
            return m
        return alpha * (m + dc - d) - solo_rate * (dc**2 - d**2) / sigma**2

    reward, _ = integrate.quad(
        lambda m: conditional(m) * math.exp(-m / d) / d, 0.0, 60.0 * d,
        points=[m_bar], limit=200,
    )
    expected = reward - team_rate * d**2 / policy.team_profile.total**2
    assert values[1] == pytest.approx(expected, rel=1e-8)


def test_joint_regime_and_symmetric_pair():
    config = PenaltyConfig(alpha=0.1, costs=PAIR, bounds=WIDE)  # below e/20
    policy = penalty_policy(config)
    assert not policy.continues
    values = expected_penalty_payoffs(policy)
    team_rate = PAIR[1].cost(policy.team_profile.per_agent[1])
    joint = policy.trigger - team_rate * policy.trigger**2 / policy.team_profile.total**2
    assert values[1] == pytest.approx(joint, rel=1e-12)

    sym = (ScaledExponential(b=1.0), ScaledExponential(b=1.0))
    policy = penalty_policy(PenaltyConfig(alpha=1.0, costs=sym, bounds=WIDE))
    assert policy.leader == 0  # tie broken by index; both exit together
    assert not policy.continues  # solo drawdown 2/e^2 never beats 2/e


def test_alpha_zero_first_exit_matches_baseline_pathwise():
    schedule = equilibrium_exit_schedule(range(2), list(PAIR), WIDE)
    sim = SimConfig(dt=1e-3, n_paths=2_000, seed=6)
    base = simulate_schedule(schedule, list(PAIR), sim)
    pen = simulate_penalty(PenaltyConfig(alpha=0.0, costs=PAIR, bounds=WIDE), sim)
    assert pen.wave_tau.shape[0] == 1  # single joint wave
    assert np.array_equal(pen.wave_tau[0], base.wave_tau[0], equal_nan=True)
    assert np.array_equal(pen.wave_M[0], base.wave_M[0], equal_nan=True)


def test_alpha_one_bit_matches_unpenalized_schedule():
    schedule = equilibrium_exit_schedule(range(2), list(PAIR), WIDE)
    sim = SimConfig(dt=1e-3, n_paths=2_000, seed=6)
    base = simulate_schedule(schedule, list(PAIR), sim)
    pen = simulate_penalty(PenaltyConfig(alpha=1.0, costs=PAIR, bounds=WIDE), sim)
    assert pen.equals(base)


def test_mc_continuation_frequency_and_payoffs():
    config = PenaltyConfig(alpha=0.5, costs=PAIR, bounds=WIDE)
    policy = penalty_policy(config)
    values = expected_penalty_payoffs(policy)
    out = simulate_penalty(config, SimConfig(dt=5e-4, n_paths=10_000, seed=1, bridge_correction=True))
    assert out.censored_count == 0

    freq = float((out.collapse_wave < 0).mean())
    se = math.sqrt(freq * (1.0 - freq) / out.n_paths)
    assert abs(freq - policy.continuation_probability) <= 3.0 * se  # z = -0.44

    # measured z = (+0.40, +0.17)
    for agent in (0, 1):
        assert abs(out.mean_payoff(agent) - values[agent]) <= 3.0 * out.payoff_se(agent)


def test_config_validation():
    with pytest.raises(ValidationError):
        PenaltyConfig(alpha=-0.1, costs=PAIR, bounds=WIDE)
    with pytest.raises(ValidationError):
        PenaltyConfig(alpha=1.1, costs=PAIR, bounds=WIDE)
    with pytest.raises(ValidationError):
        PenaltyConfig(alpha=math.nan, costs=PAIR, bounds=WIDE)
    with pytest.raises(ValidationError):
        PenaltyConfig(alpha=0.5, costs=(PAIR[0],), bounds=WIDE)

@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
def test_policy_phases_are_the_simulated_plan(alpha):
    config = PenaltyConfig(alpha=alpha, costs=PAIR, bounds=WIDE)
    policy = penalty_policy(config)
    team = policy.phases[0]
    assert team.alliance == (0, 1) and team.scope == policy.team_profile.total
    assert team.trigger == policy.trigger and team.exit_scale == 1.0
    assert team.rates == {i: PAIR[i].cost(policy.team_profile.per_agent[i]) for i in (0, 1)}
    if not policy.continues:
        assert len(policy.phases) == 1 and team.threshold == math.inf
    else:
        assert team.threshold == policy.threshold
        (solo,) = policy.phases[1:]
        sigma = policy.solo_profile.per_agent[policy.follower]
        assert solo.alliance == (policy.follower,) and solo.scope == sigma
        assert solo.trigger == policy.continuation_drawdown and solo.exit_scale == alpha
        assert solo.rates == {policy.follower: PAIR[policy.follower].cost(sigma)}
    sim = SimConfig(dt=1e-3, n_paths=200, seed=3)
    assert simulate_penalty(config, sim).equals(simulate_phases(policy.phases, sim))


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0])
def test_expected_payoffs_read_rates_from_the_phases(alpha):
    calls = [0]

    class CountingExponential(ScaledExponential):
        def cost(self, sigma):
            calls[0] += 1
            return super().cost(sigma)

    costs = tuple(CountingExponential(b=spec.b, beta=spec.beta) for spec in PAIR)
    config = PenaltyConfig(alpha=alpha, costs=costs, bounds=WIDE)
    policy = penalty_policy(config)
    calls[0] = 0
    values = expected_penalty_payoffs(policy)
    assert calls[0] == 0
    assert values == expected_penalty_payoffs(
        penalty_policy(PenaltyConfig(alpha=alpha, costs=PAIR, bounds=WIDE)))


@pytest.mark.parametrize("alpha", [0.0, 0.1, math.e / 20.0 - 1e-3])
def test_continuation_probability_is_exactly_zero_without_continuation(alpha):
    policy = penalty_policy(PenaltyConfig(alpha=alpha, costs=PAIR, bounds=WIDE))
    assert not policy.continues and policy.threshold == 0.0
    p = policy.continuation_probability
    assert p == 0.0 and math.copysign(1.0, p) == 1.0  # +0.0, as 1 - exp(-0 / d) gives
