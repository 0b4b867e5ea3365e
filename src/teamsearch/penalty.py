"""Two-agent late-exit penalty: exits after the first get a scaled reward.

For a leader/follower pair, the team phase is unchanged by the penalty
factor alpha (the profile solves the same first-order conditions), so the
first exit fires at the usual trigger.  The follower then weighs exiting
with the leader (full reward, no discount) against continuing alone for a
reward scaled by alpha.  Continuing from running maximum M is worth it
exactly when M is below a threshold; the threshold follows from
indifference at the switch point and the memoryless gain/cost of a solo
continuation phase.

``penalty_policy`` keeps this plan as ``welfare.Phase`` values (the team
phase, then the follower's solo phase), which the closed-form payoffs and
the path engine both read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .costs import CostSpec, ScopeBounds
from .equilibrium import equilibrium_drawdowns
from .errors import ValidationError
from .scopes import ScopeProfile, equilibrium_scopes
from .simulate import SimConfig, SimOutcome, simulate_phases
from .welfare import Phase, phase_stats


@dataclass(frozen=True)
class PenaltySpec:
    """Late-exit reward factor alpha in [0, 1] (the scenario's penalty section)."""

    alpha: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and 0.0 <= self.alpha <= 1.0):
            raise ValidationError("alpha must lie in [0, 1]")


@dataclass(frozen=True)
class PenaltyConfig(PenaltySpec):
    costs: tuple[CostSpec, CostSpec]
    bounds: ScopeBounds

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.costs) != 2:
            raise ValidationError("the penalty model covers exactly two agents")


@dataclass(frozen=True)
class PenaltyPolicy:
    """Equilibrium play under the late-exit penalty."""

    leader: int
    follower: int
    team_profile: ScopeProfile
    trigger: float  # first-exit drawdown, alpha-invariant
    solo_profile: ScopeProfile
    continuation_drawdown: float  # solo stop gap, already scaled by alpha
    threshold: float  # continue alone iff M at first exit < threshold (0.0: never)
    continues: bool  # whether a continuation regime exists at all
    phases: tuple[Phase, ...]  # the team phase, then the solo phase if the follower continues

    @property
    def continuation_probability(self) -> float:
        """P(follower outlasts the leader) = P(M_tau < threshold), M_tau ~ Exp(trigger)."""
        return 1.0 - math.exp(-self.threshold / self.trigger)


def penalty_policy(config: PenaltyConfig) -> PenaltyPolicy:
    costs = list(config.costs)
    team_profile = equilibrium_scopes((0, 1), costs, config.bounds)
    total = team_profile.total
    rates = {i: costs[i].cost(team_profile.per_agent[i]) for i in (0, 1)}
    drawdowns = equilibrium_drawdowns(team_profile, costs).per_agent
    leader = min((0, 1), key=drawdowns.__getitem__)  # agent 0 on a tie
    follower = 1 - leader
    trigger = drawdowns[leader]

    solo_profile = equilibrium_scopes((follower,), costs, config.bounds)
    sigma = solo_profile.per_agent[follower]
    rate = costs[follower].cost(sigma)
    continuation_drawdown = config.alpha * sigma * sigma / (2.0 * rate)

    continues = continuation_drawdown > trigger
    if not continues:
        threshold = 0.0
    elif config.alpha == 1.0:
        threshold = math.inf
    else:
        gap = continuation_drawdown - trigger
        threshold = (rate / (sigma * sigma)) * gap * gap / (1.0 - config.alpha)

    phases = [Phase((0, 1), total, trigger, rates, threshold=threshold if continues else math.inf)]
    if continues:
        phases.append(Phase((follower,), sigma, continuation_drawdown, {follower: rate},
                            exit_scale=config.alpha))
    return PenaltyPolicy(
        leader=leader,
        follower=follower,
        team_profile=team_profile,
        trigger=trigger,
        solo_profile=solo_profile,
        continuation_drawdown=continuation_drawdown,
        threshold=threshold,
        continues=continues,
        phases=tuple(phases),
    )


def expected_penalty_payoffs(policy: PenaltyPolicy) -> dict[int, float]:
    """Closed-form expected payoffs for leader and follower, read from the policy's phases."""
    team = policy.phases[0]
    d = team.trigger
    team_duration = phase_stats(0.0, d, team.scope)[1]

    leader_value = d - team.rates[policy.leader] * team_duration

    value = -team.rates[policy.follower] * team_duration
    if not policy.continues:
        value += d  # joint exit pays the full maximum
    else:
        solo = policy.phases[1]
        alpha, dc, sigma = solo.exit_scale, solo.trigger, solo.scope
        solo_rate = solo.rates[policy.follower]
        m_bar = team.threshold
        stay = math.exp(-m_bar / d)  # P(exit with leader): 0.0 for an infinite m_bar
        q = 1.0 - stay
        # E[M 1{M >= m_bar}] for M ~ Exp(d) is (m_bar + d) * stay
        truncated_high = (m_bar + d) * stay if stay else 0.0
        value += truncated_high  # exits with the leader: undiscounted
        value += alpha * (d - truncated_high)  # continues: keeps alpha * M ...
        value += q * alpha * (dc - d)  # ... plus alpha * expected extra gain
        value -= q * solo_rate * (dc * dc - d * d) / (sigma * sigma)
    return {policy.leader: leader_value, policy.follower: value}


def simulate_penalty(config: PenaltyConfig, sim: SimConfig) -> SimOutcome:
    """Monte Carlo run of the penalty equilibrium policy."""
    return simulate_phases(penalty_policy(config).phases, sim)
