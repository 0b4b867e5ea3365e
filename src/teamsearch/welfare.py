"""Phase plans and their closed-form expected payoffs.

A plan runs in phases: alliance A_k searches at total scope S_k until the
drawdown M - X first reaches d_k, and the agents in A_k but not A_{k+1} exit
then.  ``plan_phases`` checks a plan once and gives its ``Phase`` list, with
each member's flow-cost rate; ``chain_welfare`` and the path engine in
``simulate`` both read that list.  ``chain_exits`` gives who exits after each.

Evaluation decomposes the run into phases between consecutive stop drawdowns.
For a driftless path with total scope S stopped when the gap M - X first
reaches d, starting from gap g < d, optional-stopping identities give the
expected maximum gain d - g and the expected duration (d^2 - g^2) / S^2.
An agent exiting at wave k therefore collects d_k minus her accumulated
expected flow costs over phases 1..k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .costs import CostSpec
from .errors import ValidationError
from .scopes import Alliance


@dataclass(frozen=True)
class Phase:
    """``alliance`` searches at total ``scope`` until the drawdown reaches ``trigger``,
    member i paying flow cost ``rates[i]``; a maximum of at least ``threshold`` then
    ends the run for everyone, and ``exit_scale`` scales the reward of agents whose
    last phase this is."""

    alliance: Alliance
    scope: float
    trigger: float
    rates: dict[int, float]
    exit_scale: float = 1.0
    threshold: float = math.inf


def plan_phases(plan, costs: Sequence[CostSpec]) -> list[Phase]:
    """The phases of ``plan``, whose ``phases()`` yields (alliance, scope profile,
    stop drawdown) in order: alliances must strictly shrink, and drawdowns be
    finite and strictly increase."""
    phases: list[Phase] = []
    prev = 0.0
    for alliance, profile, drawdown in plan.phases():
        if phases and not set(alliance) < set(phases[-1].alliance):
            raise ValidationError("phase alliances must strictly shrink")
        if not math.isfinite(drawdown) or drawdown <= prev:
            raise ValidationError(
                f"phase {len(phases)} drawdown {drawdown} must exceed the previous {prev}"
            )
        rates = {i: costs[i].cost(profile.per_agent[i]) for i in alliance}
        phases.append(Phase(tuple(alliance), profile.total, drawdown, rates))
        prev = drawdown
    if not phases:
        raise ValidationError("plan has no phases")
    return phases


def chain_exits(alliances: Sequence[Sequence[int]]) -> list[Alliance]:
    """Who exits after each phase: each alliance's members not in the next one, sorted."""
    sets = [tuple(a) for a in alliances] + [()]
    return [tuple(sorted(set(a) - set(b))) for a, b in zip(sets, sets[1:])]


@dataclass(frozen=True)
class PhaseStat:
    alliance: Alliance
    expected_gain: float
    expected_duration: float
    cost_by_agent: dict[int, float]


@dataclass(frozen=True)
class WelfareReport:
    per_agent: dict[int, float]
    total: float
    per_phase: tuple[PhaseStat, ...]


def phase_stats(start_gap: float, stop_gap: float, total_scope: float) -> tuple[float, float]:
    """Expected (max gain, duration) of one drawdown phase from gap start to stop."""
    if total_scope <= 0.0:
        raise ValidationError("total scope must be positive")
    if start_gap < 0.0:
        raise ValidationError("start gap must be non-negative")
    if start_gap >= stop_gap:
        raise ValidationError(
            f"start gap {start_gap} must lie strictly below stop gap {stop_gap}"
        )
    gain = stop_gap - start_gap
    duration = (stop_gap * stop_gap - start_gap * start_gap) / (total_scope * total_scope)
    return gain, duration


def chain_welfare(plan, costs: Sequence[CostSpec]) -> WelfareReport:
    """Expected payoff per agent for a phased plan started at (M, X) = (0, 0)."""
    phases = plan_phases(plan, costs)
    per_agent: dict[int, float] = {}
    accrued: dict[int, float] = {}
    stats: list[PhaseStat] = []
    prev_gap = 0.0
    for phase, exiting in zip(phases, chain_exits([p.alliance for p in phases])):
        gain, duration = phase_stats(prev_gap, phase.trigger, phase.scope)
        phase_cost = {i: rate * duration for i, rate in phase.rates.items()}
        for i, value in phase_cost.items():
            accrued[i] = accrued.get(i, 0.0) + value
        stats.append(PhaseStat(phase.alliance, gain, duration, phase_cost))
        for i in exiting:
            per_agent[i] = phase.trigger - accrued[i]
        prev_gap = phase.trigger

    return WelfareReport(
        per_agent=per_agent, total=sum(per_agent.values()), per_phase=tuple(stats)
    )


def equilibrium_payoffs(schedule, costs: Sequence[CostSpec]) -> WelfareReport:
    """Per-agent equilibrium values; identical mechanics to chain_welfare."""
    return chain_welfare(schedule, costs)


def solo_value(cost: CostSpec, scope: float) -> float:
    """Value sigma^2/(4c) of searching alone at a given scope with optimal stopping."""
    return scope * scope / (4.0 * cost.cost(scope))
