"""Equilibrium drawdown boundaries and the deterministic exit-wave cascade.

Inside an active alliance with total scope S, agent i's undominated stopping
rule is "exit when the gap M - X reaches d_i = S^2 / (2 c_i(sigma_i))".  The
binding (smallest) drawdown triggers a wave; removing those agents changes
scopes and can drag further drawdowns at or below the same trigger, so the
wave grows until stable, and the remainder restarts with a larger trigger.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .costs import CostSpec, ScopeBounds
from .errors import SolverError
from .scopes import Alliance, ProfileCache, ScopeProfile, as_alliance, equilibrium_scopes

# Drawdowns within this (scaled) tolerance of the minimum exit together.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class DrawdownSet:
    """Per-agent drawdown sizes for one alliance, with the binding trigger."""

    alliance: Alliance
    per_agent: dict[int, float]
    trigger: float
    first_exiters: Alliance


@dataclass(frozen=True)
class Wave:
    """One exit wave: who leaves, at which trigger, out of which alliance."""

    exiting: Alliance
    trigger: float
    alliance: Alliance
    profile: ScopeProfile


@dataclass(frozen=True)
class ExitSchedule:
    """Ordered exit waves partitioning the team, triggers strictly increasing."""

    team: Alliance
    waves: tuple[Wave, ...]

    @property
    def triggers(self) -> tuple[float, ...]:
        return tuple(w.trigger for w in self.waves)

    def wave_of(self, agent: int) -> int:
        for k, wave in enumerate(self.waves):
            if agent in wave.exiting:
                return k
        raise KeyError(f"agent {agent} not in schedule")

    def phases(self) -> Iterator[tuple[Alliance, ScopeProfile, float]]:
        """(active alliance, scope profile, stop drawdown) per phase, in order."""
        for wave in self.waves:
            yield wave.alliance, wave.profile, wave.trigger


def equilibrium_drawdowns(
    alliance: Iterable[int], profile: ScopeProfile, costs: Sequence[CostSpec]
) -> DrawdownSet:
    """Drawdown sizes d_i = S^2 / (2 c_i(sigma_i)) for a solved alliance."""
    members = as_alliance(alliance, len(costs))
    if not members:
        raise ValueError("alliance must be non-empty")
    total = profile.total
    per_agent: dict[int, float] = {}
    for i in members:
        d = total * total / (2.0 * costs[i].cost(profile.per_agent[i]))
        if not math.isfinite(d) or d <= 0.0:
            raise SolverError(f"non-finite or non-positive drawdown {d} for agent {i}")
        per_agent[i] = d
    trigger = min(per_agent.values())
    first = tuple(i for i in members if per_agent[i] - trigger <= TIE_TOL * max(1.0, trigger))
    return DrawdownSet(alliance=members, per_agent=per_agent, trigger=trigger, first_exiters=first)


def equilibrium_exit_schedule(
    team: Iterable[int],
    costs: Sequence[CostSpec],
    bounds: ScopeBounds,
    cache: ProfileCache | None = None,
) -> ExitSchedule:
    """Deterministic exit-wave schedule for a team via the cascade recursion.

    Each wave starts from the binding drawdown of the current alliance and
    grows as long as some remaining agent's recomputed drawdown sits at or
    below that same trigger (she would have to stop immediately as well).
    ``cache``, a ProfileCache of ``equilibrium_scopes``, may share solved
    profiles between schedules; by default each schedule solves its
    alliances once.
    """
    members = as_alliance(team, len(costs))
    if not members:
        raise ValueError("team must be non-empty")
    cache = cache or ProfileCache(equilibrium_scopes)

    def solved(alliance: Alliance) -> ScopeProfile:
        try:
            return cache.profile(alliance, costs, bounds)
        except SolverError as exc:
            raise SolverError(f"scope solve failed for sub-alliance {alliance}: {exc}") from exc

    waves: list[Wave] = []
    current = members
    prev_trigger = -math.inf
    while current:
        profile = solved(current)
        dset = equilibrium_drawdowns(current, profile, costs)
        d_star = dset.trigger
        exiting = set(dset.first_exiters)
        rest = tuple(i for i in current if i not in exiting)
        while rest:
            rest_dset = equilibrium_drawdowns(rest, solved(rest), costs)
            pulled = {
                j
                for j in rest
                if rest_dset.per_agent[j] - d_star <= TIE_TOL * max(1.0, d_star)
            }
            if not pulled:
                break
            exiting |= pulled
            rest = tuple(i for i in current if i not in exiting)
        if d_star <= prev_trigger:
            raise SolverError(
                f"wave triggers failed to increase: {d_star} after {prev_trigger}"
            )
        waves.append(
            Wave(exiting=as_alliance(exiting), trigger=d_star, alliance=current, profile=profile)
        )
        prev_trigger = d_star
        current = rest
    return ExitSchedule(team=members, waves=tuple(waves))


def wellordered_exit_order_check(schedule: ExitSchedule, multipliers: Sequence[float]) -> bool:
    """True when no cheaper agent (larger multiplier) ever exits before a costlier one."""
    wave_of = {i: k for k, wave in enumerate(schedule.waves) for i in wave.exiting}
    agents = sorted(wave_of)
    for i in agents:
        for j in agents:
            if multipliers[i] < multipliers[j] and wave_of[i] > wave_of[j]:
                return False
    return True
