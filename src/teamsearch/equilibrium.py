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
from .scopes import Alliance, ProfileCache, ScopeProfile, as_alliance

# Drawdowns within this (scaled) tolerance of the minimum exit together.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class DrawdownSet:
    """Per-agent drawdown sizes for one alliance, with the binding trigger."""

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


def equilibrium_drawdowns(profile: ScopeProfile, costs: Sequence[CostSpec]) -> DrawdownSet:
    """Drawdown sizes d_i = S^2 / (2 c_i(sigma_i)) for the members of a solved profile."""
    members = tuple(profile.per_agent)
    total = profile.total
    per_agent: dict[int, float] = {}
    for i in members:
        d = total * total / (2.0 * costs[i].cost(profile.per_agent[i]))
        if not math.isfinite(d) or d <= 0.0:
            raise SolverError(f"non-finite or non-positive drawdown {d} for agent {i}")
        per_agent[i] = d
    trigger = min(per_agent.values())
    first = tuple(i for i in members if per_agent[i] - trigger <= TIE_TOL * max(1.0, trigger))
    return DrawdownSet(per_agent=per_agent, trigger=trigger, first_exiters=first)


def exit_schedules(
    problems: Iterable[tuple[Iterable[int], Sequence[CostSpec]]], bounds: ScopeBounds
) -> Iterator[ExitSchedule]:
    """Deterministic exit-wave schedule of each (team, costs) problem, via the cascade.

    All schedules share one memo of equilibrium profiles, keyed by reply
    pattern, and each is built, and its problem read, only when asked for.
    """
    cache = ProfileCache("eq")

    def drawdowns(alliance: Alliance) -> tuple[ScopeProfile, DrawdownSet]:  # the loop's costs
        try:
            profile = cache.profile(alliance, costs, bounds)
        except SolverError as exc:
            shown = alliance if len(alliance) <= 10 else (  # keep a large team's line short
                f"({alliance[0]}, {alliance[1]}, {alliance[2]}, ..., {alliance[-1]})"
                f" of {len(alliance)} members")
            raise SolverError(f"scope solve failed for sub-alliance {shown}: {exc}") from exc
        return profile, equilibrium_drawdowns(profile, costs)

    for team, costs in problems:
        members = as_alliance(team, len(costs))
        if not members:
            raise ValueError("team must be non-empty")
        waves: list[Wave] = []
        # A remainder that pulls no one in is the next alliance, already solved.
        rest, settled = members, drawdowns(members)
        while rest:
            current, (profile, dset) = rest, settled
            d_star = dset.trigger
            exiting = set(dset.first_exiters)
            rest = tuple(i for i in current if i not in exiting)
            tie = TIE_TOL * max(1.0, d_star)
            while rest:
                settled = drawdowns(rest)
                pulled = {j for j in rest if settled[1].per_agent[j] - d_star <= tie}
                if not pulled:
                    break
                exiting |= pulled
                rest = tuple(i for i in current if i not in exiting)
            if waves and d_star <= waves[-1].trigger:
                raise SolverError(
                    f"wave triggers failed to increase: {d_star} after {waves[-1].trigger}"
                )
            waves.append(Wave(exiting=as_alliance(exiting), trigger=d_star, alliance=current,
                              profile=profile))
        yield ExitSchedule(waves=tuple(waves))


def equilibrium_exit_schedule(
    team: Iterable[int], costs: Sequence[CostSpec], bounds: ScopeBounds
) -> ExitSchedule:
    """Deterministic exit-wave schedule for a team; see ``exit_schedules``."""
    return next(exit_schedules([(team, costs)], bounds))


def wellordered_exit_order_check(schedule: ExitSchedule, multipliers: Sequence[float]) -> bool:
    """True when no cheaper agent (larger multiplier) ever exits before a costlier one."""
    wave_of = {i: k for k, wave in enumerate(schedule.waves) for i in wave.exiting}
    agents = sorted(wave_of)
    for i in agents:
        for j in agents:
            if multipliers[i] < multipliers[j] and wave_of[i] > wave_of[j]:
                return False
    return True
