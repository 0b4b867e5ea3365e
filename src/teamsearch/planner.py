"""Socially optimal alliance chains: recursive drawdowns, greedy and brute force.

For a nested chain A_1 > A_2 > ... > A_K the planner's optimal stop drawdown
of phase k is m_k / (2 (C_k/S_k^2 - C_{k+1}/S_{k+1}^2)) where m_k agents exit
after phase k, C is the alliance's total cost rate at planner scopes, and S
its total scope (the empty successor contributes zero).  With proportional
costs ordered cheapest-last, the optimal chain uses only suffix alliances and
is found greedily by repeated argmax over terminal drawdowns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .costs import CostSpec, ScopeBounds
from .errors import SolverError, ValidationError
from .scopes import Alliance, ProfileCache, ScopeProfile, as_alliance, planner_scopes
from .welfare import WelfareReport, chain_welfare

ARGMAX_TIE_TOL = 1e-12
WELLORDERED_ENUM_CAP = 10
GENERAL_ENUM_CAP = 6


@dataclass(frozen=True)
class AllianceChain:
    """Nested alliances with planner scope profiles and stop drawdowns."""

    alliances: tuple[Alliance, ...]
    drawdowns: tuple[float, ...]
    profiles: tuple[ScopeProfile, ...]
    feasible: bool
    trace: tuple[int, ...] = ()

    def phases(self) -> Iterator[tuple[Alliance, ScopeProfile, float]]:
        return zip(self.alliances, self.profiles, self.drawdowns)


def _drawdown(cache: ProfileCache, current: Alliance, successor: Alliance) -> float:
    exiting = len(current) - len(successor)
    denom = 2.0 * (cache.cost_per_speed(current) - cache.cost_per_speed(successor))
    if denom == 0.0:
        return math.inf
    return exiting / denom


def planner_drawdown(
    current: Iterable[int],
    successor: Iterable[int],
    costs: Sequence[CostSpec],
    bounds: ScopeBounds,
) -> float:
    """Optimal stop drawdown for one chain link; successor may be empty.

    Dominated links yield non-positive or infinite values, which are returned
    as-is (chain feasibility is judged by the caller).
    """
    cur = as_alliance(current, len(costs))
    suc = as_alliance(successor, len(costs))
    if not cur:
        raise ValueError("current alliance must be non-empty")
    if not set(suc) < set(cur):
        raise ValueError(f"successor {suc} must be a proper subset of {cur}")
    return _drawdown(ProfileCache(planner_scopes, costs, bounds), cur, suc)


def _build_chain(
    cache: ProfileCache, alliances: Sequence[Alliance], trace: tuple[int, ...] = ()
) -> AllianceChain:
    drawdowns = []
    for k, alliance in enumerate(alliances):
        successor = alliances[k + 1] if k + 1 < len(alliances) else ()
        drawdowns.append(_drawdown(cache, alliance, successor))
    feasible = all(math.isfinite(d) and d > 0.0 for d in drawdowns) and all(
        a < b for a, b in zip(drawdowns, drawdowns[1:])
    )
    return AllianceChain(
        alliances=tuple(alliances),
        drawdowns=tuple(drawdowns),
        profiles=tuple(cache.profile(a) for a in alliances),
        feasible=feasible,
        trace=trace,
    )


def _check_wellordered(costs: Sequence[CostSpec]) -> None:
    keys = {spec.proportional_key() for spec in costs}
    if len(keys) != 1:
        raise ValidationError("costs must be proportional (one family, scaled copies)")
    mult = [spec.cost_multiplier() for spec in costs]
    if any(a > b for a, b in zip(mult, mult[1:])):
        raise ValidationError("cost multipliers must be non-decreasing in agent index")


def greedy_wellordered_chain(costs: Sequence[CostSpec], bounds: ScopeBounds) -> AllianceChain:
    """Optimal chain for proportional costs via the iterative argmax recursion.

    Starting from the empty continuation, repeatedly select the suffix
    alliance with the largest link drawdown; each argmax must be unique.
    """
    _check_wellordered(costs)
    n = len(costs)
    cache = ProfileCache(planner_scopes, costs, bounds)
    suffix = lambda j: tuple(range(j, n))

    picks: list[int] = []
    upper = n  # consider suffixes starting strictly below this index
    successor: Alliance = ()
    while upper > 0:
        values = [(_drawdown(cache, suffix(j), successor), j) for j in range(upper)]
        values.sort(key=lambda t: (-t[0], t[1]))
        if len(values) > 1:
            top, second = values[0][0], values[1][0]
            if top - second <= ARGMAX_TIE_TOL * max(1.0, abs(top)):
                raise SolverError(
                    f"greedy argmax tie between suffixes {values[0][1]} and {values[1][1]}"
                    f" (drawdown {top!r}); expected a unique maximizer"
                )
        pick = values[0][1]
        picks.append(pick)
        successor = suffix(pick)
        upper = pick

    alliances = [suffix(j) for j in reversed(picks)]
    return _build_chain(cache, alliances, trace=tuple(picks))


def enumerate_chains(team: Iterable[int], wellordered: bool = True) -> list[tuple[Alliance, ...]]:
    """All candidate chain skeletons (nested alliances starting at the full team)."""
    members = as_alliance(team)
    n = len(members)
    if wellordered:
        if n > WELLORDERED_ENUM_CAP:
            raise ValueError(f"well-ordered enumeration capped at {WELLORDERED_ENUM_CAP} agents")
        chains = []
        breaks = list(range(1, n))
        for r in range(n):
            for combo in combinations(breaks, r):
                chains.append(tuple(members[j:] for j in (0, *combo)))
        return chains
    if n > GENERAL_ENUM_CAP:
        raise ValueError(f"general enumeration capped at {GENERAL_ENUM_CAP} agents")

    def descend(alliance: Alliance) -> list[tuple[Alliance, ...]]:
        out = [(alliance,)]
        for r in range(1, len(alliance)):
            for sub in combinations(alliance, r):
                for tail in descend(tuple(sub)):
                    out.append((alliance, *tail))
        return out

    return descend(members)


def brute_force_optimal_chain(
    costs: Sequence[CostSpec],
    bounds: ScopeBounds,
    wellordered: bool | None = None,
) -> tuple[AllianceChain, WelfareReport]:
    """Welfare-maximal feasible chain by exhaustive enumeration (oracle)."""
    if wellordered is None:
        try:
            _check_wellordered(costs)
            wellordered = True
        except ValidationError:
            wellordered = False
    cache = ProfileCache(planner_scopes, costs, bounds)
    best: tuple[AllianceChain, WelfareReport] | None = None
    for skeleton in enumerate_chains(range(len(costs)), wellordered):
        chain = _build_chain(cache, skeleton)
        if not chain.feasible:
            continue
        report = chain_welfare(chain, costs)
        if best is None or report.total > best[1].total:
            best = (chain, report)
    if best is None:
        raise SolverError("no feasible chain found (the single-alliance chain should exist)")
    return best


def optimal_chain(costs: Sequence[CostSpec], bounds: ScopeBounds) -> AllianceChain:
    """Planner chain: greedy for proportional ordered costs, brute force otherwise."""
    try:
        return greedy_wellordered_chain(costs, bounds)
    except ValidationError:
        return brute_force_optimal_chain(costs, bounds, wellordered=False)[0]
