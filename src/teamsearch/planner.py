"""Socially optimal alliance chains: recursive drawdowns, greedy and brute force.

For a nested chain A_1 > A_2 > ... > A_K the planner's optimal stop drawdown
of phase k is m_k / (2 (C_k/S_k^2 - C_{k+1}/S_{k+1}^2)) where m_k agents exit
after phase k, C is the alliance's total cost rate at planner scopes, and S
its total scope (the empty successor contributes zero).  With proportional
costs ordered cheapest-last, the optimal chain uses only suffix alliances and
is found greedily by repeated argmax over terminal drawdowns.  Otherwise the
welfare at these drawdowns telescopes to 1/2 sum_k m_k d_k, so the best chain
is a longest path over links with increasing drawdowns, found by a DP.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Iterable, Iterator, Sequence

from .costs import CostSpec, ScopeBounds
from .errors import SolverError, ValidationError
from .scopes import Alliance, ProfileCache, ScopeProfile, as_alliance
from .welfare import WelfareReport, chain_welfare

ARGMAX_TIE_TOL = 1e-12
WELLORDERED_ENUM_CAP = 10
GENERAL_ENUM_CAP = 6
# Largest team the DP chain search takes when the greedy recursion does not
# apply; its links grow as 3**n.  Checked before any solve.
MAX_CHAIN_AGENTS = 10
# Chains whose telescoped welfare is within this relative gap of the DP's
# optimum are rescored by chain_welfare, so ties break as in brute force.
CHAIN_TIE_TOL = 1e-9


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


class _Links:
    """One cost list's planner profiles and C/S^2 by alliance, each found once."""

    def __init__(
        self, costs: Sequence[CostSpec], bounds: ScopeBounds, cache: ProfileCache | None = None
    ):
        self.cache = cache or ProfileCache("sp")
        self.costs = costs
        self.bounds = bounds
        self._cost_per_speed: dict[Alliance, float] = {(): 0.0}

    def profile(self, alliance: Alliance) -> ScopeProfile:
        return self.cache.profile(alliance, self.costs, self.bounds)

    def cost_per_speed(self, alliance: Alliance) -> float:
        if alliance not in self._cost_per_speed:
            prof = self.profile(alliance)
            total_cost = sum(self.costs[i].cost(prof.per_agent[i]) for i in alliance)
            self._cost_per_speed[alliance] = total_cost / (prof.total * prof.total)
        return self._cost_per_speed[alliance]


def _drawdown(links: _Links, current: Alliance, successor: Alliance) -> float:
    exiting = len(current) - len(successor)
    denom = 2.0 * (links.cost_per_speed(current) - links.cost_per_speed(successor))
    if denom == 0.0:
        return math.inf
    return exiting / denom


def planner_drawdown(
    current: Iterable[int],
    successor: Iterable[int],
    costs: Sequence[CostSpec],
    bounds: ScopeBounds,
    cache: ProfileCache | None = None,
) -> float:
    """Optimal stop drawdown for one chain link; successor may be empty.

    Dominated links yield non-positive or infinite values, which are returned
    as-is (chain feasibility is judged by the caller).  ``cache``, a
    ``ProfileCache("sp")``, may hold the link's profiles already.
    """
    cur = as_alliance(current, len(costs))
    suc = as_alliance(successor, len(costs))
    if not cur:
        raise ValueError("current alliance must be non-empty")
    if not set(suc) < set(cur):
        raise ValueError(f"successor {suc} must be a proper subset of {cur}")
    return _drawdown(_Links(costs, bounds, cache), cur, suc)


def _build_chain(
    links: _Links, alliances: Sequence[Alliance], trace: tuple[int, ...] = ()
) -> AllianceChain:
    drawdowns = []
    for k, alliance in enumerate(alliances):
        successor = alliances[k + 1] if k + 1 < len(alliances) else ()
        drawdowns.append(_drawdown(links, alliance, successor))
    feasible = all(math.isfinite(d) and d > 0.0 for d in drawdowns) and all(
        a < b for a, b in zip(drawdowns, drawdowns[1:])
    )
    return AllianceChain(
        alliances=tuple(alliances),
        drawdowns=tuple(drawdowns),
        profiles=tuple(links.profile(a) for a in alliances),
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


def greedy_wellordered_chain(
    costs: Sequence[CostSpec], bounds: ScopeBounds, cache: ProfileCache | None = None
) -> AllianceChain:
    """Optimal chain for proportional costs via the iterative argmax recursion.

    Starting from the empty continuation, repeatedly select the suffix
    alliance with the largest link drawdown; each argmax must be unique.
    """
    _check_wellordered(costs)
    n = len(costs)
    links = _Links(costs, bounds, cache)
    suffix = lambda j: tuple(range(j, n))
    links.cache.prefetch([(suffix(j), costs) for j in range(n)], bounds)

    picks: list[int] = []
    upper = n  # consider suffixes starting strictly below this index
    successor: Alliance = ()
    while upper > 0:
        values = [(_drawdown(links, suffix(j), successor), j) for j in range(upper)]
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
    return _build_chain(links, alliances, trace=tuple(picks))


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
    links = _Links(costs, bounds)
    best: tuple[AllianceChain, WelfareReport] | None = None
    for skeleton in enumerate_chains(range(len(costs)), wellordered):
        chain = _build_chain(links, skeleton)
        if not chain.feasible:
            continue
        report = chain_welfare(chain, costs)
        if best is None or report.total > best[1].total:
            best = (chain, report)
    if best is None:
        raise SolverError("no feasible chain found (the single-alliance chain should exist)")
    return best


def _dp_optimal_chain(
    costs: Sequence[CostSpec], bounds: ScopeBounds, cache: ProfileCache | None
) -> AllianceChain:
    """The chain ``brute_force_optimal_chain`` picks, by a DP over links.

    F(A, B), the best value sum m_k d_k of a chain going on from link (A, B),
    is |A - B| d(A, B) plus the best F(B, C) with d(B, C) > d(A, B); F(A, ()) is
    |A| d(A, ()).  Chains within CHAIN_TIE_TOL of the optimum are walked in
    ``enumerate_chains`` order and the first with the largest welfare is kept.
    """
    n = len(costs)
    if n > MAX_CHAIN_AGENTS:
        raise ValidationError(f"{n} agents: teams over {MAX_CHAIN_AGENTS} agents need "
                              "proportional costs with non-decreasing multipliers")

    def successors(a: Alliance) -> list[Alliance]:  # the chain's end first, as enumerated
        return [()] + [b for r in range(1, len(a)) for b in combinations(a, r)]

    links = _Links(costs, bounds, cache)
    team = tuple(range(n))
    # Solved in the order brute force first reaches them, so a failing solve
    # (one the prefetch left unsolved) raises the error brute force would.
    order = [team, *successors(team)[1:]]
    links.cache.prefetch([(a, costs) for a in order], bounds)
    for alliance in order:
        links.cost_per_speed(alliance)
    by_size = order[1:] + order[:1]  # smallest alliances first

    best: dict[tuple[Alliance, Alliance], tuple[float, float]] = {}  # link -> (d, F)
    # Per alliance: its links' sorted drawdowns, and the suffix maxima of their F.
    tails: dict[Alliance, tuple[list[float], list[float]]] = {(): ([], [0.0])}
    for a in by_size:
        for b in successors(a):
            d = _drawdown(links, a, b)
            if math.isfinite(d) and d > 0.0:
                ds, tops = tails[b]
                best[a, b] = d, (len(a) - len(b)) * d + tops[bisect_right(ds, d)]
        found = sorted(best[a, b] for b in successors(a) if (a, b) in best)
        tops = list(accumulate(reversed([f for _, f in found]), max, initial=-math.inf))
        tails[a] = [d for d, _ in found], tops[::-1]
    target = tails[team][1][0]
    if target == -math.inf:
        raise SolverError("no feasible chain found (the single-alliance chain should exist)")
    floor = target - CHAIN_TIE_TOL * target

    def walk(chain: tuple[Alliance, ...], gathered: float, last: float):
        a = chain[-1]
        for b in successors(a):
            d, f = best.get((a, b), (0.0, -math.inf))
            if d > last and gathered + f >= floor:
                yield from walk((*chain, b), gathered + (len(a) - len(b)) * d, d) if b else [chain]

    candidates = (_build_chain(links, chain) for chain in walk((team,), 0.0, 0.0))
    # max keeps the first of equal totals, as brute force's strict comparison does.
    return max(candidates, key=lambda chain: chain_welfare(chain, costs).total)


def optimal_chain(
    costs: Sequence[CostSpec], bounds: ScopeBounds, cache: ProfileCache | None = None
) -> AllianceChain:
    """Planner chain: greedy for proportional ordered costs, the DP otherwise.

    ``cache``, a ``ProfileCache("sp")``, may share solved profiles between
    chains; by default each chain solves its alliances once.
    """
    try:
        return greedy_wellordered_chain(costs, bounds, cache)
    except ValidationError:
        return _dp_optimal_chain(costs, bounds, cache)
