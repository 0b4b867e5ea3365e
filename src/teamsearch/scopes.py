"""Scope solvers: equilibrium fixed point and planner equal-marginal system.

Both solvers reduce to a one-dimensional root-find.  For the equilibrium,
each agent's best reply to an alliance total S is the bound-clipped scope
where 2*c/c' matches S, and the fixed point is a zero of
h(S) = sum of replies - S on [n*lo, n*hi].  For the planner, scopes are
parametrized by a common marginal cost lambda and the optimality condition
2*total_cost = lambda * total_scope is solved for lambda.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .costs import CostSpec, ScopeBounds
from .errors import SolverError

Alliance = tuple[int, ...]

SCAN_POINTS = 512
ROOT_TOL = 1e-12
# Grid values of a gap within this of zero are exact zeros.
ZERO_TOL = 1e-12
# A profile counts as interior when first-order residuals are below this
# (scaled by the magnitude of the matched quantity).
INTERIOR_TOL = 1e-9


def as_alliance(members: Iterable[int], team_size: int | None = None) -> Alliance:
    """Normalize an agent index collection into a sorted, duplicate-free tuple."""
    out = tuple(sorted(int(i) for i in members))
    if len(set(out)) != len(out):
        raise ValueError(f"duplicate agent indices in alliance {out}")
    if out and out[0] < 0:
        raise ValueError("agent indices must be non-negative")
    if team_size is not None and out and out[-1] >= team_size:
        raise ValueError(f"agent index {out[-1]} outside team of size {team_size}")
    return out


@dataclass(frozen=True)
class ScopeProfile:
    """Solved per-agent scopes for one alliance.

    ``interior`` reports whether every agent's first-order condition holds at
    the solution (clipping may still touch a bound exactly without binding).
    ``degenerate`` marks the constant-ratio case where the per-agent split is
    indeterminate and the equal-treatment rule was applied.  ``residual`` is
    the defining-equation residual at the returned solution.
    """

    per_agent: dict[int, float]
    total: float
    interior: bool
    degenerate: bool
    residual: float
    warnings: tuple[str, ...] = ()

    def scopes(self, members: Sequence[int] | None = None) -> np.ndarray:
        keys = list(self.per_agent) if members is None else list(members)
        return np.array([self.per_agent[i] for i in keys], dtype=float)


def _roots(fn, grid: np.ndarray) -> tuple[list[float], np.ndarray]:
    """Sorted, de-duplicated zeros of the vector function ``fn``, and ``fn`` on ``grid``.

    Grid points with |fn| <= ZERO_TOL are exact zeros.  All other sign changes
    are refined together by k-section: each round evaluates ``fn`` once on
    SCAN_POINTS interior points of every open bracket and keeps the first
    sub-interval with a sign change, until its width is within ROOT_TOL.
    """
    values = fn(grid)
    zero = np.abs(values) <= ZERO_TOL
    roots = list(grid[zero])
    idx = np.flatnonzero(~zero[:-1] & ~zero[1:] & ~(values[:-1] * values[1:] > 0))
    a, b, fa = grid[idx], grid[idx + 1], values[idx]
    frac = np.arange(1, SCAN_POINTS + 1) / (SCAN_POINTS + 1)
    while True:
        mid = 0.5 * (a + b)
        done = (mid <= a) | (mid >= b) | (b - a <= ROOT_TOL * np.maximum(1.0, np.abs(mid)))
        roots.extend(mid[done])
        a, b, fa = a[~done], b[~done], fa[~done]
        if not a.size:
            break
        pts = np.column_stack([a, a[:, None] + (b - a)[:, None] * frac, b])
        # The last column stands in for the right end, where the sign differs.
        f = np.column_stack([fn(pts[:, 1:-1].ravel()).reshape(len(a), SCAN_POINTS), -fa])
        k = np.argmax((f == 0.0) | (fa[:, None] * f < 0), axis=1)
        rows = np.arange(len(a))
        exact = f[rows, k] == 0.0
        roots.extend(pts[rows, k + 1][exact])
        a, b, fa = pts[rows, k][~exact], pts[rows, k + 1][~exact], fa[~exact]
    roots = sorted(float(r) for r in roots)
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 1e-9 * max(1.0, abs(r)):
            deduped.append(r)
    return deduped, values


def _reply_grid(spec: CostSpec, bounds: ScopeBounds, totals: np.ndarray) -> np.ndarray:
    """Vectorized best-reply scope for one agent across candidate totals."""
    rc = spec.ratio_constant
    if rc is not None:
        return np.where(rc > totals, bounds.hi, bounds.lo)
    matched = np.asarray(spec.scope_at_ratio(totals), dtype=float)
    # No scope matches the ratio: the value is monotone in scope, so the
    # agent runs to whichever bound the sign of (ratio - S) pushes toward.
    fallback = np.where(np.asarray(spec.ratio(bounds.hi)) > totals, bounds.hi, bounds.lo)
    clipped = np.clip(matched, bounds.lo, bounds.hi)
    return np.where(np.isfinite(matched), clipped, fallback)


def equilibrium_scopes(
    alliance: Iterable[int], costs: Sequence[CostSpec], bounds: ScopeBounds
) -> ScopeProfile:
    """Solve the within-alliance equilibrium scope system with bound clipping.

    Constant-ratio agents (exponential costs) whose ratio equals the solved
    total have indeterminate individual scopes; the slack left by all other
    agents is split equally among them and the profile is flagged degenerate
    when two or more agents share it.
    """
    members = as_alliance(alliance, len(costs))
    if not members:
        raise ValueError("alliance must be non-empty")
    n = len(members)
    specs = {i: costs[i] for i in members}
    warnings: list[str] = []

    grid = np.linspace(n * bounds.lo, n * bounds.hi, SCAN_POINTS)
    counts: dict[CostSpec, int] = {}
    for spec in specs.values():
        counts[spec] = counts.get(spec, 0) + 1

    def reply_gap(totals: np.ndarray) -> np.ndarray:
        return sum(cnt * _reply_grid(spec, bounds, totals) for spec, cnt in counts.items()) - totals

    roots, h_grid = _roots(reply_gap, grid)
    if not roots:
        raise SolverError(
            "no consistent scope profile: reply-gap has no zero on "
            f"[{grid[0]:.6g}, {grid[-1]:.6g}] (ends {h_grid[0]:.3g}, {h_grid[-1]:.3g})"
        )
    if np.all(np.abs(h_grid) <= ZERO_TOL):
        warnings.append(
            f"reply gap is zero on all of [{grid[0]:.6g}, {grid[-1]:.6g}]; "
            "every total is a fixed point; selected smallest"
        )
    elif len(roots) > 1:
        warnings.append(
            "multiple candidate totals " + str([round(r, 12) for r in roots]) + "; selected smallest"
        )
    total = roots[0]

    # Equal-treatment split for constant-ratio agents pinned at the root.
    pool = [
        i
        for i in members
        if specs[i].ratio_constant is not None
        and abs(specs[i].ratio_constant - total) <= 1e-9 * max(1.0, abs(total))
    ]
    if pool:
        total = specs[pool[0]].ratio_constant  # exact jump location
    per_agent = {i: float(_reply_grid(specs[i], bounds, total)) for i in members if i not in pool}
    if pool:
        share = (total - sum(per_agent.values())) / len(pool)
        clipped_share = bounds.clip(share)
        if clipped_share != share:
            warnings.append("degenerate split clipped to bounds; no exact fixed point exists")
        for i in pool:
            per_agent[i] = clipped_share
    per_agent = {i: per_agent[i] for i in members}

    realized = sum(per_agent.values())
    residual = abs(realized - total)
    if not pool and residual > 1e-9 * max(1.0, abs(total)):
        raise SolverError(
            "reply gap crosses zero only at a discontinuity; no consistent scope "
            f"profile (candidate total {total:.6g}, replies sum to {realized:.6g})"
        )
    interior = all(
        abs(specs[i].ratio(per_agent[i]) - realized) <= INTERIOR_TOL * max(1.0, realized)
        for i in members
    )
    return ScopeProfile(
        per_agent=per_agent,
        total=realized,
        interior=interior,
        degenerate=len(pool) >= 2,
        residual=residual,
        warnings=tuple(warnings),
    )


def planner_scopes(
    alliance: Iterable[int], costs: Sequence[CostSpec], bounds: ScopeBounds
) -> ScopeProfile:
    """Solve the planner's common-marginal-cost scope system for one alliance."""
    members = as_alliance(alliance, len(costs))
    if not members:
        raise ValueError("alliance must be non-empty")
    specs = {i: costs[i] for i in members}
    warnings: list[str] = []

    lam_lo = 0.999 * min(spec.marginal(bounds.lo) for spec in specs.values())
    lam_hi = 1.001 * max(spec.marginal(bounds.hi) for spec in specs.values())
    lam_grid = np.geomspace(lam_lo, lam_hi, SCAN_POINTS)

    def scopes_at(lam) -> dict[int, np.ndarray]:
        return {
            i: np.clip(np.asarray(spec.inverse_marginal(lam), dtype=float), bounds.lo, bounds.hi)
            for i, spec in specs.items()
        }

    def gap_vec(lam: np.ndarray) -> np.ndarray:
        sig = scopes_at(lam)
        cost_sum = sum(np.asarray(specs[i].cost(sig[i])) for i in members)
        scope_sum = sum(sig[i] for i in members)
        return 2.0 * cost_sum - lam * scope_sum

    roots, g_grid = _roots(gap_vec, lam_grid)
    if not roots:
        raise SolverError(
            "no planner multiplier with zero optimality gap on "
            f"[{lam_lo:.6g}, {lam_hi:.6g}] (gap at ends {g_grid[0]:.3g}, {g_grid[-1]:.3g})"
        )
    lam = roots[0]
    # Every grid zero is a root, so only several roots can hold a run of zeros.
    flat = []
    if len(roots) > 1:
        zero = np.abs(g_grid) <= ZERO_TOL
        flat = np.flatnonzero(zero[:-1] & zero[1:])
    if len(flat):
        # A run of zero gaps is a continuum of optimal multipliers; take the
        # run's left edge, where the gap leaves zero, refined between grid points.
        j = flat[0]
        end = j + int(np.argmin(np.append(zero[j:], False))) - 1
        edge = lam_grid[j]
        if j > 0:
            side = np.sign(g_grid[j - 1])
            edges, _ = _roots(
                lambda x: np.where(np.abs(gap_vec(x)) <= ZERO_TOL, -side, side),
                lam_grid[j - 1:j + 1],
            )
            edge = edges[0]
        lam = min(lam, edge)
        warnings.append(
            f"optimality gap is zero for multipliers {edge:.6g} to {lam_grid[end]:.6g}; "
            "every one is optimal; selected smallest"
        )
    elif len(roots) > 1:
        warnings.append(
            "multiple candidate multipliers "
            + str([round(r, 12) for r in roots])
            + "; selected smallest"
        )

    sig = {i: float(s) for i, s in scopes_at(np.asarray(lam)).items()}
    total = sum(sig.values())
    residual = abs(2.0 * sum(specs[i].cost(sig[i]) for i in members) - lam * total)
    if residual > 1e-10 * max(1.0, lam * total):
        raise SolverError(f"planner optimality residual {residual:.3g} out of tolerance")
    interior = all(
        abs(specs[i].marginal(sig[i]) - lam) <= INTERIOR_TOL * max(1.0, lam) for i in members
    )
    return ScopeProfile(
        per_agent=sig,
        total=total,
        interior=interior,
        degenerate=False,
        residual=residual,
        warnings=tuple(warnings),
    )


class ProfileCache:
    """Profiles from ``solve(alliance, costs, bounds)`` and their C/S^2, once per alliance."""

    def __init__(self, solve, costs: Sequence[CostSpec], bounds: ScopeBounds):
        self.solve = solve
        self.costs = costs
        self.bounds = bounds
        self._profiles: dict[Alliance, ScopeProfile] = {}
        self._cost_per_speed: dict[Alliance, float] = {(): 0.0}

    def profile(self, alliance: Alliance) -> ScopeProfile:
        if alliance not in self._profiles:
            self._profiles[alliance] = self.solve(alliance, self.costs, self.bounds)
        return self._profiles[alliance]

    def cost_per_speed(self, alliance: Alliance) -> float:
        if alliance not in self._cost_per_speed:
            prof = self.profile(alliance)
            total_cost = sum(self.costs[i].cost(prof.per_agent[i]) for i in alliance)
            self._cost_per_speed[alliance] = total_cost / (prof.total * prof.total)
        return self._cost_per_speed[alliance]


def interior_capacity(
    cost: CostSpec, bounds: ScopeBounds, max_team_size: int = 256
) -> int:
    """Largest team of identical-cost agents whose equilibrium stays interior.

    Scans every size up to ``max_team_size`` because interiority need not be
    monotone in team size (the per-agent scope can leave through either bound).
    """
    best = 0
    for n in range(1, max_team_size + 1):
        try:
            profile = equilibrium_scopes(range(n), [cost] * n, bounds)
        except SolverError:
            continue
        if profile.interior:
            best = n
    return best
