"""Scope solvers: equilibrium fixed point and planner equal-marginal system.

Both solvers reduce to a one-dimensional root-find.  For the equilibrium,
each agent's best reply to an alliance total S is the bound-clipped scope
where 2*c/c' matches S, and the fixed point is a zero of
h(S) = sum of replies - S on [n*lo, n*hi].  For the planner, scopes are
parametrized by a common marginal cost lambda and the optimality condition
2*total_cost = lambda * total_scope is solved for lambda.

Problems are solved in batched passes of (problems x grid) arrays, each
distinct cost spec evaluated once per round over all its rows; a single solve
is a pass of one problem.  Each row does the arithmetic of a solve alone, so
a profile does not depend on its batch.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .costs import CostSpec, ScopeBounds
from .errors import SolverError, TeamSearchError

Alliance = tuple[int, ...]

SCAN_POINTS = 512
ROOT_TOL = 1e-12
# Grid values of a gap within this of zero are exact zeros.
ZERO_TOL = 1e-12
# A profile counts as interior when first-order residuals are below this
# (scaled by the magnitude of the matched quantity).
INTERIOR_TOL = 1e-9
# Most problems one batched pass solves together; it bounds the pass's
# (problems x SCAN_POINTS) temporaries.
PASS_ROWS = 16


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


def _roots(fn, grid: np.ndarray) -> tuple[list, np.ndarray]:
    """Sorted, de-duplicated zeros of ``fn`` in each row of ``grid``, and ``fn`` on ``grid``.

    ``grid`` holds one grid per row, and ``fn(points, rows)`` evaluates the
    function of row ``rows[j]`` on ``points[j]``.  A 1-D ``grid`` is one row
    of a function of the points alone; its zeros and values are returned.

    Grid points with |fn| <= ZERO_TOL are exact zeros.  All other sign changes
    of all rows are refined together by k-section: each round evaluates ``fn``
    once on SCAN_POINTS interior points of every open bracket and keeps the
    first sub-interval with a sign change, until its width is within ROOT_TOL.
    """
    if grid.ndim == 1:
        roots, values = _roots(lambda x, rows: fn(x.ravel()).reshape(x.shape), grid[None])
        return roots[0], values[0]
    values = fn(grid, np.arange(len(grid)))
    zero = np.abs(values) <= ZERO_TOL
    found_rows, found = [np.nonzero(zero)[0]], [grid[zero]]
    row, col = np.nonzero(~zero[:, :-1] & ~zero[:, 1:] & ~(values[:, :-1] * values[:, 1:] > 0))
    a, b, fa = grid[row, col], grid[row, col + 1], values[row, col]
    frac = np.arange(1, SCAN_POINTS + 1) / (SCAN_POINTS + 1)
    while True:
        mid = 0.5 * (a + b)
        done = (mid <= a) | (mid >= b) | (b - a <= ROOT_TOL * np.maximum(1.0, np.abs(mid)))
        found_rows.append(row[done])
        found.append(mid[done])
        a, b, fa, row = a[~done], b[~done], fa[~done], row[~done]
        if not a.size:
            break
        inner = a[:, None] + (b - a)[:, None] * frac
        # The last column stands in for the right end, where the sign differs.
        f = np.column_stack([fn(inner, row), -fa])
        k = np.argmax((f == 0.0) | (fa[:, None] * f < 0), axis=1)
        pts = np.column_stack([a, inner, b])
        i = np.arange(len(a))
        exact = f[i, k] == 0.0
        found_rows.append(row[exact])
        found.append(pts[i, k + 1][exact])
        a, b, fa, row = pts[i, k][~exact], pts[i, k + 1][~exact], fa[~exact], row[~exact]
    roots: list[list[float]] = [[] for _ in grid]
    for r, x in zip(np.concatenate(found_rows).tolist(), np.concatenate(found).tolist()):
        roots[r].append(x)
    for r, xs in enumerate(roots):
        deduped: list[float] = []
        for x in sorted(xs):
            if not deduped or x - deduped[-1] > 1e-9 * max(1.0, abs(x)):
                deduped.append(x)
        roots[r] = deduped
    return roots, values


def _slots(terms: list[list]) -> list[tuple[list, np.ndarray | None]]:
    """Per term position: the distinct terms of all rows there, and each row's
    index among them (-1: none), or None when every row has the one same term."""
    slots = []
    for k in range(max(map(len, terms))):
        distinct: dict = {}
        ids = [distinct.setdefault(t[k], len(distinct)) if k < len(t) else -1 for t in terms]
        slots.append((list(distinct), None if ids == [0] * len(ids) else np.array(ids)))
    return slots


def _by_term(slots: list[tuple[list, np.ndarray | None]], rows: np.ndarray):
    """Per term position: the ``rows`` entries with a term there, ordered so each
    term's entries are contiguous, and (term, slice of that order) per present term.

    Accumulating position by position adds each row's terms in that row's order.
    """
    for distinct, ids in slots:
        if ids is None:
            yield slice(None), [(distinct[0], slice(None))]
            continue
        at = ids[rows]
        order = np.argsort(at, kind="stable")
        cuts = np.searchsorted(at[order], np.arange(len(distinct) + 1)).tolist()
        yield order[cuts[0]:], [
            (term, slice(lo - cuts[0], hi - cuts[0]))
            for term, lo, hi in zip(distinct, cuts, cuts[1:])
            if hi > lo
        ]


def _member_specs(problems) -> list[dict[int, CostSpec]]:
    """Each (alliance, costs) problem's members, sorted, mapped to their cost specs."""
    out = [{i: costs[i] for i in as_alliance(alliance, len(costs))} for alliance, costs in problems]
    if not all(out):
        raise ValueError("alliance must be non-empty")
    return out


def _in_passes(solve_pass, problems, bounds: ScopeBounds) -> list[ScopeProfile | None]:
    """``solve_pass`` over passes of at most PASS_ROWS problems; a pass that raises gives Nones."""
    out: list[ScopeProfile | None] = []
    for start in range(0, len(problems), PASS_ROWS):
        part = problems[start:start + PASS_ROWS]
        try:
            out += solve_pass(part, bounds)
        except (TeamSearchError, ValueError):
            out += [None] * len(part)
    return out


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


def _equilibrium_pass(problems, bounds: ScopeBounds) -> list[ScopeProfile]:
    rows = _member_specs(problems)
    n = np.array([len(specs) for specs in rows])
    grids = np.linspace(n * bounds.lo, n * bounds.hi, SCAN_POINTS, axis=1)
    # Agents with equal specs reply alike: one term (spec, count) per distinct spec.
    slots = _slots([list(Counter(specs.values()).items()) for specs in rows])

    def reply_gap(totals: np.ndarray, at: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(totals)
        for order, terms in _by_term(slots, at):
            x = totals[order]
            reply = np.empty_like(x)
            for (spec, cnt), part in terms:
                reply[part] = cnt * _reply_grid(spec, bounds, x[part])
            acc[order] += reply
        acc -= totals
        return acc

    roots, gaps = _roots(reply_gap, grids)
    return [_equilibrium_profile(*row, bounds) for row in zip(rows, grids, roots, gaps)]


def _equilibrium_profile(
    specs: dict[int, CostSpec], grid: np.ndarray, roots: list[float], h_grid: np.ndarray,
    bounds: ScopeBounds,
) -> ScopeProfile:
    members = tuple(specs)
    warnings: list[str] = []
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


def equilibrium_scopes(
    alliance: Iterable[int], costs: Sequence[CostSpec], bounds: ScopeBounds
) -> ScopeProfile:
    """Solve the within-alliance equilibrium scope system with bound clipping.

    Constant-ratio agents (exponential costs) whose ratio equals the solved
    total have indeterminate individual scopes; the slack left by all other
    agents is split equally among them and the profile is flagged degenerate
    when two or more agents share it.
    """
    return _equilibrium_pass([(alliance, costs)], bounds)[0]


def _planner_pass(problems, bounds: ScopeBounds) -> list[ScopeProfile]:
    rows = _member_specs(problems)
    lam_lo = [0.999 * min(spec.marginal(bounds.lo) for spec in specs.values()) for specs in rows]
    lam_hi = [1.001 * max(spec.marginal(bounds.hi) for spec in specs.values()) for specs in rows]
    grids = np.geomspace(lam_lo, lam_hi, SCAN_POINTS, axis=1)
    slots = _slots([list(specs.values()) for specs in rows])

    def gap(lam: np.ndarray, at: np.ndarray) -> np.ndarray:
        cost_sum, scope_sum = np.zeros_like(lam), np.zeros_like(lam)
        for order, terms in _by_term(slots, at):
            x = lam[order]
            sig, cost = np.empty_like(x), np.empty_like(x)
            for spec, part in terms:
                sig[part] = np.clip(
                    np.asarray(spec.inverse_marginal(x[part]), dtype=float), bounds.lo, bounds.hi
                )
                cost[part] = spec.cost(sig[part])
            cost_sum[order] += cost
            scope_sum[order] += sig
        cost_sum *= 2.0
        scope_sum *= lam
        cost_sum -= scope_sum
        return cost_sum

    roots, gaps = _roots(gap, grids)
    return [
        _planner_profile(specs, grid, roots[r], gaps[r], bounds, lambda x, at, r=r: gap(x, at + r))
        for r, (specs, grid) in enumerate(zip(rows, grids))
    ]


def _planner_profile(
    specs: dict[int, CostSpec], lam_grid: np.ndarray, roots: list[float], g_grid: np.ndarray,
    bounds: ScopeBounds, gap,
) -> ScopeProfile:
    members = tuple(specs)
    warnings: list[str] = []
    if not roots:
        raise SolverError(
            "no planner multiplier with zero optimality gap on "
            f"[{lam_grid[0]:.6g}, {lam_grid[-1]:.6g}] "
            f"(gap at ends {g_grid[0]:.3g}, {g_grid[-1]:.3g})"
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
                lambda x, at: np.where(np.abs(gap(x, at)) <= ZERO_TOL, -side, side),
                lam_grid[None, j - 1:j + 1],
            )
            edge = edges[0][0]
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

    sig = {
        i: float(np.clip(np.asarray(spec.inverse_marginal(np.asarray(lam)), dtype=float),
                         bounds.lo, bounds.hi))
        for i, spec in specs.items()
    }
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


def planner_scopes(
    alliance: Iterable[int], costs: Sequence[CostSpec], bounds: ScopeBounds
) -> ScopeProfile:
    """Solve the planner's common-marginal-cost scope system for one alliance."""
    return _planner_pass([(alliance, costs)], bounds)[0]


def equilibrium_profiles(problems, bounds: ScopeBounds) -> list[ScopeProfile | None]:
    """``equilibrium_scopes`` of each (alliance, costs) problem, solved in batched
    passes of at most PASS_ROWS; a pass that raises gives None for its problems."""
    return _in_passes(_equilibrium_pass, problems, bounds)


def planner_profiles(problems, bounds: ScopeBounds) -> list[ScopeProfile | None]:
    """``planner_scopes`` of each (alliance, costs) problem, batched as ``equilibrium_profiles``."""
    return _in_passes(_planner_pass, problems, bounds)


class ProfileCache:
    """Profiles from ``solve(alliance, costs, bounds)``, each solved once.

    Entries are keyed by (alliance, member specs, bounds), all that a solve
    reads, so one cache serves any number of cost lists.
    """

    def __init__(self, solve):
        self.solve = solve
        self._profiles: dict[tuple, ScopeProfile] = {}

    def profile(
        self, alliance: Alliance, costs: Sequence[CostSpec], bounds: ScopeBounds
    ) -> ScopeProfile:
        key = (alliance, tuple(costs[i] for i in alliance), bounds)
        if key not in self._profiles:
            self._profiles[key] = self.solve(alliance, costs, bounds)
        return self._profiles[key]

    def prefetch(self, problems, bounds: ScopeBounds, solve_many) -> None:
        """Solve the uncached (alliance, costs) problems together by ``solve_many``.

        A problem it gives None for is left to ``profile``, which solves it
        alone and so raises its error as that solve would.
        """
        todo = {(a, tuple(c[i] for i in a), bounds): (a, c) for a, c in problems}
        todo = {key: problem for key, problem in todo.items() if key not in self._profiles}
        for key, prof in zip(list(todo), solve_many(list(todo.values()), bounds)):
            if prof is not None:
                self._profiles[key] = prof


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
