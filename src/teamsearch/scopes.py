"""Scope solvers: equilibrium fixed point and planner equal-marginal system.

Both solvers reduce to a one-dimensional root-find.  For the equilibrium,
each agent's best reply to an alliance total S is the bound-clipped scope
where 2*c/c' matches S, and the fixed point is a zero of
h(S) = sum of replies - S on [n*lo, n*hi].  For the planner, scopes are
parametrized by a common marginal cost lambda and the optimality condition
2*total_cost = lambda * total_scope is solved for lambda.  A planner problem
whose members all have exponential costs takes lambda in closed form on the
segment of multipliers where the same members are clipped, and builds no
grid; every other problem is solved on the grid.

Problems are solved one at a time.  The planner gap sums each member's guarded cost in member order under one error state,
so a non-finite term raises its own spec's error while a sum too large for
the float range passes; k-section compares signs by ``np.sign``, so gaps too
large to multiply raise no warning.

An equilibrium solve reads of a cost spec only its reply key, so
``ProfileCache("eq")`` shares one profile among all cost lists whose members
have the same reply keys and share specs alike.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .costs import SCALAR_LOG_LIMIT, CostSpec, ScaledExponential, ScopeBounds
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
    out = tuple(sorted(map(int, members)))
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
    the defining-equation residual at the returned solution.  ``cost_sum``,
    on a planner profile, is the members' cost rates summed in member order;
    it takes no part in comparisons.
    """

    per_agent: dict[int, float]
    total: float
    interior: bool
    degenerate: bool
    residual: float
    warnings: tuple[str, ...] = ()
    cost_sum: float | None = field(default=None, compare=False, repr=False)

    def scopes(self, members: Sequence[int] | None = None) -> np.ndarray:
        keys = list(self.per_agent) if members is None else list(members)
        return np.array([self.per_agent[i] for i in keys], dtype=float)


def _roots(fn, grid: np.ndarray) -> tuple[list[float], np.ndarray]:
    """Sorted, de-duplicated zeros of the vector function ``fn`` on ``grid``, and ``fn`` on ``grid``.

    Grid points with |fn| <= ZERO_TOL are exact zeros.  All other sign changes
    are refined together by k-section: each round evaluates ``fn`` once on
    SCAN_POINTS interior points of every open bracket (a 2-D array, one row
    per bracket) and keeps the first sub-interval with a sign change, until
    its width is within ROOT_TOL.
    """
    values = fn(grid)
    zero = np.abs(values) <= ZERO_TOL
    found = [grid[zero]]
    # Signs are compared as products of np.sign, which cannot overflow.
    sign = np.sign(values)
    col = np.flatnonzero(~zero[:-1] & ~zero[1:] & ~(sign[:-1] * sign[1:] > 0))
    a, b, side = grid[col], grid[col + 1], sign[col]
    frac = np.arange(1, SCAN_POINTS + 1) / (SCAN_POINTS + 1)
    while True:
        with np.errstate(over="ignore"):  # brackets above ~9e307 have an inf midpoint
            mid = 0.5 * (a + b)
        done = (mid <= a) | (mid >= b) | (b - a <= ROOT_TOL * np.maximum(1.0, np.abs(mid)))
        if done.any():
            found.append(mid[done])
            a, b, side = a[~done], b[~done], side[~done]
        if not a.size:
            break
        inner = a[:, None] + (b - a)[:, None] * frac
        f = fn(inner)
        hit = (f == 0.0) | (side[:, None] * f < 0)
        i = np.arange(len(a))
        k = np.argmax(hit, axis=1)
        # Sub-interval k runs from point k to point k + 1 of a, inner, b.  With
        # no interior change the sign changes against b, in the last one (but
        # a nan at a changes sign nowhere, and argmax keeps the first).
        k[~hit[i, k] & ~np.isnan(side)] = SCAN_POINTS
        j = np.minimum(k, SCAN_POINTS - 1)
        a = np.where(k > 0, inner[i, k - 1], a)
        b = np.where(k < SCAN_POINTS, inner[i, j], b)
        exact = f[i, j] == 0.0
        if exact.any():
            found.append(b[exact])
            a, b, side = a[~exact], b[~exact], side[~exact]
    roots: list[float] = []
    for x in sorted(np.concatenate(found).tolist()):
        if not roots or x - roots[-1] > 1e-9 * max(1.0, abs(x)):
            roots.append(x)
    return roots, values


def _problem_specs(alliance: Iterable[int], costs: Sequence[CostSpec]) -> dict[int, CostSpec]:
    """The alliance's members, sorted, mapped to their cost specs."""
    specs = {i: costs[i] for i in as_alliance(alliance, len(costs))}
    if not specs:
        raise ValueError("alliance must be non-empty")
    return specs


def _reply_grid(spec: CostSpec, bounds: ScopeBounds, totals: np.ndarray) -> np.ndarray:
    """Vectorized best-reply scope for one agent across candidate totals."""
    rc = spec.ratio_constant
    if rc is not None:
        return np.where(rc > totals, bounds.hi, bounds.lo)
    matched = spec.scope_at_ratio(totals)
    # No scope matches the ratio: the value is monotone in scope, so the
    # agent runs to whichever bound the sign of (ratio - S) pushes toward.
    fallback = np.where(spec.ratio(bounds.hi) > totals, bounds.hi, bounds.lo)
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
    specs = _problem_specs(alliance, costs)
    members = tuple(specs)
    grid = np.linspace(len(specs) * bounds.lo, len(specs) * bounds.hi, SCAN_POINTS)
    # Agents with equal specs reply alike: one term per distinct spec.
    counts = Counter(specs.values())

    def reply_gap(totals: np.ndarray) -> np.ndarray:
        return sum(count * _reply_grid(spec, bounds, totals)
                   for spec, count in counts.items()) - totals

    roots, h_grid = _roots(reply_gap, grid)
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


def _clipped_scopes(specs: dict[int, CostSpec], lam: float, bounds: ScopeBounds) -> dict:
    return {i: bounds.clip(spec.inverse_marginal(lam)) for i, spec in specs.items()}


def _segment_multiplier(interior: list, clipped: list[tuple[float, float]]) -> float | None:
    """The root lam of 2 * sum(C) = lam * S with the exponential ``interior``
    specs where c' = lam and each clipped member at its (bound, c(bound));
    None when it leaves the float range.

    An interior member has C_i = lam / b_i and sigma_i = log(lam beta_i / b_i) / b_i.
    With W = sum(1 / b_i), A = sum(log(beta_i / b_i) / b_i) over the interior
    members, K = sum(c(bound)) and L = sum(bound) over the clipped ones and
    c0 = (2W - A - L) / W, lam = exp(c0 + v), where v + log v = log(2K / W) - c0
    (v = 0 when K = 0), or lam = 2K / L when W = 0.
    """
    k = sum(cost for _, cost in clipped)
    l = sum(bound for bound, _ in clipped)
    if not interior:
        return 2.0 * k / l
    w = sum(1.0 / spec.b for spec in interior)
    c0 = (2.0 * w - sum(math.log(spec.beta / spec.b) / spec.b for spec in interior) - l) / w
    v = 0.0
    if k:
        r = math.log(2.0 * k) - math.log(w) - c0
        if not math.isfinite(r):  # nan included
            return None
        # e^u + u = r (u = log v) is convex and rising, and r or log r lies at or
        # right of its root, so Newton's steps fall to the root; stop when they stall.
        u = r if r < 1.0 else math.log(r)
        while (nxt := u - (math.exp(u) + u - r) / (math.exp(u) + 1.0)) < u:
            u = nxt
        v = math.exp(u)
    log_lam = c0 + v
    return math.exp(log_lam) if abs(log_lam) < SCALAR_LOG_LIMIT else None  # nan: None


def _exponential_profile(specs: dict[int, CostSpec], bounds: ScopeBounds, at_lo: dict,
                         at_hi: dict) -> ScopeProfile | None:
    """The profile at the closed-form multiplier of an all-exponential row;
    None for every other row, and where the grid must decide.

    The multiplier with every scope interior comes first.  If it leaves a scope
    on or past a bound, a binary search over the segments between the sorted
    breakpoints c'_i(lo) and c'_i(hi), on each of which the clipped members are
    fixed, finds the segment that holds its own closed-form root.  That root
    must lie strictly inside the grid's bracket (0.999 min c'(lo), 1.001 max
    c'(hi)), so a row the grid finds no multiplier for keeps its error.  A spec
    outside the family's rules (b > 0, beta >= 1) or an exponent that leaves
    the float range gives None, and so the grid and its error.
    """
    members = list(specs.values())
    if not all(isinstance(spec, ScaledExponential) and spec.b > 0 and spec.beta >= 1
               for spec in members):
        return None
    lam = _segment_multiplier(members, [])
    if lam is None:
        return None
    with np.errstate(all="ignore"):  # a scope far out of bounds may be +-inf
        sig = _clipped_scopes(specs, lam, bounds)
    if all(bounds.lo < s < bounds.hi for s in sig.values()):
        return _planner_profile(specs, lam, sig, ())
    ends = [0.0, *sorted({*map(at_lo.get, members), *map(at_hi.get, members)}), math.inf]
    first, last = 0, len(ends) - 2
    while first <= last:
        k = (first + last) // 2
        left, right = ends[k], ends[k + 1]
        at = [bounds.lo if right <= at_lo[spec] else bounds.hi if left >= at_hi[spec] else None
              for spec in members]
        lam = _segment_multiplier([spec for spec, x in zip(members, at) if x is None],
                                  [(x, math.exp(spec.b * x) / spec.beta)
                                   for spec, x in zip(members, at) if x is not None])
        if lam is None or left <= lam <= right:
            break
        first, last = (first, k - 1) if lam < left else (k + 1, last)
    else:  # rounding left the root in no segment
        return None
    if lam is None or not 0.999 * ends[1] < lam < 1.001 * ends[-2]:
        return None
    with np.errstate(all="ignore"):
        sig = _clipped_scopes(specs, lam, bounds)
    return _planner_profile(specs, lam, sig, ())


def _grid_profile(specs: dict[int, CostSpec], at_lo: dict, at_hi: dict,
                  bounds: ScopeBounds) -> ScopeProfile:
    """The profile of a problem solved on a multiplier grid, refined by k-section."""
    lam_lo = 0.999 * min(at_lo[spec] for spec in specs.values())
    lam_hi = 1.001 * max(at_hi[spec] for spec in specs.values())
    grid = np.geomspace(lam_lo, lam_hi, SCAN_POINTS)

    def gap(lam: np.ndarray) -> np.ndarray:
        # One error state for the whole gap: 2 * sum(C) - lam * sum(sigma) may
        # overflow to -inf quietly.  The guarded cost() raises for the first
        # non-finite term; finite terms with an infinite sum pass.
        with np.errstate(all="ignore"):
            sigs = [np.clip(spec.inverse_marginal(lam), bounds.lo, bounds.hi)
                    for spec in specs.values()]
            cost_sum = sum(spec.cost(sig) for spec, sig in zip(specs.values(), sigs))
            return 2.0 * cost_sum - lam * sum(sigs)

    roots, gaps = _roots(gap, grid)
    lam, warnings = _grid_multiplier(grid, roots, gaps, gap)
    return _planner_profile(specs, lam, _clipped_scopes(specs, lam, bounds), warnings)


def _grid_multiplier(lam_grid: np.ndarray, roots: list[float], g_grid: np.ndarray,
                     gap) -> tuple[float, tuple[str, ...]]:
    """The multiplier a grid row's roots give, and the warnings of the pick."""
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
                lambda x: np.where(np.abs(gap(x)) <= ZERO_TOL, -side, side),
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
    return lam, tuple(warnings)


def _planner_profile(specs: dict[int, CostSpec], lam: float, sig: dict[int, float],
                     warnings: tuple[str, ...]) -> ScopeProfile:
    """The profile of scopes ``sig`` at multiplier ``lam``, its residual checked."""
    members = tuple(specs)
    total = sum(sig.values())
    cost_sum = sum(specs[i].cost(sig[i]) for i in members)
    residual = abs(2.0 * cost_sum - lam * total)
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
        warnings=warnings,
        cost_sum=cost_sum,
    )


def planner_scopes(
    alliance: Iterable[int], costs: Sequence[CostSpec], bounds: ScopeBounds,
    marginals: dict | None = None,
) -> ScopeProfile:
    """Solve the planner's common-marginal-cost scope system for one alliance.

    ``marginals`` memoizes c' at the bounds by bounds and then spec, as a
    pair of dicts for lo and hi (a fresh memo when None); a memo shared with
    solves of other alliances or at other bounds changes no result.
    """
    specs = _problem_specs(alliance, costs)
    # c' at each bound, all at lo first, and for closed-form problems too, so
    # that they raise where the grid would.  A spec with c'(hi) in the memo
    # has c'(lo) there too.
    at_lo, at_hi = ({}, {}) if marginals is None else marginals.setdefault(bounds, ({}, {}))
    new = [spec for spec in specs.values() if spec not in at_hi]
    for at, x in ((at_lo, bounds.lo), (at_hi, bounds.hi)):
        for spec in new:
            if spec not in at:
                at[spec] = spec.marginal(x)
    # For exponential costs, gap / lam = sum(2 C_i / lam - sigma_i) strictly falls
    # in lam (an interior term is (2 - log(lam beta_i / b_i)) / b_i, a clipped one
    # 2 c(bound) / lam - bound), so a closed-form multiplier is the only root.
    profile = _exponential_profile(specs, bounds, at_lo, at_hi)
    return _grid_profile(specs, at_lo, at_hi, bounds) if profile is None else profile


def _member_specs(alliance: Alliance, costs: Sequence[CostSpec]) -> tuple:
    """The members' cost specs: all of them that any solve reads."""
    return tuple(map(costs.__getitem__, alliance))


def _reply_pattern(alliance: Alliance, costs: Sequence[CostSpec]) -> tuple:
    """All that an equilibrium solve reads of the members' specs: their reply
    keys, and which members share a spec (a solve sums one reply per distinct
    spec, so splitting or merging equal specs changes the rounding)."""
    specs, first = [costs[i] for i in alliance], {}  # spec -> its first position
    return (tuple(spec.reply_key() for spec in specs),
            tuple(first.setdefault(spec, k) for k, spec in enumerate(specs)))


class ProfileCache:
    """Profiles of one mode, ``"eq"`` or ``"sp"``, each solved once.

    A mode solves by ``equilibrium_scopes`` or ``planner_scopes`` (this
    module's bindings when the cache is built).  Entries are keyed by
    (alliance, the members' reply pattern or specs, bounds): all that a solve
    reads, so one cache serves any number of cost lists.  A planner cache
    also hands all its solves one memo of c' at the scope bounds, so each
    distinct spec's c' at a bound is evaluated once.
    """

    def __init__(self, mode: str):
        if mode not in ("eq", "sp"):  # compared, not hashed: any value gets this line
            raise ValueError(f"ProfileCache mode must be 'eq' or 'sp', got {mode!r}")
        self.mode = mode
        self.solve, self._key = {"eq": (equilibrium_scopes, _reply_pattern),
                                 "sp": (planner_scopes, _member_specs)}[mode]
        self._memo = ({},) if mode == "sp" else ()  # c' at the bounds, for all planner solves
        self._profiles: dict[tuple, ScopeProfile] = {}

    def profile(
        self, alliance: Alliance, costs: Sequence[CostSpec], bounds: ScopeBounds
    ) -> ScopeProfile:
        key = (alliance, self._key(alliance, costs), bounds)
        profile = self._profiles.get(key)
        if profile is None:
            profile = self._profiles[key] = self.solve(alliance, costs, bounds, *self._memo)
        return profile


def interior_capacity(cost: CostSpec, bounds: ScopeBounds) -> int:
    """Largest team, of up to 256 identical-cost agents, whose equilibrium stays interior.

    Scans every size up to 256 because interiority need not be monotone in
    team size (the per-agent scope can leave through either bound).
    """
    best = 0
    for n in range(1, 257):
        try:
            profile = equilibrium_scopes(range(n), [cost] * n, bounds)
        except SolverError:
            continue
        if profile.interior:
            best = n
    return best
