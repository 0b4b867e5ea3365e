"""Scope solvers: equilibrium fixed point and planner equal-marginal system.

Both solvers reduce to a one-dimensional root-find.  For the equilibrium,
each agent's best reply to an alliance total S is the bound-clipped scope
where 2*c/c' matches S, and the fixed point is a zero of
h(S) = sum of replies - S on [n*lo, n*hi].  For the planner, scopes are
parametrized by a common marginal cost lambda and the optimality condition
2*total_cost = lambda * total_scope is solved for lambda.

Problems are solved in batched passes of (problems x grid) arrays.  Each
round evaluates the rows' terms by member position and stack key: one call
per cost family (and power exponent) at a position, on a spec stacked over
that group's rows, where a stack of one spec is that spec.  A position
groups its terms once per set of rows, so the grid call and every round in
which each row keeps one bracket reuse the same groups.  A single solve
is a pass of one problem.  Each row does the arithmetic of a solve alone,
so a profile does not depend on its batch.  A group whose rows are one run
(prefetch lists problems largest alliance first) is read and summed through
a row slice, not an index array.  The planner gap takes one error state per
call and checks its costs once, through their sum; k-section compares signs
by ``np.sign``, so gaps too large to multiply raise no warning.

An equilibrium solve reads of a cost spec only its reply key, so
``ProfileCache("eq")`` shares one profile among all cost lists whose members
have the same reply keys and share specs alike.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .costs import CostSpec, ScopeBounds, SpecStack
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
    # Signs are compared as products of np.sign, which cannot overflow.
    sign = np.sign(values)
    row, col = np.nonzero(~zero[:, :-1] & ~zero[:, 1:] & ~(sign[:, :-1] * sign[:, 1:] > 0))
    a, b, side = grid[row, col], grid[row, col + 1], sign[row, col]
    frac = np.arange(1, SCAN_POINTS + 1) / (SCAN_POINTS + 1)
    while True:
        with np.errstate(over="ignore"):  # brackets above ~9e307 have an inf midpoint
            mid = 0.5 * (a + b)
        done = (mid <= a) | (mid >= b) | (b - a <= ROOT_TOL * np.maximum(1.0, np.abs(mid)))
        if done.any():
            found_rows.append(row[done])
            found.append(mid[done])
            a, b, side, row = a[~done], b[~done], side[~done], row[~done]
        if not a.size:
            break
        inner = a[:, None] + (b - a)[:, None] * frac
        f = fn(inner, row)
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
            found_rows.append(row[exact])
            found.append(b[exact])
            a, b, side, row = a[~exact], b[~exact], side[~exact], row[~exact]
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


@dataclass(frozen=True)
class _Position:
    """The terms at one term position of a pass's rows, grouped by stack key."""

    stacks: list[SpecStack]
    stack: np.ndarray  # each row's index in stacks (-1: no term there)
    index: np.ndarray  # each row's spec index in its stack
    count: np.ndarray  # each row's count of agents with that spec
    groups: dict = field(default_factory=dict)  # row set's bytes -> its _by_term groups here


def _slots(terms: list[list[tuple[CostSpec, int]]]) -> list[_Position]:
    """A ``_Position`` of the rows' (spec, count) terms per term position."""
    slots = []
    for k in range(max(map(len, terms))):
        stacks: dict[tuple, dict[CostSpec, int]] = {}
        placed = []  # per row: (stack index, spec index in it, count)
        for t in terms:
            if k >= len(t):
                placed.append((-1, 0, 0))
                continue
            spec, cnt = t[k]
            key = spec.stack_key()
            specs = stacks.setdefault(key, {})
            placed.append((list(stacks).index(key), specs.setdefault(spec, len(specs)), cnt))
        slots.append(_Position([SpecStack(list(specs)) for specs in stacks.values()],
                               *np.array(placed).T))
    return slots


def _by_term(slots: list[_Position], rows: np.ndarray):
    """Per term position and stack present there: the ``rows`` entries with a
    term of that stack, their counts, and the spec stacked over them.

    The entries are a slice when they are one run (always so when the pass's
    specs share one stack key and its problems are listed by alliance size),
    else an index array.  A position groups each row set once and yields the
    same groups to every later call on those rows (the grid call and the
    rounds where each row keeps one bracket).
    """
    key = rows.tobytes()
    for slot in slots:
        if key not in slot.groups:
            at = slot.stack[rows]
            groups = slot.groups[key] = []
            for s, stack in enumerate(slot.stacks):
                sel = np.flatnonzero(at == s)
                if not sel.size:
                    continue
                picked = rows[sel]
                first, last = sel[[0, -1]].tolist()
                order = slice(first, last + 1) if last - first + 1 == len(sel) else sel
                groups.append((order, slot.count[picked, None], stack.take(slot.index[picked])))
        yield from slot.groups[key]


def _row_sums(slots: list[_Position], x: np.ndarray, at: np.ndarray, term) -> list[np.ndarray]:
    """Per output of ``term(spec, xs, cnt)``, each row's sum over its terms.

    Row j of ``x`` belongs to pass row ``at[j]``; ``term`` gets the rows of
    ``x`` that have a term of one stack at one position, the spec stacked
    over them and their counts, and returns fresh arrays shaped like ``xs``.
    The sums run position by position, so each row adds its terms in its own
    order.  They start from the first group's values when it covers every
    row, else from zeros (0 + t is t: no term is -0.0).
    """
    sums: list[np.ndarray] = []
    for order, cnt, spec in _by_term(slots, at):
        vals = term(spec, x[order], cnt)
        if not sums and len(vals[0]) == len(x):
            sums = list(vals)
            continue
        sums = sums or [np.zeros_like(x) for _ in vals]
        for into, value in zip(sums, vals):
            into[order] += value
    return sums


def _problem_specs(problems) -> list[dict[int, CostSpec]]:
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
    """Vectorized best-reply scope for one agent (or a stacked spec's agents,
    one a row) across candidate totals."""
    rc = spec.ratio_constant
    if rc is not None:
        return np.where(rc > totals, bounds.hi, bounds.lo)
    matched = spec.scope_at_ratio(totals)
    # No scope matches the ratio: the value is monotone in scope, so the
    # agent runs to whichever bound the sign of (ratio - S) pushes toward.
    fallback = np.where(spec.ratio(bounds.hi) > totals, bounds.hi, bounds.lo)
    clipped = np.clip(matched, bounds.lo, bounds.hi)
    return np.where(np.isfinite(matched), clipped, fallback)


def _equilibrium_pass(problems, bounds: ScopeBounds) -> list[ScopeProfile]:
    rows = _problem_specs(problems)
    n = np.array([len(specs) for specs in rows])
    grids = np.linspace(n * bounds.lo, n * bounds.hi, SCAN_POINTS, axis=1)
    # Agents with equal specs reply alike: one term (spec, count) per distinct spec.
    slots = _slots([list(Counter(specs.values()).items()) for specs in rows])

    def reply_gap(totals: np.ndarray, at: np.ndarray) -> np.ndarray:
        [acc] = _row_sums(slots, totals, at,
                          lambda spec, x, cnt: [_reply_grid(spec, bounds, x) * cnt])
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
    rows = _problem_specs(problems)
    # c' at each bound, once per distinct spec, all at lo first as a single solve does.
    distinct = dict.fromkeys(spec for specs in rows for spec in specs.values())
    at_lo = {spec: spec.marginal(bounds.lo) for spec in distinct}
    at_hi = {spec: spec.marginal(bounds.hi) for spec in distinct}
    lam_lo = [0.999 * min(at_lo[spec] for spec in specs.values()) for specs in rows]
    lam_hi = [1.001 * max(at_hi[spec] for spec in specs.values()) for specs in rows]
    grids = np.geomspace(lam_lo, lam_hi, SCAN_POINTS, axis=1)
    slots = _slots([[(spec, 1) for spec in specs.values()] for specs in rows])

    def gap_terms(cost):
        def term(spec, x, _):
            sig = np.clip(spec.inverse_marginal(x), bounds.lo, bounds.hi)
            return cost(spec, sig), sig
        return term

    fast, guarded = gap_terms(CostSpec.bare_cost), gap_terms(CostSpec.cost)

    def gap(lam: np.ndarray, at: np.ndarray) -> np.ndarray:
        # One error state for the whole gap: 2 * sum(C) - lam * sum(sigma) may
        # overflow to -inf quietly, and a cost is checked through its sum.
        with np.errstate(all="ignore"):
            cost_sum, scope_sum = _row_sums(slots, lam, at, fast)
            if not np.isfinite(cost_sum).all():
                # The guarded cost() raises for the first non-finite term, as
                # a solve alone would; finite terms with an infinite sum pass.
                cost_sum, scope_sum = _row_sums(slots, lam, at, guarded)
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

    sig = {i: bounds.clip(spec.inverse_marginal(lam)) for i, spec in specs.items()}
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


def _member_specs(alliance: Alliance, costs: Sequence[CostSpec]) -> tuple:
    """The members' cost specs: all of them that any solve reads."""
    return tuple(costs[i] for i in alliance)


def _reply_pattern(alliance: Alliance, costs: Sequence[CostSpec]) -> tuple:
    """All that an equilibrium solve reads of the members' specs: their reply
    keys, and which members share a spec (a pass sums one reply per distinct
    spec, so splitting or merging equal specs changes the rounding)."""
    specs, first = [costs[i] for i in alliance], {}  # spec -> its first position
    return (tuple(spec.reply_key() for spec in specs),
            tuple(first.setdefault(spec, k) for k, spec in enumerate(specs)))


class ProfileCache:
    """Profiles of one mode, ``"eq"`` or ``"sp"``, each solved once.

    A mode solves by ``equilibrium_scopes`` or ``planner_scopes``, batched by
    ``equilibrium_profiles`` or ``planner_profiles`` (this module's bindings
    when the cache is built).  Entries are keyed by (alliance, the members'
    reply pattern or specs, bounds): all that a solve reads, so one cache
    serves any number of cost lists.
    """

    def __init__(self, mode: str):
        self.solve, self._solve_many, self._key = {
            "eq": (equilibrium_scopes, equilibrium_profiles, _reply_pattern),
            "sp": (planner_scopes, planner_profiles, _member_specs),
        }[mode]
        self._profiles: dict[tuple, ScopeProfile] = {}

    def profile(
        self, alliance: Alliance, costs: Sequence[CostSpec], bounds: ScopeBounds
    ) -> ScopeProfile:
        key = (alliance, self._key(alliance, costs), bounds)
        if key not in self._profiles:
            self._profiles[key] = self.solve(alliance, costs, bounds)
        return self._profiles[key]

    def prefetch(self, problems, bounds: ScopeBounds) -> None:
        """Solve the uncached (alliance, costs) problems together in batched passes.

        They go in largest alliance first (a stable sort), so in each pass
        every member position's terms are one run of rows, read through a
        slice.  A problem a failed pass leaves unsolved is left to ``profile``,
        which solves it alone and so raises its error as that solve would.
        """
        todo = {(a, self._key(a, c), bounds): (a, c) for a, c in problems}
        keys = sorted((key for key in todo if key not in self._profiles), key=lambda k: -len(k[0]))
        for key, prof in zip(keys, self._solve_many([todo[key] for key in keys], bounds)):
            if prof is not None:
                self._profiles[key] = prof


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
