"""Tests for equilibrium and planner scope solvers."""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

import teamsearch.scopes as scopes_module
from teamsearch.costs import (
    AffineQuadratic,
    CostSpec,
    ScaledExponential,
    ScaledPower,
    ScopeBounds,
)
from teamsearch.errors import CostDomainError, SolverError, TeamSearchError
from teamsearch.scopes import (
    INTERIOR_TOL,
    ROOT_TOL,
    SCAN_POINTS,
    ZERO_TOL,
    ProfileCache,
    ScopeProfile,
    as_alliance,
    equilibrium_profiles,
    equilibrium_scopes,
    interior_capacity,
    planner_profiles,
    planner_scopes,
)

WIDE = ScopeBounds(0.1, 10.0)


def test_as_alliance_validation():
    assert as_alliance([2, 0, 1]) == (0, 1, 2)
    with pytest.raises(ValueError):
        as_alliance([0, 0, 1])
    with pytest.raises(ValueError):
        as_alliance([-1, 2])
    with pytest.raises(ValueError):
        as_alliance([0, 3], team_size=3)


def test_single_exponential_agent():
    # constant ratio 2/b pins the total at 2
    profile = equilibrium_scopes([0], [ScaledExponential(b=1.0)], WIDE)
    assert profile.per_agent == {0: 2.0}
    assert profile.total == 2.0
    assert profile.interior
    assert not profile.degenerate
    assert profile.residual == 0.0


def test_two_symmetric_exponential_agents_split_equally():
    costs = [ScaledExponential(b=1.0), ScaledExponential(b=1.0)]
    profile = equilibrium_scopes([0, 1], costs, WIDE)
    assert profile.total == 2.0
    assert profile.per_agent[0] == pytest.approx(1.0, abs=1e-12)
    assert profile.per_agent[1] == pytest.approx(1.0, abs=1e-12)
    assert profile.degenerate
    assert profile.residual == 0.0
    assert profile.interior


def test_scaled_copies_share_equal_scopes():
    # Multipliers do not enter the reply map, so scaled copies behave alike:
    # three agents still split the constant total 2 into 2/3 each.
    costs = [
        ScaledExponential(b=1.0, beta=1.0),
        ScaledExponential(b=1.0, beta=1.2),
        ScaledExponential(b=1.0, beta=2.0),
    ]
    profile = equilibrium_scopes([0, 1, 2], costs, WIDE)
    assert profile.total == pytest.approx(2.0, abs=1e-12)
    for sigma in profile.per_agent.values():
        assert sigma == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert profile.degenerate and profile.interior


def test_two_power_agents_clip_high():
    costs = [ScaledPower(a=1.0, p=2.0), ScaledPower(a=1.0, p=2.0)]
    profile = equilibrium_scopes([0, 1], costs, ScopeBounds(0.5, 5.0))
    assert profile.per_agent == {0: 5.0, 1: 5.0}
    assert profile.total == 10.0
    assert not profile.interior
    assert not profile.degenerate


def test_symmetric_affine_quadratic_interior_point():
    # ratio (s^2+1)/s = 3s solves to s = 1/sqrt(2) = 0.7071067811865476
    costs = [AffineQuadratic(1.0, 0.0, 1.0)] * 3
    profile = equilibrium_scopes([0, 1, 2], costs, WIDE)
    for sigma in profile.per_agent.values():
        assert sigma == pytest.approx(0.7071067811865476, abs=1e-9)
    assert profile.total == pytest.approx(2.1213203435596424, abs=1e-9)
    assert profile.interior
    assert not profile.degenerate
    assert profile.residual < 1e-9


def test_proportional_affine_quadratic_copies_match():
    costs = [
        AffineQuadratic(1.0, 0.0, 1.0),
        AffineQuadratic(2.0, 0.0, 2.0),
        AffineQuadratic(1.0, 0.0, 1.0),
    ]
    profile = equilibrium_scopes([0, 1, 2], costs, WIDE)
    values = list(profile.per_agent.values())
    assert values[0] == pytest.approx(values[1], abs=1e-12)
    assert values[1] == pytest.approx(values[2], abs=1e-12)


def test_single_affine_quadratic_has_no_fixed_point():
    # The reply gap jumps through zero without a root: surfaced, not hidden.
    with pytest.raises(SolverError):
        equilibrium_scopes([0], [AffineQuadratic(1.0, 0.0, 1.0)], WIDE)


def test_removing_an_agent_moves_scopes_up_and_total_down():
    costs = [AffineQuadratic(1.0, 0.0, 1.0)] * 4
    tight = ScopeBounds(0.1, 0.9)
    four = equilibrium_scopes([0, 1, 2, 3], costs, tight)
    three = equilibrium_scopes([0, 1, 2], costs, tight)
    # sigma = 1/sqrt(n-1): 0.5773502691896258 then 0.7071067811865476
    assert four.per_agent[0] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-9)
    assert three.per_agent[0] == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-9)
    assert three.per_agent[0] > four.per_agent[0]
    assert three.total < four.total


def test_equilibrium_requires_nonempty_alliance():
    with pytest.raises(ValueError):
        equilibrium_scopes([], [ScaledExponential(b=1.0)], WIDE)


def test_planner_single_agent_matches_equilibrium():
    costs = [ScaledExponential(b=1.0)]
    eq = equilibrium_scopes([0], costs, WIDE)
    sp = planner_scopes([0], costs, WIDE)
    assert sp.per_agent[0] == pytest.approx(eq.per_agent[0], abs=1e-9)
    assert sp.interior


def test_planner_two_symmetric_exponential_agents():
    costs = [ScaledExponential(b=1.0)] * 2
    profile = planner_scopes([0, 1], costs, WIDE)
    assert profile.total == pytest.approx(4.0, abs=1e-9)
    assert profile.per_agent[0] == pytest.approx(2.0, abs=1e-9)
    assert profile.per_agent[1] == pytest.approx(2.0, abs=1e-9)
    assert profile.interior
    assert not profile.degenerate


def test_planner_three_scaled_exponential_agents():
    costs = [
        ScaledExponential(b=1.0, beta=1.0),
        ScaledExponential(b=1.0, beta=1.2),
        ScaledExponential(b=1.0, beta=2.0),
    ]
    profile = planner_scopes([0, 1, 2], costs, WIDE)
    # log lambda = 2 - (log 1.2 + log 2)/3 = 1.7081770875162334
    log_lam = 2.0 - (math.log(1.2) + math.log(2.0)) / 3.0
    assert profile.total == pytest.approx(6.0, abs=1e-9)
    assert profile.per_agent[0] == pytest.approx(log_lam, abs=1e-9)
    assert profile.per_agent[1] == pytest.approx(log_lam + math.log(1.2), abs=1e-9)
    assert profile.per_agent[2] == pytest.approx(log_lam + math.log(2.0), abs=1e-9)
    assert profile.interior
    assert profile.residual <= 1e-10 * max(1.0, math.exp(log_lam) * 6.0)


def test_planner_dominates_equilibrium_per_agent():
    costs = [
        ScaledExponential(b=1.0, beta=1.0),
        ScaledExponential(b=1.0, beta=1.2),
        ScaledExponential(b=1.0, beta=2.0),
    ]
    eq = equilibrium_scopes([0, 1, 2], costs, WIDE)
    sp = planner_scopes([0, 1, 2], costs, WIDE)
    for i in range(3):
        assert sp.per_agent[i] >= eq.per_agent[i] - 1e-12


def test_planner_without_multiplier_root_raises():
    costs = [AffineQuadratic(1.0, 0.0, 1.0)] * 2
    with pytest.raises(SolverError):
        planner_scopes([0, 1], costs, WIDE)


def test_interior_capacity_exponential_families():
    assert interior_capacity(ScaledExponential(b=1.0), ScopeBounds(0.1, 10.0)) == 20
    assert interior_capacity(ScaledExponential(b=1.0), ScopeBounds(2.0, 10.0)) == 1
    assert interior_capacity(ScaledExponential(b=2.0), ScopeBounds(0.1, 10.0)) == 10


def test_interior_capacity_affine_quadratic_scans_all_sizes():
    # sigma = 1/sqrt(n-1) must fit in [0.1, 0.9]: interior for 3 <= n <= 101,
    # so the capacity is 101 even though small teams are not interior.
    cap = interior_capacity(AffineQuadratic(1.0, 0.0, 1.0), ScopeBounds(0.1, 0.9))
    assert cap == 101


def test_scope_profile_accessor_roundtrip():
    costs = [ScaledExponential(b=1.0)] * 2
    profile = equilibrium_scopes([0, 1], costs, WIDE)
    np.testing.assert_allclose(profile.scopes(), [1.0, 1.0])
    np.testing.assert_allclose(profile.scopes([1]), [1.0])


def test_planner_matches_closed_form_for_interior_exponential_teams():
    # Interior scaled_exponential teams: b*sigma_i = 2 - mean(log beta) + log beta_i
    # and b*S = 2n.  The multiplier is found to a relative bracket width of
    # 1e-12, so the dimensionless scopes b*sigma_i must agree to 1e-12 each.
    rng = np.random.default_rng(20)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        b = float(rng.choice([0.5, 1.0, 2.0]))
        betas = rng.uniform(1.0, 6.0, n)
        costs = [ScaledExponential(b=b, beta=float(beta)) for beta in betas]
        profile = planner_scopes(range(n), costs, ScopeBounds(0.01, 50.0))
        log_beta = np.log(betas)
        assert profile.interior
        np.testing.assert_allclose(
            b * profile.scopes(), 2.0 - log_beta.mean() + log_beta, rtol=0.0, atol=1e-12
        )
        assert abs(b * profile.total - 2.0 * n) <= 1e-12 * n


def test_constant_ratio_jump_snaps_to_ratio_constant():
    # The reply gap crosses zero at the b=0.7 agent's jump 2/0.7, which is no
    # grid point; the root is snapped there exactly and that agent takes the
    # slack left by the other agent (at its lower bound).
    costs = [ScaledExponential(b=1.0), ScaledExponential(b=0.7)]
    profile = equilibrium_scopes([0, 1], costs, WIDE)
    assert profile.per_agent[0] == 0.1
    assert profile.per_agent[1] == 2.0 / 0.7 - 0.1
    assert profile.total == pytest.approx(2.0 / 0.7, abs=1e-15)
    assert not profile.degenerate
    assert not profile.warnings


def test_reply_gap_with_two_sign_changes_warns_and_takes_smallest():
    # With the power agent's reply S (clipped) and the affine agent's reply
    # switching branches, the gap crosses zero continuously at S=3, jumps
    # through zero at S=4, and is exactly zero at the grid end S=5.
    costs = [AffineQuadratic(0.5, 0.5, 1.0), ScaledPower(a=1.0, p=2.0)]
    profile = equilibrium_scopes([0, 1], costs, ScopeBounds(0.5, 2.5))
    (warning,) = profile.warnings
    assert warning.startswith("multiple candidate totals [")
    assert warning.endswith("]; selected smallest")
    candidates = [float(v) for v in warning.split("[")[1].split("]")[0].split(",")]
    assert candidates == pytest.approx([3.0, 4.0, 5.0], abs=1e-9)
    assert profile.total == pytest.approx(3.0, abs=1e-12)
    assert profile.per_agent == pytest.approx({0: 0.5, 1: 2.5}, abs=1e-12)


def _bisection_roots(fn, grid):
    """Scalar reference for the root primitive: each grid sign change bisected alone."""
    values = fn(grid)
    roots = [float(g) for g, v in zip(grid, values) if abs(v) <= 1e-12]
    for a, b, fa, fb in zip(grid[:-1], grid[1:], values[:-1], values[1:]):
        if abs(fa) <= 1e-12 or abs(fb) <= 1e-12 or fa * fb > 0:
            continue
        while b - a > 1e-12 * max(1.0, abs(0.5 * (a + b))):
            mid = 0.5 * (a + b)
            fm = fn(np.array([mid]))[0]
            if fm == 0.0:
                a = b = mid
            elif fa * fm < 0:
                b = mid
            else:
                a, fa = mid, fm
        roots.append(0.5 * (a + b))
    return sorted(roots)


@pytest.mark.parametrize(
    "fn, grid",
    [
        (lambda x: (x - 1.0) * (x - 2.5) * (x - 4.0), np.linspace(0.0, 5.0, 512)),
        (lambda x: np.where(x < 2.0 / 0.7, 1.0, -1.0), np.linspace(0.1, 10.0, 512)),
        (lambda x: np.sin(3.0 * x), np.geomspace(0.1, 10.0, 512)),
        (lambda x: x - 2.0, np.linspace(0.0, 5.0, 512)),
    ],
)
def test_root_primitive_matches_scalar_bisection(fn, grid):
    from teamsearch.scopes import _roots

    roots, values = _roots(fn, grid)
    np.testing.assert_array_equal(values, fn(grid))
    expected = _bisection_roots(fn, grid)
    assert len(roots) == len(expected)
    for got, want in zip(roots, expected):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_flat_reply_gap_warns_once_and_keeps_smallest_total():
    # One p = 2 power agent replies S itself: every total is a fixed point.
    profile = equilibrium_scopes((0,), [ScaledPower(a=1.0, p=2.0)], WIDE)
    assert profile.per_agent[0] == WIDE.lo
    assert len(profile.warnings) == 1
    assert "reply gap is zero" in profile.warnings[0]
    assert len(profile.warnings[0]) < 200


def test_flat_planner_gap_warns_once_and_takes_left_edge():
    # One p = 2 power agent: 2c = lambda*sigma wherever no bound clips, so
    # every multiplier in [0.2, 20] is optimal; the smallest gives sigma = lo.
    profile = planner_scopes((0,), [ScaledPower(a=1.0, p=2.0)], WIDE)
    assert profile.per_agent[0] == pytest.approx(WIDE.lo, abs=1e-9)
    assert len(profile.warnings) == 1
    assert "optimality gap is zero" in profile.warnings[0]
    assert len(profile.warnings[0]) < 200


def _problem_sets(seed):
    """Seeded (bounds, problems) sets of (alliance, costs) over all three families.

    Each set mixes random teams (repeated specs, bounds that bind) with fixed
    cases of flat gaps, several roots and no root.
    """
    rng = np.random.default_rng(seed)

    def spec():
        family = rng.integers(3)
        if family == 0:
            return ScaledExponential(b=float(rng.choice([0.5, 1.0, 2.0])),
                                     beta=float(rng.choice([1.0, rng.uniform(1.0, 20.0)])))
        if family == 1:
            return ScaledPower(a=float(rng.uniform(0.2, 3.0)), p=float(rng.choice([2.0, 3.0, 4.5])))
        return AffineQuadratic(float(rng.uniform(0.1, 3.0)), float(rng.choice([0.0, 1.0])),
                               float(rng.uniform(0.05, 3.0)))

    fixed = {
        WIDE: [((0,), [ScaledPower(a=1.0, p=2.0)]), ((0,), [AffineQuadratic(1.0, 0.0, 1.0)]),
               ((0, 1), [AffineQuadratic(1.0, 0.0, 1.0)] * 2)],
        ScopeBounds(0.5, 2.5): [
            ((0, 1), [AffineQuadratic(0.5, 0.5, 1.0), ScaledPower(a=1.0, p=2.0)]),
        ],
        ScopeBounds(0.1, 0.9): [((0, 1, 2), [AffineQuadratic(1.0, 0.0, 1.0)] * 3)],
    }
    for bounds, problems in fixed.items():
        problems = list(problems)
        for _ in range(40):
            n = int(rng.integers(1, 5))
            shared = spec()
            costs = [shared if rng.random() < 0.4 else spec() for _ in range(n)]
            size = int(rng.integers(1, n + 1))
            problems.append((as_alliance(rng.choice(n, size=size, replace=False)), costs))
        order = rng.permutation(len(problems))
        yield bounds, [problems[k] for k in order]


def _solve_or_error(solve, alliance, costs, bounds):
    try:
        return solve(alliance, costs, bounds)
    except (TeamSearchError, ValueError) as exc:
        return exc


@pytest.mark.parametrize("pass_rows", [1, 3, None])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_passes_equal_single_solves(monkeypatch, seed, pass_rows):
    if pass_rows is not None:
        monkeypatch.setattr(scopes_module, "PASS_ROWS", pass_rows)
    rows = scopes_module.PASS_ROWS
    seen = set()
    for bounds, problems in _problem_sets(seed):
        for solve, many in ((equilibrium_scopes, equilibrium_profiles),
                            (planner_scopes, planner_profiles)):
            # A single solve is a pass of one; it must equal the pre-batching solver.
            single = [_solve_or_error(solve, a, c, bounds) for a, c in problems]
            reference = REFERENCE[solve]
            for (a, c), alone in zip(problems, single):
                want = _solve_or_error(reference, a, c, bounds)
                if isinstance(want, Exception):
                    assert (type(alone), str(alone)) == (type(want), str(want))
                else:
                    assert alone == want
            batched = many(problems, bounds)
            assert len(batched) == len(problems)
            for start in range(0, len(problems), rows):
                part = single[start:start + rows]
                failed = any(isinstance(s, Exception) for s in part)
                for alone, together in zip(part, batched[start:start + rows]):
                    # A pass that raises stores nothing; otherwise every field
                    # (per_agent, total, warnings, residual, ...) is equal.
                    assert together is None if failed else together == alone
            for s in single:
                if isinstance(s, Exception):
                    seen.add("error")
                    continue
                seen.update(w.split(" ")[0] for w in s.warnings)
                if any(v in (bounds.lo, bounds.hi) for v in s.per_agent.values()):
                    seen.add("bound")
    assert seen >= {"error", "bound", "multiple", "reply", "optimality"}


def test_batched_gap_grids_equal_the_reference_bit_for_bit(monkeypatch):
    # Profiles can agree while gap values differ in the last bit (the roots
    # rarely move); the grids themselves must match, so each row's sums must
    # run in that problem's own order.
    this = sys.modules[__name__]
    captured = {"batched": [], "reference": []}

    def capturing(real, into):
        def roots(fn, grid):
            found, values = real(fn, grid)
            if grid.shape[-1] == SCAN_POINTS:
                into.extend(np.atleast_2d(values))
            return found, values
        return roots

    monkeypatch.setattr(scopes_module, "_roots",
                        capturing(scopes_module._roots, captured["batched"]))
    monkeypatch.setattr(this, "_reference_roots",
                        capturing(_reference_roots, captured["reference"]))
    for bounds, problems in _problem_sets(3):
        for solve, many in ((equilibrium_scopes, equilibrium_profiles),
                            (planner_scopes, planner_profiles)):
            solvable = [
                (a, c) for a, c in problems
                if not isinstance(_solve_or_error(REFERENCE[solve], a, c, bounds), Exception)
            ]
            captured["batched"].clear()
            captured["reference"].clear()
            for a, c in solvable:
                REFERENCE[solve](a, c, bounds)
            assert all(p is not None for p in many(solvable, bounds))
            assert len(captured["batched"]) == len(captured["reference"]) == len(solvable)
            for got, want in zip(captured["batched"], captured["reference"]):
                assert got.tobytes() == want.tobytes()


def test_prefetch_leaves_failed_problems_to_a_single_solve():
    good = [ScaledExponential(b=1.0), ScaledExponential(b=1.0, beta=2.0)]
    bad = [AffineQuadratic(1.0, 0.0, 1.0)]
    cache = ProfileCache("eq")
    cache.prefetch([((0, 1), good), ((0,), bad), ((0,), good)], WIDE)
    with pytest.raises(SolverError) as batched:
        cache.profile((0,), bad, WIDE)
    with pytest.raises(SolverError) as alone:
        equilibrium_scopes((0,), bad, WIDE)
    assert str(batched.value) == str(alone.value)
    # The memo is keyed by member specs and bounds, so another cost list
    # reuses a profile and other bounds do not.
    assert cache.profile((0,), [good[0], bad[0]], WIDE) is cache.profile((0,), good, WIDE)
    narrow = ScopeBounds(0.1, 1.5)
    assert cache.profile((0,), good, narrow) == equilibrium_scopes((0,), good, narrow)
    assert cache.profile((0,), good, narrow) != cache.profile((0,), good, WIDE)


# The single-problem solvers as they were before batched passes, kept
# verbatim as the reference that every batched or single solve must equal
# bit for bit.

def _reference_roots(fn, grid: np.ndarray) -> tuple[list[float], np.ndarray]:
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


def _reference_reply_grid(spec: CostSpec, bounds: ScopeBounds, totals: np.ndarray) -> np.ndarray:
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


def reference_equilibrium_scopes(
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
        return sum(cnt * _reference_reply_grid(spec, bounds, totals) for spec, cnt in counts.items()) - totals

    roots, h_grid = _reference_roots(reply_gap, grid)
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
    per_agent = {i: float(_reference_reply_grid(specs[i], bounds, total)) for i in members if i not in pool}
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


def reference_planner_scopes(
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

    roots, g_grid = _reference_roots(gap_vec, lam_grid)
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
            edges, _ = _reference_roots(
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


REFERENCE = {
    equilibrium_scopes: reference_equilibrium_scopes,
    planner_scopes: reference_planner_scopes,
}


def _stacked_problem_sets(seed):
    """Seeded (bounds, problems) sets whose passes stack many specs per family.

    Every drawn spec has its own beta (or a, or affine coefficients), scaled
    powers mix p in {2, 2.5, 3, 4}, and about a quarter of the members reuse
    an earlier spec, within a team or across teams.
    """
    rng = np.random.default_rng(seed)

    def spec(family):
        if family == 0:
            return ScaledExponential(b=float(rng.choice([0.5, 1.0, 2.0])),
                                     beta=float(rng.uniform(1.0, 20.0)))
        if family == 1:
            return ScaledPower(a=float(rng.uniform(0.2, 3.0)),
                               p=float(rng.choice([2.0, 2.5, 3.0, 4.0])),
                               beta=float(rng.uniform(1.0, 5.0)))
        return AffineQuadratic(float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.0, 1.0)),
                               float(rng.uniform(0.05, 3.0)))

    for bounds in (WIDE, ScopeBounds(0.01, 50.0), ScopeBounds(0.5, 2.5)):
        drawn, problems = [], []
        for _ in range(64):
            costs = []
            for _ in range(int(rng.integers(1, 5))):
                if drawn and rng.random() < 0.25:
                    costs.append(drawn[int(rng.integers(len(drawn)))])
                else:
                    drawn.append(spec(int(rng.integers(3))))
                    costs.append(drawn[-1])
            problems.append((tuple(range(len(costs))), costs))
        yield bounds, problems


def test_stacked_gap_grids_equal_the_reference_bit_for_bit(monkeypatch):
    # Passes of PASS_ROWS = 16 rows evaluate each member position's terms by
    # stack key, so one call covers many specs; every grid value must still
    # equal the per-spec reference solver's.
    assert scopes_module.PASS_ROWS == 16
    this = sys.modules[__name__]
    captured = {"batched": [], "reference": []}
    stacked = set()

    def capturing(real, into):
        def roots(fn, grid):
            found, values = real(fn, grid)
            if grid.shape[-1] == SCAN_POINTS:
                into.extend(np.atleast_2d(values))
            return found, values
        return roots

    real_take = scopes_module.SpecStack.take

    def take(stack, rows):
        if len(set(rows.tolist())) > 1:
            stacked.add(stack.family.__name__)
        return real_take(stack, rows)

    monkeypatch.setattr(scopes_module.SpecStack, "take", take)
    monkeypatch.setattr(scopes_module, "_roots",
                        capturing(scopes_module._roots, captured["batched"]))
    monkeypatch.setattr(this, "_reference_roots",
                        capturing(_reference_roots, captured["reference"]))
    compared = 0
    for bounds, problems in _stacked_problem_sets(5):
        for solve, many in ((equilibrium_scopes, equilibrium_profiles),
                            (planner_scopes, planner_profiles)):
            solvable = [
                (a, c) for a, c in problems
                if not isinstance(_solve_or_error(REFERENCE[solve], a, c, bounds), Exception)
            ]
            captured["batched"].clear()
            captured["reference"].clear()
            references = [REFERENCE[solve](a, c, bounds) for a, c in solvable]
            assert many(solvable, bounds) == references
            assert len(captured["batched"]) == len(captured["reference"]) == len(solvable)
            for got, want in zip(captured["batched"], captured["reference"]):
                assert got.tobytes() == want.tobytes()
            compared += len(solvable)
    assert compared > 200
    assert stacked == {"ScaledExponential", "ScaledPower", "AffineQuadratic"}


def test_stacked_spec_takes_columns_and_keeps_exponents_scalar():
    specs = [ScaledPower(a=1.0, p=3.0, beta=2.0), ScaledPower(a=2.5, p=3.0)]
    stack = scopes_module.SpecStack(specs)
    spec = stack.take(np.array([1, 0, 1]))
    assert spec.p == 3.0 and spec.a.shape == spec.beta.shape == (3, 1)
    sigma = np.linspace(0.1, 2.0, 12).reshape(3, 4)
    for row, k in enumerate([1, 0, 1]):
        assert spec.cost(sigma)[row].tobytes() == specs[k].cost(sigma[row]).tobytes()
    assert specs[0].stack_key() == specs[1].stack_key() != ScaledPower(a=1.0, p=2.0).stack_key()


def test_reply_pattern_memo_keeps_split_and_merged_specs_apart():
    # The two exponential agents share one spec (their replies are summed as
    # 2 * reply) or have two (reply + reply, in member order): the same reply
    # keys, but a different residual in the last bits.
    bounds = ScopeBounds(0.01, 50.0)
    merged = [ScaledPower(a=1.0, p=3.0), ScaledExponential(b=1.0), ScaledExponential(b=1.0)]
    split = [ScaledPower(a=1.0, p=3.0), ScaledExponential(b=1.0),
             ScaledExponential(b=1.0, beta=2.0)]
    rescaled = [ScaledPower(a=2.0, p=3.0, beta=1.5), ScaledExponential(b=1.0, beta=3.0),
                ScaledExponential(b=1.0, beta=3.0)]
    team = (0, 1, 2)
    assert equilibrium_scopes(team, merged, bounds) != equilibrium_scopes(team, split, bounds)
    for first, second in ((merged, split), (split, merged)):
        cache = ProfileCache("eq")
        one, two = cache.profile(team, first, bounds), cache.profile(team, second, bounds)
        assert len(cache._profiles) == 2
        assert one == equilibrium_scopes(team, first, bounds)
        assert two == equilibrium_scopes(team, second, bounds)
    # Scaled copies that share specs alike reuse the entry, and equal a fresh solve.
    assert cache.profile(team, rescaled, bounds) is cache.profile(team, merged, bounds)
    assert len(cache._profiles) == 2
    assert cache.profile(team, rescaled, bounds) == equilibrium_scopes(team, rescaled, bounds)


def test_planner_gap_overflow_raises_the_guarded_cost_error():
    # The gap checks costs once, through their sum; a non-finite sum
    # re-evaluates the terms through the guarded cost(), so the error is the
    # one a member's own cost() raises.
    costs, bounds = [ScaledPower(a=5e305, p=2.0)], ScopeBounds(0.1, 100.0)
    text = ("ScaledPower(a=5e+305, p=2.0, beta=1.0) produced a non-finite value "
            "at sigma=18.97192945909745")
    for solve in (planner_scopes, reference_planner_scopes):
        with pytest.raises(CostDomainError) as raised:
            solve((0,), costs, bounds)
        assert str(raised.value) == text
    assert planner_profiles([((0,), costs)], bounds) == [None]


def test_alliance_major_scan_row_takes_slices_and_keeps_every_profile(monkeypatch):
    # One row of the 96-step scenarios/scan.json (beta3 = 12): cell-major is
    # how the row's problems were once listed, alliance-major how scan lists
    # them.  Alliance-major, every member position's terms are one run of
    # rows, so the pass reads them through slices.
    b3 = 12.0
    cells = [[ScaledExponential(b=1.0), ScaledExponential(b=1.0, beta=b2),
              ScaledExponential(b=1.0, beta=b3)]
             for b2 in np.arange(1, 97) * 0.25 if b3 > b2 > 1.0]
    alliances = ((0, 1, 2), (1, 2), (2,))
    cell_major = [(a, c) for c in cells for a in alliances]
    alliance_major = [(a, c) for a in alliances for c in cells]
    orders = []
    real_by_term = scopes_module._by_term

    def recording(slots, rows):
        for order, cnt, terms in real_by_term(slots, rows):
            orders.append(order)
            yield order, cnt, terms

    for many in (equilibrium_profiles, planner_profiles):
        before = dict(zip(map(repr, cell_major), many(cell_major, WIDE)))
        monkeypatch.setattr(scopes_module, "_by_term", recording)
        after = dict(zip(map(repr, alliance_major), many(alliance_major, WIDE)))
        monkeypatch.setattr(scopes_module, "_by_term", real_by_term)
        assert None not in after.values()
        assert after == before
    assert len(cells) == 43 and len(orders) > 100
    assert all(isinstance(order, slice) for order in orders)


def test_cell_major_prefetch_takes_slices_and_keeps_every_profile(monkeypatch):
    # The same scan row listed cell by cell: prefetch orders the problems
    # largest alliance first itself, so its passes still read every member
    # position's terms through slices, and each profile is a single solve's.
    b3 = 12.0
    cells = [[ScaledExponential(b=1.0), ScaledExponential(b=1.0, beta=b2),
              ScaledExponential(b=1.0, beta=b3)]
             for b2 in np.arange(1, 97) * 0.25 if b3 > b2 > 1.0]
    cell_major = [(a, c) for c in cells for a in ((0, 1, 2), (1, 2), (2,))]
    orders = []
    real_by_term = scopes_module._by_term

    def recording(slots, rows):
        for order, cnt, terms in real_by_term(slots, rows):
            orders.append(order)
            yield order, cnt, terms

    cache = ProfileCache("sp")
    monkeypatch.setattr(scopes_module, "_by_term", recording)
    cache.prefetch(cell_major, WIDE)
    monkeypatch.setattr(scopes_module, "_by_term", real_by_term)
    assert len(cache._profiles) == 2 * len(cells) + 1  # the cells share (2,)
    assert len(orders) > 50 and all(isinstance(order, slice) for order in orders)
    for alliance, costs in cell_major:
        assert cache.profile(alliance, costs, WIDE) == planner_scopes(alliance, costs, WIDE)


def test_mixed_pass_groups_terms_by_position_and_stack():
    # Four rows whose positions mix two families, with row 2 lacking a term at
    # position 1 and the exponential terms at position 0 not one run.
    e1, e2, e3 = (ScaledExponential(b=1.0, beta=beta) for beta in (1.0, 3.0, 7.0))
    p1, p2, p3 = (ScaledPower(a=a, p=3.0) for a in (0.5, 1.5, 2.5))
    terms = [[(e1, 1), (p1, 1)], [(p2, 1), (e2, 1)], [(e3, 2)], [(e1, 1), (p3, 1)]]
    slots = scopes_module._slots(terms)
    x_all = np.linspace(0.2, 3.0, 30).reshape(6, 5)
    for rows in (np.arange(4), np.array([0, 2, 2, 3, 3, 1])):
        x = x_all[:len(rows)]
        groups = list(scopes_module._by_term(slots, rows))
        # One group per (position, family) present, families in pass order.
        want = []
        for k in range(2):
            for family in dict.fromkeys(type(t[k][0]) for t in terms if k < len(t)):
                entries = [j for j, r in enumerate(rows)
                           if k < len(terms[r]) and type(terms[r][k][0]) is family]
                want += [(k, family, entries)] if entries else []
        assert len(groups) == len(want)
        for (order, cnt, spec), (k, family, entries) in zip(groups, want):
            assert np.arange(len(rows))[order].tolist() == entries
            contiguous = entries[-1] - entries[0] + 1 == len(entries)
            assert isinstance(order, slice) == contiguous
            own = [terms[rows[j]][k] for j in entries]
            assert cnt.ravel().tolist() == [c for _, c in own]
            assert type(spec) is family
            got = spec.cost(x[order])
            for i, (s, _) in enumerate(own):
                assert got[i].tobytes() == s.cost(x[entries[i]]).tobytes()
        assert not all(isinstance(order, slice) for order, _, _ in groups)
        cost, scope = scopes_module._row_sums(
            slots, x, rows, lambda spec, xs, cnt: [spec.cost(xs) * cnt, spec.marginal(xs)])
        for j, r in enumerate(rows):
            c = m = None
            for s, n in terms[r]:
                c = s.cost(x[j]) * n if c is None else c + s.cost(x[j]) * n
                m = s.marginal(x[j]) if m is None else m + s.marginal(x[j])
            assert cost[j].tobytes() == c.tobytes() and scope[j].tobytes() == m.tobytes()


def test_stack_of_one_spec_is_that_spec():
    spec = ScaledPower(a=1.0, p=3.0, beta=2.0)
    assert scopes_module.SpecStack([spec]).take(np.array([0, 0, 0])) is spec


def test_reply_pattern_finds_first_equal_specs_in_linear_time():
    # Each member's first equal spec is looked up by hash, so an alliance of
    # distinct specs makes no quadratic run of equality tests.
    calls = [0]

    class CountingExponential(ScaledExponential):
        __hash__ = ScaledExponential.__hash__

        def __eq__(self, other):
            calls[0] += 1
            return super().__eq__(other)

    n = 400
    distinct = [CountingExponential(b=1.0, beta=1.0 + k / n) for k in range(n)]
    pattern = scopes_module._reply_pattern(tuple(range(n)), distinct)
    assert calls[0] < 2 * n
    assert pattern[1] == tuple(range(n))
    # Repeated (equal but not identical) and rescaled specs give the key that
    # looking each member's spec up by ``specs.index`` gives.
    exp, power = CountingExponential(b=1.0), ScaledPower(a=1.0, p=3.0)
    costs = [exp, power, CountingExponential(b=1.0), exp, CountingExponential(b=1.0, beta=2.0),
             ScaledPower(a=2.0, p=3.0, beta=1.5), ScaledPower(a=1.0, p=3.0),
             CountingExponential(b=1.0, beta=2.0)]
    for alliance in (tuple(range(len(costs))), (7, 4, 0, 2), (6, 1, 3, 5)):
        specs = tuple(costs[i] for i in alliance)
        assert scopes_module._reply_pattern(alliance, costs) == (
            tuple(spec.reply_key() for spec in specs), tuple(map(specs.index, specs)))


@pytest.mark.parametrize("specs, rows", [
    ([ScaledExponential(b=1.0, beta=1.0), ScaledExponential(b=1.0, beta=3.0),
      ScaledExponential(b=1.0, beta=7.5)], [2, 0, 1, 2]),
    ([ScaledPower(a=2.0, p=3.0, beta=1.0), ScaledPower(a=2.0, p=3.0, beta=4.0)], [1, 0, 1]),
    ([AffineQuadratic(a2=1.5, a1=0.0, a0=0.5), AffineQuadratic(a2=1.5, a1=0.25, a0=0.5),
      AffineQuadratic(a2=1.5, a1=0.75, a0=0.5)], [0, 2, 1, 0]),
], ids=["exp", "pow", "affine"])
def test_stacked_spec_keeps_shared_parameters_as_floats(specs, rows):
    # A parameter every spec of the stack shares is one float, not a column;
    # each element still gets its own spec's bits from every method.
    spec = scopes_module.SpecStack(specs).take(np.array(rows))
    for name in specs[0].__dataclass_fields__:
        values = {getattr(s, name) for s in specs}
        value = getattr(spec, name)
        if len(values) == 1:
            assert type(value) is float and value == values.pop()
        else:
            assert value.shape == (len(rows), 1)
    x = np.linspace(0.1, 5.0, 6 * len(rows)).reshape(len(rows), 6)
    for method in ("cost", "marginal", "inverse_marginal", "ratio", "scope_at_ratio"):
        if isinstance(specs[0], ScaledExponential) and method == "scope_at_ratio":
            for s in (spec, specs[0]):
                with pytest.raises(CostDomainError):
                    s.scope_at_ratio(x)
            continue
        got = getattr(spec, method)(x)
        for j, k in enumerate(rows):
            assert got[j].tobytes() == getattr(specs[k], method)(x[j]).tobytes(), method


def test_stacked_spec_keeps_signed_zeros_apart():
    # 0.0 and -0.0 compare equal but may round differently: not a shared value.
    specs = [AffineQuadratic(a2=1.0, a1=0.0, a0=1.0), AffineQuadratic(a2=1.0, a1=-0.0, a0=2.0)]
    spec = scopes_module.SpecStack(specs).take(np.array([0, 1]))
    assert spec.a2 == 1.0 and np.signbit(spec.a1.ravel()).tolist() == [False, True]


def test_planner_pass_takes_each_stack_once_per_row_set(monkeypatch):
    # A pass groups its terms once per row set: the grid call and the rounds
    # in which every row keeps its one bracket reuse the grid call's groups.
    cells = [[ScaledExponential(b=1.0), ScaledExponential(b=1.0, beta=b2),
              ScaledExponential(b=1.0, beta=12.0)]
             for b2 in np.arange(1, 97) * 0.25 if 12.0 > b2 > 1.0]
    problems = [(a, c) for a in ((0, 1, 2), (1, 2), (2,)) for c in cells]
    takes, stacks, yields = {}, [], [0]
    real_take = scopes_module.SpecStack.take

    def take(stack, rows):
        stacks.append(stack)  # kept alive, so no id is reused
        key = id(stack), rows.tobytes()
        takes[key] = takes.get(key, 0) + 1
        return real_take(stack, rows)

    real_by_term = scopes_module._by_term

    def by_term(slots, rows):
        for group in real_by_term(slots, rows):
            yields[0] += 1
            yield group

    monkeypatch.setattr(scopes_module.SpecStack, "take", take)
    monkeypatch.setattr(scopes_module, "_by_term", by_term)
    profiles = planner_profiles(problems, WIDE)
    monkeypatch.undo()
    assert takes and max(takes.values()) == 1
    assert yields[0] > 2 * len(takes)  # the rounds reuse the grid call's groups
    for (alliance, costs), prof in zip(problems, profiles):
        assert prof == planner_scopes(alliance, costs, WIDE)
