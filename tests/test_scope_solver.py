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
    equilibrium_scopes,
    interior_capacity,
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_single_solves_equal_the_reference(seed):
    seen = set()
    for bounds, problems in _problem_sets(seed):
        for solve in (equilibrium_scopes, planner_scopes):
            single = [_solve_or_error(solve, a, c, bounds) for a, c in problems]
            reference = REFERENCE[solve]
            for (a, c), alone in zip(problems, single):
                want = _solve_or_error(reference, a, c, bounds)
                if solve is planner_scopes and _matches_reference(alone, want, a, c, bounds):
                    seen.add("closed")
                elif isinstance(want, Exception):
                    assert (type(alone), str(alone)) == (type(want), str(want))
                else:
                    # Every field (per_agent, total, warnings, residual, ...) is equal.
                    assert alone == want
            for s in single:
                if isinstance(s, Exception):
                    seen.add("error")
                    continue
                seen.update(w.split(" ")[0] for w in s.warnings)
                if any(v in (bounds.lo, bounds.hi) for v in s.per_agent.values()):
                    seen.add("bound")
    assert seen >= {"error", "bound", "multiple", "reply", "optimality", "closed"}


@pytest.mark.parametrize("mode", ["shared", "reversed", "warm"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planner_solves_sharing_a_memo_equal_the_reference(seed, mode):
    # One memo of c' at the bounds serves every problem of every set: filled
    # in problem order, in reverse order, or by a first pass before the pass
    # that is checked.  It changes no profile and no error.
    memo, sets = {}, list(_problem_sets(seed))
    if mode == "reversed":
        sets = [(bounds, problems[::-1]) for bounds, problems in sets]

    def solve(alliance, costs, bounds):
        return planner_scopes(alliance, costs, bounds, memo)

    if mode == "warm":
        for bounds, problems in sets:
            for a, c in problems:
                _solve_or_error(solve, a, c, bounds)
    warmed = {bounds: tuple(map(len, pair)) for bounds, pair in memo.items()}
    seen = set()
    for bounds, problems in sets:
        for a, c in problems:
            got = _solve_or_error(solve, a, c, bounds)
            want = _solve_or_error(reference_planner_scopes, a, c, bounds)
            if _matches_reference(got, want, a, c, bounds):
                seen.add("closed")
            elif isinstance(want, Exception):
                seen.add("error")
                assert (type(got), str(got)) == (type(want), str(want))
            else:
                seen.add("grid")
                assert got == want
    assert seen == {"closed", "error", "grid"}
    assert set(memo) == {bounds for bounds, _ in sets}
    if mode == "warm":  # the checked pass found every c' it read in the memo
        assert {bounds: tuple(map(len, pair)) for bounds, pair in memo.items()} == warmed


def _builds_grid(alliance, costs, bounds) -> bool:
    """Whether a planner solve of the problem alone calls ``_roots``, solved or not."""
    calls = []
    real = scopes_module._roots

    def roots(fn, grid):
        calls.append(grid.shape)
        return real(fn, grid)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scopes_module, "_roots", roots)
        _solve_or_error(planner_scopes, alliance, costs, bounds)
    return bool(calls)


def _closed_form_multiplier(specs) -> float:
    """The paper's multiplier of an all-exponential team with every scope interior:
    log lam = (2W - sum(log(beta_i / b_i) / b_i)) / W with W = sum(1 / b_i)."""
    b, beta = (np.array([getattr(s, name) for s in specs]) for name in ("b", "beta"))
    w = np.sum(1.0 / b)
    return float(np.exp((2.0 * w - np.sum(np.log(beta / b) / b)) / w))


def _assert_interior_kkt(profile, specs, bounds) -> None:
    """The planner's conditions with every scope interior: c'(sigma_i) = lam, 2 sum C = lam S."""
    lam = _closed_form_multiplier(specs)
    sig = profile.scopes()
    assert ((bounds.lo < sig) & (sig < bounds.hi)).all()
    for spec, s in zip(specs, sig):
        assert abs(spec.marginal(s) - lam) <= 1e-12 * lam
    cost = sum(spec.cost(s) for spec, s in zip(specs, sig))
    assert abs(2.0 * cost - lam * profile.total) <= 1e-12 * max(1.0, lam * profile.total)


def _assert_box_kkt(profile, specs, bounds) -> None:
    """The planner's conditions on the box [lo, hi], for one multiplier lam:
    c'(sigma_i) = lam for interior scopes, c'(lo) >= lam for scopes at lo,
    c'(hi) <= lam for scopes at hi, and 2 sum C = lam S.  lam is an interior
    member's c', or 2 sum C / S when every scope sits on a bound."""
    sig = profile.scopes()
    assert ((bounds.lo <= sig) & (sig <= bounds.hi)).all()
    inner = [spec.marginal(s) for spec, s in zip(specs, sig) if bounds.lo < s < bounds.hi]
    cost = sum(spec.cost(s) for spec, s in zip(specs, sig))
    lam = inner[0] if inner else 2.0 * cost / profile.total
    for marginal in inner:
        assert abs(marginal - lam) <= 1e-12 * lam
    for spec, s in zip(specs, sig):
        if s == bounds.lo:
            assert spec.marginal(s) >= lam * (1.0 - 1e-12)
        elif s == bounds.hi:
            assert spec.marginal(s) <= lam * (1.0 + 1e-12)
    assert abs(2.0 * cost - lam * profile.total) <= 1e-12 * max(1.0, lam * profile.total)


def _matches_reference(alone, want, alliance, costs, bounds) -> bool:
    """True, after checking it, when the planner took the closed form for the
    problem: no grid, an all-exponential team, the reference's flags and
    warnings, its scopes to the solver's residual bound (1e-10 relative) and
    the KKT conditions (on the box when a scope sits on a bound).  False for a
    grid row, which the caller compares bit for bit; an all-exponential row
    the reference solves is no grid row.
    """
    specs = [costs[i] for i in as_alliance(alliance)]
    exponential = all(isinstance(spec, ScaledExponential) for spec in specs)
    if _builds_grid(alliance, costs, bounds):
        assert not (exponential and isinstance(want, ScopeProfile))
        return False
    assert exponential and isinstance(want, ScopeProfile)
    assert (alone.interior, alone.degenerate, alone.warnings) == (
        want.interior, want.degenerate, want.warnings)
    assert list(alone.per_agent) == list(want.per_agent)
    for got, ref in zip(alone.scopes(), want.scopes()):
        assert abs(got - ref) <= 1e-10 * abs(ref)
    if all(bounds.lo < s < bounds.hi for s in alone.per_agent.values()):
        _assert_interior_kkt(alone, specs, bounds)
    else:
        _assert_box_kkt(alone, specs, bounds)
    return True


def _capturing(real, into):
    """``real``, a root finder, that adds each SCAN_POINTS grid's gap values to ``into``."""
    def roots(fn, grid):
        found, values = real(fn, grid)
        if grid.shape[-1] == SCAN_POINTS:
            into.append(values)
        return found, values
    return roots


def test_gap_grids_equal_the_reference_bit_for_bit(monkeypatch):
    # Profiles can agree while gap values differ in the last bit (the roots
    # rarely move); the grids themselves must match, so each gap must sum its
    # terms in the problem's own order.
    this = sys.modules[__name__]
    captured = {"solver": [], "reference": []}
    monkeypatch.setattr(scopes_module, "_roots",
                        _capturing(scopes_module._roots, captured["solver"]))
    monkeypatch.setattr(this, "_reference_roots",
                        _capturing(_reference_roots, captured["reference"]))
    closed = 0
    for bounds, problems in _problem_sets(3):
        for solve in (equilibrium_scopes, planner_scopes):
            solvable = [
                (a, c) for a, c in problems
                if not isinstance(_solve_or_error(REFERENCE[solve], a, c, bounds), Exception)
            ]
            # A closed-form planner row builds no grid: only the others' grids are compared.
            gridded = [solve is equilibrium_scopes or _builds_grid(a, c, bounds)
                       for a, c in solvable]
            captured["solver"].clear()
            captured["reference"].clear()
            references = [REFERENCE[solve](a, c, bounds) for a, c in solvable]
            profiles = [solve(a, c, bounds) for a, c in solvable]
            want_grids = [g for g, on in zip(captured["reference"], gridded) if on]
            assert len(captured["solver"]) == len(want_grids) == sum(gridded)
            for got, want in zip(captured["solver"], want_grids):
                assert got.tobytes() == want.tobytes()
            for (a, c), prof, ref, on in zip(solvable, profiles, references, gridded):
                if not on:
                    closed += _matches_reference(prof, ref, a, c, bounds)
    assert closed > 0


def test_planner_cache_keys_profiles_by_member_specs_and_bounds():
    good = [ScaledExponential(b=1.0), ScaledExponential(b=1.0, beta=2.0)]
    # The overflow case of test_planner_gap_overflow_raises_the_guarded_cost_error.
    bad, bounds = [ScaledPower(a=5e305, p=2.0)], ScopeBounds(0.1, 100.0)
    cache = ProfileCache("sp")
    cache.profile((0, 1), good, bounds)
    with pytest.raises(CostDomainError) as cached:
        cache.profile((0,), bad, bounds)
    with pytest.raises(CostDomainError) as alone:
        planner_scopes((0,), bad, bounds)
    assert str(cached.value) == str(alone.value)
    # The memo is keyed by member specs and bounds, so another cost list
    # reuses a profile and other bounds do not.
    assert cache.profile((0,), [good[0], bad[0]], bounds) is cache.profile((0,), good, bounds)
    narrow = ScopeBounds(0.1, 3.0)
    assert cache.profile((0,), good, narrow) == planner_scopes((0,), good, narrow)
    assert cache.profile((0,), good, narrow) is not cache.profile((0,), good, bounds)


# The single-problem solvers as they were before batched passes, kept
# verbatim as the reference that every solve must equal bit for bit.

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


def _many_spec_problem_sets(seed):
    """Seeded (bounds, problems) sets with many distinct specs per family.

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


def test_many_spec_gap_grids_equal_the_reference_bit_for_bit(monkeypatch):
    # Planner problems solved one after another with one memo of c' at the
    # bounds: every grid value must still equal the per-spec reference solver's.
    this = sys.modules[__name__]
    captured = {"solver": [], "reference": []}
    monkeypatch.setattr(scopes_module, "_roots",
                        _capturing(scopes_module._roots, captured["solver"]))
    monkeypatch.setattr(this, "_reference_roots",
                        _capturing(_reference_roots, captured["reference"]))
    compared = closed = 0
    for bounds, problems in _many_spec_problem_sets(5):
        for solve in (equilibrium_scopes, planner_scopes):
            solvable = [
                (a, c) for a, c in problems
                if not isinstance(_solve_or_error(REFERENCE[solve], a, c, bounds), Exception)
            ]
            gridded = [solve is equilibrium_scopes or _builds_grid(a, c, bounds)
                       for a, c in solvable]
            captured["solver"].clear()
            captured["reference"].clear()
            references = [REFERENCE[solve](a, c, bounds) for a, c in solvable]
            memo = (({},) if solve is planner_scopes else ())
            profiles = [solve(a, c, bounds, *memo) for a, c in solvable]
            for (a, c), prof, ref, on in zip(solvable, profiles, references, gridded):
                if on:
                    assert prof == ref
                else:
                    closed += _matches_reference(prof, ref, a, c, bounds)
            want_grids = [g for g, on in zip(captured["reference"], gridded) if on]
            assert len(captured["solver"]) == len(want_grids) == sum(gridded)
            for got, want in zip(captured["solver"], want_grids):
                assert got.tobytes() == want.tobytes()
            compared += sum(gridded)
    assert compared > 200 and closed > 0


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
    with pytest.raises(CostDomainError, match="at sigma=18.97192945909745"):
        ProfileCache("sp").profile((0,), costs, bounds)


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


@pytest.mark.parametrize("b", [0.25, 0.5, 0.7, 1.0, 1.3, 2.0, 3.0, 4.0])
def test_single_exponential_planner_scope_is_exactly_two_over_b(b):
    # lam = b e^2 / beta, so sigma = log(lam beta / b) / b = 2 / b; the grid's
    # k-section gave 1.9999999999999176 at b = 1.
    profile = planner_scopes((0,), [ScaledExponential(b=b)], ScopeBounds(0.01, 50.0))
    assert profile.per_agent == {0: 2.0 / b}
    assert profile.interior and not profile.warnings


def test_single_exponential_planner_scope_is_two_over_b_to_a_few_ulps():
    # Other rates keep 2 / b to the rounding of the exp/log round trip.
    for b in np.geomspace(0.05, 12.0, 97):
        sigma = planner_scopes((0,), [ScaledExponential(b=float(b))], ScopeBounds(0.01, 50.0)).total
        assert abs(sigma - 2.0 / b) <= 4 * math.ulp(2.0 / b)


def test_closed_form_rows_meet_the_kkt_conditions_and_the_reference(monkeypatch):
    # Random all-exponential rows with every scope inside the bounds: the
    # reference's grid finds one root on each, and the closed form, which
    # builds no grid, matches its profile to 1e-10 and meets the conditions.
    this = sys.modules[__name__]
    found = []
    real = _reference_roots

    def counting(fn, grid):
        roots, values = real(fn, grid)
        found.append(len(roots))
        return roots, values

    rng = np.random.default_rng(23)
    bounds = ScopeBounds(0.01, 50.0)
    checked = 0
    for _ in range(300):
        costs = [ScaledExponential(b=float(rng.uniform(0.2, 5.0)),
                                   beta=float(rng.uniform(1.0, 30.0)))
                 for _ in range(int(rng.integers(1, 7)))]
        alliance = tuple(range(len(costs)))
        found.clear()
        monkeypatch.setattr(this, "_reference_roots", counting)
        want = reference_planner_scopes(alliance, costs, bounds)
        monkeypatch.undo()
        if not all(bounds.lo < s < bounds.hi for s in want.per_agent.values()):
            continue
        assert found == [1]
        assert _matches_reference(planner_scopes(alliance, costs, bounds), want, alliance, costs,
                                  bounds)
        checked += 1
    assert checked > 150


def test_closed_form_overflow_falls_to_the_grid_and_its_error():
    # The closed-form exponent, about 711, is past the float range: the
    # closed form declines the row rather than overflow, and the solve raises
    # the guarded cost error of c' at lo, as the grid solver does.
    costs, bounds = [ScaledExponential(b=1e308)], ScopeBounds(1e-9, 10.0)
    # The row is declined before its c' at the bounds, which overflows too, is read.
    assert scopes_module._exponential_profile({0: costs[0]}, bounds, {}, {}) is None
    text = "ScaledExponential(b=1e+308, beta=1.0) produced a non-finite value at sigma=1e-09"
    for solve in (planner_scopes, reference_planner_scopes):
        with pytest.raises(CostDomainError) as raised:
            solve((0,), costs, bounds)
        assert str(raised.value) == text


def test_planner_cache_of_closed_form_and_grid_rows_equals_each_solve_alone():
    # One cache's memo of c' at the bounds, shared by closed-form and grid
    # rows, changes no profile.
    exp = [ScaledExponential(b=1.0), ScaledExponential(b=1.0, beta=2.5),
           ScaledExponential(b=2.0, beta=4.0)]
    mixed = [ScaledPower(a=1.0, p=3.0), ScaledExponential(b=1.0, beta=3.0),
             AffineQuadratic(1.0, 0.0, 0.01)]
    problems = [((0, 1, 2), exp), ((0, 1, 2), mixed), ((1, 2), exp), ((1, 2), mixed),
                ((0,), exp), ((2,), mixed), ((0, 2), exp), ((0, 1), mixed)]
    gridded = [_builds_grid(a, c, WIDE) for a, c in problems]
    assert gridded == [False, True, False, True, False, True, False, True]
    cache = ProfileCache("sp")
    assert [cache.profile(a, c, WIDE) for a, c in problems] == [
        planner_scopes(a, c, WIDE) for a, c in problems]


@pytest.mark.parametrize("costs, bounds", [
    ([ScaledExponential(b=1.0), ScaledExponential(b=1.0, beta=1e4)], WIDE),  # agent 1 at lo
    ([ScaledExponential(b=1.0, beta=2.0)], ScopeBounds(3.0, 10.0)),  # no root in the bracket
], ids=["bound", "no-root"])
def test_bound_touching_exponential_rows_keep_the_grid(monkeypatch, costs, bounds):
    # A row with a member clipped at a bound takes the closed form of its
    # segment: no grid, the box conditions, the reference's profile to 1e-10.
    # A row whose root lies outside the grid's bracket keeps the grid and
    # gives the reference's error, bit for bit.
    this = sys.modules[__name__]
    captured = {"solver": [], "reference": []}
    monkeypatch.setattr(scopes_module, "_roots",
                        _capturing(scopes_module._roots, captured["solver"]))
    monkeypatch.setattr(this, "_reference_roots",
                        _capturing(_reference_roots, captured["reference"]))
    alliance = tuple(range(len(costs)))
    got = _solve_or_error(planner_scopes, alliance, costs, bounds)
    want = _solve_or_error(reference_planner_scopes, alliance, costs, bounds)
    if isinstance(want, Exception):
        assert str(want).startswith("no planner multiplier")
        assert (type(got), str(got)) == (type(want), str(want))
        assert len(captured["solver"]) == len(captured["reference"]) == 1
        assert captured["solver"][0].tobytes() == captured["reference"][0].tobytes()
    else:
        assert bounds.lo in want.per_agent.values() and bounds.lo in got.per_agent.values()
        assert captured["solver"] == []
        assert _matches_reference(got, want, alliance, costs, bounds)


@pytest.mark.parametrize("b3", [1.5, 12.0, 17.25, 17.5, 20.0, 24.0])
def test_scan_row_builds_no_planner_grid(monkeypatch, b3):
    # A row of the 96-step scenarios/scan.json: its chains make no _roots call.
    # Up to beta3 = 17.25 every planner optimum is interior; above, agent 1 of
    # the costliest cells sits at lo, and those rows take a clipped segment's
    # closed form.
    from teamsearch.planner import optimal_chains

    calls = []
    real = scopes_module._roots
    monkeypatch.setattr(scopes_module, "_roots",
                        lambda fn, grid: calls.append(grid.shape) or real(fn, grid))
    cells = [[ScaledExponential(b=1.0, beta=beta) for beta in (1.0, b2, b3)]
             for b2 in np.arange(1, 97) * 0.25 if b3 > b2 > 1.0]
    assert len(optimal_chains(cells, WIDE)) == len(cells) > 0 and calls == []


def test_profile_cache_names_its_modes():
    for mode in ("x", "SP", None, ["eq"]):
        with pytest.raises(ValueError) as raised:
            ProfileCache(mode)
        assert str(raised.value) == f"ProfileCache mode must be 'eq' or 'sp', got {mode!r}"
    assert ProfileCache("eq").mode == "eq" and ProfileCache("sp").mode == "sp"


@pytest.mark.parametrize("spec", [ScaledExponential(b=0.0), ScaledExponential(b=1.0, beta=0.5)],
                         ids=["b=0", "beta<1"])
def test_exponential_specs_outside_the_rules_keep_the_grid(spec):
    # The closed form takes only specs within the family's rules (b > 0,
    # beta >= 1); any other keeps the grid solver's profile or error, bit for bit.
    costs = [spec, ScaledExponential(b=1.0, beta=2.0)]
    got = _solve_or_error(planner_scopes, (0, 1), costs, WIDE)
    want = _solve_or_error(reference_planner_scopes, (0, 1), costs, WIDE)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got == want


def test_seeded_exponential_rows_meet_the_box_conditions():
    # Derandomized exponential teams (1-6 agents, log beta in [0, 6], b in
    # [0.2, 2]) on three bound pairs: every row that builds no grid meets the
    # box conditions, and matches the reference to 1e-10 where it solves;
    # where the reference finds no multiplier, the solve raises its text.
    rng = np.random.default_rng(24)
    pairs = (WIDE, ScopeBounds(0.01, 50.0), ScopeBounds(0.5, 2.5))
    seen = {"interior": 0, "clipped": 0, "no multiplier": 0}
    for t in range(600):
        bounds = pairs[t % 3]
        costs = [ScaledExponential(b=float(rng.uniform(0.2, 2.0)),
                                   beta=float(np.exp(rng.uniform(0.0, 6.0))))
                 for _ in range(int(rng.integers(1, 7)))]
        alliance = tuple(range(len(costs)))
        got = _solve_or_error(planner_scopes, alliance, costs, bounds)
        want = _solve_or_error(reference_planner_scopes, alliance, costs, bounds)
        if isinstance(want, Exception):
            assert str(want).startswith("no planner multiplier")
            assert (type(got), str(got)) == (type(want), str(want))
            seen["no multiplier"] += 1
            continue
        assert _matches_reference(got, want, alliance, costs, bounds)
        _assert_box_kkt(got, costs, bounds)
        on_bound = {bounds.lo, bounds.hi} & set(got.per_agent.values())
        seen["clipped" if on_bound else "interior"] += 1
    assert seen["interior"] > 100 and seen["clipped"] > 100 and seen["no multiplier"] > 0, seen


def test_unsorted_oracle_teams_build_no_planner_grid(monkeypatch):
    # Teams shaped like the oracle benchmark's: 5-6 exponential agents, b = 1,
    # log beta in [0, 6], unsorted, on [0.1, 10], so cheap agents sit at lo.
    # Their chains (the greedy over the team's suffixes) make no _roots call.
    from teamsearch.planner import optimal_chain

    calls = []
    real = scopes_module._roots
    monkeypatch.setattr(scopes_module, "_roots",
                        lambda fn, grid: calls.append(grid.shape) or real(fn, grid))
    rng = np.random.default_rng(51)
    clipped = 0
    for n in (6, 5, 5, 5, 6, 5):
        log_beta = rng.uniform(0.0, 6.0, n)
        while np.all(np.diff(log_beta) >= 0.0):
            log_beta = rng.permutation(log_beta)
        costs = [ScaledExponential(b=1.0, beta=float(beta)) for beta in np.exp(log_beta)]
        chain = optimal_chain(costs, WIDE)
        clipped += any(WIDE.lo in p.per_agent.values() for p in chain.profiles)
    assert calls == [] and clipped > 0


def test_segment_exponent_past_the_float_range_keeps_the_grid():
    # Agent 1 is interior at a multiplier of about e^700.4, past the closed
    # form's exponent limit, while agent 0 sits at lo: the row takes the grid
    # and gives the reference's result, bit for bit.
    costs, bounds = [ScaledExponential(b=1.0), ScaledExponential(b=1.0, beta=1000.0)], \
        ScopeBounds(707.0, 709.7)
    assert _builds_grid((0, 1), costs, bounds)
    with np.errstate(all="ignore"):  # the reference's gap overflows on its grid
        want = _solve_or_error(reference_planner_scopes, (0, 1), costs, bounds)
    got = _solve_or_error(planner_scopes, (0, 1), costs, bounds)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert got == want and got.per_agent[0] == bounds.lo


def test_planner_cache_evaluates_each_specs_marginal_once_per_bound(monkeypatch):
    # A sorted 40-agent greedy solves 40 suffixes, which share their specs,
    # through one ProfileCache("sp"): its memo evaluates c' once per distinct
    # spec at each bound.  Every scope is interior, so no other solve step
    # reads c' at a bound.
    from teamsearch.costs import CostFamily
    from teamsearch.planner import optimal_chain

    costs = [ScaledExponential(b=1.0, beta=1.0 + 0.05 * i) for i in range(40)]
    calls = []
    real = CostFamily.marginal

    def marginal(spec, sigma):
        calls.append((spec, sigma))
        return real(spec, sigma)

    monkeypatch.setattr(CostFamily, "marginal", marginal)
    chain = optimal_chain(costs, WIDE)
    monkeypatch.undo()
    assert all(WIDE.lo < s < WIDE.hi for p in chain.profiles for s in p.per_agent.values())
    at_bounds = [(spec, sigma) for spec, sigma in calls if sigma in (WIDE.lo, WIDE.hi)]
    assert sorted(at_bounds, key=repr) == sorted(
        [(spec, x) for spec in costs for x in (WIDE.lo, WIDE.hi)], key=repr)


def test_planner_solve_raises_the_first_error_at_lo_with_any_memo():
    # c' at lo is read for every member before c' at hi: the b = 1000 member
    # overflows at lo = 1, the b = 1 member only at hi = 800, so the solve
    # names sigma = 1.0, whether the memo is cold or already holds c'(lo) of
    # the b = 1 member (from a solve of it alone, which failed at hi).
    cheap, steep = ScaledExponential(b=1.0), ScaledExponential(b=1000.0)
    bounds = ScopeBounds(1, 800)
    text = "ScaledExponential(b=1000.0, beta=1.0) produced a non-finite value at sigma=1.0"
    memo = {}
    for _ in range(2):  # a memo holding c'(lo) alone still reads c'(hi)
        with pytest.raises(CostDomainError, match=r"ScaledExponential\(b=1.0, .* at sigma=800.0"):
            planner_scopes((0,), [cheap], bounds, memo)
        assert memo == {bounds: ({cheap: cheap.marginal(1.0)}, {})}
    for marginals in (None, {}, memo):
        with pytest.raises(CostDomainError) as raised:
            planner_scopes((0, 1), [cheap, steep], bounds, marginals)
        assert str(raised.value) == text


@pytest.mark.parametrize("cheap", [ScaledPower(a=1e303, p=3.0), AffineQuadratic(1e306, 0.0, 1.0)],
                         ids=["pow", "affine"])
@pytest.mark.parametrize("memo", ["none", "cold", "warm"])
def test_planner_solve_of_any_family_raises_the_first_error_at_lo(memo, cheap):
    # As for the b = 1 exponential member: a member of another family whose
    # c' overflows only at hi = 800 is read at lo first, so the b = 1000
    # member's overflow at lo = 1 is the error, and the memo keeps the
    # cheap member's c'(lo) and no c' at hi.
    steep, bounds = ScaledExponential(b=1000.0), ScopeBounds(1, 800)
    marginals = None if memo == "none" else {}
    if memo == "warm":
        with pytest.raises(CostDomainError, match=r"non-finite value at sigma=800\.0"):
            planner_scopes((0,), [cheap], bounds, marginals)
    with pytest.raises(CostDomainError) as raised:
        planner_scopes((0, 1), [cheap, steep], bounds, marginals)
    assert str(raised.value) == (
        "ScaledExponential(b=1000.0, beta=1.0) produced a non-finite value at sigma=1.0")
    if marginals is not None:
        assert marginals == {bounds: ({cheap: cheap.marginal(1.0)}, {})}


@pytest.mark.parametrize("costs", [
    [ScaledExponential(b=1.0), ScaledExponential(b=1.0, beta=2.5),
     ScaledExponential(b=2.0, beta=4.0)],
    [ScaledPower(a=1.0, p=3.0), ScaledPower(a=2.0, p=2.5, beta=1.5), ScaledPower(a=0.5, p=4.0)],
    [AffineQuadratic(1.0, 0.0, 1.0), AffineQuadratic(0.5, 0.5, 2.0),
     AffineQuadratic(2.0, 1.0, 0.25)],
], ids=["exp", "pow", "affine"])
def test_memo_shared_across_bounds_keeps_each_bounds_apart(costs):
    # One memo serves solves at three bounds: each solve equals a bare one,
    # and the memo holds, per bounds, each spec's own c' at lo and at hi.
    memo, all_bounds = {}, (WIDE, ScopeBounds(0.5, 2.5), ScopeBounds(0.01, 50.0))
    solved = 0
    for bounds in all_bounds:
        for alliance in ((0, 1, 2), (1, 2), (0,), (2,)):
            got = _solve_or_error(lambda a, c, b: planner_scopes(a, c, b, memo),
                                  alliance, costs, bounds)
            want = _solve_or_error(planner_scopes, alliance, costs, bounds)
            if isinstance(want, Exception):
                assert (type(got), str(got)) == (type(want), str(want))
            else:
                solved += 1
                assert got == want
    assert solved > 0
    assert list(memo) == list(all_bounds)
    for bounds, (at_lo, at_hi) in memo.items():
        assert list(at_lo) == list(at_hi) == costs
        for spec in costs:
            assert at_lo[spec].hex() == spec.marginal(bounds.lo).hex()
            assert at_hi[spec].hex() == spec.marginal(bounds.hi).hex()


def _mixed_scan_row():
    """The cells of one row (beta3 = 12) of the 96-step scenarios/scan.json,
    with agent 3 an affine agent: every suffix alliance has a non-exponential
    member, so every planner row takes the grid (and each has one root)."""
    return [[ScaledExponential(b=1.0), ScaledExponential(b=1.0, beta=b2),
             AffineQuadratic(1.0, 0.0, 0.01)]
            for b2 in np.arange(1, 97) * 0.25 if 12.0 > b2 > 1.0]


@pytest.mark.parametrize("order", ["alliance_major", "cell_major"])
def test_scan_row_cache_keeps_every_profile_in_either_order(order):
    # A scan-like row through one planner cache, listed alliance by alliance
    # or cell by cell: the memo holds c' at the bounds once per distinct spec,
    # and every profile is a bare solve's.
    cells = _mixed_scan_row()
    alliances = ((0, 1, 2), (1, 2), (2,))
    problems = ([(a, c) for a in alliances for c in cells] if order == "alliance_major"
                else [(a, c) for c in cells for a in alliances])
    cache = ProfileCache("sp")
    profiles = [cache.profile(a, c, WIDE) for a, c in problems]
    assert len(cells) == 43 and len(cache._profiles) == 2 * len(cells) + 1  # (2,) is shared
    (marginals,) = cache._memo
    distinct = {spec for c in cells for spec in c}
    assert len(distinct) == 45 and list(marginals) == [WIDE]
    assert set(marginals[WIDE][0]) == set(marginals[WIDE][1]) == distinct
    for (a, c), profile in zip(problems, profiles):
        assert _builds_grid(a, c, WIDE)
        assert profile == planner_scopes(a, c, WIDE)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planner_profiles_keep_their_members_cost_sum(seed):
    # A planner link's C/S^2 reads this sum: the members' cost() at their
    # solved scopes, added in member order, bit for bit.  It takes no part in
    # a profile's equality or repr, so reference comparisons ignore it.
    from dataclasses import replace

    solved = 0
    for bounds, problems in _problem_sets(seed):
        for alliance, costs in problems:
            profile = _solve_or_error(planner_scopes, alliance, costs, bounds)
            if isinstance(profile, Exception):
                continue
            solved += 1
            total = sum(costs[i].cost(profile.per_agent[i]) for i in alliance)
            assert profile.cost_sum.hex() == total.hex()
            assert replace(profile, cost_sum=None) == profile
            assert "cost_sum" not in repr(profile)
    assert solved > 50
