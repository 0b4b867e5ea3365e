"""Tests for equilibrium and planner scope solvers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from teamsearch.costs import AffineQuadratic, ScaledExponential, ScaledPower, ScopeBounds
from teamsearch.errors import SolverError
from teamsearch.scopes import (
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
