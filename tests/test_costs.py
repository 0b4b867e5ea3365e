"""Tests for the cost families and their validation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from teamsearch.costs import (
    CONVEXITY_FLOOR,
    SCOPE_FLOOR,
    AffineQuadratic,
    ScaledExponential,
    ScaledPower,
    ScopeBounds,
    validate_cost,
)
from teamsearch.errors import CostDomainError


def test_scaled_exponential_point_values():
    c = ScaledExponential(b=1.0)
    assert c.cost(0.0) == 1.0
    # e^2 = 7.38905609893065
    assert c.cost(2.0) == pytest.approx(7.38905609893065, rel=1e-15)
    assert c.marginal(2.0) == pytest.approx(7.38905609893065, rel=1e-15)
    assert c.curvature(2.0) == pytest.approx(7.38905609893065, rel=1e-15)
    assert c.ratio(0.7) == 2.0
    assert c.ratio_constant == 2.0

    scaled = ScaledExponential(b=1.0, beta=2.0)
    assert scaled.cost(2.0) == pytest.approx(c.cost(2.0) / 2.0, rel=1e-15)
    assert ScaledExponential(b=0.5).ratio_constant == 4.0


def test_scaled_power_point_values():
    c = ScaledPower(a=1.0, p=2.0)
    assert c.cost(3.0) == 9.0
    assert c.marginal(3.0) == 6.0
    assert c.curvature(3.0) == 2.0
    assert c.ratio(3.0) == 3.0
    assert c.ratio_constant is None
    assert c.scope_at_ratio(3.0) == 3.0
    assert c.inverse_marginal(6.0) == 3.0

    skew = ScaledPower(a=2.0, p=3.0, beta=4.0)
    # c(2) = 2 * 8 / 4 = 4, c'(2) = 6 * 4 / 4 = 6, ratio = 8/6
    assert skew.cost(2.0) == 4.0
    assert skew.marginal(2.0) == 6.0
    assert skew.ratio(2.0) == pytest.approx(8.0 / 6.0, rel=1e-15)
    assert skew.inverse_marginal(6.0) == pytest.approx(2.0, rel=1e-12)


def test_affine_quadratic_point_values():
    c = AffineQuadratic(a2=1.0, a1=0.0, a0=1.0)
    assert c.cost(1.0) == 2.0
    assert c.marginal(1.0) == 2.0
    assert c.curvature(1.0) == 2.0
    assert c.ratio(1.0) == 2.0
    # ratio(s) = (s^2 + 1)/s has its minimum 2 at s = 1
    assert c.scope_at_ratio(2.0) == pytest.approx(1.0, abs=1e-12)
    assert c.scope_at_ratio(1.9) == math.inf
    # ratio = 2.5 at s = 0.5 (decreasing branch) and s = 2; keep the smaller.
    assert c.scope_at_ratio(2.5) == pytest.approx(0.5, abs=1e-12)
    assert c.inverse_marginal(2.0) == 1.0

    mixed = AffineQuadratic(a2=0.5, a1=1.0, a0=2.0)
    assert mixed.cost(2.0) == 6.0
    assert mixed.marginal(2.0) == 3.0
    assert mixed.inverse_marginal(3.0) == 2.0


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(20240811)
    specs = [
        ScaledExponential(b=0.8, beta=1.5),
        ScaledPower(a=1.3, p=2.5, beta=2.0),
        AffineQuadratic(a2=0.7, a1=0.4, a0=1.1),
    ]
    h1, h2 = 1e-6, 1e-4
    for spec in specs:
        for _ in range(50):
            s = float(rng.uniform(0.2, 3.0))
            fd_m = (spec.cost(s + h1) - spec.cost(s - h1)) / (2 * h1)
            fd_k = (spec.cost(s + h2) - 2 * spec.cost(s) + spec.cost(s - h2)) / (h2 * h2)
            assert spec.marginal(s) == pytest.approx(fd_m, rel=1e-6)
            assert spec.curvature(s) == pytest.approx(fd_k, rel=1e-5, abs=1e-7)
            assert spec.ratio(s) == pytest.approx(2 * spec.cost(s) / spec.marginal(s), rel=1e-12)


def test_scope_at_ratio_inverts_ratio():
    rng = np.random.default_rng(7)
    specs = [
        ScaledPower(a=1.3, p=2.5, beta=2.0),
        AffineQuadratic(a2=0.7, a1=0.4, a0=1.1),
    ]
    for spec in specs:
        for _ in range(50):
            target = float(rng.uniform(2.2, 8.0))
            s = spec.scope_at_ratio(target)
            if math.isfinite(s):
                assert spec.ratio(s) == pytest.approx(target, rel=1e-10)


def test_vectorized_evaluation_matches_scalars():
    grid = np.linspace(0.1, 2.5, 17)
    for spec in (
        ScaledExponential(b=1.2, beta=3.0),
        ScaledPower(a=0.9, p=3.0),
        AffineQuadratic(a2=1.0, a1=0.2, a0=0.8),
    ):
        for method in ("cost", "marginal", "curvature", "ratio"):
            vec = np.asarray(getattr(spec, method)(grid))
            scalars = [getattr(spec, method)(float(s)) for s in grid]
            np.testing.assert_allclose(vec, scalars, rtol=1e-14)


def test_domain_errors():
    c = ScaledExponential(b=1.0)
    with pytest.raises(ValueError):
        c.cost(-0.5)
    with pytest.raises(CostDomainError):
        c.cost(1000.0)  # overflows to inf
    with pytest.raises(ValueError):
        ScaledExponential(b=math.nan)
    with pytest.raises(CostDomainError):
        c.scope_at_ratio(2.0)  # constant ratio has no unique preimage


def test_scope_bounds():
    with pytest.raises(ValueError):
        ScopeBounds(0.0, 1.0)  # below the floor
    with pytest.raises(ValueError):
        ScopeBounds(2.0, 1.0)
    b = ScopeBounds(0.5, 2.0)
    assert b.clip(0.1) == 0.5
    assert b.clip(5.0) == 2.0
    assert b.clip(1.3) == 1.3
    assert SCOPE_FLOOR == 1e-9


def test_validate_cost_accepts_regular_families():
    bounds = ScopeBounds(0.1, 4.0)
    for spec in (
        ScaledExponential(b=1.0),
        ScaledExponential(b=0.5, beta=8.0),
        ScaledPower(a=1.0, p=2.0),
        AffineQuadratic(a2=1.0, a1=0.5, a0=1.0),
    ):
        report = validate_cost(spec, bounds)
        assert report.valid, report.issues
        assert report.issues == ()


def test_validate_cost_log_convexity_flag():
    # Exponential costs are exactly log-linear, hence weakly log-convex.
    assert validate_cost(ScaledExponential(b=1.0), ScopeBounds(0.1, 4.0)).log_convex
    # Pure powers are log-concave: c*c'' - c'^2 = -p*s^(2p-2) < 0.
    assert not validate_cost(ScaledPower(a=1.0, p=2.0), ScopeBounds(0.5, 5.0)).log_convex
    # s^2 + 1 is log-convex only while s <= 1.
    aq = AffineQuadratic(a2=1.0, a1=0.0, a0=1.0)
    assert validate_cost(aq, ScopeBounds(0.1, 0.9)).log_convex
    assert not validate_cost(aq, ScopeBounds(0.5, 5.0)).log_convex


def test_validate_cost_rejects_bad_parameters():
    bounds = ScopeBounds(0.1, 2.0)

    report = validate_cost(AffineQuadratic(a2=-1.0, a1=0.0, a0=1.0), bounds)
    assert not report.valid
    assert any("a2" in msg for msg in report.issues)
    assert any("curvature" in msg for msg in report.issues)

    report = validate_cost(ScaledExponential(b=-2.0), bounds)
    assert not report.valid

    report = validate_cost(ScaledPower(a=1.0, p=1.5), bounds)
    assert not report.valid
    assert any("exponent" in msg for msg in report.issues)

    report = validate_cost(ScaledExponential(b=1.0, beta=0.5), bounds)
    assert not report.valid
    assert any("beta" in msg for msg in report.issues)

    # Overflow inside the grid is reported, not raised.
    report = validate_cost(ScaledExponential(b=1000.0), ScopeBounds(0.1, 4.0))
    assert not report.valid


def test_proportional_keys_group_scaled_copies():
    a = ScaledExponential(b=2.0, beta=1.0)
    b = ScaledExponential(b=2.0, beta=7.0)
    c = ScaledExponential(b=1.0, beta=7.0)
    assert a.proportional_key() == b.proportional_key()
    assert a.proportional_key() != c.proportional_key()
    assert b.cost_multiplier() == 7.0

    p1 = ScaledPower(a=2.0, p=2.0, beta=1.0)
    p2 = ScaledPower(a=1.0, p=2.0, beta=3.0)
    assert p1.proportional_key() == p2.proportional_key()
    assert p1.cost_multiplier() == 0.5
    assert p2.cost_multiplier() == 3.0

    q1 = AffineQuadratic(a2=2.0, a1=1.0, a0=2.0)
    q2 = AffineQuadratic(a2=4.0, a1=2.0, a0=4.0)
    q3 = AffineQuadratic(a2=4.0, a1=2.0, a0=5.0)
    assert q1.proportional_key() == q2.proportional_key()
    assert q1.proportional_key() != q3.proportional_key()


def test_every_derivative_rejects_non_finite_values():
    # curvature and the affine marginal share the finiteness guard of cost().
    with pytest.raises(CostDomainError):
        ScaledExponential(b=1000.0).curvature(10.0)
    with pytest.raises(CostDomainError):
        ScaledExponential(b=1000.0).curvature(np.array([0.0, 10.0]))
    with pytest.raises(CostDomainError):
        AffineQuadratic(1e308, 1e308, 1.0).marginal(10.0)
    assert AffineQuadratic(1.0, 0.5, 1.0).marginal(2.0) == 4.5
    with pytest.raises(CostDomainError):
        ScaledPower(a=1.0, p=300.0).curvature(100.0)


@pytest.mark.parametrize(
    "wrap",
    [float, np.float64, np.array, lambda v: np.array([1.0, v])],
    ids=["float", "float64", "0d_array", "1d_array"],
)
def test_guards_reject_bad_scopes_in_every_input_form(wrap):
    # Scalars take a fast path past the array reductions; it must accept and
    # reject exactly what they do.
    specs = (ScaledExponential(b=1.0), ScaledPower(a=1.0, p=3.0), AffineQuadratic(1.0, 0.5, 1.0))
    for spec in specs:
        for method in ("cost", "marginal"):
            evaluate = getattr(spec, method)
            with pytest.raises(ValueError, match="non-negative"):
                evaluate(wrap(-0.5))
            for bad in (math.inf, math.nan):
                with pytest.raises(CostDomainError):
                    evaluate(wrap(bad))
            assert np.all(np.isfinite(evaluate(wrap(0.0))))
    # Power overflow reaches the guard without a numpy RuntimeWarning (which
    # the test configuration turns into an error), named by one scope value.
    for method in ("cost", "marginal", "curvature"):
        with pytest.raises(CostDomainError) as info:
            getattr(ScaledPower(a=1.0, p=300.0), method)(wrap(100.0))
        assert "\n" not in str(info.value)


@pytest.mark.parametrize(
    "wrap",
    [float, np.float64, np.array, lambda v: np.array([1.0, v])],
    ids=["float", "float64", "0d_array", "1d_array"],
)
def test_affine_overflow_reaches_the_guard(wrap):
    # a2 * s * s overflows in numpy; the guard, not a RuntimeWarning, reports it.
    spec = AffineQuadratic(a2=1e200, a1=0.0, a0=1.0)
    for method in ("cost", "marginal"):
        with pytest.raises(CostDomainError, match="sigma=1e"):
            getattr(spec, method)(wrap(1e200))


@pytest.mark.parametrize(
    "spec, bounds, log_convex",
    [
        # c*c'' = exp(2s) overflows past s = 355, though c itself does not.
        (ScaledExponential(b=1.0), ScopeBounds(0.1, 400.0), True),
        # c*c'' = 2e200 * (1e200 s^2 + 1) overflows; s^2 + 1 is log-concave past s = 1.
        (AffineQuadratic(a2=1e200, a1=0.0, a0=1.0), ScopeBounds(0.1, 4.0), False),
    ],
    ids=["exponential", "affine"],
)
def test_log_convexity_flag_where_cost_products_overflow(spec, bounds, log_convex):
    # The test configuration turns a numpy RuntimeWarning into an error.
    report = validate_cost(spec, bounds)
    assert report.valid, report.issues
    assert report.log_convex is log_convex
