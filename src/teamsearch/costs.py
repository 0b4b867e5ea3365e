"""Parametric flow-cost families for search agents, plus regularity validation.

Every family maps a per-agent search scope sigma to an instantaneous cost
rate c(sigma).  The solvers only rely on the method surface of
``CostFamily``: cost / marginal / curvature evaluation, the ratio 2*c/c'
(which interior first-order conditions equate to the alliance's total scope),
its inverse, and the inverse marginal cost (used by the planner's
common-multiplier system).

``CostFamily`` owns what all families share: finite parameters, the sign and
finiteness guards (numpy overflow goes quietly to the finiteness guard; a
scalar scope far below the overflow edge, by a family bound, skips them), the
one return rule (a float for scalar or 0-d input, an array otherwise),
``cost``/``marginal``/``curvature``, the default ratio 2*c/c' and the
parameter check ``validate_cost`` reports.  A family supplies its c, c' and
c'' expressions on a float array (``_c``, ``_dc``, ``_d2c``),
``scope_at_ratio``, ``inverse_marginal``, its parameter rules (``_rules``),
the scalar scope below which its c, c' and c'' cannot overflow
(``_scalar_bound``), ``proportional_key`` and ``cost_multiplier``, and a
closed-form ``ratio`` where one exists, with the ``reply_key`` that ratio
depends on.

``cost_issues`` is the check a scenario's agents pass: c positive, strictly
increasing and at least ``CONVEXITY_FLOOR`` convex on [lo, hi], and finite
there.  Within its family's rules a spec's c, c' and c'' do not decrease in
sigma, so the check reads them at lo and their finiteness at hi.  The
``VALIDATION_GRID``-point grid is kept where its answer can differ: for a
spec that breaks its rules, where an evaluation at a bound raises (so the
error names the first offending grid scope), and for the ``log_convex``
flag of ``validate_cost``, whose rounding slack makes its endpoints no
proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CostDomainError

# Smallest admissible lower scope bound.
SCOPE_FLOOR = 1e-9
# Every family must stay at least this convex on the admissible interval.
CONVEXITY_FLOOR = 1e-9
# Grid resolution of the grid checks in cost_issues and validate_cost.
VALIDATION_GRID = 1001
# Natural log of the largest magnitude a scalar evaluation may reach without
# numpy's error state (float64 overflows past about 709.78).
SCALAR_LOG_LIMIT = 700.0


@dataclass(frozen=True)
class ScopeBounds:
    """Admissible per-agent scope interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        for value in (self.lo, self.hi):  # a bool is an int, but no bound
            numeric = isinstance(value, (int, float, np.integer, np.floating))
            if isinstance(value, bool) or not numeric:
                raise ValueError(f"scope bounds must be numbers, got {type(value).__name__}")
        if not (finite(self.lo) and finite(self.hi)):
            raise ValueError("scope bounds must be finite")
        if self.lo < SCOPE_FLOOR:
            raise ValueError(f"lower scope bound must be >= {SCOPE_FLOOR}")
        if self.hi < self.lo:
            raise ValueError("upper scope bound must not be below the lower bound")
        # Stored as floats, whatever numbers the caller gave: a scope clipped to
        # a bound is then a float, and so is numpy arithmetic on the bounds.
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))

    def clip(self, sigma: float) -> float:
        return min(max(sigma, self.lo), self.hi)


def finite(x) -> bool:
    """``math.isfinite``, but False for an int past the float range, not OverflowError."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _scalar(x) -> bool:
    return isinstance(x, float) or np.ndim(x) == 0


def _shaped(out):
    """The return rule on a result: a float for a scalar or 0-d result (which a
    scalar argument gives), an array otherwise."""
    return float(out) if _scalar(out) else out


def _check_sigma(sigma) -> None:
    # Scalar arguments (numpy float64 included) skip the array reduction.
    if sigma < 0 if isinstance(sigma, float) else (np.asarray(sigma) < 0).any():
        raise ValueError("scope must be non-negative")


@dataclass(frozen=True)
class CostFamily:
    """Base of the cost families; see the module docstring for the split of work."""

    ratio_constant = None  # 2*c/c' where it does not depend on sigma

    def __post_init__(self) -> None:
        if not all(map(finite, vars(self).values())):
            raise ValueError("parameters must be finite")

    @cached_property
    def _scalar_limit(self) -> float:
        """Scalar scopes in [0, this] keep every step of c, c' and c'' within a
        small factor of exp(SCALAR_LOG_LIMIT), so they cannot overflow and need
        no error state or finiteness check; -inf (none) for a spec that breaks
        its family's parameter rules."""
        return -math.inf if self.parameter_issues() else self._scalar_bound()

    def _evaluate(self, expr, sigma):
        """``expr`` of sigma as a float array, behind the sign and finiteness
        guards, which a scalar within ``_scalar_limit`` skips (same bits)."""
        if isinstance(sigma, float) and 0.0 <= sigma <= self._scalar_limit:
            return float(expr(np.asarray(sigma, dtype=float)))
        return self._guarded(expr, sigma)

    @np.errstate(all="ignore")  # a non-finite value goes to the guard, not to a warning
    def _guarded(self, expr, sigma):
        _check_sigma(sigma)
        out = expr(np.asarray(sigma, dtype=float))
        if math.isfinite(out) if isinstance(out, float) else np.isfinite(out).all():
            return _shaped(out)
        bad = float(np.ravel(sigma)[~np.isfinite(np.ravel(out))][0])  # the first offender
        raise CostDomainError(f"{self!r} produced a non-finite value at sigma={bad!r}")

    def cost(self, sigma):
        return self._evaluate(self._c, sigma)

    def marginal(self, sigma):
        return self._evaluate(self._dc, sigma)

    def curvature(self, sigma):
        return self._evaluate(self._d2c, sigma)

    def ratio(self, sigma):
        # 2c/c' can overflow where c and c' do not: always guarded.
        return self._guarded(self._ratio, sigma)

    def _ratio(self, s):
        return 2.0 * self._c(s) / self._dc(s)

    def parameter_issues(self) -> list[str]:
        """The family's parameter rules this spec breaks."""
        return [issue for ok, issue in self._rules() if not ok]

    def reply_key(self):
        """All that ``ratio``, ``ratio_constant`` and ``scope_at_ratio`` read of
        this spec: specs with equal keys have the same best replies, bit for bit.
        By default the spec itself."""
        return self


@dataclass(frozen=True)
class ScaledExponential(CostFamily):
    """c(sigma) = exp(b * sigma) / beta with rate b > 0 and divisor beta >= 1.

    The ratio 2*c/c' is the constant 2/b, independent of sigma, which makes the
    per-agent equilibrium split inside an alliance indeterminate (the solvers
    resolve it with an equal-treatment rule).
    """

    b: float
    beta: float = 1.0

    def _c(self, s):
        return np.exp(self.b * s) / self.beta

    def _dc(self, s):
        return self.b * np.exp(self.b * s) / self.beta

    def _d2c(self, s):
        return self.b * self.b * np.exp(self.b * s) / self.beta

    def _scalar_bound(self) -> float:
        # Every step is at most max(1, b)**2 * exp(b * s), with beta >= 1.
        return (SCALAR_LOG_LIMIT - 2.0 * max(0.0, math.log(self.b))) / self.b

    def ratio(self, sigma):
        _check_sigma(sigma)
        return 2.0 / self.b if _scalar(sigma) else np.full(np.shape(sigma), 2.0 / self.b)

    @property
    def ratio_constant(self) -> float:
        return 2.0 / self.b

    def scope_at_ratio(self, target):
        raise CostDomainError("ratio is constant for ScaledExponential; no unique scope matches it")

    def inverse_marginal(self, lam):
        # c'(sigma) = lam  =>  sigma = log(lam * beta / b) / b
        return _shaped(np.log(np.asarray(lam, dtype=float) * self.beta / self.b) / self.b)

    def _rules(self):
        return ((self.b > 0, "rate b must be positive"),
                (self.beta >= 1, "divisor beta must be >= 1"))

    def proportional_key(self) -> tuple:
        return ("exp", self.b)

    reply_key = proportional_key  # the ratio is 2/b whatever beta

    def cost_multiplier(self) -> float:
        # cost = (family base) / multiplier; larger multiplier = cheaper agent.
        return self.beta


@dataclass(frozen=True)
class ScaledPower(CostFamily):
    """c(sigma) = a * sigma**p / beta with a > 0, exponent p >= 2, divisor beta >= 1."""

    a: float
    p: float
    beta: float = 1.0

    def _c(self, s):
        return self.a * s ** self.p / self.beta

    def _dc(self, s):
        return self.a * self.p * s ** (self.p - 1.0) / self.beta

    def _d2c(self, s):
        return self.a * self.p * (self.p - 1.0) * s ** (self.p - 2.0) / self.beta

    def _scalar_bound(self) -> float:
        # Every step is at most a * p * p * max(1, s)**p, with beta >= 1.
        room = SCALAR_LOG_LIMIT - max(0.0, math.log(self.a) + 2.0 * math.log(self.p))
        return math.exp(room / self.p) if room >= 0.0 else -math.inf

    def ratio(self, sigma):
        _check_sigma(sigma)
        return _shaped(2.0 * np.asarray(sigma, dtype=float) / self.p)

    def scope_at_ratio(self, target):
        # 2*sigma/p = target
        return _shaped(self.p * np.asarray(target, dtype=float) / 2.0)

    def inverse_marginal(self, lam):
        base = np.asarray(lam, dtype=float) * self.beta / (self.a * self.p)
        return _shaped(np.maximum(base, 0.0) ** (1.0 / (self.p - 1.0)))

    def _rules(self):
        return ((self.a > 0, "coefficient a must be positive"),
                (self.p >= 2, "exponent p must be >= 2"),
                (self.beta >= 1, "divisor beta must be >= 1"))

    def proportional_key(self) -> tuple:
        return ("pow", self.p)

    reply_key = proportional_key  # the ratio is 2*sigma/p whatever a and beta

    def cost_multiplier(self) -> float:
        return self.beta / self.a


@dataclass(frozen=True)
class AffineQuadratic(CostFamily):
    """c(sigma) = a2*sigma**2 + a1*sigma + a0 with a2 > 0, a1 >= 0, a0 > 0."""

    a2: float
    a1: float
    a0: float

    def _c(self, s):
        return self.a2 * s * s + self.a1 * s + self.a0

    def _dc(self, s):
        return 2.0 * self.a2 * s + self.a1

    def _d2c(self, s):
        return np.full(np.shape(s), 2.0 * self.a2)

    def _scalar_bound(self) -> float:
        # Every step is at most 3 * max(a2, a1, a0) * max(1, s)**2.
        room = SCALAR_LOG_LIMIT - max(0.0, math.log(max(self.a2, self.a1, self.a0)))
        return math.exp(room / 2.0) if room >= 0.0 else -math.inf

    def scope_at_ratio(self, target):
        """Smallest positive scope with 2*c/c' equal to target; +inf when none exists.

        Solves 2*a2*s^2 + 2*(a1 - a2*t)*s + (2*a0 - a1*t) = 0 and keeps the
        smaller positive root (the branch where the ratio is decreasing).
        """
        t = np.asarray(target, dtype=float)
        A = 2.0 * self.a2
        B = 2.0 * (self.a1 - self.a2 * t)
        C = 2.0 * self.a0 - self.a1 * t
        disc = B * B - 4.0 * A * C
        with np.errstate(invalid="ignore"):
            sq = np.sqrt(np.maximum(disc, 0.0))
            lo_root = (-B - sq) / (2.0 * A)
            hi_root = (-B + sq) / (2.0 * A)
        out = np.where(lo_root > 0.0, lo_root, hi_root)
        return _shaped(np.where((disc < 0.0) | (out <= 0.0), np.inf, out))

    def inverse_marginal(self, lam):
        return _shaped((np.asarray(lam, dtype=float) - self.a1) / (2.0 * self.a2))

    def _rules(self):
        return ((self.a2 > 0, "quadratic coefficient a2 must be positive"),
                (self.a1 >= 0, "linear coefficient a1 must be non-negative"),
                (self.a0 > 0, "constant a0 must be positive"))

    def proportional_key(self) -> tuple:
        return ("aq", self.a1 / self.a2, self.a0 / self.a2)

    def cost_multiplier(self) -> float:
        return 1.0 / self.a2


CostSpec = CostFamily


# Scenario-file family name of each cost class.
FAMILIES: dict[str, type] = {
    "scaled_exponential": ScaledExponential,
    "scaled_power": ScaledPower,
    "affine_quadratic": AffineQuadratic,
}


@dataclass(frozen=True)
class CostValidation:
    valid: bool
    log_convex: bool
    issues: tuple[str, ...]


def _on_grid(spec: CostSpec, bounds: ScopeBounds) -> tuple[np.ndarray, ...]:
    """c, c' and c'' on the validation grid; the guards raise for the first offender."""
    grid = np.linspace(bounds.lo, bounds.hi, VALIDATION_GRID)
    return spec.cost(grid), spec.marginal(grid), spec.curvature(grid)


def _shape_issues(c: float, m: float, k: float) -> list[str]:
    """The shape checks that the least finite c, c' and c'' on [lo, hi] fail."""
    checks = ((c <= 0, "cost must be positive on the scope interval"),
              (m <= 0, "cost must be strictly increasing on the scope interval"),
              (k < CONVEXITY_FLOOR, f"cost curvature must stay above {CONVEXITY_FLOOR}"))
    return [issue for bad, issue in checks if bad]


def cost_issues(spec: CostSpec, bounds: ScopeBounds) -> tuple[str, ...]:
    """What keeps a cost spec from being positive, increasing and uniformly
    convex on [lo, hi], as the grid check finds it; empty when it is.

    A spec within its family's rules has c, c' and c'' that do not decrease
    on sigma >= 0, so the checks are read at lo and finiteness at hi, from six
    scalar evaluations.  A spec that breaks its rules, or an evaluation at a
    bound that raises, takes the grid, whose error names the first offending
    grid scope.
    """
    issues = spec.parameter_issues()
    if not issues:
        try:
            at_lo = spec.cost(bounds.lo), spec.marginal(bounds.lo), spec.curvature(bounds.lo)
            spec.cost(bounds.hi), spec.marginal(bounds.hi), spec.curvature(bounds.hi)
        except (CostDomainError, ValueError):
            pass
        else:
            return tuple(_shape_issues(*at_lo))
    try:
        c, m, k = _on_grid(spec, bounds)
    except (CostDomainError, ValueError) as exc:
        return (*issues, str(exc))
    return (*issues, *_shape_issues(c.min(), m.min(), k.min()))


def validate_cost(spec: CostSpec, bounds: ScopeBounds) -> CostValidation:
    """``cost_issues``, and whether the family is (weakly) log-convex on the
    grid, which stronger comparative-statics properties require.
    """
    issues = cost_issues(spec, bounds)
    try:
        c, m, k = _on_grid(spec, bounds)
    except (CostDomainError, ValueError):
        return CostValidation(valid=False, log_convex=False, issues=issues)
    # Weak log-convexity, c*c'' >= (c')^2 up to rounding slack, compared in the
    # scale-free form u >= v^2 with u = c''/c and v = c'/c: the products of c
    # and its derivatives can overflow where the ratios do not.
    log_convex = False
    if np.all(c > 0):
        u, v2 = k / c, (m / c) ** 2
        log_convex = bool(np.all(u - v2 >= -1e-12 * np.maximum(1.0, np.maximum(np.abs(u), v2))))
    return CostValidation(valid=not issues, log_convex=log_convex, issues=issues)
