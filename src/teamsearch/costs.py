"""Parametric flow-cost families for search agents, plus regularity validation.

Every family maps a per-agent search scope sigma to an instantaneous cost
rate c(sigma).  The solvers only rely on the shared method surface defined
here: cost / marginal / curvature evaluation, the ratio 2*c/c' (which interior
first-order conditions equate to the alliance's total scope), its inverse, and
the inverse marginal cost (used by the planner's common-multiplier system).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import CostDomainError

# Smallest admissible lower scope bound.
SCOPE_FLOOR = 1e-9
# Every family must stay at least this convex on the admissible interval.
CONVEXITY_FLOOR = 1e-9
# Grid resolution used by validate_cost.
VALIDATION_GRID = 1001


@dataclass(frozen=True)
class ScopeBounds:
    """Admissible per-agent scope interval [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("scope bounds must be finite")
        if self.lo < SCOPE_FLOOR:
            raise ValueError(f"lower scope bound must be >= {SCOPE_FLOOR}")
        if self.hi < self.lo:
            raise ValueError("upper scope bound must not be below the lower bound")

    def clip(self, sigma: float) -> float:
        return min(max(sigma, self.lo), self.hi)


def _check_finite(spec: "CostSpec", value, sigma) -> None:
    if not np.all(np.isfinite(value)):
        raise CostDomainError(f"{spec!r} produced a non-finite value at sigma={sigma!r}")


def _check_sigma(sigma) -> None:
    if np.any(np.asarray(sigma) < 0):
        raise ValueError("scope must be non-negative")


@dataclass(frozen=True)
class ScaledExponential:
    """c(sigma) = exp(b * sigma) / beta with rate b > 0 and divisor beta >= 1.

    The ratio 2*c/c' is the constant 2/b, independent of sigma, which makes the
    per-agent equilibrium split inside an alliance indeterminate (the solvers
    resolve it with an equal-treatment rule).
    """

    b: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.b) and math.isfinite(self.beta)):
            raise ValueError("parameters must be finite")

    def cost(self, sigma):
        _check_sigma(sigma)
        # Overflow to inf is caught by the finiteness check; keep numpy quiet.
        with np.errstate(over="ignore"):
            out = np.exp(self.b * np.asarray(sigma, dtype=float)) / self.beta
        _check_finite(self, out, sigma)
        return float(out) if np.isscalar(sigma) or np.ndim(sigma) == 0 else out

    def marginal(self, sigma):
        _check_sigma(sigma)
        with np.errstate(over="ignore"):
            out = self.b * np.exp(self.b * np.asarray(sigma, dtype=float)) / self.beta
        _check_finite(self, out, sigma)
        return float(out) if np.ndim(sigma) == 0 else out

    def curvature(self, sigma):
        _check_sigma(sigma)
        with np.errstate(over="ignore"):
            out = self.b * self.b * np.exp(self.b * np.asarray(sigma, dtype=float)) / self.beta
        _check_finite(self, out, sigma)
        return float(out) if np.ndim(sigma) == 0 else out

    def ratio(self, sigma):
        # 2*c/c' does not depend on sigma for this family.
        _check_sigma(sigma)
        if np.ndim(sigma) == 0:
            return 2.0 / self.b
        return np.full(np.shape(sigma), 2.0 / self.b)

    @property
    def ratio_constant(self) -> float | None:
        return 2.0 / self.b

    def scope_at_ratio(self, target):
        raise CostDomainError("ratio is constant for ScaledExponential; no unique scope matches it")

    def inverse_marginal(self, lam):
        # c'(sigma) = lam  =>  sigma = log(lam * beta / b) / b
        return np.log(np.asarray(lam, dtype=float) * self.beta / self.b) / self.b

    def proportional_key(self) -> tuple:
        return ("exp", self.b)

    def cost_multiplier(self) -> float:
        # cost = (family base) / multiplier; larger multiplier = cheaper agent.
        return self.beta


@dataclass(frozen=True)
class ScaledPower:
    """c(sigma) = a * sigma**p / beta with a > 0, exponent p >= 2, divisor beta >= 1."""

    a: float
    p: float
    beta: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.p) and math.isfinite(self.beta)):
            raise ValueError("parameters must be finite")

    def cost(self, sigma):
        _check_sigma(sigma)
        out = self.a * np.asarray(sigma, dtype=float) ** self.p / self.beta
        _check_finite(self, out, sigma)
        return float(out) if np.ndim(sigma) == 0 else out

    def marginal(self, sigma):
        _check_sigma(sigma)
        out = self.a * self.p * np.asarray(sigma, dtype=float) ** (self.p - 1.0) / self.beta
        _check_finite(self, out, sigma)
        return float(out) if np.ndim(sigma) == 0 else out

    def curvature(self, sigma):
        _check_sigma(sigma)
        s = np.asarray(sigma, dtype=float)
        out = self.a * self.p * (self.p - 1.0) * s ** (self.p - 2.0) / self.beta
        return float(out) if np.ndim(sigma) == 0 else out

    def ratio(self, sigma):
        _check_sigma(sigma)
        s = np.asarray(sigma, dtype=float)
        out = 2.0 * s / self.p
        return float(out) if np.ndim(sigma) == 0 else out

    @property
    def ratio_constant(self) -> float | None:
        return None

    def scope_at_ratio(self, target):
        # 2*sigma/p = target
        out = self.p * np.asarray(target, dtype=float) / 2.0
        return float(out) if np.ndim(target) == 0 else out

    def inverse_marginal(self, lam):
        base = np.asarray(lam, dtype=float) * self.beta / (self.a * self.p)
        return np.maximum(base, 0.0) ** (1.0 / (self.p - 1.0))

    def proportional_key(self) -> tuple:
        return ("pow", self.p)

    def cost_multiplier(self) -> float:
        return self.beta / self.a


@dataclass(frozen=True)
class AffineQuadratic:
    """c(sigma) = a2*sigma**2 + a1*sigma + a0 with a2 > 0, a1 >= 0, a0 > 0."""

    a2: float
    a1: float
    a0: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(v) for v in (self.a2, self.a1, self.a0)):
            raise ValueError("parameters must be finite")

    def cost(self, sigma):
        _check_sigma(sigma)
        s = np.asarray(sigma, dtype=float)
        out = self.a2 * s * s + self.a1 * s + self.a0
        _check_finite(self, out, sigma)
        return float(out) if np.ndim(sigma) == 0 else out

    def marginal(self, sigma):
        _check_sigma(sigma)
        s = np.asarray(sigma, dtype=float)
        out = 2.0 * self.a2 * s + self.a1
        _check_finite(self, out, sigma)
        return float(out) if np.ndim(sigma) == 0 else out

    def curvature(self, sigma):
        _check_sigma(sigma)
        if np.ndim(sigma) == 0:
            return 2.0 * self.a2
        return np.full(np.shape(sigma), 2.0 * self.a2)

    def ratio(self, sigma):
        _check_sigma(sigma)
        s = np.asarray(sigma, dtype=float)
        num = 2.0 * (self.a2 * s * s + self.a1 * s + self.a0)
        den = 2.0 * self.a2 * s + self.a1
        with np.errstate(divide="ignore"):
            out = num / den
        return float(out) if np.ndim(sigma) == 0 else out

    @property
    def ratio_constant(self) -> float | None:
        return None

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
        out = np.where((disc < 0.0) | (out <= 0.0), np.inf, out)
        return float(out) if np.ndim(target) == 0 else out

    def inverse_marginal(self, lam):
        out = (np.asarray(lam, dtype=float) - self.a1) / (2.0 * self.a2)
        return float(out) if np.ndim(lam) == 0 else out

    def proportional_key(self) -> tuple:
        return ("aq", self.a1 / self.a2, self.a0 / self.a2)

    def cost_multiplier(self) -> float:
        return 1.0 / self.a2


CostSpec = Union[ScaledExponential, ScaledPower, AffineQuadratic]


@dataclass(frozen=True)
class CostValidation:
    valid: bool
    log_convex: bool
    issues: tuple[str, ...]


def _parameter_issues(spec: CostSpec) -> list[str]:
    issues = []
    if isinstance(spec, ScaledExponential):
        if spec.b <= 0:
            issues.append("rate b must be positive")
        if spec.beta < 1:
            issues.append("divisor beta must be >= 1")
    elif isinstance(spec, ScaledPower):
        if spec.a <= 0:
            issues.append("coefficient a must be positive")
        if spec.p < 2:
            issues.append("exponent p must be >= 2")
        if spec.beta < 1:
            issues.append("divisor beta must be >= 1")
    elif isinstance(spec, AffineQuadratic):
        if spec.a2 <= 0:
            issues.append("quadratic coefficient a2 must be positive")
        if spec.a1 < 0:
            issues.append("linear coefficient a1 must be non-negative")
        if spec.a0 <= 0:
            issues.append("constant a0 must be positive")
    else:
        issues.append(f"unknown cost family {type(spec).__name__}")
    return issues


def validate_cost(spec: CostSpec, bounds: ScopeBounds) -> CostValidation:
    """Grid-check a cost spec on [lo, hi]: positive, increasing, uniformly convex.

    Also reports whether the family is (weakly) log-convex on the interval,
    which stronger comparative-statics properties require.
    """
    issues = _parameter_issues(spec)
    grid = np.linspace(bounds.lo, bounds.hi, VALIDATION_GRID)
    log_convex = False
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            c = np.asarray(spec.cost(grid), dtype=float)
            m = np.asarray(spec.marginal(grid), dtype=float)
            k = np.asarray(spec.curvature(grid), dtype=float)
    except (CostDomainError, ValueError) as exc:
        issues.append(str(exc))
        return CostValidation(valid=False, log_convex=False, issues=tuple(issues))

    if not np.all(np.isfinite(c)) or not np.all(np.isfinite(m)) or not np.all(np.isfinite(k)):
        issues.append("cost evaluations are not finite on the scope interval")
    else:
        if np.any(c <= 0):
            issues.append("cost must be positive on the scope interval")
        if np.any(m <= 0):
            issues.append("cost must be strictly increasing on the scope interval")
        if np.any(k < CONVEXITY_FLOOR):
            issues.append(f"cost curvature must stay above {CONVEXITY_FLOOR}")
        # Weak log-convexity: c*c'' >= (c')^2 up to rounding slack.
        gap = c * k - m * m
        slack = 1e-12 * np.maximum(1.0, np.maximum(np.abs(c * k), m * m))
        log_convex = bool(np.all(gap >= -slack))

    return CostValidation(valid=not issues, log_convex=log_convex, issues=tuple(issues))
