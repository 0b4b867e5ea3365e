"""Equilibrium and planner analysis of collective search with exit waves.

Agents jointly drive a driftless diffusion whose volatility is the sum of
their chosen search scopes; each pays a convex flow cost and wants to stop
at the running maximum.  The package solves the stationary scope profiles
(competitive and planner), derives exit-wave schedules and alliance chains
with their drawdown triggers, evaluates welfare in closed form, verifies
everything against a Monte Carlo path engine, and exposes a scenario-driven
command line.
"""

from __future__ import annotations

from .costs import (
    AffineQuadratic,
    CostSpec,
    CostValidation,
    ScaledExponential,
    ScaledPower,
    ScopeBounds,
    cost_issues,
    validate_cost,
)
from .equilibrium import (
    DrawdownSet,
    ExitSchedule,
    Wave,
    equilibrium_drawdowns,
    equilibrium_exit_schedule,
    wellordered_exit_order_check,
)
from .errors import (
    CostDomainError,
    SimulationError,
    SolverError,
    TeamSearchError,
    ValidationError,
)
from .penalty import (
    PenaltyConfig,
    PenaltyPolicy,
    expected_penalty_payoffs,
    penalty_policy,
    simulate_penalty,
)
from .planner import (
    AllianceChain,
    brute_force_optimal_chain,
    enumerate_chains,
    greedy_wellordered_chain,
    optimal_chain,
    planner_drawdown,
)
from .scopes import (
    Alliance,
    ScopeProfile,
    as_alliance,
    equilibrium_scopes,
    interior_capacity,
    planner_scopes,
)
from .simulate import (
    KSReport,
    SimConfig,
    SimOutcome,
    simulate_schedule,
    stopped_max_distribution_test,
)
from .welfare import (
    PhaseStat,
    WelfareReport,
    chain_welfare,
    equilibrium_payoffs,
    phase_stats,
    solo_value,
)

__version__ = "0.1.0"

__all__ = [
    "AffineQuadratic",
    "Alliance",
    "AllianceChain",
    "CostDomainError",
    "CostSpec",
    "CostValidation",
    "DrawdownSet",
    "ExitSchedule",
    "KSReport",
    "PenaltyConfig",
    "PenaltyPolicy",
    "PhaseStat",
    "ScaledExponential",
    "ScaledPower",
    "ScopeBounds",
    "ScopeProfile",
    "SimConfig",
    "SimOutcome",
    "SimulationError",
    "SolverError",
    "TeamSearchError",
    "ValidationError",
    "Wave",
    "WelfareReport",
    "as_alliance",
    "brute_force_optimal_chain",
    "chain_welfare",
    "cost_issues",
    "enumerate_chains",
    "equilibrium_drawdowns",
    "equilibrium_exit_schedule",
    "equilibrium_payoffs",
    "equilibrium_scopes",
    "expected_penalty_payoffs",
    "greedy_wellordered_chain",
    "interior_capacity",
    "optimal_chain",
    "penalty_policy",
    "phase_stats",
    "planner_drawdown",
    "planner_scopes",
    "simulate_penalty",
    "simulate_schedule",
    "solo_value",
    "stopped_max_distribution_test",
    "validate_cost",
    "wellordered_exit_order_check",
    "__version__",
]
