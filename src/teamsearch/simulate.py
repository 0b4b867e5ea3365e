"""Monte Carlo engine for drawdown-stopped search paths with alliance switching.

The engine runs a list of ``welfare.Phase``: the phase type the closed-form
welfare reads too.  ``simulate_schedule`` takes it from ``plan_phases`` of an
exit schedule or planner chain; ``simulate_penalty`` from the penalty policy.

Paths follow dX = S_k dB within phase k and fire wave k when the gap M - X
first reaches the phase trigger.  Discretization at step dt biases first
passages (the discrete running maximum lags the continuous one by about
0.58 S sqrt(dt), so stops happen late at an inflated gap).  With
``bridge_correction`` enabled, each step also samples the within-step maximum
from its Brownian-bridge law and applies a bridge crossing test for the dip
barrier, which removes the bias in both M and tau; stops still resolve at
step boundaries.

RNG contract: path p draws from a counter-based Philox stream keyed by
(seed, p), in chunks of CHUNK steps, consuming one normal (plus two uniforms
in bridge mode) per step.  Results are bit-identical for a given config
regardless of execution order or thread count.  A horizon (``t_max``, by
default 50 expected run lengths) of more than MAX_STEPS steps is refused
before any path is drawn.

Stepping: the engine advances one RNG chunk at a time.  Live paths are split
into row tiles of at most TILE paths; each tile is refilled from its paths'
streams into a tile-sized buffer, so scratch memory is fixed per tile.  The
whole chunk is then built as (paths x steps) arrays: positions by a
left-to-right cumulative sum, running maxima by an accumulated maximum, and
the stop tests column by column.  A path's first firing column ends its
phase; a path that enters a later wave steps the rest of the chunk in a
further round, with the columns before its entry masked out.  Every value is
computed by the same floating-point operations in the same order as a
step-by-step loop, so results are byte-identical to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .costs import CostSpec
from .errors import SimulationError, ValidationError
from .scopes import Alliance
from .welfare import Phase, plan_phases

CHUNK = 128
# Live paths are stepped through a chunk in row tiles of at most this many
# paths, which bounds each scratch array at TILE x (CHUNK + 1) values.
TILE = 128
CENSOR_WARN_FRACTION = 0.01
# Largest horizon, in steps, a run may have; checked before any path is drawn.
# The shipped scenarios, tests and benchmark stay below 10**6 steps.
MAX_STEPS = 10**8


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-4
    n_paths: int = 20_000
    seed: int = 0
    t_max: float | None = None
    bridge_correction: bool = False
    strict: bool = False

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise ValidationError("dt must be positive and finite")
        if self.n_paths < 1:
            raise ValidationError("n_paths must be at least 1")
        if self.t_max is not None and not 0.0 < self.t_max < math.inf:
            raise ValidationError("t_max must be positive and finite")
        if not 0 <= int(self.seed) < 2**64:
            raise ValidationError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True, eq=False)
class SimOutcome:
    """Per-path payoffs and per-wave stopping statistics of one simulation."""

    agents: Alliance
    payoffs: np.ndarray  # (n_agents, n_paths)
    wave_tau: np.ndarray  # (n_waves, n_paths), NaN where the wave never fired
    wave_M: np.ndarray  # (n_waves, n_paths), NaN where the wave never fired
    censored: np.ndarray  # (n_paths,) bool
    collapse_wave: np.ndarray  # (n_paths,) int, -1 when no early collapse
    config: SimConfig
    warnings: tuple[str, ...]

    @property
    def n_paths(self) -> int:
        return self.payoffs.shape[1]

    @property
    def censored_count(self) -> int:
        return int(self.censored.sum())

    def mean_payoff(self, agent: int) -> float:
        return float(self.payoffs[self.agents.index(agent)].mean())

    def payoff_se(self, agent: int) -> float:
        row = self.payoffs[self.agents.index(agent)]
        return float(row.std(ddof=1) / math.sqrt(row.size))

    def total_payoff(self) -> tuple[float, float]:
        per_path = self.payoffs.sum(axis=0)
        return float(per_path.mean()), float(per_path.std(ddof=1) / math.sqrt(per_path.size))

    def wave_stats(self, k: int) -> tuple[float, float, int]:
        """(mean tau, mean M, sample count) over paths where wave k fired."""
        tau = self.wave_tau[k]
        ok = ~np.isnan(tau)
        count = int(ok.sum())
        if count == 0:
            return math.nan, math.nan, 0
        return float(tau[ok].mean()), float(self.wave_M[k][ok].mean()), count

    def wave_se(self, k: int) -> tuple[float, float]:
        tau = self.wave_tau[k]
        ok = ~np.isnan(tau)
        n = int(ok.sum())
        if n < 2:
            return math.nan, math.nan
        return (
            float(tau[ok].std(ddof=1) / math.sqrt(n)),
            float(self.wave_M[k][ok].std(ddof=1) / math.sqrt(n)),
        )

    def equals(self, other: "SimOutcome") -> bool:
        """Bit-exact equality of all sampled arrays (NaN-tolerant)."""
        return (
            self.agents == other.agents
            and np.array_equal(self.payoffs, other.payoffs, equal_nan=True)
            and np.array_equal(self.wave_tau, other.wave_tau, equal_nan=True)
            and np.array_equal(self.wave_M, other.wave_M, equal_nan=True)
            and np.array_equal(self.censored, other.censored)
            and np.array_equal(self.collapse_wave, other.collapse_wave)
        )


def _expected_duration(phases: Sequence[Phase]) -> float:
    total, prev = 0.0, 0.0
    for p in phases:
        total += (p.trigger * p.trigger - prev * prev) / (p.scope * p.scope)
        prev = p.trigger
    return total


def simulate_phases(phases: Sequence[Phase], agents: Alliance, config: SimConfig) -> SimOutcome:
    """Simulate ``config.n_paths`` paths through ``phases``; payoffs are reported for ``agents``."""
    n = config.n_paths
    n_waves = len(phases)
    dt = config.dt
    sqdt = math.sqrt(dt)
    t_max = config.t_max if config.t_max is not None else 50.0 * _expected_duration(phases)
    if not t_max / dt <= MAX_STEPS:
        raise ValidationError(
            f"horizon t_max={t_max:.6g} at dt={dt:.6g} exceeds the budget of {MAX_STEPS} steps"
        )
    max_steps = max(1, int(math.ceil(t_max / dt)))
    scope = np.array([p.scope for p in phases])
    trig = np.array([p.trigger for p in phases])
    thresh = np.array([p.threshold for p in phases])
    scales = np.array([p.exit_scale for p in phases])

    seed = int(config.seed)
    gens = [
        np.random.Generator(np.random.Philox(key=np.array([seed, p], dtype=np.uint64)))
        for p in range(n)
    ]

    X = np.zeros(n)
    Mx = np.zeros(n)
    phase = np.zeros(n, dtype=np.int64)
    wave_step = np.full((n_waves, n), -1, dtype=np.int64)
    wave_M = np.full((n_waves, n), np.nan)
    collapse_wave = np.full(n, -1, dtype=np.int64)
    alive = np.arange(n)
    next_trig = np.append(trig, math.inf)  # no wave follows the last one

    bridge = config.bridge_correction
    normals = np.empty((TILE, CHUNK))
    uniforms = np.empty((TILE, 2, CHUNK)) if bridge else None

    for c0 in range(0, max_steps, CHUNK):
        if not alive.size:
            break
        width = min(CHUNK, max_steps - c0)
        for t0 in range(0, alive.size, TILE):
            rows = alive[t0:t0 + TILE]
            for i, p in enumerate(rows):
                gens[p].standard_normal(out=normals[i])
                if bridge:
                    gens[p].random(out=uniforms[i])
            loc = np.arange(rows.size)  # each row's slot in the tile buffers
            start = np.zeros(rows.size, dtype=np.int64)  # first column in its phase
            # One round per wave a path enters within this chunk.
            while rows.size:
                S = scope[phase[rows]][:, None]
                d = trig[phase[rows]][:, None]
                before = np.arange(width) < start[:, None]
                # cumsum adds left to right, so each X equals the step-by-step sum.
                Xs = np.empty((rows.size, width + 1))
                Xs[:, 0] = X[rows]
                Xs[:, 1:] = np.where(before, 0.0, S * sqdt * normals[loc, :width])
                np.cumsum(Xs, axis=1, out=Xs)
                Xo, Xn = Xs[:, :-1], Xs[:, 1:]
                if bridge:
                    var = S * S * dt
                    u1 = uniforms[loc, 0, :width]
                    # within-step maximum of the bridge from Xo to Xn (inverse CDF)
                    mx = 0.5 * (Xo + Xn + np.sqrt((Xn - Xo) ** 2 - 2.0 * var * np.log(u1)))
                else:
                    mx = Xn
                Ms = np.empty_like(Xs)
                Ms[:, 0] = Mx[rows]
                Ms[:, 1:] = np.where(before, -np.inf, mx)
                np.maximum.accumulate(Ms, axis=1, out=Ms)
                Mo, Mn = Ms[:, :-1], Ms[:, 1:]
                fired = Mn - Xn >= d
                if bridge:
                    bar = Mo - d
                    cross = np.exp(np.minimum(0.0, -2.0 * (Xo - bar) * (Xn - bar) / var))
                    fired |= (Xn <= bar) | (uniforms[loc, 1, :width] < cross)
                fired &= ~before
                first = fired.argmax(axis=1)
                ar = np.arange(rows.size)
                hit = fired[ar, first]
                end = np.where(hit, first, width - 1)
                X[rows] = Xn[ar, end]
                Mx[rows] = Mn[ar, end]
                idx, at = rows[hit], c0 + first[hit] + 1
                while idx.size:
                    k = phase[idx]
                    wave_step[k, idx] = at
                    wave_M[k, idx] = Mx[idx]
                    collapse = Mx[idx] >= thresh[k]
                    collapse_wave[idx[collapse]] = k[collapse]
                    phase[idx] = np.where(collapse, n_waves, k + 1)
                    # overshoot may already satisfy the next trigger
                    again = (Mx[idx] - X[idx]) >= next_trig[phase[idx]]
                    idx, at = idx[again], at[again]
                # paths that entered a later wave step the rest of the chunk in it
                go = hit & (phase[rows] < n_waves) & (first + 1 < width)
                rows, loc, start = rows[go], loc[go], first[go] + 1
        alive = alive[phase[alive] < n_waves]

    censored = phase < n_waves
    warnings: list[str] = []
    frac = float(censored.mean())
    if frac > CENSOR_WARN_FRACTION:
        msg = f"{frac:.2%} of paths hit the horizon t_max={t_max:.6g} before finishing"
        if config.strict:
            raise SimulationError(msg)
        warnings.append(msg)

    # phase durations per path (steps), then flow costs per agent
    dur = np.zeros((n_waves, n))
    start = np.zeros(n, dtype=np.int64)
    for k in range(n_waves):
        fired_k = wave_step[k] >= 0
        end = np.where(fired_k, wave_step[k], np.where(phase == k, max_steps, start))
        dur[k] = (end - start) * dt
        start = end
    rates = np.zeros((len(agents), n_waves))
    for k, p in enumerate(phases):
        for i, rate in p.rates.items():
            rates[agents.index(i), k] = rate
    flow_costs = rates @ dur  # (n_agents, n_paths)

    last_wave = np.array([max(k for k, p in enumerate(phases) if a in p.alliance) for a in agents])
    payoffs = np.empty((len(agents), n))
    cols = np.arange(n)
    for row, a in enumerate(agents):
        k_own = last_wave[row]
        e = np.where((collapse_wave >= 0) & (collapse_wave < k_own), collapse_wave, k_own)
        fired_e = wave_step[e, cols] >= 0
        reward_M = np.where(fired_e, wave_M[e, cols], Mx)
        scale = np.where(fired_e & (e == k_own), scales[k_own], np.where(fired_e, 1.0, scales[k_own]))
        payoffs[row] = scale * reward_M - flow_costs[row]

    wave_tau = np.where(wave_step >= 0, wave_step * dt, np.nan)
    return SimOutcome(
        agents=agents,
        payoffs=payoffs,
        wave_tau=wave_tau,
        wave_M=wave_M,
        censored=censored,
        collapse_wave=collapse_wave,
        config=config,
        warnings=tuple(warnings),
    )


def simulate_schedule(plan, costs: Sequence[CostSpec], config: SimConfig) -> SimOutcome:
    """Simulate any phased plan (equilibrium schedule or planner chain)."""
    phases = plan_phases(plan, costs)
    return simulate_phases(phases, phases[0].alliance, config)


@dataclass(frozen=True)
class KSReport:
    statistic: float
    pvalue: float
    n_samples: int
    null_mean: float
    significance: float
    passed: bool


def stopped_max_distribution_test(
    drawdown: float,
    scope: float,
    config: SimConfig,
    null_mean: float | None = None,
    significance: float = 0.01,
) -> KSReport:
    """KS test of simulated M at the stop against the exponential null law.

    The maximum of a driftless path stopped at drawdown d is Exp(mean d);
    passing ``null_mean`` overrides the null (e.g. to check the test's power).
    """
    phases = [Phase(alliance=(0,), scope=scope, trigger=drawdown, rates={0: 0.0})]
    outcome = simulate_phases(phases, (0,), config)
    samples = outcome.wave_M[0]
    samples = samples[~np.isnan(samples)]
    mean = drawdown if null_mean is None else null_mean
    from scipy import stats  # deferred: importing scipy.stats costs most of startup

    result = stats.kstest(samples, "expon", args=(0.0, mean))
    return KSReport(
        statistic=float(result.statistic),
        pvalue=float(result.pvalue),
        n_samples=int(samples.size),
        null_mean=mean,
        significance=significance,
        passed=bool(result.pvalue > significance),
    )
