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
regardless of execution order, thread count or worker count.  A horizon
(``t_max``, by default 50 expected run lengths) of more than MAX_STEPS steps,
or outcome arrays of more than MAX_OUTCOME_BYTES, are refused before any path
is drawn.

Blocks: the population is split into equal contiguous blocks of at most BLOCK
paths, at least as many blocks as workers.  Each block builds only its own
streams and state, steps its paths to the end, and returns its slice of the
outcome, so memory no longer grows with the path count beyond the outcome
arrays.  Runs of at least POOL_WORK expected path-steps step their blocks on a
pool of forked workers, one per usable CPU and never more than the blocks;
smaller runs, and hosts without ``fork``, step the same blocks in-process.
Slices are written back in block order and censoring, durations and payoffs
are assembled over all paths, so the outcome does not depend on the worker
count.  The pool is joined before ``simulate_phases`` returns or raises.  A
worker that dies (say, killed for memory) takes its block with it, so the run
raises SimulationError, naming the worker's exit code, instead of waiting.

Stepping: a block advances one RNG chunk at a time.  Its live paths are split
into row tiles of at most TILE paths; each tile is refilled from its paths'
streams into a tile-sized buffer.  The whole chunk is then built as
(paths x steps) arrays, written through ufunc ``out=`` into views of one fixed
workspace per block, so no round allocates an array of the tile's size:
positions by a left-to-right cumulative sum, running maxima by an accumulated
maximum, and the stop tests column by column.  A path's first firing column
ends its phase; a path that enters a later wave steps the rest of the chunk
in a further round, with the columns before its entry masked out (a tile's
first round, where every path starts at column 0, needs no mask).  Every
value is computed by the same floating-point operations in the same order as
a step-by-step loop, so results are byte-identical to one.
"""

from __future__ import annotations

import math
import os
import reprlib
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .costs import CostSpec, finite
from .errors import SimulationError, ValidationError
from .scopes import Alliance
from .welfare import Phase, phase_stats, plan_phases

CHUNK = 128
# Live paths are stepped through a chunk in row tiles of at most this many
# paths.  Each block's workspace holds five (TILE, CHUNK [+ 1]) float arrays
# that every round reuses: fresh ones per round (132 KB each, past glibc's
# 128 KiB mmap threshold) kept the allocator giving back and faulting in pages.
TILE = 128
# Paths are stepped in contiguous blocks of at most this many, each building
# only its own streams (about 0.9 KB a path) and state.  Every block steps its
# own tail of long paths, so large blocks are faster: on 2 cores a 20k-path run
# took the same at 5,000 and 10,000 and about 20 % longer at 2,500.
BLOCK = 10_000
# Expected path-steps (paths x expected duration / dt) from which blocks run
# on a pool of forked workers.  Starting and joining one costs 10-20 ms; on 2
# cores it broke even at about 0.5-0.7 million path-steps.
POOL_WORK = 1_000_000
CENSOR_WARN_FRACTION = 0.01
# Fewest expected steps a phase may have without a warning (see simulate_phases).
# The shortest phase of the shipped scenarios, golden runs and benchmark has 183.
MIN_PHASE_STEPS = 50
# Largest horizon, in steps, a run may have; checked before any path is drawn.
# The shipped scenarios, tests and benchmark stay below 10**6 steps.
MAX_STEPS = 10**8
# Largest size of the outcome arrays a run may have, checked before any path is
# drawn: 3.3 million paths of one agent and one wave.
MAX_OUTCOME_BYTES = 2**28
# Largest expected work, in path-steps (paths x expected duration / dt), a run
# may have; checked before any path is drawn.  The largest run of the shipped
# scenarios, tests and benchmark expects 2 * 10**8 (the stopped-maximum KS check).
MAX_PATH_STEPS = 10**10
KS_SIGNIFICANCE = 0.01


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-4
    n_paths: int = 20_000
    seed: int = 0
    t_max: float | None = None
    bridge_correction: bool = False
    strict: bool = False

    def __post_init__(self) -> None:
        # Checked by type, not coerced: True is no step size and 'no' is no switch.
        numbers = (int, float, np.integer, np.floating)
        integers, bools = (int, np.integer), (bool, np.bool_)
        for name, types, kind in (
            ("dt", numbers, "a number"), ("t_max", (*numbers, type(None)), "a number or None"),
            ("n_paths", integers, "an integer"), ("seed", integers, "an integer"),
            ("bridge_correction", bools, "a bool"), ("strict", bools, "a bool"),
        ):
            value = getattr(self, name)
            if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
                raise ValidationError(f"{name} must be {kind}, got {reprlib.repr(value)}")
        if not (finite(self.dt) and self.dt > 0.0):
            raise ValidationError("dt must be positive and finite")
        if self.n_paths < 1:
            raise ValidationError("n_paths must be at least 1")
        if self.t_max is not None and not (finite(self.t_max) and self.t_max > 0.0):
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


def _phase_durations(phases: Sequence[Phase]) -> list[float]:
    starts = [0.0, *(p.trigger for p in phases[:-1])]
    return [phase_stats(start, p.trigger, p.scope)[1] for start, p in zip(starts, phases)]


def _expected_duration(phases: Sequence[Phase]) -> float:
    total = 0.0
    for duration in _phase_durations(phases):  # not sum(), which compensates from Python 3.12
        total += duration
    return total


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _step_block(phases: Sequence[Phase], config: SimConfig, max_steps: int,
                block: tuple[int, int]) -> tuple[np.ndarray, ...]:
    """Step paths lo..hi-1 of ``block = (lo, hi)``, building only their own streams.

    Returns the block's slices of the running maximum, the phase reached,
    each wave's firing step and maximum, and the collapse wave.
    """
    lo, hi = block
    n = hi - lo
    n_waves = len(phases)
    dt = config.dt
    sqdt = math.sqrt(dt)
    scope = np.array([p.scope for p in phases])
    trig = np.array([p.trigger for p in phases])
    thresh = np.array([p.threshold for p in phases])

    seed = int(config.seed)
    gens = [
        np.random.Generator(np.random.Philox(key=np.array([seed, p], dtype=np.uint64)))
        for p in range(lo, hi)
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
    # Every round writes its (rows x steps) values into views of this workspace.
    Xs_buf, Ms_buf = np.empty((2, TILE, CHUNK + 1))
    f1, f2, f3 = np.empty((3, TILE, CHUNK))
    b1, b2 = np.empty((2, TILE, CHUNK), dtype=bool)
    slots = np.arange(TILE)

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
            # Each row's slot in the tile buffers, and the columns before it entered
            # its wave: in the first round, slot i and none.
            loc, before = slice(rows.size), None
            # One round per wave a path enters within this chunk.
            while rows.size:
                m = rows.size
                S = scope[phase[rows]][:, None]
                d = trig[phase[rows]][:, None]
                Xs, Ms = Xs_buf[:m, :width + 1], Ms_buf[:m, :width + 1]
                A, B, C = f1[:m, :width], f2[:m, :width], f3[:m, :width]
                # cumsum adds left to right, so each X equals the step-by-step sum.
                Xs[:, 0] = X[rows]
                np.multiply(S * sqdt, normals[loc, :width], out=Xs[:, 1:])
                if before is not None:
                    np.copyto(Xs[:, 1:], 0.0, where=before)
                np.cumsum(Xs, axis=1, out=Xs)
                Xo, Xn = Xs[:, :-1], Xs[:, 1:]
                if bridge:
                    var = S * S * dt
                    # within-step maximum of the bridge from Xo to Xn (inverse CDF):
                    # 0.5 * (Xo + Xn + sqrt((Xn - Xo)**2 - 2.0 * var * log(u1)))
                    np.square(np.subtract(Xn, Xo, out=A), out=A)
                    np.multiply(2.0 * var, np.log(uniforms[loc, 0, :width], out=B), out=B)
                    np.sqrt(np.subtract(A, B, out=A), out=A)
                    np.multiply(0.5, np.add(np.add(Xo, Xn, out=B), A, out=B), out=Ms[:, 1:])
                else:
                    Ms[:, 1:] = Xn
                if before is not None:
                    np.copyto(Ms[:, 1:], -np.inf, where=before)
                Ms[:, 0] = Mx[rows]
                np.maximum.accumulate(Ms, axis=1, out=Ms)
                Mo, Mn = Ms[:, :-1], Ms[:, 1:]
                fired = np.greater_equal(np.subtract(Mn, Xn, out=A), d, out=b1[:m, :width])
                if bridge:
                    # exp(min(0, -2.0 * (Xo - bar) * (Xn - bar) / var)), bar = Mo - d
                    bar = np.subtract(Mo, d, out=A)
                    np.multiply(-2.0, np.subtract(Xo, bar, out=B), out=B)
                    np.multiply(B, np.subtract(Xn, bar, out=C), out=B)
                    cross = np.exp(np.minimum(0.0, np.divide(B, var, out=B), out=B), out=B)
                    fired |= np.less_equal(Xn, bar, out=b2[:m, :width])
                    fired |= np.less(uniforms[loc, 1, :width], cross, out=b2[:m, :width])
                if before is not None:
                    np.copyto(fired, False, where=before)
                first = fired.argmax(axis=1)
                ar = np.arange(m)
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
                rows, loc = rows[go], slots[loc][go]
                before = np.arange(width) < first[go][:, None] + 1
        alive = alive[phase[alive] < n_waves]
    return Mx, phase, wave_step, wave_M, collapse_wave


def _next_block(parts, workers) -> tuple[np.ndarray, ...]:
    """The pool's next block; raises once any of ``workers``, the processes the
    pool started with, is gone, since a dead worker's block never arrives."""
    import multiprocessing

    while True:
        try:
            return parts.next(timeout=1.0)
        except multiprocessing.TimeoutError:
            live = multiprocessing.active_children()
            for p in workers:
                if p not in live:
                    raise SimulationError(f"a simulation worker (pid {p.pid}) "
                                          f"died with exit code {p.exitcode}") from None


def simulate_phases(phases: Sequence[Phase], config: SimConfig) -> SimOutcome:
    """Simulate ``config.n_paths`` paths through ``phases``; payoffs for ``phases[0].alliance``."""
    agents = phases[0].alliance
    n = config.n_paths
    n_waves = len(phases)
    dt = config.dt
    expected = _expected_duration(phases)
    t_max = config.t_max if config.t_max is not None else 50.0 * expected
    if not t_max / dt <= MAX_STEPS:
        raise ValidationError(
            f"horizon t_max={t_max:.6g} at dt={dt:.6g} exceeds the budget of {MAX_STEPS} steps"
        )
    # 8-byte values per path: max, phase, collapse wave, censored; per wave
    # step, max, tau, duration; per agent flow cost, payoff.
    outcome_bytes = 8 * n * (4 + 4 * n_waves + 2 * len(agents))
    if outcome_bytes > MAX_OUTCOME_BYTES:
        from fractions import Fraction  # exact, where a float quotient of a huge count overflows
        mib = round(Fraction(outcome_bytes, 2**20))  # half to even, as '.0f' rounds
        raise ValidationError(
            f"n_paths={reprlib.repr(n)} needs {reprlib.repr(mib)} MiB of outcome arrays, "
            f"over the budget of {MAX_OUTCOME_BYTES // 2**20} MiB"
        )
    max_steps = max(1, int(math.ceil(t_max / dt)))
    scales = np.array([p.exit_scale for p in phases])

    work = n * min(expected, t_max) / dt  # expected path-steps
    if work > MAX_PATH_STEPS:
        raise ValidationError(
            f"n_paths={reprlib.repr(n)} at dt={dt:.6g} expect {work:.3g} path-steps, "
            f"over the budget of {MAX_PATH_STEPS:.3g}"
        )
    workers = _usable_cpus() if work >= POOL_WORK and hasattr(os, "fork") else 1
    size = min(BLOCK, -(-n // workers))
    blocks = [(lo, min(lo + size, n)) for lo in range(0, n, size)]
    workers = min(workers, len(blocks))

    Mx = np.empty(n)
    phase = np.empty(n, dtype=np.int64)
    wave_step = np.empty((n_waves, n), dtype=np.int64)
    wave_M = np.empty((n_waves, n))
    collapse_wave = np.empty(n, dtype=np.int64)
    step = partial(_step_block, phases, config, max_steps)
    pool = None
    if workers > 1:
        import multiprocessing  # deferred: only a pooled run pays for the import

        others = multiprocessing.active_children()
        # fork, not spawn: a spawned worker would import numpy and the package
        # again; the package starts no threads, and the stepper calls no BLAS.
        pool = multiprocessing.get_context("fork").Pool(workers)
        started = [p for p in multiprocessing.active_children() if p not in others]
    try:
        parts = pool.imap(step, blocks) if pool else map(step, blocks)
        # written back in block order, so the outcome is the same at every worker count
        for lo, hi in blocks:
            part = _next_block(parts, started) if pool else next(parts)
            for out, block_out in zip((Mx, phase, wave_step, wave_M, collapse_wave), part):
                out[..., lo:hi] = block_out
    finally:
        if pool:
            pool.terminate()
            pool.join()

    censored = phase < n_waves
    warnings: list[str] = []
    frac = float(censored.mean())
    if frac > CENSOR_WARN_FRACTION:
        msg = f"{frac:.2%} of paths hit the horizon t_max={t_max:.6g} before finishing"
        if config.strict:
            raise SimulationError(msg)
        warnings.append(msg)
    # A phase of few expected steps stops late by a large share of its
    # duration, so its payoffs miss the closed form by far more than the SE.
    steps, k = min((d / dt, k) for k, d in enumerate(_phase_durations(phases)))
    if steps < MIN_PHASE_STEPS:
        msg = (f"phase {k + 1} lasts {steps:.3g} expected steps of dt={dt:.6g}, "
               f"under {MIN_PHASE_STEPS}; a step this coarse biases its stops")
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
        scale = np.where(fired_e & (e != k_own), 1.0, scales[k_own])
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
    return simulate_phases(plan_phases(plan, costs), config)


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
) -> KSReport:
    """KS test at level KS_SIGNIFICANCE of simulated M at the stop against the Exp null law.

    The maximum of a driftless path stopped at drawdown d is Exp(mean d);
    passing ``null_mean`` overrides the null (e.g. to check the test's power).
    """
    phases = [Phase(alliance=(0,), scope=scope, trigger=drawdown, rates={0: 0.0})]
    outcome = simulate_phases(phases, config)
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
        significance=KS_SIGNIFICANCE,
        passed=bool(result.pvalue > KS_SIGNIFICANCE),
    )
