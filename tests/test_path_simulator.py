"""Tests for the Monte Carlo path engine.

Statistical checks use frozen seeds; z-scores quoted in comments were
measured once at those seeds and all sit well inside the 3-SE gates.
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing
import multiprocessing.context
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from teamsearch import simulate
from teamsearch.costs import ScaledExponential, ScopeBounds
from teamsearch.equilibrium import equilibrium_exit_schedule
from teamsearch.errors import SimulationError, ValidationError
from teamsearch.scopes import ScopeProfile
from teamsearch.simulate import (
    CENSOR_WARN_FRACTION,
    CHUNK,
    MAX_STEPS,
    MIN_PHASE_STEPS,
    Phase,
    SimConfig,
    SimOutcome,
    _expected_duration,
    _phase_durations,
    simulate_phases,
    simulate_schedule,
    stopped_max_distribution_test,
)
from teamsearch.planner import optimal_chain
from teamsearch.welfare import chain_welfare, equilibrium_payoffs

WIDE = ScopeBounds(0.1, 10.0)


def single_agent_schedule():
    costs = [ScaledExponential(b=1.0)]
    return equilibrium_exit_schedule(range(1), costs, WIDE), costs


class FlatPlan:
    """Minimal phased plan: one alliance, one scope, one drawdown."""

    def __init__(self, scope: float, drawdown: float):
        self.scope = scope
        self.drawdown = drawdown

    def phases(self):
        profile = ScopeProfile(
            per_agent={0: self.scope}, total=self.scope,
            interior=True, degenerate=False, residual=0.0,
        )
        yield (0,), profile, self.drawdown


def test_single_agent_benchmark_moments():
    # sigma = 2, trigger d = 2/e^2, value 1/e^2, E[tau] = e^-4, E[M] = d
    schedule, costs = single_agent_schedule()
    config = SimConfig(dt=1e-4, n_paths=20_000, seed=1, bridge_correction=True)
    out = simulate_schedule(schedule, costs, config)
    assert out.censored_count == 0

    value = 1.0 / math.e**2  # 0.1353352832366127
    mean, se = out.mean_payoff(0), out.payoff_se(0)
    assert abs(mean - value) <= 3.0 * se  # measured z = -0.25

    mean_tau, mean_m, count = out.wave_stats(0)
    se_tau, se_m = out.wave_se(0)
    assert count == 20_000
    assert abs(mean_tau - math.exp(-4.0)) <= 3.0 * se_tau  # z = +1.82
    assert abs(mean_m - 2.0 / math.e**2) <= 3.0 * se_m  # z = +0.57


def test_fixed_horizon_running_max_mean():
    # E[max over [0,t]] = sigma * sqrt(2 t / pi); every path is censored at
    # t_max, so this also exercises horizon valuation at the agent's scale.
    costs = [ScaledExponential(b=1.0, beta=1e9)]  # negligible flow cost
    config = SimConfig(dt=2e-4, n_paths=10_000, seed=4, bridge_correction=True, t_max=0.25)
    out = simulate_schedule(FlatPlan(2.0, 1e9), costs, config)
    assert out.censored_count == 10_000
    assert out.warnings  # censoring fraction above the 1% threshold
    target = 2.0 * math.sqrt(2.0 * 0.25 / math.pi)  # 0.7978845608028654
    assert abs(out.mean_payoff(0) - target) <= 3.0 * out.payoff_se(0)  # z = +0.09


def test_stopped_max_distribution_ks_pass():
    config = SimConfig(dt=4e-4, n_paths=10_000, seed=3, bridge_correction=True)
    report = stopped_max_distribution_test(1.0, 1.0, config)
    assert report.n_samples == 10_000
    assert report.null_mean == 1.0
    assert report.passed  # measured p = 0.92
    assert report.pvalue > report.significance


def test_stopped_max_distribution_ks_rejects_wrong_null():
    config = SimConfig(dt=1e-3, n_paths=2_000, seed=3, bridge_correction=True)
    report = stopped_max_distribution_test(1.0, 1.0, config, null_mean=2.0)
    assert not report.passed  # measured p = 1.7e-120


def test_naive_mode_is_biased_at_coarse_dt():
    # Without the bridge correction the discrete maximum lags the true one,
    # so the stopped-max law fails KS at dt = 1e-3; this is the bias the
    # bridge mode exists to remove.
    config = SimConfig(dt=1e-3, n_paths=20_000, seed=3)
    report = stopped_max_distribution_test(1.0, 1.0, config)
    assert not report.passed  # measured p = 1.1e-07


def test_dt_halving_changes_mean_by_less_than_one_se():
    schedule, costs = single_agent_schedule()
    coarse = simulate_schedule(
        schedule, costs, SimConfig(dt=2e-4, n_paths=5_000, seed=2, bridge_correction=True)
    )
    fine = simulate_schedule(
        schedule, costs, SimConfig(dt=1e-4, n_paths=5_000, seed=2, bridge_correction=True)
    )
    diff = abs(coarse.mean_payoff(0) - fine.mean_payoff(0))
    assert diff < coarse.payoff_se(0)  # measured 0.20 se


def test_bit_exact_reproducibility_and_seed_sensitivity():
    schedule, costs = single_agent_schedule()
    config = SimConfig(dt=1e-3, n_paths=500, seed=11)
    a = simulate_schedule(schedule, costs, config)
    b = simulate_schedule(schedule, costs, config)
    assert a.equals(b)
    c = simulate_schedule(schedule, costs, SimConfig(dt=1e-3, n_paths=500, seed=12))
    assert not a.equals(c)


def test_two_wave_schedule_moments_and_order():
    # multipliers (1, 1.2, 8): wave 1 = agents {0,1} at 2 e^{-2/3},
    # wave 2 = agent 2 at 16 e^{-2}; per-agent values below are exact.
    costs = [ScaledExponential(b=1.0, beta=b) for b in (1.0, 1.2, 8.0)]
    schedule = equilibrium_exit_schedule(range(3), costs, WIDE)
    report = equilibrium_payoffs(schedule, costs)
    out = simulate_schedule(
        schedule, costs, SimConfig(dt=2e-4, n_paths=5_000, seed=0, bridge_correction=True)
    )
    # measured z = (+0.56, +0.55, +0.00)
    for agent in (0, 1, 2):
        assert abs(out.mean_payoff(agent) - report.per_agent[agent]) <= 3.0 * out.payoff_se(agent)

    fired_both = ~np.isnan(out.wave_tau).any(axis=0)
    assert fired_both.mean() > 0.98
    taus = out.wave_tau[:, fired_both]
    maxima = out.wave_M[:, fired_both]
    assert (taus[1] > taus[0]).all()
    assert (maxima[1] >= maxima[0]).all()  # running max never decreases
    assert (maxima[0] >= 0.0).all()  # stopped max is Exp(trigger): small values legal


def test_payoff_assembly_matches_per_path_reference():
    costs = [ScaledExponential(b=1.0, beta=b) for b in (1.0, 1.2, 8.0)]
    schedule = equilibrium_exit_schedule(range(3), costs, WIDE)
    out = simulate_schedule(schedule, costs, SimConfig(dt=1e-3, n_paths=64, seed=9))
    phases = list(schedule.phases())
    rates = [
        {i: costs[i].cost(prof.per_agent[i]) for i in alli} for alli, prof, _ in phases
    ]
    for p in range(64):
        t0, t1 = out.wave_tau[0, p], out.wave_tau[1, p]
        assert not math.isnan(t0) and not math.isnan(t1)
        expected = {
            0: out.wave_M[0, p] - rates[0][0] * t0,
            1: out.wave_M[0, p] - rates[0][1] * t0,
            2: out.wave_M[1, p] - rates[0][2] * t0 - rates[1][2] * (t1 - t0),
        }
        for agent, value in expected.items():
            assert out.payoffs[out.agents.index(agent), p] == pytest.approx(value, abs=1e-12)


def test_strict_mode_escalates_censoring():
    schedule, costs = single_agent_schedule()
    lax = SimConfig(dt=1e-3, n_paths=200, seed=5, t_max=0.02)
    out = simulate_schedule(schedule, costs, lax)
    assert out.censored_count > 2  # over the 1% threshold
    assert out.warnings
    assert np.isfinite(out.payoffs).all()
    strict = SimConfig(dt=1e-3, n_paths=200, seed=5, t_max=0.02, strict=True)
    with pytest.raises(SimulationError):
        simulate_schedule(schedule, costs, strict)


def test_config_validation():
    with pytest.raises(ValidationError):
        SimConfig(dt=0.0)
    with pytest.raises(ValidationError):
        SimConfig(n_paths=0)
    with pytest.raises(ValidationError):
        SimConfig(t_max=-1.0)
    with pytest.raises(ValidationError):
        SimConfig(seed=-1)


def test_non_finite_step_and_horizon_budget_rejected_before_run():
    for kwargs in ({"dt": math.inf}, {"t_max": math.inf}):
        with pytest.raises(ValidationError, match="finite"):
            SimConfig(**kwargs)
    phases = [Phase(alliance=(0,), scope=1.0, trigger=1.0, rates={0: 0.0})]
    # 50 expected run lengths of 1.0 at this dt are far over the budget.
    with pytest.raises(ValidationError, match="budget"):
        simulate_phases(phases, SimConfig(dt=50.0 / MAX_STEPS / 2, n_paths=1))
    with pytest.raises(ValidationError, match="budget"):
        simulate_phases(phases, SimConfig(dt=1e-300, t_max=1e10, n_paths=1))


# ---------------------------------------------------------------------------
# Chunked stepping against the step-at-a-time reference


def reference_simulate_phases(phases, agents, config):
    """The step-at-a-time engine, kept verbatim as a test oracle.

    Each step is one round of numpy calls over all live paths; the chunked
    engine must reproduce its outcomes bit for bit.  The one addition is the
    engine's coarse-step warning, given (or raised, if strict) after the
    censoring one.
    """
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

    bridge = config.bridge_correction
    normals = np.empty((n, CHUNK))
    uniforms = np.empty((n, 2, CHUNK)) if bridge else None

    step = 0
    while alive.size and step < max_steps:
        pos = step % CHUNK
        if pos == 0:
            for p in alive:
                normals[p] = gens[p].standard_normal(CHUNK)
                if bridge:
                    uniforms[p] = gens[p].random((2, CHUNK))
        ph = phase[alive]
        S = scope[ph]
        d = trig[ph]
        Xo = X[alive]
        Mo = Mx[alive]
        Xn = Xo + S * sqdt * normals[alive, pos]
        if bridge:
            var = S * S * dt
            u1 = uniforms[alive, 0, pos]
            u2 = uniforms[alive, 1, pos]
            # within-step maximum of the bridge from Xo to Xn (inverse CDF)
            mx = 0.5 * (Xo + Xn + np.sqrt((Xn - Xo) ** 2 - 2.0 * var * np.log(u1)))
            Mn = np.maximum(Mo, mx)
            bar = Mo - d
            cross = np.exp(np.minimum(0.0, -2.0 * (Xo - bar) * (Xn - bar) / var))
            fired = (Xn <= bar) | (u2 < cross) | (Mn - Xn >= d)
        else:
            Mn = np.maximum(Mo, Xn)
            fired = (Mn - Xn) >= d
        X[alive] = Xn
        Mx[alive] = Mn
        step += 1
        if fired.any():
            idx = alive[fired]
            while idx.size:
                k = phase[idx]
                wave_step[k, idx] = step
                wave_M[k, idx] = Mx[idx]
                collapse = Mx[idx] >= thresh[k]
                collapse_wave[idx[collapse]] = k[collapse]
                phase[idx] = np.where(collapse, n_waves, k + 1)
                idx = idx[phase[idx] < n_waves]
                if idx.size:
                    # overshoot may already satisfy the next trigger
                    idx = idx[(Mx[idx] - X[idx]) >= trig[phase[idx]]]
            alive = alive[phase[alive] < n_waves]

    censored = phase < n_waves
    warnings: list[str] = []
    frac = float(censored.mean())
    if frac > CENSOR_WARN_FRACTION:
        msg = f"{frac:.2%} of paths hit the horizon t_max={t_max:.6g} before finishing"
        if config.strict:
            raise SimulationError(msg)
        warnings.append(msg)
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



def nested_phases(triggers, scopes, thresholds=None, exit_scales=None):
    """Wave k is agents k..n-1 at total ``scopes[k]`` until drawdown ``triggers[k]``."""
    n = len(triggers)
    thresholds = thresholds or [math.inf] * n
    exit_scales = exit_scales or [1.0] * n
    return [
        Phase(alliance=tuple(range(k, n)), scope=scopes[k], trigger=triggers[k],
              rates={i: 0.3 + 0.1 * i for i in range(k, n)},
              exit_scale=exit_scales[k], threshold=thresholds[k])
        for k in range(n)
    ]


REFERENCE_CASES = {
    "one_wave_naive": (nested_phases([0.4], [1.0]), SimConfig(dt=1e-3, n_paths=200, seed=1)),
    "three_waves_bridge": (
        nested_phases([0.3, 0.5, 0.9], [2.0, 1.2, 0.7]),
        SimConfig(dt=1e-3, n_paths=300, seed=2, bridge_correction=True),
    ),
    "collapse_and_exit_scale": (
        nested_phases([0.2, 0.6], [1.5, 1.0], thresholds=[0.15, math.inf], exit_scales=[0.8, 1.3]),
        SimConfig(dt=1e-3, n_paths=257, seed=3, bridge_correction=True),
    ),
    "censored_mid_chunk": (
        nested_phases([1.0], [1.0]),
        SimConfig(dt=1e-3, n_paths=150, seed=4, t_max=0.1655, bridge_correction=True),
    ),
    "double_fire_naive": (
        nested_phases([0.3, 0.3005, 0.301], [1.0, 1.0, 1.0]),
        SimConfig(dt=4e-3, n_paths=200, seed=5),
    ),
    "double_fire_bridge": (
        nested_phases([0.3, 0.3005, 0.301], [1.0, 1.0, 1.0]),
        SimConfig(dt=4e-3, n_paths=200, seed=6, bridge_correction=True),
    ),
}


def assert_matches_reference(phases, config):
    agents = phases[0].alliance
    out = simulate_phases(phases, config)
    ref = reference_simulate_phases(phases, agents, config)
    assert out.equals(ref)
    assert out.warnings == ref.warnings
    return out


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_chunked_engine_matches_step_loop_reference(case):
    phases, config = REFERENCE_CASES[case]
    out = assert_matches_reference(phases, config)
    # each case exercises what it is named for
    if case == "collapse_and_exit_scale":
        assert (out.collapse_wave == 0).any()
    if case == "censored_mid_chunk":
        assert math.ceil(config.t_max / config.dt) % CHUNK != 0
        assert out.censored.any() and not out.censored.all() and out.warnings
    if case.startswith("double_fire"):
        assert (out.wave_tau[0] == out.wave_tau[1]).any()
        assert (out.wave_tau[0] < out.wave_tau[1]).any()


def test_chunked_engine_matches_reference_on_random_phase_sets():
    rng = np.random.default_rng(20240)
    for _ in range(20):
        n_waves = int(rng.integers(1, 4))
        triggers = list(np.cumsum(rng.uniform(0.02, 0.4, n_waves)))
        scopes = list(rng.uniform(0.5, 3.0, n_waves))
        thresholds = [float(rng.uniform(0.1, 1.0)) if rng.random() < 0.3 else math.inf
                      for _ in range(n_waves)]
        exit_scales = [float(rng.uniform(0.5, 1.5)) if rng.random() < 0.5 else 1.0
                       for _ in range(n_waves)]
        dt = float(rng.choice([5e-4, 1e-3, 4e-3]))
        config = SimConfig(
            dt=dt,
            n_paths=int(rng.integers(1, 300)),
            seed=int(rng.integers(0, 2**32)),
            t_max=None if rng.random() < 0.7 else dt * float(rng.uniform(10, 600)),
            bridge_correction=bool(rng.random() < 0.5),
        )
        assert_matches_reference(
            nested_phases(triggers, scopes, thresholds, exit_scales), config
        )


def test_schedule_and_chain_share_random_numbers():
    # two symmetric agents: equilibrium total 2/e, planner total 8/e^2,
    # so the welfare gap is 8/e^2 - 2/e = 0.3469233829...  Both plans run
    # on one config, so path p sees the same draws in each.
    costs = [ScaledExponential(b=1.0), ScaledExponential(b=1.0)]
    config = SimConfig(dt=2e-4, n_paths=5_000, seed=0, bridge_correction=True)
    schedule = equilibrium_exit_schedule(range(2), costs, WIDE)
    chain = optimal_chain(costs, WIDE)
    assert equilibrium_payoffs(schedule, costs).total == pytest.approx(2.0 / math.e, rel=1e-9)
    assert chain_welfare(chain, costs).total == pytest.approx(8.0 / math.e**2, rel=1e-9)
    eq_out = simulate_schedule(schedule, costs, config)
    sp_out = simulate_schedule(chain, costs, config)
    assert eq_out.agents == sp_out.agents == (0, 1)
    diffs = sp_out.payoffs - eq_out.payoffs
    n = diffs.shape[1]
    total = diffs.sum(axis=0)
    analytic_gap = 8.0 / math.e**2 - 2.0 / math.e
    assert abs(total.mean() - analytic_gap) <= 3.0 * total.std(ddof=1) / math.sqrt(n)  # z = +1.01
    for row in diffs:
        assert abs(row.mean() - analytic_gap / 2.0) <= 3.0 * row.std(ddof=1) / math.sqrt(n)
    assert total.mean() > 0.0


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_expected_duration_sums_phase_stats(case):
    from teamsearch.welfare import phase_stats

    phases, _ = REFERENCE_CASES[case]
    total, start = 0.0, 0.0
    for p in phases:
        total += phase_stats(start, p.trigger, p.scope)[1]
        start = p.trigger
    assert _expected_duration(phases) == total  # bit for bit


def test_expected_duration_refuses_triggers_that_do_not_increase():
    with pytest.raises(ValidationError, match="strictly below stop gap"):
        _expected_duration(nested_phases([0.5, 0.5], [1.0, 1.0]))
    with pytest.raises(ValidationError, match="strictly below stop gap"):
        _expected_duration(nested_phases([0.5, 0.3], [1.0, 1.0]))


# ---------------------------------------------------------------------------
# Path blocks and the worker pool


@functools.cache
def reference_outcome(case):
    phases, config = REFERENCE_CASES[case]
    return reference_simulate_phases(phases, phases[0].alliance, config)


def pool_sizes(monkeypatch):
    """Record the worker count of every pool ``simulate_phases`` starts."""
    sizes = []
    start = multiprocessing.context.BaseContext.Pool

    def spy(self, processes=None, *args, **kwargs):
        sizes.append(processes)
        return start(self, processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", spy)
    return sizes


def blocks_of(n, workers):
    size = min(simulate.BLOCK, -(-n // workers))
    return -(-n // size)


@pytest.mark.parametrize("block", [64, 1])  # 64 leaves a short last block in every case
@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_blocked_engine_matches_step_loop_reference(monkeypatch, case, pooled, block):
    phases, config = REFERENCE_CASES[case]
    assert config.n_paths % 64
    sizes = pool_sizes(monkeypatch)
    monkeypatch.setattr(simulate, "BLOCK", block)
    monkeypatch.setattr(simulate, "POOL_WORK", 0 if pooled else math.inf)
    out = simulate_phases(phases, config)
    expected = reference_outcome(case)
    assert out.equals(expected)
    assert out.warnings == expected.warnings
    assert multiprocessing.active_children() == []
    cpus = simulate._usable_cpus()
    workers = min(cpus, blocks_of(config.n_paths, cpus))
    assert sizes == ([workers] if pooled and workers > 1 else [])


def test_pooled_run_equals_serial_on_two_wave_schedule(monkeypatch):
    # the two-wave team of the benchmark's mc workload, at 1,000 paths
    costs = [ScaledExponential(b=1.0, beta=b) for b in (1.0, 1.2, 8.0)]
    schedule = equilibrium_exit_schedule(range(3), costs, WIDE)
    config = SimConfig(dt=2e-4, n_paths=1_000, seed=0, bridge_correction=True)
    sizes = pool_sizes(monkeypatch)
    monkeypatch.setattr(simulate, "POOL_WORK", math.inf)
    serial = simulate_schedule(schedule, costs, config)
    assert sizes == []
    monkeypatch.setattr(simulate, "POOL_WORK", 0)
    pooled = simulate_schedule(schedule, costs, config)
    assert multiprocessing.active_children() == []
    assert pooled.equals(serial)
    assert pooled.warnings == serial.warnings
    cpus = simulate._usable_cpus()
    if cpus > 1:
        assert sizes == [min(cpus, 2)]  # 1,000 paths make 2 blocks on 2 or more cores
        assert sizes[0] <= os.cpu_count()


def test_outcome_budget_rejected_before_run(tmp_path):
    phases = [Phase(alliance=(0,), scope=1.0, trigger=1.0, rates={0: 0.0})]
    n = simulate.MAX_OUTCOME_BYTES // 8  # past the budget however few arrays are counted
    with pytest.raises(ValidationError, match="budget"):
        simulate_phases(phases, SimConfig(dt=1e-3, n_paths=n))
    scenario = tmp_path / "huge.json"
    scenario.write_text(json.dumps({
        "agents": [{"family": "scaled_exponential", "b": 1.0}],
        "scope_bounds": {"lo": 0.1, "hi": 10.0},
        "sim": {"dt": 1e-3, "n_paths": n, "seed": 1},
    }))
    result = subprocess.run([sys.executable, "-m", "teamsearch", "simulate", str(scenario)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert result.stderr.startswith("error: ") and "budget" in result.stderr
    assert len(result.stderr.splitlines()) == 1


def test_import_loads_no_process_pool():
    code = ("import sys, teamsearch, teamsearch.cli, teamsearch.simulate; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_single_agent_engine_matches_exact_moments():
    # One agent at scope S stopped at drawdown d: M - X is a reflected
    # Brownian motion (Levy), so the stopped maximum is Exp(d) (mean d, variance
    # d^2), E[tau] = d^2 / S^2 and E[exp(-lam tau)] = 1 / cosh(d sqrt(2 lam) / S)
    # (Taylor 1975; Lehoczky 1977).
    d, S, lam = 1.0, 2.0, 2.0
    phases = [Phase(alliance=(0,), scope=S, trigger=d, rates={0: 0.0})]
    config = SimConfig(dt=1e-4, n_paths=10_000, seed=7, bridge_correction=True)
    out = simulate_phases(phases, config)
    assert out.censored_count == 0
    m, tau = out.wave_M[0], out.wave_tau[0]
    n = m.size

    def z(samples, target):
        return (samples.mean() - target) / (samples.std(ddof=1) / math.sqrt(n))

    assert abs(z(m, d)) <= 3.0  # measured z = +0.39
    assert abs(z((m - m.mean()) ** 2 * n / (n - 1), d * d)) <= 3.0  # z = -0.26
    assert abs(z(tau, d * d / (S * S))) <= 3.0  # z = +0.19
    assert abs(z(np.exp(-lam * tau), 1.0 / math.cosh(d * math.sqrt(2.0 * lam) / S))) <= 3.0  # z = -0.47


# ---------------------------------------------------------------------------
# The stepping workspace and dead workers


@pytest.mark.parametrize("tile", [1, 7, simulate.TILE])
@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_every_reference_case_matches_step_loop_at_every_tile_fill(monkeypatch, case, tile):
    # Partial tiles, the masked re-entry rounds of the double_fire cases and
    # the narrow last chunk of censored_mid_chunk all step in workspace views.
    phases, config = REFERENCE_CASES[case]
    monkeypatch.setattr(simulate, "TILE", tile)
    out = simulate_phases(phases, config)
    expected = reference_outcome(case)
    assert out.equals(expected)
    assert out.warnings == expected.warnings


_STEP_BLOCK = simulate._step_block


def _step_block_killing_second(phases, config, max_steps, block):
    """``_step_block``, except that the worker given the second block kills itself."""
    if block[0] > 0:
        assert multiprocessing.parent_process() is not None  # never the test process
        os.kill(os.getpid(), signal.SIGKILL)
    return _STEP_BLOCK(phases, config, max_steps, block)


def test_killed_worker_raises_instead_of_hanging(monkeypatch):
    phases, config = REFERENCE_CASES["one_wave_naive"]
    monkeypatch.setattr(simulate, "_step_block", _step_block_killing_second)
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 2)  # pooled on any host
    monkeypatch.setattr(simulate, "POOL_WORK", 0)
    t0 = time.monotonic()
    with pytest.raises(SimulationError, match=r"worker \(pid \d+\) died with exit code -9"):
        simulate_phases(phases, config)
    assert time.monotonic() - t0 < 10.0
    assert multiprocessing.active_children() == []


def test_a_plan_or_profile_alone_fixes_who_is_reported():
    # A run reports every agent of its first phase's alliance, a drawdown set
    # covers the members of its profile, and no result keeps a copy of either.
    import dataclasses
    import inspect

    from teamsearch.equilibrium import DrawdownSet, ExitSchedule, equilibrium_drawdowns
    from teamsearch.penalty import PenaltyPolicy, expected_penalty_payoffs
    from teamsearch.scopes import equilibrium_scopes

    assert list(inspect.signature(simulate_phases).parameters) == ["phases", "config"]
    assert list(inspect.signature(expected_penalty_payoffs).parameters) == ["policy"]
    assert list(inspect.signature(equilibrium_drawdowns).parameters) == ["profile", "costs"]
    for cls, name in ((ExitSchedule, "team"), (DrawdownSet, "alliance"), (PenaltyPolicy, "alpha")):
        assert name not in {f.name for f in dataclasses.fields(cls)}

    phases = [Phase((1, 3), 1.0, 0.2, {1: 0.3, 3: 0.4}), Phase((3,), 0.6, 0.5, {3: 0.5})]
    out = simulate_phases(phases, SimConfig(dt=1e-3, n_paths=20, seed=1))
    assert out.agents == (1, 3) and out.payoffs.shape == (2, 20)

    costs = [ScaledExponential(b=1.0, beta=beta) for beta in (1.0, 1.2, 1.5, 2.0)]
    profile = equilibrium_scopes((1, 3), costs, WIDE)
    assert tuple(equilibrium_drawdowns(profile, costs).per_agent) == (1, 3)


def test_a_wave_no_path_reached_has_no_stats():
    # The horizon ends long before any gap can reach the second trigger.
    phases = nested_phases([0.1, 5.0], [1.0, 1.0])
    out = simulate_phases(phases, SimConfig(dt=1e-3, n_paths=50, seed=2, t_max=0.05))
    assert out.wave_stats(0)[2] > 0
    tau, m, count = out.wave_stats(1)
    assert math.isnan(tau) and math.isnan(m) and count == 0
    assert all(map(math.isnan, out.wave_se(1)))


def test_huge_path_count_is_refused_in_one_short_line(capsys, tmp_path):
    # The outcome size is counted in exact integers and both counts are echoed
    # through reprlib, so an ordinary count keeps its full text and a huge one
    # gives a short line, not an OverflowError.
    from teamsearch.cli import main

    scenario = tmp_path / "huge.json"
    errors = []
    for n_paths in (simulate.MAX_OUTCOME_BYTES // 8, 10**300, 10**320):
        scenario.write_text(json.dumps({
            "agents": [{"family": "scaled_exponential", "b": 1.0}],
            "scope_bounds": {"lo": 0.1, "hi": 10.0},
            "sim": {"dt": 1e-3, "n_paths": n_paths, "seed": 1},
        }))
        assert main(["simulate", str(scenario)]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == ("error: n_paths=33554432 needs 2560 MiB of outcome arrays, "
                         "over the budget of 256 MiB\n")
    for err in errors[1:]:
        assert err.startswith("error: n_paths=1000") and "..." in err and "budget" in err
        assert len(err.splitlines()) == 1 and len(err.encode()) < 200


def test_run_over_the_path_step_budget_is_refused_before_any_step(capsys, tmp_path, monkeypatch):
    # A million paths at dt = 1e-7 expect about 1.8e11 path-steps: refused in
    # one line naming the budget, before any block is stepped.
    from teamsearch.cli import main

    def no_step(*args):
        raise AssertionError("a block was stepped")

    monkeypatch.setattr(simulate, "_step_block", no_step)
    scenario = tmp_path / "long.json"
    scenario.write_text(json.dumps({
        "agents": [{"family": "scaled_exponential", "b": 1.0}],
        "scope_bounds": {"lo": 0.1, "hi": 10.0},
        "sim": {"dt": 1e-7, "n_paths": 10**6, "seed": 1},
    }))
    assert main(["simulate", str(scenario)]) == 2
    err = capsys.readouterr().err
    assert err == ("error: n_paths=1000000 at dt=1e-07 expect 1.83e+11 path-steps, "
                   "over the budget of 1e+10\n")


def test_config_refuses_non_integer_path_counts_and_seeds():
    # A float seed used to run as its floor, and a float or bool path count
    # failed only inside the run, with a raw TypeError.
    for kwargs, name in (({"seed": 1.5}, "seed"), ({"n_paths": 20.5}, "n_paths"),
                         ({"n_paths": True}, "n_paths"), ({"seed": False}, "seed")):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
            SimConfig(**kwargs)
    assert SimConfig(n_paths=np.int64(20), seed=np.uint64(3)).n_paths == 20


def test_coarse_phase_warns_and_strict_raises():
    # The first of two phases lasts 0.25**2 / 1.0**2 = 0.0625 time units:
    # 31.25 steps at dt = 2e-3, under MIN_PHASE_STEPS = 50; at 1e-3, 62.5.
    phases = nested_phases([0.25, 1.0], [1.0, 0.5])
    text = ("phase 1 lasts 31.2 expected steps of dt=0.002, under 50; "
            "a step this coarse biases its stops")
    assert simulate_phases(phases, SimConfig(dt=2e-3, n_paths=50, seed=1)).warnings == (text,)
    assert simulate_phases(phases, SimConfig(dt=1e-3, n_paths=50, seed=1)).warnings == ()
    with pytest.raises(SimulationError, match="^phase 1 lasts 31.2 expected steps"):
        simulate_phases(phases, SimConfig(dt=2e-3, n_paths=50, seed=1, strict=True))


def test_strict_raises_censoring_before_a_coarse_step():
    # Both warnings apply; strict raises the censoring one, as before.
    phases = nested_phases([0.25], [1.0])
    lax = simulate_phases(phases, SimConfig(dt=2e-3, n_paths=100, seed=1, t_max=0.01))
    assert len(lax.warnings) == 2 and "hit the horizon" in lax.warnings[0]
    assert lax.warnings[1].startswith("phase 1 lasts")
    with pytest.raises(SimulationError, match="hit the horizon"):
        simulate_phases(phases, SimConfig(dt=2e-3, n_paths=100, seed=1, t_max=0.01, strict=True))


@pytest.mark.parametrize("field, value", [
    ("dt", True), ("dt", "0.1"), ("dt", None), ("t_max", True), ("t_max", "1"),
    ("bridge_correction", "no"), ("bridge_correction", 1), ("strict", 1), ("strict", None),
])
def test_config_refuses_values_it_would_coerce(field, value):
    with pytest.raises(ValidationError) as raised:
        SimConfig(**{field: value})
    assert str(raised.value).startswith(f"{field} must be ")
    assert str(raised.value).endswith(f", got {value!r}")


def test_config_takes_ints_and_numpy_values():
    config = SimConfig(dt=1, t_max=np.float64(2.5), bridge_correction=np.bool_(True), strict=False)
    assert (config.dt, config.t_max, bool(config.bridge_correction)) == (1, 2.5, True)


@pytest.mark.parametrize("field, value", [("dt", 10**400), ("t_max", 10**400), ("t_max", -10**400)],
                         ids=["dt", "t_max", "negative-t_max"])
def test_config_refuses_ints_past_the_float_range(field, value):
    # Such an int is below inf, but no step can be that long: it is refused
    # with the field's line, not accepted and then overflowed in the run.
    with pytest.raises(ValidationError) as raised:
        SimConfig(n_paths=2, **{field: value})
    assert str(raised.value) == f"{field} must be positive and finite"
