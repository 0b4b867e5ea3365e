"""Tests for drawdown boundaries and the exit-wave cascade."""

from __future__ import annotations

import math

import numpy as np
import pytest

from teamsearch.costs import AffineQuadratic, ScaledExponential, ScaledPower, ScopeBounds
from teamsearch.equilibrium import (
    DrawdownSet,
    ExitSchedule,
    Wave,
    equilibrium_drawdowns,
    equilibrium_exit_schedule,
    exit_schedules,
    wellordered_exit_order_check,
)
from teamsearch.errors import SolverError
from teamsearch.scopes import ScopeProfile, equilibrium_scopes

WIDE = ScopeBounds(0.1, 10.0)


def exp_team(betas, b=1.0):
    return [ScaledExponential(b=b, beta=float(beta)) for beta in betas]


def test_single_agent_drawdown():
    costs = exp_team([1.0])
    profile = equilibrium_scopes([0], costs, WIDE)
    dset = equilibrium_drawdowns(profile, costs)
    # d = S^2/(2c) = 4/(2 e^2) = 0.2706705664732254
    assert dset.per_agent[0] == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)
    assert dset.trigger == dset.per_agent[0]
    assert dset.first_exiters == (0,)


def test_three_agent_drawdowns_and_first_exiter():
    costs = exp_team([1.0, 1.2, 2.0])
    profile = equilibrium_scopes([0, 1, 2], costs, WIDE)
    dset = equilibrium_drawdowns(profile, costs)
    # d_i = 2 beta_i e^{-2/3}
    base = 2.0 * math.exp(-2.0 / 3.0)
    assert dset.per_agent[0] == pytest.approx(base, rel=1e-12)
    assert dset.per_agent[1] == pytest.approx(1.2 * base, rel=1e-12)
    assert dset.per_agent[2] == pytest.approx(2.0 * base, rel=1e-12)
    assert dset.trigger == pytest.approx(1.0268342380651844, rel=1e-12)
    assert dset.first_exiters == (0,)


def test_symmetric_agents_all_tie():
    costs = exp_team([1.5, 1.5, 1.5])
    profile = equilibrium_scopes([0, 1, 2], costs, WIDE)
    dset = equilibrium_drawdowns(profile, costs)
    assert dset.first_exiters == (0, 1, 2)


def test_smooth_pasting_optimum():
    # The drawdown maximizes d - c*d^2/S^2; central difference near zero.
    costs = exp_team([1.0, 1.2, 2.0])
    profile = equilibrium_scopes([0, 1, 2], costs, WIDE)
    dset = equilibrium_drawdowns(profile, costs)
    S = profile.total
    h = 1e-6
    for i in (0, 1, 2):
        c = costs[i].cost(profile.per_agent[i])
        d = dset.per_agent[i]
        payoff = lambda x: x - c * x * x / (S * S)
        deriv = (payoff(d + h) - payoff(d - h)) / (2 * h)
        assert abs(deriv) < 1e-9


def test_cascade_single_wave():
    costs = exp_team([1.0, 1.2, 2.0])
    schedule = equilibrium_exit_schedule([0, 1, 2], costs, WIDE)
    assert len(schedule.waves) == 1
    wave = schedule.waves[0]
    assert wave.exiting == (0, 1, 2)
    assert wave.trigger == pytest.approx(2.0 * math.exp(-2.0 / 3.0), rel=1e-12)
    assert wave.alliance == (0, 1, 2)


def test_cascade_two_waves():
    costs = exp_team([1.0, 1.2, 8.0])
    schedule = equilibrium_exit_schedule([0, 1, 2], costs, WIDE)
    assert [w.exiting for w in schedule.waves] == [(0, 1), (2,)]
    assert schedule.waves[0].trigger == pytest.approx(2.0 * math.exp(-2.0 / 3.0), rel=1e-12)
    # lone survivor: sigma = 2, c = e^2/8, d = 16 e^{-2} = 2.1653645317858032
    assert schedule.waves[1].trigger == pytest.approx(16.0 * math.exp(-2.0), rel=1e-12)
    assert schedule.waves[1].alliance == (2,)
    assert schedule.triggers[0] < schedule.triggers[1]
    assert schedule.wave_of(1) == 0
    assert schedule.wave_of(2) == 1


def test_symmetric_team_single_wave():
    costs = exp_team([2.0] * 5)
    schedule = equilibrium_exit_schedule(range(5), costs, WIDE)
    assert len(schedule.waves) == 1
    assert schedule.waves[0].exiting == (0, 1, 2, 3, 4)


def test_schedule_partitions_team_and_triggers_increase():
    rng = np.random.default_rng(20240812)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        betas = np.sort(np.exp(rng.uniform(0.0, 3.0, size=n)))
        betas[0] = 1.0
        costs = exp_team(betas)
        schedule = equilibrium_exit_schedule(range(n), costs, WIDE)
        seen = [i for w in schedule.waves for i in w.exiting]
        assert sorted(seen) == list(range(n))
        assert len(seen) == n
        triggers = schedule.triggers
        assert all(a < b for a, b in zip(triggers, triggers[1:]))


def test_wave_triggers_match_suffix_envelope():
    # With multipliers sorted ascending, agent j's wave trigger equals the
    # running maximum of the suffix-alliance drawdowns d_j^{j..N}.
    rng = np.random.default_rng(99)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        betas = np.sort(np.exp(rng.uniform(0.0, 2.5, size=n)))
        costs = exp_team(betas)
        schedule = equilibrium_exit_schedule(range(n), costs, WIDE)
        envelope = -math.inf
        for j in range(n):
            suffix = tuple(range(j, n))
            profile = equilibrium_scopes(suffix, costs, WIDE)
            dset = equilibrium_drawdowns(profile, costs)
            envelope = max(envelope, dset.per_agent[j])
            trigger_j = schedule.waves[schedule.wave_of(j)].trigger
            assert trigger_j == pytest.approx(envelope, rel=1e-9)


def test_exit_order_check():
    costs = exp_team([1.0, 1.2, 8.0])
    schedule = equilibrium_exit_schedule([0, 1, 2], costs, WIDE)
    assert wellordered_exit_order_check(schedule, [1.0, 1.2, 8.0])

    single = equilibrium_exit_schedule([0, 1, 2], exp_team([1.0, 1.2, 2.0]), WIDE)
    assert wellordered_exit_order_check(single, [1.0, 1.2, 2.0])

    # Hand-built violation: the cheapest agent exits first.
    prof = ScopeProfile(per_agent={0: 1.0, 1: 1.0, 2: 1.0}, total=3.0,
                        interior=True, degenerate=False, residual=0.0)
    bad = ExitSchedule(
        waves=(
            Wave(exiting=(2,), trigger=1.0, alliance=(0, 1, 2), profile=prof),
            Wave(exiting=(0, 1), trigger=2.0, alliance=(0, 1), profile=prof),
        ),
    )
    assert not wellordered_exit_order_check(bad, [1.0, 1.2, 8.0])


def test_schedule_is_deterministic():
    costs = exp_team([1.0, 1.3, 1.9, 4.2])
    one = equilibrium_exit_schedule(range(4), costs, WIDE)
    two = equilibrium_exit_schedule(range(4), costs, WIDE)
    assert one == two


def test_solver_failure_names_sub_alliance():
    with pytest.raises(SolverError, match=r"\(0,\)"):
        equilibrium_exit_schedule([0], [AffineQuadratic(1.0, 0.0, 1.0)], WIDE)


def test_drawdowns_reject_bad_profile():
    costs = exp_team([1.0])
    bad = ScopeProfile(per_agent={0: 2.0}, total=math.inf, interior=False,
                       degenerate=False, residual=0.0)
    with pytest.raises(SolverError):
        equilibrium_drawdowns(bad, costs)


def test_cascade_solves_each_alliance_once(monkeypatch):
    # Remainders checked for pull-in become the next alliance; the schedule
    # reuses those profiles instead of solving them again.
    import teamsearch.scopes as scopes_module

    solved = []
    real = scopes_module.equilibrium_scopes

    def counting(alliance, costs, bounds):
        solved.append(tuple(alliance))
        return real(alliance, costs, bounds)

    monkeypatch.setattr(scopes_module, "equilibrium_scopes", counting)
    for betas in ([1.0, 1.2, 8.0], [1.0, 1.2, 2.0], [1.0, 1.5, 3.0, 9.0]):
        solved.clear()
        schedule = equilibrium_exit_schedule(range(len(betas)), exp_team(betas), WIDE)
        assert len(solved) == len(set(solved))
        assert set(solved) >= {wave.alliance for wave in schedule.waves}


def test_cascade_computes_each_alliances_drawdowns_once(monkeypatch):
    # A remainder that pulls no one in is the next alliance: its profile and
    # drawdowns carry over to the next wave instead of being computed again.
    import teamsearch.equilibrium as equilibrium_module

    computed = []
    real = equilibrium_module.equilibrium_drawdowns

    def counting(profile, costs):
        computed.append(tuple(profile.per_agent))
        return real(profile, costs)

    monkeypatch.setattr(equilibrium_module, "equilibrium_drawdowns", counting)
    for betas in ([1.0, 1.2, 8.0], [1.0, 1.2, 2.0], [1.0, 1.5, 3.0, 9.0]):
        computed.clear()
        schedule = equilibrium_exit_schedule(range(len(betas)), exp_team(betas), WIDE)
        assert len(computed) == len(set(computed))
        assert set(computed) >= {wave.alliance for wave in schedule.waves}
    assert len(computed) == 4  # the four-agent team: one call per alliance it solves


def mixed_teams(seed: int, count: int) -> list[list]:
    """``count`` seeded cost lists of 1 to 5 agents drawn from all three families."""
    rng = np.random.default_rng(seed)
    draw = lambda lo, hi: float(rng.uniform(lo, hi))
    families = (
        lambda: ScaledExponential(b=draw(0.2, 2.0), beta=math.exp(draw(0.0, 3.0))),
        lambda: ScaledPower(a=draw(0.5, 2.0), p=float(rng.choice((2.0, 2.5, 3.0, 4.0))),
                            beta=math.exp(draw(0.0, 3.0))),
        lambda: AffineQuadratic(a2=draw(0.5, 2.0), a1=draw(0.0, 1.0), a0=draw(0.0, 1.0)),
    )
    return [[families[int(rng.integers(3))]() for _ in range(int(rng.integers(1, 6)))]
            for _ in range(count)]


def test_exit_schedules_match_each_schedule_alone():
    # Full teams and sub-teams of all three families in one sequence, whose
    # shared memo must not change a schedule; a problem that fails to solve
    # raises its own error at its own position, and a new sequence takes the rest.
    problems = [(team, costs) for costs in mixed_teams(5, 40)
                for team in (range(len(costs)), range(0, len(costs), 2), [len(costs) - 1])]
    assert {type(c) for _, costs in problems for c in costs} == {
        ScaledExponential, ScaledPower, AffineQuadratic}
    expected = []
    for team, costs in problems:
        try:
            expected.append(equilibrium_exit_schedule(team, costs, WIDE))
        except SolverError as exc:
            expected.append(exc)
    failures = sum(isinstance(want, SolverError) for want in expected)
    assert 10 < failures < len(problems) - 10
    schedules = None
    for k, want in enumerate(expected):
        schedules = schedules or exit_schedules(problems[k:], WIDE)
        if isinstance(want, ExitSchedule):
            assert next(schedules) == want
            continue
        with pytest.raises(SolverError) as info:
            next(schedules)
        assert (type(info.value), str(info.value)) == (type(want), str(want))
        schedules = None


def test_exit_schedules_solve_a_problem_only_when_asked(monkeypatch):
    import teamsearch.scopes as scopes_module

    solved, read = [], []
    real = scopes_module.equilibrium_scopes

    def counting(alliance, costs, bounds):
        solved.append(tuple(alliance))
        return real(alliance, costs, bounds)

    def problems():
        for betas in ([1.0, 1.2, 8.0], [1.0, 3.0]):
            read.append(betas)
            yield range(len(betas)), exp_team(betas)

    monkeypatch.setattr(scopes_module, "equilibrium_scopes", counting)
    schedules = exit_schedules(problems(), WIDE)
    assert (read, solved) == ([], [])
    first = next(schedules)
    assert read == [[1.0, 1.2, 8.0]] and set(solved) >= {w.alliance for w in first.waves}
    before = list(solved)
    second = next(schedules)
    assert len(read) == 2 and solved[:len(before)] == before
    assert set(solved[len(before):]) >= {w.alliance for w in second.waves}
    assert second == equilibrium_exit_schedule(range(2), exp_team([1.0, 3.0]), WIDE)


def test_int_bounds_give_the_float_bounds_schedules():
    # Bounds are stored as floats, so int bounds from a library caller give
    # the same schedules and chains, with float scopes, as their float values.
    from teamsearch.planner import optimal_chain

    costs = exp_team([1.0, 1.5, 2.0])
    for lo, hi in ((1, 2), (2, 5)):
        given, floats = ScopeBounds(lo, hi), ScopeBounds(float(lo), float(hi))
        assert (type(given.lo), type(given.hi)) == (float, float)
        for plan in (lambda b: equilibrium_exit_schedule(range(3), costs, b),
                     lambda b: optimal_chain(costs, b)):
            got, want = plan(given), plan(floats)
            assert got == want
            phases = list(got.phases())
            assert phases and all(
                type(x) is float for _, profile, _ in phases
                for x in (profile.total, *profile.per_agent.values()))
            assert any(x in (lo, hi) for _, profile, _ in phases
                       for x in profile.per_agent.values())
