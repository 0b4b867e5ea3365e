"""Span tracer for the traced run, installed from outside the program.

``Tracer.install`` replaces every binding of each layer's public functions
(module globals and module-level dispatch dicts, so ``equilibrium_scopes`` is
wrapped in ``scopes``, ``equilibrium``, ``penalty``, ``cli`` and the package)
and the cost-family methods on their classes.  ``uninstall`` puts the
originals back, so untraced ops run the unmodified program.

Spans live in flat arrays (name, start, end, parent span, op id) and are
written out as gzip-compressed JSON lines when the run ends.  A span's self
time is its duration minus that of its direct children; a layer's self time
is the sum over its spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import math
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Module -> layer.  L0 costs, L1 scopes, L2 equilibrium/planner, L3 welfare,
# L4 simulate/penalty, L5 cli.
LAYERS = {
    "costs": "costs",
    "scopes": "scopes",
    "equilibrium": "equilibrium",
    "planner": "planner",
    "welfare": "welfare",
    "simulate": "simulate",
    "penalty": "simulate",
    "cli": "cli",
}
COST_METHODS = ("cost", "marginal", "ratio", "scope_at_ratio", "inverse_marginal")
# as_alliance only normalises an index tuple and is called by every layer; a
# span around it would mostly time the tracer itself.
SKIP = {"as_alliance"}
SIM_ENTRIES = ("simulate.simulate_schedule", "penalty.simulate_penalty")

# name -> (unit, better); the order is the order of the report.
PER_LAYER = {
    "costs.calls": ("1/op", "lower"),
    "costs.elements": ("1/op", "lower"),
    "costs.self_s": ("s/op", "lower"),
    "scopes.eq_calls": ("1/op", "lower"),
    "scopes.sp_calls": ("1/op", "lower"),
    "scopes.self_s": ("s/op", "lower"),
    "scopes.warned": ("1/op", "lower"),
    "scopes.repeat_frac": ("ratio", "lower"),
    "equilibrium.schedule_calls": ("1/op", "lower"),
    "equilibrium.self_s": ("s/op", "lower"),
    "planner.chain_calls": ("1/op", "lower"),
    "planner.chains_enumerated": ("1/op", "lower"),
    "planner.self_s": ("s/op", "lower"),
    "planner.feasible_frac": ("ratio", "higher"),
    "welfare.calls": ("1/op", "lower"),
    "welfare.self_s": ("s/op", "lower"),
    "simulate.calls": ("1/op", "lower"),
    "simulate.path_steps": ("1/op", "lower"),
    "simulate.path_steps_per_s": ("1/s", "higher"),
    "simulate.censored_frac": ("ratio", "lower"),
    "simulate.self_s": ("s/op", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.import_scipy_stats_s": ("s", "lower"),
    "cli.load_s": ("s/op", "lower"),
    "cli.self_s": ("s/op", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.op_s": ("s/op", "lower"),
}


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _expected_duration(phases) -> float:
    """Mean run length of (total scope, stop drawdown) phases: sum (d_k^2 - d_{k-1}^2) / S_k^2."""
    total, prev = 0.0, 0.0
    for scope, trigger in phases:
        total += (trigger * trigger - prev * prev) / (scope * scope)
        prev = trigger
    return total


def _path_steps(outcome, phases) -> tuple[int, int, int]:
    """(path steps, paths, censored paths) from the stop times of one simulation.

    A finished path ran until its last wave fired; a censored one ran to the
    horizon, which the engine sets to t_max or 50 expected run lengths.
    """
    dt = outcome.config.dt
    fired = ~np.isnan(outcome.wave_tau)
    last = np.where(fired, outcome.wave_tau, 0.0).max(axis=0)
    steps = np.rint(last / dt)
    censored = np.asarray(outcome.censored, dtype=bool)
    n_censored = int(censored.sum())
    if n_censored:
        t_max = outcome.config.t_max
        if t_max is None:
            t_max = 50.0 * _expected_duration(phases())
        steps = np.where(censored, max(1, math.ceil(t_max / dt)), steps)
    return int(steps.sum()), int(steps.size), n_censored


class Tracer:
    def __init__(self, package: str = "teamsearch"):
        self.modules = [m for n, m in sorted(sys.modules.items())
                        if m is not None and (n == package or n.startswith(package + "."))]
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name_id: array = array("l")
        self.parent: array = array("l")
        self.op_of: array = array("l")
        self.start: array = array("d")
        self.end: array = array("d")
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.seen: set = set()
        self.originals: dict = {}
        self.wrapped: dict = {}
        self.patches: list = []
        self.hooks = {
            "scopes.equilibrium_scopes": self._solve_hook("eq"),
            "scopes.planner_scopes": self._solve_hook("sp"),
            "planner.enumerate_chains": self._count_chains,
            "simulate.simulate_schedule": self._sim_hook(self._schedule_phases),
            "penalty.simulate_penalty": self._sim_hook(self._penalty_phases),
        }
        self._discover()

    # -- instrumentation ---------------------------------------------------

    def _discover(self) -> None:
        for module in self.modules:
            short = module.__name__.rpartition(".")[2]
            layer = LAYERS.get(short)
            if layer is None:
                continue
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_") and name not in SKIP):
                    self._add(obj, f"{short}.{name}", layer)
                if short == "costs" and inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for method in COST_METHODS:
                        fn = vars(obj).get(method)
                        if inspect.isfunction(fn):
                            self._add(fn, f"costs.{name}.{method}", "costs",
                                      hook=self._count_elements, owner=(obj, method))
        for module in self.modules:
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj in self.wrapped:
                    self.patches.append((vars(module), name, obj))
                elif isinstance(obj, dict):
                    for key, value in obj.items():
                        if inspect.isfunction(value) and value in self.wrapped:
                            self.patches.append((obj, key, value))

    def _add(self, fn, name: str, layer: str, hook=None, owner=None) -> None:
        if fn in self.wrapped:
            return
        self.wrapped[fn] = self._wrap(fn, len(self.names), hook or self.hooks.get(name))
        self.originals[name] = fn
        self.names.append(name)
        self.layer_of.append(layer)
        if owner is not None:
            self.patches.append((owner[0], owner[1], fn))

    def _wrap(self, fn, nid: int, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op_of.append(tracer.op)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def install(self, op: int) -> None:
        self.op = op
        self.seen = set()
        for target, key, fn in self.patches:
            if isinstance(target, dict):
                target[key] = self.wrapped[fn]
            else:
                setattr(target, key, self.wrapped[fn])

    def uninstall(self) -> None:
        for target, key, fn in self.patches:
            if isinstance(target, dict):
                target[key] = fn
            else:
                setattr(target, key, fn)
        self.op = -1

    # -- counters ------------------------------------------------------------

    def _count_elements(self, args, kwargs, result) -> None:
        self.counts["costs.elements"] += int(np.size(args[1] if len(args) > 1
                                                     else next(iter(kwargs.values()))))

    def _solve_hook(self, mode: str):
        def hook(args, kwargs, profile):
            costs = _arg(args, kwargs, 1, "costs")
            members = tuple(profile.per_agent)
            key = (mode, members, tuple(costs[i] for i in members), _arg(args, kwargs, 2, "bounds"))
            self.counts["scopes.solves"] += 1
            self.counts["scopes.repeats"] += key in self.seen
            self.counts["scopes.warned"] += bool(profile.warnings)
            self.seen.add(key)
        return hook

    def _count_chains(self, args, kwargs, chains) -> None:
        self.counts["planner.chains_enumerated"] += len(chains)

    def _schedule_phases(self, args, kwargs):
        plan = _arg(args, kwargs, 0, "plan")
        return lambda: [(profile.total, d) for _, profile, d in plan.phases()]

    def _penalty_phases(self, args, kwargs):
        def phases():
            policy = self.originals["penalty.penalty_policy"](_arg(args, kwargs, 0, "config"))
            out = [(policy.team_profile.total, policy.trigger)]
            if policy.continues:
                out.append((policy.solo_profile.per_agent[policy.follower],
                            policy.continuation_drawdown))
            return out
        return phases

    def _sim_hook(self, phases_of):
        def hook(args, kwargs, outcome):
            steps, paths, censored = _path_steps(outcome, phases_of(args, kwargs))
            self.counts["simulate.path_steps"] += steps
            self.counts["simulate.paths"] += paths
            self.counts["simulate.censored"] += censored
        return hook

    # -- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def summary(self, n_ops: int, untraced_s: float) -> dict:
        """Per-op layer metrics over the traced ops (the caller adds the import metrics),
        plus each layer's share of traced op time and the costs share by calling layer."""
        own = self.self_times()
        layer_self: Counter = Counter()
        costs_by_caller: Counter = Counter()
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        brute_welfare = 0
        brute = (self.names.index("planner.brute_force_optimal_chain")
                 if "planner.brute_force_optimal_chain" in self.names else -2)
        for i, nid in enumerate(self.name_id):
            name, layer = self.names[nid], self.layer_of[nid]
            layer_self[layer] += own[i]
            calls[name] += 1
            p = self.parent[i]
            if layer == "costs":
                while p >= 0 and self.layer_of[self.name_id[p]] == "costs":
                    p = self.parent[p]
                costs_by_caller[self.layer_of[self.name_id[p]] if p >= 0 else "none"] += own[i]
            elif p < 0 or name in SIM_ENTRIES or name == "cli.load_scenario":
                inclusive[name] += self.end[i] - self.start[i]  # roots are the cli.main ops
            elif name == "welfare.chain_welfare":
                brute_welfare += p >= 0 and self.name_id[p] == brute
        op_s = inclusive["cli.main"]
        c = self.counts
        sim_s = sum(inclusive[n] for n in SIM_ENTRIES)
        per = 1.0 / n_ops
        per_layer = {
            "costs.calls": sum(v for k, v in calls.items() if k.startswith("costs.")
                               and k.rpartition(".")[2] in COST_METHODS) * per,
            "costs.elements": c["costs.elements"] * per,
            "costs.self_s": layer_self["costs"] * per,
            "scopes.eq_calls": calls["scopes.equilibrium_scopes"] * per,
            "scopes.sp_calls": calls["scopes.planner_scopes"] * per,
            "scopes.self_s": layer_self["scopes"] * per,
            "scopes.warned": c["scopes.warned"] * per,
            "scopes.repeat_frac": (c["scopes.repeats"] / c["scopes.solves"]
                                   if c["scopes.solves"] else 0.0),
            "equilibrium.schedule_calls": calls["equilibrium.equilibrium_exit_schedule"] * per,
            "equilibrium.self_s": layer_self["equilibrium"] * per,
            "planner.chain_calls": calls["planner.optimal_chain"] * per,
            "planner.chains_enumerated": c["planner.chains_enumerated"] * per,
            "planner.self_s": layer_self["planner"] * per,
            "planner.feasible_frac": (brute_welfare / c["planner.chains_enumerated"]
                                      if c["planner.chains_enumerated"] else 0.0),
            "welfare.calls": calls["welfare.chain_welfare"] * per,
            "welfare.self_s": layer_self["welfare"] * per,
            "simulate.calls": sum(calls[n] for n in SIM_ENTRIES) * per,
            "simulate.path_steps": c["simulate.path_steps"] * per,
            "simulate.path_steps_per_s": c["simulate.path_steps"] / sim_s if sim_s else 0.0,
            "simulate.censored_frac": (c["simulate.censored"] / c["simulate.paths"]
                                       if c["simulate.paths"] else 0.0),
            "simulate.self_s": layer_self["simulate"] * per,
            "cli.load_s": inclusive["cli.load_scenario"] * per,
            "cli.self_s": layer_self["cli"] * per,
            "trace.overhead_frac": op_s / untraced_s - 1.0,
            "trace.op_s": op_s * per,
        }
        return {
            "per_layer": per_layer,
            "self_share": {k: v / op_s for k, v in sorted(layer_self.items())},
            "costs_share_by_caller": {k: v / op_s for k, v in sorted(costs_by_caller.items())},
        }

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, nid in enumerate(self.name_id):
                fh.write(json.dumps({
                    "id": i, "name": self.names[nid], "start": self.start[i],
                    "end": self.end[i], "parent": self.parent[i], "op": self.op_of[i],
                }) + "\n")
