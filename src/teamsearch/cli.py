"""Command-line front end: scenario files, solve/schedule/simulate/scan tables.

Scenario files are JSON with exact field names and fail-fast parsing
(unknown keys are errors).  All tables are comma-separated UTF-8 with a
header row and 10 significant digits; agent labels in wave strings are
1-based.  Exit codes: 0 success, 1 runtime/numerical failure, 2 config
validation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .costs import (
    AffineQuadratic,
    CostSpec,
    ScaledExponential,
    ScaledPower,
    ScopeBounds,
    validate_cost,
)
from .equilibrium import ExitSchedule, equilibrium_drawdowns, equilibrium_exit_schedule
from .errors import SimulationError, SolverError, TeamSearchError, ValidationError
from .penalty import PenaltyConfig, expected_penalty_payoffs, penalty_policy, simulate_penalty
from .planner import optimal_chain, planner_drawdown
from .scopes import equilibrium_scopes, planner_scopes
from .simulate import SimConfig, SimOutcome, simulate_schedule
from .welfare import chain_welfare, equilibrium_payoffs

FMT = "%.10g"

_FAMILY_FIELDS = {
    "scaled_exponential": ("b", "beta"),
    "scaled_power": ("a", "p", "beta"),
    "affine_quadratic": ("a2", "a1", "a0"),
}
_OPTIONAL_FIELDS = {"scaled_exponential": {"beta": 1.0}, "scaled_power": {"beta": 1.0}}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


_INTEGER = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_BOOLEAN = ("true or false", lambda v: isinstance(v, bool))
_SIM_FIELDS = {
    "dt": ("a number", _is_number),
    "n_paths": _INTEGER,
    "seed": _INTEGER,
    "t_max": ("a number or null", lambda v: v is None or _is_number(v)),
    "bridge_correction": _BOOLEAN,
    "strict": _BOOLEAN,
}


def _require_keys(entry: dict, allowed: set[str], where: str) -> None:
    unknown = set(entry) - allowed
    if unknown:
        raise ValidationError(f"unknown key(s) {sorted(unknown)} in {where}")


def _spec_from_dict(entry: dict, where: str) -> CostSpec:
    if not isinstance(entry, dict) or "family" not in entry:
        raise ValidationError(f"{where}: each agent needs a 'family' field")
    family = entry["family"]
    if family not in _FAMILY_FIELDS:
        raise ValidationError(f"{where}: unknown family {family!r}")
    fields = _FAMILY_FIELDS[family]
    _require_keys(entry, {"family", *fields}, where)
    kwargs = dict(_OPTIONAL_FIELDS.get(family, {}))
    for name in fields:
        if name in entry:
            value = entry[name]
            if not _is_number(value):
                raise ValidationError(f"{where}: field {name!r} must be a number")
            kwargs[name] = float(value)
        elif name not in kwargs:
            raise ValidationError(f"{where}: missing field {name!r}")
    try:
        if family == "scaled_exponential":
            return ScaledExponential(**kwargs)
        if family == "scaled_power":
            return ScaledPower(**kwargs)
        return AffineQuadratic(**kwargs)
    except (ValueError, TeamSearchError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _spec_to_dict(spec: CostSpec) -> dict:
    if isinstance(spec, ScaledExponential):
        return {"family": "scaled_exponential", "b": spec.b, "beta": spec.beta}
    if isinstance(spec, ScaledPower):
        return {"family": "scaled_power", "a": spec.a, "p": spec.p, "beta": spec.beta}
    return {"family": "affine_quadratic", "a2": spec.a2, "a1": spec.a1, "a0": spec.a0}


@dataclass(frozen=True)
class ScanSpec:
    beta2_range: tuple[float, float] = (0.0, 24.0)
    beta3_range: tuple[float, float] = (0.0, 24.0)
    steps: int = 96


@dataclass(frozen=True)
class ScenarioConfig:
    agents: tuple[CostSpec, ...]
    scope_bounds: ScopeBounds
    sim: SimConfig | None = None
    penalty_alpha: float | None = None
    scan: ScanSpec | None = None


def _parse_range(value, where: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_is_number, value)):
        raise ValidationError(f"{where} must be a [lo, hi] number pair")
    lo, hi = float(value[0]), float(value[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo >= 0.0):
        raise ValidationError(f"{where} must satisfy 0 <= lo < hi")
    return lo, hi


def parse_scenario(document: dict) -> ScenarioConfig:
    if not isinstance(document, dict):
        raise ValidationError("scenario must be a JSON object")
    _require_keys(document, {"agents", "scope_bounds", "sim", "penalty", "scan"}, "scenario")
    if "agents" not in document or "scope_bounds" not in document:
        raise ValidationError("scenario requires 'agents' and 'scope_bounds'")

    agents_doc = document["agents"]
    if not isinstance(agents_doc, list) or len(agents_doc) < 1:
        raise ValidationError("'agents' must be a non-empty list")
    agents = tuple(
        _spec_from_dict(entry, f"agents[{i}]") for i, entry in enumerate(agents_doc)
    )

    bounds_doc = document["scope_bounds"]
    if not isinstance(bounds_doc, dict):
        raise ValidationError("'scope_bounds' must be an object")
    _require_keys(bounds_doc, {"lo", "hi"}, "scope_bounds")
    if "lo" not in bounds_doc or "hi" not in bounds_doc:
        raise ValidationError("scope_bounds requires 'lo' and 'hi'")
    try:
        bounds = ScopeBounds(float(bounds_doc["lo"]), float(bounds_doc["hi"]))
    except (ValueError, TeamSearchError) as exc:
        raise ValidationError(f"scope_bounds: {exc}") from exc

    for i, spec in enumerate(agents):
        report = validate_cost(spec, bounds)
        if not report.valid:
            raise ValidationError(f"agents[{i}] invalid: {'; '.join(report.issues)}")

    sim = None
    if "sim" in document:
        sim_doc = document["sim"]
        if not isinstance(sim_doc, dict):
            raise ValidationError("'sim' must be an object")
        _require_keys(sim_doc, set(_SIM_FIELDS), "sim")
        for name, value in sim_doc.items():
            kind, ok = _SIM_FIELDS[name]
            if not ok(value):
                raise ValidationError(f"sim.{name} must be {kind}, got {value!r}")
        try:
            sim = SimConfig(**sim_doc)
        except TypeError as exc:
            raise ValidationError(f"sim: {exc}") from exc

    penalty_alpha = None
    if "penalty" in document:
        pen_doc = document["penalty"]
        if not isinstance(pen_doc, dict):
            raise ValidationError("'penalty' must be an object")
        _require_keys(pen_doc, {"alpha"}, "penalty")
        if "alpha" not in pen_doc:
            raise ValidationError("penalty requires 'alpha'")
        raw = pen_doc["alpha"]
        if not _is_number(raw):
            raise ValidationError("penalty.alpha must be a number")
        penalty_alpha = float(raw)
        if not (math.isfinite(penalty_alpha) and 0.0 <= penalty_alpha <= 1.0):
            raise ValidationError("penalty.alpha must lie in [0, 1]")

    scan = None
    if "scan" in document:
        scan_doc = document["scan"]
        if not isinstance(scan_doc, dict):
            raise ValidationError("'scan' must be an object")
        _require_keys(scan_doc, {"beta2_range", "beta3_range", "steps"}, "scan")
        kwargs = {}
        if "beta2_range" in scan_doc:
            kwargs["beta2_range"] = _parse_range(scan_doc["beta2_range"], "scan.beta2_range")
        if "beta3_range" in scan_doc:
            kwargs["beta3_range"] = _parse_range(scan_doc["beta3_range"], "scan.beta3_range")
        if "steps" in scan_doc:
            steps = scan_doc["steps"]
            if not isinstance(steps, int) or isinstance(steps, bool) or steps < 1:
                raise ValidationError("scan.steps must be a positive integer")
            kwargs["steps"] = steps
        scan = ScanSpec(**kwargs)
        _check_scan_template(agents)
    return ScenarioConfig(
        agents=agents, scope_bounds=bounds, sim=sim, penalty_alpha=penalty_alpha, scan=scan
    )


def _check_scan_template(agents: Sequence[CostSpec]) -> None:
    if len(agents) != 3 or not all(isinstance(a, ScaledExponential) for a in agents):
        raise ValidationError("scan requires exactly 3 scaled_exponential agents")
    if len({a.b for a in agents}) != 1:
        raise ValidationError("scan agents must share the exponential rate b")
    if any(a.beta != 1.0 for a in agents):
        raise ValidationError("scan template agents must all have beta = 1.0")


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except FileNotFoundError as exc:
        raise ValidationError(f"cannot open scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario is not valid JSON: {exc}") from exc
    return parse_scenario(document)


def scenario_to_document(config: ScenarioConfig) -> dict:
    doc: dict = {
        "agents": [_spec_to_dict(a) for a in config.agents],
        "scope_bounds": {"lo": config.scope_bounds.lo, "hi": config.scope_bounds.hi},
    }
    if config.sim is not None:
        s = config.sim
        doc["sim"] = {
            "dt": s.dt,
            "n_paths": s.n_paths,
            "seed": s.seed,
            "t_max": s.t_max,
            "bridge_correction": s.bridge_correction,
            "strict": s.strict,
        }
    if config.penalty_alpha is not None:
        doc["penalty"] = {"alpha": config.penalty_alpha}
    if config.scan is not None:
        doc["scan"] = {
            "beta2_range": list(config.scan.beta2_range),
            "beta3_range": list(config.scan.beta3_range),
            "steps": config.scan.steps,
        }
    return doc


def _wave_label(members: Sequence[int]) -> str:
    return "{" + ",".join(str(m + 1) for m in sorted(members)) + "}"


def _partition_label(waves: Sequence[Sequence[int]]) -> str:
    return "".join(_wave_label(w) for w in waves)


def _chain_waves(alliances: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    sets = [tuple(a) for a in alliances] + [()]
    return [tuple(sorted(set(a) - set(b))) for a, b in zip(sets, sets[1:])]


def _emit(rows: list[list[str]], comments: list[str], out_path: str | None) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    for comment in comments:
        buffer.write(comment + "\n")
    text = buffer.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fmt(value: float) -> str:
    return FMT % value


def cmd_validate(config: ScenarioConfig, args: argparse.Namespace) -> int:
    text = json.dumps(scenario_to_document(config), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")
    return 0


def cmd_solve(config: ScenarioConfig, args: argparse.Namespace) -> int:
    team = tuple(range(len(config.agents)))
    costs = list(config.agents)
    rows = [["agent", "sigma", "cost_rate", "drawdown"]]
    if args.mode == "eq":
        profile = equilibrium_scopes(team, costs, config.scope_bounds)
        drawdowns = equilibrium_drawdowns(team, profile, costs)
        per_agent = {i: drawdowns.per_agent[i] for i in team}
    elif args.mode == "sp":
        profile = planner_scopes(team, costs, config.scope_bounds)
        shared = planner_drawdown(team, (), costs, config.scope_bounds)
        per_agent = {i: shared for i in team}
    else:
        raise ValidationError("solve supports --mode eq or sp")
    for i in team:
        sigma = profile.per_agent[i]
        rows.append(
            [str(i + 1), _fmt(sigma), _fmt(costs[i].cost(sigma)), _fmt(per_agent[i])]
        )
    comments = [
        f"# mode: {args.mode}",
        f"# total_scope: {_fmt(profile.total)}",
        f"# interior: {str(profile.interior).lower()}",
        f"# degenerate: {str(profile.degenerate).lower()}",
    ]
    _emit(rows, comments, args.out)
    return 0


def _schedule_for_mode(config: ScenarioConfig, mode: str):
    team = range(len(config.agents))
    costs = list(config.agents)
    if mode == "eq":
        plan = equilibrium_exit_schedule(team, costs, config.scope_bounds)
        report = equilibrium_payoffs(plan, costs)
        trace = None
    elif mode == "sp":
        plan = optimal_chain(costs, config.scope_bounds)
        report = chain_welfare(plan, costs)
        trace = plan.trace
    else:
        raise ValidationError(f"unsupported mode {mode!r} for this command")
    return plan, report, trace


def cmd_schedule(config: ScenarioConfig, args: argparse.Namespace) -> int:
    plan, report, trace = _schedule_for_mode(config, args.mode)
    phase_list = list(plan.phases())
    waves = _chain_waves([alliance for alliance, _, _ in phase_list])
    rows = [["wave", "members", "drawdown", "welfare"]]
    for k, ((_, _, drawdown), exiting) in enumerate(zip(phase_list, waves), start=1):
        welfare = sum(report.per_agent[i] for i in exiting)
        rows.append([str(k), _wave_label(exiting), _fmt(drawdown), _fmt(welfare)])
    comments = [f"# mode: {args.mode}", f"# total_welfare: {_fmt(report.total)}"]
    if trace is not None:
        n = len(config.agents)
        comments.append(
            "# greedy_trace: " + " | ".join(_wave_label(range(j, n)) for j in trace)
        )
    _emit(rows, comments, args.out)
    return 0


def _dump_samples(outcome: SimOutcome, path: str) -> None:
    n_waves = outcome.wave_tau.shape[0]
    header = ["path"]
    header += [f"tau_{k + 1}" for k in range(n_waves)]
    header += [f"M_{k + 1}" for k in range(n_waves)]
    header += [f"payoff_{a + 1}" for a in outcome.agents]
    rows = [header]
    for p in range(outcome.n_paths):
        row = [str(p)]
        for k in range(n_waves):
            t = outcome.wave_tau[k, p]
            row.append("" if math.isnan(t) else _fmt(t))
        for k in range(n_waves):
            m = outcome.wave_M[k, p]
            row.append("" if math.isnan(m) else _fmt(m))
        row += [_fmt(outcome.payoffs[r, p]) for r in range(len(outcome.agents))]
        rows.append(row)
    _emit(rows, [], path)


def cmd_simulate(config: ScenarioConfig, args: argparse.Namespace) -> int:
    sim = config.sim if config.sim is not None else SimConfig()
    if args.seed is not None:
        sim = SimConfig(
            dt=sim.dt, n_paths=sim.n_paths, seed=args.seed, t_max=sim.t_max,
            bridge_correction=sim.bridge_correction, strict=sim.strict,
        )
    if args.strict:
        sim = SimConfig(
            dt=sim.dt, n_paths=sim.n_paths, seed=sim.seed, t_max=sim.t_max,
            bridge_correction=sim.bridge_correction, strict=True,
        )
    costs = list(config.agents)

    checks: list[tuple[str, float, float, float]] = []  # name, analytic, mc, se
    if args.mode == "penalty":
        if config.penalty_alpha is None:
            raise ValidationError("simulate --mode penalty needs a 'penalty' section")
        if len(costs) != 2:
            raise ValidationError("penalty mode requires exactly two agents")
        pconfig = PenaltyConfig(
            alpha=config.penalty_alpha, costs=(costs[0], costs[1]), bounds=config.scope_bounds
        )
        policy = penalty_policy(pconfig)
        analytic = expected_penalty_payoffs(pconfig, policy)
        outcome = simulate_penalty(pconfig, sim)
        for agent in outcome.agents:
            checks.append(
                (f"payoff_{agent + 1}", analytic[agent],
                 outcome.mean_payoff(agent), outcome.payoff_se(agent))
            )
        freq = float((outcome.collapse_wave < 0).mean())
        freq_se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / outcome.n_paths)
        checks.append(
            ("continuation_frequency", policy.continuation_probability, freq, freq_se)
        )
    else:
        plan, report, _ = _schedule_for_mode(config, args.mode)
        outcome = simulate_schedule(plan, costs, sim)
        for agent in outcome.agents:
            checks.append(
                (f"payoff_{agent + 1}", report.per_agent[agent],
                 outcome.mean_payoff(agent), outcome.payoff_se(agent))
            )
        total_mean, total_se = outcome.total_payoff()
        checks.append(("total_payoff", report.total, total_mean, total_se))

    rows = [["quantity", "analytic", "mc_mean", "mc_se", "z", "status"]]
    for name, target, mean, se in checks:
        if se > 0.0:
            z = (mean - target) / se
        else:
            z = 0.0 if mean == target else math.inf
        status = "PASS" if abs(mean - target) <= 3.0 * se else "FAIL"
        rows.append([name, _fmt(target), _fmt(mean), _fmt(se), _fmt(z), status])
    comments = [
        f"# mode: {args.mode}",
        f"# n_paths: {outcome.n_paths}",
        f"# censored: {outcome.censored_count}",
    ]
    for warning in outcome.warnings:
        comments.append(f"# warning: {warning}")
    _emit(rows, comments, args.out)
    if args.dump_samples:
        _dump_samples(outcome, args.dump_samples)
    return 0


def _scan_grid(spec: ScanSpec) -> tuple[np.ndarray, np.ndarray]:
    lo2, hi2 = spec.beta2_range
    lo3, hi3 = spec.beta3_range
    idx = np.arange(1, spec.steps + 1, dtype=float)
    return lo2 + idx * (hi2 - lo2) / spec.steps, lo3 + idx * (hi3 - lo3) / spec.steps


def cmd_scan(config: ScenarioConfig, args: argparse.Namespace) -> int:
    scan = config.scan if config.scan is not None else ScanSpec()
    _check_scan_template(config.agents)
    rate = config.agents[0].b
    bounds = config.scope_bounds
    beta2s, beta3s = _scan_grid(scan)
    rows = [["beta2", "beta3", "equilibrium", "planner"]]
    for b3 in beta3s:
        for b2 in beta2s:
            if not (b3 > b2 > 1.0):
                rows.append([_fmt(b2), _fmt(b3), "", ""])
                continue
            costs = [
                ScaledExponential(b=rate),
                ScaledExponential(b=rate, beta=b2),
                ScaledExponential(b=rate, beta=b3),
            ]
            schedule = equilibrium_exit_schedule(range(3), costs, bounds)
            eq_label = _partition_label([w.exiting for w in schedule.waves])
            chain = optimal_chain(costs, bounds)
            sp_label = _partition_label(_chain_waves(chain.alliances))
            rows.append([_fmt(b2), _fmt(b3), eq_label, sp_label])
    _emit(rows, [], args.out)
    if args.svg:
        _render_scan_svg(rows[1:], scan.steps, args.svg)
    return 0


_SVG_COLORS = {
    "{1,2,3}": "#4daf4a",
    "{1,2}{3}": "#377eb8",
    "{1}{2,3}": "#ff7f00",
    "{1}{2}{3}": "#e41a1c",
    "": "#f0f0f0",
}


def _render_scan_svg(rows: list[list[str]], steps: int, path: str) -> None:
    cell = 8
    size = steps * cell
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    for k, row in enumerate(rows):
        i, j = k % steps, k // steps  # beta2 index, beta3 index
        color = _SVG_COLORS.get(row[2], "#999999")
        x = i * cell
        y = size - (j + 1) * cell  # beta3 grows upward
        parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{color}"/>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamsearch",
        description="Equilibrium and planner analysis of collective search with exit waves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, modes: tuple[str, ...] | None) -> None:
        p.add_argument("config", help="path to a JSON scenario file")
        p.add_argument("--out", default=None, help="write the table to this path")
        if modes:
            p.add_argument("--mode", choices=modes, default="eq")

    add_common(sub.add_parser("validate", help="parse and echo a scenario"), None)
    add_common(sub.add_parser("solve", help="full-team scope profile"), ("eq", "sp"))
    add_common(sub.add_parser("schedule", help="exit waves / planner chain"), ("eq", "sp"))
    sim_parser = sub.add_parser("simulate", help="Monte Carlo vs analytic values")
    add_common(sim_parser, ("eq", "sp", "penalty"))
    sim_parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    sim_parser.add_argument("--strict", action="store_true", help="escalate censoring to an error")
    sim_parser.add_argument("--dump-samples", default=None, help="write per-path samples here")
    scan_parser = sub.add_parser("scan", help="exit-pattern region grid")
    add_common(scan_parser, None)
    scan_parser.add_argument("--svg", default=None, help="also render the grid to this SVG path")
    return parser


_COMMANDS = {
    "validate": cmd_validate,
    "solve": cmd_solve,
    "schedule": cmd_schedule,
    "simulate": cmd_simulate,
    "scan": cmd_scan,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_scenario(args.config)
        return _COMMANDS[args.command](config, args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, SimulationError, TeamSearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
