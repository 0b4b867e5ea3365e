"""Command-line front end: scenario files, solve/schedule/simulate/scan tables.

Scenario files are JSON.  Each section is parsed by one generic builder from
the dataclass it produces (the cost families, ``ScopeBounds``, ``SimConfig``,
``PenaltySpec``, ``ScanSpec``): keys, defaults and value kinds come from the
dataclass fields, and domain rules from its ``__post_init__``.  Unknown,
missing or repeated keys and wrongly typed values are errors, which echo
long values shortened by ``reprlib``; numbers must be finite, ints are
accepted for floats, and strings, booleans and null are never coerced.
``validate`` echoes the parsed dataclasses.  All tables are
comma-separated UTF-8 with a header row and 10 significant digits; agent
labels in wave strings are 1-based.  Exit codes: 0 success, 1
runtime/numerical failure, 2 invalid scenario (a team, scan grid or
simulation horizon over its budget included), or unreadable input /
unwritable output.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import reprlib
import sys
from dataclasses import asdict, dataclass, replace
from typing import Sequence, get_type_hints

import numpy as np

from .costs import FAMILIES, CostSpec, ScopeBounds, cost_issues
from .equilibrium import equilibrium_drawdowns, equilibrium_exit_schedule
from .errors import SimulationError, TeamSearchError, ValidationError
from .penalty import PenaltyConfig, PenaltySpec, expected_penalty_payoffs, penalty_policy
from .planner import optimal_chain, planner_drawdown
from .scan import ScanSpec, check_template, scan_cells
from .scopes import ProfileCache
from .simulate import SimConfig, SimOutcome, simulate_phases, simulate_schedule
from .welfare import chain_exits, chain_welfare

FMT = "%.10g"


def _is_finite(value) -> bool:
    """Whether ``value`` is a JSON number (not a bool) that is finite as a float."""
    try:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    except OverflowError:  # an int too large for a float
        return False


# Field annotation -> (what a value must be, check, conversion of a checked value).
_KINDS = {
    float: ("a finite number", _is_finite, float),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool), int),
    bool: ("true or false", lambda v: isinstance(v, bool), bool),
    float | None: ("a finite number or null", lambda v: v is None or _is_finite(v),
                   lambda v: None if v is None else float(v)),
    tuple[float, float]: (
        "a [lo, hi] number pair",
        lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_finite, v)),
        lambda v: (float(v[0]), float(v[1])),
    ),
}


def _check_keys(obj, allowed, required, where: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"'{where}' must be an object")
    unknown = set(obj) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown key(s) {reprlib.repr(sorted(unknown))} in {where}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValidationError(f"{where}: missing field(s) {missing}")


@functools.cache
def _schema(cls) -> tuple[dict, list[str], dict]:
    """``cls``'s dataclass fields by name, its required field names and its
    resolved type hints, worked out once per class."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    required = [name for name, f in fields.items() if f.default is dataclasses.MISSING]
    return fields, required, get_type_hints(cls)


def _build(cls, obj, where: str):
    """Scenario section ``where`` as a ``cls`` instance, checked against its dataclass fields."""
    fields, required, hints = _schema(cls)
    _check_keys(obj, fields, required, where)
    kwargs = {}
    for name, value in obj.items():
        kind, ok, convert = _KINDS[hints[name]]
        if not ok(value):
            raise ValidationError(f"{where}.{name} must be {kind}, got {reprlib.repr(value)}")
        kwargs[name] = convert(value)
    try:
        return cls(**kwargs)
    except (ValueError, TeamSearchError) as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def _spec_from_dict(entry, where: str) -> CostSpec:
    if not isinstance(entry, dict) or "family" not in entry:
        raise ValidationError(f"{where}: each agent needs a 'family' field")
    params = dict(entry)
    family = params.pop("family")
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValidationError(f"{where}: unknown family {reprlib.repr(family)}")
    return _build(FAMILIES[family], params, where)


# Largest team a scenario may list, checked before any agent is built.
# `schedule` on a sorted 1,000-agent exponential team (bounds [0.001, 10])
# took 42 s in mode eq and 27 s in mode sp, with peak RSS up to 152 MB, on a
# shared 2-core machine; both grow about as the square of the team size.
MAX_TEAM_AGENTS = 1000

# Optional scenario sections, by key.
_SECTIONS = {"sim": SimConfig, "penalty": PenaltySpec, "scan": ScanSpec}


@dataclass(frozen=True)
class ScenarioConfig:
    agents: tuple[CostSpec, ...]
    scope_bounds: ScopeBounds
    sim: SimConfig | None = None
    penalty: PenaltySpec | None = None
    scan: ScanSpec | None = None


def parse_scenario(document) -> ScenarioConfig:
    required = ("agents", "scope_bounds")
    _check_keys(document, (*required, *_SECTIONS), required, "scenario")
    agents_doc = document["agents"]
    if not isinstance(agents_doc, list) or len(agents_doc) < 1:
        raise ValidationError("'agents' must be a non-empty list")
    if len(agents_doc) > MAX_TEAM_AGENTS:
        raise ValidationError(
            f"{len(agents_doc)} agents, over the team budget of {MAX_TEAM_AGENTS}"
        )
    agents = tuple(
        _spec_from_dict(entry, f"agents[{i}]") for i, entry in enumerate(agents_doc)
    )
    bounds = _build(ScopeBounds, document["scope_bounds"], "scope_bounds")
    for i, spec in enumerate(agents):
        issues = cost_issues(spec, bounds)
        if issues:
            raise ValidationError(f"agents[{i}] invalid: {'; '.join(issues)}")
    sections = {key: _build(cls, document[key], key)
                for key, cls in _SECTIONS.items() if key in document}
    if "scan" in sections:
        check_template(agents)
    return ScenarioConfig(agents, bounds, **sections)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object from its (key, value) pairs; a key given twice is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValidationError(f"duplicate key {reprlib.repr(key)} in scenario")
        obj[key] = value
    return obj


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            document = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:  # ValueError covers bad UTF-8 and bad JSON
        raise ValidationError(f"cannot read scenario: {exc}") from exc
    return parse_scenario(document)


def scenario_to_document(config: ScenarioConfig) -> dict:
    names = {cls: name for name, cls in FAMILIES.items()}
    doc: dict = {
        "agents": [{"family": names[type(a)], **asdict(a)} for a in config.agents],
        "scope_bounds": asdict(config.scope_bounds),
    }
    for key in _SECTIONS:
        section = getattr(config, key)
        if section is not None:
            doc[key] = asdict(section)
    return doc


def _wave_label(members: Sequence[int]) -> str:
    return "{" + ",".join(str(m + 1) for m in sorted(members)) + "}"


def _partition_label(waves: Sequence[Sequence[int]]) -> str:
    return "".join(_wave_label(w) for w in waves)


def _write(text: str, path: str | None) -> None:
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot write output: {exc}") from exc


def _emit(rows: list[list[str]], comments: list[str], out_path: str | None) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    for comment in comments:
        buffer.write(comment + "\n")
    _write(buffer.getvalue(), out_path)


def _fmt(value: float) -> str:
    return FMT % value


def cmd_validate(config: ScenarioConfig, args: argparse.Namespace) -> int:
    _write(json.dumps(scenario_to_document(config), indent=2) + "\n", args.out)
    return 0


def cmd_solve(config: ScenarioConfig, args: argparse.Namespace) -> int:
    team = tuple(range(len(config.agents)))
    costs = list(config.agents)
    rows = [["agent", "sigma", "cost_rate", "drawdown"]]
    cache = ProfileCache(args.mode)
    profile = cache.profile(team, costs, config.scope_bounds)
    if args.mode == "eq":
        per_agent = equilibrium_drawdowns(profile, costs).per_agent
    else:
        shared = planner_drawdown(team, (), costs, config.scope_bounds, cache)
        per_agent = {i: shared for i in team}
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
    comments += [f"# warning: {warning}" for warning in profile.warnings]
    _emit(rows, comments, args.out)
    return 0


def _schedule_for_mode(config: ScenarioConfig, mode: str):
    team = range(len(config.agents))
    costs = list(config.agents)
    if mode == "eq":
        plan = equilibrium_exit_schedule(team, costs, config.scope_bounds)
    else:
        plan = optimal_chain(costs, config.scope_bounds)
    return plan, chain_welfare(plan, costs)


def cmd_schedule(config: ScenarioConfig, args: argparse.Namespace) -> int:
    plan, report = _schedule_for_mode(config, args.mode)
    alliances, _, drawdowns = zip(*plan.phases())
    rows = [["wave", "members", "drawdown", "welfare"]]
    for k, (drawdown, exiting) in enumerate(zip(drawdowns, chain_exits(alliances)), start=1):
        welfare = sum(report.per_agent[i] for i in exiting)
        rows.append([str(k), _wave_label(exiting), _fmt(drawdown), _fmt(welfare)])
    comments = [f"# mode: {args.mode}", f"# total_welfare: {_fmt(report.total)}"]
    if args.mode == "sp" and plan.trace:  # greedy picks, kept only for a team in multiplier order
        n = len(config.agents)
        comments.append(
            "# greedy_trace: " + " | ".join(_wave_label(range(j, n)) for j in plan.trace)
        )
    _emit(rows, comments, args.out)
    return 0


def _dump_samples(outcome: SimOutcome, path: str) -> None:
    waves = range(1, outcome.wave_tau.shape[0] + 1)
    header = ["path", *(f"tau_{k}" for k in waves), *(f"M_{k}" for k in waves),
              *(f"payoff_{a + 1}" for a in outcome.agents)]
    columns = [map(str, range(outcome.n_paths))]
    columns += [["" if math.isnan(v) else _fmt(v) for v in row.tolist()]
                for row in (*outcome.wave_tau, *outcome.wave_M)]  # NaN: the wave never fired
    columns += [map(_fmt, row.tolist()) for row in outcome.payoffs]
    _emit([header, *zip(*columns)], [], path)


def cmd_simulate(config: ScenarioConfig, args: argparse.Namespace) -> int:
    sim = config.sim or SimConfig()
    if args.seed is not None:
        sim = replace(sim, seed=args.seed)
    if args.strict:
        sim = replace(sim, strict=True)
    if sim.n_paths < 2:
        raise ValidationError("simulate needs n_paths >= 2 for its standard errors")
    costs = list(config.agents)

    # Each mode gives the analytic payoffs, the outcome and one more check
    # (name, analytic, mc mean, mc se).
    if args.mode == "penalty":
        if config.penalty is None:
            raise ValidationError("simulate --mode penalty needs a 'penalty' section")
        policy = penalty_policy(PenaltyConfig(
            alpha=config.penalty.alpha, costs=tuple(costs), bounds=config.scope_bounds))
        analytic = expected_penalty_payoffs(policy)
        outcome = simulate_phases(policy.phases, sim)
        # A path censored before the first exit has no first-exit maximum.
        first = outcome.wave_M[0][~np.isnan(outcome.wave_M[0])]
        if not first.size:
            raise SimulationError("no path reached the first exit; no continuation to count")
        freq = float((first < policy.threshold).mean())
        freq_se = math.sqrt(max(freq * (1.0 - freq), 1e-12) / first.size)
        extra = ("continuation_frequency", policy.continuation_probability, freq, freq_se)
    else:
        plan, report = _schedule_for_mode(config, args.mode)
        analytic = report.per_agent
        outcome = simulate_schedule(plan, costs, sim)
        extra = ("total_payoff", report.total, *outcome.total_payoff())
    checks = [(f"payoff_{a + 1}", analytic[a], outcome.mean_payoff(a), outcome.payoff_se(a))
              for a in outcome.agents]
    checks.append(extra)

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
    comments += [f"# warning: {warning}" for warning in outcome.warnings]
    _emit(rows, comments, args.out)
    if args.dump_samples:
        _dump_samples(outcome, args.dump_samples)
    return 0


def cmd_scan(config: ScenarioConfig, args: argparse.Namespace) -> int:
    spec = config.scan or ScanSpec()
    rows = [["beta2", "beta3", "equilibrium", "planner"]]
    for b2, b3, waves, exits in scan_cells(config.agents, config.scope_bounds, spec):
        rows.append([_fmt(b2), _fmt(b3), _partition_label(waves), _partition_label(exits)])
    _emit(rows, [], args.out)
    if args.svg:
        _render_scan_svg(rows[1:], spec.steps, args.svg)
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
    _write("\n".join(parts) + "\n", path)


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
    sim_parser.add_argument("--strict", action="store_true",
                            help="escalate censoring and coarse-step warnings to errors")
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first ``main`` call and kept for the
    process: ``parse_args`` leaves the parser as it found it."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = load_scenario(args.config)
        return _COMMANDS[args.command](config, args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TeamSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
