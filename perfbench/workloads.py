"""Seeded scenario generators and per-op output checks for the benchmark workloads.

A workload turns the run seed into an endless, deterministic sequence of
ops.  Op ``i`` depends only on (seed, i), so the ops written during set-up
and any generated later in the run are the same for a given seed.  Ops come
in fixed blocks (one op of each size or mode), and a run always measures
whole blocks, so every seed measures the same mix of op sizes.

``check`` returns None for a correct output and an error message otherwise.
It never runs inside the timed op.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FMT = "%.10g"
BOUNDS = {"lo": 0.1, "hi": 10.0}
REL_TOL = 1e-9


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple[str, ...]  # cli argv without --out
    scenario: dict
    work: int  # labelled cells, simulated paths or enumerated chains
    expect: object = None


def _exp_agent(beta: float = 1.0) -> dict:
    return {"family": "scaled_exponential", "b": 1.0, "beta": beta}


class Workload:
    name = ""
    block: tuple = ()

    def __init__(self, seed: int, scenario_dir: Path):
        self.seed = seed
        self.dir = scenario_dir

    def rng(self, *key: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, WORKLOADS_ORDER.index(self.name), *key])

    def make(self, i: int) -> Op:
        raise NotImplementedError

    def write(self, i: int) -> tuple[Op, Path]:
        """Generate op i and write its scenario file; returns (op, scenario path)."""
        op = self.make(i)
        path = self.dir / f"op{i}.json"
        path.write_text(json.dumps(op.scenario), encoding="utf-8")
        return op, path

    def argv(self, op: Op, path: Path, out: Path) -> list[str]:
        return [op.argv[0], str(path), *op.argv[1:], "--out", str(out)]

    def check(self, op: Op, text: str) -> str | None:
        raise NotImplementedError


# --- scan -----------------------------------------------------------------

CUT2 = math.exp(1.0 / 3.0)  # agent-2 pull-in boundary
CUT3 = math.exp(4.0 / 3.0)  # agent-3 pull-in boundary after {1,2}


def scan_label(b2: float, b3: float) -> str:
    """Closed-form equilibrium exit partition for the b = 1 template (criterion 09)."""
    if b2 <= CUT2:
        return "{1,2,3}" if b3 <= CUT3 else "{1,2}{3}"
    return "{1}{2,3}" if b3 <= math.e * b2 else "{1}{2}{3}"


def scan_grid(lo: float, hi: float, steps: int) -> np.ndarray:
    idx = np.arange(1, steps + 1, dtype=float)
    return lo + idx * (hi - lo) / steps


class Scan(Workload):
    name = "scan"
    # Grid steps per op; op time grows with the labelled cells.  With three
    # sizes the median falls among the 7-step ops and a block's slowest op
    # is its 8-step op, whatever the number of blocks in a run.
    block = (6, 7, 8)

    def make(self, i: int) -> Op:
        order = self.rng(0, i // len(self.block)).permutation(len(self.block))
        steps = self.block[order[i % len(self.block)]]
        rng = self.rng(1, i)
        # b and the bounds stay fixed so the closed-form map applies; the
        # ranges straddle beta2 = 1, e^{1/3}, e^{4/3} and beta3 = e * beta2.
        lo2 = float(rng.uniform(0.4, 0.8))
        hi2 = lo2 + float(rng.uniform(1.6, 2.2))
        lo3 = float(rng.uniform(1.0, 2.0))
        hi3 = float(rng.uniform(5.5, 7.5))
        b2s, b3s = scan_grid(lo2, hi2, steps), scan_grid(lo3, hi3, steps)
        labelled = int(sum(1 for b3 in b3s for b2 in b2s if b3 > b2 > 1.0))
        scenario = {
            "agents": [_exp_agent(), _exp_agent(), _exp_agent()],
            "scope_bounds": BOUNDS,
            "scan": {"beta2_range": [lo2, hi2], "beta3_range": [lo3, hi3], "steps": steps},
        }
        return Op(f"scan{steps}", ("scan",), scenario, labelled,
                  expect=(b2s.tolist(), b3s.tolist()))

    def check(self, op: Op, text: str) -> str | None:
        rows = list(csv.reader(io.StringIO(text)))
        b2s, b3s = op.expect
        if not rows or rows[0] != ["beta2", "beta3", "equilibrium", "planner"]:
            return "scan: bad header"
        if len(rows) != len(b2s) * len(b3s) + 1:
            return f"scan: {len(rows) - 1} cells, expected {len(b2s) * len(b3s)}"
        cells = iter(rows[1:])
        for b3 in b3s:
            for b2 in b2s:
                row = next(cells)
                if len(row) != 4 or row[0] != FMT % b2 or row[1] != FMT % b3:
                    return f"scan: unexpected cell row {row}"
                if b3 > b2 > 1.0:
                    if row[2] != scan_label(b2, b3):
                        return (f"scan: ({b2}, {b3}) labelled {row[2]}, "
                                f"closed form {scan_label(b2, b3)}")
                elif row[2] or row[3]:
                    return f"scan: ({b2}, {b3}) outside beta3 > beta2 > 1 is labelled"
        return None


# --- mc -------------------------------------------------------------------

MC_PATHS = 1000
# Scenario seeds.  Block k uses MC_SEEDS[(seed + k) % 2], so every run
# covers both and repeats each.  A 3-SE gate fails at a correct engine with
# some probability per seed, and the longest path, which sets much of an eq
# op's time, varies from seed to seed.  A fixed set of seeds keeps the gates
# that a changed engine is judged by fixed, as the test suite's statistical
# tests are, and keeps the runs of different workload seeds alike.
MC_SEEDS = (0, 1)


class MonteCarlo(Workload):
    name = "mc"
    block = ("eq", "sp", "penalty")

    def make(self, i: int) -> Op:
        mode = self.block[i % len(self.block)]
        sim_seed = MC_SEEDS[(self.seed + i // len(self.block)) % len(MC_SEEDS)]
        sim = {"dt": 2e-4, "n_paths": MC_PATHS, "seed": sim_seed, "bridge_correction": True}
        if mode == "penalty":
            # the pair of scenarios/penalty.json
            scenario = {"agents": [_exp_agent(), _exp_agent(20.0)], "scope_bounds": BOUNDS,
                        "penalty": {"alpha": 0.5}, "sim": dict(sim, dt=5e-4)}
        else:
            # the two-wave team of scenarios/two_waves.json
            scenario = {"agents": [_exp_agent(), _exp_agent(1.2), _exp_agent(8.0)],
                        "scope_bounds": BOUNDS, "sim": sim}
        return Op(mode, ("simulate", "--mode", mode), scenario, MC_PATHS)

    def check(self, op: Op, text: str) -> str | None:
        lines = text.splitlines()
        if not lines or lines[0] != "quantity,analytic,mc_mean,mc_se,z,status":
            return "mc: bad header"
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        if not rows:
            return "mc: no rows"
        for row in rows:
            if row[-1] != "PASS":
                return f"mc {op.kind}: row {row[0]} is {row[-1]} (z = {row[4]})"
        for line in lines:
            if line.startswith("# warning:"):
                return f"mc {op.kind}: {line}"
        if f"# n_paths: {op.work}" not in lines:
            return f"mc {op.kind}: n_paths line missing"
        return None


# --- oracle ---------------------------------------------------------------


def nested_chains(n: int) -> int:
    """Nested alliance chains from an n-agent team: a(n) = 1 + sum_r C(n, r) a(r)."""
    counts = [0, 1]
    for m in range(2, n + 1):
        counts.append(1 + sum(math.comb(m, r) * counts[r] for r in range(1, m)))
    return counts[n]


class Oracle(Workload):
    name = "oracle"
    # Team sizes per op.  A 6-agent op costs about ten 5-agent ops; with one
    # in four ops at 6 agents, the median falls among the 5-agent ops and a
    # block's slowest op is its 6-agent op, whatever the number of blocks.
    block = (6, 5, 5, 5)

    def make(self, i: int) -> Op:
        n = self.block[i % len(self.block)]
        rng = self.rng(0, i)
        log_beta = rng.uniform(0.0, 6.0, n)
        while np.all(np.diff(log_beta) >= 0.0):  # sorted teams take the greedy path
            log_beta = rng.permutation(log_beta)
        betas = [float(v) for v in np.exp(log_beta)]
        scenario = {"agents": [_exp_agent(b) for b in betas], "scope_bounds": BOUNDS}
        return Op(f"oracle{n}", ("schedule", "--mode", "sp"), scenario, nested_chains(n),
                  expect=betas)

    def check(self, op: Op, text: str) -> str | None:
        from teamsearch.costs import ScaledExponential, ScopeBounds
        from teamsearch.planner import greedy_wellordered_chain
        from teamsearch.welfare import chain_welfare

        lines = text.splitlines()
        if not lines or lines[0] != "wave,members,drawdown,welfare":
            return "oracle: bad header"
        drawdowns = [float(row[2]) for row in csv.reader(
            line for line in lines[1:] if not line.startswith("#"))]
        if not drawdowns or any(b <= a for a, b in zip(drawdowns, drawdowns[1:])):
            return f"oracle: drawdowns {drawdowns} do not strictly increase"
        totals = [line for line in lines if line.startswith("# total_welfare: ")]
        if len(totals) != 1:
            return "oracle: total_welfare line missing"
        total = float(totals[0].split(": ", 1)[1])
        costs = [ScaledExponential(b=1.0, beta=b) for b in sorted(op.expect)]
        bounds = ScopeBounds(BOUNDS["lo"], BOUNDS["hi"])
        ref = chain_welfare(greedy_wellordered_chain(costs, bounds), costs).total
        if abs(total - ref) > REL_TOL * abs(ref):
            return f"oracle: total welfare {total!r} differs from sorted greedy {ref!r}"
        return None


WORKLOADS = {w.name: w for w in (Scan, MonteCarlo, Oracle)}
WORKLOADS_ORDER = list(WORKLOADS)
