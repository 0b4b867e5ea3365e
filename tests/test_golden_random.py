"""``solve`` and ``schedule`` on seeded random teams of all three cost families.

The shipped scenarios use only ``scaled_exponential`` agents, so their golden
records never run the power or affine families.  Here team ``seed`` (0 to
N_TEAMS - 1) has 1 to 5 agents drawn from a generator seeded by ``seed``:
exponential agents only for an even seed, any of the three families for an
odd one, on the scope bounds BOUNDS[seed % 3].  Every parameter lies inside
its family's rules, so each team is a valid scenario; some fail to solve and
exit 1.  ``tests/golden/random.json`` holds the exit code, stdout and stderr
of each team under each command.  Re-record it, from the tree on the path,
with::

    PYTHONPATH=src python tests/test_golden_random.py

Each run calls ``teamsearch.cli.main`` in this process.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from teamsearch.cli import main

RECORDS = Path(__file__).resolve().parent / "golden" / "random.json"
N_TEAMS = 60
BOUNDS = ((0.1, 10.0), (0.01, 50.0), (0.5, 3.0))
COMMANDS = {
    "solve-eq": ("solve", "--mode", "eq"),
    "solve-sp": ("solve", "--mode", "sp"),
    "schedule-eq": ("schedule", "--mode", "eq"),
    "schedule-sp": ("schedule", "--mode", "sp"),
}


def random_team(seed: int) -> dict:
    """Scenario document of random team ``seed``."""
    rng = np.random.default_rng(seed)
    families = ("exp",) if seed % 2 == 0 else ("exp", "pow", "affine")

    def draw(lo: float, hi: float) -> float:
        return round(float(rng.uniform(lo, hi)), 4)

    agents = []
    for _ in range(int(rng.integers(1, 6))):
        family = families[int(rng.integers(len(families)))]
        beta = round(float(np.exp(rng.uniform(0.0, 3.0))), 4)
        if family == "exp":
            agents.append({"family": "scaled_exponential", "b": draw(0.2, 2.0), "beta": beta})
        elif family == "pow":
            p = float(rng.choice((2.0, 2.5, 3.0, 4.0)))
            agents.append({"family": "scaled_power", "a": draw(0.5, 2.0), "p": p, "beta": beta})
        else:
            agents.append({"family": "affine_quadratic", "a2": draw(0.5, 2.0),
                           "a1": draw(0.0, 1.0), "a0": draw(0.1, 2.0)})
    lo, hi = BOUNDS[seed % len(BOUNDS)]
    return {"agents": agents, "scope_bounds": {"lo": lo, "hi": hi}}


def run_team(seed: int, name: str) -> dict:
    """Exit code, stdout and stderr of command ``name`` on random team ``seed``."""
    command, *rest = COMMANDS[name]
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"team{seed}.json"
        path.write_text(json.dumps(random_team(seed)), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(path), *rest])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


RUNS = [(seed, name) for seed in range(N_TEAMS) for name in COMMANDS]


@pytest.mark.parametrize("seed,name", RUNS, ids=[f"team{s}.{n}" for s, n in RUNS])
def test_random_team_output_is_unchanged(seed, name):
    records = json.loads(RECORDS.read_text(encoding="utf-8"))
    assert run_team(seed, name) == records[f"team{seed}.{name}"]


def record() -> None:
    records = {f"team{seed}.{name}": run_team(seed, name) for seed, name in RUNS}
    RECORDS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
