"""``schedule --mode sp`` on the benchmark's ``oracle`` kind of team, byte for byte.

Team ``seed`` (0 to 11) has SIZES[seed] ``scaled_exponential`` agents with
b = 1 and log beta drawn uniform on [0, 6] from a generator seeded by
``seed``, permuted until unsorted, on the scope bounds [0.1, 10].  An
unsorted team takes the planner's DP chain search, which solves every one of
its 2**n - 1 alliances; no other golden record pins that path on 6 agents.
``tests/golden/oracle.json`` holds each team's exit code, stdout and stderr.
Re-record it, from the tree on the path, with::

    PYTHONPATH=src python tests/test_golden_oracle.py

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

RECORDS = Path(__file__).resolve().parent / "golden" / "oracle.json"
SIZES = (5,) * 8 + (6,) * 4
BOUNDS = {"lo": 0.1, "hi": 10.0}


def oracle_team(seed: int) -> dict:
    """Scenario document of team ``seed``: SIZES[seed] agents, unsorted by beta."""
    rng = np.random.default_rng(seed)
    log_beta = rng.uniform(0.0, 6.0, SIZES[seed])
    while np.all(np.diff(log_beta) >= 0.0):  # a sorted team takes the greedy chain
        log_beta = rng.permutation(log_beta)
    agents = [{"family": "scaled_exponential", "b": 1.0, "beta": float(np.exp(v))}
              for v in log_beta]
    return {"agents": agents, "scope_bounds": BOUNDS}


def run_team(seed: int) -> dict:
    """Exit code, stdout and stderr of ``schedule --mode sp`` on team ``seed``."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"oracle{seed}.json"
        path.write_text(json.dumps(oracle_team(seed)), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["schedule", str(path), "--mode", "sp"])
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("seed", range(len(SIZES)))
def test_oracle_schedule_is_unchanged(seed):
    records = json.loads(RECORDS.read_text(encoding="utf-8"))
    assert run_team(seed) == records[str(seed)]


def record() -> None:
    records = {str(seed): run_team(seed) for seed in range(len(SIZES))}
    RECORDS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
