"""``simulate`` on the shipped scenarios, byte for byte against recorded runs.

Each shipped scenario is run in modes eq, sp and penalty from a temporary
copy whose ``sim.n_paths`` is N_PATHS (a ``sim`` section is added where there
is none), with ``--seed`` SEED.  ``tests/golden/simulate.json`` holds each
run's exit code, stdout and stderr (a scenario without a ``penalty`` section
records its exit-2 text), and the sha256 of the ``--dump-samples`` file of
the DUMP run.  Re-record it, from the tree on the path, with::

    PYTHONPATH=src python tests/test_golden_simulate.py

Each run calls ``teamsearch.cli.main`` in this process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from teamsearch.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
RECORDS = Path(__file__).resolve().parent / "golden" / "simulate.json"
MODES = ("eq", "sp", "penalty")
N_PATHS = 300
SEED = 3
DUMP = ("two_waves", "eq")
RUNS = [(path.stem, mode) for path in sorted(SCENARIOS.glob("*.json")) for mode in MODES]


def run_simulate(scenario: str, mode: str) -> dict:
    """Exit code, stdout and stderr of ``simulate`` on the reduced copy of
    ``scenario``, and for the DUMP run the sha256 of its samples file."""
    doc = json.loads((SCENARIOS / f"{scenario}.json").read_text(encoding="utf-8"))
    doc["sim"] = {**doc.get("sim", {}), "n_paths": N_PATHS}
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path, dump = Path(tmp) / f"{scenario}.json", Path(tmp) / "samples.csv"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["simulate", str(path), "--mode", mode, "--seed", str(SEED)]
        if (scenario, mode) == DUMP:
            argv += ["--dump-samples", str(dump)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        record = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        if (scenario, mode) == DUMP:
            record["samples_sha256"] = hashlib.sha256(dump.read_bytes()).hexdigest()
    return record


@pytest.mark.parametrize("scenario,mode", RUNS, ids=[f"{s}.{m}" for s, m in RUNS])
def test_simulate_output_is_unchanged(scenario, mode):
    records = json.loads(RECORDS.read_text(encoding="utf-8"))
    assert run_simulate(scenario, mode) == records[f"{scenario}.{mode}"]


def record() -> None:
    records = {f"{scenario}.{mode}": run_simulate(scenario, mode) for scenario, mode in RUNS}
    RECORDS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
