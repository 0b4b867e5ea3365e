"""``simulate`` on the benchmark's ``mc`` ops at their real size, byte for byte.

The ops are the ``mc`` workload's: the two-wave team of
``scenarios/two_waves.json`` in modes eq and sp at dt 2e-4, and the pair of
``scenarios/penalty.json`` in mode penalty at dt 5e-4, each with N_PATHS
paths, the bridge correction on, and scenario seeds 0 and 1.  At that size a
run has over a million expected path-steps, so on a host with more than one
usable CPU it steps its path blocks on the worker pool.
``tests/golden/mc.json`` holds each run's exit code, stdout and stderr and
the sha256 of its ``--dump-samples`` file.  Re-record it, from the tree on
the path, with::

    PYTHONPATH=src python tests/test_golden_mc.py

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

RECORDS = Path(__file__).resolve().parent / "golden" / "mc.json"
N_PATHS = 1000
BOUNDS = {"lo": 0.1, "hi": 10.0}
SEEDS = (0, 1)
MODES = ("eq", "sp", "penalty")
RUNS = [(mode, seed) for seed in SEEDS for mode in MODES]


def _agents(*betas: float) -> list[dict]:
    return [{"family": "scaled_exponential", "b": 1.0, "beta": beta} for beta in betas]


def scenario(mode: str, seed: int) -> dict:
    sim = {"dt": 2e-4, "n_paths": N_PATHS, "seed": seed, "bridge_correction": True}
    if mode == "penalty":
        return {"agents": _agents(1.0, 20.0), "scope_bounds": BOUNDS,
                "penalty": {"alpha": 0.5}, "sim": dict(sim, dt=5e-4)}
    return {"agents": _agents(1.0, 1.2, 8.0), "scope_bounds": BOUNDS, "sim": sim}


def run_simulate(mode: str, seed: int) -> dict:
    """Exit code, stdout, stderr and samples sha256 of one ``mc`` op."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path, dump = Path(tmp) / "op.json", Path(tmp) / "samples.csv"
        path.write_text(json.dumps(scenario(mode, seed)), encoding="utf-8")
        argv = ["simulate", str(path), "--mode", mode, "--dump-samples", str(dump)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                "samples_sha256": hashlib.sha256(dump.read_bytes()).hexdigest()}


@pytest.mark.parametrize("mode,seed", RUNS, ids=[f"{m}.{s}" for m, s in RUNS])
def test_mc_op_output_is_unchanged(mode, seed):
    records = json.loads(RECORDS.read_text(encoding="utf-8"))
    assert run_simulate(mode, seed) == records[f"{mode}.{seed}"]


def record() -> None:
    records = {f"{mode}.{seed}": run_simulate(mode, seed) for mode, seed in RUNS}
    RECORDS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
