"""The CLI's outputs on the shipped scenarios, byte for byte against recorded ones.

``tests/golden/`` holds, for each shipped scenario, the stdout of ``validate``,
``solve`` and ``schedule`` (both modes) in ``<scenario>.<command>.txt``, and
``runs.json`` with each run's exit code and stderr and the sha256 of the CSV
of a 24-step ``scan`` of ``scenarios/scan.json``.  The sha256 of that scan's
``--svg`` drawing is SCAN_SVG_SHA256 below, and that of the CSV of the
shipped 96-step scan is FULL_SCAN_SHA256.  Re-record the files, from the
tree on the path, with::

    PYTHONPATH=src python tests/test_golden_outputs.py

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
GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = {
    "validate": ("validate",),
    "solve-eq": ("solve", "--mode", "eq"),
    "solve-sp": ("solve", "--mode", "sp"),
    "schedule-eq": ("schedule", "--mode", "eq"),
    "schedule-sp": ("schedule", "--mode", "sp"),
}
SCAN_STEPS = 24
SCAN_SVG_SHA256 = "8f7a6fc2d2569240a46613dbfe443d72823536627555b8872aabab7e89ed6ce8"
FULL_SCAN_SHA256 = "de03c09b34270224d0b7292b67c883406193e840d1150f681bdc68ecfc71d055"
RUNS = [(path.stem, name) for path in sorted(SCENARIOS.glob("*.json")) for name in COMMANDS]


def run(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``teamsearch`` with ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_scenario(scenario: str, name: str) -> tuple[int, str, str]:
    command, *rest = COMMANDS[name]
    return run([command, str(SCENARIOS / f"{scenario}.json"), *rest])


def scan_digests() -> tuple[str, str]:
    """sha256 of the CSV and of the SVG of ``scenarios/scan.json`` at SCAN_STEPS steps."""
    doc = json.loads((SCENARIOS / "scan.json").read_text(encoding="utf-8"))
    doc["scan"]["steps"] = SCAN_STEPS
    with tempfile.TemporaryDirectory() as tmp:
        path, svg = Path(tmp) / "scan.json", Path(tmp) / "scan.svg"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(["scan", str(path), "--svg", str(svg)])
        drawing = svg.read_bytes()
    assert (code, err) == (0, "")
    return hashlib.sha256(out.encode("utf-8")).hexdigest(), hashlib.sha256(drawing).hexdigest()


def load_runs() -> dict:
    return json.loads((GOLDEN / "runs.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("scenario,name", RUNS, ids=[f"{s}.{n}" for s, n in RUNS])
def test_shipped_scenario_output_is_unchanged(scenario, name):
    code, out, err = run_scenario(scenario, name)
    assert out == (GOLDEN / f"{scenario}.{name}.txt").read_text(encoding="utf-8")
    assert {"exit": code, "stderr": err} == load_runs()["runs"][f"{scenario}.{name}"]


def test_scan_csv_is_unchanged():
    assert scan_digests()[0] == load_runs()["scan_sha256"]


def test_scan_svg_is_unchanged():
    assert scan_digests()[1] == SCAN_SVG_SHA256


def test_full_scan_csv_is_unchanged():
    # scenarios/scan.json as shipped: 96 steps, 9,216 cells.
    code, out, err = run(["scan", str(SCENARIOS / "scan.json")])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FULL_SCAN_SHA256


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    runs = {}
    for scenario, name in RUNS:
        code, out, err = run_scenario(scenario, name)
        (GOLDEN / f"{scenario}.{name}.txt").write_text(out, encoding="utf-8")
        runs[f"{scenario}.{name}"] = {"exit": code, "stderr": err}
    doc = {"scan_steps": SCAN_STEPS, "scan_sha256": scan_digests()[0], "runs": runs}
    (GOLDEN / "runs.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
