"""``cli.main`` called more than once in one process, with one parser."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import teamsearch.cli as cli


def _scenario(tmp_path: Path, name: str, **sections) -> str:
    doc = {"agents": [{"family": "scaled_exponential", "b": 1.0, "beta": 1.0}],
           "scope_bounds": {"lo": 0.1, "hi": 10.0}, **sections}
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_main_builds_its_parser_once_and_keeps_no_option_between_calls(monkeypatch, tmp_path):
    built = [0]
    real = cli.build_parser

    def counting():
        built[0] += 1
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    path = _scenario(tmp_path, "sim.json",
                     sim={"dt": 1e-3, "n_paths": 50, "seed": 3, "bridge_correction": True})
    outs = {name: tmp_path / f"{name}.csv" for name in ("five", "plain", "three")}
    assert cli.main(["simulate", path, "--seed", "5", "--out", str(outs["five"])]) == 0
    assert cli.main(["simulate", path, "--out", str(outs["plain"])]) == 0
    assert built[0] == 1
    assert cli.main(["simulate", path, "--seed", "3", "--out", str(outs["three"])]) == 0
    text = {name: out.read_text(encoding="utf-8") for name, out in outs.items()}
    assert text["plain"] == text["three"] != text["five"]  # the scenario's seed, 3


def test_scan_svg_option_does_not_outlive_its_call(tmp_path):
    agents = [{"family": "scaled_exponential", "b": 1.0}] * 3
    path = tmp_path / "scan.json"
    path.write_text(json.dumps({"agents": agents, "scope_bounds": {"lo": 0.1, "hi": 10.0},
                                "scan": {"steps": 4}}), encoding="utf-8")
    svg = tmp_path / "grid.svg"
    assert cli.main(["scan", str(path), "--svg", str(svg), "--out", str(tmp_path / "a.csv")]) == 0
    assert svg.exists()
    svg.unlink()
    assert cli.main(["scan", str(path), "--out", str(tmp_path / "b.csv")]) == 0
    assert not svg.exists()


def test_import_builds_no_parser():
    code = ("import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import teamsearch.cli\n"
            "print(len(built))\n")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "0"
