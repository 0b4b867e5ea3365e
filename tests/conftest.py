"""Test-session setup shared by every test module."""

from __future__ import annotations

import os


def pytest_configure(config):
    # `pythonpath = ["src"]` in pyproject.toml lets this process import the
    # package; the CLI tests start `python -m teamsearch` subprocesses, which
    # need the source tree on their own path when the package is not installed.
    src = str(config.rootpath / "src")
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    os.environ["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    # A numpy RuntimeWarning in a CLI subprocess fails its test, as one in this
    # process does under pyproject's `filterwarnings`; a filter already set in
    # PYTHONWARNINGS is kept.
    warnings = [*filter(None, os.environ.get("PYTHONWARNINGS", "").split(",")),
                "error::RuntimeWarning"]
    os.environ["PYTHONWARNINGS"] = ",".join(dict.fromkeys(warnings))
