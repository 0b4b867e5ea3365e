"""The exit-pattern scan: equilibrium waves and planner exits over a (beta2, beta3) grid.

The template is three ``scaled_exponential`` agents of one rate b and beta 1;
cell (beta2, beta3) gives agents 2 and 3 those multipliers, and is solved
when beta3 > beta2 > 1.  Multipliers leave the reply pattern as it is, so one
``exit_schedules`` memo serves every cascade with 3 solves; planner profiles
depend on every multiplier, so a beta3 row's chains share one memo.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass, replace
from itertools import tee
from typing import Iterator, Sequence

import numpy as np

from .costs import CostSpec, ScaledExponential, ScopeBounds, finite
from .equilibrium import exit_schedules
from .errors import ValidationError
from .planner import optimal_chains
from .welfare import chain_exits

# Largest scan grid, in cells (steps**2), a scenario may ask for; like
# simulate.MAX_STEPS it is checked before any work.  The shipped scan has 96**2.
MAX_SCAN_CELLS = 10**6


@dataclass(frozen=True)
class ScanSpec:
    beta2_range: tuple[float, float] = (0.0, 24.0)
    beta3_range: tuple[float, float] = (0.0, 24.0)
    steps: int = 96

    def __post_init__(self) -> None:
        for lo, hi in (self.beta2_range, self.beta3_range):
            if not (finite(lo) and finite(hi) and 0.0 <= lo < hi):
                raise ValueError("beta ranges must be finite with 0 <= lo < hi")
        if self.steps < 1:
            raise ValueError("steps must be a positive integer")
        if self.steps**2 > MAX_SCAN_CELLS:
            # A number is echoed only when short enough to format at all: ints
            # of over 4,300 digits are refused by Python's str().
            cells = (reprlib.repr(self.steps**2) if self.steps <= MAX_SCAN_CELLS
                     else f"more than {MAX_SCAN_CELLS}**2")
            try:
                steps = f"steps={reprlib.repr(self.steps)}"
            except ValueError:
                steps = f"steps=<an int of {self.steps.bit_length()} bits>"
            raise ValueError(f"{steps} gives {cells} cells, over the budget of {MAX_SCAN_CELLS}")
        for lo, hi in (self.beta2_range, self.beta3_range):
            if not finite(self.steps * (hi - lo)):  # a grid value's numerator
                raise ValueError(f"steps * (hi - lo) overflows for the beta range "
                                 f"[{reprlib.repr(lo)}, {reprlib.repr(hi)}]")


def check_template(agents: Sequence[CostSpec]) -> None:
    if len(agents) != 3 or not all(isinstance(a, ScaledExponential) for a in agents):
        raise ValidationError("scan requires exactly 3 scaled_exponential agents")
    if len({a.b for a in agents}) != 1:
        raise ValidationError("scan agents must share the exponential rate b")
    if any(a.beta != 1.0 for a in agents):
        raise ValidationError("scan template agents must all have beta = 1.0")


def _row(unit: ScaledExponential, beta2s: np.ndarray, b3: float) -> dict:
    """The solved cells (beta2 > 1, beta3 > beta2) of one beta3 row, by beta2."""
    third = replace(unit, beta=b3)
    return {b2: [unit, replace(unit, beta=b2), third] for b2 in beta2s if b3 > b2 > 1.0}


def scan_cells(agents: Sequence[CostSpec], bounds: ScopeBounds, spec: ScanSpec) -> Iterator:
    """(beta2, beta3, equilibrium waves, planner exits) per cell, beta2 fastest; [] if unsolved."""
    check_template(agents)
    beta2s, beta3s = (lo + np.arange(1, spec.steps + 1, dtype=float) * (hi - lo) / spec.steps
                      for lo, hi in (spec.beta2_range, spec.beta3_range))
    # A schedule is made when asked for, so a row's chains are solved before its
    # cascades.  The template's agents have beta = 1, and a row's cells share
    # its beta3 spec.
    rows, later = tee(_row(agents[0], beta2s, b3) for b3 in beta3s)
    schedules = exit_schedules(((range(3), c) for row in later for c in row.values()), bounds)
    for b3, cells in zip(beta3s, rows):
        chains = dict(zip(cells, optimal_chains(list(cells.values()), bounds)))
        for b2 in beta2s:
            waves = [w.exiting for w in next(schedules).waves] if b2 in cells else []
            yield b2, b3, waves, chain_exits(chains[b2].alliances) if b2 in cells else []
