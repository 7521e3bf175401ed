"""Runtime configuration: working precision, tolerances, descent depth."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Config:
    """Knobs shared by the solvers and the critical-value descent.

    precision  -- significant digits (and two guard digits) of the
                  decimal.Decimal context in which a sign that floats
                  cannot prove is taken (a 30-digit decimal sign by
                  default) and a bracket is refined below the float
                  floor 1e-13, where its ends are Decimal (>= 15)
    tol        -- default bracket width for root solvers (> 0, finite)
    max_depth  -- default directive-tree descent depth (>= 1)
    """

    precision: int = 30
    tol: float = 1e-12
    max_depth: int = 48

    def __post_init__(self):
        if self.precision < 15:
            raise ValueError("precision must be at least 15 decimal digits")
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be finite and positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


DEFAULT = Config()
