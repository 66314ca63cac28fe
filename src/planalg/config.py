"""Global knobs and the CLI configuration record."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError, PreconditionError

# Colour cap bounds enumeration memory: Catalan(10) = 16796 diagrams.
COLOUR_CAP = 10

# Tolerance for all float-mode comparisons and PSD eigenvalue cutoffs.
FLOAT_TOL = 1e-9

DEFAULT_SEED = 42

POSITIVITY_SUITES = frozenset({"positivity", "estimates"})


def set_colour_cap(cap: int) -> None:
    global COLOUR_CAP
    if cap < 0:
        raise PreconditionError("colour cap must be non-negative")
    COLOUR_CAP = cap


@dataclass
class Config:
    """Run configuration for the `pa` command line tool."""

    delta: str = "sym"          # "sym", a rational "p/q", or a float literal
    level: int = 2              # max level k exercised by suites
    max_colour: int | None = None   # defaults to level + 3
    seed: int = DEFAULT_SEED
    suites: tuple[str, ...] = ()
    trials: int = 20

    def resolved_max_colour(self) -> int:
        return self.max_colour if self.max_colour is not None else self.level + 3

    def delta_value(self):
        """Parsed delta: None for symbolic, Fraction or float otherwise."""
        if self.delta in ("sym", "symbolic"):
            return None
        try:
            if "/" in self.delta or "." not in self.delta:
                return Fraction(self.delta)
            value = float(self.delta)
            if not math.isfinite(value):        # 1.0e400 reads as inf
                raise ValueError(value)
            return value
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad delta {self.delta!r}: expected sym, p/q or "
                             "a decimal") from None

    def validate(self) -> None:
        value = self.delta_value()
        if self.level < 0:
            raise PreconditionError("level must be non-negative")
        if self.trials < 1:
            raise PreconditionError(f"trials must be at least 1, got {self.trials}")
        if self.resolved_max_colour() < 0:
            raise PreconditionError("max colour must be non-negative")
        if self.resolved_max_colour() > COLOUR_CAP:
            raise PreconditionError(
                f"max colour {self.resolved_max_colour()} exceeds cap {COLOUR_CAP}")
        # these suites draw colours level..max colour: none would be a vacuous pass
        levels = [max(1, self.level) if s == "jones" else self.level
                  for s in self.suites if s in ("filtalg", "gjs-iso", "jones")]
        if levels and self.resolved_max_colour() < max(levels):
            raise PreconditionError(f"max colour {self.resolved_max_colour()} is "
                                    f"below the level {max(levels)} a suite runs")
        if any(s in POSITIVITY_SUITES for s in self.suites):
            if value is not None and value < 2:
                raise PreconditionError(
                    "positivity suites require delta >= 2 in rational/float mode")
