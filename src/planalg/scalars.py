"""Coefficient arithmetic parameterized by the loop modulus delta.

Three modes: `symbolic` (Laurent polynomial in delta over the rationals),
`rational` (exact value at a fixed rational delta) and `float` (IEEE double
at a fixed real delta).  Arithmetic never mixes modes; the only inverse ever
needed is multiplication by an integer power of delta, which is always
available.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .config import FLOAT_TOL
from .errors import ModeMismatchError, PreconditionError

SYMBOLIC = "symbolic"
RATIONAL = "rational"
FLOAT = "float"


def _exact(c):
    """An exact rational coefficient: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Scalar:
    """Immutable ring element; build via :class:`Ring` or the classmethods."""

    __slots__ = ("mode", "terms", "value", "delta")

    def __init__(self, mode, *, terms=None, value=None, delta=None):
        self.mode = mode
        if mode == SYMBOLIC:
            self.terms = {e: c for e, c in terms.items() if c != 0}
            self.value = None
            self.delta = None
        elif mode == RATIONAL:
            self.terms = None
            self.value = Fraction(value)
            self.delta = Fraction(delta)
        elif mode == FLOAT:
            self.terms = None
            self.value = float(value)
            self.delta = float(delta)
        else:
            raise PreconditionError(f"unknown scalar mode {mode!r}")

    # -- construction -----------------------------------------------------

    @classmethod
    def symbolic(cls, terms):
        """Laurent polynomial from an {exponent: coefficient} map."""
        return cls(SYMBOLIC, terms={int(e): _exact(c) for e, c in terms.items()})

    @classmethod
    def rational(cls, value, delta):
        return cls(RATIONAL, value=value, delta=delta)

    @classmethod
    def float_(cls, value, delta):
        return cls(FLOAT, value=value, delta=delta)

    # -- helpers -----------------------------------------------------------

    def _check_compatible(self, other):
        if self.mode != other.mode:
            raise ModeMismatchError(
                f"cannot mix scalar modes {self.mode} and {other.mode}")
        if self.mode != SYMBOLIC and self.delta != other.delta:
            raise ModeMismatchError(
                f"cannot mix scalars at delta={self.delta} and delta={other.delta}")

    def _like(self, *, terms=None, value=None):
        if self.mode == SYMBOLIC:
            return Scalar(SYMBOLIC, terms=terms)
        return Scalar(self.mode, value=value, delta=self.delta)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        if self.mode == SYMBOLIC:
            terms = dict(self.terms)
            for e, c in other.terms.items():
                terms[e] = terms.get(e, 0) + c
            return self._like(terms=terms)
        return self._like(value=self.value + other.value)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        if self.mode == SYMBOLIC:
            return self._like(terms={e: -c for e, c in self.terms.items()})
        return self._like(value=-self.value)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._scalar_from_const(other)
        self._check_compatible(other)
        if self.mode == SYMBOLIC:
            terms = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = e1 + e2
                    terms[e] = terms.get(e, 0) + c1 * c2
            return self._like(terms=terms)
        return self._like(value=self.value * other.value)

    __rmul__ = __mul__

    def _scalar_from_const(self, c):
        if self.mode == SYMBOLIC:
            return Scalar.symbolic({0: c})
        if self.mode == RATIONAL:
            return Scalar.rational(Fraction(c), self.delta)
        return Scalar.float_(float(c), self.delta)

    def delta_pow(self, m: int):
        """Multiply by delta**m (the only division this ring ever needs)."""
        if m == 0:
            return self         # scalars are immutable
        if self.mode == SYMBOLIC:
            return self._like(terms={e + m: c for e, c in self.terms.items()})
        return self._like(value=self.value * self.delta ** m)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        if self.mode == SYMBOLIC:
            return not self.terms
        if self.mode == FLOAT:
            return abs(self.value) <= FLOAT_TOL
        return self.value == 0

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check_compatible(other)
        if self.mode == SYMBOLIC:
            return self.terms == other.terms
        if self.mode == FLOAT:
            return abs(self.value - other.value) <= FLOAT_TOL
        return self.value == other.value

    __hash__ = None  # tolerance-based equality in float mode

    # -- conversion -------------------------------------------------------------

    def to_float(self) -> float:
        if self.mode == SYMBOLIC:
            raise ModeMismatchError("symbolic scalar has no numeric value")
        return float(self.value)

    # -- serialization ----------------------------------------------------------

    def to_json(self):
        if self.mode == SYMBOLIC:
            return {"mode": SYMBOLIC,
                    "terms": [[e, str(self.terms[e])] for e in sorted(self.terms)]}
        if self.mode == RATIONAL:
            return {"mode": RATIONAL, "value": str(self.value), "delta": str(self.delta)}
        return {"mode": FLOAT, "value": self.value, "delta": self.delta}

    @classmethod
    def from_json(cls, data):
        mode = data["mode"]
        if mode == SYMBOLIC:
            return cls.symbolic({int(e): c for e, c in data["terms"]})
        if mode == RATIONAL:
            return cls.rational(Fraction(data["value"]), Fraction(data["delta"]))
        if mode == FLOAT:
            scalar = cls.float_(data["value"], data["delta"])
            if not (math.isfinite(scalar.value) and math.isfinite(scalar.delta)):
                raise ValueError("float value and delta must be finite")
            return scalar
        raise PreconditionError(f"unknown scalar mode {mode!r}")

    def __repr__(self):
        if self.mode == SYMBOLIC:
            if not self.terms:
                return "0"
            bits = []
            for e in sorted(self.terms, reverse=True):
                c = self.terms[e]
                if e == 0:
                    bits.append(f"{c}")
                elif e == 1:
                    bits.append(f"{c}*d" if c != 1 else "d")
                else:
                    bits.append(f"{c}*d^{e}" if c != 1 else f"d^{e}")
            return " + ".join(bits)
        return f"{self.value}"


class Ring:
    """Factory for scalars of one fixed mode (and delta, if numeric)."""

    def __init__(self, mode, delta=None):
        self.mode = mode
        if mode == SYMBOLIC:
            self.delta = None
        else:
            if delta is None:
                raise PreconditionError(f"{mode} mode requires a fixed delta")
            if delta == 0:
                raise PreconditionError("delta must be nonzero")
            self.delta = Fraction(delta) if mode == RATIONAL else float(delta)

    @classmethod
    def symbolic(cls):
        return cls(SYMBOLIC)

    @classmethod
    def rational(cls, delta):
        return cls(RATIONAL, delta)

    @classmethod
    def float_(cls, delta):
        return cls(FLOAT, delta)

    def zero(self) -> Scalar:
        return self.integer(0)

    def one(self) -> Scalar:
        return self.integer(1)

    def integer(self, c) -> Scalar:
        return self.fraction(c)

    def fraction(self, c) -> Scalar:
        if self.mode == SYMBOLIC:
            return Scalar.symbolic({0: c})
        if self.mode == RATIONAL:
            return Scalar.rational(Fraction(c), self.delta)
        return Scalar.float_(float(c), self.delta)

    def delta_power(self, m: int) -> Scalar:
        return self.one().delta_pow(m)

    def matches(self, s: Scalar) -> bool:
        return s.mode == self.mode and (self.mode == SYMBOLIC or s.delta == self.delta)

    def __eq__(self, other):
        return (isinstance(other, Ring)
                and self.mode == other.mode and self.delta == other.delta)

    def __hash__(self):
        return hash((self.mode, self.delta))

    def __repr__(self):
        if self.mode == SYMBOLIC:
            return "Ring(symbolic)"
        return f"Ring({self.mode}, delta={self.delta})"
