"""Coefficient arithmetic parameterized by the loop modulus delta.

One class per mode: `Laurent` (Laurent polynomial in delta over the
rationals), `Rational` (exact value at a fixed rational delta) and `Float`
(IEEE double at a fixed real delta).  Arithmetic never mixes modes.  Only
the entry points (`Scalar.symbolic`/`rational`/`float_`/`from_json`, `Ring`)
normalise outside input; the classes store what they are given.  The only
inverse ever needed is multiplication by an integer power of delta.
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
    """Immutable ring element; build via :class:`Ring` or the entry points.
    `+`, `-`, `*` and `==` check the operands' class and delta here, once,
    then call the mode's `_add`/`_mul`/`_eq`."""

    __slots__ = ()

    # -- construction -----------------------------------------------------

    @staticmethod
    def symbolic(terms):
        """Laurent polynomial from an {exponent: coefficient} map."""
        terms = {int(e): _exact(c) for e, c in terms.items()}
        return Laurent({e: c for e, c in terms.items() if c != 0})

    @staticmethod
    def rational(value, delta):
        return Rational(Fraction(value), Fraction(delta))

    @staticmethod
    def float_(value, delta):
        return Float(float(value), float(delta))

    @classmethod
    def from_json(cls, data):
        mode = data["mode"]
        if mode == SYMBOLIC:
            return cls.symbolic({int(e): c for e, c in data["terms"]})
        if mode == RATIONAL:
            return cls.rational(data["value"], data["delta"])
        if mode == FLOAT:
            scalar = cls.float_(data["value"], data["delta"])
            if not (math.isfinite(scalar.value) and math.isfinite(scalar.delta)):
                raise ValueError("float value and delta must be finite")
            return scalar
        raise PreconditionError(f"unknown scalar mode {mode!r}")

    # -- ring operations ----------------------------------------------------

    def _check_compatible(self, other):
        if type(other) is not type(self) or other.delta != self.delta:
            raise ModeMismatchError(f"cannot mix {self.mode} scalars at delta="
                                    f"{self.delta} and {other.mode} at {other.delta}")

    def __add__(self, other):
        self._check_compatible(other)
        return self._add(other)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._const(other, self.delta)
        self._check_compatible(other)
        return self._mul(other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        self._check_compatible(other)
        return self._eq(other)

    __hash__ = None  # tolerance-based equality in float mode


class Laurent(Scalar):
    """A Laurent polynomial {exponent: nonzero int or Fraction} in delta."""

    __slots__ = ("terms",)
    mode = SYMBOLIC
    value = delta = None

    def __init__(self, terms):
        self.terms = terms

    @classmethod
    def _const(cls, c, delta):
        return cls.symbolic({0: c})

    def _add(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Laurent({e: c for e, c in terms.items() if c != 0})

    def _mul(self, other):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, 0) + c1 * c2
        return Laurent({e: c for e, c in terms.items() if c != 0})

    def __neg__(self):
        return Laurent({e: -c for e, c in self.terms.items()})

    @staticmethod
    def _sum_products(terms, delta):
        """{key: sum of a*b*delta**(m+x)} over `(a, b, outs, m)` terms and
        each `(key, x)` of their `outs` (`a` None counting as 1), on the raw
        exponent maps, zero sums dropped.  a*b is formed once per term: a
        monomial as one (exponent, coefficient) pair, and a longer product
        multiplies straight into the sum of a term with one output."""
        sums = {}
        for a, b, outs, m in terms:
            b = b.terms
            if len(b) == 1 and (a is None or len(a.terms) == 1):   # a monomial
                (e, c), = b.items()
                if a is not None:
                    (e1, c1), = a.terms.items()
                    e, c = e + e1, c1 * c
                e += m
                for key, x in outs:
                    x += e
                    poly = sums.setdefault(key, {})
                    poly[x] = poly[x] + c if x in poly else c
                continue
            if a is not None:
                a = a.terms
                if len(outs) == 1:      # no product map to build
                    (key, x), = outs
                    poly = sums.setdefault(key, {})
                    for e1, c1 in a.items():
                        e1 += m + x
                        for e2, c2 in b.items():
                            e, c = e1 + e2, c1 * c2
                            poly[e] = poly[e] + c if e in poly else c
                    continue
                prod = {}
                for e1, c1 in a.items():
                    for e2, c2 in b.items():
                        e, c = e1 + e2, c1 * c2
                        prod[e] = prod[e] + c if e in prod else c
                b = prod
            for key, x in outs:
                poly = sums.setdefault(key, {})
                x += m
                for e, c in b.items():
                    e += x
                    poly[e] = poly[e] + c if e in poly else c
        out = {}
        for key, poly in sums.items():
            if 0 in poly.values():
                poly = {e: c for e, c in poly.items() if c}
            if poly:
                out[key] = Laurent(poly)
        return out

    def delta_pow(self, m: int):
        """Multiply by delta**m (the only division this ring ever needs)."""
        if m == 0:
            return self         # scalars are immutable
        return Laurent({e + m: c for e, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def _eq(self, other):
        return self.terms == other.terms

    def to_float(self) -> float:
        raise ModeMismatchError("symbolic scalar has no numeric value")

    def to_json(self):
        return {"mode": SYMBOLIC,
                "terms": [[e, str(self.terms[e])] for e in sorted(self.terms)]}

    def __repr__(self):
        bits = []
        for e in sorted(self.terms, reverse=True):
            c, d = self.terms[e], "" if e == 0 else "d" if e == 1 else f"d^{e}"
            bits.append(f"{c}" if not d else d if c == 1 else f"{c}*{d}")
        return " + ".join(bits) or "0"


class _Valued(Scalar):
    """A value at a fixed delta; subclasses fix the number type, the zero
    test and the JSON form of a number."""

    __slots__ = ("value", "delta")
    terms = None

    def __init__(self, value, delta):
        self.value = value
        self.delta = delta

    @classmethod
    def _const(cls, c, delta):
        return cls(cls.number(c), delta)

    def _add(self, other):
        return type(self)(self.value + other.value, self.delta)

    def _mul(self, other):
        return type(self)(self.value * other.value, self.delta)

    def __neg__(self):
        return type(self)(-self.value, self.delta)

    @classmethod
    def _sum_products(cls, terms, delta):
        """The same on the values, as the operators would: `(a*b) *
        delta**(m+x)` (for m+x != 0) added in term order, so floats keep
        their bits."""
        sums = {}
        for a, b, outs, m in terms:
            v = b.value if a is None else a.value * b.value
            for key, x in outs:
                x += m
                w = v * delta ** x if x else v
                sums[key] = sums[key] + w if key in sums else w
        return {key: cls(v, delta) for key, v in sums.items() if not cls._negligible(v)}

    def delta_pow(self, m: int):
        if m == 0:
            return self
        return type(self)(self.value * self.delta ** m, self.delta)

    def is_zero(self) -> bool:
        return self._negligible(self.value)

    def _eq(self, other):
        return self._negligible(self.value - other.value)

    def to_float(self) -> float:
        return float(self.value)

    def to_json(self):
        return {"mode": self.mode, "value": self._json(self.value),
                "delta": self._json(self.delta)}

    def __repr__(self):
        return f"{self.value}"


class Rational(_Valued):
    """An exact Fraction value at a fixed rational delta."""

    __slots__ = ()
    mode, number, _json = RATIONAL, Fraction, str

    @staticmethod
    def _negligible(v) -> bool:
        return v == 0


class Float(_Valued):
    """A float value at a fixed real delta, zero up to `FLOAT_TOL`."""

    __slots__ = ()
    mode, number, _json = FLOAT, float, float

    @staticmethod
    def _negligible(v) -> bool:
        return abs(v) <= FLOAT_TOL


_CLASSES = {SYMBOLIC: Laurent, RATIONAL: Rational, FLOAT: Float}


class Ring:
    """Factory for scalars of one fixed mode (and delta, if numeric)."""

    def __init__(self, mode, delta=None):
        if mode not in _CLASSES:
            raise PreconditionError(f"unknown scalar mode {mode!r}")
        self.mode, self.scalar, self.delta = mode, _CLASSES[mode], None
        if mode != SYMBOLIC:
            if delta is None or delta == 0:
                raise PreconditionError(f"{mode} mode requires a fixed nonzero delta")
            self.delta = self.scalar.number(delta)

    @classmethod
    def symbolic(cls):
        return _SYMBOLIC_RING       # one shared instance

    @classmethod
    def rational(cls, delta):
        return cls(RATIONAL, delta)

    @classmethod
    def float_(cls, delta):
        return cls(FLOAT, delta)

    def zero(self) -> Scalar:
        return self.fraction(0)

    def one(self) -> Scalar:
        return self.fraction(1)

    def fraction(self, c) -> Scalar:
        return self.scalar._const(c, self.delta)

    def delta_power(self, m: int) -> Scalar:
        return self.one().delta_pow(m)

    def matches(self, s: Scalar) -> bool:
        return type(s) is self.scalar and s.delta == self.delta

    def check(self, other: "Ring") -> None:
        """Raise `ModeMismatchError` unless `other` is this ring."""
        if other is not self and other != self:
            raise ModeMismatchError(f"cannot mix {self!r} and {other!r}")

    def __eq__(self, other):
        return (isinstance(other, Ring)
                and self.mode == other.mode and self.delta == other.delta)

    def __hash__(self):
        return hash((self.mode, self.delta))

    def __repr__(self):
        return "Ring(symbolic)" if self.delta is None else \
            f"Ring({self.mode}, delta={self.delta})"


_SYMBOLIC_RING = Ring(SYMBOLIC)
