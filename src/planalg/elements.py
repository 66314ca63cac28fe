"""Vectors in the Temperley-Lieb spaces P_n, with the C*-algebra operations.

multiply/tau/star here are direct combinatorial implementations (stacking,
closure loop count, reflection); the generic tangle evaluator provides the
independent second route, cross-checked in the test suite.
"""

from __future__ import annotations

from .diagrams import Colour, Diagram, enumerate_diagrams, identity_diagram
from .errors import ColourMismatchError, ModeMismatchError, PreconditionError
from .scalars import Ring, Scalar


class Element:
    """A finitely supported Scalar combination of diagrams of one colour."""

    __slots__ = ("colour", "ring", "combo")

    def __init__(self, colour, ring: Ring, combo=None):
        self.colour = Colour.of(colour)
        self.ring = ring
        clean = {}
        for diagram, coeff in (combo or {}).items():
            if diagram.colour != self.colour:
                raise ColourMismatchError(
                    f"diagram of colour {diagram.colour} in element of colour {self.colour}")
            if not ring.matches(coeff):
                raise ModeMismatchError("coefficient mode does not match element ring")
            if not coeff.is_zero():
                clean[diagram] = coeff
        self.combo = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, colour, ring):
        return cls(colour, ring)

    @classmethod
    def basis(cls, diagram: Diagram, ring: Ring, coeff=None):
        return cls(diagram.colour, ring, {diagram: coeff if coeff is not None else ring.one()})

    @classmethod
    def unit(cls, colour, ring):
        return cls.basis(identity_diagram(colour), ring)

    @classmethod
    def from_terms(cls, colour, ring: Ring, terms):
        """Sum (diagram, coefficient) pairs in one pass over a single dict."""
        combo = {}
        for d, c in terms:
            combo[d] = combo[d] + c if d in combo else c
        return cls(colour, ring, combo)

    # -- linear structure -----------------------------------------------------

    def _check_colour(self, other):
        if self.colour != other.colour:
            raise ColourMismatchError(
                f"colour mismatch: {self.colour} vs {other.colour}")

    def __add__(self, other):
        self._check_colour(other)
        combo = dict(self.combo)
        for d, c in other.combo.items():
            combo[d] = combo[d] + c if d in combo else c
        return Element(self.colour, self.ring, combo)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Element(self.colour, self.ring,
                       {d: -c for d, c in self.combo.items()})

    def scale(self, s: Scalar) -> "Element":
        return Element(self.colour, self.ring,
                       {d: c * s for d, c in self.combo.items()})

    def delta_pow(self, m: int) -> "Element":
        return Element(self.colour, self.ring,
                       {d: c.delta_pow(m) for d, c in self.combo.items()})

    def is_zero(self) -> bool:
        return not self.combo

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        if self.colour != other.colour:
            return False
        return (self - other).is_zero()

    __hash__ = None

    # -- *-algebra operations ---------------------------------------------------

    def star(self) -> "Element":
        """Adjoint: reflect every diagram (coefficients are real, so unchanged)."""
        return Element(self.colour, self.ring,
                       {d.reflect(): c for d, c in self.combo.items()})

    def multiply(self, other: "Element") -> "Element":
        """Algebra product of P_n: the second factor stacked above the first.

        This is the stacking order under which the product agrees with the
        level-k two-box product restricted to P_k (the convention the
        Y/Z capping identities force; see README).
        """
        self._check_colour(other)
        n = self.colour.n
        terms = []
        for d1, c1 in self.combo.items():
            for d2, c2 in other.combo.items():
                diagram, loops = _stack(d2, d1, n)
                terms.append((diagram, (c1 * c2).delta_pow(loops)))
        return Element.from_terms(self.colour, self.ring, terms)

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.multiply(other)
        return NotImplemented

    def tau(self) -> Scalar:
        """Normalised trace: delta^{-n} times the closure loop count value."""
        n = self.colour.n
        total = self.ring.zero()
        for d, c in self.combo.items():
            total = total + c.delta_pow(_closure_loops(d) - n)
        return total

    def inner(self, other: "Element") -> Scalar:
        """tau(other* self), the GNS inner product on P_n."""
        return other.star().multiply(self).tau()

    # -- serialization ---------------------------------------------------------

    def to_json(self):
        terms = sorted(self.combo.items(), key=lambda item: item[0].pairs)
        return {"colour": self.colour.to_json(),
                "terms": [{"pairs": d.to_json(), "coeff": c.to_json()}
                          for d, c in terms]}

    @classmethod
    def from_json(cls, data, ring: Ring | None = None):
        colour = Colour.of(data["colour"])
        combo = {}
        for term in data["terms"]:
            coeff = Scalar.from_json(term["coeff"])
            if ring is None:
                ring = _ring_of(coeff)
            combo[Diagram(colour, [tuple(p) for p in term["pairs"]])] = coeff
        if ring is None:
            ring = Ring.symbolic()
        return cls(colour, ring, combo)

    def __repr__(self):
        if not self.combo:
            return f"0_P{self.colour}"
        parts = [f"({c!r})*{d!r}" for d, c in
                 sorted(self.combo.items(), key=lambda item: item[0].pairs)]
        return " + ".join(parts)


def _ring_of(scalar: Scalar) -> Ring:
    if scalar.mode == "symbolic":
        return Ring.symbolic()
    return Ring(scalar.mode, scalar.delta)


def _stack(top: Diagram, bottom: Diagram, n: int):
    """Glue top's lower boundary to bottom's upper boundary; trace paths.

    Returns the product diagram and the number of closed loops formed.
    """
    # global point ids: top box 0..2n-1 (point p -> p-1), bottom box 2n..4n-1
    glue = {}
    for i in range(1, n + 1):
        a = (2 * n + 1 - i) - 1       # top's bottom row
        b = 2 * n + (i - 1)           # bottom's top row
        glue[a] = b
        glue[b] = a
    partner = {}
    for a, b in top.pairs:
        partner[a - 1] = b - 1
        partner[b - 1] = a - 1
    for a, b in bottom.pairs:
        partner[2 * n + a - 1] = 2 * n + b - 1
        partner[2 * n + b - 1] = 2 * n + a - 1

    out_points = {i - 1: i for i in range(1, n + 1)}                  # top row kept
    out_points.update({2 * n + (p - 1): p for p in range(n + 1, 2 * n + 1)})

    pairs = []
    seen = set()
    for start in out_points:
        if start in seen:
            continue
        seen.add(start)
        cur = partner[start]
        while cur not in out_points:
            seen.add(cur)
            cur = glue[cur]
            seen.add(cur)
            cur = partner[cur]
        seen.add(cur)
        pairs.append((out_points[start], out_points[cur]))
    loops = 0
    for start in range(4 * n):
        if start in seen:
            continue
        loops += 1
        cur = start
        while True:
            seen.add(cur)
            mid = partner[cur]
            seen.add(mid)
            cur = glue[mid]
            if cur == start:
                break
    return Diagram(Colour(n), pairs, _validated=True), loops


def _closure_loops(d: Diagram) -> int:
    """Loops of the trace closure (point i joined to 2n+1-i around the box)."""
    n = d.colour.n
    loops = 0
    seen = set()
    for start in range(1, 2 * n + 1):
        if start in seen:
            continue
        loops += 1
        cur = start
        while True:
            seen.add(cur)
            cur = d.partner(cur)
            seen.add(cur)
            cur = 2 * n + 1 - cur
            if cur == start:
                break
    return loops


def jones_projection(colour, ring: Ring) -> Element:
    """e_n = delta^{-1} times the cup-cap diagram at the right end of an n-box."""
    colour = Colour.of(colour)
    n = colour.n
    if n < 2:
        raise PreconditionError("Jones projections need colour >= 2")
    pairs = [(n - 1, n), (n + 1, n + 2)]
    pairs += [(i, 2 * n + 1 - i) for i in range(1, n - 1)]
    return Element.basis(Diagram(colour, pairs), ring, ring.delta_power(-1))


def tl_sum(colour, ring: Ring) -> Element:
    """T_n: the sum of all Temperley-Lieb diagrams of P_n with coefficient 1."""
    return Element(colour, ring,
                   {d: ring.one() for d in enumerate_diagrams(colour)})
