"""Vectors in the Temperley-Lieb spaces P_n, with the C*-algebra operations.

Every strand contraction but the `phi`/`psi` columns' capping walk goes
through `trace_strands`, and every filling of a tangle's boxes through
`contract_terms`: the product is the multiplication tangle (box 2 above
box 1) and the trace the full closure, each wired once per colour; tangle
evaluation, and with it the tower's products, dagger, inclusion and
expectation, feeds `contract_terms` the tangle's own wiring.  A filling is
one scalar kernel term for every tangle of a family sharing its boxes.  The
direct stacking and closure-loop routes are the tests' independent oracle.
"""

from __future__ import annotations

from functools import lru_cache

from .diagrams import (Colour, Diagram, enumerate_diagrams, identity_diagram,
                       traced_diagram)
from .errors import ColourMismatchError, ModeMismatchError, PreconditionError
from .scalars import Laurent, Ring, Scalar


class Element:
    """A finitely supported Scalar combination of diagrams of one colour."""

    __slots__ = ("colour", "ring", "combo")

    def __init__(self, colour, ring: Ring, combo=None):
        self.colour = Colour.of(colour)
        self.ring = ring
        combo = combo or {}
        _check(self.colour, ring, combo.items())
        self.combo = _nonzero(combo)

    @classmethod
    def _of(cls, colour: Colour, ring: Ring, combo: dict) -> "Element":
        """An element holding `combo` as it is, built from checked inputs."""
        el = object.__new__(cls)
        el.colour, el.ring, el.combo = colour, ring, combo
        return el

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
        """Sum (diagram, coefficient) pairs, each checked first, with `_sum`."""
        colour, terms = Colour.of(colour), list(terms)
        _check(colour, ring, terms)
        return cls._sum(colour, ring, [(None, c, d.outs, 0) for d, c in terms])

    @classmethod
    def _sum(cls, colour: Colour, ring: Ring, terms) -> "Element":
        """Sum a*b*delta**(m+x) per diagram over `(a, b, outs, m)` terms,
        `outs` holding `(diagram, x)` pairs, checked against colour and ring,
        with the ring's kernel (`a` None counts as 1)."""
        return cls._of(colour, ring, ring.scalar._sum_products(terms, ring.delta))

    def _terms(self, a=None, m: int = 0) -> list:
        """This element times a * delta**m as terms for `_sum`."""
        return [(a, c, d.outs, m) for d, c in self.combo.items()]

    # -- linear structure -----------------------------------------------------

    def _check_join(self, other):
        if self.colour != other.colour:
            raise ColourMismatchError(
                f"colour mismatch: {self.colour} vs {other.colour}")
        self.ring.check(other.ring)

    def __add__(self, other):
        self._check_join(other)
        return Element._sum(self.colour, self.ring, self._terms() + other._terms())

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Element._of(self.colour, self.ring,
                           {d: -c for d, c in self.combo.items()})

    def scale(self, s: Scalar) -> "Element":
        return Element._of(self.colour, self.ring,
                           _nonzero({d: c * s for d, c in self.combo.items()}))

    def delta_pow(self, m: int) -> "Element":
        return Element._of(self.colour, self.ring, _nonzero(
            {d: c.delta_pow(m) for d, c in self.combo.items()}))

    def is_zero(self) -> bool:
        return not self.combo

    def __eq__(self, other):
        """`(self - other).is_zero()` without the difference: another colour
        is unequal, another ring raises, then supports and coefficients
        (`Scalar ==`) must agree.  No combo holds a zero or negligible
        coefficient, so a key of one support only would survive in the
        difference, and on a shared key `c1 + (-c2)` is `c1 - c2` exactly in
        IEEE and `Fraction` arithmetic, the value `c1 == c2` tests."""
        if not isinstance(other, Element):
            return NotImplemented
        if self.colour != other.colour:
            return False
        self.ring.check(other.ring)
        return self.combo.keys() == other.combo.keys() and all(
            c == other.combo[d] for d, c in self.combo.items())

    __hash__ = None

    # -- *-algebra operations ---------------------------------------------------

    def star(self) -> "Element":
        """Adjoint: reflect every diagram (coefficients are real, so unchanged)."""
        return Element._of(self.colour, self.ring,
                           {d.reflect(): c for d, c in self.combo.items()})

    def multiply(self, other: "Element") -> "Element":
        """Algebra product of P_n: the second factor stacked above the first.

        This is the stacking order under which the product agrees with the
        level-k two-box product restricted to P_k (the convention the
        Y/Z capping identities force; see README).
        """
        self._check_join(other)
        return Element._sum(self.colour, self.ring, contract_terms(
            _product_family(self.colour), self.ring, (self, other), []))

    def __mul__(self, other):
        if isinstance(other, Element):
            return self.multiply(other)
        return NotImplemented

    def tau(self) -> Scalar:
        """Normalised trace: delta^{-n} times the closure loop count value."""
        n = self.colour.n
        total = self.ring.zero()
        for d, c in self.combo.items():
            total = total + c.delta_pow(_tau_loops(d) - n)
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
        colour = Colour.capped(data["colour"])
        terms = []      # a diagram listed twice adds up
        for term in data["terms"]:
            coeff = Scalar.from_json(term["coeff"])
            if ring is None:
                ring = Ring(coeff.mode, coeff.delta)
            terms.append((Diagram(colour, term["pairs"]), coeff))
        return cls.from_terms(colour, ring or Ring.symbolic(), terms)

    def __repr__(self):
        if not self.combo:
            return f"0_P{self.colour}"
        parts = [f"({c!r})*{d!r}" for d, c in
                 sorted(self.combo.items(), key=lambda item: item[0].pairs)]
        return " + ".join(parts)


_TRACED = {}    # family members -> {d1: ... {dk: ((output, closed) per member)}}
_LEAVES = {}    # leaf -> the one leaf tuple every table shares


class Family:
    """Wired tangles sharing their boxes and free loops, compiled for
    `contract_terms`: `members`, one `(colour, wiring, offsets)` per tangle,
    keys their trie in `_TRACED`; `root` is that trie, found once per `table`."""

    __slots__ = ("members", "boxes", "loops", "table", "root")

    def __init__(self, members, boxes: tuple, loops: int = 0):
        self.members, self.boxes, self.loops = tuple(members), boxes, loops
        self.table = self.root = None


def contract_terms(family: Family, ring: Ring, inputs, terms: list) -> list:
    """Fill the boxes of a family of wired tangles with one set of inputs,
    trace their strands, and append one kernel term per filling to `terms`.

    A member is `(colour, wiring, offsets)`: `wiring` numbers the external
    points of `colour` first, box b's from `offsets[b]` on (see
    `trace_strands`).  Each choice of one diagram per box (the last box
    varying fastest) is one term `(a, c, leaf, loops)`: its coefficient is
    (c1 * c2 * ...) in box order, the prefix `a` times the last box's `c`
    (`ring.one()` with no boxes), and `leaf` holds each member's traced
    `(output diagram, closed loops)`, in member order, on top of the
    family's free `loops`.  So a*b is formed once for all members.  A
    crossing output pairing raises `InternalError`.  Each choice is traced
    once per process for every member (`_trace`): outputs and loops depend
    on no coefficient.  The inputs must be of `ring`.
    """
    if family.table is not _TRACED:     # a detached root until `_trace` keeps one
        family.table, family.root = _TRACED, _TRACED.get(family.members, {})
    level = [(family.root, (), None)]
    for x in inputs[:-1]:
        level = [(node.get(d) or {}, ds + (d,), c if coeff is None else coeff * c)
                 for node, ds, coeff in level for d, c in x.combo.items()]
    last = inputs[-1].combo.items() if inputs else ((None, ring.one()),)
    loops = family.loops
    for node, ds, coeff in level:
        for d, c in last:
            terms.append((coeff, c, node.get(d) or _trace(family, ds + (d,)), loops))
    return terms


def _check(colour: Colour, ring: Ring, terms) -> None:
    """Raise unless every (diagram, coefficient) is of `colour` and `ring`."""
    for diagram, coeff in terms:
        if diagram.colour != colour:
            raise ColourMismatchError(
                f"diagram of colour {diagram.colour} in element of colour {colour}")
        if not ring.matches(coeff):
            raise ModeMismatchError("coefficient mode does not match element ring")


def _nonzero(combo: dict) -> dict:
    return {d: c for d, c in combo.items() if not c.is_zero()}


def _trace(family, diagrams: tuple) -> tuple:
    """Trace one diagram per box (`(None,)` for no boxes) on each member of
    a family and keep the `(output, closed loops)` of each in its trie, kept
    in `_TRACED`; a crossing output raises `InternalError` and is never kept."""
    leaf = []
    for colour, wiring, offsets in family.members:
        inner = sum(map(placed_pairing, diagrams, offsets), (None,) * colour.points)
        pairs, closed = trace_strands(wiring, inner, colour.points)
        leaf.append((traced_diagram(colour, pairs), closed))
    node = family.root = _TRACED.setdefault(family.members, family.root)
    for d in diagrams[:-1]:
        node = node.setdefault(d, {})
    leaf = tuple(leaf)
    leaf = node[diagrams[-1]] = _LEAVES.setdefault(leaf, leaf)
    return leaf


def trace_strands(wiring, inner, n_ext: int, loops: int = 0):
    """Follow the strands of a tangle whose boxes hold diagrams.

    Points carry global ids: the n_ext external points first (0-based),
    then each box's points.  `wiring[p]` is the partner of p under the
    tangle's own strands; `inner[p]` is its partner inside the diagram that
    fills p's box.  Returns the output pairing as 1-based pairs and `loops`
    plus the number of closed loops formed.  (`tangles.substitute` passes
    all the points of its result as external and the glue as `inner`.)
    """
    pairs = []
    seen = set()
    for start in range(n_ext):
        if start in seen:
            continue
        seen.add(start)
        cur = wiring[start]
        while cur >= n_ext:
            seen.add(cur)
            cur = inner[cur]
            seen.add(cur)
            cur = wiring[cur]
        seen.add(cur)
        pairs.append((start + 1, cur + 1))
    for start in range(n_ext, len(wiring)):
        if start in seen:
            continue
        loops += 1
        cur = start
        while True:
            seen.add(cur)
            mid = wiring[cur]
            seen.add(mid)
            cur = inner[mid]
            if cur == start:
                break
    return tuple(pairs), loops


@lru_cache(maxsize=None)
def placed_pairing(diagram: Diagram, offset: int) -> tuple:
    """The diagram's pairing on the global ids offset..offset+2n-1, by point."""
    return tuple(offset + diagram.partner(p) - 1
                 for p in range(1, diagram.colour.points + 1))


@lru_cache(maxsize=None)
def _product_family(colour: Colour) -> Family:
    """The multiplication tangle on P_n, compiled: box 1 (ids 2n..4n-1) below
    box 2 (ids 4n..6n-1); external points 1..n on box 2, n+1..2n on box 1."""
    n, wiring = colour.n, [0] * (6 * colour.n)
    for i in range(n):
        for p, q in ((i, 4 * n + i),                        # top row
                     (6 * n - 1 - i, 2 * n + i),            # box 2 onto box 1
                     (n + i, 3 * n + i)):                   # bottom row
            wiring[p], wiring[q] = q, p
    return Family(((colour, tuple(wiring), (2 * n, 4 * n)),), (colour, colour))


@lru_cache(maxsize=None)
def _tau_loops(d: Diagram) -> int:
    """The loops of d's trace closure (point i joined to 2n+1-i), once per diagram."""
    closure = tuple(reversed(range(d.colour.points)))
    return trace_strands(closure, placed_pairing(d, 0), 0)[1]


def random_element(n: int, ring: Ring, rng, terms: int = 2) -> Element:
    """A sum of `terms` random basis diagrams of P_n with small coefficients:
    short Laurent polynomials in symbolic mode, integers in -3..3 otherwise."""
    basis = enumerate_diagrams(n)

    def draw():
        d = basis[rng.randrange(len(basis))]
        if ring.scalar is Laurent:      # a nonzero int: no normalising
            return d, Laurent({rng.randint(-1, 1): rng.randint(1, 3)})
        return d, ring.fraction(rng.randint(-3, 3))

    return Element.from_terms(n, ring, (draw() for _ in range(terms)))


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
