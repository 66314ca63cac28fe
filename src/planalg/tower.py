"""The filtered algebras F_k(P) and graded algebras Gr_k(P) over TL.

A level-k picture of a colour-m box has 2(m-k) points on top, k on the
right side and k on the left side; the side cables are the last 2k points
in the clockwise numbering.  Every operation here is a combinatorially
explicit tangle in that frame; the restriction identities to P_k pin each
convention, and the tests check them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, repeat

from .annular import transpose_annular
from .diagrams import Colour, Diagram, identity_diagram, traced_diagram
from .elements import (Element, Family, contract_terms, jones_projection,
                       placed_pairing, random_terms, tl_sum)
from .errors import ColourMismatchError, LevelMismatchError, PreconditionError
from .scalars import Ring, Scalar
from .tangles import (EXT, Tangle, evaluate, evaluate_in,  # noqa: F401
                      partial_cap_tangle, rotation_tangle)  # perfbench reads tower.evaluate


class GradedElement:
    """A vector in F_k(P) or Gr_k(P): finitely many colour components n >= k."""

    __slots__ = ("level", "ring", "components")

    def __init__(self, level: int, ring: Ring, components=None):
        components = components or {}
        self._check_colours(level, components)
        for n, el in components.items():
            if el.colour.n != n:
                raise PreconditionError("component colour does not match key")
            ring.check(el.ring)
        self.level, self.ring = level, ring
        self.components = {n: el for n, el in components.items() if not el.is_zero()}

    @staticmethod
    def _check_colours(level: int, colours):
        if level < 0:
            raise PreconditionError("level must be non-negative")
        for n in colours:
            if n < level:
                raise PreconditionError(f"component colour {n} below level {level}")

    @classmethod
    def zero(cls, level, ring):
        return cls(level, ring)

    @classmethod
    def of_element(cls, level, element: Element):
        return cls(level, element.ring, {element.colour.n: element})

    @classmethod
    def unit(cls, level, ring):
        return cls.of_element(level, Element.unit(level, ring))

    @classmethod
    def from_parts(cls, level, ring: Ring, parts):
        """Sum Elements of `ring` into their colour components in one pass."""
        return cls._sum_parts(level, ring, zip(parts, repeat(None)))

    @classmethod
    def _sum_parts(cls, level, ring: Ring, parts):
        """Sum each `(element, prefix)`'s terms (prefix None as 1) in one pass."""
        colours, terms = {}, []
        for el, a in parts:
            ring.check(el.ring)
            colours[el.colour] = None
            terms += el._terms(a)
        if len({colour.n for colour in colours}) < len(colours):
            raise ColourMismatchError("colour mismatch: 0+ vs 0-")
        cls._check_colours(level, [colour.n for colour in colours])
        return cls._from_terms(level, ring, colours, terms)

    @classmethod
    def _from_terms(cls, level, ring: Ring, colours, terms: list):
        """Kernel terms of `ring` summed by one kernel call, split by colour in
        the producers' order of `colours` (none below the level; a repeat keeps
        its first place), not that of the surviving keys: a colour whose first
        key cancels keeps its place."""
        combos = {colour: {} for colour in colours}
        for d, c in ring.scalar._sum_products(terms, ring.delta).items():
            combos[d.colour][d] = c
        g = object.__new__(cls)
        g.level, g.ring = level, ring
        g.components = {colour.n: Element._of(colour, ring, combo)
                        for colour, combo in combos.items() if combo}
        return g

    def _map(self, f):
        """f applied to each component, zero results dropped, none re-checked."""
        g = object.__new__(GradedElement)
        g.level, g.ring, g.components = self.level, self.ring, {
            n: x for n, el in self.components.items() if not (x := f(el)).is_zero()}
        return g

    def component(self, n: int) -> Element:
        return self.components.get(n) or Element.zero(n, self.ring)

    def _check_level(self, other):
        if self.level != other.level:
            raise LevelMismatchError(
                f"level mismatch: {self.level} vs {other.level}")

    def __add__(self, other):
        self._check_level(other)
        return GradedElement.from_parts(
            self.level, self.ring,
            chain(self.components.values(), other.components.values()))

    def __sub__(self, other):
        self._check_level(other)        # a + (-1*b) is a - b, also in floats
        return GradedElement._sum_parts(self.level, self.ring, chain(
            zip(self.components.values(), repeat(None)),
            zip(other.components.values(), repeat(self.ring.fraction(-1)))))

    def __neg__(self):
        return self._map(Element.__neg__)

    def scale(self, s: Scalar):
        return self._map(lambda el: el.scale(s))

    def is_zero(self):
        return not self.components

    def __eq__(self, other):
        """Equal components by `Element ==` (no component is zero): another
        level is unequal, another ring raises `ModeMismatchError`."""
        if not isinstance(other, GradedElement):
            return NotImplemented
        if self.level != other.level:
            return False
        self.ring.check(other.ring)
        return self.components.keys() == other.components.keys() and all(
            el == other.components[n] for n, el in self.components.items())

    __hash__ = None

    def to_json(self):
        return {"level": self.level,
                "components": {str(n): self.components[n].to_json()
                               for n in sorted(self.components)}}

    @classmethod
    def from_json(cls, data, ring=None):
        if type(data["level"]) is not int:      # not isinstance: True is an int
            raise TypeError(f"level {data['level']!r} is not an integer")
        parts = []      # keys naming one colour twice ("2", "02") add up
        for n, el in data["components"].items():
            el = Element.from_json(el, ring)
            if el.colour.n != int(n):
                raise PreconditionError("component colour does not match key")
            ring = ring or el.ring
            parts.append(el)
        return cls.from_parts(data["level"], ring or Ring.symbolic(), parts)

    def __repr__(self):
        comps = ", ".join(f"{n}: {el!r}" for n, el in sorted(self.components.items()))
        return f"GradedElement(level={self.level}, {{{comps}}})"


def random_graded(k: int, max_colour: int, ring: Ring, rng,
                  presence: float = 0.7) -> GradedElement:
    """A random level-k element: for n = k..max_colour, if `rng.random() < presence`,
    the two `random_terms` draws of a `random_element(n)`; one kernel call sums all."""
    GradedElement._check_colours(k, ())
    colours, terms = {}, []
    for n in range(k, max_colour + 1):
        if rng.random() < presence:
            colours[Colour(n)] = None
            random_terms(n, ring, rng, 2, terms)
    return GradedElement._from_terms(k, ring, colours, terms)


# -- the two-box product tangle -------------------------------------------------


def sharp_tangle(m: int, n: int, k: int, t: int) -> Tangle:
    """The P_t component tangle of the level-k product on P_m x P_n, built
    anew per call: `_family` keeps the compiled product blocks."""
    if m < k or n < k:
        raise PreconditionError("factor colours must be at least the level")
    ts = sharp_range(m, n, k)
    if t not in ts:
        raise PreconditionError(f"t={t} outside [{ts[0]}, {ts[-1]}]")
    j = m + n - k - t
    pairs = []
    for i in range(1, m + t - n - k + 1):
        pairs.append(((1, i), (EXT, i)))
    for r in range(1, j + 1):
        pairs.append(((1, 2 * (m - k) + 1 - r), (2, r)))
    for i in range(j + 1, 2 * (n - k) + 1):
        pairs.append(((2, i), (EXT, m + t - n - k + i - j)))
    for d in range(1, k + 1):
        pairs.append(((1, 2 * (m - k) + d), (2, 2 * n + 1 - d)))
        pairs.append(((1, 2 * m - k + d), (EXT, 2 * t - k + d)))
        pairs.append(((2, 2 * (n - k) + d), (EXT, 2 * (t - k) + d)))
    return Tangle(t, [m, n], pairs)


def sharp_range(m: int, n: int, k: int) -> range:
    """The colours t of the level-k product's components on P_m x P_n."""
    return range(abs(m - n) + k, m + n - k + 1)


@lru_cache(maxsize=None)
def _family(make, m: int, n: int, k: int, ts: range) -> tuple:
    """The tangles make(m, n, k, t), t in the range ts, of one (m, n) block, as
    one family, with the tuple of their output colours in t order: the one cache
    of the product blocks, keyed by ts's value, so `bullet` reuses `sharp`'s."""
    tangles = [make(m, n, k, t) for t in ts]
    return (Family([t.family.members[0] for t in tangles], (Colour(m), Colour(n))),
            tuple(t.ext for t in tangles))


def _blocks(make, ts, k: int, a, b, ring: Ring) -> GradedElement:
    """The sum over component pairs (m, n) of Z_T(a_m, b_n), T in the family
    make(m, n, k, t), t in ts(m, n, k): one `contract_terms` walk per block
    appends one term per filling for all its output colours, and one kernel
    call sums every block's terms; the colours come in block order, each
    block's in t order.  The inputs are checked per product, not through
    `filling_terms`: each block's colours by its walk (a 0- component
    fails), and the rings once, after the first block's walk, so its colour
    error comes first (a two-box walk multiplies no coefficients)."""
    colours, terms = [], []
    mixed = a.ring is not b.ring and a.ring != b.ring
    for m, am in a.components.items():
        for n, bn in b.components.items():
            family, outs = _family(make, m, n, k, ts(m, n, k))
            colours += outs
            contract_terms(family, ring, (am, bn), terms)
            if mixed:
                raise PreconditionError("all inputs must share one scalar ring")
    return GradedElement._from_terms(k, ring, colours, terms)


def sharp(a: GradedElement, b: GradedElement) -> GradedElement:
    """The filtered product of F_k(P), bilinear over components."""
    a._check_level(b)
    return _blocks(sharp_tangle, sharp_range, a.level, a, b, a.ring)


def bullet(a: GradedElement, b: GradedElement) -> GradedElement:
    """The graded (top-component) product of Gr_k(P)."""
    a._check_level(b)
    return _blocks(sharp_tangle, lambda m, n, k: sharp_range(m, n, k)[-1:],
                   a.level, a, b, a.ring)


# -- dagger, traces, inner product ------------------------------------------------


def dagger(a: GradedElement) -> GradedElement:
    """The involution: on colour m > 0, the level-fold rotation (point i to
    i - 2k) of the adjoint; colour 0 is fixed.  One kernel call (`_one_box`)."""
    return _one_box(a.level, a, lambda m, k: rotation_tangle(m, -k) if m else None,
                    Element.star)


def trace_tk(a: GradedElement) -> Scalar:
    """t_k: the normalised trace of the level-k component."""
    return a.component(a.level).tau()


def inner_product(a: GradedElement, b: GradedElement) -> Scalar:
    """<a|b> = t_k(b^dagger # a)."""
    a._check_level(b)
    return trace_tk(sharp(dagger(b), a))


def hk_norm_squared_element(x: Element, k: int) -> Scalar:
    """||x||^2 in H_k for x in P_u: delta^(u-k) tau(x* x)."""
    return x.inner(x).delta_pow(x.colour.n - k)


def hk_norm_squared(a: GradedElement) -> Scalar:
    """delta^{-k} sum_n delta^n tau(a_n* a_n)."""
    return sum((hk_norm_squared_element(el, a.level) for el in a.components.values()),
               a.ring.zero())


# -- inclusion and conditional expectation --------------------------------------------


@lru_cache(maxsize=None)
def _cap_tangles(n: int, k: int):
    """The level-k expectation's cap on P_n, joining the innermost bottom
    points 2n-k and 2n-k+1, and its transpose: the cup of the inclusion of
    P_{n-1} into P_n at level k."""
    cap = partial_cap_tangle(n, [(2 * n - k, 2 * n - k + 1)])
    return cap, transpose_annular(cap)


@lru_cache(maxsize=None)
def _trace_closure(m: int, k: int) -> Tangle:
    """Tr_k's closure of a colour-m component: its last k pairs of side
    points capped and, for m > k, its top 2(m-k) points on a box of m-k."""
    side = [((1, 2 * (m - k) + d), (1, 2 * m + 1 - d)) for d in range(1, k + 1)]
    if m == k:
        return Tangle(0, [m], side)
    top = [((1, i), (2, 2 * (m - k) + 1 - i)) for i in range(1, 2 * (m - k) + 1)]
    return Tangle(0, [m, m - k], top + side)


def _one_box(level: int, a: GradedElement, tangle, prepare=None) -> GradedElement:
    """Z_T(a_m), T = tangle(m, a.level), on each component a_m, `prepare`d first
    (a_m itself where T is None): every fill appends its terms to one list by
    one `contract_terms` walk, one kernel call sums them, and the colours come
    in component order.  Each input's colour is checked by the walk (a 0-
    component fails); its ring is `a.ring`, so it is not checked."""
    colours, terms = {}, []
    for m, el in a.components.items():
        t = tangle(m, a.level)
        colours[el.colour if t is None else t.ext] = None
        if t is None:
            terms += el._terms()
            continue
        contract_terms(t.family, a.ring, (prepare(el) if prepare else el,), terms)
    return GradedElement._from_terms(level, a.ring, colours, terms)


def include(a: GradedElement) -> GradedElement:
    """The unital trace-preserving embedding F_k(P) -> F_{k+1}(P): one kernel call."""
    return _one_box(a.level + 1, a, lambda n, k: _cap_tangles(n + 1, k + 1)[1])


def cond_expect(a: GradedElement) -> GradedElement:
    """E_{k-1}: the delta^{-1}-scaled capping retraction F_k -> F_{k-1}: the caps
    summed by one kernel call (`_one_box`), then delta^{-1} applied to each sum."""
    if a.level < 1:
        raise PreconditionError("conditional expectation needs level >= 1")
    return _one_box(a.level - 1, a, lambda n, k: _cap_tangles(n, k)[0])._map(
        lambda el: el.delta_pow(-1))


# -- distinguished elements ------------------------------------------------------------


def element_c(k: int, ring: Ring) -> GradedElement:
    """The single-strand generator of F_0 pushed into F_k (lives in P_{k+1})."""
    pairs = [(1, 2)] + [(2 + j, 2 * k + 3 - j) for j in range(1, k + 1)]
    return GradedElement.of_element(k, Element.basis(Diagram(k + 1, pairs), ring))


def element_d(k: int, ring: Ring) -> GradedElement:
    """The two-strand generator (the box identity 1_2) pushed into F_k."""
    pairs = [(1, 4), (2, 3)] + [(4 + j, 2 * k + 5 - j) for j in range(1, k + 1)]
    return GradedElement.of_element(k, Element.basis(Diagram(k + 2, pairs), ring))


def jones_e(k: int, ring: Ring) -> GradedElement:
    """e_{k+1} in P_{k+1} as an element of F_{k+1}(P)."""
    if k < 1:
        raise PreconditionError("jones_e needs k >= 1")
    return GradedElement.of_element(k + 1, jones_projection(k + 1, ring))


# -- graded trace -----------------------------------------------------------------------


def trace_Tr(a: GradedElement) -> Scalar:
    """Tr_k: close the top through the sum of all TL diagrams, cables around."""
    k = a.level
    total = a.ring.zero()
    for m, el in a.components.items():
        inputs = [el] if m == k else [el, tl_sum(m - k, a.ring)]
        closed = evaluate_in(_trace_closure(m, k), inputs, a.ring)
        total = total + closed.combo.get(identity_diagram(0), a.ring.zero())
    return total


# -- the maps between Gr_k and F_k ---------------------------------------------------------


@lru_cache(maxsize=None)
def _column(k, j, excellent, diagram, ring) -> tuple:
    """Colours k..j of phi (psi, signed, if excellent) on one P_j basis diagram.

    A good tangle caps the 2(j-k) free points in turn: each goes through (no
    cap open), opens a cap or closes the innermost (excellent: no cap inside
    another).  A walk counts tangles per state `(partner, c, s, loops)`: the
    partner tuple, capped points removed, the cursor, the caps open and the
    loops closed.  An end state's `partner` is an output of colour len/2.
    """
    cap = 1 if excellent else j                 # most caps open at once
    states = {(placed_pairing(diagram, 0), 0, 0, 0): 1}
    for left in reversed(range(2 * (j - k))):   # free points after this one
        walked = {}
        for (partner, c, s, loops), n in states.items():
            if s == 0:                          # through
                state = partner, c + 1, 0, loops
                walked[state] = walked.get(state, 0) + n
            if s < cap and s < left:            # open a cap it can still close
                state = partner, c + 1, s + 1, loops
                walked[state] = walked.get(state, 0) + n
            if s:                               # close the innermost cap
                x, y = partner[c - 1], partner[c]
                p = list(partner)
                p[x], p[y] = y, x               # join their partners (no-op on a loop)
                del p[c - 1:c + 1]
                state = (tuple([v - 2 if v > c else v for v in p]), c - 1, s - 1,
                         loops + (x == c))
                walked[state] = walked.get(state, 0) + n
        states = walked
    colours = [Colour(i) for i in range(k, j + 1)]
    terms, coeffs = [[] for _ in colours], {}
    for (partner, _, _, loops), n in states.items():
        i = len(partner) // 2
        n = -n if excellent and (i + j) % 2 else n
        coeff = coeffs.get(n) or coeffs.setdefault(n, ring.fraction(n))
        out = traced_diagram(colours[i - k], tuple(
            [(p + 1, q + 1) for p, q in enumerate(partner) if p < q]))
        terms[i - k].append((None, coeff, out.outs, loops))
    return tuple(map(Element._sum, colours, [ring] * len(colours), terms))


def _triangular_map(k: int, a: GradedElement, excellent: bool) -> GradedElement:
    """Each coefficient times its diagram's columns, summed by the ring's kernel."""
    colours, terms = {}, []
    for j, el in a.components.items():
        for d, c in el.combo.items():
            for column in _column(k, j, excellent, d, a.ring):
                colours[column.colour] = None
                terms += column._terms(c)
    return GradedElement._from_terms(k, a.ring, colours, terms)


def phi(k: int, a: GradedElement) -> GradedElement:
    """Sum of all k-good annular tangle actions: Gr_k(P) -> F_k(P)."""
    if a.level != k:
        raise LevelMismatchError("phi level must match the element level")
    return _triangular_map(k, a, excellent=False)


def psi(k: int, a: GradedElement) -> GradedElement:
    """Signed sum of all k-excellent annular tangle actions: F_k(P) -> Gr_k(P)."""
    if a.level != k:
        raise LevelMismatchError("psi level must match the element level")
    return _triangular_map(k, a, excellent=True)


# -- the dot action of F_{k+1} on F_k ----------------------------------------------------


def dot_tangle(m: int, n: int, k: int, t: int) -> Tangle:
    """The P_t component tangle of a.b for a in P_m <= F_{k+1}, b in P_n <= F_k,
    built anew per call, as `sharp_tangle` is."""
    if k < 1:
        raise PreconditionError("the dot action is defined for k >= 1")
    if m < k + 1 or n < k:
        raise PreconditionError("dot action colour/level mismatch")
    ts = dot_range(m, n, k)
    if t not in ts:
        raise PreconditionError(f"t={t} outside [{ts[0]}, {ts[-1]}]")
    pairs = []
    for i in range(1, m + t - n - k):
        pairs.append(((1, i), (EXT, i)))
    for p in range(1, m + n - k - t):
        pairs.append(((1, 2 * (m - k - 1) + 1 - p), (2, p)))
    for p in range(m + n - k - t, 2 * n - k):
        pairs.append(((2, p), (EXT, p + 2 * (t - n))))
    for p in range(2 * n - k, 2 * n + 1):
        pairs.append(((2, p), (1, 2 * (m + n - k) - 1 - p)))
    pairs.append(((1, 2 * m - k), (EXT, 2 * t - k)))
    for d in range(1, k + 1):
        pairs.append(((1, 2 * m - k + d), (EXT, 2 * t - k + d)))
    return Tangle(t, [m, n], pairs)


def dot_range(m: int, n: int, k: int) -> range:
    """The colours t of the level-k dot action's components on P_m x P_n."""
    return range(abs(m - n - 1) + k, m + n - k)


def dot_action(a: GradedElement, b: GradedElement) -> GradedElement:
    """theta_k(a)(b): the action of F_{k+1}(P) on F_k(P), by direct tangles."""
    if a.level != b.level + 1:
        raise LevelMismatchError("dot action needs levels (k+1, k)")
    return _blocks(dot_tangle, dot_range, b.level, a, b, b.ring)


def dot_action_via_expectation(a: GradedElement, b: GradedElement) -> GradedElement:
    """The same action computed as delta^2 E_k(a # incl(b) # e_{k+1})."""
    if a.level != b.level + 1:
        raise LevelMismatchError("dot action needs levels (k+1, k)")
    prod = sharp(sharp(a, include(b)), jones_e(b.level, b.ring))
    return cond_expect(prod).scale(b.ring.delta_power(2))


# -- index sets of the associativity proofs ---------------------------------------------


def index_sets(m, n, p, k, dot=False):
    """The index sets of the two bracketings in an associativity proof, read
    off the products' output ranges: I = {(t, s): t in outer(m, n), s in
    inner(t, p)} for (xy)z and J = {(v, u): v in inner(n, p), u in
    inner(m, v)} for x(yz).  For `#` both ranges are `sharp_range` at level
    k; for the dot action (a # a2).b, a, a2 in F_{k+1}, b in F_k, the outer
    one is `sharp_range` at level k+1 and the inner one `dot_range` at k."""
    inner = dot_range if dot else sharp_range
    return ({(t, s) for t in sharp_range(m, n, k + 1 if dot else k)
             for s in inner(t, p, k)},
            {(v, u) for v in inner(n, p, k) for u in inner(m, v, k)})


def index_bijection(m, n, p, pairs) -> list:
    """(t,s) -> (max(m+p, n+s) - t, s) on each of `pairs`, for both proofs."""
    mp = m + p
    return [((mp if mp > n + s else n + s) - t, s) for t, s in pairs]
