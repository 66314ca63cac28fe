"""Generic planar tangles: validation, operadic substitution, evaluation.

A tangle is stored combinatorially: an external colour, an ordered list of
internal box colours, a perfect matching on all marked points, and a count
of free closed loops.  Points are addressed as (box, index) with box 0 the
external boundary and indices 1..2n clockwise from the box's *-region.

Every strand walk runs on one integer numbering of the points, fixed when
the tangle is built (`Tangle.offsets` and `Tangle.wiring`): the external
points first, then each box's points in order.  Planarity is decided on
the ribbon graph whose vertices are the boundary circles that carry points
and whose edges are the strands.  A face is traced by crossing a strand and
stepping to the next point of the circle reached: clockwise on the external
boundary, counterclockwise on a box (seen from outside).  Every connected
component must have Euler characteristic 2.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import lru_cache
from itertools import accumulate

from .diagrams import Colour
from .elements import Element, Family, contract_terms, trace_strands
from .errors import (ColourMismatchError, ParseError, PreconditionError,
                     ValidationError)
from .scalars import Ring

EXT = 0


class Tangle:
    """An immutable planar tangle value, wired when it is built.

    `offsets[b]` is the first id of boundary b (0 the external one),
    `wiring[p]` the strand partner of id p and `family` the compiled fill.
    """

    __slots__ = ("ext", "boxes", "pairs", "loops", "offsets", "wiring", "family")

    def __init__(self, ext, boxes, pairs, loops=0):
        self.ext = Colour.of(ext)
        self.boxes = tuple(Colour.of(b) for b in boxes)
        if loops < 0:
            raise PreconditionError("loop count must be non-negative")
        self.loops = loops
        sizes = [self.ext.points] + [b.points for b in self.boxes]
        self.offsets = offsets = tuple(accumulate(sizes[:-1], initial=0))
        wiring = [None] * sum(sizes)
        normed = []
        for p, q in pairs:
            p, q = tuple(p), tuple(q)
            for point in (p, q):        # checked before any comparison
                if not (len(point) == 2 and type(point[0]) is int
                        and type(point[1]) is int and 0 <= point[0] < len(sizes)
                        and 1 <= point[1] <= sizes[point[0]]):
                    raise ValidationError(
                        f"strand endpoint {point} is out of range", strand=point)
            p, q = (p, q) if p <= q else (q, p)
            a, c = offsets[p[0]] + p[1] - 1, offsets[q[0]] + q[1] - 1
            if a == c or wiring[a] is not None or wiring[c] is not None:
                raise ValidationError(f"point matched twice: {p}", strand=(p, q))
            wiring[a], wiring[c] = c, a
            normed.append((p, q))
        self.pairs = tuple(sorted(normed))
        if None in wiring:
            a = wiring.index(None)
            b = bisect_right(offsets, a) - 1
            point = (b, a - offsets[b] + 1)
            raise ValidationError(f"marked point {point} is unmatched", strand=point)
        self.wiring = tuple(wiring)
        self.family = Family([(self.ext, self.wiring, offsets[1:])], self.boxes, loops)

    def _colour_of_box(self, b: int) -> Colour:
        return self.ext if b == EXT else self.boxes[b - 1]

    def with_loops(self, loops: int) -> "Tangle":
        return Tangle(self.ext, self.boxes, self.pairs, loops)

    def to_json(self):
        return {"ext": self.ext.to_json(),
                "boxes": [b.to_json() for b in self.boxes],
                "pairs": [[list(p), list(q)] for p, q in self.pairs],
                "loops": self.loops}

    @classmethod
    def from_json(cls, data):
        return cls(Colour.capped(data["ext"]),
                   [Colour.capped(b) for b in data["boxes"]],
                   [(tuple(p), tuple(q)) for p, q in data["pairs"]],
                   data.get("loops", 0))

    def __eq__(self, other):
        return (isinstance(other, Tangle) and self.ext == other.ext
                and self.boxes == other.boxes and self.pairs == other.pairs
                and self.loops == other.loops)

    def __hash__(self):
        return hash((self.ext, self.boxes, self.pairs, self.loops))

    def __repr__(self):
        return (f"Tangle(ext={self.ext}, boxes={list(self.boxes)}, "
                f"pairs={list(self.pairs)}, loops={self.loops})")


# -- validation ---------------------------------------------------------------


def validate(t: Tangle):
    """Check planarity (Euler characteristic) and the shading parity rule."""
    _check_planarity(t)
    for p, q in t.pairs:
        (b1, i1), (b2, i2) = p, q
        if (b1 == EXT) != (b2 == EXT):
            ok = (i1 - i2) % 2 == 0          # box-to-boundary keeps parity
        else:
            ok = (i1 - i2) % 2 == 1          # box-to-box / boundary caps flip it
        if not ok:
            raise ValidationError(
                f"strand {p}-{q} violates the shading parity rule", strand=(p, q))


def _check_planarity(t: Tangle):
    offsets, wiring = t.offsets, t.wiring
    circle, turn = [], []       # per id: its boundary, the next id a face takes
    for b, first in enumerate(offsets):
        size = t._colour_of_box(b).points
        step = 1 if b == EXT else -1
        circle += [b] * size
        turn += [first + (i + step) % size for i in range(size)]
    parent = list(range(len(offsets)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p, q in enumerate(wiring):
        parent[find(circle[p])] = find(circle[q])
    # V - E + F per component, in the order of their first points: a circle's
    # first point counts its vertex, a strand's lower end its edge
    chi = {}
    for p, q in enumerate(wiring):
        root = find(circle[p])
        chi[root] = chi.get(root, 0) + (p == offsets[circle[p]]) - (p < q)
    seen = [False] * len(wiring)
    for start in range(len(wiring)):
        if not seen[start]:
            chi[find(circle[start])] += 1
            p = start
            while not seen[p]:
                seen[p] = True
                p = turn[wiring[p]]
    for value in chi.values():
        if value != 2:
            raise ValidationError(
                f"tangle is not planar (Euler characteristic {value})")


# -- multilinear evaluation over the TL model -----------------------------------


def evaluate(t: Tangle, inputs) -> Element:
    """Z_T applied to one Element per internal box."""
    inputs = list(inputs)
    ring = inputs[0].ring if inputs else Ring.symbolic()
    return Element._sum(t.ext, ring, filling_terms(t.family, inputs, ring, []))


def evaluate_in(t: Tangle, inputs, ring: Ring) -> Element:
    """Like :func:`evaluate` but with the ring given (needed for 0 boxes)."""
    return Element._sum(t.ext, ring, filling_terms(t.family, list(inputs), ring, []))


def filling_terms(family: Family, inputs: list, ring: Ring, terms: list) -> list:
    """The kernel terms of Z_T(inputs) for every T of a compiled family, one
    per filling, appended to `terms` by one `contract_terms` walk after the
    checks of evaluation, which takes outside input: one input per box, of
    its colour (a zero input traces nothing, so the walk would not check
    it) and of `ring`.  The tower's graded maps, whose components are
    nonzero and of their ring by construction, leave colours to the walk."""
    boxes = family.boxes
    if len(inputs) != len(boxes):
        raise PreconditionError(
            f"tangle has {len(boxes)} boxes but got {len(inputs)} inputs")
    for x, colour in zip(inputs, boxes):
        if x.colour is not colour:
            raise ColourMismatchError(
                f"input colour {x.colour} does not match box colour {colour}")
    for x in inputs:
        if x.ring is not ring and x.ring != ring:
            raise PreconditionError("all inputs must share one scalar ring")
    return contract_terms(family, ring, inputs, terms)


# -- operadic substitution --------------------------------------------------------


def substitute(outer: Tangle, assignments: dict) -> Tangle:
    """Plug tangles into internal boxes of `outer`; unassigned boxes survive."""
    for b, sub in assignments.items():
        if not 1 <= b <= len(outer.boxes):
            raise PreconditionError(f"no box {b} to substitute into")
        if sub.ext != outer.boxes[b - 1]:
            raise ColourMismatchError(
                f"box {b} has colour {outer.boxes[b - 1]} but tangle has "
                f"external colour {sub.ext}")

    # A boundary is (tangle, box) with tangle 0 the outer one and tangle b the
    # one filling box b.  Ids go to the result's boundaries first (its external
    # one, then each box it keeps or gains, in order), then to the glued pairs:
    # each filled box and the external boundary of its tangle.
    tangles = {0: outer, **assignments}
    kept = [(0, EXT)]
    for b in range(1, len(outer.boxes) + 1):
        if b in assignments:
            kept.extend((b, j) for j in range(1, len(assignments[b].boxes) + 1))
        else:
            kept.append((0, b))
    ends = kept + [end for b in sorted(assignments) for end in ((0, b), (b, EXT))]
    sizes = [tangles[s]._colour_of_box(box).points for s, box in ends]
    first = dict(zip(ends, accumulate(sizes, initial=0)))
    npts = sum(sizes)
    wiring = [0] * npts
    for s, t in tangles.items():
        for (b1, i1), (b2, i2) in t.pairs:
            p, q = first[s, b1] + i1 - 1, first[s, b2] + i2 - 1
            wiring[p], wiring[q] = q, p
    inner = [None] * npts
    for b, sub in assignments.items():
        for i in range(sub.ext.points):
            p, q = first[0, b] + i, first[b, EXT] + i
            inner[p], inner[q] = q, p
    points = [(c, i) for c, size in enumerate(sizes[:len(kept)])
              for i in range(1, size + 1)]
    traced, loops = trace_strands(
        wiring, inner, len(points),
        outer.loops + sum(sub.loops for sub in assignments.values()))
    return Tangle(outer.ext, [tangles[s]._colour_of_box(box) for s, box in kept[1:]],
                  [(points[p - 1], points[q - 1]) for p, q in traced], loops)


# -- the standard tangles of the basic repertoire -----------------------------------


def unit_tangle(n) -> Tangle:
    """1^n: no boxes, the identity pairing on the boundary."""
    n = Colour.of(n).n
    return Tangle(n, [], [((EXT, i), (EXT, 2 * n + 1 - i)) for i in range(1, n + 1)])


def identity_tangle(n) -> Tangle:
    n = Colour.of(n).n
    return Tangle(n, [n], [((1, i), (EXT, i)) for i in range(1, 2 * n + 1)])


def multiplication_tangle(n) -> Tangle:
    """M^n_{n,n}: box 2 stacked above box 1."""
    n = Colour.of(n).n
    pairs = [((2, i), (EXT, i)) for i in range(1, n + 1)]
    pairs += [((2, 2 * n + 1 - i), (1, i)) for i in range(1, n + 1)]
    pairs += [((1, n + j), (EXT, n + j)) for j in range(1, n + 1)]
    return Tangle(n, [n, n], pairs)


def inclusion_tangle(n) -> Tangle:
    """I^{n+1}_n: a new through strand at the right edge of the box."""
    n = Colour.of(n).n
    pairs = [((1, i), (EXT, i)) for i in range(1, n + 1)]
    pairs += [((1, i), (EXT, i + 2)) for i in range(n + 1, 2 * n + 1)]
    pairs.append(((EXT, n + 1), (EXT, n + 2)))
    return Tangle(n + 1, [n], pairs)


def trace_tangle(n) -> Tangle:
    """TR^0_n: full closure of the box."""
    n = Colour.of(n).n
    return Tangle(0, [n], [((1, i), (1, 2 * n + 1 - i)) for i in range(1, n + 1)])


@lru_cache(maxsize=None)
def rotation_tangle(n, direction: int = -1) -> Tangle:
    """R^n_n: boundary indices shift by one strand pair (2 points)."""
    n = Colour.of(n).n
    if n == 0:
        return Tangle(0, [Colour(0)], [])
    shift = 2 * direction
    pairs = [((1, i), (EXT, (i - 1 + shift) % (2 * n) + 1))
             for i in range(1, 2 * n + 1)]
    return Tangle(n, [n], pairs)


@lru_cache(maxsize=None)
def left_expectation_tangle(n, i) -> Tangle:
    """EL(i)^n_n: cap the first i strand pairs, re-emit i nested strands."""
    n = Colour.of(n).n
    if not 0 <= i <= n:
        raise PreconditionError(f"EL({i}) undefined on colour {n}")
    pairs = [((1, j), (1, 2 * n + 1 - j)) for j in range(1, i + 1)]
    pairs += [((EXT, j), (EXT, 2 * n + 1 - j)) for j in range(1, i + 1)]
    pairs += [((1, j), (EXT, j)) for j in range(i + 1, 2 * n + 1 - i)]
    return Tangle(n, [n], pairs)


def right_expectation_tangle(n, i) -> Tangle:
    """ER^{n-i}_n: cap the rightmost i strand pairs of the box."""
    n = Colour.of(n).n
    if not 0 <= i <= n:
        raise PreconditionError(f"ER with {i} caps undefined on colour {n}")
    m = n - i
    pairs = [((1, n - j + 1), (1, n + j)) for j in range(1, i + 1)]
    pairs += [((1, p), (EXT, p)) for p in range(1, m + 1)]
    pairs += [((1, n + i + j), (EXT, m + j)) for j in range(1, m + 1)]
    return Tangle(m, [n], pairs)


def jones_tangle(n) -> Tangle:
    """E^n: no boxes; delta times the Jones projection e_n."""
    n = Colour.of(n).n
    if n < 2:
        raise PreconditionError("Jones tangle needs colour >= 2")
    pairs = [((EXT, n - 1), (EXT, n)), ((EXT, n + 1), (EXT, n + 2))]
    pairs += [((EXT, p), (EXT, 2 * n + 1 - p)) for p in range(1, n - 1)]
    return Tangle(n, [], pairs)


def partial_cap_tangle(n, caps) -> Tangle:
    """Cap the given (non-crossing) pairs of an n-box; pass the rest through."""
    n = Colour.of(n).n
    capped = set()
    for a, b in caps:
        capped.update((a, b))
    if len(capped) != 2 * len(list(caps)):
        raise PreconditionError("cap endpoints must be distinct")
    free = [p for p in range(1, 2 * n + 1) if p not in capped]
    if len(free) % 2:
        raise PreconditionError("capping must leave an even number of points")
    m = len(free) // 2
    pairs = [((1, a), (1, b)) for a, b in caps]
    pairs += [((1, p), (EXT, r + 1)) for r, p in enumerate(free)]
    return Tangle(m, [n], pairs)


def standard_tangle(kind: str, *params) -> Tangle:
    """Dispatch on the basic repertoire by name."""
    kind = kind.upper()
    table = {
        "M": multiplication_tangle,
        "I": inclusion_tangle,
        "TR": trace_tangle,
        "R": rotation_tangle,
        "EL": left_expectation_tangle,
        "ER": right_expectation_tangle,
        "E": jones_tangle,
        "UNIT": unit_tangle,
        "ID": identity_tangle,
    }
    if kind not in table:
        raise PreconditionError(f"unknown standard tangle kind {kind!r}")
    return table[kind](*params)


# -- the textual DSL ------------------------------------------------------------


def _parse_point(token: str, line_no: int, col: int, boxes: dict):
    if token.startswith("e"):
        try:
            return (EXT, int(token[1:]))
        except ValueError:
            raise ParseError(f"bad external point {token!r}", line_no, col)
    if "." in token:
        name, _, idx = token.rpartition(".")
        if name not in boxes:
            raise ParseError(f"unknown box {name!r}", line_no, col)
        try:
            return (boxes[name], int(idx))
        except ValueError:
            raise ParseError(f"bad point index in {token!r}", line_no, col)
    raise ParseError(f"bad point {token!r}", line_no, col)


def _parse_colour(token: str, line_no: int, col: int) -> Colour:
    try:
        return Colour.capped(token)
    except ParseError as exc:
        raise ParseError(str(exc), line_no, col)
    except (PreconditionError, ValueError):
        raise ParseError(f"bad colour {token!r}", line_no, col)


def parse(text: str) -> Tangle:
    """Parse the one-declaration-per-line tangle DSL.

    Grammar: ``ext <colour>``, ``box <name> <colour>``,
    ``strand <pt>-<pt> [...]`` with points ``e<i>`` or ``<box>.<i>``, and
    ``loops <count>``.  Returns a structurally valid tangle; call
    :func:`validate` for parity and planarity.
    """
    ext = None
    boxes = {}
    box_colours = []
    strands = []
    loops = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "ext":
            if len(parts) != 2:
                raise ParseError("expected: ext <colour>", line_no, len(head) + 1)
            if ext is not None:
                raise ParseError("duplicate ext declaration", line_no, 1)
            ext = _parse_colour(parts[1], line_no, len(head) + 2)
        elif head == "box":
            if len(parts) != 3:
                raise ParseError("expected: box <name> <colour>", line_no, len(head) + 1)
            name = parts[1]
            if name in boxes or name.startswith("e"):
                raise ParseError(f"bad or duplicate box name {name!r}", line_no,
                                 len(head) + 2)
            box_colours.append(_parse_colour(parts[2], line_no, len(head) + 2))
            boxes[name] = len(box_colours)
        elif head == "strand":
            if len(parts) < 2:
                raise ParseError("expected: strand <pt>-<pt> [...]",
                                 line_no, len(head) + 1)
            col = len(head) + 2
            for token in parts[1:]:
                ends = token.split("-")
                if len(ends) != 2 or not ends[0] or not ends[1]:
                    raise ParseError(f"bad strand {token!r}", line_no,
                                     raw.find(token) + 1)
                strands.append((_parse_point(ends[0], line_no, col, boxes),
                                _parse_point(ends[1], line_no, col, boxes)))
                col += len(token) + 1
        elif head == "loops":
            if len(parts) != 2:
                raise ParseError("expected: loops <count>", line_no, len(head) + 1)
            try:
                loops = int(parts[1])
            except ValueError:
                raise ParseError(f"bad loop count {parts[1]!r}", line_no,
                                 len(head) + 2)
        else:
            raise ParseError(f"unknown declaration {head!r}", line_no, 1)
    if ext is None:
        raise ParseError("missing ext declaration", 1, 1)
    try:
        return Tangle(ext, box_colours, strands, loops)
    except ValidationError as exc:
        raise ParseError(str(exc), len(text.splitlines()), 1)
