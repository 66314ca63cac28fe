"""Generic planar tangles: validation, operadic substitution, evaluation.

A tangle is stored combinatorially: an external colour, an ordered list of
internal box colours, a perfect matching on all marked points, and a count
of free closed loops.  Points are addressed as (box, index) with box 0 the
external boundary and indices 1..2n clockwise from the box's *-region.

Planarity is decided by Euler characteristic over the rotation system of
the strand-and-boundary graph, with internal boxes oriented oppositely to
the external boundary.
"""

from __future__ import annotations

from .diagrams import Colour, Diagram
from .elements import Element, placed_pairing, trace_strands
from .errors import (ColourMismatchError, InternalError, ParseError,
                     PreconditionError, ValidationError)
from .scalars import Ring

EXT = 0


def _norm_pair(p, q):
    return (p, q) if p <= q else (q, p)


class Tangle:
    """An immutable planar tangle value."""

    __slots__ = ("ext", "boxes", "pairs", "loops", "_partner")

    def __init__(self, ext, boxes, pairs, loops=0):
        self.ext = Colour.of(ext)
        self.boxes = tuple(Colour.of(b) for b in boxes)
        self.pairs = tuple(sorted(_norm_pair(tuple(p), tuple(q)) for p, q in pairs))
        if loops < 0:
            raise PreconditionError("loop count must be non-negative")
        self.loops = loops
        partner = {}
        for p, q in self.pairs:
            if p in partner or q in partner or p == q:
                raise ValidationError(f"point matched twice: {p}", strand=(p, q))
            partner[p] = q
            partner[q] = p
        self._partner = partner
        self._check_structure()

    def _colour_of_box(self, b: int) -> Colour:
        return self.ext if b == EXT else self.boxes[b - 1]

    def _check_structure(self):
        expected = set()
        for b in range(len(self.boxes) + 1):
            for i in range(1, self._colour_of_box(b).points + 1):
                expected.add((b, i))
        actual = set(self._partner)
        if actual - expected:
            p = sorted(actual - expected)[0]
            raise ValidationError(f"strand endpoint {p} is out of range", strand=p)
        if expected - actual:
            p = sorted(expected - actual)[0]
            raise ValidationError(f"marked point {p} is unmatched", strand=p)

    def partner(self, point):
        return self._partner[point]

    def with_loops(self, loops: int) -> "Tangle":
        return Tangle(self.ext, self.boxes, self.pairs, loops)

    def adjoint(self) -> "Tangle":
        """The reflected tangle: point (b, p) goes to (b, 2n_b + 1 - p)."""
        def refl(point):
            b, p = point
            return (b, self._colour_of_box(b).points + 1 - p)
        return Tangle(self.ext, self.boxes,
                      [(refl(p), refl(q)) for p, q in self.pairs], self.loops)

    def to_json(self):
        return {"ext": self.ext.to_json(),
                "boxes": [b.to_json() for b in self.boxes],
                "pairs": [[list(p), list(q)] for p, q in self.pairs],
                "loops": self.loops}

    @classmethod
    def from_json(cls, data):
        return cls(data["ext"], data["boxes"],
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
    vertices = []
    for b in range(len(t.boxes) + 1):
        n2 = t._colour_of_box(b).points
        vertices.extend((b, i) for i in range(1, n2 + 1))
    if not vertices:
        return
    vid = {v: i for i, v in enumerate(vertices)}

    edges = []          # (u, v) by vertex id
    strand_edge = {}    # vertex id -> edge id of its strand
    arcs_next = {}      # vertex id -> edge id of arc toward next point
    arcs_prev = {}
    for p, q in t.pairs:
        eid = len(edges)
        edges.append((vid[p], vid[q]))
        strand_edge[vid[p]] = eid
        strand_edge[vid[q]] = eid
    for b in range(len(t.boxes) + 1):
        n2 = t._colour_of_box(b).points
        for i in range(1, n2 + 1):
            j = i % n2 + 1
            u, v = vid[(b, i)], vid[(b, j)]
            eid = len(edges)
            edges.append((u, v))
            arcs_next[u] = eid
            arcs_prev[v] = eid

    # clockwise rotation of darts leaving each vertex; a dart is (edge, end)
    def leaving(v, eid):
        u, w = edges[eid]
        if u == v:
            return (eid, 0)
        if w == v:
            return (eid, 1)
        raise InternalError("edge not incident to vertex")

    rotations = {}
    for v, (b, _i) in enumerate(vertices):
        if b == EXT:
            order = [strand_edge[v], arcs_prev[v], arcs_next[v]]
        else:
            order = [strand_edge[v], arcs_next[v], arcs_prev[v]]
        # a colour-1 box has coincident next/prev arcs on 2 points; both darts
        # still appear since the arc edges are distinct parallel edges
        rotations[v] = [leaving(v, e) for e in order]

    def head(dart):
        eid, end = dart
        return edges[eid][1 - end]

    def reverse(dart):
        return (dart[0], 1 - dart[1])

    # faces: orbits of dart -> clockwise-successor of its reverse at the head
    nxt = {}
    for v, rot in rotations.items():
        for idx, d in enumerate(rot):
            nxt[reverse(d)] = rot[(idx + 1) % len(rot)]

    # per-component Euler characteristic must be 2
    parent = list(range(len(vertices)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    comp_v, comp_e, comp_f = {}, {}, {}
    for v in range(len(vertices)):
        comp_v[find(v)] = comp_v.get(find(v), 0) + 1
    for u, _v in edges:
        comp_e[find(u)] = comp_e.get(find(u), 0) + 1
    seen = set()
    for d in [(e, end) for e in range(len(edges)) for end in (0, 1)]:
        if d in seen:
            continue
        root = find(edges[d[0]][0])
        comp_f[root] = comp_f.get(root, 0) + 1
        cur = d
        while cur not in seen:
            seen.add(cur)
            cur = nxt[cur]
    for root in comp_v:
        chi = comp_v[root] - comp_e[root] + comp_f.get(root, 0)
        if chi != 2:
            raise ValidationError(
                f"tangle is not planar (Euler characteristic {chi})")


# -- multilinear evaluation over the TL model -----------------------------------


def evaluate(t: Tangle, inputs) -> Element:
    """Z_T applied to one Element per internal box."""
    inputs = list(inputs)
    return _evaluate(t, inputs, inputs[0].ring if inputs else Ring.symbolic())


def evaluate_in(t: Tangle, inputs, ring: Ring) -> Element:
    """Like :func:`evaluate` but with the ring given (needed for 0 boxes)."""
    return _evaluate(t, list(inputs), ring)


def _evaluate(t: Tangle, inputs: list, ring: Ring) -> Element:
    if len(inputs) != len(t.boxes):
        raise PreconditionError(
            f"tangle has {len(t.boxes)} boxes but got {len(inputs)} inputs")
    for x, colour in zip(inputs, t.boxes):
        if x.colour != colour:
            raise ColourMismatchError(
                f"input colour {x.colour} does not match box colour {colour}")
    for x in inputs:
        if x.ring != ring:
            raise PreconditionError("all inputs must share one scalar ring")
    # global integer ids: external points then each box's points in order
    n_ext = t.ext.points
    offsets = [0]
    npts = n_ext
    for b in t.boxes:
        offsets.append(npts)
        npts += b.points
    def gid(point):
        b, i = point
        return (i - 1) if b == EXT else offsets[b] + i - 1

    wiring = [None] * npts
    for p, q in t.pairs:
        wiring[gid(p)] = gid(q)
        wiring[gid(q)] = gid(p)
    # one inner pairing per choice of a diagram in every box, boxes in order
    combos = [((None,) * n_ext, ring.one())]
    for offset, x in zip(offsets[1:], inputs):
        combos = [(inner + placed_pairing(diagram, offset), coeff * c)
                  for inner, coeff in combos for diagram, c in x.combo.items()]

    diagrams = {}       # output pairing -> Diagram, validated once per call
    terms = []
    for inner, coeff in combos:
        pairs, loops = trace_strands(wiring, inner, n_ext, t.loops)
        diagram = diagrams.get(pairs)
        if diagram is None:
            try:
                diagram = diagrams[pairs] = Diagram(t.ext, pairs)
            except ValidationError as exc:
                raise InternalError(
                    f"evaluation produced a crossing output pairing: {exc}") from exc
        terms.append((diagram, coeff.delta_pow(loops)))
    return Element.from_terms(t.ext, ring, terms)


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

    new_boxes = []
    box_map = {}        # (old box index) -> new index, for surviving boxes
    sub_box_map = {}    # (old box index, sub box index) -> new index
    for b in range(1, len(outer.boxes) + 1):
        if b in assignments:
            for j in range(1, len(assignments[b].boxes) + 1):
                new_boxes.append(assignments[b].boxes[j - 1])
                sub_box_map[(b, j)] = len(new_boxes)
        else:
            new_boxes.append(outer.boxes[b - 1])
            box_map[b] = len(new_boxes)

    # nodes: ('o', point) outer-side, ('s', b, point) inside substituted box b
    adj = {}

    def add_edge(u, v):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)

    for p, q in outer.pairs:
        add_edge(('o', p), ('o', q))
    for b, sub in assignments.items():
        for p, q in sub.pairs:
            add_edge(('s', b, p), ('s', b, q))
        for i in range(1, sub.ext.points + 1):
            add_edge(('o', (b, i)), ('s', b, (EXT, i)))

    def terminal(node):
        if node[0] == 'o':
            b, i = node[1]
            if b == EXT:
                return (EXT, i)
            if b not in assignments:
                return (box_map[b], i)
            return None
        _tag, b, (bb, i) = node
        if bb != EXT:
            return (sub_box_map[(b, bb)], i)
        return None

    pairs = []
    visited = set()
    for node in list(adj):
        t0 = terminal(node)
        if t0 is None or node in visited:
            continue
        visited.add(node)
        prev, cur = node, adj[node][0]
        while terminal(cur) is None:
            visited.add(cur)
            nbrs = adj[cur]
            step = nbrs[0] if nbrs[0] != prev else nbrs[1]
            prev, cur = cur, step
        visited.add(cur)
        pairs.append((t0, terminal(cur)))

    loops = outer.loops + sum(sub.loops for sub in assignments.values())
    for node in adj:
        if node in visited or terminal(node) is not None:
            continue
        loops += 1
        prev, cur = node, adj[node][0]
        visited.add(node)
        while cur != node:
            visited.add(cur)
            nbrs = adj[cur]
            step = nbrs[0] if nbrs[0] != prev else nbrs[1]
            prev, cur = cur, step
    return Tangle(outer.ext, new_boxes, pairs, loops)


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


def rotation_tangle(n, direction: int = -1) -> Tangle:
    """R^n_n: boundary indices shift by one strand pair (2 points)."""
    n = Colour.of(n).n
    if n == 0:
        return Tangle(0, [Colour(0)], [])
    shift = 2 * direction
    pairs = [((1, i), (EXT, (i - 1 + shift) % (2 * n) + 1))
             for i in range(1, 2 * n + 1)]
    return Tangle(n, [n], pairs)


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
            try:
                ext = Colour.of(parts[1])
            except (PreconditionError, ValueError):
                raise ParseError(f"bad colour {parts[1]!r}", line_no, len(head) + 2)
        elif head == "box":
            if len(parts) != 3:
                raise ParseError("expected: box <name> <colour>", line_no, len(head) + 1)
            name = parts[1]
            if name in boxes or name.startswith("e"):
                raise ParseError(f"bad or duplicate box name {name!r}", line_no,
                                 len(head) + 2)
            try:
                box_colours.append(Colour.of(parts[2]))
            except (PreconditionError, ValueError):
                raise ParseError(f"bad colour {parts[2]!r}", line_no, len(head) + 2)
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
