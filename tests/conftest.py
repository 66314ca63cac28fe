import random
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from operator import mul

import pytest

from planalg.analysis import _gns_entries, glue_tangle, op_norm, psd_sqrt
from planalg.annular import enumerate_good
from planalg.diagrams import Colour, Diagram, _matchings, enumerate_diagrams
from planalg.elements import Element
from planalg.errors import (ColourMismatchError, InternalError,
                            ModeMismatchError, PreconditionError,
                            ValidationError)
from planalg.scalars import FLOAT, SYMBOLIC, Ring, Scalar
from planalg.tangles import EXT, Tangle, evaluate
from planalg.tower import sharp_tangle


@pytest.fixture
def sym():
    return Ring.symbolic()


@pytest.fixture
def rng():
    return random.Random(42)


# -- direct stacking and closure: the independent oracle of trace_strands --------


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
    return Diagram(Colour(n), pairs), loops


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


# -- per-term relabelings: the oracles of the tower's tangle routes ----------------


def dagger_oracle(x: Element, k: int) -> Element:
    """Rotation^k of the adjoint: point i goes to 2(m-k)+1-i mod 2m."""
    m = x.colour.n
    if m == 0:
        return x
    mod = 2 * m
    mu = lambda i: (2 * (m - k) - i) % mod + 1
    combo = {}
    for d, c in x.combo.items():
        combo[Diagram(x.colour, [(mu(p), mu(q)) for p, q in d.pairs])] = c
    return Element(x.colour, x.ring, combo)


def include_oracle(x: Element, new_level: int) -> Element:
    """A new strand joining points 2n-k and 2n-k+1 of the colour-n result;
    the points from 2n-k on move up by two."""
    n = x.colour.n + 1
    k = new_level
    cut = 2 * n - k
    combo = {}
    for d, c in x.combo.items():
        pairs = [tuple(p if p < cut else p + 2 for p in pair) for pair in d.pairs]
        pairs.append((cut, cut + 1))
        combo[Diagram(n, pairs)] = c
    return Element(Colour(n), x.ring, combo)


def expect_oracle(x: Element, k: int) -> Element:
    """delta^{-1} times the cap on points 2n-k and 2n-k+1, term by term."""
    n = x.colour.n
    c1, c2 = 2 * n - k, 2 * n - k + 1
    relabel = lambda p: p if p < c1 else p - 2
    terms = []
    for d, c in x.combo.items():
        if d.partner(c1) == c2:
            pairs = [pr for pr in d.pairs if c1 not in pr]
            factor = 0          # one closed loop cancels the 1/delta prefactor
        else:
            p1, p2 = d.partner(c1), d.partner(c2)
            pairs = [pr for pr in d.pairs if not set(pr) & {c1, c2}]
            pairs.append((p1, p2))
            factor = -1
        pairs = [(relabel(a), relabel(b)) for a, b in pairs]
        terms.append((Diagram(n - 1, pairs), c.delta_pow(factor)))
    return Element.from_terms(n - 1, x.ring, terms)


def tangle_adjoint(t: Tangle) -> Tangle:
    """The reflected tangle: point (b, p) goes to (b, 2n_b + 1 - p)."""
    def refl(point):
        b, p = point
        return (b, t._colour_of_box(b).points + 1 - p)
    return Tangle(t.ext, t.boxes, [(refl(p), refl(q)) for p, q in t.pairs],
                  t.loops)


# -- evaluation at a fixed delta: the cross-mode oracle of scalar arithmetic -------


def specialize(s: Scalar, delta) -> Scalar:
    """Evaluate a symbolic scalar at a fixed delta (rational or float)."""
    if s.mode != SYMBOLIC:
        raise ModeMismatchError("specialize requires a symbolic scalar")
    if delta == 0:
        raise PreconditionError("delta must be nonzero")
    if isinstance(delta, float):
        return Scalar.float_(
            sum(float(c) * delta ** e for e, c in s.terms.items()), delta)
    delta = Fraction(delta)
    return Scalar.rational(sum(c * delta ** e for e, c in s.terms.items()), delta)


# -- the per-term route: the oracle of the scalar kernels' sums of products --------


def _summed(terms) -> dict:
    """Add (diagram, coefficient) pairs into one dict with the scalar `+`."""
    combo = {}
    for d, c in terms:
        combo[d] = combo[d] + c if d in combo else c
    return combo


def per_term_sum(colour, ring: Ring, terms) -> Element:
    """Sum `(diagram, a, b, m)` terms as `src/` did before the kernels: one
    scalar `(a * b).delta_pow(m)` per term (`a` None counting as 1), added
    in term order with the checked scalar `+` by `_summed`; the `Element`
    constructor checks colour and ring and drops the zero sums."""
    return Element(colour, ring, _summed(
        (d, (b if a is None else a * b).delta_pow(m)) for d, a, b, m in terms))


def per_term_multiply(x: Element, y: Element) -> Element:
    """x * y with each pair of terms stacked by `_stack`, y above x."""
    terms = []
    for dx, cx in x.combo.items():
        for dy, cy in y.combo.items():
            out, loops = _stack(dy, dx, x.colour.n)
            terms.append((out, cx, cy, loops))
    return per_term_sum(x.colour, x.ring, terms)


def per_term_evaluate(t: Tangle, inputs, ring: Ring) -> Element:
    """Z_T(inputs) summed by `per_term_sum` from `per_term_fillings`."""
    return per_term_sum(t.ext, ring, per_term_fillings(t, inputs, ring))


def per_term_fillings(t: Tangle, inputs, ring: Ring) -> list:
    """The `(diagram, a, b, m)` terms of Z_T(inputs): each choice of one
    diagram per box (in box order, the last box varying fastest) traced by
    `substitute_oracle`, its coefficient the product of the choice's
    coefficients in box order."""
    terms = []
    for choice in product(*(x.combo.items() for x in inputs)):
        filled = substitute_oracle(t, {
            b: Tangle(d.colour, [], [((EXT, p), (EXT, q)) for p, q in d.pairs])
            for b, (d, _) in enumerate(choice, 1)})
        out = Diagram(t.ext, [(p[1], q[1]) for p, q in filled.pairs])
        coeffs = [c for _, c in choice] or [ring.one()]
        prefix = reduce(mul, coeffs[:-1]) if len(coeffs) > 1 else None
        terms.append((out, prefix, coeffs[-1], filled.loops))
    return terms


def sharp_component(a: Element, b: Element, k: int, t: int) -> Element:
    """The P_t component of a # b at level k for a single pair of
    components: the per-filling oracle of the fused graded products."""
    return evaluate(sharp_tangle(a.colour.n, b.colour.n, k, t), [a, b])


_good_tangles = lru_cache(maxsize=None)(enumerate_good)    # built once per test session


def column_oracle(k, j, i, excellent, diagram, ring: Ring) -> Element:
    """A `phi`/`psi` column by the evaluate route, the oracle of
    `tower._column`'s capping walk: each `Tangle` of `enumerate_good`
    evaluated on the basis element of `diagram`, its terms signed and summed
    in tangle order."""
    x = Element.basis(diagram, ring)
    sign = ring.fraction(-1) if excellent and (i + j) % 2 == 1 else None
    return Element._sum(Colour.of(i), ring, [
        term for tangle in _good_tangles(k, j, i, excellent)
        for term in evaluate(tangle, [x])._terms(sign)])


def same_terms(x: Element, y: Element) -> bool:
    """Equal diagrams in equal order with equal coefficients: exact in
    every mode, so float coefficients agree bit for bit."""
    return (x.colour == y.colour and list(x.combo) == list(y.combo)
            and all((c.terms, c.value) == (e.terms, e.value)
                    for c, e in zip(x.combo.values(), y.combo.values())))


# one ring per mode; at delta 2.2 float powers round, so operation order shows
KERNEL_RINGS = (Ring.symbolic(), Ring.rational(Fraction(5, 2)), Ring.float_(2.2))


def random_coeff(ring: Ring, rng) -> Scalar:
    """A short Laurent polynomial, a small fraction or a float in [-2, 2]:
    float sums of such values round, so their order shows."""
    if ring.mode == SYMBOLIC:
        return Scalar.symbolic({rng.randint(-2, 2): rng.choice([-2, -1, 1, 3])
                                for _ in range(2)})
    if ring.mode == FLOAT:
        return ring.fraction(rng.uniform(-2, 2))
    return ring.fraction(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))


def random_combo(colour, ring: Ring, rng, terms: int = 4) -> Element:
    """Up to `terms` random diagrams of `colour` with `random_coeff`s."""
    basis = enumerate_diagrams(Colour.of(colour))
    return Element.from_terms(colour, ring, (
        (rng.choice(basis), random_coeff(ring, rng)) for _ in range(terms)))


# -- the Element route of the numeric layer: the oracle of its basis tables ---------


def gram_oracle(n: int, ring: Ring):
    """G[i][j] = tau(d_j* d_i), one Element product and trace per entry."""
    els = [Element.basis(d, ring) for d in enumerate_diagrams(n)]
    return [[ej.star().multiply(ei).tau() for ej in els] for ei in els]


def gns_oracle(x: Element):
    """Matrix of left multiplication by x, one Element product per column."""
    basis = enumerate_diagrams(x.colour.n)
    index = {d: i for i, d in enumerate(basis)}
    cols = []
    for d in basis:
        prod = x.multiply(Element.basis(d, x.ring))
        col = [x.ring.zero()] * len(basis)
        for dd, c in prod.combo.items():
            col[index[dd]] = c
        cols.append(col)
    return [[cols[j][i] for j in range(len(basis))] for i in range(len(basis))]


def gns_matrix_exact(x: Element):
    """The basis-table route of the GNS matrix as a matrix of Scalars: the
    entries of `analysis._gns_entries` (one kernel call), zeros filled in."""
    size = len(enumerate_diagrams(x.colour.n))
    mat = [[x.ring.zero()] * size for _ in range(size)]
    for (r, j), v in _gns_entries(x).items():
        mat[r][j] = v
    return mat


def ldl_positive_definite(n: int, delta) -> bool:
    """Exact LDL^T pivots of the Gram matrix at a rational delta, no row swaps."""
    ring = Ring.rational(Fraction(delta))
    g = [[s.value for s in row] for row in gram_oracle(n, ring)]
    size = len(g)
    for p in range(size):
        if g[p][p] <= 0:
            return False
        for i in range(p + 1, size):
            f = g[i][p] / g[p][p]
            for j in range(p, size):
                g[i][j] -= f * g[p][j]
    return True


def boundedness_constant_oracle(a: Element, k: int) -> float:
    """K = max_u delta^(k/2) ||c_u|| of `boundedness_verify`, by the square-root
    element: c_u = psd_sqrt(glued_u) and the SVD norm of its GNS operator."""
    m = a.colour.n
    big_k = 0.0
    for u in range(2 * k, 2 * m + 1):
        glued = evaluate(glue_tangle(m, 2 * m - u, 0), [a, a.star()])
        if not glued.is_zero():
            big_k = max(big_k, a.ring.delta ** (k / 2.0) * op_norm(psd_sqrt(glued)))
    return big_k


def row_reduce(mat, ncols: int) -> list:
    """Gauss-Jordan elimination of `mat` over the fractions, in place on its
    first `ncols` columns: the independent oracle of `analysis.eliminate`.

    Returns the pivot columns: row r has a 1 in the r-th of them, and rows
    past the last pivot row are zero on the first `ncols` columns.
    """
    rows = len(mat)
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, rows) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][c]
        mat[r] = [Fraction(v) / pv for v in mat[r]]
        for i in range(rows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        piv_cols.append(c)
        r += 1
    return piv_cols


def gauss_solve_in_place(cols, target):
    """The exact solve of cols.w = target that eliminates [cols | target] in
    place; free unknowns at zero, None when the target is not in the image."""
    rows, ncols = len(target), len(cols)
    aug = [[cols[j][i] for j in range(ncols)] + [target[i]] for i in range(rows)]
    piv_cols = row_reduce(aug, ncols)
    if any(aug[i][ncols] for i in range(len(piv_cols), rows)):
        return None
    sol = [Fraction(0)] * ncols
    for ri, c in enumerate(piv_cols):
        sol[c] = aug[ri][ncols]
    return sol


# -- the through-map recursion: the oracle of the good annular wirings' order ------


def _through_maps(k: int, j: int, i: int):
    """Strictly increasing maps {1..2i} -> {1..2j} with even gaps and the
    last 2k points pinned; yields (values, gap intervals)."""
    free_targets = 2 * (j - k)
    free_sources = 2 * (i - k)
    pinned = [2 * j - r for r in range(2 * k - 1, -1, -1)]

    def rec(s, lo):
        # choose g(s), g(s+1), ... from lo.. with parity matching s
        if s > free_sources:
            yield []
            return
        start = lo if (lo - s) % 2 == 0 else lo + 1
        for v in range(start, free_targets + 1, 2):
            for rest in rec(s + 1, v + 1):
                yield [v] + rest

    for head in rec(1, 1):
        values = head + pinned
        gaps = []
        prev = 0
        for v in head:
            gaps.append(list(range(prev + 1, v)))
            prev = v
        gaps.append(list(range(prev + 1, free_targets + 1)))
        yield values, gaps


def good_wirings_oracle(k: int, j: int, i: int, excellent: bool) -> tuple:
    """`annular.good_wirings` by recursion over the through maps, each map's
    gap matchings in product order (the first gap slowest)."""
    def adjacent(points):
        return [[(points[r], points[r + 1]) for r in range(0, len(points), 2)]]
    match = adjacent if excellent else _matchings
    box = 2 * i - 1
    out = []
    for values, gaps in _through_maps(k, j, i):
        wiring = [None] * (2 * i + 2 * j)
        for s, v in enumerate(values):
            wiring[s], wiring[box + v] = box + v, s
        for choice in product(*map(match, gaps)):
            for matching in choice:
                for a, b in matching:
                    wiring[box + a], wiring[box + b] = box + b, box + a
            out.append(tuple(wiring))
    return tuple(out)


def double_cup_oracle(t: int, k: int, double_slot: int) -> Tangle:
    """`annular.annular_double_cup` with its caps laid out by walking the
    slots: two points per single cup, four for the double cup."""
    pairs = []
    pos = 1
    for slot in range(1, t - k):
        if slot == double_slot:
            pairs += [((EXT, pos), (EXT, pos + 3)), ((EXT, pos + 1), (EXT, pos + 2))]
            pos += 4
        else:
            pairs.append(((EXT, pos), (EXT, pos + 1)))
            pos += 2
    pairs += [((EXT, 2 * (t - k) + j), (1, j)) for j in range(1, 2 * k + 1)]
    return Tangle(t, [k], pairs)


# -- random tangles for the property tests ------------------------------------------

TANGLE_COLOURS = ("0+", "0-", 1, 2, 3)


def _random_nc_matching(points: list, rng) -> list:
    """A random non-crossing perfect matching of a cyclic sequence of points."""
    if not points:
        return []
    k = 2 * rng.randrange(len(points) // 2) + 1
    return ([(points[0], points[k])] + _random_nc_matching(points[1:k], rng)
            + _random_nc_matching(points[k + 1:], rng))


def random_tangle(rng, ext=None) -> Tangle:
    """0-4 boxes of colours 0_+, 0_-, 1-3 and 0-2 loops.

    With probability 3/4 the strands are a uniformly random matching of all
    points, which is mostly not planar.  Otherwise each box's points, read
    counterclockwise from a random start, are spliced into the external
    points at a random place, and a non-crossing matching of that cyclic
    sequence is taken, which is planar.
    """
    ext = Colour.of(rng.choice(TANGLE_COLOURS) if ext is None else ext)
    boxes = [Colour.of(rng.choice(TANGLE_COLOURS)) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.75:
        points = [(b, i) for b, colour in enumerate([ext] + boxes)
                  for i in range(1, colour.points + 1)]
        rng.shuffle(points)
        pairs = list(zip(points[::2], points[1::2]))
    else:
        points = [(EXT, i) for i in range(1, ext.points + 1)]
        for b, colour in enumerate(boxes, 1):
            size = colour.points
            start = rng.randrange(size) if size else 0
            at = rng.randint(0, len(points))
            points[at:at] = [(b, (start - j) % size + 1) for j in range(size)]
        pairs = _random_nc_matching(points, rng)
    return Tangle(ext, boxes, pairs, rng.randint(0, 2))


# -- graph walks over tagged points: the oracles of the tangle point numbering -----


def wiring_oracle(t: Tangle):
    """The point numbering recomputed from the pairs: external points first,
    then each box's in order.  Returns the first id of every boundary (box 0
    is the external one) and the partner of every id, both as tuples."""
    offsets = [0]
    npts = t.ext.points
    for b in t.boxes:
        offsets.append(npts)
        npts += b.points
    wiring = [0] * npts
    for (b1, i1), (b2, i2) in t.pairs:
        p, q = offsets[b1] + i1 - 1, offsets[b2] + i2 - 1
        wiring[p], wiring[q] = q, p
    return tuple(offsets), tuple(wiring)


def planarity_oracle(t: Tangle):
    """The rotation-system check: three darts per marked point, its own
    union-find; raises ValidationError on a non-planar tangle."""
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


def substitute_oracle(outer: Tangle, assignments: dict) -> Tangle:
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
