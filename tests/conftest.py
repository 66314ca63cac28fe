import random
from fractions import Fraction

import pytest

from planalg.diagrams import Colour, Diagram, enumerate_diagrams
from planalg.elements import Element
from planalg.scalars import Ring


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
