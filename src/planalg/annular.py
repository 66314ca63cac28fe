"""Annular tangle families: T(k,A,B), X, Y, Z, and the good/excellent classes.

All constructors produce combinatorially explicit tangles (planar by
construction, still checked by `validate` in the tests).  T(k,A,B)^m_n maps
P_n to P_m; X^n_k = T(k,{},{})^n_k; Y^t_k and Z^t_k carry one nested double
cup, in the first and the last slot; `annular_double_cup` takes any slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .diagrams import _matchings
from .errors import ColourMismatchError, PreconditionError
from .tangles import EXT, Tangle


def _interval(lo: int, hi: int) -> frozenset:
    return frozenset(range(lo, hi + 1))


@dataclass(frozen=True)
class TSpec:
    """Parameters of T(k,A,B)^m_n: through pairs A (external), B (internal)."""

    k: int
    A: frozenset
    B: frozenset
    m: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "A", frozenset(self.A))
        object.__setattr__(self, "B", frozenset(self.B))
        if len(self.A) != len(self.B):
            raise PreconditionError("|A| and |B| must agree")
        if self.m < self.k or self.n < self.k:
            raise PreconditionError("both colours must be at least k")
        if not self.A <= _interval(1, self.m - self.k):
            raise PreconditionError(f"A must lie in 1..{self.m - self.k}")
        if not self.B <= _interval(1, self.n - self.k):
            raise PreconditionError(f"B must lie in 1..{self.n - self.k}")

    def bijection(self) -> dict:
        """The unique strictly increasing map A -> B."""
        return dict(zip(sorted(self.A), sorted(self.B)))

    @classmethod
    def identity(cls, k: int, m: int) -> "TSpec":
        return cls(k, _interval(1, m - k), _interval(1, m - k), m, m)


@lru_cache(maxsize=None)
def annular_T(spec: TSpec) -> Tangle:
    k, m, n = spec.k, spec.m, spec.n
    f = spec.bijection()
    pairs = []
    for alpha, beta in f.items():
        pairs.append(((EXT, 2 * alpha - 1), (1, 2 * beta - 1)))
        pairs.append(((EXT, 2 * alpha), (1, 2 * beta)))
    for j in range(1, 2 * k + 1):
        pairs.append(((EXT, 2 * (m - k) + j), (1, 2 * (n - k) + j)))
    for beta in _interval(1, n - k) - spec.B:
        pairs.append(((1, 2 * beta - 1), (1, 2 * beta)))
    for alpha in _interval(1, m - k) - spec.A:
        pairs.append(((EXT, 2 * alpha - 1), (EXT, 2 * alpha)))
    return Tangle(m, [n], pairs)


def annular_X(n: int, k: int) -> Tangle:
    """X^n_k: n-k cups above a through 2k-cable; X^k_k is the identity."""
    return annular_T(TSpec(k, frozenset(), frozenset(), n, k))


def compose_T(first: TSpec, second: TSpec):
    """Composite Z_first o Z_second = delta^e Z_result, computed on parameters.

    `first` maps P_n -> P_m and `second` maps P_p -> P_n.
    """
    if first.k != second.k:
        raise PreconditionError("annular levels must agree")
    if first.n != second.m:
        raise ColourMismatchError(
            f"middle colours disagree: {first.n} vs {second.m}")
    k = first.k
    B, C = first.B, second.A
    meet = B & C
    f_ab_inv = {b: a for a, b in first.bijection().items()}
    f_cd = second.bijection()
    E = frozenset(f_ab_inv[x] for x in meet)
    F = frozenset(f_cd[x] for x in meet)
    exponent = first.n - k - len(B | C)
    result = TSpec(k, E, F, first.m, second.n)
    return exponent, result


def _cup_layout(t: int, k: int, double_slot: int):
    """Caps for t-k-2 single cups plus one double cup in the given slot."""
    if t < k + 2:
        raise PreconditionError("double-cup tangles need colour >= k+2")
    slots = t - k - 1
    if not 1 <= double_slot <= slots:
        raise PreconditionError(f"double cup slot must lie in 1..{slots}")
    caps = []
    pos = 1
    for slot in range(1, slots + 1):
        if slot == double_slot:
            caps.append((pos, pos + 3))
            caps.append((pos + 1, pos + 2))
            pos += 4
        else:
            caps.append((pos, pos + 1))
            pos += 2
    return caps


@lru_cache(maxsize=None)
def annular_double_cup(t: int, k: int, double_slot: int) -> Tangle:
    """The annular P_k -> P_t tangle with one nested double cup."""
    caps = _cup_layout(t, k, double_slot)
    pairs = [((EXT, a), (EXT, b)) for a, b in caps]
    pairs += [((EXT, 2 * (t - k) + j), (1, j)) for j in range(1, 2 * k + 1)]
    return Tangle(t, [k], pairs)


def annular_Y(t: int, k: int) -> Tangle:
    """Y^t_k: double cup in the first slot (the placement the replay pins)."""
    return annular_double_cup(t, k, 1)


def annular_Z(t: int, k: int) -> Tangle:
    """Z^t_k: double cup in the last slot."""
    return annular_double_cup(t, k, t - k - 1)


def transpose_annular(t: Tangle) -> Tangle:
    """Exchange the two boundaries of an annular tangle (turn it inside out).

    For T: P_n -> P_m the tau-adjoint of Z_T is delta^(n-m) Z_T' with T'
    this transpose: <Z_T(x), y> = delta^(n-m) <x, Z_T'(y)> in the tau inner
    products of P_m and P_n.
    """
    if len(t.boxes) != 1:
        raise PreconditionError("transpose_annular applies to one-box tangles")

    def swap(point):
        b, p = point
        return (1, p) if b == EXT else (EXT, p)

    return Tangle(t.boxes[0], [t.ext],
                  [(swap(p), swap(q)) for p, q in t.pairs], t.loops)


# -- good and excellent annular tangles -------------------------------------------


def _adjacent_matching(points):
    return [[(points[r], points[r + 1]) for r in range(0, len(points), 2)]]


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


@lru_cache(maxsize=None)
def good_wirings(k: int, j: int, i: int, excellent: bool = False) -> tuple:
    """The `Tangle.wiring` of every k-good (j,i)-annular tangle, in
    `enumerate_good`'s order; with `excellent`, forbid nested caps.

    Through strands join external point s to box point g(s) for each map g
    of `_through_maps`; caps fill the gaps between consecutive through
    attachments with non-crossing matchings (exactly the adjacent pairing
    when `excellent`), the first gap varying slowest.  No tangle has a free
    loop, and none is built: `phi`/`psi` trace these wirings directly.
    """
    if not k <= i <= j:
        raise PreconditionError("need k <= i <= j")
    match = _adjacent_matching if excellent else _matchings
    box = 2 * i - 1         # box point v has id box + v
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


def enumerate_good(k: int, j: int, i: int, excellent: bool = False):
    """All k-good (j,i)-annular tangles (k-excellent with `excellent`), built
    from `good_wirings` in its order."""
    def point(p):
        return (EXT, p + 1) if p < 2 * i else (1, p - 2 * i + 1)
    return [Tangle(i, [j], [(point(p), point(q)) for p, q in enumerate(wiring) if p < q])
            for wiring in good_wirings(k, j, i, excellent)]
