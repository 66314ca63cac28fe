"""Annular tangle families: T(k,A,B), X, Y, Z, and the good/excellent classes.

All constructors produce combinatorially explicit tangles (planar by
construction, still checked by `validate` in the tests).  T(k,A,B)^m_n maps
P_n to P_m; X^n_k = T(k,{},{})^n_k; Y^t_k and Z^t_k carry one nested double
cup, in the first and the last slot; `annular_double_cup` takes any slot.
A k-good (j,i) tangle is an increasing choice of free box points for its
through strands, every gap even, with a non-crossing matching in each gap
(adjacent if k-excellent): in lexicographic order, the first gap slowest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product

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
    p = 2 * double_slot - 1
    return [(p, p + 3), (p + 1, p + 2)] + [(q, q + 1) for q in range(1, 2 * (t - k), 2)
                                           if not p <= q <= p + 2]


@lru_cache(maxsize=None)
def annular_double_cup(t: int, k: int, double_slot: int) -> Tangle:
    """The annular P_k -> P_t tangle with one nested double cup."""
    pairs = [((EXT, a), (EXT, b)) for a, b in _cup_layout(t, k, double_slot)]
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


@lru_cache(maxsize=None)
def good_wirings(k: int, j: int, i: int, excellent: bool = False) -> tuple:
    """The `Tangle.wiring` of every k-good (j,i)-annular tangle, in
    `enumerate_good`'s order; with `excellent`, forbid nested caps.

    The first 2(i-k) external points go through to an increasing choice of
    the 2(j-k) free box points with every gap even, the last 2k to the last
    2k; caps fill each gap with a non-crossing matching (the adjacent pairing
    when `excellent`).  The choices run in lexicographic order, the first
    gap's matching varying slowest.  No tangle has a free loop, and none is
    built; `phi`/`psi` enumerate none of them (see `tower._column`).
    """
    if not k <= i <= j:
        raise PreconditionError("need k <= i <= j")
    free = 2 * (j - k)
    box = 2 * i - 1         # box point v has id box + v
    out = []
    for head in combinations(range(1, free + 1), 2 * (i - k)):
        if any((v - s) % 2 for s, v in enumerate(head, 1)):
            continue                                    # an odd gap
        wiring = [None] * (2 * i + 2 * j)
        for s, v in enumerate(head + tuple(range(free + 1, 2 * j + 1))):
            wiring[s], wiring[box + v] = box + v, s
        ends = (0,) + head + (free + 1,)
        gaps = [tuple(range(a + 1, b)) for a, b in zip(ends, ends[1:])]
        for choice in product(*([list(zip(gap[::2], gap[1::2]))] if excellent
                                else _matchings(gap) for gap in gaps)):
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
