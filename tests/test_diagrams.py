import itertools

import pytest
from hypothesis import given, settings, strategies as st

from planalg.diagrams import (Colour, Diagram, ZERO_MINUS, ZERO_PLUS, catalan,
                              enumerate_diagrams, identity_diagram)
from planalg.elements import Element
from planalg.errors import PreconditionError, ValidationError
from planalg.scalars import Ring
from planalg.tangles import evaluate, rotation_tangle
from planalg import config


def brute_force_noncrossing(n):
    """Independent oracle: all perfect matchings of 1..2n, filtered."""
    points = list(range(1, 2 * n + 1))

    def matchings(pts):
        if not pts:
            yield []
            return
        first = pts[0]
        for j in range(1, len(pts)):
            for rest in matchings(pts[1:j] + pts[j + 1:]):
                yield [(first, pts[j])] + rest

    def crossing(m):
        for (a, b), (c, d) in itertools.combinations(
                [(min(p), max(p)) for p in m], 2):
            if a < c < b < d or c < a < d < b:
                return True
        return False

    return [m for m in matchings(points) if not crossing(m)]


@pytest.mark.parametrize("n", range(6))
def test_enumeration_matches_brute_force(n):
    ours = enumerate_diagrams(n)
    oracle = brute_force_noncrossing(n)
    assert len(ours) == len(oracle) == catalan(n)
    assert {tuple(sorted((min(p), max(p)) for p in m)) for m in oracle} \
        == {d.pairs for d in ours}


def test_trivial_counts():
    assert len(enumerate_diagrams("0+")) == 1
    assert enumerate_diagrams(1)[0].pairs == ((1, 2),)
    assert len(enumerate_diagrams(3)) == 5


def test_enumeration_deterministic_order():
    first = [d.pairs for d in enumerate_diagrams(4)]
    second = [d.pairs for d in enumerate_diagrams(4)]
    assert first == second == sorted(first)


def test_colour_zero_rules():
    assert Colour.of(0) == ZERO_PLUS          # bare 0 resolves to 0+
    assert Colour.of("0-") == ZERO_MINUS
    assert Colour.of("0+") != ZERO_MINUS
    assert len(enumerate_diagrams(ZERO_MINUS)) == 1
    with pytest.raises(PreconditionError):
        Colour(3, minus=True)


def test_colour_cap():
    old = config.COLOUR_CAP
    try:
        config.set_colour_cap(4)
        with pytest.raises(PreconditionError):
            enumerate_diagrams(5)
    finally:
        config.set_colour_cap(old)


def test_crossing_rejected():
    with pytest.raises(ValidationError):
        Diagram(2, [(1, 3), (2, 4)])
    with pytest.raises(ValidationError):
        Diagram(2, [(1, 2), (3, 3)])
    with pytest.raises(ValidationError):
        Diagram(2, [(1, 2)])
    for pairs in ([(1.0, 4.0), (2.0, 3.0)], [(1, 4, 2), (2, 3)],
                  [(True, 4), (2, 3)], [1, (2, 3)]):
        with pytest.raises(ValidationError):
            Diagram(2, pairs)


def test_equal_parity_pair_rejected():
    with pytest.raises(ValidationError):
        Diagram(2, [(1, 3), (2, 4)])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 5), st.integers(0, 10 ** 6))
def test_reflection_involution(n, pick):
    basis = enumerate_diagrams(n)
    d = basis[pick % len(basis)]
    assert d.reflect().reflect() == d
    assert d.reflect().colour == d.colour


def test_reflection_is_the_interned_mirror_kept_on_the_diagram():
    for n in range(5):
        for d in enumerate_diagrams(n):
            m = 2 * n + 1
            mirror = Diagram(n, [(m - b, m - a) for a, b in d.pairs])
            assert d.reflect() is mirror and d.reflect() is d.reflect()
            assert d.reflect().reflect() is d
    for colour in (ZERO_PLUS, ZERO_MINUS):
        (empty,) = enumerate_diagrams(colour)
        assert empty.reflect() is empty


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 10 ** 6), st.integers(-5, 5))
def test_rotation_by_strand_pairs_stays_noncrossing(n, pick, r):
    # rotation_tangle(n, r) moves every point p to p + 2r (mod 2n)
    sym = Ring.symbolic()
    basis = enumerate_diagrams(n)
    d = basis[pick % len(basis)]
    (rotated, coeff), = evaluate(rotation_tangle(n, r),
                                 [Element.basis(d, sym)]).combo.items()
    move = lambda p: (p - 1 + 2 * r) % (2 * n) + 1
    assert rotated in basis and coeff == sym.one()
    assert rotated.pairs == tuple(sorted(tuple(sorted((move(a), move(b))))
                                         for a, b in d.pairs))


def test_identity_diagram():
    assert identity_diagram(3).pairs == ((1, 6), (2, 5), (3, 4))
    assert identity_diagram(0).pairs == ()


def test_one_shared_colour_per_value():
    import pickle
    assert Colour.of(3) is Colour(3)
    assert Colour.of("0-") is ZERO_MINUS and Colour.of("0+") is ZERO_PLUS
    assert Colour.of(0) is ZERO_PLUS and ZERO_PLUS is not ZERO_MINUS
    for colour in (Colour(4), ZERO_MINUS):
        assert pickle.loads(pickle.dumps(colour)) is colour
        assert hash(colour) == object.__hash__(colour)     # by identity
    for bad in ((-1,), (2, True)):
        for _ in range(2):          # a rejected value is never kept
            with pytest.raises(PreconditionError):
                Colour(*bad)


def test_pickling_returns_the_shared_instance_at_every_protocol():
    import pickle
    values = (Colour(4), ZERO_PLUS, ZERO_MINUS, Diagram(2, [(1, 4), (2, 3)]),
              identity_diagram(0), identity_diagram(ZERO_MINUS))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for value in values:
            assert pickle.loads(pickle.dumps(value, protocol)) is value
