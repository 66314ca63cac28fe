from fractions import Fraction

import pytest

from planalg.diagrams import ZERO_MINUS, Diagram, enumerate_diagrams, identity_diagram
from planalg.elements import Element, Family, contract_terms, jones_projection, tl_sum
from planalg.config import COLOUR_CAP
from planalg.errors import (ColourMismatchError, ModeMismatchError, ParseError,
                            ValidationError)
from planalg.scalars import Ring, Scalar
from planalg.tangles import (evaluate, evaluate_in, multiplication_tangle,
                             trace_tangle, validate)
from planalg import random_element
from planalg.tower import GradedElement
from conftest import (KERNEL_RINGS, _closure_loops, _stack, per_term_evaluate,
                      per_term_multiply, per_term_sum, random_coeff, random_combo,
                      random_tangle, same_terms)

CUP2 = Diagram(2, [(1, 2), (3, 4)])


def test_cup_squares_to_delta_cup(sym):
    x = Element.basis(CUP2, sym)
    assert x.multiply(x) == x.scale(sym.delta_power(1))


def test_unit_law(sym, rng):
    for n in (1, 2, 3):
        one = Element.unit(n, sym)
        for _ in range(10):
            x = random_element(n, sym, rng)
            assert one.multiply(x) == x
            assert x.multiply(one) == x


def test_multiply_associative_against_tangle_oracle(sym, rng):
    # the standard multiplication tangle checks the product's own wiring
    for n in (2, 3):
        m_tangle = multiplication_tangle(n)
        for _ in range(30):
            x, y, z = (random_element(n, sym, rng) for _ in range(3))
            assert x.multiply(y) == evaluate(m_tangle, [x, y])
            assert x.multiply(y).multiply(z) == x.multiply(y.multiply(z))


def test_multiply_matches_stacking_oracle(sym):
    for n in range(5):
        for d1 in enumerate_diagrams(n):
            for d2 in enumerate_diagrams(n):
                diagram, loops = _stack(d2, d1, n)
                product = Element.basis(d1, sym).multiply(Element.basis(d2, sym))
                assert product.combo == {diagram: sym.delta_power(loops)}


def test_tau_matches_closure_oracle(sym):
    for n in range(6):
        for d in enumerate_diagrams(n):
            assert Element.basis(d, sym).tau() \
                == sym.delta_power(_closure_loops(d) - n)


def test_multiply_keeps_shading_of_colour_zero(sym):
    x = Element.unit(ZERO_MINUS, sym)
    assert x.multiply(x) == x


def test_colour_mismatch(sym):
    with pytest.raises(ColourMismatchError):
        Element.unit(2, sym).multiply(Element.unit(3, sym))


def test_tau_examples(sym):
    assert Element.unit(2, sym).tau() == sym.one()
    e2 = jones_projection(2, sym)
    assert e2.tau() == sym.delta_power(-2)


def test_tau_loop_count_oracle(sym, rng):
    # the standard closure tangle checks the trace's own wiring
    for n in (1, 2, 3, 4):
        closure = trace_tangle(n)
        empty = Diagram(0, ())
        for _ in range(10):
            x = random_element(n, sym, rng)
            closed = evaluate(closure, [x])
            expected = closed.combo.get(empty, sym.zero()).delta_pow(-n)
            assert x.tau() == expected


def test_tau_reflection_invariance(sym, rng):
    for n in (2, 3, 4):
        for _ in range(10):
            x = random_element(n, sym, rng)
            assert x.tau() == x.star().tau()


def test_tau_tracial(sym, rng):
    for _ in range(20):
        x, y = random_element(3, sym, rng), random_element(3, sym, rng)
        assert x.multiply(y).tau() == y.multiply(x).tau()


def test_star_involution(sym, rng):
    for n in (2, 3):
        for _ in range(10):
            x = random_element(n, sym, rng)
            assert x.star().star() == x
            assert Element.unit(n, sym).star() == Element.unit(n, sym)
    # reflecting the colour-2 cup gives itself
    assert Element.basis(CUP2, sym).star() == Element.basis(CUP2, sym)


def test_star_antimultiplicative(sym, rng):
    for _ in range(15):
        x, y = random_element(3, sym, rng), random_element(3, sym, rng)
        assert x.multiply(y).star() == y.star().multiply(x.star())


def test_gram_entries_p2(sym):
    one, cup = Element.unit(2, sym), Element.basis(CUP2, sym)
    assert one.inner(one) == sym.one()
    assert cup.inner(cup) == sym.one()
    assert one.inner(cup) == sym.delta_power(-1)


def test_jones_projection_properties(sym):
    for n in (2, 3, 4):
        e = jones_projection(n, sym)
        assert e.multiply(e) == e
        assert e.star() == e


def test_tl_sum(sym):
    t3 = tl_sum(3, sym)
    assert len(t3.combo) == 5
    assert all(c == sym.one() for c in t3.combo.values())


def test_json_roundtrip(sym, rng):
    for ring in (sym, Ring.rational(Fraction(5, 2)), Ring.float_(2.0)):
        x = random_element(3, ring, rng)
        back = Element.from_json(x.to_json())
        assert back == x
    zero_plus = Element.unit(0, sym)
    assert Element.from_json(zero_plus.to_json(), sym) == zero_plus


def cup2_term(coeff):
    return {"pairs": [[1, 2], [3, 4]], "coeff": coeff.to_json()}


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda ring: ring.mode)
def test_from_json_adds_a_repeated_diagram(ring):
    # the old loader kept only the last coefficient of D2(1-2,3-4): 2, not 3
    data = {"colour": 2, "terms": [cup2_term(ring.fraction(1)),
                                   cup2_term(ring.fraction(2))]}
    assert Element.from_json(data).combo == {CUP2: ring.fraction(3)}
    data["terms"].append(cup2_term(ring.fraction(-3)))
    assert Element.from_json(data, ring).is_zero()


def test_from_json_keeps_its_checks(sym):
    rat = Ring.rational(2)
    mixed = [cup2_term(sym.one()), cup2_term(rat.one())]
    with pytest.raises(ModeMismatchError):
        Element.from_json({"colour": 2, "terms": mixed})
    with pytest.raises(ModeMismatchError):
        Element.from_json({"colour": 2, "terms": mixed[1:]}, sym)
    with pytest.raises(ParseError):
        Element.from_json({"colour": COLOUR_CAP + 1, "terms": []})


def test_from_terms_merges_duplicates_and_drops_zeros(sym):
    one, d = identity_diagram(2), sym.delta_power(1)
    x = Element.from_terms(2, sym, [(CUP2, d), (one, sym.one()), (CUP2, d),
                                    (one, -sym.one())])
    assert x.combo == {CUP2: d + d}
    assert Element.from_terms(2, sym, []) == Element.zero(2, sym)


def test_from_terms_checks_colour_and_mode(sym):
    with pytest.raises(ColourMismatchError):
        Element.from_terms(2, sym, [(Diagram(1, [(1, 2)]), sym.one())])
    with pytest.raises(ModeMismatchError):
        Element.from_terms(2, sym, [(CUP2, Ring.rational(2).one())])
    with pytest.raises(ModeMismatchError):
        Element.from_terms(2, sym, [(CUP2, sym.one()),
                                    (CUP2, Ring.rational(2).one())])


# -- the sum-of-products kernels against the per-term route ------------------------


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda ring: ring.mode)
def test_sums_match_per_term_route(ring, rng):
    # P_1 has one diagram and P_2 two, so most keys meet many terms (float
    # sums of them round, so their order shows) and a negated term cancels
    def terms(*xs):
        return [(d, None, c, 0) for x in xs for d, c in x.combo.items()]

    for n in (1, 2, 3):
        basis = enumerate_diagrams(n)
        for _ in range(10):
            x, y = (random_combo(n, ring, rng, terms=3) for _ in range(2))
            assert same_terms(x + y, per_term_sum(n, ring, terms(x, y)))
            assert same_terms(x - y, per_term_sum(n, ring, terms(x, -y)))
            assert (x - x).is_zero()
            pairs = [(rng.choice(basis), random_coeff(ring, rng)) for _ in range(8)]
            pairs.append((pairs[0][0], -pairs[0][1]))
            assert same_terms(Element.from_terms(n, ring, pairs),
                              per_term_sum(n, ring, [(d, None, c, 0) for d, c in pairs]))
            parts = [random_combo(rng.randint(1, 3), ring, rng) for _ in range(6)]
            graded = GradedElement.from_parts(1, ring, parts)
            for i in range(1, 4):
                expected = per_term_sum(i, ring, terms(*(p for p in parts
                                                         if p.colour.n == i)))
                assert same_terms(graded.component(i), expected)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda ring: ring.mode)
def test_equality_is_the_difference_test(ring, rng):
    # `==` compares coefficients; the definition it replaces, a zero
    # difference after the colour (or level) test, is the oracle
    def old_eq(x, y):
        if isinstance(x, Element):
            return x.colour == y.colour and (x - y).is_zero()
        return x.level == y.level and (x - y).is_zero()

    def agree(x, y):
        assert (x == y) == old_eq(x, y) and (y == x) == old_eq(y, x)
        return x == y

    other = KERNEL_RINGS[(KERNEL_RINGS.index(ring) + 1) % len(KERNEL_RINGS)]
    for n in (1, 2, 3):
        basis = enumerate_diagrams(n)
        for _ in range(6):
            x = random_combo(n, ring, rng)
            d = rng.choice(basis)
            # equal, in another key order
            assert agree(x, Element.from_terms(n, ring, list(x.combo.items())[::-1]))
            # one key moved by 0.5e-9 (equal in float mode only) or by 2e-9
            assert agree(x, x + Element.basis(d, ring, ring.fraction(
                Fraction(1, 2 * 10**9)))) == (ring.mode == "float")
            for h in (2, -2):
                assert not agree(x, x + Element.basis(d, ring, ring.fraction(
                    Fraction(h, 10**9))))
            # other supports
            for y in (x + Element.basis(d, ring), Element.zero(n, ring),
                      Element.from_terms(n, ring, list(x.combo.items())[1:]),
                      random_combo(n, ring, rng)):
                agree(x, y)
            for y in (random_combo(n + 1, ring, rng), Element.unit(n - 1, ring)):
                assert x != y and old_eq(x, y) is False
            y = random_combo(n, other, rng)
            with pytest.raises(ModeMismatchError):
                x == y
            with pytest.raises(ModeMismatchError):
                old_eq(x, y)
    zero = Element.zero(0, ring)
    assert agree(zero, zero) and not agree(zero, Element.zero(ZERO_MINUS, ring))
    for k in (0, 1, 2):
        for _ in range(4):
            a, b = (GradedElement.from_parts(k, ring, (
                random_combo(n, ring, rng, terms=2) for n in range(k, k + 3)
                if rng.random() < 0.7)) for _ in range(2))
            assert agree(a, a + b - b)
            agree(a, b)
            agree(a, a + GradedElement.unit(k, ring))
            assert not agree(a, GradedElement.unit(k + 1, ring))
            if a.components:
                y = GradedElement.from_parts(k, other, [
                    Element.unit(n, other) for n in a.components])
                with pytest.raises(ModeMismatchError):
                    a == y
                with pytest.raises(ModeMismatchError):
                    old_eq(a, y)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda ring: ring.mode)
def test_multiply_matches_per_term_route(ring, rng):
    for n in (1, 2, 3, 4):
        for _ in range(8):
            x, y = random_combo(n, ring, rng), random_combo(n, ring, rng)
            assert same_terms(x.multiply(y), per_term_multiply(x, y))


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda ring: ring.mode)
def test_contract_and_evaluate_match_per_term_route(ring, rng):
    # random planar tangles with 0-4 boxes, so prefix products of up to
    # three coefficients and the no-box case all occur
    checked = 0
    while checked < 60:
        t = random_tangle(rng)
        try:
            validate(t)
        except ValidationError:
            continue
        inputs = [random_combo(b, ring, rng, terms=3) for b in t.boxes]
        expected = per_term_evaluate(t, inputs, ring)
        assert same_terms(evaluate_in(t, inputs, ring), expected)
        assert same_terms(Element._sum(t.ext, ring, contract_terms(
            Family(t.family.members, t.boxes, t.loops), ring, inputs, [])), expected)
        checked += 1
