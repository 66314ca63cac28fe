import random
from collections import Counter
from fractions import Fraction

import pytest

from planalg.diagrams import ZERO_MINUS, Diagram, enumerate_diagrams, identity_diagram
from planalg import annular, elements, tangles, tower
from planalg.analysis import cnk_membership
from planalg.elements import Element, jones_projection
from planalg.errors import (ColourMismatchError, LevelMismatchError,
                            ModeMismatchError, PreconditionError)
from planalg.scalars import Ring, Scalar
from planalg.tangles import (evaluate, inclusion_tangle, multiplication_tangle,
                             right_expectation_tangle, rotation_tangle,
                             substitute, identity_tangle)
from planalg.tower import (GradedElement, bullet, cond_expect,
                           dagger, dot_action, dot_action_via_expectation,
                           dot_range, dot_tangle, element_c, element_d,
                           include, inner_product, jones_e, phi,
                           psi, sharp, sharp_range,
                           sharp_tangle, trace_Tr, trace_tk, hk_norm_squared,
                           _column)
from planalg import random_element, random_graded
from planalg.annular import enumerate_good

from conftest import (KERNEL_RINGS, column_oracle, dagger_oracle, expect_oracle,
                      include_oracle, per_term_fillings, per_term_sum, random_combo,
                      same_terms, sharp_component)

CUP2 = Diagram(2, [(1, 2), (3, 4)])


def graded(k, element):
    return GradedElement.of_element(k, element)


# -- the level frame and restriction identities -----------------------------------


def test_sharp_restricts_to_multiplication(sym):
    for k in (1, 2, 3):
        for a in enumerate_diagrams(k):
            for b in enumerate_diagrams(k):
                ea, eb = Element.basis(a, sym), Element.basis(b, sym)
                assert sharp_component(ea, eb, k, k) == ea.multiply(eb)


def test_dagger_restricts_to_star(sym, rng):
    # on P_k, the level-k colour, dagger is * and adds no other colour
    for k in (1, 2, 3):
        for d in enumerate_diagrams(k):
            el = Element.basis(d, sym)
            assert dagger(graded(k, el)) == graded(k, el.star())
    for ring in KERNEL_RINGS:
        for k in (0, 1, 2, 3):
            x = random_combo(k, ring, rng)
            assert dagger(graded(k, x)) == graded(k, x.star())


def test_trace_restricts_to_tau(sym, rng):
    for k in (0, 1, 2):
        x = random_element(k, sym, rng)
        assert trace_tk(graded(k, x)) == x.tau()


def test_include_restricts_to_inclusion_tangle(sym):
    for k in (1, 2, 3):
        for d in enumerate_diagrams(k - 1):
            el = Element.basis(d, sym)
            assert include(graded(k - 1, el)).component(k) \
                == evaluate(inclusion_tangle(k - 1), [el])


def test_expectation_restricts_to_er(sym):
    for k in (1, 2, 3):
        for d in enumerate_diagrams(k):
            el = Element.basis(d, sym)
            assert cond_expect(graded(k, el)).component(k - 1) \
                == evaluate(right_expectation_tangle(k, 1),
                            [el]).scale(sym.delta_power(-1))


def test_dagger_is_rotated_star(sym, rng):
    # the per-term relabeling is the k-fold rotation of the adjoint
    for k in (1, 2):
        for m in (k, k + 1, k + 2):
            rot = rotation_tangle(m)
            for _ in range(5):
                x = random_element(m, sym, rng)
                y = x.star()
                for _ in range(k):
                    y = evaluate(rot, [y])
                assert dagger_oracle(x, k) == y


@pytest.mark.parametrize("ring", [Ring.symbolic(), Ring.rational(Fraction(5, 2))],
                         ids=["symbolic", "rational"])
def test_tower_tangles_match_relabelings(ring):
    rng = random.Random(7)
    for k in range(4):
        for _ in range(4):
            a = random_graded(k, k + 3, ring, rng)
            assert dagger(a) == GradedElement(
                k, ring, {m: dagger_oracle(el, k) for m, el in a.components.items()})
            assert include(a) == GradedElement(
                k + 1, ring,
                {n + 1: include_oracle(el, k + 1) for n, el in a.components.items()})
            if k:
                assert cond_expect(a) == GradedElement(
                    k - 1, ring,
                    {n - 1: expect_oracle(el, k) for n, el in a.components.items()})


def test_tower_operations_reuse_their_diagrams(sym, monkeypatch):
    a = random_graded(2, 5, sym, random.Random(3))
    for op in (dagger, include, cond_expect):
        op(a)
    built = []
    init = Diagram.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Diagram, "__init__", counting)
    for op in (dagger, include, cond_expect):
        op(a)
    assert built == []


# -- product structure ----------------------------------------------------------


def test_sharp_unit_and_single_component(sym, rng):
    for k in (0, 1, 2):
        unit = GradedElement.unit(k, sym)
        for m in (k, k + 1, k + 2):
            a = graded(k, random_element(m, sym, rng))
            assert sharp(a, unit) == a
            assert sharp(unit, a) == a


def test_sharp_component_count(sym):
    # number of admissible t values before cancellation
    for k in (0, 1, 2):
        for m in range(k, k + 4):
            for n in range(k, k + 4):
                count = len(list(sharp_range(m, n, k)))
                assert count == 1 + min(2 * (n - k), 2 * (m - k))


def test_sharp_cross_checked_against_dsl_tangle(sym, rng):
    # the spec example: k=1, m=n=2 components against a hand-built tangle
    from planalg.tangles import parse
    text = """
ext 2
box a 2
box b 2
strand a.1-e1 a.2-b.1 a.3-b.4 a.4-e4 b.2-e2 b.3-e3
"""
    hand = parse(text)
    for _ in range(10):
        a = random_element(2, sym, rng)
        b = random_element(2, sym, rng)
        assert sharp_component(a, b, 1, 2) == evaluate(hand, [a, b])


def test_sharp_level_mismatch(sym):
    with pytest.raises(LevelMismatchError):
        sharp(GradedElement.unit(0, sym), GradedElement.unit(1, sym))


def test_sharp_t_out_of_range():
    with pytest.raises(PreconditionError, match=r"^t=10 outside \[1, 3\]$"):
        sharp_tangle(2, 2, 1, 10)
    with pytest.raises(PreconditionError, match=r"^t=0 outside \[1, 3\]$"):
        dot_tangle(3, 2, 1, 0)


def test_associativity_small(sym, rng):
    for k in (0, 1):
        for _ in range(10):
            a = random_graded(k, k + 2, sym, rng)
            b = random_graded(k, k + 2, sym, rng)
            c = random_graded(k, k + 2, sym, rng)
            assert sharp(sharp(a, b), c) == sharp(a, sharp(b, c))


def test_trace_formula_normalised_example(sym):
    # x in P_{k+1} with tau(x*x) = 1 gives t_k(x dag # x) = delta
    k = 1
    x = Element.basis(Diagram(2, [(1, 4), (2, 3)]), sym)
    assert x.star().multiply(x).tau() == sym.one()
    g = graded(k, x)
    assert trace_tk(sharp(dagger(g), g)) == sym.delta_power(1)


def test_inner_product_structure(sym, rng):
    k = 0
    one, cup = Element.unit(2, sym), Element.basis(CUP2, sym)
    g_one, g_cup = graded(k, one), graded(k, cup)
    # Gram of the P_2 diagram basis at level 0: delta^2 tau-block
    assert inner_product(g_one, g_one) == sym.delta_power(2)
    assert inner_product(g_one, g_cup) == sym.delta_power(1)
    # distinct colours orthogonal
    x = graded(0, random_element(1, sym, rng))
    y = graded(0, random_element(2, sym, rng))
    assert inner_product(x, y) == sym.zero()
    assert hk_norm_squared(x + y) \
        == inner_product(x, x) + inner_product(y, y)


# -- inclusions, expectations, distinguished elements ----------------------------


def test_include_tower_homomorphism(sym, rng):
    for k in (1, 2):
        a = random_graded(k - 1, k + 1, sym, rng)
        b = random_graded(k - 1, k + 1, sym, rng)
        assert include(sharp(a, b)) == sharp(include(a), include(b))
        assert trace_tk(include(a)) == trace_tk(a)
        assert dagger(include(a)) == include(dagger(a))
        assert include(GradedElement.unit(k - 1, sym)) \
            == GradedElement.unit(k, sym)


def test_expectation_clauses(sym, rng):
    for k in (1, 2):
        a = random_graded(k - 1, k + 1, sym, rng)
        b = random_graded(k - 1, k + 1, sym, rng)
        x = random_graded(k, k + 2, sym, rng)
        ia, ib = include(a), include(b)
        assert cond_expect(include(a)) == a
        assert cond_expect(sharp(sharp(ia, x), ib)) \
            == sharp(sharp(a, cond_expect(x)), b)
        assert trace_tk(cond_expect(x)) == trace_tk(x)
        assert cond_expect(GradedElement.unit(k, sym)) \
            == GradedElement.unit(k - 1, sym)


def test_element_c_diagram(sym):
    assert element_c(0, sym).component(1) \
        == Element.basis(Diagram(1, [(1, 2)]), sym)
    for k in (1, 2, 3):
        pairs = [(1, 2)] + [(2 + j, 2 * k + 3 - j) for j in range(1, k + 1)]
        assert element_c(k, sym).component(k + 1) \
            == Element.basis(Diagram(k + 1, pairs), sym)
        # image of the level-0 element under k inclusions
        c, d = element_c(0, sym), element_d(0, sym)
        for _ in range(k):
            c, d = include(c), include(d)
        assert c == element_c(k, sym)
        assert d == element_d(k, sym)


def test_c_d_selfadjoint(sym):
    for k in (0, 1, 2):
        assert dagger(element_c(k, sym)) == element_c(k, sym)
        assert dagger(element_d(k, sym)) == element_d(k, sym)


def test_bullet(sym, rng):
    # on P_k x P_k the graded product is plain multiplication
    for k in (1, 2):
        for _ in range(5):
            x, y = random_element(k, sym, rng), random_element(k, sym, rng)
            assert bullet(graded(k, x), graded(k, y)) \
                == graded(k, x.multiply(y))
    cc = bullet(element_c(0, sym), element_c(0, sym))
    assert cc == graded(0, Element.basis(CUP2, sym))
    for _ in range(5):
        a = random_graded(0, 2, sym, rng)
        b = random_graded(0, 2, sym, rng)
        c = random_graded(0, 2, sym, rng)
        assert bullet(bullet(a, b), c) == bullet(a, bullet(b, c))


def test_trace_Tr_examples(sym, rng):
    for k in (0, 1, 2):
        x = random_element(k, sym, rng)
        assert trace_Tr(graded(k, x)) == x.tau().delta_pow(k)
    x = random_element(1, sym, rng)
    assert trace_Tr(graded(0, x)) == x.tau().delta_pow(1)
    for k in (0, 1):
        a = random_graded(k, k + 2, sym, rng)
        assert trace_Tr(dagger(a)) == trace_Tr(a)


def test_jones_element(sym, rng):
    for k in (1, 2):
        e = jones_e(k, sym)
        assert e.component(k + 1) == jones_projection(k + 1, sym)
        assert sharp(e, e) == e
        assert cond_expect(e) \
            == GradedElement.unit(k, sym).scale(sym.delta_power(-2))
        for _ in range(5):
            x = random_graded(k, k + 1, sym, rng)
            assert sharp(sharp(e, include(x)), e) \
                == sharp(include(include(cond_expect(x))), e)
    with pytest.raises(PreconditionError):
        jones_e(0, sym)


def test_dot_action_examples(sym, rng):
    for k in (1, 2):
        b = random_graded(k, k + 2, sym, rng)
        assert dot_action(GradedElement.unit(k + 1, sym), b) == b
        a = random_graded(k + 1, k + 2, sym, rng)
        a2 = random_graded(k + 1, k + 2, sym, rng)
        assert dot_action(a, b) == dot_action_via_expectation(a, b)
        assert dot_action(sharp(a, a2), b) == dot_action(a, dot_action(a2, b))
    with pytest.raises(PreconditionError):
        dot_tangle(2, 1, 0, 1)
    with pytest.raises(LevelMismatchError):
        dot_action(GradedElement.unit(1, sym), GradedElement.unit(1, sym))


def test_dot_range():
    assert list(dot_range(2, 2, 1)) == [2]
    assert list(dot_range(3, 2, 1)) == [1, 2, 3]


@pytest.mark.parametrize("name, start, stop", [
    ("sharp_range", 0, -1), ("sharp_range", 1, 0),
    ("dot_range", 0, 1), ("dot_range", 1, 0),
])
def test_index_bijection_check_reads_the_product_ranges(monkeypatch, name, start, stop):
    from planalg.suites import _index_bijection_ok
    assert _index_bijection_ok.__wrapped__(6)
    ts = getattr(tower, name)          # one bound moved by one
    monkeypatch.setattr(tower, name, lambda m, n, k: range(
        ts(m, n, k).start + start, ts(m, n, k).stop + stop))
    assert not _index_bijection_ok.__wrapped__(6)


# -- phi and psi -----------------------------------------------------------------


def test_phi_psi_identity_on_level_component(sym, rng):
    for k in (0, 1, 2):
        x = random_element(k, sym, rng)
        g = graded(k, x)
        assert phi(k, g) == g
        assert psi(k, g) == g


def test_phi_psi_block_triangular(sym, rng):
    # the colour-j input contributes colours <= j, with identity at j
    k = 0
    x = random_element(3, sym, rng)
    fx = phi(k, graded(k, x))
    assert fx.component(3) == x
    assert all(n <= 3 for n in fx.components)


def test_phi_psi_inverse_small(sym, rng):
    for k in (0, 1):
        for _ in range(5):
            a = random_graded(k, k + 3, sym, rng)
            assert psi(k, phi(k, a)) == a
            assert phi(k, psi(k, a)) == a


def test_phi_trace_correspondence(sym, rng):
    for k in (0, 1):
        a = random_graded(k, k + 3, sym, rng)
        assert trace_Tr(a) == trace_tk(phi(k, a)).delta_pow(k)


def test_graded_json_roundtrip(sym, rng):
    a = random_graded(1, 3, sym, rng)
    assert GradedElement.from_json(a.to_json()) == a


def test_graded_from_json_adds_keys_of_one_colour(sym):
    # "2" and "02" both name colour 2; the old loader kept only the last
    x, y = Element.basis(CUP2, sym), Element.unit(2, sym)
    data = {"level": 1, "components": {"2": x.to_json(), "02": (x + y).to_json()}}
    assert GradedElement.from_json(data) == graded(1, x + x + y)
    data["components"]["002"] = (-x - x - y).to_json()
    assert GradedElement.from_json(data).is_zero()


def test_graded_from_json_keeps_its_checks(sym):
    x = Element.basis(CUP2, sym).to_json()
    zero = Element.zero(2, sym).to_json()
    rat = Element.basis(CUP2, Ring.rational(2)).to_json()
    for components, level, ring, error in [
            ({"3": x}, 1, None, "does not match key"),
            ({"2": x}, 3, None, "below level"),
            ({"2": zero}, 3, None, "below level"),
            ({"2": x, "02": rat}, 1, None, ModeMismatchError),
            ({"2": rat}, 1, sym, ModeMismatchError)]:
        match = error if isinstance(error, str) else None
        with pytest.raises(PreconditionError if match else error, match=match):
            GradedElement.from_json({"level": level, "components": components}, ring)


def tangle_sum_oracle(k, a, excellent):
    """phi/psi by their definition: every good tangle applied to the input."""
    out = GradedElement.zero(k, a.ring)
    for j, el in a.components.items():
        for i in range(k, j + 1):
            sign = a.ring.fraction(-1 if excellent and (i + j) % 2 else 1)
            for tangle in enumerate_good(k, j, i, excellent):
                out = out + graded(k, evaluate(tangle, [el]).scale(sign))
    return out


def test_phi_psi_columns_match_tangle_oracle(sym, rng):
    for k in (0, 1, 2):
        for _ in range(4):
            a = random_graded(k, k + 3, sym, rng)
            assert phi(k, a) == tangle_sum_oracle(k, a, False)
            assert psi(k, a) == tangle_sum_oracle(k, a, True)


def test_phi_psi_columns_are_kept_per_ring(sym):
    # every basis diagram first through the symbolic ring, then through two
    # rational rings: a column served from another ring would fail here
    for ring in (sym, Ring.rational(Fraction(5, 2)), Ring.rational(3)):
        for k in (0, 1):
            for j in range(k, k + 3):
                for d in enumerate_diagrams(j):
                    a = graded(k, Element.basis(d, ring))
                    for excellent, fn in ((False, phi), (True, psi)):
                        image = fn(k, a)
                        assert image.ring == ring
                        assert image == tangle_sum_oracle(k, a, excellent)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda ring: ring.mode)
def test_columns_equal_the_evaluate_route(ring, monkeypatch):
    # every good (excellent) tangle evaluated on the diagram, against the
    # capping walk's counts: equal in the exact modes, and in float mode equal
    # supports with coefficients equal up to rounding (the walk forms
    # count * d**loops where the tangles add d**loops count times); one
    # call gives the columns of every colour i = k..j, in order
    monkeypatch.setattr(elements, "_TRACED", {})        # the oracle's table
    for k in (0, 1, 2):
        for j in range(k, k + 6):
            for d in enumerate_diagrams(j):
                for excellent in (False, True):
                    columns = _column.__wrapped__(k, j, excellent, d, ring)
                    assert [col.colour.n for col in columns] == list(range(k, j + 1))
                    for i, col in enumerate(columns, k):
                        oracle = column_oracle(k, j, i, excellent, d, ring)
                        if ring.mode != "float":
                            assert col == oracle, (k, j, i, excellent, d)
                            continue
                        assert col.combo.keys() == oracle.combo.keys()
                        assert all(abs(c.value - oracle.combo[e].value)
                                   <= 1e-12 * abs(c.value) for e, c in col.combo.items())


def test_a_fresh_column_keeps_no_traced_contraction(sym, monkeypatch):
    monkeypatch.setattr(elements, "_TRACED", {})
    for d in enumerate_diagrams(3):
        for excellent in (False, True):
            assert not any(col.is_zero()
                           for col in _column.__wrapped__(1, 3, excellent, d, sym))
    assert elements._TRACED == {}


def test_a_column_builds_no_tangle(sym, monkeypatch):
    # with every Tangle constructor and every good-wiring enumeration refused
    def refuse(*args, **kwargs):
        raise AssertionError("a column built a Tangle or enumerated its wirings")
    monkeypatch.setattr(tangles.Tangle, "__init__", refuse)
    monkeypatch.setattr(annular, "good_wirings", refuse)
    monkeypatch.setattr(tower, "good_wirings", refuse, raising=False)
    for k in (0, 1):
        for d in enumerate_diagrams(k + 2):
            for excellent in (False, True):
                assert _column.__wrapped__(k, k + 2, excellent, d, sym)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda ring: ring.mode)
def test_phi_psi_match_per_term_route(ring, rng):
    # the per-term route: each coefficient times each entry of its kept
    # columns, one scalar per term, summed per colour in the same order
    for k in (0, 1, 2):
        for _ in range(3):
            a = GradedElement.from_parts(k, ring, (
                random_combo(n, ring, rng) for n in range(k, k + 4)))
            for excellent, fn in ((False, phi), (True, psi)):
                terms = {}
                for j, el in a.components.items():
                    for d, c in el.combo.items():
                        for i, col in enumerate(_column(k, j, excellent, d, ring), k):
                            terms.setdefault(i, []).extend(
                                (out, cc, c, 0) for out, cc in col.combo.items())
                expected = {i: per_term_sum(i, ring, ts) for i, ts in terms.items()}
                image = fn(k, a).components
                assert list(image) == [i for i, e in expected.items() if not e.is_zero()]
                assert all(same_terms(image[i], expected[i]) for i in image)


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda ring: ring.mode)
def test_fused_products_match_per_term_route(ring, rng):
    # each component is every filling's per-term terms, in filling order,
    # summed once: float bits and key order show a change of either
    def oracle(fillings):
        terms = {}
        for t, inputs in fillings:
            terms.setdefault(t.ext.n, []).extend(per_term_fillings(t, inputs, ring))
        return {n: per_term_sum(n, ring, ts) for n, ts in terms.items()}

    def draw(level):
        return GradedElement.from_parts(level, ring, (
            random_combo(n, ring, rng, terms=3) for n in range(level, level + 3)))

    def pairs(x, y):
        return [(m, xm, n, yn) for m, xm in x.components.items()
                for n, yn in y.components.items()]

    widest = {}         # product -> the most members of one block's family
    for k in (0, 1, 2):
        for _ in range(2):
            a, b, up = draw(k), draw(k), draw(k + 1)
            cases = [
                ("sharp", sharp(a, b), [(sharp_tangle(m, n, k, t), (am, bn))
                                        for m, am, n, bn in pairs(a, b)
                                        for t in sharp_range(m, n, k)]),
                ("bullet", bullet(a, b), [(sharp_tangle(m, n, k, m + n - k), (am, bn))
                                          for m, am, n, bn in pairs(a, b)])]
            if k:
                cases.append(("dot", dot_action(up, b), [
                    (dot_tangle(m, n, k, t), (am, bn))
                    for m, am, n, bn in pairs(up, b) for t in dot_range(m, n, k)]))
            for name, product, fillings in cases:
                expected = oracle(fillings)
                assert list(product.components) == [
                    n for n, e in expected.items() if not e.is_zero()]
                assert all(same_terms(el, expected[n])
                           for n, el in product.components.items())
                blocks = Counter((x.colour.n, y.colour.n) for _, (x, y) in fillings)
                widest[name] = max(widest.get(name, 0), *blocks.values())
    # blocks of 3 or more output colours share one kernel term per filling
    assert widest == {"sharp": 5, "bullet": 1, "dot": 5}


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda ring: ring.mode)
def test_products_hand_the_kernel_one_term_per_filling(ring, rng, monkeypatch):
    # a filling, one diagram of a_m and one of b_n, is one kernel term for
    # all of its block's output colours: sum |a_m| |b_n| terms in one call
    sizes, kernel = [], ring.scalar._sum_products
    monkeypatch.setattr(ring.scalar, "_sum_products", staticmethod(
        lambda terms, delta: sizes.append(len(terms)) or kernel(terms, delta)))

    def draw(level):
        return GradedElement.from_parts(level, ring, (
            random_combo(n, ring, rng, terms=3) for n in range(level, level + 3)))

    for k in (1, 2):
        a, b, up = draw(k), draw(k), draw(k + 1)
        for product, x, y, ts in ((sharp, a, b, sharp_range),
                                  (dot_action, up, b, dot_range)):
            sizes.clear()
            product(x, y)
            assert sizes == [sum(len(xm.combo) * len(yn.combo)
                                 for xm in x.components.values()
                                 for yn in y.components.values())]
            # some block has more than one output colour
            assert max(len(ts(m, n, k)) for m in x.components for n in y.components) > 1


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=lambda ring: ring.mode)
def test_a_colour_whose_first_key_cancels_keeps_its_place(ring):
    # a_2 # b_3 at level 1 has colours 2, 3, 4 in t order.  Colour 2's key
    # of the first filling cancels against the second filling's, and its
    # first surviving key comes from the third filling, after colour 3's
    # key of the first: the components still come in t order
    a = GradedElement.of_element(1, Element.basis(CUP2, ring))
    fill = [Diagram(3, pairs) for pairs in ([(1, 4), (2, 3), (5, 6)],
                                            [(1, 6), (2, 5), (3, 4)],
                                            [(1, 2), (3, 6), (4, 5)])]
    b = GradedElement.of_element(1, Element.from_terms(3, ring, zip(
        fill, (ring.one(), ring.fraction(-1), ring.one()))))
    inputs = [a.component(2), b.component(3)]
    terms = {t: per_term_fillings(sharp_tangle(2, 3, 1, t), inputs, ring)
             for t in sharp_range(2, 3, 1)}
    expected = {t: per_term_sum(t, ring, ts) for t, ts in terms.items()}
    survivors = []      # the colours in the order their first surviving key comes
    for filling in range(3):
        for t, ts in terms.items():
            if ts[filling][0] in expected[t].combo and t not in survivors:
                survivors.append(t)
    assert terms[2][0][0] is terms[2][1][0] and terms[2][0][0] not in expected[2].combo
    assert survivors == [3, 4, 2]
    product = sharp(a, b)
    assert list(product.components) == [2, 3, 4]
    assert all(same_terms(el, expected[t]) for t, el in product.components.items())


def test_a_repeated_product_walks_each_block_once(monkeypatch):
    # a block (m, n) of sharp/dot_action feeds all its output colours from
    # one contract_terms walk, and a second product traces nothing
    ring, rng = Ring.symbolic(), random.Random(8)
    walks, traces, trace = [], [], elements._trace
    monkeypatch.setattr(tangles, "contract_terms", lambda *args: walks.append(
        args) or elements.contract_terms(*args))
    monkeypatch.setattr(elements, "_trace", lambda *args: traces.append(
        args) or trace(*args))
    for k in (1, 2):
        a, b = (random_graded(k, k + 3, ring, rng) for _ in range(2))
        up = random_graded(k + 1, k + 4, ring, rng)
        for product, x, y, ts in ((sharp, a, b, sharp_range),
                                  (dot_action, up, b, dot_range),
                                  (bullet, a, b, None)):
            first = product(x, y)
            walks.clear()
            traces.clear()
            assert product(x, y) == first and traces == []
            blocks = [(m, n) for m in x.components for n in y.components]
            assert len(walks) == len(blocks)
            if ts:      # some block has more than one output colour
                assert max(len(ts(m, n, k)) for m, n in blocks) > 1


# -- joins of outside inputs still check colour and ring -------------------------

SYM, RAT, F2, F25 = (Ring.symbolic(), Ring.rational(2), Ring.float_(2.0),
                     Ring.float_(2.5))


def two_terms(ring, n=2):
    """The unit plus three times the first basis diagram of P_n."""
    return Element.from_terms(n, ring, [(identity_diagram(n), ring.one()),
                                        (enumerate_diagrams(n)[0], ring.fraction(3))])


MISMATCH_IDS = ["element-mode", "element-colour", "from-terms-delta", "add-mode",
                "add-delta", "add-colour", "sub-mode", "sub-delta", "mul-mode",
                "mul-delta", "mul-colour", "evaluate-delta", "evaluate-colour",
                "graded-add-mode", "graded-add-delta", "from-parts-shading",
                "sharp-delta", "phi-mode", "phi-delta", "graded-init-mode",
                "graded-init-delta", "cnk-float"]


MISMATCHES = [
    (lambda: Element(2, SYM, {CUP2: RAT.one()}), ModeMismatchError),
    (lambda: Element(2, SYM, {Diagram(1, [(1, 2)]): SYM.one()}), ColourMismatchError),
    (lambda: Element.from_terms(2, F2, [(CUP2, F25.one())]), ModeMismatchError),
    (lambda: two_terms(SYM) + two_terms(RAT), ModeMismatchError),
    (lambda: two_terms(F2) + two_terms(F25), ModeMismatchError),
    (lambda: two_terms(SYM) + two_terms(SYM, 3), ColourMismatchError),
    (lambda: two_terms(SYM) - two_terms(RAT), ModeMismatchError),
    (lambda: two_terms(F2) - two_terms(F25), ModeMismatchError),
    (lambda: two_terms(SYM) * two_terms(RAT), ModeMismatchError),
    (lambda: two_terms(F2) * two_terms(F25), ModeMismatchError),
    (lambda: two_terms(SYM) * two_terms(SYM, 3), ColourMismatchError),
    (lambda: evaluate(multiplication_tangle(2), [two_terms(F2), two_terms(F25)]),
     PreconditionError),
    (lambda: evaluate(multiplication_tangle(2), [two_terms(SYM), two_terms(SYM, 3)]),
     ColourMismatchError),
    (lambda: graded(1, two_terms(SYM)) + graded(1, two_terms(RAT)), ModeMismatchError),
    (lambda: graded(1, two_terms(F2)) + graded(1, two_terms(F25)), ModeMismatchError),
    (lambda: GradedElement.from_parts(0, SYM, [Element.unit(0, SYM),
                                               Element.unit(ZERO_MINUS, SYM)]),
     ColourMismatchError),
    (lambda: sharp(graded(1, two_terms(F2)), graded(1, two_terms(F25))),
     PreconditionError),
    (lambda: phi(1, GradedElement(1, SYM, {2: two_terms(RAT)})), ModeMismatchError),
    (lambda: phi(1, GradedElement(1, F2, {2: two_terms(F25)})), ModeMismatchError),
    (lambda: GradedElement(1, SYM, {2: two_terms(SYM), 3: two_terms(RAT, 3)}),
     ModeMismatchError),
    (lambda: GradedElement(1, F2, {2: two_terms(F25)}), ModeMismatchError),
    (lambda: cnk_membership(two_terms(F2), 1), ModeMismatchError),   # exact solve only
]


@pytest.mark.parametrize("join, error", MISMATCHES, ids=MISMATCH_IDS)
def test_outside_mismatches_still_raise(join, error):
    # internal results skip the per-coefficient checks, so each join of
    # outside inputs must check colour and ring itself
    with pytest.raises(error):
        join()


def test_one_symbolic_ring_and_checks_still_raise():
    # the ring check short-cuts on identity: an equal ring still passes, and
    # every join of mismatched outside inputs still raises its error
    assert Ring.symbolic() is Ring.symbolic()
    Ring.symbolic().check(Ring("symbolic"))
    Ring.rational(2).check(Ring.rational(Fraction(4, 2)))
    for join, error in MISMATCHES:
        with pytest.raises(error):
            join()


def test_graded_from_parts(sym):
    x, y = Element.basis(CUP2, sym), Element.unit(2, sym)
    z = Element.unit(3, sym)
    total = GradedElement.from_parts(1, sym, [x, z, y, -x])
    assert total == graded(1, y) + graded(1, z)
    assert GradedElement.from_parts(1, sym, [x, -x]).is_zero()
