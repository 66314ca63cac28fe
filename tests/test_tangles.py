import pickle
import random
from fractions import Fraction

import pytest

from planalg import config, diagrams, elements
from planalg.analysis import glue_tangle
from planalg.annular import TSpec, annular_T, annular_double_cup
from planalg.diagrams import (ZERO_MINUS, ZERO_PLUS, Colour, Diagram,
                              enumerate_diagrams, identity_diagram)
from planalg.elements import Element, jones_projection, tl_sum
from planalg.errors import (ColourMismatchError, InternalError, ParseError,
                            PreconditionError, ValidationError)
from planalg.scalars import Ring
from planalg.tangles import (EXT, Tangle, _check_planarity, evaluate,
                             evaluate_in, filling_terms, identity_tangle,
                             inclusion_tangle, jones_tangle,
                             left_expectation_tangle, multiplication_tangle,
                             parse, partial_cap_tangle, right_expectation_tangle,
                             rotation_tangle, standard_tangle, substitute,
                             trace_tangle, unit_tangle, validate)
from planalg.tower import _trace_closure, dot_tangle, sharp_tangle
from planalg import random_element

from conftest import (_stack, planarity_oracle, random_tangle, specialize,
                      substitute_oracle, tangle_adjoint, wiring_oracle)


# -- parsing ---------------------------------------------------------------


def test_parse_unit_strand():
    t = parse("ext 1\nstrand e1-e2\n")
    assert t == unit_tangle(1)


def test_parse_identity_box():
    t = parse("ext 2\nbox b1 2\nstrand e1-b1.1 e2-b1.2 e3-b1.3 e4-b1.4\n")
    assert t == identity_tangle(2)
    validate(t)


def test_parse_loops_and_comments():
    t = parse("# closed circles only\next 0\nloops 3\n")
    assert t.loops == 3 and t.ext.n == 0


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("ext 1\nstrand e1-\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        parse("strand e1-e2\n")             # missing ext
    with pytest.raises(ParseError):
        parse("ext 1\nstrand e1-b9.1\n")    # unknown box
    with pytest.raises(ParseError):
        parse("ext 1\nstrand e1-e2 e1-e2\n")  # point matched twice
    with pytest.raises(ParseError):
        parse("ext 1\nstrand e1-e3\n")      # out of range + unmatched


def test_unmatched_point_rejected():
    with pytest.raises(ValidationError):
        Tangle(1, [], [])


# -- validation -------------------------------------------------------------


def test_identity_validates():
    for n in (1, 2, 3):
        validate(identity_tangle(n))


def test_crossing_is_planarity_violation():
    bad = Tangle(2, [], [((EXT, 1), (EXT, 3)), ((EXT, 2), (EXT, 4))])
    with pytest.raises(ValidationError) as err:
        validate(bad)
    assert "planar" in str(err.value)
    assert "0" in str(err.value)            # Euler characteristic 0


def test_parity_violation_between_boxes():
    bad = Tangle(0, [1, 1], [((1, 1), (2, 1)), ((1, 2), (2, 2))])
    with pytest.raises(ValidationError) as err:
        validate(bad)
    assert "parity" in str(err.value)


def test_genuinely_crossing_parity_consistent():
    bad = Tangle(4, [], [((EXT, 1), (EXT, 6)), ((EXT, 2), (EXT, 5)),
                         ((EXT, 3), (EXT, 8)), ((EXT, 4), (EXT, 7))])
    with pytest.raises(ValidationError) as err:
        validate(bad)
    assert "planar" in str(err.value)


def test_standard_tangles_validate():
    tangles = [unit_tangle(3), identity_tangle(3), multiplication_tangle(3),
               inclusion_tangle(2), trace_tangle(3), rotation_tangle(3),
               jones_tangle(3), partial_cap_tangle(3, [(1, 2)])]
    for n in range(4):
        for i in range(n + 1):
            tangles.append(left_expectation_tangle(n, i))
            tangles.append(right_expectation_tangle(n, i))
    for t in tangles:
        validate(t)


def test_standard_tangle_dispatch():
    assert standard_tangle("M", 2) == multiplication_tangle(2)
    assert standard_tangle("unit", 3) == unit_tangle(3)
    assert standard_tangle("EL", 3, 1) == left_expectation_tangle(3, 1)
    with pytest.raises(PreconditionError):
        standard_tangle("nope", 1)
    with pytest.raises(PreconditionError):
        standard_tangle("EL", 2, 5)


def _planarity_verdict(check, t):
    try:
        check(t)
    except ValidationError as exc:
        return str(exc)
    return None


def test_planarity_matches_the_rotation_system_oracle():
    rng = random.Random(2024)
    failures = 0
    for _ in range(5000):
        t = random_tangle(rng)
        verdict = _planarity_verdict(_check_planarity, t)
        assert verdict == _planarity_verdict(planarity_oracle, t), t
        failures += verdict is not None
    assert 1000 < failures < 4000         # both verdicts are well sampled


def test_box_chain_is_planar():
    # one strand from the boundary through three boxes and back
    t = parse("ext 1\nbox a 1\nbox b 1\nbox c 1\n"
              "strand e1-a.1 a.2-b.1 b.2-c.1 c.2-e2\n")
    validate(t)
    planarity_oracle(t)


# -- substitution ------------------------------------------------------------


def test_substitute_matches_the_graph_walk_oracle():
    rng = random.Random(2025)
    for _ in range(5000):
        outer = random_tangle(rng)
        assignments = {b: random_tangle(rng, ext=colour)
                       for b, colour in enumerate(outer.boxes, 1)
                       if rng.random() < 0.5}
        assert substitute(outer, assignments) \
            == substitute_oracle(outer, assignments), (outer, assignments)


def test_substitute_identity_laws(sym, rng):
    t = multiplication_tangle(2)
    assert substitute(t, {1: identity_tangle(2)}) == t
    assert substitute(identity_tangle(2), {1: t}) == t


def test_substitute_closure_of_unit():
    comp = substitute(trace_tangle(3), {1: unit_tangle(3)})
    assert comp == Tangle(0, [], [], loops=3)


def test_substitute_associativity(rng):
    # both orders of plugging boxes agree
    outer = multiplication_tangle(2)
    mid = inclusion_tangle(1)
    inner = rotation_tangle(1)
    both = substitute(outer, {1: mid, 2: identity_tangle(2)})
    one_then = substitute(substitute(outer, {1: mid}), {1: inner})
    other = substitute(outer, {1: substitute(mid, {1: inner})})
    assert one_then == other
    assert both == substitute(outer, {1: mid})


def test_substitute_colour_mismatch():
    with pytest.raises(ColourMismatchError):
        substitute(multiplication_tangle(2), {1: identity_tangle(3)})


def test_substitution_compatibility_with_evaluation(sym, rng):
    outer = multiplication_tangle(2)
    sub = inclusion_tangle(1)
    for _ in range(20):
        x = random_element(1, sym, rng)
        y = random_element(2, sym, rng)
        composite = substitute(outer, {1: sub})
        assert evaluate(composite, [x, y]) \
            == evaluate(outer, [evaluate(sub, [x]), y])


# -- evaluation ---------------------------------------------------------------


def test_evaluate_multiplication_example(sym):
    cup = Element.basis(Diagram(2, [(1, 2), (3, 4)]), sym)
    assert evaluate(multiplication_tangle(2), [cup, cup]) \
        == cup.scale(sym.delta_power(1))


def test_evaluate_matches_tl_model_on_200_random(sym, rng):
    # cross-implementation oracle: generic evaluator vs direct operations
    for _ in range(200):
        n = rng.randint(1, 4)
        x = random_element(n, sym, rng)
        y = random_element(n, sym, rng)
        assert evaluate(multiplication_tangle(n), [x, y]) == x.multiply(y)
        closed = evaluate(trace_tangle(n), [x])
        assert closed.combo.get(Diagram(0, ()), sym.zero()).delta_pow(-n) == x.tau()
        reflected = evaluate(tangle_adjoint(identity_tangle(n)), [x.star()])
        assert reflected == x.star()


def test_rotation_preserves_inner_product(sym, rng):
    for n in (1, 2, 3):
        rot = rotation_tangle(n)
        for _ in range(15):
            x, y = random_element(n, sym, rng), random_element(n, sym, rng)
            assert evaluate(rot, [x]).inner(evaluate(rot, [y])) == x.inner(y)


def test_rotation_power_is_identity(sym, rng):
    for n in (1, 2, 3):
        t = identity_tangle(n)
        for _ in range(n):
            t = substitute(rotation_tangle(n), {1: t})
        assert t == identity_tangle(n)


def test_adjoint_compatibility(sym, rng):
    # Z_{T*}(x*) = Z_T(x)* on the standard repertoire
    tangles = [multiplication_tangle(2), inclusion_tangle(2), rotation_tangle(2),
               left_expectation_tangle(2, 1), right_expectation_tangle(3, 1)]
    for t in tangles:
        for _ in range(10):
            xs = [random_element(c.n, sym, rng) for c in t.boxes]
            lhs = evaluate(tangle_adjoint(t), [x.star() for x in xs])
            assert lhs == evaluate(t, xs).star()


def test_jones_tangle_value(sym):
    for n in (2, 3, 4):
        val = evaluate_in(jones_tangle(n), [], sym)
        assert val == jones_projection(n, sym).scale(sym.delta_power(1))


def test_trace_normalisation(sym):
    one = Element.unit(3, sym)
    closed = evaluate(trace_tangle(3), [one])
    assert closed == Element.unit(0, sym).scale(sym.delta_power(3))


def test_expectations_are_scaled_idempotents(sym, rng):
    for n in (2, 3):
        for i in range(n + 1):
            el = left_expectation_tangle(n, i)
            comp = substitute(el, {1: el})
            assert comp == el.with_loops(i)      # EL(i)^2 = delta^i EL(i)
    # Z_EL images at a fixed real delta are PSD on x*x inputs
    ring = Ring.float_(2.5)
    from planalg.analysis import is_psd
    for _ in range(10):
        x = random_element(2, ring, rng)
        image = evaluate(left_expectation_tangle(2, 1), [x.star().multiply(x)])
        flag, _eig = is_psd(image)
        assert flag


def test_sphericality_on_p1(sym, rng):
    # left and right closures coincide combinatorially in this model
    for _ in range(10):
        x = random_element(1, sym, rng)
        closed = evaluate(trace_tangle(1), [x])
        assert closed.combo.get(Diagram(0, ()), sym.zero()) \
            == x.tau().delta_pow(1)


def test_evaluate_wrong_arity(sym):
    with pytest.raises(PreconditionError):
        evaluate(multiplication_tangle(2), [Element.unit(2, sym)])
    with pytest.raises(ColourMismatchError):
        evaluate(identity_tangle(2), [Element.unit(3, sym)])


def test_evaluate_in_checks_inputs(sym):
    with pytest.raises(ColourMismatchError):
        evaluate_in(identity_tangle(2), [Element.unit(1, sym)], sym)
    with pytest.raises(PreconditionError):
        evaluate_in(identity_tangle(2), [Element.unit(2, Ring.rational(2))], sym)


def test_tangle_json_roundtrip():
    t = multiplication_tangle(2)
    assert Tangle.from_json(t.to_json()) == t


def test_evaluate_rejects_a_crossing_output(sym, traces):
    # a non-planar tangle (never validated) whose output strands cross
    crossing = Tangle(2, [1], [((1, 1), (EXT, 1)), ((1, 2), (EXT, 3)),
                               ((EXT, 2), (EXT, 4))])
    x = Element.basis(Diagram(1, [(1, 2)]), sym)
    with pytest.raises(InternalError):
        evaluate(crossing, [x])
    # the failed pairing is neither interned nor kept as a traced
    # contraction, so it is traced again and fails again
    assert (2, False, ((1, 3), (2, 4))) not in diagrams._INTERNED
    assert (1, False, ((1, 2),)) in diagrams._INTERNED
    assert crossing.family.root == {}
    with pytest.raises(InternalError):
        evaluate(crossing, [x])
    assert len(traces) == 2


# -- interned diagrams and compiled tangles ------------------------------------


def test_evaluations_share_one_diagram_per_pairing(sym, rng):
    x = random_element(3, sym, rng, terms=4)
    first = evaluate(rotation_tangle(3), [x])
    back = evaluate(rotation_tangle(3), [first])
    again = evaluate(rotation_tangle(3, direction=1), [back])
    assert again == first
    for d in first.combo:
        (same,) = [e for e in again.combo if e == d]
        assert same is d
    basis = enumerate_diagrams(3)
    for d in evaluate(identity_tangle(3), [tl_sum(3, sym)]).combo:
        assert any(d is e for e in basis)


def test_products_and_enumeration_share_the_interned_diagrams(sym):
    basis = enumerate_diagrams(3)
    for a in basis:
        for b in basis:
            (d,) = Element.basis(a, sym).multiply(Element.basis(b, sym)).combo
            assert d is basis[basis.index(d)]
    assert identity_diagram(3) is basis[basis.index(identity_diagram(3))]
    assert all(d.reflect() is basis[basis.index(d.reflect())] for d in basis)
    for d in basis:
        shuffled = [(b, a) for a, b in reversed(d.pairs)]
        assert Diagram(3, shuffled) is d
        assert Diagram(3, tuple(map(list, shuffled))) is d
        assert pickle.loads(pickle.dumps(d)) is d


def test_interning_keeps_the_shading_of_colour_zero(sym, traces):
    # the two tangles share one (empty) wiring; the second round reads
    # each colour's own traced output from its tangle's trie
    zero_plus, zero_minus = Tangle(ZERO_PLUS, [], []), Tangle(ZERO_MINUS, [], [])
    for _ in range(2):
        plus = evaluate_in(zero_plus, [], sym)
        minus = evaluate_in(zero_minus, [], sym)
        ((d_plus, _),), ((d_minus, _),) = plus.combo.items(), minus.combo.items()
        assert d_plus.colour == ZERO_PLUS and d_minus.colour == ZERO_MINUS
    assert len(traces) == 2
    assert enumerate_diagrams(ZERO_MINUS)[0] is d_minus


def _standard_tangles():
    tangles = [standard_tangle(kind, n) for kind in ("M", "I", "TR", "R", "UNIT", "ID")
               for n in range(4)]
    tangles += [jones_tangle(n) for n in (2, 3, 4)]
    tangles += [standard_tangle(kind, n, i) for kind in ("EL", "ER")
                for n in range(4) for i in range(n + 1)]
    tangles += [partial_cap_tangle(3, [(1, 2)]), partial_cap_tangle(3, [(2, 5), (3, 4)]),
                sharp_tangle(2, 2, 1, 2), dot_tangle(3, 2, 1, 2),
                annular_double_cup(3, 1, 1), glue_tangle(2, 1, 0), _trace_closure(3, 1),
                annular_T(TSpec(1, (1, 2), (2, 3), 3, 4)), tangle_adjoint(glue_tangle(2, 1, 1))]
    return tangles


def test_a_tangle_is_wired_once(sym, rng):
    for t in _standard_tangles():
        for u in (t, Tangle.from_json(t.to_json()), t.with_loops(1)):
            assert (u.offsets, u.wiring) == wiring_oracle(t), t
    t = multiplication_tangle(2)
    x, y = (random_element(2, sym, rng, terms=3) for _ in range(2))
    assert evaluate(Tangle.from_json(t.to_json()), [x, y]) == evaluate(t, [x, y])


@pytest.mark.parametrize("ext, boxes, pairs, message, strand", [
    (1, [], [((0, 1), (0, 2)), ((0, 2), (0, 1))],
     "point matched twice: (0, 1)", ((0, 1), (0, 2))),
    (1, [], [((0, 1), (0, 1))], "point matched twice: (0, 1)", ((0, 1), (0, 1))),
    (1, [], [((0, 1), (0, 3))], "strand endpoint (0, 3) is out of range", (0, 3)),
    (1, [1], [((0, 1), (1, 1)), ((0, 2), (2, 1))],
     "strand endpoint (2, 1) is out of range", (2, 1)),
    (1, [1], [((0, 1), (1, 1)), ((0, 2), (1, "2"))],
     "strand endpoint (1, '2') is out of range", (1, "2")),
    (1, [], [((0, 1), (0,))], "strand endpoint (0,) is out of range", (0,)),
    (1, [], [((0, 1), (-1, 1))], "strand endpoint (-1, 1) is out of range", (-1, 1)),
    (1, [1], [((0, 1), (0, 2))], "marked point (1, 1) is unmatched", (1, 1)),
    (2, ["0+", 1], [((0, 1), (0, 2)), ((0, 3), (0, 4))],
     "marked point (2, 1) is unmatched", (2, 1)),
    (1, [], [((0, 1), (0, "a"))], "strand endpoint (0, 'a') is out of range", (0, "a")),
    (1, [], [((0, 1), (0, 2.0))], "strand endpoint (0, 2.0) is out of range", (0, 2.0)),
])
def test_structural_defects_raise_one_validation_error(ext, boxes, pairs, message,
                                                       strand):
    with pytest.raises(ValidationError) as err:
        Tangle(ext, boxes, pairs)
    assert str(err.value) == message
    assert err.value.strand == strand


@pytest.mark.parametrize("builder, good, bad", [
    (sharp_tangle, (2, 2, 1, 2), (2, 2, 1, 9)),
    (dot_tangle, (3, 2, 1, 2), (3, 2, 1, 5)),
    (annular_double_cup, (3, 1, 1), (3, 1, 5)),
    (glue_tangle, (2, 1, 0), (2, 5, 0)),
    (_trace_closure, (3, 1), (1, 3)),
    (left_expectation_tangle, (3, 1), (2, 5)),
])
def test_builders_are_compiled_once_and_still_reject(builder, good, bad):
    # the product builders run only on `tower._family` misses and keep no
    # cache of their own
    if builder not in (sharp_tangle, dot_tangle):
        assert builder(*good) is builder(*good)
    for _ in range(2):
        with pytest.raises(PreconditionError):
            builder(*bad)


def test_annular_T_is_compiled_once_per_spec():
    spec = TSpec(1, frozenset({1}), frozenset({2}), 2, 3)
    assert annular_T(spec) is annular_T(TSpec(1, {1}, {2}, 2, 3))
    for _ in range(2):
        with pytest.raises(PreconditionError):
            annular_T(TSpec(1, {1}, {5}, 2, 3))


# -- the traced-contraction tries ------------------------------------------------


@pytest.fixture
def traces(monkeypatch):
    """The list of strand traces `elements.contract_terms` makes, one entry
    per call; a tangle built in the test starts with an empty trie."""
    calls = []
    kernel = elements.trace_strands

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(elements, "trace_strands", counted)
    return calls


def _product_oracle(x: Element, y: Element) -> Element:
    """x * y (y stacked above x) term by term through the stacking oracle."""
    ring, n = x.ring, x.colour.n
    return Element.from_terms(x.colour, ring, (
        (d, c1 * c2 * ring.delta_power(loops))
        for d1, c1 in x.combo.items() for d2, c2 in y.combo.items()
        for d, loops in [_stack(d2, d1, n)]))


def test_a_second_evaluation_traces_nothing(sym, rng, traces):
    t = multiplication_tangle(3)
    x, y = (random_element(3, sym, rng, terms=4) for _ in range(2))
    first = evaluate(t, [x, y])
    assert len(traces) == len(x.combo) * len(y.combo)
    traces.clear()
    assert evaluate(t, [x, y]) == first
    assert traces == []


def test_the_contraction_table_is_ring_free(sym, rng, traces):
    delta = Fraction(5, 2)
    rat, t = Ring.rational(delta), multiplication_tangle(3)
    x, y = (random_element(3, sym, rng, terms=4) for _ in range(2))
    assert evaluate(t, [x, y]) == _product_oracle(x, y)
    traced = len(traces)
    x_rat, y_rat = (Element(3, rat, {d: specialize(c, delta) for d, c in z.combo.items()})
                    for z in (x, y))
    product = evaluate(t, [x_rat, y_rat])
    assert len(traces) == traced
    assert product == _product_oracle(x_rat, y_rat)


def test_the_tangles_own_loops_stay_out_of_the_table(sym, rng):
    t = multiplication_tangle(2)
    x, y = (random_element(2, sym, rng, terms=3) for _ in range(2))
    plain, twice = evaluate(t, [x, y]), t.with_loops(2)
    assert evaluate(twice, [x, y]) == plain.scale(sym.delta_power(2))
    assert twice.family.root == t.family.root     # one wiring, equal leaves
    looped = evaluate(t.with_loops(1), [y, x])
    assert evaluate(t, [y, x]).scale(sym.delta_power(1)) == looped


# -- compiled fills ------------------------------------------------------------


def test_equal_tangles_built_apart_fill_their_own_tries(sym, rng, traces):
    # each tangle compiles its own fill and owns its trie: the second
    # tangle traces every choice again and reaches the same product, and
    # the two tries hold one shared leaf per choice
    first, second = (Tangle.from_json(multiplication_tangle(3).to_json())
                     for _ in range(2))
    assert first is not second and first.family is not second.family
    x, y = (random_element(3, sym, rng, terms=4) for _ in range(2))
    product = evaluate(first, [x, y])
    choices = len(traces)
    assert choices == len(x.combo) * len(y.combo)
    assert evaluate(second, [x, y]) == product
    assert len(traces) == 2 * choices
    assert second.family.root is not first.family.root
    assert all(second.family.root[d1][d2] is leaf
               for d1, node in first.family.root.items() for d2, leaf in node.items())


def test_a_fill_appends_to_the_given_term_list(sym, rng):
    t = multiplication_tangle(2)
    x, y = (random_element(2, sym, rng, terms=3) for _ in range(2))
    own = filling_terms(t.family, [x, y], sym, [])
    terms = [(None, sym.one(), (("kept", 0),), 0)]
    assert filling_terms(t.family, [x, y], sym, terms) is terms
    assert terms == [(None, sym.one(), (("kept", 0),), 0)] + own


# -- the colour cap on user input ----------------------------------------------


def test_user_colours_are_capped_at_parse_time():
    over = config.COLOUR_CAP + 1
    for text in (f"ext {over}", f"ext 1\nbox a {over}"):
        with pytest.raises(ParseError, match="exceeds the configured cap"):
            parse(text)
    with pytest.raises(ParseError, match="exceeds the configured cap"):
        Tangle.from_json({"ext": 1, "boxes": [over], "pairs": []})
    with pytest.raises(ParseError, match="exceeds the configured cap"):
        Element.from_json({"colour": over, "terms": []})
    assert Colour.capped(config.COLOUR_CAP).n == config.COLOUR_CAP
    # internal tangles are not capped: the level-k product reaches past it
    assert sharp_tangle(6, 6, 0, 12).ext.n == 12
