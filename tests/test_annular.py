from math import comb

import pytest

from planalg.annular import (TSpec, annular_T, annular_X,
                             annular_Y, annular_Z, annular_double_cup,
                             compose_T, enumerate_good, good_wirings,
                             transpose_annular)
from planalg.diagrams import enumerate_diagrams
from planalg.errors import ColourMismatchError, PreconditionError
from planalg.scalars import Ring
from planalg.tangles import (EXT, Tangle, evaluate, identity_tangle,
                             partial_cap_tangle, substitute, validate)
from planalg import random_element


def interval(lo, hi):
    return frozenset(range(lo, hi + 1))


def random_tspec(k, m, n, rng):
    size = rng.randint(0, min(m - k, n - k))
    return TSpec(k, frozenset(rng.sample(range(1, m - k + 1), size)),
                 frozenset(rng.sample(range(1, n - k + 1), size)), m, n)


def test_spec_validation():
    with pytest.raises(PreconditionError):
        TSpec(1, interval(1, 2), interval(1, 1), 5, 5)     # |A| != |B|
    with pytest.raises(PreconditionError):
        TSpec(1, interval(1, 5), interval(1, 5), 5, 5)     # A out of range
    with pytest.raises(PreconditionError):
        TSpec(2, frozenset(), frozenset(), 1, 3)           # m < k


def test_identity_cases():
    for k, m in ((0, 3), (1, 4), (2, 2)):
        assert annular_T(TSpec.identity(k, m)) == identity_tangle(m)
    for k in range(4):
        assert annular_X(k, k) == identity_tangle(k)


def test_figure_T145_34_85():
    t = annular_T(TSpec(1, interval(4, 5), interval(3, 4), 8, 5))
    validate(t)
    expected = {
        ((EXT, 7), (1, 5)), ((EXT, 8), (1, 6)),
        ((EXT, 9), (1, 7)), ((EXT, 10), (1, 8)),
        ((EXT, 15), (1, 9)), ((EXT, 16), (1, 10)),
        ((1, 1), (1, 2)), ((1, 3), (1, 4)),
        ((EXT, 1), (EXT, 2)), ((EXT, 3), (EXT, 4)), ((EXT, 5), (EXT, 6)),
        ((EXT, 11), (EXT, 12)), ((EXT, 13), (EXT, 14)),
    }
    assert set(t.pairs) == {tuple(sorted(p)) for p in expected}


def test_families_validate(rng):
    for _ in range(40):
        k = rng.randint(0, 2)
        m, n = rng.randint(k, 6), rng.randint(k, 6)
        validate(annular_T(random_tspec(k, m, n, rng)))
    for k in (0, 1, 2):
        for t in range(k + 2, k + 5):
            validate(annular_Y(t, k))
            validate(annular_Z(t, k))
            validate(annular_X(t, k))


def test_compose_formula_vs_substitution(sym, rng):
    for _ in range(100):
        k = rng.randint(0, 2)
        m, n, p = (rng.randint(k, 6) for _ in range(3))
        first = random_tspec(k, m, n, rng)
        second = random_tspec(k, n, p, rng)
        expo, spec3 = compose_T(first, second)
        assert expo == n - k - len(first.B | second.A)
        tangle_comp = substitute(annular_T(first), {1: annular_T(second)})
        assert tangle_comp == annular_T(spec3).with_loops(expo)
        x = random_element(p, sym, rng, terms=1)
        lhs = evaluate(annular_T(first), [evaluate(annular_T(second), [x])])
        assert lhs == evaluate(annular_T(spec3), [x]).scale(sym.delta_power(expo))


def test_compose_identities(sym):
    k, m = 1, 3
    ident = TSpec.identity(k, m)
    expo, spec = compose_T(ident, ident)
    assert expo == 0 and spec == ident
    # T(k,{},{})^m_n then X^n_k collapses to delta^(n-k) X^m_k
    for n in (2, 3):
        first = TSpec(k, frozenset(), frozenset(), m, n)
        second = TSpec(k, frozenset(), frozenset(), n, k)
        expo, spec3 = compose_T(first, second)
        assert expo == n - k
        assert annular_T(spec3) == annular_X(m, k)


def test_compose_colour_mismatch():
    with pytest.raises(ColourMismatchError):
        compose_T(TSpec(0, frozenset(), frozenset(), 2, 1),
                  TSpec(0, frozenset(), frozenset(), 2, 1))


def test_transpose_is_tau_adjoint(sym, rng):
    for _ in range(40):
        k = rng.randint(0, 2)
        m, n = rng.randint(k, 5), rng.randint(k, 5)
        tangle = annular_T(random_tspec(k, m, n, rng))
        x = random_element(n, sym, rng, terms=1)
        y = random_element(m, sym, rng, terms=1)
        lhs = evaluate(tangle, [x]).inner(y)
        rhs = x.inner(evaluate(transpose_annular(tangle), [y])).delta_pow(n - m)
        assert lhs == rhs


def test_x_transpose_composition():
    for k in (0, 1, 2):
        for n in range(k, 6):
            comp = substitute(transpose_annular(annular_X(n, k)),
                              {1: annular_X(n, k)})
            assert comp == identity_tangle(k).with_loops(n - k)


def test_double_cup_layouts():
    y = annular_Y(4, 1)
    assert ((EXT, 1), (EXT, 4)) in y.pairs and ((EXT, 2), (EXT, 3)) in y.pairs
    z = annular_Z(4, 1)
    assert ((EXT, 3), (EXT, 6)) in z.pairs and ((EXT, 4), (EXT, 5)) in z.pairs
    with pytest.raises(PreconditionError):
        annular_double_cup(2, 1, 1)          # needs colour >= k+2
    with pytest.raises(PreconditionError):
        annular_double_cup(5, 1, 9)


def test_annular_T_all_through_is_identity():
    spec = TSpec(1, interval(1, 2), interval(1, 2), 3, 3)
    assert annular_T(spec) == identity_tangle(3)


# -- good and excellent families -------------------------------------------------


def test_good_identity_at_equal_colours():
    for (k, j) in ((0, 0), (0, 2), (1, 1), (1, 3), (2, 2)):
        assert enumerate_good(k, j, j) == [identity_tangle(j)]
        assert enumerate_good(k, j, j, excellent=True) == [identity_tangle(j)]


def test_good_single_cap():
    tangles = enumerate_good(0, 1, 0)
    assert len(tangles) == 1
    assert tangles[0] == Tangle(0, [1], [((1, 1), (1, 2))])


def test_excellent_subset_of_good(rng):
    for k in (0, 1):
        for j in range(k, 6):
            for i in range(k, j + 1):
                good = enumerate_good(k, j, i)
                excellent = enumerate_good(k, j, i, excellent=True)
                assert set(excellent) <= set(good)
                assert len(excellent) <= len(good)
                for t in good:
                    validate(t)


def test_good_no_through_case_counts():
    # with no through strands the caps form all non-crossing matchings
    from planalg.diagrams import catalan
    for j in (1, 2, 3, 4):
        assert len(enumerate_good(0, j, 0)) == catalan(j)
        assert len(enumerate_good(0, j, 0, excellent=True)) == 1
    # in general, with n = j - k and r = i - k, the k-good count is the ballot
    # number C(2n, n-r)(2r+1)/(n+r+1) (catalan(n) at r = 0) and the k-excellent
    # count is C(n+r, 2r)
    for k in (0, 1, 2):
        for j in range(k, k + 7):
            for i in range(k, j + 1):
                n, r = j - k, i - k
                assert len(good_wirings(k, j, i)) * (n + r + 1) == \
                    comb(2 * n, n - r) * (2 * r + 1), (k, j, i)
                assert len(good_wirings(k, j, i, True)) == comb(n + r, 2 * r), (k, j, i)


def test_good_parameter_order():
    for enumerate_ in (enumerate_good, good_wirings):
        with pytest.raises(PreconditionError):
            enumerate_(1, 0, 1)
        with pytest.raises(PreconditionError):
            enumerate_(2, 3, 1)


def test_good_wirings_are_the_wirings_of_the_good_tangles():
    # in order, loop-free, and each wiring an involution without fixed point
    for k in (0, 1, 2):
        for j in range(k, 7):
            for i in range(k, j + 1):
                for excellent in (False, True):
                    wirings = good_wirings(k, j, i, excellent)
                    tangles = enumerate_good(k, j, i, excellent)
                    assert wirings == tuple(t.wiring for t in tangles)
                    assert all(t.loops == 0 and t.ext.n == i and t.boxes[0].n == j
                               for t in tangles)
                    assert all(w[w[p]] == p != w[p] for w in wirings
                               for p in range(len(w)))
