import math
import random
from fractions import Fraction

import numpy as np
import pytest

import planalg.analysis as an
import planalg.elements as elements
from planalg.annular import TSpec, annular_T, annular_X, transpose_annular
from planalg.diagrams import Diagram, catalan, enumerate_diagrams, identity_diagram
from planalg.elements import Element, jones_projection
from planalg.errors import ModeMismatchError, PreconditionError
from planalg.scalars import Ring, Scalar
from planalg.tangles import evaluate
from planalg.tower import GradedElement, element_c, hk_norm_squared_element, sharp
from planalg import random_element, random_graded
from planalg.suites import _rank
from conftest import (_closure_loops, _stack, boundedness_constant_oracle,
                      gauss_solve_in_place, gns_matrix_exact, gns_oracle, gram_oracle,
                      ldl_positive_definite, row_reduce)

FL = Ring.float_(2.5)
FL2 = Ring.float_(2.0)
RR = Ring.rational(Fraction(5, 2))


# -- Gram matrices -------------------------------------------------------------


def test_gram_small_cases():
    assert an.gram_float(1, FL).tolist() == [[1.0]]
    g = an.gram(2, Ring.rational(Fraction(2)))
    assert [[s.value for s in row] for row in g] \
        == [[1, Fraction(1, 2)], [Fraction(1, 2), 1]]


def test_each_float_gram_matrix_is_built_once_and_shared(monkeypatch):
    # the eigenvalue check and the GNS frame read one read-only matrix per
    # (n, ring), with the bits of a fresh build; an equal ring finds it too
    ring, builds, gram = Ring.float_(2.3751), [], an.gram
    monkeypatch.setattr(an, "gram", lambda n, r: builds.append(n) or gram(n, r))
    for n in range(5):
        an.gram_min_eigenvalue(n, ring)
        an.GnsGeometry(n, ring)
        mat = an.gram_float(n, ring)
        assert mat is an.gram_float(n, Ring.float_(2.3751))
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 0.0
        fresh = np.array([[s.to_float() for s in row] for row in gram(n, ring)])
        assert mat.tobytes() == fresh.tobytes()
    assert builds == list(range(5))


def test_gram_positive_definite():
    for n in range(7):
        assert an.gram_min_eigenvalue(n, FL2) > 0
    for n in range(6):
        assert an.gram_positive_definite_exact(n, 2)
        assert an.gram_positive_definite_exact(n, Fraction(5, 2))


def test_gram_requires_numeric_mode(sym):
    with pytest.raises(ModeMismatchError):
        an.gram(2, sym)


def test_gram_matches_element_route():
    # the basis tables against one Element product and trace per entry; at
    # delta 2.2 the float powers round, so the order of operations shows
    for ring in (RR, FL2, FL, Ring.float_(2.2)):
        for n in range(6):
            assert [[s.value for s in row] for row in an.gram(n, ring)] \
                == [[s.value for s in row] for row in gram_oracle(n, ring)], (ring, n)


def test_gram_positive_definite_exact_matches_ldl():
    # `eliminate` on the scaled integer matrix against LDL^T over the
    # fractions; negative deltas at odd n need the scale to stay positive
    for delta in (Fraction(-5, 2), -2, Fraction(1, 2), 1, Fraction(5, 4),
                  Fraction(3, 2), Fraction(7, 4), 2, Fraction(5, 2), 3,
                  Fraction(7, 3)):
        for n in range(6):
            assert an.gram_positive_definite_exact(n, delta) \
                == ldl_positive_definite(n, delta), (delta, n)


def _det(mat):
    """Exact determinant by elimination with row swaps."""
    m = [row[:] for row in mat]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((r for r in range(c, len(m)) if m[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def test_gram_meander_determinant():
    # Di Francesco, "Meander determinants" (CMP 1998):
    # det G_n * d^(n Cat(n)) = prod_{j=1..n} U_j(d)^a(n,j), with U_j the
    # Chebyshev polynomials of the second kind and
    # a(n,j) = C(2n,n-j) - 2 C(2n,n-j-1) + C(2n,n-j-2)
    def comb(m, k):
        return math.comb(m, k) if k >= 0 else 0

    for d in (Fraction(5, 2), Fraction(3), Fraction(7, 3)):
        u = [Fraction(1), d]
        while len(u) <= 5:
            u.append(d * u[-1] - u[-2])
        for n in range(6):
            g = [[s.value for s in row] for row in an.gram(n, Ring.rational(d))]
            rhs = Fraction(1)
            for j in range(1, n + 1):
                rhs *= u[j] ** (comb(2 * n, n - j) - 2 * comb(2 * n, n - j - 1)
                                + comb(2 * n, n - j - 2))
            assert _det(g) * d ** (n * catalan(n)) == rhs, (d, n)


# -- the basis tables ---------------------------------------------------------------


def test_basis_tables_match_the_stacking_and_closure_oracles():
    # prod[a][b] is d_b stacked on d_a; gram_loops[b][j] with d_j = d_a* adds
    # the closure loops of that product
    for n in range(7):
        index, prod, gram_loops = an._basis_tables(n)
        basis = enumerate_diagrams(n)
        assert list(index) == list(basis)
        for a, da in enumerate(basis):
            star = index[da.reflect()]
            for b, db in enumerate(basis):
                d, loops = _stack(db, da, n)
                assert prod[a][b] == (index[d], loops), (n, a, b)
                assert gram_loops[b][star] == (loops, _closure_loops(d)), (n, a, b)


def test_basis_tables_trace_each_pair_of_halves_once(monkeypatch):
    # at n = 6: 20 halves, so 400 middles, and 132 closures; a trace of
    # every product would make 17,424 calls
    calls = []
    kernel = elements.trace_strands

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(an, "trace_strands", counted)
    monkeypatch.setattr(elements, "trace_strands", counted)
    elements._tau_loops.cache_clear()
    an._basis_tables.__wrapped__(6)
    assert len(calls) <= 600


# -- GNS matrices ----------------------------------------------------------------


def test_gns_is_multiplicative_exact(rng):
    # faithful *-homomorphism: matrix of xy equals the matrix product
    for _ in range(10):
        x = random_element(3, RR, rng)
        y = random_element(3, RR, rng)
        mx = gns_matrix_exact(x)
        my = gns_matrix_exact(y)
        mxy = gns_matrix_exact(x.multiply(y))
        dim = len(mx)
        prod = [[sum((mx[i][l] * my[l][j] for l in range(dim)),
                     RR.zero()) for j in range(dim)] for i in range(dim)]
        assert all(prod[i][j] == mxy[i][j] for i in range(dim) for j in range(dim))


def _gns_cases(ring, rng):
    # cup/3 - 5 id/6 at delta 5/2 sends the cup to (5/6 - 5/6) cup, which
    # is 0 exactly, and -1.1e-16 in floats before the zero-drop
    cup = Diagram(2, [(1, 2), (3, 4)])
    cases = [Element(2, ring, {cup: ring.fraction(Fraction(1, 3)),
                               identity_diagram(2): ring.fraction(Fraction(-5, 6))}),
             Element.zero(3, ring)]
    for n in range(1, 5):
        x = random_element(n, ring, rng, terms=3)
        cases += [x, x.star().multiply(x)]
    return cases


def test_gns_matrix_matches_element_route(rng):
    # the basis tables against one Element product per column, value for value
    for ring in (RR, FL):
        cases = _gns_cases(ring, rng)
        for x in cases:
            assert [[c.value for c in row] for row in gns_matrix_exact(x)] \
                == [[c.value for c in row] for row in gns_oracle(x)], x
        assert gns_matrix_exact(cases[0])[0][0].value == 0      # the cancelled entry


def test_gns_matrix_is_the_exact_route_bit_for_bit(rng):
    # the numpy matrix holds the kernel's float values, zeros included
    cases = _gns_cases(FL, rng)
    for x in cases:
        values = np.array([[c.value for c in row] for row in gns_matrix_exact(x)])
        mat = an.gns_matrix(x)
        assert mat.dtype == values.dtype and mat.shape == values.shape
        assert mat.tobytes() == values.tobytes(), x
    assert not an.gns_matrix(cases[1]).any()                # the zero element
    assert an.gns_matrix(cases[0])[0, 0] == 0               # the cancelled entry


def test_gns_gram_adjoint_exact(rng):
    # matrix of x* is the Gram-geometry adjoint: G^-1 M^T G
    x = random_element(2, RR, rng)
    g = [[s.value for s in row] for row in an.gram(2, RR)]
    m = [[s.value for s in row] for row in gns_matrix_exact(x)]
    ms = [[s.value for s in row] for row in gns_matrix_exact(x.star())]
    g_np = np.array([[float(v) for v in row] for row in g])
    m_np = np.array([[float(v) for v in row] for row in m])
    ms_np = np.array([[float(v) for v in row] for row in ms])
    adj = np.linalg.inv(g_np) @ m_np.T @ g_np
    assert np.abs(adj - ms_np).max() < 1e-10


# -- operator norms and square roots ------------------------------------------------


def test_op_norm_examples(rng):
    for n in (1, 2, 3):
        assert abs(an.op_norm(Element.unit(n, FL)) - 1) < 1e-9
    assert abs(an.op_norm(jones_projection(2, FL)) - 1) < 1e-9
    for _ in range(10):
        x = random_element(3, FL, rng)
        assert abs(an.op_norm(x.star().multiply(x)) - an.op_norm(x) ** 2) < 1e-7


def test_psd_sqrt_examples(rng):
    one = Element.unit(3, FL)
    assert an._max_coeff(an.psd_sqrt(one) - one) < 1e-9
    scaled = jones_projection(2, FL).scale(FL.delta_power(1))
    root = an.psd_sqrt(scaled)
    target = jones_projection(2, FL).scale(Scalar.float_(math.sqrt(2.5), 2.5))
    assert an._max_coeff(root - target) < 1e-9
    for _ in range(10):
        x = random_element(3, FL, rng)
        xx = x.star().multiply(x)
        r = an.psd_sqrt(xx)
        assert an._max_coeff(r.multiply(r) - xx) < 1e-7
        assert an._max_coeff(r - r.star()) < 1e-9


def test_psd_sqrt_rejects_non_psd(rng):
    x = Element.unit(2, FL).scale(FL.fraction(-1))
    with pytest.raises(PreconditionError):
        an.psd_sqrt(x)


# -- the estimate lemma and boundedness -----------------------------------------------


def test_estimate_lemma_degenerate_cases(rng):
    # i = 0, q = 2p: full gluing, identity reduces to |c|^2 = |a|^2
    a = an.unit_hk_norm(random_element(2, FL, rng), 1)
    rep = an.estimate_lemma_verify(a, 1, 4, 0)
    assert rep["status"] == "pass"
    # a = 0 gives c = 0
    rep = an.estimate_lemma_verify(Element.zero(2, FL), 1, 1, 1)
    assert rep["status"] == "pass"


def test_estimate_lemma_norm_ratio(rng):
    # p=2, k=1, q=1, i=1: norm ratio is exactly delta
    a = an.unit_hk_norm(random_element(2, FL, rng), 1)
    rep = an.estimate_lemma_verify(a, 1, 1, 1)
    assert rep["status"] == "pass"
    assert rep["max_residual"] < 1e-9


def test_boundedness_sweep(rng):
    for ring, k, m in ((FL2, 0, 2), (FL, 1, 2)):
        a = an.unit_hk_norm(random_element(m, ring, rng), k)
        rep = an.boundedness_verify(a, k, 40, rng)
        assert rep["status"] == "pass"
        assert rep["violations"] == 0
    # unit element: the bound is trivially respected
    rep = an.boundedness_verify(Element.unit(1, FL), 1, 10, rng)
    assert rep["status"] == "pass"


def test_boundedness_constant_is_the_square_root_route():
    # K = delta^k ||a||_{H_k} against the norm of psd_sqrt(glued) over every u
    rng = random.Random(17)
    for delta in (2.0, 2.2, 2.5):
        ring = Ring.float_(delta)
        for m in (1, 2, 3):
            for k in range(m + 1):
                a = random_element(m, ring, rng)
                if a.is_zero():
                    continue
                big_k = an.boundedness_verify(a, k, 0, rng)["bound"] / (1 + 2 * (m - k))
                oracle = boundedness_constant_oracle(a, k)
                assert big_k == pytest.approx(oracle, rel=1e-12, abs=0), (delta, m, k)


def _glued(x, m, u):
    """glued_u(x) in P_u: x in P_m glued to x* over 2m-u strands."""
    return evaluate(an.glue_tangle(m, 2 * m - u, 0), [x, x.star()])


def _glued_top(x, m, u):
    """lambda_max of glued_u(x), solved at colour u."""
    return an._spectrum(_glued(x, m, u))[2].max()


def test_glued_top_eigenvalue_is_that_of_the_dual_gluing():
    # ||X X*|| = ||X* X||: glued_u(a) in P_u and glued_{2m-u}(a*) in P_{2m-u},
    # each solved at its own colour, share their top eigenvalue
    rng = random.Random(23)
    for delta in (2.0, 2.2, 2.5):
        ring = Ring.float_(delta)
        for m in (1, 2, 3):
            a = random_element(m, ring, rng)
            for u in range(2 * m + 1):
                assert _glued_top(a.star(), m, 2 * m - u) == pytest.approx(
                    _glued_top(a, m, u), rel=1e-12, abs=0), (delta, m, u)


def test_glued_top_eigenvalue_is_at_most_the_trace():
    # the theorem behind K's closed form: at delta >= 2, lambda_max(glued_u) <=
    # Tr(glued_u) = glued_0 = Tr(a a*) = delta^m tau(a a*) for every u, with
    # equality at u = 2m, where glued_u = |a><a| is rank one
    rng = random.Random(31)
    for delta in (2.0, 2.2, 2.5):
        ring = Ring.float_(delta)
        for m in (1, 2, 3):
            a = random_element(m, ring, rng)
            trace = _glued(a, m, 0).tau().to_float()
            assert trace == pytest.approx(
                hk_norm_squared_element(a, 0).to_float(), rel=1e-12), (delta, m)
            for u in range(2 * m + 1):
                assert _glued(a, m, u).tau().to_float() * delta ** u == pytest.approx(
                    trace, rel=1e-12), (delta, m, u)
                assert _glued_top(a, m, u) <= trace * (1 + 1e-12), (delta, m, u)
            assert _glued_top(a, m, 2 * m) == pytest.approx(
                trace, rel=1e-12, abs=0), (delta, m)


def test_boundedness_constant_makes_no_solve(monkeypatch):
    # K is read off ||a||_{H_k}: no gluing is evaluated and no spectrum solved
    rng = random.Random(29)

    def refused(*args, **kw):
        raise AssertionError("boundedness_verify glued or solved")

    monkeypatch.setattr(an, "_spectrum", refused)
    monkeypatch.setattr(an, "evaluate", refused)
    for ring in (FL, FL2):
        for m in (1, 2, 3):
            for k in range(m + 1):
                rep = an.boundedness_verify(random_element(m, ring, rng), k, 1, rng)
                assert rep["status"] == "pass", (m, k)


@pytest.mark.parametrize("delta", [1.5, 1.9])
def test_boundedness_constant_needs_delta_at_least_two(rng, delta):
    # the closed form rests on lambda_max(y) <= Tr(y) for y >= 0, which needs
    # every minimal projection of TL to have trace >= 1, that is delta >= 2
    a = random_element(3, Ring.float_(delta), rng)
    with pytest.raises(PreconditionError, match="require delta >= 2"):
        an.boundedness_verify(a, 0, 1, rng)


# a diagram that is not its own reflection, so its basis element is not self-adjoint
SKEW3 = Diagram(3, [(1, 2), (3, 6), (4, 5)])


def test_psd_sqrt_keeps_the_psd_preconditions(rng):
    # each refusal holds whether psd_sqrt solves x itself or is handed x's spectrum
    negated = -_glued(random_element(2, FL, rng), 2, 2)
    skew = Element.basis(SKEW3, FL)
    skewed = evaluate(an.glue_tangle(3, 3, 0), [skew, skew])     # glued to itself, not skew*
    for x, message in ((negated, "not PSD"), (skewed, "not self-adjoint")):
        for spectrum in (None, an._spectrum(x, vectors=True)):
            with pytest.raises(PreconditionError, match=message):
                an.psd_sqrt(x, spectrum)


def test_estimate_lemma_reports_the_asymmetry_of_its_left_hand_side(monkeypatch):
    a = Element.basis(SKEW3, FL)
    lhs = evaluate(an.glue_tangle(3, 0, 0), [a, a])
    monkeypatch.setattr(an, "evaluate", lambda t, inputs: evaluate(t, [inputs[0]] * 2))
    rep = an.estimate_lemma_verify(a, 1, 0, 0)
    assert rep["status"] == "fail" and math.isnan(rep["min_eigenvalue"])
    assert rep["max_residual"] == an._spectrum(lhs)[1] > 1e-7


def test_estimate_lemma_builds_one_operator_per_point(monkeypatch):
    # the suite's lemma grid: one GNS operator and eigen-solve serve both the
    # PSD test and the square root, and the flag is the one is_psd gives
    rng = random.Random(11)
    builds, operator = [], an.GnsGeometry.operator
    monkeypatch.setattr(an.GnsGeometry, "operator",
                        lambda geo, x: builds.append(x) or operator(geo, x))
    for ring in (FL, FL2):
        for p, k, q, i in ((1, 0, 0, 0), (2, 1, 1, 1), (2, 1, 4, 0), (3, 1, 3, 2),
                           (3, 2, 2, 1)):
            a = an.unit_hk_norm(random_element(p, ring, rng), k)
            builds.clear()
            rep = an.estimate_lemma_verify(a, k, q, i)
            assert rep["status"] == "pass" and len(builds) == 1
            assert (rep["psd"], rep["min_eigenvalue"]) == pytest.approx(
                an.is_psd(builds[0]), abs=1e-12)


def test_hk_norm_float_sums_component_norms_in_order():
    # the float route adds the per-colour squared norms one by one, bit for bit
    rng = random.Random(5)
    for ring in (FL, FL2, Ring.float_(2.2)):
        for _ in range(100):
            k = rng.randint(0, 2)
            a = random_graded(k, k + 3, ring, rng)
            total = 0.0
            for el in a.components.values():
                total += an.hk_norm_squared_element(el, k).to_float()
            assert an.hk_norm_float(a) == float(np.sqrt(max(total, 0.0)))


def test_sum_norm_inequality(rng):
    vecs = [np.array([rng.uniform(-1, 1) for _ in range(8)]) for _ in range(6)]
    assert an.sum_norm_inequality(vecs)


# -- the subspaces C^n_k ---------------------------------------------------------------


def test_membership_caps_x_once(monkeypatch, rng):
    # perp_projection's capping of x is the perp test's own evaluation
    caps = []
    monkeypatch.setattr(an, "evaluate", lambda t, inputs: (
        caps.append(t) if t == transpose_annular(annular_X(3, 1)) else None)
        or evaluate(t, inputs))
    rep = an.cnk_membership(random_element(3, RR, rng), 1)
    assert rep["status"] == "pass" and len(caps) == 1


def test_perp_projection_builds_its_tangles_once(monkeypatch, rng):
    # X^n_k and its transpose come from one cache entry per (n, k): once
    # it is filled, a projection builds no tangle
    for n, k in ((3, 1), (4, 2)):
        x_tangle, cap = an._perp_tangles(n, k)
        assert x_tangle is annular_X(n, k) and an._perp_tangles(n, k)[1] is cap
        assert cap == transpose_annular(annular_X(n, k))
    monkeypatch.setattr(an, "annular_X", None)
    monkeypatch.setattr(an, "transpose_annular", None)
    for n, k in ((3, 1), (4, 2)):
        x = random_element(n, RR, rng)
        member, perp = an.perp_projection(x, k)
        assert member + perp == x


def test_membership_by_construction(rng):
    for (n, k) in ((2, 1), (3, 1), (3, 2)):
        y = random_element(k, RR, rng)
        member = evaluate(annular_X(n, k), [y])
        rep = an.cnk_membership(member, k)
        assert rep["member"] and rep["status"] == "pass"


def test_membership_at_equal_colour(rng):
    # C^k_k = P_k: everything is a member
    for k in (1, 2):
        rep = an.cnk_membership(random_element(k, RR, rng), k)
        assert rep["member"]


def test_membership_decomposition(rng):
    for _ in range(10):
        x = random_element(3, RR, rng)
        rep = an.cnk_membership(x, 1)
        assert rep["status"] == "pass" and rep["orthogonal"]
        member = Element.from_json(rep["witness"]["member"], RR)
        perp = Element.from_json(rep["witness"]["perp"], RR)
        assert member + perp == x
        capped = evaluate(transpose_annular(annular_X(3, 1)), [perp])
        assert capped.is_zero()


# -- the commutant lemmas -----------------------------------------------------------------


def test_ccommlem_zero(sym):
    assert an.ccommlem_invert(Element.zero(3, sym), 2, 1).is_zero()


def test_ccommlem_roundtrip(sym, rng):
    for (n, k) in ((2, 1), (3, 1), (3, 2)):
        for _ in range(5):
            _, x = an.perp_projection(random_element(n, sym, rng), k)
            z = an.commutator_with_c(x, k, n + 1)
            assert an.ccommlem_invert(z, n, k) == x


def test_annular_norm_bound(rng):
    for _ in range(15):
        k = rng.randint(0, 1)
        n, m = rng.randint(k, 4), rng.randint(k, 4)
        size = rng.randint(0, min(m - k, n - k))
        spec = TSpec(k, frozenset(rng.sample(range(1, m - k + 1), size)),
                     frozenset(rng.sample(range(1, n - k + 1), size)), m, n)
        ok, lhs, rhs = an.annular_norm_bound(spec, random_element(n, FL, rng), k)
        assert ok, (spec, lhs, rhs)


def test_dcomm_replay_unique_placement():
    for k in (0, 1):
        rep = an.dcomm_replay(k)
        assert rep["status"] == "pass"
        assert rep["default_ok"]
        assert rep["passing_placements"] == [{"Y": "first", "Z": "last"}]


def test_xnxm_and_telescope(rng):
    rep = an.xnxm_verify(1, 2, rng)
    assert rep["status"] == "pass" and rep["zero_case"]
    rep = an.xnxm_telescope(1, 2, rng)
    assert rep["status"] == "pass"


def test_xn_from_xm_zero(sym):
    assert an.xn_from_xm(Element.zero(4, sym), 2, 1, 1).is_zero()


# -- exact elimination -----------------------------------------------------------------


def test_eliminate_rank_of_singular_matrix():
    mat = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    assert an.eliminate(mat, 3) == [(0, 0, 1), (2, 1, -2)]
    assert mat[2][2] == 0                       # the dependent row, right of the pivots


def test_eliminate_reports_the_row_it_swapped_up():
    # the Sylvester test reads a swap off `row`: column 0 pivots on row 1
    assert an.eliminate([[0, 1], [1, 0]], 2) == [(1, 0, 1), (1, 1, 1)]


def test_sylvester_test_refuses_a_swapped_pivot(monkeypatch):
    # [[1,1,2],[1,1,4],[2,4,1]] has a zero leading 2x2 minor, so it is not
    # positive definite, yet every pivot is positive once row 2 swaps up
    loops = [[(0, 0), (0, 0), (1, 0)], [(0, 0), (0, 0), (2, 0)], [(1, 0), (2, 0), (0, 0)]]
    monkeypatch.setattr(an, "_basis_tables", lambda n: (None, None, loops))
    assert an.eliminate([[1, 1, 2], [1, 1, 4], [2, 4, 1]], 3) \
        == [(0, 0, 1), (2, 1, 2), (2, 2, 4)]
    assert not an.gram_positive_definite_exact.__wrapped__(0, 2)


def test_reduced_solve_inconsistent_system():
    system = an._reduce([[Fraction(1), Fraction(1)]], 2)     # x = 1 and x = 2
    assert an._reduced_solve(system, [Fraction(1), Fraction(2)]) is None


def test_reduced_solve_consistent_system():
    cols = [[Fraction(v) for v in c] for c in ([1, 0], [1, 1], [2, 1])]
    # x + y + 2z = 3, y + z = 1
    sol = an._reduced_solve(an._reduce(cols, 2), [Fraction(3), Fraction(1)])
    assert sol == [2, 1, 0]                     # free column left at zero


def test_reduced_solve_tiny_pivot():
    # the integer scaling keeps a 1/10^12 pivot exact
    system = an._reduce([[Fraction(1, 10**12)]], 1)
    assert an._reduced_solve(system, [Fraction(1, 10**9)]) == [1000]


def test_rank_of_scaled_integer_rows_is_the_oracle_rank():
    rng = random.Random(11)

    def fraction():
        return Fraction(rng.choice((0, 0, 1, -1, 2, -3, 5)), rng.choice((1, 2, 3, 4, 7, 12)))

    for _ in range(80):
        ncols = rng.randint(1, 6)
        mat = [[fraction() for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
        for _ in range(rng.randint(0, 3)):      # zero, repeated and combined rows
            a, b = rng.choice(mat), rng.choice(mat)
            f, g = rng.choice(((0, 0), (1, 0), (Fraction(-3, 7), 0), (fraction(), fraction())))
            mat.insert(rng.randint(0, len(mat)), [f * x + g * y for x, y in zip(a, b)])
        before = [row[:] for row in mat]
        assert _rank(mat) == len(row_reduce([row[:] for row in mat], ncols)), mat
        assert mat == before                    # the caller's rows are left alone


def _exact_systems():
    """(cols, system) of every cached exact system the numeric suites solve:
    xnxm_verify's capping expression and cnk_membership's image columns."""
    for k, n in ((1, 2), (1, 3), (2, 3)):
        texpr, perp_basis, system = an._xnxm_system(k, n, RR)
        yield [an.coordinates(texpr(pb)) for pb in perp_basis], system
    for n, k in ((2, 1), (3, 1), (3, 2), (4, 2), (2, 2)):
        _basis_k, system = an._image_system(n, k, RR)
        yield [an.coordinates(evaluate(annular_X(n, k), [Element.basis(d, RR)]))
               for d in enumerate_diagrams(k)], system


def test_once_eliminated_solve_is_the_in_place_solve():
    rng = random.Random(3)

    def fraction():
        return Fraction(rng.randint(-5, 5), rng.randint(1, 3))

    for cols, system in _exact_systems():
        rows, ncols = len(cols[0]), len(cols)
        assert system[0] == ncols and len(system[3]) == rows
        weights = [[fraction() for _ in cols] for _ in range(4)]
        images = [[sum((c[i] * w for c, w in zip(cols, ws)), Fraction(0)) for i in range(rows)]
                  for ws in weights]
        targets = [[Fraction(0)] * rows] + images + [[fraction() for _ in range(rows)]
                                                     for _ in range(4)]
        solutions = [an._reduced_solve(system, target) for target in targets]
        assert solutions == [gauss_solve_in_place(cols, target) for target in targets]
        # the zero and image targets are solved; random ones fail unless cols span
        assert None not in solutions[:5]
        rank = len(row_reduce([list(row) for row in zip(*cols)], ncols))
        assert (None in solutions[5:]) == (rank < rows)
        for target, sol in zip(targets, solutions):
            if sol is not None:
                assert all(type(v) is Fraction for v in sol)
                assert [sum(c[i] * v for c, v in zip(cols, sol)) for i in range(rows)] \
                    == target


def test_gram_positive_definite_exact_rejects():
    assert not an.gram_positive_definite_exact(2, 1)                # singular
    assert not an.gram_positive_definite_exact(2, Fraction(1, 2))   # indefinite
    with pytest.raises(PreconditionError):
        an.gram_positive_definite_exact(2, 0)
