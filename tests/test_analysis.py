import math
import random
from fractions import Fraction

import numpy as np
import pytest

import planalg.analysis as an
from planalg.annular import TSpec, annular_T, annular_X, transpose_annular
from planalg.diagrams import Diagram, catalan, enumerate_diagrams, identity_diagram
from planalg.elements import Element, jones_projection
from planalg.errors import ModeMismatchError, PreconditionError
from planalg.scalars import Ring, Scalar
from planalg.tangles import evaluate
from planalg.tower import GradedElement, element_c, sharp
from planalg import random_element, random_graded
from conftest import gns_matrix_exact, gns_oracle, gram_oracle, ldl_positive_definite

FL = Ring.float_(2.5)
FL2 = Ring.float_(2.0)
RR = Ring.rational(Fraction(5, 2))


# -- Gram matrices -------------------------------------------------------------


def test_gram_small_cases():
    assert an.gram_float(1, FL).tolist() == [[1.0]]
    g = an.gram(2, Ring.rational(Fraction(2)))
    assert [[s.value for s in row] for row in g] \
        == [[1, Fraction(1, 2)], [Fraction(1, 2), 1]]


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
    # Bareiss on the scaled integer matrix against LDL^T over the fractions;
    # negative deltas at odd n need the scale to stay positive
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


def test_row_reduce_rank_of_singular_matrix():
    mat = [[Fraction(v) for v in row] for row in ([1, 2, 3], [2, 4, 6], [1, 0, 1])]
    assert an.row_reduce(mat, 3) == [0, 1]
    assert mat[2] == [0, 0, 0]


def test_gauss_solve_inconsistent_system():
    cols = [[1, 1]]                             # x = 1 and x = 2
    assert an._gauss_solve([[Fraction(v) for v in c] for c in cols],
                           [Fraction(1), Fraction(2)], exact=True) is None
    assert an._gauss_solve([[float(v) for v in c] for c in cols],
                           [1.0, 2.0], exact=False) is None


def test_gauss_solve_consistent_system():
    cols = [[1, 0], [1, 1], [2, 1]]             # x + y + 2z = 3, y + z = 1
    sol = an._gauss_solve([[Fraction(v) for v in c] for c in cols],
                          [Fraction(3), Fraction(1)], exact=True)
    assert sol == [2, 1, 0]                     # free column left at zero
    sol = an._gauss_solve([[float(v) for v in c] for c in cols],
                          [3.0, 1.0], exact=False)
    assert sol == pytest.approx([2.0, 1.0, 0.0])


def test_gauss_solve_float_thresholds():
    # below 1e-10 an entry is no pivot; a residual below 1e-8 is consistent
    assert an._gauss_solve([[1e-12]], [1e-9], exact=False) == [0.0]
    assert an._gauss_solve([[1e-12]], [1e-7], exact=False) is None
    assert an._gauss_solve([[Fraction(1, 10**12)]], [Fraction(1, 10**9)],
                           exact=True) == [1000]


def test_gram_positive_definite_exact_rejects():
    assert not an.gram_positive_definite_exact(2, 1)                # singular
    assert not an.gram_positive_definite_exact(2, Fraction(1, 2))   # indefinite
    with pytest.raises(PreconditionError):
        an.gram_positive_definite_exact(2, 0)
