"""Closed forms from subfactor theory as independent oracles.

Each test checks a classical statement about the Temperley-Lieb tower
against the combinatorial routes of the package (product, adjoint, trace,
inclusion, expectation and the Gram test), with nothing of those routes
inside the closed form itself.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from planalg.analysis import gram_float, gram_positive_definite_exact, is_psd
from planalg.diagrams import Diagram
from planalg.elements import Element, jones_projection, random_element
from planalg.scalars import Ring
from planalg.tangles import evaluate, inclusion_tangle, right_expectation_tangle


def chebyshev_u(j: int, delta):
    """U_j(delta) of the second kind: U_0 = 1, U_1 = delta,
    U_{j+1} = delta U_j - U_{j-1}."""
    prev, cur = 0, 1
    for _ in range(j):
        prev, cur = cur, delta * cur - prev
    return cur


def cup_cap(n: int, i: int, ring: Ring) -> Element:
    """E_i in P_n: points i, i+1 capped on top and cupped below, the rest
    through strands (unnormalised, so E_i^2 = delta E_i)."""
    pairs = [(i, i + 1), (2 * n - i, 2 * n + 1 - i)]
    pairs += [(j, 2 * n + 1 - j) for j in range(1, n + 1) if j not in (i, i + 1)]
    return Element.basis(Diagram(n, pairs), ring)


def include(x: Element) -> Element:
    return evaluate(inclusion_tangle(x.colour.n), [x])


def expect(x: Element) -> Element:
    """The trace-preserving conditional expectation P_n -> P_{n-1}."""
    capped = evaluate(right_expectation_tangle(x.colour.n, 1), [x])
    return capped.scale(x.ring.delta_power(-1))


# -- Jones-Wenzl projections (Wenzl, "On sequences of projections", 1987) -----------


def jones_wenzl(top: int, ring: Ring) -> list:
    """[f_1, ..., f_top] by Wenzl's recursion
    f_{n+1} = i(f_n) - (U_{n-1}/U_n)(delta) i(f_n) E_n i(f_n)."""
    delta = ring.delta
    fs = [Element.unit(1, ring)]
    for n in range(1, top):
        f = include(fs[-1])
        ratio = ring.fraction(chebyshev_u(n - 1, delta) / chebyshev_u(n, delta))
        e = jones_projection(n + 1, ring).scale(ring.delta_power(1))
        fs.append(f - f.multiply(e).multiply(f).scale(ratio))
    return fs


@pytest.mark.parametrize("delta", [Fraction(5, 2), Fraction(3), Fraction(7, 3)])
def test_jones_wenzl_projections(delta):
    ring = Ring.rational(delta)
    for n, f in enumerate(jones_wenzl(4, ring), start=1):
        assert f.multiply(f) == f, (delta, n)
        assert f.star() == f, (delta, n)
        for i in range(1, n):
            e = cup_cap(n, i, ring)
            assert e.multiply(f).is_zero() and f.multiply(e).is_zero(), (delta, n, i)
        assert f.tau() == ring.fraction(chebyshev_u(n, delta) / delta ** n), (delta, n)


# -- Pimsner-Popa ("Entropy and index for subfactors", 1986) --------------------------


@pytest.mark.parametrize("delta", [2.0, 2.5, 3.0])
def test_pimsner_popa_inequality(delta):
    """i(E(x)) - delta^-2 x is positive for positive x in P_n."""
    ring = Ring.float_(delta)
    rng = random.Random(1986)
    for n in range(2, 5):
        for _ in range(10):
            y = random_element(n, ring, rng, terms=4)
            x = y.star().multiply(y)
            gap = include(expect(x)) - x.scale(ring.fraction(delta ** -2))
            psd, min_eig = is_psd(gap)
            assert psd and min_eig >= -1e-12, (delta, n, min_eig)


@pytest.mark.parametrize("delta", [2.0, 2.5, 3.0])
def test_pimsner_popa_constant_is_sharp(delta):
    """At the Jones projection e_n the constant delta^-2 cannot grow."""
    ring = Ring.float_(delta)
    for n in range(2, 5):
        e = jones_projection(n, ring)
        gap = include(expect(e)) - e.scale(ring.fraction(1.01 * delta ** -2))
        assert is_psd(gap)[1] < 0, (delta, n)


# -- positivity threshold (Goodman-de la Harpe-Jones, "Coxeter graphs and towers
#    of algebras", 1989) -------------------------------------------------------------


def test_gram_positivity_threshold():
    """For rational delta in (0, 3], the Gram matrix of P_n is positive
    definite exactly when U_1, ..., U_n are positive at delta."""
    deltas = {Fraction(p, q) for q in range(1, 9) for p in range(1, 3 * q + 1)}
    for delta in sorted(deltas):
        for n in range(1, 6):
            closed_form = all(chebyshev_u(j, delta) > 0 for j in range(1, n + 1))
            assert gram_positive_definite_exact(n, delta) == closed_form, (delta, n)


# -- Jones' index values (Jones, "Index for subfactors", 1983; Goodman-de la
#    Harpe-Jones, 1989; Wenzl, 1987) -------------------------------------------


def end_vertex_walks(vertices: int, length: int) -> int:
    """Closed walks of `length` steps from an end vertex of the path A_vertices."""
    counts = [1] + [0] * (vertices - 1)
    for _ in range(length):
        counts = [(counts[v - 1] if v else 0)
                  + (counts[v + 1] if v + 1 < vertices else 0)
                  for v in range(vertices)]
    return counts[0]


@pytest.mark.parametrize("big_n", range(3, 9))
def test_gram_rank_at_jones_index_values(big_n):
    """At delta = 2cos(pi/N) the Gram matrix of P_n is positive semidefinite
    of rank the number of closed walks of length 2n from an end vertex of
    the Dynkin diagram A_{N-1}."""
    ring = Ring.float_(2 * math.cos(math.pi / big_n))
    for n in range(7):
        eigs = np.linalg.eigvalsh(gram_float(n, ring))
        scale = np.abs(eigs).max()
        assert eigs.min() >= -1e-9 * scale, (big_n, n, eigs.min())
        rank = int((eigs > 1e-9 * scale).sum())
        assert rank == end_vertex_walks(big_n - 1, 2 * n), (big_n, n, rank)
