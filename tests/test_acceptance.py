"""Acceptance gate: every exit criterion at its stated size and tolerance.

Each test prints one pass/fail line; run `pytest tests/test_acceptance.py -v`
(or `-s` to see the lines inline).
"""

import json
import random
import time
from fractions import Fraction

import pytest

import planalg.analysis as an
from planalg.annular import TSpec, annular_T, annular_X, compose_T, \
    transpose_annular
from planalg.cli import main
from planalg.config import Config
from planalg.diagrams import enumerate_diagrams
from planalg.elements import Element
from planalg.scalars import Ring
from planalg.suites import (suite_annular, suite_filtalg, suite_gjs_iso,
                            suite_jones, _index_bijection_ok)
from planalg.tangles import Tangle, evaluate, left_expectation_tangle, validate
from planalg.tower import GradedElement, element_c, element_d, index_sets, sharp
from planalg import random_element

BUDGETS = {1: 300, 2: 60, 3: 120, 4: 600, 5: 300, 6: 300, 7: 300, 8: 120}


def report(number, name, elapsed, budget):
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.1f}s "
          f"(budget {budget}s)")
    assert elapsed <= budget


def test_criterion_1_filtered_algebra_suite():
    start = time.perf_counter()
    cfg = Config(trials=200, level=2, seed=42)
    rows = suite_filtalg(cfg)
    failures = [r for r in rows if r["status"] != "pass"]
    assert not failures, failures
    clause_rows = [r for r in rows if r["check"].startswith("filtalg.")
                   and "index" not in r["check"]]
    assert len(clause_rows) == 6 * 3        # six clauses, k in {0,1,2}
    assert all("200/200" in r["details"] for r in clause_rows)
    report(1, "filtered-algebra suite", time.perf_counter() - start, BUDGETS[1])


def test_criterion_2_index_bijections():
    start = time.perf_counter()
    assert _index_bijection_ok(6)
    # the printed shifted-range set identity for the dot action is wrong;
    # the regression below pins the counterexample (see the decisions ledger)
    assert index_sets(2, 2, 1, 1, dot=True) == ({(2, 1)}, {(1, 1)})
    report(2, "index bijections exhaustive to 6",
           time.perf_counter() - start, BUDGETS[2])


def test_criterion_3_annular_composition():
    start = time.perf_counter()
    sym = Ring.symbolic()
    rng = random.Random(42)
    for _ in range(100):
        k = rng.randint(0, 2)
        m, n, p = (rng.randint(k, 7) for _ in range(3))
        size1 = rng.randint(0, min(m - k, n - k))
        size2 = rng.randint(0, min(n - k, p - k))
        first = TSpec(k, frozenset(rng.sample(range(1, m - k + 1), size1)),
                      frozenset(rng.sample(range(1, n - k + 1), size1)), m, n)
        second = TSpec(k, frozenset(rng.sample(range(1, n - k + 1), size2)),
                       frozenset(rng.sample(range(1, p - k + 1), size2)), n, p)
        expo, spec3 = compose_T(first, second)
        x = random_element(p, sym, rng, terms=1)
        lhs = evaluate(annular_T(first), [evaluate(annular_T(second), [x])])
        rhs = evaluate(annular_T(spec3), [x]).scale(sym.delta_power(expo))
        assert lhs == rhs, (first, second)
    report(3, "annular composition formula", time.perf_counter() - start,
           BUDGETS[3])


def test_criterion_4_gjs_isomorphism_suite():
    start = time.perf_counter()
    cfg = Config(trials=60, level=2, seed=42)
    rows = suite_gjs_iso(cfg)
    failures = [r for r in rows if r["status"] != "pass"]
    assert not failures, failures
    assert {r["params"]["k"] for r in rows} == {0, 1, 2}
    report(4, "GJS isomorphism suite", time.perf_counter() - start, BUDGETS[4])


def test_criterion_5_jones_relations():
    start = time.perf_counter()
    cfg = Config(trials=50, level=2, seed=42)
    rows = suite_jones(cfg)
    failures = [r for r in rows if r["status"] != "pass"]
    assert not failures, failures
    names = {r["check"] for r in rows}
    assert {"jones.idempotent", "jones.expectation", "jones.exe_rule",
            "jones.commutes_lower", "jones.dot_homomorphism"} <= names
    report(5, "Jones relations", time.perf_counter() - start, BUDGETS[5])


def test_criterion_6_numeric_estimates():
    start = time.perf_counter()
    rng = random.Random(42)
    for delta in (2.0, 2.5):
        ring = Ring.float_(delta)
        for n in range(7):
            assert an.gram_min_eigenvalue(n, ring) > 0, (delta, n)
        grid = [(1, 0, 0, 0), (1, 0, 1, 1), (2, 0, 2, 2), (2, 1, 1, 1),
                (2, 1, 4, 0), (2, 2, 0, 0), (3, 1, 3, 2), (3, 1, 6, 0),
                (2, 0, 4, 0), (3, 2, 2, 1)]
        for (p, k, q, i) in grid:
            a = an.unit_hk_norm(random_element(p, ring, rng), k)
            rep = an.estimate_lemma_verify(a, k, q, i)
            assert rep["status"] == "pass", rep
            assert rep["max_residual"] <= 1e-9, rep
        for (m, k) in ((2, 0), (2, 1)):
            a = an.unit_hk_norm(random_element(m, ring, rng), k)
            rep = an.boundedness_verify(a, k, 100, rng)
            assert rep["status"] == "pass" and rep["violations"] == 0, rep
    report(6, "numeric estimate suite", time.perf_counter() - start, BUDGETS[6])


def test_criterion_7_section5_replay():
    start = time.perf_counter()
    rng = random.Random(42)
    sym = Ring.symbolic()
    rr = Ring.rational(Fraction(5, 2))
    cases = [(2, 1), (3, 1), (3, 2), (4, 2)]
    for idx in range(100):
        n, k = cases[idx % len(cases)]
        x = random_element(n, rr, rng)
        rep = an.cnk_membership(x, k)
        assert rep["status"] == "pass" and rep["routes_agree"], (n, k)
    for (n, k) in ((2, 1), (3, 1), (3, 2)):
        for _ in range(5):
            _, x = an.perp_projection(random_element(n, sym, rng), k)
            z = an.commutator_with_c(x, k, n + 1)
            assert an.ccommlem_invert(z, n, k) == x, (n, k)
    for k in (0, 1):
        rep = an.dcomm_replay(k, random.Random(0))
        assert rep["status"] == "pass"
        assert rep["passing_placements"] == [{"Y": "first", "Z": "last"}]
    rep = an.xnxm_verify(1, 2, rng)
    assert rep["status"] == "pass", rep
    rep = an.xnxm_telescope(1, 2, rng)
    assert rep["status"] == "pass", rep
    report(7, "section-5 replay suite", time.perf_counter() - start, BUDGETS[7])


def test_criterion_8_commutant_ingredients():
    start = time.perf_counter()
    sym = Ring.symbolic()
    for k in range(4):
        c_el, d_el = element_c(k, sym), element_d(k, sym)
        for d in enumerate_diagrams(k):
            g = GradedElement.of_element(k, Element.basis(d, sym))
            assert sharp(g, c_el) == sharp(c_el, g), ("c", k, d)
            assert sharp(g, d_el) == sharp(d_el, g), ("d", k, d)
    from planalg.suites import _el_fixed_point_ok
    for k in (1, 2, 3):
        for i in range(1, k + 1):
            assert _el_fixed_point_ok(k, i), (k, i)
    w_tangle = Tangle(2, [1], [((1, 1), (0, 3)), ((1, 2), (0, 2)),
                               ((0, 1), (0, 4))])
    validate(w_tangle)
    for d in enumerate_diagrams(1):
        x = Element.basis(d, sym)
        z = evaluate(w_tangle, [x])
        assert z.tau() == x.tau()
        wrapped = evaluate(left_expectation_tangle(2, 1), [z])
        assert wrapped == z.scale(sym.delta_power(1))
    report(8, "commutant ingredients", time.perf_counter() - start, BUDGETS[8])


def test_criterion_9_determinism(tmp_path, capsys):
    first = tmp_path / "rep1.json"
    second = tmp_path / "rep2.json"
    assert main(["verify", "all", "--seed", "42", "--json",
                 "--out", str(first)]) == 0
    assert main(["verify", "all", "--seed", "42", "--json",
                 "--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    report_data = json.loads(first.read_text())
    assert report_data["status"] == "pass"
    print("ACCEPTANCE 9 (determinism): PASS, byte-identical reports")
