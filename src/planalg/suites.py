"""Named verification suites behind `pa verify`.

Each suite draws its randomness from a fresh seeded generator, so reports
are deterministic for a given seed and independent of worker scheduling.
Report rows share one schema: check, params, status, details, max_residual.

A randomized suite is declared as a `draw` and a `check` per group of rows,
handed to `_clauses`, which does the counting.  `draw(case)` makes every
generator draw of one trial; `check(*inputs)` only reads its inputs and
returns {clause: held}, computing values that several clauses share once.
Clauses are closures in the suite body that reach `sharp`, `phi`,
`evaluate` and the other layer functions through this module's globals at
call time, so a tracer that rebinds those globals sees every call.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, wraps

from .annular import TSpec, annular_T, annular_X, compose_T, enumerate_good, \
    transpose_annular
from .config import Config
from .diagrams import enumerate_diagrams
from .elements import Element, random_element
from .errors import PreconditionError
from .scalars import Ring
from .tangles import Tangle, evaluate, identity_tangle, left_expectation_tangle, \
    rotation_tangle, substitute, validate
from .tower import GradedElement, bullet, cond_expect, dagger, dot_action, \
    dot_action_via_expectation, element_c, element_d, include, \
    index_bijection, index_sets, jones_e, phi, psi, random_graded, sharp, \
    trace_Tr, trace_tk

SUITE_NAMES = ("filtalg", "annular", "gjs-iso", "jones", "estimates",
               "commutant-replay", "positivity")


def _row(check, params, ok, details="", residual=0.0):
    return {"check": check, "params": params,
            "status": "pass" if ok else "fail",
            "details": details, "max_residual": residual}


def _clauses(prefix, params, cases, draw, check, tally):
    """Rows `prefix.clause`, in name order, each passing when its clause held
    in every case, with details `tally.format(passed, cases)`."""
    passed = {}
    for case in cases:
        for clause, held in check(*draw(case)).items():
            passed[clause] = passed.get(clause, 0) + bool(held)
    return [_row(f"{prefix}.{clause}", params, good == len(cases),
                 tally.format(good, len(cases)))
            for clause, good in sorted(passed.items())]


def _float_errors_raise(suite):
    """A numeric suite run with numpy raising `FloatingPointError` on an
    overflow or invalid value (a float delta too large for float arithmetic)
    instead of warning.  Only these suites load `analysis`, which loads
    numpy; it comes first, as compiling it after numpy raised peak RSS 2 MB."""
    @wraps(suite)
    def run(cfg: Config):
        from . import analysis  # noqa: F401
        import numpy as np
        with np.errstate(over="raise", invalid="raise"):
            return suite(cfg)
    return run


# -- the filtered-algebra suite ----------------------------------------------------


def suite_filtalg(cfg: Config):
    ring = Ring.symbolic()
    rng = random.Random(cfg.seed)
    rows = []
    for k in range(cfg.level + 1):
        top = min(k + 3, cfg.resolved_max_colour())
        unit = GradedElement.unit(k, ring)

        def draw(_):
            a, b, c = (random_graded(k, top, ring, rng) for _ in range(3))
            return a, b, c, random_graded(k + 1, top + 1, ring, rng)

        def check(a, b, c, x):
            shared = set(a.components) & set(b.components)
            rhs = sum((b.component(n).star().multiply(a.component(n)).tau()
                       .delta_pow(n - k) for n in shared), ring.zero())
            ia, ib, ab = include(a), include(b), sharp(a, b)
            da, db, ex = dagger(a), dagger(b), cond_expect(x)
            return {
                "assoc": sharp(ab, c) == sharp(a, sharp(b, c)),
                "unit": sharp(unit, a) == a and sharp(a, unit) == a,
                "dagger": dagger(ab) == sharp(db, da) and dagger(da) == a,
                "trace": trace_tk(sharp(db, a)) == rhs
                and trace_tk(ab) == trace_tk(sharp(b, a)),
                "inclusion": include(ab) == sharp(ia, ib)
                and include(da) == dagger(ia)
                and trace_tk(ia) == trace_tk(a)
                and include(unit) == GradedElement.unit(k + 1, ring),
                "expectation": cond_expect(ia) == a
                and cond_expect(sharp(sharp(ia, x), ib)) == sharp(sharp(a, ex), b)
                and trace_tk(ex) == trace_tk(x)
                and dagger(ex) == cond_expect(dagger(x))}
        rows += _clauses("filtalg", {"k": k, "trials": cfg.trials},
                         range(cfg.trials), draw, check, "{}/{} exact")
    rows.append(_row("filtalg.index_bijection", {"max": 6},
                     _index_bijection_ok(6), "exhaustive"))
    return rows


@lru_cache(maxsize=None)
def _index_bijection_ok(top: int) -> bool:
    """The reindexing (t, s) -> (max(m+p, n+s) - t, s) of both associativity
    proofs, exhaustively for colours up to `top`: it maps the index set I of
    (xy)z onto the set J of x(yz), one to one, and the map with m and p
    exchanged (for the dot action, (p+1, n, m-1)) sends it back.  For `#` at
    level k, I(m, n, p) is also J(p, n, m).  `index_sets` reads the sets off
    the ranges `sharp` and `dot_action` compute with; the dot action's m and
    n are colours of F_{k+1}, so they start a level higher."""
    for k, dot in ((0, 0), (1, 0), (2, 0), (1, 1), (2, 1)):
        low = range(k + dot, top + 1)
        sets = {(m, n, p): index_sets(m, n, p, k, dot)
                for m in low for n in low for p in range(k, top + 1)}
        for (m, n, p), (i_set, j_set) in sets.items():
            if not dot and i_set != sets[p, n, m][1]:
                return False
            image = index_bijection(m, n, p, i_set)
            back = index_bijection(p + dot, n, m - dot, image)
            if set(image) != j_set or len(j_set) != len(i_set) \
                    or back != list(i_set):         # onto J, one to one, inverse
                return False
    return True


# -- the annular suite ---------------------------------------------------------------


def _random_tspec(k, m, n, rng) -> TSpec:
    size = rng.randint(0, min(m - k, n - k))
    a_set = frozenset(rng.sample(range(1, m - k + 1), size))
    b_set = frozenset(rng.sample(range(1, n - k + 1), size))
    return TSpec(k, a_set, b_set, m, n)


def suite_annular(cfg: Config):
    ring = Ring.symbolic()
    rng = random.Random(cfg.seed)
    top = min(7, cfg.resolved_max_colour() + 2)

    def draw_compose(_):
        k = rng.randint(0, 2)
        m, n, p = (rng.randint(k, top) for _ in range(3))
        first, second = _random_tspec(k, m, n, rng), _random_tspec(k, n, p, rng)
        return first, second, random_element(p, ring, rng, terms=1)

    def check_compose(first, second, x):
        expo, spec3 = compose_T(first, second)
        lhs = evaluate(annular_T(first), [evaluate(annular_T(second), [x])])
        rhs = evaluate(annular_T(spec3), [x]).scale(ring.delta_power(expo))
        tangle_ok = substitute(annular_T(first), {1: annular_T(second)}) \
            == annular_T(spec3).with_loops(expo)
        return {"compose_formula": lhs == rhs and tangle_ok}
    rows = _clauses("annular", {"trials": cfg.trials, "max": top},
                    range(cfg.trials), draw_compose, check_compose, "{}/{} exact")
    rows.append(_row("annular.identity_cases", {}, _identity_cases_ok()))

    def draw_adjoint(_):
        k = rng.randint(0, 2)
        m, n = rng.randint(k, 5), rng.randint(k, 5)
        spec = _random_tspec(k, m, n, rng)
        return (spec, random_element(n, ring, rng, terms=1),
                random_element(m, ring, rng, terms=1))

    def check_adjoint(spec, x, y):
        tangle = annular_T(spec)
        validate(tangle)
        lhs = evaluate(tangle, [x]).inner(y)
        rhs = x.inner(evaluate(transpose_annular(tangle), [y]))
        return {"transpose_adjoint": lhs == rhs.delta_pow(spec.n - spec.m)}
    rows += _clauses("annular", {"trials": cfg.trials}, range(cfg.trials),
                     draw_adjoint, check_adjoint, "")

    def check_rotation(n, x, y):
        rot = rotation_tangle(n)
        return {"rotation_unitary":
                evaluate(rot, [x]).inner(evaluate(rot, [y])) == x.inner(y)}
    # below colour 1 nothing rotates and the row passes with no case
    rows += _clauses("annular", {}, [n for n in range(
        1, min(5, cfg.resolved_max_colour()) + 1) for _ in range(5)],
        lambda n: (n, random_element(n, ring, rng), random_element(n, ring, rng)),
        check_rotation, "") or [_row("annular.rotation_unitary", {}, True)]
    rows.append(_row("annular.good_families", {}, _good_families_ok()))
    return rows


@lru_cache(maxsize=None)
def _identity_cases_ok() -> bool:
    """X and T at identity parameters are identity tangles; seed-free."""
    return all(annular_X(k, k) == identity_tangle(k) for k in range(4)) and all(
        annular_T(TSpec.identity(k, m)) == identity_tangle(m)
        for k in (0, 1) for m in range(k, 5))


@lru_cache(maxsize=None)
def _good_families_ok() -> bool:
    """Excellent within good, the identity at equal colours, every tangle
    planar: k <= 1, colours <= 4; independent of the seed."""
    ok = True
    for k in (0, 1):
        for j in range(k, 5):
            for i in range(k, j + 1):
                goods = enumerate_good(k, j, i)
                excs = enumerate_good(k, j, i, excellent=True)
                ok = ok and set(excs) <= set(goods)
                if i == j:
                    ok = ok and goods == [identity_tangle(j)]
                for t in goods:
                    validate(t)
    return ok


# -- the GJS isomorphism suite ----------------------------------------------------------


def suite_gjs_iso(cfg: Config):
    ring = Ring.symbolic()
    rng = random.Random(cfg.seed)
    rows = []
    for k in range(cfg.level + 1):
        top = min(k + 3, cfg.resolved_max_colour())

        def check(a, b):
            fa, ab = phi(k, a), bullet(a, b)
            product = sharp(fa, phi(k, b))
            return {"inverse": psi(k, fa) == a and phi(k, psi(k, a)) == a,
                    "star": dagger(fa) == phi(k, dagger(a)),
                    "trace": trace_Tr(a) == trace_tk(fa).delta_pow(k),
                    "multiplicative": phi(k, ab) == product
                    and psi(k, product) == ab}
        rows += _clauses("gjs", {"k": k, "trials": cfg.trials}, range(cfg.trials),
                         lambda _: (random_graded(k, top, ring, rng),
                                    random_graded(k, top, ring, rng)),
                         check, "{}/{} exact")
    return rows


# -- the Jones-relations suite ------------------------------------------------------------


def suite_jones(cfg: Config):
    ring = Ring.symbolic()
    rng = random.Random(cfg.seed)
    rows = []
    for k in range(1, max(2, cfg.level + 1)):
        e = jones_e(k, ring)
        top = min(k + 2, cfg.resolved_max_colour())
        rows.append(_row("jones.idempotent", {"k": k}, sharp(e, e) == e))
        expected = GradedElement.unit(k, ring).scale(ring.delta_power(-2))
        rows.append(_row("jones.expectation", {"k": k},
                         cond_expect(e) == expected))

        def draw(_):
            return [random_graded(k + j, top + j, ring, rng) for j in (0, -1, 1, 1, 0)]

        def check(x, lower, a, a2, b):
            y = include(include(lower))
            return {"exe_rule": sharp(sharp(e, include(x)), e)
                    == sharp(include(include(cond_expect(x))), e),
                    "commutes_lower": sharp(e, y) == sharp(y, e),
                    "dot_homomorphism": dot_action(a, b)
                    == dot_action_via_expectation(a, b)
                    and dot_action(sharp(a, a2), b)
                    == dot_action(a, dot_action(a2, b))
                    and dot_action(GradedElement.unit(k + 1, ring), b) == b}
        rows += _clauses("jones", {"k": k, "trials": cfg.trials},
                         range(cfg.trials), draw, check, "{}/{}")
    return rows


# -- the numeric estimate suite --------------------------------------------------------------


def _float_deltas(cfg: Config):
    value = cfg.delta_value()
    if value is None:
        return (2.0, 2.5)
    return (float(value),)


@_float_errors_raise
def suite_estimates(cfg: Config):
    import numpy as np
    from . import analysis
    rng = random.Random(cfg.seed)
    rows = []
    for delta in _float_deltas(cfg):
        ring = Ring.float_(delta)
        grid = [(1, 0, 0, 0), (1, 0, 1, 1), (2, 0, 2, 2), (2, 1, 1, 1),
                (2, 1, 4, 0), (2, 2, 0, 0), (3, 1, 3, 2), (3, 1, 6, 0),
                (2, 0, 4, 0), (3, 2, 2, 1)]
        worst = 0.0
        ok = True
        for (p, k, q, i) in grid:
            a = analysis.unit_hk_norm(random_element(p, ring, rng), k)
            rep = analysis.estimate_lemma_verify(a, k, q, i)
            ok = ok and rep["status"] == "pass"
            worst = max(worst, rep["max_residual"])
        rows.append(_row("estimates.lemma_grid",
                         {"delta": delta, "points": 2 * len(grid)},
                         ok, f"max residual {worst:.2e}", worst))
        bok = True
        for (m, k) in ((2, 0), (2, 1), (3, 1)):
            a = random_element(m, ring, rng)
            if a.is_zero():
                a = Element.unit(m, ring)
            rep = analysis.boundedness_verify(a, k, cfg.trials, rng)
            bok = bok and rep["status"] == "pass"
        rows.append(_row("estimates.boundedness", {"delta": delta}, bok))
        vecs = [np.array([rng.uniform(-1, 1) for _ in range(6)]) for _ in range(5)]
        rows.append(_row("estimates.sum_norm", {"delta": delta},
                         analysis.sum_norm_inequality(vecs)))
    return rows


# -- the section-5 replay suite -----------------------------------------------------------------


@_float_errors_raise
def suite_commutant_replay(cfg: Config):
    from . import analysis
    rng = random.Random(cfg.seed)
    ring = Ring.symbolic()
    rows = []
    for k in (0, 1):
        rep = analysis.dcomm_replay(k, rng=rng)
        rows.append(_row("replay.dcomm", {"k": k}, rep["status"] == "pass",
                         f"placements {rep['passing_placements']}"))
    rr = Ring.rational(Fraction(5, 2))
    cases = [nk for nk in ((2, 1), (3, 1), (3, 2), (4, 2))
             for _ in range(max(1, cfg.trials // 4))]
    rows += _clauses("replay", {"cases": len(cases)}, cases,
                     lambda nk: (random_element(nk[0], rr, rng), nk[1]),
                     lambda x, k: {"cnk_membership": analysis.cnk_membership(
                         x, k)["status"] == "pass"}, "{}/{}")
    inv_ok = True
    for (n, k) in ((2, 1), (3, 1), (3, 2)):
        for _ in range(3):
            raw = random_element(n, ring, rng)
            _, x = analysis.perp_projection(raw, k)
            z = analysis.commutator_with_c(x, k, n + 1)
            inv_ok = inv_ok and analysis.ccommlem_invert(z, n, k) == x
    rows.append(_row("replay.ccommlem_invert", {"pairs": "(2,1),(3,1),(3,2)"},
                     inv_ok, "exact round trip"))
    rep = analysis.xnxm_verify(1, 2, rng)
    rows.append(_row("replay.xnxm", rep["params"], rep["status"] == "pass",
                     rep["details"]))
    rep = analysis.xnxm_telescope(1, 2, rng)
    rows.append(_row("replay.xnxm_telescope", rep["params"],
                     rep["status"] == "pass"))

    max_k = min(3, cfg.level + 1)
    rows.append(_row("replay.pk_commutes_cd", {"max_k": max_k},
                     _pk_commutes_cd_ok(max_k)))

    el_ok = True
    for k in (1, 2, 3):
        for i in range(1, k + 1):
            el_ok = el_ok and _el_fixed_point_ok(k, i)
    rows.append(_row("replay.el_fixed_point", {"max_k": 3}, el_ok))

    w_tangle = Tangle(2, [1], [((1, 1), (0, 3)), ((1, 2), (0, 2)),
                               ((0, 1), (0, 4))])
    validate(w_tangle)
    sph_ok = True
    for d in enumerate_diagrams(1):
        x = Element.basis(d, ring)
        z = evaluate(w_tangle, [x])
        sph_ok = sph_ok and z.tau() == x.tau()
        wrapped = evaluate(left_expectation_tangle(2, 1), [z])
        sph_ok = sph_ok and wrapped == z.scale(ring.delta_power(1))
    rows.append(_row("replay.p1_p12_trace", {}, sph_ok))
    return rows


@lru_cache(maxsize=None)
def _pk_commutes_cd_ok(max_k: int) -> bool:
    """P_k commutes with c and d in Gr_k for k <= max_k; seed-free."""
    ring = Ring.symbolic()
    for k in range(max_k + 1):
        c_el, d_el = element_c(k, ring), element_d(k, ring)
        for d in enumerate_diagrams(k):
            g = GradedElement.of_element(k, Element.basis(d, ring))
            if sharp(g, c_el) != sharp(c_el, g) or sharp(g, d_el) != sharp(d_el, g):
                return False
    return True


@lru_cache(maxsize=None)
def _el_fixed_point_ok(k: int, i: int) -> bool:
    """delta^i-eigenspace of EL(i) equals its image: rank comparison, exact."""
    from . import analysis
    ring = Ring.rational(Fraction(7, 2))
    basis = enumerate_diagrams(k)
    el = left_expectation_tangle(k, i)
    n_dim = len(basis)
    # EL(i)'s matrix transposed, a row per basis image; no rank below changes
    mat = [analysis.coordinates(evaluate(el, [Element.basis(d, ring)]))
           for d in basis]
    lam = Fraction(7, 2) ** i
    shifted = [[mat[a][b] - (lam if a == b else 0) for b in range(n_dim)]
               for a in range(n_dim)]
    if _rank(mat) != n_dim - _rank(shifted):
        return False
    # fixed point on an image element
    x = evaluate(el, [Element.basis(basis[0], ring)])
    return evaluate(el, [x]) == x.scale(ring.delta_power(i))


def _rank(mat) -> int:
    from . import analysis
    ncols = len(mat[0]) if mat else 0
    return len(analysis.eliminate(analysis.integer_rows(mat), ncols))


# -- the positivity suite --------------------------------------------------------------------


@_float_errors_raise
def suite_positivity(cfg: Config):
    from . import analysis
    rng = random.Random(cfg.seed)
    rows = []
    top = min(6, cfg.resolved_max_colour() + 2)
    for delta in _float_deltas(cfg):
        ring = Ring.float_(delta)
        eigs = {}
        ok = True
        for n in range(top + 1):
            eig = analysis.gram_min_eigenvalue(n, ring)
            eigs[n] = eig
            ok = ok and eig > 0
        rows.append(_row("positivity.gram_eigenvalues",
                         {"delta": delta, "max_colour": top}, ok,
                         " ".join(f"n={n}:{eigs[n]:.4g}" for n in sorted(eigs))))
        psd_ok = True
        for n in (2, 3):
            for i in range(1, n + 1):
                x = random_element(n, ring, rng)
                image = evaluate(left_expectation_tangle(n, i),
                                 [x.star().multiply(x)])
                flag, _ = analysis.is_psd(image)
                psd_ok = psd_ok and flag
        rows.append(_row("positivity.el_images_psd", {"delta": delta}, psd_ok))
    exact_ok = all(analysis.gram_positive_definite_exact(n, d)
                   for d in (Fraction(2), Fraction(5, 2))
                   for n in range(min(5, top) + 1))
    rows.append(_row("positivity.gram_exact_ldl",
                     {"deltas": "2,5/2", "max_colour": min(5, top)}, exact_ok))
    # Hilbert-space Gram of a graded block: diagonal positive multiples
    ring = Ring.float_(2.0)
    hk_ok = True
    for k in (0, 1, 2):
        for n in range(k, k + 4):
            block = analysis.gram_min_eigenvalue(n, ring) * 2.0 ** (n - k)
            hk_ok = hk_ok and block > 0
    rows.append(_row("positivity.hk_blocks", {"delta": 2.0}, hk_ok))
    return rows


SUITES = {
    "filtalg": suite_filtalg,
    "annular": suite_annular,
    "gjs-iso": suite_gjs_iso,
    "jones": suite_jones,
    "estimates": suite_estimates,
    "commutant-replay": suite_commutant_replay,
    "positivity": suite_positivity,
}


def run_suite(name: str, cfg: Config):
    if name not in SUITES:
        raise PreconditionError(f"unknown suite {name!r}")
    return SUITES[name](cfg)


def run_suites(names, cfg: Config, jobs: int = 1) -> dict:
    names = list(names)
    if jobs < 1:
        raise PreconditionError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and len(names) > 1:
        from concurrent.futures import ProcessPoolExecutor
        # fork starts every worker on the first submit: no more than suites
        with ProcessPoolExecutor(max_workers=min(jobs, len(names))) as pool:
            results = list(pool.map(_suite_worker,
                                    [(name, cfg) for name in names]))
        rows = [row for chunk in results for row in chunk]
    else:
        rows = [row for name in names for row in run_suite(name, cfg)]
    rows.sort(key=lambda r: (r["check"], str(sorted(r["params"].items()))))
    status = "pass" if all(r["status"] == "pass" for r in rows) else "fail"
    return {"seed": cfg.seed, "delta": cfg.delta, "level": cfg.level,
            "max_colour": cfg.resolved_max_colour(), "trials": cfg.trials,
            "suites": sorted(names), "status": status, "checks": rows}


def _suite_worker(args):
    name, cfg = args
    return run_suite(name, cfg)
