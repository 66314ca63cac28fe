"""Numeric layer at fixed real delta: GNS matrices, norms, positivity, and
the finite-dimensional verification of the estimate and commutant lemmas.

Everything that needs no square root also runs in exact rational mode; float
appears only where spectra are required (op_norm, psd_sqrt, eigenvalues).
Falsification flags are hard failures: every inequality checked here is a
theorem, so a violation beyond tolerance means a convention or library bug.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .annular import TSpec, _interval, annular_T, annular_X, annular_double_cup, \
    compose_T, transpose_annular
from .config import FLOAT_TOL
from .diagrams import Colour, enumerate_diagrams, identity_diagram
from .elements import Element, _closure_wiring, _product_wiring, placed_pairing, \
    random_element, trace_strands
from .errors import ModeMismatchError, PreconditionError
from .scalars import Float, Laurent, Rational, Ring
from .tangles import EXT, Tangle, evaluate, identity_tangle, partial_cap_tangle, \
    substitute
from .tower import GradedElement, element_c, element_d, hk_norm_squared, \
    hk_norm_squared_element, sharp


def _require_numeric(ring: Ring):
    if ring.scalar is Laurent:
        raise ModeMismatchError("this operation needs a fixed numeric delta")


def _require_float(ring: Ring):
    if ring.scalar is not Float:
        raise ModeMismatchError("spectral computations need float mode")


# -- Gram and GNS matrices ----------------------------------------------------


@lru_cache(maxsize=None)
def _basis_tables(n: int):
    """Ring-free tables of the P_n diagram basis d_0, d_1, ..., built once.

    Returns (index, prod, gram_loops): index[d] is the position of d;
    prod[a][b] = (c, loops) when d_a.multiply(d_b) is delta^loops d_c;
    gram_loops[i][j] = (l1, l2), the loops closed by d_j* d_i and then by
    the trace closure of that product, so the Gram entry is
    delta^(l1 + l2 - n).
    """
    basis = enumerate_diagrams(n)
    index = {d: i for i, d in enumerate(basis)}
    position = {d.pairs: i for i, d in enumerate(basis)}   # trace_strands' sorted pairs
    wiring = _product_wiring(n)
    pad = (None,) * (2 * n)
    prod = []
    for d1 in basis:
        below = pad + placed_pairing(d1, 2 * n)
        row = []
        for d2 in basis:
            pairs, loops = trace_strands(
                wiring, below + placed_pairing(d2, 4 * n), 2 * n)
            row.append((position[pairs], loops))
        prod.append(tuple(row))
    closure = [trace_strands(_closure_wiring(n), placed_pairing(d, 0), 0)[1]
               for d in basis]
    refl = [index[d.reflect()] for d in basis]
    shared = {}         # one tuple per distinct (l1, l2): about 1 MB less at n = 6

    def gram_entry(c, l1):
        key = (l1, closure[c])
        return shared.setdefault(key, key)

    gram_loops = tuple(tuple(gram_entry(*prod[r][i]) for r in refl)
                       for i in range(len(basis)))
    return index, tuple(prod), gram_loops


def gram(n: int, ring: Ring):
    """G[i][j] = tau(d_j* d_i) over the diagram basis, as a list of Scalars."""
    _require_numeric(ring)
    loops = _basis_tables(n)[2]
    # one Scalar per distinct entry, in the operation order of
    # d_j*.multiply(d_i).tau(), so float entries match it bit for bit
    values = {key: ring.one().delta_pow(key[0]).delta_pow(key[1] - n)
              for key in {key for row in loops for key in row}}
    return [[values[key] for key in row] for row in loops]


def gram_float(n: int, ring: Ring) -> np.ndarray:
    return np.array([[s.to_float() for s in row] for row in gram(n, ring)])


@lru_cache(maxsize=None)
def gram_min_eigenvalue(n: int, ring: Ring) -> float:
    return float(np.linalg.eigvalsh(gram_float(n, ring)).min())


@lru_cache(maxsize=None)
def gram_positive_definite_exact(n: int, delta) -> bool:
    """Sylvester test of the Gram matrix at a rational delta = p/q.

    Runs on the integer matrix |p|^n q^n G (every entry is delta^(L-n) with
    0 <= L <= 2n loops); the scale is positive, so the signs of the leading
    minors are those of G.  Fraction-free Bareiss elimination without row
    swaps: each pivot is a leading principal minor, and with row swaps
    [[0,1],[1,0]] would pass.
    """
    delta = Ring.rational(Fraction(delta)).delta     # rejects delta = 0
    p, q = delta.numerator, delta.denominator
    scale = abs(p) ** n * q ** n
    loops = _basis_tables(n)[2]
    ints = {key: int(scale * delta ** (key[0] + key[1] - n))
            for key in {key for row in loops for key in row}}
    g = [[ints[key] for key in row] for row in loops]
    size = len(g)
    prev = 1
    for k in range(size):
        pivot = g[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, size):
            gi, gik = g[i], g[i][k]
            for j in range(k + 1, size):
                gi[j] = (gi[j] * pivot - gik * g[k][j]) // prev
        prev = pivot
    return True


def gns_matrix(x: Element) -> np.ndarray:
    """Matrix of left multiplication by x on P_n in the diagram basis."""
    _require_float(x.ring)
    mat = np.zeros((len(_basis_tables(x.colour.n)[1]),) * 2)
    for cell, v in _gns_entries(x).items():
        mat[cell] = v.value             # a float already: no to_float call
    return mat


def _gns_entries(x: Element) -> dict:
    """{(r, j): entry} of x.multiply(d_j), read off the basis tables; one
    kernel call sums every entry and drops the zero ones."""
    index, prod, _ = _basis_tables(x.colour.n)
    return x.ring.scalar._sum_products(
        [((r, j), None, c, loops) for d, c in x.combo.items()
         for j, (r, loops) in enumerate(prod[index[d]])], x.ring.delta)


class GnsGeometry:
    """Cached Cholesky frame turning P_n into an orthonormal coordinate space."""

    _cache: dict = {}

    def __init__(self, n: int, ring: Ring):
        _require_float(ring)
        self.n = n
        self.ring = ring
        g = gram_float(n, ring)
        self.chol = np.linalg.cholesky(g)      # g = L L^T
        self.inv_lt = np.linalg.inv(self.chol.T)
        self.basis = enumerate_diagrams(n)
        self.unit_index = _basis_tables(n)[0][identity_diagram(n)]

    @classmethod
    def get(cls, n: int, ring: Ring) -> "GnsGeometry":
        key = (n, ring.mode, ring.delta)
        if key not in cls._cache:
            cls._cache[key] = cls(n, ring)
        return cls._cache[key]

    def operator(self, x: Element) -> np.ndarray:
        """Left multiplication by x in orthonormal coordinates."""
        return self.chol.T @ gns_matrix(x) @ self.inv_lt

    def element_from_operator(self, op: np.ndarray) -> Element:
        m = self.inv_lt @ op @ self.chol.T
        col = m[:, self.unit_index]
        combo = {d: self.ring.fraction(v) for d, v in zip(self.basis, col)}
        return Element(self.n, self.ring, combo)


def op_norm(x: Element) -> float:
    """Operator norm of left multiplication in the GNS geometry."""
    geo = GnsGeometry.get(x.colour.n, x.ring)
    return float(np.linalg.norm(geo.operator(x), 2))


def _asymmetric(op: np.ndarray) -> bool:
    return np.abs(op - op.T).max() > 1e-7 * max(1.0, np.abs(op).max())


def is_psd(x: Element, tol: float = FLOAT_TOL):
    """Whether x acts as a PSD operator; returns (flag, min eigenvalue)."""
    geo = GnsGeometry.get(x.colour.n, x.ring)
    op = geo.operator(x)
    if _asymmetric(op):
        return False, float("nan")
    lam = np.linalg.eigvalsh((op + op.T) / 2)
    return bool(lam.min() >= -tol), float(lam.min())


def psd_sqrt(x: Element) -> Element:
    """The positive square root of a PSD element, via spectral calculus.

    Eigenvalues below a relative cutoff are flushed to zero first; without
    that, +-1e-15 kernel noise turns into +-3e-8 square-root noise.
    """
    geo = GnsGeometry.get(x.colour.n, x.ring)
    op = geo.operator(x)
    if _asymmetric(op):
        raise PreconditionError("element is not self-adjoint")
    lam, vec = np.linalg.eigh((op + op.T) / 2)
    if lam.min() < -FLOAT_TOL:
        raise PreconditionError(
            f"element is not PSD (min eigenvalue {lam.min():.3e})")
    cutoff = 1e-10 * max(1.0, lam.max())
    lam = np.where(lam < cutoff, 0.0, lam)
    root = vec @ np.diag(np.sqrt(lam)) @ vec.T
    return geo.element_from_operator(root)


# -- norms on H_k -----------------------------------------------------------------


def _norm_float(norm_squared) -> float:
    """The float square root of a squared norm, negative rounding read as 0."""
    return float(np.sqrt(max(norm_squared.to_float(), 0.0)))


def hk_norm_float(a: GradedElement) -> float:
    return _norm_float(hk_norm_squared(a))


# -- the positivity lemma and boundedness estimate ----------------------------------


@lru_cache(maxsize=None)
def glue_tangle(p: int, q: int, i: int) -> Tangle:
    """Two-box tangle pairing a against a* over q strands with i more capped
    around; the left-hand side of the positivity lemma in P_{2p-q}."""
    if not (0 <= q <= 2 * p and 0 <= i <= 2 * p - q):
        raise PreconditionError("need 0 <= q <= 2p and 0 <= i <= 2p-q")
    w = 2 * p - q
    pairs = []
    for x in list(range(1, i + 1)) + list(range(2 * p - q + 1, 2 * p + 1)):
        pairs.append(((1, x), (2, 2 * p + 1 - x)))
    for j in range(1, i + 1):
        pairs.append(((EXT, j), (EXT, 2 * w + 1 - j)))
    for x in range(i + 1, w + 1):
        pairs.append(((1, x), (EXT, x)))
    for x in range(w + 1, 2 * w - i + 1):
        pairs.append(((2, x - 2 * (p - q)), (EXT, x)))
    return Tangle(w, [p, p], pairs)


def estimate_lemma_verify(a: Element, k: int, q: int, i: int) -> dict:
    """Check the positivity lemma instance: PSD witness and the norm identity."""
    _require_float(a.ring)
    p = a.colour.n
    if p < k:
        raise PreconditionError("need p >= k")
    lhs = evaluate(glue_tangle(p, q, i), [a, a.star()])
    psd, min_eig = is_psd(lhs)
    report = {"check": "estimate_lemma", "params": {"p": p, "k": k, "q": q, "i": i},
              "psd": psd, "min_eigenvalue": min_eig}
    if not psd:
        report.update(status="fail", details="left-hand side not PSD",
                      max_residual=abs(min(min_eig, 0.0)))
        return report
    if lhs.is_zero():
        c = Element.zero(2 * p - q, a.ring)
    else:
        c = psd_sqrt(lhs)
    scale = max(1.0, _max_coeff(lhs))
    square_residual = _max_coeff(c.multiply(c) - lhs) / scale
    norm_c = hk_norm_squared_element(c, k).to_float()
    norm_a = hk_norm_squared_element(a, k).to_float()
    target = a.ring.delta ** i * norm_a
    residual = abs(norm_c - target) / max(1.0, abs(target))
    ok = psd and square_residual <= 1e-8 and residual <= FLOAT_TOL
    report.update(status="pass" if ok else "fail",
                  details=f"|c|^2={norm_c:.12g} target={target:.12g}",
                  max_residual=max(residual, square_residual))
    return report


def _max_coeff(x: Element) -> float:
    if not x.combo:
        return 0.0
    return max(abs(c.to_float()) for c in x.combo.values())


def boundedness_verify(a: Element, k: int, trials: int, rng) -> dict:
    """Check ||a#b|| <= K(1+2(m-k)) ||b|| over random b with mixed colours."""
    _require_float(a.ring)
    ring = a.ring
    m = a.colour.n
    big_k = 0.0
    for u in range(2 * k, 2 * m + 1):
        q = 2 * m - u
        glued = evaluate(glue_tangle(m, q, 0), [a, a.star()])
        if glued.is_zero():
            continue
        c_u = psd_sqrt(glued)
        big_k = max(big_k, ring.delta ** (k / 2.0) * op_norm(c_u))
    bound = big_k * (1 + 2 * (m - k))
    ga = GradedElement.of_element(k, a)
    violations = 0
    worst = 0.0
    for _ in range(trials):
        b = GradedElement.from_parts(k, ring, [
            random_element(n, ring, rng) for n in range(k, m + 2) if rng.random() < 0.6])
        norm_b = hk_norm_float(b)
        if norm_b == 0.0:
            continue
        ratio = hk_norm_float(sharp(ga, b)) / norm_b
        worst = max(worst, ratio)
        if ratio > bound + 1e-7:
            violations += 1
    status = "pass" if violations == 0 else "fail"
    return {"check": "boundedness", "params": {"m": m, "k": k, "trials": trials},
            "status": status, "bound": bound, "worst_ratio": worst,
            "violations": violations,
            "details": f"K={big_k:.6g} C={bound:.6g} worst={worst:.6g}",
            "max_residual": max(0.0, worst - bound)}


def sum_norm_inequality(vectors) -> bool:
    """||sum a_i||^2 <= N sum ||a_i||^2 for vectors in any inner-product space."""
    total = sum(vectors)
    return float(np.dot(total, total)) <= len(vectors) * sum(
        float(np.dot(v, v)) for v in vectors) + FLOAT_TOL


def unit_hk_norm(x: Element, k: int) -> Element:
    """Scale x to unit H_k norm (float mode); keeps residual checks O(1)."""
    _require_float(x.ring)
    norm = _norm_float(hk_norm_squared_element(x, k))
    if norm == 0.0:
        return Element.unit(x.colour, x.ring)
    return x.scale(x.ring.fraction(1.0 / norm))


# -- the subspaces C^n_k -------------------------------------------------------------


def perp_projection(x: Element, k: int):
    """Split x in P_n as (member of C^n_k, orthogonal complement part)."""
    n = x.colour.n
    x_tangle = annular_X(n, k)
    capped = evaluate(transpose_annular(x_tangle), [x])
    member = evaluate(x_tangle, [capped]).scale(x.ring.delta_power(-(n - k)))
    return member, x - member


def cnk_membership(x: Element, k: int) -> dict:
    """Two-route membership test for C^n_k = range of the cup tangle.

    Route (a) solves the linear system over the image basis exactly;
    route (b) evaluates the capping tangle (perp test).  The routes must
    agree on the decomposition x = member + perp.
    """
    n = x.colour.n
    member, perp = perp_projection(x, k)
    capped_x = evaluate(transpose_annular(annular_X(n, k)), [x])
    in_perp = capped_x.is_zero()
    in_member = perp.is_zero()
    route_a = _solve_in_image(x, k)
    agree = (route_a is not None) == in_member
    if route_a is not None and in_member:
        agree = agree and evaluate(annular_X(n, k), [route_a]) == x
    orthogonal = member.inner(perp).is_zero()
    status = "pass" if (agree and orthogonal) else "fail"
    return {"check": "cnk_membership", "params": {"n": n, "k": k},
            "status": status, "member": in_member, "perp": in_perp,
            "routes_agree": agree, "orthogonal": orthogonal,
            "witness": {"member": member.to_json(), "perp": perp.to_json()},
            "max_residual": 0.0 if agree and orthogonal else 1.0}


def _solve_in_image(x: Element, k: int):
    """Exact linear solve of Z_X(y) = x over the P_k diagram basis."""
    _require_numeric(x.ring)
    n = x.colour.n
    x_tangle = annular_X(n, k)
    basis_k = enumerate_diagrams(k)
    exact = x.ring.scalar is Rational
    cols = [coordinates(evaluate(x_tangle, [Element.basis(d, x.ring)]))
            for d in basis_k]
    sol = _gauss_solve(cols, coordinates(x), exact)
    if sol is None:
        return None
    combo = {d: x.ring.fraction(w) for d, w in zip(basis_k, sol)}
    return Element(k, x.ring, combo)


def row_reduce(mat, ncols: int, tol=0) -> list:
    """Gauss-Jordan elimination of `mat` in place on its first `ncols` columns.

    An entry is a pivot only if its absolute value exceeds `tol` (0 for
    exact entries).  Returns the pivot columns: row r has a 1 in the r-th
    of them, and rows past the last pivot row are zero (up to `tol`) on the
    first `ncols` columns.
    """
    rows = len(mat)
    piv_cols = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, rows) if abs(mat[i][c]) > tol), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][c]
        mat[r] = [v / pv for v in mat[r]]
        for i in range(rows):
            if i != r and abs(mat[i][c]) > tol:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        piv_cols.append(c)
        r += 1
    return piv_cols


def coordinates(x: Element) -> list:
    """The coefficient column of a numeric x over the diagram basis."""
    index = _basis_tables(x.colour.n)[0]
    col = [x.ring.scalar.number(0)] * len(index)
    for d, c in x.combo.items():
        col[index[d]] = c.value
    return col


def _gauss_solve(cols, target, exact: bool):
    rows, ncols = len(target), len(cols)
    aug = [[cols[j][i] for j in range(ncols)] + [target[i]] for i in range(rows)]
    piv_cols = row_reduce(aug, ncols, 0 if exact else 1e-10)
    for i in range(len(piv_cols), rows):
        if abs(aug[i][ncols]) > (0 if exact else 1e-8):
            return None
    sol = [Fraction(0) if exact else 0.0] * ncols
    for ri, c in enumerate(piv_cols):
        sol[c] = aug[ri][ncols]
    return sol


# -- the commutant lemmas -------------------------------------------------------------


def commutator_with_c(x: Element, k: int, t: int) -> Element:
    """(c # x - x # c)_t at level k."""
    c_el = element_c(k, x.ring)
    gx = GradedElement.of_element(k, x)
    return (sharp(c_el, gx) - sharp(gx, c_el)).component(t)


def ccommlem_invert(z: Element, n: int, k: int) -> Element:
    """The displayed inverse: sum_t delta^-t T(k,[1,n+1-t-k],[t+1,n-k+1])(z)."""
    if z.colour.n != n + 1:
        raise PreconditionError("z must live in colour n+1")
    terms = []
    for t in range(1, n - k + 1):
        spec = TSpec(k, _interval(1, n + 1 - t - k), _interval(t + 1, n - k + 1),
                     n, n + 1)
        terms += evaluate(annular_T(spec), [z])._terms(m=-t)
    return Element._sum(Colour.of(n), z.ring, terms)


def annular_norm_bound(spec: TSpec, x: Element, k: int):
    """||Z_T(x)||_{H_k} <= delta^((n+m)/2 - |A| - k) ||x||_{H_k}, checked."""
    _require_float(x.ring)
    y = evaluate(annular_T(spec), [x])
    lhs = _norm_float(hk_norm_squared_element(y, k))
    rhs = (x.ring.delta ** ((spec.n + spec.m) / 2.0 - len(spec.A) - k)
           * _norm_float(hk_norm_squared_element(x, k)))
    return lhs <= rhs + 1e-7, lhs, rhs


def _cup(t: int, k: int, mode: str) -> Tangle:
    return annular_double_cup(t, k, 1 if mode == "first" else t - k - 1)


@lru_cache(maxsize=None)
def _capping_ok(k: int, y_mode: str, z_mode: str):
    """dcomm_replay's seed-free sub-checks (i) and (ii): (held, failed at)."""
    # (i) capping {4,5} lowers the colour by one, for t >= k+4
    for t in (k + 4, k + 5):
        cap = partial_cap_tangle(t, [(4, 5)])
        for name, mode in (("Y", y_mode), ("Z", z_mode)):
            if substitute(cap, {1: _cup(t, k, mode)}) != _cup(t - 1, k, mode):
                return False, f"(i) {name}"
    # (ii) triple capping: delta I for Y, delta^3 I for Z
    t0 = k + 3
    cap3 = partial_cap_tangle(t0, [(1, 2), (3, 6), (4, 5)])
    ident = identity_tangle(k)
    if substitute(cap3, {1: _cup(t0, k, y_mode)}) != ident.with_loops(1):
        return False, "(ii) Y"
    if substitute(cap3, {1: _cup(t0, k, z_mode)}) != ident.with_loops(3):
        return False, "(ii) Z"
    return True, ""


def dcomm_replay(k: int, rng=None) -> dict:
    """The three capping sub-checks, with a scan over Y/Z cup placements.

    A cup placement puts the double cup in the first or the last slot of
    each family; the default is (Y=first, Z=last).  Any failure of the
    default pinpoints the cup-position convention; the scan reports which
    of the four placements passes all three sub-checks.
    """
    ring = Ring.symbolic()
    rng = rng or random.Random(0)

    def subchecks(y_mode: str, z_mode: str):
        held, fail_at = _capping_ok(k, y_mode, z_mode)
        if not held:
            return held, fail_at
        # (iii) commutator components against the two-sided products with d;
        # it draws from rng, so only where (i) and (ii) held
        d_el = element_d(k, ring)
        for t in (k + 3, k + 4):
            y1 = random_element(k, ring, rng)
            both = GradedElement.zero(k, ring)
            for src in (t - 1, t - 2):
                xi = GradedElement.of_element(
                    k, evaluate(annular_X(src, k), [y1]))
                both = both + sharp(d_el, xi) - sharp(xi, d_el)
            ysum = y1 + y1
            rhs = evaluate(_cup(t, k, y_mode), [ysum]) \
                - evaluate(_cup(t, k, z_mode), [ysum])
            if both.component(t) != rhs:
                return False, "(iii)"
        return True, ""

    default_ok, fail_at = subchecks("first", "last")
    passing = [{"Y": ym, "Z": zm}
               for ym in ("first", "last") for zm in ("first", "last")
               if subchecks(ym, zm)[0]]
    status = "pass" if default_ok and len(passing) == 1 else "fail"
    return {"check": "dcomm_replay", "params": {"k": k}, "status": status,
            "default_ok": default_ok, "failed_subcheck": fail_at,
            "passing_placements": passing, "max_residual": 0.0 if default_ok else 1.0}


def xnxm_verify(k: int, n: int, rng) -> dict:
    """End-to-end check of the two-step recovery formula (the d = 1 case).

    Draws a random x_n in the orthogonal complement, forms the defining
    commutator z, solves the two-term capping expression exactly for a
    compatible x_{n+2} in the complement, and verifies the displayed formula
    recovers x_n exactly.
    """
    if n <= k:
        raise PreconditionError("need n > k")
    ring = Ring.rational(Fraction(5, 2))
    m = n + 2
    texpr, perp_basis, cols = _xnxm_system(k, n, ring)
    failures = 0
    trials = 5
    for _ in range(trials):
        _, x_n = perp_projection(random_element(n, ring, rng), k)
        z = commutator_with_c(x_n, k, n + 1)
        sol = _gauss_solve(cols, coordinates(z), exact=True)
        if sol is None:
            failures += 1
            continue
        x_m = Element._sum(Colour.of(m), ring, [
            term for w, pb in zip(sol, perp_basis) for term in pb._terms(ring.fraction(w))])
        if texpr(x_m) != z:
            failures += 1
            continue
        if xn_from_xm(x_m, n, k, d=1) != x_n:
            failures += 1
    # the zero case must round-trip to zero
    zero_ok = xn_from_xm(Element.zero(m, ring), n, k, d=1).is_zero()
    status = "pass" if failures == 0 and zero_ok else "fail"
    return {"check": "xnxm", "params": {"k": k, "n": n, "delta": str(ring.delta)},
            "status": status, "trials": trials, "failures": failures,
            "zero_case": zero_ok, "max_residual": float(failures),
            "details": "recovery formula exact" if status == "pass"
            else f"{failures} failures"}


@lru_cache(maxsize=None)
def _xnxm_system(k: int, n: int, ring: Ring):
    """xnxm_verify's seed-free system: the capping expression, the complement
    basis and the expression's coordinate column on each member, as tuples."""
    m = n + 2
    t1 = annular_T(TSpec(k, _interval(1, n - k + 1), _interval(1, n - k + 1),
                         n + 1, m))
    t2 = annular_T(TSpec(k, _interval(1, n - k + 1), _interval(2, n - k + 2),
                         n + 1, m))

    def texpr(el):
        return evaluate(t1, [el]) - evaluate(t2, [el])

    perp_basis = tuple(pb for pb in (perp_projection(Element.basis(d, ring), k)[1]
                                     for d in enumerate_diagrams(m)) if not pb.is_zero())
    return texpr, perp_basis, tuple(tuple(coordinates(texpr(pb))) for pb in perp_basis)


def xn_from_xm(x_m: Element, n: int, k: int, d: int) -> Element:
    """The recovery formula for x_n from x_m, m = n + 2d."""
    m = x_m.colour.n
    if m != n + 2 * d:
        raise PreconditionError("colour of x_m must be n + 2d")
    terms, minus = [], x_m.ring.fraction(-1)
    for t in range(1, n - k + 1):
        for sign, shift in ((None, 0), (minus, 1)):
            spec = TSpec(k, _interval(1, n + 1 - t - k),
                         _interval(t + d + shift, n - k + d + shift), n, m)
            terms += evaluate(annular_T(spec), [x_m])._terms(sign, 1 - t - d)
    return Element._sum(Colour.of(n), x_m.ring, terms)


def xnxm_telescope(k: int, n: int, rng) -> dict:
    """The induction step at d = 2: the four-term double sum telescopes to
    the direct formula, checked exactly on random complement elements."""
    ring = Ring.symbolic()
    minus = ring.fraction(-1)
    d = 2
    m = n + 2 * d
    failures = 0
    trials = 3
    for _ in range(trials):
        _, x_m = perp_projection(random_element(m, ring, rng), k)
        terms = []
        for t in range(1, n - k + 1):
            for s in range(1, n + 2 - k + 1):
                # shifting one interval by one flips the sign
                for sa, sb in ((0, 0), (1, 0), (0, 1), (1, 1)):
                    ta = TSpec(k, _interval(1, n + 1 - t - k),
                               _interval(t + 1 + sa, n - k + 1 + sa), n, n + 2)
                    tb = TSpec(k, _interval(1, n + 3 - s - k),
                               _interval(s + d - 1 + sb, n - k + d + 1 + sb), n + 2, m)
                    expo, spec3 = compose_T(ta, tb)
                    terms += evaluate(annular_T(spec3), [x_m])._terms(
                        minus if sa != sb else None, expo - (t + s + d - 2))
        four = Element._sum(Colour.of(n), ring, terms)
        if four != xn_from_xm(x_m, n, k, d):
            failures += 1
    status = "pass" if failures == 0 else "fail"
    return {"check": "xnxm_telescope", "params": {"k": k, "n": n, "d": d},
            "status": status, "trials": trials, "failures": failures,
            "max_residual": float(failures)}
