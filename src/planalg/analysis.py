"""Numeric layer at fixed real delta: GNS matrices, norms, positivity, and
the finite-dimensional verification of the estimate and commutant lemmas.

Everything that needs no square root also runs in exact rational mode; float
appears only where spectra are required (op_norm, psd_sqrt, eigenvalues).
numpy is imported inside the functions that call it, so a process that runs
only symbolic work never loads it.
Falsification flags are hard failures: every inequality checked here is a
theorem, so a violation beyond tolerance means a convention or library bug.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import isnan, lcm, sqrt

from .annular import TSpec, _interval, annular_T, annular_X, annular_Y, annular_Z, \
    compose_T, transpose_annular
from .config import FLOAT_TOL, POSITIVE_DELTA
from .diagrams import Colour, enumerate_diagrams, identity_diagram
from .elements import Element, _tau_loops, random_element, trace_strands
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
    delta^(l1 + l2 - n).  Equal values share one tuple.

    d_a d_b keeps d_b's top half and d_a's bottom half (`_halves`), so only
    the middle, d_b's bottom half on d_a's top half, is traced, once per
    pair of halves (`_middle`); the ports it joins join the kept halves'
    through points.
    """
    basis = enumerate_diagrams(n)
    halves = [_halves(d) for d in basis]
    # a middle closes at most n/2 loops: each crosses the glued row twice
    values = [[(c, loops) for loops in range(n // 2 + 1)] for c in range(len(basis))]
    cells = {}                  # bottom half -> {top half: that diagram's values}
    uppers, lowers = {}, {}     # the b by bottom half, the a by top half
    for i, (top, bottom) in enumerate(halves):
        cells.setdefault(bottom, {})[top] = values[i]
        uppers.setdefault(bottom, []).append(i)
        lowers.setdefault(top, []).append(i)
    joins = {}          # (half, meets) -> the half, its through points joined

    def joined(half, meets):
        if (half, meets) not in joins:
            through = [p for p, q in enumerate(half) if p == q]
            link = {p: through[m] for p, m in zip(through, meets)}
            joins[half, meets] = tuple(link.get(p, q) for p, q in enumerate(half))
        return joins[half, meets]

    prod = [[None] * len(basis) for _ in basis]
    for upper, bs in uppers.items():
        for lower, as_ in lowers.items():
            loops, up, down = _middle(upper, lower)
            tops = [(b, joined(halves[b][0], up)) for b in bs]
            for a in as_:
                col, row = cells[joined(halves[a][1], down)], prod[a]
                for b, top in tops:
                    row[b] = col[top][loops]
    index = {d: i for i, d in enumerate(basis)}
    closure = [_tau_loops(d) for d in basis]
    refl = [index[d.reflect()] for d in basis]
    shared = {}         # one tuple per distinct (l1, l2): about 1 MB less at n = 6

    def gram_entry(c, l1):
        key = (l1, closure[c])
        return shared.setdefault(key, key)

    gram_loops = tuple(tuple(gram_entry(*prod[r][i]) for r in refl)
                       for i in range(len(basis)))
    return index, tuple(map(tuple, prod)), gram_loops


def _halves(d) -> tuple:
    """(top, bottom) of d: each row's positions 0..n-1, left to right, sent to
    their cup partners, a through point to itself (through strands join in order)."""
    n = d.colour.n
    rows = ([d.partner(1 + i) - 1 for i in range(n)],          # >= n: through
            [2 * n - d.partner(2 * n - i) for i in range(n)])
    return tuple(tuple(p if p < n else i for i, p in enumerate(row)) for row in rows)


def _middle(upper: tuple, lower: tuple):
    """Trace the bottom half `upper` glued onto the top half `lower` below it,
    their through points as ports: (closed loops, up, down), where up[j] is
    the upper port that upper port j meets, itself if it meets a lower one,
    and down likewise for the lower ports."""
    n = len(upper)
    mid = upper + tuple(n + p for p in lower)          # lower's points from n on
    ports = [p for p, q in enumerate(mid) if p == q]
    k = len(ports)
    wiring = [k + p for p in ports] + [k + q if p != q else ports.index(p)
                                       for p, q in enumerate(mid)]
    glue = (None,) * k + tuple(k + (p + n) % (2 * n) for p in range(2 * n))
    pairs, loops = trace_strands(wiring, glue, k)
    s = sum(p < n for p in ports)
    meets = list(range(k))
    for p, q in pairs:
        if (p <= s) == (q <= s):
            meets[p - 1], meets[q - 1] = q - 1, p - 1
    return loops, tuple(meets[:s]), tuple(m - s for m in meets[s:])


def gram(n: int, ring: Ring):
    """G[i][j] = tau(d_j* d_i) over the diagram basis, as a list of Scalars."""
    _require_numeric(ring)
    loops = _basis_tables(n)[2]
    # one Scalar per distinct entry, in the operation order of
    # d_j*.multiply(d_i).tau(), so float entries match it bit for bit
    values = {key: ring.one().delta_pow(key[0]).delta_pow(key[1] - n)
              for key in {key for row in loops for key in row}}
    return [[values[key] for key in row] for row in loops]


@lru_cache(maxsize=None)
def gram_float(n: int, ring: Ring):
    import numpy as np
    mat = np.array([[s.to_float() for s in row] for row in gram(n, ring)])
    mat.flags.writeable = False         # one matrix per (n, ring), shared
    return mat


@lru_cache(maxsize=None)
def gram_min_eigenvalue(n: int, ring: Ring) -> float:
    import numpy as np
    return float(np.linalg.eigvalsh(gram_float(n, ring)).min())


@lru_cache(maxsize=None)
def gram_positive_definite_exact(n: int, delta) -> bool:
    """Sylvester test of the Gram matrix at a rational delta = p/q.

    Runs on the integer matrix |p|^n q^n G (every entry is delta^(L-n) with
    0 <= L <= 2n loops); the scale is positive, so the signs of the leading
    minors are those of G.  It passes iff `eliminate` pivots each column k at
    row k, unswapped, on a positive leading principal minor."""
    delta = Ring.rational(Fraction(delta)).delta     # rejects delta = 0
    p, q = delta.numerator, delta.denominator
    scale = abs(p) ** n * q ** n
    loops = _basis_tables(n)[2]
    ints = {key: int(scale * delta ** (key[0] + key[1] - n))
            for key in {key for row in loops for key in row}}
    pivots = eliminate([[ints[key] for key in row] for row in loops], len(loops))
    return len(pivots) == len(loops) and all(
        row == k and pivot > 0 for k, (row, _, pivot) in enumerate(pivots))


def eliminate(mat, ncols: int) -> list:
    """Fraction-free (Bareiss) forward elimination of the integer matrix `mat`
    in place on its first `ncols` columns: one (row, column, pivot) per pivot.
    The r-th pivot is the first nonzero entry of `column` from row r down,
    found at `row` and swapped up to r.  Each pivot is a minor of `mat`, so
    every division is exact.  Only the entries right of a pivot's column are
    updated: the rows below it keep stale entries in that column."""
    rows, pivots, prev = len(mat), [], 1
    for c in range(ncols):
        r = len(pivots)
        found = next((i for i in range(r, rows) if mat[i][c]), None)
        if found is None:
            continue
        mat[r], mat[found] = mat[found], mat[r]
        top, pivot = mat[r], mat[r][c]
        for mi in mat[r + 1:]:
            mic = mi[c]
            for j in range(c + 1, len(top)):
                mi[j] = (mi[j] * pivot - mic * top[j]) // prev
        pivots.append((found, c, pivot))
        prev = pivot
    return pivots


def integer_rows(mat) -> list:
    """Each row of a rational matrix times the lcm of its denominators."""
    scales = [lcm(*(v.denominator for v in row)) for row in mat]
    return [[v.numerator * (s // v.denominator) for v in row] for row, s in zip(mat, scales)]


def gns_matrix(x: Element):
    """Matrix of left multiplication by x on P_n in the diagram basis."""
    _require_float(x.ring)
    import numpy as np
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
        import numpy as np
        g = gram_float(n, ring)
        self.chol = np.linalg.cholesky(g)      # g = L L^T
        self.inv_lt = np.linalg.inv(self.chol.T)
        self.unit_index = _basis_tables(n)[0][identity_diagram(n)]

    @classmethod
    def get(cls, n: int, ring: Ring) -> "GnsGeometry":
        key = (n, ring.mode, ring.delta)
        return cls._cache.get(key) or cls._cache.setdefault(key, cls(n, ring))

    def operator(self, x: Element):
        """Left multiplication by x in orthonormal coordinates."""
        return self.chol.T @ gns_matrix(x) @ self.inv_lt


def op_norm(x: Element) -> float:
    """Operator norm of left multiplication in the GNS geometry."""
    import numpy as np
    geo = GnsGeometry.get(x.colour.n, x.ring)
    return float(np.linalg.norm(geo.operator(x), 2))


def _spectrum(x: Element, vectors: bool = False, psd: bool = False):
    """(frame, asymmetry, eigenvalues, eigenvectors or None) of x's GNS operator
    A, the asymmetry being max|A - A^T| / max(1, max|A|).  Above 1e-7 the spectrum
    is (None, None); with `psd`, that and an x that is not PSD raise instead."""
    import numpy as np
    geo = GnsGeometry.get(x.colour.n, x.ring)
    op = geo.operator(x)
    skew = np.abs(op - op.T).max() / max(1.0, np.abs(op).max())
    if skew > 1e-7:
        if psd:
            raise PreconditionError("element is not self-adjoint")
        return geo, skew, None, None
    sym = (op + op.T) / 2
    lam, vec = np.linalg.eigh(sym) if vectors else (np.linalg.eigvalsh(sym), None)
    if psd and lam.min() < -FLOAT_TOL:
        raise PreconditionError(f"element is not PSD (min eigenvalue {lam.min():.3e})")
    return geo, skew, lam, vec


def is_psd(x: Element):
    """Whether x acts as a PSD operator: (flag, min eigenvalue or NaN if x* != x)."""
    return _psd(_spectrum(x)[2])


def _psd(lam):
    """`is_psd` from the eigenvalues of a `_spectrum` (None: x* != x)."""
    if lam is None:
        return False, float("nan")
    return bool(lam.min() >= -FLOAT_TOL), float(lam.min())


def psd_sqrt(x: Element, spectrum=None) -> Element:
    """The positive square root of a PSD element, via spectral calculus.

    Eigenvalues below a relative cutoff are flushed to zero first; without
    that, +-1e-15 kernel noise turns into +-3e-8 square-root noise.  A
    caller that has x's `_spectrum` with vectors, and has found x PSD,
    passes it as `spectrum`.
    """
    import numpy as np
    geo, _, lam, vec = spectrum or _spectrum(x, vectors=True, psd=True)
    cutoff = 1e-10 * max(1.0, lam.max())
    lam = np.where(lam < cutoff, 0.0, lam)
    root = vec @ np.diag(np.sqrt(lam)) @ vec.T
    col = (geo.inv_lt @ root @ geo.chol.T)[:, geo.unit_index]      # root applied to 1
    return Element(x.colour.n, x.ring, {d: x.ring.fraction(v)
                                        for d, v in zip(enumerate_diagrams(x.colour.n), col)})


# -- norms on H_k -----------------------------------------------------------------


def _norm_float(norm_squared) -> float:
    """The float square root of a squared norm, negative rounding read as 0."""
    return sqrt(max(norm_squared.to_float(), 0.0))


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
    spectrum = _spectrum(lhs, vectors=True)     # one solve: the PSD test and the root
    psd, min_eig = _psd(spectrum[2])
    report = {"check": "estimate_lemma", "params": {"p": p, "k": k, "q": q, "i": i},
              "psd": psd, "min_eigenvalue": min_eig}
    if not psd:
        # NaN: lhs is not self-adjoint, and its relative asymmetry is the residual
        residual = spectrum[1] if isnan(min_eig) else -min_eig
        report.update(status="fail", details="left-hand side not PSD",
                      max_residual=float(residual))
        return report
    if lhs.is_zero():
        c = Element.zero(2 * p - q, a.ring)
    else:
        c = psd_sqrt(lhs, spectrum)
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
    """Check ||a#b|| <= K(1+2(m-k)) ||b|| over random b with mixed colours, where
    K = max_u delta^(k/2) ||psd_sqrt(glued_u)||; by the C*-identity that norm is
    lambda_max(glued_u)^(1/2), so one eigenvalue solve per u gives it.  glued_u
    is X X*, X being a with u points on top; for u > m the solve reads X* X,
    the same gluing of a* at colour 2m-u, so none runs above colour m.  The
    identity needs a positive trace, so delta >= 2."""
    _require_float(a.ring)
    ring = a.ring
    if ring.delta < 2:
        raise PreconditionError(POSITIVE_DELTA)
    m = a.colour.n
    big_k = 0.0
    for u in range(2 * k, 2 * m + 1):
        x, v = (a, u) if u <= m else (a.star(), 2 * m - u)
        glued = evaluate(glue_tangle(m, 2 * m - v, 0), [x, x.star()])
        if glued.is_zero():
            continue
        lam_max = max(_spectrum(glued, psd=True)[2].max(), 0.0)
        big_k = max(big_k, ring.delta ** (k / 2.0) * sqrt(lam_max))
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
    import numpy as np
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
    return _perp_parts(x, k)[1:]


def _perp_parts(x: Element, k: int):
    """(the capping tangle on x, member, perp) of `perp_projection`."""
    n = x.colour.n
    x_tangle, cap = _perp_tangles(n, k)
    capped = evaluate(cap, [x])
    member = evaluate(x_tangle, [capped]).scale(x.ring.delta_power(-(n - k)))
    return capped, member, x - member


@lru_cache(maxsize=None)
def _perp_tangles(n: int, k: int):
    """X^n_k and its transpose, the capping tangle, built once."""
    return annular_X(n, k), transpose_annular(annular_X(n, k))


def cnk_membership(x: Element, k: int) -> dict:
    """Two-route membership test for C^n_k = range of the cup tangle.

    Route (a) solves the linear system over the image basis exactly;
    route (b) evaluates the capping tangle (perp test).  The routes must
    agree on the decomposition x = member + perp.
    """
    n = x.colour.n
    capped_x, member, perp = _perp_parts(x, k)
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
    if x.ring.scalar is not Rational:
        raise ModeMismatchError("the exact solve needs rational mode")
    basis_k, system = _image_system(x.colour.n, k, x.ring)
    sol = _reduced_solve(system, coordinates(x))
    if sol is None:
        return None
    combo = {d: x.ring.fraction(w) for d, w in zip(basis_k, sol)}
    return Element(k, x.ring, combo)


@lru_cache(maxsize=None)
def _image_system(n: int, k: int, ring: Ring):
    """_solve_in_image's P_k basis and its image columns, eliminated once."""
    basis_k = tuple(enumerate_diagrams(k))
    cols = [coordinates(evaluate(annular_X(n, k), [Element.basis(d, ring)]))
            for d in basis_k]
    return basis_k, _reduce(cols, len(_basis_tables(n)[0]))


def coordinates(x: Element) -> list:
    """The coefficient column of a numeric x over the diagram basis."""
    index = _basis_tables(x.colour.n)[0]
    col = [x.ring.scalar.number(0)] * len(index)
    for d, c in x.combo.items():
        col[index[d]] = c.value
    return col


def _reduce(cols, rows: int) -> tuple:
    """Eliminate the integer-scaled [cols | I] once: (unknowns, pivot columns,
    echelon rows, transform E).  E.cols is the echelon form, so cols.w = target
    reduces to echelon.w = E.target, whatever the target."""
    ncols = len(cols)
    aug = integer_rows([[cols[j][i] for j in range(ncols)]
                        + [int(i == r) for r in range(rows)] for i in range(rows)])
    pivots = eliminate(aug, ncols)
    return (ncols, tuple(c for _, c, _ in pivots),
            tuple(tuple(row[:ncols]) for row in aug[:len(pivots)]),
            tuple(tuple(row[ncols:]) for row in aug))


def _reduced_solve(system, target):
    """_reduce's solve of cols.w = target, free unknowns 0; None off the image.
    It runs on the target scaled to integers: the last pivot D is the minor of
    the pivot columns, so D.w is integral and back-substitution divides exactly."""
    ncols, piv_cols, echelon, transform = system
    *ints, scale = integer_rows([[*target, 1]])[0]      # the 1 becomes the scale
    reduced = [sum(e * t for e, t in zip(row, ints) if t) for row in transform]
    if any(reduced[len(piv_cols):]):
        return None
    minor = echelon[-1][piv_cols[-1]] if piv_cols else 1
    sol = [0] * ncols
    for r in reversed(range(len(piv_cols))):
        c, row = piv_cols[r], echelon[r]
        sol[c] = (minor * reduced[r] - sum(row[j] * sol[j] for j in piv_cols[r + 1:])) // row[c]
    return [Fraction(v, minor * scale) for v in sol]


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


# dcomm's cup placements: the double cup in the first slot, as in Y^t_k, or
# in the last, as in Z^t_k
_CUPS = {"first": annular_Y, "last": annular_Z}


@lru_cache(maxsize=None)
def _capping_ok(k: int, y_mode: str, z_mode: str):
    """dcomm_replay's seed-free sub-checks (i) and (ii): (held, failed at)."""
    # (i) capping {4,5} lowers the colour by one, for t >= k+4
    for t in (k + 4, k + 5):
        cap = partial_cap_tangle(t, [(4, 5)])
        for name, mode in (("Y", y_mode), ("Z", z_mode)):
            if substitute(cap, {1: _CUPS[mode](t, k)}) != _CUPS[mode](t - 1, k):
                return False, f"(i) {name}"
    # (ii) triple capping: delta I for Y, delta^3 I for Z
    t0 = k + 3
    cap3 = partial_cap_tangle(t0, [(1, 2), (3, 6), (4, 5)])
    ident = identity_tangle(k)
    if substitute(cap3, {1: _CUPS[y_mode](t0, k)}) != ident.with_loops(1):
        return False, "(ii) Y"
    if substitute(cap3, {1: _CUPS[z_mode](t0, k)}) != ident.with_loops(3):
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
            rhs = evaluate(_CUPS[y_mode](t, k), [ysum]) \
                - evaluate(_CUPS[z_mode](t, k), [ysum])
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
    texpr, perp_basis, system = _xnxm_system(k, n, ring)
    failures = 0
    trials = 5
    for _ in range(trials):
        _, x_n = perp_projection(random_element(n, ring, rng), k)
        z = commutator_with_c(x_n, k, n + 1)
        sol = _reduced_solve(system, coordinates(z))
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
    """xnxm_verify's seed-free system, all tuples: the capping expression, the
    complement basis and the expression's columns on it, eliminated once."""
    m = n + 2
    t1 = annular_T(TSpec(k, _interval(1, n - k + 1), _interval(1, n - k + 1),
                         n + 1, m))
    t2 = annular_T(TSpec(k, _interval(1, n - k + 1), _interval(2, n - k + 2),
                         n + 1, m))

    def texpr(el):
        return evaluate(t1, [el]) - evaluate(t2, [el])

    perp_basis = tuple(pb for pb in (perp_projection(Element.basis(d, ring), k)[1]
                                     for d in enumerate_diagrams(m)) if not pb.is_zero())
    cols = [coordinates(texpr(pb)) for pb in perp_basis]
    return texpr, perp_basis, _reduce(cols, len(_basis_tables(n + 1)[0]))


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
    # (tangle, sign, power of delta) of each composite, seed-free
    composites = []
    for t in range(1, n - k + 1):
        for s in range(1, n + 2 - k + 1):
            # shifting one interval by one flips the sign
            for sa, sb in ((0, 0), (1, 0), (0, 1), (1, 1)):
                ta = TSpec(k, _interval(1, n + 1 - t - k),
                           _interval(t + 1 + sa, n - k + 1 + sa), n, n + 2)
                tb = TSpec(k, _interval(1, n + 3 - s - k),
                           _interval(s + d - 1 + sb, n - k + d + 1 + sb), n + 2, m)
                expo, spec3 = compose_T(ta, tb)
                composites.append((annular_T(spec3), minus if sa != sb else None,
                                   expo - (t + s + d - 2)))
    failures = 0
    trials = 3
    for _ in range(trials):
        _, x_m = perp_projection(random_element(m, ring, rng), k)
        terms = []
        for tangle, sign, power in composites:
            terms += evaluate(tangle, [x_m])._terms(sign, power)
        four = Element._sum(Colour.of(n), ring, terms)
        if four != xn_from_xm(x_m, n, k, d):
            failures += 1
    status = "pass" if failures == 0 else "fail"
    return {"check": "xnxm_telescope", "params": {"k": k, "n": n, "d": d},
            "status": status, "trials": trials, "failures": failures,
            "max_residual": float(failures)}
