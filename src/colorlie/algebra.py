"""Lie color algebras given by structure constants, with gl(m, Γ) built in.

Elements are sparse coefficient dicts {basis index: field code}.  A
ColorAlgebra carries the bicharacter, per-index degrees, the bracket table,
an optional p-map on even basis indices, and (for gl) the matrix realization
plus triangular data (root space decomposition, (e, f, H_delta) pairs).

Characters supported on degree zero are reduced to standard form by Jordan
decomposition of theta_inv(chi) inside each grading block and a conjugation
that makes the semisimple part diagonal and the nilpotent part strictly
upper triangular.
"""

import itertools

import numpy as np

from .errors import (EmptyAlgebra, NeedsExtension, NoMatrixRealization,
                     NotStandard, NotZeroDegree, OddElement)
from .linalg import Echelon, Mat


# -- sparse element helpers ---------------------------------------------------

def elem_clean(x):
    return {i: c for i, c in x.items() if c != 0}


def elem_add(F, x, y):
    out = dict(x)
    for i, c in y.items():
        out[i] = F.add(out.get(i, 0), c)
    return elem_clean(out)


def elem_scale(F, x, c):
    if c == 0:
        return {}
    return {i: F.mul(c, v) for i, v in x.items()}


def elem_neg(F, x):
    return {i: F.neg(c) for i, c in x.items()}


def elem_sub(F, x, y):
    return elem_add(F, x, elem_neg(F, y))


def elem_eq(x, y):
    return elem_clean(x) == elem_clean(y)


class ColorAlgebra:
    def __init__(self, eps, names, degrees, structure, pmap=None,
                 matrices=None, triangular=None, blocks=None):
        self.eps = eps
        self.F = eps.F
        self.group = eps.group
        self.names = list(names)
        self.degrees = [eps.group.element(d) for d in degrees]
        self.dim = len(self.names)
        if self.dim == 0:
            raise EmptyAlgebra("algebra has no basis elements")
        # structure: (i, j) -> {k: code}; missing (j, i) rows are filled in by
        # color skew-symmetry so callers may give one triangle only
        table = {k: elem_clean(dict(v)) for k, v in structure.items()}
        for (i, j) in list(table):
            if (j, i) not in table:
                s = self.F.neg(eps.value(self.degrees[i], self.degrees[j]))
                table[(j, i)] = elem_clean(elem_scale(self.F, table[(i, j)], s))
        self.structure = table
        self.pmap = {i: elem_clean(dict(v)) for i, v in (pmap or {}).items()}
        self.matrices = matrices            # index -> Mat, or None
        self.triangular = triangular        # TriangularData, or None
        self.blocks = blocks                # [(gamma, start, size)] of the realization

    def degree(self, i):
        return self.degrees[i]

    def is_even(self, i):
        return self.eps.is_even(self.degrees[i])

    def bracket(self, i, j):
        return self.structure.get((i, j), {})

    def index_of(self, name):
        return self.names.index(name)

    def element_degree(self, x):
        """The common degree of a homogeneous element, None for 0 or mixed."""
        degs = {self.degrees[i] for i in elem_clean(x)}
        if len(degs) != 1:
            return None
        return degs.pop()

    def __repr__(self):
        return "ColorAlgebra(dim=%d over F_%d)" % (self.dim, self.F.q)


class TriangularData:
    def __init__(self, neg, cartan, pos, roots, heights, pairs):
        self.neg = list(neg)        # negative root indices, basis order
        self.cartan = list(cartan)
        self.pos = list(pos)
        self.roots = dict(roots)    # non-Cartan index -> integer tuple on Cartan
        self.heights = dict(heights)
        self.pairs = dict(pairs)    # pos index -> (e_idx, f_idx, {cartan: code})


def bracket_eval(A, x, y):
    """Bilinear extension of the structure constants to coefficient dicts."""
    F = A.F
    out = {}
    for i, a in x.items():
        if a == 0:
            continue
        for j, b in y.items():
            c = F.mul(a, b)
            if c == 0:
                continue
            for k, s in A.bracket(i, j).items():
                out[k] = F.add(out.get(k, 0), F.mul(c, s))
    return elem_clean(out)


def matrix_of(A, x):
    if A.matrices is None:
        raise NoMatrixRealization("algebra has no matrix realization")
    m = next(iter(A.matrices.values())).shape[0]
    M = Mat.zeros(A.F, m, m)
    for i, c in x.items():
        if c:
            M = M + A.matrices[i].scale(c)
    return M


# -- gl(m, Gamma) -------------------------------------------------------------

def make_gl(eps, dims):
    """gl(m, Γ) on the basis {e_ij} with p-map the matrix p-th power.

    dims maps Γ-elements to fiber dimensions.  Basis vectors are grouped by
    degree in sorted Γ-element order; deg(e_ij) = deg(v_i) - deg(v_j).  The
    basis is ordered negatives / Cartan / positives, within each part by root
    height then lexicographic (i, j): downstream normal forms rely on it.
    """
    F, G = eps.F, eps.group
    vdegrees = []
    blocks = []
    for gamma in sorted(dims):
        g = G.element(gamma)
        n = int(dims[gamma])
        if n < 0:
            raise ValueError("negative dimension for degree %r" % (gamma,))
        if n:
            blocks.append((g, len(vdegrees), n))
            vdegrees.extend([g] * n)
    m = len(vdegrees)
    if m == 0:
        raise EmptyAlgebra("gl needs at least one basis vector")

    neg = sorted(((i, j) for i in range(m) for j in range(m) if i > j),
                 key=lambda ij: (ij[0] - ij[1], ij))
    cartan = [(i, i) for i in range(m)]
    pos = sorted(((i, j) for i in range(m) for j in range(m) if i < j),
                 key=lambda ij: (ij[1] - ij[0], ij))
    positions = neg + cartan + pos
    index = {ij: t for t, ij in enumerate(positions)}
    wide = m > 9
    names = [("e_%d_%d" if wide else "e_%d%d") % (i + 1, j + 1)
             for i, j in positions]
    degrees = [G.sub(vdegrees[i], vdegrees[j]) for i, j in positions]

    # [e_ij, e_kl] = d_jk e_il - eps(deg_ij, deg_kl) d_li e_kj
    structure = {}
    for t1, (i, j) in enumerate(positions):
        for t2, (k, l) in enumerate(positions):
            out = {}
            if j == k:
                out[index[(i, l)]] = F.one
            if l == i:
                s = F.neg(eps.value(degrees[t1], degrees[t2]))
                out[index[(k, j)]] = F.add(out.get(index[(k, j)], 0), s)
            out = elem_clean(out)
            if out:
                structure[(t1, t2)] = out

    pmap = {}
    for t, (i, j) in enumerate(positions):
        if eps.is_even(degrees[t]):
            pmap[t] = {t: F.one} if i == j else {}

    matrices = {}
    for t, (i, j) in enumerate(positions):
        a = np.zeros((m, m, F.k), dtype=np.int64)
        a[i, j, 0] = 1
        matrices[t] = Mat(F, a)

    roots, heights, pairs = {}, {}, {}
    for t, (i, j) in enumerate(positions):
        if i == j:
            continue
        roots[t] = tuple((1 if c == i else 0) - (1 if c == j else 0)
                         for c in range(m))
        heights[t] = abs(i - j)
    for i, j in pos:
        e_idx, f_idx = index[(i, j)], index[(j, i)]
        sign = F.one if eps.is_even(degrees[e_idx]) else F.neg(F.one)
        pairs[e_idx] = (e_idx, f_idx,
                        {index[(i, i)]: F.one, index[(j, j)]: F.neg(sign)})
    tri = TriangularData([index[ij] for ij in neg], [index[ij] for ij in cartan],
                         [index[ij] for ij in pos], roots, heights, pairs)
    return ColorAlgebra(eps, names, degrees, structure, pmap=pmap,
                        matrices=matrices, triangular=tri, blocks=blocks)


# -- validation ---------------------------------------------------------------

def _si_terms(A, x, y):
    """s_1..s_{p-1} of Jacobson additivity, by interpolating the coefficient
    of t^(i-1) in (ad(tx+y))^(p-1)(x); deg_t <= p-1 and q >= p give enough
    sample points in the prime subfield."""
    F = A.F
    p = F.p
    samples = []
    for t in range(p):
        z = x
        xt = elem_add(F, elem_scale(F, x, t), y)
        for _ in range(p - 1):
            z = bracket_eval(A, xt, z)
        samples.append(z)
    support = sorted(set().union(*samples)) if any(samples) else []
    if not support:
        return [{} for _ in range(p - 1)]
    V = Mat.from_codes(F, [[F.pow(t, d) for d in range(p)] for t in range(p)])
    B = Mat.from_codes(F, [[samples[t].get(i, 0) for i in support]
                           for t in range(p)])
    C = V.solve(B)
    out = []
    for i in range(1, p):
        row = {support[c]: C.entry(i - 1, c) for c in range(len(support))}
        out.append(elem_clean(elem_scale(F, row, F.inv(F.embed(i)))))
    return out


def pmap_eval(A, x):
    """p-th power map on a homogeneous even element, via Jacobson additivity."""
    F = A.F
    x = elem_clean(x)
    if not x:
        return {}
    deg = A.element_degree(x)
    if deg is None:
        raise ValueError("p-map needs a homogeneous element")
    if not A.eps.is_even(deg):
        raise OddElement("p-map is defined on even degrees only")
    terms = [(i, c) for i, c in x.items()]
    i0, c0 = terms[0]
    acc = elem_scale(F, A.pmap[i0], F.pow(c0, F.p))
    part = {i0: c0}
    for i, c in terms[1:]:
        single = {i: c}
        acc = elem_add(F, acc, elem_scale(F, A.pmap[i], F.pow(c, F.p)))
        for s in _si_terms(A, part, single):
            acc = elem_add(F, acc, s)
        part = elem_add(F, part, single)
    return acc


def validate_algebra(A):
    """Axiom report; empty list means the algebra passed every check."""
    F, eps = A.F, A.eps
    report = []
    basis = [{i: F.one} for i in range(A.dim)]
    for (i, j), terms in A.structure.items():
        d = A.group.add(A.degrees[i], A.degrees[j])
        for k in terms:
            if A.degrees[k] != d:
                report.append(("degree", (i, j, k),
                               "[%s,%s] hits %s outside degree" %
                               (A.names[i], A.names[j], A.names[k])))
    for i in range(A.dim):
        for j in range(A.dim):
            s = F.neg(eps.value(A.degrees[j], A.degrees[i]))
            if not elem_eq(A.bracket(j, i), elem_scale(F, A.bracket(i, j), s)):
                report.append(("skew", (i, j), "[y,x] != -eps(b,a)[x,y]"))
    for i in range(A.dim):
        for j in range(A.dim):
            for k in range(A.dim):
                a, b, g = A.degrees[i], A.degrees[j], A.degrees[k]
                t1 = elem_scale(F, bracket_eval(A, basis[i], A.bracket(j, k)),
                                eps.value(g, a))
                t2 = elem_scale(F, bracket_eval(A, basis[j], A.bracket(k, i)),
                                eps.value(a, b))
                t3 = elem_scale(F, bracket_eval(A, basis[k], A.bracket(i, j)),
                                eps.value(b, g))
                if elem_add(F, elem_add(F, t1, t2), t3):
                    report.append(("jacobi", (i, j, k),
                                   "color Jacobi fails on (%s,%s,%s)" %
                                   (A.names[i], A.names[j], A.names[k])))
    two = F.embed(2)
    for i in range(A.dim):
        if A.is_even(i):
            if A.bracket(i, i):
                report.append(("bracket_square", i, "[x,x] != 0 for even x"))
        else:
            yy = A.bracket(i, i)
            if bracket_eval(A, yy, basis[i]):
                report.append(("bracket_square", i, "[[y,y],y] != 0"))
            for k in range(A.dim):
                lhs = bracket_eval(A, yy, basis[k])
                rhs = elem_scale(F, bracket_eval(
                    A, basis[i], A.bracket(i, k)), two)
                if not elem_eq(lhs, rhs):
                    report.append(("bracket_square", (i, k),
                                   "[[y,y],z] != 2[y,[y,z]]"))
    if A.pmap:
        report.extend(_validate_pmap(A, basis))
    return report


def _validate_pmap(A, basis):
    F, p = A.F, A.F.p
    report = []
    for i, val in A.pmap.items():
        if not A.is_even(i):
            report.append(("pmap_degree", i, "p-map given on an odd index"))
            continue
        d = A.group.scale(p, A.degrees[i])
        if any(A.degrees[k] != d for k in val):
            report.append(("pmap_degree", i, "x^[p] not of degree p*deg(x)"))
    evens = [i for i in range(A.dim) if A.is_even(i)]
    if any(i not in A.pmap for i in evens):
        report.append(("pmap_degree", tuple(i for i in evens if i not in A.pmap),
                       "p-map missing on even indices"))
        return report
    for i in evens:
        for j in range(A.dim):
            z = basis[j]
            for _ in range(p):
                z = bracket_eval(A, basis[i], z)
            if not elem_eq(z, bracket_eval(A, A.pmap[i], basis[j])):
                report.append(("pmap_ad", (i, j), "ad(x^[p]) != (ad x)^p"))
                break
    if A.matrices is not None:
        for i in evens:
            Mp = A.matrices[i].pow_int(p)
            for r in (2, 3):
                lhs = A.matrices[i].scale(F.embed(r)).pow_int(p)
                rhs = Mp.scale(F.pow(F.embed(r), p))
                if lhs != rhs:
                    report.append(("pmap_scale", i, "(rx)^[p] != r^p x^[p]"))
            if matrix_of(A, A.pmap[i]) != Mp:
                report.append(("pmap_matrix", i,
                               "x^[p] differs from the matrix p-th power"))
    by_degree = {}
    for i in evens:
        by_degree.setdefault(A.degrees[i], []).append(i)
    for group in by_degree.values():
        for i, j in itertools.combinations(group, 2):
            w = elem_add(F, A.pmap[i], A.pmap[j])
            for s in _si_terms(A, basis[i], basis[j]):
                w = elem_add(F, w, s)
            if A.matrices is not None:
                target = (A.matrices[i] + A.matrices[j]).pow_int(p)
                ok = matrix_of(A, w) == target
            else:
                xy = elem_add(F, basis[i], basis[j])
                ok = True
                for t in range(A.dim):
                    z = basis[t]
                    for _ in range(p):
                        z = bracket_eval(A, xy, z)
                    if not elem_eq(z, bracket_eval(A, w, basis[t])):
                        ok = False
                        break
            if not ok:
                report.append(("pmap_additivity", (i, j),
                               "(x+y)^[p] != x^[p]+y^[p]+sum s_i(x,y)"))
    return report


# -- trace form and theta -----------------------------------------------------

def _gram(A):
    """Gram matrix of b(x_i, x_j) = eps(deg i, deg j) tr(M_i M_j), cached."""
    B = getattr(A, "_trace_gram", None)
    if B is None:
        if A.matrices is None:
            raise NoMatrixRealization("trace form needs a matrix realization")
        F = A.F
        rows = []
        for i in range(A.dim):
            row = []
            for j in range(A.dim):
                t = (A.matrices[i] @ A.matrices[j]).trace()
                row.append(F.mul(A.eps.value(A.degrees[i], A.degrees[j]), t))
            rows.append(row)
        B = Mat.from_codes(F, rows)
        A._trace_gram = B
    return B


def trace_theta(A, x, y):
    """b(x, y), bilinear in the coefficient dicts."""
    F = A.F
    B = _gram(A)
    t = F.zero
    for i, a in x.items():
        for j, b in y.items():
            t = F.add(t, F.mul(F.mul(a, b), B.entry(i, j)))
    return t


def theta(A, x):
    """The functional b(x, -) as a dense value list over the basis."""
    F = A.F
    B = _gram(A)
    return [trace_theta(A, x, {j: F.one}) for j in range(A.dim)]


def theta_inv(A, chi):
    """The unique x with b(x, -) = chi; chi is a dense value list."""
    F = A.F
    B = _gram(A)
    b = Mat.from_codes(F, [[c] for c in chi])
    x = B.T.solve(b)
    if x is None:
        raise NoMatrixRealization("trace form is degenerate")  # unreachable on gl
    return elem_clean({i: x.entry(i, 0) for i in range(A.dim)})


# -- Jordan decomposition and standard characters -----------------------------

def _eigen_data(F, X):
    """(eigenvalue, multiplicity) list; NeedsExtension if charpoly won't split."""
    cp = X.charpoly()
    roots = F.poly_roots(cp)
    if sum(m for _, m in roots) != X.shape[0]:
        raise NeedsExtension(F.splitting_degree(cp),
                             "characteristic polynomial does not split")
    return roots


def _semisimple_part(F, X):
    """Diagonalizable part of X, by projecting onto generalized eigenspaces."""
    n = X.shape[0]
    roots = _eigen_data(F, X)
    cols, diag = [], []
    for lam, mult in sorted(roots):
        shifted = X - Mat.identity(F, n).scale(lam)
        ker = shifted.pow_int(n).nullspace()
        assert ker.shape[1] == mult
        for c in range(mult):
            cols.append([ker.entry(r, c) for r in range(n)])
            diag.append(lam)
    U = Mat.from_codes(F, cols).T
    D = Mat.zeros(F, n, n)
    for i, lam in enumerate(diag):
        D.a[i, i] = F.codes_to_array(np.asarray([[lam]]))[0, 0]
    return U @ D @ U.inv()


def jordan_decompose(A, x):
    """x = x_s + x_n with x_s diagonalizable, x_n nilpotent, [x_s, x_n] = 0."""
    if A.matrices is None:
        raise NoMatrixRealization("Jordan decomposition needs matrices")
    x = elem_clean(x)
    if any(A.degrees[i] != A.group.zero for i in x):
        raise NotZeroDegree("element is not of degree zero")
    F = A.F
    X = matrix_of(A, x)
    Xs = _semisimple_part(F, X)
    # read off coefficients: entry (r, c) of Xs is the coefficient of e_rc
    xs = {}
    for i in range(A.dim):
        if A.degrees[i] != A.group.zero:
            continue
        Mi = A.matrices[i]
        nz = np.argwhere(Mi.a.any(axis=-1))
        r, c = int(nz[0][0]), int(nz[0][1])
        v = Xs.entry(r, c)
        if v:
            xs[i] = v
    xn = elem_sub(F, x, xs)
    assert not bracket_eval(A, xs, xn)
    assert matrix_of(A, xn).pow_int(X.shape[0]).is_zero()
    return xs, xn


class CharacterStd:
    """A degree-zero character in standard form, with its conjugation witness."""

    def __init__(self, algebra, chi_s, chi_n, witness_g):
        self.algebra = algebra
        self.chi_s = elem_clean(chi_s)   # Cartan index -> code
        self.chi_n = elem_clean(chi_n)   # negative root index -> code
        self.witness_g = witness_g

    def value(self, i):
        return self.chi_s.get(i, 0) or self.chi_n.get(i, 0)

    def values(self):
        return [self.value(i) for i in range(self.algebra.dim)]

    def h_delta_value(self, pos_idx):
        """chi_s(H_delta) for the positive root at pos_idx."""
        F = self.algebra.F
        _, _, H = self.algebra.triangular.pairs[pos_idx]
        t = F.zero
        for c, coeff in H.items():
            t = F.add(t, F.mul(coeff, self.chi_s.get(c, 0)))
        return t

    def is_zero(self):
        return not self.chi_s and not self.chi_n


def _filtration_basis(F, N):
    """Basis ordered by the kernel filtration of the nilpotent N; in it N is
    strictly upper triangular."""
    n = N.shape[0]
    E = Echelon(F, n)
    cols = []
    P = Mat.identity(F, n)
    for _ in range(n):
        P = P @ N
        ker = P.nullspace()
        taken = E.insert(ker.a.swapaxes(0, 1))
        cols += ker.to_codes().T[taken].tolist()
        if len(cols) == n:
            break
    return Mat.from_codes(F, cols).T


def standardize_character(A, chi):
    """Conjugate a degree-zero character into standard form.

    chi is a dense value list on the basis.  Returns a CharacterStd whose
    witness g satisfies chi^g(x) = chi(g^-1 x g), with theta_inv(chi_s^g)
    diagonal and theta_inv(chi_n^g) strictly upper triangular (so that
    chi_n^g kills H + N^+), eigenvalues grouped along the diagonal.
    """
    if A.matrices is None or A.triangular is None or A.blocks is None:
        raise NotStandard("standard form reduction needs a gl realization")
    F, G = A.F, A.group
    for i in range(A.dim):
        if chi[i] and A.degrees[i] != G.zero:
            raise NotZeroDegree("character does not vanish outside degree zero")
    X = matrix_of(A, theta_inv(A, chi))
    m = X.shape[0]
    g = Mat.zeros(F, m, m)
    for _, start, size in A.blocks:
        Xb = Mat(F, X.a[start:start + size, start:start + size])
        roots = _eigen_data(F, Xb)
        cols = []
        for lam, mult in sorted(roots):
            shifted = Xb - Mat.identity(F, size).scale(lam)
            ker = shifted.pow_int(size).nullspace()
            sub = Mat(F, ker.a)  # columns span the generalized eigenspace
            # restrict the nilpotent part to this eigenspace and order its
            # basis by the kernel filtration
            Nrep = sub.solve(shifted @ sub)
            W = _filtration_basis(F, Nrep)
            fixed = sub @ W
            for c in range(mult):
                cols.append([fixed.entry(r, c) for r in range(size)])
        C = Mat.from_codes(F, cols).T
        g.a[start:start + size, start:start + size] = C.inv().a
    ginv = g.inv()
    Xstd = g @ X @ ginv
    tri = A.triangular
    chi_s, chi_n = {}, {}
    for c in tri.cartan:
        Mi = A.matrices[c]
        nz = np.argwhere(Mi.a.any(axis=-1))
        r = int(nz[0][0])
        v = Xstd.entry(r, r)
        if v:
            chi_s[c] = v
    for t in tri.neg:
        Mi = A.matrices[t]
        nz = np.argwhere(Mi.a.any(axis=-1))
        r, c = int(nz[0][0]), int(nz[0][1])
        v = Xstd.entry(c, r)  # chi(e_rc) = tr(X e_rc) = X_cr
        if v:
            chi_n[t] = v
    std = CharacterStd(A, chi_s, chi_n, g)
    _check_standard(A, std, Xstd)
    return std


def _check_standard(A, std, Xstd):
    F = A.F
    tri = A.triangular
    # chi^g read directly from Xstd must vanish on positive root vectors,
    # agree with chi_s on the Cartan and chi_n on negatives
    for t in tri.pos:
        Mi = A.matrices[t]
        nz = np.argwhere(Mi.a.any(axis=-1))
        r, c = int(nz[0][0]), int(nz[0][1])
        if Xstd.entry(c, r) != 0:
            raise NotStandard("chi_n does not vanish on N^+")
    for t in tri.pos:
        s = std.h_delta_value(t)
        if s != 0:
            _, f_idx, _ = tri.pairs[t]
            if std.chi_n.get(f_idx, 0) != 0:
                raise NotStandard("chi(H_delta) != 0 but chi(g_{-delta}) != 0")


def levi_data(A, std):
    """(Z, P_0, N_plus) index sets of the Levi decomposition cut out by chi_s.

    Z collects the Cartan and every root with chi_s(H_delta) = 0; N_plus the
    positive roots with chi_s(H_delta) != 0; P_0 = Z + N_plus.  Closure of Z,
    ideal property and nilpotency of N_plus in P_0 are verified.
    """
    if A.triangular is None:
        raise NotStandard("no triangular data")
    F = A.F
    tri = A.triangular
    zset = set(tri.cartan)
    nplus = set()
    for t in tri.pos:
        e_idx, f_idx, _ = tri.pairs[t]
        if std.h_delta_value(t) == 0:
            zset.update((e_idx, f_idx))
        else:
            nplus.add(e_idx)
            if std.chi_n.get(f_idx, 0):
                raise NotStandard("character is not standard on g_{-delta}")
    p0 = zset | nplus
    for i in p0:
        for j in p0:
            out = set(A.bracket(i, j))
            if not out <= p0:
                raise NotStandard("P_0 is not closed under the bracket")
            if (i in nplus or j in nplus) and not out <= nplus:
                raise NotStandard("N_plus is not an ideal of P_0")
    span = set(nplus)
    for _ in range(len(nplus) + 1):
        new = set()
        for i in span:
            for j in nplus:
                new.update(A.bracket(i, j))
        if not new:
            break
        span = new
    else:
        raise NotStandard("N_plus is not nilpotent")
    return sorted(zset), sorted(p0), sorted(nplus)


# -- subalgebras ---------------------------------------------------------------

def subalgebra(A, indices):
    """The color subalgebra spanned by the given basis indices; brackets and
    p-powers must stay inside the span."""
    indices = sorted(indices)
    back = {old: new for new, old in enumerate(indices)}
    structure = {}
    for a, i in enumerate(indices):
        for b, j in enumerate(indices):
            out = A.bracket(i, j)
            if any(k not in back for k in out):
                raise ValueError("span is not closed under the bracket")
            if out:
                structure[(a, b)] = {back[k]: c for k, c in out.items()}
    pmap = None
    if A.pmap:
        pmap = {}
        for a, i in enumerate(indices):
            if A.is_even(i):
                val = A.pmap[i]
                if any(k not in back for k in val):
                    raise ValueError("span is not closed under the p-map")
                pmap[a] = {back[k]: c for k, c in val.items()}
    matrices = None
    if A.matrices is not None:
        matrices = {a: A.matrices[i] for a, i in enumerate(indices)}
    return ColorAlgebra(A.eps, [A.names[i] for i in indices],
                        [A.degrees[i] for i in indices], structure,
                        pmap=pmap, matrices=matrices, blocks=A.blocks)
