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

from .errors import (EmptyAlgebra, InvariantError, NeedsExtension,
                     NoMatrixRealization, NotStandard, NotZeroDegree,
                     OddElement)
from .field import _SLAB, digit_power, digit_product, nonzero_digits
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
        return degs.pop() if len(degs) == 1 else None

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


def _unit(A, i):
    """(r, c) such that the gl letter i is realized as the matrix unit e_rc."""
    return tuple(np.argwhere(nonzero_digits(A.matrices[i].a))[0].tolist())


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
# The checks read the structure tensor C (n, n, n, k), C[i, j] the digits of
# [x_i, x_j], built per call since callers may edit structure, pmap and
# degrees.  A representation R (n, m, m, k) stacks the basis letters'
# matrices: C for ad (row j of ad(v) holds [v, x_j]) or the realization.

def _dense(A, elems):
    """Coefficient dicts as a (len, n, k) digit array."""
    codes = np.zeros((len(elems), A.dim), dtype=np.int64)
    for row, x in zip(codes, elems):
        row[list(x)] = list(x.values())
    return A.F.codes_to_array(codes)


def _structure_tensor(A):
    n = A.dim
    return _dense(A, [A.bracket(i, j) for i in range(n)
                      for j in range(n)]).reshape(n, n, n, A.F.k)


def _rep(F, R, V):
    """The matrices (b, m, m, k) of the vectors V (b, n, k) under R."""
    n, m = R.shape[:2]
    return digit_product(F, V, R.reshape(n, m * m, F.k),
                         np.matmul).reshape(len(V), m, m, F.k)


def _power_mismatch(F, R, V, W):
    """(b, m) mask of the rows where R(v)^p and R(w) differ, for each pair
    of the batches V and W (b, n, k), in slabs of about _SLAB cells."""
    m = R.shape[1]
    bad = np.zeros((len(V), m), dtype=bool)
    step = max(1, _SLAB // (m * m))
    for b in range(0, len(V), step):
        lhs = digit_power(F, _rep(F, R, V[b:b + step]), F.p, np.matmul)
        bad[b:b + step] = (lhs != _rep(F, R, W[b:b + step])).any(axis=(2, 3))
    return bad


def _jacobson_sums(A, C, X, Y):
    """s_1 + ... + s_{p-1} of Jacobson's formula for (x + y)^[p], for each
    pair of the batches X and Y (b, n, k) of even vectors of one degree.

    i s_i is the coefficient c_(i-1) of t^(i-1) in f(t) = (ad(tx+y))^(p-1)(x),
    of degree < p, so the sum is sum_t w_t f(t) over t in F_p with w_t =
    sum_d V^-1[d, t] / (d+1), V[t, d] = t^d.  As sum_t t^m over F_p is -1
    for m > 0 divisible by p-1 and 0 otherwise, V^-1 has row 0 [t == 0] and
    row d > 0 -t^(p-1-d): the weights need no elimination."""
    F, p, n = A.F, A.F.p, A.dim
    w = np.array([(t == 0) - sum(pow(t, p - 1 - d, p) * pow(d + 1, p - 2, p)
                                 for d in range(1, p - 1))
                  for t in range(p)])[:, None, None] % p
    t = np.arange(p)[:, None, None, None]   # prime-field codes act digitwise
    out = np.zeros_like(X)
    step = max(1, _SLAB // (p * n * n))
    for b in range(0, len(X), step):
        x = X[b:b + step]
        # ad(tx + y) = t ad(x) + ad(y)
        ad = (t * _rep(F, C, x)[:, None]
              + _rep(F, C, Y[b:b + step])[:, None]) % p
        z = np.broadcast_to(x[:, None, None], (len(x), p, 1, n, F.k))
        for _ in range(p - 1):
            z = digit_product(F, z, ad, np.matmul)
        out[b:b + step] = (w * z[:, :, 0]).sum(axis=1) % p
    return out


def pmap_eval(A, x):
    """p-th power map on a homogeneous even element, via Jacobson additivity:
    each term c x_i of x, in order, adds c^p x_i^[p] and the s_i of the sum
    of the terms before it and itself."""
    F = A.F
    x = elem_clean(x)
    if not x:
        return {}
    deg = A.element_degree(x)
    if deg is None:
        raise ValueError("p-map needs a homogeneous element")
    if not A.eps.is_even(deg):
        raise OddElement("p-map is defined on even degrees only")
    powers = F.codes_to_array([F.pow(c, F.p) for c in x.values()])
    acc = digit_product(F, powers[:, None], _dense(A, [A.pmap[i] for i in x]),
                        np.multiply).sum(axis=0)
    if len(x) > 1:
        singles = _dense(A, [{i: c} for i, c in x.items()])
        parts = np.cumsum(singles, axis=0) % F.p
        acc += _jacobson_sums(A, _structure_tensor(A), parts[:-1],
                              singles[1:]).sum(axis=0)
    return elem_clean(dict(enumerate(F.array_to_codes(acc % F.p).tolist())))


def validate_algebra(A):
    """Axiom report; empty list means the algebra passed every check."""
    F, eps = A.F, A.eps
    p, n, k = F.p, A.dim, F.k
    report = []
    for (i, j), terms in A.structure.items():
        d = A.group.add(A.degrees[i], A.degrees[j])
        for t in terms:
            if A.degrees[t] != d:
                report.append(("degree", (i, j, t),
                               "[%s,%s] hits %s outside degree" %
                               (A.names[i], A.names[j], A.names[t])))
    C = _structure_tensor(A)
    # E[i, j] = eps(deg i, deg j)
    E = F.codes_to_array([[eps.value(a, b) for b in A.degrees]
                          for a in A.degrees])
    # [x_j, x_i] = -eps(deg j, deg i) [x_i, x_j]
    skew = C.swapaxes(0, 1) != digit_product(
        F, (-E.swapaxes(0, 1) % p)[:, :, None], C, np.multiply)
    for i, j in np.argwhere(skew.any(axis=(2, 3))).tolist():
        report.append(("skew", (i, j), "[y,x] != -eps(b,a)[x,y]"))
    # eps(c,a) T[i,j,k] + eps(a,b) T[j,k,i] + eps(b,c) T[k,i,j] = 0 for
    # T[i, j, k] = [x_i, [x_j, x_k]] = sum_m C[j, k, m] C[i, m], a slab of
    # output coordinates at a time
    terms = ((E.swapaxes(0, 1)[:, None, :, None], (0, 1, 2, 3, 4)),
             (E[:, :, None, None], (2, 0, 1, 3, 4)),
             (E[None, :, :, None], (1, 2, 0, 3, 4)))
    jacobi = np.zeros((n, n, n), dtype=bool)
    step = max(1, _SLAB // n ** 3)
    for o in range(0, n, step):
        T = digit_product(F, C.reshape(n * n, n, k), C[:, :, o:o + step],
                          np.matmul).reshape(n, n, n, -1, k)
        total = sum(digit_product(F, e, T.transpose(axes), np.multiply)
                    for e, axes in terms)
        jacobi |= (total % p).any(axis=(3, 4))
    for i, j, t in np.argwhere(jacobi).tolist():
        report.append(("jacobi", (i, j, t), "color Jacobi fails on (%s,%s,%s)"
                       % (A.names[i], A.names[j], A.names[t])))
    # [x,x] = 0 for even x; [[y,y],z] = 2[y,[y,z]] for odd y
    square = C[np.arange(n), np.arange(n)]
    lhs = _rep(F, C, square)
    twice = digit_product(F, C, C, np.matmul) * 2 % p
    for i in range(n):
        if A.is_even(i):
            if square[i].any():
                report.append(("bracket_square", i, "[x,x] != 0 for even x"))
            continue
        if lhs[i, i].any():
            report.append(("bracket_square", i, "[[y,y],y] != 0"))
        for t in np.flatnonzero((lhs[i] != twice[i]).any(axis=(1, 2))):
            report.append(("bracket_square", (i, int(t)),
                           "[[y,y],z] != 2[y,[y,z]]"))
    if A.pmap:
        report.extend(_validate_pmap(A, C))
    return report


def _validate_pmap(A, C):
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
    basis = _dense(A, [{i: F.one} for i in range(A.dim)])
    pmaps = _dense(A, [A.pmap.get(i, {}) for i in range(A.dim)])
    for i, row in zip(evens, _power_mismatch(F, C, basis[evens],
                                             pmaps[evens])):
        if row.any():
            report.append(("pmap_ad", (i, int(row.argmax())),
                           "ad(x^[p]) != (ad x)^p"))
    # the matrix realization, when there is one, checks x^[p] and additivity
    R = C
    if A.matrices is not None:
        R = np.stack([A.matrices[i].a for i in range(A.dim)])
        wrong = _power_mismatch(F, R, basis[evens], pmaps[evens]).any(axis=1)
        for i in np.array(evens, dtype=np.int64)[wrong].tolist():
            report.append(("pmap_matrix", i,
                           "x^[p] differs from the matrix p-th power"))
    by_degree = {}
    for i in evens:
        by_degree.setdefault(A.degrees[i], []).append(i)
    pairs = [ij for group in by_degree.values()
             for ij in itertools.combinations(group, 2)]
    I, J = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    W = (pmaps[I] + pmaps[J] + _jacobson_sums(A, C, basis[I], basis[J])) % p
    wrong = _power_mismatch(F, R, (basis[I] + basis[J]) % p, W).any(axis=1)
    for (i, j), bad in zip(pairs, wrong):
        if bad:
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
        if ker.shape[1] != mult:
            raise InvariantError("generalized eigenspace of %d has dimension "
                                 "%d, not its multiplicity %d"
                                 % (lam, ker.shape[1], mult))
        for c in range(mult):
            cols.append([ker.entry(r, c) for r in range(n)])
            diag.append(lam)
    U = Mat.from_codes(F, cols).T
    return U @ Mat.from_codes(F, np.diag(diag)) @ U.inv()


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
    # entry (r, c) of Xs is the coefficient of e_rc
    xs = elem_clean({i: Xs.entry(*_unit(A, i)) for i in range(A.dim)
                     if A.degrees[i] == A.group.zero})
    xn = elem_add(F, x, elem_scale(F, xs, F.neg(F.one)))
    if bracket_eval(A, xs, xn):
        raise InvariantError("Jordan parts do not commute")
    if not matrix_of(A, xn).pow_int(X.shape[0]).is_zero():
        raise InvariantError("Jordan nilpotent part is not nilpotent")
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
    # chi(e_rc) = tr(X e_rc) = X_cr
    chi_s = {c: Xstd.entry(*_unit(A, c)) for c in tri.cartan}
    chi_n = {t: Xstd.entry(*_unit(A, t)[::-1]) for t in tri.neg}
    std = CharacterStd(A, chi_s, chi_n, g)
    _check_standard(A, std, Xstd)
    return std


def _check_standard(A, std, Xstd):
    tri = A.triangular
    # chi^g read directly from Xstd must vanish on positive root vectors,
    # agree with chi_s on the Cartan and chi_n on negatives
    for t in tri.pos:
        if Xstd.entry(*_unit(A, t)[::-1]) != 0:
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
