"""PBW normal forms in the enveloping algebra and its reduced quotients.

Elements are sparse maps {exponent tuple: field code}, the exponent tuple
indexed by the algebra's basis order.  Products reduce one letter at a time
against a memoized rewrite table:

  * out-of-order pair    y.x -> eps(deg y, deg x) x.y + [y, x]
  * odd square           x^2 -> (1/2)[x, x]
  * caps (reduced mode)  x^p -> x^[p] + chi(x)^p             (linear degree)
                         x^p -> x^[p] + c(x)^p (xi^p - xi^[p])   (class degree)
                         xi^(p s) -> 1 - lower binomial tail  (class generator)

Rewriting terminates: weight letters 1 for class generators and 2 otherwise;
(total weight, word length, inversion count) drops lexicographically at
every step.  Uniqueness of normal forms is not assumed: associativity and
order-independence are exercised by randomized tests.

The same engine runs with a permuted letter order (engine_for(..., order=))
so that induced modules can push non-induced letters to the right.
"""

import itertools
from math import comb, prod

import numpy as np

from .errors import (MixedSpecs, NoMatrixRealization, NotStandard,
                     NotWeightZero, OddElement, TooLarge)
from .field import _SLAB, digit_product, nonzero_digits
from .linalg import Mat


def _acc(F, d, k, v):
    if v == 0:
        return
    cur = d.get(k)
    if cur is None:
        d[k] = v
        return
    s = F.add(cur, v)
    if s:
        d[k] = s
    else:
        del d[k]


def monomial_degree(A, mono):
    """Group degree of a monomial: sum of letter degrees with multiplicity."""
    g = A.group
    acc = g.zero
    for i, a in enumerate(mono):
        if a:
            acc = g.add(acc, g.scale(a, A.degree(i)))
    return acc


def _fmt_mono(A, mono):
    parts = []
    for i, a in enumerate(mono):
        if a == 1:
            parts.append(A.names[i])
        elif a:
            parts.append("%s^%d" % (A.names[i], a))
    return ".".join(parts) or "1"


# -- reduced-quotient spec ----------------------------------------------------

class ReducedAlgebraSpec:
    """An algebra bundled with a p-character: per-index exponent caps (p for
    even indices, p*s for class generators, 2 for odd ones) plus the rewrite
    payloads the engine applies when a cap is hit."""

    def __init__(self, algebra, chi):
        if chi.algebra is not algebra:
            raise ValueError("p-character was built over a different algebra")
        F = algebra.F
        self.algebra = algebra
        self.chi = chi
        p = F.p
        self.J = frozenset(cls.xi for cls in chi.fclasses)
        self.s_of = {cls.xi: cls.s for cls in chi.fclasses}
        by_degree = {cls.degree: cls for cls in chi.fclasses}
        self.class_of = {}
        self.linear_pow = {}
        caps = []
        for i in range(algebra.dim):
            if not algebra.is_even(i):
                caps.append(2)
                continue
            if i in self.J:
                caps.append(p * self.s_of[i])
                continue
            caps.append(p)
            cls = by_degree.get(algebra.degree(i))
            if cls is not None:
                self.class_of[i] = cls
        for i, c in chi.linear.items():
            if c:
                self.linear_pow[i] = F.pow(c, p)
        self.caps = tuple(caps)
        self._engines = {}

    def dimension(self):
        return prod(self.caps)

    def __repr__(self):
        return "ReducedAlgebraSpec(dim %d, caps %r)" % (self.dimension(),
                                                        self.caps)


def chi_reduce(algebra, chi):
    """Bundle an algebra and a p-character into a ReducedAlgebraSpec."""
    return ReducedAlgebraSpec(algebra, chi)


# -- the rewriting engine ------------------------------------------------------

class _Engine:
    """Memoized right-multiplication by single letters.  The maps returned
    by times_letter are owned by the cache: callers must not mutate them.

    A reduction needs the normal forms of shorter products, and a chain of
    commutations can be as long as the monomial.  _reduce is therefore a
    generator that yields the (monomial, letter) keys it needs and receives
    their normal forms; _run drives it on an explicit stack, so the depth
    of a chain never reaches the interpreter's recursion limit."""

    def __init__(self, algebra, spec=None, order=None):
        self.A = algebra
        self.F = algebra.F
        self.spec = spec
        self.caps = spec.caps if spec is not None else None
        n = algebra.dim
        if order is None:
            order = range(n)
        order = list(order)
        if sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of the basis indices")
        self.order = order
        self.rank = [0] * n
        for pos, i in enumerate(order):
            self.rank[i] = pos
        self.one = self.F.embed(1)
        self._memo = {}

    def letters(self, mono):
        """The letters of a normal monomial, in multiplication order."""
        for i in self.order:
            for _ in range(mono[i]):
                yield i

    def times_letter(self, mono, j):
        """Normal form of (normal monomial) * e_j as a {monomial: code} map."""
        key = (mono, j)
        out = self._memo.get(key)
        if out is None:
            out = self._run(self._reduce(mono, j), key)
        return out

    def _run(self, gen, key=None):
        """Drive a reduction generator to its result on an explicit stack,
        memoizing the result of every keyed generator on it."""
        memo = self._memo
        stack = [(key, gen)]
        out = None
        while stack:
            key, gen = stack[-1]
            try:
                need = gen.send(out)
            except StopIteration as done:
                out = done.value
                if key is not None:
                    memo[key] = out
                stack.pop()
                continue
            out = memo.get(need)
            if out is None:
                stack.append((need, self._reduce(*need)))
        return out

    def _reduce(self, mono, j):
        """Generator behind times_letter: yields the keys it depends on."""
        A, F, rank = self.A, self.F, self.rank
        top = -1
        for i, a in enumerate(mono):
            if a and (top < 0 or rank[i] > rank[top]):
                top = i
        if top >= 0 and rank[top] > rank[j]:
            # commute e_j past the trailing letter:
            #   e_top e_j = eps * e_j e_top + [e_top, e_j]
            stripped = _dec(mono, top)
            sign = A.eps.value(A.degree(top), A.degree(j))
            out = {}
            for m, c in (yield stripped, j).items():
                c = F.mul(c, sign)
                for m2, c2 in (yield m, top).items():
                    _acc(F, out, m2, F.mul(c, c2))
            for k, ck in A.bracket(top, j).items():
                for m2, c2 in (yield stripped, k).items():
                    _acc(F, out, m2, F.mul(ck, c2))
            return out
        b = _inc(mono, j)
        if not A.is_even(j) and b[j] == 2:
            # the square of an odd letter is half its self-bracket
            half = F.inv(F.embed(2))
            stripped = _dec(mono, j)
            out = {}
            for k, ck in A.bracket(j, j).items():
                ck = F.mul(half, ck)
                for m2, c2 in (yield stripped, k).items():
                    _acc(F, out, m2, F.mul(ck, c2))
            return out
        if self.caps is not None and b[j] == self.caps[j]:
            return (yield from self._cap(_zero_at(mono, j), j))
        return {b: self.one}

    def _cap(self, base, j):
        """Collapse a trailing run e_j^cap against the reduced relations;
        base is the monomial with the run removed."""
        A, F = self.A, self.F
        p = F.p
        spec = self.spec
        start = {base: self.one}
        if j in spec.J:
            # xi^(p s) = 1 - sum_{r<s} C(s,r) (-1)^(s-r) xi^(p r) (xi^[p])^(s-r)
            s = spec.s_of[j]
            pj = A.pmap.get(j, {})
            out = dict(start)
            for r in range(s):
                c_int = comb(s, r) % p
                if not c_int:
                    continue
                code = F.embed(c_int)
                if (s - r) % 2:
                    code = F.neg(code)
                cur = start
                for _ in range(p * r):
                    cur = yield from self._fold(cur, {j: self.one})
                for _ in range(s - r):
                    cur = yield from self._fold(cur, pj)
                for m, c in cur.items():
                    _acc(F, out, m, F.neg(F.mul(code, c)))
            return out
        out = {}
        for k, ck in A.pmap.get(j, {}).items():
            for m2, c2 in (yield base, k).items():
                _acc(F, out, m2, F.mul(ck, c2))
        lin = spec.linear_pow.get(j)
        if lin:
            _acc(F, out, base, lin)
        cls = spec.class_of.get(j)
        if cls is not None:
            cf = cls.c.get(j, 0)
            if cf:
                code = F.pow(cf, p)
                cur = start
                for _ in range(p):
                    cur = yield from self._fold(cur, {cls.xi: self.one})
                for m, c in cur.items():
                    _acc(F, out, m, F.mul(code, c))
                for k, ck in A.pmap.get(cls.xi, {}).items():
                    ck = F.mul(code, ck)
                    for m2, c2 in (yield base, k).items():
                        _acc(F, out, m2, F.neg(F.mul(ck, c2)))
        return out

    def _fold(self, vd, elem):
        """Generator for vd * elem, elem an algebra element {letter: code};
        it yields keys as _reduce does."""
        F = self.F
        out = {}
        for k, ck in elem.items():
            for m, c in vd.items():
                c = F.mul(c, ck)
                for m2, c2 in (yield m, k).items():
                    _acc(F, out, m2, F.mul(c, c2))
        return out

    def times_monomials(self, vd, monos):
        """The list of vd * m for the normal monomials m of monos.  Each
        product folds m's letters onto vd one at a time, and products whose
        leading runs of letters agree share the folds of that run: this
        call keeps every partial product, keyed by the exponent tuple of the
        letters folded so far (in the letter order, the tuple fixes the
        run).  Results may share maps, so callers must not mutate them."""
        done = {(0,) * self.A.dim: vd}
        out = []
        for mono in monos:
            cur = vd
            run = [0] * self.A.dim
            for j in self.letters(mono):
                run[j] += 1
                key = tuple(run)
                nxt = done.get(key)
                if nxt is None:
                    nxt = done[key] = self._run(self._fold(cur, {j: self.one}))
                cur = nxt
            out.append(cur)
        return out

    def product(self, t1, t2):
        F = self.F
        out = {}
        for c2, cur in zip(t2.values(), self.times_monomials(t1, t2)):
            for m, c in cur.items():
                _acc(F, out, m, F.mul(c, c2))
        return out


def _inc(mono, j):
    out = list(mono)
    out[j] += 1
    return tuple(out)


def _dec(mono, j):
    out = list(mono)
    out[j] -= 1
    return tuple(out)


def _zero_at(mono, j):
    out = list(mono)
    out[j] = 0
    return tuple(out)


def engine_for(algebra, spec=None, order=None):
    """The shared rewrite engine for (algebra, spec, letter order)."""
    host = spec if spec is not None else algebra
    cache = vars(host).setdefault("_engines", {})
    key = None if order is None else tuple(order)
    eng = cache.get(key)
    if eng is None:
        eng = cache[key] = _Engine(algebra, spec, order)
    return eng


# -- normal-form elements ------------------------------------------------------

class NormalElement:
    """A finite linear combination of normal monomials over one algebra and
    (optionally) one reduced spec.  Values are immutable by convention; all
    operations return fresh instances."""

    __slots__ = ("alg", "spec", "terms")

    def __init__(self, alg, spec, terms):
        self.alg = alg
        self.spec = spec
        self.terms = terms

    def _ctx(self, other):
        if self.alg is not other.alg or self.spec is not other.spec:
            raise MixedSpecs("operands come from different algebras or specs")

    def add(self, other):
        self._ctx(other)
        F = self.alg.F
        out = dict(self.terms)
        for m, c in other.terms.items():
            _acc(F, out, m, c)
        return NormalElement(self.alg, self.spec, out)

    def neg(self):
        F = self.alg.F
        return NormalElement(self.alg, self.spec,
                             {m: F.neg(c) for m, c in self.terms.items()})

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        F = self.alg.F
        if c == 0:
            return NormalElement(self.alg, self.spec, {})
        return NormalElement(self.alg, self.spec,
                             {m: F.mul(c, v) for m, v in self.terms.items()})

    def mul(self, other):
        return nf_product(self, other)

    def pow(self, k):
        out = nf_one(self.alg, self.spec)
        for _ in range(k):
            out = out.mul(self)
        return out

    def coeff(self, mono):
        return self.terms.get(tuple(mono), 0)

    def eq(self, other):
        self._ctx(other)
        return self.terms == other.terms

    def is_zero(self):
        return not self.terms

    def degree(self):
        """Common group degree of the monomials, None for 0 or mixed."""
        degs = {monomial_degree(self.alg, m) for m in self.terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def to_wire(self):
        F = self.alg.F
        return [[list(m), F.to_wire(c)]
                for m, c in sorted(self.terms.items())]

    @classmethod
    def from_wire(cls, alg, data, spec=None):
        F = alg.F
        out = {}
        for m, c in data:
            m = tuple(int(a) for a in m)
            _check_monomial(alg, spec, m)
            _acc(F, out, m, F.from_wire(c))
        return cls(alg, spec, out)

    def __repr__(self):
        if not self.terms:
            return "<nf 0>"
        bits = []
        for m, c in sorted(self.terms.items())[:6]:
            bits.append("%s*%s" % (c, _fmt_mono(self.alg, m)))
        if len(self.terms) > 6:
            bits.append("... %d terms" % len(self.terms))
        return "<nf %s>" % " + ".join(bits)


def _check_monomial(alg, spec, mono):
    if len(mono) != alg.dim:
        raise ValueError("exponent tuple has length %d, want %d"
                         % (len(mono), alg.dim))
    for i, a in enumerate(mono):
        if a < 0:
            raise ValueError("negative exponent at %s" % alg.names[i])
        if not alg.is_even(i) and a > 1:
            raise ValueError("odd letter %s cannot carry exponent %d"
                             % (alg.names[i], a))
        if spec is not None and a >= spec.caps[i]:
            raise ValueError("exponent %d at %s breaks the cap %d"
                             % (a, alg.names[i], spec.caps[i]))


def nf_one(alg, spec=None):
    return NormalElement(alg, spec, {(0,) * alg.dim: alg.F.embed(1)})


def nf_letter(alg, i, spec=None):
    return nf_from_element(alg, {i: alg.F.embed(1)}, spec)


def nf_monomial(alg, mono, spec=None):
    mono = tuple(int(a) for a in mono)
    _check_monomial(alg, spec, mono)
    return NormalElement(alg, spec, {mono: alg.F.embed(1)})


def nf_from_element(alg, x, spec=None):
    """Degree-one embedding of a sparse algebra element."""
    out = {}
    for i, c in x.items():
        if c:
            mono = [0] * alg.dim
            mono[i] = 1
            out[tuple(mono)] = c
    return NormalElement(alg, spec, out)


def nf_product(u, v):
    u._ctx(v)
    eng = engine_for(u.alg, u.spec)
    return NormalElement(u.alg, u.spec, eng.product(u.terms, v.terms))


# -- explicit central elements -------------------------------------------------

def central_check(A, i):
    """z = e_i^p - e_i^[p] in the full enveloping algebra, plus the list of
    basis indices j where z fails to eps-commute with e_j."""
    if not A.is_even(i):
        raise OddElement("x^p - x^[p] needs an even basis element")
    F = A.F
    p = F.p
    mono = [0] * A.dim
    mono[i] = p
    z = NormalElement(A, None, {tuple(mono): F.embed(1)})
    z = z.sub(nf_from_element(A, A.pmap.get(i, {})))
    pdeg = A.group.scale(p, A.degree(i))
    report = []
    for j in range(A.dim):
        y = nf_letter(A, j)
        sign = A.eps.value(pdeg, A.degree(j))
        if not z.mul(y).eq(y.mul(z).scale(sign)):
            report.append(j)
    return z, report


# -- the reduced basis and its bilinear form ------------------------------------

def uchi_basis(spec):
    """(dimension, iterator of capped exponent tuples) for the reduced
    quotient; the iterator runs in lexicographic order, last index fastest."""
    count = spec.dimension()
    gen = itertools.product(*[range(c) for c in spec.caps])
    return count, gen


def _basis_table(eng, mons, index, j, left=False):
    """Multiplication by the letter e_j on the reduced basis mons, flattened
    to arrays with one entry per term c m2 of m e_j (of e_j m when left):
    the row index[m2], the column index[m] and the digits of c.  Entries
    run column by column."""
    F = eng.F
    if left:
        x = {tuple(int(i == j) for i in range(eng.A.dim)): F.one}
        outs = eng.times_monomials(x, mons)
    else:
        outs = (eng.times_letter(m, j) for m in mons)
    rows, cols, coeffs = [], [], []
    for col, out in enumerate(outs):
        for m2, c in out.items():
            rows.append(index[m2])
            cols.append(col)
            coeffs.append(c)
    return (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
            F.codes_to_array(coeffs))


def _degree_classes(A, mons):
    """The distinct group degrees of the monomials and, per monomial, the
    index of its degree among them.  A degree is the exponents times the
    letters' degree vectors, mod the cyclic orders, read for all monomials
    in one product and told apart by its mixed-radix code."""
    orders = np.array(A.group.orders, dtype=np.int64)
    radix = np.cumprod(np.concatenate([[1], orders]))[:-1]
    letters = np.array(A.degrees, dtype=np.int64).reshape(A.dim, orders.size)
    code = (np.array(mons, dtype=np.int64) @ letters % orders) @ radix
    distinct = sorted(set(code.tolist()))
    classes = [tuple(d) for d in
               (np.array(distinct)[:, None] // radix % orders).tolist()]
    return classes, np.searchsorted(distinct, code)


def frobenius_gram(spec, max_dim=2000):
    """Gram matrix of the top-coefficient pairing mu(u, v) = coefficient of
    the profile monomial e^tau in nf(u v), over the full reduced basis.

    Returns a dict with the monomial list, tau, the Gram Mat, its rank, and
    the nondegeneracy / color-symmetry flags."""
    A = spec.algebra
    F = A.F
    count, it = uchi_basis(spec)
    if count > max_dim:
        raise TooLarge("reduced dimension %d exceeds the cutoff %d"
                       % (count, max_dim), dimension=count, cutoff=max_dim)
    mons = list(it)
    dim = count
    index = {m: t for t, m in enumerate(mons)}
    tau = tuple(c - 1 for c in spec.caps)
    eng = engine_for(A, spec)
    n = A.dim

    # mu(m_u, m_v) = (R_{l_1}^T ... R_{l_r}^T e_tau)[u] for v's letters
    # l_1 <= ... <= l_r, R_j the right multiplication by e_j.  Column v of G
    # is that covector.  The monomials with exponents only on letters after
    # i are the first stride_i columns (the last letter runs fastest), so
    # one level of the exponent tree turns that block into the next
    # cap_i - 1 blocks, R_i^T at a time.
    G = np.zeros((dim, dim, F.k), dtype=np.int64)
    G[index[tau], 0] = F.to_digits(F.one)
    stride = 1
    for i in range(n - 1, -1, -1):
        rows, cols, coeffs = _basis_table(eng, mons, index, i)
        for t in range(1, spec.caps[i]):
            src = G[:, (t - 1) * stride:t * stride]
            dst = t * stride
            # only the entries whose row is nonzero in the block contribute;
            # a zero block stays zero under further powers
            keep = src.any(axis=(1, 2))[rows]
            r, c, cf = rows[keep], cols[keep], coeffs[keep, None]
            if not r.size:
                break
            starts = np.flatnonzero(np.diff(c, prepend=-1))
            width = max(1, _SLAB // r.size)
            for c0 in range(0, stride, width):
                c1 = min(stride, c0 + width)
                prod = digit_product(F, cf, src[r, c0:c1], np.multiply)
                G[c[starts], dst + c0:dst + c1] = (
                    np.add.reduceat(prod, starts, axis=0) % F.p)
        stride *= spec.caps[i]

    gram = Mat(F, G)
    rank = gram.rank()

    # G[u, v] = eps(deg u, deg v) G[v, u] for u <= v, eps read once per
    # pair of degree classes
    classes, cls = _degree_classes(A, mons)
    eps = F.codes_to_array([[A.eps.value(a, b) for b in classes]
                            for a in classes])
    symmetric = True
    step = max(1, _SLAB // dim)
    for r0 in range(0, dim, step):
        r1 = min(dim, r0 + step)
        swapped = digit_product(F, eps[cls[r0:r1, None], cls],
                                G[:, r0:r1].swapaxes(0, 1), np.multiply)
        bad = nonzero_digits(G[r0:r1] != swapped)
        if (bad & (np.arange(dim) >= np.arange(r0, r1)[:, None])).any():
            symmetric = False
            break
    return {
        "dimension": dim,
        "monomials": mons,
        "tau": tau,
        "gram": gram,
        "rank": rank,
        "nondegenerate": rank == dim,
        "color_symmetric": symmetric,
    }


# -- Cartan projection ----------------------------------------------------------

def require_standard(spec):
    """Triangular data of the spec's algebra, once the spec's character is
    known to be standard semisimple: Cartan values only, no power classes.
    The Cartan read-off and the route built on it are exact only then."""
    A = spec.algebra
    tri = A.triangular
    if tri is None:
        raise NoMatrixRealization("the Cartan read-off needs triangular data")
    cartan = set(tri.cartan)
    if spec.J or any(c and i not in cartan
                     for i, c in spec.chi.linear.items()):
        raise NotStandard("character must be standard semisimple "
                          "(Cartan values only, no power classes)")
    return tri


def monomial_weight(A, mono):
    """Integral Cartan weight of a monomial: sum of its letters' roots with
    multiplicity (Cartan letters weigh nothing)."""
    tri = A.triangular
    tot = [0] * len(tri.cartan)
    for i, a in enumerate(mono):
        root = tri.roots.get(i) if a else None
        if root is not None:
            for k, r in enumerate(root):
                tot[k] += a * r
    return tuple(tot)


def harish_chandra(u, spec=None):
    """Cartan-exponent read-off of a weight-zero element of a reduced
    quotient with standard semisimple character.

    Every discarded monomial is certified to carry at least one positive and
    one negative exponent (so it sits in the ideal spanned by the weight-zero
    part of u N+); a monomial that is weight zero only modulo p fails that
    certificate and is reported instead of silently projected."""
    if u.spec is None:
        raise ValueError("harish_chandra needs an element of a reduced quotient")
    if spec is not None and spec is not u.spec:
        raise MixedSpecs("element was built over a different reduced spec")
    spec = u.spec
    A = spec.algebra
    tri = require_standard(spec)
    p = A.F.p
    kept = {}
    for mono, c in u.terms.items():
        tot = monomial_weight(A, mono)
        if any(x % p for x in tot):
            raise NotWeightZero("monomial %s has weight %r on the Cartan"
                                % (_fmt_mono(A, mono), tot))
        has_pos = any(mono[i] for i in tri.pos)
        has_neg = any(mono[i] for i in tri.neg)
        if not (has_pos or has_neg):
            kept[mono] = c
        elif not (has_pos and has_neg):
            raise NotWeightZero(
                "monomial %s is weight zero only modulo p; the Cartan "
                "read-off is not certified for it" % _fmt_mono(A, mono))
    return NormalElement(A, spec, kept)
