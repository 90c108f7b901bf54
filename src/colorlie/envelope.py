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

Plain appends and diagonal letters skip the rewriting (see _Engine).  The
same engine runs with a permuted letter order (engine_for(..., order=))
so that induced modules can push non-induced letters to the right.
"""

import itertools
from math import comb, prod

import numpy as np

from .errors import (MixedSpecs, NoMatrixRealization, NotStandard,
                     NotWeightZero, OddElement)
from .field import _SLAB, _require_cells, digit_product, nonzero_digits
from .linalg import Mat


def _axpy(F, out, c, src):
    """out += c * src for sparse maps {key: code}, with the field's tables
    read once for the map; a term that cancels is dropped."""
    if not c:
        return
    if not out and c == F.one:
        out.update(src)
        return
    add, mul = F.tables
    get = out.get
    for m, v in src.items():
        cur = get(m)
        if cur is None:
            out[m] = mul[c, v]
        elif v := add[cur, mul[c, v]]:
            out[m] = v
        else:
            del out[m]


def monomial_degree(A, mono):
    """Group degree of a monomial: sum of letter degrees with multiplicity."""
    g = A.group
    acc = g.zero
    for i, a in enumerate(mono):
        if a:
            acc = g.add(acc, g.scale(a, A.degree(i)))
    return acc


def _fmt_mono(A, mono):
    return ".".join(A.names[i] if a == 1 else "%s^%d" % (A.names[i], a)
                    for i, a in enumerate(mono) if a) or "1"


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
        self.linear_pow = {i: F.pow(c, p) for i, c in chi.linear.items() if c}
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
    of a chain never reaches the interpreter's recursion limit.  Products
    in the memo, plain appends and diagonal letters (_known) take no
    generator.  A diagonal letter e_j (even, degree zero, [e_l, e_j] =
    c_l e_l for all l) moves past each letter l ranked after it for c_l
    times the monomial: mono.e_j = inc(mono, j) + (sum of mono[l] c_l)
    mono, the commutation rule's map in the same term order."""

    def __init__(self, algebra, spec=None, order=None):
        self.A = A = algebra
        self.F = algebra.F
        self.spec = spec
        self.caps = spec.caps if spec is not None else None
        n = algebra.dim
        order = list(range(n) if order is None else order)
        if sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of the basis indices")
        self.order = order
        self.rank = [order.index(i) for i in range(n)]
        self.one = self.F.embed(1)
        self._memo = {}
        # eps, parities, brackets, letter order reversed and after each letter
        self._eps = [[A.eps.value(a, b) for b in A.degrees] for a in A.degrees]
        self._odd = [not A.is_even(i) for i in range(n)]
        # the exponent that ends a plain append: odd square or cap
        self._stop = [2 if self._odd[i] else self.caps[i] if self.caps else 0
                      for i in range(n)]
        self._brk = [[A.bracket(i, j) for j in range(n)] for i in range(n)]
        self._desc = order[::-1]
        self._after = [order[self.rank[j] + 1:] for j in range(n)]
        self._diag = {j: [self._brk[l][j].get(l, 0) for l in range(n)]
                      for j in range(n) if A.degree(j) == A.group.zero
                      and all(set(self._brk[j][l]) <= {l} for l in range(n))}

    def times_letter(self, mono, j):
        """Normal form of (normal monomial) * e_j as a {monomial: code} map."""
        out = self._known(mono, j)
        return self._run((mono, j)) if out is None else out

    def _known(self, mono, j):
        """mono * e_j from the memo, or computed and memoized when it needs
        no other product; None when it must be reduced."""
        out = self._memo.get((mono, j))
        if out is not None:
            return out
        diag, s = self._diag.get(j), 0
        add, mul = self.F.tables
        for l in self._after[j]:
            if mono[l]:
                if diag is None:
                    return None
                s = add[s, mul[mono[l] % self.F.p, diag[l]]]
        b = _bump(mono, j, 1)
        if b[j] == self._stop[j]:
            return None
        out = {b: self.one, mono: s} if s else {b: self.one}
        self._memo[mono, j] = out
        return out

    def _run(self, key):
        """Reduce key = (mono, j) on an explicit stack of generators,
        memoizing the result of each."""
        memo = self._memo
        stack = [(key, self._reduce(*key))]
        out = None
        while stack:
            key, gen = stack[-1]
            try:
                need = gen.send(out)
            except StopIteration as done:
                out = memo[key] = done.value
                stack.pop()
                continue
            out = memo.get(need)
            if out is None:
                stack.append((need, self._reduce(*need)))
        return out

    def _reduce(self, mono, j):
        """Generator behind times_letter: yields the keys it depends on."""
        F, known = self.F, self._known
        top = -1
        for i in self._desc:
            if mono[i]:
                top = i
                break
        if top >= 0 and self.rank[top] > self.rank[j]:
            # commute e_j past the trailing letter:
            #   e_top e_j = eps * e_j e_top + [e_top, e_j]
            stripped = _bump(mono, top, -1)
            head = known(stripped, j)
            if head is None:
                head = yield stripped, j
            sign, out = self._eps[top][j], {}
            for m, c in head.items():
                src = known(m, top)
                if src is None:
                    src = yield m, top
                _axpy(F, out, F.tables[1][c, sign], src)
            for k, ck in self._brk[top][j].items():
                src = known(stripped, k)
                if src is None:
                    src = yield stripped, k
                _axpy(F, out, ck, src)
            return out
        b = _bump(mono, j, 1)
        if self._odd[j] and b[j] == 2:
            # the square of an odd letter is half its self-bracket
            half = F.inv(F.embed(2))
            return (yield from self._fold(
                {_bump(mono, j, -1): self.one},
                {k: F.mul(half, ck) for k, ck in self._brk[j][j].items()}))
        if self.caps is not None and b[j] == self.caps[j]:
            return (yield from self._cap(_bump(mono, j, -mono[j]), j))
        return {b: self.one}

    def _cap(self, base, j):
        """Collapse a trailing run e_j^cap against the reduced relations;
        base is the monomial with the run removed."""
        A, F, spec = self.A, self.F, self.spec
        p = F.p
        start = {base: self.one}
        if j in spec.J:
            # xi^(p s) = 1 - sum_{r<s} C(s,r) (-1)^(s-r) xi^(p r) (xi^[p])^(s-r)
            s = spec.s_of[j]
            pj = A.pmap.get(j, {})
            out = dict(start)
            for r in range(s):
                code = F.embed(-comb(s, r) * (-1) ** (s - r))
                if not code:
                    continue
                cur = start
                for _ in range(p * r):
                    cur = yield from self._fold(cur, {j: self.one})
                for _ in range(s - r):
                    cur = yield from self._fold(cur, pj)
                _axpy(F, out, code, cur)
            return out
        out = yield from self._fold(start, A.pmap.get(j, {}))
        _axpy(F, out, spec.linear_pow.get(j, 0), start)
        cls = spec.class_of.get(j)
        if cls is not None and cls.c.get(j, 0):
            code = F.pow(cls.c[j], p)
            cur = start
            for _ in range(p):
                cur = yield from self._fold(cur, {cls.xi: self.one})
            _axpy(F, out, code, cur)
            yield from self._fold(start, {
                k: F.neg(F.mul(code, ck))
                for k, ck in A.pmap.get(cls.xi, {}).items()}, out)
        return out

    def _fold(self, vd, elem, out=None):
        """Generator for out + vd * elem (out defaults to 0), elem an
        algebra element {letter: code}; it yields keys as _reduce does."""
        F, known = self.F, self._known
        out = {} if out is None else out
        for k, ck in elem.items():
            for m, c in vd.items():
                src = known(m, k)
                if src is None:
                    src = yield m, k
                _axpy(F, out, F.tables[1][c, ck], src)
        return out

    def times_monomials(self, vd, monos):
        """The list of vd * m for the normal monomials m of monos.  Each
        product folds m's letters onto vd one at a time, and products whose
        leading runs of letters agree share the folds of that run: this
        call keeps every partial product, keyed by the exponent tuple of the
        letters folded so far (in the letter order, the tuple fixes the
        run), and walks back from each monomial to its longest kept run.
        Results may share maps, so callers must not mutate them."""
        F, memo = self.F, self._memo
        done = {(0,) * self.A.dim: vd}
        out = []
        for mono in monos:
            cur = done.get(tuple(mono))
            if cur is None:
                run, back = list(mono), []
                while cur is None:
                    for i in self._desc:
                        if run[i]:
                            break
                    run[i] -= 1
                    back.append(i)
                    cur = done.get(tuple(run))
                for j in reversed(back):
                    run[j] += 1
                    nxt = {}
                    for m, c in cur.items():
                        _axpy(F, nxt, c, memo.get((m, j))
                              or self.times_letter(m, j))
                    cur = done[tuple(run)] = nxt
            out.append(cur)
        return out

    def product(self, t1, t2):
        out = {}
        for c2, cur in zip(t2.values(), self.times_monomials(t1, t2)):
            _axpy(self.F, out, c2, cur)
        return out


def _bump(mono, j, d):
    """The exponent tuple mono with d added at j."""
    out = list(mono)
    out[j] += d
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
        out = dict(self.terms)
        _axpy(self.alg.F, out, self.alg.F.one, other.terms)
        return NormalElement(self.alg, self.spec, out)

    def neg(self):
        return self.scale(self.alg.F.neg(self.alg.F.one))

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        out = {}
        _axpy(self.alg.F, out, c, self.terms)
        return NormalElement(self.alg, self.spec, out)

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
        return degs.pop() if len(degs) == 1 else None

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
            _axpy(F, out, F.from_wire(c), {m: F.one})
        return cls(alg, spec, out)

    def __repr__(self):
        if not self.terms:
            return "<nf 0>"
        bits = ["%s*%s" % (c, _fmt_mono(self.alg, m))
                for m, c in sorted(self.terms.items())[:6]]
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
    return NormalElement(alg, spec, {_bump((0,) * alg.dim, i, 1): c
                                     for i, c in x.items() if c})


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
    z = NormalElement(A, None, {_bump((0,) * A.dim, i, p): F.embed(1)})
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
    return spec.dimension(), itertools.product(*[range(c) for c in spec.caps])


def _flatten(F, index, outs):
    """Rows, columns and coefficient digits of the products outs, the t-th
    product in column t."""
    return (np.array([index[m] for out in outs for m in out], dtype=np.int64),
            np.repeat(np.arange(len(outs)), [len(out) for out in outs]),
            F.codes_to_array([c for out in outs for c in out.values()]))


def _basis_table(eng, mons, index, j, left=False):
    """Multiplication by the letter e_j on the reduced basis mons, flattened
    to arrays with one entry per term c m2 of m e_j (of e_j m when left):
    the row index[m2], the column index[m] and the digits of c.  Entries
    run column by column; no (row, column) pair repeats and no c is zero.

    The left tables fold e_j onto every monomial, sharing prefixes
    (times_monomials).  The right tables need mons to be the whole reduced
    basis in uchi_basis order and eng the spec's engine in the default
    letter order, whose first letter is e_0.  Write m = e_0^a m', m' free of
    e_0: the m' are the first stride = dim / cap_0 monomials, and m has
    index a * stride + index[m'].  Then m e_j = e_0^a (m' e_j), so only the
    m' go through the engine.  A term c e_0^b x' of m' e_j (x' free of e_0)
    gives c e_0^(a+b) x', a normal monomial while a + b < cap_0: its row
    and column move by a * stride.  At or over the cap it gives
    c Z_(a+b) x', Z_k the normal form of e_0^k (zero or a scalar at the gl
    root letters); a Z_k made of powers of e_0 only shifts and scales,
    any other goes through the engine.  Entries that meet at one (row,
    column) are summed and zero sums dropped."""
    F = eng.F
    if left:
        return _flatten(F, index, eng.times_monomials(
            {_bump((0,) * eng.A.dim, j, 1): F.one}, mons))
    dim, cap = len(mons), eng.caps[0]
    stride = dim // cap
    row, col, val = _flatten(F, index,
                             [eng.times_letter(m, j) for m in mons[:stride]])
    low, rest = np.divmod(row, stride)  # e_0 exponent b, and index of x'
    power = np.arange(cap)[:, None] + low  # a + b for every a and term
    below = power < cap
    shift = np.arange(cap)[:, None] * stride
    rows, cols = [(row + shift)[below]], [(col + shift)[below]]
    vals = [np.broadcast_to(val, power.shape + (F.k,))[below]]
    over = np.flatnonzero(~below.ravel())
    a, t = np.divmod(over, row.size)  # the shift and the term of each
    k = power.ravel()[over]
    e0 = _bump((0,) * eng.A.dim, 0, 1)
    z = {_bump(e0, 0, cap - 2): F.one}  # e_0^(cap-1), raised to Z_cap first
    for kk in range(cap, int(k.max(initial=cap - 1)) + 1):
        z = eng.product(z, {e0: F.one})
        hit = np.flatnonzero(k == kk)
        if not z or not hit.size:
            continue
        x, c, at = rest[t[hit]], val[t[hit]], col[t[hit]] + a[hit] * stride
        if all(not any(m[1:]) for m in z):
            for m, cz in z.items():
                rows.append(m[0] * stride + x)
                cols.append(at)
                vals.append(digit_product(F, c, F.codes_to_array(cz),
                                          np.multiply))
            continue
        xs = sorted(set(x.tolist()))
        flat = {y: _flatten(F, index, [out]) for y, out in zip(
            xs, eng.times_monomials(z, [mons[y] for y in xs]))}
        for y, cy, aty in zip(x.tolist(), c, at.tolist()):
            r2, _, v2 = flat[y]
            rows.append(r2)
            cols.append(np.full(r2.size, aty))
            vals.append(digit_product(F, v2, cy, np.multiply))
    key = np.concatenate(cols) * dim + np.concatenate(rows)
    order = np.argsort(key, kind="stable")
    key = key[order]
    head = np.flatnonzero(np.diff(key, prepend=-1))
    sums = np.add.reduceat(np.concatenate(vals)[order], head, axis=0) % F.p
    live = nonzero_digits(sums)
    return key[head[live]] % dim, key[head[live]] // dim, sums[live]


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


def _color_symmetric(A, mons, keys, vals):
    """Whether G[u, v] = eps(deg u, deg v) G[v, u] for u <= v, from G's
    nonzero entries (keys column * dim + row, ascending; vals the digits):
    those on and above the diagonal, keyed u * dim + v, equal those of
    eps . G^T, read off the ones on and below it, key for key and value
    for value."""
    F, dim = A.F, len(mons)
    classes, cls = _degree_classes(A, mons)
    eps = F.codes_to_array([[A.eps.value(a, b) for b in classes]
                            for a in classes])
    row, col = keys % dim, keys // dim
    up, low = col >= row, col <= row
    mine = row[up] * dim + col[up]
    order = np.argsort(mine)
    mirror = digit_product(F, eps[cls[col[low]], cls[row[low]]], vals[low],
                           np.multiply)
    return (np.array_equal(mine[order], keys[low])
            and np.array_equal(vals[up][order], mirror))


def frobenius_gram(spec):
    """Gram matrix of the top-coefficient pairing mu(u, v) = coefficient of
    the profile monomial e^tau in nf(u v), over the full reduced basis.

    mu(m_u, m_v) = (R_{l_1}^T ... R_{l_r}^T e_tau)[u] for v's letters
    l_1 <= ... <= l_r, R_j the right multiplication by e_j, whose table
    `_basis_table` builds from the first letter's stride alone.  The last
    letter runs fastest, so the monomials with exponents only on letters
    after i are the first stride_i columns, and R_i^T turns that block into
    the next cap_i - 1 blocks, one by one.  The walk keeps G's nonzero
    entries, keyed column * dim + row: each step joins a block with the
    letter's table grouped by row and sums each key's digit products, in
    slabs of whole source columns of at most _SLAB products (unless one
    column has more).  A slab's output columns are its own, so it is
    summed alone.  The rank of G peels its structural pivots before
    any elimination (`Mat.rank`).  The dense G is checked against the cell
    budget before the monomials are listed.

    Returns a dict with the monomial list, tau, the Gram Mat, its rank, and
    the nondegeneracy / color-symmetry flags."""
    A, F = spec.algebra, spec.algebra.F
    dim, it = uchi_basis(spec)
    _require_cells(dim * dim * F.k, "the Gram matrix")
    mons = list(it)
    index = {m: t for t, m in enumerate(mons)}
    tau = tuple(c - 1 for c in spec.caps)
    eng = engine_for(A, spec)
    keys, vals = np.array([index[tau]]), F.codes_to_array([F.one])
    stride = 1
    for i in range(A.dim - 1, -1, -1):
        rows, cols, coeffs = _basis_table(eng, mons, index, i)
        by_row = np.argsort(rows, kind="stable")
        cols, coeffs = cols[by_row], coeffs[by_row]
        size = np.bincount(rows, minlength=dim)
        blocks = [(keys, vals)]
        for _ in range(1, spec.caps[i]):
            src, sv = blocks[-1]
            row = src % dim
            fan = size[row]
            start = np.cumsum(fan) - fan
            at0 = (np.cumsum(size) - size)[row] - start
            # the first entry and the first product of each source column
            cut = np.append(np.flatnonzero(np.diff(src // dim, prepend=-1)),
                            src.size)
            edge = np.append(start, fan.sum())[cut]
            if not edge[-1]:
                break  # a zero block stays zero under further powers
            out, a = [], 0
            while a < cut.size - 1:
                b = max(a + 1, np.searchsorted(edge, edge[a] + _SLAB,
                                               "right") - 1)
                hit = np.repeat(np.arange(cut[a], cut[b]), fan[cut[a]:cut[b]])
                at = at0[hit] + np.arange(edge[a], edge[b])
                key = src[hit] - row[hit] + stride * dim + cols[at]
                order = np.argsort(key)
                head = np.flatnonzero(np.diff(key[order], prepend=-1))
                prod = digit_product(F, coeffs[at], sv[hit], np.multiply)
                sums = np.add.reduceat(prod[order], head, axis=0) % F.p
                live = nonzero_digits(sums)
                out.append((key[order[head[live]]], sums[live]))
                a = b
            blocks.append(tuple(np.concatenate(x) for x in zip(*out)))
        keys, vals = (np.concatenate(x) for x in zip(*blocks))
        stride *= spec.caps[i]
    G = np.zeros((dim, dim, F.k), dtype=np.int64)  # dense once, for the rank
    G[keys % dim, keys // dim] = vals
    gram = Mat(F, G)
    rank = gram.rank()
    return {"dimension": dim, "monomials": mons, "tau": tau, "gram": gram,
            "rank": rank, "nondegenerate": rank == dim,
            "color_symmetric": _color_symmetric(A, mons, keys, vals)}


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
