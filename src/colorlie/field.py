"""Exact arithmetic in F_{p^k}.

Scalars are integer codes in [0, p^k): the little-endian base-p digits of a
code are the coefficients of the residue polynomial modulo the stored
irreducible modulus.  That digit vector is also the wire format used by the
CLI.  Small fields get full add/mul/neg/inv lookup tables so bulk code stays
cheap.  `digit_product` is the one routine that multiplies arrays of digit
vectors: it fills the multiplication table, multiplies scalars of fields too
large for tables, and serves every product in the linear algebra layer.
Over a tabled extension field an entrywise product is one lookup in a
digit table of products: its operands must hold digits reduced mod p.
"""

import numpy as np

from .errors import BadCharacteristic, NonPrime, ReducibleModulus, TooLarge

LUT_LIMIT = 2048  # build full q x q tables only below this size

# entries per digit-array product in slabbed loops (the Gram walk, the
# axiom checks): bounds the scratch arrays whatever the dimension
_SLAB = 1 << 16
# digit cells of any one array the library allocates whole (a plan, a
# module's blocks, dense letters, a Gram matrix): 16 x 2000^2 x 2 fit
_CELLS = 1 << 27


def _require_cells(cells, what, cutoff=None):
    """TooLarge when an array of cells digit cells, about to be allocated,
    exceeds cutoff (by default the budget _CELLS, read at the call)."""
    cutoff = _CELLS if cutoff is None else cutoff
    if cells > cutoff:
        raise TooLarge("%s of %d cells exceed the cutoff %d"
                       % (what, cells, cutoff), cells=int(cells),
                       cutoff=int(cutoff))


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def digit_product(F, A, B, op):
    """Product of two F_q digit arrays under the bilinear numpy op.

    np.multiply over a tabled field with k > 1 reads the (q^2, k) digit
    table of products at code(A) * q + code(B), digits in [0, p).
    Otherwise the op runs on each pair of base-p digit planes, A[..., i] with
    B[..., j], read as views of the operands (which may themselves be
    transposed, strided or sliced views); the results are summed by degree
    i + j, the degrees >= k are folded back down with the little-endian
    monic modulus, and the k low degrees are reduced mod p into the digit
    planes of one new int64 array.  np.matmul runs through float64 BLAS on
    operands cast to float64 once, exact because each accumulated sum stays
    below (p-1)^2 * inner-dim * k << 2^53; other ops (np.multiply,
    np.multiply.outer) run in int64."""
    p, k = F.p, F.k
    if op is np.multiply and F._mul_digits is not None:
        codes = F.array_to_codes(A) * F.q + F.array_to_codes(B)
        return np.take(F._mul_digits, codes, axis=0).astype(np.int64)
    if op is np.matmul:
        A = A.astype(np.float64)
        B = B.astype(np.float64)
    conv = [None] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            prod = op(A[..., i], B[..., j])
            d = i + j
            if conv[d] is None:
                conv[d] = prod
            else:
                conv[d] += prod
    conv = [c.astype(np.int64, copy=False) for c in conv]
    for d in range(2 * k - 2, k - 1, -1):
        high = conv[d] % p
        for j in range(k):
            m = F.modulus[j]
            if m:
                conv[d - k + j] -= m * high
    out = np.empty(conv[0].shape + (k,), dtype=np.int64)
    for d in range(k):
        np.remainder(conv[d], p, out=out[..., d])
    return out


def nonzero_digits(a):
    """Whether each digit vector of the (..., k) array a is nonzero, as the
    OR of its k digit planes: numpy reduces a short trailing axis slowly
    (a.any(axis=-1) on a (250, 125, 2) stack takes ten times as long)."""
    out = a[..., 0] != 0
    for d in range(1, a.shape[-1]):
        out |= a[..., d] != 0
    return out


def digit_power(F, A, e, op):
    """A^e for e >= 1 under the product op of `digit_product` (np.multiply
    for entrywise powers, np.matmul for matrix powers), by repeated
    squaring."""
    out = A
    for bit in bin(e)[3:]:
        out = digit_product(F, out, out, op)
        if bit == "1":
            out = digit_product(F, out, A, op)
    return out


class _Entries:
    """A scalar operation of a field without tables, indexed like one."""

    def __init__(self, op):
        self.op = op

    def __getitem__(self, ab):
        return self.op(*ab)


class Field:
    """F_{p^k} with int-code scalars and an explicit little-endian modulus."""

    def __init__(self, p, k=1, modulus=None):
        if not _is_prime(p):
            raise NonPrime("p = %r is not prime" % (p,))
        if p <= 3:
            raise BadCharacteristic("characteristic must exceed 3, got %d" % p)
        if k < 1:
            raise BadCharacteristic("extension degree must be >= 1, got %d" % k)
        self.p = p
        self.k = k
        self.q = p ** k
        if modulus is None:
            modulus = self._find_modulus(p, k)
        else:
            modulus = [c % p for c in modulus]
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ReducibleModulus("modulus must be monic of degree exactly %d" % k)
            if k > 1 and not Field(p).poly_irreducible(modulus):
                raise ReducibleModulus("modulus %r is reducible over F_%d" % (modulus, p))
        self.modulus = tuple(modulus)
        self.zero = 0
        self.one = 1
        self._powers = [p ** i for i in range(k)]
        self._build_tables()

    @staticmethod
    def _find_modulus(p, k):
        # lexicographically first monic irreducible, scanning the little-endian
        # lower-coefficient vector as a base-p counter
        if k == 1:
            return [0, 1]
        Fp = Field(p)
        for code in range(p ** k):
            f = [(code // p ** i) % p for i in range(k)] + [1]
            if Fp.poly_irreducible(f):
                return f
        raise ReducibleModulus("no irreducible polynomial found")  # unreachable

    # -- scalar codec ------------------------------------------------------

    def to_digits(self, a):
        return tuple((a // pw) % self.p for pw in self._powers)

    def from_digits(self, digits):
        if len(digits) != self.k:
            raise ValueError("expected %d digits, got %r" % (self.k, digits))
        return sum((int(d) % self.p) * pw for d, pw in zip(digits, self._powers))

    def to_wire(self, a):
        return list(self.to_digits(a))

    def from_wire(self, lst):
        return self.from_digits(lst)

    def embed(self, n):
        """Image of the rational integer n in the prime field."""
        return int(n) % self.p

    def elements(self):
        return range(self.q)

    # -- arithmetic --------------------------------------------------------

    def _build_tables(self):
        q, k = self.q, self.k
        # tables = (add, mul), both read t[a, b]; computed above LUT_LIMIT
        if q > LUT_LIMIT:
            self._add = self._mul = self._neg = self._inv = None
            self._inv_digits = self._mul_digits = None
            self.tables = (_Entries(self.add), _Entries(self.mul))
            return
        digits = self.codes_to_array(np.arange(q))
        # blocks of rows of about 2^16 cells keep the digit planes small;
        # the digits of every product fit int8 for k > 1 (then p <= 45),
        # and every code, below LUT_LIMIT, fits int16
        add = np.empty((q, q), dtype=np.int16)
        mul = np.empty((q, q), dtype=np.int16)
        prods = np.empty((q, q, k), dtype=np.int8 if k > 1 else np.int64)
        step = max(1, 2 ** 16 // q)
        for s in range(0, q, step):
            rows = digits[s:s + step]
            add[s:s + step] = self.array_to_codes((rows[:, None] + digits) % self.p)
            prods[s:s + step] = digit_product(self, rows, digits, np.multiply.outer)
            mul[s:s + step] = self.array_to_codes(prods[s:s + step])
        neg = np.argmax(add == 0, axis=1).astype(np.int16)
        # row 0 has no 1: inv[0] = 0
        inv = np.argmax(mul == 1, axis=1).astype(np.int16)
        self._inv_digits = digits[inv]  # (q, k): the inverse's digits
        self._mul_digits = prods.reshape(q * q, k) if k > 1 else None
        # the scalar methods read the tables through zero-copy memoryviews,
        # whose items are plain ints: no numpy scalar is made per call
        self._add, self._mul, self._neg, self._inv = (
            memoryview(t) for t in (add, mul, neg, inv))
        self.tables = (self._add, self._mul)

    def add(self, a, b):
        if self._add is not None:
            return self._add[a, b]
        return self.from_digits([(x + y) % self.p
                                 for x, y in zip(self.to_digits(a), self.to_digits(b))])

    def neg(self, a):
        if self._neg is not None:
            return self._neg[a]
        return self.from_digits([(-x) % self.p for x in self.to_digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self._mul is not None:
            return self._mul[a, b]
        a, b = np.array(self.to_digits(a)), np.array(self.to_digits(b))
        return int(self.array_to_codes(digit_product(self, a, b, np.multiply)))

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.q)
        if self._inv is not None:
            return self._inv[a]
        return self.pow(a, self.q - 2)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        e = int(e)
        if e < 0:
            a, e = self.inv(a), -e
        result = self.one
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def frobenius(self, a):
        return self.pow(a, self.p)

    def pth_root(self, a):
        # Frobenius has order k, so a^(p^(k-1)) is the unique p-th root
        return self.pow(a, self.p ** (self.k - 1))

    def trace_to_prime(self, a):
        t = 0
        x = a
        for _ in range(self.k):
            t = self.add(t, x)
            x = self.frobenius(x)
        return t

    def artin_schreier_solutions(self, c):
        """All a with a^p - a = c (either empty or a coset of F_p), in
        increasing code order, from one pass over the whole field."""
        a = self.codes_to_array(np.arange(self.q))
        lhs = self.array_to_codes((self.pow_array(a, self.p) - a) % self.p)
        return [int(x) for x in np.flatnonzero(lhs == c)]

    # -- numpy digit-array helpers (used by the linear algebra layer) ------

    def codes_to_array(self, rows):
        """list-of-lists of codes -> (r, c, k) digit array"""
        arr = np.asarray(rows, dtype=np.int64)
        out = np.stack([(arr // pw) % self.p for pw in self._powers], axis=-1)
        return out

    def array_to_codes(self, arr):
        """(..., k) digit array -> (...) codes, one product with the p^i"""
        return arr @ np.array(self._powers)

    def pow_array(self, arr, e):
        """a^e for every digit vector a of an array (..., k), e >= 0, every
        step of the repeated squaring one `digit_product` over the array."""
        if e:
            return digit_power(self, arr, e, np.multiply)
        return self.codes_to_array(np.ones(arr.shape[:-1], dtype=np.int64))

    def inv_array(self, arr):
        """Inverses of an array (..., k) of nonzero digit vectors: the rows
        of the (q, k) digit table of inverses at the vectors' codes when the
        field has tables, otherwise a^(q-2)."""
        if self._inv_digits is not None:
            return self._inv_digits[self.array_to_codes(arr)]
        return self.pow_array(arr, self.q - 2)

    # -- polynomial utilities over this field (little-endian code lists) ---

    def poly_trim(self, f):
        f = list(f)
        while f and f[-1] == 0:
            f.pop()
        return f

    def poly_add(self, f, g):
        n = max(len(f), len(g))
        f = list(f) + [0] * (n - len(f))
        g = list(g) + [0] * (n - len(g))
        return self.poly_trim([self.add(a, b) for a, b in zip(f, g)])

    def poly_scale(self, f, c):
        return self.poly_trim([self.mul(a, c) for a in f])

    def poly_mul(self, f, g):
        if not f or not g:
            return []
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a:
                for j, b in enumerate(g):
                    out[i + j] = self.add(out[i + j], self.mul(a, b))
        return self.poly_trim(out)

    def poly_divmod(self, f, g):
        f = self.poly_trim(f)
        g = self.poly_trim(g)
        if not g:
            raise ZeroDivisionError("polynomial division by zero")
        quot = [0] * max(0, len(f) - len(g) + 1)
        inv_lead = self.inv(g[-1])
        rem = list(f)
        while len(rem) >= len(g) and rem:
            c = self.mul(rem[-1], inv_lead)
            d = len(rem) - len(g)
            quot[d] = c
            for i in range(len(g)):
                rem[d + i] = self.sub(rem[d + i], self.mul(c, g[i]))
            rem = self.poly_trim(rem)
        return quot, rem

    def poly_gcd(self, f, g):
        f, g = self.poly_trim(f), self.poly_trim(g)
        while g:
            f, g = g, self.poly_divmod(f, g)[1]
        if f:
            f = self.poly_scale(f, self.inv(f[-1]))
        return f

    def poly_powmod(self, f, e, mod):
        result = [1]
        base = self.poly_divmod(f, mod)[1]
        while e:
            if e & 1:
                result = self.poly_divmod(self.poly_mul(result, base), mod)[1]
            base = self.poly_divmod(self.poly_mul(base, base), mod)[1]
            e >>= 1
        return result

    def poly_irreducible(self, f):
        """Rabin's test for a monic f of degree k >= 2 over this field:
        x^(q^k) = x mod f, and gcd(x^(q^(k/r)) - x, f) = 1 for every prime
        r dividing k."""
        k = len(f) - 1

        def frobenius_minus_x(n):  # x^(q^n) - x mod f
            t = [0, 1]
            for _ in range(n):
                t = self.poly_powmod(t, self.q, f)
            return self.poly_add(t, [0, self.neg(1)])

        if frobenius_minus_x(k):
            return False
        return all(len(self.poly_gcd(frobenius_minus_x(k // r), f)) == 1
                   for r in range(2, k + 1) if k % r == 0 and _is_prime(r))

    def poly_eval(self, f, x):
        acc = 0
        for c in reversed(f):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def poly_roots(self, f):
        """Roots in this field, with multiplicity, by exhaustive scan."""
        f = self.poly_trim(f)
        roots = []
        for a in self.elements():
            if self.poly_eval(f, a) == 0:
                m = 0
                g = f
                while True:
                    quot, rem = self.poly_divmod(g, [self.neg(a), 1])
                    if rem:
                        break
                    m += 1
                    g = quot
                roots.append((a, m))
        return roots

    def poly_derivative(self, f):
        return self.poly_trim([self.mul(self.embed(i), c)
                               for i, c in enumerate(f)][1:])

    def splitting_degree(self, f):
        """lcm of the degrees of the irreducible factors of f over this field."""
        from math import lcm

        f = self.poly_trim(f)
        if len(f) <= 1:
            return 1
        f = self.poly_scale(f, self.inv(f[-1]))
        # strip repeated factors; in char p the derivative may vanish
        d = self.poly_derivative(f)
        if not d:
            # f(x) = g(x^p) = h(x)^p with h's coefficients the p-th roots of g's
            h = [self.pth_root(c) for c in f[:: self.p]]
            return self.splitting_degree(h)
        f = self.poly_divmod(f, self.poly_gcd(f, d))[0]
        degree = 1
        t = [0, 1]
        deg = 1
        while len(f) > 1:
            t = self.poly_powmod(t, self.q, f)
            diff = self.poly_add(t, [0, self.neg(1)])
            g = self.poly_gcd(f, diff)
            if len(g) > 1:
                degree = lcm(degree, deg)
                f = self.poly_divmod(f, g)[0]
                t = self.poly_divmod(t, f)[1] if len(f) > 1 else t
            deg += 1
        return degree

    def __reduce__(self):
        # memoryviews do not pickle: a copy rebuilds its tables
        return Field, (self.p, self.k, list(self.modulus))

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus))

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        return "Field(p=%d, k=%d, modulus=%s)" % (self.p, self.k, list(self.modulus))

