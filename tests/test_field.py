import hashlib
import itertools
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colorlie.errors import BadCharacteristic, NonPrime, ReducibleModulus
from colorlie.field import LUT_LIMIT, Field, digit_product


def brute_irreducible(f, p):
    """Oracle: trial division by every monic polynomial of degree 1..deg//2."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            # long division f mod g over F_p
            rem = list(f)
            while len(rem) >= len(g):
                c = rem[-1]
                if c:
                    for i in range(len(g)):
                        rem[len(rem) - len(g) + i] = (rem[len(rem) - len(g) + i] - c * g[i]) % p
                rem.pop()
            while rem and rem[-1] == 0:
                rem.pop()
            if not rem:
                return False
    return True


def test_field_make_prime_field():
    F = Field(5, 1, None)
    assert (F.p, F.k, F.q) == (5, 1, 5)
    assert list(F.modulus) == [0, 1]  # the polynomial x


def test_field_make_quadratic_deterministic():
    F = Field(5, 2)
    # oracle: first monic irreducible quadratic in little-endian lex order
    expected = None
    for code in range(25):
        f = [code % 5, code // 5, 1]
        if brute_irreducible(f, 5):
            expected = f
            break
    assert list(F.modulus) == expected == [2, 0, 1]


def test_field_make_rejects_bad_input():
    with pytest.raises(NonPrime):
        Field(4)
    with pytest.raises(BadCharacteristic):
        Field(3)
    with pytest.raises(ReducibleModulus):
        Field(5, 2, [0, 0, 1])  # x^2 is reducible
    with pytest.raises(ReducibleModulus):
        Field(5, 2, [1, 2])  # wrong degree
    with pytest.raises(ReducibleModulus):
        Field(5, 2, [1, 0, 2])  # irreducible but not monic


@pytest.mark.parametrize("p,k", [(5, 1), (7, 1), (5, 2), (7, 2), (5, 3)])
def test_modulus_is_irreducible(p, k):
    F = Field(p, k)
    assert brute_irreducible(list(F.modulus), p)


codes25 = st.integers(min_value=0, max_value=24)


@given(a=codes25, b=codes25, c=codes25)
@settings(max_examples=200, deadline=None)
def test_field_axioms_f25(a, b, c):
    F = Field(5, 2)
    assert F.add(a, b) == F.add(b, a)
    assert F.mul(a, b) == F.mul(b, a)
    assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
    assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.add(a, F.neg(a)) == F.zero
    if a != F.zero:
        assert F.mul(a, F.inv(a)) == F.one


def test_digit_codec_roundtrip(F25):
    for a in F25.elements():
        assert F25.from_digits(F25.to_digits(a)) == a
        assert F25.from_wire(F25.to_wire(a)) == a


def test_frobenius_and_pth_root(F25):
    for a in F25.elements():
        assert F25.frobenius(F25.pth_root(a)) == a
        # Frobenius is additive and multiplicative
    a, b = 7, 13
    assert F25.frobenius(F25.add(a, b)) == F25.add(F25.frobenius(a), F25.frobenius(b))
    assert F25.frobenius(F25.mul(a, b)) == F25.mul(F25.frobenius(a), F25.frobenius(b))


def test_artin_schreier_matches_trace(F25):
    # a^p - a = c is solvable iff the trace of c to F_p vanishes
    for c in F25.elements():
        sols = F25.artin_schreier_solutions(c)
        if F25.trace_to_prime(c) == F25.zero:
            assert len(sols) == 5
        else:
            assert sols == []


def test_artin_schreier_prime_field(F5):
    # over F_p the map a -> a^p - a is identically zero
    for c in F5.elements():
        sols = F5.artin_schreier_solutions(c)
        assert len(sols) == (5 if c == 0 else 0)


def _artin_schreier_scalar(F, c):
    return [a for a in F.elements() if F.sub(F.pow(a, F.p), a) == c]


def test_pow_array_matches_scalar_pow():
    F = Field(5, 3)
    a = F.codes_to_array(np.arange(F.q))
    for e in (0, 1, 2, 5, 7, F.q - 2, F.q - 1, 3 * F.q):
        got = F.array_to_codes(F.pow_array(a, e))
        assert got.tolist() == [F.pow(x, e) for x in F.elements()]


def test_artin_schreier_every_c_over_f125():
    F = Field(5, 3)
    for c in F.elements():
        assert F.artin_schreier_solutions(c) == _artin_schreier_scalar(F, c)


def test_artin_schreier_without_tables():
    F = Field(7, 4)                   # q = 2401 > LUT_LIMIT: no tables
    assert F._mul is None
    full = F.sub(F.pow(1000, 7), 1000)
    for c in (full, F.one):           # Tr(1) = 4 != 0: an empty fibre
        assert F.artin_schreier_solutions(c) == _artin_schreier_scalar(F, c)
    assert len(F.artin_schreier_solutions(full)) == 7
    assert F.artin_schreier_solutions(F.one) == []


# the first 16 hex digits of the sha256 of the add, mul, neg and inv code
# tables, in that order, as int64 bytes, of every tabled field the tests
# build, recorded from int64 tables
TABLE_DIGESTS = {
    (5, 1, None): "d6413da6d0dbab94",
    (7, 1, None): "b32ce630ab973836",
    (13, 1, None): "8960b49061a4a5d6",
    (5, 2, None): "1e04d7bbc5c48732",
    (5, 2, (3, 0, 1)): "744b3a40ba4c5280",
    (7, 2, None): "9cfac4da00410418",
    (5, 3, None): "016135e187772bf6",
    (7, 3, None): "96c7774e53d7ac76",
    (43, 2, None): "563465a3ae2b4d2d",
}


@pytest.mark.parametrize("p, k, modulus", sorted(TABLE_DIGESTS, key=str))
def test_int16_code_tables_keep_every_code(p, k, modulus):
    # every code is below LUT_LIMIT, so int16 tables hold every code
    F = Field(p, k, modulus)
    h = hashlib.sha256()
    for t in (F._add, F._mul, F._neg, F._inv):
        assert t.format == np.dtype(np.int16).char
        h.update(np.asarray(t, dtype=np.int64).tobytes())
    assert h.hexdigest()[:16] == TABLE_DIGESTS[p, k, modulus]


@pytest.mark.parametrize("p, k", [(5, 2), (7, 4)], ids=["f25", "f2401"])
def test_scalar_ops_return_plain_ints(p, k):
    # F_25 reads its tables, F_2401 has none; numpy code arguments work too
    F = Field(p, k)
    rng = random.Random(3)
    for _ in range(20):
        a, b = rng.randrange(1, F.q), rng.randrange(1, F.q)
        for x in (a, np.int64(a)):
            got = [F.add(x, b), F.mul(x, b), F.neg(x), F.inv(x),
                   F.sub(x, b), F.div(x, b)]
            assert all(type(v) is int for v in got)
            want = F.from_digits(digit_product(
                F, np.array(F.to_digits(a)), np.array(F.to_digits(b)),
                np.multiply))
            assert got[1] == want
            assert F.add(got[2], a) == 0 and F.mul(got[3], a) == 1
    G = pickle.loads(pickle.dumps(F))
    assert G == F and G.mul(2, 3) == F.mul(2, 3)


def test_poly_roots_and_gcd(F5):
    # (x-1)(x-2)^2 = x^3 - 5x^2 + 8x - 4 = x^3 + 3x + 1 over F_5
    f = F5.poly_mul(F5.poly_mul([F5.neg(1), 1], [F5.neg(2), 1]), [F5.neg(2), 1])
    assert sorted(F5.poly_roots(f)) == [(1, 1), (2, 2)]
    g = F5.poly_gcd(f, F5.poly_derivative(f))
    assert g == [F5.neg(2), 1]  # the repeated factor x - 2


@pytest.mark.parametrize("coeffs,expected", [
    ([2, 0, 1], 2),          # irreducible quadratic -> splits over F_25
    ([4, 0, 0, 0, 1], 1),    # x^4 - 1 splits into linear factors over F_5
    ([3, 1], 1),             # linear splits already
])
def test_splitting_degree_f5(F5, coeffs, expected):
    # independent oracle: smallest d with all roots in F_{5^d}, by counting
    # roots of f in F_{5^d} via gcd with x^(5^d) - x
    f = F5.poly_trim(coeffs)
    deg = len(f) - 1
    d = 1
    while True:
        t = [0, 1]
        for _ in range(d):
            t = F5.poly_powmod(t, 5, f)
        diff = F5.poly_add(t, F5.poly_scale([0, 1], F5.neg(1)))
        g = F5.poly_gcd(diff, f)
        # f splits over F_{5^d} iff every irreducible factor has degree | d;
        # equivalently the radical of f divides x^(5^d) - x
        rad = F5.poly_divmod(f, F5.poly_gcd(f, F5.poly_derivative(f)))[0] \
            if F5.poly_derivative(f) else f
        if len(g) == len(rad):
            break
        d += 1
        assert d <= deg
    assert F5.splitting_degree(coeffs) == d == expected


def test_splitting_degree_irreducible_cubic(F5):
    # x^3 + x + 1 over F_5: no roots -> irreducible (degree 3) -> needs F_{5^3}
    f = [1, 1, 0, 1]
    assert F5.poly_roots(f) == []
    assert F5.splitting_degree(f) == 3


@pytest.mark.parametrize("p,k,modulus", [
    (5, 3, [1, 1, 0, 1]),
    (7, 3, [2, 0, 0, 1]),
    (5, 5, [1, 4, 0, 0, 0, 1]),
])
def test_modulus_pinned(p, k, modulus):
    assert list(Field(p, k).modulus) == modulus


def schoolbook_mul(a, b, p, modulus):
    """Oracle: product of two codes as digit polynomials, reduced by long
    division by the monic little-endian modulus."""
    k = len(modulus) - 1
    da = [(a // p ** i) % p for i in range(k)]
    db = [(b // p ** i) % p for i in range(k)]
    prod = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            prod[i + j] = (prod[i + j] + da[i] * db[j]) % p
    for d in range(2 * k - 2, k - 1, -1):
        c = prod[d]
        for i in range(k + 1):
            prod[d - k + i] = (prod[d - k + i] - c * modulus[i]) % p
    return sum(prod[i] * p ** i for i in range(k))


def schoolbook_pow(a, e, p, modulus):
    r = 1
    for _ in range(e):
        r = schoolbook_mul(r, a, p, modulus)
    return r


@pytest.mark.parametrize("p,k", [(5, 3), (7, 3), (5, 5)])
def test_arithmetic_matches_schoolbook(p, k):
    # F_3125 lies above LUT_LIMIT, so it runs the table-less branch
    F = Field(p, k)
    mod, q = list(F.modulus), F.q
    rng = random.Random(p * 100 + k)
    for _ in range(40):
        a, b = rng.randrange(q), rng.randrange(q)
        assert F.mul(a, b) == schoolbook_mul(a, b, p, mod)
        assert F.add(a, F.neg(a)) == 0
        assert F.neg(a) == sum(((-((a // p ** i) % p)) % p) * p ** i
                               for i in range(k))
        e = rng.randrange(2 * p)
        assert F.pow(a, e) == schoolbook_pow(a, e, p, mod)
        if a:
            inv = F.inv(a)
            assert schoolbook_mul(a, inv, p, mod) == 1
            assert F.pow(a, -e) == schoolbook_pow(inv, e, p, mod)
    assert F.pow(2, q - 1) == 1
    units = [rng.randrange(1, q) for _ in range(40)]
    invs = F.array_to_codes(F.inv_array(F.codes_to_array(units)))
    assert [schoolbook_mul(a, int(b), p, mod)
            for a, b in zip(units, invs)] == [1] * 40


@pytest.mark.parametrize("p, k", [(5, 1), (5, 2), (5, 3)],
                         ids=["f5", "f25", "f125"])
def test_inv_array_reads_the_digit_table(p, k):
    # every unit, in a (2, q - 1) block, on the field and on a pickled copy
    # (which rebuilds its tables)
    F = Field(p, k)
    units = np.arange(1, F.q)
    block = F.codes_to_array(np.stack([units, units[::-1]]))
    for G in (F, pickle.loads(pickle.dumps(F))):
        assert G._inv_digits.shape == (G.q, G.k)
        got = G.inv_array(block)
        assert got.shape == block.shape and got.dtype == np.int64
        assert G.array_to_codes(got).tolist() == [
            [G.inv(int(a)) for a in row] for row in (units, units[::-1])]
        prod = digit_product(G, block, got, np.multiply)
        assert (G.array_to_codes(prod) == 1).all()


@pytest.mark.parametrize("p, k", [(5, 1), (5, 2), (5, 3), (7, 4)],
                         ids=["f5", "f25", "f125", "f2401"])
def test_array_to_codes_matches_the_digit_sum(p, k):
    # one product with the digit weights p^i against the weighted digit sum,
    # on random blocks, an empty array and a single digit vector
    F = Field(p, k)
    rng = np.random.default_rng(p ** k)
    weights = np.array([p ** i for i in range(k)])
    for shape in ((40,), (3, 5), (2, 3, 4), (0,), (0, 6)):
        arr = rng.integers(0, p, size=shape + (k,))
        got = F.array_to_codes(arr)
        assert got.dtype == np.int64 and got.shape == shape
        assert np.array_equal(got, (arr * weights).sum(axis=-1))
        assert np.array_equal(F.codes_to_array(got), arr)
    one = rng.integers(0, p, size=k)
    assert int(F.array_to_codes(one)) == int((one * weights).sum())


def _plane_product(F, A, B):
    """The digit-plane product: every op but np.multiply itself takes it."""
    return digit_product(F, A, B, lambda a, b: np.multiply(a, b))


@pytest.mark.parametrize("p, k", [(5, 2), (5, 3), (43, 2)],
                         ids=["f25", "f125", "f1849"])
def test_table_products_match_the_digit_planes(p, k):
    # q = 43^2 lies just below LUT_LIMIT; random reduced operands in
    # broadcast shapes, zero-size ones included, in both orders
    F = Field(p, k)
    assert F.q <= LUT_LIMIT and F._mul_digits.shape == (F.q ** 2, k)
    assert F._mul_digits.dtype == np.int8
    rng = np.random.default_rng(F.q)
    for sa, sb in [((50,), (50,)), ((3, 1, 5), (4, 1)), ((6, 1), (1, 7)),
                   ((), (8,)), ((0,), (0,)), ((0, 3), (1, 3)), ((2, 0), ())]:
        A = rng.integers(0, p, size=sa + (k,))
        B = rng.integers(0, p, size=sb + (k,))
        for X, Y in ((A, B), (B, A)):
            got = digit_product(F, X, Y, np.multiply)
            want = _plane_product(F, X, Y)
            assert got.dtype == np.int64 and got.shape == want.shape
            assert np.array_equal(got, want)
    if F.q <= 125:
        # every pair of the field, against the scalar table
        codes = np.arange(F.q)
        a, b = F.codes_to_array(codes)[:, None], F.codes_to_array(codes)
        got = F.array_to_codes(digit_product(F, a, b, np.multiply))
        assert got.tolist() == [[F.mul(x, y) for y in range(F.q)]
                                for x in range(F.q)]


@pytest.mark.parametrize("p, k", [(5, 1), (7, 4)], ids=["f5", "f2401"])
def test_prime_and_untabled_fields_multiply_on_the_digit_planes(p, k):
    # k = 1 needs no digit table, and F_2401 has no tables at all
    F = Field(p, k)
    assert F._mul_digits is None
    assert (F._mul is None) == (F.q > LUT_LIMIT)
    rng = np.random.default_rng(F.q)
    A = rng.integers(0, p, size=(4, 1, 3, k))
    B = rng.integers(0, p, size=(5, 1, k))
    got = F.array_to_codes(digit_product(F, A, B, np.multiply))
    ca, cb, mod = F.array_to_codes(A), F.array_to_codes(B), list(F.modulus)
    assert got.tolist() == [[[schoolbook_mul(int(ca[i, 0, t]), int(cb[j, 0]),
                                             p, mod) for t in range(3)]
                             for j in range(5)] for i in range(4)]
