"""Normal-form engine, reduced quotients, top-coefficient pairing, Cartan
projection."""

import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from math import comb

import numpy as np
import pytest

import colorlie
from colorlie.algebra import (bracket_eval, make_gl, subalgebra, ColorAlgebra,
                              validate_algebra)
from colorlie.cli import load_spec
from colorlie import envelope
from colorlie.envelope import (NormalElement, _Engine, _basis_table,
                               _color_symmetric, central_check,
                               chi_reduce, _degree_classes, engine_for,
                               frobenius_gram,
                               harish_chandra, monomial_degree, nf_from_element, nf_letter,
                               nf_monomial, nf_one, nf_product, uchi_basis)
from colorlie.errors import (MixedSpecs, NotStandard, NotWeightZero,
                             OddElement, TooLarge)
from colorlie.field import LUT_LIMIT, Field
from colorlie.groups import (Bicharacter, GradedGroup, super_bicharacter,
                             trivial_bicharacter)
from colorlie.linalg import Mat
from colorlie.qbinom import quantum_binomial
from colorlie.repmod import PCharacter, PowerClass, pchar_zero

F5 = Field(5)


def gram_codes(F, res):
    """The dense (dim, dim) codes of the Gram matrix `frobenius_gram`
    returns as its nonzero cells, once the cells are checked to be nonzero
    and in column-major order."""
    rows, cols, digits = res["cells"]
    dim = res["dimension"]
    assert np.all(np.diff(cols * dim + rows) > 0)
    codes = np.zeros((dim, dim), dtype=np.int64)
    codes[rows, cols] = F.array_to_codes(digits)
    assert np.all(codes[rows, cols] != 0)
    return codes


def gl2():
    return make_gl(trivial_bicharacter(GradedGroup([]), F5), {(): 2})


def gl3():
    return make_gl(trivial_bicharacter(GradedGroup([]), F5), {(): 3})


def gl11():
    _, eps = super_bicharacter(F5)
    return make_gl(eps, {(0,): 1, (1,): 1})


def gl21():
    _, eps = super_bicharacter(F5)
    return make_gl(eps, {(0,): 2, (1,): 1})


def anti_gl3():
    """gl(3) graded by Z/2 x Z/2: every degree even, off-block letters
    anticommute."""
    G = GradedGroup([2, 2])
    one, neg = F5.one, F5.neg(F5.one)
    eps = Bicharacter(G, F5, [[one, neg], [neg, one]])
    assert eps.validate() == []
    return make_gl(eps, {(0, 0): 1, (1, 0): 1, (0, 1): 1})


def abelian_line(orders, degree):
    """One even generator x with [x,x] = 0 and x^[p] = 0."""
    G = GradedGroup(orders)
    eps = trivial_bicharacter(G, F5)
    return ColorAlgebra(eps, ["x"], [degree], {}, pmap={0: {}})


def class_line():
    """x, y of degree 1 and z of degree 2 in Z/3, abelian, with x^[p] = z,
    y^[p] = 2z and z^[p] = x, and the power class on degree 1 (generator
    x, c(y) = 3).  p * 1 has order s = 3, so x has the class-generator cap
    p * s = 15 with a binomial tail C(3, r) != 0 mod 5 for 0 < r < 3, and
    y the class-degree cap y^p -> y^[p] + c(y)^p (x^p - x^[p])."""
    G = GradedGroup([3])
    A = ColorAlgebra(trivial_bicharacter(G, F5), ["x", "y", "z"],
                     [(1,), (1,), (2,)], {},
                     pmap={0: {2: 1}, 1: {2: 2}, 2: {0: 1}})
    assert validate_algebra(A) == []
    return A, PCharacter(A, fclasses=[PowerClass((1,), 0, {0: 1, 1: 3}, 3)])


def odd_square():
    """An odd y with the nonzero self-bracket [y, y] = c, c even and
    central: the odd square rewrites to y^2 -> c / 2."""
    _, eps = super_bicharacter(F5)
    A = ColorAlgebra(eps, ["y", "c"], [(1,), (0,)], {(0, 0): {1: 1}},
                     pmap={1: {}})
    assert validate_algebra(A) == []
    return A


def word_nf(eng, word):
    """Normal form of a product of letters, one times_letter at a time."""
    F = eng.F
    cur = {(0,) * eng.A.dim: F.one}
    for j in word:
        nxt = {}
        for m, c in cur.items():
            for m2, c2 in eng.times_letter(m, j).items():
                v = F.add(nxt.get(m2, 0), F.mul(c, c2))
                if v:
                    nxt[m2] = v
                elif m2 in nxt:
                    del nxt[m2]
        cur = nxt
    return cur


# -- single-swap fixtures ------------------------------------------------------


def test_gl2_ef():
    A = gl2()
    e, f = nf_letter(A, A.index_of("e_12")), nf_letter(A, A.index_of("e_21"))
    got = e.mul(f)
    assert got.terms == {(1, 0, 0, 1): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 4}
    # and f.e is already normal
    assert f.mul(e).terms == {(1, 0, 0, 1): 1}


def test_gl11_ef_anticommutes():
    A = gl11()
    e, f = nf_letter(A, A.index_of("e_12")), nf_letter(A, A.index_of("e_21"))
    got = e.mul(f)
    assert got.terms == {(1, 0, 0, 1): 4, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1}


def test_gl11_odd_squares_vanish():
    A = gl11()
    for name in ("e_12", "e_21"):
        x = nf_letter(A, A.index_of(name))
        assert x.mul(x).is_zero()


def test_pbw_relation_on_basis_pairs():
    for A in (gl2(), gl11(), gl21(), anti_gl3()):
        for i in range(A.dim):
            for j in range(A.dim):
                x, y = nf_letter(A, i), nf_letter(A, j)
                sign = A.eps.value(A.degree(i), A.degree(j))
                lhs = x.mul(y).sub(y.mul(x).scale(sign))
                assert lhs.eq(nf_from_element(A, A.bracket(i, j)))


def test_universal_mode_has_no_caps():
    A = gl2()
    e = nf_letter(A, A.index_of("e_12"))
    assert e.pow(7).terms == {(0, 0, 0, 7): 1}


def test_mixed_specs_rejected():
    A, B = gl2(), gl2()
    with pytest.raises(MixedSpecs):
        nf_letter(A, 0).mul(nf_letter(B, 0))
    spec = chi_reduce(A, pchar_zero(A))
    with pytest.raises(MixedSpecs):
        nf_letter(A, 0).mul(nf_letter(A, 0, spec))


# -- associativity and PBW independence ----------------------------------------


def rand_elem(rng, A, spec=None, nterms=3, maxexp=2, support=3):
    # keep universal-mode factors small: exponents are uncapped there and
    # triple products of wide monomials blow up the rewrite tree
    caps = spec.caps if spec is not None else None
    terms = {}
    for _ in range(nterms):
        mono = [0] * A.dim
        for i in rng.sample(range(A.dim), min(support, A.dim)):
            hi = caps[i] if caps is not None else (2 if not A.is_even(i) else maxexp + 1)
            mono[i] = rng.randrange(min(hi, maxexp + 1))
        terms[tuple(mono)] = F5.embed(rng.randrange(1, 5))
    return NormalElement(A, spec, terms)


def test_associativity_universal_and_reduced():
    rng = random.Random(0)
    cases = []
    for build in (gl2, gl11, anti_gl3, odd_square):
        A = build()
        cases.append((A, None, 2))
        cases.append((A, chi_reduce(A, pchar_zero(A)), 2))
    A = gl2()
    chi = PCharacter(A, linear={A.index_of("e_11"): 1, A.index_of("e_21"): 2})
    cases.append((A, chi_reduce(A, chi), 2))
    # exponents up to 7 let three factors pass x's cap of 15
    A, chi = class_line()
    cases += [(A, None, 2), (A, chi_reduce(A, chi), 7)]
    for A, spec, maxexp in cases:
        for _ in range(6):
            u, v, w = (rand_elem(rng, A, spec, maxexp=maxexp)
                       for _ in range(3))
            assert u.mul(v).mul(w).eq(u.mul(v.mul(w)))


def test_pbw_low_degree_independence():
    # words of length <= 3 span exactly the capped-exponent multisets
    for A in (gl2(), gl11()):
        seen = set()
        for r in range(4):
            for word in itertools.product(range(A.dim), repeat=r):
                nf = word_nf(engine_for(A), word)
                seen.update(nf)
        expect = 0
        for mono in itertools.product(range(4), repeat=A.dim):
            if sum(mono) > 3:
                continue
            if any(a > 1 for i, a in enumerate(mono) if not A.is_even(i)):
                continue
            expect += 1
        assert len(seen) == expect


def test_custom_letter_order_agrees_after_conversion():
    A = gl2()
    spec = chi_reduce(A, pchar_zero(A))
    default = engine_for(A, spec)
    permuted = engine_for(A, spec, order=[3, 1, 2, 0])
    rng = random.Random(1)
    for _ in range(20):
        word = [rng.randrange(A.dim) for _ in range(rng.randrange(1, 7))]
        target = word_nf(default, word)
        alt = word_nf(permuted, word)
        # convert each permuted-normal monomial back through the default order
        back = {}
        for m, c in alt.items():
            word = [i for i in permuted.order for _ in range(m[i])]
            for m2, c2 in word_nf(default, word).items():
                v = F5.add(back.get(m2, 0), F5.mul(c, c2))
                if v:
                    back[m2] = v
                elif m2 in back:
                    del back[m2]
        assert back == target


def _regss_gl3_f25():
    F = Field(5, 2, [3, 0, 1])
    A = make_gl(trivial_bicharacter(GradedGroup([]), F), {(): 3})
    chi = PCharacter(A, linear={A.index_of("e_11"): F.from_wire([0, 1]),
                                A.index_of("e_22"): F.from_wire([0, 2])})
    return chi_reduce(A, chi)


def _zero_spec(A):
    return chi_reduce(A, pchar_zero(A))


def _product_by_letters(eng, t1, t2):
    """t1 * t2 with t1 pushed through each term of t2 one letter at a
    time (times_letter, in the engine's letter order), the terms summed in
    t2's order."""
    F = eng.F

    def add_into(d, m, c):
        v = F.add(d.get(m, 0), c)
        if v:
            d[m] = v
        elif m in d:
            del d[m]

    out = {}
    for m2, c2 in t2.items():
        cur = t1
        for j in [i for i in eng.order for _ in range(m2[i])]:
            nxt = {}
            for m, c in cur.items():
                for m3, c3 in eng.times_letter(m, j).items():
                    add_into(nxt, m3, F.mul(c, c3))
            cur = nxt
        for m, c in cur.items():
            add_into(out, m, F.mul(c, c2))
    return out


@pytest.mark.parametrize("make, letters, maxexp", [
    (lambda: _zero_spec(gl3()), ("e_21", "e_11", "e_12"), 2),
    (_regss_gl3_f25, ("e_32", "e_22", "e_13"), 2),
    (lambda: _zero_spec(gl21()), ("e_21", "e_31", "e_11", "e_13"), 2),
    (lambda: chi_reduce(*_file_spec("z25_class.json")), ("x",), 24),
    (lambda: chi_reduce(*class_line()), ("x", "y", "z"), 14),
    (lambda: _zero_spec(odd_square()), ("y", "c"), 4),
], ids=["gl3_f5", "gl3_f25_regss", "gl21", "z25_class", "class_line",
        "odd_square"])
def test_product_matches_letter_by_letter_fold(make, letters, maxexp):
    # every monomial on a few letters, so the terms of t2 share leading
    # runs; z25_class's and class_line's products pass their
    # class-generator caps p*s = 25 and 15
    rng = random.Random(5)
    spec, ref_spec = make(), make()
    A = spec.algebra
    F = A.F
    idx = [A.index_of(n) for n in letters]
    ranges = [range(min(maxexp, spec.caps[i] - 1) + 1) for i in idx]
    t2 = {}
    for exps in itertools.product(*ranges):
        mono = [0] * A.dim
        for i, e in zip(idx, exps):
            mono[i] = e
        t2[tuple(mono)] = rng.randrange(1, F.q)
    t1 = {}
    for mono in rng.sample(sorted(t2), 3):
        t1[mono] = rng.randrange(1, F.q)
    rest = [i for i in range(A.dim) if i not in idx]
    for order in (None, idx + rest):
        got = engine_for(A, spec, order=order).product(t1, t2)
        want = _product_by_letters(engine_for(A, ref_spec, order=order),
                                   t1, t2)
        assert list(got.items()) == list(want.items())


def chain_algebra():
    """y, x with [x, y] = y: x is diagonal, y is not."""
    return ColorAlgebra(trivial_bicharacter(GradedGroup([]), F5), ["y", "x"],
                        [(), ()], {(1, 0): {0: 1}})


def _rewriting_engine(A, spec, order):
    """A fresh engine with its fast paths off: _known reads the memo and
    nothing else, so every product runs through _reduce."""
    eng = _Engine(A, spec, order)
    eng._known = lambda mono, j: eng._memo.get((mono, j))
    return eng


@pytest.mark.parametrize("make, letters, maxexp", [
    (lambda: _zero_spec(gl3()), ("e_21", "e_11", "e_12"), 2),
    (_regss_gl3_f25, ("e_32", "e_22", "e_13"), 2),
    (lambda: _zero_spec(gl21()), ("e_31", "e_22", "e_13"), 2),
    (lambda: _zero_spec(anti_gl3()), ("e_21", "e_22", "e_13"), 2),
    (lambda: chi_reduce(*class_line()), ("x", "y", "z"), 14),
    (lambda: chi_reduce(*_file_spec("z25_class.json")), ("x",), 24),
    (lambda: _zero_spec(odd_square()), ("y", "c"), 4),
    (chain_algebra, ("y", "x"), 2),
], ids=["gl3_f5", "gl3_f25_regss", "gl21", "anti_gl3", "class_line",
        "z25_class", "odd_square", "chain"])
def test_fast_paths_match_rewriting(make, letters, maxexp):
    # every monomial on a few letters (up to each cap for the class specs,
    # so that their products pass it) times every letter, in the default
    # and in a permuted order: the engine's in-place products equal the
    # rewriting's as maps
    spec = make()
    A, spec = (spec, None) if isinstance(spec, ColorAlgebra) else (
        spec.algebra, spec)
    idx = [A.index_of(n) for n in letters]
    top = [1 if not A.is_even(i) else
           maxexp if spec is None else min(maxexp, spec.caps[i] - 1)
           for i in idx]
    rest = [i for i in range(A.dim) if i not in idx]
    for order in (None, idx + rest):
        fast = _Engine(A, spec, order)
        slow = _rewriting_engine(A, spec, order)
        for exps in itertools.product(*[range(t + 1) for t in top]):
            mono = [0] * A.dim
            for i, e in zip(idx, exps):
                mono[i] = e
            mono = tuple(mono)
            for j in range(A.dim):
                assert fast.times_letter(mono, j) == slow.times_letter(
                    mono, j), (mono, j)
        if A.triangular is not None:
            assert len(fast._memo) < len(slow._memo)
    if A.triangular is not None:
        assert sorted(fast._diag) == sorted(A.triangular.cartan)
    if A.names == ["y", "x"]:
        assert sorted(fast._diag) == [1]


def test_diagonal_letters_of_nplus_gl3():
    # the central e_13 of n+ is diagonal, e_12 and e_23 are not
    A = subalgebra(gl3(), list(gl3().triangular.pos))
    assert [A.names[j] for j in _Engine(A)._diag] == ["e_13"]


def _tableless(dims):
    F = Field(7, 4)
    assert F.q > LUT_LIMIT
    if dims == "gl2":
        A = make_gl(trivial_bicharacter(GradedGroup([]), F), {(): 2})
    else:
        A = make_gl(super_bicharacter(F)[1], {(0,): 1, (1,): 1})
    chi = PCharacter(A, linear={A.index_of("e_11"): F.from_wire([1, 2, 0, 3])})
    return chi_reduce(A, chi)


@pytest.mark.parametrize("dims", ["gl2", "gl11"])
def test_tableless_field_products(dims):
    # over F_2401 the field keeps no tables, so every product folds its
    # terms through the computed add and mul: associativity on seeded
    # elements, and products against the letter-by-letter fold
    rng = random.Random(3)
    spec, ref_spec = _tableless(dims), _tableless(dims)
    A = spec.algebra
    F = A.F

    def elem(nterms=3):
        terms = {}
        for _ in range(nterms):
            terms[tuple(rng.randrange(1 if not A.is_even(i) else 3)
                        for i in range(A.dim))] = rng.randrange(1, F.q)
        return NormalElement(A, spec, terms)

    for _ in range(3):
        u, v, w = elem(), elem(), elem()
        assert u.mul(v).mul(w).eq(u.mul(v.mul(w)))
    for _ in range(3):
        t1, t2 = elem(2).terms, elem(4).terms
        got = engine_for(A, spec).product(t1, t2)
        want = _product_by_letters(engine_for(A, ref_spec), t1, t2)
        assert list(got.items()) == list(want.items())


# -- the two power-of-x identities ----------------------------------------------


def ad_lhs(A, xi, yi, k):
    cur = {yi: 1}
    for _ in range(k):
        cur = bracket_eval(A, {xi: 1}, cur)
    return nf_from_element(A, cur)


def ad_rhs(A, xi, yi, k, corrected):
    X, Y = nf_letter(A, xi), nf_letter(A, yi)
    e = A.eps.value(A.degree(xi), A.degree(yi))
    q = A.eps.value(A.degree(xi), A.degree(xi))
    out = nf_one(A).scale(0)
    for i in range(k + 1):
        if corrected:
            c = quantum_binomial(F5, k, i, q)
            c = F5.mul(c, F5.pow(q, i * (i - 1) // 2))
        else:
            c = F5.embed(comb(k, i) % 5)
        c = F5.mul(c, F5.pow(e, i))
        if i % 2:
            c = F5.neg(c)
        out = out.add(X.pow(k - i).mul(Y).mul(X.pow(i)).scale(c))
    return out


def test_ad_power_even_letters_binomial_form():
    for A in (gl11(), gl21(), anti_gl3()):
        for xi in range(A.dim):
            if not A.is_even(xi):
                continue
            for yi in range(A.dim):
                for k in range(5):
                    assert ad_lhs(A, xi, yi, k).eq(ad_rhs(A, xi, yi, k, False))


def test_ad_power_all_letters_quantum_form():
    for A in (gl11(), gl21()):
        for xi in range(A.dim):
            for yi in range(A.dim):
                for k in range(5):
                    assert ad_lhs(A, xi, yi, k).eq(ad_rhs(A, xi, yi, k, True))


def test_ad_power_odd_counterexample():
    # for an odd letter the ordinary-binomial form breaks at k = 2:
    # (ad e_12)^2 e_21 = 0 but the binomial sum leaves 2.e_12.e_21.e_12
    A = gl11()
    xi, yi = A.index_of("e_12"), A.index_of("e_21")
    lhs = ad_lhs(A, xi, yi, 2)
    assert lhs.is_zero()
    wrong = ad_rhs(A, xi, yi, 2, False)
    assert wrong.terms == {(0, 1, 0, 1): 2, (0, 0, 1, 1): 2}
    assert ad_rhs(A, xi, yi, 2, True).is_zero()


def test_central_binomial_trivial_grading():
    A = gl2()
    z, report = central_check(A, A.index_of("e_12"))
    assert report == []
    b = nf_letter(A, A.index_of("e_21"))
    for n in range(6):
        lhs = z.add(b).pow(n)
        rhs = nf_one(A).scale(0)
        for i in range(n + 1):
            rhs = rhs.add(z.pow(i).mul(b.pow(n - i)).scale(F5.embed(comb(n, i) % 5)))
        assert lhs.eq(rhs)


def test_central_binomial_colored():
    # central z of nonzero degree against a letter it eps-commutes with by -1
    A = anti_gl3()
    xi = A.index_of("e_21")
    z, report = central_check(A, xi)
    assert report == []
    bi = A.index_of("e_31")
    q = A.eps.value(A.degree(bi), A.group.scale(5, A.degree(xi)))
    assert q == F5.neg(F5.one)
    b = nf_letter(A, bi)
    for n in range(6):
        lhs = z.add(b).pow(n)
        rhs = nf_one(A).scale(0)
        for i in range(n + 1):
            rhs = rhs.add(z.pow(i).mul(b.pow(n - i)).scale(quantum_binomial(F5, n, i, q)))
        assert lhs.eq(rhs)


# -- central elements -----------------------------------------------------------


def test_central_check_nilpotent_and_toral():
    A = gl2()
    z, report = central_check(A, A.index_of("e_12"))
    assert report == [] and z.terms == {(0, 0, 0, 5): 1}
    z, report = central_check(A, A.index_of("e_11"))
    assert report == [] and z.terms == {(0, 1, 0, 0): 4, (0, 5, 0, 0): 1}


def test_central_check_all_even_basis():
    for A in (gl11(), gl21()):
        for i in range(A.dim):
            if A.is_even(i):
                assert central_check(A, i)[1] == []
            else:
                with pytest.raises(OddElement):
                    central_check(A, i)


def test_central_check_corrupted_pmap():
    A = gl2()
    i12 = A.index_of("e_12")
    bad = dict(A.pmap)
    bad[i12] = {A.index_of("e_11"): 1}  # e_12^[5] is 0, not e_11
    B = ColorAlgebra(A.eps, A.names, [tuple(d) for d in A.degrees],
                     A.structure, pmap=bad)
    _, report = central_check(B, i12)
    assert report != []


# -- reduced caps ---------------------------------------------------------------


def test_uchi_counts():
    A = gl2()
    count, gen = uchi_basis(chi_reduce(A, pchar_zero(A)))
    assert count == 625 and len(list(gen)) == 625

    A = gl11()
    spec = chi_reduce(A, pchar_zero(A))
    assert spec.caps == (2, 5, 5, 2)
    assert uchi_basis(spec)[0] == 100

    A = abelian_line([25], (1,))
    chi = PCharacter(A, fclasses=[PowerClass((1,), 0, {0: 1}, 5)])
    spec = chi_reduce(A, chi)
    assert spec.caps == (25,)
    assert uchi_basis(spec)[0] == 25


def test_power_class_truncated_polynomial_ring():
    # x generates F[x]/(x^25 - 1): exponents add modulo 25
    A = abelian_line([25], (1,))
    chi = PCharacter(A, fclasses=[PowerClass((1,), 0, {0: 1}, 5)])
    spec = chi_reduce(A, chi)
    x = nf_letter(A, 0, spec)
    assert nf_monomial(A, (24,), spec).mul(x).eq(nf_one(A, spec))
    for i, j in [(13, 20), (24, 24), (5, 20), (0, 7)]:
        got = nf_monomial(A, (i,), spec).mul(nf_monomial(A, (j,), spec))
        assert got.terms == {((i + j) % 25,): 1}


def test_nilpotent_caps_kill_powers():
    A = gl3()
    Np = subalgebra(A, A.triangular.pos)
    spec = chi_reduce(Np, pchar_zero(Np))
    for i in range(Np.dim):
        assert nf_letter(Np, i, spec).pow(5).is_zero()


def test_reduced_products_respect_caps():
    rng = random.Random(2)
    A = gl11()
    spec = chi_reduce(A, pchar_zero(A))
    for _ in range(30):
        u = rand_elem(rng, A, spec, maxexp=4, support=4)
        v = rand_elem(rng, A, spec, maxexp=4, support=4)
        for mono in u.mul(v).terms:
            assert all(a < c for a, c in zip(mono, spec.caps))


def test_linear_cap_injects_chi_power():
    A = gl2()
    i21 = A.index_of("e_21")
    chi = PCharacter(A, linear={i21: 2})
    spec = chi_reduce(A, chi)
    f = nf_letter(A, i21, spec)
    # f^5 = chi(f)^5 = 2^5 = 32 = 2 over F_5
    assert f.pow(5).terms == {(0, 0, 0, 0): 2}


def test_monomial_cap_validation():
    A = gl11()
    spec = chi_reduce(A, pchar_zero(A))
    with pytest.raises(ValueError):
        nf_monomial(A, (0, 5, 0, 0), spec)
    with pytest.raises(ValueError):
        nf_monomial(A, (2, 0, 0, 0))
    with pytest.raises(ValueError):
        nf_monomial(A, (0, 1, 0), spec)


def test_wire_roundtrip():
    A = gl11()
    spec = chi_reduce(A, pchar_zero(A))
    rng = random.Random(3)
    u = rand_elem(rng, A, spec)
    data = u.to_wire()
    v = NormalElement.from_wire(A, data, spec)
    assert u.eq(v)
    assert data == sorted(data)


# -- top-coefficient pairing -----------------------------------------------------


def test_gram_line_algebra():
    A = abelian_line([], ())
    res = frobenius_gram(chi_reduce(A, pchar_zero(A)))
    assert res["dimension"] == 5 and res["tau"] == (4,)
    G = gram_codes(A.F, res)
    for i in range(5):
        for j in range(5):
            want = 1 if i + j == 4 else 0
            assert G[i, j] == want
    assert res["nondegenerate"] and res["color_symmetric"]


def test_gram_nilpotent_block_symmetric():
    A = gl3()
    Np = subalgebra(A, A.triangular.pos)
    res = frobenius_gram(chi_reduce(Np, pchar_zero(Np)))
    assert res["dimension"] == 125
    assert res["rank"] == 125 and res["nondegenerate"]
    assert res["color_symmetric"]


def top_coeff_product(A, a, b):
    """Expected pairing when the exponents are complementary: the sign from
    commuting the two halves together, letter block by letter block."""
    g = A.group
    out = F5.one
    for i in range(A.dim - 1):
        if b[i] == 0:
            continue
        tail = g.zero
        for j in range(i + 1, A.dim):
            if a[j]:
                tail = g.add(tail, g.scale(a[j], A.degree(j)))
        out = F5.mul(out, A.eps.value(tail, g.scale(b[i], A.degree(i))))
    return out


def test_gram_super_case_against_closed_form():
    A = gl11()
    spec = chi_reduce(A, pchar_zero(A))
    res = frobenius_gram(spec)
    assert res["dimension"] == 100 and res["nondegenerate"]
    assert res["color_symmetric"]
    mons = res["monomials"]
    idx = {m: t for t, m in enumerate(mons)}
    tau = res["tau"]
    G = gram_codes(A.F, res)
    for a in mons:
        bcomp = tuple(t - x for x, t in zip(a, tau))
        assert G[idx[a], idx[bcomp]] == top_coeff_product(A, a, bcomp)
    # same total degree but off the complement pairs to zero
    rng = random.Random(4)
    checked = 0
    while checked < 200:
        a, b = rng.choice(mons), rng.choice(mons)
        ab = tuple(x + y for x, y in zip(a, b))
        if sum(ab) != sum(tau) or ab == tau:
            continue
        assert G[idx[a], idx[b]] == 0
        checked += 1


def test_gram_nonzero_character_full_rank():
    A = gl11()
    chi = PCharacter(A, linear={A.index_of("e_11"): 1, A.index_of("e_22"): 3})
    res = frobenius_gram(chi_reduce(A, chi))
    assert res["dimension"] == 100 and res["nondegenerate"]


def _file_spec(name):
    bundle = load_spec(os.path.join(os.path.dirname(__file__), "specs", name))
    A = bundle["algebra"]
    return A, bundle["character"] or pchar_zero(A)


def _top_coeff(eng, tau, mu, mv):
    """mu(m_u, m_v) read off one full normal-form product."""
    one = eng.one
    return eng.product({mu: one}, {mv: one}).get(tau, 0)


def _color_symmetric_pairwise(A, mons, codes):
    """The pairing's color symmetry, one pair u <= v at a time."""
    F = A.F
    degs = [monomial_degree(A, m) for m in mons]
    for u in range(len(mons)):
        for v in range(u, len(mons)):
            b = F.mul(A.eps.value(degs[u], degs[v]), codes[v][u])
            if codes[u][v] != b:
                return False
    return True


@pytest.mark.parametrize("name, symmetric", [
    ("gl11.json", True),
    ("borel2.json", False),
    ("z25_class.json", True),  # class-generator cap p*s = 25: a long chain
])
def test_gram_matches_entrywise_top_coefficient(name, symmetric):
    A, chi = _file_spec(name)
    res = frobenius_gram(chi_reduce(A, chi))
    spec = chi_reduce(A, chi)  # a fresh engine for the reference
    eng = engine_for(A, spec)
    mons = list(uchi_basis(spec)[1])
    tau = tuple(c - 1 for c in spec.caps)
    assert res["dimension"] == len(mons)
    assert res["monomials"] == mons and res["tau"] == tau
    want = [[_top_coeff(eng, tau, mu, mv) for mv in mons] for mu in mons]
    assert gram_codes(A.F, res).tolist() == want
    rank = Mat.from_codes(A.F, want).rank()
    assert res["rank"] == rank
    assert res["nondegenerate"] == (rank == len(mons))
    assert _color_symmetric_pairwise(A, mons, want) == symmetric
    assert res["color_symmetric"] == symmetric


def test_gram_sampled_against_top_coefficient_f25():
    # 625-dim over F_25 with a nonzero character: a seeded sample of
    # entries plus every complementary pair u + v = tau
    A, chi = _file_spec("gl2_f25.json")
    res = frobenius_gram(chi_reduce(A, chi))
    spec = chi_reduce(A, chi)
    eng = engine_for(A, spec)
    mons = list(uchi_basis(spec)[1])
    tau = tuple(c - 1 for c in spec.caps)
    assert res["dimension"] == 625
    assert res["monomials"] == mons and res["tau"] == tau
    idx = {m: t for t, m in enumerate(mons)}
    rng = random.Random(11)
    pairs = [(rng.randrange(625), rng.randrange(625)) for _ in range(2000)]
    pairs += [(t, idx[tuple(c - a for a, c in zip(m, tau))])
              for t, m in enumerate(mons)]
    codes = gram_codes(A.F, res).tolist()
    for u, v in pairs:
        assert codes[u][v] == _top_coeff(eng, tau, mons[u], mons[v]), (u, v)
    assert res["rank"] == 625 and res["nondegenerate"]
    assert res["color_symmetric"] == _color_symmetric_pairwise(A, mons, codes)


def _gram_outputs(F, res):
    return (gram_codes(F, res).tolist(), res["rank"],
            res["nondegenerate"], res["color_symmetric"])


@pytest.mark.parametrize("slab", [1, 64])
@pytest.mark.parametrize("name", ["gl11.json", "borel2.json",
                                  "z25_class.json"])
def test_gram_slab_cuts_keep_the_outputs(monkeypatch, name, slab):
    # the walk's slabs hold whole source columns, so each slab's sums are
    # final: any slab size gives the same Gram matrix, rank and flags
    A, chi = _file_spec(name)
    want = _gram_outputs(A.F, frobenius_gram(chi_reduce(A, chi)))
    monkeypatch.setattr(envelope, "_SLAB", slab)
    assert _gram_outputs(A.F, frobenius_gram(chi_reduce(A, chi))) == want


def _column_products(spec, res):
    """Per walk step and source column, the number of products the walk
    forms: the column's nonzero rows, each counted as often as it occurs
    as a row of the letter's table."""
    A, dim = spec.algebra, res["dimension"]
    eng = engine_for(A, spec)
    mons = res["monomials"]
    index = {m: t for t, m in enumerate(mons)}
    live = gram_codes(A.F, res) != 0
    counts, stride = [], 1
    for i in range(A.dim - 1, -1, -1):
        size = np.bincount(_basis_table(eng, mons, index, i)[0],
                           minlength=dim)
        for t in range(1, spec.caps[i]):
            cols = range((t - 1) * stride, t * stride)
            counts += [int(size[live[:, c]].sum()) for c in cols]
        stride *= spec.caps[i]
    return counts


@pytest.mark.parametrize("slab", [None, 64])
def test_gram_walk_products_stay_within_the_slab(monkeypatch, slab):
    # every product of the walk holds at most _SLAB entries, unless one
    # source column alone has more, and then exactly that column's
    if slab is not None:
        monkeypatch.setattr(envelope, "_SLAB", slab)
    bound = envelope._SLAB
    sizes = []

    def spy(F, a, b, op):
        if sys._getframe(1).f_code.co_name == "frobenius_gram":
            sizes.append(len(a))
        return digit_product(F, a, b, op)

    digit_product = envelope.digit_product
    monkeypatch.setattr(envelope, "digit_product", spy)
    A = gl2()
    spec = chi_reduce(A, pchar_zero(A))
    res = frobenius_gram(spec)
    assert res["dimension"] == 625
    counts = _column_products(spec, res)
    assert sum(sizes) == sum(counts)
    wide = {c for c in counts if c > bound}
    assert all(s <= bound or s in wide for s in sizes)
    if slab is not None:
        assert wide and wide <= set(sizes)


def _entries(F, codes):
    """G's nonzero entries as the walk keeps them: keys column * dim + row
    in increasing order, and their digits."""
    cols, rows = np.nonzero(codes.T)
    return cols * len(codes) + rows, F.codes_to_array(codes[rows, cols])


def test_color_symmetric_reads_planted_entries():
    A, chi = _file_spec("gl11.json")
    F = A.F
    res = frobenius_gram(chi_reduce(A, chi))
    mons = res["monomials"]
    G = gram_codes(F, res)
    dim = len(mons)
    _classes, cls = _degree_classes(A, mons)
    # the odd monomials: eps(deg u, deg u) = -1, and -1 on any two of them
    odd = [u for u, m in enumerate(mons) if A.eps.value(
        monomial_degree(A, m), monomial_degree(A, m)) == F.neg(F.one)]

    def move_mirror():
        # the mirror G[v, u] of G[u, v] moves to (w, u): no G[x, u] lies
        # between, and w has v's degree, so the mirrored values read the
        # same in order and only the keys differ
        for u in range(dim):
            for v in range(u + 1, dim):
                if not (G[u, v] and G[v, u]):
                    continue
                for w in range(v + 1, dim):
                    if G[w, u]:
                        break
                    if not G[u, w] and cls[w] == cls[v]:
                        H = G.copy()
                        H[w, u], H[v, u] = H[v, u], 0
                        return H
        raise AssertionError("no mirror to move")

    def lone_entry():
        u, v = next((u, v) for u in range(dim) for v in range(u + 1, dim)
                    if not G[u, v] and not G[v, u])
        H = G.copy()
        H[u, v] = F.one
        return H

    def odd_pair_sign():
        u, v = next((u, v) for u in odd for v in odd if u < v and G[u, v])
        H = G.copy()
        H[v, u] = H[u, v]  # a mirror pair of odd degrees needs opposite signs
        return H

    def odd_diagonal():
        H = G.copy()
        H[odd[0], odd[0]] = F.one
        return H

    assert _color_symmetric(A, mons, *_entries(F, G))
    assert _color_symmetric_pairwise(A, mons, G.tolist())
    for plant in (move_mirror, lone_entry, odd_pair_sign, odd_diagonal):
        H = plant()
        assert _color_symmetric_pairwise(A, mons, H.tolist()) is False
        assert _color_symmetric(A, mons, *_entries(F, H)) is False, plant


def _graded_gl2(orders, table, dims):
    F = Field(5)
    G = GradedGroup(orders)
    eps = (Bicharacter(G, F, table) if table is not None
           else trivial_bicharacter(G, F))
    return make_gl(eps, dims)


@pytest.mark.parametrize("name", ["gl11.json", "borel2.json", "z25_class.json",
                                  "gl21.json", "gl2_f25.json",
                                  "anti_z2z2", "z3z2"])
def test_degree_classes_match_monomial_degree(name):
    if name == "anti_z2z2":
        A = _graded_gl2([2, 2], [[1, 4], [4, 1]], {(1, 0): 1, (0, 1): 1})
    elif name == "z3z2":
        A = _graded_gl2([3, 2], None, {(1, 0): 1, (2, 1): 1})
    else:
        A = _file_spec(name)[0]
    mons = list(uchi_basis(chi_reduce(A, pchar_zero(A)))[1])
    classes, cls = _degree_classes(A, mons)
    assert len(set(classes)) == len(classes)
    assert [classes[c] for c in cls] == [monomial_degree(A, m) for m in mons]


def test_gram_too_large():
    # gl(3)/F_5: a dense G of 5^9 x 5^9 cells
    A = gl3()
    spec = chi_reduce(A, pchar_zero(A))
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="Gram matrix"):
            frobenius_gram(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the guard runs before any engine or table is built
    assert getattr(spec, "_engines", {}) == {}


def test_gram_is_never_dense():
    # gl(2)/F_7, 2,401 dims: the walk, the peel and the verdict together
    # take less than a dense G of dim^2 digit cells of 8 bytes would
    A = make_gl(trivial_bicharacter(GradedGroup([]), Field(7)), {(): 2})
    spec = chi_reduce(A, pchar_zero(A))
    tracemalloc.start()
    try:
        res = frobenius_gram(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim = res["dimension"]
    assert dim == 2401 and res["rank"] == dim and res["nondegenerate"]
    assert peak < dim * dim * A.F.k * 8


_CHAIN = """
import json, sys
before = sys.getrecursionlimit()
from colorlie.algebra import ColorAlgebra
from colorlie.envelope import nf_letter, nf_monomial
from colorlie.field import Field
from colorlie.groups import GradedGroup, trivial_bicharacter
A = ColorAlgebra(trivial_bicharacter(GradedGroup([]), Field(5)),
                 ["y", "x"], [(), ()], {(1, 0): {0: 1}})
u = nf_monomial(A, (0, %d)).mul(nf_letter(A, 0))
print(json.dumps([before, sys.getrecursionlimit(),
                  [[list(m), c] for m, c in u.terms.items()]]))
"""


def test_engine_deep_commutation_chain_keeps_recursion_limit():
    # [x, y] = y with y ordered first: x^n.y = y.(x + 1)^n commutes y past
    # all n copies of x one at a time.  A fresh interpreter runs it with
    # its default recursion limit, and the engine must not raise that limit.
    n = 1500
    src = os.path.dirname(os.path.dirname(os.path.abspath(colorlie.__file__)))
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", _CHAIN % n],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    before, after, terms = json.loads(proc.stdout)
    assert after == before
    want = {(1, r): comb(n, r) % 5 for r in range(n + 1) if comb(n, r) % 5}
    assert {tuple(m): c for m, c in terms} == want


# -- Cartan projection ------------------------------------------------------------


def glspec(A, **lin):
    chi = PCharacter(A, linear={A.index_of(k): v for k, v in lin.items()})
    return chi_reduce(A, chi)


def test_hc_fixtures():
    A = gl2()
    spec = glspec(A)
    one = nf_one(A, spec)
    assert harish_chandra(one).eq(one)
    e = nf_letter(A, A.index_of("e_12"), spec)
    f = nf_letter(A, A.index_of("e_21"), spec)
    h = nf_from_element(A, {A.index_of("e_11"): 1, A.index_of("e_22"): 4}, spec)
    assert harish_chandra(e.mul(f)).eq(h)
    # degree-two weight-zero product projects to 2h(h-1)
    got = harish_chandra(e.pow(2).mul(f.pow(2)))
    assert got.eq(h.mul(h).scale(2).sub(h.scale(2)))


def test_hc_weight_errors():
    A = gl2()
    spec = glspec(A)
    e = nf_letter(A, A.index_of("e_12"), spec)
    with pytest.raises(NotWeightZero):
        harish_chandra(e)
    with pytest.raises(ValueError):
        harish_chandra(nf_letter(A, 0))
    other = glspec(gl2())
    with pytest.raises(MixedSpecs):
        harish_chandra(nf_one(A, spec), spec=other)


def test_hc_requires_semisimple_standard():
    A = gl2()
    spec = chi_reduce(A, PCharacter(A, linear={A.index_of("e_21"): 1}))
    with pytest.raises(NotStandard):
        harish_chandra(nf_one(A, spec))


def test_hc_rejects_weight_zero_only_mod_p():
    # e_12.e_23.e_13^4 has weight (5, 0, -5): zero mod 5 but not over Z,
    # and carries no lowering letter, so the read-off is refused
    A = gl3()
    spec = glspec(A)
    mono = [0] * A.dim
    mono[A.index_of("e_12")] = 1
    mono[A.index_of("e_23")] = 1
    mono[A.index_of("e_13")] = 4
    with pytest.raises(NotWeightZero) as err:
        harish_chandra(nf_monomial(A, mono, spec))
    assert "modulo p" in str(err.value)


def test_hc_is_multiplicative_on_weight_zero():
    A = gl3()
    spec = glspec(A, e_11=1, e_22=2, e_33=3)
    tri = A.triangular
    rng = random.Random(5)

    def weight_zero():
        out = nf_one(A, spec).scale(0)
        for _ in range(3):
            e_i, f_i, _ = tri.pairs[rng.choice(tri.pos)]
            a = rng.randrange(3)
            t = nf_letter(A, e_i, spec).pow(a).mul(nf_letter(A, f_i, spec).pow(a))
            out = out.add(t.scale(F5.embed(rng.randrange(1, 5))))
        return out

    for _ in range(6):
        u, v = weight_zero(), weight_zero()
        assert harish_chandra(u.mul(v)).eq(harish_chandra(u).mul(harish_chandra(v)))


def test_hc_super_pair():
    # gl(1|1): odd root, cap 2; gamma(e f) = e_11 + e_22
    A = gl11()
    spec = glspec(A, e_11=2, e_22=3)
    e = nf_letter(A, A.index_of("e_12"), spec)
    f = nf_letter(A, A.index_of("e_21"), spec)
    got = harish_chandra(e.mul(f))
    assert got.eq(nf_from_element(A, {A.index_of("e_11"): 1,
                                      A.index_of("e_22"): 1}, spec))


# -- p-character validation -------------------------------------------------------


def test_pcharacter_rejects_bad_data():
    A = gl11()
    with pytest.raises(ValueError):
        PCharacter(A, linear={A.index_of("e_12"): 1})  # odd index
    line = abelian_line([25], (1,))
    with pytest.raises(ValueError):
        PCharacter(line, linear={0: 1})  # p*deg != 0 needs a class
    with pytest.raises(ValueError):
        PCharacter(line, fclasses=[PowerClass((1,), 0, {0: 1}, 3)])  # wrong s
    with pytest.raises(ValueError):
        PCharacter(line, fclasses=[PowerClass((1,), 0, {0: 2}, 5)])  # c(xi) != 1
    strip = abelian_line([], ())
    with pytest.raises(ValueError):
        PCharacter(strip, fclasses=[PowerClass((), 0, {0: 1}, 1)])  # p*deg = 0
