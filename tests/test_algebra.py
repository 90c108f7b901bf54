"""Color algebra construction, validation, trace form, standard characters."""

import random

import numpy as np
import pytest

from colorlie.algebra import (CharacterStd, ColorAlgebra, bracket_eval,
                              elem_add, elem_clean, elem_scale,
                              jordan_decompose, levi_data, make_gl,
                              matrix_of, pmap_eval,
                              standardize_character, subalgebra, theta,
                              theta_inv, trace_theta, validate_algebra)
from colorlie.errors import (EmptyAlgebra, InvariantError, NeedsExtension,
                             NotZeroDegree, OddElement)
from colorlie.field import Field
from colorlie.groups import (Bicharacter, GradedGroup, super_bicharacter,
                             trivial_bicharacter)
from colorlie.linalg import Mat
from colorlie.repmod import pchar_from_standard


F5 = Field(5)


def gl2():
    G = GradedGroup([])
    return make_gl(trivial_bicharacter(G, F5), {(): 2})


def gl3():
    G = GradedGroup([])
    return make_gl(trivial_bicharacter(G, F5), {(): 3})


def gl11():
    _, eps = super_bicharacter(F5)
    return make_gl(eps, {(0,): 1, (1,): 1})


def anticommuting_eps():
    # Z/2 x Z/2 with eps((1,0),(0,1)) = -1: every degree is even, yet
    # elements in the two generator degrees anticommute
    G = GradedGroup([2, 2])
    m1 = F5.neg(F5.one)
    return Bicharacter(G, F5, [[1, m1], [m1, 1]])


def e(A, name, c=1):
    return {A.index_of(name): c}


# -- construction --------------------------------------------------------------

def test_gl2_shape():
    A = gl2()
    assert A.dim == 4
    assert A.names == ["e_21", "e_11", "e_22", "e_12"]
    tri = A.triangular
    assert [A.names[i] for i in tri.neg] == ["e_21"]
    assert [A.names[i] for i in tri.cartan] == ["e_11", "e_22"]
    assert [A.names[i] for i in tri.pos] == ["e_12"]
    # [e_12, e_21] = e_11 - e_22
    out = bracket_eval(A, e(A, "e_12"), e(A, "e_21"))
    assert out == {A.index_of("e_11"): 1, A.index_of("e_22"): 4}


def test_gl3_basis_order():
    A = gl3()
    assert A.names == ["e_21", "e_32", "e_31", "e_11", "e_22", "e_33",
                       "e_12", "e_23", "e_13"]
    tri = A.triangular
    assert tri.heights[A.index_of("e_31")] == 2
    assert tri.roots[A.index_of("e_12")] == (1, -1, 0)
    assert tri.roots[A.index_of("e_21")] == (-1, 1, 0)


def test_gl11_super_brackets():
    A = gl11()
    i12, i21 = A.index_of("e_12"), A.index_of("e_21")
    # the odd root: [e_12, e_21] = e_12 e_21 + e_21 e_12 = e_11 + e_22
    out = bracket_eval(A, e(A, "e_12"), e(A, "e_21"))
    assert out == {A.index_of("e_11"): 1, A.index_of("e_22"): 1}
    assert bracket_eval(A, e(A, "e_21"), e(A, "e_21")) == {}
    # H_delta for the odd root is e_11 + e_22, and equals [e, f]
    e_idx, f_idx, H = A.triangular.pairs[i12]
    assert (e_idx, f_idx) == (i12, i21)
    assert H == {A.index_of("e_11"): 1, A.index_of("e_22"): 1}
    assert bracket_eval(A, {e_idx: 1}, {f_idx: 1}) == H
    assert not A.is_even(i12)


def test_h_delta_is_bracket_everywhere():
    for A in (gl2(), gl3(), gl11()):
        for t, (e_idx, f_idx, H) in A.triangular.pairs.items():
            assert bracket_eval(A, {e_idx: 1}, {f_idx: 1}) == H


def test_root_pairing():
    # [h, e_delta] = delta(h) e_delta for Cartan h
    for A in (gl3(), gl11()):
        tri = A.triangular
        for t in tri.pos + tri.neg:
            root = tri.roots[t]
            for ci, c in enumerate(tri.cartan):
                out = bracket_eval(A, {c: 1}, {t: 1})
                expect = elem_scale(A.F, {t: 1}, A.F.embed(root[ci]))
                assert out == expect


def test_empty_rejected():
    G = GradedGroup([])
    with pytest.raises(EmptyAlgebra):
        make_gl(trivial_bicharacter(G, F5), {(): 0})


# -- validation ----------------------------------------------------------------

def test_make_gl_validates_clean():
    for A in (gl2(), gl11()):
        assert validate_algebra(A) == []
    G = GradedGroup([2, 2])
    A = make_gl(anticommuting_eps(), {(0, 0): 1, (1, 0): 1})
    assert validate_algebra(A) == []


def test_corrupted_structure_reported():
    A = gl2()
    i11, i12, i21 = (A.index_of(n) for n in ("e_11", "e_12", "e_21"))
    A.structure[(i12, i21)] = {i11: 1}  # drops the -e_22 term on one side
    report = validate_algebra(A)
    kinds = {kind for kind, _, _ in report}
    assert "skew" in kinds
    assert ("jacobi", (i11, i12, i21)) in {(k, w) for k, w, _ in report}


def test_corrupted_pmap_reported():
    A = gl2()
    i12 = A.index_of("e_12")
    A.pmap[i12] = {i12: 1}
    report = validate_algebra(A)
    kinds = {kind for kind, _, _ in report}
    assert "pmap_ad" in kinds or "pmap_matrix" in kinds


def bare(A):
    """A copy of A's structure and p-map without the matrix realization."""
    return ColorAlgebra(A.eps, A.names, A.degrees, A.structure, pmap=A.pmap)


def broken(name):
    """An algebra with one deliberate fault, named by the check it trips."""
    if name == "skew":        # one side of [e_12, e_21] has the wrong sign
        A = gl11()
        A.structure[(A.index_of("e_12"), A.index_of("e_21"))] = {
            A.index_of("e_11"): 1, A.index_of("e_22"): 4}
    elif name == "degree":    # an odd letter relabelled even
        _, eps = super_bicharacter(F5)
        A = make_gl(eps, {(0,): 2, (1,): 1})
        A.degrees[A.index_of("e_13")] = (0,)
    elif name == "jacobi":    # [e_11, e_12] = 2 e_12, skew-symmetric
        A = gl2()
        i11, i12 = A.index_of("e_11"), A.index_of("e_12")
        A.structure[(i11, i12)] = {i12: 2}
        A.structure[(i12, i11)] = {i12: 3}
    elif name == "square":    # [y, y] = e_11 for the odd y = e_12
        A = gl11()
        i12 = A.index_of("e_12")
        A.structure[(i12, i12)] = {A.index_of("e_11"): 1}
    elif name == "pmap":      # e_12^[p] = e_12
        A = gl2()
        A.pmap[A.index_of("e_12")] = {A.index_of("e_12"): 1}
    elif name == "additivity":  # e_11^[p] = e_11 + e_12, no matrices
        A = bare(gl2())
        A.pmap[A.index_of("e_11")] = {A.index_of("e_11"): 1,
                                      A.index_of("e_12"): 1}
    return A


BROKEN_REPORTS = {
    'skew': [
        ('skew', (0, 3), '[y,x] != -eps(b,a)[x,y]'),
        ('skew', (3, 0), '[y,x] != -eps(b,a)[x,y]'),
        ('jacobi', (0, 0, 3), 'color Jacobi fails on (e_21,e_21,e_12)'),
        ('jacobi', (0, 1, 3), 'color Jacobi fails on (e_21,e_11,e_12)'),
        ('jacobi', (0, 2, 3), 'color Jacobi fails on (e_21,e_22,e_12)'),
        ('jacobi', (0, 3, 0), 'color Jacobi fails on (e_21,e_12,e_21)'),
        ('jacobi', (0, 3, 1), 'color Jacobi fails on (e_21,e_12,e_11)'),
        ('jacobi', (0, 3, 2), 'color Jacobi fails on (e_21,e_12,e_22)'),
        ('jacobi', (0, 3, 3), 'color Jacobi fails on (e_21,e_12,e_12)'),
        ('jacobi', (1, 0, 3), 'color Jacobi fails on (e_11,e_21,e_12)'),
        ('jacobi', (1, 3, 0), 'color Jacobi fails on (e_11,e_12,e_21)'),
        ('jacobi', (2, 0, 3), 'color Jacobi fails on (e_22,e_21,e_12)'),
        ('jacobi', (2, 3, 0), 'color Jacobi fails on (e_22,e_12,e_21)'),
        ('jacobi', (3, 0, 0), 'color Jacobi fails on (e_12,e_21,e_21)'),
        ('jacobi', (3, 0, 1), 'color Jacobi fails on (e_12,e_21,e_11)'),
        ('jacobi', (3, 0, 2), 'color Jacobi fails on (e_12,e_21,e_22)'),
        ('jacobi', (3, 0, 3), 'color Jacobi fails on (e_12,e_21,e_12)'),
        ('jacobi', (3, 1, 0), 'color Jacobi fails on (e_12,e_11,e_21)'),
        ('jacobi', (3, 2, 0), 'color Jacobi fails on (e_12,e_22,e_21)'),
        ('jacobi', (3, 3, 0), 'color Jacobi fails on (e_12,e_12,e_21)'),
        ('bracket_square', (3, 0), '[[y,y],z] != 2[y,[y,z]]'),
    ],
    'degree': [
        ('degree', (0, 8, 7), '[e_21,e_13] hits e_23 outside degree'),
        ('degree', (1, 8, 6), '[e_32,e_13] hits e_12 outside degree'),
        ('degree', (2, 8, 5), '[e_31,e_13] hits e_33 outside degree'),
        ('degree', (2, 8, 3), '[e_31,e_13] hits e_11 outside degree'),
        ('degree', (6, 7, 8), '[e_12,e_23] hits e_13 outside degree'),
        ('degree', (7, 6, 8), '[e_23,e_12] hits e_13 outside degree'),
        ('degree', (8, 0, 7), '[e_13,e_21] hits e_23 outside degree'),
        ('degree', (8, 1, 6), '[e_13,e_32] hits e_12 outside degree'),
        ('degree', (8, 2, 3), '[e_13,e_31] hits e_11 outside degree'),
        ('degree', (8, 2, 5), '[e_13,e_31] hits e_33 outside degree'),
        ('skew', (1, 8), '[y,x] != -eps(b,a)[x,y]'),
        ('skew', (2, 8), '[y,x] != -eps(b,a)[x,y]'),
        ('skew', (8, 1), '[y,x] != -eps(b,a)[x,y]'),
        ('skew', (8, 2), '[y,x] != -eps(b,a)[x,y]'),
        ('jacobi', (0, 1, 8), 'color Jacobi fails on (e_21,e_32,e_13)'),
        ('jacobi', (0, 8, 1), 'color Jacobi fails on (e_21,e_13,e_32)'),
        ('jacobi', (0, 8, 2), 'color Jacobi fails on (e_21,e_13,e_31)'),
        ('jacobi', (1, 0, 8), 'color Jacobi fails on (e_32,e_21,e_13)'),
        ('jacobi', (1, 2, 8), 'color Jacobi fails on (e_32,e_31,e_13)'),
        ('jacobi', (1, 3, 8), 'color Jacobi fails on (e_32,e_11,e_13)'),
        ('jacobi', (1, 5, 8), 'color Jacobi fails on (e_32,e_33,e_13)'),
        ('jacobi', (1, 7, 8), 'color Jacobi fails on (e_32,e_23,e_13)'),
        ('jacobi', (1, 8, 0), 'color Jacobi fails on (e_32,e_13,e_21)'),
        ('jacobi', (1, 8, 2), 'color Jacobi fails on (e_32,e_13,e_31)'),
        ('jacobi', (1, 8, 4), 'color Jacobi fails on (e_32,e_13,e_22)'),
        ('jacobi', (1, 8, 5), 'color Jacobi fails on (e_32,e_13,e_33)'),
        ('jacobi', (2, 0, 8), 'color Jacobi fails on (e_31,e_21,e_13)'),
        ('jacobi', (2, 1, 8), 'color Jacobi fails on (e_31,e_32,e_13)'),
        ('jacobi', (2, 3, 8), 'color Jacobi fails on (e_31,e_11,e_13)'),
        ('jacobi', (2, 5, 8), 'color Jacobi fails on (e_31,e_33,e_13)'),
        ('jacobi', (2, 7, 8), 'color Jacobi fails on (e_31,e_23,e_13)'),
        ('jacobi', (2, 8, 1), 'color Jacobi fails on (e_31,e_13,e_32)'),
        ('jacobi', (2, 8, 3), 'color Jacobi fails on (e_31,e_13,e_11)'),
        ('jacobi', (2, 8, 5), 'color Jacobi fails on (e_31,e_13,e_33)'),
        ('jacobi', (2, 8, 6), 'color Jacobi fails on (e_31,e_13,e_12)'),
        ('jacobi', (3, 2, 8), 'color Jacobi fails on (e_11,e_31,e_13)'),
        ('jacobi', (3, 8, 1), 'color Jacobi fails on (e_11,e_13,e_32)'),
        ('jacobi', (3, 8, 2), 'color Jacobi fails on (e_11,e_13,e_31)'),
        ('jacobi', (4, 1, 8), 'color Jacobi fails on (e_22,e_32,e_13)'),
        ('jacobi', (5, 1, 8), 'color Jacobi fails on (e_33,e_32,e_13)'),
        ('jacobi', (5, 2, 8), 'color Jacobi fails on (e_33,e_31,e_13)'),
        ('jacobi', (5, 8, 1), 'color Jacobi fails on (e_33,e_13,e_32)'),
        ('jacobi', (5, 8, 2), 'color Jacobi fails on (e_33,e_13,e_31)'),
        ('jacobi', (6, 2, 8), 'color Jacobi fails on (e_12,e_31,e_13)'),
        ('jacobi', (7, 8, 1), 'color Jacobi fails on (e_23,e_13,e_32)'),
        ('jacobi', (7, 8, 2), 'color Jacobi fails on (e_23,e_13,e_31)'),
        ('jacobi', (8, 0, 1), 'color Jacobi fails on (e_13,e_21,e_32)'),
        ('jacobi', (8, 1, 0), 'color Jacobi fails on (e_13,e_32,e_21)'),
        ('jacobi', (8, 1, 2), 'color Jacobi fails on (e_13,e_32,e_31)'),
        ('jacobi', (8, 1, 3), 'color Jacobi fails on (e_13,e_32,e_11)'),
        ('jacobi', (8, 1, 5), 'color Jacobi fails on (e_13,e_32,e_33)'),
        ('jacobi', (8, 1, 7), 'color Jacobi fails on (e_13,e_32,e_23)'),
        ('jacobi', (8, 2, 0), 'color Jacobi fails on (e_13,e_31,e_21)'),
        ('jacobi', (8, 2, 1), 'color Jacobi fails on (e_13,e_31,e_32)'),
        ('jacobi', (8, 2, 3), 'color Jacobi fails on (e_13,e_31,e_11)'),
        ('jacobi', (8, 2, 5), 'color Jacobi fails on (e_13,e_31,e_33)'),
        ('jacobi', (8, 2, 7), 'color Jacobi fails on (e_13,e_31,e_23)'),
        ('jacobi', (8, 3, 2), 'color Jacobi fails on (e_13,e_11,e_31)'),
        ('jacobi', (8, 4, 1), 'color Jacobi fails on (e_13,e_22,e_32)'),
        ('jacobi', (8, 5, 1), 'color Jacobi fails on (e_13,e_33,e_32)'),
        ('jacobi', (8, 5, 2), 'color Jacobi fails on (e_13,e_33,e_31)'),
        ('jacobi', (8, 6, 2), 'color Jacobi fails on (e_13,e_12,e_31)'),
        ('pmap_degree', (8,), 'p-map missing on even indices'),
    ],
    'jacobi': [
        ('jacobi', (0, 1, 3), 'color Jacobi fails on (e_21,e_11,e_12)'),
        ('jacobi', (0, 3, 1), 'color Jacobi fails on (e_21,e_12,e_11)'),
        ('jacobi', (1, 0, 3), 'color Jacobi fails on (e_11,e_21,e_12)'),
        ('jacobi', (1, 3, 0), 'color Jacobi fails on (e_11,e_12,e_21)'),
        ('jacobi', (3, 0, 1), 'color Jacobi fails on (e_12,e_21,e_11)'),
        ('jacobi', (3, 1, 0), 'color Jacobi fails on (e_12,e_11,e_21)'),
        ('pmap_additivity', (0, 3), '(x+y)^[p] != x^[p]+y^[p]+sum s_i(x,y)'),
    ],
    'square': [
        ('jacobi', (0, 3, 3), 'color Jacobi fails on (e_21,e_12,e_12)'),
        ('jacobi', (1, 3, 3), 'color Jacobi fails on (e_11,e_12,e_12)'),
        ('jacobi', (2, 3, 3), 'color Jacobi fails on (e_22,e_12,e_12)'),
        ('jacobi', (3, 0, 3), 'color Jacobi fails on (e_12,e_21,e_12)'),
        ('jacobi', (3, 1, 3), 'color Jacobi fails on (e_12,e_11,e_12)'),
        ('jacobi', (3, 2, 3), 'color Jacobi fails on (e_12,e_22,e_12)'),
        ('jacobi', (3, 3, 0), 'color Jacobi fails on (e_12,e_12,e_21)'),
        ('jacobi', (3, 3, 1), 'color Jacobi fails on (e_12,e_12,e_11)'),
        ('jacobi', (3, 3, 2), 'color Jacobi fails on (e_12,e_12,e_22)'),
        ('jacobi', (3, 3, 3), 'color Jacobi fails on (e_12,e_12,e_12)'),
        ('bracket_square', 3, '[[y,y],y] != 0'),
        ('bracket_square', (3, 0), '[[y,y],z] != 2[y,[y,z]]'),
        ('bracket_square', (3, 1), '[[y,y],z] != 2[y,[y,z]]'),
        ('bracket_square', (3, 2), '[[y,y],z] != 2[y,[y,z]]'),
        ('bracket_square', (3, 3), '[[y,y],z] != 2[y,[y,z]]'),
    ],
    'pmap': [
        ('pmap_ad', (3, 0), 'ad(x^[p]) != (ad x)^p'),
        ('pmap_matrix', 3, 'x^[p] differs from the matrix p-th power'),
        ('pmap_additivity', (0, 3), '(x+y)^[p] != x^[p]+y^[p]+sum s_i(x,y)'),
        ('pmap_additivity', (1, 3), '(x+y)^[p] != x^[p]+y^[p]+sum s_i(x,y)'),
        ('pmap_additivity', (2, 3), '(x+y)^[p] != x^[p]+y^[p]+sum s_i(x,y)'),
    ],
    'additivity': [
        ('pmap_ad', (1, 0), 'ad(x^[p]) != (ad x)^p'),
        ('pmap_additivity', (0, 1), '(x+y)^[p] != x^[p]+y^[p]+sum s_i(x,y)'),
        ('pmap_additivity', (1, 2), '(x+y)^[p] != x^[p]+y^[p]+sum s_i(x,y)'),
        ('pmap_additivity', (1, 3), '(x+y)^[p] != x^[p]+y^[p]+sum s_i(x,y)'),
    ],
}


@pytest.mark.parametrize("name", sorted(BROKEN_REPORTS))
def test_broken_algebra_report_verbatim(name):
    assert validate_algebra(broken(name)) == BROKEN_REPORTS[name]


def test_valid_algebra_without_matrices_passes():
    _, eps = super_bicharacter(F5)
    assert validate_algebra(bare(make_gl(eps, {(0,): 2, (1,): 1}))) == []
    assert validate_algebra(bare(gl3())) == []


# (algebra, [(x, x^[p])]) with x's terms in the order pmap_eval reads them
PMAP_PINS = [
    (gl2, [({1: 2, 2: 1, 3: 2}, {1: 2, 2: 1, 3: 2}),
           ({3: 2, 1: 3}, {1: 3, 3: 2}),
           ({2: 2, 0: 2, 3: 1}, {3: 4, 1: 2, 0: 3})]),
    (lambda: make_gl(trivial_bicharacter(GradedGroup([]), Field(5, 2)),
                     {(): 3}),
     [({7: 11, 0: 3, 6: 20, 3: 24, 8: 8, 4: 19},
       {6: 21, 0: 23, 7: 2, 3: 11, 4: 7, 8: 17}),
      ({4: 5, 7: 8, 5: 3, 2: 13, 6: 13, 1: 15, 0: 24, 8: 16, 3: 14},
       {4: 5, 5: 16, 0: 2, 2: 13, 8: 1, 3: 16, 1: 23, 6: 10, 7: 8}),
      ({1: 5, 0: 17, 8: 19, 5: 21, 3: 15, 4: 2, 6: 14, 2: 4},
       {6: 16, 7: 8, 2: 7, 5: 22, 8: 16, 3: 24, 4: 2, 0: 17, 1: 12})]),
    (lambda: bare(gl2()),
     [({3: 2, 0: 1}, {0: 4, 3: 3}),
      ({2: 1, 0: 4, 1: 1, 3: 3}, {2: 1, 1: 1, 3: 2, 0: 1}),
      ({2: 4, 3: 1, 0: 2, 1: 2}, {0: 3, 3: 4, 1: 4, 2: 2})]),
    # a p-map that is not additive
    (lambda: broken("additivity"),
     [({1: 2, 0: 1}, {1: 2, 3: 2, 0: 1}),
      ({1: 3, 0: 3, 2: 1}, {1: 3, 3: 3, 2: 1, 0: 3}),
      ({1: 4, 3: 3, 2: 3}, {1: 4, 2: 3, 3: 2})]),
]


@pytest.mark.parametrize("case", range(len(PMAP_PINS)))
def test_pmap_eval_pinned(case):
    make, pins = PMAP_PINS[case]
    A = make()
    for x, want in pins:
        assert pmap_eval(A, x) == want


def test_pmap_eval_matches_matrix_power():
    rng = random.Random(11)
    F13 = Field(13)
    gl2_f13 = make_gl(trivial_bicharacter(GradedGroup([]), F13), {(): 2})
    for A in (gl2(), gl11(), gl2_f13):
        F = A.F
        zero = A.group.zero
        evens = [i for i in range(A.dim) if A.degrees[i] == zero]
        for _ in range(8):
            x = {i: rng.randrange(F.q) for i in evens}
            got = matrix_of(A, pmap_eval(A, x))
            assert got == matrix_of(A, x).pow_int(F.p)
            rx = elem_scale(F, x, 2)
            assert pmap_eval(A, rx) == elem_scale(F, pmap_eval(A, x),
                                                  F.pow(2, F.p))


def test_pmap_eval_fixed_point():
    A = gl2()
    x = elem_add(F5, e(A, "e_12"), e(A, "e_21"))
    assert pmap_eval(A, x) == x  # M^2 = I so M^5 = M


def test_pmap_eval_odd_rejected():
    A = gl11()
    with pytest.raises(OddElement):
        pmap_eval(A, e(A, "e_12"))


# -- trace form ----------------------------------------------------------------

def test_trace_form_values():
    A = gl2()
    assert trace_theta(A, e(A, "e_12"), e(A, "e_21")) == 1
    assert trace_theta(A, e(A, "e_12"), e(A, "e_12")) == 0
    B = gl11()
    assert trace_theta(B, e(B, "e_12"), e(B, "e_21")) == F5.neg(F5.one)


def test_trace_form_nondegenerate_and_invariant():
    # b([x,y],z) - b(x,[y,z]) = (eps(deg z, deg z) - eps(deg x, deg x)) tr(xyz):
    # plain invariance whenever x and z have equal parity, and in particular
    # on every basis triple of a fully even algebra
    for A in (gl2(), gl11()):
        F, eps = A.F, A.eps
        n = A.dim
        gram = Mat.from_codes(
            A.F, [[trace_theta(A, {i: 1}, {j: 1}) for j in range(n)]
                  for i in range(n)])
        assert gram.rank() == n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = trace_theta(A, bracket_eval(A, {i: 1}, {j: 1}), {k: 1})
                    rhs = trace_theta(A, {i: 1}, bracket_eval(A, {j: 1}, {k: 1}))
                    t = (matrix_of(A, {i: 1}) @ matrix_of(A, {j: 1})
                         @ matrix_of(A, {k: 1})).trace()
                    corr = F.mul(F.sub(eps.value(A.degrees[k], A.degrees[k]),
                                       eps.value(A.degrees[i], A.degrees[i])), t)
                    assert F.sub(lhs, rhs) == corr
                    if A.is_even(i) == A.is_even(k):
                        assert lhs == rhs


def test_trace_form_mixed_parity_counterexample():
    # the naive identity b([x,y],z) = b(x,[y,z]) fails across parities
    A = gl11()
    x, y, z = e(A, "e_11"), e(A, "e_12"), e(A, "e_21")
    assert trace_theta(A, bracket_eval(A, x, y), z) == F5.neg(F5.one)
    assert trace_theta(A, x, bracket_eval(A, y, z)) == F5.one


def _as_elem(A, X):
    out = {}
    for i in range(A.dim):
        Mi = A.matrices[i]
        nz = np.argwhere(Mi.a.any(axis=-1))
        r, c = int(nz[0][0]), int(nz[0][1])
        v = X.entry(r, c)
        if v:
            out[i] = v
    return out


def conj_matrix(A, g, x):
    """g x g^-1 pulled back to a coefficient dict (gl realization)."""
    return _as_elem(A, g @ matrix_of(A, x) @ g.inv())


def test_trace_form_conjugation_invariant():
    rng = random.Random(12)
    A = gl11()
    # block-diagonal invertible g for blocks (1, 1)
    for _ in range(5):
        a, b = rng.randrange(1, 5), rng.randrange(1, 5)
        g = Mat.from_codes(F5, [[a, 0], [0, b]])
        for i in range(A.dim):
            for j in range(A.dim):
                x, y = {i: 1}, {j: 1}
                assert (trace_theta(A, conj_matrix(A, g, x), conj_matrix(A, g, y))
                        == trace_theta(A, x, y))
                assert (trace_theta(A, conj_matrix(A, g, x), y)
                        == trace_theta(A, x, conj_matrix(A, g.inv(), y)))


def test_theta_roundtrip():
    rng = random.Random(13)
    for A in (gl2(), gl11()):
        for _ in range(6):
            x = {i: rng.randrange(F5.q) for i in range(A.dim)}
            assert theta_inv(A, theta(A, x)) == elem_clean(x)
        chi = [rng.randrange(F5.q) for _ in range(A.dim)]
        assert theta(A, theta_inv(A, chi)) == chi


# -- Jordan decomposition -------------------------------------------------------

def test_jordan_textbook():
    A = gl2()
    x = {A.index_of("e_11"): 1, A.index_of("e_22"): 1, A.index_of("e_12"): 1}
    xs, xn = jordan_decompose(A, x)
    assert xs == {A.index_of("e_11"): 1, A.index_of("e_22"): 1}
    assert xn == {A.index_of("e_12"): 1}
    d = {A.index_of("e_11"): 2, A.index_of("e_22"): 3}
    assert jordan_decompose(A, d) == (d, {})


def test_jordan_semisimple_part_diagonalizable():
    rng = random.Random(14)
    A = gl2()
    zero = A.group.zero
    for _ in range(10):
        x = {i: rng.randrange(F5.q) for i in range(A.dim)
             if A.degrees[i] == zero}
        try:
            xs, xn = jordan_decompose(A, x)
        except NeedsExtension as err:
            assert err.degree > 1
            continue
        X = matrix_of(A, xs)
        prod = Mat.identity(F5, 2)
        for lam, _ in F5.poly_roots(X.charpoly()):
            prod = prod @ (X - Mat.identity(F5, 2).scale(lam))
        assert prod.is_zero()  # squarefree split minimal polynomial


def test_jordan_needs_extension():
    A = gl2()
    # companion matrix of the irreducible x^2 + 2
    x = {A.index_of("e_12"): 3, A.index_of("e_21"): 1}
    with pytest.raises(NeedsExtension) as exc:
        jordan_decompose(A, x)
    assert exc.value.degree == 2
    F25 = Field(5, 2)
    G = GradedGroup([])
    B = make_gl(trivial_bicharacter(G, F25), {(): 2})
    y = {B.index_of("e_12"): 3, B.index_of("e_21"): 1}
    ys, yn = jordan_decompose(B, y)
    assert elem_add(F25, ys, yn) == y and yn == {}


def test_jordan_invariants_raise_typed_errors(monkeypatch):
    import colorlie.algebra as algebra
    A = gl2()
    i11, i12, i22 = (A.index_of(n) for n in ("e_11", "e_12", "e_22"))
    with monkeypatch.context() as m:   # claim a double eigenvalue 1
        m.setattr(algebra, "_eigen_data", lambda F, X: [(1, 2)])
        with pytest.raises(InvariantError, match="multiplicity"):
            jordan_decompose(A, {i11: 1, i22: 2})
    with monkeypatch.context() as m:   # the diagonal, not the semisimple part
        m.setattr(algebra, "_semisimple_part", lambda F, X: Mat(
            F, X.a * np.eye(X.shape[0], dtype=np.int64)[:, :, None]))
        with pytest.raises(InvariantError, match="commute"):
            jordan_decompose(A, {i11: 1, i12: 1})
    with monkeypatch.context() as m:   # no semisimple part at all
        m.setattr(algebra, "_semisimple_part",
                  lambda F, X: Mat.zeros(F, *X.shape))
        with pytest.raises(InvariantError, match="nilpotent"):
            jordan_decompose(A, {i11: 1})


def test_jordan_rejects_mixed_degree():
    A = gl11()
    with pytest.raises(NotZeroDegree):
        jordan_decompose(A, e(A, "e_12"))


# -- standard characters ---------------------------------------------------------

def test_standardize_zero():
    A = gl2()
    std = standardize_character(A, [0] * A.dim)
    assert std.is_zero()
    assert std.witness_g == Mat.identity(F5, 2)


def test_standardize_diagonal():
    A = gl2()
    chi = theta(A, {A.index_of("e_11"): 1, A.index_of("e_22"): 2})
    std = standardize_character(A, chi)
    assert std.chi_n == {}
    assert std.chi_s == {A.index_of("e_11"): 1, A.index_of("e_22"): 2}


def test_standardize_nilpotent():
    A = gl2()
    # theta_inv(chi) = e_21; the witness must flip it to strictly upper form
    chi = theta(A, e(A, "e_21"))
    std = standardize_character(A, chi)
    assert std.chi_s == {}
    assert list(std.chi_n) == [A.index_of("e_21")]
    _verify_witness(A, chi, std)


def test_standardize_mixed_and_invariants():
    rng = random.Random(15)
    A = gl2()
    zero = A.group.zero
    for _ in range(12):
        chi = [rng.randrange(F5.q) if A.degrees[i] == zero else 0
               for i in range(A.dim)]
        try:
            std = standardize_character(A, chi)
        except NeedsExtension:
            continue
        tri = A.triangular
        assert set(std.chi_s) <= set(tri.cartan)
        assert set(std.chi_n) <= set(tri.neg)
        for t in tri.pos:
            if std.h_delta_value(t) != 0:
                _, f_idx, _ = tri.pairs[t]
                assert std.chi_n.get(f_idx, 0) == 0
        _verify_witness(A, chi, std)


def _verify_witness(A, chi, std):
    """chi^g(x) = chi(g^-1 x g) on every basis element."""
    g = std.witness_g
    ginv = g.inv()
    for k in range(A.dim):
        Y = ginv @ A.matrices[k] @ g
        val = A.F.zero
        y = _as_elem(A, Y)
        for i, c in y.items():
            val = A.F.add(val, A.F.mul(c, chi[i]))
        assert val == std.value(k)


def test_standardize_semisimple_despite_lower_entry():
    A = gl2()
    # distinct eigenvalues force chi_n = 0 even though theta_inv is not diagonal
    chi = theta(A, {A.index_of("e_11"): 1, A.index_of("e_22"): 2,
                    A.index_of("e_21"): 1})
    std = standardize_character(A, chi)
    assert std.chi_n == {}
    assert sorted(std.chi_s.values()) == [1, 2]


def test_standardize_rejects_off_degree():
    A = gl11()
    chi = [0] * A.dim
    chi[A.index_of("e_12")] = 1
    with pytest.raises(NotZeroDegree):
        standardize_character(A, chi)


def test_standardize_super_diagonal():
    A = gl11()
    chi = theta(A, {A.index_of("e_11"): 2, A.index_of("e_22"): 2})
    std = standardize_character(A, chi)
    assert std.chi_n == {}
    i12 = A.index_of("e_12")
    # odd root: H_delta = e_11 + e_22, so chi_s(H_delta) = 4
    assert std.h_delta_value(i12) == 4


def test_pchar_from_standard_carries_the_standard_values():
    # the standard form lives on degree zero, which p kills, so the
    # p-character keeps every nonzero standard value and nothing else
    rng = random.Random(16)
    for A in (gl2(), gl3(), gl11()):
        zero = A.group.zero
        for _ in range(8):
            chi = [rng.randrange(F5.q) if A.degrees[i] == zero else 0
                   for i in range(A.dim)]
            try:
                std = standardize_character(A, chi)
            except NeedsExtension:
                continue
            pc = pchar_from_standard(A, std)
            assert pc.linear == {i: v for i, v in enumerate(std.values())
                                 if v}
            assert pc.fclasses == []


# -- Levi data -------------------------------------------------------------------

def test_levi_zero_character():
    A = gl2()
    std = standardize_character(A, [0] * A.dim)
    z, p0, nplus = levi_data(A, std)
    assert z == p0 == list(range(A.dim))
    assert nplus == []


def test_levi_gl2_regular():
    A = gl2()
    std = standardize_character(A, theta(A, {A.index_of("e_11"): 1,
                                             A.index_of("e_22"): 2}))
    z, p0, nplus = levi_data(A, std)
    assert sorted(A.names[i] for i in z) == ["e_11", "e_22"]
    assert [A.names[i] for i in nplus] == ["e_12"]
    assert sorted(A.names[i] for i in p0) == ["e_11", "e_12", "e_22"]


def test_levi_gl3_levi_block():
    A = gl3()
    std = standardize_character(A, theta(A, {A.index_of("e_11"): 1,
                                             A.index_of("e_22"): 1,
                                             A.index_of("e_33"): 2}))
    z, p0, nplus = levi_data(A, std)
    assert sorted(A.names[i] for i in nplus) == ["e_13", "e_23"]
    assert sorted(A.names[i] for i in z) == ["e_11", "e_12", "e_21",
                                             "e_22", "e_33"]


# -- subalgebras -----------------------------------------------------------------

def test_subalgebra_f_span():
    A = gl3()
    S = subalgebra(A, A.triangular.neg)
    assert S.dim == 3
    assert validate_algebra(S) == []
    i21, i32, i31 = (S.names.index(n) for n in ("e_21", "e_32", "e_31"))
    assert bracket_eval(S, {i32: 1}, {i21: 1}) == {i31: 1}


def test_subalgebra_rejects_open_span():
    A = gl3()
    with pytest.raises(ValueError):
        subalgebra(A, [A.index_of("e_12"), A.index_of("e_21")])
