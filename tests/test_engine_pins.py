"""Recorded rewrite-engine products, Gram matrices and Cartan terms.

For the 13 gl algebras of the gate-3 grading grid over F_5 (gl of total
size 2 under no grading, the super grading and the Z/2 x Z/2 grading with
anticommuting generators), gl(1|1) over F_25 and n+ of gl(3) over F_25,
each at chi = 0, a case pins a sha256 digest over the sorted items of
times_letter(m, j) for every reduced basis monomial m and letter j, and a
digest of the codes of the Gram matrix of `frobenius_gram`.  For the
regular semisimple gl(3)/F_25 slice and for gl(2|1) and gl(1|2) at
chi = 0 it pins the sorted Cartan terms of `f_via_hc` and the reversal.
The recorded values live in tests/pins/engine.json.  When an output is
meant to change, regenerate the file with
``PYTHONPATH=src python tests/test_engine_pins.py`` and check the diff.

The right multiplication tables of `_basis_table`, which send only the
monomials free of the first letter through the engine, are checked entry
for entry against one times_letter per basis monomial: on the cases
above and on specs whose first letter's powers past the cap are a
scalar or leave the powers of that letter.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from colorlie.algebra import ColorAlgebra, make_gl
from colorlie.cli import load_spec
from colorlie.envelope import (_basis_table, chi_reduce, engine_for,
                               frobenius_gram, uchi_basis)
from colorlie.field import Field
from colorlie.groups import (Bicharacter, GradedGroup, super_bicharacter,
                             trivial_bicharacter)
from colorlie.repmod import PCharacter, _cartan_terms, fp_order, pchar_zero

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins", "engine.json")
F5 = Field(5)
F25 = Field(5, 2, [3, 0, 1])


def _zero(A):
    return chi_reduce(A, pchar_zero(A))


def _grid_gl():
    """name -> algebra: the gl of total size 2 of every grading."""
    out = {"trivial_2": make_gl(trivial_bicharacter(GradedGroup([]), F5),
                                {(): 2})}
    _, eps = super_bicharacter(F5)
    for c in ((0,), (1,)):
        out["super_%d_2" % c] = make_gl(eps, {c: 2})
    one, neg = F5.one, F5.neg(F5.one)
    anti = Bicharacter(GradedGroup([2, 2]), F5, [[one, neg], [neg, one]])
    coords = [(0, 0), (1, 0), (0, 1), (1, 1)]
    name = lambda c: "%d%d" % c
    for i, a in enumerate(coords):
        out["anti_%s_2" % name(a)] = make_gl(anti, {a: 2})
        for b in coords[i + 1:]:
            out["anti_%s_%s" % (name(a), name(b))] = make_gl(
                anti, {a: 1, b: 1})
    return out


def _product_cases():
    cases = {"grid_" + n: A for n, A in _grid_gl().items()}
    _, eps = super_bicharacter(F25)
    cases["gl11_f25"] = make_gl(eps, {(0,): 1, (1,): 1})
    cases["nplus_gl3_f25"] = ColorAlgebra(
        trivial_bicharacter(GradedGroup([]), F25), ["e_12", "e_23", "e_13"],
        [(), (), ()], {(0, 1): {2: 1}}, pmap={0: {}, 1: {}, 2: {}})
    return cases


def _cartan_cases():
    A = make_gl(trivial_bicharacter(GradedGroup([]), F25), {(): 3})
    chi = PCharacter(A, linear={A.index_of("e_11"): F25.from_wire([0, 1]),
                                A.index_of("e_22"): F25.from_wire([0, 2])})
    _, eps = super_bicharacter(F5)
    return {"gl3_f25_regss": chi_reduce(A, chi),
            "gl21_f5": _zero(make_gl(eps, {(0,): 2, (1,): 1})),
            "gl12_f5": _zero(make_gl(eps, {(0,): 1, (1,): 2}))}


def _products(name):
    spec = _zero(_product_cases()[name])
    A = spec.algebra
    eng = engine_for(A, spec)
    h = hashlib.sha256()
    _count, mons = uchi_basis(spec)
    mons = list(mons)
    for m in mons:
        for j in range(A.dim):
            items = sorted(eng.times_letter(m, j).items())
            h.update(json.dumps([list(m), j, [[list(k), int(c)]
                                              for k, c in items]]).encode())
    G = frobenius_gram(spec)["gram"]
    codes = np.ascontiguousarray(A.F.array_to_codes(G.a), dtype=np.int64)
    return {"monomials": len(mons), "products": h.hexdigest(),
            "gram": hashlib.sha256(codes.tobytes()).hexdigest()}


def _cartan(name):
    spec = _cartan_cases()[name]
    terms, reversal = _cartan_terms(spec, fp_order(spec.algebra))
    return {"terms": [[list(m), int(c)] for m, c in sorted(terms.items())],
            "reversal": int(reversal)}


def _outputs():
    out = {"products/" + n: _products(n) for n in sorted(_product_cases())}
    out.update({"cartan/" + n: _cartan(n) for n in sorted(_cartan_cases())})
    return out


def _recorded():
    with open(PINS) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(_product_cases()))
def test_engine_products_pinned(name):
    assert _products(name) == _recorded()["products/" + name]


@pytest.mark.parametrize("name", sorted(_cartan_cases()))
def test_cartan_terms_pinned(name):
    assert _cartan(name) == _recorded()["cartan/" + name]


def _table_cases():
    """name -> (reduced spec, whether Z_cap = nf(e_0^cap) leaves the powers
    of the first letter e_0, so that the table takes the engine past the
    cap)."""
    out = {n: (_zero(A), False) for n, A in _product_cases().items()}
    # class-generator cap p * s = 25, Z_25 = 1
    bundle = load_spec(os.path.join(HERE, "specs", "z25_class.json"))
    out["z25_class"] = (chi_reduce(bundle["algebra"], bundle["character"]),
                        False)
    # chi(e_21) = 2 on the first letter: Z_5 = 2^5, a scalar
    A = _grid_gl()["trivial_2"]
    out["gl2_chi_e21"] = (chi_reduce(A, PCharacter(
        A, linear={A.index_of("e_21"): 2})), False)
    # abelian a, b with a^[p] = b: Z_5 = b
    out["abelian_pmap"] = (_zero(ColorAlgebra(
        trivial_bicharacter(GradedGroup([]), F5), ["a", "b"], [(), ()], {},
        pmap={0: {1: 1}, 1: {}})), True)
    # an odd first letter y with [y, y] = c, c even and central: Z_2 = c / 2
    _, eps = super_bicharacter(F5)
    out["odd_square"] = (_zero(ColorAlgebra(
        eps, ["y", "c"], [(1,), (0,)], {(0, 0): {1: 1}}, pmap={1: {}})), True)
    return out


def _per_monomial_table(spec, j):
    """(column, row, code) of every term of m e_j, one times_letter per
    basis monomial m on a fresh engine, sorted."""
    spec = chi_reduce(spec.algebra, spec.chi)
    eng = engine_for(spec.algebra, spec)
    mons = list(uchi_basis(spec)[1])
    index = {m: t for t, m in enumerate(mons)}
    return sorted((t, index[m2], c) for t, m in enumerate(mons)
                  for m2, c in eng.times_letter(m, j).items())


@pytest.mark.parametrize("name", sorted(_table_cases()))
def test_basis_tables_match_per_monomial_products(name):
    spec, leaves = _table_cases()[name]
    A, F = spec.algebra, spec.algebra.F
    eng = engine_for(A, spec)
    cap = spec.caps[0]
    top = tuple([cap - 1] + [0] * (A.dim - 1))
    z = eng.product({top: F.one}, {tuple([1] + [0] * (A.dim - 1)): F.one})
    assert any(any(m[1:]) for m in z) == leaves
    mons = list(uchi_basis(spec)[1])
    index = {m: t for t, m in enumerate(mons)}
    for j in range(A.dim):
        rows, cols, digits = _basis_table(eng, mons, index, j)
        codes = F.array_to_codes(digits)
        got = list(zip(cols.tolist(), rows.tolist(), codes.tolist()))
        assert got == sorted(got)
        assert len({(c, r) for c, r, _ in got}) == len(got)
        assert 0 not in codes
        assert got == _per_monomial_table(spec, j), (name, j)


if __name__ == "__main__":
    with open(PINS, "w") as fh:
        json.dump(_outputs(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stderr.write("wrote %s\n" % PINS)
