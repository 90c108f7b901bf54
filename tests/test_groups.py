"""Grading groups and bicharacters: axiom checks on small frozen cases."""

import pytest

from colorlie.errors import ZeroEntry
from colorlie.groups import (Bicharacter, GradedGroup, super_bicharacter,
                             trivial_bicharacter)


def test_group_arithmetic():
    G = GradedGroup([4, 2])
    a, b = (3, 1), (2, 1)
    assert G.add(a, b) == (1, 0)
    assert G.neg(a) == (1, 1)
    assert G.sub(a, a) == G.zero
    assert G.scale(3, a) == (1, 1)
    assert G.order((1, 0)) == 4
    assert G.order((2, 1)) == 2
    assert G.order(G.zero) == 1
    assert G.size == 8
    assert len(list(G.elements())) == 8
    assert G.element((7, -1)) == (3, 1)


def test_super_bicharacter_valid_split(F5):
    G, eps = super_bicharacter(F5)
    assert eps.validate() == []
    plus, minus = eps.split()
    assert plus == [(0,)] and minus == [(1,)]
    assert eps.value((1,), (1,)) == F5.neg(F5.one)


def test_invalid_super_table(F5):
    G = GradedGroup([2])
    eps = Bicharacter(G, F5, [[2]])
    assert eps.validate()  # eps(1,1)^2 = 4 != 1


def test_trivial_grading(F5):
    for G in (GradedGroup([]), GradedGroup([1])):
        eps = trivial_bicharacter(G, F5)
        assert eps.validate() == []
        plus, minus = eps.split()
        assert minus == [] and len(plus) == G.size == 1


def test_zero_entry_rejected(F5):
    G = GradedGroup([2])
    with pytest.raises(ZeroEntry):
        Bicharacter(G, F5, [[0]])


def test_biadditive_extension_z4(F5):
    # eps(1,1) = 2, an order-4 root of unity mod 5: eps(2,3) = 2^6 = 4
    G = GradedGroup([4])
    eps = Bicharacter(G, F5, [[2]])
    assert eps.value((2,), (3,)) == 4
    assert all(eps.value(a, G.zero) == F5.one for a in G.elements())
    # not a color bicharacter though: antisymmetry fails on the generator
    assert any(kind == "antisymmetry" for kind, _, _ in eps.validate())


def test_order_compatibility_check(F7):
    # eps(1,1) = 3 has multiplicative order 6; on Z/4 the extension is not
    # well defined since 3^4 != 1
    G = GradedGroup([4])
    eps = Bicharacter(G, F7, [[3]])
    assert any(kind == "order" for kind, _, _ in eps.validate())


def test_valid_bicharacter_properties(F5):
    # Z/4 x Z/2 with eps(g1,g1) = -1, eps(g1,g2) = -1, eps(g2,g2) = 1
    G = GradedGroup([4, 2])
    m1 = F5.neg(F5.one)
    eps = Bicharacter(G, F5, [[m1, m1], [m1, 1]])
    assert eps.validate() == []
    plus, minus = eps.split()
    els = list(G.elements())
    for a in els:
        for b in els:
            assert F5.mul(eps.value(a, b), eps.value(b, a)) == F5.one
            for c in els:
                assert eps.value(a, G.add(b, c)) == F5.mul(eps.value(a, b),
                                                           eps.value(a, c))
                assert eps.value(G.add(a, b), c) == F5.mul(eps.value(a, c),
                                                           eps.value(b, c))
    assert sorted(plus + minus) == sorted(els)
    assert set(plus).isdisjoint(minus)
    assert all(eps.value(a, a) == F5.one for a in plus)
    assert all(eps.value(a, a) == m1 for a in minus)
