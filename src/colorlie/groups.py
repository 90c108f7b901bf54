"""Finite abelian grading groups and their field-valued bicharacters.

A group is a product of cyclic factors; elements are int tuples reduced
componentwise.  A bicharacter is stored by its values on the cyclic
generators and extended biadditively; validation checks the antisymmetry
axiom on generator pairs and the order compatibilities that make the
biadditive extension well defined on the quotient.
"""

from math import gcd, lcm, prod
import itertools

from .errors import ZeroEntry


class GradedGroup:
    def __init__(self, cyclic_orders):
        orders = tuple(int(n) for n in cyclic_orders)
        if any(n < 1 for n in orders):
            raise ValueError("cyclic orders must be positive, got %r" % (orders,))
        self.orders = orders
        self.rank = len(orders)
        self.zero = (0,) * self.rank

    def element(self, vec):
        if len(vec) != self.rank:
            raise ValueError("expected %d components, got %r" % (self.rank, vec))
        return tuple(int(v) % n for v, n in zip(vec, self.orders))

    def add(self, a, b):
        return tuple((x + y) % n for x, y, n in zip(a, b, self.orders))

    def neg(self, a):
        return tuple((-x) % n for x, n in zip(a, self.orders))

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def scale(self, m, a):
        return tuple((m * x) % n for x, n in zip(a, self.orders))

    def order(self, a):
        o = 1
        for x, n in zip(a, self.orders):
            o = lcm(o, n // gcd(x, n))
        return o

    def elements(self):
        return itertools.product(*(range(n) for n in self.orders))

    @property
    def size(self):
        return prod(self.orders)

    def __eq__(self, other):
        return isinstance(other, GradedGroup) and self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return "GradedGroup(%s)" % (list(self.orders),)


class Bicharacter:
    def __init__(self, group, field, table):
        """table[i][j] = eps(g_i, g_j) as field codes, one row per generator."""
        self.group = group
        self.F = field
        if len(table) != group.rank or any(len(r) != group.rank for r in table):
            raise ValueError("table must be %d x %d" % (group.rank, group.rank))
        for i, row in enumerate(table):
            for j, v in enumerate(row):
                if v == field.zero:
                    raise ZeroEntry("bicharacter value at generators (%d, %d) is zero"
                                    % (i, j))
        self.table = tuple(tuple(int(v) for v in row) for row in table)
        self._cache = {}

    def value(self, a, b):
        key = (a, b)
        v = self._cache.get(key)
        if v is None:
            F = self.F
            v = F.one
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        if y:
                            v = F.mul(v, F.pow(self.table[i][j], x * y))
            self._cache[key] = v
        return v

    def is_even(self, a):
        return self.value(a, a) == self.F.one

    def split(self):
        plus, minus = [], []
        for a in self.group.elements():
            (plus if self.is_even(a) else minus).append(a)
        return plus, minus

    def validate(self):
        """Axiom report on generators; empty list means valid."""
        F, G = self.F, self.group
        report = []
        for i in range(G.rank):
            for j in range(G.rank):
                v = F.mul(self.table[i][j], self.table[j][i])
                if v != F.one:
                    report.append(("antisymmetry", (i, j),
                                   "eps(g%d,g%d)*eps(g%d,g%d) = %d != 1"
                                   % (i, j, j, i, v)))
                # eps(g_i, g_j)^order must be 1 on both sides, otherwise the
                # biadditive extension is not well defined modulo the orders
                for n, side in ((G.orders[i], "left"), (G.orders[j], "right")):
                    if F.pow(self.table[i][j], n) != F.one:
                        report.append(("order", (i, j),
                                       "eps(g%d,g%d)^%d != 1 (%s order)"
                                       % (i, j, n, side)))
        if not report:
            for a in G.elements():
                v = self.value(a, a)
                if F.mul(v, v) != F.one:
                    report.append(("diagonal", a, "eps(a,a)^2 != 1"))
        return report

    def __eq__(self, other):
        return (isinstance(other, Bicharacter) and self.group == other.group
                and self.F == other.F and self.table == other.table)

    def __hash__(self):
        return hash((self.group, self.F, self.table))


def trivial_bicharacter(group, field):
    one = field.one
    table = [[one] * group.rank for _ in range(group.rank)]
    return Bicharacter(group, field, table)


def super_bicharacter(field):
    """Z/2 with eps(1,1) = -1."""
    G = GradedGroup([2])
    return G, Bicharacter(G, field, [[field.neg(field.one)]])
