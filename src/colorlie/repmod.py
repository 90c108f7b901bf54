"""p-characters and the representation layer built on them.

A PCharacter collects, per even degree: a linear functional where p*deg
vanishes in the grading group, and a power class (xi, c, s) where p*deg has
finite order s instead.  That is exactly the data needed to pin down the
image of x^p - x^[p] in a reduced quotient, so the envelope module consumes
PCharacter through chi_reduce.

The module grows downward from there: root data with heights, orderings of
the non-Levi positive roots, induced highest-weight modules, the
closed-form counterparts of the simplicity test (the brute-force test
itself lives in `oracle`, and `is_simple` and `singular_vectors` are
imported here for their callers) and the weight sweeps that compare them.
"""

import itertools
import random
import time
from fractions import Fraction
from math import prod

import numpy as np

from .algebra import bracket_eval, pmap_eval
from .envelope import (NormalElement, _axpy, _basis_table, chi_reduce,
                       engine_for, harish_chandra, monomial_degree,
                       monomial_weight, nf_letter, nf_one, require_standard,
                       uchi_basis)
from .errors import (BadWeight, ChiOnDelta, DoubledRoot,
                     InvariantError, MixedSpecs, NoMatrixRealization,
                     NoOrderingFound, NotScalar, NotStandard, NotUnipotent,
                     NotWeightZero, OddElement)
from .field import (_SLAB, _require_cells, digit_power, digit_product,
                    nonzero_digits)
from .linalg import Echelon, Mat
from .oracle import _fill, _judge, _layout, is_simple, singular_vectors


class PowerClass:
    """Cap data for one even degree with p*deg != 0 of finite order s: a
    distinguished basis generator xi of that degree and a functional c on
    the degree block with c(xi) = 1."""

    def __init__(self, degree, xi, c, s):
        self.degree = tuple(degree)
        self.xi = int(xi)
        self.c = {int(i): int(v) for i, v in c.items() if v}
        self.s = int(s)

    def __repr__(self):
        return "PowerClass(degree=%r, xi=%d, s=%d)" % (self.degree, self.xi, self.s)


class PCharacter:
    """Reduction data for x -> x^p - x^[p]: linear values on even basis
    indices whose degree is killed by p, plus one optional PowerClass per
    even degree that p does not kill."""

    def __init__(self, algebra, linear=None, fclasses=None):
        self.algebra = algebra
        F = algebra.F
        g = algebra.group
        p = F.p
        lin = {int(i): int(v) for i, v in (linear or {}).items() if v}
        for i in lin:
            if not algebra.is_even(i):
                raise ValueError("linear p-character values live on even "
                                 "basis indices, got %s" % algebra.names[i])
            if g.scale(p, algebra.degree(i)) != g.zero:
                raise ValueError("p*deg(%s) != 0; use a power class there"
                                 % algebra.names[i])
        classes = list(fclasses or [])
        seen = set()
        for cls in classes:
            deg = g.element(cls.degree)
            if not algebra.is_even(cls.xi):
                raise OddElement("power class generator must be even")
            if deg != algebra.degree(cls.xi):
                raise ValueError("generator xi does not have the class degree")
            pdeg = g.scale(p, deg)
            if pdeg == g.zero:
                raise ValueError("p*deg = 0; this degree takes a linear value")
            if cls.s != g.order(pdeg):
                raise ValueError("class order %d != order %d of p*deg"
                                 % (cls.s, g.order(pdeg)))
            if cls.c.get(cls.xi) != F.embed(1):
                raise ValueError("class functional must be 1 on its generator")
            for i in cls.c:
                if algebra.degree(i) != deg:
                    raise ValueError("class functional supported off its degree")
            if deg in seen:
                raise ValueError("two power classes on one degree")
            seen.add(deg)
        self.linear = lin
        self.fclasses = classes

    def value(self, i):
        """Linear-part value on basis index i (0 off the linear support)."""
        return self.linear.get(i, 0)

    def is_zero(self):
        return not self.linear and not self.fclasses

    def __repr__(self):
        return "PCharacter(linear on %d indices, %d classes)" % (
            len(self.linear), len(self.fclasses))


def pchar_zero(algebra):
    return PCharacter(algebra)


def pchar_from_standard(algebra, std):
    """Linear p-character read off a standard-form character: Cartan values
    plus the strictly-lower nilpotent values, on indices whose degree p
    kills; no power classes."""
    g, p = algebra.group, algebra.F.p
    return PCharacter(algebra, linear={
        i: std.value(i) for i in range(algebra.dim)
        if algebra.is_even(i) and g.scale(p, algebra.degree(i)) == g.zero})


# -- root data and induction orderings -------------------------------------------

def root_datum(algebra):
    """The triangular decomposition attached to the algebra: index lists for
    the negative / Cartan / positive letters, integer root tuples, heights,
    and the e/f/H pairing per positive letter."""
    tri = algebra.triangular
    if tri is None:
        raise NoMatrixRealization("algebra carries no triangular decomposition")
    return tri


def _tneg(r):
    return tuple(-x for x in r)


def _tadd(r, s):
    return tuple(a + b for a, b in zip(r, s))


def _two_root_combo(r, a, b):
    """Whether r = l1*a + l2*b has an integer solution (root tuples over Z)."""
    m = len(r)
    for i in range(m):
        for j in range(i + 1, m):
            det = a[i] * b[j] - a[j] * b[i]
            if det:
                n1 = r[i] * b[j] - r[j] * b[i]
                n2 = a[i] * r[j] - a[j] * r[i]
                if n1 % det or n2 % det:
                    return False
                l1, l2 = n1 // det, n2 // det
                return all(l1 * a[t] + l2 * b[t] == r[t] for t in range(m))
    # rank <= 1: b is a rational multiple of a (or one of them is zero)
    if not any(a):
        a, b = b, a
    if not any(a):
        return not any(r)
    piv = next(i for i, x in enumerate(a) if x)
    c = Fraction(r[piv], a[piv])
    if any(c * a[t] != r[t] for t in range(m)):
        return False
    q = Fraction(b[piv], a[piv])
    # l1 + l2*q sweeps exactly (1/q.denominator) * Z
    return (c * q.denominator).denominator == 1


def _levi_roots(tri, levi):
    """The root system Phi and the positive Levi roots; ValueError when two
    Levi roots combine integrally into a root outside the Levi subsystem."""
    pos_roots = [tri.roots[t] for t in tri.pos]
    Phi = frozenset(pos_roots) | frozenset(map(_tneg, pos_roots))
    levi_pos = [tri.roots[t] for t in levi]
    phi1 = set(levi_pos) | set(map(_tneg, levi_pos))
    members = list(phi1)
    outside = [r for r in Phi if r not in phi1]
    for x in range(len(members)):
        for y in range(x, len(members)):
            for r in outside:
                if _two_root_combo(r, members[x], members[y]):
                    raise ValueError("the Levi roots do not form a subsystem")
    return Phi, levi_pos


def _is_normalized(Phi, S, normalizer):
    """No sum of a member of normalizer and one of S is a root outside S
    (with normalizer = S: S is closed under root addition)."""
    S = set(S)
    for a in normalizer:
        for d in S:
            s = _tadd(a, d)
            if s in Phi and s not in S:
                return False
    return True


def _is_positive_system(Phi, S):
    S = set(S)
    return (len(S) * 2 == len(Phi) and S <= Phi
            and not any(_tneg(r) in S for r in S)
            and _is_normalized(Phi, S, S))


def _is_simple_root(S, d):
    """d may not split as a sum of two members of S."""
    S = set(S)
    return not any(tuple(x - y for x, y in zip(d, a)) in S for a in S)


def _step_certificate(Phi, levi_pos, prefix, rem):
    """Conditions for picking rem[0] as the next induced root after prefix."""
    d = rem[0]
    system = set(levi_pos) | set(map(_tneg, prefix)) | set(rem)
    reflected = set(map(_tneg, prefix)) | {_tneg(d)}
    return {
        "positive_system": _is_positive_system(Phi, system),
        "simple_root": _is_simple_root(system, d),
        "prefix_additive": _is_normalized(Phi, reflected, reflected),
        "prefix_normalized": _is_normalized(Phi, reflected, levi_pos),
    }


class FPTriple:
    """A Levi subsystem of the root system plus an ordering of the
    complementary positive roots along which parabolic induction proceeds.

    levi and deltas hold basis indices of positive-root letters.  The
    constructor re-derives every ordering condition and keeps the results
    under .certificates; an inadmissible ordering raises ValueError."""

    def __init__(self, algebra, levi, deltas):
        tri = root_datum(algebra)
        self.algebra = algebra
        levi = tuple(sorted(int(t) for t in levi))
        deltas = tuple(int(t) for t in deltas)
        posset = set(tri.pos)
        for t in levi + deltas:
            if t not in posset:
                raise ValueError("index %d is not a positive-root letter" % t)
        if set(levi) & set(deltas):
            raise ValueError("Levi and induced roots overlap")
        if len(set(deltas)) != len(deltas):
            raise ValueError("repeated induced root")
        if set(levi) | set(deltas) != posset:
            raise ValueError("Levi plus induced roots must cover the "
                             "positive letters")
        self.levi = levi
        self.deltas = deltas
        self.m = len(deltas)
        Phi, levi_pos = _levi_roots(tri, levi)
        droots = [tri.roots[t] for t in deltas]
        steps = []
        for i in range(self.m):
            cert = _step_certificate(Phi, levi_pos, droots[:i], droots[i:])
            for name, ok in cert.items():
                if not ok:
                    raise ValueError("ordering fails at step %d: %s"
                                     % (i + 1, name))
            steps.append(cert)
        final = _is_positive_system(
            Phi, set(levi_pos) | set(map(_tneg, droots)))
        if not final:
            raise ValueError("the fully reflected system is not positive")
        self.certificates = {"steps": steps, "final_positive_system": final}

    def delta_roots(self):
        roots = self.algebra.triangular.roots
        return [roots[t] for t in self.deltas]

    def __repr__(self):
        names = self.algebra.names
        return "FPTriple(levi=[%s], order=[%s])" % (
            ", ".join(names[t] for t in self.levi),
            ", ".join(names[t] for t in self.deltas))


def fp_order(algebra, levi=()):
    """Search for an induction ordering of the positive roots outside the
    Levi part, trying lower basis indices first and backtracking; returns
    an FPTriple or raises NoOrderingFound."""
    tri = root_datum(algebra)
    levi = tuple(sorted(int(t) for t in levi))
    posset = set(tri.pos)
    for t in levi:
        if t not in posset:
            raise ValueError("index %d is not a positive-root letter" % t)
    roots = tri.roots
    Phi, levi_pos = _levi_roots(tri, levi)
    todo = [t for t in tri.pos if t not in set(levi)]
    dead = set()

    def extend(prefix, rem):
        if not rem:
            done = set(levi_pos) | set(_tneg(roots[t]) for t in prefix)
            return list(prefix) if _is_positive_system(Phi, done) else None
        key = frozenset(rem)
        if key in dead:
            return None
        prefix_roots = [roots[t] for t in prefix]
        for n, t in enumerate(rem):
            cand = [roots[t]] + [roots[x] for x in rem if x != t]
            cert = _step_certificate(Phi, levi_pos, prefix_roots, cand)
            if all(cert.values()):
                out = extend(prefix + [t], rem[:n] + rem[n + 1:])
                if out is not None:
                    return out
        dead.add(key)
        return None

    order = extend([], todo)
    if order is None:
        raise NoOrderingFound("no admissible induction ordering for this "
                              "Levi choice")
    return FPTriple(algebra, levi, order)


# -- weights ---------------------------------------------------------------------

def weight_tuple(algebra, lam):
    """Cartan-coefficient tuple (field codes) from a dict on basis indices
    or a sequence aligned with the Cartan order."""
    tri = root_datum(algebra)
    cartan = tri.cartan
    q = algebra.F.q
    if isinstance(lam, dict):
        out = [0] * len(cartan)
        loc = {h: n for n, h in enumerate(cartan)}
        for i, v in lam.items():
            i = int(i)
            if i not in loc:
                raise BadWeight("weight value at %s, which is not a Cartan "
                                "letter" % algebra.names[i])
            out[loc[i]] = int(v)
    else:
        out = [int(v) for v in lam]
        if len(out) != len(cartan):
            raise BadWeight("expected %d Cartan values, got %d"
                            % (len(cartan), len(out)))
    for v in out:
        if not 0 <= v < q:
            raise BadWeight("weight code %d is outside the field" % v)
    return tuple(out)


def _weight_admissible(spec, lam):
    """lam(h)^p - lam(h^[p]) = chi(h)^p on every Cartan letter."""
    A = spec.algebra
    F = A.F
    tri = A.triangular
    loc = {h: n for n, h in enumerate(tri.cartan)}
    for n, h in enumerate(tri.cartan):
        v = F.pow(lam[n], F.p)
        for i, c in A.pmap.get(h, {}).items():
            if c and i not in loc:
                raise NotStandard("Cartan p-map leaves the Cartan at %s"
                                  % A.names[h])
            v = F.sub(v, F.mul(c, lam[loc[i]]))
        if v != F.pow(spec.chi.value(h), F.p):
            return False
    return True


def admissible_lambdas(spec):
    """All weights compatible with the character, as sorted code tuples.
    When every Cartan letter has h^[p] = h each coordinate is an independent
    Artin-Schreier fibre; otherwise the coordinate space is filtered."""
    A = spec.algebra
    F = A.F
    tri = root_datum(A)
    fibres = []
    for h in tri.cartan:
        pm = {i: c for i, c in A.pmap.get(h, {}).items() if c}
        if pm != {h: F.one}:
            fibres = None
            break
        fibres.append(sorted(F.artin_schreier_solutions(
            F.pow(spec.chi.value(h), F.p))))
    if fibres is not None:
        return [tuple(v) for v in itertools.product(*fibres)]
    return [tuple(lam) for lam
            in itertools.product(F.elements(), repeat=len(tri.cartan))
            if _weight_admissible(spec, lam)]


# -- shared module validation ----------------------------------------------------

def _relations(spec, letters):
    """The relations on the acting letters, in checking order: (i, j, eps,
    [x_i, x_j], 0, messages) per letter pair, then (i, None, None, x_i^[p],
    chi(x_i)^p, messages) per even letter outside the class generators;
    messages for an element leaving the letters and for a failure."""
    A, out = spec.algebra, []
    for x, i in enumerate(letters):
        for j in letters[:x + 1]:
            names = (A.names[i], A.names[j])
            out.append((i, j, A.eps.value(A.degree(i), A.degree(j)),
                        A.bracket(i, j), 0, (
                "bracket of %s and %s leaves the acting letters" % names,
                "bracket relation fails at (%s, %s)" % names)))
    for i in letters:
        if A.is_even(i) and i not in spec.J:
            out.append((i, None, None, A.pmap.get(i, {}),
                        spec.linear_pow.get(i, 0), (
                "p-map of %s leaves the acting letters" % A.names[i],
                "reduced power relation fails at %s" % A.names[i])))
    return out


def _check_module(M, letters, zero=()):
    """The module relations of M on the acting letters: the letters in zero
    act as zero and the Cartan letters diagonally with the recorded weights;
    every nonzero entry shifts color degree, Cartan weight and height as its
    letter's root data prescribes; and the relations of `_relations` hold.
    The first failure in that order is reported."""
    spec, action = M.spec, M.action
    A = spec.algebra
    F, tri = A.F, A.triangular
    for i in zero:
        if not action[i].is_zero():
            raise ValueError("induced raising letter %s must act as "
                             "zero on the base" % A.names[i])
    for n, h in enumerate(tri.cartan):
        diag = np.diag([w[n] for w in M.weights])
        if action[h] != Mat.from_codes(F, diag):
            raise ValueError("Cartan letter %s is not diagonal with the "
                             "recorded weights" % A.names[h])
    posset, negset = set(tri.pos), set(tri.neg)
    for i in letters:
        rows, cols = np.nonzero(nonzero_digits(action[i].a))
        di = A.degree(i)
        root = tri.roots.get(i)
        h = tri.heights.get(i, 0)
        shift = h if i in posset else (-h if i in negset else 0)
        for u, v in zip(rows.tolist(), cols.tolist()):
            if M.degrees[u] != A.group.add(di, M.degrees[v]):
                raise ValueError("action of %s is not degree homogeneous"
                                 % A.names[i])
            if M.heights[u] != M.heights[v] - shift:
                raise ValueError("action of %s is not height homogeneous"
                                 % A.names[i])
            want = M.weights[v] if root is None else tuple(
                F.add(w, F.embed(r)) for w, r in zip(M.weights[v], root))
            if M.weights[u] != want:
                raise ValueError("action of %s is not weight homogeneous"
                                 % A.names[i])
    rels = _relations(spec, letters)
    pairs = [r for r in rels if r[1] is not None]
    powers = rels[len(pairs):]
    # the relations of as many letter pairs (or even letters) at once as
    # fit in _SLAB cells
    step = max(1, _SLAB // max(1, M.dim ** 2))
    bad = []
    for p0 in range(0, len(pairs), step):
        i, j, eps, elems, _c, _m = zip(*pairs[p0:p0 + step])
        Mi = np.stack([action[t].a for t in i])
        Mj = np.stack([action[t].a for t in j])
        lhs = digit_product(F, Mi, Mj, np.matmul) - digit_product(
            F, digit_product(F, Mj, Mi, np.matmul),
            F.codes_to_array(eps)[:, None, None], np.multiply)
        rhs = _rho_batch(F, action, elems, M.dim)
        bad += list(((lhs - rhs) % F.p).reshape(len(i), -1).any(axis=1))
    for p0 in range(0, len(powers), step):
        i, _j, _e, elems, chi_p, _m = zip(*powers[p0:p0 + step])
        Z = digit_power(F, np.stack([action[t].a for t in i]), F.p,
                        np.matmul)
        rhs = _rho_batch(F, action, elems, M.dim, chi_p)
        bad += list((Z != rhs).reshape(len(i), -1).any(axis=1))
    for (*_r, elem, _c, (leaves, fails)), b in zip(rels, bad):
        if any(t not in action for t in elem):
            raise ValueError(leaves)
        if b:
            raise ValueError(fails)
    return True


def _rho_batch(F, action, elems, n, scalars=None):
    """sum_t c action[t] for each algebra element {t: c} of elems, plus
    the matching scalar times the identity when scalars is given, as one
    (len(elems), n, n, k) array from one matmul.  Letters without an action
    are left out; the callers report them."""
    used = sorted({t for x in elems for t in x if t in action})
    codes = [[x.get(t, 0) for t in used] for x in elems]
    mats = [action[t].a for t in used]
    if scalars is not None:
        codes = [row + [c] for row, c in zip(codes, scalars)]
        mats.append(Mat.identity(F, n).a)
    coef = F.codes_to_array(np.array(codes, dtype=np.int64).reshape(
        len(elems), len(mats)))
    stack = np.array(mats, dtype=np.int64).reshape(len(mats), n * n, F.k)
    return digit_product(F, coef, stack, np.matmul).reshape(
        len(elems), n, n, F.k)


# -- parabolic bases and induced modules -----------------------------------------

class BaseModule:
    """Explicit action of the parabolic letters (Levi plus Cartan plus the
    induced raising letters, the latter forced to act as zero) on a finite
    dimensional space, with per-vector weight / color degree / height."""

    def __init__(self, spec, triple, action, weights, degrees, heights=None,
                 check=True):
        A = spec.algebra
        if triple.algebra is not A:
            raise MixedSpecs("ordering data lives on a different algebra")
        tri = A.triangular
        self.spec = spec
        self.triple = triple
        dim = len(weights)
        self.dim = dim
        f_letters = set(tri.pairs[t][1] for t in triple.deltas)
        for i in action:
            if i in f_letters:
                raise ValueError("%s is an induced letter and cannot act on "
                                 "the base" % A.names[i])
        letters = [i for i in range(A.dim) if i not in f_letters]
        for i in letters:
            M = action.get(i)
            if M is None:
                raise ValueError("missing action matrix for %s" % A.names[i])
            if M.shape != (dim, dim):
                raise ValueError("matrix for %s has shape %r, want %r"
                                 % (A.names[i], M.shape, (dim, dim)))
        self.letters = letters
        self.action = dict(action)
        self.weights = [tuple(w) for w in weights]
        self.degrees = list(degrees)
        self.heights = list(heights) if heights is not None else [0] * dim
        if len(self.degrees) != dim or len(self.heights) != dim:
            raise ValueError("grading lists disagree with the dimension")
        if check:
            self.validate()

    def validate(self):
        tri = self.spec.algebra.triangular
        return _check_module(self, self.letters,
                             [tri.pairs[t][0] for t in self.triple.deltas])


def _line_base(spec, triple, lam):
    """The one-dimensional base: Cartan letters act by the weight, all root
    letters by zero.  Obstructions (weight not compatible with the
    character, character or weight alive on the Levi part) surface from the
    `_relations`, read on those scalars, as BadWeight.  The letters, their
    Cartan coordinates and relations are cached per triple on the spec."""
    A = spec.algebra
    F, tri = A.F, A.triangular
    plans = vars(spec).setdefault("_line_plans", {})
    if triple.deltas not in plans:
        cpos = {h: n for n, h in enumerate(tri.cartan)}
        f_letters = set(tri.pairs[t][1] for t in triple.deltas)
        letters = [i for i in range(A.dim) if i not in f_letters]
        plans[triple.deltas] = (letters, [cpos.get(i, len(cpos))
                                          for i in letters],
                                _relations(spec, letters))
    letters, pick, rels = plans[triple.deltas]
    codes = np.array(list(lam) + [0], dtype=np.int64)[pick]
    value = dict(zip(letters, codes.tolist()))
    prefix = "the weight does not extend to the parabolic: "
    for i, j, eps, elem, rho, (leaves, fails) in rels:
        if any(t not in value for t in elem):
            raise BadWeight(prefix + leaves)
        for t, c in elem.items():
            rho = F.add(rho, F.mul(c, value[t]))
        if rho != (F.pow(value[i], F.p) if j is None else
                   F.mul(F.mul(value[i], value[j]), F.sub(F.one, eps))):
            raise BadWeight(prefix + fails)
    digits = F.codes_to_array(codes).reshape(len(letters), 1, 1, F.k)
    return BaseModule(spec, triple, dict(zip(letters, (
        Mat(F, d) for d in digits))), [lam], [A.group.zero], [0],
        check=False)


def _segments(starts, lens):
    """The segments [starts[s], starts[s] + lens[s]) of a flat array laid
    end to end: the segment of each place, and its position in the array.
    TooLarge when the places exceed the cell budget."""
    _require_cells(lens.sum(), "an induction plan expansion")
    owner = np.repeat(np.arange(lens.size), lens)
    return owner, np.arange(owner.size) + np.repeat(
        starts - np.cumsum(lens) + lens, lens)


def _lowering_table(spec, f_letters, rest, exps):
    """f_n . f^b for every lowering letter n and every exponent row b of
    exps, through the rewrite engine in the induction order, one letter's
    products alive at a time: segment n * len(exps) + b of the flat arrays
    of the terms' rows in exps and coefficient digits, as (rows, digits,
    starts, lengths).  InvariantError when a term leaves the lowering
    letters."""
    A = spec.algebra
    F, dim = A.F, A.dim
    eng = engine_for(A, spec, order=f_letters + rest)
    monos = np.zeros((len(exps), dim), dtype=np.int64)
    monos[:, f_letters] = exps
    monos = list(map(tuple, monos.tolist()))
    index = {m: t for t, m in enumerate(monos)}
    rows, codes, lens = [], [], []
    for j in f_letters:
        for out in eng.times_monomials(
                {tuple(int(i == j) for i in range(dim)): F.one}, monos):
            rows += map(index.get, out)
            codes += out.values()
            lens.append(len(out))
    if None in rows:
        raise InvariantError("a product of lowering letters leaves the "
                             "lowering letters")
    lens = np.array(lens, dtype=np.int64)
    return (np.array(rows, dtype=np.int64),
            F.codes_to_array(codes).reshape(-1, F.k), np.cumsum(lens) - lens,
            lens)


def _induction_table(spec, triple):
    """The weight-independent plan of inducing along triple (see
    `verma_build`), built on the first call and cached per induced-root tuple
    on the spec.

    The PBW monomials f^a (amonos) run over the exponent tuples below the
    caps of the lowering letters, lexicographically, and each comes with
    its Cartan shift (the digits of its embedded integral weight), its
    color degree and its height.  The products x . f^a in the induction
    order are built one exponent level of a at a time, for every letter x
    at once, from x . 1 = x and the color commutation rule, f_n the first
    lowering letter of f^a = f_n f^a'':

        x . f^a = eps(x, f_n) f_n . (x . f^a'') + [x, f_n] . f^a''.

    f_n . f^b is read from one engine table per lowering letter
    (`_lowering_table`), the only rewriting left.  Every term is then c
    f^a2 r with r either 1 or a single rest letter, whose pattern number is
    0 or 1 + its place in rest (patterns holds the exponent rows).  A term
    whose r is an induced raising letter is dropped as it forms (x . 1 for
    such x): those letters act as zero on every base, and U u+ stays a left
    ideal under left multiplication by f_n.  The entries, one per term, are
    sorted once by cell (x, row of a2, column of a): the digits of c and
    the pattern of r.  starts are each cell's first entry; letter, row,
    col, and the first cell and width of each cell's (letter, row) segment
    and its index in it, are read per cell."""
    tables = vars(spec).setdefault("_induction_tables", {})
    table = tables.get(triple.deltas)
    if table is not None:
        return table
    A = spec.algebra
    F, tri = A.F, A.triangular
    f_letters = [tri.pairs[t][1] for t in triple.deltas]
    rest = [i for i in range(A.dim) if i not in f_letters]
    caps = [spec.caps[j] for j in f_letters]
    _require_cells(prod(caps) * A.dim, "the induction plan's PBW table")
    amonos = list(itertools.product(*[range(c) for c in caps]))
    na, nf, dim = len(amonos), len(caps), A.dim
    exps = np.array(amonos, dtype=np.int64).reshape(na, nf)
    # amonos runs lexicographically, the last exponent fastest
    strides = np.array([prod(caps[n + 1:]) for n in range(nf)],
                       dtype=np.int64)
    trow, tc, tstart, tlen = _lowering_table(spec, f_letters, rest, exps)
    # eps(x, f_n) and the terms (y, d) of [x, f_n], per x * nf + n
    eps = F.codes_to_array([A.eps.value(A.degree(x), A.degree(j))
                            for x in range(dim) for j in f_letters])
    brk = [[(y, d) for y, d in A.bracket(x, j).items() if d]
           for x in range(dim) for j in f_letters]
    blen = np.array([len(b) for b in brk], dtype=np.int64)
    bstart = np.cumsum(blen) - blen
    by = np.array([y for b in brk for y, _d in b], dtype=np.int64)
    bc = F.codes_to_array([d for b in brk for _y, d in b]).reshape(
        -1, F.k)
    # x . 1 = x: f^a for a lowering letter x, the pattern of x for a rest
    # letter, and nothing for an induced raising letter
    raising = {tri.pairs[t][0] for t in triple.deltas}
    acting = np.array([x for x in range(dim) if x not in raising],
                      dtype=np.int64)
    npat = 1 + len(rest)
    unit_row = np.zeros(dim, dtype=np.int64)
    unit_row[f_letters] = strides
    letter_pattern = np.zeros(dim, dtype=np.int64)
    letter_pattern[rest] = np.arange(1, npat)
    # f^a = f_n f^a'': n = lead[a] (nf for a = 0) and a'' = below[a]
    level = exps.sum(axis=1)
    lead = (exps == 0).cumprod(axis=1).sum(axis=1)
    below = np.arange(na) - np.append(strides, 0)[lead]
    done = []
    for lev in range(int(level.max()) + 1):
        if lev == 0:
            parts = [(acting, np.zeros_like(acting), unit_row[acting],
                      letter_pattern[acting], np.repeat(
                          F.codes_to_array([F.one]), acting.size, axis=0))]
        else:
            at = np.flatnonzero(level == lev)
            x, a = np.repeat(np.arange(dim), at.size), np.tile(at, dim)
            xn, a2 = x * nf + lead[a], x * na + below[a]
            # eps(x, f_n) f_n . (x . f^a'')
            o, t = _segments(start[a2], count[a2])
            c = digit_product(F, eps[xn[o]], pc[t], np.multiply)
            nb = lead[a[o]] * na + pb[t]
            o2, t2 = _segments(tstart[nb], tlen[nb])
            parts = [(x[o][o2], a[o][o2], trow[t2], pr[t][o2],
                      digit_product(F, c[o2], tc[t2], np.multiply))]
            # [x, f_n] . f^a''
            o, t = _segments(bstart[xn], blen[xn])
            y2 = by[t] * na + below[a[o]]
            o2, t2 = _segments(start[y2], count[y2])
            parts.append((x[o][o2], a[o][o2], pb[t2], pr[t2],
                          digit_product(F, bc[t][o2], pc[t2], np.multiply)))
        x, a, b, r, c = (np.concatenate(v) for v in zip(*parts))
        key = ((x * na + a) * na + b) * npat + r
        order = np.argsort(key)
        head = np.flatnonzero(np.diff(key[order], prepend=-1))
        c = np.add.reduceat(c[order], head, axis=0) % F.p
        live = nonzero_digits(c)
        x, a, pb, pr = (v[order[head[live]]] for v in (x, a, b, r))
        pc = c[live]
        # the cell (x, row b, column a) of each entry
        done.append(((x * na + pb) * na + a, pr, pc))
        # the entries of x . f^a, at this level, are start[x * na + a] on
        xa = x * na + a
        cut = np.flatnonzero(np.diff(xa, prepend=-1))
        start = np.zeros(dim * na, dtype=np.int64)
        count = np.zeros(dim * na, dtype=np.int64)
        start[xa[cut]] = cut
        count[xa[cut]] = np.diff(cut, append=xa.size)
    key, pattern, coeffs = (np.concatenate(v) for v in zip(*done))
    del done
    entry = np.argsort(key, kind="stable")
    key = key[entry]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    segment, col = np.divmod(key[starts], na)
    new = np.diff(segment, prepend=-1) != 0
    first = np.flatnonzero(new)
    seg = np.cumsum(new) - 1
    froots = np.array([tri.roots[j] for j in f_letters],
                      dtype=np.int64).reshape(nf, len(tri.cartan))
    shift = np.zeros((na, len(tri.cartan), F.k), dtype=np.int64)
    shift[..., 0] = exps @ froots % F.p
    fdegs = np.array([A.degree(j) for j in f_letters],
                     dtype=np.int64).reshape(nf, A.group.rank)
    table = tables[triple.deltas] = {
        "amonos": amonos,
        "rest": rest,
        "shift": shift,
        "degrees": exps @ fdegs % np.array(A.group.orders, dtype=np.int64),
        "heights": (exps @ np.array([tri.heights[t] for t in triple.deltas],
                                    dtype=np.int64)).tolist(),
        "coeffs": coeffs[entry],
        "pattern": pattern[entry],
        "patterns": np.eye(npat, npat - 1, -1, dtype=np.int64),
        "starts": starts,
        # per cell, shaped (cells, 1, 1) to broadcast over a base block
        "letter": (segment // na)[:, None, None],
        "row": (segment % na)[:, None, None],
        "col": col[:, None, None],
        "first": first[seg][:, None, None],
        "width": np.diff(first, append=len(segment))[seg][:, None, None],
        "index": (np.arange(len(seg)) - first[seg])[:, None, None],
    }
    return table


def _cell_sums(F, plan, bases):
    """The value of every cell of plan on each of bases (all of one
    dimension bd), as (cells, nb, bd, bd, k) digits: each entry is its
    coefficient times its pattern's factor, the identity or the base
    action of one rest letter (a scalar on a line base), and the entries
    of each cell are summed, for all bases at once.  TooLarge when the
    entry values exceed the cell budget."""
    bd, nb = bases[0].dim, len(bases)
    _require_cells(len(plan["coeffs"]) * nb * bd * bd * F.k,
                   "the induction plan's entry values")
    one = np.broadcast_to(Mat.identity(F, bd).a, (nb, bd, bd, F.k))
    factor = np.stack([one] + [np.stack([b.action[i].a for b in bases])
                               for i in plan["rest"]])
    vals = digit_product(F, plan["coeffs"][:, None, None, None],
                         factor[plan["pattern"]], np.multiply)
    return np.add.reduceat(vals, plan["starts"]) % F.p


def _line_layout(spec, plan):
    """The weight-space layout (`oracle._layout`) that every module induced
    from a line base along plan's triple shares, built once and kept on
    the plan with the plan cells it reads.  A basis vector's weight is the
    base weight plus its monomial's Cartan shift, so the spaces are the
    shift classes.  A cell whose every entry carries a root letter is left
    out: root letters act as zero on a line base."""
    if "layout" not in plan:
        A = spec.algebra
        cartan = set(A.triangular.cartan)
        root = np.array([False] + [i not in cartan for i in plan["rest"]])
        kept = np.flatnonzero(~np.logical_and.reduceat(
            root[plan["pattern"]], plan["starts"]))
        plan["layout"] = kept, _layout(
            A, plan["shift"][..., 0], plan["degrees"],
            np.array(plan["heights"], dtype=np.int64),
            *(plan[v].ravel()[kept] for v in ("letter", "row", "col")))
    return plan["layout"]


def verma_build(spec, triple, weight=None, base=None, check=True):
    """Induce a parabolic base module up to the reduced quotient.  The
    result has basis f_{d1}^{a1} ... f_{dm}^{am} (x) v_j with each a_i below
    the cap of the lowering letter, exponent tuples ordered lexicographically
    and the base index fastest.  Everything that does not depend on the
    base is read from the triple's cached plan (`_induction_table`), and
    the cells are valued on the base by `_cell_sums`, as a sweep values
    its chunks.  The plan and the values check their arrays against the
    cell budget before they are allocated."""
    A = spec.algebra
    if triple.algebra is not A:
        raise MixedSpecs("ordering data lives on a different algebra")
    if spec.chi.fclasses:
        raise NotStandard("induction needs a linear character")
    tri = A.triangular
    for t in triple.deltas:
        e, f, _H = tri.pairs[t]
        if spec.chi.value(e) or spec.chi.value(f):
            raise ChiOnDelta("character must vanish on the induced root "
                             "spaces at %s" % A.names[e])
    if base is None:
        if weight is None:
            raise BadWeight("need a weight for the default line base")
        base = _line_base(spec, triple, weight_tuple(A, weight))
    elif weight is not None:
        raise ValueError("pass a weight or a base module, not both")
    elif base.spec is not spec or base.triple is not triple:
        raise MixedSpecs("base module was built for different data")
    F, bd = A.F, base.dim
    plan = _induction_table(spec, triple)
    count = len(plan["amonos"]) * bd
    # cell (letter, row, col) of the plan holds the (bd, bd) block at rows
    # row * bd + i and columns col * bd + j: sorted by letter, row and
    # column, i runs slowest in its (letter, row) segment, then col, then j
    i, j = np.arange(bd)[:, None], np.arange(bd)
    at = ((plan["first"] * bd + i * plan["width"] + plan["index"]) * bd
          + j).ravel()
    where = np.empty_like(at)
    where[at] = np.arange(at.size)
    shape = (len(plan["starts"]), bd, bd)
    letter, row, col = (np.broadcast_to(v, shape).ravel()[where]
                        for v in (plan["letter"], plan["row"] * bd + i,
                                  plan["col"] * bd + j))
    digits = _cell_sums(F, plan, [base]).reshape(-1, F.k)[where]
    on = nonzero_digits(digits)
    weights = F.array_to_codes((plan["shift"][:, None] + F.codes_to_array(
        base.weights)) % F.p).reshape(count, -1).tolist()
    degrees = (plan["degrees"][:, None] + np.array(
        base.degrees, dtype=np.int64).reshape(bd, -1)) % np.array(
            A.group.orders, dtype=np.int64)
    return GradedModule(
        spec, None, weights, map(tuple, degrees.reshape(count, -1).tolist()),
        [ht + h for ht in plan["heights"] for h in base.heights],
        labels=[(a, j) for a in plan["amonos"] for j in range(bd)],
        triple=triple, check=check,
        cells=(letter[on], row[on], col[on], digits[on]))


def _dense_letters(F, n, dim, cells):
    """The dense (dim, dim) letters {0, ..., n - 1: Mat} holding the
    nonzero cells (letter, row, column, digits); TooLarge, before any
    allocation, above the cell budget."""
    _require_cells(n * dim * dim * F.k, "dense letters")
    letter, row, col, digits = cells
    arr = np.zeros((n, dim, dim, F.k), dtype=np.int64)
    arr[letter, row, col] = digits
    return {i: Mat(F, a) for i, a in enumerate(arr)}


class GradedModule:
    """A module over a reduced quotient: one action matrix per algebra
    letter plus per-vector gradings (Cartan weight, color degree, height).
    An induced module keeps the nonzero cells (letter, row, column, digits)
    of its letters, and builds the matrices from them when action is read."""

    def __init__(self, spec, action, weights, degrees, heights, labels=None,
                 triple=None, check=True, cells=None):
        self.spec = spec
        self._action = None if action is None else dict(action)
        self.cells = cells
        self.weights = [tuple(w) for w in weights]
        self.degrees = list(degrees)
        self.heights = list(heights)
        self.labels = labels
        self.triple = triple
        self.dim = len(self.weights)
        if check:
            self.validate()

    @property
    def action(self):
        if self._action is None:
            A = self.spec.algebra
            self._action = _dense_letters(A.F, A.dim, self.dim, self.cells)
        return self._action

    def validate(self):
        return _check_module(self, list(range(self.spec.algebra.dim)))

    def to_wire(self):
        F = self.spec.algebra.F
        if self.labels is not None:
            basis = [[list(a), j] for a, j in self.labels]
        else:
            basis = [[u] for u in range(self.dim)]
        return {
            "dim": self.dim,
            "basis": basis,
            "action": [[i, self.action[i].a.tolist()]
                       for i in sorted(self.action)],
            "weights": [[F.to_wire(c) for c in w] for w in self.weights],
            "heights": [int(h) for h in self.heights],
        }

    def __repr__(self):
        return "GradedModule(dim %d over %r)" % (self.dim, self.spec)


def module_from_wire(spec, wire):
    """Rebuild a module from its dump.  The dump carries no color degrees,
    so the reader restores a degree-zero grading: enough to re-emit equal
    bytes and read dimensions, not to run degree-graded computations on
    nontrivially graded algebras."""
    F = spec.algebra.F
    action = {int(i): Mat(F, np.asarray(rows, dtype=np.int64))
              for i, rows in wire["action"]}
    weights = [tuple(F.from_wire(c) for c in w) for w in wire["weights"]]
    labels = None
    if wire["basis"] and len(wire["basis"][0]) == 2:
        labels = [(tuple(a), j) for a, j in wire["basis"]]
    return GradedModule(spec, action, weights,
                        [spec.algebra.group.zero] * wire["dim"],
                        [int(h) for h in wire["heights"]],
                        labels=labels, check=False)


# -- the simplicity value, two ways ----------------------------------------------

def _no_doubled(triple):
    tri = triple.algebra.triangular
    allroots = set(tri.roots.values())
    for r in triple.delta_roots():
        if tuple(2 * x for x in r) in allroots:
            raise DoubledRoot("twice the induced root %r is again a root"
                              % (r,))


def f_closed(spec, triple, lam):
    """Product form of the simplicity value at the given weight: one factor
    (lam_i(H_i) + 1)^(cap-1) - 1 per induced root, where lam_i carries the
    accumulated (cap-1)-fold shifts of the earlier roots.  The nonzero
    constant prefactor is dropped."""
    A = spec.algebra
    F = A.F
    tri = A.triangular
    _no_doubled(triple)
    lam = weight_tuple(A, lam)
    cpos = {h: n for n, h in enumerate(tri.cartan)}
    shift = [0] * len(tri.cartan)
    val = F.one
    for t in triple.deltas:
        e, f, H = tri.pairs[t]
        cap = spec.caps[f]
        x = F.zero
        for h, c in H.items():
            n = cpos[h]
            x = F.add(x, F.mul(c, F.add(lam[n], F.embed(shift[n]))))
        val = F.mul(val, F.sub(F.pow(F.add(x, F.one), cap - 1), F.one))
        root = tri.roots[e]
        for n in range(len(shift)):
            shift[n] -= (cap - 1) * root[n]
    return val


def _proportional(F, v, w):
    """Code c with v == c * w for two digit arrays of one shape, or None."""
    cw = F.array_to_codes(w).ravel()
    nz = np.flatnonzero(cw)
    c = 0
    if nz.size:
        c = F.div(int(F.array_to_codes(v).ravel()[nz[0]]), int(cw[nz[0]]))
    scaled = digit_product(F, w, np.array(F.to_digits(c)), np.multiply)
    return c if np.array_equal(scaled, v) else None


def _word(spec, letters):
    """The product of the given letters, left to right."""
    A = spec.algebra
    u = nf_one(A, spec)
    for i in letters:
        u = u.mul(nf_letter(A, i, spec))
    return u


def _cartan_terms(spec, triple):
    """The cached (Cartan terms, reversal) pair of f_via_hc."""
    A = spec.algebra
    F, tri = A.F, A.triangular
    pos = set(tri.pos)
    last = max(i for i in range(A.dim) if i not in pos)
    if any(i < last for i in pos):
        raise InvariantError("the Cartan route needs every positive letter "
                             "after every other letter in the normal order")
    raising, lowering = [], []
    for t in triple.deltas:
        e, f, _H = tri.pairs[t]
        raising += [e] * (spec.caps[f] - 1)
        lowering += [f] * (spec.caps[f] - 1)
    fwd, rev = _word(spec, lowering).terms, _word(spec, lowering[::-1])
    monos = sorted(set(fwd) | set(rev.terms))
    reversal = _proportional(
        F, F.codes_to_array([fwd.get(m, 0) for m in monos]),
        F.codes_to_array([rev.terms.get(m, 0) for m in monos]))
    if reversal is None:
        raise InvariantError("extreme lowering products are not "
                             "proportional")
    roots = np.array([tri.roots.get(i, (0,) * len(tri.cartan))
                      for i in range(A.dim)], dtype=np.int64)
    weight = roots[lowering].sum(axis=0)

    def free(monos):
        # which of monos carry no positive letter, each checked first to
        # have the integral weight of the partial product
        exps = np.array(monos, dtype=np.int64).reshape(len(monos), A.dim)
        off = np.flatnonzero((exps @ roots != weight).any(axis=1))
        if off.size:
            raise NotWeightZero("term %r of a partial product of weight %r "
                                "has weight %r" % (monos[off[0]],
                                tuple(weight.tolist()),
                                monomial_weight(A, monos[off[0]])))
        return (~exps[:, tri.pos].any(axis=1)).tolist()

    # a term is head . tail, its tail the letters from `tail` on: the run
    # of Cartan letters that ends the letters before the positive ones
    tail, cartan, zero = last + 1, set(tri.cartan), (0,) * A.dim
    while tail - 1 in cartan:
        tail -= 1
    eng = engine_for(A, spec)
    u = {m: c for (m, c), k in zip(rev.terms.items(), free(list(rev.terms)))
         if k}
    for e in reversed(raising):
        weight = weight + roots[e]
        split = {}
        for m, c in u.items():
            split.setdefault(m[:tail] + zero[tail:], {})[
                zero[:tail] + m[tail:]] = c
        outs = eng.times_monomials({zero[:e] + (1,) + zero[e + 1:]: F.one},
                                   list(split))
        keep = iter(free([m for out in outs for m in out]))
        u = {}
        for out, tails in zip(outs, split.values()):
            head = {m: c for (m, c), k in zip(out.items(), keep) if k}
            if head:
                _axpy(F, u, F.one, eng.product(head, tails))
        u = {m: c for (m, c), k in zip(u.items(), free(list(u))) if k}
    return harish_chandra(NormalElement(A, spec, u)).terms, reversal


def f_via_hc(spec, triple, lam):
    """Cartan-projection route to the simplicity value: the Cartan read-off
    of u = E_1^(c-1)...E_r^(c-1) F_r^(c-1)...F_1^(c-1) (c the caps of the
    induced roots), evaluated at the weight.  Returns (value, reversal)
    where reversal is the constant relating the two extreme normal orders
    of the lowering product.

    u is never formed in full.  Starting from the lowering product, each
    raising letter is multiplied on from the left, E_r first, and every term
    that carries a positive letter is dropped at once.  This is exact: the
    character is standard (checked up front), so it vanishes on n+ and
    U_chi n+ is a left ideal; every positive letter comes after every other
    letter in the normal order (checked too), so the normal forms of that
    ideal are the terms with a positive letter.  Left multiplication keeps
    the dropped part inside the ideal, where the read-off discards it
    anyway.

    Each term of a partial product is a head times its tail, the run of
    Cartan letters that ends the letters before the positive ones.  E .
    head is formed once per distinct head, its terms with a positive letter
    are dropped, and only the rest is multiplied by the tails.  Dropping
    before the tail is exact too: e' h = (h - alpha(h)) e' for a positive
    letter e' of root alpha and a Cartan letter h, so U n+ U(h) stays
    inside U n+.  Every term formed, of E . head and of the products with
    the tails, must have the partial product's integral weight; a term of
    any other weight raises NotWeightZero, and the read-off re-checks what
    is left.  The (terms, reversal) pair is cached per induced-root tuple
    on the spec.  This is the one-weight case of `_hc_values`."""
    values, reversal = _hc_values(spec, triple, [lam])
    return values[0], reversal


def _hc_values(spec, triple, lams):
    """The values of f_via_hc at every weight of lams, and the reversal,
    from one evaluation of the cached Cartan terms over all of them: one
    power table per Cartan coordinate, in slabs of weights whose
    (terms, weights) products fit in _SLAB digit cells."""
    A = spec.algebra
    F = A.F
    tri = require_standard(spec)
    _no_doubled(triple)
    lams = F.codes_to_array([weight_tuple(A, lam) for lam in lams])
    cache = vars(spec).setdefault("_hc_cache", {})
    ent = cache.get(triple.deltas)
    if ent is None:
        cache[triple.deltas] = ent = _cartan_terms(spec, triple)
    gterms, reversal = ent
    exps = np.array(list(gterms), dtype=np.int64).reshape(
        len(gterms), A.dim)[:, tri.cartan]
    coeffs = F.codes_to_array(list(gterms.values())).reshape(-1, 1, F.k)
    step = max(1, _SLAB // max(1, len(gterms) * F.k))
    values = []
    for w0 in range(0, len(lams), step):
        x = lams[w0:w0 + step]
        val = coeffs
        for n in np.flatnonzero(exps.any(axis=0)):
            pw = [F.codes_to_array([F.one] * len(x)), x[:, n]]
            for _ in range(int(exps[:, n].max()) - 1):
                pw.append(digit_product(F, pw[-1], x[:, n], np.multiply))
            val = digit_product(F, val, np.stack(pw)[exps[:, n]],
                                np.multiply)
        values += F.array_to_codes(np.broadcast_to(
            val, (len(gterms), len(x), F.k)).sum(axis=0) % F.p).tolist()
    return values, reversal


# -- the p-power scalar -----------------------------------------------------------

def extract_kappa(M, i):
    """Scalar value of (rho(x)^p - rho(x^[p]))^s on the module, s the order
    of p * deg(x) in the grading group; NotScalar when the power operator
    is not a scalar."""
    A = M.spec.algebra
    F = A.F
    if not A.is_even(i):
        raise OddElement("the p-power scalar needs an even basis element")
    s = A.group.order(A.group.scale(F.p, A.degree(i)))
    Z = M.action[i].pow_int(F.p)
    for t, c in A.pmap.get(i, {}).items():
        Z = Z - M.action[t].scale(c)
    Z = Z.pow_int(s)
    c0 = Z.entry(0, 0)
    if Z != Mat.identity(F, M.dim).scale(c0):
        raise NotScalar("the power operator of %s is not scalar on this "
                        "module" % A.names[i])
    return c0


# -- unipotent quotients ----------------------------------------------------------

def _require_unipotent(algebra):
    """Even letters must be p-map nilpotent and the lower central series of
    the bracket must vanish."""
    F = algebra.F
    for i in range(algebra.dim):
        if not algebra.is_even(i):
            continue
        x = {i: F.one}
        for _ in range(algebra.dim + 1):
            if not x:
                break
            x = pmap_eval(algebra, x)
        if x:
            raise NotUnipotent("the p-map is not nilpotent at %s"
                               % algebra.names[i])
    prev = None
    layer = [{i: F.one} for i in range(algebra.dim)]
    while layer:
        brackets = []
        for x in layer:
            for j in range(algebra.dim):
                z = bracket_eval(algebra, {j: F.one}, x)
                if z:
                    brackets.append(z)
        codes = np.zeros((len(brackets), algebra.dim), dtype=np.int64)
        for row, z in zip(codes, brackets):
            row[list(z)] = list(z.values())
        taken = Echelon(F, algebra.dim).insert(F.codes_to_array(codes))
        nxt = [brackets[t] for t in taken]
        if prev is not None and len(nxt) >= prev:
            raise NotUnipotent("the lower central series does not vanish")
        prev = len(nxt)
        layer = nxt


def unipotent_socle(algebra):
    """Socle data of the zero-character reduced quotient of a unipotent
    algebra: the one-dimensional space killed by every left multiplication,
    the matching right-multiplication kernel, and the constant relating
    the two."""
    _require_unipotent(algebra)
    F = algebra.F
    spec = chi_reduce(algebra, pchar_zero(algebra))
    reg = regular_module(spec)
    count, mons = reg["dim"], reg["monomials"]
    pos = {m: t for t, m in enumerate(mons)}
    eng = engine_for(algebra, spec)
    n = algebra.dim
    L = np.concatenate([reg["action"][i].a for i in range(n)])
    R = np.zeros((n * count, count, F.k), dtype=np.int64)
    for i in range(n):
        rows, cols, coeffs = _basis_table(eng, mons, pos, i)
        R[i * count + rows, cols] = coeffs
    lk = Mat(F, L).nullspace()
    rk = Mat(F, R).nullspace()
    if lk.shape[1] != 1 or rk.shape[1] != 1:
        # the zero-character quotient of a unipotent algebra is local
        # Frobenius, so both socles are lines
        raise InvariantError("socle is not a line (left %d, right %d)"
                             % (lk.shape[1], rk.shape[1]))
    vl = lk.a[:, 0]
    vr = rk.a[:, 0]
    ratio = _proportional(F, vl, vr)
    if ratio is None:
        raise InvariantError("left and right socles differ")
    codes = lambda v: [int(x) for x in
                       F.array_to_codes(v.reshape(1, count, F.k))[0]]
    return {"dimension": count, "monomials": mons, "left": codes(vl),
            "right": codes(vr), "ratio": ratio}


def regular_module(spec):
    """Left-multiplication matrices of the algebra letters on the reduced
    monomial basis, with the color degree of each monomial.  Their dense
    letters are checked against the cell budget before the monomials are
    listed."""
    A = spec.algebra
    F = A.F
    count, it = uchi_basis(spec)
    _require_cells(A.dim * count * count * F.k, "dense letters")
    mons = list(it)
    pos = {m: t for t, m in enumerate(mons)}
    eng = engine_for(A, spec)
    tables = [_basis_table(eng, mons, pos, i, left=True)
              for i in range(A.dim)]
    letter = np.repeat(np.arange(A.dim), [len(t[0]) for t in tables])
    cells = (letter,) + tuple(np.concatenate(c) for c in zip(*tables))
    action = _dense_letters(F, A.dim, count, cells)
    return {"dim": count, "monomials": mons, "action": action,
            "degrees": [monomial_degree(A, m) for m in mons]}


def _spin(F, mats, v):
    """Echelon basis of the submodule generated by v under the dense
    letters mats.

    Breadth-first closure; each layer is hit with every letter in one
    batched product, and each letter's image block is inserted at once."""
    ech = Echelon(F, v.shape[0])
    ech.insert(v)
    layer = v[:, None]
    while mats and layer.shape[1]:
        block = Mat(F, layer)
        found = []
        for Mx in mats:
            out = (Mx @ block).a
            found.append(out[:, ech.insert(out.swapaxes(0, 1))])
        layer = np.concatenate(found, axis=1)
    return ech


def simple_quotient(spec, seed=0):
    """Head of the cyclic submodule generated by a seeded random element of
    the regular module.  Implemented for abelian unipotent algebras, where
    the reduced quotient is local, every cyclic head is a line, and the
    radical is spanned by the character-shifted letters."""
    A = spec.algebra
    F = A.F
    _require_unipotent(A)
    for i in range(A.dim):
        for j in range(i + 1):
            if A.bracket(i, j):
                raise ValueError("cyclic heads are implemented for abelian "
                                 "algebras only")
    if spec.chi.fclasses:
        raise NotStandard("cyclic heads need a linear character")
    reg = regular_module(spec)
    count = reg["dim"]
    rng = random.Random(seed)
    v = np.zeros((count, F.k), dtype=np.int64)
    while not v.any():
        for t in range(count):
            v[t] = F.to_digits(rng.randrange(F.q))
    mats = [reg["action"][i] for i in range(A.dim)]

    span = _spin(F, mats, v)
    W = Mat(F, np.stack(span.basis(), axis=1))
    rad = Echelon(F, count)
    for i, Mx in enumerate(mats):
        rad.insert((Mx @ W - W.scale(spec.chi.value(i))).a.swapaxes(0, 1))
    if span.dim - rad.dim != 1:
        raise ValueError("cyclic head is not a line (%d over %d)"
                         % (span.dim, rad.dim))
    w0 = next(w for w in span.basis() if not rad.contains(w))
    head = rad.reduce(w0)
    action = {}
    for i, Mx in enumerate(mats):
        u = rad.reduce(Mx.matvec(w0))
        c = _proportional(F, u, head)
        if c is None:
            raise ValueError("letter %s does not act on the head line"
                             % A.names[i])
        action[i] = Mat.from_codes(F, [[c]])
    gen = [int(x) for x in F.array_to_codes(v.reshape(1, count, F.k))[0]]
    return {"dim": 1, "action": action, "degrees": [A.group.zero],
            "generator": gen}


def _mod_view(M, key):
    """The field key of a module or of a module dict."""
    return M[key] if isinstance(M, dict) else getattr(M, key)


def module_isomorphism(algebra, M1, M2):
    """Invertible degree-preserving intertwiner X (R2 X = X R1 for the
    action matrices R1, R2 of every letter) between two explicit modules;
    ValueError when none exists.

    The degree-preserving matrix units span the start space.  Letter by
    letter, the space is cut to the kernel of X -> R2 X - X R1, computed
    on whole matrices, so a letter of any degree imposes all of its
    equations.  The basis of what is left and seeded random combinations
    of it are the candidates, checked for rank and intertwining.  The
    start stack holds one d x d matrix per unit; TooLarge is raised before
    it is allocated when it would exceed 2^23 digit cells (64 MiB)."""
    F = algebra.F
    d1, deg1 = _mod_view(M1, "dim"), _mod_view(M1, "degrees")
    d2, deg2 = _mod_view(M2, "dim"), _mod_view(M2, "degrees")
    if d1 != d2:
        raise ValueError("modules have different dimensions")
    u2, u1 = np.nonzero(np.array([g2 == g1 for g2 in deg2 for g1 in deg1],
                                 dtype=bool).reshape(d2, d1))
    if not u2.size:
        raise ValueError("no degree-preserving maps exist")
    _require_cells(u2.size * d2 * d1 * F.k, "the start stack",
                   cutoff=1 << 23)
    a1, a2 = _mod_view(M1, "action"), _mod_view(M2, "action")
    S = np.zeros((u2.size, d2 * d1, F.k), dtype=np.int64)
    S[np.arange(u2.size), u2 * d1 + u1, 0] = 1
    for i in range(algebra.dim):
        if not len(S):
            break
        X = S.reshape(-1, d2, d1, F.k)
        comm = (digit_product(F, a2[i].a, X, np.matmul)
                - digit_product(F, X, a1[i].a, np.matmul)) % F.p
        K = Mat(F, comm.reshape(len(S), -1, F.k).swapaxes(0, 1)).nullspace()
        S = digit_product(F, K.a.swapaxes(0, 1), S, np.matmul)
    candidates = list(S)
    if len(S) > 1:
        rng = random.Random(0)
        coeffs = F.codes_to_array([[rng.randrange(F.q) for _ in S]
                                   for _ in range(20)])
        candidates += list(digit_product(F, coeffs, S, np.matmul))
    for X in candidates:
        Fm = Mat(F, X.reshape(d2, d1, F.k))
        if Fm.rank() != d1:
            continue
        if all((a2[i] @ Fm) == (Fm @ a1[i]) for i in range(algebra.dim)):
            return Fm
    raise ValueError("modules are not isomorphic through a degree-"
                     "preserving map")


# -- weight sweeps ----------------------------------------------------------------

def sweep_rows(spec, triple, oracle=True, max_enumerate=3, samples=40,
               seed=0, fix=None):
    """One row per admissible weight whose line base extends to the
    parabolic of triple: both routes to the simplicity value, the optional
    brute-force verdict, the agreement flag (vanishing loci and verdict
    must all line up) and the row's wall time in ms.  fix ({Cartan
    position: code}) keeps only the weights with those values.  BadWeight
    when no weight extends.

    f_closed runs per weight; the Cartan route is evaluated for all the
    weights at once (`_hc_values`).  No module is built: every line base's
    module has the triple's weight-space layout up to the order of its
    spaces, so the layout is made once per triple (`_line_layout`), and
    each chunk of rows is valued on the plan's cells (`_cell_sums`) and
    filled straight into its weight-space blocks (`oracle._fill`).  A
    chunk holds as many rows as keep its entry values within _SLAB // 2
    digit cells and its filled blocks within _SLAB, and at least one.  The
    oracle judges the rows in batches (`_judge`); a batch is judged before
    the next row's blocks would take it past _SLAB cells.  A line whose
    word span falls short is closed from its word basis on the same
    blocks.  A row's ms is its own time plus an equal share of the Cartan
    evaluation, of its chunk's valuing and fill and of its batch's
    judging."""
    lams = [lam for lam in admissible_lambdas(spec)
            if all(lam[n] == c for n, c in (fix or {}).items())]
    if not lams:
        return []
    t0 = time.perf_counter()
    closed = [f_closed(spec, triple, lam) for lam in lams]
    hc, _rev = _hc_values(spec, triple, lams)
    share = (time.perf_counter() - t0) * 1000.0 / len(lams)
    rows, bases = [], []
    unextended = None
    for lam, fc, fh in zip(lams, closed, hc):
        t0 = time.perf_counter()
        try:
            bases.append(_line_base(spec, triple, lam))
        except BadWeight as exc:
            unextended = exc
            continue
        rows.append({"lambda": [int(c) for c in lam], "f_closed": fc,
                     "f_hc": fh, "oracle": None,
                     "agree": (fc == 0) == (fh == 0),
                     "ms": share + (time.perf_counter() - t0) * 1000.0})
    if not rows and unextended is not None:
        raise unextended
    pending = []

    def judge():
        t0 = time.perf_counter()
        verdicts = _judge([g for _row, g in pending], max_enumerate,
                          samples, seed)
        share = (time.perf_counter() - t0) * 1000.0 / len(pending)
        for (row, _g), verdict in zip(pending, verdicts):
            row["oracle"] = "simple" if verdict["simple"] else "not-simple"
            row["agree"] = row["agree"] and (
                (row["f_closed"] == 0) == (not verdict["simple"]))
            row["ms"] += share
        pending.clear()

    if oracle and rows:
        F = spec.algebra.F
        plan = _induction_table(spec, triple)
        kept, layout = _line_layout(spec, plan)
        step = max(1, min(_SLAB // 2 // (len(plan["coeffs"]) * F.k),
                          _SLAB // max(1, layout["cells"])))
        shift = plan["shift"][layout["first"]]
        for c0 in range(0, len(rows), step):
            t0 = time.perf_counter()
            chunk = bases[c0:c0 + step]
            sums = _cell_sums(F, plan, chunk)[kept]
            lams = F.codes_to_array([b.weights[0] for b in chunk])
            gathered = _fill(spec, layout, F.array_to_codes(
                (shift + lams[:, None]) % F.p), sums.reshape(
                    len(kept), len(chunk), F.k).swapaxes(0, 1))
            share = (time.perf_counter() - t0) * 1000.0 / len(chunk)
            for row, g in zip(rows[c0:c0 + step], gathered):
                row["ms"] += share
                if pending and (sum(h.cells for _row, h in pending)
                                + g.cells > _SLAB):
                    judge()
                pending.append((row, g))
        if pending:
            judge()
    for row in rows:
        row["ms"] = round(row["ms"], 3)
    return rows
