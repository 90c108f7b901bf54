"""Induction orderings, induced modules, and the simplicity machinery."""

import contextlib
import io
import itertools
import os
import random
import time
import tracemalloc

import numpy as np
import pytest

from colorlie import cli, field, oracle, repmod
from colorlie.algebra import ColorAlgebra, TriangularData, make_gl, subalgebra
from colorlie.cli import load_spec
from colorlie.envelope import (chi_reduce, engine_for, harish_chandra,
                               monomial_degree, monomial_weight, nf_letter,
                               nf_one, uchi_basis)
from colorlie.errors import (BadWeight, ChiOnDelta, ChiOnNplus, DoubledRoot,
                             InvariantError, MixedSpecs, NoOrderingFound,
                             NotScalar, NotStandard, NotUnipotent,
                             NotWeightZero, OddElement, TooLarge)
from colorlie.field import _SLAB, Field
from colorlie.groups import (Bicharacter, GradedGroup, super_bicharacter,
                             trivial_bicharacter)
from colorlie.linalg import Echelon, Mat
from colorlie.repmod import (BaseModule, FPTriple, GradedModule, PCharacter,
                             admissible_lambdas, extract_kappa, f_closed,
                             f_via_hc, fp_order, is_simple,
                             module_from_wire, module_isomorphism, pchar_zero,
                             regular_module, root_datum, simple_quotient,
                             singular_vectors, sweep_rows, unipotent_socle,
                             verma_build, weight_tuple)
from test_golden import CASES, SPECS

F5 = Field(5)


def gl2():
    return make_gl(trivial_bicharacter(GradedGroup([]), F5), {(): 2})


def gl3():
    return make_gl(trivial_bicharacter(GradedGroup([]), F5), {(): 3})


def gl4():
    return make_gl(trivial_bicharacter(GradedGroup([]), F5), {(): 4})


def gl5():
    return make_gl(trivial_bicharacter(GradedGroup([]), F5), {(): 5})


def gl11():
    _, eps = super_bicharacter(F5)
    return make_gl(eps, {(0,): 1, (1,): 1})


def gl21():
    _, eps = super_bicharacter(F5)
    return make_gl(eps, {(0,): 2, (1,): 1})


def gl12():
    _, eps = super_bicharacter(F5)
    return make_gl(eps, {(0,): 1, (1,): 2})


def gl22():
    _, eps = super_bicharacter(F5)
    return make_gl(eps, {(0,): 2, (1,): 2})


def anti_gl3():
    """gl(3) graded by Z/2 x Z/2 with anticommuting off-blocks."""
    G = GradedGroup([2, 2])
    one, neg = F5.one, F5.neg(F5.one)
    eps = Bicharacter(G, F5, [[one, neg], [neg, one]])
    return make_gl(eps, {(0, 0): 1, (1, 0): 1, (0, 1): 1})


def line_algebra(degree=(), orders=(), pmap={0: {}}):
    G = GradedGroup(list(orders))
    if orders:
        _, eps = super_bicharacter(F5)
    else:
        eps = trivial_bicharacter(G, F5)
    return ColorAlgebra(eps, ["x"], [degree], {}, pmap=pmap)


def zero_spec(A):
    return chi_reduce(A, pchar_zero(A))


# -- induction orderings ---------------------------------------------------------


def test_fp_order_gl3_borel():
    A = gl3()
    trip = fp_order(A)
    assert [A.names[t] for t in trip.deltas] == ["e_12", "e_13", "e_23"]
    assert trip.levi == ()
    assert len(trip.certificates["steps"]) == 3
    assert trip.certificates["final_positive_system"]
    for cert in trip.certificates["steps"]:
        assert all(cert.values())


def test_fp_order_gl3_levi():
    A = gl3()
    trip = fp_order(A, levi=[A.index_of("e_12")])
    assert [A.names[t] for t in trip.deltas] == ["e_23", "e_13"]


def test_fp_order_reverse_ordering_rejected():
    A = gl3()
    trip = fp_order(A, levi=[A.index_of("e_12")])
    with pytest.raises(ValueError, match="simple_root"):
        FPTriple(A, trip.levi, list(reversed(trip.deltas)))


def test_fp_order_gl2_and_full_levi():
    A = gl2()
    trip = fp_order(A)
    assert [A.names[t] for t in trip.deltas] == ["e_12"]
    B = gl3()
    full = fp_order(B, levi=list(root_datum(B).pos))
    assert full.deltas == ()
    assert full.certificates["final_positive_system"]


def test_fp_order_levi_not_normalizing():
    # {+-(eps1 - eps3)} is a subsystem, but no ordering of the two other
    # positive roots survives the normalization condition
    A = gl3()
    with pytest.raises(NoOrderingFound):
        fp_order(A, levi=[A.index_of("e_13")])


def test_fptriple_validation_errors():
    A = gl3()
    tri = root_datum(A)
    e12, e23, e13 = (A.index_of(n) for n in ("e_12", "e_23", "e_13"))
    with pytest.raises(ValueError, match="overlap"):
        FPTriple(A, [e12], [e12, e13, e23])
    with pytest.raises(ValueError, match="cover"):
        FPTriple(A, [e12], [e13])
    with pytest.raises(ValueError, match="repeated"):
        FPTriple(A, [e12], [e13, e13])
    with pytest.raises(ValueError, match="positive-root letter"):
        FPTriple(A, [tri.cartan[0]], [e12, e13, e23])
    with pytest.raises(ValueError, match="positive-root letter"):
        fp_order(A, levi=[tri.neg[0]])


def doubled_line():
    """Abelian algebra with decorative triangular data whose root system
    contains both d and 2d (a genuine FP ordering cannot exist there)."""
    eps = trivial_bicharacter(GradedGroup([]), F5)
    names = ["f2", "f1", "h", "e1", "e2"]
    tri = TriangularData(
        neg=[0, 1], cartan=[2], pos=[3, 4],
        roots={3: (1,), 4: (2,), 1: (-1,), 0: (-2,)},
        heights={3: 1, 4: 2, 1: 1, 0: 2},
        pairs={3: (3, 1, {2: 1}), 4: (4, 0, {2: 2})})
    return ColorAlgebra(eps, names, [()] * 5, {},
                        pmap={i: {} for i in range(5)}, triangular=tri)


def test_doubled_root_system_has_no_ordering():
    A = doubled_line()
    with pytest.raises(NoOrderingFound):
        fp_order(A)


def test_f_closed_rejects_doubled_roots():
    A = doubled_line()

    class Stub:
        algebra = A
        deltas = (3, 4)

        def delta_roots(self):
            return [(1,), (2,)]

    with pytest.raises(DoubledRoot):
        f_closed(zero_spec(A), Stub(), (0,))


# -- weights ---------------------------------------------------------------------


def test_weight_tuple_forms():
    A = gl2()
    h11, h22 = A.index_of("e_11"), A.index_of("e_22")
    assert weight_tuple(A, (3, 1)) == (3, 1)
    assert weight_tuple(A, {h22: 1, h11: 3}) == (3, 1)
    with pytest.raises(BadWeight):
        weight_tuple(A, (3, 1, 0))
    with pytest.raises(BadWeight):
        weight_tuple(A, (5, 0))
    with pytest.raises(BadWeight):
        weight_tuple(A, {A.index_of("e_12"): 1})


def test_admissible_lambdas_zero_chi():
    A = gl2()
    lams = admissible_lambdas(zero_spec(A))
    assert len(lams) == 25
    assert lams[0] == (0, 0) and lams[-1] == (4, 4)


def test_admissible_lambdas_artin_schreier():
    # over F_25 the fibre is empty unless the 5th power of the character
    # value has zero trace
    F = Field(5, 2)
    A = make_gl(trivial_bicharacter(GradedGroup([]), F), {(): 2})
    h11 = A.index_of("e_11")
    bad = chi_reduce(A, PCharacter(A, linear={h11: 1}))
    assert admissible_lambdas(bad) == []
    good_code = next(a for a in range(1, F.q)
                     if F.trace_to_prime(F.pow(a, 5)) == 0)
    good = chi_reduce(A, PCharacter(A, linear={h11: good_code}))
    lams = admissible_lambdas(good)
    assert len(lams) == 25
    for lam in lams:
        assert F.sub(F.pow(lam[0], 5), lam[0]) == F.pow(good_code, 5)


# -- induced modules -------------------------------------------------------------


def test_verma_gl2_action_formula():
    # e . (f^a (x) v) = a (t - a + 1) f^{a-1} (x) v  at  t = lam(H) = 2
    A = gl2()
    spec = zero_spec(A)
    trip = fp_order(A)
    M = verma_build(spec, trip, weight=(2, 0))
    assert M.dim == 5
    assert M.labels == [((a,), 0) for a in range(5)]
    assert M.weights == [(2, 0), (1, 1), (0, 2), (4, 3), (3, 4)]
    assert M.heights == [0, 1, 2, 3, 4]
    e, f = A.index_of("e_12"), A.index_of("e_21")
    ecols = M.action[e].to_codes()
    t = 2
    for a in range(5):
        want = [0] * 5
        if a:
            want[a - 1] = (a * (t - a + 1)) % 5
        assert list(ecols[:, a]) == want
    for a in range(4):
        assert M.action[f].entry(a + 1, a) == 1
    assert M.action[f].a[:, 4].sum() == 0  # f^5 = 0 at chi = 0


def test_verma_sizes():
    for build, dim in ((gl11, 2), (gl3, 125), (gl21, 20)):
        A = build()
        spec = zero_spec(A)
        M = verma_build(spec, fp_order(A), weight=(0,) * len(root_datum(A).cartan))
        assert M.dim == dim
        M.validate()


def test_verma_errors():
    A = gl2()
    spec = zero_spec(A)
    trip = fp_order(A)
    with pytest.raises(BadWeight):
        verma_build(spec, trip)
    # gl(5)/F_5 induces 5^10-dim modules: its plan's PBW table alone of
    # 5^10 x 25 cells is refused before its monomials are listed
    A5 = gl5()
    with pytest.raises(TooLarge, match="PBW table of 244140625 cells"):
        verma_build(zero_spec(A5), fp_order(A5), weight=(1, 2, 3, 4, 0))
    other = gl2()
    with pytest.raises(MixedSpecs):
        verma_build(spec, fp_order(other), weight=(0, 0))
    chi = PCharacter(A, linear={A.index_of("e_21"): 1})
    with pytest.raises(ChiOnDelta):
        verma_build(chi_reduce(A, chi), fp_order(A), weight=(0, 0))


def test_verma_rejects_class_characters():
    from colorlie.repmod import PowerClass
    A = anti_gl3()
    xi = next(i for i in range(A.dim) if A.is_even(i)
              and A.degree(i) != A.group.zero)
    cls = PowerClass(A.degree(xi), xi, {xi: F5.one}, 2)
    spec = chi_reduce(A, PCharacter(A, fclasses=[cls]))
    with pytest.raises(NotStandard):
        verma_build(spec, fp_order(A), weight=(0, 0, 0))


def test_levi_line_base_needs_vanishing_on_levi():
    A = gl3()
    spec = zero_spec(A)
    trip = fp_order(A, levi=[A.index_of("e_12")])
    M = verma_build(spec, trip, weight=(2, 2, 0))
    assert M.dim == 25
    with pytest.raises(BadWeight):
        verma_build(spec, trip, weight=(2, 1, 0))


def test_levi_sweep_keeps_the_weights_that_extend():
    # the line base extends to the parabolic of e_12 exactly when the
    # weight takes one value on e_11 and e_22: 25 of the 125 weights
    A = gl3()
    spec = zero_spec(A)
    trip = fp_order(A, levi=[A.index_of("e_12")])
    rows = sweep_rows(spec, trip)
    assert [tuple(r["lambda"]) for r in rows] == [
        lam for lam in admissible_lambdas(spec) if lam[0] == lam[1]]
    assert all(r["agree"] for r in rows)
    with pytest.raises(BadWeight, match="does not extend"):
        sweep_rows(spec, trip, fix={0: 1, 1: 0})


def natural_base(spec, trip, block=(1, 2)):
    """The 2-dim natural module of the gl(2) Levi block on the basis
    vectors block = (s, t) inside gl(3); every other letter acts as zero."""
    A = spec.algebra
    f_letters = {A.triangular.pairs[t][1] for t in trip.deltas}
    action = {}
    for x, name in enumerate(A.names):
        i, j = int(name[2]), int(name[3])
        if x not in f_letters:
            m = np.zeros((2, 2), dtype=np.int64)
            if i in block and j in block:
                m[block.index(i), block.index(j)] = 1
            action[x] = Mat.from_codes(F5, m)
    return BaseModule(spec, trip, action,
                      [tuple(int(c == s) for c in (1, 2, 3)) for s in block],
                      [A.group.zero] * 2, [0, 1])


def test_parabolic_induction_with_matrix_base():
    A = gl3()
    spec = zero_spec(A)
    trip = fp_order(A, levi=[A.index_of("e_12")])
    base = natural_base(spec, trip)
    M = verma_build(spec, trip, base=base)
    assert M.dim == 50
    M.validate()
    assert not is_simple(M)["simple"]
    with pytest.raises(ValueError, match="not both"):
        verma_build(spec, trip, weight=(0, 0, 0), base=base)


def test_base_module_validation_errors():
    A = gl3()
    spec = zero_spec(A)
    trip = fp_order(A, levi=[A.index_of("e_12")])
    base = natural_base(spec, trip)
    act = dict(base.action)
    bad = dict(act)
    bad[A.index_of("e_32")] = act[A.index_of("e_12")]
    with pytest.raises(ValueError, match="induced letter"):
        BaseModule(spec, trip, bad, base.weights, base.degrees, base.heights)
    bad = dict(act)
    del bad[A.index_of("e_11")]
    with pytest.raises(ValueError, match="missing action"):
        BaseModule(spec, trip, bad, base.weights, base.degrees, base.heights)
    with pytest.raises(ValueError, match="height homogeneous"):
        BaseModule(spec, trip, act, base.weights, base.degrees, [0, 0])
    bad = dict(act)
    bad[A.index_of("e_23")] = act[A.index_of("e_12")]
    with pytest.raises(ValueError, match="act as zero"):
        BaseModule(spec, trip, bad, base.weights, base.degrees, base.heights)


def test_graded_module_validate_catches_corruption():
    A = gl2()
    spec = zero_spec(A)
    M = verma_build(spec, fp_order(A), weight=(2, 0))
    e = A.index_of("e_12")
    act = {i: m.copy() for i, m in M.action.items()}
    act[e].a[0, 1, 0] = 3
    broken = GradedModule(spec, act, M.weights, M.degrees, M.heights,
                          check=False)
    with pytest.raises(ValueError):
        broken.validate()


def _failing_pairs(M, letters):
    """Names of the letter pairs (x_i, x_j), j up to i in the order of
    letters, whose bracket relation fails on M, one pair at a time."""
    A = M.spec.algebra
    out = []
    for n, i in enumerate(letters):
        for j in letters[:n + 1]:
            sign = A.eps.value(A.degree(i), A.degree(j))
            lhs = (M.action[i] @ M.action[j]
                   - (M.action[j] @ M.action[i]).scale(sign))
            rhs = Mat.zeros(A.F, M.dim, M.dim)
            for t, c in A.bracket(i, j).items():
                rhs = rhs + M.action[t].scale(c)
            if lhs != rhs:
                out.append((A.names[i], A.names[j]))
    return out


def _corrupted(M, **changes):
    """A copy of M, unchecked, with the named letters' actions replaced by
    a function of the old action (and optionally new weights)."""
    A = M.spec.algebra
    weights = changes.pop("weights", M.weights)
    act = {i: m.copy() for i, m in M.action.items()}
    for name, fix in changes.items():
        i = A.index_of(name)
        if fix is None:
            del act[i]
        else:
            act[i] = fix(act[i])
    return GradedModule(M.spec, act, weights, M.degrees, M.heights,
                        check=False)


def _bump(M, name):
    """A change of the first nonzero entry of a letter's action by one: it
    breaks relations but no grading check."""
    i = M.spec.algebra.index_of(name)
    r, c = (int(x[0]) for x in np.nonzero(M.action[i].a.any(axis=-1)))
    code = M.spec.algebra.F.add(M.action[i].entry(r, c), 1)

    def fix(m):
        m.a[r, c] = m.F.to_digits(code)
        return m
    return fix


def test_check_module_reports_first_failing_pair():
    A = gl3()
    spec = zero_spec(A)
    M = verma_build(spec, fp_order(A), weight=(1, 3, 0))
    letters = list(range(A.dim))
    broken = _corrupted(M, e_12=_bump(M, "e_12"), e_13=_bump(M, "e_13"))
    failing = _failing_pairs(broken, letters)
    assert len(failing) >= 2 and failing[0] == ("e_12", "e_21")
    with pytest.raises(ValueError) as exc:
        broken.validate()
    assert str(exc.value) == "bracket relation fails at (e_12, e_21)"
    # without e_32 among the acting letters, [e_12, e_31] = -e_32 leaves
    # them; that pair comes before every pair a broken e_23 fails
    rest = [i for i in letters if i != A.index_of("e_32")]
    assert _failing_pairs(_corrupted(M, e_23=_bump(M, "e_23")), letters)
    broken = _corrupted(M, e_32=None, e_23=_bump(M, "e_23"))
    with pytest.raises(ValueError) as exc:
        repmod._check_module(broken, rest)
    assert str(exc.value) == ("bracket of e_12 and e_31 leaves the acting "
                              "letters")
    # and after the failing pair (e_12, e_21)
    broken = _corrupted(M, e_32=None, e_12=_bump(M, "e_12"))
    with pytest.raises(ValueError) as exc:
        repmod._check_module(broken, rest)
    assert str(exc.value) == "bracket relation fails at (e_12, e_21)"


def test_check_module_reports_first_broken_pmap():
    # shifting every Cartan letter and weight by one scalar c keeps each
    # bracket and grading; h^p - h = 0 then fails on both Cartan letters
    # unless c lies in F_5, and the first letter is reported
    F = Field(5, 2)
    A = make_gl(trivial_bicharacter(GradedGroup([]), F), {(): 2})
    spec = zero_spec(A)
    M = verma_build(spec, fp_order(A), weight=(0, 0))
    for c, want in ((F.embed(2), None), (F.from_wire([0, 1]), "e_11")):
        def fix(m):
            return m + Mat.identity(F, M.dim).scale(c)
        weights = [tuple(F.add(x, c) for x in w) for w in M.weights]
        broken = _corrupted(M, e_11=fix, e_22=fix, weights=weights)
        if want is None:
            assert broken.validate()
            continue
        with pytest.raises(ValueError) as exc:
            broken.validate()
        assert str(exc.value) == "reduced power relation fails at " + want


def test_line_base_reports_exact_relation():
    A = gl3()
    spec = zero_spec(A)
    trip = fp_order(A, levi=[A.index_of("e_12")])
    with pytest.raises(BadWeight) as exc:
        verma_build(spec, trip, weight=(2, 1, 0))
    assert str(exc.value) == ("the weight does not extend to the parabolic: "
                              "bracket relation fails at (e_12, e_21)")
    B = gl2()
    chi = PCharacter(B, linear={B.index_of("e_11"): 1})
    with pytest.raises(BadWeight) as exc:
        verma_build(chi_reduce(B, chi), fp_order(B), weight=(0, 0))
    assert str(exc.value) == ("the weight does not extend to the parabolic: "
                              "reduced power relation fails at e_11")


def _line_chi(A, name):
    return chi_reduce(A, PCharacter(A, linear={A.index_of(name): 1}))


@pytest.mark.parametrize("make, levi", [
    (lambda: zero_spec(gl2()), ()),
    (lambda: _line_chi(gl2(), "e_11"), ()),
    (lambda: zero_spec(gl3()), ("e_12",)),
    (lambda: zero_spec(gl21()), ("e_23",)),
    (lambda: zero_spec(anti_gl3()), ("e_12",)),
    (lambda: _regss_gl3_f25(), ("e_23",)),
], ids=["gl2", "gl2_chi", "gl3_levi", "gl21_odd_levi", "anti_gl3_levi",
        "gl3_f25_regss_levi"])
def test_line_base_check_matches_module_check(make, levi):
    # the scalar check of a line base reports what the matrix check of the
    # same base reports, first failure included, at every sampled weight
    spec = make()
    A = spec.algebra
    F, tri = A.F, A.triangular
    trip = fp_order(A, levi=[A.index_of(n) for n in levi])
    cpos = {h: n for n, h in enumerate(tri.cartan)}
    fs = {tri.pairs[t][1] for t in trip.deltas}
    zero = [tri.pairs[t][0] for t in trip.deltas]
    lams = list(itertools.product(range(F.q), repeat=len(cpos)))
    lams = random.Random(0).sample(lams, min(len(lams), 150))
    for lam in lams:
        try:
            repmod._line_base(spec, trip, lam)
            got = None
        except BadWeight as exc:
            got = str(exc).split(": ", 1)[1]
        base = BaseModule(spec, trip, {
            i: Mat.from_codes(F, [[lam[cpos[i]] if i in cpos else 0]])
            for i in range(A.dim) if i not in fs},
            [lam], [A.group.zero], [0], check=False)
        try:
            repmod._check_module(base, base.letters, zero)
            want = None
        except ValueError as exc:
            want = str(exc)
        assert got == want, lam


def _graded_basis(spec, triple, weights, degrees, heights):
    """Labels, weights, color degrees and heights of the induced basis, one
    PBW monomial and one base vector (given by its gradings) at a time."""
    A = spec.algebra
    F, g, tri = A.F, A.group, A.triangular
    f_letters = [tri.pairs[t][1] for t in triple.deltas]
    out = ([], [], [], [])
    for a in itertools.product(*[range(spec.caps[f]) for f in f_letters]):
        mono = [0] * A.dim
        for f, e in zip(f_letters, a):
            mono[f] = e
        shift = monomial_weight(A, mono)
        dg = monomial_degree(A, mono)
        ht = sum(e * tri.heights[t] for t, e in zip(triple.deltas, a))
        for j, (w, d, h) in enumerate(zip(weights, degrees, heights)):
            out[0].append((a, j))
            out[1].append(tuple(F.add(x, F.embed(s))
                                for x, s in zip(w, shift)))
            out[2].append(g.add(dg, d))
            out[3].append(ht + h)
    return out


@pytest.mark.parametrize("make, levi, lams", [
    (lambda: zero_spec(gl3()), (), [(1, 3, 0), (2, 2, 0)]),
    (lambda: _regss_gl3_f25(), (), [7, 3]),
    (lambda: zero_spec(gl21()), (), [(1, 2, 4), (3, 0, 2)]),
    (lambda: zero_spec(anti_gl3()), (), [3, 10]),
    (lambda: zero_spec(gl3()), ("e_12",), [(2, 2, 0), None, (1, 1, 3)]),
], ids=["gl3_f5", "gl3_f25_regss", "gl21", "anti_gl3", "gl3_levi"])
def test_verma_grading_matches_per_monomial(make, levi, lams):
    # the first build fills the spec's induction table, the later ones
    # read it warm; None stands for the 2-dim natural Levi base
    spec = make()
    A = spec.algebra
    trip = fp_order(A, levi=[A.index_of(n) for n in levi])
    for lam in lams:
        if lam is None:
            base = natural_base(spec, trip)
            M = verma_build(spec, trip, base=base)
            grading = (base.weights, base.degrees, base.heights)
        else:
            if isinstance(lam, int):
                lam = admissible_lambdas(spec)[lam]
            M = verma_build(spec, trip, weight=lam)
            grading = ([tuple(lam)], [A.group.zero], [0])
        labels, weights, degrees, heights = _graded_basis(spec, trip,
                                                          *grading)
        assert M.labels == labels
        assert M.weights == weights
        assert M.degrees == degrees
        assert M.heights == heights


def test_module_wire_dump():
    A = gl11()
    spec = zero_spec(A)
    M = verma_build(spec, fp_order(A), weight=(1, 3))
    wire = M.to_wire()
    assert sorted(wire) == ["action", "basis", "dim", "heights", "weights"]
    assert wire["dim"] == 2
    assert wire["basis"] == [[[0], 0], [[1], 0]]
    assert wire["weights"] == [[[1], [3]], [[0], [4]]]
    assert wire["heights"] == [0, 1]
    assert len(wire["action"]) == A.dim
    for i, rows in wire["action"]:
        got = Mat(F5, np.asarray(rows, dtype=np.int64))
        assert got == M.action[i]
    back = module_from_wire(spec, wire)
    assert back.to_wire() == wire
    assert back.labels == M.labels


# -- singular vectors and simplicity ----------------------------------------------


def test_singular_vectors_gl2():
    A = gl2()
    spec = zero_spec(A)
    trip = fp_order(A)
    M = verma_build(spec, trip, weight=(2, 0))
    sv = singular_vectors(M)
    exps = sorted(int(np.nonzero(v.any(axis=-1))[0][0])
                  for vecs in sv.values() for v in vecs)
    assert exps == [0, 3]
    M4 = verma_build(spec, trip, weight=(4, 0))
    sv4 = singular_vectors(M4)
    assert sum(len(v) for v in sv4.values()) == 1
    (key, vecs), = sv4.items()
    assert vecs[0][0, 0] == 1  # the generator line 1 (x) v


def _per_bucket_singular_vectors(M):
    """Reference: one kernel per (weight, degree, height) bucket, each from
    Mat.nullspace on the whole stack of height-one raising actions cut to
    the bucket's columns."""
    A = M.spec.algebra
    F = A.F
    tri = root_datum(A)
    raising = [t for t in tri.pos if tri.heights[t] == 1]
    stack = np.concatenate([np.zeros((0, M.dim, F.k), dtype=np.int64)]
                           + [M.action[t].a for t in raising])
    buckets = {}
    for u in range(M.dim):
        key = (M.weights[u], tuple(M.degrees[u]), M.heights[u])
        buckets.setdefault(key, []).append(u)
    out = {}
    for key in sorted(buckets):
        cols = buckets[key]
        K = Mat(F, stack[:, cols]).nullspace()
        if K.shape[1]:
            vecs = []
            for t in range(K.shape[1]):
                full = np.zeros((M.dim, F.k), dtype=np.int64)
                full[cols] = K.a[:, t]
                vecs.append(full)
            out[key] = vecs
    return out


def _gl2_f2401_modules():
    """gl(2) over F_2401 (above the table limit): chi = 0 at (3, 1), where
    the singular space is a plane, and a regular semisimple chi whose
    weights leave the prime field, so pivots are general field elements."""
    F = Field(7, 4)
    A = make_gl(trivial_bicharacter(GradedGroup([]), F), {(): 2})
    zero = zero_spec(A)
    yield zero, fp_order(A), [(3, 1)]
    c = next(a for a in range(F.p, F.q) if F.trace_to_prime(a) == 0)
    spec = chi_reduce(A, PCharacter(A, linear={A.index_of("e_11"): c}))
    yield spec, fp_order(A), admissible_lambdas(spec)[5:7]


def _singular_pin_cases():
    for make in (gl2, gl11, gl21):
        A = make()
        yield zero_spec(A), fp_order(A), None
    slice_spec = zero_spec(load_spec(os.path.join(
        os.path.dirname(__file__), "specs", "gl3_slice.json"))["algebra"])
    yield slice_spec, fp_order(slice_spec.algebra), [
        lam for lam in admissible_lambdas(slice_spec) if lam[2] == 0]
    regss = _regss_gl3_f25()
    yield regss, fp_order(regss.algebra), admissible_lambdas(regss)[7:9]
    yield from _gl2_f2401_modules()


def test_singular_vectors_match_per_bucket_nullspace():
    modules = 0
    for spec, trip, lams in _singular_pin_cases():
        if lams is None:
            lams = admissible_lambdas(spec)
        for lam in lams:
            M = verma_build(spec, trip, weight=lam, check=False)
            got = singular_vectors(M)
            want = _per_bucket_singular_vectors(M)
            assert list(got) == list(want), lam
            for key in want:
                assert len(got[key]) == len(want[key]), (lam, key)
                for g, w in zip(got[key], want[key]):
                    assert g.shape == w.shape and np.array_equal(g, w), \
                        (lam, key)
            modules += 1
    assert modules == 25 + 25 + 125 + 25 + 2 + 1 + 2


def test_is_simple_gl2():
    A = gl2()
    spec = zero_spec(A)
    trip = fp_order(A)
    good = is_simple(verma_build(spec, trip, weight=(4, 0)))
    assert good["simple"] and good["method"] == "exhaustive"
    bad = is_simple(verma_build(spec, trip, weight=(2, 0)))
    assert not bad["simple"]
    assert bad["witness"] is not None and bad["weight"] is not None


def _reference_is_simple(M, max_enumerate=3, samples=40, seed=0):
    """is_simple's verdict with every singular line spun up one vector at a
    time under every letter, for comparison with the library's closure."""
    F = M.spec.algebra.F
    by_weight = {}
    for (w, _dg, _ht), vecs in singular_vectors(M).items():
        by_weight.setdefault(w, []).extend(vecs)
    rng = random.Random(seed)
    method = "exhaustive"
    lines = 0
    for w in sorted(by_weight):
        S = np.stack(by_weight[w])
        d = len(S)
        if d <= max_enumerate:
            combos = [(0,) * lead + (1,) + tail for lead in range(d)
                      for tail in itertools.product(range(F.q),
                                                    repeat=d - lead - 1)]
        else:
            method = "randomized"
            combos = [[rng.randrange(F.q) for _ in range(d)]
                      for _ in range(samples)]
        for coeffs in combos:
            v = (Mat.from_codes(F, [coeffs]) @ Mat(F, S)).a[0]
            if not v.any():
                continue
            lines += 1
            ech = Echelon(F, M.dim)
            ech.insert(v)
            todo = [v]
            while todo and ech.dim < M.dim:
                u = todo.pop()
                for i in sorted(M.action):
                    img = M.action[i].matvec(u)
                    if ech.insert(img):
                        todo.append(img)
            if ech.dim < M.dim:
                return {"simple": False, "method": method, "lines": lines,
                        "weight": [int(c) for c in w],
                        "witness": [int(c) for c in F.array_to_codes(v)]}
    return {"simple": True, "method": method, "lines": lines,
            "weight": None, "witness": None}


def _regss_gl21_f25():
    """gl(2|1) over F_25 with the diagonal character of _regss_gl3_f25: the
    odd lowering letters have cap 2, and every row is simple."""
    F = Field(5, 2, [3, 0, 1])
    _, eps = super_bicharacter(F)
    A = make_gl(eps, {(0,): 2, (1,): 1})
    chi = PCharacter(A, linear={A.index_of("e_11"): F.from_wire([0, 1]),
                                A.index_of("e_22"): F.from_wire([0, 2])})
    return chi_reduce(A, chi)


def _is_simple_pin_modules():
    """Induced modules for the is_simple pins: Borel line bases over F_5 and
    F_25, the gl(3)/F_5 Levi-parabolic line bases (three lowering letters of
    cap 5, so 125 ordered lowering words on a 25-dim module) and the 50-dim
    module induced from the natural gl(2) Levi base."""
    cases = []
    spec = zero_spec(gl2())
    cases += [(spec, lam) for lam in ((4, 0), (2, 0))]
    for build in (gl11, gl21):
        spec = zero_spec(build())
        cases += [(spec, lam) for lam in admissible_lambdas(spec)
                  if lam[-1] == 0]
    spec = zero_spec(gl3())
    cases += [(spec, lam) for lam in admissible_lambdas(spec)
              if lam[1:] == (4, 0)]
    for spec in (_regss_gl3_f25(), _regss_gl21_f25()):
        cases += [(spec, lam) for lam in admissible_lambdas(spec)[:2]]
    for spec, lam in cases:
        yield verma_build(spec, fp_order(spec.algebra), weight=lam)
    A = gl3()
    spec = zero_spec(A)
    trip = fp_order(A, levi=[A.index_of("e_12")])
    for lam in admissible_lambdas(spec):
        if lam[0] == lam[1]:
            yield verma_build(spec, trip, weight=lam)
    yield verma_build(spec, trip, base=natural_base(spec, trip))


def test_is_simple_matches_full_letter_closure():
    verdicts = set()
    dims = []
    for M in _is_simple_pin_modules():
        got = is_simple(M)
        assert got == _reference_is_simple(M), M.weights[0]
        verdicts.add(got["simple"])
        dims.append(M.dim)
    assert verdicts == {True, False}
    assert (dims.count(20), dims.count(25), dims.count(50)) == (25 + 2, 25, 1)
    spec = zero_spec(gl2())
    for lam in ((2, 0), (4, 0)):
        M = verma_build(spec, fp_order(spec.algebra), weight=lam)
        got = is_simple(M, max_enumerate=0, samples=5, seed=3)
        assert got["method"] == "randomized"
        assert got == _reference_is_simple(M, max_enumerate=0, samples=5,
                                           seed=3)


def test_judge_mixed_modules_in_one_call():
    # line-base modules of the Borel and the e_12 Levi triple of gl(3) and
    # the 50-dim natural-base module (weight spaces of unequal size) judged
    # in one batched pass: each gets exactly its one-module verdict
    A = gl3()
    spec = zero_spec(A)
    borel = fp_order(A)
    levi = fp_order(A, levi=[A.index_of("e_12")])
    lams = admissible_lambdas(spec)
    simple = [lam for lam in lams if f_closed(spec, borel, lam)][:1]
    modules = [verma_build(spec, borel, weight=lam)
               for lam in simple + lams[:2]]
    modules += [verma_build(spec, levi, weight=lam)
                for lam in ((2, 2, 0), (3, 3, 1))]
    modules.append(verma_build(spec, levi, base=natural_base(spec, levi)))
    for how in ((), (0, 5, 3)):
        want = [is_simple(M, *how) for M in modules]
        got = oracle._judge([oracle._gather(M) for M in modules], *how)
        assert got == want
        assert {v["simple"] for v in want} == {True, False}
    assert {M.dim for M in modules} == {125, 25, 50}
    regss = _regss_gl3_f25()
    other = verma_build(regss, fp_order(regss.algebra),
                        weight=admissible_lambdas(regss)[0])
    with pytest.raises(MixedSpecs):
        oracle._judge([oracle._gather(modules[0]), oracle._gather(other)])


def _on_space(g, w, s):
    """The (dim, k) vector w on the D coordinates of weight space s of the
    gathered blocks g, zero in the padding."""
    cols = g.idx[s]
    return np.where((cols >= 0)[:, None], w[cols], 0)


def test_word_span_matches_rank_of_all_words():
    # every ordered lowering word of every singular vector, one matvec at a
    # time, ranked as one matrix, against the per-weight-space ranking of
    # those words and against the block word span, grown from the gathered
    # blocks and cut to bases
    A = gl3()
    spec = zero_spec(A)
    trip = fp_order(A, levi=[A.index_of("e_12")])
    A2 = gl2()
    modules = [verma_build(spec, trip, weight=(2, 2, 0)),
               verma_build(spec, trip, base=natural_base(spec, trip)),
               verma_build(zero_spec(A2), fp_order(A2), weight=(2, 0))]
    short = 0
    for M in modules:
        tri = M.spec.algebra.triangular
        fs = [tri.pairs[t][1] for t in tri.pos]
        g = oracle._gather(M)
        space = np.zeros(M.dim, dtype=np.int64)
        for s, cols in enumerate(g.idx):
            space[cols[cols >= 0]] = s
        for vecs in singular_vectors(M).values():
            for v in vecs:
                words = []
                for exps in itertools.product(*[range(M.spec.caps[f])
                                                for f in fs]):
                    u = v
                    for f, e in reversed(list(zip(fs, exps))):
                        for _ in range(e):
                            u = M.action[f].matvec(u)
                    words.append(u)
                words = np.stack(words)
                rank = Mat(F5, words).rank()
                live = [w for w in words if w.any()]
                spaces = [space[np.flatnonzero(w.any(axis=-1))] for w in live]
                assert all(len(set(s.tolist())) == 1 for s in spaces)
                spaces = np.array([s[0] for s in spaces])
                local = np.stack([_on_space(g, w, s)
                                  for w, s in zip(live, spaces)])
                assert oracle._span(F5, local, np.zeros(len(live), int),
                                    spaces, 1)[0][0] == rank
                s0 = space[np.flatnonzero(v.any(axis=-1))[0]]
                assert oracle._word_span_ranks(
                    [g], [(0, s0, _on_space(g, v, s0))], g.D)[0] == rank
                short += rank < M.dim
    assert short >= 3


@pytest.mark.parametrize("make, lam, drop", [(gl3, (1, 2, 0), 0),
                                             (gl21, (0, 0, 0), 2)],
                         ids=["gl3", "gl21"])
def test_closure_passes_reach_the_submodule(monkeypatch, make, lam, drop):
    # without one lowering letter the words of a singular line fall short
    # of the submodule it generates; the passes of every letter still
    # reach it, against the dense spin-up, and stop only after a pass that
    # left the rank unchanged
    spec = zero_spec(make())
    M = verma_build(spec, fp_order(spec.algebra), weight=lam)
    g = oracle._gather(M)
    del g.lowering[drop]
    space = np.zeros(M.dim, dtype=np.int64)
    for s, cols in enumerate(g.idx):
        space[cols[cols >= 0]] = s
    mats = list(repmod._dense_letters(F5, spec.algebra.dim, M.dim,
                                      M.cells).values())
    lines, want = [], []
    for vecs in singular_vectors(M).values():
        for v in vecs:
            s = space[np.flatnonzero(v.any(axis=-1))[0]]
            lines.append((0, s, _on_space(g, v, s)))
            want.append(len(repmod._spin(F5, mats, v).pivots))
    tables = []
    apply = oracle._apply

    def applying(F, blocks, at, W):
        tables.append(blocks)
        return apply(F, blocks, at, W)

    monkeypatch.setattr(oracle, "_apply", applying)
    assert oracle._word_span_ranks([g], lines, g.D).tolist() == want
    # every closure pass applies each letter with cells once
    passes = sum(b is not tables[0] for b in tables) / len(g.every())
    assert passes >= 2


def test_is_simple_raises_on_empty_singular_space(monkeypatch):
    # n+ acts nilpotently, so a nonzero module always has a singular vector
    A = gl2()
    M = verma_build(zero_spec(A), fp_order(A), weight=(4, 0))
    monkeypatch.setattr(oracle, "_singular",
                        lambda gathered: [[] for _ in gathered])
    with pytest.raises(InvariantError, match="without singular vectors"):
        is_simple(M)


def test_singular_vectors_reject_buckets_sharing_rows():
    # f_31^2 . v and f_21 f_31 f_32 . v share weight and height; moved to
    # another height they form two buckets whose raising rows meet
    A = gl3()
    spec = zero_spec(A)
    M = verma_build(spec, fp_order(A), weight=(2, 0, 0))
    g = oracle._gather(M)
    x, y = g.idx[0][g.bucket[0] == 0][:2]
    assert M.heights[x] == M.heights[y]
    heights = list(M.heights)
    heights[y] += 100
    moved = GradedModule(spec, M.action, M.weights, M.degrees, heights,
                         check=False)
    with pytest.raises(InvariantError, match="mixes two singular buckets"):
        singular_vectors(moved)


def test_word_span_products_in_runs_of_slab_cells(monkeypatch):
    # with room for one block per product, every power of a letter takes
    # one digit_product per word; the verdicts stay the same
    spec = zero_spec(gl3())
    trip = fp_order(spec.algebra)
    modules = [verma_build(spec, trip, weight=lam)
               for lam in admissible_lambdas(spec)[:3]]
    want = [is_simple(M) for M in modules]
    monkeypatch.setattr(oracle, "_SLAB", 1)
    assert [is_simple(M) for M in modules] == want


def test_is_simple_rejects_word_across_weight_spaces():
    A = gl3()
    spec = zero_spec(A)
    trip = fp_order(A, levi=[A.index_of("e_12")])
    M = verma_build(spec, trip, base=natural_base(spec, trip))
    # the word f_12 f_23 . v_0 of the first singular line spans two basis
    # vectors of one weight space; moving one of them to the weight of the
    # last basis vector makes the word meet two recorded weight spaces
    v0 = np.zeros((M.dim, F5.k), dtype=np.int64)
    v0[0, 0] = 1
    word = M.action[A.index_of("e_21")].matvec(
        M.action[A.index_of("e_32")].matvec(v0))
    x, y = np.flatnonzero(word.any(axis=-1))
    assert M.weights[x] == M.weights[y] != M.weights[-1]
    weights = list(M.weights)
    weights[y], weights[-1] = weights[-1], weights[y]
    moved = GradedModule(spec, M.action, weights, M.degrees, M.heights,
                         check=False)
    with pytest.raises(InvariantError, match="two recorded weight spaces"):
        is_simple(moved)


def test_is_simple_spins_up_only_short_word_spans(monkeypatch):
    # one _word_span_ranks call per round; only a line whose ordered
    # lowering words fall short reads the blocks of every letter, and its
    # closure applies them to the basis of its words, not to v again
    calls, cuts, applied = [], [], []
    spans, gather, apply = (oracle._word_span_ranks, oracle._gather,
                            oracle._apply)

    def counted(gathered, lines, *rest):
        calls.append(len(lines))
        return spans(gathered, lines, *rest)

    def gathered(M):
        g = gather(M)
        every = g.every

        def cut():
            cuts.append(M.dim)
            return every()
        g.every = cut
        return g

    def applying(F, blocks, at, W):
        applied.append((len(cuts), len(W)))
        return apply(F, blocks, at, W)

    monkeypatch.setattr(oracle, "_word_span_ranks", counted)
    monkeypatch.setattr(oracle, "_gather", gathered)
    monkeypatch.setattr(oracle, "_apply", applying)
    spec = _regss_gl3_f25()
    M = verma_build(spec, fp_order(spec.algebra),
                    weight=admissible_lambdas(spec)[0])
    assert is_simple(M)["simple"] and M.dim == 125
    assert calls and not cuts
    calls.clear()
    applied.clear()
    spec = zero_spec(gl2())
    M = verma_build(spec, fp_order(spec.algebra), weight=(2, 0))
    verdict = is_simple(M)
    assert not verdict["simple"] and verdict["lines"] == 2
    assert calls == [1, 1] and cuts == [M.dim]
    # f^3 . v spans the two-dimensional submodule; every letter meets both
    closing = [n for cut, n in applied if cut]
    assert closing and min(closing) == 2


def test_is_simple_rejects_any_letter_across_weight_spaces():
    # one cell of the height-two raising letter e_13, copied into a second
    # weight space: a letter that is neither height-one raising nor
    # lowering is still read per space by the closure, so it is checked
    A = gl3()
    spec = zero_spec(A)
    M = verma_build(spec, fp_order(A), weight=(2, 0, 0), check=False)
    assert not is_simple(M)["simple"]
    letter, row, col, digits = M.cells
    e13 = A.index_of("e_13")
    at = np.flatnonzero(letter == e13)[0]
    other = next(u for u in range(M.dim)
                 if M.weights[u] != M.weights[row[at]])
    M.cells = (np.append(letter, e13), np.append(row, other),
               np.append(col, col[at]), np.concatenate([digits,
                                                        digits[at:at + 1]]))
    with pytest.raises(InvariantError, match="two recorded weight spaces"):
        is_simple(M)


def test_is_simple_needs_vanishing_chi_on_raising():
    A = gl2()
    M = verma_build(zero_spec(A), fp_order(A), weight=(4, 0))
    chi = PCharacter(A, linear={A.index_of("e_12"): 1})
    hacked = GradedModule(chi_reduce(A, chi), M.action, M.weights, M.degrees,
                          M.heights, check=False)
    with pytest.raises(ChiOnNplus):
        is_simple(hacked)


# -- the simplicity value, two ways ------------------------------------------------


def test_f_values_gl2():
    # f_closed = (t+1)^4 - 1 and f_hc = 4!((t+1)^4 - 1) at t = lam(H)
    A = gl2()
    spec = zero_spec(A)
    trip = fp_order(A)
    for t in range(5):
        fc = f_closed(spec, trip, (t, 0))
        fh, rev = f_via_hc(spec, trip, (t, 0))
        want = (pow(t + 1, 4, 5) - 1) % 5
        assert fc == want
        assert fh == (24 * want) % 5
        assert rev == 1


def test_f_values_gl11():
    # single odd root: f = lam(e_11) + lam(e_22) on the nose
    A = gl11()
    spec = zero_spec(A)
    trip = fp_order(A)
    for lam in admissible_lambdas(spec):
        assert f_closed(spec, trip, lam) == (lam[0] + lam[1]) % 5
        fh, _ = f_via_hc(spec, trip, lam)
        assert (fh == 0) == ((lam[0] + lam[1]) % 5 == 0)


def test_f_zero_loci_agree_gl21():
    # frozen closed form: [(l1-l2+1)^4 - 1](l1+l3+1)(l2+l3)
    A = gl21()
    spec = zero_spec(A)
    trip = fp_order(A)
    for lam in admissible_lambdas(spec):
        l1, l2, l3 = lam
        want = ((pow(l1 - l2 + 1, 4, 5) - 1)
                * (l1 + l3 + 1) * (l2 + l3)) % 5
        fc = f_closed(spec, trip, lam)
        fh, _ = f_via_hc(spec, trip, lam)
        assert (fc == 0) == (want == 0)
        assert (fh == 0) == (want == 0)


def _full_route(spec, triple):
    """The Cartan read-off of the whole raising-then-lowering product
    E_1^(c-1)...E_r^(c-1) F_r^(c-1)...F_1^(c-1), built letter by letter, and
    the constant c with (F_1...F_r order) == c * (F_r...F_1 order)."""
    A = spec.algebra
    F = A.F
    pairs = [A.triangular.pairs[t] for t in triple.deltas]
    raising, lowering = [], []
    for e, f, _H in pairs:
        raising += [e] * (spec.caps[f] - 1)
        lowering += [f] * (spec.caps[f] - 1)

    def product(letters):
        u = nf_one(A, spec)
        for i in letters:
            u = u.mul(nf_letter(A, i, spec))
        return u

    fwd, rev = product(lowering), product(lowering[::-1])
    m = next(iter(rev.terms))
    reversal = F.div(fwd.terms[m], rev.terms[m])
    assert fwd.eq(rev.scale(reversal))
    return harish_chandra(product(raising + lowering[::-1])).terms, reversal


def _regss_gl3_f25():
    # chi(e_11) = t, chi(e_22) = 2t, chi(e_33) = 0: every root functional
    # is nonzero on chi
    F = Field(5, 2, [3, 0, 1])
    A = make_gl(trivial_bicharacter(GradedGroup([]), F), {(): 3})
    chi = PCharacter(A, linear={A.index_of("e_11"): F.from_wire([0, 1]),
                                A.index_of("e_22"): F.from_wire([0, 2])})
    return chi_reduce(A, chi)


def _spec_file(name):
    bundle = load_spec(os.path.join(os.path.dirname(__file__), "specs", name))
    return chi_reduce(bundle["algebra"], bundle["character"])


@pytest.mark.parametrize("make", [
    lambda: zero_spec(gl2()),
    lambda: zero_spec(gl11()),
    lambda: zero_spec(gl21()),
    lambda: _spec_file("gl2_f25.json"),
    lambda: zero_spec(gl3()),
    _regss_gl3_f25,
], ids=["gl2", "gl11", "gl21", "gl2_f25", "gl3_f5", "gl3_f25_regss"])
def test_f_via_hc_cache_matches_full_product(make):
    spec = make()
    trip = fp_order(spec.algebra)
    lam = next(iter(admissible_lambdas(spec)))
    f_via_hc(spec, trip, lam)
    assert spec._hc_cache[trip.deltas] == _full_route(spec, trip)


def _entrywise_action(spec, triple, base):
    """Action codes of the induced module, one entry at a time: each letter
    times each f-monomial in the induction order, each term c f^a2 r giving
    the block c times the base action of r, one letter at a time."""
    A = spec.algebra
    F = A.F
    tri = A.triangular
    f_letters = [tri.pairs[t][1] for t in triple.deltas]
    rest = [i for i in range(A.dim) if i not in f_letters]
    eng = engine_for(A, spec, order=f_letters + rest)
    amonos = list(itertools.product(*[range(spec.caps[j])
                                      for j in f_letters]))
    pos = {a: n for n, a in enumerate(amonos)}
    bd = base.dim
    out = {}
    for i in range(A.dim):
        arr = Mat.zeros(F, len(amonos) * bd, len(amonos) * bd)
        x = tuple(int(j == i) for j in range(A.dim))
        for a in amonos:
            mono = [0] * A.dim
            for j, e in zip(f_letters, a):
                mono[j] = e
            col = pos[a] * bd
            for m2, c in eng.product({x: F.one}, {tuple(mono): F.one}).items():
                block = Mat.identity(F, bd).scale(c)
                for j in rest:
                    for _ in range(m2[j]):
                        block = block @ base.action[j]
                row = pos[tuple(m2[j] for j in f_letters)] * bd
                arr.a[row:row + bd, col:col + bd] += block.a
        out[i] = Mat(F, arr.a % F.p).to_codes().tolist()
    return out


@pytest.mark.parametrize("make, levi, lam", [
    (lambda: zero_spec(gl3()), (), (1, 3, 0)),
    (_regss_gl3_f25, (), None),
    (lambda: zero_spec(gl21()), (), (1, 2, 4)),
    (lambda: zero_spec(make_gl(trivial_bicharacter(GradedGroup([]),
                                                   Field(7, 4)), {(): 2})),
     (), (3, 1)),
    (lambda: zero_spec(gl3()), ("e_12",), "natural"),
    (lambda: zero_spec(anti_gl3()), (), None),
    (lambda: zero_spec(gl12()), (), None),
    (lambda: zero_spec(gl3()), ("e_23",), "natural"),
], ids=["gl3_f5", "gl3_f25_regss", "gl21", "gl2_f2401", "gl3_natural_levi",
        "anti_gl3", "gl12", "gl3_natural_levi_e23"])
def test_verma_build_matches_entrywise_table(make, levi, lam):
    ref_spec, spec = make(), make()
    if lam is None:
        lam = admissible_lambdas(spec)[7]

    def induce(spec):
        A = spec.algebra
        trip = fp_order(A, levi=[A.index_of(n) for n in levi])
        if lam == "natural":
            base = natural_base(spec, trip,
                                tuple(int(c) for c in levi[0][2:]))
            return trip, base, {"base": base}
        return trip, repmod._line_base(spec, trip, lam), {"weight": lam}

    want = _entrywise_action(ref_spec, *induce(ref_spec)[:2])
    trip, _base, how = induce(spec)
    for _ in range(2):   # the second build reads the warm table
        M = verma_build(spec, trip, **how)
        assert sorted(M.action) == sorted(want)
        for i, codes in want.items():
            assert M.action[i].to_codes().tolist() == codes, i


@pytest.mark.parametrize("make, levi, entries", [
    (_regss_gl3_f25, (), 2270),
    (lambda: zero_spec(gl21()), (), None),
    (lambda: zero_spec(anti_gl3()), (), None),
    (lambda: zero_spec(gl3()), ("e_12",), None),
], ids=["gl3_f25_regss", "gl21", "anti_gl3", "gl3_levi"])
def test_induction_plan_terms_carry_one_or_a_rest_letter(make, levi, entries):
    # every entry c f^a2 r of the plan has r = 1 or one rest letter, never
    # an induced raising letter: those act as zero on every base
    spec = make()
    A = spec.algebra
    trip = fp_order(A, levi=[A.index_of(n) for n in levi])
    plan = repmod._induction_table(spec, trip)
    assert plan["patterns"].sum(axis=1).max() <= 1
    rows = plan["patterns"][plan["pattern"]]
    used = {plan["rest"][n] for n in np.flatnonzero(rows.any(axis=0))}
    assert used and not used & {A.triangular.pairs[t][0]
                                for t in trip.deltas}
    if entries is not None:
        assert len(plan["coeffs"]) == entries


def test_plan_refuses_lowering_products_off_the_lowering_letters():
    # a doctored gl(3) whose [e_21, e_32] also carries e_11: the product
    # e_32 . e_21 in the induction order leaves the lowering letters
    A = gl3()
    i21, i32, i11 = (A.index_of(n) for n in ("e_21", "e_32", "e_11"))
    A.structure[(i21, i32)] = {**A.bracket(i21, i32), i11: F5.one}
    A.structure[(i32, i21)] = {**A.bracket(i32, i21), i11: F5.neg(F5.one)}
    spec = zero_spec(A)
    with pytest.raises(InvariantError, match="leaves the lowering"):
        verma_build(spec, fp_order(A), weight=(0, 0, 0), check=False)


def test_cartan_route_weight_checks_the_terms_it_drops():
    # a doctored gl(3) whose [e_12, e_21] also carries e_13, a positive
    # letter of the wrong weight: every term it spawns carries a positive
    # letter and is dropped, so only the check of every formed term (not
    # just the kept ones) sees it
    A = gl3()
    i12, i21, i13 = (A.index_of(n) for n in ("e_12", "e_21", "e_13"))
    A.structure[(i12, i21)] = {**A.bracket(i12, i21), i13: F5.one}
    A.structure[(i21, i12)] = {**A.bracket(i21, i12), i13: F5.neg(F5.one)}
    with pytest.raises(NotWeightZero, match="partial product"):
        f_via_hc(zero_spec(A), fp_order(A), (0, 0, 0))


def test_f_via_hc_cold_gl3_f7_under_10s():
    A = make_gl(trivial_bicharacter(GradedGroup([]), Field(7)), {(): 3})
    spec = zero_spec(A)
    trip = fp_order(A)
    t0 = time.monotonic()
    f_via_hc(spec, trip, (0, 0, 0))
    dt = time.monotonic() - t0
    assert len(spec._hc_cache[trip.deltas][0]) == 245
    assert dt < 10, dt


def test_sweep_gl4_without_oracle():
    A = make_gl(trivial_bicharacter(GradedGroup([]), F5), {(): 4})
    rows = sweep_rows(zero_spec(A), fp_order(A), oracle=False)
    assert len(rows) == 625
    assert all(row["agree"] for row in rows)


def test_f_via_hc_rejects_nonstandard_characters():
    A = gl2()
    trip = fp_order(A)
    for name in ("e_12", "e_21"):
        spec = chi_reduce(A, PCharacter(A, linear={A.index_of(name): 1}))
        with pytest.raises(NotStandard):
            f_via_hc(spec, trip, (0, 0))
        assert not spec._engines    # refused before any product was formed
    from colorlie.repmod import PowerClass
    B = anti_gl3()
    xi = next(i for i in range(B.dim) if B.is_even(i)
              and B.degree(i) != B.group.zero)
    cls = PowerClass(B.degree(xi), xi, {xi: F5.one}, 2)
    spec = chi_reduce(B, PCharacter(B, fclasses=[cls]))
    assert spec.J
    with pytest.raises(NotStandard):
        f_via_hc(spec, fp_order(B), (0, 0, 0))
    assert not spec._engines


def test_f_via_hc_needs_positive_letters_last():
    # sl(2) with the raising letter first in the normal order: f.e lies in
    # U n+ but has the normal form e.f - h, so dropping the terms that
    # carry e would not be exact
    eps = trivial_bicharacter(GradedGroup([]), F5)
    tri = TriangularData(neg=[2], cartan=[1], pos=[0],
                         roots={0: (2,), 2: (-2,)}, heights={0: 1, 2: 1},
                         pairs={0: (0, 2, {1: 1})})
    A = ColorAlgebra(eps, ["e", "h", "f"], [()] * 3,
                     {(0, 2): {1: 1}, (1, 0): {0: 2}, (1, 2): {2: 3}},
                     pmap={0: {}, 1: {1: 1}, 2: {}}, triangular=tri)

    class Stub:
        algebra = A
        deltas = (0,)

        def delta_roots(self):
            return [(2,)]

    with pytest.raises(InvariantError):
        f_via_hc(zero_spec(A), Stub(), (0,))


# -- weight sweeps -----------------------------------------------------------------


def test_sweep_gl2_zero_chi():
    A = gl2()
    rows = sweep_rows(zero_spec(A), fp_order(A))
    assert len(rows) == 25
    assert all(r["agree"] for r in rows)
    simple = [tuple(r["lambda"]) for r in rows if r["oracle"] == "simple"]
    assert len(simple) == 5
    for lam in simple:
        assert (lam[0] - lam[1]) % 5 == 4
    assert sorted(rows[0]) == ["agree", "f_closed", "f_hc", "lambda", "ms",
                               "oracle"]


def test_sweep_gl11_zero_chi():
    A = gl11()
    rows = sweep_rows(zero_spec(A), fp_order(A))
    assert len(rows) == 25
    assert all(r["agree"] for r in rows)
    assert sum(r["oracle"] == "simple" for r in rows) == 20


def test_sweep_without_oracle():
    A = gl2()
    rows = sweep_rows(zero_spec(A), fp_order(A), oracle=False)
    assert all(r["oracle"] is None and r["agree"] for r in rows)


def test_sweep_regular_semisimple_f25():
    F = Field(5, 2)
    A = make_gl(trivial_bicharacter(GradedGroup([]), F), {(): 2})
    code = next(a for a in range(1, F.q)
                if F.trace_to_prime(F.pow(a, 5)) == 0)
    chi = PCharacter(A, linear={A.index_of("e_11"): code})
    spec = chi_reduce(A, chi)
    rows = sweep_rows(spec, fp_order(A))
    assert len(rows) == 25
    assert all(r["agree"] for r in rows)
    assert all(r["oracle"] == "simple" for r in rows)


def test_sweep_batches_stay_within_slab(monkeypatch):
    # the oracle judges the rows of a sweep in batches of gathered blocks,
    # each at most _SLAB digit cells
    batches = []
    judge = repmod._judge

    def recorded(gathered, *args):
        batches.append((len(gathered), sum(g.cells for g in gathered)))
        return judge(gathered, *args)

    monkeypatch.setattr(repmod, "_judge", recorded)
    spec = _regss_gl3_f25()
    rows = sweep_rows(spec, fp_order(spec.algebra), fix={2: 3}, seed=11)
    assert len(rows) == 25 and all(r["oracle"] == "simple" for r in rows)
    assert sum(n for n, _cells in batches) == 25
    assert len(batches) > 1
    assert max(cells for _n, cells in batches) <= _SLAB


def test_sweep_induces_in_chunks_within_budget(monkeypatch):
    # the sweep induces its modules in chunks whose entry values (entries
    # x bases x bd^2 x k digit cells) stay within _SLAB // 2 and whose
    # filled blocks stay within _SLAB, each row's module once
    chunks, filled = [], []
    sums, fill = repmod._cell_sums, repmod._fill

    def recorded(F, plan, bases):
        chunks.append(([b.weights[0] for b in bases], len(plan["coeffs"])
                       * len(bases) * bases[0].dim ** 2 * F.k))
        return sums(F, plan, bases)

    def filling(*args):
        gathered = fill(*args)
        filled.append(sum(g.cells for g in gathered))
        return gathered

    monkeypatch.setattr(repmod, "_cell_sums", recorded)
    monkeypatch.setattr(repmod, "_fill", filling)
    spec = _regss_gl3_f25()
    rows = sweep_rows(spec, fp_order(spec.algebra), fix={2: 3}, seed=11)
    assert len(rows) == 25 and all(r["oracle"] == "simple" for r in rows)
    assert len(chunks) > 1 and len(filled) == len(chunks)
    assert max(cells for _w, cells in chunks) <= _SLAB // 2
    assert max(filled) <= _SLAB
    assert sorted(w for ws, _cells in chunks for w in ws) == sorted(
        tuple(r["lambda"]) for r in rows)


def test_nothing_built_before_use():
    # loading a spec, reducing the character and ordering the roots build
    # no rewrite engine, induction plan or Cartan terms: those are made on
    # the first induction or Cartan evaluation
    bundle = load_spec(os.path.join(os.path.dirname(__file__), "specs",
                                    "gl3_slice.json"))
    A = bundle["algebra"]
    spec = chi_reduce(A, bundle["character"] or pchar_zero(A))
    trip = fp_order(A)
    for host in (spec, A):
        assert not vars(host).get("_engines")
        assert "_induction_tables" not in vars(host)
        assert "_hc_cache" not in vars(host)
    verma_build(spec, trip, weight=(1, 3, 0), check=False)
    f_via_hc(spec, trip, (1, 3, 0))
    assert spec._engines and trip.deltas in spec._induction_tables
    assert trip.deltas in spec._hc_cache


def _dense_blocks(M):
    """The oracle's view of M read straight off its dense letters: weight
    spaces in sorted weight order, singular buckets in sorted (weight,
    color degree, height) order, and per letter one block and one target
    per space (see oracle._Blocks)."""
    A = M.spec.algebra
    tri = A.triangular
    spaces = sorted(set(M.weights))
    members = [[u for u in range(M.dim) if M.weights[u] == w]
               for w in spaces]
    S, D = len(spaces), max(len(m) for m in members)
    grading = [(M.weights[u], tuple(M.degrees[u]), M.heights[u])
               for u in range(M.dim)]
    order = sorted(set(grading))
    idx = np.full((S, D), -1)
    bucket = np.full((S, D), -1)
    for s, m in enumerate(members):
        idx[s, :len(m)] = m
        bucket[s, :len(m)] = [order.index(grading[u]) for u in m]
    bfirst = np.array([grading.index(b) for b in order])
    where = {u: s for s, m in enumerate(members) for u in m}

    def cut(i):
        a = M.action[i].a
        blocks = np.zeros((S, D, D, A.F.k), dtype=np.int64)
        target = np.full(S, -1)
        for s, cols in enumerate(members):
            live = np.flatnonzero(a[:, cols].any(axis=(1, 2)))
            hit = {where[u] for u in live}
            assert len(hit) <= 1
            if hit:
                target[s] = t = hit.pop()
                blocks[s, :len(members[t]), :len(cols)] = a[np.ix_(
                    members[t], cols)]
        return blocks, target

    raising = [cut(t)[0] for t in tri.pos if tri.heights[t] == 1]
    lowering = [cut(tri.pairs[t][1]) + (M.spec.caps[tri.pairs[t][1]],)
                for t in reversed(tri.pos)]
    return idx, bucket, bfirst, spaces, raising, lowering


def test_blocks_from_cells_match_dense_letters():
    # the blocks cut from verma_build's cells, and from the nonzero cells
    # of the same module's dense letters, equal those read off the dense
    # letters directly (gl(3) at a weight of the golden slice, e_33 = 0)
    regss = _regss_gl3_f25()
    modules = [verma_build(spec, fp_order(spec.algebra), weight=lam)
               for spec, lam in ((zero_spec(gl2()), (3, 1)),
                                 (zero_spec(gl11()), (2, 4)),
                                 (zero_spec(gl21()), (1, 2, 4)),
                                 (zero_spec(gl3()), (1, 3, 0)),
                                 (regss, admissible_lambdas(regss)[7]))]
    A = gl3()
    spec = zero_spec(A)
    levi = fp_order(A, levi=[A.index_of("e_12")])
    modules += [verma_build(spec, levi, weight=(2, 2, 0)),
                verma_build(spec, levi, base=natural_base(spec, levi))]
    assert [M.dim for M in modules] == [5, 2, 20, 125, 125, 25, 50]
    for M in modules:
        assert M.cells is not None
        dense = GradedModule(M.spec, M.action, M.weights, M.degrees,
                             M.heights, check=False)
        idx, bucket, bfirst, weights, raising, lowering = _dense_blocks(M)
        for g in (oracle._gather(M), oracle._gather(dense)):
            assert np.array_equal(g.idx, idx)
            assert np.array_equal(g.bucket, bucket)
            assert np.array_equal(g.bfirst, bfirst)
            assert g.weights == weights
            assert len(g.raising) == len(raising)
            for got, blk in zip(g.raising, raising):
                assert np.array_equal(got, blk)
            assert len(g.lowering) == len(lowering)
            for (got, tgt, cap), (blk, target, c) in zip(g.lowering,
                                                         lowering):
                assert np.array_equal(got, blk)
                assert np.array_equal(tgt, target) and cap == c


def test_all_simple_sweep_builds_no_dense_letter(monkeypatch):
    # the oracle holds no dense letters: simple and not-simple rows are
    # judged from the cells alone (gl(3)/F_25 at a regular semisimple chi,
    # gl(2)/F_5 at chi = 0 and the fixed gl(2|2)/F_5 rows)
    def dense(*args):
        raise AssertionError("dense letters built")

    assert not hasattr(oracle, "_dense_letters")
    monkeypatch.setattr(repmod, "_dense_letters", dense)
    spec = _regss_gl3_f25()
    rows = sweep_rows(spec, fp_order(spec.algebra), fix={2: 3})
    assert len(rows) == 25 and all(r["oracle"] == "simple" for r in rows)
    spec = zero_spec(gl2())
    rows = sweep_rows(spec, fp_order(spec.algebra))
    assert [r["oracle"] for r in rows].count("not-simple") == 20
    spec = zero_spec(gl22())
    rows = sweep_rows(spec, fp_order(spec.algebra), fix={0: 1, 1: 2, 2: 0})
    assert [r["oracle"] for r in rows] == [
        "not-simple", "simple", "not-simple", "not-simple", "not-simple"]


def test_not_simple_sweep_rows_induce_each_module_once(monkeypatch):
    # gl(2|2) at chi = 0 with e_11, e_22, e_33 fixed: four of the five
    # 400-dim modules are not simple, and each is closed from its cells
    A = gl22()
    spec = zero_spec(A)
    trip = fp_order(A)
    induced = []
    sums = repmod._cell_sums

    def counted(F, plan, bases):
        induced.extend(b.weights[0] for b in bases)
        return sums(F, plan, bases)

    monkeypatch.setattr(repmod, "_cell_sums", counted)
    rows = sweep_rows(spec, trip, fix={0: 1, 1: 2, 2: 0})
    assert len(rows) == 5
    assert sorted(induced) == sorted(tuple(r["lambda"]) for r in rows)
    monkeypatch.undo()
    assert [r["oracle"] for r in rows] == [
        "not-simple", "simple", "not-simple", "not-simple", "not-simple"]
    for r in rows:
        M = verma_build(spec, trip, weight=r["lambda"], check=False)
        assert M.dim == 400
        assert r["oracle"] == ("simple" if is_simple(M)["simple"]
                               else "not-simple")
        assert r["agree"] and (r["f_closed"] == 0) == (r["oracle"] != "simple")


def _chunk_blocks(monkeypatch, sweeps):
    """Every row that the CLI sweeps of the golden cases named in sweeps
    give, plus the regular semisimple gl(3)/F_25 slice, with the blocks
    its chunk filled and its verdict: (name, spec, triple, row, blocks,
    verdict) in sweep order."""
    swept, judged = [], []
    sweep, judge = repmod.sweep_rows, repmod._judge

    def sweeping(spec, triple, **kw):
        swept.append((spec, triple, sweep(spec, triple, **kw)))
        return swept[-1][2]

    def judging(gathered, *args):
        verdicts = judge(gathered, *args)
        judged.extend(zip(gathered, verdicts))
        return verdicts

    monkeypatch.setattr(cli, "sweep_rows", sweeping)
    monkeypatch.setattr(repmod, "_judge", judging)
    names = []
    for name in sweeps:
        argv = list(CASES[name][0])
        argv[1] = os.path.join(SPECS, argv[1])
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.cli_main(argv) == 0
        names += [name] * len(swept[-1][2])
    regss = _regss_gl3_f25()
    sweeping(regss, fp_order(regss.algebra), fix={2: 3})
    names += ["gl3_f25_regss"] * len(swept[-1][2])
    rows = [(spec, triple, row) for spec, triple, rs in swept for row in rs]
    assert len(rows) == len(judged) == len(names)
    return [(name,) + row + got for name, row, got in
            zip(names, rows, judged)]


def _same_blocks(g, h):
    """Whether two _Blocks hold the same layout, blocks and targets."""
    assert (g.D, g.dim, g.cells, g.weights) == (h.D, h.dim, h.cells,
                                                h.weights)
    for a in ("idx", "bucket", "bfirst"):
        assert np.array_equal(getattr(g, a), getattr(h, a)), a
    assert len(g.raising) == len(h.raising)
    for x, y in zip(g.raising, h.raising):
        assert np.array_equal(x, y)
    for lowering in ((g.lowering, h.lowering), (g.every(), h.every())):
        assert len(lowering[0]) == len(lowering[1])
        for (x, tx, cx), (y, ty, cy) in zip(*lowering):
            assert np.array_equal(x, y) and np.array_equal(tx, ty)
            assert cx == cy
    return True


def test_chunk_blocks_match_gathered_modules(monkeypatch):
    # every row of every golden sweep (Borel and Levi triples, over F_5,
    # F_7 and F_25) and of the regular semisimple gl(3)/F_25 slice: the
    # blocks its chunk filled on the triple's layout equal those gathered
    # from its own induced module; on the anti-commuting gl(3) each
    # batched verdict is the module's own is_simple verdict
    sweeps = sorted(n for n in CASES if n.startswith("sweep_"))
    assert {"sweep_gl3_levi12", "sweep_gl21_levi12"} <= set(sweeps)
    got = _chunk_blocks(monkeypatch, sweeps)
    monkeypatch.undo()
    simple = {}
    for name, spec, triple, row, g, verdict in got:
        M = verma_build(spec, triple, weight=row["lambda"], check=False)
        assert _same_blocks(g, oracle._gather(M)), (name, row["lambda"])
        if name == "sweep_anti_gl3":
            assert verdict == is_simple(M)
            simple[verdict["simple"]] = simple.get(verdict["simple"], 0) + 1
    assert simple == {True: 5, False: 120}
    assert {name for name, *_rest in got} == set(sweeps) | {"gl3_f25_regss"}


def test_sweep_builds_the_layout_once_and_gathers_nothing(monkeypatch):
    # a 25-row sweep lays its triple's weight spaces out once, keeps the
    # layout on the plan, and fills every chunk on it without _gather
    layouts = []
    layout = repmod._layout

    def counted(*args):
        layouts.append(len(args[1]))
        return layout(*args)

    def gather(M):
        raise AssertionError("a module gathered")

    monkeypatch.setattr(repmod, "_layout", counted)
    monkeypatch.setattr(oracle, "_gather", gather)
    spec = _regss_gl3_f25()
    trip = fp_order(spec.algebra)
    for _ in range(2):
        rows = sweep_rows(spec, trip, fix={2: 3})
        assert len(rows) == 25 and all(r["oracle"] == "simple" for r in rows)
    assert layouts == [125]


def test_sweep_rejects_a_plan_cell_across_weight_spaces(monkeypatch):
    # one cell of a lowering letter whose entries carry no root letter,
    # moved to a row of another weight space: the layout refuses the plan
    # before any chunk is filled
    def fill(*args):
        raise AssertionError("blocks filled")

    spec = zero_spec(gl3())
    A = spec.algebra
    trip = fp_order(A)
    plan = repmod._induction_table(spec, trip)
    root = np.array([False] + [i not in A.triangular.cartan
                               for i in plan["rest"]])
    shift = plan["shift"][..., 0]
    f = A.triangular.pairs[trip.deltas[0]][1]
    ends = np.append(plan["starts"][1:], len(plan["pattern"]))
    cell = next(c for c, (start, end) in enumerate(zip(plan["starts"], ends))
                if plan["letter"][c, 0, 0] == f
                and not root[plan["pattern"][start:end]].any())
    row = plan["row"][cell, 0, 0]
    plan["row"][cell] = next(b for b in range(len(shift))
                             if (shift[b] != shift[row]).any())
    monkeypatch.setattr(repmod, "_fill", fill)
    with pytest.raises(InvariantError, match="two recorded weight spaces"):
        sweep_rows(spec, trip)


# -- the p-power scalar ------------------------------------------------------------


def test_kappa_zero_character_verma():
    A = gl2()
    spec = zero_spec(A)
    M = verma_build(spec, fp_order(A), weight=(3, 1))
    for name in ("e_11", "e_22", "e_12", "e_21"):
        assert extract_kappa(M, A.index_of(name)) == 0


def test_kappa_odd_element_rejected():
    A = gl11()
    M = verma_build(zero_spec(A), fp_order(A), weight=(1, 3))
    with pytest.raises(OddElement):
        extract_kappa(M, A.index_of("e_12"))


def test_kappa_matches_character_over_f25():
    F = Field(5, 2)
    A = make_gl(trivial_bicharacter(GradedGroup([]), F), {(): 2})
    code = next(a for a in range(1, F.q)
                if F.trace_to_prime(F.pow(a, 5)) == 0)
    h11 = A.index_of("e_11")
    spec = chi_reduce(A, PCharacter(A, linear={h11: code}))
    lam = admissible_lambdas(spec)[0]
    M = verma_build(spec, fp_order(A), weight=lam)
    assert extract_kappa(M, h11) == F.pow(code, 5)
    assert extract_kappa(M, A.index_of("e_12")) == 0


def test_kappa_adjoint_gl2():
    # the adjoint module: ad(x) matrices with root-space gradings
    A = gl2()
    spec = zero_spec(A)
    tri = root_datum(A)
    act = {}
    for i in range(A.dim):
        arr = np.zeros((A.dim, A.dim), dtype=np.int64)
        for j in range(A.dim):
            for t, c in A.bracket(i, j).items():
                arr[t, j] = c
        act[i] = Mat.from_codes(F5, arr)
    weights = []
    heights = []
    for j in range(A.dim):
        root = tri.roots.get(j, (0, 0))
        weights.append(tuple(F5.embed(r) for r in root))
        h = tri.heights.get(j, 0)
        heights.append(h if j in tri.neg else -h)
    M = GradedModule(spec, act, weights, [A.group.zero] * A.dim, heights)
    assert extract_kappa(M, A.index_of("e_12")) == 0
    assert extract_kappa(M, A.index_of("e_11")) == 0


def test_kappa_mixed_characters_not_scalar():
    A = line_algebra()
    s1 = chi_reduce(A, PCharacter(A, linear={0: 1}))
    s2 = chi_reduce(A, PCharacter(A, linear={0: 2}))
    r1 = regular_module(s1)["action"][0]
    r2 = regular_module(s2)["action"][0]
    arr = np.zeros((10, 10, F5.k), dtype=np.int64)
    arr[:5, :5] = r1.a
    arr[5:, 5:] = r2.a
    M = GradedModule(s1, {0: Mat(F5, arr)}, [()] * 10,
                     [A.group.zero] * 10, [0] * 10, check=False)
    with pytest.raises(NotScalar):
        extract_kappa(M, 0)


# -- unipotent quotients -----------------------------------------------------------


def test_socle_single_even_letter():
    soc = unipotent_socle(line_algebra())
    assert soc["dimension"] == 5
    assert soc["left"] == [0, 0, 0, 0, 1]  # the line through x^4
    assert soc["left"] == soc["right"]
    assert soc["ratio"] == 1


def test_socle_upper_triangular_gl3():
    A = gl3()
    sub = subalgebra(A, list(root_datum(A).pos))
    soc = unipotent_socle(sub)
    assert soc["dimension"] == 125
    support = [soc["monomials"][t] for t, c in enumerate(soc["left"]) if c]
    assert support == [(4, 4, 4)]
    assert soc["ratio"] == 1


def test_socle_odd_direction():
    A = line_algebra(degree=(1,), orders=(2,), pmap=None)
    soc = unipotent_socle(A)
    assert soc["dimension"] == 2
    assert soc["left"] == [0, 1]  # the line through the odd letter itself


def _entrywise_tables(A, mons):
    """Left and right multiplication by each letter on the reduced basis,
    as code matrices filled from one full product per entry."""
    F = A.F
    eng = engine_for(A, zero_spec(A))  # a fresh engine for the reference
    pos = {m: t for t, m in enumerate(mons)}
    count = len(mons)
    left, right = [], []
    for i in range(A.dim):
        x = {tuple(int(j == i) for j in range(A.dim)): F.one}
        for out, side in ((left, 0), (right, 1)):
            M = [[0] * count for _ in range(count)]
            for c, m in enumerate(mons):
                pair = (x, {m: F.one}) if side == 0 else ({m: F.one}, x)
                for m2, code in eng.product(*pair).items():
                    M[pos[m2]][c] = code
            out.append(M)
    return left, right


def _kernel_line(F, mats):
    K = Mat.from_codes(F, [row for M in mats for row in M]).nullspace()
    assert K.shape[1] == 1
    return [int(x) for x in K.to_codes()[:, 0]]


@pytest.mark.parametrize("make", [
    line_algebra,
    lambda: subalgebra(gl3(), list(root_datum(gl3()).pos)),
    lambda: line_algebra(degree=(1,), orders=(2,), pmap=None),
], ids=["line", "nplus_gl3", "odd_direction"])
def test_regular_module_and_socle_match_entrywise_products(make):
    A = make()
    F = A.F
    spec = zero_spec(A)
    mons = list(uchi_basis(spec)[1])
    left, right = _entrywise_tables(A, mons)
    reg = regular_module(spec)
    assert reg["dim"] == len(mons) and reg["monomials"] == mons
    assert reg["degrees"] == [monomial_degree(A, m) for m in mons]
    assert sorted(reg["action"]) == list(range(A.dim))
    for i in range(A.dim):
        assert reg["action"][i].to_codes().tolist() == left[i]
    vl, vr = _kernel_line(F, left), _kernel_line(F, right)
    t = next(t for t, c in enumerate(vr) if c)
    ratio = F.div(vl[t], vr[t])
    assert vl == [F.mul(ratio, c) for c in vr]
    assert unipotent_socle(A) == {"dimension": len(mons), "monomials": mons,
                                  "left": vl, "right": vr, "ratio": ratio}


def test_socle_not_a_line_is_an_invariant_error(monkeypatch):
    # zero left actions leave the whole space in the left kernel, which a
    # local Frobenius quotient never does: a fault, not bad input
    def zero_actions(spec):
        reg = real(spec)
        reg["action"] = {i: Mat.zeros(F5, reg["dim"], reg["dim"])
                         for i in reg["action"]}
        return reg

    real = repmod.regular_module
    monkeypatch.setattr(repmod, "regular_module", zero_actions)
    with pytest.raises(InvariantError, match="socle is not a line"):
        unipotent_socle(line_algebra())


def test_socle_rejects_non_unipotent():
    with pytest.raises(NotUnipotent):
        unipotent_socle(gl2())


def test_simple_quotients_and_isomorphism():
    A = line_algebra()
    spec = chi_reduce(A, PCharacter(A, linear={0: 2}))
    q1 = simple_quotient(spec, seed=1)
    q2 = simple_quotient(spec, seed=2)
    assert q1["dim"] == q2["dim"] == 1
    assert q1["action"][0].entry(0, 0) == 2  # the head acts by chi(x)
    assert q2["action"][0].entry(0, 0) == 2
    iso = module_isomorphism(A, q1, q2)
    assert iso.shape == (1, 1) and iso.entry(0, 0) != 0


def test_simple_quotient_scope():
    A = gl3()
    sub = subalgebra(A, list(root_datum(A).pos))
    with pytest.raises(ValueError, match="abelian"):
        simple_quotient(zero_spec(sub))


def test_module_isomorphism_constrains_every_position():
    # the odd letters of gl(2|1) shift the color degree, so their
    # commutation equations sit off the degree-preserving positions; a
    # search that drops them keeps spurious maps and misses the identity
    A = gl21()
    spec = zero_spec(A)
    trip = fp_order(A)
    for lam in admissible_lambdas(spec)[:3]:
        M = verma_build(spec, trip, weight=lam)
        X = module_isomorphism(A, M, M)
        assert X.rank() == M.dim
        assert all(M.action[i] @ X == X @ M.action[i] for i in range(A.dim))


def test_module_isomorphism_refuses_large_start_stack(monkeypatch):
    # 125^2 degree-preserving units of 125 x 125 cells would take 1.9 GB:
    # refused before the stack, or the dense letters, are allocated
    spec = zero_spec(gl3())
    M = verma_build(spec, fp_order(spec.algebra), weight=(1, 3, 0),
                    check=False)
    assert M.dim == 125

    def dense(*args):
        raise AssertionError("dense letters built")

    monkeypatch.setattr(repmod, "_dense_letters", dense)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            module_isomorphism(spec.algebra, M, M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_dense_letters_refuse_before_allocating():
    # gl(4)/F_5 induces 15,625-dim modules: 16 dense letters would take
    # 16 x 15,625^2 cells (29 GiB), refused before anything is allocated;
    # a 2000-dim module's 16 letters at k = 2 still fit the cell budget
    assert 16 * 2000 ** 2 * 2 <= field._CELLS
    empty = np.zeros(0, dtype=np.int64)
    cells = (empty, empty, empty, np.zeros((0, 1), dtype=np.int64))
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="3906250000 cells"):
            repmod._dense_letters(F5, 16, 15625, cells)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _refusal_peak(match, call):
    """The tracemalloc peak, in bytes, of call(), which TooLarge refuses
    with a message matching match."""
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match=match):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_induction_plan_refuses_before_allocating():
    # gl(5)/F_5: the PBW table of 5^10 monomials x 25 letters is refused
    # before the monomials are listed (they alone would take tens of GB)
    A = gl5()
    spec, trip = zero_spec(A), fp_order(A)
    assert _refusal_peak("PBW table", lambda: verma_build(
        spec, trip, weight=(1, 2, 3, 4, 0), check=False)) < 1 << 20
    # an expansion of 2^40 places is refused before its owner array
    assert _refusal_peak("expansion of 1099511627776 cells",
                         lambda: repmod._segments(np.zeros(1, dtype=np.int64),
                                                  np.array([1 << 40]))
                         ) < 1 << 20


def test_cell_sums_refuse_before_allocating(monkeypatch):
    # the plan fits; its entry values, one per entry and digit, do not
    A = gl3()
    spec, trip = zero_spec(A), fp_order(A)
    plan = repmod._induction_table(spec, trip)
    verma_build(spec, trip, weight=(1, 3, 0), check=False)
    monkeypatch.setattr(field, "_CELLS", len(plan["coeffs"]) - 1)
    assert _refusal_peak("entry values", lambda: verma_build(
        spec, trip, weight=(1, 3, 0), check=False)) < 1 << 20


def _gl3_module():
    A = gl3()
    return verma_build(zero_spec(A), fp_order(A), weight=(1, 3, 0),
                       check=False)


def test_filled_blocks_refuse_before_allocating(monkeypatch):
    # the raising and lowering blocks fit the budget exactly, and one cell
    # less refuses them
    M = _gl3_module()
    g = oracle._gather(M)
    monkeypatch.setattr(field, "_CELLS", g.cells)
    oracle._gather(M)
    monkeypatch.setattr(field, "_CELLS", g.cells - 1)
    assert _refusal_peak("weight-space blocks",
                         lambda: is_simple(M)) < 1 << 20


def test_every_cut_refuses_before_allocating(monkeypatch):
    # every() cuts all nine letters, more than the five filled ones
    g = oracle._gather(_gl3_module())
    monkeypatch.setattr(field, "_CELLS", g.cells)
    assert _refusal_peak("weight-space blocks", g.every) < 1 << 20


def test_word_table_refuses_before_allocating(monkeypatch):
    g = oracle._gather(_gl3_module())
    # the top line, which spans the module in pass 0: its table holds the
    # three lowering letters' blocks of every space
    _b, s, V = oracle._singular([g])[0][0]
    lines = [(0, s, V[0])]
    cells = 3 * len(g.idx) * g.D ** 2
    assert oracle._word_span_ranks([g], lines, g.D).tolist() == [g.dim]
    monkeypatch.setattr(field, "_CELLS", cells - 1)
    assert _refusal_peak("word blocks of %d cells" % cells, lambda:
                         oracle._word_span_ranks([g], lines, g.D)) < 1 << 20


def test_regular_module_refuses_before_allocating():
    # gl(3)/F_5: 9 dense letters of 5^9 x 5^9 cells, refused before the
    # 5^9 monomials are listed
    spec = zero_spec(gl3())
    assert _refusal_peak("dense letters",
                         lambda: regular_module(spec)) < 1 << 20


def test_gl4_line_module_is_built_and_judged():
    # 15,625 dims: within the cell budget, built and judged in the library
    A = gl4()
    spec, trip = zero_spec(A), fp_order(A)
    lam = (1, 2, 3, 4)
    M = verma_build(spec, trip, weight=lam, check=False)
    assert M.dim == 5 ** 6
    assert is_simple(M) == {"simple": True, "method": "exhaustive",
                            "lines": 1, "weight": None, "witness": None}
    assert f_closed(spec, trip, lam) == 1
    assert f_via_hc(spec, trip, lam)[0] != 0


@pytest.mark.parametrize("lam1, lam2", [((4, 3), (2, 0)), ((4, 0), (0, 1))],
                         ids=["proper_map", "no_map"])
def test_verma_modules_of_different_weights_are_not_isomorphic(lam1, lam2):
    # Z(4, 3) maps onto the submodule of Z(2, 0) generated by a singular
    # vector, so the candidates are nonzero but singular; the simple
    # Z(4, 0) and Z(0, 1) admit no nonzero map, so the candidates run out
    A = gl2()
    spec = zero_spec(A)
    trip = fp_order(A)
    M1, M2 = (verma_build(spec, trip, weight=lam) for lam in (lam1, lam2))
    with pytest.raises(ValueError, match="not isomorphic"):
        module_isomorphism(A, M1, M2)


def test_non_isomorphic_heads():
    A = line_algebra()
    q1 = simple_quotient(chi_reduce(A, PCharacter(A, linear={0: 1})))
    q2 = simple_quotient(chi_reduce(A, PCharacter(A, linear={0: 2})))
    with pytest.raises(ValueError, match="not isomorphic"):
        module_isomorphism(A, q1, q2)
