"""Eight end-to-end checks, one per release gate, each printing a verdict line,
and one sweep agreement check beyond the gates.

Every check recomputes its claim from scratch against an independent route:
structure-constant validation, counting formulas, Gram ranks, the two closed
forms for the simplicity value against the brute-force verdict, and the
classical operator identities evaluated inside the reduced algebras.  Run
with -s to see the verdict lines; each carries its own time budget.
"""

import io
import itertools
import json
import math
import os
import time
from contextlib import redirect_stdout

import numpy as np

from colorlie import (
    Bicharacter, ColorAlgebra, Field, GradedGroup, Mat, PCharacter,
    PowerClass, central_check, chi_reduce, f_closed, f_via_hc, fp_order,
    frobenius_gram, harish_chandra, is_simple, make_gl, module_isomorphism,
    nf_letter, nf_one, pchar_zero, quantum_binomial, regular_module,
    root_datum, simple_quotient, subalgebra, super_bicharacter,
    sweep_rows, trivial_bicharacter, uchi_basis, unipotent_socle,
    validate_algebra, verma_build,
)
from colorlie.cli import cli_main

F5 = Field(5)


def _families(F):
    """The three grading setups: no grading, super, and a rank-two grading
    whose two generators anticommute while each is even."""
    yield "trivial", trivial_bicharacter(GradedGroup([]), F), [()]
    _, eps1 = super_bicharacter(F)
    yield "super", eps1, [(0,), (1,)]
    G2 = GradedGroup([2, 2])
    one, neg = F.one, F.neg(F.one)
    eps2 = Bicharacter(G2, F, [[one, neg], [neg, one]])
    yield "anti", eps2, [(0, 0), (1, 0), (0, 1), (1, 1)]


def _grid(F):
    """Every matrix algebra over the three gradings with total dim <= 4."""
    for fam, eps, coords in _families(F):
        for total in range(1, 5):
            for split in itertools.product(range(total + 1),
                                           repeat=len(coords)):
                if sum(split) != total:
                    continue
                dims = {c: m for c, m in zip(coords, split) if m}
                yield fam, dims, make_gl(eps, dims)


def _gl(F, n):
    return make_gl(trivial_bicharacter(GradedGroup([]), F), {(): n})


def _glmn(F, m, n):
    _, eps = super_bicharacter(F)
    return make_gl(eps, {(0,): m, (1,): n})


def _zero(A):
    return chi_reduce(A, pchar_zero(A))


def _top_vector(M):
    m = len(M.labels[0][0])
    v = np.zeros((M.dim, M.spec.algebra.F.k), dtype=np.int64)
    v[M.labels.index(((0,) * m, 0)), 0] = 1
    return v


def _verdict(num, label, ok, elapsed, limit, detail):
    line = "[%d] %-36s %s  (%.1fs / %ds)  %s" % (
        num, label, "PASS" if ok else "FAIL", elapsed, limit, detail)
    print(line)
    assert ok, line


# -- 1: structure axioms across the whole grid --------------------------------------


def test_1_axioms_hold_across_grading_grid():
    t0 = time.monotonic()
    count = 0
    clean = True
    for p in (5, 7):
        F = Field(p)
        for _fam, dims, A in _grid(F):
            clean &= validate_algebra(A) == []
            count += 1
    dt = time.monotonic() - t0
    _verdict(1, "structure axioms on full grid", clean and dt < 10, dt, 10,
             "%d algebras, 2 primes, 3 gradings" % count)


# -- 2: reduced-basis counting formula -----------------------------------------------


def test_2_reduced_basis_counts():
    t0 = time.monotonic()
    got = []
    got.append(uchi_basis(_zero(_gl(F5, 2)))[0])
    got.append(uchi_basis(_zero(_glmn(F5, 1, 1)))[0])
    # one letter whose degree 1 in Z/25 has 5*deg of order 5: cap 5*5
    G = GradedGroup([25])
    eps = trivial_bicharacter(G, F5)
    A = ColorAlgebra(eps, ["x"], [(1,)], {}, pmap={})
    chi = PCharacter(A, fclasses=[PowerClass(A.degree(0), 0, {0: F5.one}, 5)])
    got.append(uchi_basis(chi_reduce(A, chi))[0])
    dt = time.monotonic() - t0
    ok = got == [625, 100, 25]
    _verdict(2, "reduced basis counts", ok, dt, 10,
             "625 / 100 / 25 -> %s" % got)


# -- 3: the trace-pairing Gram matrix ------------------------------------------------


def test_3_gram_rank_and_symmetry():
    t0 = time.monotonic()
    ran = 0
    ok = True
    for p in (5, 7):
        F = Field(p)
        for _fam, dims, A in _grid(F):
            spec = _zero(A)
            n, _ = uchi_basis(spec)
            if n > 625:
                continue
            rep = frobenius_gram(spec)
            ok &= rep["nondegenerate"]
            ran += 1
    # every even element nilpotent: the pairing is color-symmetric
    nplus = subalgebra(_gl(F5, 3), list(root_datum(_gl(F5, 3)).pos))
    line = ColorAlgebra(trivial_bicharacter(GradedGroup([]), F5),
                        ["x"], [()], {}, pmap={0: {}})
    sym = all(frobenius_gram(_zero(A))["color_symmetric"]
              for A in (nplus, line))
    dt = time.monotonic() - t0
    _verdict(3, "Gram full rank + symmetry", ok and sym and dt < 60, dt, 60,
             "%d full-rank cases, 2 symmetric nilpotent cases" % ran)


# -- 4 & 5: simplicity, three ways, over full weight sweeps --------------------------

_SWEEPS = {}


def _trace_zero_codes(F):
    return [c for c in range(F.q) if F.add(c, F.pow(c, F.p)) == 0]


def _sweep_suite():
    """chi = 0 over the prime field and a regular semisimple character over
    the quadratic extension, for all four matrix algebras; memoized so the
    two checks that read it stay independent of run order."""
    if _SWEEPS:
        return _SWEEPS
    F25 = Field(5, 2)
    tz = _trace_zero_codes(F25)
    builders = {"gl2": lambda F: _gl(F, 2), "gl3": lambda F: _gl(F, 3),
                "gl11": lambda F: _glmn(F, 1, 1),
                "gl21": lambda F: _glmn(F, 2, 1)}
    # diagonal values with every root functional nonzero on them
    diag = {"gl2": {"e_11": tz[1]}, "gl3": {"e_11": tz[1], "e_22": tz[2]},
            "gl11": {"e_11": tz[1]}, "gl21": {"e_11": tz[1], "e_22": tz[2]}}
    for name, mk in builders.items():
        A = builders[name](F5)
        rows = sweep_rows(_zero(A), fp_order(A), oracle=True, seed=0)
        _SWEEPS[(name, "zero")] = (A, rows)
        B = mk(F25)
        chi = PCharacter(B, linear={B.index_of(k): v
                                    for k, v in diag[name].items()})
        rows = sweep_rows(chi_reduce(B, chi), fp_order(B), oracle=True,
                          seed=11)
        _SWEEPS[(name, "regss")] = (B, rows)
    return _SWEEPS


def test_4_simplicity_routes_agree_everywhere():
    t0 = time.monotonic()
    suite = _sweep_suite()
    total = sum(len(rows) for _A, rows in suite.values())
    agree = all(r["agree"] and (r["oracle"] == "simple") == (r["f_closed"] != 0)
                for _A, rows in suite.values() for r in rows)
    # frozen small fixtures
    A2, rows2 = suite[("gl2", "zero")]
    h = [A2.index_of("e_11"), A2.index_of("e_22")]
    cart = [A2.triangular.cartan.index(i) for i in h]
    simple2 = sorted(F5.sub(r["lambda"][cart[0]], r["lambda"][cart[1]])
                     for r in rows2 if r["oracle"] == "simple")
    fix2 = simple2 == [4] * 5
    _A11, rows11 = suite[("gl11", "zero")]
    fix11 = all((r["oracle"] == "simple")
                == (F5.add(r["lambda"][0], r["lambda"][1]) != 0)
                for r in rows11) and sum(
                    r["oracle"] == "simple" for r in rows11) == 20
    dt = time.monotonic() - t0
    ok = agree and fix2 and fix11 and dt < 600
    _verdict(4, "simplicity: oracle == both closed routes", ok, dt, 600,
             "%d rows over 8 sweeps, frozen gl(2)/gl(1|1) loci" % total)


def test_5_regular_semisimple_forces_simple():
    t0 = time.monotonic()
    suite = _sweep_suite()
    checked = 0
    ok = True
    for (name, kind), (_A, rows) in suite.items():
        if kind != "regss":
            continue
        ok &= all(r["oracle"] == "simple" and r["agree"] for r in rows)
        checked += len(rows)
    dt = time.monotonic() - t0
    _verdict(5, "regular semisimple => all simple", ok and dt < 600, dt, 600,
             "%d modules across 4 algebras over F_25" % checked)


# -- 6: operator identities inside the reduced algebras ------------------------------


def _ad_iterate(A, xi, yi, k):
    from colorlie.algebra import bracket_eval
    from colorlie.envelope import nf_from_element
    cur = {yi: 1}
    for _ in range(k):
        cur = bracket_eval(A, {xi: 1}, cur)
    return nf_from_element(A, cur)


def _ad_expansion(A, xi, yi, k):
    F = A.F
    X, Y = nf_letter(A, xi), nf_letter(A, yi)
    e = A.eps.value(A.degree(xi), A.degree(yi))
    q = A.eps.value(A.degree(xi), A.degree(xi))
    out = nf_one(A).scale(0)
    for i in range(k + 1):
        c = quantum_binomial(F, k, i, q)
        c = F.mul(c, F.pow(q, i * (i - 1) // 2))
        c = F.mul(c, F.pow(e, i))
        if i % 2:
            c = F.neg(c)
        out = out.add(X.pow(k - i).mul(Y).mul(X.pow(i)).scale(c))
    return out


def test_6_identity_regressions():
    t0 = time.monotonic()
    oks = {}

    # iterated bracket expands through twisted binomials, k <= 4
    ad_ok = True
    for A in (_glmn(F5, 1, 1), _glmn(F5, 2, 1)):
        for xi in range(A.dim):
            for yi in range(A.dim):
                for k in range(5):
                    ad_ok &= _ad_iterate(A, xi, yi, k).eq(
                        _ad_expansion(A, xi, yi, k))
    oks["ad"] = ad_ok

    # x^p - x^[p] is central, and binomially expands against a (-1)-commuter
    gl2 = _gl(F5, 2)
    anti = make_gl(Bicharacter(GradedGroup([2, 2]), F5,
                               [[F5.one, F5.neg(F5.one)],
                                [F5.neg(F5.one), F5.one]]),
                   {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    cz = True
    for A in (gl2, _glmn(F5, 1, 1), _glmn(F5, 2, 1), anti):
        for i in range(A.dim):
            if A.is_even(i):
                cz &= central_check(A, i)[1] == []
    z, rep = central_check(anti, anti.index_of("e_21"))
    cz &= rep == []
    b = nf_letter(anti, anti.index_of("e_31"))
    q = anti.eps.value(anti.degree(anti.index_of("e_31")),
                       anti.group.scale(5, anti.degree(anti.index_of("e_21"))))
    for n in range(6):
        lhs = z.add(b).pow(n)
        rhs = nf_one(anti).scale(0)
        for i in range(n + 1):
            rhs = rhs.add(z.pow(i).mul(b.pow(n - i))
                          .scale(quantum_binomial(F5, n, i, q)))
        cz &= lhs.eq(rhs)
    oks["central"] = cz

    # the saturated lowering monomial is a two-sided annihilator line
    gl3 = _gl(F5, 3)
    s3 = _zero(gl3)
    t3 = fp_order(gl3)
    pairs3 = [gl3.triangular.pairs[t] for t in t3.deltas]
    sat = nf_one(gl3, s3)
    for _e, f, _H in pairs3:
        sat = sat.mul(nf_letter(gl3, f, s3).pow(4))
    oks["saturated"] = (not sat.is_zero()) and all(
        nf_letter(gl3, f, s3).mul(sat).is_zero()
        and sat.mul(nf_letter(gl3, f, s3)).is_zero()
        for _e, f, _H in pairs3)

    # saturating the first k lowering directions kills them and the
    # remaining raising directions, layer by layer
    M = verma_build(s3, t3, (F5.embed(3), F5.embed(1), F5.embed(0)))
    w = _top_vector(M)
    layers = True
    for k in range(len(pairs3) + 1):
        if k:
            for _ in range(4):
                w = M.action[pairs3[k - 1][1]].matvec(w)
        layers &= bool(w.any())
        for i, (e, f, _H) in enumerate(pairs3):
            hit = M.action[f if i < k else e].matvec(w)
            layers &= not hit.any()
    oks["layers"] = layers

    # raising-lowering ladders against a killed vector, all three shapes
    s2 = _zero(gl2)
    t2 = fp_order(gl2)
    e2, f2, _H2 = gl2.triangular.pairs[t2.deltas[0]]
    ladder = True
    for l1 in range(5):
        for l2 in range(5):
            lam = (F5.embed(l1), F5.embed(l2))
            Z = verma_build(s2, t2, lam)
            v = _top_vector(Z)
            lamH = F5.sub(lam[0], lam[1])
            for l in (2, 3, 4):
                w = v
                for _ in range(l):
                    w = Z.action[f2].matvec(w)
                for _ in range(l):
                    w = Z.action[e2].matvec(w)
                c = F5.embed(math.factorial(l))
                for i in range(l):
                    c = F5.mul(c, F5.sub(lamH, F5.embed(i)))
                ladder &= np.array_equal(w, (v * c) % 5)
            w = v
            for _ in range(4):
                w = Z.action[f2].matvec(w)
            for _ in range(4):
                w = Z.action[e2].matvec(w)
            c = F5.mul(F5.embed(24),
                       F5.sub(F5.pow(F5.add(lamH, F5.one), 4), F5.one))
            ladder &= np.array_equal(w, (v * c) % 5)
    gl11 = _glmn(F5, 1, 1)
    s11 = _zero(gl11)
    t11 = fp_order(gl11)
    eo, fo, _Ho = gl11.triangular.pairs[t11.deltas[0]]
    Z = verma_build(s11, t11, (F5.embed(2), F5.embed(3)))
    v = _top_vector(Z)
    lhs = Z.action[eo].matvec(Z.action[fo].matvec(v))
    ladder &= np.array_equal(lhs, (v * F5.add(F5.embed(2), F5.embed(3))) % 5)
    oks["ladder"] = ladder

    # Cartan read-off of the square ladder
    E, Fl = nf_letter(gl2, e2, s2), nf_letter(gl2, f2, s2)
    g = harish_chandra(E.mul(E).mul(Fl).mul(Fl))
    h = nf_letter(gl2, gl2.index_of("e_11"), s2).sub(
        nf_letter(gl2, gl2.index_of("e_22"), s2))
    oks["hc"] = g.eq(h.mul(h).sub(h).scale(F5.embed(2)))

    dt = time.monotonic() - t0
    ok = all(oks.values()) and dt < 30
    _verdict(6, "operator identity regressions", ok, dt, 30,
             ", ".join("%s:%s" % (k, "ok" if v else "FAIL")
                       for k, v in oks.items()))


# -- 7: nilpotent algebras have one simple module ------------------------------------


def test_7_unipotent_socle_and_unique_simple():
    t0 = time.monotonic()
    gl3 = _gl(F5, 3)
    nplus = subalgebra(gl3, list(root_datum(gl3).pos))
    line = ColorAlgebra(trivial_bicharacter(GradedGroup([]), F5),
                        ["x"], [()], {}, pmap={0: {}})
    ok = True
    for A in (line, nplus):
        spec = _zero(A)
        reg = regular_module(spec)
        stack = Mat(F5, np.concatenate(
            [reg["action"][i].a for i in range(A.dim)], axis=0))
        kern = stack.nullspace()
        soc = unipotent_socle(A)
        col = [int(c) for c in F5.array_to_codes(kern.a[:, 0])]
        ok &= kern.shape[1] == 1 and col == list(soc["left"])
        ok &= soc["ratio"] != 0
    # two independently seeded heads of the same reduced algebra coincide
    spec = chi_reduce(line, PCharacter(line, linear={0: 2}))
    q1 = simple_quotient(spec, seed=1)
    q2 = simple_quotient(spec, seed=2)
    iso = module_isomorphism(line, q1, q2)
    ok &= q1["dim"] == q2["dim"] == 1 and iso.entry(0, 0) != 0
    dt = time.monotonic() - t0
    _verdict(7, "unipotent socle + unique simple", ok and dt < 60, dt, 60,
             "joint kernels 1-dim, heads isomorphic")


# -- 8: the simplicity locus restricts along the corner embedding --------------------


def test_8_simplicity_locus_restricts_to_corner():
    t0 = time.monotonic()
    gl2, gl3 = _gl(F5, 2), _gl(F5, 3)
    t2, t3 = fp_order(gl2), fp_order(gl3)
    ok = True
    strict = False
    for corner in ({}, {"e_21": 1}):
        chi2 = PCharacter(gl2, linear={gl2.index_of(n): c
                                       for n, c in corner.items()})
        chi3 = PCharacter(gl3, linear={gl3.index_of(n): c
                                       for n, c in corner.items()})
        s2, s3 = chi_reduce(gl2, chi2), chi_reduce(gl3, chi3)
        for lam in itertools.product(range(5), repeat=3):
            f2 = f_closed(s2, t2, lam[:2])
            f3 = f_closed(s3, t3, lam)
            if f2 == 0:
                ok &= f3 == 0
            elif f3 == 0:
                strict = True
            if not corner:
                # the Cartan route agrees with the closed form on vanishing
                # (it is only defined without a lowering-side character)
                ok &= (f3 == 0) == (f_via_hc(s3, t3, lam)[0] == 0)
    dt = time.monotonic() - t0
    _verdict(8, "corner embedding divides the locus", ok and strict and dt < 60,
             dt, 60, "250 weight triples, 2 characters")


# -- beyond the gates: agreement on larger super algebras ----------------------------

GOLDEN_GL12 = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden", "sweep_gl12.csv")


def test_gl12_and_gl31_sweeps_agree(tmp_path):
    # all 125 rows of gl(1|2)/F_5 at chi = 0, swept through the command
    # line and pinned byte for byte in golden/sweep_gl12.csv (regenerate
    # with `colorlie sweep` on the spec below, `--chi zero --out`), and the
    # five gl(3|1)/F_5 rows with e_11, e_22, e_33 fixed to 1, 2, 0: every
    # row agrees across f_closed, f_via_hc and the oracle
    spec = tmp_path / "gl12.json"
    spec.write_text(json.dumps({
        "field": {"p": 5}, "group": {"cyclic_orders": [2]},
        "bicharacter": {"table": [[[4]]]},
        "algebra": {"type": "gl", "dims": {"0": 1, "1": 2}}}))
    out = tmp_path / "gl12.csv"
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(["sweep", str(spec), "--chi", "zero", "--out",
                       str(out)])
    summary = json.loads(buf.getvalue())["summary"]
    assert rc == 0
    assert summary == {"rows": 125, "simple": 20, "disagreements": 0}
    with open(GOLDEN_GL12, "rb") as fh:
        assert out.read_bytes() == fh.read()
    A = _glmn(F5, 3, 1)
    rows = sweep_rows(_zero(A), fp_order(A), fix={0: 1, 1: 2, 2: 0})
    assert len(rows) == 5 and all(r["agree"] for r in rows)
    assert all(r["oracle"] == "not-simple" for r in rows)
