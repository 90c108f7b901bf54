"""Exact linear algebra: elimination against brute-force oracles."""

import hashlib
import itertools
import json
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from colorlie import linalg
from colorlie.field import Field, digit_product, nonzero_digits
from colorlie.linalg import Echelon, Mat, _forward, _peel, batch_rref


F5 = Field(5)
F7 = Field(7)
F25 = Field(5, 2)
F125 = Field(5, 3)  # k = 3: the only case where the modulus fold takes two steps
FIELDS = (F5, F7, F25, F125)


def rand_mat(F, r, c, rng):
    return Mat.from_codes(F, [[rng.randrange(F.q) for _ in range(c)] for _ in range(r)])


# -- arithmetic ---------------------------------------------------------------

def test_identity_and_matmul():
    import random
    rng = random.Random(1)
    for F in FIELDS:
        A = rand_mat(F, 3, 4, rng)
        I3 = Mat.identity(F, 3)
        I4 = Mat.identity(F, 4)
        assert I3 @ A == A
        assert A @ I4 == A
        assert (A - A).is_zero()


def test_matmul_against_schoolbook():
    import random
    rng = random.Random(2)
    for F in FIELDS:
        A = rand_mat(F, 2, 3, rng)
        B = rand_mat(F, 3, 2, rng)
        C = A @ B
        for i in range(2):
            for j in range(2):
                s = F.zero
                for m in range(3):
                    s = F.add(s, F.mul(A.entry(i, m), B.entry(m, j)))
                assert C.entry(i, j) == s


def test_digit_product_on_views_against_schoolbook():
    # transposes, strided slices and single columns reach digit_product as
    # non-contiguous views
    import random
    rng = random.Random(12)
    for F in (F5, F25, F125):
        A = rand_mat(F, 5, 4, rng)
        B = rand_mat(F, 7, 6, rng)
        a, b = A.to_codes(), B.to_codes()
        # A.T (4 x 5) times the transpose of B's even rows, first 5 columns
        left, right = A.T.a, B.a[::2, :5].swapaxes(0, 1)    # (4, 5), (5, 4)
        got = F.array_to_codes(digit_product(F, left, right, np.matmul))
        for i in range(4):
            for j in range(4):
                s = F.zero
                for m in range(5):
                    s = F.add(s, F.mul(a[m, i], b[2 * j, m]))
                assert got[i, j] == s
        col, row = A.a[:, 2], B.a[1:6, 4]                    # (5, k) each
        got = F.array_to_codes(digit_product(F, col, row, np.multiply))
        assert list(got) == [F.mul(a[m, 2], b[1 + m, 4]) for m in range(5)]
        strided = B.a[0, ::2]                                # (3, k)
        got = F.array_to_codes(digit_product(F, col, strided,
                                             np.multiply.outer))
        for i in range(5):
            for j in range(3):
                assert got[i, j] == F.mul(a[i, 2], b[0, 2 * j])


def test_scale_matches_entrywise():
    import random
    rng = random.Random(3)
    for F in FIELDS:
        A = rand_mat(F, 3, 3, rng)
        for c in (F.zero, F.one, 2, F.q - 1):
            B = A.scale(c)
            for i in range(3):
                for j in range(3):
                    assert B.entry(i, j) == F.mul(c, A.entry(i, j))


def test_matvec_matches_matmul():
    import random
    rng = random.Random(4)
    for F in (F5, F25):
        A = rand_mat(F, 3, 4, rng)
        codes = [rng.randrange(F.q) for _ in range(4)]
        col = Mat.from_codes(F, [[c] for c in codes])
        v = F.codes_to_array(np.asarray(codes).reshape(4, 1))[:, 0, :]
        out = A.matvec(v)
        expect = A @ col
        for i in range(3):
            assert int(F.array_to_codes(out[i])) == expect.entry(i, 0)


def test_pow_int():
    A = Mat.from_codes(F5, [[1, 1], [0, 1]])
    assert A.pow_int(0) == Mat.identity(F5, 2)
    assert A.pow_int(3) == A @ A @ A
    assert A.pow_int(5) == Mat.from_codes(F5, [[1, 0], [0, 1]])  # unipotent, order 5
    with pytest.raises(ValueError):
        A.pow_int(-1)


# -- elimination --------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.randoms(use_true_random=False))
def test_rank_nullity_and_kernel(r, c, rng):
    for F in FIELDS:
        A = rand_mat(F, r, c, rng)
        N = A.nullspace()
        assert A.rank() + N.shape[1] == c
        assert (A @ N).is_zero()
        # kernel columns are independent
        assert N.shape[1] == 0 or N.rank() == N.shape[1]


def test_rref_shape_and_determinism():
    A = Mat.from_codes(F5, [[0, 2, 1], [0, 4, 2], [1, 1, 1]])
    R, pivots = A.rref()
    assert pivots == [0, 1]
    R2, _ = A.rref()
    assert R == R2
    # each pivot column is a standard basis vector
    for ri, pc in enumerate(pivots):
        for i in range(3):
            assert R.entry(i, pc) == (F5.one if i == ri else F5.zero)


def _peel_cases(F, rng):
    """name -> (digit array, number of pivots it should peel, or None when
    unchecked)."""
    def uniform(r, c, low=0):
        return F.codes_to_array(rng.integers(low, F.q, size=(r, c)))

    def upper(r, c):  # nonzero diagonal, uniform above it, zero below
        a = uniform(r, c) * (np.arange(c) > np.arange(r)[:, None])[..., None]
        n = min(r, c)
        a[np.arange(n), np.arange(n)] = uniform(1, n, low=1)[0]
        return a

    def shuffle(a):
        return a[rng.permutation(len(a))][:, rng.permutation(a.shape[1])]

    def low_rank(r, c, rank):
        return digit_product(F, uniform(r, rank), uniform(rank, c), np.matmul)

    bidiagonal = np.zeros((40, 40, F.k), dtype=np.int64)
    bidiagonal[np.arange(40), np.arange(40)] = uniform(1, 40, low=1)[0]
    bidiagonal[np.arange(39), np.arange(1, 40)] = uniform(1, 39, low=1)[0]
    border = np.zeros((34, 31, F.k), dtype=np.int64)
    border[:18, :18] = upper(18, 18)
    border[:18, 18:] = uniform(18, 13)
    border[18:, 18:] = low_rank(16, 13, 5)
    gaps = shuffle(border)
    gaps[[2, 9, 20]] = 0
    gaps[:, [0, 7]] = 0
    return {
        "triangular": (shuffle(upper(30, 30)), 30),
        "bidiagonal": (shuffle(bidiagonal), 40),  # one pivot per round
        "tall_triangular": (shuffle(upper(25, 18)), 18),
        "wide_triangular": (shuffle(upper(14, 23)), 14),
        "dense": (uniform(30, 30, low=1), 0),
        "dense_wide": (uniform(12, 20, low=1), 0),
        "dense_low_rank": (low_rank(24, 22, 9), 0),
        "border": (shuffle(border), 18),
        "border_gaps": (gaps, None),
        "zero": (np.zeros((6, 9, F.k), dtype=np.int64), 0),
        "no_rows": (np.zeros((0, 5, F.k), dtype=np.int64), 0),
        "no_cols": (np.zeros((5, 0, F.k), dtype=np.int64), 0),
    }


@pytest.mark.parametrize("F", [F5, F25, F125], ids=["f5", "f25", "f125"])
def test_peeled_rank_matches_forward_elimination(F, monkeypatch):
    forward, cores = linalg._forward, []

    def spy(F, a):
        cores.append(a.shape)
        return forward(F, a)

    monkeypatch.setattr(linalg, "_forward", spy)
    rng = np.random.default_rng(F.q)
    for name, (a, peels) in _peel_cases(F, rng).items():
        want = _forward(F, a[None].copy())[1].shape[1]
        cores.clear()
        assert Mat(F, a).rank() == want, name
        rows, cols, peeled = _peel(nonzero_digits(a))
        if peels is not None:
            assert peeled == peels, name
        # a fully peeled matrix costs no elimination
        assert (cores == []) == (peeled == want), name
        if cores:
            assert cores == [(1, rows.size, cols.size, F.k)]


def _batch_items(F, r, c, rng):
    """Random (r, c) items: all zero, zero-padded, full rank and low rank."""
    def rand(rows, cols):
        return rand_mat(F, rows, cols, rng).a

    items = [np.zeros((r, c, F.k), dtype=np.int64)]
    for n in range(1, r + 1):
        padded = np.zeros((r, c, F.k), dtype=np.int64)
        padded[:n] = rand(n, c)
        items.append(padded)
    for _ in range(4):
        items.append(rand(r, c))
    for rank in (1, 2):
        items.append(digit_product(F, rand(r, rank), rand(rank, c), np.matmul))
    gapped = rand(r, c)
    gapped[r // 2] = 0                # a zero row between nonzero rows
    gapped[:, 0] = 0                  # and a column without a pivot
    items.append(gapped)
    return np.stack(items)


def test_batch_rref_matches_rref_item_by_item():
    # Mat.rref is a batch of one: an item reduced in a batch must equal
    # the item reduced alone
    import random
    rng = random.Random(12)
    for F in (F5, F25, F125, Field(7, 4)):   # F_2401: no inverse table
        for r, c in ((5, 3), (3, 5), (4, 4), (1, 2)):
            batch = _batch_items(F, r, c, rng)
            R, pivots = batch_rref(F, batch.copy())
            assert pivots.shape == (len(batch), c)
            ranks = set()
            for t, item in enumerate(batch):
                want, want_piv = Mat(F, item).rref()
                assert np.array_equal(R[t], want.a), (F.q, r, c, t)
                assert list(np.flatnonzero(pivots[t])) == want_piv
                ranks.add(len(want_piv))
            assert {0, min(r, c)} <= ranks   # all-zero and full-rank items


def test_forward_pivot_rows_are_where_the_rank_grows():
    # Echelon.insert accepts a block's pivot rows: a row must hold a pivot
    # exactly when it is independent of the rows above it
    import random
    rng = random.Random(13)
    batches = [(F, _batch_items(F, r, c, rng))
               for F in (F5, F25, F125, Field(7, 4))
               for r, c in ((6, 4), (4, 6), (5, 5))]
    batches += [_pin_batch(name) for name in ("f5_sparse_12x45x15",
                                              "f25_sparse_12x45x15")]
    for F, batch in batches:
        rows, cols = _forward(F, batch.copy())
        assert rows.shape == cols.shape == (len(batch), rows.shape[1])
        for t, item in enumerate(batch):
            ranks = [Mat(F, item[:n]).rank() for n in range(len(item) + 1)]
            grows = [n for n in range(len(item)) if ranks[n + 1] > ranks[n]]
            rank = ranks[-1]
            assert (cols[t, rank:] == -1).all() and (rows[t, rank:] == -1).all()
            assert sorted(rows[t, :rank]) == grows, (F.q, t)
            assert (np.diff(cols[t, :rank]) > 0).all(), (F.q, t)


def test_solve_verified_and_inconsistent():
    import random
    rng = random.Random(5)
    for F in FIELDS:
        for _ in range(10):
            A = rand_mat(F, 3, 4, rng)
            x = rand_mat(F, 4, 2, rng)
            b = A @ x
            got = A.solve(b)
            assert got is not None and A @ got == b
    A = Mat.from_codes(F5, [[1], [1]])
    assert A.solve(Mat.from_codes(F5, [[1], [2]])) is None


def test_inverse():
    import random
    rng = random.Random(6)
    for F in FIELDS:
        found = 0
        while found < 5:
            A = rand_mat(F, 3, 3, rng)
            if A.rank() < 3:
                with pytest.raises(ZeroDivisionError):
                    A.inv()
                continue
            assert A @ A.inv() == Mat.identity(F, 3)
            assert A.inv() @ A == Mat.identity(F, 3)
            found += 1


# -- characteristic polynomial ------------------------------------------------

def charpoly_leibniz(A):
    """det(tI - A) by permutation expansion over the polynomial ring."""
    F = A.F
    n = A.shape[0]
    total = []
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        prod = [F.embed(sign)]
        for i in range(n):
            e = [F.neg(A.entry(i, perm[i]))]
            if perm[i] == i:
                e.append(F.one)
            prod = F.poly_mul(prod, e)
        total = F.poly_add(total, prod)
    return total + [0] * (n + 1 - len(total))


def test_charpoly_fixed_values():
    A = Mat.from_codes(F5, [[1, 2], [3, 4]])
    assert A.charpoly() == [3, 0, 1]  # t^2 - (tr)t + det = t^2 + 3 over F_5
    # companion matrix of t^3 + 2t + 1
    C = Mat.from_codes(F5, [[0, 0, 4], [1, 0, 3], [0, 1, 0]])
    assert C.charpoly() == [1, 2, 0, 1]


def test_charpoly_against_leibniz():
    import random
    rng = random.Random(7)
    for F in (F5, F25):
        for n in (1, 2, 3):
            for _ in range(5):
                A = rand_mat(F, n, n, rng)
                assert A.charpoly() == charpoly_leibniz(A)


def test_cayley_hamilton():
    import random
    rng = random.Random(8)
    for F in (F5, F25):
        for n in (2, 3, 4):
            A = rand_mat(F, n, n, rng)
            acc = Mat.zeros(F, n, n)
            power = Mat.identity(F, n)
            for c in A.charpoly():
                acc = acc + power.scale(c)
                power = power @ A
            assert acc.is_zero()


# -- incremental echelon ------------------------------------------------------

def test_echelon_tracks_rank():
    import random
    rng = random.Random(9)
    for F in (F5, F25):
        rows = [[rng.randrange(F.q) for _ in range(6)] for _ in range(8)]
        E = Echelon(F, 6)
        for row in rows:
            E.insert(F.codes_to_array([row])[0])
        assert E.dim == Mat.from_codes(F, rows).rank()
        # a random combination of inserted rows is contained, not inserted
        coeffs = [rng.randrange(F.q) for _ in rows[:3]]
        combo = (Mat.from_codes(F, [coeffs])
                 @ Mat.from_codes(F, rows[:3])).a[0]
        assert E.contains(combo)
        assert not E.insert(combo.copy())


def test_echelon_rows_stay_reduced():
    F = F25
    import random
    rng = random.Random(10)
    E = Echelon(F, 5)
    for _ in range(7):
        E.insert(F.codes_to_array([[rng.randrange(F.q) for _ in range(5)]])[0])
    for t, piv in enumerate(E.pivots):
        for other in range(E.dim):
            expect = F.one if other == t else F.zero
            assert int(F.array_to_codes(E.R[other, piv])) == expect


def test_echelon_block_insert_matches_single_inserts():
    import random
    rng = random.Random(11)
    for F in FIELDS:
        for _ in range(10):
            width = rng.randrange(1, 7)
            seed_rows = [[rng.randrange(F.q) for _ in range(width)]
                         for _ in range(rng.randrange(3))]
            rows = [[rng.randrange(F.q) for _ in range(width)]
                    for _ in range(rng.randrange(1, 8))]
            # dependent rows, repeats and zero rows inside the block
            rows.append([0] * width)
            rows.append(rows[0])
            coeffs = [rng.randrange(F.q) for _ in rows]
            rows.append(list((Mat.from_codes(F, [coeffs])
                              @ Mat.from_codes(F, rows)).to_codes()[0]))
            rng.shuffle(rows)
            one, block = Echelon(F, width), Echelon(F, width)
            for row in seed_rows:
                one.insert(F.codes_to_array([row])[0])
            if seed_rows:
                block.insert(F.codes_to_array(seed_rows))
            taken = [t for t, row in enumerate(rows)
                     if one.insert(F.codes_to_array([row])[0])]
            assert block.insert(F.codes_to_array(rows)) == taken
            assert block.dim == one.dim
            assert all(np.array_equal(u, v)
                       for u, v in zip(block.basis(), one.basis()))


# -- pinned outputs on larger matrices ------------------------------------------
#
# Recorded in tests/pins/linalg.json.  Matrices are compared by a digest of
# their codes, so the file stays small; ranks, pivots and accepted row
# indices are stored as they are.  When an output is meant to change,
# regenerate the file with ``PYTHONPATH=src python tests/test_linalg.py``
# and review the diff.

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins", "linalg.json")
F2401 = Field(7, 4)                  # above the table limit: no inverse table
PIN_FIELDS = {5: F5, 7: F7, 25: F25, 125: F125, 2401: F2401}

# name -> (q, rows, cols, planted rank or None for uniform entries, pivot-free
# columns, seed); a planted-rank matrix is the product of two uniform
# factors, and the pivot-free columns are two zero columns and a repeat of
# column 1 in the last column
PIN_CASES = {
    "f5_150x150": (5, 150, 150, None, True, 1),
    "f5_150x120_rank60": (5, 150, 120, 60, True, 2),
    "f5_140x140_rank139": (5, 140, 140, 139, False, 3),
    "f5_100x100_invertible": (5, 100, 100, None, False, 18),
    "f5_zero_6x9": (5, 6, 9, 0, False, 4),
    "f5_one_row_1x12": (5, 1, 12, None, True, 5),
    "f5_one_col_11x1": (5, 11, 1, None, False, 6),
    "f5_no_rows_0x6": (5, 0, 6, None, False, 7),
    "f5_no_cols_4x0": (5, 4, 0, None, False, 8),
    "f5_zero_rows_40x30": (5, 40, 30, None, True, 9),
    "f7_130x150": (7, 130, 150, None, True, 10),
    "f7_150x110_rank45": (7, 150, 110, 45, True, 11),
    "f7_80x80_invertible": (7, 80, 80, None, False, 19),
    "f25_90x90": (25, 90, 90, None, True, 12),
    "f25_120x130_rank70": (25, 120, 130, 70, True, 13),
    "f25_60x60_invertible": (25, 60, 60, None, False, 20),
    "f125_70x80": (125, 70, 80, None, True, 14),
    "f125_80x80_rank30": (125, 80, 80, 30, False, 15),
    "f125_50x50_invertible": (125, 50, 50, None, False, 21),
    "f2401_40x40": (2401, 40, 40, None, True, 16),
    "f2401_50x45_rank20": (2401, 50, 45, 20, True, 17),
    "f2401_30x30_invertible": (2401, 30, 30, None, False, 22),
}


def _codes(F, a):
    return np.asarray(F.array_to_codes(a), dtype=np.int64).reshape(a.shape[:-1])


def _digest(F, a):
    """Shape and a short hash of the codes of a digit array."""
    codes = np.ascontiguousarray(_codes(F, a))
    return "%s:%s" % ("x".join(map(str, codes.shape)),
                      hashlib.sha256(codes.tobytes()).hexdigest()[:20])


def _pin_matrix(name):
    """The case's matrix; in the zero-rows case every third row is
    cleared."""
    q, r, c, rank, gaps, seed = PIN_CASES[name]
    F = PIN_FIELDS[q]
    rng = np.random.default_rng(seed)
    if rank is None:
        codes = rng.integers(0, q, size=(r, c))
        a = F.codes_to_array(codes).reshape(r, c, F.k)
    else:
        left = F.codes_to_array(rng.integers(0, q, size=(r, rank)))
        right = F.codes_to_array(rng.integers(0, q, size=(rank, c)))
        a = digit_product(F, left.reshape(r, rank, F.k),
                          right.reshape(rank, c, F.k), np.matmul)
    if gaps:
        a[:, [0, c // 2]] = 0
        a[:, c - 1] = a[:, 1]
    if name.startswith("f5_zero_rows"):
        a[::3] = 0
    return F, Mat(F, a)


def _pin_rhs(F, A, seed):
    """A consistent right-hand side A @ x and a uniform one (inconsistent
    whenever A's rank is below its row count, with high probability)."""
    r, c = A.shape
    rng = np.random.default_rng(seed + 1000)
    x = F.codes_to_array(rng.integers(0, F.q, size=(c, 3))).reshape(c, 3, F.k)
    b = F.codes_to_array(rng.integers(0, F.q, size=(r, 2))).reshape(r, 2, F.k)
    return (A @ Mat(F, x)), Mat(F, b)


def _pin_blocks(r, seed):
    """Split points of the rows into Echelon blocks: single rows, small
    blocks and one large block."""
    rng = np.random.default_rng(seed + 2000)
    cuts, at = [], 0
    for size in (1, 1, 3, 8) + tuple(rng.integers(1, 40, size=6)):
        at = min(r, at + int(size))
        cuts.append(at)
    return sorted(set(cuts) | {r})


def _pin_echelon(F, A, seed):
    """Insert A's rows block by block, then one block of combinations of
    inserted rows mixed with fresh rows, then one single vector."""
    r, c = A.shape
    E = Echelon(F, c)
    accepted = []
    start = 0
    for stop in _pin_blocks(r, seed):
        accepted.append(E.insert(A.a[start:stop]))
        start = stop
    rng = np.random.default_rng(seed + 3000)
    coeffs = F.codes_to_array(rng.integers(0, F.q, size=(4, r)))
    mixed = digit_product(F, coeffs.reshape(4, r, F.k), A.a, np.matmul)
    fresh = F.codes_to_array(rng.integers(0, F.q, size=(3, c)))
    block = np.concatenate([mixed, fresh.reshape(3, c, F.k), mixed[:1]])
    accepted.append(E.insert(block))
    vec = F.codes_to_array(rng.integers(0, F.q, size=(1, c))).reshape(c, F.k)
    accepted.append(E.insert(vec))
    return {"accepted": [[int(t) for t in ts] for ts in accepted],
            "pivots": [int(j) for j in E.pivots],
            "R": _digest(F, E.R), "dim": E.dim}


def _pin_outputs(name):
    F, A = _pin_matrix(name)
    seed = PIN_CASES[name][-1]
    R, pivots = A.rref()
    consistent, uniform = _pin_rhs(F, A, seed)
    out = {"rank": A.rank(), "R": _digest(F, R.a),
           "pivots": [int(j) for j in pivots],
           "nullspace": _digest(F, A.nullspace().a)}
    for key, b in (("solve", consistent), ("solve_uniform", uniform)):
        x = A.solve(b)
        out[key] = None if x is None else _digest(F, x.a)
    if A.shape[0] == A.shape[1]:
        try:
            out["inv"] = _digest(F, A.inv().a)
        except ZeroDivisionError:
            out["inv"] = "singular"
    out["echelon"] = _pin_echelon(F, A, seed)
    return out


def _gram_specs():
    """The three Frobenius Gram matrices of one benchmark `gram` pass: the
    625-dimensional reduced gl(2) over F_5, gl(1|1) and n+ of gl(3) over
    F_25 = F_5[t]/(t^2 + 3)."""
    f25 = {"p": 5, "k": 2, "modulus": [3, 0, 1]}
    return {
        "gl2_f5": {"field": {"p": 5}, "algebra": {"type": "gl",
                                                  "dims": {"": 2}}},
        "gl11_f25": {"field": f25, "group": {"cyclic_orders": [2]},
                     "bicharacter": {"table": [[[4, 0]]]},
                     "algebra": {"type": "gl", "dims": {"0": 1, "1": 1}}},
        "nplus_gl3_f25": {"field": f25, "algebra": {
            "type": "explicit", "basis": ["e_12", "e_23", "e_13"],
            "degrees": [[], [], []],
            "structure": [[0, 1, [[2, [1, 0]]]]],
            "pmap": [[0, []], [1, []], [2, []]]}},
    }


def _gram_outputs(name, workdir):
    from colorlie.cli import load_spec
    from colorlie.envelope import chi_reduce, frobenius_gram
    from colorlie.repmod import pchar_zero

    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(_gram_specs()[name], fh)
    A = load_spec(path)["algebra"]
    rep = frobenius_gram(chi_reduce(A, pchar_zero(A)))
    return {"dimension": rep["dimension"], "rank": rep["rank"],
            "color_symmetric": rep["color_symmetric"]}


# name -> (q, items, rows, cols, density, seed): seeded batches for the batch
# reduction; item t is all zero when t % 6 == 0, zero from row t % rows on
# when t % 6 == 1, zero in its first t % cols columns when t % 6 == 2 and of
# rank 1 + t % 3 when t % 6 == 3; density is the share of entries kept
BATCH_CASES = {
    "f5_mixed_18x7x9": (5, 18, 7, 9, 1.0, 31),
    "f5_sparse_12x45x15": (5, 12, 45, 15, 0.03, 32),
    "f25_mixed_18x9x6": (25, 18, 9, 6, 0.6, 33),
    "f25_sparse_12x45x15": (25, 12, 45, 15, 0.03, 34),
    "f125_mixed_12x6x8": (125, 12, 6, 8, 0.8, 35),
    "f2401_mixed_12x5x7": (2401, 12, 5, 7, 0.7, 36),
}


def _pin_batch(name):
    """The case's (items, rows, cols, k) batch."""
    q, b, r, c, density, seed = BATCH_CASES[name]
    F = PIN_FIELDS[q]
    rng = np.random.default_rng(seed)
    items = []
    for t in range(b):
        codes = rng.integers(0, q, size=(r, c)) * (rng.random((r, c)) < density)
        if t % 6 == 0:
            codes[:] = 0
        elif t % 6 == 1:
            codes[t % r:] = 0
        elif t % 6 == 2:
            codes[:, :t % c] = 0
        elif t % 6 == 3:
            rank = 1 + t % 3
            left = F.codes_to_array(rng.integers(0, q, size=(r, rank)))
            right = F.codes_to_array(codes[:rank])
            items.append(digit_product(F, left, right, np.matmul))
            continue
        items.append(F.codes_to_array(codes))
    return F, np.stack(items)


def _batch_outputs(name):
    F, batch = _pin_batch(name)
    R, pivots = batch_rref(F, batch)
    return [{"R": _digest(F, R[t]),
             "pivots": [int(j) for j in np.flatnonzero(pivots[t])]}
            for t in range(len(batch))]


def _pins():
    with open(PINS) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(PIN_CASES))
def test_elimination_outputs_pinned(name):
    assert _pin_outputs(name) == _pins()["matrices"][name]


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batch_outputs_pinned(name):
    assert _batch_outputs(name) == _pins()["batches"][name]


@pytest.mark.parametrize("name", sorted(_gram_specs()))
def test_gram_rank_pinned(name, tmp_path):
    assert _gram_outputs(name, str(tmp_path)) == _pins()["gram"][name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = {"matrices": {n: _pin_outputs(n) for n in sorted(PIN_CASES)},
                "batches": {n: _batch_outputs(n) for n in sorted(BATCH_CASES)},
                "gram": {n: _gram_outputs(n, tmp) for n in sorted(_gram_specs())}}
    with open(PINS, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stderr.write("wrote %s\n" % PINS)
