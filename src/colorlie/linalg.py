"""Dense exact linear algebra over F_{p^k}.

Matrices hold their entries as numpy digit arrays of shape (rows, cols, k),
one base-p digit vector per entry.  Every product of such arrays goes
through `field.digit_product`.  There is one elimination kernel, and it
runs on a batch of independent matrices (b, rows, cols, k); a single
matrix is a batch of one.  The forward pass, `_forward`, gives every item
its own pivots and clears only that item's rows that lead in its pivot
column; `_back_substitute` scales the pivots to one and clears above them.
`batch_rref` runs the two in a row for `Mat.rref` (with it kernel, solve
and inverse) and for the simplicity oracle's many small systems.
`entry_rank` ranks a matrix given by its nonzero entries: it peels the
structural pivots (`_peel`: rows and columns with a single nonzero entry,
which need no arithmetic) and counts the pivots of `_forward` on the rows
and columns left, gathered dense.  `Mat.rank` is its dense case, and the
Frobenius Gram matrix, never dense, its sparse one; the incremental
`Echelon` runs both passes on each block it reduces.  Kernels of a batch
are read off its reduced forms by `kernel_from_rref`.  Everything is deterministic: the
pivot is always the first nonzero entry.
"""

import numpy as np

from .field import digit_product, nonzero_digits


def _leading(nz):
    """Column of the first True entry of each row of the boolean array nz
    (..., w), w for a row without one."""
    last = nz.ndim - 1
    return np.where(nz.any(axis=last), nz.argmax(axis=last), nz.shape[last])


def _forward(F, a):
    """Forward elimination in place on the batch a (b, r, c, k) of digit
    arrays; returns the (b, n) pivot rows and columns of the items, each
    item's in column order and padded with -1 past its rank n_i <= n.

    At each step every item that still has a pivot takes the first row
    leading in its own leftmost live column (a row is live until it holds
    a pivot), and clears only its own rows that lead in that column: every
    other live row is already zero there.  Each row's leading column is
    kept, so a column where no live row is nonzero costs nothing.  Rows
    are not moved and pivots are not scaled, so an item's pivot rows form
    a row echelon form, every live row ends zero, and a row holds a pivot
    exactly when it is independent of the rows above it."""
    b, r, c, _ = a.shape
    items = at = np.arange(b)     # the items that still have a pivot to take
    lead = _leading(nonzero_digits(a)) if c else np.zeros((b, r), np.int64)
    steps = []
    while items.size:
        col = lead.min(axis=1, initial=c)
        live = col < c
        if not live.all():
            items, lead = items[live], lead[live]
            at = np.arange(items.size)
            continue
        hit = lead == col[:, None]
        top = hit.argmax(axis=1)
        steps.append((items, top, col))
        lead[at, top] = c
        if np.count_nonzero(hit) > at.size:
            hit[at, top] = False
            jj, below = np.nonzero(hit)
            ii, pc, pr = items[jj], col[jj], top[jj]
            c0 = int(pc.min())
            factor = digit_product(F, a[ii, below, pc],
                                   F.inv_array(a[ii, pr, pc]), np.multiply)
            sub = (a[ii, below, c0:] - digit_product(
                F, factor[:, None], a[ii, pr, c0:], np.multiply)) % F.p
            a[ii, below, c0:] = sub
            lead[jj, below] = c0 + _leading(nonzero_digits(sub))
    rows, cols = np.full((2, b, len(steps)), -1, dtype=np.int64)
    for t, (items, top, col) in enumerate(steps):
        rows[items, t], cols[items, t] = top, col
    return rows, cols


def _peel(rows, cols, shape):
    """Structural pivots of the (r, c) matrix whose nonzero entries sit at
    (rows, cols), each at most once (C. Bouillaguet and C. Delaplace,
    "Sparse Gaussian elimination modulo p: an update", CASC 2016); returns
    the rows and columns left and the number of pivots peeled.

    A column whose one nonzero entry among the live rows sits in row i is a
    pivot that needs no arithmetic: column operations with it clear row i
    elsewhere and touch no other row, so the rank is one more than the
    rank without row i and the column.  The same holds for a row with one
    nonzero entry among the live columns.  Each round takes every such
    column from a `bincount` of the live entries, or every such row when
    no column is left, one pivot per row and per column, and masks the
    pivots' rows and columns off the entries.  Rows and columns that end
    with no nonzero entry are dropped as well."""
    in_row = np.bincount(rows, minlength=shape[0])
    in_col = np.bincount(cols, minlength=shape[1])
    gone_row, gone_col = np.zeros(shape[0], bool), np.zeros(shape[1], bool)
    peeled = 0
    while True:
        single = np.flatnonzero(in_col[cols] == 1)
        other, size = rows, shape[0]
        if not single.size:
            single = np.flatnonzero(in_row[rows] == 1)
            other, size = cols, shape[1]
            if not single.size:
                break
        if single.size > 1:
            # several single columns may meet in one row (single rows in
            # one column): the last one written to the row keeps it
            owner = np.empty(size, dtype=np.int64)
            owner[other[single]] = single
            single = single[owner[other[single]] == single]
        peeled += single.size
        gone_row[rows[single]] = gone_col[cols[single]] = True
        drop = gone_row[rows] | gone_col[cols]
        in_row -= np.bincount(rows[drop], minlength=shape[0])
        in_col -= np.bincount(cols[drop], minlength=shape[1])
        rows, cols = rows[~drop], cols[~drop]
    return np.flatnonzero(in_row), np.flatnonzero(in_col), peeled


def entry_rank(F, rows, cols, digits, shape):
    """Rank of the (r, c) matrix whose nonzero entries are the digit vectors
    digits (n, k) at (rows, cols): its structural pivots peeled off
    (`_peel`), then the pivot count of one forward elimination pass on the
    rows and columns left, gathered dense only when some are left.  A
    matrix that peels fully costs no elimination and no dense array."""
    left_rows, left_cols, peeled = _peel(rows, cols, shape)
    if not left_rows.size or not left_cols.size:
        return peeled
    at_row, at_col = np.full(shape[0], -1), np.full(shape[1], -1)
    at_row[left_rows] = np.arange(left_rows.size)
    at_col[left_cols] = np.arange(left_cols.size)
    i, j = at_row[rows], at_col[cols]
    live = (i >= 0) & (j >= 0)
    core = np.zeros((1, left_rows.size, left_cols.size, F.k), dtype=np.int64)
    core[0, i[live], j[live]] = digits[live]
    return peeled + _forward(F, core)[1].shape[1]


def _back_substitute(F, e, cols):
    """Reduced forms of the batch e (b, n, c, k) of row echelon forms, in
    place: row t of item i has its pivot at cols[i, t], or is zero where
    cols[i, t] is -1.  Every pivot is scaled to one by one `inv_array`
    call, then cleared from the rows above it, one pivot index at a time,
    the last first."""
    items = np.arange(len(e))[:, None]
    piv = e[items, np.arange(cols.shape[1]), cols]
    piv[cols < 0, 0] = 1     # the zero rows are scaled by one
    e[:] = digit_product(F, e, F.inv_array(piv)[:, :, None], np.multiply)
    items = items[:, 0]
    for t in range(cols.shape[1] - 1, 0, -1):
        col = cols[:, t]
        ii, above = np.nonzero(nonzero_digits(e[items, :t, col])
                               & (col >= 0)[:, None])
        if ii.size:
            pc = col[ii]
            c0 = int(pc.min())
            sub = e[ii, above, c0:] - digit_product(
                F, e[ii, above, pc][:, None], e[ii, t, c0:], np.multiply)
            e[ii, above, c0:] = sub % F.p
    return e


def batch_rref(F, a):
    """Reduced row echelon forms of the batch a (b, r, c, k) of digit
    arrays, in place; returns (a, pivots) with pivots a (b, c) boolean
    array marking each item's pivot columns.

    One `_forward` pass and one `_back_substitute` serve the whole batch,
    and a single matrix is a batch of one.  Zero rows, such as rows padded
    in to give the items one shape, never hold a pivot and do not change
    the result."""
    rows, cols = _forward(F, a)
    b, n = cols.shape
    e = a[np.arange(b)[:, None], rows]
    e[cols < 0] = 0
    a[:, :n] = _back_substitute(F, e, cols)
    a[:, n:] = 0
    pivots = np.zeros((b, a.shape[2] + 1), dtype=bool)
    pivots[np.arange(b)[:, None], cols] = True   # -1 lands in the spare column
    return a, pivots[:, :-1]


def kernel_from_rref(F, R, pivots):
    """Kernel bases of a batch from its reduced forms R (b, r, c, k) and
    pivot columns (b, c), in one pass: per free column j of an item, 1 at j
    and minus R's column j at the pivots; returns the item, the free column
    and the (n, c, k) vectors, by item, each item's in column order."""
    b, r, c, k = R.shape
    item, free = np.nonzero(~pivots)
    # the column of each item's pivot row t, c (a spare column) past its rank
    at = np.full((b, r), c, dtype=np.int64)
    pi, pc = np.nonzero(pivots)
    at[pi, np.cumsum(pivots, axis=1)[pi, pc] - 1] = pc
    out = np.zeros((len(item), c + 1, k), dtype=np.int64)
    out[np.arange(len(item))[:, None], at[item]] = -R[item, :, free] % F.p
    out[np.arange(len(item)), free, 0] = 1
    return item, free, out[:, :c]


class Mat:
    __slots__ = ("F", "a")

    def __init__(self, F, digit_array):
        self.F = F
        self.a = np.asarray(digit_array, dtype=np.int64)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_codes(cls, F, rows):
        arr = np.asarray(rows, dtype=np.int64)
        if arr.ndim != 2:
            arr = arr.reshape(arr.shape[0], -1)
        return cls(F, F.codes_to_array(arr))

    @classmethod
    def zeros(cls, F, r, c):
        return cls(F, np.zeros((r, c, F.k), dtype=np.int64))

    @classmethod
    def identity(cls, F, n):
        a = np.zeros((n, n, F.k), dtype=np.int64)
        a[np.arange(n), np.arange(n), 0] = 1
        return cls(F, a)

    def copy(self):
        return Mat(self.F, self.a.copy())

    # -- shape / access ------------------------------------------------------

    @property
    def shape(self):
        return self.a.shape[:2]

    def entry(self, i, j):
        return int(self.F.array_to_codes(self.a[i, j]))

    def to_codes(self):
        return self.F.array_to_codes(self.a)

    def is_zero(self):
        return not self.a.any()

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.F == other.F
                and self.shape == other.shape and np.array_equal(self.a, other.a))

    def __hash__(self):
        return hash((self.F, self.a.tobytes(), self.shape))

    def __repr__(self):
        return "Mat(%dx%d over F_%d)\n%s" % (*self.shape, self.F.q, self.to_codes())

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        return Mat(self.F, (self.a + other.a) % self.F.p)

    def __sub__(self, other):
        return Mat(self.F, (self.a - other.a) % self.F.p)

    def __neg__(self):
        return Mat(self.F, (-self.a) % self.F.p)

    def __matmul__(self, other):
        return Mat(self.F, digit_product(self.F, self.a, other.a, np.matmul))

    def scale(self, code):
        digits = np.array(self.F.to_digits(code))
        return Mat(self.F, digit_product(self.F, self.a, digits, np.multiply))

    @property
    def T(self):
        return Mat(self.F, self.a.swapaxes(0, 1))

    def trace(self):
        n = min(self.shape)
        t = self.a[np.arange(n), np.arange(n)].sum(axis=0) % self.F.p
        return int(self.F.array_to_codes(t))

    def matvec(self, v):
        """v: (c, k) digit array -> (r, k) digit array"""
        return (self @ Mat(self.F, v[:, None, :])).a[:, 0]

    def pow_int(self, e):
        e = int(e)
        if e < 0:
            raise ValueError("matrix power needs an exponent >= 0, got %d" % e)
        n = self.shape[0]
        result = Mat.identity(self.F, n)
        base = self
        while e:
            if e & 1:
                result = result @ base
            base = base @ base
            e >>= 1
        return result

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (R, pivot_columns)."""
        R, pivots = batch_rref(self.F, self.a[None].copy())
        return Mat(self.F, R[0]), np.flatnonzero(pivots[0]).tolist()

    def rank(self):
        """`entry_rank` on the nonzero entries of the matrix."""
        rows, cols = np.nonzero(nonzero_digits(self.a))
        return entry_rank(self.F, rows, cols, self.a[rows, cols], self.shape)

    def nullspace(self):
        """Columns of the returned matrix form a kernel basis (c x nullity)."""
        R, pivots = self.rref()
        on = np.isin(np.arange(self.shape[1]), pivots)[None]
        vecs = kernel_from_rref(self.F, R.a[None], on)[2]
        return Mat(self.F, vecs.swapaxes(0, 1))

    def solve(self, b):
        """One solution x of self @ x = b (b a Mat with matching rows), or None."""
        F = self.F
        c = self.shape[1]
        aug = Mat(F, np.concatenate([self.a, b.a], axis=1))
        R, pivots = aug.rref()
        if pivots and pivots[-1] >= c:
            return None  # inconsistent
        x = np.zeros((c, b.shape[1], F.k), dtype=np.int64)
        x[pivots] = R.a[:len(pivots), c:]
        return Mat(F, x)

    def inv(self):
        n = self.shape[0]
        x = self.solve(Mat.identity(self.F, n))
        if x is None or (self @ x).a.tobytes() != Mat.identity(self.F, n).a.tobytes():
            raise ZeroDivisionError("matrix is singular")
        return x

    # -- characteristic polynomial (Berkowitz, division free) ----------------

    def charpoly(self):
        """Little-endian code coefficients of det(tI - A), monic of degree n.

        Berkowitz's recursion on digit arrays: step i multiplies the
        coefficient vector (leading coefficient first) by the lower
        triangular Toeplitz matrix with first column (1, -a, -R C, -R M C,
        ..., -R M^(i-1) C), where a is the pivot A[i, i], R the row left of
        it, C the column above it and M the leading i x i block."""
        F, a = self.F, self.a
        n = self.shape[0]
        vec = np.zeros((1, 1, F.k), dtype=np.int64)
        vec[0, 0, 0] = 1
        for i in range(n):
            krylov = [a[:i, i:i + 1]]
            for _ in range(i - 1):
                krylov.append(digit_product(F, a[:i, :i], krylov[-1],
                                            np.matmul))
            col = np.zeros((i + 2, F.k), dtype=np.int64)
            col[0, 0] = 1
            col[1] = -a[i, i]
            if i:
                col[2:] = -digit_product(F, a[i:i + 1, :i],
                                         np.concatenate(krylov, axis=1),
                                         np.matmul)[0]
            lag = np.arange(i + 2)[:, None] - np.arange(i + 1)
            toeplitz = np.where((lag >= 0)[..., None],
                                col[np.maximum(lag, 0)] % F.p, 0)
            vec = digit_product(F, toeplitz, vec, np.matmul)
        return [int(c) for c in F.array_to_codes(vec[::-1, 0])]


class Echelon:
    """Incremental row space in reduced echelon form (for spin-up closures).

    The basis is one (rank, width, k) digit array R with unit pivots, R[t]
    having its pivot at column pivots[t], in insertion order."""

    def __init__(self, F, width):
        self.F = F
        self.width = width
        self.R = np.zeros((0, width, F.k), dtype=np.int64)
        self.pivots = []

    def reduce(self, B):
        """A vector (width, k) or a block of rows (m, width, k) minus its
        components along the basis: B - B[..., pivots] @ R."""
        F = self.F
        B = np.asarray(B) % F.p
        if not self.pivots:
            return B
        return (B - digit_product(F, B[..., self.pivots, :], self.R, np.matmul)) % F.p

    def insert(self, B):
        """Add the rows of the block B (a single vector is a block of one)
        that are independent of the basis and of the rows of B before them;
        returns the indices of the accepted rows."""
        B = np.asarray(B)
        if B.ndim == 2:
            B = B[None]
        a = self.reduce(B)[None]
        rows, cols = _forward(self.F, a)
        if not rows.size:
            return []
        order = np.argsort(rows[0])
        new = _back_substitute(self.F, a[:, rows[0]], cols)[0, order]
        rows, cols = rows[0, order].tolist(), cols[0, order].tolist()
        R = np.concatenate([self.R, new])
        hit = np.flatnonzero(nonzero_digits(self.R[:, cols]).any(axis=1))
        if hit.size:
            R[hit] = (R[hit] - digit_product(self.F, R[hit[:, None], cols], new,
                                             np.matmul)) % self.F.p
        self.R = R
        self.pivots += cols
        return rows

    @property
    def dim(self):
        return len(self.pivots)

    def contains(self, v):
        return not self.reduce(v).any()

    def basis(self):
        return list(self.R[np.argsort(self.pivots)])
