"""Dense exact linear algebra over F_{p^k}.

Matrices hold their entries as numpy digit arrays of shape (rows, cols, k),
one base-p digit vector per entry.  Every product of such arrays goes
through `field.digit_product`.  Reductions of one matrix run through one
forward elimination pass, `_forward`, which clears only the rows below
each pivot.  `Mat.rank` first peels the structural pivots (`_peel`: rows
and columns with a single nonzero entry, which need no arithmetic) and
counts the pivots of `_forward` on the rows and columns left; `Mat.rref`
(with it kernel, solve and inverse) and the incremental `Echelon` follow
`_forward` with `_back_substitute`.  A batch of many small independent matrices is reduced
by `batch_rref`, one column step for all of them at once.  Kernels are
read off either reduced form by `kernel_from_rref`.  Everything is
deterministic: the pivot is always the first nonzero entry.
"""

import numpy as np

from .field import digit_product, nonzero_digits


def _leading(nz):
    """Column of the first True entry of each row of the (m, w) boolean
    array nz, w for a row without one."""
    return np.where(nz.any(axis=1), nz.argmax(axis=1), nz.shape[1])


def _forward(F, a):
    """Forward elimination in place on the (r, c, k) digit array a; returns
    the pivot rows and their columns, both in column order.

    The next pivot column is the first column in which a row without a
    pivot is nonzero, and its pivot row is the first such row.  Only the
    rows after it are cleared: every other row without a pivot is already
    zero in the column.  Each row's leading column is kept, so a column
    where no such row is nonzero costs nothing.  Rows are not moved and
    pivots are not scaled, so a[rows] is a row echelon form, every row
    without a pivot ends zero, and a row holds a pivot exactly when it is
    independent of the rows above it."""
    r, c, _ = a.shape
    rows, cols = [], []
    if not r or not c:
        return rows, cols
    lead = _leading(nonzero_digits(a))
    while True:
        col = int(lead.min())
        if col == c:
            return rows, cols
        hit = np.flatnonzero(lead == col)
        top, below = int(hit[0]), hit[1:]
        if below.size:
            inv = F.inv_array(a[top, col])
            factor = digit_product(F, a[below, col], inv, np.multiply)
            sub = (a[below, col:] - digit_product(F, factor, a[top, col:],
                                                  np.multiply.outer)) % F.p
            a[below, col:] = sub
            lead[below] = col + _leading(nonzero_digits(sub))
        lead[top] = c
        rows.append(top)
        cols.append(col)


def _peel(nz):
    """Structural pivots of a matrix with the (r, c) nonzero pattern nz
    (C. Bouillaguet and C. Delaplace, "Sparse Gaussian elimination modulo
    p: an update", CASC 2016); returns the rows and columns left and the
    number of pivots peeled.

    A column whose one nonzero entry among the live rows sits in row i is a
    pivot that needs no arithmetic: column operations with it clear row i
    elsewhere and touch no other row, so the rank is one more than the
    rank without row i and the column.  The same holds for a row with one
    nonzero entry among the live columns.  Each round takes every such
    column, or every such row when no column is left, one pivot per row
    and per column, and drops the pivots' rows and columns.  Rows and
    columns that end with no nonzero entry are dropped as well."""
    nz = nz.copy()  # pivot rows and columns are cleared as they go
    in_col, in_row = nz.sum(axis=0), nz.sum(axis=1)
    peeled = 0
    while True:
        cols = np.flatnonzero(in_col == 1)
        if cols.size:
            rows = nz[:, cols].argmax(axis=0)
            other, size = rows, nz.shape[0]
        else:
            rows = np.flatnonzero(in_row == 1)
            if not rows.size:
                break
            cols = nz[rows].argmax(axis=1)
            other, size = cols, nz.shape[1]
        if other.size > 1:
            # several single columns may meet in one row (single rows in
            # one column): the last one written to the row keeps it
            owner = np.empty(size, dtype=np.int64)
            owner[other] = np.arange(other.size)
            keep = owner[other] == np.arange(other.size)
            rows, cols = rows[keep], cols[keep]
        peeled += rows.size
        in_col -= nz[rows].sum(axis=0)
        nz[rows] = False
        in_row -= nz[:, cols].sum(axis=1)
        nz[:, cols] = False
        in_row[rows] = in_col[cols] = 0
    return np.flatnonzero(in_row), np.flatnonzero(in_col), peeled


def _back_substitute(F, e, cols):
    """Reduced form of the row echelon form e, in place: row t has its
    pivot at cols[t]; every pivot is scaled to one and cleared from the
    rows above it, last pivot first."""
    n = len(cols)
    if n:
        e[:] = digit_product(F, e, F.inv_array(e[np.arange(n), cols])[:, None],
                             np.multiply)
    for t in range(n - 1, 0, -1):
        col = cols[t]
        above = np.flatnonzero(nonzero_digits(e[:t, col]))
        if above.size:
            sub = e[above, col:] - digit_product(F, e[above, col], e[t, col:],
                                                 np.multiply.outer)
            e[above, col:] = sub % F.p
    return e


def batch_rref(F, a):
    """Reduced row echelon forms of a batch of matrices, in place on the
    (b, r, c, k) digit array a; returns (a, pivots) with pivots a (b, c)
    boolean array marking each item's pivot columns.

    One column loop serves the whole batch: at each column every item finds
    its own pivot row (the first nonzero entry at or below its next pivot
    row), and the swaps, scalings and clears of all items run as single
    fancy-indexed `digit_product` calls.  The clear touches only the rows
    that are nonzero in the column in some item.  Zero rows, such as rows
    padded in to give the items one shape, never hold a pivot and do not
    change the result.

    This serves many tiny independent systems, where the cost of Mat.rref
    is per-call overhead, not arithmetic."""
    b, r, c, _ = a.shape
    row = np.zeros(b, dtype=np.int64)     # next pivot row of each item
    pivots = np.zeros((b, c), dtype=bool)
    index = np.arange(r)
    for col in range(c):
        nz = nonzero_digits(a[:, :, col]) & (index >= row[:, None])
        items = np.flatnonzero(nz.any(axis=1))
        if not items.size:
            continue
        top = row[items]
        piv = nz[items].argmax(axis=1)
        swapped = a[items, piv]
        a[items, piv] = a[items, top]
        a[items, top] = swapped
        inv = F.inv_array(a[items, top, col])
        prow = digit_product(F, a[items, top, col:], inv[:, None], np.multiply)
        a[items, top, col:] = prow
        factor = a[items, :, col]
        factor[np.arange(items.size), top] = 0
        ii, hit = items[:, None], np.flatnonzero(factor.any(axis=(0, 2)))
        sub = a[ii, hit, col:] - digit_product(F, factor[:, hit, None],
                                               prow[:, None], np.multiply)
        a[ii, hit, col:] = sub % F.p
        pivots[items, col] = True
        row[items] += 1
    return a, pivots


def kernel_from_rref(F, R, pivots):
    """Kernel basis of a matrix from its reduced form R (r, c, k) and its
    pivot columns: one (c, k) column per free column j, with 1 at j and
    minus R's column j at the pivots; returns a (c, nullity, k) array."""
    c = R.shape[1]
    pivots = [int(j) for j in pivots]
    taken = set(pivots)
    free = [j for j in range(c) if j not in taken]
    out = np.zeros((c, len(free), F.k), dtype=np.int64)
    out[free, np.arange(len(free)), 0] = 1
    out[pivots] = (-R[:len(pivots), free]) % F.p
    return out


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
        a = self.a.copy()
        rows, pivots = _forward(self.F, a)
        R = np.zeros_like(a)
        R[:len(rows)] = _back_substitute(self.F, a[rows], pivots)
        return Mat(self.F, R), pivots

    def rank(self):
        """Structural pivots peeled off, then the pivot count of one forward
        elimination pass on a copy of the rows and columns left (`_peel`):
        a matrix that peels fully costs no elimination."""
        rows, cols, peeled = _peel(nonzero_digits(self.a))
        if not rows.size or not cols.size:
            return peeled
        return peeled + len(_forward(self.F, self.a[np.ix_(rows, cols)])[0])

    def nullspace(self):
        """Columns of the returned matrix form a kernel basis (c x nullity)."""
        R, pivots = self.rref()
        return Mat(self.F, kernel_from_rref(self.F, R.a, pivots))

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
        a = self.reduce(B)
        rows, cols = _forward(self.F, a)
        if not rows:
            return []
        order = np.argsort(rows)
        new = _back_substitute(self.F, a[rows], cols)[order]
        cols = [cols[t] for t in order]
        R = np.concatenate([self.R, new])
        hit = np.flatnonzero(nonzero_digits(self.R[:, cols]).any(axis=1))
        if hit.size:
            R[hit] = (R[hit] - digit_product(self.F, R[hit[:, None], cols], new,
                                             np.matmul)) % self.F.p
        self.R = R
        self.pivots += cols
        return sorted(rows)

    @property
    def dim(self):
        return len(self.pivots)

    def contains(self, v):
        return not self.reduce(v).any()

    def basis(self):
        return list(self.R[np.argsort(self.pivots)])
