"""Dense exact linear algebra over F_{p^k}.

Matrices hold their entries as numpy digit arrays of shape (rows, cols, k),
one base-p digit vector per entry.  Every product of such arrays goes
through `field.digit_product`.  Reductions of one matrix (rref, rank,
kernel, solve, inverse and the incremental `Echelon`) run through the one
Gaussian elimination step `_eliminate`; a batch of many small independent
matrices is reduced by `batch_rref`, one column step for all of them at
once.  Kernels are read off either reduced form by `kernel_from_rref`.
Everything is deterministic: the pivot is always the first nonzero entry.
"""

import numpy as np

from .field import digit_product, nonzero_digits


def _eliminate(F, a, row, col):
    """One Gauss-Jordan step in place on the (r, c, k) digit array a: scale
    row to a unit pivot at col, then clear col in every other row.  Entries
    of row left of col must be zero."""
    inv = F.to_digits(F.inv(int(F.array_to_codes(a[row, col]))))
    a[row, col:] = digit_product(F, a[row, col:], np.array(inv), np.multiply)
    rows = np.flatnonzero(nonzero_digits(a[:, col]))
    rows = rows[rows != row]
    if rows.size:
        sub = a[rows, col:]
        sub -= digit_product(F, a[rows, col], a[row, col:], np.multiply.outer)
        sub %= F.p
        a[rows, col:] = sub


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
    is per-call overhead, not arithmetic.  Mat.rref keeps its own driver
    for one large matrix: sent through this one as batches of one, the
    reductions of three Frobenius Gram matrices (two 625 x 625, one
    100 x 100) took 0.32 s instead of 0.24 s."""
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
        r, c, _ = a.shape
        pivots = []
        row = 0
        for col in range(c):
            if row >= r:
                break
            nz = np.flatnonzero(nonzero_digits(a[row:, col]))
            if nz.size == 0:
                continue
            piv = row + int(nz[0])
            if piv != row:
                a[[row, piv]] = a[[piv, row]]
            _eliminate(self.F, a, row, col)
            pivots.append(col)
            row += 1
        return Mat(self.F, a), pivots

    def rank(self):
        return len(self.rref()[1])

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
        n = len(self.pivots)
        a = np.concatenate([self.R, self.reduce(B)])
        taken = []
        for t in range(len(B)):
            nz = np.flatnonzero(nonzero_digits(a[n + t]))
            if nz.size:
                _eliminate(self.F, a, n + t, int(nz[0]))
                taken.append(t)
                self.pivots.append(int(nz[0]))
        self.R = a[list(range(n)) + [n + t for t in taken]]
        return taken

    @property
    def dim(self):
        return len(self.pivots)

    def contains(self, v):
        return not self.reduce(v).any()

    def basis(self):
        return list(self.R[np.argsort(self.pivots)])
