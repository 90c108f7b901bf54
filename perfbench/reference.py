"""A fixed reference workload that times the host, not colorlie.

The host this benchmark runs on is shared, and its speed drifts by a third
over minutes, for every kind of work at once.  `reference_times()` times the
same small mix every time: lookups in a dictionary larger than the CPU
caches, as colorlie's rewriting memo does; many numpy calls on small digit
vectors, as its spin-up does; and modular int64 elimination steps on a
matrix of a few megabytes, as its dense `rref` does.  run.py
times it in a fresh interpreter before the first pass and after each pass,
and divides the median pass time by the median of these timings: the pass
time in units of the reference, which follows the program and not the
host's drift.  Nothing here imports colorlie, so no change to the program
moves the reference.
"""

import random
import time

import numpy as np

P = 5
_TABLE = {}


def _table():
    """A dictionary a few times larger than the CPU caches, and its keys in
    random order, built once per process and not timed."""
    if not _TABLE:
        rng = random.Random(0)
        keys = [(i % 211, i // 211, i % 7) for i in range(200000)]
        _TABLE["map"] = {k: n % P for n, k in enumerate(keys)}
        rng.shuffle(keys)
        _TABLE["keys"] = keys[:80000]
    return _TABLE["map"], _TABLE["keys"]


def _python_part():
    table, keys = _table()
    acc = 0
    for k in keys:
        acc = (acc * 3 + table[k]) % 1000003
    return acc


def _vector_part(n, steps):
    """Many small-vector steps on (n, 2) digit arrays, as Echelon.insert
    makes on k = 2 digits: each a handful of numpy calls on a few hundred
    entries, so interpreter and call overhead dominate."""
    digit = np.array([[1, 2], [3, 1]], dtype=np.int64)
    v = (np.arange(2 * n, dtype=np.int64).reshape(n, 2) * 7919) % P
    acc = 0
    for _ in range(steps):
        nz = np.nonzero(v.any(axis=-1))[0]
        acc += int(nz[0])
        v = (v + (v @ digit)) % P
        v[acc % n] += 1
    return acc


def _matrix_part(n, steps):
    a = (np.arange(n * n, dtype=np.int64).reshape(n, n) * 7919) % P
    for col in range(steps):
        factors = a[:, col].copy()
        factors[col] = 0
        a = (a - np.multiply.outer(factors, a[col])) % P
    return int(a.sum())


def reference_times(repeats):
    """Seconds for each of `repeats` runs of one fixed mix."""
    _table()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _python_part()
        _vector_part(125, 4000)
        _matrix_part(900, 6)
        times.append(time.perf_counter() - t0)
    return times
