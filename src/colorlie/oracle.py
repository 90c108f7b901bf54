"""The brute-force simplicity oracle: singular vectors, and the submodule
each singular line generates, grown from its ordered lowering words.

The oracle reads a module through weight-space blocks and through nothing
else: the basis splits into the recorded weight spaces, and each letter
maps a space into one other space, so it is kept as one small block per
space.  `_layout` lays out the spaces, buckets and letter cells of a
grading once, and raises InvariantError for a letter that maps one space
into two; `_fill` scatters the cell digits of many modules on one layout
into their blocks at once.  A sweep makes one layout per triple and fills
each chunk of rows on it; `_gather` is the one-module case, on a module's
own gradings and cells.  The words and the closure passes after them grow
on the blocks, in one loop (`_word_span_ranks`).  Every
reduction is one call of `linalg.batch_rref`, the one elimination kernel,
on a batch of small systems.  `_judge` gives the verdicts of many modules
in one batched pass; `is_simple` is its one-module case, and
`repmod.sweep_rows` judges its rows in batches through it.
"""

import itertools
import random

import numpy as np

from .errors import ChiOnNplus, InvariantError, MixedSpecs, NoMatrixRealization
from .field import _SLAB, _require_cells, digit_product, nonzero_digits
from .linalg import batch_rref, kernel_from_rref


def _group_rows(K):
    """Group number of each row of the (n, m) int array K, groups numbered
    in sorted row order, and the first row of each group."""
    order = np.lexsort(K.T[::-1])
    ks = K[order]
    new = np.ones(len(K), dtype=bool)
    new[1:] = (ks[1:] != ks[:-1]).any(axis=1)
    group = np.empty(len(K), dtype=np.int64)
    group[order] = np.cumsum(new) - 1
    return group, order[new]


class _Blocks:
    """What the simplicity oracle reads of one module, filled by `_fill` on
    a layout (`_layout`): the module's own for `_gather`, or the one that
    every row of a sweep shares per triple.

    The basis falls into the recorded weight spaces, numbered in sorted
    weight order: idx (S, D) lists each space's basis indices, padded with
    -1 to the largest size D.  The singular buckets (weight, color degree,
    height) are numbered in sorted order: bucket (S, D) holds the bucket of
    each basis vector in the same places, and bfirst the first basis
    vector of each bucket.  weights lists each space's weight.  raising
    holds, per height-one raising letter, its (S, D, D, k) blocks from
    each space to the one it maps into; lowering holds the same per
    lowering letter, in the order the words apply them (the last positive
    root first), with that target space (-1 where the letter's block is
    zero) and the letter's cap.  every() cuts the same triples for every
    letter with a nonzero cell, each with cap 2, for the closure passes,
    anew on each call.  cells counts the digit cells of the raising and
    lowering blocks."""


def _layout(A, key, degrees, heights, letter, row, col):
    """The weight-space layout of a basis graded by the rows of key (a
    weight, or a Cartan shift that a line base's weight moves alike),
    degrees and heights, for the cells (letter, row, column) that may be
    nonzero: spaces numbered in sorted key order (idx, first), buckets in
    sorted (space, degree, height) order (bucket, bfirst, bspace), and per
    letter its cells with their source and target spaces and local row and
    column (pick).  Any letter whose cells from one space land in two
    raises InvariantError."""
    n = len(key)
    space, first = _group_rows(key)
    S = len(first)
    sizes = np.bincount(space, minlength=S)
    D = int(sizes.max()) if S else 1
    order = np.argsort(space, kind="stable")
    local = np.empty(n, dtype=np.int64)
    local[order] = np.arange(n) - (np.cumsum(sizes) - sizes)[space[order]]
    idx = np.full((S, D), -1, dtype=np.int64)
    idx[space, local] = np.arange(n)
    bucket, bfirst = _group_rows(np.column_stack([space, degrees, heights]))
    bidx = np.full((S, D), -1, dtype=np.int64)
    bidx[space, local] = bucket
    source, dest = space[col], space[row]
    # every cell of a letter from one space must land in the same space
    target = np.full((A.dim, S), -1, dtype=np.int64)
    target[letter, source] = dest
    two = letter[target[letter, source] != dest]
    if len(two):
        raise InvariantError("letter %s maps one weight space into two "
                             "recorded weight spaces" % A.names[two.min()])
    by = np.argsort(letter, kind="stable")
    cut = np.searchsorted(letter[by], np.arange(A.dim + 1))
    tri = A.triangular
    letters = sum(tri.heights[t] == 1 for t in tri.pos) + len(tri.pos)
    return {"dim": n, "D": D, "idx": idx, "first": first, "bucket": bidx,
            "bfirst": bfirst, "bspace": space[bfirst], "letter": letter,
            "pick": [np.stack([c, source[c], dest[c], local[row[c]],
                               local[col[c]]])
                     for c in (by[cut[i]:cut[i + 1]] for i in range(A.dim))],
            "cells": letters * S * D * D * A.F.k}


def _fill(spec, layout, weights, values):
    """The `_Blocks` of nb modules on one layout, from weights (nb, S, c),
    the codes of each layout space's weight in each module, and values
    (nb, cells, k), the digits of the layout's cells in each module.

    Each module's spaces are renumbered into its own sorted weight order
    by one lexsort over all modules, and its buckets follow its spaces.
    The raising and lowering letters of all modules are scattered in one
    assignment; a module's targets are -1 where its block is zero, and its
    every() cuts the letters with a nonzero cell in it.  Each assignment
    checks its blocks against the cell budget first."""
    A = spec.algebra
    F, tri = A.F, A.triangular
    nb, S, h = weights.shape
    D, B = layout["D"], len(layout["bfirst"])
    mods = np.arange(nb)[:, None]
    order = np.lexsort(np.column_stack([
        np.repeat(np.arange(nb), S), weights.reshape(nb * S, h)]).T[::-1])
    order = order.reshape(nb, S) - mods * S
    rank = np.empty_like(order)
    rank[mods, order] = np.arange(S)
    border = np.argsort(rank[:, layout["bspace"]] * B + np.arange(B), axis=1)
    renum = np.full((nb, B + 1), -1, dtype=np.int64)
    renum[mods, border] = np.arange(B)
    bucket = renum[mods[:, :, None], layout["bucket"][order]]
    live = nonzero_digits(values)

    def blocks(letters, sel):
        # the blocks (letters, modules, S, D, D, k) and targets (letters,
        # modules, S) of letters in the modules sel, in one assignment
        picks = [layout["pick"][i] for i in letters]
        _require_cells(len(picks) * len(sel) * S * D * D * F.k,
                       "weight-space blocks")
        slot = np.repeat(np.arange(len(picks)), [p.shape[1] for p in picks])
        c, source, dest, r, col = np.concatenate(
            [np.zeros((5, 0), dtype=np.int64)] + picks, axis=1)
        at, m = sel[:, None], np.arange(len(sel))[:, None]
        out = np.zeros((len(picks), len(sel), S, D, D, F.k), dtype=np.int64)
        out[slot, m, rank[at, source], r, col] = values[at, c]
        target = np.full((len(picks), len(sel), S), -1, dtype=np.int64)
        m, j = np.nonzero(live[at, c])
        target[slot[j], m, rank[sel[m], source[j]]] = rank[sel[m], dest[j]]
        return out, target

    up = [t for t in tri.pos if tri.heights[t] == 1]
    down = [tri.pairs[t][1] for t in reversed(tri.pos)]
    out, target = blocks(up + down, np.arange(nb))
    idx, bfirst = layout["idx"][order], layout["bfirst"][border]
    codes = weights[mods, order].tolist()
    gathered = []
    for m in range(nb):
        g = _Blocks()
        g.F, g.spec, g.dim, g.D = F, spec, layout["dim"], D
        g.idx, g.bucket, g.bfirst = idx[m], bucket[m], bfirst[m]
        g.weights = list(map(tuple, codes[m]))
        # copies, so that a row keeps only its own blocks alive, not its
        # chunk's, while it waits to be judged
        g.raising = [blk.copy() for blk in out[:len(up), m]]
        g.lowering = [(out[n, m].copy(), target[n, m], spec.caps[f])
                      for n, f in enumerate(down, len(up))]
        g.cells = layout["cells"]
        g.every = lambda m=m: [
            (blk[0], tgt[0], 2) for blk, tgt in zip(*blocks(np.flatnonzero(
                np.bincount(layout["letter"][live[m]], minlength=A.dim)),
                np.array([m])))]
        gathered.append(g)
    return gathered


def _gather(M):
    """The weight-space blocks of M (see _Blocks): the one-module case of
    `_layout` and `_fill`, on M's own gradings and on the nonzero cells
    that verma_build keeps on M (M.cells), or else those of its dense
    letters."""
    A = M.spec.algebra
    if A.triangular is None:
        raise NoMatrixRealization("algebra carries no triangular "
                                  "decomposition")
    cells = M.cells
    if cells is None:
        arr = np.stack([M.action[i].a for i in range(A.dim)])
        cells = np.nonzero(nonzero_digits(arr))
        cells += (arr[cells],)
    letter, row, col, digits = cells
    weights = np.array(M.weights, dtype=np.int64).reshape(
        M.dim, len(A.triangular.cartan))
    layout = _layout(A, weights, np.array(M.degrees, dtype=np.int64).reshape(
        M.dim, A.group.rank), np.array(M.heights, dtype=np.int64), letter,
        row, col)
    return _fill(M.spec, layout, weights[layout["first"]][None],
                 digits[None])[0]


def _singular(gathered):
    """Singular vectors of every gathered module: per module a list of
    (bucket, weight space, (n, D, k) vectors on the space's coordinates)
    in bucket order.

    Each weight space's system is the stack of the blocks of the raising
    letters from it, and the systems of all spaces of all modules are the
    items of one `batch_rref`: each takes its own pivots and clears only
    its own rows.  The raising letters keep the buckets of one space apart
    (a letter shifts color degree and height by its own), so the system is
    block diagonal up to the order of its columns: no elimination step
    mixes two buckets, and every kernel vector read off the reduced form
    lies in the bucket of its free column and equals the one of that
    bucket's own system.  A row that meets two buckets raises
    InvariantError."""
    F = gathered[0].F
    D = max(g.D for g in gathered)
    R = max(len(g.raising) for g in gathered)
    rows, labels, owner = [], [], []
    for m, g in enumerate(gathered):
        S = len(g.idx)
        stack = np.zeros((S, R, D, D, F.k), dtype=np.int64)
        for x, blk in enumerate(g.raising):
            stack[:, x, :g.D, :g.D] = blk
        rows.append(stack.reshape(S, R * D, D, F.k))
        label = np.full((S, D), -1, dtype=np.int64)
        label[:, :g.D] = g.bucket
        labels.append(label)
        owner += [(m, s) for s in range(S)]
    rows = np.concatenate(rows)
    labels = np.concatenate(labels)
    found = [[] for _ in gathered]
    if not len(rows):
        return found
    live = nonzero_digits(rows)
    high = np.where(live, labels[:, None], -1).max(axis=2)
    if (live & (labels[:, None] != high[..., None])).any():
        raise InvariantError("a raising letter mixes two singular buckets "
                             "of one weight space")
    # each system's nonzero rows first, cut to the longest such run
    live = live.any(axis=2)
    keep = np.argsort(~live, axis=1, kind="stable")[
        :, :int(live.sum(axis=1).max())]
    red, pivots = batch_rref(F, rows[np.arange(len(rows))[:, None], keep])
    width = (labels >= 0).sum(axis=1)
    for j in np.flatnonzero(pivots.sum(axis=1) < width):
        m, s = owner[j]
        c = width[j]
        K = kernel_from_rref(F, red[j, :, :c], np.flatnonzero(pivots[j]))
        free = np.flatnonzero(~pivots[j, :c])
        vecs = np.zeros((K.shape[1], D, F.k), dtype=np.int64)
        vecs[:, :c] = K.swapaxes(0, 1)
        for b in sorted(set(labels[j, free].tolist())):
            found[m].append((b, s, vecs[labels[j, free] == b]))
    for f in found:
        f.sort(key=lambda item: item[0])
    return found


def singular_vectors(M):
    """Joint kernel of the height-one raising letters, bucketed by the full
    (weight, color degree, height) grading; returns {grading: [vectors]} in
    sorted grading order, with vectors as (dim, k) digit arrays, read off
    the gathered weight-space blocks by `_singular`."""
    F = M.spec.algebra.F
    g = _gather(M)
    out = {}
    for b, s, V in _singular([g])[0]:
        cols = g.idx[s][g.idx[s] >= 0]
        vecs = np.zeros((len(V), M.dim, F.k), dtype=np.int64)
        vecs[:, cols] = V[:, :len(cols)]
        u = int(g.bfirst[b])
        out[(M.weights[u], tuple(M.degrees[u]), M.heights[u])] = list(vecs)
    return out


def _unit_lines(F, d):
    """Coefficient tuples covering every line of an F-space of dimension d,
    first nonzero coordinate pinned to one."""
    for lead in range(d):
        for tail in itertools.product(F.elements(), repeat=d - lead - 1):
            yield (0,) * lead + (1,) + tail


def _lines(F, spaces, max_enumerate, samples, rng):
    """Every nonzero singular line of one module, weight space by weight
    space in sorted order, as (method, space, v on the space's
    coordinates).  spaces lists (space, (d, D, k) singular vectors); a
    space with d at most max_enumerate yields all its lines, any other a
    seeded random sample of combinations, and marks its lines and all
    later ones "randomized".  The combinations are formed in chunks, one
    product each."""
    method = "exhaustive"
    for s, vecs in spaces:
        d = len(vecs)
        if d <= max_enumerate:
            combos = _unit_lines(F, d)
        else:
            method = "randomized"
            combos = ([rng.randrange(F.q) for _ in range(d)]
                      for _ in range(samples))
        while True:
            chunk = list(itertools.islice(combos, 256))
            if not chunk:
                break
            V = digit_product(F, F.codes_to_array(chunk), vecs, np.matmul)
            for v in V[nonzero_digits(V).any(axis=1)]:
                yield method, s, v


def _span(F, W, line, space, n):
    """Rank per line (n of them) of the words W (N, D, k), each tagged with
    its line and weight space, each (line, space) group one item of one
    `batch_rref`, and rows spanning the same groups, with their line and
    space tags."""
    if not len(W):
        empty = np.zeros(0, dtype=np.int64)
        return np.zeros(n, dtype=np.int64), (W, empty, empty)
    group, first = _group_rows(np.column_stack([line, space]))
    counts = np.bincount(group)
    order = np.argsort(group, kind="stable")
    starts = np.cumsum(counts) - counts
    arr = np.zeros((len(first), counts.max()) + W.shape[1:], dtype=np.int64)
    arr[group[order], np.arange(len(W)) - starts[group[order]]] = W[order]
    R, pivots = batch_rref(F, arr)
    ranks = pivots.sum(axis=1)
    gline = line[first]
    rank = np.bincount(gline, weights=ranks, minlength=n).astype(np.int64)
    gg, tt = np.nonzero(np.arange(R.shape[1]) < ranks[:, None])
    return rank, (R[gg, tt], gline[gg], space[first][gg])


def _apply(F, blocks, at, W):
    """blocks[at[i]] @ W[i] for every word W[i] (D, k), in one
    `digit_product` per run of words whose gathered blocks fit in _SLAB
    cells."""
    D = W.shape[1]
    step = max(1, _SLAB // (D * D * F.k))
    out = [digit_product(F, blocks[at[i:i + step]],
                         W[i:i + step, :, None], np.matmul)[:, :, 0]
           for i in range(0, len(W), step)]
    return np.concatenate(out) if out else W


def _word_span_ranks(gathered, lines, D):
    """Dimension of the submodule that each line (module number, space, v)
    generates, grown in passes over the words of all lines together.

    Every word lies in one weight space: it is its D coordinates there plus
    its line and space.  Pass 0 builds the ordered lowering words
    f_1^a_1 ... f_r^a_r . v, each a_i below the cap of f_i, last letter
    first; every later pass applies every letter that has cells (`every`,
    cut once, for the modules of the lines still open) once to the basis
    the pass before left.  Each power of a letter is one product of the
    gathered blocks with the words (`_apply`).  A line about to pass dim
    words is cut to a basis first, and every open line at the end of a
    pass; a line is done when its span is full or, after pass 0, when a
    pass left its rank unchanged: each letter maps a weight space into one
    space, so that span is closed under every letter.  For a singular
    weight vector v it is U(n-) . v, the words' span: one pass confirms it."""
    F = gathered[0].F
    n = len(lines)
    mods = [gathered[m] for m, _s, _v in lines]
    dims = np.array([g.dim for g in mods], dtype=np.int64)

    def table(letters):
        # letter j of line l: blocks from off[l, j], caps[l, j] - 1 powers
        steps = max(len(ls) for ls in letters)
        off = np.zeros((n, steps), dtype=np.int64)
        caps = np.ones((n, steps), dtype=np.int64)
        total = sum(len(g.idx) * len(ls) for g, ls in zip(mods, letters))
        _require_cells(total * D * D * F.k, "the word blocks")
        blocks = np.zeros((total, D, D, F.k), dtype=np.int64)
        targets = np.zeros(total, dtype=np.int64)
        at = 0
        for l, (g, ls) in enumerate(zip(mods, letters)):
            for j, (blk, target, cap) in enumerate(ls):
                blocks[at:at + len(blk), :g.D, :g.D] = blk
                targets[at:at + len(blk)] = target
                off[l, j], caps[l, j] = at, cap
                at += len(blk)
        return blocks, targets, off, caps

    def cut(W, line, space, sel, last):
        # lines sel cut to a basis; done (and dropped) if full or at last
        on = sel[line]
        got, (B, bline, bspace) = _span(F, W[on], line[on], space[on], n)
        done = sel & ((got == dims) | (got == last))
        rank[done] = got[done]
        keep = ~done[bline]
        return (np.concatenate([W[~on], B[keep]]),
                np.concatenate([line[~on], bline[keep]]),
                np.concatenate([space[~on], bspace[keep]]), got)

    W = np.stack([v for _m, _s, v in lines])
    line = np.arange(n)
    space = np.array([s for _m, s, _v in lines], dtype=np.int64)
    rank = np.full(n, -1, dtype=np.int64)
    last = np.full(n, -1, dtype=np.int64)
    blocks, targets, off, caps = table([g.lowering for g in mods])
    every = None
    while True:
        for j in range(off.shape[1]):
            cap = caps[:, j]
            over = (np.bincount(line, minlength=n) * cap > dims) & (rank < 0)
            if over.any():
                W, line, space, _got = cut(W, line, space, over, -1)
            parts = [(W, line, space)]
            for a in range(1, int(cap.max())):
                fW, fline, fspace = parts[-1]
                go = cap[fline] > a
                at = off[fline[go], j] + fspace[go]
                fW = _apply(F, blocks, at, fW[go])
                fline, fspace = fline[go], targets[at]
                live = (fspace >= 0) & nonzero_digits(fW).any(axis=1)
                parts.append((fW[live], fline[live], fspace[live]))
            W, line, space = (np.concatenate(p) for p in zip(*parts))
        W, line, space, last = cut(W, line, space, rank < 0, last)
        if (rank >= 0).all():
            return rank
        if every is None:
            every = {m: gathered[m].every() for m in
                     {lines[l][0] for l in np.flatnonzero(rank < 0)}}
            blocks, targets, off, caps = table(
                [every[m] if r < 0 else []
                 for (m, _s, _v), r in zip(lines, rank)])


def _judge(gathered, max_enumerate=3, samples=40, seed=0):
    """The `is_simple` verdicts of many modules over one field at once, from
    their gathered blocks (`_gather`), in order.

    The singular systems of all modules are reduced together.  The lines
    then run in rounds: round n takes the n-th singular line of every
    module not yet decided, and the submodules of all of them grow
    together, in one `_word_span_ranks` call.  A line whose submodule falls
    short of its module decides "not simple".  Each module keeps its own
    seeded random sample and its own weight order, so every verdict is the
    one the module gets alone."""
    F = gathered[0].F
    for g in gathered:
        if g.F != F:
            raise MixedSpecs("modules judged together must share one field")
        tri = g.spec.algebra.triangular
        for t in tri.pos:
            if g.spec.chi.value(tri.pairs[t][0]):
                raise ChiOnNplus("character must vanish on the raising "
                                 "letters")
    D = max(g.D for g in gathered)
    streams, methods = [], []
    for g, found in zip(gathered, _singular(gathered)):
        if g.dim and not found:
            raise InvariantError("a nonzero module without singular vectors")
        by_space = {}
        for _b, s, V in found:
            by_space.setdefault(s, []).append(V)
        spaces = [(s, np.concatenate(by_space[s])) for s in sorted(by_space)]
        methods.append("randomized" if any(len(vecs) > max_enumerate
                                           for _s, vecs in spaces)
                       else "exhaustive")
        streams.append(_lines(F, spaces, max_enumerate, samples,
                              random.Random(seed)))
    verdicts = [None] * len(gathered)
    lines = [0] * len(gathered)
    undecided = list(range(len(gathered)))
    while undecided:
        batch = []
        for m in undecided:
            nxt = next(streams[m], None)
            if nxt is None:
                verdicts[m] = {"simple": True, "method": methods[m],
                               "lines": lines[m], "weight": None,
                               "witness": None}
            else:
                lines[m] += 1
                batch.append((m,) + nxt)
        ranks = _word_span_ranks(
            gathered, [(m, s, v) for m, _method, s, v in batch], D
        ) if batch else []
        for (m, method, s, v), rank in zip(batch, ranks):
            g = gathered[m]
            if rank == g.dim:
                continue
            cols = g.idx[s][g.idx[s] >= 0]
            full = np.zeros((g.dim, F.k), dtype=np.int64)
            full[cols] = v[:len(cols)]
            verdicts[m] = {
                "simple": False, "method": method, "lines": lines[m],
                "weight": [int(c) for c in g.weights[s]],
                "witness": [int(c) for c in F.array_to_codes(full)]}
        undecided = [m for m in undecided if verdicts[m] is None]
    return verdicts


def is_simple(M, max_enumerate=3, samples=40, seed=0):
    """Brute-force simplicity verdict: every singular line (grouped per
    Cartan weight) must generate the whole module.  Exhaustive when each
    weight's singular space has dimension at most max_enumerate, otherwise
    a seeded random sample of lines, flagged in the verdict.

    Each line v grows the submodule it generates (`_word_span_ranks`): the
    span of its ordered lowering words first, and every word lies in that
    submodule, so a full span proves that v generates the module.  Only a
    line whose word span falls short goes on to the passes of every letter
    over the word basis, on the same weight-space blocks, and the closed
    span alone decides "not simple".
    A nonzero module without a singular vector raises InvariantError: n+
    acts nilpotently, so the singular space cannot be empty.  This is the
    one-module case of `_judge`, which judges many modules in one batched
    pass."""
    return _judge([_gather(M)], max_enumerate, samples, seed)[0]
