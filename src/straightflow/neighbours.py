"""Nearest neighbours and ball counts among sample rows, numpy only.

:func:`nearest_and_count` gives, for query rows of a sample, the nearest
other row and how many rows lie within a radius, counted up to a cap.  The
samples are hashed into cells at least that radius wide on the axes before
the sweep axis, axis min(d, 3) - 1, and sorted along it, so that the rows of
a cell inside a window on the sweep axis are one run of sorted positions.  A
count first takes whole the run that the cell geometry alone puts inside the
ball; only a query whose run holds fewer rows than the cap compares
distances near the rim.  The nearest row is searched in a small ball that
doubles until it holds one.  Distances and counts under the cap equal a
brute-force search's exactly, and no result depends on how ties sort.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import estimate
from .errors import InvalidArgumentError

__all__ = ["nearest_and_count"]


# Relative margin on squared radii between "surely inside a ball" and
# "possibly inside": far above rounding, far below any distance resolved.
_MARGIN = 1e-9
# The nearest-neighbour search starts in a ball expected to hold this many
# samples at the density counted within ``r``.
_NEAREST_EXPECTED = 4.0
# A wider search meets at most this many cell rows per query; beyond, the
# samples are indexed again in cells as wide as the search.
_MAX_ROWS = 25
# Queries whose cell rows are looked up at once.
_QUERY_BLOCK = 4096


class _CellRows:
    """Sample rows ``X`` (n, d) sorted for range searches.

    The sweep axis is axis k = min(d, 3) - 1.  The k axes before it are
    hashed into cells at least ``width`` wide (widened until every cell key
    fits in int64: a wider cell stays correct); the samples of one key form
    a cell row.  Rows are sorted by key, each along the sweep axis, so the
    samples of a row inside a window on the sweep axis are one run of sorted
    positions, found by ``searchsorted`` on ``stamp``: the row's rank times a
    pitch wider than the sweep axis's span, plus the sweep coordinate.  The
    (2c + 1)^k rows around a query's own hold every sample within c cell
    widths of it on the hashed axes."""

    def __init__(self, X: np.ndarray, width: float):
        n, d = X.shape
        k = min(d, 3) - 1
        self.X, self.k = X, k
        self.lo = X[:, :k].min(axis=0)
        span = X[:, :k].max(axis=0) - self.lo
        # widened by the rounding of the places, so that rows ``width`` apart
        # never land two cells apart
        width += 16.0 * np.finfo(float).eps * (float(np.abs(X).max()) + width)
        while np.prod(np.floor(span / width) + 1.0) >= 2.0**62:
            width *= 2.0
        self.width = width
        self.extent = (np.floor(span / width) + 1.0).astype(np.int64)
        self.strides = np.ones(k, dtype=np.int64)
        for a in range(k - 2, -1, -1):
            self.strides[a] = self.strides[a + 1] * self.extent[a + 1]
        self.row_keys, rank = np.unique(self.place(slice(None))[0] @ self.strides,
                                        return_inverse=True)
        self.row_start = np.r_[0, np.cumsum(np.bincount(rank, minlength=self.row_keys.size))]
        self.sweep_lo = float(X[:, k].min())
        self.pitch = 2.0 * (float(X[:, k].max()) - self.sweep_lo) + width
        stamp = rank * self.pitch + (X[:, k] - self.sweep_lo)
        self.order = np.argsort(stamp)
        self.stamp = stamp[self.order]
        self.position = np.empty(n, dtype=np.intp)
        self.position[self.order] = np.arange(n)
        self.columns = [X[self.order, a] for a in range(d)]
        self.unhashed = d > k + 1
        # rounding slack of the stamps and of the in-cell places, as a length
        self.pad = 16.0 * np.finfo(float).eps * (float(self.stamp[-1]) + float(np.abs(X).max())
                                                 + width)

    def place(self, q):
        """Cells of the rows ``q`` on the hashed axes, and the place inside
        the cell in cell widths."""
        scaled = (self.X[q, : self.k] - self.lo) / self.width
        cells = np.floor(scaled)
        return cells.astype(np.int64), scaled - cells

    def rows(self, q: np.ndarray, c: int):
        """The cell rows at most ``c`` cells from those of the sample rows
        ``q``, each of shape (q.size, (2c + 1)^k): their first and end sorted
        positions (equal where the row holds no sample), the query's stamp in
        each, and the least and the greatest squared distance on the hashed
        axes from the query to the row's cell (the greatest is infinite while
        unhashed axes remain)."""
        o = np.array(list(itertools.product(range(-c, c + 1), repeat=self.k)),
                     dtype=np.int64).reshape((2 * c + 1) ** self.k, self.k)
        cells, t = self.place(q)
        cells = cells[:, None, :] + o
        keys = cells @ self.strides
        rank = np.minimum(np.searchsorted(self.row_keys, keys), self.row_keys.size - 1)
        held = (self.row_keys[rank] == keys) & np.all((cells >= 0) & (cells < self.extent), axis=2)
        first = np.where(held, self.row_start[rank], 0)
        end = np.where(held, self.row_start[rank + 1], 0)
        base = rank * self.pitch + (self.X[q, self.k] - self.sweep_lo)[:, None]
        t = t[:, None, :]
        near = np.maximum(np.maximum(o - t, t - o - 1.0), 0.0) * self.width
        far = np.maximum(t - o, o + 1.0 - t) * self.width
        near2 = np.sum(np.maximum(near - self.pad, 0.0) ** 2, axis=2)
        far2 = np.sum((far + self.pad) ** 2, axis=2)
        if self.unhashed:
            far2[:] = np.inf
        return first, end, base, near2, far2

    def runs(self, first, end, base, reach, outer: bool):
        """[start, stop) of the sorted positions of each row whose sweep
        coordinate lies within ``reach`` of the query's, widened by the
        rounding slack when ``outer`` and narrowed by it otherwise; empty
        where ``reach`` is negative.  Only nonempty rows reached are searched,
        offset by offset, so that the keys ascend with the sorted queries."""
        j, i = np.nonzero(((reach >= 0) & (first < end)).T)
        lo, hi, key = first[i, j], end[i, j], base[i, j]
        w = reach[i, j] + (self.pad if outer else -self.pad)
        start, stop = np.zeros_like(first), np.zeros_like(first)
        start[i, j] = a = np.clip(np.searchsorted(self.stamp, key - w, "left"), lo, hi)
        stop[i, j] = np.clip(np.searchsorted(self.stamp, key + w, "right"), a, hi)
        return start, stop

    def pairs(self, q: np.ndarray, start: np.ndarray, stop: np.ndarray):
        """The sorted positions in the runs [start, stop) of each query (one
        row of runs per query), how many each query has, and their squared
        distances to the query, summed over the axes in order."""
        per_query = (stop - start).sum(axis=1)
        seg = (stop - start).ravel()
        pos = np.repeat(start.ravel() - (np.cumsum(seg) - seg), seg)
        pos += np.arange(pos.size)
        qpos = self.position[q]
        d2 = np.zeros(pos.size)
        for column in self.columns:
            diff = column[pos]
            diff -= np.repeat(column[qpos], per_query)
            diff *= diff
            d2 += diff
        return pos, per_query, d2


def _slab(radius2, near2):
    """Half-width on the sweep axis of a ball of squared radius ``radius2``
    met by a cell row ``near2`` away (squared) on the hashed axes; -1 where
    the row misses the ball."""
    return np.where(near2 <= radius2, np.sqrt(np.maximum(radius2 - near2, 0.0)), -1.0)


def _blocks(per_query: np.ndarray):
    """Slices of consecutive queries holding at most half the kernel engine's
    ``estimate._BLOCK_PAIRS`` candidate pairs, or one query when it alone
    holds more.  A block keeps four or five arrays of its pairs at once, so
    the search's peak memory stays under the engine's."""
    ends = np.cumsum(per_query)
    i = 0
    while i < per_query.size:
        budget = (ends[i - 1] if i else 0) + max(estimate._BLOCK_PAIRS // 2, 1)
        j = max(i + 1, int(np.searchsorted(ends, budget, "right")))
        yield slice(i, j)
        i = j


def _count(index: _CellRows, q: np.ndarray, rows, r2: float, cap: int) -> np.ndarray:
    """How many sample rows lie within sqrt(``r2``) of each sample row ``q``,
    itself included, given its cell ``rows`` one cell out: exactly where
    that is under ``cap``, else at least ``cap``.  The run that the cell
    geometry alone puts inside the ball is taken whole; only the query's own
    cell row can hold one, a cell being at least the radius wide.  Where it
    holds fewer than ``cap`` rows, distances are compared in the runs between
    it and the ball's extent on the sweep axis (in 1-D, none)."""
    first, end, base, near2, far2 = rows
    in_start, in_stop = index.runs(first, end, base, _slab(r2 * (1 - _MARGIN), far2), False)
    count = (in_stop - in_start).sum(axis=1)
    todo = np.flatnonzero(count < cap)
    out_start, out_stop = index.runs(first[todo], end[todo], base[todo],
                                     _slab(r2 * (1 + _MARGIN), near2[todo]), True)
    in_start = np.clip(in_start[todo], out_start, out_stop)
    in_stop = np.clip(in_stop[todo], in_start, out_stop)
    start = np.concatenate([out_start, in_stop], axis=1)
    stop = np.concatenate([in_start, out_stop], axis=1)
    for b in _blocks((stop - start).sum(axis=1)):
        _, per_query, d2 = index.pairs(q[todo[b]], start[b], stop[b])
        # the hits up to each query's last candidate, less those up to its first
        hits = np.r_[0, np.cumsum(d2 <= r2)][np.r_[0, np.cumsum(per_query)]]
        count[todo[b]] += np.diff(hits)
    return count


def _nearest(index: _CellRows, q: np.ndarray, rows, reach: np.ndarray):
    """Distance to the nearest other sample row of each sample row ``q``
    within ``reach`` of it, and that row (of equally near rows, the
    lowest-numbered), given its cell ``rows`` at least ``reach`` out; a
    distance beyond ``reach`` is only an upper bound."""
    first, end, base, near2, _ = rows
    start, stop = index.runs(first, end, base, _slab(reach[:, None] ** 2 * (1 + _MARGIN), near2),
                             True)
    dist = np.empty(q.size)
    near = np.empty(q.size, dtype=np.intp)
    for b in _blocks((stop - start).sum(axis=1)):
        dist[b], near[b] = _nearest_block(index, q[b], start[b], stop[b])
    return dist, near


def _nearest_block(index: _CellRows, q, start, stop):
    """Per query, the distance to the nearest other sample in its runs and
    that sample's row (of equally near ones, the lowest-numbered)."""
    pos, per_query, d2 = index.pairs(q, start, stop)
    head = np.cumsum(per_query) - per_query
    # the query itself, in the run of its own cell row, the middle one; every
    # query meets itself, so no query is without candidates
    own = start.shape[1] // 2
    d2[head + (stop - start)[:, :own].sum(axis=1) + index.position[q] - start[:, own]] = np.inf
    best = np.minimum.reduceat(d2, head)
    hit = np.flatnonzero(d2 == np.repeat(best, per_query))
    owner = np.searchsorted(head + per_query, hit, "right")
    heads = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
    return np.sqrt(best), np.minimum.reduceat(index.order[pos[hit]], heads)


def nearest_and_count(X: np.ndarray, idx: np.ndarray, r: float, cap: int):
    """For the query rows ``idx`` of the samples ``X`` (n, d): the distance to
    the nearest other sample row, that row, and min(count, ``cap``), count
    being how many sample rows lie within ``r`` of the query, itself
    included.  Of equally near rows the lowest-numbered is taken, so no
    result depends on how ties sort.

    The samples are indexed in ``_CellRows`` at least ``r`` wide and counted
    by ``_count``.  The nearest other row is searched in a ball expected to
    hold ``_NEAREST_EXPECTED`` samples at the counted density (counted in
    the whole run where that reached ``cap``); a query whose nearest
    candidate lies beyond it is searched again in a ball twice as wide, on
    as many cell rows as that meets.  Queries are taken in sorted order,
    ``_QUERY_BLOCK`` at a time, and their candidates in ``_blocks``."""
    n, d = X.shape
    if n < 2:
        raise InvalidArgumentError("nearest-neighbour search needs at least two samples")
    index = _CellRows(X, float(r))
    back = np.argsort(index.position[idx])
    idx = np.asarray(idx, dtype=np.intp)[back]
    count = np.empty(idx.size, dtype=np.intp)
    reach = np.empty(idx.size)
    dist = np.empty(idx.size)
    near = np.empty(idx.size, dtype=np.intp)
    for lo in range(0, idx.size, _QUERY_BLOCK):
        part = slice(lo, lo + _QUERY_BLOCK)
        rows = index.rows(idx[part], 1)
        count[part] = _count(index, idx[part], rows, float(r) ** 2, cap)
        expected = _NEAREST_EXPECTED / np.maximum(count[part] - 1, 1)
        reach[part] = np.minimum(float(r) * expected ** (1.0 / d), index.width)
        dist[part], near[part] = _nearest(index, idx[part], rows, reach[part])
    todo = np.flatnonzero(dist > reach * (1 - _MARGIN))
    while todo.size:
        reach[todo] *= 2.0
        c = int(np.ceil(reach[todo].max() / index.width))
        if (2 * c + 1) ** index.k > _MAX_ROWS:
            index, c = _CellRows(X, float(reach[todo].max())), 1
        for lo in range(0, todo.size, _QUERY_BLOCK):
            q = todo[lo : lo + _QUERY_BLOCK]
            dist[q], near[q] = _nearest(index, idx[q], index.rows(idx[q], c), reach[q])
        todo = todo[dist[todo] > reach[todo] * (1 - _MARGIN)]
    undo = np.argsort(back)
    return dist[undo], near[undo], np.minimum(count, cap)[undo]
