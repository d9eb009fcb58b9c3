"""Cell-bucketed spatial indexes built once per kernel.

Replaces the reference's ad-hoc ``scipy.cKDTree`` builds per call
(`/root/reference/GreenExp/accessibility.py:281`, `visibility.py:706`)
with a grid-hash index a kernel builds in ``__init__`` from its side
table, once per worker process.  Every query reads one vectorized
candidate gather, ``GridIndex._box_candidates`` (the points in a box of
grid cells, for many boxes at once): ``nearest`` widens every query
cell's square, all cells in one pass at a time, until no closer point
can lie outside it; ``in_boxes`` gathers each box's cells; ``within``
and the broadcast-facility kernels take the (query, point) pairs of
each query cell's square a radius reaches (``_pairs``) and filter
them with their own arithmetic.  No query loops over cells in Python.
"""

from __future__ import annotations

import numpy as np


def _ranges(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(start[k], start[k] + length[k])``."""
    seg = np.cumsum(length) - length
    return np.arange(int(length.sum())) + np.repeat(start - seg, length)


def _seg_argmin(v: np.ndarray, pc: np.ndarray, qn: np.ndarray):
    """Per run of ``qn`` pairs: the least ``v`` and the least point
    index ``pc`` that attains it; an empty run gets (inf, -1)."""
    vmin = np.full(len(qn), np.inf)
    imin = np.full(len(qn), -1, dtype=np.int64)
    has = qn > 0
    if has.any():
        seg = (np.cumsum(qn) - qn)[has]
        vmin[has] = np.minimum.reduceat(v, seg)
        tie = np.where(v == np.repeat(vmin, qn), pc, np.iinfo(np.int64).max)
        imin[has] = np.minimum.reduceat(tie, seg)
    return vmin, imin


class GridIndex:
    """Point grid index: exact nearest-neighbour + radius queries.

    Points are bucketed by grid cell and kept sorted by bucket key
    ``ix * 2**32 + iy``, so the points of any cell range in one grid
    column are one ``searchsorted`` pair away.  ``nearest`` gathers, per
    pass, the points of each open query cell's square of cells with
    one such pair per (cell, populated column), and compares each query
    with its cell's candidates only: memory is O(candidate pairs) per
    pass, never O(extent), however small ``cell_size`` is.  Exact ties
    go to the lowest point index.

    ``cell_size`` should be on the order of the typical query radius —
    bigger cells mean fewer passes but more candidates per cell.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, cell_size: float = 500.0):
        self.x = np.asarray(x, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.cs = float(cell_size)
        ix = np.floor(self.x / self.cs).astype(np.int64)
        iy = np.floor(self.y / self.cs).astype(np.int64)
        order = np.lexsort((iy, ix))
        self._order = order
        six, siy = ix[order], iy[order]
        key = six * (1 << 32) + siy
        uniq, starts = np.unique(key, return_index=True)
        self._bucket_key = uniq
        self._bucket_start = np.concatenate([starts, [len(key)]])
        # populated grid columns, sorted: nearest() searches buckets per
        # (query cell, populated column)
        self._cols = np.unique(six)
        # populated bucket extent — bounds the square growth of
        # unlimited nearest() queries (an empty index would otherwise
        # grow to the global cap per query group: an effective hang)
        if len(self.x):
            self._ix_lo, self._ix_hi = int(ix.min()), int(ix.max())
            self._iy_lo, self._iy_hi = int(iy.min()), int(iy.max())
        else:
            self._ix_lo = self._ix_hi = self._iy_lo = self._iy_hi = 0

    def nearest(self, qx: np.ndarray, qy: np.ndarray, max_dist: float | None = None):
        """Exact 1-NN for each query point.

        Returns (dist, index); misses (empty index / beyond max_dist /
        NaN or infinite query coordinates) get (inf, -1).  Exact ties
        go to the lowest point index.

        Queries are grouped by cell and every still-open cell advances
        together, one vectorized pass at a time.  A pass gathers every
        indexed point in the cell's (2R+1)^2 cell square (clipped to
        the populated extent) and takes each query's minimum over those
        candidates.  Points outside the square are at least R*cs from
        every query in the cell, so the cell is done once each of its
        queries has ``d < R*cs``, or once the square covers the extent
        (or reaches ``max_dist``).  An open cell retries at the smallest
        radius that settles its current best (twice R while it has no
        candidate yet), so most cells take one or two passes and each
        pass's arrays are sized by the candidate pairs it compares.
        """
        qx = np.asarray(qx, dtype=np.float64)
        qy = np.asarray(qy, dtype=np.float64)
        n = len(qx)
        best_d = np.full(n, np.inf)
        best_i = np.full(n, -1, dtype=np.int64)
        if len(self.x) == 0 or n == 0:
            return best_d, best_i
        ok = np.isfinite(qx) & np.isfinite(qy)
        if not ok.all():
            # a query without coordinates (a document with no geom span
            # decodes to NaN) has no cell: it stays a miss
            best_d[ok], best_i[ok] = self.nearest(qx[ok], qy[ok], max_dist)
            return best_d, best_i
        order, starts, nq, cx, cy = self._cells(qx, qy)
        gap, cap = self._reach(cx, cy)
        if max_dist is not None:
            # squares past ceil(max_dist/cs)+1 are beyond max_dist
            cap = np.minimum(cap, int(np.ceil(max_dist / self.cs)) + 1)
        radius = np.minimum(gap + 1, cap)
        active = np.arange(len(starts))
        while len(active):
            r = radius[active]
            nqa = nq[active]
            qsel = order[_ranges(starts[active], nqa)]
            pq, pc, qn = self._square_pairs(qsel, nqa, cx[active],
                                            cy[active], r)
            dx = qx[pq] - self.x[pc]
            dy = qy[pq] - self.y[pc]
            dq, best_i[qsel] = _seg_argmin(np.sqrt(dx * dx + dy * dy), pc, qn)
            best_d[qsel] = dq
            has = qn > 0
            need = np.zeros(len(qsel), dtype=np.int64)
            # smallest R with d < R*cs; the 1e-9-cell slack absorbs
            # float rounding in the cell assignment of the points
            need[has] = np.floor(dq[has] / self.cs + 1e-9).astype(np.int64) + 1
            first = np.cumsum(nqa) - nqa
            need_cell = np.maximum.reduceat(need, first)
            found = has[first]
            done = (r >= cap[active]) | (found & (need_cell <= r))
            grow = np.where(found, np.maximum(need_cell, r + 1), 2 * r)
            radius[active] = np.minimum(grow, cap[active])
            active = active[~done]
        if max_dist is not None:
            miss = best_d > max_dist
            best_d[miss] = np.inf
            best_i[miss] = -1
        return best_d, best_i

    def _cells(self, qx: np.ndarray, qy: np.ndarray):
        """Finite queries grouped by grid cell: (query order, group
        starts in that order, queries per group, cell ix, cell iy)."""
        qix = np.floor(qx / self.cs).astype(np.int64)
        qiy = np.floor(qy / self.cs).astype(np.int64)
        gkey = qix * (1 << 32) + qiy
        order = np.argsort(gkey, kind="stable")
        _, starts = np.unique(gkey[order], return_index=True)
        nq = np.diff(np.append(starts, len(qx)))
        return order, starts, nq, qix[order[starts]], qiy[order[starts]]

    def _reach(self, cx: np.ndarray, cy: np.ndarray):
        """Per query cell: the Chebyshev distance to the populated
        extent (smaller squares are empty) and the square radius that
        covers all of it."""
        gap = np.maximum(np.maximum(self._ix_lo - cx, cx - self._ix_hi),
                         np.maximum(self._iy_lo - cy, cy - self._iy_hi))
        cover = np.maximum(
            np.maximum(np.abs(cx - self._ix_lo), np.abs(cx - self._ix_hi)),
            np.maximum(np.abs(cy - self._iy_lo), np.abs(cy - self._iy_hi)))
        return np.maximum(gap, 0), cover

    def _square_pairs(self, qsel: np.ndarray, nq: np.ndarray,
                      cx: np.ndarray, cy: np.ndarray, r):
        """(query, point) pairs of each cell's queries (``qsel``, ``nq``
        per cell) against every indexed point in the cell's square of
        ``r`` cells around it, grouped by query, plus the candidates per
        query."""
        counts, cand = self._box_candidates(cx - r, cy - r, cx + r, cy + r)
        qn = counts[np.repeat(np.arange(len(cx)), nq)]
        pc = cand[_ranges(np.repeat(np.cumsum(counts) - counts, nq), qn)]
        return np.repeat(qsel, qn), pc, qn

    def _pairs(self, qx: np.ndarray, qy: np.ndarray, radius: float):
        """(query, point) candidate pairs: each finite query against
        every indexed point in its cell's square of ``ceil(radius/cs) +
        1`` cells, grouped by query cell, in one vectorized gather.  A
        superset of the radius ball: the caller filters the pairs with
        its own arithmetic."""
        ok = np.flatnonzero(np.isfinite(qx) & np.isfinite(qy))
        if not len(ok) or not len(self.x):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        order, starts, nq, cx, cy = self._cells(qx[ok], qy[ok])
        r = int(np.ceil(radius / self.cs)) + 1
        pq, pc, _ = self._square_pairs(ok[order], nq, cx, cy, r)
        return pq, pc

    def _box_candidates(self, x0: np.ndarray, y0: np.ndarray,
                        x1: np.ndarray, y1: np.ndarray):
        """Indexed points in each box of grid cells ``[x0, x1] × [y0,
        y1]`` (cell numbers, inclusive), clipped to the populated
        extent: (count per box, point indices grouped by box).  One
        searchsorted pair per (box, populated column) on the sorted
        bucket keys, so no array is sized by the extent."""
        x0 = np.maximum(x0, self._ix_lo)
        x1 = np.minimum(x1, self._ix_hi)
        y0 = np.maximum(y0, self._iy_lo)
        y1 = np.minimum(y1, self._iy_hi)
        c_lo = np.searchsorted(self._cols, x0, side="left")
        c_hi = np.searchsorted(self._cols, x1, side="right")
        ncol = np.where(y0 <= y1, np.maximum(c_hi - c_lo, 0), 0)
        pair = np.repeat(np.arange(len(x0)), ncol)
        base = self._cols[_ranges(c_lo, ncol)] * (1 << 32)
        b_lo = np.searchsorted(self._bucket_key, base + y0[pair], side="left")
        b_hi = np.searchsorted(self._bucket_key, base + y1[pair], side="right")
        p_lo = self._bucket_start[b_lo]
        npts = self._bucket_start[b_hi] - p_lo
        counts = np.bincount(pair, weights=npts, minlength=len(x0))
        return counts.astype(np.int64), self._order[_ranges(p_lo, npts)]

    def within(self, qx: np.ndarray, qy: np.ndarray, radius: float):
        """All index points within ``radius`` of each query point.
        Returns (query_local_index, point_index, dist) flat arrays,
        sorted by (query, point); a query with a NaN or infinite
        coordinate matches nothing."""
        qx = np.asarray(qx, dtype=np.float64)
        qy = np.asarray(qy, dtype=np.float64)
        pq, pc = self._pairs(qx, qy, radius)
        dx = qx[pq] - self.x[pc]
        dy = qy[pq] - self.y[pc]
        d = np.sqrt(dx * dx + dy * dy)
        hit = np.flatnonzero(d <= radius)
        hit = hit[np.lexsort((pc[hit], pq[hit]))]
        return pq[hit], pc[hit], d[hit]

    def in_boxes(self, x0: np.ndarray, y0: np.ndarray,
                 x1: np.ndarray, y1: np.ndarray):
        """Index points inside each closed box ``[x0, x1] × [y0, y1]``.
        Returns (box_index, point_index) flat arrays, grouped by box; a
        box with a NaN or infinite bound holds nothing."""
        x0, y0, x1, y1 = (np.asarray(v, dtype=np.float64)
                          for v in (x0, y0, x1, y1))
        ok = np.flatnonzero(np.isfinite(x0) & np.isfinite(y0)
                            & np.isfinite(x1) & np.isfinite(y1))
        if not len(ok) or not len(self.x):
            return np.empty(0, np.int64), np.empty(0, np.int64)
        bx0, by0, bx1, by1 = x0[ok], y0[ok], x1[ok], y1[ok]
        counts, cand = self._box_candidates(
            *(np.floor(v / self.cs).astype(np.int64)
              for v in (bx0, by0, bx1, by1)))
        box = np.repeat(np.arange(len(ok)), counts)
        px, py = self.x[cand], self.y[cand]
        inside = ((px >= bx0[box]) & (px <= bx1[box])
                  & (py >= by0[box]) & (py <= by1[box]))
        return ok[box[inside]], cand[inside]


class RectIndex:
    """Grid index over axis-aligned rectangles (bbox containment joins).

    Buckets every rectangle into each grid cell its bbox touches; point
    queries return candidate rectangles from the point's cell only —
    exact because a rect covering the point necessarily touches the
    point's cell.
    """

    def __init__(self, x0, y0, x1, y1, ids):
        self.x0 = np.asarray(x0, np.float64)
        self.y0 = np.asarray(y0, np.float64)
        self.x1 = np.asarray(x1, np.float64)
        self.y1 = np.asarray(y1, np.float64)
        self.ids = np.asarray(ids)
        self.cs = 1000.0
        buckets: dict[tuple[int, int], list[int]] = {}
        ix0 = np.floor(self.x0 / self.cs).astype(np.int64)
        ix1 = np.floor(self.x1 / self.cs).astype(np.int64)
        iy0 = np.floor(self.y0 / self.cs).astype(np.int64)
        iy1 = np.floor(self.y1 / self.cs).astype(np.int64)
        for i in range(len(self.ids)):
            for bx in range(ix0[i], ix1[i] + 1):
                for by in range(iy0[i], iy1[i] + 1):
                    buckets.setdefault((bx, by), []).append(i)
        self._buckets = {k: np.array(v, dtype=np.int64) for k, v in buckets.items()}

    def containing(self, qx: np.ndarray, qy: np.ndarray):
        """(query_local_index, rect_index) pairs where the rect contains
        the point (closed bounds, matching SQL BETWEEN)."""
        qx = np.asarray(qx, np.float64)
        qy = np.asarray(qy, np.float64)
        bix = np.floor(qx / self.cs).astype(np.int64)
        biy = np.floor(qy / self.cs).astype(np.int64)
        out_q, out_r = [], []
        key = bix * (1 << 32) + biy
        order = np.argsort(key, kind="stable")
        uq, starts = np.unique(key[order], return_index=True)
        bounds = np.concatenate([starts, [len(qx)]])
        for g in range(len(uq)):
            sel = order[bounds[g] : bounds[g + 1]]
            cand = self._buckets.get((int(bix[sel[0]]), int(biy[sel[0]])))
            if cand is None:
                continue
            inside = (
                (qx[sel][:, None] >= self.x0[cand][None, :])
                & (qx[sel][:, None] <= self.x1[cand][None, :])
                & (qy[sel][:, None] >= self.y0[cand][None, :])
                & (qy[sel][:, None] <= self.y1[cand][None, :])
            )
            qi, rj = np.nonzero(inside)
            out_q.append(sel[qi])
            out_r.append(cand[rj])
        if not out_q:
            return np.empty(0, np.int64), np.empty(0, np.int64)
        return np.concatenate(out_q), np.concatenate(out_r)
