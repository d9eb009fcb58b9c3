"""Cell-bucketed spatial indexes held inside map_batches actors.

Replaces the reference's ad-hoc ``scipy.cKDTree`` builds per call
(`/root/reference/GreenExp/accessibility.py:281`, `visibility.py:706`)
with a grid-hash index built ONCE per actor in ``__init__`` from a
broadcast side table (``ray.put`` once on the driver, read per actor).
Queries are exact: ``nearest`` widens every query cell's candidate
square, all cells in one vectorized pass at a time, until no closer
point can lie outside it; ``in_boxes`` gathers each box's cells the
same way; ``within`` / ``candidate_groups`` walk the Chebyshev rings a
radius reaches.
"""

from __future__ import annotations

import numpy as np


def _ranges(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(start[k], start[k] + length[k])``."""
    seg = np.cumsum(length) - length
    return np.arange(int(length.sum())) + np.repeat(start - seg, length)


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
        # populated bucket extent — bounds ring expansion for unlimited
        # nearest() queries (an empty index would otherwise expand to the
        # global cap per query group: an effective hang)
        if len(self.x):
            self._ix_lo, self._ix_hi = int(ix.min()), int(ix.max())
            self._iy_lo, self._iy_hi = int(iy.min()), int(iy.max())
        else:
            self._ix_lo = self._ix_hi = self._iy_lo = self._iy_hi = 0

    def _bucket(self, bix: int, biy: int) -> np.ndarray:
        """Original-array indices of points in grid bucket (bix, biy)."""
        key = bix * (1 << 32) + biy
        j = np.searchsorted(self._bucket_key, key)
        if j >= len(self._bucket_key) or self._bucket_key[j] != key:
            return np.empty(0, dtype=np.int64)
        return self._order[self._bucket_start[j] : self._bucket_start[j + 1]]

    def _ring_indices(self, bix: int, biy: int, ring: int) -> np.ndarray:
        """Points in the Chebyshev ring at distance ``ring`` from the
        query cell, clipped to the populated bucket extent (so a distant
        query against a small index probes O(extent) cells per ring, not
        O(ring))."""
        if ring == 0:
            return self._bucket(bix, biy)
        cells = []
        x0, x1 = bix - ring, bix + ring
        y0, y1 = biy - ring, biy + ring
        for yy in {y0, y1}:
            if self._iy_lo <= yy <= self._iy_hi:
                for xx in range(max(x0, self._ix_lo), min(x1, self._ix_hi) + 1):
                    cells.append((xx, yy))
        for xx in {x0, x1}:
            if self._ix_lo <= xx <= self._ix_hi:
                for yy in range(max(y0 + 1, self._iy_lo),
                                min(y1 - 1, self._iy_hi) + 1):
                    cells.append((xx, yy))
        parts = [self._bucket(x, y) for x, y in cells]
        parts = [p for p in parts if len(p)]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    def _ring_start(self, bix: int, biy: int) -> int:
        """Chebyshev distance from a query cell to the populated extent
        box — rings below this are empty by construction."""
        dx = max(self._ix_lo - bix, 0, bix - self._ix_hi)
        dy = max(self._iy_lo - biy, 0, biy - self._iy_hi)
        return max(dx, dy)

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
        qix = np.floor(qx / self.cs).astype(np.int64)
        qiy = np.floor(qy / self.cs).astype(np.int64)
        gkey = qix * (1 << 32) + qiy
        order = np.argsort(gkey, kind="stable")
        _, starts = np.unique(gkey[order], return_index=True)
        nq = np.diff(np.append(starts, n))
        cx, cy = qix[order[starts]], qiy[order[starts]]
        # Chebyshev distance to the populated extent (rings below it are
        # empty) and the radius whose square covers all of it
        gap = np.maximum(np.maximum(self._ix_lo - cx, cx - self._ix_hi),
                         np.maximum(self._iy_lo - cy, cy - self._iy_hi))
        cover = np.maximum(
            np.maximum(np.abs(cx - self._ix_lo), np.abs(cx - self._ix_hi)),
            np.maximum(np.abs(cy - self._iy_lo), np.abs(cy - self._iy_hi)))
        cap = cover
        if max_dist is not None:
            # rings past ceil(max_dist/cs)+1 are beyond max_dist
            cap = np.minimum(cover, int(np.ceil(max_dist / self.cs)) + 1)
        radius = np.minimum(np.maximum(gap, 0) + 1, cap)
        active = np.arange(len(starts))
        while len(active):
            r = radius[active]
            acx, acy = cx[active], cy[active]
            counts, cand = self._box_candidates(acx - r, acy - r,
                                                acx + r, acy + r)
            # (query, candidate) pairs: each query against its cell's square
            nqa = nq[active]
            qsel = order[_ranges(starts[active], nqa)]
            qcell = np.repeat(np.arange(len(active)), nqa)
            qn = counts[qcell]
            pc = cand[_ranges((np.cumsum(counts) - counts)[qcell], qn)]
            pq = np.repeat(qsel, qn)
            dx = qx[pq] - self.x[pc]
            dy = qy[pq] - self.y[pc]
            d = np.sqrt(dx * dx + dy * dy)
            has = qn > 0
            dq = np.full(len(qsel), np.inf)
            need = np.zeros(len(qsel), dtype=np.int64)
            if has.any():
                seg = (np.cumsum(qn) - qn)[has]
                dq[has] = np.minimum.reduceat(d, seg)
                tie = np.where(d == np.repeat(dq, qn), pc, len(self.x))
                best_i[qsel[has]] = np.minimum.reduceat(tie, seg)
                # smallest R with d < R*cs; the 1e-9-cell slack absorbs
                # float rounding in the cell assignment of the points
                need[has] = np.floor(dq[has] / self.cs + 1e-9).astype(np.int64) + 1
            best_d[qsel] = dq
            need_cell = np.maximum.reduceat(need, np.cumsum(nqa) - nqa)
            done = (r >= cap[active]) | ((counts > 0) & (need_cell <= r))
            grow = np.where(counts > 0, np.maximum(need_cell, r + 1), 2 * r)
            radius[active] = np.minimum(grow, cap[active])
            active = active[~done]
        if max_dist is not None:
            miss = best_d > max_dist
            best_d[miss] = np.inf
            best_i[miss] = -1
        return best_d, best_i

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

    def candidate_groups(self, qx: np.ndarray, qy: np.ndarray,
                         radius: float):
        """Yield ``(query_indices, candidate_point_indices)`` per
        occupied query cell; candidates are every indexed point within
        ``ceil(radius/cs) + 1`` Chebyshev rings — a strict SUPERSET of
        the radius ball, so the caller applies its own metric/filter
        with its own arithmetic (the grid only prunes, it never
        decides).  This is the scale path for broadcast-facility
        stages: per-batch work drops from O(points x F) dense to
        O(points x local candidates)."""
        qx = np.asarray(qx, dtype=np.float64)
        qy = np.asarray(qy, dtype=np.float64)
        if not len(qx) or not len(self.x):
            return
        rings = int(np.ceil(radius / self.cs)) + 1
        qix = np.floor(qx / self.cs).astype(np.int64)
        qiy = np.floor(qy / self.cs).astype(np.int64)
        gkey = qix * (1 << 32) + qiy
        order = np.argsort(gkey, kind="stable")
        uq, starts = np.unique(gkey[order], return_index=True)
        bounds = np.concatenate([starts, [len(qx)]])
        for g in range(len(uq)):
            sel = order[bounds[g] : bounds[g + 1]]
            bix = int(qix[sel[0]])
            biy = int(qiy[sel[0]])
            parts = [self._ring_indices(bix, biy, r)
                     for r in range(rings + 1)]
            parts = [p for p in parts if len(p)]
            if not parts:
                continue
            yield sel, np.concatenate(parts)

    def within(self, qx: np.ndarray, qy: np.ndarray, radius: float):
        """All index points within ``radius`` of each query point.
        Returns (query_local_index, point_index, dist) flat arrays; a
        query with a NaN or infinite coordinate matches nothing."""
        qx = np.asarray(qx, dtype=np.float64)
        qy = np.asarray(qy, dtype=np.float64)
        ok = np.isfinite(qx) & np.isfinite(qy)
        if not ok.all():
            # no cell for a query without coordinates (see nearest)
            qi, pj, d = self.within(qx[ok], qy[ok], radius)
            return np.flatnonzero(ok)[qi], pj, d
        rings = int(np.ceil(radius / self.cs)) + 1
        out_q, out_p, out_d = [], [], []
        qix = np.floor(qx / self.cs).astype(np.int64)
        qiy = np.floor(qy / self.cs).astype(np.int64)
        gkey = qix * (1 << 32) + qiy
        order = np.argsort(gkey, kind="stable")
        uq, starts = np.unique(gkey[order], return_index=True)
        bounds = np.concatenate([starts, [len(qx)]])
        for g in range(len(uq)):
            sel = order[bounds[g] : bounds[g + 1]]
            bix = int(qix[sel[0]])
            biy = int(qiy[sel[0]])
            cand = np.concatenate(
                [self._ring_indices(bix, biy, r) for r in range(rings + 1)]
            ) if rings >= 0 else np.empty(0, np.int64)
            if not len(cand):
                continue
            dx = qx[sel][:, None] - self.x[cand][None, :]
            dy = qy[sel][:, None] - self.y[cand][None, :]
            d = np.sqrt(dx * dx + dy * dy)
            qi, pj = np.nonzero(d <= radius)
            out_q.append(sel[qi])
            out_p.append(cand[pj])
            out_d.append(d[qi, pj])
        if not out_q:
            return (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
        return np.concatenate(out_q), np.concatenate(out_p), np.concatenate(out_d)

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

    def __init__(self, x0, y0, x1, y1, ids, cell_size: float = 1000.0):
        self.x0 = np.asarray(x0, np.float64)
        self.y0 = np.asarray(y0, np.float64)
        self.x1 = np.asarray(x1, np.float64)
        self.y1 = np.asarray(y1, np.float64)
        self.ids = np.asarray(ids)
        self.cs = float(cell_size)
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
