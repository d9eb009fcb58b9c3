"""Zonal statistics over raster tiles (availability pillar).

* ``get_mean_NDVI`` — ``ndvi.rio.clip([aoi]).clip(min=0).mean()/.std()``
  rounded to 3 (`/root/reference/GreenExp/availability.py:289`).
  Population std (xarray default ddof=0); negatives clamped to 0 but
  still counted.
* ``get_landcover_percentages`` — per-class pixel share of the AoI,
  ``count/total*100`` rounded to 3
  (`availability.py:553-560, 1068-1082`).

Every zonal statistic is one kernel that emits one row per input
row, in input order, run as a ``KernelStage`` task
(``functions/joins.py``): no shuffle, no keyed rollup.  Disk AoIs
(``ZonalStatsLocal`` / ``LandcoverLocal`` / ``LandcoverMajorityLocal``)
reduce each point's disk to chord sums over the tile store's
memory-mapped row-cumsum planes (``state/tiles.py``).  Polygon AoIs
(``PolygonZonalLocal`` / ``PolygonLandcoverLocal``) loop over the tiles
each row's ring bbox covers and mask those tiles' pixels; any worker
reads any tile, so a row's whole AoI is reduced in its own task.

The AoI here is the euclidean disk of ``radius`` (pixel-center-in-circle
test — the limit of the reference's 64-gon buffer discretization; exact
circle chosen so the DuckDB oracle can reproduce values bit-for-bit).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sources import synth
from ..state.tiles import TileStore

TILE_KEY_STRIDE = 1 << 20


def _tile_cover_flat(x: np.ndarray, y: np.ndarray, r: float):
    """Flat (point-index, tile-key) cover expansion for disks —
    vectorized repeat/cumsum, no per-point Python loop."""
    ts = synth.TILE_SIZE
    ix0 = np.floor((x - r) / ts).astype(np.int64)
    ix1 = np.floor((x + r) / ts).astype(np.int64)
    iy0 = np.floor((y - r) / ts).astype(np.int64)
    iy1 = np.floor((y + r) / ts).astype(np.int64)
    counts = (ix1 - ix0 + 1) * (iy1 - iy0 + 1)
    idx = np.repeat(np.arange(len(x)), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    local = np.arange(int(counts.sum())) - np.repeat(starts, counts)
    ny = np.repeat(iy1 - iy0 + 1, counts)
    dxs = local // ny
    dys = local - dxs * ny
    tkx = np.repeat(ix0, counts) + dxs
    tky = np.repeat(iy0, counts) + dys
    return idx, tkx * TILE_KEY_STRIDE + tky


def _tile_groups(idx: np.ndarray, tkey: np.ndarray):
    """``(rows, tix, tiy)`` per distinct tile key, ``rows`` being the
    ``idx`` entries of that key's pairs in their original order."""
    order = np.argsort(tkey, kind="stable")
    uniq, starts = np.unique(tkey[order], return_index=True)
    for tk, sel in zip(uniq.tolist(), np.split(order, starts[1:])):
        yield idx[sel], tk // TILE_KEY_STRIDE, tk % TILE_KEY_STRIDE


def mean_std_columns(psum: np.ndarray, psumsq: np.ndarray,
                     pcount: np.ndarray, mean_name: str = "mean_NDVI",
                     std_name: str = "std_NDVI") -> dict:
    """Final mean/std columns from per-row Σv, Σv², n: population std
    and the reference's rounding to 3 (availability.py:289).  A row
    with no pixel gets NaN."""
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = psum / pcount
        var = psumsq / pcount - mean * mean
    std = np.sqrt(np.maximum(var, 0.0))
    return {mean_name: pa.array(np.round(mean, 3)),
            std_name: pa.array(np.round(std, 3))}


def pct_columns(counts: np.ndarray, total: np.ndarray, names: list[str],
                stringify: bool = False) -> dict:
    """Per-class percentage columns ``count/total*100`` rounded to 3
    (availability.py:1068-1082) from per-row class counts ``(n, ncls)``
    and pixel totals; ``stringify`` gives the reference's ``"12.345%"``
    strings (:1080).  A row with no pixel gets NaN (null as a string)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        pct = np.round(counts / total.astype(np.float64)[:, None] * 100.0, 3)
    cols = {}
    for j, name in enumerate(names):
        if stringify:
            cols[name] = pa.array(
                [None if np.isnan(v) else f"{v!s}%" for v in pct[:, j]])
        else:
            cols[name] = pa.array(pct[:, j])
    return cols


def split_rings(ring: np.ndarray, sizes) -> "list[np.ndarray]":
    """Flattened ring vertices + per-ring sizes → list of ring arrays."""
    if sizes and len(sizes) > 1:
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        return [ring[bounds[j]:bounds[j + 1]] for j in range(len(sizes))]
    return [ring]


def mask_rings_dilated(px: np.ndarray, py: np.ndarray,
                       rings_i: "list[np.ndarray]",
                       dilate: float = 0.0) -> np.ndarray:
    """Membership of lattice points in a polygon dilated by ``dilate``
    (the raster form of shapely's ``polygon.buffer(d)`` with an exact
    disc instead of the 16-segs/quadrant arc approximation — pixel
    membership is center-in-polygon OR within ``d`` of the boundary).
    Chunked so the points × edges matrices stay bounded."""
    from .. import geom as _geom
    from ..state.graph import points_to_segments_dist

    inside = _geom.points_in_rings(px, py, rings_i)
    if dilate <= 0.0:
        return inside
    out = np.flatnonzero(~inside)
    if not len(out):
        return inside
    ax = np.concatenate([r[:, 0] for r in rings_i])
    ay = np.concatenate([r[:, 1] for r in rings_i])
    bx = np.concatenate([np.roll(r[:, 0], -1) for r in rings_i])
    by = np.concatenate([np.roll(r[:, 1], -1) for r in rings_i])
    step = max(1, 2_000_000 // max(len(ax), 1))
    near = np.zeros(len(out), dtype=bool)
    for s in range(0, len(out), step):
        sel = out[s:s + step]
        near[s:s + step] = points_to_segments_dist(
            px[sel], py[sel], ax, ay, bx, by) <= dilate
    inside = inside.copy()
    inside[out] = near
    return inside


class PolygonZonalLocal:
    """Mean/std where the AoI is each row's own POLYGON geometry
    (aoi_kind='polygon', availability.py:230-234) instead of a buffer;
    one output row per input row, in input order.

    Expects flattened ring columns ``ring_x: list<double>,
    ring_y: list<double>`` (optionally ``ring_sizes``); the pixel
    membership test is center-in-polygon (rio.clip all_touched=False
    semantics).  ``dilate`` > 0 gives the polygon-buffered AoI
    (``poi.geometry.buffer(buffer_dist)`` on polygon PoIs,
    availability.py:235-237) at pixel resolution.  Each row's values are
    summed tile by tile over the tiles its ring bbox, grown by
    ``dilate``, covers."""

    def __init__(self, tile_root: str, band: str, key_col: str = "doc_id",
                 clamp_min: float | None = 0.0, dilate: float = 0.0):
        self.store = TileStore(tile_root)
        self.band = band
        self.key_col = key_col
        self.clamp_min = clamp_min
        self.dilate = float(dilate)

    def _window_vals(self, rings_i, ring, tix: int, tiy: int) -> np.ndarray | None:
        """Band values under the (optionally dilated) polygon mask,
        restricted to one tile's window; None when the window is empty."""
        from .. import geom as _geom

        res = synth.RASTER_RES
        arr = self.store.get(self.band, tix, tiy)
        if arr is None:
            return None
        h, w = arr.shape
        x0t = tix * synth.TILE_SIZE
        y0t = tiy * synth.TILE_SIZE
        bx0, by0, bx1, by1 = _geom.rings_bbox(ring)
        d = self.dilate
        c0 = max(int(np.floor((bx0 - d - x0t) / res)), 0)
        c1 = min(int(np.floor((bx1 + d - x0t) / res)), w - 1)
        r0 = max(int(np.floor((by0 - d - y0t) / res)), 0)
        r1 = min(int(np.floor((by1 + d - y0t) / res)), h - 1)
        if c1 < c0 or r1 < r0:
            return None
        px = x0t + (np.arange(c0, c1 + 1, dtype=np.float64) + 0.5) * res
        py = y0t + (np.arange(r0, r1 + 1, dtype=np.float64) + 0.5) * res
        gx, gy = np.meshgrid(px, py, indexing="xy")
        mask = mask_rings_dilated(gx.ravel(), gy.ravel(), rings_i,
                                  self.dilate).reshape(gx.shape)
        if not mask.any():
            return None
        return arr[r0 : r1 + 1, c0 : c1 + 1][mask]

    def _tile_vals(self, batch: pa.Table):
        """``(row, values)`` for every (row, covered tile) pair whose
        window holds AoI pixels; a row without ring vertices has none."""
        from .. import geom as _geom

        rx = batch.column("ring_x").to_pylist()
        ry = batch.column("ring_y").to_pylist()
        sizes = (batch.column("ring_sizes").to_pylist()
                 if "ring_sizes" in batch.column_names else [None] * len(rx))
        ts = synth.TILE_SIZE
        d = self.dilate
        for i in range(len(rx)):
            if not rx[i]:
                continue
            ring = np.column_stack([rx[i], ry[i]])
            rings_i = split_rings(ring, sizes[i])
            bx0, by0, bx1, by1 = _geom.rings_bbox(ring)
            for tx in range(int(np.floor((bx0 - d) / ts)),
                            int(np.floor((bx1 + d) / ts)) + 1):
                for ty in range(int(np.floor((by0 - d) / ts)),
                                int(np.floor((by1 + d) / ts)) + 1):
                    vals = self._window_vals(rings_i, ring, tx, ty)
                    if vals is not None:
                        yield i, vals

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        psum = np.zeros(n)
        psumsq = np.zeros(n)
        pcount = np.zeros(n, dtype=np.int64)
        for i, vals in self._tile_vals(batch):
            if self.clamp_min is not None:
                vals = np.maximum(vals, self.clamp_min)
            psum[i] += vals.sum()
            psumsq[i] += (vals * vals).sum()
            pcount[i] += vals.size
        return pa.table({self.key_col: batch.column(self.key_col),
                         **mean_std_columns(psum, psumsq, pcount)})


class PolygonLandcoverLocal(PolygonZonalLocal):
    """Landcover class percentages where the AoI is the row's own
    (optionally dilated) polygon (``get_landcover_percentages`` with
    polygon PoIs, availability.py:361-377 + the same per-class pixel
    ratio as the buffered form); one output row per input row.
    Non-finite pixels are left out of the total."""

    def __init__(self, tile_root: str, classmap: dict[int, str],
                 key_col: str = "doc_id", band: str = "lulc",
                 dilate: float = 0.0, stringify: bool = False):
        super().__init__(tile_root, band, key_col=key_col, clamp_min=None,
                         dilate=dilate)
        self.classes = sorted(classmap)
        self.names = [classmap[c] for c in self.classes]
        self.stringify = stringify

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        counts = np.zeros((n, len(self.classes)), dtype=np.int64)
        total = np.zeros(n, dtype=np.int64)
        cls_arr = np.asarray(self.classes)
        for i, vals in self._tile_vals(batch):
            vals = vals[np.isfinite(vals)]
            total[i] += vals.size
            pos = np.searchsorted(cls_arr, vals)
            ok = (pos < len(cls_arr)) & (cls_arr[np.minimum(pos, len(cls_arr) - 1)] == vals)
            np.add.at(counts[i], pos[ok], 1)
        return pa.table({self.key_col: batch.column(self.key_col),
                         **pct_columns(counts, total, self.names,
                                       self.stringify)})


def _disk_chords(x: np.ndarray, y: np.ndarray, r: float, x0: float, y0: float,
                 h: int, w: int):
    """Per-point disk→row-chord decomposition against one tile.

    Returns ``(rows_c, lo, hi, use)``: for each point (axis 0) and each
    candidate pixel row (axis 1), the clipped row index, the inclusive
    chord column bounds, and whether the chord is non-empty.  Chord
    bounds from sqrt are corrected by ±1 against the ORIGINAL inequality
    ``dx²+dy² ≤ r²`` so the included pixel set is bit-identical to the
    direct mask (and to the SQL oracle).  Shared by the NDVI SAT kernel
    and the landcover per-class kernel.
    """
    res = synth.RASTER_RES
    K = int(2 * r / res) + 3
    r0 = np.floor((y - r - y0) / res).astype(np.int64)
    rlast = np.floor((y + r - y0) / res).astype(np.int64)
    rows = r0[:, None] + np.arange(K)[None, :]
    row_ok = (rows >= 0) & (rows <= h - 1) & (rows <= rlast[:, None])
    py = y0 + (rows + 0.5) * res
    dy2 = (py - y[:, None]) ** 2
    rad2 = r * r - dy2
    ok = row_ok & (rad2 >= 0.0)
    halfw = np.sqrt(np.maximum(rad2, 0.0))
    clo = np.ceil((x[:, None] - halfw - x0) / res - 0.5).astype(np.int64)
    chi = np.floor((x[:, None] + halfw - x0) / res - 0.5).astype(np.int64)

    def _inside(cols):
        px = x0 + (cols + 0.5) * res
        dx2 = (px - x[:, None]) ** 2
        return dx2 + dy2 <= r * r

    clo = np.where(_inside(clo - 1), clo - 1, clo)
    clo = np.where(~_inside(clo), clo + 1, clo)
    chi = np.where(_inside(chi + 1), chi + 1, chi)
    chi = np.where(~_inside(chi), chi - 1, chi)
    use = ok & (chi >= clo) & (chi >= 0) & (clo <= w - 1)
    lo = np.clip(clo, 0, w - 1)
    hi = np.clip(chi, 0, w - 1)
    rows_c = np.clip(rows, 0, h - 1)
    return rows_c, lo, hi, use


class ZonalStatsLocal:
    """Fused zonal stage: poi(key, x, y) batches → FINAL per-key
    mean/std, no shuffle.

    A disk AoI spans at most ceil(2r/TILE_SIZE+1)² tiles (≤4 for
    r≤1280 m), so each row's full aggregation is local to the task via
    the tile store — strictly cheaper than per-tile partials plus a
    keyed rollup at every scale, including radii spanning many tiles.

    Kernel: each point's disk reduces to per-row chord segment sums
    over the store's row-cumsum planes of (clamped value, value²,
    count) — ``TileStore.sat``, converted once per tile file.  Chord
    column bounds from sqrt are corrected by ±1 against the ORIGINAL
    inequality ``dx²+dy² ≤ r²`` so the included
    pixel set is bit-identical to the direct mask (and to the SQL
    oracle); only floating-point summation order differs.
    """

    def __init__(self, tile_root: str, band: str, radius: float,
                 key_col: str = "doc_id", clamp_min: float | None = 0.0,
                 mean_name: str = "mean_NDVI", std_name: str = "std_NDVI"):
        self.store = TileStore(tile_root)
        self.band = band
        self.radius = radius
        self.key_col = key_col
        self.clamp_min = clamp_min
        self.mean_name = mean_name
        self.std_name = std_name

    def _disk_tile_sums_many(self, tix: int, tiy: int,
                             x: np.ndarray, y: np.ndarray):
        """Vectorized over all points touching one tile: per-point
        (Σv, Σv², n) of their disk pixels within this tile.  All math is
        2-D (points × candidate rows) — ~10 numpy calls per tile group
        regardless of point count."""
        m = len(x)
        sat = self.store.sat(self.band, tix, tiy, self.clamp_min)
        if sat is None:
            z = np.zeros(m)
            return z, z.copy(), np.zeros(m, dtype=np.int64)
        c1, c2, c0 = sat
        rows_c, lo, hi, use = _disk_chords(
            x, y, self.radius, tix * synth.TILE_SIZE, tiy * synth.TILE_SIZE,
            c1.shape[0], c1.shape[1] - 1)
        hi1 = hi + 1
        seg1 = c1[rows_c, hi1] - c1[rows_c, lo]
        seg2 = c2[rows_c, hi1] - c2[rows_c, lo]
        if c0 is None:  # all-finite tile: count is the chord length
            cnt = (hi1 - lo) * use
        else:
            cnt = (c0[rows_c, hi1] - c0[rows_c, lo]) * use
        return (
            np.where(use, seg1, 0.0).sum(axis=1),
            np.where(use, seg2, 0.0).sum(axis=1),
            cnt.sum(axis=1).astype(np.int64),
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        n = len(x)
        psum = np.zeros(n)
        psumsq = np.zeros(n)
        pcount = np.zeros(n, dtype=np.int64)
        # flat cover expansion, then one vectorized kernel per tile
        for docs, tx, ty in _tile_groups(*_tile_cover_flat(x, y, self.radius)):
            s1, s2, cnt = self._disk_tile_sums_many(tx, ty, x[docs], y[docs])
            np.add.at(psum, docs, s1)
            np.add.at(psumsq, docs, s2)
            np.add.at(pcount, docs, cnt)
        return pa.table({self.key_col: batch.column(self.key_col),
                         **mean_std_columns(psum, psumsq, pcount,
                                            self.mean_name, self.std_name)})


class LandcoverLocal:
    """Fused landcover percentages (no shuffle), analog of
    :class:`ZonalStatsLocal`: over the store's PER-CLASS row-cumsum
    planes (``TileStore.class_sat``), each point's disk reduced to chord
    segment count differences — the same ~10-numpy-call-per-tile-group
    shape as the NDVI SAT kernel."""

    def __init__(self, tile_root: str, radius: float, classmap: dict[int, str],
                 key_col: str = "doc_id", band: str = "lulc",
                 stringify: bool = False):
        self.store = TileStore(tile_root)
        self.band = band
        self.radius = radius
        self.key_col = key_col
        self.classes = sorted(classmap)
        self.names = [classmap[c] for c in self.classes]
        self.stringify = stringify

    def _disk_tile_counts_many(self, tix: int, tiy: int,
                               x: np.ndarray, y: np.ndarray):
        """Per-point (class counts (m, ncls), total (m,)) of disk pixels
        within one tile — vectorized over the tile's point group."""
        m = len(x)
        ncls = len(self.classes)
        cs = self.store.class_sat(self.band, tix, tiy, self.classes)
        if cs is None:
            return np.zeros((m, ncls), np.int64), np.zeros(m, np.int64)
        rows_c, lo, hi, use = _disk_chords(
            x, y, self.radius, tix * synth.TILE_SIZE, tiy * synth.TILE_SIZE,
            cs.shape[1], cs.shape[2] - 1)
        hi1 = hi + 1
        counts = np.empty((m, ncls), dtype=np.int64)
        for j in range(ncls):
            seg = cs[j][rows_c, hi1] - cs[j][rows_c, lo]
            counts[:, j] = np.where(use, seg, 0).sum(axis=1)
        total = ((hi1 - lo) * use).sum(axis=1).astype(np.int64)
        return counts, total

    def _counts(self, batch: pa.Table):
        """Per-row class counts ``(n, ncls)`` and pixel totals ``(n,)``
        of each point's disk."""
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        n = len(x)
        counts = np.zeros((n, len(self.classes)), dtype=np.int64)
        total = np.zeros(n, dtype=np.int64)
        for docs, tx, ty in _tile_groups(*_tile_cover_flat(x, y, self.radius)):
            c, t = self._disk_tile_counts_many(tx, ty, x[docs], y[docs])
            np.add.at(counts, docs, c)
            np.add.at(total, docs, t)
        return counts, total

    def __call__(self, batch: pa.Table) -> pa.Table:
        counts, total = self._counts(batch)
        return pa.table({self.key_col: batch.column(self.key_col),
                         **pct_columns(counts, total, self.names,
                                       self.stringify)})


class LandcoverMajorityLocal(LandcoverLocal):
    """Zonal MAJORITY (dominant landcover class) of each point's disk:
    the per-row argmax of :class:`LandcoverLocal`'s exact int64 class
    counts, ties to the smallest class code (``np.argmax`` first hit ==
    SQL ``ORDER BY n DESC, cls ASC``).  A disk with no pixel gets a
    null majority and ``cnt_total = 0``."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        counts, total = self._counts(batch)
        idx = np.argmax(counts, axis=1)
        empty = total == 0
        return pa.table({
            self.key_col: batch.column(self.key_col),
            "majority_class": pa.array(
                np.asarray(self.classes, dtype=np.int64)[idx], mask=empty),
            "cnt_major": pa.array(counts[np.arange(len(idx)), idx],
                                  mask=empty),
            "cnt_total": pa.array(total),
        })


class LineZonalLocal:
    """Fused zonal stats where each row's AoI is a BUFFERED POLYLINE
    (the reference's street-network flow: edges become PoI rows and
    ``poi.geometry.buffer(buffer_dist)`` is a sausage polygon,
    availability.py:52-61,134).  Pixel membership: center within
    ``buffer_dist`` of any sub-segment (capsule union — exact).

    Expects per-row polyline columns ``geom_x``/``geom_y``
    (list<double>) or straight-segment ``ax/ay/bx/by``.  The per-edge
    loop is Python, the pixel × segment distance math inside is fully
    vectorized (bbox-clipped per tile) — the same per-row tile loop as
    :class:`PolygonZonalLocal`.  Unlike the other zonal kernels it
    drops the rows of edges whose buffer covers no stored pixel, so it
    runs as a plain ``map_batches`` stage, not through
    ``append_metrics``.
    """

    def __init__(self, tile_root: str, band: str, buffer_dist: float,
                 key_col: str = "edge_id", clamp_min: float | None = 0.0,
                 mean_name: str = "mean_NDVI", std_name: str = "std_NDVI"):
        self.store = TileStore(tile_root)
        self.band = band
        self.d = float(buffer_dist)
        self.key_col = key_col
        self.clamp_min = clamp_min
        self.mean_name = mean_name
        self.std_name = std_name

    def _edge_polyline(self, batch: pa.Table, i: int) -> np.ndarray:
        if "geom_x" in batch.column_names:
            gx = batch.column("geom_x")[i].as_py()
            gy = batch.column("geom_y")[i].as_py()
            if gx and len(gx) >= 2:
                return np.column_stack([np.asarray(gx, np.float64),
                                        np.asarray(gy, np.float64)])
        return np.array([
            [batch.column("ax")[i].as_py(), batch.column("ay")[i].as_py()],
            [batch.column("bx")[i].as_py(), batch.column("by")[i].as_py()],
        ])

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = len(batch)
        psum = np.zeros(n)
        psumsq = np.zeros(n)
        pcount = np.zeros(n, dtype=np.int64)
        res = synth.RASTER_RES
        ts = synth.TILE_SIZE
        d = self.d
        for i in range(n):
            g = self._edge_polyline(batch, i)
            sax, say = g[:-1, 0], g[:-1, 1]
            sdx, sdy = np.diff(g[:, 0]), np.diff(g[:, 1])
            len2 = sdx * sdx + sdy * sdy
            bx0, by0 = g[:, 0].min() - d, g[:, 1].min() - d
            bx1, by1 = g[:, 0].max() + d, g[:, 1].max() + d
            for tx in range(int(np.floor(bx0 / ts)), int(np.floor(bx1 / ts)) + 1):
                for ty in range(int(np.floor(by0 / ts)), int(np.floor(by1 / ts)) + 1):
                    arr = self.store.get(self.band, tx, ty)
                    if arr is None:
                        continue
                    h, w = arr.shape
                    x0t, y0t = tx * ts, ty * ts
                    c0 = max(int(np.floor((bx0 - x0t) / res)), 0)
                    c1 = min(int(np.floor((bx1 - x0t) / res)), w - 1)
                    r0 = max(int(np.floor((by0 - y0t) / res)), 0)
                    r1 = min(int(np.floor((by1 - y0t) / res)), h - 1)
                    if c1 < c0 or r1 < r0:
                        continue
                    px = x0t + (np.arange(c0, c1 + 1, dtype=np.float64) + 0.5) * res
                    py = y0t + (np.arange(r0, r1 + 1, dtype=np.float64) + 0.5) * res
                    gx, gy = np.meshgrid(px, py, indexing="xy")
                    fx = gx.ravel()[:, None]
                    fy = gy.ravel()[:, None]
                    qx = fx - sax[None, :]
                    qy = fy - say[None, :]
                    with np.errstate(divide="ignore", invalid="ignore"):
                        t = (qx * sdx[None, :] + qy * sdy[None, :]) / len2[None, :]
                    t = np.where(len2[None, :] > 0, t, 0.0)
                    t = np.minimum(np.maximum(t, 0.0), 1.0)
                    d2 = (qx - t * sdx[None, :]) ** 2 + (qy - t * sdy[None, :]) ** 2
                    mask = (d2 <= d * d).any(axis=1).reshape(gx.shape)
                    if not mask.any():
                        continue
                    vals = arr[r0 : r1 + 1, c0 : c1 + 1][mask]
                    if self.clamp_min is not None:
                        vals = np.maximum(vals, self.clamp_min)
                    psum[i] += vals.sum()
                    psumsq[i] += (vals * vals).sum()
                    pcount[i] += vals.size
        # drop edges whose buffer covers no stored pixel: the SQL oracle
        # GROUP BYs over matched pixels and omits them — emitting NaN
        # rows here would be a latent gate mismatch (round-2 advice)
        return pa.table({self.key_col: batch.column(self.key_col),
                         **mean_std_columns(psum, psumsq, pcount,
                                            self.mean_name, self.std_name)
                         }).filter(pa.array(pcount > 0))


def areal_cell_weights(rects: "ray.data.Dataset",
                       cell_size: float = 500.0,
                       key_col: str = "gs_id") -> "ray.data.Dataset":
    """Areal-interpolation weights: for every (rect, grid-cell) pair the
    exact overlap area and the fraction of the rect it covers — the
    raster⇄vector reaggregation primitive (transfer a polygon-level
    statistic onto the tile grid, or vice versa, by area weighting).

    One flat-explode pass: ``cells.cover_bbox`` enumerates covered
    cells vectorized, the 1-D interval overlaps multiply into exact
    areas, nothing shuffles — output is a map-only stream of
    O(Σ cells-per-rect) rows.  Zero-area slivers (rect edge exactly on
    a cell line) are dropped to keep the pair set minimal.
    """
    from .. import cells as _cells

    def explode(batch: pa.Table) -> pa.Table:
        x0 = batch.column("x0").to_numpy(zero_copy_only=False)
        y0 = batch.column("y0").to_numpy(zero_copy_only=False)
        x1 = batch.column("x1").to_numpy(zero_copy_only=False)
        y1 = batch.column("y1").to_numpy(zero_copy_only=False)
        # enumerate (ix, iy) directly: cell_to_indices cannot decode
        # negative iy (the linear key wraps across the stride), and
        # rects near the world's south edge do go below y = 0
        ix0 = np.floor(x0 / cell_size).astype(np.int64)
        ix1 = np.floor(x1 / cell_size).astype(np.int64)
        iy0 = np.floor(y0 / cell_size).astype(np.int64)
        iy1 = np.floor(y1 / cell_size).astype(np.int64)
        nx, ny = ix1 - ix0 + 1, iy1 - iy0 + 1
        counts = nx * ny
        idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        local = (np.arange(int(counts.sum()), dtype=np.int64)
                 - np.repeat(starts, counts))
        ny_rep = np.repeat(ny, counts)
        ix = np.repeat(ix0, counts) + local // ny_rep
        iy = np.repeat(iy0, counts) + local - (local // ny_rep) * ny_rep
        cell = _cells.cell_id(ix, iy)
        cx0, cy0 = ix * cell_size, iy * cell_size
        ox = (np.minimum(x1[idx], cx0 + cell_size)
              - np.maximum(x0[idx], cx0))
        oy = (np.minimum(y1[idx], cy0 + cell_size)
              - np.maximum(y0[idx], cy0))
        area = ox * oy
        keep = area > 0.0
        full = (x1 - x0) * (y1 - y0)
        return pa.table({
            key_col: batch.column(key_col).take(pa.array(idx[keep])),
            "cell": pa.array(cell[keep]),
            "overlap_area": pa.array(np.round(area[keep], 6)),
            "frac": pa.array(np.round(area[keep] / full[idx][keep], 6)),
        })

    return rects.map_batches(explode, batch_format="pyarrow",
                             zero_copy_batch=True)


#: zonal-median micro-unit quantization (values quantize BEFORE the
#: median so even-count interpolation (a+b)/2 is exact on both engines)
MEDIAN_Q = 1_000_000.0


class ZonalMedianLocal:
    """map_batches actor: per-PoI MEDIAN of the clamped raster values
    in the ``radius`` disk (the percentile sibling of
    :class:`ZonalStatsLocal` — SURVEY M14's aggregate family).

    Pixels quantize to int64 micro-units first (``floor(max(v,0)·1e6
    + 0.5)``, the oracle's identical double expression over the exact
    pixel table), so ``np.median`` over ints equals SQL
    ``quantile_cont(vq, 0.5)`` bit-for-bit: odd counts pick the same
    int, even counts average two ints ≤ 2^52 — exact in float64 either
    way.  One halo'd window fetch per point; per-point work is one
    vectorized mask + partition."""

    def __init__(self, tile_root: str, band: str, radius: float,
                 key_col: str = "doc_id"):
        self.store = TileStore(tile_root)
        self.band = band
        self.radius = float(radius)
        self.key_col = key_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..sources import synth

        res = synth.RASTER_RES
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        r = self.radius
        med = np.empty(len(x))
        npx = np.empty(len(x), dtype=np.int64)
        for i in range(len(x)):
            c0 = int(np.floor((x[i] - r) / res))
            c1 = int(np.floor((x[i] + r) / res))
            r0 = int(np.floor((y[i] - r) / res))
            r1 = int(np.floor((y[i] + r) / res))
            win = self.store.window(self.band, r0, c0,
                                    r1 - r0 + 1, c1 - c0 + 1, fill=np.nan)
            cx = (np.arange(c0, c1 + 1) * res + res / 2.0)[None, :]
            cy = (np.arange(r0, r1 + 1) * res + res / 2.0)[:, None]
            inside = ((cx - x[i]) * (cx - x[i])
                      + (cy - y[i]) * (cy - y[i]) <= r * r)
            v = win[inside & np.isfinite(win)]
            vq = np.floor(np.maximum(v, 0.0) * MEDIAN_Q + 0.5) \
                .astype(np.int64)
            npx[i] = len(vq)
            med[i] = np.median(vq) if len(vq) else np.nan
        return pa.table({
            self.key_col: batch.column(self.key_col),
            "median_q": pa.array(med, pa.float64(),
                                 mask=(npx == 0)),
            "n_pix": pa.array(npx),
        })
