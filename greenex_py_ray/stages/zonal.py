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
take a batch's disks apart into chords on the global pixel lattice
(:func:`disk_chords`), and one reducer (:func:`chord_sums`) reads each
chord's sums off the tile store's stacked, memory-mapped row-cumsum
planes (``state/tiles.py``) with flat gathers, whatever tiles the chord
crosses.  Polygon AoIs (``PolygonZonalLocal`` /
``PolygonLandcoverLocal``) loop over the tiles each row's ring bbox
covers and mask those tiles' pixels; any worker reads any tile, so a
row's whole AoI is reduced in its own task.

The AoI here is the euclidean disk of ``radius`` (pixel-center-in-circle
test — the limit of the reference's 64-gon buffer discretization; exact
circle chosen so the DuckDB oracle can reproduce values bit-for-bit).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sources import synth
from ..state.tiles import TileStore


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
        mask = _geom.points_within_rings_dist(
            gx.ravel(), gy.ravel(), rings_i, self.dilate).reshape(gx.shape)
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


def disk_chords(x: np.ndarray, y: np.ndarray, r: float):
    """Each point's disk of radius ``r`` as chords on the global pixel
    lattice (pixel ``(row, col)`` centred at ``((col+0.5)·res,
    (row+0.5)·res)``): ``(row, lo, hi)``, each ``(len(x), K)``, the rows
    a disk can meet and each row's inclusive column bounds, ``hi = lo -
    1`` for an empty row or a point without finite coordinates.  Bounds
    from sqrt are corrected by ±1 against the ORIGINAL inequality
    ``dx²+dy² ≤ r²``, so the pixel set is exactly the direct mask's (and
    the SQL oracle's)."""
    res = synth.RASTER_RES
    fin = np.isfinite(x) & np.isfinite(y)
    x = np.where(fin, x, 0.0)[:, None]
    y = np.where(fin, y, 0.0)
    rr = r * r
    k = np.arange(int(2 * r / res) + 3)
    r0 = np.floor((y - r) / res)
    # pixel centres, half-integers times res, are exact, and stay exact
    # when shifted by res
    dy2 = (((r0 + 0.5) * res)[:, None] + k * res - y[:, None]) ** 2
    half = np.sqrt(np.maximum(rr - dy2, 0.0))
    lo = (np.ceil((x - half) / res - 0.5) + 0.5) * res
    hi = (np.floor((x + half) / res - 0.5) + 0.5) * res
    lo = np.where((lo - res - x) ** 2 + dy2 <= rr, lo - res, lo)
    lo = np.where((lo - x) ** 2 + dy2 <= rr, lo, lo + res)
    hi = np.where((hi + res - x) ** 2 + dy2 <= rr, hi + res, hi)
    hi = np.where((hi - x) ** 2 + dy2 <= rr, hi, hi - res)
    lo = (lo / res - 0.5).astype(np.int64)
    hi = (hi / res - 0.5).astype(np.int64)
    hi = np.where(fin[:, None] & (dy2 <= rr), np.maximum(hi, lo - 1), lo - 1)
    return r0.astype(np.int64)[:, None] + k, lo, hi


def chord_sums(stack: np.ndarray, c0: np.ndarray, table, chords):
    """Per point, the sums over its ``chords`` (as :func:`disk_chords`
    gives them) of each channel of a band's row-cumsum ``stack``, and its
    pixel count: ``(sums (n, k), count (n,))``; ``stack``, ``c0`` and
    the slot ``table`` come from ``TileStore.stack``.  Pass ``j`` reads
    the piece of each chord ``j`` tiles past its first: two flat
    ``take``s per piece and channel.  An absent tile's piece reads the
    zero first column of slot 0.  A piece counts its finite pixels on a
    tile with a NaN (from ``c0``), its length elsewhere."""
    n, kk = chords[0].shape
    row, lo, hi = (a.reshape(-1) for a in chords)
    _, k, h, w1 = stack.shape
    sums, count = np.zeros((n, k)), np.zeros(n)
    if not len(stack):
        return sums, count.astype(np.int64)
    px = synth.TILE_PX
    p = np.arange(n * kk) // kk
    tiy = row // px
    row = row - tiy * px
    t0 = lo // px
    cross = hi // px - t0
    flat, flat0 = stack.reshape(-1), c0.reshape(-1)
    sel = slice(None)
    for j in range(cross.max(initial=0) + 1):
        if j:
            sel = np.flatnonzero(cross >= j)
        t = t0[sel] + j
        a = np.maximum(lo[sel] - t * px, 0)
        e = np.minimum(hi[sel] + 1 - t * px, px)
        slot, c0slot = table.slots(t, tiy[sel])
        ok = slot >= 0
        base = (slot * k * h + row[sel]) * w1
        ia, ie = (base + a) * ok, (base + e) * ok
        for c in range(k):
            off = c * h * w1  # channel c's zero column, for an absent tile
            sums[:, c] += np.bincount(p[sel], flat[ie + off] - flat[ia + off], n)
        cnt = (e - a) * ok
        nan = np.flatnonzero(c0slot >= 0)
        b = (c0slot[nan] * h + row[sel][nan]) * w1
        cnt[nan] = flat0[b + e[nan]] - flat0[b + a[nan]]
        count += np.bincount(p[sel], cnt, n)
    return sums, count.astype(np.int64)


#: chord rows per :func:`disk_sums` pass, so its arrays stay in cache
PASS_ROWS = 1 << 14


def disk_sums(store: TileStore, plane: tuple, band: str, x: np.ndarray,
              y: np.ndarray, r: float):
    """:func:`chord_sums` of each point's :func:`disk_chords` over the
    store's stacked ``plane`` of ``band``, in passes over points taken in
    tile order, so a pass's gathers stay in a few tiles.  The store
    counts a lookup of each tile the batch's disk bounding boxes cover."""
    ts = synth.TILE_SIZE
    fin = np.isfinite(x) & np.isfinite(y)
    boxes = set(zip(*(np.floor(v / ts).astype(np.int64).tolist() for v in
                      (x[fin] - r, y[fin] - r, x[fin] + r, y[fin] + r))))
    stack, c0, table = store.stack(plane, band, {
        (i, j) for x0, y0, x1, y1 in boxes
        for i in range(x0, x1 + 1) for j in range(y0, y1 + 1)})
    order = np.lexsort((y, np.floor(x / ts), np.floor(y / ts)))
    sums = np.empty((len(x), stack.shape[1]))
    count = np.empty(len(x), np.int64)
    step = max(1, PASS_ROWS // (int(2 * r / synth.RASTER_RES) + 3))
    for s in range(0, len(x), step):
        i = order[s:s + step]
        sums[i], count[i] = chord_sums(stack, c0, table, disk_chords(x[i], y[i], r))
    return sums, count


class ZonalStatsLocal:
    """Fused zonal stage: poi(key, x, y) batches → FINAL per-key
    mean/std, no shuffle: each row's whole disk is reduced in its task.

    Kernel: :func:`disk_sums`, each disk's chords on the global pixel
    lattice reduced over the store's stacked row-cumsum planes of the
    clamped value and its square (``TileStore.stack``, converted once
    per tile file), whatever the radius and however many tiles a disk
    spans.  The pixel set is bit-identical to the direct mask (and to
    the SQL oracle); only floating-point summation order differs.
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

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        sums, count = disk_sums(self.store, ("sat", self.clamp_min), self.band,
                                x, y, self.radius)
        return pa.table({self.key_col: batch.column(self.key_col),
                         **mean_std_columns(sums[:, 0], sums[:, 1], count,
                                            self.mean_name, self.std_name)})


class LandcoverLocal:
    """Fused landcover percentages (no shuffle), analog of
    :class:`ZonalStatsLocal`: the same chord pass, reduced over the
    store's stacked PER-CLASS row-cumsum planes into exact class
    counts."""

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

    def _counts(self, batch: pa.Table):
        """Per-row class counts ``(n, ncls)`` and pixel totals ``(n,)``
        of each point's disk."""
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        counts, total = disk_sums(self.store, ("cls", tuple(self.classes)),
                                  self.band, x, y, self.radius)
        return counts.astype(np.int64), total

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
    :class:`PolygonZonalLocal`.  One row per edge, with its pixel
    count ``n_pixels``: the stage drops the edges whose buffer covers
    no stored pixel (``pipelines.availability.mean_ndvi_line_aoi``).
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
        return pa.table({self.key_col: batch.column(self.key_col),
                         **mean_std_columns(psum, psumsq, pcount,
                                            self.mean_name, self.std_name),
                         "n_pixels": pa.array(pcount)})


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
