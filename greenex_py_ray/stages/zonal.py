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
crosses.  Shaped AoIs — a row's own polygon, that polygon dilated
(``PolygonZonalLocal`` / ``PolygonLandcoverLocal``) or a buffered
polyline (``LineZonalLocal``) — become chords on the same lattice
(:func:`shape_chords`: a scanline per pixel row, united with each
edge's capsule section) and go through the same reducer.  Any worker
reads any tile, so a row's whole AoI is reduced in its own task.

The AoI here is the euclidean disk of ``radius`` (pixel-center-in-circle
test — the limit of the reference's 64-gon buffer discretization; exact
circle chosen so the DuckDB oracle can reproduce values bit-for-bit).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .. import geom as _geom
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


def pct_strings(pct: np.ndarray) -> pa.Array:
    """The reference's ``str(round(pct, n)) + '%'`` strings of already
    rounded percentages (availability.py:764,1080); NaN is null."""
    return pa.array([None if np.isnan(v) else f"{v!s}%" for v in pct],
                    pa.string())


def pct_columns(counts: np.ndarray, total: np.ndarray, names: list[str],
                stringify: bool = False) -> dict:
    """Per-class percentage columns ``count/total*100`` rounded to 3
    (availability.py:1068-1082) from per-row class counts ``(n, ncls)``
    and pixel totals; ``stringify`` gives the reference's ``"12.345%"``
    strings (:func:`pct_strings`).  A row with no pixel gets NaN (null
    as a string)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        pct = np.round(counts / total.astype(np.float64)[:, None] * 100.0, 3)
    return {name: pct_strings(pct[:, j]) if stringify else pa.array(pct[:, j])
            for j, name in enumerate(names)}


def split_rings(ring: np.ndarray, sizes) -> "list[np.ndarray]":
    """Flattened ring vertices + per-ring sizes → list of ring arrays."""
    if sizes and len(sizes) > 1:
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        return [ring[bounds[j]:bounds[j + 1]] for j in range(len(sizes))]
    return [ring]


def batch_rings(batch: pa.Table) -> "list[list[np.ndarray]]":
    """Each row's rings from its flattened ``ring_x``/``ring_y`` vertices
    and optional ``ring_sizes``; a row without vertices has none."""
    rx = batch.column("ring_x").to_pylist()
    ry = batch.column("ring_y").to_pylist()
    sizes = (batch.column("ring_sizes").to_pylist()
             if "ring_sizes" in batch.column_names else [None] * len(rx))
    return [split_rings(np.column_stack([rx[i], ry[i]]), sizes[i]) if rx[i]
            else [] for i in range(len(rx))]


class PolygonZonalLocal:
    """Mean/std where the AoI is each row's own POLYGON geometry
    (aoi_kind='polygon', availability.py:230-234) instead of a buffer;
    one output row per input row, in input order.

    Expects flattened ring columns ``ring_x: list<double>,
    ring_y: list<double>`` (optionally ``ring_sizes``); the pixel
    membership test is center-in-polygon (rio.clip all_touched=False
    semantics).  ``dilate`` > 0 gives the polygon-buffered AoI
    (``poi.geometry.buffer(buffer_dist)`` on polygon PoIs,
    availability.py:235-237) at pixel resolution.  Kernel: the batch's
    :func:`shape_chords` reduced by :func:`shape_sums`, like the disk
    kernels; NaN pixels are skipped."""

    def __init__(self, tile_root: str, band: str, key_col: str = "doc_id",
                 clamp_min: float | None = 0.0, dilate: float = 0.0):
        self.store = TileStore(tile_root)
        self.band = band
        self.key_col = key_col
        self.clamp_min = clamp_min
        self.dilate = float(dilate)

    def _sums(self, batch: pa.Table, plane: tuple):
        chords = shape_chords(*ring_edges(batch_rings(batch)), self.dilate)
        return shape_sums(self.store, plane, self.band, len(batch), chords)

    def __call__(self, batch: pa.Table) -> pa.Table:
        sums, count = self._sums(batch, ("sat", self.clamp_min))
        return pa.table({self.key_col: batch.column(self.key_col),
                         **mean_std_columns(sums[:, 0], sums[:, 1], count)})


class PolygonLandcoverLocal(PolygonZonalLocal):
    """Landcover class percentages where the AoI is the row's own
    (optionally dilated) polygon (``get_landcover_percentages`` with
    polygon PoIs, availability.py:361-377 + the same per-class pixel
    ratio as the buffered form); one output row per input row.
    Non-finite pixels are left out of the total."""

    def __init__(self, tile_root: str, classmap: dict[int, str],
                 dilate: float = 0.0, stringify: bool = False):
        super().__init__(tile_root, "lulc", key_col="doc_id", clamp_min=None,
                         dilate=dilate)
        self.classes = sorted(classmap)
        self.names = [classmap[c] for c in self.classes]
        self.stringify = stringify

    def __call__(self, batch: pa.Table) -> pa.Table:
        counts, total = self._sums(batch, ("cls", tuple(self.classes)))
        return pa.table({self.key_col: batch.column(self.key_col),
                         **pct_columns(counts.astype(np.int64), total,
                                       self.names, self.stringify)})


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


def ring_edges(polys) -> tuple:
    """The closed edges of each polygon's rings (``polys``: one list of
    rings per owner): ``(x0, y0, x1, y1, owner)``."""
    rings = [(i, r) for i, p in enumerate(polys) for r in p if len(r)]
    xy = np.concatenate([r for _, r in rings] or [np.zeros((0, 2))])
    size = np.array([len(r) for _, r in rings], np.int64)
    nxt = np.arange(1, len(xy) + 1)
    nxt[np.cumsum(size) - 1] = np.cumsum(size) - size  # last → first vertex
    owner = np.repeat(np.array([i for i, _ in rings], np.int64), size)
    return xy[:, 0], xy[:, 1], xy[nxt, 0], xy[nxt, 1], owner


def polyline_edges(batch: pa.Table) -> tuple:
    """Each row's polyline — ``geom_x``/``geom_y`` when it has two points
    or more, else the segment ``ax, ay``–``bx, by`` — as open segments:
    ``(x0, y0, x1, y1, owner)``."""
    cols = batch.column_names
    none = [None] * len(batch)
    gx, gy = ([batch.column(c).to_pylist() for c in ("geom_x", "geom_y")]
              if "geom_x" in cols else (none, none))
    ax, ay, bx, by = ([batch.column(c).to_pylist() for c in ("ax", "ay", "bx", "by")]
                      if "ax" in cols else (none,) * 4)
    rows = [(gx[i], gy[i]) if gx[i] and len(gx[i]) >= 2
            else ([ax[i], bx[i]], [ay[i], by[i]]) for i in range(len(batch))]
    x = np.array([v for xs, _ in rows for v in xs], np.float64)
    y = np.array([v for _, ys in rows for v in ys], np.float64)
    owner = np.repeat(np.arange(len(rows)), [len(xs) for xs, _ in rows])
    s = np.flatnonzero(owner[1:] == owner[:-1])
    return x[s], y[s], x[s + 1], y[s + 1], owner[s]


def _row_spans(r0, r1):
    """``(i, row)`` for every integer ``r0[i] ≤ row ≤ r1[i]``."""
    r0 = r0.astype(np.int64)
    k = np.maximum(r1.astype(np.int64) - r0 + 1, 0)
    i = np.repeat(np.arange(len(k)), k)
    return i, r0[i] + np.arange(k.sum()) - np.repeat(np.cumsum(k) - k, k)


def _fit(lo, hi, inside) -> None:
    """Move chord bounds ``lo``/``hi`` (in place) a column at a time until
    each is the outermost column where ``inside(cols, chords)`` holds:
    out while the next column holds, then in while the bound does not.
    A chord with no such column ends with ``hi < lo``."""
    for b, step, grow in ((lo, -1, True), (hi, 1, True),
                          (lo, 1, False), (hi, -1, False)):
        i = np.arange(len(b))
        while len(i):
            i = i[inside(b[i] + step, i) if grow
                  else (lo[i] <= hi[i]) & ~inside(b[i], i)]
            b[i] += step


def _scan_chords(x0, y0, x1, y1, owner):
    """The polygon chords of every owner's closed edges: on each pixel
    row, the columns whose centre has an odd count of edges crossing
    its row right of it, by ``geom.points_in_polygon``'s half-open rule
    and crossing formula, parity over all of the owner's rings."""
    res = synth.RASTER_RES
    e, row = _row_spans(np.floor(np.minimum(y0, y1) / res - 0.5),
                        np.ceil(np.maximum(y0, y1) / res - 0.5))
    py = (row + 0.5) * res
    hit = (y0[e] > py) != (y1[e] > py)
    e, row, py = e[hit], row[hit], py[hit]
    xint = x0[e] + (py - y0[e]) / (y1[e] - y0[e]) * (x1[e] - x0[e])
    # a closed ring crosses a row an even number of times: sorted, each
    # (owner, row)'s crossings pair up as half-open spans [a, b)
    o = np.lexsort((xint, row, owner[e]))
    a, b = xint[o[0::2]], xint[o[1::2]]
    lo = np.ceil(a / res - 0.5).astype(np.int64)
    hi = np.ceil(b / res - 0.5).astype(np.int64) - 1

    def inside(c, i):
        px = (c + 0.5) * res
        return (px >= a[i]) & (px < b[i])

    _fit(lo, hi, inside)
    return owner[e][o[0::2]], row[o[0::2]], lo, hi


def _capsule_chords(x0, y0, x1, y1, owner, d: float, sqrt_rule: bool):
    """On each pixel row, the columns whose centre is within ``d`` of
    one segment, by ``geom.seg_d2``: ``sqrt(d2) <= d`` when
    ``sqrt_rule`` (``geom.points_within_rings_dist``), else ``d2 <=
    d*d``.  Starts from each row's section of the capsule (its end disks
    and its two sides); :func:`_fit` then makes the bounds exact."""
    res = synth.RASTER_RES
    e, row = _row_spans(np.floor((np.minimum(y0, y1) - d) / res) - 1,
                        np.floor((np.maximum(y0, y1) + d) / res) + 1)
    py = (row + 0.5) * res
    ax, ay, bx, by = x0[e], y0[e], x1[e], y1[e]
    ux, uy = bx - ax, by - ay
    lo, hi = np.full(len(e), np.inf), np.full(len(e), -np.inf)
    # an end disk's row offset as seg_d2 computes it at t = 0 and t = 1:
    # a centre nearest that end is inside only if the offset alone is
    for ex, q in ((ax, py - ay), (bx, (py - ay) - uy)):
        h = np.where((q * q <= d * d) | (np.abs(q) <= d),
                     np.sqrt(np.maximum(d * d - q * q, 0.0)), -np.inf)
        lo, hi = np.minimum(lo, ex - h), np.maximum(hi, ex + h)
    ln = np.hypot(ux, uy)
    with np.errstate(divide="ignore", invalid="ignore"):
        for s in (d, -d):
            t = (py - ay - s * ux / ln) / uy
            xs = np.where((t >= 0.0) & (t <= 1.0), ax + t * ux - s * uy / ln, np.nan)
            lo, hi = np.fmin(lo, xs), np.fmax(hi, xs)
    keep = lo <= hi
    e, row, py, lo, hi = e[keep], row[keep], py[keep], lo[keep], hi[keep]
    lo = np.ceil(lo / res - 0.5).astype(np.int64)
    hi = np.floor(hi / res - 0.5).astype(np.int64)

    def inside(c, i):
        d2 = _geom.seg_d2((c + 0.5) * res, py[i], x0[e[i]], y0[e[i]],
                          x1[e[i]], y1[e[i]])
        return np.sqrt(d2) <= d if sqrt_rule else d2 <= d * d

    _fit(lo, hi, inside)
    return owner[e], row, lo, hi


def merge_chords(owner, row, lo, hi):
    """Chords in any order, empty ones (``hi < lo``) included → each
    ``(owner, row)``'s union: sorted by owner, row and column, with no
    two overlapping or touching."""
    keep = hi >= lo
    o = np.lexsort((lo[keep], row[keep], owner[keep]))
    owner, row, lo, hi = (v[keep][o] for v in (owner, row, lo, hi))
    if not len(lo):
        return owner, row, lo, hi
    new = np.r_[True, (owner[1:] != owner[:-1]) | (row[1:] != row[:-1])]
    # running max of hi within each (owner, row): offset each run above
    # the last
    base = (np.cumsum(new) - 1) * (hi.max() - hi.min() + 1) - hi.min()
    top = np.maximum.accumulate(hi + base) - base
    start = np.flatnonzero(new | np.r_[True, lo[1:] > top[:-1] + 1])
    return owner[start], row[start], lo[start], top[np.r_[start[1:], len(lo)] - 1]


def shape_chords(x0, y0, x1, y1, owner, d: float = 0.0, area: bool = True):
    """Shaped AoIs as merged chords on the global pixel lattice (see
    :func:`disk_chords`): flat ``(owner, row, lo, hi)``, no two chords of
    one owner overlapping in a row.  ``area``: the edges close rings,
    and an owner's AoI is its even-odd polygon (``geom.points_in_rings``)
    united, for ``d > 0``, with every pixel centre within ``d`` of an
    edge by ``sqrt(d2) <= d`` (``geom.points_within_rings_dist``).  Else
    the edges are a polyline's open segments, and its AoI is the pixel
    centres with ``d2 <= d*d`` to a segment, ``d > 0`` (at ``d = 0``
    rounding breaks a row's on-segment set into pieces).  Every bound
    is fitted against those predicates, so the pixel set is theirs
    exactly."""
    parts = []
    if area:
        parts.append(_scan_chords(x0, y0, x1, y1, owner))
    if d > 0.0 or not area:
        parts.append(_capsule_chords(x0, y0, x1, y1, owner, d, sqrt_rule=area))
    return merge_chords(*(np.concatenate(v) for v in zip(*parts)))


def chord_sums(stack: np.ndarray, c0: np.ndarray, table, n: int, chords):
    """Per owner, the sums over its ``chords`` — flat ``(owner, row, lo,
    hi)`` (:func:`shape_chords`, or :func:`disk_chords` flattened), one
    owner's not overlapping — of each channel of a band's row-cumsum
    ``stack``, and its pixel count: ``(sums (n, k), count (n,))``;
    ``stack``, ``c0`` and the slot ``table`` come from
    ``TileStore.stack``.  Pass ``j`` reads the piece of each chord ``j``
    tiles past its first: two flat ``take``s per piece and channel.  An
    absent tile's piece reads the zero first column of slot 0.  A piece
    counts its finite pixels on a tile with a NaN (from ``c0``), its
    length elsewhere."""
    p, row, lo, hi = chords
    _, k, h, w1 = stack.shape
    sums, count = np.zeros((n, k)), np.zeros(n)
    if not len(stack):
        return sums, count.astype(np.int64)
    px = synth.TILE_PX
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
    kk = int(2 * r / synth.RASTER_RES) + 3
    step = max(1, PASS_ROWS // kk)
    for s in range(0, len(x), step):
        i = order[s:s + step]
        chords = disk_chords(x[i], y[i], r)
        sums[i], count[i] = chord_sums(stack, c0, table, len(i), (
            np.repeat(np.arange(len(i)), kk),) + tuple(v.reshape(-1) for v in chords))
    return sums, count


def shape_sums(store: TileStore, plane: tuple, band: str, n: int, chords):
    """:func:`chord_sums` of ``n`` owners' :func:`shape_chords` over the
    store's stacked ``plane`` of ``band``; the store counts a lookup of
    each tile the chords touch."""
    _, row, lo, hi = chords
    px = synth.TILE_PX
    i, tix = _row_spans(lo // px, hi // px)
    tiy = row[i] // px
    t0 = tix.min(initial=0)
    w = tix.max(initial=0) - t0 + 1
    key = np.unique(tiy * w + tix - t0)
    stack, c0, table = store.stack(plane, band, set(zip(
        (key % w + t0).tolist(), (key // w).tolist())))
    return chord_sums(stack, c0, table, n, chords)


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

    def __init__(self, tile_root: str, band: str, radius: float):
        self.store = TileStore(tile_root)
        self.band = band
        self.radius = radius
        self.key_col = "doc_id"
        self.clamp_min = 0.0
        self.mean_name = "mean_NDVI"
        self.std_name = "std_NDVI"

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
    ``buffer_dist`` of any sub-segment (capsule union — exact, ``d2 <=
    d*d``); NaN pixels are skipped.

    Expects per-row polyline columns ``geom_x``/``geom_y``
    (list<double>) or straight-segment ``ax/ay/bx/by``.  Kernel: the
    batch's :func:`shape_chords` of open segments reduced by
    :func:`shape_sums`, like :class:`PolygonZonalLocal`.  One row per
    edge, with its pixel count ``n_pixels``: the stage drops the edges
    whose buffer covers no stored finite pixel
    (``pipelines.availability.mean_ndvi_line_aoi``).
    """

    def __init__(self, tile_root: str, band: str, buffer_dist: float):
        self.store = TileStore(tile_root)
        self.band = band
        self.d = float(buffer_dist)
        self.key_col = "edge_id"
        self.clamp_min = 0.0
        self.mean_name = "mean_NDVI"
        self.std_name = "std_NDVI"

    def __call__(self, batch: pa.Table) -> pa.Table:
        chords = shape_chords(*polyline_edges(batch), self.d, area=False)
        sums, count = shape_sums(self.store, ("sat", self.clamp_min),
                                 self.band, len(batch), chords)
        return pa.table({self.key_col: batch.column(self.key_col),
                         **mean_std_columns(sums[:, 0], sums[:, 1], count,
                                            self.mean_name, self.std_name),
                         "n_pixels": pa.array(count)})


def areal_cell_weights(rects: "ray.data.Dataset",
                       cell_size: float = 500.0) -> "ray.data.Dataset":
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
        # enumerate (ix, iy) directly: the linear cell key cannot be
        # decoded for negative iy (it wraps across the stride), and
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
            "gs_id": batch.column("gs_id").take(pa.array(idx[keep])),
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
    """Kernel: per-PoI MEDIAN of the clamped raster values
    in the ``radius`` disk (the percentile sibling of
    :class:`ZonalStatsLocal` — SURVEY M14's aggregate family).

    Pixels quantize to int64 micro-units first (``floor(max(v,0)·1e6
    + 0.5)``, the oracle's identical double expression over the exact
    pixel table), so ``np.median`` over ints equals SQL
    ``quantile_cont(vq, 0.5)`` bit-for-bit: odd counts pick the same
    int, even counts average two ints ≤ 2^52 — exact in float64 either
    way.  One halo'd window fetch per point; per-point work is one
    vectorized mask + partition."""

    def __init__(self, tile_root: str, band: str, radius: float):
        self.store = TileStore(tile_root)
        self.band = band
        self.radius = float(radius)
        self.key_col = "doc_id"

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
