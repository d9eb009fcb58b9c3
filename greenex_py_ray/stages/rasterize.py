"""Vector→raster burn: rasterize axis-aligned polygons onto a tiled
pixel grid (the inverse of the zonal raster⇄vector alignment; the
reference consumes rasters it downloads, but any production greenness
pipeline also has to BURN vector layers — greenspace masks, canopy
footprints — into the tile store the zonal stages read).

Coverage rule: a pixel is covered iff its CENTER lies inside the rect
(``(c + 0.5)·res ∈ [x0, x1)``) — so each rect reduces to an integer
column/row range (``ceil(x/res − 0.5)`` bounds, the identical double
expression in the SQL oracle) and the per-tile burned count is the
AREA OF THE UNION of integer rectangles, exact in both engines.

Physical plan (the tile-partitioned shuffle path, not a broadcast):
stage 1 converts each rect to pixel ranges and FLAT-MAPS it to every
tile it touches (vectorized repeat/offset enumeration, one row per
(rect, tile) with the range pre-clipped to the tile) — the only
shuffle then groups by tile-bucket, and each bucket burns its tiles'
boolean masks with numpy slice assignment (a loop over tiles and
their few covering rects, never over pixels or all rects).  At 100 TB
the rect side streams and tiles partition the work; no global state.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..functions.exchange import bucket_exchange

#: positive bias for packed tile keys (negative-index aliasing guard)
_TB = np.int64(1 << 20)


def rasterize_coverage(rects: "ray.data.Dataset", res: float,
                       tile_px: int = 256) -> "ray.data.Dataset":
    """Burn rects (x0, y0, x1, y1) onto the ``res``-metre pixel grid;
    one output row per touched tile: (tix, tiy, n_covered) where
    ``n_covered`` counts pixels covered by >= 1 rect (union, not sum).
    """
    res = float(res)
    px = int(tile_px)

    def to_tiles(batch: pa.Table) -> pa.Table:
        x0 = batch.column("x0").to_numpy(zero_copy_only=False)
        y0 = batch.column("y0").to_numpy(zero_copy_only=False)
        x1 = batch.column("x1").to_numpy(zero_copy_only=False)
        y1 = batch.column("y1").to_numpy(zero_copy_only=False)
        # inclusive integer pixel ranges under the centre-in rule
        c0 = np.ceil(x0 / res - 0.5).astype(np.int64)
        c1 = np.ceil(x1 / res - 0.5).astype(np.int64) - 1
        r0 = np.ceil(y0 / res - 0.5).astype(np.int64)
        r1 = np.ceil(y1 / res - 0.5).astype(np.int64) - 1
        ok = (c1 >= c0) & (r1 >= r0)
        c0, c1, r0, r1 = c0[ok], c1[ok], r0[ok], r1[ok]
        # enumerate covered tiles (repeat/offset, no Python loop)
        tx0, tx1 = c0 // px, c1 // px
        ty0, ty1 = r0 // px, r1 // px
        spans = (tx1 - tx0 + 1) * (ty1 - ty0 + 1)
        tot = int(spans.sum())
        if tot == 0:
            return pa.table({k: pa.array([], pa.int64())
                             for k in ("tkey", "lc0", "lc1", "lr0", "lr1")})
        rix = np.repeat(np.arange(len(c0)), spans)
        local = np.arange(tot) - np.repeat(np.cumsum(spans) - spans, spans)
        h = np.repeat(ty1 - ty0 + 1, spans)
        tix = np.repeat(tx0, spans) + local // h
        tiy = np.repeat(ty0, spans) + local % h
        return pa.table({
            "tkey": pa.array((tix + _TB) * (np.int64(1) << np.int64(21))
                             + (tiy + _TB)),
            "lc0": pa.array(np.maximum(c0[rix], tix * px)),
            "lc1": pa.array(np.minimum(c1[rix], tix * px + px - 1)),
            "lr0": pa.array(np.maximum(r0[rix], tiy * px)),
            "lr1": pa.array(np.minimum(r1[rix], tiy * px + px - 1)),
        })

    def burn(t: pa.Table) -> pa.Table:
        k = t.column("tkey").to_numpy(zero_copy_only=False).astype(np.int64)
        lc0 = t.column("lc0").to_numpy(zero_copy_only=False)
        lc1 = t.column("lc1").to_numpy(zero_copy_only=False)
        lr0 = t.column("lr0").to_numpy(zero_copy_only=False)
        lr1 = t.column("lr1").to_numpy(zero_copy_only=False)
        order = np.argsort(k, kind="stable")
        k, lc0, lc1, lr0, lr1 = (a[order] for a in (k, lc0, lc1, lr0, lr1))
        uk, starts = np.unique(k, return_index=True)
        bounds = np.append(starts, len(k))
        out_x, out_y, out_n = [], [], []
        mask = np.zeros((px, px), dtype=bool)
        for g in range(len(uk)):
            tix = uk[g] // (np.int64(1) << np.int64(21)) - _TB
            tiy = uk[g] % (np.int64(1) << np.int64(21)) - _TB
            cb, rb = tix * px, tiy * px
            mask[:] = False
            for i in range(starts[g], bounds[g + 1]):
                mask[lr0[i] - rb:lr1[i] - rb + 1,
                     lc0[i] - cb:lc1[i] - cb + 1] = True
            out_x.append(tix)
            out_y.append(tiy)
            out_n.append(int(mask.sum()))
        return pa.table({
            "tix": pa.array(np.asarray(out_x, np.int64)),
            "tiy": pa.array(np.asarray(out_y, np.int64)),
            "n_covered": pa.array(np.asarray(out_n, np.int64)),
        })

    return bucket_exchange(
        rects.map_batches(to_tiles, batch_format="pyarrow",
                          zero_copy_batch=True),
        "tkey", burn, 64)
