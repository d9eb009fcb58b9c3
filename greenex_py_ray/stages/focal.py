"""Focal (moving-window) raster statistics over the tile store.

The zonal stages aggregate raster values per VECTOR zone; focal ops
aggregate per PIXEL over a neighborhood window — the standard raster
smoothing/terrain primitive (e.g. focal-mean NDVI before thresholding
greenness, the reference's rasters are consumed pre-smoothed).  The
distributed shape is the interesting part: each tile is processed by
one task that fetches its window WITH A 1-PIXEL HALO through the tile
store (``TileStore.window`` stitches neighbor tiles; outside-world
pixels arrive NaN) — no shuffle at all, tiles partition the work, and
the halo read is the only cross-tile traffic.

Cross-engine exactness: pixel values quantize FIRST
(``floor(v·1e6 + 0.5)`` int64 — the identical double expression in
the SQL oracle), then all focal sums are int64 — order-free, so the
engine's shifted-slice accumulation matches the oracle's 9-offset
equi-join bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..functions.joins import KernelStage
from ..state.tiles import TileStore

#: micro-unit quantization of pixel values before any focal sum
FOCAL_Q = 1_000_000.0


class FocalTileStats:
    """Kernel: per input (tix, tiy) tile row, the 3×3 focal
    aggregate over every pixel CENTERED in the tile — ``focal_q`` =
    Σ_centers Σ_neighbors q (int64 micro-units), ``n_nbr`` = Σ_centers
    (#existing neighbors).  Boundary pixels simply have fewer
    neighbors (NaN fill excluded), matching the oracle's inner join.
    """

    def __init__(self, tile_root: str, band: str = "ndvi"):
        from ..sources import synth

        self.store = TileStore(tile_root)
        self.band = band
        self.px = synth.TILE_PX

    def __call__(self, batch: pa.Table) -> pa.Table:
        tix = batch.column("tix").to_numpy(zero_copy_only=False)
        tiy = batch.column("tiy").to_numpy(zero_copy_only=False)
        px = self.px
        out_q = np.empty(len(tix), dtype=np.int64)
        out_n = np.empty(len(tix), dtype=np.int64)
        for i in range(len(tix)):
            win = self.store.window(self.band, int(tiy[i]) * px - 1,
                                    int(tix[i]) * px - 1, px + 2, px + 2,
                                    fill=np.nan)
            fin = np.isfinite(win)
            q = np.where(fin, np.floor(win * FOCAL_Q + 0.5), 0.0) \
                .astype(np.int64)
            cnt = fin.astype(np.int64)
            sq = np.zeros((px, px), dtype=np.int64)
            sn = np.zeros((px, px), dtype=np.int64)
            for dr in (0, 1, 2):
                for dc in (0, 1, 2):
                    sq += q[dr:dr + px, dc:dc + px]
                    sn += cnt[dr:dr + px, dc:dc + px]
            # centers must exist themselves (the oracle's ctr table is
            # real pixels); halo-only rows can't occur for in-world
            # tiles, but guard uniformly
            center = fin[1:-1, 1:-1]
            out_q[i] = sq[center].sum()
            out_n[i] = sn[center].sum()
        return pa.table({
            "tix": pa.array(tix.astype(np.int64)),
            "tiy": pa.array(tiy.astype(np.int64)),
            "focal_q": pa.array(out_q),
            "n_nbr": pa.array(out_n),
        })


def _per_tile(kernel: type, tiles: "list[tuple[int, int]]",
              **kwargs) -> "ray.data.Dataset":
    """``kernel`` run over the (tix, tiy) rows of ``tiles``, in up to
    8 blocks — tiles ARE the partitioning."""
    t = pa.table({
        "tix": pa.array([a for a, _ in tiles], pa.int64()),
        "tiy": pa.array([b for _, b in tiles], pa.int64()),
    })
    ds = ray.data.from_arrow(t).repartition(max(1, min(len(tiles), 8)))
    return KernelStage(kernel, kwargs, dict(num_cpus=0.5)).on(ds)


def focal_stats(tile_root: str,
                tiles: "list[tuple[int, int]]") -> "ray.data.Dataset":
    """3×3 focal aggregate for an explicit tile list (a bbox cover at
    gate scale; the full catalog in production — one halo'd window
    fetch per tile)."""
    return _per_tile(FocalTileStats, tiles, tile_root=tile_root, band="ndvi")


class DownsampleTile:
    """Kernel: build ONE level-1 pyramid tile per input
    (tix, tiy) row by 2×2 mean-pooling the four level-0 tiles under it
    (the raster-pyramid write path: zoomed-out tiles for plotting and
    coarse-first query planning).  Emits per OUTPUT pixel
    ``(r_out, c_out, pool_q, n_in)`` where ``pool_q`` is the int64 SUM
    of the (up to 4) quantized input pixels — order-free and exact, the
    mean is ``pool_q / n_in`` downstream.  Missing inputs (world edge)
    just lower ``n_in``; fully-empty output pixels are not emitted.
    """

    def __init__(self, tile_root: str, band: str = "ndvi"):
        from ..sources import synth

        self.store = TileStore(tile_root)
        self.band = band
        self.px = synth.TILE_PX

    def __call__(self, batch: pa.Table) -> pa.Table:
        tix = batch.column("tix").to_numpy(zero_copy_only=False)
        tiy = batch.column("tiy").to_numpy(zero_copy_only=False)
        px = self.px
        outs = []
        for i in range(len(tix)):
            win = self.store.window(self.band, int(tiy[i]) * 2 * px,
                                    int(tix[i]) * 2 * px, 2 * px, 2 * px,
                                    fill=np.nan)
            fin = np.isfinite(win)
            q = np.where(fin, np.floor(win * FOCAL_Q + 0.5), 0.0) \
                .astype(np.int64)
            qs = (q[0::2, 0::2] + q[0::2, 1::2]
                  + q[1::2, 0::2] + q[1::2, 1::2])
            ns = (fin[0::2, 0::2].astype(np.int64)
                  + fin[0::2, 1::2] + fin[1::2, 0::2] + fin[1::2, 1::2])
            rr, cc = np.nonzero(ns > 0)
            outs.append(pa.table({
                "r_out": pa.array(rr + int(tiy[i]) * px),
                "c_out": pa.array(cc + int(tix[i]) * px),
                "pool_q": pa.array(qs[rr, cc]),
                "n_in": pa.array(ns[rr, cc]),
            }))
        if not outs:
            return pa.table({k: pa.array([], pa.int64())
                             for k in ("r_out", "c_out", "pool_q", "n_in")})
        return pa.concat_tables(outs)


def downsample_level(tile_root: str,
                     tiles: "list[tuple[int, int]]") -> "ray.data.Dataset":
    """Level-1 pyramid build for an explicit OUTPUT-tile list — the
    tile grid partitions the work, one 2×2-input window per tile."""
    return _per_tile(DownsampleTile, tiles, tile_root=tile_root, band="ndvi")


class ContourCells:
    """Kernel: marching-squares case census per tile — the
    raster→vector direction (focal/downsample smooth and shrink;
    contouring EXTRACTS the greenness isoline the availability maps
    draw).  For every 2×2 pixel cell anchored in the tile (right/bottom
    neighbors fetched through a 1-pixel halo), the case index is
    ``(v00>t) + 2·(v01>t) + 4·(v10>t) + 8·(v11>t)``; cells with any
    missing pixel are skipped (the oracle's inner join).  Emits per
    tile: ``n_cells`` (valid cells), ``n_contour`` (case ∉ {0, 15}),
    ``n_segments`` (2 for the saddle cases 6/9, else 1 per contour
    cell) — the exact threshold compare on identical doubles makes the
    census bit-stable across engines.
    """

    def __init__(self, tile_root: str, band: str = "ndvi",
                 threshold: float = 0.3):
        from ..sources import synth

        self.store = TileStore(tile_root)
        self.band = band
        self.thr = float(threshold)
        self.px = synth.TILE_PX

    def __call__(self, batch: pa.Table) -> pa.Table:
        tix = batch.column("tix").to_numpy(zero_copy_only=False)
        tiy = batch.column("tiy").to_numpy(zero_copy_only=False)
        px = self.px
        n_cells = np.empty(len(tix), dtype=np.int64)
        n_cont = np.empty(len(tix), dtype=np.int64)
        n_seg = np.empty(len(tix), dtype=np.int64)
        for i in range(len(tix)):
            win = self.store.window(self.band, int(tiy[i]) * px,
                                    int(tix[i]) * px, px + 1, px + 1,
                                    fill=np.nan)
            fin = np.isfinite(win)
            ok = (fin[:-1, :-1] & fin[:-1, 1:]
                  & fin[1:, :-1] & fin[1:, 1:])
            b = win > self.thr
            case = (b[:-1, :-1].astype(np.int64)
                    + 2 * b[:-1, 1:] + 4 * b[1:, :-1] + 8 * b[1:, 1:])
            case = case[ok]
            contour = (case != 0) & (case != 15)
            saddle = (case == 6) | (case == 9)
            n_cells[i] = int(ok.sum())
            n_cont[i] = int(contour.sum())
            n_seg[i] = int(contour.sum() + saddle.sum())
        return pa.table({
            "tix": pa.array(tix.astype(np.int64)),
            "tiy": pa.array(tiy.astype(np.int64)),
            "n_cells": pa.array(n_cells),
            "n_contour": pa.array(n_cont),
            "n_segments": pa.array(n_seg),
        })


def contour_census(tile_root: str,
                   tiles: "list[tuple[int, int]]") -> "ray.data.Dataset":
    """Marching-squares census for an explicit tile list — same
    tile-partitioned, halo-read, shuffle-free plan as focal_stats."""
    return _per_tile(ContourCells, tiles, tile_root=tile_root, band="ndvi",
                     threshold=0.3)
