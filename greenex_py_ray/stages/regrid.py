"""Raster reprojection / regridding (S8 — the reference's
``rioxarray.reproject`` step, e.g. NDVI rasters fetched in one CRS and
analysed in another).

Ray-Data-native shape: the TARGET tile grid is the dataset (one row per
output tile), and a kernel stage samples each output tile's pixel
centers from the SOURCE tile store after inverse-projecting them through
:mod:`greenex_py_ray.geoproj` — nearest-neighbor resampling
(``Resampling.nearest``, the reference default).  No global raster is
ever materialized; each kernel reads the memory-mapped source tiles.

Output rows carry the same (band, tix, tiy, x0, y0, res, w, h, data)
schema as :func:`greenex_py_ray.sources.synth.write_raster_tiles`, so
the result can be written back as a tile store (S14) with
``ray.data.Dataset.write_parquet`` or consumed directly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from .. import geoproj
from ..functions.joins import KernelStage
from ..sources import synth
from ..state.tiles import TileStore


def target_tiles_dataset(x0: float, y0: float, x1: float, y1: float,
                         band: str, tile_px: int = synth.TILE_PX,
                         res: float = synth.RASTER_RES) -> "ray.data.Dataset":
    """Dataset of output tile descriptors covering a target-CRS bbox."""
    ts = tile_px * res
    tx0 = int(np.floor(x0 / ts))
    tx1 = int(np.floor(x1 / ts))
    ty0 = int(np.floor(y0 / ts))
    ty1 = int(np.floor(y1 / ts))
    tix, tiy = np.meshgrid(np.arange(tx0, tx1 + 1), np.arange(ty0, ty1 + 1),
                           indexing="ij")
    tix = tix.ravel()
    tiy = tiy.ravel()
    return ray.data.from_arrow(pa.table({
        "band": pa.array([band] * len(tix)),
        "tix": pa.array(tix.astype(np.int32)),
        "tiy": pa.array(tiy.astype(np.int32)),
        "res": pa.array(np.full(len(tix), res)),
        "w": pa.array(np.full(len(tix), tile_px, dtype=np.int32)),
        "h": pa.array(np.full(len(tix), tile_px, dtype=np.int32)),
    }))


class RegridTiles:
    """Kernel: target tile descriptor rows → regridded tile rows.

    For each output tile: pixel centers → inverse-project target→source
    CRS → nearest source pixel (floor(x/res)) via the kernel's source
    TileStore.  Pixels falling outside the stored source extent become
    NaN (float bands) / -1 (int bands)."""

    def __init__(self, src_root: str, src_crs: str, dst_crs: str,
                 band: str):
        self.store = TileStore(src_root)
        self.src_crs = src_crs
        self.dst_crs = dst_crs
        self.band = band
        self.fill_int = (-1)
        # emit the band's canonical storage dtype so the output rows can
        # be written back as a tile store TileStore decodes correctly
        self.out_dtype = synth.BAND_DTYPE.get(band, np.float64)
        self.is_int = self.out_dtype == np.int16

    def _sample(self, sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
        """Nearest-neighbor sample of source coords (vectorized, grouped
        by source tile)."""
        res = synth.RASTER_RES
        px = synth.TILE_PX
        col = np.floor(sx / res).astype(np.int64)
        row = np.floor(sy / res).astype(np.int64)
        tix = col // px
        tiy = row // px
        out = np.full(len(sx), np.nan)
        tkey = tix * (1 << 20) + tiy
        order = np.argsort(tkey, kind="stable")
        uniq, starts = np.unique(tkey[order], return_index=True)
        bounds = np.concatenate([starts, [len(sx)]])
        for g in range(len(uniq)):
            sel = order[bounds[g] : bounds[g + 1]]
            arr = self.store.get(self.band, int(tix[sel[0]]), int(tiy[sel[0]]))
            if arr is None:
                continue
            out[sel] = arr[row[sel] - tiy[sel[0]] * px,
                           col[sel] - tix[sel[0]] * px]
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        res = batch.column("res").to_numpy(zero_copy_only=False)
        w = batch.column("w").to_numpy(zero_copy_only=False)
        h = batch.column("h").to_numpy(zero_copy_only=False)
        tix = batch.column("tix").to_numpy(zero_copy_only=False)
        tiy = batch.column("tiy").to_numpy(zero_copy_only=False)
        data = []
        x0s = []
        y0s = []
        ids = []
        for i in range(len(batch)):
            r = float(res[i])
            ts = int(w[i]) * r
            x0 = tix[i] * ts
            y0 = tiy[i] * ts
            cx = x0 + (np.arange(int(w[i]), dtype=np.float64) + 0.5) * r
            cy = y0 + (np.arange(int(h[i]), dtype=np.float64) + 0.5) * r
            gx, gy = np.meshgrid(cx, cy, indexing="xy")
            sx, sy = geoproj.transform(gx.ravel(), gy.ravel(),
                                       self.dst_crs, self.src_crs)
            vals = self._sample(np.asarray(sx), np.asarray(sy))
            tile = vals.reshape(int(h[i]), int(w[i]))
            if self.is_int:
                tile = np.where(np.isnan(tile), self.fill_int, tile)
            data.append(tile.astype(self.out_dtype).tobytes())
            x0s.append(x0)
            y0s.append(y0)
            ids.append(f"{self.band}/{int(tix[i])}_{int(tiy[i])}")
        return pa.table({
            "tile_id": pa.array(ids),
            "band": batch.column("band"),
            "tix": batch.column("tix"),
            "tiy": batch.column("tiy"),
            "x0": pa.array(x0s),
            "y0": pa.array(y0s),
            "res": batch.column("res"),
            "w": batch.column("w"),
            "h": batch.column("h"),
            "data": pa.array(data, pa.binary()),
        })


def reproject_raster(src_root: str, band: str, src_crs: str, dst_crs: str,
                     dst_bbox: tuple[float, float, float, float]
                     ) -> "ray.data.Dataset":
    """S8 entry: source tile store (in ``src_crs``) → Dataset of
    regridded tiles on the target grid covering ``dst_bbox`` (target-CRS
    coords).  Consume with ``.write_parquet`` for a reprojected store."""
    return KernelStage(
        RegridTiles,
        dict(src_root=src_root, src_crs=src_crs, dst_crs=dst_crs, band=band),
        dict(batch_size=8, num_cpus=0.25)).on(
            target_tiles_dataset(*dst_bbox, band=band))
