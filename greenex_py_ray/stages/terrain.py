"""Raster derivative: per-point finite-difference gradient (slope).

The standard DEM/field derivative (GDAL ``gdaldem slope``-style central
differences) as a point-sample operator: for each PoI, read the 3×3
pixel window around its center pixel from the tile store and compute
``dz/dx = (E - W) / (2·res)``, ``dz/dy = (S - N) / (2·res)`` and the
gradient magnitude.  The reference samples rasters only through zonal
means (``availability.py:90-140``); a derivative operator is what
viewshed/drainage/terrain pipelines need from the same tile store.

Scale shape: a :class:`~greenex_py_ray.functions.joins.KernelStage`
whose kernel holds a :class:`state.tiles.TileStore` (built once per
worker process; windows stitch across tile borders); points stream
through in batches.  For cross-engine determinism the
gradient components quantize to int64 nano-units and the magnitude is
``round(sqrt(dzdx² + dzdy²) · 1e9)`` — sqrt is correctly rounded in
both engines and the inputs are bit-identical float64.

Points whose 3×3 window leaves the stored extent emit NULLs (the
reference's warn-and-proceed edge behavior, availability.py:282-286).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.joins import KernelStage
from ..state.tiles import TileStore

#: gradient quantization (nano-units per meter)
GRAD_Q = 1e9


class PointGradient:
    """Kernel: central-difference gradient at each point's
    center pixel.  Appends ``gx_q``, ``gy_q``, ``slope_q`` (int64
    nano-units; NULL when any of the 4 neighbor pixels is missing)."""

    def __init__(self, tile_root: str, band: str = "ndvi",
                 res: float = 10.0):
        self.store = TileStore(tile_root)
        self.band = band
        self.res = float(res)
        self.x_col, self.y_col = "x", "y"

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column(self.x_col).to_numpy(zero_copy_only=False)
        y = batch.column(self.y_col).to_numpy(zero_copy_only=False)
        col = np.floor(x / self.res).astype(np.int64)
        row = np.floor(y / self.res).astype(np.int64)
        n = len(x)
        gx = np.full(n, np.nan)
        gy = np.full(n, np.nan)
        # group points by tile so each tile window stitches once per
        # batch (points in one batch cluster spatially after a cell
        # shuffle; worst case it degrades to per-point windows)
        from ..sources import synth

        px = synth.TILE_PX
        # bias both tile indices positive before packing so a negative
        # row stripe can't alias into the previous column stripe (same
        # fix as ripley_pair_counts; grouping-only key, results were
        # correct either way but aliased groups over-allocate windows)
        _b = np.int64(1 << 20)
        tkey = (col // px + _b) * (np.int64(1) << np.int64(21)) + (row // px + _b)
        order = np.argsort(tkey, kind="stable")
        i = 0
        while i < n:
            j = i
            while j < n and tkey[order[j]] == tkey[order[i]]:
                j += 1
            sel = order[i:j]
            r0 = int(row[sel].min()) - 1
            c0 = int(col[sel].min()) - 1
            h = int(row[sel].max()) - r0 + 2
            w = int(col[sel].max()) - c0 + 2
            # negative r0/c0 are fine: window() fills out-of-extent
            # pixels with NaN, which propagates to NULL outputs
            win = self.store.window(self.band, r0, c0, h, w, fill=np.nan)
            rr = row[sel] - r0
            cc = col[sel] - c0
            e = win[rr, cc + 1]
            wv = win[rr, cc - 1]
            s = win[rr + 1, cc]
            nv = win[rr - 1, cc]
            gx[sel] = (e - wv) / (2.0 * self.res)
            gy[sel] = (s - nv) / (2.0 * self.res)
            i = j
        ok = ~(np.isnan(gx) | np.isnan(gy))
        gx_q = np.round(np.where(ok, gx, 0.0) * GRAD_Q).astype(np.int64)
        gy_q = np.round(np.where(ok, gy, 0.0) * GRAD_Q).astype(np.int64)
        mag = np.sqrt(gx * gx + gy * gy)
        slope_q = np.round(np.where(ok, mag, 0.0) * GRAD_Q).astype(np.int64)
        mask = ~ok
        return (batch.append_column("gx_q", pa.array(gx_q, mask=mask))
                .append_column("gy_q", pa.array(gy_q, mask=mask))
                .append_column("slope_q", pa.array(slope_q, mask=mask)))


def point_gradient(ds: "ray.data.Dataset", tile_root: str,
                   band: str = "ndvi",
                   res: float = 10.0) -> "ray.data.Dataset":
    """Per-point raster gradient (see module docstring)."""
    return KernelStage(
        PointGradient, dict(tile_root=tile_root, band=band, res=res),
        dict(num_cpus=0.5)).on(ds)


#: Hillshade light direction (GDAL defaults: azimuth 315°, altitude 45°)
#: precomputed once as double literals so BOTH engines consume the
#: identical constants — the shade expression then needs no trig at
#: all: shade = (cosZ - gx·lx - gy·ly) / sqrt(1 + gx² + gy²), the dot
#: product of the unnormalized surface normal (-gx, -gy, 1) with the
#: light vector (lx, ly, cosZ).
import math as _math

HS_AZIMUTH_DEG = 315.0
HS_ALTITUDE_DEG = 45.0
HS_COSZ = _math.cos(_math.radians(90.0 - HS_ALTITUDE_DEG))
_sinz = _math.sin(_math.radians(90.0 - HS_ALTITUDE_DEG))
HS_LX = _sinz * _math.sin(_math.radians(HS_AZIMUTH_DEG))
HS_LY = _sinz * _math.cos(_math.radians(HS_AZIMUTH_DEG))


def hillshade_batch(batch: pa.Table) -> pa.Table:
    """Horn-style hillshade from the int64 nano-unit gradient columns
    (``gx_q``/``gy_q`` of :class:`PointGradient`) — reading the
    QUANTIZED gradients keeps the whole chain bit-deterministic: both
    engines divide the same int64 by 1e9 and evaluate the same
    +,*,/,sqrt tree.  Appends ``hs_q`` = round(max(shade, 0)·1e9)
    (NULL where the gradient is NULL)."""
    gxq = batch.column("gx_q")
    gyq = batch.column("gy_q")
    mask = np.asarray(pa.compute.is_null(gxq).to_numpy(
        zero_copy_only=False))
    gx = gxq.to_numpy(zero_copy_only=False).astype(np.float64) / GRAD_Q
    gy = gyq.to_numpy(zero_copy_only=False).astype(np.float64) / GRAD_Q
    gx = np.where(mask, 0.0, gx)
    gy = np.where(mask, 0.0, gy)
    shade = ((HS_COSZ - gx * HS_LX - gy * HS_LY)
             / np.sqrt(1.0 + gx * gx + gy * gy))
    hs_q = np.round(np.maximum(shade, 0.0) * GRAD_Q).astype(np.int64)
    return batch.append_column("hs_q", pa.array(hs_q, mask=mask))


#: D8 neighbor order: code 1..8 = E, SE, S, SW, W, NW, N, NE
#: (ESRI flow-direction convention uses powers of two; we emit the
#: 1..8 index — same information, easier tie rule).
D8_OFFS = ((0, 1), (1, 1), (1, 0), (1, -1),
           (0, -1), (-1, -1), (-1, 0), (-1, 1))
SQRT2 = float(np.sqrt(2.0))


class D8FlowDirection:
    """Kernel: D8 steepest-descent direction at each point's
    center pixel.  drop(code) = (z_center − z_neighbor) / dist, with
    dist = res (axial) or res·√2 (diagonal); drops quantize to int64
    nano-units so the argmax is exact in both engines.  Emits
    ``d8`` = the smallest code attaining the maximal positive drop,
    0 when no neighbor is lower (pit/flat), NULL when any of the 8
    neighbors (or the center) is outside the stored extent."""

    def __init__(self, tile_root: str, res: float = 10.0):
        self.store = TileStore(tile_root)
        self.band = "ndvi"
        self.res = float(res)
        self.x_col, self.y_col = "x", "y"

    def __call__(self, batch: pa.Table) -> pa.Table:
        x = batch.column(self.x_col).to_numpy(zero_copy_only=False)
        y = batch.column(self.y_col).to_numpy(zero_copy_only=False)
        col = np.floor(x / self.res).astype(np.int64)
        row = np.floor(y / self.res).astype(np.int64)
        n = len(x)
        best_q = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
        best_c = np.zeros(n, dtype=np.int64)
        bad = np.zeros(n, dtype=bool)
        from ..sources import synth

        px = synth.TILE_PX
        # bias both tile indices positive before packing so a negative
        # row stripe can't alias into the previous column stripe (same
        # fix as ripley_pair_counts; grouping-only key, results were
        # correct either way but aliased groups over-allocate windows)
        _b = np.int64(1 << 20)
        tkey = (col // px + _b) * (np.int64(1) << np.int64(21)) + (row // px + _b)
        order = np.argsort(tkey, kind="stable")
        i = 0
        while i < n:
            j = i
            while j < n and tkey[order[j]] == tkey[order[i]]:
                j += 1
            sel = order[i:j]
            r0 = int(row[sel].min()) - 1
            c0 = int(col[sel].min()) - 1
            h = int(row[sel].max()) - r0 + 2
            w = int(col[sel].max()) - c0 + 2
            win = self.store.window(self.band, r0, c0, h, w, fill=np.nan)
            rr = row[sel] - r0
            cc = col[sel] - c0
            z0 = win[rr, cc]
            bad[sel] |= np.isnan(z0)
            for code, (dr, dc) in enumerate(D8_OFFS, start=1):
                zn = win[rr + dr, cc + dc]
                bad[sel] |= np.isnan(zn)
                dist = self.res * (SQRT2 if dr and dc else 1.0)
                drop_q = np.round((z0 - zn) / dist * GRAD_Q)
                drop_q = np.where(np.isnan(drop_q),
                                  np.iinfo(np.int64).min,
                                  drop_q).astype(np.int64)
                better = drop_q > best_q[sel]
                best_q[sel] = np.where(better, drop_q, best_q[sel])
                best_c[sel] = np.where(better, code, best_c[sel])
            i = j
        d8 = np.where(best_q > 0, best_c, 0)
        return batch.append_column("d8", pa.array(d8, mask=bad))


def d8_flow_direction(ds: "ray.data.Dataset", tile_root: str,
                      res: float = 10.0) -> "ray.data.Dataset":
    """Per-point D8 flow direction (see :class:`D8FlowDirection`)."""
    return KernelStage(
        D8FlowDirection, dict(tile_root=tile_root, res=res),
        dict(num_cpus=0.5)).on(ds)
