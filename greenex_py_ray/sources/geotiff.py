"""Minimal GeoTIFF raster reader + tile-store ingestion (pure numpy).

The reference reads rasters with rasterio/GDAL (absent here).  The
``TestData`` GeoTIFFs are plain baseline TIFFs — strip layout,
Compression=1 (none), float32/int16 samples, GeoTIFF pixel-scale +
tiepoint tags and a GDAL ASCII nodata tag — which a ~100-line IFD
parser reads exactly.  Deflate (zlib) strips are also handled via the
stdlib; anything fancier raises with a clear message.

``ingest_to_tiles`` converts a raster into the engine's tiled parquet
store (:mod:`greenex_py_ray.state.tiles` layout): the raster is flipped
so row 0 is the SOUTHMOST row, shifted so its grid aligns with the
global ``res``-spaced pixel lattice the zonal kernels assume (pixel
centers at ``(i + 0.5)·res``), and cut into 256-px tiles.  The returned
``(shift_x, shift_t)`` places any vector input into the same local
frame — a pure translation, so buffers/areas/distances are unchanged.
"""

from __future__ import annotations

import os
import struct
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_TYPE_SIZE = {1: 1, 2: 1, 3: 2, 4: 4, 5: 8, 6: 1, 7: 1, 8: 2, 9: 4,
              10: 8, 11: 4, 12: 8, 16: 8, 17: 8}
_TYPE_FMT = {1: "B", 3: "H", 4: "I", 8: "h", 9: "i", 11: "f", 12: "d",
             16: "Q", 17: "q"}


def _read_ifd(buf: bytes, bo: str, off: int):
    (n,) = struct.unpack_from(bo + "H", buf, off)
    tags = {}
    for i in range(n):
        tag, typ, cnt = struct.unpack_from(bo + "HHI", buf, off + 2 + i * 12)
        voff = off + 10 + i * 12
        size = _TYPE_SIZE.get(typ, 1) * cnt
        if size > 4:
            (voff,) = struct.unpack_from(bo + "I", buf, voff)
        if typ == 2:  # ASCII
            val = buf[voff:voff + cnt].split(b"\0")[0].decode("ascii",
                                                              "replace")
        elif typ == 5:  # RATIONAL
            parts = struct.unpack_from(bo + "%dI" % (2 * cnt), buf, voff)
            val = tuple(parts[2 * i] / parts[2 * i + 1] for i in range(cnt))
        else:
            fmt = _TYPE_FMT.get(typ)
            if fmt is None:
                continue
            val = struct.unpack_from(bo + str(cnt) + fmt, buf, voff)
        tags[tag] = val[0] if (typ != 2 and len(val) == 1) else val
    return tags


def read_geotiff(path: str):
    """→ (array[h, w] float64 with nodata→NaN, meta dict).

    ``meta``: x0/y0 = coordinates of the OUTER corner of the top-left
    pixel (tiepoint), res, nodata, rows run north→south (TIFF order).
    """
    buf = open(path, "rb").read()
    bo = "<" if buf[:2] == b"II" else ">"
    (magic, ifd_off) = struct.unpack_from(bo + "HI", buf, 2)
    if magic != 42:
        raise ValueError(f"{path}: not a classic TIFF")
    t = _read_ifd(buf, bo, ifd_off)
    w, h = t[256], t[257]
    spp = t.get(277, 1)  # SamplesPerPixel
    if spp != 1:
        raise ValueError(
            f"{path}: SamplesPerPixel={spp} — multi-band TIFFs are not "
            "supported by this baseline reader (a strip of interleaved "
            "samples would be silently misread as one band); extract "
            "the band to its own single-band file first")
    if 322 in t or 324 in t:  # TileWidth / TileOffsets
        raise ValueError(
            f"{path}: tiled TIFF layout is not supported by this "
            "baseline reader; rewrite as a strip TIFF "
            "(gdal_translate -co TILED=NO)")
    comp = t.get(259, 1)
    bits = t[258]
    sfmt = t.get(339, 1)  # 1 uint, 2 int, 3 float
    dtype = {(32, 3): "f4", (64, 3): "f8", (16, 2): "i2", (32, 2): "i4",
             (16, 1): "u2", (8, 1): "u1", (32, 1): "u4"}.get((bits, sfmt))
    if dtype is None:
        raise ValueError(f"{path}: unsupported sample format {bits}/{sfmt}")
    dtype = bo + dtype
    offs = t[273]
    cnts = t[279]
    if isinstance(offs, int):
        offs, cnts = (offs,), (cnts,)
    rps = t.get(278, h)
    rows = []
    for i, (o, c) in enumerate(zip(offs, cnts)):
        raw = buf[o:o + c]
        if comp == 8 or comp == 32946:
            raw = zlib.decompress(raw)
        elif comp != 1:
            raise ValueError(f"{path}: unsupported TIFF compression {comp}")
        nrows = min(rps, h - i * rps)
        rows.append(np.frombuffer(raw, dtype=dtype,
                                  count=nrows * w).reshape(nrows, w))
    arr = np.vstack(rows).astype(np.float64)
    nodata = t.get(42113)
    if nodata is not None:
        try:
            nv = float(nodata)
            arr[arr == nv] = np.nan
        except ValueError:
            pass
    scale = t.get(33550, (1.0, 1.0, 0.0))
    tie = t.get(33922, (0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    meta = {
        "width": w, "height": h,
        "res_x": float(scale[0]), "res_y": float(scale[1]),
        # tiepoint maps raster (i, j, k) → model (x, y, z); baseline
        # GDAL writes (0, 0, 0, x0, y0, 0): outer top-left corner
        "x0": float(tie[3]) - float(tie[0]) * float(scale[0]),
        "y0": float(tie[4]) + float(tie[1]) * float(scale[1]),
        "nodata": nodata,
    }
    return arr, meta


#: pixels per side of an ingested tile
TILE_PX = 256


def ingest_to_tiles(path: str, out_dir: str, band: str) -> dict:
    """Raster file → the engine's tiled parquet store.

    Returns ``{"shift_x", "shift_y", "res", ...}``: the translation that
    maps model coordinates into the store's local frame (apply the same
    shift to vector inputs; distances and areas are invariant).  The
    raster grid must be square-pixel; the local frame is chosen so
    pixel centers sit at ``(i + 0.5)·res`` exactly.
    """
    arr, meta = read_geotiff(path)
    res = meta["res_x"]
    if abs(meta["res_y"] - res) > 1e-9:
        raise ValueError("non-square pixels not supported")
    # store in the band's canonical TileStore dtype (state/tiles.py
    # decodes via BAND_DTYPE); integer bands can't hold NaN — keep the
    # raster's own nodata sentinel there
    from . import synth as _synth

    dtype = _synth.BAND_DTYPE.get(band, np.float64)
    if not np.issubdtype(dtype, np.floating):
        fill = None
        if meta["nodata"] is not None:
            try:
                fill = float(meta["nodata"])
            except ValueError:
                pass
        if fill is None:
            # no GDAL nodata tag: pick a pad sentinel OUTSIDE the
            # raster's observed code set — padding edge tiles with 0
            # would silently merge pad pixels into a genuine class 0
            # (they'd surface as that class's percentage instead of the
            # 'nodata' column the derived classmap labels)
            obs = set(int(c) for c in
                      np.unique(arr[np.isfinite(arr)]).tolist())
            fill = float(np.iinfo(dtype).min)
            while fill in obs:
                fill += 1.0
        arr = np.where(np.isfinite(arr), arr, fill)
    south = np.flipud(arr).astype(dtype)  # row 0 = southmost (tile store)
    h, w = south.shape
    # model coords of the raster's south-west OUTER corner
    sw_x = meta["x0"]
    sw_y = meta["y0"] - h * res
    shift_x, shift_y = -sw_x, -sw_y  # local frame starts at (0, 0)
    ntx = int(np.ceil(w / TILE_PX))
    nty = int(np.ceil(h / TILE_PX))
    os.makedirs(out_dir, exist_ok=True)
    rows = {k: [] for k in ("tile_id", "band", "tix", "tiy", "x0", "y0",
                            "res", "w", "h", "data")}
    pad = np.nan if np.issubdtype(dtype, np.floating) else fill
    for tix in range(ntx):
        for tiy in range(nty):
            tile = np.full((TILE_PX, TILE_PX), pad, dtype=dtype)
            src = south[tiy * TILE_PX:(tiy + 1) * TILE_PX,
                        tix * TILE_PX:(tix + 1) * TILE_PX]
            tile[: src.shape[0], : src.shape[1]] = src
            rows["tile_id"].append(f"{band}/{tix}_{tiy}")
            rows["band"].append(band)
            rows["tix"].append(tix)
            rows["tiy"].append(tiy)
            rows["x0"].append(tix * TILE_PX * res)
            rows["y0"].append(tiy * TILE_PX * res)
            rows["res"].append(res)
            rows["w"].append(TILE_PX)
            rows["h"].append(TILE_PX)
            rows["data"].append(tile.tobytes())
    t = pa.table({
        "tile_id": pa.array(rows["tile_id"], pa.string()),
        "band": pa.array(rows["band"], pa.string()),
        "tix": pa.array(rows["tix"], pa.int32()),
        "tiy": pa.array(rows["tiy"], pa.int32()),
        "x0": pa.array(rows["x0"], pa.float64()),
        "y0": pa.array(rows["y0"], pa.float64()),
        "res": pa.array(rows["res"], pa.float64()),
        "w": pa.array(rows["w"], pa.int32()),
        "h": pa.array(rows["h"], pa.int32()),
        "data": pa.array(rows["data"], pa.binary()),
    })
    pq.write_table(t, os.path.join(out_dir, f"tiles_{band}.parquet"),
                   row_group_size=4)
    info = {"shift_x": shift_x, "shift_y": shift_y, "res": res,
            "width": w, "height": h, "nodata": meta["nodata"]}
    if not np.issubdtype(dtype, np.floating):
        # categorical band: record the distinct class codes so callers
        # can derive a classmap from the raster itself — the reference
        # takes its classmap from the source's classification metadata
        # and passes unknown codes through numerically
        # (availability.py:447-450,556 ``classmap.get(x, x)``)
        codes = {int(c) for c in np.unique(south).tolist()}
        if w % TILE_PX or h % TILE_PX:
            # edge tiles were padded with the sentinel — include it so
            # the derived classmap labels those pixels 'nodata' and
            # percentages still sum to 100 for AoIs past the bounds
            codes.add(int(fill))
        info["codes"] = sorted(codes)
        info["nodata_code"] = int(fill)
    return info
