"""Raster tile store: memory-mapped planes shared by every worker.

Bands are ingested as parquet, one row per tile (``tiles_<band>.parquet``
from ``sources/synth`` or ``sources/geotiff``), the interchange format
only.  The first lookup of a band converts its file, once per version,
into uncompressed ``.npy`` planes that every later lookup, in any worker
process on the node, slices as read-only memory maps: the node holds one
page-cache copy of a band, not one decoded copy per worker, and no
lookup reads parquet.

The planes of ``<root>/tiles_<band>.parquet`` live in
``<parent of root>/.<root name>.planes/<band>-<digest of the file's
path, mtime and size>/`` — beside the root, not in it, because
``functions/joins._freeze(root)`` keys kernel caches on its files:

* ``index.npy`` — ``(N, 3)`` int64 rows ``tix, tiy, c0 slot``;
* ``tiles.npy`` — the ``(N, H, W)`` tile stack in the band's dtype;
* ``c0.npy`` — the finite mask's row-cumsum per tile with a NaN (at its
  ``c0 slot``; all-finite tiles have ``-1``);
* ``sat-<clamp>.npy`` / ``cls-<classes>.npy`` — ``(N, k, H, W+1)``
  row-cumsums of the clamped value and its square / of each class mask,
  written by the first :meth:`TileStore.stack` lookup of the plane.

Row-cumsum planes start with a zero column: the sum over columns
``lo..hi`` of row ``r`` is ``c[r, hi + 1] - c[r, lo]``; kernels read a
whole stack and its :class:`SlotTable` (:meth:`TileStore.stack`).  Each
file is written under a per-directory lock, to a temporary name then
renamed, so concurrent workers convert once.  A rewritten band file gets a new
digest: it is converted afresh and its older planes are removed.
"""

from __future__ import annotations

import fcntl
import hashlib
import os
import shutil
from typing import NamedTuple

import numpy as np
import pyarrow.parquet as pq
from numpy.lib.format import open_memmap

from ..sources import synth


class SlotTable(NamedTuple):
    """Where a band's tiles sit in its stacked planes: ``grid[(tix - tix0)
    * ny + tiy - tiy0]`` is the slot of a tile of its ``nx × ny`` extent,
    ``c0slot[slot]`` its ``c0`` slot, -1 where absent / all finite; each
    ends in a -1, read by tiles outside the extent and by slot -1."""

    grid: np.ndarray
    nx: int
    ny: int
    tix0: int
    tiy0: int
    c0slot: np.ndarray

    def slots(self, tix, tiy):
        """``(slot, c0slot)`` of each tile ``(tix[i], tiy[i])`` (arrays or
        scalars of any integer type)."""
        ix = np.asarray(tix, np.int64) - self.tix0
        iy = np.asarray(tiy, np.int64) - self.tiy0
        inside = (ix >= 0) & (ix < self.nx) & (iy >= 0) & (iy < self.ny)
        slot = self.grid[np.where(inside, ix * self.ny + iy, -1)]
        return slot, self.c0slot[slot]


class _Band:
    """One version of one band file: its plane directory, slot table and
    the memory maps a store opened so far."""

    def __init__(self, path: str, stamp: tuple):
        self.path = path
        parent, name = os.path.split(os.path.dirname(path))
        band = os.path.basename(path)[len("tiles_"):-len(".parquet")]
        digest = hashlib.sha1(repr((path,) + stamp).encode()).hexdigest()[:16]
        self.dir = os.path.join(parent, f".{name}.planes", f"{band}-{digest}")
        self.dtype = synth.BAND_DTYPE.get(band, np.float64)
        self.maps: dict[str, np.ndarray] = {}
        self.table: SlotTable | None = None


class TileStore:
    """Read-only lookups of tiles and row-cumsum planes under ``root``.

    ``hits``/``misses`` count lookups: the first lookup of a (plane,
    band, tile) in this store is a miss, later ones are hits.
    ``conversions`` counts the plane files this store converted."""

    def __init__(self, root: str):
        self.root = root
        self.hits = 0
        self.misses = 0
        self.conversions = 0
        self._seen: set[tuple] = set()
        self._bands: dict[str, _Band] = {}

    def get(self, band: str, tix: int, tiy: int) -> "np.ndarray | None":
        """Read-only tile view, or None if the tile does not exist (AoIs
        crossing the raster edge use only the intersecting part — the
        reference warns and proceeds, availability.py:282-286)."""
        b = self._band(band)
        slot, _ = b.table.slots(tix, tiy)
        self._count("tiles", band, [(int(tix), int(tiy))])
        return None if slot < 0 else self._plane(b, "tiles")[slot]

    def stack(self, plane: tuple, band: str, tiles):
        """``(stack, c0, table)``: the band's whole row-cumsum ``plane``
        — ``("sat", clamp_min)``, the ``(N, 2, H, W+1)`` stack of the value
        clamped below at ``clamp_min`` with NaN as 0 and of its square, or
        ``("cls", classes)``, the ``(N, len(classes), H, W+1)`` stack of
        each ``tile == cls`` mask — the finite-mask row-cumsums ``c0`` of
        the tiles with a NaN, and the :class:`SlotTable` of both.  Counts
        one lookup of each ``(tix, tiy)`` in ``tiles``, the distinct tiles
        a batch touches."""
        b = self._band(band)
        self._count(plane, band, tiles)
        kind, arg = plane
        tiles_plane = self._plane(b, "tiles")
        if kind == "sat":
            def fill(out):
                for i, arr in enumerate(tiles_plane):
                    v = np.maximum(arr, arg) if arg is not None else arr
                    # nodata (NaN) pixels contribute nothing — the
                    # reference's xarray mean/std skip NaN (skipna)
                    fin = np.isfinite(arr)
                    if not fin.all():
                        v = np.where(fin, v, 0.0)
                    out[i, 0, :, 1:] = np.cumsum(v, axis=1)
                    out[i, 1, :, 1:] = np.cumsum(v * v, axis=1)

            arr = self._plane(b, f"sat-{arg!r}", (np.float64, 2, fill))
        else:
            def fill(out):
                for i, arr in enumerate(tiles_plane):
                    for j, cls in enumerate(arg):
                        out[i, j, :, 1:] = np.cumsum(arr == cls, axis=1,
                                                     dtype=np.int32)

            arr = self._plane(b, "cls-" + "_".join(str(c) for c in arg),
                              (np.int32, len(arg), fill))
        return arr, self._plane(b, "c0"), b.table

    def window(self, band: str, row0: int, col0: int, h: int, w: int,
               fill=np.nan) -> np.ndarray:
        """Stitched dense window in GLOBAL pixel coordinates
        (row = floor(y/res), col = floor(x/res)); pixels outside the
        stored extent are ``fill``.  Used by kernels that need a local
        dense raster (viewshed window, isochrone mask) without ever
        materializing the full raster (vs the reference loading whole
        rasters into driver RAM, visibility.py:113-216)."""
        px = synth.TILE_PX
        # fast path: window fully inside one tile → zero-copy view
        if (row0 >= 0 and col0 >= 0 and row0 // px == (row0 + h - 1) // px
                and col0 // px == (col0 + w - 1) // px):
            arr = self.get(band, col0 // px, row0 // px)
            if arr is not None:
                r0 = row0 - (row0 // px) * px
                c0 = col0 - (col0 // px) * px
                return arr[r0 : r0 + h, c0 : c0 + w]
        out = np.full((h, w), fill, dtype=np.float64)
        t0r, t1r = row0 // px, (row0 + h - 1) // px
        t0c, t1c = col0 // px, (col0 + w - 1) // px
        for tiy in range(t0r, t1r + 1):
            for tix in range(t0c, t1c + 1):
                arr = self.get(band, tix, tiy)
                if arr is None:
                    continue
                gr0 = max(row0, tiy * px)
                gr1 = min(row0 + h, (tiy + 1) * px)
                gc0 = max(col0, tix * px)
                gc1 = min(col0 + w, (tix + 1) * px)
                if gr1 <= gr0 or gc1 <= gc0:
                    continue
                out[gr0 - row0 : gr1 - row0, gc0 - col0 : gc1 - col0] = arr[
                    gr0 - tiy * px : gr1 - tiy * px, gc0 - tix * px : gc1 - tix * px
                ]
        return out

    def _band(self, band: str) -> _Band:
        """The band's open planes, its slot table built on first use."""
        b = self._bands.get(band)
        if b is None:
            path = os.path.abspath(os.path.join(self.root, f"tiles_{band}.parquet"))
            st = os.stat(path)
            b = self._bands[band] = _Band(path, (st.st_mtime_ns, st.st_size))
        if b.table is None:
            index = self._plane(b, "index")
            # a tile's first row wins
            keys, first = np.unique(index[:, :2], axis=0, return_index=True)
            lo = keys.min(axis=0) if len(keys) else np.zeros(2, np.int64)
            nx, ny = keys.max(axis=0) - lo + 1 if len(keys) else (0, 0)
            grid = np.full(nx * ny + 1, -1, dtype=np.int64)
            grid[(keys[:, 0] - lo[0]) * ny + keys[:, 1] - lo[1]] = first
            b.table = SlotTable(grid, int(nx), int(ny), int(lo[0]), int(lo[1]),
                                np.append(index[:, 2], -1))
        return b

    def _count(self, plane, band: str, tiles) -> None:
        """Count one lookup of each distinct ``(tix, tiy)`` in ``tiles``."""
        keys = {(plane, band, tix, tiy) for tix, tiy in tiles}
        self.hits += len(keys & self._seen)
        self.misses += len(keys - self._seen)
        self._seen |= keys

    def _plane(self, b: _Band, name: str, spec=None) -> np.ndarray:
        """The memory map of plane ``name``, converted first if no worker
        has.  ``spec`` is None for the planes :func:`_convert` writes,
        else ``(dtype, k, fill)``: ``fill(out)`` computes an
        ``(N, k, H, W+1)`` plane from the tiles."""
        arr = b.maps.get(name)
        if arr is not None:
            return arr
        path = os.path.join(b.dir, f"{name}.npy")
        if not os.path.exists(path):
            os.makedirs(b.dir, exist_ok=True)
            with open(os.path.join(b.dir, ".lock"), "w") as lock:
                fcntl.flock(lock, fcntl.LOCK_EX)
                if not os.path.exists(path):
                    if spec is None:
                        _convert(b)
                    else:
                        n, h, w = self._plane(b, "tiles").shape
                        _write(path, spec[0], (n, spec[1], h, w + 1), spec[2])
                    self.conversions += 1
        arr = b.maps[name] = np.load(path, mmap_mode="r").view(np.ndarray)
        return arr


def _write(path: str, dtype, shape: tuple, fill) -> None:
    """Write the ``.npy`` that ``fill(out)`` computes into a zeroed
    ``out`` at ``path``: to a temporary file, then ``os.replace``."""
    out = open_memmap(path + ".tmp", mode="w+", dtype=dtype, shape=shape)
    fill(out)
    out.flush()
    del out
    os.replace(path + ".tmp", path)


def _convert(b: _Band) -> None:
    """Band file → ``tiles``, ``c0`` and, last (its presence marks a
    finished conversion), ``index``; then drop the band's older planes."""
    t = pq.read_table(b.path, columns=["tix", "tiy", "h", "w", "data"])
    shapes = set(zip(t.column("h").to_pylist(), t.column("w").to_pylist()))
    if len(shapes) > 1:
        raise ValueError(f"{b.path}: tiles of more than one shape {sorted(shapes)}")
    h, w = shapes.pop() if shapes else (0, 0)
    index = np.full((t.num_rows, 3), -1, dtype=np.int64)
    index[:, 0] = t.column("tix").to_numpy()
    index[:, 1] = t.column("tiy").to_numpy()
    nonfinite = []

    def fill_tiles(out):
        for i, buf in enumerate(t.column("data").to_pylist()):
            out[i] = arr = np.frombuffer(buf, dtype=b.dtype).reshape(h, w)
            if not np.isfinite(arr).all():
                index[i, 2] = len(nonfinite)
                nonfinite.append(arr)

    def fill_c0(out):
        for i, arr in enumerate(nonfinite):
            out[i, :, 1:] = np.cumsum(np.isfinite(arr), axis=1, dtype=np.int64)

    _write(os.path.join(b.dir, "tiles.npy"), b.dtype, (len(index), h, w), fill_tiles)
    _write(os.path.join(b.dir, "c0.npy"), np.int64, (len(nonfinite), h, w + 1), fill_c0)
    _write(os.path.join(b.dir, "index.npy"), np.int64, index.shape,
           lambda out: np.copyto(out, index))
    parent, mine = os.path.split(b.dir)
    for d in os.listdir(parent):
        if d != mine and d.rsplit("-", 1)[0] == mine.rsplit("-", 1)[0]:
            shutil.rmtree(os.path.join(parent, d), ignore_errors=True)
