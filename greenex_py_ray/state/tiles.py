"""Per-kernel raster tile cache.

The reference loads whole rasters into driver memory and clips per row
(`/root/reference/GreenExp/availability.py:209-216`,
`visibility.py:113-216`).  At 100 TB that is impossible; here raster
data lives in a partitioned tile store (parquet, one row per 256×256
tile, small row groups for predicate pushdown) and each kernel instance
holds an LRU cache of decoded tiles.  Tiles are fetched lazily by
``(band, tix, tiy)``; at most ``capacity`` of them stay decoded.
A one-row-per-PoI kernel lives in its worker process's kernel cache
(``functions/joins.py``) and keeps its tiles across calls on the same
store; an actor stage's kernel lives as long as its actor.
"""

from __future__ import annotations

import os
from collections import OrderedDict

import numpy as np
import pyarrow.parquet as pq

from ..sources import synth


class TileStore:
    """LRU-cached reader over the tile parquet store.

    Thread-compatible within one worker (Ray runs one task at a time
    per worker process and calls an actor serially).  ``capacity`` is
    in tiles (~0.5 MB each).
    """

    def __init__(self, root: str, capacity: int = 256):
        self.root = root
        self.capacity = capacity
        self._cache: OrderedDict[tuple[str, int, int], np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, band: str, tix: int, tiy: int) -> "np.ndarray | None":
        """Decoded tile, or None if the tile does not exist (AoIs crossing
        the raster edge use only the intersecting part — the reference
        warns and proceeds, availability.py:282-286)."""
        key = (band, int(tix), int(tiy))
        if key in self._cache:
            self._cache.move_to_end(key)
            self.hits += 1
            return self._cache[key]
        self.misses += 1
        arr = self._read(band, tix, tiy)
        self._cache[key] = arr
        if len(self._cache) > self.capacity:
            self._cache.popitem(last=False)
        return arr

    def window(self, band: str, row0: int, col0: int, h: int, w: int,
               fill=np.nan) -> np.ndarray:
        """Stitched dense window in GLOBAL pixel coordinates
        (row = floor(y/res), col = floor(x/res)); pixels outside the
        stored extent are ``fill``.  Used by kernels that need a local
        dense raster (viewshed window, isochrone mask) without ever
        materializing the full raster (vs the reference loading whole
        rasters into driver RAM, visibility.py:113-216)."""
        from ..sources import synth

        px = synth.TILE_PX
        # unknown (ingested) bands store float64 (sources/geotiff.py)
        dtype = synth.BAND_DTYPE.get(band, np.float64)
        # fast path: window fully inside one tile → zero-copy view
        if (row0 >= 0 and col0 >= 0 and row0 // px == (row0 + h - 1) // px
                and col0 // px == (col0 + w - 1) // px):
            arr = self.get(band, col0 // px, row0 // px)
            if arr is not None:
                r0 = row0 - (row0 // px) * px
                c0 = col0 - (col0 // px) * px
                return arr[r0 : r0 + h, c0 : c0 + w]
        out = np.full((h, w), fill, dtype=np.float64 if dtype != np.int16 else np.float64)
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

    def _read(self, band: str, tix: int, tiy: int) -> np.ndarray:
        path = os.path.join(self.root, f"tiles_{band}.parquet")
        t = pq.read_table(
            path,
            columns=["w", "h", "data"],
            filters=[("tix", "=", int(tix)), ("tiy", "=", int(tiy))],
        )
        if t.num_rows == 0:
            return None
        w = t.column("w")[0].as_py()
        h = t.column("h")[0].as_py()
        buf = t.column("data")[0].as_py()
        dtype = synth.BAND_DTYPE.get(band, np.float64)
        return np.frombuffer(buf, dtype=dtype).reshape(h, w)
