"""Spatial cell index (H3/S2-style, realized as a fixed-resolution grid key).

The reference (GreenEx_Py) does every spatial operation as a per-row
shapely ``clip``/``sjoin`` against globally materialized side data
(e.g. ``/root/reference/GreenExp/accessibility.py:228``,
``availability.py:289``).  In the Ray-Data engine every spatial join
becomes an *equi-join on a cell key*: points, polygons, raster tiles and
network nodes are all tagged with the uint64 id of the grid cell(s) they
touch, the shuffle is a ``groupby(cell)``, and exact geometry predicates
are refined inside the group.

Three keyings are provided:

* ``cell_id(ix, iy)`` — linear key ``ix * 2**20 + iy``.  Deliberately
  SQL-expressible (``floor(x/cs)*1048576 + floor(y/cs)``) so DuckDB
  oracles can reproduce tile assignments bit-for-bit.
* ``zorder(ix, iy)`` — Morton interleave of the same indices, used when
  we want range-partition locality (output ordering, tile manifests).
* ``pack_cell(ix, iy)`` — ``(ix << 32) + (iy & 0xFFFFFFFF)``, the one
  sign-safe key of the grid statistics (``stages/stencil``) and the
  segment grid of ``stages/mapmatch``: any |ix|, |iy| <= 2³¹ − 1 round
  trips through ``unpack_cell``, cells west/south of the origin too.

All functions are vectorized numpy over float64/uint64 arrays; no Python
per-row loops.
"""

from __future__ import annotations

import numpy as np

#: Number of distinct iy values per ix in the linear key. 2**20 rows of
#: cells — at 100 m cells this spans ~105,000 km, far beyond any
#: projected CRS extent we use.
CELL_STRIDE = 1 << 20

#: Default cell edge length in CRS units (meters for projected CRS).
DEFAULT_CELL_SIZE = 500.0


def cell_indices(x: np.ndarray, y: np.ndarray, cell_size: float = DEFAULT_CELL_SIZE):
    """(ix, iy) integer grid indices for point coordinates."""
    ix = np.floor(np.asarray(x, dtype=np.float64) / cell_size).astype(np.int64)
    iy = np.floor(np.asarray(y, dtype=np.float64) / cell_size).astype(np.int64)
    return ix, iy


def cell_id(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Linear uint64 cell key. SQL equivalent:
    ``CAST(floor(x/cs) AS BIGINT) * 1048576 + CAST(floor(y/cs) AS BIGINT)``."""
    return (np.asarray(ix, dtype=np.int64) * CELL_STRIDE + np.asarray(iy, dtype=np.int64)).astype(
        np.int64
    )


def cell_of(x: np.ndarray, y: np.ndarray, cell_size: float = DEFAULT_CELL_SIZE) -> np.ndarray:
    ix, iy = cell_indices(x, y, cell_size)
    return cell_id(ix, iy)


_LO32 = np.int64(0xFFFFFFFF)


def pack_cell(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Sign-safe int64 key of cells ``(ix, iy)``: ix in the high 32 bits,
    iy's low 32 bits (two's complement) below."""
    return (np.asarray(ix, dtype=np.int64) << np.int64(32)) + (
        np.asarray(iy, dtype=np.int64) & _LO32)


def unpack_cell(ck: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pack_cell`: the arithmetic shifts floor ix and
    sign-extend iy's low 32 bits."""
    ck = np.asarray(ck, dtype=np.int64)
    return ck >> np.int64(32), (ck << np.int64(32)) >> np.int64(32)


def shift_cells(ck: np.ndarray, offsets) -> np.ndarray:
    """The keys of cells ``ck`` moved by each ``(dx, dy)`` of ``offsets``,
    offset-major: row ``k * len(ck) + i`` is cell i moved by offset k."""
    ix, iy = unpack_cell(ck)
    return np.concatenate([pack_cell(ix + dx, iy + dy) for dx, dy in offsets])


def _part1by1(v: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of v into even bit positions (Morton helper)."""
    v = v.astype(np.uint64) & np.uint64(0xFFFFFFFF)
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return v


def zorder(ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    """Morton (Z-order) interleave of two non-negative 32-bit indices."""
    return (_part1by1(np.asarray(ix)) | (_part1by1(np.asarray(iy)) << np.uint64(1))).astype(
        np.uint64
    )


def cover_bbox(
    x0: np.ndarray, y0: np.ndarray, x1: np.ndarray, y1: np.ndarray,
    cell_size: float = DEFAULT_CELL_SIZE,
):
    """Cell cover of axis-aligned boxes; returns (box_index, cell)."""
    ix0 = np.floor(np.asarray(x0, dtype=np.float64) / cell_size).astype(np.int64)
    ix1 = np.floor(np.asarray(x1, dtype=np.float64) / cell_size).astype(np.int64)
    iy0 = np.floor(np.asarray(y0, dtype=np.float64) / cell_size).astype(np.int64)
    iy1 = np.floor(np.asarray(y1, dtype=np.float64) / cell_size).astype(np.int64)
    nx = ix1 - ix0 + 1
    ny = iy1 - iy0 + 1
    counts = nx * ny
    total = int(counts.sum())
    idx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, counts)
    ny_rep = np.repeat(ny, counts)
    dx = local // ny_rep
    dy = local - dx * ny_rep
    return idx, cell_id(np.repeat(ix0, counts) + dx, np.repeat(iy0, counts) + dy)
