"""Cell counts and neighbourhood sums over the occupied cells of a grid.

The grid statistics (``geostats.hexbin``, ``hex_kring``, ``morans_i``,
``getis_ord_gi_star``, ``local_morans_i`` and ``clustering.grid_dbscan``)
share one plan, in the spirit of GeoBlocks (EDBT 2021), which aggregates
over precomputed cell aggregates:

1. :func:`cell_counts` — each batch collapses its points to distinct
   cell keys (``cells.pack_cell``) with their counts, and one groupby
   sums them: the materialized ``(ck, n)`` table of occupied cells, so
   every later exchange is O(occupied cells), never O(points).
2. :func:`stencil` — each occupied cell emits its count to its own key
   moved by every offset, one groupby sums the emissions per key, and a
   bucket join attaches the sums back onto the occupied cells.  The
   join is inner, so emissions landing on unoccupied cells drop out,
   which is the ``w_ij = 0`` case.
3. :func:`moments` — ``(#cells, Σn, Σn²)`` in one aggregate.

Every sum is an exact int64, so no partitioning changes a result and the
SQL oracles replay the statistics bit for bit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Count, Sum

from ..cells import pack_cell, shift_cells
from ..functions.joins import bucket_join_attach

#: edge neighbours of a square cell (self excluded)
ROOK = ((1, 0), (-1, 0), (0, 1), (0, -1))
#: the 3×3 window of a square cell, self included
QUEEN = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))
#: a pointy-top axial hex and its 6 neighbours, self first
HEX_RING = ((0, 0), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))

_INT64 = pa.int64()


def col(batch: pa.Table, name: str) -> np.ndarray:
    return batch.column(name).to_numpy(zero_copy_only=False)


def cell_counts(ds: "ray.data.Dataset", bin_xy) -> "ray.data.Dataset":
    """Materialized ``(ck, n)``: the points of ``ds`` (columns ``x``,
    ``y``) per occupied cell, where ``bin_xy(x, y)`` gives each point's
    integer cell ``(ix, iy)`` (a square floor or an axial hex)."""

    def partial(batch: pa.Table) -> pa.Table:
        ck = pack_cell(*bin_xy(col(batch, "x"), col(batch, "y")))
        uk, cnt = np.unique(ck, return_counts=True)
        return pa.table({"ck": pa.array(uk, _INT64),
                         "n": pa.array(cnt, _INT64)})

    return (ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("ck").aggregate(Sum("n", alias_name="n"))
            .materialize())


def stencil(cells: "ray.data.Dataset", offsets) -> "ray.data.Dataset":
    """``cells`` (``ck``, ``n``, …) with two columns appended: ``nx``,
    the sum of ``n`` over the occupied cells at ``offsets`` from each
    cell, and ``w``, how many of those cells are occupied.  A cell none
    of whose offsets is occupied drops out."""
    k = len(offsets)

    def emit(batch: pa.Table) -> pa.Table:
        ck = col(batch, "ck")
        return pa.table({"ck": shift_cells(ck, offsets),
                         "nx": np.tile(col(batch, "n"), k),
                         "w": np.ones(k * len(ck), np.int64)})

    nbr = (cells.map_batches(emit, batch_format="pyarrow",
                             zero_copy_batch=True)
           .groupby("ck").aggregate(Sum("nx", alias_name="nx"),
                                    Sum("w", alias_name="w")))
    # the right side's schema is known: probing a lazy groupby for it
    # would run the groupby once more
    return bucket_join_attach(
        cells, nbr, key="ck",
        right_fields=[pa.field(c, _INT64) for c in ("ck", "nx", "w")])


def moments(cells: "ray.data.Dataset") -> tuple[int, int, int]:
    """``(#cells, Σn, Σn²)`` of a ``(ck, n)`` table, as exact ints."""
    g = cells.map_batches(
        lambda b: pa.table({"n": b.column("n"),
                            "nn": col(b, "n") ** 2}),
        batch_format="pyarrow", zero_copy_batch=True,
    ).aggregate(Count(), Sum("n", alias_name="s"),
                Sum("nn", alias_name="ss"))
    return int(g["count()"]), int(g["s"] or 0), int(g["ss"] or 0)
