"""Distributed density clustering: grid DBSCAN.

The classic "find the dense blobs, flag the noise" pass a geospatial
curation pipeline runs over PoI/GPS-point tables (the reference's pillars
assume AoIs are given; this derives them from raw points).  This is the
*grid* formulation — eps is expressed as one grid cell, a cell is CORE
when its 3×3 neighborhood holds ≥ ``min_pts`` points, clusters are
8-connected components of core cells, BORDER cells are non-core cells
8-adjacent to a core cell (label = min cluster label among adjacent
core cells), everything else occupied is NOISE (NULL label).  All
decisions are integer comparisons over exact int64 counts, so a SQL
oracle replays them bit-for-bit — no float eps-ball ambiguity.

Scale shape: points collapse to per-cell counts inside ``map_batches``
before the one O(touched-cells) groupby; neighborhood sums and
label spreading are 9-way key-shifted emissions + groupby over cell
rows (never a points-level shuffle); components run through
:func:`~greenex_py_ray.stages.dedup.connected_components` (driver
union-find below its size gate, pointer-doubling min-label above).

Cell keys are ``cells.pack_cell`` keys, and the cluster label is the
MIN key of the component, so labels are deterministic under any
partitioning.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Min, Sum

from ..cells import cell_indices, shift_cells, unpack_cell
from ..functions.joins import bucket_join_attach
from .stencil import QUEEN, cell_counts, col, stencil

#: the label of a cell no core cell labels: above every key of a cell
#: whose window fits the key range (ix < 2³¹ − 1), so the groupby-min
#: keeps a real label; and an int64, where a null label would make an
#: all-noise partition's min a null-typed column
_NO_LABEL = np.iinfo(np.int64).max


def _spread(ck: np.ndarray, **cols: np.ndarray) -> pa.Table:
    """Cells ``ck`` and their ``cols``, sent to their 3×3 windows' keys."""
    return pa.table({"ck": shift_cells(ck, QUEEN),
                     **{c: np.tile(v, len(QUEEN)) for c, v in cols.items()}})


def _rows(batch: pa.Table, core: bool) -> pa.Table:
    """Output rows of the occupied (n > 0) cells of ``(ck, n, cluster)``."""
    batch = batch.filter(pa.array(col(batch, "n") > 0))
    ix, iy = unpack_cell(col(batch, "ck"))
    cl = col(batch, "cluster")
    return pa.table({"ix": ix, "iy": iy, "n": batch.column("n"),
                     "core": np.full(batch.num_rows, core),
                     "cluster": pa.array(cl, pa.int64(),
                                         mask=cl == _NO_LABEL)})


def grid_dbscan(ds: "ray.data.Dataset", cell_size: float,
                min_pts: int) -> "ray.data.Dataset":
    """Returns one row per OCCUPIED cell:
    (ix, iy, n, core: bool, cluster: int64 | NULL)."""
    from .dedup import connected_components

    # (ck, n, nx, w): nx is the point count of the cell's 3×3 window
    cells_m = stencil(cell_counts(ds, partial(cell_indices,
                                              cell_size=cell_size)),
                      QUEEN).materialize()

    # explicit Arrow-mask split (NOT filter(expr=...): Ray's expression
    # filter can be re-ordered across the later join projections when
    # this lineage is consumed by two downstream branches, dropping the
    # "nx" column before the predicate runs)
    def split(keep_core: bool):
        def fn(batch: pa.Table) -> pa.Table:
            m = col(batch, "nx")
            mask = m >= min_pts if keep_core else m < min_pts
            return batch.select(["ck", "n"]).filter(pa.array(mask))
        return fn

    core = cells_m.map_batches(split(True), batch_format="pyarrow",
                               zero_copy_batch=True).materialize()
    noncore = cells_m.map_batches(split(False), batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()

    # core↔core 8-adjacency (self-pairs keep isolated core cells in the
    # component table with their own key as label)
    spread = core.map_batches(
        lambda b: _spread(col(b, "ck"), src=col(b, "ck")),
        batch_format="pyarrow", zero_copy_batch=True)
    pairs = bucket_join_attach(
        spread, core, key="ck", how="semi",
        left_fields=[pa.field("ck", pa.int64()),
                     pa.field("src", pa.int64())]).map_batches(
        lambda b: pa.table({"key_a": b.column("src"),
                            "key_b": b.column("ck")}),
        batch_format="pyarrow", zero_copy_batch=True)
    # materialized: connected_components counts the pairs, then reads them
    comp = connected_components(pairs.materialize())  # (key, component)

    comp_k = comp.map_batches(
        lambda b: pa.table({"ck": b.column("key"),
                            "cluster": b.column("component")}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()

    core_rows = bucket_join_attach(core, comp_k, key="ck").map_batches(
        _rows, fn_kwargs={"core": True}, batch_format="pyarrow",
        zero_copy_batch=True)

    # border + noise in ONE union+groupby (a LEFT join in disguise —
    # no Dataset.join, whose per-partition acero join rejects the empty
    # hash partitions a near-empty non-core side produces): non-core
    # cells carry (n, _NO_LABEL), 9-way label spreads from core cells
    # carry (n=0, cluster); after groupby-min, n>0 keeps exactly the
    # non-core cells, and the label stays _NO_LABEL (noise) where no
    # core neighbor spread one
    labels_out = comp_k.map_batches(
        lambda b: _spread(col(b, "ck"), n=np.zeros(b.num_rows, np.int64),
                          cluster=col(b, "cluster")),
        batch_format="pyarrow", zero_copy_batch=True)
    marked = noncore.map_batches(
        lambda b: b.append_column(
            "cluster", pa.array(np.full(b.num_rows, _NO_LABEL))),
        batch_format="pyarrow", zero_copy_batch=True)
    merged = (marked.union(labels_out)
              .groupby("ck").aggregate(Sum("n", alias_name="n"),
                                       Min("cluster",
                                           alias_name="cluster")))
    noncore_rows = merged.map_batches(
        _rows, fn_kwargs={"core": False}, batch_format="pyarrow",
        zero_copy_batch=True)

    return core_rows.union(noncore_rows)
