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

Cell keys are packed ``(ix << 32) | (iy & 0xffffffff)`` — sign-safe for
|ix|,|iy| < 2³¹ — and the cluster label is the MIN packed key of the
component, so labels are deterministic under any partitioning.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Min, Sum

from ..functions.joins import bucket_join_attach

_B32 = np.int64(32)
_MASK = np.int64(0xFFFFFFFF)

#: the 3×3 neighborhood offsets (self included — DBSCAN's eps-ball
#: contains the point itself)
_OFFS = [(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]


def _pack(cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    return (cx << _B32) + (cy & _MASK)


def _unpack(ck: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    cx = ck >> _B32
    lo = ck & _MASK
    cy = np.where(lo >= np.int64(1) << np.int64(31),
                  lo - (np.int64(1) << _B32), lo)
    return cx, cy


def grid_dbscan(ds: "ray.data.Dataset", cell_size: float,
                min_pts: int) -> "ray.data.Dataset":
    """Returns one row per OCCUPIED cell:
    (ix, iy, n, core: bool, cluster: int64 | NULL)."""
    from .dedup import connected_components

    def counts(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        cx = np.floor(x / cell_size).astype(np.int64)
        cy = np.floor(y / cell_size).astype(np.int64)
        uk, cnt = np.unique(_pack(cx, cy), return_counts=True)
        return pa.table({"ck": pa.array(uk),
                         "n": pa.array(cnt.astype(np.int64))})

    cells = (ds.map_batches(counts, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby("ck").aggregate(Sum("n", alias_name="n"))
             .materialize())  # O(occupied cells) ≪ O(points)

    def emit9(col: str):
        def emit(batch: pa.Table) -> pa.Table:
            ck = batch.column("ck").to_numpy(zero_copy_only=False)
            v = batch.column(col).to_numpy(zero_copy_only=False)
            cx, cy = _unpack(ck)
            outs = [_pack(cx + dx, cy + dy) for dx, dy in _OFFS]
            return pa.table({"ck": np.concatenate(outs),
                             col: np.tile(v, len(_OFFS))})
        return emit

    # neighborhood point count per cell (3×3 incl. self)
    nsum = (cells.map_batches(emit9("n"), batch_format="pyarrow",
                              zero_copy_batch=True)
            .groupby("ck").aggregate(Sum("n", alias_name="m")))
    cells_m = bucket_join_attach(cells, nsum, key="ck").materialize()

    # explicit Arrow-mask split (NOT filter(expr=...): Ray's expression
    # filter can be re-ordered across the later join projections when
    # this lineage is consumed by two downstream branches, dropping the
    # "m" column before the predicate runs)
    def split(keep_core: bool):
        def fn(batch: pa.Table) -> pa.Table:
            m = batch.column("m").to_numpy(zero_copy_only=False)
            mask = m >= min_pts if keep_core else m < min_pts
            return batch.select(["ck", "n"]).filter(pa.array(mask))
        return fn

    core = cells_m.map_batches(split(True), batch_format="pyarrow",
                               zero_copy_batch=True).materialize()
    noncore = cells_m.map_batches(split(False), batch_format="pyarrow",
                                  zero_copy_batch=True).materialize()

    # core↔core 8-adjacency (self-pairs keep isolated core cells in the
    # component table with their own key as label)
    core_marked = core.map_batches(
        lambda b: pa.table({"ck": b.column("ck"),
                            "is_core": np.ones(b.num_rows, np.int64)}),
        batch_format="pyarrow", zero_copy_batch=True)
    spread = core.map_batches(
        lambda b: pa.table({"ck": b.column("ck"), "src": b.column("ck")}),
        batch_format="pyarrow", zero_copy_batch=True).map_batches(
        emit9("src"), batch_format="pyarrow", zero_copy_batch=True)
    pairs = bucket_join_attach(spread, core_marked, key="ck").map_batches(
        lambda b: pa.table({"key_a": b.column("src"),
                            "key_b": b.column("ck")}),
        batch_format="pyarrow", zero_copy_batch=True)
    comp = connected_components(pairs)  # (key, component)

    comp_k = comp.map_batches(
        lambda b: pa.table({"ck": b.column("key"),
                            "cluster": b.column("component")}),
        batch_format="pyarrow", zero_copy_batch=True).materialize()

    def finish(core_flag: bool):
        def fn(batch: pa.Table) -> pa.Table:
            ck = batch.column("ck").to_numpy(zero_copy_only=False)
            cx, cy = _unpack(ck)
            cl = batch.column("cluster") if "cluster" in batch.column_names \
                else pa.nulls(batch.num_rows, pa.int64())
            return pa.table({
                "ix": pa.array(cx), "iy": pa.array(cy),
                "n": batch.column("n"),
                "core": pa.array(np.full(batch.num_rows, core_flag)),
                "cluster": cl,
            })
        return fn

    core_rows = bucket_join_attach(core, comp_k, key="ck").map_batches(
        finish(True), batch_format="pyarrow", zero_copy_batch=True)

    # border + noise in ONE union+groupby (a LEFT join in disguise —
    # no Dataset.join, whose per-partition acero join rejects the empty
    # hash partitions a near-empty non-core side produces): non-core
    # cells carry (n, cluster=NULL), 9-way label spreads from core
    # cells carry (n=0, cluster); after groupby-min, n>0 keeps exactly
    # the non-core cells, cluster stays NULL where no core neighbor
    # spread a label (= noise)
    labels_out = comp_k.map_batches(emit9("cluster"),
                                    batch_format="pyarrow",
                                    zero_copy_batch=True)

    def mark_noncore(batch: pa.Table) -> pa.Table:
        return pa.table({"ck": batch.column("ck"),
                         "n": batch.column("n"),
                         "cluster": pa.nulls(batch.num_rows, pa.int64())})

    def mark_label(batch: pa.Table) -> pa.Table:
        return pa.table({"ck": batch.column("ck"),
                         "n": np.zeros(batch.num_rows, np.int64),
                         "cluster": batch.column("cluster")})

    merged = (noncore.map_batches(mark_noncore, batch_format="pyarrow",
                                  zero_copy_batch=True)
              .union(labels_out.map_batches(mark_label,
                                            batch_format="pyarrow",
                                            zero_copy_batch=True))
              .groupby("ck").aggregate(Sum("n", alias_name="n"),
                                       Min("cluster",
                                           alias_name="cluster")))

    def keep_occupied(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(n > 0))

    noncore_rows = merged.map_batches(
        keep_occupied, batch_format="pyarrow",
        zero_copy_batch=True).map_batches(
        finish(False), batch_format="pyarrow", zero_copy_batch=True)

    return core_rows.union(noncore_rows)
