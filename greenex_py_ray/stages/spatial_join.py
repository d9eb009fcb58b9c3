"""Cell-partitioned spatial joins with explicit hot-cell salting.

The broadcast joins in ``stages/access.py`` are right when one side is
small.  When BOTH sides are large (10^12 docs × millions of polygons),
the join must shuffle on the spatial cell key — the core
"groupby-cell shuffle with explicit salting of hot urban cells" of the
north rule.  ``cell_pip_join`` (points in rectangles):

1. a cheap stats pass (``groupby(cell).count()`` on the point side)
   sizes a salt map for cells above ``hot_threshold`` rows;
2. points get ``salt = hash(key) % k(cell)``; each polygon is
   replicated to every (covered cell, salt) bucket — polygons are
   replicated, points are not, so the skewed side fans out;
3. ``groupby([cell, salt])`` co-locates candidates; the exact geometry
   predicate is refined per group with a vectorized containment test.

``cell_box_join`` (box↔box overlap) replicates both sides and emits each
pair from its ownership cell only.  Results are identical to the
broadcast path (same SQL oracle validates both).  PoI-buffer joins need
no shuffle: the PoIs stream through a kernel that holds the indexed
side (``stages/visibility.StreetviewPoI``).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data
from ray.data.aggregate import Count

from .. import cells
from ..sidefiles import shipped, side_table


def point_cell_stats(points: "ray.data.Dataset", cell_size: float) -> dict[int, int]:
    """Pass 1: rows per cell (small result, collected on the driver and
    broadcast).  The stats pass reads only x/y."""
    stats = (
        points.map_batches(
            lambda b: pa.table({"cell": pa.array(
                cells.cell_of(
                    b.column("x").to_numpy(zero_copy_only=False),
                    b.column("y").to_numpy(zero_copy_only=False),
                    cell_size,
                )
            )}),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        .groupby("cell")
        .aggregate(Count(alias_name="n"))
        .to_pandas()
    )
    return dict(zip(stats["cell"].astype(np.int64), stats["n"].astype(np.int64)))


def build_salt_map(cell_counts: dict[int, int], hot_threshold: int = 20_000,
                   target_per_salt: int = 10_000) -> dict[int, int]:
    """k(cell) for cells whose row count exceeds the hot threshold."""
    return {
        c: int(min(64, int(np.ceil(n / target_per_salt))))
        for c, n in cell_counts.items()
        if n > hot_threshold
    }


def cell_pip_join(
    points: "ray.data.Dataset",
    rects: pa.Table,
    cell_size: float = cells.DEFAULT_CELL_SIZE,
    hot_threshold: int = 20_000,
    target_per_salt: int = 10_000,
) -> "ray.data.Dataset":
    """Points-in-rectangles join as a salted groupby-cell shuffle.

    ``points`` needs columns (key, x, y); ``rects`` is a table
    (gs_id, x0, y0, x1, y1) — large in principle; it is shipped through
    the shuffle (replicated per covered cell × salt), not broadcast.
    Emits (key, gs_id) pairs, exactly the broadcast ``PointsInRects``
    result."""
    salt_map = build_salt_map(point_cell_stats(points, cell_size),
                              hot_threshold, target_per_salt)
    salt_ref = shipped(salt_map)
    key_type = points.schema().base_schema.field("doc_id").type

    def tag_points(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy(zero_copy_only=False)
        y = batch.column("y").to_numpy(zero_copy_only=False)
        cell = cells.cell_of(x, y, cell_size)
        smap = side_table(salt_ref)
        keys = batch.column("doc_id")
        # typed-array hashing (same trick as bucket_dedup): no
        # to_pylist() python-object round-trip; the hash only drives
        # salt-bucket placement
        kh = pd.util.hash_pandas_object(keys.to_pandas(),
                                        index=False).to_numpy()
        ks = np.ones(len(cell), dtype=np.int64)
        if smap:
            for c, k in smap.items():
                ks[cell == c] = k
        salt = (kh % ks.astype(np.uint64)).astype(np.int64)
        return pa.table({
            "doc_id": keys,
            "px": pa.array(x), "py": pa.array(y),
            "cell": pa.array(cell), "salt": pa.array(salt),
            "side": pa.array(np.zeros(len(cell), dtype=np.int8)),
            "gs_id": pa.nulls(len(cell), pa.int64()),
            "x0": pa.nulls(len(cell), pa.float64()),
            "y0": pa.nulls(len(cell), pa.float64()),
            "x1": pa.nulls(len(cell), pa.float64()),
            "y1": pa.nulls(len(cell), pa.float64()),
        })

    def explode_rects(batch: pa.Table) -> pa.Table:
        x0 = batch.column("x0").to_numpy(zero_copy_only=False)
        y0 = batch.column("y0").to_numpy(zero_copy_only=False)
        x1 = batch.column("x1").to_numpy(zero_copy_only=False)
        y1 = batch.column("y1").to_numpy(zero_copy_only=False)
        ridx, rcell = cells.cover_bbox(x0, y0, x1, y1, cell_size)
        smap = side_table(salt_ref)
        # replicate each (rect, cell) row to every salt bucket of that cell
        ks = np.ones(len(rcell), dtype=np.int64)
        if smap:
            for c, k in smap.items():
                ks[rcell == c] = k
        total = int(ks.sum())
        rep = np.repeat(np.arange(len(rcell)), ks)
        starts = np.concatenate(([0], np.cumsum(ks)[:-1]))
        salt = np.arange(total, dtype=np.int64) - np.repeat(starts, ks)
        gs = batch.column("gs_id").to_numpy(zero_copy_only=False)
        n = total
        return pa.table({
            "doc_id": pa.nulls(n, key_type),
            "px": pa.nulls(n, pa.float64()),
            "py": pa.nulls(n, pa.float64()),
            "cell": pa.array(rcell[rep]), "salt": pa.array(salt),
            "side": pa.array(np.ones(n, dtype=np.int8)),
            "gs_id": pa.array(gs[ridx][rep]),
            "x0": pa.array(x0[ridx][rep]), "y0": pa.array(y0[ridx][rep]),
            "x1": pa.array(x1[ridx][rep]), "y1": pa.array(y1[ridx][rep]),
        })

    pts_tagged = points.map_batches(tag_points, batch_format="pyarrow",
                                    zero_copy_batch=True)
    rects_tagged = ray.data.from_arrow(rects).map_batches(
        explode_rects, batch_format="pyarrow"
    )
    cols = ["doc_id", "px", "py", "cell", "salt", "side", "gs_id",
            "x0", "y0", "x1", "y1"]
    u = pts_tagged.select_columns(cols).union(rects_tagged.select_columns(cols))

    def join_group(tbl: pa.Table) -> pa.Table:
        side = tbl.column("side").to_numpy(zero_copy_only=False)
        pi = np.flatnonzero(side == 0)
        ri = np.flatnonzero(side == 1)
        if len(pi) == 0 or len(ri) == 0:
            return pa.table({"doc_id": pa.array([], key_type),
                             "gs_id": pa.array([], pa.int64())})
        px = tbl.column("px").to_numpy(zero_copy_only=False)[pi]
        py = tbl.column("py").to_numpy(zero_copy_only=False)[pi]
        x0 = tbl.column("x0").to_numpy(zero_copy_only=False)[ri]
        y0 = tbl.column("y0").to_numpy(zero_copy_only=False)[ri]
        x1 = tbl.column("x1").to_numpy(zero_copy_only=False)[ri]
        y1 = tbl.column("y1").to_numpy(zero_copy_only=False)[ri]
        inside = (
            (px[:, None] >= x0[None, :]) & (px[:, None] <= x1[None, :])
            & (py[:, None] >= y0[None, :]) & (py[:, None] <= y1[None, :])
        )
        qi, rj = np.nonzero(inside)
        # a point's cell is unique → no cross-cell duplicates; a rect may
        # contain the point while covering several cells, but the pair is
        # only emitted from the point's own (cell, salt) group
        return pa.table({
            "doc_id": tbl.column("doc_id").take(pa.array(pi[qi])),
            "gs_id": tbl.column("gs_id").take(pa.array(ri[rj])),
        })

    return u.groupby(["cell", "salt"]).map_groups(join_group, batch_format="pyarrow")


def cell_box_join(
    boxes: "ray.data.Dataset",
    rects: pa.Table,
    cell_size: float = cells.DEFAULT_CELL_SIZE,
    key_col: str = "doc_id",
) -> "ray.data.Dataset":
    """Box↔box overlap join (2-D range join) as a groupby-cell shuffle
    with ownership-cell dedup.

    ``boxes`` needs (key, bx0, by0, bx1, by1); ``rects`` is
    (gs_id, x0, y0, x1, y1).  BOTH sides are exploded to every grid
    cell their box covers, so an overlapping pair meets in every cell
    their covers share — the classic over-reporting problem of
    grid-partitioned spatial joins.  Dedup is by *ownership cell*: the
    intersection's min corner ``(max(bx0,x0), max(by0,y0))`` lies in
    exactly one grid cell, and the pair is emitted only from that
    cell's group.  No post-shuffle distinct pass, no global state —
    the standard PBSM / spatial-hash-join reporting rule.

    Scale shape: shuffle payload is Σ cells-covered per box (bounded by
    box extent / cell_size); within a group the overlap test is one
    vectorized (n_left × n_right) numpy predicate.  Pick ``cell_size``
    on the order of the median box extent to bound both replication
    and group fan-in.
    """
    sch = boxes.schema()
    kt = dict(zip(sch.names, sch.types))[key_col]
    # pandas-block schemas surface numpy dtypes; keys here are int ids
    key_type = kt if isinstance(kt, pa.DataType) else pa.int64()

    def explode_left(batch: pa.Table) -> pa.Table:
        x0 = batch.column("bx0").to_numpy(zero_copy_only=False)
        y0 = batch.column("by0").to_numpy(zero_copy_only=False)
        x1 = batch.column("bx1").to_numpy(zero_copy_only=False)
        y1 = batch.column("by1").to_numpy(zero_copy_only=False)
        idx, cell = cells.cover_bbox(x0, y0, x1, y1, cell_size)
        n = len(idx)
        return pa.table({
            key_col: batch.column(key_col).take(pa.array(idx)),
            "cell": pa.array(cell),
            "side": pa.array(np.zeros(n, dtype=np.int8)),
            "gs_id": pa.nulls(n, pa.int64()),
            "x0": pa.array(x0[idx]), "y0": pa.array(y0[idx]),
            "x1": pa.array(x1[idx]), "y1": pa.array(y1[idx]),
        })

    def explode_right(batch: pa.Table) -> pa.Table:
        x0 = batch.column("x0").to_numpy(zero_copy_only=False)
        y0 = batch.column("y0").to_numpy(zero_copy_only=False)
        x1 = batch.column("x1").to_numpy(zero_copy_only=False)
        y1 = batch.column("y1").to_numpy(zero_copy_only=False)
        idx, cell = cells.cover_bbox(x0, y0, x1, y1, cell_size)
        n = len(idx)
        gs = batch.column("gs_id").to_numpy(zero_copy_only=False)
        return pa.table({
            key_col: pa.nulls(n, key_type),
            "cell": pa.array(cell),
            "side": pa.array(np.ones(n, dtype=np.int8)),
            "gs_id": pa.array(gs[idx]),
            "x0": pa.array(x0[idx]), "y0": pa.array(y0[idx]),
            "x1": pa.array(x1[idx]), "y1": pa.array(y1[idx]),
        })

    left = boxes.map_batches(explode_left, batch_format="pyarrow",
                             zero_copy_batch=True)
    right = ray.data.from_arrow(rects).map_batches(
        explode_right, batch_format="pyarrow")
    cols = [key_col, "cell", "side", "gs_id", "x0", "y0", "x1", "y1"]
    u = left.select_columns(cols).union(right.select_columns(cols))

    def join_group(tbl: pa.Table) -> pa.Table:
        side = tbl.column("side").to_numpy(zero_copy_only=False)
        li = np.flatnonzero(side == 0)
        ri = np.flatnonzero(side == 1)
        empty = pa.table({key_col: pa.array([], key_type),
                          "gs_id": pa.array([], pa.int64())})
        if len(li) == 0 or len(ri) == 0:
            return empty
        gcell = int(tbl.column("cell")[0].as_py())
        ax0 = tbl.column("x0").to_numpy(zero_copy_only=False)[li]
        ay0 = tbl.column("y0").to_numpy(zero_copy_only=False)[li]
        ax1 = tbl.column("x1").to_numpy(zero_copy_only=False)[li]
        ay1 = tbl.column("y1").to_numpy(zero_copy_only=False)[li]
        bx0 = tbl.column("x0").to_numpy(zero_copy_only=False)[ri]
        by0 = tbl.column("y0").to_numpy(zero_copy_only=False)[ri]
        bx1 = tbl.column("x1").to_numpy(zero_copy_only=False)[ri]
        by1 = tbl.column("y1").to_numpy(zero_copy_only=False)[ri]
        hit = ((ax0[:, None] <= bx1[None, :]) & (ax1[:, None] >= bx0[None, :])
               & (ay0[:, None] <= by1[None, :]) & (ay1[:, None] >= by0[None, :]))
        ai, bj = np.nonzero(hit)
        if len(ai) == 0:
            return empty
        ox = np.maximum(ax0[ai], bx0[bj])
        oy = np.maximum(ay0[ai], by0[bj])
        own = cells.cell_of(ox, oy, cell_size)
        keep = own == gcell
        return pa.table({
            key_col: tbl.column(key_col).take(pa.array(li[ai[keep]])),
            "gs_id": tbl.column("gs_id").take(pa.array(ri[bj[keep]])),
        })

    return u.groupby("cell").map_groups(join_group, batch_format="pyarrow")
