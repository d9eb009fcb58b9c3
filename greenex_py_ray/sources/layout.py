"""Z-order-partitioned physical layout with bbox file pruning.

The "prune at the read" path for spatial scans: documents land in one
parquet file per Morton-key block (``zorder(ix, iy) >> ZBLOCK_SHIFT``),
so a bounding-box query enumerates exactly the blocks its cells touch
and opens ONLY those files — on a 10^12-row table a city-scale bbox
reads a few blocks instead of the whole corpus.  Same role as
`sources/documents.read_documents` (leaf columns, planned row ranges),
one level up: file pruning by spatial key.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from .. import cells

ZBLOCK_SHIFT = 4


def ensure_zorder_layout(sf_dir: str, cell_size: float = 500.0) -> str:
    """Materialize (once, idempotent per-user cache) the documents
    table partitioned into one parquet file per z-order block."""
    uid = os.getuid() if hasattr(os, "getuid") else 0
    root = os.path.join("/tmp", f"greenex_zlayout_{uid}",
                        os.path.basename(os.path.normpath(sf_dir))
                        + f"_cs{int(cell_size)}")
    done = os.path.join(root, "DONE")
    if os.path.exists(done):
        return root
    os.makedirs(root, mode=0o700, exist_ok=True)

    from . import driver_tables as dt

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    k = t.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    x, y = dt.derive_xy(k)
    ix, iy = cells.cell_indices(x, y, cell_size)
    zb = (cells.zorder(ix, iy) >> np.uint64(ZBLOCK_SHIFT)).astype(np.int64)
    order = np.argsort(zb, kind="stable")
    zb_s, k_s, x_s, y_s = zb[order], k[order], x[order], y[order]
    starts = np.flatnonzero(np.r_[True, zb_s[1:] != zb_s[:-1]])
    bounds = np.r_[starts, len(zb_s)]
    for i, st in enumerate(starts):
        en = bounds[i + 1]
        blk = pa.table({
            "doc_id": pa.array(k_s[st:en]),
            "x": pa.array(x_s[st:en]), "y": pa.array(y_s[st:en]),
        })
        pq.write_table(blk, os.path.join(root,
                                         f"zblock={zb_s[st]}.parquet"))
    with open(done, "w") as f:
        f.write("ok")
    return root


def zorder_bbox_scan(layout_root: str, x0: float, y0: float,
                     x1: float, y1: float,
                     cell_size: float = 500.0) -> "ray.data.Dataset":
    """BBox query over the z-layout: enumerate the query's covered grid
    cells, map to z-blocks, read ONLY those files, refine the exact
    predicate vectorized.  Returns (doc_id, x, y) rows."""
    ix0, iy0 = cells.cell_indices(np.array([x0]), np.array([y0]), cell_size)
    ix1, iy1 = cells.cell_indices(np.array([x1]), np.array([y1]), cell_size)
    gx, gy = np.meshgrid(np.arange(ix0[0], ix1[0] + 1, dtype=np.int64),
                         np.arange(iy0[0], iy1[0] + 1, dtype=np.int64),
                         indexing="ij")
    blocks = np.unique(
        (cells.zorder(gx.ravel(), gy.ravel())
         >> np.uint64(ZBLOCK_SHIFT)).astype(np.int64))
    paths = [os.path.join(layout_root, f"zblock={b}.parquet")
             for b in blocks]
    paths = [p for p in paths if os.path.exists(p)]
    if not paths:
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([], pa.int64()),
            "x": pa.array([], pa.float64()),
            "y": pa.array([], pa.float64())}))
    ds = ray.data.read_parquet(paths)

    def refine(b: pa.Table) -> pa.Table:
        x = b.column("x").to_numpy(zero_copy_only=False)
        y = b.column("y").to_numpy(zero_copy_only=False)
        keep = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)
        return b.filter(pa.array(keep))

    return ds.map_batches(refine, batch_format="pyarrow",
                          zero_copy_batch=True)
