"""STAC catalog selection: lowest-cloud-cover item per AoI (SURVEY A9).

Reimplements the reference's Planetary-Computer item selection
(`/root/reference/GreenExp/availability.py:157-175`): the catalog search
is filtered to ``eo:cloud_cover < 20`` and a time range, items are then
restricted to those whose footprint *contains* the query bbox, and the
item with the lowest cloud cover wins, tie-broken by catalog order
(``items_df_poi.iloc[0]``).

The reference does this once for a single global bbox; here it is a
proper distributed operator — one selection per AoI row — because at
100 TB the AoI side is the big table.  Physical plan: the catalog is
the small side (a STAC search returns a bounded item list), shipped
once to the object store; each worker process's cached kernel pre-sorts
it by ``(cloud_cover, item_id)`` in ``__init__`` so the per-batch body
is a vectorized first-containing-item scan (argmin == first hit in
sorted order).  No shuffle at all.

The item-count axis is chunked (``item_chunk``) so the A×I containment
mask never materializes more than ``batch × item_chunk`` booleans —
a catalog of millions of items degrades to a streaming column scan
rather than an allocation blowup.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..sidefiles import side_table


class LowestCloudSelector:
    """Kernel: per AoI bbox, pick the catalog item with the
    lowest cloud cover whose footprint contains the AoI.

    Catalog table columns: ``item_id`` (int64), ``x0 y0 x1 y1``
    (footprint bbox, float64), ``cloud_cover`` (float64).  Temporal
    filtering (the STAC ``datetime`` search window) is the caller's
    job, exactly as in the reference where the search query carries it.

    AoI batch columns: ``key_col``, ``x0 y0 x1 y1``.  Output: one row
    per AoI that found an item — ``(key, item_id, cloud_cover)``;
    AoIs with no eligible containing item are dropped (the reference
    raises on an empty result set; a distributed pipeline must not).
    """

    def __init__(self, catalog_ref, max_cloud: float = 20.0,
                 key_col: str = "aoi_id", item_chunk: int = 65536):
        t = side_table(catalog_ref)
        cloud = t.column("cloud_cover").to_numpy(zero_copy_only=False)
        item_id = t.column("item_id").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = cloud < float(max_cloud)  # availability.py:163 (lt 20)
        # Sort by (cloud, item_id): the first containing item in this
        # order IS the argmin with the reference's iloc[0] tie-break.
        order = np.lexsort((item_id[keep], cloud[keep]))

        def col(name):
            return t.column(name).to_numpy(zero_copy_only=False)[keep][order]

        self.ix0, self.iy0 = col("x0"), col("y0")
        self.ix1, self.iy1 = col("x1"), col("y1")
        self.item_id = item_id[keep][order]
        self.cloud = cloud[keep][order]
        self.key_col = key_col
        self.item_chunk = int(item_chunk)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ax0 = batch.column("x0").to_numpy(zero_copy_only=False)
        ay0 = batch.column("y0").to_numpy(zero_copy_only=False)
        ax1 = batch.column("x1").to_numpy(zero_copy_only=False)
        ay1 = batch.column("y1").to_numpy(zero_copy_only=False)
        n_a, n_i = len(ax0), len(self.item_id)
        # Running first-match index over item chunks (sorted order ⇒
        # the smallest matching index is the answer).
        best = np.full(n_a, n_i, dtype=np.int64)
        for lo in range(0, n_i, self.item_chunk):
            hi = min(lo + self.item_chunk, n_i)
            m = (
                (ax0[:, None] >= self.ix0[None, lo:hi])
                & (ax1[:, None] <= self.ix1[None, lo:hi])
                & (ay0[:, None] >= self.iy0[None, lo:hi])
                & (ay1[:, None] <= self.iy1[None, lo:hi])
            )
            hit = m.any(axis=1)
            idx = np.where(hit, m.argmax(axis=1) + lo, n_i)
            best = np.minimum(best, idx)
            if (best < hi).all():
                break  # all matched; later chunks only have larger indices
        found = best < n_i
        sel = best[found]
        keys = batch.column(self.key_col).to_numpy(zero_copy_only=False)[found]
        return pa.table({
            self.key_col: pa.array(keys.astype(np.int64)),
            "item_id": pa.array(self.item_id[sel]),
            "cloud_cover": pa.array(self.cloud[sel]),
        })
