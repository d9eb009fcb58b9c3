"""Broadcast dimension-table enrich (hash-free lookup join).

The canonical small-side join at 100 TB: the dimension table (customer
→ nation, tile → CRS, class code → label) is orders of magnitude
smaller than the fact stream, so it broadcasts ONCE via ``ray.put`` and
every batch resolves its keys with one ``np.searchsorted`` over the
sorted dim keys — no shuffle, no per-batch reshipping, no hash build
per task.  Contrast with a shuffle join, which would move every fact
row; see the same pattern at ``stages/access.NearestGreenspace`` and
``stages/spatial_join.py`` (broadcast side) for the spatial variants.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..sidefiles import side_table


class BroadcastLookup:
    """map_batches actor: append dim columns resolved by sorted-key
    binary search.  ``dim_ref``: (ObjectRef of) a pyarrow Table; it is
    sorted by ``dim_key`` once per actor in ``__init__``.

    ``how='inner'`` drops fact rows with no dim match; ``'left'``
    appends nulls for them.
    """

    def __init__(self, dim_ref, key_col: str, dim_key: str,
                 add_cols: "tuple[str, ...]", how: str = "inner"):
        t = side_table(dim_ref)
        keys = t.column(dim_key).to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.cols = {c: t.column(c).take(pa.array(order)) for c in add_cols}
        self.key_col = key_col
        self.add_cols = add_cols
        if how not in ("inner", "left"):
            raise ValueError(f"how={how!r}: expected 'inner' or 'left'")
        self.how = how

    def __call__(self, batch: pa.Table) -> pa.Table:
        k = batch.column(self.key_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        if not len(self.keys):
            # empty dim: inner drops everything, left appends all-null
            if self.how == "inner":
                batch = batch.take(pa.array(np.empty(0, np.int64)))
                for c in self.add_cols:
                    batch = batch.append_column(
                        c, self.cols[c].take(pa.array([], pa.int64())))
                return batch
            for c in self.add_cols:
                batch = batch.append_column(
                    c, pa.nulls(len(k), self.cols[c].type))
            return batch
        idx = np.searchsorted(self.keys, k)
        idx_c = np.minimum(idx, len(self.keys) - 1)
        hit = self.keys[idx_c] == k
        if self.how == "inner":
            sel = np.flatnonzero(hit)
            batch = batch.take(pa.array(sel))
            idx_c = idx_c[sel]
            for c in self.add_cols:
                batch = batch.append_column(
                    c, self.cols[c].take(pa.array(idx_c)))
            return batch
        for c in self.add_cols:
            vals = self.cols[c].take(pa.array(idx_c))
            if not hit.all():
                vals = pa.array(
                    np.where(hit, vals.to_numpy(zero_copy_only=False),
                             None).tolist(),
                    type=vals.type)
            batch = batch.append_column(c, vals)
        return batch


def broadcast_join(ds: "ray.data.Dataset", dim: pa.Table, key_col: str,
                   dim_key: str, add_cols: "tuple[str, ...]",
                   how: str = "inner",
                   concurrency=(1, 8)) -> "ray.data.Dataset":
    """Enrich the fact stream with dim columns (see module docstring)."""
    ref = ray.put(dim)
    return ds.map_batches(
        BroadcastLookup,
        fn_constructor_kwargs=dict(dim_ref=ref, key_col=key_col,
                                   dim_key=dim_key, add_cols=add_cols,
                                   how=how),
        batch_format="pyarrow", concurrency=concurrency, num_cpus=0.25,
    )


class _MinMaxApply:
    """map_batches actor for :func:`group_minmax_scale` pass 2: the
    per-group (min,max) stats table is broadcast once; each batch
    resolves its group with one searchsorted over the sorted keys."""

    def __init__(self, stats_ref, group_col: str, value_col: str,
                 q_scale: float):
        t = side_table(stats_ref)
        keys = np.asarray(t.column(group_col).to_pylist(), dtype=object)
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.mn = t.column("mn").to_numpy(zero_copy_only=False)[order]
        self.mx = t.column("mx").to_numpy(zero_copy_only=False)[order]
        self.group_col = group_col
        self.value_col = value_col
        self.q_scale = q_scale

    def __call__(self, batch: pa.Table) -> pa.Table:
        g = np.asarray(batch.column(self.group_col).to_pylist(),
                       dtype=object)
        v = batch.column(self.value_col).to_numpy(zero_copy_only=False)
        vq = np.round(v * self.q_scale, 0).astype(np.int64)
        idx = np.searchsorted(self.keys, g)
        idx = np.minimum(idx, len(self.keys) - 1)
        mn, mx = self.mn[idx], self.mx[idx]
        den = (mx - mn).astype(np.float64)
        num = (vq - mn).astype(np.float64)
        flat = mx == mn
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = num / den
        out = batch.drop_columns([self.value_col])
        return out.append_column(
            "scaled", pa.array(np.where(flat, np.nan, scaled), mask=flat))


def group_minmax_scale(ds: "ray.data.Dataset", group_col: str,
                       value_col: str, q_scale: float = 100.0,
                       concurrency=(1, 8)) -> "ray.data.Dataset":
    """Per-group min-max feature scaling — the normalization pass a
    training-data pipeline runs per source/segment before mixing.

    Exactness contract: the value is quantized to int64 ``q_scale``
    units FIRST (matching the ols_trend discipline), per-group min/max
    are exact int64s from per-batch partials + one tiny groupby, and
    ``scaled = (vq − min) / (max − min)`` is a single double division
    the SQL oracle replays verbatim.  Groups with max == min yield
    NULL.  Two streaming passes over the fact table, stats broadcast
    once via ``ray.put`` — no fact-side shuffle.
    """
    from ray.data.aggregate import Max, Min

    def partial(batch: pa.Table) -> pa.Table:
        import pandas as _pd

        v = batch.column(value_col).to_numpy(zero_copy_only=False)
        vq = np.round(v * q_scale, 0).astype(np.int64)
        codes, uniq = _pd.Series(
            batch.column(group_col).to_pandas()).factorize()
        k = len(uniq)
        mn = np.full(k, np.iinfo(np.int64).max)
        mx = np.full(k, np.iinfo(np.int64).min)
        np.minimum.at(mn, codes, vq)
        np.maximum.at(mx, codes, vq)
        return pa.table({group_col: pa.array(uniq),
                         "mn": pa.array(mn), "mx": pa.array(mx)})

    stats = (ds.map_batches(partial, batch_format="pyarrow",
                            zero_copy_batch=True)
             .groupby(group_col)
             .aggregate(Min("mn", alias_name="mn"),
                        Max("mx", alias_name="mx")))
    # O(#groups) stats table — driver hop then one broadcast
    blocks = [t for t in (ray.get(r) for r in stats.to_arrow_refs())
              if t.num_rows]
    stats_tbl = pa.concat_tables(blocks)
    ref = ray.put(stats_tbl)
    return ds.map_batches(
        _MinMaxApply,
        fn_constructor_kwargs=dict(stats_ref=ref, group_col=group_col,
                                   value_col=value_col, q_scale=q_scale),
        batch_format="pyarrow", concurrency=concurrency, num_cpus=0.25,
    )
