"""OLAP-style multi-level aggregation: ROLLUP, pivot, interval joins.

Classic warehouse shapes the reference's notebook users run downstream
of the exposure pipelines (per-nation / per-year rollups of exposure
scores, per-type wide tables), expressed Ray-Data-first:

* every value is quantized to an integer before any sum, so partial
  aggregation inside ``map_batches`` followed by one groupby-sum is
  bit-exact under any partitioning or reduction order;
* exactly ONE shuffle at the finest grain — every coarser ROLLUP level
  re-aggregates the (already tiny) fine result, never the raw rows;
* the pivot collapses each batch to one row per key before the
  exchange, so the shuffle payload is O(#distinct keys), not O(rows);
* the interval join broadcasts the (small) window table once via the
  driver and evaluates the overlap predicate vectorized per batch —
  the plan a shuffle range-join would otherwise move every row for.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Sum


# ---------------------------------------------------------------------------
# ROLLUP
# ---------------------------------------------------------------------------

def _fine_partials(batch: pa.Table, keys: list[str], value_col: str,
                   scale: float) -> pa.Table:
    """Collapse one batch to (key-tuple, n, sum_q) rows at the finest
    ROLLUP grain — integer-exact, O(#distinct tuples) output."""
    import pandas as pd

    df = batch.select(keys + [value_col]).to_pandas()
    vq = np.round(df[value_col].to_numpy() * scale, 0).astype(np.int64)
    codes, uniq = pd.MultiIndex.from_frame(df[keys]).factorize()
    k = len(uniq)
    out = {keys[i]: pa.array([t[i] for t in uniq])
           for i in range(len(keys))}
    out["n"] = pa.array(np.bincount(codes, minlength=k).astype(np.int64))
    out["sum_q"] = pa.array(
        np.bincount(codes, weights=vq, minlength=k).astype(np.int64))
    return pa.table(out)


def rollup_sum(ds: "ray.data.Dataset", keys: list[str],
               value_col: str) -> "ray.data.Dataset":
    """``GROUP BY ROLLUP(keys...)`` over an integer-quantized sum.

    Returns one row per grouping set — (k1,...,kn), (k1,...,kn-1), ...,
    () — with a ``lvl`` column (number of live keys) and rolled-up keys
    replaced by a sentinel (``'ALL'`` / ``-1``) so the
    schema stays NULL-free and hash-stable.

    Scale shape: raw rows shuffle ONCE, pre-reduced per batch to the
    finest grain; every coarser level is a groupby over the fine
    aggregate, whose cardinality is the product of key cardinalities —
    KB-scale even when the input is 10^12 rows.
    """
    schema = ds.schema()
    raw_types = dict(zip(schema.names, schema.types))

    def _patype(c: str) -> pa.DataType:
        t = raw_types[c]
        # pandas-block object columns surface as the `object` type
        return t if isinstance(t, pa.DataType) else pa.string()

    key_types = {c: _patype(c) for c in keys}
    pads = {c: "ALL" if pa.types.is_string(key_types[c]) else -1
            for c in keys}

    part = ds.map_batches(
        lambda b: _fine_partials(b, keys, value_col, 100.0),
        batch_format="pyarrow", zero_copy_batch=True)
    fine = part.groupby(keys).aggregate(
        Sum("n", alias_name="n"), Sum("sum_q", alias_name="sum_q"))

    levels = [fine.map_batches(
        lambda b: b.append_column("lvl", pa.array(
            np.full(b.num_rows, len(keys), dtype=np.int64))),
        batch_format="pyarrow", zero_copy_batch=True)]
    cur = fine
    for lvl in range(len(keys) - 1, -1, -1):
        live, dead = keys[:lvl], keys[lvl:]
        if live:
            cur = cur.groupby(live).aggregate(
                Sum("n", alias_name="n"), Sum("sum_q", alias_name="sum_q"))
        else:
            tot = cur.aggregate(Sum("n", alias_name="n"),
                                Sum("sum_q", alias_name="sum_q"))
            cur = ray.data.from_arrow(pa.table(
                {"n": [int(tot["n"])], "sum_q": [int(tot["sum_q"])]}))

        def pad(b: pa.Table, _dead=tuple(dead), _lvl=lvl) -> pa.Table:
            for col in _dead:
                b = b.append_column(col, pa.array(
                    [pads[col]] * b.num_rows, type=key_types[col]))
            b = b.append_column("lvl", pa.array(
                np.full(b.num_rows, _lvl, dtype=np.int64)))
            return b.select(keys + ["n", "sum_q", "lvl"])

        levels.append(cur.map_batches(pad, batch_format="pyarrow"))

    out = levels[0].select_columns(keys + ["n", "sum_q", "lvl"])
    for extra in levels[1:]:
        out = out.union(extra)
    return out


# ---------------------------------------------------------------------------
# Pivot (long → wide)
# ---------------------------------------------------------------------------

def pivot_count_sum(ds: "ray.data.Dataset", key_col: str, type_col: str,
                    types: list[str], value_col: str) -> "ray.data.Dataset":
    """Pivot ``type_col`` into ``n_<type>`` / ``sum_<type>`` wide
    columns per key (conditional aggregation, integer-exact).

    Per-batch partials emit ONE row per distinct key with all 2·|types|
    measures, so the single shuffle carries O(#keys) rows; unknown
    types are ignored (mirror a SQL CASE with no ELSE).
    """
    type_idx = {t: i for i, t in enumerate(types)}
    nt = len(types)

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        tv_ser = batch.column(type_col).to_pandas().map(type_idx)
        known = tv_ser.notna().to_numpy()
        tv = tv_ser.fillna(0).to_numpy().astype(np.int64)
        val = batch.column(value_col).to_numpy(zero_copy_only=False)
        vq = np.round(val * 100.0, 0).astype(np.int64)
        uniq, codes = np.unique(keys, return_inverse=True)
        k = len(uniq)
        flat = codes * nt + tv
        n = np.bincount(flat[known], minlength=k * nt).reshape(k, nt)
        s = np.bincount(flat[known], weights=vq[known],
                        minlength=k * nt).reshape(k, nt)
        cols = {key_col: pa.array(uniq)}
        for i, t in enumerate(types):
            cols[f"n_{t}"] = pa.array(n[:, i].astype(np.int64))
            cols[f"sum_{t}"] = pa.array(s[:, i].astype(np.int64))
        return pa.table(cols)

    aggs = []
    for t in types:
        aggs.append(Sum(f"n_{t}", alias_name=f"n_{t}"))
        aggs.append(Sum(f"sum_{t}", alias_name=f"sum_{t}"))
    part = ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
    return part.groupby(key_col).aggregate(*aggs)


# ---------------------------------------------------------------------------
# Interval-overlap join (broadcast small side)
# ---------------------------------------------------------------------------

def interval_overlap_count(ds: "ray.data.Dataset", windows: pa.Table,
                           start_col: str, end_col: str,
                           value_col: str | None = None) -> "ray.data.Dataset":
    """Count rows whose [start,end] interval overlaps each window
    (half-open overlap test ``row_start <= w_end AND row_end >= w_start``
    on int64 epoch-us), plus an optional quantized value sum.

    ``windows`` is a small table (w_id, w_start, w_end) broadcast via
    closure capture (`ray.put` under the hood once per task graph);
    each batch evaluates the predicate as a (batch × |windows|) numpy
    outer comparison and emits per-window partial counts, so the only
    exchange is the tiny per-window groupby-sum.  A row overlapping k
    windows counts k times — identical to the SQL join semantics.
    """
    w_id = windows.column("w_id").to_numpy(zero_copy_only=False)
    w_start = windows.column("w_start").to_numpy(zero_copy_only=False)
    w_end = windows.column("w_end").to_numpy(zero_copy_only=False)
    nw = len(w_id)

    def partial(batch: pa.Table) -> pa.Table:
        s = batch.column(start_col).to_numpy(zero_copy_only=False)
        e = batch.column(end_col).to_numpy(zero_copy_only=False)
        hit = (s[:, None] <= w_end[None, :]) & (e[:, None] >= w_start[None, :])
        n = hit.sum(axis=0).astype(np.int64)
        cols = {"w_id": pa.array(w_id), "n_overlap": pa.array(n)}
        if value_col is not None:
            vq = np.round(batch.column(value_col)
                          .to_numpy(zero_copy_only=False) * 100.0,
                          0).astype(np.int64)
            cols["sum_q"] = pa.array((hit * vq[:, None]).sum(axis=0)
                                     .astype(np.int64))
        return pa.table(cols)

    aggs = [Sum("n_overlap", alias_name="n_overlap")]
    if value_col is not None:
        aggs.append(Sum("sum_q", alias_name="sum_q"))
    part = ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
    return part.groupby("w_id").aggregate(*aggs)


def cube_sum(ds: "ray.data.Dataset", keys: list[str],
             value_col: str) -> "ray.data.Dataset":
    """``GROUP BY CUBE(keys...)`` — every key subset as a grouping set.

    Same single-shuffle design as :func:`rollup_sum`: the raw rows
    reduce once to the finest grain; all 2^|keys| grouping sets are
    groupbys over that tiny fine aggregate.  ``lvl`` is a bitmask of
    live keys (bit i set ⇔ keys[i] grouped), matching
    ``2^k - 1 - GROUPING(k1,...,kn)`` in SQL.
    """
    from itertools import combinations

    schema = ds.schema()
    raw_types = dict(zip(schema.names, schema.types))
    key_types = {c: (t if isinstance(t := raw_types[c], pa.DataType)
                     else pa.string()) for c in keys}
    pads = {c: "ALL" if pa.types.is_string(key_types[c]) else -1
            for c in keys}

    part = ds.map_batches(
        lambda b: _fine_partials(b, keys, value_col, 100.0),
        batch_format="pyarrow", zero_copy_batch=True)
    fine = part.groupby(keys).aggregate(
        Sum("n", alias_name="n"), Sum("sum_q", alias_name="sum_q"))

    out = None
    for r in range(len(keys), -1, -1):
        for live in combinations(range(len(keys)), r):
            live_cols = [keys[i] for i in live]
            dead_cols = [k for k in keys if k not in live_cols]
            mask = sum(1 << i for i in live)
            if len(live_cols) == len(keys):
                cur = fine
            elif live_cols:
                cur = fine.groupby(live_cols).aggregate(
                    Sum("n", alias_name="n"),
                    Sum("sum_q", alias_name="sum_q"))
            else:
                tot = fine.aggregate(Sum("n", alias_name="n"),
                                     Sum("sum_q", alias_name="sum_q"))
                cur = ray.data.from_arrow(pa.table(
                    {"n": [int(tot["n"])], "sum_q": [int(tot["sum_q"])]}))

            def pad(b: pa.Table, _dead=tuple(dead_cols),
                    _mask=mask) -> pa.Table:
                for col in _dead:
                    b = b.append_column(col, pa.array(
                        [pads[col]] * b.num_rows, type=key_types[col]))
                b = b.append_column("lvl", pa.array(
                    np.full(b.num_rows, _mask, dtype=np.int64)))
                return b.select(keys + ["n", "sum_q", "lvl"])

            piece = cur.map_batches(pad, batch_format="pyarrow")
            out = piece if out is None else out.union(piece)
    return out


# ---------------------------------------------------------------------------
# Interval join (BOTH sides large) — 1-D PBSM bucket shuffle
# ---------------------------------------------------------------------------

def interval_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
                  bucket_us: int) -> "ray.data.Dataset":
    """Overlap-join two LARGE interval sets: ``[s,e]`` pairs meeting in
    time buckets, each overlapping pair reported only from the bucket
    containing ``max(s_left, s_right)`` — the 1-D ownership rule of
    :func:`~greenex_py_ray.stages.spatial_join.cell_box_join`, so no
    distinct pass and no broadcast of either side.

    Shuffle payload = Σ buckets-covered per interval (span / bucket_us,
    pick ``bucket_us`` near the median interval length); within a
    bucket the overlap test is one (n_left × n_right) vectorized
    predicate.  Emits (left_key, right_key) pairs.
    """
    s_col, e_col = ("s", "e")

    def explode(side: int, key: str):
        def fn(batch: pa.Table) -> pa.Table:
            s = batch.column(s_col).to_numpy(zero_copy_only=False)
            e = batch.column(e_col).to_numpy(zero_copy_only=False)
            b0, b1 = s // bucket_us, e // bucket_us
            counts = (b1 - b0 + 1).astype(np.int64)
            idx = np.repeat(np.arange(len(s), dtype=np.int64), counts)
            starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
            local = (np.arange(int(counts.sum()), dtype=np.int64)
                     - np.repeat(starts, counts))
            bucket = np.repeat(b0, counts) + local
            return pa.table({
                "key": batch.column(key).take(pa.array(idx)),
                "bucket": pa.array(bucket),
                "side": pa.array(np.full(len(idx), side, dtype=np.int8)),
                "s": pa.array(s[idx]), "e": pa.array(e[idx]),
            })
        return fn

    lt = left.map_batches(explode(0, "a_id"), batch_format="pyarrow",
                          zero_copy_batch=True)
    rt = right.map_batches(explode(1, "b_id"), batch_format="pyarrow",
                           zero_copy_batch=True)
    u = lt.union(rt)

    def join_group(tbl: pa.Table) -> pa.Table:
        side = tbl.column("side").to_numpy(zero_copy_only=False)
        li, ri = np.flatnonzero(side == 0), np.flatnonzero(side == 1)
        empty = pa.table({"a_id": pa.array([], pa.int64()),
                          "b_id": pa.array([], pa.int64())})
        if len(li) == 0 or len(ri) == 0:
            return empty
        bucket = int(tbl.column("bucket")[0].as_py())
        s = tbl.column("s").to_numpy(zero_copy_only=False)
        e = tbl.column("e").to_numpy(zero_copy_only=False)
        hit = ((s[li][:, None] <= e[ri][None, :])
               & (e[li][:, None] >= s[ri][None, :]))
        ai, bj = np.nonzero(hit)
        if len(ai) == 0:
            return empty
        own = np.maximum(s[li][ai], s[ri][bj]) // bucket_us
        keep = own == bucket
        return pa.table({
            "a_id": tbl.column("key").take(pa.array(li[ai[keep]])),
            "b_id": tbl.column("key").take(pa.array(ri[bj[keep]])),
        })

    return u.groupby("bucket").map_groups(join_group,
                                          batch_format="pyarrow")
