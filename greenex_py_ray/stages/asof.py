"""As-of join (latest right row at or before each left row's timestamp).

The reference has no temporal joins; this is part of the training-data
operator set (event logs ↔ slowly-changing side tables).  Shape: both
sides are bucketed by key hash (duplicates share a bucket), the union is
grouped per bucket, and the per-bucket body is a sorted
``pandas.merge_asof`` — the canonical Ray Data pattern for as-of /
range joins (no global sort; one shuffle on the bucket key).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ..functions.exchange import bucket_exchange


def asof_join_latest(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_key: str,
    right_key: str,
    left_ts: str,
    right_ts: str,
    left_id: str,
    out_col: str = "asof_ts",
) -> "ray.data.Dataset":
    """For each left row: the max right ``right_ts`` with matching key
    and ``right_ts <= left_ts`` (microsecond int64; null on no match).

    Returns (left_id, left_ts, out_col)."""

    def tag_left(batch: pa.Table) -> pa.Table:
        k = batch.column(left_key).to_numpy(zero_copy_only=False)
        ts = batch.column(left_ts).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "k": pa.array(k.astype(np.int64)),
            "ts": pa.array(ts),
            "row_id": batch.column(left_id),
            "side": pa.array(np.zeros(len(k), dtype=np.int8)),
        })

    def tag_right(batch: pa.Table) -> pa.Table:
        k = batch.column(right_key).to_numpy(zero_copy_only=False)
        ts = batch.column(right_ts).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "k": pa.array(k.astype(np.int64)),
            "ts": pa.array(ts),
            "row_id": pa.nulls(len(k), pa.int64()),
            "side": pa.array(np.ones(len(k), dtype=np.int8)),
        })

    lt = left.map_batches(tag_left, batch_format="pyarrow", zero_copy_batch=True)
    rt = right.map_batches(tag_right, batch_format="pyarrow", zero_copy_batch=True)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["side"] == 0].sort_values("ts", kind="stable")
        rg = g[g["side"] == 1].sort_values("ts", kind="stable")
        if len(lg) == 0:
            return pd.DataFrame({left_id: pd.Series([], dtype="int64"),
                                 out_col: pd.Series([], dtype="float64")})
        if len(rg) == 0:
            return pd.DataFrame({left_id: lg["row_id"].to_numpy(dtype="int64"),
                                 out_col: np.full(len(lg), np.nan)})
        m = pd.merge_asof(
            lg[["row_id", "ts", "k"]], rg[["ts", "k"]].rename(columns={"ts": "rts"}),
            left_on="ts", right_on="rts", left_by="k", right_by="k",
            direction="backward",
        )
        # microseconds → epoch seconds as double (matches DuckDB epoch()).
        # row_id was unioned with the right side's null int64 column, so
        # pandas upcast it to float64 — cast back before emitting (int64
        # ids >= 2^53 would otherwise be silently corrupted).
        return pd.DataFrame({left_id: m["row_id"].to_numpy(dtype="int64"),
                             out_col: m["rts"].to_numpy(dtype="float64") / 1e6})

    return bucket_exchange([lt, rt], "k", merge, 16, "pandas")


def _lex_searchsorted(
    rk: np.ndarray, rts: np.ndarray, qk: np.ndarray, qts: np.ndarray,
    side: str,
) -> np.ndarray:
    """Vectorized searchsorted of query pairs (qk, qts) into a
    lexicographically sorted data array (rk, rts).

    Equivalent to ``[np.searchsorted(rts[seg(k)], t, side) + seg_start(k)
    for k, t in zip(qk, qts)]`` without the per-row Python loop: data and
    queries are merged, lexsorted once, and each query's insertion point is
    the count of data rows ordered before it.
    """
    n, m = len(rk), len(qk)
    keys_all = np.concatenate([rk, qk])
    ts_all = np.concatenate([rts, qts])
    # Tie-break flag: side="left" sorts a query BEFORE equal data rows
    # (insertion point before equals); side="right" sorts it after.
    if side == "left":
        flag = np.concatenate([np.ones(n, np.int8), np.zeros(m, np.int8)])
    else:
        flag = np.concatenate([np.zeros(n, np.int8), np.ones(m, np.int8)])
    order = np.lexsort((flag, ts_all, keys_all))
    is_data = (order < n).astype(np.int64)
    data_at_or_before = np.cumsum(is_data)
    slot_of = np.empty(n + m, dtype=np.int64)
    slot_of[order] = np.arange(n + m)
    # A query slot is never a data row, so at-or-before == strictly-before.
    return data_at_or_before[slot_of[n:]]


def range_join_count(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    left_key: str,
    right_key: str,
    left_ts: str,
    right_ts: str,
    left_id: str,
    window_us: int,
    out_col: str = "n_in_window",
) -> "ray.data.Dataset":
    """Temporal range join: per left row, COUNT of right rows with the
    same key and ``left_ts - window <= right_ts <= left_ts``.

    Same bucketed co-partition shape as the as-of join; the per-bucket
    body is two vectorized searchsorted passes over the right side's
    sorted timestamps per key."""

    def tag(batch: pa.Table, key, ts, rid, side) -> pa.Table:
        k = batch.column(key).to_numpy(zero_copy_only=False)
        t = batch.column(ts).cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "k": pa.array(k.astype(np.int64)),
            "ts": pa.array(t),
            "row_id": batch.column(rid) if rid else pa.nulls(len(k), pa.int64()),
            "side": pa.array(np.full(len(k), side, dtype=np.int8)),
        })

    lt = left.map_batches(lambda b: tag(b, left_key, left_ts, left_id, 0),
                          batch_format="pyarrow", zero_copy_batch=True)
    rt = right.map_batches(lambda b: tag(b, right_key, right_ts, None, 1),
                           batch_format="pyarrow", zero_copy_batch=True)

    def count(g: pd.DataFrame) -> pd.DataFrame:
        lg = g[g["side"] == 0]
        rg = g[g["side"] == 1]
        if len(lg) == 0:
            return pd.DataFrame({left_id: pd.Series([], dtype="int64"),
                                 out_col: pd.Series([], dtype="int64")})
        out = np.zeros(len(lg), dtype=np.int64)
        if len(rg):
            rs = rg.sort_values(["k", "ts"], kind="stable")
            rk = rs["k"].to_numpy()
            rts = rs["ts"].to_numpy()
            lk = lg["k"].to_numpy()
            lts = lg["ts"].to_numpy()
            lo = _lex_searchsorted(rk, rts, lk, lts - window_us, side="left")
            hi = _lex_searchsorted(rk, rts, lk, lts, side="right")
            out = hi - lo
        # row_id was unioned with null int64 → float64 in pandas; cast back.
        return pd.DataFrame({left_id: lg["row_id"].to_numpy(dtype="int64"),
                             out_col: out})

    return bucket_exchange([lt, rt], "k", count, 16, "pandas")


def sessionize(ds: "ray.data.Dataset", gap_us: int) -> "ray.data.Dataset":
    """Gap-based sessionization: per user, ordered events split into
    sessions wherever the inter-event gap exceeds ``gap_us``
    (microseconds — integer comparison, exactly SQL-reproducible);
    emits one row per (user, session) with count / start / end / value
    sum.

    Scale shape: users are HASH-BUCKETED (one ``bucket_exchange``)
    so the shuffle has 64 groups, not one pandas call per
    user; inside a bucket the multi-user kernel is one lexsort +
    vectorized break/reduceat pass.  Timestamps ride as int64
    microseconds end-to-end."""
    def project(b: pa.Table) -> pa.Table:
        ts = b.column("ts")
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        return pa.table({
            "user_id": b.column("user_id"),
            "ts_us": ts,
            "event_id": b.column("event_id"),
            "value": b.column("value"),
        })

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy(np.int64)
        t = g["ts_us"].to_numpy(np.int64)
        e = g["event_id"].to_numpy(np.int64)
        v = g["value"].to_numpy(np.float64)
        order = np.lexsort((e, t, u))
        u, t, e, v = u[order], t[order], e[order], v[order]
        brk = np.ones(len(u), dtype=bool)
        if len(u) > 1:
            brk[1:] = (u[1:] != u[:-1]) | ((t[1:] - t[:-1]) > gap_us)
        sess = np.cumsum(brk) - 1              # global session ordinal
        starts = np.flatnonzero(brk)
        # per-user session_id: global ordinal minus the user's first
        user_break = np.ones(len(u), dtype=bool)
        if len(u) > 1:
            user_break[1:] = u[1:] != u[:-1]
        ustarts = np.flatnonzero(user_break)
        first_sess_of_user = sess[ustarts]
        runs = np.diff(np.concatenate((ustarts, [len(u)])))
        sess_id = sess - np.repeat(first_sess_of_user, runs)
        counts = np.diff(np.concatenate((starts, [len(u)])))
        return pd.DataFrame({
            "user_id": u[starts],
            "session_id": sess_id[starts],
            "n_events": counts.astype(np.int64),
            "start_us": t[starts],
            "end_us": np.maximum.reduceat(t, starts),
            "sum_value": np.round(np.add.reduceat(v, starts), 6),
        })

    return bucket_exchange(
        ds.map_batches(project, batch_format="pyarrow",
                       zero_copy_batch=True),
        "user_id", kernel, 64, "pandas")
