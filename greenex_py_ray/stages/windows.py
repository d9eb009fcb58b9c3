"""Ordered-sequence analytics over event streams: conversion funnels
and sliding row-frame window aggregates.

The reference engine has no event-funnel surface; these belong to the
large-scale-pipeline family (sessionize / trajectory / as-of) that a
training-data or product-analytics workload runs over the same event
table.  Scale shape is identical to ``stages/asof.sessionize``:
entities are HASH-BUCKETED (one ``bucket_exchange``) so the single
shuffle has ``num_buckets`` groups, and the per-bucket kernel is one
lexsort plus vectorized segment passes — never a Python loop over
users or rows.

Funnel semantics (the standard product-analytics definition, exactly
SQL-reproducible): ``t_1(u) = min ts where type = step_1``;
``t_k(u) = min ts where type = step_k and ts > t_{k-1}(u)`` — each
step must be STRICTLY later than the previous step's earliest match.
Timestamps ride as int64 microseconds end-to-end so every comparison
is integer-exact in both engines.

Rolling window semantics: per entity, events ordered by
``(ts, order_col)``; emit the trailing ``window``-row frame count and
sum (``ROWS BETWEEN window-1 PRECEDING AND CURRENT ROW``).  Values are
quantized to int64 micro-units BEFORE the cumulative sum (same
convention as ``stages/trajectory.py``) so the frame sums are
order-independent exact integers in both engines.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..functions.exchange import bucket_exchange

#: micro-unit quantization for window value sums
WIN_Q = 1e6
_I64_MAX = np.iinfo(np.int64).max


def _bucketed_events(ds: "ray.data.Dataset", user_col: str, ts_col: str,
                     keep: list[str], kernel,
                     num_buckets: int) -> "ray.data.Dataset":
    """Project to (user, int64-us ts, *keep) — one zero-copy Arrow pass,
    the only full-data stage — then run the pandas ``kernel`` per user
    hash bucket."""

    def project(b: pa.Table) -> pa.Table:
        ts = b.column(ts_col)
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        cols = {user_col: b.column(user_col), "ts_us": ts}
        for c in keep:
            cols[c] = b.column(c)
        return pa.table(cols)

    return bucket_exchange(
        ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        user_col, kernel, num_buckets, "pandas")


def funnel(ds: "ray.data.Dataset", steps: list[str]) -> "ray.data.Dataset":
    """Per-user conversion funnel over ``steps``: one output row per
    user with ``steps_completed`` (0..len(steps)) and ``complete_us``
    (int64 microseconds of the earliest full completion, NULL when the
    user never finishes).

    Kernel: within a bucket, one lexsort by (user, ts); per step a
    masked segmented ``np.minimum.reduceat`` advances every user's
    threshold at once — O(len(steps) × bucket_rows), no per-user loop.
    Event types are factorized to int codes once so the per-step mask
    is an integer compare, not a string compare."""
    steps = list(steps)
    if not steps:
        raise ValueError("funnel needs at least one step")

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"user_id": pd.Series([], dtype="int64"),
                                 "steps_completed": pd.Series([], dtype="int64"),
                                 "complete_us": pd.array([], dtype="Int64")})
        u = g["user_id"].to_numpy(np.int64)
        t = g["ts_us"].to_numpy(np.int64)
        codes_raw, uniq = pd.factorize(g["event_type"])
        step_code = {s: i for i, s in enumerate(uniq)}
        codes = codes_raw.astype(np.int64)
        order = np.lexsort((t, u))
        u, t, codes = u[order], t[order], codes[order]
        ubrk = np.ones(len(u), dtype=bool)
        if len(u) > 1:
            ubrk[1:] = u[1:] != u[:-1]
        ustarts = np.flatnonzero(ubrk)
        useg = np.cumsum(ubrk) - 1            # per-row user ordinal
        nu = len(ustarts)
        thr = np.full(nu, np.int64(-1))       # last matched step time
        alive = np.ones(nu, dtype=bool)
        done = np.zeros(nu, dtype=np.int64)
        for s in steps:
            sc = step_code.get(s, -2)         # -2: absent from bucket
            cand = (codes == sc) & alive[useg] & (t > thr[useg])
            tt = np.where(cand, t, _I64_MAX)
            best = np.minimum.reduceat(tt, ustarts) if len(tt) else \
                np.empty(0, np.int64)
            hit = alive & (best < _I64_MAX)
            thr = np.where(hit, best, thr)
            done += hit
            alive = hit
            if not alive.any():
                break
        complete = done == len(steps)
        out = pd.DataFrame({
            "user_id": u[ustarts],
            "steps_completed": done,
            "complete_us": pd.array(
                np.where(complete, thr, 0), dtype="Int64"),
        })
        out.loc[~complete, "complete_us"] = pd.NA
        return out

    return _bucketed_events(ds, "user_id", "ts", ["event_type"], kernel,
                            64)


def rolling_window(ds: "ray.data.Dataset", window: int) -> "ray.data.Dataset":
    """Trailing ``window``-row frame aggregate per entity: one output
    row per input event with ``n_frame`` (rows in frame) and
    ``sum_q`` (int64 micro-unit frame sum of ``value``).

    Kernel: lexsort by (user, ts, order), quantize values to int64
    micro-units, one cumulative sum; each row's frame sum is two
    cumsum lookups (``cs[i+1] - cs[i+1-win]``) with the frame width
    clipped at the user's segment start — fully vectorized."""
    if window < 1:
        raise ValueError("window must be >= 1")

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({"user_id": pd.Series([], dtype="int64"),
                                 "event_id": pd.Series([], dtype="int64"),
                                 "n_frame": pd.Series([], dtype="int64"),
                                 "sum_q": pd.Series([], dtype="int64")})
        u = g["user_id"].to_numpy(np.int64)
        t = g["ts_us"].to_numpy(np.int64)
        e = g["event_id"].to_numpy(np.int64)
        v = g["value"].to_numpy(np.float64)
        order = np.lexsort((e, t, u))
        u, t, e, v = u[order], t[order], e[order], v[order]
        vq = np.round(v * WIN_Q).astype(np.int64)
        ubrk = np.ones(len(u), dtype=bool)
        if len(u) > 1:
            ubrk[1:] = u[1:] != u[:-1]
        ustarts = np.flatnonzero(ubrk)
        runs = np.diff(np.concatenate((ustarts, [len(u)])))
        seg_start = np.repeat(ustarts, runs)
        i = np.arange(len(u), dtype=np.int64)
        win = np.minimum(i - seg_start + 1, window)
        cs = np.concatenate(([0], np.cumsum(vq)))
        return pd.DataFrame({
            "user_id": u,
            "event_id": e,
            "n_frame": win.astype(np.int64),
            "sum_q": cs[i + 1] - cs[i + 1 - win],
        })

    return _bucketed_events(ds, "user_id", "ts", ["event_id", "value"],
                            kernel, 64)


def cohort_retention(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Cohort retention triangle: cohort = the entity's FIRST active
    day; one output row per
    (cohort, period-offset) with the count of distinct entities active
    in that offset period — the standard product-analytics retention
    matrix.

    Scale shape: users are hash-bucketed so each user's full history is
    in ONE group (a single 64-way shuffle); the per-bucket
    kernel is one lexsort + consecutive-dedup (distinct user-periods)
    + ``np.unique`` partial counts, so the second shuffle moves only
    O(#cohorts × #offsets) rows per bucket."""

    def kernel(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({
                "cohort_day": pd.Series([], dtype="int64"),
                "day_offset": pd.Series([], dtype="int64"),
                "n_users": pd.Series([], dtype="int64")})
        u = g["user_id"].to_numpy(np.int64)
        p = g["ts_us"].to_numpy(np.int64) // 86_400_000_000
        order = np.lexsort((p, u))
        u, p = u[order], p[order]
        ubrk = np.ones(len(u), dtype=bool)
        if len(u) > 1:
            ubrk[1:] = u[1:] != u[:-1]
        ustarts = np.flatnonzero(ubrk)
        useg = np.cumsum(ubrk) - 1
        cohort = p[ustarts][useg]          # per-row user's first period
        off = p - cohort
        keep = np.ones(len(u), dtype=bool)  # distinct (user, off):
        if len(u) > 1:                      # sorted, so dedup runs
            keep[1:] = (u[1:] != u[:-1]) | (off[1:] != off[:-1])
        pairs = np.stack([cohort[keep], off[keep]], axis=1)
        uq, cnt = np.unique(pairs, axis=0, return_counts=True)
        return pd.DataFrame({"cohort_day": uq[:, 0],
                             "day_offset": uq[:, 1],
                             "n_users": cnt.astype(np.int64)})

    from ray.data.aggregate import Sum

    part = _bucketed_events(ds, "user_id", "ts", [], kernel, 64)
    return (part.groupby(["cohort_day", "day_offset"])
            .aggregate(Sum("n_users", alias_name="n_users")))


def resample_fill(ds: "ray.data.Dataset",
                  unit_us: int = 3_600_000_000) -> "ray.data.Dataset":
    """Gap-filled time resample: per ``event_type``, the event count and
    exact micro-unit value sum for EVERY ``unit_us`` period between the
    key's first and last event — missing periods emitted with zeros
    (the "regularize an event stream into a dense time series" op a
    feature or monitoring pipeline needs).

    Scale shape: per-batch Arrow group_by partials collapse the stream
    to O(#keys × #periods-per-batch) rows before the single key
    shuffle; the per-key final merges partials with sorted
    ``add.reduceat`` (int64-exact) and materializes only that key's
    [first, last] period range.  Assumes moderate key cardinality
    (event-type-like, not user-like) and a bounded time range — both
    documented properties of a resample target."""

    def partial(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({"event_type": pa.array([], pa.string()),
                             "unit": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64()),
                             "sum_q": pa.array([], pa.int64())})
        ts = batch.column("ts")
        if pa.types.is_timestamp(ts.type):
            ts = ts.cast(pa.int64())
        t = ts.to_numpy(zero_copy_only=False) // unit_us
        v = batch.column("value").to_numpy(zero_copy_only=False)
        vq = np.round(v * WIN_Q).astype(np.int64)
        g = pa.table({"event_type": batch.column("event_type"),
                      "unit": pa.array(t),
                      "vq": pa.array(vq)}).group_by(
            ["event_type", "unit"]).aggregate(
                [("vq", "sum"), ([], "count_all")])
        return pa.table({"event_type": g.column("event_type"),
                         "unit": g.column("unit"),
                         "n": g.column("count_all").cast(pa.int64()),
                         "sum_q": g.column("vq_sum").cast(pa.int64())})

    def final(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({
                "event_type": pd.Series([], dtype="object"),
                "unit": pd.Series([], dtype="int64"),
                "n_events": pd.Series([], dtype="int64"),
                "sum_q": pd.Series([], dtype="int64")})
        d = g["unit"].to_numpy(np.int64)
        c = g["n"].to_numpy(np.int64)
        s = g["sum_q"].to_numpy(np.int64)
        order = np.argsort(d, kind="stable")
        d, c, s = d[order], c[order], s[order]
        brk = np.ones(len(d), dtype=bool)
        if len(d) > 1:
            brk[1:] = d[1:] != d[:-1]
        starts = np.flatnonzero(brk)
        uq = d[starts]
        cc = np.add.reduceat(c, starts)
        ss = np.add.reduceat(s, starts)
        full = np.arange(uq[0], uq[-1] + 1, dtype=np.int64)
        n_out = np.zeros(len(full), dtype=np.int64)
        s_out = np.zeros(len(full), dtype=np.int64)
        idx = uq - uq[0]
        n_out[idx] = cc
        s_out[idx] = ss
        return pd.DataFrame({"event_type": g["event_type"].iloc[0],
                             "unit": full,
                             "n_events": n_out,
                             "sum_q": s_out})

    return (ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True)
            .groupby("event_type").map_groups(final, batch_format="pandas"))


def event_transitions(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Markov transition counts: (from_type, to_type, n) over each
    user's (ts, tie) -ordered event sequence.

    Hash-bucketed users (the sessionize/funnel shuffle shape: one
    bucket exchange, never per-user groups); inside a bucket ONE
    lexsort orders every user's stream, consecutive-pair codes are
    vectorized (pair valid where the user id repeats), and the bucket
    collapses to O(|types|²) partial counts before the tiny final
    groupby-sum.
    """
    from ray.data.aggregate import Sum as _Sum

    def kernel(g: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as pd

        order = np.lexsort((g["event_id"].to_numpy(),
                            g["ts_us"].to_numpy(),
                            g["user_id"].to_numpy()))
        u = g["user_id"].to_numpy()[order]
        codes, uniq = pd.factorize(g["event_type"].to_numpy()[order])
        same = u[1:] == u[:-1]
        a, b = codes[:-1][same], codes[1:][same]
        k = len(uniq)
        flat = np.bincount(a * k + b, minlength=k * k).reshape(k, k)
        ai, bi = np.nonzero(flat)
        return pd.DataFrame({
            "from_type": uniq[ai], "to_type": uniq[bi],
            "n": flat[ai, bi].astype(np.int64),
        })

    part = _bucketed_events(ds, "user_id", "ts", ["event_type", "event_id"],
                            kernel, 64)
    return part.groupby(["from_type", "to_type"]).aggregate(
        _Sum("n", alias_name="n"))
