"""Deterministic hash-based sampling / split assignment (training-data
op: stable train/val/test sharding and subsampling at corpus scale).

The bucket function is a Lehmer-style modular hash chosen so that ANSI
SQL reproduces it without 64-bit overflow for any realistic
NON-NEGATIVE key range (``k * 48271 < 2^63`` for ``0 <= k < 1.9e14``;
negative keys are rejected — see :func:`hash_bucket`):

    bucket(k) = ((k * 48271 + salt) % 2147483647) % 100

Embarrassingly parallel — a pure ``map_batches`` (no shuffle, no state),
so it composes with any upstream read at zero cost; a 100 TB corpus is
split by streaming each block through once.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

_MULT = 48271
_MOD = 2147483647


def hash_rank(key: np.ndarray, salt: int = 0) -> np.ndarray:
    """Deterministic pseudo-random rank per NON-NEGATIVE integer key
    (the full Lehmer residue) — the ordering key for stratified
    sampling, and the pre-``% 100`` value :func:`hash_bucket` buckets.

    Negative keys are rejected: numpy's ``%`` returns non-negative
    remainders while SQL's follows the dividend's sign, so a negative
    key would silently desynchronize an externally-reproduced split."""
    k = np.asarray(key, dtype=np.int64)
    if k.size and k.min() < 0:
        raise ValueError("hash_rank/hash_bucket require non-negative "
                         "keys (SQL %% sign semantics differ for "
                         "negatives)")
    return (k * _MULT + salt) % _MOD


def hash_bucket(key: np.ndarray, salt: int = 0) -> np.ndarray:
    """Deterministic bucket 0..99 per non-negative integer key."""
    return hash_rank(key, salt) % 100


def assign_split(ds: "ray.data.Dataset", key_col: str,
                 train_pct: int = 80, val_pct: int = 10,
                 salt: int = 0) -> "ray.data.Dataset":
    """Append ``bucket`` (0..99) and ``split`` ('train'/'val'/'test')
    columns derived only from ``key_col`` — membership is stable across
    runs, partitionings and cluster sizes."""

    def assign(batch: pa.Table) -> pa.Table:
        k = batch.column(key_col).to_numpy(zero_copy_only=False)
        b = hash_bucket(k, salt)
        split = np.where(b < train_pct, "train",
                         np.where(b < train_pct + val_pct, "val", "test"))
        return (batch.append_column("bucket", pa.array(b, pa.int64()))
                .append_column("split", pa.array(split, pa.string())))

    return ds.map_batches(assign, batch_format="pyarrow",
                          zero_copy_batch=True)


def stratified_sample(ds: "ray.data.Dataset", group_col: str, key_col: str,
                      n_per_group: int) -> "ray.data.Dataset":
    """Deterministic ``n_per_group`` rows per group (training-data op:
    class/domain balancing).  Rows are ranked by the Lehmer hash of
    their key — a stable pseudo-random order — and the per-group top-n
    is taken with the bounded partial-top-k machinery
    (:func:`~greenex_py_ray.stages.topk.topk_per_group`), so at most
    ``n`` rows per group per batch ever enter the shuffle."""
    from .topk import topk_per_group

    def add_rank(batch: pa.Table) -> pa.Table:
        k = batch.column(key_col).to_numpy(zero_copy_only=False)
        # negate so the SMALLEST hash wins under top-k's desc ordering
        return batch.append_column(
            "neg_rank", pa.array(-hash_rank(k, 0), pa.int64()))

    ranked = ds.map_batches(add_rank, batch_format="pyarrow",
                            zero_copy_batch=True)
    out = topk_per_group(ranked, group_col, "neg_rank", n_per_group,
                         key_col, emit_rank=False)
    return out.drop_columns(["neg_rank"])


def mixture_sample(ds: "ray.data.Dataset", weight_of) -> "ray.data.Dataset":
    """Data-mixing sampler: downsample each source to hit a target
    mixture without upsampling any of them.

    Given target weights ``w_s`` (``weight_of(group) -> float``) and
    available sizes ``n_s = sum(n_chars)``, the largest corpus
    honouring the mixture is ``T* = min_s(n_s / w_s)``; each source
    keeps a deterministic ``w_s·T*/n_s`` fraction of its rows by Lehmer
    key hash — membership is stable across runs and cluster sizes.

    Scale shape: one O(#sources) groupby (tiny), rates resolved on the
    driver and shipped in the filter closure; the filter itself is a
    streaming vectorized map_batches."""
    from ray.data.aggregate import Sum

    avail_df = (ds.groupby("source")
                .aggregate(Sum("n_chars", alias_name="avail")).to_pandas())
    groups = avail_df["source"].to_numpy()
    avail = avail_df["avail"].to_numpy(dtype=np.float64)
    wt = np.array([weight_of(g) for g in groups], dtype=np.float64)
    ts = float((avail / wt).min())
    rates = dict(zip(groups, (wt * ts) / avail))

    def keep(batch: pa.Table) -> pa.Table:
        r = batch.column("source").to_pandas().map(rates).to_numpy(
            dtype=np.float64)
        k = np.asarray(batch.column("doc_id").to_numpy(zero_copy_only=False),
                       dtype=np.int64)
        if k.size and k.min() < 0:
            raise ValueError("mixture_sample requires non-negative keys")
        # NOT hash_rank: the Lehmer residue k*48271 % (2^31-1) doesn't
        # wrap for small keys, so u would be far from uniform on dense
        # low ids.  k*1103515245 wraps the 1e6 modulus from k=1 up.
        u = ((k * 1103515245 + 12345) % 1000003) / 1000003.0
        return batch.filter(pa.array(u < r))

    return ds.map_batches(keep, batch_format="pyarrow",
                          zero_copy_batch=True)


def cap_per_group(ds: "ray.data.Dataset", group_col: str, key_col: str,
                  cap: int) -> "ray.data.Dataset":
    """Cap each group at ``cap`` rows, kept in deterministic hash-rank
    order — the hot-cell downsampler (bound a skewed spatial cell /
    source / user at N rows without a global sort).

    Per-batch partials pre-truncate each group to its local best-``cap``
    by ``hash_rank(key)`` (so the shuffle carries ≤ cap·batches rows per
    group, not the hot group's full mass), then one groupby-group
    re-truncates.  Selection is a pure function of the key — resumable
    and replayable in SQL as ``row_number() OVER (PARTITION BY group
    ORDER BY rank, key) <= cap``.
    """
    def local_cap(batch: pa.Table) -> pa.Table:
        import pandas as pd

        g = batch.column(group_col).to_pandas().to_numpy()
        k = batch.column(key_col).to_numpy(zero_copy_only=False)
        r = hash_rank(k)
        order = np.lexsort((k, r, g))
        gs = g[order]
        starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
        pos = (np.arange(len(gs))
               - np.repeat(starts, np.diff(np.r_[starts, len(gs)])))
        keep = order[pos < cap]
        out = batch.take(pa.array(np.sort(keep)))
        return out.append_column(
            "rank", pa.array(hash_rank(
                out.column(key_col).to_numpy(zero_copy_only=False))))

    def final_cap(tbl: pa.Table) -> pa.Table:
        r = tbl.column("rank").to_numpy(zero_copy_only=False)
        k = tbl.column(key_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((k, r))[:cap]
        return tbl.take(pa.array(np.sort(order))).drop_columns(["rank"])

    part = ds.map_batches(local_cap, batch_format="pyarrow",
                          zero_copy_batch=True)
    return part.groupby(group_col).map_groups(final_cap,
                                              batch_format="pyarrow")


def weighted_sample(ds: "ray.data.Dataset", key_col: str, weight_col: str,
                    k: int) -> "ray.data.Dataset":
    """Weight-proportional sample of ``k`` rows without replacement —
    Efraimidis–Spirakis A-Res with a DETERMINISTIC uniform: each row
    scores ``ln(u)/w`` with ``u = (Lehmer(key)+1)/(MOD+1)`` and the k
    largest scores win, so inclusion odds follow the weights while the
    selection stays a pure function of the keys (resumable, replayable
    in SQL as an ORDER BY ... LIMIT k).

    Per-batch partials keep their local top-k only (the classic
    bounded-sliver reduce), then one tiny final re-truncate.
    """
    def score_of(keys: np.ndarray, w: np.ndarray) -> np.ndarray:
        u = (hash_rank(keys).astype(np.float64) + 1.0) / float(_MOD + 1)
        return np.log(u) / w

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        w = batch.column(weight_col).to_numpy(zero_copy_only=False)
        s = score_of(keys, w.astype(np.float64))
        order = np.lexsort((keys, -s))[:k]
        return pa.table({key_col: pa.array(keys[order]),
                         "score": pa.array(s[order])})

    def final(tbl: pa.Table) -> pa.Table:
        keys = tbl.column(key_col).to_numpy(zero_copy_only=False)
        s = tbl.column("score").to_numpy(zero_copy_only=False)
        order = np.lexsort((keys, -s))[:k]
        # scores are O(1/weight): scale to micro-units before rounding
        # so the output column keeps its resolution
        return pa.table({key_col: pa.array(keys[order]),
                         "score_e6": pa.array(
                             np.round(s[order] * 1e6, 6))})

    part = ds.map_batches(partial, batch_format="pyarrow",
                          zero_copy_batch=True)
    return part.repartition(1).map_batches(final, batch_format="pyarrow",
                                           batch_size=None)
