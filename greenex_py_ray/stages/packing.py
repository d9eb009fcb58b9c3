"""Sequence packing: concat-then-chunk assignment via distributed prefix sum.

The standard LLM pretraining layout: all documents are concatenated in
a fixed global order (ascending ``key_col``) and the token stream is
chunked into fixed-length training sequences.  Each document needs its
exclusive prefix offset in the global stream — a distributed prefix
sum, which Ray Data has no primitive for.  Two-pass plan that avoids a
global sort:

1. **bucket totals** — ``bucket = key // bucket_span`` (contiguous key
   ranges, so bucket order IS key order).  One ``map_batches`` partial
   collapses each batch to per-bucket sums, a tiny ``groupby(bucket)``
   merges them (shuffle payload = O(#buckets), not O(#rows)), and the
   driver cumsums the bucket table (KB-scale even at 100 TB:
   10¹¹ docs / 2¹⁶ span ≈ 1.5M buckets) and broadcasts it.
2. **within-bucket cumsum** — ``groupby(bucket).map_groups``: each
   bucket sorts its own rows by key and adds its broadcast exclusive
   bucket offset.  The shuffle moves every row once, partitioned by
   contiguous key range (no skew: bucket size ≤ bucket_span by
   construction).

Output per doc: ``offset`` (exclusive token prefix), ``start_seq`` /
``end_seq`` (first/last training-sequence index the doc lands in,
NULL for empty docs).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ray.data.aggregate import Sum

from ..sidefiles import shipped, side_table


def _bucket_partial(batch: pa.Table, key_col: str, count_col: str,
                    bucket_span: int) -> pa.Table:
    k = batch.column(key_col).to_numpy(zero_copy_only=False).astype(np.int64)
    c = batch.column(count_col).to_numpy(zero_copy_only=False).astype(np.int64)
    b = k // bucket_span
    ub, inv = np.unique(b, return_inverse=True)
    s = np.zeros(len(ub), dtype=np.int64)
    np.add.at(s, inv, c)
    return pa.table({"bucket": pa.array(ub), "s": pa.array(s)})


def bucket_offsets(ds: "ray.data.Dataset", key_col: str, count_col: str,
                   bucket_span: int) -> tuple[np.ndarray, np.ndarray]:
    """(sorted bucket ids, exclusive cumulative token offsets) — pass 1.
    The merged bucket table is tiny by construction; pulling it to the
    driver is the point (it becomes the broadcast side)."""
    part = ds.map_batches(
        lambda b: _bucket_partial(b, key_col, count_col, bucket_span),
        batch_format="pyarrow", zero_copy_batch=True)
    rows = part.groupby("bucket").aggregate(Sum("s", alias_name="s")).take_all()
    if not rows:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    b = np.array([r["bucket"] for r in rows], dtype=np.int64)
    s = np.array([r["s"] for r in rows], dtype=np.int64)
    order = np.argsort(b)
    b, s = b[order], s[order]
    off = np.concatenate(([0], np.cumsum(s)[:-1]))
    return b, off


class _PackGroup:
    """map_groups body: within-bucket exclusive cumsum + bucket offset."""

    def __init__(self, offsets_ref, seq_len: int, key_col: str,
                 count_col: str, bucket_span: int):
        # keep the ObjectRef — resolved lazily inside the task so the
        # offset table ships through the object store once per node,
        # not inlined into every serialized task closure
        self._ref = offsets_ref
        self._tbl = None
        self.seq_len = int(seq_len)
        self.key_col = key_col
        self.count_col = count_col
        self.bucket_span = int(bucket_span)

    def __call__(self, grp: pd.DataFrame) -> pd.DataFrame:
        if self._tbl is None:
            self._tbl = side_table(self._ref)
        self.b, self.off = self._tbl
        grp = grp.sort_values(self.key_col, kind="mergesort")
        k = grp[self.key_col].to_numpy(dtype=np.int64)
        c = grp[self.count_col].to_numpy(dtype=np.int64)
        base = self.off[np.searchsorted(self.b, k[0] // self.bucket_span)]
        offset = base + np.concatenate(([0], np.cumsum(c)[:-1]))
        start = offset // self.seq_len
        end = (offset + c - 1) // self.seq_len
        out = pd.DataFrame({
            self.key_col: k,
            self.count_col: c,
            "offset": offset,
            "start_seq": pd.array(np.where(c > 0, start, 0),
                                  dtype="Int64"),
            "end_seq": pd.array(np.where(c > 0, end, 0), dtype="Int64"),
        })
        empty = c == 0
        if empty.any():
            out.loc[empty, ["start_seq", "end_seq"]] = pd.NA
        return out


def chunk_plan(ds: "ray.data.Dataset", window: int, stride: int,
               key_col: str = "doc_id",
               count_col: str = "n_tokens") -> "ray.data.Dataset":
    """Sliding-window chunk plan: one output row per training chunk of
    ``window`` tokens advancing by ``stride`` (< window ⇒ overlap),
    the per-document layout step of a context-window training set.

    Per doc with ``n = count_col`` tokens: ``k = 1`` chunk when
    ``n <= window`` else ``1 + ceil((n - window) / stride)`` (the last
    chunk is the first one whose window reaches the end; every token
    is covered, chunk ``i`` spans ``[i*stride, i*stride + n_tok)``
    with ``n_tok = min(window, n - i*stride)``).  Docs with 0 tokens
    emit nothing.

    Scale shape: embarrassingly parallel — a single zero-copy
    ``map_batches`` expansion (repeat + arange), NO shuffle; the output
    is at most ``window/stride``× the input row count and streams
    straight to the consumer."""
    if not (0 < stride <= window):
        raise ValueError("need 0 < stride <= window")

    def expand(batch: pa.Table) -> pa.Table:
        key = batch.column(key_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        n = batch.column(count_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        k = np.where(n <= 0, 0,
                     np.where(n <= window, 1,
                              1 + (n - window + stride - 1) // stride))
        tot = int(k.sum())
        keys = np.repeat(key, k)
        n_rep = np.repeat(n, k)
        starts_excl = np.repeat(np.concatenate(([0], np.cumsum(k)[:-1])), k)
        chunk_id = np.arange(tot, dtype=np.int64) - starts_excl
        start_tok = chunk_id * stride
        n_tok = np.minimum(window, n_rep - start_tok)
        return pa.table({
            key_col: pa.array(keys),
            "chunk_id": pa.array(chunk_id),
            "start_tok": pa.array(start_tok),
            "n_tok": pa.array(n_tok),
        })

    return ds.map_batches(expand, batch_format="pyarrow",
                          zero_copy_batch=True)


def sequence_pack(ds: "ray.data.Dataset", seq_len: int,
                  key_col: str = "doc_id", count_col: str = "n_tokens",
                  bucket_span: int = 8192) -> "ray.data.Dataset":
    """Assign every doc its token offset and training-sequence range in
    the concat-then-chunk packing of the corpus ordered by ``key_col``.
    ``ds`` must carry integer ``key_col`` and ``count_col`` columns."""
    ref = shipped(bucket_offsets(ds, key_col, count_col, bucket_span))

    def add_bucket(batch: pa.Table) -> pa.Table:
        k = batch.column(key_col).to_numpy(
            zero_copy_only=False).astype(np.int64)
        return batch.append_column("bucket", pa.array(k // bucket_span))

    with_bucket = ds.map_batches(add_bucket, batch_format="pyarrow",
                                 zero_copy_batch=True)
    body = _PackGroup(ref, seq_len, key_col, count_col, bucket_span)

    def pack_group(grp: pd.DataFrame) -> pd.DataFrame:
        return body(grp)

    return with_bucket.groupby("bucket").map_groups(
        pack_group, batch_format="pandas")
